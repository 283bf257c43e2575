//! The `load` workload: in-process library ingest into a durable store
//! that already holds a base corpus, then a clean close, reopenings and
//! reads on the recovered store.
//!
//! The run repeats whole rounds until its time is up. Every round sets up
//! the same base store afresh (timed piece by piece: `setup_s` is the
//! piecewise median of these builds, taken across the whole run so that
//! the host's drift over a run weighs on it as on the other figures) and
//! stores the same documents in the same transactions, so the WAL and
//! snapshot work falls at the same points in every round and every run.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::{Rng, Size};
use crate::serve::{noop, Latencies};
use crate::store::{self, Corpus, Queries, Tally};
use crate::trace::{EngineEvents, Recorder};
use crate::util::{median, ms, piecewise_median, timed, wal_len};
use crate::{Args, Outcome};

/// Documents in the base store built during set-up.
pub const BASE_DOCS: u64 = 400;
/// Documents each round stores.
pub const ROUND_DOCS: u64 = 400;
/// Documents per `store_documents` transaction.
pub const TXN_DOCS: u64 = 20;
/// Documents per transaction while building the base store.
const BASE_TXN: u64 = 20;
/// Reopenings per round.
const REOPENS: usize = 5;
/// Read-mix rounds (`.get`, §4.1 query, metadata lookup) per round.
const READS: usize = 25;
/// Rounds a run makes at least, so that the tails have their samples.
const MIN_ROUNDS: usize = 5;

/// Build the base store; returns the seconds each piece took: creation,
/// every transaction, and the clean close.
fn build_base(
    dir: &Path,
    docs: &[(String, String)],
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let (sys, d) = timed(|| store::create(dir));
    let mut sys = sys?;
    let mut pieces = vec![d.as_secs_f64()];
    for (i, chunk) in docs.chunks(BASE_TXN as usize).enumerate() {
        let (ok, d) = timed(|| store::store_txn(&mut sys, 1 + i as u64 * BASE_TXN, chunk, None));
        tally.op("base transaction", ok);
        pieces.push(d.as_secs_f64());
    }
    pieces.push(store::close(sys)?.as_secs_f64());
    Ok(pieces)
}

struct Round<'a> {
    corpus: &'a Corpus,
    base_docs: &'a [(String, String)],
    docs: &'a [(String, String)],
    dir: &'a Path,
    seed: u64,
}

/// Per-round figures. Rates are taken as medians over rounds, so that a
/// burst of host noise in a few rounds does not move them.
#[derive(Default)]
struct Totals {
    lat: Latencies,
    /// Each round's base-store build, timed piece by piece.
    builds: Vec<Vec<f64>>,
    /// Documents per second of each round's ingest.
    ingest_rates: Vec<f64>,
    /// Reads per second of each round's read mix.
    read_rates: Vec<f64>,
    recover_ms: Vec<f64>,
    disk: Vec<f64>,
    rounds: usize,
}

impl Round<'_> {
    fn run(
        &self,
        number: u64,
        out: &mut Totals,
        tally: &mut Tally,
        mut trace: Option<(&mut Recorder, &EngineEvents)>,
    ) -> Result<(), String> {
        out.builds
            .push(build_base(self.dir, self.base_docs, tally)?);
        let mut sys = xml2ordb::Xml2OrDb::open(self.dir, store::MODE).map_err(|e| e.to_string())?;
        store::set_sink(&mut sys, trace.as_ref().map(|(_, e)| *e));
        let wal0 = wal_len(self.dir);
        let mut ingest = Duration::ZERO;
        for (i, chunk) in self.docs.chunks(TXN_DOCS as usize).enumerate() {
            let first = BASE_DOCS + 1 + i as u64 * TXN_DOCS;
            let rec = trace.as_mut().map(|(r, _)| &mut **r);
            let (ok, d) = timed(|| store::store_txn(&mut sys, first, chunk, rec));
            tally.op("store transaction", ok);
            out.lat.store.push(ms(d));
            ingest += d;
        }
        out.ingest_rates
            .push(ROUND_DOCS as f64 / ingest.as_secs_f64());
        let wal1 = wal_len(self.dir);
        let close = store::close(sys)?;
        let total = BASE_DOCS + ROUND_DOCS;
        out.disk
            .push(store::disk_ratio(self.dir, self.corpus, total));
        if let Some((rec, _)) = trace.as_mut() {
            rec.add("ordb.wal.bytes", wal1.saturating_sub(wal0) as f64);
            rec.add("ordb.wal.docs", ROUND_DOCS as f64);
            rec.record(
                "close",
                "ordb.snapshot.write",
                number,
                Instant::now() - close,
                close,
            );
            // A WAL shorter after the ingest than the bytes it took means
            // an auto-snapshot reset it on the way.
            rec.add("ordb.snapshot.writes", 1.0 + f64::from(wal1 <= wal0));
            rec.add("rounds", 1.0);
        }
        let samples = [1, BASE_DOCS + 1, total];
        let rec = trace.as_mut().map(|(r, _)| &mut **r);
        let (recovery, mut sys) =
            store::recover(self.dir, REOPENS, self.corpus, total, &samples, tally, rec)?;
        out.recover_ms.extend(recovery);

        // Reads on the recovered store, through a read session as the
        // server would make them.
        let schema = sys
            .schema(crate::gen::SCHEMA)
            .ok_or("schema not registered")?
            .schema
            .clone();
        let queries = Queries::new(&schema);
        let mut session = sys.database().read_session();
        session.refresh();
        let mut rng = Rng::new(self.seed ^ number);
        let start = Instant::now();
        for _ in 0..READS {
            let n = rng.range(1, total);
            let rec = trace.as_mut().map(|(r, _)| &mut **r);
            let (body, d) = timed(|| store::session_get(&mut session, &schema, n, rec));
            out.lat.get.push(ms(d));
            tally.op("get", body.map(|b| self.corpus.body_ok(n, &b)));
            let n = rng.range(1, total);
            let sql = queries.path_query(n);
            let rec = trace.as_mut().map(|(r, _)| &mut **r);
            let (rows, d) = timed(|| {
                store::session_query(&mut session, &sql, "query", "ordb.exec.query", n, rec)
            });
            out.lat.query.push(ms(d));
            tally.op("§4.1 query", rows.map(|r| self.corpus.rows_ok(n, r)));
            let n = rng.range(1, total);
            let sql = Queries::meta_lookup(n);
            let rec = trace.as_mut().map(|(r, _)| &mut **r);
            let (rows, d) = timed(|| {
                store::session_query(&mut session, &sql, "meta", "ordb.exec.meta_lookup", n, rec)
            });
            out.lat.meta.push(ms(d));
            tally.op(
                "TabMetadata lookup",
                rows.map(|r| r == [store::doc_name(n)]),
            );
        }
        out.read_rates
            .push((3 * READS) as f64 / start.elapsed().as_secs_f64());
        out.rounds += 1;
        drop(session);
        drop(sys);
        let _ = std::fs::remove_dir_all(self.dir);
        Ok(())
    }
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let traced = args.trace;
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let engine = EngineEvents::default();
    let mut tally = Tally::default();
    let mut corpus = Corpus::new(args.seed);
    let base_docs = corpus.extend(BASE_DOCS, Size::Mixed);
    let round_docs = corpus.extend(BASE_DOCS + ROUND_DOCS, Size::Mixed);

    let round = Round {
        corpus: &corpus,
        base_docs: &base_docs,
        docs: &round_docs,
        dir: &work.join("round"),
        seed: args.seed,
    };
    let seconds = Duration::from_secs(args.seconds);
    let phases: Vec<(Duration, bool)> = if traced {
        vec![(seconds / 2, false), (seconds - seconds / 2, true)]
    } else {
        vec![(seconds, false)]
    };
    let mut kept = Totals::default();
    let mut rates = Vec::new();
    let mut number = 0;
    for (len, tracing) in phases {
        let mut totals = Totals::default();
        let deadline = Instant::now() + len;
        while totals.rounds < MIN_ROUNDS || Instant::now() < deadline {
            number += 1;
            let trace = tracing.then_some((&mut rec, &engine));
            round.run(number, &mut totals, &mut tally, trace)?;
        }
        rates.push(median(&totals.ingest_rates));
        if !tracing {
            kept = totals;
        }
    }
    if traced {
        // The wire's own round trip, on a server of an empty store.
        let server =
            xmlord_server::Server::bind("127.0.0.1:0", xmlord_ordb::Database::new(store::MODE))
                .map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        server.spawn();
        let mut c = crate::wire::Client::connect(addr).map_err(|e| e.to_string())?;
        for _ in 0..20 {
            noop(&mut c, &mut rec, &mut tally);
        }
        let _ = c.request(".quit");
    }
    eprintln!(
        "# load: {} rounds of {ROUND_DOCS} documents in transactions of {TXN_DOCS}, on a base of {BASE_DOCS}",
        kept.rounds
    );
    let peak_rss_mb = crate::util::peak_rss_mb();
    Ok(Outcome {
        tally,
        setup_s: piecewise_median(&kept.builds),
        docs_per_s: Some(rates[0]),
        recover_s: median(&kept.recover_ms) / 1e3,
        disk_ratio: median(&kept.disk),
        reads_per_s: median(&kept.read_rates),
        peak_rss_mb,
        lat: kept.lat,
        rec,
        engine,
        overhead_pct: if traced {
            100.0 * (rates[0] - rates[1]) / rates[0]
        } else {
            0.0
        },
    })
}
