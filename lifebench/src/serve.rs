//! The `serve` and `churn` workloads: a preloaded store behind the wire
//! server.
//!
//! On `serve`, two closed-loop connections run the read mix. On `churn`,
//! one connection stores a document every [`WRITER_PERIOD`] (open loop)
//! and the other reads each acknowledged document back: one `.get` and
//! one §4.1 query per store. The first read after a commit is the one
//! that pays the reader's MVCC refresh, so every `.get` on `churn` pays
//! exactly one refresh and every query none, and the period leaves the
//! refresh finished before the next store is due. That keeps both
//! connections' figures repeatable from run to run.

use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use xml2ordb::metadata::metadata_insert;
use xml2ordb::pipeline::apply_attribute_defaults;
use xml2ordb::{load_script, MappedSchema};
use xmlord_ordb::ReadSession;
use xmlord_server::Server;

use crate::gen::{Rng, Size};
use crate::store::{self, doc_id, doc_name, Corpus, Queries, Tally};
use crate::trace::{EngineEvents, Recorder};
use crate::util::{copy_dir, interquartile_mean, median, ms, piecewise_median, timed, wal_len};
use crate::wire::Client;
use crate::{Args, Outcome};

/// Documents preloaded during set-up.
pub const STORE_DOCS: u64 = 2000;
/// Documents per `store_documents` transaction while preloading.
pub const PRELOAD_TXN: u64 = 20;
/// `churn`'s writer: one wire store of a large document per period.
/// Large documents keep the store's own work, not scheduling jitter, the
/// bulk of its latency; the period leaves room for the reader's refresh,
/// `.get` and query between stores.
pub const WRITER_PERIOD: Duration = Duration::from_millis(400);
/// Builds of the store in set-up.
const SETUPS: usize = 5;
/// Reopenings in the recovery phase.
const REOPENS: usize = 9;
/// On a traced `churn` run, the in-process probe runs after every this
/// many stores, so that it stays inside the writer's period.
const CHURN_PROBE_EVERY: u64 = 4;

/// Latency samples, ms, per operation, and when each read completed.
#[derive(Default)]
pub struct Latencies {
    pub get: Vec<f64>,
    pub query: Vec<f64>,
    pub meta: Vec<f64>,
    pub store: Vec<f64>,
    /// When each read completed.
    pub read_done: Vec<Instant>,
}

impl Latencies {
    fn absorb(&mut self, other: Latencies) {
        self.get.extend(other.get);
        self.query.extend(other.query);
        self.meta.extend(other.meta);
        self.store.extend(other.store);
        self.read_done.extend(other.read_done);
    }

    /// Reads per second: the interquartile mean over the whole one-second
    /// windows of the traffic, so that a burst of host noise in a few
    /// windows does not move it.
    fn read_rate(&self, start: Instant, end: Instant) -> f64 {
        let windows = (end - start).as_secs() as usize;
        let mut counts = vec![0.0; windows.max(1)];
        for t in &self.read_done {
            if let Some(c) = counts.get_mut((*t - start).as_secs() as usize) {
                *c += 1.0;
            }
        }
        interquartile_mean(&counts)
    }

    /// `churn`'s reader's reads per second of its busy time: the two
    /// reads of a round (the `.get` and the query on one stored document)
    /// over the interquartile mean of the rounds' summed latencies. The
    /// reader waits for the writer between rounds, so its rate over the
    /// whole traffic would be the writer's pace; this is the rate its
    /// reads' own cost allows.
    fn busy_rate(&self) -> f64 {
        let rounds: Vec<f64> = self
            .get
            .iter()
            .zip(&self.query)
            .map(|(g, q)| g + q)
            .collect();
        2e3 / interquartile_mean(&rounds)
    }

    pub fn reads(&self) -> usize {
        self.get.len() + self.query.len() + self.meta.len()
    }
}

/// Everything a reader thread needs, shared read-only.
struct Shared {
    corpus: Corpus,
    queries: Queries,
    schema: MappedSchema,
}

/// One `.get` over the wire, checked against the oracle.
fn wire_get(c: &mut Client, corpus: &Corpus, n: u64, lat: &mut Latencies, tally: &mut Tally) {
    let (resp, d) = timed(|| c.request(&format!(".get {}", doc_id(n))));
    lat.get.push(ms(d));
    lat.read_done.push(Instant::now());
    let outcome = resp
        .map_err(|e| e.to_string())
        .and_then(|r| match r.status {
            Ok(1) if r.body.len() == 1 => Ok(corpus.body_ok(n, r.body[0].as_bytes())),
            Ok(_) => Ok(false),
            Err(e) => Err(e),
        });
    tally.op(&format!(".get {}", doc_id(n)), outcome);
}

/// The §4.1 query on document `n` over the wire, checked against the
/// oracle's rows.
fn wire_query(c: &mut Client, sh: &Shared, n: u64, lat: &mut Latencies, tally: &mut Tally) {
    let (resp, d) = timed(|| c.request(&format!("{};", sh.queries.path_query(n))));
    lat.query.push(ms(d));
    lat.read_done.push(Instant::now());
    let outcome = resp
        .map_err(|e| e.to_string())
        .and_then(|r| match r.status {
            Ok(rows) => {
                let cells: Vec<String> = r
                    .body
                    .iter()
                    .filter_map(|l| l.strip_prefix("| "))
                    .map(str::to_string)
                    .collect();
                Ok(rows == cells.len() && sh.corpus.rows_ok(n, cells))
            }
            Err(e) => Err(e),
        });
    tally.op(&format!("§4.1 query on {}", doc_id(n)), outcome);
}

/// One round of `serve`'s read mix: two `.get`s, the §4.1 query and the
/// `TabMetadata` lookup, each on a document drawn uniformly from the
/// store.
fn wire_round(c: &mut Client, sh: &Shared, rng: &mut Rng, lat: &mut Latencies, tally: &mut Tally) {
    for _ in 0..2 {
        wire_get(c, &sh.corpus, rng.range(1, STORE_DOCS), lat, tally);
    }
    wire_query(c, sh, rng.range(1, STORE_DOCS), lat, tally);
    let n = rng.range(1, STORE_DOCS);
    let (resp, d) = timed(|| c.request(&format!("{};", Queries::meta_lookup(n))));
    lat.meta.push(ms(d));
    lat.read_done.push(Instant::now());
    let outcome = resp
        .map_err(|e| e.to_string())
        .and_then(|r| match r.status {
            Ok(_) => Ok(r.body == [format!("| {}", doc_name(n))]),
            Err(e) => Err(e),
        });
    tally.op("TabMetadata lookup", outcome);
}

/// The traced run's probe: a `.get` and the §4.1 query through the
/// layers' public functions, on an in-process read session of the same
/// store.
fn probe(sh: &Shared, session: &mut ReadSession, n: u64, rec: &mut Recorder, tally: &mut Tally) {
    let body = store::session_get(session, &sh.schema, n, Some(rec));
    tally.op("probe get", body.map(|b| sh.corpus.body_ok(n, &b)));
    let rows = store::session_query(
        session,
        &sh.queries.path_query(n),
        "query",
        "ordb.exec.query",
        n,
        Some(rec),
    );
    tally.op("probe §4.1 query", rows.map(|r| sh.corpus.rows_ok(n, r)));
}

/// `.epoch` on a quiet store: the server answers from a fresh snapshot
/// without touching the data, so the round trip is the wire's own cost.
pub fn noop(c: &mut Client, rec: &mut Recorder, tally: &mut Tally) {
    let start = Instant::now();
    let resp = c.request(".epoch");
    rec.record("noop", "server.noop", 0, start, start.elapsed());
    tally.op(
        ".epoch",
        resp.map(|r| r.status == Ok(0)).map_err(|e| e.to_string()),
    );
}

/// What a client thread hands back.
struct Finished {
    lat: Latencies,
    tally: Tally,
    rec: Option<Recorder>,
    end: Instant,
    late: Vec<f64>,
}

/// `serve`'s closed-loop reader: whole rounds until `deadline`.
fn serve_reader(
    sh: &Shared,
    mut c: Client,
    seed: u64,
    deadline: Instant,
    mut probe_with: Option<(ReadSession, Recorder)>,
) -> Finished {
    let mut rng = Rng::new(seed);
    let mut lat = Latencies::default();
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        wire_round(&mut c, sh, &mut rng, &mut lat, &mut tally);
        if let Some((session, rec)) = probe_with.as_mut() {
            probe(sh, session, rng.range(1, STORE_DOCS), rec, &mut tally);
        }
    }
    let end = Instant::now();
    let _ = c.request(".quit");
    Finished {
        lat,
        tally,
        rec: probe_with.map(|(_, r)| r),
        end,
        late: Vec::new(),
    }
}

/// `churn`'s reader: for every acknowledged store, `.get` the document
/// (its first read after the commit, so it pays the refresh and sees the
/// reader's next snapshot) and run the §4.1 query on it. A traced run's
/// probe goes first, right after the acknowledgement, so that it ends
/// well before the next commit can land inside it.
fn churn_reader(
    sh: &Shared,
    mut c: Client,
    acked: mpsc::Receiver<u64>,
    mut probe_with: Option<(ReadSession, Recorder)>,
) -> Finished {
    let mut lat = Latencies::default();
    let mut tally = Tally::default();
    for n in acked {
        if let Some((session, rec)) = probe_with.as_mut() {
            if n % CHURN_PROBE_EVERY == 0 {
                probe(sh, session, n, rec, &mut tally);
            }
        }
        wire_get(&mut c, &sh.corpus, n, &mut lat, &mut tally);
        wire_query(&mut c, sh, n, &mut lat, &mut tally);
    }
    let end = Instant::now();
    let _ = c.request(".quit");
    Finished {
        lat,
        tally,
        rec: probe_with.map(|(_, r)| r),
        end,
        late: Vec::new(),
    }
}

/// A wire store: the mapping's generated INSERT script plus the
/// meta-table row and `COMMIT;`, sent in one write.
struct Script {
    n: u64,
    text: String,
    responses: usize,
}

/// Generate the writer's scripts, as the paper's utility would: parse and
/// validate each document, then print its load as SQL.
fn scripts(
    sys: &xml2ordb::Xml2OrDb,
    docs: &[(String, String)],
    first: u64,
) -> Result<Vec<Script>, String> {
    let reg = sys
        .schema(crate::gen::SCHEMA)
        .ok_or("schema not registered")?;
    docs.iter()
        .zip(first..)
        .map(|((name, text), n)| {
            let mut doc = xmlord_xml::parse_with_catalog(text, reg.dtd.entity_catalog())
                .map_err(|e| e.to_string())?;
            if !xmlord_dtd::validate(&doc, &reg.dtd).is_valid() {
                return Err(format!("{} is not valid", doc_id(n)));
            }
            apply_attribute_defaults(&mut doc, &reg.dtd);
            let id = doc_id(n);
            let stmts = load_script(&reg.schema, &reg.dtd, &doc, &id).map_err(|e| e.to_string())?;
            let meta = metadata_insert(&reg.schema, &reg.dtd, &doc, &id, name, "", "2002-03-25");
            let mut text = String::new();
            for s in stmts.iter().chain(std::iter::once(&meta)) {
                text.push_str(s);
                text.push_str(";\n");
            }
            text.push_str("COMMIT;\n");
            Ok(Script {
                n,
                text,
                responses: stmts.len() + 2,
            })
        })
        .collect()
}

/// The open-loop writer: store `k` is due at `start + k * period`; its
/// latency runs from when it was due to its `COMMIT`'s acknowledgement.
fn writer(
    mut c: Client,
    scripts: Vec<Script>,
    start: Instant,
    acked: mpsc::Sender<u64>,
) -> Finished {
    let mut lat = Latencies::default();
    let mut late = Vec::new();
    let mut tally = Tally::default();
    for (k, s) in scripts.iter().enumerate() {
        let due = start + WRITER_PERIOD * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        late.push(ms(Instant::now() - due));
        let resp = c.exchange(&s.text, s.responses);
        lat.store.push(ms(Instant::now() - due));
        let outcome = resp.map_err(|e| e.to_string()).and_then(|rs| {
            match rs.iter().find_map(|r| r.status.as_ref().err()) {
                Some(e) => Err(e.clone()),
                None => Ok(rs.iter().all(|r| r.status == Ok(0) && r.body.is_empty())),
            }
        });
        let ok = outcome == Ok(true);
        tally.op(&format!("wire store of {}", doc_id(s.n)), outcome);
        if ok {
            let _ = acked.send(s.n);
        }
    }
    let end = Instant::now();
    drop(acked);
    let _ = c.request(".quit");
    Finished {
        lat,
        tally,
        rec: None,
        end,
        late,
    }
}

pub fn run(args: &Args, work: &Path, churn: bool) -> Result<Outcome, String> {
    let traced = args.trace;
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let engine = EngineEvents::default();
    let mut tally = Tally::default();
    let dir = work.join("store");

    // Inputs: the preloaded corpus and, on churn, the writer's documents.
    let mut corpus = Corpus::new(args.seed);
    let preload = corpus.extend(STORE_DOCS, Size::Mixed);
    let stores = if churn {
        (args.seconds * 1000 / WRITER_PERIOD.as_millis() as u64).max(2)
    } else {
        0
    };
    let written = corpus.extend(STORE_DOCS + stores, Size::Large);

    // Set-up: build the store (several times, timed piece by piece; the
    // last build is kept), start the server, connect and warm up.
    let mut builds = Vec::new();
    let mut preload_ms = Vec::new();
    let mut sys = None;
    for build in 0..SETUPS {
        drop(sys.take());
        let last = build + 1 == SETUPS;
        let (s, d) = timed(|| store::create(&dir));
        let mut s = s?;
        let mut pieces = vec![d.as_secs_f64()];
        if traced && last {
            store::set_sink(&mut s, Some(&engine));
        }
        for (i, chunk) in preload.chunks(PRELOAD_TXN as usize).enumerate() {
            let first = 1 + i as u64 * PRELOAD_TXN;
            let trace = (traced && last).then_some(&mut rec);
            let (ok, d) = timed(|| store::store_txn(&mut s, first, chunk, trace));
            tally.op("preload transaction", ok);
            preload_ms.push(ms(d));
            pieces.push(d.as_secs_f64());
        }
        builds.push(pieces);
        sys = Some(s);
    }
    let sys = sys.expect("at least one build");
    let setup_start = Instant::now();
    let wal_preload = wal_len(&dir);
    let schema = sys
        .schema(crate::gen::SCHEMA)
        .ok_or("schema not registered")?
        .schema
        .clone();
    let queries = Queries::new(&schema);
    // Script generation is input making, not set-up: keep it off the clock.
    let (scripts, paused) = timed(|| scripts(&sys, &written, STORE_DOCS + 1));
    let scripts = scripts?;
    let server = Server::bind("127.0.0.1:0", sys.into_database()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let writer_handle = server.spawn();
    let connect = |tally: &mut Tally| -> Result<Client, String> {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        // The first request pins the connection's snapshot (a full copy).
        let r = c.request(".epoch").map_err(|e| e.to_string())?;
        tally.op("warm-up .epoch", Ok(r.status == Ok(0)));
        Ok(c)
    };
    let mut conns = Some((connect(&mut tally)?, connect(&mut tally)?));
    let writer_db = || {
        writer_handle
            .lock()
            .expect("no thread panics holding the server's writer")
    };
    let mut probe_session = traced.then(|| {
        let mut s = writer_db().read_session();
        s.refresh();
        s
    });
    // The engine's sink stays off until the traced half of the traffic.
    writer_db().set_trace_sink(None);
    let setup_s = piecewise_median(&builds) + (setup_start.elapsed() - paused).as_secs_f64();

    let sh = Shared {
        corpus,
        queries,
        schema,
    };
    let seconds = Duration::from_secs(args.seconds);
    // A traced run measures an untraced first half, then a traced second
    // half; the gap between their read rates is the tracing overhead.
    let phases: Vec<(Duration, bool)> = if traced {
        vec![(seconds / 2, false), (seconds - seconds / 2, true)]
    } else {
        vec![(seconds, false)]
    };
    let per_phase = if traced { stores.div_ceil(2) } else { stores } as usize;
    let mut scripts = scripts.into_iter();
    let mut kept = Latencies::default();
    let mut rates = Vec::new();
    let mut late = Vec::new();
    let mut docs_per_s = None;
    let mut stored = STORE_DOCS;
    let mut traffic = Duration::ZERO;
    for (phase, (len, probing)) in phases.into_iter().enumerate() {
        let (a, b) = match conns.take() {
            Some(pair) => pair,
            None => (connect(&mut tally)?, connect(&mut tally)?),
        };
        if probing {
            writer_db().set_trace_sink(Some(engine.handle()));
        }
        let probe_with = probing.then(|| {
            (
                probe_session.take().expect("one traced phase"),
                Recorder::new(origin),
            )
        });
        let start = Instant::now();
        let seed = args.seed ^ ((phase as u64 + 1) << 32);
        let finished: Vec<Finished> = thread::scope(|s| {
            let sh = &sh;
            let jobs = if churn {
                let (tx, rx) = mpsc::channel();
                let batch: Vec<Script> = scripts.by_ref().take(per_phase).collect();
                vec![
                    s.spawn(move || writer(a, batch, start, tx)),
                    s.spawn(move || churn_reader(sh, b, rx, probe_with)),
                ]
            } else {
                let deadline = start + len;
                vec![
                    s.spawn(move || serve_reader(sh, a, seed ^ 1, deadline, probe_with)),
                    s.spawn(move || serve_reader(sh, b, seed ^ 2, deadline, None)),
                ]
            };
            jobs.into_iter()
                .map(|j| j.join().expect("client thread"))
                .collect()
        });
        let mut phase_lat = Latencies::default();
        let mut churn_reads = 0.0;
        let mut end = start;
        for f in finished {
            tally.absorb(&f.tally);
            if let Some(r) = f.rec {
                rec.absorb(r);
            }
            end = end.max(f.end);
            if churn && !f.lat.store.is_empty() {
                stored += f.lat.store.len() as u64;
                if probing {
                    rec.add("docs_stored", f.lat.store.len() as f64);
                }
                if phase == 0 {
                    docs_per_s = Some(f.lat.store.len() as f64 / (f.end - start).as_secs_f64());
                    late = f.late;
                }
            } else if churn {
                churn_reads = f.lat.busy_rate();
            }
            phase_lat.absorb(f.lat);
        }
        traffic = end - start;
        rates.push(if churn {
            churn_reads
        } else {
            phase_lat.read_rate(start, end)
        });
        if phase == 0 {
            kept.absorb(phase_lat);
        }
    }
    let peak_rss_mb = crate::util::peak_rss_mb();
    // Let the server's connection threads drop their snapshots before
    // the recovery phase is timed.
    thread::sleep(Duration::from_millis(500));
    if !churn {
        kept.store = preload_ms;
    }
    let wal_end = wal_len(&dir);
    rec.add(
        "ordb.wal.bytes",
        if churn {
            wal_end - wal_preload
        } else {
            wal_preload
        } as f64,
    );
    rec.add(
        "ordb.wal.docs",
        if churn {
            stored - STORE_DOCS
        } else {
            STORE_DOCS
        } as f64,
    );

    // Recovery: every connection has quit, so the server is idle and its
    // files hold exactly the acknowledged commits. Reopen a copy.
    let copy = work.join("recovered");
    copy_dir(&dir, &copy);
    let samples = [1, STORE_DOCS / 2 + 1, stored];
    let (recovery, sys) = store::recover(
        &copy,
        REOPENS,
        &sh.corpus,
        stored,
        &samples,
        &mut tally,
        traced.then_some(&mut rec),
    )?;
    let close = store::close(sys)?;
    rec.record(
        "recover",
        "ordb.snapshot.write",
        0,
        Instant::now() - close,
        close,
    );
    rec.add("ordb.snapshot.writes", 1.0);
    rec.add("rounds", 1.0);
    let disk = store::disk_ratio(&copy, &sh.corpus, stored);

    if traced {
        // No-op round trips on a fresh connection, once the store is quiet.
        let mut c = connect(&mut tally)?;
        for _ in 0..20 {
            noop(&mut c, &mut rec, &mut tally);
        }
        let _ = c.request(".quit");
    }
    if churn {
        let late_max = late.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "# churn: open-loop writer ran late by median {:.3} ms, max {late_max:.3} ms",
            median(&late)
        );
        rec.add("wire.generator_late_ms_max", late_max);
    }
    eprintln!(
        "# {}: set-up builds {:?} s, traffic {:.1}s, {} reads ({} gets), store p50 {:.2} ms over {}, recover samples {:?}",
        if churn { "churn" } else { "serve" },
        builds
            .iter()
            .map(|b| (b.iter().sum::<f64>() * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        traffic.as_secs_f64(),
        kept.reads(),
        kept.get.len(),
        median(&kept.store),
        kept.store.len(),
        recovery.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
    Ok(Outcome {
        tally,
        setup_s,
        docs_per_s,
        recover_s: median(&recovery) / 1e3,
        disk_ratio: disk,
        reads_per_s: rates[0],
        peak_rss_mb,
        lat: kept,
        rec,
        engine,
        overhead_pct: if traced {
            100.0 * (rates[0] - rates[1]) / rates[0]
        } else {
            0.0
        },
    })
}
