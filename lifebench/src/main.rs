//! `lifebench`: the end-to-end benchmark of the XML document lifecycle.
//!
//! ```text
//! lifebench --workload <load|serve|churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload builds a durable Oracle 9 store of seeded Appendix A
//! university documents, drives it for `--seconds`, reopens it, and checks
//! every output against oracles computed from the generator. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`, which also writes the spans to
//! `.bench_run/trace-<workload>-<seed>.json`). See `README.md`.

mod gen;
mod load;
mod serve;
mod store;
mod trace;
mod util;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use serve::Latencies;
use store::Tally;
use trace::{EngineEvents, Recorder};
use util::median;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload measured; `main` turns it into metrics.
pub struct Outcome {
    pub tally: Tally,
    pub setup_s: f64,
    /// Documents stored per second, where the workload stores any.
    pub docs_per_s: Option<f64>,
    pub recover_s: f64,
    pub disk_ratio: f64,
    pub reads_per_s: f64,
    /// Peak resident memory of the process holding the store, MiB.
    pub peak_rss_mb: f64,
    pub lat: Latencies,
    pub rec: Recorder,
    pub engine: EngineEvents,
    pub overhead_pct: f64,
}

type Metric = (String, f64, &'static str);

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let m = |name: &str, v: f64, unit| (name.to_string(), v, unit);
    vec![
        m("setup_s", o.setup_s, "s"),
        m("recover_s", o.recover_s, "s"),
        m("disk_bytes_per_xml_byte", o.disk_ratio, "ratio"),
        m("peak_rss_mb", o.peak_rss_mb, "MiB"),
        m("reads_per_s", o.reads_per_s, "1/s"),
        m("get_p50_ms", median(&o.lat.get), "ms"),
        m("query_p50_ms", median(&o.lat.query), "ms"),
    ]
}

fn per_layer(o: &Outcome) -> Vec<Metric> {
    let r = &o.rec;
    let per = |counter: &str, span: &str| {
        let n = r.count(span);
        if n == 0 {
            0.0
        } else {
            r.counter(counter) / n as f64
        }
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let (batches, batch_ms) = o.engine.get("batch");
    let (inserts, insert_ms) = o.engine.get("execute:INSERT");
    let (commits, commit_ms) = o.engine.get("execute:COMMIT");
    let load_ms = if batches + inserts == 0 {
        0.0
    } else {
        (batch_ms + insert_ms) / r.counter("docs_stored")
    };
    // Wire COMMITs (churn) are the engine's own spans; in-process ingest
    // commits are timed around `Database::commit`.
    let commit = if commits > 0 {
        commit_ms / commits as f64
    } else {
        r.mean_ms("ordb.wal.commit")
    };
    let m = |name: &str, v: f64, unit| (name.to_string(), v, unit);
    vec![
        m("xml.parse_ms", r.mean_ms("xml.parse"), "ms"),
        m("dtd.validate_ms", r.mean_ms("dtd.validate"), "ms"),
        m("core.loader.ops_ms", r.mean_ms("core.loader.ops"), "ms"),
        m(
            "core.loader.ops_per_doc",
            per("core.loader.ops", "core.loader.ops"),
            "count",
        ),
        m("ordb.exec.load_ms", load_ms, "ms"),
        m("ordb.wal.commit_ms", commit, "ms"),
        m(
            "ordb.wal.bytes_per_doc",
            ratio(r.counter("ordb.wal.bytes"), r.counter("ordb.wal.docs")),
            "bytes",
        ),
        m(
            "ordb.snapshot.count",
            ratio(r.counter("ordb.snapshot.writes"), r.counter("rounds")),
            "count",
        ),
        m(
            "ordb.snapshot.write_ms",
            r.mean_ms("ordb.snapshot.write"),
            "ms",
        ),
        m("ordb.open_ms", r.mean_ms("ordb.open"), "ms"),
        m(
            "core.rehydrate_ms",
            r.mean_ms("core.open") - r.mean_ms("ordb.open"),
            "ms",
        ),
        m(
            "core.metadata.lookup_ms",
            r.mean_ms("core.metadata.lookup"),
            "ms",
        ),
        m(
            "core.metadata.rows_scanned_per_get",
            per("core.metadata.rows_scanned", "core.metadata.lookup"),
            "count",
        ),
        m(
            "core.retriever.reconstruct_ms",
            r.mean_ms("core.retriever.reconstruct"),
            "ms",
        ),
        m(
            "core.retriever.index_probes_per_get",
            per("core.retriever.index_probes", "core.retriever.reconstruct"),
            "count",
        ),
        m(
            "core.retriever.table_scans_per_get",
            per("core.retriever.table_scans", "core.retriever.reconstruct"),
            "count",
        ),
        m("xml.serialize_ms", r.mean_ms("xml.serialize"), "ms"),
        m("ordb.exec.query_ms", r.mean_ms("ordb.exec.query"), "ms"),
        m(
            "ordb.exec.rows_scanned_per_query",
            per("ordb.exec.query_rows_scanned", "ordb.exec.query"),
            "count",
        ),
        m(
            "ordb.exec.plan_cache_hit_ratio",
            ratio(
                r.counter("ordb.exec.plan_cache_hits"),
                r.counter("ordb.exec.plan_cache_lookups"),
            ),
            "ratio",
        ),
        m("ordb.mvcc.refresh_ms", r.mean_ms("ordb.mvcc.refresh"), "ms"),
        m(
            "ordb.mvcc.refreshes_per_get",
            per("ordb.mvcc.refreshes", "core.metadata.lookup"),
            "count",
        ),
        m(
            "ordb.mvcc.fresh_per_get",
            per("ordb.mvcc.fresh", "core.metadata.lookup"),
            "count",
        ),
        m("server.noop_rtt_ms", r.mean_ms("server.noop"), "ms"),
        m("trace.overhead_pct", o.overhead_pct, "%"),
    ]
}

fn json_line(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.wrong == 0 && o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let root = PathBuf::from(".bench_run");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    eprintln!(
        "# lifebench {} seed={} seconds={} trace={} host_cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::cpus()
    );
    let outcome = match args.workload.as_str() {
        "load" => load::run(args, &work),
        "serve" => serve::run(args, &work, false),
        "churn" => serve::run(args, &work, true),
        other => Err(format!("unknown workload {other} (load, serve, churn)")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    let metrics = if args.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    if let Some(rate) = outcome.docs_per_s {
        eprintln!("# documents stored per second {rate:.1} (not a gated metric)");
    }
    for (name, v, unit) in &metrics {
        eprintln!("# {name:<40} {v:>14.4} {unit}");
    }
    if args.trace {
        let path = root.join(format!("trace-{}-{}.json", args.workload, args.seed));
        trace::write_json(
            &path,
            &args.workload,
            args.seed,
            &outcome.rec,
            &outcome.engine,
            &metrics,
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("# spans written to {}", path.display());
    }
    println!("{}", json_line(&outcome, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lifebench: {e}");
            ExitCode::from(2)
        }
    }
}
