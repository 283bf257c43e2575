//! The traced run's instruments.
//!
//! [`Recorder`] keeps one span per timed public call the benchmark makes,
//! tagged with the workload's operation and a request id; spans opened
//! while another is open name it as their parent. [`EngineEvents`] is the
//! engine's own [`TraceSink`] (installed only in the traced run), folded
//! into per-phase totals. Both are written out as JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xmlord_ordb::{CallbackSink, TraceHandle};

pub struct Span {
    pub op: &'static str,
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-thread span recorder; merge recorders with [`Recorder::absorb`].
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Time `f` as a span `name` of operation `op`, request `req`.
    pub fn span<T>(
        &mut self,
        op: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            op,
            name,
            req,
            parent: self.open.last().copied(),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(idx);
        let out = f();
        self.spans[idx].dur_ns = start.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Record a span that was timed elsewhere (e.g. a wire round trip).
    pub fn record(
        &mut self,
        op: &'static str,
        name: &'static str,
        req: u64,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(Span {
            op,
            name,
            req,
            parent: self.open.last().copied(),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_default() += v;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of the spans named `name`, in ms (0 when there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e6
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            self.add(k, v);
        }
    }
}

/// Per-phase totals of the engine's trace events. The `execute` phase is
/// split by statement kind (`execute:INSERT`, `execute:COMMIT`, ...).
#[derive(Clone, Default)]
pub struct EngineEvents(Arc<Mutex<BTreeMap<String, (u64, u64)>>>);

impl EngineEvents {
    pub fn handle(&self) -> TraceHandle {
        let totals = Arc::clone(&self.0);
        TraceHandle::new(CallbackSink::new(move |event: &xmlord_ordb::TraceEvent| {
            let key = if event.phase == "execute" {
                let kind = event.detail.split(' ').next().unwrap_or("");
                format!("execute:{kind}")
            } else {
                event.phase.to_string()
            };
            let mut totals = totals
                .lock()
                .expect("no thread panics holding the event totals");
            let entry = totals.entry(key).or_default();
            entry.0 += 1;
            entry.1 += event.nanos;
        }))
    }

    /// `(events, total ms)` of one phase key.
    pub fn get(&self, key: &str) -> (u64, f64) {
        let totals = self
            .0
            .lock()
            .expect("no thread panics holding the event totals");
        totals
            .get(key)
            .map(|&(n, ns)| (n, ns as f64 / 1e6))
            .unwrap_or((0, 0.0))
    }

    fn snapshot(&self) -> BTreeMap<String, (u64, u64)> {
        self.0
            .lock()
            .expect("no thread panics holding the event totals")
            .clone()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the traced run's spans, counters, engine events and per-layer
/// metrics to `path`.
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    rec: &Recorder,
    engine: &EngineEvents,
    metrics: &[(String, f64, &str)],
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"spans\":[",
        json_str(workload)
    );
    for (i, s) in rec.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"workload\":{},\"op\":{},\"name\":{},\"req\":{},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}",
            json_str(workload),
            json_str(s.op),
            json_str(s.name),
            s.req,
            s.start_ns,
            s.dur_ns
        );
    }
    out.push_str("],\"counters\":{");
    for (i, (k, v)) in rec.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", json_str(k));
    }
    out.push_str("},\"engine_events\":{");
    for (i, (k, (n, ns))) in engine.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{{\"count\":{n},\"total_ns\":{ns}}}", json_str(k));
    }
    out.push_str("},\"metrics\":{");
    for (i, (k, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_str(k),
            json_str(unit)
        );
    }
    out.push_str("}}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
