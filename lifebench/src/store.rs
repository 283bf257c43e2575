//! What every workload shares: the corpus and its oracles, building a
//! durable store, the in-process read path, and the recovery phase.

use std::path::Path;
use std::time::Duration;

use xml2ordb::metadata::{metadata_insert, read_metadata};
use xml2ordb::pathquery::{translate, PathQuery};
use xml2ordb::pipeline::{apply_attribute_defaults, retrieval_serialize_options, RegisteredSchema};
use xml2ordb::retriever::{reconstruct, retrieve_via_session};
use xml2ordb::{load_ops, plan_batches, LoadUnit, MappedSchema, Xml2OrDb};
use xmlord_ordb::{DbMode, ReadSession};
use xmlord_xml::serializer::serialize_to;

use crate::gen;
use crate::trace::{EngineEvents, Recorder};
use crate::util::{dir_bytes, ms, timed};

pub const MODE: DbMode = DbMode::Oracle9;

/// Operations attempted and failed, and outputs that disagreed with an
/// oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Count one operation: `Err` is a failure, `Ok(false)` a wrong output.
    pub fn op(&mut self, what: &str, outcome: Result<bool, String>) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                self.wrong += 1;
                eprintln!("# wrong output: {what}");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("# failed: {what}: {e}");
            }
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// The documents of a run and what the program must answer about them.
/// Document `n` is stored as DocID `uni-<n>` and DocName `u<n>.xml`.
pub struct Corpus {
    seed: u64,
    digests: Vec<u64>,
    query_rows: Vec<Vec<&'static str>>,
    xml_bytes: Vec<u64>,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        Corpus {
            seed,
            digests: Vec::new(),
            query_rows: Vec::new(),
            xml_bytes: Vec::new(),
        }
    }

    /// Generate documents `len+1 ..= upto`, keep their oracles, and return
    /// their `(DocName, text)`.
    pub fn extend(&mut self, upto: u64, size: gen::Size) -> Vec<(String, String)> {
        let first = self.digests.len() as u64 + 1;
        (first..=upto)
            .map(|n| {
                let doc = gen::document(self.seed, n, size);
                let text = doc.xml();
                let mut rows = doc.query_rows();
                rows.sort_unstable();
                self.digests.push(gen::digest(text.as_bytes()));
                self.query_rows.push(rows);
                self.xml_bytes.push(text.len() as u64);
                (doc_name(n), text)
            })
            .collect()
    }

    pub fn body_ok(&self, n: u64, body: &[u8]) -> bool {
        self.digests[(n - 1) as usize] == gen::digest(body)
    }

    pub fn rows_ok(&self, n: u64, mut rows: Vec<String>) -> bool {
        rows.sort_unstable();
        rows == self.query_rows[(n - 1) as usize]
    }

    /// Source bytes of documents `1..=n`.
    pub fn xml_bytes(&self, n: u64) -> u64 {
        self.xml_bytes[..n as usize].iter().sum()
    }
}

pub fn doc_id(n: u64) -> String {
    format!("{}-{n}", gen::SCHEMA)
}

pub fn doc_name(n: u64) -> String {
    format!("u{n}.xml")
}

/// The read mix's SQL: the §4.1 query restricted to one document, and the
/// `TabMetadata` point lookup.
pub struct Queries {
    path_sql: String,
    id_col: String,
}

impl Queries {
    pub fn new(schema: &MappedSchema) -> Queries {
        // "Family names of students who subscribed to a course of
        // Professor Jaeger" (§4.1), translated to dot notation by the
        // program's own path-query translator.
        let q = PathQuery::parse("Student/LName")
            .with_predicate("Student/Course/Professor/PName", gen::QUERY_PROFESSOR);
        let path_sql = translate(schema, &q).expect("§4.1 query translates").sql;
        let id_col = schema
            .doc_id_column
            .clone()
            .expect("root table has a DocID column");
        Queries { path_sql, id_col }
    }

    pub fn path_query(&self, n: u64) -> String {
        format!("{} AND t0.{} = '{}'", self.path_sql, self.id_col, doc_id(n))
    }

    pub fn meta_lookup(n: u64) -> String {
        format!(
            "SELECT m.DocName FROM TabMetadata m WHERE m.DocID = '{}'",
            doc_id(n)
        )
    }
}

/// Create a store in `dir` with the university DTD registered and the
/// load and retrieval indexes in place.
pub fn create(dir: &Path) -> Result<Xml2OrDb, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut sys = Xml2OrDb::open(dir, MODE).map_err(|e| e.to_string())?;
    sys.register_dtd(gen::SCHEMA, gen::DTD, gen::ROOT)
        .map_err(|e| e.to_string())?;
    sys.create_load_indexes(gen::SCHEMA)
        .map_err(|e| e.to_string())?;
    sys.create_retrieval_indexes(gen::SCHEMA)
        .map_err(|e| e.to_string())?;
    Ok(sys)
}

/// Store `docs` (numbered from `first`) in one transaction. Untraced this
/// is one `store_documents` call; traced, the same steps run through the
/// layers' public functions one by one, each in its own span, with the
/// engine's trace sink installed.
pub fn store_txn(
    sys: &mut Xml2OrDb,
    first: u64,
    docs: &[(String, String)],
    trace: Option<&mut Recorder>,
) -> Result<bool, String> {
    let want: Vec<String> = (first..first + docs.len() as u64).map(doc_id).collect();
    let Some(rec) = trace else {
        let refs: Vec<(&str, &str)> = docs.iter().map(|(n, t)| (n.as_str(), t.as_str())).collect();
        let ids = sys
            .store_documents(gen::SCHEMA, &refs)
            .map_err(|e| e.to_string())?;
        return Ok(ids == want);
    };
    let reg: RegisteredSchema = sys
        .schema(gen::SCHEMA)
        .cloned()
        .ok_or("schema not registered")?;
    let db = sys.database();
    let mark = db.txn_mark();
    let result = (|| {
        for (((name, text), id), req) in docs.iter().zip(&want).zip(first..) {
            let doc = rec.span("store", "xml.parse", req, || {
                xmlord_xml::parse_with_catalog(text, reg.dtd.entity_catalog())
            });
            let mut doc = doc.map_err(|e| e.to_string())?;
            let report = rec.span("store", "dtd.validate", req, || {
                xmlord_dtd::validate(&doc, &reg.dtd)
            });
            if !report.is_valid() {
                return Err(format!("{id} invalid: {:?}", report.errors));
            }
            apply_attribute_defaults(&mut doc, &reg.dtd);
            let units = rec.span("store", "core.loader.ops", req, || {
                load_ops(&reg.schema, &reg.dtd, &doc, id).map(|ops| {
                    let n = ops.len();
                    (n, plan_batches(ops))
                })
            });
            let (n_ops, units) = units.map_err(|e| e.to_string())?;
            rec.add("core.loader.ops", n_ops as f64);
            let meta = metadata_insert(&reg.schema, &reg.dtd, &doc, id, name, "", "2002-03-25");
            rec.span("store", "ordb.exec.apply", req, || {
                for unit in &units {
                    match unit {
                        LoadUnit::Batch(b) => db.execute_batch(b).map(|_| ()),
                        LoadUnit::Stmt(s) => db.execute_stmt(s).map(|_| ()),
                    }
                    .map_err(|e| e.to_string())?;
                }
                db.execute(&meta).map(|_| ()).map_err(|e| e.to_string())
            })?;
            rec.add("docs_stored", 1.0);
        }
        rec.span("store", "ordb.wal.commit", first, || db.commit())
            .map_err(|e| e.to_string())
    })();
    if result.is_err() {
        db.rollback_to_mark(mark);
    }
    result.map(|()| true)
}

/// Install (or remove) the engine's trace sink on a store.
pub fn set_sink(sys: &mut Xml2OrDb, engine: Option<&EngineEvents>) {
    sys.database()
        .set_trace_sink(engine.map(EngineEvents::handle));
}

/// The wire server's `.get`, in process: `retrieve_via_session` then
/// `serialize_to`. Traced, the same steps are split into their public
/// calls, and the session's refresh and scan counters are read around
/// them.
pub fn session_get(
    session: &mut ReadSession,
    schema: &MappedSchema,
    n: u64,
    trace: Option<&mut Recorder>,
) -> Result<Vec<u8>, String> {
    let id = doc_id(n);
    let mut body = Vec::with_capacity(4096);
    let Some(rec) = trace else {
        let (doc, meta) = retrieve_via_session(session, schema, &id).map_err(|e| e.to_string())?;
        serialize_to(&doc, &retrieval_serialize_options(&meta), &mut body)
            .map_err(|e| e.to_string())?;
        return Ok(body);
    };
    rec.span("get", "ordb.mvcc.refresh", n, || session.refresh());
    let refreshes = |s: &ReadSession| {
        let (fresh, inc, full) = s.refresh_counts();
        (fresh, fresh + inc + full)
    };
    let (fresh0, total0) = refreshes(session);
    let scanned0 = session.stats().rows_scanned;
    let meta = rec.span("get", "core.metadata.lookup", n, || {
        read_metadata(session, &id)
    });
    let meta = meta.map_err(|e| e.to_string())?;
    rec.add(
        "core.metadata.rows_scanned",
        (session.stats().rows_scanned - scanned0) as f64,
    );
    let bulk = session.bulk_retrieval();
    let built = rec.span("get", "core.retriever.reconstruct", n, || {
        let (_, storage) = session.snapshot();
        reconstruct(storage, schema, &meta, bulk)
    });
    let (doc, stats) = built.map_err(|e| e.to_string())?;
    session.record_retrieval(stats.table_scans, stats.index_probes, bulk);
    let (fresh1, total1) = refreshes(session);
    rec.add("core.retriever.index_probes", stats.index_probes as f64);
    rec.add("core.retriever.table_scans", stats.table_scans as f64);
    rec.add("ordb.mvcc.refreshes", (total1 - total0) as f64);
    rec.add("ordb.mvcc.fresh", (fresh1 - fresh0) as f64);
    rec.span("get", "xml.serialize", n, || {
        serialize_to(&doc, &retrieval_serialize_options(&meta), &mut body)
    })
    .map_err(|e| e.to_string())?;
    Ok(body)
}

/// One SELECT on a read session; traced, with its scan and plan-cache
/// counters.
pub fn session_query(
    session: &mut ReadSession,
    sql: &str,
    op: &'static str,
    span: &'static str,
    req: u64,
    trace: Option<&mut Recorder>,
) -> Result<Vec<String>, String> {
    let Some(rec) = trace else {
        let result = session.query(sql).map_err(|e| e.to_string())?;
        return Ok(result.rows.iter().map(|r| r[0].to_string()).collect());
    };
    let before = session.stats();
    let result = rec
        .span(op, span, req, || session.query(sql))
        .map_err(|e| e.to_string())?;
    let delta = session.stats().since(&before);
    if span == "ordb.exec.query" {
        rec.add("ordb.exec.query_rows_scanned", delta.rows_scanned as f64);
        rec.add("ordb.exec.plan_cache_hits", delta.plan_cache_hits as f64);
        rec.add(
            "ordb.exec.plan_cache_lookups",
            (delta.plan_cache_hits + delta.plan_cache_misses) as f64,
        );
    }
    Ok(result.rows.iter().map(|r| r[0].to_string()).collect())
}

/// The recovery phase: reopen a closed or crashed store several times and
/// check it holds exactly the acknowledged documents. Returns the time of
/// each `Xml2OrDb::open`, ms, and the last reopened store.
pub fn recover(
    dir: &Path,
    reopens: usize,
    corpus: &Corpus,
    stored: u64,
    samples: &[u64],
    tally: &mut Tally,
    mut trace: Option<&mut Recorder>,
) -> Result<(Vec<f64>, Xml2OrDb), String> {
    let mut out = Vec::new();
    let mut last = None;
    for _ in 0..reopens {
        drop(last.take());
        if let Some(rec) = trace.as_deref_mut() {
            let (db, d) = timed(|| xmlord_ordb::Database::open(dir, MODE));
            rec.record("recover", "ordb.open", 0, std::time::Instant::now() - d, d);
            drop(db.map_err(|e| e.to_string())?);
        }
        let (sys, d) = timed(|| Xml2OrDb::open(dir, MODE));
        if let Some(rec) = trace.as_deref_mut() {
            rec.record("recover", "core.open", 0, std::time::Instant::now() - d, d);
        }
        out.push(ms(d));
        let sys = sys.map_err(|e| e.to_string());
        tally.op("reopen", sys.as_ref().map(|_| true).map_err(Clone::clone));
        last = Some(sys?);
    }
    let mut sys = last.ok_or("no reopening")?;
    let count = sys
        .database()
        .query_scalar("SELECT COUNT(*) FROM TabMetadata");
    tally.op(
        "TabMetadata count after recovery",
        count
            .map(|v| v.to_string() == stored.to_string())
            .map_err(|e| e.to_string()),
    );
    for &n in samples {
        let got = sys.retrieve_document(&doc_id(n)).map_err(|e| e.to_string());
        tally.op(
            &format!("retrieval of {} after recovery", doc_id(n)),
            got.map(|t| corpus.body_ok(n, t.as_bytes())),
        );
    }
    Ok((out, sys))
}

/// Close a store cleanly; returns the time it took.
pub fn close(sys: Xml2OrDb) -> Result<Duration, String> {
    let (r, d) = timed(|| sys.into_database().close());
    r.map_err(|e| e.to_string())?;
    Ok(d)
}

/// Bytes in the store directory per byte of source XML.
pub fn disk_ratio(dir: &Path, corpus: &Corpus, stored: u64) -> f64 {
    dir_bytes(dir) as f64 / corpus.xml_bytes(stored) as f64
}
