//! The machine-readable `wfbench` report: the `BENCH_*.json` schema, its
//! renderer/parser, and baseline regression comparison.
//!
//! # Schema (version 5)
//!
//! Version 5 dropped the per-engine `churn` and `serve` sections together
//! with the lanes that wrote them. The reader accepts versions 3 to 5:
//! their engine and query fields are the same, the `churn: null` /
//! `serve: null` keys an older document still carries are ignored, and a
//! `phases.defactorization_cpu_ms` written before the wall/cpu split reads
//! back as zero.
//!
//! ```json
//! {
//!   "schema_version": 5,
//!   "dataset": "tiny",          // DatasetSize name
//!   "store": "csr",             // graph storage backend (csr / map / delta)
//!   "scenario": "sharded",      // the --scenario lane (sharded / cyclic)
//!   "triples": 4100,            // dataset size actually generated
//!   "threads": 4,               // closed-loop driver threads
//!   "iterations": 5,            // workload passes per thread
//!   "workload": "full",         // workload name (20 queries for "full")
//!   "engines": [ {
//!     "engine": "sharded-2",
//!     "total_queries": 400,     // queries issued across all threads
//!     "wall_ms": 123.4,         // driver wall-clock for this engine
//!     "qps": 3241.5,            // total_queries / wall seconds
//!     "cache_hits": 396,        // prepared-plan cache counters
//!     "cache_misses": 4,
//!     "queries": [ {
//!       "name": "CQS-1",
//!       "shape": "snowflake",
//!       "samples": 20,          // measured latencies (threads × iterations)
//!       "p50_ms": 0.8, "p95_ms": 1.1, "p99_ms": 1.4, "mean_ms": 0.9,
//!       "phases": {             // mean per-phase breakdown, milliseconds
//!         "planning_ms": 0.0, "answer_graph_ms": 0.5,
//!         "edge_burnback_ms": 0.0, "defactorization_ms": 0.3,
//!         "execution_ms": 0.0, "defactorization_cpu_ms": 0.3
//!       },
//!       "embeddings": 1216,            // |Embeddings|
//!       "answer_graph_edges": 48,      // |AG|; null for non-factorizing engines
//!       "ag_over_embeddings": 0.039    // |AG| / |Embeddings|; null likewise
//!     } ]
//!   } ]
//! }
//! ```
//!
//! All latencies are milliseconds (floats); all counts are exact integers.
//! `ag_over_embeddings` is the paper's factorization claim in ratio form:
//! well below 1.0 means the answer graph is much smaller than the embedding
//! set it represents.

use serde::json::{self, Value};
use serde::Serialize;

/// Version stamp for `BENCH_*.json`; bump when the shape changes.
pub const SCHEMA_VERSION: u64 = 5;

/// The oldest version [`BenchReport::from_json`] reads: versions 3 and 4
/// differ from 5 only in sections the reader ignores.
const OLDEST_READABLE_VERSION: u64 = 3;

/// Mean per-phase latency breakdown, in milliseconds. Factorized phases are
/// zero for single-pass engines and vice versa (mirrors
/// [`wireframe::Timings`]).
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseBreakdown {
    /// Planning (Edgifier + Triangulator).
    pub planning_ms: f64,
    /// Phase one: answer-graph generation.
    pub answer_graph_ms: f64,
    /// Optional edge burnback.
    pub edge_burnback_ms: f64,
    /// Phase two: embedding generation — **wall-clock** (what a client
    /// waits), even when parallel workers split the work.
    pub defactorization_ms: f64,
    /// Single-pass execution (non-factorized engines).
    pub execution_ms: f64,
    /// Phase two **cpu-sum** across defactorization workers: equals
    /// `defactorization_ms` on the sequential path, exceeds it when
    /// parallel workers overlap. Never added into totals. Reports written
    /// before the field existed read back as zero.
    pub defactorization_cpu_ms: f64,
}

/// Measured statistics of one query on one engine.
#[derive(Debug, Clone, Serialize)]
pub struct QueryReport {
    /// Query name (`CQC-1` … `CQD-5`).
    pub name: String,
    /// Query shape (`chain`, `star`, `snowflake`, `cycle`).
    pub shape: String,
    /// Number of latency samples behind the percentiles.
    pub samples: usize,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Mean per-phase breakdown.
    pub phases: PhaseBreakdown,
    /// Number of embeddings (identical across engines, asserted by the driver).
    pub embeddings: u64,
    /// Answer-graph size |AG|; `None` for engines that do not factorize.
    pub answer_graph_edges: Option<u64>,
    /// |AG| / |Embeddings| — the paper's factorization gap (small is good);
    /// `None` for engines that do not factorize.
    pub ag_over_embeddings: Option<f64>,
}

/// One engine's closed-loop run over the whole workload.
#[derive(Debug, Clone, Serialize)]
pub struct EngineRun {
    /// Registry name of the engine.
    pub engine: String,
    /// Queries issued across all driver threads.
    pub total_queries: u64,
    /// Wall-clock time of the closed loop.
    pub wall_ms: f64,
    /// Aggregate throughput: `total_queries` / wall seconds.
    pub qps: f64,
    /// Prepared-plan cache hits observed by the serving `Session`.
    pub cache_hits: u64,
    /// Prepared-plan cache misses observed by the serving `Session`.
    pub cache_misses: u64,
    /// Per-query statistics, in workload order.
    pub queries: Vec<QueryReport>,
}

/// A complete `wfbench` run: the `BENCH_*.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Dataset size name (`tiny` / `small` / `benchmark`).
    pub dataset: String,
    /// Graph storage backend the run was indexed with (`csr` / `map` /
    /// `delta`).
    pub store: String,
    /// The `--scenario` lane (`sharded` / `cyclic`).
    pub scenario: String,
    /// Triples in the generated dataset.
    pub triples: u64,
    /// Closed-loop driver threads.
    pub threads: usize,
    /// Workload passes per thread.
    pub iterations: usize,
    /// Workload name (`full`, `table1`, `chains`, `stars`).
    pub workload: String,
    /// One run per measured engine.
    pub engines: Vec<EngineRun>,
}

impl BenchReport {
    /// Renders the report as indented JSON (the `BENCH_*.json` format).
    pub fn to_json_string(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Parses a report back from JSON, for `--baseline` comparison. Accepts
    /// schema versions 3 to [`SCHEMA_VERSION`].
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = json::from_str(text).map_err(|e| e.to_string())?;
        let version = field_u64(&doc, "schema_version")?;
        if !(OLDEST_READABLE_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema_version {version} \
                 (this binary reads {OLDEST_READABLE_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        Ok(BenchReport {
            schema_version: version,
            dataset: field_str(&doc, "dataset")?,
            store: field_str(&doc, "store")?,
            scenario: field_str(&doc, "scenario")?,
            triples: field_u64(&doc, "triples")?,
            threads: field_u64(&doc, "threads")? as usize,
            iterations: field_u64(&doc, "iterations")? as usize,
            workload: field_str(&doc, "workload")?,
            engines: field_array(&doc, "engines")?
                .iter()
                .map(engine_from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

fn engine_from_json(doc: &Value) -> Result<EngineRun, String> {
    Ok(EngineRun {
        engine: field_str(doc, "engine")?,
        total_queries: field_u64(doc, "total_queries")?,
        wall_ms: field_f64(doc, "wall_ms")?,
        qps: field_f64(doc, "qps")?,
        cache_hits: field_u64(doc, "cache_hits")?,
        cache_misses: field_u64(doc, "cache_misses")?,
        queries: field_array(doc, "queries")?
            .iter()
            .map(query_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn query_from_json(doc: &Value) -> Result<QueryReport, String> {
    let phases = doc
        .get("phases")
        .ok_or_else(|| "query report is missing \"phases\"".to_owned())?;
    Ok(QueryReport {
        name: field_str(doc, "name")?,
        shape: field_str(doc, "shape")?,
        samples: field_u64(doc, "samples")? as usize,
        p50_ms: field_f64(doc, "p50_ms")?,
        p95_ms: field_f64(doc, "p95_ms")?,
        p99_ms: field_f64(doc, "p99_ms")?,
        mean_ms: field_f64(doc, "mean_ms")?,
        phases: PhaseBreakdown {
            planning_ms: field_f64(phases, "planning_ms")?,
            answer_graph_ms: field_f64(phases, "answer_graph_ms")?,
            edge_burnback_ms: field_f64(phases, "edge_burnback_ms")?,
            defactorization_ms: field_f64(phases, "defactorization_ms")?,
            execution_ms: field_f64(phases, "execution_ms")?,
            // Absent on reports written before the wall/cpu split.
            defactorization_cpu_ms: phases
                .get("defactorization_cpu_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        },
        embeddings: field_u64(doc, "embeddings")?,
        answer_graph_edges: doc.get("answer_graph_edges").and_then(Value::as_u64),
        ag_over_embeddings: doc.get("ag_over_embeddings").and_then(Value::as_f64),
    })
}

fn field<'a>(doc: &'a Value, name: &str) -> Result<&'a Value, String> {
    doc.get(name)
        .ok_or_else(|| format!("report is missing field {name:?}"))
}

fn field_str(doc: &Value, name: &str) -> Result<String, String> {
    field(doc, name)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field {name:?} is not a string"))
}

fn field_u64(doc: &Value, name: &str) -> Result<u64, String> {
    field(doc, name)?
        .as_u64()
        .ok_or_else(|| format!("field {name:?} is not an unsigned integer"))
}

fn field_f64(doc: &Value, name: &str) -> Result<f64, String> {
    field(doc, name)?
        .as_f64()
        .ok_or_else(|| format!("field {name:?} is not a number"))
}

fn field_array<'a>(doc: &'a Value, name: &str) -> Result<&'a [Value], String> {
    field(doc, name)?
        .as_array()
        .ok_or_else(|| format!("field {name:?} is not an array"))
}

/// Latency differences below this absolute floor never count as regressions:
/// tiny-dataset queries answer in microseconds, where scheduler jitter alone
/// exceeds any sensible relative tolerance.
pub const LATENCY_FLOOR_MS: f64 = 0.5;

/// One regression found by [`compare`].
#[derive(Debug, Clone)]
pub struct Regression {
    /// Engine the regression was observed on.
    pub engine: String,
    /// Query name, or `*` for engine-level metrics (QPS).
    pub query: String,
    /// Which metric regressed (`p50_ms`, `qps`, `embeddings`, …).
    pub metric: &'static str,
    /// The committed baseline value.
    pub baseline: f64,
    /// The value measured by this run.
    pub current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} regressed from {:.3} to {:.3}",
            self.engine, self.query, self.metric, self.baseline, self.current
        )
    }
}

/// Compares `current` against a committed `baseline` with a relative
/// `tolerance` (0.15 = 15% slack).
///
/// * Latency (`p50_ms`) and throughput (`qps`) regress when they are worse
///   than the baseline by more than the tolerance; latency additionally must
///   exceed [`LATENCY_FLOOR_MS`] of absolute slowdown.
/// * Result counts (`embeddings`, `answer_graph_edges`) must match exactly —
///   a drifting answer is a correctness bug, not a performance matter, so
///   tolerance never excuses it.
/// * Engine × query pairs absent from the baseline are skipped (the workload
///   is allowed to grow); pairs absent from the current run regress as
///   `missing` (a silently dropped measurement must not pass).
pub fn compare(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for base_engine in &baseline.engines {
        let Some(cur_engine) = current
            .engines
            .iter()
            .find(|e| e.engine == base_engine.engine)
        else {
            regressions.push(Regression {
                engine: base_engine.engine.clone(),
                query: "*".to_owned(),
                metric: "missing",
                baseline: base_engine.total_queries as f64,
                current: 0.0,
            });
            continue;
        };
        if cur_engine.qps < base_engine.qps / (1.0 + tolerance) {
            regressions.push(Regression {
                engine: base_engine.engine.clone(),
                query: "*".to_owned(),
                metric: "qps",
                baseline: base_engine.qps,
                current: cur_engine.qps,
            });
        }
        for base_query in &base_engine.queries {
            let Some(cur_query) = cur_engine
                .queries
                .iter()
                .find(|q| q.name == base_query.name)
            else {
                regressions.push(Regression {
                    engine: base_engine.engine.clone(),
                    query: base_query.name.clone(),
                    metric: "missing",
                    baseline: base_query.embeddings as f64,
                    current: 0.0,
                });
                continue;
            };
            if cur_query.p50_ms > base_query.p50_ms * (1.0 + tolerance)
                && cur_query.p50_ms - base_query.p50_ms > LATENCY_FLOOR_MS
            {
                regressions.push(Regression {
                    engine: base_engine.engine.clone(),
                    query: base_query.name.clone(),
                    metric: "p50_ms",
                    baseline: base_query.p50_ms,
                    current: cur_query.p50_ms,
                });
            }
            if cur_query.embeddings != base_query.embeddings {
                regressions.push(Regression {
                    engine: base_engine.engine.clone(),
                    query: base_query.name.clone(),
                    metric: "embeddings",
                    baseline: base_query.embeddings as f64,
                    current: cur_query.embeddings as f64,
                });
            }
            // A baseline |AG| disappearing from the current run is itself a
            // regression (the engine stopped factorizing, or the measurement
            // was dropped) — not a pass.
            if let Some(base_ag) = base_query.answer_graph_edges {
                if cur_query.answer_graph_edges != Some(base_ag) {
                    regressions.push(Regression {
                        engine: base_engine.engine.clone(),
                        query: base_query.name.clone(),
                        metric: "answer_graph_edges",
                        baseline: base_ag as f64,
                        current: cur_query.answer_graph_edges.unwrap_or(0) as f64,
                    });
                }
            }
        }
    }
    regressions
}

/// Parses a tolerance argument: `15%` or a bare ratio like `0.15`.
///
/// A bare value above 1.0 is rejected: `--tolerance 15` almost certainly
/// means `15%`, and silently reading it as 1500% slack would disable the
/// regression gate. Use the `%` form for slack beyond 100%.
pub fn parse_tolerance(text: &str) -> Result<f64, String> {
    let (digits, percent) = match text.strip_suffix('%') {
        Some(d) => (d, true),
        None => (text, false),
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid tolerance {text:?} (examples: 15%, 0.15)"))?;
    if !percent && value > 1.0 {
        return Err(format!(
            "ambiguous tolerance {text:?}: bare values are ratios (max 1.0); \
             did you mean {value}%?"
        ));
    }
    let ratio = if percent { value / 100.0 } else { value };
    if !(0.0..=100.0).contains(&ratio) {
        return Err(format!("tolerance {text:?} out of range"));
    }
    Ok(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            dataset: "tiny".into(),
            store: "csr".into(),
            scenario: "sharded".into(),
            triples: 4100,
            threads: 2,
            iterations: 3,
            workload: "full".into(),
            engines: vec![EngineRun {
                engine: "wireframe".into(),
                total_queries: 120,
                wall_ms: 100.0,
                qps: 1200.0,
                cache_hits: 114,
                cache_misses: 6,
                queries: vec![QueryReport {
                    name: "CQS-1".into(),
                    shape: "snowflake".into(),
                    samples: 6,
                    p50_ms: 2.0,
                    p95_ms: 3.0,
                    p99_ms: 3.5,
                    mean_ms: 2.2,
                    phases: PhaseBreakdown {
                        planning_ms: 0.1,
                        answer_graph_ms: 1.2,
                        edge_burnback_ms: 0.0,
                        defactorization_ms: 0.9,
                        execution_ms: 0.0,
                        defactorization_cpu_ms: 0.9,
                    },
                    embeddings: 1216,
                    answer_graph_edges: Some(48),
                    ag_over_embeddings: Some(48.0 / 1216.0),
                }],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json_string();
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.dataset, "tiny");
        assert_eq!(parsed.store, "csr");
        assert_eq!(parsed.scenario, "sharded");
        assert_eq!(parsed.engines.len(), 1);
        let q = &parsed.engines[0].queries[0];
        assert_eq!(q.name, "CQS-1");
        assert_eq!(q.embeddings, 1216);
        assert_eq!(q.answer_graph_edges, Some(48));
        assert!((q.p50_ms - 2.0).abs() < 1e-9);
        assert!((q.phases.answer_graph_ms - 1.2).abs() < 1e-9);
        assert!(compare(&parsed, &report, 0.15).is_empty());
    }

    #[test]
    fn pre_telemetry_reports_read_back_with_defaults() {
        // Reports written before the wall/cpu split (the committed version-3
        // baselines) lack the cpu-sum field; renaming the key simulates its
        // absence (the parser ignores unknown fields).
        let text = sample_report()
            .to_json_string()
            .replace("\"defactorization_cpu_ms\"", "\"legacy\"");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(
            parsed.engines[0].queries[0].phases.defactorization_cpu_ms,
            0.0
        );
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = sample_report().to_json_string();
        let current = format!("\"schema_version\": {SCHEMA_VERSION}");
        let with_version = |v: u64| text.replace(&current, &format!("\"schema_version\": {v}"));
        for version in [2, 999] {
            let err = BenchReport::from_json(&with_version(version)).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
        // Versions 3 and 4 carry the same engine and query fields.
        for version in [3, 4] {
            let parsed = BenchReport::from_json(&with_version(version)).unwrap();
            assert_eq!(parsed.schema_version, version);
        }
    }

    #[test]
    fn latency_regressions_respect_tolerance_and_floor() {
        let baseline = sample_report();
        let mut current = sample_report();
        // 10% slower with 15% tolerance: fine.
        current.engines[0].queries[0].p50_ms = 2.2;
        assert!(compare(&current, &baseline, 0.15).is_empty());
        // 100% slower: regression (and well past the absolute floor).
        current.engines[0].queries[0].p50_ms = 4.0;
        let found = compare(&current, &baseline, 0.15);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "p50_ms");
        assert!(found[0].to_string().contains("CQS-1"));
        // Huge relative slowdown on a microsecond-scale query: under the
        // absolute floor, so not a regression.
        let mut tiny_base = sample_report();
        tiny_base.engines[0].queries[0].p50_ms = 0.01;
        let mut tiny_cur = sample_report();
        tiny_cur.engines[0].queries[0].p50_ms = 0.05;
        assert!(compare(&tiny_cur, &tiny_base, 0.15).is_empty());
    }

    #[test]
    fn count_drift_is_a_regression_regardless_of_tolerance() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.engines[0].queries[0].embeddings = 1215;
        let found = compare(&current, &baseline, 100.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "embeddings");
    }

    #[test]
    fn qps_and_missing_entries_regress() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.engines[0].qps = 100.0;
        let found = compare(&current, &baseline, 0.15);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "qps");

        let mut empty = sample_report();
        empty.engines[0].queries.clear();
        let found = compare(&empty, &baseline, 0.15);
        assert!(found.iter().any(|r| r.metric == "missing"));

        // A *grown* workload (baseline misses entries) is not a regression.
        assert!(compare(&baseline, &empty, 0.15).is_empty());
    }

    #[test]
    fn tolerance_parsing() {
        assert_eq!(parse_tolerance("15%"), Ok(0.15));
        assert_eq!(parse_tolerance("0.15"), Ok(0.15));
        assert_eq!(parse_tolerance("900%"), Ok(9.0));
        assert!(parse_tolerance("abc").is_err());
        assert!(parse_tolerance("-5%").is_err());
        // A bare "15" is almost certainly a forgotten %; never read it as
        // 1500% slack.
        let err = parse_tolerance("15").unwrap_err();
        assert!(err.contains("15%"), "suggests the percent form: {err}");
    }

    #[test]
    fn vanished_answer_graph_measurement_is_a_regression() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.engines[0].queries[0].answer_graph_edges = None;
        current.engines[0].queries[0].ag_over_embeddings = None;
        let found = compare(&current, &baseline, 100.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "answer_graph_edges");
        // The reverse (baseline has no |AG|, current gained one) is growth,
        // not regression.
        assert!(compare(&baseline, &current, 0.15).is_empty());
    }
}
