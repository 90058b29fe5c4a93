//! # wireframe-bench — the benchmark harness
//!
//! Shared plumbing for the binaries and Criterion benches that regenerate the
//! paper's evaluation: dataset construction, per-query measurement, and the
//! Table 1 row format. Engines are dispatched uniformly by name through the
//! workspace's engine registry ([`wireframe::default_registry`]) and measured
//! through the [`wireframe::Engine`] trait.
//!
//! The engines compared:
//!
//! * **WF** — the Wireframe answer-graph engine (`wireframe-core`),
//! * **REL** — the relational hash-join baseline, standing in for the paper's
//!   PostgreSQL / Virtuoso configurations,
//! * **SM** — the sort-merge relational baseline, standing in for the paper's
//!   MonetDB configuration,
//! * **EXPL** — the backtracking graph-exploration baseline, standing in for
//!   the paper's Neo4J configuration.
//!
//! Absolute times are not comparable with the paper (the paper measures
//! client/server systems over a 242 M-triple store); the quantities that are
//! expected to transfer are the *relative* ordering of the engines and the
//! |AG| ≪ |Embeddings| factorization gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cyclic;
pub mod driver;
pub mod report;
pub mod sharded;

use std::time::{Duration, Instant};

use serde::Serialize;

use wireframe::{default_registry, EngineConfig, PreparedQuery};
use wireframe_datagen::{generate, table1_queries, BenchmarkQuery, YagoConfig};
use wireframe_graph::{Graph, StoreKind};
use wireframe_query::Shape;

/// Which dataset size a harness run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSize {
    /// A few thousand triples — used by tests and smoke runs.
    Tiny,
    /// Tens of thousands of triples — the default for `cargo bench`.
    Small,
    /// Hundreds of thousands of triples — the full harness run.
    Benchmark,
    /// Millions of triples — the out-of-cache "large graphs" run where
    /// storage layout dominates (same planted answers as `benchmark`).
    Large,
}

impl DatasetSize {
    /// Parses a size name: `tiny`, `small`, `benchmark` (alias `full`), or
    /// `large`.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "tiny" => Ok(DatasetSize::Tiny),
            "small" => Ok(DatasetSize::Small),
            "benchmark" | "full" => Ok(DatasetSize::Benchmark),
            "large" => Ok(DatasetSize::Large),
            other => Err(format!(
                "unrecognized dataset size {other:?} (accepted: tiny, small, benchmark, large)"
            )),
        }
    }

    /// Reads the size from the `WIREFRAME_BENCH_SIZE` environment variable,
    /// defaulting to `small` when the variable is unset. An unrecognized
    /// value is an error (reported on stderr, exit code 2) rather than a
    /// silent fallback — a typo like `WIREFRAME_BENCH_SIZE=bencmark` must
    /// not quietly benchmark the wrong dataset.
    pub fn from_env() -> Self {
        match std::env::var("WIREFRAME_BENCH_SIZE") {
            Ok(value) => DatasetSize::parse(&value).unwrap_or_else(|msg| {
                eprintln!("WIREFRAME_BENCH_SIZE: {msg}");
                std::process::exit(2);
            }),
            Err(std::env::VarError::NotPresent) => DatasetSize::Small,
            Err(std::env::VarError::NotUnicode(raw)) => {
                eprintln!(
                    "WIREFRAME_BENCH_SIZE: non-UTF-8 value {:?} (accepted: tiny, small, benchmark, large)",
                    raw.to_string_lossy()
                );
                std::process::exit(2);
            }
        }
    }

    /// The size's canonical name (the value [`DatasetSize::parse`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            DatasetSize::Tiny => "tiny",
            DatasetSize::Small => "small",
            DatasetSize::Benchmark => "benchmark",
            DatasetSize::Large => "large",
        }
    }

    /// The generator configuration for this size.
    pub fn config(self) -> YagoConfig {
        match self {
            DatasetSize::Tiny => YagoConfig::tiny(),
            DatasetSize::Small => YagoConfig::small(),
            DatasetSize::Benchmark => YagoConfig::benchmark(),
            DatasetSize::Large => YagoConfig::large(),
        }
    }
}

/// Builds the synthetic dataset for a harness run (default CSR backend).
pub fn build_dataset(size: DatasetSize) -> Graph {
    generate(&size.config())
}

/// Builds the synthetic dataset indexed with the given storage backend, so
/// the same seeded data can be measured on every store (`wfbench --store`).
pub fn build_dataset_with_store(size: DatasetSize, store: StoreKind) -> Graph {
    generate(&size.config()).with_store(store)
}

/// One measured row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Row number (1–10).
    pub row: usize,
    /// Query name (`CQS-1` … `CQD-5`).
    pub name: String,
    /// Predicate labels of the query, joined with `/` as in the paper.
    pub labels: String,
    /// Wireframe execution time.
    pub wf_ms: f64,
    /// Hash-join relational baseline execution time (PostgreSQL / Virtuoso proxy).
    pub relational_ms: f64,
    /// Sort-merge relational baseline execution time (MonetDB proxy).
    pub sortmerge_ms: f64,
    /// Exploration-baseline execution time (Neo4J proxy).
    pub exploration_ms: f64,
    /// Answer-graph size after phase one (|iAG| for snowflakes, |AG| for diamonds).
    pub answer_graph: usize,
    /// Number of embeddings.
    pub embeddings: usize,
    /// Edge walks performed by Wireframe's phase one.
    pub wf_edge_walks: u64,
    /// Edge walks performed by the exploration baseline.
    pub exploration_edge_walks: u64,
    /// Whether the query is cyclic (diamond).
    pub cyclic: bool,
}

impl Table1Row {
    /// |Embeddings| / |AG| — the factorization gap the paper highlights
    /// ("2,867 times smaller" for its second snowflake query).
    pub fn factorization_ratio(&self) -> f64 {
        self.embeddings as f64 / self.answer_graph.max(1) as f64
    }
}

fn label_list(graph: &Graph, bq: &BenchmarkQuery) -> String {
    let dict = graph.dictionary();
    bq.query
        .patterns()
        .iter()
        .map(|p| dict.predicate_label(p.predicate).unwrap_or("?"))
        .collect::<Vec<_>>()
        .join("/")
}

/// The registry names measured by the Table 1 harness, in column order.
pub const TABLE1_ENGINES: [&str; 4] = ["wireframe", "relational", "sortmerge", "exploration"];

/// Measures one benchmark query on every engine of [`TABLE1_ENGINES`],
/// repeating `repeats` times and keeping the average of the warm runs (all
/// but the first), which mirrors the paper's "average of the last four of
/// five runs" methodology.
///
/// All engines are driven uniformly through the workspace's engine registry
/// and the [`wireframe::Engine`] trait. The timed repeats measure
/// `evaluate` on a plan-less prepared query: the Wireframe engine then runs
/// its cost-based planner inside the timed region (the paper measures
/// end-to-end query time, and excluding planning would flatter the factorized
/// engine), while API bookkeeping that no engine performs — query cloning,
/// canonical-form computation — stays outside the loop for every column.
pub fn measure_query(graph: &Graph, bq: &BenchmarkQuery, repeats: usize) -> Table1Row {
    let registry = default_registry();
    let config = EngineConfig::default();

    let mut times: Vec<Vec<Duration>> = vec![Vec::new(); TABLE1_ENGINES.len()];
    let mut answer_graph = 0;
    let mut embeddings = 0;
    let mut wf_edge_walks = 0;
    let mut exploration_edge_walks = 0;

    for (col, name) in TABLE1_ENGINES.iter().enumerate() {
        let engine = registry
            .build(name, graph, &config)
            .expect("Table 1 engine is registered");
        let prepared = PreparedQuery::new(*name, bq.query.clone());
        for _ in 0..repeats.max(2) {
            let t = Instant::now();
            let ev = engine.evaluate(&prepared).expect("query evaluates");
            times[col].push(t.elapsed());

            if let Some(f) = &ev.factorized {
                answer_graph = f.answer_graph_edges;
                wf_edge_walks = f.edge_walks;
                // The |Embeddings| column reports the wireframe engine's
                // answer, the same run the |AG| column comes from.
                embeddings = ev.embedding_count();
            } else {
                assert_eq!(
                    ev.embedding_count(),
                    embeddings,
                    "{}: engine {name} disagrees with wireframe",
                    bq.name
                );
            }
            if *name == "exploration" {
                exploration_edge_walks = ev.metric("edge_walks").unwrap_or(0);
            }
        }
    }

    Table1Row {
        row: bq.row,
        name: bq.name.clone(),
        labels: label_list(graph, bq),
        wf_ms: warm_average_ms(&times[0]),
        relational_ms: warm_average_ms(&times[1]),
        sortmerge_ms: warm_average_ms(&times[2]),
        exploration_ms: warm_average_ms(&times[3]),
        answer_graph,
        embeddings,
        wf_edge_walks,
        exploration_edge_walks,
        cyclic: bq.shape == Shape::Cycle,
    }
}

/// Average of all but the first measurement, in milliseconds.
fn warm_average_ms(times: &[Duration]) -> f64 {
    let warm = &times[1..];
    let total: Duration = warm.iter().sum();
    total.as_secs_f64() * 1e3 / warm.len().max(1) as f64
}

/// Measures every Table 1 query.
pub fn measure_table1(graph: &Graph, repeats: usize) -> Vec<Table1Row> {
    table1_queries(graph)
        .expect("workload builds")
        .iter()
        .map(|bq| measure_query(graph, bq, repeats))
        .collect()
}

/// Renders rows in the layout of the paper's Table 1.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<4} {:<7} {:<72} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9}\n",
        "row",
        "query",
        "labels (1/2/…)",
        "WF ms",
        "REL ms",
        "SM ms",
        "EXPL ms",
        "|AG|",
        "|Embeddings|",
        "ratio"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:<7} {:<72} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9} {:>12} {:>8.0}x\n",
            r.row,
            r.name,
            truncate(&r.labels, 72),
            r.wf_ms,
            r.relational_ms,
            r.sortmerge_ms,
            r.exploration_ms,
            r.answer_graph,
            r.embeddings,
            r.factorization_ratio()
        ));
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_owned()
    } else {
        format!("{}…", &s[..max - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_harness_run_produces_ten_rows() {
        let g = build_dataset(DatasetSize::Tiny);
        let rows = measure_table1(&g, 2);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.embeddings > 0, "{} must be non-empty", r.name);
            assert!(r.answer_graph > 0);
            assert!(r.wf_ms >= 0.0 && r.relational_ms >= 0.0 && r.exploration_ms >= 0.0);
        }
        assert!(rows[0..5].iter().all(|r| !r.cyclic));
        assert!(rows[5..10].iter().all(|r| r.cyclic));
    }

    #[test]
    fn snowflake_rows_show_a_factorization_gap() {
        let g = build_dataset(DatasetSize::Tiny);
        let rows = measure_table1(&g, 2);
        for r in rows.iter().filter(|r| !r.cyclic) {
            assert!(
                r.factorization_ratio() > 1.0,
                "{}: embeddings should outnumber answer edges",
                r.name
            );
        }
    }

    #[test]
    fn table_formatting_contains_every_query() {
        let g = build_dataset(DatasetSize::Tiny);
        let rows = measure_table1(&g, 2);
        let table = format_table1(&rows);
        for r in &rows {
            assert!(table.contains(&r.name));
        }
        assert!(table.contains("|Embeddings|"));
    }

    #[test]
    fn dataset_size_env_parsing() {
        assert_eq!(DatasetSize::Tiny.config(), YagoConfig::tiny());
        assert_eq!(DatasetSize::Benchmark.config(), YagoConfig::benchmark());
    }

    #[test]
    fn dataset_size_parse_accepts_names_and_rejects_typos() {
        assert_eq!(DatasetSize::parse("tiny"), Ok(DatasetSize::Tiny));
        assert_eq!(DatasetSize::parse("small"), Ok(DatasetSize::Small));
        assert_eq!(DatasetSize::parse("benchmark"), Ok(DatasetSize::Benchmark));
        assert_eq!(DatasetSize::parse("full"), Ok(DatasetSize::Benchmark));
        let err = DatasetSize::parse("bencmark").unwrap_err();
        assert!(
            err.contains("bencmark"),
            "the invalid value is named: {err}"
        );
        assert!(err.contains("tiny") && err.contains("small") && err.contains("benchmark"));
        for size in [
            DatasetSize::Tiny,
            DatasetSize::Small,
            DatasetSize::Benchmark,
        ] {
            assert_eq!(DatasetSize::parse(size.name()), Ok(size));
        }
    }
}
