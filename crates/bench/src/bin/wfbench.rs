//! `wfbench` — the verified closed-loop lanes that `benchmark/` does not
//! cover yet, with machine-readable output and baseline regression checking.
//!
//! ```text
//! wfbench --scenario sharded|cyclic [options]
//!
//! scenarios:
//!   sharded                       scatter-gather serving over --shards vertex
//!                                 partitions, every answer cross-checked exactly
//!                                 against an unsharded reference session before
//!                                 and after a seeded mutation batch
//!   cyclic                        the worst-case-optimal engine vs triangulation
//!                                 on a triangle-heavy instance, answers
//!                                 cross-checked bit-for-bit before and after a
//!                                 seeded mutation batch
//!
//! options:
//!   --size tiny|small|benchmark|large   dataset size (default: WIREFRAME_BENCH_SIZE or small)
//!   --threads <N>                 closed-loop driver threads (default: auto, capped at 8);
//!                                 also passed to the wireframe engine's parallel
//!                                 phase-two defactorizer
//!   --iterations <N>              workload passes per thread (default 5)
//!   --workload full|table1|chains|stars   sharded: query mix (default full = all 20)
//!   --store csr|map|delta         graph storage backend to index the dataset with
//!                                 (default csr)
//!   --shards <N>                  sharded: number of vertex partitions (default 2)
//!   --batch <N>                   ops in the seeded mutation batch (default 64)
//!   --churn-seed <N>              PRNG seed of the mutation batch (default 12648430)
//!   --compaction-threshold <F>    sharded, delta store: overlay fraction that
//!                                 triggers compaction (default 0.25)
//!   --edge-burnback               sharded: enable triangulation + edge burnback
//!   --json <path>                 write the BENCH_*.json report here
//!   --baseline <path>             compare against a previous report …
//!   --tolerance <P%>              … allowing P% slack on latency/QPS (default 15%)
//!
//! exit codes: 0 ok · 1 regression against the baseline · 2 usage or runtime error
//! ```
//!
//! The JSON schema is documented in `wireframe_bench::report` and in the
//! README's Benchmarking section. Counts (|AG|, |Embeddings|) must match the
//! baseline exactly; latency and QPS regress only beyond the tolerance.
//! Gated performance evidence is the repo benchmark (`bash benchmark/run.sh`);
//! these lanes are correctness gates first.

use std::process::ExitCode;
use std::sync::Arc;

use wireframe::{core::auto_threads, EngineConfig, SessionConfig, StoreKind};
use wireframe_bench::cyclic::{
    cyclic_dataset, cyclic_workload, run_cyclic, CyclicOptions, DATASET_SEED,
};
use wireframe_bench::report::{
    compare, parse_tolerance, BenchReport, PhaseBreakdown, SCHEMA_VERSION,
};
use wireframe_bench::sharded::{run_sharded, ShardedOptions};
use wireframe_bench::{build_dataset_with_store, DatasetSize};
use wireframe_datagen::{chain_queries, full_workload, star_queries, table1_queries};

/// The lane a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Sharded,
    Cyclic,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Sharded => "sharded",
            Scenario::Cyclic => "cyclic",
        }
    }
}

#[derive(Debug)]
struct Options {
    size: DatasetSize,
    threads: usize,
    iterations: usize,
    workload: String,
    store: StoreKind,
    scenario: Scenario,
    batch: usize,
    churn_seed: u64,
    shards: usize,
    compaction_threshold: Option<f64>,
    edge_burnback: bool,
    json: Option<String>,
    baseline: Option<String>,
    tolerance: Option<f64>,
}

fn usage() -> &'static str {
    "usage: wfbench --scenario sharded|cyclic [--size tiny|small|benchmark|large] \
     [--threads N] [--iterations N] [--workload full|table1|chains|stars] \
     [--store csr|map|delta] [--shards N] [--batch N] [--churn-seed N] \
     [--compaction-threshold F] [--edge-burnback] [--json PATH] \
     [--baseline PATH [--tolerance P%]]"
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    // Resolved lazily after the flags: an explicit --size must win before
    // the environment variable gets a chance to reject the process.
    let mut size: Option<DatasetSize> = None;
    let mut scenario: Option<Scenario> = None;
    let defaults = ShardedOptions::default();
    let mut options = Options {
        size: DatasetSize::Small,
        threads: auto_threads(),
        iterations: 5,
        workload: "full".to_owned(),
        store: StoreKind::default(),
        scenario: Scenario::Sharded,
        batch: defaults.batch,
        churn_seed: defaults.seed,
        shards: defaults.shards,
        compaction_threshold: None,
        edge_burnback: false,
        json: None,
        baseline: None,
        tolerance: None,
    };
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => size = Some(DatasetSize::parse(&value(&mut args, "--size")?)?),
            "--threads" => {
                options.threads = value(&mut args, "--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_owned())?;
                if options.threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
            }
            "--iterations" => {
                options.iterations = value(&mut args, "--iterations")?
                    .parse()
                    .map_err(|_| "--iterations must be a positive integer".to_owned())?;
                if options.iterations == 0 {
                    return Err("--iterations must be at least 1".to_owned());
                }
            }
            "--workload" => {
                let name = value(&mut args, "--workload")?;
                if !["full", "table1", "chains", "stars"].contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (accepted: full, table1, chains, stars)"
                    ));
                }
                options.workload = name;
            }
            "--store" => options.store = StoreKind::parse(&value(&mut args, "--store")?)?,
            "--scenario" => {
                scenario = Some(match value(&mut args, "--scenario")?.as_str() {
                    "sharded" => Scenario::Sharded,
                    "cyclic" => Scenario::Cyclic,
                    other => {
                        return Err(format!(
                            "unknown scenario {other:?} (accepted: sharded, cyclic)\n{}",
                            usage()
                        ))
                    }
                })
            }
            "--batch" => {
                options.batch = value(&mut args, "--batch")?
                    .parse()
                    .map_err(|_| "--batch must be a positive integer".to_owned())?;
                if options.batch == 0 {
                    return Err("--batch must be at least 1".to_owned());
                }
            }
            "--churn-seed" => {
                options.churn_seed = value(&mut args, "--churn-seed")?
                    .parse()
                    .map_err(|_| "--churn-seed must be an unsigned integer".to_owned())?;
            }
            "--shards" => {
                options.shards = value(&mut args, "--shards")?
                    .parse()
                    .map_err(|_| "--shards must be a positive integer".to_owned())?;
                if options.shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
            }
            "--compaction-threshold" => {
                let threshold: f64 = value(&mut args, "--compaction-threshold")?
                    .parse()
                    .map_err(|_| {
                        "--compaction-threshold must be a non-negative number".to_owned()
                    })?;
                if !threshold.is_finite() || threshold < 0.0 {
                    return Err("--compaction-threshold must be a non-negative number".to_owned());
                }
                options.compaction_threshold = Some(threshold);
            }
            "--edge-burnback" => options.edge_burnback = true,
            "--json" => options.json = Some(value(&mut args, "--json")?),
            "--baseline" => options.baseline = Some(value(&mut args, "--baseline")?),
            "--tolerance" => {
                options.tolerance = Some(parse_tolerance(&value(&mut args, "--tolerance")?)?)
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    if options.tolerance.is_some() && options.baseline.is_none() {
        return Err("--tolerance only applies together with --baseline".to_owned());
    }
    options.scenario =
        scenario.ok_or_else(|| format!("--scenario sharded|cyclic is required\n{}", usage()))?;
    options.size = size.unwrap_or_else(DatasetSize::from_env);
    Ok(options)
}

/// Reads and parses the `--baseline` report up front, so a bad path or file
/// fails fast (exit 2) instead of after the whole benchmark has run.
fn load_baseline(options: &Options) -> Result<Option<BenchReport>, String> {
    let Some(path) = &options.baseline else {
        return Ok(None);
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    BenchReport::from_json(&text)
        .map(Some)
        .map_err(|e| format!("cannot parse baseline {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let options = parse_args(std::env::args().skip(1))?;
    let baseline = load_baseline(&options)?;

    let report = match options.scenario {
        Scenario::Sharded => run_sharded_scenario(&options)?,
        // The lane builds its own triangle-heavy instance instead of the
        // Yago dataset: the generic-join/triangulation gap shows on skewed
        // cyclic structure the paper-workload generator does not plant.
        Scenario::Cyclic => run_cyclic_scenario(&options)?,
    };
    print_summary(&report);
    if let Some(path) = &options.json {
        std::fs::write(path, report.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    check_baseline(&report, baseline.as_ref(), &options)
}

/// The `--scenario sharded` lane, wireframe only: the cluster merges
/// factorized answer graphs, which only the wireframe engine produces.
fn run_sharded_scenario(options: &Options) -> Result<BenchReport, String> {
    let mut graph = build_dataset_with_store(options.size, options.store);
    if let Some(threshold) = options.compaction_threshold {
        graph = graph.with_compaction_threshold(threshold);
    }
    let graph = Arc::new(graph);
    eprintln!(
        "dataset {}: {} triples, {} predicates · {} store · {} threads × {} iterations",
        options.size.name(),
        graph.triple_count(),
        graph.predicate_count(),
        options.store.name(),
        options.threads,
        options.iterations
    );

    let workload = match options.workload.as_str() {
        "table1" => table1_queries(&graph),
        "chains" => chain_queries(&graph),
        "stars" => star_queries(&graph),
        _ => full_workload(&graph),
    }
    .map_err(|e| format!("workload does not build: {e}"))?;

    let mut config = EngineConfig::default()
        .with_threads(options.threads)
        .with_store(options.store);
    if options.edge_burnback {
        config = config.with_edge_burnback();
    }
    let sharded_options = ShardedOptions {
        shards: options.shards,
        threads: options.threads,
        iterations: options.iterations,
        batch: options.batch,
        seed: options.churn_seed,
    };
    let session_config = SessionConfig::new().engine_config(config);
    let run = run_sharded(&graph, &workload, session_config, &sharded_options)
        .map_err(|e| format!("sharded: {e}"))?;
    eprintln!(
        "{:<12} {:>8.1} qps · {:>8.1} ms wall · {} shards · answers match the \
         unsharded reference exactly (pre- and post-churn)",
        run.engine, run.qps, run.wall_ms, options.shards
    );
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        dataset: options.size.name().to_owned(),
        store: options.store.name().to_owned(),
        scenario: options.scenario.name().to_owned(),
        triples: graph.triple_count() as u64,
        threads: options.threads,
        iterations: options.iterations,
        workload: options.workload.clone(),
        engines: vec![run],
    })
}

/// The `--scenario cyclic` lane: builds the triangle-heavy instance, runs
/// the verified wco-vs-triangulation comparison, and reports both engines.
fn run_cyclic_scenario(options: &Options) -> Result<BenchReport, String> {
    let graph = Arc::new(cyclic_dataset(options.size, options.store, DATASET_SEED));
    eprintln!(
        "cyclic dataset {}: {} triples, {} predicates · {} store · {} threads × {} iterations",
        options.size.name(),
        graph.triple_count(),
        graph.predicate_count(),
        options.store.name(),
        options.threads,
        options.iterations
    );
    let workload = cyclic_workload(&graph).map_err(|e| format!("workload does not build: {e}"))?;

    let config = EngineConfig::default()
        .with_threads(options.threads)
        .with_store(options.store);
    let cyclic_options = CyclicOptions {
        threads: options.threads,
        iterations: options.iterations,
        batch: options.batch,
        seed: options.churn_seed,
    };
    let (wco, triangulation) = run_cyclic(&graph, &workload, config, &cyclic_options)
        .map_err(|e| format!("cyclic: {e}"))?;
    for run in [&wco, &triangulation] {
        eprintln!(
            "{:<13} {:>8.1} qps · {:>8.1} ms wall · cache {} hits / {} misses",
            run.engine, run.qps, run.wall_ms, run.cache_hits, run.cache_misses
        );
    }
    eprintln!(
        "wco / triangulation speedup: {:.2}x · answers bit-identical (pre- and post-churn)",
        wco.qps / triangulation.qps.max(1e-9)
    );

    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        dataset: options.size.name().to_owned(),
        store: options.store.name().to_owned(),
        scenario: options.scenario.name().to_owned(),
        triples: graph.triple_count() as u64,
        threads: options.threads,
        iterations: options.iterations,
        workload: "cyclic".to_owned(),
        engines: vec![wco, triangulation],
    })
}

/// Compares the finished report against the optional baseline; `Ok(false)`
/// means regressions were found (exit code 1).
fn check_baseline(
    report: &BenchReport,
    baseline: Option<&BenchReport>,
    options: &Options,
) -> Result<bool, String> {
    let Some(baseline) = baseline else {
        return Ok(true);
    };
    let path = options.baseline.as_deref().unwrap_or("<baseline>");
    let tolerance = options.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    let regressions = compare(report, baseline, tolerance);
    if regressions.is_empty() {
        eprintln!(
            "no regression against {path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
        Ok(true)
    } else {
        eprintln!("{} regression(s) against {path}:", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        Ok(false)
    }
}

/// Latency/QPS slack applied when `--baseline` is given without `--tolerance`.
const DEFAULT_TOLERANCE: f64 = 0.15;

fn print_summary(report: &BenchReport) {
    println!(
        "{:<12} {:<7} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "engine", "query", "p50 ms", "p95 ms", "p99 ms", "|AG|", "|Emb|", "AG/Emb"
    );
    for engine in &report.engines {
        for q in &engine.queries {
            println!(
                "{:<12} {:<7} {:>9.3} {:>9.3} {:>9.3} {:>9} {:>12} {:>9}",
                engine.engine,
                q.name,
                q.p50_ms,
                q.p95_ms,
                q.p99_ms,
                q.answer_graph_edges
                    .map_or("-".to_owned(), |v| v.to_string()),
                q.embeddings,
                q.ag_over_embeddings
                    .map_or("-".to_owned(), |v| format!("{v:.4}")),
            );
        }
        if !engine.queries.is_empty() {
            // Label the two defactorization columns explicitly: the wall
            // clock is what a client waits; the worker-cpu sum is what the
            // parallel phase-two defactorizer actually burned across its
            // threads (equal when sequential, larger when parallel).
            let n = engine.queries.len() as f64;
            let mean = |pick: fn(&PhaseBreakdown) -> f64| {
                engine.queries.iter().map(|q| pick(&q.phases)).sum::<f64>() / n
            };
            println!(
                "{:<12} {:<7} plan {:.3} · ag {:.3} · burnback {:.3} · \
                 defac {:.3} wall / {:.3} worker-cpu · exec {:.3} (mean ms)",
                engine.engine,
                "phases",
                mean(|p| p.planning_ms),
                mean(|p| p.answer_graph_ms),
                mean(|p| p.edge_burnback_ms),
                mean(|p| p.defactorization_ms),
                mean(|p| p.defactorization_cpu_ms),
                mean(|p| p.execution_ms),
            );
        }
        println!(
            "{:<12} {:<7} {:>9.1} qps over {} queries",
            engine.engine, "all", engine.qps, engine.total_queries
        );
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` behind `--scenario sharded`, the one flag every
    /// invocation must carry (a later `--scenario` overrides it).
    fn parse(args: &[&str]) -> Result<Options, String> {
        let args = ["--scenario", "sharded"].iter().chain(args);
        parse_args(args.map(|s| s.to_string()))
    }

    #[test]
    fn store_flag_parses() {
        assert_eq!(parse(&[]).unwrap().store, StoreKind::Csr);
        assert_eq!(parse(&["--store", "map"]).unwrap().store, StoreKind::Map);
        assert_eq!(
            parse(&["--store", "delta"]).unwrap().store,
            StoreKind::Delta
        );
        let err = parse(&["--store", "btree"]).unwrap_err();
        assert!(err.contains("csr") && err.contains("map"), "{err}");
    }

    #[test]
    fn scenario_is_required_and_only_sharded_or_cyclic() {
        let err = parse_args(std::iter::empty()).unwrap_err();
        assert!(err.contains("--scenario") && err.contains("usage"), "{err}");
        assert_eq!(parse(&[]).unwrap().scenario, Scenario::Sharded);
        assert_eq!(
            parse(&["--scenario", "cyclic"]).unwrap().scenario,
            Scenario::Cyclic
        );
        for gone in ["serve", "churn", "serve-net"] {
            let err = parse(&["--scenario", gone]).unwrap_err();
            assert!(
                err.contains("unknown scenario") && err.contains("usage"),
                "{err}"
            );
        }
        // The flags only the deleted lanes read are unknown options now.
        for gone in [
            &["--maintenance", "reeval"][..],
            &["--epochs", "2"],
            &["--insert-fraction", "0.5"],
            &["--limit", "8"],
            &["--clients", "2"],
            &["--requests", "10"],
            &["--write-fraction", "0.5"],
            &["--queue-depth", "0"],
            &["--obs", "off"],
            &["--metrics-out", "m.txt"],
            &["--engines", "wireframe"],
        ] {
            let err = parse(gone).unwrap_err();
            assert!(
                err.starts_with("unknown option") && err.contains("usage"),
                "{err}"
            );
        }
    }

    #[test]
    fn mutation_batch_flags_parse_with_sane_defaults() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.batch, 64);
        assert_eq!(options.churn_seed, 0xC0FFEE);
        assert_eq!(options.compaction_threshold, None);

        let options = parse(&["--batch", "10", "--churn-seed", "99"]).unwrap();
        assert_eq!((options.batch, options.churn_seed), (10, 99));
        assert!(parse(&["--batch", "0"]).is_err());

        assert_eq!(
            parse(&["--compaction-threshold", "0.05"])
                .unwrap()
                .compaction_threshold,
            Some(0.05)
        );
        assert!(parse(&["--compaction-threshold", "-1"]).is_err());
    }

    #[test]
    fn sharded_flags_parse_and_validate_before_any_work() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.shards, 2, "the sharded default is 2 partitions");

        let options = parse(&["--scenario", "sharded", "--shards", "4"]).unwrap();
        assert_eq!(options.scenario, Scenario::Sharded);
        assert_eq!(options.shards, 4);

        // Invalid shard counts are usage errors (exit 2), rejected at parse
        // time — matching the --baseline/--tolerance fail-fast precedent.
        let err = parse(&["--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = parse(&["--shards", "two"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        assert!(parse(&["--shards"]).is_err(), "a value is required");
    }

    #[test]
    fn tolerance_without_baseline_is_a_usage_error() {
        let err = parse(&["--tolerance", "30%"]).unwrap_err();
        assert!(err.contains("--baseline"), "{err}");
        assert!(parse(&["--baseline", "x.json", "--tolerance", "30%"]).is_ok());
        // Malformed tolerances are still rejected at parse time.
        assert!(parse(&["--baseline", "x.json", "--tolerance", "abc"]).is_err());
    }

    #[test]
    fn missing_baseline_file_fails_before_the_benchmark_runs() {
        let options = parse(&["--baseline", "/nonexistent/definitely-not-here.json"]).unwrap();
        let err = load_baseline(&options).unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
    }

    #[test]
    fn unparsable_baseline_fails_with_a_clear_message() {
        let path = std::env::temp_dir().join("wfbench_test_bad_baseline.json");
        std::fs::write(&path, "{ not json").unwrap();
        let options = parse(&["--baseline", path.to_str().unwrap()]).unwrap();
        let err = load_baseline(&options).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("cannot parse baseline"), "{err}");
    }
}
