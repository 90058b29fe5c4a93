//! The `wfbench` closed-loop concurrent driver.
//!
//! Both `wfbench` lanes (sharded, cyclic) measure through it. Models a
//! serving scenario rather than the paper's one-query prototype
//! runs: one executor per engine over a shared graph, `threads`
//! worker threads issuing queries back-to-back (closed loop — a worker sends
//! its next query as soon as the previous answer returns), every worker
//! cycling through the whole workload from a different starting offset so
//! the prepared-plan cache serves a mix of repeated and distinct queries
//! under contention. The driver dispatches through
//! [`QueryExecutor`], so the same loop measures a single `Session` or a
//! `ShardedCluster`.
//!
//! Latency is measured per query from [`QueryExecutor::execute`] call to
//! return — cache lookup included, exactly what a serving client would see.
//! Phase breakdowns come from the engine's own [`Timings`]. Every answer's
//! embedding count is checked against the first answer seen for the same
//! query, so a throughput run doubles as a correctness soak test.

use std::time::Instant;

use wireframe::{QueryExecutor, Timings, WireframeError};
use wireframe_api::obs::percentile_sorted;
use wireframe_datagen::BenchmarkQuery;
use wireframe_query::Shape;

use crate::report::{EngineRun, PhaseBreakdown, QueryReport};

/// How one worker's measurements of one query are accumulated.
#[derive(Debug, Clone, Default)]
struct QueryAccumulator {
    latencies_ms: Vec<f64>,
    phase_sums: [f64; 6],
    embeddings: u64,
    answer_graph_edges: Option<u64>,
}

impl QueryAccumulator {
    fn record(&mut self, latency_ms: f64, timings: &Timings, embeddings: u64, ag: Option<u64>) {
        self.latencies_ms.push(latency_ms);
        let phases = [
            timings.planning,
            timings.answer_graph,
            timings.edge_burnback,
            timings.defactorization,
            timings.execution,
            // Worker cpu-sum, reported next to the wall-clock phase so
            // parallel defactorization's true cost stays visible.
            timings.defactorization_cpu,
        ];
        for (sum, phase) in self.phase_sums.iter_mut().zip(phases) {
            *sum += phase.as_secs_f64() * 1e3;
        }
        self.embeddings = embeddings;
        self.answer_graph_edges = ag;
    }

    fn merge(&mut self, other: QueryAccumulator) {
        self.latencies_ms.extend(other.latencies_ms);
        for (sum, add) in self.phase_sums.iter_mut().zip(other.phase_sums) {
            *sum += add;
        }
        self.embeddings = other.embeddings;
        self.answer_graph_edges = self.answer_graph_edges.or(other.answer_graph_edges);
    }
}

/// Nearest-rank percentile of an unsorted sample list (`p` in 0..=100).
/// Delegates to the shared implementation in the telemetry crate so the
/// bench driver and the metrics registry report identical quantiles.
pub use wireframe_api::obs::percentile_ms;

/// The workload-facing shape name used in reports.
pub fn shape_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Chain => "chain",
        Shape::Star => "star",
        Shape::Snowflake => "snowflake",
        Shape::Tree => "tree",
        Shape::Cycle => "cycle",
        Shape::Cyclic => "cyclic",
    }
}

/// Runs the closed loop for one engine: `threads` workers, each making
/// `iterations` passes over `workload` (starting at a per-worker offset),
/// against one shared concurrent [`QueryExecutor`].
///
/// The executor must already have the target engine selected. Every answer's
/// embedding count is checked against the first answer seen for that query;
/// an engine disagreeing with itself across repetitions aborts the run.
pub fn run_engine(
    executor: &dyn QueryExecutor,
    workload: &[BenchmarkQuery],
    threads: usize,
    iterations: usize,
) -> Result<EngineRun, WireframeError> {
    let threads = threads.max(1);
    let iterations = iterations.max(1);

    // One warmup pass primes the prepared-plan cache and the allocator; the
    // measured loop then runs against a warm cache — steady-state serving.
    // Counters are reported as deltas so the warmup is excluded.
    for bq in workload {
        executor.execute(&bq.query)?;
    }
    let before = executor.stats();

    let wall_start = Instant::now();
    let per_thread: Result<Vec<Vec<QueryAccumulator>>, WireframeError> =
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for worker in 0..threads {
                type WorkerResult = Result<Vec<QueryAccumulator>, WireframeError>;
                handles.push(scope.spawn(move || -> WorkerResult {
                    let mut accs = vec![QueryAccumulator::default(); workload.len()];
                    for pass in 0..iterations {
                        for step in 0..workload.len() {
                            // Offset start per worker: at any instant the
                            // workers collectively issue a mix of identical
                            // and distinct queries.
                            let idx = (worker + pass + step) % workload.len();
                            let t = Instant::now();
                            let ev = executor.execute(&workload[idx].query)?;
                            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                            assert!(
                                accs[idx].latencies_ms.is_empty()
                                    || accs[idx].embeddings == ev.embedding_count() as u64,
                                "{}: engine answered {} then {} embeddings",
                                workload[idx].name,
                                accs[idx].embeddings,
                                ev.embedding_count()
                            );
                            accs[idx].record(
                                latency_ms,
                                &ev.timings,
                                ev.embedding_count() as u64,
                                ev.answer_graph_size().map(|n| n as u64),
                            );
                        }
                    }
                    Ok(accs)
                }));
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    // A worker assertion (self-disagreeing engine) already
                    // printed its message; re-panic to fail the run loudly.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
    let per_thread = per_thread?;
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;

    let mut merged = vec![QueryAccumulator::default(); workload.len()];
    for accs in per_thread {
        for (into, from) in merged.iter_mut().zip(accs) {
            into.merge(from);
        }
    }

    let queries = workload
        .iter()
        .zip(&merged)
        .map(|(bq, acc)| {
            let samples = acc.latencies_ms.len();
            let mean_ms = acc.latencies_ms.iter().sum::<f64>() / samples.max(1) as f64;
            let scale = 1.0 / samples.max(1) as f64;
            let mut sorted = acc.latencies_ms.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            QueryReport {
                name: bq.name.clone(),
                shape: shape_name(bq.shape).to_owned(),
                samples,
                p50_ms: percentile_sorted(&sorted, 50.0),
                p95_ms: percentile_sorted(&sorted, 95.0),
                p99_ms: percentile_sorted(&sorted, 99.0),
                mean_ms,
                phases: PhaseBreakdown {
                    planning_ms: acc.phase_sums[0] * scale,
                    answer_graph_ms: acc.phase_sums[1] * scale,
                    edge_burnback_ms: acc.phase_sums[2] * scale,
                    defactorization_ms: acc.phase_sums[3] * scale,
                    execution_ms: acc.phase_sums[4] * scale,
                    defactorization_cpu_ms: acc.phase_sums[5] * scale,
                },
                embeddings: acc.embeddings,
                answer_graph_edges: acc.answer_graph_edges,
                ag_over_embeddings: acc.answer_graph_edges.map(|ag| {
                    // |AG| / |Embeddings|: ≪ 1.0 is the paper's headline.
                    ag as f64 / acc.embeddings.max(1) as f64
                }),
            }
        })
        .collect();

    let total_queries = (threads * iterations * workload.len()) as u64;
    let after = executor.stats();
    Ok(EngineRun {
        engine: executor.engine_name().to_owned(),
        total_queries,
        wall_ms,
        qps: total_queries as f64 / (wall_ms / 1e3).max(1e-9),
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_dataset, DatasetSize};
    use std::sync::Arc;
    use wireframe::{Session, SessionConfig};
    use wireframe_datagen::full_workload;

    #[test]
    fn percentiles_follow_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_ms(&samples, 50.0), 50.0);
        assert_eq!(percentile_ms(&samples, 95.0), 95.0);
        assert_eq!(percentile_ms(&samples, 99.0), 99.0);
        assert_eq!(percentile_ms(&samples, 100.0), 100.0);
        assert_eq!(percentile_ms(&[7.0], 50.0), 7.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn driver_measures_the_wireframe_engine_concurrently() {
        let graph = Arc::new(build_dataset(DatasetSize::Tiny));
        let workload = full_workload(&graph).unwrap();
        let session = Session::shared(Arc::clone(&graph));
        let run = run_engine(&session, &workload, 2, 2).unwrap();

        assert_eq!(run.engine, "wireframe");
        assert_eq!(run.total_queries, (2 * 2 * workload.len()) as u64);
        assert_eq!(
            run.cache_hits + run.cache_misses,
            run.total_queries,
            "every issued query is a cache hit or miss"
        );
        assert!(run.qps > 0.0 && run.wall_ms > 0.0);
        assert_eq!(run.queries.len(), workload.len());
        for q in &run.queries {
            assert_eq!(q.samples, 4, "threads × iterations samples per query");
            assert!(q.p50_ms > 0.0 && q.p50_ms <= q.p95_ms && q.p95_ms <= q.p99_ms);
            assert!(q.embeddings > 0, "{}: planted cores answer", q.name);
            let ag = q.answer_graph_edges.expect("wireframe factorizes");
            assert!(ag > 0);
            let ratio = q.ag_over_embeddings.unwrap();
            assert!((ratio - ag as f64 / q.embeddings as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn driver_reports_non_factorizing_engines_with_null_ag() {
        let graph = Arc::new(build_dataset(DatasetSize::Tiny));
        let workload = full_workload(&graph).unwrap();
        let workload = &workload[..3];
        let session = Session::from_config(
            Arc::clone(&graph),
            SessionConfig::new().engine("exploration"),
        )
        .unwrap();
        let run = run_engine(&session, workload, 1, 1).unwrap();
        assert_eq!(run.engine, "exploration");
        for q in &run.queries {
            assert!(q.answer_graph_edges.is_none());
            assert!(q.ag_over_embeddings.is_none());
            assert!(
                q.phases.execution_ms > 0.0,
                "single-pass engines report execution"
            );
        }
    }
}
