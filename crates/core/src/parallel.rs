//! Parallel defactorization: generate embeddings from the answer graph using
//! multiple threads.
//!
//! Defactorization is embarrassingly parallel in the answer edges of the first
//! query edge of the join order: each such edge seeds an independent set of
//! embeddings, so the edge set can be partitioned across worker threads, each
//! worker joining its partition against the (shared, read-only) rest of the
//! answer graph. This is an engineering extension beyond the paper's
//! single-threaded prototype; it changes no results (verified by tests), only
//! wall-clock time for large embedding sets.

use std::num::NonZeroUsize;

use wireframe_query::{ConjunctiveQuery, EmbeddingSet};

use crate::answer_graph::AnswerGraph;
use crate::defactorize::{
    bound_variables, embedding_plan, join, join_seeded, DefactorizationStats, JoinIndex,
};
use crate::error::EngineError;

/// Options for parallel defactorization.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Number of worker threads. Defaults to the machine's available
    /// parallelism, capped at 8 (defactorization is memory-bound).
    pub threads: usize,
    /// Minimum number of seed edges per worker; below this the sequential
    /// path is used (thread startup would dominate).
    pub min_seeds_per_thread: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: auto_threads(),
            min_seeds_per_thread: 64,
        }
    }
}

/// The machine's available parallelism, capped at 8 (defactorization is
/// memory-bound).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

impl ParallelOptions {
    /// Options for an explicit thread count, following the workspace-wide
    /// convention of the `threads` knobs: `0` auto-detects, any other value
    /// is used as given.
    pub fn for_threads(threads: usize) -> Self {
        ParallelOptions {
            threads: if threads == 0 {
                auto_threads()
            } else {
                threads
            },
            ..ParallelOptions::default()
        }
    }
}

/// Generates the embeddings of `query` from `ag` in parallel, returning the
/// full (unprojected) embedding set and merged phase-two statistics
/// (`peak_intermediate` is the maximum over the workers, which each hold
/// their intermediates concurrently at worst). Falls back to the sequential
/// defactorizer for small inputs.
pub fn defactorize_parallel(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    options: &ParallelOptions,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    join_parallel(query, ag, embedding_plan(query, ag), options)
}

/// [`defactorize_parallel`] over an explicit join `order` — every pattern,
/// or a projection cover; the result's schema is the variables it binds.
pub(crate) fn join_parallel(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    order: Vec<usize>,
    options: &ParallelOptions,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let Some(&seed_pattern) = order.first() else {
        return Err(EngineError::Internal("the join order is empty".into()));
    };
    let seeds: Vec<_> = ag.pattern(seed_pattern).iter().collect();
    let threads = options.threads.max(1);
    if threads == 1 || seeds.len() < options.min_seeds_per_thread * 2 {
        return join(query, ag, &order);
    }

    let chunk_size = seeds.len().div_ceil(threads);
    let chunks: Vec<&[_]> = seeds.chunks(chunk_size).collect();

    // The non-seed join indexes are identical for every worker: build them
    // once and share them read-only. Each worker only builds the (small)
    // index over its own slice of the seed pattern's edges.
    let shared = JoinIndex::build_for(ag, &order[1..]);

    type WorkerResult = Result<(EmbeddingSet, DefactorizationStats), EngineError>;
    let results: Result<Vec<(EmbeddingSet, DefactorizationStats)>, EngineError> =
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(chunks.len());
            for chunk in &chunks {
                let (order, shared) = (&order, &shared);
                handles.push(scope.spawn(move || -> WorkerResult {
                    let busy = std::time::Instant::now();
                    let (set, mut stats) = join_seeded(query, shared, order, chunk.to_vec())?;
                    stats.cpu = busy.elapsed();
                    Ok((set, stats))
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| EngineError::Internal("worker thread panicked".into()))?
                })
                .collect()
        });
    let results = results?;

    // Concatenate the partitions; they are disjoint because each embedding
    // uses exactly one seed edge. Partition order follows seed-chunk order,
    // so the result is deterministic for a given thread count (and the *set*
    // is identical across thread counts).
    let mut merged = EmbeddingSet::empty(bound_variables(query, &order));
    let mut stats = DefactorizationStats {
        join_order: order,
        ..DefactorizationStats::default()
    };
    for (part, part_stats) in results {
        stats.peak_intermediate = stats.peak_intermediate.max(part_stats.peak_intermediate);
        stats.embeddings += part_stats.embeddings;
        // Busy time sums across workers (the wall-clock the caller measures
        // stays ≤ this once more than one worker overlaps).
        stats.cpu += part_stats.cpu;
        // Flat row-major concatenation: one memcpy per partition.
        merged.append(&part);
    }
    Ok((merged, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalOptions;
    use crate::defactorize::defactorize;
    use crate::generate::generate;
    use wireframe_graph::{Graph, GraphBuilder};
    use wireframe_query::CqBuilder;

    /// A graph producing a few thousand embeddings so the parallel path kicks in.
    fn fanout_graph(fan: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..fan {
            b.add(&format!("a{i}"), "A", "hub");
            b.add("mid", "C", &format!("c{i}"));
        }
        b.add("hub", "B", "mid");
        b.build()
    }

    fn chain_query(g: &Graph) -> ConjunctiveQuery {
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?w", "A", "?x").unwrap();
        qb.pattern("?x", "B", "?y").unwrap();
        qb.pattern("?y", "C", "?z").unwrap();
        qb.build().unwrap()
    }

    fn ag_for(g: &Graph, q: &ConjunctiveQuery) -> AnswerGraph {
        let order: Vec<usize> = (0..q.num_patterns()).collect();
        generate(g, q, &order, &EvalOptions::default()).unwrap().0
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = fanout_graph(200);
        let q = chain_query(&g);
        let ag = ag_for(&g, &q);
        let order = embedding_plan(&q, &ag);
        let (sequential, seq_stats) = defactorize(&q, &ag, &order).unwrap();
        let (parallel, par_stats) = defactorize_parallel(
            &q,
            &ag,
            &ParallelOptions {
                threads: 4,
                min_seeds_per_thread: 1,
            },
        )
        .unwrap();
        assert!(parallel.same_answer(&sequential));
        assert_eq!(parallel.len(), 200 * 200);
        assert_eq!(par_stats.embeddings, seq_stats.embeddings);
        assert!(
            par_stats.peak_intermediate <= seq_stats.peak_intermediate,
            "each worker holds a fraction of the intermediates"
        );
        // Busy time is recorded on both paths: the sequential run's equals
        // its wall-clock, the parallel run's sums over the 4 workers.
        assert!(seq_stats.cpu > std::time::Duration::ZERO);
        assert!(par_stats.cpu > std::time::Duration::ZERO);
    }

    #[test]
    fn small_inputs_take_the_sequential_path() {
        let g = fanout_graph(3);
        let q = chain_query(&g);
        let ag = ag_for(&g, &q);
        let (out, _) = defactorize_parallel(&q, &ag, &ParallelOptions::default()).unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn single_thread_option_is_sequential() {
        let g = fanout_graph(50);
        let q = chain_query(&g);
        let ag = ag_for(&g, &q);
        let (out, _) = defactorize_parallel(
            &q,
            &ag,
            &ParallelOptions {
                threads: 1,
                min_seeds_per_thread: 1,
            },
        )
        .unwrap();
        assert_eq!(out.len(), 2500);
    }

    #[test]
    fn default_options_are_sane() {
        let o = ParallelOptions::default();
        assert!(o.threads >= 1 && o.threads <= 8);
        assert!(o.min_seeds_per_thread > 0);
        assert_eq!(ParallelOptions::for_threads(0).threads, auto_threads());
        assert_eq!(ParallelOptions::for_threads(3).threads, 3);
    }

    #[test]
    fn empty_answer_graph_parallel() {
        let g = fanout_graph(4);
        let q = chain_query(&g);
        let ag = AnswerGraph::new(&q);
        let (out, _) = defactorize_parallel(&q, &ag, &ParallelOptions::default()).unwrap();
        assert!(out.is_empty());
    }
}
