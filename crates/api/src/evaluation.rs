//! The uniform evaluation result shared by every engine.

use std::time::Duration;

use wireframe_query::EmbeddingSet;

/// Wall-clock timings of the evaluation phases.
///
/// The four factorized phases mirror the paper's pipeline; engines that
/// evaluate in a single pass (the baselines) report under `execution` and
/// leave the factorized phases at zero. [`Timings::total`] is comparable
/// across all engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Time spent planning (Edgifier + Triangulator).
    pub planning: Duration,
    /// Time spent generating the answer graph (phase one).
    pub answer_graph: Duration,
    /// Time spent in edge burnback (zero unless enabled and cyclic).
    pub edge_burnback: Duration,
    /// Time spent generating embeddings (phase two), **wall-clock**: with
    /// parallel defactorization this is how long the phase blocked the
    /// query, not how much work it did.
    pub defactorization: Duration,
    /// CPU time summed across defactorization workers. Equals
    /// `defactorization` on a single-threaded run; larger when workers ran
    /// concurrently. Excluded from [`Timings::total`] — summing it with the
    /// wall-clock phases would double-count the parallel phase.
    pub defactorization_cpu: Duration,
    /// Single-pass execution time of non-factorized engines (zero for the
    /// Wireframe engine, which reports per phase).
    pub execution: Duration,
}

impl Timings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.planning
            + self.answer_graph
            + self.edge_burnback
            + self.defactorization
            + self.execution
    }
}

/// Artifacts specific to factorized (answer-graph) evaluation.
///
/// `None` on [`Evaluation`] means the engine does not factorize — which is
/// the comparison the paper is about, so the absence is informative, not an
/// error.
///
/// On **view-served** evaluations ([`Evaluation::maintenance`] is `Some`),
/// `answer_graph_edges` describes the *maintained* answer graph — current
/// as of the view's epoch — while the work counters (`edge_walks`,
/// `edges_burned`, `nodes_burned`, `edge_burnback_removed`) describe the
/// original materialization run: a view serve re-walks no data edges, and
/// the incremental work done since is reported separately in
/// [`MaintenanceInfo`](crate::MaintenanceInfo). Correlate work counters
/// with sizes only on evaluations where `maintenance` is `None` (or
/// `passes == 0`).
#[derive(Debug, Clone)]
pub struct Factorized {
    /// Total answer-graph size after generation and any burnback
    /// (the |AG| / |iAG| column of the paper's Table 1).
    pub answer_graph_edges: usize,
    /// Pattern indices in phase-one execution order (the Edgifier's plan).
    pub plan_order: Vec<usize>,
    /// Data edges walked during answer-graph generation.
    pub edge_walks: u64,
    /// Edges removed by cascading node burnback.
    pub edges_burned: u64,
    /// Nodes removed by cascading node burnback.
    pub nodes_burned: u64,
    /// Edges removed by the optional edge-burnback pass (zero when disabled).
    pub edge_burnback_removed: usize,
}

impl Factorized {
    /// |Embeddings| / |AG| — the factorization gap, given the embedding count.
    pub fn factorization_ratio(&self, embeddings: usize) -> f64 {
        embeddings as f64 / self.answer_graph_edges.max(1) as f64
    }

    /// The uniform [`Evaluation::metrics`] list derived from these
    /// artifacts plus the defactorizer's peak intermediate size and the
    /// number of query edges phase two joined (`cover_patterns`: fewer than
    /// `plan_order.len()` when a `DISTINCT` projection let it join only the
    /// sub-tree the SELECT list spans; `0` when nothing was joined at all).
    /// Both the pipeline path and view-served evaluations build their
    /// metrics here, so the two can never drift apart.
    pub fn metrics(&self, peak_intermediate: u64, cover_patterns: u64) -> Vec<(&'static str, u64)> {
        vec![
            ("edge_walks", self.edge_walks),
            ("answer_graph_edges", self.answer_graph_edges as u64),
            ("edges_burned", self.edges_burned),
            ("nodes_burned", self.nodes_burned),
            ("edge_burnback_removed", self.edge_burnback_removed as u64),
            ("peak_intermediate", peak_intermediate),
            ("cover_patterns", cover_patterns),
        ]
    }
}

/// How a limit was applied to an [`Evaluation`]'s embeddings.
///
/// Present on [`Evaluation::limited`] whenever the answer was truncated to a
/// row-count bound. The retained rows are always the **canonical prefix**:
/// the first `limit` rows under lexicographic row order over the projection's
/// column order (see `EmbeddingSet::canonical_prefix`), so any two engines or
/// shards agree bit-for-bit on which rows a limit keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitInfo {
    /// The requested row bound (always > 0 — an unlimited evaluation carries
    /// no `LimitInfo` at all).
    pub limit: usize,
    /// Whether rows beyond the bound exist: the full answer is larger than
    /// what [`Evaluation::embeddings`] holds.
    pub truncated: bool,
    /// Whether the rows were served from a maintained top-k prefix in O(k)
    /// rather than truncated out of a full defactorization.
    pub prefix_served: bool,
    /// The full answer's row count, when the producer knew it. A
    /// prefix-served truncated answer does not — the point of the prefix is
    /// never enumerating the rest.
    pub full_total: Option<usize>,
}

/// The uniform result of evaluating one prepared query on one engine.
#[derive(Debug)]
pub struct Evaluation {
    /// Name of the engine that produced this result.
    pub engine: String,
    /// The epoch vector of the graph snapshot the evaluation ran against —
    /// the **single source of truth** for versioning. Raw (epoch-unaware)
    /// engines leave it empty; the serving layer stamps it: `[epoch]` when
    /// unsharded, the per-shard epochs followed by the aggregate cluster
    /// epoch on a sharded executor (so [`Evaluation::epoch`], the last
    /// component, is always the scalar version clients order by). See
    /// [`crate::QueryExecutor::epoch_vector`] for the executor-side
    /// contract.
    pub epochs: Vec<u64>,
    /// The projected embeddings (the query's answer).
    pub embeddings: EmbeddingSet,
    /// Per-phase wall-clock timings.
    pub timings: Timings,
    /// Whether the query graph is cyclic.
    pub cyclic: bool,
    /// Factorized artifacts; `None` for non-factorized engines.
    pub factorized: Option<Factorized>,
    /// Engine-specific counters (e.g. `edge_walks`, `intermediate_tuples`),
    /// uniformly consumable by harnesses without downcasting.
    pub metrics: Vec<(&'static str, u64)>,
    /// A rendered plan/statistics explanation, when the engine was asked for
    /// one via [`crate::EngineConfig::explain`].
    pub explain: Option<String>,
    /// Maintenance history of the retained view this evaluation was served
    /// from, stamped by the serving layer. `None` for evaluations produced
    /// by a full pipeline run (engines set `None`; only view-served answers
    /// carry counters).
    pub maintenance: Option<crate::MaintenanceInfo>,
    /// How a row limit was applied, when one was. `None` means the
    /// embeddings are the complete answer.
    pub limited: Option<LimitInfo>,
}

impl Evaluation {
    /// The scalar graph version (mutation epoch) the evaluation ran
    /// against: the last component of [`Evaluation::epochs`]. `0` when the
    /// result came from a raw engine that no serving layer stamped.
    pub fn epoch(&self) -> u64 {
        self.epochs.last().copied().unwrap_or(0)
    }

    /// The projected embeddings.
    pub fn embeddings(&self) -> &EmbeddingSet {
        &self.embeddings
    }

    /// Number of embeddings in the answer.
    pub fn embedding_count(&self) -> usize {
        self.embeddings.len()
    }

    /// Looks up an engine-specific counter by name.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Answer-graph size, when the engine factorizes.
    pub fn answer_graph_size(&self) -> Option<usize> {
        self.factorized.as_ref().map(|f| f.answer_graph_edges)
    }

    /// Truncates the embeddings to the canonical first `limit` rows and
    /// records the fact in [`Evaluation::limited`]. `limit == 0` means
    /// unlimited and is a no-op, as is re-limiting to a bound the
    /// evaluation already satisfies (a producer that served `limit ≤ k`
    /// rows from a prefix stays prefix-served). Idempotent; tightening the
    /// bound re-truncates.
    pub fn apply_limit(&mut self, limit: usize) {
        if limit == 0 {
            return;
        }
        if let Some(info) = self.limited {
            if info.limit <= limit {
                return;
            }
        }
        let total = self.embeddings.len();
        let prior = self.limited.take();
        // Always re-sort, even when nothing is dropped: a limited answer's
        // rows are canonically ordered, so clients paging with any limit see
        // a stable order.
        self.embeddings = self.embeddings.canonical_prefix(limit);
        self.limited = Some(LimitInfo {
            limit,
            truncated: total > limit || prior.is_some_and(|p| p.truncated),
            prefix_served: prior.is_some_and(|p| p.prefix_served),
            full_total: match prior {
                Some(p) => p.full_total,
                None => Some(total),
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_query::Var;

    #[test]
    fn timings_total_includes_every_phase() {
        let t = Timings {
            planning: Duration::from_millis(1),
            answer_graph: Duration::from_millis(2),
            edge_burnback: Duration::from_millis(3),
            defactorization: Duration::from_millis(4),
            defactorization_cpu: Duration::from_millis(16),
            execution: Duration::from_millis(5),
        };
        assert_eq!(
            t.total(),
            Duration::from_millis(15),
            "cpu-sum is reported, never added to the wall-clock total"
        );
    }

    #[test]
    fn metrics_and_factorized_accessors() {
        let ev = Evaluation {
            engine: "test".into(),
            epochs: Vec::new(),
            embeddings: EmbeddingSet::empty(vec![Var(0)]),
            timings: Timings::default(),
            cyclic: false,
            factorized: Some(Factorized {
                answer_graph_edges: 10,
                plan_order: vec![0, 1],
                edge_walks: 42,
                edges_burned: 0,
                nodes_burned: 0,
                edge_burnback_removed: 0,
            }),
            metrics: vec![("edge_walks", 42)],
            explain: None,
            maintenance: None,
            limited: None,
        };
        assert_eq!(ev.metric("edge_walks"), Some(42));
        assert_eq!(ev.metric("missing"), None);
        assert_eq!(ev.epoch(), 0, "unstamped evaluations read as epoch 0");
        let mut stamped = ev;
        stamped.epochs = vec![3, 5, 9];
        assert_eq!(stamped.epoch(), 9, "epoch() is the last component");
        let ev = stamped;
        assert_eq!(ev.answer_graph_size(), Some(10));
        assert_eq!(ev.embedding_count(), 0);
        let f = ev.factorized.as_ref().unwrap();
        assert!((f.factorization_ratio(100) - 10.0).abs() < 1e-9);
    }

    fn unlimited(rows: Vec<Vec<wireframe_graph::NodeId>>) -> Evaluation {
        Evaluation {
            engine: "test".into(),
            epochs: Vec::new(),
            embeddings: EmbeddingSet::new(vec![Var(0)], rows),
            timings: Timings::default(),
            cyclic: false,
            factorized: None,
            metrics: Vec::new(),
            explain: None,
            maintenance: None,
            limited: None,
        }
    }

    #[test]
    fn apply_limit_truncates_canonically() {
        use wireframe_graph::NodeId;
        let mut ev = unlimited(vec![vec![NodeId(3)], vec![NodeId(1)], vec![NodeId(2)]]);
        ev.apply_limit(2);
        assert_eq!(ev.embeddings.row(0), Some(&[NodeId(1)] as &[NodeId]));
        assert_eq!(ev.embeddings.row(1), Some(&[NodeId(2)] as &[NodeId]));
        let info = ev.limited.unwrap();
        assert!(info.truncated);
        assert_eq!(info.full_total, Some(3));
        assert!(!info.prefix_served);

        // Zero means unlimited: no-op.
        let mut ev = unlimited(vec![vec![NodeId(3)]]);
        ev.apply_limit(0);
        assert!(ev.limited.is_none());

        // A generous limit records completeness without dropping rows.
        let mut ev = unlimited(vec![vec![NodeId(3)], vec![NodeId(1)]]);
        ev.apply_limit(5);
        let info = ev.limited.unwrap();
        assert!(!info.truncated);
        assert_eq!(ev.embedding_count(), 2);
        assert_eq!(
            ev.embeddings.row(0),
            Some(&[NodeId(1)] as &[NodeId]),
            "still canonically sorted"
        );

        // Re-limiting looser is a no-op; tighter re-truncates.
        ev.apply_limit(9);
        assert_eq!(ev.limited.unwrap().limit, 5);
        ev.apply_limit(1);
        let info = ev.limited.unwrap();
        assert_eq!(info.limit, 1);
        assert!(info.truncated);
        assert_eq!(
            info.full_total,
            Some(2),
            "original total survives re-limiting"
        );
        assert_eq!(ev.embedding_count(), 1);
    }

    #[test]
    fn apply_limit_preserves_prefix_served() {
        use wireframe_graph::NodeId;
        let mut ev = unlimited(vec![vec![NodeId(1)], vec![NodeId(2)]]);
        ev.limited = Some(LimitInfo {
            limit: 2,
            truncated: true,
            prefix_served: true,
            full_total: None,
        });
        ev.apply_limit(1);
        let info = ev.limited.unwrap();
        assert!(
            info.prefix_served,
            "tightening a prefix answer stays prefix-served"
        );
        assert!(info.truncated);
        assert_eq!(
            info.full_total, None,
            "prefix producers never learn the total"
        );
    }
}
