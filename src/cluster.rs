//! [`ShardedCluster`]: scatter-gather serving over subject-partitioned
//! shards, behind the same [`QueryExecutor`] surface as a single
//! [`Session`].
//!
//! The cluster partitions one graph into `N` shards by vertex range
//! ([`wireframe_graph::shard_of`]: `subject % N`), gives every shard its own
//! [`Session`] (own graph versions, own epoch, own counters), and answers
//! queries by **scatter-gather over the factorized representation**: each
//! shard contributes its per-pattern candidate answer-graph edges
//! ([`wireframe_core::scan_candidates`], fanned out on a scoped thread
//! pool), the cluster unions them and re-runs node burnback on the merged
//! answer graph ([`wireframe_core::merge_candidates`]), and **one**
//! defactorization turns the small merged artifact into embeddings. The
//! expensive phase never runs per shard — that is the factorization
//! dividend the paper measures, applied to distribution.
//!
//! Mutations route by the same partition function
//! ([`wireframe_graph::route_mutation`]): a batch splits into per-shard
//! sub-batches (or broadcasts, when it interns new labels, keeping every
//! shard's dictionary bit-identical). Shards untouched by a batch do not
//! advance their epoch, which is why the cluster exposes a per-shard
//! **epoch vector** next to its scalar batch counter — see
//! [`QueryExecutor::epoch_vector`].
//!
//! The cluster is gated on **capabilities, not names**: the scatter-gather
//! merge is defined on the factorized answer graph, so construction accepts
//! exactly the engines whose registered
//! [`EngineCapabilities::sharded_merge`](wireframe_api::EngineCapabilities)
//! bit is set (`wireframe` and `wco` in the stock registry) and rejects the
//! baselines, which never factorize.

use std::sync::{Arc, RwLock};
use std::time::Instant;

use wireframe_api::obs::{
    names, Counter, Gauge, Histogram, MetricsSnapshot, Registry, Span, Tracer, TracerConfig,
};
use wireframe_api::{
    EpochListener, Evaluation, ExecutorStats, MaintainedView, QueryExecutor, WireframeError,
};
use wireframe_core::{merge_candidates, plan, scan_candidates, EvalOptions};
use wireframe_graph::{
    partition_graph, route_mutation, EdgeDelta, Graph, Mutation, MutationOutcome, Triple,
};
use wireframe_query::{parse_query, ConjunctiveQuery};

use crate::registry::default_registry;
use crate::session::{Session, SessionConfig};

/// Cluster-wide mutable state: the scalar epoch, advanced once per applied
/// batch. Queries snapshot per-shard graphs under this lock's read side;
/// mutations route and apply under its write side — which is what makes a
/// query's cross-shard snapshot consistent (no batch can land between two
/// shard snapshots).
struct ClusterState {
    epoch: u64,
}

/// N vertex-partitioned shards served through one [`QueryExecutor`].
///
/// ```
/// use wireframe::api::QueryExecutor;
/// use wireframe::graph::GraphBuilder;
/// use wireframe::{SessionConfig, ShardedCluster};
///
/// let mut b = GraphBuilder::new();
/// b.add("alice", "knows", "bob");
/// b.add("bob", "knows", "carol");
/// let cluster = ShardedCluster::new(b.build(), 2, SessionConfig::default()).unwrap();
///
/// let result = cluster
///     .query("SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }")
///     .unwrap();
/// assert_eq!(result.embedding_count(), 1);
/// assert_eq!(result.epochs.len(), 3, "one per shard, plus the cluster epoch");
/// ```
pub struct ShardedCluster {
    shards: Vec<Session>,
    state: RwLock<ClusterState>,
    listeners: RwLock<Vec<EpochListener>>,
    options: EvalOptions,
    /// The configured engine name (capability-checked at construction);
    /// stamped into merged evaluations.
    engine: String,
    /// Cluster-level merged evaluations (each is one scatter + merge +
    /// defactorization), reported as full evaluations in [`ShardedCluster::
    /// stats`] on top of the per-shard sums.
    full_evals: Counter,
    /// Wall-clock of the fan-out candidate scans (all shards in flight).
    scatter_us: Histogram,
    /// Wall-clock of merge + burnback + defactorization on the merged
    /// answer graph.
    merge_us: Histogram,
    shards_gauge: Gauge,
    /// Cluster-level telemetry (scatter/merge latency, merged-evaluation
    /// count). Per-shard counters live in each shard's own session
    /// registry; [`ShardedCluster::metrics_snapshot`] merges them.
    metrics: Registry,
    /// Records cluster-level query span trees (scatter/merge children) —
    /// shard sessions never see a cluster query, so they can't.
    tracer: Tracer,
}

impl ShardedCluster {
    /// Partitions `graph` into `shards` subject-owned shards and builds one
    /// [`Session`] per shard from `config` — the same configuration value a
    /// single session consumes, applied uniformly.
    ///
    /// Errors with [`WireframeError::UnknownEngine`] when the configured
    /// engine's registered capabilities lack `sharded_merge` (the merge is
    /// defined on the factorized answer graph only); the error's `known`
    /// list names the engines that do qualify.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` (the CLIs validate the flag before any
    /// work).
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        shards: usize,
        config: SessionConfig,
    ) -> Result<Self, WireframeError> {
        assert!(shards >= 1, "a cluster has at least one shard");
        let registry = default_registry();
        let engine = config
            .engine
            .clone()
            .or_else(|| registry.default_engine().map(str::to_owned))
            .unwrap_or_default();
        if !registry
            .capabilities(&engine)
            .is_some_and(|c| c.sharded_merge)
        {
            return Err(WireframeError::UnknownEngine {
                requested: engine,
                known: registry
                    .entries()
                    .iter()
                    .filter(|e| e.capabilities.sharded_merge)
                    .map(|e| e.name.to_owned())
                    .collect(),
            });
        }
        let mut options = EvalOptions::default();
        if config.engine_config.threads > 0 {
            options = options.with_threads(config.engine_config.threads);
        }
        if config.engine_config.limit > 0 {
            options = options.with_limit(config.engine_config.limit);
        }
        let graph = graph.into();
        let shards = partition_graph(&graph, shards)
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                // Each shard session stamps `shard=i` on its query spans,
                // so traces surfaced through the cluster say which
                // partition produced them.
                Session::from_config(part, config.clone().engine(&engine).shard_id(i))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = Registry::new();
        let shards_gauge = metrics.gauge(names::CLUSTER_SHARDS);
        shards_gauge.set(shards.len() as u64);
        // Cluster queries never route through a shard session's query path,
        // so the cluster records its own scatter/merge span trees with the
        // same sampling knobs the sessions honour.
        let tracer = Tracer::new(TracerConfig {
            sample_every: config.trace_sample.unwrap_or(64).max(1),
            slow_micros: config.slow_query_micros.unwrap_or(0),
            ..TracerConfig::default()
        });
        Ok(ShardedCluster {
            full_evals: metrics.counter(names::FULL_EVALUATIONS),
            scatter_us: metrics.histogram(names::CLUSTER_SCATTER_US),
            merge_us: metrics.histogram(names::CLUSTER_MERGE_US),
            shards_gauge,
            shards,
            state: RwLock::new(ClusterState { epoch: 0 }),
            listeners: RwLock::new(Vec::new()),
            options,
            engine,
            metrics,
            tracer,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard sessions, for inspection (per-shard counters, epochs).
    pub fn shards(&self) -> &[Session] {
        &self.shards
    }

    /// A consistent cross-shard snapshot: per-shard graphs, per-shard
    /// epochs, and the cluster epoch, all taken under the cluster read lock
    /// so no mutation interleaves.
    fn snapshot(&self) -> (Vec<Arc<Graph>>, Vec<u64>, u64) {
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        let graphs = self.shards.iter().map(|s| s.graph()).collect();
        let epochs = self.shards.iter().map(|s| s.epoch()).collect();
        (graphs, epochs, state.epoch)
    }

    /// Scatter-gather evaluation: per-shard candidate scans on a scoped
    /// thread pool, one merge, one burnback, one defactorization.
    fn evaluate_sharded(
        &self,
        graphs: &[Arc<Graph>],
        shard_epochs: Vec<u64>,
        cluster_epoch: u64,
        query: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<Evaluation, WireframeError> {
        let t = Instant::now();
        let scans: Vec<Vec<Vec<_>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = graphs
                .iter()
                .map(|graph| scope.spawn(move || scan_candidates(graph, query)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("candidate scans do not panic"))
                .collect()
        });
        let scatter_elapsed = t.elapsed();
        self.scatter_us.record_duration(scatter_elapsed);
        let t_merge = Instant::now();
        let view = merge_candidates(query, &graphs[0], &scans, self.options)?;
        let phase_one = t.elapsed();
        self.full_evals.inc();

        let mut evaluation = MaintainedView::evaluate(&view)?;
        let merge_elapsed = t_merge.elapsed();
        self.merge_us.record_duration(merge_elapsed);
        evaluation.engine = self.engine.clone();
        // One epoch per shard plus the cluster's scalar batch counter as the
        // final component, so `Evaluation::epoch()` reads the cluster epoch.
        evaluation.epochs = shard_epochs;
        evaluation.epochs.push(cluster_epoch);
        // Scatter + merge + burnback is this executor's phase one.
        evaluation.timings.answer_graph += phase_one;
        // The merged view is built fresh per query, not retained: reporting
        // maintenance state would suggest a serving history it doesn't have.
        evaluation.maintenance = None;
        // The gather keeps only the canonical first `limit` rows of the
        // merged defactorization (the merged view is per-query, so there is
        // no retained prefix to serve from — the truncation is the bound).
        evaluation.apply_limit(limit);
        let elapsed = t.elapsed();
        if self.tracer.wants(elapsed) {
            self.tracer.record(
                Span::new("query", elapsed)
                    .field("engine", evaluation.engine.clone())
                    .field("shards", self.shards.len().to_string())
                    .field("epochs", format!("{:?}", evaluation.epochs))
                    .field("rows", evaluation.embedding_count().to_string())
                    .child(Span::new("scatter", scatter_elapsed))
                    .child(Span::new("merge", merge_elapsed)),
            );
        }
        Ok(evaluation)
    }
}

impl QueryExecutor for ShardedCluster {
    fn engine_name(&self) -> &str {
        &self.engine
    }

    fn query(&self, text: &str) -> Result<Evaluation, WireframeError> {
        self.query_limited(text, 0)
    }

    fn query_limited(&self, text: &str, limit: usize) -> Result<Evaluation, WireframeError> {
        let (graphs, epochs, epoch) = self.snapshot();
        let query = parse_query(text, graphs[0].dictionary())?;
        let limit = if limit > 0 { limit } else { self.options.limit };
        self.evaluate_sharded(&graphs, epochs, epoch, &query, limit)
    }

    fn execute(&self, query: &ConjunctiveQuery) -> Result<Evaluation, WireframeError> {
        let (graphs, epochs, epoch) = self.snapshot();
        self.evaluate_sharded(&graphs, epochs, epoch, query, self.options.limit)
    }

    fn execute_limited(
        &self,
        query: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<Evaluation, WireframeError> {
        let (graphs, epochs, epoch) = self.snapshot();
        let limit = if limit > 0 { limit } else { self.options.limit };
        self.evaluate_sharded(&graphs, epochs, epoch, query, limit)
    }

    fn prime(&self, text: &str) -> Result<bool, WireframeError> {
        // The merged view is rebuilt per query (no retained cross-shard
        // views yet), so priming only validates: parse against the shared
        // dictionary and plan against shard 0's catalog — surfacing the
        // same parse/connectivity errors a query would.
        let (graphs, _, _) = self.snapshot();
        let query = parse_query(text, graphs[0].dictionary())?;
        plan(&graphs[0], &query, self.options.planner)
            .map_err(WireframeError::from)
            .map(|_| false)
    }

    fn apply_mutation(&self, mutation: &Mutation) -> MutationOutcome {
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        // Shard dictionaries are aligned (see `route_mutation`), so any
        // shard's current dictionary routes the batch; shard 0's by
        // convention.
        let dict_graph = self.shards[0].graph();
        let routed = route_mutation(dict_graph.dictionary(), mutation, self.shards.len());
        let mut inserted = 0;
        let mut removed = 0;
        let mut compacted = false;
        let mut delta_inserted: Vec<Triple> = Vec::new();
        let mut delta_removed: Vec<Triple> = Vec::new();
        for (shard, batch) in self.shards.iter().zip(&routed) {
            if let Some(batch) = batch {
                let outcome = shard.apply_mutation(batch);
                inserted += outcome.inserted;
                removed += outcome.removed;
                compacted |= outcome.compacted;
                // Per-shard deltas are disjoint (each triple nets out on its
                // subject's owner), so concatenation is the exact union.
                delta_inserted.extend_from_slice(outcome.delta.inserted());
                delta_removed.extend_from_slice(outcome.delta.removed());
            }
        }
        state.epoch += 1;
        let epoch = state.epoch;
        let delta = EdgeDelta::new(delta_inserted, delta_removed);
        // Notify under the write lock: cluster listeners observe strictly
        // increasing epochs with no concurrent callbacks, the same total
        // order a single session guarantees.
        {
            let listeners = self.listeners.read().unwrap_or_else(|e| e.into_inner());
            for listener in listeners.iter() {
                listener(epoch, &delta);
            }
        }
        drop(state);
        MutationOutcome {
            inserted,
            removed,
            compacted,
            delta,
        }
    }

    fn epoch(&self) -> u64 {
        self.state.read().unwrap_or_else(|e| e.into_inner()).epoch
    }

    fn epoch_vector(&self) -> Vec<u64> {
        // Under the read lock so the vector is a consistent cut: a batch in
        // flight is either fully reflected or not at all.
        let _state = self.state.read().unwrap_or_else(|e| e.into_inner());
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn graph(&self) -> Arc<Graph> {
        self.shards[0].graph()
    }

    fn add_epoch_listener(&self, listener: EpochListener) {
        self.listeners
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .push(listener);
    }

    fn stats(&self) -> ExecutorStats {
        // The merged snapshot sums every shard's `executor.*` counters and
        // adds the cluster's own (merged evaluations), so one read-out
        // covers both levels.
        ExecutorStats::from_snapshot(&self.metrics_snapshot())
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shards_gauge.set(self.shards.len() as u64);
        let mut merged = self.metrics.snapshot();
        for (i, shard) in self.shards.iter().enumerate() {
            let snap = shard.metrics_snapshot();
            // The unprefixed merge gives cluster-wide totals (counters and
            // histograms sum exactly; gauges sum, which is the right
            // reading for sizes like `graph.triples`)…
            merged.merge(&snap);
            // …while the prefixed copy preserves the per-shard breakdown
            // for skew diagnosis.
            merged.merge(&snap.prefixed(&format!("shard{i}.")));
        }
        merged
    }

    fn recent_spans(&self) -> Vec<Span> {
        // Cluster queries record here (scatter/merge trees); per-shard
        // sessions only carry spans for queries addressed to an individual
        // shard (each stamped `shard=N`). Surface both.
        let mut spans = self.tracer.recent();
        spans.extend(self.shards.iter().flat_map(|s| s.tracer().recent()));
        spans
    }
}

impl std::fmt::Debug for ShardedCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("shards", &self.shards.len())
            .field("epoch", &QueryExecutor::epoch(self))
            .field("epochs", &QueryExecutor::epoch_vector(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_graph::GraphBuilder;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add("alice", "knows", "bob");
        b.add("bob", "knows", "carol");
        b.add("carol", "knows", "dave");
        b.add("bob", "likes", "pizza");
        b.add("carol", "likes", "pizza");
        b.build()
    }

    const CHAIN: &str = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :likes ?z . }";

    #[test]
    fn sharded_answers_match_a_single_session() {
        let g = graph();
        let reference = Session::new(g.clone()).query(CHAIN).unwrap();
        for shards in [1, 2, 4] {
            let cluster = ShardedCluster::new(g.clone(), shards, SessionConfig::default()).unwrap();
            let result = cluster.query(CHAIN).unwrap();
            assert!(result.embeddings.same_answer(&reference.embeddings));
            assert_eq!(result.epochs, vec![0; shards + 1]);
            assert_eq!(result.epoch(), 0);
        }
    }

    #[test]
    fn mutations_route_and_bump_only_touched_shards() {
        let cluster = ShardedCluster::new(graph(), 2, SessionConfig::default()).unwrap();
        let before = cluster.query(CHAIN).unwrap().embedding_count();
        // One known-label edge: routes to exactly one shard.
        let outcome = cluster.apply_mutation(&Mutation::new().insert("dave", "likes", "pizza"));
        assert_eq!(outcome.inserted, 1);
        assert_eq!(QueryExecutor::epoch(&cluster), 1);
        let vector = cluster.epoch_vector();
        assert_eq!(
            vector.iter().sum::<u64>(),
            1,
            "one shard advanced: {vector:?}"
        );
        let result = cluster.query(CHAIN).unwrap();
        assert_eq!(result.embedding_count(), before + 1);
        assert_eq!(
            result.epoch(),
            1,
            "the final component is the cluster epoch"
        );
        assert_eq!(result.epochs[..vector.len()], vector);
    }

    #[test]
    fn new_labels_broadcast_to_every_shard() {
        let cluster = ShardedCluster::new(graph(), 3, SessionConfig::default()).unwrap();
        cluster.apply_mutation(&Mutation::new().insert("erin", "knows", "alice"));
        assert_eq!(
            cluster.epoch_vector(),
            vec![1, 1, 1],
            "interning broadcasts"
        );
        assert_eq!(QueryExecutor::epoch(&cluster), 1, "…but is one batch");
        let result = cluster
            .query("SELECT ?x WHERE { ?x :knows alice . }")
            .unwrap();
        assert_eq!(result.embedding_count(), 1);
    }

    #[test]
    fn listeners_observe_cluster_epochs_and_merged_deltas() {
        use std::sync::Mutex;
        let cluster = ShardedCluster::new(graph(), 2, SessionConfig::default()).unwrap();
        let seen: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        cluster.add_epoch_listener(Box::new(move |epoch, delta| {
            sink.lock().unwrap().push((epoch, delta.inserted().len()));
        }));
        cluster.apply_mutation(
            &Mutation::new()
                .insert("alice", "likes", "pizza")
                .insert("dave", "likes", "pizza"),
        );
        let seen = seen.lock().unwrap();
        assert_eq!(seen.as_slice(), &[(1, 2)]);
    }

    #[test]
    fn engines_without_sharded_merge_are_rejected() {
        for name in ["relational", "sortmerge", "exploration"] {
            let err = ShardedCluster::new(graph(), 2, SessionConfig::new().engine(name));
            match err {
                Err(WireframeError::UnknownEngine { requested, known }) => {
                    assert_eq!(requested, name);
                    assert_eq!(
                        known,
                        vec!["wireframe".to_owned(), "wco".to_owned()],
                        "the error names the engines whose capabilities qualify"
                    );
                }
                other => panic!("{name}: expected a capability rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn wco_clusters_merge_like_wireframe_ones() {
        let g = graph();
        let reference = Session::new(g.clone()).query(CHAIN).unwrap();
        let cluster = ShardedCluster::new(g, 2, SessionConfig::new().engine("wco")).unwrap();
        assert_eq!(cluster.engine_name(), "wco");
        let result = cluster.query(CHAIN).unwrap();
        assert_eq!(result.engine, "wco");
        assert!(result.embeddings.same_answer(&reference.embeddings));
    }

    #[test]
    fn cluster_snapshot_merges_shards_and_keeps_prefixed_breakdowns() {
        let cluster =
            ShardedCluster::new(graph(), 2, SessionConfig::default().trace_sample(1)).unwrap();
        cluster.query(CHAIN).unwrap();
        cluster.query(CHAIN).unwrap();

        let snap = cluster.metrics_snapshot();
        assert_eq!(snap.gauge(names::CLUSTER_SHARDS), 2);
        assert_eq!(
            snap.counter(names::FULL_EVALUATIONS),
            2,
            "each cluster query is one merged evaluation"
        );
        assert_eq!(snap.histogram(names::CLUSTER_SCATTER_US).unwrap().count, 2);
        assert_eq!(snap.histogram(names::CLUSTER_MERGE_US).unwrap().count, 2);
        // The per-shard copies survive under a shard prefix; their sum is
        // the unprefixed cluster-wide gauge.
        let per_shard: u64 = (0..2)
            .map(|i| snap.gauge(&format!("shard{i}.{}", names::GRAPH_TRIPLES)))
            .sum();
        assert_eq!(per_shard, 5);
        assert_eq!(snap.gauge(names::GRAPH_TRIPLES), 5);
        // `stats()` reads the same snapshot, so the two surfaces agree.
        assert_eq!(QueryExecutor::stats(&cluster).full_evaluations, 2);
        // The cluster records its own span trees with scatter/merge
        // children — shard sessions never see a cluster query.
        let spans = cluster.recent_spans();
        assert_eq!(spans.len(), 2, "trace_sample(1) keeps every span");
        for span in &spans {
            let text = span.render();
            assert!(text.contains("shards=2"), "{text}");
            assert!(text.contains("scatter") && text.contains("merge"), "{text}");
        }
        // A query addressed to an individual shard session is stamped with
        // that shard's id and surfaces through the same cluster view.
        cluster.shards[0].query(CHAIN).unwrap();
        assert!(
            cluster
                .recent_spans()
                .iter()
                .any(|s| s.render().contains("shard=0")),
            "direct shard queries carry their partition id"
        );
    }

    #[test]
    fn prime_validates_without_materializing() {
        let cluster = ShardedCluster::new(graph(), 2, SessionConfig::default()).unwrap();
        assert!(!cluster.prime(CHAIN).unwrap());
        assert!(cluster.prime("SELECT ?x WHERE {").is_err());
        assert!(
            cluster
                .prime("SELECT * WHERE { ?a :knows ?b . ?c :likes ?d . }")
                .is_err(),
            "disconnected queries fail at prime time"
        );
    }
}
