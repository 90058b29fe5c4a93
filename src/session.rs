//! The `Session` facade: one object that owns a graph and answers queries.
//!
//! A session ties together the pieces a caller would otherwise assemble by
//! hand — dictionary-aware parsing, engine construction through the
//! [`EngineRegistry`], prepared-query caching keyed by the canonical query
//! signature, and uniform [`Evaluation`] results:
//!
//! ```
//! use wireframe::Session;
//! use wireframe::graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add("alice", "knows", "bob");
//! b.add("bob", "knows", "carol");
//! let session = Session::new(b.build());
//!
//! let result = session
//!     .query("SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }")
//!     .unwrap();
//! assert_eq!(result.embedding_count(), 1);
//! ```
//!
//! Sessions also serve **dynamic graphs**: [`Session::insert_triples`] /
//! [`Session::remove_triples`] (or a raw [`Session::apply_mutation`]) swap
//! in a new graph version — cheap on the delta backend, see
//! [`wireframe_graph::DeltaStore`] — advance the session **epoch**, and
//! evict exactly the cached plans whose predicate footprint the mutation
//! touched. Every [`Evaluation`] is stamped with the epoch of the snapshot
//! it ran against.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use wireframe_api::obs::{
    names, Counter, Gauge, Histogram, MetricsSnapshot, Registry, Span, Tracer, TracerConfig,
};
use wireframe_api::{
    Engine, EngineCapabilities, EngineConfig, EngineRegistry, EpochListener, Evaluation,
    ExecutorStats, MaintainedView, PreparedQuery, QueryExecutor, WireframeError,
};
use wireframe_graph::{EdgeDelta, Graph, Mutation, MutationOp, MutationOutcome, PredId, StoreKind};
use wireframe_query::canonical::{
    footprints_intersect, isomorphic, plan_cache_key, QuerySignature,
};
use wireframe_query::{parse_query, ConjunctiveQuery};

use crate::registry::default_registry;

/// Cache key: (engine name, colour-refinement form of the query).
type CacheKey = (String, QuerySignature);

/// The retained-view state of one cached plan.
///
/// The retained view sits behind an `Arc` so readers clone the handle out
/// of the slot lock and **evaluate outside every lock**: a serve never
/// blocks a mutation's footprint pass (which runs under the state write
/// lock). When a maintenance pass finds readers still holding the current
/// state, it clones the view, maintains the clone, and swaps it in
/// (copy-on-write) — readers keep answering from the snapshot their epoch
/// entitles them to.
enum ViewSlot {
    /// No materialization attempt yet (first evaluation pending, or the
    /// session/engine does not maintain).
    Empty,
    /// A retained view, incrementally maintained by mutations and served
    /// directly (phase two only) on cache hits.
    Retained(Arc<dyn MaintainedView>),
    /// The engine declined to materialize this query (e.g. a cyclic query
    /// under edge burnback): never re-attempt, always evaluate in full.
    Unmaintainable,
}

/// Shared handle to a cached plan's view slot, cloned out of the shard lock
/// so evaluation (which can be slow) never blocks unrelated cache traffic.
type SharedViewSlot = Arc<RwLock<ViewSlot>>;

/// One cached prepared query, its retained-view slot, and its LRU stamp (a
/// global logical clock value, updated on every hit).
struct CachedPlan {
    prepared: Arc<PreparedQuery>,
    view: SharedViewSlot,
    last_used: AtomicU64,
}

/// What one mutation's cache pass did: entries maintained in place versus
/// evicted, plus the maintenance cost actually paid.
#[derive(Debug, Default, Clone, Copy)]
struct MaintenancePass {
    /// Cached entries whose footprint intersected the batch (examined under
    /// a shard write lock). Zero for a non-intersecting mutation.
    touched: u64,
    /// Entries whose retained view was updated in place (kept).
    maintained: u64,
    /// Entries evicted (no retained view, or maintenance disabled).
    evicted: u64,
    /// Frontier nodes across all maintained views.
    frontier_nodes: u64,
    /// Wall-clock spent in `maintain`, microseconds.
    micros: u64,
    /// Top-k prefix underflow refills across all maintained views.
    prefix_refills: u64,
    /// Top-k prefix full-recompute fallbacks across all maintained views.
    prefix_fallbacks: u64,
}

/// Colour keys can collide for non-isomorphic queries (1-WL), so each bucket
/// chains every prepared query sharing the key.
type CacheBucket = Vec<CachedPlan>;
/// One shard of the prepared-plan cache.
type CacheShard = HashMap<CacheKey, CacheBucket>;

/// Number of cache shards. Concurrency is bounded by the thread count of the
/// serving process, not the cache size, so a small fixed power of two keeps
/// the structure simple while making write contention negligible.
const CACHE_SHARDS: usize = 16;

/// Default prepared-plan cache capacity (distinct cached plans). Generous —
/// real workloads rarely exceed a few hundred distinct canonical queries —
/// but finite, so a long-lived serving session cannot grow without bound.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The prepared-plan cache, sharded by the hash of the canonical-signature
/// key so concurrent readers and writers rarely touch the same lock.
///
/// Reads (the overwhelmingly common case on a warmed cache) take a shard's
/// read lock only; preparation happens outside any lock, and insertion
/// re-checks under the shard's write lock so racing preparers converge on one
/// cached entry. The cache is bounded: when `capacity` is exceeded the
/// least-recently-used entry (by a global logical clock) is evicted.
struct ShardedPlanCache {
    shards: Vec<RwLock<CacheShard>>,
    clock: AtomicU64,
    capacity: usize,
}

impl ShardedPlanCache {
    fn new(capacity: usize) -> Self {
        ShardedPlanCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            clock: AtomicU64::new(0),
            capacity,
        }
    }

    fn shard(&self, key: &CacheKey) -> &RwLock<CacheShard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % CACHE_SHARDS]
    }

    // A poisoned lock only means another thread panicked mid-insert; the
    // maps themselves are always in a consistent state.
    fn read(shard: &RwLock<CacheShard>) -> RwLockReadGuard<'_, CacheShard> {
        shard.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(shard: &RwLock<CacheShard>) -> RwLockWriteGuard<'_, CacheShard> {
        shard.write().unwrap_or_else(|e| e.into_inner())
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a confirmed-isomorphic prepared query under the read lock,
    /// returning its prepared form and its shared view slot.
    fn find(
        &self,
        key: &CacheKey,
        query: &ConjunctiveQuery,
    ) -> Option<(Arc<PreparedQuery>, SharedViewSlot)> {
        let shard = Self::read(self.shard(key));
        let bucket = shard.get(key)?;
        // The colour key is only a filter; confirm an exact match before
        // reusing another query's plan and answer shape.
        let hit = bucket
            .iter()
            .find(|e| isomorphic(query, e.prepared.query()))?;
        hit.last_used.store(self.tick(), Ordering::Relaxed);
        Some((Arc::clone(&hit.prepared), Arc::clone(&hit.view)))
    }

    /// Inserts `prepared` (with an [`ViewSlot::Empty`] view slot) unless a
    /// racing thread already cached an isomorphic entry, returning whichever
    /// entry ends up cached.
    fn insert(
        &self,
        key: CacheKey,
        query: &ConjunctiveQuery,
        prepared: Arc<PreparedQuery>,
    ) -> (Arc<PreparedQuery>, SharedViewSlot) {
        let mut shard = Self::write(self.shard(&key));
        let bucket = shard.entry(key).or_default();
        if let Some(raced) = bucket
            .iter()
            .find(|e| isomorphic(query, e.prepared.query()))
        {
            raced.last_used.store(self.tick(), Ordering::Relaxed);
            return (Arc::clone(&raced.prepared), Arc::clone(&raced.view));
        }
        let view: SharedViewSlot = Arc::new(RwLock::new(ViewSlot::Empty));
        bucket.push(CachedPlan {
            prepared: Arc::clone(&prepared),
            view: Arc::clone(&view),
            last_used: AtomicU64::new(self.tick()),
        });
        (prepared, view)
    }

    /// Evicts least-recently-used entries until the cache fits its capacity
    /// again (called after an insert that missed, outside any shard lock).
    /// Returns how many entries were evicted.
    ///
    /// One pass collects every entry's LRU stamp, then the oldest `excess`
    /// entries are removed shard by shard. The scan is `O(cached entries)`,
    /// paid only on misses that overflow the bound — the hot hit path never
    /// enters here. Locks are taken one shard at a time, so a racing hit can
    /// rescue an entry between scan and removal (its stamp no longer
    /// matches); the next overflowing insert simply re-evicts.
    fn enforce_capacity(&self) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut stamped: Vec<(u64, usize, CacheKey)> = Vec::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let guard = Self::read(shard);
            for (key, bucket) in guard.iter() {
                for entry in bucket {
                    stamped.push((entry.last_used.load(Ordering::Relaxed), index, key.clone()));
                }
            }
        }
        let Some(excess) = stamped.len().checked_sub(self.capacity + 1) else {
            return 0;
        };
        stamped.sort_unstable_by_key(|&(stamp, _, _)| stamp);
        let mut evicted = 0u64;
        for (stamp, index, key) in stamped.into_iter().take(excess + 1) {
            let mut guard = Self::write(&self.shards[index]);
            if let Some(bucket) = guard.get_mut(&key) {
                if let Some(pos) = bucket
                    .iter()
                    .position(|e| e.last_used.load(Ordering::Relaxed) == stamp)
                {
                    bucket.remove(pos);
                    if bucket.is_empty() {
                        guard.remove(&key);
                    }
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// The footprint pass of one applied mutation: every cached entry whose
    /// predicate footprint intersects `footprint` is either **maintained in
    /// place** (when maintenance is on and the entry holds a retained view —
    /// the view absorbs `delta` against the post-mutation `graph` and is
    /// stamped with `epoch`) or **evicted** (the pre-maintenance behavior,
    /// and the fallback for entries without a view).
    ///
    /// The footprint is computed once by the caller from the batch's *net*
    /// [`EdgeDelta`] — never re-derived per entry or per shard — and each
    /// shard is pre-screened under its **read** lock: a mutation whose
    /// footprint intersects no cached plan takes no write lock and touches
    /// no entry (`MaintenancePass::touched == 0`), which the regression
    /// tests pin.
    fn maintain_or_evict(
        &self,
        footprint: &[PredId],
        graph: &Graph,
        delta: &EdgeDelta,
        epoch: u64,
        maintain: bool,
        per_view: &Histogram,
    ) -> MaintenancePass {
        let mut pass = MaintenancePass::default();
        if footprint.is_empty() {
            return pass;
        }
        for shard in &self.shards {
            // Pre-screen without blocking readers or writers of innocent
            // shards: only shards that actually hold an intersecting entry
            // pay the write lock below.
            let any_intersecting = Self::read(shard)
                .values()
                .flatten()
                .any(|e| footprints_intersect(e.prepared.footprint(), footprint));
            if !any_intersecting {
                continue;
            }
            let mut guard = Self::write(shard);
            guard.retain(|_, bucket| {
                bucket.retain(|e| {
                    if !footprints_intersect(e.prepared.footprint(), footprint) {
                        return true;
                    }
                    pass.touched += 1;
                    if maintain {
                        let mut slot = e.view.write().unwrap_or_else(|p| p.into_inner());
                        if let ViewSlot::Retained(view) = &mut *slot {
                            let t = std::time::Instant::now();
                            // Readers hold `Arc` clones and evaluate outside
                            // this lock; maintain in place when the slot is
                            // the only holder, otherwise copy-on-write so
                            // in-flight serves keep their snapshot.
                            let stats = match Arc::get_mut(view) {
                                Some(exclusive) => exclusive.maintain(graph, delta, epoch),
                                None => {
                                    let mut cloned = view.clone_view();
                                    let stats = cloned.maintain(graph, delta, epoch);
                                    *view = Arc::from(cloned);
                                    stats
                                }
                            };
                            pass.maintained += 1;
                            pass.frontier_nodes += stats.frontier_nodes as u64;
                            pass.prefix_refills += stats.prefix_refills as u64;
                            pass.prefix_fallbacks += stats.prefix_fallbacks as u64;
                            let micros = t.elapsed().as_micros() as u64;
                            pass.micros += micros;
                            per_view.record(micros);
                            return true;
                        }
                    }
                    pass.evicted += 1;
                    false
                });
                !bucket.is_empty()
            });
        }
        pass
    }

    /// Total retained top-k prefix rows across every cached view. A level,
    /// not a counter — re-read at snapshot time like the graph gauges.
    fn prefix_rows_total(&self) -> u64 {
        let mut total = 0u64;
        for shard in &self.shards {
            let guard = Self::read(shard);
            for entry in guard.values().flatten() {
                let slot = entry.view.read().unwrap_or_else(|p| p.into_inner());
                if let ViewSlot::Retained(view) = &*slot {
                    total += view.prefix_rows() as u64;
                }
            }
        }
        total
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::read(s).values().map(Vec::len).sum::<usize>())
            .sum()
    }

    fn clear(&self) {
        for shard in &self.shards {
            Self::write(shard).clear();
        }
    }
}

/// The mutable graph state of a session: the current version and its epoch,
/// swapped together under one lock so an [`Evaluation`]'s stamp always
/// matches the snapshot it ran against.
struct GraphState {
    graph: Arc<Graph>,
    epoch: u64,
}

/// A query session over one graph.
///
/// The session owns the graph, an engine registry, and a cache of prepared
/// queries. Preparation (for the Wireframe engine: running the cost-based
/// Edgifier) happens once per *canonical* query — two queries that differ
/// only by variable renaming or pattern order share one cache entry, courtesy
/// of `wireframe_query::canonical::plan_cache_key`, which (unlike the miner's
/// sorted signature) keeps the SELECT clause's column order, so `SELECT ?x ?z`
/// and `SELECT ?z ?x` never collide. Cached entries are per engine, since
/// each engine prepares its own plan payload.
///
/// Cache hits reuse the canonical representative's prepared form. The colour
/// key is a fast filter, not a proof — 1-WL refinement cannot separate every
/// non-isomorphic pair — so each candidate is confirmed with an exact
/// isomorphism test (`canonical::isomorphic`, ordered-projection aware)
/// before reuse; colliding non-isomorphic queries chain in the same bucket.
/// A hit therefore guarantees the representative's answer matches the
/// caller's **column for column** (same values, same order). Column identity
/// is *positional*: on a hit the returned [`Evaluation`]'s schema carries
/// the representative query's `Var` ids, which belong to that query's
/// namespace, not the caller's. Read result columns by SELECT position, not
/// by looking the caller's own `Var` up in the schema.
///
/// The cache is **bounded**: at most [`Session::cache_capacity`] prepared
/// plans (default [`DEFAULT_CACHE_CAPACITY`], tune with
/// [`SessionConfig::cache_capacity`]) are kept, evicting LRU-style by a
/// global logical clock; [`ExecutorStats::cache_evictions`] counts evictions
/// and [`Session::clear_cache`] empties the cache outright.
///
/// # Dynamic graphs, epochs, and maintained views
///
/// [`Session::insert_triples`], [`Session::remove_triples`] and
/// [`Session::apply_mutation`] update the graph by swapping in a **new
/// version** (readers in flight keep their snapshot; on the
/// [`StoreKind::Delta`] backend versions share their base, making this the
/// live-serving path). Each applied batch advances the session **epoch**
/// ([`Session::epoch`]), which is stamped into every [`Evaluation::epoch`].
///
/// For engines that support it (the Wireframe engine, via
/// [`wireframe_api::MaintainedView`]), cached plans carry a **retained
/// view** — the factorized answer graph kept as a first-class artifact —
/// and cache hits are served by defactorizing the view on demand instead of
/// re-running the whole pipeline ([`ExecutorStats::view_serves`] counts
/// these). Mutations then apply **footprint maintenance**: a batch's net
/// [`EdgeDelta`] is folded into every intersecting view in `O(delta)`
/// ([`ExecutorStats::plans_maintained`],
/// [`ExecutorStats::maintenance_frontier_nodes`],
/// [`ExecutorStats::maintenance_micros`]), and views are stamped with the
/// epoch they were maintained to; staleness is verified against the reader's
/// snapshot under the same `RwLock` that swaps graph versions. When the
/// configured engine declines to materialize a view, the session consults
/// the registry's capability matrix ([`wireframe_api::EngineCapabilities`])
/// for another engine that can maintain the query's shape — e.g. a cyclic
/// query under edge burnback is retained through the `wco` engine — before
/// giving up. Entries without any maintainable view — non-maintaining
/// engines with no capable fallback, or a session configured with
/// [`SessionConfig::maintenance`]`(false)` — fall back to the old policy:
/// footprint **eviction** plus from-scratch re-evaluation (counted by
/// [`ExecutorStats::cache_invalidations`]). Non-intersecting plans are never
/// touched either way ([`ExecutorStats::mutation_cache_touches`]). Delta
/// compactions triggered by mutations are counted by
/// [`ExecutorStats::compactions`].
///
/// # Concurrency
///
/// `Session` is `Send + Sync` (statically asserted): wrap one in an [`Arc`]
/// and issue [`Session::query`] — and mutations — from any number of
/// threads. The graph version and epoch live behind one `RwLock` (reads
/// clone an `Arc` snapshot), the prepared-plan cache is sharded behind
/// `RwLock`s keyed by the canonical-signature hash, all counters are atomic,
/// and engines are built per call through [`EngineRegistry::build_shared`].
/// Engine selection ([`Session::set_engine`]) takes `&mut self` and
/// therefore happens before a session is shared — per-engine serving uses
/// one session per engine over a shared graph.
pub struct Session {
    state: RwLock<GraphState>,
    registry: EngineRegistry,
    engine: String,
    config: EngineConfig,
    /// Whether mutations *maintain* retained views in place (the default).
    /// Off, every intersecting cache entry is evicted and re-evaluated from
    /// scratch and hits never serve from a retained view — kept selectable
    /// because `wfbench --scenario cyclic` must time full evaluations.
    maintenance: bool,
    cache: ShardedPlanCache,
    /// The telemetry registry — the single source of truth behind
    /// [`Session::stats`] and the `metrics` wire request. The named fields
    /// below are pre-created lock-free handles into it, so the hot paths
    /// never look a metric up by name.
    metrics: Registry,
    tracer: Tracer,
    /// `shard=N` span field for cluster-owned sessions (`None` standalone).
    shard_id: Option<usize>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    compactions: Counter,
    maintained: Counter,
    maintenance_frontier: Counter,
    maintenance_micros_total: Counter,
    mutation_touches: Counter,
    view_serves: Counter,
    projected_serves: Counter,
    full_evals: Counter,
    prefix_hits: Counter,
    prefix_refills: Counter,
    prefix_fallbacks: Counter,
    prefix_rows: Gauge,
    query_latency: Histogram,
    maintain_batch: Histogram,
    maintain_view: Histogram,
    graph_triples: Gauge,
    overlay_edges: Gauge,
    overlay_ppm: Gauge,
    epoch_listeners: RwLock<Vec<EpochListener>>,
}

// The serving path relies on sessions being shareable across threads; keep
// the guarantee compile-time-checked rather than implied.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

/// Everything configurable about a [`Session`], in one reusable value.
///
/// Replaces the former `with_*` builder sprawl on `Session` itself: build a
/// `SessionConfig` once, hand it to [`Session::from_config`] — or to
/// `ShardedCluster::new`, which applies the same configuration to every
/// shard's session. The configuration is plain data (`Clone`), so the same
/// value can configure any number of sessions.
///
/// ```
/// use wireframe::{Session, SessionConfig};
/// use wireframe::graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add("alice", "knows", "bob");
/// let config = SessionConfig::new().engine("wireframe").cache_capacity(128);
/// let session = Session::from_config(b.build(), config).unwrap();
/// assert_eq!(session.engine_name(), "wireframe");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionConfig {
    /// The engine answering queries. `None` (the default) selects the
    /// registry's default engine (`wireframe` on the stock registry).
    pub engine: Option<String>,
    /// The engine-level knobs (edge burnback, explain, threads, storage
    /// backend). A `store` selection re-indexes the session's graph at
    /// construction unless it is already indexed that way (load it with
    /// `wireframe_graph::load_with_store` to build the served store once).
    pub engine_config: EngineConfig,
    /// `None` (the default) keeps mutation maintenance **on**: mutations
    /// update retained views in place. `Some(false)` evicts intersecting
    /// views instead and serves no hit from a retained view — what
    /// `wfbench --scenario cyclic` sets so it times full evaluations of
    /// both join strategies rather than the view cache.
    pub maintenance: Option<bool>,
    /// Prepared-plan cache bound in distinct plans. `None` = the default
    /// [`DEFAULT_CACHE_CAPACITY`]; `Some(0)` = unbounded.
    pub cache_capacity: Option<usize>,
    /// Delta-store compaction threshold override (overlay/base fraction).
    /// `None` keeps the graph's configured threshold.
    pub compaction_threshold: Option<f64>,
    /// Slow-query threshold in microseconds: completed span trees of
    /// queries at least this slow are emitted to stderr regardless of
    /// sampling. `None`/`Some(0)` disables the slow-query log.
    pub slow_query_micros: Option<u64>,
    /// Span sampling rate: keep 1 in N completed query spans (`Some(1)` =
    /// every span, for `wfquery --trace`). `None` = the serving default
    /// (1 in 64).
    pub trace_sample: Option<u64>,
    /// Identity stamped on every query span as `shard=N`. Set by
    /// [`crate::ShardedCluster`] so spans surfaced through the cluster say
    /// which partition produced them; standalone sessions leave it unset.
    pub shard_id: Option<usize>,
}

impl SessionConfig {
    /// The default configuration: registry-default engine, default engine
    /// knobs, maintenance on, default cache bound.
    pub fn new() -> Self {
        SessionConfig::default()
    }

    /// Selects the engine by name (validated at [`Session::from_config`]
    /// time against the registry).
    pub fn engine(mut self, name: impl Into<String>) -> Self {
        self.engine = Some(name.into());
        self
    }

    /// Sets the engine-level configuration wholesale.
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Re-indexes the session's graph into the given storage backend at
    /// construction (a no-op when the backend already matches).
    pub fn store(mut self, store: StoreKind) -> Self {
        self.engine_config = self.engine_config.with_store(store);
        self
    }

    /// Worker threads for parallelizable phases (`0` = engine default,
    /// `1` = sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine_config = self.engine_config.with_threads(threads);
        self
    }

    /// Selects the mutation policy for cached plans (default `true`): on,
    /// intersecting views are maintained in `O(delta)`; off, they are
    /// evicted and re-evaluated on next use.
    pub fn maintenance(mut self, enabled: bool) -> Self {
        self.maintenance = Some(enabled);
        self
    }

    /// Bounds the prepared-plan cache to `capacity` distinct plans (`0` =
    /// unbounded; default [`DEFAULT_CACHE_CAPACITY`]).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Overrides the delta-store compaction threshold (overlay/base
    /// fraction at which mutations compact the graph).
    pub fn compaction_threshold(mut self, threshold: f64) -> Self {
        self.compaction_threshold = Some(threshold);
        self
    }

    /// Emits completed span trees of queries slower than `ms` milliseconds
    /// to stderr (`wfserve --slow-query-ms`; `0` disables the log).
    pub fn slow_query_ms(mut self, ms: u64) -> Self {
        self.slow_query_micros = Some(ms.saturating_mul(1_000));
        self
    }

    /// Keeps 1 in `every` completed query spans (`1` = every span).
    pub fn trace_sample(mut self, every: u64) -> Self {
        self.trace_sample = Some(every.max(1));
        self
    }

    /// Stamps `shard=id` on every query span (cluster-owned sessions).
    pub fn shard_id(mut self, id: usize) -> Self {
        self.shard_id = Some(id);
        self
    }
}

impl Session {
    /// Creates a session over `graph` with the stock registry
    /// ([`default_registry`]), the default configuration and the `wireframe`
    /// engine selected. Shorthand for [`Session::from_config`] with
    /// [`SessionConfig::default`].
    pub fn new(graph: Graph) -> Self {
        Session::shared(Arc::new(graph))
    }

    /// Creates a session over an already-shared graph, so several sessions
    /// (e.g. one per engine) can serve one in-memory graph without copying
    /// it.
    pub fn shared(graph: Arc<Graph>) -> Self {
        Session::from_config(graph, SessionConfig::default())
            .expect("the default session configuration is always valid")
    }

    /// Creates a session with a custom registry. The registry's first
    /// registered engine becomes the session's engine.
    pub fn with_registry(graph: Graph, registry: EngineRegistry) -> Self {
        Session::from_config_with_registry(Arc::new(graph), registry, SessionConfig::default())
            .expect("the default session configuration is always valid")
    }

    /// Creates a session over a shared graph with a custom registry.
    pub fn shared_with_registry(graph: Arc<Graph>, registry: EngineRegistry) -> Self {
        Session::from_config_with_registry(graph, registry, SessionConfig::default())
            .expect("the default session configuration is always valid")
    }

    /// Creates a fully-configured session in one step — the constructor
    /// behind every other one. Accepts an owned or already-shared graph.
    ///
    /// Errors with [`WireframeError::UnknownEngine`] when the configuration
    /// names an engine the registry does not contain.
    pub fn from_config(
        graph: impl Into<Arc<Graph>>,
        config: SessionConfig,
    ) -> Result<Self, WireframeError> {
        Session::from_config_with_registry(graph, default_registry(), config)
    }

    /// [`Session::from_config`] with a custom engine registry. When the
    /// configuration selects no engine, the registry's default engine (its
    /// first registration) is used.
    pub fn from_config_with_registry(
        graph: impl Into<Arc<Graph>>,
        registry: EngineRegistry,
        config: SessionConfig,
    ) -> Result<Self, WireframeError> {
        let engine = match &config.engine {
            Some(name) => {
                if !registry.contains(name) {
                    return Err(WireframeError::UnknownEngine {
                        requested: name.clone(),
                        known: registry.names().iter().map(|&n| n.to_owned()).collect(),
                    });
                }
                name.clone()
            }
            None => registry.default_engine().unwrap_or("wireframe").to_owned(),
        };
        // Re-indexing consumes the caller's graph when this is its only
        // handle, so one store is alive at a time.
        let mut graph = graph.into();
        if let Some(kind) = config.engine_config.store {
            if graph.store_kind() != kind {
                graph = Arc::new(Arc::unwrap_or_clone(graph).with_store(kind));
            }
        }
        if let Some(threshold) = config.compaction_threshold {
            if (graph.compaction_threshold() - threshold).abs() > f64::EPSILON {
                graph = Arc::new(Arc::unwrap_or_clone(graph).with_compaction_threshold(threshold));
            }
        }
        let metrics = Registry::new();
        let tracer = Tracer::new(TracerConfig {
            sample_every: config.trace_sample.unwrap_or(64).max(1),
            slow_micros: config.slow_query_micros.unwrap_or(0),
            ..TracerConfig::default()
        });
        Ok(Session {
            state: RwLock::new(GraphState { graph, epoch: 0 }),
            registry,
            engine,
            config: config.engine_config,
            maintenance: config.maintenance.unwrap_or(true),
            cache: ShardedPlanCache::new(config.cache_capacity.unwrap_or(DEFAULT_CACHE_CAPACITY)),
            tracer,
            shard_id: config.shard_id,
            hits: metrics.counter(names::CACHE_HITS),
            misses: metrics.counter(names::CACHE_MISSES),
            evictions: metrics.counter(names::CACHE_EVICTIONS),
            invalidations: metrics.counter(names::CACHE_INVALIDATIONS),
            compactions: metrics.counter(names::COMPACTIONS),
            maintained: metrics.counter(names::PLANS_MAINTAINED),
            maintenance_frontier: metrics.counter(names::MAINTENANCE_FRONTIER_NODES),
            maintenance_micros_total: metrics.counter(names::MAINTENANCE_MICROS),
            mutation_touches: metrics.counter(names::MUTATION_CACHE_TOUCHES),
            view_serves: metrics.counter(names::VIEW_SERVES),
            projected_serves: metrics.counter(names::PROJECTED_SERVES),
            full_evals: metrics.counter(names::FULL_EVALUATIONS),
            prefix_hits: metrics.counter(names::MAINTAIN_PREFIX_HITS),
            prefix_refills: metrics.counter(names::MAINTAIN_PREFIX_REFILLS),
            prefix_fallbacks: metrics.counter(names::MAINTAIN_PREFIX_FALLBACKS),
            prefix_rows: metrics.gauge(names::MAINTAIN_PREFIX_ROWS),
            query_latency: metrics.histogram(names::QUERY_LATENCY_US),
            maintain_batch: metrics.histogram(names::MAINTAIN_BATCH_US),
            maintain_view: metrics.histogram(names::MAINTAIN_VIEW_US),
            graph_triples: metrics.gauge(names::GRAPH_TRIPLES),
            overlay_edges: metrics.gauge(names::GRAPH_OVERLAY_EDGES),
            overlay_ppm: metrics.gauge(names::GRAPH_OVERLAY_PPM),
            metrics,
            epoch_listeners: RwLock::new(Vec::new()),
        })
    }

    /// Registers a callback fired on **every** epoch advance — including
    /// batches whose net [`EdgeDelta`] is empty, so subscribers can track
    /// epoch continuity without gaps.
    ///
    /// The callback runs on the mutating thread while the session still
    /// holds the graph-state write lock, which is what makes notifications
    /// **totally ordered by epoch**: no two callbacks run concurrently and
    /// epochs arrive strictly increasing. Keep it cheap and non-reentrant —
    /// don't call back into the session from inside (that would deadlock on
    /// the state lock); hand the event to a channel and do the work
    /// elsewhere. The serving layer's subscription fan-out does exactly
    /// that.
    pub fn add_epoch_listener(&self, listener: impl Fn(u64, &EdgeDelta) + Send + Sync + 'static) {
        self.epoch_listeners
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .push(Box::new(listener));
    }

    /// Whether mutations maintain retained views instead of evicting them.
    pub fn maintenance_enabled(&self) -> bool {
        self.maintenance
    }

    /// Selects the engine used by subsequent queries.
    pub fn set_engine(&mut self, name: &str) -> Result<(), WireframeError> {
        if !self.registry.contains(name) {
            return Err(WireframeError::UnknownEngine {
                requested: name.to_owned(),
                known: self
                    .registry
                    .names()
                    .iter()
                    .map(|&n| n.to_owned())
                    .collect(),
            });
        }
        self.engine = name.to_owned();
        Ok(())
    }

    /// The prepared-plan cache bound (`0` = unbounded).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity
    }

    /// The storage backend the session's graph is indexed with.
    pub fn store_kind(&self) -> StoreKind {
        self.snapshot().0.store_kind()
    }

    /// A shared snapshot of the graph version this session currently
    /// serves. **Snapshot contract:** the handle is pinned to the version
    /// current at the call — mutations applied later never affect it — and
    /// cloning the `Arc` (e.g. to build further sessions over the same
    /// data) shares the in-memory graph without copying it.
    pub fn graph(&self) -> Arc<Graph> {
        self.snapshot().0
    }

    /// The current mutation epoch: `0` at construction, advanced by every
    /// applied mutation batch. Stamped into [`Evaluation::epoch`].
    pub fn epoch(&self) -> u64 {
        self.snapshot().1
    }

    fn snapshot(&self) -> (Arc<Graph>, u64) {
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        (Arc::clone(&state.graph), state.epoch)
    }

    /// The engine registry.
    pub fn registry(&self) -> &EngineRegistry {
        &self.registry
    }

    /// The currently selected engine name.
    pub fn engine_name(&self) -> &str {
        &self.engine
    }

    /// The engine configuration in effect.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Parses, plans and executes a SPARQL conjunctive query in one call.
    /// When the session's [`EngineConfig::limit`] is set, the answer is
    /// bounded like [`Session::query_limited`] with that limit.
    pub fn query(&self, text: &str) -> Result<Evaluation, WireframeError> {
        self.query_limited(text, 0)
    }

    /// [`Session::query`] bounded to the first `limit` rows under the
    /// canonical row order (`0` falls back to the configured
    /// [`EngineConfig::limit`], itself `0` = unlimited by default).
    ///
    /// When the query's retained view holds a primed top-k prefix covering
    /// `limit`, the answer is served straight from the prefix in `O(k)` —
    /// no defactorization — and marked
    /// [`prefix_served`](wireframe_api::LimitInfo::prefix_served); the
    /// session counts it in [`ExecutorStats::prefix_hits`]. Otherwise the
    /// view is defactorized (or the full pipeline runs) and the result
    /// truncated canonically.
    pub fn query_limited(&self, text: &str, limit: usize) -> Result<Evaluation, WireframeError> {
        let (graph, epoch) = self.snapshot();
        let query = parse_query(text, graph.dictionary())?;
        self.execute_on(&graph, epoch, &query, self.effective_limit(limit))
    }

    /// Executes an already-constructed query through the selected engine,
    /// using the prepared-query cache.
    pub fn execute(&self, query: &ConjunctiveQuery) -> Result<Evaluation, WireframeError> {
        self.execute_limited(query, 0)
    }

    /// [`Session::execute`] bounded like [`Session::query_limited`].
    pub fn execute_limited(
        &self,
        query: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<Evaluation, WireframeError> {
        let (graph, epoch) = self.snapshot();
        self.execute_on(&graph, epoch, query, self.effective_limit(limit))
    }

    /// An explicit per-call limit wins; `0` defers to the session-wide
    /// configured limit (which the engine also applies as a cap).
    fn effective_limit(&self, limit: usize) -> usize {
        if limit > 0 {
            limit
        } else {
            self.config.limit
        }
    }

    fn execute_on(
        &self,
        graph: &Arc<Graph>,
        epoch: u64,
        query: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<Evaluation, WireframeError> {
        let started = std::time::Instant::now();
        let result = self.execute_inner(graph, epoch, query, limit);
        if let Ok(evaluation) = &result {
            let elapsed = started.elapsed();
            self.query_latency.record_duration(elapsed);
            // The non-sampled path ends here: one histogram record and one
            // relaxed tick. Span trees are synthesized post-hoc from the
            // timings the pipeline already measured.
            if self.tracer.wants(elapsed) {
                self.tracer
                    .record(self.query_span(query, evaluation, elapsed, graph));
            }
        }
        result
    }

    /// Builds the completed span tree of one sampled (or slow) query from
    /// its already-measured phase timings.
    fn query_span(
        &self,
        query: &ConjunctiveQuery,
        evaluation: &Evaluation,
        elapsed: std::time::Duration,
        graph: &Graph,
    ) -> Span {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        plan_cache_key(query).as_str().hash(&mut hasher);
        let t = &evaluation.timings;
        let prefix_served = evaluation.limited.is_some_and(|i| i.prefix_served);
        let defactorize = {
            // A prefix serve never defactorizes: the child's name says the
            // O(k) path answered, and its duration is the prefix copy-out.
            let name = if prefix_served {
                "defactorize_topk"
            } else {
                "defactorize"
            };
            let mut child = Span::new(name, t.defactorization);
            if t.defactorization_cpu > t.defactorization {
                child = child.field("cpu_micros", t.defactorization_cpu.as_micros().to_string());
            }
            // How many of the query's edges phase two actually joined: fewer
            // than all of them when the SELECT list let it join a cover.
            match joined_cover(evaluation) {
                Some((cover, patterns)) if !prefix_served => child
                    .field("cover_patterns", cover.to_string())
                    .field("patterns", patterns.to_string()),
                _ => child,
            }
        };
        let mut span = Span::new("query", elapsed)
            .field("signature", format!("{:016x}", hasher.finish()))
            .field("engine", evaluation.engine.clone())
            .field("store", graph.store_kind().name())
            .field("epochs", format!("{:?}", evaluation.epochs))
            .field(
                "path",
                if evaluation.maintenance.is_some() {
                    "view"
                } else {
                    "full"
                },
            )
            .field("rows", evaluation.embedding_count().to_string())
            .child_if_nonzero(Span::new("plan", t.planning))
            .child_if_nonzero(Span::new("answer_graph", t.answer_graph))
            .child_if_nonzero(Span::new("edge_burnback", t.edge_burnback))
            .child_if_nonzero(defactorize)
            .child_if_nonzero(Span::new("execute", t.execution));
        if let Some(shard) = self.shard_id {
            span = span.field("shard", shard.to_string());
        }
        if let Some(info) = &evaluation.maintenance {
            span = span.field("maintenance_passes", info.passes.to_string());
        }
        if let Some(info) = evaluation.limited {
            span = span.field("limit", info.limit.to_string());
        }
        span
    }

    fn execute_inner(
        &self,
        graph: &Arc<Graph>,
        epoch: u64,
        query: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<Evaluation, WireframeError> {
        let engine = self
            .registry
            .build_shared(&self.engine, graph, &self.config)?;
        let (prepared, view) = self.prepare_slot_on(engine.as_ref(), epoch, query)?;

        if self.views_active(engine.as_ref()) {
            // Serve from the retained view when its stamp does not exceed
            // this reader's snapshot epoch. `<=` is sound because every
            // intersecting mutation maintains the view *before* releasing
            // the state write lock: a reader that observed epoch `e` under
            // the state read lock is guaranteed that any view stamped
            // earlier simply had no intersecting mutation since — it is
            // still exact at `e`. A stamp *beyond* `e` means the view was
            // maintained past a snapshot this reader is still holding —
            // graphs are immutable versions, so the reader gets a correct
            // answer for *its* epoch from the full pipeline below.
            //
            // The `Arc` is cloned out of the slot lock and evaluated with
            // no lock held, so a slow defactorization never stalls a
            // mutation's footprint pass (which copy-on-writes around
            // concurrent holders instead).
            let retained = {
                let slot = view.read().unwrap_or_else(|p| p.into_inner());
                match &*slot {
                    ViewSlot::Retained(retained) if retained.epoch() <= epoch => {
                        Some(Arc::clone(retained))
                    }
                    _ => None,
                }
            };
            if let Some(retained) = retained {
                // A limited hit on a view whose prefix cannot answer it warms
                // the prefix first (copy-on-write under the slot lock), so
                // this call and every later one serve in O(limit). A view
                // that can never hold a prefix (projecting query, `wco`) is
                // left alone: no slot write lock, no copy of the view.
                let warmable =
                    limit > 0 && !retained.can_prefix_serve(limit) && retained.prefix_capable();
                let retained = if warmable {
                    self.warm_prefix(&view, epoch, limit).unwrap_or(retained)
                } else {
                    retained
                };
                let mut evaluation = retained.evaluate_limited(limit)?;
                evaluation.epochs = vec![epoch];
                self.view_serves.inc();
                self.count_phase_two(&evaluation);
                return Ok(evaluation);
            }
            // First use (or a stale slot): run the full phase-one pipeline
            // once, retain the result, and answer from it.
            let t = std::time::Instant::now();
            if let Some(fresh) =
                self.materialize_slot(engine.as_ref(), graph, &prepared, &view, epoch, limit)?
            {
                let phase_one = t.elapsed();
                let mut evaluation = fresh.evaluate_limited(limit)?;
                evaluation.epochs = vec![epoch];
                self.count_phase_two(&evaluation);
                // This call *did* pay planning + generation (+ burnback);
                // the trait cannot hand the split back, so the lump is
                // reported as answer-graph time — Timings::total stays
                // honest for the miss that built the view.
                evaluation.timings.answer_graph += phase_one;
                return Ok(evaluation);
            }
        }

        let mut evaluation = engine.evaluate(&prepared)?;
        self.full_evals.inc();
        evaluation.epochs = vec![epoch];
        // Engines that saw `EngineConfig::limit` already truncated; for the
        // rest (and for a larger per-call limit) this is the bound — a no-op
        // when the evaluation is already at least as tight.
        evaluation.apply_limit(limit);
        Ok(evaluation)
    }

    /// Counts how a view-backed answer got its rows: out of the retained
    /// top-k prefix, or from a phase two that joined only a projection cover.
    fn count_phase_two(&self, evaluation: &Evaluation) {
        if evaluation.limited.is_some_and(|i| i.prefix_served) {
            self.prefix_hits.inc();
        } else if joined_cover(evaluation).is_some_and(|(cover, patterns)| cover < patterns) {
            self.projected_serves.inc();
        }
    }

    /// Whether this session serves the given engine through retained views,
    /// routed on the instance's capability set rather than its name.
    fn views_active(&self, engine: &dyn Engine) -> bool {
        self.maintenance && engine.capabilities().maintainable
    }

    /// First-use materialization of a cached plan's view slot: runs phase
    /// one once, stamps `epoch`, and retains the view unless a mutation
    /// landed meanwhile. Returns the view (for serving) when one was
    /// created, `None` when the slot is already decided (retained elsewhere
    /// or unmaintainable) or no engine could materialize it.
    ///
    /// When the configured engine declines, the registry's capability matrix
    /// is consulted for a fallback engine whose *instance* — built with this
    /// session's configuration, over the same snapshot — claims maintenance
    /// for the query's shape; a cyclic query under edge burnback is retained
    /// through `wco` this way instead of degrading to evict-and-reevaluate.
    /// Evaluations served from such a view report the engine that built it.
    fn materialize_slot(
        &self,
        engine: &dyn Engine,
        graph: &Arc<Graph>,
        prepared: &PreparedQuery,
        slot: &SharedViewSlot,
        epoch: u64,
        limit: usize,
    ) -> Result<Option<Arc<dyn MaintainedView>>, WireframeError> {
        if !matches!(
            &*slot.read().unwrap_or_else(|p| p.into_inner()),
            ViewSlot::Empty
        ) {
            return Ok(None);
        }
        if let Some(fresh) = engine.materialize(prepared)? {
            return Ok(Some(self.retain_fresh(fresh, slot, epoch, limit)));
        }
        if let Some(fresh) = self.materialize_fallback(graph, prepared)? {
            return Ok(Some(self.retain_fresh(fresh, slot, epoch, limit)));
        }
        // Epoch-independent property of the query shape + engine options
        // (engines decline before paying phase one): record it so hits
        // never re-ask.
        let mut guard = slot.write().unwrap_or_else(|p| p.into_inner());
        if matches!(&*guard, ViewSlot::Empty) {
            *guard = ViewSlot::Unmaintainable;
        }
        Ok(None)
    }

    /// Tries every *other* registered engine whose nominal — then actual,
    /// under this session's configuration — capabilities cover maintaining
    /// the prepared query's shape. The fallback re-prepares the query for
    /// its own plan payload (the cached [`PreparedQuery`] carries the
    /// configured engine's) and materializes over the same snapshot.
    fn materialize_fallback(
        &self,
        graph: &Arc<Graph>,
        prepared: &PreparedQuery,
    ) -> Result<Option<Box<dyn MaintainedView>>, WireframeError> {
        let wanted = |c: EngineCapabilities| {
            if prepared.cyclic() {
                c.maintainable_cyclic
            } else {
                c.maintainable
            }
        };
        for entry in self.registry.entries() {
            if entry.name == self.engine || !wanted(entry.capabilities) {
                continue;
            }
            let fallback = self
                .registry
                .build_shared(entry.name, graph, &self.config)?;
            if !wanted(fallback.capabilities()) {
                continue;
            }
            let reprepared = fallback.prepare(prepared.query())?;
            if let Some(view) = fallback.materialize(&reprepared)? {
                return Ok(Some(view));
            }
        }
        Ok(None)
    }

    /// Lazily primes a retained view's top-k prefix for `limit`: primes in
    /// place when this thread is the slot's only holder, otherwise clones,
    /// primes the clone, and swaps it in — the same copy-on-write discipline
    /// maintenance uses, so in-flight serves keep their snapshot. Priming
    /// pays one ordered defactorization (an underflow refill's cost) and is
    /// counted as one. Returns the primed view, or `None` when the slot
    /// moved on (evicted, or maintained past this reader's `epoch`) or the
    /// view cannot retain a prefix.
    fn warm_prefix(
        &self,
        slot: &SharedViewSlot,
        epoch: u64,
        limit: usize,
    ) -> Option<Arc<dyn MaintainedView>> {
        let mut guard = slot.write().unwrap_or_else(|p| p.into_inner());
        let ViewSlot::Retained(view) = &mut *guard else {
            return None;
        };
        if view.epoch() > epoch {
            return None;
        }
        // Re-check under the lock: a racing limited hit may have warmed the
        // prefix already, and its work must not be counted twice.
        if view.can_prefix_serve(limit) {
            return Some(Arc::clone(view));
        }
        let primed = match Arc::get_mut(view) {
            Some(exclusive) => exclusive.prime_prefix(limit),
            None => {
                let mut cloned = view.clone_view();
                let primed = cloned.prime_prefix(limit);
                *view = Arc::from(cloned);
                primed
            }
        };
        if !primed {
            return None;
        }
        self.prefix_refills.inc();
        Some(Arc::clone(view))
    }

    /// Stamps and retains a freshly materialized view — unless a mutation
    /// landed while materializing: a view built on a superseded snapshot
    /// must not be stored as current (`apply_mutation` maintains views
    /// while holding the state *write* lock).
    fn retain_fresh(
        &self,
        mut fresh: Box<dyn MaintainedView>,
        slot: &SharedViewSlot,
        epoch: u64,
        limit: usize,
    ) -> Arc<dyn MaintainedView> {
        self.full_evals.inc();
        // Prime the retained top-k prefix while the view is still exclusively
        // ours: priming pays one ordered defactorization up front — the same
        // work an underflow refill pays — so it is counted as one.
        if limit > 0 && fresh.prime_prefix(limit) {
            self.prefix_refills.inc();
        }
        fresh.set_epoch(epoch);
        let fresh: Arc<dyn MaintainedView> = Arc::from(fresh);
        // Retain under the state read lock.
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        if state.epoch == epoch {
            let mut guard = slot.write().unwrap_or_else(|p| p.into_inner());
            if matches!(&*guard, ViewSlot::Empty) {
                *guard = ViewSlot::Retained(Arc::clone(&fresh));
            }
        }
        fresh
    }

    /// Warms the cache for `text` without producing an answer: parses,
    /// prepares (caching the plan), and — when the session and engine
    /// maintain — materializes and retains the query's view, all without
    /// defactorizing. Returns `true` when a retained view now exists.
    /// Useful to pre-warm a serving session, and used by
    /// `wfquery --mutations --explain` so the maintenance summary has a
    /// view to report on without paying a full pre-mutation evaluation.
    pub fn prime(&self, text: &str) -> Result<bool, WireframeError> {
        let (graph, epoch) = self.snapshot();
        let query = parse_query(text, graph.dictionary())?;
        let engine = self
            .registry
            .build_shared(&self.engine, &graph, &self.config)?;
        let (prepared, slot) = self.prepare_slot_on(engine.as_ref(), epoch, &query)?;
        if !self.views_active(engine.as_ref()) {
            return Ok(false);
        }
        if self
            .materialize_slot(
                engine.as_ref(),
                &graph,
                &prepared,
                &slot,
                epoch,
                self.config.limit,
            )?
            .is_some()
        {
            return Ok(true);
        }
        let guard = slot.read().unwrap_or_else(|p| p.into_inner());
        Ok(matches!(&*guard, ViewSlot::Retained(_)))
    }

    /// Returns the prepared form of `query` for the selected engine, from the
    /// cache when an equivalent query was prepared before.
    pub fn prepare(&self, query: &ConjunctiveQuery) -> Result<Arc<PreparedQuery>, WireframeError> {
        let (graph, epoch) = self.snapshot();
        let engine = self
            .registry
            .build_shared(&self.engine, &graph, &self.config)?;
        self.prepare_slot_on(engine.as_ref(), epoch, query)
            .map(|(prepared, _)| prepared)
    }

    /// Cache lookup + preparation on an already-built engine, returning the
    /// prepared query together with its retained-view slot. `epoch` is the
    /// epoch of the snapshot the engine was built over.
    fn prepare_slot_on(
        &self,
        engine: &dyn Engine,
        epoch: u64,
        query: &ConjunctiveQuery,
    ) -> Result<(Arc<PreparedQuery>, SharedViewSlot), WireframeError> {
        let key = (self.engine.clone(), plan_cache_key(query));
        if let Some(found) = self.cache.find(&key, query) {
            self.hits.inc();
            return Ok(found);
        }
        // Prepare outside any lock: planning can be costly, and concurrent
        // lookups of other queries must not wait on it. A racing preparer of
        // the same query is resolved at insertion (first one in wins), so a
        // duplicate preparation is possible but a duplicate cache entry is
        // not.
        let prepared = Arc::new(engine.prepare(query)?);
        self.misses.inc();
        // Insert under the state read lock, and only if no mutation landed
        // while we were preparing. `apply_mutation` runs its footprint pass
        // while holding the state *write* lock, so either this insert
        // completes before a racing mutation's pass (which then maintains or
        // evicts it like any other entry), or the epoch check below sees the
        // new epoch and the possibly-stale plan is returned uncached.
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        if state.epoch != epoch {
            return Ok((prepared, Arc::new(RwLock::new(ViewSlot::Empty))));
        }
        let cached = self.cache.insert(key, query, prepared);
        drop(state);
        let evicted = self.cache.enforce_capacity();
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        Ok(cached)
    }

    /// Applies a mutation batch: swaps in the new graph version, advances
    /// the epoch, and runs the footprint pass over the plan cache — cached
    /// views whose predicate footprint the batch touched are **maintained**
    /// in `O(delta)` (kept serving, stamped with the new epoch); entries
    /// without a maintainable view (or with [`SessionConfig::maintenance`]
    /// off) are evicted as before. Readers in flight keep their snapshot.
    ///
    /// The footprint is derived once, from the batch's **net**
    /// [`EdgeDelta`] — already dictionary-resolved, already set-semantics
    /// clean — so a batch that nets out to nothing (or touches only
    /// predicates no cached plan mentions) performs zero cache work: no
    /// label re-resolution, no per-shard write locks, no entries touched
    /// (see [`ExecutorStats::mutation_cache_touches`]).
    pub fn apply_mutation(&self, mutation: &Mutation) -> MutationOutcome {
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        let (next, outcome) = state.graph.apply(mutation);
        let next = Arc::new(next);
        state.graph = Arc::clone(&next);
        state.epoch += 1;
        let epoch = state.epoch;
        // Run the footprint pass while still holding the state write lock:
        // a concurrent preparer either inserted its plan before we got the
        // lock (then the pass below maintains/evicts it) or will observe the
        // bumped epoch under the read lock and skip caching. Lock order is
        // state → cache shard → view slot on both paths, so this cannot
        // deadlock.
        if !outcome.delta.is_empty() {
            let footprint: Vec<PredId> = outcome.delta.predicates();
            let pass = self.cache.maintain_or_evict(
                &footprint,
                &next,
                &outcome.delta,
                epoch,
                self.maintenance,
                &self.maintain_view,
            );
            self.invalidations.add(pass.evicted);
            self.maintained.add(pass.maintained);
            self.maintenance_frontier.add(pass.frontier_nodes);
            self.maintenance_micros_total.add(pass.micros);
            self.mutation_touches.add(pass.touched);
            self.prefix_refills.add(pass.prefix_refills);
            self.prefix_fallbacks.add(pass.prefix_fallbacks);
            if pass.maintained > 0 {
                self.maintain_batch.record(pass.micros);
            }
        }
        // Notify epoch listeners while still holding the state write lock:
        // this is the ordering guarantee subscription fan-out builds on —
        // callbacks observe strictly increasing epochs and never race each
        // other. The listener lock is a leaf (state → listeners, nothing
        // re-enters the session), so this cannot deadlock.
        {
            let listeners = self
                .epoch_listeners
                .read()
                .unwrap_or_else(|e| e.into_inner());
            for listener in listeners.iter() {
                listener(epoch, &outcome.delta);
            }
        }
        drop(state);
        if outcome.compacted {
            self.compactions.inc();
        }
        outcome
    }

    /// Inserts triples (set semantics: already-present triples are no-ops).
    /// One call is one mutation batch — one epoch.
    pub fn insert_triples<'a>(
        &self,
        triples: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    ) -> MutationOutcome {
        let mut mutation = Mutation::new();
        for (s, p, o) in triples {
            mutation.push(MutationOp::Insert, s, p, o);
        }
        self.apply_mutation(&mutation)
    }

    /// Removes triples (set semantics: absent triples are no-ops). One call
    /// is one mutation batch — one epoch.
    pub fn remove_triples<'a>(
        &self,
        triples: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    ) -> MutationOutcome {
        let mut mutation = Mutation::new();
        for (s, p, o) in triples {
            mutation.push(MutationOp::Remove, s, p, o);
        }
        self.apply_mutation(&mutation)
    }

    /// Number of distinct prepared queries currently cached.
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// The session's full registry export, with the graph gauges
    /// (`graph.triples`, delta-overlay size) refreshed from the current
    /// graph version at the moment of the call. This is what the `metrics`
    /// wire request and the Prometheus scrape endpoint serve;
    /// [`Session::stats`] is a named-field projection of the same data.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let graph = self.graph();
        self.graph_triples.set(graph.triple_count() as u64);
        self.overlay_edges.set(graph.overlay_edges());
        self.overlay_ppm.set(graph.overlay_fraction_ppm());
        self.prefix_rows.set(self.cache.prefix_rows_total());
        self.metrics.snapshot()
    }

    /// The session's tracer: sampling state and the completed-span ring.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Empties the prepared-query cache (the hit/miss counters keep counting).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

/// `(query edges phase two joined, query edges)` of a factorized evaluation
/// that reports both; `None` for engines that do not factorize.
fn joined_cover(evaluation: &Evaluation) -> Option<(u64, u64)> {
    let patterns = evaluation.factorized.as_ref()?.plan_order.len() as u64;
    Some((evaluation.metric("cover_patterns")?, patterns))
}

impl QueryExecutor for Session {
    fn engine_name(&self) -> &str {
        Session::engine_name(self)
    }

    fn query(&self, text: &str) -> Result<Evaluation, WireframeError> {
        Session::query(self, text)
    }

    fn query_limited(&self, text: &str, limit: usize) -> Result<Evaluation, WireframeError> {
        Session::query_limited(self, text, limit)
    }

    fn execute(&self, query: &ConjunctiveQuery) -> Result<Evaluation, WireframeError> {
        Session::execute(self, query)
    }

    fn execute_limited(
        &self,
        query: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<Evaluation, WireframeError> {
        Session::execute_limited(self, query, limit)
    }

    fn prime(&self, text: &str) -> Result<bool, WireframeError> {
        Session::prime(self, text)
    }

    fn apply_mutation(&self, mutation: &Mutation) -> MutationOutcome {
        Session::apply_mutation(self, mutation)
    }

    fn epoch(&self) -> u64 {
        Session::epoch(self)
    }

    fn epoch_vector(&self) -> Vec<u64> {
        vec![Session::epoch(self)]
    }

    fn graph(&self) -> Arc<Graph> {
        Session::graph(self)
    }

    fn add_epoch_listener(&self, listener: EpochListener) {
        Session::add_epoch_listener(self, listener)
    }

    fn stats(&self) -> ExecutorStats {
        // The registry is the single source of truth; the struct is a
        // named-field projection of its counters.
        ExecutorStats::from_snapshot(&self.metrics.snapshot())
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        Session::metrics_snapshot(self)
    }

    fn recent_spans(&self) -> Vec<Span> {
        self.tracer.recent()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (graph, epoch) = self.snapshot();
        f.debug_struct("Session")
            .field("engine", &self.engine)
            .field("triples", &graph.triple_count())
            .field("epoch", &epoch)
            .field("cached_queries", &self.cached_queries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_graph::GraphBuilder;

    fn knows_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add("alice", "knows", "bob");
        b.add("bob", "knows", "carol");
        b.add("carol", "knows", "dave");
        b.build()
    }

    #[test]
    fn metrics_registry_is_the_single_source_of_truth() {
        let session = Session::from_config(
            knows_graph(),
            SessionConfig::new().store(StoreKind::Delta).trace_sample(1),
        )
        .unwrap();
        let q = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        session.query(q).unwrap();
        session.query(q).unwrap();
        session.insert_triples([("dave", "knows", "erin")]);

        let snap = session.metrics_snapshot();
        let stats = QueryExecutor::stats(&session);
        assert_eq!(stats.cache_hits, snap.counter(names::CACHE_HITS));
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(
            snap.histogram(names::QUERY_LATENCY_US).unwrap().count,
            2,
            "every query records into the latency histogram"
        );
        assert_eq!(snap.gauge(names::GRAPH_TRIPLES), 4);

        // trace_sample(1) keeps every completed query span; the tree
        // carries the pipeline context fields.
        let spans = QueryExecutor::recent_spans(&session);
        assert_eq!(spans.len(), 2);
        let rendered = spans[0].render();
        assert!(rendered.starts_with("query "), "{rendered}");
        for key in ["signature=", "engine=wireframe", "store=delta", "rows=2"] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
    }

    #[test]
    fn parse_plan_execute_in_one_call() {
        let session = Session::new(knows_graph());
        let ev = session
            .query("SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }")
            .unwrap();
        assert_eq!(ev.embedding_count(), 2);
        assert_eq!(ev.engine, "wireframe");
        assert_eq!(ev.epoch(), 0, "no mutation applied yet");
        assert!(ev.factorized.is_some());
    }

    #[test]
    fn prepared_query_cache_reuses_plans() {
        let session = Session::new(knows_graph());
        let text = "SELECT * WHERE { ?x :knows ?y . ?y :knows ?z . }";
        let first = session.query(text).unwrap();
        assert_eq!(session.stats().cache_misses, 1);
        assert_eq!(session.stats().cache_hits, 0);

        let second = session.query(text).unwrap();
        assert_eq!(session.stats().cache_misses, 1, "no second preparation");
        assert_eq!(session.stats().cache_hits, 1, "the cached plan was reused");
        assert!(first.embeddings().same_answer(second.embeddings()));

        // An isomorphic query (renamed variables, reordered patterns, same
        // column order) hits the same entry: the cache is keyed by the
        // order-sensitive canonical form.
        let renamed = "SELECT ?a ?b ?c WHERE { ?b :knows ?c . ?a :knows ?b . }";
        let third = session.query(renamed).unwrap();
        assert_eq!(session.stats().cache_hits, 2);
        assert_eq!(session.cached_queries(), 1);
        assert!(first.embeddings().same_answer(third.embeddings()));
    }

    #[test]
    fn cache_never_conflates_projection_order() {
        // `SELECT ?x ?z` and `SELECT ?z ?x` share a miner signature but ask
        // for different column orders; a cache hit here would silently swap
        // the output columns.
        let session = Session::new(knows_graph());
        let xz = session
            .query("SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }")
            .unwrap();
        let zx = session
            .query("SELECT ?z ?x WHERE { ?x :knows ?y . ?y :knows ?z . }")
            .unwrap();
        assert_eq!(
            session.stats().cache_misses,
            2,
            "distinct column orders miss"
        );
        assert_eq!(session.stats().cache_hits, 0);

        // The second result's columns are the first's, swapped.
        let mut a: Vec<_> = xz.embeddings().rows().map(|t| (t[0], t[1])).collect();
        let mut b: Vec<_> = zx.embeddings().rows().map(|t| (t[1], t[0])).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "column values swap with the requested order");
        // (Var indices are per-query namespaces, so the schemas themselves
        // are not comparable across the two parses — the tuple check above
        // is the meaningful one.)
    }

    #[test]
    fn cache_hit_requires_exact_isomorphism() {
        use wireframe_query::CqBuilder;
        // A directed 6-cycle and two disjoint directed triangles over one
        // predicate colour identically (the classic 1-WL blind spot), so
        // their cache keys collide. The exact-isomorphism confirmation must
        // keep them apart: the disconnected triangle query is rejected, not
        // answered with the cycle's cached plan.
        let session = Session::new(knows_graph());
        let graph = session.graph();
        let d = graph.dictionary();

        let mut b6 = CqBuilder::new(d);
        for i in 0..6 {
            b6.pattern(&format!("?v{i}"), "knows", &format!("?v{}", (i + 1) % 6))
                .unwrap();
        }
        let cycle6 = b6.build().unwrap();

        let mut b33 = CqBuilder::new(d);
        for i in 0..3 {
            b33.pattern(&format!("?s{i}"), "knows", &format!("?s{}", (i + 1) % 3))
                .unwrap();
        }
        for i in 0..3 {
            b33.pattern(&format!("?t{i}"), "knows", &format!("?t{}", (i + 1) % 3))
                .unwrap();
        }
        let triangles = b33.build().unwrap();

        let cycle_answer = session.execute(&cycle6).unwrap();
        assert_eq!(cycle_answer.embedding_count(), 0, "no 6-cycle in the data");

        assert!(
            matches!(
                session.execute(&triangles),
                Err(WireframeError::DisconnectedQuery)
            ),
            "the colour-colliding disconnected query must not reuse the cycle's plan"
        );
        assert_eq!(session.stats().cache_hits, 0, "collision was not a hit");
    }

    #[test]
    fn cache_is_per_engine() {
        let mut session = Session::new(knows_graph());
        let text = "SELECT * WHERE { ?x :knows ?y . }";
        session.query(text).unwrap();
        session.set_engine("relational").unwrap();
        session.query(text).unwrap();
        assert_eq!(
            session.stats().cache_misses,
            2,
            "each engine prepares its own"
        );
        assert_eq!(session.cached_queries(), 2);

        session.clear_cache();
        assert_eq!(session.cached_queries(), 0);
    }

    #[test]
    fn every_registered_engine_answers_identically() {
        let mut session = Session::new(knows_graph());
        let text = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        let names: Vec<&str> = session.registry().names();
        let mut answers = Vec::new();
        for name in names {
            session.set_engine(name).unwrap();
            let ev = session.query(text).unwrap();
            assert_eq!(ev.engine, name);
            answers.push(ev.embeddings);
        }
        for other in &answers[1..] {
            assert!(answers[0].same_answer(other));
        }
    }

    #[test]
    fn unknown_engine_is_rejected() {
        let mut session = Session::new(knows_graph());
        assert!(matches!(
            session.set_engine("sqlite"),
            Err(WireframeError::UnknownEngine { .. })
        ));
        assert!(
            Session::from_config(knows_graph(), SessionConfig::new().engine("sortmerge")).is_ok()
        );
        assert!(matches!(
            Session::from_config(knows_graph(), SessionConfig::new().engine("sqlite")),
            Err(WireframeError::UnknownEngine { .. })
        ));
    }

    #[test]
    fn sessions_share_a_graph_without_copying() {
        let shared = Arc::new(knows_graph());
        let a = Session::new(Graph::clone(&shared)); // independent copy
        let b = Session::shared(Arc::clone(&shared));
        let c = Session::from_config(b.graph(), SessionConfig::new().engine("relational")).unwrap();
        assert!(Arc::ptr_eq(&b.graph(), &c.graph()));
        assert!(!Arc::ptr_eq(&a.graph(), &b.graph()));

        let text = "SELECT * WHERE { ?x :knows ?y . }";
        let via_b = b.query(text).unwrap();
        let via_c = c.query(text).unwrap();
        assert!(via_b.embeddings().same_answer(via_c.embeddings()));
    }

    #[test]
    fn concurrent_queries_share_the_plan_cache() {
        let session = Arc::new(Session::new(knows_graph()));
        let text = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    for _ in 0..4 {
                        let ev = session.query(text).unwrap();
                        assert_eq!(ev.embedding_count(), 2);
                    }
                });
            }
        });
        let stats = session.stats();
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            32,
            "every query is accounted a hit or a miss"
        );
        assert_eq!(
            session.cached_queries(),
            1,
            "racing preparers converge on one cached plan"
        );
    }

    #[test]
    fn store_selection_reindexes_the_graph() {
        let session =
            Session::from_config(knows_graph(), SessionConfig::new().store(StoreKind::Map))
                .unwrap();
        assert_eq!(session.store_kind(), StoreKind::Map);
        assert_eq!(session.config().store, Some(StoreKind::Map));
        let ev = session
            .query("SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }")
            .unwrap();
        assert_eq!(ev.embedding_count(), 2, "answers are store-independent");

        // A graph pre-built on the map backend is served as-is: a config
        // that does not name a backend (store: None) never re-indexes.
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let pre_built = Session::from_config(
            Arc::new(b.build_with_store(StoreKind::Map)),
            SessionConfig::new().threads(4),
        )
        .unwrap();
        assert_eq!(pre_built.store_kind(), StoreKind::Map);
        assert_eq!(pre_built.config().store, None);
    }

    #[test]
    fn parse_errors_surface_as_wireframe_errors() {
        let session = Session::new(knows_graph());
        assert!(matches!(
            session.query("SELECT WHERE"),
            Err(WireframeError::Query(_))
        ));
    }

    #[test]
    fn mutations_advance_the_epoch_and_the_answers() {
        let session =
            Session::from_config(knows_graph(), SessionConfig::new().store(StoreKind::Delta))
                .unwrap();
        let text = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        assert_eq!(session.epoch(), 0);
        assert_eq!(session.query(text).unwrap().embedding_count(), 2);

        let outcome = session.insert_triples([("dave", "knows", "erin")]);
        assert_eq!(outcome.inserted, 1);
        assert_eq!(session.epoch(), 1);
        let ev = session.query(text).unwrap();
        assert_eq!(ev.epoch(), 1, "evaluations carry the snapshot epoch");
        assert_eq!(ev.embedding_count(), 3, "the new 2-chain appears");

        let outcome = session.remove_triples([("alice", "knows", "bob")]);
        assert_eq!(outcome.removed, 1);
        let ev = session.query(text).unwrap();
        assert_eq!(ev.epoch(), 2);
        assert_eq!(ev.embedding_count(), 2);

        // Set semantics: replaying either batch changes nothing (but still
        // advances the epoch — each applied batch is a version).
        let outcome = session.insert_triples([("dave", "knows", "erin")]);
        assert_eq!((outcome.inserted, outcome.removed), (0, 0));
        assert_eq!(session.epoch(), 3);
    }

    fn knows_likes_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add("alice", "knows", "bob");
        b.add("bob", "knows", "carol");
        b.add("alice", "likes", "pizza");
        b.build()
    }

    #[test]
    fn mutation_invalidates_only_intersecting_footprints() {
        // Maintenance off: the pre-maintenance eviction policy, pinned.
        let session = Session::from_config(
            knows_likes_graph(),
            SessionConfig::new()
                .store(StoreKind::Delta)
                .maintenance(false),
        )
        .unwrap();
        assert!(!session.maintenance_enabled());

        let knows_q = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        let likes_q = "SELECT * WHERE { ?x :likes ?y . }";
        session.query(knows_q).unwrap();
        session.query(likes_q).unwrap();
        assert_eq!(session.stats().cache_misses, 2);
        assert_eq!(session.cached_queries(), 2);

        // Mutate `likes` only: the `knows` plan must survive.
        session.insert_triples([("bob", "likes", "pasta")]);
        assert_eq!(
            session.stats().cache_invalidations,
            1,
            "only the likes plan"
        );
        assert_eq!(session.cached_queries(), 1);
        assert_eq!(session.stats().plans_maintained, 0, "maintenance is off");
        assert_eq!(session.stats().mutation_cache_touches, 1);

        let hits_before = session.stats().cache_hits;
        let ev = session.query(knows_q).unwrap();
        assert_eq!(
            session.stats().cache_hits,
            hits_before + 1,
            "knows plan kept"
        );
        assert_eq!(ev.epoch(), 1);
        let misses_before = session.stats().cache_misses;
        let ev = session.query(likes_q).unwrap();
        assert_eq!(
            session.stats().cache_misses,
            misses_before + 1,
            "re-prepared"
        );
        assert_eq!(ev.embedding_count(), 2, "epoch-correct answer");

        // A no-op batch evicts nothing.
        let invalidations = session.stats().cache_invalidations;
        session.insert_triples([("bob", "likes", "pasta")]);
        assert_eq!(session.stats().cache_invalidations, invalidations);
    }

    #[test]
    fn mutation_maintains_intersecting_views_in_place() {
        // Maintenance on (the default): intersecting wireframe plans are
        // kept and their retained views updated in O(delta).
        let session = Session::from_config(
            knows_likes_graph(),
            SessionConfig::new().store(StoreKind::Delta),
        )
        .unwrap();
        assert!(session.maintenance_enabled());

        let knows_q = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        let likes_q = "SELECT * WHERE { ?x :likes ?y . }";
        assert_eq!(session.query(knows_q).unwrap().embedding_count(), 1);
        session.query(likes_q).unwrap();
        assert_eq!(session.stats().full_evaluations, 2, "one pipeline run each");

        session.insert_triples([("carol", "knows", "dave")]);
        assert_eq!(session.stats().plans_maintained, 1, "the knows view");
        assert_eq!(session.stats().cache_invalidations, 0, "nothing evicted");
        assert_eq!(session.cached_queries(), 2, "both plans survive");
        assert_eq!(session.stats().mutation_cache_touches, 1);

        // The maintained view serves the post-mutation answer as a cache
        // hit, with no new full evaluation.
        let full_before = session.stats().full_evaluations;
        let ev = session.query(knows_q).unwrap();
        assert_eq!(ev.epoch(), 1);
        assert_eq!(ev.embedding_count(), 2, "the new 2-chain appears");
        let info = ev.maintenance.expect("served from a maintained view");
        assert_eq!(info.maintained_epoch, 1);
        assert_eq!(info.passes, 1);
        assert_eq!(
            session.stats().full_evaluations,
            full_before,
            "phase two only"
        );
        assert!(session.stats().view_serves >= 1);

        // Removal maintains too.
        session.remove_triples([("alice", "knows", "bob")]);
        assert_eq!(session.stats().plans_maintained, 2);
        let ev = session.query(knows_q).unwrap();
        assert_eq!(ev.epoch(), 2);
        assert_eq!(ev.embedding_count(), 1, "bob's chain is gone");
    }

    #[test]
    fn non_intersecting_mutation_performs_zero_cache_work() {
        // Regression test for the footprint pass: the footprint is derived
        // once from the net delta, and a batch that intersects no cached
        // plan must take no shard write lock and touch no entry.
        let session = Session::from_config(
            knows_likes_graph(),
            SessionConfig::new().store(StoreKind::Delta),
        )
        .unwrap();
        let knows_q = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        session.query(knows_q).unwrap();
        assert_eq!(session.cached_queries(), 1);

        // `likes` and the brand-new `admires` intersect no cached footprint.
        session.insert_triples([("bob", "likes", "pasta"), ("bob", "admires", "carol")]);
        assert_eq!(
            session.stats().mutation_cache_touches,
            0,
            "zero entries touched"
        );
        assert_eq!(session.stats().cache_invalidations, 0);
        assert_eq!(session.stats().plans_maintained, 0);
        assert_eq!(session.cached_queries(), 1, "the knows plan is intact");

        // A batch that nets out to nothing (set semantics) is free too,
        // even over an intersecting predicate.
        session.insert_triples([("alice", "knows", "bob")]); // already present
        assert_eq!(session.stats().mutation_cache_touches, 0);

        // And the untouched plan keeps serving from its retained view: no
        // new full evaluation even though the epoch advanced past the
        // view's stamp (non-intersecting epochs cannot stale a view).
        let hits = session.stats().cache_hits;
        let full = session.stats().full_evaluations;
        let ev = session.query(knows_q).unwrap();
        assert_eq!(session.stats().cache_hits, hits + 1);
        assert_eq!(
            session.stats().full_evaluations,
            full,
            "served from the view"
        );
        assert_eq!(ev.epoch(), 2, "one real batch plus one no-op batch");
        assert!(ev.maintenance.is_some());
    }

    #[test]
    fn view_serving_skips_the_full_pipeline_on_hits() {
        let session = Session::new(knows_graph());
        let text = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        let first = session.query(text).unwrap();
        assert_eq!(session.stats().full_evaluations, 1);
        assert_eq!(session.stats().view_serves, 0, "the miss ran the pipeline");

        let second = session.query(text).unwrap();
        assert_eq!(
            session.stats().full_evaluations,
            1,
            "no second pipeline run"
        );
        assert_eq!(session.stats().view_serves, 1);
        assert!(first.embeddings().same_answer(second.embeddings()));
        assert!(second.maintenance.is_some(), "view-served answers say so");
        assert_eq!(
            second.answer_graph_size(),
            first.answer_graph_size(),
            "the retained view reports the same |AG|"
        );

        // Non-maintaining engines keep the plain path.
        let baseline =
            Session::from_config(knows_graph(), SessionConfig::new().engine("relational")).unwrap();
        baseline.query(text).unwrap();
        baseline.query(text).unwrap();
        assert_eq!(baseline.stats().view_serves, 0);
        assert_eq!(baseline.stats().full_evaluations, 2);
    }

    #[test]
    fn limited_queries_serve_from_the_retained_prefix() {
        let config = SessionConfig::new()
            .store(StoreKind::Delta)
            .engine_config(EngineConfig::default().with_limit(2));
        let session = Session::from_config(knows_graph(), config).unwrap();
        let text = "SELECT ?x ?y WHERE { ?x :knows ?y . }";

        // The miss runs phase one, primes the top-k prefix (one refill), and
        // already answers from it.
        let first = session.query(text).unwrap();
        assert_eq!(first.embedding_count(), 2);
        let info = first.limited.expect("limited answers carry LimitInfo");
        assert!(info.truncated, "3 rows exist, 2 were served");
        assert!(info.prefix_served);
        assert_eq!(
            session.stats().prefix_refills,
            1,
            "priming counts as a refill"
        );

        // Hits are O(k): no defactorization, the prefix-hit counter moves.
        let second = session.query(text).unwrap();
        assert!(second.limited.unwrap().prefix_served);
        assert_eq!(
            session.stats().prefix_hits,
            2,
            "miss and hit both prefix-served"
        );
        assert_eq!(session.stats().view_serves, 1);

        // The served rows are the canonical first k of the full answer.
        let full = Session::new(knows_graph()).query(text).unwrap();
        let expect = full.embeddings().canonical_prefix(2);
        assert_eq!(
            second.embeddings().rows().collect::<Vec<_>>(),
            expect.rows().collect::<Vec<_>>(),
            "bit-identical to the fresh canonical prefix"
        );

        // A per-call limit beyond the retained k grows the prefix in place
        // (one more refill, copy-on-write) and serves from it — wider pages
        // are O(limit) too, from this call on.
        let wide = session.query_limited(text, 3).unwrap();
        assert_eq!(wide.embedding_count(), 3);
        let info = wide.limited.unwrap();
        assert!(info.prefix_served);
        assert!(!info.truncated, "all three rows fit in the grown prefix");
        assert_eq!(session.stats().prefix_refills, 2, "growing k re-primes");

        // Mutations keep the prefix serving, and the gauge reads the level.
        session.insert_triples([("aaron", "knows", "alice")]);
        assert_eq!(session.stats().plans_maintained, 1);
        let third = session.query(text).unwrap();
        assert!(third.limited.unwrap().prefix_served);
        let fresh = {
            let mut b = GraphBuilder::new();
            b.add("alice", "knows", "bob");
            b.add("bob", "knows", "carol");
            b.add("carol", "knows", "dave");
            b.add("aaron", "knows", "alice");
            Session::new(b.build()).query(text).unwrap()
        };
        let expect = fresh.embeddings().canonical_prefix(2);
        assert_eq!(
            third.embeddings().rows().collect::<Vec<_>>(),
            expect.rows().collect::<Vec<_>>(),
            "maintained prefix matches a from-scratch evaluation"
        );
        let snap = session.metrics_snapshot();
        assert_eq!(
            snap.gauge(names::MAINTAIN_PREFIX_ROWS),
            3,
            "the gauge reads the retained level of the grown prefix"
        );
        assert_eq!(
            QueryExecutor::stats(&session).prefix_hits,
            session.stats().prefix_hits
        );
    }

    #[test]
    fn prime_retains_a_view_without_evaluating() {
        let session =
            Session::from_config(knows_graph(), SessionConfig::new().store(StoreKind::Delta))
                .unwrap();
        let text = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        assert!(session.prime(text).unwrap(), "a view is retained");
        assert_eq!(session.stats().full_evaluations, 1, "phase one ran once");
        assert_eq!(session.stats().view_serves, 0, "nothing was answered");
        assert!(session.prime(text).unwrap(), "idempotent, already retained");
        assert_eq!(session.stats().full_evaluations, 1);

        // The primed view is maintained by mutations and serves directly.
        session.insert_triples([("dave", "knows", "erin")]);
        assert_eq!(session.stats().plans_maintained, 1);
        let ev = session.query(text).unwrap();
        assert_eq!(ev.embedding_count(), 3, "the new 2-chain appears");
        assert_eq!(session.stats().full_evaluations, 1, "served from the view");

        // Non-maintaining engines prime the plan only.
        let baseline =
            Session::from_config(knows_graph(), SessionConfig::new().engine("sortmerge")).unwrap();
        assert!(!baseline.prime(text).unwrap());
        assert_eq!(baseline.stats().cache_misses, 1, "the plan is cached");

        // Unparsable text errors instead of silently doing nothing.
        assert!(session.prime("SELECT WHERE").is_err());
    }

    #[test]
    fn cyclic_views_under_edge_burnback_are_retained_through_wco() {
        // The wireframe engine declines to materialize a cyclic query under
        // edge burnback; the session's capability routing falls back to the
        // wco engine, which retains and maintains the view instead of
        // degrading to evict-and-reevaluate.
        let mut b = GraphBuilder::new();
        b.add("3", "A", "4");
        b.add("3", "B", "2");
        b.add("4", "C", "1");
        b.add("2", "D", "1");
        let session = Session::from_config(
            b.build(),
            SessionConfig::new()
                .engine_config(EngineConfig::default().with_edge_burnback())
                .store(StoreKind::Delta),
        )
        .unwrap();
        let q = "SELECT * WHERE { ?x :A ?e . ?x :B ?z . ?e :C ?y . ?z :D ?y . }";
        assert_eq!(session.query(q).unwrap().embedding_count(), 1);
        let ev = session.query(q).unwrap();
        assert_eq!(
            session.stats().view_serves,
            1,
            "the fallback view serves hits"
        );
        assert_eq!(
            ev.engine, "wco",
            "answers name the engine that built the view"
        );

        // Intersecting mutations maintain the fallback view in place.
        session.insert_triples([("7", "A", "8")]);
        assert_eq!(session.stats().plans_maintained, 1);
        assert_eq!(session.stats().cache_invalidations, 0, "no eviction");
        let ev = session.query(q).unwrap();
        assert_eq!(ev.epoch(), 1);
        assert_eq!(
            ev.embedding_count(),
            1,
            "the dangling A edge closes nothing"
        );
        assert!(ev.maintenance.is_some());
    }

    /// The `Arc` a cached query's slot currently retains.
    fn retained_view(session: &Session, text: &str) -> Arc<dyn MaintainedView> {
        let query = parse_query(text, session.graph().dictionary()).unwrap();
        let key = (session.engine.clone(), plan_cache_key(&query));
        let (_, slot) = session
            .cache
            .find(&key, &query)
            .expect("the plan is cached");
        let guard = slot.read().unwrap();
        match &*guard {
            ViewSlot::Retained(view) => Arc::clone(view),
            _ => panic!("no view retained for {text}"),
        }
    }

    #[test]
    fn limited_hits_never_copy_a_view_that_cannot_hold_a_prefix() {
        // A projecting acyclic view: bounded hits defactorize (the cover,
        // here the empty one) straight off the retained `Arc`.
        let session =
            Session::from_config(knows_graph(), SessionConfig::new().store(StoreKind::Delta))
                .unwrap();
        let projected = "SELECT DISTINCT ?x WHERE { ?x :knows ?y . ?y :knows ?z . }";
        session.query_limited(projected, 16).unwrap();
        let view = retained_view(&session, projected);
        let refills = session.prefix_refills.get();
        for _ in 0..2 {
            let ev = session.query_limited(projected, 16).unwrap();
            let info = ev.limited.expect("limited answers carry LimitInfo");
            assert!(!info.prefix_served);
            assert_eq!(info.full_total, Some(2), "alice and bob start 2-chains");
            assert!(!info.truncated);
        }
        assert!(
            Arc::ptr_eq(&view, &retained_view(&session, projected)),
            "a limited hit must not swap a copy of the view into the slot"
        );
        assert_eq!(session.prefix_refills.get(), refills);
        let snap = session.metrics_snapshot();
        assert_eq!(snap.counter(names::VIEW_SERVES), 2);
        assert_eq!(
            snap.counter(names::PROJECTED_SERVES),
            3,
            "the miss and both hits joined a cover (none of the 2 query edges)"
        );
        assert_eq!(snap.counter(names::MAINTAIN_PREFIX_HITS), 0);

        // The span of such a serve says how little phase two joined.
        let (graph, _) = session.snapshot();
        let query = parse_query(projected, graph.dictionary()).unwrap();
        let mut ev = session.query_limited(projected, 16).unwrap();
        ev.timings.defactorization = std::time::Duration::from_micros(5);
        let span = session.query_span(&query, &ev, ev.timings.defactorization, &graph);
        let child = &span.children[0];
        assert_eq!(child.name, "defactorize");
        assert!(child
            .fields
            .contains(&("cover_patterns".to_owned(), "0".to_owned())));
        assert!(child
            .fields
            .contains(&("patterns".to_owned(), "2".to_owned())));

        // A cyclic query retained through `wco`, whose views hold no prefix.
        let mut b = GraphBuilder::new();
        b.add("3", "A", "4");
        b.add("3", "B", "2");
        b.add("4", "C", "1");
        b.add("2", "D", "1");
        let session = Session::from_config(
            b.build(),
            SessionConfig::new()
                .engine_config(EngineConfig::default().with_edge_burnback())
                .store(StoreKind::Delta),
        )
        .unwrap();
        let cyclic = "SELECT * WHERE { ?x :A ?e . ?x :B ?z . ?e :C ?y . ?z :D ?y . }";
        session.query_limited(cyclic, 16).unwrap();
        let view = retained_view(&session, cyclic);
        for _ in 0..2 {
            let ev = session.query_limited(cyclic, 16).unwrap();
            assert_eq!(ev.engine, "wco");
            assert!(!ev.limited.unwrap().prefix_served);
        }
        assert!(Arc::ptr_eq(&view, &retained_view(&session, cyclic)));
        assert_eq!(session.prefix_refills.get(), 0);
        assert_eq!(
            session.metrics_snapshot().counter(names::PROJECTED_SERVES),
            0,
            "wco joins every query edge"
        );
    }

    #[test]
    fn compactions_are_counted() {
        let graph = knows_graph()
            .with_store(StoreKind::Delta)
            .with_compaction_threshold(0.0);
        let session = Session::new(graph);
        assert_eq!(session.stats().compactions, 0);
        session.insert_triples([("x", "knows", "y")]);
        session.remove_triples([("x", "knows", "y")]);
        assert_eq!(
            session.stats().compactions,
            2,
            "threshold 0.0 compacts per batch"
        );
        let graph = session.graph();
        assert_eq!(graph.delta_stats(), Some((0, 0.0)));
    }

    #[test]
    fn cache_capacity_bounds_and_evicts_lru() {
        let session =
            Session::from_config(knows_graph(), SessionConfig::new().cache_capacity(2)).unwrap();
        assert_eq!(session.cache_capacity(), 2);
        // Three distinct canonical queries.
        let q1 = "SELECT ?x WHERE { ?x :knows ?y . }";
        let q2 = "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }";
        let q3 = "SELECT ?x WHERE { ?x :knows alice . }";
        session.query(q1).unwrap();
        session.query(q2).unwrap();
        assert_eq!(session.stats().cache_evictions, 0);
        session.query(q1).unwrap(); // refresh q1: q2 becomes the LRU
        session.query(q3).unwrap();
        assert_eq!(session.cached_queries(), 2, "capacity holds");
        assert_eq!(session.stats().cache_evictions, 1);

        // q1 survived (it was refreshed); q2 was evicted.
        let hits = session.stats().cache_hits;
        session.query(q1).unwrap();
        assert_eq!(session.stats().cache_hits, hits + 1, "q1 still cached");
        let misses = session.stats().cache_misses;
        session.query(q2).unwrap();
        assert_eq!(
            session.stats().cache_misses,
            misses + 1,
            "q2 was the LRU victim"
        );

        // Unbounded caches never evict.
        let unbounded =
            Session::from_config(knows_graph(), SessionConfig::new().cache_capacity(0)).unwrap();
        for q in [q1, q2, q3] {
            unbounded.query(q).unwrap();
        }
        assert_eq!(unbounded.stats().cache_evictions, 0);
        assert_eq!(unbounded.cached_queries(), 3);
    }

    #[test]
    fn concurrent_readers_survive_mutations() {
        let graph = knows_graph().with_store(StoreKind::Delta);
        let session = Arc::new(Session::new(graph));
        let text = "SELECT * WHERE { ?x :knows ?y . }";
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let ev = session.query(text).unwrap();
                        // 3 base edges, plus up to 8 inserted ones.
                        assert!((3..=11).contains(&ev.embedding_count()));
                    }
                });
            }
            let session = Arc::clone(&session);
            scope.spawn(move || {
                for i in 0..8 {
                    let node = format!("extra{i}");
                    session.insert_triples([(node.as_str(), "knows", "alice")]);
                }
            });
        });
        assert_eq!(session.epoch(), 8);
        let ev = session.query(text).unwrap();
        assert_eq!(ev.embedding_count(), 11);
        assert_eq!(ev.epoch(), 8);
    }

    #[test]
    fn config_sets_the_compaction_threshold() {
        let session = Session::from_config(
            knows_graph(),
            SessionConfig::new()
                .store(StoreKind::Delta)
                .compaction_threshold(0.0),
        )
        .unwrap();
        session.insert_triples([("x", "knows", "y")]);
        assert_eq!(
            session.stats().compactions,
            1,
            "threshold 0.0 compacts per batch"
        );
    }

    #[test]
    fn evaluations_carry_the_epoch_vector() {
        let session = Session::new(knows_graph());
        let text = "SELECT * WHERE { ?x :knows ?y . }";
        assert_eq!(session.query(text).unwrap().epochs, vec![0]);
        session.insert_triples([("dave", "knows", "erin")]);
        // All three serving paths stamp `[epoch]`: view serve, fresh
        // materialization, and the plain engine path.
        assert_eq!(session.query(text).unwrap().epochs, vec![1]);
        assert_eq!(session.query(text).unwrap().epochs, vec![1]);
        let baseline =
            Session::from_config(knows_graph(), SessionConfig::new().engine("relational")).unwrap();
        assert_eq!(baseline.query(text).unwrap().epochs, vec![0]);
    }

    #[test]
    fn sessions_serve_through_dyn_query_executor() {
        let executor: Arc<dyn QueryExecutor> = Arc::new(Session::new(knows_graph()));
        assert_eq!(executor.engine_name(), "wireframe");
        assert_eq!(executor.shard_count(), 1);
        let ev = executor.query("SELECT * WHERE { ?x :knows ?y . }").unwrap();
        assert_eq!(ev.embedding_count(), 3);
        executor.apply_mutation(&Mutation::new().insert("dave", "knows", "erin"));
        assert_eq!(executor.epoch(), 1);
        assert_eq!(executor.epoch_vector(), vec![1]);
        let stats = executor.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.full_evaluations, 1);
    }

    #[test]
    fn session_config_configures_everything_the_builders_did() {
        // `SessionConfig` is the one configuration surface; pin that every
        // knob the former `with_*` builders covered still reaches the
        // session through it.
        let session = Session::from_config(
            knows_likes_graph(),
            SessionConfig::new()
                .engine_config(EngineConfig::default().with_threads(2))
                .store(StoreKind::Delta)
                .maintenance(false)
                .cache_capacity(7)
                .engine("sortmerge"),
        )
        .unwrap();
        assert_eq!(session.store_kind(), StoreKind::Delta);
        assert!(!session.maintenance_enabled());
        assert_eq!(session.cache_capacity(), 7);
        assert_eq!(session.config().threads, 2);
        assert_eq!(session.engine_name(), "sortmerge");
        assert_eq!(
            session
                .query("SELECT * WHERE { ?x :likes ?y . }")
                .unwrap()
                .embedding_count(),
            1
        );
    }
}
