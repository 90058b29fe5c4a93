//! Incremental answer-graph maintenance: the retained [`MaterializedQuery`].
//!
//! A [`MaterializedQuery`] is the answer graph promoted from a per-call
//! temporary to a first-class, *versioned* artifact: the phase-one plan, the
//! generated (node-burnback fixpoint) answer graph, and a provenance index
//! mapping each data predicate to the query patterns it can bind. Where the
//! eviction-based serving path reacts to a data mutation by throwing the
//! whole thing away and re-running generate → burnback from scratch,
//! [`MaterializedQuery::maintain`] folds the mutation's net
//! [`EdgeDelta`](wireframe_graph::EdgeDelta) into the retained graph
//! directly:
//!
//! * a **tombstoned** data edge is removed from every pattern it was bound
//!   to, and any endpoint left without support in that pattern seeds the
//!   ordinary node-burnback cascade ([`crate::generate`]'s `burn_nodes`);
//! * an **inserted** data edge is bound to every pattern whose predicate and
//!   constant ends it matches; endpoints not currently viable are revived
//!   *optimistically*, pulling their incident data edges for every pattern
//!   they participate in (a closure over the region the delta can reach),
//!   after which one burnback pass from the revived frontier removes
//!   whatever optimism was unwarranted.
//!
//! Both directions converge on the same state a from-scratch evaluation
//! would produce, because node burnback computes the **greatest fixpoint**
//! of the pairwise-support constraints — an order-independent object (the
//! engine's `reverse_order_gives_same_answer_graph` test pins this), so
//! "old fixpoint + local repair" and "fresh fixpoint" coincide. The cost is
//! `O(|delta| + |affected region|)`: a mutation that touches none of the
//! query's predicates costs nothing, and one that flips a handful of edges
//! re-examines only the frontier those edges reach — not the graph.
//!
//! Embeddings are deliberately **not** maintained: defactorization stays
//! lazy ([`MaterializedQuery::defactorize`]), recomputed from the maintained
//! answer graph on demand. Keeping the small factorized artifact fresh and
//! paying the embedding expansion only when asked is exactly the
//! factorization-matters bet the paper makes.
//!
//! The struct implements the workspace-wide
//! [`MaintainedView`](wireframe_api::MaintainedView) contract, which is how
//! the `Session` facade retains and maintains views without depending on
//! this crate's internals. Views are only produced for configurations whose
//! answer graph *is* the node-burnback fixpoint — edge burnback prunes
//! cyclic answer graphs below it, so those evaluations report
//! [`MaterializedQuery::is_maintainable`]` == false` and serving layers fall
//! back to eviction.

use std::collections::VecDeque;
use std::time::Instant;

use wireframe_api::{
    Evaluation, Factorized, LimitInfo, MaintainedView, MaintenanceInfo, MaintenanceStats, Timings,
    WireframeError,
};
use wireframe_graph::{EdgeDelta, Graph, NodeId, PredId};
use wireframe_query::{ConjunctiveQuery, EmbeddingSet, Term, TriplePattern, Var};

use crate::answer_graph::AnswerGraph;
use crate::config::EvalOptions;
use crate::defactorize::{self, DefactorizationStats, SeedEnumerator};
use crate::error::EngineError;
use crate::generate::{burn_nodes, GenerationStats};
use crate::planner::Plan;
use crate::triangulate::EdgeBurnbackStats;

/// Below this much AG churn (edges added + removed in one pass) incremental
/// prefix maintenance always runs; above `max(this, |AG|/4)` the pass falls
/// back to one full re-enumeration instead — re-seeding hundreds of join
/// probes would cost more than the defactorization it avoids.
const PREFIX_FALLBACK_MIN_CHURN: usize = 64;

/// How one end of a pattern reads out of a prefix row (projection-order
/// columns): a pinned constant, or the column its variable projects to.
#[derive(Debug, Clone, Copy)]
enum PrefixEnd {
    Const(NodeId),
    Col(usize),
}

impl PrefixEnd {
    #[inline]
    fn resolve(self, row: &[NodeId]) -> NodeId {
        match self {
            PrefixEnd::Const(c) => c,
            PrefixEnd::Col(i) => row[i],
        }
    }
}

/// What [`MaterializedQuery::merge_prefix_candidates`] decided.
enum PrefixMerge {
    /// Candidates merged in; the prefix is current.
    Merged,
    /// Too many candidate rows for an incremental merge to be a win.
    Overflow,
}

/// The retained defactorized **top-k prefix** of a maintained view: the
/// first `k` embeddings under the canonical row order (lexicographic over
/// the projection's columns — see `EmbeddingSet::canonical_prefix`), kept
/// *next to* the factorized answer graph so bounded reads (`LIMIT k`) are
/// served in `O(k)` without defactorizing.
///
/// One row more than it serves is retained — the canonical first `k + 1` —
/// so whether the answer goes on past `k` is read off the row count instead
/// of remembered: `k + 1` rows held means more than `k` exist, fewer means
/// the prefix *is* the complete answer. Maintenance keeps the prefix aligned
/// with the answer graph under the same [`EdgeDelta`]:
///
/// * **removals** only delete prefix rows whose pattern bindings lost an AG
///   edge (revalidation is exact: a tuple is an answer iff every pattern's
///   binding is an answer edge). If a prefix that held `k + 1` rows drops to
///   `k` or fewer, rows that were beyond the horizon may now belong — one
///   re-enumeration *refills* it;
/// * **insertions** only add rows that pass through an inserted AG edge, so
///   candidates are enumerated from just those seeds
///   ([`SeedEnumerator`]) and merge-inserted into the sorted prefix;
/// * when a pass's churn exceeds a threshold, maintenance *falls back* to
///   one full re-enumeration (counted — the serving layer's
///   `maintain.prefix_fallbacks`).
///
/// Prefixes exist only for queries whose projection covers every variable
/// ([`prefix_capable`]: then prefix rows are bijective with embeddings and
/// revalidation can resolve every pattern end from a row). Projecting
/// queries fall back to defactorize-then-truncate serving.
#[derive(Debug, Clone)]
struct TopKPrefix {
    /// Serving capacity: limits up to `k` are answered from the prefix.
    k: usize,
    /// Projection arity (columns per row); > 0 by construction.
    arity: usize,
    /// The projection schema, in projection order (the served schema).
    schema: Vec<Var>,
    /// Per-pattern `(subject, object)` readout from a prefix row.
    ends: Vec<(PrefixEnd, PrefixEnd)>,
    /// `row_count ≤ k + 1` rows × `arity` columns, canonically sorted, flat.
    rows: Vec<NodeId>,
    row_count: usize,
    /// Whether the prefix has been enumerated since construction (or since
    /// an enumeration error marked it cold). A cold prefix serves nothing.
    filled: bool,
}

/// Whether a view of `query` can retain a top-k prefix at all: it has
/// variables and its projection drops none of them. The one predicate behind
/// both [`TopKPrefix::new`] and what views tell their serving layer
/// ([`MaintainedView::prefix_capable`]), so the two cannot drift.
fn prefix_capable(query: &ConjunctiveQuery) -> bool {
    query.num_vars() > 0 && defactorize::selects_every_variable(query)
}

impl TopKPrefix {
    /// A cold prefix for `query` with capacity `k`; `None` when `k == 0` or
    /// the query shape does not support prefix maintenance
    /// ([`prefix_capable`]).
    fn new(query: &ConjunctiveQuery, k: usize) -> Option<TopKPrefix> {
        if k == 0 || !prefix_capable(query) {
            return None;
        }
        let schema: Vec<Var> = query.projection().to_vec();
        let col = |term: Term| match term {
            Term::Const(c) => PrefixEnd::Const(c),
            Term::Var(v) => PrefixEnd::Col(
                schema
                    .iter()
                    .position(|&s| s == v)
                    .expect("projection covers every variable"),
            ),
        };
        let ends = query
            .patterns()
            .iter()
            .map(|pat| (col(pat.subject), col(pat.object)))
            .collect();
        Some(TopKPrefix {
            k,
            arity: schema.len(),
            schema,
            ends,
            rows: Vec::new(),
            row_count: 0,
            filled: false,
        })
    }

    /// Drops every row whose pattern bindings are no longer all answer
    /// edges. Exact: a tuple is an embedding iff each pattern's `(s, o)`
    /// readout is in that pattern's answer-edge set.
    fn revalidate(&mut self, ag: &AnswerGraph) {
        let arity = self.arity;
        let mut kept_rows: Vec<NodeId> = Vec::with_capacity(self.rows.len());
        let mut kept = 0usize;
        'rows: for i in 0..self.row_count {
            let row = &self.rows[i * arity..(i + 1) * arity];
            for (q, &(se, oe)) in self.ends.iter().enumerate() {
                if !ag.pattern(q).contains(se.resolve(row), oe.resolve(row)) {
                    continue 'rows;
                }
            }
            kept_rows.extend_from_slice(row);
            kept += 1;
        }
        self.rows = kept_rows;
        self.row_count = kept;
    }

    /// Merge-inserts canonically sorted, deduplicated `candidates` (flat,
    /// same arity) into the sorted prefix, deduplicating against existing
    /// rows (a remove-then-revive batch re-discovers surviving rows), then
    /// truncates to `k + 1`.
    fn merge_rows(&mut self, candidates: &[NodeId]) {
        let arity = self.arity;
        let cand_count = candidates.len() / arity;
        let mut merged: Vec<NodeId> = Vec::with_capacity(self.rows.len() + candidates.len());
        let mut merged_count = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while merged_count <= self.k && (i < self.row_count || j < cand_count) {
            let take_existing = if i >= self.row_count {
                false
            } else if j >= cand_count {
                true
            } else {
                let a = &self.rows[i * arity..(i + 1) * arity];
                let b = &candidates[j * arity..(j + 1) * arity];
                match a.cmp(b) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        j += 1; // duplicate candidate: keep the existing row
                        true
                    }
                }
            };
            if take_existing {
                merged.extend_from_slice(&self.rows[i * arity..(i + 1) * arity]);
                i += 1;
            } else {
                merged.extend_from_slice(&candidates[j * arity..(j + 1) * arity]);
                j += 1;
            }
            merged_count += 1;
        }
        self.rows = merged;
        self.row_count = merged_count;
    }
}

/// The per-pattern-edge provenance index: which query patterns a data edge
/// of a given predicate can bind. Built once per query; `O(log P)` lookup.
#[derive(Debug, Clone)]
pub struct ProvenanceIndex {
    /// `(predicate, pattern indexes)` sorted by predicate.
    by_predicate: Vec<(PredId, Vec<usize>)>,
}

impl ProvenanceIndex {
    /// Builds the index for `query`.
    pub fn new(query: &ConjunctiveQuery) -> Self {
        let mut by_predicate: Vec<(PredId, Vec<usize>)> = Vec::new();
        for (idx, pat) in query.patterns().iter().enumerate() {
            match by_predicate.binary_search_by_key(&pat.predicate, |&(p, _)| p) {
                Ok(at) => by_predicate[at].1.push(idx),
                Err(at) => by_predicate.insert(at, (pat.predicate, vec![idx])),
            }
        }
        ProvenanceIndex { by_predicate }
    }

    /// The pattern indexes a data edge with predicate `p` can bind
    /// (ascending; empty when the query never mentions `p`).
    pub fn patterns_for(&self, p: PredId) -> &[usize] {
        match self.by_predicate.binary_search_by_key(&p, |&(q, _)| q) {
            Ok(at) => &self.by_predicate[at].1,
            Err(_) => &[],
        }
    }

    /// The distinct predicates the query touches, ascending.
    pub fn predicates(&self) -> impl Iterator<Item = PredId> + '_ {
        self.by_predicate.iter().map(|&(p, _)| p)
    }
}

/// Whether `pattern`'s constant ends (and self-loop shape) admit the data
/// edge `(s, o)`. Shared with the sharded merge path ([`crate::sharded`]),
/// whose per-shard candidate scans must admit exactly what maintenance
/// re-binding does.
pub(crate) fn ends_match(pattern: &TriplePattern, s: NodeId, o: NodeId) -> bool {
    let subject_ok = match pattern.subject {
        Term::Const(c) => c == s,
        Term::Var(_) => true,
    };
    let object_ok = match pattern.object {
        Term::Const(c) => c == o,
        Term::Var(_) => true,
    };
    let self_loop = matches!(
        (pattern.subject, pattern.object),
        (Term::Var(a), Term::Var(b)) if a == b
    );
    subject_ok && object_ok && (!self_loop || s == o)
}

/// A retained, versioned, incrementally-maintainable evaluation of one
/// query: the factorized half of a [`crate::QueryOutput`], promoted to a
/// first-class artifact (see the module docs).
#[derive(Debug, Clone)]
pub struct MaterializedQuery {
    query: ConjunctiveQuery,
    plan: Plan,
    cyclic: bool,
    maintainable: bool,
    answer_graph: AnswerGraph,
    provenance: ProvenanceIndex,
    generation: GenerationStats,
    edge_burnback: EdgeBurnbackStats,
    options: EvalOptions,
    epoch: u64,
    info: MaintenanceInfo,
    prefix: Option<TopKPrefix>,
}

impl MaterializedQuery {
    /// Assembles a view from a finished phase-one run. Called by the engine
    /// (`WireframeEngine::execute_with_plan` / `materialize`).
    pub(crate) fn from_phase_one(
        query: ConjunctiveQuery,
        plan: Plan,
        cyclic: bool,
        answer_graph: AnswerGraph,
        generation: GenerationStats,
        edge_burnback: EdgeBurnbackStats,
        options: EvalOptions,
    ) -> Self {
        // Edge burnback prunes cyclic answer graphs below the node-burnback
        // fixpoint that incremental maintenance reproduces; such views must
        // not be maintained (serving layers fall back to eviction).
        let maintainable = !(options.edge_burnback && cyclic);
        let provenance = ProvenanceIndex::new(&query);
        // A configured limit doubles as the prefix retention capacity; the
        // prefix starts cold (no enumeration paid until someone asks for
        // bounded rows, or the first maintenance pass warms it).
        let prefix = TopKPrefix::new(&query, options.limit);
        MaterializedQuery {
            query,
            plan,
            cyclic,
            maintainable,
            answer_graph,
            provenance,
            generation,
            edge_burnback,
            options,
            epoch: 0,
            info: MaintenanceInfo::default(),
            prefix,
        }
    }

    /// The query this view answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The phase-one plan the view was generated with.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The maintained answer graph.
    pub fn answer_graph(&self) -> &AnswerGraph {
        &self.answer_graph
    }

    /// Whether the query graph is cyclic.
    pub fn cyclic(&self) -> bool {
        self.cyclic
    }

    /// Whether this view may be incrementally maintained. `false` when edge
    /// burnback pruned the answer graph below the node-burnback fixpoint
    /// (cyclic query under [`EvalOptions::edge_burnback`]); such views must
    /// be discarded on mutation instead.
    pub fn is_maintainable(&self) -> bool {
        self.maintainable
    }

    /// The provenance index mapping predicates to bindable patterns.
    pub fn provenance(&self) -> &ProvenanceIndex {
        &self.provenance
    }

    /// Phase-one statistics of the original materialization.
    pub fn generation(&self) -> &GenerationStats {
        &self.generation
    }

    /// Edge-burnback statistics of the original materialization (all zero
    /// when it did not run).
    pub fn edge_burnback(&self) -> &EdgeBurnbackStats {
        &self.edge_burnback
    }

    /// The mutation epoch this view is maintained to (`0` at
    /// materialization; serving layers stamp their epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps the epoch of the graph version the view reflects (used by the
    /// serving layer at materialization time; `maintain` stamps later ones).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.info.maintained_epoch = epoch;
    }

    /// Cumulative maintenance history.
    pub fn maintenance_info(&self) -> MaintenanceInfo {
        self.info
    }

    /// Folds one mutation batch's net `delta` into the retained answer
    /// graph and stamps `epoch`. `graph` must be the **post-mutation** graph
    /// version (maintenance pulls incident edges from it when revived nodes
    /// re-enter the answer graph). Work is `O(|delta| + |affected region|)`;
    /// the result is identical to re-running phase one from scratch on
    /// `graph` (the equivalence property tests pin this on all storage
    /// backends).
    pub fn maintain(&mut self, graph: &Graph, delta: &EdgeDelta, epoch: u64) -> MaintenanceStats {
        debug_assert!(self.maintainable, "unmaintainable views must be evicted");
        let start = Instant::now();
        let mut stats = MaintenanceStats::default();

        // While a warm top-k prefix is retained, record every answer-graph
        // edge this pass inserts: an inserted edge is the only way a new
        // embedding can appear, so these are the seeds the prefix merge
        // enumerates through afterwards.
        let track_added = self.prefix.as_ref().is_some_and(|p| p.filled);
        let mut added: Vec<(usize, NodeId, NodeId)> = Vec::new();

        // The provenance index drives both phases: only the delta's slices
        // for predicates the query actually mentions are ever visited
        // (`EdgeDelta::removed_for` / `inserted_for` are binary-searched
        // ranges of the predicate-major batch).
        let touched: Vec<PredId> = self.provenance.predicates().collect();

        // Phase A — tombstones: drop removed data edges from every pattern
        // they were bound to; endpoints left without support in a pattern
        // become burnback suspects.
        let mut suspects: Vec<(Var, NodeId)> = Vec::new();
        for &p in &touched {
            for t in delta.removed_for(p) {
                for &q in self.provenance.patterns_for(p) {
                    let pat = self.query.patterns()[q];
                    if !ends_match(&pat, t.subject, t.object) {
                        continue;
                    }
                    if self.answer_graph.pattern_mut(q).remove(t.subject, t.object) {
                        stats.candidate_removals += 1;
                        stats.edges_removed += 1;
                        if let Some(v) = pat.subject.as_var() {
                            if !self.answer_graph.pattern(q).has_subject(t.subject) {
                                suspects.push((v, t.subject));
                            }
                        }
                        if let Some(w) = pat.object.as_var() {
                            if !self.answer_graph.pattern(q).has_object(t.object) {
                                suspects.push((w, t.object));
                            }
                        }
                    }
                }
            }
        }

        // Phase B — insertions: bind each inserted data edge to the patterns
        // it matches; endpoints not currently viable are revived
        // optimistically and queued for closure.
        let mut revived: Vec<(Var, NodeId)> = Vec::new();
        let mut queue: VecDeque<(Var, NodeId)> = VecDeque::new();
        let revive = |ag: &mut AnswerGraph,
                      v: Var,
                      n: NodeId,
                      revived: &mut Vec<(Var, NodeId)>,
                      queue: &mut VecDeque<(Var, NodeId)>| {
            if ag.node_set_mut(v).insert(n) {
                ag.mark_bound(v);
                revived.push((v, n));
                queue.push_back((v, n));
            }
        };
        for &p in &touched {
            for t in delta.inserted_for(p) {
                for &q in self.provenance.patterns_for(p) {
                    let pat = self.query.patterns()[q];
                    if !ends_match(&pat, t.subject, t.object) {
                        continue;
                    }
                    if self.answer_graph.pattern_mut(q).insert(t.subject, t.object) {
                        stats.candidate_inserts += 1;
                        stats.edges_added += 1;
                        if track_added {
                            added.push((q, t.subject, t.object));
                        }
                        for (term, n) in [(pat.subject, t.subject), (pat.object, t.object)] {
                            if let Some(v) = term.as_var() {
                                if !self.answer_graph.node_set(v).contains(&n) {
                                    revive(&mut self.answer_graph, v, n, &mut revived, &mut queue);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Closure: a revived node must carry *all* of its incident data
        // edges in every pattern it participates in (the fixpoint is
        // maximal), which can revive further nodes in turn. The burnback
        // pass below removes whatever optimism does not survive.
        while let Some((v, n)) = queue.pop_front() {
            for (q, pat) in self.query.patterns().iter().enumerate() {
                let p = pat.predicate;
                let self_loop = matches!(
                    (pat.subject, pat.object),
                    (Term::Var(a), Term::Var(b)) if a == b
                );
                if pat.subject.as_var() == Some(v) {
                    if self_loop {
                        if graph.has_triple(n, p, n)
                            && self.answer_graph.pattern_mut(q).insert(n, n)
                        {
                            stats.edges_added += 1;
                            if track_added {
                                added.push((q, n, n));
                            }
                        }
                    } else {
                        let objects = graph.objects_of(p, n).to_vec();
                        for o in objects {
                            match pat.object {
                                Term::Const(c) => {
                                    if o == c && self.answer_graph.pattern_mut(q).insert(n, o) {
                                        stats.edges_added += 1;
                                        if track_added {
                                            added.push((q, n, o));
                                        }
                                    }
                                }
                                Term::Var(w) => {
                                    if !self.answer_graph.node_set(w).contains(&o) {
                                        revive(
                                            &mut self.answer_graph,
                                            w,
                                            o,
                                            &mut revived,
                                            &mut queue,
                                        );
                                    }
                                    if self.answer_graph.pattern_mut(q).insert(n, o) {
                                        stats.edges_added += 1;
                                        if track_added {
                                            added.push((q, n, o));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                if pat.object.as_var() == Some(v) && !self_loop {
                    let subjects = graph.subjects_of(p, n).to_vec();
                    for s in subjects {
                        match pat.subject {
                            Term::Const(c) => {
                                if s == c && self.answer_graph.pattern_mut(q).insert(s, n) {
                                    stats.edges_added += 1;
                                    if track_added {
                                        added.push((q, s, n));
                                    }
                                }
                            }
                            Term::Var(w) => {
                                if !self.answer_graph.node_set(w).contains(&s) {
                                    revive(&mut self.answer_graph, w, s, &mut revived, &mut queue);
                                }
                                if self.answer_graph.pattern_mut(q).insert(s, n) {
                                    stats.edges_added += 1;
                                    if track_added {
                                        added.push((q, s, n));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        stats.nodes_added += revived.len();

        // Phase C — local burnback from the frontier: every suspect and
        // every revived node is re-checked for support in *all* its incident
        // patterns (an insertion may have restored support a tombstone took
        // away, so the check runs only after both phases). Failures seed the
        // ordinary cascading node burnback.
        suspects.sort_unstable_by_key(|&(v, n)| (v.index(), n));
        suspects.dedup();
        stats.frontier_nodes = suspects.len() + revived.len();
        let mut to_burn: Vec<(Var, NodeId)> = Vec::new();
        for &(v, n) in suspects.iter().chain(revived.iter()) {
            if !self.answer_graph.node_set(v).contains(&n) {
                continue;
            }
            if !self.has_full_support(v, n) {
                to_burn.push((v, n));
            }
        }
        let mut edges_burned = 0usize;
        let mut nodes_burned = 0usize;
        burn_nodes(
            &self.query,
            &mut self.answer_graph,
            to_burn,
            &mut edges_burned,
            &mut nodes_burned,
        );
        stats.edges_removed += edges_burned;
        stats.nodes_removed += nodes_burned;

        // Phase D — prefix upkeep: keep the retained top-k prefix aligned
        // with the answer graph the pass just maintained.
        self.update_prefix(&added, &mut stats);

        self.epoch = epoch;
        self.info.maintained_epoch = epoch;
        self.info.passes += 1;
        self.info.frontier_nodes += stats.frontier_nodes as u64;
        self.info.maintenance_us += start.elapsed().as_micros() as u64;
        stats
    }

    /// Phase D of [`MaterializedQuery::maintain`]: brings the retained
    /// top-k prefix (when one exists) up to date with the just-maintained
    /// answer graph. `added` is the pass's surviving-candidate seed list
    /// (only collected while the prefix is warm). No-op passes leave a cold
    /// prefix cold and a warm prefix untouched.
    fn update_prefix(&mut self, added: &[(usize, NodeId, NodeId)], stats: &mut MaintenanceStats) {
        let Some(mut prefix) = self.prefix.take() else {
            return;
        };
        let touched = stats.candidate_inserts
            + stats.candidate_removals
            + stats.edges_added
            + stats.edges_removed
            + stats.nodes_added
            + stats.nodes_removed
            > 0;
        if touched {
            let churn = stats.edges_added + stats.edges_removed;
            let fallback_at = (self.answer_graph.total_edges() / 4).max(PREFIX_FALLBACK_MIN_CHURN);
            if !prefix.filled {
                // A cold prefix warms on its first effective pass, so later
                // passes (and the next bounded read) are O(k).
                stats.prefix_refills += 1;
                self.recompute_prefix(&mut prefix);
            } else if churn > fallback_at {
                stats.prefix_fallbacks += 1;
                self.recompute_prefix(&mut prefix);
            } else {
                let truncated = prefix.row_count > prefix.k;
                prefix.revalidate(&self.answer_graph);
                // Underflow must be checked BEFORE merging candidates: a
                // truncated prefix that lost rows may owe rows from beyond
                // its old horizon, which no inserted-edge seed enumerates.
                if truncated && prefix.row_count <= prefix.k {
                    stats.prefix_refills += 1;
                    self.recompute_prefix(&mut prefix);
                } else if !added.is_empty() {
                    match self.merge_prefix_candidates(&mut prefix, added) {
                        Ok(PrefixMerge::Merged) => {}
                        Ok(PrefixMerge::Overflow) => {
                            stats.prefix_fallbacks += 1;
                            self.recompute_prefix(&mut prefix);
                        }
                        Err(_) => {
                            // Enumeration failed; serve cold (full path)
                            // until a later pass or prime re-warms it.
                            prefix.filled = false;
                            prefix.rows.clear();
                            prefix.row_count = 0;
                        }
                    }
                }
            }
        }
        self.prefix = Some(prefix);
        stats.prefix_rows = self.prefix_rows();
    }

    /// Re-enumerates the prefix from a full defactorization of the current
    /// answer graph (the refill / fallback path). On error the prefix goes
    /// cold instead of serving stale rows.
    fn recompute_prefix(&self, prefix: &mut TopKPrefix) {
        match self.defactorize() {
            Ok((full, _)) => {
                let cut = full.canonical_prefix(prefix.k.saturating_add(1));
                prefix.rows = cut.flat_data().to_vec();
                prefix.row_count = cut.len();
                prefix.filled = true;
            }
            Err(_) => {
                prefix.rows.clear();
                prefix.row_count = 0;
                prefix.filled = false;
            }
        }
    }

    /// Enumerates the embeddings reachable through this pass's inserted
    /// answer edges (only rows using an inserted edge can be new) and
    /// merge-inserts them into the sorted prefix. Returns
    /// [`PrefixMerge::Overflow`] when the candidate volume makes one full
    /// re-enumeration the cheaper move.
    fn merge_prefix_candidates(
        &self,
        prefix: &mut TopKPrefix,
        added: &[(usize, NodeId, NodeId)],
    ) -> Result<PrefixMerge, EngineError> {
        // Only seeds that survived burnback can carry answer rows.
        let mut live: Vec<(usize, NodeId, NodeId)> = added
            .iter()
            .copied()
            .filter(|&(q, s, o)| self.answer_graph.pattern(q).contains(s, o))
            .collect();
        live.sort_unstable();
        live.dedup();
        if live.is_empty() {
            return Ok(PrefixMerge::Merged);
        }
        let cap = (4 * prefix.k).max(PREFIX_FALLBACK_MIN_CHURN);
        let seeds = SeedEnumerator::new(&self.query, &self.answer_graph);
        let mut candidates: Vec<NodeId> = Vec::new();
        let mut candidate_rows = 0usize;
        for &(q, s, o) in &live {
            let through = seeds.rows_through(&self.query, q, s, o)?;
            let through = through.into_projected_set(&self.query).ok_or_else(|| {
                EngineError::Internal(
                    "projection referenced a variable missing from the result".into(),
                )
            })?;
            debug_assert_eq!(through.schema(), &prefix.schema[..]);
            candidate_rows += through.len();
            candidates.extend_from_slice(through.flat_data());
            if candidate_rows > cap {
                return Ok(PrefixMerge::Overflow);
            }
        }
        // Canonically sort + dedup (one row can thread several seeds).
        let sorted =
            EmbeddingSet::from_flat_rows(prefix.schema.clone(), candidates, candidate_rows)
                .canonical_prefix(candidate_rows);
        let mut flat: Vec<NodeId> = Vec::with_capacity(sorted.flat_data().len());
        let mut last: Option<&[NodeId]> = None;
        for row in sorted.rows() {
            if last == Some(row) {
                continue;
            }
            flat.extend_from_slice(row);
            last = Some(row);
        }
        prefix.merge_rows(&flat);
        Ok(PrefixMerge::Merged)
    }

    /// Ensures a warm top-k prefix with capacity at least `limit`, paying
    /// one enumeration when the prefix is cold or too small. Returns
    /// whether a warm prefix is retained afterwards (`false` when the query
    /// shape does not support prefixes). `limit == 0` never warms.
    pub fn prime_prefix(&mut self, limit: usize) -> bool {
        if limit == 0 {
            return self.prefix.as_ref().is_some_and(|p| p.filled);
        }
        let mut prefix = match self.prefix.take() {
            Some(p) => p,
            None => match TopKPrefix::new(&self.query, limit) {
                Some(p) => p,
                None => return false,
            },
        };
        if prefix.k < limit {
            prefix.k = limit;
            prefix.filled = false;
        }
        if !prefix.filled {
            self.recompute_prefix(&mut prefix);
        }
        let warm = prefix.filled;
        self.prefix = Some(prefix);
        warm
    }

    /// Rows the (warm) top-k prefix can serve: at most `k` of the `k + 1`
    /// it retains.
    pub fn prefix_rows(&self) -> usize {
        self.prefix
            .as_ref()
            .filter(|p| p.filled)
            .map_or(0, |p| p.row_count.min(p.k))
    }

    /// Whether a bounded evaluation would answer this `limit` straight
    /// from the warm prefix. `false` when the prefix is cold or
    /// `limit > k`.
    pub fn can_prefix_serve(&self, limit: usize) -> bool {
        self.prefix
            .as_ref()
            .is_some_and(|p| p.filled && limit > 0 && limit <= p.k)
    }

    /// Serves the first `limit` rows straight out of the warm prefix in
    /// `O(limit)` — no defactorization. `None` when the prefix cannot
    /// answer this limit (see [`MaterializedQuery::can_prefix_serve`]).
    fn serve_from_prefix(&self, limit: usize) -> Option<Evaluation> {
        if !self.can_prefix_serve(limit) {
            return None;
        }
        let p = self.prefix.as_ref()?;
        let t = Instant::now();
        let keep = limit.min(p.row_count);
        let embeddings =
            EmbeddingSet::from_flat_rows(p.schema.clone(), p.rows[..keep * p.arity].to_vec(), keep);
        let factorized = self.factorized();
        let metrics = factorized.metrics(0, 0);
        let truncated = p.row_count > limit;
        let explain = self.options.explain.then(|| {
            format!(
                "maintained view (epoch {}): served {keep} row(s) from the retained top-{} prefix in O(k) — no defactorization\n",
                self.info.maintained_epoch, p.k
            )
        });
        Some(Evaluation {
            engine: "wireframe".to_owned(),
            epochs: Vec::new(),
            embeddings,
            timings: Timings {
                defactorization: t.elapsed(),
                ..Timings::default()
            },
            cyclic: self.cyclic,
            factorized: Some(factorized),
            metrics,
            explain,
            maintenance: Some(self.info),
            limited: Some(LimitInfo {
                limit,
                truncated,
                prefix_served: true,
                full_total: (p.row_count <= p.k).then_some(p.row_count),
            }),
        })
    }

    /// Whether node `n` of variable `v` has at least one supporting edge in
    /// every pattern `v` participates in (the node-burnback invariant).
    fn has_full_support(&self, v: Var, n: NodeId) -> bool {
        for (q, pat) in self.query.patterns().iter().enumerate() {
            if pat.subject.as_var() == Some(v) && !self.answer_graph.pattern(q).has_subject(n) {
                return false;
            }
            if pat.object.as_var() == Some(v) && !self.answer_graph.pattern(q).has_object(n) {
                return false;
            }
        }
        true
    }

    /// Phase two on demand: defactorizes the *current* answer graph into
    /// projected embeddings. This is the lazy half of the maintenance
    /// design — the embeddings are never retained, only re-derived.
    ///
    /// Joins only the query edges the SELECT list needs
    /// (`DefactorizationStats::join_order` names them): at the
    /// node-burnback fixpoint of an acyclic query every answer edge lies in
    /// some embedding, so a `DISTINCT` projection is the join of the
    /// sub-tree spanning the selected variables and nothing else is
    /// enumerated. Cyclic and edge-burnback views join every edge.
    pub fn defactorize(&self) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
        let ideal = !self.cyclic && !self.options.edge_burnback;
        let (embeddings, stats) =
            defactorize::answer(&self.query, &self.answer_graph, ideal, self.options.threads)?;
        debug_assert!(
            ideal || stats.join_order.len() == self.query.num_patterns(),
            "only an acyclic view without edge burnback may skip query edges"
        );
        Ok((embeddings, stats))
    }

    /// Renders a compact explanation of a view-served evaluation.
    fn explain_view(&self, defact: &DefactorizationStats, embeddings: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "maintained view (epoch {}, {} maintenance pass(es), {} frontier nodes, {} µs):",
            self.info.maintained_epoch,
            self.info.passes,
            self.info.frontier_nodes,
            self.info.maintenance_us
        );
        let _ = writeln!(
            out,
            "  plan order {:?} ({:?})   |AG| = {} answer edges across {} query edges{}",
            self.plan.order,
            self.plan.planner,
            self.answer_graph.total_edges(),
            self.query.num_patterns(),
            if self.cyclic { "  (cyclic query)" } else { "" }
        );
        let _ = writeln!(
            out,
            "phase 2 (defactorization, on demand):\n  join order {:?}   peak intermediate {}   embeddings {}",
            defact.join_order, defact.peak_intermediate, embeddings
        );
        let _ = writeln!(
            out,
            "  phase 2 joined {} of {} query edges",
            defact.join_order.len(),
            self.query.num_patterns()
        );
        out
    }

    /// The uniform factorized artifacts of the maintained state.
    fn factorized(&self) -> Factorized {
        Factorized {
            answer_graph_edges: self.answer_graph.total_edges(),
            plan_order: self.plan.order.clone(),
            edge_walks: self.generation.edge_walks,
            edges_burned: self.generation.edges_burned,
            nodes_burned: self.generation.nodes_burned,
            edge_burnback_removed: self.edge_burnback.edges_removed,
        }
    }
}

impl MaintainedView for MaterializedQuery {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_epoch(&mut self, epoch: u64) {
        MaterializedQuery::set_epoch(self, epoch);
    }

    fn maintain(&mut self, graph: &Graph, delta: &EdgeDelta, epoch: u64) -> MaintenanceStats {
        MaterializedQuery::maintain(self, graph, delta, epoch)
    }

    fn evaluate(&self) -> Result<Evaluation, WireframeError> {
        let t = Instant::now();
        let (embeddings, defact) = self.defactorize()?;
        let timings = Timings {
            defactorization: t.elapsed(),
            defactorization_cpu: defact.cpu,
            ..Timings::default()
        };
        let factorized = self.factorized();
        let metrics = factorized.metrics(
            defact.peak_intermediate as u64,
            defact.join_order.len() as u64,
        );
        let explain = self
            .options
            .explain
            .then(|| self.explain_view(&defact, embeddings.len()));
        Ok(Evaluation {
            engine: "wireframe".to_owned(),
            epochs: Vec::new(),
            embeddings,
            timings,
            cyclic: self.cyclic,
            factorized: Some(factorized),
            metrics,
            explain,
            maintenance: Some(self.info),
            limited: None,
        })
    }

    fn evaluate_limited(&self, limit: usize) -> Result<Evaluation, WireframeError> {
        if limit == 0 {
            return self.evaluate();
        }
        if let Some(ev) = self.serve_from_prefix(limit) {
            return Ok(ev);
        }
        let mut ev = self.evaluate()?;
        ev.apply_limit(limit);
        Ok(ev)
    }

    fn prime_prefix(&mut self, limit: usize) -> bool {
        MaterializedQuery::prime_prefix(self, limit)
    }

    fn prefix_rows(&self) -> usize {
        MaterializedQuery::prefix_rows(self)
    }

    fn can_prefix_serve(&self, limit: usize) -> bool {
        MaterializedQuery::can_prefix_serve(self, limit)
    }

    fn prefix_capable(&self) -> bool {
        prefix_capable(&self.query)
    }

    fn info(&self) -> MaintenanceInfo {
        self.info
    }

    fn clone_view(&self) -> Box<dyn MaintainedView> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WireframeEngine;
    use wireframe_graph::{GraphBuilder, Mutation, StoreKind};
    use wireframe_query::parse_query;

    fn figure1_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "5");
        b.add("2", "A", "5");
        b.add("3", "A", "5");
        b.add("4", "A", "6");
        b.add("5", "B", "9");
        b.add("7", "B", "10");
        for o in ["12", "13", "14", "15"] {
            b.add("9", "C", o);
        }
        b.add("11", "C", "15");
        b.build_with_store(StoreKind::Delta)
    }

    fn chain_query(g: &Graph) -> ConjunctiveQuery {
        parse_query(
            "SELECT * WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            g.dictionary(),
        )
        .unwrap()
    }

    /// Maintained state must equal a fresh evaluation: same AG edges per
    /// pattern, same node sets, same embeddings.
    fn assert_matches_fresh(view: &MaterializedQuery, graph: &Graph, context: &str) {
        let fresh = WireframeEngine::new(graph).execute(view.query()).unwrap();
        for q in 0..view.query().num_patterns() {
            let mut ours: Vec<_> = view.answer_graph().pattern(q).iter().collect();
            let mut theirs: Vec<_> = fresh.answer_graph().pattern(q).iter().collect();
            ours.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(ours, theirs, "{context}: pattern {q} edges differ");
        }
        for v in view.query().variables() {
            assert_eq!(
                view.answer_graph().node_set(v).to_sorted_vec(),
                fresh.answer_graph().node_set(v).to_sorted_vec(),
                "{context}: node set of var {v:?} differs"
            );
        }
        let (ours, _) = view.defactorize().unwrap();
        assert!(
            ours.same_answer(fresh.embeddings()),
            "{context}: embeddings differ"
        );
    }

    fn materialize(graph: &Graph, query: &ConjunctiveQuery) -> MaterializedQuery {
        WireframeEngine::new(graph)
            .execute(query)
            .unwrap()
            .into_view()
    }

    #[test]
    fn provenance_index_maps_predicates_to_patterns() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let idx = ProvenanceIndex::new(&q);
        let a = g.dictionary().predicate_id("A").unwrap();
        let c = g.dictionary().predicate_id("C").unwrap();
        assert_eq!(idx.patterns_for(a), &[0]);
        assert_eq!(idx.patterns_for(c), &[2]);
        assert_eq!(idx.patterns_for(PredId(99)), &[] as &[usize]);
        assert_eq!(idx.predicates().count(), 3);
    }

    #[test]
    fn tombstone_removes_edge_and_cascades() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let mut view = materialize(&g, &q);
        assert_eq!(view.answer_graph().total_edges(), 8);

        // Removing the only B edge empties the whole answer.
        let (next, outcome) = g.apply(&Mutation::new().remove("5", "B", "9"));
        let stats = view.maintain(&next, &outcome.delta, 1);
        assert_eq!(stats.candidate_removals, 1);
        assert!(stats.frontier_nodes >= 2, "both endpoints are suspects");
        assert_eq!(view.answer_graph().total_edges(), 0);
        assert_eq!(view.epoch(), 1);
        assert_matches_fresh(&view, &next, "after emptying tombstone");
    }

    #[test]
    fn insertion_revives_dead_regions() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let mut view = materialize(&g, &q);

        // 7 -B-> 10 died because 10 has no C edge; inserting 10 -C-> 12
        // optimistically revives 10 (for ?y) and pulls its incident B edge
        // back in — but ?x = 7 has no A edge, so the burnback pass removes
        // the whole optimistic chain again and |AG| stays at 8.
        let (next, outcome) = g.apply(&Mutation::new().insert("10", "C", "12"));
        let stats = view.maintain(&next, &outcome.delta, 1);
        assert_eq!(stats.candidate_inserts, 1);
        assert!(stats.nodes_added >= 1, "node 10 is revived for ?y");
        assert!(stats.nodes_removed >= 1, "…and burned back out");
        assert_matches_fresh(&view, &next, "after reviving insert");
        assert_eq!(view.answer_graph().total_edges(), 8);

        // An insert that genuinely extends the answer: 9 -C-> 16 adds one
        // viable C edge (9 is the live ?y hub).
        let (next2, outcome2) = next.apply(&Mutation::new().insert("9", "C", "16"));
        let stats = view.maintain(&next2, &outcome2.delta, 2);
        assert_eq!(stats.candidate_inserts, 1);
        assert_eq!(view.answer_graph().total_edges(), 9);
        assert_matches_fresh(&view, &next2, "after extending insert");
    }

    #[test]
    fn mixed_batches_and_noop_deltas_converge() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let mut view = materialize(&g, &q);

        // A batch that both grows and shrinks: add a full new chain, remove
        // one existing A edge.
        let mutation = Mutation::new()
            .insert("20", "A", "21")
            .insert("21", "B", "22")
            .insert("22", "C", "23")
            .remove("1", "A", "5");
        let (next, outcome) = g.apply(&mutation);
        let stats = view.maintain(&next, &outcome.delta, 1);
        assert_eq!(stats.candidate_inserts, 3);
        assert_eq!(stats.candidate_removals, 1);
        assert_matches_fresh(&view, &next, "after mixed batch");

        // A delta over predicates the query never touches is free.
        let (next2, outcome2) = next.apply(&Mutation::new().insert("1", "Z", "2"));
        let stats = view.maintain(&next2, &outcome2.delta, 2);
        assert_eq!(stats, MaintenanceStats::default(), "zero work performed");
        assert_eq!(view.epoch(), 2);
        assert_matches_fresh(&view, &next2, "after foreign-predicate batch");
    }

    #[test]
    fn constants_and_self_loops_are_respected() {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "1");
        b.add("1", "A", "2");
        b.add("2", "A", "2");
        let g = b.build_with_store(StoreKind::Delta);
        let q = parse_query("SELECT * WHERE { ?x :A ?x . }", g.dictionary()).unwrap();
        let mut view = materialize(&g, &q);
        assert_eq!(view.answer_graph().total_edges(), 2);

        let (next, outcome) = g.apply(
            &Mutation::new()
                .insert("3", "A", "3")
                .insert("3", "A", "4")
                .remove("1", "A", "1"),
        );
        view.maintain(&next, &outcome.delta, 1);
        assert_eq!(view.answer_graph().total_edges(), 2, "loops only");
        assert_matches_fresh(&view, &next, "self-loop maintenance");

        // Constant-end patterns only admit matching edges.
        let qc = parse_query("SELECT ?w WHERE { ?w :A 2 . }", g.dictionary()).unwrap();
        let mut view = materialize(&next, &qc);
        let (next2, outcome2) =
            next.apply(&Mutation::new().insert("5", "A", "2").insert("5", "A", "9"));
        let stats = view.maintain(&next2, &outcome2.delta, 1);
        assert_eq!(stats.candidate_inserts, 1, "only the edge into the const");
        assert_matches_fresh(&view, &next2, "const-end maintenance");
    }

    #[test]
    fn view_evaluate_serves_uniform_evaluations() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let view = materialize(&g, &q);
        let ev = MaintainedView::evaluate(&view).unwrap();
        assert_eq!(ev.engine, "wireframe");
        assert_eq!(ev.embedding_count(), 12);
        assert_eq!(ev.answer_graph_size(), Some(8));
        let info = ev.maintenance.expect("view-served evaluations carry info");
        assert_eq!(info.passes, 0);
        assert!(ev.explain.is_none(), "explain only when requested");
    }

    /// The served prefix must be bit-identical to the canonical first k
    /// rows of a fresh full evaluation.
    fn assert_prefix_matches_fresh(
        view: &MaterializedQuery,
        graph: &Graph,
        limit: usize,
        context: &str,
    ) {
        let ev = view.evaluate_limited(limit).unwrap();
        let info = ev.limited.expect("limited evaluations carry LimitInfo");
        assert!(info.prefix_served, "{context}: expected a prefix serve");
        let fresh = WireframeEngine::new(graph).execute(view.query()).unwrap();
        let expect = fresh.embeddings().canonical_prefix(limit);
        assert_eq!(ev.embeddings.schema(), expect.schema(), "{context}: schema");
        assert_eq!(
            ev.embeddings.flat_data(),
            expect.flat_data(),
            "{context}: prefix rows differ from fresh canonical first-{limit}"
        );
        assert_eq!(
            info.truncated,
            fresh.embeddings().len() > limit,
            "{context}: truncated flag"
        );
    }

    #[test]
    fn prefix_serves_canonical_first_k_without_defactorizing() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let mut view = WireframeEngine::with_options(&g, EvalOptions::default().with_limit(5))
            .execute(&q)
            .unwrap()
            .into_view();
        assert_eq!(view.prefix_rows(), 0, "prefix starts cold");
        assert!(view.prime_prefix(5), "chain query supports prefixes");
        assert_eq!(view.prefix_rows(), 5);
        assert_prefix_matches_fresh(&view, &g, 5, "primed serve");
        assert_prefix_matches_fresh(&view, &g, 3, "limit below k");

        // A limit beyond k cannot be prefix-served: full path, truncated
        // canonically, not marked prefix_served.
        let ev = view.evaluate_limited(7).unwrap();
        let info = ev.limited.unwrap();
        assert!(!info.prefix_served);
        assert_eq!(info.full_total, Some(12));
        let fresh = WireframeEngine::new(&g).execute(&q).unwrap();
        assert_eq!(
            ev.embeddings.flat_data(),
            fresh.embeddings().canonical_prefix(7).flat_data(),
            "fallback path still returns the canonical first 7"
        );

        // With k beyond the whole answer the prefix is exhaustive and any
        // limit (even > row count) is servable.
        assert!(view.prime_prefix(20));
        let ev = view.evaluate_limited(18).unwrap();
        let info = ev.limited.unwrap();
        assert!(info.prefix_served);
        assert!(!info.truncated, "12 rows fit under limit 18");
        assert_eq!(
            info.full_total,
            Some(12),
            "an exhaustive prefix knows the total"
        );
        assert_eq!(ev.embedding_count(), 12);
    }

    #[test]
    fn prefix_is_maintained_under_deltas() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let mut view = materialize(&g, &q);
        assert!(view.prime_prefix(5));

        // Insert-only batch: candidates are enumerated through the new AG
        // edges and merge-inserted — no refill, no fallback.
        let (g1, out1) = g.apply(&Mutation::new().insert("0", "A", "5"));
        let stats = view.maintain(&g1, &out1.delta, 1);
        assert_eq!(stats.prefix_refills, 0, "merge path handles inserts");
        assert_eq!(stats.prefix_fallbacks, 0);
        assert_eq!(stats.prefix_rows, 5);
        assert_prefix_matches_fresh(&view, &g1, 5, "after insert merge");

        // Removal that guts the prefix: w=0 and w=1 rows (8 of the first
        // rows) vanish, the truncated prefix underflows, and a refill
        // re-enumerates from beyond the old horizon.
        let (g2, out2) = g1.apply(&Mutation::new().remove("0", "A", "5").remove("1", "A", "5"));
        let stats = view.maintain(&g2, &out2.delta, 2);
        assert_eq!(stats.prefix_refills, 1, "underflow forces a refill");
        assert_eq!(stats.prefix_fallbacks, 0);
        assert_prefix_matches_fresh(&view, &g2, 5, "after underflow refill");

        // Removal the prefix absorbs: dropping one row of an exhaustive
        // prefix needs no re-enumeration at all.
        assert!(view.prime_prefix(20));
        let (g3, out3) = g2.apply(&Mutation::new().remove("9", "C", "12"));
        let stats = view.maintain(&g3, &out3.delta, 3);
        assert_eq!(stats.prefix_refills, 0, "exhaustive prefix never refills");
        assert_eq!(stats.prefix_fallbacks, 0);
        assert_prefix_matches_fresh(&view, &g3, 20, "after absorbed removal");

        // A churn burst beyond the threshold falls back to one full
        // re-enumeration instead of seeding per-edge joins.
        let mut burst = Mutation::new();
        for i in 0..70 {
            burst = burst.insert("9", "C", &format!("n{i}"));
        }
        let (g4, out4) = g3.apply(&burst);
        let stats = view.maintain(&g4, &out4.delta, 4);
        assert_eq!(
            stats.prefix_fallbacks, 1,
            "70 added edges exceed the threshold"
        );
        assert_prefix_matches_fresh(&view, &g4, 20, "after churn fallback");

        // A foreign-predicate no-op leaves the prefix untouched but still
        // reports its level.
        let (g5, out5) = g4.apply(&Mutation::new().insert("1", "Z", "2"));
        let stats = view.maintain(&g5, &out5.delta, 5);
        assert_eq!(stats.prefix_refills + stats.prefix_fallbacks, 0);
        assert_eq!(stats.prefix_rows, view.prefix_rows());
        assert_prefix_matches_fresh(&view, &g5, 20, "after no-op");
    }

    #[test]
    fn losing_every_row_beyond_the_horizon_ends_the_truncation() {
        // k + 2 rows `(w_i, x_i, y)`; interning order makes `w_i` ascend, so
        // rows k and k + 1 are the two beyond a top-k horizon.
        let k = 4;
        let mut b = GraphBuilder::new();
        for i in 0..k + 2 {
            b.add(&format!("w{i}"), "A", &format!("x{i}"));
            b.add(&format!("x{i}"), "B", "y");
        }
        let g = b.build_with_store(StoreKind::Delta);
        let q = parse_query("SELECT * WHERE { ?w :A ?x . ?x :B ?y . }", g.dictionary()).unwrap();
        let mut view = materialize(&g, &q);
        assert!(view.prime_prefix(k));
        let before = view.evaluate_limited(k).unwrap();
        assert!(before.limited.unwrap().truncated, "k + 2 rows exist");

        // Far under the fallback churn: the incremental path must notice on
        // its own that nothing is left past row k.
        let (next, outcome) = g.apply(
            &Mutation::new()
                .remove("w4", "A", "x4")
                .remove("w5", "A", "x5"),
        );
        let stats = view.maintain(&next, &outcome.delta, 1);
        assert!(stats.edges_removed < PREFIX_FALLBACK_MIN_CHURN);
        assert_eq!((stats.prefix_refills, stats.prefix_fallbacks), (1, 0));
        assert_eq!(stats.prefix_rows, k);

        let after = view.evaluate_limited(k).unwrap();
        assert_eq!(after.embeddings.flat_data(), before.embeddings.flat_data());
        assert_eq!(
            after.limited,
            Some(LimitInfo {
                limit: k,
                truncated: false,
                prefix_served: true,
                full_total: Some(k),
            })
        );
    }

    #[test]
    fn projecting_queries_do_not_retain_prefixes() {
        let g = figure1_graph();
        let q = parse_query(
            "SELECT ?w WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            g.dictionary(),
        )
        .unwrap();
        let mut view = materialize(&g, &q);
        assert!(
            !view.prime_prefix(5),
            "a projection that drops variables cannot maintain a prefix"
        );
        // Bounded reads still work — full path with canonical truncation.
        let ev = view.evaluate_limited(2).unwrap();
        let info = ev.limited.unwrap();
        assert!(!info.prefix_served);
        assert_eq!(ev.embedding_count(), 2);
    }

    #[test]
    fn edge_burnback_views_are_not_maintainable() {
        let mut b = GraphBuilder::new();
        b.add("3", "A", "4");
        b.add("3", "B", "2");
        b.add("4", "C", "1");
        b.add("2", "D", "1");
        let g = b.build();
        let q = parse_query(
            "SELECT * WHERE { ?x :A ?e . ?x :B ?z . ?e :C ?y . ?z :D ?y . }",
            g.dictionary(),
        )
        .unwrap();
        let plain = WireframeEngine::new(&g).execute(&q).unwrap().into_view();
        assert!(plain.cyclic());
        assert!(plain.is_maintainable(), "node burnback alone maintains");
        let burned = WireframeEngine::with_options(&g, EvalOptions::default().with_edge_burnback())
            .execute(&q)
            .unwrap()
            .into_view();
        assert!(!burned.is_maintainable());
    }
    /// The premise projection pushdown stands on: at the node-burnback
    /// fixpoint of an acyclic query, every answer edge of every pattern
    /// occurs in at least one row of the full defactorization.
    fn assert_every_answer_edge_is_used(view: &MaterializedQuery, context: &str) {
        assert!(
            !view.cyclic(),
            "{context}: the premise is about acyclic queries"
        );
        let query = view.query();
        let ag = view.answer_graph();
        let order = defactorize::embedding_plan(query, ag);
        let (full, _) = defactorize::defactorize(query, ag, &order).unwrap();
        let column = |v: Var| full.schema().iter().position(|&s| s == v).unwrap();
        for (q, pat) in query.patterns().iter().enumerate() {
            let end = |term: Term, row: &[NodeId]| match term {
                Term::Const(c) => c,
                Term::Var(v) => row[column(v)],
            };
            let mut used: Vec<(NodeId, NodeId)> = full
                .rows()
                .map(|row| (end(pat.subject, row), end(pat.object, row)))
                .collect();
            used.sort_unstable();
            used.dedup();
            let mut edges: Vec<(NodeId, NodeId)> = ag.pattern(q).iter().collect();
            edges.sort_unstable();
            assert_eq!(
                edges, used,
                "{context}: pattern {q} holds an answer edge no embedding uses"
            );
        }
    }

    /// Figure 1 plus decoys that match single patterns but no embedding, a
    /// snowflake-shaped tail, and a constant end.
    fn noisy_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, p, o) in [
            ("1", "A", "5"),
            ("2", "A", "5"),
            ("3", "A", "6"),
            ("4", "A", "7"), // 7 has no B edge
            ("5", "B", "9"),
            ("6", "B", "9"),
            ("6", "B", "10"),
            ("8", "B", "10"), // 8 has no A edge
            ("9", "C", "12"),
            ("9", "C", "13"),
            ("10", "C", "13"),
            ("11", "C", "14"), // 11 has no B edge
            ("5", "D", "20"),
            ("6", "D", "21"),
            ("9", "D", "20"),
        ] {
            b.add(s, p, o);
        }
        b.build_with_store(StoreKind::Delta)
    }

    #[test]
    fn acyclic_answer_edges_all_lie_in_some_embedding() {
        let g = noisy_graph();
        for text in [
            "SELECT * WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            "SELECT DISTINCT ?w ?z WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . ?x :D ?d . }",
            "SELECT DISTINCT ?y WHERE { ?w :A ?x . ?x :B ?y . ?x :D 20 . }",
        ] {
            let q = parse_query(text, g.dictionary()).unwrap();

            // Fresh.
            let mut view = materialize(&g, &q);
            assert_every_answer_edge_is_used(&view, &format!("fresh {text}"));

            // Maintained: removals that strand edges, insertions that revive
            // dead regions, and a batch doing both.
            let mut graph = g.clone();
            for (epoch, mutation) in [
                Mutation::new().remove("5", "B", "9").insert("7", "B", "10"),
                Mutation::new().insert("8", "A", "8").remove("9", "C", "13"),
                Mutation::new()
                    .insert("10", "D", "20")
                    .insert("7", "D", "20")
                    .remove("2", "A", "5"),
            ]
            .into_iter()
            .enumerate()
            {
                let (next, outcome) = graph.apply(&mutation);
                view.maintain(&next, &outcome.delta, epoch as u64 + 1);
                graph = next;
                assert_matches_fresh(&view, &graph, &format!("batch {epoch} {text}"));
                assert_every_answer_edge_is_used(&view, &format!("batch {epoch} {text}"));
            }

            // Shard-merged, over the final graph.
            let q = parse_query(text, graph.dictionary()).unwrap();
            let parts = wireframe_graph::partition_graph(&graph, 2);
            let scans: Vec<_> = parts
                .iter()
                .map(|part| crate::sharded::scan_candidates(part, &q))
                .collect();
            let merged =
                crate::sharded::merge_candidates(&q, &parts[0], &scans, EvalOptions::default())
                    .unwrap();
            assert_every_answer_edge_is_used(&merged, &format!("2 shards {text}"));
            let (ours, _) = merged.defactorize().unwrap();
            let (theirs, _) = view.defactorize().unwrap();
            assert_eq!(ours.flat_data(), theirs.flat_data(), "2 shards {text}");
        }
    }

    #[test]
    fn only_ideal_views_join_a_cover() {
        let joined = |view: &MaterializedQuery| view.defactorize().unwrap().1.join_order.len();

        // Acyclic, node burnback only: the adjacent pair needs one edge.
        let g = noisy_graph();
        let text = "SELECT DISTINCT ?x ?y WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }";
        let q = parse_query(text, g.dictionary()).unwrap();
        let view = materialize(&g, &q);
        assert_eq!(joined(&view), 1);
        let (plain, _) = view.defactorize().unwrap();
        // The same view on four threads answers identically.
        let threaded = WireframeEngine::with_options(&g, EvalOptions::default().with_threads(4))
            .execute(&q)
            .unwrap();
        assert_eq!(threaded.embeddings().flat_data(), plain.flat_data());
        // The edge-burnback option withdraws the premise, acyclic or not.
        let burned = WireframeEngine::with_options(&g, EvalOptions::default().with_edge_burnback())
            .execute(&q)
            .unwrap();
        assert_eq!(burned.defactorization.join_order.len(), 3);
        assert_eq!(burned.embeddings().flat_data(), plain.flat_data());

        // Cyclic (the paper's Figure 4): two diamonds plus the cross edges
        // 4 -C-> 5 and 8 -C-> 1, which survive node burnback but lie in no
        // embedding — pattern 2 alone would answer four rows, not two.
        let mut b = GraphBuilder::new();
        for (s, p, o) in [
            ("3", "A", "4"),
            ("3", "B", "2"),
            ("4", "C", "1"),
            ("2", "D", "1"),
            ("7", "A", "8"),
            ("7", "B", "6"),
            ("8", "C", "5"),
            ("6", "D", "5"),
            ("4", "C", "5"),
            ("8", "C", "1"),
        ] {
            b.add(s, p, o);
        }
        let g = b.build();
        let q = parse_query(
            "SELECT DISTINCT ?e ?y WHERE { ?x :A ?e . ?x :B ?z . ?e :C ?y . ?z :D ?y . }",
            g.dictionary(),
        )
        .unwrap();
        let view = materialize(&g, &q);
        assert!(view.cyclic());
        assert_eq!(view.answer_graph().edge_count(2), 4, "spurious edges kept");
        assert_eq!(joined(&view), 4);
        let (rows, _) = view.defactorize().unwrap();
        assert_eq!(rows.len(), 2, "one (?e, ?y) pair per diamond");
    }
}
