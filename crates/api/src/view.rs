//! Maintained views: retained, incrementally-updated evaluation state.
//!
//! The paper's bet is that the factorized answer graph is small relative to
//! the embeddings it represents — which makes it cheap not only to *compute*
//! but to *keep*. A [`MaintainedView`] is the contract for that: an engine
//! that [`supports_maintenance`](crate::Engine::supports_maintenance) can
//! [`materialize`](crate::Engine::materialize) a prepared query into a
//! retained view whose internal state (for the Wireframe engine: the answer
//! graph) is updated in place by each mutation's net
//! [`EdgeDelta`](wireframe_graph::EdgeDelta) — `O(delta)` work — instead of
//! being thrown away and recomputed from scratch. Serving layers (the
//! `Session` facade) hold views behind their plan cache and route data
//! mutations through [`MaintainedView::maintain`].
//!
//! Embeddings are deliberately **not** part of the retained state: a view
//! re-derives them from its maintained factorized form on every
//! [`MaintainedView::evaluate`] call. Keeping the small artifact fresh and
//! defactorizing on demand is precisely the factorization-matters trade.

use wireframe_graph::{EdgeDelta, Graph};

use crate::error::WireframeError;
use crate::evaluation::Evaluation;

/// What one [`MaintainedView::maintain`] pass did, in `O(delta)` units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Delta edges that mapped onto at least one pattern edge and were
    /// inserted as answer-graph candidates.
    pub candidate_inserts: usize,
    /// Delta edges whose tombstones removed a present answer-graph edge.
    pub candidate_removals: usize,
    /// Distinct answer-graph nodes from which local burnback / revival
    /// cascaded (the maintenance frontier).
    pub frontier_nodes: usize,
    /// Answer-graph edges added by the pass (candidates plus revived edges).
    pub edges_added: usize,
    /// Answer-graph edges removed by the pass (tombstones plus burnback).
    pub edges_removed: usize,
    /// Nodes added to variable node sets by revival.
    pub nodes_added: usize,
    /// Nodes removed from variable node sets by burnback.
    pub nodes_removed: usize,
    /// Top-k prefix refills: the pass re-enumerated the prefix because it
    /// underflowed below k (or warmed a cold prefix) — the bounded recovery
    /// path, not a failure.
    pub prefix_refills: usize,
    /// Top-k prefix fallbacks: the pass abandoned incremental prefix
    /// maintenance because the delta invalidated too much, and re-derived
    /// the prefix from a full defactorization.
    pub prefix_fallbacks: usize,
    /// Rows retained in the view's top-k prefix after the pass. A level
    /// per view, not a delta — absorbing one pass per view sums to the
    /// total retained across those views.
    pub prefix_rows: usize,
}

impl MaintenanceStats {
    /// Accumulates another pass into this one.
    pub fn absorb(&mut self, other: &MaintenanceStats) {
        self.candidate_inserts += other.candidate_inserts;
        self.candidate_removals += other.candidate_removals;
        self.frontier_nodes += other.frontier_nodes;
        self.edges_added += other.edges_added;
        self.edges_removed += other.edges_removed;
        self.nodes_added += other.nodes_added;
        self.nodes_removed += other.nodes_removed;
        self.prefix_refills += other.prefix_refills;
        self.prefix_fallbacks += other.prefix_fallbacks;
        self.prefix_rows += other.prefix_rows;
    }
}

/// Cumulative maintenance history of a view, carried on every
/// [`Evaluation`] served from it (see [`Evaluation::maintenance`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceInfo {
    /// The mutation epoch the view is maintained to (the epoch of the graph
    /// version its answer graph reflects).
    pub maintained_epoch: u64,
    /// Maintenance passes applied since materialization.
    pub passes: u64,
    /// Frontier nodes touched across all passes.
    pub frontier_nodes: u64,
    /// Total wall-clock spent maintaining, in microseconds.
    pub maintenance_us: u64,
}

/// A retained, incrementally-maintainable evaluation of one prepared query.
///
/// Implementations own everything they need to answer (for Wireframe: the
/// query, its plan, and the maintained answer graph) — no borrow of the
/// graph, which keeps changing underneath. The serving layer guarantees the
/// epoch discipline: [`maintain`](MaintainedView::maintain) is called under
/// the same lock that swaps graph versions, with the *post-mutation* graph
/// and the batch's net delta, and a view is only served when its
/// [`epoch`](MaintainedView::epoch) matches the reader's snapshot.
pub trait MaintainedView: Send + Sync + std::fmt::Debug {
    /// The mutation epoch this view is maintained to.
    fn epoch(&self) -> u64;

    /// Stamps the epoch of the graph version the view was materialized
    /// over (engines materialize at epoch `0`; the serving layer knows the
    /// real snapshot epoch). Subsequent [`maintain`](MaintainedView::maintain)
    /// calls stamp later epochs themselves.
    fn set_epoch(&mut self, epoch: u64);

    /// Applies one mutation batch's net delta: updates the retained state to
    /// match `graph` (the post-mutation version) and stamps `epoch`.
    fn maintain(&mut self, graph: &Graph, delta: &EdgeDelta, epoch: u64) -> MaintenanceStats;

    /// Evaluates from the retained state: re-derives embeddings (and the
    /// uniform [`Evaluation`]) from the maintained factorized form. The
    /// returned evaluation's `epoch` is `0`; the serving layer stamps its
    /// snapshot epoch, exactly as for engine evaluations.
    fn evaluate(&self) -> Result<Evaluation, WireframeError>;

    /// Evaluates the first `limit` rows under the canonical row order
    /// (`limit == 0` means unlimited and is exactly [`evaluate`]).
    ///
    /// The default derives the full answer and truncates — correct for any
    /// view. Implementations that retain a top-k prefix override this to
    /// serve `limit ≤ k` in `O(k)` without defactorizing, marking the
    /// result [`prefix_served`](crate::LimitInfo::prefix_served).
    ///
    /// [`evaluate`]: MaintainedView::evaluate
    fn evaluate_limited(&self, limit: usize) -> Result<Evaluation, WireframeError> {
        let mut ev = self.evaluate()?;
        ev.apply_limit(limit);
        Ok(ev)
    }

    /// Asks the view to retain a defactorized top-k prefix of at least
    /// `limit` rows for `O(k)` [`evaluate_limited`] serving, paying one
    /// enumeration now. Returns whether a prefix is retained afterwards —
    /// `false` (the default) when the view does not support prefixes.
    ///
    /// [`evaluate_limited`]: MaintainedView::evaluate_limited
    fn prime_prefix(&mut self, limit: usize) -> bool {
        let _ = limit;
        false
    }

    /// Rows currently retained in the view's top-k prefix (`0` when none).
    fn prefix_rows(&self) -> usize {
        0
    }

    /// Whether [`evaluate_limited`] with this `limit` would be answered from
    /// a warm prefix in `O(limit)`. Serving layers consult this to decide
    /// when a lazy [`prime_prefix`] is worth paying before evaluating.
    ///
    /// [`evaluate_limited`]: MaintainedView::evaluate_limited
    /// [`prime_prefix`]: MaintainedView::prime_prefix
    fn can_prefix_serve(&self, _limit: usize) -> bool {
        false
    }

    /// Whether this view can retain a top-k prefix at all — a property of
    /// the query shape, fixed for the view's lifetime. `false` (the default)
    /// tells serving layers never to attempt [`prime_prefix`]: a bounded hit
    /// goes straight to [`evaluate_limited`] with no exclusive access to the
    /// view and no copy of it.
    ///
    /// [`evaluate_limited`]: MaintainedView::evaluate_limited
    /// [`prime_prefix`]: MaintainedView::prime_prefix
    fn prefix_capable(&self) -> bool {
        false
    }

    /// Cumulative maintenance history (stamped into served evaluations).
    fn info(&self) -> MaintenanceInfo;

    /// Clones the view. Serving layers hold views behind shared handles so
    /// evaluation never runs under a lock a mutation needs; when a
    /// maintenance pass finds readers still holding the previous state, it
    /// clones, maintains the clone, and swaps it in (copy-on-write) — the
    /// factorized artifact is small, which is what makes this affordable.
    fn clone_view(&self) -> Box<dyn MaintainedView>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_accumulates_every_field() {
        let mut a = MaintenanceStats {
            candidate_inserts: 1,
            candidate_removals: 2,
            frontier_nodes: 3,
            edges_added: 4,
            edges_removed: 5,
            nodes_added: 6,
            nodes_removed: 7,
            prefix_refills: 8,
            prefix_fallbacks: 9,
            prefix_rows: 10,
        };
        a.absorb(&a.clone());
        assert_eq!(a.candidate_inserts, 2);
        assert_eq!(a.candidate_removals, 4);
        assert_eq!(a.frontier_nodes, 6);
        assert_eq!(a.edges_added, 8);
        assert_eq!(a.edges_removed, 10);
        assert_eq!(a.nodes_added, 12);
        assert_eq!(a.nodes_removed, 14);
        assert_eq!(a.prefix_refills, 16);
        assert_eq!(a.prefix_fallbacks, 18);
        assert_eq!(a.prefix_rows, 20);
        assert_eq!(MaintenanceInfo::default().maintained_epoch, 0);
    }
}
