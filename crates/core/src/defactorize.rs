//! Phase two: embedding generation (defactorization).
//!
//! Embeddings are produced by joining the answer graph's per-query-edge edge
//! sets. Over the *ideal* answer graph of an acyclic query no intermediate
//! tuple is ever lost, so the join order is immaterial (Section 4.II of the
//! paper); over a non-ideal AG or a cyclic query the order matters for cost,
//! so a greedy plan driven by the exact per-edge counts gathered in phase one
//! is used.
//!
//! The same fact makes phase two **projection-aware**. Every answer edge of
//! an ideal AG lies in at least one embedding, so `SELECT DISTINCT` over a
//! subset of the variables is exactly the join of the answer edges on the
//! sub-tree of the query tree that spans them — the *cover*
//! ([`projection_cover`]). [`answer`], the one phase-two entry every
//! wireframe path funnels through, joins the cover alone and never
//! enumerates the embeddings the SELECT list would throw away.

use std::collections::HashMap;

use wireframe_graph::slices::contains_sorted;
use wireframe_graph::NodeId;
use wireframe_query::{ConjunctiveQuery, EmbeddingSet, Term, Var};

use crate::answer_graph::{AnswerGraph, PatternEdges};
use crate::error::EngineError;
use crate::parallel::{join_parallel, ParallelOptions};

/// A sorted-slice join index over one pattern's answer edges: CSR-style
/// `keys`/`offsets`/`values` arrays in both directions, snapshotted once per
/// defactorization from the (hash-map-backed, mutation-friendly)
/// [`PatternEdges`] and then probed once per intermediate tuple. Joining
/// against sorted contiguous arrays replaces a hash lookup per tuple with a
/// binary search over cache-resident memory, and makes the enumeration order
/// deterministic.
#[derive(Debug, Default)]
pub(crate) struct JoinIndex {
    /// Distinct `(subject, object)` pairs, sorted — the scan path.
    pairs: Vec<(NodeId, NodeId)>,
    fwd_keys: Vec<NodeId>,
    fwd_offsets: Vec<u32>,
    fwd_values: Vec<NodeId>,
    rev_keys: Vec<NodeId>,
    rev_offsets: Vec<u32>,
    rev_values: Vec<NodeId>,
}

/// Groups sorted `(key, value)` pairs into `keys`/`offsets`/`values` arrays.
fn group_sorted(pairs: &[(NodeId, NodeId)]) -> (Vec<NodeId>, Vec<u32>, Vec<NodeId>) {
    let mut keys = Vec::new();
    let mut offsets: Vec<u32> = Vec::new();
    let mut values = Vec::with_capacity(pairs.len());
    for &(k, v) in pairs {
        if keys.last() != Some(&k) {
            keys.push(k);
            offsets.push(values.len() as u32);
        }
        values.push(v);
    }
    offsets.push(values.len() as u32);
    (keys, offsets, values)
}

impl JoinIndex {
    pub(crate) fn build(edges: &PatternEdges) -> Self {
        JoinIndex::from_pairs(edges.iter().collect())
    }

    /// One index per pattern of `ag`, built for the patterns in `order`
    /// only; a pattern the join never visits keeps an empty placeholder.
    pub(crate) fn build_for(ag: &AnswerGraph, order: &[usize]) -> Vec<JoinIndex> {
        (0..ag.num_patterns())
            .map(|q| {
                if order.contains(&q) {
                    JoinIndex::build(ag.pattern(q))
                } else {
                    JoinIndex::default()
                }
            })
            .collect()
    }

    /// Builds the index directly from an edge list (used by the parallel
    /// defactorizer for each worker's seed partition).
    pub(crate) fn from_pairs(mut pairs: Vec<(NodeId, NodeId)>) -> Self {
        pairs.sort_unstable();
        let (fwd_keys, fwd_offsets, fwd_values) = group_sorted(&pairs);
        let mut reversed: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
        reversed.sort_unstable();
        let (rev_keys, rev_offsets, rev_values) = group_sorted(&reversed);
        JoinIndex {
            pairs,
            fwd_keys,
            fwd_offsets,
            fwd_values,
            rev_keys,
            rev_offsets,
            rev_values,
        }
    }

    #[inline]
    fn slice<'a>(
        keys: &[NodeId],
        offsets: &[u32],
        values: &'a [NodeId],
        key: NodeId,
    ) -> &'a [NodeId] {
        match keys.binary_search(&key) {
            Ok(i) => &values[offsets[i] as usize..offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Objects matched with subject `s` (ascending-sorted).
    #[inline]
    fn objects_of(&self, s: NodeId) -> &[NodeId] {
        Self::slice(&self.fwd_keys, &self.fwd_offsets, &self.fwd_values, s)
    }

    /// Subjects matched with object `o` (ascending-sorted).
    #[inline]
    fn subjects_of(&self, o: NodeId) -> &[NodeId] {
        Self::slice(&self.rev_keys, &self.rev_offsets, &self.rev_values, o)
    }

    #[inline]
    fn contains(&self, s: NodeId, o: NodeId) -> bool {
        contains_sorted(self.objects_of(s), o)
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.pairs.iter().copied()
    }
}

/// Statistics of the defactorization phase.
#[derive(Debug, Clone, Default)]
pub struct DefactorizationStats {
    /// Join order over the query edges (pattern indexes).
    pub join_order: Vec<usize>,
    /// Largest intermediate relation produced while joining.
    pub peak_intermediate: usize,
    /// Number of embedding tuples produced (before projection).
    pub embeddings: usize,
    /// CPU time summed across workers (index building + joining). Equals
    /// the phase's wall-clock on the sequential path; exceeds it when the
    /// parallel defactorizer ran workers concurrently.
    pub cpu: std::time::Duration,
}

/// Chooses a join order for phase two: connected, smallest answer-edge set
/// first (greedy on the exact statistics the answer graph provides).
pub fn embedding_plan(query: &ConjunctiveQuery, ag: &AnswerGraph) -> Vec<usize> {
    let all: Vec<usize> = (0..query.num_patterns()).collect();
    plan_over(query, ag, &all)
}

/// [`embedding_plan`] restricted to the query edges in `patterns` (a
/// [`projection_cover`]; connected, so the greedy walk never has to jump).
fn plan_over(query: &ConjunctiveQuery, ag: &AnswerGraph, patterns: &[usize]) -> Vec<usize> {
    plan_over_from(query, ag, patterns, None)
}

/// [`plan_over`] with the first pattern pinned to `start` when one is given:
/// a seeded join ([`join_seeded`]) holds that pattern to a handful of pairs,
/// so visiting it first bounds every intermediate.
fn plan_over_from(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    patterns: &[usize],
    start: Option<usize>,
) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::with_capacity(patterns.len());
    let mut rest: Vec<usize> = patterns.to_vec();
    if let Some(at) = start.and_then(|seed| rest.iter().position(|&q| q == seed)) {
        order.push(rest.remove(at));
    }
    while !rest.is_empty() {
        let connected = |i: usize| {
            order.is_empty()
                || query.patterns()[i]
                    .variables()
                    .any(|v| order.iter().any(|&j| query.patterns()[j].mentions(v)))
        };
        // Ties keep the lowest pattern id (`min_by_key` returns the first
        // minimum of an ascending list). A disconnected remainder can only
        // happen for disconnected queries, which the engine rejects
        // earlier; fall back to any unused pattern.
        let at = (0..rest.len())
            .filter(|&at| connected(rest[at]))
            .min_by_key(|&at| ag.edge_count(rest[at]))
            .unwrap_or(0);
        order.push(rest.remove(at));
    }
    order
}

/// Whether the SELECT list keeps every variable of `query`. Then the
/// projected rows are bijective with the embeddings: nothing for the cover
/// to skip, and the shape a maintained top-k prefix needs.
pub(crate) fn selects_every_variable(query: &ConjunctiveQuery) -> bool {
    query.variables().all(|v| query.projection().contains(&v))
}

/// The query edges phase two has to join to answer `query`'s SELECT list
/// (ascending pattern ids) — the **cover**.
///
/// `ideal` says the answer graph is the node-burnback fixpoint of an
/// *acyclic* query, where every answer edge extends to a full embedding
/// (the paper's ideal AG; Yannakakis' global consistency). Only then, and
/// only for a `DISTINCT` list that drops variables, is the cover smaller
/// than the query: the var–var patterns left after repeatedly pruning leaf
/// variables that are not selected, i.e. the sub-tree of the query tree
/// spanning the selected variables. Var–const patterns are filters burnback
/// has already enforced on the node sets and never belong to it; a
/// single-variable list prunes everything (that variable's node set *is*
/// the answer). Everything else — cyclic or edge-burnback answer graphs,
/// bag projections (multiplicities count the dropped bindings), full SELECT
/// lists — joins every pattern.
pub(crate) fn projection_cover(query: &ConjunctiveQuery, ideal: bool) -> Vec<usize> {
    let patterns = query.patterns();
    if !ideal || !query.distinct() || query.projection().is_empty() || selects_every_variable(query)
    {
        return (0..patterns.len()).collect();
    }
    let mut cover: Vec<usize> = (0..patterns.len())
        .filter(|&q| patterns[q].variables().count() == 2)
        .collect();
    let mut degree = vec![0usize; query.num_vars()];
    for &q in &cover {
        for v in patterns[q].variables() {
            degree[v.index()] += 1;
        }
    }
    let unselected_leaf =
        |v: Var, degree: &[usize]| degree[v.index()] == 1 && !query.projection().contains(&v);
    while let Some(at) = cover
        .iter()
        .position(|&q| patterns[q].variables().any(|v| unselected_leaf(v, &degree)))
    {
        for v in patterns[cover.remove(at)].variables() {
            degree[v.index()] -= 1;
        }
    }
    cover
}

/// The variables the patterns of `order` bind, ascending — the schema of a
/// join over `order` (every query variable for a full order).
pub(crate) fn bound_variables(query: &ConjunctiveQuery, order: &[usize]) -> Vec<Var> {
    let mut vars: Vec<Var> = order
        .iter()
        .flat_map(|&q| query.patterns()[q].variables())
        .collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Phase two as every wireframe path runs it — cold engine evaluation,
/// retained-view hits and the sharded merged view: joins the
/// [`projection_cover`] of `query` (every pattern unless `ideal` and the
/// SELECT list allow less) on `threads` workers and applies the projection.
/// One path: a smaller cover is the same join loop over a shorter order.
pub(crate) fn answer(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    ideal: bool,
    threads: usize,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let cover = projection_cover(query, ideal);
    let order = plan_over(query, ag, &cover);
    let (joined, stats) = if order.is_empty() {
        // Single-variable list: burnback keeps exactly the nodes that occur
        // in some embedding, so the node set is the answer — nothing to join.
        let busy = std::time::Instant::now();
        let v = query.projection()[0];
        debug_assert!(
            query.projection().iter().all(|&p| p == v),
            "two selected variables of a connected query share a path"
        );
        let nodes = ag.node_set(v).to_sorted_vec();
        let stats = DefactorizationStats {
            peak_intermediate: nodes.len(),
            embeddings: nodes.len(),
            cpu: busy.elapsed(),
            ..DefactorizationStats::default()
        };
        (EmbeddingSet::from_flat(vec![v], nodes), stats)
    } else if threads == 1 {
        join(query, ag, &order)?
    } else {
        join_parallel(query, ag, order, &ParallelOptions::for_threads(threads))?
    };
    let embeddings = if cover.len() == query.num_patterns() {
        joined.into_projected_set(query)
    } else {
        // The cover's rows are distinct over the cover's variables only;
        // `project` sort-dedups the interior ones the SELECT list drops (and
        // returns the rows sorted, as a DISTINCT answer always was).
        joined.project(query)
    };
    let embeddings = embeddings.ok_or_else(|| {
        EngineError::Internal("projection referenced a variable missing from the result".into())
    })?;
    Ok((embeddings, stats))
}

/// Generates the embeddings of `query` from its answer graph by joining the
/// answer edges in `order` (typically produced by [`embedding_plan`]).
///
/// The result's schema contains every query variable in index order; use
/// [`EmbeddingSet::project`] for the SELECT list.
pub fn defactorize(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    order: &[usize],
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    if order.len() != query.num_patterns() {
        return Err(EngineError::Internal(
            "embedding plan does not cover every query edge".into(),
        ));
    }
    join(query, ag, order)
}

/// Joins the answer edges of the patterns in `order` — all of them, or a
/// [`projection_cover`] — snapshotting a join index for those patterns only.
pub(crate) fn join(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    order: &[usize],
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let busy = std::time::Instant::now();
    // Sorted join indexes, snapshotted once per pattern and probed per tuple.
    let indexes = JoinIndex::build_for(ag, order);
    let index_refs: Vec<&JoinIndex> = indexes.iter().collect();
    let (set, mut stats) = defactorize_indexed(query, &index_refs, order)?;
    stats.cpu = busy.elapsed();
    Ok((set, stats))
}

/// The join loop over prebuilt indexes (`indexes[q]` is read for the
/// patterns in `order` only). Emits the variables `order` binds, in index
/// order — every query variable for a full order. Exposed crate-internally
/// so the parallel defactorizer can share the (identical) non-seed indexes
/// across workers instead of rebuilding them per worker.
pub(crate) fn defactorize_indexed(
    query: &ConjunctiveQuery,
    indexes: &[&JoinIndex],
    order: &[usize],
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let mut stats = DefactorizationStats {
        join_order: order.to_vec(),
        ..DefactorizationStats::default()
    };

    // Bound variables so far -> column index in the intermediate tuples.
    let mut columns: HashMap<Var, usize> = HashMap::new();
    // Intermediate tuples in one flat arena: `count` rows of `arity` columns
    // each, concatenated in `data`. An extension step memcpys the parent row
    // and appends the new binding — no per-tuple allocation, which is where
    // the materializing defactorizer used to spend most of its time.
    let mut arity = 0usize;
    let mut count = 1usize; // the empty tuple
    let mut data: Vec<NodeId> = Vec::new();

    for &q in order {
        let pattern = query.patterns()[q];
        let edges = indexes[q];
        let s_col = pattern
            .subject
            .as_var()
            .and_then(|v| columns.get(&v).copied());
        let o_col = pattern
            .object
            .as_var()
            .and_then(|v| columns.get(&v).copied());

        let mut next_arity = arity;
        let mut next: Vec<NodeId> = Vec::with_capacity(data.len());
        let mut next_count = 0usize;

        match (pattern.subject, pattern.object) {
            // Self-loop on one variable.
            (Term::Var(a), Term::Var(b)) if a == b => {
                if let Some(col) = s_col {
                    for i in 0..count {
                        let t = &data[i * arity..(i + 1) * arity];
                        if edges.contains(t[col], t[col]) {
                            next.extend_from_slice(t);
                            next_count += 1;
                        }
                    }
                } else {
                    let new_col = columns.len();
                    columns.insert(a, new_col);
                    next_arity = arity + 1;
                    for i in 0..count {
                        let t = &data[i * arity..(i + 1) * arity];
                        for (s, o) in edges.iter() {
                            if s == o {
                                next.extend_from_slice(t);
                                next.push(s);
                                next_count += 1;
                            }
                        }
                    }
                }
            }
            _ => {
                match (s_col, o_col) {
                    (Some(sc), Some(oc)) => {
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            if edges
                                .contains(bind(t, sc, pattern.subject), bind(t, oc, pattern.object))
                            {
                                next.extend_from_slice(t);
                                next_count += 1;
                            }
                        }
                    }
                    (Some(sc), None) => {
                        let new_col = pattern.object.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        if new_col.is_some() {
                            next_arity = arity + 1;
                        }
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            let s = bind(t, sc, pattern.subject);
                            for &o in edges.objects_of(s) {
                                if admits(pattern.object, o) {
                                    next.extend_from_slice(t);
                                    if new_col.is_some() {
                                        next.push(o);
                                    }
                                    next_count += 1;
                                }
                            }
                        }
                    }
                    (None, Some(oc)) => {
                        let new_col = pattern.subject.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        if new_col.is_some() {
                            next_arity = arity + 1;
                        }
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            let o = bind(t, oc, pattern.object);
                            for &s in edges.subjects_of(o) {
                                if admits(pattern.subject, s) {
                                    next.extend_from_slice(t);
                                    if new_col.is_some() {
                                        next.push(s);
                                    }
                                    next_count += 1;
                                }
                            }
                        }
                    }
                    (None, None) => {
                        // Neither end bound yet: constants and/or fresh variables.
                        let s_new = pattern.subject.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        let o_new = pattern.object.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        next_arity =
                            arity + usize::from(s_new.is_some()) + usize::from(o_new.is_some());
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            for (s, o) in edges.iter() {
                                if !admits(pattern.subject, s) || !admits(pattern.object, o) {
                                    continue;
                                }
                                next.extend_from_slice(t);
                                if s_new.is_some() {
                                    next.push(s);
                                }
                                if o_new.is_some() {
                                    next.push(o);
                                }
                                next_count += 1;
                            }
                        }
                    }
                }
            }
        }

        arity = next_arity;
        data = next;
        count = next_count;
        stats.peak_intermediate = stats.peak_intermediate.max(count);
        if count == 0 {
            break;
        }
    }

    // Assemble the schema: every variable the order binds, in variable-index
    // order. After an early exit some never got a column, but then there is
    // no row to gather. The output stays one flat row-major buffer end to end.
    let schema = bound_variables(query, order);
    let mut out: Vec<NodeId> = Vec::with_capacity(count * schema.len());
    if count > 0 {
        let col_of: Vec<usize> = schema.iter().map(|v| columns[v]).collect();
        if col_of.iter().enumerate().all(|(i, &c)| c == i) {
            // Columns were bound in variable-index order: the arena already
            // is the answer — move it, no gather pass.
            out = data;
        } else {
            for i in 0..count {
                let t = &data[i * arity..(i + 1) * arity];
                out.extend(col_of.iter().map(|&c| t[c]));
            }
        }
        stats.embeddings = count;
    }
    // The explicit row count matters for fully ground queries (zero-arity
    // schema): `count` empty tuples are still answers.
    Ok((EmbeddingSet::from_flat_rows(schema, out, count), stats))
}

/// The join loop with the answer edges of `order[0]` replaced by `pairs` —
/// the one seeded join behind both users of a partial first pattern: the
/// parallel defactorizer (each worker's chunk of the seed edges) and
/// [`SeedEnumerator`] (one inserted answer edge). `indexes[q]` is read for
/// the other patterns of `order`, so callers build those once and share them.
pub(crate) fn join_seeded(
    query: &ConjunctiveQuery,
    indexes: &[JoinIndex],
    order: &[usize],
    pairs: Vec<(NodeId, NodeId)>,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let Some(&seed) = order.first() else {
        return Err(EngineError::Internal("the join order is empty".into()));
    };
    let seeded = JoinIndex::from_pairs(pairs);
    let mut refs: Vec<&JoinIndex> = indexes.iter().collect();
    refs[seed] = &seeded;
    defactorize_indexed(query, &refs, order)
}

/// Enumerates only the embeddings that pass **through one specific answer
/// edge** — the primitive behind incremental top-k prefix maintenance: an
/// inserted AG edge can only contribute rows that use it, so instead of
/// re-defactorizing everything, the maintainer seeds the join with the
/// single new pair and extends outward.
///
/// Built once per maintenance pass (the per-pattern indexes are shared
/// across all seed edges of the pass), then probed once per inserted edge.
#[derive(Debug)]
pub(crate) struct SeedEnumerator<'a> {
    ag: &'a AnswerGraph,
    indexes: Vec<JoinIndex>,
}

impl<'a> SeedEnumerator<'a> {
    /// Snapshots the current answer graph into join indexes.
    pub(crate) fn new(query: &ConjunctiveQuery, ag: &'a AnswerGraph) -> Self {
        SeedEnumerator {
            ag,
            indexes: (0..query.num_patterns())
                .map(|q| JoinIndex::build(ag.pattern(q)))
                .collect(),
        }
    }

    /// All embeddings whose binding of pattern `seed` is exactly the answer
    /// edge `(s, o)`. The schema is every query variable in index order
    /// (same as [`defactorize`]); project before comparing to an answer.
    pub(crate) fn rows_through(
        &self,
        query: &ConjunctiveQuery,
        seed: usize,
        s: NodeId,
        o: NodeId,
    ) -> Result<EmbeddingSet, EngineError> {
        let all: Vec<usize> = (0..query.num_patterns()).collect();
        let order = plan_over_from(query, self.ag, &all, Some(seed));
        join_seeded(query, &self.indexes, &order, vec![(s, o)]).map(|(set, _)| set)
    }
}

fn bind(tuple: &[NodeId], col: usize, term: Term) -> NodeId {
    match term {
        Term::Const(c) => c,
        Term::Var(_) => tuple[col],
    }
}

fn admits(term: Term, n: NodeId) -> bool {
    match term {
        Term::Const(c) => c == n,
        Term::Var(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalOptions;
    use crate::generate::generate;
    use wireframe_graph::{Graph, GraphBuilder};
    use wireframe_query::CqBuilder;

    fn figure1_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "5");
        b.add("2", "A", "5");
        b.add("3", "A", "5");
        b.add("4", "A", "6");
        b.add("5", "B", "9");
        b.add("7", "B", "10");
        b.add("9", "C", "12");
        b.add("9", "C", "13");
        b.add("9", "C", "14");
        b.add("9", "C", "15");
        b.add("11", "C", "15");
        b.build()
    }

    fn chain_query(g: &Graph) -> ConjunctiveQuery {
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?w", "A", "?x").unwrap();
        qb.pattern("?x", "B", "?y").unwrap();
        qb.pattern("?y", "C", "?z").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn figure1_has_twelve_embeddings_from_eight_edges() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        assert_eq!(ag.total_edges(), 8);
        let order = embedding_plan(&q, &ag);
        let (emb, stats) = defactorize(&q, &ag, &order).unwrap();
        assert_eq!(
            emb.len(),
            12,
            "the paper's Figure 1 reports twelve embedding tuples"
        );
        assert_eq!(stats.embeddings, 12);
        assert!(stats.peak_intermediate >= 12);
    }

    #[test]
    fn join_order_is_immaterial_over_the_ideal_ag() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let (a, _) = defactorize(&q, &ag, &[0, 1, 2]).unwrap();
        let (b, _) = defactorize(&q, &ag, &[2, 1, 0]).unwrap();
        let (c, _) = defactorize(&q, &ag, &[1, 0, 2]).unwrap();
        assert!(a.same_answer(&b));
        assert!(a.same_answer(&c));
    }

    #[test]
    fn embedding_plan_starts_from_smallest_pattern() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let order = embedding_plan(&q, &ag);
        assert_eq!(
            order[0], 1,
            "the single B answer edge is the cheapest start"
        );
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn constants_are_enforced() {
        let g = figure1_graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?w", "A", "5").unwrap();
        qb.pattern("5", "B", "?y").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0, 1], &EvalOptions::default()).unwrap();
        let order = embedding_plan(&q, &ag);
        let (emb, _) = defactorize(&q, &ag, &order).unwrap();
        assert_eq!(
            emb.len(),
            3,
            "three subjects reach node 5; node 5 has one B edge"
        );
        assert_eq!(emb.schema().len(), 2);
    }

    #[test]
    fn empty_answer_graph_yields_no_embeddings() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let ag = AnswerGraph::new(&q);
        let (emb, stats) = defactorize(&q, &ag, &[0, 1, 2]).unwrap();
        assert!(emb.is_empty());
        assert_eq!(stats.embeddings, 0);
    }

    #[test]
    fn fully_ground_query_returns_the_empty_tuple() {
        // A query with no variables has a zero-arity answer schema; its
        // answer is one empty tuple when the pattern holds, zero otherwise.
        let g = figure1_graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("5", "B", "9").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0], &EvalOptions::default()).unwrap();
        let (emb, stats) = defactorize(&q, &ag, &embedding_plan(&q, &ag)).unwrap();
        assert_eq!(emb.len(), 1, "the ground pattern holds: one empty tuple");
        assert_eq!(emb.schema().len(), 0);
        assert_eq!(stats.embeddings, 1);

        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("5", "B", "12").unwrap(); // no such edge
        let q2 = qb.build().unwrap();
        let (ag2, _) = generate(&g, &q2, &[0], &EvalOptions::default()).unwrap();
        let (emb2, _) = defactorize(&q2, &ag2, &embedding_plan(&q2, &ag2)).unwrap();
        assert_eq!(emb2.len(), 0);
    }

    #[test]
    fn incomplete_order_is_rejected() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let ag = AnswerGraph::new(&q);
        assert!(defactorize(&q, &ag, &[0, 1]).is_err());
    }

    #[test]
    fn seed_enumeration_partitions_the_answer() {
        // Every embedding binds pattern 1 to exactly one answer edge, so
        // enumerating through each edge of pattern 1 partitions the full
        // answer: the union (as a set) equals a full defactorization.
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let (full, _) = defactorize(&q, &ag, &embedding_plan(&q, &ag)).unwrap();

        let seeds = SeedEnumerator::new(&q, &ag);
        for pat in 0..q.num_patterns() {
            let mut rows: Vec<Vec<NodeId>> = Vec::new();
            for (s, o) in ag.pattern(pat).iter() {
                let part = seeds.rows_through(&q, pat, s, o).unwrap();
                assert_eq!(part.schema(), full.schema());
                rows.extend(part.rows().map(<[NodeId]>::to_vec));
            }
            let union = EmbeddingSet::new(full.schema().to_vec(), rows);
            assert!(
                union.same_answer(&full),
                "seeding pattern {pat} must cover the full answer"
            );
        }
    }

    #[test]
    fn a_pinned_plan_starts_at_the_seed_and_stays_connected() {
        let chain = figure1_graph();
        let q = chain_query(&chain);
        let (ag, _) = generate(&chain, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let flake = snowflake_graph();
        for (q, ag) in [(q, ag), snowflake(&flake, "*")] {
            let all: Vec<usize> = (0..q.num_patterns()).collect();
            assert_eq!(
                plan_over_from(&q, &ag, &all, None),
                embedding_plan(&q, &ag),
                "no pin: the plan every full join uses"
            );
            for seed in 0..q.num_patterns() {
                let order = plan_over_from(&q, &ag, &all, Some(seed));
                assert_eq!(order[0], seed);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, all, "seed {seed}: every pattern exactly once");
                for (at, &next) in order.iter().enumerate().skip(1) {
                    assert!(
                        q.patterns()[next]
                            .variables()
                            .any(|v| order[..at].iter().any(|&j| q.patterns()[j].mentions(v))),
                        "seed {seed}: pattern {next} joins nothing visited before it"
                    );
                }
            }
        }
    }

    #[test]
    fn self_loop_defactorization() {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "1");
        b.add("2", "A", "3");
        b.add("1", "B", "4");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "A", "?x").unwrap();
        qb.pattern("?x", "B", "?y").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0, 1], &EvalOptions::default()).unwrap();
        let order = embedding_plan(&q, &ag);
        let (emb, _) = defactorize(&q, &ag, &order).unwrap();
        assert_eq!(emb.len(), 1, "only node 1 loops and has a B edge");
    }

    /// A snowflake with a constant end, shaped like the benchmark's
    /// `warm_enumerate` queries: hub `?x`, arms `x — m — a` and `x — z — b`,
    /// and a var–const filter on the hub. Every arm fans out.
    fn snowflake_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for x in 0..6 {
            b.add(&format!("x{x}"), "T", "c");
            for m in 0..3 {
                b.add(&format!("x{x}"), "M", &format!("m{}", (x + m) % 4));
                b.add(&format!("x{x}"), "Z", &format!("z{}", (x * m) % 5));
            }
        }
        for m in 0..4 {
            for a in 0..40 {
                b.add(&format!("m{m}"), "A", &format!("a{}", (m + a) % 50));
            }
        }
        for z in 0..5 {
            b.add(&format!("z{z}"), "B", &format!("b{}", z % 2));
        }
        b.add("x9", "M", "m9"); // dangling: burnback removes it
        b.build()
    }

    const SNOWFLAKE: &str = "WHERE { ?x :M ?m . ?m :A ?a . ?x :Z ?z . ?z :B ?b . ?x :T c . }";

    fn snowflake(g: &Graph, select: &str) -> (ConjunctiveQuery, AnswerGraph) {
        let q =
            wireframe_query::parse_query(&format!("SELECT {select} {SNOWFLAKE}"), g.dictionary())
                .unwrap();
        let order: Vec<usize> = (0..q.num_patterns()).collect();
        let (ag, _) = generate(g, &q, &order, &EvalOptions::default()).unwrap();
        (q, ag)
    }

    #[test]
    fn the_cover_is_the_subtree_the_select_list_spans() {
        let g = snowflake_graph();
        let all = vec![0, 1, 2, 3, 4];
        let cover = |select: &str, ideal: bool| projection_cover(&snowflake(&g, select).0, ideal);

        assert_eq!(cover("DISTINCT ?x ?m", true), vec![0], "adjacent pair");
        assert_eq!(cover("DISTINCT ?x ?a", true), vec![0, 1], "path through ?m");
        assert_eq!(cover("DISTINCT ?a ?b", true), vec![0, 1, 2, 3]);
        assert_eq!(cover("DISTINCT ?m ?z", true), vec![0, 2], "through the hub");
        assert_eq!(cover("DISTINCT ?z", true), Vec::<usize>::new());
        // The var–const pattern (4) is a filter: in no cover but the full one.
        for select in ["DISTINCT ?x", "DISTINCT ?x ?b", "DISTINCT ?a ?x ?b"] {
            assert!(!cover(select, true).contains(&4), "{select}");
        }
        // Full lists, bag projections and non-ideal answer graphs (cyclic
        // query, edge burnback) join every query edge.
        assert_eq!(cover("DISTINCT ?x ?m ?a ?z ?b", true), all);
        assert_eq!(cover("DISTINCT *", true), all);
        assert_eq!(cover("?x ?a", true), all, "bag projection");
        assert_eq!(cover("DISTINCT ?x ?a", false), all, "not ideal");
    }

    #[test]
    fn joining_the_cover_equals_projecting_the_full_join() {
        let g = snowflake_graph();
        for select in [
            "DISTINCT ?x ?m",
            "DISTINCT ?a ?x",
            "DISTINCT ?b ?a",
            "DISTINCT ?m",
            "DISTINCT ?z ?x ?a",
        ] {
            let (q, ag) = snowflake(&g, select);
            let (full, full_stats) = defactorize(&q, &ag, &embedding_plan(&q, &ag)).unwrap();
            let expect = full.project(&q).unwrap();
            for threads in [1, 4] {
                let (got, stats) = answer(&q, &ag, true, threads).unwrap();
                assert_eq!(got.schema(), expect.schema(), "{select}");
                assert_eq!(
                    got.flat_data(),
                    expect.flat_data(),
                    "{select} on {threads} thread(s): rows bit-identical to project-after-join"
                );
                let mut joined = stats.join_order.clone();
                joined.sort_unstable();
                assert_eq!(joined, projection_cover(&q, true), "{select}");
                assert!(
                    stats.peak_intermediate <= full_stats.peak_intermediate,
                    "{select}: the cover never builds more than the full join"
                );
            }
            // Without the premise the same entry point joins everything.
            let (unpushed, stats) = answer(&q, &ag, false, 1).unwrap();
            assert_eq!(unpushed.flat_data(), expect.flat_data());
            assert_eq!(stats.join_order.len(), q.num_patterns());
        }
    }

    #[test]
    fn the_parallel_join_partitions_a_cover_too() {
        // 200 edges on both cover patterns: whichever seeds the join, that is
        // enough for the parallel path (not its small-input fallback).
        let mut b = GraphBuilder::new();
        for i in 0..200 {
            b.add(&format!("w{i}"), "A", &format!("x{i}"));
            b.add(&format!("x{i}"), "B", &format!("y{}", i % 3));
        }
        for y in 0..3 {
            for z in 0..50 {
                b.add(&format!("y{y}"), "C", &format!("z{z}"));
            }
        }
        let g = b.build();
        let q = wireframe_query::parse_query(
            "SELECT DISTINCT ?y ?w WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            g.dictionary(),
        )
        .unwrap();
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let (sequential, seq_stats) = answer(&q, &ag, true, 1).unwrap();
        let (parallel, par_stats) = answer(&q, &ag, true, 4).unwrap();
        assert_eq!(sequential.len(), 200);
        assert_eq!(parallel.flat_data(), sequential.flat_data());
        assert_eq!(par_stats.join_order, seq_stats.join_order);
        assert_eq!(
            par_stats.join_order.len(),
            2,
            "?z's 150 C edges are never joined"
        );
        assert_eq!(par_stats.embeddings, seq_stats.embeddings);
        assert!(
            par_stats.peak_intermediate < seq_stats.peak_intermediate,
            "each of the four workers held a quarter of the seeds"
        );
    }
}
