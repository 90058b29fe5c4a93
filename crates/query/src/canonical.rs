//! Canonical forms and signatures of conjunctive queries.
//!
//! The query miner samples template instantiations; many of them are the same
//! query up to variable renaming or pattern reordering (e.g. a snowflake whose
//! two spokes swap places). A canonical signature lets the miner — and any
//! workload cache — deduplicate such queries cheaply. Two queries with the
//! same signature are isomorphic *as labeled query graphs* (same pattern
//! multiset under a consistent variable renaming); the signature is computed
//! by iterative partition refinement over the query graph, the standard
//! colour-refinement approach, which is exact for the tree-shaped and
//! single-cycle queries used throughout this workspace.
//!
//! # Refinement: its bound and its exit
//!
//! Every variable starts from a colour built from its incident predicates
//! and whether it is projected. One refinement round gives each variable an
//! *expanded* colour — its own colour followed by the sorted descriptors of
//! its incident patterns, each carrying the neighbour's colour — and then
//! names the expanded colours `c0`, `c1`, … in their byte order, so the
//! names do not depend on how the query numbered its variables. At most as
//! many rounds run as the query has variables, enough for colours to
//! propagate across any query graph; the names the last round hands out
//! are the variables' canonical colours, and they are part of the key.
//!
//! A round is a pure function of the names it is given, so once a round
//! gives back the names it was given, every later round would too: the
//! refinement stops there, holding exactly the names the full bound would
//! reach. The names decide that exit, not the number of classes. The
//! partition is stable as soon as the class count stops growing, but the
//! byte order ranks `(c10)` before `(c2)`, so with 11 or more classes the
//! names can keep permuting over a stable partition (on a 12-variable chain
//! with distinct predicates they cycle with period 5). Stopping on a stable
//! class count can hand out other names, and other keys, than the bound.

use wireframe_graph::PredId;

use crate::cq::ConjunctiveQuery;
use crate::term::{Term, Var};

/// A canonical signature of a query's structure and labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuerySignature(String);

impl QuerySignature {
    /// The signature as a string (stable across runs; suitable as a map key).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Computes the canonical signature of `query`.
pub fn signature(query: &ConjunctiveQuery) -> QuerySignature {
    let classes = refined_colors(query);

    // The signature: the sorted multiset of pattern descriptors under the
    // final colours, plus the sorted multiset of projected-variable colours
    // and the DISTINCT flag.
    let mut projection = projected_colors(query, &classes);
    projection.sort();
    render_key(query, &classes, "proj", &projection)
}

/// Computes an *order-sensitive* cache key for prepared-statement caches:
/// like [`signature`], but the projected variables keep their SELECT-clause
/// order (and orientation: a variable's canonical colour distinguishes, say,
/// chain sources from chain targets).
///
/// [`signature`] deliberately sorts the projection so that spoke-swapped
/// template instantiations deduplicate in the query miner; a plan cache must
/// NOT merge those, because `SELECT ?x ?z` and `SELECT ?z ?x` ask for
/// different column orders. Queries sharing a plan-cache key have identical
/// answer sets column for column (equal up to a colour-preserving
/// automorphism, under which the embedding set is closed).
pub fn plan_cache_key(query: &ConjunctiveQuery) -> QuerySignature {
    let classes = refined_colors(query);
    let projection = projected_colors(query, &classes);
    render_key(query, &classes, "proj-ordered", &projection)
}

/// The **predicate footprint** of a query: the sorted, deduplicated set of
/// predicate identifiers its patterns touch.
///
/// The footprint is invariant under everything the canonical forms quotient
/// away (variable renaming, pattern reordering, projection order), so two
/// queries sharing a [`plan_cache_key`] share a footprint — which is what
/// lets a prepared-plan cache invalidate by footprint when the data changes:
/// a mutation batch touching predicates `M` only affects cached plans whose
/// footprint intersects `M` ([`footprints_intersect`]).
pub fn predicate_footprint(query: &ConjunctiveQuery) -> Vec<PredId> {
    let mut preds: Vec<PredId> = query.patterns().iter().map(|p| p.predicate).collect();
    preds.sort_unstable();
    preds.dedup();
    preds
}

/// Whether two ascending-sorted footprints share a predicate (linear merge
/// probe; both inputs come from [`predicate_footprint`]).
pub fn footprints_intersect(a: &[PredId], b: &[PredId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The projected variables' final colours, in SELECT order.
fn projected_colors(query: &ConjunctiveQuery, classes: &[usize]) -> Strings {
    let len = query.projection().len();
    let mut projection = Strings::with_capacity(len, 4 * len);
    for v in query.projection() {
        projection.push_with(|text| push_labelled(text, "c", classes[v.index()]));
    }
    projection
}

/// `distinct=… edges=[…] {projection_label}=[…]`: the sorted pattern
/// descriptors under the final colours, then `projection` in its order.
fn render_key(
    query: &ConjunctiveQuery,
    classes: &[usize],
    projection_label: &str,
    projection: &Strings,
) -> QuerySignature {
    let end = |text: &mut String, t: Term| match t {
        Term::Var(v) => push_labelled(text, "c", classes[v.index()]),
        Term::Const(c) => push_labelled(text, "n", c.0 as usize),
    };
    let m = query.num_patterns();
    let mut edges = Strings::with_capacity(m, 16 * m);
    for p in query.patterns() {
        edges.push_with(|text| {
            end(text, p.subject);
            push_labelled(text, "--p", p.predicate.0 as usize);
            text.push_str("-->");
            end(text, p.object);
        });
    }
    edges.sort();
    let mut key = String::with_capacity(
        40 + edges.text.len() + m + projection.text.len() + projection.spans.len(),
    );
    key.push_str(if query.distinct() {
        "distinct=true edges=["
    } else {
        "distinct=false edges=["
    });
    edges.join_into(";", &mut key);
    key.push_str("] ");
    key.push_str(projection_label);
    key.push_str("=[");
    projection.join_into(";", &mut key);
    key.push(']');
    QuerySignature(key)
}

/// Runs iterative colour refinement over the query graph (see the module
/// docs for its bound and exit) and returns every variable's final colour
/// as the index of its name: variable `v` ends up coloured `c{classes[v]}`.
fn refined_colors(query: &ConjunctiveQuery) -> Vec<usize> {
    let n = query.num_vars();
    let incidences = Incidences::new(query);
    // Every name a round can hand out, rendered once.
    let mut names = Strings::with_capacity(n, 3 * n);
    for class in 0..n {
        names.push_with(|text| push_labelled(text, "c", class));
    }

    let mut classes = vec![0; n];
    let mut next = vec![0; n];
    let mut order: Vec<usize> = (0..n).collect();
    let mut parts = Strings::with_capacity(8, 256);
    let mut expanded = Strings::with_capacity(n, 128 * n);
    for round in 0..n.max(1) {
        let color = |v: usize| {
            if round == 0 {
                incidences.initial.get(v)
            } else {
                names.get(classes[v])
            }
        };
        // A variable's expanded colour: `(own colour)[sorted incidences]`,
        // each incidence ending in its neighbour's colour where it has one.
        expanded.clear();
        for v in 0..n {
            parts.clear();
            for i in incidences.of_var(v) {
                parts.push_with(|text| {
                    text.push_str(incidences.text.get(i));
                    if let Some(u) = incidences.neighbour[i] {
                        text.push_str(color(u));
                    }
                });
            }
            parts.sort();
            expanded.push_with(|text| {
                text.push('(');
                text.push_str(color(v));
                text.push_str(")[");
                parts.join_into(",", text);
                text.push(']');
            });
        }
        // Name the expanded colours densely in their byte order, so the
        // naming is independent of the query's variable numbering.
        order.sort_unstable_by(|&a, &b| expanded.get(a).cmp(expanded.get(b)));
        let mut class = 0;
        for (i, &v) in order.iter().enumerate() {
            if i > 0 && expanded.get(v) != expanded.get(order[i - 1]) {
                class += 1;
            }
            next[v] = class;
        }
        // The exact fixed point: this round gave back the names it was
        // given, so every later round would too.
        if round > 0 && next == classes {
            break;
        }
        std::mem::swap(&mut classes, &mut next);
    }
    classes
}

/// What refinement starts from and what no round changes: each variable's
/// initial colour and its incident patterns.
struct Incidences {
    /// Each variable's initial colour: whether it is projected, and the
    /// sorted multiset of (direction, predicate) of its incident patterns.
    initial: Strings,
    /// Each incidence's fixed text — `out:p3:`, `in:p1:`, `loop:p2`,
    /// `out-const:p0:n7`, `in-const:p4:n9` — grouped by variable.
    text: Strings,
    /// The variable whose colour completes each incidence's text, if any.
    neighbour: Vec<Option<usize>>,
    /// Variable `v`'s incidences are `first[v]..first[v + 1]`.
    first: Vec<usize>,
}

impl Incidences {
    fn new(query: &ConjunctiveQuery) -> Incidences {
        let (n, m) = (query.num_vars(), query.num_patterns());
        let mut incidences = Incidences {
            initial: Strings::with_capacity(n, 40 * n),
            text: Strings::with_capacity(2 * m, 16 * m),
            neighbour: Vec::with_capacity(2 * m),
            first: Vec::with_capacity(n + 1),
        };
        let mut parts = Strings::with_capacity(8, 64);
        for v in query.variables() {
            incidences.first.push(incidences.neighbour.len());
            parts.clear();
            for p in query.patterns() {
                let pred = p.predicate.0 as usize;
                for (end, side) in [(p.subject, "s:p"), (p.object, "o:p")] {
                    if end.as_var() == Some(v) {
                        parts.push_with(|text| push_labelled(text, side, pred));
                    }
                }
                let (kind, neighbour, constant) = match (p.subject, p.object) {
                    (Term::Var(a), Term::Var(b)) if a == v && b == v => ("loop:p", None, None),
                    (Term::Var(a), Term::Var(b)) if a == v => ("out:p", Some(b), None),
                    (Term::Var(a), Term::Var(b)) if b == v => ("in:p", Some(a), None),
                    (Term::Var(a), Term::Const(c)) if a == v => ("out-const:p", None, Some(c)),
                    (Term::Const(c), Term::Var(b)) if b == v => ("in-const:p", None, Some(c)),
                    _ => continue,
                };
                incidences.text.push_with(|text| {
                    push_labelled(text, kind, pred);
                    if let Some(c) = constant {
                        push_labelled(text, ":n", c.0 as usize);
                    }
                    if neighbour.is_some() {
                        text.push(':');
                    }
                });
                incidences.neighbour.push(neighbour.map(Var::index));
            }
            parts.sort();
            let projected = query.projection().contains(&v);
            incidences.initial.push_with(|text| {
                text.push_str(if projected {
                    "proj=true;"
                } else {
                    "proj=false;"
                });
                parts.join_into(",", text);
            });
        }
        incidences.first.push(incidences.neighbour.len());
        incidences
    }

    fn of_var(&self, v: usize) -> std::ops::Range<usize> {
        self.first[v]..self.first[v + 1]
    }
}

/// Short strings written back to back into one buffer and addressed by byte
/// range, so building, sorting and joining them allocates nothing per string.
///
/// Callers size each buffer generously up front: regrowing them from empty
/// took about half of a key's cost.
struct Strings {
    text: String,
    spans: Vec<(usize, usize)>,
}

impl Strings {
    fn with_capacity(strings: usize, bytes: usize) -> Strings {
        Strings {
            text: String::with_capacity(bytes),
            spans: Vec::with_capacity(strings),
        }
    }

    fn get(&self, i: usize) -> &str {
        let (start, end) = self.spans[i];
        &self.text[start..end]
    }

    fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
    }

    /// Appends one string, built in place by `build`.
    fn push_with(&mut self, build: impl FnOnce(&mut String)) {
        let start = self.text.len();
        build(&mut self.text);
        self.spans.push((start, self.text.len()));
    }

    /// Sorts the strings by their bytes — the order of `String`'s `Ord`.
    fn sort(&mut self) {
        let text = self.text.as_bytes();
        self.spans
            .sort_unstable_by(|&(a, b), &(c, d)| text[a..b].cmp(&text[c..d]));
    }

    /// Appends the strings to `out` in their current order, `sep` between.
    fn join_into(&self, sep: &str, out: &mut String) {
        for i in 0..self.spans.len() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(self.get(i));
        }
    }
}

/// Appends `label` and then `n` in decimal, as `format!("{label}{n}")`
/// would, without the formatting machinery: a key renders dozens of small
/// numbers, and through `format!` they cost as much as the refinement rounds.
fn push_labelled(out: &mut String, label: &str, n: usize) {
    out.push_str(label);
    push_decimal(out, n);
}

fn push_decimal(out: &mut String, n: usize) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// Whether two queries have the same canonical signature (structurally
/// equivalent up to variable renaming and pattern order).
pub fn equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    signature(a) == signature(b)
}

/// Exact isomorphism test with ordered-projection correspondence: whether a
/// variable bijection `f` exists with `f(a.proj[i]) = b.proj[i]` for every
/// projection position, mapping `a`'s pattern multiset onto `b`'s (same
/// predicates, directions and constants), with matching DISTINCT flags.
///
/// Colour refinement ([`signature`] / [`plan_cache_key`]) is a 1-WL test: it
/// never separates isomorphic queries but — like all 1-WL tests — can fail
/// to separate certain non-isomorphic ones (a 6-cycle and two disjoint
/// triangles over one predicate colour identically). Callers that *reuse
/// results* across queries, such as a prepared-query cache, must confirm a
/// colour-level match with this exact test. Backtracking over the pattern
/// multiset; cheap for the small CQs this workspace evaluates (≤ ~10
/// patterns).
pub fn isomorphic(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    if a.num_patterns() != b.num_patterns()
        || a.num_vars() != b.num_vars()
        || a.distinct() != b.distinct()
        || a.projection().len() != b.projection().len()
    {
        return false;
    }
    // Seed the bijection with the position-wise projection correspondence.
    let mut map: Vec<Option<Var>> = vec![None; a.num_vars()];
    let mut rmap: Vec<Option<Var>> = vec![None; b.num_vars()];
    for (&av, &bv) in a.projection().iter().zip(b.projection()) {
        if !bind(&mut map, &mut rmap, av, bv) {
            return false;
        }
    }
    let mut used = vec![false; b.num_patterns()];
    match_patterns(a, b, 0, &mut used, &mut map, &mut rmap)
}

/// Binds `av ↔ bv` in the bijection; false on conflict.
fn bind(map: &mut [Option<Var>], rmap: &mut [Option<Var>], av: Var, bv: Var) -> bool {
    match (map[av.index()], rmap[bv.index()]) {
        (None, None) => {
            map[av.index()] = Some(bv);
            rmap[bv.index()] = Some(av);
            true
        }
        (Some(existing), _) => existing == bv,
        (None, Some(_)) => false,
    }
}

/// Matches `a`'s pattern `i` onwards against unused patterns of `b`,
/// extending the variable bijection consistently.
fn match_patterns(
    a: &ConjunctiveQuery,
    b: &ConjunctiveQuery,
    i: usize,
    used: &mut [bool],
    map: &mut [Option<Var>],
    rmap: &mut [Option<Var>],
) -> bool {
    if i == a.num_patterns() {
        return true;
    }
    let pa = &a.patterns()[i];
    for j in 0..b.num_patterns() {
        if used[j] {
            continue;
        }
        let pb = &b.patterns()[j];
        if pa.predicate != pb.predicate {
            continue;
        }
        // Tentatively extend the bijection; remember what to undo.
        let mut added: Vec<(usize, usize)> = Vec::new();
        let mut ok = true;
        for (ta, tb) in [(pa.subject, pb.subject), (pa.object, pb.object)] {
            match (ta, tb) {
                (Term::Const(ca), Term::Const(cb)) => ok &= ca == cb,
                (Term::Var(va), Term::Var(vb)) => {
                    let fresh = map[va.index()].is_none() && rmap[vb.index()].is_none();
                    ok &= bind(map, rmap, va, vb);
                    if ok && fresh {
                        added.push((va.index(), vb.index()));
                    }
                }
                _ => ok = false,
            }
            if !ok {
                break;
            }
        }
        if ok {
            used[j] = true;
            if match_patterns(a, b, i + 1, used, map, rmap) {
                return true;
            }
            used[j] = false;
        }
        for (ai, bi) in added {
            map[ai] = None;
            rmap[bi] = None;
        }
    }
    false
}

/// The refinement as it stood before its exact fixed-point exit: one
/// `String` per part and per colour, and always as many rounds as the query
/// has variables. Kept verbatim as the oracle the rewrite must match byte for
/// byte.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use super::QuerySignature;
    use crate::cq::ConjunctiveQuery;
    use crate::term::{Term, Var};

    pub fn signature(query: &ConjunctiveQuery) -> QuerySignature {
        let colors = refined_colors(query);

        // The signature: the sorted multiset of pattern descriptors under the
        // final colours, plus the sorted multiset of projected-variable colours
        // and the DISTINCT flag.
        let mut projection: Vec<String> = query
            .projection()
            .iter()
            .map(|v| colors[v.index()].clone())
            .collect();
        projection.sort();
        QuerySignature(format!(
            "distinct={} edges=[{}] proj=[{}]",
            query.distinct(),
            edge_descriptors(query, &colors).join(";"),
            projection.join(";")
        ))
    }

    pub fn plan_cache_key(query: &ConjunctiveQuery) -> QuerySignature {
        let colors = refined_colors(query);
        let projection: Vec<String> = query
            .projection()
            .iter()
            .map(|v| colors[v.index()].clone())
            .collect();
        QuerySignature(format!(
            "distinct={} edges=[{}] proj-ordered=[{}]",
            query.distinct(),
            edge_descriptors(query, &colors).join(";"),
            projection.join(";")
        ))
    }

    /// Sorted pattern descriptors of `query` under final colours.
    fn edge_descriptors(query: &ConjunctiveQuery, colors: &[String]) -> Vec<String> {
        let mut edges: Vec<String> = query
            .patterns()
            .iter()
            .map(|p| {
                let end = |t: Term| match t {
                    Term::Var(v) => colors[v.index()].clone(),
                    Term::Const(c) => format!("n{}", c.0),
                };
                format!("{}--p{}-->{}", end(p.subject), p.predicate.0, end(p.object))
            })
            .collect();
        edges.sort();
        edges
    }

    /// Runs iterative colour refinement over the query graph and returns the
    /// final canonical colour of every variable.
    fn refined_colors(query: &ConjunctiveQuery) -> Vec<String> {
        // Initial colour of a variable: multiset of (direction, predicate) of its
        // incident patterns, plus how often it occurs as subject/object of each.
        let mut colors: Vec<String> = (0..query.num_vars() as u32)
            .map(|v| initial_color(query, Var(v)))
            .collect();

        // Refine: a variable's colour becomes (own colour, sorted multiset of
        // (edge descriptor, neighbour colour)). Iterate as many times as there are
        // variables — enough for colour propagation across any simple query graph.
        for _ in 0..query.num_vars().max(1) {
            let mut next = Vec::with_capacity(colors.len());
            for v in 0..query.num_vars() as u32 {
                let v = Var(v);
                let mut neighbour_part: Vec<String> = Vec::new();
                for p in query.patterns() {
                    let (s, o) = (p.subject, p.object);
                    match (s, o) {
                        (Term::Var(a), Term::Var(b)) if a == v && b == v => {
                            neighbour_part.push(format!("loop:p{}", p.predicate.0));
                        }
                        (Term::Var(a), Term::Var(b)) if a == v => {
                            neighbour_part.push(format!(
                                "out:p{}:{}",
                                p.predicate.0,
                                colors[b.index()]
                            ));
                        }
                        (Term::Var(a), Term::Var(b)) if b == v => {
                            neighbour_part.push(format!(
                                "in:p{}:{}",
                                p.predicate.0,
                                colors[a.index()]
                            ));
                        }
                        (Term::Var(a), Term::Const(c)) if a == v => {
                            neighbour_part.push(format!("out-const:p{}:n{}", p.predicate.0, c.0));
                        }
                        (Term::Const(c), Term::Var(b)) if b == v => {
                            neighbour_part.push(format!("in-const:p{}:n{}", p.predicate.0, c.0));
                        }
                        _ => {}
                    }
                }
                neighbour_part.sort();
                next.push(format!(
                    "({})[{}]",
                    colors[v.index()],
                    neighbour_part.join(",")
                ));
            }
            // Compress colours to small dense names, assigned by the sorted order
            // of the expanded colour strings so the naming is independent of the
            // query's variable numbering.
            let mut distinct = next.clone();
            distinct.sort();
            distinct.dedup();
            let rename: BTreeMap<&String, usize> =
                distinct.iter().enumerate().map(|(i, c)| (c, i)).collect();
            colors = next.iter().map(|c| format!("c{}", rename[c])).collect();
        }
        colors
    }

    fn initial_color(query: &ConjunctiveQuery, v: Var) -> String {
        let mut parts: Vec<String> = Vec::new();
        for p in query.patterns() {
            if p.subject.as_var() == Some(v) {
                parts.push(format!("s:p{}", p.predicate.0));
            }
            if p.object.as_var() == Some(v) {
                parts.push(format!("o:p{}", p.predicate.0));
            }
        }
        parts.sort();
        let projected = query.projection().contains(&v);
        format!("proj={projected};{}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CqBuilder, TriplePattern};
    use wireframe_graph::{Dictionary, GraphBuilder, NodeId};

    fn dict() -> Dictionary {
        let mut b = GraphBuilder::new();
        for p in ["A", "B", "C", "D"] {
            b.add("x", p, "y");
        }
        b.build().dictionary().clone()
    }

    fn build(patterns: &[(&str, &str, &str)]) -> ConjunctiveQuery {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        for (s, p, o) in patterns {
            b.pattern(s, p, o).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn renamed_variables_are_equivalent() {
        let a = build(&[("?x", "A", "?y"), ("?y", "B", "?z")]);
        let b = build(&[("?u", "A", "?v"), ("?v", "B", "?w")]);
        assert!(equivalent(&a, &b));
        assert_eq!(signature(&a), signature(&b));
    }

    #[test]
    fn reordered_patterns_are_equivalent() {
        let a = build(&[("?x", "A", "?y"), ("?x", "B", "?z")]);
        let b = build(&[("?x", "B", "?z"), ("?x", "A", "?y")]);
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn different_labels_are_not_equivalent() {
        let a = build(&[("?x", "A", "?y"), ("?y", "B", "?z")]);
        let b = build(&[("?x", "A", "?y"), ("?y", "C", "?z")]);
        assert!(!equivalent(&a, &b));
    }

    #[test]
    fn direction_matters() {
        let a = build(&[("?x", "A", "?y")]);
        let b = build(&[("?y", "A", "?x")]);
        // A single edge is symmetric under renaming, so these ARE equivalent…
        assert!(equivalent(&a, &b));
        // …but a chain and its reversal with distinct labels are not.
        let c = build(&[("?x", "A", "?y"), ("?y", "B", "?z")]);
        let d = build(&[("?x", "B", "?y"), ("?y", "A", "?z")]);
        assert!(!equivalent(&c, &d));
    }

    #[test]
    fn star_spoke_swap_is_equivalent() {
        let a = build(&[("?h", "A", "?l1"), ("?h", "B", "?l2"), ("?h", "C", "?l3")]);
        let b = build(&[("?h", "C", "?x"), ("?h", "A", "?y"), ("?h", "B", "?z")]);
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn diamond_vs_square_of_same_labels() {
        // Diamond: x->y, x->z, y->w, z->w. Chain-square: x->y->w<-z<-x is the
        // same shape; a genuinely different wiring (a path) must differ.
        let diamond = build(&[
            ("?x", "A", "?y"),
            ("?x", "B", "?z"),
            ("?y", "C", "?w"),
            ("?z", "D", "?w"),
        ]);
        let path = build(&[
            ("?x", "A", "?y"),
            ("?y", "B", "?z"),
            ("?z", "C", "?w"),
            ("?w", "D", "?v"),
        ]);
        assert!(!equivalent(&diamond, &path));
    }

    #[test]
    fn distinct_flag_and_projection_participate() {
        let d = dict();
        let mut b1 = CqBuilder::new(&d);
        b1.project("?x");
        b1.pattern("?x", "A", "?y").unwrap();
        let q1 = b1.build().unwrap();
        let mut b2 = CqBuilder::new(&d);
        b2.project("?y");
        b2.pattern("?x", "A", "?y").unwrap();
        let q2 = b2.build().unwrap();
        assert!(
            !equivalent(&q1, &q2),
            "projecting the source vs the target differs"
        );

        let mut b3 = CqBuilder::new(&d);
        b3.distinct();
        b3.project("?x");
        b3.pattern("?x", "A", "?y").unwrap();
        let q3 = b3.build().unwrap();
        assert!(!equivalent(&q1, &q3), "DISTINCT is part of the signature");
    }

    #[test]
    fn plan_cache_key_distinguishes_projection_order() {
        let d = dict();
        let build_proj = |proj: [&str; 2]| {
            let mut b = CqBuilder::new(&d);
            for p in proj {
                b.project(p);
            }
            b.pattern("?x", "A", "?y").unwrap();
            b.pattern("?y", "B", "?z").unwrap();
            b.build().unwrap()
        };
        let xz = build_proj(["x", "z"]);
        let zx = build_proj(["z", "x"]);
        // The miner's signature deduplicates them…
        assert_eq!(signature(&xz), signature(&zx));
        // …but a plan cache must not: the column orders differ.
        assert_ne!(plan_cache_key(&xz), plan_cache_key(&zx));
        // Same text-level query still shares one key.
        assert_eq!(plan_cache_key(&xz), plan_cache_key(&build_proj(["x", "z"])));
    }

    #[test]
    fn plan_cache_key_distinguishes_orientation() {
        // `?x :A ?y` projecting (x, y) vs `?y :A ?x` projecting (x, y): the
        // signatures agree (isomorphic), but x is the source in one and the
        // target in the other — a cache hit would swap columns.
        let d = dict();
        let mut b1 = CqBuilder::new(&d);
        b1.project("x");
        b1.project("y");
        b1.pattern("?x", "A", "?y").unwrap();
        let q1 = b1.build().unwrap();
        let mut b2 = CqBuilder::new(&d);
        b2.project("x");
        b2.project("y");
        b2.pattern("?y", "A", "?x").unwrap();
        let q2 = b2.build().unwrap();
        assert!(equivalent(&q1, &q2));
        assert_ne!(plan_cache_key(&q1), plan_cache_key(&q2));
    }

    #[test]
    fn plan_cache_key_still_merges_reordered_patterns() {
        // Same explicit projection, pattern order swapped: one cache entry.
        let d = dict();
        let build_ordered = |patterns: [(&str, &str, &str); 2]| {
            let mut b = CqBuilder::new(&d);
            b.project("x");
            b.project("y");
            for (s, p, o) in patterns {
                b.pattern(s, p, o).unwrap();
            }
            b.build().unwrap()
        };
        let a = build_ordered([("?x", "A", "?y"), ("?x", "B", "?z")]);
        let b = build_ordered([("?x", "B", "?z"), ("?x", "A", "?y")]);
        assert_eq!(plan_cache_key(&a), plan_cache_key(&b));
    }

    #[test]
    fn isomorphic_agrees_with_structural_equality() {
        // Renamed + reordered with matching explicit projection order.
        let d = dict();
        let build_named = |proj: &[&str], pats: &[(&str, &str, &str)]| {
            let mut b = CqBuilder::new(&d);
            for p in proj {
                b.project(p);
            }
            for (s, p, o) in pats {
                b.pattern(s, p, o).unwrap();
            }
            b.build().unwrap()
        };
        let a = build_named(&["x", "z"], &[("?x", "A", "?y"), ("?y", "B", "?z")]);
        let b = build_named(&["u", "w"], &[("?v", "B", "?w"), ("?u", "A", "?v")]);
        assert!(isomorphic(&a, &b));
        // Swapped projection order is NOT isomorphic under the ordered
        // correspondence.
        let c = build_named(&["z", "x"], &[("?x", "A", "?y"), ("?y", "B", "?z")]);
        assert!(!isomorphic(&a, &c));
        // Different labels are not isomorphic.
        let e = build_named(&["x", "z"], &[("?x", "A", "?y"), ("?y", "C", "?z")]);
        assert!(!isomorphic(&a, &e));
    }

    #[test]
    fn colour_refinement_gap_is_caught_by_isomorphic() {
        // The classic 1-WL failure: a directed 6-cycle and two disjoint
        // directed triangles over one predicate refine to identical colours,
        // so their plan-cache keys collide — but they are not isomorphic
        // (one is connected, the other is not), and a prepared-query cache
        // must not conflate them.
        let d = dict();
        let mut b6 = CqBuilder::new(&d);
        for i in 0..6 {
            b6.pattern(&format!("?v{i}"), "A", &format!("?v{}", (i + 1) % 6))
                .unwrap();
        }
        let cycle6 = b6.build().unwrap();

        let mut b33 = CqBuilder::new(&d);
        for i in 0..3 {
            b33.pattern(&format!("?s{i}"), "A", &format!("?s{}", (i + 1) % 3))
                .unwrap();
        }
        for i in 0..3 {
            b33.pattern(&format!("?t{i}"), "A", &format!("?t{}", (i + 1) % 3))
                .unwrap();
        }
        let triangles = b33.build().unwrap();

        assert_eq!(
            plan_cache_key(&cycle6),
            plan_cache_key(&triangles),
            "1-WL cannot separate these (that is the point of this test)"
        );
        assert!(!isomorphic(&cycle6, &triangles));
        assert!(isomorphic(&cycle6, &cycle6));
    }

    #[test]
    fn constants_participate() {
        let d = dict();
        let mut b1 = CqBuilder::new(&d);
        b1.pattern("?a", "A", "x").unwrap();
        let q1 = b1.build().unwrap();
        let mut b2 = CqBuilder::new(&d);
        b2.pattern("?a", "A", "y").unwrap();
        let q2 = b2.build().unwrap();
        assert!(!equivalent(&q1, &q2));
    }

    #[test]
    fn footprints_are_sorted_deduped_and_intersect_correctly() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        b.pattern("?x", "B", "?y").unwrap();
        b.pattern("?y", "A", "?z").unwrap();
        b.pattern("?z", "B", "?w").unwrap();
        let q = b.build().unwrap();
        let fp = predicate_footprint(&q);
        assert_eq!(fp.len(), 2, "duplicate predicate B collapses");
        assert!(fp.windows(2).all(|w| w[0] < w[1]), "ascending");
        let a = d.predicate_id("A").unwrap();
        let c = d.predicate_id("C").unwrap();
        assert!(footprints_intersect(&fp, &[a]));
        assert!(!footprints_intersect(&fp, &[c]));
        assert!(!footprints_intersect(&fp, &[]));
        assert!(!footprints_intersect(&[], &[]));

        // Isomorphic variants (renamed, reordered) share the footprint.
        let mut b2 = CqBuilder::new(&d);
        b2.pattern("?q", "A", "?r").unwrap();
        b2.pattern("?p", "B", "?q").unwrap();
        b2.pattern("?r", "B", "?s").unwrap();
        let q2 = b2.build().unwrap();
        assert_eq!(fp, predicate_footprint(&q2));
    }

    /// A seeded xorshift64 generator: this crate has no dev-dependencies.
    struct XorShift(u64);

    impl XorShift {
        fn new(seed: u64) -> Self {
            XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }

        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    fn var(i: usize) -> Term {
        Term::Var(Var(i as u32))
    }

    fn var_names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    /// Predicate and constant ids: multi-digit ones check the decimal
    /// rendering, and `1 < 10 < 2` in byte order checks the sorts.
    const IDS: [u32; 4] = [1, 10, 2, u32::MAX];

    fn random_pred(rng: &mut XorShift, preds: usize) -> PredId {
        PredId(IDS[rng.below(preds)])
    }

    /// A pattern between `a` and `b` in a random direction, over one of
    /// `preds` predicates.
    fn random_edge(rng: &mut XorShift, preds: usize, a: Term, b: Term) -> TriplePattern {
        let p = random_pred(rng, preds);
        if rng.one_in(2) {
            TriplePattern::new(a, p, b)
        } else {
            TriplePattern::new(b, p, a)
        }
    }

    /// `patterns` over `n` variables with a random ordered projection of
    /// random length (empty included) and a random DISTINCT flag.
    fn with_random_projection(
        rng: &mut XorShift,
        n: usize,
        patterns: Vec<TriplePattern>,
    ) -> ConjunctiveQuery {
        let mut projection: Vec<Var> = (0..n as u32).map(Var).collect();
        rng.shuffle(&mut projection);
        projection.truncate(rng.below(n + 1));
        ConjunctiveQuery::new(patterns, projection, rng.one_in(2), var_names(n)).unwrap()
    }

    /// 1–14 variables over 1–4 predicates (few predicates make symmetric
    /// colourings common): one random tree, or two disconnected ones, plus
    /// extra edges — cycles, parallel edges, self-loops — and variable–
    /// constant patterns.
    fn random_query(rng: &mut XorShift) -> ConjunctiveQuery {
        let n = 1 + rng.below(14);
        let preds = 1 + rng.below(4);
        // Variables from `split` on form a second tree, disconnected from
        // the first.
        let split = if n > 1 && rng.one_in(4) {
            1 + rng.below(n - 1)
        } else {
            n
        };
        let mut patterns = Vec::new();
        for i in (1..n).filter(|&i| i != split) {
            let root = if i > split { split } else { 0 };
            let parent = root + rng.below(i - root);
            patterns.push(random_edge(rng, preds, var(parent), var(i)));
        }
        for _ in 0..rng.below(4) {
            let (a, b) = (rng.below(n), rng.below(n));
            patterns.push(random_edge(rng, preds, var(a), var(b)));
        }
        for _ in 0..rng.below(3) {
            let (a, c) = (rng.below(n), NodeId(IDS[rng.below(IDS.len())]));
            patterns.push(random_edge(rng, preds, var(a), Term::Const(c)));
        }
        if patterns.is_empty() {
            patterns.push(random_edge(rng, preds, var(0), var(0)));
        }
        with_random_projection(rng, n, patterns)
    }

    /// A snowflake (a hub with 2–4 two-hop branches) or a diamond over 1–4
    /// predicates, then `renamings` copies of it, each with its variables
    /// renamed and its patterns reordered at random.
    fn renamed_templates(rng: &mut XorShift, renamings: usize) -> Vec<ConjunctiveQuery> {
        let preds = 1 + rng.below(4);
        let (n, edges): (usize, Vec<(usize, usize)>) = if rng.one_in(2) {
            let branches = 2 + rng.below(3);
            let edges = (0..branches)
                .flat_map(|b| [(0, 2 * b + 1), (2 * b + 1, 2 * b + 2)])
                .collect();
            (1 + 2 * branches, edges)
        } else {
            (4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
        };
        let base: Vec<TriplePattern> = edges
            .into_iter()
            .map(|(s, o)| TriplePattern::new(var(s), random_pred(rng, preds), var(o)))
            .collect();
        let base = with_random_projection(rng, n, base);
        (0..renamings)
            .map(|_| {
                let mut rename: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut rename);
                let to = |t: Term| var(rename[t.as_var().unwrap().index()]);
                let mut patterns: Vec<TriplePattern> = base
                    .patterns()
                    .iter()
                    .map(|p| TriplePattern::new(to(p.subject), p.predicate, to(p.object)))
                    .collect();
                rng.shuffle(&mut patterns);
                let projection = base
                    .projection()
                    .iter()
                    .map(|v| Var(rename[v.index()] as u32));
                let projection = projection.collect();
                ConjunctiveQuery::new(patterns, projection, base.distinct(), var_names(n)).unwrap()
            })
            .collect()
    }

    /// Checks `plan_cache_key` and `signature` byte for byte against the
    /// oracle; returns how many colour classes refinement ended with.
    fn assert_matches_oracle(query: &ConjunctiveQuery) -> usize {
        assert_eq!(
            plan_cache_key(query),
            oracle::plan_cache_key(query),
            "plan_cache_key of {query}"
        );
        assert_eq!(
            signature(query),
            oracle::signature(query),
            "signature of {query}"
        );
        refined_colors(query).into_iter().max().map_or(0, |c| c + 1)
    }

    fn check_against_oracle(seeds: std::ops::Range<u64>) {
        let (mut cases, mut wide) = (0, 0);
        for seed in seeds {
            let mut rng = XorShift::new(seed);
            for _ in 0..4 {
                cases += 1;
                wide += usize::from(assert_matches_oracle(&random_query(&mut rng)) > 10);
            }
            let renamed = renamed_templates(&mut rng, 3);
            for query in &renamed {
                assert_matches_oracle(query);
                assert_eq!(plan_cache_key(query), plan_cache_key(&renamed[0]));
            }
        }
        // Names only keep permuting over a stable partition from 11 classes
        // on; the generator must reach that regime often.
        assert!(
            wide * 10 >= cases,
            "{wide} of {cases} queries had > 10 classes"
        );
    }

    #[test]
    fn refinement_matches_the_string_oracle_byte_for_byte() {
        // Refinement that stopped as soon as its class count stopped
        // growing would give this query another key: its 11 classes are
        // stable after one round, but their names keep permuting.
        let edges = [
            (0, 1, 1),
            (2, 0, 1),
            (3, 0, 4),
            (5, 0, 3),
            (3, 0, 6),
            (7, 1, 6),
            (3, 0, 8),
            (9, 1, 8),
            (9, 0, 10),
        ];
        let patterns = edges
            .iter()
            .map(|&(s, p, o)| TriplePattern::new(var(s), PredId(p), var(o)))
            .collect();
        let projection = [9, 5, 8, 4, 1, 6, 2, 10].map(Var).to_vec();
        let query = ConjunctiveQuery::new(patterns, projection, false, var_names(11)).unwrap();
        assert_eq!(assert_matches_oracle(&query), 11);

        check_against_oracle(0..1_000);
    }

    #[test]
    #[ignore = "the same property over 50x the seeds; run with --release -- --ignored"]
    fn refinement_matches_the_string_oracle_over_many_seeds() {
        check_against_oracle(0..50_000);
    }
}
