//! The edge-map storage backend: hash-map adjacency per predicate.
//!
//! The *unarranged* layout the workspace grew up with (and the one the
//! answer graph's own `PatternEdges` still uses): one
//! `HashMap<NodeId, Vec<NodeId>>` per direction per predicate, neighbor
//! vectors in edge-arrival order. Every lookup hashes the node and chases a
//! pointer to a separately allocated vector; membership probes scan;
//! full-predicate enumerations have to walk the map and materialize. It is
//! the measured point of comparison for [`CsrStore`](crate::csr::CsrStore) —
//! whose sorted, contiguous arrays turn those same operations into slices,
//! binary searches, and galloping intersections — see the `store_build`
//! bench, which builds both.
//!
//! Because the neighbor vectors are unsorted, this backend reports
//! [`neighbors_sorted`](crate::store::GraphStore::neighbors_sorted) as
//! `false` and the evaluators fall back to their probe-per-neighbor paths;
//! answers are identical either way (asserted by the store-equivalence
//! property tests).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use crate::ids::{NodeId, PredId};
use crate::store::{GraphStore, StoreKind};

/// One predicate's edges as forward/backward hash maps.
#[derive(Debug, Clone, Default)]
struct PredMap {
    forward: HashMap<NodeId, Vec<NodeId>>,
    backward: HashMap<NodeId, Vec<NodeId>>,
    len: usize,
    max_out_degree: usize,
    max_in_degree: usize,
}

impl PredMap {
    fn build(pairs: Vec<(NodeId, NodeId)>) -> Self {
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(pairs.len());
        let mut forward: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut backward: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        // Deduplicate while preserving arrival order: an edge map has no
        // reason to sort, so neighbor vectors stay as loaded.
        for (s, o) in pairs {
            if !seen.insert((s, o)) {
                continue;
            }
            forward.entry(s).or_default().push(o);
            backward.entry(o).or_default().push(s);
        }
        let len = seen.len();
        let max_out_degree = forward.values().map(Vec::len).max().unwrap_or(0);
        let max_in_degree = backward.values().map(Vec::len).max().unwrap_or(0);
        PredMap {
            forward,
            backward,
            len,
            max_out_degree,
            max_in_degree,
        }
    }
}

/// The hash-map storage backend. Selectable with `--store map`; exists as
/// the unarranged baseline layout against which the CSR store's compact
/// sorted adjacency is measured.
#[derive(Debug, Clone, Default)]
pub struct MapStore {
    predicates: Vec<PredMap>,
    num_triples: usize,
}

impl MapStore {
    /// Builds the store from per-predicate raw (possibly duplicated) edge
    /// lists. (`num_nodes` is irrelevant to the map layout but kept so both
    /// backends build from identical inputs.)
    pub fn build(_num_nodes: usize, edges_by_predicate: Vec<Vec<(NodeId, NodeId)>>) -> Self {
        let predicates: Vec<PredMap> = edges_by_predicate.into_iter().map(PredMap::build).collect();
        let num_triples = predicates.iter().map(|p| p.len).sum();
        MapStore {
            predicates,
            num_triples,
        }
    }

    #[inline]
    fn pred(&self, p: PredId) -> &PredMap {
        &self.predicates[p.index()]
    }
}

impl GraphStore for MapStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Map
    }

    fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    fn triple_count(&self) -> usize {
        self.num_triples
    }

    #[inline]
    fn cardinality(&self, p: PredId) -> usize {
        self.pred(p).len
    }

    fn pairs(&self, p: PredId) -> Cow<'_, [(NodeId, NodeId)]> {
        // No pair array to borrow: walk the forward map and materialize.
        let pred = self.pred(p);
        let mut out = Vec::with_capacity(pred.len);
        for (&s, objects) in &pred.forward {
            out.extend(objects.iter().map(|&o| (s, o)));
        }
        Cow::Owned(out)
    }

    fn neighbors_sorted(&self) -> bool {
        false
    }

    #[inline]
    fn objects_of(&self, p: PredId, s: NodeId) -> &[NodeId] {
        self.pred(p)
            .forward
            .get(&s)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    #[inline]
    fn subjects_of(&self, p: PredId, o: NodeId) -> &[NodeId] {
        self.pred(p)
            .backward
            .get(&o)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    #[inline]
    fn has_triple(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        self.objects_of(p, s).contains(&o)
    }

    fn distinct_subjects(&self, p: PredId) -> usize {
        self.pred(p).forward.len()
    }

    fn distinct_objects(&self, p: PredId) -> usize {
        self.pred(p).backward.len()
    }

    fn max_out_degree(&self, p: PredId) -> usize {
        self.pred(p).max_out_degree
    }

    fn max_in_degree(&self, p: PredId) -> usize {
        self.pred(p).max_in_degree
    }

    fn heap_bytes(&self) -> usize {
        fn map_bytes(m: &HashMap<NodeId, Vec<NodeId>>) -> usize {
            // Bucket array (key + value + control byte, approximated) plus
            // every neighbor vector's own allocation.
            m.capacity() * (std::mem::size_of::<(NodeId, Vec<NodeId>)>() + 1)
                + m.values()
                    .map(|v| v.capacity() * std::mem::size_of::<NodeId>())
                    .sum::<usize>()
        }
        self.predicates
            .iter()
            .map(|pred| map_bytes(&pred.forward) + map_bytes(&pred.backward))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn sample() -> MapStore {
        MapStore::build(
            5,
            vec![
                vec![
                    (n(0), n(2)),
                    (n(0), n(1)),
                    (n(1), n(2)),
                    (n(3), n(2)),
                    (n(0), n(1)),
                ],
                vec![],
            ],
        )
    }

    #[test]
    fn lookups_match_the_csr_semantics_as_sets() {
        let s = sample();
        let p = PredId(0);
        assert_eq!(s.cardinality(p), 4);
        assert!(!s.neighbors_sorted());
        // Arrival order is preserved, not sorted.
        assert_eq!(s.objects_of(p, n(0)), &[n(2), n(1)]);
        let mut subjects = s.subjects_of(p, n(2)).to_vec();
        subjects.sort_unstable();
        assert_eq!(subjects, vec![n(0), n(1), n(3)]);
        assert_eq!(s.objects_of(p, n(100)), &[] as &[NodeId]);
        assert!(s.has_triple(n(3), p, n(2)));
        assert!(!s.has_triple(n(2), p, n(3)));
        assert_eq!(s.distinct_subjects(p), 3);
        assert_eq!(s.distinct_objects(p), 2);
        assert_eq!(s.max_out_degree(p), 2);
        assert_eq!(s.max_in_degree(p), 3);
        assert_eq!(s.kind(), StoreKind::Map);
    }

    #[test]
    fn pairs_are_assembled_per_scan() {
        let s = sample();
        let mut pairs = s.pairs(PredId(0)).into_owned();
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![(n(0), n(1)), (n(0), n(2)), (n(1), n(2)), (n(3), n(2))]
        );
        assert!(matches!(s.pairs(PredId(0)), Cow::Owned(_)));
    }

    #[test]
    fn empty_predicate() {
        let s = sample();
        let q = PredId(1);
        assert_eq!(s.cardinality(q), 0);
        assert!(s.pairs(q).is_empty());
        assert_eq!(s.distinct_subjects(q), 0);
        assert!(s.heap_bytes() > 0);
    }
}
