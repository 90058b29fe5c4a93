//! The CSR (compressed sparse row) storage backend.
//!
//! Per predicate, each adjacency direction is three arrays:
//!
//! * a **rank directory** of 64-node blocks, each `{ rank, bits }`: one bit
//!   per node of the block that has edges in this direction, plus the number
//!   of such nodes in all earlier blocks;
//! * `offsets`, one per node that has edges (in node order) plus a closing
//!   one, indexing into
//! * `targets`, the neighbor lists, sorted within every node's range.
//!
//! A lookup of node `v` reads block `v / 64`, tests `v`'s bit, and takes
//! `slot = rank + popcount(bits & (bit - 1))`; `offsets[slot]..offsets[slot + 1]`
//! slices `targets`. That is one block read, a popcount and two offset
//! reads — O(1), no hashing, no search — and an id past the directory or
//! with a cleared bit (including ids interned after the build) gets `&[]`.
//! The popcount is a rank stored per 16-bit chunk of the block plus two
//! byte-table reads, all within the block's 16 bytes. The distinct
//! `(subject, object)` pairs are also kept sorted for full scans.
//! Membership probes binary-search a contiguous neighbor range, which is
//! what lets the evaluators' galloping intersections ([`crate::slices`])
//! pay off.
//!
//! Offsets are stored only for the nodes that have edges, not for the whole
//! node space; the directory costs 16 bytes per 64 nodes per direction, up
//! to the largest node with edges. On the 305 226-triple benchmark graph
//! (61 761 nodes, 104 predicates, most of which touch a few hundred nodes)
//! an `offsets` array over every node cost 187 heap bytes per triple; this
//! layout costs 31.

use crate::ids::{NodeId, PredId};
use crate::slices::contains_sorted;
use crate::store::{GraphStore, StoreKind};

/// One 64-node block of a [`Csr`]'s rank directory.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    /// Bit `i` is set when node `64 * block + i` has edges.
    bits: u64,
    /// Number of nodes with edges in all earlier blocks: the `offsets` slot
    /// of this block's first such node.
    rank: u32,
    /// `chunk_ranks[c]` counts the set bits of `bits` below its 16-bit
    /// chunk `c`, in what would otherwise be padding.
    chunk_ranks: [u8; 4],
}

const _: () = assert!(std::mem::size_of::<Block>() == 16);

/// Set bits per byte value. The in-chunk rank reads this table twice:
/// `count_ones` is a dozen dependent instructions on x86-64 builds without
/// the `popcnt` target feature, which is most of a cache-hot lookup.
static BYTE_ONES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = (i as u32).count_ones() as u8;
        i += 1;
    }
    table
};

/// Adjacency in one direction for a single predicate: a rank directory over
/// the node-identifier space, and CSR offsets over the nodes that have edges.
#[derive(Debug, Clone)]
struct Csr {
    /// Blocks up to the one holding the largest source node.
    directory: Vec<Block>,
    /// `offsets[slot]..offsets[slot + 1]` indexes into `targets` for the
    /// `slot`-th source node (in node order); one more than the sources.
    offsets: Vec<u32>,
    /// Neighbor lists, sorted within each source node's range.
    targets: Vec<NodeId>,
}

impl Csr {
    /// Builds one direction from `(source, target)` pairs that are already
    /// sorted by source (targets sorted within each source run) and deduped.
    fn from_sorted(pairs: &[(NodeId, NodeId)]) -> Self {
        assert!(
            u32::try_from(pairs.len()).is_ok(),
            "u32 offsets address fewer than 2^32 edges per predicate"
        );
        let blocks = pairs.last().map_or(0, |&(src, _)| src.index() / 64 + 1);
        let mut directory = vec![Block::default(); blocks];
        for &(src, _) in pairs {
            directory[src.index() / 64].bits |= 1 << (src.index() % 64);
        }
        let mut sources = 0u32;
        for block in &mut directory {
            block.rank = sources;
            for c in 1..4 {
                block.chunk_ranks[c] = (block.bits & ((1 << (16 * c)) - 1)).count_ones() as u8;
            }
            sources += block.bits.count_ones();
        }
        let mut offsets = Vec::with_capacity(sources as usize + 1);
        let mut prev = None;
        for (i, &(src, _)) in pairs.iter().enumerate() {
            if prev != Some(src) {
                offsets.push(i as u32);
                prev = Some(src);
            }
        }
        offsets.push(pairs.len() as u32);
        let targets = pairs.iter().map(|&(_, dst)| dst).collect();
        Csr {
            directory,
            offsets,
            targets,
        }
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        let Some(block) = self.directory.get(i / 64) else {
            return &[];
        };
        let chunk = (i % 64) / 16;
        let bits = (block.bits >> (16 * chunk)) as u16;
        let bit = 1u16 << (i % 16);
        if bits & bit == 0 {
            return &[];
        }
        let below = bits & (bit - 1);
        let slot = block.rank as usize
            + block.chunk_ranks[chunk] as usize
            + BYTE_ONES[usize::from(below & 0xff)] as usize
            + BYTE_ONES[usize::from(below >> 8)] as usize;
        let lo = self.offsets[slot] as usize;
        let hi = self.offsets[slot + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Number of distinct source nodes.
    fn sources(&self) -> usize {
        self.offsets.len() - 1
    }

    fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    fn heap_bytes(&self) -> usize {
        self.directory.capacity() * std::mem::size_of::<Block>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// One predicate's edges in CSR form, indexed in both directions.
#[derive(Debug, Clone)]
struct PredCsr {
    /// Distinct `(subject, object)` pairs, sorted by `(subject, object)`.
    pairs: Vec<(NodeId, NodeId)>,
    forward: Csr,
    backward: Csr,
}

impl PredCsr {
    fn build(mut pairs: Vec<(NodeId, NodeId)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        pairs.shrink_to_fit();
        let forward = Csr::from_sorted(&pairs);
        let mut reversed: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
        reversed.sort_unstable();
        let backward = Csr::from_sorted(&reversed);
        PredCsr {
            pairs,
            forward,
            backward,
        }
    }
}

/// The CSR storage backend: every predicate's forward and reverse adjacency
/// in sorted, contiguous arrays, built once and immutable afterwards.
#[derive(Debug, Clone, Default)]
pub struct CsrStore {
    predicates: Vec<PredCsr>,
    num_triples: usize,
}

impl CsrStore {
    /// Builds the store from per-predicate raw (possibly duplicated) edge
    /// lists. `num_nodes` is the size of the dense node-identifier space;
    /// every edge endpoint must lie below it.
    pub fn build(num_nodes: usize, edges_by_predicate: Vec<Vec<(NodeId, NodeId)>>) -> Self {
        debug_assert!(edges_by_predicate
            .iter()
            .flatten()
            .all(|&(s, o)| s.index() < num_nodes && o.index() < num_nodes));
        let predicates: Vec<PredCsr> = edges_by_predicate.into_iter().map(PredCsr::build).collect();
        let num_triples = predicates.iter().map(|p| p.pairs.len()).sum();
        CsrStore {
            predicates,
            num_triples,
        }
    }

    #[inline]
    fn pred(&self, p: PredId) -> &PredCsr {
        &self.predicates[p.index()]
    }
}

impl GraphStore for CsrStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Csr
    }

    fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    fn triple_count(&self) -> usize {
        self.num_triples
    }

    #[inline]
    fn cardinality(&self, p: PredId) -> usize {
        self.pred(p).pairs.len()
    }

    #[inline]
    fn pairs(&self, p: PredId) -> std::borrow::Cow<'_, [(NodeId, NodeId)]> {
        std::borrow::Cow::Borrowed(&self.pred(p).pairs)
    }

    fn neighbors_sorted(&self) -> bool {
        true
    }

    #[inline]
    fn objects_of(&self, p: PredId, s: NodeId) -> &[NodeId] {
        self.pred(p).forward.neighbors(s)
    }

    #[inline]
    fn subjects_of(&self, p: PredId, o: NodeId) -> &[NodeId] {
        self.pred(p).backward.neighbors(o)
    }

    #[inline]
    fn has_triple(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        contains_sorted(self.pred(p).forward.neighbors(s), o)
    }

    fn distinct_subjects(&self, p: PredId) -> usize {
        self.pred(p).forward.sources()
    }

    fn distinct_objects(&self, p: PredId) -> usize {
        self.pred(p).backward.sources()
    }

    fn max_out_degree(&self, p: PredId) -> usize {
        self.pred(p).forward.max_degree()
    }

    fn max_in_degree(&self, p: PredId) -> usize {
        self.pred(p).backward.max_degree()
    }

    fn heap_bytes(&self) -> usize {
        self.predicates
            .iter()
            .map(|pred| {
                pred.pairs.capacity() * std::mem::size_of::<(NodeId, NodeId)>()
                    + pred.forward.heap_bytes()
                    + pred.backward.heap_bytes()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn sample() -> CsrStore {
        // Predicate 0: 0->1, 0->2, 1->2, 3->2, plus a duplicate of 0->1.
        // Predicate 1: empty.
        CsrStore::build(
            5,
            vec![
                vec![
                    (n(0), n(1)),
                    (n(0), n(2)),
                    (n(1), n(2)),
                    (n(3), n(2)),
                    (n(0), n(1)),
                ],
                vec![],
            ],
        )
    }

    #[test]
    fn duplicates_are_removed() {
        let s = sample();
        assert_eq!(s.cardinality(PredId(0)), 4);
        assert_eq!(s.triple_count(), 4);
        assert_eq!(s.num_predicates(), 2);
    }

    #[test]
    fn forward_and_backward_adjacency_sorted() {
        let s = sample();
        let p = PredId(0);
        assert_eq!(s.objects_of(p, n(0)), &[n(1), n(2)]);
        assert_eq!(s.objects_of(p, n(2)), &[] as &[NodeId]);
        assert_eq!(s.subjects_of(p, n(2)), &[n(0), n(1), n(3)]);
        assert_eq!(s.out_degree(p, n(0)), 2);
        assert_eq!(s.in_degree(p, n(2)), 3);
    }

    #[test]
    fn membership_and_counts() {
        let s = sample();
        let p = PredId(0);
        assert!(s.has_triple(n(0), p, n(1)));
        assert!(!s.has_triple(n(1), p, n(0)));
        assert_eq!(s.distinct_subjects(p), 3);
        assert_eq!(s.distinct_objects(p), 2);
        assert_eq!(s.max_out_degree(p), 2);
        assert_eq!(s.max_in_degree(p), 3);
    }

    #[test]
    fn empty_predicate_and_out_of_range_nodes() {
        let s = sample();
        let q = PredId(1);
        assert_eq!(s.cardinality(q), 0);
        assert!(s.pairs(q).is_empty());
        assert_eq!(s.max_out_degree(q), 0);
        assert_eq!(s.objects_of(PredId(0), n(100)), &[] as &[NodeId]);
        assert_eq!(s.subjects_of(PredId(0), n(100)), &[] as &[NodeId]);
    }

    /// Every other listed node is a neighbor of each listed node, both ways.
    fn clique(num_nodes: usize, nodes: &[u32]) -> CsrStore {
        let edges = nodes
            .iter()
            .flat_map(|&a| {
                nodes
                    .iter()
                    .filter(move |&&b| b != a)
                    .map(move |&b| (n(a), n(b)))
            })
            .collect();
        CsrStore::build(num_nodes, vec![edges])
    }

    #[test]
    fn directory_block_boundaries() {
        let num_nodes = 200;
        let nodes = [0, 15, 16, 47, 48, 63, 64, 127, 128, num_nodes as u32 - 1];
        let s = clique(num_nodes, &nodes);
        let p = PredId(0);
        for v in 0..num_nodes as u32 + 130 {
            let expected: Vec<NodeId> = if nodes.contains(&v) {
                nodes.iter().filter(|&&b| b != v).map(|&b| n(b)).collect()
            } else {
                Vec::new()
            };
            assert_eq!(s.objects_of(p, n(v)), expected.as_slice(), "objects of {v}");
            assert_eq!(
                s.subjects_of(p, n(v)),
                expected.as_slice(),
                "subjects of {v}"
            );
        }
        assert_eq!(s.distinct_subjects(p), nodes.len());
        assert_eq!(s.distinct_objects(p), nodes.len());
        assert_eq!(s.max_out_degree(p), nodes.len() - 1);
        assert!(s.has_triple(n(63), p, n(64)));
        assert!(s.has_triple(n(199), p, n(0)));
        assert!(!s.has_triple(n(65), p, n(64)));
        assert!(!s.has_triple(n(64), p, n(64)));
    }

    #[test]
    fn ids_past_the_node_space_have_no_neighbors() {
        let s = clique(130, &[1, 129]);
        let p = PredId(0);
        assert_eq!(s.objects_of(p, n(129)), &[n(1)]);
        for v in [130, 191, 192, 1 << 20, u32::MAX] {
            assert_eq!(s.objects_of(p, n(v)), &[] as &[NodeId], "{v}");
            assert_eq!(s.subjects_of(p, n(v)), &[] as &[NodeId], "{v}");
            assert!(!s.has_triple(n(v), p, n(1)));
        }
        // A predicate whose largest source sits in the first block has a
        // one-block directory: the next block's ids are past it.
        let low = clique(130, &[2, 5]);
        assert_eq!(low.objects_of(p, n(64)), &[] as &[NodeId]);
        assert_eq!(low.objects_of(p, n(129)), &[] as &[NodeId]);
        assert_eq!(low.objects_of(p, n(5)), &[n(2)]);
    }

    #[test]
    fn predicate_without_edges() {
        let s = CsrStore::build(70, vec![vec![], vec![(n(69), n(0))]]);
        let empty = PredId(0);
        for v in [0, 63, 64, 69, 70] {
            assert_eq!(s.objects_of(empty, n(v)), &[] as &[NodeId]);
            assert_eq!(s.subjects_of(empty, n(v)), &[] as &[NodeId]);
        }
        assert_eq!(s.distinct_subjects(empty), 0);
        assert_eq!(s.distinct_objects(empty), 0);
        assert_eq!(s.max_out_degree(empty), 0);
        assert_eq!(s.max_in_degree(empty), 0);
        assert_eq!(s.objects_of(PredId(1), n(69)), &[n(0)]);
    }

    #[test]
    fn node_spaces_of_zero_and_one() {
        let none = CsrStore::build(0, vec![vec![]]);
        let p = PredId(0);
        assert_eq!(none.triple_count(), 0);
        assert_eq!(none.objects_of(p, n(0)), &[] as &[NodeId]);
        assert_eq!(none.subjects_of(p, n(0)), &[] as &[NodeId]);
        assert_eq!(none.distinct_subjects(p), 0);
        assert_eq!(none.max_in_degree(p), 0);

        let one = CsrStore::build(1, vec![vec![(n(0), n(0)), (n(0), n(0))]]);
        assert_eq!(one.triple_count(), 1);
        assert_eq!(one.objects_of(p, n(0)), &[n(0)]);
        assert_eq!(one.subjects_of(p, n(0)), &[n(0)]);
        assert_eq!(one.objects_of(p, n(1)), &[] as &[NodeId]);
        assert!(one.has_triple(n(0), p, n(0)));
        assert_eq!(one.distinct_subjects(p), 1);
        assert_eq!(one.distinct_objects(p), 1);
        assert_eq!(one.max_out_degree(p), 1);
        assert_eq!(one.max_in_degree(p), 1);
    }

    /// splitmix64: a seeded, dependency-free source for the model check.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    type Model = BTreeMap<u32, BTreeSet<u32>>;

    fn degree_max(model: &Model) -> usize {
        model.values().map(BTreeSet::len).max().unwrap_or(0)
    }

    fn as_nodes(set: Option<&BTreeSet<u32>>) -> Vec<NodeId> {
        set.into_iter().flatten().map(|&v| n(v)).collect()
    }

    #[test]
    fn randomized_lookups_match_a_btreemap_model() {
        let num_nodes = 3_000u32;
        // Share of nodes that have edges in a direction, in thousandths.
        let densities = [1u64, 10, 100, 500];
        for seed in 0..4u64 {
            let mut rng = SplitMix(seed);
            let mut edges = Vec::new();
            let mut models = Vec::new();
            for &density in &densities {
                let pick = |rng: &mut SplitMix| -> Vec<u32> {
                    (0..num_nodes)
                        .filter(|_| rng.below(1_000) < density)
                        .collect()
                };
                let sources = pick(&mut rng);
                let targets = pick(&mut rng);
                let mut raw = Vec::new();
                let (mut fwd, mut bwd) = (Model::new(), Model::new());
                if !targets.is_empty() {
                    for &s in &sources {
                        for _ in 0..=rng.below(4) {
                            let o = targets[rng.below(targets.len() as u64) as usize];
                            raw.push((n(s), n(o)));
                            fwd.entry(s).or_default().insert(o);
                            bwd.entry(o).or_default().insert(s);
                        }
                    }
                }
                // Duplicates, out of order, must not show.
                let dupes: Vec<_> = raw.iter().rev().step_by(3).copied().collect();
                raw.extend(dupes);
                edges.push(raw);
                models.push((fwd, bwd));
            }
            let store = CsrStore::build(num_nodes as usize, edges);
            for (i, (fwd, bwd)) in models.iter().enumerate() {
                let p = PredId(i as u32);
                let ctx = format!("seed {seed}, density {}‰", densities[i]);
                for v in 0..num_nodes + 64 {
                    assert_eq!(
                        store.objects_of(p, n(v)),
                        as_nodes(fwd.get(&v)),
                        "{ctx}, objects of {v}"
                    );
                    assert_eq!(
                        store.subjects_of(p, n(v)),
                        as_nodes(bwd.get(&v)),
                        "{ctx}, subjects of {v}"
                    );
                }
                let pairs: Vec<(NodeId, NodeId)> = fwd
                    .iter()
                    .flat_map(|(&s, os)| os.iter().map(move |&o| (n(s), n(o))))
                    .collect();
                assert_eq!(store.pairs(p).as_ref(), pairs.as_slice(), "{ctx}");
                assert_eq!(store.cardinality(p), pairs.len(), "{ctx}");
                for &(s, o) in &pairs {
                    assert!(store.has_triple(s, p, o), "{ctx}, ({s:?}, {o:?})");
                }
                for _ in 0..2_000 {
                    let s = rng.below(u64::from(num_nodes) + 64) as u32;
                    let o = rng.below(u64::from(num_nodes) + 64) as u32;
                    let present = fwd.get(&s).is_some_and(|os| os.contains(&o));
                    assert_eq!(
                        store.has_triple(n(s), p, n(o)),
                        present,
                        "{ctx}, ({s}, {o})"
                    );
                }
                assert_eq!(store.distinct_subjects(p), fwd.len(), "{ctx}");
                assert_eq!(store.distinct_objects(p), bwd.len(), "{ctx}");
                assert_eq!(store.max_out_degree(p), degree_max(fwd), "{ctx}");
                assert_eq!(store.max_in_degree(p), degree_max(bwd), "{ctx}");
            }
        }
    }

    #[test]
    fn heap_bytes_grow_with_edges() {
        let empty = CsrStore::build(0, vec![]);
        let s = sample();
        assert!(s.heap_bytes() > empty.heap_bytes());
        assert_eq!(s.kind(), StoreKind::Csr);
    }
}
