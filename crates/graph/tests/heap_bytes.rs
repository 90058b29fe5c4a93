//! The CSR layout's memory bound on the generated datasets: heap bytes per
//! triple of the store a graph is served from, for every backend built on
//! the CSR base (`csr` itself and `delta`'s base with an empty overlay).

use wireframe_datagen::{generate, YagoConfig};
use wireframe_graph::StoreKind;

/// Heap bytes per triple the rank-directory CSR stays within: 16 for the
/// pair array and both target arrays, the rest offsets and directory.
const MAX_BYTES_PER_TRIPLE: usize = 40;

fn assert_bytes_per_triple(config: &YagoConfig) {
    let graph = generate(config);
    for kind in [StoreKind::Csr, StoreKind::Delta] {
        let graph = graph.clone().with_store(kind);
        let bytes = graph.store().heap_bytes();
        let per_triple = bytes / graph.triple_count();
        eprintln!(
            "{} store: {bytes} heap bytes over {} triples, {} nodes, {} predicates = {per_triple} per triple",
            kind.name(),
            graph.triple_count(),
            graph.node_count(),
            graph.predicate_count()
        );
        assert!(
            per_triple <= MAX_BYTES_PER_TRIPLE,
            "{} store: {per_triple} heap bytes per triple (bound {MAX_BYTES_PER_TRIPLE})",
            kind.name()
        );
    }
}

#[test]
fn small_graph_stays_within_forty_bytes_per_triple() {
    assert_bytes_per_triple(&YagoConfig::small());
}

/// The benchmark dataset (305 226 triples); run with
/// `cargo test -q --release -p wireframe-graph -- --ignored`.
#[test]
#[ignore = "generates the 305k-triple benchmark graph; run in release"]
fn benchmark_graph_stays_within_forty_bytes_per_triple() {
    assert_bytes_per_triple(&YagoConfig::benchmark());
}
