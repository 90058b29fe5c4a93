//! # wireframe-graph — in-memory RDF graph substrate
//!
//! The storage layer underneath the Wireframe answer-graph engine: a
//! dictionary-encoded, edge-labeled, directed multigraph with per-predicate
//! forward/backward adjacency indexes and a statistics catalog.
//!
//! The paper's prototype stores its data as a PostgreSQL triple table with six
//! composite indexes over (subject, predicate, object) permutations plus a
//! string dictionary. This crate provides the equivalent *access paths* as an
//! embeddable in-memory store:
//!
//! * [`Dictionary`] — string ↔ dense-identifier mapping for nodes and predicates,
//! * [`Graph::objects_of`] / [`Graph::subjects_of`] — the `(s, p, ?)` / `(?, p, o)`
//!   index lookups,
//! * [`Graph::pairs`] — the `(?, p, ?)` scan,
//! * [`Graph::has_triple`] — the `(s, p, o)` membership probe,
//! * [`Catalog`] — 1-gram and 2-gram edge-label statistics for the cost-based
//!   planners.
//!
//! The physical layout behind those access paths is a pluggable **storage
//! backend**: the [`GraphStore`] trait abstracts the per-predicate indexes,
//! and a [`StoreKind`] selects the implementation when the graph is built —
//! [`CsrStore`] (sorted contiguous adjacency, the default), [`MapStore`]
//! (hash-map adjacency, the comparison baseline), or [`DeltaStore`] (an
//! immutable CSR base under a sorted insert/tombstone overlay, for dynamic
//! graphs). The CSR and delta backends hand out **sorted** neighbor slices,
//! which the [`slices`] module turns into binary-search membership probes
//! and galloping intersections for the evaluators' hot paths.
//!
//! Graph values are immutable, so all query engines read them without
//! synchronization; updates produce *new versions* instead —
//! [`Graph::apply`] applies a [`Mutation`] batch and, on the delta backend,
//! shares the unchanged base with the predecessor version and compacts when
//! the overlay outgrows a configurable fraction of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod delta;
mod dictionary;
mod error;
mod histogram;
mod ids;
mod map;
mod mutation;
mod ntriples;
mod partition;
pub mod slices;
mod stats;
mod store;

pub use builder::GraphBuilder;
pub use csr::CsrStore;
pub use delta::DeltaStore;
pub use dictionary::Dictionary;
pub use error::GraphError;
pub use histogram::DegreeHistogram;
pub use ids::{NodeId, PredId, Triple};
pub use map::MapStore;
pub use mutation::{EdgeDelta, Mutation, MutationOp, MutationOutcome};
pub use ntriples::{load, load_into, load_with_store, parse_line, write};
pub use partition::{partition_graph, route_mutation, shard_of};
pub use stats::{BigramStats, Catalog, End, UnigramStats};
pub use store::{Graph, GraphStore, StoreKind, DEFAULT_COMPACTION_THRESHOLD};
