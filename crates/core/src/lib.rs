//! # wireframe-core — the answer-graph (factorized) CQ evaluator
//!
//! This crate implements the paper's contribution: two-phase, cost-based
//! evaluation of SPARQL conjunctive queries through an intermediate *answer
//! graph* — the subset of data edges sufficient to compose all embeddings.
//!
//! * [`AnswerGraph`] — the factorized result representation,
//! * [`generate`] — phase one: edge extension + cascading node burnback,
//! * [`plan`] / [`Plan`] — the Edgifier, a cost-based dynamic-programming
//!   planner over the estimated number of edge walks,
//! * [`triangulate`] / [`edge_burnback`] — the Triangulator and the optional
//!   edge-burnback pass for cyclic queries,
//! * [`defactorize`] — phase two: embedding generation from the answer graph,
//! * [`WireframeEngine`] — the end-to-end engine tying the phases together,
//! * [`WcoEngine`] — a worst-case-optimal generic-join engine producing the
//!   same factorized artifact by variable extension (leapfrog intersection),
//!   whose [`WcoView`]s keep **cyclic** queries incrementally maintainable.
//!
//! ## Quickstart
//!
//! [`WireframeEngine`] implements the workspace-wide
//! [`Engine`](wireframe_api::Engine) trait, so it is driven exactly like the
//! baseline engines — or, more conveniently, through the `Session` facade of
//! the umbrella `wireframe` crate:
//!
//! ```
//! use wireframe_api::Engine;
//! use wireframe_core::WireframeEngine;
//! use wireframe_graph::GraphBuilder;
//! use wireframe_query::parse_query;
//!
//! let mut b = GraphBuilder::new();
//! b.add("alice", "knows", "bob");
//! b.add("bob", "knows", "carol");
//! let g = b.build();
//!
//! let engine = WireframeEngine::new(&g);
//! let q = parse_query(
//!     "SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z . }",
//!     g.dictionary(),
//! )
//! .unwrap();
//! let prepared = engine.prepare(&q).unwrap(); // plans once…
//! let result = engine.evaluate(&prepared).unwrap(); // …evaluate many times
//! assert_eq!(result.embedding_count(), 1);
//! assert!(result.factorized.is_some(), "this engine factorizes");
//! ```
//!
//! The richer [`QueryOutput`] (full answer graph, per-step statistics) stays
//! available through [`WireframeEngine::execute`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answer_graph;
mod config;
mod defactorize;
mod engine;
mod error;
mod estimate;
mod explain;
mod generate;
mod maintain;
mod parallel;
mod planner;
mod sharded;
mod triangulate;
mod wco;

pub use answer_graph::{AnswerGraph, PatternEdges};
pub use config::{EvalOptions, PlannerKind};
pub use defactorize::{defactorize, embedding_plan, DefactorizationStats};
pub use engine::{QueryOutput, Timings, WireframeEngine};
pub use error::EngineError;
pub use estimate::{Estimator, StepEstimate};
pub use explain::{explain_output, explain_plan};
pub use generate::{generate, ExtensionStep, GenerationStats};
pub use maintain::{MaterializedQuery, ProvenanceIndex};
pub use parallel::{auto_threads, defactorize_parallel, ParallelOptions};
pub use planner::{cost_of_order, plan, Plan};
pub use sharded::{merge_candidates, scan_candidates};
pub use triangulate::{
    edge_burnback, triangulate, Chord, Chordification, EdgeBurnbackStats, SideRef, Triangle,
};
pub use wco::{WcoEngine, WcoPlan, WcoView};
