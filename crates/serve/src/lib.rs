//! # wireframe-serve — the network serving front-end
//!
//! The paper's bet — ship the small factorized answer graph, defactorize
//! only at the consumer — pays off end-to-end once there is a consumer
//! *boundary*: a server process that holds the retained views and streams
//! compact per-epoch deltas to clients instead of full embedding sets.
//! This crate is that boundary: a hand-rolled `std::net` framed-TCP server
//! over any [`wireframe::QueryExecutor`] — a single [`wireframe::Session`]
//! or a [`wireframe::ShardedCluster`] (`wfserve --shards N`); the server
//! never names a concrete serving type.
//!
//! * [`frame`] — length-prefixed framing (4-byte big-endian length +
//!   UTF-8 JSON), incremental across read timeouts,
//! * [`Server`] — thread-per-connection acceptor, bounded worker pool,
//!   admission control (bounded queues shed with `overloaded`, per-request
//!   deadlines), a write batcher coalescing concurrent mutations into one
//!   maintenance pass, and per-epoch subscription fan-out driven by
//!   [`wireframe::QueryExecutor::add_epoch_listener`],
//! * [`Client`] — the blocking client the tests drive real sockets with,
//! * `wfserve` — the server binary.
//!
//! Wire payloads are the `wireframe_api::wire` types; the full schema with
//! examples lives in `docs/protocol.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
mod server;

pub use client::{Client, ClientError, MutateAck, QueryAnswer};
pub use server::{ServeConfig, Server};
pub use wireframe_api::wire;
