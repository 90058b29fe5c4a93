//! Wire types of the framed-TCP serving protocol.
//!
//! One frame is a 4-byte big-endian length prefix followed by that many
//! bytes of UTF-8 JSON — one [`Request`] per client frame, one [`Response`]
//! per server frame (framing itself lives in `wireframe-serve`; these types
//! only define the JSON payloads, so clients in other languages need nothing
//! but a JSON library and a length-prefix loop).
//!
//! Every request carries a client-chosen `id`; the response echoes it.
//! Server-initiated frames (subscription updates) reuse the `id` of the
//! `subscribe` request that created the subscription, so one connection can
//! interleave request/response traffic with pushed updates and still
//! demultiplex. Requests and responses are tagged with a `"type"` field.
//!
//! The vendored serde shim's derive only covers named-field structs, so the
//! two enums serialize through hand-written `to_json`/`from_json` pairs;
//! component structs ([`RowSet`], [`EmbeddingDelta`], [`ServeStats`]) use
//! the derive. See `docs/protocol.md` for the full schema with examples.

use serde::json::{self, Value};
use serde::Serialize;
use wireframe_graph::EdgeDelta;
use wireframe_obs::{HistogramSnapshot, MetricsSnapshot, BUCKET_COUNT};

/// Protocol revision; servers reject frames whose `"v"` field (when
/// present) is newer than what they speak.
pub const PROTOCOL_VERSION: u64 = 1;

/// A client → server request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse + plan (and, when the engine maintains, materialize the
    /// retained view for) `query` without defactorizing any rows.
    Prepare {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// SPARQL conjunctive query text.
        query: String,
    },
    /// Evaluate `query`, returning at most `limit` rows (0 = unlimited).
    Query {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// SPARQL conjunctive query text.
        query: String,
        /// Row cap for the reply; the reply's `total` is always the full
        /// count.
        limit: u64,
    },
    /// Apply a `+`/`-` mutation script (the `wfquery --mutations` format).
    /// Mutations arriving within the server's batch window coalesce into
    /// one applied batch — the response reports the batch totals.
    Mutate {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// Mutation script: one `+ s p o` / `- s p o` line per operation.
        script: String,
        /// When true, the response embeds the applied batch's net
        /// [`EdgeDelta`] (dictionary-encoded ids).
        return_delta: bool,
    },
    /// Register a continuous query: the reply snapshots the current rows,
    /// then every epoch advance pushes an [`EmbeddingDelta`] update frame.
    Subscribe {
        /// Client-chosen id; pushed updates for this subscription carry it.
        id: u64,
        /// SPARQL conjunctive query text.
        query: String,
        /// Row cap for the initial snapshot only (0 = unlimited); pushed
        /// deltas are always complete.
        limit: u64,
    },
    /// Fetch server + session counters.
    Stats {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
    /// Fetch the full metrics registry snapshot (every counter behind
    /// `stats` plus gauges and latency histograms, including per-shard
    /// breakdowns on a sharded server). Versioned alongside `stats`; the
    /// `--metrics-addr` scrape endpoint renders the same snapshot as text.
    Metrics {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
    /// Ask the server to drain in-flight work and stop.
    Shutdown {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
}

impl Request {
    /// The client-chosen request id.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Prepare { id, .. }
            | Request::Query { id, .. }
            | Request::Mutate { id, .. }
            | Request::Subscribe { id, .. }
            | Request::Stats { id }
            | Request::Metrics { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Decodes a request frame payload.
    pub fn from_json(doc: &Value) -> Result<Request, WireError> {
        check_version(doc)?;
        let id = get_u64(doc, "id")?;
        match get_str(doc, "type")? {
            "prepare" => Ok(Request::Prepare {
                id,
                query: get_str(doc, "query")?.to_owned(),
            }),
            "query" => Ok(Request::Query {
                id,
                query: get_str(doc, "query")?.to_owned(),
                limit: opt_u64(doc, "limit").unwrap_or(0),
            }),
            "mutate" => Ok(Request::Mutate {
                id,
                script: get_str(doc, "script")?.to_owned(),
                return_delta: doc
                    .get("return_delta")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            }),
            "subscribe" => Ok(Request::Subscribe {
                id,
                query: get_str(doc, "query")?.to_owned(),
                limit: opt_u64(doc, "limit").unwrap_or(0),
            }),
            "stats" => Ok(Request::Stats { id }),
            "metrics" => Ok(Request::Metrics { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(WireError(format!("unknown request type {other:?}"))),
        }
    }
}

impl Serialize for Request {
    fn to_json(&self) -> Value {
        let mut fields = vec![("v".to_owned(), Value::UInt(PROTOCOL_VERSION))];
        match self {
            Request::Prepare { id, query } => {
                fields.push(tag("prepare"));
                fields.push(uint("id", *id));
                fields.push(string("query", query));
            }
            Request::Query { id, query, limit } => {
                fields.push(tag("query"));
                fields.push(uint("id", *id));
                fields.push(string("query", query));
                fields.push(uint("limit", *limit));
            }
            Request::Mutate {
                id,
                script,
                return_delta,
            } => {
                fields.push(tag("mutate"));
                fields.push(uint("id", *id));
                fields.push(string("script", script));
                fields.push(("return_delta".to_owned(), Value::Bool(*return_delta)));
            }
            Request::Subscribe { id, query, limit } => {
                fields.push(tag("subscribe"));
                fields.push(uint("id", *id));
                fields.push(string("query", query));
                fields.push(uint("limit", *limit));
            }
            Request::Stats { id } => {
                fields.push(tag("stats"));
                fields.push(uint("id", *id));
            }
            Request::Metrics { id } => {
                fields.push(tag("metrics"));
                fields.push(uint("id", *id));
            }
            Request::Shutdown { id } => {
                fields.push(tag("shutdown"));
                fields.push(uint("id", *id));
            }
        }
        Value::Object(fields)
    }
}

/// A block of label-resolved result rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RowSet {
    /// Number of columns (the query's SELECT arity).
    pub columns: u64,
    /// Full embedding count, even when `rows` is capped by a limit. When
    /// the server answered from a retained top-k prefix without knowing the
    /// full count, this is the number of rows returned and `truncated` says
    /// whether more exist.
    pub total: u64,
    /// The (possibly capped) rows, as node labels in SELECT column order.
    /// Limited answers are in **canonical row order** (lexicographic over
    /// the SELECT columns), so pages are stable across requests.
    pub rows: Vec<Vec<String>>,
    /// Whether a limit dropped rows: the full answer has more rows than
    /// `rows` carries. Absent on the wire (older peers) decodes as `false`.
    pub truncated: bool,
    /// Whether the answer was served from a maintained top-k prefix in
    /// `O(k)` — no defactorization. Absent on the wire decodes as `false`.
    pub prefix_served: bool,
}

impl RowSet {
    /// Decodes the wire form. The `truncated`/`prefix_served` flags are
    /// lenient: frames from peers predating them decode with both off.
    pub fn from_json(doc: &Value) -> Result<RowSet, WireError> {
        Ok(RowSet {
            columns: get_u64(doc, "columns")?,
            total: get_u64(doc, "total")?,
            rows: get_rows(doc, "rows")?,
            truncated: opt_bool(doc, "truncated"),
            prefix_served: opt_bool(doc, "prefix_served"),
        })
    }
}

/// One pushed per-epoch change of a subscribed query's answer: the rows
/// that appeared and disappeared between `prev_epoch` (exclusive) and
/// `epoch` (inclusive). Consecutive updates for one subscription chain —
/// each update's `prev_epoch` equals the previous update's `epoch` (the
/// first chains off the `subscribed` snapshot), so a client can prove it
/// lost nothing. One update may cover several epochs when the server
/// coalesces (the chain stays gap-free either way).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct EmbeddingDelta {
    /// Epoch this delta starts from (exclusive); equals the previous
    /// update's `epoch`.
    pub prev_epoch: u64,
    /// Epoch this delta brings the subscriber to (inclusive).
    pub epoch: u64,
    /// Full embedding count at `epoch`.
    pub total: u64,
    /// Rows present at `epoch` but not at `prev_epoch` (labels, column
    /// order of the subscribed query).
    pub added: Vec<Vec<String>>,
    /// Rows present at `prev_epoch` but not at `epoch`.
    pub removed: Vec<Vec<String>>,
    /// The serving executor's per-shard epoch vector at `epoch` (`[epoch]`
    /// on an unsharded server). Empty when the peer predates epoch vectors;
    /// present, it lets sharded subscribers verify gap-freedom per shard.
    pub epochs: Vec<u64>,
}

impl EmbeddingDelta {
    /// Decodes the wire form.
    pub fn from_json(doc: &Value) -> Result<EmbeddingDelta, WireError> {
        Ok(EmbeddingDelta {
            prev_epoch: get_u64(doc, "prev_epoch")?,
            epoch: get_u64(doc, "epoch")?,
            total: get_u64(doc, "total")?,
            added: get_rows(doc, "added")?,
            removed: get_rows(doc, "removed")?,
            epochs: get_u64_array_or_default(doc, "epochs")?,
        })
    }
}

/// Server + session counters returned by [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ServeStats {
    /// Current session epoch.
    pub epoch: u64,
    /// The executor's per-shard epoch vector (`[epoch]` on an unsharded
    /// server; one entry per shard on a sharded one). Empty when the peer
    /// predates epoch vectors.
    pub epochs: Vec<u64>,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Requests parsed (all kinds, shed or served).
    pub requests: u64,
    /// Query requests answered with rows.
    pub queries: u64,
    /// Mutate requests acknowledged.
    pub mutations: u64,
    /// Applied mutation batches (each is one epoch advance).
    pub mutation_batches: u64,
    /// Mutate requests that shared a batch with at least one other —
    /// `mutations - mutation_batches` when every batch coalesced.
    pub coalesced_mutations: u64,
    /// Requests shed because the worker queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because they aged past the deadline while queued.
    pub shed_deadline: u64,
    /// Live subscriptions.
    pub subscriptions: u64,
    /// Update frames pushed to subscribers.
    pub updates_pushed: u64,
    /// Session prepared-plan cache hits.
    pub cache_hits: u64,
    /// Session prepared-plan cache misses.
    pub cache_misses: u64,
    /// Session evaluations served straight from a retained view.
    pub view_serves: u64,
    /// Session full pipeline runs.
    pub full_evaluations: u64,
    /// Session retained views maintained in place by mutations.
    pub plans_maintained: u64,
}

impl ServeStats {
    /// Decodes the wire form.
    pub fn from_json(doc: &Value) -> Result<ServeStats, WireError> {
        let field = |key: &str| get_u64(doc, key);
        Ok(ServeStats {
            epoch: field("epoch")?,
            epochs: get_u64_array_or_default(doc, "epochs")?,
            connections: field("connections")?,
            requests: field("requests")?,
            queries: field("queries")?,
            mutations: field("mutations")?,
            mutation_batches: field("mutation_batches")?,
            coalesced_mutations: field("coalesced_mutations")?,
            // Lenient: peers predating the queue/deadline shed split sent a
            // single `shed` total; each missing split field decodes as 0.
            shed_queue_full: opt_u64(doc, "shed_queue_full").unwrap_or(0),
            shed_deadline: opt_u64(doc, "shed_deadline").unwrap_or(0),
            subscriptions: field("subscriptions")?,
            updates_pushed: field("updates_pushed")?,
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            view_serves: field("view_serves")?,
            full_evaluations: field("full_evaluations")?,
            plans_maintained: field("plans_maintained")?,
        })
    }
}

/// A server → client response or push frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `prepare` succeeded.
    Prepared {
        /// Echoed request id.
        id: u64,
        /// Epoch the plan (and view, when retained) is current to.
        epoch: u64,
        /// Whether a retained view now serves this query.
        retained: bool,
    },
    /// `query` succeeded.
    Rows {
        /// Echoed request id.
        id: u64,
        /// Epoch of the answered snapshot.
        epoch: u64,
        /// The result rows.
        rows: RowSet,
    },
    /// `mutate` succeeded; reports the **batch** the request was applied
    /// in (several coalesced requests share one batch and see the same
    /// totals).
    Mutated {
        /// Echoed request id.
        id: u64,
        /// Epoch after the applied batch.
        epoch: u64,
        /// Triples that became present, whole batch.
        inserted: u64,
        /// Triples that became absent, whole batch.
        removed: u64,
        /// Number of mutate requests coalesced into the batch (≥ 1).
        coalesced: u64,
        /// Whether the delta store compacted after this batch.
        compacted: bool,
        /// The batch's net edge delta (`return_delta: true` only).
        delta: Option<EdgeDelta>,
    },
    /// `subscribe` succeeded: the initial snapshot.
    Subscribed {
        /// Echoed request id (updates for this subscription reuse it).
        id: u64,
        /// Epoch of the snapshot; the first update chains off it.
        epoch: u64,
        /// Snapshot rows (capped by the request's `limit`).
        rows: RowSet,
    },
    /// Pushed subscription update (server-initiated).
    Update {
        /// Id of the originating `subscribe` request.
        id: u64,
        /// The per-epoch change.
        delta: EmbeddingDelta,
    },
    /// `stats` reply.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The counters.
        stats: ServeStats,
    },
    /// `metrics` reply: the full registry snapshot.
    Metrics {
        /// Echoed request id.
        id: u64,
        /// Current session epoch, so scrapes can be ordered.
        epoch: u64,
        /// The merged serve + executor registry export.
        snapshot: MetricsSnapshot,
    },
    /// Admission control refused the request; retry later. `reason` is
    /// `"queue"` (bounded queue full) or `"deadline"` (aged out before a
    /// worker picked it up).
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// What shed it: `"queue"` or `"deadline"`.
        reason: String,
    },
    /// The request failed (parse error, unknown label, oversized frame…).
    Error {
        /// Echoed request id (0 when the frame was unparseable).
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// `shutdown` acknowledged; the server drains and stops.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
}

impl Response {
    /// The echoed request id (0 for errors about unparseable frames).
    pub fn id(&self) -> u64 {
        match *self {
            Response::Prepared { id, .. }
            | Response::Rows { id, .. }
            | Response::Mutated { id, .. }
            | Response::Subscribed { id, .. }
            | Response::Update { id, .. }
            | Response::Stats { id, .. }
            | Response::Metrics { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Error { id, .. }
            | Response::ShuttingDown { id } => id,
        }
    }

    /// Whether this is a server-initiated push frame.
    pub fn is_push(&self) -> bool {
        matches!(self, Response::Update { .. })
    }

    /// Decodes a response frame payload.
    pub fn from_json(doc: &Value) -> Result<Response, WireError> {
        check_version(doc)?;
        let id = get_u64(doc, "id")?;
        match get_str(doc, "type")? {
            "prepared" => Ok(Response::Prepared {
                id,
                epoch: get_u64(doc, "epoch")?,
                retained: doc
                    .get("retained")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| WireError("prepared needs a retained flag".into()))?,
            }),
            "rows" => Ok(Response::Rows {
                id,
                epoch: get_u64(doc, "epoch")?,
                rows: RowSet::from_json(doc)?,
            }),
            "mutated" => Ok(Response::Mutated {
                id,
                epoch: get_u64(doc, "epoch")?,
                inserted: get_u64(doc, "inserted")?,
                removed: get_u64(doc, "removed")?,
                coalesced: get_u64(doc, "coalesced")?,
                compacted: doc
                    .get("compacted")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                delta: match doc.get("delta") {
                    None | Some(Value::Null) => None,
                    Some(d) => Some(EdgeDelta::from_json(d).map_err(|e| WireError(e.to_string()))?),
                },
            }),
            "subscribed" => Ok(Response::Subscribed {
                id,
                epoch: get_u64(doc, "epoch")?,
                rows: RowSet::from_json(doc)?,
            }),
            "update" => Ok(Response::Update {
                id,
                delta: EmbeddingDelta::from_json(
                    doc.get("delta")
                        .ok_or_else(|| WireError("update needs a delta".into()))?,
                )?,
            }),
            "stats" => Ok(Response::Stats {
                id,
                stats: ServeStats::from_json(
                    doc.get("stats")
                        .ok_or_else(|| WireError("stats reply needs stats".into()))?,
                )?,
            }),
            "metrics" => Ok(Response::Metrics {
                id,
                epoch: get_u64(doc, "epoch")?,
                snapshot: snapshot_from_json(
                    doc.get("snapshot")
                        .ok_or_else(|| WireError("metrics reply needs a snapshot".into()))?,
                )?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                id,
                reason: get_str(doc, "reason")?.to_owned(),
            }),
            "error" => Ok(Response::Error {
                id,
                message: get_str(doc, "message")?.to_owned(),
            }),
            "shutting_down" => Ok(Response::ShuttingDown { id }),
            other => Err(WireError(format!("unknown response type {other:?}"))),
        }
    }
}

impl Serialize for Response {
    fn to_json(&self) -> Value {
        let mut fields = vec![("v".to_owned(), Value::UInt(PROTOCOL_VERSION))];
        match self {
            Response::Prepared {
                id,
                epoch,
                retained,
            } => {
                fields.push(tag("prepared"));
                fields.push(uint("id", *id));
                fields.push(uint("epoch", *epoch));
                fields.push(("retained".to_owned(), Value::Bool(*retained)));
            }
            Response::Rows { id, epoch, rows } => {
                fields.push(tag("rows"));
                fields.push(uint("id", *id));
                fields.push(uint("epoch", *epoch));
                push_rowset(&mut fields, rows);
            }
            Response::Mutated {
                id,
                epoch,
                inserted,
                removed,
                coalesced,
                compacted,
                delta,
            } => {
                fields.push(tag("mutated"));
                fields.push(uint("id", *id));
                fields.push(uint("epoch", *epoch));
                fields.push(uint("inserted", *inserted));
                fields.push(uint("removed", *removed));
                fields.push(uint("coalesced", *coalesced));
                fields.push(("compacted".to_owned(), Value::Bool(*compacted)));
                fields.push(("delta".to_owned(), delta.to_json()));
            }
            Response::Subscribed { id, epoch, rows } => {
                fields.push(tag("subscribed"));
                fields.push(uint("id", *id));
                fields.push(uint("epoch", *epoch));
                push_rowset(&mut fields, rows);
            }
            Response::Update { id, delta } => {
                fields.push(tag("update"));
                fields.push(uint("id", *id));
                fields.push(("delta".to_owned(), delta.to_json()));
            }
            Response::Stats { id, stats } => {
                fields.push(tag("stats"));
                fields.push(uint("id", *id));
                fields.push(("stats".to_owned(), stats.to_json()));
            }
            Response::Metrics {
                id,
                epoch,
                snapshot,
            } => {
                fields.push(tag("metrics"));
                fields.push(uint("id", *id));
                fields.push(uint("epoch", *epoch));
                fields.push(("snapshot".to_owned(), snapshot_to_json(snapshot)));
            }
            Response::Overloaded { id, reason } => {
                fields.push(tag("overloaded"));
                fields.push(uint("id", *id));
                fields.push(string("reason", reason));
            }
            Response::Error { id, message } => {
                fields.push(tag("error"));
                fields.push(uint("id", *id));
                fields.push(string("message", message));
            }
            Response::ShuttingDown { id } => {
                fields.push(tag("shutting_down"));
                fields.push(uint("id", *id));
            }
        }
        Value::Object(fields)
    }
}

/// A malformed or version-incompatible frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Parses a frame payload string into a JSON document.
pub fn parse_frame(payload: &str) -> Result<Value, WireError> {
    json::from_str(payload).map_err(|e| WireError(format!("bad frame json: {e}")))
}

fn check_version(doc: &Value) -> Result<(), WireError> {
    match doc.get("v").and_then(Value::as_u64) {
        None => Ok(()), // pre-versioning peers speak v1
        Some(v) if v <= PROTOCOL_VERSION => Ok(()),
        Some(v) => Err(WireError(format!(
            "frame speaks protocol v{v}, this side speaks v{PROTOCOL_VERSION}"
        ))),
    }
}

fn tag(name: &str) -> (String, Value) {
    ("type".to_owned(), Value::Str(name.to_owned()))
}

fn uint(key: &str, v: u64) -> (String, Value) {
    (key.to_owned(), Value::UInt(v))
}

fn string(key: &str, v: &str) -> (String, Value) {
    (key.to_owned(), Value::Str(v.to_owned()))
}

fn push_rowset(fields: &mut Vec<(String, Value)>, rows: &RowSet) {
    fields.push(uint("columns", rows.columns));
    fields.push(uint("total", rows.total));
    fields.push(("rows".to_owned(), rows.rows.to_json()));
    fields.push(("truncated".to_owned(), Value::Bool(rows.truncated)));
    fields.push(("prefix_served".to_owned(), Value::Bool(rows.prefix_served)));
}

fn get_u64(doc: &Value, key: &str) -> Result<u64, WireError> {
    opt_u64(doc, key).ok_or_else(|| WireError(format!("missing or non-integer field {key:?}")))
}

fn opt_u64(doc: &Value, key: &str) -> Option<u64> {
    doc.get(key).and_then(Value::as_u64)
}

/// A lenient optional bool: missing (older peers) reads as `false`.
fn opt_bool(doc: &Value, key: &str) -> bool {
    doc.get(key).and_then(Value::as_bool).unwrap_or(false)
}

fn get_str<'a>(doc: &'a Value, key: &str) -> Result<&'a str, WireError> {
    doc.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| WireError(format!("missing or non-string field {key:?}")))
}

/// Decodes an optional array of unsigned integers; a missing field decodes
/// as empty (pre-epoch-vector peers), a present-but-malformed one errors.
fn get_u64_array_or_default(doc: &Value, key: &str) -> Result<Vec<u64>, WireError> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| WireError(format!("{key:?} must be an array")))?
            .iter()
            .map(|e| {
                e.as_u64()
                    .ok_or_else(|| WireError(format!("{key:?} entries must be unsigned integers")))
            })
            .collect(),
    }
}

/// Encodes a [`MetricsSnapshot`]: counters and gauges as name→value
/// objects, histograms as `{count, sum, max, buckets: [[index, n], …]}`
/// with only the non-zero buckets listed (a latency histogram touches a
/// handful of its 300+ buckets, so sparse pairs keep frames small).
fn snapshot_to_json(snapshot: &MetricsSnapshot) -> Value {
    let uint_map = |map: &std::collections::BTreeMap<String, u64>| {
        Value::Object(
            map.iter()
                .map(|(name, &v)| (name.clone(), Value::UInt(v)))
                .collect(),
        )
    };
    let histograms = snapshot
        .histograms
        .iter()
        .map(|(name, hist)| {
            let buckets = hist
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != 0)
                .map(|(index, &n)| Value::Array(vec![Value::UInt(index as u64), Value::UInt(n)]))
                .collect();
            (
                name.clone(),
                Value::Object(vec![
                    uint("count", hist.count),
                    uint("sum", hist.sum),
                    uint("max", hist.max),
                    ("buckets".to_owned(), Value::Array(buckets)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("counters".to_owned(), uint_map(&snapshot.counters)),
        ("gauges".to_owned(), uint_map(&snapshot.gauges)),
        ("histograms".to_owned(), Value::Object(histograms)),
    ])
}

/// Decodes the [`snapshot_to_json`] wire form. Missing sections decode as
/// empty, so older peers' leaner snapshots still parse.
fn snapshot_from_json(doc: &Value) -> Result<MetricsSnapshot, WireError> {
    let uint_map = |key: &str| -> Result<std::collections::BTreeMap<String, u64>, WireError> {
        match doc.get(key) {
            None | Some(Value::Null) => Ok(Default::default()),
            Some(Value::Object(fields)) => fields
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| WireError(format!("{key:?} values must be unsigned")))
                })
                .collect(),
            Some(_) => Err(WireError(format!("{key:?} must be an object"))),
        }
    };
    let mut snapshot = MetricsSnapshot {
        counters: uint_map("counters")?,
        gauges: uint_map("gauges")?,
        histograms: Default::default(),
    };
    let histograms = match doc.get("histograms") {
        None | Some(Value::Null) => &[],
        Some(Value::Object(fields)) => fields.as_slice(),
        Some(_) => return Err(WireError("\"histograms\" must be an object".into())),
    };
    for (name, h) in histograms {
        let mut hist = HistogramSnapshot {
            count: get_u64(h, "count")?,
            sum: get_u64(h, "sum")?,
            max: get_u64(h, "max")?,
            buckets: vec![0; BUCKET_COUNT],
        };
        let pairs = h
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| WireError(format!("histogram {name:?} needs a buckets array")))?;
        for pair in pairs {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| WireError("histogram buckets must be [index, n] pairs".into()))?;
            let (index, n) = (pair[0].as_u64(), pair[1].as_u64());
            let (Some(index), Some(n)) = (index, n) else {
                return Err(WireError("histogram bucket pairs must be unsigned".into()));
            };
            if (index as usize) < hist.buckets.len() {
                hist.buckets[index as usize] += n;
            }
            // An index beyond BUCKET_COUNT means the peer's histogram is
            // finer-grained than ours; drop the bucket (count/sum stay
            // authoritative) rather than reject the frame.
        }
        snapshot.histograms.insert(name.clone(), hist);
    }
    Ok(snapshot)
}

fn get_rows(doc: &Value, key: &str) -> Result<Vec<Vec<String>>, WireError> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| WireError(format!("missing or non-array field {key:?}")))?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| WireError(format!("{key:?} rows must be arrays")))?
                .iter()
                .map(|cell| {
                    cell.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| WireError(format!("{key:?} cells must be strings")))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let text = json::to_string(&req);
        let doc = parse_frame(&text).unwrap();
        assert_eq!(Request::from_json(&doc).unwrap(), req, "{text}");
    }

    fn round_trip_response(resp: Response) {
        let text = json::to_string(&resp);
        let doc = parse_frame(&text).unwrap();
        assert_eq!(Response::from_json(&doc).unwrap(), resp, "{text}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Prepare {
            id: 1,
            query: "SELECT ?x WHERE { ?x <knows> ?y . }".into(),
        });
        round_trip_request(Request::Query {
            id: 2,
            query: "SELECT * WHERE { ?x <knows> ?y . }".into(),
            limit: 10,
        });
        round_trip_request(Request::Mutate {
            id: 3,
            script: "+ a knows b\n- a knows c\n".into(),
            return_delta: true,
        });
        round_trip_request(Request::Subscribe {
            id: 4,
            query: "SELECT ?x WHERE { ?x <knows> ?y . }".into(),
            limit: 0,
        });
        round_trip_request(Request::Stats { id: 5 });
        round_trip_request(Request::Shutdown { id: 6 });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Prepared {
            id: 1,
            epoch: 3,
            retained: true,
        });
        round_trip_response(Response::Rows {
            id: 2,
            epoch: 3,
            rows: RowSet {
                columns: 2,
                total: 4,
                rows: vec![vec!["a".into(), "b".into()], vec!["c".into(), "d".into()]],
                truncated: true,
                prefix_served: true,
            },
        });
        round_trip_response(Response::Mutated {
            id: 3,
            epoch: 4,
            inserted: 2,
            removed: 1,
            coalesced: 3,
            compacted: false,
            delta: None,
        });
        round_trip_response(Response::Subscribed {
            id: 4,
            epoch: 4,
            rows: RowSet::default(),
        });
        round_trip_response(Response::Update {
            id: 4,
            delta: EmbeddingDelta {
                prev_epoch: 4,
                epoch: 5,
                total: 7,
                added: vec![vec!["x".into()]],
                removed: vec![],
                epochs: vec![3, 2],
            },
        });
        round_trip_response(Response::Stats {
            id: 5,
            stats: ServeStats {
                epoch: 5,
                epochs: vec![5],
                requests: 12,
                ..ServeStats::default()
            },
        });
        round_trip_response(Response::Overloaded {
            id: 6,
            reason: "queue".into(),
        });
        round_trip_response(Response::Error {
            id: 0,
            message: "bad frame".into(),
        });
        round_trip_response(Response::ShuttingDown { id: 7 });
    }

    #[test]
    fn metrics_snapshots_round_trip() {
        use wireframe_obs::Registry;
        let registry = Registry::new();
        registry.counter("serve.requests").add(12);
        registry.counter("executor.cache_hits").add(3);
        registry.gauge("graph.delta_overlay_edges").set(40);
        let h = registry.histogram("query.latency_us");
        h.record(150);
        h.record(9_000);
        h.record(u64::MAX); // saturating top bucket survives the wire
        round_trip_response(Response::Metrics {
            id: 8,
            epoch: 5,
            snapshot: registry.snapshot(),
        });
        round_trip_request(Request::Metrics { id: 8 });
        // An empty snapshot (nothing recorded).
        round_trip_response(Response::Metrics {
            id: 9,
            epoch: 0,
            snapshot: Registry::new().snapshot(),
        });
    }

    #[test]
    fn metrics_snapshots_decode_leniently() {
        // Missing sections decode empty; bucket indexes beyond our
        // resolution are dropped, not fatal.
        let doc = parse_frame(r#"{"counters":{"a":1}}"#).unwrap();
        let snap = snapshot_from_json(&doc).unwrap();
        assert_eq!(snap.counter("a"), 1);
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
        let doc = parse_frame(
            r#"{"histograms":{"h":{"count":2,"sum":10,"max":9,"buckets":[[1,1],[99999,1]]}}}"#,
        )
        .unwrap();
        let snap = snapshot_from_json(&doc).unwrap();
        let h = snap.histogram("h").unwrap();
        assert_eq!((h.count, h.buckets[1]), (2, 1));
        // Present but malformed still errors.
        let doc = parse_frame(r#"{"counters":{"a":"x"}}"#).unwrap();
        assert!(snapshot_from_json(&doc).is_err());
        let doc =
            parse_frame(r#"{"histograms":{"h":{"count":1,"sum":1,"max":1,"buckets":[[1]]}}}"#)
                .unwrap();
        assert!(snapshot_from_json(&doc).is_err());
    }

    #[test]
    fn shed_split_decodes_leniently_for_old_peers() {
        // A pre-split peer reports neither shed field: decode as zeros.
        let doc = parse_frame(
            r#"{"epoch":1,"connections":1,"requests":2,"queries":1,"mutations":0,
                "mutation_batches":0,"coalesced_mutations":0,"subscriptions":0,
                "updates_pushed":0,"cache_hits":1,"cache_misses":1,"view_serves":1,
                "full_evaluations":1,"plans_maintained":0}"#,
        )
        .unwrap();
        let stats = ServeStats::from_json(&doc).unwrap();
        assert_eq!((stats.shed_queue_full, stats.shed_deadline), (0, 0));
        assert_eq!(stats.requests, 2, "known fields still decode");
        // Both split fields round-trip when present.
        round_trip_response(Response::Stats {
            id: 1,
            stats: ServeStats {
                shed_queue_full: 3,
                shed_deadline: 2,
                ..ServeStats::default()
            },
        });
    }

    #[test]
    fn mutated_delta_round_trips_through_graph_types() {
        use wireframe_graph::{NodeId, PredId, Triple};
        let delta = EdgeDelta::new(
            vec![Triple::new(NodeId(1), PredId(0), NodeId(2))],
            vec![Triple::new(NodeId(3), PredId(1), NodeId(4))],
        );
        round_trip_response(Response::Mutated {
            id: 9,
            epoch: 1,
            inserted: 1,
            removed: 1,
            coalesced: 1,
            compacted: true,
            delta: Some(delta),
        });
    }

    #[test]
    fn unknown_types_and_newer_versions_are_rejected() {
        let doc = parse_frame(r#"{"type":"warp","id":1}"#).unwrap();
        assert!(Request::from_json(&doc).is_err());
        assert!(Response::from_json(&doc).is_err());
        let doc = parse_frame(r#"{"v":99,"type":"stats","id":1}"#).unwrap();
        let err = Request::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("protocol"), "{err}");
        // Missing version field = v1 peer.
        let doc = parse_frame(r#"{"type":"stats","id":1}"#).unwrap();
        assert_eq!(Request::from_json(&doc).unwrap(), Request::Stats { id: 1 });
    }

    #[test]
    fn epoch_vectors_decode_with_a_default_for_old_peers() {
        // A pre-epoch-vector peer omits `epochs`: decode to empty, not error.
        let doc =
            parse_frame(r#"{"prev_epoch":1,"epoch":2,"total":0,"added":[],"removed":[]}"#).unwrap();
        let delta = EmbeddingDelta::from_json(&doc).unwrap();
        assert!(delta.epochs.is_empty());
        // Present but malformed still errors.
        let doc = parse_frame(
            r#"{"prev_epoch":1,"epoch":2,"total":0,"added":[],"removed":[],"epochs":["x"]}"#,
        )
        .unwrap();
        assert!(EmbeddingDelta::from_json(&doc).is_err());
    }

    #[test]
    fn rowset_limit_flags_decode_leniently_for_old_peers() {
        // A pre-top-k peer sends neither flag: both decode off, rows intact.
        let doc = parse_frame(r#"{"columns":1,"total":3,"rows":[["a"],["b"]]}"#).unwrap();
        let rows = RowSet::from_json(&doc).unwrap();
        assert!(!rows.truncated && !rows.prefix_served);
        assert_eq!(rows.rows.len(), 2);
        // Explicit flags decode as sent.
        let doc = parse_frame(
            r#"{"columns":1,"total":2,"rows":[["a"],["b"]],"truncated":true,"prefix_served":true}"#,
        )
        .unwrap();
        let rows = RowSet::from_json(&doc).unwrap();
        assert!(rows.truncated && rows.prefix_served);
    }

    #[test]
    fn row_parsing_rejects_malformed_cells() {
        let doc = parse_frame(r#"{"columns":1,"total":1,"rows":[[1]]}"#).unwrap();
        assert!(RowSet::from_json(&doc).is_err());
        let doc = parse_frame(r#"{"columns":1,"total":1,"rows":["x"]}"#).unwrap();
        assert!(RowSet::from_json(&doc).is_err());
    }
}
