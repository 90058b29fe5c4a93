//! The ladder's adapter: every call the traced run makes into the measured
//! workspace goes through this file, one function per public call, so the
//! imports below are the whole *pinned surface* (listed in the README). A
//! later change to one of these items breaks the ladder here, visibly, and
//! nowhere else; the socket driver does not use this file.

use std::io::Cursor;
use std::sync::Arc;

use serde::json;
use wireframe::{Session, SessionConfig};
use wireframe_api::wire::{parse_frame, Request, Response, RowSet};
use wireframe_api::{Evaluation, MaintenanceStats};
use wireframe_core::{
    defactorize, embedding_plan, generate, plan, AnswerGraph, DefactorizationStats, EvalOptions,
    GenerationStats, MaterializedQuery, Plan, WireframeEngine,
};
use wireframe_graph::slices::intersect_sorted;
use wireframe_graph::{EdgeDelta, Graph, Mutation, NodeId, PredId, StoreKind};
use wireframe_query::canonical::plan_cache_key;
use wireframe_query::{parse_query, ConjunctiveQuery, EmbeddingSet};
use wireframe_serve::frame::{write_frame, FrameReader, DEFAULT_MAX_FRAME};
use wireframe_serve::{ServeConfig, Server};

/// The types the ladder holds between calls, named only through this file.
pub type LayerGraph = Graph;
pub type LayerSession = Session;
pub type LayerView = MaterializedQuery;

// ---- graph (crates/graph) -------------------------------------------------

/// The store `wfserve --store delta` serves from.
pub fn to_delta_store(graph: Graph) -> Graph {
    graph.with_store(StoreKind::Delta)
}

pub fn heap_bytes(graph: &Graph) -> usize {
    graph.store().heap_bytes()
}

pub fn triple_count(graph: &Graph) -> usize {
    graph.triple_count()
}

/// A one-pattern lookup on probe `(predicate, subject)`: the cheapest
/// distinct plans there are, for filling a session cache.
pub fn filler_query(graph: &Graph, (predicate, subject, _): Probe) -> String {
    let dict = graph.dictionary();
    format!(
        "SELECT ?o WHERE {{ <{}> <{}> ?o . }}",
        dict.node_label(NodeId(subject)).unwrap_or("?"),
        dict.predicate_label(PredId(predicate)).unwrap_or("?"),
    )
}

/// `Graph::pairs` over every predicate: edges visited and a checksum that
/// keeps the scan from being optimised away.
pub fn scan_pairs(graph: &Graph) -> (usize, u64) {
    let (mut edges, mut sum) = (0usize, 0u64);
    for p in 0..graph.predicate_count() {
        for &(s, o) in graph.pairs(PredId(p as u32)).iter() {
            edges += 1;
            sum = sum.wrapping_add(u64::from(s.0) ^ (u64::from(o.0) << 1));
        }
    }
    (edges, sum)
}

/// A neighbour-list probe: `(predicate, node, forward)`.
pub type Probe = (u32, u32, bool);

/// Every triple as one forward and one backward probe candidate.
pub fn probe_candidates(graph: &Graph) -> Vec<Probe> {
    graph
        .triples()
        .flat_map(|t| {
            [
                (t.predicate.0, t.subject.0, true),
                (t.predicate.0, t.object.0, false),
            ]
        })
        .collect()
}

/// `Graph::objects_of` / `Graph::subjects_of` for each probe.
pub fn neighbor_lookups(graph: &Graph, probes: &[Probe]) -> u64 {
    let mut sum = 0u64;
    for &(p, n, forward) in probes {
        let list = if forward {
            graph.objects_of(PredId(p), NodeId(n))
        } else {
            graph.subjects_of(PredId(p), NodeId(n))
        };
        sum = sum.wrapping_add(list.len() as u64 + list.first().map_or(0, |x| u64::from(x.0)));
    }
    sum
}

/// The longest backward neighbour lists of the graph (subjects of popular
/// objects): sorted slices for the intersection rung.
pub fn longest_neighbor_lists(graph: &Graph, count: usize) -> Vec<Vec<NodeId>> {
    let mut seen = std::collections::HashSet::new();
    let mut lists: Vec<&[NodeId]> = graph
        .triples()
        .filter(|t| seen.insert((t.predicate, t.object)))
        .map(|t| graph.subjects_of(t.predicate, t.object))
        .collect();
    lists.sort_by_key(|l| std::cmp::Reverse(l.len()));
    lists
        .into_iter()
        .take(count)
        .map(<[NodeId]>::to_vec)
        .collect()
}

/// `slices::intersect_sorted` over every pair of `lists`; returns elements
/// read (|a| + |b| per pair) and elements kept.
pub fn intersect_pairs(lists: &[Vec<NodeId>]) -> (usize, usize) {
    let (mut read, mut kept) = (0usize, 0usize);
    let mut out = Vec::new();
    for (i, a) in lists.iter().enumerate() {
        for b in &lists[i + 1..] {
            out.clear();
            intersect_sorted(a, b, &mut out);
            read += a.len() + b.len();
            kept += out.len();
        }
    }
    (read, kept)
}

pub fn parse_script(script: &str) -> Mutation {
    Mutation::parse_script(script).expect("the benchmark writes well-formed scripts")
}

/// `Graph::apply`: the next version, the batch's net delta, and whether the
/// delta store compacted.
pub fn apply(graph: &Graph, mutation: &Mutation) -> (Graph, EdgeDelta, bool) {
    let (next, outcome) = graph.apply(mutation);
    (next, outcome.delta, outcome.compacted)
}

/// A version of `graph` that compacts on its next non-empty batch.
pub fn compacting(graph: &Graph) -> Graph {
    graph.clone().with_compaction_threshold(1e-9)
}

// ---- query (crates/query) -------------------------------------------------

pub fn parse(text: &str, graph: &Graph) -> ConjunctiveQuery {
    parse_query(text, graph.dictionary()).expect("the oracle already parsed this query")
}

/// The canonical signature the session's plan cache keys on.
pub fn canonical_key(query: &ConjunctiveQuery) -> String {
    plan_cache_key(query).as_str().to_owned()
}

/// Whether a maintained top-k prefix can serve this query: the SELECT list
/// must keep every variable.
pub fn prefix_capable(query: &ConjunctiveQuery) -> bool {
    query.variables().all(|v| query.projection().contains(&v))
}

/// SELECT-list projection (with DISTINCT) and, for `limit > 0`, the
/// canonical cut — what follows defactorization on a view hit.
pub fn project_cut(full: EmbeddingSet, query: &ConjunctiveQuery, limit: usize) -> usize {
    let projected = full
        .into_projected_set(query)
        .expect("the projection names query variables");
    if limit > 0 {
        projected.canonical_prefix(limit).len()
    } else {
        projected.len()
    }
}

// ---- core (crates/core) ---------------------------------------------------

pub fn options() -> EvalOptions {
    EvalOptions::default()
}

pub fn plan_query(graph: &Graph, query: &ConjunctiveQuery) -> Plan {
    plan(graph, query, options().planner).expect("workload queries are connected")
}

/// The planner's estimate of phase-one edge walks.
pub fn estimated_walks(plan: &Plan) -> f64 {
    plan.estimated_cost
}

/// Phase one's result and its counters.
pub struct Generated {
    pub answer_graph: AnswerGraph,
    pub edge_walks: u64,
    pub edges_burned: u64,
    pub nodes_burned: u64,
    pub ag_edges: u64,
}

pub fn generate_answer_graph(graph: &Graph, query: &ConjunctiveQuery, plan: &Plan) -> Generated {
    let (answer_graph, stats): (AnswerGraph, GenerationStats) =
        generate(graph, query, &plan.order, &options()).expect("the plan covers the query");
    Generated {
        edge_walks: stats.edge_walks,
        edges_burned: stats.edges_burned,
        nodes_burned: stats.nodes_burned,
        ag_edges: answer_graph.total_edges() as u64,
        answer_graph,
    }
}

/// Phase two's result and its counters.
pub struct Defactorized {
    pub embeddings: EmbeddingSet,
    pub rows: u64,
    pub peak_intermediate: u64,
}

/// `embedding_plan` + `defactorize`: phase two over the whole answer graph.
pub fn defactorize_all(query: &ConjunctiveQuery, ag: &AnswerGraph) -> Defactorized {
    let order = embedding_plan(query, ag);
    let (embeddings, stats): (EmbeddingSet, DefactorizationStats) =
        defactorize(query, ag, &order).expect("the embedding plan covers the query");
    Defactorized {
        rows: embeddings.len() as u64,
        peak_intermediate: stats.peak_intermediate as u64,
        embeddings,
    }
}

/// The retained view a session keeps per cached plan.
pub fn materialize(graph: &Graph, query: &ConjunctiveQuery, plan: &Plan) -> MaterializedQuery {
    WireframeEngine::with_options(graph, options())
        .materialize_with_plan(query, plan)
        .expect("phase one succeeds on workload queries")
        .0
}

pub fn prime_prefix(view: &mut MaterializedQuery, limit: usize) -> bool {
    view.prime_prefix(limit)
}

/// What one maintenance pass did to one view.
pub struct Maintained {
    pub frontier_nodes: u64,
    pub prefix_refills: u64,
    pub prefix_fallbacks: u64,
}

pub fn maintain(
    view: &mut MaterializedQuery,
    graph: &Graph,
    delta: &EdgeDelta,
    epoch: u64,
) -> Maintained {
    let stats: MaintenanceStats = view.maintain(graph, delta, epoch);
    Maintained {
        frontier_nodes: stats.frontier_nodes as u64,
        prefix_refills: stats.prefix_refills as u64,
        prefix_fallbacks: stats.prefix_fallbacks as u64,
    }
}

// ---- session (src/session.rs) ---------------------------------------------

/// A session as `wfserve` builds it (`--store delta --threads 1`, defaults
/// otherwise); `cache_capacity` overrides the plan-cache bound.
pub fn session(graph: Arc<Graph>, cache_capacity: Option<usize>) -> Arc<Session> {
    let mut config = SessionConfig::new().store(StoreKind::Delta);
    if let Some(capacity) = cache_capacity {
        config = config.cache_capacity(capacity);
    }
    Arc::new(Session::from_config(graph, config).expect("the default engine exists"))
}

pub fn query_limited(session: &Session, text: &str, limit: usize) -> Evaluation {
    session
        .query_limited(text, limit)
        .expect("workload queries evaluate")
}

pub fn clear_cache(session: &Session) {
    session.clear_cache();
}

pub fn apply_mutation(session: &Session, mutation: &Mutation) {
    session.apply_mutation(mutation);
}

pub fn evaluation_rows(evaluation: &Evaluation) -> usize {
    evaluation.embedding_count()
}

pub fn prefix_served(evaluation: &Evaluation) -> bool {
    evaluation.limited.is_some_and(|l| l.prefix_served)
}

// ---- wire (crates/api/src/wire.rs) ----------------------------------------

pub fn decode_request(payload: &str) -> Request {
    let doc = parse_frame(payload).expect("the benchmark sends valid JSON");
    Request::from_json(&doc).expect("the benchmark sends valid requests")
}

/// The `rows` response `wfserve` builds from an evaluation: labels resolved
/// through the dictionary, as `serve_job` does.
pub fn rows_response(id: u64, evaluation: &Evaluation, graph: &Graph) -> Response {
    let dict = graph.dictionary();
    let info = evaluation.limited;
    let rows: Vec<Vec<String>> = evaluation
        .embeddings()
        .rows()
        .map(|row| {
            row.iter()
                .map(|n| dict.node_label(*n).unwrap_or("?").to_owned())
                .collect()
        })
        .collect();
    Response::Rows {
        id,
        epoch: evaluation.epoch(),
        rows: RowSet {
            columns: evaluation.embeddings().schema().len() as u64,
            total: info
                .and_then(|i| i.full_total)
                .unwrap_or(evaluation.embedding_count()) as u64,
            rows,
            truncated: info.is_some_and(|i| i.truncated),
            prefix_served: info.is_some_and(|i| i.prefix_served),
        },
    }
}

pub fn response_rows(response: &Response) -> usize {
    match response {
        Response::Rows { rows, .. } => rows.rows.len(),
        _ => 0,
    }
}

pub fn encode_response(response: &Response) -> String {
    json::to_string(response)
}

// ---- serve (crates/serve) -------------------------------------------------

pub fn frame_write(out: &mut Vec<u8>, payload: &str) {
    write_frame(out, payload).expect("writing to memory cannot fail");
}

pub fn frame_read(framed: &[u8]) -> String {
    FrameReader::new()
        .read_frame(&mut Cursor::new(framed), DEFAULT_MAX_FRAME)
        .expect("the frame was just written")
        .expect("one whole frame")
}

/// An in-process server over `session`, configured like the measured
/// `wfserve` (`--workers 2`, defaults otherwise), on an ephemeral port.
pub fn start_server(session: Arc<Session>) -> Server {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    Server::start(session, "127.0.0.1:0", config).expect("an ephemeral loopback port binds")
}

pub fn server_addr(server: &Server) -> std::net::SocketAddr {
    server.local_addr()
}

pub fn stop_server(server: Server) {
    server.shutdown();
}
