//! Projection pushdown ≡ oracle: phase two joins only the query edges a
//! `SELECT DISTINCT` list spans (the *cover*), and that must never be
//! observable in an answer.
//!
//! Matrix per seed (50 seeds): one random acyclic CQ (chain, star or
//! snowflake, every pattern randomly flipped; odd seeds add a constant end)
//! × **every** non-empty ordered list of ≤ 3 of its variables × `DISTINCT`
//! on/off × limit {0, 1, 16, > total} × {a fresh view, the same view after
//! interleaved insert/remove batches through `Session::apply_mutation`, a
//! 2-shard `ShardedCluster` after the same batches}, on a store that
//! rotates through {csr, map, delta} with the seed. Every reply is compared
//! with the `relational` baseline evaluated from scratch on the graph of
//! the moment: rows, canonical first-k, `full_total`, `truncated`, and
//! `prefix_served == false`.
//!
//! Every query has four variables, so every list drops some: the
//! lists include adjacent pairs (one-pattern cover), non-adjacent pairs
//! (`?x ?a`: a two-pattern path whose interior variable is deduplicated
//! away), single variables (empty cover: the node set) and lists whose
//! cover is every var–var pattern. `DISTINCT` off is the bag projection,
//! which must keep its multiplicities (cover = all patterns).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wireframe::api::obs::names;
use wireframe::baseline::RelationalEngine;
use wireframe::graph::{Graph, GraphBuilder, NodeId, StoreKind};
use wireframe::query::{ConjunctiveQuery, CqBuilder, EmbeddingSet};
use wireframe::{Mutation, QueryExecutor, Session, SessionConfig, ShardedCluster};

const LABELS: [&str; 4] = ["A", "B", "C", "D"];
const SEEDS: u64 = 50;
const BATCHES: usize = 3;
const BATCH_OPS: usize = 12;

/// One triple pattern of a query body, as `CqBuilder::pattern` takes it.
type BodyPattern = (String, &'static str, String);

fn random_graph(rng: &mut SmallRng, kind: StoreKind) -> Graph {
    let nodes = rng.gen_range(4..14u32);
    let edges = rng.gen_range(20..90usize);
    let mut b = GraphBuilder::new();
    for l in LABELS {
        b.intern_predicate(l);
    }
    for n in 0..nodes {
        b.intern_node(&format!("n{n}"));
    }
    for _ in 0..edges {
        b.add(
            &format!("n{}", rng.gen_range(0..nodes)),
            LABELS[rng.gen_range(0..LABELS.len())],
            &format!("n{}", rng.gen_range(0..nodes)),
        );
    }
    b.build_with_store(kind)
}

/// A random acyclic query body over four variables, and their names.
/// `constant` names a node that closes one end with a constant.
fn random_body(rng: &mut SmallRng, constant: Option<&str>) -> (Vec<BodyPattern>, Vec<String>) {
    let shape: [(&str, &str); 3] = match rng.gen_range(0..3u32) {
        // Chain.
        0 => [("?x", "?m"), ("?m", "?a"), ("?a", "?z")],
        // Star.
        1 => [("?x", "?m"), ("?x", "?a"), ("?x", "?z")],
        // Snowflake: hub x, one two-edge arm x — m — a, one leaf z.
        _ => [("?x", "?m"), ("?m", "?a"), ("?x", "?z")],
    };
    let mut edges: Vec<(String, String)> = shape
        .iter()
        .map(|&(s, o)| (s.to_owned(), o.to_owned()))
        .collect();
    if let Some(node) = constant {
        // A constant end hangs off a random variable: a var–const pattern,
        // a filter that never belongs to a cover.
        let (s, o) = &edges[rng.gen_range(0..edges.len())];
        let at = if rng.gen_range(0..2u32) == 0 { s } else { o }.clone();
        edges.push((at, node.to_owned()));
    }
    let mut vars: Vec<String> = edges
        .iter()
        .flat_map(|(s, o)| [s.clone(), o.clone()])
        .filter(|t| t.starts_with('?'))
        .collect();
    vars.sort();
    vars.dedup();
    let body = edges
        .into_iter()
        .map(|(s, o)| {
            let label = LABELS[rng.gen_range(0..LABELS.len())];
            if rng.gen_range(0..2u32) == 0 {
                (s, label, o)
            } else {
                (o, label, s)
            }
        })
        .collect();
    (body, vars)
}

/// Every non-empty ordered list of at most three distinct variables.
fn select_lists(vars: &[String]) -> Vec<Vec<&str>> {
    let mut lists: Vec<Vec<&str>> = Vec::new();
    for a in vars {
        lists.push(vec![a]);
        for b in vars.iter().filter(|b| *b != a) {
            lists.push(vec![a, b]);
            for c in vars.iter().filter(|c| *c != a && *c != b) {
                lists.push(vec![a, b, c]);
            }
        }
    }
    lists
}

fn build_query(
    graph: &Graph,
    body: &[BodyPattern],
    select: &[&str],
    distinct: bool,
) -> ConjunctiveQuery {
    let mut qb = CqBuilder::new(graph.dictionary());
    if distinct {
        qb.distinct();
    }
    for v in select {
        qb.project(v);
    }
    for (s, p, o) in body {
        qb.pattern(s, p, o).unwrap();
    }
    qb.build().unwrap()
}

/// A batch that both inserts and removes, over the labels the queries use.
fn random_batch(graph: &Graph, rng: &mut SmallRng, fresh: &mut usize) -> Mutation {
    let dict = graph.dictionary();
    let live: Vec<_> = graph.triples().collect();
    let node = |rng: &mut SmallRng| {
        dict.node_label(NodeId(rng.gen_range(0..graph.node_count() as u32)))
            .unwrap()
            .to_owned()
    };
    let mut mutation = Mutation::new();
    for op in 0..BATCH_OPS {
        if op % 2 == 0 && !live.is_empty() {
            let t = live[rng.gen_range(0..live.len())];
            mutation = mutation.remove(
                dict.node_label(t.subject).unwrap(),
                dict.predicate_label(t.predicate).unwrap(),
                dict.node_label(t.object).unwrap(),
            );
        } else {
            let s = if rng.gen_range(0..6u32) == 0 {
                *fresh += 1;
                format!("fresh{fresh}")
            } else {
                node(rng)
            };
            let p = LABELS[rng.gen_range(0..LABELS.len())];
            mutation = mutation.insert(&s, p, &node(rng));
        }
    }
    mutation
}

/// The rows of `set` as a sorted multiset (canonical row order, duplicates
/// kept): what two bag answers must agree on.
fn sorted_rows(set: &EmbeddingSet) -> EmbeddingSet {
    set.canonical_prefix(set.len())
}

/// Asserts `executor` answers `query` exactly like the oracle at every
/// limit. Schemas are not compared: a plan-cache hit on an isomorphic query
/// carries the representative's variable ids (columns are positional).
fn assert_matches_oracle(
    executor: &dyn QueryExecutor,
    query: &ConjunctiveQuery,
    oracle: &EmbeddingSet,
    context: &str,
) {
    let total = oracle.len();
    for limit in [0, 1, 16, total + 7] {
        let ev = executor.execute_limited(query, limit).unwrap();
        if limit == 0 {
            assert!(
                ev.limited.is_none(),
                "{context}: unlimited carries no LimitInfo"
            );
            assert_eq!(ev.embedding_count(), total, "{context}: row count");
            if query.distinct() {
                assert_eq!(
                    ev.embeddings.flat_data(),
                    oracle.flat_data(),
                    "{context}: DISTINCT rows (sorted, deduplicated) differ"
                );
            } else {
                assert_eq!(
                    sorted_rows(&ev.embeddings).flat_data(),
                    sorted_rows(oracle).flat_data(),
                    "{context}: bag rows differ (multiplicities included)"
                );
            }
            continue;
        }
        assert_eq!(
            ev.embeddings.flat_data(),
            oracle.canonical_prefix(limit).flat_data(),
            "{context}: canonical first-{limit} rows differ"
        );
        let info = ev.limited.expect("limited evaluations carry LimitInfo");
        assert_eq!(info.limit, limit, "{context}");
        assert!(
            !info.prefix_served,
            "{context}: a projecting query is never prefix-served"
        );
        assert_eq!(
            info.full_total,
            Some(total),
            "{context} limit {limit}: exact total"
        );
        assert_eq!(
            info.truncated,
            total > limit,
            "{context} limit {limit}: truncated flag"
        );
    }
}

/// Runs every SELECT list over `body` through `executor` and compares with
/// the oracle evaluated from scratch on `graph`, the whole current graph (a
/// cluster's own `graph()` is one shard's partition).
fn check_all_lists(
    executor: &dyn QueryExecutor,
    graph: &Graph,
    body: &[BodyPattern],
    vars: &[String],
    context: &str,
) {
    let oracle = RelationalEngine::new(graph);
    for select in select_lists(vars) {
        for distinct in [true, false] {
            let query = build_query(graph, body, &select, distinct);
            let expected = oracle.evaluate(&query).unwrap();
            let quantifier = if distinct { " DISTINCT" } else { "" };
            let context = format!("{context} SELECT{quantifier} {select:?}");
            assert_matches_oracle(executor, &query, &expected, &context);
        }
    }
}

/// One seed of the matrix: a random graph on `kind`, a random query body
/// (closed with a constant end when `constant`), every SELECT list on a
/// fresh view, on the maintained view and on a 2-shard cluster. Returns the
/// session's `executor.projected_serves`.
fn run_seed(seed: u64, kind: StoreKind, constant: bool) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x9e37_79b9 ^ seed);
    let graph = Arc::new(random_graph(&mut rng, kind));
    let (body, vars) = random_body(&mut rng, constant.then_some("n1"));
    assert!(
        vars.len() >= 4,
        "every ≤ 3-variable list must drop a variable"
    );
    let context = format!("seed {seed} {kind:?}");

    let session = Session::from_config(Arc::clone(&graph), SessionConfig::new()).unwrap();
    let cluster = ShardedCluster::new(Arc::clone(&graph), 2, SessionConfig::new()).unwrap();
    check_all_lists(&session, &graph, &body, &vars, &format!("{context} fresh:"));

    // Interleaved insert/remove batches: the session maintains every view
    // retained above in place; the cluster re-merges per query.
    let mut fresh = 0usize;
    for _ in 0..BATCHES {
        let batch = random_batch(&session.graph(), &mut rng, &mut fresh);
        session.apply_mutation(&batch);
        cluster.apply_mutation(&batch);
    }
    let graph = session.graph();
    check_all_lists(
        &session,
        &graph,
        &body,
        &vars,
        &format!("{context} maintained:"),
    );
    check_all_lists(
        &cluster,
        &graph,
        &body,
        &vars,
        &format!("{context} 2 shards:"),
    );

    assert!(
        session.stats().plans_maintained > 0,
        "{context}: the batches must hit retained views, or the maintained leg tests nothing"
    );
    session.metrics_snapshot().counter(names::PROJECTED_SERVES)
}

/// Half of the `SEEDS` seeds — the even ones without, the odd ones with a
/// constant end — with the store rotating so each backend sees a third.
fn run_half(constant: bool) {
    let stores = [StoreKind::Csr, StoreKind::Map, StoreKind::Delta];
    let projected_serves: u64 = (0..SEEDS)
        .filter(|seed| (seed % 2 == 1) == constant)
        .map(|seed| run_seed(seed, stores[(seed / 2) as usize % stores.len()], constant))
        .sum();
    assert!(
        projected_serves > 0,
        "the DISTINCT lists must have been answered from a cover join"
    );
}

// Two tests so the halves run on two threads.
#[test]
fn pushdown_matches_the_oracle_on_variable_only_queries() {
    run_half(false);
}

#[test]
fn pushdown_matches_the_oracle_with_a_constant_end() {
    run_half(true);
}
