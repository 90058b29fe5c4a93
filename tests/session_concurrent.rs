//! Concurrent `Session` serving: many threads issuing a mix of repeated and
//! distinct queries against one shared session must produce exactly the
//! answers of a sequential run, with every issued query accounted by the
//! cache's hit/miss counters.

use std::sync::Arc;

use wireframe::datagen::{full_workload, generate, YagoConfig};
use wireframe::query::EmbeddingSet;
use wireframe::{QueryExecutor, Session};

/// Two workload passes per worker, each worker starting at its own offset:
/// at any moment the workers collectively issue both identical queries
/// (hammering one cache bucket) and distinct ones (spreading over shards).
const THREADS: usize = 8;
const PASSES: usize = 2;

#[test]
fn concurrent_sessions_match_sequential_answers_and_account_every_query() {
    let graph = Arc::new(generate(&YagoConfig::tiny()));
    let workload = full_workload(&graph).unwrap();

    // Sequential reference run on its own session.
    let sequential = Session::shared(Arc::clone(&graph));
    let reference: Vec<EmbeddingSet> = workload
        .iter()
        .map(|bq| sequential.execute(&bq.query).unwrap().embeddings)
        .collect();

    let session = Arc::new(Session::shared(Arc::clone(&graph)));
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let session = Arc::clone(&session);
            let workload = &workload;
            let reference = &reference;
            scope.spawn(move || {
                for pass in 0..PASSES {
                    for step in 0..workload.len() {
                        let idx = (worker + pass + step) % workload.len();
                        let ev = session.execute(&workload[idx].query).unwrap();
                        assert!(
                            ev.embeddings().same_answer(&reference[idx]),
                            "{}: concurrent answer differs from sequential",
                            workload[idx].name
                        );
                    }
                }
            });
        }
    });

    let issued = (THREADS * PASSES * workload.len()) as u64;
    let stats = session.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        issued,
        "every issued query is exactly one cache hit or one cache miss"
    );
    assert!(
        stats.cache_hits > 0,
        "repeated queries must hit the shared plan cache"
    );
    // Some workload queries are isomorphic to each other (e.g. two chain
    // rows share a label pair), so the expected number of distinct cached
    // plans is whatever the sequential pass cached — not the raw query count.
    assert_eq!(
        session.cached_queries(),
        sequential.cached_queries(),
        "racing preparers of the same query converge on one cached plan"
    );
}

#[test]
fn concurrent_use_spans_engines_via_per_engine_sessions() {
    // The per-engine serving pattern: one shared graph, one session per
    // engine, all sessions queried concurrently.
    let graph = Arc::new(generate(&YagoConfig::tiny()));
    let workload = full_workload(&graph).unwrap();
    let workload = &workload[..4];

    let registry = wireframe::default_registry();
    let sessions: Vec<Session> = registry
        .names()
        .iter()
        .map(|name| {
            Session::from_config(
                Arc::clone(&graph),
                wireframe::SessionConfig::new().engine(*name),
            )
            .unwrap()
        })
        .collect();

    let reference: Vec<EmbeddingSet> = workload
        .iter()
        .map(|bq| sessions[0].execute(&bq.query).unwrap().embeddings)
        .collect();

    std::thread::scope(|scope| {
        for session in &sessions {
            for (idx, bq) in workload.iter().enumerate() {
                let reference = &reference;
                scope.spawn(move || {
                    let ev = session.execute(&bq.query).unwrap();
                    assert_eq!(ev.engine, session.engine_name());
                    assert!(
                        ev.embeddings().same_answer(&reference[idx]),
                        "{} on {}: differs from the wireframe reference",
                        session.engine_name(),
                        bq.name
                    );
                });
            }
        }
    });
}
