//! Ablation harness for the paper's own design claims:
//!
//! 1. **Planner quality** — the DP Edgifier versus a greedy planner versus
//!    evaluating the query edges as written (no cost-based planning), measured
//!    in actual edge walks of phase one.
//! 2. **Edge burnback** — answer-graph size and end-to-end time for the cyclic
//!    (diamond) queries with node burnback only (the paper's configuration)
//!    versus triangulation + edge burnback (the paper's work in progress).
//! 3. **Factorization-gap scaling** — |Embeddings| / |AG| as the planted
//!    fan-out grows, the mechanism behind the paper's headline ratios.
//!
//! ```text
//! cargo run -p wireframe-bench --bin ablation --release
//! ```

use std::time::Instant;

use wireframe_bench::{build_dataset, DatasetSize};
use wireframe_core::{EvalOptions, PlannerKind, WireframeEngine};
use wireframe_datagen::{generate, table1_queries, YagoConfig};
use wireframe_query::Shape;

fn main() {
    let size = DatasetSize::from_env();
    let graph = build_dataset(size);
    eprintln!(
        "dataset: {} triples, {} predicates",
        graph.triple_count(),
        graph.predicate_count()
    );
    let queries = table1_queries(&graph).expect("workload builds");

    println!("=== Ablation 1: planner quality (phase-one edge walks) ===");
    println!(
        "{:<7} {:>14} {:>14} {:>14}",
        "query", "DP edgifier", "greedy", "as written"
    );
    for bq in &queries {
        let mut walks = Vec::new();
        for kind in [
            PlannerKind::DpLeftDeep,
            PlannerKind::Greedy,
            PlannerKind::AsWritten,
        ] {
            let engine =
                WireframeEngine::with_options(&graph, EvalOptions::default().with_planner(kind));
            let (_, stats, _) = engine.answer_graph(&bq.query).expect("phase one runs");
            walks.push(stats.edge_walks);
        }
        println!(
            "{:<7} {:>14} {:>14} {:>14}",
            bq.name, walks[0], walks[1], walks[2]
        );
    }

    println!("\n=== Ablation 2: edge burnback on the cyclic (diamond) queries ===");
    println!(
        "{:<7} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "query", "|AG| node-bb", "|AG| edge-bb", "removed", "node-bb ms", "edge-bb ms"
    );
    for bq in queries.iter().filter(|q| q.shape == Shape::Cycle) {
        let plain_engine = WireframeEngine::new(&graph);
        let t = Instant::now();
        let plain = plain_engine.execute(&bq.query).expect("evaluates");
        let plain_ms = t.elapsed().as_secs_f64() * 1e3;

        let eb_engine =
            WireframeEngine::with_options(&graph, EvalOptions::default().with_edge_burnback());
        let t = Instant::now();
        let burned = eb_engine.execute(&bq.query).expect("evaluates");
        let eb_ms = t.elapsed().as_secs_f64() * 1e3;

        assert!(plain.embeddings().same_answer(burned.embeddings()));
        println!(
            "{:<7} {:>12} {:>12} {:>12} {:>12.1} {:>12.1}",
            bq.name,
            plain.answer_graph_size(),
            burned.answer_graph_size(),
            burned.edge_burnback().edges_removed,
            plain_ms,
            eb_ms
        );
    }

    println!("\n=== Ablation 3: factorization gap vs planted fan-out (snowflakes) ===");
    println!(
        "{:>8} {:>10} {:>14} {:>10}",
        "fan-out", "|AG|", "|Embeddings|", "ratio"
    );
    for fanout in [1usize, 2, 3, 4, 6] {
        let mut cfg = YagoConfig::small();
        cfg.snowflake_leaf_fanout = fanout;
        let g = generate(&cfg);
        let wf = WireframeEngine::new(&g);
        let mut ag_total = 0usize;
        let mut emb_total = 0usize;
        for bq in table1_queries(&g).expect("workload builds") {
            if bq.shape != Shape::Snowflake {
                continue;
            }
            let out = wf.execute(&bq.query).expect("evaluates");
            ag_total += out.answer_graph_size();
            emb_total += out.embedding_count();
        }
        println!(
            "{:>8} {:>10} {:>14} {:>9.0}x",
            fanout,
            ag_total,
            emb_total,
            emb_total as f64 / ag_total.max(1) as f64
        );
    }
}
