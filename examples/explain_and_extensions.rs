//! Tour of the engineering extensions beyond the paper's prototype:
//! EXPLAIN-style plan output, parallel defactorization, and the dataset
//! report.
//!
//! Run with `cargo run --release --example explain_and_extensions`.

use wireframe::core::{defactorize_parallel, explain_output, ParallelOptions, WireframeEngine};
use wireframe::datagen::report::DatasetReport;
use wireframe::datagen::{generate, snowflake_queries, YagoConfig};

fn main() {
    let graph = generate(&YagoConfig::small());

    println!("=== dataset report (top 10 predicates) ===");
    let report = DatasetReport::build(&graph);
    print!("{}", report.to_table(10));

    let queries = snowflake_queries(&graph).expect("workload builds");
    let bq = &queries[0];
    let engine = WireframeEngine::new(&graph);
    let out = engine.execute(&bq.query).expect("evaluates");

    println!("\n=== EXPLAIN {} ===", bq.name);
    print!("{}", explain_output(&graph, &bq.query, &out));

    println!("\n=== parallel defactorization ===");
    let (ag, _, _) = engine.answer_graph(&bq.query).expect("phase one runs");
    let (parallel, parallel_stats) =
        defactorize_parallel(&bq.query, &ag, &ParallelOptions::default())
            .expect("parallel defactorization");
    println!(
        "parallel defactorization produced {} embeddings on up to {} threads \
         (peak intermediate {} per worker)",
        parallel.len(),
        ParallelOptions::default().threads,
        parallel_stats.peak_intermediate
    );

    assert_eq!(parallel.len(), out.embedding_count());
}
