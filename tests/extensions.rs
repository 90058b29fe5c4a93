//! Integration tests for the engineering extensions beyond the paper's
//! prototype — parallel defactorization, the sort-merge baseline, canonical
//! query signatures — exercised over the Table 1 workload on the synthetic
//! dataset. The invariant throughout: every alternative path produces
//! exactly the same answer as the reference pipeline.

use wireframe::baseline::SortMergeEngine;
use wireframe::core::{defactorize_parallel, explain_output, ParallelOptions, WireframeEngine};
use wireframe::datagen::{generate, table1_queries, DatasetReport, YagoConfig};
use wireframe::query::canonical::{equivalent, signature};

#[test]
fn sortmerge_baseline_agrees_with_wireframe_on_the_workload() {
    let g = generate(&YagoConfig::tiny());
    let wf = WireframeEngine::new(&g);
    let sm = SortMergeEngine::new(&g);
    for bq in table1_queries(&g).unwrap() {
        let w = wf.execute(&bq.query).unwrap();
        let s = sm.evaluate(&bq.query).unwrap();
        assert!(
            w.embeddings().same_answer(&s),
            "{}: wireframe {} vs sort-merge {}",
            bq.name,
            w.embedding_count(),
            s.len()
        );
    }
}

#[test]
fn parallel_defactorization_matches_the_reference_pipeline() {
    let g = generate(&YagoConfig::tiny());
    let wf = WireframeEngine::new(&g);
    for bq in table1_queries(&g).unwrap() {
        let out = wf.execute(&bq.query).unwrap();
        let (ag, _, _) = wf.answer_graph(&bq.query).unwrap();

        let (parallel, _) = defactorize_parallel(
            &bq.query,
            &ag,
            &ParallelOptions {
                threads: 3,
                min_seeds_per_thread: 1,
            },
        )
        .unwrap();
        let parallel = parallel.project(&bq.query).unwrap();
        assert!(
            parallel.same_answer(out.embeddings()),
            "{}: parallel differs",
            bq.name
        );
    }
}

#[test]
fn explain_covers_the_whole_workload() {
    let g = generate(&YagoConfig::tiny());
    let wf = WireframeEngine::new(&g);
    for bq in table1_queries(&g).unwrap() {
        let out = wf.execute(&bq.query).unwrap();
        let text = explain_output(&g, &bq.query, &out);
        assert!(text.contains("answer-graph plan"), "{}", bq.name);
        assert_eq!(
            text.matches("materialize").count(),
            bq.query.num_patterns(),
            "{}: one plan line per query edge",
            bq.name
        );
    }
}

#[test]
fn table1_queries_have_distinct_signatures() {
    let g = generate(&YagoConfig::tiny());
    let queries = table1_queries(&g).unwrap();
    for (i, a) in queries.iter().enumerate() {
        for b in queries.iter().skip(i + 1) {
            assert!(
                !equivalent(&a.query, &b.query),
                "{} and {} should not be structurally equivalent",
                a.name,
                b.name
            );
        }
        // Signatures are stable across recomputation.
        assert_eq!(signature(&a.query), signature(&a.query));
    }
}

#[test]
fn dataset_report_covers_the_workload_predicates() {
    let g = generate(&YagoConfig::tiny());
    let report = DatasetReport::build(&g);
    for bq in table1_queries(&g).unwrap() {
        for p in bq.query.patterns() {
            let label = g.dictionary().predicate_label(p.predicate).unwrap();
            let entry = report.predicate(label).unwrap();
            assert!(entry.cardinality > 0, "{label} must have edges");
        }
    }
}
