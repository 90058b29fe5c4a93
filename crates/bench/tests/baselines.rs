//! Schema back-compat gate: every baseline committed under
//! `bench/baselines/` must parse with the current report reader,
//! whatever schema version it was written at — otherwise bumping
//! `SCHEMA_VERSION` silently disables the CI gates.

use wireframe_bench::report::BenchReport;

fn baselines_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines")
}

#[test]
fn every_committed_baseline_parses() {
    let dir = baselines_dir();
    let mut parsed = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("bench/baselines exists") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let report = BenchReport::from_json(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(
            !report.engines.is_empty(),
            "{}: a baseline without engines gates nothing",
            path.display()
        );
        parsed.push(path.file_name().unwrap().to_string_lossy().into_owned());
    }
    // Exactly the two files the CI gates run against: a missing one would
    // silently disable its gate, an extra one would be a baseline nothing
    // runs.
    parsed.sort();
    assert_eq!(parsed, ["cyclic.json", "sharded.json"]);
}

#[test]
fn the_cyclic_baseline_records_a_generic_join_advantage() {
    let text = std::fs::read_to_string(baselines_dir().join("cyclic.json"))
        .expect("cyclic.json is committed");
    let report = BenchReport::from_json(&text).expect("cyclic.json parses");
    assert_eq!(report.scenario, "cyclic");
    let names: Vec<&str> = report.engines.iter().map(|e| e.engine.as_str()).collect();
    assert_eq!(names, ["wco", "triangulation"]);
    let (wco, tri) = (&report.engines[0], &report.engines[1]);
    // The lane itself asserted bit-identical embeddings before recording
    // these rows; the committed numbers must agree query by query.
    for (w, t) in wco.queries.iter().zip(&tri.queries) {
        assert_eq!(w.embeddings, t.embeddings, "{}", w.name);
        assert!(
            w.answer_graph_edges.is_some() && t.answer_graph_edges.is_some(),
            "{}: both engines factorize",
            w.name
        );
    }
    // The committed run is the acceptance record for the worst-case-optimal
    // engine: at least 1.2x triangulation throughput on the cyclic lane.
    assert!(
        wco.qps >= 1.2 * tri.qps,
        "committed cyclic baseline shows wco at {:.1} qps vs triangulation {:.1}",
        wco.qps,
        tri.qps
    );
}
