//! Output: the one-line JSON result the harness reads, and the report a
//! person reads above it.

use crate::e2e::Outcome;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of `BENCHMARK.json`: name, unit, which direction
/// is better, and the share of the parent's median by which a change may
/// worsen it. The bounds come from `SPREAD.md` (see the README); a test
/// keeps this table and `BENCHMARK.json` saying the same thing.
pub const E2E_METRICS: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_rps", "1/s", "higher", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("server_cpu_ms_per_req", "ms", "lower", 0.25),
    ("server_peak_rss_mb", "MiB", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
];

/// The share by which `after` is worse than `before` (negative = better).
pub fn worse_by(better: &str, before: f64, after: f64) -> f64 {
    if before == 0.0 {
        return 0.0;
    }
    match better {
        "lower" => (after - before) / before,
        _ => (before - after) / before,
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`. Values keep every digit measured.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that could not be measured is a
/// failed run, reported as `null` so the line still parses.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// The human-readable block for one end-to-end run: every end-to-end metric
/// of the issue by name with its unit, gated ones first.
pub fn print_outcome(o: &Outcome) {
    println!(
        "== {} · seed {} · {} s measured over {} server instances · {} reads · {} writes",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.instances.len(),
        o.reads,
        o.writes.count,
    );
    for (name, value, unit) in o.metrics() {
        println!("  {name:<24} {value:>14.4} {unit}");
    }
    println!("  {:<24} {:>14.4} ms", "read_p99_ms", o.read_p99_ms);
    println!("  {:<24} {:>14.4} ms", "write_p95_ms", o.writes.p95_ms);
    println!("  {:<24} {:>14.4} 1/s", "write_rps", o.writes.rps);
    println!(
        "  {:<24} {:>14.6} share ({} of {})",
        "fail_share", o.fail_share, o.failed, o.attempted
    );
    println!(
        "  {:<24} {:>14.4} share",
        "session.cache_hit_share", o.cache_hit_share
    );
    println!("  {:<24} {:>14.4} ms", "loadgen.late_p99_ms", o.late_p99_ms);
    if let Some(share) = o.analytical_time_share {
        println!("  {:<24} {:>14.4} share", "adhoc analytical time", share);
    }
    let instances: Vec<String> = o.instances.iter().map(|p50| format!("{p50:.4}")).collect();
    println!(
        "  read p50 over each server instance's whole window, ms: {}",
        instances.join(" · ")
    );
    // Latency above is the best slice's, rates and CPU the undisturbed
    // slices' (`churn_mixed`: the best window's); this is the typical slice.
    let [p50, rps, cpu] = o.median_slice;
    println!(
        "  {} of {} slices undisturbed · median slice: read p50 {p50:.4} ms · {rps:.1} reads/s · {cpu:.4} cpu ms/req",
        o.undisturbed_slices, o.slices
    );
    let d = o.dataset_times;
    println!(
        "  inputs: dataset {} · load {:.2} s · program + oracle {:.2} s ({} requests)",
        match d.generated {
            Some((g, w)) => format!("generated in {g:.2} s, written in {w:.2} s"),
            None => "reused".to_owned(),
        },
        d.load_s,
        d.oracle_s,
        o.program.reads.len(),
    );
    for problem in &o.problems {
        println!("  PROBLEM: {problem}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read_reply;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is what the harness reads; these tables are what the
    /// binary prints. They must name the same metrics, units, directions and
    /// bounds, in the same order, and the same workloads.
    #[test]
    fn benchmark_json_says_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let names: Vec<&str> = text
            .match_indices("\"name\": \"")
            .map(|(at, pat)| {
                let rest = &text[at + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect();
        let mut expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        expected.extend(E2E_METRICS.iter().map(|m| m.0));
        #[cfg(feature = "ladder")]
        expected.extend(crate::ladder::LAYER_METRICS.iter().map(|m| m.0));
        #[cfg(feature = "ladder")]
        assert_eq!(names, expected);
        #[cfg(not(feature = "ladder"))]
        assert_eq!(names[..expected.len()], expected[..]);
        for (name, unit, better, bound) in E2E_METRICS {
            let entry = format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\",\n      \"bound\": {bound}"
            );
            assert!(text.contains(&entry), "BENCHMARK.json disagrees on {name}");
        }
        #[cfg(feature = "ladder")]
        for (name, unit) in crate::ladder::LAYER_METRICS {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json disagrees on {name}");
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
    }

    #[test]
    fn result_line_is_one_json_object_with_exactly_the_four_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        );
        assert!(!line.contains('\n'));
        let parsed = read_reply(line.as_bytes()).unwrap();
        let keys: Vec<&str> = parsed.fields.iter().map(|(k, _)| k.as_str()).collect();
        // Nested objects flatten in the reader: value/unit pairs follow.
        assert_eq!(
            keys,
            [
                "correct",
                "attempted",
                "failed",
                "value",
                "unit",
                "value",
                "unit"
            ]
        );
        assert!(line.contains("\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}"));
        assert!(result_line(false, 1, 1, &[("x", f64::NAN, "ms")]).contains("null"));
    }
}
