//! The repeatability tool: runs the whole suite in alternating sets, each
//! run on its own seed, and judges every end-to-end metric × workload the
//! way the harness does — the spread inside a set (interquartile distance
//! over median) and the drift between sets, both against the metric's bound.
//! Its output from the defining machine is committed as `SPREAD.md`, and the
//! bounds in `BENCHMARK.json` are read off it.

use crate::e2e::{self, Outcome, Paths};
use crate::report::{worse_by, E2E_METRICS};
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::Workload;

/// Seeds of the repeat runs start here, away from the default seed.
const FIRST_SEED: u64 = 7001;

pub fn run(paths: &Paths, sets: usize, runs: usize, seconds: u64) -> Result<bool, String> {
    // outcomes[workload][set] = runs of that set
    let mut outcomes: Vec<Vec<Vec<Outcome>>> = vec![vec![Vec::new(); sets]; Workload::ALL.len()];
    let mut all_correct = true;
    for run in 0..runs {
        for set in 0..sets {
            for (of_workload, &workload) in outcomes.iter_mut().zip(&Workload::ALL) {
                let seed = FIRST_SEED + (run * sets + set) as u64;
                let outcome = e2e::run(paths, workload, seed, seconds)?;
                eprintln!(
                    "repeat: set {} run {} {} seed {seed}: p50 {:.4} ms, {:.1} reads/s{}",
                    set + 1,
                    run + 1,
                    workload.name(),
                    outcome.read_p50_ms,
                    outcome.read_rps,
                    if outcome.correct() {
                        ""
                    } else {
                        " — INCORRECT"
                    },
                );
                for problem in &outcome.problems {
                    eprintln!("repeat:   {problem}");
                }
                all_correct &= outcome.correct();
                of_workload[set].push(outcome);
            }
        }
    }

    println!("# Spread of the benchmark on the defining machine\n");
    println!(
        "`benchmark repeat --sets {sets} --runs {runs} --seconds {seconds}`: the suite run in \
         alternating sets, every run on its own seed (from {FIRST_SEED}). *spread* is the distance \
         between a set's first and third quartile (Python's `statistics.quantiles(n=4)`) as a \
         share of its median; *drift* is how much worse the last set's median is than the \
         first's. A row passes when every spread and the drift stay within the bound; a row whose \
         drift passes but whose spread does not is *unresolved*: the runs are too far apart to tell \
         a change of that size from noise. `read_p99_ms`, `write_p95_ms`, `write_rps`, `fail_share` \
         and the generator's lateness are reported without a bound.\n"
    );
    println!(
        "{} hardware threads; all runs correct: {all_correct}.\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut all_within = true;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        println!("## {}\n", workload.name());
        println!(
            "| metric | unit | bound | {}drift | verdict |",
            set_headers(sets)
        );
        println!("|---|---|---|{}---|---|", "---|---|".repeat(sets));
        for (m, &(name, unit, better, bound)) in E2E_METRICS.iter().enumerate() {
            let per_set: Vec<Vec<f64>> = outcomes[w]
                .iter()
                .map(|set| set.iter().map(|o| o.metrics()[m].1).collect())
                .collect();
            let within = print_row(name, unit, Some((better, bound)), &per_set);
            all_within &= within;
        }
        type Reading = fn(&Outcome) -> f64;
        let extra: [(&str, &str, Reading); 5] = [
            ("read_p99_ms", "ms", |o| o.read_p99_ms),
            ("write_p95_ms", "ms", |o| o.writes.p95_ms),
            ("write_rps", "1/s", |o| o.writes.rps),
            ("fail_share", "share", |o| o.fail_share),
            ("loadgen.late_p99_ms", "ms", |o| o.late_p99_ms),
        ];
        for (name, unit, get) in extra {
            let per_set: Vec<Vec<f64>> = outcomes[w]
                .iter()
                .map(|set| set.iter().map(get).collect())
                .collect();
            print_row(name, unit, None, &per_set);
        }
        println!();
    }
    println!(
        "Verdict: {}.",
        if all_within && all_correct {
            "every end-to-end metric × workload within its bound"
        } else {
            "NOT every metric within its bound"
        }
    );
    Ok(all_within && all_correct)
}

fn set_headers(sets: usize) -> String {
    (1..=sets)
        .map(|s| format!("set {s} median [q1 – q3] | spread {s} | "))
        .collect()
}

/// Prints one table row; returns whether the metric stayed within `gate`.
fn print_row(name: &str, unit: &str, gate: Option<(&str, f64)>, per_set: &[Vec<f64>]) -> bool {
    let mut cells = String::new();
    let mut spreads_within = true;
    for values in per_set {
        let (q1, q3) = quartiles(values);
        let mid = median(values);
        let spread = if mid == 0.0 {
            0.0
        } else {
            relative_spread(values)
        };
        cells.push_str(&format!(
            "{mid:.4} [{q1:.4} – {q3:.4}] | {:.1} % | ",
            spread * 100.0
        ));
        if let Some((_, bound)) = gate {
            spreads_within &= spread <= bound;
        }
    }
    let first = median(&per_set[0]);
    let last = median(&per_set[per_set.len() - 1]);
    let (drift, verdict) = match gate {
        Some((better, bound)) => {
            let drift = worse_by(better, first, last);
            let verdict = match (drift <= bound, spreads_within) {
                (true, true) => "pass",
                (true, false) => "unresolved",
                (false, _) => "FAIL",
            };
            (drift, verdict)
        }
        None => (
            if first == 0.0 {
                0.0
            } else {
                (last - first) / first
            },
            "–",
        ),
    };
    println!(
        "| `{name}` | {unit} | {} | {cells}{:+.1} % | {verdict} |",
        gate.map_or("–".to_owned(), |(_, b)| format!("{:.0} %", b * 100.0)),
        drift * 100.0
    );
    verdict == "pass" || gate.is_none()
}
