//! The traced run: after the socket run of a workload, the first requests of
//! the same program are replayed in-process through each layer's public
//! functions (`layers.rs`), with the benchmark's own spans around every
//! call. Count-bounded, so counts repeat exactly for a seed. Prints, per
//! workload, every per-layer metric and `roundtrip = Σ layers + remainder`,
//! and fails loudly when the layers the workload was built to stress hold
//! less than half of the attributed time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::client::{Conn, Frame};
use crate::e2e::{self, Outcome, Paths};
use crate::inputs::{load_graph, write_dataset};
use crate::layers::{self, LayerGraph, LayerSession, LayerView};
use crate::report::{self, Metric};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{MutationScript, Program, ReadRequest, Workload, ADHOC_FILL, PAGE_LIMIT};

/// Distinct requests replayed per workload, and repetitions of each (even:
/// the order of the stacked layers and the session paths alternates).
/// `warm_enumerate`'s requests cost tens of milliseconds on every path, so
/// two repetitions already take the time the others' four do.
const REQUESTS: usize = 24;
fn repeats(workload: Workload) -> u64 {
    if workload == Workload::WarmEnumerate {
        2
    } else {
        4
    }
}
/// Back-to-back repetitions of a cheap call within one replayed request.
const CHEAP_REPEATS: usize = 8;
/// Round trips per replayed request that only wake the server's threads.
const ROUNDTRIP_WARMUP: usize = 4;
/// Writes replayed through the mutation rungs: planted toggles with the
/// expensive write (a background triple removed and put back) in the middle.
const WRITES: usize = 40;
/// Plans that fill a default session cache, for the at-capacity miss.
const CACHE_CAPACITY: usize = 4096;
const CAPACITY_PROBES: usize = 8;

/// The per-layer metrics of `BENCHMARK.json`: name and unit, in its order.
/// *count* metrics repeat exactly for a seed.
pub const LAYER_METRICS: [(&str, &str); 68] = [
    ("datagen.generate_s", "s"),
    ("datagen.write_s", "s"),
    ("graph.load_s", "s"),
    ("graph.heap_bytes_per_triple", "count"),
    ("graph.scan_ns_per_edge", "ns"),
    ("graph.neighbors_ns_per_lookup", "ns"),
    ("graph.intersect_ns_per_elem", "ns"),
    ("graph.apply_us_per_op", "us"),
    ("graph.compact_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.canonical_us", "us"),
    ("query.project_cut_us", "us"),
    ("core.plan_us", "us"),
    ("core.plan.qerror_p50", "count"),
    ("core.plan.qerror_max", "count"),
    ("core.generate_us", "us"),
    ("core.generate.edge_walks", "count"),
    ("core.generate.edges_burned", "count"),
    ("core.generate.nodes_burned", "count"),
    ("core.generate.ag_edges", "count"),
    ("core.generate_ns_per_walk", "ns"),
    ("core.defactorize_us", "us"),
    ("core.defactorize.rows", "count"),
    ("core.defactorize.peak_intermediate", "count"),
    ("core.defactorize_ns_per_row", "ns"),
    ("core.prime_prefix_us", "us"),
    ("core.maintain_us_per_view", "us"),
    ("core.maintain_heaviest_ms", "ms"),
    ("core.maintain.frontier_nodes", "count"),
    ("core.maintain.prefix_refills", "count"),
    ("core.maintain.prefix_fallbacks", "count"),
    ("session.cold_us", "us"),
    ("session.cold_overhead_us", "us"),
    ("session.cold_at_capacity_us", "us"),
    ("session.warm_us", "us"),
    ("session.warm_overhead_us", "us"),
    ("session.prefix_hit_us", "us"),
    ("session.apply_mutation_us", "us"),
    ("session.mutation_overhead_us", "us"),
    ("session.cache_hit_share", "share"),
    ("wire.request_decode_us", "us"),
    ("wire.response_encode_us", "us"),
    ("wire.encode_ns_per_row", "ns"),
    ("wire.bytes_per_row", "count"),
    ("serve.frame_write_us", "us"),
    ("serve.frame_read_us", "us"),
    ("serve.label_rows_us", "us"),
    ("serve.roundtrip_us", "us"),
    ("serve.remainder_us", "us"),
    ("serve.mutate_ack_us", "us"),
    ("serve.mutate_ack_wait_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.write_p50_ms", "ms"),
    ("loadgen.write_p95_ms", "ms"),
    ("loadgen.write_rps", "1/s"),
    ("loadgen.fail_share", "share"),
    ("ladder.vs_e2e_ratio", "ratio"),
    ("ladder.intended_share", "share"),
    ("ladder.traced_requests", "count"),
    ("share.graph", "share"),
    ("share.query", "share"),
    ("share.core", "share"),
    ("share.session", "share"),
    ("share.wire", "share"),
    ("share.serve", "share"),
    ("e2e.read_p50_ms", "ms"),
    ("e2e.read_p99_ms", "ms"),
    ("e2e.read_rps", "1/s"),
];

/// Which session path a workload's requests take in steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Plan-cache miss: parse, plan, generate, retain the view.
    Cold,
    /// View hit, full defactorization.
    Warm,
    /// View hit served from the maintained top-k prefix.
    PrefixHit,
}

/// The layers a workload exists to stress (its *Why* in the README).
fn intended_components(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::PageHot => &[
            "session.overhead",
            "wire.request_decode",
            "wire.response_encode",
            "serve.label_rows",
            "serve.frames",
            "serve.remainder",
        ],
        Workload::WarmEnumerate => &["core.defactorize", "query.project_cut"],
        Workload::WarmRows => &[
            "wire.response_encode",
            "serve.label_rows",
            "serve.frames",
            "serve.remainder",
        ],
        Workload::AdhocCold => &[
            "query.parse",
            "query.canonical",
            "core.plan",
            "core.generate",
            "core.prime_prefix",
            "session.overhead",
        ],
        Workload::ChurnMixed => &[
            "graph.apply",
            "core.maintain",
            "session.mutation_overhead",
            "serve.mutate_ack_wait",
        ],
    }
}

/// Whether this replay also measures the miss against a full cache: every
/// request of `adhoc_cold` (that is its steady state); elsewhere a few, once.
fn cold_path_at_capacity(workload: Workload, first: bool, index: usize) -> bool {
    workload == Workload::AdhocCold || (first && index < CAPACITY_PROBES)
}

#[derive(Default)]
struct Counts {
    /// Planner q-error per distinct request, in thousandths: estimated
    /// against actual edge walks, as max(est/act, act/est).
    qerrors: Vec<u64>,
    edge_walks: u64,
    edges_burned: u64,
    nodes_burned: u64,
    ag_edges: u64,
    rows: u64,
    peak_intermediate: u64,
    response_bytes: u64,
    response_rows: u64,
    /// `(bytes, rows)` of the reply encoded last.
    last_response: (u64, u64),
}

/// One replayed request's timings, microseconds, by component.
type Components = BTreeMap<&'static str, f64>;

/// Runs the socket workload, then the ladder, and prints the per-layer
/// result line. `Ok(false)`: it ran and found a problem.
pub fn run(paths: &Paths, workload: Workload, seed: u64, seconds: u64) -> Result<bool, String> {
    let outcome = e2e::run(paths, workload, seed, seconds)?;
    report::print_outcome(&outcome);
    let (metrics, mut problems) = climb(paths, &outcome)?;
    problems.splice(0..0, outcome.problems.iter().cloned());
    for problem in &problems {
        println!("  PROBLEM: {problem}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

/// Everything after the socket run. Returns the per-layer metrics in
/// `LAYER_METRICS` order and the validity problems found.
fn climb(paths: &Paths, outcome: &Outcome) -> Result<(Vec<Metric>, Vec<String>), String> {
    let program = &outcome.program;
    let workload = program.workload;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();
    println!("-- ladder · {} · seed {}", workload.name(), program.seed);

    // datagen: the input, not the program — timed so set-up cost is whole.
    let scratch = paths.out.join("ladder_dataset.nt");
    let (generate_s, write_s) = write_dataset(&scratch)?;
    let dataset_path = paths.out.join("yago_bench.nt");
    values.insert("datagen.generate_s", generate_s);
    values.insert("datagen.write_s", write_s);
    let _ = std::fs::remove_file(&scratch);

    // graph: load, layout, access paths.
    let mut loads = Vec::new();
    let mut loaded = None;
    for _ in 0..3 {
        let t = Instant::now();
        loaded = Some(load_graph(&dataset_path)?);
        loads.push(t.elapsed().as_secs_f64());
    }
    values.insert("graph.load_s", median(&loads));
    let graph: Arc<LayerGraph> = Arc::new(layers::to_delta_store(
        loaded.expect("three loads happened"),
    ));
    values.insert(
        "graph.heap_bytes_per_triple",
        (layers::heap_bytes(&graph) / layers::triple_count(&graph)) as f64,
    );
    let scans: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let (edges, sum) = layers::scan_pairs(&graph);
            std::hint::black_box(sum);
            t.elapsed().as_nanos() as f64 / edges as f64
        })
        .collect();
    values.insert("graph.scan_ns_per_edge", median(&scans));
    let mut probes = layers::probe_candidates(&graph);
    Rng::stream(program.seed, "ladder.probes").shuffle(&mut probes);
    probes.truncate(200_000);
    let lookups: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(layers::neighbor_lookups(&graph, &probes));
            t.elapsed().as_nanos() as f64 / probes.len() as f64
        })
        .collect();
    values.insert("graph.neighbors_ns_per_lookup", median(&lookups));
    let lists = layers::longest_neighbor_lists(&graph, 48);
    let intersections: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let (read, kept) = layers::intersect_pairs(&lists);
            std::hint::black_box(kept);
            t.elapsed().as_nanos() as f64 / read.max(1) as f64
        })
        .collect();
    values.insert("graph.intersect_ns_per_elem", median(&intersections));

    // The replayed requests: the first distinct ones of the program that
    // the socket run measures (`adhoc_cold` measures behind its cache fill).
    // A cold request is only cold once, so `adhoc_cold` replays that many
    // times as many distinct requests once each; the others replay the same
    // requests several times.
    let cold = workload == Workload::AdhocCold;
    let skip = if cold { ADHOC_FILL } else { 0 };
    let distinct = if cold {
        REQUESTS * repeats(workload) as usize
    } else {
        REQUESTS
    };
    let requests: Vec<&ReadRequest> = program.reads.iter().skip(skip).take(distinct).collect();
    let replays: Vec<(u64, usize)> = if cold {
        (0..requests.len())
            .map(|index| (index as u64 % 2, index))
            .collect()
    } else {
        (0..repeats(workload))
            .flat_map(|repeat| (0..requests.len()).map(move |index| (repeat, index)))
            .collect()
    };
    let path_of = |request: &ReadRequest, capable: bool| match workload {
        Workload::AdhocCold => Path::Cold,
        _ if request.limit > 0 && capable => Path::PrefixHit,
        _ => Path::Warm,
    };

    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let session = layers::session(Arc::clone(&graph), None);
    // A default-sized cache filled with cheap plans: a miss here also evicts,
    // which is every miss `adhoc_cold` measures.
    let mut fillers = layers::probe_candidates(&graph);
    fillers.retain(|probe| probe.2);
    fillers.sort_unstable();
    fillers.dedup();
    Rng::stream(program.seed, "ladder.fillers").shuffle(&mut fillers);
    let fill = |session: &LayerSession| {
        for &probe in fillers.iter().take(CACHE_CAPACITY + 64) {
            let text = layers::filler_query(&graph, probe);
            layers::query_limited(session, &text, PAGE_LIMIT as usize);
        }
    };
    let full_cache = layers::session(Arc::clone(&graph), None);
    fill(&full_cache);
    // The server's own session, in the state the socket run measured:
    // views primed — or, for `adhoc_cold`, the cache full of other plans.
    let served = layers::session(Arc::clone(&graph), None);
    if cold {
        fill(&served);
    } else {
        for request in &requests {
            layers::query_limited(&served, &request.text, request.limit as usize);
        }
    }
    let server = layers::start_server(Arc::clone(&served));
    let mut conn =
        Conn::connect(layers::server_addr(&server)).map_err(|e| format!("ladder: {e}"))?;

    let mut per_request: Vec<Components> = Vec::new();
    let mut views: Vec<LayerView> = Vec::new();
    for &(repeat, index) in &replays {
        let request = requests[index];
        let id = repeat * 10_000 + index as u64 + 1;
        let limit = request.limit as usize;
        let first = cold || repeat == 0;
        rec.begin_request(id);
        let capable = layers::prefix_capable(&layers::parse(&request.text, &graph));
        let path = path_of(request, capable);
        // What follows a view hit that a prefix cannot serve.
        let warm_limit = if capable { 0 } else { limit };
        let prefix_limit = limit.max(PAGE_LIMIT as usize);

        // Everything of one replayed request hangs under one root span;
        // its self time is the ladder's own bookkeeping.
        rec.span("ladder.request", |rec| -> Result<(), String> {
            // Each layer alone, stacked. Cheap calls repeat back to back
            // and report their median, so a cold cache line or a page
            // fault does not stand in for the call.
            let stack = |rec: &mut Recorder, counts: &mut Counts, views: &mut Vec<LayerView>| {
                for _ in 0..CHEAP_REPEATS {
                    let query = rec.span("query.parse", |_| layers::parse(&request.text, &graph));
                    let key = rec.span("query.canonical", |_| layers::canonical_key(&query));
                    std::hint::black_box(key);
                    let plan = rec.span("core.plan", |_| layers::plan_query(&graph, &query));
                    std::hint::black_box(layers::estimated_walks(&plan));
                }
                let query = layers::parse(&request.text, &graph);
                let plan = layers::plan_query(&graph, &query);
                let generated = rec.span("core.generate", |_| {
                    layers::generate_answer_graph(&graph, &query, &plan)
                });
                let defactorized = rec.span("core.defactorize", |_| {
                    layers::defactorize_all(&query, &generated.answer_graph)
                });
                let (full_rows, peak) = (defactorized.rows, defactorized.peak_intermediate);
                let kept = rec.span("query.project_cut", |_| {
                    layers::project_cut(defactorized.embeddings, &query, warm_limit)
                });
                std::hint::black_box(kept);
                let mut view = layers::materialize(&graph, &query, &plan);
                if capable {
                    rec.span("core.prime_prefix", |_| {
                        layers::prime_prefix(&mut view, prefix_limit)
                    });
                }
                if first && views.len() < REQUESTS {
                    views.push(view);
                }
                if first {
                    let est = layers::estimated_walks(&plan).max(1.0);
                    let act = (generated.edge_walks as f64).max(1.0);
                    counts
                        .qerrors
                        .push(((est / act).max(act / est) * 1e3).round() as u64);
                    counts.edge_walks += generated.edge_walks;
                    counts.edges_burned += generated.edges_burned;
                    counts.nodes_burned += generated.nodes_burned;
                    counts.ag_edges += generated.ag_edges;
                    counts.rows += full_rows;
                    counts.peak_intermediate += peak;
                }
            };
            // The session's three paths; returns the steady-state answer.
            let paths = |rec: &mut Recorder, problems: &mut Vec<String>| {
                layers::clear_cache(&session);
                let cold = rec.span("session.cold", |_| {
                    layers::query_limited(&session, &request.text, limit)
                });
                if cold_path_at_capacity(workload, first, index) {
                    rec.span("session.cold_at_capacity", |_| {
                        layers::query_limited(&full_cache, &request.text, limit)
                    });
                }
                let warm = rec.span("session.warm", |_| {
                    layers::query_limited(&session, &request.text, warm_limit)
                });
                let mut hit = None;
                if capable {
                    for _ in 0..CHEAP_REPEATS {
                        hit = Some(rec.span("session.prefix_hit", |_| {
                            layers::query_limited(&session, &request.text, prefix_limit)
                        }));
                    }
                    if !hit.as_ref().is_some_and(layers::prefix_served) {
                        problems.push(format!("ladder: request {index} was not prefix-served"));
                    }
                }
                match path {
                    Path::Cold => cold,
                    Path::Warm => warm,
                    Path::PrefixHit => hit.expect("prefix path implies capable"),
                }
            };
            // Whichever goes second finds the data warm in the CPU
            // caches; alternate, so neither side of an overhead
            // (session − stacked layers) keeps the advantage.
            let steady = if repeat % 2 == 0 {
                stack(rec, &mut counts, &mut views);
                paths(rec, &mut problems)
            } else {
                let steady = paths(rec, &mut problems);
                stack(rec, &mut counts, &mut views);
                steady
            };

            // Wire and framing, on the request sent and the reply it gets.
            let payload = request.frame.payload();
            for _ in 0..CHEAP_REPEATS {
                let decoded = rec.span("wire.request_decode", |_| layers::decode_request(payload));
                std::hint::black_box(&decoded);
            }
            // Big replies are encoded fewer times: the call is its own repeat.
            let encodes = if layers::evaluation_rows(&steady) > 256 {
                2
            } else {
                CHEAP_REPEATS
            };
            for _ in 0..encodes {
                let response = rec.span("serve.label_rows", |_| {
                    layers::rows_response(id, &steady, &graph)
                });
                let encoded = rec.span("wire.response_encode", |_| {
                    layers::encode_response(&response)
                });
                let mut framed = Vec::with_capacity(encoded.len() + 4);
                rec.span("serve.frame_write", |_| {
                    let mut small = Vec::with_capacity(payload.len() + 4);
                    layers::frame_write(&mut small, payload);
                    layers::frame_write(&mut framed, &encoded);
                    std::hint::black_box(small.len());
                });
                rec.span("serve.frame_read", |_| {
                    std::hint::black_box(layers::frame_read(request.frame.bytes()).len());
                    std::hint::black_box(layers::frame_read(&framed).len());
                });
                counts.last_response = (
                    encoded.len() as u64,
                    layers::response_rows(&response) as u64,
                );
            }
            if first {
                counts.response_bytes += counts.last_response.0;
                counts.response_rows += counts.last_response.1;
            }

            // The whole path: the benchmark's client against an
            // in-process server, back to back like the socket run.
            let io = |e: std::io::Error| format!("ladder roundtrip: {e}");
            let mut exchange = |rec: &mut Recorder, name: &'static str| -> Result<f64, String> {
                let t = Instant::now();
                rec.span(name, |_| -> Result<(), String> {
                    conn.send(&request.frame).map_err(io)?;
                    conn.recv().map(|_| ()).map_err(io)
                })?;
                Ok(t.elapsed().as_secs_f64() * 1e3)
            };
            if path == Path::Cold {
                // Cold once: the served session has never seen this request.
                exchange(rec, "serve.roundtrip")?;
            } else {
                // The first round trips only wake the server's threads;
                // a slow request needs (and can afford) fewer repeats.
                let mut took_ms = 0.0;
                for _ in 0..ROUNDTRIP_WARMUP {
                    took_ms = exchange(rec, "serve.roundtrip_warmup")?;
                }
                let rounds = if took_ms > 1.0 { 2 } else { CHEAP_REPEATS };
                for _ in 0..rounds {
                    exchange(rec, "serve.roundtrip")?;
                }
            }
            Ok(())
        })?;

        // This request's row of the decomposition: per component, the
        // median of its spans under this request.
        let spans = rec.spans();
        let own = |name: &str| -> f64 {
            let durations: Vec<f64> = spans
                .iter()
                .filter(|s| s.request == id && s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e3)
                .collect();
            if durations.is_empty() {
                0.0
            } else {
                median(&durations)
            }
        };
        let stacked = |names: &[&'static str]| -> Vec<(&'static str, f64)> {
            names.iter().map(|&name| (name, own(name))).collect()
        };
        let view_tail: &[&'static str] = &["core.defactorize", "query.project_cut"];
        let cold_tail: &[&'static str] = if capable && limit > 0 {
            &["core.prime_prefix"]
        } else {
            view_tail
        };
        let front = stacked(&["query.parse", "query.canonical"]);
        let phase_one = stacked(&["core.plan", "core.generate"]);
        let cold_parts = [&front[..], &phase_one[..], &stacked(cold_tail)[..]].concat();
        let warm_parts = [&front[..], &stacked(view_tail)[..]].concat();
        let sum = |parts: &[(&'static str, f64)]| parts.iter().map(|(_, v)| v).sum::<f64>();
        let (cold_raw, warm_raw) = (sum(&cold_parts), sum(&warm_parts));
        let (raw, session_us) = match path {
            // `adhoc_cold`'s misses happen with the cache full.
            Path::Cold => (cold_parts, own("session.cold_at_capacity")),
            Path::Warm => (warm_parts, own("session.warm")),
            Path::PrefixHit => (front, own("session.prefix_hit")),
        };
        let raw_us = sum(&raw);
        let mut row: Components = raw.into_iter().collect();
        row.insert("session.overhead", (session_us - raw_us).max(0.0));
        row.insert("wire.request_decode", own("wire.request_decode"));
        row.insert("wire.response_encode", own("wire.response_encode"));
        row.insert("serve.label_rows", own("serve.label_rows"));
        row.insert(
            "serve.frames",
            own("serve.frame_write") + own("serve.frame_read"),
        );
        row.insert("serve.roundtrip", own("serve.roundtrip"));
        // Overheads of the paths the socket run does not take, signed.
        row.insert("_cold_overhead", own("session.cold") - cold_raw);
        row.insert("_warm_overhead", own("session.warm") - warm_raw);
        per_request.push(row);
    }
    drop(conn);
    drop(full_cache);

    // The write path: graph, each view, the session, the server's batcher.
    let retained = &requests[..requests.len().min(REQUESTS)];
    let write = write_rungs(&mut rec, &graph, program, retained, views, &mut problems)?;
    layers::stop_server(server);

    // The issue asks for the planner's q-error on the Table 1 queries, which
    // `page_hot` replays; other workloads report it over their own requests.
    counts.qerrors.sort_unstable();
    let qerror = |e: Option<u64>| e.map_or(f64::NAN, |e| e as f64 / 1e3);

    // ---- metrics ----------------------------------------------------------
    let by_name = rec.median_self_us();
    // A rung with no sample on this workload (no request of `warm_enumerate`
    // can be prefix-served) reports 0.
    let span_us = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let column = |name: &str| -> Vec<f64> {
        per_request
            .iter()
            .filter_map(|row| row.get(name).copied())
            .collect()
    };
    for (metric, span) in [
        ("query.parse_us", "query.parse"),
        ("query.canonical_us", "query.canonical"),
        ("query.project_cut_us", "query.project_cut"),
        ("core.plan_us", "core.plan"),
        ("core.generate_us", "core.generate"),
        ("core.defactorize_us", "core.defactorize"),
        ("core.prime_prefix_us", "core.prime_prefix"),
        ("session.cold_us", "session.cold"),
        ("session.warm_us", "session.warm"),
        ("session.prefix_hit_us", "session.prefix_hit"),
        ("wire.request_decode_us", "wire.request_decode"),
        ("wire.response_encode_us", "wire.response_encode"),
        ("serve.frame_write_us", "serve.frame_write"),
        ("serve.frame_read_us", "serve.frame_read"),
        ("serve.label_rows_us", "serve.label_rows"),
        ("serve.roundtrip_us", "serve.roundtrip"),
    ] {
        values.insert(metric, span_us(span));
    }
    values.insert(
        "session.cold_overhead_us",
        median(&column("_cold_overhead")),
    );
    values.insert(
        "session.warm_overhead_us",
        median(&column("_warm_overhead")),
    );
    values.insert(
        "session.cold_at_capacity_us",
        span_us("session.cold_at_capacity"),
    );
    values.insert(
        "core.plan.qerror_p50",
        qerror(percentile_sorted(&counts.qerrors, 50.0)),
    );
    values.insert(
        "core.plan.qerror_max",
        qerror(counts.qerrors.last().copied()),
    );
    values.insert("core.generate.edge_walks", counts.edge_walks as f64);
    values.insert("core.generate.edges_burned", counts.edges_burned as f64);
    values.insert("core.generate.nodes_burned", counts.nodes_burned as f64);
    values.insert("core.generate.ag_edges", counts.ag_edges as f64);
    values.insert("core.defactorize.rows", counts.rows as f64);
    values.insert(
        "core.defactorize.peak_intermediate",
        counts.peak_intermediate as f64,
    );
    let distinct = requests.len() as f64;
    values.insert(
        "core.generate_ns_per_walk",
        values["core.generate_us"] * 1e3 / (counts.edge_walks as f64 / distinct).max(1.0),
    );
    values.insert(
        "core.defactorize_ns_per_row",
        values["core.defactorize_us"] * 1e3 / (counts.rows as f64 / distinct).max(1.0),
    );
    values.insert(
        "wire.encode_ns_per_row",
        values["wire.response_encode_us"] * 1e3 / (counts.response_rows as f64 / distinct).max(1.0),
    );
    values.insert(
        "wire.bytes_per_row",
        (counts.response_bytes / counts.response_rows.max(1)) as f64,
    );
    for (name, value) in write.values {
        values.insert(name, value);
    }

    // The decomposition: the mean of each component over the replayed
    // requests (a request that does not take a step spends 0 on it), so the
    // parts add up to the mean round trip and a share is a share of time.
    // The remainder is what the round trip has beyond the parts.
    let mean_of = |name: &str| -> f64 {
        let total: f64 = per_request.iter().filter_map(|row| row.get(name)).sum();
        total / per_request.len().max(1) as f64
    };
    let mut read_components = Components::new();
    for name in per_request.iter().flat_map(|row| row.keys()) {
        if !name.starts_with('_') && *name != "serve.roundtrip" {
            read_components.entry(name).or_insert_with(|| mean_of(name));
        }
    }
    let read_roundtrip = mean_of("serve.roundtrip");
    let attributed: f64 = read_components.values().sum();
    let remainder = (read_roundtrip - attributed).max(0.0);
    read_components.insert("serve.remainder", remainder);
    values.insert("serve.remainder_us", remainder);
    // `churn_mixed` is about its writes: its reads are `page_hot`'s.
    let (components, roundtrip_us) = if workload == Workload::ChurnMixed {
        (write.components, write.ack_us)
    } else {
        (read_components, read_roundtrip)
    };
    let total: f64 = components.values().sum();
    let intended: f64 = components
        .iter()
        .filter(|(name, _)| intended_components(workload).contains(name))
        .map(|(_, v)| v)
        .sum();
    let intended_share = intended / total.max(f64::MIN_POSITIVE);
    println!(
        "  {} = Σ layers + remainder, µs (means over {} replayed requests):",
        if workload == Workload::ChurnMixed {
            "mutate ack"
        } else {
            "roundtrip"
        },
        per_request.len()
    );
    for (name, value) in &components {
        let mark = if intended_components(workload).contains(name) {
            "*"
        } else {
            " "
        };
        println!(
            "   {mark} {name:<28} {value:>12.2}  {:>5.1} %",
            100.0 * value / total.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "     {:<28} {total:>12.2}  (* = the layers this workload is for: {:.1} %)",
        "Σ parts",
        100.0 * intended_share
    );
    // Stacked parts can exceed the round trip they were measured beside
    // (the remainder is then 0); show both rather than hide the difference.
    println!("     {:<28} {roundtrip_us:>12.2}", "measured whole");
    if intended_share < 0.5 {
        problems.push(format!(
            "ladder: the layers {} is meant to stress hold {:.0} % of attributed time (need 50 %) — \
             the workload no longer measures what its name says",
            workload.name(),
            100.0 * intended_share
        ));
    }
    for (layer, share) in layer_shares(&components) {
        values.insert(layer, share);
    }
    values.insert("ladder.intended_share", intended_share);
    values.insert("ladder.traced_requests", per_request.len() as f64);

    // From the socket run that came first.
    let writes = outcome.writes;
    values.insert("session.cache_hit_share", outcome.cache_hit_share);
    values.insert("loadgen.late_p99_ms", outcome.late_p99_ms);
    values.insert("loadgen.write_p50_ms", writes.p50_ms);
    values.insert("loadgen.write_p95_ms", writes.p95_ms);
    values.insert("loadgen.write_rps", writes.rps);
    values.insert("loadgen.fail_share", outcome.fail_share);
    values.insert("e2e.read_p50_ms", outcome.read_p50_ms);
    values.insert("e2e.read_p99_ms", outcome.read_p99_ms);
    values.insert("e2e.read_rps", outcome.read_rps);
    values.insert(
        "ladder.vs_e2e_ratio",
        values["serve.roundtrip_us"] / (outcome.read_p50_ms * 1e3),
    );

    let trace = paths.out.join(format!("trace_{}.json", workload.name()));
    std::fs::write(&trace, rec.to_json()).map_err(|e| format!("{}: {e}", trace.display()))?;
    println!(
        "  {} spans written to {}",
        rec.spans().len(),
        trace.display()
    );

    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for (name, unit) in LAYER_METRICS {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("ladder: metric {name} was not measured"))?;
        println!("  {name:<36} {value:>16.4} {unit}");
        metrics.push((name, value, unit));
    }
    Ok((metrics, problems))
}

/// Share of the decomposition held by each layer (by component prefix).
fn layer_shares(components: &Components) -> Vec<(&'static str, f64)> {
    let total: f64 = components.values().sum::<f64>().max(f64::MIN_POSITIVE);
    [
        ("share.graph", "graph."),
        ("share.query", "query."),
        ("share.core", "core."),
        ("share.session", "session."),
        ("share.wire", "wire."),
        ("share.serve", "serve."),
    ]
    .into_iter()
    .map(|(metric, prefix)| {
        let held: f64 = components
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum();
        (metric, (held / total).max(0.0))
    })
    .collect()
}

struct WriteRungs {
    values: Vec<(&'static str, f64)>,
    /// The mutate-ack decomposition (µs medians), for `churn_mixed`.
    components: Components,
    ack_us: f64,
}

/// Replays the first [`WRITES`] operations of the workload's mutation script
/// through `Graph::apply`, every retained view's `maintain`, the session,
/// and a mutate round trip against the in-process server.
fn write_rungs(
    rec: &mut Recorder,
    graph: &Arc<LayerGraph>,
    program: &Program,
    requests: &[&ReadRequest],
    mut views: Vec<LayerView>,
    problems: &mut Vec<String>,
) -> Result<WriteRungs, String> {
    let mut script = MutationScript::new(&program.write_pool, program.seed);
    let mut lines: Vec<String> = (0..WRITES - 2).map(|_| script.next_toggle().1).collect();
    match script.next_background() {
        Some(pair) => {
            lines.splice(WRITES / 2..WRITES / 2, pair.map(|(_, line)| line));
        }
        None => problems.push("ladder: the write pool has no background triple".to_owned()),
    }

    // A session and a served session holding this workload's views.
    let prime = |session: &LayerSession| {
        for request in requests {
            layers::query_limited(session, &request.text, request.limit as usize);
        }
    };
    let session = layers::session(Arc::clone(graph), None);
    prime(&session);
    let served = layers::session(Arc::clone(graph), None);
    prime(&served);
    let server = layers::start_server(Arc::clone(&served));
    let mut conn =
        Conn::connect(layers::server_addr(&server)).map_err(|e| format!("ladder: {e}"))?;

    let mut current: LayerGraph = LayerGraph::clone(graph);
    let (mut frontier, mut refills, mut fallbacks) = (0u64, 0u64, 0u64);
    let mut rows: Vec<Components> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let id = 800_000 + i as u64;
        rec.begin_request(id);
        let mutation = rec.span("graph.parse_script", |_| layers::parse_script(line));
        let (next, delta, _) = rec.span("graph.apply", |_| layers::apply(&current, &mutation));
        let mut maintain_us = 0.0;
        for view in &mut views {
            let t = Instant::now();
            let stats = rec.span("core.maintain", |_| {
                layers::maintain(view, &next, &delta, i as u64 + 1)
            });
            maintain_us += t.elapsed().as_nanos() as f64 / 1e3;
            frontier += stats.frontier_nodes;
            refills += stats.prefix_refills;
            fallbacks += stats.prefix_fallbacks;
        }
        current = next;
        rec.span("session.apply_mutation", |_| {
            layers::apply_mutation(&session, &mutation)
        });
        let frame = Frame::mutate(id, line);
        let io = |e: std::io::Error| format!("ladder mutate: {e}");
        rec.span("serve.mutate_ack", |_| -> Result<(), String> {
            conn.send(&frame).map_err(io)?;
            conn.recv().map(|_| ()).map_err(io)
        })?;
        let spans = rec.spans();
        let own = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.request == id && s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e3)
                .sum()
        };
        let mut row = Components::new();
        row.insert("graph.apply", own("graph.apply"));
        row.insert("core.maintain", maintain_us);
        let overhead = own("session.apply_mutation") - own("graph.apply") - own("core.maintain");
        row.insert("session.mutation_overhead", overhead.max(0.0));
        row.insert("_mutation_overhead", overhead);
        row.insert("_maintain_all_views", maintain_us);
        row.insert(
            "serve.mutate_ack_wait",
            (own("serve.mutate_ack") - own("session.apply_mutation")).max(0.0),
        );
        row.insert("_ack", own("serve.mutate_ack"));
        row.insert("_apply_mutation", own("session.apply_mutation"));
        rows.push(row);
    }
    drop(conn);
    layers::stop_server(server);
    if views.is_empty() {
        problems.push("ladder: no view to maintain".to_owned());
    }

    // Compaction never triggers inside a socket run; force one here.
    let compacting = layers::compacting(graph);
    let first = layers::parse_script(&lines[0]);
    let t = Instant::now();
    let (_, _, compacted) = layers::apply(&compacting, &first);
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    if !compacted {
        problems.push("ladder: the forced compaction did not happen".to_owned());
    }

    let column = |name: &str| -> Vec<f64> { rows.iter().map(|row| row[name]).collect() };
    let maintain_spans: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "core.maintain")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let mut components = Components::new();
    for name in [
        "graph.apply",
        "core.maintain",
        "session.mutation_overhead",
        "serve.mutate_ack_wait",
    ] {
        // Means, like the read decomposition: shares are shares of time.
        let values = column(name);
        components.insert(
            name,
            values.iter().sum::<f64>() / values.len().max(1) as f64,
        );
    }
    Ok(WriteRungs {
        values: vec![
            ("graph.apply_us_per_op", median(&column("graph.apply"))),
            ("graph.compact_ms", compact_ms),
            ("core.maintain_us_per_view", median(&maintain_spans)),
            ("core.maintain.frontier_nodes", frontier as f64),
            ("core.maintain.prefix_refills", refills as f64),
            ("core.maintain.prefix_fallbacks", fallbacks as f64),
            (
                "session.apply_mutation_us",
                median(&column("_apply_mutation")),
            ),
            (
                "session.mutation_overhead_us",
                median(&column("_mutation_overhead")),
            ),
            (
                "core.maintain_heaviest_ms",
                column("_maintain_all_views")
                    .into_iter()
                    .fold(0.0, f64::max)
                    / 1e3,
            ),
            ("serve.mutate_ack_us", median(&column("_ack"))),
            (
                "serve.mutate_ack_wait_us",
                median(&column("serve.mutate_ack_wait")),
            ),
        ],
        ack_us: components.values().sum(),
        components,
    })
}
