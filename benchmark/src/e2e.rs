//! The end-to-end driver: one workload, client-side numbers from real
//! `wfserve` processes. A run measures on four fresh server instances, one
//! after the other — each is set up (timed), primed, warmed up, then
//! measured for a quarter of the run's seconds. Every window is cut into
//! half-second slices: the **best slice**, the one with the lowest median
//! read latency, gives `read_p50_ms`; the reply rate, row rate and CPU per
//! request are taken over all the undisturbed slices together (on the open
//! loop: over the best window; see `run`). Write latency is the lowest
//! median among runs of eight consecutive writes; the p99s are the lowest
//! window's; memory is the median of the four instances; set-up time the
//! median of seven set-ups, three of them only set up and stopped again.
//! There is one path: a traced run measures exactly this, then climbs the
//! ladder.
//!
//! Why the best slice: the sandbox this was defined on runs at two speeds, a
//! third apart (a fixed single-threaded loop takes 3.1 ms or 4.6 ms), and
//! changes between them every few seconds — in a quiet hour it is slow a
//! quarter of the time, in a noisy one five sixths. That noise only ever
//! slows a request down. A whole window is nearly always a mixture of the
//! two speeds, and the mixture differs from run to run; half a second is
//! short enough to fall wholly into the fast one, and one of twenty usually
//! does. Over six runs in a noisy hour the best window's `read_p50_ms` on
//! `page_hot` ranged over 13 % of its median, the best slice's over 3 %
//! (SPREAD.md).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::client::{Conn, Frame};
use crate::inputs::{answers_after_writes, build_program, Dataset};
use crate::json::read_reply;
use crate::loadgen::{
    closed_loop_reader, open_loop_reader, paced_writer, replies_per_s, ReadLog, Replied, Window,
};
use crate::report::{Metric, E2E_METRICS};
use crate::server::ServerProc;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{
    script_line, Expected, Program, Workload, ADHOC_FILL, CHURN_BACKGROUND_AFTER, CHURN_READ_RATE,
    CHURN_VERIFY_ROWS, CHURN_WRITE_RATE,
};

/// Server instances per run.
pub const INSTANCES: usize = 4;
/// Set-ups per run that are only timed and stopped again, one after each of
/// the first instances: `setup_s` is the median of all seven.
const EXTRA_SETUPS: usize = 3;
/// Untimed warm-up on each instance before its window opens. Views are
/// already primed by set-up; this settles connections, threads and caches.
const WARMUP: Duration = Duration::from_millis(1500);
/// A run must collect this many reads over its instances, so the p99 of
/// each window has a few samples beyond it and the run has ten;
/// `churn_mixed` must keep up this share of its write pace.
const MIN_READS: usize = 1000;
const MIN_WRITE_PACE_KEPT: f64 = 0.9;
/// The open-loop generator's own lateness at p99 must stay under this, or
/// "from due time" stops meaning the server's delay.
const MAX_LATE_MS: f64 = 1.0;
/// Read-only workloads time this many planted triples removed and put back
/// on each instance, between set-up and warm-up.
const PROBE_TRIPLES: usize = 32;
/// A window is cut into equal slices of about this length, and the run
/// reports its best slice (see the module comment).
const SLICE: Duration = Duration::from_millis(500);
/// A slice counts as undisturbed when its median read latency is at most
/// this many times the best slice's.
const UNDISTURBED: f64 = 1.1;
/// Write latency is the lowest median among runs of this many consecutive
/// writes: the write-side counterpart of a slice.
const WRITE_CHUNK: usize = 8;

/// Where things are: the server binary and the benchmark's output directory.
#[derive(Debug, Clone)]
pub struct Paths {
    pub wfserve: PathBuf,
    pub out: PathBuf,
}

impl Paths {
    /// `WFSERVE_BIN` and `BENCH_OUT_DIR` as `run.sh` exports them; the
    /// defaults suit `cargo run` from the repository root.
    pub fn from_env() -> Paths {
        let var = |key: &str, default: &str| {
            PathBuf::from(std::env::var(key).unwrap_or_else(|_| default.to_owned()))
        };
        Paths {
            wfserve: var("WFSERVE_BIN", "target/release/wfserve"),
            out: var("BENCH_OUT_DIR", "benchmark/out"),
        }
    }
}

/// Everything one run measured. `metrics()` is the gated subset.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub setup_s: f64,
    pub reads: usize,
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub read_rps: f64,
    pub rows_per_s: f64,
    pub server_cpu_ms_per_req: f64,
    pub server_peak_rss_mb: f64,
    /// Writes: inside the window on `churn_mixed`, the probe elsewhere.
    pub writes: WriteSummary,
    pub attempted: u64,
    pub failed: u64,
    pub fail_share: f64,
    /// The least favourable instance's plan-cache hit share.
    pub cache_hit_share: f64,
    /// How long the generator itself held requests back, in the best window.
    pub late_p99_ms: f64,
    /// `adhoc_cold` only: share of summed read latency spent on analytical requests.
    pub analytical_time_share: Option<f64>,
    /// Failed validity assertions and wrong answers, in words.
    pub problems: Vec<String>,
    /// `read_p50_ms` over each instance's whole window: how far apart they were.
    pub instances: Vec<f64>,
    /// How many slices there were, and `read_p50_ms`, `read_rps` and
    /// `server_cpu_ms_per_req` of the median one (by read p50).
    pub slices: usize,
    pub median_slice: [f64; 3],
    /// How many slices had a median read latency within a tenth of the best.
    pub undisturbed_slices: usize,
    pub program: Program,
    pub dataset_times: DatasetTimes,
}

/// `p50_ms` is the best run of consecutive writes', like the read timings
/// are the best slice's; the count, the p95 and the rate pool all instances.
#[derive(Debug, Clone, Copy)]
pub struct WriteSummary {
    pub count: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub rps: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct DatasetTimes {
    pub generated: Option<(f64, f64)>,
    pub load_s: f64,
    pub oracle_s: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The end-to-end metrics of `BENCHMARK.json`, in its order.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            self.setup_s,
            self.read_p50_ms,
            self.read_rps,
            self.rows_per_s,
            self.server_cpu_ms_per_req,
            self.server_peak_rss_mb,
            self.writes.p50_ms,
        ];
        E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| (name, value, unit))
            .collect()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One timed set-up: spawn on the ready file, first reply, views primed.
fn set_up(
    paths: &Paths,
    data: &Path,
    program: &Program,
) -> Result<(ServerProc, Conn, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(&paths.wfserve, data)?;
    let io = |e: std::io::Error| format!("set-up: {e}");
    let mut control = Conn::connect(server.addr()).map_err(io)?;
    let first = control.call(&Frame::stats(1)).map_err(io)?;
    if first.kind() != "stats" {
        return Err(format!("set-up: {} reply to stats", first.kind()));
    }
    if program.primes_views() {
        for request in &program.reads {
            let reply = control.call(&request.frame).map_err(io)?;
            if reply.kind() != "rows" {
                return Err(format!(
                    "set-up: {} reply priming {}",
                    reply.kind(),
                    request.text
                ));
            }
        }
    }
    Ok((server, control, t.elapsed().as_secs_f64()))
}

/// What a write costs with this workload's views resident (none on
/// `adhoc_cold`, which primes nothing): planted triples are removed and put
/// back one at a time, so the readers still see the graph the oracle
/// answered on. Returns the ack latencies.
fn write_probe(control: &mut Conn, program: &Program) -> Result<Vec<u64>, String> {
    let pool = &program.write_pool;
    let io = |e: std::io::Error| format!("write probe: {e}");
    let mut latencies_ns = Vec::with_capacity(2 * PROBE_TRIPLES);
    for triple in pool.triples[..pool.planted].iter().take(PROBE_TRIPLES) {
        for insert in [false, true] {
            let frame = Frame::mutate(latencies_ns.len() as u64 + 1, &script_line(insert, triple));
            let t = Instant::now();
            control.send(&frame).map_err(io)?;
            let payload = control.recv().map_err(io)?;
            latencies_ns.push(t.elapsed().as_nanos() as u64);
            let kind = read_reply(payload).map_err(|e| format!("write probe: {e}"))?;
            if kind.kind() != "mutated" {
                return Err(format!("write probe: {} reply to a write", kind.kind()));
            }
        }
    }
    if latencies_ns.is_empty() {
        return Err("write probe: the workload's write pool has no planted triple".to_owned());
    }
    Ok(latencies_ns)
}

struct StatsPoint {
    hits: u64,
    misses: u64,
}

fn stats_point(control: &mut Conn) -> Result<StatsPoint, String> {
    let reply = control
        .call(&Frame::stats(2))
        .map_err(|e| format!("stats: {e}"))?;
    Ok(StatsPoint {
        hits: reply
            .number("cache_hits")
            .ok_or("stats reply without cache_hits")?,
        misses: reply
            .number("cache_misses")
            .ok_or("stats reply without cache_misses")?,
    })
}

/// From-scratch answers of every view after the first `n` writes of the
/// script, by `n`.
type FinalAnswers = Vec<(usize, Vec<(String, Expected)>)>;

/// What the readers saw in one slice of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slice {
    read_p50_ms: f64,
    /// Replies per second, measured per connection between its first and
    /// last reply in the slice, summed.
    read_rps: f64,
    replies: u64,
    rows: u64,
    /// Replies, plus the acknowledged writes sent in the slice.
    requests: u64,
    /// Server CPU seconds between the slice's two boundaries.
    cpu_s: f64,
}

/// Rates and CPU cost over several slices taken together.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rates {
    read_rps: f64,
    rows_per_s: f64,
    server_cpu_ms_per_req: f64,
}

impl Rates {
    fn over(slices: &[Slice]) -> Rates {
        let sum = |value: &dyn Fn(&Slice) -> f64| slices.iter().map(value).sum::<f64>();
        let read_rps = sum(&|s| s.read_rps) / slices.len().max(1) as f64;
        Rates {
            read_rps,
            rows_per_s: read_rps * sum(&|s| s.rows as f64) / sum(&|s| s.replies as f64).max(1.0),
            server_cpu_ms_per_req: sum(&|s| s.cpu_s) * 1e3 / sum(&|s| s.requests as f64).max(1.0),
        }
    }
}

/// Cuts one window into `cpu_s.len() - 1` slices of `slice_ns`: `cpu_s` is
/// the server's CPU time at every slice boundary, `write_at_ns` when each
/// acknowledged write was sent. A slice in which no request was due or sent
/// (a stall covered it) is left out: it has no latency to report.
fn slice_up(logs: &[ReadLog], write_at_ns: &[u64], cpu_s: &[f64], slice_ns: u64) -> Vec<Slice> {
    (0..cpu_s.len().saturating_sub(1))
        .filter_map(|k| {
            let within = |at_ns: u64| at_ns / slice_ns == k as u64;
            let mut latencies_ns: Vec<u64> = logs
                .iter()
                .flat_map(|log| &log.timed)
                .filter(|t| within(t.at_ns))
                .map(|t| t.latency_ns)
                .collect();
            latencies_ns.sort_unstable();
            let read_p50_ms = ms(percentile_sorted(&latencies_ns, 50.0)?);
            let (mut read_rps, mut replies, mut rows) = (0.0, 0u64, 0u64);
            for log in logs {
                let mine: Vec<Replied> = log
                    .replies
                    .iter()
                    .filter(|r| within(r.at_ns))
                    .copied()
                    .collect();
                read_rps += replies_per_s(&mine);
                replies += mine.len() as u64;
                rows += mine.iter().map(|r| r.rows).sum::<u64>();
            }
            let requests = replies + write_at_ns.iter().filter(|&&at| within(at)).count() as u64;
            Some(Slice {
                read_p50_ms,
                read_rps,
                replies,
                rows,
                requests,
                cpu_s: cpu_s[k + 1] - cpu_s[k],
            })
        })
        .collect()
}

/// The lowest median among runs of [`WRITE_CHUNK`] consecutive writes (of
/// all of them, if there are fewer).
fn best_chunk_p50_ms(write_ns: &[u64]) -> f64 {
    write_ns
        .chunks(WRITE_CHUNK)
        .filter(|chunk| chunk.len() == WRITE_CHUNK.min(write_ns.len()))
        .filter_map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            percentile_sorted(&sorted, 50.0).map(ms)
        })
        .fold(f64::NAN, f64::min)
}

/// What one server instance's window measured.
struct Segment {
    setup_s: f64,
    /// Read latencies of the whole window, sorted.
    latencies_ns: Vec<u64>,
    /// The generator's own lateness per timed request, sorted.
    lateness_ns: Vec<u64>,
    class_ns: [u64; 3],
    slices: Vec<Slice>,
    /// The whole window as one slice.
    whole: Option<Slice>,
    failed: u64,
    failed_outside: u64,
    hit_share: f64,
    peak_rss_mb: f64,
    /// Ack latencies in the order sent: the window's on `churn_mixed`, the
    /// probe's elsewhere.
    write_ns: Vec<u64>,
    write_failed: u64,
    /// Seconds the writes in `write_ns` were spread over.
    write_span_s: f64,
    problems: Vec<String>,
}

/// Sets up one instance, warms it up, measures it for `window_s`, checks it
/// and stops it.
fn measure_instance(
    paths: &Paths,
    dataset: &Dataset,
    program: &Program,
    window_s: f64,
    final_answers: &mut FinalAnswers,
) -> Result<Segment, String> {
    let workload = program.workload;
    let churn = workload == Workload::ChurnMixed;
    let (mut server, mut control, setup_s) = set_up(paths, &dataset.path, program)?;
    let addr = server.addr();
    let connect = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));
    let (mut write_ns, mut write_span_s) = (Vec::new(), window_s);
    if !churn {
        let t = Instant::now();
        write_ns = write_probe(&mut control, program)?;
        write_span_s = t.elapsed().as_secs_f64();
    }

    let window = Window::new();
    let (conn_a, conn_b) = (connect()?, connect()?);
    let slices = (window_s / SLICE.as_secs_f64()).round().max(1.0) as u64;
    let slice_ns = (window_s * 1e9) as u64 / slices;
    let (read_logs, write_log, before, after, cpu_s) =
        std::thread::scope(|scope| -> Result<_, String> {
            let window = &window;
            let reader_a = scope.spawn(move || {
                if churn {
                    open_loop_reader(conn_a, program, window, CHURN_READ_RATE)
                } else {
                    closed_loop_reader(conn_a, program, window)
                }
            });
            let (mut reader_b, mut writer) = (None, None);
            if churn {
                writer = Some(scope.spawn(move || {
                    paced_writer(
                        conn_b,
                        program,
                        window,
                        CHURN_WRITE_RATE,
                        CHURN_BACKGROUND_AFTER,
                    )
                }));
            } else {
                reader_b = Some(scope.spawn(move || closed_loop_reader(conn_b, program, window)));
            }

            // From here on an early return must release the threads first.
            let mut coordinate = || -> Result<_, String> {
                std::thread::sleep(WARMUP);
                if workload == Workload::AdhocCold {
                    // The pool starts with cheap lookups that fill the
                    // session's plan cache; measure only past them.
                    let give_up = Instant::now() + Duration::from_secs(30);
                    while window.issued() < (ADHOC_FILL + 64) as u64 {
                        if Instant::now() > give_up {
                            return Err("adhoc_cold: the cache did not fill in warm-up".to_owned());
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                let before = stats_point(&mut control)?;
                let mut cpu_s = vec![server.cpu_seconds()?];
                let from_ns = window.open(Duration::from_nanos(slices * slice_ns));
                for slice in 1..=slices {
                    window.sleep_until(from_ns + slice * slice_ns);
                    cpu_s.push(server.cpu_seconds()?);
                }
                let after = stats_point(&mut control)?;
                Ok((before, after, cpu_s))
            };
            let coordinated = coordinate();
            if coordinated.is_err() {
                window.close();
            }
            let join = |h: std::thread::ScopedJoinHandle<'_, std::io::Result<ReadLog>>| {
                h.join()
                    .map_err(|_| "a reader thread panicked".to_owned())?
                    .map_err(|e| format!("reader: {e}"))
            };
            let mut read_logs = vec![join(reader_a)?];
            if let Some(handle) = reader_b {
                read_logs.push(join(handle)?);
            }
            let write_log = match writer {
                Some(handle) => Some(
                    handle
                        .join()
                        .map_err(|_| "the writer thread panicked".to_owned())?
                        .map_err(|e| format!("writer: {e}"))?,
                ),
                None => None,
            };
            let (before, after, cpu_s) = coordinated?;
            Ok((read_logs, write_log, before, after, cpu_s))
        })?;

    let write_at_ns: Vec<u64> = write_log
        .iter()
        .flat_map(|log| log.acked.iter().map(|&(at_ns, _)| at_ns))
        .collect();
    let mut segment = Segment {
        setup_s,
        latencies_ns: Vec::new(),
        lateness_ns: Vec::new(),
        class_ns: [0; 3],
        slices: slice_up(&read_logs, &write_at_ns, &cpu_s, slice_ns),
        whole: slice_up(
            &read_logs,
            &write_at_ns,
            &[cpu_s[0], cpu_s[cpu_s.len() - 1]],
            slices * slice_ns,
        )
        .pop(),
        failed: 0,
        failed_outside: 0,
        hit_share: (after.hits - before.hits) as f64
            / ((after.hits - before.hits) + (after.misses - before.misses)).max(1) as f64,
        peak_rss_mb: 0.0,
        write_ns,
        write_failed: 0,
        write_span_s,
        problems: Vec::new(),
    };
    for log in read_logs {
        for timed in &log.timed {
            segment.latencies_ns.push(timed.latency_ns);
            segment.lateness_ns.push(timed.late_ns);
            segment.class_ns[timed.class as usize] += timed.latency_ns;
        }
        segment.failed += log.failed;
        segment.failed_outside += log.failed_outside;
        segment.problems.extend(log.first_errors);
    }
    segment.latencies_ns.sort_unstable();
    segment.lateness_ns.sort_unstable();

    if let Some(log) = write_log {
        segment.write_failed = log.failed;
        segment.failed_outside += log.failed_outside;
        segment.problems.extend(log.first_errors);
        // After the writes, every view must still equal its from-scratch
        // answer. The script is the same on every instance, so the same
        // number of acknowledged writes means the same final graph.
        if !final_answers
            .iter()
            .any(|(writes, _)| *writes == log.applied.len())
        {
            let answers = answers_after_writes(dataset, program, &log.applied)?;
            final_answers.push((log.applied.len(), answers));
        }
        let (_, answers) = final_answers
            .iter()
            .find(|(writes, _)| *writes == log.applied.len())
            .expect("pushed above");
        for (i, (text, expected)) in answers.iter().enumerate() {
            let frame = Frame::query(i as u64 + 1, text, CHURN_VERIFY_ROWS);
            let reply = control
                .call(&frame)
                .map_err(|e| format!("final check: {e}"))?;
            let verdict = if reply.kind() == "rows" {
                expected.matches(&reply, CHURN_VERIFY_ROWS)
            } else {
                Err(format!("{} reply", reply.kind()))
            };
            if let Err(e) = verdict {
                segment.failed += 1;
                segment
                    .problems
                    .push(format!("after {} writes, view {i}: {e}", log.applied.len()));
            }
        }
        segment.write_ns = log.acked.into_iter().map(|(_, ns)| ns).collect();
    }
    segment.peak_rss_mb = server.peak_rss_mb()?;
    drop(control);
    server.stop();
    Ok(segment)
}

/// Runs `workload` for `seconds` measured seconds in all, an equal share on
/// each of [`INSTANCES`] server instances.
pub fn run(paths: &Paths, workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let dataset = Dataset::ensure(&paths.out)?;
    let t = Instant::now();
    let program = build_program(&dataset, workload, seed)?;
    let dataset_times = DatasetTimes {
        generated: dataset.generated,
        load_s: dataset.load_s,
        oracle_s: t.elapsed().as_secs_f64(),
    };
    let churn = workload == Workload::ChurnMixed;
    let window_s = seconds as f64 / INSTANCES as f64;
    let mut final_answers = FinalAnswers::new();
    let mut segments = Vec::with_capacity(INSTANCES);
    let mut setups = Vec::with_capacity(INSTANCES + EXTRA_SETUPS);
    for instance in 0..INSTANCES {
        let segment = measure_instance(paths, &dataset, &program, window_s, &mut final_answers)?;
        setups.push(segment.setup_s);
        segments.push(segment);
        if instance < EXTRA_SETUPS {
            let (mut server, control, setup_s) = set_up(paths, &dataset.path, &program)?;
            setups.push(setup_s);
            drop(control);
            server.stop();
        }
    }

    // Latency comes from the best slice, the one with the lowest median
    // read latency. Rates and CPU cost come from all the undisturbed slices
    // taken together — those whose median is within a tenth of the best
    // one's — because one half second is too short a sample of them: the
    // server's thread hand-off has a fast and a slow gait at the same
    // latency, and what a slice holds of `adhoc_cold`'s analytical queries is
    // chance. On the open loop a slice is 100 reads and 5 writes, too few for
    // a cost, and its reply rate is the schedule's; there they are taken
    // over whole windows, the best of the four: the achieved rate, and the
    // cost of the mix with its expensive write.
    let mut all_slices: Vec<Slice> = segments.iter().flat_map(|s| s.slices.clone()).collect();
    all_slices.sort_by(|a, b| a.read_p50_ms.total_cmp(&b.read_p50_ms));
    let best = *all_slices
        .first()
        .ok_or("no slice of any window had a read in it")?;
    let undisturbed =
        all_slices.partition_point(|s| s.read_p50_ms <= UNDISTURBED * best.read_p50_ms);
    let rates = if churn {
        let windows: Vec<Rates> = segments
            .iter()
            .filter_map(|s| s.whole.map(|whole| Rates::over(&[whole])))
            .collect();
        let best_of = |value: &dyn Fn(&Rates) -> f64, better: fn(f64, f64) -> f64| {
            windows.iter().map(value).fold(f64::NAN, better)
        };
        Rates {
            read_rps: best_of(&|w| w.read_rps, f64::max),
            rows_per_s: best_of(&|w| w.rows_per_s, f64::max),
            server_cpu_ms_per_req: best_of(&|w| w.server_cpu_ms_per_req, f64::min),
        }
    } else {
        Rates::over(&all_slices[..undisturbed])
    };
    let median_slice = Rates::over(&all_slices[all_slices.len() / 2..][..1]);
    let median_slice_p50_ms = all_slices[all_slices.len() / 2].read_p50_ms;
    let per_instance =
        |value: &dyn Fn(&Segment) -> f64| -> Vec<f64> { segments.iter().map(value).collect() };
    let lowest = |value: &dyn Fn(&Segment) -> f64| {
        per_instance(value)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    };
    let percentile_ms =
        |sorted_ns: &[u64], p: f64| percentile_sorted(sorted_ns, p).map_or(f64::NAN, ms);
    let read_ms = |s: &Segment, p: f64| percentile_ms(&s.latencies_ns, p);

    let mut problems: Vec<String> = segments.iter().flat_map(|s| s.problems.clone()).collect();
    let reads: usize = segments.iter().map(|s| s.latencies_ns.len()).sum();
    let read_failed: u64 = segments.iter().map(|s| s.failed).sum();
    let write_failed: u64 = segments.iter().map(|s| s.write_failed).sum();
    let failed_outside: u64 = segments.iter().map(|s| s.failed_outside).sum();
    let mut write_ns: Vec<u64> = segments.iter().flat_map(|s| s.write_ns.clone()).collect();
    write_ns.sort_unstable();
    let write_span_s: f64 = segments.iter().map(|s| s.write_span_s).sum();
    let writes = WriteSummary {
        count: write_ns.len(),
        p50_ms: lowest(&|s| best_chunk_p50_ms(&s.write_ns)),
        p95_ms: percentile_ms(&write_ns, 95.0),
        rps: write_ns.len() as f64 / write_span_s,
    };
    let (failed, attempted) = if churn {
        let writes_attempted = write_ns.len() as u64 + write_failed;
        (
            read_failed + write_failed,
            reads as u64 + read_failed + writes_attempted,
        )
    } else {
        (read_failed, reads as u64 + read_failed)
    };

    // Validity: the workload still measures what its name says.
    let rule = workload.cache_rule();
    let cache_hit_share = segments
        .iter()
        .map(|s| s.hit_share)
        .find(|&share| !rule.holds(share))
        .unwrap_or_else(|| median(&per_instance(&|s| s.hit_share)));
    if !rule.holds(cache_hit_share) {
        problems.push(format!(
            "session cache hit share {cache_hit_share:.4} breaks {rule:?}"
        ));
    }
    if reads < MIN_READS {
        problems.push(format!(
            "only {reads} reads in the windows (need {MIN_READS})"
        ));
    }
    let min_writes = MIN_WRITE_PACE_KEPT * CHURN_WRITE_RATE * seconds as f64;
    if churn && (write_ns.len() as f64) < min_writes {
        problems.push(format!(
            "only {} writes in the windows (need {min_writes:.0})",
            write_ns.len()
        ));
    }
    // From the least disturbed window: the generator shares two hardware
    // threads with the server, and when the sandbox slows down, so does it.
    let late_p99_ms = lowest(&|s| percentile_ms(&s.lateness_ns, 99.0));
    if churn && late_p99_ms >= MAX_LATE_MS {
        problems.push(format!(
            "load generator ran {late_p99_ms:.3} ms late at p99 (limit {MAX_LATE_MS} ms)"
        ));
    }
    let class_ns = |class: usize| segments.iter().map(|s| s.class_ns[class]).sum::<u64>() as f64;
    let analytical_time_share = (workload == Workload::AdhocCold)
        .then(|| class_ns(1) / (class_ns(1) + class_ns(2)).max(1.0));
    if let Some(share) = analytical_time_share.filter(|&share| share < 0.5) {
        problems.push(format!(
            "analytical requests took {share:.2} of read time (need half)"
        ));
    }
    if failed_outside > 0 {
        problems.push(format!(
            "{failed_outside} failed or wrong replies outside the windows"
        ));
    }

    Ok(Outcome {
        workload,
        seed,
        seconds,
        setup_s: median(&setups),
        reads,
        read_p50_ms: best.read_p50_ms,
        read_p99_ms: lowest(&|s| read_ms(s, 99.0)),
        read_rps: rates.read_rps,
        rows_per_s: rates.rows_per_s,
        server_cpu_ms_per_req: rates.server_cpu_ms_per_req,
        server_peak_rss_mb: median(&per_instance(&|s| s.peak_rss_mb)),
        writes,
        attempted: attempted.max(1),
        failed,
        fail_share: failed as f64 / attempted.max(1) as f64,
        cache_hit_share,
        late_p99_ms,
        analytical_time_share,
        problems,
        instances: per_instance(&|s| read_ms(s, 50.0)),
        slices: all_slices.len(),
        undisturbed_slices: undisturbed,
        median_slice: [
            median_slice_p50_ms,
            median_slice.read_rps,
            median_slice.server_cpu_ms_per_req,
        ],
        program,
        dataset_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Timed;
    use crate::workloads::Class;

    const MS: u64 = 1_000_000;

    /// One connection answering every 5 ms with `latency_ms`, 16 rows a reply.
    fn steady(from_ms: u64, until_ms: u64, latency_ms: u64) -> ReadLog {
        let mut log = ReadLog::default();
        for at in (from_ms..until_ms).step_by(5) {
            log.timed.push(Timed {
                at_ns: at * MS,
                latency_ns: latency_ms * MS,
                late_ns: 0,
                class: Class::Plain,
            });
            log.replies.push(Replied {
                at_ns: (at + latency_ms) * MS,
                rows: 16,
            });
        }
        log
    }

    #[test]
    fn a_window_is_cut_into_slices_by_when_requests_were_due() {
        // Two slices of 500 ms: a fast one, then one three times slower.
        let mut log = steady(0, 500, 1);
        let slow = steady(500, 1000, 3);
        log.timed.extend(slow.timed);
        log.replies.extend(slow.replies);
        // 0.2 s of CPU in the first slice, 0.4 s in the second; 20 writes
        // went out in the second.
        let writes: Vec<u64> = (0..20).map(|k| (500 + k * 10) * MS).collect();
        let slices = slice_up(&[log], &writes, &[1.0, 1.2, 1.6], 500 * MS);
        assert_eq!(slices.len(), 2);
        assert_eq!((slices[0].read_p50_ms, slices[1].read_p50_ms), (1.0, 3.0));
        // 100 replies 5 ms apart: 200 a second, 3 200 rows a second.
        let first = Rates::over(&slices[..1]);
        assert!((first.read_rps - 200.0).abs() < 1e-9);
        assert!((first.rows_per_s - 3200.0).abs() < 1e-6);
        assert!((first.server_cpu_ms_per_req - 2.0).abs() < 1e-9);
        // 100 replies and 20 writes share the second slice's 400 ms of CPU.
        let second = Rates::over(&slices[1..]);
        assert!((second.server_cpu_ms_per_req - 400.0 / 120.0).abs() < 1e-9);
        // Together: 600 ms of CPU over 220 requests, still 200 replies a second.
        let both = Rates::over(&slices);
        assert!((both.server_cpu_ms_per_req - 600.0 / 220.0).abs() < 1e-9);
        assert!((both.read_rps - 200.0).abs() < 1e-9);
    }

    #[test]
    fn a_slice_nothing_was_due_in_is_left_out() {
        let mut log = steady(0, 500, 1);
        log.timed.extend(steady(1000, 1500, 1).timed);
        let slices = slice_up(&[log], &[], &[0.0, 0.1, 0.2, 0.3], 500 * MS);
        assert_eq!(slices.len(), 2);
    }

    #[test]
    fn write_latency_is_the_best_run_of_consecutive_writes() {
        // Three runs of eight: medians 5, 3 and 4 ms; a dear write in the
        // best one does not move its median; the short tail is ignored.
        let mut write_ns = vec![5 * MS; 8];
        write_ns.extend([3 * MS; 7]);
        write_ns.push(700 * MS);
        write_ns.extend([4 * MS; 8]);
        write_ns.extend([MS; 5]);
        assert_eq!(best_chunk_p50_ms(&write_ns), 3.0);
        assert_eq!(best_chunk_p50_ms(&[2 * MS, 4 * MS, 6 * MS]), 4.0);
        assert!(best_chunk_p50_ms(&[]).is_nan());
    }
}
