//! The load generator: closed-loop readers, the open-loop reader that times
//! from due time, and the paced writer. One thread per connection;
//! the coordinator opens and closes the measured window through [`Window`].

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::client::{Conn, Frame};
use crate::json::read_reply;
use crate::workloads::{Class, MutationScript, Program, WriteOp};

/// Shared clock and phase switch. Times are nanoseconds since `origin`.
/// Until the coordinator opens the window every request is warm-up; once it
/// closes, threads finish the request in flight and return.
#[derive(Debug)]
pub struct Window {
    origin: Instant,
    from_ns: AtomicU64,
    until_ns: AtomicU64,
    /// Next index into the read pool, shared by all readers so the pool is
    /// walked in one global cyclic order.
    cursor: AtomicU64,
}

impl Window {
    pub fn new() -> Window {
        Window {
            origin: Instant::now(),
            from_ns: AtomicU64::new(u64::MAX),
            until_ns: AtomicU64::new(u64::MAX),
            cursor: AtomicU64::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the measured window now, for `length`.
    pub fn open(&self, length: Duration) -> u64 {
        let from = self.now_ns();
        self.until_ns
            .store(from + length.as_nanos() as u64, Ordering::SeqCst);
        self.from_ns.store(from, Ordering::SeqCst);
        from
    }

    /// Ends the run now (used when a window never opens, e.g. on error).
    pub fn close(&self) {
        self.until_ns.store(0, Ordering::SeqCst);
    }

    fn measured(&self, at_ns: u64) -> bool {
        at_ns >= self.from_ns.load(Ordering::SeqCst) && !self.done(at_ns)
    }

    /// How long the window had been open at `at_ns`, if that is inside it.
    fn measured_at(&self, at_ns: u64) -> Option<u64> {
        self.measured(at_ns)
            .then(|| at_ns - self.from_ns.load(Ordering::SeqCst))
    }

    fn done(&self, at_ns: u64) -> bool {
        at_ns >= self.until_ns.load(Ordering::SeqCst)
    }

    /// How long the window had been open at `at_ns`; `None` before it opens.
    fn open_for(&self, at_ns: u64) -> Option<Duration> {
        at_ns
            .checked_sub(self.from_ns.load(Ordering::SeqCst))
            .map(Duration::from_nanos)
    }

    /// Sleeps until `at_ns`. (Spinning the last stretch was tried: the
    /// scheduler then treats the generator as a hog and lets the server's
    /// waking threads preempt it for milliseconds — later, not earlier.)
    pub fn sleep_until(&self, at_ns: u64) {
        let now = self.now_ns();
        if now < at_ns {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }

    /// Requests issued so far by all readers, warm-up included.
    pub fn issued(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }
}

impl Default for Window {
    fn default() -> Self {
        Window::new()
    }
}

/// A request timed inside the measured window. `at_ns` counts from the
/// window's opening: when the request was due (open loop) or sent (closed).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub at_ns: u64,
    pub latency_ns: u64,
    /// How long the generator itself held the request back: on the open
    /// loop, the send after its due time; on a closed loop, the gap between
    /// the previous reply and this send (reading and checking that answer).
    pub late_ns: u64,
    pub class: Class,
}

/// A reply that arrived inside the measured window, `at_ns` after it opened.
#[derive(Debug, Clone, Copy)]
pub struct Replied {
    pub at_ns: u64,
    pub rows: u64,
}

/// What one reader connection saw inside the measured window.
#[derive(Debug, Default)]
pub struct ReadLog {
    pub timed: Vec<Timed>,
    /// The achieved rate is counted in replies, whenever they were asked for.
    pub replies: Vec<Replied>,
    pub failed: u64,
    /// Wrong or failed replies outside the window still make the run incorrect.
    pub failed_outside: u64,
    pub first_errors: Vec<String>,
}

impl ReadLog {
    /// A correct reply to a request due or sent at `at_ns`, sent `late_ns`
    /// later than the generator could have, in at `end_ns`.
    fn record(
        &mut self,
        window: &Window,
        (at_ns, late_ns, end_ns): (u64, u64, u64),
        rows: u64,
        class: Class,
    ) {
        if let Some(since_open) = window.measured_at(at_ns) {
            self.timed.push(Timed {
                at_ns: since_open,
                latency_ns: end_ns - at_ns,
                late_ns,
                class,
            });
        }
        if let Some(since_open) = window.measured_at(end_ns) {
            self.replies.push(Replied {
                at_ns: since_open,
                rows,
            });
        }
    }

    fn fail(&mut self, measured: bool, what: String) {
        if measured {
            self.failed += 1;
        } else {
            self.failed_outside += 1;
        }
        if self.first_errors.len() < 3 {
            self.first_errors.push(what);
        }
    }
}

/// Replies per second among `replies` (one connection's, in order of
/// arrival), measured between the first and the last of them.
pub fn replies_per_s(replies: &[Replied]) -> f64 {
    match (replies.first(), replies.last()) {
        (Some(first), Some(last)) if last.at_ns > first.at_ns => {
            (replies.len() - 1) as f64 * 1e9 / (last.at_ns - first.at_ns) as f64
        }
        _ => 0.0,
    }
}

/// One request/reply exchange; returns `(reply latency end, rows)` or why it failed.
fn exchange(
    conn: &mut Conn,
    program: &Program,
    index: usize,
    window: &Window,
) -> io::Result<(u64, Result<u64, String>)> {
    let request = &program.reads[index];
    conn.send(&request.frame)?;
    let payload = conn.recv()?;
    let end = window.now_ns();
    let verdict = match read_reply(payload) {
        Ok(reply) => request
            .check(&reply, program.workload)
            .map(|()| reply.rows.map_or(0, |d| d.rows))
            .map_err(|e| format!("request {index} ({}): {e}", request.text)),
        Err(e) => Err(format!("request {index}: {e}")),
    };
    Ok((end, verdict))
}

/// Closed loop: the next request goes out when the previous reply is in.
pub fn closed_loop_reader(
    mut conn: Conn,
    program: &Program,
    window: &Window,
) -> io::Result<ReadLog> {
    let mut log = ReadLog::default();
    let mut free_at = window.now_ns();
    loop {
        let start = window.now_ns();
        if window.done(start) {
            return Ok(log);
        }
        let index = window.cursor.fetch_add(1, Ordering::Relaxed) as usize % program.reads.len();
        let (end, verdict) = exchange(&mut conn, program, index, window)?;
        let times = (start, start - free_at, end);
        free_at = end;
        match verdict {
            Ok(rows) => log.record(window, times, rows, program.reads[index].class),
            Err(e) => log.fail(window.measured(start), e),
        }
    }
}

/// A fixed-rate arrival schedule: request `k` is due at `start + k/rate`.
#[derive(Debug, Clone, Copy)]
pub struct DueSchedule {
    start_ns: u64,
    interval_ns: u64,
    next: u64,
}

impl DueSchedule {
    pub fn new(start_ns: u64, rate_per_s: f64) -> DueSchedule {
        DueSchedule {
            start_ns,
            interval_ns: (1e9 / rate_per_s) as u64,
            next: 0,
        }
    }

    pub fn next_due(&mut self) -> u64 {
        let due = self.start_ns + self.next * self.interval_ns;
        self.next += 1;
        due
    }
}

/// When a request that was due at `due_ns` can actually go out, given the
/// clock and when the connection became free; and how much of the delay is
/// the generator's own (sleep overshoot), as opposed to waiting for the
/// previous reply — that wait is the server's and is charged to latency.
pub fn send_time(due_ns: u64, now_ns: u64, free_at_ns: u64) -> (u64, u64) {
    let earliest = due_ns.max(free_at_ns);
    let sent = now_ns.max(earliest);
    (sent, sent - earliest)
}

/// Open loop at a fixed rate on one connection: requests are *due* on the
/// schedule whatever the server does, and each is timed from its due time,
/// so a stalled reply lengthens the latency of every request queued behind it.
pub fn open_loop_reader(
    mut conn: Conn,
    program: &Program,
    window: &Window,
    rate_per_s: f64,
) -> io::Result<ReadLog> {
    let mut log = ReadLog::default();
    let mut schedule = DueSchedule::new(window.now_ns(), rate_per_s);
    let mut free_at = 0u64;
    loop {
        let due = schedule.next_due();
        if window.done(due) {
            return Ok(log);
        }
        window.sleep_until(due);
        let (_, late) = send_time(due, window.now_ns(), free_at);
        let index = window.cursor.fetch_add(1, Ordering::Relaxed) as usize % program.reads.len();
        let (end, verdict) = exchange(&mut conn, program, index, window)?;
        free_at = end;
        // Timed from due time if due inside the window; counted towards the
        // achieved rate if answered inside it.
        match verdict {
            Ok(rows) => log.record(window, (due, late, end), rows, program.reads[index].class),
            Err(e) => log.fail(window.measured(due), e),
        }
    }
}

/// What the writer connection saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Writes sent inside the measured window: when (counted from its
    /// opening) and how long the ack took.
    pub acked: Vec<(u64, u64)>,
    pub failed: u64,
    pub failed_outside: u64,
    pub first_errors: Vec<String>,
    /// Every acknowledged write since the server started, in order — the
    /// log the post-run check replays.
    pub applied: Vec<WriteOp>,
}

/// `churn_mixed`'s writer: one single-op script per request, the next after
/// the ack (an ingest client waits for its ack) and not before its slot on a
/// schedule of `pace_per_s`. It toggles planted triples; once the measured
/// window has been open for `background_after` it sends the expensive write,
/// once. Runs until the window closes. Latency is the ack's, from the send.
pub fn paced_writer(
    mut conn: Conn,
    program: &Program,
    window: &Window,
    pace_per_s: f64,
    background_after: Duration,
) -> io::Result<WriteLog> {
    let mut log = WriteLog::default();
    let mut script = MutationScript::new(&program.write_pool, program.seed);
    let mut schedule = DueSchedule::new(window.now_ns(), pace_per_s);
    let mut background_sent = false;
    // The second half of the expensive write, sent right after the first.
    let mut put_back = None;
    for id in 1u64.. {
        let due = schedule.next_due();
        if !window.done(due) {
            window.sleep_until(due);
        }
        let start = window.now_ns();
        if window.done(start) {
            break;
        }
        let background_due = window
            .open_for(start)
            .is_some_and(|t| t >= background_after);
        let (op, line) = match put_back.take() {
            Some(second) => second,
            None if background_due && !background_sent => {
                background_sent = true;
                match script.next_background() {
                    Some([first, second]) => {
                        put_back = Some(second);
                        first
                    }
                    None => script.next_toggle(),
                }
            }
            None => script.next_toggle(),
        };
        conn.send(&Frame::mutate(id, &line))?;
        let payload = conn.recv()?;
        let end = window.now_ns();
        let measured = window.measured(start);
        let acked = read_reply(payload)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                if r.kind() == "mutated" {
                    Ok(())
                } else {
                    Err(format!("{} reply to a write", r.kind()))
                }
            });
        match acked {
            Ok(()) => {
                log.applied.push(op);
                if let Some(at_ns) = window.measured_at(start) {
                    log.acked.push((at_ns, end - start));
                }
            }
            Err(e) => {
                // Not applied: the script's view of the pool must not move.
                script.undo(op);
                if measured {
                    log.failed += 1;
                } else {
                    log.failed_outside += 1;
                }
                if log.first_errors.len() < 3 {
                    log.first_errors.push(e);
                }
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the open-loop arithmetic against a simulated single-connection
    /// server with the given service times; returns per-request
    /// `(latency from due, generator lateness)`.
    fn simulate(rate: f64, service_ns: &[u64]) -> Vec<(u64, u64)> {
        let mut schedule = DueSchedule::new(0, rate);
        let mut free_at = 0u64;
        service_ns
            .iter()
            .map(|&service| {
                let due = schedule.next_due();
                // A perfect generator: awake exactly when it may send.
                let (sent, late) = send_time(due, due.max(free_at), free_at);
                free_at = sent + service;
                (free_at - due, late)
            })
            .collect()
    }

    #[test]
    fn a_stalled_reply_lengthens_the_next_requests_latency() {
        let ms = 1_000_000u64;
        // 200 req/s = one every 5 ms; the second reply stalls for 30 ms.
        let seen = simulate(200.0, &[ms, 30 * ms, ms, ms, ms, ms, ms, ms]);
        assert_eq!(seen[0], (ms, 0));
        assert_eq!(seen[1], (30 * ms, 0));
        // Due at 10 ms, but the connection is busy until 35 ms: a closed
        // loop would report 1 ms, the due-time clock reports 26 ms.
        assert_eq!(seen[2], (26 * ms, 0));
        assert_eq!(seen[3], (22 * ms, 0));
        // The backlog drains at 1 ms per request against 5 ms arrivals.
        assert_eq!(seen[7], (6 * ms, 0));
        let steady = simulate(200.0, &[ms; 20]);
        assert!(steady.iter().all(|&s| s == (ms, 0)));
    }

    #[test]
    fn generator_lateness_is_only_the_generators() {
        // Due at 10, connection free since 4, woke at 13: 3 late.
        assert_eq!(send_time(10, 13, 4), (13, 3));
        // Due at 10 but waiting for a reply until 50, sent at 52: 2 late.
        assert_eq!(send_time(10, 52, 50), (52, 2));
        // Awake early never sends before due.
        assert_eq!(send_time(10, 7, 0), (10, 0));
    }

    #[test]
    fn replies_are_timed_and_counted_by_where_they_fall_in_the_window() {
        let window = Window::new();
        let mut log = ReadLog::default();
        let now = window.now_ns();
        log.record(&window, (now, 0, now), 16, Class::Plain);
        assert!(log.timed.is_empty() && log.replies.is_empty(), "warm-up");
        let from = window.open(Duration::from_secs(3600));
        // Five replies 5 ms apart; the first was asked for before the window.
        log.record(&window, (from - 1, 0, from + 1_000), 16, Class::Plain);
        for k in 1..5u64 {
            let end = from + 1_000 + k * 5_000_000;
            log.record(&window, (end - 2_000, 7, end), 16, Class::Plain);
        }
        assert_eq!((log.timed.len(), log.replies.len()), (4, 5));
        assert_eq!((log.timed[0].latency_ns, log.timed[0].late_ns), (2_000, 7));
        assert_eq!(log.timed[0].at_ns, 5_000_000 - 1_000);
        assert!((replies_per_s(&log.replies) - 200.0).abs() < 1e-9);
        assert_eq!(replies_per_s(&log.replies[..1]), 0.0);
    }

    #[test]
    fn window_phases() {
        let window = Window::new();
        assert!(!window.measured(window.now_ns()) && !window.done(window.now_ns()));
        let from = window.open(Duration::from_secs(3600));
        assert!(window.measured(from) && window.measured(window.now_ns()));
        assert!(!window.measured(from - 1));
        window.close();
        assert!(window.done(window.now_ns()) && !window.measured(window.now_ns()));
    }
}
