//! The measured program: a real `wfserve` child process on an ephemeral
//! port, its CPU time and peak memory read from `/proc`, and the guarantee
//! that it is gone on every exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::client::{Conn, Frame};

/// Pid of the live child (0 = none), for the watchdog.
static LIVE_CHILD: AtomicU32 = AtomicU32::new(0);

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `run.sh`
/// exports the machine's `getconf CLK_TCK`; 100 is the Linux default.
fn clock_ticks_per_second() -> f64 {
    std::env::var("BENCH_CLK_TCK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v: &f64| v > 0.0)
        .unwrap_or(100.0)
}

/// A running `wfserve`, fixed settings: `--store delta --workers 2
/// --threads 1`, everything else as shipped.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    // Held open: wfserve treats EOF on stdin as a shutdown request, so if
    // this process dies without running `Drop`, the child still exits.
    _stdin: ChildStdin,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server on `data` and waits for its `listening on` line.
    pub fn spawn(wfserve: &Path, data: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(wfserve)
            .arg(data)
            .args(["--addr", "127.0.0.1:0", "--store", "delta"])
            .args(["--workers", "2", "--threads", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", wfserve.display()))?;
        LIVE_CHILD.store(child.id(), Ordering::SeqCst);
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let addr = match BufReader::new(stdout).read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let mut server = ServerProc {
            child,
            _stdin: stdin,
            // Placeholder until parsed; `stop` below never dials it.
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                server.stop();
                Err(format!(
                    "wfserve did not announce its address (said {:?})",
                    line.trim()
                ))
            }
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// CPU seconds the server's live threads have used so far: the first
    /// field of each `/proc/<pid>/task/<tid>/schedstat`, in nanoseconds —
    /// half-second slices need finer grain than clock ticks. Where the
    /// kernel keeps no schedstat, user + system ticks of `/proc/<pid>/stat`.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let tasks = format!("/proc/{}/task", self.child.id());
        let on_cpu_ns = |task: std::fs::DirEntry| -> Option<u64> {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse().ok()
        };
        // A task that ends between the listing and the read is skipped.
        let on_cpu_ns: u64 = std::fs::read_dir(&tasks)
            .map_err(|e| format!("{tasks}: {e}"))?
            .flatten()
            .filter_map(on_cpu_ns)
            .sum();
        if on_cpu_ns > 0 {
            return Ok(on_cpu_ns as f64 / 1e9);
        }
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_stat_ticks(&stat)
            .map(|ticks| ticks as f64 / clock_ticks_per_second())
            .ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// Peak resident set size so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_status_kb(&status, "VmHWM:")
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Wire `shutdown`, a grace period, then kill; always reaps the child.
    pub fn stop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            LIVE_CHILD.store(0, Ordering::SeqCst);
            return;
        }
        if self.addr.port() != 0 {
            if let Ok(mut conn) = Conn::connect(self.addr) {
                let _ = conn.call(&Frame::shutdown(1));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                LIVE_CHILD.store(0, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        LIVE_CHILD.store(0, Ordering::SeqCst);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces, so fields count from the last ')'.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Ends the whole run if it outlives `limit`: kills the live child, then
/// exits non-zero without a result line. The harness allows 180 s per run.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: run exceeded {} s — giving up", limit.as_secs());
        let pid = LIVE_CHILD.load(Ordering::SeqCst);
        if pid != 0 {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        std::process::exit(3);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_and_status_lines_parse() {
        let stat = "4242 (wf serve) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    137 21 0 0 20 0 5 0 1000 1 2 3";
        assert_eq!(parse_stat_ticks(stat), Some(158));
        let status = "Name:\twfserve\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
        assert_eq!(parse_stat_ticks("garbage"), None);
    }
}
