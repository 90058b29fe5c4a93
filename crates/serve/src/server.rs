//! The framed-TCP server: acceptor, bounded worker pool, write batcher,
//! subscription fan-out.
//!
//! # Thread anatomy
//!
//! ```text
//! acceptor ──spawns──▶ one reader per connection
//!    readers ──▶ bounded job queue ──▶ N workers     (prepare/query/stats)
//!            ──▶ bounded mutate queue ──▶ 1 batcher  (mutate; coalesces)
//!            ──▶ subscription registry ◀── 1 fan-out (epoch events + sweep)
//! ```
//!
//! **Admission control.** Both queues are bounded: a full queue sheds the
//! request immediately with an `overloaded` response (`reason: "queue"`)
//! instead of queueing without bound, and a queued request that ages past
//! the configured deadline before a worker picks it up is shed with
//! `reason: "deadline"`. The connection stays healthy either way — shedding
//! is per-request backpressure, not an error.
//!
//! **Write batching.** The batcher pops one mutate request, then keeps
//! draining the mutate queue for [`ServeConfig::batch_window`]; everything
//! drained coalesces into one [`Mutation`] batch, applied with a single
//! [`QueryExecutor::apply_mutation`] — one graph version, one epoch, one
//! footprint-maintenance pass — and every coalesced requester gets the same
//! batch totals back.
//!
//! **Subscriptions.** [`QueryExecutor::add_epoch_listener`] (called under
//! the executor's state write lock, so events arrive strictly epoch-ordered)
//! feeds an event channel; the fan-out thread re-evaluates each subscribed
//! query — a retained-view serve when the engine maintains — diffs the new
//! answer against the last one it pushed, and sends an `update` frame whose
//! `prev_epoch`/`epoch` pair chains gap-free off the previous update. A
//! periodic sweep covers the subscribe-vs-mutate registration race, so no
//! epoch advance is ever silently skipped. Updates for several epochs may
//! coalesce into one frame; the chain stays contiguous.
//!
//! **Graceful shutdown.** [`Server::shutdown`] flips one flag; readers poll
//! it on a read timeout, workers drain the remaining queue before exiting,
//! the batcher applies what it already accepted, and every thread is
//! joined — test teardown leaves no orphaned listener threads.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::json::{self, Value};
use wireframe::{EdgeDelta, Mutation, QueryExecutor};
use wireframe_api::obs::{
    names, render_prometheus, Counter, Gauge, Histogram, MetricsSnapshot, Registry,
};
use wireframe_api::wire::{EmbeddingDelta, Request, Response, RowSet, ServeStats};
use wireframe_api::Evaluation;

use crate::frame::{self, FrameReader};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving prepare/query/stats requests.
    pub workers: usize,
    /// Bound of the read-side job queue *and* the mutate queue; a full
    /// queue sheds with `overloaded`.
    pub queue_depth: usize,
    /// Requests older than this when a worker dequeues them are shed.
    pub deadline: Duration,
    /// How long the batcher keeps draining the mutate queue after the
    /// first mutate of a batch.
    pub batch_window: Duration,
    /// Cap on mutate requests coalesced into one batch.
    pub max_batch: usize,
    /// Cap on a single frame's payload bytes.
    pub max_frame: usize,
    /// When set, a second listener on this address answers HTTP GETs with
    /// a Prometheus-style text rendering of the merged metrics snapshot
    /// (`wfserve --metrics-addr`).
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 128,
            deadline: Duration::from_secs(2),
            batch_window: Duration::from_millis(2),
            max_batch: 256,
            max_frame: frame::DEFAULT_MAX_FRAME,
            metrics_addr: None,
        }
    }
}

/// How often blocked loops re-check the shutdown flag, and the fan-out
/// sweep period covering the subscribe-vs-event registration race.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// One connection's write half, shared by the reader, workers, batcher and
/// fan-out. Writes are serialized by the mutex; a failed write marks the
/// connection dead so every later producer skips it.
struct Conn {
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl Conn {
    fn send(&self, response: &Response) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let payload = json::to_string(response);
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if frame::write_frame(&mut *writer, &payload).is_err() {
            self.alive.store(false, Ordering::Relaxed);
        }
    }
}

/// A queued prepare/query/stats request.
struct Job {
    conn: Arc<Conn>,
    request: Request,
    enqueued: Instant,
}

/// A queued mutate request.
struct MutJob {
    conn: Arc<Conn>,
    id: u64,
    mutation: Mutation,
    return_delta: bool,
}

/// One live subscription: the query, the connection to push to, and the
/// last answer pushed (distinct rows, dictionary ids, sorted) with the
/// epoch it reflects — the anchor the next update chains off.
struct Subscription {
    conn: Arc<Conn>,
    id: u64,
    query: String,
    last_epoch: u64,
    rows: Vec<Vec<u32>>,
}

/// Serve-layer counters, all handles into the server's [`Registry`] — the
/// registry snapshot is the single source of truth; [`ServeStats`] and the
/// `metrics` request both read from it.
struct Counters {
    connections: Counter,
    requests: Counter,
    queries: Counter,
    mutations: Counter,
    mutation_batches: Counter,
    coalesced_mutations: Counter,
    shed_queue_full: Counter,
    shed_deadline: Counter,
    updates_pushed: Counter,
    subscriptions_active: Gauge,
    /// Queue-to-response latency of worker-served requests.
    request_us: Histogram,
}

impl Counters {
    fn new(metrics: &Registry) -> Counters {
        Counters {
            connections: metrics.counter(names::SERVE_CONNECTIONS),
            requests: metrics.counter(names::SERVE_REQUESTS),
            queries: metrics.counter(names::SERVE_QUERIES),
            mutations: metrics.counter(names::SERVE_MUTATIONS),
            mutation_batches: metrics.counter(names::SERVE_MUTATION_BATCHES),
            coalesced_mutations: metrics.counter(names::SERVE_COALESCED_MUTATIONS),
            shed_queue_full: metrics.counter(names::SERVE_SHED_QUEUE_FULL),
            shed_deadline: metrics.counter(names::SERVE_SHED_DEADLINE),
            updates_pushed: metrics.counter(names::SERVE_UPDATES_PUSHED),
            subscriptions_active: metrics.gauge(names::SERVE_SUBSCRIPTIONS_ACTIVE),
            request_us: metrics.histogram(names::SERVE_REQUEST_US),
        }
    }
}

struct SharedState {
    executor: Arc<dyn QueryExecutor>,
    config: ServeConfig,
    shutdown: AtomicBool,
    shutdown_requested: AtomicBool,
    /// Set *after* the batcher is joined, so the fan-out's final sweep sees
    /// every applied batch before exiting.
    fanout_stop: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    mut_tx: SyncSender<MutJob>,
    subs: Mutex<Vec<Subscription>>,
    metrics: Registry,
    counters: Counters,
}

impl SharedState {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue_cv.notify_all();
    }

    /// Enqueues a worker job, shedding with `overloaded` when the bounded
    /// queue is at capacity (admission control, not an error).
    fn enqueue(&self, job: Job) {
        let id = job.request.id();
        let conn = Arc::clone(&job.conn);
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= self.config.queue_depth {
            drop(queue);
            self.counters.shed_queue_full.inc();
            conn.send(&Response::Overloaded {
                id,
                reason: "queue".to_owned(),
            });
            return;
        }
        queue.push_back(job);
        drop(queue);
        self.queue_cv.notify_one();
    }

    fn stats(&self) -> ServeStats {
        let exec = self.executor.stats();
        let c = &self.counters;
        ServeStats {
            epoch: self.executor.epoch(),
            epochs: self.executor.epoch_vector(),
            connections: c.connections.get(),
            requests: c.requests.get(),
            queries: c.queries.get(),
            mutations: c.mutations.get(),
            mutation_batches: c.mutation_batches.get(),
            coalesced_mutations: c.coalesced_mutations.get(),
            shed_queue_full: c.shed_queue_full.get(),
            shed_deadline: c.shed_deadline.get(),
            subscriptions: self.subs.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            updates_pushed: c.updates_pushed.get(),
            cache_hits: exec.cache_hits,
            cache_misses: exec.cache_misses,
            view_serves: exec.view_serves,
            full_evaluations: exec.full_evaluations,
            plans_maintained: exec.plans_maintained,
        }
    }

    /// The full registry snapshot the `metrics` request and the scrape
    /// endpoint both serve: the serve layer's own registry merged with the
    /// executor's (session or cluster, including per-shard breakdowns).
    fn merged_snapshot(&self) -> MetricsSnapshot {
        self.counters
            .subscriptions_active
            .set(self.subs.lock().unwrap_or_else(|e| e.into_inner()).len() as u64);
        let mut merged = self.metrics.snapshot();
        merged.merge(&self.executor.metrics_snapshot());
        merged
    }
}

/// A running server; dropping (or calling [`Server::shutdown`]) drains
/// in-flight work and joins every thread.
pub struct Server {
    shared: Arc<SharedState>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    fanout: Option<JoinHandle<()>>,
    scraper: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `executor` — any [`QueryExecutor`]: a single `Session` or a
    /// `ShardedCluster` (an `Arc<Session>` coerces at the call site).
    pub fn start(
        executor: Arc<dyn QueryExecutor>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (mut_tx, mut_rx) = mpsc::sync_channel(config.queue_depth.max(1));
        let (event_tx, event_rx) = mpsc::channel::<u64>();
        let metrics = Registry::new();
        let counters = Counters::new(&metrics);
        let shared = Arc::new(SharedState {
            executor: Arc::clone(&executor),
            config,
            shutdown: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            fanout_stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            mut_tx,
            subs: Mutex::new(Vec::new()),
            metrics,
            counters,
        });

        // Epoch events feed the fan-out. The listener runs under the
        // executor's state write lock, so events are strictly epoch-ordered;
        // the channel is unbounded so the mutating thread never blocks on a
        // slow fan-out. (mpsc::Sender is not Sync; the mutex makes the
        // closure shareable and is uncontended — one mutator at a time by
        // construction.)
        let event_tx = Mutex::new(event_tx);
        executor.add_epoch_listener(Box::new(move |epoch, _delta: &EdgeDelta| {
            let _ = event_tx
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .send(epoch);
        }));

        let readers = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || run_worker(&shared))
            })
            .collect();
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_batcher(&shared, &mut_rx))
        };
        let fanout = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_fanout(&shared, &event_rx))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::spawn(move || run_acceptor(&shared, &listener, &readers))
        };
        let (metrics_addr, scraper) = match &shared.config.metrics_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let addr = listener.local_addr()?;
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || run_scraper(&shared, &listener));
                (Some(addr), Some(handle))
            }
            None => (None, None),
        };
        Ok(Server {
            shared,
            addr,
            metrics_addr,
            acceptor: Some(acceptor),
            workers,
            batcher: Some(batcher),
            fanout: Some(fanout),
            scraper,
            readers,
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the Prometheus-style scrape listener, when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The merged registry snapshot (serve layer + executor), same data as
    /// a `metrics` request or a scrape.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.merged_snapshot()
    }

    /// The served executor.
    pub fn executor(&self) -> &Arc<dyn QueryExecutor> {
        &self.shared.executor
    }

    /// Current server + executor counters (same data as a `stats` request).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Whether a client asked the server to stop (a `shutdown` request).
    /// The embedder decides when to act on it by calling
    /// [`Server::shutdown`]; `wfserve` polls this.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Drains in-flight work and joins every server thread. Idempotent;
    /// also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.begin_shutdown();
        // accept() has no timeout; a throwaway local connection unblocks it
        // so the acceptor can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().unwrap_or_else(|e| e.into_inner()));
        for reader in readers {
            let _ = reader.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        // Only now stop the fan-out: its final sweep runs after the last
        // batch the batcher drained, so subscribers get every epoch.
        self.shared.fanout_stop.store(true, Ordering::Relaxed);
        if let Some(fanout) = self.fanout.take() {
            let _ = fanout.join();
        }
        if let Some(scraper) = self.scraper.take() {
            let _ = scraper.join();
        }
        self.shared
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn run_acceptor(
    shared: &Arc<SharedState>,
    listener: &TcpListener,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.is_shutdown() {
                    break;
                }
                shared.counters.connections.inc();
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || run_reader(&shared, stream));
                readers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(handle);
            }
            Err(_) => {
                if shared.is_shutdown() {
                    break;
                }
            }
        }
    }
}

/// Per-connection read loop: decode frames, dispatch requests.
fn run_reader(shared: &Arc<SharedState>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(write_half),
        alive: AtomicBool::new(true),
    });
    let mut reader = FrameReader::new();
    // Distinguish the peer going away (mark the connection dead, drop its
    // subscriptions) from a graceful server shutdown (stop *reading* but
    // keep the write half alive so drained in-flight responses still
    // reach the client before the connection closes).
    let mut peer_gone = false;
    loop {
        if shared.is_shutdown() {
            break;
        }
        if !conn.alive.load(Ordering::Relaxed) {
            peer_gone = true;
            break;
        }
        match reader.read_frame(&mut stream, shared.config.max_frame) {
            Ok(Some(payload)) => dispatch(shared, &conn, &payload),
            Ok(None) => {
                peer_gone = true;
                break;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                conn.send(&Response::Error {
                    id: 0,
                    message: e.to_string(),
                });
                peer_gone = true;
                break;
            }
            Err(_) => {
                peer_gone = true;
                break;
            }
        }
    }
    if peer_gone {
        conn.alive.store(false, Ordering::Relaxed);
        // Drop this connection's subscriptions so the fan-out stops
        // diffing for a peer that went away.
        shared
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|sub| !Arc::ptr_eq(&sub.conn, &conn));
    }
}

fn dispatch(shared: &Arc<SharedState>, conn: &Arc<Conn>, payload: &str) {
    let doc = match wireframe_api::wire::parse_frame(payload) {
        Ok(doc) => doc,
        Err(e) => {
            conn.send(&Response::Error {
                id: 0,
                message: e.to_string(),
            });
            return;
        }
    };
    let request = match Request::from_json(&doc) {
        Ok(request) => request,
        Err(e) => {
            let id = doc.get("id").and_then(Value::as_u64).unwrap_or(0);
            conn.send(&Response::Error {
                id,
                message: e.to_string(),
            });
            return;
        }
    };
    shared.counters.requests.inc();
    match request {
        Request::Mutate {
            id,
            script,
            return_delta,
        } => {
            let mutation = match Mutation::parse_script(&script) {
                Ok(mutation) => mutation,
                Err(e) => {
                    conn.send(&Response::Error {
                        id,
                        message: e.to_string(),
                    });
                    return;
                }
            };
            let job = MutJob {
                conn: Arc::clone(conn),
                id,
                mutation,
                return_delta,
            };
            match shared.mut_tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    shared.counters.shed_queue_full.inc();
                    job.conn.send(&Response::Overloaded {
                        id,
                        reason: "queue".to_owned(),
                    });
                }
                Err(TrySendError::Disconnected(job)) => {
                    job.conn.send(&Response::ShuttingDown { id });
                }
            }
        }
        Request::Subscribe { id, query, limit } => handle_subscribe(shared, conn, id, query, limit),
        Request::Shutdown { id } => {
            conn.send(&Response::ShuttingDown { id });
            shared.shutdown_requested.store(true, Ordering::Relaxed);
            shared.begin_shutdown();
        }
        request => shared.enqueue(Job {
            conn: Arc::clone(conn),
            request,
            enqueued: Instant::now(),
        }),
    }
}

/// Evaluates the subscribed query once (the snapshot) and registers the
/// subscription. An epoch advancing between the snapshot and the
/// registration is caught by the fan-out's next event or sweep — the
/// registry stores the snapshot's epoch, and the fan-out pushes whenever a
/// subscription's anchor is behind the session.
fn handle_subscribe(
    shared: &Arc<SharedState>,
    conn: &Arc<Conn>,
    id: u64,
    query: String,
    limit: u64,
) {
    match shared.executor.query(&query) {
        Err(e) => conn.send(&Response::Error {
            id,
            message: e.to_string(),
        }),
        Ok(ev) => {
            let rows = distinct_sorted_rows(&ev);
            let columns = ev.embeddings().schema().len() as u64;
            let total = rows.len() as u64;
            let shown = label_rows(shared, rows.iter(), limit);
            let truncated = (shown.len() as u64) < total;
            {
                let mut subs = shared.subs.lock().unwrap_or_else(|e| e.into_inner());
                subs.push(Subscription {
                    conn: Arc::clone(conn),
                    id,
                    query,
                    last_epoch: ev.epoch(),
                    rows,
                });
                shared.counters.subscriptions_active.set(subs.len() as u64);
            }
            conn.send(&Response::Subscribed {
                id,
                epoch: ev.epoch(),
                rows: RowSet {
                    columns,
                    total,
                    rows: shown,
                    truncated,
                    // Subscription snapshots keep the full row set server-side
                    // for delta diffing, so they never take the prefix path.
                    prefix_served: false,
                },
            });
        }
    }
}

/// Worker loop: serve prepare/query/stats jobs; on shutdown, drain what
/// is already queued before exiting (graceful teardown).
fn run_worker(shared: &Arc<SharedState>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.is_shutdown() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, POLL_INTERVAL)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        let Some(job) = job else { break };
        serve_job(shared, job);
    }
}

fn serve_job(shared: &Arc<SharedState>, job: Job) {
    let id = job.request.id();
    if job.enqueued.elapsed() > shared.config.deadline {
        shared.counters.shed_deadline.inc();
        job.conn.send(&Response::Overloaded {
            id,
            reason: "deadline".to_owned(),
        });
        return;
    }
    let enqueued = job.enqueued;
    match job.request {
        Request::Prepare { id, query } => match shared.executor.prime(&query) {
            Ok(retained) => job.conn.send(&Response::Prepared {
                id,
                epoch: shared.executor.epoch(),
                retained,
            }),
            Err(e) => job.conn.send(&Response::Error {
                id,
                message: e.to_string(),
            }),
        },
        // The limit is pushed into evaluation: a session with a primed
        // top-k prefix answers `limit <= k` in O(k), and a full evaluation
        // is truncated canonically — the rows sent are always the canonical
        // first `limit`, never an arbitrary `take()`.
        Request::Query { id, query, limit } => {
            match shared.executor.query_limited(&query, limit as usize) {
                Ok(ev) => {
                    shared.counters.queries.inc();
                    let columns = ev.embeddings().schema().len() as u64;
                    let info = ev.limited;
                    // A prefix serve may not know the full count; fall back
                    // to the served rows and let `truncated` say more exist.
                    let total = info
                        .map(|i| i.full_total.unwrap_or(ev.embedding_count()))
                        .unwrap_or(ev.embedding_count()) as u64;
                    let graph = shared.executor.graph();
                    let dict = graph.dictionary();
                    let rows = ev
                        .embeddings()
                        .rows()
                        .map(|row| {
                            row.iter()
                                .map(|n| dict.node_label(*n).unwrap_or("?").to_owned())
                                .collect()
                        })
                        .collect();
                    job.conn.send(&Response::Rows {
                        id,
                        epoch: ev.epoch(),
                        rows: RowSet {
                            columns,
                            total,
                            rows,
                            truncated: info.is_some_and(|i| i.truncated),
                            prefix_served: info.is_some_and(|i| i.prefix_served),
                        },
                    });
                }
                Err(e) => job.conn.send(&Response::Error {
                    id,
                    message: e.to_string(),
                }),
            }
        }
        Request::Stats { id } => {
            let stats = shared.stats();
            job.conn.send(&Response::Stats { id, stats });
        }
        Request::Metrics { id } => {
            let snapshot = shared.merged_snapshot();
            job.conn.send(&Response::Metrics {
                id,
                epoch: shared.executor.epoch(),
                snapshot,
            });
        }
        // Mutate/Subscribe/Shutdown never reach the worker queue.
        other => job.conn.send(&Response::Error {
            id: other.id(),
            message: "internal: request routed to the wrong queue".to_owned(),
        }),
    }
    shared
        .counters
        .request_us
        .record_duration(enqueued.elapsed());
}

/// Batcher loop: coalesce mutate requests arriving within the batch window
/// into one applied [`Mutation`]; on shutdown, apply what was accepted.
fn run_batcher(shared: &Arc<SharedState>, rx: &Receiver<MutJob>) {
    loop {
        let first = match rx.recv_timeout(POLL_INTERVAL) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if shared.is_shutdown() {
                    // Drain accepted-but-unapplied mutations before exiting.
                    let pending: Vec<MutJob> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
                    if !pending.is_empty() {
                        apply_batch(shared, pending);
                    }
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut jobs = vec![first];
        let window_end = Instant::now() + shared.config.batch_window;
        while jobs.len() < shared.config.max_batch {
            let now = Instant::now();
            if now >= window_end {
                break;
            }
            match rx.recv_timeout(window_end - now) {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        apply_batch(shared, jobs);
    }
}

fn apply_batch(shared: &Arc<SharedState>, jobs: Vec<MutJob>) {
    let mut combined = Mutation::new();
    for job in &jobs {
        for (op, s, p, o) in job.mutation.ops() {
            combined.push(*op, s, p, o);
        }
    }
    let outcome = shared.executor.apply_mutation(&combined);
    // The batcher is the executor's only mutator on the serving path, so
    // the epoch right after the apply is this batch's epoch.
    let epoch = shared.executor.epoch();
    let coalesced = jobs.len() as u64;
    shared.counters.mutations.add(coalesced);
    shared.counters.mutation_batches.inc();
    if jobs.len() > 1 {
        shared.counters.coalesced_mutations.add(coalesced);
    }
    for job in jobs {
        job.conn.send(&Response::Mutated {
            id: job.id,
            epoch,
            inserted: outcome.inserted as u64,
            removed: outcome.removed as u64,
            coalesced,
            compacted: outcome.compacted,
            delta: job.return_delta.then(|| outcome.delta.clone()),
        });
    }
}

/// Scrape loop: answer HTTP GETs on the metrics listener with a
/// Prometheus-style text rendering of the merged snapshot. Hand-rolled
/// HTTP/1.0: scrapes are rare (one per poll interval), so each request is
/// handled inline — no worker pool, no keep-alive.
fn run_scraper(shared: &Arc<SharedState>, listener: &TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        match listener.accept() {
            Ok((stream, _)) => serve_scrape(shared, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.is_shutdown() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                if shared.is_shutdown() {
                    break;
                }
            }
        }
    }
}

fn serve_scrape(shared: &Arc<SharedState>, mut stream: TcpStream) {
    use std::io::{Read, Write};
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // Read until the blank line ending the request head; the request line
    // and headers are ignored (every path serves the same document).
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return,
        }
    }
    let body = render_prometheus(&shared.merged_snapshot());
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Fan-out loop: on every epoch event — and on a periodic sweep that heals
/// the subscribe-vs-mutate registration race — bring every lagging
/// subscription up to the current epoch with one pushed delta.
fn run_fanout(shared: &Arc<SharedState>, events: &Receiver<u64>) {
    loop {
        if shared.fanout_stop.load(Ordering::Relaxed) {
            // Final sweep: the batcher is already joined, so this observes
            // every batch ever applied before the fan-out exits.
            sweep_subscriptions(shared);
            break;
        }
        match events.recv_timeout(POLL_INTERVAL) {
            Ok(_epoch) => {
                // Coalesce a burst of events into one sweep.
                while events.try_recv().is_ok() {}
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        sweep_subscriptions(shared);
    }
}

fn sweep_subscriptions(shared: &Arc<SharedState>) {
    let mut subs = shared.subs.lock().unwrap_or_else(|e| e.into_inner());
    subs.retain(|sub| sub.conn.alive.load(Ordering::Relaxed));
    shared.counters.subscriptions_active.set(subs.len() as u64);
    let current_epoch = shared.executor.epoch();
    for sub in subs.iter_mut() {
        if sub.last_epoch >= current_epoch {
            continue;
        }
        let Ok(ev) = shared.executor.query(&sub.query) else {
            continue;
        };
        if ev.epoch() <= sub.last_epoch {
            continue;
        }
        let rows = distinct_sorted_rows(&ev);
        let (added, removed) = diff_sorted(&sub.rows, &rows);
        let delta = EmbeddingDelta {
            prev_epoch: sub.last_epoch,
            epoch: ev.epoch(),
            epochs: ev.epochs.clone(),
            total: rows.len() as u64,
            added: label_rows(shared, added.into_iter(), 0),
            removed: label_rows(shared, removed.into_iter(), 0),
        };
        sub.rows = rows;
        sub.last_epoch = ev.epoch();
        shared.counters.updates_pushed.inc();
        sub.conn.send(&Response::Update { id: sub.id, delta });
    }
}

/// The evaluation's distinct rows as raw dictionary ids, sorted — the
/// canonical form subscriptions diff. Subscription semantics are
/// set-of-rows (duplicates collapse), which is what makes added/removed
/// deltas well defined.
fn distinct_sorted_rows(ev: &Evaluation) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = ev
        .embeddings()
        .rows()
        .map(|row| row.iter().map(|n| n.0).collect())
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Two-pointer diff of sorted distinct row lists: (added, removed).
fn diff_sorted<'a>(
    before: &'a [Vec<u32>],
    after: &'a [Vec<u32>],
) -> (Vec<&'a Vec<u32>>, Vec<&'a Vec<u32>>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < before.len() && j < after.len() {
        match before[i].cmp(&after[j]) {
            std::cmp::Ordering::Less => {
                removed.push(&before[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(&after[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend(before[i..].iter());
    added.extend(after[j..].iter());
    (added, removed)
}

/// Resolves id rows to label rows through the current dictionary (labels
/// are append-only across mutations, so ids from older snapshots still
/// resolve). `limit` 0 = all rows.
fn label_rows<'a>(
    shared: &SharedState,
    rows: impl Iterator<Item = &'a Vec<u32>>,
    limit: u64,
) -> Vec<Vec<String>> {
    let graph = shared.executor.graph();
    let dict = graph.dictionary();
    let cap = if limit == 0 {
        usize::MAX
    } else {
        limit as usize
    };
    rows.take(cap)
        .map(|row| {
            row.iter()
                .map(|&n| {
                    dict.node_label(wireframe::graph::NodeId(n))
                        .unwrap_or("?")
                        .to_owned()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_sorted_finds_symmetric_difference() {
        let before = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let after = vec![vec![0, 0], vec![3, 4], vec![7, 8]];
        let (added, removed) = diff_sorted(&before, &after);
        assert_eq!(added, vec![&vec![0, 0], &vec![7, 8]]);
        assert_eq!(removed, vec![&vec![1, 2], &vec![5, 6]]);
        let (added, removed) = diff_sorted(&[], &[]);
        assert!(added.is_empty() && removed.is_empty());
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServeConfig::default();
        assert!(config.workers >= 1);
        assert!(config.queue_depth >= 1);
        assert!(config.max_batch >= 1);
        assert!(config.deadline > config.batch_window);
    }
}
