//! `wfserve` — serve a triple file over the framed-TCP protocol.
//!
//! ```text
//! wfserve DATA.nt [options]
//!
//! options:
//!   --addr <host:port>        listen address (default 127.0.0.1:4151; port 0 = ephemeral)
//!   --engine <name>           engine to evaluate with (default wireframe)
//!   --store csr|map|delta     graph storage backend (default delta — the live-serving store)
//!   --workers <N>             worker threads for read requests (default 4)
//!   --queue-depth <N>         bounded queue length before shedding (default 128)
//!   --deadline-ms <N>         per-request deadline while queued (default 2000)
//!   --batch-window-ms <N>     mutation coalescing window (default 2)
//!   --threads <N>             phase-two worker threads per evaluation (default 1; 0 = auto)
//!   --shards <N>              serve through a sharded cluster of N vertex
//!                             partitions (default 1 = single session)
//!   --metrics-addr <host:port> second listener answering HTTP GETs with a
//!                             Prometheus-style metrics rendering (port 0 = ephemeral)
//!   --slow-query-ms <N>       log completed span trees of queries slower
//!                             than N ms to stderr (default off)
//! ```
//!
//! Telemetry (counters, latency histograms, sampled spans) is always on.
//!
//! The server runs until a client sends a `shutdown` request or stdin
//! reaches EOF (`wfserve data.nt < /dev/null` serves until killed — with
//! `#![forbid(unsafe_code)]` and no crates.io there is no signal handling,
//! so embedders and scripts use one of those two levers), then drains
//! in-flight work and exits.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wireframe::{EngineConfig, QueryExecutor, Session, SessionConfig, ShardedCluster, StoreKind};
use wireframe_serve::{ServeConfig, Server};

struct Options {
    data_path: String,
    addr: String,
    engine: String,
    store: StoreKind,
    config: ServeConfig,
    threads: usize,
    shards: usize,
    slow_query_ms: Option<u64>,
}

fn usage() -> &'static str {
    "usage: wfserve <triples-file> [--addr host:port] [--engine <name>] \
     [--store csr|map|delta] [--workers N] [--queue-depth N] [--deadline-ms N] \
     [--batch-window-ms N] [--threads N] [--shards N] [--metrics-addr host:port] \
     [--slow-query-ms N]"
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut data_path = None;
    let mut options = Options {
        data_path: String::new(),
        addr: "127.0.0.1:4151".to_owned(),
        engine: "wireframe".to_owned(),
        store: StoreKind::Delta,
        config: ServeConfig::default(),
        threads: 1,
        shards: 1,
        slow_query_ms: None,
    };
    let number = |args: &mut dyn Iterator<Item = String>, flag: &str| -> Result<u64, String> {
        args.next()
            .ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => options.addr = args.next().ok_or("--addr needs a value")?,
            "--engine" => options.engine = args.next().ok_or("--engine needs a value")?,
            "--store" => {
                options.store = StoreKind::parse(&args.next().ok_or("--store needs a value")?)?
            }
            "--workers" => options.config.workers = number(&mut args, "--workers")? as usize,
            "--queue-depth" => {
                options.config.queue_depth = number(&mut args, "--queue-depth")? as usize
            }
            "--deadline-ms" => {
                options.config.deadline = Duration::from_millis(number(&mut args, "--deadline-ms")?)
            }
            "--batch-window-ms" => {
                options.config.batch_window =
                    Duration::from_millis(number(&mut args, "--batch-window-ms")?)
            }
            "--threads" => options.threads = number(&mut args, "--threads")? as usize,
            "--metrics-addr" => {
                options.config.metrics_addr =
                    Some(args.next().ok_or("--metrics-addr needs a value")?)
            }
            "--slow-query-ms" => {
                options.slow_query_ms = Some(number(&mut args, "--slow-query-ms")?)
            }
            "--shards" => {
                options.shards = number(&mut args, "--shards")? as usize;
                if options.shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => {
                if data_path.is_some() {
                    return Err(format!("unexpected positional argument {other}"));
                }
                data_path = Some(other.to_owned());
            }
        }
    }
    options.data_path = data_path.ok_or_else(|| usage().to_owned())?;
    Ok(options)
}

fn run() -> Result<(), String> {
    let options = parse_args(std::env::args().skip(1))?;

    let file = std::fs::File::open(&options.data_path)
        .map_err(|e| format!("cannot open {}: {e}", options.data_path))?;
    let graph = wireframe::graph::load(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot load {}: {e}", options.data_path))?;
    eprintln!(
        "loaded {}: {} triples, {} predicates, {} nodes · {} store",
        options.data_path,
        graph.triple_count(),
        graph.predicate_count(),
        graph.node_count(),
        options.store.name()
    );

    let mut engine_config = EngineConfig::default().with_store(options.store);
    if options.threads != 1 {
        let threads = if options.threads == 0 {
            wireframe::core::auto_threads()
        } else {
            options.threads
        };
        engine_config = engine_config.with_threads(threads);
    }
    let mut session_config = SessionConfig::new()
        .engine(&options.engine)
        .engine_config(engine_config);
    if let Some(ms) = options.slow_query_ms {
        session_config = session_config.slow_query_ms(ms);
    }
    let executor: Arc<dyn QueryExecutor> = if options.shards > 1 {
        eprintln!(
            "serving through {} vertex-partitioned shards",
            options.shards
        );
        Arc::new(
            ShardedCluster::new(graph, options.shards, session_config)
                .map_err(|e| e.to_string())?,
        )
    } else {
        Arc::new(Session::from_config(graph, session_config).map_err(|e| e.to_string())?)
    };

    let server = Server::start(executor, &options.addr, options.config)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    println!("listening on {}", server.local_addr());
    if let Some(addr) = server.metrics_local_addr() {
        println!("metrics on http://{addr}/metrics");
    }

    // Serve until a client requests shutdown or stdin reaches EOF.
    let stdin_done = Arc::new(AtomicBool::new(false));
    {
        let stdin_done = Arc::clone(&stdin_done);
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
            stdin_done.store(true, Ordering::Relaxed);
        });
    }
    while !server.shutdown_requested() && !stdin_done.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(200));
    }
    eprintln!("draining and shutting down");
    server.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
