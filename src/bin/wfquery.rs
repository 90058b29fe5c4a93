//! `wfquery` — run SPARQL conjunctive queries over a triple file from the
//! command line.
//!
//! ```text
//! wfquery DATA.nt --query 'SELECT ?x ?y WHERE { ?x :knows ?y . }' [options]
//!
//! options:
//!   --query <SPARQL>          the conjunctive query (or pass it on stdin)
//!   --query-file <path>       read the query from a file instead
//!   --engine <name>           engine to evaluate with (default wireframe);
//!                             `--engine help` lists the registered engines
//!   --store csr|map|delta     graph storage backend (default csr)
//!   --shards <N>              evaluate through an N-way vertex-partitioned
//!                             [`wireframe::ShardedCluster`] instead of a
//!                             single session (default 1; requires an engine
//!                             with the `sharded` capability — `wireframe` or
//!                             `wco` — answers are identical either way)
//!   --mutations <path>        apply a mutation script before the query: one
//!                             op per line, `+ s p o` inserts and `- s p o`
//!                             removes (any triple syntax accepted by the
//!                             data loader); the result reports the epoch
//!   --edge-burnback           enable triangulation + edge burnback (wireframe only)
//!   --explain                 print the plan and phase statistics; after
//!                             --mutations, also the per-view maintenance
//!                             latency distribution from the metrics registry
//!   --trace                   print the structured span tree of every query
//!                             (stage durations with signature/engine/store
//!                             fields) to stderr after the results
//!   --limit <N>               bound the answer to the canonical first N rows
//!                             (default 20, 0 = unlimited). The limit is pushed
//!                             into evaluation, not applied after the fact:
//!                             when the query's retained view holds a
//!                             maintained top-k prefix covering N the answer
//!                             costs O(k) — no defactorization — otherwise the
//!                             defactorization is truncated under the same
//!                             canonical (lexicographic) row order, so the
//!                             printed rows are identical either way.
//!                             `--count-only` always evaluates fully.
//!   --threads <N>             worker threads for parallel phases (default 1; 0 = auto)
//!   --count-only              print only the number of embeddings
//!
//! exit codes: 0 ok · 1 evaluation/runtime failure · 2 usage error or
//! malformed input (bad flags, unparsable query, mutation-script parse
//! errors — reported with the offending line number)
//! ```
//!
//! Engines are dispatched through the workspace's engine registry
//! ([`wireframe::default_registry`]); evaluation runs through the
//! [`wireframe::QueryExecutor`] trait — a [`wireframe::Session`] normally, a
//! [`wireframe::ShardedCluster`] under `--shards N` — so repeated queries in
//! one invocation reuse prepared plans and the driver never depends on which
//! executor answered.
//!
//! The data file uses the formats accepted by `wireframe_graph::load`: either
//! N-Triples-style `<s> <p> <o> .` lines or bare whitespace-separated
//! `s p o` lines; `#` comments are skipped.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

/// A failed run, split by who is at fault: `Usage` is a malformed
/// invocation or input file (exit 2, like every driver in this workspace);
/// `Runtime` is a failure while evaluating well-formed input (exit 1).
enum Failure {
    Usage(String),
    Runtime(String),
}

impl Failure {
    fn message(&self) -> &str {
        match self {
            Failure::Usage(m) | Failure::Runtime(m) => m,
        }
    }
}

/// Shorthand for fallible steps that are usage errors when they fail.
trait OrUsage<T> {
    fn or_usage(self) -> Result<T, Failure>;
}

impl<T> OrUsage<T> for Result<T, String> {
    fn or_usage(self) -> Result<T, Failure> {
        self.map_err(Failure::Usage)
    }
}

use wireframe::graph::Graph;
use wireframe::query::EmbeddingSet;
use wireframe::{
    default_registry, EngineConfig, LimitInfo, Mutation, QueryExecutor, Session, SessionConfig,
    ShardedCluster, StoreKind,
};

struct Options {
    data_path: String,
    query: Option<String>,
    query_file: Option<String>,
    engine: String,
    store: StoreKind,
    shards: usize,
    mutations: Option<String>,
    edge_burnback: bool,
    explain: bool,
    trace: bool,
    limit: usize,
    threads: usize,
    count_only: bool,
}

fn usage() -> &'static str {
    "usage: wfquery <triples-file> --query <SPARQL> | --query-file <path> \
     [--engine <name>|help] [--store csr|map|delta] [--shards N] \
     [--mutations <path>] [--edge-burnback] [--explain] [--trace] [--limit N] \
     [--threads N] [--count-only]"
}

fn engine_listing() -> String {
    let registry = default_registry();
    let mut out = String::from("registered engines:\n");
    for entry in registry.entries() {
        out.push_str(&format!(
            "  {:<12} {:<42} {}\n",
            entry.name,
            entry.capabilities.summary(),
            entry.description
        ));
    }
    out.push_str(
        "capability flags: cyclic (exact cyclic answers) · factorized (answer-graph \
         artifact) · views (maintained views) · cyclic-views (no eviction fallback on \
         cyclic queries) · parallel (threaded defactorization) · sharded (scatter-gather \
         merge, usable with --shards)\n",
    );
    out.push_str("select one with --engine <name>");
    out
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut data_path = None;
    let mut options = Options {
        data_path: String::new(),
        query: None,
        query_file: None,
        engine: "wireframe".to_owned(),
        store: StoreKind::default(),
        shards: 1,
        mutations: None,
        edge_burnback: false,
        explain: false,
        trace: false,
        limit: 20,
        threads: 1,
        count_only: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--query" => options.query = Some(args.next().ok_or("--query needs a value")?),
            "--query-file" => {
                options.query_file = Some(args.next().ok_or("--query-file needs a value")?)
            }
            "--engine" => options.engine = args.next().ok_or("--engine needs a value")?,
            "--store" => {
                options.store = StoreKind::parse(&args.next().ok_or("--store needs a value")?)?
            }
            "--shards" => {
                options.shards = args
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "--shards must be a positive integer".to_owned())?;
                if options.shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
            }
            "--mutations" => {
                options.mutations = Some(args.next().ok_or("--mutations needs a value")?)
            }
            "--edge-burnback" => options.edge_burnback = true,
            "--explain" => options.explain = true,
            "--trace" => options.trace = true,
            "--count-only" => options.count_only = true,
            "--limit" => {
                options.limit = args
                    .next()
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|_| "--limit must be a non-negative integer".to_owned())?;
            }
            "--threads" => {
                options.threads = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| {
                        "--threads must be a non-negative integer (0 = auto)".to_owned()
                    })?;
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
    if options.engine == "help" || options.engine == "list" {
        // Listing engines needs no data file; handled before path validation.
        options.data_path = data_path.unwrap_or_default();
        return Ok(options);
    }
    options.data_path = data_path.ok_or_else(|| usage().to_owned())?;
    if options.query.is_some() && options.query_file.is_some() {
        return Err("--query and --query-file are mutually exclusive".to_owned());
    }
    Ok(options)
}

fn print_results(graph: &Graph, results: &EmbeddingSet, limited: Option<LimitInfo>) {
    let dict = graph.dictionary();
    for row in results.rows() {
        let labels: Vec<&str> = row
            .iter()
            .map(|n| dict.node_label(*n).unwrap_or("?"))
            .collect();
        println!("{}", labels.join("\t"));
    }
    // The evaluation is already bounded; the footer reports what the bound
    // dropped. A prefix serve may not know the full count (that is what
    // makes it O(k)), so the footer degrades honestly.
    if let Some(info) = limited.filter(|i| i.truncated) {
        match info.full_total {
            Some(total) => println!("… ({} more rows)", total - results.len()),
            None => println!("… (more rows exist)"),
        }
    }
}

fn read_query(options: &Options) -> Result<String, String> {
    if let Some(q) = &options.query {
        return Ok(q.clone());
    }
    if let Some(path) = &options.query_file {
        return std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read query file {path}: {e}"));
    }
    let mut buf = String::new();
    std::io::stdin()
        .read_to_string(&mut buf)
        .map_err(|e| format!("cannot read query from stdin: {e}"))?;
    Ok(buf)
}

fn run() -> Result<(), Failure> {
    let options = parse_args(std::env::args().skip(1)).or_usage()?;

    if options.engine == "help" || options.engine == "list" {
        println!("{}", engine_listing());
        return Ok(());
    }

    let file = std::fs::File::open(&options.data_path)
        .map_err(|e| Failure::Usage(format!("cannot open {}: {e}", options.data_path)))?;
    let graph = wireframe::graph::load_with_store(std::io::BufReader::new(file), options.store)
        .map_err(|e| Failure::Usage(format!("cannot load {}: {e}", options.data_path)))?;
    eprintln!(
        "loaded {}: {} triples, {} predicates, {} nodes · {} store",
        options.data_path,
        graph.triple_count(),
        graph.predicate_count(),
        graph.node_count(),
        options.store.name()
    );

    let query_text = read_query(&options).or_usage()?;

    let mut config = EngineConfig::default().with_store(options.store);
    if options.edge_burnback {
        config = config.with_edge_burnback();
    }
    if options.explain {
        config = config.with_explain();
    }
    if options.threads != 1 {
        // 0 = auto-detect; n > 1 = that many phase-two workers.
        let threads = if options.threads == 0 {
            wireframe::core::auto_threads()
        } else {
            options.threads
        };
        config = config.with_threads(threads);
    }
    // UnknownEngine's Display already names the registered engines; add the
    // descriptions-only listing for anything else.
    let engine_failure = |e: wireframe::WireframeError| match e {
        wireframe::WireframeError::UnknownEngine { requested, .. } => Failure::Usage(format!(
            "unknown engine {requested:?}\n{}",
            engine_listing()
        )),
        other => Failure::Runtime(other.to_string()),
    };
    let mut session_config = SessionConfig::new()
        .engine_config(config)
        .engine(&options.engine);
    if options.trace {
        // One-shot CLI run: capture every span, not the serving sample.
        session_config = session_config.trace_sample(1);
    }
    let session: Arc<dyn QueryExecutor> = if options.shards > 1 {
        // The cluster merge is defined on the factorized answer graph only;
        // gate on the registered capability (not the name) and fail before
        // partitioning rather than mid-construction. Unknown names fall
        // through so construction reports them with the full listing.
        let registry = default_registry();
        if registry.contains(&options.engine)
            && !registry
                .capabilities(&options.engine)
                .is_some_and(|c| c.sharded_merge)
        {
            let capable: Vec<&str> = registry
                .entries()
                .iter()
                .filter(|e| e.capabilities.sharded_merge)
                .map(|e| e.name)
                .collect();
            return Err(Failure::Usage(format!(
                "--shards requires an engine with the `sharded` capability \
                 (its factorized output composes under the scatter-gather \
                 merge); {:?} does not qualify — use one of: {}",
                options.engine,
                capable.join(", ")
            )));
        }
        eprintln!(
            "evaluating through {} vertex-partitioned shards",
            options.shards
        );
        Arc::new(
            ShardedCluster::new(graph, options.shards, session_config).map_err(engine_failure)?,
        )
    } else {
        Arc::new(Session::from_config(graph, session_config).map_err(engine_failure)?)
    };

    if let Some(path) = &options.mutations {
        let script = std::fs::read_to_string(path)
            .map_err(|e| Failure::Usage(format!("cannot read mutation script {path}: {e}")))?;
        // parse_script errors carry the offending line number; prefix the
        // path so the message reads like a compiler diagnostic.
        let mutation =
            Mutation::parse_script(&script).map_err(|e| Failure::Usage(format!("{path}: {e}")))?;
        // With --explain, prime the plan cache with the query *before* the
        // batch — plan + retained view only, no defactorization — so the
        // footprint pass has a view to maintain and the summary below
        // reports what actually happened to it. Priming is best-effort: a
        // query whose constants only exist after the mutation cannot even
        // parse yet, and the summary says why.
        let primed = if options.explain {
            match session.prime(&query_text) {
                Ok(retained) => retained,
                Err(e) => {
                    eprintln!("  (pre-mutation priming skipped: {e})");
                    false
                }
            }
        } else {
            false
        };
        let before = session.stats();
        let snap_before = session.metrics_snapshot();
        let outcome = session.apply_mutation(&mutation);
        let after = session.stats();
        let snap_delta = session.metrics_snapshot().delta(&snap_before);
        eprintln!(
            "applied {path}: +{} -{} triples → epoch {}{}{}",
            outcome.inserted,
            outcome.removed,
            session.epoch(),
            if session.shard_count() > 1 {
                format!(" (shard epochs {:?})", session.epoch_vector())
            } else {
                String::new()
            },
            if outcome.compacted {
                " (compacted)"
            } else {
                ""
            }
        );
        if options.explain {
            eprintln!(
                "  maintenance: {} plan(s) maintained in O(delta) \
                 (frontier {} node(s), {} µs) · {} plan(s) evicted{}",
                after.plans_maintained - before.plans_maintained,
                after.maintenance_frontier_nodes - before.maintenance_frontier_nodes,
                after.maintenance_micros - before.maintenance_micros,
                after.cache_invalidations - before.cache_invalidations,
                if primed {
                    ""
                } else {
                    " · (no retained view to maintain: the engine does not \
                     maintain, or the query is unmaintainable)"
                }
            );
            // The registry histograms break the counter totals down per
            // view: one maintain.view_us sample per maintained plan, one
            // maintain.batch_us sample per applied batch.
            if let Some(views) = snap_delta.histogram(wireframe::api::obs::names::MAINTAIN_VIEW_US)
            {
                eprintln!(
                    "  per-view latency: {} view(s) · p50 {} µs · max {} µs \
                     · mean {:.1} µs",
                    views.count,
                    views.quantile(50.0),
                    views.max,
                    views.mean()
                );
            }
        }
    }

    // `--count-only` needs the exact full count, so it evaluates unlimited;
    // everything else pushes the limit into evaluation, where a maintained
    // top-k prefix can answer it in O(k).
    let evaluation = if options.count_only {
        session.query(&query_text)
    } else {
        session.query_limited(&query_text, options.limit)
    }
    .map_err(|e| match e {
        // A query that does not parse is the caller's input, not an
        // evaluation failure.
        wireframe::WireframeError::Query(_) => Failure::Usage(e.to_string()),
        other => Failure::Runtime(other.to_string()),
    })?;
    if let Some(explain) = &evaluation.explain {
        eprint!("{explain}");
    } else if options.explain {
        eprintln!(
            "({} does not produce an explanation; timings: {:?} total)",
            evaluation.engine,
            evaluation.timings.total()
        );
    }

    // After a mutation script, the summary stamps the post-batch epoch so
    // scripted callers can tie the answer to the graph version it came from.
    let epoch_note = if options.mutations.is_some() {
        format!(" · epoch {}", session.epoch())
    } else {
        String::new()
    };
    if options.count_only {
        println!("{}", evaluation.embedding_count());
        eprintln!("{} embeddings{epoch_note}", evaluation.embedding_count());
    } else {
        print_results(
            &session.graph(),
            evaluation.embeddings(),
            evaluation.limited,
        );
        let summary = match evaluation.limited {
            Some(info) if info.truncated => match info.full_total {
                Some(total) => {
                    format!("{} of {} embeddings", evaluation.embedding_count(), total)
                }
                None => format!("{} embeddings (truncated)", evaluation.embedding_count()),
            },
            _ => format!("{} embeddings", evaluation.embedding_count()),
        };
        let prefix_note = if evaluation.limited.is_some_and(|i| i.prefix_served) {
            " · served from the maintained top-k prefix"
        } else {
            ""
        };
        eprintln!("{summary}{prefix_note}{epoch_note}");
    }
    if options.trace {
        // Completed span trees, most recent last; under --shards the
        // cluster's trees carry scatter/merge children instead of the
        // single-session phase breakdown.
        for span in session.recent_spans() {
            eprint!("{}", span.render());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{}", failure.message());
            match failure {
                Failure::Runtime(_) => ExitCode::FAILURE,
                Failure::Usage(_) => ExitCode::from(2),
            }
        }
    }
}
