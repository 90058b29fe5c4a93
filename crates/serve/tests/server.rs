//! End-to-end protocol tests over real sockets: request round trips,
//! subscription delta push, induced overload (admission control), and
//! graceful shutdown.

use std::sync::Arc;
use std::time::Duration;

use wireframe::graph::{Graph, GraphBuilder, StoreKind};
use wireframe::Session;
use wireframe_serve::{Client, ClientError, ServeConfig, Server};

const CHAIN_QUERY: &str = "SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <likes> ?z . }";

/// `a{i} knows b{i}`, `b{i} likes c{i}` — the chain query answers
/// `(a{i}, c{i})` for each `i`.
fn chain_graph(n: usize) -> Graph {
    let mut builder = GraphBuilder::new();
    for i in 0..n {
        builder.add(&format!("a{i}"), "knows", &format!("b{i}"));
        builder.add(&format!("b{i}"), "likes", &format!("c{i}"));
    }
    builder.build_with_store(StoreKind::Delta)
}

fn start(n: usize, config: ServeConfig) -> Server {
    let session = Arc::new(Session::new(chain_graph(n)));
    Server::start(session, "127.0.0.1:0", config).expect("bind ephemeral port")
}

#[test]
fn request_round_trips_over_a_real_socket() {
    let server = start(5, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (epoch, retained) = client.prepare(CHAIN_QUERY).unwrap();
    assert_eq!(epoch, 0);
    assert!(retained, "the wireframe engine retains acyclic views");

    let answer = client.query(CHAIN_QUERY, 0).unwrap();
    assert_eq!(answer.epoch, 0);
    assert_eq!(answer.rows.total, 5);
    assert_eq!(answer.rows.columns, 2);
    assert_eq!(answer.rows.rows.len(), 5);
    assert!(!answer.rows.truncated, "unlimited answers are complete");
    assert!(!answer.rows.prefix_served);

    // The chain query projects ?y away, so no top-k prefix is retained —
    // the cap still yields the canonical first rows, with the full count.
    let capped = client.query(CHAIN_QUERY, 2).unwrap();
    assert_eq!(capped.rows.total, 5, "total reports the full count");
    assert_eq!(capped.rows.rows.len(), 2, "rows are capped by the limit");
    assert!(capped.rows.truncated, "the cap dropped rows");
    assert!(!capped.rows.prefix_served, "projected queries defactorize");
    let mut expected = answer.rows.rows.clone();
    expected.sort();
    expected.truncate(2);
    assert_eq!(
        capped.rows.rows, expected,
        "limited answers are the canonical (lexicographic) first rows"
    );

    // A full-projection query is served from the maintained top-k prefix
    // in O(limit), and repeated caps page identically.
    let full_proj = "SELECT ?x ?y ?z WHERE { ?x <knows> ?y . ?y <likes> ?z . }";
    let prefixed = client.query_limited(full_proj, 2).unwrap();
    assert_eq!(prefixed.rows.rows.len(), 2);
    assert!(prefixed.rows.truncated);
    assert!(
        prefixed.rows.prefix_served,
        "the retained view answers limited queries from its top-k prefix"
    );
    let again = client.query_limited(full_proj, 2).unwrap();
    assert_eq!(again.rows.rows, prefixed.rows.rows, "stable paging");
    assert!(again.rows.prefix_served);

    let ack = client.mutate("+ a0 knows b1\n").unwrap();
    assert_eq!(ack.epoch, 1);
    assert_eq!(ack.inserted, 1);
    assert!(ack.coalesced >= 1);

    let answer = client.query(CHAIN_QUERY, 0).unwrap();
    assert_eq!(answer.epoch, 1);
    assert_eq!(answer.rows.total, 6, "a0→b1→c1 joined in");

    // Mutation script parse errors carry the offending line number.
    let err = client.mutate("+ a0 knows b2\n+ broken\n").unwrap_err();
    match err {
        ClientError::Server(msg) => {
            assert!(msg.contains("mutation line 2"), "{msg}");
        }
        other => panic!("expected a server error, got {other}"),
    }

    // Query errors (unknown label) are errors, not dropped connections.
    let err = client
        .query("SELECT ?x WHERE { ?x <no_such_predicate> ?y . }", 0)
        .unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, 1);
    assert!(stats.requests >= 6);
    assert!(stats.queries >= 3);
    assert_eq!(stats.mutations, 1);
    assert_eq!(stats.mutation_batches, 1);
    assert_eq!(stats.connections, 1);

    server.shutdown();
}

#[test]
fn subscriptions_push_contiguous_epoch_deltas() {
    let server = start(3, ServeConfig::default());
    let mut subscriber = Client::connect(server.local_addr()).unwrap();
    let mut writer = Client::connect(server.local_addr()).unwrap();

    let (snapshot_epoch, snapshot) = subscriber.subscribe(CHAIN_QUERY, 0).unwrap();
    assert_eq!(snapshot_epoch, 0);
    assert_eq!(snapshot.total, 3);

    let ack = writer.mutate("+ a0 knows b1\n").unwrap();
    assert_eq!(ack.epoch, 1);
    let ack = writer.mutate("- a0 knows b0\n").unwrap();
    assert_eq!(ack.epoch, 2);

    // Collect updates until the subscriber reaches epoch 2. Updates may
    // coalesce (one frame covering both batches) but must chain gap-free.
    let mut last_epoch = snapshot_epoch;
    let mut rows: std::collections::BTreeSet<Vec<String>> = snapshot.rows.into_iter().collect();
    while last_epoch < 2 {
        let update = subscriber
            .next_update(Duration::from_secs(5))
            .unwrap()
            .expect("an update before the timeout");
        assert_eq!(
            update.prev_epoch, last_epoch,
            "updates must chain without gaps"
        );
        assert!(update.epoch > update.prev_epoch);
        for row in &update.removed {
            assert!(rows.remove(row), "removed row {row:?} was present");
        }
        for row in update.added {
            assert!(rows.insert(row), "added rows are new");
        }
        last_epoch = update.epoch;
    }
    let expect: std::collections::BTreeSet<Vec<String>> = [
        vec!["a0".to_owned(), "c1".to_owned()],
        vec!["a1".to_owned(), "c1".to_owned()],
        vec!["a2".to_owned(), "c2".to_owned()],
    ]
    .into_iter()
    .collect();
    assert_eq!(rows, expect, "applying the deltas reproduces the answer");

    let stats = writer.stats().unwrap();
    assert!(stats.updates_pushed >= 1);
    assert_eq!(stats.subscriptions, 1);

    server.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_instead_of_queueing() {
    // queue_depth 0: every read request is refused at admission — the
    // deterministic worst case of a saturated server.
    let server = start(
        3,
        ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        match client.query(CHAIN_QUERY, 0).unwrap_err() {
            ClientError::Overloaded(reason) => assert_eq!(reason, "queue"),
            other => panic!("expected overloaded, got {other}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.shed_queue_full, 3);
    assert_eq!(
        stats.shed_deadline, 0,
        "queue sheds must not bleed into the deadline counter"
    );
    // The connection survives shedding: a later stats round trip works
    // (stats also goes through the queue, so ask the server directly).
    assert!(server.stats().requests >= 3);
    server.shutdown();
}

#[test]
fn expired_deadline_sheds_at_dequeue() {
    let server = start(
        3,
        ServeConfig {
            deadline: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query(CHAIN_QUERY, 0).unwrap_err() {
        ClientError::Overloaded(reason) => assert_eq!(reason, "deadline"),
        other => panic!("expected overloaded, got {other}"),
    }
    let stats = server.stats();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(
        stats.shed_queue_full, 0,
        "deadline sheds must not bleed into the queue counter"
    );
    server.shutdown();
}

#[test]
fn projected_limited_replies_keep_their_meaning_on_the_wire() {
    use wireframe_serve::frame::{write_frame, FrameReader, DEFAULT_MAX_FRAME};

    // `a{i} knows b{i} likes c{i}`, plus three more likes per b{i}: the
    // DISTINCT pair (?x, ?y) has 5 answers, the full join has 20 rows.
    let mut graph = chain_graph(5);
    for i in 0..5 {
        for extra in 0..3 {
            let (next, _) = graph.apply(&wireframe::Mutation::new().insert(
                &format!("b{i}"),
                "likes",
                &format!("d{extra}"),
            ));
            graph = next;
        }
    }
    let server = Server::start(
        Arc::new(Session::new(graph)),
        "127.0.0.1:0",
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");

    // Raw frames: what a client in any language sees.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = FrameReader::new();
    let mut ask = |id: u32, limit: u32| {
        let request = format!(
            r#"{{"v":1,"type":"query","id":{id},"query":"SELECT DISTINCT ?x ?y WHERE {{ ?x <knows> ?y . ?y <likes> ?z . }}","limit":{limit}}}"#
        );
        write_frame(&mut stream, &request).unwrap();
        reader
            .read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .unwrap()
            .expect("a reply frame")
    };
    // A miss, then hits on the retained view: same bytes but the id.
    for id in 1..=3 {
        let reply = ask(id, 2);
        assert!(reply.contains(r#""prefix_served":false"#), "{reply}");
        assert!(
            reply.contains(r#""total":5"#),
            "exact distinct count: {reply}"
        );
        assert!(reply.contains(r#""truncated":true"#), "{reply}");
        assert!(
            reply.contains(r#""rows":[["a0","b0"],["a1","b1"]]"#),
            "{reply}"
        );
    }
    let reply = ask(4, 16);
    assert!(reply.contains(r#""prefix_served":false"#), "{reply}");
    assert!(reply.contains(r#""total":5"#), "{reply}");
    assert!(reply.contains(r#""truncated":false"#), "{reply}");

    // All four were answered by joining one of the two query edges, and
    // both read paths say so.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_epoch, snap) = client.metrics().unwrap();
    assert_eq!(snap.counter("executor.projected_serves"), 4);
    assert_eq!(snap.counter("executor.view_serves"), 3);
    let text = scrape(server.metrics_local_addr().expect("scrape listener bound"));
    assert!(text.contains("wf_executor_projected_serves 4\n"), "{text}");
    server.shutdown();
}

/// A minimal HTTP GET against the scrape listener (raw socket — the
/// endpoint is hand-rolled HTTP, a raw client keeps the test honest).
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("an HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    body.to_owned()
}

#[test]
fn metrics_request_and_scrape_agree_under_concurrent_load() {
    let server = start(
        5,
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let metrics_addr = server.metrics_local_addr().expect("scrape listener bound");

    // Drive queries from several connections while polling both metrics
    // surfaces: every read must be internally consistent and monotone.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..25 {
                    client.query(CHAIN_QUERY, 0).unwrap();
                }
            });
        }
        let mut observer = Client::connect(addr).unwrap();
        let mut last_queries = 0;
        for _ in 0..5 {
            let (_epoch, snap) = observer.metrics().unwrap();
            let queries = snap.counter("serve.queries");
            assert!(queries >= last_queries, "counters are monotone");
            last_queries = queries;
            let text = scrape(metrics_addr);
            assert!(text.contains("# TYPE wf_serve_queries counter"), "{text}");
        }
    });

    // Quiesced: the wire snapshot and the scrape must agree exactly.
    let mut client = Client::connect(addr).unwrap();
    let (_epoch, snap) = client.metrics().unwrap();
    assert_eq!(snap.counter("serve.queries"), 100);
    assert_eq!(
        snap.counter("executor.cache_hits") + snap.counter("executor.cache_misses"),
        100,
        "the executor registry is merged into the served snapshot"
    );
    let latency = snap
        .histogram("serve.request_us")
        .expect("request latency histogram present");
    assert!(latency.count >= 100);
    let query_latency = snap
        .histogram("query.latency_us")
        .expect("session latency histogram merged in");
    assert_eq!(query_latency.count, 100);

    let text = scrape(metrics_addr);
    assert!(
        text.contains("wf_serve_queries 100\n"),
        "scrape and wire agree on quiesced counters: {text}"
    );
    // The metrics round trip itself lands in request_us after its response
    // is sent, so the scrape may see a few more samples — never fewer.
    let scraped_count: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("wf_serve_request_us_count "))
        .expect("request_us count in the scrape")
        .parse()
        .unwrap();
    assert!(scraped_count >= latency.count, "{scraped_count}");
    server.shutdown();

    // The scrape listener is torn down with the server.
    std::thread::sleep(Duration::from_millis(50));
    assert!(std::net::TcpStream::connect(metrics_addr).is_err());
}

#[test]
fn obs_off_serves_metrics_without_histograms() {
    let server = start(
        3,
        ServeConfig {
            obs: false,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.query(CHAIN_QUERY, 0).unwrap();
    let (_epoch, snap) = client.metrics().unwrap();
    assert_eq!(snap.counter("serve.queries"), 1, "counters stay live");
    assert!(
        snap.histogram("serve.request_us").is_none(),
        "histograms are no-ops under --obs off"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_joins_every_thread_and_closes_connections() {
    let server = start(3, ServeConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query(CHAIN_QUERY, 0).unwrap().rows.total, 3);

    // shutdown() joins the acceptor, readers, workers, batcher and
    // fan-out; if any of them leaked this call would hang the test.
    server.shutdown();

    // The old connection is closed...
    let err = client.query(CHAIN_QUERY, 0).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "{err}");
    // ...and the listener is gone (give the OS a beat to tear it down).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        Client::connect(addr).is_err(),
        "listener should be closed after shutdown"
    );
}

#[test]
fn a_client_can_request_shutdown() {
    let server = start(3, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(!server.shutdown_requested());
    client.shutdown_server().unwrap();
    // The flag is what wfserve polls before joining.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !server.shutdown_requested() {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
