//! End-to-end tests for the estimation server: boot on an ephemeral
//! port, drive it over real sockets, and check the full contract —
//! estimate parity with the offline API, error envelopes, backpressure,
//! hot reload, and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SpaceBudget};
use twig_serve::http::{
    read_response, read_response_pipelined, write_request, ClientResponse, Limits,
};
use twig_serve::json::Json;
use twig_serve::loadgen;
use twig_serve::{
    LoadOutcome, Server, ServerConfig, ServerHandle, SnapshotStore, SummaryRegistry, SummarySpec,
};
use twig_tree::{DataTree, Twig};

const XML: &str = "<dblp>\
    <book><author>AAA</author><author>BBB</author><title>T1</title><year>1999</year></book>\
    <book><author>AAA</author><title>T2</title><year>2001</year></book>\
    <book><author>CCC</author><title>T3</title></book>\
    <article><author>AAA</author><title>T4</title><year>1999</year></article>\
    <article><author>DDD</author><journal>J1</journal><year>2003</year></article>\
    <inproceedings><author>BBB</author><title>T5</title><year>2001</year></inproceedings>\
</dblp>";

fn build_cst(xml: &str) -> Cst {
    let tree = DataTree::from_xml(xml).unwrap();
    Cst::build(&tree, &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() })
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "twig-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a flat summary of `xml` to `path`. The writer lands it by
/// temp file + rename, so a reload swap never truncates a live mapping.
fn write_summary_file(path: &Path, xml: &str) -> Cst {
    let cst = build_cst(xml);
    twig_flat::writer::write_file(&cst, path).unwrap();
    cst
}

/// Replaces `path` with `bytes` by rename, never in place: a served
/// summary is memory-mapped, and truncating a mapped file is a SIGBUS.
fn replace_file(path: &Path, bytes: &[u8]) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

struct TestServer {
    addr: String,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServerConfig, registry: SummaryRegistry) -> TestServer {
        let server = Server::bind("127.0.0.1:0", config, registry).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer { addr, handle, thread: Some(thread) }
    }

    /// Requests shutdown and asserts `run()` returns cleanly.
    fn stop(mut self) {
        self.handle.shutdown();
        let thread = self.thread.take().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !thread.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(thread.is_finished(), "server did not drain within 10s");
        thread.join().unwrap().unwrap();
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn client_limits() -> Limits {
    Limits {
        max_head_bytes: 64 * 1024,
        max_body_bytes: 16 * 1024 * 1024,
        read_deadline: Duration::from_secs(10),
        idle_deadline: Duration::from_secs(10),
    }
}

fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    write_request(&mut stream, method, path, body).unwrap();
    read_response(&mut stream, &client_limits()).unwrap()
}

fn get(addr: &str, path: &str) -> ClientResponse {
    request(addr, "GET", path, b"")
}

fn post_json(addr: &str, path: &str, body: &str) -> ClientResponse {
    request(addr, "POST", path, body.as_bytes())
}

fn default_registry(dir: &Path) -> (SummaryRegistry, Cst) {
    let path = dir.join("default.flt");
    let cst = write_summary_file(&path, XML);
    let registry = SummaryRegistry::new();
    registry.load(SummarySpec { name: "default".into(), path }).unwrap();
    (registry, cst)
}

#[test]
fn endpoints_and_estimate_parity() {
    let dir = temp_dir("endpoints");
    let (registry, cst) = default_registry(&dir);
    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;

    // healthz
    let response = get(addr, "/healthz");
    assert_eq!(response.status, 200);
    let body = Json::parse(&response.body_text()).unwrap();
    assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(body.get("summaries").unwrap().as_f64(), Some(1.0));

    // summaries
    let response = get(addr, "/summaries");
    assert_eq!(response.status, 200);
    let body = Json::parse(&response.body_text()).unwrap();
    let list = body.get("summaries").unwrap().as_array().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("name").unwrap().as_str(), Some("default"));
    assert_eq!(list[0].get("generation").unwrap().as_f64(), Some(1.0));
    let nodes = list[0].get("nodes").unwrap().as_f64().unwrap();
    assert!(nodes > 0.0);

    // Single-query estimate, every algorithm × count kind: the served
    // number must be bit-identical to the in-process estimate.
    let queries = [
        r#"book(author("AAA"))"#,
        r#"book(author("AAA"),year("1999"))"#,
        r#"dblp(book(title("T1")))"#,
        r#"article(year("2003"))"#,
        r#"phdthesis(author("ZZZ"))"#,
    ];
    for algorithm in Algorithm::ALL {
        for (kind, kind_name) in
            [(CountKind::Presence, "presence"), (CountKind::Occurrence, "occurrence")]
        {
            for query_text in queries {
                let body = format!(
                    r#"{{"query":{},"algorithm":"{}","count_kind":"{kind_name}"}}"#,
                    Json::str(query_text).render(),
                    algorithm.name(),
                );
                let response = post_json(addr, "/estimate", &body);
                assert_eq!(response.status, 200, "{}", response.body_text());
                let parsed = Json::parse(&response.body_text()).unwrap();
                assert_eq!(parsed.get("algorithm").unwrap().as_str(), Some(algorithm.name()));
                assert_eq!(parsed.get("count_kind").unwrap().as_str(), Some(kind_name));
                let served =
                    parsed.get("estimates").unwrap().as_array().unwrap()[0].as_f64().unwrap();
                let expected = cst.estimate(&Twig::parse(query_text).unwrap(), algorithm, kind);
                assert_eq!(
                    served.to_bits(),
                    expected.to_bits(),
                    "{} {} {kind_name}: served {served} != offline {expected}",
                    query_text,
                    algorithm.name(),
                );
            }
        }
    }

    // Batch estimate: order-preserving, same parity.
    let batch_body = format!(
        r#"{{"queries":[{},{},{}],"algorithm":"mosh"}}"#,
        Json::str(queries[0]).render(),
        Json::str(queries[1]).render(),
        Json::str(queries[3]).render(),
    );
    let response = post_json(addr, "/estimate", &batch_body);
    assert_eq!(response.status, 200, "{}", response.body_text());
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("count").unwrap().as_f64(), Some(3.0));
    let served: Vec<f64> = parsed
        .get("estimates")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    for (index, query_text) in [queries[0], queries[1], queries[3]].iter().enumerate() {
        let expected =
            cst.estimate(&Twig::parse(query_text).unwrap(), Algorithm::Mosh, CountKind::Occurrence);
        assert_eq!(served[index].to_bits(), expected.to_bits(), "batch[{index}]");
    }

    // Keep-alive: two requests over one connection.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_request(&mut stream, "GET", "/healthz", b"").unwrap();
        let first = read_response(&mut stream, &client_limits()).unwrap();
        assert_eq!(first.status, 200);
        write_request(&mut stream, "GET", "/healthz", b"").unwrap();
        let second = read_response(&mut stream, &client_limits()).unwrap();
        assert_eq!(second.status, 200);
    }
    // An HTTP/1.0 request without a `keep-alive` token gets its response
    // and then the end of the stream.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        let mut inbound = Vec::new();
        let response =
            read_response_pipelined(&mut stream, &mut inbound, &client_limits()).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("connection"), Some("close"));
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.read_to_end(&mut inbound).unwrap();
        assert!(inbound.is_empty(), "bytes after the response: {inbound:?}");
    }

    // Error envelopes.
    let cases: [(&str, &str, &str, u16, &str); 8] = [
        ("POST", "/estimate", "{not json", 400, "bad_json"),
        ("POST", "/estimate", r#"{"queries":[]}"#, 400, "bad_request"),
        ("POST", "/estimate", r#"{"query":"a(b)","queries":["a(b)"]}"#, 400, "bad_request"),
        ("POST", "/estimate", r#"{"query":"not a twig(("}"#, 400, "bad_query"),
        ("POST", "/estimate", r#"{"query":"a(b)","algorithm":"quantum"}"#, 400, "bad_request"),
        ("POST", "/estimate", r#"{"query":"a(b)","summary":"nope"}"#, 404, "unknown_summary"),
        ("GET", "/estimate", "", 405, "method_not_allowed"),
        ("GET", "/no/such/path", "", 404, "not_found"),
    ];
    for (method, path, body, status, kind) in cases {
        let response = request(addr, method, path, body.as_bytes());
        assert_eq!(response.status, status, "{method} {path} {body}: {}", response.body_text());
        let parsed = Json::parse(&response.body_text()).unwrap();
        assert_eq!(
            parsed.get("error").unwrap().get("kind").unwrap().as_str(),
            Some(kind),
            "{method} {path}"
        );
    }

    // Metrics reflect the traffic.
    let response = get(addr, "/metrics");
    assert_eq!(response.status, 200);
    let text = response.body_text();
    assert!(text.contains("twig_serve_requests_total"), "{text}");
    assert!(text.contains("twig_serve_estimates_total"), "{text}");
    assert!(text.contains("twig_serve_request_latency_us_bucket"), "{text}");
    assert!(text.contains("twig_serve_request_latency_us_count"), "{text}");
    let estimates_line =
        text.lines().find(|line| line.starts_with("twig_serve_estimates_total ")).unwrap();
    let count: f64 = estimates_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert!(count >= 63.0, "expected >= 63 estimates recorded, got {count}");

    // Shutdown over HTTP: acknowledged, connection closed, clean drain.
    let response = post_json(addr, "/admin/shutdown", "");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_burst_is_served_in_order_over_one_connection() {
    let dir = temp_dir("pipeline");
    let (registry, cst) = default_registry(&dir);
    let server = TestServer::start(ServerConfig::default(), registry);

    // Write the whole burst — one request per algorithm — before
    // reading a single byte back. HTTP/1.1 pipelining guarantees FIFO
    // responses, and each must be bit-identical to the offline API.
    let query = r#"book(author("AAA"),year("1999"))"#;
    let twig = Twig::parse(query).unwrap();
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for algorithm in Algorithm::ALL {
        let body = format!(
            r#"{{"query":{},"algorithm":"{}"}}"#,
            Json::str(query).render(),
            algorithm.name(),
        );
        write_request(&mut stream, "POST", "/estimate", body.as_bytes()).unwrap();
    }
    // A single read may deliver several back-to-back responses, so the
    // reads share one connection buffer.
    let mut inbound = Vec::new();
    for algorithm in Algorithm::ALL {
        let response = read_response_pipelined(&mut stream, &mut inbound, &client_limits())
            .unwrap_or_else(|e| panic!("{}: {e:?}", algorithm.name()));
        assert_eq!(response.status, 200, "{}: {}", algorithm.name(), response.body_text());
        let parsed = Json::parse(&response.body_text()).unwrap();
        assert_eq!(parsed.get("algorithm").unwrap().as_str(), Some(algorithm.name()));
        let served = parsed.get("estimates").unwrap().as_array().unwrap()[0].as_f64().unwrap();
        let expected = cst.estimate(&twig, algorithm, CountKind::Occurrence);
        assert_eq!(served.to_bits(), expected.to_bits(), "{}", algorithm.name());
    }

    // The server counted the burst's follow-on requests as pipelined
    // only if they were genuinely batched in one buffer pass; the
    // counter existing (and the connection surviving) is the contract.
    let text = get(&server.addr, "/metrics").body_text();
    assert!(text.contains("twig_serve_pipelined_requests_total"), "{text}");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_burst_past_the_receive_cap_is_fully_served() {
    // The burst is several times the reactor's receive-buffer cap
    // (16 KiB head + 1 KiB body + a 16 KiB read chunk), so the reactor
    // must stop reading mid-burst and later resume on its own: the
    // bytes it left in the kernel raise no new edge-triggered event.
    const REQUESTS: usize = 5000;
    let dir = temp_dir("pipeline-cap");
    let (registry, _cst) = default_registry(&dir);
    let config = ServerConfig { workers: 1, max_body_bytes: 1024, ..ServerConfig::default() };
    let server = TestServer::start(config, registry);

    let stream = TcpStream::connect(&server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let burst = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n".repeat(REQUESTS);
    let sender = std::thread::spawn(move || {
        use std::io::Write as _;
        writer.write_all(&burst)
    });

    let mut reader = stream;
    let mut inbound = Vec::new();
    for index in 0..REQUESTS {
        let response = read_response_pipelined(&mut reader, &mut inbound, &client_limits())
            .unwrap_or_else(|e| panic!("response {index}: {e:?}"));
        assert_eq!(response.status, 200, "response {index}: {}", response.body_text());
    }
    sender.join().unwrap().unwrap();

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn over_limit_head_with_owed_body_gets_431_and_spares_the_reactor() {
    let dir = temp_dir("pipeline-cap-stuck");
    let (registry, _cst) = default_registry(&dir);
    let config = ServerConfig {
        workers: 1,
        max_body_bytes: 1024,
        read_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server = TestServer::start(config, registry);

    // A head over the 16 KiB limit, terminated, with its declared body
    // still owed: head and body together outgrow the receive-buffer
    // cap, so the head limit must fire however the bytes arrive.
    let mut stuck = TcpStream::connect(&server.addr).unwrap();
    let mut wire = b"POST /estimate HTTP/1.1\r\ncontent-length: 1024\r\nx-pad: ".to_vec();
    wire.resize(33_000, b'a');
    wire.extend_from_slice(b"\r\n\r\n");
    wire.resize(wire.len() + 900, b' ');
    {
        use std::io::Write as _;
        stuck.write_all(&wire).unwrap();
    }

    // The single reactor keeps serving other connections...
    assert_eq!(get(&server.addr, "/healthz").status, 200);
    // ...and the oversized request gets a typed 431.
    let response = read_response(&mut stuck, &client_limits()).unwrap();
    assert_eq!(response.status, 431, "{}", response.body_text());

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_body_is_rejected() {
    let dir = temp_dir("oversize");
    let (registry, _cst) = default_registry(&dir);
    let config = ServerConfig { max_body_bytes: 1024, ..ServerConfig::default() };
    let server = TestServer::start(config, registry);

    let huge = format!(r#"{{"query":"{}"}}"#, "x".repeat(4096));
    let response = post_json(&server.addr, "/estimate", &huge);
    assert_eq!(response.status, 413, "{}", response.body_text());
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("error").unwrap().get("kind").unwrap().as_str(), Some("body_too_large"));

    // A small request still works: the limit is per-request, not fatal.
    let response = post_json(&server.addr, "/estimate", r#"{"query":"book(author(\"AAA\"))"}"#);
    assert_eq!(response.status, 200, "{}", response.body_text());

    // Batch cap separately from byte cap.
    let many: Vec<String> = (0..9).map(|_| r#""a(b)""#.to_owned()).collect();
    let config_small_batch = ServerConfig { max_batch: 8, ..ServerConfig::default() };
    let (registry2, _) = default_registry(&dir);
    let server2 = TestServer::start(config_small_batch, registry2);
    let body = format!(r#"{{"queries":[{}]}}"#, many.join(","));
    let response = post_json(&server2.addr, "/estimate", &body);
    assert_eq!(response.status, 413, "{}", response.body_text());
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("error").unwrap().get("kind").unwrap().as_str(), Some("batch_too_large"));

    server.stop();
    server2.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A query that nests 40,000 levels (120 KB, under the body limit) once
/// overflowed the reactor's stack and aborted the server, and a twig of
/// 16,000 nodes could hold a reactor for seconds. Both are now
/// `bad_query` errors that name the parse limit, and the server answers
/// the next request.
#[test]
fn oversized_twigs_are_bad_queries_and_the_server_survives() {
    let dir = temp_dir("twig-limits");
    let (registry, _cst) = default_registry(&dir);
    let server = TestServer::start(ServerConfig::default(), registry);
    let deep = "a(".repeat(40_000) + "b" + &")".repeat(40_000);
    let wide = format!("a({})", vec!["b"; 16_000].join(","));
    for (query, limit) in [(deep, "deeper than 64 levels"), (wide, "more than 128 nodes")] {
        let body = format!(r#"{{"query":"{query}","algorithm":"msh"}}"#);
        let response = post_json(&server.addr, "/estimate", &body);
        let head: String = response.body_text().chars().take(200).collect();
        assert_eq!(response.status, 400, "{head}");
        let parsed = Json::parse(&response.body_text()).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("bad_query"));
        assert!(error.get("message").unwrap().as_str().unwrap().contains(limit));
        let response = post_json(&server.addr, "/estimate", r#"{"query":"book(author(\"AAA\"))"}"#);
        assert_eq!(response.status, 200, "{}", response.body_text());
    }
    assert_eq!(get(&server.addr, "/healthz").status, 200);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturation_yields_503_with_retry_after() {
    let dir = temp_dir("saturation");
    let (registry, _cst) = default_registry(&dir);
    // One worker, one queue slot: the third connection must be bounced.
    let config = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
    let server = TestServer::start(config, registry);
    let addr = &server.addr;

    // Connection A: prove the single worker owns it by completing a
    // request; the worker then sits in A's keep-alive read loop.
    let mut conn_a = TcpStream::connect(addr).unwrap();
    write_request(&mut conn_a, "GET", "/healthz", b"").unwrap();
    assert_eq!(read_response(&mut conn_a, &client_limits()).unwrap().status, 200);

    // Connection B: admitted into the queue (never served while A holds
    // the worker).
    let conn_b = TcpStream::connect(addr).unwrap();
    // Give the accept loop time to move B into the queue.
    std::thread::sleep(Duration::from_millis(500));

    // Connection C: queue full -> inline 503 from the accept thread.
    let mut conn_c = TcpStream::connect(addr).unwrap();
    let response = read_response(&mut conn_c, &client_limits()).unwrap();
    assert_eq!(response.status, 503, "{}", response.body_text());
    assert_eq!(response.header("retry-after"), Some("1"));
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("error").unwrap().get("kind").unwrap().as_str(), Some("saturated"));

    // The rejection is visible in metrics (read through the handle to
    // avoid needing a free worker).
    assert_eq!(server.handle.state().metrics().rejected_saturated.get(), 1);

    drop(conn_a);
    drop(conn_b);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_swaps_and_is_failsafe() {
    let dir = temp_dir("reload");
    let path = dir.join("main.flt");
    write_summary_file(&path, XML);
    let registry = SummaryRegistry::new();
    registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;

    let estimate = |addr: &str| -> f64 {
        let response = post_json(
            addr,
            "/estimate",
            r#"{"summary":"main","query":"book(author(\"AAA\"))","algorithm":"leaf"}"#,
        );
        assert_eq!(response.status, 200, "{}", response.body_text());
        Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().as_array().unwrap()[0]
            .as_f64()
            .unwrap()
    };

    let before = estimate(addr);

    // Swap the backing file for a doc with more matching books.
    let bigger = XML.replace(
        "</dblp>",
        "<book><author>AAA</author><title>T9</title></book>\
         <book><author>AAA</author><title>T10</title></book></dblp>",
    );
    let replacement = write_summary_file(&path, &bigger);
    let response = post_json(addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(true));

    let after = estimate(addr);
    assert_ne!(before.to_bits(), after.to_bits(), "reload must change the estimate");
    let expected = replacement.estimate(
        &Twig::parse(r#"book(author("AAA"))"#).unwrap(),
        Algorithm::Leaf,
        CountKind::Occurrence,
    );
    assert_eq!(after.to_bits(), expected.to_bits());

    // Corrupt the file: reload reports the failure, old summary serves.
    replace_file(&path, &[0x67u8; 64]);
    let response = post_json(addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(false));
    let entry = &parsed.get("reloaded").unwrap().as_array().unwrap()[0];
    assert_eq!(entry.get("ok").unwrap(), &Json::Bool(false));
    let error_text = entry.get("error").unwrap().as_str().unwrap();
    assert!(error_text.contains("cannot load summary 'main'"), "{error_text}");

    let still = estimate(addr);
    assert_eq!(still.to_bits(), after.to_bits(), "failed reload must keep serving");

    // Generation only bumped by the successful reload.
    let response = get(addr, "/summaries");
    let parsed = Json::parse(&response.body_text()).unwrap();
    let list = parsed.get("summaries").unwrap().as_array().unwrap();
    assert_eq!(list[0].get("generation").unwrap().as_f64(), Some(2.0));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_smoke_hits_the_server() {
    let dir = temp_dir("loadgen");
    let (registry, _cst) = default_registry(&dir);
    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = server.addr.clone();

    // smoke() drives 2 connections for ~1.5s, asserts zero failures, and
    // shuts the server down itself.
    let report = loadgen::smoke(&addr, "default").unwrap();
    assert!(report.requests > 0);
    assert_eq!(report.estimates, report.requests * 8);
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
    assert!(report.requests_per_sec > 0.0);

    // The server was shut down by the smoke run.
    let thread_done = Instant::now() + Duration::from_secs(10);
    let state = server.handle.clone();
    while !state.is_shutting_down() && Instant::now() < thread_done {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(state.is_shutting_down());
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_estimates_during_reloads_never_mix_summaries() {
    let dir = temp_dir("concurrent");
    let path = dir.join("main.flt");
    write_summary_file(&path, XML);
    let registry = SummaryRegistry::new();
    registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    let config = ServerConfig { workers: 4, queue_capacity: 64, ..ServerConfig::default() };
    let server = TestServer::start(config, registry);
    let addr = server.addr.clone();

    const BATCH: &str = r#"{"summary":"main","queries":["book(author(\"AAA\"))","book(author(\"AAA\"),year(\"1999\"))","article(year(\"2003\"))"],"algorithm":"msh"}"#;
    let estimates_token = |addr: &str| -> String {
        let response = post_json(addr, "/estimate", BATCH);
        assert_eq!(response.status, 200, "{}", response.body_text());
        Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().render()
    };

    // Two summary variants whose estimates for the batch differ; the
    // rendered estimates array is a shortest-round-trip encoding, so
    // comparing tokens is bit-exact value comparison.
    let token_a = estimates_token(&addr);
    let variant_b = XML.replace(
        "</dblp>",
        "<book><author>AAA</author><year>1999</year><title>T9</title></book></dblp>",
    );
    write_summary_file(&path, &variant_b);
    let response = post_json(&addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let token_b = estimates_token(&addr);
    assert_ne!(token_a, token_b, "variants must be distinguishable");

    // Hammer /estimate from four client threads while the main thread
    // flips the backing file and reloads. Every successful response must
    // be exactly variant A or exactly variant B — never a mix of the
    // two — and the generation seen by one client never goes backwards.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let stop = std::sync::Arc::clone(&stop);
            let (token_a, token_b) = (token_a.clone(), token_b.clone());
            std::thread::spawn(move || {
                let mut checked = 0u64;
                let mut last_generation = 0.0f64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let response = post_json(&addr, "/estimate", BATCH);
                    if response.status == 503 {
                        continue; // transient saturation is acceptable here
                    }
                    assert_eq!(response.status, 200, "{}", response.body_text());
                    let body = Json::parse(&response.body_text()).unwrap();
                    let token = body.get("estimates").unwrap().render();
                    assert!(
                        token == token_a || token == token_b,
                        "mixed-summary response: {token}"
                    );
                    let generation = body.get("generation").unwrap().as_f64().unwrap();
                    assert!(generation >= last_generation, "generation went backwards");
                    last_generation = generation;
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    for round in 0..10 {
        if round % 2 == 0 {
            write_summary_file(&path, XML);
        } else {
            write_summary_file(&path, &variant_b);
        }
        let response = post_json(&addr, "/admin/reload", "");
        assert_eq!(response.status, 200);
        let parsed = Json::parse(&response.body_text()).unwrap();
        assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(true));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total = 0;
    for client in clients {
        total += client.join().unwrap();
    }
    assert!(total > 0, "clients must have exercised the server");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_reload_enters_degraded_mode_and_recovers() {
    let dir = temp_dir("degraded");
    let path = dir.join("main.flt");
    write_summary_file(&path, XML);
    let registry = SummaryRegistry::new();
    registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;
    const BODY: &str = r#"{"summary":"main","query":"book(author(\"AAA\"))","algorithm":"leaf"}"#;

    // Healthy: no stale header, gauge at zero.
    let response = post_json(addr, "/estimate", BODY);
    assert_eq!(response.status, 200, "{}", response.body_text());
    assert_eq!(response.header("x-twig-stale-generation"), None);
    let baseline = Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().render();
    let text = get(addr, "/metrics").body_text();
    assert!(text.contains("twig_serve_degraded 0\n"), "{text}");

    // Corrupt the backing file: the failed reload keeps serving the old
    // generation but flips the entry into degraded mode.
    replace_file(&path, b"not a summary");
    let response = post_json(addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(false));

    let response = post_json(addr, "/estimate", BODY);
    assert_eq!(response.status, 200, "{}", response.body_text());
    assert_eq!(response.header("x-twig-stale-generation"), Some("1"));
    let served = Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().render();
    assert_eq!(served, baseline, "degraded mode must keep the last good estimates");

    let health = Json::parse(&get(addr, "/healthz").body_text()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("degraded"));
    assert_eq!(health.get("degraded").unwrap().as_f64(), Some(1.0));
    let entries = health.get("summary_health").unwrap().as_array().unwrap();
    assert_eq!(entries[0].get("name").unwrap().as_str(), Some("main"));
    assert_eq!(entries[0].get("stale").unwrap(), &Json::Bool(true));
    let last_error = entries[0].get("last_error").unwrap().as_str().unwrap();
    assert!(last_error.contains("cannot load summary 'main'"), "{last_error}");
    let text = get(addr, "/metrics").body_text();
    assert!(text.contains("twig_serve_degraded 1\n"), "{text}");

    // Repairing the file and reloading clears degraded mode.
    write_summary_file(&path, XML);
    let response = post_json(addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(true));
    let response = post_json(addr, "/estimate", BODY);
    assert_eq!(response.header("x-twig-stale-generation"), None);
    assert_eq!(
        Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().render(),
        baseline,
        "the repaired file holds the same summary"
    );
    let health = Json::parse(&get(addr, "/healthz").body_text()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_store_recovers_after_source_corruption() {
    let dir = temp_dir("snapshot-recover");
    let path = dir.join("main.flt");
    let state = dir.join("state");
    let original = write_summary_file(&path, XML);

    // First boot: loading with an attached store commits generation 1.
    {
        let registry = SummaryRegistry::new();
        assert!(registry.attach_store(SnapshotStore::open(&state).unwrap()));
        registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
        assert_eq!(registry.snapshot_store().unwrap().committed_generation("main"), Some(1));
    }

    // Simulated crash: the source file is torn; only the snapshot
    // survives. Startup recovery serves it, marked stale.
    replace_file(&path, &[0u8; 16]);
    let registry = SummaryRegistry::new();
    assert!(registry.attach_store(SnapshotStore::open(&state).unwrap()));
    let outcome =
        registry.load_or_recover(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    let LoadOutcome::Recovered { generation, error } = outcome else {
        panic!("expected recovery, got {outcome:?}");
    };
    assert_eq!(generation, 1);
    assert!(error.contains("cannot load summary 'main'"), "{error}");
    assert_eq!(registry.degraded(), 1);

    // The recovered snapshot serves bit-identical estimates under the
    // stale header.
    let server = TestServer::start(ServerConfig::default(), registry);
    let response = post_json(
        &server.addr,
        "/estimate",
        r#"{"summary":"main","query":"book(author(\"AAA\"))","algorithm":"leaf"}"#,
    );
    assert_eq!(response.status, 200, "{}", response.body_text());
    assert_eq!(response.header("x-twig-stale-generation"), Some("1"));
    let served =
        Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().as_array().unwrap()
            [0]
        .as_f64()
        .unwrap();
    let expected = original.estimate(
        &Twig::parse(r#"book(author("AAA"))"#).unwrap(),
        Algorithm::Leaf,
        CountKind::Occurrence,
    );
    assert_eq!(served.to_bits(), expected.to_bits());

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_cache_hits_repeated_twigs_and_reload_invalidates() {
    let dir = temp_dir("plancache");
    let path = dir.join("main.flt");
    let original = write_summary_file(&path, XML);
    let registry = SummaryRegistry::new();
    registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;

    let counter = |name: &str| -> u64 {
        let text = get(addr, "/metrics").body_text();
        text.lines()
            .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
            .and_then(|value| value.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name} in:\n{text}"))
    };
    let estimate = || -> f64 {
        let response = post_json(
            addr,
            "/estimate",
            r#"{"summary":"main","query":"book(author(\"AAA\"),year(\"1999\"))","algorithm":"msh"}"#,
        );
        assert_eq!(response.status, 200, "{}", response.body_text());
        Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().as_array().unwrap()[0]
            .as_f64()
            .unwrap()
    };
    let twig = Twig::parse(r#"book(author("AAA"),year("1999"))"#).unwrap();

    // Cold twig: one miss; repeat: one hit, bit-identical, and still in
    // parity with the offline plan-free API.
    let cold = estimate();
    assert_eq!(counter("twig_serve_plan_cache_misses_total"), 1);
    assert_eq!(counter("twig_serve_plan_cache_hits_total"), 0);
    let warm = estimate();
    assert_eq!(counter("twig_serve_plan_cache_hits_total"), 1);
    assert_eq!(counter("twig_serve_plan_cache_misses_total"), 1);
    assert_eq!(cold.to_bits(), warm.to_bits());
    let expected = original.estimate(&twig, Algorithm::Msh, CountKind::Occurrence);
    assert_eq!(cold.to_bits(), expected.to_bits(), "cached plan must not change the estimate");

    // Reload a changed file: the generation bump keys the twig to a
    // fresh plan (a miss), and the estimate tracks the new summary.
    let bigger = XML.replace(
        "</dblp>",
        "<book><author>AAA</author><year>1999</year><title>T9</title></book></dblp>",
    );
    let replacement = write_summary_file(&path, &bigger);
    let response = post_json(addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let after = estimate();
    assert_eq!(counter("twig_serve_plan_cache_misses_total"), 2, "reload must invalidate");
    assert_eq!(counter("twig_serve_plan_cache_hits_total"), 1);
    let expected = replacement.estimate(&twig, Algorithm::Msh, CountKind::Occurrence);
    assert_eq!(after.to_bits(), expected.to_bits());
    assert_ne!(after.to_bits(), cold.to_bits(), "the swapped summary changes the estimate");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
