//! End-to-end tests for serving flat (`TWIGFLT1`) summaries: the
//! registry mmaps them zero-copy, reload is a map-swap, owned
//! (`TWIGCST`) files and snapshot payloads are refused, snapshots
//! persist the raw flat container, and quarantined torn snapshots are
//! surfaced in `/healthz` and `/metrics`.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SpaceBudget};
use twig_flat::writer as flat_writer;
use twig_serve::http::{read_response, write_request, ClientResponse, Limits};
use twig_serve::json::Json;
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
        "twig-flat-host-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a CST from `xml` and writes it to `path` as a flat container.
fn write_flat_file(path: &Path, xml: &str) -> Cst {
    let cst = build_cst(xml);
    flat_writer::write_file(&cst, path).unwrap();
    cst
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

#[test]
fn flat_summary_serves_with_owned_parity() {
    let dir = temp_dir("parity");
    let path = dir.join("main.flt");
    let cst = write_flat_file(&path, XML);
    let registry = SummaryRegistry::new();
    registry.load(SummarySpec { name: "default".into(), path }).unwrap();
    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;

    // The registry reports the zero-copy backing in /summaries and
    // /healthz.
    let body = Json::parse(&get(addr, "/summaries").body_text()).unwrap();
    let list = body.get("summaries").unwrap().as_array().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("name").unwrap().as_str(), Some("default"));
    assert_eq!(list[0].get("format").unwrap().as_str(), Some("flat+mmap"));
    let nodes = list[0].get("nodes").unwrap().as_f64().unwrap();
    assert!(nodes > 0.0);

    let health = Json::parse(&get(addr, "/healthz").body_text()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let entries = health.get("summary_health").unwrap().as_array().unwrap();
    assert_eq!(entries[0].get("format").unwrap().as_str(), Some("flat+mmap"));

    // Every algorithm x count kind: estimates served off the mapped flat
    // summary are bit-identical to the owned in-process estimator.
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
                let served =
                    parsed.get("estimates").unwrap().as_array().unwrap()[0].as_f64().unwrap();
                let expected = cst.estimate(&Twig::parse(query_text).unwrap(), algorithm, kind);
                assert_eq!(
                    served.to_bits(),
                    expected.to_bits(),
                    "{} {} {kind_name}: flat-served {served} != owned {expected}",
                    query_text,
                    algorithm.name(),
                );
            }
        }
    }

    // Repeating a query exercises the plan cache against the flat trie.
    let body = r#"{"query":"book(author(\"AAA\"),year(\"1999\"))","algorithm":"msh"}"#;
    let cold = post_json(addr, "/estimate", body);
    let warm = post_json(addr, "/estimate", body);
    assert_eq!(cold.body_text(), warm.body_text(), "plan cache must not change flat estimates");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flat_reload_is_a_map_swap_and_failsafe() {
    let dir = temp_dir("map-swap");
    let path = dir.join("main.flt");
    write_flat_file(&path, XML);
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

    // Swap in a new flat container: reload mmaps the new file and
    // exchanges the Arc — the old mapping drains with in-flight requests.
    let bigger = XML.replace(
        "</dblp>",
        "<book><author>AAA</author><title>T9</title></book>\
         <book><author>AAA</author><title>T10</title></book></dblp>",
    );
    let replacement = write_flat_file(&path, &bigger);
    let response = post_json(addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(true));

    let after = estimate(addr);
    assert_ne!(before.to_bits(), after.to_bits(), "reload must swap the mapping");
    let expected = replacement.estimate(
        &Twig::parse(r#"book(author("AAA"))"#).unwrap(),
        Algorithm::Leaf,
        CountKind::Occurrence,
    );
    assert_eq!(after.to_bits(), expected.to_bits());

    let body = Json::parse(&get(addr, "/summaries").body_text()).unwrap();
    let list = body.get("summaries").unwrap().as_array().unwrap();
    assert_eq!(list[0].get("generation").unwrap().as_f64(), Some(2.0));
    assert_eq!(list[0].get("format").unwrap().as_str(), Some("flat+mmap"));

    // A corrupt flat file fails the reload; the old mapping keeps
    // serving (degraded mode, stale header). Corrupt via rename — the
    // mmap contract is that live files are replaced atomically, never
    // truncated in place (truncating a mapped inode would SIGBUS
    // readers of the old generation).
    let corrupt = dir.join("corrupt.tmp");
    std::fs::write(&corrupt, [0x41u8; 128]).unwrap();
    std::fs::rename(&corrupt, &path).unwrap();
    let response = post_json(addr, "/admin/reload", "");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(false));
    let still = estimate(addr);
    assert_eq!(still.to_bits(), after.to_bits(), "failed reload must keep the old mapping");
    let health = Json::parse(&get(addr, "/healthz").body_text()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("degraded"));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn owned_summaries_are_refused_at_load_and_reload() {
    let dir = temp_dir("owned");
    let owned_path = dir.join("owned.cst");
    let flat_path = dir.join("main.flt");
    let cst = write_flat_file(&flat_path, XML);
    let mut bytes = Vec::new();
    cst.write_to(&mut bytes).unwrap();
    std::fs::write(&owned_path, &bytes).unwrap();

    // An owned file never enters the registry: the load error chains to
    // the flat validator's bad-magic verdict.
    let registry = SummaryRegistry::new();
    let err =
        registry.load(SummarySpec { name: "owned".into(), path: owned_path.clone() }).unwrap_err();
    let chain = twig_serve::error_chain(&err);
    assert!(chain.contains("cannot load summary 'owned'"), "{chain}");
    assert!(chain.contains("not a TWIGFLT1 flat summary"), "{chain}");
    assert!(registry.is_empty());

    // The same owned file renamed over a live flat entry fails the
    // reload, and the old generation keeps serving the same bits.
    registry.load(SummarySpec { name: "main".into(), path: flat_path.clone() }).unwrap();
    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;
    const BODY: &str =
        r#"{"summary":"main","query":"book(author(\"AAA\"),year(\"1999\"))","algorithm":"mosh"}"#;
    let response = post_json(addr, "/estimate", BODY);
    assert_eq!(response.status, 200, "{}", response.body_text());
    assert_eq!(response.header("x-twig-stale-generation"), None);
    let before = Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().render();

    std::fs::rename(&owned_path, &flat_path).unwrap();
    let parsed = Json::parse(&post_json(addr, "/admin/reload", "").body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(false));
    let entry = &parsed.get("reloaded").unwrap().as_array().unwrap()[0];
    let error_text = entry.get("error").unwrap().as_str().unwrap();
    assert!(error_text.contains("not a TWIGFLT1 flat summary"), "{error_text}");

    let response = post_json(addr, "/estimate", BODY);
    assert_eq!(response.status, 200, "{}", response.body_text());
    assert_eq!(response.header("x-twig-stale-generation"), Some("1"));
    let after = Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().render();
    assert_eq!(after, before, "the old generation must keep serving");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flat_snapshot_persists_and_recovers() {
    let dir = temp_dir("flat-snapshot");
    let path = dir.join("main.flt");
    let state = dir.join("state");
    let original = write_flat_file(&path, XML);

    // First boot with a store: the raw flat container is persisted as
    // generation 1 without re-packing.
    {
        let registry = SummaryRegistry::new();
        assert!(registry.attach_store(SnapshotStore::open(&state).unwrap()));
        registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
        assert_eq!(registry.snapshot_store().unwrap().committed_generation("main"), Some(1));
        // The snapshot payload is the flat container byte-for-byte.
        let framed = std::fs::read(state.join("main.gen-1.cst")).unwrap();
        let payload = twig_serve::snapshot::unframe(framed).expect("complete snapshot");
        assert_eq!(payload, std::fs::read(&path).unwrap());
    }

    // Crash: the source file is torn; recovery serves the snapshot from
    // heap bytes (no file left to map), marked stale.
    std::fs::write(&path, [0u8; 16]).unwrap();
    let registry = SummaryRegistry::new();
    assert!(registry.attach_store(SnapshotStore::open(&state).unwrap()));
    let outcome =
        registry.load_or_recover(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    let LoadOutcome::Recovered { generation, error } = outcome else {
        panic!("expected recovery, got {outcome:?}");
    };
    assert_eq!(generation, 1);
    assert!(error.contains("cannot load summary 'main'"), "{error}");

    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;
    let body = Json::parse(&get(addr, "/summaries").body_text()).unwrap();
    let list = body.get("summaries").unwrap().as_array().unwrap();
    assert_eq!(list[0].get("format").unwrap().as_str(), Some("flat+heap"));

    let response = post_json(
        addr,
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
fn owned_snapshot_payload_is_never_served() {
    let dir = temp_dir("owned-snapshot");
    let path = dir.join("main.flt");
    let state = dir.join("state");

    // A store written before the server hosted only flat summaries: its
    // committed generation is an owned (`TWIGCST`) payload.
    let mut owned = Vec::new();
    build_cst(XML).write_to(&mut owned).unwrap();
    SnapshotStore::open(&state).unwrap().persist("main", 1, &owned).unwrap();

    // The spec file is missing, and the owned payload is no stand-in:
    // recovery reports the spec-file failure and serves nothing.
    let registry = SummaryRegistry::new();
    assert!(registry.attach_store(SnapshotStore::open(&state).unwrap()));
    let err = registry
        .load_or_recover(SummarySpec { name: "main".into(), path: path.clone() })
        .unwrap_err();
    assert_eq!(err.path, path);
    let chain = twig_serve::error_chain(&err);
    assert!(chain.contains("cannot load summary 'main'"), "{chain}");
    assert!(chain.contains("flat summary I/O"), "{chain}");
    assert!(registry.is_empty(), "an owned payload must never serve");
    assert_eq!(registry.degraded(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_snapshots_surface_in_healthz_and_metrics() {
    let dir = temp_dir("quarantine");
    let path = dir.join("main.flt");
    let state = dir.join("state");
    write_flat_file(&path, XML);

    // Commit generation 1, then tear the committed snapshot file AND the
    // source: the next boot quarantines the torn snapshot and has
    // nothing left to serve for this summary — but the torn evidence
    // must be visible to operators.
    {
        let registry = SummaryRegistry::new();
        assert!(registry.attach_store(SnapshotStore::open(&state).unwrap()));
        registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    }
    let snapshot_file = state.join("main.gen-1.cst");
    let framed = std::fs::read(&snapshot_file).unwrap();
    std::fs::write(&snapshot_file, &framed[..framed.len() / 2]).unwrap();
    std::fs::write(&path, [0u8; 16]).unwrap();

    let registry = SummaryRegistry::new();
    assert!(registry.attach_store(SnapshotStore::open(&state).unwrap()));
    let outcome = registry.load_or_recover(SummarySpec { name: "main".into(), path });
    assert!(outcome.is_err(), "no good generation left: {outcome:?}");
    assert_eq!(registry.quarantined_snapshots().0, 1);

    let server = TestServer::start(ServerConfig::default(), registry);
    let addr = &server.addr;

    let health = Json::parse(&get(addr, "/healthz").body_text()).unwrap();
    assert_eq!(health.get("snapshot_quarantined").unwrap().as_f64(), Some(1.0));
    let newest = health.get("snapshot_quarantined_newest").unwrap().as_str().unwrap();
    assert!(newest.starts_with("main.gen-1.cst"), "{newest}");
    assert!(newest.ends_with(".quarantined"), "{newest}");

    let text = get(addr, "/metrics").body_text();
    assert!(text.contains("twig_serve_snapshot_quarantined_total 1\n"), "{text}");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
