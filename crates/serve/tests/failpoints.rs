//! Fault-injection tests for the registry: deterministic failpoint
//! schedules force reload failures while concurrent clients hammer
//! `/estimate`, proving the server keeps serving the last good
//! generation (satellite of the chaos harness, runnable under plain
//! `cargo test -p twig-serve --features failpoints`).
//!
//! This lives in its own test binary — and so its own process — because
//! the failpoint table is process-global: a schedule configured here
//! must never bleed into the main `server.rs` suite.

#![cfg(feature = "failpoints")]

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use twig_core::{Cst, CstConfig, SpaceBudget};
use twig_serve::http::{read_response, write_request, ClientResponse, Limits};
use twig_serve::json::Json;
use twig_serve::{Server, ServerConfig, ServerHandle, SummaryRegistry, SummarySpec};
use twig_tree::DataTree;
use twig_util::failpoint;

const XML: &str = "<dblp>\
    <book><author>AAA</author><author>BBB</author><title>T1</title><year>1999</year></book>\
    <book><author>AAA</author><title>T2</title><year>2001</year></book>\
    <article><author>DDD</author><journal>J1</journal><year>2003</year></article>\
</dblp>";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "twig-serve-failpoint-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_summary_file(path: &Path, xml: &str) {
    let tree = DataTree::from_xml(xml).unwrap();
    let cst =
        Cst::build(&tree, &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() })
            .unwrap();
    twig_flat::writer::write_file(&cst, path).unwrap();
}

fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> ClientResponse {
    let limits = Limits {
        max_head_bytes: 64 * 1024,
        max_body_bytes: 16 * 1024 * 1024,
        read_deadline: Duration::from_secs(10),
        idle_deadline: Duration::from_secs(10),
    };
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    write_request(&mut stream, method, path, body).unwrap();
    read_response(&mut stream, &limits).unwrap()
}

fn stop(handle: &ServerHandle, thread: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn forced_reload_failures_never_disturb_serving() {
    let dir = temp_dir("reload");
    let path = dir.join("main.flt");
    write_summary_file(&path, XML);
    let registry = SummaryRegistry::new();
    registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
    let config = ServerConfig { workers: 4, queue_capacity: 64, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config, registry).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    const BODY: &str = r#"{"summary":"main","query":"book(author(\"AAA\"))","algorithm":"msh"}"#;
    let baseline = {
        let response = request(&addr, "POST", "/estimate", BODY.as_bytes());
        assert_eq!(response.status, 200, "{}", response.body_text());
        Json::parse(&response.body_text()).unwrap().get("estimates").unwrap().render()
    };

    // Clients hammer /estimate throughout the failure window; every
    // answer must match the last good summary bit for bit (the backing
    // file never changes, only reloads of it are made to fail).
    let halt = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let halt = Arc::clone(&halt);
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                while !halt.load(Ordering::Relaxed) {
                    let response = request(&addr, "POST", "/estimate", BODY.as_bytes());
                    if response.status == 503 {
                        continue;
                    }
                    assert_eq!(response.status, 200, "{}", response.body_text());
                    let token = Json::parse(&response.body_text())
                        .unwrap()
                        .get("estimates")
                        .unwrap()
                        .render();
                    assert_eq!(token, baseline, "estimate changed during forced failures");
                }
            })
        })
        .collect();

    // Every reload fails while the schedule is live; each failure flips
    // degraded mode without touching the serving generation, so the
    // stale header always names generation 1.
    failpoint::configure("registry.load=error", 0xF00D).unwrap();
    for _ in 0..8 {
        let response = request(&addr, "POST", "/admin/reload", b"");
        assert_eq!(response.status, 200);
        let parsed = Json::parse(&response.body_text()).unwrap();
        assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(false));
        let response = request(&addr, "POST", "/estimate", BODY.as_bytes());
        assert_eq!(response.status, 200, "{}", response.body_text());
        assert_eq!(response.header("x-twig-stale-generation"), Some("1"));
    }
    assert_eq!(failpoint::trigger_count("registry.load"), 8);

    // Clearing the schedule heals on the next reload.
    failpoint::clear_all();
    let response = request(&addr, "POST", "/admin/reload", b"");
    assert_eq!(response.status, 200);
    let parsed = Json::parse(&response.body_text()).unwrap();
    assert_eq!(parsed.get("all_ok").unwrap(), &Json::Bool(true));

    halt.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().unwrap();
    }

    let response = request(&addr, "POST", "/estimate", BODY.as_bytes());
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-twig-stale-generation"), None);
    let health = Json::parse(&request(&addr, "GET", "/healthz", b"").body_text()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    stop(&handle, thread);
    std::fs::remove_dir_all(&dir).ok();
}
