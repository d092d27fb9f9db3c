//! The estimation server: routing, endpoint handlers, backpressure and
//! graceful shutdown, hosted on the reactor event loop.
//!
//! Threading model (documented in DESIGN.md §15): [`Server::run`] hands
//! its `SO_REUSEPORT` listener shard to `reactor::run`, which spawns one
//! epoll reactor per configured worker; each reactor owns a shard of the
//! same port and a slab of nonblocking connection state machines.
//! Admission control is per reactor: past its share of
//! `workers + queue_capacity` connections it writes a `503` with an
//! escalating `Retry-After` hint and closes — one small write, never a
//! queued latency pile-up. Shutdown stops admission, lets every
//! connection finish the request in flight (responses during drain carry
//! `Connection: close`), then joins all reactors. The reactor needs
//! Linux epoll; elsewhere [`Server::run`] returns
//! [`std::io::ErrorKind::Unsupported`].

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use twig_core::{Algorithm, CountKind};
use twig_tree::Twig;
use twig_util::cast::{count_to_f64, size_to_u64};
use twig_util::rng::SplitMix64;

use crate::http::{Limits, ReadOutcome, Request, Response};
use crate::json::{self, Items, Json, Tape};
use crate::metrics::ServeMetrics;
use crate::plan::{CachedPlan, PlanCache, PLAN_CACHE_CAPACITY};
use crate::registry::{error_chain, SummaryRegistry};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= maximum concurrently served connections).
    pub workers: usize,
    /// Connections allowed to wait for a worker before `503`.
    pub queue_capacity: usize,
    /// Maximum request body size, bytes.
    pub max_body_bytes: usize,
    /// Maximum queries per `/estimate` body.
    pub max_batch: usize,
    /// Per-request read deadline.
    pub read_deadline: Duration,
    /// Keep-alive idle deadline.
    pub idle_deadline: Duration,
    /// Progress-window width for busy connections: every window, a
    /// connection mid-request (or mid-response) must move at least
    /// [`ServerConfig::min_progress_bytes`] or it is killed as a
    /// slow-read/slow-write client (slowloris defense, reactor only).
    pub progress_window: Duration,
    /// Minimum bytes a busy connection must move per progress window.
    pub min_progress_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_capacity: 64,
            max_body_bytes: 1024 * 1024,
            max_batch: 4096,
            read_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(30),
            progress_window: Duration::from_secs(2),
            min_progress_bytes: 128,
        }
    }
}

/// State shared between the reactors and handles.
pub struct ServerState {
    pub(crate) config: ServerConfig,
    registry: SummaryRegistry,
    pub(crate) metrics: ServeMetrics,
    plans: PlanCache,
    pub(crate) shutdown: AtomicBool,
    started: Instant,
    /// One eventfd per reactor that managed to create one; signalled on
    /// shutdown so a reactor parked in `epoll_wait` wakes immediately
    /// instead of at its next poll-cap timeout.
    #[cfg(target_os = "linux")]
    wakers: std::sync::Mutex<Vec<std::os::fd::OwnedFd>>,
}

impl ServerState {
    /// The summary registry (e.g. to inspect from tests or the CLI).
    #[must_use]
    pub fn registry(&self) -> &SummaryRegistry {
        &self.registry
    }

    /// The server metrics.
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sets the shutdown flag and wakes every parked reactor. Safe to
    /// call repeatedly and from any thread (handles, routes, reactors
    /// reporting fatal errors).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        {
            // A poisoned lock only means some thread panicked while
            // registering; waking the survivors still matters.
            let wakers = match self.wakers.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            for waker in wakers.iter() {
                let _ = crate::reactor::sys::eventfd_signal(waker);
            }
        }
    }

    /// Registers a reactor's wakeup eventfd for shutdown signalling.
    #[cfg(target_os = "linux")]
    pub(crate) fn register_waker(&self, fd: std::os::fd::OwnedFd) {
        let mut wakers = match self.wakers.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        wakers.push(fd);
    }

    /// Bare state for reactor unit tests: no listener, no threads.
    #[cfg(all(test, target_os = "linux"))]
    pub(crate) fn test_state(config: ServerConfig) -> Arc<ServerState> {
        ServerState::test_state_with(config, SummaryRegistry::new())
    }

    /// Bare state serving `registry`, for handler unit tests.
    #[cfg(all(test, target_os = "linux"))]
    pub(crate) fn test_state_with(
        config: ServerConfig,
        registry: SummaryRegistry,
    ) -> Arc<ServerState> {
        Arc::new(ServerState {
            plans: PlanCache::new(config.workers.max(1), PLAN_CACHE_CAPACITY),
            config,
            registry,
            metrics: ServeMetrics::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            wakers: std::sync::Mutex::new(Vec::new()),
        })
    }
}

/// A cloneable handle that can stop a running server.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Requests shutdown: admission stops, parked reactors wake,
    /// in-flight work drains, [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down()
    }

    /// Shared state access (registry, metrics).
    #[must_use]
    pub fn state(&self) -> &ServerState {
        &self.state
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and wraps
    /// `registry` with `config`.
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        registry: SummaryRegistry,
    ) -> std::io::Result<Server> {
        // The first listener shard; `run` adds sibling `SO_REUSEPORT`
        // shards on the same resolved address, one per reactor.
        #[cfg(target_os = "linux")]
        let listener = crate::reactor::bind_shard(addr)?;
        #[cfg(not(target_os = "linux"))]
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            state: Arc::new(ServerState {
                plans: PlanCache::new(config.workers.max(1), PLAN_CACHE_CAPACITY),
                config,
                registry,
                metrics: ServeMetrics::new(),
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
                #[cfg(target_os = "linux")]
                wakers: std::sync::Mutex::new(Vec::new()),
            }),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for stopping the server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { state: Arc::clone(&self.state) }
    }

    /// Serves until shutdown is requested, then drains and returns.
    /// Fails with `Unsupported` on platforms without epoll.
    pub fn run(self) -> std::io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            crate::reactor::run(self.listener, self.state)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "twig-serve runs on Linux epoll reactors only",
            ))
        }
    }
}

/// `Retry-After` hint for a saturation rejection. The first rejections
/// of a streak hint an immediate retry; a sustained streak escalates
/// the hint with deterministic per-streak jitter so shed clients spread
/// out instead of thundering back in lockstep.
pub(crate) fn retry_after_secs(streak: u64) -> u64 {
    if streak <= 8 {
        return 1;
    }
    let base = (streak / 8).min(8);
    let mut rng = SplitMix64::new(streak);
    let jitter = rng.next_below(base + 1);
    (base + jitter).min(16)
}

/// The HTTP limits a server config implies.
pub(crate) fn limits_for(config: &ServerConfig) -> Limits {
    Limits {
        max_head_bytes: 16 * 1024,
        max_body_bytes: config.max_body_bytes,
        read_deadline: config.read_deadline,
        idle_deadline: config.idle_deadline,
    }
}

/// Writes the admission-control `503` from the accepting thread. A
/// short write timeout bounds how long a slow client can stall accepts.
pub(crate) fn reject_connection(mut stream: TcpStream, message: &str, retry_secs: u64) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let response = error_response(503, "saturated", message)
        .with_header("retry-after", retry_secs.to_string());
    let _ = response.write_to(&mut stream, true);
    let _ = stream.flush();
}

/// Buffers one reactor reuses from request to request, so a warm
/// `/estimate` hit allocates nothing: the body's JSON tape, the plan
/// key, the batch's resolved plans and estimates, and the response
/// body, which the write queue copies and hands back. A handler clears
/// each buffer before it uses it, so one whose request panicked leaves
/// nothing behind for the next.
#[derive(Default)]
pub(crate) struct HandlerScratch {
    json: Tape,
    key: String,
    resolved: Vec<Resolved>,
    plans: Vec<Arc<CachedPlan>>,
    estimates: Vec<f64>,
    body: Vec<u8>,
}

impl HandlerScratch {
    /// Takes back a response body the write queue has copied, keeping
    /// whichever buffer is larger for the next response.
    pub(crate) fn recycle(&mut self, body: Vec<u8>) {
        if body.capacity() > self.body.capacity() {
            self.body = body;
        }
    }
}

/// One query of a batch after its plan-cache lookup.
enum Resolved {
    /// The plan was cached.
    Cached(Arc<CachedPlan>),
    /// A freshly parsed twig, cached once the whole batch has parsed.
    Parsed(Twig),
}

/// How a dispatched request ended.
pub(crate) enum Dispatched {
    /// An injected dispatch fault consumed the request: the connection
    /// must drop with no response at all (what a dead worker looked
    /// like under the retired thread pool).
    Drop,
    /// The handler produced a response (possibly the panic `500`).
    Respond(Response),
}

/// Runs one parsed request through the `pool.dispatch` failpoint and
/// the router, with panic containment: a panicking handler costs the
/// client a `500`, never the serving thread. Status-class and latency
/// metrics are recorded here. Handlers reuse `scratch`'s buffers.
pub(crate) fn process_request(
    state: &Arc<ServerState>,
    request: &Request<'_>,
    scratch: &mut HandlerScratch,
) -> Dispatched {
    enum Step {
        Drop,
        Respond(Response),
    }
    let started = Instant::now();
    let routed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // The dispatch failpoint sits where the pool's job hand-off
        // used to be: before the request counts as routed.
        if twig_util::failpoint!("pool.dispatch").is_some() {
            return Step::Drop;
        }
        state.metrics.requests_total.inc();
        Step::Respond(route(request, state, scratch))
    }));
    match routed {
        Ok(Step::Drop) => Dispatched::Drop,
        Ok(Step::Respond(response)) => {
            state.metrics.count_status(response.status);
            state.metrics.request_latency_us.record(micros(started.elapsed()));
            Dispatched::Respond(response)
        }
        Err(payload) => {
            state.metrics.worker_panics_total.inc();
            if payload.is::<twig_util::failpoint::PointPanic>() {
                // An injected dispatch panic kills the connection the
                // way the old pool worker died: silently.
                Dispatched::Drop
            } else {
                let response = error_response(
                    500,
                    "internal_panic",
                    "request handler panicked; the worker recovered",
                );
                state.metrics.count_status(response.status);
                state.metrics.request_latency_us.record(micros(started.elapsed()));
                Dispatched::Respond(response)
            }
        }
    }
}

/// The error response (if any) owed for a failed request read; the
/// connection closes either way. Pure mapping — the caller counts the
/// status and writes the response on its own I/O path.
pub(crate) fn read_error_response(state: &ServerState, outcome: &ReadOutcome) -> Option<Response> {
    match outcome {
        // Nothing arrived (clean close / idle): closing silently is the
        // correct keep-alive protocol.
        ReadOutcome::Closed | ReadOutcome::IdleTimeout => None,
        ReadOutcome::Io(_) => None,
        ReadOutcome::Timeout => Some(error_response(408, "timeout", "request read timed out")),
        ReadOutcome::HeadTooLarge => {
            Some(error_response(431, "head_too_large", "request head too large"))
        }
        ReadOutcome::BodyTooLarge { declared } => Some(error_response(
            413,
            "body_too_large",
            &format!(
                "request body of {declared} bytes exceeds the {}-byte limit",
                state.config.max_body_bytes
            ),
        )),
        ReadOutcome::Malformed(what) => {
            Some(error_response(400, "malformed", &format!("malformed request: {what}")))
        }
    }
}

fn route(
    request: &Request<'_>,
    state: &Arc<ServerState>,
    scratch: &mut HandlerScratch,
) -> Response {
    match (request.method, request.path()) {
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/summaries") => handle_summaries(state),
        ("GET", "/metrics") => handle_metrics(state),
        ("POST", "/estimate") => handle_estimate(request, state, scratch),
        ("POST", "/admin/reload") => handle_reload(state),
        ("POST", "/admin/shutdown") => {
            state.request_shutdown();
            Response::json(200, &Json::Obj(vec![("status".into(), Json::str("shutting down"))]))
        }
        (
            _,
            "/healthz" | "/summaries" | "/metrics" | "/estimate" | "/admin/reload"
            | "/admin/shutdown",
        ) => error_response(
            405,
            "method_not_allowed",
            &format!("{} does not support {}", request.path(), request.method),
        ),
        (_, path) => error_response(404, "not_found", &format!("no such endpoint: {path}")),
    }
}

/// Registry-level gauges appended after the fixed counter set: how many
/// summaries are serving a stale (degraded) generation, and how many
/// snapshot persists have failed.
fn handle_metrics(state: &Arc<ServerState>) -> Response {
    let mut body = state.metrics.render_prometheus();
    body.push_str("# HELP twig_serve_degraded Summaries serving a stale generation\n");
    body.push_str("# TYPE twig_serve_degraded gauge\n");
    body.push_str(&format!("twig_serve_degraded {}\n", state.registry.degraded()));
    body.push_str("# HELP twig_serve_snapshot_failures_total Snapshot persists that failed\n");
    body.push_str("# TYPE twig_serve_snapshot_failures_total counter\n");
    body.push_str(&format!(
        "twig_serve_snapshot_failures_total {}\n",
        state.registry.snapshot_failure_count()
    ));
    let (quarantined, _) = state.registry.quarantined_snapshots();
    body.push_str(
        "# HELP twig_serve_snapshot_quarantined_total Torn snapshot files quarantined in the state dir\n",
    );
    body.push_str("# TYPE twig_serve_snapshot_quarantined_total counter\n");
    body.push_str(&format!("twig_serve_snapshot_quarantined_total {quarantined}\n"));
    Response::text(200, &body)
}

fn handle_healthz(state: &Arc<ServerState>) -> Response {
    let degraded = state.registry.degraded();
    let health = state
        .registry
        .infos()
        .into_iter()
        .map(|info| {
            let mut fields = vec![
                ("name".into(), Json::Str(info.name)),
                ("generation".into(), num_u64(info.generation)),
                ("format".into(), Json::str(info.format)),
                ("stale".into(), Json::Bool(info.stale)),
            ];
            if let Some(error) = info.last_error {
                fields.push(("last_error".into(), Json::Str(error)));
            }
            Json::Obj(fields)
        })
        .collect();
    let (quarantined, newest_quarantined) = state.registry.quarantined_snapshots();
    // Per-reactor liveness: heartbeat age against the stall threshold.
    // A wedged reactor thread flips overall status to "degraded" — the
    // most actionable health signal the server can self-report.
    let stall_after = crate::metrics::REACTOR_STALL_AFTER;
    let stalled = state.metrics.stalled_reactors(stall_after);
    let now_ms = state.metrics.now_ms();
    let reactors: Vec<Json> = state
        .metrics
        .reactor_stats()
        .iter()
        .enumerate()
        .map(|(index, stats)| {
            let age_ms = now_ms.saturating_sub(stats.heartbeat_ms());
            Json::Obj(vec![
                ("index".into(), num_usize(index)),
                ("connections".into(), num_u64(stats.connections())),
                ("heartbeat_age_ms".into(), num_u64(age_ms)),
                ("stalled".into(), Json::Bool(u128::from(age_ms) > stall_after.as_millis())),
            ])
        })
        .collect();
    let healthy = degraded == 0 && stalled == 0;
    let mut fields = vec![
        ("status".into(), Json::str(if healthy { "ok" } else { "degraded" })),
        ("uptime_secs".into(), num_u64(state.started.elapsed().as_secs())),
        ("summaries".into(), num_usize(state.registry.len())),
        ("degraded".into(), num_u64(degraded)),
        ("reactors_stalled".into(), num_u64(stalled)),
        // Torn snapshot files renamed aside by recovery: evidence of
        // past corruption an operator should collect and investigate.
        ("snapshot_quarantined".into(), num_u64(quarantined)),
    ];
    if let Some(newest) = newest_quarantined {
        fields.push(("snapshot_quarantined_newest".into(), Json::Str(newest)));
    }
    if !reactors.is_empty() {
        fields.push(("reactors".into(), Json::Arr(reactors)));
    }
    fields.push(("summary_health".into(), Json::Arr(health)));
    Response::json(200, &Json::Obj(fields))
}

fn handle_summaries(state: &Arc<ServerState>) -> Response {
    let summaries = state
        .registry
        .infos()
        .into_iter()
        .map(|info| {
            let mut fields = vec![
                ("name".into(), Json::Str(info.name)),
                ("path".into(), Json::Str(info.path.display().to_string())),
                ("generation".into(), num_u64(info.generation)),
                ("file_bytes".into(), num_usize(info.file_bytes)),
                ("nodes".into(), num_usize(info.nodes)),
                ("n".into(), num_u64(info.n)),
                ("threshold".into(), num_u64(u64::from(info.threshold))),
                ("signature_len".into(), num_usize(info.signature_len)),
                ("format".into(), Json::str(info.format)),
                ("stale".into(), Json::Bool(info.stale)),
            ];
            if let Some(error) = info.last_error {
                fields.push(("last_error".into(), Json::Str(error)));
            }
            Json::Obj(fields)
        })
        .collect();
    Response::json(200, &Json::Obj(vec![("summaries".into(), Json::Arr(summaries))]))
}

fn handle_reload(state: &Arc<ServerState>) -> Response {
    let results = state.registry.reload_all();
    // Generation-keyed plans could never hit again anyway; clearing
    // releases their memory promptly.
    state.plans.clear();
    let mut any_failed = false;
    let entries = results
        .into_iter()
        .map(|(name, result)| {
            let mut fields = vec![("name".into(), Json::Str(name))];
            match result {
                Ok(generation) => {
                    state.metrics.reloads_total.inc();
                    fields.push(("ok".into(), Json::Bool(true)));
                    fields.push(("generation".into(), num_u64(generation)));
                }
                Err(err) => {
                    state.metrics.reload_failures_total.inc();
                    any_failed = true;
                    fields.push(("ok".into(), Json::Bool(false)));
                    fields.push(("error".into(), Json::Str(error_chain(&err))));
                }
            }
            Json::Obj(fields)
        })
        .collect();
    // 200 even with failures: the reload *request* was served; per-entry
    // status is in the body and failed entries keep their old summary.
    Response::json(
        200,
        &Json::Obj(vec![
            ("reloaded".into(), Json::Arr(entries)),
            ("all_ok".into(), Json::Bool(!any_failed)),
        ]),
    )
}

fn handle_estimate(
    request: &Request<'_>,
    state: &Arc<ServerState>,
    scratch: &mut HandlerScratch,
) -> Response {
    let HandlerScratch { json, key, resolved, plans, estimates, body } = scratch;
    let Ok(text) = std::str::from_utf8(request.body) else {
        return error_response(400, "bad_request", "body is not UTF-8");
    };
    let root = match json.parse(text) {
        Ok(root) => root,
        Err(err) => return error_response(400, "bad_json", &err.to_string()),
    };

    let summary_name = match root.member("summary") {
        None => "default",
        Some(value) => match value.as_str() {
            Some(name) => name,
            None => return error_response(400, "bad_request", "'summary' must be a string"),
        },
    };
    let algorithm = match root.member("algorithm") {
        None => Algorithm::Msh,
        Some(value) => match value.as_str().and_then(parse_algorithm) {
            Some(algorithm) => algorithm,
            None => {
                return error_response(
                    400,
                    "bad_request",
                    &format!("unknown algorithm (expected one of {})", algorithm_names()),
                )
            }
        },
    };
    let kind = match root.member("count_kind") {
        None => CountKind::Occurrence,
        Some(value) => match value.as_str() {
            Some("occurrence") => CountKind::Occurrence,
            Some("presence") => CountKind::Presence,
            _ => {
                return error_response(
                    400,
                    "bad_request",
                    "'count_kind' must be \"presence\" or \"occurrence\"",
                )
            }
        },
    };

    let queries: Items<'_> = match (root.member("query"), root.member("queries")) {
        (Some(_), Some(_)) => {
            return error_response(400, "bad_request", "'query' and 'queries' are exclusive")
        }
        (Some(single), None) => match single.as_str() {
            Some(_) => Items::single(single),
            None => return error_response(400, "bad_request", "'query' must be a string"),
        },
        (None, Some(many)) => match many.items() {
            Some(items) => {
                // `Items` is `Copy`: the scan leaves `items` untouched.
                let mut scan = items;
                if let Some(index) = scan.position(|item| item.as_str().is_none()) {
                    return error_response(
                        400,
                        "bad_request",
                        &format!("'queries[{index}]' must be a string"),
                    );
                }
                items
            }
            None => return error_response(400, "bad_request", "'queries' must be an array"),
        },
        (None, None) => {
            return error_response(400, "bad_request", "body needs 'query' or 'queries'")
        }
    };
    if queries.len() == 0 {
        return error_response(400, "bad_request", "'queries' must not be empty");
    }
    if queries.len() > state.config.max_batch {
        return error_response(
            413,
            "batch_too_large",
            &format!(
                "batch of {} queries exceeds the limit of {}",
                queries.len(),
                state.config.max_batch
            ),
        );
    }

    let Some((cst, generation, stale)) = state.registry.get_for_serving(summary_name) else {
        return error_response(
            404,
            "unknown_summary",
            &format!(
                "no summary named '{summary_name}' (loaded: {})",
                state.registry.names().join(", ")
            ),
        );
    };

    // Resolve every query before estimating any, and cache nothing
    // until every query has parsed: a bad query at index i fails the
    // whole batch with no partial work. Each query is a shared cache
    // entry whose twig was parsed the first time this text was seen —
    // the plan cache is keyed by raw request text exactly so a hit
    // skips `Twig::parse` entirely. One key buffer serves the batch.
    let prefix = PlanCache::key_prefix(key, summary_name, generation);
    let (mut hits, mut misses) = (0u64, 0u64);
    resolved.clear();
    let mut failed = None;
    for (index, query) in queries.enumerate() {
        let text = query.as_str().unwrap_or_default();
        if let Some(cached) = state.plans.lookup(PlanCache::key(key, prefix, text)) {
            hits += 1;
            resolved.push(Resolved::Cached(cached));
            continue;
        }
        misses += 1;
        match Twig::parse(text) {
            Ok(query) => resolved.push(Resolved::Parsed(query)),
            Err(err) => {
                failed = Some(error_response(
                    400,
                    "bad_query",
                    &format!("queries[{index}] '{text}' does not parse: {err}"),
                ));
                break;
            }
        }
    }
    state.metrics.plan_cache_hits_total.add(hits);
    state.metrics.plan_cache_misses_total.add(misses);
    if let Some(response) = failed {
        resolved.clear();
        return response;
    }
    let mut evictions = 0u64;
    plans.clear();
    for (query, text) in resolved.drain(..).zip(queries) {
        let text = text.as_str().unwrap_or_default();
        plans.push(match query {
            Resolved::Cached(cached) => cached,
            Resolved::Parsed(twig) => {
                let (cached, evicted) = state.plans.insert(PlanCache::key(key, prefix, text), twig);
                evictions += u64::from(evicted);
                cached
            }
        });
    }
    state.metrics.plan_cache_evictions_total.add(evictions);

    // One clock pair times the whole batch; the histogram records its
    // mean once per estimate.
    estimates.clear();
    let started = Instant::now();
    for cached in plans.iter() {
        // `cst.estimate(...)` with both factors memoized: the product
        // below is bit-identical to it.
        let raw = cst.estimate_raw(&cached.twig, algorithm, kind, Some(&cached.plan));
        let discount = *cached.discount.get_or_init(|| cst.sibling_discount(&cached.twig));
        estimates.push(raw * discount);
    }
    let count = size_to_u64(estimates.len());
    state.metrics.estimate_latency_us.record_n(micros(started.elapsed()) / count.max(1), count);
    state.metrics.batches_total.inc();
    state.metrics.estimates_total.add(count);
    plans.clear();

    body.clear();
    write_estimates(body, summary_name, algorithm, kind, generation, estimates);
    let response = Response::json_rendered(200, std::mem::take(body));
    if stale {
        // The summary's latest reload failed; answers come from the
        // last good generation. Clients that care can detect it here.
        response.with_header("x-twig-stale-generation", generation.to_string())
    } else {
        response
    }
}

/// Writes the `/estimate` response body into `out`: the bytes that
/// rendering the `Json` object of these fields gives, written in place.
fn write_estimates(
    out: &mut Vec<u8>,
    summary: &str,
    algorithm: Algorithm,
    kind: CountKind,
    generation: u64,
    estimates: &[f64],
) {
    out.extend_from_slice(b"{\"summary\":");
    json::write_str(out, summary);
    out.extend_from_slice(b",\"algorithm\":");
    json::write_str(out, algorithm.name());
    out.extend_from_slice(b",\"count_kind\":");
    json::write_str(out, kind_name(kind));
    out.extend_from_slice(b",\"generation\":");
    json::write_num(out, count_to_f64(generation));
    out.extend_from_slice(b",\"count\":");
    json::write_num(out, count_to_f64(size_to_u64(estimates.len())));
    out.extend_from_slice(b",\"estimates\":[");
    for (index, &estimate) in estimates.iter().enumerate() {
        if index > 0 {
            out.push(b',');
        }
        json::write_num(out, estimate);
    }
    out.extend_from_slice(b"]}");
}

fn kind_name(kind: CountKind) -> &'static str {
    match kind {
        CountKind::Presence => "presence",
        CountKind::Occurrence => "occurrence",
    }
}

fn parse_algorithm(name: &str) -> Option<Algorithm> {
    Algorithm::ALL.into_iter().find(|a| a.name().eq_ignore_ascii_case(name))
}

fn algorithm_names() -> String {
    let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
    names.join(", ")
}

/// The uniform error envelope: `{"error":{"kind":…,"message":…}}`.
#[must_use]
pub fn error_response(status: u16, kind: &str, message: &str) -> Response {
    Response::json(
        status,
        &Json::Obj(vec![(
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::str(kind)),
                ("message".into(), Json::str(message)),
            ]),
        )]),
    )
}

fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

fn num_u64(value: u64) -> Json {
    Json::Num(count_to_f64(value))
}

fn num_usize(value: usize) -> Json {
    Json::Num(count_to_f64(size_to_u64(value)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{encode_request, parse_request_bytes, Parsed};
    use crate::reactor::conn::{WriteQueue, INLINE_BODY_MAX};
    use crate::registry::SummarySpec;
    use twig_core::{Cst, CstConfig, SpaceBudget};
    use twig_tree::DataTree;

    /// A counting global allocator for this test binary. Counting is
    /// per thread and off except inside [`count_allocations`], so tests
    /// running beside each other do not disturb a count.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ON: Cell<bool> = const { Cell::new(false) };
            static COUNT: Cell<u64> = const { Cell::new(0) };
        }

        struct Counting;

        #[global_allocator]
        static GLOBAL: Counting = Counting;

        fn note() {
            if ON.with(Cell::get) {
                COUNT.with(|count| count.set(count.get() + 1));
            }
        }

        // SAFETY: every method forwards to `System` with the caller's
        // arguments unchanged, so `System`'s guarantees are this
        // allocator's; the counters never touch the memory handed out,
        // and const-initialized `Cell` thread-locals never allocate.
        #[allow(unsafe_code)]
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note();
                // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note();
                // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note();
                // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract.
                unsafe { System.realloc(ptr, layout, new_size) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract.
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        /// Runs `work` and returns the allocations (`alloc`,
        /// `alloc_zeroed` and `realloc` calls) it made on this thread.
        pub(super) fn count_allocations(work: impl FnOnce()) -> u64 {
            let before = COUNT.with(Cell::get);
            ON.with(|on| on.set(true));
            work();
            ON.with(|on| on.set(false));
            COUNT.with(Cell::get) - before
        }
    }

    const XML: &str = "<dblp>\
        <book><author>AAA</author><author>BBB</author><title>T1</title><year>1999</year></book>\
        <book><author>AAA</author><title>T2</title><year>2001</year></book>\
        <article><author>AAA</author><title>T4</title><year>1999</year></article>\
        <article><author>DDD</author><journal>J1</journal><year>2003</year></article>\
    </dblp>";

    /// Queries with escapes, repeats and several shapes.
    const QUERIES: [&str; 8] = [
        "book(author(\"AAA\"))",
        "book(author,title)",
        "article(author(\"DDD\"),journal)",
        "book(year(\"1999\"))",
        "article",
        "book(author(\"AAA\"))",
        "dblp(book(title(\"T2\")))",
        "article(year)",
    ];

    /// A one-reactor server state serving the flat summary of [`XML`]
    /// as `default`, from a file under a fresh directory named `tag`.
    fn served_state(tag: &str) -> (Arc<ServerState>, std::path::PathBuf) {
        let tree = DataTree::from_xml(XML).unwrap();
        let config = CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() };
        let cst = Cst::build(&tree, &config).unwrap();
        let dir =
            std::env::temp_dir().join(format!("twig-serve-unit-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("default.flt");
        twig_flat::writer::write_file(&cst, &path).unwrap();
        let registry = SummaryRegistry::new();
        registry.load(SummarySpec { name: "default".into(), path: path.clone() }).unwrap();
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        (ServerState::test_state_with(config, registry), path)
    }

    fn estimate_wire(body: &str) -> Vec<u8> {
        let mut wire = Vec::new();
        encode_request(&mut wire, "POST", "/estimate", body.as_bytes());
        wire
    }

    fn batch_body(algorithm: &str, queries: &[&str]) -> String {
        let queries: Vec<Json> = queries.iter().map(|&query| Json::str(query)).collect();
        Json::Obj(vec![
            ("summary".into(), Json::str("default")),
            ("algorithm".into(), Json::str(algorithm)),
            ("count_kind".into(), Json::str("occurrence")),
            ("queries".into(), Json::Arr(queries)),
        ])
        .render()
    }

    /// Frames `wire`, dispatches it and returns the response.
    fn dispatch(state: &Arc<ServerState>, wire: &[u8], scratch: &mut HandlerScratch) -> Response {
        let limits = limits_for(&state.config);
        let Ok(Parsed::Request { request, consumed }) = parse_request_bytes(wire, &limits) else {
            panic!("request does not frame");
        };
        assert_eq!(consumed, wire.len());
        match process_request(state, &request, scratch) {
            Dispatched::Respond(response) => response,
            Dispatched::Drop => panic!("request dropped"),
        }
    }

    /// Queues `response` as the reactor does and returns its wire bytes.
    fn wire_of(response: Response, scratch: &mut HandlerScratch, wq: &mut WriteQueue) -> Vec<u8> {
        if let Some(body) = wq.push(response, false) {
            scratch.recycle(body);
        }
        let mut out = Vec::new();
        while !wq.is_empty() {
            let mut slices: [std::io::IoSlice<'_>; crate::reactor::conn::MAX_IOVECS] =
                std::array::from_fn(|_| std::io::IoSlice::new(&[]));
            let count = wq.slices(&mut slices);
            let sent: usize = slices.iter().take(count).map(|slice| slice.len()).sum();
            for slice in slices.iter().take(count) {
                out.extend_from_slice(slice);
            }
            wq.advance(sent);
        }
        out
    }

    /// The `/estimate` response as a `Json` value renders it: the
    /// reference the in-place writer must match byte for byte.
    fn rendered_estimates(
        summary: &str,
        algorithm: Algorithm,
        kind: CountKind,
        generation: u64,
        estimates: &[f64],
    ) -> Json {
        Json::Obj(vec![
            ("summary".into(), Json::str(summary)),
            ("algorithm".into(), Json::str(algorithm.name())),
            ("count_kind".into(), Json::str(kind_name(kind))),
            ("generation".into(), num_u64(generation)),
            ("count".into(), num_usize(estimates.len())),
            ("estimates".into(), Json::Arr(estimates.iter().map(|&e| Json::Num(e)).collect())),
        ])
    }

    #[test]
    fn in_place_estimate_body_matches_the_rendered_object() {
        let mut rng = SplitMix64::new(0x6f75_7470);
        let pieces = ["default", "bench", "\"", "\\", "\n", "\u{1}", "\u{1f}", "é", "😀", " ", "/"];
        let specials =
            [0.0, -0.0, 1.0, 0.1, 1e-300, 5e-324, 1e300, f64::MAX, f64::NAN, f64::INFINITY];
        let generations = [0, 1, 7, 1 << 32, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
        for case in 0..400 {
            let summary: String = (0..rng.next_below(5))
                .map(|_| pieces[rng.next_below(pieces.len() as u64) as usize])
                .collect();
            let algorithm = Algorithm::ALL[case % Algorithm::ALL.len()];
            let kind = if case % 2 == 0 { CountKind::Presence } else { CountKind::Occurrence };
            let generation = generations[case % generations.len()];
            let len = [0, 1, 8, 600][case % 4];
            let estimates: Vec<f64> = (0..len)
                .map(|_| match rng.next_below(3) {
                    0 => specials[rng.next_below(specials.len() as u64) as usize],
                    1 => f64::from_bits(rng.next_u64()),
                    _ => rng.next_below(1 << 40) as f64 / 7.0,
                })
                .collect();
            let mut body = b"kept".to_vec();
            write_estimates(&mut body, &summary, algorithm, kind, generation, &estimates);
            let reference = rendered_estimates(&summary, algorithm, kind, generation, &estimates);
            assert_eq!(
                body.strip_prefix(b"kept").map(|written| String::from_utf8_lossy(written)),
                Some(reference.render().into()),
                "case {case}"
            );
        }
    }

    #[test]
    fn served_estimate_responses_keep_their_wire_bytes() {
        let (state, path) = served_state("wire");
        let mut scratch = HandlerScratch::default();
        let mut wq = WriteQueue::new();
        let cst = state.registry.get("default").unwrap();
        // Batches of 1 and 8, and one whose body takes the write queue's
        // out-of-line path, over every algorithm and count kind.
        let long: Vec<&str> = QUERIES.iter().copied().cycle().take(4096).collect();
        for queries in [&QUERIES[..1], &QUERIES[..], &long[..]] {
            for algorithm in Algorithm::ALL {
                for kind in [CountKind::Presence, CountKind::Occurrence] {
                    let body = Json::Obj(vec![
                        ("algorithm".into(), Json::str(algorithm.name())),
                        ("count_kind".into(), Json::str(kind_name(kind))),
                        (
                            "queries".into(),
                            Json::Arr(queries.iter().map(|&q| Json::str(q)).collect()),
                        ),
                    ])
                    .render();
                    let response = dispatch(&state, &estimate_wire(&body), &mut scratch);
                    let estimates: Vec<f64> = queries
                        .iter()
                        .map(|query| cst.estimate(&Twig::parse(query).unwrap(), algorithm, kind))
                        .collect();
                    let reference = Response::json(
                        200,
                        &rendered_estimates("default", algorithm, kind, 1, &estimates),
                    );
                    let mut expected = Vec::new();
                    reference.encode_into(&mut expected, false);
                    if queries.len() == long.len() {
                        assert!(reference.body.len() > INLINE_BODY_MAX);
                    }
                    assert_eq!(wire_of(response, &mut scratch, &mut wq), expected);
                }
            }
        }
        // A failed reload leaves the last good generation serving, and
        // the response says so in its header.
        // Replaced by rename: truncating a mapped file in place faults.
        let torn = path.with_extension("tmp");
        std::fs::write(&torn, b"not a summary").unwrap();
        std::fs::rename(&torn, &path).unwrap();
        assert!(state.registry.reload_all().iter().all(|(_, result)| result.is_err()));
        let response = dispatch(&state, &estimate_wire(&batch_body("msh", &QUERIES)), &mut scratch);
        let estimates: Vec<f64> = QUERIES
            .iter()
            .map(|query| {
                cst.estimate(&Twig::parse(query).unwrap(), Algorithm::Msh, CountKind::Occurrence)
            })
            .collect();
        let reference = Response::json(
            200,
            &rendered_estimates("default", Algorithm::Msh, CountKind::Occurrence, 1, &estimates),
        )
        .with_header("x-twig-stale-generation", "1".into());
        let mut expected = Vec::new();
        reference.encode_into(&mut expected, false);
        assert_eq!(wire_of(response, &mut scratch, &mut wq), expected);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_failing_batch_caches_no_plan() {
        let (state, path) = served_state("failing-batch");
        // Fill the one shard, so every insert would evict.
        let twig = Twig::parse("book(title)").unwrap();
        for index in 0..PLAN_CACHE_CAPACITY {
            state.plans.insert(&format!("default@1:resident{index}"), twig.clone());
        }
        assert_eq!(state.plans.len(), PLAN_CACHE_CAPACITY);
        let mut scratch = HandlerScratch::default();
        let body = batch_body("msh", &["book(author)", "article(title)", "book(("]);
        let response = dispatch(&state, &estimate_wire(&body), &mut scratch);
        assert_eq!(response.status, 400);
        assert!(String::from_utf8_lossy(&response.body).contains("bad_query"));
        assert_eq!(state.metrics.plan_cache_evictions_total.get(), 0);
        assert_eq!(state.plans.len(), PLAN_CACHE_CAPACITY);
        for index in 0..PLAN_CACHE_CAPACITY {
            let key = format!("default@1:resident{index}");
            assert!(state.plans.lookup(&key).is_some(), "{key} was evicted");
        }
        for text in ["book(author)", "article(title)"] {
            assert!(state.plans.lookup(&format!("default@1:{text}")).is_none(), "{text} cached");
        }
        // The same batch without its bad query caches both plans.
        let body = batch_body("msh", &["book(author)", "article(title)"]);
        assert_eq!(dispatch(&state, &estimate_wire(&body), &mut scratch).status, 200);
        assert_eq!(state.metrics.plan_cache_evictions_total.get(), 2);
        assert!(state.plans.lookup("default@1:book(author)").is_some());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// With fault injection compiled in, failpoints can be armed from
    /// the environment and an armed probe may allocate, so the count
    /// covers plain builds only.
    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn warm_estimate_hits_allocate_nothing() {
        let (state, path) = served_state("alloc");
        let mut scratch = HandlerScratch::default();
        let mut wq = WriteQueue::new();
        let requests: Vec<Vec<u8>> = [&QUERIES[..1], &QUERIES[..]]
            .iter()
            .flat_map(|queries| {
                ["msh", "greedy"].map(|algorithm| estimate_wire(&batch_body(algorithm, queries)))
            })
            .collect();
        // Warm up: plans cached, answers memoized, buffers grown.
        for wire in &requests {
            let response = dispatch(&state, wire, &mut scratch);
            assert_eq!(response.status, 200);
            wire_of(response, &mut scratch, &mut wq);
        }
        let limits = limits_for(&state.config);
        let rounds = 50;
        let allocations = counting::count_allocations(|| {
            for _ in 0..rounds {
                for wire in &requests {
                    let Ok(Parsed::Request { request, .. }) = parse_request_bytes(wire, &limits)
                    else {
                        return;
                    };
                    let Dispatched::Respond(response) =
                        process_request(&state, &request, &mut scratch)
                    else {
                        return;
                    };
                    if let Some(body) = wq.push(response, false) {
                        scratch.recycle(body);
                    }
                    wq.advance(wq.pending());
                }
            }
        });
        assert_eq!(state.metrics.responses_2xx.get(), (rounds + 1) * requests.len() as u64);
        assert_eq!(allocations, 0, "allocations over {rounds} rounds of warm requests");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn retry_after_escalates_from_one_to_a_capped_sixteen() {
        // The first eight rejections of a streak hint an immediate retry.
        for streak in 1..=8u64 {
            assert_eq!(retry_after_secs(streak), 1, "streak {streak}");
        }
        // Then the hint escalates with bounded per-streak jitter: at
        // least the base, at most double it, never past 16 seconds.
        for streak in 9..=200u64 {
            let base = (streak / 8).min(8);
            let hint = retry_after_secs(streak);
            assert!(hint >= base, "streak {streak}: hint {hint} below base {base}");
            assert!(hint <= (2 * base).min(16), "streak {streak}: hint {hint} over cap");
        }
        // Deep in a sustained streak the cap is reachable and binding.
        let deep: Vec<u64> = (1000..1100u64).map(retry_after_secs).collect();
        assert!(deep.iter().all(|&hint| (8..=16).contains(&hint)), "{deep:?}");
        assert!(deep.contains(&16), "cap never reached: {deep:?}");
        // The jitter is per-streak deterministic (same seed, same hint).
        assert_eq!(retry_after_secs(77), retry_after_secs(77));
    }
}
