//! The nonblocking serve core: per-core reactor threads, each owning an
//! epoll instance, a `SO_REUSEPORT` listener shard, and a slab of
//! connection state machines (DESIGN.md §15).
//!
//! One reactor is strictly single-threaded: every connection it accepts
//! lives and dies on its thread, so connection state needs no locks and
//! the saturation streak driving `Retry-After` escalation is a plain
//! integer. Cross-thread coordination is the shared [`ServerState`]
//! (registry, metrics, plan cache, shutdown flag) plus the kernel's own
//! accept distribution across the port shards.
//!
//! Readiness is edge-triggered (`EPOLLIN | EPOLLOUT | EPOLLRDHUP |
//! EPOLLET`, registered once per connection): every event drains its
//! condition to `WouldBlock`, requests are framed by the incremental
//! parser in `http.rs` (pipelined requests queue naturally in the
//! receive buffer), and responses flush as vectored writes from the
//! connection's reusable write queue. Deadlines live in a lazy-deletion
//! timer wheel; `epoll_wait` sleeps until the next occupied slot
//! (capped, so the shutdown flag is always observed promptly).

pub(crate) mod conn;
#[cfg(target_os = "linux")]
pub(crate) mod sys;
pub(crate) mod wheel;

#[cfg(target_os = "linux")]
pub(crate) use linux::{bind_shard, run};

#[cfg(target_os = "linux")]
mod linux {
    use std::io::{self, IoSlice, Write as _};
    use std::net::{TcpListener, ToSocketAddrs as _};
    use std::os::fd::{AsRawFd as _, OwnedFd};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use super::conn::{Conn, Phase, MAX_IOVECS};
    use super::sys;
    use super::wheel::{Wheel, WheelKey};
    use crate::http::{parse_request_bytes, Limits, Parsed, ReadOutcome};
    use crate::server::{
        limits_for, process_request, read_error_response, reject_connection, retry_after_secs,
        Dispatched, HandlerScratch, ServerState,
    };

    /// Epoll token for the listener shard (connection tokens encode a
    /// slab slot, which is always far below this).
    const LISTENER_TOKEN: u64 = u64::MAX;
    /// Events fetched per `epoll_wait`.
    const EVENT_CAPACITY: usize = 256;
    /// Read syscall granularity.
    const READ_CHUNK: usize = 16 * 1024;
    /// Stop dispatching parsed requests while at least this many
    /// response bytes await the socket (the client is not reading;
    /// parsing further pipelined requests would buffer unboundedly).
    const WRITE_HIGH_WATER: usize = 256 * 1024;
    /// Upper bound on one `epoll_wait` sleep, so the shutdown flag set
    /// by another thread is observed within this window even when no
    /// deadline is near (and the fallback when the wakeup eventfd could
    /// not be created).
    const POLL_CAP: Duration = Duration::from_millis(100);
    /// Epoll token for the reactor's wakeup eventfd (below
    /// `LISTENER_TOKEN`, above any connection token).
    const WAKE_TOKEN: u64 = u64::MAX - 1;
    /// A connection must have been idle at least this long before slab
    /// pressure may evict it: eviction targets parked keep-alive
    /// connections, never ones that just went quiet between requests.
    const MIN_EVICT_IDLE_AGE: Duration = Duration::from_secs(2);
    /// First accept-retry pause after a resource-exhaustion errno
    /// (EMFILE/ENFILE/ENOMEM); doubles per consecutive failure.
    const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(5);
    /// Accept-retry pause ceiling.
    const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(250);

    /// Binds one `SO_REUSEPORT` listener shard for `addr` (a host:port
    /// string, as `TcpListener::bind` takes).
    pub(crate) fn bind_shard(addr: &str) -> io::Result<TcpListener> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match sys::reuseport_listener(candidate) {
                Ok(listener) => return Ok(listener),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to bind")))
    }

    /// Runs `workers` reactor threads sharing `first`'s port, returning
    /// once every reactor has drained after shutdown. The error of the
    /// first reactor to fail fatally (if any) is propagated.
    pub(crate) fn run(first: TcpListener, state: Arc<ServerState>) -> io::Result<()> {
        let reactors = state.config.workers.max(1);
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(sys::reuseport_listener(addr)?);
        }
        state.metrics.init_reactors(reactors);
        // Each reactor admits the full `workers + queue_capacity`: the
        // kernel's reuseport hash is not a balancer, so splitting the
        // cap across shards would 503 light workloads whenever a few
        // connections happened to collide on one shard.
        let per_reactor = state.config.workers.max(1) + state.config.queue_capacity;
        // Every reactor takes its fds before any serves: a reactor left
        // to open its epoll instance after the first answer can die of
        // a later fd shortage, leaving its shard stalled for good.
        let built = listeners
            .into_iter()
            .enumerate()
            .map(|(index, listener)| Reactor::new(index, listener, Arc::clone(&state), per_reactor))
            .collect::<io::Result<Vec<_>>>()?;

        let mut handles = Vec::with_capacity(reactors);
        for reactor in built {
            let spawned = std::thread::Builder::new()
                .name(format!("twig-serve-reactor-{}", reactor.index))
                .spawn(move || reactor.serve());
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(err) => {
                    // Could not spawn the full complement: stop the
                    // reactors already running and surface the error.
                    state.request_shutdown();
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(err);
                }
            }
        }
        let mut first_err = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(err)) => {
                    if first_err.is_none() {
                        first_err = Some(err);
                    }
                }
                Err(_) => {
                    if first_err.is_none() {
                        first_err = Some(io::Error::other("reactor thread panicked"));
                    }
                }
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Whether connection processing may continue.
    #[derive(PartialEq, Eq)]
    enum Flow {
        Live,
        Closed,
    }

    /// Where framing the receive buffer stopped.
    #[derive(PartialEq, Eq)]
    enum Framed {
        /// Every complete request was dispatched; the rest needs bytes.
        Drained,
        /// Dispatch paused (write queue at its high-water mark, or a
        /// close queued) with complete requests possibly still buffered.
        Paused,
        /// The connection closed.
        Closed,
    }

    /// Why the framing loop of `process_rbuf` ended.
    enum Stop {
        Drained,
        Paused,
        /// An injected dispatch fault: drop the connection unanswered.
        Drop,
        /// A request could not be read.
        Failed(ReadOutcome),
    }

    /// Connection slab: slot reuse with generations, so a stale epoll
    /// event or wheel entry for a recycled slot is provably stale.
    struct Slab {
        slots: Vec<Option<Conn>>,
        free: Vec<usize>,
        live: usize,
        next_generation: u64,
    }

    impl Slab {
        fn new() -> Slab {
            Slab { slots: Vec::new(), free: Vec::new(), live: 0, next_generation: 1 }
        }

        fn insert(&mut self, make: impl FnOnce(u64) -> Conn) -> usize {
            let generation = self.next_generation;
            self.next_generation += 1;
            self.live += 1;
            let conn = Some(make(generation));
            match self.free.pop() {
                Some(slot) => {
                    if let Some(cell) = self.slots.get_mut(slot) {
                        *cell = conn;
                    }
                    slot
                }
                None => {
                    self.slots.push(conn);
                    self.slots.len() - 1
                }
            }
        }

        fn get(&self, slot: usize) -> Option<&Conn> {
            self.slots.get(slot).and_then(Option::as_ref)
        }

        fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
            self.slots.get_mut(slot).and_then(Option::as_mut)
        }

        fn remove(&mut self, slot: usize) -> Option<Conn> {
            let conn = self.slots.get_mut(slot).and_then(Option::take);
            if conn.is_some() {
                self.live -= 1;
                self.free.push(slot);
            }
            conn
        }
    }

    /// Token layout: low 32 bits slot, high 32 bits generation (mod
    /// 2^32 — ample to disambiguate a slot recycled within one event
    /// batch, which is the only window a stale token can survive).
    fn token_for(slot: usize, generation: u64) -> u64 {
        (generation << 32) | (u64::try_from(slot).unwrap_or(0) & 0xFFFF_FFFF)
    }

    fn token_slot(token: u64) -> usize {
        usize::try_from(token & 0xFFFF_FFFF).unwrap_or(usize::MAX)
    }

    fn token_matches(token: u64, generation: u64) -> bool {
        (token >> 32) == (generation & 0xFFFF_FFFF)
    }

    pub(super) struct Reactor {
        index: usize,
        epoll: sys::Epoll,
        listener: Option<TcpListener>,
        state: Arc<ServerState>,
        limits: Limits,
        slab: Slab,
        wheel: Wheel,
        events: Vec<sys::EpollEvent>,
        due: Vec<WheelKey>,
        scratch: Vec<u8>,
        /// The request handlers' reusable buffers.
        handler_scratch: HandlerScratch,
        max_conns: usize,
        /// Consecutive saturation rejections on this reactor with no
        /// admission in between; reset on admission and on drain.
        streak: u64,
        draining: bool,
        fatal: Option<io::Error>,
        /// Wakeup eventfd: shutdown from another thread interrupts
        /// `epoll_wait` instead of waiting out the poll cap. `None`
        /// (creation failed) degrades to cap-bounded polling.
        wake: Option<OwnedFd>,
        /// One fd held in reserve so an EMFILE'd accept can be retried
        /// after releasing it — the pending connection gets a `503`
        /// instead of rotting in the backlog.
        reserve: Option<std::fs::File>,
        /// When to retry accepting after a resource-exhaustion errno
        /// paused the accept loop.
        accept_retry: Option<Instant>,
        /// Current accept-retry pause (escalates, resets on success).
        accept_backoff: Duration,
    }

    impl Reactor {
        pub(super) fn new(
            index: usize,
            listener: TcpListener,
            state: Arc<ServerState>,
            max_conns: usize,
        ) -> io::Result<Reactor> {
            let limits = limits_for(&state.config);
            Ok(Reactor {
                index,
                epoll: sys::Epoll::new()?,
                listener: Some(listener),
                limits,
                slab: Slab::new(),
                wheel: Wheel::new(Instant::now()),
                events: Vec::with_capacity(EVENT_CAPACITY),
                due: Vec::new(),
                scratch: vec![0u8; READ_CHUNK],
                handler_scratch: HandlerScratch::default(),
                max_conns: max_conns.max(1),
                streak: 0,
                draining: false,
                fatal: None,
                wake: sys::eventfd().ok(),
                reserve: std::fs::File::open("/dev/null").ok(),
                accept_retry: None,
                accept_backoff: ACCEPT_BACKOFF_START,
                state,
            })
        }

        pub(super) fn serve(mut self) -> io::Result<()> {
            if let Some(listener) = &self.listener {
                listener.set_nonblocking(true)?;
                self.epoll.add(
                    listener.as_raw_fd(),
                    LISTENER_TOKEN,
                    sys::EPOLLIN | sys::EPOLLET,
                )?;
            }
            // Register the wakeup eventfd (level-triggered: it stays
            // readable until drained) and hand a clone to the shared
            // state so `request_shutdown` can interrupt `epoll_wait`.
            // Every failure here degrades to cap-bounded polling.
            if let Some(wake) = &self.wake {
                if self.epoll.add(wake.as_raw_fd(), WAKE_TOKEN, sys::EPOLLIN).is_err() {
                    self.wake = None;
                } else if let Ok(clone) = wake.try_clone() {
                    self.state.register_waker(clone);
                }
            }
            loop {
                // Liveness heartbeat: the watchdog in `/healthz` and the
                // `twig_serve_reactor_stalled` gauge compare this stamp
                // against the stall threshold.
                if let Some(stats) = self.state.metrics.reactor(self.index) {
                    stats.beat(self.state.metrics.now_ms());
                }
                if self.state.shutting_down() {
                    self.begin_drain();
                    if self.slab.live == 0 {
                        return match self.fatal.take() {
                            Some(err) => Err(err),
                            None => Ok(()),
                        };
                    }
                }
                let timeout = self.poll_timeout();
                match self.epoll.wait(&mut self.events, timeout) {
                    Ok(_) => {}
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                    Err(err) => {
                        // Fatal poller error: begin a global drain so
                        // sibling reactors finish in-flight work, then
                        // surface the error from this one.
                        self.state.request_shutdown();
                        return Err(err);
                    }
                }
                for at in 0..self.events.len() {
                    let Some(event) = self.events.get(at).copied() else {
                        break;
                    };
                    if event.token() == LISTENER_TOKEN {
                        self.accept_burst();
                    } else if event.token() == WAKE_TOKEN {
                        if let Some(wake) = &self.wake {
                            sys::eventfd_drain(wake);
                        }
                    } else {
                        self.on_conn_event(event);
                    }
                }
                if self.accept_retry.is_some_and(|at| at <= Instant::now()) {
                    // A paused accept loop resumes on schedule even if
                    // no new edge arrives (edge-triggered listeners
                    // never re-announce an already-queued backlog).
                    self.accept_retry = None;
                    self.accept_burst();
                }
                self.expire_due();
            }
        }

        /// How long this `epoll_wait` may sleep.
        fn poll_timeout(&self) -> i32 {
            let now = Instant::now();
            let cap = if self.draining { Duration::from_millis(10) } else { POLL_CAP };
            let mut sleep = match self.wheel.next_wakeup(now) {
                Some(until_deadline) => until_deadline.min(cap),
                None => cap,
            };
            if let Some(retry) = self.accept_retry {
                sleep = sleep.min(retry.saturating_duration_since(now));
            }
            i32::try_from(sleep.as_millis()).unwrap_or(i32::MAX).max(1)
        }

        /// Accepts until the listener would block (edge-triggered), with
        /// an errno taxonomy for everything else: transient handshake
        /// failures keep the loop going, resource exhaustion
        /// (EMFILE/ENFILE/ENOMEM) sheds and pauses with escalating
        /// backoff, and only truly unexpected errors are fatal.
        fn accept_burst(&mut self) {
            loop {
                let Some(listener) = &self.listener else { return };
                match sys::accept(listener) {
                    Ok((stream, _peer)) => {
                        self.state.metrics.connections_total.inc();
                        if let Some(stats) = self.state.metrics.reactor(self.index) {
                            stats.accept();
                        }
                        if self.state.shutting_down() {
                            self.state.metrics.count_status(503);
                            reject_connection(stream, "server shutting down", 1);
                            continue;
                        }
                        if self.slab.live >= self.max_conns && !self.evict_lru_idle() {
                            self.streak += 1;
                            self.state.metrics.rejected_saturated.inc();
                            self.state.metrics.count_status(503);
                            reject_connection(
                                stream,
                                "server saturated, retry shortly",
                                retry_after_secs(self.streak),
                            );
                            continue;
                        }
                        self.streak = 0;
                        self.admit(stream);
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                        // Backlog drained: the normal end of a burst
                        // resets the exhaustion backoff.
                        self.accept_backoff = ACCEPT_BACKOFF_START;
                        self.accept_retry = None;
                        return;
                    }
                    Err(err)
                        if matches!(
                            err.kind(),
                            io::ErrorKind::ConnectionAborted
                                | io::ErrorKind::ConnectionReset
                                | io::ErrorKind::Interrupted
                        ) =>
                    {
                        self.state.metrics.accept_errors.count(err.raw_os_error());
                    }
                    Err(err) if matches!(err.raw_os_error(), Some(sys::EMFILE | sys::ENFILE)) => {
                        // The process (or system) fd table is full: the
                        // pending connection stays queued in the kernel,
                        // where it would rot. Spend the reserve fd to
                        // shed it with a 503, then pause accepting.
                        self.state.metrics.accept_errors.count(err.raw_os_error());
                        self.shed_via_reserve();
                        self.pause_accepts();
                        return;
                    }
                    Err(err) if err.raw_os_error() == Some(sys::ENOMEM) => {
                        // Kernel memory pressure: nothing to shed; back
                        // off and retry.
                        self.state.metrics.accept_errors.count(err.raw_os_error());
                        self.pause_accepts();
                        return;
                    }
                    Err(err) => {
                        // Fatal listener error: drain, then report.
                        self.state.metrics.accept_errors.count(err.raw_os_error());
                        self.state.request_shutdown();
                        if self.fatal.is_none() {
                            self.fatal = Some(err);
                        }
                        return;
                    }
                }
            }
        }

        /// Schedules the next accept attempt after resource exhaustion,
        /// doubling the pause up to the cap.
        fn pause_accepts(&mut self) {
            self.accept_retry = Some(Instant::now() + self.accept_backoff);
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
        }

        /// Releases the reserve fd to accept exactly one connection from
        /// the backlog, answers it `503`, closes it, and re-arms the
        /// reserve. Under fd exhaustion this converts a silently hung
        /// client into a typed, retryable rejection.
        fn shed_via_reserve(&mut self) {
            if self.reserve.take().is_none() {
                return; // reserve already spent; nothing to release
            }
            if let Some(listener) = &self.listener {
                if let Ok((stream, _peer)) = sys::accept(listener) {
                    self.state.metrics.connections_total.inc();
                    self.state.metrics.count_status(503);
                    reject_connection(
                        stream,
                        "server out of file descriptors, retry shortly",
                        retry_after_secs(self.streak.max(9)),
                    );
                }
            }
            self.reserve = std::fs::File::open("/dev/null").ok();
        }

        /// Evicts the least-recently-active idle connection to make room
        /// for a new one, if any has been idle at least
        /// `MIN_EVICT_IDLE_AGE`. The wheel's due-order scan finds the
        /// earliest surviving idle deadline, which (deadlines being
        /// `last activity + idle_deadline`) is exactly the connection
        /// idle the longest. Returns whether a slot was freed.
        fn evict_lru_idle(&mut self) -> bool {
            let now = Instant::now();
            // idle_age >= MIN_EVICT_IDLE_AGE  <=>
            // deadline <= now + idle_deadline - MIN_EVICT_IDLE_AGE
            let Some(threshold) = (now + self.limits.idle_deadline).checked_sub(MIN_EVICT_IDLE_AGE)
            else {
                return false;
            };
            let wheel = &self.wheel;
            let slab = &self.slab;
            let mut victim = None;
            wheel.scan(|tick, (slot, generation)| {
                let Some(conn) = slab.get(slot) else { return true };
                if conn.generation != generation {
                    return true; // recycled slot: a past life's hint
                }
                if conn.phase != Phase::Idle {
                    return true;
                }
                if wheel.tick_of(conn.deadline) != tick {
                    return true; // stale hint; the live one comes later
                }
                if conn.deadline > threshold {
                    // Earliest validated deadline is still too fresh —
                    // and every later entry is fresher. Give up.
                    return false;
                }
                victim = Some(slot);
                false
            });
            let Some(slot) = victim else { return false };
            self.state.metrics.conns_evicted_total.inc();
            self.close(slot);
            true
        }

        fn admit(&mut self, stream: std::net::TcpStream) {
            if stream.set_nonblocking(true).is_err() {
                return; // drop: the socket is unusable for the reactor
            }
            let _ = stream.set_nodelay(true);
            let idle_until = Instant::now() + self.limits.idle_deadline;
            let slot = self.slab.insert(|generation| Conn::new(stream, generation, idle_until));
            let Some(conn) = self.slab.get(slot) else { return };
            let token = token_for(slot, conn.generation);
            let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
            if self.epoll.add(conn.stream.as_raw_fd(), token, interest).is_err() {
                self.slab.remove(slot);
                return;
            }
            self.wheel.schedule(idle_until, (slot, conn.generation));
            if let Some(stats) = self.state.metrics.reactor(self.index) {
                stats.conn_opened();
            }
        }

        fn close(&mut self, slot: usize) {
            if self.slab.remove(slot).is_some() {
                // Dropping the Conn closes the fd, which deregisters it
                // from epoll (the reactor holds no dup).
                if let Some(stats) = self.state.metrics.reactor(self.index) {
                    stats.conn_closed();
                }
            }
        }

        fn on_conn_event(&mut self, event: sys::EpollEvent) {
            let slot = token_slot(event.token());
            let Some(conn) = self.slab.get(slot) else { return };
            if !token_matches(event.token(), conn.generation) {
                return; // recycled slot; the event belongs to a past life
            }
            if event.readable() {
                if self.fill_rbuf(slot) == Flow::Closed {
                    return;
                }
            } else if !event.writable() {
                return;
            }
            self.pump(slot);
        }

        /// Reads until `WouldBlock`, EOF or the receive-buffer cap,
        /// appending to the receive buffer. The `http.read` failpoint
        /// injects transport faults at this boundary.
        fn fill_rbuf(&mut self, slot: usize) -> Flow {
            if let Some(fault) = twig_util::failpoint!("http.read") {
                return match fault {
                    // An injected transport error (or errno) behaves
                    // like any other socket I/O failure: silent close.
                    twig_util::failpoint::Fault::Error | twig_util::failpoint::Fault::Errno(_) => {
                        self.close(slot);
                        Flow::Closed
                    }
                    // A torn read surfaces as a malformed request.
                    twig_util::failpoint::Fault::Partial(_) => {
                        self.fail_read(slot, &ReadOutcome::Malformed("injected torn read"))
                    }
                };
            }
            let rbuf_cap = self.rbuf_cap();
            let progress_window = self.state.config.progress_window;
            let scratch = &mut self.scratch;
            let Some(conn) = self.slab.get_mut(slot) else { return Flow::Closed };
            conn.read_paused = false;
            loop {
                if conn.rbuf.len() >= rbuf_cap {
                    // Backpressure: the edge is consumed, so `pump`
                    // resumes the read once the buffer drains.
                    conn.read_paused = true;
                    break;
                }
                match sys::read(&mut conn.stream, scratch) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.phase == Phase::Idle {
                            // A fresh request also opens a fresh
                            // progress window.
                            let now = Instant::now();
                            conn.phase = Phase::Busy { since: now };
                            conn.progress = 0;
                            conn.window_deadline = now + progress_window;
                        }
                        conn.progress += u64::try_from(n).unwrap_or(0);
                        match scratch.get(..n) {
                            Some(filled) => conn.rbuf.extend_from_slice(filled),
                            None => break, // broken Read impl; treat as drained
                        }
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(slot);
                        return Flow::Closed;
                    }
                }
            }
            Flow::Live
        }

        /// Bound on buffered-but-unparsed input: one full head + body
        /// plus a read chunk of pipelined follow-on bytes.
        fn rbuf_cap(&self) -> usize {
            self.limits.max_head_bytes + self.limits.max_body_bytes + READ_CHUNK
        }

        /// Parses and dispatches every complete request buffered on the
        /// connection, then flushes; repeats while forward progress is
        /// possible without waiting on the socket.
        fn pump(&mut self, slot: usize) {
            loop {
                let framed = self.process_rbuf(slot);
                if framed == Framed::Closed {
                    return;
                }
                if self.flush(slot) == Flow::Closed {
                    return;
                }
                let Some(conn) = self.slab.get(slot) else { return };
                // Another round only pays off when the write queue fully
                // drained and there is more input: a paused read, or
                // buffered requests left by the high-water pause.
                if !conn.wq.is_empty() || conn.close_after_flush {
                    break;
                }
                // Never refill a buffer at its cap that frames no request:
                // the read would stop at once and the loop would spin.
                // With the head and body limits checked by the parser,
                // a request frames below the cap, so this is a backstop;
                // such a buffer would wait out its read deadline.
                if conn.read_paused && conn.rbuf.len() < self.rbuf_cap() {
                    if self.fill_rbuf(slot) == Flow::Closed {
                        return;
                    }
                    continue;
                }
                // Framing already found the unframed tail incomplete.
                if framed == Framed::Drained {
                    break;
                }
            }
            self.settle(slot);
        }

        /// Frames and dispatches requests out of the receive buffer. The
        /// requests are framed by offset, borrowing from the buffer, and
        /// the bytes they consumed are drained once at the end.
        fn process_rbuf(&mut self, slot: usize) -> Framed {
            let Reactor { slab, state, limits, handler_scratch, .. } = self;
            let Some(conn) = slab.get_mut(slot) else { return Framed::Closed };
            let mut unframed: &[u8] = &conn.rbuf;
            let mut dispatched = 0u64;
            let stop = loop {
                if conn.close_after_flush || conn.wq.pending() >= WRITE_HIGH_WATER {
                    break Stop::Paused;
                }
                match parse_request_bytes(unframed, limits) {
                    Ok(Parsed::NeedMore) => {
                        if conn.peer_closed && !unframed.is_empty() {
                            // EOF mid-request.
                            let what = if crate::http::head_complete(unframed) {
                                "connection closed mid-body"
                            } else {
                                "connection closed mid-head"
                            };
                            break Stop::Failed(ReadOutcome::Malformed(what));
                        }
                        break Stop::Drained;
                    }
                    Ok(Parsed::Request { request, consumed }) => {
                        unframed = unframed.get(consumed..).unwrap_or_default();
                        if dispatched > 0 {
                            state.metrics.pipelined_requests_total.inc();
                        }
                        dispatched += 1;
                        match process_request(state, &request, handler_scratch) {
                            // Injected dispatch fault: abandon the
                            // connection, response unsent — the peer
                            // observes a closed socket.
                            Dispatched::Drop => break Stop::Drop,
                            Dispatched::Respond(response) => {
                                // Evaluated after dispatch: the handler
                                // itself may have requested shutdown
                                // (`/admin/shutdown`), and drain policy
                                // closes every response.
                                let keep_alive = request.keep_alive() && !state.shutting_down();
                                if let Some(body) = conn.wq.push(response, !keep_alive) {
                                    handler_scratch.recycle(body);
                                }
                                if !keep_alive {
                                    conn.close_after_flush = true;
                                }
                            }
                        }
                    }
                    Err(outcome) => break Stop::Failed(outcome),
                }
            };
            let framed = conn.rbuf.len() - unframed.len();
            conn.rbuf.drain(..framed);
            match stop {
                Stop::Drained => Framed::Drained,
                Stop::Paused => Framed::Paused,
                Stop::Drop => {
                    self.close(slot);
                    Framed::Closed
                }
                Stop::Failed(outcome) => match self.fail_read(slot, &outcome) {
                    Flow::Live => Framed::Drained,
                    Flow::Closed => Framed::Closed,
                },
            }
        }

        /// Answers a failed request read: typed error response where one
        /// is defined, silent close otherwise; either way the connection
        /// ends.
        fn fail_read(&mut self, slot: usize, outcome: &ReadOutcome) -> Flow {
            let response = read_error_response(&self.state, outcome);
            let Some(conn) = self.slab.get_mut(slot) else { return Flow::Closed };
            match response {
                Some(response) => {
                    self.state.metrics.count_status(response.status);
                    conn.rbuf.clear();
                    conn.wq.push(response, true);
                    conn.close_after_flush = true;
                    if self.flush(slot) == Flow::Closed {
                        return Flow::Closed;
                    }
                    self.settle(slot);
                    Flow::Live
                }
                None => {
                    self.close(slot);
                    Flow::Closed
                }
            }
        }

        /// Writes the pending response bytes until drained or
        /// `WouldBlock`. The `http.write` failpoint tears the stream at
        /// this boundary.
        fn flush(&mut self, slot: usize) -> Flow {
            let Some(conn) = self.slab.get_mut(slot) else { return Flow::Closed };
            if conn.wq.is_empty() {
                return self.after_flush(slot);
            }
            if let Some(fault) = twig_util::failpoint!("http.write") {
                if let twig_util::failpoint::Fault::Partial(keep_percent) = fault {
                    // Best-effort prefix, then sever: the client sees a
                    // torn response on a closed socket.
                    let cap = usize::try_from(keep_percent).unwrap_or(100).min(100);
                    let torn = conn.wq.pending() * cap / 100;
                    let mut slices: [IoSlice<'_>; MAX_IOVECS] =
                        std::array::from_fn(|_| IoSlice::new(&[]));
                    let count = conn.wq.slices(&mut slices);
                    let mut budget = torn;
                    for slice in slices.iter().take(count) {
                        if budget == 0 {
                            break;
                        }
                        let part = budget.min(slice.len());
                        if let Some(bytes) = slice.get(..part) {
                            let _ = conn.stream.write_all(bytes);
                        }
                        budget -= part;
                    }
                }
                self.close(slot);
                return Flow::Closed;
            }
            loop {
                let Some(conn) = self.slab.get_mut(slot) else { return Flow::Closed };
                let mut slices: [IoSlice<'_>; MAX_IOVECS] =
                    std::array::from_fn(|_| IoSlice::new(&[]));
                let count = conn.wq.slices(&mut slices);
                let Some(filled) = slices.get(..count) else { break };
                if filled.is_empty() {
                    break;
                }
                match sys::write_vectored(&mut conn.stream, filled) {
                    Ok(0) => {
                        self.close(slot);
                        return Flow::Closed;
                    }
                    Ok(n) => {
                        conn.wq.advance(n);
                        conn.progress += u64::try_from(n).unwrap_or(0);
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Flow::Live,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(slot);
                        return Flow::Closed;
                    }
                }
            }
            self.after_flush(slot)
        }

        /// Post-drain disposition: close if a close was queued or the
        /// peer is gone with nothing left to serve.
        fn after_flush(&mut self, slot: usize) -> Flow {
            let Some(conn) = self.slab.get(slot) else { return Flow::Closed };
            if conn.close_after_flush || (conn.peer_closed && conn.rbuf.is_empty()) {
                self.close(slot);
                return Flow::Closed;
            }
            Flow::Live
        }

        /// Recomputes the connection's phase and deadline after a burst
        /// of work, rescheduling its wheel hint when the next wanted
        /// wakeup (absolute deadline, or the progress-window boundary of
        /// a busy connection) moved earlier than the earliest hint
        /// already planted.
        fn settle(&mut self, slot: usize) {
            let now = Instant::now();
            let limits_idle = self.limits.idle_deadline;
            let limits_read = self.limits.read_deadline;
            let Some(conn) = self.slab.get_mut(slot) else { return };
            let (phase, deadline) = if conn.rbuf.is_empty() && conn.wq.is_empty() {
                (Phase::Idle, now + limits_idle)
            } else {
                let since = match conn.phase {
                    Phase::Busy { since } => since,
                    Phase::Idle => now,
                };
                (Phase::Busy { since }, since + limits_read)
            };
            conn.phase = phase;
            conn.deadline = deadline;
            let wake = match phase {
                Phase::Busy { .. } => deadline.min(conn.window_deadline),
                Phase::Idle => deadline,
            };
            if wake < conn.next_wake {
                // Moved earlier: the existing wheel hint fires too late
                // to notice, so plant a fresh one.
                self.wheel.schedule(wake, (slot, conn.generation));
                conn.next_wake = wake;
            }
        }

        /// Ends a connection that ran out of deadline or progress
        /// budget: a `408` when it still owed us request bytes, a plain
        /// sever otherwise (stalled flush — the peer is not reading).
        fn kill_expired(&mut self, slot: usize, awaiting_request: bool) {
            if awaiting_request {
                let _ = self.fail_read(slot, &ReadOutcome::Timeout);
            }
            self.close(slot);
        }

        /// Visits due wheel entries, expiring connections whose
        /// authoritative deadline has truly passed, enforcing the
        /// minimum-progress window on busy connections, and rescheduling
        /// the rest (lazy deletion).
        fn expire_due(&mut self) {
            let now = Instant::now();
            let progress_window = self.state.config.progress_window;
            let min_progress = self.state.config.min_progress_bytes;
            let mut due = std::mem::take(&mut self.due);
            self.wheel.expire(now, &mut due);
            for (slot, generation) in due.drain(..) {
                let Some(conn) = self.slab.get(slot) else { continue };
                if conn.generation != generation {
                    continue;
                }
                let phase = conn.phase;
                let deadline = conn.deadline;
                let window_deadline = conn.window_deadline;
                let progress = conn.progress;
                let awaiting_request = conn.wq.is_empty() && !conn.rbuf.is_empty();
                if deadline <= now {
                    match phase {
                        // Idle keep-alive expiry closes silently —
                        // normal keep-alive churn.
                        Phase::Idle => self.close(slot),
                        Phase::Busy { .. } => self.kill_expired(slot, awaiting_request),
                    }
                    continue;
                }
                let busy = matches!(phase, Phase::Busy { .. });
                let mut next_window = window_deadline;
                if busy && window_deadline <= now {
                    if progress < min_progress {
                        // Slow-read/slow-write client: it had a full
                        // window to move `min_progress` bytes and did
                        // not. Kill it before it ties the slot up until
                        // the absolute deadline (slowloris defense).
                        self.state.metrics.progress_kills_total.inc();
                        self.kill_expired(slot, awaiting_request);
                        continue;
                    }
                    next_window = now + progress_window;
                }
                // Early visit (stale or clamped hint, or a window
                // boundary): rearm at the next wanted wakeup.
                let wake = if busy { deadline.min(next_window) } else { deadline };
                let Some(conn) = self.slab.get_mut(slot) else { continue };
                if next_window != window_deadline {
                    conn.progress = 0;
                    conn.window_deadline = next_window;
                }
                self.wheel.schedule(wake, (slot, generation));
                conn.next_wake = wake;
            }
            self.due = due;
        }

        /// Transitions into drain mode (idempotent): stop accepting,
        /// reset backpressure escalation, shed idle connections.
        fn begin_drain(&mut self) {
            if self.draining {
                return;
            }
            self.draining = true;
            self.streak = 0;
            self.listener = None; // closes the shard; accepting stops
            for slot in 0..self.slab.slots.len() {
                let Some(conn) = self.slab.get(slot) else { continue };
                if conn.rbuf.is_empty() && conn.wq.is_empty() {
                    // Idle keep-alive connections close immediately; in
                    // flight ones finish their request (the response
                    // carries `Connection: close`) and then close.
                    self.close(slot);
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::server::ServerConfig;
        use std::io::Read as _;
        use std::net::{SocketAddr, TcpStream};

        fn reactor_with(config: ServerConfig, max_conns: usize) -> (Reactor, SocketAddr) {
            let addr: SocketAddr = "127.0.0.1:0".parse().expect("literal addr");
            let listener = sys::reuseport_listener(addr).expect("bind");
            let local = listener.local_addr().expect("local addr");
            listener.set_nonblocking(true).expect("nonblocking listener");
            let state = ServerState::test_state(config);
            state.metrics.init_reactors(1);
            let reactor = Reactor::new(0, listener, state, max_conns).expect("reactor");
            (reactor, local)
        }

        /// Connects a client and drives `accept_burst` until the reactor
        /// has seen it; returns the client end and the slab slot the
        /// connection landed in (the one with the newest generation).
        fn connect_one(reactor: &mut Reactor, addr: SocketAddr) -> (TcpStream, usize) {
            let before = reactor.state.metrics.connections_total.get();
            let client = TcpStream::connect(addr).expect("connect");
            for _ in 0..400 {
                reactor.accept_burst();
                if reactor.state.metrics.connections_total.get() > before {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(reactor.state.metrics.connections_total.get() > before, "accept did not land");
            let slot = (0..reactor.slab.slots.len())
                .filter(|&slot| reactor.slab.get(slot).is_some())
                .max_by_key(|&slot| reactor.slab.get(slot).map(|conn| conn.generation))
                .expect("an admitted connection");
            (client, slot)
        }

        /// Backdates a connection's last activity by `age`: its idle
        /// deadline moves to `now + idle_deadline - age`, with a
        /// matching wheel hint (what `settle` would have planted had the
        /// activity really happened that long ago).
        fn backdate_idle(reactor: &mut Reactor, slot: usize, now: Instant, age: Duration) {
            let idle = reactor.limits.idle_deadline;
            let generation = reactor.slab.get(slot).expect("live conn").generation;
            let deadline = now + idle - age;
            let conn = reactor.slab.get_mut(slot).expect("live conn");
            conn.deadline = deadline;
            conn.next_wake = deadline;
            reactor.wheel.schedule(deadline, (slot, generation));
        }

        #[test]
        fn slab_pressure_evicts_least_recently_active_idle_conn_aba_safe() {
            let (mut reactor, addr) = reactor_with(ServerConfig::default(), 3);
            let (mut c0, s0) = connect_one(&mut reactor, addr);
            let (mut c1, s1) = connect_one(&mut reactor, addr);
            let (_c2, _s2) = connect_one(&mut reactor, addr);
            assert_eq!(reactor.slab.live, 3);
            let now = Instant::now();
            // Slot `s1` has been idle longest (the LRU victim); `s0` is
            // next; the third connection stays fresh and is protected by
            // `MIN_EVICT_IDLE_AGE`.
            backdate_idle(&mut reactor, s0, now, Duration::from_secs(3));
            backdate_idle(&mut reactor, s1, now, Duration::from_secs(10));
            let old_generation = reactor.slab.get(s1).expect("live conn").generation;

            // Fourth client: at capacity, the LRU idle conn is evicted
            // and its slot recycled under a new generation.
            let (_c3, s3) = connect_one(&mut reactor, addr);
            assert_eq!(s3, s1, "the freed slot is reused");
            assert_eq!(reactor.slab.live, 3);
            assert_eq!(reactor.state.metrics.conns_evicted_total.get(), 1);
            assert_eq!(reactor.state.metrics.rejected_saturated.get(), 0);
            assert_ne!(
                reactor.slab.get(s3).expect("live conn").generation,
                old_generation,
                "recycled slot must advance its generation"
            );
            let mut buf = [0u8; 16];
            c1.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            assert_eq!(c1.read(&mut buf).expect("read"), 0, "evicted client sees EOF");

            // Fifth client: the wheel still holds the stale hint
            // `(s1, old_generation)` at the earliest tick. The
            // generation check must skip it (ABA safety) and evict the
            // next LRU, `s0` — not the fresh connection now in `s1`.
            let (_c4, s4) = connect_one(&mut reactor, addr);
            assert_eq!(s4, s0, "stale hint skipped; next LRU evicted");
            assert_eq!(reactor.state.metrics.conns_evicted_total.get(), 2);
            c0.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            assert_eq!(c0.read(&mut buf).expect("read"), 0, "second victim sees EOF");
        }

        #[test]
        fn busy_conn_missing_min_progress_is_killed_with_408() {
            let config = ServerConfig {
                progress_window: Duration::from_millis(50),
                min_progress_bytes: 1000,
                ..ServerConfig::default()
            };
            let (mut reactor, addr) = reactor_with(config, 8);
            let (mut slow, slot) = connect_one(&mut reactor, addr);
            let now = Instant::now();
            {
                let generation = reactor.slab.get(slot).expect("live conn").generation;
                let conn = reactor.slab.get_mut(slot).expect("live conn");
                // Mid-request, window expired, almost no bytes moved: a
                // slowloris client as the reactor would see it.
                conn.phase = Phase::Busy { since: now };
                conn.rbuf = b"POST /estimate HTTP/1.1\r\n".to_vec();
                conn.deadline = now + Duration::from_secs(10);
                conn.progress = 3;
                conn.window_deadline = now - Duration::from_millis(1);
                conn.next_wake = now;
                reactor.wheel.schedule(now, (slot, generation));
            }
            reactor.expire_due();
            assert_eq!(reactor.state.metrics.progress_kills_total.get(), 1);
            assert_eq!(reactor.slab.live, 0, "slow client killed");
            // The kill is typed: a 408 before the close.
            slow.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            let mut body = String::new();
            slow.read_to_string(&mut body).expect("drain response");
            assert!(body.contains("408"), "{body}");
            assert!(body.contains("timeout"), "{body}");
        }

        #[test]
        fn busy_conn_meeting_min_progress_rolls_its_window() {
            let config = ServerConfig {
                progress_window: Duration::from_millis(50),
                min_progress_bytes: 1000,
                ..ServerConfig::default()
            };
            let (mut reactor, addr) = reactor_with(config, 8);
            let (_client, slot) = connect_one(&mut reactor, addr);
            let now = Instant::now();
            {
                let generation = reactor.slab.get(slot).expect("live conn").generation;
                let conn = reactor.slab.get_mut(slot).expect("live conn");
                conn.phase = Phase::Busy { since: now };
                conn.rbuf = b"POST /estimate HTTP/1.1\r\n".to_vec();
                conn.deadline = now + Duration::from_secs(10);
                conn.progress = 5000; // well past the minimum
                conn.window_deadline = now - Duration::from_millis(1);
                conn.next_wake = now;
                reactor.wheel.schedule(now, (slot, generation));
            }
            reactor.expire_due();
            assert_eq!(reactor.state.metrics.progress_kills_total.get(), 0);
            assert_eq!(reactor.slab.live, 1, "progressing client survives");
            let conn = reactor.slab.get(slot).expect("live conn");
            assert_eq!(conn.progress, 0, "window rolled: progress reset");
            assert!(conn.window_deadline > now, "window rolled forward");
        }
    }
}
