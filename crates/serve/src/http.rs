//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Implements exactly the subset the serve protocol needs, on both the
//! server side ([`parse_request_bytes`], [`Response`]) and the client
//! side (`write_request` / `read_response`, used by `loadgen` and the
//! integration tests):
//!
//! - request/status line + headers, terminated by a blank line,
//! - strict field lines (RFC 9112 §5.1–5.2, RFC 9110 §5.1/§5.5): a
//!   field name is a non-empty token followed at once by `:`, so
//!   whitespace before the colon, an empty or non-token name and an
//!   obs-fold continuation line are malformed, and so is a CR, LF or NUL
//!   inside a value — every line ends in CRLF, and a bare LF can never
//!   hide a second header inside the first,
//! - bodies framed by one `Content-Length` of ASCII digits only: a sign,
//!   a list or a second `Content-Length` header is malformed, so two
//!   hops can never disagree on where a request ends (the server never
//!   sends chunked),
//! - `Connection` read as a comma-separated token list: HTTP/1.1 keeps
//!   the connection open unless a token is `close`, HTTP/1.0 only when
//!   one is `keep-alive` (RFC 9112 §9.3),
//! - hard limits on header and body size,
//! - client-side deadlines: the blocking response reader runs its
//!   socket with a short read timeout and checks the idle and read
//!   deadlines at that cadence.
//!
//! Server-side parsing is *incremental*: [`parse_request_bytes`]
//! inspects a receive buffer and either yields one complete request
//! plus the byte count it consumed, or asks for more bytes — it never
//! loses data. That is what makes HTTP/1.1 pipelining work: bytes past
//! one complete request stay in the buffer and frame the next one. The
//! reactor feeds it whatever each nonblocking read delivered, framing
//! every complete request of a read by offset before it drains the
//! consumed prefix once.
//!
//! Parsing allocates nothing. A [`Request`] borrows its method, target,
//! field lines and body from the receive buffer, and the framing facts
//! (`Content-Length`, `Transfer-Encoding`, `Connection`) are read in the
//! same pass over the head that checks each line.
//!
//! A [`Response`] writes its head straight into the caller's buffer, its
//! status and length as digits pushed in place, so encoding allocates
//! nothing beyond what the buffer grows by.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use twig_util::cast::size_to_u64;

use crate::json::write_digits;

/// Read-side limits and deadlines for one connection.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of declared body.
    pub max_body_bytes: usize,
    /// Deadline for receiving a complete request once its first byte
    /// arrived.
    pub read_deadline: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(30),
        }
    }
}

/// Why reading a request (or response) stopped.
#[derive(Debug)]
pub enum ReadOutcome {
    /// Peer closed the connection cleanly before sending anything.
    Closed,
    /// No bytes arrived within the idle deadline.
    IdleTimeout,
    /// A request started arriving but did not complete in time.
    Timeout,
    /// Head (request line + headers) exceeded `max_head_bytes`.
    HeadTooLarge,
    /// Declared body exceeds `max_body_bytes`.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
    },
    /// The bytes are not parseable HTTP.
    Malformed(&'static str),
    /// Transport error.
    Io(io::Error),
}

impl std::fmt::Display for ReadOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadOutcome::Closed => write!(f, "connection closed"),
            ReadOutcome::IdleTimeout => write!(f, "idle timeout"),
            ReadOutcome::Timeout => write!(f, "request read timed out"),
            ReadOutcome::HeadTooLarge => write!(f, "request head too large"),
            ReadOutcome::BodyTooLarge { declared } => {
                write!(f, "request body too large ({declared} bytes declared)")
            }
            ReadOutcome::Malformed(what) => write!(f, "malformed request: {what}"),
            ReadOutcome::Io(err) => write!(f, "I/O error: {err}"),
        }
    }
}

/// A parsed request, borrowing every part from the buffer it was
/// framed in.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The method token (`GET`, `POST`, …) as sent.
    pub method: &'a str,
    /// The request target (path + optional query), as sent.
    pub target: &'a str,
    /// The field lines as sent, CRLF-separated (empty when the request
    /// has no headers). Every line was checked to be `name: value`.
    pub fields: &'a str,
    /// The body (empty when no `Content-Length`).
    pub body: &'a [u8],
    /// Whether the request line said `HTTP/1.0` rather than `HTTP/1.1`.
    pub http_1_0: bool,
    /// Whether the connection persists after this request, from the
    /// version and the `Connection` tokens.
    keep_alive: bool,
}

impl<'a> Request<'a> {
    /// First value of header `name` (any case), without surrounding
    /// whitespace.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.fields.split("\r\n").find_map(|line| {
            let (field, value) = line.split_once(':')?;
            field.eq_ignore_ascii_case(name).then(|| value.trim_matches([' ', '\t']))
        })
    }

    /// Whether the connection should be kept open after responding:
    /// HTTP/1.1 persists unless a `Connection` token is `close`, HTTP/1.0
    /// only when one is `keep-alive`.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// The path portion of the target (query string stripped).
    #[must_use]
    pub fn path(&self) -> &'a str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => self.target,
        }
    }
}

/// A token character (RFC 9110 §5.6.2): what method and field names are
/// made of.
fn is_tchar(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&byte)
}

/// Granularity of the client read loop: the socket read timeout.
/// Deadline checks happen at this cadence.
const POLL_TICK: Duration = Duration::from_millis(50);

/// True when the error is the platform's "read timed out" signal.
fn is_timeout(err: &io::Error) -> bool {
    matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads bytes until `buffer` contains a full head (`\r\n\r\n`),
/// returning the index just past the terminator.
fn read_head(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    limits: &Limits,
) -> Result<usize, ReadOutcome> {
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return Err(ReadOutcome::Malformed("cannot set read timeout"));
    }
    let idle_start = Instant::now();
    let mut first_byte_at: Option<Instant> = None;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(done) = find_head_end(buffer) {
            return Ok(done);
        }
        if buffer.len() > limits.max_head_bytes {
            return Err(ReadOutcome::HeadTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buffer.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed("connection closed mid-head")
                });
            }
            Ok(n) => {
                if first_byte_at.is_none() {
                    first_byte_at = Some(Instant::now());
                }
                // A sane `Read` never returns more than the buffer
                // holds; map a broken impl to an error, not a panic.
                match chunk.get(..n) {
                    Some(filled) => buffer.extend_from_slice(filled),
                    None => return Err(ReadOutcome::Malformed("read length out of range")),
                }
            }
            Err(err) if is_timeout(&err) => match first_byte_at {
                Some(started) => {
                    if started.elapsed() > limits.read_deadline {
                        return Err(ReadOutcome::Timeout);
                    }
                }
                None => {
                    if idle_start.elapsed() > limits.idle_deadline {
                        return Err(ReadOutcome::IdleTimeout);
                    }
                }
            },
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(ReadOutcome::Io(err)),
        }
    }
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n").map(|at| at + 4)
}

/// Whether `buffer` already holds a complete request head (used to
/// distinguish mid-head from mid-body EOF in the reactor).
pub(crate) fn head_complete(buffer: &[u8]) -> bool {
    find_head_end(buffer).is_some()
}

/// Reads body bytes until `buffer` holds `head_end + length` bytes.
fn read_body(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    head_end: usize,
    length: usize,
    limits: &Limits,
) -> Result<(), ReadOutcome> {
    // `length` is the peer's own content-length claim; unchecked addition
    // here once wrapped on a hostile declaration (the PR 3 overflow bug).
    let want =
        head_end.checked_add(length).ok_or(ReadOutcome::Malformed("content-length overflow"))?;
    let started = Instant::now();
    let mut chunk = [0u8; 16 * 1024];
    while buffer.len() < want {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadOutcome::Malformed("connection closed mid-body")),
            Ok(n) => match chunk.get(..n) {
                Some(filled) => buffer.extend_from_slice(filled),
                None => return Err(ReadOutcome::Malformed("read length out of range")),
            },
            Err(err) if is_timeout(&err) => {
                if started.elapsed() > limits.read_deadline {
                    return Err(ReadOutcome::Timeout);
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(ReadOutcome::Io(err)),
        }
    }
    Ok(())
}

/// Outcome of one [`parse_request_bytes`] pass over a receive buffer.
#[derive(Debug)]
pub enum Parsed<'a> {
    /// The buffer does not yet hold one complete request.
    NeedMore,
    /// One complete request; the first `consumed` buffer bytes framed it
    /// (pipelined requests queue behind them untouched).
    Request {
        /// The parsed request, borrowed from the buffer.
        request: Request<'a>,
        /// Bytes of the buffer this request consumed (head + body).
        consumed: usize,
    },
}

/// What one pass over the field lines learned.
#[derive(Default)]
struct Framing {
    /// The first malformed line, if any.
    bad_line: Option<&'static str>,
    /// The one `Content-Length`, once read.
    length: Option<usize>,
    bad_length: bool,
    duplicate_length: bool,
    transfer_encoding: bool,
    close: bool,
    keep_alive: bool,
}

impl Framing {
    /// Checks one field line and notes what it says about framing.
    fn field(&mut self, line: &[u8]) {
        let name_len = line.iter().position(|&byte| !is_tchar(byte)).unwrap_or(line.len());
        let (name, rest) = line.split_at(name_len);
        let problem = match (line.first(), rest.split_first()) {
            (Some(b' ' | b'\t'), _) => Some("obs-fold line"),
            (_, Some((b':', value))) if !name.is_empty() => {
                // Lines end at LF, so a value can only hide a CR or a NUL.
                if value.iter().any(|&byte| matches!(byte, b'\r' | 0)) {
                    Some("CR or NUL in a header value")
                } else {
                    self.note(name, trim_ows(value));
                    None
                }
            }
            _ => Some("bad header line"),
        };
        if self.bad_line.is_none() {
            self.bad_line = problem;
        }
    }

    fn note(&mut self, name: &[u8], value: &[u8]) {
        if name.eq_ignore_ascii_case(b"content-length") {
            if self.length.is_some() || self.bad_length {
                self.duplicate_length = true;
            }
            // Digits only: a sign, a list or an overflow is malformed.
            let parsed = value.iter().try_fold(None, |sum: Option<usize>, &byte| {
                let digit = usize::from(byte.checked_sub(b'0').filter(|digit| *digit < 10)?);
                sum.unwrap_or(0).checked_mul(10)?.checked_add(digit).map(Some)
            });
            match parsed.flatten() {
                Some(length) => self.length = Some(length),
                None => self.bad_length = true,
            }
        } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
            self.transfer_encoding = true;
        } else if name.eq_ignore_ascii_case(b"connection") {
            for token in value.split(|&byte| byte == b',').map(trim_ows) {
                self.close |= token.eq_ignore_ascii_case(b"close");
                self.keep_alive |= token.eq_ignore_ascii_case(b"keep-alive");
            }
        }
    }
}

/// `bytes` without leading and trailing spaces and tabs.
fn trim_ows(mut bytes: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = bytes {
        bytes = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = bytes {
        bytes = rest;
    }
    bytes
}

/// Parses at most one request from the front of `buffer`.
///
/// Incremental: safe to call after every partial read. Limit violations
/// (`HeadTooLarge`, `BodyTooLarge`) are detected as early as the bytes
/// allow — an oversized declared body is rejected from its head alone,
/// before any body byte arrives. A head longer than `max_head_bytes`
/// (terminator included) is `HeadTooLarge` whether it arrived whole or
/// in pieces, so arrival shape never decides the outcome. The head is
/// walked once, line by line: each line is checked as it is found, and
/// the blank line that ends the head ends the walk.
pub fn parse_request_bytes<'a>(
    buffer: &'a [u8],
    limits: &Limits,
) -> Result<Parsed<'a>, ReadOutcome> {
    // The head, terminator included, must fit in the first
    // `max_head_bytes` bytes.
    let window = buffer.get(..limits.max_head_bytes).unwrap_or(buffer);
    let offset = |rest: &[u8]| window.len() - rest.len();
    let mut framing = Framing::default();
    let mut request_line = None;
    let mut fields = 0..0;
    let mut rest = window;
    loop {
        let Some(lf) = rest.iter().position(|&byte| byte == b'\n') else {
            return if buffer.len() > limits.max_head_bytes {
                Err(ReadOutcome::HeadTooLarge)
            } else {
                Ok(Parsed::NeedMore)
            };
        };
        let (line, tail) = rest.split_at(lf);
        let line_start = offset(rest);
        rest = tail.get(1..).unwrap_or_default();
        let Some(line) = line.strip_suffix(b"\r") else {
            framing.bad_line = framing.bad_line.or(Some("bare LF in head"));
            continue;
        };
        if line.is_empty() {
            break;
        }
        if request_line.is_none() {
            request_line = Some(line_start..line_start + line.len());
            fields = offset(rest)..offset(rest);
        } else {
            framing.field(line);
            // Up to the CRLF of the last field line.
            fields.end = line_start + line.len();
        }
    }
    let body_start = offset(rest);
    let head = std::str::from_utf8(window.get(..body_start).unwrap_or_default())
        .map_err(|_| ReadOutcome::Malformed("head is not UTF-8"))?;
    let request_line = request_line.and_then(|line| str::get(head, line)).unwrap_or_default();
    let (method, target, http_1_0) = parse_request_line(request_line)?;
    if let Some(problem) = framing.bad_line {
        return Err(ReadOutcome::Malformed(problem));
    }
    if framing.duplicate_length {
        return Err(ReadOutcome::Malformed("duplicate content-length"));
    }
    if framing.bad_length {
        return Err(ReadOutcome::Malformed("bad content-length"));
    }
    let length = framing.length.unwrap_or(0);
    if length > limits.max_body_bytes {
        return Err(ReadOutcome::BodyTooLarge { declared: length });
    }
    if framing.transfer_encoding {
        return Err(ReadOutcome::Malformed("transfer-encoding not supported"));
    }
    let body_end =
        body_start.checked_add(length).ok_or(ReadOutcome::Malformed("content-length overflow"))?;
    let Some(body) = buffer.get(body_start..body_end) else {
        return Ok(Parsed::NeedMore);
    };
    let request = Request {
        method,
        target,
        fields: str::get(head, fields).unwrap_or_default(),
        body,
        http_1_0,
        keep_alive: !framing.close && (!http_1_0 || framing.keep_alive),
    };
    Ok(Parsed::Request { request, consumed: body_end })
}

/// Splits a request line into method, target and version: a token, a
/// target without controls, and `HTTP/1.1` or `HTTP/1.0`, separated by
/// single spaces.
fn parse_request_line(line: &str) -> Result<(&str, &str, bool), ReadOutcome> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None)
            if !m.is_empty()
                && m.bytes().all(is_tchar)
                && !t.is_empty()
                && !t.bytes().any(|byte| byte.is_ascii_control()) =>
        {
            (m, t, v)
        }
        _ => return Err(ReadOutcome::Malformed("bad request line")),
    };
    let http_1_0 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(ReadOutcome::Malformed("unsupported HTTP version")),
    };
    Ok((method, target, http_1_0))
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length` and `Connection`
    /// are emitted automatically).
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// MIME type of the body.
    pub content_type: &'static str,
}

/// The extra headers of a fresh response: none (a `Vec` allocates
/// only once a header is added).
const NO_HEADERS: Vec<(&'static str, String)> = Vec::new();

impl Response {
    /// A JSON response around a body already rendered into `body`.
    pub(crate) fn json_rendered(status: u16, body: Vec<u8>) -> Response {
        Response { status, headers: NO_HEADERS, body, content_type: "application/json" }
    }

    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, value: &crate::json::Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: value.render().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// Appends just the head's wire form (status line through blank
    /// line) to `out`; the reactor's write queue splices large bodies in
    /// as their own vectored segment.
    pub(crate) fn encode_head_into(&self, out: &mut Vec<u8>, close: bool) {
        out.extend_from_slice(b"HTTP/1.1 ");
        write_digits(out, u64::from(self.status));
        out.push(b' ');
        out.extend_from_slice(reason(self.status).as_bytes());
        out.extend_from_slice(b"\r\ncontent-type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\ncontent-length: ");
        write_digits(out, size_to_u64(self.body.len()));
        out.extend_from_slice(if close {
            b"\r\nconnection: close\r\n".as_slice()
        } else {
            b"\r\nconnection: keep-alive\r\n".as_slice()
        });
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }

    /// Appends the full wire form (head + body) to `out`.
    ///
    /// The reactor serializes every response into a reusable
    /// per-connection write buffer and flushes on writability; pipelined
    /// responses simply append in order.
    pub fn encode_into(&self, out: &mut Vec<u8>, close: bool) {
        self.encode_head_into(out, close);
        out.extend_from_slice(&self.body);
    }

    /// Serializes the response to `stream`. `close` controls the
    /// `Connection` header.
    pub fn write_to(&self, stream: &mut TcpStream, close: bool) -> io::Result<()> {
        let mut head = Vec::new();
        self.encode_head_into(&mut head, close);
        if let Some(fault) = twig_util::failpoint!("http.write") {
            if let twig_util::failpoint::Fault::Partial(keep_percent) = fault {
                // Write a prefix of the head, then fail: the client
                // sees a torn response on a closed socket.
                let cap = usize::try_from(keep_percent).unwrap_or(100).min(100);
                if let Some((torn, _rest)) = head.split_at_checked(head.len() * cap / 100) {
                    let _ = stream.write_all(torn);
                }
            }
            return Err(injected("http.write"));
        }
        stream.write_all(&head)?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The error value injected by `http.*` failpoints; compiled in default
/// builds too (the failpoint arms fold to unreachable code there).
fn injected(point: &str) -> io::Error {
    io::Error::other(format!("injected fault at {point}"))
}

/// Reason phrase for the status codes the server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

// ---------------------------------------------------------------------
// Client side (loadgen, tests)
// ---------------------------------------------------------------------

/// Appends one encoded client request (head + body) to `out` without
/// touching the socket — callers batch several into one write when
/// pipelining.
pub fn encode_request(out: &mut Vec<u8>, method: &str, target: &str, body: &[u8]) {
    use std::io::Write as _;
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "{method} {target} HTTP/1.1\r\nhost: twig-serve\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

/// Writes one client request with an optional body (a single syscall:
/// head and body go out together).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut wire = Vec::with_capacity(96 + body.len());
    encode_request(&mut wire, method, target, body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// A parsed client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    #[must_use]
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from `stream` (client side). Any bytes read past
/// the response are discarded with the internal buffer, so this is only
/// correct when at most one response is in flight on the connection;
/// pipelined clients must use [`read_response_pipelined`].
pub fn read_response(
    stream: &mut TcpStream,
    limits: &Limits,
) -> Result<ClientResponse, ReadOutcome> {
    read_response_pipelined(stream, &mut Vec::new(), limits)
}

/// Reads one response from a connection that may carry several
/// (HTTP/1.1 pipelining): a single socket read can deliver the tail of
/// response N together with the head of response N+1, so the caller
/// owns `buffer` for the connection's lifetime and exactly one
/// response's bytes are drained from it per call. Reset the buffer on
/// reconnect.
pub fn read_response_pipelined(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    limits: &Limits,
) -> Result<ClientResponse, ReadOutcome> {
    let head_end = read_head(stream, buffer, limits)?;
    // Same discipline as the server side: the response bytes are peer
    // input, so the head boundary is checked rather than trusted.
    let head_bytes = buffer
        .get(..head_end.saturating_sub(4))
        .ok_or(ReadOutcome::Malformed("head boundary out of range"))?;
    let head =
        std::str::from_utf8(head_bytes).map_err(|_| ReadOutcome::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse::<u16>().map_err(|_| ReadOutcome::Malformed("bad status code"))?
        }
        _ => return Err(ReadOutcome::Malformed("bad status line")),
    };
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadOutcome::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if length > limits.max_body_bytes {
        return Err(ReadOutcome::BodyTooLarge { declared: length });
    }
    read_body(stream, buffer, head_end, length, limits)?;
    let body_end =
        head_end.checked_add(length).ok_or(ReadOutcome::Malformed("content-length overflow"))?;
    let body = buffer
        .get(head_end..body_end)
        .ok_or(ReadOutcome::Malformed("body shorter than content-length"))?
        .to_vec();
    // Consume exactly this response; pipelined successors stay queued.
    buffer.drain(..body_end);
    Ok(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::net::TcpListener;

    /// Loopback pair: returns (client, server) connected streams.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn tight_limits() -> Limits {
        Limits {
            max_head_bytes: 1024,
            max_body_bytes: 64,
            read_deadline: Duration::from_millis(400),
            idle_deadline: Duration::from_millis(400),
        }
    }

    #[test]
    fn response_roundtrips_through_client_reader() {
        let (mut client, mut server) = pair();
        let response = Response::text(200, "hello").with_header("retry-after", "1".into());
        response.write_to(&mut server, false).unwrap();
        let parsed = read_response(&mut client, &tight_limits()).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body_text(), "hello");
        assert_eq!(parsed.header("retry-after"), Some("1"));
        assert_eq!(parsed.header("connection"), Some("keep-alive"));
    }

    #[test]
    fn every_encoder_writes_the_golden_bytes() {
        let cases: [(Response, bool, &[u8]); 2] = [
            (
                Response::json(200, &Json::Arr(vec![Json::Num(0.25)]))
                    .with_header("x-twig-stale-generation", "7".into()),
                false,
                b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 6\r\n\
                  connection: keep-alive\r\nx-twig-stale-generation: 7\r\n\r\n[0.25]",
            ),
            (
                Response::text(503, "busy").with_header("retry-after", "1".into()),
                true,
                b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: text/plain; charset=utf-8\r\n\
                  content-length: 4\r\nconnection: close\r\nretry-after: 1\r\n\r\nbusy",
            ),
        ];
        for (response, close, golden) in cases {
            let mut whole = b"queued".to_vec();
            response.encode_into(&mut whole, close);
            assert_eq!(whole.strip_prefix(b"queued"), Some(golden));

            let mut spliced = Vec::new();
            response.encode_head_into(&mut spliced, close);
            spliced.extend_from_slice(&response.body);
            assert_eq!(spliced, golden);

            let (mut client, mut server) = pair();
            response.write_to(&mut server, close).unwrap();
            drop(server);
            let mut written = Vec::new();
            client.read_to_end(&mut written).unwrap();
            assert_eq!(written, golden);
        }
    }

    #[test]
    fn client_read_reports_close_and_idle() {
        // Clean close before any byte.
        let (mut client, server) = pair();
        drop(server);
        assert!(matches!(read_response(&mut client, &tight_limits()), Err(ReadOutcome::Closed)));

        // Silent peer: the idle deadline fires.
        let (mut client, _server) = pair();
        assert!(matches!(
            read_response(&mut client, &tight_limits()),
            Err(ReadOutcome::IdleTimeout)
        ));
    }

    #[test]
    fn partial_response_head_times_out() {
        let (mut client, mut server) = pair();
        server.write_all(b"HTTP/1.1 200 O").unwrap();
        let started = Instant::now();
        assert!(matches!(read_response(&mut client, &tight_limits()), Err(ReadOutcome::Timeout)));
        assert!(started.elapsed() < Duration::from_secs(3));
    }
}
