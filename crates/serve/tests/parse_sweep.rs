//! Split-boundary sweep for the incremental HTTP parser.
//!
//! The reactor feeds `parse_request_bytes` whatever the socket
//! delivered, so request heads, bodies, and pipelined batches arrive
//! split at arbitrary byte boundaries. These tests prove the parser is
//! split-invariant: for every cut point (exhaustively) and for seeded
//! random chunkings, the outcome is identical to parsing the complete
//! buffer in one shot — `NeedMore` until enough bytes exist, then the
//! same request (or the same typed error) regardless of arrival shape.
//! The malformed-input corpus reuses the earlier regression set (bad
//! request lines, bad/overflowing content-length, transfer-encoding,
//! oversized declarations) plus the smuggling shapes of `Content-Length`
//! (a signed value, two headers) and of field lines (whitespace before
//! the colon, an empty or non-token name, obs-fold, and CR, LF or NUL
//! inside a value).

use std::time::Duration;

use twig_serve::http::{parse_request_bytes, Limits, Parsed, ReadOutcome};
use twig_util::SplitMix64;

fn limits() -> Limits {
    Limits {
        max_head_bytes: 256,
        max_body_bytes: 64,
        read_deadline: Duration::from_secs(1),
        idle_deadline: Duration::from_secs(1),
    }
}

/// A canned wire-format request and the fields it must parse to.
struct Canned {
    raw: &'static [u8],
    method: &'static str,
    target: &'static str,
    /// The target with its query string stripped.
    path: &'static str,
    host: Option<&'static str>,
    keep_alive: bool,
    body: &'static [u8],
}

const CANNED: &[Canned] = &[
    Canned {
        raw: b"GET /healthz HTTP/1.1\r\n\r\n",
        method: "GET",
        target: "/healthz",
        path: "/healthz",
        host: None,
        keep_alive: true,
        body: b"",
    },
    // HTTP/1.0 persists only when a `Connection` token asks for it.
    Canned {
        raw: b"GET /healthz HTTP/1.0\r\n\r\n",
        method: "GET",
        target: "/healthz",
        path: "/healthz",
        host: None,
        keep_alive: false,
        body: b"",
    },
    Canned {
        raw: b"POST /estimate HTTP/1.1\r\nhost: t\r\ncontent-length: 9\r\n\r\n{\"q\":\"a\"}",
        method: "POST",
        target: "/estimate",
        path: "/estimate",
        host: Some("t"),
        keep_alive: true,
        body: b"{\"q\":\"a\"}",
    },
    Canned {
        raw: b"POST /admin/reload HTTP/1.0\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
        method: "POST",
        target: "/admin/reload",
        path: "/admin/reload",
        host: None,
        keep_alive: true,
        body: b"",
    },
    // Field names match in any case; values lose surrounding spaces and
    // tabs.
    Canned {
        raw: b"POST /estimate HTTP/1.1\r\nHOST:\t t \r\nCONTENT-LENGTH:2\r\n\r\n{}",
        method: "POST",
        target: "/estimate",
        path: "/estimate",
        host: Some("t"),
        keep_alive: true,
        body: b"{}",
    },
    Canned {
        raw: b"POST /estimate?x=1 HTTP/1.1\r\nHost: twig-serve\r\ncontent-length: 7\r\nConnection: Close\r\n\r\n{\"a\":1}",
        method: "POST",
        target: "/estimate?x=1",
        path: "/estimate",
        host: Some("twig-serve"),
        keep_alive: false,
        body: b"{\"a\":1}",
    },
];

fn assert_is(canned: &Canned, parsed: &Parsed) {
    match parsed {
        Parsed::Request { request, consumed } => {
            assert_eq!(*consumed, canned.raw.len());
            assert_eq!(request.method, canned.method);
            assert_eq!(request.target, canned.target);
            assert_eq!(request.path(), canned.path);
            assert_eq!(request.header("host"), canned.host);
            assert_eq!(request.keep_alive(), canned.keep_alive);
            assert_eq!(request.body, canned.body);
        }
        Parsed::NeedMore => panic!("complete request parsed as NeedMore"),
    }
}

#[test]
fn every_cut_point_yields_need_more_then_the_same_request() {
    let limits = limits();
    for canned in CANNED {
        for cut in 0..canned.raw.len() {
            match parse_request_bytes(&canned.raw[..cut], &limits) {
                Ok(Parsed::NeedMore) => {}
                other => panic!("cut {cut} of {:?}: unexpected {other:?}", canned.target),
            }
        }
        let full = parse_request_bytes(canned.raw, &limits).expect("full request parses");
        assert_is(canned, &full);
    }
}

#[test]
fn headers_split_across_reads_parse_identically() {
    // The same request with trailing pipelined garbage must consume
    // exactly its own bytes and leave the rest untouched.
    let limits = limits();
    for canned in CANNED {
        let mut wire = canned.raw.to_vec();
        wire.extend_from_slice(b"GET /next HTTP/1.1\r\n");
        let parsed = parse_request_bytes(&wire, &limits).expect("framed request parses");
        assert_is(canned, &parsed);
    }
}

#[test]
fn pipelined_back_to_back_requests_frame_one_at_a_time() {
    let limits = limits();
    // Concatenate every canned request into one wire buffer, then feed
    // it through the parse-drain loop the reactor runs.
    let mut wire: Vec<u8> = Vec::new();
    for canned in CANNED {
        wire.extend_from_slice(canned.raw);
    }
    for split in 0..=wire.len() {
        // Deliver in two reads split at every boundary.
        let mut buffer: Vec<u8> = Vec::new();
        let mut seen = 0;
        for chunk in [&wire[..split], &wire[split..]] {
            buffer.extend_from_slice(chunk);
            loop {
                match parse_request_bytes(&buffer, &limits).expect("valid pipeline") {
                    Parsed::NeedMore => break,
                    Parsed::Request { request, consumed } => {
                        let canned = &CANNED[seen];
                        assert_eq!(request.method, canned.method, "split {split}");
                        assert_eq!(request.target, canned.target, "split {split}");
                        assert_eq!(request.body, canned.body, "split {split}");
                        buffer.drain(..consumed);
                        seen += 1;
                    }
                }
            }
        }
        assert_eq!(seen, CANNED.len(), "split {split} lost a request");
        assert!(buffer.is_empty(), "split {split} left residue");
    }
}

#[test]
fn seeded_chunk_sweep_reassembles_long_pipelines() {
    let limits = limits();
    let mut wire: Vec<u8> = Vec::new();
    let mut expected = Vec::new();
    // A longer pipeline: 12 requests cycling through the canned set.
    for index in 0..12 {
        let canned = &CANNED[index % CANNED.len()];
        wire.extend_from_slice(canned.raw);
        expected.push((canned.method, canned.target, canned.body));
    }
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let mut buffer: Vec<u8> = Vec::new();
        let mut seen = Vec::new();
        let mut cursor = 0;
        while cursor < wire.len() {
            // Chunk sizes from 1 byte to ~40: most cuts land mid-head
            // or mid-body.
            let take = (1 + rng.next_below(40) as usize).min(wire.len() - cursor);
            buffer.extend_from_slice(&wire[cursor..cursor + take]);
            cursor += take;
            loop {
                match parse_request_bytes(&buffer, &limits).expect("valid pipeline") {
                    Parsed::NeedMore => break,
                    Parsed::Request { request, consumed } => {
                        seen.push((
                            request.method.to_owned(),
                            request.target.to_owned(),
                            request.body.to_vec(),
                        ));
                        buffer.drain(..consumed);
                    }
                }
            }
        }
        assert_eq!(seen.len(), expected.len(), "seed {seed}");
        for (got, want) in seen.iter().zip(&expected) {
            assert_eq!((got.0.as_str(), got.1.as_str(), got.2.as_slice()), *want, "seed {seed}");
        }
    }
}

/// The malformed corpus: each entry must produce its error class once
/// enough bytes have arrived, and `NeedMore` (never a wrong success, a
/// wrong error, or a panic) at every earlier cut.
#[test]
fn malformed_corpus_errors_are_split_stable() {
    type CorpusEntry<'a> = (&'a [u8], fn(&ReadOutcome) -> bool);
    let limits = limits();
    let overflow = format!("POST / HTTP/1.1\r\ncontent-length: {}99\r\n\r\n", u64::MAX);
    let corpus: &[CorpusEntry<'_>] = &[
        (b"NOT HTTP\r\n\r\n", |e| matches!(e, ReadOutcome::Malformed(_))),
        (b"GET /x HTTP/2\r\n\r\n", |e| matches!(e, ReadOutcome::Malformed(_))),
        (b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        (b"POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        (overflow.as_bytes(), |e| matches!(e, ReadOutcome::Malformed(_))),
        (b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // `usize::from_str` takes a leading `+`; framing must not.
        (b"POST / HTTP/1.1\r\ncontent-length: +2\r\n\r\nab", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // Two lengths: framing by either would desync a pipeline.
        (b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 5\r\n\r\nabcde", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // Strict field lines (RFC 9112 §5.1–5.2, RFC 9110 §5.1/§5.5).
        // Whitespace before the colon: a lenient hop reads the length.
        (b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // An empty field name.
        (b"GET / HTTP/1.1\r\n: x\r\n\r\n", |e| matches!(e, ReadOutcome::Malformed(_))),
        // A name that is not a token.
        (b"POST / HTTP/1.1\r\nContent Length: 2\r\n\r\n{}", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // obs-fold: a lenient hop unfolds a `Content-Length`.
        (b"POST / HTTP/1.1\r\nX-A: a\r\n Content-Length: 2\r\n\r\n{}", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // A bare LF inside a value: a lenient hop frames an empty body
        // and reads `{}` as the next request.
        (b"POST / HTTP/1.1\r\nX-A: a\nContent-Length: 2\r\n\r\n{}", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // A CR or a NUL inside a value.
        (b"POST / HTTP/1.1\r\nX-A: a\rContent-Length: 2\r\n\r\n{}", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        (b"POST / HTTP/1.1\r\nX-A: a\0b\r\ncontent-length: 2\r\n\r\n{}", |e| {
            matches!(e, ReadOutcome::Malformed(_))
        }),
        // A bare LF ending the request line.
        (b"GET / HTTP/1.1\nhost: t\r\n\r\n", |e| matches!(e, ReadOutcome::Malformed(_))),
        // Declared body over the 64-byte limit: rejected from the head
        // alone, before any body byte.
        (b"POST / HTTP/1.1\r\ncontent-length: 999\r\n\r\n", |e| {
            matches!(e, ReadOutcome::BodyTooLarge { declared: 999 })
        }),
    ];
    for (index, (raw, is_expected)) in corpus.iter().enumerate() {
        for cut in 0..raw.len() {
            match parse_request_bytes(&raw[..cut], &limits) {
                Ok(Parsed::NeedMore) => {}
                Ok(other) => panic!("corpus {index} cut {cut}: parsed {other:?}"),
                // An error surfacing early is fine only if it is the
                // expected class (e.g. an oversized declaration is known
                // the instant the head completes).
                Err(outcome) => {
                    assert!(is_expected(&outcome), "corpus {index} cut {cut}: {outcome:?}");
                }
            }
        }
        match parse_request_bytes(raw, &limits) {
            Err(outcome) => assert!(is_expected(&outcome), "corpus {index}: {outcome:?}"),
            Ok(other) => panic!("corpus {index}: accepted as {other:?}"),
        }
    }
}

/// An over-limit head must flip to `HeadTooLarge` exactly when it
/// exceeds the limit, at any arrival granularity — whether it never
/// terminates or arrives terminated in one read.
#[test]
fn unterminated_head_grows_into_head_too_large() {
    let limits = limits();
    let mut unterminated = b"GET /".to_vec();
    unterminated.resize(unterminated.len() + 512, b'a');
    let mut terminated = b"GET /".to_vec();
    terminated.resize(512 - b" HTTP/1.1\r\n\r\n".len(), b'a');
    terminated.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert_eq!(terminated.len(), 512);
    for raw in [unterminated, terminated] {
        for cut in 0..=raw.len() {
            match parse_request_bytes(&raw[..cut], &limits) {
                Ok(Parsed::NeedMore) => assert!(cut <= limits.max_head_bytes, "cut {cut}"),
                Err(ReadOutcome::HeadTooLarge) => {
                    assert!(cut > limits.max_head_bytes, "cut {cut}");
                }
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }
}
