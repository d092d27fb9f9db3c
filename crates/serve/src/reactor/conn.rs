//! Per-connection state for the reactor: receive buffer, write queue,
//! and phase/deadline bookkeeping.
//!
//! One [`Conn`] is one state machine stepping read → parse → estimate →
//! write under edge-triggered readiness. The interesting piece is the
//! [`WriteQueue`]: responses serialize into one *reusable* buffer
//! (heads and small bodies inline), while large bodies are kept as the
//! owned `Vec` the handler already built and stitched in by offset —
//! flushing uses `write_vectored` across those segments, so a big
//! `/estimate` batch body is handed to the kernel without ever being
//! copied into the connection buffer.

use std::collections::VecDeque;
use std::io::IoSlice;
use std::net::TcpStream;
use std::time::Instant;

use crate::http::Response;

/// Bodies up to this size are copied inline into the write buffer;
/// larger ones ride out-of-line as their own vectored segment. 8 KiB
/// keeps typical estimate responses inline (one segment, one write)
/// while big batch and `/metrics` bodies skip the copy.
pub(crate) const INLINE_BODY_MAX: usize = 8 * 1024;

/// Most segments a single `write_vectored` submits.
pub(crate) const MAX_IOVECS: usize = 16;

/// What a connection is waiting on; drives which deadline applies.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Between requests: empty buffers, idle deadline.
    Idle,
    /// A request is partially received or a response is partially
    /// flushed; the stricter read deadline applies from `since`.
    Busy {
        /// When the connection left `Idle` (first byte of the pending
        /// request, or the moment a flush started stalling).
        since: Instant,
    },
}

/// One connection owned by a reactor.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Bytes received but not yet framed into a request.
    pub(crate) rbuf: Vec<u8>,
    /// Responses awaiting the socket.
    pub(crate) wq: WriteQueue,
    pub(crate) phase: Phase,
    /// Authoritative deadline; wheel entries are hints checked against
    /// this (lazy deletion).
    pub(crate) deadline: Instant,
    /// Slab generation, so recycled slots ignore stale wheel/epoll keys.
    pub(crate) generation: u64,
    /// Bytes moved (read or written) in the current progress window.
    /// A `Busy` connection that fails to move a minimum number of bytes
    /// per window is a slow-read/slow-write client and gets killed.
    pub(crate) progress: u64,
    /// When the current progress window closes.
    pub(crate) window_deadline: Instant,
    /// Earliest wheel hint planted for this connection; replanting only
    /// happens when the wanted wakeup is earlier than this (lazy
    /// deletion keeps stale later hints harmless).
    pub(crate) next_wake: Instant,
    /// Close once the write queue drains.
    pub(crate) close_after_flush: bool,
    /// Peer sent EOF (or RDHUP): serve what is buffered, then close.
    pub(crate) peer_closed: bool,
    /// The last read stopped at the receive-buffer cap, not at
    /// `WouldBlock`: bytes may be left in the kernel, and edge-triggered
    /// readiness will not announce them again.
    pub(crate) read_paused: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, generation: u64, idle_until: Instant) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wq: WriteQueue::new(),
            phase: Phase::Idle,
            deadline: idle_until,
            generation,
            progress: 0,
            window_deadline: idle_until,
            next_wake: idle_until,
            close_after_flush: false,
            peer_closed: false,
            read_paused: false,
        }
    }
}

/// A body too large to inline, spliced into the logical output stream
/// at byte offset `at` of the head buffer.
struct Tail {
    at: usize,
    body: Vec<u8>,
    written: usize,
}

/// The per-connection output queue (see module docs).
///
/// Logical output order: `buf[..tails[0].at]`, `tails[0].body`,
/// `buf[tails[0].at..tails[1].at]`, `tails[1].body`, …, `buf[last..]`.
/// `written` tracks progress within `buf`; the invariant
/// `written <= tails.front().at` holds because a tail is popped only
/// once fully sent.
pub(crate) struct WriteQueue {
    buf: Vec<u8>,
    written: usize,
    tails: VecDeque<Tail>,
}

impl WriteQueue {
    pub(crate) fn new() -> WriteQueue {
        WriteQueue { buf: Vec::new(), written: 0, tails: VecDeque::new() }
    }

    /// Serializes `response` onto the queue. Consumes the response so a
    /// large body becomes a zero-copy segment; a body copied inline is
    /// handed back, so its buffer can serve the next response.
    pub(crate) fn push(&mut self, response: Response, close: bool) -> Option<Vec<u8>> {
        response.encode_head_into(&mut self.buf, close);
        if response.body.len() > INLINE_BODY_MAX {
            self.tails.push_back(Tail { at: self.buf.len(), body: response.body, written: 0 });
            None
        } else {
            self.buf.extend_from_slice(&response.body);
            Some(response.body)
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.written == self.buf.len() && self.tails.is_empty()
    }

    /// Unsent bytes across all segments.
    pub(crate) fn pending(&self) -> usize {
        let tail_pending: usize = self.tails.iter().map(|t| t.body.len() - t.written).sum();
        self.buf.len() - self.written + tail_pending
    }

    /// Collects the unsent segments, in order, into `out`. Returns how
    /// many slices were filled.
    pub(crate) fn slices<'a>(&'a self, out: &mut [IoSlice<'a>; MAX_IOVECS]) -> usize {
        let mut count = 0;
        let mut cursor = self.written;
        let mut truncated = false;
        for tail in &self.tails {
            if count + 2 > MAX_IOVECS {
                // Later segments must wait for the next write call:
                // emitting the final head span now would reorder bytes.
                truncated = true;
                break;
            }
            if cursor < tail.at {
                if let Some(span) = self.buf.get(cursor..tail.at) {
                    out[count] = IoSlice::new(span);
                    count += 1;
                }
                cursor = tail.at;
            }
            if let Some(rest) = tail.body.get(tail.written..) {
                if !rest.is_empty() {
                    out[count] = IoSlice::new(rest);
                    count += 1;
                }
            }
        }
        if !truncated && count < MAX_IOVECS && cursor < self.buf.len() {
            if let Some(span) = self.buf.get(cursor..) {
                out[count] = IoSlice::new(span);
                count += 1;
            }
        }
        count
    }

    /// Records `n` bytes as sent, in logical order. Fully drained
    /// queues recycle the head buffer's capacity.
    pub(crate) fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let limit = self.tails.front().map_or(self.buf.len(), |t| t.at);
            if self.written < limit {
                let take = n.min(limit - self.written);
                self.written += take;
                n -= take;
                continue;
            }
            let Some(front) = self.tails.front_mut() else {
                break;
            };
            let take = n.min(front.body.len() - front.written);
            front.written += take;
            n -= take;
            if front.written == front.body.len() {
                self.tails.pop_front();
            } else {
                break;
            }
        }
        if self.is_empty() {
            self.buf.clear();
            self.written = 0;
            // A burst of big inline batches must not pin its high-water
            // capacity for an idle keep-alive connection's lifetime.
            if self.buf.capacity() > 4 * INLINE_BODY_MAX {
                self.buf.shrink_to(4 * INLINE_BODY_MAX);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response_with_body(len: usize) -> Response {
        Response::text(200, &"x".repeat(len))
    }

    /// Reassembles the logical stream by draining `n`-byte steps.
    fn drain_all(wq: &mut WriteQueue, step: usize) -> Vec<u8> {
        let mut out = Vec::new();
        while !wq.is_empty() {
            let mut slices: [IoSlice<'_>; MAX_IOVECS] = std::array::from_fn(|_| IoSlice::new(&[]));
            let count = wq.slices(&mut slices);
            assert!(count > 0, "non-empty queue must yield slices");
            let mut take = step.min(wq.pending());
            let mut collected = 0;
            for slice in slices.iter().take(count) {
                if take == 0 {
                    break;
                }
                let part = take.min(slice.len());
                out.extend_from_slice(&slice[..part]);
                take -= part;
                collected += part;
            }
            assert!(collected > 0, "a drain step must make progress");
            wq.advance(collected);
        }
        out
    }

    #[test]
    fn inline_and_tail_responses_keep_wire_order() {
        for step in [1, 7, 64, 1024, 1 << 20] {
            let mut wq = WriteQueue::new();
            let mut expected = Vec::new();
            for (len, close) in [(10, false), (40_000, false), (3, false), (20_000, true)] {
                let response = response_with_body(len);
                response.encode_into(&mut expected, close);
                wq.push(response_with_body(len), close);
            }
            assert_eq!(wq.pending(), expected.len());
            let got = drain_all(&mut wq, step);
            assert_eq!(got, expected, "step {step} reassembly");
        }
    }

    #[test]
    fn large_bodies_become_vectored_segments() {
        let mut wq = WriteQueue::new();
        wq.push(response_with_body(100_000), false);
        let mut slices: [IoSlice<'_>; MAX_IOVECS] = std::array::from_fn(|_| IoSlice::new(&[]));
        // Head span + out-of-line body.
        assert_eq!(wq.slices(&mut slices), 2);
        assert_eq!(slices[1].len(), 100_000);
    }

    #[test]
    fn drained_queue_recycles_and_shrinks() {
        let mut wq = WriteQueue::new();
        for _ in 0..64 {
            wq.push(response_with_body(INLINE_BODY_MAX), false);
        }
        let total = wq.pending();
        wq.advance(total);
        assert!(wq.is_empty());
        assert!(wq.buf.capacity() <= 4 * INLINE_BODY_MAX);
        // Reusable after drain.
        wq.push(response_with_body(5), true);
        assert!(!wq.is_empty());
    }
}
