//! twig-serve: a dependency-free twig-selectivity estimation server.
//!
//! Wraps the offline estimator pipeline (`twig-core`) in a long-running
//! network service built entirely on `std`:
//!
//! - [`server::Server`] — an HTTP/1.1 service over `std::net` hosted on
//!   per-core epoll reactor threads (Linux only; elsewhere `run` fails
//!   with `Unsupported`): each reactor owns a `SO_REUSEPORT` listener
//!   shard and a slab of nonblocking connection state machines with
//!   incremental request parsing, pipelining, and vectored response
//!   writes.
//!   Admission control is explicit (per-reactor connection cap → `503`
//!   with escalating `Retry-After`, written inline), deadlines ride a
//!   timer wheel, and shutdown drains in-flight work gracefully.
//! - [`registry::SummaryRegistry`] — named flat (`TWIGFLT1`) CST
//!   summaries, memory-mapped behind an `RwLock`, hot-reloadable via
//!   `POST /admin/reload` without dropping traffic (a failed reload
//!   keeps the old summary serving).
//! - [`json`] — a small strict JSON parser/serializer whose `f64`
//!   rendering is shortest-round-trip, so served estimates are
//!   bit-identical to `twig estimate` output.
//! - [`metrics::ServeMetrics`] — atomic counters plus log-bucketed
//!   latency histograms (and per-reactor accept/connection gauges),
//!   exposed at `GET /metrics` in the Prometheus text format.
//! - [`loadgen`] — a closed-loop load generator (also shipped as the
//!   `loadgen` binary) with a deterministic seeded workload, optional
//!   request pipelining, and exact latency percentiles.
//!
//! Endpoints: `POST /estimate` (single query or batch; any
//! [`twig_core::Algorithm`] and count kind), `GET /healthz`,
//! `GET /summaries`, `GET /metrics`, `POST /admin/reload`,
//! `POST /admin/shutdown`. See `DESIGN.md` §8 and §15 for the full
//! contract.

pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
mod plan;
mod reactor;
pub mod registry;
pub mod server;
pub mod snapshot;

/// `RLIMIT_NOFILE` inspection and adjustment (Linux), re-exported for
/// fd-exhaustion tests and the chaos harness: lower the soft limit,
/// drive the server into `EMFILE`, and restore it afterwards.
#[cfg(target_os = "linux")]
pub mod rlimit {
    pub use crate::reactor::sys::{nofile_limit, set_nofile_limit, Rlimit};
}

pub use json::{Json, JsonError};
pub use loadgen::{ConnectionLatency, LoadgenConfig, LoadgenReport};
pub use metrics::ServeMetrics;
pub use registry::{error_chain, LoadError, LoadOutcome, SummaryRegistry, SummarySpec};
pub use server::{Server, ServerConfig, ServerHandle};
pub use snapshot::{SnapshotError, SnapshotStore};
