//! Observability layer for the Proust framework.
//!
//! Five independent building blocks, composed by `proust-stm`, the
//! benchmark harness, and the server:
//!
//! * [`site`] — interned static labels for transactional operations and
//!   lock regions (`"map.put/key-region"`), cheap enough to carry on the
//!   conflict hot path as a `u32`.
//! * [`hist`] — log-bucketed (HDR-style) latency histograms with
//!   concurrent recording and p50/p95/p99 accessors.
//! * [`matrix`] — conflict attribution: every abort is recorded as an
//!   *(aborter-op, victim-op)* pair, and the aggregate exposes the
//!   empirical false-conflict rate under a caller-supplied
//!   commutativity oracle.
//! * [`trace`] — per-thread ring-buffer event trace of the transaction
//!   lifecycle with a runtime 1-in-N sampler and a Chrome trace-event
//!   encoder; while the tracer is disabled each hook costs one relaxed
//!   load.
//! * [`prom`] — Prometheus text exposition encoding (and a tiny
//!   scrape parser) for the server's `/metrics` endpoint.
//!
//! [`json`] is a dependency-free JSON writer/parser so benchmark
//! binaries can emit machine-readable reports without serde (the build
//! environment has no crates.io mirror).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hist;
pub mod json;
pub mod matrix;
pub mod prom;
pub mod site;
pub mod trace;

pub use hist::Histogram;
pub use json::JsonValue;
pub use matrix::{ConflictCell, ConflictMatrix};
pub use prom::{parse_exposition, PromSample, PromWriter, SHARED_NS_BUCKET_BOUNDS};
pub use site::SiteId;
pub use trace::{EventKind, Phase, TraceEvent, Tracer, STAGES};
