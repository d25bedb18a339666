#![warn(missing_docs)]

//! Observability substrate for the harmony workspace: structured
//! events and a process-global metrics registry, dependency-free and
//! cheap enough for the tuning hot paths.
//!
//! Two halves:
//!
//! * [`mod@event`] — structured JSONL logging. Build an event with
//!   [`event::event`], attach typed fields, and emit; per-thread
//!   context ([`event::push_context`]) rides along on every event, and
//!   [`event::span`] measures scopes. Nothing is written (or even
//!   allocated) until a sink is installed, so instrumentation can stay
//!   in release builds.
//! * [`mod@metrics`] — atomic [`Counter`](metrics::Counter)s,
//!   [`Gauge`](metrics::Gauge)s, and fixed-bucket
//!   [`Histogram`](metrics::Histogram)s in a get-or-create
//!   [`Registry`](metrics::Registry), with Prometheus-style text
//!   exposition via [`metrics::Registry::encode`]. The
//!   [`metrics::global`] registry is what `harmony-net`'s `Stats`
//!   message serves over the wire. Each instrumented crate declares its
//!   handles once, one row each, in a [`metrics!`] table.
//! * [`trace`] — distributed tracing: span trees with trace/span/parent
//!   IDs and monotonic timestamps, a thread-local current-span context
//!   that composes with [`event::span`], and a bounded flight recorder
//!   retaining the slowest and errored traces for post-hoc dumps.
//!   Events emitted inside a trace carry its `trace_id`, and histogram
//!   buckets record exemplar trace IDs.
//!
//! ```
//! use harmony_obs::event::{event, Level};
//! use harmony_obs::metrics::{global, LATENCY_SECONDS};
//!
//! // Counters work with no setup; events need a sink to go anywhere.
//! let sessions = global().counter("doc_sessions_total", "Sessions served.");
//! sessions.inc();
//! event(Level::Info, "session.start").str("label", "w1").emit();
//!
//! let latency = global().histogram("doc_step_seconds", "Step time.", LATENCY_SECONDS);
//! let _timer = latency.start_timer();
//! assert!(global().encode().contains("doc_sessions_total 1"));
//! ```

pub mod event;
pub mod metrics;
pub mod trace;

pub use event::{event, push_context, span, Level};
pub use metrics::global;
