#![warn(missing_docs)]

//! Remote tuning for Active Harmony: a TCP daemon and client library.
//!
//! The original Active Harmony is a client/server system: applications
//! connect to a tuning server, fetch configurations to try, and report
//! the performance they measured. This crate restores that shape around
//! the in-process kernel:
//!
//! * [`protocol`] — the message types. A session speaks
//!   `Hello` → `SessionStart` → (`Fetch` → `Report`)* → `SessionEnd`,
//!   with `Sensitivity`, `DbQuery`, and `Stats` (live metrics in
//!   Prometheus text format) available as admin queries.
//! * [`codec`] — the framing: each message is one `u32` big-endian
//!   length prefix followed by that many payload bytes — JSON for
//!   protocols 1–2, the compact [`wire`] binary encoding once `Hello`
//!   negotiates protocol 3.
//! * [`server`] — [`server::TuningDaemon`]: one event-driven reactor
//!   (pipelined requests served on its loop thread, a worker pool for
//!   the few that can wait, peer links it owns on a cluster, a few
//!   hundred bytes per idle connection)
//!   over the [`poll`] readiness layer — `epoll` on Linux, `poll(2)` on
//!   every other Unix.
//!   All sessions share one experience database: each
//!   `SessionStart` is classified against it (the §4.2 warm start) and
//!   each completed session is recorded back into it, so later clients
//!   train on earlier clients' runs. The database persists to disk
//!   across restarts.
//! * [`client`] — [`client::Client`], a blocking client driving the
//!   ask–tell loop over the wire. [`client::ClientBuilder`] adds
//!   connect timeouts, per-request deadlines, and retry with
//!   decorrelated-jitter backoff.
//! * [`fault`] — a fault-injection proxy the resilience suite uses to
//!   cut, truncate, or delay frames on a seeded schedule.
//! * [`cluster`] — multi-daemon mode: a consistent-hash ring routes
//!   sessions and shards recorded runs across peers, recorded runs
//!   and session records (whole at the start, one observation per
//!   `Report` after it) ship between daemons over the `Peer*` message
//!   family, and a surviving peer adopts a dead peer's sessions when
//!   the client's `Resume` lands on it.
//! * [`obs`] — the daemon's metric table, and [`obs::DAEMON_SERIES`]:
//!   every series `Stats` serves, from each crate's table.
//!
//! Sessions survive disconnects: a protocol-v2 server issues a resume
//! token at `SessionStart`, parks the session when its connection drops,
//! and re-attaches it when the client reconnects and sends `Resume`.
//! Replayed `Report`s carry sequence numbers the server deduplicates,
//! and a draining server answers with `Draining`, which clients treat
//! as retryable.
//!
//! ```no_run
//! use harmony_net::client::Client;
//! use harmony_net::protocol::SpaceSpec;
//!
//! let mut client = Client::connect("127.0.0.1:777")?;
//! let started = client.start_session(
//!     SpaceSpec::Rsl("{ harmonyBundle x { int {0 100 1} }}".into()),
//!     "my-workload",
//!     vec![0.4, 0.6],
//!     Some(60),
//! )?;
//! println!("tuning {} parameters", started.space.len());
//! while let Some(proposal) = client.fetch()? {
//!     let performance = 0.0; // measure proposal.values here
//!     client.report(performance)?;
//! }
//! let best = client.end_session()?;
//! println!("best {} at {}", best.best, best.performance);
//! # Ok::<(), harmony_net::NetError>(())
//! ```

pub mod client;
pub mod cluster;
pub mod codec;
mod error;
pub mod fault;
pub mod obs;
#[cfg(unix)]
pub(crate) mod peer;
#[cfg(unix)]
pub mod poll;
pub mod protocol;
#[cfg(unix)]
pub(crate) mod reactor;
pub mod server;
pub mod wire;

pub use client::RetryPolicy;
pub use cluster::ClusterConfig;
pub use error::{ErrorKind, NetError};
pub use protocol::{MIN_SUPPORTED_VERSION, PROTOCOL_VERSION};
pub use wire::WireFormat;
