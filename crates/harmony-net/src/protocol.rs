//! Wire messages.
//!
//! Each frame carries one [`Request`] (client → server) or one
//! [`Response`] (server → client), JSON-encoded with externally-tagged
//! enums: `"Fetch"`, `{"Report":{"performance":1.5}}`, and so on.
//!
//! A conversation:
//!
//! ```text
//! client                          server
//!   Hello            ──────────▶
//!                    ◀──────────   Hello
//!   SessionStart     ──────────▶           classify vs experience db
//!                    ◀──────────   SessionStarted (authoritative space)
//!   Fetch            ──────────▶
//!                    ◀──────────   Config { values, iteration }
//!   Report           ──────────▶
//!                    ◀──────────   Reported
//!   …                                      until Fetch answers Done
//!   SessionEnd       ──────────▶           record run into the db
//!                    ◀──────────   SessionSummary { best, … }
//! ```
//!
//! Adding a message is one variant here, whose serde shape is its JSON
//! form, plus one row in [`crate::wire`]'s table: the next unused tag
//! and the fields in binary order. The build fails until the row exists;
//! [`Request::kind`], the per-kind metrics and
//! [`crate::wire::response_wire_kind`] follow from it.

use harmony::history::RunHistory;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Newest protocol version spoken by this build; bump on any message
/// change. Version 2 added `Resume`/`Resumed`, `Draining`, report
/// sequence numbers, and session tokens; later v2 builds additionally
/// speak the additive [`Request::Traced`] wrapper and
/// [`Request::TraceDump`] (v1 clients are untouched — a request
/// arriving without trace context starts a fresh root trace
/// server-side). Version 3 changes no message semantics at all: it
/// switches the payload encoding from JSON to the compact binary format
/// in [`crate::wire`] once `Hello` negotiation lands on it (the `Hello`
/// exchange itself always travels in the pre-negotiation format, JSON
/// on a fresh connection, so both sides flip on the same frame
/// boundary).
pub const PROTOCOL_VERSION: u32 = 3;

/// Oldest version this build still serves. `Hello` negotiation picks the
/// highest version inside both sides' ranges.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

/// Pick the protocol version for a connection: the highest version in
/// both the client's `[client_min, client_max]` and this build's
/// `[`[`MIN_SUPPORTED_VERSION`]`, `[`PROTOCOL_VERSION`]`]`, or `None`
/// when the ranges do not overlap.
pub fn negotiate(client_min: u32, client_max: u32) -> Option<u32> {
    let lo = client_min.max(MIN_SUPPORTED_VERSION);
    let hi = client_max.min(PROTOCOL_VERSION);
    (lo <= hi).then_some(hi)
}

/// How a client describes the space it wants tuned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpaceSpec {
    /// A resource-specification-language document (Appendix B), parsed
    /// server-side.
    Rsl(String),
    /// An explicit, already-structured space.
    Explicit(harmony_space::ParameterSpace),
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Opens every connection; the server picks the version.
    ///
    /// Version-1 clients send `version` alone; version-2 clients send a
    /// `[min_version, max_version]` range. A v1 `Hello` therefore reads
    /// as the degenerate range `[version, version]`.
    Hello {
        /// Single version spoken (v1 clients). `None` when a range is
        /// given instead.
        version: Option<u32>,
        /// Lowest version the client accepts (v2 clients).
        min_version: Option<u32>,
        /// Highest version the client accepts (v2 clients).
        max_version: Option<u32>,
        /// Free-form client identification, for server logs.
        client: String,
    },
    /// Begin a tuning session on this connection.
    SessionStart {
        /// The space to tune.
        space: SpaceSpec,
        /// Label the finished run is recorded under.
        label: String,
        /// Observed workload characteristics, classified against prior
        /// runs to pick training experience (§4.2).
        characteristics: Vec<f64>,
        /// Override the server's default live-measurement budget.
        max_iterations: Option<usize>,
        /// Which registered search engine drives the session. `None`
        /// (and absent on the wire, keeping v2 frames byte-identical to
        /// pre-engine clients) means the default simplex tuner; a name
        /// is resolved against the `harmony-engines` registry and
        /// refused if unknown.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        engine: Option<String>,
    },
    /// Re-attach to a parked session after a disconnect (protocol ≥ 2).
    /// The token came back in
    /// [`Response::SessionStarted::session_token`].
    Resume {
        /// The server-issued session token.
        token: String,
    },
    /// Ask for the next configuration to measure. Idempotent: asking
    /// again without a `Report` returns the same configuration.
    Fetch,
    /// Report the measured performance of the fetched configuration.
    Report {
        /// The measurement (higher is better).
        performance: f64,
        /// Client-side sequence number (protocol ≥ 2): the server
        /// observes each number once, so a replayed report after an
        /// ambiguous disconnect is deduplicated instead of double-counted.
        seq: Option<u64>,
    },
    /// Close the session: the run is recorded into the experience
    /// database and the best configuration comes back.
    SessionEnd,
    /// Ask for a per-parameter sensitivity estimate (§3) computed from
    /// prior matched experience plus this session's live trace.
    Sensitivity,
    /// List the experience database's recorded runs.
    DbQuery,
    /// Ask for the daemon's metrics in Prometheus text exposition
    /// format. Needs no session; usable as a pure admin probe.
    Stats,
    /// A request wrapped with distributed-trace context (additive,
    /// protocol ≥ 2). The daemon records its handling spans under
    /// `parent_span` in trace `trace_id`, and merges the piggybacked
    /// client-side `spans` (an eval the client just measured, say) into
    /// the same trace. v1 clients never send this; a bare request on a
    /// tracing daemon starts a fresh root trace instead.
    Traced {
        /// The trace every span of this tuning session shares.
        trace_id: u64,
        /// The client-side span new server spans hang off (usually the
        /// session root).
        parent_span: u64,
        /// Client-side spans completed since the last request (empty
        /// when nothing finished in between; always present on the
        /// wire — serde cannot default fields of an enum variant).
        spans: Vec<WireSpan>,
        /// The request being carried; never itself `Traced`.
        request: Box<Request>,
    },
    /// Ask for the daemon's flight recorder contents (additive,
    /// protocol ≥ 2). Needs no session; served even while draining.
    TraceDump,
    /// Peer handshake (cluster members only): after the ordinary
    /// `Hello`, a daemon names its own advertised ring address to
    /// authorize the connection for the rest of the `Peer*` family.
    /// Refused when clustering is off or `node` is not a ring member;
    /// every other `Peer*` request is refused until this succeeds, so
    /// client-facing connections can never inject peer traffic.
    PeerHello {
        /// The dialing daemon's advertised address (its ring identity).
        node: String,
    },
    /// Replicate one live session's whole state: `session` is a
    /// serialized persisted-session record, the same shape
    /// `<db>.sessions` holds across restarts. Sent when the session
    /// starts and again whenever a replica refuses a
    /// [`Request::PeerShipStep`]; the receiver replaces whatever it held
    /// for the token and adopts the record if the owner dies and the
    /// client's `Resume` lands here.
    PeerShipSession {
        /// The shipping daemon's advertised address.
        origin: String,
        /// The serialized session record (token included).
        session: String,
    },
    /// The session ended at its owner (or expired there); replicas drop
    /// their records.
    PeerDropSession {
        /// The shipping daemon's advertised address.
        origin: String,
        /// Token of the finished session.
        token: String,
    },
    /// Replicate one observation: the trace entry a `Report` just
    /// appended to the session `token` names, plus the record's
    /// `next_seq` after it. A replica holding exactly `iteration`
    /// entries appends it; one holding `iteration + 1` whose last entry
    /// equals this one was reached by a retried delivery and changes
    /// nothing; both answer `PeerOk`. Anything else — no replica, a
    /// shorter or a longer trace — is refused with an `Error`, and the
    /// sender follows up with the full [`Request::PeerShipSession`].
    PeerShipStep {
        /// Token of the session the entry belongs to.
        token: String,
        /// The entry's 0-based position in the session's trace.
        iteration: usize,
        /// The next `Report` sequence number the owner accepts.
        next_seq: u64,
        /// The measured configuration, in space order.
        values: Vec<i64>,
        /// Its measured performance.
        performance: f64,
    },
    /// Replicate one recorded run, applied to the receiver's database
    /// as it stands (never re-shipped — replication is a single hop).
    /// Binary tag 16: tag 12 carried the run as a JSON line and is
    /// retired.
    PeerShipRun {
        /// The shipping daemon's advertised address.
        origin: String,
        /// Origin-monotonic sequence number; the receiver applies each
        /// `(origin, seq)` once, so a retried ship cannot double-count.
        seq: u64,
        /// The run, shared with the shipper's own database.
        run: Arc<RunHistory>,
    },
}

impl Request {
    /// The message type's name — the value of the `type` label on the
    /// daemon's per-request metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            // Metrics attribute to the request being carried, so a
            // traced Fetch and a bare Fetch land in the same series.
            Request::Traced { request, .. } => request.kind(),
            other => other.variant(),
        }
    }

    /// Every value [`Request::kind`] can return: each variant's name
    /// but the `Traced` wrapper's, in binary tag order.
    pub fn kinds() -> impl Iterator<Item = &'static str> {
        Request::VARIANTS
            .iter()
            .copied()
            .filter(|&kind| kind != "Traced")
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Hello`].
    Hello {
        /// The negotiated version — the highest inside both sides'
        /// ranges. Every later message on the connection speaks it.
        version: u32,
        /// Free-form server identification.
        server: String,
    },
    /// The session is live.
    SessionStarted {
        /// The authoritative parameter space (RSL specs are parsed
        /// server-side; clients need the parameter names and bounds).
        space: harmony_space::ParameterSpace,
        /// Label of the prior run selected for training, when the
        /// characteristics matched one.
        trained_from: Option<String>,
        /// Virtual iterations spent replaying that experience.
        training_iterations: usize,
        /// Token for [`Request::Resume`] after a disconnect. Issued only
        /// on protocol ≥ 2 connections.
        session_token: Option<String>,
    },
    /// Answer to [`Request::Resume`]: the session is re-attached.
    Resumed {
        /// Live iterations already recorded.
        iteration: usize,
        /// The next report sequence number the server expects; the
        /// client re-synchronizes its counter to this.
        next_seq: u64,
        /// Whether the session had already finished (its summary can
        /// still be collected with [`Request::SessionEnd`]).
        done: bool,
    },
    /// The server is draining for shutdown: session state is parked and
    /// the request can be retried — against this server until it exits,
    /// then against its successor via [`Request::Resume`].
    Draining,
    /// A configuration to measure.
    Config {
        /// Parameter values, in space order.
        values: Vec<i64>,
        /// Live iterations completed so far.
        iteration: usize,
    },
    /// No further configurations: the session converged or spent its
    /// budget. Send [`Request::SessionEnd`] next.
    Done,
    /// The report was folded into the search.
    Reported,
    /// Answer to [`Request::SessionEnd`].
    SessionSummary {
        /// Best configuration measured live.
        values: Vec<i64>,
        /// Its performance.
        performance: f64,
        /// Live iterations spent.
        iterations: usize,
        /// Whether the spread criteria (not the budget) ended the search.
        converged: bool,
    },
    /// Answer to [`Request::Sensitivity`].
    Sensitivity {
        /// Per-parameter estimates, in space order.
        entries: Vec<SensitivityEntry>,
    },
    /// Answer to [`Request::DbQuery`].
    Runs {
        /// One summary per recorded run.
        runs: Vec<RunSummary>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The daemon's metric registry in Prometheus text exposition
        /// format.
        text: String,
    },
    /// Answer to [`Request::TraceDump`].
    TraceDump {
        /// Everything the flight recorder retained, oldest first.
        traces: Vec<WireTrace>,
    },
    /// The request could not be served; the connection stays usable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Answer to a [`Request::Resume`] for a session this daemon
    /// neither holds nor replicates: the token's ring owner is `owner`.
    /// The client re-dials there and resumes; a session is never served
    /// from two places because a daemon always serves what it holds
    /// locally and only redirects on a complete miss.
    NotMine {
        /// Advertised address of the member owning the token.
        owner: String,
    },
    /// A `Peer*` request was applied.
    PeerOk,
}

/// One parameter's sensitivity estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityEntry {
    /// Index in the space.
    pub index: usize,
    /// Parameter name.
    pub name: String,
    /// The ΔP/Δv′ score (≥ 0).
    pub sensitivity: f64,
    /// The value with the best observed performance.
    pub best_value: i64,
}

/// One completed span on the wire. Mirrors
/// [`harmony_obs::trace::SpanRecord`]; timestamps are microseconds on
/// the *sender's* monotonic clock (receivers rebase on ingest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSpan {
    /// Span ID, unique within its trace.
    pub id: u64,
    /// Parent span ID; 0 marks the root.
    pub parent: u64,
    /// Stage tag (`net.read`, `classify`, `eval`, …).
    pub stage: String,
    /// Free-form detail; may be empty.
    #[serde(default)]
    pub detail: String,
    /// Start, sender-monotonic microseconds.
    pub start_us: u64,
    /// End, sender-monotonic microseconds.
    pub end_us: u64,
    /// True if the stage failed.
    #[serde(default)]
    pub error: bool,
}

impl From<harmony_obs::trace::SpanRecord> for WireSpan {
    fn from(s: harmony_obs::trace::SpanRecord) -> Self {
        WireSpan {
            id: s.id,
            parent: s.parent,
            stage: s.stage,
            detail: s.detail,
            start_us: s.start_us,
            end_us: s.end_us,
            error: s.error,
        }
    }
}

impl From<WireSpan> for harmony_obs::trace::SpanRecord {
    fn from(s: WireSpan) -> Self {
        harmony_obs::trace::SpanRecord {
            id: s.id,
            parent: s.parent,
            stage: s.stage,
            detail: s.detail,
            start_us: s.start_us,
            end_us: s.end_us,
            error: s.error,
        }
    }
}

/// One retained trace, as served by [`Request::TraceDump`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireTrace {
    /// The shared trace ID.
    pub trace_id: u64,
    /// Whether the trace was finalized (vs. still being assembled).
    pub complete: bool,
    /// All recorded spans, sorted by `(start_us, id)`.
    pub spans: Vec<WireSpan>,
}

impl From<harmony_obs::trace::TraceRecord> for WireTrace {
    fn from(t: harmony_obs::trace::TraceRecord) -> Self {
        WireTrace {
            trace_id: t.trace_id,
            complete: t.complete,
            spans: t.spans.into_iter().map(WireSpan::from).collect(),
        }
    }
}

/// One recorded run, as reported by [`Request::DbQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Label the run was recorded under.
    pub label: String,
    /// Workload characteristics observed for the run.
    pub characteristics: Vec<f64>,
    /// Number of recorded explorations.
    pub records: usize,
    /// Best recorded performance, when any explorations exist.
    pub best_performance: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_survive_json() {
        let msg = Request::SessionStart {
            space: SpaceSpec::Rsl("{ harmonyBundle x { int {0 4 1} }}".into()),
            label: "w1".into(),
            characteristics: vec![1.0, 0.0],
            max_iterations: None,
            engine: None,
        };
        let json = serde_json::to_string(&msg).unwrap();
        assert!(
            !json.contains("engine"),
            "engine: None must not appear on the wire: {json}"
        );
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);

        let engined = Request::SessionStart {
            space: SpaceSpec::Rsl("{ harmonyBundle x { int {0 4 1} }}".into()),
            label: "w1".into(),
            characteristics: vec![],
            max_iterations: Some(8),
            engine: Some("tuneful".into()),
        };
        let back: Request =
            serde_json::from_str(&serde_json::to_string(&engined).unwrap()).unwrap();
        assert_eq!(back, engined);
    }

    #[test]
    fn peer_messages_round_trip_and_have_stable_kinds() {
        let mut run = RunHistory::new("w", vec![0.25, 0.75]);
        run.push(&harmony_space::Configuration::new(vec![3, -1]), 0.1);
        let messages = [
            Request::PeerHello {
                node: "127.0.0.1:7701".into(),
            },
            Request::PeerShipSession {
                origin: "127.0.0.1:7701".into(),
                session: "{\"token\":\"hs-1-1\"}".into(),
            },
            Request::PeerDropSession {
                origin: "127.0.0.1:7701".into(),
                token: "hs-1-1".into(),
            },
            Request::PeerShipStep {
                token: "hs-1-1".into(),
                iteration: 4,
                next_seq: 5,
                values: vec![3, -1],
                performance: 0.1,
            },
            Request::PeerShipRun {
                origin: "127.0.0.1:7701".into(),
                seq: 3,
                run: Arc::new(run),
            },
        ];
        let kinds = [
            "PeerHello",
            "PeerShipSession",
            "PeerDropSession",
            "PeerShipStep",
            "PeerShipRun",
        ];
        for (msg, kind) in messages.iter().zip(kinds) {
            assert_eq!(msg.kind(), kind);
            let back: Request = serde_json::from_str(&serde_json::to_string(msg).unwrap()).unwrap();
            assert_eq!(&back, msg);
        }
        for resp in [
            Response::NotMine {
                owner: "127.0.0.1:7702".into(),
            },
            Response::PeerOk,
        ] {
            let back: Response =
                serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn unit_requests_are_plain_strings() {
        assert_eq!(serde_json::to_string(&Request::Fetch).unwrap(), "\"Fetch\"");
        assert_eq!(
            serde_json::to_string(&Request::DbQuery).unwrap(),
            "\"DbQuery\""
        );
    }

    #[test]
    fn stats_round_trips_and_kind_is_stable() {
        assert_eq!(serde_json::to_string(&Request::Stats).unwrap(), "\"Stats\"");
        assert_eq!(Request::Stats.kind(), "Stats");
        assert_eq!(Request::Fetch.kind(), "Fetch");
        assert_eq!(
            Request::Hello {
                version: Some(1),
                min_version: None,
                max_version: None,
                client: "c".into()
            }
            .kind(),
            "Hello"
        );
        assert_eq!(Request::Resume { token: "t".into() }.kind(), "Resume");
        let msg = Response::Stats {
            text: "# TYPE x counter\nx 1\n".into(),
        };
        let json = serde_json::to_string(&msg).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn responses_survive_json() {
        let msg = Response::SessionSummary {
            values: vec![3, 1, 4],
            performance: 15.9,
            iterations: 26,
            converged: true,
        };
        let json = serde_json::to_string(&msg).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn negotiation_picks_the_highest_common_version() {
        // A v1 client's degenerate range lands on v1.
        assert_eq!(negotiate(1, 1), Some(1));
        // A current client gets the newest version.
        assert_eq!(negotiate(MIN_SUPPORTED_VERSION, PROTOCOL_VERSION), Some(3));
        // A JSON-only client capped at v2 meets us there.
        assert_eq!(negotiate(1, 2), Some(2));
        // A future client beyond us lands on our newest.
        assert_eq!(negotiate(2, 99), Some(3));
        // No overlap: refused.
        assert_eq!(negotiate(PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 5), None);
        assert_eq!(negotiate(0, 0), None);
    }

    #[test]
    fn v1_hello_wire_shape_still_parses() {
        // Exactly what a version-1 client emits: a bare `version` field.
        let raw = r#"{"Hello":{"version":1,"client":"old"}}"#;
        match serde_json::from_str(raw).unwrap() {
            Request::Hello {
                version,
                min_version,
                max_version,
                client,
            } => {
                assert_eq!(version, Some(1));
                assert_eq!(min_version, None);
                assert_eq!(max_version, None);
                assert_eq!(client, "old");
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // And a v1 `Report` has no sequence number.
        let raw = r#"{"Report":{"performance":2.5}}"#;
        match serde_json::from_str(raw).unwrap() {
            Request::Report { performance, seq } => {
                assert_eq!(performance, 2.5);
                assert_eq!(seq, None);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn v2_messages_round_trip() {
        let resume = Request::Resume {
            token: "s-42".into(),
        };
        let back: Request = serde_json::from_str(&serde_json::to_string(&resume).unwrap()).unwrap();
        assert_eq!(back, resume);

        let resumed = Response::Resumed {
            iteration: 7,
            next_seq: 9,
            done: false,
        };
        let back: Response =
            serde_json::from_str(&serde_json::to_string(&resumed).unwrap()).unwrap();
        assert_eq!(back, resumed);

        let draining: Response =
            serde_json::from_str(&serde_json::to_string(&Response::Draining).unwrap()).unwrap();
        assert_eq!(draining, Response::Draining);
    }

    #[test]
    fn traced_wrapper_round_trips_and_attributes_to_inner_kind() {
        let msg = Request::Traced {
            trace_id: 0xabcd,
            parent_span: 7,
            spans: vec![WireSpan {
                id: 9,
                parent: 7,
                stage: "eval".into(),
                detail: "round 3".into(),
                start_us: 100,
                end_us: 250,
                error: false,
            }],
            request: Box::new(Request::Report {
                performance: 1.5,
                seq: Some(4),
            }),
        };
        assert_eq!(msg.kind(), "Report", "metrics attribute to the inner kind");
        let json = serde_json::to_string(&msg).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
        // A minimal wrapper (no client spans to ship) parses.
        let raw = r#"{"Traced":{"trace_id":1,"parent_span":2,"spans":[],"request":"Fetch"}}"#;
        match serde_json::from_str(raw).unwrap() {
            Request::Traced {
                trace_id,
                parent_span,
                spans,
                request,
            } => {
                assert_eq!((trace_id, parent_span), (1, 2));
                assert!(spans.is_empty());
                assert_eq!(*request, Request::Fetch);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn trace_dump_round_trips() {
        assert_eq!(
            serde_json::to_string(&Request::TraceDump).unwrap(),
            "\"TraceDump\""
        );
        assert_eq!(Request::TraceDump.kind(), "TraceDump");
        let msg = Response::TraceDump {
            traces: vec![WireTrace {
                trace_id: 3,
                complete: true,
                spans: vec![WireSpan {
                    id: 1,
                    parent: 0,
                    stage: "session".into(),
                    detail: String::new(),
                    start_us: 0,
                    end_us: 10,
                    error: false,
                }],
            }],
        };
        let json = serde_json::to_string(&msg).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn v1_wire_shapes_do_not_collide_with_trace_additions() {
        // Every v1 request still decodes to the same variant: the new
        // variants are additive names a v1 client never sends.
        for raw in ["\"Fetch\"", "\"SessionEnd\"", "\"Stats\"", "\"DbQuery\""] {
            let req: Request = serde_json::from_str(raw).unwrap();
            assert_ne!(req.kind(), "TraceDump");
        }
    }

    #[test]
    fn explicit_space_spec_round_trips() {
        let space = harmony_space::ParameterSpace::builder()
            .param(harmony_space::ParamDef::int("cache", 1, 64, 8, 1))
            .build()
            .unwrap();
        let msg = Request::SessionStart {
            space: SpaceSpec::Explicit(space.clone()),
            label: "explicit".into(),
            characteristics: vec![],
            max_iterations: Some(10),
            engine: None,
        };
        let json = serde_json::to_string(&msg).unwrap();
        match serde_json::from_str(&json).unwrap() {
            Request::SessionStart {
                space: SpaceSpec::Explicit(s),
                ..
            } => {
                assert_eq!(s.len(), space.len());
                assert_eq!(s.param(0).name(), "cache");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }
}
