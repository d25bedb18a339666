//! The daemon's metric table: one [`harmony_obs::metrics!`] row per
//! handle, registered in the process-global registry.
//!
//! The daemon registers every crate's table at startup, so a `Stats`
//! request on a freshly started daemon already exposes every series in
//! [`DAEMON_SERIES`] (lazily registered series would otherwise be
//! invisible until first use).

use crate::protocol::Request;
use harmony_obs::metrics::{Series, LATENCY_SECONDS};

/// Bucket bounds for the ready-events-per-wakeup histogram: event
/// counts, not seconds, so the latency buckets don't fit.
const READY_EVENTS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];

harmony_obs::metrics! {
    pub(crate) fn connections_total: Counter = "harmony_net_connections_total",
        "Connections accepted by the daemon.";
    pub(crate) fn connections_active: Gauge = "harmony_net_connections_active",
        "Connections currently being served.";
    pub(crate) fn connections_refused_total: Counter = "harmony_net_connections_refused_total",
        "Connections refused at the concurrent-connection cap.";
    pub(crate) fn requests_total(type in Request::kinds()): Counter = "harmony_net_requests_total",
        "Requests served, by message type.";
    pub(crate) fn request_seconds(type in Request::kinds()): Histogram(LATENCY_SECONDS)
        = "harmony_net_request_seconds",
        "Request handling latency (read to response written), by message type.";
    pub(crate) fn errors_total: Counter = "harmony_net_errors_total",
        "In-protocol Error responses sent to clients, plus requests that panicked.";
    pub(crate) fn sessions_started_total: Counter = "harmony_net_sessions_started_total",
        "Tuning sessions opened via SessionStart.";
    pub(crate) fn sessions_abandoned_total: Counter = "harmony_net_sessions_abandoned_total",
        "Sessions whose connection dropped before SessionEnd (measured work is still recorded).";
    pub(crate) fn warm_start_hits_total: Counter = "harmony_net_warm_start_total" { result = "hit" },
        "SessionStart classifications against the experience db, by outcome.";
    pub(crate) fn warm_start_misses_total: Counter = "harmony_net_warm_start_total" { result = "miss" },
        "SessionStart classifications against the experience db, by outcome.";
    pub(crate) fn db_runs: Gauge = "harmony_net_db_runs",
        "Runs currently held in the shared experience database.";
    pub(crate) fn db_persist_failures_total: Counter = "harmony_net_db_persist_failures_total",
        "Failed attempts to persist the experience database.";
    pub(crate) fn db_snapshot_swaps_total: Counter = "harmony_net_db_snapshot_swaps_total",
        "Copy-on-write experience-database snapshot swaps.";
    pub(crate) fn retries_total: Counter = "harmony_net_retries_total",
        "Client-side request retries taken by the backoff loop.";
    pub(crate) fn resumes_total: Counter = "harmony_net_resumes_total",
        "Parked sessions re-attached to a connection via Resume.";
    pub(crate) fn draining_responses_total: Counter = "harmony_net_draining_responses_total",
        "Requests refused with a Draining response during shutdown.";
    pub(crate) fn sessions_parked: Gauge = "harmony_net_sessions_parked",
        "Disconnected sessions currently parked awaiting Resume.";
    pub(crate) fn session_ttl_expirations_total: Counter = "harmony_net_session_ttl_expirations_total",
        "Parked sessions reaped after the keepalive TTL expired.";
    pub(crate) fn traces_finalized_total: Counter = "harmony_net_traces_finalized_total",
        "Trace span trees sealed into the flight recorder.";
    pub(crate) fn reactor_wakeups_total: Counter = "harmony_net_reactor_wakeups_total",
        "Reactor event-loop wakeups (poller waits returning).";
    pub(crate) fn reactor_ready_events_depth: Histogram(READY_EVENTS)
        = "harmony_net_reactor_ready_events_depth",
        "Descriptors reported ready per event-loop wakeup.";
    pub(crate) fn reactor_pipelined_requests_total: Counter
        = "harmony_net_reactor_pipelined_requests_total",
        "Requests decoded while an earlier request on the same connection was still queued or executing.";
    pub(crate) fn reactor_fds_active: Gauge = "harmony_net_reactor_fds_active",
        "Connections currently registered with the reactor.";
    pub(crate) fn frames_binary_total: Counter = "harmony_net_frames_binary_total",
        "Frames encoded in the protocol-v3 binary format.";
    pub(crate) fn frame_bytes_json_total: Counter = "harmony_net_frame_bytes_total" { format = "json" },
        "Payload bytes encoded, by wire format.";
    pub(crate) fn frame_bytes_binary_total: Counter
        = "harmony_net_frame_bytes_total" { format = "binary" },
        "Payload bytes encoded, by wire format.";
    pub(crate) fn peer_connections_total: Counter = "harmony_net_peer_connections_total",
        "Inbound peer links authorized via PeerHello.";
    pub(crate) fn peer_runs_shipped_total: Counter = "harmony_net_peer_runs_shipped_total",
        "Recorded runs shipped to replica peers.";
    pub(crate) fn peer_sessions_shipped_total: Counter = "harmony_net_peer_sessions_shipped_total",
        "Session mutations replicated to peers: one step per Report, one full record per start or resync.";
    pub(crate) fn peer_session_resyncs_total: Counter = "harmony_net_peer_session_resyncs_total",
        "Full session records shipped because a replica refused a step (it restarted, or missed one).";
    pub(crate) fn peer_ship_failures_total: Counter = "harmony_net_peer_ship_failures_total",
        "Peer ships that failed (peer down or refusing); a session replica catches up when it refuses the next step.";
    pub(crate) fn shard_adoptions_total: Counter = "harmony_net_shard_adoptions_total",
        "Replicated sessions adopted after their owner died.";
    pub(crate) fn shard_redirects_total: Counter = "harmony_net_shard_redirects_total",
        "Resume requests redirected to the token's ring owner with NotMine.";
    pub(crate) fn shard_replica_sessions_entries: Gauge
        = "harmony_net_shard_replica_sessions_entries",
        "Replicated session records currently held on behalf of peers.";
}

/// Every series a daemon serves: the metric table of each crate on its
/// request path.
pub const DAEMON_SERIES: [&[Series]; 4] = [
    harmony::obs::SERIES,
    harmony_exec::obs::SERIES,
    harmony_engines::obs::SERIES,
    SERIES,
];

/// Register every table in [`DAEMON_SERIES`], so `Stats` shows each
/// series from daemon startup.
pub(crate) fn preregister_daemon() {
    harmony::obs::preregister();
    harmony_exec::obs::preregister();
    harmony_engines::obs::preregister();
    preregister();
}

#[cfg(test)]
mod tests {
    use super::DAEMON_SERIES;
    use harmony_obs::metrics::Series;
    use std::collections::{BTreeMap, BTreeSet};

    /// Every table keeps the naming rules: the `harmony_` prefix, a
    /// suffix that fits the kind, and one declaration per name, except
    /// that a fixed-label family has one row per label value.
    #[test]
    fn every_series_follows_the_naming_rules() {
        let mut by_name: BTreeMap<&str, Vec<Series>> = BTreeMap::new();
        for series in DAEMON_SERIES.concat() {
            let name = series.name;
            assert!(name.starts_with("harmony_"), "{name} lacks harmony_");
            let suffixes: &[&str] = match series.kind {
                "counter" => &["_total"],
                "histogram" => &["_seconds", "_depth", "_iterations"],
                "gauge" => &["_active", "_depth", "_entries", "_parked", "_runs"],
                kind => panic!("{name} is a {kind}"),
            };
            assert!(
                suffixes.iter().any(|suffix| name.ends_with(suffix)),
                "{name}: a {} ends in one of {suffixes:?}",
                series.kind
            );
            by_name.entry(name).or_default().push(series);
        }
        for (name, rows) in by_name.into_iter().filter(|(_, rows)| rows.len() > 1) {
            let mut values = BTreeSet::new();
            for row in &rows {
                assert_eq!(
                    (row.kind, row.help, row.label),
                    (rows[0].kind, rows[0].help, rows[0].label),
                    "rows named {name} disagree"
                );
                let value = row
                    .value
                    .unwrap_or_else(|| panic!("{name} is declared more than once"));
                assert!(values.insert(value), "{name}: {value} is declared twice");
            }
        }
    }
}
