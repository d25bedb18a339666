//! The `harmony-cli` binary driven as an operator would: `serve` a
//! daemon, scrape it with `stats`, stop it by closing its stdin.

use harmony_net::protocol::Request;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_harmony-cli"))
}

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-cli-flow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `serve` and the thread draining its stderr, so the daemon
/// never blocks on a full pipe.
struct Served {
    child: Child,
    stderr: JoinHandle<()>,
}

/// Start `serve` on an ephemeral port and return it with the address it
/// announced on stderr.
fn serve(rsl: &PathBuf, events: &PathBuf) -> (Served, String) {
    let mut child = cli()
        .arg("serve")
        .arg(rsl)
        .args(["--listen", "127.0.0.1:0", "--log-json"])
        .arg(events)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let reader = BufReader::new(child.stderr.take().unwrap());
    let (tx, rx) = mpsc::channel();
    let stderr = std::thread::spawn(move || {
        for line in reader.lines().map_while(Result::ok) {
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                tx.send(addr).ok();
            }
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve announces its address");
    (Served { child, stderr }, addr)
}

/// Close the daemon's stdin and wait for it to exit on its own.
fn stop(Served { mut child, stderr }: Served) {
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "serve exited with {status}");
            stderr.join().unwrap();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().ok();
    panic!("serve did not exit after stdin closed");
}

/// A freshly served daemon answers `stats` with a healthy Prometheus
/// exposition, one latency series per request kind, and logs its start.
#[test]
fn stats_scrapes_a_served_daemon() {
    let dir = work_dir();
    let rsl = dir.join("params.rsl");
    let events = dir.join("events.jsonl");
    std::fs::write(&rsl, "{ harmonyBundle cache { int {1 64 1} }}\n").unwrap();
    let (served, addr) = serve(&rsl, &events);

    let out = cli().args(["stats", &addr]).output().unwrap();
    stop(served);
    assert!(out.status.success(), "stats failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();

    let families = text.lines().filter(|l| l.starts_with("# TYPE")).count();
    assert!(families >= 10, "{families} metric families in:\n{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("harmony_net_sessions_started_total ")),
        "{text}"
    );
    assert!(
        text.contains("harmony_net_request_seconds_bucket{type=\"Stats\",le=\"+Inf\"}"),
        "{text}"
    );
    // One latency series per request kind, preregistered before any
    // arrives, and none for the Traced envelope (metrics attribute to
    // the request it carries).
    let kinds: BTreeSet<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("harmony_net_request_seconds_count{type=\""))
        .filter_map(|l| l.split('"').next())
        .collect();
    assert_eq!(kinds, Request::kinds().collect::<BTreeSet<_>>());
    assert_eq!(kinds.len(), 15);
    assert!(!kinds.contains("Traced"));

    let log = std::fs::read_to_string(&events).unwrap();
    assert!(log.contains("\"event\":\"net.daemon_start\""), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}
