//! The `harmony-cli` binary driven as an operator would: `serve` a
//! daemon (alone or as a ring), tune against it, scrape it with `stats`
//! and `trace`, and stop it by closing its stdin or sending SIGTERM.

use harmony_net::protocol::Request;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_harmony-cli"))
}

/// A directory of the test's own: the tests of this file run in parallel.
fn work_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-cli-flow-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A one-parameter space, `cache` in 1..=64.
fn cache_rsl(dir: &Path) -> PathBuf {
    let rsl = dir.join("params.rsl");
    std::fs::write(&rsl, "{ harmonyBundle cache { int {1 64 1} }}\n").unwrap();
    rsl
}

/// A measure command over [`cache_rsl`]'s space, peaking at `cache = 7`.
const CACHE_OBJECTIVE: &str = "echo $((100 - (HARMONY_cache-7)*(HARMONY_cache-7)))";

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Run the CLI to completion, require success, and return its stdout.
fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().unwrap();
    assert!(out.status.success(), "{args:?} failed: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// A tune report without its `daemon at` line, which names the address.
fn without_daemon_line(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("daemon at"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A running `serve` and the thread draining its stderr, so the daemon
/// never blocks on a full pipe.
struct Served {
    child: Child,
    stderr: JoinHandle<()>,
}

/// Start `serve` with `flags` and return it with the address it
/// announced on stderr.
fn serve(rsl: &Path, flags: &[&str]) -> (Served, String) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut child = cli()
            .arg("serve")
            .arg(rsl)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let reader = BufReader::new(child.stderr.take().unwrap());
        let (tx, rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            for line in reader.lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    tx.send(Ok(addr)).ok();
                }
                text.push_str(&line);
                text.push('\n');
            }
            tx.send(Err(text)).ok();
        });
        match rx
            .recv_timeout(Duration::from_secs(30))
            .expect("serve announces its address or exits")
        {
            Ok(addr) => return (Served { child, stderr }, addr),
            // A port `reserve_addrs` just released can stay held for a
            // few milliseconds by a child another test is forking.
            Err(text) if text.contains("Address already in use") && Instant::now() < deadline => {
                child.wait().unwrap();
                stderr.join().unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(text) => panic!("serve exited without an address:\n{text}"),
        }
    }
}

/// Close the daemon's stdin and wait for it to exit on its own.
fn stop(mut served: Served) {
    drop(served.child.stdin.take());
    exits_cleanly(served, "stdin closed");
}

/// Send the daemon SIGTERM and wait for it to drain and exit.
fn terminate(served: Served) {
    let pid = served.child.id().to_string();
    let status = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(status.success(), "kill -TERM {pid}: {status}");
    exits_cleanly(served, "SIGTERM");
}

fn exits_cleanly(Served { mut child, stderr }: Served, after: &str) {
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
    panic!("serve did not exit after {after}");
}

/// Addresses on free loopback ports, for daemons that must know each
/// other's addresses before any of them binds.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port()))
        .collect()
}

/// A freshly served daemon answers `stats` with a healthy Prometheus
/// exposition — exactly the pinned series, one latency series per
/// request kind — and logs its start.
#[test]
fn stats_scrapes_a_served_daemon() {
    let dir = work_dir("stats");
    let rsl = dir.join("params.rsl");
    let events = dir.join("events.jsonl");
    std::fs::write(&rsl, "{ harmonyBundle cache { int {1 64 1} }}\n").unwrap();
    let (served, addr) = serve(
        &rsl,
        &["--listen", "127.0.0.1:0", "--log-json", path(&events)],
    );

    let out = cli().args(["stats", &addr]).output().unwrap();
    stop(served);
    assert!(out.status.success(), "stats failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();

    // The series a fresh daemon exposes are pinned: every `# HELP` and
    // `# TYPE` line verbatim, and every sample's name and labels (its
    // value and exemplar vary, so a sample line is cut at its first
    // space).
    let shape: Vec<&str> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            if l.starts_with('#') {
                l
            } else {
                l.split(' ').next().unwrap()
            }
        })
        .collect();
    let pinned: Vec<&str> = include_str!("fixtures/stats_exposition.txt")
        .lines()
        .collect();
    if let Some(i) = (0..shape.len().max(pinned.len())).find(|&i| shape.get(i) != pinned.get(i)) {
        panic!(
            "exposition line {i} is {:?}, the fixture has {:?}; exposition:\n{text}",
            shape.get(i),
            pinned.get(i)
        );
    }
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

/// A usage error exits 2 with the usage on stderr; a run error exits 1
/// without it. Values that would panic a library assert or start a
/// useless daemon are refused, never a panic (exit 101).
#[test]
fn exit_codes_separate_usage_errors_from_run_errors() {
    let dir = work_dir("exit");
    let rsl = cache_rsl(&dir);
    let rsl = path(&rsl);
    let usage_errors: [&[&str]; 5] = [
        &["tune", rsl, "--frob", "--", "true"],
        &["sensitivity", rsl, "--repeats", "0", "--", "true"],
        &["sensitivity", rsl, "--samples", "1", "--", "true"],
        &["tune", rsl, "--iterations", "0", "--", "true"],
        &["serve", rsl, "--iterations", "0"],
    ];
    for args in usage_errors {
        let out = cli().args(args).stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains("\nUSAGE:\n"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let run_errors: [(&[&str], &str); 2] = [
        (&["space", "/nonexistent/params.rsl"], "cannot read"),
        (
            &[
                "serve",
                rsl,
                "--listen",
                "127.0.0.1:0",
                "--max-connections",
                "0",
            ],
            "--max-connections must be at least 1",
        ),
    ];
    for (args, why) in run_errors {
        let out = cli().args(args).stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(why),
            "{stderr}"
        );
        assert!(!stderr.contains("USAGE"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A measure command that prints a non-finite performance stops the run
/// with exit 1 before anything reaches `--db`: such a value cannot rank
/// in the search, and saved it would make the database unloadable.
#[test]
fn non_finite_measurements_are_refused() {
    let dir = work_dir("non-finite");
    let rsl = cache_rsl(&dir);
    for output in ["inf", "-inf", "NaN"] {
        for jobs in ["1", "2"] {
            let db = dir.join("exp.json");
            let out = cli()
                .args(["tune", path(&rsl), "--jobs", jobs, "--db", path(&db)])
                .args(["--characteristics", "0.5,0.5", "--"])
                .args(["sh", "-c", &format!("echo {output}")])
                .output()
                .unwrap();
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(
                out.status.code(),
                Some(1),
                "{output} --jobs {jobs}: {stderr}"
            );
            assert!(stderr.contains("is not a number"), "{stderr}");
            assert!(!db.exists(), "{output} --jobs {jobs} wrote the database");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--jobs 4` tunes and analyzes through the parallel executor.
#[test]
fn jobs_tune_and_analyze_in_parallel() {
    let dir = work_dir("jobs");
    let rsl = dir.join("params.rsl");
    std::fs::write(
        &rsl,
        "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}\n",
    )
    .unwrap();
    let tune = run_ok(&[
        "tune",
        path(&rsl),
        "--iterations",
        "40",
        "--jobs",
        "4",
        "--",
        "sh",
        "-c",
        "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))",
    ]);
    assert!(tune.contains("best performance: 100"), "{tune}");
    let sens = run_ok(&[
        "sensitivity",
        path(&rsl),
        "--jobs",
        "4",
        "--",
        "sh",
        "-c",
        "echo $((HARMONY_B * 10 + HARMONY_C))",
    ]);
    assert!(sens.contains("sensitivity"), "{sens}");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM drains the daemon: a clean exit with the finished run
/// compacted into the snapshot and the journal flushed empty.
#[test]
fn sigterm_drains_into_the_snapshot() {
    let dir = work_dir("drain");
    let rsl = cache_rsl(&dir);
    let db = dir.join("db.json");
    let events = dir.join("events.jsonl");
    let (served, addr) = serve(
        &rsl,
        &[
            "--listen",
            "127.0.0.1:0",
            "--db",
            path(&db),
            "--log-json",
            path(&events),
        ],
    );
    run_ok(&[
        "tune",
        path(&rsl),
        "--remote",
        &addr,
        "--iterations",
        "20",
        "--label",
        "drain-smoke",
        "--retry",
        "4",
        "--deadline",
        "5000",
        "--",
        "sh",
        "-c",
        CACHE_OBJECTIVE,
    ]);
    terminate(served);

    let snapshot = run_ok(&["db", path(&db)]);
    assert!(snapshot.contains("drain-smoke"), "{snapshot}");
    let wal = dir.join("db.json.wal");
    assert!(
        std::fs::metadata(&wal).map_or(true, |m| m.len() == 0),
        "journal not flushed empty"
    );
    let log = std::fs::read_to_string(&events).unwrap();
    assert!(log.contains("\"event\":\"net.daemon_draining\""), "{log}");
    assert!(log.contains("\"event\":\"net.daemon_shutdown\""), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A 3-daemon ring with replication 2: the measure command SIGKILLs the
/// session's owner after the 7th measurement, and the client fails over
/// to a replica and reports the summary a lone daemon nobody kills does.
#[test]
fn ring_failover_reports_the_lone_daemon_summary() {
    let dir = work_dir("failover");
    let rsl = cache_rsl(&dir);
    let addrs = reserve_addrs(3);
    let mut members: Vec<Served> = (0..3)
        .map(|i| {
            let peers: Vec<&str> = (0..3)
                .filter(|&j| j != i)
                .map(|j| addrs[j].as_str())
                .collect();
            let peers = peers.join(",");
            let flags = ["--listen", &addrs[i], "--peer", &peers, "--replicate", "2"];
            serve(&rsl, &flags).0
        })
        .collect();
    let owner = members.remove(0);
    let count = dir.join("count");
    let measure = dir.join("measure.sh");
    std::fs::write(
        &measure,
        format!(
            "n=$(cat {count} 2>/dev/null || echo 0); n=$((n+1))\n\
             echo $n > {count}\n\
             if [ \"$n\" -eq 7 ]; then kill -9 {owner}; fi\n\
             {CACHE_OBJECTIVE}\n",
            count = path(&count),
            owner = owner.child.id(),
        ),
    )
    .unwrap();
    let failover = run_ok(&[
        "tune",
        path(&rsl),
        "--remote",
        &addrs.join(","),
        "--retry",
        "10",
        "--iterations",
        "30",
        "--label",
        "cluster-smoke",
        "--",
        "sh",
        path(&measure),
    ]);
    let Served { mut child, stderr } = owner;
    assert!(!child.wait().unwrap().success(), "the owner was not killed");
    stderr.join().unwrap();
    members.into_iter().for_each(stop);

    let (lone, addr) = serve(&rsl, &["--listen", "127.0.0.1:0"]);
    let clean = run_ok(&[
        "tune",
        path(&rsl),
        "--remote",
        &addr,
        "--iterations",
        "30",
        "--label",
        "cluster-smoke",
        "--",
        "sh",
        "-c",
        CACHE_OBJECTIVE,
    ]);
    stop(lone);
    assert_eq!(without_daemon_line(&failover), without_daemon_line(&clean));
    std::fs::remove_dir_all(&dir).ok();
}

/// A traced remote tune leaves one complete client → daemon → executor
/// span tree in the flight recorder, and the tiny rotation budget rolls
/// the event log over on a line boundary.
#[test]
fn traced_tune_fills_the_flight_recorder_and_rotates_the_log() {
    let dir = work_dir("trace");
    let rsl = cache_rsl(&dir);
    let events = dir.join("events.jsonl");
    let (served, addr) = serve(
        &rsl,
        &[
            "--listen",
            "127.0.0.1:0",
            "--log-json",
            path(&events),
            "--log-rotate-bytes",
            "1024",
            "--log-keep",
            "2",
        ],
    );
    run_ok(&[
        "tune",
        path(&rsl),
        "--remote",
        &addr,
        "--trace",
        "--iterations",
        "30",
        "--label",
        "trace-smoke",
        "--",
        "sh",
        "-c",
        CACHE_OBJECTIVE,
    ]);
    let dump = run_ok(&["trace", &addr]);
    stop(served);

    assert!(dump.contains("complete"), "{dump}");
    for stage in [
        "session",
        "net.read",
        "serve",
        "classify",
        "eval",
        "queue.wait",
        "exec.run",
        "wal.append",
        "stage attribution",
    ] {
        assert!(dump.contains(stage), "missing {stage} in:\n{dump}");
    }
    let rotated = std::fs::read_to_string(dir.join("events.jsonl.1")).unwrap();
    assert!(!rotated.is_empty(), "no rollover");
    for text in [rotated, std::fs::read_to_string(&events).unwrap()] {
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "torn: {line}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same remote tune with and without `--trace`, each on a fresh
/// daemon so no run warm-starts the other, reports the same summary.
#[test]
fn tracing_leaves_the_trajectory_unchanged() {
    let dir = work_dir("inert");
    let rsl = cache_rsl(&dir);
    let tune = |trace: &[&str]| {
        let (served, addr) = serve(&rsl, &["--listen", "127.0.0.1:0"]);
        let mut args = vec!["tune", path(&rsl), "--remote", &addr];
        args.extend_from_slice(trace);
        args.extend_from_slice(&[
            "--iterations",
            "25",
            "--label",
            "inert-smoke",
            "--",
            "sh",
            "-c",
            "echo $((100 - (HARMONY_cache-9)*(HARMONY_cache-9)))",
        ]);
        let report = run_ok(&args);
        stop(served);
        without_daemon_line(&report)
    };
    assert_eq!(tune(&["--trace"]), tune(&[]));
    std::fs::remove_dir_all(&dir).ok();
}
