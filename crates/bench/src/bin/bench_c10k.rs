//! c10k benchmark: connection scalability of the daemon's reactor.
//!
//! Drives many concurrent tuning sessions against a daemon and measures
//! what its event-driven reactor can sustain:
//!
//! * **sustain** — ten thousand concurrent sessions: every connection
//!   opens a session and holds it until all sessions are live
//!   simultaneously, then runs its script to completion. Proves the
//!   reactor really carries 10k concurrent sessions on one listener.
//! * **compare** — JSON vs binary framing at high concurrency, identical
//!   workload, so the throughput ratio isolates the wire format.
//!
//! Until the thread-per-connection daemon was deleted, the compare phase
//! also raced it against the reactor. The committed `BENCH_c10k.json` is
//! that comparison's historical record (reactor 2.34x the requests/s on
//! ~half the RSS at 6,000 connections) and is not regenerated: its
//! `"mode"` column and `compare_speedup` field describe a daemon that no
//! longer exists.
//!
//! The daemon runs in a child process (spawned from this same binary
//! with `--daemon`) so its peak RSS (`VmHWM`) is attributable per phase
//! and the client's ten thousand sockets don't share a file table with
//! the server's. The client side is a single-threaded, poll-driven state
//! machine over nonblocking sockets — a thread-per-connection *client*
//! at 10k would itself be the bottleneck.
//!
//! Sessions open with a `Hello` capping the protocol at v2 (JSON
//! framing) or v3 (binary framing, the daemon's preference), then run
//! `SessionStart` over a 32-parameter space, `FETCHES` idempotent
//! `Fetch`es, `SessionEnd` — each session is `FETCHES + 3` requests.
//! Nothing is reported, so no run is recorded and the experience
//! database stays empty — the copy-on-write append path is the subject
//! of `bench_stack`'s `experience_churn` workload; here it would only
//! blur the connection-scaling measurement.
//!
//! Reports connections sustained, requests/s (whole phase and the
//! steady-state loop after the all-sessions-live barrier), p95/p99
//! request RTT, and the daemon's peak RSS per wire format, and writes
//! `BENCH_c10k.json`. The full run asserts the reactor sustains all 10k
//! sessions and — when both formats run — that binary framing beats
//! JSON by ≥ 1.25x on the steady-state loop throughput at the compare
//! concurrency (the connect ramp is identical TCP work in both formats,
//! so the format gate excludes it). `--format json|binary` restricts the
//! phases to one wire format (the default runs both); `--smoke` shrinks
//! everything for CI and only sanity-checks that every session
//! completes.

use harmony_net::codec::{encode_frame_as, WireFormat};
use harmony_net::poll::Poller;
use harmony_net::protocol::{Request, SpaceSpec};
use harmony_net::server::{DaemonConfig, TuningDaemon};
use harmony_net::wire::response_wire_kind;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Tuning-space width. Real spaces have tens of parameters (the paper's
/// web-system study tunes dozens), and the width is what puts payload on
/// the wire: every `Config` response carries one value per parameter, so
/// a toy two-parameter space would measure syscalls, not framing.
const PARAMS: usize = 32;

fn rsl() -> String {
    (0..PARAMS)
        .map(|i| format!("{{ harmonyBundle p{i} {{ int {{0 100 1}} }}}}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Fetches per session; the script is `Hello`, `SessionStart`,
/// `FETCHES` × `Fetch`, `SessionEnd`, so each session is `FETCHES + 3`
/// requests.
const FETCHES: usize = 6;

/// Give up on a phase after this long (a hung daemon or a lost frame
/// would otherwise wedge the bench forever).
const PHASE_DEADLINE: Duration = Duration::from_secs(300);

struct Params {
    sustain_conns: usize,
    compare_conns: usize,
}

const FULL: Params = Params {
    sustain_conns: 10_000,
    compare_conns: 6_000,
};

const SMOKE: Params = Params {
    sustain_conns: 128,
    compare_conns: 64,
};

// ---------------------------------------------------------------------
// RLIMIT_NOFILE: ten thousand client sockets need more than the default
// 1024 descriptors. `std` links libc, so — like the epoll wrapper and
// the CLI's signal(2) handling — declaring the two entry points beats a
// bindings dependency.

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

unsafe extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;

/// Raise the soft fd limit to the hard limit. Children inherit it.
fn raise_nofile_limit() {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return;
    }
    if lim.cur < lim.max {
        lim.cur = lim.max;
        unsafe { setrlimit(RLIMIT_NOFILE, &lim) };
    }
}

// ---------------------------------------------------------------------
// Daemon child process.

/// `--daemon`: run the daemon until stdin closes, reporting the bound
/// address up front and peak RSS on the way out.
fn run_daemon(max_conns: usize) -> ! {
    let handle = TuningDaemon::start(DaemonConfig {
        listen: "127.0.0.1:0".into(),
        max_connections: max_conns,
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    println!("ADDR {}", handle.addr());
    std::io::stdout().flush().expect("flush addr");
    // Park until the parent closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    handle.shutdown();
    println!("VMHWM_KB {}", peak_rss_kb());
    std::process::exit(0);
}

/// Peak resident set of this process, from `/proc/self/status` `VmHWM`.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: SocketAddr,
}

/// Spawn this binary as a daemon child and read back its address.
fn spawn_daemon(max_conns: usize) -> Daemon {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args(["--daemon", "--max-conns-internal", &max_conns.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon child");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read child addr");
    let addr = line
        .strip_prefix("ADDR ")
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or_else(|| panic!("bad daemon hello {line:?}"));
    Daemon {
        child,
        stdout,
        addr,
    }
}

impl Daemon {
    /// Close stdin (the child's cue to shut down) and collect its peak
    /// RSS report.
    fn stop(mut self) -> u64 {
        drop(self.child.stdin.take());
        let mut rss = 0;
        let mut line = String::new();
        while self.stdout.read_line(&mut line).unwrap_or(0) > 0 {
            if let Some(rest) = line.strip_prefix("VMHWM_KB ") {
                rss = rest.trim().parse().unwrap_or(0);
            }
            line.clear();
        }
        let _ = self.child.wait();
        rss
    }
}

// ---------------------------------------------------------------------
// Poll-driven client.

fn frame(format: WireFormat, req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_as(format, req, &mut buf).expect("encode request");
    buf
}

/// One client connection's script position.
#[derive(PartialEq)]
enum Step {
    /// `Hello` in flight; the answer fixes the connection's wire format.
    Greeting,
    /// `SessionStart` in flight; holds at the barrier once answered.
    Starting,
    /// Parked at the barrier until every session is live.
    Holding,
    /// `Fetch` in flight, this many (including it) still to go.
    Fetching(usize),
    /// `SessionEnd` in flight.
    Ending,
    Finished,
    Failed,
}

struct Conn {
    stream: TcpStream,
    step: Step,
    /// The connection's current wire format: JSON until the daemon's
    /// `Hello` answer lands, then whatever the session negotiated.
    format: WireFormat,
    /// The format this phase negotiates (what `format` becomes once the
    /// `Hello` exchange completes).
    target: WireFormat,
    /// The phase's pre-encoded `SessionStart` frame, already in the
    /// negotiated format; shared by every connection.
    start: std::rc::Rc<Vec<u8>>,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    sent_at: Instant,
    want_write: bool,
}

impl Conn {
    fn queue(&mut self, req: &Request) {
        let f = frame(self.format, req);
        self.wbuf.extend_from_slice(&f);
        self.sent_at = Instant::now();
    }

    /// Write as much of `wbuf` as the socket accepts.
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        self.want_write = !self.wbuf.is_empty();
        true
    }

    /// Read everything available; `false` on error or EOF.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Pop one complete response frame, if buffered, reduced to its
    /// variant name (`"Config"`, `"SessionSummary"`, …). The script only
    /// branches on the message *kind*, and skipping the full decode
    /// keeps the client cheap — it shares a core with the daemon under
    /// test. (It also sidesteps a wart: an unreported session's summary
    /// carries `performance: NaN`, which JSON encodes as `null` and a
    /// strict decode would refuse.) Binary frames carry the variant in
    /// their leading tag byte; JSON frames carry it as the first
    /// double-quoted string of the externally-tagged encoding.
    fn next_response(&mut self) -> Option<String> {
        if self.rbuf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(self.rbuf[..4].try_into().unwrap()) as usize;
        if self.rbuf.len() < 4 + len {
            return None;
        }
        let payload = &self.rbuf[4..4 + len];
        let tag = match self.format {
            WireFormat::Binary => response_wire_kind(payload).unwrap_or("").to_string(),
            WireFormat::Json => {
                let text = String::from_utf8_lossy(payload);
                text.split('"').nth(1).unwrap_or("").to_string()
            }
        };
        self.rbuf.drain(..4 + len);
        Some(tag)
    }
}

struct PhaseResult {
    phase: &'static str,
    format: &'static str,
    connections: usize,
    sustained: usize,
    wall_ms: f64,
    requests_per_sec: f64,
    /// Steady-state request throughput: requests answered from barrier
    /// release (every session live) to the last session's summary. The
    /// connect ramp before the barrier is TCP/accept cost, identical
    /// across wire formats, so the format comparison gates on this.
    loop_requests_per_sec: f64,
    rtt_p95_ms: f64,
    rtt_p99_ms: f64,
    daemon_peak_rss_kb: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Connections allowed to have an unanswered `SessionStart` while the
/// ramp is still connecting. A sequential client can out-connect the
/// accept queue of a daemon sharing its core — every overflowed SYN
/// then costs a ~1s retransmission timeout — and the c10k claim is
/// about concurrent *established* sessions, not about racing the
/// listener backlog. Bounding unanswered work keeps the ramp at the
/// daemon's own accept rate.
const RAMP_WINDOW: usize = 64;

/// The poll-driven client side of one phase.
struct Client {
    poller: Poller,
    by_token: HashMap<u64, Conn>,
    ready: Vec<harmony_net::poll::Readiness>,
    rtts_ms: Vec<f64>,
    requests: usize,
    sustained: usize,
    /// Connections parked at the barrier (answered `SessionStart`).
    holding: usize,
    /// Connections removed from `by_token` for any reason.
    closed: usize,
}

impl Client {
    /// One poll round: wait up to `timeout_ms`, then advance every
    /// ready connection.
    fn pump(&mut self, timeout_ms: i32) {
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        self.poller
            .wait(&mut ready, timeout_ms)
            .expect("client poll");
        for r in &ready {
            self.advance(r);
        }
        self.ready = ready;
    }

    fn advance(&mut self, r: &harmony_net::poll::Readiness) {
        let Some(conn) = self.by_token.get_mut(&r.token) else {
            return;
        };
        let mut alive = true;
        if r.writable {
            alive = conn.flush();
        }
        if alive && r.readable {
            alive = conn.fill();
            // Drain every complete response already buffered;
            // `Finished` and `Failed` end the script.
            loop {
                if !alive || matches!(conn.step, Step::Finished | Step::Failed) {
                    break;
                }
                let Some(resp) = conn.next_response() else {
                    break;
                };
                self.rtts_ms
                    .push(conn.sent_at.elapsed().as_secs_f64() * 1e3);
                self.requests += 1;
                match (&conn.step, resp.as_str()) {
                    (Step::Greeting, "Hello") => {
                        // The Hello answer travels in the pre-negotiation
                        // format; everything after speaks the negotiated
                        // one.
                        conn.format = conn.target;
                        conn.step = Step::Starting;
                        let start = Rc::clone(&conn.start);
                        conn.wbuf.extend_from_slice(&start);
                        conn.sent_at = Instant::now();
                    }
                    (Step::Starting, "SessionStarted") => {
                        // Barrier: hold until every session is live,
                        // so `conns` sessions really are concurrent.
                        conn.step = Step::Holding;
                        self.holding += 1;
                    }
                    (Step::Fetching(left), "Config") => {
                        if let Some(more) = left.checked_sub(1).filter(|&m| m > 0) {
                            conn.step = Step::Fetching(more);
                            conn.queue(&Request::Fetch);
                        } else {
                            conn.step = Step::Ending;
                            conn.queue(&Request::SessionEnd);
                        }
                    }
                    (Step::Ending, "SessionSummary") => {
                        conn.step = Step::Finished;
                    }
                    (_, other) => {
                        eprintln!("bench_c10k: unexpected response {other:?}");
                        conn.step = Step::Failed;
                    }
                }
            }
        }
        if alive && !conn.wbuf.is_empty() {
            alive = conn.flush();
        }
        if alive {
            let done = matches!(conn.step, Step::Finished | Step::Failed);
            if done {
                self.sustained += usize::from(conn.step == Step::Finished);
                self.close(r.token);
            } else {
                self.poller
                    .modify(conn.stream.as_raw_fd(), r.token, true, conn.want_write)
                    .expect("interest update");
            }
        } else {
            eprintln!("bench_c10k: connection {} died mid-session", r.token);
            self.close(r.token);
        }
    }

    fn close(&mut self, token: u64) {
        let conn = self.by_token.remove(&token).unwrap();
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.closed += 1;
    }
}

/// Drive `conns` concurrent sessions against a fresh daemon, framing
/// everything after the handshake in `format`.
fn run_phase(phase: &'static str, format: WireFormat, conns: usize) -> PhaseResult {
    let daemon = spawn_daemon(conns + 8);
    let addr = daemon.addr;
    let format_name = match format {
        WireFormat::Json => "json",
        WireFormat::Binary => "binary",
    };

    // Cap the handshake at v2 for JSON so the daemon never switches the
    // connection to binary framing; v3 for binary.
    let hello_req = Request::Hello {
        version: None,
        min_version: Some(1),
        max_version: Some(if format == WireFormat::Binary { 3 } else { 2 }),
        client: "bench_c10k".into(),
    };
    let start_req = Request::SessionStart {
        space: SpaceSpec::Rsl(rsl()),
        label: "c10k".into(),
        characteristics: vec![0.5, 0.5],
        max_iterations: Some(FETCHES + 2),
        engine: None,
    };
    let start_frame = Rc::new(frame(format, &start_req));

    let started = Instant::now();
    let mut client = Client {
        poller: Poller::new().expect("client poller"),
        by_token: HashMap::with_capacity(conns),
        ready: Vec::with_capacity(1024),
        rtts_ms: Vec::with_capacity(conns * (FETCHES + 2)),
        requests: 0,
        sustained: 0,
        holding: 0,
        closed: 0,
    };
    for token in 0..conns as u64 {
        // Paced ramp: stay at most `RAMP_WINDOW` unanswered
        // `SessionStart`s ahead of the daemon.
        while (token as usize).saturating_sub(client.holding + client.closed) >= RAMP_WINDOW {
            if started.elapsed() > PHASE_DEADLINE {
                panic!(
                    "bench_c10k: {phase}/{format_name}: deadline during connect ramp at \
                     {token}/{conns}"
                );
            }
            client.pump(10);
        }
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn {
            stream,
            step: Step::Greeting,
            format: WireFormat::Json,
            target: format,
            start: Rc::clone(&start_frame),
            wbuf: Vec::new(),
            wpos: 0,
            rbuf: Vec::new(),
            sent_at: Instant::now(),
            want_write: false,
        };
        conn.queue(&hello_req);
        if !conn.flush() {
            panic!("connection {token} died during Hello");
        }
        client
            .poller
            .add(conn.stream.as_raw_fd(), token, true, conn.want_write)
            .expect("register");
        client.by_token.insert(token, conn);
    }

    let mut released: Option<(Instant, usize)> = None;
    while !client.by_token.is_empty() {
        if started.elapsed() > PHASE_DEADLINE {
            eprintln!(
                "bench_c10k: {phase}/{format_name}: deadline hit with {} connections unfinished",
                client.by_token.len()
            );
            break;
        }
        client.pump(100);
        if released.is_none() && client.holding >= client.by_token.len() {
            // Every session answered SessionStart: all of them are live
            // at once. Release the barrier and run the scripts out.
            released = Some((Instant::now(), client.requests));
            for (&token, conn) in client.by_token.iter_mut() {
                conn.step = Step::Fetching(FETCHES);
                conn.queue(&Request::Fetch);
                if conn.flush() {
                    let _ =
                        client
                            .poller
                            .modify(conn.stream.as_raw_fd(), token, true, conn.want_write);
                }
            }
        }
    }
    let (requests, sustained, mut rtts_ms) = (client.requests, client.sustained, client.rtts_ms);
    let wall = started.elapsed().as_secs_f64();
    let loop_rate = released
        .map(|(at, before)| (requests - before) as f64 / at.elapsed().as_secs_f64())
        .unwrap_or(0.0);
    let rss = daemon.stop();

    rtts_ms.sort_by(f64::total_cmp);
    PhaseResult {
        phase,
        format: format_name,
        connections: conns,
        sustained,
        wall_ms: wall * 1e3,
        requests_per_sec: requests as f64 / wall,
        loop_requests_per_sec: loop_rate,
        rtt_p95_ms: percentile(&rtts_ms, 0.95),
        rtt_p99_ms: percentile(&rtts_ms, 0.99),
        daemon_peak_rss_kb: rss,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        let max_conns = args
            .iter()
            .position(|a| a == "--max-conns-internal")
            .and_then(|i| args.get(i + 1))
            .and_then(|n| n.parse().ok())
            .unwrap_or(64);
        run_daemon(max_conns);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut only_format = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {}
            "--format" => {
                only_format = match it.next().map(String::as_str) {
                    Some("json") => Some(WireFormat::Json),
                    Some("binary") => Some(WireFormat::Binary),
                    other => {
                        eprintln!("bench_c10k: --format needs json or binary, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            bad => {
                eprintln!("bench_c10k: unknown flag {bad:?} (--smoke | --format json|binary)");
                std::process::exit(2);
            }
        }
    }
    let p = if smoke { SMOKE } else { FULL };
    raise_nofile_limit();

    // The sustain phase runs the daemon's preferred format; the compare
    // phases race the two wire formats. With `--format` everything runs
    // in that one format (and the cross-format speedup is not computed).
    let results: Vec<PhaseResult> = match only_format {
        None => vec![
            run_phase("sustain", WireFormat::Binary, p.sustain_conns),
            run_phase("compare", WireFormat::Json, p.compare_conns),
            run_phase("compare", WireFormat::Binary, p.compare_conns),
        ],
        Some(f) => vec![
            run_phase("sustain", f, p.sustain_conns),
            run_phase("compare", f, p.compare_conns),
        ],
    };
    for r in &results {
        println!(
            "{:<8} {:<7} conns {:>6}  sustained {:>6}  wall {:>9.1} ms  requests {:>8.1}/s  \
             loop {:>8.1}/s  rtt p95 {:>7.2} ms  p99 {:>7.2} ms  daemon peak rss {:>7} kB",
            r.phase,
            r.format,
            r.connections,
            r.sustained,
            r.wall_ms,
            r.requests_per_sec,
            r.loop_requests_per_sec,
            r.rtt_p95_ms,
            r.rtt_p99_ms,
            r.daemon_peak_rss_kb,
        );
    }

    let compare = |format: &str| {
        results
            .iter()
            .find(|r| r.phase == "compare" && r.format == format)
    };
    // The format comparison gates on steady-state loop throughput: the
    // connect ramp ahead of the barrier is TCP and accept-queue cost,
    // byte-for-byte identical work in either format, and including it
    // would dilute the thing under test (per-request framing).
    let format_speedup = match (compare("json"), compare("binary")) {
        (Some(json), Some(binary)) => {
            let s = binary.loop_requests_per_sec / json.loop_requests_per_sec;
            println!("format speedup (binary / json, steady-state loop): {s:.2}x");
            Some(s)
        }
        _ => None,
    };

    let mut rows = String::new();
    for r in &results {
        let _ = write!(
            rows,
            "{}    {{\"phase\": \"{}\", \"format\": \"{}\", \
             \"connections\": {}, \
             \"sustained\": {}, \"wall_ms\": {:.2}, \"requests_per_sec\": {:.2}, \
             \"loop_requests_per_sec\": {:.2}, \
             \"rtt_p95_ms\": {:.4}, \"rtt_p99_ms\": {:.4}, \"daemon_peak_rss_kb\": {}}}",
            if rows.is_empty() { "" } else { ",\n" },
            r.phase,
            r.format,
            r.connections,
            r.sustained,
            r.wall_ms,
            r.requests_per_sec,
            r.loop_requests_per_sec,
            r.rtt_p95_ms,
            r.rtt_p99_ms,
            r.daemon_peak_rss_kb,
        );
    }
    let format_row = match format_speedup {
        Some(s) => format!(",\n  \"format_speedup\": {s:.4}"),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"bench\": \"c10k\",\n  \"smoke\": {smoke},\n  \
         \"requests_per_session\": {},\n  \"results\": [\n{rows}\n  ]{format_row}\n}}\n",
        FETCHES + 3,
    );
    std::fs::write("BENCH_c10k.json", &json).expect("write BENCH_c10k.json");
    println!("wrote BENCH_c10k.json");

    // Every session must complete in every phase, smoke or full: a
    // dropped connection is a correctness bug, not noise.
    for r in &results {
        assert_eq!(
            r.sustained, r.connections,
            "{}/{}: only {} of {} sessions completed",
            r.phase, r.format, r.sustained, r.connections
        );
    }
    // The full comparison exists to prove binary framing wins on the
    // wire; smoke runs are too small to measure anything.
    if let (false, Some(s)) = (smoke, format_speedup) {
        assert!(
            s >= 1.25,
            "binary framing only {s:.2}x JSON on the steady-state loop at {} connections \
             (need >= 1.25x)",
            p.compare_conns
        );
    }
}
