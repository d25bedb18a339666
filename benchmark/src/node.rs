//! Daemons as child processes: the benchmark re-executes itself with
//! `--node` (the `bench_cluster` pattern), so the measured daemon has
//! its own threads, allocator, metric registry and `/proc/<pid>` entry,
//! and inherits the parent's CPU affinity.

use harmony::history::DataAnalyzer;
use harmony_net::client::{Client, RetryPolicy};
use harmony_net::server::{DaemonConfig, TuningDaemon};
use std::io::Read;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned daemon may take to answer `Hello` (it loads its
/// snapshot first), and how long it may take to shut down cleanly.
const NODE_DEADLINE: Duration = Duration::from_secs(60);

/// What one daemon is asked to be.
#[derive(Debug, Clone, Default)]
pub struct NodeSpec {
    /// Listen address, which is also the ring identity.
    pub addr: String,
    /// Other ring members; empty outside the cluster workload.
    pub peers: Vec<String>,
    pub replication: usize,
    /// Snapshot file; the journal and sessions file sit beside it.
    pub db: Option<PathBuf>,
    pub tracing: bool,
    /// Classification gate (`DataAnalyzer::with_max_match_distance`):
    /// a prior run farther than this is "never seen before".
    pub match_gate: Option<f64>,
}

impl NodeSpec {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec!["--node".to_string(), self.addr.clone()];
        if !self.peers.is_empty() {
            args.extend(["--node-peers".into(), self.peers.join(",")]);
            args.extend(["--node-replicate".into(), self.replication.to_string()]);
        }
        if let Some(db) = &self.db {
            args.extend(["--node-db".into(), db.display().to_string()]);
        }
        if self.tracing {
            args.push("--node-trace".into());
        }
        if let Some(gate) = self.match_gate {
            args.extend(["--node-gate".into(), gate.to_string()]);
        }
        args
    }

    fn from_args(args: &[String]) -> Result<NodeSpec, String> {
        let mut it = args.iter();
        let mut spec = NodeSpec {
            addr: it.next().ok_or("--node needs an address")?.clone(),
            ..NodeSpec::default()
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--node-peers" => spec.peers = value()?.split(',').map(String::from).collect(),
                "--node-replicate" => {
                    spec.replication = value()?.parse().map_err(|e| format!("{flag}: {e}"))?
                }
                "--node-db" => spec.db = Some(PathBuf::from(value()?)),
                "--node-trace" => spec.tracing = true,
                "--node-gate" => {
                    spec.match_gate = Some(value()?.parse().map_err(|e| format!("{flag}: {e}"))?)
                }
                other => return Err(format!("unknown node flag {other}")),
            }
        }
        Ok(spec)
    }
}

/// Child-process mode: serve until the parent closes our stdin, then
/// shut down cleanly so the flusher's final compaction happens before
/// the parent's `wait` returns. A parent that dies closes the pipe too,
/// so no daemon outlives the benchmark.
pub fn run_node(args: &[String]) -> Result<(), String> {
    let spec = NodeSpec::from_args(args)?;
    let mut builder = DaemonConfig::builder()
        .listen(spec.addr.clone())
        .tracing(spec.tracing);
    if !spec.peers.is_empty() {
        builder = builder.cluster(spec.addr.clone(), spec.peers.clone(), spec.replication);
    }
    if let Some(db) = &spec.db {
        builder = builder.db_path(db.clone());
    }
    let mut config = builder.build()?;
    if let Some(gate) = spec.match_gate {
        config.analyzer = DataAnalyzer::new().with_max_match_distance(gate);
    }
    let handle = TuningDaemon::start(config).map_err(|e| format!("daemon start: {e}"))?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

/// A running child daemon. Dropping it kills and reaps the child, so a
/// panic anywhere in the benchmark leaves no process behind.
pub struct Node {
    child: Child,
    pub addr: String,
}

impl Node {
    /// Spawn the daemon; it is not serving yet (see [`Node::await_hello`]).
    pub fn spawn(spec: &NodeSpec) -> Result<Node, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let child = Command::new(exe)
            .args(spec.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon {}: {e}", spec.addr))?;
        Ok(Node {
            child,
            addr: spec.addr.clone(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Block until the daemon answers `Hello`.
    pub fn await_hello(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + NODE_DEADLINE;
        loop {
            let dial = Client::builder(self.addr.as_str())
                .retry(RetryPolicy::none())
                .connect();
            match dial {
                Ok(_) => return Ok(()),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon {} exited early: {status}", self.addr));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("daemon {} never answered Hello: {e}", self.addr));
                    }
                    // Sleeping cedes the one CPU to the child, which is
                    // still loading its snapshot.
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Close the daemon's stdin and wait for its clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + NODE_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon {} exited {status}", self.addr)),
                Ok(None) if Instant::now() >= deadline => {
                    return Err(format!("daemon {} ignored stdin EOF", self.addr))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for daemon {}: {e}", self.addr)),
            }
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `count` loopback addresses at the first free ports at or after
/// `base`. Ring members are named by address and the hash ring is built
/// from the names, so ephemeral ports would reshuffle the ring on every
/// run (design rule 4); a leftover listener moves a member to the next
/// free port instead of failing the run.
pub fn reserve_addrs(base: u16, count: usize) -> Result<Vec<String>, String> {
    let mut addrs = Vec::with_capacity(count);
    let mut port = base;
    while addrs.len() < count {
        let addr = format!("127.0.0.1:{port}");
        if TcpListener::bind(&addr).is_ok() {
            addrs.push(addr);
        }
        port = port
            .checked_add(1)
            .ok_or_else(|| format!("no free port at or after {base}"))?;
    }
    Ok(addrs)
}
