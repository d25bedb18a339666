//! Hand-rolled argument parsing (no external dependencies).

use std::fmt;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The selected subcommand.
    pub command: Command,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Inspect an RSL document: parameters, sizes, restrictions.
    Space {
        /// Path to the RSL file.
        rsl: String,
    },
    /// Run the parameter prioritizing tool against a measurement command.
    Sensitivity {
        /// Path to the RSL file.
        rsl: String,
        /// Cap on sampled values per parameter.
        samples: Option<usize>,
        /// Measurements averaged per value.
        repeats: usize,
        /// Worker threads measuring concurrently (1 = sequential).
        jobs: usize,
        /// The external measurement command and its arguments.
        measure: Vec<String>,
    },
    /// Tune against a measurement command.
    Tune {
        /// Path to the RSL file.
        rsl: String,
        /// Live iteration budget.
        iterations: usize,
        /// Use the original extreme-corner initial simplex instead of the
        /// improved evenly-spread one.
        original: bool,
        /// Search engine from the `harmony-engines` registry (`simplex`
        /// when unset; naming it only adds the report's `engine:` line).
        engine: Option<String>,
        /// Experience-database path (loaded if present, updated after).
        db: Option<String>,
        /// Label recorded for this run in the database.
        label: String,
        /// Workload characteristics for classification, comma-separated.
        characteristics: Vec<f64>,
        /// Drive a remote tuning daemon at this address instead of the
        /// in-process kernel.
        remote: Option<String>,
        /// Retries per request against the remote daemon (needs --remote).
        retry: Option<u32>,
        /// Per-request deadline in milliseconds (needs --remote).
        deadline_ms: Option<u64>,
        /// Participate in distributed tracing (needs --remote): the
        /// session becomes one trace in the daemon's flight recorder.
        trace: bool,
        /// Wire encoding against the daemon (needs --remote): `None`
        /// negotiates the newest protocol (binary framing on a v3
        /// daemon), `Some(Json)` pins the client at protocol v2 JSON.
        wire: Option<WireChoice>,
        /// Worker threads measuring concurrently (1 = sequential).
        jobs: usize,
        /// The external measurement command and its arguments.
        measure: Vec<String>,
    },
    /// Run the tuning daemon.
    Serve {
        /// Path to the RSL file describing the space the daemon serves.
        rsl: String,
        /// Experience-database snapshot path, persisted across restarts.
        db: Option<String>,
        /// Write-ahead journal path (defaults to the db path + ".wal").
        wal: Option<String>,
        /// Fold journal into snapshot after this many appends.
        compact_every: Option<usize>,
        /// Address to bind.
        listen: String,
        /// Other cluster members' advertised addresses (repeat `--peer`
        /// or comma-separate). The daemon joins their consistent-hash
        /// ring, advertising its own `--listen` address.
        peers: Vec<String>,
        /// Ring members holding each run and replicated session,
        /// counting the owner (needs `--peer`).
        replicate: Option<usize>,
        /// Default live-iteration budget for sessions.
        iterations: Option<usize>,
        /// Concurrent-connection cap.
        max_connections: Option<usize>,
        /// Append structured JSONL events to this file.
        log_json: Option<String>,
        /// Rotate the --log-json file when it reaches this many bytes.
        log_rotate_bytes: Option<u64>,
        /// Rotated files kept (events.jsonl.1 … .N); needs
        /// --log-rotate-bytes.
        log_keep: Option<usize>,
        /// Do not enable the distributed-tracing flight recorder.
        no_trace: bool,
    },
    /// Race every registered engine (and its hyperparameters) across
    /// websim workload mixes; write the deterministic leaderboard.
    Tournament {
        /// Measurement budget per engine run.
        budget: usize,
        /// Hyperparameter candidates per race (defaults included).
        candidates: usize,
        /// Seed for candidate draws and engine randomness.
        seed: u64,
        /// Worker threads scoring candidates concurrently.
        jobs: usize,
        /// Workload mixes to race on (`browsing`, `shopping`, `ordering`).
        mixes: Vec<String>,
        /// Leaderboard output path.
        out: String,
    },
    /// Fetch live metrics from a running daemon.
    Stats {
        /// Daemon address (`host:port`).
        addr: String,
    },
    /// Fetch the flight recorder from a running daemon and render span
    /// waterfalls plus a cross-trace stage-attribution table.
    Trace {
        /// Daemon address (`host:port`).
        addr: String,
    },
    /// Inspect an experience database.
    Db {
        /// Path to the JSON database.
        path: String,
    },
    /// Print usage.
    Help,
}

/// The `--wire` choice for remote tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireChoice {
    /// Pin the client at protocol v2: every frame is JSON.
    Json,
    /// Negotiate the newest protocol (v3 binary framing when the daemon
    /// supports it, with automatic JSON fallback on older daemons).
    /// This is also the behavior when `--wire` is omitted.
    Binary,
}

/// Argument errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
harmony-cli — Active Harmony automated tuning

USAGE:
  harmony-cli space <params.rsl>
  harmony-cli sensitivity <params.rsl> [--samples N] [--repeats R] [--jobs N]
              -- <measure-cmd> [args…]
  harmony-cli tune <params.rsl> [--iterations N] [--original] [--jobs N]
              [--engine <name>] [--db <experience.json>] [--label <name>]
              [--characteristics a,b,c] [--remote <host:port>]
              [--retry N] [--deadline MS] [--trace] [--wire json|binary]
              -- <measure-cmd> [args…]
  harmony-cli tournament [--budget N] [--candidates N] [--seed N] [--jobs N]
              [--mixes browsing,shopping,ordering] [--out <leaderboard.txt>]
  harmony-cli serve <params.rsl> [--listen <host:port>] [--db <experience.json>]
              [--wal <journal.wal>] [--compact-every N]
              [--peer <host:port>[,<host:port>…]] [--replicate N]
              [--iterations N] [--max-connections N]
              [--log-json <events.jsonl>]
              [--log-rotate-bytes N] [--log-keep N] [--no-trace]
  harmony-cli stats <host:port>
  harmony-cli trace <host:port>
  harmony-cli db <experience.json>

The measure command is executed once per exploration with one environment
variable per parameter (HARMONY_<NAME>=<value>); its last non-empty stdout
line must be the performance (higher is better).

--jobs N measures up to N configurations concurrently (each as its own
process) and memoizes results per exact configuration, so revisited points
are answered from the in-memory cache instead of re-measured. Results are
identical to a sequential run for a deterministic measure command; under
measurement noise the cache pins each configuration to its first sample.

--engine <name> picks the search strategy from the harmony-engines
registry: 'simplex' (the paper's kernel, and the default without --engine),
'divide-diverge' (BestConfig-style sampling with recursive bound-and-search)
or 'tuneful' (online significance-aware tuning that shrinks the active
parameter set). Locally all engines honour --db warm starting and --jobs
batching; with --remote the name travels in the SessionStart and the daemon
builds and drives the engine server-side (with its own warm start), so a
remote run explores the identical trajectory a local one would.
'tournament' needs no RSL or measure command: it races every engine on the
built-in websim workload mixes, meta-tunes each engine's hyperparameters and
writes a deterministic leaderboard (byte-identical for a fixed --seed at any
--jobs) to --out (default results/engines_leaderboard.txt).

With --remote, the configurations come from a tuning daemon (see 'serve')
instead of the in-process kernel: the daemon classifies the session against
its shared experience database and records the finished run back into it.
--remote accepts a comma-separated endpoint list (every daemon of one
cluster): the client dials them in order, fails over to the next on a dead
daemon, and follows the cluster's session-ownership redirects. --db and
--original are daemon-side decisions and cannot be combined with --remote. --retry N retries each failed-but-retryable request up to N times
with jittered backoff, reconnecting and resuming the session in place;
--deadline MS bounds each request's response time (expiry counts as
retryable). --wire picks the encoding against the daemon: 'binary' (the
default) negotiates the newest protocol — compact binary framing against a
v3 daemon, with automatic JSON fallback on older ones — while 'json' pins
the client at protocol v2 so every frame stays human-readable JSON.
Both encodings drive bit-identical tuning trajectories. 'serve' listens until stdin reaches end-of-file or the process
receives SIGTERM/SIGINT, then drains: new work is refused with a retryable
answer, unfinished sessions are parked to disk next to the database, and
the journal is flushed before exit. --log-json appends
one structured JSON event per line (session starts, records, persistence
failures) to the given file; --log-rotate-bytes N rotates it at roughly N
bytes (always on a line boundary, so no event is ever torn across files),
keeping --log-keep rotated files (default 3) as <file>.1 … <file>.N.
'stats' prints the daemon's live metrics in Prometheus text exposition
format.

The daemon records distributed traces by default (disable with
--no-trace): with 'tune --remote --trace' each session becomes one span
tree covering the whole client → daemon → executor path, retained in a
fixed-size flight recorder (slowest, errored, and a sampled fraction).
'trace <host:port>' fetches it and renders per-trace waterfalls plus a
cross-trace per-stage latency attribution table. Tracing never affects
tuning: trajectories are bit-identical with it on or off.

With --db, completed runs are journaled to a write-ahead log (one JSON line
per run, --wal overrides its location) and folded into the snapshot file
every --compact-every appends (default 64) and at shutdown. A crash between
compactions loses nothing: on restart the daemon replays the journal on top
of the snapshot, tolerating at most one torn final line.

With --peer, 'serve' joins a cluster: every daemon lists the others'
addresses (its own identity is its --listen address, byte-for-byte as the
peers spell it) and they form a consistent-hash ring. Sessions are owned by
the daemon that starts them; recorded runs live on the ring member their
workload characteristics hash to, shipped there over the peer protocol.
--replicate N keeps each run and each live session's snapshots on N members
(counting the owner), so with N >= 2 killing any single daemon loses no
recorded run, and an interrupted session resumes — bit-identically — on the
surviving replica the client's reconnect is redirected to.";

/// Parse a full argument vector (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let mut it = args.iter().peekable();
    let sub = match it.next() {
        None => {
            return Ok(Cli {
                command: Command::Help,
            })
        }
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Cli {
            command: Command::Help,
        }),
        "space" => {
            let rsl = it
                .next()
                .ok_or_else(|| err("space: missing RSL file"))?
                .clone();
            expect_end(&mut it, "space")?;
            Ok(Cli {
                command: Command::Space { rsl },
            })
        }
        "db" => {
            let path = it
                .next()
                .ok_or_else(|| err("db: missing database path"))?
                .clone();
            expect_end(&mut it, "db")?;
            Ok(Cli {
                command: Command::Db { path },
            })
        }
        "sensitivity" => {
            let rsl = it
                .next()
                .ok_or_else(|| err("sensitivity: missing RSL file"))?
                .clone();
            let mut samples = None;
            let mut repeats = 1usize;
            let mut jobs = 1usize;
            let mut measure = Vec::new();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--samples" => samples = Some(parse_value(&mut it, "--samples")?),
                    "--repeats" => repeats = parse_value(&mut it, "--repeats")?,
                    "--jobs" => jobs = parse_jobs(&mut it)?,
                    "--" => {
                        measure = it.cloned().collect();
                        break;
                    }
                    other => {
                        return Err(err(format!("sensitivity: unexpected argument {other:?}")))
                    }
                }
            }
            if measure.is_empty() {
                return Err(err("sensitivity: missing '-- <measure-cmd>'"));
            }
            Ok(Cli {
                command: Command::Sensitivity {
                    rsl,
                    samples,
                    repeats,
                    jobs,
                    measure,
                },
            })
        }
        "tune" => {
            let rsl = it
                .next()
                .ok_or_else(|| err("tune: missing RSL file"))?
                .clone();
            let mut iterations = 100usize;
            let mut original = false;
            let mut engine = None;
            let mut db = None;
            let mut label = "run".to_string();
            let mut characteristics = Vec::new();
            let mut remote = None;
            let mut retry = None;
            let mut deadline_ms = None;
            let mut trace = false;
            let mut wire = None;
            let mut jobs = 1usize;
            let mut measure = Vec::new();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--iterations" => iterations = parse_value(&mut it, "--iterations")?,
                    "--original" => original = true,
                    "--engine" => {
                        let name = next_str(&mut it, "--engine")?;
                        // Validate against the registry here so a typo
                        // fails with the list of real engines instead of
                        // a generic parse failure downstream.
                        harmony_engines::registry::lookup(&name)
                            .map_err(|e| err(format!("--engine: {e}")))?;
                        engine = Some(name);
                    }
                    "--jobs" => jobs = parse_jobs(&mut it)?,
                    "--db" => db = Some(next_str(&mut it, "--db")?),
                    "--remote" => remote = Some(next_str(&mut it, "--remote")?),
                    "--retry" => retry = Some(parse_value(&mut it, "--retry")?),
                    "--deadline" => {
                        let ms: u64 = parse_value(&mut it, "--deadline")?;
                        if ms == 0 {
                            return Err(err("--deadline: must be at least 1 millisecond"));
                        }
                        deadline_ms = Some(ms);
                    }
                    "--trace" => trace = true,
                    "--wire" => {
                        let raw = next_str(&mut it, "--wire")?;
                        wire = Some(match raw.as_str() {
                            "json" => WireChoice::Json,
                            "binary" => WireChoice::Binary,
                            other => {
                                return Err(err(format!(
                                    "--wire: unknown format {other:?} (json or binary)"
                                )))
                            }
                        });
                    }
                    "--label" => label = next_str(&mut it, "--label")?,
                    "--characteristics" => {
                        let raw = next_str(&mut it, "--characteristics")?;
                        characteristics = raw
                            .split(',')
                            .map(|s| {
                                s.trim().parse::<f64>().map_err(|_| {
                                    err(format!("--characteristics: bad number {s:?}"))
                                })
                            })
                            .collect::<Result<Vec<f64>, CliError>>()?;
                    }
                    "--" => {
                        measure = it.cloned().collect();
                        break;
                    }
                    other => return Err(err(format!("tune: unexpected argument {other:?}"))),
                }
            }
            if measure.is_empty() {
                return Err(err("tune: missing '-- <measure-cmd>'"));
            }
            if remote.is_some() && (db.is_some() || original) {
                return Err(err(
                    "tune: --remote cannot be combined with --db or --original \
                     (the daemon owns the experience database and search strategy)",
                ));
            }
            if remote.is_some() && jobs > 1 {
                return Err(err("tune: --jobs applies to local tuning only \
                     (a remote daemon proposes configurations one at a time)"));
            }
            if original && engine.as_deref().is_some_and(|e| e != "simplex") {
                return Err(err(
                    "tune: --original configures the simplex engine's initial \
                     simplex and cannot be combined with another --engine",
                ));
            }
            if remote.is_none() && (retry.is_some() || deadline_ms.is_some()) {
                return Err(err(
                    "tune: --retry and --deadline apply to --remote tuning only",
                ));
            }
            if remote.is_none() && trace {
                return Err(err("tune: --trace applies to --remote tuning only \
                     (the daemon hosts the flight recorder)"));
            }
            if remote.is_none() && wire.is_some() {
                return Err(err("tune: --wire applies to --remote tuning only \
                     (local tuning has no wire)"));
            }
            Ok(Cli {
                command: Command::Tune {
                    rsl,
                    iterations,
                    original,
                    engine,
                    db,
                    label,
                    characteristics,
                    remote,
                    retry,
                    deadline_ms,
                    trace,
                    wire,
                    jobs,
                    measure,
                },
            })
        }
        "serve" => {
            let rsl = it
                .next()
                .ok_or_else(|| err("serve: missing RSL file"))?
                .clone();
            let mut db = None;
            let mut wal = None;
            let mut compact_every = None;
            let mut listen = "127.0.0.1:1977".to_string();
            let mut peers: Vec<String> = Vec::new();
            let mut replicate = None;
            let mut iterations = None;
            let mut max_connections = None;
            let mut log_json = None;
            let mut log_rotate_bytes = None;
            let mut log_keep = None;
            let mut no_trace = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--db" => db = Some(next_str(&mut it, "--db")?),
                    "--wal" => wal = Some(next_str(&mut it, "--wal")?),
                    "--compact-every" => {
                        compact_every = Some(parse_value(&mut it, "--compact-every")?)
                    }
                    "--listen" => listen = next_str(&mut it, "--listen")?,
                    "--peer" => {
                        let raw = next_str(&mut it, "--peer")?;
                        for peer in raw.split(',') {
                            let peer = peer.trim();
                            if peer.is_empty() {
                                return Err(err("--peer: empty address"));
                            }
                            peers.push(peer.to_string());
                        }
                    }
                    "--replicate" => {
                        let n: usize = parse_value(&mut it, "--replicate")?;
                        if n == 0 {
                            return Err(err("--replicate: must be at least 1"));
                        }
                        replicate = Some(n);
                    }
                    "--iterations" => iterations = Some(parse_value(&mut it, "--iterations")?),
                    "--max-connections" | "--max-conns" => {
                        max_connections = Some(parse_value(&mut it, "--max-connections")?)
                    }
                    "--log-json" => log_json = Some(next_str(&mut it, "--log-json")?),
                    "--log-rotate-bytes" => {
                        let bytes: u64 = parse_value(&mut it, "--log-rotate-bytes")?;
                        if bytes == 0 {
                            return Err(err("--log-rotate-bytes: must be at least 1"));
                        }
                        log_rotate_bytes = Some(bytes);
                    }
                    "--log-keep" => {
                        let keep: usize = parse_value(&mut it, "--log-keep")?;
                        if keep == 0 {
                            return Err(err("--log-keep: must keep at least 1 rotated file"));
                        }
                        log_keep = Some(keep);
                    }
                    "--no-trace" => no_trace = true,
                    other => return Err(err(format!("serve: unexpected argument {other:?}"))),
                }
            }
            // --wal/--compact-every/--db combinations are validated by
            // `DaemonConfig::builder` when the daemon is configured, so
            // the rule lives in one place for every embedder.
            if replicate.is_some() && peers.is_empty() {
                return Err(err(
                    "serve: --replicate needs --peer (no ring to replicate across)",
                ));
            }
            if log_json.is_none() && log_rotate_bytes.is_some() {
                return Err(err(
                    "serve: --log-rotate-bytes needs --log-json (nothing to rotate without it)",
                ));
            }
            if log_rotate_bytes.is_none() && log_keep.is_some() {
                return Err(err("serve: --log-keep needs --log-rotate-bytes"));
            }
            Ok(Cli {
                command: Command::Serve {
                    rsl,
                    db,
                    wal,
                    compact_every,
                    listen,
                    peers,
                    replicate,
                    iterations,
                    max_connections,
                    log_json,
                    log_rotate_bytes,
                    log_keep,
                    no_trace,
                },
            })
        }
        "tournament" => {
            let mut budget = 120usize;
            let mut candidates = 4usize;
            let mut seed = 42u64;
            let mut jobs = 1usize;
            let mut mixes = vec![
                "browsing".to_string(),
                "shopping".to_string(),
                "ordering".to_string(),
            ];
            let mut out = "results/engines_leaderboard.txt".to_string();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--budget" => {
                        budget = parse_value(&mut it, "--budget")?;
                        if budget == 0 {
                            return Err(err("--budget: must be at least 1"));
                        }
                    }
                    "--candidates" => {
                        candidates = parse_value(&mut it, "--candidates")?;
                        if candidates == 0 {
                            return Err(err("--candidates: must be at least 1"));
                        }
                    }
                    "--seed" => seed = parse_value(&mut it, "--seed")?,
                    "--jobs" => jobs = parse_jobs(&mut it)?,
                    "--mixes" => {
                        let raw = next_str(&mut it, "--mixes")?;
                        mixes = raw.split(',').map(|s| s.trim().to_string()).collect();
                        for m in &mixes {
                            if !matches!(m.as_str(), "browsing" | "shopping" | "ordering") {
                                return Err(err(format!(
                                    "--mixes: unknown mix {m:?}; available mixes: \
                                     browsing, shopping, ordering"
                                )));
                            }
                        }
                    }
                    "--out" => out = next_str(&mut it, "--out")?,
                    other => return Err(err(format!("tournament: unexpected argument {other:?}"))),
                }
            }
            Ok(Cli {
                command: Command::Tournament {
                    budget,
                    candidates,
                    seed,
                    jobs,
                    mixes,
                    out,
                },
            })
        }
        "stats" => {
            let addr = it
                .next()
                .ok_or_else(|| err("stats: missing daemon address"))?
                .clone();
            expect_end(&mut it, "stats")?;
            Ok(Cli {
                command: Command::Stats { addr },
            })
        }
        "trace" => {
            let addr = it
                .next()
                .ok_or_else(|| err("trace: missing daemon address"))?
                .clone();
            expect_end(&mut it, "trace")?;
            Ok(Cli {
                command: Command::Trace { addr },
            })
        }
        other => Err(err(format!(
            "unknown subcommand {other:?} (try 'harmony-cli help')"
        ))),
    }
}

fn parse_jobs<'a>(
    it: &mut std::iter::Peekable<impl Iterator<Item = &'a String>>,
) -> Result<usize, CliError> {
    let jobs: usize = parse_value(it, "--jobs")?;
    if jobs == 0 {
        return Err(err("--jobs: must be at least 1"));
    }
    Ok(jobs)
}

fn next_str<'a>(
    it: &mut std::iter::Peekable<impl Iterator<Item = &'a String>>,
    flag: &str,
) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| err(format!("{flag}: missing value")))
}

fn parse_value<'a, T: std::str::FromStr>(
    it: &mut std::iter::Peekable<impl Iterator<Item = &'a String>>,
    flag: &str,
) -> Result<T, CliError> {
    let raw = next_str(it, flag)?;
    raw.parse::<T>()
        .map_err(|_| err(format!("{flag}: invalid value {raw:?}")))
}

fn expect_end<'a>(
    it: &mut std::iter::Peekable<impl Iterator<Item = &'a String>>,
    sub: &str,
) -> Result<(), CliError> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(err(format!("{sub}: unexpected argument {extra:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap().command, Command::Help);
        assert_eq!(parse_args(&v(&["--help"])).unwrap().command, Command::Help);
    }

    #[test]
    fn space_and_db() {
        assert_eq!(
            parse_args(&v(&["space", "p.rsl"])).unwrap().command,
            Command::Space {
                rsl: "p.rsl".into()
            }
        );
        assert_eq!(
            parse_args(&v(&["db", "e.json"])).unwrap().command,
            Command::Db {
                path: "e.json".into()
            }
        );
        assert!(parse_args(&v(&["space"])).is_err());
        assert!(parse_args(&v(&["space", "a", "b"])).is_err());
    }

    #[test]
    fn sensitivity_full() {
        let cli = parse_args(&v(&[
            "sensitivity",
            "p.rsl",
            "--samples",
            "8",
            "--repeats",
            "3",
            "--",
            "./m.sh",
            "arg",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Sensitivity {
                rsl: "p.rsl".into(),
                samples: Some(8),
                repeats: 3,
                jobs: 1,
                measure: v(&["./m.sh", "arg"]),
            }
        );
    }

    #[test]
    fn sensitivity_requires_measure_command() {
        assert!(parse_args(&v(&["sensitivity", "p.rsl"])).is_err());
        assert!(parse_args(&v(&["sensitivity", "p.rsl", "--"])).is_err());
    }

    #[test]
    fn tune_defaults_and_flags() {
        let cli = parse_args(&v(&["tune", "p.rsl", "--", "./m.sh"])).unwrap();
        match cli.command {
            Command::Tune {
                iterations,
                original,
                db,
                label,
                characteristics,
                ..
            } => {
                assert_eq!(iterations, 100);
                assert!(!original);
                assert!(db.is_none());
                assert_eq!(label, "run");
                assert!(characteristics.is_empty());
            }
            other => panic!("wrong command {other:?}"),
        }

        let cli = parse_args(&v(&[
            "tune",
            "p.rsl",
            "--iterations",
            "42",
            "--original",
            "--db",
            "e.json",
            "--label",
            "night",
            "--characteristics",
            "0.2, 0.8",
            "--",
            "./m.sh",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune {
                iterations,
                original,
                db,
                label,
                characteristics,
                ..
            } => {
                assert_eq!(iterations, 42);
                assert!(original);
                assert_eq!(db.as_deref(), Some("e.json"));
                assert_eq!(label, "night");
                assert_eq!(characteristics, vec![0.2, 0.8]);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn tune_remote() {
        let cli = parse_args(&v(&[
            "tune",
            "p.rsl",
            "--remote",
            "10.0.0.7:1977",
            "--label",
            "apu",
            "--",
            "./m.sh",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune { remote, label, .. } => {
                assert_eq!(remote.as_deref(), Some("10.0.0.7:1977"));
                assert_eq!(label, "apu");
            }
            other => panic!("wrong command {other:?}"),
        }

        // The daemon owns db and strategy; combining is refused.
        assert!(parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--db", "e.json", "--", "m",
        ]))
        .is_err());
        assert!(parse_args(&v(&[
            "tune",
            "p.rsl",
            "--remote",
            "h:1",
            "--original",
            "--",
            "m"
        ]))
        .is_err());
    }

    #[test]
    fn retry_and_deadline_need_remote() {
        let cli = parse_args(&v(&[
            "tune",
            "p.rsl",
            "--remote",
            "h:1",
            "--retry",
            "7",
            "--deadline",
            "2500",
            "--",
            "m",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune {
                retry, deadline_ms, ..
            } => {
                assert_eq!(retry, Some(7));
                assert_eq!(deadline_ms, Some(2500));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: both unset.
        let cli = parse_args(&v(&["tune", "p.rsl", "--remote", "h:1", "--", "m"])).unwrap();
        match cli.command {
            Command::Tune {
                retry, deadline_ms, ..
            } => {
                assert_eq!(retry, None);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Local tuning has no wire to retry.
        assert!(parse_args(&v(&["tune", "p.rsl", "--retry", "3", "--", "m"])).is_err());
        assert!(parse_args(&v(&["tune", "p.rsl", "--deadline", "100", "--", "m"])).is_err());
        // Bad values.
        assert!(parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--retry", "x", "--", "m"
        ]))
        .is_err());
        assert!(parse_args(&v(&[
            "tune",
            "p.rsl",
            "--remote",
            "h:1",
            "--deadline",
            "0",
            "--",
            "m"
        ]))
        .is_err());
    }

    #[test]
    fn wire_flag_needs_remote_and_validates_the_format() {
        let cli = parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--wire", "json", "--", "m",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune { wire, .. } => assert_eq!(wire, Some(WireChoice::Json)),
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--wire", "binary", "--", "m",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune { wire, .. } => assert_eq!(wire, Some(WireChoice::Binary)),
            other => panic!("wrong command {other:?}"),
        }
        // Default: negotiate (None, meaning binary-when-available).
        let cli = parse_args(&v(&["tune", "p.rsl", "--remote", "h:1", "--", "m"])).unwrap();
        match cli.command {
            Command::Tune { wire, .. } => assert_eq!(wire, None),
            other => panic!("wrong command {other:?}"),
        }
        // Local tuning has no wire.
        let e = parse_args(&v(&["tune", "p.rsl", "--wire", "json", "--", "m"])).unwrap_err();
        assert!(e.0.contains("--wire applies to --remote"), "{e}");
        // Unknown formats are refused with the valid choices.
        let e = parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--wire", "xml", "--", "m",
        ]))
        .unwrap_err();
        assert!(e.0.contains("json or binary"), "{e}");
    }

    #[test]
    fn serve_defaults_and_flags() {
        let cli = parse_args(&v(&["serve", "p.rsl"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                rsl: "p.rsl".into(),
                db: None,
                wal: None,
                compact_every: None,
                listen: "127.0.0.1:1977".into(),
                peers: vec![],
                replicate: None,
                iterations: None,
                max_connections: None,
                log_json: None,
                log_rotate_bytes: None,
                log_keep: None,
                no_trace: false,
            }
        );

        let cli = parse_args(&v(&[
            "serve",
            "p.rsl",
            "--listen",
            "0.0.0.0:7007",
            "--db",
            "e.json",
            "--wal",
            "e.wal",
            "--compact-every",
            "16",
            "--peer",
            "10.0.0.2:7007,10.0.0.3:7007",
            "--peer",
            "10.0.0.4:7007",
            "--replicate",
            "2",
            "--iterations",
            "80",
            "--max-connections",
            "4",
            "--log-json",
            "events.jsonl",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                rsl: "p.rsl".into(),
                db: Some("e.json".into()),
                wal: Some("e.wal".into()),
                compact_every: Some(16),
                listen: "0.0.0.0:7007".into(),
                peers: v(&["10.0.0.2:7007", "10.0.0.3:7007", "10.0.0.4:7007"]),
                replicate: Some(2),
                iterations: Some(80),
                max_connections: Some(4),
                log_json: Some("events.jsonl".into()),
                log_rotate_bytes: None,
                log_keep: None,
                no_trace: false,
            }
        );

        // --max-conns is an alias.
        let cli = parse_args(&v(&["serve", "p.rsl", "--max-conns", "9"])).unwrap();
        match cli.command {
            Command::Serve {
                max_connections, ..
            } => assert_eq!(max_connections, Some(9)),
            other => panic!("wrong command {other:?}"),
        }
        // There is one serving model; the flag that chose the other is gone.
        let e = parse_args(&v(&["serve", "p.rsl", "--threaded"])).unwrap_err();
        assert_eq!(e.0, "serve: unexpected argument \"--threaded\"");

        assert!(parse_args(&v(&["serve"])).is_err());
        assert!(parse_args(&v(&["serve", "p.rsl", "--port", "1"])).is_err());
        assert!(parse_args(&v(&["serve", "p.rsl", "--log-json"])).is_err());
    }

    #[test]
    fn serve_log_rotation_flags() {
        let cli = parse_args(&v(&[
            "serve",
            "p.rsl",
            "--log-json",
            "events.jsonl",
            "--log-rotate-bytes",
            "65536",
            "--log-keep",
            "5",
            "--no-trace",
        ]))
        .unwrap();
        match cli.command {
            Command::Serve {
                log_json,
                log_rotate_bytes,
                log_keep,
                no_trace,
                ..
            } => {
                assert_eq!(log_json.as_deref(), Some("events.jsonl"));
                assert_eq!(log_rotate_bytes, Some(65536));
                assert_eq!(log_keep, Some(5));
                assert!(no_trace);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Rotation needs a log, keep needs rotation, zero is refused.
        assert!(parse_args(&v(&["serve", "p.rsl", "--log-rotate-bytes", "1024"])).is_err());
        assert!(parse_args(&v(&[
            "serve",
            "p.rsl",
            "--log-json",
            "e.jsonl",
            "--log-keep",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&v(&[
            "serve",
            "p.rsl",
            "--log-json",
            "e.jsonl",
            "--log-rotate-bytes",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&v(&[
            "serve",
            "p.rsl",
            "--log-json",
            "e.jsonl",
            "--log-rotate-bytes",
            "1024",
            "--log-keep",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn trace_flags_and_subcommand() {
        let cli = parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--trace", "--", "m",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune { trace, .. } => assert!(trace),
            other => panic!("wrong command {other:?}"),
        }
        // The flight recorder lives in the daemon.
        let e = parse_args(&v(&["tune", "p.rsl", "--trace", "--", "m"])).unwrap_err();
        assert!(e.0.contains("--trace applies to --remote"), "{e}");
        assert_eq!(
            parse_args(&v(&["trace", "127.0.0.1:1977"]))
                .unwrap()
                .command,
            Command::Trace {
                addr: "127.0.0.1:1977".into()
            }
        );
        assert!(parse_args(&v(&["trace"])).is_err());
        assert!(parse_args(&v(&["trace", "a:1", "b:2"])).is_err());
    }

    #[test]
    fn serve_wal_flags_parse_without_a_db() {
        // The wal/db and compact/db combinations are validated by
        // DaemonConfig::builder when the daemon is configured, not at parse
        // time, so embedders and the CLI share one set of rules. The parser
        // only rejects values it cannot read.
        assert!(parse_args(&v(&["serve", "p.rsl", "--wal", "e.wal"])).is_ok());
        assert!(parse_args(&v(&["serve", "p.rsl", "--compact-every", "8"])).is_ok());
        assert!(parse_args(&v(&["serve", "p.rsl", "--compact-every", "x", "--db", "e"])).is_err());
    }

    #[test]
    fn serve_cluster_flags() {
        // Comma-separated and repeated --peer flags accumulate in order.
        let cli = parse_args(&v(&[
            "serve", "p.rsl", "--peer", "a:1,b:2", "--peer", "c:3",
        ]))
        .unwrap();
        match cli.command {
            Command::Serve {
                peers, replicate, ..
            } => {
                assert_eq!(peers, v(&["a:1", "b:2", "c:3"]));
                assert_eq!(replicate, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Replication without a ring has nothing to copy to.
        let e = parse_args(&v(&["serve", "p.rsl", "--replicate", "2"])).unwrap_err();
        assert!(e.0.contains("--replicate needs --peer"), "{e}");
        // Zero copies and empty addresses are refused outright.
        let e =
            parse_args(&v(&["serve", "p.rsl", "--peer", "a:1", "--replicate", "0"])).unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
        assert!(parse_args(&v(&["serve", "p.rsl", "--peer", "a:1,,b:2"])).is_err());
        assert!(parse_args(&v(&["serve", "p.rsl", "--peer"])).is_err());
    }

    #[test]
    fn stats_takes_one_address() {
        assert_eq!(
            parse_args(&v(&["stats", "127.0.0.1:1977"]))
                .unwrap()
                .command,
            Command::Stats {
                addr: "127.0.0.1:1977".into()
            }
        );
        assert!(parse_args(&v(&["stats"])).is_err());
        assert!(parse_args(&v(&["stats", "a:1", "b:2"])).is_err());
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        let cli = parse_args(&v(&["tune", "p.rsl", "--jobs", "4", "--", "m"])).unwrap();
        match cli.command {
            Command::Tune { jobs, .. } => assert_eq!(jobs, 4),
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&v(&["sensitivity", "p.rsl", "--jobs", "2", "--", "m"])).unwrap();
        match cli.command {
            Command::Sensitivity { jobs, .. } => assert_eq!(jobs, 2),
            other => panic!("wrong command {other:?}"),
        }
        // Defaults to sequential.
        let cli = parse_args(&v(&["tune", "p.rsl", "--", "m"])).unwrap();
        match cli.command {
            Command::Tune { jobs, .. } => assert_eq!(jobs, 1),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&v(&["tune", "p.rsl", "--jobs", "0", "--", "m"])).is_err());
        assert!(parse_args(&v(&["sensitivity", "p.rsl", "--jobs", "x", "--", "m"])).is_err());
        // The remote daemon proposes one configuration at a time.
        assert!(parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--jobs", "4", "--", "m"
        ]))
        .is_err());
    }

    #[test]
    fn engine_flag_validates_against_the_registry() {
        let cli = parse_args(&v(&[
            "tune",
            "p.rsl",
            "--engine",
            "divide-diverge",
            "--",
            "m",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune { engine, .. } => assert_eq!(engine.as_deref(), Some("divide-diverge")),
            other => panic!("wrong command {other:?}"),
        }
        // A typo fails up front, listing what actually exists.
        let e = parse_args(&v(&["tune", "p.rsl", "--engine", "annealing", "--", "m"])).unwrap_err();
        assert!(e.0.contains("unknown engine \"annealing\""), "{e}");
        for name in harmony_engines::ENGINE_NAMES {
            assert!(e.0.contains(name), "{e}");
        }
        // With --remote the name rides in the SessionStart and the daemon
        // builds the engine server-side.
        let cli = parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--engine", "tuneful", "--", "m",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune { engine, remote, .. } => {
                assert_eq!(engine.as_deref(), Some("tuneful"));
                assert_eq!(remote.as_deref(), Some("h:1"));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --original is a simplex-only knob.
        let e = parse_args(&v(&[
            "tune",
            "p.rsl",
            "--original",
            "--engine",
            "tuneful",
            "--",
            "m",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--original"), "{e}");
        assert!(parse_args(&v(&[
            "tune",
            "p.rsl",
            "--original",
            "--engine",
            "simplex",
            "--",
            "m",
        ]))
        .is_ok());
    }

    #[test]
    fn tournament_defaults_and_flags() {
        let cli = parse_args(&v(&["tournament"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Tournament {
                budget: 120,
                candidates: 4,
                seed: 42,
                jobs: 1,
                mixes: v(&["browsing", "shopping", "ordering"]),
                out: "results/engines_leaderboard.txt".into(),
            }
        );

        let cli = parse_args(&v(&[
            "tournament",
            "--budget",
            "30",
            "--candidates",
            "2",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--mixes",
            "shopping, ordering",
            "--out",
            "lb.txt",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Tournament {
                budget: 30,
                candidates: 2,
                seed: 7,
                jobs: 4,
                mixes: v(&["shopping", "ordering"]),
                out: "lb.txt".into(),
            }
        );

        assert!(parse_args(&v(&["tournament", "--budget", "0"])).is_err());
        assert!(parse_args(&v(&["tournament", "--candidates", "0"])).is_err());
        assert!(parse_args(&v(&["tournament", "--jobs", "0"])).is_err());
        let e = parse_args(&v(&["tournament", "--mixes", "browsing,gaming"])).unwrap_err();
        assert!(e.0.contains("unknown mix \"gaming\""), "{e}");
        assert!(parse_args(&v(&["tournament", "--frob"])).is_err());
    }

    #[test]
    fn bad_values_error_cleanly() {
        assert!(parse_args(&v(&["tune", "p.rsl", "--iterations", "many", "--", "m"])).is_err());
        assert!(parse_args(&v(&[
            "tune",
            "p.rsl",
            "--characteristics",
            "a,b",
            "--",
            "m"
        ]))
        .is_err());
        assert!(parse_args(&v(&["frobnicate"])).is_err());
    }
}
