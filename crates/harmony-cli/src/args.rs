//! Argument parsing driven by one table per subcommand (no external
//! dependencies).
//!
//! Each subcommand's flags are the rows of one table: a flag's spellings,
//! the placeholder its value takes (none for a switch) and the least
//! number it accepts. One loop reads argv against a spec, the same specs
//! generate the synopsis lines of [`usage`], and typed getters convert the
//! values while a subcommand's struct is filled in. The rules that relate
//! two flags follow the struct, by hand.

use std::fmt;
use std::str::FromStr;

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
    Sensitivity(SensitivityArgs),
    /// Tune against a measurement command.
    Tune(TuneArgs),
    /// Run the tuning daemon.
    Serve(ServeArgs),
    /// Race every registered engine (and its hyperparameters) across
    /// websim workload mixes; write the deterministic leaderboard.
    Tournament(TournamentArgs),
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

/// `sensitivity`'s arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityArgs {
    /// Path to the RSL file.
    pub rsl: String,
    /// Cap on sampled values per parameter.
    pub samples: Option<usize>,
    /// Measurements averaged per value.
    pub repeats: usize,
    /// Worker threads measuring concurrently (1 = sequential).
    pub jobs: usize,
    /// The external measurement command and its arguments.
    pub measure: Vec<String>,
}

/// `tune`'s arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneArgs {
    /// Path to the RSL file.
    pub rsl: String,
    /// Live iteration budget.
    pub iterations: usize,
    /// Use the original extreme-corner initial simplex instead of the
    /// improved evenly-spread one.
    pub original: bool,
    /// Search engine from the `harmony-engines` registry (`simplex`
    /// when unset; naming it only adds the report's `engine:` line).
    pub engine: Option<String>,
    /// Experience-database path (loaded if present, updated after).
    pub db: Option<String>,
    /// Label recorded for this run in the database.
    pub label: String,
    /// Workload characteristics for classification, comma-separated.
    pub characteristics: Vec<f64>,
    /// Drive a remote tuning daemon at this address instead of the
    /// in-process kernel.
    pub remote: Option<String>,
    /// Retries per request against the remote daemon (needs --remote).
    pub retry: Option<u32>,
    /// Per-request deadline in milliseconds (needs --remote).
    pub deadline_ms: Option<u64>,
    /// Participate in distributed tracing (needs --remote): the
    /// session becomes one trace in the daemon's flight recorder.
    pub trace: bool,
    /// Wire encoding against the daemon (needs --remote): `None`
    /// negotiates the newest protocol (binary framing on a v3
    /// daemon), `Some(Json)` pins the client at protocol v2 JSON.
    pub wire: Option<WireChoice>,
    /// Worker threads measuring concurrently (1 = sequential).
    pub jobs: usize,
    /// The external measurement command and its arguments.
    pub measure: Vec<String>,
}

/// `serve`'s arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Path to the RSL file describing the space the daemon serves.
    pub rsl: String,
    /// Experience-database snapshot path, persisted across restarts.
    pub db: Option<String>,
    /// Write-ahead journal path (defaults to the db path + ".wal").
    pub wal: Option<String>,
    /// Fold journal into snapshot after this many appends.
    pub compact_every: Option<usize>,
    /// Address to bind.
    pub listen: String,
    /// Other cluster members' advertised addresses (repeat `--peer`
    /// or comma-separate). The daemon joins their consistent-hash
    /// ring, advertising its own `--listen` address.
    pub peers: Vec<String>,
    /// Ring members holding each run and replicated session,
    /// counting the owner (needs `--peer`).
    pub replicate: Option<usize>,
    /// Default live-iteration budget for sessions.
    pub iterations: Option<usize>,
    /// Concurrent-connection cap.
    pub max_connections: Option<usize>,
    /// Append structured JSONL events to this file.
    pub log_json: Option<String>,
    /// Rotate the --log-json file when it reaches this many bytes.
    pub log_rotate_bytes: Option<u64>,
    /// Rotated files kept (events.jsonl.1 … .N); needs
    /// --log-rotate-bytes.
    pub log_keep: Option<usize>,
    /// Do not enable the distributed-tracing flight recorder.
    pub no_trace: bool,
}

/// `tournament`'s arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentArgs {
    /// Measurement budget per engine run.
    pub budget: usize,
    /// Hyperparameter candidates per race (defaults included).
    pub candidates: usize,
    /// Seed for candidate draws and engine randomness.
    pub seed: u64,
    /// Worker threads scoring candidates concurrently.
    pub jobs: usize,
    /// Workload mixes to race on (`browsing`, `shopping`, `ordering`).
    pub mixes: Vec<String>,
    /// Leaderboard output path.
    pub out: String,
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

/// One row of a subcommand's table.
struct Flag {
    /// The spelling errors and the synopsis use.
    name: &'static str,
    /// A second accepted spelling.
    alias: Option<&'static str>,
    /// The value's placeholder in the synopsis; `None` for a switch.
    metavar: Option<&'static str>,
    /// The least number a numeric value may be.
    min: u8,
    /// The refusal of a number below `min`, when it is not
    /// "must be at least `min`".
    below_min: Option<&'static str>,
}

impl Flag {
    const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            alias: None,
            metavar: None,
            min: 0,
            below_min: None,
        }
    }

    const fn value(name: &'static str, metavar: &'static str) -> Flag {
        Flag {
            metavar: Some(metavar),
            ..Flag::switch(name)
        }
    }

    const fn at_least(self, min: u8) -> Flag {
        Flag { min, ..self }
    }

    const fn refusing(self, below_min: &'static str) -> Flag {
        Flag {
            below_min: Some(below_min),
            ..self
        }
    }

    const fn alias(self, alias: &'static str) -> Flag {
        Flag {
            alias: Some(alias),
            ..self
        }
    }
}

/// One subcommand's grammar: an optional leading positional argument,
/// then its flags in any order, then (if it runs one) `--` and the
/// measure command.
struct Spec {
    name: &'static str,
    /// The positional argument's placeholder, and what it is (for the
    /// error when it is missing).
    positional: Option<(&'static str, &'static str)>,
    /// One row per flag, in synopsis order.
    flags: &'static [Flag],
    /// `--` ends the flags and starts the measure command.
    measure: bool,
}

impl Spec {
    /// A subcommand that takes its positional argument and nothing else.
    const fn bare(name: &'static str, positional: (&'static str, &'static str)) -> Spec {
        Spec {
            name,
            positional: Some(positional),
            flags: &[],
            measure: false,
        }
    }
}

const RSL: (&str, &str) = ("<params.rsl>", "RSL file");
const DAEMON: (&str, &str) = ("<host:port>", "daemon address");
const JOBS: Flag = Flag::value("--jobs", "N").at_least(1);

const SPACE: Spec = Spec::bare("space", RSL);
const STATS: Spec = Spec::bare("stats", DAEMON);
const TRACE: Spec = Spec::bare("trace", DAEMON);
const DB: Spec = Spec::bare("db", ("<experience.json>", "database path"));

const SENSITIVITY: Spec = Spec {
    name: "sensitivity",
    positional: Some(RSL),
    flags: &[
        Flag::value("--samples", "N").at_least(2),
        Flag::value("--repeats", "R").at_least(1),
        JOBS,
    ],
    measure: true,
};

const TUNE: Spec = Spec {
    name: "tune",
    positional: Some(RSL),
    flags: &[
        Flag::value("--iterations", "N").at_least(1),
        Flag::switch("--original"),
        JOBS,
        Flag::value("--engine", "<name>"),
        Flag::value("--db", "<experience.json>"),
        Flag::value("--label", "<name>"),
        Flag::value("--characteristics", "a,b,c"),
        Flag::value("--remote", "<host:port>"),
        Flag::value("--retry", "N"),
        Flag::value("--deadline", "MS")
            .at_least(1)
            .refusing("must be at least 1 millisecond"),
        Flag::switch("--trace"),
        Flag::value("--wire", "json|binary"),
    ],
    measure: true,
};

/// The websim workload mixes `tournament` can race on.
const MIXES: [&str; 3] = ["browsing", "shopping", "ordering"];

const TOURNAMENT: Spec = Spec {
    name: "tournament",
    positional: None,
    flags: &[
        Flag::value("--budget", "N").at_least(1),
        Flag::value("--candidates", "N").at_least(1),
        Flag::value("--seed", "N"),
        JOBS,
        Flag::value("--mixes", "browsing,shopping,ordering"),
        Flag::value("--out", "<leaderboard.txt>"),
    ],
    measure: false,
};

const SERVE: Spec = Spec {
    name: "serve",
    positional: Some(RSL),
    flags: &[
        Flag::value("--listen", "<host:port>"),
        Flag::value("--db", "<experience.json>"),
        Flag::value("--wal", "<journal.wal>"),
        Flag::value("--compact-every", "N"),
        Flag::value("--peer", "<host:port>[,<host:port>…]"),
        Flag::value("--replicate", "N"),
        Flag::value("--iterations", "N").at_least(1),
        Flag::value("--max-connections", "N").alias("--max-conns"),
        Flag::value("--log-json", "<events.jsonl>"),
        Flag::value("--log-rotate-bytes", "N").at_least(1),
        Flag::value("--log-keep", "N")
            .at_least(1)
            .refusing("must keep at least 1 rotated file"),
        Flag::switch("--no-trace"),
    ],
    measure: false,
};

/// Every subcommand, in synopsis order.
const SPECS: [&Spec; 8] = [
    &SPACE,
    &SENSITIVITY,
    &TUNE,
    &TOURNAMENT,
    &SERVE,
    &STATS,
    &TRACE,
    &DB,
];

/// Synopsis lines are at most this many columns wide.
const SYNOPSIS_WIDTH: usize = 80;
/// Continuation lines of a synopsis start here.
const SYNOPSIS_INDENT: &str = "              ";

/// One subcommand's synopsis, generated from its table.
fn synopsis(spec: &Spec) -> String {
    let words = spec
        .positional
        .map(|(p, _)| p.to_string())
        .into_iter()
        .chain(spec.flags.iter().map(|f| match f.metavar {
            Some(metavar) => format!("[{} {metavar}]", f.name),
            None => format!("[{}]", f.name),
        }));
    let mut lines = vec![format!("  harmony-cli {}", spec.name)];
    for word in words {
        let line = lines.last_mut().expect("lines starts non-empty");
        if line.chars().count() + 1 + word.chars().count() > SYNOPSIS_WIDTH {
            lines.push(format!("{SYNOPSIS_INDENT}{word}"));
        } else {
            line.push(' ');
            line.push_str(&word);
        }
    }
    if spec.measure {
        lines.push(format!("{SYNOPSIS_INDENT}-- <measure-cmd> [args…]"));
    }
    lines.join("\n")
}

/// Usage text: the synopsis of every subcommand, then how they behave.
pub fn usage() -> String {
    format!(
        "harmony-cli — Active Harmony automated tuning\n\nUSAGE:\n{}\n\n{USAGE_NOTES}",
        SPECS.map(synopsis).join("\n")
    )
}

/// The prose under the synopsis.
const USAGE_NOTES: &str = "\
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
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Cli {
            command: Command::Help,
        });
    };
    let command = match sub.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "space" => Command::Space {
            rsl: SPACE.parse(rest)?.positional,
        },
        "db" => Command::Db {
            path: DB.parse(rest)?.positional,
        },
        "stats" => Command::Stats {
            addr: STATS.parse(rest)?.positional,
        },
        "trace" => Command::Trace {
            addr: TRACE.parse(rest)?.positional,
        },
        "sensitivity" => Command::Sensitivity(sensitivity(SENSITIVITY.parse(rest)?)?),
        "tune" => Command::Tune(tune(TUNE.parse(rest)?)?),
        "serve" => Command::Serve(serve(SERVE.parse(rest)?)?),
        "tournament" => Command::Tournament(tournament(TOURNAMENT.parse(rest)?)?),
        other => {
            return Err(err(format!(
                "unknown subcommand {other:?} (try 'harmony-cli help')"
            )))
        }
    };
    Ok(Cli { command })
}

/// What [`Spec::parse`] read from argv.
struct Matches<'a> {
    spec: &'static Spec,
    /// The positional argument (empty when the spec takes none).
    positional: String,
    /// Each flag given, by its table name, with its value (`None` for a
    /// switch), in argv order.
    given: Vec<(&'static str, Option<&'a str>)>,
    /// Everything after `--`.
    measure: &'a [String],
}

impl Spec {
    /// The one parse loop: read `args` against this table.
    fn parse<'a>(&'static self, args: &'a [String]) -> Result<Matches<'a>, CliError> {
        let mut rest = args.iter();
        let positional = match self.positional {
            Some((_, what)) => rest
                .next()
                .ok_or_else(|| err(format!("{}: missing {what}", self.name)))?
                .clone(),
            None => String::new(),
        };
        let mut m = Matches {
            spec: self,
            positional,
            given: Vec::new(),
            measure: &[],
        };
        while let Some(arg) = rest.next() {
            if self.measure && arg == "--" {
                m.measure = rest.as_slice();
                break;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == arg || f.alias == Some(arg.as_str()))
                .ok_or_else(|| err(format!("{}: unexpected argument {arg:?}", self.name)))?;
            let value = match flag.metavar {
                None => None,
                Some(_) => Some(
                    rest.next()
                        .ok_or_else(|| err(format!("{}: missing value", flag.name)))?
                        .as_str(),
                ),
            };
            m.given.push((flag.name, value));
        }
        Ok(m)
    }
}

impl<'a> Matches<'a> {
    fn row(&self, name: &str) -> &'static Flag {
        self.spec
            .flags
            .iter()
            .find(|f| f.name == name)
            .expect("a getter names a row of its subcommand's table")
    }

    /// Every value given for the flag, in argv order.
    fn all(&self, name: &str) -> impl Iterator<Item = &'a str> + '_ {
        let name = self.row(name).name;
        self.given
            .iter()
            .filter(move |(n, _)| *n == name)
            .filter_map(|(_, v)| *v)
    }

    fn switch(&self, name: &str) -> bool {
        let name = self.row(name).name;
        self.given.iter().any(|(n, _)| *n == name)
    }

    fn text(&self, name: &str) -> Option<String> {
        self.all(name).last().map(String::from)
    }

    /// The last value given for the flag, converted; earlier ones must
    /// convert too.
    fn get<T>(
        &self,
        name: &str,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        let mut last = None;
        for raw in self.all(name) {
            last = Some(convert(raw).map_err(|e| err(format!("{name}: {e}")))?);
        }
        Ok(last)
    }

    /// [`get`](Self::get) for a number, refused below the row's minimum.
    fn num<T: FromStr + PartialOrd + From<u8>>(&self, name: &str) -> Result<Option<T>, CliError> {
        let row = self.row(name);
        self.get(name, |raw| {
            let n: T = raw.parse().map_err(|_| format!("invalid value {raw:?}"))?;
            if n < T::from(row.min) {
                return Err(row
                    .below_min
                    .map_or_else(|| format!("must be at least {}", row.min), String::from));
            }
            Ok(n)
        })
    }

    fn measure(&self) -> Result<Vec<String>, CliError> {
        if self.measure.is_empty() {
            return Err(err(format!(
                "{}: missing '-- <measure-cmd>'",
                self.spec.name
            )));
        }
        Ok(self.measure.to_vec())
    }
}

fn sensitivity(m: Matches) -> Result<SensitivityArgs, CliError> {
    Ok(SensitivityArgs {
        samples: m.num("--samples")?,
        repeats: m.num("--repeats")?.unwrap_or(1),
        jobs: m.num("--jobs")?.unwrap_or(1),
        measure: m.measure()?,
        rsl: m.positional,
    })
}

fn tune(m: Matches) -> Result<TuneArgs, CliError> {
    let args = TuneArgs {
        iterations: m.num("--iterations")?.unwrap_or(100),
        original: m.switch("--original"),
        // Checked against the registry here so a typo fails with the
        // list of real engines instead of a failure downstream.
        engine: m.get("--engine", |name| {
            harmony_engines::registry::lookup(name)
                .map(|_| name.to_string())
                .map_err(|e| e.to_string())
        })?,
        db: m.text("--db"),
        label: m.text("--label").unwrap_or_else(|| "run".into()),
        characteristics: m
            .get("--characteristics", |raw| {
                // A non-finite value has no JSON spelling: saved into
                // `--db`, it would make the database unloadable.
                raw.split(',')
                    .map(|s| match s.trim().parse::<f64>() {
                        Ok(c) if c.is_finite() => Ok(c),
                        _ => Err(format!("bad number {s:?}")),
                    })
                    .collect()
            })?
            .unwrap_or_default(),
        remote: m.text("--remote"),
        retry: m.num("--retry")?,
        deadline_ms: m.num("--deadline")?,
        trace: m.switch("--trace"),
        wire: m.get("--wire", |raw| match raw {
            "json" => Ok(WireChoice::Json),
            "binary" => Ok(WireChoice::Binary),
            other => Err(format!("unknown format {other:?} (json or binary)")),
        })?,
        jobs: m.num("--jobs")?.unwrap_or(1),
        measure: m.measure()?,
        rsl: m.positional,
    };
    let remote = args.remote.is_some();
    if remote && (args.db.is_some() || args.original) {
        return Err(err(
            "tune: --remote cannot be combined with --db or --original \
             (the daemon owns the experience database and search strategy)",
        ));
    }
    if remote && args.jobs > 1 {
        return Err(err("tune: --jobs applies to local tuning only \
             (a remote daemon proposes configurations one at a time)"));
    }
    if args.original && args.engine.as_deref().is_some_and(|e| e != "simplex") {
        return Err(err(
            "tune: --original configures the simplex engine's initial \
             simplex and cannot be combined with another --engine",
        ));
    }
    if !remote && (args.retry.is_some() || args.deadline_ms.is_some()) {
        return Err(err(
            "tune: --retry and --deadline apply to --remote tuning only",
        ));
    }
    if !remote && args.trace {
        return Err(err("tune: --trace applies to --remote tuning only \
             (the daemon hosts the flight recorder)"));
    }
    if !remote && args.wire.is_some() {
        return Err(err("tune: --wire applies to --remote tuning only \
             (local tuning has no wire)"));
    }
    Ok(args)
}

/// `--wal`/`--compact-every` without `--db`, `--replicate 0`, empty
/// `--peer` entries and `--max-connections 0` are refused by
/// `DaemonConfig::builder` when the daemon is configured, so the rule
/// lives in one place for every embedder.
fn serve(m: Matches) -> Result<ServeArgs, CliError> {
    let args = ServeArgs {
        db: m.text("--db"),
        wal: m.text("--wal"),
        compact_every: m.num("--compact-every")?,
        listen: m
            .text("--listen")
            .unwrap_or_else(|| "127.0.0.1:1977".into()),
        peers: m
            .all("--peer")
            .flat_map(|raw| raw.split(','))
            .map(|peer| peer.trim().to_string())
            .collect(),
        replicate: m.num("--replicate")?,
        iterations: m.num("--iterations")?,
        max_connections: m.num("--max-connections")?,
        log_json: m.text("--log-json"),
        log_rotate_bytes: m.num("--log-rotate-bytes")?,
        log_keep: m.num("--log-keep")?,
        no_trace: m.switch("--no-trace"),
        rsl: m.positional,
    };
    if args.replicate.is_some() && args.peers.is_empty() {
        return Err(err(
            "serve: --replicate needs --peer (no ring to replicate across)",
        ));
    }
    if args.log_json.is_none() && args.log_rotate_bytes.is_some() {
        return Err(err(
            "serve: --log-rotate-bytes needs --log-json (nothing to rotate without it)",
        ));
    }
    if args.log_rotate_bytes.is_none() && args.log_keep.is_some() {
        return Err(err("serve: --log-keep needs --log-rotate-bytes"));
    }
    Ok(args)
}

fn tournament(m: Matches) -> Result<TournamentArgs, CliError> {
    Ok(TournamentArgs {
        budget: m.num("--budget")?.unwrap_or(120),
        candidates: m.num("--candidates")?.unwrap_or(4),
        seed: m.num("--seed")?.unwrap_or(42),
        jobs: m.num("--jobs")?.unwrap_or(1),
        mixes: m
            .get("--mixes", |raw| {
                raw.split(',')
                    .map(|mix| match mix.trim() {
                        known if MIXES.contains(&known) => Ok(known.to_string()),
                        unknown => Err(format!(
                            "unknown mix {unknown:?}; available mixes: {}",
                            MIXES.join(", ")
                        )),
                    })
                    .collect()
            })?
            .unwrap_or_else(|| MIXES.map(String::from).to_vec()),
        out: m
            .text("--out")
            .unwrap_or_else(|| "results/engines_leaderboard.txt".into()),
    })
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
            Command::Sensitivity(SensitivityArgs {
                rsl: "p.rsl".into(),
                samples: Some(8),
                repeats: 3,
                jobs: 1,
                measure: v(&["./m.sh", "arg"]),
            })
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
            Command::Tune(TuneArgs {
                iterations,
                original,
                db,
                label,
                characteristics,
                ..
            }) => {
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
            Command::Tune(TuneArgs {
                iterations,
                original,
                db,
                label,
                characteristics,
                ..
            }) => {
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
            Command::Tune(TuneArgs { remote, label, .. }) => {
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
            Command::Tune(TuneArgs {
                retry, deadline_ms, ..
            }) => {
                assert_eq!(retry, Some(7));
                assert_eq!(deadline_ms, Some(2500));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: both unset.
        let cli = parse_args(&v(&["tune", "p.rsl", "--remote", "h:1", "--", "m"])).unwrap();
        match cli.command {
            Command::Tune(TuneArgs {
                retry, deadline_ms, ..
            }) => {
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
            Command::Tune(TuneArgs { wire, .. }) => assert_eq!(wire, Some(WireChoice::Json)),
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&v(&[
            "tune", "p.rsl", "--remote", "h:1", "--wire", "binary", "--", "m",
        ]))
        .unwrap();
        match cli.command {
            Command::Tune(TuneArgs { wire, .. }) => assert_eq!(wire, Some(WireChoice::Binary)),
            other => panic!("wrong command {other:?}"),
        }
        // Default: negotiate (None, meaning binary-when-available).
        let cli = parse_args(&v(&["tune", "p.rsl", "--remote", "h:1", "--", "m"])).unwrap();
        match cli.command {
            Command::Tune(TuneArgs { wire, .. }) => assert_eq!(wire, None),
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
            Command::Serve(ServeArgs {
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
            })
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
            Command::Serve(ServeArgs {
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
            })
        );

        // --max-conns is an alias.
        let cli = parse_args(&v(&["serve", "p.rsl", "--max-conns", "9"])).unwrap();
        match cli.command {
            Command::Serve(ServeArgs {
                max_connections, ..
            }) => assert_eq!(max_connections, Some(9)),
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
            Command::Serve(ServeArgs {
                log_json,
                log_rotate_bytes,
                log_keep,
                no_trace,
                ..
            }) => {
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
            Command::Tune(TuneArgs { trace, .. }) => assert!(trace),
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
            Command::Serve(ServeArgs {
                peers, replicate, ..
            }) => {
                assert_eq!(peers, v(&["a:1", "b:2", "c:3"]));
                assert_eq!(replicate, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Replication without a ring has nothing to copy to.
        let e = parse_args(&v(&["serve", "p.rsl", "--replicate", "2"])).unwrap_err();
        assert!(e.0.contains("--replicate needs --peer"), "{e}");
        // Zero copies and empty addresses are refused by the daemon's
        // config builder (commands::tests::serve_rejects_invalid_config_combinations).
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
            Command::Tune(TuneArgs { jobs, .. }) => assert_eq!(jobs, 4),
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse_args(&v(&["sensitivity", "p.rsl", "--jobs", "2", "--", "m"])).unwrap();
        match cli.command {
            Command::Sensitivity(SensitivityArgs { jobs, .. }) => assert_eq!(jobs, 2),
            other => panic!("wrong command {other:?}"),
        }
        // Defaults to sequential.
        let cli = parse_args(&v(&["tune", "p.rsl", "--", "m"])).unwrap();
        match cli.command {
            Command::Tune(TuneArgs { jobs, .. }) => assert_eq!(jobs, 1),
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
            Command::Tune(TuneArgs { engine, .. }) => {
                assert_eq!(engine.as_deref(), Some("divide-diverge"))
            }
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
            Command::Tune(TuneArgs { engine, remote, .. }) => {
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
            Command::Tournament(TournamentArgs {
                budget: 120,
                candidates: 4,
                seed: 42,
                jobs: 1,
                mixes: v(&["browsing", "shopping", "ordering"]),
                out: "results/engines_leaderboard.txt".into(),
            })
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
            Command::Tournament(TournamentArgs {
                budget: 30,
                candidates: 2,
                seed: 7,
                jobs: 4,
                mixes: v(&["shopping", "ordering"]),
                out: "lb.txt".into(),
            })
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
        for characteristics in ["a,b", "nan,1", "1,inf"] {
            assert!(
                parse_args(&v(&[
                    "tune",
                    "p.rsl",
                    "--characteristics",
                    characteristics,
                    "--",
                    "m"
                ]))
                .is_err(),
                "{characteristics}"
            );
        }
        assert!(parse_args(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn minimums_refuse_values_that_would_panic_or_idle() {
        // Zero repeats or fewer than two samples trip the prioritizer's
        // asserts; zero iterations tunes nothing.
        for (args, refusal) in [
            (
                &["sensitivity", "p.rsl", "--repeats", "0", "--", "m"][..],
                "--repeats: must be at least 1",
            ),
            (
                &["sensitivity", "p.rsl", "--samples", "0", "--", "m"],
                "--samples: must be at least 2",
            ),
            (
                &["sensitivity", "p.rsl", "--samples", "1", "--", "m"],
                "--samples: must be at least 2",
            ),
            (
                &["tune", "p.rsl", "--iterations", "0", "--", "m"],
                "--iterations: must be at least 1",
            ),
            (
                &["serve", "p.rsl", "--iterations", "0"],
                "--iterations: must be at least 1",
            ),
        ] {
            assert_eq!(parse_args(&v(args)).unwrap_err().0, refusal, "{args:?}");
        }
        let cli = parse_args(&v(&["sensitivity", "p.rsl", "--samples", "2", "--", "m"])).unwrap();
        match cli.command {
            Command::Sensitivity(SensitivityArgs { samples, .. }) => assert_eq!(samples, Some(2)),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn synopsis_is_generated_from_the_tables() {
        let text = usage();
        let synopsis = &text[text.find("USAGE:\n").unwrap()..];
        let synopsis = &synopsis[..synopsis.find("\n\n").unwrap()];
        for line in synopsis.lines().skip(1) {
            assert!(line.chars().count() <= SYNOPSIS_WIDTH, "{line}");
            assert!(line.starts_with("  "), "{line}");
        }
        for spec in SPECS {
            assert!(
                synopsis.contains(&format!("  harmony-cli {} ", spec.name)),
                "{synopsis}"
            );
            for flag in spec.flags {
                assert!(synopsis.contains(&format!("[{}", flag.name)), "{synopsis}");
            }
        }
        assert!(!synopsis.contains("--max-conns"), "{synopsis}");
        assert_eq!(synopsis.matches("-- <measure-cmd> [args…]").count(), 2);
        assert!(text.ends_with("the client's reconnect is redirected to."));
    }
}
