//! Blocking client for the tuning daemon, with reconnect/resume,
//! per-request deadlines, and retry with decorrelated-jitter backoff.
//!
//! [`Client::connect`] gives the defaults; [`Client::builder`] exposes
//! the knobs:
//!
//! ```no_run
//! use harmony_net::client::{Client, RetryPolicy};
//! use std::time::Duration;
//!
//! let client = Client::builder("127.0.0.1:777")
//!     .connect_timeout(Duration::from_secs(2))
//!     .request_deadline(Duration::from_secs(10))
//!     .retry(RetryPolicy::default())
//!     .connect()?;
//! # drop(client);
//! # Ok::<(), harmony_net::NetError>(())
//! ```
//!
//! When a request fails retryably (transport error, deadline expiry, a
//! `Draining` refusal) the client tears the connection down, sleeps a
//! decorrelated-jitter backoff, reconnects, re-attaches its session via
//! `Resume`, and replays the request. `Fetch` is idempotent server-side;
//! `Report` carries a sequence number the server deduplicates, so a
//! replayed report is acknowledged without being observed twice.
//!
//! One evaluation costs one round trip: [`Client::report`] sends the
//! next `Fetch` in the same write as its `Report`, and the following
//! [`Client::fetch`] only reads that answer. Any other request first
//! reads the owed answer and drops it (`Fetch` is idempotent, so a later
//! `fetch` simply asks again), and a reconnect forgets it, because
//! `Resume` re-arms the outstanding proposal on the daemon.
//!
//! Against a cluster, give the builder every daemon as an extra
//! [`ClientBuilder::endpoint`]: the client dials them in order starting
//! from the last one that worked, and when a daemon answers `Resume`
//! with `NotMine { owner }` (the session's token hashes to a different
//! ring member) it follows the redirect to the named owner. A reconnect
//! after a daemon death therefore lands wherever the session actually
//! lives — on its owner, or on the replica that adopted it.

use crate::codec::{
    append_frame_as, clamp_scratch, try_decode_frame, FrameOutcome, WireFormat, READ_CHUNK,
    SCRATCH_CLAMP,
};
use crate::protocol::{
    Request, Response, RunSummary, SensitivityEntry, SpaceSpec, WireSpan, WireTrace,
    MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
use crate::NetError;
use harmony_obs::trace::{self, stage, Stage, TraceContext};
use harmony_space::{Configuration, ParameterSpace};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What the server answered to a `SessionStart`.
#[derive(Debug, Clone)]
pub struct SessionStarted {
    /// The authoritative space (clients sending RSL learn the parsed
    /// parameter names and bounds from here).
    pub space: ParameterSpace,
    /// Prior run picked for training, when one matched.
    pub trained_from: Option<String>,
    /// Virtual iterations spent on that experience.
    pub training_iterations: usize,
    /// Resume token, when the server speaks protocol v2. The client
    /// keeps it internally too — this copy is informational.
    pub session_token: Option<String>,
}

/// A configuration proposed by the server.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Parameter values, in space order.
    pub values: Configuration,
    /// Live iterations completed before this proposal.
    pub iteration: usize,
}

/// Final result of a session.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// Best configuration measured live.
    pub best: Configuration,
    /// Its performance.
    pub performance: f64,
    /// Live iterations spent.
    pub iterations: usize,
    /// Whether the search converged (rather than exhausting its budget).
    pub converged: bool,
}

/// How a [`Client`] retries requests that fail retryably.
///
/// Backoff is decorrelated jitter: each sleep is drawn uniformly from
/// `[base, prev * 3]` and clamped to `cap`, so concurrent clients spread
/// out instead of reconnecting in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per request after the first attempt. Zero disables
    /// retrying entirely.
    pub max_retries: u32,
    /// Lower bound of every backoff sleep, and the first draw's scale.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter stream, so tests can be deterministic.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Same policy with a different retry budget.
    pub fn with_max_retries(mut self, n: u32) -> RetryPolicy {
        self.max_retries = n;
        self
    }

    /// Same policy with a different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(500),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// The daemons a [`Client`] may dial: one for a standalone server,
/// several for a cluster. The client dials in order starting from the
/// *preferred* endpoint — initially the first, thereafter whichever one
/// last worked or was last named as a session's owner by a `NotMine`
/// redirect — wrapping around the list, so one dead daemon costs one
/// failed dial, not the session.
#[derive(Debug, Clone)]
pub struct Endpoints {
    /// Resolved socket addresses per endpoint, in the order given.
    addrs: Vec<Vec<SocketAddr>>,
    /// Index dialed first.
    preferred: usize,
}

impl Endpoints {
    /// Resolve one endpoint.
    pub fn single(addr: impl ToSocketAddrs) -> io::Result<Endpoints> {
        Endpoints::resolve([addr])
    }

    /// Resolve a list of endpoints, keeping their order.
    pub fn resolve<A: ToSocketAddrs>(
        endpoints: impl IntoIterator<Item = A>,
    ) -> io::Result<Endpoints> {
        let mut addrs = Vec::new();
        for endpoint in endpoints {
            addrs.push(resolve_nonempty(endpoint)?);
        }
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no endpoints to dial",
            ));
        }
        Ok(Endpoints {
            addrs,
            preferred: 0,
        })
    }

    /// Append one more endpoint.
    pub fn push(&mut self, addr: impl ToSocketAddrs) -> io::Result<()> {
        self.addrs.push(resolve_nonempty(addr)?);
        Ok(())
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when no endpoints are configured (unreachable via the
    /// constructors, which insist on at least one).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Endpoint indices in dial order: preferred first, then the rest,
    /// wrapping around.
    fn dial_order(&self) -> Vec<usize> {
        let n = self.addrs.len();
        (0..n).map(|i| (self.preferred + i) % n).collect()
    }

    /// Make `owner` (a `host:port` string from a `NotMine` redirect) the
    /// preferred endpoint, appending it if it isn't in the list yet.
    fn pin(&mut self, owner: &str) -> io::Result<usize> {
        let resolved = resolve_nonempty(owner)?;
        let index = match self
            .addrs
            .iter()
            .position(|known| known.iter().any(|a| resolved.contains(a)))
        {
            Some(index) => index,
            None => {
                self.addrs.push(resolved);
                self.addrs.len() - 1
            }
        };
        self.preferred = index;
        Ok(index)
    }
}

fn resolve_nonempty(addr: impl ToSocketAddrs) -> io::Result<Vec<SocketAddr>> {
    let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if resolved.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        ));
    }
    Ok(resolved)
}

/// How many `NotMine` redirects a reconnect will follow before giving
/// up. Ownership is settled by one consistent-hash lookup, so a chain
/// longer than a couple of hops means the cluster members disagree
/// about the ring.
const MAX_REDIRECT_HOPS: u32 = 3;

/// Configures and opens a [`Client`]. Built by [`Client::builder`].
#[derive(Debug)]
pub struct ClientBuilder {
    endpoints: io::Result<Endpoints>,
    connect_timeout: Option<Duration>,
    request_deadline: Option<Duration>,
    retry: RetryPolicy,
    tracing: bool,
    max_version: u32,
}

impl ClientBuilder {
    /// Add a failover endpoint (another daemon of the same cluster) the
    /// client may dial when the preferred one is unreachable, and to
    /// which `NotMine` redirects may point.
    pub fn endpoint(mut self, addr: impl ToSocketAddrs) -> ClientBuilder {
        if let Ok(endpoints) = &mut self.endpoints {
            if let Err(e) = endpoints.push(addr) {
                self.endpoints = Err(e);
            }
        }
        self
    }

    /// Replace the endpoint list wholesale.
    pub fn endpoints(mut self, endpoints: Endpoints) -> ClientBuilder {
        self.endpoints = Ok(endpoints);
        self
    }

    /// Cap on each TCP connection attempt (including reconnects).
    pub fn connect_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Deadline on each request's response. Expiry surfaces as
    /// [`NetError::Timeout`], which the retry loop treats as retryable.
    pub fn request_deadline(mut self, deadline: Duration) -> ClientBuilder {
        self.request_deadline = Some(deadline);
        self
    }

    /// Retry policy for retryable failures.
    pub fn retry(mut self, policy: RetryPolicy) -> ClientBuilder {
        self.retry = policy;
        self
    }

    /// Participate in distributed tracing: each session becomes one
    /// trace, requests carry its context to the server (protocol ≥ 2),
    /// and client-side spans — `net.rpc` round trips, [`Client::traced`]
    /// measurements — are piggybacked onto subsequent requests so the
    /// daemon's flight recorder sees the whole client → daemon →
    /// executor picture. Tracing is observation-only: proposals and
    /// search trajectories are bit-identical with it on or off.
    pub fn tracing(mut self, on: bool) -> ClientBuilder {
        self.tracing = on;
        self
    }

    /// Cap the protocol version offered at `Hello`. The default is
    /// [`PROTOCOL_VERSION`] — prefer v3's binary framing, falling back
    /// to whatever the server speaks. Capping at 2 pins a JSON-only
    /// connection (useful against old proxies, or to compare formats);
    /// values outside the supported range are clamped into it.
    pub fn max_protocol_version(mut self, version: u32) -> ClientBuilder {
        self.max_version = version.clamp(MIN_SUPPORTED_VERSION, PROTOCOL_VERSION);
        self
    }

    /// Connect and complete the `Hello` exchange.
    pub fn connect(self) -> Result<Client, NetError> {
        let endpoints = self.endpoints.map_err(NetError::Io)?;
        let rng = self.retry.seed | 1;
        if self.tracing && !trace::is_enabled() {
            trace::enable(trace::RecorderConfig::default());
        }
        let mut client = Client {
            endpoints,
            connect_timeout: self.connect_timeout,
            request_deadline: self.request_deadline,
            retry: self.retry,
            link: None,
            buf: Vec::new(),
            version: MIN_SUPPORTED_VERSION,
            max_version: self.max_version,
            format: WireFormat::Json,
            token: None,
            seq: 0,
            rng,
            prev_backoff: Duration::ZERO,
            tracing: self.tracing,
            trace: None,
        };
        client.with_retries(|c| c.ensure_connected())?;
        Ok(client)
    }
}

/// A connection to a tuning daemon, driving one session at a time.
#[derive(Debug)]
pub struct Client {
    endpoints: Endpoints,
    connect_timeout: Option<Duration>,
    request_deadline: Option<Duration>,
    retry: RetryPolicy,
    link: Option<Link>,
    /// Outgoing frame scratch, reused across requests.
    buf: Vec<u8>,
    /// Protocol version negotiated at the last `Hello`.
    version: u32,
    /// Highest protocol version offered at `Hello`.
    max_version: u32,
    /// Payload encoding for the next frame: JSON until `Hello` lands on
    /// v3, binary afterwards; reset to JSON on every fresh dial.
    format: WireFormat,
    /// Resume token of the active session, when the server issued one.
    token: Option<String>,
    /// Sequence number the next `Report` will carry.
    seq: u64,
    /// xorshift64 state for backoff jitter.
    rng: u64,
    /// Previous backoff sleep, anchoring the decorrelated-jitter draw.
    prev_backoff: Duration,
    /// Whether sessions participate in distributed tracing.
    tracing: bool,
    /// The active session's trace, when tracing.
    trace: Option<SessionTrace>,
}

/// The smallest step a [`Link`]'s receive buffer grows by.
const RECV_START: usize = 4096;

/// One live connection: the stream, the buffer its responses are decoded
/// from, and whether a pipelined `Fetch` is still owed an answer.
#[derive(Debug)]
struct Link {
    stream: TcpStream,
    /// Receive buffer: bytes `rpos..rend` arrived and are not decoded
    /// yet. One `recv` can bring a `Reported` and the `Config` behind it.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// A `Fetch` went out behind the last request; its answer is unread.
    owed_fetch: bool,
}

impl Link {
    fn new(stream: TcpStream) -> Link {
        Link {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            owed_fetch: false,
        }
    }

    /// Decode the next response, reading from the socket only while the
    /// buffer holds no whole frame.
    fn recv(&mut self, format: WireFormat) -> Result<Response, NetError> {
        loop {
            let unread = &self.rbuf[self.rpos..self.rend];
            if let FrameOutcome::Frame { result, consumed } = try_decode_frame(format, unread)? {
                self.rpos += consumed;
                if self.rpos == self.rend {
                    self.rpos = 0;
                    self.rend = 0;
                    // Don't let one oversized response (a TraceDump, say)
                    // pin its size for the session.
                    if self.rbuf.len() > SCRATCH_CLAMP {
                        self.rbuf.truncate(SCRATCH_CLAMP);
                        self.rbuf.shrink_to_fit();
                    }
                }
                return result;
            }
            self.fill()?;
        }
    }

    /// Read what the socket has into the buffer's free tail, making room
    /// first: unread bytes move to the front, or the buffer grows by at
    /// most [`READ_CHUNK`], so an untrusted length prefix is paid for
    /// only as its bytes arrive.
    fn fill(&mut self) -> Result<(), NetError> {
        if self.rend == self.rbuf.len() {
            if self.rpos > 0 {
                self.rbuf.copy_within(self.rpos..self.rend, 0);
                self.rend -= self.rpos;
                self.rpos = 0;
            } else {
                let grow = self.rbuf.len().clamp(RECV_START, READ_CHUNK);
                self.rbuf.resize(self.rbuf.len() + grow, 0);
            }
        }
        loop {
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => {
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the daemon closed the connection",
                    )))
                }
                Ok(n) => {
                    self.rend += n;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

/// Identity of the one trace a traced session accumulates into. The
/// root span id is never recorded client-side — the daemon synthesizes
/// the session root around it at finalize time, so a session whose
/// client vanishes still dumps as a coherent (if incomplete) tree.
#[derive(Debug, Clone, Copy)]
struct SessionTrace {
    trace_id: u64,
    root_span: u64,
}

impl Client {
    /// Connect with the default configuration and complete the `Hello`
    /// exchange. Shorthand for `Client::builder(addr).connect()`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        Client::builder(addr).connect()
    }

    /// Start configuring a connection.
    pub fn builder(addr: impl ToSocketAddrs) -> ClientBuilder {
        ClientBuilder {
            endpoints: Endpoints::single(addr),
            connect_timeout: None,
            request_deadline: None,
            retry: RetryPolicy::default(),
            tracing: false,
            max_version: PROTOCOL_VERSION,
        }
    }

    /// The payload encoding the connection negotiated (JSON until a v3
    /// `Hello` lands).
    pub fn wire_format(&self) -> WireFormat {
        self.format
    }

    /// The protocol version negotiated with the server.
    pub fn protocol_version(&self) -> u32 {
        self.version
    }

    /// The active session's resume token, when the server issued one.
    pub fn session_token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// Begin a tuning session driven by the daemon's default simplex
    /// strategy. Shorthand for [`Client::start_session_with`] without an
    /// engine.
    pub fn start_session(
        &mut self,
        space: SpaceSpec,
        label: impl Into<String>,
        characteristics: Vec<f64>,
        max_iterations: Option<usize>,
    ) -> Result<SessionStarted, NetError> {
        self.start_session_with(space, label, characteristics, max_iterations, None)
    }

    /// Begin a tuning session, optionally naming a registered search
    /// engine (`divide-diverge`, `tuneful`, …) for the daemon to drive
    /// instead of its default simplex strategy. An unknown name is
    /// refused by the server with the registry's error message.
    pub fn start_session_with(
        &mut self,
        space: SpaceSpec,
        label: impl Into<String>,
        characteristics: Vec<f64>,
        max_iterations: Option<usize>,
        engine: Option<String>,
    ) -> Result<SessionStarted, NetError> {
        let request = Request::SessionStart {
            space,
            label: label.into(),
            characteristics,
            max_iterations,
            engine,
        };
        // The session's trace opens with the session itself, so even the
        // SessionStart's classification/warm-start spans land in it.
        if self.tracing {
            self.trace = Some(SessionTrace {
                trace_id: trace::new_id(),
                root_span: trace::new_id(),
            });
        }
        let response = self.round_trip(&request)?;
        match response {
            Response::SessionStarted {
                space,
                trained_from,
                training_iterations,
                session_token,
            } => {
                self.token = session_token.clone();
                self.seq = 0;
                Ok(SessionStarted {
                    space,
                    trained_from,
                    training_iterations,
                    session_token,
                })
            }
            other => Err(unexpected("SessionStarted", other)),
        }
    }

    /// Ask for the next configuration; `None` once the session is over.
    ///
    /// After a [`Client::report`] the request is already on its way —
    /// it went out in the same write — so this only reads the answer.
    /// Idempotent server-side: a replayed fetch re-receives the pending
    /// proposal rather than burning an iteration.
    pub fn fetch(&mut self) -> Result<Option<Proposal>, NetError> {
        match self.round_trip(&Request::Fetch)? {
            Response::Config { values, iteration } => Ok(Some(Proposal {
                values: Configuration::new(values),
                iteration,
            })),
            Response::Done => Ok(None),
            other => Err(unexpected("Config or Done", other)),
        }
    }

    /// Report the measurement for the last fetched configuration.
    ///
    /// On a v2 connection the report carries a sequence number; a replay
    /// after reconnect is acknowledged by the server without observing
    /// the measurement twice. The next `Fetch` travels in the same write
    /// (see [`Client::fetch`]), whether or not the report is accepted: a
    /// refused one leaves the same proposal outstanding.
    pub fn report(&mut self, performance: f64) -> Result<(), NetError> {
        let seq = (self.version >= 2).then_some(self.seq);
        match self.call(&Request::Report { performance, seq }, true)? {
            Response::Reported => {
                if seq.is_some() {
                    self.seq += 1;
                }
                Ok(())
            }
            other => Err(unexpected("Reported", other)),
        }
    }

    /// End the session; the run is recorded server-side.
    pub fn end_session(&mut self) -> Result<SessionSummary, NetError> {
        match self.round_trip(&Request::SessionEnd)? {
            Response::SessionSummary {
                values,
                performance,
                iterations,
                converged,
            } => {
                self.token = None;
                self.seq = 0;
                // The daemon finalized the trace on SessionEnd; anything
                // still unshipped client-side belongs to no one now.
                if let Some(t) = self.trace.take() {
                    trace::discard(t.trace_id);
                }
                Ok(SessionSummary {
                    best: Configuration::new(values),
                    performance,
                    iterations,
                    converged,
                })
            }
            other => Err(unexpected("SessionSummary", other)),
        }
    }

    /// Per-parameter sensitivity estimated from prior and live
    /// experience. Needs an active session.
    pub fn sensitivity(&mut self) -> Result<Vec<SensitivityEntry>, NetError> {
        match self.round_trip(&Request::Sensitivity)? {
            Response::Sensitivity { entries } => Ok(entries),
            other => Err(unexpected("Sensitivity", other)),
        }
    }

    /// Summaries of every run in the server's experience database.
    pub fn db_runs(&mut self) -> Result<Vec<RunSummary>, NetError> {
        match self.round_trip(&Request::DbQuery)? {
            Response::Runs { runs } => Ok(runs),
            other => Err(unexpected("Runs", other)),
        }
    }

    /// The daemon's live metrics in Prometheus text exposition format.
    /// Needs no session.
    pub fn stats(&mut self) -> Result<String, NetError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { text } => Ok(text),
            other => Err(unexpected("Stats", other)),
        }
    }

    /// The daemon's flight-recorder contents: every retained trace as a
    /// span tree. Needs no session.
    pub fn trace_dump(&mut self) -> Result<Vec<WireTrace>, NetError> {
        match self.round_trip(&Request::TraceDump)? {
            Response::TraceDump { traces } => Ok(traces),
            other => Err(unexpected("TraceDump", other)),
        }
    }

    /// The active session's trace context, when tracing. What
    /// [`Client::traced`] spans hang off.
    pub fn trace_context(&self) -> Option<TraceContext> {
        self.trace.map(|t| TraceContext {
            trace_id: t.trace_id,
            span_id: t.root_span,
        })
    }

    /// Run `f` under a span in the active session's trace — how a
    /// measurement closure shows up as an `eval` stage (with any
    /// executor queue-wait attribution recorded beneath it). Without
    /// tracing, or without a session, `f` just runs.
    pub fn traced<T>(&self, stage: Stage, detail: &str, f: impl FnOnce() -> T) -> T {
        match self.trace_context() {
            Some(ctx) if trace::is_enabled() => {
                let _span = trace::continue_from(ctx, stage, detail);
                f()
            }
            _ => f(),
        }
    }

    /// Drive a whole session with a measurement closure: fetch, measure,
    /// report, until done; then end the session.
    ///
    /// The closure may fail (a crashed external program, say); the error
    /// surfaces as [`NetError::Measurement`] and the session is left
    /// unfinished — the server still records what was measured.
    pub fn tune_with<E: std::fmt::Display>(
        &mut self,
        space: SpaceSpec,
        label: impl Into<String>,
        characteristics: Vec<f64>,
        max_iterations: Option<usize>,
        mut measure: impl FnMut(&Configuration) -> Result<f64, E>,
    ) -> Result<(SessionStarted, SessionSummary), NetError> {
        let started = self.start_session(space, label, characteristics, max_iterations)?;
        while let Some(proposal) = self.fetch()? {
            let performance = self
                .traced(stage::EVAL, "measure", || measure(&proposal.values))
                .map_err(|e| NetError::Measurement(e.to_string()))?;
            self.report(performance)?;
        }
        let summary = self.end_session()?;
        Ok((started, summary))
    }

    /// One request/response exchange with retry: on a retryable failure
    /// the connection is torn down, a backoff sleep taken, the session
    /// re-attached via `Resume`, and the request replayed.
    fn round_trip(&mut self, request: &Request) -> Result<Response, NetError> {
        self.call(request, false)
    }

    /// [`Client::round_trip`], optionally with a `Fetch` behind the
    /// request in the same write, its answer left owed to the next
    /// [`Client::fetch`]. A `Fetch` whose answer is owed is not sent
    /// again; any other request first reads the owed answer and drops it.
    fn call(&mut self, request: &Request, then_fetch: bool) -> Result<Response, NetError> {
        self.with_retries(|client| {
            client.ensure_connected()?;
            let ctx = client.envelope_context();
            let _rpc = ctx.map(|ctx| trace::continue_from(ctx, stage::NET_RPC, request.kind()));
            let mut owed = None;
            if client.take_owed_fetch() {
                let answer = client.recv("Fetch")?;
                owed = matches!(request, Request::Fetch).then_some(answer);
            }
            let follow = then_fetch.then_some(&Request::Fetch);
            let response = match (owed, ctx) {
                (Some(answer), _) => answer,
                (None, None) => client.exchange(request, follow)?,
                (None, Some(ctx)) => client.traced_exchange(ctx, request, follow)?,
            };
            match response {
                Response::Error { message } => Err(NetError::Remote(message)),
                Response::Draining => Err(NetError::Draining),
                response => Ok(response),
            }
        })
    }

    /// [`Client::exchange`] with `request` in the session's trace
    /// envelope, shipping every client-side span completed since the
    /// last request; a `follow` request travels in an envelope of its
    /// own with no spans.
    fn traced_exchange(
        &mut self,
        ctx: TraceContext,
        request: &Request,
        follow: Option<&Request>,
    ) -> Result<Response, NetError> {
        let envelope = |request: &Request, spans: Vec<WireSpan>| Request::Traced {
            trace_id: ctx.trace_id,
            parent_span: ctx.span_id,
            spans,
            request: Box::new(request.clone()),
        };
        let spans = trace::drain(ctx.trace_id).into_iter().map(Into::into);
        let wrapped = envelope(request, spans.collect());
        let follow = follow.map(|follow| envelope(follow, Vec::new()));
        let result = self.exchange(&wrapped, follow.as_ref());
        if let (Err(_), Request::Traced { spans, .. }) = (&result, wrapped) {
            // The envelope drained these spans out of the recorder and
            // may never have arrived: put them back so the retry ships
            // them (a daemon that did receive them skips the repeats by
            // span id).
            trace::ingest(
                ctx.trace_id,
                spans.into_iter().map(Into::into).collect(),
                false,
            );
        }
        result
    }

    /// The trace requests travel in, when they travel in one: `None`
    /// (send bare) without tracing, without a session trace, or on a v1
    /// connection — a trace wrapper would be rejected there.
    fn envelope_context(&self) -> Option<TraceContext> {
        let wrapped = self.tracing && trace::is_enabled() && self.version >= 2;
        self.trace_context().filter(|_| wrapped)
    }

    /// Run `attempt` under the retry policy, tearing down the connection
    /// and sleeping a decorrelated-jitter backoff between tries.
    fn with_retries<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Client) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut retries = 0;
        loop {
            match attempt(self) {
                Err(e) if e.is_retryable() && retries < self.retry.max_retries => {
                    retries += 1;
                    crate::obs::retries_total().inc();
                    self.link = None;
                    let sleep = self.next_backoff();
                    std::thread::sleep(sleep);
                }
                Err(e) => {
                    // The connection state is unknown after a transport
                    // failure; don't reuse it.
                    if e.is_retryable() {
                        self.link = None;
                    }
                    return Err(e);
                }
                Ok(value) => {
                    self.prev_backoff = Duration::ZERO;
                    return Ok(value);
                }
            }
        }
    }

    /// Decorrelated jitter: uniform in `[base, prev * 3]`, clamped to
    /// `cap`.
    fn next_backoff(&mut self) -> Duration {
        let base = self.retry.base.max(Duration::from_micros(1));
        let prev = self.prev_backoff.max(base);
        let lo = base.as_nanos() as u64;
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let draw = lo + self.next_u64() % (hi - lo);
        let sleep = Duration::from_nanos(draw).min(self.retry.cap);
        self.prev_backoff = sleep;
        sleep
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Dial, `Hello`, and re-attach the active session if one was in
    /// flight when the previous connection died — following `NotMine`
    /// redirects to the session's owner, for a bounded number of hops.
    fn ensure_connected(&mut self) -> Result<(), NetError> {
        if self.link.is_some() {
            return Ok(());
        }
        self.open_any()?;
        let mut hops = 0;
        while let Some(token) = self.token.clone() {
            match self.exchange(&Request::Resume { token }, None)? {
                Response::Resumed { .. } => break,
                Response::NotMine { owner } => {
                    hops += 1;
                    if hops > MAX_REDIRECT_HOPS {
                        return Err(NetError::Protocol(format!(
                            "session redirect did not settle after {MAX_REDIRECT_HOPS} \
                             hops (last named owner: {owner})"
                        )));
                    }
                    let came_from = self.endpoints.preferred;
                    let index = self.endpoints.pin(&owner).map_err(NetError::Io)?;
                    if self.open_at(index).is_err() {
                        // The named owner is unreachable — typically it is
                        // the dead daemon this reconnect is failing over
                        // from, and the member that redirected us simply
                        // holds no replica. Rotate through the remaining
                        // endpoints: the replica holder adopts the session,
                        // anyone else redirects again within the hop budget.
                        self.open_other(&[index, came_from])?;
                    }
                }
                Response::Error { message } => return Err(NetError::Remote(message)),
                Response::Draining => return Err(NetError::Draining),
                other => return Err(unexpected("Resumed", other)),
            }
        }
        Ok(())
    }

    /// Open a connection to the first endpoint that accepts, dialing
    /// from the preferred one and wrapping around the list.
    fn open_any(&mut self) -> Result<(), NetError> {
        let mut last: Option<NetError> = None;
        for index in self.endpoints.dial_order() {
            match self.open_at(index) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            NetError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no endpoints to dial",
            ))
        }))
    }

    /// Open a connection to any endpoint not in `excluded` (dead or
    /// known not to hold the session), in dial order.
    fn open_other(&mut self, excluded: &[usize]) -> Result<(), NetError> {
        let mut last: Option<NetError> = None;
        for index in self.endpoints.dial_order() {
            if excluded.contains(&index) {
                continue;
            }
            match self.open_at(index) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            NetError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no other endpoint to follow the redirect to",
            ))
        }))
    }

    /// Dial one endpoint and complete the `Hello` exchange; on success
    /// the endpoint becomes the preferred one for future dials.
    fn open_at(&mut self, index: usize) -> Result<(), NetError> {
        self.link = None;
        let stream = self.dial(index)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.request_deadline)?;
        stream.set_write_timeout(self.request_deadline)?;
        self.link = Some(Link::new(stream));
        // A fresh connection always opens in JSON; the format the Hello
        // negotiates takes effect from the next frame on (the server
        // flips on the same boundary).
        self.format = WireFormat::Json;
        let hello = Request::Hello {
            version: None,
            min_version: Some(MIN_SUPPORTED_VERSION),
            max_version: Some(self.max_version),
            client: format!("harmony-net client {}", env!("CARGO_PKG_VERSION")),
        };
        let response = self.exchange(&hello, None)?;
        match response {
            Response::Hello { version, .. } => {
                self.version = version;
                self.format = if version >= 3 {
                    WireFormat::Binary
                } else {
                    WireFormat::Json
                };
            }
            Response::Error { message } => return Err(NetError::Remote(message)),
            Response::Draining => return Err(NetError::Draining),
            other => return Err(unexpected("Hello", other)),
        }
        self.endpoints.preferred = index;
        Ok(())
    }

    fn dial(&self, endpoint: usize) -> Result<TcpStream, NetError> {
        let mut last: Option<io::Error> = None;
        for addr in &self.endpoints.addrs[endpoint] {
            let attempt = match self.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses to dial")
        })))
    }

    /// Whether a pipelined `Fetch`'s answer was owed; it no longer is.
    fn take_owed_fetch(&mut self) -> bool {
        self.link
            .as_mut()
            .is_some_and(|link| std::mem::take(&mut link.owed_fetch))
    }

    /// One raw request/response exchange on the live stream, mapping
    /// read-timeout expiry to [`NetError::Timeout`]. A `follow` request —
    /// the pipelined `Fetch`, bare or in its envelope — goes out in the
    /// same write, and its answer is left owed.
    fn exchange(
        &mut self,
        request: &Request,
        follow: Option<&Request>,
    ) -> Result<Response, NetError> {
        let what = request.kind();
        let link = self
            .link
            .as_mut()
            .expect("exchange called without a connection");
        self.buf.clear();
        append_frame_as(self.format, request, &mut self.buf)?;
        if let Some(follow) = follow {
            append_frame_as(self.format, follow, &mut self.buf)?;
        }
        let sent = link.stream.write_all(&self.buf);
        // The scratch serves every request; don't let one oversized
        // request pin its size for the session.
        clamp_scratch(&mut self.buf);
        sent.map_err(|e| deadline_expiry(NetError::Io(e), what))?;
        link.owed_fetch = follow.is_some();
        self.recv(what)
    }

    /// Read the next response on the live stream, mapping read-timeout
    /// expiry to [`NetError::Timeout`] for `what`.
    fn recv(&mut self, what: &str) -> Result<Response, NetError> {
        let link = self
            .link
            .as_mut()
            .expect("recv called without a connection");
        link.recv(self.format).map_err(|e| deadline_expiry(e, what))
    }
}

/// Rewrite the i/o errors a socket read/write timeout produces into the
/// dedicated `Timeout` kind, naming the request that missed its deadline.
fn deadline_expiry(e: NetError, what: &str) -> NetError {
    match e {
        NetError::Io(io)
            if io.kind() == io::ErrorKind::WouldBlock || io.kind() == io::ErrorKind::TimedOut =>
        {
            NetError::Timeout(what.to_string())
        }
        other => other,
    }
}

fn unexpected(wanted: &str, got: Response) -> NetError {
    NetError::Protocol(format!("expected {wanted}, server sent {got:?}"))
}
