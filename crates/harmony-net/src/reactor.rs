//! The event-driven daemon core: one readiness loop, per-connection
//! state machines, the outbound peer links, and a worker pool for the
//! requests that can wait.
//!
//! # Architecture
//!
//! One reactor thread owns every socket — client connections and, on a
//! cluster, one outbound link per peer ([`crate::peer`]). It waits on a
//! [`Poller`] (level-triggered, raw syscalls: `epoll` on Linux, `poll(2)`
//! on other Unixes — see [`crate::poll`]), accepts non-blocking
//! connections, and runs a small state machine per connection:
//!
//! * **reading** — readable bytes are pulled through the reactor's one
//!   read chunk (allocated with the reactor, not per readiness event)
//!   into the connection's receive buffer (`rbuf`, the same
//!   clamped-growth discipline as [`crate::codec`], holding only what
//!   actually arrived); every *complete* frame is decoded and queued,
//!   so a client that pipelines requests back-to-back has its whole
//!   burst parsed while the first request is still executing. Partial
//!   frames (a slowloris dribbling bytes) simply stay buffered — they
//!   cost memory proportional to what actually arrived, never a thread.
//! * **executing** — requests are served in order, one at a time per
//!   connection, by the rule of [`server::may_wait`]. One that cannot
//!   wait (`Fetch`, `Report`, …: an in-memory step of microseconds) runs
//!   right here on the loop thread, and its response frame is banked at
//!   once. One that can wait — on a clock or the whole database — is
//!   *checked out* to the worker pool (a
//!   [`harmony_exec::TaskPool`]), so it never blocks the event loop; the
//!   connection's protocol state travels with the job and comes back on
//!   the completion channel with the encoded response frame. Both go
//!   through one helper, which also contains a panicking request: the
//!   connection is dropped, never the loop thread. A connection gets at
//!   most [`MAX_PIPELINE`] inline requests per loop pass; one left with
//!   a backlog gets its next turn before the loop blocks again, so a
//!   pipelining client cannot monopolise the daemon.
//! * **held** — a request that replicated left `Peer*` ships in its
//!   state's outbox. The reactor queues them on the peer links and keeps
//!   the connection in flight, its response held, until every ship is
//!   answered (or has failed): an acknowledgment still implies the
//!   replicas hold what it acknowledges. The last answer banks the
//!   response and puts the connection on the backlog. A replica that
//!   refuses a step is sent the whole record, taken from the held
//!   state, on the same link.
//! * **writing** — response frames append to the connection's write
//!   buffer (`wbuf`); the reactor flushes opportunistically and only
//!   registers write interest while bytes are actually pending.
//!
//! Requests themselves run through [`server::serve_request`], which owns
//! protocol behavior, tracing, and metrics; the reactor only schedules
//! transport. How a conversation ends decides what happens to its
//! session: a connection that framed garbage gets one best-effort
//! `Error` frame and is dropped *without* parking its session, as is one
//! whose request panicked or answered unencodably, or that died inside
//! a frame, while one that dies at a frame boundary — by EOF or by a
//! socket error such as a reset — parks (or records) the session via
//! [`server::finish_connection`], whose ships nobody waits for. The loop
//! also reaps expired parked sessions every [`POLL_INTERVAL`], so every
//! ship is issued on the loop thread; the worker pool's only part in
//! replication is dialling a link (std has no non-blocking connect).
//!
//! Backpressure: refusals over [`max_connections`] and while draining
//! reuse the accept-time refusal frames and linger (bounded by
//! `DRAIN_TIMEOUT`) so the peer reads the refusal instead of an RST. A
//! single connection cannot balloon the daemon either — once its
//! pipeline backlog hits [`MAX_PIPELINE`] queued requests the reactor
//! drops read interest until the backlog drains.
//!
//! [`max_connections`]: crate::server::DaemonConfig::max_connections

use crate::codec::{self, FrameOutcome, WireFormat, READ_CHUNK, SCRATCH_CLAMP};
use crate::peer::{self, PeerLink, Ship, PEER_RW_TIMEOUT};
use crate::poll::{Poller, Readiness};
use crate::protocol::{Request, Response};
use crate::server::{self, ConnState, Outbox, Shared, POLL_INTERVAL};
use crate::NetError;
use harmony_exec::TaskPool;
use harmony_obs::event::{event, monotonic_us, Level};
use harmony_obs::trace::TraceContext;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Event-loop token for the listening socket.
const LISTENER: u64 = u64::MAX;
/// Event-loop token for the worker-completion wakeup pipe.
const WAKE: u64 = u64::MAX - 1;
/// Event-loop token of peer link 0; link `i` is `LINK + i`. Connection
/// tokens are file descriptors, far below it.
const LINK: u64 = 1 << 62;

/// A link's dial job, back from the worker pool: the peer index and the
/// handshaken stream.
type Dialled = (usize, Result<(TcpStream, WireFormat), NetError>);

/// Per-connection cap on decoded-but-unserved pipelined requests;
/// beyond it the reactor stops reading from the socket until the
/// backlog drains, bounding both `rbuf` and the response backlog. Also
/// the most requests one connection has served on the loop thread per
/// loop pass.
const MAX_PIPELINE: usize = 32;

/// How long a refused, draining or poisoned connection lingers before
/// the socket closes, so the peer reads the final frame instead of
/// seeing an RST.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(200);

/// One request's worth of work queued on a connection.
enum Work {
    /// A decoded request plus its `net.read` trace window.
    Request(Request, Option<(u64, u64)>),
    /// A framing/decoding error to answer — in order, after everything
    /// decoded before it — with one best-effort `Error` frame before
    /// the connection closes.
    Fail(String),
}

/// A served request, from the loop thread or back from the worker pool.
struct Done {
    token: u64,
    state: ConnState,
    /// The encoded response frame (header + payload).
    frame: Vec<u8>,
    /// The response failed to encode, or serving panicked; treat like a
    /// write error.
    fatal: bool,
}

/// Serve one request against its connection's checked-out state and
/// package the outcome — the one helper both schedules run, on the loop
/// thread or on a worker. A panic in `serve` is contained here: it comes
/// back as a fatal `Done`, which drops the connection (without parking
/// its session, like an unencodable response) instead of unwinding the
/// loop thread or leaving the connection in flight forever.
fn serve_one(
    token: u64,
    mut state: ConnState,
    mut frame: Vec<u8>,
    serve: impl FnOnce(&mut ConnState, &mut Vec<u8>) -> Result<(), NetError>,
) -> Done {
    let fatal = match catch_unwind(AssertUnwindSafe(|| serve(&mut state, &mut frame))) {
        Ok(result) => result.is_err(),
        Err(_) => {
            crate::obs::errors_total().inc();
            event(Level::Error, "net.request_panicked").emit();
            true
        }
    };
    Done {
        token,
        state,
        frame,
        fatal,
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Receive buffer: bytes `rpos..` are unparsed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Send buffer: bytes `wpos..` are unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Protocol state; `None` while a request is being served (or after
    /// the connection stopped serving).
    state: Option<ConnState>,
    /// Mirror of the state's negotiated wire format, readable while the
    /// state is checked out. Synced from the returned state in `bank`,
    /// which runs before the `Hello` response reaches the peer — so no
    /// post-negotiation frame can arrive ahead of the sync.
    format: WireFormat,
    /// Free-list of one: the response frame buffer handed to the
    /// request, recycled (clamped) when the response comes back. One slot
    /// suffices because at most one request per connection is in
    /// flight.
    spare: Vec<u8>,
    in_flight: bool,
    pending: VecDeque<Work>,
    /// Clean EOF observed (the peer finished sending).
    peer_closed: bool,
    /// Socket error observed (a reset, typically): close at once. The
    /// session still parks if the connection died at a frame boundary.
    dead: bool,
    /// A served request's outcome, held while its ships await answers.
    held: Option<Done>,
    /// Answers the held response still waits for.
    owed: usize,
    /// A real conversation (counted against `max_connections`), as
    /// opposed to a refusal that only lingers.
    serving: bool,
    /// A protocol error was answered; close once the frame is flushed.
    poisoned: bool,
    /// Linger/flush bound for refusals and poisoned connections.
    deadline: Option<Instant>,
    /// When the currently-buffered partial frame started arriving
    /// (tracing only — feeds the `net.read` span).
    frame_start_us: Option<u64>,
    /// Interest currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, serving: bool) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            state: serving.then(ConnState::new),
            format: WireFormat::Json,
            spare: Vec::new(),
            in_flight: false,
            pending: VecDeque::new(),
            peer_closed: false,
            dead: false,
            held: None,
            owed: 0,
            serving,
            poisoned: false,
            deadline: None,
            frame_start_us: None,
            want_read: true,
            want_write: false,
        }
    }

    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }

    /// Whether the next queued request may be served now.
    fn servable(&self) -> bool {
        !(self.in_flight || self.dead || self.poisoned || self.state.is_none())
    }
}

/// The daemon's serving loop: built by [`Reactor::new`] on the thread
/// that starts the daemon, then moved to its own thread to
/// [`serve`](Reactor::serve).
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    pool: TaskPool,
    done_tx: mpsc::Sender<Done>,
    done_rx: mpsc::Receiver<Done>,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    /// Tokens with a linger/flush deadline to sweep.
    timers: Vec<u64>,
    /// Connections owed another turn before the loop blocks again: an
    /// inline turn ended at [`MAX_PIPELINE`] with requests still queued,
    /// or a held response was released.
    backlog: Vec<u64>,
    /// One outbound link per peer, in the order of the cluster's peer
    /// list; empty without a cluster.
    links: Vec<PeerLink>,
    dial_tx: mpsc::Sender<Dialled>,
    dial_rx: mpsc::Receiver<Dialled>,
    /// When the loop next sweeps expired parked sessions.
    next_reap: Instant,
    /// Where every socket read lands before its bytes move to the
    /// connection's `rbuf`: [`READ_CHUNK`] bytes allocated once, since
    /// only the loop thread reads and it reads one socket at a time.
    read_chunk: Vec<u8>,
}

impl Reactor {
    /// Put `listener` under a fresh poller. Every step that can fail
    /// (descriptor exhaustion, typically) fails here, before anything
    /// serves.
    pub(crate) fn new(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER, true, false)?;
        // Workers signal completion by writing one byte to this pair;
        // a socketpair needs no extra syscall declarations, unlike
        // `pipe(2)`.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        poller.add(wake_rx.as_raw_fd(), WAKE, true, false)?;
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8);
        let (done_tx, done_rx) = mpsc::channel();
        let (dial_tx, dial_rx) = mpsc::channel();
        let links = shared.cluster.as_ref().map_or_else(Vec::new, |cluster| {
            let peers = cluster.config().peers.iter().enumerate();
            peers
                .map(|(i, addr)| PeerLink::new(addr.clone(), LINK + i as u64))
                .collect()
        });
        Ok(Reactor {
            shared,
            listener,
            poller,
            conns: HashMap::new(),
            pool: TaskPool::new(workers),
            done_tx,
            done_rx,
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            timers: Vec::new(),
            backlog: Vec::new(),
            links,
            dial_tx,
            dial_rx,
            next_reap: Instant::now() + POLL_INTERVAL,
            read_chunk: vec![0; READ_CHUNK],
        })
    }

    /// Serve until shutdown, then settle every connection.
    pub(crate) fn serve(mut self) {
        self.run();
        self.teardown();
    }

    fn run(&mut self) {
        let mut ready: Vec<Readiness> = Vec::new();
        loop {
            ready.clear();
            // A backlogged connection is owed a turn: only look for new
            // readiness, never block, until it has one.
            let timeout = if self.backlog.is_empty() {
                POLL_INTERVAL.as_millis() as i32
            } else {
                0
            };
            if let Err(e) = self.poller.wait(&mut ready, timeout) {
                event(Level::Error, "net.reactor_failed")
                    .str("error", e.to_string())
                    .emit();
                return;
            }
            crate::obs::reactor_wakeups_total().inc();
            crate::obs::reactor_ready_events_depth().observe(ready.len() as f64);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = self.turn(&ready);
            if now >= self.next_reap {
                self.next_reap = now + POLL_INTERVAL;
                let mut outbox = Outbox::new();
                server::reap_expired(&self.shared, &mut outbox);
                self.ship_all(outbox, None, None);
            }
        }
    }

    /// One pass over what a wait returned: readiness, then completions
    /// from the pool, then backlogged connections, then deadlines.
    /// Returns the time the deadlines were checked against.
    fn turn(&mut self, ready: &[Readiness]) -> Instant {
        for ev in ready {
            match ev.token {
                LISTENER => self.accept_ready(),
                WAKE => drain_wake(&self.wake_rx),
                token if token >= LINK => self.link_ready((token - LINK) as usize, ev.readable),
                token => self.pump(token, ev.readable),
            }
        }
        while let Ok(done) = self.done_rx.try_recv() {
            self.on_done(done);
        }
        while let Ok((peer, dialled)) = self.dial_rx.try_recv() {
            self.links[peer].dialled(dialled, &self.poller);
            self.after_link(peer);
        }
        for token in std::mem::take(&mut self.backlog) {
            self.advance(token);
        }
        let now = Instant::now();
        self.sweep_timers(now);
        for peer in 0..self.links.len() {
            if self.links[peer].overdue(now) {
                self.links[peer].drop_connection(&self.poller);
                self.after_link(peer);
            }
        }
        now
    }

    /// Accept until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Small-frame request/response traffic: without TCP_NODELAY
            // every exchange eats a Nagle delay.
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.shared.draining.load(Ordering::SeqCst) {
                crate::obs::draining_responses_total().inc();
                self.install_refusal(stream, &Response::Draining);
            } else if self.shared.active.load(Ordering::SeqCst)
                >= self.shared.config.max_connections
            {
                crate::obs::connections_refused_total().inc();
                event(Level::Warn, "net.connection_refused")
                    .u64("max_connections", self.shared.config.max_connections as u64)
                    .emit();
                self.install_refusal(
                    stream,
                    &Response::Error {
                        message: "server busy: connection limit reached".into(),
                    },
                );
            } else {
                self.shared.active.fetch_add(1, Ordering::SeqCst);
                crate::obs::connections_total().inc();
                crate::obs::connections_active().inc();
                let conn = Conn::new(stream, true);
                if let Some(token) = self.register(conn) {
                    self.pump(token, true);
                }
            }
        }
    }

    /// A refusal conversation: one pre-encoded frame, then linger until
    /// the peer hangs up or [`DRAIN_TIMEOUT`] passes — an immediate close
    /// could RST the connection before the peer has read the refusal.
    fn install_refusal(&mut self, stream: TcpStream, response: &Response) {
        let mut conn = Conn::new(stream, false);
        if codec::encode_frame_as(WireFormat::Json, response, &mut conn.wbuf).is_err() {
            return; // both refusal frames always encode
        }
        conn.deadline = Some(Instant::now() + DRAIN_TIMEOUT);
        if let Some(token) = self.register(conn) {
            self.timers.push(token);
            self.flush(token);
            self.maybe_close(token);
        }
    }

    /// Put a connection under the poller, keyed by its fd.
    fn register(&mut self, conn: Conn) -> Option<u64> {
        let fd = conn.stream.as_raw_fd();
        let token = fd as u64;
        if self
            .poller
            .add(fd, token, conn.want_read, conn.want_write)
            .is_err()
        {
            if conn.serving {
                self.shared.active.fetch_sub(1, Ordering::SeqCst);
                crate::obs::connections_active().dec();
            }
            return None;
        }
        crate::obs::reactor_fds_active().inc();
        self.conns.insert(token, conn);
        Some(token)
    }

    /// Drive one connection through read → parse → dispatch → write.
    fn pump(&mut self, token: u64, readable: bool) {
        if readable {
            self.read_ready(token);
        }
        self.advance(token);
    }

    /// Keep a connection moving: serve what is queued, write what is
    /// banked, and close it if its conversation is over.
    fn advance(&mut self, token: u64) {
        self.dispatch(token);
        self.flush(token);
        self.maybe_close(token);
    }

    /// Pull whatever the socket has, then decode complete frames.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead || conn.peer_closed || !conn.want_read {
            return;
        }
        let buf = &mut self.read_chunk[..];
        loop {
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if conn.serving && !conn.poisoned {
                        conn.rbuf.extend_from_slice(&buf[..n]);
                    }
                    // Refusals and poisoned connections read to
                    // discard: the linger drain.
                    if conn.pending.len() >= MAX_PIPELINE {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        parse_frames(conn);
    }

    /// Serve the connection's queued requests in order, one at a time
    /// (which keeps responses in request order). Each that cannot wait is
    /// served right here and its response banked; the first that can is
    /// checked out to the worker pool, which ends the turn until
    /// `on_done` brings it back. A turn serves at most [`MAX_PIPELINE`]
    /// requests; a connection left with more queued goes on the backlog
    /// for another turn in the next loop pass. Iterative, never
    /// recursive: any burst a client pipelines costs the loop thread no
    /// stack.
    fn dispatch(&mut self, token: u64) {
        for _ in 0..MAX_PIPELINE {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.servable() {
                break;
            }
            let (request, window) = match conn.pending.pop_front() {
                None => break,
                Some(Work::Request(request, window)) => (request, window),
                Some(Work::Fail(message)) => {
                    // One best-effort Error frame, then the connection is
                    // done and its session is dropped without parking.
                    // The frame comes from the pooled buffer, in the
                    // connection's negotiated format.
                    let mut frame = std::mem::take(&mut conn.spare);
                    if codec::encode_frame_as(conn.format, &Response::Error { message }, &mut frame)
                        .is_ok()
                    {
                        conn.wbuf.extend_from_slice(&frame);
                    }
                    codec::clamp_scratch(&mut frame);
                    conn.spare = frame;
                    conn.poisoned = true;
                    conn.state = None;
                    conn.pending.clear();
                    conn.deadline = Some(Instant::now() + DRAIN_TIMEOUT);
                    self.timers.push(token);
                    break;
                }
            };
            let state = conn.state.take().expect("state present: checked above");
            conn.in_flight = true;
            // The pooled frame buffer goes with the request and comes
            // back (clamped) in `bank` — steady state encodes every
            // response into the same allocation instead of a fresh `Vec`
            // per request.
            let mut frame = std::mem::take(&mut conn.spare);
            frame.clear();
            let wait = server::may_wait(&request);
            let shared = Arc::clone(&self.shared);
            let job = move || {
                serve_one(token, state, frame, |state, frame| {
                    // The format is captured before serving: a `Hello`
                    // that negotiates v3 updates the state for
                    // *subsequent* frames, while its own response still
                    // encodes in the pre-negotiation format.
                    let fmt = state.wire_format();
                    server::serve_request(request, window, state, &shared, &mut |resp| {
                        codec::encode_frame_as(fmt, resp, frame)
                    })
                })
            };
            if wait {
                let tx = self.done_tx.clone();
                let wake = Arc::clone(&self.wake_tx);
                self.pool.submit(move || {
                    let _ = tx.send(job());
                    // A full wakeup pipe already guarantees a wakeup.
                    let _ = (&*wake).write(&[1]);
                });
                break;
            }
            self.settle(job());
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.servable() && !conn.pending.is_empty() && !self.backlog.contains(&token) {
            self.backlog.push(token);
        }
        // Pipeline backpressure: a backlogged connection loses read
        // interest until its queue drains, so neither `rbuf` nor the
        // response backlog grows without bound (and a level-triggered
        // wait does not spin on it).
        let want = !conn.peer_closed && !conn.dead && conn.pending.len() < MAX_PIPELINE;
        if want != conn.want_read {
            conn.want_read = want;
            let (r, w) = (conn.want_read, conn.want_write);
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, r, w);
        }
    }

    /// A worker finished: settle the response and keep the connection
    /// moving.
    fn on_done(&mut self, done: Done) {
        let token = done.token;
        self.settle(done);
        self.advance(token);
    }

    /// Take a served request back. Its response is banked at once, unless
    /// the request replicated: then its ships go out and the connection
    /// stays in flight, the response held, until every ship is answered.
    fn settle(&mut self, mut done: Done) {
        let ships = std::mem::take(&mut done.state.outbox);
        let trace = done.state.ship_trace.take();
        let token = done.token;
        let owner = match self.conns.get_mut(&token) {
            Some(conn) if !ships.is_empty() && !done.fatal => {
                conn.owed = ships.len();
                conn.held = Some(done);
                Some(token)
            }
            _ => {
                self.bank(done);
                None
            }
        };
        self.ship_all(ships, owner, trace);
    }

    /// Queue every ship of an outbox on its link. `owner` is the
    /// connection whose held response waits for the answers.
    fn ship_all(&mut self, ships: Outbox, owner: Option<u64>, trace: Option<TraceContext>) {
        for (peer, request) in ships {
            self.links[peer].push(Ship::new(request, owner, trace), &self.poller);
            self.after_link(peer);
        }
    }

    /// Readiness on a peer link: settle the answers that arrived, write
    /// what is pending.
    fn link_ready(&mut self, peer: usize, readable: bool) {
        self.links[peer].pump(readable, &mut self.read_chunk, &self.poller);
        self.after_link(peer);
    }

    /// Settle every ship the link's last step answered or failed, then
    /// start a dial if ships wait for a connection.
    fn after_link(&mut self, peer: usize) {
        while let Some((ship, answer)) = self.links[peer].answers.pop_front() {
            self.answered(peer, ship, answer);
        }
        let Some(cluster) = &self.shared.cluster else {
            return;
        };
        if self.links[peer].needs_dial() {
            let addr = self.links[peer].addr().to_string();
            let me = cluster.self_addr().to_string();
            let tx = self.dial_tx.clone();
            let wake = Arc::clone(&self.wake_tx);
            self.pool.submit(move || {
                let _ = tx.send((peer, peer::dial(&addr, &me)));
                let _ = (&*wake).write(&[1]);
            });
        }
    }

    /// One ship's answer (`None`: its transport failed for good). A
    /// refused step is answered with the whole record on the same link,
    /// taken from the held connection's state — which cannot move while
    /// the connection waits, so it is the record the step came from.
    /// Everything else settles the ship and releases what its owner is
    /// owed.
    fn answered(&mut self, peer: usize, ship: Ship, answer: Option<Response>) {
        if !ship.settle(answer.as_ref()) {
            let held = ship
                .owner
                .and_then(|token| self.conns.get(&token)?.held.as_ref());
            if let Some(record) =
                held.and_then(|done| server::resync_ship(&self.shared, &done.state))
            {
                self.links[peer].push(ship.resync(record), &self.poller);
                return;
            }
        }
        self.release(ship.owner);
    }

    /// One of the answers a held connection waits for came in. The last
    /// one banks its response and puts it on the backlog — not
    /// `advance`d from here, which would re-enter the link that called.
    fn release(&mut self, owner: Option<u64>) {
        let Some(token) = owner else {
            return;
        };
        let Some(conn) = self.conns.get_mut(&token).filter(|c| c.held.is_some()) else {
            return;
        };
        conn.owed -= 1;
        if conn.owed > 0 {
            return;
        }
        if let Some(done) = conn.held.take() {
            self.bank(done);
            if !self.backlog.contains(&token) {
                self.backlog.push(token);
            }
        }
    }

    /// Take a served request back: bank its response frame and restore
    /// the connection's protocol state.
    fn bank(&mut self, done: Done) {
        let Some(conn) = self.conns.get_mut(&done.token) else {
            return; // connection died while the request ran
        };
        conn.in_flight = false;
        if done.fatal {
            // An unencodable response or a panic drops the connection
            // and, since the state is not put back, its session.
            conn.dead = true;
        } else {
            conn.wbuf.extend_from_slice(&done.frame);
            // Recycle the frame buffer into the connection's pool slot,
            // clamped so one giant response doesn't pin its high-water
            // mark on the connection forever.
            let mut frame = done.frame;
            codec::clamp_scratch(&mut frame);
            conn.spare = frame;
            // Adopt whatever `Hello` may have negotiated before the
            // response goes out: the next frame the peer sends after
            // reading it will already be in the new format.
            conn.format = done.state.wire_format();
            conn.state = Some(done.state);
        }
    }

    /// Write as much of `wbuf` as the socket accepts; keep write
    /// interest only while bytes remain.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.flushed() {
            // Clear for reuse, releasing the allocation if one giant
            // response grew it past the clamp.
            codec::clamp_scratch(&mut conn.wbuf);
            conn.wpos = 0;
        }
        let want = !conn.flushed() && !conn.dead;
        if want != conn.want_write {
            conn.want_write = want;
            let (r, w) = (conn.want_read, conn.want_write);
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, r, w);
        }
    }

    /// Decide whether this connection's conversation is over.
    fn maybe_close(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.in_flight {
            return; // wait for the worker; `on_done` re-checks
        }
        let expired = conn.deadline.is_some_and(|d| Instant::now() >= d);
        let done = if conn.dead {
            true
        } else if conn.poisoned {
            // Nothing more is served after the best-effort error
            // frame; wait only for its flush (bounded).
            conn.flushed() || expired
        } else if !conn.serving {
            // A refusal lingers so the peer reads it before the close.
            (conn.flushed() && conn.peer_closed) || expired
        } else {
            conn.peer_closed && conn.pending.is_empty() && conn.flushed()
        };
        if done {
            self.close(token);
        }
    }

    /// Tear a connection down and settle its session.
    fn close(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        crate::obs::reactor_fds_active().dec();
        if conn.serving {
            self.shared.active.fetch_sub(1, Ordering::SeqCst);
            crate::obs::connections_active().dec();
        }
        // A connection that ended inside a frame is dropped with its
        // session; one that ended at a frame boundary parks it, whether
        // by EOF or by a reset (a client that closes with a response
        // unread makes its kernel answer with an RST). A fatal serve or
        // a poisoned connection never got its state back: dropped too.
        let mid_frame = conn.rpos < conn.rbuf.len();
        let Some(mut state) = conn.state.take() else {
            return;
        };
        if mid_frame {
            return;
        }
        server::finish_connection(&mut state, &self.shared);
        self.ship_all(std::mem::take(&mut state.outbox), None, None);
    }

    /// Close refusals and poisoned connections whose deadline passed.
    fn sweep_timers(&mut self, now: Instant) {
        if self.timers.is_empty() {
            return;
        }
        let due: Vec<u64> = self
            .timers
            .iter()
            .copied()
            .filter(|t| {
                self.conns
                    .get(t)
                    .is_some_and(|c| c.deadline.is_some_and(|d| now >= d))
            })
            .collect();
        for token in due {
            self.maybe_close(token);
        }
        self.timers.retain(|t| self.conns.contains_key(t));
    }

    /// Shutdown: let checked-out and held requests finish (their
    /// responses still go out best-effort), then settle every connection —
    /// parking tokened sessions for the sessions file, recording v1 ones —
    /// and, when nothing persists, record the parked sessions too. What
    /// that ships is flushed before the links close, bounded by
    /// [`PEER_RW_TIMEOUT`].
    fn teardown(&mut self) {
        // The settling waits below must wake only for links and the
        // wakeup pair: the listener (kept ready by the connect that
        // unblocked shutdown) and the connections leave the poller.
        let _ = self.poller.remove(self.listener.as_raw_fd());
        for conn in self.conns.values_mut() {
            // Already-decoded-but-unserved requests are dropped, the
            // same as bytes still unread in the socket.
            conn.pending.clear();
            let _ = self.poller.remove(conn.stream.as_raw_fd());
        }
        let served = |r: &Reactor| !r.conns.values().any(|c| c.in_flight);
        self.wait_until(Instant::now() + Duration::from_secs(5), served);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.flush(token);
            self.close(token);
        }
        let mut outbox = Outbox::new();
        server::record_parked(&self.shared, &mut outbox);
        self.ship_all(outbox, None, None);
        let answered = |r: &Reactor| r.links.iter().all(PeerLink::settled);
        self.wait_until(Instant::now() + PEER_RW_TIMEOUT, answered);
    }

    /// Keep taking loop passes until `done` holds or `deadline` passes.
    fn wait_until(&mut self, deadline: Instant, done: impl Fn(&Reactor) -> bool) {
        let mut ready = Vec::new();
        while !done(self) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            ready.clear();
            let timeout = left.min(POLL_INTERVAL).as_millis() as i32;
            if self.poller.wait(&mut ready, timeout).is_err() {
                return;
            }
            self.turn(&ready);
        }
    }
}

/// Swallow queued wakeup bytes (their only job was ending the wait).
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(wake_rx.read(&mut buf), Ok(n) if n > 0) {}
}

/// Decode every complete frame sitting in `rbuf` into `pending`, in the
/// connection's negotiated wire format. A connection that just died is
/// decoded too, though nothing it queued is served: what stays in `rbuf`
/// is then exactly a torn frame, which is what `close` asks about.
fn parse_frames(conn: &mut Conn) {
    if !conn.serving || conn.poisoned {
        return;
    }
    loop {
        match codec::try_decode_frame::<Request>(conn.format, &conn.rbuf[conn.rpos..]) {
            Err(e) => {
                // The length prefix itself is unusable (oversized):
                // answer once and stop reading this stream.
                conn.pending.push_back(Work::Fail(e.to_string()));
                break;
            }
            Ok(FrameOutcome::Incomplete) => {
                // Partial frame: note (once) when its payload started
                // arriving so the eventual `net.read` span covers
                // pulling the payload, not the idle wait before it.
                if conn.rbuf.len() - conn.rpos >= 4
                    && conn.frame_start_us.is_none()
                    && harmony_obs::trace::is_enabled()
                {
                    conn.frame_start_us = Some(monotonic_us());
                }
                break;
            }
            Ok(FrameOutcome::Frame { result, consumed }) => {
                conn.rpos += consumed;
                match result {
                    Ok(request) => {
                        let window = harmony_obs::trace::is_enabled().then(|| {
                            let end = monotonic_us();
                            (conn.frame_start_us.take().unwrap_or(end), end)
                        });
                        conn.frame_start_us = None;
                        if conn.in_flight || !conn.pending.is_empty() {
                            crate::obs::reactor_pipelined_requests_total().inc();
                        }
                        conn.pending.push_back(Work::Request(request, window));
                    }
                    Err(e) => {
                        conn.pending.push_back(Work::Fail(e.to_string()));
                        break;
                    }
                }
            }
        }
    }
    // Reclaim consumed bytes so a long-lived connection's buffer stays
    // at its frame-size steady state; if one outsized frame grew the
    // buffer past the clamp, release the allocation too.
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    if conn.rbuf.is_empty() && conn.rbuf.capacity() > SCRATCH_CLAMP {
        conn.rbuf.shrink_to(SCRATCH_CLAMP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panicking request comes back as a fatal `Done` for its own
    /// connection — counted as an error — instead of unwinding the
    /// thread that served it; a served one comes back with its frame.
    #[test]
    fn a_panicking_request_comes_back_fatal() {
        let errors = crate::obs::errors_total().get();
        let done = serve_one(7, ConnState::new(), Vec::new(), |_, _| {
            panic!("request goes boom")
        });
        assert_eq!(done.token, 7);
        assert!(done.fatal, "a panic must drop the connection");
        assert!(crate::obs::errors_total().get() > errors);

        let done = serve_one(8, ConnState::new(), Vec::new(), |_, frame| {
            frame.extend_from_slice(b"ok");
            Ok(())
        });
        assert!(!done.fatal);
        assert_eq!(done.frame, b"ok");
    }
}
