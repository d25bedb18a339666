//! Outbound peer links: one non-blocking connection per ring peer, owned
//! by the reactor's loop thread.
//!
//! A request that replicates — `SessionStart`, `Report`, `SessionEnd`,
//! and the loop's own session reaping and connection teardown — leaves
//! its `Peer*` messages in an outbox (see [`crate::server::Outbox`]). The
//! reactor queues each on its peer's [`PeerLink`] as a [`Ship`]; the link
//! writes it, reads the peer's answer and hands the pair back through
//! [`PeerLink::answers`]. A client's response waits for every answer its
//! request is owed (ack-after-replicate), but nothing waits on a thread:
//! a dark successor costs the held connection a deadline, not a worker.
//!
//! The rules a link keeps:
//!
//! * **Order.** A link is one connection, and the peer serves one
//!   connection's frames in order, answering every `Peer*` receipt on its
//!   own loop thread; so answers come back in send order, and a FIFO of
//!   unanswered ships pairs them up. Ships of different sessions pipeline
//!   on one link.
//! * **Sequences.** A [`Request::PeerShipRun`] draws its `seq` when it is
//!   queued. Only the loop thread queues, so queue order — the delivery
//!   order — is sequence order, and the receiver's rule of dropping every
//!   `(origin, seq)` at or below the last it applied never discards a
//!   fresh run. Sequences start at the wall clock, so a daemon restarted
//!   on the same address numbers above everything its predecessor
//!   shipped.
//! * **Failure.** A transport failure — EOF, hangup, an I/O error, or an
//!   answer overdue by [`PEER_RW_TIMEOUT`] — drops the connection. Every
//!   unanswered ship is re-sent once on a redialled link (every `Peer*`
//!   receipt is idempotent at the receiver); one that fails a second
//!   time, or whose dial fails, is answered with `None`: counted in
//!   `harmony_net_peer_ship_failures_total` and released.
//! * **Dialling** — the TCP connect and the `Hello` + `PeerHello`
//!   handshake — is the one blocking step, because `std` has no
//!   non-blocking connect. [`dial`] runs on the reactor's worker pool;
//!   ships queue on the link until it returns.

use crate::codec::{
    clamp_scratch, encode_frame_as, read_frame_buf_as, try_decode_frame, write_frame_buf_as,
    FrameOutcome, WireFormat,
};
use crate::poll::Poller;
use crate::protocol::{Request, Response, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION};
use crate::NetError;
use harmony_obs::event::monotonic_us;
use harmony_obs::trace::{self, stage, TraceContext};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Cap on one peer dial. Peers are LAN-close by assumption; a peer that
/// cannot accept in this window is treated as down and its ships are
/// dropped (and counted) rather than held.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Read/write deadline of the dial handshake, and how long a link waits
/// for the answer to its oldest ship before it counts as failed.
pub(crate) const PEER_RW_TIMEOUT: Duration = Duration::from_secs(2);

/// One `Peer*` message on its way to a peer, and who waits for its
/// answer.
pub(crate) struct Ship {
    request: Request,
    /// The connection whose held response is owed this ship's answer.
    pub(crate) owner: Option<u64>,
    /// The serving request's trace and serve span: where the ship's
    /// `peer.ship` span goes.
    trace: Option<TraceContext>,
    /// When the ship was queued, in trace time: its span's start.
    queued_us: u64,
    /// When the ship last went out; its answer is overdue
    /// [`PEER_RW_TIMEOUT`] later.
    sent: Instant,
    /// Connections the ship has been written on.
    tries: u8,
    /// The whole record, sent because the replica refused a step.
    resync: bool,
}

impl Ship {
    pub(crate) fn new(request: Request, owner: Option<u64>, trace: Option<TraceContext>) -> Ship {
        Ship {
            request,
            owner,
            queued_us: if trace.is_some() { monotonic_us() } else { 0 },
            trace,
            sent: Instant::now(),
            tries: 0,
            resync: false,
        }
    }

    /// The message this ship carries.
    #[cfg(test)]
    pub(crate) fn request(&self) -> &Request {
        &self.request
    }

    /// The whole-record ship answering this refused step, for the same
    /// owner and trace.
    pub(crate) fn resync(&self, record: Request) -> Ship {
        Ship {
            resync: true,
            ..Ship::new(record, self.owner, self.trace)
        }
    }

    /// Settle the ship with the peer's answer — `None` when its transport
    /// failed for good — counting the outcome and recording its
    /// `peer.ship` span. `false` means the replica refused a step: the
    /// caller answers with [`resync`](Self::resync) on the same link, and
    /// only that ship's answer settles what the owner is owed.
    pub(crate) fn settle(&self, answer: Option<&Response>) -> bool {
        let acked = matches!(answer, Some(Response::PeerOk));
        let refused_step = answer.is_some()
            && !self.resync
            && matches!(self.request, Request::PeerShipStep { .. });
        if !acked && refused_step {
            self.span(false);
            return false;
        }
        if !acked {
            crate::obs::peer_ship_failures_total().inc();
        } else if self.resync {
            crate::obs::peer_session_resyncs_total().inc();
            crate::obs::peer_sessions_shipped_total().inc();
        } else {
            match self.request {
                Request::PeerShipRun { .. } => crate::obs::peer_runs_shipped_total().inc(),
                Request::PeerShipSession { .. } | Request::PeerShipStep { .. } => {
                    crate::obs::peer_sessions_shipped_total().inc()
                }
                _ => {}
            }
        }
        self.span(!acked);
        true
    }

    fn span(&self, error: bool) {
        if let Some(ctx) = self.trace {
            trace::record_span(
                ctx.trace_id,
                trace::new_id(),
                ctx.span_id,
                stage::PEER_SHIP,
                self.request.kind(),
                self.queued_us,
                monotonic_us(),
                error,
            );
        }
    }
}

/// One outbound link: the connection (once dialled), its buffers, and
/// every ship it has not had an answer for.
pub(crate) struct PeerLink {
    addr: String,
    /// Event-loop token the connection is registered under.
    token: u64,
    stream: Option<TcpStream>,
    /// A dial job is out for this link.
    dialling: bool,
    format: WireFormat,
    /// Frames not yet written: bytes `wpos..`.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Encoding scratch for one frame.
    frame: Vec<u8>,
    /// Bytes received and not yet decoded.
    rbuf: Vec<u8>,
    /// Every ship not yet answered, oldest first. While the link is up,
    /// all of them are in `wbuf` or already written.
    unacked: VecDeque<Ship>,
    /// Ships settled by the last step, with their answers (`None`: the
    /// transport failed for good), for the reactor to take.
    pub(crate) answers: VecDeque<(Ship, Option<Response>)>,
    /// Sequence of the last run queued on this link.
    run_seq: u64,
    want_write: bool,
}

impl PeerLink {
    pub(crate) fn new(addr: String, token: u64) -> PeerLink {
        // Sequences start at the wall clock: a restarted daemon numbers
        // its runs above everything its predecessor shipped, so a peer
        // that remembers the old high-water mark keeps applying.
        let epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        PeerLink {
            addr,
            token,
            stream: None,
            dialling: false,
            format: WireFormat::Json,
            wbuf: Vec::new(),
            wpos: 0,
            frame: Vec::new(),
            rbuf: Vec::new(),
            unacked: VecDeque::new(),
            answers: VecDeque::new(),
            run_seq: epoch,
            want_write: false,
        }
    }

    /// The peer's advertised address.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    pub(crate) fn next_run_seq(&mut self) -> u64 {
        self.run_seq += 1;
        self.run_seq
    }

    /// Nothing unanswered and no dial out.
    pub(crate) fn settled(&self) -> bool {
        self.unacked.is_empty() && !self.dialling
    }

    /// Whether ships wait with no connection and no dial out; `true`
    /// marks the dial as started, so the caller must start it.
    pub(crate) fn needs_dial(&mut self) -> bool {
        let needs = self.stream.is_none() && !self.dialling && !self.unacked.is_empty();
        self.dialling |= needs;
        needs
    }

    /// Queue `ship`, drawing its sequence if it carries a run. A live link
    /// writes it at once; otherwise it waits for the dial.
    pub(crate) fn push(&mut self, mut ship: Ship, poller: &Poller) {
        if let Request::PeerShipRun { seq, .. } = &mut ship.request {
            *seq = self.next_run_seq();
        }
        self.unacked.push_back(ship);
        if self.stream.is_some() {
            self.encode_from(self.unacked.len() - 1);
            self.write_or_drop(poller);
        }
    }

    /// The dial job came back. On success the link goes up and every
    /// queued ship goes out; on failure every one of them fails.
    pub(crate) fn dialled(
        &mut self,
        dialled: Result<(TcpStream, WireFormat), NetError>,
        poller: &Poller,
    ) {
        self.dialling = false;
        match dialled {
            Ok((stream, format))
                if poller
                    .add(stream.as_raw_fd(), self.token, true, false)
                    .is_ok() =>
            {
                self.stream = Some(stream);
                self.format = format;
                self.want_write = false;
                self.encode_from(0);
                self.write_or_drop(poller);
            }
            _ => self
                .answers
                .extend(self.unacked.drain(..).map(|ship| (ship, None))),
        }
    }

    /// Readiness on the connection: decode the answers that arrived, then
    /// write what is pending. (A connection dropped earlier in the same
    /// loop pass may still have readiness queued; it is ignored.)
    pub(crate) fn pump(&mut self, readable: bool, chunk: &mut [u8], poller: &Poller) {
        if self.stream.is_none() {
            return;
        }
        if readable && self.read(chunk).is_err() {
            return self.drop_connection(poller);
        }
        self.write_or_drop(poller);
    }

    /// Whether the oldest unanswered ship on a live link is overdue.
    pub(crate) fn overdue(&self, now: Instant) -> bool {
        self.stream.is_some()
            && self
                .unacked
                .front()
                .is_some_and(|ship| now.duration_since(ship.sent) >= PEER_RW_TIMEOUT)
    }

    /// Drop the connection after a transport failure. A ship already
    /// written on two connections has had its one re-send and fails; the
    /// rest wait for the redial (see [`needs_dial`](Self::needs_dial)).
    pub(crate) fn drop_connection(&mut self, poller: &Poller) {
        if let Some(stream) = self.stream.take() {
            let _ = poller.remove(stream.as_raw_fd());
        }
        self.wbuf.clear();
        self.wpos = 0;
        self.rbuf.clear();
        self.want_write = false;
        let (failed, retried): (VecDeque<Ship>, _) =
            self.unacked.drain(..).partition(|ship| ship.tries >= 2);
        self.unacked = retried;
        self.answers
            .extend(failed.into_iter().map(|ship| (ship, None)));
    }

    /// Append unanswered ships `from..` to the write buffer. One that
    /// cannot be encoded (larger than a frame may be) fails on its own.
    fn encode_from(&mut self, from: usize) {
        let now = Instant::now();
        let mut i = from;
        while i < self.unacked.len() {
            let ship = &mut self.unacked[i];
            if encode_frame_as(self.format, &ship.request, &mut self.frame).is_ok() {
                self.wbuf.extend_from_slice(&self.frame);
                ship.sent = now;
                ship.tries += 1;
                i += 1;
            } else if let Some(ship) = self.unacked.remove(i) {
                self.answers.push_back((ship, None));
            }
        }
        clamp_scratch(&mut self.frame);
    }

    /// Pull what the socket has and pair each complete answer with the
    /// oldest unanswered ship. `Err` is a transport failure: EOF, an I/O
    /// error, an undecodable frame, or an answer nothing was sent for.
    fn read(&mut self, chunk: &mut [u8]) -> Result<(), ()> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(());
        };
        let mut result = loop {
            match stream.read(chunk) {
                Ok(0) => break Err(()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break Err(()),
            }
        };
        // Answers that arrived before an EOF still settle their ships.
        let mut pos = 0;
        loop {
            match try_decode_frame::<Response>(self.format, &self.rbuf[pos..]) {
                Ok(FrameOutcome::Incomplete) => break,
                Ok(FrameOutcome::Frame {
                    result: Ok(answer),
                    consumed,
                }) => {
                    pos += consumed;
                    match self.unacked.pop_front() {
                        Some(ship) => self.answers.push_back((ship, Some(answer))),
                        None => {
                            result = Err(());
                            break;
                        }
                    }
                }
                _ => {
                    result = Err(());
                    break;
                }
            }
        }
        self.rbuf.drain(..pos);
        if self.rbuf.is_empty() {
            clamp_scratch(&mut self.rbuf);
        }
        result
    }

    /// Write what the socket takes, keeping write interest only while
    /// bytes remain; a write error drops the connection.
    fn write_or_drop(&mut self, poller: &Poller) {
        if self.write(poller).is_err() {
            self.drop_connection(poller);
        }
    }

    fn write(&mut self, poller: &Poller) -> io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        while self.wpos < self.wbuf.len() {
            match stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos >= self.wbuf.len() {
            clamp_scratch(&mut self.wbuf);
            self.wpos = 0;
        }
        let want = !self.wbuf.is_empty();
        if want != self.want_write {
            self.want_write = want;
            poller.modify(stream.as_raw_fd(), self.token, true, want)?;
        }
        Ok(())
    }
}

/// Dial `addr`, negotiate `Hello` like any client (binary framing on
/// v3), and authorize as ring member `self_addr` with `PeerHello`.
/// Blocking, within [`PEER_CONNECT_TIMEOUT`] and [`PEER_RW_TIMEOUT`] — it
/// runs on the reactor's worker pool — and the stream comes back
/// non-blocking, ready for the loop.
pub(crate) fn dial(addr: &str, self_addr: &str) -> Result<(TcpStream, WireFormat), NetError> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(ErrorKind::AddrNotAvailable, "peer unresolvable"))?;
    let mut stream = TcpStream::connect_timeout(&resolved, PEER_CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(PEER_RW_TIMEOUT))?;
    stream.set_write_timeout(Some(PEER_RW_TIMEOUT))?;
    let mut buf = Vec::new();
    let mut exchange = |format, request: &Request| -> Result<Response, NetError> {
        write_frame_buf_as(&mut stream, format, request, &mut buf)?;
        read_frame_buf_as(&mut stream, format, &mut buf)
    };
    let hello = Request::Hello {
        version: None,
        min_version: Some(MIN_SUPPORTED_VERSION),
        max_version: Some(PROTOCOL_VERSION),
        client: format!("harmony-net peer {self_addr}"),
    };
    let format = match exchange(WireFormat::Json, &hello)? {
        Response::Hello { version, .. } if version >= 3 => WireFormat::Binary,
        Response::Hello { .. } => WireFormat::Json,
        other => return Err(unexpected("Hello", other)),
    };
    let authorize = Request::PeerHello {
        node: self_addr.to_string(),
    };
    match exchange(format, &authorize)? {
        Response::PeerOk => {}
        Response::Error { message } => return Err(NetError::Remote(message)),
        other => return Err(unexpected("PeerOk", other)),
    }
    stream.set_nonblocking(true)?;
    Ok((stream, format))
}

fn unexpected(wanted: &str, got: Response) -> NetError {
    NetError::Protocol(format!("expected {wanted}, peer sent {got:?}"))
}
