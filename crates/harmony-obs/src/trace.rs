//! Distributed tracing with a flight recorder: span trees across
//! client, daemon, and executor, dependency-free.
//!
//! A *trace* is a tree of spans sharing one 64-bit trace ID; a *span*
//! is a named stage (`net.read`, `classify`, `eval`, …) with monotonic
//! start/end microseconds, a parent span ID, and an error flag. Spans
//! are recorded into a process-global **flight recorder**: a bounded
//! store that keeps the K slowest traces, every errored trace, and a
//! tail-sampled fraction of the rest, so a `TraceDump` after the fact
//! can explain where a slow tuning round spent its time.
//!
//! Tracing is **off by default** and provably inert: every entry point
//! checks one atomic and allocates nothing when disabled. Nothing in
//! this module feeds back into tuning decisions — span IDs come from a
//! private counter, never from the tuner's RNG — so trajectories are
//! bit-identical with tracing on or off.
//!
//! Context propagates two ways:
//!
//! * **Within a thread** — a thread-local stack of [`TraceContext`]s.
//!   [`child`] opens a span under the innermost context; RAII guards
//!   pop on drop, composing with [`crate::event::span`] scopes (events
//!   emitted inside a trace carry its `trace_id`).
//! * **Across threads and processes** — [`TraceContext`] is two plain
//!   `u64`s. Ship them over the wire, then [`continue_from`] on the
//!   other side; completed spans travel back via [`drain`] and are
//!   merged with [`ingest`], which rebases foreign monotonic clocks
//!   onto the local timeline.
//!
//! ```
//! use harmony_obs::trace;
//!
//! trace::enable(trace::RecorderConfig::default());
//! {
//!     let root = trace::start_root(trace::stage::SESSION, "doc");
//!     let ctx = root.context().unwrap();
//!     {
//!         let _step = trace::child(trace::stage::EVAL, "round 0");
//!     }
//!     trace::finalize_with_root(ctx.trace_id, 0);
//! }
//! let dump = trace::dump();
//! assert!(dump.iter().any(|t| t.spans.iter().any(|s| s.stage == "eval")));
//! # trace::disable();
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::event::monotonic_us;

/// A span's stage tag. Only this crate constructs one, so every span
/// opened anywhere names one of the [`stage`] constants and the trace
/// report always agrees on their spelling. A [`SpanRecord`] keeps its
/// stage as a `String`, because spans also arrive over the wire.
///
/// Neither an inline stage string nor a home-made `Stage` compiles:
///
/// ```compile_fail
/// let _span = harmony_obs::trace::child("eval", "");
/// ```
///
/// ```compile_fail
/// let _span = harmony_obs::trace::child(harmony_obs::trace::Stage("eval"), "");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage(&'static str);

impl Stage {
    /// The tag as recorded, e.g. `"classify"`.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl PartialEq<Stage> for String {
    fn eq(&self, stage: &Stage) -> bool {
        self == stage.0
    }
}

/// The stages the harmony pipeline emits.
pub mod stage {
    use super::Stage;

    /// Reading one request frame off the socket (daemon side).
    pub const NET_READ: Stage = Stage("net.read");
    /// One client-side request round trip (detail = request kind).
    pub const NET_RPC: Stage = Stage("net.rpc");
    /// Daemon-side handling of one request (detail = request kind).
    pub const SERVE: Stage = Stage("serve");
    /// Time a batch item waited before a worker claimed it.
    pub const QUEUE_WAIT: Stage = Stage("queue.wait");
    /// A worker running one batch item's objective function.
    pub const EXEC_RUN: Stage = Stage("exec.run");
    /// Measuring one proposed configuration.
    pub const EVAL: Stage = Stage("eval");
    /// Classifying a new session against the experience database.
    pub const CLASSIFY: Stage = Stage("classify");
    /// Replaying prior-run experience into a fresh session (§4.2).
    pub const WARM_START: Stage = Stage("warm_start");
    /// Handing a completed run to the write-ahead-log flusher.
    pub const WAL_APPEND: Stage = Stage("wal.append");
    /// One simplex (or engine) observe step.
    pub const SIMPLEX_STEP: Stage = Stage("simplex.step");
    /// The root span of a whole tuning session.
    pub const SESSION: Stage = Stage("session");
    /// One replicated message, from its send to its peer's answer
    /// (detail = message kind).
    pub const PEER_SHIP: Stage = Stage("peer.ship");
}

/// The two numbers that identify "where we are" in a trace: which
/// trace, and which span new children should hang off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span in this tree shares.
    pub trace_id: u64,
    /// The span that is currently open (parent for new children).
    pub span_id: u64,
}

/// One completed (or synthesized) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within the trace (process-global counter, never 0).
    pub id: u64,
    /// Parent span ID; 0 marks the root.
    pub parent: u64,
    /// Stage tag, e.g. [`stage::CLASSIFY`].
    pub stage: String,
    /// Free-form detail (request kind, batch index, …). May be empty.
    pub detail: String,
    /// Monotonic microseconds at span start (local timeline).
    pub start_us: u64,
    /// Monotonic microseconds at span end.
    pub end_us: u64,
    /// True if the stage failed.
    pub error: bool,
}

impl SpanRecord {
    /// Span duration in microseconds (saturating).
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One retained trace: its spans, sorted by `(start_us, id)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The shared trace ID.
    pub trace_id: u64,
    /// True once the trace was finalized (root known complete).
    pub complete: bool,
    /// All recorded spans, sorted by `(start_us, id)`.
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// Earliest span start (0 for an empty trace).
    pub fn start_us(&self) -> u64 {
        self.spans.iter().map(|s| s.start_us).min().unwrap_or(0)
    }

    /// Span-extent duration: latest end minus earliest start.
    pub fn duration_us(&self) -> u64 {
        let end = self.spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        end.saturating_sub(self.start_us())
    }

    /// True if any span recorded an error.
    pub fn errored(&self) -> bool {
        self.spans.iter().any(|s| s.error)
    }
}

/// Flight-recorder retention policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity for errored + tail-sampled traces.
    pub capacity: usize,
    /// How many of the slowest traces to pin (the K in "K slowest").
    pub keep_slowest: usize,
    /// Keep 1 in N traces that are neither slow nor errored (0 = none).
    pub sample_every: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 64,
            keep_slowest: 16,
            sample_every: 8,
        }
    }
}

/// Traces being assembled outlive their session only until this many
/// are in flight; beyond it the oldest is finalized as incomplete so an
/// abandoned trace can never leak memory.
const MAX_ACTIVE: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True while tracing is enabled process-wide.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

struct Recorder {
    cfg: RecorderConfig,
    /// Spans of traces still being assembled, keyed by trace ID.
    active: HashMap<u64, Vec<SpanRecord>>,
    /// Trace IDs in arrival order, for bounded eviction.
    arrival: VecDeque<u64>,
    /// The K slowest finalized traces (unordered; min evicted).
    slowest: Vec<TraceRecord>,
    /// Errored + tail-sampled traces, oldest evicted first.
    ring: VecDeque<TraceRecord>,
    /// Finalized traces considered for tail sampling so far.
    considered: u64,
}

fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(|| {
        Mutex::new(Recorder {
            cfg: RecorderConfig::default(),
            active: HashMap::new(),
            arrival: VecDeque::new(),
            slowest: Vec::new(),
            ring: VecDeque::new(),
            considered: 0,
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, Recorder> {
    recorder().lock().unwrap_or_else(|e| e.into_inner())
}

/// Turn tracing on with the given retention policy, clearing anything
/// previously recorded.
pub fn enable(cfg: RecorderConfig) {
    let mut r = lock();
    r.cfg = cfg;
    r.active.clear();
    r.arrival.clear();
    r.slowest.clear();
    r.ring.clear();
    r.considered = 0;
    drop(r);
    ENABLED.store(true, Ordering::Release);
}

/// Turn tracing off. Already-retained traces stay dumpable; in-flight
/// (active) traces are discarded.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
    let mut r = lock();
    r.active.clear();
    r.arrival.clear();
}

/// Allocate a fresh non-zero trace/span ID.
///
/// IDs mix a per-process random-ish seed (wall-clock nanos) with a
/// counter through a splitmix64 finalizer, so two processes sharing a
/// daemon will not collide in practice. Nothing downstream depends on
/// their values, so this never perturbs tuning determinism.
///
/// IDs are clamped to 63 bits: the wire codec represents integers as
/// `i64`, and a top-bit-set ID would fall back to a lossy float.
pub fn new_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            ^ (std::process::id() as u64) << 32;
        AtomicU64::new(seed | 1)
    });
    let raw = next.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    let mut z = raw;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z &= i64::MAX as u64;
    if z == 0 {
        0x5bd1_e995
    } else {
        z
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost trace context on this thread, if any.
pub fn current() -> Option<TraceContext> {
    if !is_enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().last().copied())
}

/// An open span. Records itself into the flight recorder and pops the
/// thread-local context when dropped. Inert (all methods no-ops) when
/// tracing is disabled or there was no context to attach to.
#[derive(Debug)]
#[must_use = "a trace span measures the scope of its guard"]
pub struct TraceSpan {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    ctx: TraceContext,
    parent: u64,
    stage: Stage,
    detail: String,
    start_us: u64,
    error: bool,
}

impl TraceSpan {
    fn open(trace_id: u64, parent: u64, stage: Stage, detail: &str) -> TraceSpan {
        let ctx = TraceContext {
            trace_id,
            span_id: new_id(),
        };
        CURRENT.with(|c| c.borrow_mut().push(ctx));
        TraceSpan {
            inner: Some(SpanInner {
                ctx,
                parent,
                stage,
                detail: detail.to_string(),
                start_us: monotonic_us(),
                error: false,
            }),
        }
    }

    /// The context children should inherit; `None` if inert.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|i| i.ctx)
    }

    /// Flag the span (and therefore its trace) as errored.
    pub fn mark_error(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.error = true;
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // Pop by identity rather than strict LIFO so a guard moved to
        // another thread degrades gracefully instead of corrupting an
        // unrelated stack.
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|x| *x == inner.ctx) {
                stack.remove(pos);
            }
        });
        record_span(
            inner.ctx.trace_id,
            inner.ctx.span_id,
            inner.parent,
            inner.stage,
            &inner.detail,
            inner.start_us,
            monotonic_us(),
            inner.error,
        );
    }
}

/// Start a brand-new trace rooted at a span with the given stage.
pub fn start_root(stage: Stage, detail: &str) -> TraceSpan {
    if !is_enabled() {
        return TraceSpan { inner: None };
    }
    TraceSpan::open(new_id(), 0, stage, detail)
}

/// Open a span continuing a trace whose context arrived from elsewhere
/// (another thread or over the wire).
pub fn continue_from(ctx: TraceContext, stage: Stage, detail: &str) -> TraceSpan {
    if !is_enabled() || ctx.trace_id == 0 {
        return TraceSpan { inner: None };
    }
    TraceSpan::open(ctx.trace_id, ctx.span_id, stage, detail)
}

/// Open a child of the innermost span on this thread; inert when no
/// trace is current.
pub fn child(stage: Stage, detail: &str) -> TraceSpan {
    match current() {
        Some(ctx) => TraceSpan::open(ctx.trace_id, ctx.span_id, stage, detail),
        None => TraceSpan { inner: None },
    }
}

/// Record a completed span directly, with explicit IDs and times.
///
/// This is the escape hatch for stages measured before their trace is
/// known (the daemon's `net.read` happens before the frame is decoded)
/// and for worker threads recording against a captured context.
#[allow(clippy::too_many_arguments)]
pub fn record_span(
    trace_id: u64,
    id: u64,
    parent: u64,
    stage: Stage,
    detail: &str,
    start_us: u64,
    end_us: u64,
    error: bool,
) {
    if !is_enabled() || trace_id == 0 {
        return;
    }
    let rec = SpanRecord {
        id,
        parent,
        stage: stage.to_string(),
        detail: detail.to_string(),
        start_us,
        end_us,
        error,
    };
    let mut r = lock();
    push_active(&mut r, trace_id, vec![rec]);
}

fn push_active(r: &mut Recorder, trace_id: u64, spans: Vec<SpanRecord>) {
    if !r.active.contains_key(&trace_id) {
        r.arrival.push_back(trace_id);
        // Bounded assembly: evict the oldest in-flight trace as
        // incomplete rather than growing without limit.
        while r.active.len() >= MAX_ACTIVE {
            let Some(oldest) = r.arrival.pop_front() else {
                break;
            };
            if oldest == trace_id {
                r.arrival.push_back(oldest);
                continue;
            }
            if let Some(spans) = r.active.remove(&oldest) {
                finalize_spans(r, oldest, spans, false);
            }
        }
    }
    r.active.entry(trace_id).or_default().extend(spans);
}

/// Merge spans recorded elsewhere into a trace, skipping span IDs
/// already present. With `rebase`, the batch's timestamps are shifted
/// as one block so its latest end lands at the local "now" — foreign
/// monotonic clocks share no epoch, so durations are preserved exactly
/// while absolute placement becomes approximate.
pub fn ingest(trace_id: u64, mut spans: Vec<SpanRecord>, rebase: bool) {
    if !is_enabled() || trace_id == 0 || spans.is_empty() {
        return;
    }
    if rebase {
        let max_end = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        let delta = monotonic_us() as i64 - max_end as i64;
        for s in &mut spans {
            s.start_us = (s.start_us as i64 + delta).max(0) as u64;
            s.end_us = (s.end_us as i64 + delta).max(0) as u64;
        }
    }
    let mut r = lock();
    let existing: Vec<u64> = r
        .active
        .get(&trace_id)
        .map(|v| v.iter().map(|s| s.id).collect())
        .unwrap_or_default();
    spans.retain(|s| !existing.contains(&s.id));
    if spans.is_empty() {
        return;
    }
    push_active(&mut r, trace_id, spans);
}

/// Remove and return every span recorded so far for a trace. The
/// client calls this before each request to piggyback its completed
/// spans onto the wire.
pub fn drain(trace_id: u64) -> Vec<SpanRecord> {
    if !is_enabled() || trace_id == 0 {
        return Vec::new();
    }
    let mut r = lock();
    r.active
        .get_mut(&trace_id)
        .map(std::mem::take)
        .unwrap_or_default()
}

/// Finalize a trace: move it out of assembly and through the retention
/// policy. If no root span (parent == 0) was recorded — the usual case
/// for a server finalizing a client-owned trace — one is synthesized
/// covering the span extent, with ID `root_hint` (or a fresh ID when
/// the hint is 0).
pub fn finalize_with_root(trace_id: u64, root_hint: u64) {
    if !is_enabled() || trace_id == 0 {
        return;
    }
    let mut r = lock();
    let Some(spans) = r.active.remove(&trace_id) else {
        return;
    };
    finalize_spans_with_hint(&mut r, trace_id, spans, true, root_hint);
}

/// Drop an in-flight trace without retaining it (client side, after
/// the daemon took ownership of the session trace).
pub fn discard(trace_id: u64) {
    let mut r = lock();
    r.active.remove(&trace_id);
}

fn finalize_spans(r: &mut Recorder, trace_id: u64, spans: Vec<SpanRecord>, complete: bool) {
    finalize_spans_with_hint(r, trace_id, spans, complete, 0);
}

fn finalize_spans_with_hint(
    r: &mut Recorder,
    trace_id: u64,
    mut spans: Vec<SpanRecord>,
    complete: bool,
    root_hint: u64,
) {
    if spans.is_empty() {
        return;
    }
    if !spans.iter().any(|s| s.parent == 0) {
        // Synthesize a root covering the extent. Prefer the hint the
        // caller carried over the wire, then the parent ID orphaned
        // spans already point at, so children attach to it.
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        let mut missing: Vec<u64> = spans
            .iter()
            .map(|s| s.parent)
            .filter(|p| *p != 0 && !ids.contains(p))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let root_id = if root_hint != 0 && !ids.contains(&root_hint) {
            root_hint
        } else if missing.len() == 1 {
            missing[0]
        } else {
            new_id()
        };
        let start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
        spans.push(SpanRecord {
            id: root_id,
            parent: 0,
            stage: stage::SESSION.to_string(),
            detail: String::new(),
            start_us: start,
            end_us: end,
            error: false,
        });
    }
    spans.sort_by_key(|s| (s.start_us, s.id));
    let rec = TraceRecord {
        trace_id,
        complete,
        spans,
    };
    retain(r, rec);
}

fn retain(r: &mut Recorder, rec: TraceRecord) {
    if rec.errored() {
        if r.ring.len() >= r.cfg.capacity {
            r.ring.pop_front();
        }
        r.ring.push_back(rec);
        return;
    }
    if r.cfg.keep_slowest > 0 {
        if r.slowest.len() < r.cfg.keep_slowest {
            r.slowest.push(rec);
            return;
        }
        let (min_idx, min_dur) = r
            .slowest
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.duration_us()))
            .min_by_key(|(_, d)| *d)
            .expect("keep_slowest > 0 means slowest is non-empty");
        if rec.duration_us() > min_dur {
            r.slowest[min_idx] = rec;
            return;
        }
    }
    r.considered += 1;
    if r.cfg.sample_every > 0 && r.considered % r.cfg.sample_every == 0 {
        if r.ring.len() >= r.cfg.capacity {
            r.ring.pop_front();
        }
        r.ring.push_back(rec);
    }
}

/// Snapshot everything the flight recorder holds: retained traces plus
/// still-active (incomplete) ones, sorted by `(start_us, trace_id)`.
pub fn dump() -> Vec<TraceRecord> {
    let r = lock();
    // A trace can appear both retained and active (a straggler span
    // recorded after finalize); merge per trace ID, deduplicating by
    // span ID, so the dump shows one coherent tree per trace.
    let mut merged: HashMap<u64, TraceRecord> = HashMap::new();
    let retained = r.slowest.iter().chain(r.ring.iter()).cloned();
    let active = r
        .active
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(id, spans)| TraceRecord {
            trace_id: *id,
            complete: false,
            spans: spans.clone(),
        });
    for rec in retained.chain(active) {
        match merged.entry(rec.trace_id) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(rec);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let existing = e.get_mut();
                existing.complete |= rec.complete;
                let seen: Vec<u64> = existing.spans.iter().map(|s| s.id).collect();
                existing
                    .spans
                    .extend(rec.spans.into_iter().filter(|s| !seen.contains(&s.id)));
            }
        }
    }
    drop(r);
    let mut out: Vec<TraceRecord> = merged.into_values().collect();
    for t in &mut out {
        t.spans.sort_by_key(|s| (s.start_us, s.id));
    }
    out.sort_by_key(|t| (t.start_us(), t.trace_id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The recorder is process-global: serialize tests that reset it.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _guard = test_lock();
        disable();
        let mut root = start_root(stage::SESSION, "x");
        assert!(root.context().is_none());
        root.mark_error();
        drop(root);
        assert!(current().is_none());
        let c = child(stage::EVAL, "");
        assert!(c.context().is_none());
        drop(c);
        assert_eq!(drain(42), Vec::new());
    }

    #[test]
    fn spans_nest_and_record_a_tree() {
        let _guard = test_lock();
        enable(RecorderConfig::default());
        let trace_id;
        {
            let root = start_root(stage::SESSION, "t");
            let root_ctx = root.context().unwrap();
            trace_id = root_ctx.trace_id;
            {
                let mid = child(stage::CLASSIFY, "");
                let mid_ctx = mid.context().unwrap();
                assert_eq!(mid_ctx.trace_id, trace_id);
                assert_eq!(current(), Some(mid_ctx));
                let leaf = child(stage::EVAL, "round 0");
                drop(leaf);
                drop(mid);
            }
            assert_eq!(current(), Some(root_ctx));
        }
        finalize_with_root(trace_id, 0);
        let dump = dump();
        let t = dump.iter().find(|t| t.trace_id == trace_id).unwrap();
        assert!(t.complete);
        assert_eq!(t.spans.len(), 3);
        let root = t.spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(root.stage, stage::SESSION);
        let mid = t.spans.iter().find(|s| s.stage == stage::CLASSIFY).unwrap();
        assert_eq!(mid.parent, root.id);
        let leaf = t.spans.iter().find(|s| s.stage == stage::EVAL).unwrap();
        assert_eq!(leaf.parent, mid.id);
        assert_eq!(leaf.detail, "round 0");
        disable();
    }

    #[test]
    fn finalize_synthesizes_a_root_for_orphan_spans() {
        let _guard = test_lock();
        enable(RecorderConfig::default());
        let trace_id = new_id();
        let root_id = new_id();
        record_span(trace_id, new_id(), root_id, stage::EVAL, "", 10, 30, false);
        record_span(
            trace_id,
            new_id(),
            root_id,
            stage::NET_RPC,
            "Fetch",
            5,
            9,
            false,
        );
        finalize_with_root(trace_id, root_id);
        let dump = dump();
        let t = dump.iter().find(|t| t.trace_id == trace_id).unwrap();
        let root = t.spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(
            root.id, root_id,
            "synthesized root adopts the orphans' parent"
        );
        assert_eq!(root.start_us, 5);
        assert_eq!(root.end_us, 30);
        assert_eq!(t.duration_us(), 25);
        disable();
    }

    #[test]
    fn drain_then_ingest_round_trips_without_duplicates() {
        let _guard = test_lock();
        enable(RecorderConfig::default());
        let trace_id = new_id();
        record_span(trace_id, 7, 1, stage::EVAL, "", 10, 20, false);
        let shipped = drain(trace_id);
        assert_eq!(shipped.len(), 1);
        assert!(drain(trace_id).is_empty(), "drain removes what it returns");
        ingest(trace_id, shipped.clone(), false);
        ingest(trace_id, shipped, false); // replay: deduplicated by span id
        finalize_with_root(trace_id, 0);
        let t = dump().into_iter().find(|t| t.trace_id == trace_id).unwrap();
        let evals = t.spans.iter().filter(|s| s.stage == stage::EVAL).count();
        assert_eq!(evals, 1);
        disable();
    }

    #[test]
    fn ingest_rebases_foreign_clocks_preserving_durations() {
        let _guard = test_lock();
        enable(RecorderConfig::default());
        let trace_id = new_id();
        // A "foreign" clock far in the future relative to ours.
        let spans = vec![SpanRecord {
            id: 3,
            parent: 1,
            stage: stage::EVAL.to_string(),
            detail: String::new(),
            start_us: 1_000_000_000,
            end_us: 1_000_000_700,
            error: false,
        }];
        ingest(trace_id, spans, true);
        finalize_with_root(trace_id, 0);
        let t = dump().into_iter().find(|t| t.trace_id == trace_id).unwrap();
        let s = t.spans.iter().find(|s| s.stage == stage::EVAL).unwrap();
        assert_eq!(s.duration_us(), 700);
        assert!(s.end_us <= monotonic_us());
        disable();
    }

    #[test]
    fn recorder_keeps_slowest_errored_and_sampled() {
        let _guard = test_lock();
        enable(RecorderConfig {
            capacity: 8,
            keep_slowest: 2,
            sample_every: 4,
        });
        // 10 traces with increasing durations; trace 3 errored.
        for i in 0..10u64 {
            let trace_id = 1000 + i;
            record_span(
                trace_id,
                new_id(),
                0,
                stage::SESSION,
                "",
                0,
                (i + 1) * 100,
                i == 3,
            );
            finalize_with_root(trace_id, 0);
        }
        let dump = dump();
        let ids: Vec<u64> = dump.iter().map(|t| t.trace_id).collect();
        assert!(ids.contains(&1003), "errored trace retained: {ids:?}");
        // The two slowest non-errored: 1009 (1000us) and 1008 (900us).
        assert!(ids.contains(&1009), "slowest retained: {ids:?}");
        assert!(ids.contains(&1008), "second slowest retained: {ids:?}");
        // Not everything is kept.
        assert!(dump.len() < 10, "{ids:?}");
        disable();
    }

    /// Spans from other processes and the CLI's trace report match
    /// stages by these spellings.
    #[test]
    fn stage_spellings_are_pinned() {
        let stages = [
            stage::NET_READ,
            stage::NET_RPC,
            stage::SERVE,
            stage::QUEUE_WAIT,
            stage::EXEC_RUN,
            stage::EVAL,
            stage::CLASSIFY,
            stage::WARM_START,
            stage::WAL_APPEND,
            stage::SIMPLEX_STEP,
            stage::SESSION,
            stage::PEER_SHIP,
        ];
        assert_eq!(
            stages.map(Stage::as_str),
            [
                "net.read",
                "net.rpc",
                "serve",
                "queue.wait",
                "exec.run",
                "eval",
                "classify",
                "warm_start",
                "wal.append",
                "simplex.step",
                "session",
                "peer.ship",
            ]
        );
    }

    #[test]
    fn ids_are_nonzero_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = new_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn active_traces_appear_incomplete_in_dump() {
        let _guard = test_lock();
        enable(RecorderConfig::default());
        let trace_id = new_id();
        record_span(trace_id, new_id(), 0, stage::SESSION, "", 0, 50, false);
        let t = dump().into_iter().find(|t| t.trace_id == trace_id).unwrap();
        assert!(!t.complete);
        discard(trace_id);
        assert!(!dump().iter().any(|t| t.trace_id == trace_id));
        disable();
    }
}
