//! The benchmark's own in-memory span recorder, wrapped around every
//! client call of the traced repetition. Spans of one session share the
//! session's id and hang off the session span; they are kept in memory
//! and written to `benchmark/out/trace-<workload>.json` when the run
//! ends. (Spans *inside* the program are harmony-obs's and a later
//! change's business.)

use crate::json::{int, list, num, obj, text};
use serde_json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a session span, else the id of the session span.
    pub parent: u32,
    /// Session the span belongs to (index within its client).
    pub session: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One client's recorder. Without an epoch recording is off and every
/// call costs one branch, so the untraced repetitions run the same code.
pub struct Recorder {
    epoch: Option<Instant>,
    pub client: usize,
    next_id: u32,
    session: u32,
    session_span: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(client: usize, epoch: Option<Instant>) -> Recorder {
        Recorder {
            epoch,
            client,
            next_id: 1,
            session: 0,
            session_span: 0,
            spans: Vec::new(),
        }
    }

    fn push(&mut self, id: u32, parent: u32, name: &'static str, start: Instant, end: Instant) {
        let Some(epoch) = self.epoch else { return };
        self.spans.push(Span {
            id,
            parent,
            session: self.session,
            name,
            start_us: (start - epoch).as_secs_f64() * 1e6,
            end_us: (end - epoch).as_secs_f64() * 1e6,
        });
    }

    /// Open session `index`; spans recorded until [`end_session`] are
    /// its children. The session span itself is pushed at the end, when
    /// its duration is known, under the id reserved here.
    ///
    /// [`end_session`]: Recorder::end_session
    pub fn begin_session(&mut self, index: usize) {
        self.session = index as u32;
        self.session_span = self.next_id;
        self.next_id += 1;
    }

    pub fn end_session(&mut self, start: Instant, end: Instant) {
        self.push(self.session_span, 0, "session", start, end);
    }

    /// Record a finished child span of the current session.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.next_id += 1;
        self.push(self.next_id - 1, self.session_span, name, start, end);
    }
}

/// Total duration per span name, and the sessions' self time (their
/// duration minus what their children cover: the client loop itself).
pub fn totals<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<(&'static str, usize, f64)> {
    let mut by_name: Vec<(&'static str, usize, f64)> = Vec::new();
    let mut covered = 0.0;
    for span in spans {
        if span.parent != 0 {
            covered += span.duration_us();
        }
        match by_name.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += span.duration_us();
            }
            None => by_name.push((span.name, 1, span.duration_us())),
        }
    }
    if let Some(&(_, count, total)) = by_name.iter().find(|(name, _, _)| *name == "session") {
        by_name.push(("session.self", count, total - covered));
    }
    by_name
}

/// The trace file's content.
pub fn to_json(workload: &str, clients: &[Recorder]) -> Value {
    let spans = clients.iter().flat_map(|rec| {
        rec.spans.iter().map(move |s| {
            obj([
                ("client", int(rec.client as u64)),
                ("session", int(s.session as u64)),
                ("id", int(s.id as u64)),
                ("parent", int(s.parent as u64)),
                ("name", text(s.name)),
                ("start_us", num(s.start_us)),
                ("end_us", num(s.end_us)),
            ])
        })
    });
    let summary = totals(clients.iter().flat_map(|r| &r.spans))
        .into_iter()
        .map(|(name, count, total_us)| {
            obj([
                ("name", text(name)),
                ("count", int(count as u64)),
                ("total_us", num(total_us)),
            ])
        });
    obj([
        ("workload", text(workload)),
        ("summary", list(summary)),
        ("spans", list(spans)),
    ])
}
