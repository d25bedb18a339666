//! Protocol v3's compact binary encoding: a dependency-free, hand-rolled
//! tag-length-value format over the existing message enums.
//!
//! # Byte layout
//!
//! Frames keep the [`crate::codec`] shape — a `u32` big-endian length
//! prefix, then that many payload bytes — only the payload encoding
//! changes. A binary payload is built from five primitives:
//!
//! * **varint** — unsigned LEB128, 7 bits per byte, low group first;
//!   at most 10 bytes for a `u64`. Lengths, counts, ids, and versions.
//! * **zigzag varint** — signed integers mapped to unsigned
//!   (`(n << 1) ^ (n >> 63)`) then varint-encoded, so small negative
//!   values stay small. Parameter values, defaults, bounds.
//! * **f64** — the raw IEEE-754 bits, 8 bytes little-endian. Exact for
//!   every value including `NaN` (which JSON cannot even represent).
//! * **string / bytes** — varint byte length, then the bytes (UTF-8
//!   validated on decode).
//! * **tag** — one byte selecting an enum variant. Tags are
//!   append-only: new variants take new numbers, existing numbers never
//!   change meaning, and a retired variant's number (request tag 12,
//!   the JSON-line `PeerShipRun`) is never reused.
//!
//! Compound values compose those: `Option<T>` is a presence byte then
//! the value, `Vec<T>` a varint count then the items, structs their
//! fields in declaration order with no framing (the schema is the code,
//! mirrored exactly by the serde shapes that define the JSON wire form).
//!
//! # Traits
//!
//! [`WireEncode`]/[`WireDecode`] are implemented by hand for every
//! `Request`/`Response` variant and everything nested in them — no
//! derive, no schema compiler, no reflection. Encoding writes into a
//! caller-supplied `Vec<u8>` (the codec's pooled frame buffers);
//! decoding reads from a borrowed [`Reader`] and is total: every error
//! is a [`NetError::Protocol`], never a panic, however hostile the
//! bytes. Decoded lengths are bounded by the bytes actually present, so
//! a forged count cannot balloon memory.
//!
//! Negotiation lives in [`crate::protocol`]: a connection speaks JSON
//! until `Hello` lands on version ≥ 3, then both sides switch. See
//! [`WireFormat`].

use crate::protocol::{
    Request, Response, RunSummary, SensitivityEntry, SpaceSpec, WireSpan, WireTrace,
};
use crate::NetError;
use harmony::history::{RunHistory, TuningRecord};
use harmony_space::{Expr, ParamDef, ParamKind, ParameterSpace};
use std::sync::Arc;

/// Which payload encoding a connection speaks. JSON until `Hello`
/// negotiates protocol ≥ 3, binary afterwards; the `Hello` response
/// itself still travels in the format that was current when the
/// `Hello` arrived, so both sides switch on the same frame boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Length-prefixed JSON (protocols 1 and 2, and every frame before
    /// negotiation completes).
    #[default]
    Json,
    /// The compact binary encoding in this module (protocol ≥ 3).
    Binary,
}

/// Deepest `Expr` nesting the decoder accepts. Real restriction
/// expressions are a handful of levels; the cap keeps a hostile payload
/// from recursing the decoder off the stack.
const MAX_EXPR_DEPTH: usize = 64;

fn bad(msg: impl Into<String>) -> NetError {
    NetError::Protocol(format!("bad binary frame: {}", msg.into()))
}

// ---------------------------------------------------------------------
// Primitives.

/// Append an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-mapped signed varint.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Borrowing cursor over one binary payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(bad(format!("need {n} bytes, {} remain", self.remaining())));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    /// Read an unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, NetError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // The tenth group holds only the top bit; anything
                // wider overflowed.
                if shift == 63 && byte > 1 {
                    return Err(bad("varint overflows u64"));
                }
                return Ok(v);
            }
        }
        Err(bad("varint longer than 10 bytes"))
    }

    /// Read a zigzag-mapped signed varint.
    pub fn zigzag(&mut self) -> Result<i64, NetError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn f64(&mut self) -> Result<f64, NetError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("8 bytes taken");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn bool(&mut self) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("bool byte {other}"))),
        }
    }

    fn usize(&mut self) -> Result<usize, NetError> {
        usize::try_from(self.varint()?).map_err(|_| bad("count exceeds usize"))
    }

    /// A count that must be plausible given the bytes left: every
    /// element costs at least one byte, so a count beyond `remaining`
    /// is a forgery — reject it before reserving anything.
    fn count(&mut self) -> Result<usize, NetError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(bad(format!(
                "{n} elements promised, {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, NetError> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    /// Fail unless every payload byte was consumed — trailing garbage
    /// means a framing bug or a tampered frame.
    pub fn finish(self) -> Result<(), NetError> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The trait pair.

/// Hand-written binary encoding; mirrors the type's serde shape.
pub trait WireEncode {
    /// Append this value's binary form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Hand-written binary decoding; total (errors, never panics).
pub trait WireDecode: Sized {
    /// Read one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError>;
}

/// Encode `msg` into a fresh payload buffer.
pub fn to_bytes<T: WireEncode>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// Decode one complete payload, requiring every byte to be consumed.
pub fn from_bytes<T: WireDecode>(payload: &[u8]) -> Result<T, NetError> {
    let mut r = Reader::new(payload);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

impl WireEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
}

impl WireDecode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        r.varint()
    }
}

impl WireEncode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
}

impl WireDecode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        u32::try_from(r.varint()?).map_err(|_| bad("value exceeds u32"))
    }
}

impl WireEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        r.usize()
    }
}

impl WireEncode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_zigzag(out, *self);
    }
}

impl WireDecode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        r.zigzag()
    }
}

impl WireEncode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl WireDecode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        r.f64()
    }
}

impl WireEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        r.bool()
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        r.string()
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(bad(format!("option byte {other}"))),
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: WireEncode> WireEncode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: WireDecode> WireDecode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: WireEncode> WireEncode for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: WireDecode> WireDecode for Arc<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

// ---------------------------------------------------------------------
// Protocol messages. Tags are append-only and never reused: a retired
// variant's number stays unassigned.

impl WireEncode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello {
                version,
                min_version,
                max_version,
                client,
            } => {
                out.push(0);
                version.encode(out);
                min_version.encode(out);
                max_version.encode(out);
                client.encode(out);
            }
            Request::SessionStart {
                space,
                label,
                characteristics,
                max_iterations,
                engine,
            } => {
                out.push(1);
                space.encode(out);
                label.encode(out);
                characteristics.encode(out);
                max_iterations.encode(out);
                // Trailing optional field, added after v3 shipped: a
                // default (`None`) encodes as nothing at all, so these
                // bytes are identical to what pre-engine encoders
                // produced and old decoders never see the field.
                if engine.is_some() {
                    engine.encode(out);
                }
            }
            Request::Resume { token } => {
                out.push(2);
                token.encode(out);
            }
            Request::Fetch => out.push(3),
            Request::Report { performance, seq } => {
                out.push(4);
                performance.encode(out);
                seq.encode(out);
            }
            Request::SessionEnd => out.push(5),
            Request::Sensitivity => out.push(6),
            Request::DbQuery => out.push(7),
            Request::Stats => out.push(8),
            Request::Traced {
                trace_id,
                parent_span,
                spans,
                request,
            } => {
                out.push(9);
                trace_id.encode(out);
                parent_span.encode(out);
                spans.encode(out);
                request.encode(out);
            }
            Request::TraceDump => out.push(10),
            Request::PeerHello { node } => {
                out.push(11);
                node.encode(out);
            }
            // Tag 12 is retired: it carried a run as a JSON line.
            Request::PeerShipSession { origin, session } => {
                out.push(13);
                origin.encode(out);
                session.encode(out);
            }
            Request::PeerDropSession { origin, token } => {
                out.push(14);
                origin.encode(out);
                token.encode(out);
            }
            Request::PeerShipStep {
                token,
                iteration,
                next_seq,
                values,
                performance,
            } => {
                out.push(15);
                token.encode(out);
                iteration.encode(out);
                next_seq.encode(out);
                values.encode(out);
                performance.encode(out);
            }
            Request::PeerShipRun { origin, seq, run } => {
                out.push(16);
                origin.encode(out);
                seq.encode(out);
                run.encode(out);
            }
        }
    }
}

impl WireDecode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(match r.u8()? {
            0 => Request::Hello {
                version: Option::decode(r)?,
                min_version: Option::decode(r)?,
                max_version: Option::decode(r)?,
                client: r.string()?,
            },
            1 => {
                let space = SpaceSpec::decode(r)?;
                let label = r.string()?;
                let characteristics = Vec::decode(r)?;
                let max_iterations = Option::decode(r)?;
                // Trailing optional: absent entirely on frames from
                // pre-engine encoders.
                let engine = if r.remaining() == 0 {
                    None
                } else {
                    Option::decode(r)?
                };
                Request::SessionStart {
                    space,
                    label,
                    characteristics,
                    max_iterations,
                    engine,
                }
            }
            2 => Request::Resume { token: r.string()? },
            3 => Request::Fetch,
            4 => Request::Report {
                performance: r.f64()?,
                seq: Option::decode(r)?,
            },
            5 => Request::SessionEnd,
            6 => Request::Sensitivity,
            7 => Request::DbQuery,
            8 => Request::Stats,
            9 => {
                let trace_id = r.varint()?;
                let parent_span = r.varint()?;
                let spans = Vec::decode(r)?;
                // The wrapper is not nestable: the inner request must be
                // a bare one, exactly as the server enforces for JSON.
                let request: Box<Request> = Box::decode(r)?;
                Request::Traced {
                    trace_id,
                    parent_span,
                    spans,
                    request,
                }
            }
            10 => Request::TraceDump,
            11 => Request::PeerHello { node: r.string()? },
            // 12 is retired and falls through to the unknown-tag error.
            13 => Request::PeerShipSession {
                origin: r.string()?,
                session: r.string()?,
            },
            14 => Request::PeerDropSession {
                origin: r.string()?,
                token: r.string()?,
            },
            15 => Request::PeerShipStep {
                token: r.string()?,
                iteration: r.usize()?,
                next_seq: r.varint()?,
                values: Vec::decode(r)?,
                performance: r.f64()?,
            },
            16 => Request::PeerShipRun {
                origin: r.string()?,
                seq: r.varint()?,
                run: Arc::decode(r)?,
            },
            tag => return Err(bad(format!("request tag {tag}"))),
        })
    }
}

/// Response variant tags, shared with [`response_wire_kind`] so a
/// reader that only needs the message kind can stop after one byte.
const RESPONSE_KINDS: &[&str] = &[
    "Hello",
    "SessionStarted",
    "Resumed",
    "Draining",
    "Config",
    "Done",
    "Reported",
    "SessionSummary",
    "Sensitivity",
    "Runs",
    "Stats",
    "TraceDump",
    "Error",
    "NotMine",
    "PeerOk",
];

/// The variant name of a binary-encoded [`Response`] payload, read from
/// its tag byte alone — the binary analogue of scanning JSON for the
/// externally-tagged variant name. `None` for an empty or unknown tag.
pub fn response_wire_kind(payload: &[u8]) -> Option<&'static str> {
    RESPONSE_KINDS.get(usize::from(*payload.first()?)).copied()
}

impl WireEncode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Hello { version, server } => {
                out.push(0);
                version.encode(out);
                server.encode(out);
            }
            Response::SessionStarted {
                space,
                trained_from,
                training_iterations,
                session_token,
            } => {
                out.push(1);
                space.encode(out);
                trained_from.encode(out);
                training_iterations.encode(out);
                session_token.encode(out);
            }
            Response::Resumed {
                iteration,
                next_seq,
                done,
            } => {
                out.push(2);
                iteration.encode(out);
                next_seq.encode(out);
                done.encode(out);
            }
            Response::Draining => out.push(3),
            Response::Config { values, iteration } => {
                out.push(4);
                values.encode(out);
                iteration.encode(out);
            }
            Response::Done => out.push(5),
            Response::Reported => out.push(6),
            Response::SessionSummary {
                values,
                performance,
                iterations,
                converged,
            } => {
                out.push(7);
                values.encode(out);
                performance.encode(out);
                iterations.encode(out);
                converged.encode(out);
            }
            Response::Sensitivity { entries } => {
                out.push(8);
                entries.encode(out);
            }
            Response::Runs { runs } => {
                out.push(9);
                runs.encode(out);
            }
            Response::Stats { text } => {
                out.push(10);
                text.encode(out);
            }
            Response::TraceDump { traces } => {
                out.push(11);
                traces.encode(out);
            }
            Response::Error { message } => {
                out.push(12);
                message.encode(out);
            }
            Response::NotMine { owner } => {
                out.push(13);
                owner.encode(out);
            }
            Response::PeerOk => out.push(14),
        }
    }
}

impl WireDecode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(match r.u8()? {
            0 => Response::Hello {
                version: u32::decode(r)?,
                server: r.string()?,
            },
            1 => Response::SessionStarted {
                space: ParameterSpace::decode(r)?,
                trained_from: Option::decode(r)?,
                training_iterations: r.usize()?,
                session_token: Option::decode(r)?,
            },
            2 => Response::Resumed {
                iteration: r.usize()?,
                next_seq: r.varint()?,
                done: r.bool()?,
            },
            3 => Response::Draining,
            4 => Response::Config {
                values: Vec::decode(r)?,
                iteration: r.usize()?,
            },
            5 => Response::Done,
            6 => Response::Reported,
            7 => Response::SessionSummary {
                values: Vec::decode(r)?,
                performance: r.f64()?,
                iterations: r.usize()?,
                converged: r.bool()?,
            },
            8 => Response::Sensitivity {
                entries: Vec::decode(r)?,
            },
            9 => Response::Runs {
                runs: Vec::decode(r)?,
            },
            10 => Response::Stats { text: r.string()? },
            11 => Response::TraceDump {
                traces: Vec::decode(r)?,
            },
            12 => Response::Error {
                message: r.string()?,
            },
            13 => Response::NotMine { owner: r.string()? },
            14 => Response::PeerOk,
            tag => return Err(bad(format!("response tag {tag}"))),
        })
    }
}

impl WireEncode for SpaceSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SpaceSpec::Rsl(doc) => {
                out.push(0);
                doc.encode(out);
            }
            SpaceSpec::Explicit(space) => {
                out.push(1);
                space.encode(out);
            }
        }
    }
}

impl WireDecode for SpaceSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(match r.u8()? {
            0 => SpaceSpec::Rsl(r.string()?),
            1 => SpaceSpec::Explicit(ParameterSpace::decode(r)?),
            tag => return Err(bad(format!("space spec tag {tag}"))),
        })
    }
}

// ---------------------------------------------------------------------
// harmony-space types. These have private fields behind validating
// constructors; the decoder re-validates and rebuilds through the
// public API, so hostile bytes surface as protocol errors, never as
// assertion panics or invalid states.

impl WireEncode for ParameterSpace {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.params().len() as u64);
        for p in self.params() {
            p.encode(out);
        }
    }
}

impl WireDecode for ParameterSpace {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        let params: Vec<ParamDef> = Vec::decode(r)?;
        ParameterSpace::new(params).map_err(|e| bad(format!("invalid space: {e}")))
    }
}

impl WireEncode for ParamDef {
    fn encode(&self, out: &mut Vec<u8>) {
        match self.kind() {
            ParamKind::Int => {
                out.push(0);
                self.name().to_string().encode(out);
                self.min_expr().encode(out);
                self.max_expr().encode(out);
                put_zigzag(out, self.default());
                put_zigzag(out, self.step());
                put_zigzag(out, self.static_min());
                put_zigzag(out, self.static_max());
            }
            // Categorical parameters are canonical-form: bounds are
            // always [0, labels-1] with step 1, so only the labels and
            // the default index travel.
            ParamKind::Categorical(labels) => {
                out.push(1);
                self.name().to_string().encode(out);
                labels.encode(out);
                put_varint(out, self.default() as u64);
            }
        }
    }
}

impl WireDecode for ParamDef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        match r.u8()? {
            0 => {
                let name = r.string()?;
                let min = Expr::decode(r)?;
                let max = Expr::decode(r)?;
                let default = r.zigzag()?;
                let step = r.zigzag()?;
                let static_min = r.zigzag()?;
                let static_max = r.zigzag()?;
                // Mirror ParamDef::restricted's assertions as decode
                // errors before handing over.
                if step <= 0 {
                    return Err(bad(format!(
                        "parameter {name}: step {step} must be positive"
                    )));
                }
                if static_min > static_max {
                    return Err(bad(format!("parameter {name}: static bounds inverted")));
                }
                if !(static_min..=static_max).contains(&default) {
                    return Err(bad(format!(
                        "parameter {name}: default {default} outside [{static_min}, {static_max}]"
                    )));
                }
                Ok(ParamDef::restricted(
                    name, min, max, default, step, static_min, static_max,
                ))
            }
            1 => {
                let name = r.string()?;
                let labels: Vec<String> = Vec::decode(r)?;
                let default = r.usize()?;
                if labels.is_empty() {
                    return Err(bad(format!("categorical {name} has no labels")));
                }
                if default >= labels.len() {
                    return Err(bad(format!(
                        "categorical {name}: default index {default} of {}",
                        labels.len()
                    )));
                }
                Ok(ParamDef::categorical(name, labels, default))
            }
            tag => Err(bad(format!("parameter kind tag {tag}"))),
        }
    }
}

impl WireEncode for Expr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Const(v) => {
                out.push(0);
                put_zigzag(out, *v);
            }
            Expr::Param(name) => {
                out.push(1);
                name.encode(out);
            }
            Expr::Add(a, b) => pair(out, 2, a, b),
            Expr::Sub(a, b) => pair(out, 3, a, b),
            Expr::Mul(a, b) => pair(out, 4, a, b),
            Expr::Div(a, b) => pair(out, 5, a, b),
            Expr::Neg(a) => {
                out.push(6);
                a.encode(out);
            }
            Expr::Min(a, b) => pair(out, 7, a, b),
            Expr::Max(a, b) => pair(out, 8, a, b),
        }
    }
}

fn pair(out: &mut Vec<u8>, tag: u8, a: &Expr, b: &Expr) {
    out.push(tag);
    a.encode(out);
    b.encode(out);
}

impl WireDecode for Expr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        decode_expr(r, 0)
    }
}

fn decode_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr, NetError> {
    if depth >= MAX_EXPR_DEPTH {
        return Err(bad(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH}"
        )));
    }
    let node = |r: &mut Reader<'_>| decode_expr(r, depth + 1).map(Box::new);
    Ok(match r.u8()? {
        0 => Expr::Const(r.zigzag()?),
        1 => Expr::Param(r.string()?),
        2 => Expr::Add(node(r)?, node(r)?),
        3 => Expr::Sub(node(r)?, node(r)?),
        4 => Expr::Mul(node(r)?, node(r)?),
        5 => Expr::Div(node(r)?, node(r)?),
        6 => Expr::Neg(node(r)?),
        7 => Expr::Min(node(r)?, node(r)?),
        8 => Expr::Max(node(r)?, node(r)?),
        tag => return Err(bad(format!("expression tag {tag}"))),
    })
}

// ---------------------------------------------------------------------
// Wire structs.

impl WireEncode for WireSpan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.parent.encode(out);
        self.stage.encode(out);
        self.detail.encode(out);
        self.start_us.encode(out);
        self.end_us.encode(out);
        self.error.encode(out);
    }
}

impl WireDecode for WireSpan {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(WireSpan {
            id: r.varint()?,
            parent: r.varint()?,
            stage: r.string()?,
            detail: r.string()?,
            start_us: r.varint()?,
            end_us: r.varint()?,
            error: r.bool()?,
        })
    }
}

impl WireEncode for WireTrace {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trace_id.encode(out);
        self.complete.encode(out);
        self.spans.encode(out);
    }
}

impl WireDecode for WireTrace {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(WireTrace {
            trace_id: r.varint()?,
            complete: r.bool()?,
            spans: Vec::decode(r)?,
        })
    }
}

impl WireEncode for RunSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.characteristics.encode(out);
        self.records.encode(out);
        self.best_performance.encode(out);
    }
}

impl WireDecode for RunSummary {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(RunSummary {
            label: r.string()?,
            characteristics: Vec::decode(r)?,
            records: r.usize()?,
            best_performance: Option::decode(r)?,
        })
    }
}

impl WireEncode for RunHistory {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.characteristics.encode(out);
        self.records.encode(out);
    }
}

impl WireDecode for RunHistory {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(RunHistory {
            label: r.string()?,
            characteristics: Vec::decode(r)?,
            records: Vec::decode(r)?,
        })
    }
}

impl WireEncode for TuningRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.values.encode(out);
        self.performance.encode(out);
    }
}

impl WireDecode for TuningRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(TuningRecord {
            values: Vec::decode(r)?,
            performance: r.f64()?,
        })
    }
}

impl WireEncode for SensitivityEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index.encode(out);
        self.name.encode(out);
        self.sensitivity.encode(out);
        self.best_value.encode(out);
    }
}

impl WireDecode for SensitivityEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(SensitivityEntry {
            index: r.usize()?,
            name: r.string()?,
            sensitivity: r.f64()?,
            best_value: r.zigzag()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, value, "binary round trip must be identity");
    }

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("cache", 1, 64, 8, 1))
            .param(ParamDef::restricted(
                "C",
                Expr::constant(1),
                Expr::parse("max(1,9-$cache)").unwrap(),
                1,
                2,
                1,
                9,
            ))
            .param(ParamDef::categorical(
                "algo",
                vec!["heap".into(), "quick".into()],
                1,
            ))
            .build()
            .unwrap()
    }

    fn peer_step() -> Request {
        Request::PeerShipStep {
            token: "hs-1-1".into(),
            iteration: 7,
            next_seq: 8,
            values: vec![14, -6, i64::MIN],
            performance: -0.1,
        }
    }

    fn peer_run() -> Request {
        let mut run = RunHistory::new("w", vec![0.25, -0.75]);
        run.push(&harmony_space::Configuration::new(vec![14, 6]), 200.0);
        run.push(&harmony_space::Configuration::new(vec![-3, 0]), 0.1 + 0.2);
        Request::PeerShipRun {
            origin: "127.0.0.1:7701".into(),
            seq: 42,
            run: Arc::new(run),
        }
    }

    #[test]
    fn varints_round_trip_across_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            0xffff,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_zigzag(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.zigzag().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn small_values_stay_small() {
        let mut out = Vec::new();
        put_varint(&mut out, 42);
        assert_eq!(out.len(), 1);
        out.clear();
        put_zigzag(&mut out, -3);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn every_request_variant_round_trips() {
        let requests = [
            Request::Hello {
                version: Some(1),
                min_version: None,
                max_version: None,
                client: "old".into(),
            },
            Request::Hello {
                version: None,
                min_version: Some(1),
                max_version: Some(3),
                client: String::new(),
            },
            Request::SessionStart {
                space: SpaceSpec::Rsl("{ harmonyBundle x { int {0 9 1} }}".into()),
                label: "w".into(),
                characteristics: vec![0.25, -0.75, f64::MIN_POSITIVE],
                max_iterations: Some(40),
                engine: None,
            },
            Request::SessionStart {
                space: SpaceSpec::Explicit(space()),
                label: String::new(),
                characteristics: vec![],
                max_iterations: None,
                engine: Some("divide-diverge".into()),
            },
            Request::Resume {
                token: "s-42".into(),
            },
            Request::Fetch,
            Request::Report {
                performance: -3.5,
                seq: Some(4),
            },
            Request::SessionEnd,
            Request::Sensitivity,
            Request::DbQuery,
            Request::Stats,
            Request::Traced {
                trace_id: u64::MAX,
                parent_span: 7,
                spans: vec![WireSpan {
                    id: 9,
                    parent: 7,
                    stage: "eval".into(),
                    detail: "round 3".into(),
                    start_us: 100,
                    end_us: 250,
                    error: true,
                }],
                request: Box::new(Request::Fetch),
            },
            Request::TraceDump,
            Request::PeerHello {
                node: "127.0.0.1:7701".into(),
            },
            Request::PeerShipSession {
                origin: "127.0.0.1:7701".into(),
                session: "{\"token\":\"hs-1-1\"}".into(),
            },
            Request::PeerDropSession {
                origin: "127.0.0.1:7701".into(),
                token: "hs-1-1".into(),
            },
            peer_step(),
            peer_run(),
            Request::PeerShipRun {
                origin: String::new(),
                seq: u64::MAX,
                run: Arc::new(RunHistory::new("", vec![])),
            },
        ];
        for msg in &requests {
            round_trip(msg);
        }
    }

    #[test]
    fn engineless_session_start_encodes_exactly_as_before_the_field() {
        // The trailing optional must be invisible when absent: the bytes
        // end right after max_iterations, as pre-engine encoders wrote
        // them, and decoding those bytes yields engine: None.
        let msg = Request::SessionStart {
            space: SpaceSpec::Rsl("{ harmonyBundle x { int {0 9 1} }}".into()),
            label: "w".into(),
            characteristics: vec![1.0],
            max_iterations: Some(8),
            engine: None,
        };
        let bytes = to_bytes(&msg);
        let mut legacy = vec![1u8];
        SpaceSpec::Rsl("{ harmonyBundle x { int {0 9 1} }}".into()).encode(&mut legacy);
        "w".to_string().encode(&mut legacy);
        vec![1.0f64].encode(&mut legacy);
        Some(8usize).encode(&mut legacy);
        assert_eq!(bytes, legacy, "engine: None must add zero bytes");
        assert_eq!(from_bytes::<Request>(&legacy).unwrap(), msg);
    }

    #[test]
    fn every_response_variant_round_trips() {
        let responses = [
            Response::Hello {
                version: 3,
                server: "harmony".into(),
            },
            Response::SessionStarted {
                space: space(),
                trained_from: Some("monday".into()),
                training_iterations: 17,
                session_token: None,
            },
            Response::Resumed {
                iteration: 7,
                next_seq: 9,
                done: false,
            },
            Response::Draining,
            Response::Config {
                values: vec![3, -1, 4],
                iteration: 2,
            },
            Response::Done,
            Response::Reported,
            Response::SessionSummary {
                values: vec![i64::MIN, i64::MAX],
                performance: 15.9,
                iterations: 26,
                converged: true,
            },
            Response::Sensitivity {
                entries: vec![SensitivityEntry {
                    index: 0,
                    name: "cache".into(),
                    sensitivity: 0.25,
                    best_value: -7,
                }],
            },
            Response::Runs {
                runs: vec![RunSummary {
                    label: "r".into(),
                    characteristics: vec![1.0],
                    records: 3,
                    best_performance: None,
                }],
            },
            Response::Stats {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Response::TraceDump {
                traces: vec![WireTrace {
                    trace_id: 3,
                    complete: true,
                    spans: vec![],
                }],
            },
            Response::Error {
                message: "no".into(),
            },
            Response::NotMine {
                owner: "127.0.0.1:7702".into(),
            },
            Response::PeerOk,
        ];
        for msg in &responses {
            round_trip(msg);
        }
    }

    #[test]
    fn nan_performance_survives_binary_exactly() {
        // The JSON encoding turns NaN into null (bench_c10k works around
        // it); raw f64 bits carry it losslessly.
        let bytes = to_bytes(&Response::SessionSummary {
            values: vec![1],
            performance: f64::NAN,
            iterations: 0,
            converged: false,
        });
        match from_bytes::<Response>(&bytes).unwrap() {
            Response::SessionSummary { performance, .. } => assert!(performance.is_nan()),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn binary_is_smaller_than_json_on_the_session_messages() {
        let messages = [
            Request::SessionStart {
                space: SpaceSpec::Explicit(space()),
                label: "compact".into(),
                characteristics: vec![0.5, 0.5],
                max_iterations: Some(40),
                engine: None,
            },
            Request::Report {
                performance: 1.5,
                seq: Some(400),
            },
        ];
        for msg in &messages {
            let json = serde_json::to_vec(msg).unwrap();
            let binary = to_bytes(msg);
            assert!(
                binary.len() * 2 < json.len(),
                "binary {} vs json {} for {msg:?}",
                binary.len(),
                json.len()
            );
        }
    }

    #[test]
    fn response_kind_reads_from_the_tag_byte() {
        let frames = [
            (Response::Done, "Done"),
            (
                Response::Config {
                    values: vec![1],
                    iteration: 0,
                },
                "Config",
            ),
            (
                Response::Error {
                    message: "m".into(),
                },
                "Error",
            ),
        ];
        for (msg, kind) in frames {
            assert_eq!(response_wire_kind(&to_bytes(&msg)), Some(kind));
        }
        assert_eq!(response_wire_kind(&[]), None);
        assert_eq!(response_wire_kind(&[200]), None);
    }

    #[test]
    fn hostile_payloads_error_instead_of_panicking() {
        // Truncated, forged counts, bad tags, bad UTF-8, non-canonical
        // bools, trailing garbage: all must come back as Protocol errors.
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![99],                           // unknown request tag
            vec![0, 2],                         // Hello with a bad option byte
            vec![1, 0, 255, 255, 255, 1],       // SessionStart, huge RSL length
            vec![2, 3, 0xff, 0xfe, 0xfd],       // Resume with invalid UTF-8
            vec![4, 0, 0, 0, 0, 0, 0, 0, 0, 7], // Report with bool byte 7 for the Option
            vec![3, 0],                         // Fetch with a trailing byte
        ];
        for bytes in cases {
            let err = from_bytes::<Request>(&bytes).unwrap_err();
            assert!(matches!(err, NetError::Protocol(_)), "{bytes:?} -> {err}");
        }
    }

    /// The two ring messages: cut anywhere, or with a count no frame
    /// of that size could hold, they are protocol errors; whole, they
    /// say the same thing in the JSON format a v2 peer link speaks.
    #[test]
    fn peer_step_and_run_frames_are_total_and_format_independent() {
        for msg in [peer_step(), peer_run()] {
            let bytes = to_bytes(&msg);
            for cut in 0..bytes.len() {
                let err = from_bytes::<Request>(&bytes[..cut]).unwrap_err();
                assert!(matches!(err, NetError::Protocol(_)), "cut {cut}: {err}");
            }
            let json = serde_json::to_string(&msg).unwrap();
            assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), msg);
        }
        let mut forged_values = vec![15u8];
        "t".to_string().encode(&mut forged_values);
        0usize.encode(&mut forged_values);
        0u64.encode(&mut forged_values);
        put_varint(&mut forged_values, u64::MAX); // values: count
        let mut forged_records = vec![16u8];
        "o".to_string().encode(&mut forged_records);
        1u64.encode(&mut forged_records);
        "label".to_string().encode(&mut forged_records);
        Vec::<f64>::new().encode(&mut forged_records);
        put_varint(&mut forged_records, 1 << 40); // records: count
        forged_records.extend_from_slice(&[0; 32]);
        for bytes in [forged_values, forged_records] {
            let err = from_bytes::<Request>(&bytes).unwrap_err();
            assert!(err.to_string().contains("promised"), "{err}");
        }
    }

    /// Tag 12 was `PeerShipRun { line }`; retired, it is an unknown tag
    /// however well-formed the rest of the old frame is.
    #[test]
    fn the_retired_run_tag_is_a_protocol_error() {
        let mut old = vec![12u8];
        "127.0.0.1:7701".to_string().encode(&mut old);
        42u64.encode(&mut old);
        "{\"label\":\"w\"}".to_string().encode(&mut old);
        let err = from_bytes::<Request>(&old).unwrap_err();
        assert!(err.to_string().contains("request tag 12"), "{err}");
    }

    #[test]
    fn forged_space_fails_validation_not_assertions() {
        // An Int parameter whose default sits outside its static bounds:
        // constructing it via ParamDef::restricted would panic; decoding
        // it must error.
        let mut bytes = vec![1 /* SessionStarted */];
        put_varint(&mut bytes, 1); // one parameter
        bytes.push(0); // Int kind
        "p".to_string().encode(&mut bytes);
        Expr::constant(0).encode(&mut bytes);
        Expr::constant(9).encode(&mut bytes);
        put_zigzag(&mut bytes, 99); // default outside bounds
        put_zigzag(&mut bytes, 1);
        put_zigzag(&mut bytes, 0);
        put_zigzag(&mut bytes, 9);
        bytes.push(0); // trained_from: None
        put_varint(&mut bytes, 0);
        bytes.push(0); // session_token: None
        let err = from_bytes::<Response>(&bytes).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn deep_expression_nesting_is_bounded() {
        let mut bytes = vec![6u8; MAX_EXPR_DEPTH + 1]; // Neg( Neg( Neg( …
        bytes.push(0);
        put_zigzag(&mut bytes, 1);
        let err = from_bytes::<Expr>(&bytes).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }

    #[test]
    fn restricted_space_round_trips_with_expressions_intact() {
        let s = space();
        let bytes = to_bytes(&s);
        let back: ParameterSpace = from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.index_of("algo"), Some(2), "name index is rebuilt");
        assert!(back.is_restricted());
    }
}
