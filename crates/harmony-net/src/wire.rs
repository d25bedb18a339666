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
//! # Tables
//!
//! Every message and plain wire struct is one row in a table here: its
//! tag and its fields in wire order. `wire_enum!`/`wire_structs!` turn
//! the rows into [`WireEncode`]/[`WireDecode`] and the variant-name
//! lookups, and the compiler refuses a variant without a row, a row
//! missing or inventing a field, and a reused tag. Only the primitives,
//! the containers and the harmony-space types, whose decoders validate
//! through constructors, are written by hand. Encoding writes into a
//! caller-supplied `Vec<u8>` (the codec's pooled frame buffers);
//! decoding reads from a borrowed [`Reader`] and is total: every error
//! is a [`NetError::Protocol`], never a panic, however hostile the
//! bytes. Decoded lengths are bounded by the bytes actually present, so
//! a forged count cannot balloon memory.
//!
//! Decoding is canonical: bytes that decode re-encode to exactly
//! themselves, so a padded varint or an explicit `None` for a trailing
//! field is refused. `Traced` may not wrap `Traced`; the inner tag is
//! checked before decoding recurses.
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

    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
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
                // A zero last group is padding (`[0x80, 0x00]` reads as
                // 0, which encodes as `[0x00]`): every value has one
                // encoding.
                if byte == 0 && shift > 0 {
                    return Err(bad("varint has a redundant zero group"));
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
// Protocol messages, declared once. Each row names one variant, its tag
// and its fields in wire order; `wire_enum!` generates the codec and
// the variant-name lookups from the rows. The generated matches are
// exhaustive and their field patterns have no `..`, so a variant
// without a row, or a row missing or inventing a field, does not
// compile; neither does a reused tag (the decode match denies
// unreachable patterns). Tags are append-only and never reused: a
// retired variant's number stays unassigned.

/// How one field of a table row travels. A row names the codec after
/// `as`; a field that names none gets `()`, the field type's own
/// [`WireEncode`]/[`WireDecode`].
trait FieldCodec<T> {
    fn put(value: &T, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<T, NetError>;
}

impl<T: WireEncode + WireDecode> FieldCodec<T> for () {
    fn put(value: &T, out: &mut Vec<u8>) {
        value.encode(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<T, NetError> {
        T::decode(r)
    }
}

/// An optional field appended after v3 shipped, last in its row
/// (`SessionStart.engine`): `None` is no bytes at all, so those frames
/// are byte-identical to what encoders predating the field wrote, and a
/// payload that ends before the field decodes as `None`. `Some` is the
/// usual presence byte 1 and the value. A presence byte 0 is refused: it
/// would re-encode as nothing, and every payload has one encoding.
struct Trailing;

impl<T: WireEncode + WireDecode> FieldCodec<Option<T>> for Trailing {
    fn put(value: &Option<T>, out: &mut Vec<u8>) {
        if value.is_some() {
            value.encode(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Option<T>, NetError> {
        if r.remaining() == 0 {
            return Ok(None);
        }
        match r.u8()? {
            1 => Ok(Some(T::decode(r)?)),
            other => Err(bad(format!("trailing option byte {other}"))),
        }
    }
}

/// `Traced`'s inner request, which must be a bare one. The tag is checked
/// before decoding recurses, so a frame of nested wrappers costs one
/// level of stack, not one per wrapper.
struct Bare;

impl FieldCodec<Box<Request>> for Bare {
    fn put(value: &Box<Request>, out: &mut Vec<u8>) {
        value.encode(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Box<Request>, NetError> {
        if r.peek().and_then(Request::variant_of_tag) == Some("Traced") {
            return Err(bad("Traced may not wrap Traced"));
        }
        Box::decode(r)
    }
}

/// One table: `wire_enum!(Type { tag => Variant { field, … }, … })`.
/// A field is `name` or `name as Codec`; a unit variant has no braces.
/// A field's codec is spelled `($($codec)?)`: `()` or `(Codec)`, hence
/// the allowed parentheses.
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal => $variant:ident $({ $($field:ident $(as $codec:ident)?),* $(,)? })?),* $(,)?
    }) => {
        impl WireEncode for $ty {
            #[allow(unused_parens)]
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant { $($($field),*)? } => {
                        out.push($tag);
                        $($(<($($codec)?) as FieldCodec<_>>::put($field, out);)*)?
                    })*
                }
            }
        }

        impl WireDecode for $ty {
            #[allow(unused_parens)]
            #[deny(unreachable_patterns)]
            fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$variant {
                        $($($field: <($($codec)?) as FieldCodec<_>>::get(r)?),*)?
                    },)*
                    tag => {
                        let what = stringify!($ty).to_lowercase();
                        return Err(bad(format!("{what} tag {tag}")));
                    }
                })
            }
        }

        impl $ty {
            /// Every variant's name, in binary tag order.
            pub const VARIANTS: &'static [&'static str] = &[$(stringify!($variant)),*];

            /// This message's variant name.
            pub fn variant(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => stringify!($variant),)*
                }
            }

            /// The variant name a binary tag byte selects; `None` for an
            /// unassigned tag.
            pub fn variant_of_tag(tag: u8) -> Option<&'static str> {
                match tag {
                    $($tag => Some(stringify!($variant)),)*
                    _ => None,
                }
            }
        }
    };
}

wire_enum!(Request {
    0 => Hello { version, min_version, max_version, client },
    1 => SessionStart { space, label, characteristics, max_iterations, engine as Trailing },
    2 => Resume { token },
    3 => Fetch,
    4 => Report { performance, seq },
    5 => SessionEnd,
    6 => Sensitivity,
    7 => DbQuery,
    8 => Stats,
    9 => Traced { trace_id, parent_span, spans, request as Bare },
    10 => TraceDump,
    11 => PeerHello { node },
    // 12 is retired: it carried a run as a JSON line.
    13 => PeerShipSession { origin, session },
    14 => PeerDropSession { origin, token },
    15 => PeerShipStep { token, iteration, next_seq, values, performance },
    16 => PeerShipRun { origin, seq, run },
});

wire_enum!(Response {
    0 => Hello { version, server },
    1 => SessionStarted { space, trained_from, training_iterations, session_token },
    2 => Resumed { iteration, next_seq, done },
    3 => Draining,
    4 => Config { values, iteration },
    5 => Done,
    6 => Reported,
    7 => SessionSummary { values, performance, iterations, converged },
    8 => Sensitivity { entries },
    9 => Runs { runs },
    10 => Stats { text },
    11 => TraceDump { traces },
    12 => Error { message },
    13 => NotMine { owner },
    14 => PeerOk,
});

/// The variant name of a binary-encoded [`Response`] payload, read from
/// its tag byte alone — the binary analogue of scanning JSON for the
/// externally-tagged variant name. `None` for an empty or unknown tag.
pub fn response_wire_kind(payload: &[u8]) -> Option<&'static str> {
    Response::variant_of_tag(*payload.first()?)
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
// Wire structs: their fields in declaration order, one row each.

/// `wire_structs! { Type { field, … } … }`: fields in wire order, every
/// field named (the patterns have no `..`).
macro_rules! wire_structs {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl WireEncode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let $ty { $($field),* } = self;
                $($field.encode(out);)*
            }
        }

        impl WireDecode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
                Ok($ty { $($field: WireDecode::decode(r)?),* })
            }
        }
    )*};
}

wire_structs! {
    WireSpan { id, parent, stage, detail, start_us, end_us, error }
    WireTrace { trace_id, complete, spans }
    RunSummary { label, characteristics, records, best_performance }
    RunHistory { label, characteristics, records }
    TuningRecord { values, performance }
    SensitivityEntry { index, name, sensitivity, best_value }
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

    /// One message per `Request` variant (both `SessionStart` shapes),
    /// each with the bytes the codec produced when it was written by
    /// hand. Tags and field order are frozen once shipped: any change
    /// here is a wire break, not a refactor.
    fn golden_requests() -> Vec<(Request, &'static str)> {
        let span = WireSpan {
            id: 9,
            parent: 7,
            stage: "eval".into(),
            detail: "round 3".into(),
            start_us: 100,
            end_us: 250,
            error: true,
        };
        let session_start = |engine| Request::SessionStart {
            space: SpaceSpec::Explicit(space()),
            label: "w".into(),
            characteristics: vec![0.25, -0.75],
            max_iterations: Some(40),
            engine,
        };
        vec![
            (
                Request::Hello {
                    version: None,
                    min_version: Some(1),
                    max_version: Some(3),
                    client: "c".into(),
                },
                "0000010101030163",
            ),
            (
                session_start(None),
                concat!(
                    "0101030005636163686500020080011002028001000143000208000203001201",
                    "056361636865020402120104616c676f02046865617005717569636b01017702",
                    "000000000000d03f000000000000e8bf0128",
                ),
            ),
            (
                session_start(Some("tuneful".into())),
                concat!(
                    "0101030005636163686500020080011002028001000143000208000203001201",
                    "056361636865020402120104616c676f02046865617005717569636b01017702",
                    "000000000000d03f000000000000e8bf0128010774756e6566756c",
                ),
            ),
            (
                Request::Resume {
                    token: "s-42".into(),
                },
                "0204732d3432",
            ),
            (Request::Fetch, "03"),
            (
                Request::Report {
                    performance: -3.5,
                    seq: Some(300),
                },
                "040000000000000cc001ac02",
            ),
            (Request::SessionEnd, "05"),
            (Request::Sensitivity, "06"),
            (Request::DbQuery, "07"),
            (Request::Stats, "08"),
            (
                Request::Traced {
                    trace_id: u64::MAX,
                    parent_span: 7,
                    spans: vec![span],
                    request: Box::new(Request::Report {
                        performance: 1.5,
                        seq: None,
                    }),
                },
                concat!(
                    "09ffffffffffffffffff0107010907046576616c07726f756e64203364fa0101",
                    "04000000000000f83f00",
                ),
            ),
            (Request::TraceDump, "0a"),
            (Request::PeerHello { node: "n1".into() }, "0b026e31"),
            (
                Request::PeerShipSession {
                    origin: "n1".into(),
                    session: "{}".into(),
                },
                "0d026e31027b7d",
            ),
            (
                Request::PeerDropSession {
                    origin: "n1".into(),
                    token: "t".into(),
                },
                "0e026e310174",
            ),
            (
                peer_step(),
                "0f0668732d312d310708031c0bffffffffffffffffff019a9999999999b9bf",
            ),
            (
                peer_run(),
                concat!(
                    "100e3132372e302e302e313a373730312a017702000000000000d03f00000000",
                    "0000e8bf02021c0c0000000000006940020500343333333333d33f",
                ),
            ),
        ]
    }

    /// The `Response` twin of [`golden_requests`].
    fn golden_responses() -> Vec<(Response, &'static str)> {
        vec![
            (
                Response::Hello {
                    version: 3,
                    server: "h".into(),
                },
                "00030168",
            ),
            (
                Response::SessionStarted {
                    space: space(),
                    trained_from: Some("monday".into()),
                    training_iterations: 17,
                    session_token: Some("hs-1-1".into()),
                },
                concat!(
                    "0103000563616368650002008001100202800100014300020800020300120105",
                    "6361636865020402120104616c676f02046865617005717569636b0101066d6f",
                    "6e64617911010668732d312d31",
                ),
            ),
            (
                Response::Resumed {
                    iteration: 7,
                    next_seq: 9,
                    done: true,
                },
                "02070901",
            ),
            (Response::Draining, "03"),
            (
                Response::Config {
                    values: vec![3, -1, 4],
                    iteration: 2,
                },
                "040306010802",
            ),
            (Response::Done, "05"),
            (Response::Reported, "06"),
            (
                Response::SessionSummary {
                    values: vec![-2, 5],
                    performance: 15.9,
                    iterations: 26,
                    converged: true,
                },
                "0702030acdcccccccccc2f401a01",
            ),
            (
                Response::Sensitivity {
                    entries: vec![SensitivityEntry {
                        index: 1,
                        name: "C".into(),
                        sensitivity: 0.25,
                        best_value: -7,
                    }],
                },
                "0801010143000000000000d03f0d",
            ),
            (
                Response::Runs {
                    runs: vec![RunSummary {
                        label: "r".into(),
                        characteristics: vec![1.0],
                        records: 3,
                        best_performance: Some(2.0),
                    }],
                },
                "0901017201000000000000f03f03010000000000000040",
            ),
            (
                Response::Stats {
                    text: "x 1\n".into(),
                },
                "0a047820310a",
            ),
            (
                Response::TraceDump {
                    traces: vec![WireTrace {
                        trace_id: 3,
                        complete: false,
                        spans: vec![WireSpan {
                            id: 1,
                            parent: 0,
                            stage: "session".into(),
                            detail: String::new(),
                            start_us: 0,
                            end_us: 10,
                            error: false,
                        }],
                    }],
                },
                "0b0103000101000773657373696f6e00000a00",
            ),
            (
                Response::Error {
                    message: "no".into(),
                },
                "0c026e6f",
            ),
            (Response::NotMine { owner: "n2".into() }, "0d026e32"),
            (Response::PeerOk, "0e"),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every variant and every wire struct, byte for byte: both halves
    /// of the codec are checked against the pinned bytes, not only
    /// against each other.
    #[test]
    fn every_variant_encodes_to_its_pinned_bytes() {
        for (msg, golden) in golden_requests() {
            let bytes = to_bytes(&msg);
            assert_eq!(hex(&bytes), golden, "{msg:?}");
            assert_eq!(from_bytes::<Request>(&bytes).unwrap(), msg);
        }
        for (msg, golden) in golden_responses() {
            let bytes = to_bytes(&msg);
            assert_eq!(hex(&bytes), golden, "{msg:?}");
            assert_eq!(from_bytes::<Response>(&bytes).unwrap(), msg);
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
        // bools, varints and options, nested `Traced`, trailing garbage:
        // all must come back as Protocol errors.
        let mut engine_none = to_bytes(&Request::SessionStart {
            space: SpaceSpec::Rsl("{ harmonyBundle x { int {0 9 1} }}".into()),
            label: "w".into(),
            characteristics: vec![],
            max_iterations: None,
            engine: None,
        });
        engine_none.push(0); // an explicit `None` re-encodes as nothing
        let nested = |depth: usize| {
            let mut bytes = [9u8, 0, 0, 0].repeat(depth);
            bytes.push(3);
            bytes
        };
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![99],                                       // unknown request tag
            vec![0, 2],                                     // Hello with a bad option byte
            vec![1, 0, 255, 255, 255, 1],                   // SessionStart, huge RSL length
            vec![2, 3, 0xff, 0xfe, 0xfd],                   // Resume with invalid UTF-8
            vec![4, 0, 0, 0, 0, 0, 0, 0, 0, 7], // Report with bool byte 7 for the Option
            vec![3, 0],                         // Fetch with a trailing byte
            vec![4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0x85, 0x00], // Report, seq 5 padded
            engine_none,
            nested(2),
            nested(100_000), // refused before decoding recurses
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

    /// The deepest expression the binary decoder accepts still fits in a
    /// JSON frame under the parser's nesting cap, inside the deepest
    /// message that carries a space: a traced `SessionStart`.
    #[test]
    fn the_deepest_expression_fits_the_json_nesting_cap() {
        let mut deep = Expr::constant(1);
        for _ in 1..MAX_EXPR_DEPTH {
            deep = Expr::Add(Box::new(deep), Box::new(Expr::constant(1)));
        }
        let space = ParameterSpace::builder()
            .param(ParamDef::restricted(
                "deep",
                Expr::constant(1),
                deep,
                1,
                1,
                1,
                99,
            ))
            .build()
            .unwrap();
        round_trip(&space);
        let msg = Request::Traced {
            trace_id: 1,
            parent_span: 2,
            spans: vec![],
            request: Box::new(Request::SessionStart {
                space: SpaceSpec::Explicit(space),
                label: "deep".into(),
                characteristics: vec![],
                max_iterations: None,
                engine: Some("simplex".into()),
            }),
        };
        // JSON skips the space's name index, so compare re-encoded text.
        let json = serde_json::to_string(&msg).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        round_trip(&msg);
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
