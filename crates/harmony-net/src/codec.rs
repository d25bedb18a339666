//! Framing: `u32` big-endian length prefix, then that many payload
//! bytes — JSON for protocols 1–2, the [`crate::wire`] binary encoding
//! for protocol 3. The `_as` function family takes a [`WireFormat`] and
//! is what the server, reactor, and client call once a connection has
//! negotiated; [`write_frame`] / [`read_frame`] are the same functions
//! pinned to JSON, for callers that speak raw pre-negotiation frames.
//!
//! Length-prefixing keeps the reader trivial (no scanning for
//! delimiters, no JSON-aware buffering) and makes oversized or garbage
//! input detectable before any parsing happens.
//!
//! The hot paths are allocation-conscious: writers assemble header and
//! payload in one buffer and issue a **single** `write_all` (one
//! syscall per frame instead of two), readers decode straight from the
//! receive buffer with [`serde_json::from_slice`] (UTF-8 validated in
//! place, no owned `String` copy), and the `_buf` variants reuse a
//! caller-held scratch buffer so a long-lived connection stops
//! allocating once its buffer has grown to the workload's frame size.
//! Pooled scratch is bounded by [`clamp_scratch`]: a buffer that one
//! huge frame (say a `TraceDump`) grew past [`SCRATCH_CLAMP`] is shrunk
//! before reuse, so the outlier doesn't pin its high-water mark on
//! every connection forever.
//! A frame's length prefix is untrusted input: the reader allocates at
//! most [`READ_CHUNK`] up front and grows as bytes actually arrive, so
//! a hostile 16 MiB header cannot balloon memory by itself.

use crate::obs;
use crate::wire::{WireDecode, WireEncode};
use crate::NetError;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

pub use crate::wire::WireFormat;

/// Refuse frames larger than this (16 MiB) — nothing in the protocol
/// comes close, so a bigger prefix means a confused or hostile peer.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Upper bound on the *initial* payload allocation (64 KiB). The buffer
/// grows chunk by chunk as payload bytes arrive, so memory tracks what
/// the peer actually sent rather than what its header promised.
pub const READ_CHUNK: usize = 64 * 1024;

/// Append `msg` to `out` as one length-prefixed JSON frame (header and
/// payload contiguous), returning the payload length.
fn append_json_frame<T: Serialize>(msg: &T, out: &mut Vec<u8>) -> Result<usize, NetError> {
    let payload = serde_json::to_string(msg).map_err(|e| NetError::Protocol(e.to_string()))?;
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(NetError::Protocol(format!(
            "outgoing frame of {} bytes exceeds the {} byte limit",
            payload.len(),
            MAX_FRAME_LEN
        )));
    }
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    Ok(payload.len())
}

/// Serialize `msg` as JSON and write it as one frame.
pub fn write_frame<W: Write, T: Serialize + WireEncode>(
    w: &mut W,
    msg: &T,
) -> Result<(), NetError> {
    write_frame_buf_as(w, WireFormat::Json, msg, &mut Vec::new())
}

/// Pooled scratch buffers (connection read/write scratch, the reactor's
/// per-connection response pool, the client's frame buffer) are shrunk
/// back to zero capacity before reuse once they grow past this (64 KiB,
/// mirroring [`READ_CHUNK`]). Steady-state tuning frames are tens to
/// hundreds of bytes, so the clamp never fires for them; it only stops
/// a one-off giant frame from pinning megabytes per connection.
pub const SCRATCH_CLAMP: usize = 64 * 1024;

/// Clear `buf` for reuse, releasing its allocation if a previous frame
/// grew it past [`SCRATCH_CLAMP`].
pub fn clamp_scratch(buf: &mut Vec<u8>) {
    buf.clear();
    if buf.capacity() > SCRATCH_CLAMP {
        buf.shrink_to(SCRATCH_CLAMP);
    }
}

/// Serialize `msg` into `out` as one length-prefixed frame in the given
/// wire format. `out` is cleared first; its capacity is reused.
pub fn encode_frame_as<T: Serialize + WireEncode>(
    format: WireFormat,
    msg: &T,
    out: &mut Vec<u8>,
) -> Result<(), NetError> {
    out.clear();
    append_frame_as(format, msg, out)
}

/// Append `msg` to `out` as one length-prefixed frame in the given wire
/// format, after whatever `out` already holds — how a client puts two
/// requests in one write. This is the single counting site for the
/// frame-format metrics: every frame that goes through a format-aware
/// path (server, reactor, v3-capable client) lands here.
pub fn append_frame_as<T: Serialize + WireEncode>(
    format: WireFormat,
    msg: &T,
    out: &mut Vec<u8>,
) -> Result<(), NetError> {
    match format {
        WireFormat::Json => {
            let payload = append_json_frame(msg, out)?;
            obs::frame_bytes_json_total().add(payload as u64);
        }
        WireFormat::Binary => {
            let start = out.len();
            out.extend_from_slice(&[0u8; 4]);
            msg.encode(out);
            let payload = out.len() - start - 4;
            if payload as u64 > MAX_FRAME_LEN as u64 {
                out.truncate(start);
                return Err(NetError::Protocol(format!(
                    "outgoing frame of {payload} bytes exceeds the {MAX_FRAME_LEN} byte limit"
                )));
            }
            let header = (payload as u32).to_be_bytes();
            out[start..start + 4].copy_from_slice(&header);
            obs::frames_binary_total().inc();
            obs::frame_bytes_binary_total().add(payload as u64);
        }
    }
    Ok(())
}

/// Serialize `msg` in the given wire format and write it as one frame
/// with a single `write_all`, reusing `scratch` for the frame bytes: a
/// steady-state connection assembles every outgoing frame in the same
/// allocation.
pub fn write_frame_buf_as<W: Write, T: Serialize + WireEncode>(
    w: &mut W,
    format: WireFormat,
    msg: &T,
    scratch: &mut Vec<u8>,
) -> Result<(), NetError> {
    encode_frame_as(format, msg, scratch)?;
    w.write_all(scratch)?;
    w.flush()?;
    Ok(())
}

/// Read one frame and decode it in the given wire format, reusing
/// `scratch` as the receive buffer: the payload is read into it
/// (clamped-chunk growth) and decoded in place.
///
/// A clean disconnect (EOF before any header byte) surfaces as an
/// [`NetError::Io`] with `UnexpectedEof` — check
/// [`NetError::is_disconnect`].
pub fn read_frame_buf_as<R: Read, T: Deserialize + WireDecode>(
    r: &mut R,
    format: WireFormat,
    scratch: &mut Vec<u8>,
) -> Result<T, NetError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = check_len(u32::from_be_bytes(header))?;
    scratch.clear();
    let mut filled = 0;
    while filled < len {
        let target = len.min(filled + READ_CHUNK);
        scratch.resize(target, 0);
        r.read_exact(&mut scratch[filled..target])?;
        filled = target;
    }
    decode_payload_as(format, &scratch[..len])
}

/// Decode one frame payload in the given wire format.
pub(crate) fn decode_payload_as<T: Deserialize + WireDecode>(
    format: WireFormat,
    payload: &[u8],
) -> Result<T, NetError> {
    match format {
        // UTF-8 validated in place, no copy.
        WireFormat::Json => serde_json::from_slice(payload)
            .map_err(|e| NetError::Protocol(format!("bad frame: {e}"))),
        WireFormat::Binary => crate::wire::from_bytes(payload),
    }
}

/// What [`try_decode_frame`] found at the front of a receive buffer.
#[derive(Debug)]
pub enum FrameOutcome<T> {
    /// Not enough bytes yet for a whole frame; read more and retry.
    Incomplete,
    /// One complete frame occupied the first `consumed` bytes. `result`
    /// carries the decoded message, or the protocol error if its
    /// payload was garbage — either way the frame boundary is known, so
    /// the caller can drain those bytes and report the error in-band.
    Frame {
        /// The decoded message, or why the payload didn't parse.
        result: Result<T, NetError>,
        /// Total bytes (header + payload) this frame occupied.
        consumed: usize,
    },
}

/// Try to decode one length-prefixed frame from the front of `buf`
/// without blocking. An `Err` return means the header itself is
/// unusable (oversized length prefix) and the connection can't recover;
/// a malformed payload inside a well-framed message comes back as
/// `FrameOutcome::Frame { result: Err(..), .. }` instead.
pub fn try_decode_frame<T: Deserialize + WireDecode>(
    format: WireFormat,
    buf: &[u8],
) -> Result<FrameOutcome<T>, NetError> {
    if buf.len() < 4 {
        return Ok(FrameOutcome::Incomplete);
    }
    let len = check_len(u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]))?;
    if buf.len() < 4 + len {
        return Ok(FrameOutcome::Incomplete);
    }
    Ok(FrameOutcome::Frame {
        result: decode_payload_as(format, &buf[4..4 + len]),
        consumed: 4 + len,
    })
}

/// Validate a frame length against [`MAX_FRAME_LEN`].
pub(crate) fn check_len(len: u32) -> Result<usize, NetError> {
    if len > MAX_FRAME_LEN {
        return Err(NetError::Protocol(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte limit"
        )));
    }
    Ok(len as usize)
}

/// Read one JSON frame and deserialize it.
pub fn read_frame<R: Read, T: Deserialize + WireDecode>(r: &mut R) -> Result<T, NetError> {
    read_frame_buf_as(r, WireFormat::Json, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, SpaceSpec};
    use std::io::Cursor;

    fn round_trip(msg: &Request) -> Request {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        let messages = [
            Request::Hello {
                version: Some(1),
                min_version: None,
                max_version: None,
                client: "test".into(),
            },
            Request::SessionStart {
                space: SpaceSpec::Rsl("{ harmonyBundle x { int {0 9 1} }}".into()),
                label: "w".into(),
                characteristics: vec![0.25, 0.75],
                max_iterations: Some(40),
                engine: None,
            },
            Request::Fetch,
            Request::Report {
                performance: -3.5,
                seq: Some(4),
            },
            Request::SessionEnd,
            Request::Sensitivity,
            Request::DbQuery,
        ];
        for msg in &messages {
            assert_eq!(&round_trip(msg), msg);
        }
    }

    #[test]
    fn multiple_frames_in_one_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Fetch).unwrap();
        write_frame(
            &mut buf,
            &Request::Report {
                performance: 1.0,
                seq: None,
            },
        )
        .unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            Request::Fetch
        );
        assert_eq!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            Request::Report {
                performance: 1.0,
                seq: None,
            }
        );
    }

    #[test]
    fn frame_is_one_contiguous_buffer() {
        // Header and payload come out of a single write: a writer that
        // counts calls sees exactly one.
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, &Request::Fetch).unwrap();
        assert_eq!(w.writes, 1, "header+payload must coalesce");
        let got: Request = read_frame(&mut Cursor::new(w.bytes)).unwrap();
        assert_eq!(got, Request::Fetch);
    }

    #[test]
    fn buffered_variants_reuse_scratch_and_round_trip() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        write_frame_buf_as(&mut wire, WireFormat::Json, &Request::Fetch, &mut scratch).unwrap();
        write_frame_buf_as(
            &mut wire,
            WireFormat::Json,
            &Request::Report {
                performance: 2.5,
                seq: None,
            },
            &mut scratch,
        )
        .unwrap();
        let mut cursor = Cursor::new(wire);
        let mut rbuf = Vec::new();
        assert_eq!(
            read_frame_buf_as::<_, Request>(&mut cursor, WireFormat::Json, &mut rbuf).unwrap(),
            Request::Fetch
        );
        assert_eq!(
            read_frame_buf_as::<_, Request>(&mut cursor, WireFormat::Json, &mut rbuf).unwrap(),
            Request::Report {
                performance: 2.5,
                seq: None,
            }
        );
    }

    #[test]
    fn large_frame_crosses_the_chunk_boundary() {
        // > READ_CHUNK of payload exercises the grow-while-reading path.
        let big = "x".repeat(READ_CHUNK + 1234);
        let msg = Request::SessionStart {
            space: SpaceSpec::Rsl(big),
            label: "big".into(),
            characteristics: vec![],
            max_iterations: None,
            engine: None,
        };
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        buf.extend_from_slice(b"ignored");
        let err = read_frame::<_, Request>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn huge_header_with_no_payload_fails_without_ballooning() {
        // A legal-but-huge header followed by nothing: the reader must
        // hit EOF after at most one chunk, never having resized to the
        // promised 16 MiB.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_FRAME_LEN.to_be_bytes());
        let mut scratch = Vec::new();
        let err =
            read_frame_buf_as::<_, Request>(&mut Cursor::new(buf), WireFormat::Json, &mut scratch)
                .unwrap_err();
        assert!(err.is_disconnect(), "{err}");
        assert!(
            scratch.capacity() <= 2 * READ_CHUNK,
            "allocated {} bytes for a payload that never arrived",
            scratch.capacity()
        );
    }

    #[test]
    fn empty_stream_reads_as_disconnect() {
        let err = read_frame::<_, Request>(&mut Cursor::new(Vec::new())).unwrap_err();
        assert!(err.is_disconnect(), "{err}");
    }

    #[test]
    fn garbage_payload_is_a_protocol_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(b"%%%%%");
        let err = read_frame::<_, Request>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn binary_frames_round_trip_through_the_format_aware_path() {
        let msg = Request::Report {
            performance: 2.25,
            seq: Some(9),
        };
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        write_frame_buf_as(&mut wire, WireFormat::Binary, &msg, &mut scratch).unwrap();
        let got: Request =
            read_frame_buf_as(&mut Cursor::new(&wire), WireFormat::Binary, &mut scratch).unwrap();
        assert_eq!(got, msg);
        // The same bytes are gibberish to a JSON reader — the formats
        // really are distinct on the wire.
        let err = read_frame_buf_as::<_, Request>(
            &mut Cursor::new(&wire),
            WireFormat::Json,
            &mut scratch,
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn try_decode_frame_reports_incomplete_then_the_frame() {
        let mut frame = Vec::new();
        encode_frame_as(WireFormat::Binary, &Request::Fetch, &mut frame).unwrap();
        for cut in 0..frame.len() {
            match try_decode_frame::<Request>(WireFormat::Binary, &frame[..cut]).unwrap() {
                FrameOutcome::Incomplete => {}
                other => panic!("{cut} bytes decoded as {other:?}"),
            }
        }
        // The whole frame, plus the start of a next one: only the first
        // frame's bytes are consumed.
        let mut stream = frame.clone();
        stream.extend_from_slice(&[0, 0]);
        match try_decode_frame::<Request>(WireFormat::Binary, &stream).unwrap() {
            FrameOutcome::Frame { result, consumed } => {
                assert_eq!(result.unwrap(), Request::Fetch);
                assert_eq!(consumed, frame.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn appended_frames_decode_one_after_the_other() {
        let report = Request::Report {
            performance: 1.5,
            seq: Some(3),
        };
        for format in [WireFormat::Json, WireFormat::Binary] {
            let mut out = Vec::new();
            encode_frame_as(format, &report, &mut out).unwrap();
            append_frame_as(format, &Request::Fetch, &mut out).unwrap();
            let FrameOutcome::Frame { result, consumed } =
                try_decode_frame::<Request>(format, &out).unwrap()
            else {
                panic!("{format:?}: the first frame is whole");
            };
            assert_eq!(result.unwrap(), report);
            match try_decode_frame::<Request>(format, &out[consumed..]).unwrap() {
                FrameOutcome::Frame {
                    result,
                    consumed: rest,
                } => {
                    assert_eq!(result.unwrap(), Request::Fetch);
                    assert_eq!(consumed + rest, out.len());
                }
                other => panic!("{format:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn try_decode_frame_keeps_the_boundary_on_a_bad_payload() {
        // Well-framed garbage: the outcome is a recoverable in-frame
        // error with the boundary intact, not a connection-fatal Err.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe, 0xfd]);
        match try_decode_frame::<Request>(WireFormat::Binary, &buf).unwrap() {
            FrameOutcome::Frame { result, consumed } => {
                assert!(matches!(result.unwrap_err(), NetError::Protocol(_)));
                assert_eq!(consumed, 7);
            }
            other => panic!("{other:?}"),
        }
        // An oversized header, by contrast, is fatal.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        assert!(try_decode_frame::<Request>(WireFormat::Json, &huge).is_err());
    }

    #[test]
    fn clamp_scratch_releases_oversized_buffers_only() {
        let mut small = Vec::with_capacity(512);
        small.extend_from_slice(&[7u8; 100]);
        clamp_scratch(&mut small);
        assert!(small.is_empty());
        assert!(small.capacity() >= 512, "small buffers keep their capacity");

        let mut big = vec![0u8; SCRATCH_CLAMP * 4];
        clamp_scratch(&mut big);
        assert!(big.is_empty());
        assert!(
            big.capacity() <= SCRATCH_CLAMP,
            "a {}-byte buffer survived the clamp",
            big.capacity()
        );
    }
}
