//! Versioned, checksummed, length-prefixed frames — the transport unit
//! every persisted snapshot and every coordinator⇄worker message travels
//! in.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +------+---------+------+---------+-----------+-------------+
//! | AFDW | version | kind | payload | payload   | checksum    |
//! | 4 B  | u16     | u8   | len u32 | len bytes | u64 FNV-1a  |
//! +------+---------+------+---------+-----------+-------------+
//! ```
//!
//! The checksum is FNV-1a over everything before it (magic through
//! payload), so a bit flip anywhere in the frame — header or body — is
//! caught before the payload is handed to a [`crate::Decode`]
//! implementation. `kind` is a one-byte message discriminator owned by
//! the protocol layered on top (snapshots, worker requests/responses);
//! the frame layer carries it opaquely.

use std::io::{Read, Write};

use crate::codec::{Decode, Encode, Reader};
use crate::error::DecodeError;

/// The frame magic.
pub const MAGIC: [u8; 4] = *b"AFDW";

/// The single wire version this build reads and writes. Bump on any
/// layout change; decoders reject every other version with
/// [`DecodeError::UnsupportedVersion`].
pub const WIRE_VERSION: u16 = 1;

/// Bytes before the payload: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;

/// Total framing bytes around a payload: the header plus the trailing
/// FNV-1a checksum. `framed size == FRAME_OVERHEAD + payload.encoded_len()`
/// — what snapshot sizing uses to account for a frame without encoding
/// it.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 8;

/// Hard cap on a single frame's payload (256 MiB). A corrupt or hostile
/// length beyond it is rejected before any allocation.
pub const MAX_PAYLOAD: usize = 256 << 20;

// ---------------------------------------------------------------------
// Frame-kind registry
//
// The frame layer carries `kind` opaquely, but the one-byte namespace is
// shared by every protocol built on these frames, so the registry lives
// here: 1–3 are the shard-worker protocol (`afd_stream::wire`), 4–5 the
// registry manifest ([`crate::manifest`]), 6–7 the serve front door.

/// Frame kind of a request to a serving front door (`afd-serve`'s
/// socket protocol, client → server).
pub const KIND_SERVE_REQUEST: u8 = 6;
/// Frame kind of a serving front door's reply (server → client). Every
/// request frame is answered by exactly one response frame.
pub const KIND_SERVE_RESPONSE: u8 = 7;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds more bytes into a running FNV-1a state — the streaming form,
/// so multi-buffer frames hash without concatenation.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` — the frame checksum. Stable across platforms and
/// processes (unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Appends one frame of `kind` around `payload` to `out`.
///
/// # Errors
/// [`DecodeError::BadLength`] when `payload` exceeds [`MAX_PAYLOAD`] —
/// a larger frame would encode "successfully" but be rejected by every
/// reader (and a > 4 GiB payload would wrap its `u32` length), so the
/// writer refuses up front instead of producing an unreadable blob.
pub fn write_frame(kind: u8, payload: &[u8], out: &mut Vec<u8>) -> Result<(), DecodeError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(DecodeError::BadLength {
            what: "frame payload",
            len: payload.len() as u64,
            budget: MAX_PAYLOAD as u64,
        });
    }
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Encodes `value` and frames it in one step.
///
/// # Errors
/// As [`write_frame`]: the encoded value must fit [`MAX_PAYLOAD`].
pub fn encode_framed<T: Encode>(kind: u8, value: &T) -> Result<Vec<u8>, DecodeError> {
    let payload = value.encode_to_vec();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    write_frame(kind, &payload, &mut out)?;
    Ok(out)
}

/// Parses one frame at the start of `buf`, returning
/// `(kind, payload, bytes consumed)`.
///
/// # Errors
/// [`DecodeError::BadMagic`] / [`DecodeError::UnsupportedVersion`] /
/// [`DecodeError::BadLength`] / [`DecodeError::Truncated`] /
/// [`DecodeError::Checksum`].
pub fn read_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), DecodeError> {
    let mut r = Reader::new(buf);
    let magic: [u8; 4] = r.take_array()?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic { got: magic });
    }
    let version = u16::decode(&mut r)?;
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            got: version,
            supported: WIRE_VERSION,
        });
    }
    let kind = u8::decode(&mut r)?;
    let len = u32::decode(&mut r)? as usize;
    if len > MAX_PAYLOAD {
        return Err(DecodeError::BadLength {
            what: "frame payload",
            len: len as u64,
            budget: MAX_PAYLOAD as u64,
        });
    }
    let payload = r.take(len)?;
    let got = u64::decode(&mut r)?;
    let expected = fnv1a(&buf[..HEADER_LEN + len]);
    if got != expected {
        return Err(DecodeError::Checksum { expected, got });
    }
    Ok((kind, payload, HEADER_LEN + len + 8))
}

/// Unframes and decodes a value of the expected `kind` spanning `buf`
/// exactly.
///
/// # Errors
/// As [`read_frame`], plus [`DecodeError::UnknownMessage`] on a kind
/// mismatch, [`DecodeError::TrailingBytes`] on extra bytes, and the
/// payload's own decode errors.
pub fn decode_framed<T: Decode>(kind: u8, buf: &[u8]) -> Result<T, DecodeError> {
    let (got_kind, payload, consumed) = read_frame(buf)?;
    if got_kind != kind {
        return Err(DecodeError::UnknownMessage { kind: got_kind });
    }
    if consumed != buf.len() {
        return Err(DecodeError::TrailingBytes {
            extra: buf.len() - consumed,
        });
    }
    T::decode_exact(payload)
}

/// Writes one frame to a byte sink (the process-shard transport).
///
/// # Errors
/// [`FrameReadError::Decode`] for an oversized payload
/// ([`MAX_PAYLOAD`]), [`FrameReadError::Io`] from the sink.
pub fn write_frame_to(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), FrameReadError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    write_frame(kind, payload, &mut buf)?;
    Ok(w.write_all(&buf)?)
}

/// One frame read off a byte stream.
#[derive(Debug)]
pub enum StreamFrame {
    /// A verified frame: its kind byte and payload.
    Frame(u8, Vec<u8>),
    /// The stream ended cleanly at a frame boundary.
    Eof,
}

/// Errors of the streaming frame reader.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed (or ended mid-frame).
    Io(std::io::Error),
    /// The bytes arrived but are not a valid frame.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame transport: {e}"),
            FrameReadError::Decode(e) => write!(f, "frame decode: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<DecodeError> for FrameReadError {
    fn from(e: DecodeError) -> Self {
        FrameReadError::Decode(e)
    }
}

impl From<std::io::Error> for FrameReadError {
    fn from(e: std::io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

/// The most payload [`read_frame_from`] reads (and allocates) ahead of
/// the bytes that have arrived.
const READ_STEP: usize = 64 << 10;

/// Reads one frame off a byte stream; [`StreamFrame::Eof`] on a clean
/// end-of-stream at a frame boundary. The payload buffer grows by at
/// most 64 KiB per read, so memory follows the bytes received, not the
/// length the header announces.
///
/// # Errors
/// [`FrameReadError::Io`] on transport failure or mid-frame EOF,
/// [`FrameReadError::Decode`] on header/checksum corruption.
pub fn read_frame_from(r: &mut impl Read) -> Result<StreamFrame, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    // A clean EOF before any header byte is a normal shutdown.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(StreamFrame::Eof),
            0 => {
                return Err(FrameReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("stream ended {filled} bytes into a frame header"),
                )))
            }
            n => filled += n,
        }
    }
    let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic { got: magic }.into());
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            got: version,
            supported: WIRE_VERSION,
        }
        .into());
    }
    let kind = header[6];
    let len = u32::from_le_bytes(header[7..11].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(DecodeError::BadLength {
            what: "frame payload",
            len: len as u64,
            budget: MAX_PAYLOAD as u64,
        }
        .into());
    }
    // Grow the buffer as bytes arrive, so a peer that announces a huge
    // frame and sends little of it cannot make us allocate the whole
    // announced length up front.
    let mut payload = Vec::with_capacity(len.min(READ_STEP));
    while payload.len() < len {
        let start = payload.len();
        payload.resize(start + (len - start).min(READ_STEP), 0);
        r.read_exact(&mut payload[start..])?;
    }
    let mut sum_bytes = [0u8; 8];
    r.read_exact(&mut sum_bytes)?;
    let got = u64::from_le_bytes(sum_bytes);
    // Stream the hash over header then payload — no concatenated copy.
    let expected = fnv1a_extend(fnv1a(&header), &payload);
    if got != expected {
        return Err(DecodeError::Checksum { expected, got }.into());
    }
    Ok(StreamFrame::Frame(kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let frame = encode_framed(7, &vec![1u64, 2, 3]).unwrap();
        let (kind, payload, consumed) = read_frame(&frame).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(consumed, frame.len());
        assert_eq!(Vec::<u64>::decode_exact(payload).unwrap(), vec![1, 2, 3]);
        assert_eq!(decode_framed::<Vec<u64>>(7, &frame).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let frame = encode_framed(1, &String::from("payload under test")).unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_framed::<String>(1, &corrupt).is_err(),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncation_and_trailing_are_errors() {
        let frame = encode_framed(1, &42u64).unwrap();
        for cut in 0..frame.len() {
            assert!(read_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            decode_framed::<u64>(1, &long),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));
        assert!(matches!(
            decode_framed::<u64>(2, &frame),
            Err(DecodeError::UnknownMessage { kind: 1 })
        ));
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut frame = encode_framed(1, &1u8).unwrap();
        frame[0] = b'X';
        assert!(matches!(
            read_frame(&frame),
            Err(DecodeError::BadMagic { .. })
        ));
        let mut frame = encode_framed(1, &1u8).unwrap();
        frame[4] = 0xfe;
        frame[5] = 0xff;
        assert!(matches!(
            read_frame(&frame),
            Err(DecodeError::UnsupportedVersion { got: 0xfffe, .. })
        ));
    }

    #[test]
    fn stream_reader_roundtrip_and_eof() {
        let mut bytes = encode_framed(3, &String::from("one")).unwrap();
        bytes.extend(encode_framed(4, &String::from("two")).unwrap());
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame_from(&mut cursor).unwrap() {
            StreamFrame::Frame(3, p) => assert_eq!(String::decode_exact(&p).unwrap(), "one"),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame_from(&mut cursor).unwrap() {
            StreamFrame::Frame(4, p) => assert_eq!(String::decode_exact(&p).unwrap(), "two"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            read_frame_from(&mut cursor).unwrap(),
            StreamFrame::Eof
        ));
    }

    #[test]
    fn oversized_payload_is_refused_at_write_time() {
        let huge = vec![0u8; MAX_PAYLOAD + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(1, &huge, &mut out),
            Err(DecodeError::BadLength { .. })
        ));
        assert!(out.is_empty(), "nothing half-written");
    }

    #[test]
    fn stream_reader_mid_frame_eof_is_io_error() {
        let frame = encode_framed(1, &7u64).unwrap();
        let mut cursor = std::io::Cursor::new(&frame[..frame.len() - 3]);
        assert!(matches!(
            read_frame_from(&mut cursor),
            Err(FrameReadError::Io(_))
        ));
    }

    /// A stream that records the largest buffer any `read` was asked to
    /// fill.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest_ask: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn announced_length_is_not_read_ahead_of_the_bytes() {
        // A header announcing the largest legal payload, 16 bytes of it,
        // then EOF.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 16]);
        let mut r = Recording {
            bytes: &bytes,
            largest_ask: 0,
        };
        match read_frame_from(&mut r) {
            Err(FrameReadError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected a mid-frame EOF, got {other:?}"),
        }
        assert!(r.largest_ask <= 64 << 10, "asked {} bytes", r.largest_ask);
    }
}
