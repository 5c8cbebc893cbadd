//! # afd-wire
//!
//! A hand-rolled, versioned, checksummed binary codec for shipping AFD
//! engine state between processes — the wire format the ROADMAP asked
//! for so shard tables (and whole session snapshots) can come from shard
//! workers living in other processes.
//!
//! No serde, no network stack, no external dependencies: the build
//! environment is fully offline, so the codec is plain std. Design:
//!
//! * [`Encode`] / [`Decode`] — the serialisation traits. Everything is
//!   **fixed-width little-endian**; `f64`s travel as IEEE-754 bit
//!   patterns so scores and cell values round-trip **bit-exactly**
//!   (`decode(encode(x)) == x` down to `f64::to_bits`, proptest-pinned).
//! * [`Reader`] — a bounds-checked cursor. Collection length prefixes
//!   are validated against the remaining byte budget *before* any
//!   allocation, so corrupt or hostile lengths cannot balloon memory.
//! * [`frame`] — the transport unit: `AFDW` magic, a [`WIRE_VERSION`],
//!   a one-byte message kind, a `u32` payload length and an FNV-1a
//!   checksum over header + payload. Any bit flip anywhere in a frame is
//!   caught before payload decoding starts.
//! * [`DecodeError`] — every failure is a typed error. **Decoding never
//!   panics on corrupt input**; the fuzz tests flip every bit of framed
//!   messages and assert a typed error each time.
//!
//! This crate owns the codec core plus implementations for the
//! `afd-relation` vocabulary ([`afd_relation::Value`], attribute sets,
//! FDs, schemas, whole relations in columnar form). The streaming crate
//! (`afd-stream`) layers its own types on top — deltas, score diffs,
//! `IncTable` merge state, session snapshots and the shard-worker
//! request/response protocol.
//!
//! ## Architecture & performance
//!
//! Relations encode **columnar**: per column, the dictionary of distinct
//! values once, then the per-row `u32` codes. Encoding a 65 536-row
//! relation is therefore `O(rows)` integer copies (plus small dicts) —
//! hundreds of MB/s — rather than per-row `Value` walks; `record_wire`
//! (`cargo run --release -p afd-bench --example record_wire`) records
//! the measured encode/decode throughput in `BENCH_wire.json`.

pub mod codec;
pub mod error;
pub mod frame;
pub mod manifest;

pub use codec::{Decode, Encode, Reader};
pub use error::DecodeError;
pub use frame::{
    decode_framed, encode_framed, fnv1a, read_frame, read_frame_from, write_frame, write_frame_to,
    FrameReadError, StreamFrame, HEADER_LEN, KIND_SERVE_REQUEST, KIND_SERVE_RESPONSE, MAGIC,
    MAX_PAYLOAD, WIRE_VERSION,
};
pub use manifest::{
    CheckpointEntry, ManifestCheckpoint, ManifestOp, ManifestRecord, SlotStatus,
    KIND_MANIFEST_CHECKPOINT, KIND_MANIFEST_RECORD,
};
