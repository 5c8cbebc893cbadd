//! The codec core: [`Reader`], the [`Encode`] / [`Decode`] traits, and
//! implementations for primitives, collections and the `afd-relation`
//! vocabulary types.
//!
//! Layout rules (shared by every implementation):
//!
//! * All integers are **fixed-width little-endian**; `f64` travels as its
//!   IEEE-754 bit pattern (`to_bits`), so floats round-trip bit-exactly.
//! * Collections and strings carry a `u32` length prefix, checked against
//!   the remaining byte budget before anything is allocated.
//! * Enums carry a one-byte discriminant.
//! * Decoding validates the target type's invariants (schema name
//!   uniqueness, FD side disjointness, dictionary code ranges) and
//!   returns [`DecodeError`] — it never panics on corrupt bytes.

use afd_relation::{AttrId, AttrSet, Column, Dictionary, Fd, Relation, Schema, Value};

#[cfg(doc)]
use afd_relation::NULL_CODE;

use crate::error::DecodeError;

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    /// [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes a fixed-size array (the little-endian integer reads).
    ///
    /// # Errors
    /// [`DecodeError::Truncated`].
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads a `u32` length prefix for a collection of `what`, verifying
    /// that `len * min_elem_bytes` fits in the remaining buffer — so a
    /// corrupt length can never force a huge allocation.
    ///
    /// # Errors
    /// [`DecodeError::Truncated`] / [`DecodeError::BadLength`].
    pub fn len_prefix(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, DecodeError> {
        let len = u32::decode(self)? as usize;
        let budget = self.remaining() / min_elem_bytes.max(1);
        if len > budget {
            return Err(DecodeError::BadLength {
                what,
                len: len as u64,
                budget: budget as u64,
            });
        }
        Ok(len)
    }

    /// Asserts the value consumed the buffer exactly.
    ///
    /// # Errors
    /// [`DecodeError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() > 0 {
            return Err(DecodeError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A type that can serialise itself onto a byte buffer.
pub trait Encode {
    /// Appends the wire form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The wire form as a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// A type that can reconstruct itself from a byte stream.
pub trait Decode: Sized {
    /// Reads one value off `r`.
    ///
    /// # Errors
    /// [`DecodeError`] on truncated, corrupt or invariant-violating
    /// bytes — never a panic.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a value that must span `buf` exactly.
    ///
    /// # Errors
    /// As [`Decode::decode`], plus [`DecodeError::TrailingBytes`].
    fn decode_exact(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}
impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}
impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

/// `usize` travels as `u64` (the engine's row counts may exceed `u32`).
impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}
impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| DecodeError::Invalid {
            what: "usize",
            msg: format!("{v} does not fit this platform's usize"),
        })
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}
impl Encode for &str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix("string", 1)?;
        let bytes = r.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::Utf8 { what: "string" })
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}
impl<T: Encode> Encode for &[T] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in *self {
            item.encode(out);
        }
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Every element encodes to at least one byte, so the length check
        // bounds the allocation by the buffer size.
        let len = r.len_prefix("vec", 1)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
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
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------- values

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;

impl Encode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(VALUE_NULL),
            Value::Int(i) => {
                out.push(VALUE_INT);
                i.encode(out);
            }
            Value::Float(f) => {
                out.push(VALUE_FLOAT);
                f.get().encode(out);
            }
            Value::Str(s) => {
                out.push(VALUE_STR);
                s.as_ref().encode(out);
            }
        }
    }
}
impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            VALUE_NULL => Ok(Value::Null),
            VALUE_INT => Ok(Value::Int(i64::decode(r)?)),
            // `Value::float` normalises NaN payloads and -0.0, exactly as
            // every in-memory construction path does, so the round-trip
            // is bit-identical.
            VALUE_FLOAT => Ok(Value::float(f64::decode(r)?)),
            VALUE_STR => Ok(Value::str(String::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "Value", tag }),
        }
    }
}

// ------------------------------------------------------- schema vocabulary

impl Encode for AttrId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}
impl Decode for AttrId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AttrId(u32::decode(r)?))
    }
}

impl Encode for AttrSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ids().encode(out);
    }
}
impl Decode for AttrSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // `AttrSet::new` sorts + dedups, re-establishing the invariant
        // whatever the bytes claimed.
        Ok(AttrSet::new(Vec::<AttrId>::decode(r)?))
    }
}

impl Encode for Fd {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lhs().encode(out);
        self.rhs().encode(out);
    }
}
impl Decode for Fd {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let lhs = AttrSet::decode(r)?;
        let rhs = AttrSet::decode(r)?;
        Fd::new(lhs, rhs).map_err(|e| DecodeError::Invalid {
            what: "Fd",
            msg: e.to_string(),
        })
    }
}

impl Encode for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.arity() as u32).encode(out);
        for name in self.names() {
            name.encode(out);
        }
    }
}
impl Decode for Schema {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let arity = r.len_prefix("schema", 4)?;
        let mut names = Vec::with_capacity(arity);
        for _ in 0..arity {
            names.push(String::decode(r)?);
        }
        Schema::new(names).map_err(|e| DecodeError::Invalid {
            what: "Schema",
            msg: e.to_string(),
        })
    }
}

// ------------------------------------------------------------- relations

/// Relations travel **columnar**: the schema, the row count, then per
/// column its dictionary (distinct values in code order) followed by the
/// per-row `u32` codes ([`NULL_CODE`] marks NULL cells). This is the
/// code-level form — encoding is `O(rows)` integer copies plus the
/// (small) dictionaries; no per-row `Value` materialisation.
impl Encode for Relation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema().encode(out);
        (self.n_rows() as u64).encode(out);
        for a in self.schema().attrs() {
            let col = self.column(a);
            (col.dict().len() as u32).encode(out);
            for (_, v) in col.dict().iter() {
                v.encode(out);
            }
            for &code in col.codes() {
                code.encode(out);
            }
        }
    }
}
impl Decode for Relation {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let schema = Schema::decode(r)?;
        let n_rows = u64::decode(r)?;
        let n_rows = usize::try_from(n_rows).map_err(|_| DecodeError::Invalid {
            what: "Relation",
            msg: format!("{n_rows} rows do not fit this platform's usize"),
        })?;
        let mut columns = Vec::with_capacity(schema.arity());
        for _ in 0..schema.arity() {
            let n_distinct = r.len_prefix("dictionary", 1)?;
            let mut dict = Dictionary::new();
            for i in 0..n_distinct {
                let v = Value::decode(r)?;
                if v.is_null() {
                    return Err(DecodeError::Invalid {
                        what: "Dictionary",
                        msg: "NULL in a dictionary (NULL travels as NULL_CODE)".into(),
                    });
                }
                if dict.intern(v) != i as u32 {
                    return Err(DecodeError::Invalid {
                        what: "Dictionary",
                        msg: format!("duplicate value at code {i}"),
                    });
                }
            }
            if r.remaining() / 4 < n_rows {
                return Err(DecodeError::Truncated {
                    needed: n_rows * 4,
                    have: r.remaining(),
                });
            }
            // Code-vs-dictionary range validation happens once, in
            // `Relation::from_columns` below — the decode loop stays a
            // straight `u32` copy (decode throughput is a CI-gated bar).
            let mut codes = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                codes.push(u32::decode(r)?);
            }
            columns.push(Column::from_parts(codes, dict));
        }
        Relation::from_columns(schema, columns).map_err(|e| DecodeError::Invalid {
            what: "Relation",
            msg: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encode_to_vec();
        let back = T::decode_exact(&bytes).expect("roundtrip decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&(-42i64));
        roundtrip(&core::f64::consts::PI);
        roundtrip(&true);
        roundtrip(&String::from("héllo"));
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(7u64));
        roundtrip(&None::<u64>);
        roundtrip(&(3u32, String::from("x")));
        roundtrip(&usize::MAX);
    }

    #[test]
    fn value_roundtrips_including_normalised_floats() {
        for v in [
            Value::Null,
            Value::Int(i64::MIN),
            Value::float(-0.0),
            Value::float(f64::NAN),
            Value::float(1.5e-300),
            Value::str(""),
            Value::str("snow ❄"),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn vocabulary_roundtrips() {
        roundtrip(&AttrId(7));
        roundtrip(&AttrSet::new([AttrId(3), AttrId(1)]));
        roundtrip(&Fd::linear(AttrId(0), AttrId(2)));
        roundtrip(&Schema::new(["a", "b", "c"]).unwrap());
    }

    #[test]
    fn relation_roundtrips_with_nulls_and_duplicates() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            [
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(1), Value::Null],
                vec![Value::Null, Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Int(1), Value::str("a")],
            ],
        )
        .unwrap();
        let bytes = rel.encode_to_vec();
        let back = Relation::decode_exact(&bytes).expect("relation decodes");
        assert_eq!(back.n_rows(), rel.n_rows());
        for row in 0..rel.n_rows() {
            assert_eq!(back.row(row), rel.row(row));
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = Fd::linear(AttrId(0), AttrId(1)).encode_to_vec();
        for cut in 0..bytes.len() {
            let err = Fd::decode_exact(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::BadLength { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        // A vec claiming u32::MAX elements backed by 2 bytes.
        let mut bytes = (u32::MAX).encode_to_vec();
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(
            Vec::<u64>::decode_exact(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn invalid_invariants_are_typed() {
        // Overlapping FD sides.
        let mut bytes = Vec::new();
        AttrSet::single(AttrId(1)).encode(&mut bytes);
        AttrSet::single(AttrId(1)).encode(&mut bytes);
        assert!(matches!(
            Fd::decode_exact(&bytes),
            Err(DecodeError::Invalid { what: "Fd", .. })
        ));
        // Duplicate schema names.
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        "a".encode(&mut bytes);
        "a".encode(&mut bytes);
        assert!(matches!(
            Schema::decode_exact(&bytes),
            Err(DecodeError::Invalid { what: "Schema", .. })
        ));
        // Trailing junk.
        let mut bytes = Value::Int(3).encode_to_vec();
        bytes.push(0xff);
        assert!(matches!(
            Value::decode_exact(&bytes),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));
        // Unknown value tag.
        assert!(matches!(
            Value::decode_exact(&[9]),
            Err(DecodeError::BadTag {
                what: "Value",
                tag: 9
            })
        ));
    }
}
