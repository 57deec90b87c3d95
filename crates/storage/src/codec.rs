//! Binary (de)serialization: the one byte format of pages, heap files,
//! sorted runs, WAL records and wire frames.
//!
//! A compact, length-prefixed, little-endian format. Decoding is
//! defensive: truncated or malformed input yields [`TdbError::Corrupt`],
//! never a panic, and a value decodes from exactly the bytes its encoder
//! writes, so damaged bytes never decode to a value that re-encodes
//! differently (a bool byte is 0 or 1, an option tag 0 or 1).
//!
//! The field types — `u8` to `u64`, `i64`, `f64`, `bool`, [`String`],
//! [`TimePoint`], `Option<T>`, `Vec<T>`, `Box<T>` — implement [`Codec`]
//! here, and two macros write every composite codec from a single list
//! of its fields: [`wire_struct!`](crate::wire_struct) for a struct and
//! [`wire_enum!`](crate::wire_enum) for an enum under a leading tag byte
//! (or, in its declaring form, a `u8`-coded enum such as an error code).
//! Each type's layout is then written once, so its encoder and decoder
//! cannot drift apart.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tdb_core::{
    Direction, Period, PeriodRow, Row, SortKey, SortSpec, StreamOrder, TdbError, TdbResult,
    TimePoint, TsTuple, Value,
};

// Re-exported for the macros' expansions in other crates.
#[doc(hidden)]
pub use bytes::{Buf as MacroBuf, BytesMut as MacroBytesMut};
#[doc(hidden)]
pub use tdb_core::{TdbError as MacroError, TdbResult as MacroResult};

/// Types that can round-trip through the storage byte format.
pub trait Codec: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode one value from the front of `buf`, consuming its bytes:
    /// the wire's [`Bytes`], or a record borrowed from the page that
    /// holds it, which then decodes in place.
    fn decode(buf: &mut impl Buf) -> TdbResult<Self>;

    /// Encode into a fresh byte buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode from a standalone byte slice, in place, requiring full
    /// consumption.
    fn from_bytes(mut bytes: &[u8]) -> TdbResult<Self> {
        let v = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(TdbError::Corrupt(format!(
                "{} trailing bytes after decode",
                bytes.len()
            )));
        }
        Ok(v)
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_TIME: u8 = 3;
/// Tag of a string value: `u32` length, then the UTF-8 bytes.
pub const TAG_STR: u8 = 4;
/// Tag of a reference to an earlier string of the same wire row list
/// (`tdb-engine::codec`): a `u32` entry number follows. Only a row list
/// has the table it points into, so a heap page never holds one and
/// [`Value::decode`] rejects it.
pub const TAG_STR_REF: u8 = 5;

/// `Corrupt` unless `buf` holds at least `n` more bytes of `what`.
#[inline]
pub fn need(buf: &impl Buf, n: usize, what: &str) -> TdbResult<()> {
    if buf.remaining() < n {
        Err(truncated(what, n, buf.remaining()))
    } else {
        Ok(())
    }
}

/// The error of a failed [`need`], kept out of line so that every
/// decoder's hot path stays a compare and a branch.
#[cold]
#[inline(never)]
fn truncated(what: &str, n: usize, have: usize) -> TdbError {
    TdbError::Corrupt(format!("truncated {what}: need {n} bytes, have {have}"))
}

/// Encode one string: `u32` length, then the UTF-8 bytes.
#[inline]
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode one `u32`-length-prefixed UTF-8 string straight from the
/// buffer's borrowed bytes and hand it to `make` — no intermediate copy,
/// so the only allocation is whatever `make` builds (`Arc<str>`,
/// `String`). Shared by every string decoder on the heap-scan and wire
/// paths.
pub fn decode_str<T>(buf: &mut impl Buf, make: impl FnOnce(&str) -> T) -> TdbResult<T> {
    need(buf, 4, "string length")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, "string body")?;
    let s = std::str::from_utf8(&buf.chunk()[..len])
        .map_err(|e| TdbError::Corrupt(format!("invalid utf-8 string: {e}")))?;
    let out = make(s);
    buf.advance(len);
    Ok(out)
}

/// Encode an optional value with `put`: tag 0, or tag 1 and the value.
pub fn put_opt_with<T>(buf: &mut BytesMut, v: Option<&T>, put: impl FnOnce(&mut BytesMut, &T)) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            put(buf, v);
        }
        None => buf.put_u8(0),
    }
}

/// Decode what [`put_opt_with`] wrote, the value with `get`.
pub fn get_opt_with<B: Buf, T>(
    buf: &mut B,
    get: impl FnOnce(&mut B) -> TdbResult<T>,
) -> TdbResult<Option<T>> {
    match u8::decode(buf)? {
        0 => Ok(None),
        1 => get(buf).map(Some),
        t => Err(TdbError::Corrupt(format!("bad option tag {t}"))),
    }
}

/// Encode a vector with `put`: `u32` length, then the items.
pub fn put_vec_with<T>(buf: &mut BytesMut, v: &[T], mut put: impl FnMut(&mut BytesMut, &T)) {
    buf.put_u32_le(v.len() as u32);
    for item in v {
        put(buf, item);
    }
}

/// Decode what [`put_vec_with`] wrote, each item with `get`.
pub fn get_vec_with<B: Buf, T>(
    buf: &mut B,
    mut get: impl FnMut(&mut B) -> TdbResult<T>,
) -> TdbResult<Vec<T>> {
    let n = u32::decode(buf)? as usize;
    // Capacity is clamped so a corrupt length cannot force a huge
    // allocation before per-item decoding fails on truncation.
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get(buf)?);
    }
    Ok(out)
}

/// `Codec` for fixed-width little-endian integers.
macro_rules! fixed_width {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }

            #[inline]
            fn decode(buf: &mut impl Buf) -> TdbResult<$t> {
                need(buf, std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(buf.$get())
            }
        }
    )*};
}

fixed_width! {
    u8 => put_u8, get_u8;
    u16 => put_u16_le, get_u16_le;
    u32 => put_u32_le, get_u32_le;
    u64 => put_u64_le, get_u64_le;
    i64 => put_i64_le, get_i64_le;
}

impl Codec for f64 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        self.to_bits().encode(buf);
    }

    #[inline]
    fn decode(buf: &mut impl Buf) -> TdbResult<f64> {
        u64::decode(buf).map(f64::from_bits)
    }
}

/// One byte, 0 or 1; any other byte is `Corrupt`, since it would
/// re-encode differently.
impl Codec for bool {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }

    #[inline]
    fn decode(buf: &mut impl Buf) -> TdbResult<bool> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(TdbError::Corrupt(format!("bad bool byte {b}"))),
        }
    }
}

impl Codec for String {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<String> {
        decode_str(buf, str::to_owned)
    }
}

impl Codec for TimePoint {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        self.ticks().encode(buf);
    }

    #[inline]
    fn decode(buf: &mut impl Buf) -> TdbResult<TimePoint> {
        i64::decode(buf).map(TimePoint::new)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_opt_with(buf, self.as_ref(), |b, v| v.encode(b));
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Option<T>> {
        get_opt_with(buf, T::decode)
    }
}

/// A `u32` length, then the items. Never a row list's codec: a
/// `Vec<Row>` on the wire names its row-list functions in its field
/// list (see `tdb-engine::codec`).
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_vec_with(buf, self, |b, v| v.encode(b));
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Vec<T>> {
        get_vec_with(buf, T::decode)
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Box<T>> {
        T::decode(buf).map(Box::new)
    }
}

/// Write [`Codec`] for a struct from its field list, in wire order:
///
/// ```text
/// wire_struct!(TableInfo { name, rows, lambda });
/// ```
///
/// A field is encoded by its type's own `Codec` unless its name is
/// followed by functions that encode it instead:
///
/// - `rows: with(put_rows, get_rows)` — `put(buf, &field)` and
///   `get(buf) -> TdbResult<_>`;
/// - `spans: vec(put_span, get_span)` — a `Vec` whose items they encode;
/// - `trace: opt(put_trace, get_trace)` — an `Option` of such a value.
///
/// `wire_struct!(fn put_span, get_span: OpSpan { … })` writes those two
/// functions instead of the impl, for a struct of a crate that cannot
/// implement `Codec` (the orphan rule).
#[macro_export]
macro_rules! wire_struct {
    (fn $put:ident, $get:ident: $ty:ident { $($fields:tt)* }) => {
        fn $put(buf: &mut $crate::codec::MacroBytesMut, value: &$ty) {
            $crate::wire_struct!(@put value, buf { $($fields)* });
        }

        fn $get(buf: &mut impl $crate::codec::MacroBuf) -> $crate::codec::MacroResult<$ty> {
            Ok($crate::wire_struct!(@get buf, $ty { $($fields)* }))
        }
    };
    ($ty:ident { $($fields:tt)* }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, buf: &mut $crate::codec::MacroBytesMut) {
                $crate::wire_struct!(@put self, buf { $($fields)* });
            }

            fn decode(buf: &mut impl $crate::codec::MacroBuf) -> $crate::codec::MacroResult<$ty> {
                Ok($crate::wire_struct!(@get buf, $ty { $($fields)* }))
            }
        }
    };
    (@put $value:ident, $buf:ident {
        $($f:ident $(: $how:ident($p:path, $g:path))?),* $(,)?
    }) => {
        $( $crate::wire_struct!(@put_field $buf, &$value.$f $(, $how($p, $g))?); )*
    };
    (@get $buf:ident, $ty:ident $(:: $v:ident)? {
        $($f:ident $(: $how:ident($p:path, $g:path))?),* $(,)?
    }) => {
        $ty $(:: $v)? { $( $f: $crate::wire_struct!(@get_field $buf $(, $how($p, $g))?), )* }
    };
    (@put_field $buf:ident, $v:expr) => { $crate::codec::Codec::encode($v, $buf) };
    (@put_field $buf:ident, $v:expr, with($p:path, $g:path)) => { $p($buf, $v) };
    (@put_field $buf:ident, $v:expr, vec($p:path, $g:path)) => {
        $crate::codec::put_vec_with($buf, $v, $p)
    };
    (@put_field $buf:ident, $v:expr, opt($p:path, $g:path)) => {
        $crate::codec::put_opt_with($buf, ($v).as_ref(), $p)
    };
    (@get_field $buf:ident) => { $crate::codec::Codec::decode($buf)? };
    (@get_field $buf:ident, with($p:path, $g:path)) => { $g($buf)? };
    (@get_field $buf:ident, vec($p:path, $g:path)) => { $crate::codec::get_vec_with($buf, $g)? };
    (@get_field $buf:ident, opt($p:path, $g:path)) => { $crate::codec::get_opt_with($buf, $g)? };
}

/// Write [`Codec`] for an enum: a tag byte, then the variant's payload —
/// nothing, one value (`Info(String)`), or fields listed as for
/// [`wire_struct!`](crate::wire_struct):
///
/// ```text
/// wire_enum!(Response {
///     0 => Info(String),
///     1 => Goodbye,
///     2 => Reply { query_id, rows: with(put_rows, get_rows) },
/// });
/// ```
///
/// `wire_enum!(fn put_frame, get_frame: Frame { … })` writes the two
/// functions instead of the impl.
///
/// The declaring form writes a fieldless enum with explicit `u8`
/// discriminants, its `from_u8` decoder, and a `Codec` that sends the
/// discriminant byte — the discriminants and the decoder from one list:
///
/// ```text
/// wire_enum! {
///     /// Error classes.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum ErrorCode {
///         /// A parse error.
///         Parse = 8,
///     }
/// }
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident { $( $(#[$vmeta:meta])* $v:ident = $n:literal ),* $(,)? }
    ) => {
        $(#[$meta])*
        #[repr(u8)]
        $vis enum $ty { $( $(#[$vmeta])* $v = $n, )* }

        impl $ty {
            /// Decode a wire byte back into a variant; `None` for a byte
            /// no variant has.
            pub fn from_u8(b: u8) -> Option<$ty> {
                match b {
                    $( $n => Some($ty::$v), )*
                    _ => None,
                }
            }
        }

        impl $crate::codec::Codec for $ty {
            fn encode(&self, buf: &mut $crate::codec::MacroBytesMut) {
                $crate::codec::Codec::encode(&(*self as u8), buf);
            }

            fn decode(buf: &mut impl $crate::codec::MacroBuf) -> $crate::codec::MacroResult<$ty> {
                let b = <u8 as $crate::codec::Codec>::decode(buf)?;
                $ty::from_u8(b).ok_or_else(|| {
                    $crate::codec::MacroError::Corrupt(format!(
                        concat!("unknown ", stringify!($ty), " {}"),
                        b
                    ))
                })
            }
        }
    };
    (fn $put:ident, $get:ident: $ty:ident { $($variants:tt)* }) => {
        fn $put(buf: &mut $crate::codec::MacroBytesMut, value: &$ty) {
            $crate::wire_enum!(@put value, buf, $ty { $($variants)* });
        }

        fn $get(buf: &mut impl $crate::codec::MacroBuf) -> $crate::codec::MacroResult<$ty> {
            $crate::wire_enum!(@get buf, $ty { $($variants)* })
        }
    };
    ($ty:ident { $($variants:tt)* }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, buf: &mut $crate::codec::MacroBytesMut) {
                $crate::wire_enum!(@put self, buf, $ty { $($variants)* });
            }

            fn decode(buf: &mut impl $crate::codec::MacroBuf) -> $crate::codec::MacroResult<$ty> {
                $crate::wire_enum!(@get buf, $ty { $($variants)* })
            }
        }
    };
    (@put $value:ident, $buf:ident, $ty:ident {
        $($tag:literal => $v:ident $(($t:ty))? $({ $($fields:tt)* })?),* $(,)?
    }) => {
        match $value {
            $( $crate::wire_enum!(@pat payload, $ty::$v $(($t))? $({ $($fields)* })?) => {
                $crate::codec::Codec::encode(&($tag as u8), $buf);
                $crate::wire_enum!(@put_payload payload, $buf $(($t))? $({ $($fields)* })?);
            } )*
        }
    };
    (@get $buf:ident, $ty:ident {
        $($tag:literal => $v:ident $(($t:ty))? $({ $($fields:tt)* })?),* $(,)?
    }) => {
        match <u8 as $crate::codec::Codec>::decode($buf)? {
            $( $tag => Ok($crate::wire_enum!(
                @get_payload $buf, $ty::$v $(($t))? $({ $($fields)* })?
            )), )*
            t => Err($crate::codec::MacroError::Corrupt(format!(
                concat!("unknown ", stringify!($ty), " tag {}"),
                t
            ))),
        }
    };
    (@pat $x:ident, $ty:ident::$v:ident) => { $ty::$v };
    (@pat $x:ident, $ty:ident::$v:ident ($t:ty)) => { $ty::$v($x) };
    (@pat $x:ident, $ty:ident::$v:ident {
        $($f:ident $(: $how:ident($p:path, $g:path))?),* $(,)?
    }) => {
        $ty::$v { $($f),* }
    };
    (@put_payload $x:ident, $buf:ident) => {};
    (@put_payload $x:ident, $buf:ident ($t:ty)) => { $crate::codec::Codec::encode($x, $buf) };
    (@put_payload $x:ident, $buf:ident {
        $($f:ident $(: $how:ident($p:path, $g:path))?),* $(,)?
    }) => {
        $( $crate::wire_struct!(@put_field $buf, $f $(, $how($p, $g))?); )*
    };
    (@get_payload $buf:ident, $ty:ident::$v:ident) => { $ty::$v };
    (@get_payload $buf:ident, $ty:ident::$v:ident ($t:ty)) => {
        $ty::$v(<$t as $crate::codec::Codec>::decode($buf)?)
    };
    (@get_payload $buf:ident, $ty:ident::$v:ident { $($fields:tt)* }) => {
        $crate::wire_struct!(@get $buf, $ty::$v { $($fields)* })
    };
}

impl Codec for Value {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Bool(b) => {
                buf.put_u8(TAG_BOOL);
                b.encode(buf);
            }
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                i.encode(buf);
            }
            Value::Time(t) => {
                buf.put_u8(TAG_TIME);
                t.encode(buf);
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                put_str(buf, s);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Value> {
        match u8::decode(buf)? {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => bool::decode(buf).map(Value::Bool),
            TAG_INT => i64::decode(buf).map(Value::Int),
            TAG_TIME => TimePoint::decode(buf).map(Value::Time),
            TAG_STR => decode_str(buf, |s| Value::str(s)),
            TAG_STR_REF => Err(TdbError::Corrupt(
                "string reference outside a row list".into(),
            )),
            t => Err(TdbError::Corrupt(format!("unknown value tag {t}"))),
        }
    }
}

impl Codec for Row {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.arity() as u16);
        for v in self.values() {
            v.encode(buf);
        }
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Row> {
        let n = u16::decode(buf)? as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(buf)?);
        }
        Ok(Row::new(values))
    }
}

impl Codec for Period {
    fn encode(&self, buf: &mut BytesMut) {
        self.start().encode(buf);
        self.end().encode(buf);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Period> {
        Period::new(TimePoint::decode(buf)?, TimePoint::decode(buf)?)
    }
}

wire_struct!(PeriodRow { row, period });
wire_struct!(TsTuple {
    surrogate,
    value,
    period
});
wire_enum!(SortKey {
    0 => ValidFrom,
    1 => ValidTo,
});
wire_enum!(Direction {
    0 => Asc,
    1 => Desc,
});
wire_struct!(SortSpec { key, direction });
wire_struct!(StreamOrder { primary, secondary });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn value_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(42),
            Value::Time(TimePoint(-7)),
            Value::str(""),
            Value::str("Associate Professor 教授"),
        ] {
            assert_eq!(Value::from_bytes(&v.to_bytes()).unwrap(), v);
        }
    }

    #[test]
    fn row_round_trips() {
        let r = Row::new(vec![Value::str("Smith"), Value::Int(3), Value::Null]);
        assert_eq!(Row::from_bytes(&r.to_bytes()).unwrap(), r);
        let empty = Row::new(vec![]);
        assert_eq!(Row::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn tuple_round_trips() {
        let t = TsTuple::new("Smith", "Full", 9, 20).unwrap();
        assert_eq!(TsTuple::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let t = TsTuple::new("Smith", "Full", 9, 20).unwrap();
        let full = t.to_bytes();
        for cut in 0..full.len() {
            let err = TsTuple::from_bytes(&full[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Value::from_bytes(&[99]),
            Err(TdbError::Corrupt(_))
        ));
    }

    #[test]
    fn string_reference_rejected_outside_a_row_list() {
        let bytes = [1, 0, TAG_STR_REF, 0, 0, 0, 0]; // arity 1, reference to entry 0
        assert!(matches!(
            Row::from_bytes(&bytes),
            Err(TdbError::Corrupt(msg)) if msg.contains("string reference")
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // TAG_STR, len=2, invalid bytes.
        let bytes = [TAG_STR, 2, 0, 0, 0, 0xff, 0xfe];
        assert!(Value::from_bytes(&bytes).is_err());
    }

    #[test]
    fn inverted_period_rejected_at_decode() {
        let mut buf = BytesMut::new();
        buf.put_i64_le(10);
        buf.put_i64_le(3);
        assert!(matches!(
            Period::from_bytes(&buf.freeze()),
            Err(TdbError::InvalidPeriod { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = Value::Int(1).to_bytes().to_vec();
        b.push(0);
        assert!(Value::from_bytes(&b).is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<i64>().prop_map(|t| Value::Time(TimePoint(t))),
            "[a-zA-Z0-9 ]{0,40}".prop_map(Value::str),
        ]
    }

    proptest! {
        #[test]
        fn arbitrary_rows_round_trip(values in proptest::collection::vec(arb_value(), 0..12)) {
            let row = Row::new(values);
            prop_assert_eq!(Row::from_bytes(&row.to_bytes()).unwrap(), row);
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Row::from_bytes(&bytes);
            let _ = TsTuple::from_bytes(&bytes);
            let _ = Value::from_bytes(&bytes);
        }
    }
}
