//! Binary (de)serialization of values, rows and tuples.
//!
//! A compact, length-prefixed, little-endian format used by pages, heap
//! files and sorted runs. Decoding is defensive: truncated or malformed
//! input yields [`TdbError::Corrupt`], never a panic.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tdb_core::{Period, PeriodRow, Row, TdbError, TdbResult, TimePoint, TsTuple, Value};

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

fn need(buf: &impl Buf, n: usize, what: &str) -> TdbResult<()> {
    if buf.remaining() < n {
        Err(TdbError::Corrupt(format!(
            "truncated {what}: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
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

impl Codec for Value {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Bool(b) => {
                buf.put_u8(TAG_BOOL);
                buf.put_u8(u8::from(*b));
            }
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(*i);
            }
            Value::Time(t) => {
                buf.put_u8(TAG_TIME);
                buf.put_i64_le(t.ticks());
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Value> {
        need(buf, 1, "value tag")?;
        match buf.get_u8() {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => {
                need(buf, 1, "bool")?;
                Ok(Value::Bool(buf.get_u8() != 0))
            }
            TAG_INT => {
                need(buf, 8, "int")?;
                Ok(Value::Int(buf.get_i64_le()))
            }
            TAG_TIME => {
                need(buf, 8, "time")?;
                Ok(Value::Time(TimePoint::new(buf.get_i64_le())))
            }
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
        need(buf, 2, "row arity")?;
        let n = buf.get_u16_le() as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(buf)?);
        }
        Ok(Row::new(values))
    }
}

impl Codec for Period {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i64_le(self.start().ticks());
        buf.put_i64_le(self.end().ticks());
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<Period> {
        need(buf, 16, "period")?;
        let start = TimePoint::new(buf.get_i64_le());
        let end = TimePoint::new(buf.get_i64_le());
        Period::new(start, end)
    }
}

impl Codec for PeriodRow {
    fn encode(&self, buf: &mut BytesMut) {
        self.row.encode(buf);
        self.period.encode(buf);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<PeriodRow> {
        Ok(PeriodRow {
            row: Row::decode(buf)?,
            period: Period::decode(buf)?,
        })
    }
}

impl Codec for TsTuple {
    fn encode(&self, buf: &mut BytesMut) {
        self.surrogate.encode(buf);
        self.value.encode(buf);
        self.period.encode(buf);
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<TsTuple> {
        Ok(TsTuple {
            surrogate: Value::decode(buf)?,
            value: Value::decode(buf)?,
            period: Period::decode(buf)?,
        })
    }
}

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
