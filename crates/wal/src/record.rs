//! WAL record types and their byte encoding.
//!
//! Every durable event on a live relation is one [`WalRecord`]: the
//! relation's registration (the DDL event that starts each log), each
//! admitted row, watermark advances, the end-of-stream seal, the
//! promotion intent marker, and the checkpoint that heads a compacted
//! log. Records ride inside CRC-framed envelopes (see [`crate::log`]);
//! the payload encoding reuses the storage [`Codec`] conventions —
//! little-endian, length-prefixed, defensively decoded.

use bytes::{Buf, BufMut, BytesMut};
use tdb_core::{Direction, Row, SortKey, SortSpec, StreamOrder, TdbError, TdbResult, TimePoint};
use tdb_storage::Codec;

const TAG_REGISTER: u8 = 1;
const TAG_APPEND: u8 = 2;
const TAG_WATERMARK: u8 = 3;
const TAG_SEAL: u8 = 4;
const TAG_PROMOTE: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;

/// One durable event in a relation's write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// DDL: the relation was registered for live ingestion. Always the
    /// first record of a log (original or compacted); carries everything
    /// recovery needs beyond the catalog's schema.
    Register {
        /// Declared arrival sort order.
        order: StreamOrder,
        /// Watermark slack in ticks.
        slack: i64,
    },
    /// One admitted row, logged before it is staged.
    Append {
        /// The validated row exactly as admitted.
        row: Row,
    },
    /// The watermark frontier after a committed admission batch.
    Watermark {
        /// The frontier (`None` before any arrival).
        frontier: Option<TimePoint>,
    },
    /// End of stream: every staged tuple became final.
    Seal,
    /// Promotion intent: the next `closed` watermark-closed rows (in
    /// sort order) are about to be appended to the catalog heap. Fsynced
    /// before the heap write so replay can tell whether the promotion
    /// reached the catalog (reconciled against the catalog's durable row
    /// count) and never double-applies it.
    Promote {
        /// Rows in the promoted batch.
        closed: u64,
    },
    /// Head of a compacted log: state at the last checkpoint.
    Checkpoint {
        /// Rows promoted into the catalog heap over the relation's life.
        promoted: u64,
        /// Watermark frontier at the checkpoint.
        frontier: Option<TimePoint>,
        /// Whether the stream was sealed.
        sealed: bool,
    },
}

fn corrupt(what: &str) -> TdbError {
    TdbError::Corrupt(format!("wal record: {what}"))
}

fn need(buf: &impl Buf, n: usize, what: &str) -> TdbResult<()> {
    if buf.remaining() < n {
        Err(corrupt(&format!(
            "truncated {what}: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn put_sort_spec(buf: &mut BytesMut, s: SortSpec) {
    buf.put_u8(match s.key {
        SortKey::ValidFrom => 0,
        SortKey::ValidTo => 1,
    });
    buf.put_u8(match s.direction {
        Direction::Asc => 0,
        Direction::Desc => 1,
    });
}

fn get_sort_spec(buf: &mut impl Buf) -> TdbResult<SortSpec> {
    need(buf, 2, "sort spec")?;
    let key = match buf.get_u8() {
        0 => SortKey::ValidFrom,
        1 => SortKey::ValidTo,
        k => return Err(corrupt(&format!("unknown sort key {k}"))),
    };
    let direction = match buf.get_u8() {
        0 => Direction::Asc,
        1 => Direction::Desc,
        d => return Err(corrupt(&format!("unknown sort direction {d}"))),
    };
    Ok(SortSpec { key, direction })
}

fn put_opt_time(buf: &mut BytesMut, t: Option<TimePoint>) {
    match t {
        Some(t) => {
            buf.put_u8(1);
            buf.put_i64_le(t.ticks());
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_time(buf: &mut impl Buf) -> TdbResult<Option<TimePoint>> {
    need(buf, 1, "optional time flag")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            need(buf, 8, "time point")?;
            Ok(Some(TimePoint::new(buf.get_i64_le())))
        }
        f => Err(corrupt(&format!("bad optional-time flag {f}"))),
    }
}

impl Codec for WalRecord {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            WalRecord::Register { order, slack } => {
                buf.put_u8(TAG_REGISTER);
                put_sort_spec(buf, order.primary);
                match order.secondary {
                    Some(s) => {
                        buf.put_u8(1);
                        put_sort_spec(buf, s);
                    }
                    None => buf.put_u8(0),
                }
                buf.put_i64_le(*slack);
            }
            WalRecord::Append { row } => {
                buf.put_u8(TAG_APPEND);
                row.encode(buf);
            }
            WalRecord::Watermark { frontier } => {
                buf.put_u8(TAG_WATERMARK);
                put_opt_time(buf, *frontier);
            }
            WalRecord::Seal => buf.put_u8(TAG_SEAL),
            WalRecord::Promote { closed } => {
                buf.put_u8(TAG_PROMOTE);
                buf.put_u64_le(*closed);
            }
            WalRecord::Checkpoint {
                promoted,
                frontier,
                sealed,
            } => {
                buf.put_u8(TAG_CHECKPOINT);
                buf.put_u64_le(*promoted);
                put_opt_time(buf, *frontier);
                buf.put_u8(u8::from(*sealed));
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> TdbResult<WalRecord> {
        need(buf, 1, "record tag")?;
        match buf.get_u8() {
            TAG_REGISTER => {
                let primary = get_sort_spec(buf)?;
                need(buf, 1, "secondary flag")?;
                let secondary = match buf.get_u8() {
                    0 => None,
                    1 => Some(get_sort_spec(buf)?),
                    f => return Err(corrupt(&format!("bad secondary flag {f}"))),
                };
                need(buf, 8, "slack")?;
                Ok(WalRecord::Register {
                    order: StreamOrder { primary, secondary },
                    slack: buf.get_i64_le(),
                })
            }
            TAG_APPEND => Ok(WalRecord::Append {
                row: Row::decode(buf)?,
            }),
            TAG_WATERMARK => Ok(WalRecord::Watermark {
                frontier: get_opt_time(buf)?,
            }),
            TAG_SEAL => Ok(WalRecord::Seal),
            TAG_PROMOTE => {
                need(buf, 8, "promote count")?;
                Ok(WalRecord::Promote {
                    closed: buf.get_u64_le(),
                })
            }
            TAG_CHECKPOINT => {
                need(buf, 8, "checkpoint promoted")?;
                let promoted = buf.get_u64_le();
                let frontier = get_opt_time(buf)?;
                need(buf, 1, "checkpoint sealed flag")?;
                Ok(WalRecord::Checkpoint {
                    promoted,
                    frontier,
                    sealed: buf.get_u8() != 0,
                })
            }
            t => Err(corrupt(&format!("unknown record tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::Value;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Register {
                order: StreamOrder::TS_ASC,
                slack: 3,
            },
            WalRecord::Register {
                order: StreamOrder::TE_ASC,
                slack: 0,
            },
            WalRecord::Append {
                row: Row::new(vec![
                    Value::str("Smith"),
                    Value::Int(7),
                    Value::Time(TimePoint(2)),
                    Value::Time(TimePoint(9)),
                ]),
            },
            WalRecord::Watermark { frontier: None },
            WalRecord::Watermark {
                frontier: Some(TimePoint(-4)),
            },
            WalRecord::Seal,
            WalRecord::Promote { closed: 1234 },
            WalRecord::Checkpoint {
                promoted: 99,
                frontier: Some(TimePoint(41)),
                sealed: true,
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for r in samples() {
            assert_eq!(WalRecord::from_bytes(&r.to_bytes()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn truncated_records_are_corrupt_not_panic() {
        for r in samples() {
            let full = r.to_bytes();
            for cut in 0..full.len() {
                assert!(
                    WalRecord::from_bytes(&full[..cut]).is_err(),
                    "{r:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(WalRecord::from_bytes(&[0xAB]).is_err());
    }

    #[test]
    fn retired_batch_load_tag_is_corrupt() {
        // Tag 7 once named a bulk-load record that nothing ever wrote.
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&10u64.to_le_bytes());
        assert!(matches!(
            WalRecord::from_bytes(&bytes),
            Err(TdbError::Corrupt(msg)) if msg.contains("unknown record tag 7")
        ));
    }
}
