//! WAL record types and their byte encoding.
//!
//! Every durable event on a live relation is one [`WalRecord`]: the
//! relation's registration (the DDL event that starts each log), each
//! admitted row, watermark advances, the end-of-stream seal, and the
//! checkpoint that heads a compacted log with the heap file it counts in
//! (plus the promotion marker older logs carry). Records ride inside CRC-framed envelopes (see [`crate::log`]);
//! the payload's [`Codec`](tdb_storage::Codec) is written by
//! `tdb-storage`'s [`wire_enum!`] from the variant list below: a tag
//! byte, then the variant's fields in order — little-endian,
//! length-prefixed, defensively decoded. Tag 7 once named a bulk-load
//! record that nothing ever wrote; it stays unassigned.

use tdb_core::{Row, StreamOrder, TimePoint};
use tdb_storage::wire_enum;

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
    /// A promotion of the next `closed` watermark-closed rows, as logs
    /// written before promotions were reconciled by count carry it.
    /// Nothing writes it now and replay skips it: the manifest's row
    /// count says how much of the logged stream the catalog holds.
    Promote {
        /// Rows in the promoted batch.
        closed: u64,
    },
    /// Head of a compacted log: state at the last checkpoint.
    Checkpoint {
        /// Rows the catalog manifest held for the relation when the log
        /// was compacted.
        promoted: u64,
        /// Watermark frontier at the checkpoint.
        frontier: Option<TimePoint>,
        /// Whether the stream was sealed.
        sealed: bool,
    },
    /// Follows a [`WalRecord::Checkpoint`]: the catalog heap file its
    /// `promoted` rows are counted in, as the manifest named it then. A
    /// manifest naming another file means a load replaced the relation's
    /// rows after the checkpoint. Logs written before this record existed
    /// lack it and are taken to count in the manifest's file.
    Heap {
        /// The heap file name, relative to the catalog directory.
        file: String,
    },
}

wire_enum!(WalRecord {
    1 => Register { order, slack },
    2 => Append { row },
    3 => Watermark { frontier },
    4 => Seal,
    5 => Promote { closed },
    6 => Checkpoint {
        promoted,
        frontier,
        sealed,
    },
    8 => Heap { file },
});

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{TdbError, Value};
    use tdb_storage::Codec;

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
            WalRecord::Heap {
                file: "S.3.heap".into(),
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
            Err(TdbError::Corrupt(msg)) if msg.contains("unknown WalRecord tag 7")
        ));
    }
}
