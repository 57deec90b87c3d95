//! Output checks the harness computes itself: an order-independent
//! checksum over result rows and nested-loop references that apply the
//! Allen predicate of each query directly to the generated intervals.

use crate::inputs::Iv;
use tdb::gen::FacultyTuple;
use tdb::prelude::{Rank, Row, Temporal, Value};

/// Row count plus an order-independent checksum: what a result must
/// equal, however the engine ordered or chunked it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Result rows.
    pub rows: u64,
    /// Wrapping sum of per-row hashes.
    pub checksum: u64,
}

/// FNV-1a over the cells of one row, each closed by a separator byte no
/// cell contains, so `("ab","c")` and `("a","bc")` differ.
struct RowHash(u64);

impl RowHash {
    fn new() -> RowHash {
        RowHash(0xcbf2_9ce4_8422_2325)
    }

    fn cell(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0x1f]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Digest {
    fn fold(&mut self, row: RowHash) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(row.0);
    }

    /// Fold one row, given as its rendered cells.
    pub fn add_cells<'a>(&mut self, cells: impl IntoIterator<Item = &'a str>) {
        let mut h = RowHash::new();
        cells.into_iter().for_each(|c| h.cell(c.as_bytes()));
        self.fold(h);
    }

    /// Fold one engine result row: strings as they are, numbers and
    /// times in decimal.
    pub fn add_row(&mut self, row: &Row) {
        let mut h = RowHash::new();
        for v in row.values() {
            match v {
                Value::Str(s) => h.cell(s.as_bytes()),
                Value::Int(i) => h.cell(i.to_string().as_bytes()),
                Value::Time(t) => h.cell(t.ticks().to_string().as_bytes()),
                Value::Bool(b) => h.cell(b.to_string().as_bytes()),
                Value::Null => h.cell(b"null"),
            }
        }
        self.fold(h);
    }

    /// The digest of a result received as `chunks`.
    pub fn of_chunks(chunks: &[Vec<Row>]) -> Digest {
        let mut digest = Digest::default();
        chunks.iter().for_each(|c| digest.add_rows(c));
        digest
    }

    /// Fold every row of `rows`.
    pub fn add_rows(&mut self, rows: &[Row]) {
        rows.iter().for_each(|r| self.add_row(r));
    }

    /// Combine with the digest of a disjoint part of the same result.
    pub fn merge(&mut self, other: Digest) {
        self.rows += other.rows;
        self.checksum = self.checksum.wrapping_add(other.checksum);
    }
}

/// `a` contains `b` strictly at both ends (Allen *contains*; `b` *during* `a`).
pub fn contains(a: Iv, b: Iv) -> bool {
    a.ts < b.ts && b.te < a.te
}

/// General (TQuel) overlap: the two lifespans share a time point.
pub fn overlap(a: Iv, b: Iv) -> bool {
    a.ts < b.te && b.ts < a.te
}

/// Nested-loop reference: every `(a, b)` of `left × right` satisfying
/// `pred`, digested as the row `(id(a), id(b))`. A self-join passes one
/// relation twice; Quel pairs a tuple with itself too.
pub fn reference_join(
    left: &[Iv],
    right: &[Iv],
    pred: fn(Iv, Iv) -> bool,
    left_id: impl Fn(usize) -> String,
    right_id: impl Fn(usize) -> String,
) -> Digest {
    let right_ids: Vec<String> = (0..right.len()).map(&right_id).collect();
    let mut digest = Digest::default();
    for (i, &a) in left.iter().enumerate() {
        let mut id = None;
        for (j, &b) in right.iter().enumerate() {
            if pred(a, b) {
                let p = id.get_or_insert_with(|| left_id(i));
                digest.add_cells([p.as_str(), right_ids[j].as_str()]);
            }
        }
    }
    digest
}

/// Nested-loop reference for the Superstar query (§3): one row
/// `(Name, f1.ValidFrom, f2.ValidTo)` per `(f1, f2, f3)` with `f1` an
/// Assistant and `f2` a Full period of one person, both overlapping the
/// Associate period `f3` of anybody.
pub fn reference_superstar(faculty: &[FacultyTuple]) -> Digest {
    let iv = |t: &FacultyTuple| Iv {
        ts: t.period().start().ticks(),
        te: t.period().end().ticks(),
    };
    let of_rank = |rank: Rank| faculty.iter().filter(move |t| t.rank == rank);
    let associates: Vec<Iv> = of_rank(Rank::Associate).map(iv).collect();
    let mut digest = Digest::default();
    for f1 in of_rank(Rank::Assistant) {
        for f2 in of_rank(Rank::Full).filter(|f2| f2.name == f1.name) {
            let triples = associates
                .iter()
                .filter(|&&f3| overlap(iv(f1), f3) && overlap(iv(f2), f3))
                .count();
            let (from, to) = (iv(f1).ts.to_string(), iv(f2).te.to_string());
            for _ in 0..triples {
                digest.add_cells([f1.name.as_str(), from.as_str(), to.as_str()]);
            }
        }
    }
    digest
}

/// The surrogate number in an id such as `S17` or `x17`.
pub fn id_index(id: &str) -> Option<usize> {
    id.get(1..)?.parse().ok()
}

/// Do all `rows` `(P, Q)` name pairs of `left × right` satisfying `pred`?
pub fn all_pairs_satisfy(
    rows: &[Row],
    left: &[Iv],
    right: &[Iv],
    pred: fn(Iv, Iv) -> bool,
) -> bool {
    rows.iter().all(|row| {
        let side = |cell: usize, rel: &[Iv]| {
            row.values()
                .get(cell)
                .and_then(Value::as_str)
                .and_then(id_index)
                .and_then(|i| rel.get(i).copied())
        };
        matches!((side(0, left), side(1, right)), (Some(a), Some(b)) if pred(a, b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Row {
        Row::new(cells.iter().map(Value::str).collect())
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let rows = [row(&["S1", "S2"]), row(&["S3", "S4"]), row(&["S1", "S9"])];
        let mut forward = Digest::default();
        forward.add_rows(&rows);
        let mut backward = Digest::default();
        rows.iter().rev().for_each(|r| backward.add_row(r));
        assert_eq!(forward, backward);

        // Chunked and merged equals whole.
        let (mut head, mut tail) = (Digest::default(), Digest::default());
        head.add_rows(&rows[..1]);
        tail.add_rows(&rows[1..]);
        head.merge(tail);
        assert_eq!(head, forward);

        // Swapped cells, moved cell boundaries and a duplicate row all show.
        let mut swapped = Digest::default();
        swapped.add_rows(&[row(&["S2", "S1"]), row(&["S3", "S4"]), row(&["S1", "S9"])]);
        assert_ne!(swapped.checksum, forward.checksum);
        let (mut ab_c, mut a_bc) = (Digest::default(), Digest::default());
        ab_c.add_row(&row(&["ab", "c"]));
        a_bc.add_row(&row(&["a", "bc"]));
        assert_ne!(ab_c, a_bc);
        let mut doubled = forward;
        doubled.add_row(&rows[0]);
        assert_ne!(doubled, forward);
    }

    #[test]
    fn engine_rows_and_reference_cells_digest_alike() {
        let mut from_row = Digest::default();
        from_row.add_row(&Row::new(vec![
            Value::str("Smith"),
            Value::Time(tdb::prelude::TimePoint(3)),
            Value::Int(9),
        ]));
        let mut from_cells = Digest::default();
        from_cells.add_cells(["Smith", "3", "9"]);
        assert_eq!(from_row, from_cells);
    }

    #[test]
    fn reference_join_applies_the_predicate_to_every_pair() {
        let x = [Iv { ts: 0, te: 10 }, Iv { ts: 5, te: 7 }];
        let y = [
            Iv { ts: 1, te: 9 },
            Iv { ts: 0, te: 10 },
            Iv { ts: 6, te: 20 },
        ];
        let id = |tag: char| move |i: usize| format!("{tag}{i}");
        let d = reference_join(&x, &y, contains, id('S'), id('S'));
        assert_eq!(d.rows, 1); // only x0 ⊃ y0; equal ends do not contain
        let d = reference_join(&x, &y, overlap, id('S'), id('S'));
        assert_eq!(d.rows, 6);
        assert!(all_pairs_satisfy(&[row(&["S0", "S0"])], &x, &y, contains));
        assert!(!all_pairs_satisfy(&[row(&["S0", "S1"])], &x, &y, contains));
        assert!(!all_pairs_satisfy(&[row(&["S0", "S7"])], &x, &y, contains));
    }
}
