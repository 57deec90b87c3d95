//! The interval relations live ingestion uses, and the watermark-closed
//! prefix a standing query may have seen: shared by the suites that
//! check live deltas against batch execution.

use std::collections::BTreeMap;
use tdb::prelude::*;
use tdb::storage::Codec;

/// `Id: Str, Seq: Int, ValidFrom: Time, ValidTo: Time`, as `\gen
/// intervals` and first-use ingestion create them.
pub fn interval_schema() -> TemporalSchema {
    TemporalSchema::new(
        tdb::core::Schema::new(vec![
            tdb::core::Field::new("Id", tdb::core::FieldType::Str),
            tdb::core::Field::new("Seq", tdb::core::FieldType::Int),
            tdb::core::Field::new("ValidFrom", tdb::core::FieldType::Time),
            tdb::core::Field::new("ValidTo", tdb::core::FieldType::Time),
        ]),
        2,
        3,
    )
    .unwrap()
}

/// A row's `ValidFrom` ticks.
pub fn ts_of(row: &Row) -> i64 {
    match row.get(2) {
        Value::Time(t) => t.ticks(),
        other => panic!("ValidFrom must be a time, got {other:?}"),
    }
}

/// The watermark-closed prefix of `arrived` under slack 0 on (TS↑):
/// everything strictly below the maximum TS seen — equal keys may still
/// gain peers, so they stay open. `sealed` closes everything.
pub fn closed_prefix(arrived: &[Row], sealed: bool) -> Vec<Row> {
    if sealed {
        return arrived.to_vec();
    }
    let Some(max_ts) = arrived.iter().map(ts_of).max() else {
        return Vec::new();
    };
    arrived
        .iter()
        .filter(|r| ts_of(r) < max_ts)
        .cloned()
        .collect()
}

pub fn multiset(rows: &[Row]) -> BTreeMap<Vec<u8>, usize> {
    let mut out = BTreeMap::new();
    for row in rows {
        *out.entry(row.to_bytes().to_vec()).or_insert(0) += 1;
    }
    out
}

/// A fresh catalog at `dir` holding `x` and `y` as the TS↑ relations `X`
/// and `Y`: what batch execution over the closed prefixes reads.
pub fn batch_catalog(dir: &std::path::Path, x: &[Row], y: &[Row]) -> Catalog {
    let _ = std::fs::remove_dir_all(dir);
    let mut cat = Catalog::open(dir, IoStats::new()).unwrap();
    for (name, rows) in [("X", x), ("Y", y)] {
        let mut rows = rows.to_vec();
        rows.sort_by_key(ts_of);
        cat.create_relation(name, interval_schema(), &rows, vec![StreamOrder::TS_ASC])
            .unwrap();
    }
    cat
}
