//! Crash-recovery property tests for the write-ahead log.
//!
//! Random TS-ascending arrival streams are ingested through a durable
//! [`LiveEngine`] in random-sized batches. The data directory (catalog +
//! WAL) is snapshotted at acknowledged batch boundaries, and crashes are
//! injected by reopening from a snapshot, by appending garbage bytes (a
//! torn tail), and by truncating the log at a random byte offset. In
//! every case reopening must reconstruct exactly the acknowledged state:
//! the watermark frontier, the catalog-promoted closed runs, and the
//! staged open suffix — never more, never a panic. A batch the engine
//! rejects must leave nothing behind that a reopen could restage. A
//! deterministic matrix checks that replay cost tracks the open window,
//! not the log length. A bulk reload killed on either side of its
//! manifest rename reopens exactly the rows that rename committed.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use tdb::live::{LiveConfig, LiveEngine, ReplaySummary};
use tdb::prelude::*;
use tdb::storage::{Catalog, IoStats};
use tdb_obs::Registry;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per case, so parallel proptest cases never
/// share state.
fn scratch() -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tdb-walrec-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Turn `(gap, dur)` pairs into TS-ascending interval rows with unique
/// surrogate names, so multiset comparison is exact.
fn rows_from(raw: &[(i64, i64)]) -> Vec<Row> {
    let mut ts = 0i64;
    raw.iter()
        .enumerate()
        .map(|(i, &(gap, dur))| {
            ts += gap;
            Row::new(vec![
                Value::str(format!("r{i}")),
                Value::str("Assistant"),
                Value::Time(TimePoint(ts)),
                Value::Time(TimePoint(ts + dur)),
            ])
        })
        .collect()
}

/// A sortable surrogate for multiset comparison of recovered rows.
fn key(r: &Row) -> (String, i64, i64) {
    let name = match r.get(0) {
        Value::Str(s) => s.to_string(),
        other => panic!("Name must be a string, got {other:?}"),
    };
    let t = |i: usize| match r.get(i) {
        Value::Time(t) => t.ticks(),
        other => panic!("attribute {i} must be a time, got {other:?}"),
    };
    (name, t(2), t(3))
}

fn keys_sorted(rows: &[Row]) -> Vec<(String, i64, i64)> {
    let mut ks: Vec<_> = rows.iter().map(key).collect();
    ks.sort();
    ks
}

/// Recursively copy `from` into `to` (the snapshot primitive).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// Open (or reopen) a durable catalog + live engine rooted at `dir`.
fn open(dir: &Path, slack: i64) -> (Catalog, LiveEngine, ReplaySummary) {
    let cat = Catalog::open_durable(dir.join("cat"), IoStats::new()).unwrap();
    let config = LiveConfig {
        slack,
        ..LiveConfig::default()
    };
    let (eng, replayed) =
        LiveEngine::open_durable(dir.join("wal"), config, &cat, &Registry::new()).unwrap();
    (cat, eng, replayed)
}

/// The observable acknowledged state of one relation, captured at a
/// batch boundary and compared after recovery.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    watermark: Option<TimePoint>,
    sealed: bool,
    staged: usize,
    admitted: u64,
    promoted: u64,
    catalog_rows: usize,
}

fn observe(cat: &Catalog, eng: &LiveEngine) -> Observed {
    let rel = eng.relation("S").unwrap();
    Observed {
        watermark: rel.watermark(),
        sealed: rel.is_sealed(),
        staged: rel.staged_len(),
        admitted: rel.admitted(),
        promoted: rel.promoted(),
        catalog_rows: cat.meta("S").unwrap().rows,
    }
}

/// Seal + advance a recovered engine and return the catalog's full
/// contents: every row the recovered state holds, closed or open.
fn drain(cat: &mut Catalog, eng: &mut LiveEngine) -> Vec<Row> {
    eng.seal(cat, "S").unwrap();
    cat.scan("S").unwrap()
}

/// Ingest `rows` in batches of the (cycled) `chunks` sizes, snapshotting
/// the data directory after every acknowledged batch. Returns the
/// snapshot directories, each paired with its acknowledged state and the
/// acknowledged row prefix length.
fn ingest_with_snapshots(
    dir: &Path,
    cat: &mut Catalog,
    eng: &mut LiveEngine,
    rows: &[Row],
    chunks: &[usize],
    seal_at_end: bool,
) -> Vec<(PathBuf, Observed, usize)> {
    let mut snaps = Vec::new();
    let mut start = 0usize;
    let mut chunk_idx = 0usize;
    while start < rows.len() {
        let n = chunks[chunk_idx % chunks.len()].min(rows.len() - start);
        chunk_idx += 1;
        eng.ingest(cat, "S", rows[start..start + n].to_vec())
            .unwrap();
        start += n;
        let snap = dir.join(format!("snap-{}", snaps.len()));
        copy_dir(&dir.join("cat"), &snap.join("cat"));
        copy_dir(&dir.join("wal"), &snap.join("wal"));
        snaps.push((snap, observe(cat, eng), start));
    }
    if seal_at_end {
        eng.seal(cat, "S").unwrap();
        let snap = dir.join(format!("snap-{}", snaps.len()));
        copy_dir(&dir.join("cat"), &snap.join("cat"));
        copy_dir(&dir.join("wal"), &snap.join("wal"));
        snaps.push((snap, observe(cat, eng), rows.len()));
    }
    snaps
}

/// Every snapshot must reopen to exactly its acknowledged state — twice
/// (the first reopen checkpoints the log, the second replays the
/// compacted form) — and draining the recovered engine must yield
/// exactly the acknowledged row prefix.
fn assert_snapshots_recover(snaps: &[(PathBuf, Observed, usize)], rows: &[Row]) {
    for (snap, acked, prefix) in snaps {
        {
            let (cat, eng, replayed) = open(snap, 0);
            assert_eq!(replayed.relations, 1, "{}", snap.display());
            assert_eq!(&observe(&cat, &eng), acked, "{}", snap.display());
        }
        // Second reopen: replay of the checkpoint-compacted log.
        let (mut cat, mut eng, replayed) = open(snap, 0);
        assert_eq!(&observe(&cat, &eng), acked, "after checkpoint");
        assert!(
            replayed.rows_restaged <= acked.staged,
            "compacted log replays at most the open window"
        );
        let drained = drain(&mut cat, &mut eng);
        assert_eq!(
            keys_sorted(&drained),
            keys_sorted(&rows[..*prefix]),
            "recovered contents must equal the acknowledged prefix"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Reopening any acknowledged-boundary snapshot reconstructs the
    /// acknowledged state exactly: frontier, seal flag, promoted runs,
    /// staged open suffix, and the full row contents.
    #[test]
    fn recovery_reconstructs_every_acknowledged_boundary(
        raw in proptest::collection::vec((0i64..4, 1i64..30), 1..24),
        chunks in proptest::collection::vec(1usize..5, 1..8),
        seal_at_end in any::<bool>(),
    ) {
        let dir = scratch();
        let rows = rows_from(&raw);
        let (mut cat, mut eng, fresh) = open(&dir, 0);
        prop_assert_eq!(fresh.relations, 0, "fresh directory has no logs");
        eng.register(
            &mut cat,
            "S",
            TemporalSchema::time_sequence("Name", "Rank"),
            StreamOrder::TS_ASC,
        )
        .unwrap();
        let snaps = ingest_with_snapshots(&dir, &mut cat, &mut eng, &rows, &chunks, seal_at_end);
        assert_snapshots_recover(&snaps, &rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn tail — garbage bytes appended past the last fsynced frame,
    /// as a crash mid-write leaves — is truncated on replay, and the
    /// recovered state is exactly the acknowledged one.
    #[test]
    fn torn_tail_is_cut_back_to_acknowledged_state(
        raw in proptest::collection::vec((0i64..4, 1i64..30), 1..20),
        garbage in proptest::collection::vec(any::<u8>(), 1..96),
    ) {
        let dir = scratch();
        let rows = rows_from(&raw);
        let (mut cat, mut eng, _) = open(&dir, 0);
        eng.register(
            &mut cat,
            "S",
            TemporalSchema::time_sequence("Name", "Rank"),
            StreamOrder::TS_ASC,
        )
        .unwrap();
        eng.ingest(&mut cat, "S", rows.clone()).unwrap();
        let acked = observe(&cat, &eng);
        let snap = dir.join("snap-torn");
        copy_dir(&dir.join("cat"), &snap.join("cat"));
        copy_dir(&dir.join("wal"), &snap.join("wal"));
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(snap.join("wal").join("S.wal"))
                .unwrap();
            f.write_all(&garbage).unwrap();
        }
        let (mut rcat, mut reng, replayed) = open(&snap, 0);
        prop_assert!(replayed.torn_truncations >= 1, "{replayed:?}");
        prop_assert_eq!(&observe(&rcat, &reng), &acked);
        let drained = drain(&mut rcat, &mut reng);
        prop_assert_eq!(keys_sorted(&drained), keys_sorted(&rows));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the log at an arbitrary byte offset (with promotions
    /// disabled via a huge slack, so the catalog stays fixed and every
    /// cut is a consistent crash state) recovers a prefix of the
    /// acknowledged stream: at least everything up to the last batch
    /// boundary at or below the cut, never more than was submitted, and
    /// always without error.
    #[test]
    fn random_byte_truncation_recovers_an_acknowledged_prefix(
        raw in proptest::collection::vec((0i64..4, 1i64..30), 2..24),
        chunks in proptest::collection::vec(1usize..5, 1..8),
        frac in 0u64..1000,
    ) {
        const NO_CLOSE: i64 = 1 << 40;
        let dir = scratch();
        let rows = rows_from(&raw);
        let (mut cat, mut eng, _) = open(&dir, NO_CLOSE);
        eng.register(
            &mut cat,
            "S",
            TemporalSchema::time_sequence("Name", "Rank"),
            StreamOrder::TS_ASC,
        )
        .unwrap();
        let wal_file = dir.join("wal").join("S.wal");
        let base = std::fs::metadata(&wal_file).unwrap().len();
        // Byte size of the log and admitted count at each batch boundary.
        let mut boundaries: Vec<(u64, usize)> = vec![(base, 0)];
        let mut start = 0usize;
        let mut chunk_idx = 0usize;
        while start < rows.len() {
            let n = chunks[chunk_idx % chunks.len()].min(rows.len() - start);
            chunk_idx += 1;
            eng.ingest(&mut cat, "S", rows[start..start + n].to_vec()).unwrap();
            start += n;
            boundaries.push((std::fs::metadata(&wal_file).unwrap().len(), start));
        }
        let final_len = boundaries.last().unwrap().0;
        let cut = base + (final_len - base) * frac / 1000;

        let snap = dir.join("snap-cut");
        copy_dir(&dir.join("cat"), &snap.join("cat"));
        copy_dir(&dir.join("wal"), &snap.join("wal"));
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(snap.join("wal").join("S.wal"))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let (mut rcat, mut reng, _) = open(&snap, NO_CLOSE);
        let got = observe(&rcat, &reng);
        let floor = boundaries
            .iter()
            .filter(|(size, _)| *size <= cut)
            .map(|&(_, n)| n)
            .max()
            .unwrap_or(0);
        let recovered = got.admitted as usize;
        prop_assert!(
            recovered >= floor,
            "cut at {cut} must keep the {floor}-row acknowledged prefix, got {recovered}"
        );
        prop_assert!(recovered <= rows.len());
        prop_assert_eq!(got.promoted, 0, "no promotions under a huge slack");
        prop_assert_eq!(got.catalog_rows, 0);
        prop_assert_eq!(got.staged, recovered);
        // Complete frames replay in arrival order: the recovered rows
        // are exactly the first `recovered` arrivals.
        let drained = drain(&mut rcat, &mut reng);
        prop_assert_eq!(keys_sorted(&drained), keys_sorted(&rows[..recovered]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A batch with a late row is refused whole: none of its rows — neither
/// those before the late one nor those after it — reaches the log, so a
/// crash after the next accepted batch recovers only that batch.
#[test]
fn a_rejected_batch_leaves_nothing_to_recover() {
    let dir = scratch();
    let row = |name: &str, ts: i64, te: i64| {
        Row::new(vec![
            Value::str(name),
            Value::str("Assistant"),
            Value::Time(TimePoint(ts)),
            Value::Time(TimePoint(te)),
        ])
    };
    let (mut cat, mut eng, _) = open(&dir, 0);
    eng.register(
        &mut cat,
        "S",
        TemporalSchema::time_sequence("Name", "Rank"),
        StreamOrder::TS_ASC,
    )
    .unwrap();
    let rejected = vec![
        row("a", 0, 10),
        row("b", 5, 6),
        row("late", 3, 9),
        row("c", 7, 8),
    ];
    let err = eng.ingest(&mut cat, "S", rejected).unwrap_err();
    assert!(matches!(err, TdbError::OrderViolation { .. }), "{err}");
    eng.ingest(&mut cat, "S", vec![row("d", 20, 21)]).unwrap();
    let acked = observe(&cat, &eng);
    assert_eq!(acked.admitted, 1, "{acked:?}");

    // Crash: the snapshot holds exactly what reached the disk.
    let snap = dir.join("snap-crash");
    copy_dir(&dir.join("cat"), &snap.join("cat"));
    copy_dir(&dir.join("wal"), &snap.join("wal"));
    drop(eng);
    let (mut rcat, mut reng, replayed) = open(&snap, 0);
    assert_eq!(replayed.rows_restaged, 1, "{replayed:?}");
    assert_eq!(observe(&rcat, &reng), acked);
    let names: Vec<String> = keys_sorted(&drain(&mut rcat, &mut reng))
        .into_iter()
        .map(|(name, _, _)| name)
        .collect();
    assert_eq!(names, ["d"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every promotion's checkpoint truncates the replayed prefix, so a
/// reopen replays only the open window. Unit-gap arrivals under slack `w`
/// leave exactly `w + 1` rows open, which makes the window a controlled
/// variable: a 4× longer log must barely move the replayed bytes, a 4×
/// wider window must move them.
#[test]
fn replay_cost_tracks_the_open_window_not_the_log_length() {
    let mut replayed = BTreeMap::new();
    for window in [16usize, 64] {
        for length in [400usize, 1_600] {
            let dir = scratch();
            {
                let (mut cat, mut eng, _) = open(&dir, window as i64);
                eng.register(
                    &mut cat,
                    "S",
                    TemporalSchema::time_sequence("Name", "Rank"),
                    StreamOrder::TS_ASC,
                )
                .unwrap();
                for batch in rows_from(&vec![(1, 5); length]).chunks(64) {
                    eng.ingest(&mut cat, "S", batch.to_vec()).unwrap();
                }
            }
            let (cat, eng, summary) = open(&dir, window as i64);
            let got = observe(&cat, &eng);
            let cell = format!("window {window}, log {length}");
            assert_eq!(got.staged, window + 1, "{cell}");
            assert_eq!(got.admitted as usize, length, "{cell}");
            assert_eq!(got.catalog_rows, length - window - 1, "{cell}");
            replayed.insert((window, length), summary.bytes);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for window in [16, 64] {
        let (short, long) = (replayed[&(window, 400)], replayed[&(window, 1_600)]);
        assert!(
            long <= short + short / 4,
            "window {window}: replayed bytes grew with the log ({short} → {long})"
        );
    }
    for length in [400, 1_600] {
        let (narrow, wide) = (replayed[&(16, length)], replayed[&(64, length)]);
        assert!(
            wide >= 2 * narrow,
            "log {length}: a 4× wider window replayed {narrow} → {wide} bytes"
        );
    }
}

/// Every file directly in `dir`, by name.
fn files_in(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// Load 2 000 TS-ascending rows into `S` of a durable catalog, then
/// reload it with `new_rows` and kill the reload: the directory keeps
/// what the reload wrote, with every file it removed put back, and with
/// `catalog.json` put back too when the kill came before the manifest
/// rename (`renamed` false). Returns the directory, the loaded rows and
/// the files the reload created and removed.
fn killed_reload(new_rows: &[Row], renamed: bool) -> (PathBuf, Vec<Row>, Vec<String>, Vec<String>) {
    let dir = scratch();
    let schema = || TemporalSchema::time_sequence("Name", "Rank");
    let old_rows = rows_from(&vec![(2, 7); 2_000]);
    let mut cat = Catalog::open_durable(&dir, IoStats::new()).unwrap();
    cat.create_relation("S", schema(), &old_rows, vec![StreamOrder::TS_ASC])
        .unwrap();
    let before = files_in(&dir);
    cat.create_relation("S", schema(), new_rows, vec![])
        .unwrap();
    drop(cat);
    let after = files_in(&dir);
    let created = after.keys().filter(|f| !before.contains_key(*f));
    let removed = before.keys().filter(|f| !after.contains_key(*f));
    let (created, removed): (Vec<String>, Vec<String>) =
        (created.cloned().collect(), removed.cloned().collect());
    for (name, bytes) in &before {
        if removed.contains(name) || (!renamed && name == "catalog.json") {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
    (dir, old_rows, created, removed)
}

/// A reload longer and one shorter than the stored heap, each in
/// descending TS order.
fn reloads() -> [Vec<Row>; 2] {
    [2_073, 150].map(|n| rows_from(&vec![(3, 4); n]).into_iter().rev().collect())
}

#[test]
fn a_reload_killed_before_its_manifest_rename_reopens_the_previous_rows() {
    for new_rows in reloads() {
        let (dir, old_rows, created, _) = killed_reload(&new_rows, false);
        let cat = Catalog::open_durable(&dir, IoStats::new()).unwrap();
        let case = format!("reload of {} rows", new_rows.len());
        assert_eq!(cat.scan("S").unwrap(), old_rows, "{case}");
        let meta = cat.meta("S").unwrap();
        assert_eq!(meta.rows, old_rows.len(), "{case}");
        assert_eq!(meta.known_orders, vec![StreamOrder::TS_ASC], "{case}");
        for file in created {
            assert!(!dir.join(&file).exists(), "{case}: orphan {file} kept");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_reload_killed_after_its_manifest_rename_reopens_the_new_rows() {
    for new_rows in reloads() {
        let (dir, _, _, removed) = killed_reload(&new_rows, true);
        assert!(!removed.is_empty(), "the reload replaced the loaded heap");
        let cat = Catalog::open_durable(&dir, IoStats::new()).unwrap();
        let case = format!("reload of {} rows", new_rows.len());
        assert_eq!(cat.scan("S").unwrap(), new_rows, "{case}");
        assert!(cat.meta("S").unwrap().known_orders.is_empty(), "{case}");
        for file in removed {
            assert!(!dir.join(&file).exists(), "{case}: replaced {file} kept");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
