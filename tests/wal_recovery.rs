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
//! rejects must leave nothing behind that a reopen could restage.
//!
//! A snapshot keeps every byte written, as the page cache does when only
//! the process dies. A power cut also loses what was never synced: the
//! power-cut tests truncate, zero or scramble the heap bytes past the page
//! count each snapshot's manifest names, after plain promotions and after
//! the manifest writes a load or a registration makes mid-stream. A
//! matrix reopens every pairing of manifest and log a crash inside a
//! checkpoint can leave. A deterministic matrix checks that replay reads
//! at most the checkpoint bound, and only the open window once compacted.
//! A bulk reload killed on either side of its manifest rename reopens
//! exactly the rows that rename committed. Snapshots taken at every
//! catalog sync inside a registration and inside a load of a live
//! relation — between the new log or manifest and the checkpoint that
//! re-bases the logs — reopen the state before or after the step.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tdb::live::{LiveConfig, LiveEngine, ReplaySummary};
use tdb::prelude::*;
use tdb::storage::{Catalog, IoStats, PAGE_SIZE};
use tdb::wal::CHECKPOINT_BYTES;
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

/// Copy `dir`'s catalog and log directories into `dir/name`: the files a
/// crash at this point would leave, page cache included.
fn snapshot(dir: &Path, name: &str) -> PathBuf {
    let snap = dir.join(name);
    copy_dir(&dir.join("cat"), &snap.join("cat"));
    copy_dir(&dir.join("wal"), &snap.join("wal"));
    snap
}

/// Open (or reopen) a durable catalog + live engine rooted at `dir`.
fn try_open(dir: &Path, slack: i64) -> TdbResult<(Catalog, LiveEngine, ReplaySummary)> {
    let mut cat = Catalog::open_durable(dir.join("cat"), IoStats::new())?;
    let config = LiveConfig {
        slack,
        ..LiveConfig::default()
    };
    let (eng, replayed) =
        LiveEngine::open_durable(dir.join("wal"), config, &mut cat, &Registry::new())?;
    Ok((cat, eng, replayed))
}

fn open(dir: &Path, slack: i64) -> (Catalog, LiveEngine, ReplaySummary) {
    try_open(dir, slack).unwrap()
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
    observe_rel(cat, eng, "S")
}

fn observe_rel(cat: &Catalog, eng: &LiveEngine, name: &str) -> Observed {
    let rel = eng.relation(name).unwrap();
    Observed {
        watermark: rel.watermark(),
        sealed: rel.is_sealed(),
        staged: rel.staged_len(),
        admitted: rel.admitted(),
        promoted: rel.promoted(),
        catalog_rows: cat.meta(name).unwrap().rows,
    }
}

/// Seal + advance a recovered engine and return the catalog's full
/// contents: every row the recovered state holds, closed or open.
fn drain(cat: &mut Catalog, eng: &mut LiveEngine) -> Vec<Row> {
    drain_rel(cat, eng, "S")
}

fn drain_rel(cat: &mut Catalog, eng: &mut LiveEngine, name: &str) -> Vec<Row> {
    eng.seal(cat, name).unwrap();
    cat.scan(name).unwrap()
}

/// What a power cut leaves of the heap bytes no manifest names.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// Cut short at a random length.
    Truncated,
    /// Replaced by zeros of a random length.
    Zeroed,
    /// Replaced by random bytes of a random length.
    Random,
}

const CUTS: [Cut; 3] = [Cut::Truncated, Cut::Zeroed, Cut::Random];

/// Cut every heap file of the snapshot at `snap` past the page count its
/// manifest names — the bytes the durability protocol leaves unsynced —
/// as `cut` says, with lengths and bytes drawn from `seed`.
fn power_cut(snap: &Path, cut: Cut, seed: u64) {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let dir = snap.join("cat");
    let manifest = Catalog::open(&dir, IoStats::new()).unwrap();
    for name in manifest.relation_names() {
        let meta = manifest.meta(&name).unwrap();
        let path = dir.join(&meta.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let synced = meta.pages.unwrap() as usize * PAGE_SIZE;
        let unsynced = bytes.len() - synced;
        let len = (next() % (unsynced + PAGE_SIZE + 1) as u64) as usize;
        match cut {
            Cut::Truncated => bytes.truncate(synced + len.min(unsynced)),
            Cut::Zeroed => {
                bytes.truncate(synced);
                bytes.resize(synced + len, 0);
            }
            Cut::Random => {
                bytes.truncate(synced);
                bytes.extend((0..len).map(|_| next() as u8));
            }
        }
        std::fs::write(&path, bytes).unwrap();
    }
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
        let snap = snapshot(dir, &format!("snap-{}", snaps.len()));
        snaps.push((snap, observe(cat, eng), start));
    }
    if seal_at_end {
        eng.seal(cat, "S").unwrap();
        let snap = snapshot(dir, &format!("snap-{}", snaps.len()));
        snaps.push((snap, observe(cat, eng), rows.len()));
    }
    snaps
}

/// Register `S` in a fresh durable directory and ingest `rows` with a
/// snapshot after every acknowledged batch (see
/// [`ingest_with_snapshots`]).
fn fresh_snapshots(
    dir: &Path,
    rows: &[Row],
    chunks: &[usize],
    seal_at_end: bool,
) -> Vec<(PathBuf, Observed, usize)> {
    let (mut cat, mut eng, fresh) = open(dir, 0);
    assert_eq!(fresh.relations, 0, "fresh directory has no logs");
    eng.register(
        &mut cat,
        "S",
        TemporalSchema::time_sequence("Name", "Rank"),
        StreamOrder::TS_ASC,
    )
    .unwrap();
    ingest_with_snapshots(dir, &mut cat, &mut eng, rows, chunks, seal_at_end)
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
        let snaps = fresh_snapshots(&dir, &rows, &chunks, seal_at_end);
        assert_snapshots_recover(&snaps, &rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A power cut loses the heap pages appended since the manifest was
    /// last written — truncated, zeroed or scrambled — and every
    /// acknowledged boundary still reopens, twice, to exactly its state:
    /// replay re-applies the promotions from the log.
    #[test]
    fn a_power_cut_reopens_every_acknowledged_boundary(
        raw in proptest::collection::vec((0i64..4, 1i64..30), 1..24),
        chunks in proptest::collection::vec(1usize..5, 1..8),
        seal_at_end in any::<bool>(),
        cuts in proptest::collection::vec((0usize..3, any::<u64>()), 1..8),
    ) {
        let dir = scratch();
        let rows = rows_from(&raw);
        let snaps = fresh_snapshots(&dir, &rows, &chunks, seal_at_end);
        for (i, (snap, _, _)) in snaps.iter().enumerate() {
            let (cut, seed) = cuts[i % cuts.len()];
            power_cut(snap, CUTS[cut], seed);
        }
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
        let snap = snapshot(&dir, "snap-torn");
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

        let snap = snapshot(&dir, "snap-cut");
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
    let snap = snapshot(&dir, "snap-crash");
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

/// One acknowledged step of a two-stream session: a batch into a live
/// relation, a static load, or the registration of `Y`.
enum Step {
    Ingest(&'static str),
    Load,
    Register,
}

/// A snapshot, whether the load had happened, and each live relation's
/// acknowledged state and row count.
struct Snap {
    at: PathBuf,
    loaded: bool,
    acked: Vec<(&'static str, Observed, usize)>,
}

/// `X` promotes, a static relation loads and `Y` registers — as in the
/// benchmark, where `Y` registers after `X`'s first promotion — and the
/// two streams interleave. The load and the registration each write the
/// manifest while `X`'s promotions since its last checkpoint sit unsynced
/// in its heap, so that write must sync the heap first; and the manifest
/// then counts promoted rows `X`'s log does not mark as promoted. After a
/// power cut at every acknowledged boundary (the load's included, before
/// any checkpoint rewrote `X`'s log), both relations reopen, twice, to
/// exactly their acknowledged state and rows.
#[test]
fn a_registration_after_promotion_survives_a_power_cut() {
    let dir = scratch();
    let schema = || TemporalSchema::time_sequence("Name", "Rank");
    let x_rows = rows_from(&vec![(2, 5); 44]);
    let y_rows = rows_from(&vec![(3, 4); 24]);
    let (mut cat, mut eng, _) = open(&dir, 0);
    eng.register(&mut cat, "X", schema(), StreamOrder::TS_ASC)
        .unwrap();
    let mut script: Vec<Step> = (0..4).map(|_| Step::Ingest("X")).collect();
    script.extend([Step::Load, Step::Ingest("X"), Step::Register]);
    for _ in 0..6 {
        script.extend([Step::Ingest("Y"), Step::Ingest("X")]);
    }
    let mut snaps: Vec<Snap> = Vec::new();
    let mut sent = BTreeMap::from([("X", 0usize), ("Y", 0usize)]);
    for step in script {
        match step {
            Step::Ingest(name) => {
                let rows = if name == "X" { &x_rows } else { &y_rows };
                let start = sent[name];
                eng.ingest(&mut cat, name, rows[start..start + 4].to_vec())
                    .unwrap();
                sent.insert(name, start + 4);
            }
            Step::Load => cat
                .create_relation("Z", schema(), &y_rows, vec![StreamOrder::TS_ASC])
                .unwrap(),
            Step::Register => eng
                .register(&mut cat, "Y", schema(), StreamOrder::TS_ASC)
                .unwrap(),
        }
        let acked = ["X", "Y"]
            .into_iter()
            .filter(|name| eng.is_live(name))
            .map(|name| (name, observe_rel(&cat, &eng, name), sent[name]))
            .collect();
        snaps.push(Snap {
            at: snapshot(&dir, &format!("snap-{}", snaps.len())),
            loaded: cat.meta("Z").is_ok(),
            acked,
        });
    }
    drop(eng);
    let all = BTreeMap::from([("X", x_rows.clone()), ("Y", y_rows.clone())]);
    for (i, Snap { at, loaded, acked }) in snaps.iter().enumerate() {
        power_cut(at, CUTS[i % CUTS.len()], i as u64);
        for reopen in ["first", "second"] {
            let (mut cat, mut eng, replayed) = open(at, 0);
            let case = format!("{} ({reopen} reopen)", at.display());
            assert_eq!(replayed.relations, acked.len(), "{case}");
            if *loaded {
                assert_eq!(cat.scan("Z").unwrap(), y_rows, "{case}");
            }
            for (name, state, _) in acked {
                assert_eq!(&observe_rel(&cat, &eng, name), state, "{case}: {name}");
            }
            if reopen == "second" {
                for (name, _, prefix) in acked {
                    assert_eq!(
                        keys_sorted(&drain_rel(&mut cat, &mut eng, name)),
                        keys_sorted(&all[name][..*prefix]),
                        "{case}: {name} must hold its acknowledged prefix"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// From now on, snapshot `dir` (see [`snapshot`]) at every sync `cat`
/// makes, as `sync-0`, `sync-1`, …: each is what a crash right after that
/// sync leaves, page cache included. Returns the shared snapshot count.
fn snapshot_at_every_sync(cat: &mut Catalog, dir: &Path) -> Arc<AtomicUsize> {
    let taken = Arc::new(AtomicUsize::new(0));
    let (count, dir) = (Arc::clone(&taken), dir.to_path_buf());
    cat.observe_syncs(move |_| {
        let k = count.fetch_add(1, Ordering::Relaxed);
        snapshot(&dir, &format!("sync-{k}"));
    });
    taken
}

/// The heap file the log of `name` in the snapshot at `snap` counts its
/// checkpoint's promoted rows in, if it names one.
fn logged_heap(snap: &Path, name: &str) -> Option<String> {
    let log = tdb::wal::replay(&snap.join("wal").join(format!("{name}.wal"))).unwrap();
    log.records.into_iter().rev().find_map(|r| match r {
        WalRecord::Heap { file } => Some(file),
        _ => None,
    })
}

/// Registering a relation that already holds rows writes a log whose
/// baseline counts those rows, then checkpoints. A crash at any catalog
/// sync in between — while `X`'s promotions since its last checkpoint sit
/// unsynced in its heap — reopens, twice, with `X` exactly acknowledged
/// and `B` either static or live over its rows, never as an error.
#[test]
fn a_crash_inside_a_registration_reopens_before_or_after_it() {
    let dir = scratch();
    let schema = || TemporalSchema::time_sequence("Name", "Rank");
    let x_rows = rows_from(&vec![(2, 5); 24]);
    let b_rows: Vec<Row> = rows_from(&vec![(1, 3); 30])
        .into_iter()
        .map(|r| {
            let mut v = r.values().to_vec();
            v[0] = Value::str(format!("b-{}", key(&r).0));
            Row::new(v)
        })
        .collect();
    let (mut cat, mut eng, _) = open(&dir, 0);
    eng.register(&mut cat, "X", schema(), StreamOrder::TS_ASC)
        .unwrap();
    eng.ingest(&mut cat, "X", x_rows[..12].to_vec()).unwrap();
    cat.create_relation("B", schema(), &b_rows, vec![StreamOrder::TS_ASC])
        .unwrap();
    eng.ingest(&mut cat, "X", x_rows[12..].to_vec()).unwrap();
    let acked = observe_rel(&cat, &eng, "X");
    assert!(acked.catalog_rows > 0, "{acked:?}");
    let taken = snapshot_at_every_sync(&mut cat, &dir);
    eng.register(&mut cat, "B", schema(), StreamOrder::TS_ASC)
        .unwrap();
    drop(eng);
    let mut live_at_reopen = 0;
    for k in 0..taken.load(Ordering::Relaxed) {
        let at = dir.join(format!("sync-{k}"));
        power_cut(&at, CUTS[k % CUTS.len()], k as u64);
        for reopen in ["first", "second"] {
            let case = format!("{} ({reopen} reopen)", at.display());
            let (mut cat, mut eng, _) = try_open(&at, 0).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(observe_rel(&cat, &eng, "X"), acked, "{case}");
            assert_eq!(cat.scan("B").unwrap(), b_rows, "{case}");
            if let Some(b) = eng.relation("B") {
                live_at_reopen += 1;
                assert_eq!((b.staged_len(), b.watermark()), (0, None), "{case}");
                assert_eq!(b.promoted() as usize, b_rows.len(), "{case}");
            }
            if reopen == "second" {
                assert_eq!(
                    keys_sorted(&drain_rel(&mut cat, &mut eng, "X")),
                    keys_sorted(&x_rows),
                    "{case}"
                );
            }
        }
    }
    assert!(
        live_at_reopen > 0,
        "some sync must fall between the new log and its checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A load that replaces a live relation's rows checkpoints before and
/// after its manifest rename. A crash at any catalog sync inside it — in
/// particular after the rename, while the log still counts in the
/// replaced heap — reopens, twice, to the state before the load or the
/// state after it: the same watermark and open rows, over the old
/// promoted rows or the loaded ones.
#[test]
fn a_crash_inside_a_live_reload_reopens_before_or_after_it() {
    let dir = scratch();
    let schema = || TemporalSchema::time_sequence("Name", "Rank");
    let rows = rows_from(&vec![(2, 5); 40]);
    let loaded: Vec<Row> = (0..25)
        .map(|i| {
            Row::new(vec![
                Value::str(format!("z{i}")),
                Value::str("Assistant"),
                Value::Time(TimePoint(-100 + i)),
                Value::Time(TimePoint(-90 + i)),
            ])
        })
        .collect();
    let (mut cat, mut eng, _) = open(&dir, 6);
    eng.register(&mut cat, "S", schema(), StreamOrder::TS_ASC)
        .unwrap();
    for batch in rows.chunks(5) {
        eng.ingest(&mut cat, "S", batch.to_vec()).unwrap();
    }
    let state = |cat: &Catalog, eng: &LiveEngine| {
        let rel = eng.relation("S").unwrap();
        (
            rel.watermark(),
            rel.staged_len(),
            cat.meta("S").unwrap().rows,
        )
    };
    let before = state(&cat, &eng);
    assert!(before.1 > 0 && before.2 > 0, "{before:?}");
    let open_rows: Vec<Row> = rows[rows.len() - before.1..].to_vec();
    let taken = snapshot_at_every_sync(&mut cat, &dir);
    eng.load(&mut cat, "S", schema(), &loaded, vec![StreamOrder::TS_ASC])
        .unwrap();
    let after = state(&cat, &eng);
    assert_eq!(after, (before.0, before.1, loaded.len()));
    drop(eng);
    let (mut old, mut new, mut rebasing) = (0, 0, 0);
    for k in 0..taken.load(Ordering::Relaxed) {
        let at = dir.join(format!("sync-{k}"));
        let heap = Catalog::open(at.join("cat"), IoStats::new())
            .unwrap()
            .meta("S")
            .unwrap()
            .file
            .clone();
        if logged_heap(&at, "S").is_some_and(|f| f != heap) {
            rebasing += 1;
        }
        power_cut(&at, CUTS[k % CUTS.len()], k as u64);
        for reopen in ["first", "second"] {
            let case = format!("{} ({reopen} reopen)", at.display());
            let (mut cat, mut eng, _) = try_open(&at, 6).unwrap_or_else(|e| panic!("{case}: {e}"));
            let got = state(&cat, &eng);
            let want = if got == after {
                new += 1;
                [&loaded[..], &open_rows].concat()
            } else {
                assert_eq!(got, before, "{case}");
                old += 1;
                rows.clone()
            };
            if reopen == "second" {
                assert_eq!(
                    keys_sorted(&drain(&mut cat, &mut eng)),
                    keys_sorted(&want),
                    "{case}"
                );
            }
        }
    }
    assert!(
        old > 0 && new > 0,
        "{old} reopens before the load, {new} after"
    );
    assert!(
        rebasing > 0,
        "some sync must fall between the rename and the log's re-basing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint syncs the heaps, then writes the manifest and syncs its
/// directory, and only then rewrites the logs. A crash inside it leaves
/// one of three pairings, each with the heaps as synced: the old manifest
/// and old log, the new manifest and old log, or both new. Each reopens,
/// twice, to exactly the acknowledged state. The fourth pairing — the old
/// manifest with the new log — cannot occur; a reopen would find the
/// log's checkpoint counting rows the manifest does not hold, a typed
/// error rather than a silent loss.
#[test]
fn every_crash_inside_a_checkpoint_reopens_the_acknowledged_state() {
    let dir = scratch();
    let rows = rows_from(&vec![(1, 3); 60]);
    let (mut cat, mut eng, _) = open(&dir, 2);
    eng.register(
        &mut cat,
        "S",
        TemporalSchema::time_sequence("Name", "Rank"),
        StreamOrder::TS_ASC,
    )
    .unwrap();
    for batch in rows.chunks(7) {
        eng.ingest(&mut cat, "S", batch.to_vec()).unwrap();
    }
    let acked = observe(&cat, &eng);
    assert!(acked.catalog_rows > 0 && acked.staged > 0, "{acked:?}");
    let old = snapshot(&dir, "old");
    assert_eq!(eng.checkpoint(&mut cat).unwrap(), 1);
    assert_eq!(observe(&cat, &eng), acked);
    let new = snapshot(&dir, "new");
    drop(eng);

    let pairing = |manifest: &Path, wal: &Path, name: &str| {
        let at = dir.join(name);
        copy_dir(&new.join("cat"), &at.join("cat"));
        std::fs::copy(
            manifest.join("cat").join("catalog.json"),
            at.join("cat").join("catalog.json"),
        )
        .unwrap();
        copy_dir(&wal.join("wal"), &at.join("wal"));
        at
    };
    for (manifest, wal, name) in [
        (&old, &old, "old-old"),
        (&new, &old, "new-old"),
        (&new, &new, "new-new"),
    ] {
        let at = pairing(manifest, wal, name);
        for reopen in ["first", "second"] {
            let (mut cat, mut eng, _) = open(&at, 2);
            assert_eq!(observe(&cat, &eng), acked, "{name} ({reopen} reopen)");
            if reopen == "second" {
                let drained = drain(&mut cat, &mut eng);
                assert_eq!(keys_sorted(&drained), keys_sorted(&rows), "{name}");
            }
        }
    }
    let at = pairing(&old, &new, "old-new");
    assert!(
        matches!(try_open(&at, 2), Err(TdbError::Corrupt(_))),
        "a log checkpointed past its manifest must not open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rows about 1 KiB wide, so a log passes [`CHECKPOINT_BYTES`] within
/// about a thousand of them; unit gaps, as [`rows_from`] with `(1, 5)`.
fn wide_rows(n: usize) -> Vec<Row> {
    let pad = "x".repeat(1_000);
    (0..n as i64)
        .map(|i| {
            Row::new(vec![
                Value::str(format!("r{i}")),
                Value::str(pad.as_str()),
                Value::Time(TimePoint(i)),
                Value::Time(TimePoint(i + 5)),
            ])
        })
        .collect()
}

/// A log that grows by more than [`CHECKPOINT_BYTES`] since its last
/// checkpoint is checkpointed in the same epoch, so a reopen replays at
/// most that many bytes plus the open window the last checkpoint kept,
/// however long the stream grew: logs 1× and 4× past the bound both
/// replay within it. Unit-gap arrivals under slack `w` leave exactly
/// `w + 1` rows open, which makes the window a controlled variable: once
/// a reopen has compacted the log, the next replays only the open window,
/// so a 4× longer stream must barely move those bytes and a 4× wider
/// window must move them.
#[test]
fn replay_cost_tracks_the_open_window_not_the_log_length() {
    let per_bound = (CHECKPOINT_BYTES / 1_000) as usize;
    let mut compacted = BTreeMap::new();
    for window in [16usize, 64] {
        for past in [1usize, 4] {
            let length = past * per_bound + per_bound / 2;
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
                for batch in wide_rows(length).chunks(64) {
                    eng.ingest(&mut cat, "S", batch.to_vec()).unwrap();
                }
                let checkpoints = eng.wal_metrics().unwrap().checkpoints.get();
                assert!(
                    checkpoints > past as u64,
                    "{past}× past the bound: registration plus at least {past} \
                     size-triggered checkpoints, got {checkpoints}"
                );
            }
            let cell = format!("window {window}, log {past}× past the bound");
            let replayed = ["first", "second"].map(|_| {
                let (cat, eng, summary) = open(&dir, window as i64);
                let got = observe(&cat, &eng);
                assert_eq!(got.staged, window + 1, "{cell}");
                assert_eq!(got.admitted as usize, length, "{cell}");
                assert_eq!(got.catalog_rows, length - window - 1, "{cell}");
                summary.bytes
            });
            // The second reopen replays the compacted log: the open window.
            assert!(
                replayed[0] <= CHECKPOINT_BYTES + replayed[1],
                "{cell}: the first reopen replayed {} bytes, the window is {}",
                replayed[0],
                replayed[1]
            );
            compacted.insert((window, past), replayed[1]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for window in [16, 64] {
        let (short, long) = (compacted[&(window, 1)], compacted[&(window, 4)]);
        assert!(
            long <= short + short / 4,
            "window {window}: replayed bytes grew with the log ({short} → {long})"
        );
    }
    for past in [1, 4] {
        let (narrow, wide) = (compacted[&(16, past)], compacted[&(64, past)]);
        assert!(
            wide >= 2 * narrow,
            "{past}× past the bound: a 4× wider window replayed {narrow} → {wide} bytes"
        );
    }
}

/// The trigger counts the bytes a log grew by since its last checkpoint,
/// not its length: an open window wider than [`CHECKPOINT_BYTES`] (no row
/// ever closes under this slack) is rewritten once per bound's worth of
/// new rows, not at every epoch.
#[test]
fn a_window_wider_than_the_bound_does_not_checkpoint_every_epoch() {
    const NO_CLOSE: i64 = 1 << 40;
    let dir = scratch();
    let rows = wide_rows(3 * CHECKPOINT_BYTES as usize / 1_000);
    let (mut cat, mut eng, _) = open(&dir, NO_CLOSE);
    eng.register(
        &mut cat,
        "S",
        TemporalSchema::time_sequence("Name", "Rank"),
        StreamOrder::TS_ASC,
    )
    .unwrap();
    let checkpoints = |eng: &LiveEngine| eng.wal_metrics().unwrap().checkpoints.get();
    let start = checkpoints(&eng);
    let mut at = Vec::new();
    for (epoch, batch) in rows.chunks(64).enumerate() {
        let before = checkpoints(&eng);
        eng.ingest(&mut cat, "S", batch.to_vec()).unwrap();
        if checkpoints(&eng) > before {
            at.push(epoch);
        }
    }
    // About 3 MiB of rows in 64 KiB batches: one checkpoint per 1 MiB.
    assert_eq!(checkpoints(&eng) - start, at.len() as u64);
    assert!(
        (2..=3).contains(&at.len()),
        "checkpoints after epochs {at:?}"
    );
    assert!(
        at.windows(2).all(|w| w[1] - w[0] >= 15),
        "checkpoints after epochs {at:?}"
    );
    drop(eng);
    let (cat, eng, _) = open(&dir, NO_CLOSE);
    let got = observe(&cat, &eng);
    assert_eq!((got.staged, got.catalog_rows), (rows.len(), 0), "{got:?}");
    let _ = std::fs::remove_dir_all(&dir);
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
