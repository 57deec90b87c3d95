//! One relation's append-only log: framed writes, group commit, replay.
//!
//! ## Frame format
//!
//! ```text
//! ┌────────────┬────────────┬─────────────┐
//! │ len u32 LE │ crc u32 LE │ payload …   │   crc = crc32(payload)
//! └────────────┴────────────┴─────────────┘
//! ```
//!
//! ## Torn tails
//!
//! A crash mid-write leaves at most one partial frame at the end of the
//! file. [`replay`] stops at the first frame that is short or fails its
//! CRC, truncates the file back to the last good frame boundary, and
//! returns everything before it — it never panics and never errors on a
//! torn tail. A frame whose CRC *passes* but whose payload does not
//! decode is real corruption and surfaces as [`TdbError::WalCorrupt`].
//!
//! ## Flush policies
//!
//! [`FlushPolicy`] trades durability for throughput: `PerRecord` syncs
//! on every append, `GroupCommit` (the default) syncs once per commit
//! batch, `Off` never syncs (crash durability is then best-effort).
//!
//! ## Size-bounded checkpoints
//!
//! [`WalLog::bytes`] is the log's length on disk, and
//! [`WalLog::bytes_since_rewrite`] the part of it committed since the last
//! [`WalLog::rewrite`]. The live engine checkpoints at the end of the epoch
//! in which any log has grown by more than [`CHECKPOINT_BYTES`] since its
//! rewrite, so what a reopen replays is bounded by that constant, plus
//! the batch that crossed it, plus the open window the rewrite kept. A
//! window wider than the constant does not make every epoch checkpoint.

use crate::crc::crc32;
use crate::metrics::WalMetrics;
use crate::record::WalRecord;
use bytes::{BufMut, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use tdb_core::{TdbError, TdbResult};
use tdb_storage::Codec;

/// Largest accepted frame payload; anything bigger is treated as a torn
/// or garbage length word.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A log grown by more than this many bytes since its last rewrite
/// triggers a checkpoint: the bound on what replay reads beyond the open
/// window and the last batch.
pub const CHECKPOINT_BYTES: u64 = 1 << 20;

/// When a log writer forces bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// fsync after every appended record (strongest, slowest).
    PerRecord,
    /// fsync once per commit batch (acknowledged-means-durable at batch
    /// granularity). The default.
    #[default]
    GroupCommit,
    /// Never fsync; the OS flushes when it pleases. For benchmarks and
    /// workloads that accept losing the tail on a crash.
    Off,
}

impl FlushPolicy {
    /// Parse a policy name (`per-record`, `group-commit`, `off`).
    pub fn parse(s: &str) -> Option<FlushPolicy> {
        match s {
            "per-record" => Some(FlushPolicy::PerRecord),
            "group-commit" => Some(FlushPolicy::GroupCommit),
            "off" => Some(FlushPolicy::Off),
            _ => None,
        }
    }

    /// The canonical name (`per-record`, `group-commit`, `off`).
    pub fn name(self) -> &'static str {
        match self {
            FlushPolicy::PerRecord => "per-record",
            FlushPolicy::GroupCommit => "group-commit",
            FlushPolicy::Off => "off",
        }
    }
}

/// What [`replay`] recovered from one log file.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Every record before the first bad frame, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of valid frames replayed.
    pub bytes: u64,
    /// Offset the file was truncated back to, when a torn tail was cut.
    pub truncated_at: Option<u64>,
}

/// Read every intact frame of the log at `path`, truncating a torn tail
/// in place. Returns the decoded records; CRC-valid frames that fail to
/// decode are [`TdbError::WalCorrupt`].
pub fn replay(path: &Path) -> TdbResult<ReplayOutcome> {
    let data = std::fs::read(path)?;
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut torn = None;
    while off < data.len() {
        if data.len() - off < 8 {
            torn = Some(off);
            break;
        }
        let len = u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]);
        let crc = u32::from_le_bytes([data[off + 4], data[off + 5], data[off + 6], data[off + 7]]);
        let len_us = len as usize;
        if len == 0 || len > MAX_FRAME || data.len() - off - 8 < len_us {
            torn = Some(off);
            break;
        }
        let payload = &data[off + 8..off + 8 + len_us];
        if crc32(payload) != crc {
            torn = Some(off);
            break;
        }
        let record = WalRecord::from_bytes(payload).map_err(|e| TdbError::WalCorrupt {
            file: path.display().to_string(),
            offset: off as u64,
            detail: e.to_string(),
        })?;
        records.push(record);
        off += 8 + len_us;
    }
    if let Some(at) = torn {
        // Cut the torn tail so the appender resumes on a clean frame
        // boundary; the lost suffix was never acknowledged.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(at as u64)?;
        file.sync_data()?;
    }
    Ok(ReplayOutcome {
        bytes: torn.unwrap_or(data.len()) as u64,
        records,
        truncated_at: torn.map(|o| o as u64),
    })
}

fn put_frame(buf: &mut BytesMut, record: &WalRecord) {
    let payload = record.to_bytes();
    buf.put_u32_le(payload.len() as u32);
    buf.put_u32_le(crc32(&payload));
    buf.put_slice(&payload);
}

/// An open, appendable log for one relation.
pub struct WalLog {
    relation: String,
    path: PathBuf,
    file: File,
    /// Length of the file on disk: written frames, not buffered ones.
    bytes: u64,
    /// Length right after the last rewrite; 0 before one.
    rewritten: u64,
    buf: BytesMut,
    policy: FlushPolicy,
    metrics: WalMetrics,
}

impl std::fmt::Debug for WalLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalLog")
            .field("relation", &self.relation)
            .field("path", &self.path)
            .field("policy", &self.policy.name())
            .finish_non_exhaustive()
    }
}

impl WalLog {
    /// Open (creating if absent) the log at `path` for appending. The
    /// caller replays first; this positions at the (possibly truncated)
    /// end.
    pub fn open(
        path: impl Into<PathBuf>,
        relation: impl Into<String>,
        policy: FlushPolicy,
        metrics: WalMetrics,
    ) -> TdbResult<WalLog> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(WalLog {
            relation: relation.into(),
            path,
            bytes: file.metadata()?.len(),
            rewritten: 0,
            file,
            buf: BytesMut::new(),
            policy,
            metrics,
        })
    }

    /// The relation this log belongs to.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// This log's flush policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The log's length on disk in bytes (frames still buffered for the
    /// next commit are not counted).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes written since the last [`WalLog::rewrite`]: the whole length
    /// before one.
    pub fn bytes_since_rewrite(&self) -> u64 {
        self.bytes - self.rewritten
    }

    /// Buffer one record. Under [`FlushPolicy::PerRecord`] the frame is
    /// written and synced immediately; otherwise it waits for the next
    /// [`WalLog::commit`].
    pub fn append(&mut self, record: &WalRecord) -> TdbResult<()> {
        put_frame(&mut self.buf, record);
        self.metrics.appends.inc();
        if self.policy == FlushPolicy::PerRecord {
            self.flush_buffer(true)?;
        }
        Ok(())
    }

    /// Write and (per policy) sync everything buffered. After this
    /// returns, every appended record is durable under `PerRecord` and
    /// `GroupCommit`; under `Off` it is merely handed to the OS.
    pub fn commit(&mut self) -> TdbResult<()> {
        self.metrics.commits.inc();
        self.flush_buffer(self.policy != FlushPolicy::Off)
    }

    /// Flush buffered frames to the file, fsyncing when `sync` is set.
    /// The write and its sync live in one scope on purpose: the
    /// `no-unsynced-durability-write` lint keeps them together.
    fn flush_buffer(&mut self, sync: bool) -> TdbResult<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.metrics.bytes_written.add(self.buf.len() as u64);
            self.bytes += self.buf.len() as u64;
            self.buf = BytesMut::new();
        }
        if sync {
            self.timed_sync(|| self.file.sync_data())?;
        }
        Ok(())
    }

    /// Run one sync and count it in `tdb_wal_fsyncs_total` with its
    /// latency.
    fn timed_sync(&self, sync: impl FnOnce() -> std::io::Result<()>) -> std::io::Result<()> {
        let t = std::time::Instant::now();
        let out = sync();
        self.metrics
            .observe_fsync(&self.relation, t.elapsed().as_micros() as u64);
        out
    }

    /// Checkpoint compaction: atomically replace the log's contents with
    /// `records` (typically `Register`, `Checkpoint`, then the open
    /// suffix). Written to a temp file, synced, and renamed over the old
    /// log, so a crash leaves either the old or the new log intact —
    /// never a mix. Replay cost after this is proportional to the open
    /// window, not the stream length. Both syncs (the file's and its
    /// directory's) count in `tdb_wal_fsyncs_total`.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> TdbResult<()> {
        // Anything buffered is superseded by the snapshot being written.
        self.buf = BytesMut::new();
        let tmp = self.path.with_extension("wal.new");
        let mut frames = BytesMut::new();
        for r in records {
            put_frame(&mut frames, r);
        }
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&frames)?;
            self.timed_sync(|| file.sync_all())?;
            self.metrics.bytes_written.add(frames.len() as u64);
        }
        std::fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable where the platform allows it.
        if let Some(parent) = self.path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = self.timed_sync(|| dir.sync_all());
            }
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.bytes = frames.len() as u64;
        self.rewritten = self.bytes;
        self.metrics.checkpoints.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{Row, StreamOrder, TimePoint, Value};

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tdb-wal-log-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn rec(i: i64) -> WalRecord {
        WalRecord::Append {
            row: Row::new(vec![
                Value::Int(i),
                Value::Time(TimePoint(i)),
                Value::Time(TimePoint(i + 5)),
            ]),
        }
    }

    #[test]
    fn append_commit_replay_round_trip() {
        let path = tmp("a.wal");
        let mut log =
            WalLog::open(&path, "X", FlushPolicy::GroupCommit, WalMetrics::detached()).unwrap();
        let records: Vec<WalRecord> = std::iter::once(WalRecord::Register {
            order: StreamOrder::TS_ASC,
            slack: 0,
        })
        .chain((0..50).map(rec))
        .collect();
        for r in &records {
            log.append(r).unwrap();
        }
        log.commit().unwrap();
        let out = replay(&path).unwrap();
        assert_eq!(out.records, records);
        assert_eq!(out.truncated_at, None);
        assert!(out.bytes > 0);
    }

    #[test]
    fn torn_tail_truncates_to_acknowledged_prefix_at_every_offset() {
        let path = tmp("b.wal");
        let mut log = WalLog::open(&path, "X", FlushPolicy::Off, WalMetrics::detached()).unwrap();
        let records: Vec<WalRecord> = (0..10).map(rec).collect();
        for r in &records {
            log.append(r).unwrap();
        }
        log.commit().unwrap();
        drop(log);
        let full = std::fs::read(&path).unwrap();

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let out = replay(&path).unwrap();
            // Whatever survives is an exact prefix of what was written.
            assert_eq!(out.records[..], records[..out.records.len()], "cut {cut}");
            // Truncation leaves a clean replayable file behind.
            let again = replay(&path).unwrap();
            assert_eq!(again.records, out.records, "cut {cut} (second replay)");
            assert_eq!(again.truncated_at, None, "cut {cut} must be clean now");
        }
    }

    #[test]
    fn bit_flip_in_payload_stops_replay_at_that_frame() {
        let path = tmp("c.wal");
        let mut log = WalLog::open(&path, "X", FlushPolicy::Off, WalMetrics::detached()).unwrap();
        for i in 0..5 {
            log.append(&rec(i)).unwrap();
        }
        log.commit().unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let frame_len = bytes.len() / 5;
        bytes[2 * frame_len + 10] ^= 0x40; // corrupt the third frame's payload
        std::fs::write(&path, &bytes).unwrap();
        let out = replay(&path).unwrap();
        assert_eq!(out.records.len(), 2);
        assert!(out.truncated_at.is_some());
    }

    #[test]
    fn crc_valid_but_undecodable_payload_is_wal_corrupt() {
        let path = tmp("d.wal");
        // An unknown tag, and tag 7: the retired bulk-load record.
        let retired = [7u8, 10, 0, 0, 0, 0, 0, 0, 0];
        for payload in [&[0xABu8, 1, 2, 3][..], &retired] {
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(payload).to_le_bytes());
            frame.extend_from_slice(payload);
            std::fs::write(&path, &frame).unwrap();
            assert!(matches!(
                replay(&path),
                Err(TdbError::WalCorrupt { offset: 0, .. })
            ));
        }
    }

    #[test]
    fn rewrite_compacts_and_survives_reopen() {
        let path = tmp("e.wal");
        let metrics = WalMetrics::detached();
        let mut log = WalLog::open(&path, "X", FlushPolicy::GroupCommit, metrics.clone()).unwrap();
        for i in 0..100 {
            log.append(&rec(i)).unwrap();
        }
        log.commit().unwrap();
        let long = std::fs::metadata(&path).unwrap().len();
        assert_eq!(log.bytes(), long);

        let head = vec![
            WalRecord::Register {
                order: StreamOrder::TS_ASC,
                slack: 0,
            },
            WalRecord::Checkpoint {
                promoted: 98,
                frontier: Some(TimePoint(98)),
                sealed: false,
            },
            rec(98),
            rec(99),
        ];
        assert_eq!(log.bytes_since_rewrite(), long, "no rewrite yet");
        let fsyncs = metrics.fsyncs.get();
        log.rewrite(&head).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < long);
        assert_eq!(log.bytes(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(log.bytes_since_rewrite(), 0);
        let head_bytes = log.bytes();
        assert_eq!(metrics.checkpoints.get(), 1);
        assert_eq!(
            metrics.fsyncs.get(),
            fsyncs + 2,
            "the file and its directory"
        );

        // Appends after the rewrite land after the snapshot.
        log.append(&rec(100)).unwrap();
        assert_eq!(
            log.bytes(),
            std::fs::metadata(&path).unwrap().len(),
            "buffered"
        );
        log.commit().unwrap();
        assert_eq!(log.bytes(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(log.bytes_since_rewrite(), log.bytes() - head_bytes);
        let out = replay(&path).unwrap();
        assert_eq!(out.records.len(), head.len() + 1);
        assert_eq!(out.records[..head.len()], head[..]);
        assert_eq!(out.records[head.len()], rec(100));
    }

    #[test]
    fn per_record_policy_syncs_every_append() {
        let path = tmp("f.wal");
        let metrics = WalMetrics::detached();
        let mut log = WalLog::open(&path, "X", FlushPolicy::PerRecord, metrics.clone()).unwrap();
        for i in 0..4 {
            log.append(&rec(i)).unwrap();
        }
        assert_eq!(metrics.fsyncs.get(), 4);
        log.commit().unwrap();
        assert_eq!(metrics.fsyncs.get(), 5, "commit syncs once more");

        let path2 = tmp("g.wal");
        let m2 = WalMetrics::detached();
        let mut off = WalLog::open(&path2, "X", FlushPolicy::Off, m2.clone()).unwrap();
        for i in 0..4 {
            off.append(&rec(i)).unwrap();
        }
        off.commit().unwrap();
        assert_eq!(m2.fsyncs.get(), 0, "policy off never syncs");
    }
}
