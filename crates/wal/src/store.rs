//! The per-directory store of relation logs.
//!
//! One [`WalStore`] owns a directory holding `<relation>.wal` files and
//! the shared [`WalMetrics`] bundle. It hands out [`WalLog`] writers and
//! lists the logs present on disk so recovery can replay each one.

use crate::log::{FlushPolicy, WalLog};
use crate::metrics::WalMetrics;
use crate::record::WalRecord;
use std::path::{Path, PathBuf};
use tdb_core::TdbResult;
use tdb_obs::Registry;

/// A directory of per-relation write-ahead logs.
pub struct WalStore {
    dir: PathBuf,
    policy: FlushPolicy,
    metrics: WalMetrics,
}

impl std::fmt::Debug for WalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalStore")
            .field("dir", &self.dir)
            .field("policy", &self.policy.name())
            .finish_non_exhaustive()
    }
}

impl WalStore {
    /// Open (or initialize) a log directory, registering the `tdb_wal_*`
    /// metric families in `registry`.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: FlushPolicy,
        registry: &Registry,
    ) -> TdbResult<WalStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(WalStore {
            dir,
            policy,
            metrics: WalMetrics::register(registry),
        })
    }

    /// The directory logs live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's flush policy (applied to every log it opens).
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The shared metrics bundle.
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Path of `relation`'s log file.
    pub fn log_path(&self, relation: &str) -> PathBuf {
        self.dir.join(format!("{relation}.wal"))
    }

    /// Relations with a log on disk, in name order.
    pub fn existing_logs(&self) -> TdbResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("wal") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Start a fresh log for `relation`, writing and syncing its `head`
    /// records (a `Register` first) in one commit, so the DDL event is
    /// durable before the first row arrives. Truncates any stale log of
    /// the same name.
    pub fn create_log(&self, relation: &str, head: &[WalRecord]) -> TdbResult<WalLog> {
        let path = self.log_path(relation);
        let _ = std::fs::remove_file(&path);
        let mut log = WalLog::open(path, relation, self.policy, self.metrics.clone())?;
        for record in head {
            log.append(record)?;
        }
        log.commit()?;
        Ok(log)
    }

    /// Open `relation`'s existing log for appending (after replay).
    pub fn open_log(&self, relation: &str) -> TdbResult<WalLog> {
        WalLog::open(
            self.log_path(relation),
            relation,
            self.policy,
            self.metrics.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::replay;
    use tdb_core::StreamOrder;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tdb-wal-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn create_list_reopen() {
        let store =
            WalStore::open(tmpdir("a"), FlushPolicy::GroupCommit, &Registry::new()).unwrap();
        assert!(store.existing_logs().unwrap().is_empty());
        let register = WalRecord::Register {
            order: StreamOrder::TS_ASC,
            slack: 0,
        };
        let _x = store
            .create_log("X", std::slice::from_ref(&register))
            .unwrap();
        let _y = store
            .create_log("Y", std::slice::from_ref(&register))
            .unwrap();
        assert_eq!(store.existing_logs().unwrap(), vec!["X", "Y"]);
        let out = replay(&store.log_path("X")).unwrap();
        assert_eq!(out.records, vec![register]);
    }
}
