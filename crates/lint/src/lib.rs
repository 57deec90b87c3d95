//! `tdb-lint`: dependency-free source-level analysis enforcing the
//! workspace's concurrency and registry invariants as deny-by-default
//! rules.
//!
//! The rules are deliberately shallow — line-level lexing over cleaned
//! source (see [`lexer`]), not a Rust parser — because the invariants
//! they guard are token-visible: a `.unwrap()` in a serving crate, an
//! unbounded channel constructor, a lock guard lexically alive across a
//! blocking call, a `StreamOpKind` variant missing from its registry, a
//! metric registered outside the `tdb_` namespace.
//!
//! Every finding is deniable inline with `// lint:allow(<rule>)` on the
//! offending line (or the line above), which is the required place to
//! record *why* a panic is provably unreachable or a guard hold is
//! intentional.
//!
//! Shipped rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-unwrap` | no `unwrap`/`expect`/`panic!` in stream/live/net/engine library paths |
//! | `no-unbounded-channel` | only bounded (`sync_channel`) queues, workspace-wide |
//! | `guard-across-blocking` | no lock guard lexically live across `.join`/`.send`/`.recv`/`.wait` |
//! | `streamop-registry` | every `StreamOpKind` variant in `ALL` and `requirement()` |
//! | `metrics-name` | literal metric names match `^tdb_[a-z0-9_]+$` |
//! | `no-unsynced-durability-write` | every WAL-crate and catalog file write reaches a `sync_data`/`sync_all` in scope |

pub mod lexer;
pub mod rules;

use lexer::Prepared;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, as used by `lint:allow(...)`.
    pub rule: &'static str,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// An in-memory source file: path (workspace-relative) plus contents.
/// The fixture tests drive the linter through this, bypassing the
/// filesystem walk.
pub struct SourceFile {
    /// Workspace-relative path; rules use it for scoping.
    pub path: String,
    /// Full file text.
    pub text: String,
}

/// Lint a set of in-memory sources, returning all unsuppressed
/// findings sorted by file and line.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let prepared: Vec<Prepared> = files
        .iter()
        .map(|f| Prepared::new(&f.path, &f.text))
        .collect();
    lint_prepared(&prepared)
}

/// Run every rule over prepared sources and apply `lint:allow`
/// suppression.
fn lint_prepared(prepared: &[Prepared]) -> Vec<Finding> {
    let mut raw = Vec::new();
    for p in prepared {
        rules::no_unwrap(p, &mut raw);
        rules::no_unbounded_channel(p, &mut raw);
        rules::guard_across_blocking(p, &mut raw);
        rules::metrics_name(p, &mut raw);
        rules::no_unsynced_durability_write(p, &mut raw);
    }
    rules::streamop_registry(prepared, &mut raw);

    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let suppressed = prepared
                .iter()
                .find(|p| p.path == f.file)
                .is_some_and(|p| p.allowed(f.line - 1, f.rule));
            !suppressed
        })
        .collect();
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Walk the workspace's `crates/*/src` trees and collect every `.rs`
/// file as a [`SourceFile`]. The `crates/shim` tree is excluded: the
/// shims intentionally mirror external APIs (including unbounded
/// constructors and test-harness panics) and are not tdb code paths.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() || entry.file_name() == "shim" {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(root, &src, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: rel,
                text: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Lint every library source in the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(lint_files(&collect_workspace(root)?))
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
