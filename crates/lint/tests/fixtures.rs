//! Seeded-violation fixtures: every shipped rule must fire on its
//! fixture with a file:line finding, and the `lint:allow` escape hatch
//! must suppress it.

use tdb_lint::{lint_files, Finding, SourceFile};

fn src(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn no_unwrap_fires_in_library_paths_only() {
    let body = r#"
pub fn go(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a + b == 0 { panic!("zero"); }
    a + b
}
"#;
    let lib = lint_files(&[src("crates/net/src/server.rs", body)]);
    assert_eq!(
        rules_of(&lib),
        ["no-unwrap", "no-unwrap", "no-unwrap"],
        "{lib:#?}"
    );
    assert_eq!(lib[0].line, 3);
    assert!(lib[0]
        .to_string()
        .starts_with("crates/net/src/server.rs:3:"));

    // Same text outside the serving crates: clean.
    let other = lint_files(&[src("crates/quel/src/parse.rs", body)]);
    assert!(rules_of(&other).is_empty(), "{other:#?}");
}

#[test]
fn no_unwrap_exempts_tests_and_honors_allow() {
    let text = r"
pub fn go(x: Option<u32>) -> u32 {
    // Length was checked two lines up. lint:allow(no-unwrap)
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
";
    let findings = lint_files(&[src("crates/live/src/relation.rs", text)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn no_unwrap_ignores_strings_and_comments() {
    let text = r#"
pub fn go() {
    // a comment mentioning .unwrap() is not code
    let s = "nor is .unwrap() in a string";
    let _ = s;
}
"#;
    let findings = lint_files(&[src("crates/engine/src/session.rs", text)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn unbounded_channel_fires_everywhere_but_bounded_passes() {
    let bad = "
pub fn open() {
    let (tx, rx) = std::sync::mpsc::channel::<u32>();
    let _ = (tx, rx);
}
";
    let findings = lint_files(&[src("crates/quel/src/pipe.rs", bad)]);
    assert_eq!(
        rules_of(&findings),
        ["no-unbounded-channel"],
        "{findings:#?}"
    );
    assert_eq!(findings[0].line, 3);

    let good = "
pub fn open() {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(64);
    let _ = (tx, rx);
}
";
    let findings = lint_files(&[src("crates/quel/src/pipe.rs", good)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn guard_across_blocking_fires_and_respects_drop() {
    let bad = "
pub fn teardown(m: &std::sync::Mutex<u32>, h: std::thread::JoinHandle<()>) {
    let g = m.lock().unwrap();
    h.join().unwrap();
    drop(g);
}
";
    let findings = lint_files(&[src("crates/core/src/x.rs", bad)]);
    assert_eq!(
        rules_of(&findings),
        ["guard-across-blocking"],
        "{findings:#?}"
    );
    assert_eq!(findings[0].line, 4);
    assert!(findings[0].message.contains("guard `g`"), "{findings:#?}");

    let good = "
pub fn teardown(m: &std::sync::Mutex<u32>, h: std::thread::JoinHandle<()>) {
    let g = m.lock().unwrap();
    drop(g);
    h.join().unwrap();
}
";
    let findings = lint_files(&[src("crates/core/src/x.rs", good)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn guard_across_blocking_scope_exit_ends_liveness() {
    let text = "
pub fn ok(m: &std::sync::Mutex<u32>, h: std::thread::JoinHandle<()>) {
    {
        let g = m.lock().unwrap();
        let _ = *g;
    }
    h.join().unwrap();
}
";
    let findings = lint_files(&[src("crates/core/src/x.rs", text)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn guard_across_blocking_catches_scrutinee_temporaries() {
    let text = "
pub fn go(m: &std::sync::Mutex<Option<u32>>, tx: &std::sync::mpsc::SyncSender<u32>) {
    if let Some(v) = *m.lock().unwrap() {
        tx.send(v).unwrap();
    }
}
";
    let findings = lint_files(&[src("crates/core/src/x.rs", text)]);
    assert_eq!(
        rules_of(&findings),
        ["guard-across-blocking"],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("scrutinee"), "{findings:#?}");
}

#[test]
fn streamop_registry_catches_unregistered_variant() {
    let text = "
pub enum StreamOpKind {
    SweepJoin,
    SweepSemijoin,
    NewlyAdded,
}

impl StreamOpKind {
    pub const ALL: [StreamOpKind; 2] = [
        StreamOpKind::SweepJoin,
        StreamOpKind::SweepSemijoin,
    ];

    pub const fn requirement(self) -> u32 {
        match self {
            StreamOpKind::SweepJoin => 1,
            StreamOpKind::SweepSemijoin => 2,
            StreamOpKind::NewlyAdded => 3,
        }
    }
}
";
    let findings = lint_files(&[src("crates/stream/src/required.rs", text)]);
    assert_eq!(rules_of(&findings), ["streamop-registry"], "{findings:#?}");
    assert!(
        findings[0].message.contains("NewlyAdded") && findings[0].message.contains("ALL"),
        "{findings:#?}"
    );
}

#[test]
fn streamop_registry_catches_missing_requirement_arm() {
    let text = "
pub enum StreamOpKind {
    SweepJoin,
    SweepSemijoin,
}

impl StreamOpKind {
    pub const ALL: [StreamOpKind; 2] = [
        StreamOpKind::SweepJoin,
        StreamOpKind::SweepSemijoin,
    ];

    pub const fn requirement(self) -> u32 {
        match self {
            StreamOpKind::SweepJoin => 1,
        }
    }
}
";
    let findings = lint_files(&[src("crates/stream/src/required.rs", text)]);
    assert_eq!(rules_of(&findings), ["streamop-registry"], "{findings:#?}");
    assert!(
        findings[0].message.contains("SweepSemijoin")
            && findings[0].message.contains("requirement()"),
        "{findings:#?}"
    );
}

#[test]
fn streamop_registry_catches_dispatch_table_without_plan_fallback() {
    let text = "
pub fn run_join(kind: StreamOpKind) -> TdbResult<()> {
    match kind {
        StreamOpKind::SweepJoin => run(SweepJoin::new()),
        other => Err(TdbError::Plan(format!(\"no join kernel for {other}\"))),
    }
}

pub fn run_semijoin(kind: StreamOpKind) -> TdbResult<()> {
    match kind {
        StreamOpKind::SweepSemijoin => run(SweepSemijoin::new()),
        _ => unreachable!(),
    }
}
";
    let findings = lint_files(&[src("crates/stream/src/dispatch.rs", text)]);
    assert_eq!(rules_of(&findings), ["streamop-registry"], "{findings:#?}");
    assert_eq!(findings[0].line, 10, "{findings:#?}");
    assert!(
        findings[0].message.contains("TdbError::Plan"),
        "{findings:#?}"
    );
}

#[test]
fn errorcode_codec_catches_missing_and_mismatched_arms() {
    let text = "
pub enum ErrorCode {
    InvalidPeriod = 1,
    Parse = 2,
    Unmapped = 3,
}

impl ErrorCode {
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::InvalidPeriod,
            9 => ErrorCode::Parse,
            _ => return None,
        })
    }
}
";
    let findings = lint_files(&[src("crates/engine/src/response.rs", text)]);
    let rules = rules_of(&findings);
    assert_eq!(rules.len(), 3, "{findings:#?}");
    assert!(
        rules.iter().all(|r| *r == "errorcode-codec"),
        "{findings:#?}"
    );
    let all = findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(all.contains("Unmapped"), "missing-arm not caught: {all}");
    assert!(
        all.contains("declared discriminant is 2"),
        "discriminant mismatch not caught: {all}"
    );
    assert!(
        all.contains("matches no declared variant"),
        "stale arm not caught: {all}"
    );
}

#[test]
fn metrics_name_enforces_tdb_prefix_and_charset() {
    let text = r#"
pub fn register(m: &Registry) {
    m.counter("tdb_net_bytes_total");
    m.gauge("net_conns");
    m.histogram("tdb-live-latency");
}
"#;
    let findings = lint_files(&[src("crates/obs/src/metrics.rs", text)]);
    assert_eq!(
        rules_of(&findings),
        ["metrics-name", "metrics-name"],
        "{findings:#?}"
    );
    assert_eq!(findings[0].line, 4);
    assert_eq!(findings[1].line, 5);
}

#[test]
fn metrics_name_covers_labeled_with_variants() {
    let text = r#"
pub fn register(m: &Registry) {
    m.gauge_with("tdb_slo_burn_rate_fast", &labels, "ok");
    m.counter_with("slo_burns", &labels, "bad prefix");
    m.histogram_with("tdb_stage_duration_us", &labels, "ok", &BOUNDS);
    m.histogram_with("tdb-stage-duration", &labels, "bad charset", &BOUNDS);
}
"#;
    let findings = lint_files(&[src("crates/obs/src/span.rs", text)]);
    assert_eq!(
        rules_of(&findings),
        ["metrics-name", "metrics-name"],
        "{findings:#?}"
    );
    assert_eq!(findings[0].line, 4, "{findings:#?}");
    assert_eq!(findings[1].line, 6, "{findings:#?}");
}

#[test]
fn allow_directive_suppresses_any_rule_on_line_or_line_above() {
    let text = r#"
pub fn register(m: &Registry) {
    // historical exposition name, kept for dashboards. lint:allow(metrics-name)
    m.counter("legacy_total");
    m.gauge("other_bad"); // lint:allow(metrics-name)
}
"#;
    let findings = lint_files(&[src("crates/obs/src/metrics.rs", text)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn unsynced_durability_write_fires_in_wal_sources_only() {
    let bad = r"
pub fn persist(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    use std::io::Write as _;
    f.write_all(bytes)?;
    Ok(())
}
";
    let findings = lint_files(&[src("crates/wal/src/log.rs", bad)]);
    assert_eq!(
        rules_of(&findings),
        [
            "no-unsynced-durability-write",
            "no-unsynced-durability-write"
        ],
        "{findings:#?}"
    );
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[1].line, 5);
    assert!(findings[0]
        .to_string()
        .starts_with("crates/wal/src/log.rs:3:"));

    // Identical text outside the WAL crate: not this rule's business.
    let other = lint_files(&[src("crates/storage/src/heap.rs", bad)]);
    assert!(rules_of(&other).is_empty(), "{other:#?}");
}

#[test]
fn unsynced_durability_write_accepts_sync_in_scope() {
    let good = r"
pub fn persist(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    use std::io::Write as _;
    f.write_all(bytes)?;
    if bytes.len() > 1 {
        f.sync_data()?;
    }
    Ok(())
}
";
    let findings = lint_files(&[src("crates/wal/src/log.rs", good)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn unsynced_durability_write_scope_exit_ends_reachability() {
    // The sync lives in a *different* function, so neither write in the
    // first function can reach it: both still fire.
    let text = r"
pub fn persist(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    use std::io::Write as _;
    f.write_all(bytes)?;
    Ok(())
}

pub fn seal(f: &std::fs::File) -> std::io::Result<()> {
    f.sync_all()
}
";
    let findings = lint_files(&[src("crates/wal/src/store.rs", text)]);
    assert_eq!(
        rules_of(&findings),
        [
            "no-unsynced-durability-write",
            "no-unsynced-durability-write"
        ],
        "{findings:#?}"
    );
}

#[test]
fn unsynced_durability_write_exempts_tests_and_honors_allow() {
    let text = r#"
pub fn spill(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    // Scratch spill; durability is the caller's commit(). lint:allow(no-unsynced-durability-write)
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::fs::write("/tmp/x", b"y").unwrap();
    }
}
"#;
    let findings = lint_files(&[src("crates/wal/src/log.rs", text)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn findings_render_as_file_line_rule() {
    let findings = lint_files(&[src(
        "crates/net/src/wire.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )]);
    assert_eq!(
        findings[0].to_string(),
        "crates/net/src/wire.rs:1: [no-unwrap] unwrap() in a library code path: \
         return a typed TdbError instead (a panic here kills a server thread)"
    );
}
