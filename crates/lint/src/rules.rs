//! The rule catalog. Each rule reads [`Prepared`] sources and emits
//! [`Finding`]s; everything is deny-by-default with the inline
//! `// lint:allow(<rule>)` escape hatch handled by the caller's
//! suppression check in [`crate::lint_prepared`].

use crate::lexer::Prepared;
use crate::Finding;

/// Crates whose `src/` trees are library code paths: panicking there
/// takes down a server thread, so `unwrap`/`expect`/`panic!` are denied.
const NO_PANIC_CRATES: [&str; 4] = [
    "crates/stream/src/",
    "crates/live/src/",
    "crates/net/src/",
    "crates/engine/src/",
];

fn finding(p: &Prepared, line: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        file: p.path.clone(),
        line: line + 1,
        rule,
        message,
    }
}

/// `no-unwrap`: no `.unwrap()` / `.expect(` / `panic!(` in the library
/// code paths of the serving crates (tests and bins exempt; a proven
/// infallible case takes `// lint:allow(no-unwrap)` with justification).
pub fn no_unwrap(p: &Prepared, out: &mut Vec<Finding>) {
    if !NO_PANIC_CRATES.iter().any(|c| p.path.starts_with(c)) {
        return;
    }
    for (i, line) in p.code.iter().enumerate() {
        if p.test[i] {
            continue;
        }
        for (needle, what) in [
            (".unwrap()", "unwrap()"),
            (".expect(", "expect()"),
            ("panic!(", "panic!"),
        ] {
            if line.contains(needle) {
                out.push(finding(
                    p,
                    i,
                    "no-unwrap",
                    format!(
                        "{what} in a library code path: return a typed TdbError instead \
                         (a panic here kills a server thread)"
                    ),
                ));
            }
        }
    }
}

/// `no-unbounded-channel`: only bounded channels — an unbounded queue
/// turns a slow consumer into unbounded memory growth, the exact
/// failure mode the push-queue bound exists to prevent.
pub fn no_unbounded_channel(p: &Prepared, out: &mut Vec<Finding>) {
    for (i, line) in p.code.iter().enumerate() {
        if p.test[i] {
            continue;
        }
        let mut from = 0;
        while let Some(rel) = line[from..].find("channel") {
            let at = from + rel;
            from = at + "channel".len();
            // A constructor call: `channel(` or turbofish `channel::<T>(`.
            let after = &line[at + "channel".len()..];
            let is_call = after.starts_with('(')
                || after.strip_prefix("::<").is_some_and(|rest| {
                    rest.find('>')
                        .is_some_and(|g| rest[g + 1..].starts_with('('))
                });
            if !is_call {
                continue;
            }
            let before = &line[..at];
            if before.ends_with("sync_") || before.ends_with("bounded_") {
                continue; // bounded constructors
            }
            if before
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue; // part of some other identifier
            }
            out.push(finding(
                p,
                i,
                "no-unbounded-channel",
                "unbounded channel constructor: use sync_channel(bound) so a slow \
                 consumer applies backpressure instead of growing the heap"
                    .to_string(),
            ));
        }
        if line.contains("unbounded(") {
            out.push(finding(
                p,
                i,
                "no-unbounded-channel",
                "unbounded() channel constructor is denied workspace-wide".to_string(),
            ));
        }
    }
}

/// `guard-across-blocking`: a `Mutex`/`RwLock` guard that is still live
/// lexically when the same scope performs a blocking `.join(`,
/// `.send(`, `.recv(`, or `.wait(` — the shape of the PR 5 deadlock.
/// Scope tracking is lexical (brace-balanced), with `drop(<name>)`
/// ending a named guard's liveness early.
pub fn guard_across_blocking(p: &Prepared, out: &mut Vec<Finding>) {
    const ACQUIRE: [&str; 3] = [".lock()", ".read()", ".write()"];
    const BLOCKING: [&str; 4] = [".join(", ".send(", ".recv(", ".wait("];

    let rhs_is_guard = |stmt: &str| {
        let stmt = stmt.trim_end();
        let stmt = stmt.strip_suffix(';').unwrap_or(stmt).trim_end();
        let stmt = stmt.strip_suffix(".unwrap()").unwrap_or(stmt);
        ACQUIRE.iter().any(|a| stmt.ends_with(a))
    };

    for (i, line) in p.code.iter().enumerate() {
        if p.test[i] {
            continue;
        }
        let trimmed = line.trim_start();
        // Named guard binding: `let g = x.lock();` (± mut, ± .unwrap()).
        let named = trimmed
            .strip_prefix("let ")
            .map(|r| r.strip_prefix("mut ").unwrap_or(r))
            .filter(|_| rhs_is_guard(trimmed))
            .and_then(|r| {
                let name: String = r
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                (!name.is_empty()).then_some(name)
            });
        // Scrutinee temporary: `if let`/`while let`/`match` whose
        // scrutinee acquires a guard — the temporary lives for the
        // whole block.
        let scrutinee = (trimmed.starts_with("if let ")
            || trimmed.starts_with("while let ")
            || trimmed.starts_with("match "))
            && ACQUIRE.iter().any(|a| line.contains(a));
        if named.is_none() && !scrutinee {
            continue;
        }
        let bind_depth = p.depth[i];
        for j in i + 1..p.code.len() {
            if let Some(name) = &named {
                if p.code[j].contains(&format!("drop({name})")) {
                    break;
                }
            }
            if let Some(b) = BLOCKING.iter().find(|b| p.code[j].contains(**b)) {
                let what = named.as_deref().map_or_else(
                    || "a scrutinee lock temporary".to_string(),
                    |n| format!("guard `{n}`"),
                );
                out.push(finding(
                    p,
                    j,
                    "guard-across-blocking",
                    format!(
                        "{what} (acquired at line {}) is lexically live across blocking \
                         `{b}` — drop the guard first or the blocked peer can deadlock \
                         against it",
                        i + 1
                    ),
                ));
                break;
            }
            if p.depth[j] < bind_depth {
                break;
            }
        }
    }
}

/// Collect `Prefix::Ident` occurrences in `lines[range]`.
fn variants_after(
    lines: &[String],
    prefix: &str,
    start_marker: &str,
    end_marker: &str,
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let Some(start) = lines.iter().position(|l| l.contains(start_marker)) else {
        return out;
    };
    let needle = format!("{prefix}::");
    for (j, line) in lines.iter().enumerate().skip(start) {
        let mut from = 0;
        while let Some(rel) = line[from..].find(&needle) {
            let at = from + rel + needle.len();
            let ident: String = line[at..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() {
                out.push((j, ident));
            }
            from = at;
        }
        if j > start && line.contains(end_marker) {
            break;
        }
    }
    out
}

/// Parse the variant names of `pub enum <name> {`.
fn enum_variants(lines: &[String], name: &str) -> Vec<(usize, String)> {
    let marker = format!("enum {name}");
    let Some(start) = lines.iter().position(|l| l.contains(&marker)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (j, line) in lines.iter().enumerate().skip(start + 1) {
        let t = line.trim();
        if t.starts_with('}') {
            break;
        }
        let ident: String = t
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !ident.is_empty()
            && ident.chars().next().is_some_and(char::is_uppercase)
            && (t[ident.len()..].trim_start().starts_with(',')
                || t[ident.len()..].trim_start().starts_with('=')
                || t[ident.len()..].trim_start().is_empty())
        {
            out.push((j, ident));
        }
    }
    out
}

/// `streamop-registry`: every `StreamOpKind` variant must appear in the
/// `ALL` sweep constant and have a `requirement()` match arm — the
/// registry is the single source the analyzer and executor trust. The
/// one place kinds are bound to kernels, `stream/src/dispatch.rs`, must
/// stay total the same way: each `match kind` table there needs a
/// catch-all arm that is a `TdbError::Plan`, so a kind without a kernel
/// is a planning error at runtime rather than a missing arm.
pub fn streamop_registry(files: &[Prepared], out: &mut Vec<Finding>) {
    dispatch_tables_total(files, out);
    let Some(p) = files
        .iter()
        .find(|p| p.path.ends_with("stream/src/required.rs"))
    else {
        return;
    };
    let variants = enum_variants(&p.code, "StreamOpKind");
    if variants.is_empty() {
        return;
    }
    let all: Vec<String> = variants_after(&p.code, "StreamOpKind", "const ALL", "];")
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    let arms: Vec<String> = variants_after(&p.code, "StreamOpKind", "fn requirement", "\n")
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    for (line, v) in &variants {
        if !all.contains(v) {
            out.push(finding(
                p,
                *line,
                "streamop-registry",
                format!("StreamOpKind::{v} is missing from the ALL sweep constant"),
            ));
        }
        if !arms.contains(v) {
            out.push(finding(
                p,
                *line,
                "streamop-registry",
                format!("StreamOpKind::{v} has no requirement() registry entry"),
            ));
        }
    }
}

/// The dispatch half of `streamop-registry`: every `match kind` table in
/// `stream/src/dispatch.rs` must close with a catch-all arm returning
/// `TdbError::Plan`. The table ends at the first line that closes a brace
/// at the `match`'s own indentation.
fn dispatch_tables_total(files: &[Prepared], out: &mut Vec<Finding>) {
    let Some(p) = files
        .iter()
        .find(|p| p.path.ends_with("stream/src/dispatch.rs"))
    else {
        return;
    };
    for (start, line) in p.code.iter().enumerate() {
        let Some(indent) = line.find("match kind {") else {
            continue;
        };
        let close = format!("{}}}", " ".repeat(indent));
        let total = p.code[start + 1..]
            .iter()
            .take_while(|l| l.trim_end() != close)
            .any(|l| l.contains("=> Err(TdbError::Plan("));
        if !total {
            out.push(finding(
                p,
                start,
                "streamop-registry",
                "dispatch table has no catch-all arm returning TdbError::Plan".to_string(),
            ));
        }
    }
}

/// `errorcode-codec`: every `ErrorCode` discriminant must decode back to
/// the same variant in `from_u8`, and every `from_u8` arm must name a
/// declared variant with its declared discriminant — both directions of
/// the wire codec stay total.
pub fn errorcode_codec(files: &[Prepared], out: &mut Vec<Finding>) {
    let Some(p) = files
        .iter()
        .find(|p| p.path.ends_with("engine/src/response.rs"))
    else {
        return;
    };
    // Declared pairs: `Ident = N,` inside `enum ErrorCode`.
    let marker = "enum ErrorCode";
    let Some(start) = p.code.iter().position(|l| l.contains(marker)) else {
        return;
    };
    let mut declared: Vec<(usize, String, u32)> = Vec::new();
    for (j, line) in p.code.iter().enumerate().skip(start + 1) {
        let t = line.trim();
        if t.starts_with('}') {
            break;
        }
        if let Some((ident, rest)) = t.split_once('=') {
            let ident = ident.trim();
            let num: String = rest
                .trim()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if ident.chars().all(|c| c.is_alphanumeric()) && !ident.is_empty() {
                if let Ok(n) = num.parse() {
                    declared.push((j, ident.to_string(), n));
                }
            }
        }
    }
    if declared.is_empty() {
        return;
    }
    // Decode arms: `N => ErrorCode::Ident` inside `fn from_u8`.
    let Some(fstart) = p.code.iter().position(|l| l.contains("fn from_u8")) else {
        for (j, ident, _) in &declared {
            out.push(finding(
                p,
                *j,
                "errorcode-codec",
                format!("ErrorCode::{ident}: no from_u8 decoder found at all"),
            ));
        }
        return;
    };
    let fend = p.depth[fstart.saturating_sub(1)].max(0);
    let mut arms: Vec<(usize, u32, String)> = Vec::new();
    for (j, line) in p.code.iter().enumerate().skip(fstart) {
        let t = line.trim();
        if let Some((num, rest)) = t.split_once("=>") {
            let num: String = num
                .trim()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if let Ok(n) = num.parse() {
                if let Some(at) = rest.find("ErrorCode::") {
                    let ident: String = rest[at + "ErrorCode::".len()..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric())
                        .collect();
                    arms.push((j, n, ident));
                }
            }
        }
        if j > fstart && p.depth[j] <= fend {
            break;
        }
    }
    for (j, ident, n) in &declared {
        match arms.iter().find(|(_, _, a)| a == ident) {
            None => out.push(finding(
                p,
                *j,
                "errorcode-codec",
                format!(
                    "ErrorCode::{ident} = {n} has no from_u8 decode arm: the wire \
                         byte would decode to None"
                ),
            )),
            Some((aj, an, _)) if an != n => out.push(finding(
                p,
                *aj,
                "errorcode-codec",
                format!(
                    "from_u8 maps {an} to ErrorCode::{ident}, but the declared \
                     discriminant is {n}"
                ),
            )),
            Some(_) => {}
        }
    }
    for (j, n, ident) in &arms {
        if !declared.iter().any(|(_, d, dn)| d == ident && dn == n) {
            out.push(finding(
                p,
                *j,
                "errorcode-codec",
                format!("from_u8 arm {n} => ErrorCode::{ident} matches no declared variant"),
            ));
        }
    }
}

/// `no-unsynced-durability-write`: in the WAL crate's library paths, a
/// file write (`File::create(`, `.write_all(`, `std::fs::write(`) must
/// have a forward-reachable `sync_data(`/`sync_all(` inside the same
/// function. Durability code that writes without a sync in reach
/// silently weakens acknowledged-means-durable: the bytes sit in the
/// page cache and a crash loses rows the client was told are safe. A
/// deliberate unsynced write (e.g. behind a flush-policy gate whose
/// sync lives elsewhere) takes `// lint:allow(no-unsynced-durability-write)`
/// with justification.
pub fn no_unsynced_durability_write(p: &Prepared, out: &mut Vec<Finding>) {
    const WRITES: [&str; 3] = ["File::create(", ".write_all(", "std::fs::write("];
    const SYNCS: [&str; 2] = [".sync_data(", ".sync_all("];
    if !p.path.starts_with("crates/wal/src/") {
        return;
    }
    for (i, line) in p.code.iter().enumerate() {
        if p.test[i] {
            continue;
        }
        let Some(w) = WRITES.iter().find(|w| line.contains(**w)) else {
            continue;
        };
        if SYNCS.iter().any(|s| line.contains(s)) {
            continue;
        }
        let end = enclosing_fn_end(p, i);
        let synced = (i + 1..end).any(|j| SYNCS.iter().any(|s| p.code[j].contains(s)));
        if !synced {
            out.push(finding(
                p,
                i,
                "no-unsynced-durability-write",
                format!(
                    "`{w}` with no reachable sync_data()/sync_all() in this function: an \
                     unsynced write in the WAL crate silently weakens \
                     acknowledged-means-durable"
                ),
            ));
        }
    }
}

/// End (exclusive line index) of the function enclosing line `i`: walk
/// back to the nearest `fn` signature, find its body's opening brace,
/// then the line where depth returns to the level outside the body.
/// Falls back to end-of-file when no enclosing `fn` is found.
fn enclosing_fn_end(p: &Prepared, i: usize) -> usize {
    let Some(fn_line) = (0..=i).rev().find(|&k| {
        let t = p.code[k].trim_start();
        t.starts_with("fn ") || t.contains(" fn ")
    }) else {
        return p.code.len();
    };
    let Some(open) = (fn_line..p.code.len()).find(|&k| p.code[k].contains('{')) else {
        return p.code.len();
    };
    let outside = if open == 0 { 0 } else { p.depth[open - 1] };
    (open..p.code.len())
        .find(|&k| p.depth[k] <= outside)
        .map_or(p.code.len(), |k| k + 1)
}

/// `metrics-name`: metric names registered with `.counter(` / `.gauge(`
/// / `.histogram(` — or their labeled `_with` variants — must be literal
/// `tdb_`-prefixed snake_case, so the Prometheus exposition stays one
/// consistent namespace.
pub fn metrics_name(p: &Prepared, out: &mut Vec<Finding>) {
    for (i, raw) in p.raw.iter().enumerate() {
        if p.test[i] {
            continue;
        }
        for method in [
            ".counter(\"",
            ".gauge(\"",
            ".histogram(\"",
            ".counter_with(\"",
            ".gauge_with(\"",
            ".histogram_with(\"",
        ] {
            let mut from = 0;
            while let Some(rel) = raw[from..].find(method) {
                let at = from + rel + method.len();
                let Some(end) = raw[at..].find('"') else {
                    break;
                };
                let name = &raw[at..at + end];
                let ok = name.starts_with("tdb_")
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
                if !ok {
                    out.push(finding(
                        p,
                        i,
                        "metrics-name",
                        format!(
                            "metric name \"{name}\" violates the naming convention \
                             (^tdb_[a-z0-9_]+$)"
                        ),
                    ));
                }
                from = at + end;
            }
        }
    }
}
