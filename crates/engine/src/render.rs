//! Text rendering of [`Response`] values — the terminal face of the
//! engine.
//!
//! This is the renderer the CLI shell and `tdb connect` share. It is
//! deliberately dumb: every decision that needs engine state (row-limit
//! truncation of query results, plan/verify visibility) was already made
//! when the [`Response`] was built; the renderer only decides how many
//! *delta* rows to print per subscription (`delta_limit`), since delta
//! frames always carry every row for the benefit of push consumers.

use crate::response::{
    DeltaFrame, IngestReport, LiveStatus, QueryReport, QueryTrace, Response, SealReport,
    StatsReport, SubscribeReport, SuperstarRow, TableInfo,
};
use std::fmt::Write as _;
use std::time::Duration;

/// Render a response as shell text, truncating delta displays at
/// `delta_limit` rows per subscription.
pub fn render(resp: &Response, delta_limit: usize) -> String {
    match resp {
        Response::Info(s) => s.clone(),
        Response::Goodbye => String::new(),
        Response::Tables(tables) => render_tables(tables),
        Response::Query(q) => render_query(q),
        // Rendering a stream header directly (no chunk machinery) shows
        // whatever rows it carries — usually none; chunk-aware clients use
        // `render_stream_header`/`render_rows`/`render_stream_footer`.
        Response::QueryStream(q) => render_query(q),
        Response::Analysis(a) => {
            format!(
                "── physical ──\n{}\n── static analysis ──\n{}\n",
                a.physical, a.certificate
            )
        }
        Response::Ingest(r) => render_ingest(r, delta_limit),
        Response::Subscribed(r) => render_subscribed(r, delta_limit),
        Response::Live(s) => render_live(s),
        Response::Sealed(r) => render_sealed(r, delta_limit),
        Response::Superstar(rows) => render_superstar(rows),
        Response::Stats(s) => render_stats(s),
        Response::Error(e) => format!("error: {}", e.message),
    }
}

fn render_tables(tables: &[TableInfo]) -> String {
    if tables.is_empty() {
        return "no relations — try \\gen faculty 100\n".into();
    }
    let mut out = String::new();
    for t in tables {
        let lambda = t
            .lambda
            .map(|l| format!("{l:.3}"))
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{}: {} rows, schema {}, λ={lambda}, mean dur {:.1}, max concurrency {}",
            t.name, t.rows, t.schema, t.mean_duration, t.max_concurrency
        )
        .ok();
    }
    out
}

fn render_query(q: &QueryReport) -> String {
    let mut out = render_stream_header(q);
    out.push_str(&render_rows(&q.rows.rows));
    out.push_str(&render_stream_footer(q, q.rows.rows.len() as u64));
    out
}

/// Everything that precedes the rows of a query result: optional plan and
/// certificate blocks plus the column header line. Chunk-aware clients
/// print this once, then [`render_rows`] per arriving chunk, then
/// [`render_stream_footer`].
pub fn render_stream_header(q: &QueryReport) -> String {
    let mut out = String::new();
    if let Some(l) = &q.logical {
        writeln!(out, "── logical (translated) ──\n{l}").ok();
    }
    if let Some(o) = &q.optimized {
        writeln!(out, "── logical (optimized) ──\n{o}").ok();
    }
    if let Some(p) = &q.physical {
        writeln!(out, "── physical ──\n{p}").ok();
    }
    if let Some(c) = &q.certificate {
        writeln!(out, "── static analysis ──\n{c}").ok();
    }
    writeln!(out, "{}", q.rows.columns.join(" | ")).ok();
    out
}

/// One chunk of result rows, one line each.
pub fn render_rows(rows: &[tdb::prelude::Row]) -> String {
    let mut out = String::new();
    for row in rows {
        let cells: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
        writeln!(out, "{}", cells.join(" | ")).ok();
    }
    out
}

/// Everything that follows the rows (`shown` is how many were printed):
/// the stats line and the trace block. When the limit stopped the query
/// before every offered row was shown, the producer stopped early too, so
/// its count is only a lower bound and reads as one.
pub fn render_stream_footer(q: &QueryReport, shown: u64) -> String {
    let mut out = String::new();
    let rows = if q.rows.total > shown {
        format!("at least {} rows (stopped at limit {shown})", q.rows.total)
    } else {
        format!("{} rows", q.rows.total)
    };
    writeln!(
        out,
        "{rows} in {:.2?} — {} scanned in {} pages, {} comparisons, workspace {}, {} sorts",
        Duration::from_micros(q.elapsed_us),
        q.stats.rows_scanned,
        q.stats.pages_read,
        q.stats.comparisons,
        q.stats.max_workspace,
        q.stats.sorts_performed,
    )
    .ok();
    if let Some(t) = &q.trace {
        render_trace(t, &mut out);
    }
    out
}

/// One trace block: a span line per operator, observed workspace next to
/// the analyzer's predictions.
fn render_trace(t: &QueryTrace, out: &mut String) {
    if t.query_id != 0 {
        writeln!(out, "── trace (query {}) ──", t.query_id).ok();
    } else {
        writeln!(out, "── trace ──").ok();
    }
    for s in &t.stages {
        let detail = if s.detail.is_empty() {
            String::new()
        } else {
            format!("  {}", s.detail)
        };
        writeln!(
            out,
            "{}{:<10} +{:>8}µs  {:>8}µs{detail}",
            "  ".repeat(s.depth as usize + 1),
            s.stage.name(),
            s.start_us,
            s.elapsed_us,
        )
        .ok();
    }
    for s in &t.spans {
        let cap = s
            .predicted_cap
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into());
        let expect = s
            .predicted_expectation
            .map(|e| format!("{e:.2}"))
            .unwrap_or_else(|| "-".into());
        let flag = if s.cap_exceeded() {
            "  CAP EXCEEDED"
        } else {
            ""
        };
        writeln!(
            out,
            "{}: {} in → {} out, {} comparisons, {} evicted, \
             workspace peak {} (mean {:.1}) vs cap {cap}, λ·E[D] {expect}{flag}",
            s.operator,
            s.rows_in,
            s.rows_out,
            s.comparisons,
            s.evicted,
            s.workspace_peak,
            s.workspace_mean,
        )
        .ok();
    }
}

fn wm_str(wm: Option<tdb::core::TimePoint>) -> String {
    wm.map(|t| t.to_string()).unwrap_or_else(|| "-".into())
}

/// Render one delta block: the header names the finalizing epoch and
/// watermark so shell users see the same correlation handle remote
/// clients get in the frame.
pub fn render_delta(delta: &DeltaFrame, delta_limit: usize, out: &mut String) {
    writeln!(
        out,
        "▸ #{} `{}`: +{} rows (epoch {}, watermark {})",
        delta.subscription,
        delta.label,
        delta.rows.len(),
        delta.epoch,
        wm_str(delta.watermark),
    )
    .ok();
    for row in delta.rows.iter().take(delta_limit) {
        let cells: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
        writeln!(out, "  {}", cells.join(" | ")).ok();
    }
    if delta.rows.len() > delta_limit {
        writeln!(out, "  … ({} more rows)", delta.rows.len() - delta_limit).ok();
    }
}

fn render_ingest(r: &IngestReport, delta_limit: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} arrivals — {} promoted (final), {} staged, watermark {}",
        r.relation,
        r.offered,
        r.promoted,
        r.staged,
        wm_str(r.watermark),
    )
    .ok();
    for d in &r.deltas {
        render_delta(d, delta_limit, &mut out);
    }
    out
}

fn render_subscribed(r: &SubscribeReport, delta_limit: usize) -> String {
    let mut out = String::new();
    writeln!(out, "subscription #{} registered", r.id).ok();
    if let Some(c) = &r.certificate {
        writeln!(out, "── static analysis (live) ──\n{c}").ok();
    }
    if !r.initial.rows.is_empty() {
        render_delta(&r.initial, delta_limit, &mut out);
    }
    out
}

fn render_live(s: &LiveStatus) -> String {
    let mut out = String::new();
    for rel in &s.relations {
        writeln!(
            out,
            "{} ({}): watermark {}{}, {} admitted, {} staged, {} promoted, \
             lag {}",
            rel.name,
            rel.order,
            wm_str(rel.watermark),
            if rel.sealed { " [sealed]" } else { "" },
            rel.admitted,
            rel.staged,
            rel.promoted,
            rel.watermark_lag,
        )
        .ok();
    }
    for sub in &s.subscriptions {
        writeln!(
            out,
            "#{} `{}` ({}): {} evaluations, {} rows emitted, workspace peak {} / cap {}{}",
            sub.id,
            sub.label,
            sub.mode,
            sub.evaluations,
            sub.emitted,
            sub.workspace_peak,
            sub.workspace_cap,
            if sub.cancelled { " [cancelled]" } else { "" },
        )
        .ok();
    }
    if out.is_empty() {
        out = "no live relations — try \\ingest <rel> <file>\n".into();
    }
    out
}

fn render_sealed(r: &SealReport, delta_limit: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{} sealed: {} rows promoted (final)",
        r.relation, r.promoted
    )
    .ok();
    for d in &r.deltas {
        render_delta(d, delta_limit, &mut out);
    }
    out
}

fn render_stats(s: &StatsReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{} queries, {} rows returned, cap exceeded {}{}",
        s.queries,
        s.rows_returned,
        s.cap_exceeded,
        if s.health.is_empty() {
            String::new()
        } else {
            format!(", health {}", s.health)
        },
    )
    .ok();
    if !s.stages.is_empty() {
        writeln!(out, "stage        count      p50        p99").ok();
        for l in &s.stages {
            writeln!(
                out,
                "  {:<10} {:>6} {:>7}µs  {:>7}µs",
                l.stage, l.count, l.p50_us, l.p99_us
            )
            .ok();
        }
    }
    for o in &s.slo {
        writeln!(
            out,
            "slo {}: target {:.4}, burn {:.2} ({}s) / {:.2} ({}s) — {}",
            o.objective,
            o.target,
            o.fast_burn,
            o.fast_window_s,
            o.slow_burn,
            o.slow_window_s,
            o.health,
        )
        .ok();
    }
    if let Some(last) = &s.last {
        writeln!(
            out,
            "last: `{}` — {} rows in {:.2?}",
            last.label,
            last.rows,
            Duration::from_micros(last.elapsed_us)
        )
        .ok();
        render_trace(last, &mut out);
    }
    writeln!(
        out,
        "slow queries (≥ {}µs): {}",
        s.slow_threshold_us,
        s.slow.len()
    )
    .ok();
    for t in &s.slow {
        writeln!(
            out,
            "  {:.2?}  {} rows  `{}`",
            Duration::from_micros(t.elapsed_us),
            t.rows,
            t.label
        )
        .ok();
    }
    for m in &s.live {
        let drift = |stat: Option<f64>, live: Option<f64>| match (stat, live) {
            (Some(a), Some(b)) => format!("{a:.3} → {b:.3}"),
            (_, Some(b)) => format!("- → {b:.3}"),
            (Some(a), _) => format!("{a:.3} → -"),
            _ => "-".into(),
        };
        writeln!(
            out,
            "live {}: staged {}, lag {}, {} promotions (max batch {}), λ {}, E[D] {}",
            m.relation,
            m.staged,
            m.watermark_lag,
            m.promotion_batches,
            m.max_promotion_batch,
            drift(m.lambda_static, m.lambda_live),
            drift(m.duration_static, m.duration_live),
        )
        .ok();
    }
    if let Some(w) = &s.wal {
        writeln!(
            out,
            "wal ({}): {} appends, {} commits, {} fsyncs, {} bytes, \
             {} checkpoints; replay {} records / {} bytes in {:.2?}, {} torn tails cut",
            w.flush_policy,
            w.appends,
            w.commits,
            w.fsyncs,
            w.bytes_written,
            w.checkpoints,
            w.replayed_records,
            w.replay_bytes,
            Duration::from_micros(w.replay_us),
            w.torn_truncations,
        )
        .ok();
        for f in &w.slow_fsyncs {
            writeln!(
                out,
                "  slow fsync: {} took {:.2?}",
                f.relation,
                Duration::from_micros(f.micros)
            )
            .ok();
        }
    }
    if let Some(n) = &s.net {
        writeln!(
            out,
            "net: {} connections, frames {}/{} in/out, bytes {}/{}, \
             push high-water {}, {} slow-subscriber disconnects",
            n.connections,
            n.frames_in,
            n.frames_out,
            n.bytes_in,
            n.bytes_out,
            n.push_queue_highwater,
            n.slow_subscriber_disconnects,
        )
        .ok();
        // Under a burning SLO every open connection is a shed candidate;
        // flag them so `tdb top` readers see where load could come off.
        let shed = !s.health.is_empty() && s.health != "ok";
        for c in &n.conns {
            writeln!(
                out,
                "  conn #{}: frames {}/{} in/out, bytes {}/{}, push high-water {}{}",
                c.id,
                c.frames_in,
                c.frames_out,
                c.bytes_in,
                c.bytes_out,
                c.push_highwater,
                if shed { "  [slo: shed candidate]" } else { "" },
            )
            .ok();
        }
    }
    out
}

fn render_superstar(rows: &[SuperstarRow]) -> String {
    let mut out = String::new();
    for r in rows {
        writeln!(
            out,
            "{:<30} {:>10.2?}  {:>12} comparisons  {} superstars",
            r.label,
            Duration::from_micros(r.elapsed_us),
            r.comparisons,
            r.superstars
        )
        .ok();
    }
    out
}
