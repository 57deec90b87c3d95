//! # tdb-cli — an interactive shell for the temporal database
//!
//! A small REPL over the transport-agnostic [`Engine`]: generate or load
//! temporal relations, type modified-Quel queries (terminated by `;`),
//! inspect logical/physical plans, and compare the Superstar
//! formulations.
//!
//! ```text
//! $ cargo run -p tdb-cli --bin tdb
//! tdb> \gen faculty 200 42
//! tdb> range of f is Faculty retrieve (N=f.Name) where f.Rank = "Full";
//! tdb> \explain on
//! tdb> \superstar
//! ```
//!
//! All execution lives in [`tdb_engine::Engine`], which returns typed
//! [`Response`](tdb_engine::Response) values; [`Session`] owns the
//! line-buffering and local-only concerns (stdin ingest) and renders
//! responses to text. The same engine serves remote clients through
//! `tdb-net` (`tdb serve` / `tdb connect` in `main.rs`).

pub use tdb_engine::HELP;
use tdb_engine::{render, ClientState, Engine, Response};

use tdb::prelude::*;

/// REPL state: one local engine plus this shell's per-client settings.
pub struct Session {
    engine: Engine,
    /// This shell's settings (`\explain`, `\config`, `\set`, `\trace`) —
    /// the same per-client state a served connection carries.
    pub state: ClientState,
    buffer: String,
}

/// The outcome of feeding one input line to the session.
#[derive(Debug, PartialEq, Eq)]
pub enum LineResult {
    /// Output to display.
    Output(String),
    /// The line was buffered; the query is not yet terminated by `;`.
    Continue,
    /// The user asked to quit.
    Quit,
}

impl Session {
    /// Create a session backed by a catalog directory. Live-ingest staging
    /// runs spill under `<dir>/live`.
    pub fn open(dir: impl AsRef<std::path::Path>) -> TdbResult<Session> {
        Ok(Session {
            engine: Engine::open(dir)?,
            state: ClientState::default(),
            buffer: String::new(),
        })
    }

    /// Run one complete input through the engine and render the typed
    /// response as shell text.
    fn execute(&mut self, input: &str) -> LineResult {
        let resp = self.engine.execute(&mut self.state, input);
        if let Response::Goodbye = resp {
            return LineResult::Quit;
        }
        LineResult::Output(render(&resp, self.state.row_limit))
    }

    /// Feed one input line.
    pub fn feed(&mut self, line: &str) -> LineResult {
        let trimmed = line.trim();
        if self.buffer.is_empty() && trimmed.starts_with('\\') {
            // Stdin ingest needs this process's stdin, so the transport
            // (not the engine) resolves it.
            let parts: Vec<&str> = trimmed.split_whitespace().collect();
            if let ["\\ingest", rel, "-"] = parts.as_slice() {
                return match read_stdin() {
                    Ok(text) => {
                        let resp = self.engine.ingest_text(rel, &text);
                        LineResult::Output(render(&resp, self.state.row_limit))
                    }
                    Err(e) => LineResult::Output(format!("error: {e}")),
                };
            }
            return self.execute(trimmed);
        }
        if trimmed.is_empty() && self.buffer.is_empty() {
            return LineResult::Output(String::new());
        }
        self.buffer.push_str(line);
        self.buffer.push('\n');
        if trimmed.ends_with(';') {
            let text = std::mem::take(&mut self.buffer);
            self.execute(text.trim_end())
        } else {
            LineResult::Continue
        }
    }

    /// Statically analyze a query without running it: compile, optimize,
    /// plan, and print the verifier's certificate (or its diagnostics).
    /// Shared by the `\analyze` command and the `tdb analyze` subcommand.
    pub fn analyze_query(&mut self, text: &str) -> TdbResult<String> {
        let report = self.engine.analyze(self.state.config, text)?;
        Ok(render(&Response::Analysis(report), self.state.row_limit))
    }
}

fn read_stdin() -> TdbResult<String> {
    use std::io::Read as _;
    let mut s = String::new();
    std::io::stdin().lock().read_to_string(&mut s)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(tag: &str) -> Session {
        let dir = std::env::temp_dir().join(format!("tdb-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Session::open(dir).unwrap()
    }

    fn out(r: LineResult) -> String {
        match r {
            LineResult::Output(s) => s,
            other => panic!("expected output, got {other:?}"),
        }
    }

    #[test]
    fn generate_and_query() {
        let mut s = session("a");
        let msg = out(s.feed("\\gen faculty 50 7"));
        assert!(msg.contains("Faculty loaded"), "{msg}");
        let msg = out(s.feed("range of f is Faculty retrieve (N=f.Name) where f.Rank = \"Full\";"));
        assert!(msg.contains("rows in"), "{msg}");
        assert!(msg.contains("comparisons"));
    }

    #[test]
    fn multi_line_queries_buffer_until_semicolon() {
        let mut s = session("b");
        out(s.feed("\\gen faculty 20 1"));
        assert_eq!(s.feed("range of f is Faculty"), LineResult::Continue);
        assert_eq!(s.feed("retrieve (N=f.Name)"), LineResult::Continue);
        let msg = out(s.feed("where f.Rank = \"Associate\";"));
        assert!(msg.contains("rows in"), "{msg}");
    }

    #[test]
    fn explain_mode_prints_plans() {
        let mut s = session("c");
        out(s.feed("\\gen faculty 20 1"));
        out(s.feed("\\explain on"));
        let msg = out(s.feed("range of f is Faculty retrieve (N=f.Name);"));
        assert!(msg.contains("── physical ──"), "{msg}");
        assert!(msg.contains("SeqScan Faculty"));
    }

    #[test]
    fn explain_verify_prints_certificate() {
        let mut s = session("v");
        out(s.feed("\\gen faculty 30 5"));
        out(s.feed("\\explain verify"));
        assert!(s.state.verify);
        let query = "range of f1 is Faculty range of f2 is Faculty \
                     retrieve (N=f1.Name) \
                     where f1.ValidFrom < f2.ValidFrom and f2.ValidTo < f1.ValidTo;";
        let msg = out(s.feed(query));
        assert!(msg.contains("── static analysis ──"), "{msg}");
        assert!(msg.contains("Table 1 (b)"), "{msg}");
        assert!(msg.contains("λ·E[D]"), "{msg}");
        // `\explain off` clears verify too.
        out(s.feed("\\explain off"));
        assert!(!s.state.verify);
    }

    #[test]
    fn analyze_command_verifies_without_running() {
        let mut s = session("w");
        out(s.feed("\\gen faculty 30 5"));
        let msg = out(s.feed(
            "\\analyze range of f1 is Faculty range of f2 is Faculty \
             retrieve (N=f1.Name) where f1.ValidTo < f2.ValidFrom;",
        ));
        assert!(msg.contains("── static analysis ──"), "{msg}");
        // Before-join: correct under any order, never partitioned.
        assert!(msg.contains("BeforeJoin"), "{msg}");
        assert!(msg.contains("any order"), "{msg}");
        // No result footer — the query did not run.
        assert!(!msg.contains("rows in"), "{msg}");
    }

    #[test]
    fn superstar_command_compares_plans() {
        let mut s = session("d");
        out(s.feed("\\gen faculty 80 3"));
        let msg = out(s.feed("\\superstar"));
        assert!(msg.contains("conventional"), "{msg}");
        assert!(msg.contains("self-semijoin"));
        // Without Faculty: helpful error.
        let mut s2 = session("d2");
        let msg = out(s2.feed("\\superstar"));
        assert!(msg.contains("load Faculty first"), "{msg}");
    }

    #[test]
    fn tables_and_config_and_errors() {
        let mut s = session("e");
        let msg = out(s.feed("\\tables"));
        assert!(msg.contains("no relations"));
        out(s.feed("\\gen intervals Sensors 100 3 10 5"));
        let msg = out(s.feed("\\tables"));
        assert!(msg.contains("Sensors: 100 rows"), "{msg}");
        let msg = out(s.feed("\\config conventional"));
        assert!(msg.contains("conventional"));
        let msg = out(s.feed("\\config bogus"));
        assert!(msg.contains("unknown config"));
        let msg = out(s.feed("\\nonsense"));
        assert!(msg.contains("unknown command"));
        let msg = out(s.feed("range of f is Nope retrieve (N=f.Name);"));
        assert!(msg.starts_with("error:"), "{msg}");
    }

    #[test]
    fn set_parallelism_flows_into_plans() {
        let mut s = session("h");
        out(s.feed("\\gen faculty 40 9"));
        let msg = out(s.feed("\\set parallelism 4"));
        assert!(msg.contains("4 time-range partitions"), "{msg}");
        assert_eq!(s.state.config.parallelism, 4);
        out(s.feed("\\explain on"));
        let query = "range of f1 is Faculty range of f2 is Faculty \
                     retrieve (N=f1.Name) \
                     where f1.ValidFrom < f2.ValidFrom and f2.ValidTo < f1.ValidTo;";
        let msg = out(s.feed(query));
        assert!(msg.contains("Parallel ×4"), "{msg}");
        let msg = out(s.feed("\\set parallelism 1"));
        assert!(msg.contains("serial"), "{msg}");
        let msg = out(s.feed("\\set parallelism x"));
        assert!(msg.starts_with("error:"), "{msg}");
    }

    #[test]
    fn set_batch_flows_into_session_config() {
        let mut s = session("batch");
        let msg = out(s.feed("\\set batch 256"));
        assert!(msg.contains("256 rows"), "{msg}");
        assert_eq!(s.state.config.batch_rows, 256);
        // Unknown keys and out-of-range values (a batch holds at least
        // one row) surface the engine's typed configuration error, same
        // as over the wire, and leave the setting alone.
        let msg = out(s.feed("\\set batch 0"));
        assert!(msg.contains("configuration error"), "{msg}");
        assert_eq!(s.state.config.batch_rows, 256);
        let msg = out(s.feed("\\set warp 9"));
        assert!(msg.contains("configuration error"), "{msg}");
        let msg = out(s.feed("\\set batch 9999999999"));
        assert!(msg.contains("configuration error"), "{msg}");
    }

    #[test]
    fn set_limit_changes_session_row_limit() {
        let mut s = session("lim");
        let msg = out(s.feed("\\set limit 3"));
        assert!(msg.contains("row limit: 3"), "{msg}");
        assert_eq!(s.state.row_limit, 3);
        out(s.feed("\\gen intervals T 50 3 10 1"));
        let msg = out(s.feed("range of t is T retrieve (A=t.ValidFrom);"));
        assert!(msg.contains("more rows"), "{msg}");
    }

    fn arrivals_file(tag: &str, lines: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("tdb-cli-arrivals-{}-{tag}", std::process::id()));
        std::fs::write(&path, lines).unwrap();
        path
    }

    #[test]
    fn ingest_subscribe_and_close_flow() {
        let mut s = session("live");
        // First batch: a long interval and one it contains; TS 30 holds
        // the watermark so only TS < 30 is final.
        let f1 = arrivals_file("l1", "# comment\n0 100 long\n10 20 a\n30 40 b\n");
        let msg = out(s.feed(&format!("\\ingest S {}", f1.display())));
        assert!(msg.contains("S: 3 arrivals"), "{msg}");
        assert!(msg.contains("2 promoted"), "{msg}");
        assert!(msg.contains("1 staged"), "{msg}");
        assert!(msg.contains("watermark t30"), "{msg}");

        let query = "range of a is S range of b is S retrieve (X=a.Id, Y=b.Id) \
                     where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo";
        let msg = out(s.feed(&format!("\\subscribe {query};")));
        assert!(msg.contains("subscription #0 registered"), "{msg}");
        // (long, a) is already final at registration.
        assert!(msg.contains("+1 rows"), "{msg}");
        assert!(msg.contains("\"long\" | \"a\""), "{msg}");

        // Second batch pushes the watermark past b; the delta header
        // names the epoch and watermark that finalized it.
        let f2 = arrivals_file("l2", "50 60 c\n");
        let msg = out(s.feed(&format!("\\ingest S {}", f2.display())));
        assert!(msg.contains("+1 rows"), "{msg}");
        assert!(msg.contains("| \"b\""), "{msg}");
        assert!(msg.contains("watermark t50"), "{msg}");

        let msg = out(s.feed("\\live"));
        assert!(msg.contains("S (ValidFrom ↑)"), "{msg}");
        assert!(msg.contains("4 admitted"), "{msg}");
        assert!(msg.contains("#0 `range of"), "{msg}");
        assert!(msg.contains("workspace peak"), "{msg}");

        let msg = out(s.feed("\\live close S"));
        assert!(msg.contains("S sealed"), "{msg}");
        // (long, c) becomes final once the stream seals.
        assert!(msg.contains("| \"c\""), "{msg}");
        let msg = out(s.feed("\\live"));
        assert!(msg.contains("[sealed]"), "{msg}");
    }

    #[test]
    fn ingest_rejects_garbage_and_unsorted_arrivals() {
        let mut s = session("livebad");
        let f = arrivals_file("bad", "not numbers\n");
        let msg = out(s.feed(&format!("\\ingest S {}", f.display())));
        assert!(msg.starts_with("error:"), "{msg}");
        let f = arrivals_file("late", "50 60 a\n10 20 late\n");
        let msg = out(s.feed(&format!("\\ingest S {}", f.display())));
        assert!(msg.contains("order violation"), "{msg}");
    }

    #[test]
    fn subscribe_requires_known_relations() {
        let mut s = session("livesub");
        let msg = out(s.feed("\\subscribe range of x is Nope retrieve (A=x.Id);"));
        assert!(msg.starts_with("error:"), "{msg}");
    }

    #[test]
    fn trace_and_stats_commands() {
        let mut s = session("obs");
        out(s.feed("\\gen intervals T 100 3 10 7"));
        let msg = out(s.feed("\\trace on"));
        assert!(s.state.trace, "{msg}");
        let msg = out(s.feed(
            "range of a is T range of b is T retrieve (X=a.Id, Y=b.Id) \
             where a.ValidFrom < b.ValidFrom and b.ValidTo < a.ValidTo;",
        ));
        assert!(msg.contains("── trace (query "), "{msg}");
        assert!(msg.contains("workspace peak"), "{msg}");
        assert!(msg.contains("λ·E[D]"), "{msg}");
        assert!(!msg.contains("CAP EXCEEDED"), "{msg}");
        // Timed stage spans render above the operator spans.
        assert!(msg.contains("parse"), "{msg}");
        assert!(msg.contains("execute"), "{msg}");
        out(s.feed("\\trace off"));
        assert!(!s.state.trace);
        let msg = out(s.feed("\\stats"));
        assert!(msg.contains("1 queries"), "{msg}");
        assert!(msg.contains("cap exceeded 0"), "{msg}");
        assert!(msg.contains("health ok"), "{msg}");
        assert!(msg.contains("slo latency"), "{msg}");
        assert!(msg.contains("p99"), "{msg}");
        assert!(msg.contains("last: `range of a is T"), "{msg}");
    }

    #[test]
    fn quit() {
        let mut s = session("f");
        assert_eq!(s.feed("\\quit"), LineResult::Quit);
        assert_eq!(s.feed("\\q"), LineResult::Quit);
    }

    #[test]
    fn row_limit_truncates_output() {
        let mut s = session("g");
        s.state.row_limit = 3;
        out(s.feed("\\gen intervals T 50 3 10 1"));
        let msg = out(s.feed("range of t is T retrieve (A=t.ValidFrom);"));
        assert!(msg.contains("more rows"), "{msg}");
    }
}
