#!/usr/bin/env bash
# Full CI gate: build, test, formatting, lints, concurrency model, Miri.
# Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

# Workspace source lints: repo concurrency and registry invariants as
# deny-by-default rules (no-unwrap in serving crates, bounded channels
# only, no guard across blocking calls, registry exhaustiveness,
# metrics naming). `// lint:allow(<rule>)` is the inline escape hatch.
echo "==> tdb lint"
cargo run -q -p tdb-cli -- lint

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Pedantic tier with the triaged allowlist: every category below was
# reviewed and judged stylistic for this codebase (docs sections, #[must_use]
# candidates, lossy-cast notes on metrics math, long planner match arms,
# branchless `&` predicates in the batch kernels' hot loops).
# Anything pedantic *outside* this list fails the build. Re-triaged in PR 7:
# iter_without_into_iter, missing_fields_in_debug, needless_pass_by_value,
# and trivially_copy_pass_by_ref no longer fire and were dropped after
# fixing their residual instances — the list shrinks, it does not ratchet.
echo "==> cargo clippy -- pedantic (triaged)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::pedantic \
  -A clippy::cast_possible_truncation \
  -A clippy::cast_possible_wrap \
  -A clippy::cast_precision_loss \
  -A clippy::cast_sign_loss \
  -A clippy::doc_markdown \
  -A clippy::float_cmp \
  -A clippy::format_push_string \
  -A clippy::map_unwrap_or \
  -A clippy::match_same_arms \
  -A clippy::missing_errors_doc \
  -A clippy::missing_panics_doc \
  -A clippy::must_use_candidate \
  -A clippy::needless_bitwise_bool \
  -A clippy::redundant_closure_for_method_calls \
  -A clippy::return_self_not_must_use \
  -A clippy::semicolon_if_nothing_returned \
  -A clippy::similar_names \
  -A clippy::single_match_else \
  -A clippy::too_many_lines

# Bounded paper run (E1–E3, E5, E6, E10–E15), built with the `check`
# feature: the workspace-cap cross-checks that are debug_assert-tier in
# normal builds become hard asserts in this optimized run. Every stream
# kernel of Tables 1–3 and §4.2.4 runs over its workload, the Contain-join
# runs time-partitioned at K = 1/2/4/8, and the Superstar query runs as the
# §3 nested-loop and merge plans beside the stream plan, each with its
# experiment's own assertions (the ascending and descending Table 3 scans
# agree, the Before-join count equals the double loop, every K's workspace
# peak stays under the static cap, every Superstar formulation gives the
# same answer). A port that trips a cap or an assertion fails here.
# Hard-capped at 60 seconds.
echo "==> paper tables (E1–E3, E5, E6, E10–E15, bounded)"
timeout 60 cargo run --release -p tdb-bench --features check --bin experiments -- \
  table1 table2 table3 fig3 superstar sweep policies before sortcost aggregate parallel

# The differential oracle, the end-to-end Quel suite, the streamed
# scans and the wire sink's equivalence, optimized and built with the
# `check` feature (`tests/oracle.rs`, `tests/streamed_scans.rs` and
# `tests/sink_equivalence.rs` belong to tdb-net, so the feature is
# forwarded as `tdb/check`): the workspace caps of stream nodes that read
# stored inputs page by page (taken from the catalog's statistics), the
# TE re-sort's peak (at most the relation's max concurrency) and a stored
# side's arena window are hard asserts here, not only in debug builds;
# and the > 64 MiB streamed reply (4 KiB ids, so fragments of about 16
# rows) is reassembled from its fragments in an optimized build.
# Hard-capped at 120 seconds.
echo "==> oracle + end-to-end Quel + streamed scans + sink equivalence (release, check)"
timeout 120 cargo test --release -p tdb -p tdb-net --features tdb/check --test oracle --test end_to_end_quel --test streamed_scans --test sink_equivalence

# The repo benchmark's own unit tests: it is a package of its own, so
# the workspace test run above does not build it. A wire or engine API
# change that breaks the harness's compile, or its copy of the server's
# chunk cut, fails here rather than in a benchmark run.
echo "==> benchmark harness unit tests"
cargo test --offline --manifest-path benchmark/Cargo.toml

# The repo benchmark's smoke run (≈ 25 s after its build), as a
# correctness gate: every workload is driven through a spawned
# `tdb serve`, and each served result — streamed chunks, limited
# prefixes, pushed deltas, rows acknowledged before a SIGKILL — is
# compared with the harness's own nested-loop reference; the traced
# framing must cut the chunks the server sent, and cap_exceeded must be
# 0. Its timings are flagged `quick` and gate nothing; performance
# claims are judged on full alternating runs (benchmark/README.md).
echo "==> benchmark smoke run (output checks, served path)"
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --quick

# Shim self-tests, each built from the shim's own directory (the
# workspace excludes crates/shim): the interleaving explorer must find
# the seeded racy counter, lock-order inversion and lost wakeup and pass
# the correct protocols exhaustively; the property-test runner must
# shrink a failure to its minimal case; the RNG, the wire codec's buffer
# type and the lock wrappers keep their contracts.
echo "==> shim self-tests (loom, proptest, rand, bytes, parking_lot)"
for shim in loom proptest rand bytes parking_lot; do
  (cd "crates/shim/$shim" && cargo test -q)
done

# Concurrency models, explored exhaustively under the bounded scheduler.
# Each suite is depth/iteration-bounded (TDB_LOOM_MAX_STEPS /
# TDB_LOOM_MAX_ITERATIONS override the defaults) and time-capped here.
echo "==> loom model (partition handoff)"
timeout 120 env RUSTFLAGS="--cfg loom" cargo test -p tdb-stream --test loom_partition
echo "==> loom model (live watermark promotion)"
timeout 120 env RUSTFLAGS="--cfg loom" cargo test -p tdb-live --test loom_live
echo "==> loom model (net writer teardown + slow subscriber)"
timeout 120 env RUSTFLAGS="--cfg loom" cargo test -p tdb-net --test loom_net

# Miri needs a nightly toolchain with the miri component; skip gracefully
# when only stable is installed (the GitHub Actions job always runs it).
if cargo +nightly miri --version >/dev/null 2>&1; then
  echo "==> cargo miri test (tdb-core, tdb-stream)"
  cargo +nightly miri test -p tdb-core -p tdb-stream
else
  echo "==> cargo miri: nightly+miri not installed, skipping (CI runs it)"
fi

echo "CI green."
