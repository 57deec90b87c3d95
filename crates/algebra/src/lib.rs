//! # tdb-algebra — temporal relational algebra, optimizer and executor
//!
//! This crate reproduces Section 3 of the paper (the "conventional
//! approach") and the planning side of Section 4:
//!
//! * a logical algebra with selections, projections, products, theta-joins
//!   and semijoins over temporal relations ([`logical`]), printable as the
//!   parse trees of Figure 3;
//! * expression atoms — conjunctions of comparisons over range-variable
//!   attributes and constants ([`expr`]), the "explicit constraints" into
//!   which Allen's operators desugar (Figure 2);
//! * the conventional rewrites: selection pushdown and product-to-join
//!   formation, turning Figure 3(a) into Figure 3(b) ([`rewrite`]);
//! * a recognizer that maps inequality conjunctions back onto temporal
//!   operators ([`pattern`]) — the prerequisite for choosing the §4 stream
//!   algorithms;
//! * a physical planner and executor ([`physical`], [`planner`]) that pick
//!   merge/stream/nested-loop implementations based on available sort
//!   orders, and report per-operator metrics and workspace;
//! * a cost model built on catalog statistics and Little's law
//!   ([`cost`]).

pub mod cost;
pub mod expr;
mod input;
pub mod logical;
pub mod pattern;
pub mod physical;
pub mod planner;
pub mod rewrite;

pub use expr::{Atom, ColumnRef, CompOp, Term};
pub use input::StreamInput;
pub use logical::{LogicalPlan, Scope};
pub use pattern::{recognize_pattern, TemporalPattern};
pub use physical::{ExecOptions, ExecStats, OpObservation, PhysicalPlan, QueryOutput, StreamOp};
pub use planner::{plan, PlannerConfig};
pub use rewrite::conventional_optimize;
