//! # tdb-core — the temporal data model
//!
//! This crate implements the data model of Leung & Muntz, *Query Processing
//! for Temporal Databases* (UCLA CSD-890024, ICDE 1990), Section 2:
//!
//! * time as a sequence of discrete, consecutive, equally-distanced, totally
//!   ordered points ([`TimePoint`]);
//! * temporal data values as 4-tuples `⟨S, V, ValidFrom, ValidTo⟩` with a
//!   half-open lifespan `[ValidFrom, ValidTo)` ([`TsTuple`], [`Period`]);
//! * Allen's thirteen elementary interval relationships and their expansion
//!   into explicit timestamp-inequality constraints ([`AllenRelation`],
//!   paper Figure 2);
//! * sort orderings over temporal streams ([`SortKey`], [`StreamOrder`]),
//!   which Section 4 of the paper shows govern the local-workspace
//!   requirements of stream operators;
//! * instance statistics ([`TemporalStats`]) — arrival rates `λ` and lifespan
//!   durations — that parameterize the paper's workspace analysis.
//!
//! Everything downstream (storage, stream operators, algebra, the semantic
//! optimizer) builds on these types.

pub mod allen;
pub mod error;
pub mod json;
pub mod order;
pub mod period;
pub mod schema;
pub mod stats;
pub mod time;
pub mod tuple;
pub mod value;

pub use allen::AllenRelation;
pub use error::{TdbError, TdbResult};
pub use json::{Json, JsonError};
pub use order::{Direction, SortKey, SortSpec, StreamOrder};
pub use period::Period;
pub use schema::{Field, FieldType, Schema, TemporalSchema};
pub use stats::{StatsAccumulator, TemporalStats};
pub use time::{TimeDelta, TimePoint};
pub use tuple::{PeriodRow, Row, Temporal, TsTuple};
pub use value::Value;
