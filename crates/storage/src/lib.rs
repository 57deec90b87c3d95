//! # tdb-storage — the paged storage substrate
//!
//! The paper's stream-processing analysis (Section 4.1) trades off three
//! resources: local workspace, sort order of input streams, and **multiple
//! passes over input streams (i.e. the number of disk accesses)**. To measure
//! that third axis honestly, this crate provides a real storage engine rather
//! than an assumed one:
//!
//! * slotted [`page::Page`]s and on-disk [`heap::HeapFile`]s,
//! * sequential sorted [`run::RunWriter`]/[`run::RunReader`] files,
//! * an [`sort::ExternalSorter`] (in-memory runs + k-way merge) that
//!   produces the "properly sorted" streams every Section 4 operator
//!   requires,
//! * a [`catalog::Catalog`] naming relations with schemas and statistics,
//! * [`iostats::IoStats`] counters so experiments can report passes and
//!   page I/O exactly.

pub mod catalog;
pub mod codec;
pub mod heap;
pub mod iostats;
pub mod page;
pub mod run;
pub mod sort;

pub use catalog::{Catalog, RelationMeta};
pub use codec::Codec;
pub use heap::{HeapFile, PageScan};
pub use iostats::IoStats;
pub use page::{Page, PAGE_SIZE};
pub use run::{RunReader, RunWriter};
pub use sort::ExternalSorter;
