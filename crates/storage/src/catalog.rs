//! The catalog: named temporal relations with schemas and statistics.
//!
//! Paper Section 6: "Statistical information about the database is known to
//! be important in query optimization. For temporal databases, it appears to
//! be more critical ... estimating the amount of local workspace becomes
//! necessary." The catalog stores each relation's [`TemporalSchema`],
//! row count and [`TemporalStats`], plus which sort orders the stored
//! representation already satisfies — the optimizer's "interesting orders".

use crate::heap::{HeapFile, PageScan};
use crate::iostats::IoStats;
use crate::page::PAGE_SIZE;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tdb_core::{
    jobj, Direction, Field, FieldType, Json, Period, Row, Schema, SortKey, SortSpec,
    StatsAccumulator, StreamOrder, TdbError, TdbResult, TemporalSchema, TemporalStats, TimePoint,
};

/// Metadata for one relation.
#[derive(Debug, Clone)]
pub struct RelationMeta {
    /// Relation name.
    pub name: String,
    /// Schema including the designated timestamp columns.
    pub schema: TemporalSchema,
    /// Heap file path, relative to the catalog directory: `{name}.{g}.heap`
    /// for the relation's `g`-th load (`{name}.heap` in catalogs written
    /// before loads were generational).
    pub file: String,
    /// Row count.
    pub rows: usize,
    /// Temporal statistics (λ, durations, concurrency).
    pub stats: TemporalStats,
    /// Sort orders the stored row sequence satisfies.
    pub known_orders: Vec<StreamOrder>,
    /// Page count of the heap file. In the manifest it is the durable
    /// page count: each append batch writes only fresh pages, and a heap
    /// is synced before the manifest names its pages, so this is the
    /// commit point a durable reopen truncates trailing pages back to.
    /// `None` for manifests written before durability existed.
    pub pages: Option<u64>,
}

// Manifest serialization. The format is deliberately spelled out field by
// field so the on-disk schema is explicit and stable; `from_json` rejects
// anything it does not recognize rather than guessing.

fn corrupt(what: &str) -> TdbError {
    TdbError::Corrupt(format!("catalog manifest: {what}"))
}

fn sort_spec_to_json(s: SortSpec) -> Json {
    let key = match s.key {
        SortKey::ValidFrom => "ValidFrom",
        SortKey::ValidTo => "ValidTo",
    };
    let dir = match s.direction {
        Direction::Asc => "asc",
        Direction::Desc => "desc",
    };
    jobj! { "key" => key, "direction" => dir }
}

fn sort_spec_from_json(j: &Json) -> TdbResult<SortSpec> {
    let key = match j.get("key").and_then(Json::as_str) {
        Some("ValidFrom") => SortKey::ValidFrom,
        Some("ValidTo") => SortKey::ValidTo,
        _ => return Err(corrupt("bad sort key")),
    };
    let direction = match j.get("direction").and_then(Json::as_str) {
        Some("asc") => Direction::Asc,
        Some("desc") => Direction::Desc,
        _ => return Err(corrupt("bad sort direction")),
    };
    Ok(SortSpec { key, direction })
}

fn order_to_json(o: StreamOrder) -> Json {
    jobj! {
        "primary" => sort_spec_to_json(o.primary),
        "secondary" => o.secondary.map(sort_spec_to_json),
    }
}

fn order_from_json(j: &Json) -> TdbResult<StreamOrder> {
    let primary = sort_spec_from_json(j.get("primary").ok_or_else(|| corrupt("order.primary"))?)?;
    let secondary = match j.get("secondary") {
        None | Some(Json::Null) => None,
        Some(s) => Some(sort_spec_from_json(s)?),
    };
    Ok(StreamOrder { primary, secondary })
}

fn schema_to_json(s: &TemporalSchema) -> Json {
    let fields: Vec<Json> = s
        .schema
        .fields()
        .iter()
        .map(|f| jobj! { "name" => f.name.as_str(), "type" => f.ty.to_string() })
        .collect();
    jobj! {
        "fields" => fields,
        "valid_from" => s.valid_from,
        "valid_to" => s.valid_to,
    }
}

fn schema_from_json(j: &Json) -> TdbResult<TemporalSchema> {
    let mut fields = Vec::new();
    for f in j
        .get("fields")
        .and_then(Json::as_array)
        .ok_or_else(|| corrupt("schema.fields"))?
    {
        let name = f
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("field.name"))?;
        let ty = match f.get("type").and_then(Json::as_str) {
            Some("bool") => FieldType::Bool,
            Some("int") => FieldType::Int,
            Some("time") => FieldType::Time,
            Some("str") => FieldType::Str,
            _ => return Err(corrupt("field.type")),
        };
        fields.push(Field::new(name, ty));
    }
    let valid_from = j
        .get("valid_from")
        .and_then(Json::as_usize)
        .ok_or_else(|| corrupt("schema.valid_from"))?;
    let valid_to = j
        .get("valid_to")
        .and_then(Json::as_usize)
        .ok_or_else(|| corrupt("schema.valid_to"))?;
    TemporalSchema::new(Schema::new(fields), valid_from, valid_to)
        .map_err(|e| corrupt(&format!("invalid schema: {e}")))
}

fn stats_to_json(s: &TemporalStats) -> Json {
    jobj! {
        "count" => s.count,
        "min_ts" => s.min_ts.map(|t| t.0),
        "max_te" => s.max_te.map(|t| t.0),
        "lambda" => s.lambda,
        "mean_duration" => s.mean_duration,
        "max_duration" => s.max_duration,
        "max_concurrency" => s.max_concurrency,
    }
}

fn stats_from_json(j: &Json) -> TdbResult<TemporalStats> {
    let field = |name: &str| j.get(name).ok_or_else(|| corrupt(name));
    Ok(TemporalStats {
        count: field("count")?.as_usize().ok_or_else(|| corrupt("count"))?,
        min_ts: field("min_ts")?.as_i64().map(TimePoint),
        max_te: field("max_te")?.as_i64().map(TimePoint),
        lambda: field("lambda")?.as_f64(),
        mean_duration: field("mean_duration")?
            .as_f64()
            .ok_or_else(|| corrupt("mean_duration"))?,
        max_duration: field("max_duration")?
            .as_i64()
            .ok_or_else(|| corrupt("max_duration"))?,
        max_concurrency: field("max_concurrency")?
            .as_usize()
            .ok_or_else(|| corrupt("max_concurrency"))?,
    })
}

impl RelationMeta {
    fn to_json(&self, tail: Option<&Tail>) -> Json {
        let orders: Vec<Json> = self
            .known_orders
            .iter()
            .copied()
            .map(order_to_json)
            .collect();
        jobj! {
            "name" => self.name.as_str(),
            "schema" => schema_to_json(&self.schema),
            "file" => self.file.as_str(),
            "rows" => self.rows,
            "stats" => stats_to_json(&self.stats),
            "known_orders" => orders,
            "pages" => self.pages.map(|p| p as i64),
            "tail" => tail.and_then(Tail::to_json),
        }
    }

    fn from_json(j: &Json) -> TdbResult<RelationMeta> {
        let known_orders = j
            .get("known_orders")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("known_orders"))?
            .iter()
            .map(order_from_json)
            .collect::<TdbResult<Vec<_>>>()?;
        Ok(RelationMeta {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("name"))?
                .to_string(),
            schema: schema_from_json(j.get("schema").ok_or_else(|| corrupt("schema"))?)?,
            file: j
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("file"))?
                .to_string(),
            rows: j
                .get("rows")
                .and_then(Json::as_usize)
                .ok_or_else(|| corrupt("rows"))?,
            stats: stats_from_json(j.get("stats").ok_or_else(|| corrupt("stats"))?)?,
            known_orders,
            pages: j.get("pages").and_then(Json::as_i64).map(|p| p as u64),
        })
    }
}

/// What an append needs to know about a stored relation without reading
/// it: the period of its last row, and — while the stored rows are sorted
/// on `TS` — the running terms of its statistics. The manifest keeps it
/// beside the rows it describes, so the first append after a reopen
/// (a durable reopen's re-promotion among them) need not scan the heap;
/// a manifest without one, or with one that does not fit, costs that
/// scan instead.
#[derive(Debug, Clone)]
struct Tail {
    last: Option<Period>,
    stats: Option<StatsAccumulator>,
}

/// A tail whose statistics hold more open lifespans than this is left
/// out of the manifest, which is rewritten at every checkpoint: a
/// relation of mostly overlapping lifespans rebuilds it by a scan.
const TAIL_OPEN_MAX: usize = 4096;

impl Tail {
    fn of(periods: &[Period]) -> Tail {
        Tail {
            last: periods.last().copied(),
            stats: StatsAccumulator::of_sorted(periods),
        }
    }

    fn to_json(&self) -> Option<Json> {
        if self
            .stats
            .as_ref()
            .is_some_and(|acc| acc.open_len() > TAIL_OPEN_MAX)
        {
            return None;
        }
        Some(jobj! {
            "last" => self.last.map(|p| vec![p.start().0, p.end().0]),
            "stats" => self.stats.as_ref().map(StatsAccumulator::to_json),
        })
    }

    /// Read back what [`Tail::to_json`] wrote for a relation of `rows`
    /// rows; `None` for anything else, or for a tail that cannot
    /// describe that many rows.
    fn from_json(j: &Json, rows: usize) -> Option<Tail> {
        let last = match j.get("last")? {
            Json::Null => None,
            p => match p.as_array()? {
                [ts, te] => Some(Period::new(ts.as_i64()?, te.as_i64()?).ok()?),
                _ => return None,
            },
        };
        let stats = match j.get("stats")? {
            Json::Null => None,
            acc => Some(StatsAccumulator::from_json(acc)?),
        };
        let fits = last.is_some() == (rows > 0)
            && stats.as_ref().is_none_or(|acc| acc.stats().count == rows);
        fits.then_some(Tail { last, stats })
    }
}

/// The heap file a load of `name` writes: the generation after the one
/// in `current` (the file the manifest names now), so a load never
/// rewrites a committed file in place.
fn next_heap_file(name: &str, current: Option<&str>) -> String {
    let generation = current
        .and_then(|f| {
            f.strip_prefix(name)?
                .strip_prefix('.')?
                .strip_suffix(".heap")
        })
        .and_then(|g| g.parse::<u64>().ok())
        .map_or(1, |g| g + 1);
    format!("{name}.{generation}.heap")
}

/// Delete every `*.heap` file in `dir` that no relation of the manifest
/// names.
fn sweep_heaps(dir: &Path, relations: &BTreeMap<String, RelationMeta>) -> TdbResult<()> {
    let named: Vec<&str> = relations.values().map(|m| m.file.as_str()).collect();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let orphan = path.extension().is_some_and(|e| e == "heap")
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| !named.contains(&n));
        if orphan {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Told the latency in microseconds of every sync a durable catalog makes.
type SyncObserver = Arc<dyn Fn(u64) + Send + Sync>;

/// A directory-backed catalog of temporal relations.
pub struct Catalog {
    dir: PathBuf,
    relations: BTreeMap<String, RelationMeta>,
    /// Per-relation append state: from the rows at creation, else from
    /// the manifest, else built by one scan on the relation's first
    /// append after [`Catalog::open`].
    tails: BTreeMap<String, Tail>,
    io: IoStats,
    /// When set, a manifest write goes through write-temp → fsync →
    /// rename → directory sync, and it first syncs every heap appended to
    /// since the last one, so the manifest never names an unsynced page.
    /// Appends themselves neither sync nor write the manifest: the
    /// caller's write-ahead log covers them until [`Catalog::persist`].
    durable: bool,
    /// Relations whose heap has pages appended since the last manifest
    /// write (durable catalogs only).
    unsynced: BTreeSet<String>,
    on_sync: Option<SyncObserver>,
}

impl Catalog {
    const MANIFEST: &'static str = "catalog.json";

    /// Open (or initialize) a catalog in `dir`. Heap files the manifest
    /// does not name are deleted: a load that died before its manifest
    /// rename, or the file a committed load replaced.
    pub fn open(dir: impl AsRef<Path>, io: IoStats) -> TdbResult<Catalog> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(Self::MANIFEST);
        let mut relations = BTreeMap::new();
        let mut tails = BTreeMap::new();
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest)?;
            let doc = Json::parse(&text)
                .map_err(|e| TdbError::Corrupt(format!("catalog manifest: {e}")))?;
            for (name, j) in doc
                .as_object()
                .ok_or_else(|| corrupt("top level must be an object"))?
            {
                let meta = RelationMeta::from_json(j)?;
                if let Some(tail) = j.get("tail").and_then(|t| Tail::from_json(t, meta.rows)) {
                    tails.insert(name.clone(), tail);
                }
                relations.insert(name.clone(), meta);
            }
            sweep_heaps(&dir, &relations)?;
        }
        Ok(Catalog {
            dir,
            relations,
            tails,
            io,
            durable: false,
            unsynced: BTreeSet::new(),
            on_sync: None,
        })
    }

    /// Open a catalog in durable mode: crash-safe manifest writes that
    /// sync the heaps they name first, and trailing heap pages the
    /// manifest does not name (appends since its last write, possibly
    /// torn) truncated back to the durable page count it records.
    pub fn open_durable(dir: impl AsRef<Path>, io: IoStats) -> TdbResult<Catalog> {
        let mut cat = Self::open(dir, io)?;
        cat.durable = true;
        cat.repair_heaps()?;
        Ok(cat)
    }

    /// Whether this catalog was opened in durable mode.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Report each later sync's latency in microseconds to `observe`, so
    /// one counter can see every sync on the durable path.
    pub fn observe_syncs(&mut self, observe: impl Fn(u64) + Send + Sync + 'static) {
        self.on_sync = Some(Arc::new(observe));
    }

    /// Run one sync, reporting its latency to the sync observer.
    fn timed_sync<E>(&self, sync: impl FnOnce() -> Result<(), E>) -> TdbResult<()>
    where
        TdbError: From<E>,
    {
        let t = std::time::Instant::now();
        sync()?;
        if let Some(observe) = &self.on_sync {
            observe(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        Ok(())
    }

    /// Truncate each heap file back to its manifest-recorded durable page
    /// count. Appends only ever write fresh pages past that point, so
    /// anything beyond it was appended after the last manifest write —
    /// whole, torn or lost by a power cut — and is the write-ahead log's
    /// to re-apply. A heap *shorter* than the manifest claims is real
    /// corruption: the manifest is only renamed into place after the heap
    /// is synced.
    fn repair_heaps(&self) -> TdbResult<()> {
        for meta in self.relations.values() {
            let Some(pages) = meta.pages else { continue };
            let path = self.dir.join(&meta.file);
            let len = std::fs::metadata(&path)?.len();
            let want = pages * PAGE_SIZE as u64;
            if len < want {
                return Err(TdbError::Corrupt(format!(
                    "heap file {} has {len} bytes but the manifest records {pages} durable pages",
                    path.display()
                )));
            }
            if len > want {
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(want)?;
                file.sync_data()?;
            }
        }
        Ok(())
    }

    /// Write the manifest. A durable catalog first syncs every heap
    /// appended to since the last write, then replaces the manifest
    /// crash-safely (temp file, sync, rename, directory sync), so a crash
    /// finds the old or the new manifest and every page it names. The
    /// directory sync also makes a fresh heap generation's entry durable.
    pub fn persist(&mut self) -> TdbResult<()> {
        let doc = Json::Object(
            self.relations
                .iter()
                .map(|(name, meta)| (name.clone(), meta.to_json(self.tails.get(name))))
                .collect(),
        )
        .to_string_pretty();
        let path = self.dir.join(Self::MANIFEST);
        if !self.durable {
            // Non-durable: nothing is promised across a crash. lint:allow(no-unsynced-durability-write)
            std::fs::write(path, doc)?;
            return Ok(());
        }
        for name in &self.unsynced {
            if let Some(meta) = self.relations.get(name) {
                let heap = std::fs::File::open(self.dir.join(&meta.file))?;
                self.timed_sync(|| heap.sync_data())?;
            }
        }
        self.unsynced.clear();
        let tmp = self.dir.join("catalog.json.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(doc.as_bytes())?;
            self.timed_sync(|| f.sync_all())?;
        }
        std::fs::rename(&tmp, &path)?;
        let dir = std::fs::File::open(&self.dir)?;
        self.timed_sync(|| dir.sync_all())
    }

    /// The I/O counter handle shared by this catalog's files.
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// Names of all relations.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Metadata for `name`.
    pub fn meta(&self, name: &str) -> TdbResult<&RelationMeta> {
        self.relations
            .get(name)
            .ok_or_else(|| TdbError::Catalog(format!("unknown relation `{name}`")))
    }

    /// Create (or replace) a relation from rows, validating every row
    /// against the schema and recording statistics.
    ///
    /// The rows go to a fresh generation of the relation's heap file
    /// (synced when durable), and the manifest rename commits the load:
    /// a crash before it reopens the previous rows, one after it the new
    /// ones. The replaced file is deleted once the rename is done.
    ///
    /// `known_orders` documents orderings the caller guarantees the row
    /// sequence satisfies; they are verified here so the optimizer can trust
    /// them later.
    pub fn create_relation(
        &mut self,
        name: &str,
        schema: TemporalSchema,
        rows: &[Row],
        known_orders: Vec<StreamOrder>,
    ) -> TdbResult<()> {
        let mut periods = Vec::with_capacity(rows.len());
        for row in rows {
            schema.check_row(row)?;
            periods.push(schema.period_of(row)?);
        }
        for order in &known_orders {
            if let Some(i) = order.first_violation(&periods) {
                return Err(TdbError::OrderViolation {
                    context: "catalog create_relation",
                    detail: format!("claimed order {order} violated at row {i}"),
                });
            }
        }

        let replaced = self.relations.get(name).map(|m| m.file.clone());
        let file = next_heap_file(name, replaced.as_deref());
        let mut heap = HeapFile::create(self.dir.join(&file), self.io.clone())?;
        for row in rows {
            heap.append(row)?;
        }
        heap.flush()?;
        if self.durable {
            self.timed_sync(|| heap.sync_data())?;
        }

        let stats = TemporalStats::compute(&periods);
        let pages = Some(heap.page_count());
        self.tails.insert(name.to_string(), Tail::of(&periods));
        self.relations.insert(
            name.to_string(),
            RelationMeta {
                name: name.to_string(),
                schema,
                file,
                rows: rows.len(),
                stats,
                known_orders,
                pages,
            },
        );
        self.unsynced.remove(name);
        self.persist()?;
        if let Some(replaced) = replaced {
            let _ = std::fs::remove_file(self.dir.join(replaced));
        }
        Ok(())
    }

    /// Append rows to an existing relation, preserving its claimed sort
    /// orders and refreshing statistics, in O(appended rows).
    ///
    /// Every claimed order in `known_orders` is checked over the stored
    /// tail row followed by the new rows — sortedness is a property of
    /// adjacent pairs, so the stored prefix needs no re-reading — and an
    /// append that would break an order the optimizer relies on is
    /// rejected, leaving heap and manifest untouched. Live ingestion
    /// satisfies this by construction: closed prefixes are promoted in
    /// watermark order, so each batch sorts entirely after the rows
    /// already stored. Statistics extend the relation's running terms
    /// while the stored rows stay sorted on `TS`; an append that does not
    /// continue that order recomputes them from a full scan. Returns the
    /// new total row count.
    ///
    /// A durable catalog neither syncs the heap nor writes the manifest
    /// here: the rows are visible at once, and durable from the next
    /// [`Catalog::persist`] (a checkpoint, or any DDL). Until then the
    /// caller's write-ahead log must cover them — a reopen cuts the pages.
    pub fn append_rows(&mut self, name: &str, rows: &[Row]) -> TdbResult<usize> {
        let meta = self.meta(name)?;
        if rows.is_empty() {
            return Ok(meta.rows);
        }
        let schema = meta.schema.clone();
        let file = meta.file.clone();
        let stored = meta.rows;
        let mut periods = Vec::with_capacity(rows.len() + 1);
        for row in rows {
            schema.check_row(row)?;
            periods.push(schema.period_of(row)?);
        }
        let mut tail = match self.tails.remove(name) {
            Some(tail) => tail,
            None => Tail::of(&self.stored_periods(name)?),
        };
        let checked = match tail.last {
            Some(last) => [&[last][..], &periods].concat(),
            None => periods.clone(),
        };
        let offset = stored - usize::from(tail.last.is_some());
        let violation = self.meta(name)?.known_orders.iter().find_map(|order| {
            let i = order.first_violation(&checked)?;
            Some(format!(
                "append would violate claimed order {order} at row {}",
                offset + i
            ))
        });
        if let Some(detail) = violation {
            self.tails.insert(name.to_string(), tail);
            return Err(TdbError::OrderViolation {
                context: "catalog append_rows",
                detail,
            });
        }

        let mut heap = HeapFile::open(self.dir.join(&file), self.io.clone())?;
        for row in rows {
            heap.append(row)?;
        }
        heap.flush()?;

        tail.last = periods.last().copied();
        let extended = tail
            .stats
            .as_mut()
            .is_some_and(|acc| periods.iter().all(|p| acc.push(*p)));
        if !extended {
            tail.stats = None;
        }
        let stats = match &tail.stats {
            Some(acc) => acc.stats(),
            // The stored rows are not (or no longer) sorted on TS, and no
            // append can sort them again: from here on the statistics come
            // from a full scan.
            None => TemporalStats::compute(&self.stored_periods(name)?),
        };
        self.tails.insert(name.to_string(), tail);
        let total = stored + rows.len();
        let pages = Some(heap.page_count());
        let meta = self
            .relations
            .get_mut(name)
            .expect("relation existed above");
        meta.rows = total;
        meta.stats = stats;
        meta.pages = pages;
        if self.durable {
            self.unsynced.insert(name.to_string());
        } else {
            self.persist()?;
        }
        Ok(total)
    }

    /// The operand periods of every stored row of `name`, in storage order.
    fn stored_periods(&self, name: &str) -> TdbResult<Vec<Period>> {
        let schema = &self.meta(name)?.schema;
        self.scan(name)?
            .iter()
            .map(|row| schema.period_of(row))
            .collect()
    }

    /// Read every row of `name` in storage order: a collect over
    /// [`Catalog::scan_pages`].
    pub fn scan(&self, name: &str) -> TdbResult<Vec<Row>> {
        let mut rows = Vec::with_capacity(self.meta(name)?.rows);
        let mut pages = self.scan_pages(name)?;
        while pages.next_page(&mut rows)? {}
        Ok(rows)
    }

    /// A page-at-a-time scan of `name`'s heap over the pages it holds
    /// now: rows appended after it opens are not read.
    pub fn scan_pages(&self, name: &str) -> TdbResult<PageScan> {
        let meta = self.meta(name)?;
        HeapFile::open(self.dir.join(&meta.file), self.io.clone())?.pages()
    }

    /// Drop a relation and its heap file.
    pub fn drop_relation(&mut self, name: &str) -> TdbResult<()> {
        let meta = self
            .relations
            .remove(name)
            .ok_or_else(|| TdbError::Catalog(format!("unknown relation `{name}`")))?;
        self.tails.remove(name);
        self.unsynced.remove(name);
        // The manifest stops naming the heap before the heap goes.
        self.persist()?;
        let _ = std::fs::remove_file(self.dir.join(&meta.file));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{TimePoint, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("tdb-catalog-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn faculty_rows() -> (TemporalSchema, Vec<Row>) {
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let mk = |n: &str, r: &str, s: i64, e: i64| {
            Row::new(vec![
                Value::str(n),
                Value::str(r),
                Value::Time(TimePoint(s)),
                Value::Time(TimePoint(e)),
            ])
        };
        (
            schema,
            vec![
                mk("Smith", "Assistant", 0, 5),
                mk("Smith", "Associate", 5, 9),
                mk("Smith", "Full", 9, 20),
            ],
        )
    }

    #[test]
    fn create_scan_round_trip() {
        let mut cat = Catalog::open(tmpdir("a"), IoStats::new()).unwrap();
        let (schema, rows) = faculty_rows();
        cat.create_relation("Faculty", schema, &rows, vec![StreamOrder::TS_ASC])
            .unwrap();
        assert_eq!(cat.scan("Faculty").unwrap(), rows);
        let meta = cat.meta("Faculty").unwrap();
        assert_eq!(meta.rows, 3);
        assert_eq!(meta.stats.count, 3);
        assert_eq!(meta.known_orders, vec![StreamOrder::TS_ASC]);
    }

    #[test]
    fn persists_across_reopen() {
        let dir = tmpdir("b");
        {
            let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
            let (schema, rows) = faculty_rows();
            cat.create_relation("Faculty", schema, &rows, vec![])
                .unwrap();
        }
        let cat = Catalog::open(&dir, IoStats::new()).unwrap();
        assert_eq!(cat.relation_names(), vec!["Faculty".to_string()]);
        assert_eq!(cat.scan("Faculty").unwrap().len(), 3);
    }

    #[test]
    fn rejects_bad_rows_and_false_order_claims() {
        let mut cat = Catalog::open(tmpdir("c"), IoStats::new()).unwrap();
        let (schema, mut rows) = faculty_rows();
        // Claimed TE ↑ is false here: TEs are 5, 9, 20 — actually it's true;
        // reverse rows to break TS order instead.
        rows.reverse();
        assert!(matches!(
            cat.create_relation("F", schema.clone(), &rows, vec![StreamOrder::TS_ASC]),
            Err(TdbError::OrderViolation { .. })
        ));
        // Arity mismatch.
        let bad = vec![Row::new(vec![Value::Int(1)])];
        assert!(cat.create_relation("F", schema, &bad, vec![]).is_err());
    }

    #[test]
    fn append_rows_extends_and_reverifies_orders() {
        let mut cat = Catalog::open(tmpdir("f"), IoStats::new()).unwrap();
        let (schema, rows) = faculty_rows();
        cat.create_relation("Faculty", schema, &rows, vec![StreamOrder::TS_ASC])
            .unwrap();
        let later = Row::new(vec![
            Value::str("Jones"),
            Value::str("Assistant"),
            Value::Time(TimePoint(12)),
            Value::Time(TimePoint(30)),
        ]);
        let total = cat
            .append_rows("Faculty", std::slice::from_ref(&later))
            .unwrap();
        assert_eq!(total, 4);
        let meta = cat.meta("Faculty").unwrap();
        assert_eq!(meta.rows, 4);
        assert_eq!(meta.stats.count, 4);
        assert_eq!(cat.scan("Faculty").unwrap().len(), 4);

        // An append that would break the claimed TS ↑ order is rejected
        // and leaves the relation untouched.
        let early = Row::new(vec![
            Value::str("Early"),
            Value::str("Assistant"),
            Value::Time(TimePoint(1)),
            Value::Time(TimePoint(2)),
        ]);
        assert!(matches!(
            cat.append_rows("Faculty", &[early]),
            Err(TdbError::OrderViolation { .. })
        ));
        assert_eq!(cat.scan("Faculty").unwrap().len(), 4);

        // Empty appends are a no-op returning the current count.
        assert_eq!(cat.append_rows("Faculty", &[]).unwrap(), 4);
    }

    fn at(ts: i64, te: i64) -> Row {
        Row::new(vec![
            Value::str("x"),
            Value::str("Assistant"),
            Value::Time(TimePoint(ts)),
            Value::Time(TimePoint(te)),
        ])
    }

    /// `meta.stats` must be what a full scan computes, field by field.
    fn assert_stats_match_scan(cat: &Catalog, name: &str) {
        let meta = cat.meta(name).unwrap();
        let periods: Vec<Period> = cat
            .scan(name)
            .unwrap()
            .iter()
            .map(|r| meta.schema.period_of(r).unwrap())
            .collect();
        assert_eq!(meta.rows, periods.len());
        assert_eq!(meta.stats, TemporalStats::compute(&periods));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn appended_stats_equal_a_full_recompute(
            batches in proptest::collection::vec(
                (proptest::collection::vec((0i64..5, 1i64..30), 1..12), proptest::bool::ANY),
                1..8,
            ),
        ) {
            let dir = tmpdir(&format!("prop-{}", batches.len()));
            let schema = TemporalSchema::time_sequence("Name", "Rank");
            let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
            cat.create_relation("R", schema, &[], vec![StreamOrder::TS_ASC]).unwrap();
            let mut ts = 0i64;
            for (batch, reopen) in &batches {
                if *reopen {
                    cat = Catalog::open(&dir, IoStats::new()).unwrap();
                }
                let rows: Vec<Row> = batch
                    .iter()
                    .map(|&(gap, dur)| {
                        ts += gap;
                        at(ts, ts + dur)
                    })
                    .collect();
                cat.append_rows("R", &rows).unwrap();
                assert_stats_match_scan(&cat, "R");
            }
        }
    }

    #[test]
    fn append_before_the_stored_tail_is_rejected_before_and_after_reopen() {
        let dir = tmpdir("tail");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        cat.create_relation(
            "R",
            schema,
            &[at(0, 4), at(3, 9)],
            vec![StreamOrder::TS_ASC],
        )
        .unwrap();
        cat.append_rows("R", &[at(5, 6)]).unwrap();
        let files = || {
            (
                std::fs::read(dir.join("R.1.heap")).unwrap(),
                std::fs::read(dir.join(Catalog::MANIFEST)).unwrap(),
            )
        };
        for reopen in [false, true] {
            if reopen {
                cat = Catalog::open(&dir, IoStats::new()).unwrap();
            }
            let before = files();
            let stored = cat.meta("R").unwrap().rows;
            let err = cat.append_rows("R", &[at(4, 30), at(7, 8)]).unwrap_err();
            let TdbError::OrderViolation { detail, .. } = err else {
                panic!("expected an order violation, got {err}");
            };
            // The first new row, numbered after the stored ones.
            assert!(detail.contains(&format!("at row {stored}")), "{detail}");
            assert_eq!(files(), before, "reopen {reopen}");
            // The relation still takes rows that continue its order.
            cat.append_rows("R", &[at(8, 12)]).unwrap();
            assert_stats_match_scan(&cat, "R");
        }
    }

    #[test]
    fn appends_out_of_ts_order_recompute_from_a_scan() {
        let dir = tmpdir("unordered");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        // Sorted on TE only: each append continues TE order, not TS order.
        cat.create_relation(
            "R",
            schema,
            &[at(5, 10), at(0, 12)],
            vec![StreamOrder::TE_ASC],
        )
        .unwrap();
        assert_stats_match_scan(&cat, "R");
        cat.append_rows("R", &[at(2, 13), at(11, 14)]).unwrap();
        assert_stats_match_scan(&cat, "R");
        cat = Catalog::open(&dir, IoStats::new()).unwrap();
        cat.append_rows("R", &[at(1, 20)]).unwrap();
        assert_stats_match_scan(&cat, "R");
        // A TS-sorted relation whose append restarts TS leaves the
        // running terms too: later appends still match a scan.
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        cat.create_relation("S", schema, &[at(0, 50), at(10, 20)], vec![])
            .unwrap();
        cat.append_rows("S", &[at(5, 30)]).unwrap();
        assert_stats_match_scan(&cat, "S");
        cat.append_rows("S", &[at(40, 45), at(41, 60)]).unwrap();
        assert_stats_match_scan(&cat, "S");
        assert_eq!(cat.meta("S").unwrap().stats.max_concurrency, 3);
    }

    #[test]
    fn durable_appends_wait_for_persist_and_every_sync_is_observed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let dir = tmpdir("durable");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let on_disk = || {
            Catalog::open(&dir, IoStats::new())
                .unwrap()
                .meta("R")
                .unwrap()
                .rows
        };
        let syncs = Arc::new(AtomicU64::new(0));
        let mut cat = Catalog::open_durable(&dir, IoStats::new()).unwrap();
        let seen = Arc::clone(&syncs);
        cat.observe_syncs(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let synced = || syncs.load(Ordering::Relaxed);
        cat.create_relation("R", schema, &[at(0, 4)], vec![StreamOrder::TS_ASC])
            .unwrap();
        assert_eq!(synced(), 3, "heap, manifest and directory");
        cat.append_rows("R", &[at(5, 6)]).unwrap();
        assert_eq!(synced(), 3, "an append syncs nothing");
        assert_eq!(cat.scan("R").unwrap().len(), 2, "appended rows are visible");
        assert_eq!(on_disk(), 1, "and the manifest does not name them yet");
        cat.persist().unwrap();
        assert_eq!(
            synced(),
            6,
            "the appended heap, then the manifest and directory"
        );
        assert_eq!(on_disk(), 2);
        cat.persist().unwrap();
        assert_eq!(synced(), 8, "no heap is left to sync");

        // Pages the manifest does not name are cut by a durable reopen.
        cat.append_rows("R", &[at(7, 9)]).unwrap();
        drop(cat);
        let cat = Catalog::open_durable(&dir, IoStats::new()).unwrap();
        assert_eq!(cat.scan("R").unwrap(), [at(0, 4), at(5, 6)]);
        assert_stats_match_scan(&cat, "R");
    }

    #[test]
    fn the_manifest_keeps_the_tail_so_a_reopened_append_reads_no_page() {
        let dir = tmpdir("tail-kept");
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        let rows: Vec<Row> = (0..2_000).map(|i| at(i, i + 3 + i % 7)).collect();
        let mut cat = Catalog::open_durable(&dir, IoStats::new()).unwrap();
        cat.create_relation("R", schema, &rows[..1_500], vec![StreamOrder::TS_ASC])
            .unwrap();
        cat.append_rows("R", &rows[1_500..1_800]).unwrap();
        cat.persist().unwrap();
        drop(cat);
        let read_by_append = |dir: &Path| {
            let io = IoStats::new();
            let mut cat = Catalog::open_durable(dir, io.clone()).unwrap();
            let before = io.snapshot();
            cat.append_rows("R", &rows[1_800..]).unwrap();
            let read = io.snapshot().since(&before).pages_read;
            assert_stats_match_scan(&cat, "R");
            read
        };
        let legacy = tmpdir("tail-legacy");
        std::fs::create_dir_all(&legacy).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, legacy.join(path.file_name().unwrap())).unwrap();
        }
        assert_eq!(read_by_append(&dir), 0, "the tail came from the manifest");
        // A manifest written before it kept tails costs one scan.
        let manifest = legacy.join(Catalog::MANIFEST);
        let doc = Json::parse(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
        let Json::Object(mut relations) = doc else {
            panic!("the manifest is an object");
        };
        let Json::Object(fields) = &mut relations[0].1 else {
            panic!("a relation is an object");
        };
        fields.retain(|(key, _)| key != "tail");
        std::fs::write(&manifest, Json::Object(relations).to_string_pretty()).unwrap();
        assert!(read_by_append(&legacy) > 0);
    }

    #[test]
    fn unknown_relation_errors() {
        let cat = Catalog::open(tmpdir("d"), IoStats::new()).unwrap();
        assert!(matches!(cat.meta("Nope"), Err(TdbError::Catalog(_))));
        assert!(cat.scan("Nope").is_err());
    }

    #[test]
    fn reloads_write_a_fresh_generation_and_legacy_heaps_still_open() {
        let dir = tmpdir("generations");
        let (schema, rows) = faculty_rows();
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        cat.create_relation("Faculty", schema.clone(), &rows, vec![])
            .unwrap();
        // A manifest from before generational loads names `Faculty.heap`.
        std::fs::rename(dir.join("Faculty.1.heap"), dir.join("Faculty.heap")).unwrap();
        let manifest = dir.join(Catalog::MANIFEST);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace("Faculty.1.heap", "Faculty.heap")).unwrap();
        std::fs::write(dir.join("Faculty.7.heap"), b"orphan").unwrap();
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        assert_eq!(cat.scan("Faculty").unwrap(), rows);
        assert!(!dir.join("Faculty.7.heap").exists(), "unnamed heap swept");
        cat.create_relation("Faculty", schema.clone(), &rows[..3], vec![])
            .unwrap();
        assert_eq!(cat.meta("Faculty").unwrap().file, "Faculty.1.heap");
        assert!(!dir.join("Faculty.heap").exists());
        cat.create_relation("Faculty", schema, &rows[..2], vec![])
            .unwrap();
        assert_eq!(cat.meta("Faculty").unwrap().file, "Faculty.2.heap");
        assert!(!dir.join("Faculty.1.heap").exists());
        let cat = Catalog::open(&dir, IoStats::new()).unwrap();
        assert_eq!(cat.scan("Faculty").unwrap(), rows[..2]);
    }

    #[test]
    fn drop_removes_relation_and_file() {
        let dir = tmpdir("e");
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        let (schema, rows) = faculty_rows();
        cat.create_relation("Faculty", schema, &rows, vec![])
            .unwrap();
        cat.drop_relation("Faculty").unwrap();
        assert!(cat.meta("Faculty").is_err());
        assert!(!dir.join("Faculty.1.heap").exists());
        assert!(cat.drop_relation("Faculty").is_err());
    }
}
