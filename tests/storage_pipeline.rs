//! Storage-layer integration: heap files → external sort → stream
//! operators, with page-I/O accounting; catalog persistence; buffer-pool
//! backed access patterns.

use tdb::prelude::*;
use tdb::storage::{BufferPool, Page};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tdb-storepipe-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn heap_to_sorted_stream_to_join() {
    let io = IoStats::new();
    let dir = tmp("join");

    // Write two relations of 10k tuples each through heap files.
    let xs = IntervalGen::poisson(10_000, 3.0, 40.0, 1).generate();
    let ys = IntervalGen::poisson(10_000, 3.0, 8.0, 2).generate();
    let mut hx = HeapFile::create(dir.join("x.heap"), io.clone()).unwrap();
    for t in &xs {
        hx.append(t).unwrap();
    }
    let mut hy = HeapFile::create(dir.join("y.heap"), io.clone()).unwrap();
    for t in &ys {
        hy.append(t).unwrap();
    }

    // External sort with a tight memory budget forces spills.
    let sorter = ExternalSorter::new(
        512,
        |a: &TsTuple, b: &TsTuple| StreamOrder::TS_ASC.compare(a, b),
        io.clone(),
    );
    let (xs_sorted, sx) = sorter
        .sort(hx.scan::<TsTuple>().unwrap().map(|r| r.unwrap()))
        .unwrap();
    let xs_sorted: Vec<TsTuple> = xs_sorted.map(|r| r.unwrap()).collect();
    assert!(sx.runs > 10, "budget 512 over 10k tuples must spill");

    let sorter = ExternalSorter::new(
        512,
        |a: &TsTuple, b: &TsTuple| StreamOrder::TE_ASC.compare(a, b),
        io.clone(),
    );
    let (ys_sorted, _) = sorter
        .sort(hy.scan::<TsTuple>().unwrap().map(|r| r.unwrap()))
        .unwrap();
    let ys_sorted: Vec<TsTuple> = ys_sorted.map(|r| r.unwrap()).collect();

    // Join the sorted streams; verify count against a direct filter.
    let expected: usize = xs
        .iter()
        .map(|x| ys.iter().filter(|y| x.period.contains(&y.period)).count())
        .sum();
    let mut join = OpConfig::new()
        .contain_join_ts_te(
            from_sorted_vec(xs_sorted, StreamOrder::TS_ASC).unwrap(),
            from_sorted_vec(ys_sorted, StreamOrder::TE_ASC).unwrap(),
        )
        .unwrap();
    let mut n = 0;
    while join.next().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, expected);

    let snap = io.snapshot();
    assert!(
        snap.pages_written > 0,
        "heap + spill writes must be counted"
    );
    assert!(snap.pages_read > 0);
}

#[test]
fn catalog_round_trip_with_stats_and_orders() {
    let dir = tmp("catalog");
    let faculty = FacultyGen {
        n_faculty: 200,
        seed: 9,
        ..FacultyGen::default()
    }
    .generate();
    let mut rows: Vec<Row> = faculty.iter().map(|t| t.to_row()).collect();
    // Store in ValidFrom ↑ order and register the interesting order.
    rows.sort_by_key(|r| r.get(2).as_time().unwrap());
    {
        let mut cat = Catalog::open(&dir, IoStats::new()).unwrap();
        cat.create_relation(
            "Faculty",
            TemporalSchema::time_sequence("Name", "Rank"),
            &rows,
            vec![StreamOrder::TS_ASC],
        )
        .unwrap();
    }
    // Reopen: schema, stats and declared orders survive.
    let cat = Catalog::open(&dir, IoStats::new()).unwrap();
    let meta = cat.meta("Faculty").unwrap();
    assert_eq!(meta.rows, rows.len());
    assert_eq!(meta.known_orders, vec![StreamOrder::TS_ASC]);
    assert!(meta.stats.lambda.unwrap() > 0.0);
    assert!(meta.stats.max_concurrency >= 1);
    assert_eq!(cat.scan("Faculty").unwrap(), rows);
}

#[test]
fn buffer_pool_serves_hot_pages_from_memory() {
    let io = IoStats::new();
    let dir = tmp("pool");
    // Build a small page file by hand.
    let path = dir.join("data.pages");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&path).unwrap();
        for i in 0..8u8 {
            let mut p = Page::new();
            p.insert(&[i; 16]).unwrap();
            f.write_all(p.as_bytes()).unwrap();
        }
    }
    let pool = BufferPool::new(4, io.clone());
    let file = pool.register(
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap(),
    );
    // Touch pages 0..4 twice: second round must be all hits.
    for round in 0..2 {
        for page_no in 0..4u64 {
            let p = pool.pin(file, page_no).unwrap();
            assert_eq!(u64::from(p.get(0).unwrap()[0]), page_no);
            pool.unpin(file, page_no);
            let _ = round;
        }
    }
    let snap = io.snapshot();
    assert_eq!(snap.buffer_misses, 4);
    assert_eq!(snap.buffer_hits, 4);
    assert_eq!(snap.pages_read, 4);
}

#[test]
fn corrupted_heap_is_detected_not_misread() {
    let io = IoStats::new();
    let dir = tmp("corrupt");
    let path = dir.join("c.heap");
    {
        let mut h = HeapFile::create(&path, io.clone()).unwrap();
        for i in 0..100 {
            h.append(&TsTuple::interval(i, i + 1).unwrap()).unwrap();
        }
        h.flush().unwrap();
    }
    // Truncate mid-page.
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..data.len() / 2]).unwrap();
    assert!(HeapFile::open(&path, io).is_err());
}

#[test]
fn query_execution_reads_from_disk_each_run() {
    let dir = tmp("exec");
    let catalog = tdb::faculty_catalog(&dir, &FacultyGen::figure1_instance()).unwrap();
    let io_before = catalog.io().snapshot();
    let (logical, _) = compile(
        "range of f is Faculty\nretrieve (N=f.Name) where f.Rank = \"Full\"",
        &catalog,
    )
    .unwrap();
    let physical = plan(&conventional_optimize(logical), PlannerConfig::stream()).unwrap();
    let out = physical.execute(&catalog, ExecOptions::default()).unwrap();
    assert_eq!(out.rows.len(), 2); // Smith and Jones reached Full
    let delta = catalog.io().snapshot().since(&io_before);
    assert!(delta.pages_read >= 1, "scan must hit storage");
}

#[test]
fn bitemporal_rollback_feeds_temporal_operators() {
    use tdb::core::BitemporalTable;
    // Build a bitemporal history: initial beliefs at tx 100, a correction
    // at tx 200, a retraction at tx 300.
    let mut table = BitemporalTable::new();
    for (i, (s, e)) in [(0i64, 10i64), (2, 6), (20, 30), (22, 25)]
        .iter()
        .enumerate()
    {
        table
            .insert(
                format!("S{i}"),
                "v",
                Period::new(*s, *e).unwrap(),
                TimePoint(100),
            )
            .unwrap();
    }
    table
        .update_where(
            TimePoint(200),
            |r| r.surrogate == Value::str("S1"),
            |r| tdb::core::BitemporalTuple {
                valid: Period::new(2, 12).unwrap(), // no longer nested
                ..r.clone()
            },
        )
        .unwrap();
    table
        .delete_where(TimePoint(300), |r| r.surrogate == Value::str("S3"))
        .unwrap();

    // Contained-self-semijoin over each rollback state.
    let contained_at = |tx: i64| -> usize {
        let mut snapshot = table.as_of(TimePoint(tx));
        StreamOrder::TS_ASC_TE_ASC.sort(&mut snapshot);
        let mut op = ContainedSelfSemijoin::new(
            from_sorted_vec(snapshot, StreamOrder::TS_ASC_TE_ASC).unwrap(),
        )
        .unwrap();
        op.collect_vec().unwrap().len()
    };
    assert_eq!(
        contained_at(150),
        2,
        "S1 ⊂ S0 and S3 ⊂ S2 as first believed"
    );
    assert_eq!(contained_at(250), 1, "after the S1 correction only S3 ⊂ S2");
    assert_eq!(contained_at(350), 0, "after retracting S3, none");
    // The log never shrinks.
    assert_eq!(table.log().len(), 5);
}

#[test]
fn interval_index_accelerates_timeslice_over_catalog() {
    use tdb::storage::IntervalIndex;
    let dir = tmp("index");
    let catalog = tdb::faculty_catalog(
        &dir,
        &FacultyGen {
            n_faculty: 300,
            seed: 77,
            continuous_employment: true,
            ..FacultyGen::default()
        }
        .generate(),
    )
    .unwrap();
    let rows = catalog.scan("Faculty").unwrap();
    let meta = catalog.meta("Faculty").unwrap();
    let index = IntervalIndex::build(
        rows.iter()
            .enumerate()
            .map(|(i, r)| (meta.schema.period_of(r).unwrap(), i as u64)),
    );
    // Probe several instants; index result = scan result.
    for t in [0i64, 50, 200, 500] {
        let at = TimePoint(t);
        let via_index: std::collections::BTreeSet<u64> = index.stab(at).into_iter().collect();
        let via_scan: std::collections::BTreeSet<u64> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| meta.schema.period_of(r).unwrap().spans(at))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(via_index, via_scan, "at t={t}");
    }
}
