//! Storage-layer integration: heap files → external sort → stream
//! operators, with page-I/O accounting; catalog persistence.

use tdb::prelude::*;

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
    let kind = StreamOpKind::ContainJoinTsTe;
    let (pairs, _) = collect(|e| run_join(kind, OpConfig::new(), xs_sorted, ys_sorted, e)).unwrap();
    assert_eq!(pairs.len(), expected);

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
