//! Staffing-history analytics over disk-backed storage: external sort into
//! the "properly sorted streams" the paper's operators require, then
//! containment analysis with measured page I/O — the §4.1 three-way
//! tradeoff (workspace vs. sort order vs. disk passes) made concrete.
//!
//! Run with: `cargo run --release -p tdb --example staffing_history`

use tdb::prelude::*;
use tdb::storage::{Codec, RunReader, RunWriter};

fn main() -> TdbResult<()> {
    let io = IoStats::new();
    let dir = std::env::temp_dir().join("tdb-example-staffing");
    std::fs::create_dir_all(&dir)?;

    // Contracts: employment spells. Projects: short engagements.
    let contracts = IntervalGen::poisson(30_000, 2.0, 200.0, 1).generate();
    let projects = IntervalGen::poisson(30_000, 2.0, 15.0, 2).generate();

    // ── 1. Persist both relations to heap files (page I/O counted). ──
    let mut h1 = HeapFile::create(dir.join("contracts.heap"), io.clone())?;
    for t in &contracts {
        h1.append(t)?;
    }
    h1.flush()?;
    let mut h2 = HeapFile::create(dir.join("projects.heap"), io.clone())?;
    for t in &projects {
        h2.append(t)?;
    }
    h2.flush()?;
    println!("after load:  {}", io.snapshot());

    // ── 2. External sort with a small memory budget → sorted run files. ──
    let before_sort = io.snapshot();
    let sorter = ExternalSorter::new(
        4_096,
        |a: &TsTuple, b: &TsTuple| StreamOrder::TS_ASC.compare(a, b),
        io.clone(),
    );
    let (sorted_contracts, s1) =
        sorter.sort(h1.scan::<TsTuple>()?.collect::<TdbResult<Vec<_>>>()?)?;
    let contracts_sorted: Vec<TsTuple> = sorted_contracts.collect::<TdbResult<Vec<_>>>()?;
    let sorter = ExternalSorter::new(
        4_096,
        |a: &TsTuple, b: &TsTuple| StreamOrder::TE_ASC.compare(a, b),
        io.clone(),
    );
    let (sorted_projects, s2) =
        sorter.sort(h2.scan::<TsTuple>()?.collect::<TdbResult<Vec<_>>>()?)?;
    let projects_sorted: Vec<TsTuple> = sorted_projects.collect::<TdbResult<Vec<_>>>()?;
    println!(
        "external sort: contracts {} runs, projects {} runs; I/O delta: {}",
        s1.runs,
        s2.runs,
        io.snapshot().since(&before_sort)
    );

    // ── 3. Contain-join: which projects ran inside which contract? ──
    let before_join = io.snapshot();
    let (x, y) = (contracts_sorted.clone(), projects_sorted.clone());
    let kind = StreamOpKind::ContainJoinTsTe;
    let (_, join) = run_join(kind, OpConfig::new(), x, y, Emit::Count)?;
    let staffed = join.metrics.emitted;
    println!("\ncontain-join (TS↑/TE↑, Table 1 state (b)): {staffed} project-in-contract pairs");
    println!(
        "  workspace: max {} resident contract tuples; {}",
        join.max_workspace(),
        join.metrics
    );
    println!(
        "  I/O delta during join: {}",
        io.snapshot().since(&before_join)
    );

    // Analytic prediction from Little's law (paper §6 / our cost model).
    let stats = TemporalStats::compute(&contracts_sorted);
    if let Some(pred) = stats.expected_spanning() {
        println!(
            "  Little's-law workspace prediction λ·E[D] = {:.1} (measured max {})",
            pred,
            join.max_workspace()
        );
    }

    // ── 4. Persist the qualifying projects as a sorted run for reuse. ──
    let mut writer = RunWriter::create(dir.join("staffed_projects.run"), io.clone())?;
    let mut kept = 0;
    let kind = StreamOpKind::ContainedSemijoinStab;
    let (x, y) = (projects_sorted, contracts_sorted);
    run_semijoin(
        kind,
        OpConfig::new(),
        x,
        y,
        Emit::Chunks(&mut |chunk| {
            for p in &chunk {
                writer.push(p)?;
            }
            kept += chunk.len();
            Ok(true)
        }),
    )?;
    let (path, n) = writer.finish()?;
    println!(
        "\ncontained-semijoin (two buffers, Figure 6): {kept} projects inside some contract → {}",
        path.display()
    );
    let reader: RunReader<TsTuple> = RunReader::open(&path, io.clone())?;
    assert_eq!(reader.count() as u64, n);
    println!("final I/O totals: {}", io.snapshot());
    let _ = Codec::to_bytes(&TsTuple::interval(0, 1)?); // keep trait import exercised
    Ok(())
}
