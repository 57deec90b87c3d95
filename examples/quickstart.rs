//! Quickstart: load the paper's Figure 1 faculty data, run the Superstar
//! query through the full pipeline (Quel text → parse tree → conventional
//! optimization → physical plan → execution), and show the Figure 4
//! grouped-sum stream processor.
//!
//! Run with: `cargo run -p tdb --example quickstart`

use tdb::prelude::*;

fn main() -> TdbResult<()> {
    // ── 1. Load the running example (paper Figure 1 + two colleagues). ──
    let dir = std::env::temp_dir().join("tdb-example-quickstart");
    let catalog = tdb::faculty_catalog(&dir, &FacultyGen::figure1_instance())?;
    println!("Loaded Faculty relation:");
    for row in catalog.scan("Faculty")? {
        println!("  {row}");
    }

    // ── 2. The Superstar query, exactly as written in the paper (§3). ──
    let (logical, query) = compile(tdb::quel::parser::SUPERSTAR, &catalog)?;
    println!("\nQuery: retrieve into {:?}", query.into.as_deref());
    println!(
        "\nUnoptimized parse tree (Figure 3a):\n{}",
        logical.parse_tree()
    );

    let optimized = conventional_optimize(logical);
    println!(
        "Conventionally optimized (Figure 3b):\n{}",
        optimized.parse_tree()
    );

    // ── 3. Plan and execute. ──
    let physical = plan(&optimized, PlannerConfig::stream())?;
    println!("Physical plan:\n{}", physical.explain());
    let output = physical.execute(&catalog, ExecOptions::default())?;
    println!("Superstars:");
    for row in &output.rows {
        println!("  {row}");
    }
    println!(
        "Stats: {} base rows scanned, {} comparisons, max workspace {} tuples",
        output.stats.rows_scanned, output.stats.comparisons, output.stats.max_workspace
    );

    // ── 4. The Figure 4 stream processor: departmental salary sums. ──
    let salaries = vec![
        (Value::str("CS"), 120_000),
        (Value::str("CS"), 95_000),
        (Value::str("EE"), 110_000),
        (Value::str("Math"), 90_000),
        (Value::str("Math"), 85_000),
    ];
    let (sums, _) = grouped_sum(&salaries, |r| r.0.clone(), |r| r.1)?;
    println!("\nDepartmental salary sums (Figure 4, O(1) workspace):");
    for (dept, total) in sums {
        println!("  {dept}: {total}");
    }
    Ok(())
}
