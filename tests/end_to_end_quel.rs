//! End-to-end integration: Quel text → parse → translate → conventional
//! optimization → physical planning (several configs) → execution against
//! disk-backed storage, with results cross-checked between plan variants.

use std::collections::BTreeSet;
use tdb::prelude::*;

fn catalog(tag: &str, n_faculty: usize, seed: u64) -> Catalog {
    let faculty = FacultyGen {
        n_faculty,
        seed,
        continuous_employment: true,
        ..FacultyGen::default()
    }
    .generate();
    let dir = std::env::temp_dir().join(format!("tdb-e2e-{}-{tag}", std::process::id()));
    tdb::faculty_catalog(dir, &faculty).unwrap()
}

fn run(catalog: &Catalog, text: &str, config: PlannerConfig) -> QueryOutput {
    let (logical, _) = compile(text, catalog).unwrap();
    let optimized = conventional_optimize(logical);
    let physical = plan(&optimized, config).unwrap();
    physical.execute(catalog, ExecOptions::default()).unwrap()
}

fn row_set(out: &QueryOutput) -> BTreeSet<String> {
    out.rows.iter().map(|r| r.to_string()).collect()
}

#[test]
fn superstar_query_full_pipeline() {
    let catalog = catalog("superstar", 120, 3);
    let conventional = run(
        &catalog,
        tdb::quel::parser::SUPERSTAR,
        PlannerConfig::conventional(),
    );
    let streamed = run(
        &catalog,
        tdb::quel::parser::SUPERSTAR,
        PlannerConfig::stream(),
    );
    let naive = run(
        &catalog,
        tdb::quel::parser::SUPERSTAR,
        PlannerConfig::naive(),
    );
    assert_eq!(row_set(&conventional), row_set(&streamed));
    assert_eq!(row_set(&conventional), row_set(&naive));
    assert!(
        !conventional.rows.is_empty(),
        "population should contain superstars"
    );
    // The stream plan avoids the quadratic comparison blow-up.
    assert!(streamed.stats.comparisons <= conventional.stats.comparisons);
}

#[test]
fn superstar_answers_figure1_instance() {
    let dir = std::env::temp_dir().join(format!("tdb-e2e-fig1-{}", std::process::id()));
    let catalog = tdb::faculty_catalog(dir, &FacultyGen::figure1_instance()).unwrap();
    let out = run(
        &catalog,
        tdb::quel::parser::SUPERSTAR,
        PlannerConfig::stream(),
    );
    let names: BTreeSet<_> = out
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, BTreeSet::from(["Smith".to_string()]));
    // Projected period: Assistant start [0] to Full end [20).
    assert_eq!(out.rows[0].get(1), &Value::Time(TimePoint(0)));
    assert_eq!(out.rows[0].get(2), &Value::Time(TimePoint(20)));
}

#[test]
fn simple_selection_query() {
    let catalog = catalog("select", 60, 4);
    let text = r#"
        range of f is Faculty
        retrieve (Name=f.Name, From=f.ValidFrom)
        where f.Rank = "Associate" and f.ValidFrom >= 10
    "#;
    let out = run(&catalog, text, PlannerConfig::stream());
    let direct: Vec<Row> = catalog
        .scan("Faculty")
        .unwrap()
        .into_iter()
        .filter(|r| {
            r.get(1) == &Value::str("Associate") && r.get(2).as_time().unwrap() >= TimePoint(10)
        })
        .map(|r| Row::new(vec![r.get(0).clone(), r.get(2).clone()]))
        .collect();
    assert_eq!(out.rows.len(), direct.len());
}

#[test]
fn parse_and_plan_errors_are_reported() {
    let catalog = catalog("errors", 5, 7);
    // Unknown relation.
    assert!(compile("range of f is Nope\nretrieve (N=f.Name)", &catalog).is_err());
    // Unknown column.
    assert!(compile("range of f is Faculty\nretrieve (N=f.Salary)", &catalog).is_err());
    // Syntax error.
    let e = compile("range of f is\nretrieve (N=f.Name)", &catalog).unwrap_err();
    assert!(matches!(e, TdbError::Parse { .. }));
}

#[test]
fn projection_preserves_target_order_and_names() {
    let catalog = catalog("proj", 10, 8);
    let text = r"range of f is Faculty
                  retrieve (B=f.ValidTo, A=f.ValidFrom)";
    let out = run(&catalog, text, PlannerConfig::stream());
    assert_eq!(out.scope.columns()[0].attr, "B");
    assert_eq!(out.scope.columns()[1].attr, "A");
    for r in &out.rows {
        assert!(r.get(1).as_time().unwrap() < r.get(0).as_time().unwrap());
    }
}

#[test]
fn multi_attribute_time_sequences() {
    // §6 extension: Rank *and* Salary vary over time in one relation.
    let gen = FacultyGen {
        n_faculty: 60,
        seed: 31,
        continuous_employment: true,
        ..FacultyGen::default()
    };
    let rows = gen.generate_rows_with_salary();
    let dir = std::env::temp_dir().join(format!("tdb-e2e-salary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = Catalog::open(&dir, IoStats::new()).unwrap();
    catalog
        .create_relation("Payroll", FacultyGen::salary_schema(), &rows, vec![])
        .unwrap();

    // Who earned over 100k while overlapping someone's Assistant period?
    let text = r#"
        range of p is Payroll
        range of a is Payroll
        retrieve (Who=p.Name, Pay=p.Salary, Junior=a.Name)
        where p.Salary >= 100000 and a.Rank = "Assistant" and (p overlap a)
    "#;
    let out = run(&catalog, text, PlannerConfig::stream());
    let naive = run(&catalog, text, PlannerConfig::naive());
    assert_eq!(row_set(&out), row_set(&naive));
    assert!(!out.rows.is_empty());
    // All reported salaries honour the selection.
    for r in &out.rows {
        assert!(r.get(1).as_int().unwrap() >= 100_000);
    }
}

#[test]
fn coalesce_and_timeslice_compose_with_query_results() {
    use tdb_oracle::{coalesce_relation, timeslice};
    let catalog = catalog("slice", 100, 41);
    // Project every faculty's full employment as (Name, "employed") tuples
    // and coalesce adjacent rank periods into employment spells.
    let rows = catalog.scan("Faculty").unwrap();
    let spans: Vec<TsTuple> = rows
        .iter()
        .map(|r| TsTuple {
            surrogate: r.get(0).clone(),
            value: Value::str("employed"),
            period: Period::new(r.get(2).as_time().unwrap(), r.get(3).as_time().unwrap()).unwrap(),
        })
        .collect();
    let spells = coalesce_relation(spans.clone()).unwrap();
    // Continuous employment: one spell per person.
    let people: std::collections::BTreeSet<_> = spans.iter().map(|t| t.surrogate.clone()).collect();
    assert_eq!(spells.len(), people.len());

    // Timeslice: headcount at the median instant matches a direct count.
    let mut sorted = spells.clone();
    StreamOrder::TS_ASC.sort(&mut sorted);
    let mid = sorted[sorted.len() / 2].period.start();
    let at_mid = timeslice(&sorted, mid, true).0.len();
    let direct = spells.iter().filter(|t| t.period.spans(mid)).count();
    assert_eq!(at_mid, direct);
    assert!(at_mid > 0);
}

/// Relations `X` and `Y` of `n` Poisson intervals each (mean gap 3, mean
/// duration 8, seeds 1 and 2), their rows named `x0…`, `y0…`.
fn xy_catalog(tag: &str, n: usize) -> (Catalog, [Vec<(String, Period)>; 2]) {
    let dir = std::env::temp_dir().join(format!("tdb-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = Catalog::open(&dir, IoStats::new()).unwrap();
    let sides = [("X", "x", 1), ("Y", "y", 2)].map(|(relation, prefix, seed)| {
        let side: Vec<(String, Period)> = IntervalGen::poisson(n, 3.0, 8.0, seed)
            .generate()
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("{prefix}{i}"), t.period()))
            .collect();
        let rows: Vec<Row> = side
            .iter()
            .map(|(name, p)| {
                Row::new(vec![
                    Value::str(name),
                    Value::str(""),
                    Value::Time(p.start()),
                    Value::Time(p.end()),
                ])
            })
            .collect();
        let schema = TemporalSchema::time_sequence("Name", "Rank");
        catalog
            .create_relation(relation, schema, &rows, vec![])
            .unwrap();
        side
    });
    (catalog, sides)
}

/// One directed form of an Allen relation (`None`: the general overlap)
/// as a join of `a` over `X` with `b` over `Y`: `(a op b)`, or `(b op a)`
/// when `flipped`.
struct AllenJoin {
    text: String,
    rel: Option<AllenRelation>,
    flipped: bool,
}

impl AllenJoin {
    /// Must the join return the pair `(a, b)`?
    fn holds(&self, pa: &Period, pb: &Period) -> bool {
        let (x, y) = if self.flipped { (pb, pa) } else { (pa, pb) };
        match self.rel {
            Some(rel) => AllenRelation::classify(x, y) == rel,
            None => x.start() < y.end() && y.start() < x.end(),
        }
    }
}

/// Every directed form of the 13 Allen relations and the general overlap.
fn allen_joins() -> Vec<AllenJoin> {
    let ops = [
        ("before", Some(AllenRelation::Before)),
        ("after", Some(AllenRelation::After)),
        ("meets", Some(AllenRelation::Meets)),
        ("overlaps", Some(AllenRelation::Overlaps)),
        ("during", Some(AllenRelation::During)),
        ("contains", Some(AllenRelation::Contains)),
        ("starts", Some(AllenRelation::Starts)),
        ("finishes", Some(AllenRelation::Finishes)),
        ("equal", Some(AllenRelation::Equal)),
        ("overlap", None),
    ];
    ops.into_iter()
        .flat_map(|(op, rel)| {
            [false, true].map(|flipped| {
                let (l, r) = if flipped { ("b", "a") } else { ("a", "b") };
                AllenJoin {
                    text: format!(
                        "range of a is X range of b is Y retrieve (P=a.Name, Q=b.Name) \
                         where ({l} {op} {r})"
                    ),
                    rel,
                    flipped,
                }
            })
        })
        .collect()
}

fn stream_plan(catalog: &Catalog, text: &str) -> PhysicalPlan {
    let (logical, _) = compile(text, catalog).unwrap();
    plan(&conventional_optimize(logical), PlannerConfig::stream()).unwrap()
}

/// Each relation either streams or merges on the endpoint its equality
/// pins: `a meets b` is a merge on `a.ValidTo = b.ValidFrom`, `b overlaps
/// a` the strict overlap kernel with its sides swapped.
#[test]
fn every_allen_relation_plans_without_a_nested_loop() {
    let (catalog, _) = xy_catalog("allen-plans", 10);
    for AllenJoin { text, .. } in allen_joins() {
        let explain = stream_plan(&catalog, &text).explain();
        assert!(
            !explain.contains("NestedLoop") && !explain.contains("Product"),
            "{text}\n{explain}"
        );
        assert!(
            explain.contains("StreamTemporalJoin") || explain.contains("MergeEquiJoin"),
            "{text}\n{explain}"
        );
    }
}

/// At scale every directed form answers exactly the nested loop's pairs
/// in comparisons linear in its input and output.
#[test]
fn every_allen_relation_joins_in_linear_comparisons() {
    let n = 600;
    let (catalog, [xs, ys]) = xy_catalog("allen-scale", n);
    for join in allen_joins() {
        let text = &join.text;
        let out = stream_plan(&catalog, text)
            .execute(&catalog, ExecOptions::default())
            .unwrap();
        let mut got: Vec<String> = out.rows.iter().map(|r| r.to_string()).collect();
        let mut want: Vec<String> = xs
            .iter()
            .flat_map(|(a, pa)| {
                ys.iter()
                    .filter(|(_, pb)| join.holds(pa, pb))
                    .map(move |(b, _)| Row::new(vec![Value::str(a), Value::str(b)]).to_string())
            })
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{text}");
        let bound = 2 * (2 * n + want.len()) as u64;
        assert!(
            out.stats.comparisons <= bound,
            "{text}: {} comparisons for {} pairs, over {bound}",
            out.stats.comparisons,
            want.len()
        );
    }
}

/// One operand of a random atom: an endpoint of a range variable (index,
/// `true` for `ValidTo`) or an integer constant.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Endpoint(usize, bool),
    Const(i64),
}

/// Does a comparison hold between two values?
type Holds = fn(i64, i64) -> bool;

/// The six comparison operators, as Quel writes them and as they hold.
const OPS: [(&str, Holds); 6] = [
    ("<", |l, r| l < r),
    ("<=", |l, r| l <= r),
    (">", |l, r| l > r),
    (">=", |l, r| l >= r),
    ("=", |l, r| l == r),
    ("!=", |l, r| l != r),
];

/// A random conjunction over 2–3 range variables: which relation each
/// ranges over (0 is `X`, 1 is `Y`), and 1–4 atoms `(lhs, op, rhs)` over
/// endpoints and constants.
fn random_conjunction<R: rand::Rng>(rng: &mut R) -> (Vec<usize>, Vec<(Operand, usize, Operand)>) {
    let vars: Vec<usize> = (0..rng.gen_range(2..4))
        .map(|_| rng.gen_range(0..2))
        .collect();
    let endpoint = |rng: &mut R| Operand::Endpoint(rng.gen_range(0..vars.len()), rng.gen_bool(0.5));
    let atoms = (0..rng.gen_range(1..5))
        .map(|_| {
            let lhs = endpoint(rng);
            let rhs = if rng.gen_bool(0.3) {
                Operand::Const(rng.gen_range(0..110))
            } else {
                endpoint(rng)
            };
            (lhs, rng.gen_range(0..OPS.len()), rhs)
        })
        .collect();
    (vars, atoms)
}

/// The Quel text of a random conjunction, its variables named `a`, `b`,
/// `c` and its targets their names.
fn conjunction_text(vars: &[usize], atoms: &[(Operand, usize, Operand)]) -> String {
    const NAMES: [&str; 3] = ["a", "b", "c"];
    let term = |t: Operand| match t {
        Operand::Endpoint(v, te) => {
            format!("{}.{}", NAMES[v], if te { "ValidTo" } else { "ValidFrom" })
        }
        Operand::Const(c) => c.to_string(),
    };
    let ranges: Vec<String> = vars
        .iter()
        .enumerate()
        .map(|(v, &rel)| format!("range of {} is {}", NAMES[v], ["X", "Y"][rel]))
        .collect();
    let targets: Vec<String> = (0..vars.len())
        .map(|v| format!("N{v}={}.Name", NAMES[v]))
        .collect();
    let atoms: Vec<String> = atoms
        .iter()
        .map(|&(l, op, r)| format!("{} {} {}", term(l), OPS[op].0, term(r)))
        .collect();
    format!(
        "{} retrieve ({}) where {}",
        ranges.join(" "),
        targets.join(", "),
        atoms.join(" and ")
    )
}

/// Random conjunctions of endpoint comparisons over two or three range
/// variables answer, under every planner configuration, exactly what a
/// nested loop over the query's own atoms keeps.
#[test]
fn random_conjunctions_answer_the_nested_loop_under_every_config() {
    use rand::SeedableRng;
    let n = 30;
    let (catalog, sides) = xy_catalog("random-conjunctions", n);
    // A combination of rows, one per variable, as the digits of a
    // base-`n` number: variable 0's row is the most significant.
    let row = |combo: usize, vars: usize, v: usize| combo / n.pow((vars - 1 - v) as u32) % n;
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let mut answered = 0;
    for _ in 0..200 {
        let (vars, atoms) = random_conjunction(&mut rng);
        let text = conjunction_text(&vars, &atoms);
        let value = |combo: usize, t: Operand| match t {
            Operand::Endpoint(v, te) => {
                let p = sides[vars[v]][row(combo, vars.len(), v)].1;
                if te { p.end() } else { p.start() }.ticks()
            }
            Operand::Const(c) => c,
        };
        let want: Vec<usize> = (0..n.pow(vars.len() as u32))
            .filter(|&combo| {
                atoms
                    .iter()
                    .all(|&(l, op, r)| OPS[op].1(value(combo, l), value(combo, r)))
            })
            .collect();
        answered += usize::from(!want.is_empty());
        for (config, name) in [
            (PlannerConfig::stream(), "stream"),
            (PlannerConfig::conventional(), "conventional"),
            (PlannerConfig::naive(), "naive"),
        ] {
            // Each answer row's names (`x7`, `y12`) back to the rows'
            // positions.
            let mut got: Vec<usize> = run(&catalog, &text, config)
                .rows
                .iter()
                .map(|r| {
                    (0..vars.len()).fold(0, |combo, v| {
                        let name = r.get(v).as_str().unwrap();
                        combo * n + name[1..].parse::<usize>().unwrap()
                    })
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "{name}: {text}");
        }
    }
    // The atoms are not so selective that the check is vacuous.
    assert!(answered >= 60, "{answered} of 200 queries kept a row");
}
