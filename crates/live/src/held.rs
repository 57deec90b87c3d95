//! Standing joins that resume: each side's held tuples between epochs.
//!
//! Over sorted input a stream operator already *is* an incremental
//! computation: its workspace plus the GC rules of Tables 1–2 are the
//! state needed to continue when more sorted input arrives. A
//! subscription whose plan is one stream join or semijoin over two scans
//! (filters allowed below it, a filter and a projection above it) keeps
//! exactly that state between epochs instead of re-running over the
//! whole closed prefix: per side, the promoted tuples that can still
//! match a tuple the *other* side has yet to promote. The pruning test is
//! the GC rule inverted ([`TemporalPattern::admits_partner_from`]),
//! asked against the other side's [`Horizon`] — its watermark, or nothing
//! at all once it is sealed.
//!
//! Each epoch sees only the rows just promoted, ΔX and ΔY, and emits
//!
//! ```text
//! join(ΔX, Y_held ∪ ΔY) ∪ join(X_held, ΔY)
//! ```
//!
//! through the plan's own kernel over these small vectors, run as the
//! executor runs it ([`StreamOp`]), each sorted to the kernel's entry
//! order. A semijoin holds the X tuples
//! not yet emitted and, in the same delta form, runs
//!
//! ```text
//! semijoin(X_held, ΔY) ∪ semijoin(ΔX, Y_held ∪ ΔY)
//! ```
//!
//! since a held X tuple has already met every held Y tuple without a
//! match. Monotone operators never retract, so every pair found is final.
//! An epoch that fails leaves the held tuples as they were.

use std::collections::BTreeMap;
use std::ops::Range;
use tdb_algebra::expr::{eval_conjunction, resolve_all, ResolvedAtom};
use tdb_algebra::{ExecStats, PhysicalPlan, StreamOp, TemporalPattern};
use tdb_core::{
    Direction, Period, PeriodRow, Row, SortKey, StreamOrder, TdbError, TdbResult, Temporal,
    TimePoint,
};
use tdb_storage::Catalog;
use tdb_stream::OpConfig;

/// What a relation may still promote, as seen by the other side of a
/// held join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Horizon {
    /// Nothing: the relation is sealed with nothing staged, or not live.
    Closed,
    /// Only tuples whose `key` is at least the given point.
    From(SortKey, TimePoint),
    /// Anything: no promotion has bounded it yet.
    Open,
}

impl Horizon {
    /// The horizon of a stream sorted in `order` whose every future
    /// promotion has primary key at least `floor`.
    pub(crate) fn of(order: StreamOrder, floor: Option<TimePoint>) -> Horizon {
        match floor {
            Some(at) if order.primary.direction == Direction::Asc => {
                Horizon::From(order.primary.key, at)
            }
            _ => Horizon::Open,
        }
    }

    /// Can `t`, the `left` operand of `pattern`, still meet a partner
    /// that is yet to arrive under this horizon?
    fn admits(self, pattern: TemporalPattern, left: bool, t: Period) -> bool {
        match self {
            Horizon::Closed => false,
            Horizon::Open => true,
            Horizon::From(key, at) => pattern.admits_partner_from(left, t, key, at),
        }
    }
}

/// What a kernel sorts and sweeps: a held tuple's operand period and its
/// position in the side's held vector.
#[derive(Debug, Clone, Copy)]
struct Item {
    period: Period,
    idx: usize,
}

impl Temporal for Item {
    fn period(&self) -> Period {
        self.period
    }
}

/// One input of a held join.
struct Side {
    relation: String,
    /// Filters between the scan and the operator, over the scan's columns.
    filter: Vec<ResolvedAtom>,
    /// `ValidFrom` and `ValidTo` column indices of the operand.
    period: (usize, usize),
    /// Promoted tuples that may still produce output.
    held: Vec<PeriodRow>,
}

impl Side {
    /// The side below a stream node: `Filter`s over one `SeqScan`.
    fn of(mut plan: &PhysicalPlan, var: &str, catalog: &Catalog) -> TdbResult<Option<Side>> {
        let scope = plan.scope(catalog)?;
        let mut atoms = Vec::new();
        while let PhysicalPlan::Filter { input, atoms: a } = plan {
            atoms.extend(a.iter().cloned());
            plan = input;
        }
        let PhysicalPlan::SeqScan { relation, .. } = plan else {
            return Ok(None);
        };
        Ok(Some(Side {
            relation: relation.clone(),
            filter: resolve_all(&atoms, |c| scope.index_of(c))?,
            period: scope.period_of_var(var)?,
            held: Vec::new(),
        }))
    }

    fn admit(&mut self, rows: &[Row]) -> TdbResult<()> {
        let time = |row: &Row, i: usize| {
            row.get(i)
                .as_time()
                .ok_or_else(|| TdbError::Eval(format!("period column holds {}", row.get(i))))
        };
        for row in rows.iter().filter(|r| eval_conjunction(&self.filter, r)) {
            let period = Period::new(time(row, self.period.0)?, time(row, self.period.1)?)?;
            self.held.push(PeriodRow::new(row.clone(), period));
        }
        Ok(())
    }

    /// The held tuples in `range` as kernel items.
    fn items(&self, range: Range<usize>) -> Vec<Item> {
        range
            .map(|idx| Item {
                period: self.held[idx].period,
                idx,
            })
            .collect()
    }
}

/// A standing stream join or semijoin that keeps its held tuples between
/// epochs.
pub(crate) struct HeldJoin {
    pattern: TemporalPattern,
    semijoin: bool,
    cfg: OpConfig,
    /// The operator's left and right inputs.
    sides: [Side; 2],
    /// The join's residual atoms, over both sides' columns.
    residual: Vec<ResolvedAtom>,
    /// Filters above the operator, over its output columns.
    above: Vec<ResolvedAtom>,
    /// The projection above the operator, as indices into its output.
    columns: Option<Vec<usize>>,
}

impl HeldJoin {
    /// The held form of `plan`, or `None` when its shape is not
    /// `[Project] [Filter]* StreamTemporal|StreamSemijoin` over two
    /// `[Filter]* SeqScan` inputs with a kernel in
    /// [`tdb_stream::dispatch`].
    pub(crate) fn from_plan(
        plan: &PhysicalPlan,
        catalog: &Catalog,
        cfg: OpConfig,
    ) -> TdbResult<Option<HeldJoin>> {
        let (mut node, columns) = match plan {
            PhysicalPlan::Project { input, columns } => (&**input, Some(columns)),
            other => (other, None),
        };
        let mut above = Vec::new();
        while let PhysicalPlan::Filter { input, atoms } = node {
            above.extend(atoms.iter().cloned());
            node = input;
        }
        let (left, right, left_var, right_var, pattern, residual, semijoin) = match node {
            PhysicalPlan::StreamTemporal {
                left,
                right,
                left_var,
                right_var,
                pattern,
                residual,
            } => (
                left,
                right,
                left_var,
                right_var,
                *pattern,
                &residual[..],
                false,
            ),
            PhysicalPlan::StreamSemijoin {
                left,
                right,
                left_var,
                right_var,
                pattern,
            } => (left, right, left_var, right_var, *pattern, &[][..], true),
            _ => return Ok(None),
        };
        // Before/After have no kernel to resume (and no GC to hold by).
        if matches!(pattern, TemporalPattern::Before | TemporalPattern::After) {
            return Ok(None);
        }
        let (Some(l), Some(r)) = (
            Side::of(left, left_var, catalog)?,
            Side::of(right, right_var, catalog)?,
        ) else {
            return Ok(None);
        };
        let both = left.scope(catalog)?.concat(&right.scope(catalog)?);
        let out = node.scope(catalog)?;
        let columns = columns
            .map(|cols| cols.iter().map(|(c, _)| out.index_of(c)).collect())
            .transpose()?;
        Ok(Some(HeldJoin {
            pattern,
            semijoin,
            cfg,
            sides: [l, r],
            residual: resolve_all(residual, |c| both.index_of(c))?,
            above: resolve_all(&above, |c| out.index_of(c))?,
            columns,
        }))
    }

    /// The relations the two inputs scan (the same one twice for a
    /// self-join).
    pub(crate) fn relations(&self) -> impl Iterator<Item = &str> {
        self.sides.iter().map(|s| s.relation.as_str())
    }

    /// Tuples held across both sides.
    pub(crate) fn held(&self) -> usize {
        self.sides.iter().map(|s| s.held.len()).sum()
    }

    /// One epoch: fold in the rows each relation just promoted, push the
    /// result rows that became final into `out`, then drop every held
    /// tuple the other side's `horizon` rules out. Returns the largest
    /// kernel workspace of the epoch. On an error the held state is left
    /// as it was, so the same rows can be folded in again.
    pub(crate) fn step(
        &mut self,
        promoted: &BTreeMap<String, Vec<Row>>,
        horizon: impl Fn(&str) -> Horizon,
        out: &mut Vec<Row>,
    ) -> TdbResult<usize> {
        let old = self.sides.each_ref().map(|s| s.held.len());
        let peak = self.fold(promoted, old, out);
        if peak.is_err() {
            for (side, n) in self.sides.iter_mut().zip(old) {
                side.held.truncate(n);
            }
        }
        let peak = peak?;
        let partner = [&self.sides[1], &self.sides[0]].map(|s| horizon(&s.relation));
        let pattern = self.pattern;
        for (i, side) in self.sides.iter_mut().enumerate() {
            side.held
                .retain(|t| partner[i].admits(pattern, i == 0, t.period));
        }
        Ok(peak)
    }

    /// Admit the promoted rows after the `old` held tuples of each side
    /// and run the kernel over what is new: every new pair for a join; for
    /// a semijoin, the held left tuples against the new right ones and the
    /// new left tuples against all right ones, after which the emitted
    /// left tuples stop being held.
    fn fold(
        &mut self,
        promoted: &BTreeMap<String, Vec<Row>>,
        old: [usize; 2],
        out: &mut Vec<Row>,
    ) -> TdbResult<usize> {
        for side in &mut self.sides {
            if let Some(rows) = promoted.get(&side.relation) {
                side.admit(rows)?;
            }
        }
        let all = self.sides.each_ref().map(|s| s.held.len());
        if !self.semijoin {
            let fresh_left = self.join(old[0]..all[0], 0..all[1], out)?;
            let fresh_right = self.join(0..old[0], old[1]..all[1], out)?;
            return Ok(fresh_left.max(fresh_right));
        }
        let mut kept = vec![false; all[0]];
        let fresh_right = self.semijoin(0..old[0], old[1]..all[1], &mut kept, out)?;
        let fresh_left = self.semijoin(old[0]..all[0], 0..all[1], &mut kept, out)?;
        let mut kept = kept.into_iter();
        self.sides[0].held.retain(|_| !kept.next().unwrap_or(false));
        Ok(fresh_left.max(fresh_right))
    }

    /// The pairs between the left side's `l` and the right side's `r`
    /// held tuples, through the plan's join kernel.
    fn join(&self, l: Range<usize>, r: Range<usize>, out: &mut Vec<Row>) -> TdbResult<usize> {
        if l.is_empty() || r.is_empty() {
            return Ok(0);
        }
        let op = StreamOp::resolve(self.pattern, true, self.cfg)?;
        let [ls, rs] = &self.sides;
        let mut emit = |chunk: Vec<(Item, Item)>| {
            for (a, b) in chunk {
                out.extend(self.output(&ls.held[a.idx].row, Some(&rs.held[b.idx].row)));
            }
            Ok(true)
        };
        let (xs, ys) = (ls.items(l), rs.items(r));
        let report = op.join(xs, ys, &mut ExecStats::default(), &mut emit)?;
        Ok(report.max_workspace())
    }

    /// The left side's `l` held tuples that match any of the right side's
    /// `r`, through the plan's semijoin kernel: each is emitted and marked
    /// in `kept`.
    fn semijoin(
        &self,
        l: Range<usize>,
        r: Range<usize>,
        kept: &mut [bool],
        out: &mut Vec<Row>,
    ) -> TdbResult<usize> {
        if l.is_empty() || r.is_empty() {
            return Ok(0);
        }
        let op = StreamOp::resolve(self.pattern, false, self.cfg)?;
        let [ls, rs] = &self.sides;
        let mut emit = |chunk: Vec<Item>| {
            for x in chunk {
                kept[x.idx] = true;
                out.extend(self.output(&ls.held[x.idx].row, None));
            }
            Ok(true)
        };
        let (xs, ys) = (ls.items(l), rs.items(r));
        let report = op.semijoin(xs, ys, &mut ExecStats::default(), &mut emit)?;
        Ok(report.max_workspace())
    }

    /// The result row for left row `l` (joined with `r`), or `None` when
    /// the residual or a filter above the operator rejects it.
    fn output(&self, l: &Row, r: Option<&Row>) -> Option<Row> {
        let row = r.map_or_else(|| l.clone(), |r| l.concat(r));
        let keep = eval_conjunction(&self.residual, &row) && eval_conjunction(&self.above, &row);
        keep.then(|| match &self.columns {
            Some(cols) => row.project(cols),
            None => row,
        })
    }
}
