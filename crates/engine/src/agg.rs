//! Hash aggregation for the QGM executor: accumulator semantics shared by
//! both executors, the serial oracle's fold, and the one parallel fold.
//!
//! * [`grouped_serial`] — the row-at-a-time reference, used only by the
//!   serial oracle.
//! * [`grouped`] — the parallel executor's fold over a [`Source`] (a
//!   columnar snapshot or materialized rows) and a list of its row indices.
//!   Groups are found by the hash of their key cells (dictionary codes,
//!   bits or day numbers off typed columns; `Value`'s hash for rows and
//!   `Mixed` storage) and confirmed against the key cells of each group's
//!   first-occurrence row; accumulators fold [`Cell`] views via
//!   [`Acc::update_cell`], and a group's key `Value`s are built once, when
//!   it first occurs. Each worker owns the groups whose key hash lands in
//!   its partition and folds their rows **in global row order** (float
//!   addition is non-associative, so merging per-morsel partials would
//!   drift from the serial result in the low bits).
//!
//! Both emit entries in first-occurrence order of the group key, which is
//! the executor's deterministic output order, and [`emit_group_rows`] adds
//! the grand-total row of an empty input for both.

use crate::db::{null_bit, ColSlice, Row};
use crate::exec::{par_partition, row_workers, Source};
use crate::program::{Cell, Program, Scratch};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use sumtab_catalog::fx::{FxHashMap, FxHasher};
use sumtab_catalog::Value;
use sumtab_qgm::{AggCall, AggFunc, BoxId, QgmGraph, ScalarExpr};

use crate::exec::ExecError;

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

/// A running aggregate accumulator.
pub(crate) enum Acc {
    CountStar(i64),
    Count(i64),
    Sum {
        int: i64,
        fl: f64,
        any_float: bool,
        seen: bool,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// DISTINCT values in a `BTreeSet` so finishing folds them in the
    /// deterministic `Value` total order — SUM(DISTINCT double) must not
    /// depend on hash iteration order.
    Distinct(BTreeSet<Value>, AggFunc),
}

impl Acc {
    pub(crate) fn new(call: &AggCall) -> Acc {
        if call.distinct {
            return Acc::Distinct(BTreeSet::new(), call.func);
        }
        match call.func {
            AggFunc::Count if call.arg.is_none() => Acc::CountStar(0),
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                int: 0,
                fl: 0.0,
                any_float: false,
                seen: false,
            },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            // AVG is normalized to SUM/COUNT during QGM build; exec_group_by
            // rejects graphs carrying a raw AVG before any Acc is built, so
            // this arm is never reached with a meaningful call.
            AggFunc::Avg => Acc::Count(0),
        }
    }

    /// Fold one row's argument given as an owned [`Value`] reference.
    pub(crate) fn update(&mut self, arg: Option<&Value>) {
        self.update_cell(arg.map(Cell::of));
    }

    /// Fold one row's argument given as a borrowed [`Cell`] — the
    /// vectorized-aggregation entry point: SUM/COUNT/MIN/MAX fold typed
    /// column cells with no `Value` allocation (MIN/MAX clone only when the
    /// extremum actually changes). Semantics are exactly [`Acc::update`]'s
    /// (which delegates here): `None` means "no argument" (COUNT(*)),
    /// `Some(Cell::Null)` is a NULL argument.
    #[inline]
    pub(crate) fn update_cell(&mut self, arg: Option<Cell<'_>>) {
        match self {
            Acc::CountStar(n) => *n += 1,
            Acc::Count(n) => {
                if arg.is_some_and(|c| !c.is_null()) {
                    *n += 1;
                }
            }
            Acc::Sum {
                int,
                fl,
                any_float,
                seen,
            } => match arg {
                Some(Cell::Int(i)) => {
                    *int = int.wrapping_add(i);
                    *fl += i as f64;
                    *seen = true;
                }
                Some(Cell::Double(d)) => {
                    *fl += d;
                    *any_float = true;
                    *seen = true;
                }
                _ => {}
            },
            Acc::Min(cur) => {
                if let Some(c) = arg {
                    if !c.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|m| c.grouping_cmp(m) == std::cmp::Ordering::Less)
                    {
                        *cur = Some(c.into_value());
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(c) = arg {
                    if !c.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|m| c.grouping_cmp(m) == std::cmp::Ordering::Greater)
                    {
                        *cur = Some(c.into_value());
                    }
                }
            }
            Acc::Distinct(set, _) => {
                if let Some(c) = arg {
                    if !c.is_null() {
                        set.insert(c.into_value());
                    }
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::CountStar(n) | Acc::Count(n) => Value::Int(n),
            Acc::Sum {
                int,
                fl,
                any_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if any_float {
                    Value::Double(fl)
                } else {
                    Value::Int(int)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Distinct(set, func) => match func {
                AggFunc::Count => Value::Int(set.len() as i64),
                AggFunc::Sum => {
                    let mut acc = Acc::Sum {
                        int: 0,
                        fl: 0.0,
                        any_float: false,
                        seen: false,
                    };
                    for v in &set {
                        acc.update(Some(v));
                    }
                    acc.finish()
                }
                AggFunc::Min => set.iter().min().cloned().unwrap_or(Value::Null),
                AggFunc::Max => set.iter().max().cloned().unwrap_or(Value::Null),
                // Unreachable after exec_group_by's up-front AVG rejection.
                AggFunc::Avg => Value::Null,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The shared aggregation plan
// ---------------------------------------------------------------------------

/// Outputs reference grouping items or carry aggregates, in any order.
pub(crate) enum OutPlan {
    Item(usize),
    Agg(usize),
}

/// The shared aggregation plan for a GROUP BY box.
pub(crate) struct GroupPlan {
    /// The box the GROUP BY reads.
    pub(crate) input: BoxId,
    /// Its grouping sets (Section 5: a cube query is the union of its
    /// cuboids, NULL-padding the grouped-out columns).
    pub(crate) sets: Vec<Vec<usize>>,
    pub(crate) item_ords: Vec<usize>,
    pub(crate) agg_calls: Vec<AggCall>,
    pub(crate) out_plan: Vec<OutPlan>,
}

pub(crate) fn plan_group_by(g: &QgmGraph, b: BoxId) -> Result<GroupPlan, ExecError> {
    let bx = g.boxed(b);
    let gb = bx
        .as_group_by()
        .ok_or_else(|| ExecError::malformed(b, "exec_group_by on a non-GROUP-BY box"))?;
    let item_ords: Vec<usize> = gb.items.iter().map(|c| c.ordinal).collect();
    let mut agg_calls: Vec<AggCall> = Vec::new();
    let mut out_plan: Vec<OutPlan> = Vec::with_capacity(bx.outputs.len());
    for oc in &bx.outputs {
        match &oc.expr {
            ScalarExpr::Col(c) => {
                let i = gb.items.iter().position(|it| it == c).ok_or_else(|| {
                    ExecError::malformed(b, "group-by output must reference a grouping item")
                })?;
                out_plan.push(OutPlan::Item(i));
            }
            ScalarExpr::Agg(a) => {
                // AVG must have been normalized to SUM/COUNT by the builder;
                // reject it here (before any accumulator exists) so `Acc`
                // never observes it.
                if a.func == AggFunc::Avg {
                    return Err(ExecError::malformed(
                        b,
                        "raw AVG aggregate (not normalized to SUM/COUNT)",
                    ));
                }
                agg_calls.push(*a);
                out_plan.push(OutPlan::Agg(agg_calls.len() - 1));
            }
            other => {
                return Err(ExecError::malformed(
                    b,
                    format!("group-by output must be item or aggregate, got {other:?}"),
                ))
            }
        }
    }
    let child_q = *bx
        .quants
        .first()
        .ok_or_else(|| ExecError::malformed(b, "group-by box has no input quantifier"))?;
    Ok(GroupPlan {
        input: g.input_of(child_q),
        sets: gb.sets.clone(),
        item_ords,
        agg_calls,
        out_plan,
    })
}

// ---------------------------------------------------------------------------
// The serial oracle's fold
// ---------------------------------------------------------------------------

/// Hash-aggregate one cuboid serially; entries come out in first-occurrence
/// order of their group key.
pub(crate) fn grouped_serial(
    input: &[Row],
    set: &[usize],
    plan: &GroupPlan,
) -> Vec<(Vec<Value>, Vec<Acc>)> {
    let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
    let mut entries: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
    for row in input {
        let key: Vec<Value> = set
            .iter()
            .map(|&i| row[plan.item_ords[i]].clone())
            .collect();
        let idx = match index.get(&key) {
            Some(&i) => i,
            None => {
                let i = entries.len();
                index.insert(key.clone(), i);
                entries.push((key, new_accs(plan)));
                i
            }
        };
        for (acc, call) in entries[idx].1.iter_mut().zip(&plan.agg_calls) {
            acc.update(call.arg.map(|c| &row[c.ordinal]));
        }
    }
    entries
}

fn new_accs(plan: &GroupPlan) -> Vec<Acc> {
    plan.agg_calls.iter().map(Acc::new).collect()
}

// ---------------------------------------------------------------------------
// The parallel fold
// ---------------------------------------------------------------------------

/// How the fold reads an aggregate's argument: a source column, or a
/// compiled program over the source's columns.
#[derive(Clone, Copy)]
pub(crate) enum ArgSrc<'p> {
    Col(usize),
    Prog(&'p Program),
}

/// How [`grouped`] reads a GROUP BY box's input from its source: `rows`
/// lists the source rows that reach the box, in global order; grouping
/// item `s` is source column `keys[s]`, and aggregate `j` reads its
/// argument through `args[j]`.
pub(crate) struct GroupInput<'p> {
    pub(crate) rows: Vec<u32>,
    pub(crate) keys: Vec<usize>,
    pub(crate) args: Vec<Option<ArgSrc<'p>>>,
}

impl GroupInput<'_> {
    /// All `n` rows of a source that is the box's own input: grouping
    /// items and arguments are its ordinals.
    pub(crate) fn whole(n: usize, plan: &GroupPlan) -> GroupInput<'static> {
        GroupInput {
            rows: (0..n as u32).collect(),
            keys: plan.item_ords.clone(),
            args: plan
                .agg_calls
                .iter()
                .map(|c| c.arg.map(|a| ArgSrc::Col(a.ordinal)))
                .collect(),
        }
    }
}

/// A grouping cell as the fold hashes and compares it. A typed column
/// gives a word that is injective under `Value` grouping equality within
/// the column: `to_bits` for doubles (grouping equality on doubles is
/// total-order, i.e. bit, equality), the dictionary code for strings, the
/// day number for dates. Materialized rows and `Mixed` storage give the
/// value itself.
#[derive(PartialEq, Eq, Hash)]
enum KeyCell<'a> {
    Null,
    Word(u64),
    Value(&'a Value),
}

/// One grouping column, resolved once per fold: a column's storage and
/// null bitmap, or a column of materialized rows.
enum KeyCol<'a> {
    Col(ColSlice<'a>, Option<&'a [u64]>),
    Rows(&'a [Row], usize),
}

/// One group while folding: first-occurrence position, key, accumulators.
type Entry = (u32, Vec<Value>, Vec<Acc>);

/// One cuboid's fold over one input.
struct Fold<'a> {
    src: Source<'a>,
    input: &'a GroupInput<'a>,
    set: &'a [usize],
    /// The cuboid's grouping columns.
    cols: Vec<KeyCol<'a>>,
    plan: &'a GroupPlan,
}

impl<'a> Fold<'a> {
    fn key_cell(&self, row: usize, k: usize) -> KeyCell<'a> {
        match self.cols[k] {
            KeyCol::Rows(r, c) => KeyCell::Value(&r[row][c]),
            KeyCol::Col(_, nulls) if null_bit(nulls, row) => KeyCell::Null,
            KeyCol::Col(slice, _) => KeyCell::Word(match slice {
                ColSlice::Int(d) => d[row] as u64,
                ColSlice::Double(d) => d[row].to_bits(),
                ColSlice::Bool(d) => d[row] as u64,
                ColSlice::Date(d) => d[row].to_day_number() as u64,
                ColSlice::Str { codes, .. } => codes[row] as u64,
                ColSlice::Mixed(v) => return KeyCell::Value(&v[row]),
            }),
        }
    }

    /// The key hash of the row at position `fi` of the input's rows.
    fn hash(&self, fi: usize) -> u64 {
        let row = self.input.rows[fi] as usize;
        let mut h = FxHasher::default();
        for k in 0..self.cols.len() {
            self.key_cell(row, k).hash(&mut h);
        }
        h.finish()
    }

    /// Fold source row `row` into its group's accumulators.
    fn fold(&self, accs: &mut [Acc], row: usize, scratch: &mut Scratch<'a>) {
        let src = self.src;
        let col = |c: u32| src.cell(row, c as usize);
        for (acc, arg) in accs.iter_mut().zip(&self.input.args) {
            acc.update_cell(arg.map(|a| match a {
                ArgSrc::Col(c) => src.cell(row, c),
                ArgSrc::Prog(p) => p.eval_with(&col, scratch),
            }));
        }
    }

    /// Fold the `(position in rows, key hash)` pairs of one partition, in
    /// global order. A row finds its group by hash and confirms it against
    /// the key cells of the group's first-occurrence row, kept side by side
    /// in `firsts`; a `Value` cell is compared with the group's key instead,
    /// which sits in one small allocation where the first row may be far
    /// away. Entries carry the first row's position.
    fn fold_part(&self, hashed: impl Iterator<Item = (u32, u64)>) -> Vec<Entry> {
        const NONE: u32 = u32::MAX;
        let rows = &self.input.rows;
        let k = self.cols.len();
        let mut out: Vec<Entry> = Vec::new();
        let mut firsts: Vec<KeyCell<'a>> = Vec::new();
        // A hash maps to its latest group; `chain[e]` is the group before
        // `e` with the same hash, or `NONE`.
        let mut index: FxHashMap<u64, u32> = FxHashMap::default();
        let mut chain: Vec<u32> = Vec::new();
        let mut scratch = Scratch::new();
        for (fi, h) in hashed {
            let row = rows[fi as usize] as usize;
            let mut e = index.get(&h).copied().unwrap_or(NONE);
            while e != NONE
                && !(0..k).all(|j| match self.key_cell(row, j) {
                    KeyCell::Value(v) => *v == out[e as usize].1[j],
                    cell => cell == firsts[e as usize * k + j],
                })
            {
                e = chain[e as usize];
            }
            if e == NONE {
                e = out.len() as u32;
                chain.push(index.insert(h, e).unwrap_or(NONE));
                firsts.extend((0..k).map(|j| self.key_cell(row, j)));
                let key = self
                    .set
                    .iter()
                    .map(|&s| self.src.cell(row, self.input.keys[s]));
                out.push((fi, key.map(Cell::into_value).collect(), new_accs(self.plan)));
            }
            self.fold(&mut out[e as usize].2, row, &mut scratch);
        }
        out
    }
}

/// Hash-aggregate one cuboid of `input`, read from `src`, partitioned by
/// key hash through [`par_partition`]: a partition owns every row of its
/// groups and folds them in global row order, so float accumulation
/// matches the serial fold exactly; a single worker folds every row in
/// place. A group's key `Value`s are built once,
/// from its first-occurrence row while that row is in hand. Partitions are
/// then merged by first-occurrence position, the serial entry order.
pub(crate) fn grouped(
    src: Source<'_>,
    input: &GroupInput<'_>,
    set: &[usize],
    plan: &GroupPlan,
    workers: usize,
    morsel: usize,
) -> Vec<(Vec<Value>, Vec<Acc>)> {
    let rows = &input.rows;
    // No rows, no groups; an emptied table's snapshot has no columns.
    if rows.is_empty() {
        return Vec::new();
    }
    let cols = set
        .iter()
        .map(|&s| match src {
            Source::Rows(r) => KeyCol::Rows(r, input.keys[s]),
            Source::Col(t) => {
                let cv = &t.columns()[input.keys[s]];
                KeyCol::Col(cv.slice(), cv.null_words())
            }
        })
        .collect();
    let f = Fold {
        src,
        input,
        set,
        cols,
        plan,
    };
    // Grand total (empty grouping set): exactly one group, whose
    // accumulators must fold in global order anyway (float addition is
    // non-associative), so hashing and partitioning are pure overhead.
    if set.is_empty() {
        let mut accs = new_accs(plan);
        let mut scratch = Scratch::new();
        for &r in rows {
            f.fold(&mut accs, r as usize, &mut scratch);
        }
        return vec![(Vec::new(), accs)];
    }
    // A single worker folds in place: through the scatter, `mixed_dml`'s
    // GROUP BYs over small summaries read `query_p50_us` +13.7% (EXPERIMENTS
    // E-X8).
    let parts = if row_workers(workers, rows.len()) == 1 {
        vec![f.fold_part((0..rows.len()).map(|fi| (fi as u32, f.hash(fi))))]
    } else {
        par_partition(
            workers,
            morsel,
            rows.len(),
            |fi, _| Some(f.hash(fi)),
            |chunks| f.fold_part(chunks.iter().flatten().copied()),
        )
    };
    let mut all: Vec<Entry> = parts.into_iter().flatten().collect();
    all.sort_by_key(|e| e.0);
    all.into_iter().map(|(_, k, a)| (k, a)).collect()
}

/// Render finished group entries through the output plan.
pub(crate) fn emit_group_rows(
    mut entries: Vec<(Vec<Value>, Vec<Acc>)>,
    set: &[usize],
    plan: &GroupPlan,
    out: &mut Vec<Row>,
) {
    // Aggregation over an empty input still produces one grand-total row.
    if entries.is_empty() && set.is_empty() {
        entries.push((Vec::new(), new_accs(plan)));
    }
    for (key, accs) in entries {
        let finished: Vec<Value> = accs.into_iter().map(Acc::finish).collect();
        let row = plan
            .out_plan
            .iter()
            .map(|p| match p {
                OutPlan::Item(i) => match set.iter().position(|&s| s == *i) {
                    Some(k) => key[k].clone(),
                    None => Value::Null,
                },
                OutPlan::Agg(k) => finished[*k].clone(),
            })
            .collect();
        out.push(row);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Date;

    /// Integer keys of materialized rows hash as widened doubles, whose low
    /// bits are zero; the fold's key hash must still spread them over the
    /// low bits that partitions and the group index read.
    #[test]
    fn integer_row_keys_spread_over_low_hash_bits() {
        let rows: Vec<Row> = (0..4096).map(|i| vec![Value::Int(i)]).collect();
        let plan = GroupPlan {
            input: BoxId(0),
            sets: vec![vec![0]],
            item_ords: vec![0],
            agg_calls: Vec::new(),
            out_plan: Vec::new(),
        };
        let input = GroupInput::whole(rows.len(), &plan);
        let f = Fold {
            src: Source::Rows(&rows),
            input: &input,
            set: &[0],
            cols: vec![KeyCol::Rows(&rows, 0)],
            plan: &plan,
        };
        let low: std::collections::HashSet<u64> =
            (0..rows.len()).map(|fi| f.hash(fi) & 0xfff).collect();
        assert!(low.len() > 2000, "{} distinct low-bit patterns", low.len());
    }

    /// `Cell::grouping_cmp` must agree with `Value::cmp` for every pair of
    /// sample values — MIN/MAX folded through cells must pick exactly the
    /// extrema the serial `Value` fold picks.
    #[test]
    fn cell_grouping_cmp_matches_value_cmp() {
        let samples = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(0),
            Value::Int(3),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(2.5),
            Value::Double(3.0),
            Value::Double(f64::NAN),
            Value::from("a"),
            Value::from("b"),
            Value::Date(Date::parse("1990-01-03").unwrap()),
            Value::Date(Date::parse("1991-10-20").unwrap()),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    Cell::of(a).grouping_cmp(b),
                    a.cmp(b),
                    "grouping_cmp({a:?}, {b:?})"
                );
            }
        }
    }

    /// `update_cell` over typed cells must produce the same finished values
    /// as `update` over the equivalent owned values.
    #[test]
    fn update_cell_matches_update() {
        use sumtab_qgm::{ColRef, GraphId, QuantId};
        let arg = Some(ColRef {
            qid: QuantId {
                graph: GraphId(0),
                idx: 0,
            },
            ordinal: 0,
        });
        let calls = [
            AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggCall {
                func: AggFunc::Count,
                arg,
                distinct: false,
            },
            AggCall {
                func: AggFunc::Sum,
                arg,
                distinct: false,
            },
            AggCall {
                func: AggFunc::Min,
                arg,
                distinct: false,
            },
            AggCall {
                func: AggFunc::Max,
                arg,
                distinct: false,
            },
            AggCall {
                func: AggFunc::Sum,
                arg,
                distinct: true,
            },
        ];
        let stream = vec![
            Value::Int(2),
            Value::Double(0.5),
            Value::Null,
            Value::Int(-7),
            Value::Double(0.5),
            Value::from("x"),
        ];
        for call in &calls {
            let mut via_value = Acc::new(call);
            let mut via_cell = Acc::new(call);
            for v in &stream {
                via_value.update(call.arg.map(|_| v));
                via_cell.update_cell(call.arg.map(|_| Cell::of(v)));
            }
            assert_eq!(via_value.finish(), via_cell.finish());
        }
    }
}
