//! Incremental summary-table maintenance driven by the static
//! maintainability analysis.
//!
//! The paper lists AST maintenance as related problem (c) and defers to
//! Mumick/Quass/Mumick (SIGMOD'97). This module executes the certificates
//! produced by [`sumtab_qgm::maintainability`]. One function, [`merge`],
//! applies one statement's change to one AST:
//!
//! * **Inserted rows** are aggregated alone and merged into the
//!   materialized groups — `COUNT`/`SUM` add, `MIN`/`MAX` take the extremum
//!   (the classic insert-only case); a new group's delta row is its row.
//! * **Removed rows** go through counting-based delta maintenance. The
//!   per-group row counter (a projected `COUNT(*)`-equivalent, or the hidden
//!   one injected at materialization) tracks group liveness: when it reaches
//!   zero the whole group row is dropped; `COUNT`/`SUM` columns subtract the
//!   delta; `MIN`/`MAX` columns are *shrink-sensitive* — a delete whose delta
//!   extremum ties or beats the stored one may have removed the extremum
//!   itself, which a delta cannot repair, so the merge reports
//!   [`DeltaOutcome::NeedsRefresh`] and the caller recomputes.
//! * **An UPDATE is both at once**: the counter makes a group's liveness
//!   decidable from the delta alone, so only the groups the delta touches
//!   are read, and the result is one row-level [`Database::mutate`] of the
//!   backing table — its columnar view is maintained in place like a base
//!   table's. [`apply_append`] and [`apply_delete`] are the one-sided calls.
//!
//! Every apply is gated behind the PR 4 plan verifier
//! ([`verify_maintenance`]) and, in debug builds (or `SUMTAB_VERIFY=1`),
//! a recompute-equivalence assertion ([`check_equivalence`]): the maintained
//! backing rows must equal a from-scratch recomputation, or the caller
//! degrades to a refresh.

use std::collections::BTreeMap;
use sumtab_catalog::{Catalog, Value};
use sumtab_engine::{execute, Database, Row};
use sumtab_qgm::{
    analyze_maintainability, augment_with_count, BoxKind, ColumnOp, MaintStrategy,
    MaintainabilityReport, QgmGraph, VerifyError,
};

/// The cached registration-time analysis of one AST: per-base-table
/// certificates plus the graph the engine actually executes (the definition,
/// or its hidden-counter augmentation when counting-delta maintenance needs
/// a group-liveness counter that the definition does not project).
#[derive(Debug, Clone)]
pub struct AstMaintenance {
    /// Base table (lower-cased) → maintainability certificate.
    pub reports: BTreeMap<String, MaintainabilityReport>,
    /// The graph executed for materialization, refresh, and delta
    /// computation. Identical to the definition graph unless
    /// `hidden_counter`.
    pub exec_graph: QgmGraph,
    /// The exec graph carries an extra trailing hidden `COUNT(*)` column
    /// (stored in backing rows, invisible to the catalog and the matcher).
    pub hidden_counter: bool,
}

impl AstMaintenance {
    /// Derive the executable plan for mutations on `table`; `None` when the
    /// certificate says refresh-only (or the table is not read).
    pub fn plan_for(&self, table: &str) -> Option<MaintenancePlan> {
        let r = self.reports.get(&table.to_ascii_lowercase())?;
        if r.strategy == MaintStrategy::RefreshOnly {
            return None;
        }
        let mut ops = r.per_column_ops.clone();
        let mut counter = r.counter;
        if self.hidden_counter {
            ops.push(ColumnOp::Count {
                counter_eligible: true,
            });
            if counter.is_none() {
                counter = Some(ops.len() - 1);
            }
        }
        Some(MaintenancePlan {
            strategy: r.strategy,
            ops,
            counter,
            shrink_sensitive: r.shrink_sensitive.clone(),
        })
    }

    /// The strongest strategy certified for `table`
    /// ([`MaintStrategy::RefreshOnly`] when the table is not read).
    pub fn strategy_for(&self, table: &str) -> MaintStrategy {
        self.reports
            .get(&table.to_ascii_lowercase())
            .map(|r| r.strategy)
            .unwrap_or(MaintStrategy::RefreshOnly)
    }
}

/// Run the maintainability analysis for every base table an AST definition
/// reads, and build the exec graph (injecting the hidden counter when any
/// certificate requests one). Pure function of (graph, catalog) — computed
/// once at registration, like `MatchSignature`.
pub fn analyze_ast(graph: &QgmGraph, catalog: &Catalog) -> AstMaintenance {
    let mut reports = BTreeMap::new();
    for b in &graph.boxes {
        if let BoxKind::BaseTable { table } = &b.kind {
            let t = table.to_ascii_lowercase();
            reports
                .entry(t.clone())
                .or_insert_with(|| analyze_maintainability(graph, &t, catalog));
        }
    }
    let wants_hidden = reports
        .values()
        .any(|r: &MaintainabilityReport| r.needs_hidden_counter);
    let (exec_graph, hidden_counter) = if wants_hidden {
        match augment_with_count(graph) {
            Some(g) => (g, true),
            // Unreachable for analyzer-certified graphs; stay sound anyway.
            None => (graph.clone(), false),
        }
    } else {
        (graph.clone(), false)
    };
    AstMaintenance {
        reports,
        exec_graph,
        hidden_counter,
    }
}

/// The executable maintenance plan for one (AST, base table) pair: one
/// [`ColumnOp`] per *exec-graph* output (the certificate's per-column ops
/// plus the hidden counter, when present).
#[derive(Debug, Clone)]
pub struct MaintenancePlan {
    /// The certified strategy.
    pub strategy: MaintStrategy,
    /// Per-backing-column merge behavior.
    pub ops: Vec<ColumnOp>,
    /// Ordinal of the group-liveness counter (visible or hidden). Always
    /// `Some` under [`MaintStrategy::CountingDelta`].
    pub counter: Option<usize>,
    /// Ordinals of shrink-sensitive (`MIN`/`MAX`) columns.
    pub shrink_sensitive: Vec<usize>,
}

/// The outcome of an incremental apply that ran to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The backing table was merged in place.
    Applied,
    /// The delta cannot soundly maintain the backing table (shrink of a
    /// stored extremum, width drift, counter inconsistency); nothing was
    /// modified — the caller must recompute.
    NeedsRefresh(String),
}

/// Maintenance boundary gate: before a [`MaintenancePlan`] is applied, prove
/// the exec graph still verifies (passes 1+2) and that the plan's
/// per-column ops line up one-to-one with the exec graph's root outputs — a
/// drifted plan would merge deltas into the wrong columns. Callers treat a
/// failure like any other incremental-maintenance error and degrade to a
/// full refresh.
pub fn verify_maintenance(
    exec_graph: &QgmGraph,
    plan: &MaintenancePlan,
    catalog: &Catalog,
) -> Result<(), VerifyError> {
    sumtab_qgm::verify::verify_plan(exec_graph, catalog)?;
    let arity = exec_graph.boxed(exec_graph.root).outputs.len();
    if plan.ops.len() != arity {
        return Err(VerifyError::schema(format!(
            "maintenance plan has {} merge ops but the exec graph exposes {arity} columns",
            plan.ops.len()
        )));
    }
    if plan.strategy == MaintStrategy::CountingDelta {
        match plan.counter {
            Some(c) if matches!(plan.ops.get(c), Some(ColumnOp::Count { .. })) => {}
            _ => {
                return Err(VerifyError::schema(
                    "counting-delta plan lacks a COUNT group-liveness counter".to_string(),
                ))
            }
        }
    }
    Ok(())
}

/// The group-key cells of a backing or delta row.
fn key_cells<'a>(key_idx: &'a [usize], row: &'a Row) -> impl Iterator<Item = &'a Value> {
    key_idx.iter().map(move |&k| &row[k])
}

/// Apply one statement's change to `table` — `removed` rows left it,
/// `inserted` rows arrived, either may be empty — to the backing rows of
/// `ast_name` in `db`.
///
/// Each side is aggregated through the exec graph over one scratch database
/// in which `table` holds only that side's rows and every other table the
/// graph reads is copied from `db` — crucially *not* the (large) maintained
/// fact table, so the cost scales with the dimension tables and the delta,
/// not the base data. Every touched group's new row is planned before
/// anything moves (removed side first, so the same statement can empty a
/// group and re-create it); the merge then lands as one
/// [`Database::mutate`]: old group rows out, new ones in, emptied groups
/// dropped, a group whose merged row equals its stored row left alone.
///
/// Reports [`DeltaOutcome::NeedsRefresh`], nothing modified, when the plan
/// does not certify removals, the backing rows do not line up with the
/// plan, or the removed side cannot be repaired from the delta (counter
/// underflow, missing group, a possibly-removed extremum).
pub fn merge(
    exec_graph: &QgmGraph,
    plan: &MaintenancePlan,
    ast_name: &str,
    table: &str,
    removed: &[Row],
    inserted: &[Row],
    db: &mut Database,
) -> Result<DeltaOutcome, sumtab_engine::ExecError> {
    let refuse = |why: String| Ok(DeltaOutcome::NeedsRefresh(why));
    let strategy = plan.strategy;
    let counter = plan
        .counter
        .filter(|_| strategy == MaintStrategy::CountingDelta);
    if counter.is_none() && !removed.is_empty() {
        return refuse(format!("strategy {strategy} does not certify deletes"));
    }

    let mut delta_db = Database::new();
    for b in &exec_graph.boxes {
        if let BoxKind::BaseTable { table: t } = &b.kind {
            if !t.eq_ignore_ascii_case(table) {
                delta_db.put_table(t, db.rows(t).to_vec());
            }
        }
    }
    let mut aggregate = |side: &[Row]| {
        if side.is_empty() {
            return Ok(Vec::new());
        }
        delta_db.put_table(table, side.to_vec());
        execute(exec_graph, &delta_db)
    };
    let (del, ins) = (aggregate(removed)?, aggregate(inserted)?);

    let (stored_rows, width) = (db.rows(ast_name), plan.ops.len());
    if let Some(w) = stored_rows.first().map(Vec::len).filter(|&w| w != width) {
        // Legacy backing data without the hidden counter (or other drift):
        // a refresh re-materializes through the exec graph.
        return refuse(format!(
            "backing rows have {w} columns, plan expects {width}"
        ));
    }

    /// One group the delta touches: its aggregated removed and inserted
    /// rows and the row the backing table holds for it.
    #[derive(Default)]
    struct Group<'a> {
        del: Option<&'a Row>,
        ins: Option<&'a Row>,
        stored: Option<&'a Row>,
    }
    let key_idx: Vec<usize> = (0..width)
        .filter(|&c| plan.ops[c] == ColumnOp::Key)
        .collect();
    // Keyed by borrowed key cells and ordered, so the mutation below is a
    // function of the delta, not of the executor's group output order.
    let mut groups: BTreeMap<Vec<&Value>, Group> = BTreeMap::new();
    for d in &del {
        let key = key_cells(&key_idx, d).collect();
        groups.entry(key).or_default().del = Some(d);
    }
    for i in &ins {
        let key = key_cells(&key_idx, i).collect();
        groups.entry(key).or_default().ins = Some(i);
    }
    let mut probe: Vec<&Value> = Vec::with_capacity(key_idx.len());
    for row in stored_rows {
        probe.clear();
        probe.extend(key_cells(&key_idx, row));
        if let Some(g) = groups.get_mut(probe.as_slice()) {
            g.stored = Some(row);
        }
    }

    let (mut old_rows, mut new_rows) = (Vec::new(), Vec::new());
    for g in groups.values() {
        let mut row = g.stored.cloned();
        if let (Some(d), Some(cnt)) = (g.del, counter) {
            row = match subtract(plan, cnt, row, d) {
                Ok(row) => row,
                Err(why) => return refuse(why),
            };
        }
        if let Some(i) = g.ins {
            row = Some(match row {
                Some(mut row) => {
                    for (c, op) in plan.ops.iter().enumerate() {
                        row[c] = merge_value(*op, &row[c], &i[c]);
                    }
                    row
                }
                None => i.clone(),
            });
        }
        if g.stored != row.as_ref() {
            old_rows.extend(g.stored.cloned());
            new_rows.extend(row);
        }
    }
    match db.mutate(ast_name, &old_rows, new_rows) {
        Ok(_) => Ok(DeltaOutcome::Applied),
        Err(e) => refuse(e.to_string()),
    }
}

/// [`merge`] of an append: nothing removed.
pub fn apply_append(
    exec_graph: &QgmGraph,
    plan: &MaintenancePlan,
    ast_name: &str,
    table: &str,
    delta_rows: &[Row],
    db: &mut Database,
) -> Result<DeltaOutcome, sumtab_engine::ExecError> {
    merge(exec_graph, plan, ast_name, table, &[], delta_rows, db)
}

/// [`merge`] of a delete: nothing inserted.
pub fn apply_delete(
    exec_graph: &QgmGraph,
    plan: &MaintenancePlan,
    ast_name: &str,
    table: &str,
    removed_rows: &[Row],
    db: &mut Database,
) -> Result<DeltaOutcome, sumtab_engine::ExecError> {
    merge(exec_graph, plan, ast_name, table, removed_rows, &[], db)
}

/// Counting-based removal of the aggregated delta row `deleted` from its
/// group's `stored` row: `Ok(None)` when the liveness counter `cnt` reaches
/// zero (the group vanishes), otherwise the row with signed deltas
/// subtracted from its `COUNT`/`SUM` columns; keys and surviving extrema
/// stay. `Err(why)` whenever the stored state is inconsistent with the
/// delta or a shrink-sensitive extremum might have been removed — a delta
/// cannot repair either.
fn subtract(
    plan: &MaintenancePlan,
    cnt: usize,
    stored: Option<Row>,
    deleted: &Row,
) -> Result<Option<Row>, String> {
    let Some(mut stored) = stored else {
        return Err("deleted rows belong to a group missing from the backing table".to_string());
    };
    // Group-liveness arithmetic decides removal before anything else: a
    // vanishing group needs no per-column repair.
    let (Value::Int(old_n), Value::Int(del_n)) = (&stored[cnt], &deleted[cnt]) else {
        return Err("group counter is not an integer".to_string());
    };
    if old_n < del_n {
        return Err(format!(
            "counter underflow: {old_n} stored rows, {del_n} deleted"
        ));
    }
    if old_n == del_n {
        return Ok(None);
    }
    // Shrink detection: if the delta's extremum ties or beats the stored
    // one, the stored extremum may be among the deleted rows.
    for &s in &plan.shrink_sensitive {
        let (kept, gone) = (&stored[s], &deleted[s]);
        if *gone == Value::Null {
            continue; // only NULLs deleted in this column: extrema ignore them
        }
        if *kept == Value::Null {
            return Err(format!(
                "stored extremum NULL but deleted rows carry values (column {s})"
            ));
        }
        let shrinks = match plan.ops[s] {
            ColumnOp::Min => gone <= kept,
            ColumnOp::Max => gone >= kept,
            _ => false,
        };
        if shrinks {
            return Err(format!("delete removes the stored extremum of column {s}"));
        }
    }
    for (c, op) in plan.ops.iter().enumerate() {
        if matches!(op, ColumnOp::Count { .. } | ColumnOp::Sum { .. }) {
            stored[c] = sub_value(&stored[c], &deleted[c])
                .ok_or_else(|| format!("cannot subtract delta from column {c}"))?;
        }
    }
    Ok(Some(stored))
}

/// Recompute-equivalence assertion: the maintained backing rows must be a
/// permutation of a from-scratch recomputation through the exec graph.
/// Double cells compare with a small relative tolerance (float accumulation
/// orders differ between merge and recompute); everything else compares
/// exactly. Returns a description of the first mismatch.
pub fn check_equivalence(
    exec_graph: &QgmGraph,
    ast_name: &str,
    db: &Database,
) -> Result<(), String> {
    let recomputed = execute(exec_graph, db).map_err(|e| format!("recompute failed: {e}"))?;
    let mut expected = recomputed;
    expected.sort();
    let mut actual = db.rows(ast_name).to_vec();
    actual.sort();
    if expected.len() != actual.len() {
        return Err(format!(
            "maintained backing has {} rows, recompute produced {}",
            actual.len(),
            expected.len()
        ));
    }
    for (ri, (a, e)) in actual.iter().zip(&expected).enumerate() {
        if a.len() != e.len() {
            return Err(format!("row {ri}: arity {} vs {}", a.len(), e.len()));
        }
        for (ci, (av, ev)) in a.iter().zip(e).enumerate() {
            let ok = match (av, ev) {
                (Value::Double(x), Value::Double(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= 1e-9 * scale
                }
                (a, e) => a == e,
            };
            if !ok {
                return Err(format!(
                    "row {ri}, column {ci}: maintained {av:?} != recomputed {ev:?}"
                ));
            }
        }
    }
    Ok(())
}

fn merge_value(op: ColumnOp, current: &Value, delta: &Value) -> Value {
    use sumtab_engine::eval::eval_binary;
    match (op, current, delta) {
        (ColumnOp::Key, c, _) | (_, c, Value::Null) => c.clone(),
        (_, Value::Null, d) => d.clone(),
        (ColumnOp::Count { .. } | ColumnOp::Sum { .. }, c, d) => {
            eval_binary(sumtab_qgm::BinOp::Add, c, d)
        }
        // On a tie both keep the stored cell.
        (ColumnOp::Min, c, d) => c.min(d).clone(),
        (ColumnOp::Max, c, d) => d.max(c).clone(),
    }
}

/// Signed subtraction with the NULL conventions of delta maintenance:
/// subtracting a NULL delta keeps the current value; subtracting from NULL
/// is unrepresentable (`None` → refresh).
fn sub_value(current: &Value, delta: &Value) -> Option<Value> {
    match (current, delta) {
        (c, Value::Null) => Some(c.clone()),
        (Value::Null, _) => None,
        (c, d) => Some(sumtab_engine::eval::eval_binary(
            sumtab_qgm::BinOp::Sub,
            c,
            d,
        )),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;
    use sumtab_qgm::build_query;

    fn graph_of(sql: &str, cat: &Catalog) -> QgmGraph {
        build_query(&parse_query(sql).unwrap(), cat).unwrap()
    }

    #[test]
    fn merge_value_semantics() {
        let i = |n: i64| Value::Int(n);
        let add = ColumnOp::Sum { delete_safe: true };
        assert_eq!(merge_value(add, &i(3), &i(4)), i(7));
        assert_eq!(merge_value(add, &Value::Null, &i(4)), i(4));
        assert_eq!(merge_value(add, &i(3), &Value::Null), i(3));
        assert_eq!(merge_value(ColumnOp::Min, &i(3), &i(4)), i(3));
        assert_eq!(merge_value(ColumnOp::Min, &i(5), &i(4)), i(4));
        assert_eq!(merge_value(ColumnOp::Max, &i(3), &i(4)), i(4));
        assert_eq!(merge_value(ColumnOp::Max, &Value::Null, &i(4)), i(4));
        assert_eq!(
            merge_value(ColumnOp::Key, &i(1), &i(9)),
            i(1),
            "keys never change"
        );
        assert_eq!(
            merge_value(add, &Value::Double(1.5), &Value::Double(2.5)),
            Value::Double(4.0)
        );
        assert_eq!(sub_value(&i(7), &i(4)), Some(i(3)));
        assert_eq!(sub_value(&i(7), &Value::Null), Some(i(7)));
        assert_eq!(sub_value(&Value::Null, &i(4)), None);
    }

    #[test]
    fn plan_detection_via_analyzer() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select faid, count(*) as c, sum(qty) as s, min(price) as mn, max(price) as mx \
             from trans group by faid",
            &cat,
        );
        let m = analyze_ast(&g, &cat);
        assert!(!m.hidden_counter, "COUNT(*) is already projected");
        let plan = m.plan_for("trans").unwrap();
        assert_eq!(plan.strategy, MaintStrategy::CountingDelta);
        assert_eq!(plan.counter, Some(1));
        assert_eq!(plan.shrink_sensitive, vec![3, 4]);
        assert_eq!(plan.ops.len(), 5);
        assert_eq!(plan.ops[0], ColumnOp::Key);
    }

    #[test]
    fn hidden_counter_appended_to_plan_ops() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of("select faid, sum(qty) as s from trans group by faid", &cat);
        let m = analyze_ast(&g, &cat);
        assert!(m.hidden_counter);
        assert_eq!(m.exec_graph.boxed(m.exec_graph.root).outputs.len(), 3);
        let plan = m.plan_for("trans").unwrap();
        assert_eq!(plan.ops.len(), 3);
        assert_eq!(plan.counter, Some(2));
        verify_maintenance(&m.exec_graph, &plan, &cat).unwrap();
    }

    #[test]
    fn non_maintainable_shapes_are_refresh_only() {
        let cat = Catalog::credit_card_sample();
        for sql in [
            "select faid, count(*) as c from trans group by faid having count(*) > 1",
            "select count(*) as c from trans",
            "select faid, count(distinct flid) as c from trans group by faid",
            "select faid, count(*) as c, (select count(*) from trans) as t \
             from trans group by faid",
            "select tid, qty from trans",
        ] {
            let g = graph_of(sql, &cat);
            let m = analyze_ast(&g, &cat);
            assert!(m.plan_for("trans").is_none(), "should be rejected: {sql}");
            assert!(
                !m.reports["trans"].obstructions.is_empty(),
                "rejection must carry an obstruction: {sql}"
            );
        }
        // Non-linear: self join on the maintained table.
        let g = graph_of(
            "select t1.faid as f, count(*) as c from trans as t1, trans as t2 \
             where t1.faid = t2.faid group by t1.faid",
            &cat,
        );
        assert!(analyze_ast(&g, &cat).plan_for("trans").is_none());
        // Linear in trans, joined dimension is fine — and maintainable with
        // respect to both tables.
        let g = graph_of(
            "select state, count(*) as c from trans, loc where flid = lid group by state",
            &cat,
        );
        let m = analyze_ast(&g, &cat);
        assert!(m.plan_for("trans").is_some());
        assert!(m.plan_for("loc").is_some());
    }

    #[test]
    fn verify_rejects_drifted_plans() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of("select faid, count(*) as c from trans group by faid", &cat);
        let m = analyze_ast(&g, &cat);
        let mut plan = m.plan_for("trans").unwrap();
        plan.ops.push(ColumnOp::Key);
        assert!(verify_maintenance(&m.exec_graph, &plan, &cat).is_err());
        let mut plan2 = m.plan_for("trans").unwrap();
        plan2.counter = None;
        assert!(verify_maintenance(&m.exec_graph, &plan2, &cat).is_err());
    }
}
