//! Self-maintainability static analysis: which maintenance strategy is
//! sound for a given (AST definition graph, base table) pair?
//!
//! The paper defers AST maintenance to related work (problem (c),
//! Mumick/Quass/Mumick SIGMOD'97); Cohen & Nutt characterize which
//! aggregates are self-maintainable under which operations. This module
//! turns that characterization into a static analysis over QGM, in the
//! spirit of the plan verifier: a pure function of the graph and catalog,
//! computed once at registration time, whose result is a typed
//! *certificate* that the maintenance engine executes.
//!
//! ## The strategy lattice
//!
//! Two strategies, strongest first:
//!
//! 1. [`MaintStrategy::CountingDelta`] — inserts *and* deletes (and thus
//!    updates, as delete + insert) maintain the AST from signed deltas. A
//!    per-group row count (an existing `COUNT(*)`-equivalent output, or a
//!    hidden injected one — see [`augment_with_count`]) tells the engine
//!    when a group's last row disappears so the group itself can be
//!    dropped. `COUNT`/`SUM` adjust by signed deltas; `MIN`/`MAX` are
//!    *shrink-sensitive*: a delete that removes the current extremum
//!    cannot be repaired from the delta alone and forces a recompute.
//! 2. [`MaintStrategy::RefreshOnly`] — every mutation recomputes.
//!
//! Every downgrade from the top of the lattice is explained by a typed
//! [`Obstruction`] naming the offending box, so EXPLAIN can show *why* an
//! AST is refresh-only.
//!
//! ## Soundness rules
//!
//! Counting-delta needs linearity in the mutated table, the
//! `SELECT ← GROUP BY` shape over an aggregation-free subgraph, no
//! HAVING/DISTINCT/scalar subqueries and a plain projection.
//! Within that shape:
//!
//! * **One merge key**: the whole grouping tuple, NULL-padded per cuboid.
//!   Every grouping column must be projected, or groups that differ only
//!   in the missing one would share a key. Grouping sets (CUBE, ROLLUP)
//!   need no other rule than non-nullable grouping columns, so that a NULL
//!   key cell means padding; the delta runs the same `gs(...)` aggregation
//!   and each delta row merges into its own cuboid's row. A grand total is
//!   the cuboid with the empty key.
//! * **Group liveness**: a per-group count of *all* rows, so a group is
//!   dropped exactly when it empties — except the grand total, which
//!   survives at count 0 as the row aggregation emits over no input.
//!   `COUNT(*)` qualifies, as does `COUNT(c)` over a non-nullable `c`;
//!   otherwise the engine injects a hidden `COUNT(*)` column.
//! * **Nullable `SUM`**: `stored − delta` alone cannot reproduce the
//!   transition back to `SUM = NULL` when the last non-NULL contributor
//!   leaves a surviving group. Each `SUM(c)` over a nullable `c`
//!   ([`ColumnOp::Sum`] records it) therefore gets a hidden `COUNT(c)`
//!   column; the engine sets the sum to NULL when that count reaches zero.
//! * **`MIN`/`MAX` shrink detection**: subtraction does not exist for
//!   extrema. They stay under [`MaintStrategy::CountingDelta`] but are
//!   marked in [`MaintainabilityReport::shrink_sensitive`]; the engine
//!   must recompute when a delete's extremum ties or beats the stored one.

use crate::expr::ScalarExpr;
use crate::graph::{BoxId, BoxKind, OutputCol, QgmGraph, QuantKind};
use crate::types::infer_output_types;
use crate::verify::box_path;
use sumtab_catalog::Catalog;
use sumtab_parser::AggFunc;

/// Name of the hidden per-group row counter injected by
/// [`augment_with_count`] (a hidden `COUNT(c)` is named after it and its
/// `SUM`). Hidden columns exist only in backing-table *rows* (never in the
/// catalog schema), so they are invisible to queries and to the matcher.
pub const HIDDEN_COUNT_NAME: &str = "__sumtab_rows";

/// The maintenance-strategy lattice, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MaintStrategy {
    /// Signed-delta maintenance for inserts, deletes, and updates, with a
    /// per-group liveness counter.
    CountingDelta,
    /// Every mutation triggers a full recomputation.
    RefreshOnly,
}

impl std::fmt::Display for MaintStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MaintStrategy::CountingDelta => "counting-delta",
            MaintStrategy::RefreshOnly => "refresh-only",
        })
    }
}

/// How one backing-table column behaves under delta maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnOp {
    /// Grouping column: part of the merge key, never modified.
    Key,
    /// Non-DISTINCT `COUNT`: adds on insert, subtracts on delete.
    /// `counter_eligible` marks counts of *every* row (`COUNT(*)` or a
    /// non-nullable argument), usable as the group-liveness counter.
    Count {
        /// Counts every input row, so zero means the group is gone.
        counter_eligible: bool,
    },
    /// Non-DISTINCT `SUM`: adds on insert, subtracts on delete. A nullable
    /// argument gets a hidden `COUNT` of it that says when the sum returns
    /// to NULL (see module docs).
    Sum {
        /// The argument can be NULL.
        nullable: bool,
    },
    /// `MIN`: extremum merge on insert; shrink-sensitive under delete.
    Min,
    /// `MAX`: extremum merge on insert; shrink-sensitive under delete.
    Max,
}

/// Why a strategy is weaker than [`MaintStrategy::CountingDelta`] (or why a
/// column is marked recompute-on-shrink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObstructionKind {
    /// The table is not read by the definition at all.
    TableNotRead,
    /// The table occurs more than once (self-join): a delta query over the
    /// changed rows alone does not compute the AST's change.
    NonLinear,
    /// The definition is not `SELECT ← GROUP BY` at the root (pure SPJ,
    /// nested aggregation, or non-Foreach root quantifier).
    NoAggregationRoot,
    /// A predicate sits above the aggregation (HAVING): merged groups may
    /// enter or leave the filter, which delta merging cannot express.
    PostAggregationPredicate,
    /// Grouping sets over a nullable grouping column: a NULL in the data
    /// cannot be told from the NULL that pads the column out of a cuboid.
    GroupingSets,
    /// A scalar subquery appears somewhere; its value changes with the
    /// mutation.
    ScalarSubquery,
    /// A DISTINCT aggregate: per-group distinct sets are not stored.
    DistinctAggregate,
    /// An `AVG` survived to this point; the builder lowers `AVG` to
    /// `SUM`/`COUNT`, so this indicates an unnormalized graph.
    UnloweredAverage,
    /// An output is not a plain grouping column or supported aggregate.
    NonMaintainableExpression,
    /// A grouping column is not projected, so the backing rows do not hold
    /// the whole merge key.
    NoGroupingColumn,
    /// `MIN`/`MAX` under delete: kept under counting-delta, but the engine
    /// must recompute when a delete removes the stored extremum.
    ShrinkSensitiveExtremum,
}

impl std::fmt::Display for ObstructionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObstructionKind::TableNotRead => "table-not-read",
            ObstructionKind::NonLinear => "non-linear",
            ObstructionKind::NoAggregationRoot => "no-aggregation-root",
            ObstructionKind::PostAggregationPredicate => "post-aggregation-predicate",
            ObstructionKind::GroupingSets => "grouping-sets",
            ObstructionKind::ScalarSubquery => "scalar-subquery",
            ObstructionKind::DistinctAggregate => "distinct-aggregate",
            ObstructionKind::UnloweredAverage => "unlowered-average",
            ObstructionKind::NonMaintainableExpression => "non-maintainable-expression",
            ObstructionKind::NoGroupingColumn => "no-grouping-column",
            ObstructionKind::ShrinkSensitiveExtremum => "shrink-sensitive-extremum",
        })
    }
}

/// One reason the analysis settled below the top of the lattice, attributed
/// to a box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obstruction {
    /// The offending box.
    pub box_id: BoxId,
    /// Root-relative location, e.g. `root/b1(group-by)`.
    pub path: String,
    /// The typed reason.
    pub reason: ObstructionKind,
    /// Free-text detail (column names, occurrence counts).
    pub detail: String,
}

impl std::fmt::Display for Obstruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}: {}", self.reason, self.path, self.detail)
    }
}

/// The analysis certificate for one (definition graph, base table) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintainabilityReport {
    /// The table the analysis is relative to (lower-cased).
    pub table: String,
    /// The strongest sound strategy.
    pub strategy: MaintStrategy,
    /// One op per root output column; empty for
    /// [`MaintStrategy::RefreshOnly`].
    pub per_column_ops: Vec<ColumnOp>,
    /// Ordinal of an existing counter-eligible `COUNT` output, when one is
    /// projected; `None` under counting-delta means [`augment_with_count`]
    /// must inject a hidden one.
    pub counter: Option<usize>,
    /// Ordinals of `MIN`/`MAX` columns (recompute-on-shrink under delete).
    pub shrink_sensitive: Vec<usize>,
    /// Every downgrade, attributed and typed.
    pub obstructions: Vec<Obstruction>,
}

fn obstruction(
    g: &QgmGraph,
    b: BoxId,
    reason: ObstructionKind,
    detail: impl Into<String>,
) -> Obstruction {
    Obstruction {
        box_id: b,
        path: box_path(g, b),
        reason,
        detail: detail.into(),
    }
}

/// Analyze the definition graph of an AST with respect to mutations on
/// `table`. Total: always returns a report, with the downgrade reasons in
/// [`MaintainabilityReport::obstructions`] when the strategy is not
/// [`MaintStrategy::CountingDelta`].
pub fn analyze(graph: &QgmGraph, table: &str, catalog: &Catalog) -> MaintainabilityReport {
    let table_lc = table.to_ascii_lowercase();
    // Every refusal names one box and its typed reason.
    let refuse = |b: BoxId, reason: ObstructionKind, detail: String| MaintainabilityReport {
        table: table_lc.clone(),
        strategy: MaintStrategy::RefreshOnly,
        per_column_ops: Vec::new(),
        counter: None,
        shrink_sensitive: Vec::new(),
        obstructions: vec![obstruction(graph, b, reason, detail)],
    };

    // Linearity: the mutated table must occur exactly once, otherwise the
    // delta query over the changed rows alone does not compute the change
    // of the join (a self-join mixes old and delta rows).
    let occurrences: Vec<BoxId> = graph
        .topo_order()
        .into_iter()
        .filter(|&b| {
            matches!(&graph.boxed(b).kind,
                     BoxKind::BaseTable { table: t } if t.eq_ignore_ascii_case(&table_lc))
        })
        .collect();
    match occurrences.len() {
        0 => {
            return refuse(
                graph.root,
                ObstructionKind::TableNotRead,
                format!("definition never reads `{table_lc}`"),
            )
        }
        1 => {}
        n => {
            return refuse(
                occurrences[1],
                ObstructionKind::NonLinear,
                format!("`{table_lc}` occurs {n} times (self-join)"),
            )
        }
    }

    // Scalar subqueries anywhere poison every delta strategy: their value
    // can change with the mutation while the delta query sees only delta
    // rows.
    if let Some(q) = graph.quants.iter().find(|q| q.kind == QuantKind::Scalar) {
        return refuse(
            q.owner,
            ObstructionKind::ScalarSubquery,
            "scalar subquery value changes with the base data".into(),
        );
    }

    // Shape: root SELECT (pure projection, no predicates) over one GROUP BY.
    let root = graph.boxed(graph.root);
    let Some(sel) = root.as_select() else {
        return refuse(
            graph.root,
            ObstructionKind::NoAggregationRoot,
            "root box is not a SELECT over a GROUP BY".into(),
        );
    };
    if root.quants.len() != 1 || graph.quant(root.quants[0]).kind != QuantKind::Foreach {
        return refuse(
            graph.root,
            ObstructionKind::NoAggregationRoot,
            "root must range over exactly one FOREACH quantifier".into(),
        );
    }
    let root_q = root.quants[0];
    let gb_id = graph.input_of(root_q);
    let gb = graph.boxed(gb_id);
    let Some(gbk) = gb.as_group_by() else {
        return refuse(
            gb_id,
            ObstructionKind::NoAggregationRoot,
            "root SELECT does not consume a GROUP BY box".into(),
        );
    };
    // Only now is a root predicate a HAVING: over anything but a GROUP BY
    // it is a plain WHERE, and the shape checks above name the obstruction.
    if !sel.predicates.is_empty() {
        return refuse(
            graph.root,
            ObstructionKind::PostAggregationPredicate,
            format!(
                "{} predicate(s) above the aggregation (HAVING)",
                sel.predicates.len()
            ),
        );
    }
    // Nested aggregation: aggregating only the delta rows through an inner
    // GROUP BY yields inner groups *of the delta*, not the inner groups the
    // mutation changed, so the outer merge would count the wrong things.
    // (The root consumes only `gb`, so every other reachable GROUP BY lies
    // below it.)
    let inner_gb = graph
        .topo_order()
        .into_iter()
        .rev()
        .find(|&b| b != gb_id && graph.boxed(b).is_group_by());
    if let Some(inner) = inner_gb {
        return refuse(
            inner,
            ObstructionKind::NoAggregationRoot,
            "nested aggregation: a GROUP BY below the root GROUP BY".into(),
        );
    }
    // Nullability of grouping items and aggregate arguments (for COUNT
    // counter-eligibility and SUM's hidden count) comes from type inference
    // over the GROUP BY's input box.
    let metas = infer_output_types(graph, catalog);
    let arg_nullable = |arg: Option<crate::expr::ColRef>| -> bool {
        match arg {
            None => false, // COUNT(*): no argument to be NULL
            Some(c) => {
                let producer = graph.input_of(c.qid);
                metas
                    .get(&producer)
                    .and_then(|m| m.get(c.ordinal))
                    .map(|m| m.nullable)
                    // Unknown metadata: assume nullable (conservative).
                    .unwrap_or(true)
            }
        }
    };
    let item_name =
        |c: crate::expr::ColRef| &graph.boxed(graph.input_of(c.qid)).outputs[c.ordinal].name;

    // The merge key is the whole grouping tuple, NULL-padded per cuboid.
    // Over several grouping sets a NULL key cell must mean "not in this
    // cuboid", so no grouping column may be NULL itself. (Read from the
    // item's input column: the padding makes every GROUP BY output
    // nullable.)
    if let Some(item) = gbk
        .items
        .iter()
        .find(|&&i| !gbk.is_simple() && arg_nullable(Some(i)))
    {
        return refuse(
            gb_id,
            ObstructionKind::GroupingSets,
            format!(
                "grouping column `{}` is nullable: its NULL would merge into \
                 another cuboid's padded key",
                item_name(*item)
            ),
        );
    }

    // Per-column ops: every root output must be a plain reference to a
    // GROUP BY output that is either a grouping column or a supported,
    // non-DISTINCT aggregate.
    let mut keys = Vec::new();
    let mut ops: Vec<ColumnOp> = Vec::with_capacity(root.outputs.len());
    for oc in &root.outputs {
        let ScalarExpr::Col(c) = &oc.expr else {
            return refuse(
                graph.root,
                ObstructionKind::NonMaintainableExpression,
                format!("output `{}` is not a plain column reference", oc.name),
            );
        };
        if c.qid != root_q || c.ordinal >= gb.outputs.len() {
            return refuse(
                graph.root,
                ObstructionKind::NonMaintainableExpression,
                format!("output `{}` does not reference the GROUP BY box", oc.name),
            );
        }
        let op = match &gb.outputs[c.ordinal].expr {
            ScalarExpr::Col(item) => {
                keys.push(*item);
                ColumnOp::Key
            }
            ScalarExpr::Agg(a) => {
                if a.distinct {
                    return refuse(
                        gb_id,
                        ObstructionKind::DistinctAggregate,
                        format!("DISTINCT aggregate `{}`", oc.name),
                    );
                }
                match a.func {
                    AggFunc::Count => ColumnOp::Count {
                        counter_eligible: !arg_nullable(a.arg),
                    },
                    AggFunc::Sum => ColumnOp::Sum {
                        nullable: arg_nullable(a.arg),
                    },
                    AggFunc::Min => ColumnOp::Min,
                    AggFunc::Max => ColumnOp::Max,
                    AggFunc::Avg => {
                        return refuse(
                            gb_id,
                            ObstructionKind::UnloweredAverage,
                            format!("AVG `{}` should have been lowered to SUM/COUNT", oc.name),
                        );
                    }
                }
            }
            _ => {
                return refuse(
                    gb_id,
                    ObstructionKind::NonMaintainableExpression,
                    format!(
                        "GROUP BY output `{}` is neither a grouping column \
                         nor a simple aggregate",
                        gb.outputs[c.ordinal].name
                    ),
                );
            }
        };
        ops.push(op);
    }
    if let Some(item) = gbk.items.iter().find(|i| !keys.contains(i)) {
        return refuse(
            graph.root,
            ObstructionKind::NoGroupingColumn,
            format!(
                "grouping column `{}` is not projected; groups that differ only \
                 in it would share one merge key",
                item_name(*item)
            ),
        );
    }

    // Counting-delta is certified; MIN/MAX only carry an advisory.
    let mut obstructions = Vec::new();
    let mut shrink_sensitive = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, ColumnOp::Min | ColumnOp::Max) {
            shrink_sensitive.push(i);
            obstructions.push(obstruction(
                graph,
                gb_id,
                ObstructionKind::ShrinkSensitiveExtremum,
                format!(
                    "`{}` is recompute-on-shrink: a delete removing the stored \
                     extremum forces a refresh",
                    root.outputs[i].name
                ),
            ));
        }
    }
    let counter = ops.iter().position(|op| {
        matches!(
            op,
            ColumnOp::Count {
                counter_eligible: true
            }
        )
    });

    MaintainabilityReport {
        table: table_lc,
        strategy: MaintStrategy::CountingDelta,
        per_column_ops: ops,
        counter,
        shrink_sensitive,
        obstructions,
    }
}

/// Clone `graph` and append a hidden count to its GROUP BY box and root
/// SELECT: `COUNT(*)` (named [`HIDDEN_COUNT_NAME`]) when `sum` is `None`,
/// else the `COUNT(arg)` of the `SUM(arg)` at root output ordinal `sum`.
/// The hidden column lands at ordinal `graph.root outputs.len()` — the
/// engine stores it as an extra trailing value in backing-table rows
/// without registering it in the catalog schema, so it stays invisible to
/// queries and matching.
///
/// Returns `None` when the graph does not have the `SELECT ← GROUP BY`
/// shape, or `sum` does not name an aggregate output (callers should only
/// invoke this on graphs the analyzer certified).
pub fn augment_with_count(graph: &QgmGraph, sum: Option<usize>) -> Option<QgmGraph> {
    let mut g = graph.clone();
    let root = g.root;
    let root_q = *g.boxed(root).quants.first()?;
    if !g.boxed(root).is_select() || g.boxed(root).quants.len() != 1 {
        return None;
    }
    let gb_id = g.input_of(root_q);
    if !g.boxed(gb_id).is_group_by() {
        return None;
    }
    let (name, arg) = match sum {
        None => (HIDDEN_COUNT_NAME.to_string(), None),
        Some(s) => {
            let out = g.boxed(root).outputs.get(s)?;
            let ScalarExpr::Col(c) = &out.expr else {
                return None;
            };
            let ScalarExpr::Agg(a) = &g.boxed(gb_id).outputs.get(c.ordinal)?.expr else {
                return None;
            };
            (format!("{HIDDEN_COUNT_NAME}_{}", out.name), a.arg)
        }
    };
    let gb_ord = g.boxed(gb_id).outputs.len();
    // The GROUP BY layout invariant (grouping columns first, aggregates
    // after) makes appending at the end safe.
    g.boxed_mut(gb_id).outputs.push(OutputCol {
        name: name.clone(),
        expr: ScalarExpr::Agg(crate::expr::AggCall {
            func: AggFunc::Count,
            arg,
            distinct: false,
        }),
    });
    g.boxed_mut(root).outputs.push(OutputCol {
        name,
        expr: ScalarExpr::col(root_q, gb_ord),
    });
    Some(g)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use crate::build_query;
    use sumtab_parser::parse_query;

    fn graph_of(sql: &str, cat: &Catalog) -> QgmGraph {
        build_query(&parse_query(sql).unwrap(), cat).unwrap()
    }

    #[test]
    fn counting_delta_for_count_star_and_non_nullable_sum() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select faid, count(*) as c, sum(qty) as s from trans group by faid",
            &cat,
        );
        let r = analyze(&g, "trans", &cat);
        assert_eq!(r.strategy, MaintStrategy::CountingDelta);
        assert_eq!(r.counter, Some(1));
        assert!(r.obstructions.is_empty(), "{:?}", r.obstructions);
        assert_eq!(
            r.per_column_ops,
            vec![
                ColumnOp::Key,
                ColumnOp::Count {
                    counter_eligible: true
                },
                ColumnOp::Sum { nullable: false },
            ]
        );
    }

    #[test]
    fn hidden_counter_requested_without_count_star() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of("select faid, sum(qty) as s from trans group by faid", &cat);
        let r = analyze(&g, "trans", &cat);
        assert_eq!(r.strategy, MaintStrategy::CountingDelta);
        assert_eq!(r.counter, None);
        let aug = augment_with_count(&g, None).unwrap();
        aug.validate();
        assert_eq!(aug.boxed(aug.root).outputs.len(), 3);
        assert_eq!(aug.boxed(aug.root).outputs[2].name, HIDDEN_COUNT_NAME);
    }

    /// A SUM over a nullable argument stays counting-delta; its hidden
    /// `COUNT(arg)` counts the same argument.
    #[test]
    fn nullable_sum_is_counting_delta_with_a_hidden_count_of_its_argument() {
        use sumtab_catalog::{Column, SqlType, Table};
        let mut cat = Catalog::new();
        let cols = vec![
            Column::new("k", SqlType::Int),
            Column::nullable("v", SqlType::Int),
        ];
        cat.add_table(Table::new("n", cols)).unwrap();
        let g = graph_of(
            "select k, sum(v) as sv, count(*) as c from n group by k",
            &cat,
        );
        let r = analyze(&g, "n", &cat);
        assert_eq!(r.strategy, MaintStrategy::CountingDelta);
        assert_eq!(r.per_column_ops[1], ColumnOp::Sum { nullable: true });
        assert!(r.obstructions.is_empty(), "{:?}", r.obstructions);
        assert!(
            augment_with_count(&g, Some(0)).is_none(),
            "a key is no aggregate"
        );
        let aug = augment_with_count(&g, Some(1)).unwrap();
        aug.validate();
        let root = aug.boxed(aug.root);
        assert_eq!(root.outputs[3].name, format!("{HIDDEN_COUNT_NAME}_sv"));
        let gb = aug.boxed(aug.input_of(root.quants[0]));
        let (ScalarExpr::Agg(sum), ScalarExpr::Agg(count)) =
            (&gb.outputs[1].expr, &gb.outputs.last().unwrap().expr)
        else {
            panic!("{:?}", gb.outputs);
        };
        assert_eq!((count.func, count.arg), (AggFunc::Count, sum.arg));
    }

    #[test]
    fn min_max_are_shrink_sensitive_not_blocking() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select faid, count(*) as c, min(price) as mn, max(price) as mx \
             from trans group by faid",
            &cat,
        );
        let r = analyze(&g, "trans", &cat);
        assert_eq!(r.strategy, MaintStrategy::CountingDelta);
        assert_eq!(r.shrink_sensitive, vec![2, 3]);
        assert!(r
            .obstructions
            .iter()
            .all(|o| o.reason == ObstructionKind::ShrinkSensitiveExtremum));
    }

    #[test]
    fn having_blocks_with_typed_obstruction_at_root() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select faid, count(*) as c from trans group by faid having count(*) > 1",
            &cat,
        );
        let r = analyze(&g, "trans", &cat);
        assert_eq!(r.strategy, MaintStrategy::RefreshOnly);
        let o = &r.obstructions[0];
        assert_eq!(o.reason, ObstructionKind::PostAggregationPredicate);
        assert_eq!(o.box_id, g.root);
        assert!(o.path.contains("root"), "{}", o.path);
    }

    /// The paper's SPJ AST2 (Figure 5) has no aggregation: its WHERE is not
    /// a HAVING, so every table it reads reports the missing GROUP BY.
    #[test]
    fn spj_root_reports_no_aggregation_not_having() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select tid, faid, fpgid, status, country, price, qty, disc, \
             qty * price as value \
             from trans, loc, acct where lid = flid and faid = aid and disc > 0.1",
            &cat,
        );
        for table in ["trans", "loc", "acct"] {
            let r = analyze(&g, table, &cat);
            assert_eq!(r.strategy, MaintStrategy::RefreshOnly, "{table}");
            assert_eq!(r.obstructions.len(), 1, "{table}");
            let o = &r.obstructions[0];
            assert_eq!(o.reason, ObstructionKind::NoAggregationRoot, "{table}");
            assert_eq!(o.box_id, g.root, "{table}");
        }
    }

    #[test]
    fn self_join_blocks_as_non_linear() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select t1.faid as f, count(*) as c from trans as t1, trans as t2 \
             where t1.faid = t2.faid group by t1.faid",
            &cat,
        );
        let r = analyze(&g, "trans", &cat);
        assert_eq!(r.strategy, MaintStrategy::RefreshOnly);
        assert_eq!(r.obstructions[0].reason, ObstructionKind::NonLinear);
    }
}
