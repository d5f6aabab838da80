//! A syntactic single-block baseline matcher, modeled on the prior work the
//! paper compares against (its reference \[6\], Gupta/Harinarayan/Quass, VLDB 1995).
//!
//! The baseline handles only queries and ASTs that are **single block**
//! (`SELECT ... FROM base tables WHERE ... GROUP BY ... `) and whose columns
//! are **simple base-table columns**:
//!
//! * the FROM table multisets must be identical (no rejoins, no extra
//!   AST tables — the baseline knows nothing about RI constraints);
//! * the WHERE predicate sets must be syntactically identical (no predicate
//!   compensation, no subsumption, no semantic translation);
//! * every query grouping column must be an AST grouping column (coarser
//!   re-grouping is supported — that much was state of the art);
//! * every query aggregate must be re-derivable in the GHQ style:
//!   `COUNT(*)→SUM(cnt)`, `SUM(c)→SUM(sum_c)`, `MIN/MAX(c)→MIN/MAX(m_c)`,
//!   with arguments that are simple base columns;
//! * no HAVING, no subqueries, no grouping sets, no expressions in the
//!   SELECT or GROUP BY lists.
//!
//! The coverage experiment (EXPERIMENTS.md, E-P2) runs this baseline against
//! the full example suite to quantify the paper's contribution claims 1–3.

use std::collections::BTreeMap;
use sumtab_qgm::{AggFunc, BoxKind, ColRef, QgmGraph, QuantKind, ScalarExpr};

/// A column identified by (table name, occurrence index, column ordinal) —
/// the baseline's world view.
type BaseCol = (String, usize, usize);

/// The normalized single-block shape the baseline can reason about.
#[derive(Debug)]
pub struct SingleBlock {
    /// FROM tables in occurrence order.
    pub tables: Vec<String>,
    /// Normalized predicate strings.
    pub predicates: Vec<String>,
    /// Grouping columns (empty for pure SPJ blocks — those are accepted
    /// only when the AST is also SPJ with identical shape).
    pub grouping: Vec<BaseCol>,
    /// Aggregates: (function, argument column or None for `COUNT(*)`).
    pub aggregates: Vec<(AggFunc, Option<BaseCol>)>,
    /// Projected plain columns (must be grouping columns when grouped).
    pub projected: Vec<BaseCol>,
}

/// Extract the single-block shape, or `None` when the graph is outside the
/// baseline's domain (multi-block, expressions, subqueries, cubes, ...).
fn single_block(g: &QgmGraph) -> Option<SingleBlock> {
    // Accept exactly Select ← [GroupBy ← Select] ← base tables.
    let root = g.boxed(g.root);
    if !root.is_select() {
        return None;
    }
    let (gb, lower) = {
        if root.quants.len() != 1 {
            // A plain SPJ block: treat the root itself as lower.
            (None, g.root)
        } else {
            let child = g.input_of(root.quants[0]);
            match &g.boxed(child).kind {
                BoxKind::GroupBy(gbx) => {
                    if gbx.sets.len() != 1 || gbx.sets[0].len() != gbx.items.len() {
                        return None; // grouping sets are out of scope
                    }
                    if g.boxed(child).quants.len() != 1 {
                        return None;
                    }
                    let lower = g.input_of(g.boxed(child).quants[0]);
                    (Some(child), lower)
                }
                BoxKind::Select(_) | BoxKind::BaseTable { .. } => (None, g.root),
                _ => return None,
            }
        }
    };
    // No HAVING for aggregated blocks.
    if gb.is_some() && !root.as_select()?.predicates.is_empty() {
        return None;
    }
    let lower_box = g.boxed(lower);
    if !lower_box.is_select() {
        return None;
    }

    // FROM: base tables only, no scalar quantifiers.
    let mut tables = Vec::new();
    let mut table_of_quant: BTreeMap<u32, (String, usize)> = BTreeMap::new();
    for &q in &lower_box.quants {
        if g.quant(q).kind != QuantKind::Foreach {
            return None;
        }
        match &g.boxed(g.input_of(q)).kind {
            BoxKind::BaseTable { table } => {
                let occurrence = tables.iter().filter(|t| *t == table).count();
                table_of_quant.insert(q.idx, (table.clone(), occurrence));
                tables.push(table.clone());
            }
            _ => return None,
        }
    }
    let base_col = |c: ColRef| -> Option<BaseCol> {
        let (t, occ) = table_of_quant.get(&c.qid.idx)?;
        Some((t.clone(), *occ, c.ordinal))
    };
    let simple_col = |e: &ScalarExpr| -> Option<BaseCol> {
        match e {
            ScalarExpr::Col(c) => base_col(*c),
            _ => None,
        }
    };

    // Predicates: normalized syntactic form with columns rendered as
    // (table, occurrence, ordinal) so alias names do not matter.
    let mut predicates = Vec::new();
    for p in &lower_box.as_select()?.predicates {
        let mut ok = true;
        let rendered = p.normalize().map_cols(&mut |c| match base_col(c) {
            Some((t, o, ord)) => ScalarExpr::Like {
                expr: Box::new(ScalarExpr::Lit(format!("{t}#{o}.{ord}").into())),
                pattern: String::new(),
                negated: false,
            },
            None => {
                ok = false;
                ScalarExpr::Col(c)
            }
        });
        if !ok {
            return None;
        }
        predicates.push(format!("{rendered:?}"));
    }
    predicates.sort();

    // Grouping, aggregates, projection.
    let mut grouping = Vec::new();
    let mut aggregates = Vec::new();
    let mut projected = Vec::new();
    match gb {
        Some(gbid) => {
            let gbx = g.boxed(gbid);
            let gbk = gbx.as_group_by()?;
            for item in &gbk.items {
                // The lower select must pass the column through unchanged.
                let lower_expr = &lower_box.outputs[item.ordinal].expr;
                grouping.push(simple_col(lower_expr)?);
            }
            for oc in &gbx.outputs[gbk.items.len()..] {
                let ScalarExpr::Agg(a) = &oc.expr else {
                    return None;
                };
                if a.distinct {
                    return None;
                }
                let arg = match a.arg {
                    None => None,
                    Some(c) => Some(simple_col(&lower_box.outputs[c.ordinal].expr)?),
                };
                aggregates.push((a.func, arg));
            }
            // Root select must project grouping columns / aggregates only.
            for oc in &root.outputs {
                match &oc.expr {
                    ScalarExpr::Col(c) => {
                        if c.ordinal < gbk.items.len() {
                            projected.push(grouping[c.ordinal].clone());
                        }
                        // Aggregate projections are implied by `aggregates`.
                    }
                    _ => return None,
                }
            }
        }
        None => {
            for oc in &lower_box.outputs {
                projected.push(simple_col(&oc.expr)?);
            }
        }
    }
    Some(SingleBlock {
        tables,
        predicates,
        grouping,
        aggregates,
        projected,
    })
}

/// Can the baseline rewrite `query` using `ast`? (Pure decision — the
/// baseline's value in this repository is quantifying coverage.)
pub fn baseline_matches(query: &QgmGraph, ast: &QgmGraph) -> bool {
    let (Some(q), Some(a)) = (single_block(query), single_block(ast)) else {
        return false;
    };
    // Identical table multisets.
    let mut qt = q.tables.clone();
    let mut at = a.tables.clone();
    qt.sort();
    at.sort();
    if qt != at {
        return false;
    }
    // Identical predicate sets (syntactic).
    if q.predicates != a.predicates {
        return false;
    }
    // Grouping containment.
    if !q.grouping.iter().all(|c| a.grouping.contains(c)) {
        return false;
    }
    // SPJ-only blocks: projection containment.
    if q.grouping.is_empty() && q.aggregates.is_empty() {
        return a.grouping.is_empty()
            && a.aggregates.is_empty()
            && q.projected.iter().all(|c| a.projected.contains(c));
    }
    // Aggregate re-derivability in the GHQ style.
    let has_count = a
        .aggregates
        .iter()
        .any(|(f, arg)| *f == AggFunc::Count && arg.is_none());
    q.aggregates.iter().all(|(f, arg)| match (f, arg) {
        (AggFunc::Count, None) => has_count,
        (AggFunc::Sum, Some(c)) => {
            a.aggregates
                .iter()
                .any(|(af, aa)| *af == AggFunc::Sum && aa.as_ref() == Some(c))
                || (a.grouping.contains(c) && has_count)
        }
        (AggFunc::Min, Some(c)) => {
            a.aggregates
                .iter()
                .any(|(af, aa)| *af == AggFunc::Min && aa.as_ref() == Some(c))
                || a.grouping.contains(c)
        }
        (AggFunc::Max, Some(c)) => {
            a.aggregates
                .iter()
                .any(|(af, aa)| *af == AggFunc::Max && aa.as_ref() == Some(c))
                || a.grouping.contains(c)
        }
        (AggFunc::Count, Some(c)) => a
            .aggregates
            .iter()
            .any(|(af, aa)| *af == AggFunc::Count && aa.as_ref() == Some(c)),
        _ => false,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;
    use sumtab_qgm::build_query;

    fn g(sql: &str) -> QgmGraph {
        let cat = Catalog::credit_card_sample();
        build_query(&parse_query(sql).unwrap(), &cat).unwrap()
    }

    #[test]
    fn simple_regrouping_is_covered() {
        let q = g("select faid, count(*) as c from trans group by faid");
        let a = g("select faid, flid, count(*) as c from trans group by faid, flid");
        assert!(baseline_matches(&q, &a));
    }

    #[test]
    fn predicate_mismatch_is_rejected() {
        let q = g("select faid, count(*) as c from trans where qty > 2 group by faid");
        let a = g("select faid, count(*) as c from trans group by faid");
        assert!(!baseline_matches(&q, &a), "no predicate compensation");
    }

    #[test]
    fn expressions_are_out_of_scope() {
        let q = g("select year(date) as y, count(*) as c from trans group by year(date)");
        let a = g("select year(date) as y, count(*) as c from trans group by year(date)");
        assert!(
            !baseline_matches(&q, &a),
            "grouping expressions exceed the baseline"
        );
    }

    #[test]
    fn multi_block_is_out_of_scope() {
        let q = g("select tcnt, count(*) as n from \
                   (select faid, count(*) as tcnt from trans group by faid) as v \
                   group by tcnt");
        let a = g("select faid, count(*) as tcnt from trans group by faid");
        assert!(!baseline_matches(&q, &a));
    }

    #[test]
    fn rejoins_are_out_of_scope() {
        let q = g("select state, count(*) as c from trans, loc where flid = lid group by state");
        let a = g("select flid, count(*) as c from trans group by flid");
        assert!(!baseline_matches(&q, &a), "different table sets");
    }

    #[test]
    fn sum_via_grouping_column_works() {
        let q = g("select faid, sum(qty) as s from trans group by faid");
        let a = g("select faid, qty, count(*) as c from trans group by faid, qty");
        assert!(baseline_matches(&q, &a), "SUM(qty) = SUM(qty * cnt)");
    }

    #[test]
    fn spj_projection_containment() {
        let q = g("select tid from trans");
        let a = g("select tid, qty from trans");
        assert!(baseline_matches(&q, &a));
        let a2 = g("select qty from trans");
        assert!(!baseline_matches(&q, &a2));
    }
}
