//! QGM → SQL rendering.
//!
//! Produces executable SQL in the same dialect the parser accepts. Each
//! internal box renders as a `SELECT`; children render as derived tables.
//! HAVING predicates reappear as `WHERE` clauses over the grouped derived
//! table, which is equivalent. Used to display rewritten queries (the
//! `NewQ*` forms of the paper's figures) and for round-trip tests.

use crate::expr::{ColRef, ScalarExpr};
use crate::graph::{BoxId, BoxKind, QgmGraph, QuantId, QuantKind};
use sumtab_parser::{BinOp, UnOp};

/// Render the whole graph as a SQL query string.
pub fn render_graph_sql(g: &QgmGraph) -> String {
    let mut out = render_box(g, g.root);
    if !g.order.keys.is_empty() {
        let root = g.boxed(g.root);
        let keys: Vec<String> = g
            .order
            .keys
            .iter()
            .map(|&(ord, desc)| {
                format!(
                    "{}{}",
                    root.outputs[ord].name,
                    if desc { " DESC" } else { "" }
                )
            })
            .collect();
        // Wrap so ORDER BY refers to output names.
        out = format!("SELECT * FROM ({out}) AS q ORDER BY {}", keys.join(", "));
    }
    if let Some(n) = g.order.limit {
        out.push_str(&format!(" LIMIT {n}"));
    }
    out
}

/// Render one box as a complete `SELECT` statement.
fn render_box(g: &QgmGraph, b: BoxId) -> String {
    let bx = g.boxed(b);
    match &bx.kind {
        BoxKind::BaseTable { table } => {
            let cols: Vec<String> = bx.outputs.iter().map(|c| c.name.clone()).collect();
            format!("SELECT {} FROM {}", cols.join(", "), table)
        }
        BoxKind::SubsumerRef { .. } => "SELECT <subsumer>".to_string(),
        BoxKind::Select(sel) => {
            let mut s = String::from("SELECT ");
            if bx.outputs.is_empty() {
                s.push('1');
            }
            for (i, oc) in bx.outputs.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&render_expr(g, &oc.expr, 0));
                s.push_str(" AS ");
                s.push_str(&oc.name);
            }
            let from = render_from(g, b);
            if !from.is_empty() {
                s.push_str(" FROM ");
                s.push_str(&from);
            }
            if !sel.predicates.is_empty() {
                s.push_str(" WHERE ");
                let preds: Vec<String> = sel
                    .predicates
                    .iter()
                    .map(|p| render_expr(g, p, 3))
                    .collect();
                s.push_str(&preds.join(" AND "));
            }
            s
        }
        BoxKind::GroupBy(gb) => {
            let mut s = String::from("SELECT ");
            for (i, oc) in bx.outputs.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&render_expr(g, &oc.expr, 0));
                s.push_str(" AS ");
                s.push_str(&oc.name);
            }
            s.push_str(" FROM ");
            s.push_str(&render_from(g, b));
            if !gb.items.is_empty() || gb.sets.len() > 1 {
                s.push_str(" GROUP BY ");
                if gb.sets.len() == 1 && gb.sets[0].len() == gb.items.len() {
                    let cols: Vec<String> = gb.items.iter().map(|c| render_colref(g, *c)).collect();
                    s.push_str(&cols.join(", "));
                } else {
                    s.push_str("GROUPING SETS (");
                    for (i, set) in gb.sets.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        s.push('(');
                        let cols: Vec<String> = set
                            .iter()
                            .map(|&ix| render_colref(g, gb.items[ix]))
                            .collect();
                        s.push_str(&cols.join(", "));
                        s.push(')');
                    }
                    s.push(')');
                }
            }
            s
        }
    }
}

/// Render the FROM list for a box: each Foreach quantifier becomes a table
/// reference (base table name, or a parenthesized subquery).
fn render_from(g: &QgmGraph, b: BoxId) -> String {
    let bx = g.boxed(b);
    let mut parts = Vec::new();
    for (i, &q) in bx.quants.iter().enumerate() {
        let quant = g.quant(q);
        if quant.kind != QuantKind::Foreach {
            continue; // scalar subqueries render inline in expressions
        }
        let alias = quant_alias(g, q, i);
        match &g.boxed(quant.input).kind {
            BoxKind::BaseTable { table } => {
                if *table == alias {
                    parts.push(table.clone());
                } else {
                    parts.push(format!("{table} AS {alias}"));
                }
            }
            _ => parts.push(format!("({}) AS {}", render_box(g, quant.input), alias)),
        }
    }
    parts.join(", ")
}

/// A rendering alias for a quantifier, made unique within its owner box by
/// suffixing the quantifier index when names repeat.
fn quant_alias(g: &QgmGraph, q: QuantId, pos_in_owner: usize) -> String {
    let quant = g.quant(q);
    let owner = g.boxed(quant.owner);
    let dup = owner
        .quants
        .iter()
        .enumerate()
        .any(|(j, &other)| j != pos_in_owner && g.quant(other).name == quant.name);
    if dup {
        format!("{}_{}", quant.name, q.idx)
    } else {
        quant.name.clone()
    }
}

fn render_colref(g: &QgmGraph, c: ColRef) -> String {
    let quant = g.quant(c.qid);
    if quant.kind == QuantKind::Scalar {
        return format!("({})", render_box(g, quant.input));
    }
    let owner = g.boxed(quant.owner);
    let pos = owner
        .quants
        .iter()
        .position(|&x| x == c.qid)
        .unwrap_or(usize::MAX);
    let alias = quant_alias(g, c.qid, pos);
    let col = &g.boxed(quant.input).outputs[c.ordinal].name;
    format!("{alias}.{col}")
}

/// Precedence table mirroring the parser: OR=1, AND=2, NOT=3, cmp=4, add=5,
/// mul=6, unary=7.
fn prec_of(e: &ScalarExpr) -> u8 {
    match e {
        ScalarExpr::Bin(op, ..) => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        },
        ScalarExpr::Un(UnOp::Not, _) => 3,
        ScalarExpr::IsNull { .. } | ScalarExpr::Like { .. } => 4,
        ScalarExpr::Un(UnOp::Neg, _) => 7,
        _ => 10,
    }
}

/// Render an expression in the context of graph `g`.
pub fn render_expr(g: &QgmGraph, e: &ScalarExpr, parent_prec: u8) -> String {
    let my_prec = prec_of(e);
    let body = match e {
        ScalarExpr::BaseCol(i) => format!("<base:{i}>"),
        ScalarExpr::Col(c) => render_colref(g, *c),
        ScalarExpr::Lit(v) => v.to_string(),
        ScalarExpr::Bin(op, l, r) => {
            // Comparisons are non-associative in the grammar, so both
            // operands need a strictly higher level; other binary operators
            // are left-associative.
            let left_prec = if op.is_comparison() {
                my_prec + 1
            } else {
                my_prec
            };
            format!(
                "{} {} {}",
                render_expr(g, l, left_prec),
                op.sql(),
                render_expr(g, r, my_prec + 1)
            )
        }
        ScalarExpr::Un(UnOp::Neg, x) => format!("-{}", render_expr(g, x, 8)),
        ScalarExpr::Un(UnOp::Not, x) => format!("NOT {}", render_expr(g, x, 4)),
        ScalarExpr::Func(f, args) => {
            let rendered: Vec<String> = args.iter().map(|a| render_expr(g, a, 0)).collect();
            format!("{}({})", f.sql(), rendered.join(", "))
        }
        ScalarExpr::Case {
            operand,
            arms,
            else_expr,
        } => {
            let mut s = String::from("CASE");
            if let Some(op) = operand {
                s.push(' ');
                s.push_str(&render_expr(g, op, 0));
            }
            for (w, t) in arms {
                s.push_str(&format!(
                    " WHEN {} THEN {}",
                    render_expr(g, w, 0),
                    render_expr(g, t, 0)
                ));
            }
            if let Some(el) = else_expr {
                s.push_str(&format!(" ELSE {}", render_expr(g, el, 0)));
            }
            s.push_str(" END");
            s
        }
        ScalarExpr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_expr(g, expr, 5),
            if *negated { "NOT " } else { "" }
        ),
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE '{}'",
            render_expr(g, expr, 5),
            if *negated { "NOT " } else { "" },
            pattern
        ),
        ScalarExpr::Agg(a) => match a.arg {
            None => "COUNT(*)".to_string(),
            Some(c) => format!(
                "{}({}{})",
                a.func.sql(),
                if a.distinct { "DISTINCT " } else { "" },
                render_colref(g, c)
            ),
        },
        ScalarExpr::GeneralAgg {
            func,
            arg,
            distinct,
        } => match arg {
            None => "COUNT(*)".to_string(),
            Some(a) => format!(
                "{}({}{})",
                func.sql(),
                if *distinct { "DISTINCT " } else { "" },
                render_expr(g, a, 0)
            ),
        },
    };
    if my_prec < parent_prec {
        format!("({body})")
    } else {
        body
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use crate::build::build_query;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;

    fn rendered(sql: &str) -> String {
        let cat = Catalog::credit_card_sample();
        let q = parse_query(sql).unwrap();
        let g = build_query(&q, &cat).unwrap();
        render_graph_sql(&g)
    }

    #[test]
    fn rendered_sql_reparses_and_rebuilds() {
        for sql in [
            "select qty, price from trans where qty > 2",
            "select faid, count(*) as cnt from trans group by faid having count(*) > 100",
            "select year(date) as y, sum(qty * price) as v from trans group by year(date)",
            "select flid, (select count(*) from trans) as totcnt from trans group by flid",
            "select flid, year(date) as y, count(*) as cnt from trans \
             group by grouping sets ((flid, year(date)), (year(date)))",
            "select distinct state from loc",
        ] {
            let text = rendered(sql);
            let cat = Catalog::credit_card_sample();
            let q2 = parse_query(&text).unwrap_or_else(|e| panic!("reparse `{text}`: {e}"));
            build_query(&q2, &cat).unwrap_or_else(|e| panic!("rebuild `{text}`: {e}"));
        }
    }

    #[test]
    fn simple_select_mentions_table_and_predicate() {
        let text = rendered("select qty from trans where qty > 2");
        assert!(text.contains("FROM trans"), "{text}");
        assert!(text.contains("qty > 2"), "{text}");
    }

    #[test]
    fn group_by_renders_grouping_clause() {
        let text = rendered("select faid, count(*) as cnt from trans group by faid");
        assert!(text.contains("GROUP BY"), "{text}");
        assert!(text.contains("COUNT(*)"), "{text}");
    }

    #[test]
    fn grouping_sets_render() {
        let text = rendered(
            "select flid, year(date) as y from trans group by grouping sets ((flid), (year(date)))",
        );
        assert!(text.contains("GROUPING SETS"), "{text}");
    }

    #[test]
    fn order_by_wraps_query() {
        let text = rendered("select qty from trans order by qty desc limit 3");
        assert!(text.contains("ORDER BY qty DESC"), "{text}");
        assert!(text.ends_with("LIMIT 3"), "{text}");
    }
}
