//! Render a syntax tree back to SQL text.
//!
//! Used to display rewritten queries and to test that parsing is a fixed
//! point under re-rendering. Output is fully parenthesized at the expression
//! level only where needed for correctness.

use crate::syntax::*;

/// Render a full query.
pub fn render_query(q: &Query) -> String {
    let mut s = String::new();
    write_query(&mut s, q);
    s
}

fn write_query(out: &mut String, q: &Query) {
    out.push_str("SELECT ");
    if q.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in q.select.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(t) => {
                out.push_str(t);
                out.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                out.push_str(&render_expr(expr));
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    out.push_str(a);
                }
            }
        }
    }
    if !q.from.is_empty() {
        out.push_str(" FROM ");
        for (i, tr) in q.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match tr {
                TableRef::Named { name, alias } => {
                    out.push_str(name);
                    if let Some(a) = alias {
                        out.push_str(" AS ");
                        out.push_str(a);
                    }
                }
                TableRef::Derived { query, alias } => {
                    out.push('(');
                    write_query(out, query);
                    out.push_str(") AS ");
                    out.push_str(alias);
                }
            }
        }
    }
    if let Some(w) = &q.where_clause {
        out.push_str(" WHERE ");
        out.push_str(&render_expr(w));
    }
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, g) in q.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match g {
                GroupingElement::Expr(e) => out.push_str(&render_expr(e)),
                GroupingElement::Rollup(es) => {
                    out.push_str("ROLLUP(");
                    out.push_str(&join_exprs(es));
                    out.push(')');
                }
                GroupingElement::Cube(es) => {
                    out.push_str("CUBE(");
                    out.push_str(&join_exprs(es));
                    out.push(')');
                }
                GroupingElement::GroupingSets(sets) => {
                    out.push_str("GROUPING SETS (");
                    for (j, set) in sets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push('(');
                        out.push_str(&join_exprs(set));
                        out.push(')');
                    }
                    out.push(')');
                }
            }
        }
    }
    if let Some(h) = &q.having {
        out.push_str(" HAVING ");
        out.push_str(&render_expr(h));
    }
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, k) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&render_expr(&k.expr));
            if k.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(n) = q.limit {
        out.push_str(&format!(" LIMIT {n}"));
    }
}

fn join_exprs(es: &[Expr]) -> String {
    es.iter().map(render_expr).collect::<Vec<_>>().join(", ")
}

/// Render an expression with precedence-aware parenthesization.
pub fn render_expr(e: &Expr) -> String {
    render_prec(e, 0)
}

/// Precedence levels: OR=1, AND=2, NOT=3, comparison=4, add=5, mul=6, unary=7.
fn prec_of(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        },
        Expr::Unary { op: UnOp::Not, .. } => 3,
        Expr::IsNull { .. } | Expr::Between { .. } | Expr::InList { .. } | Expr::Like { .. } => 4,
        Expr::Unary { op: UnOp::Neg, .. } => 7,
        _ => 10,
    }
}

fn render_prec(e: &Expr, parent_prec: u8) -> String {
    let my_prec = prec_of(e);
    let body = match e {
        Expr::Lit(v) => v.to_string(),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Binary { op, left, right } => {
            // Left-assoc: the right child needs a strictly higher level.
            // Comparisons are NON-associative (`a = b = c` does not parse),
            // so both operands need a strictly higher level there.
            let left_prec = if op.is_comparison() {
                my_prec + 1
            } else {
                my_prec
            };
            let l = render_prec(left, left_prec);
            let r = render_prec(right, my_prec + 1);
            format!("{l} {} {r}", op.sql())
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => format!("-{}", render_prec(expr, 8)),
            UnOp::Not => format!("NOT {}", render_prec(expr, 4)),
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => match arg {
            None => "COUNT(*)".to_string(),
            Some(a) => format!(
                "{}({}{})",
                func.sql(),
                if *distinct { "DISTINCT " } else { "" },
                render_expr(a)
            ),
        },
        Expr::Func { func, args } => {
            format!("{}({})", func.sql(), join_exprs(args))
        }
        Expr::Case {
            operand,
            arms,
            else_expr,
        } => {
            let mut s = String::from("CASE");
            if let Some(op) = operand {
                s.push(' ');
                s.push_str(&render_expr(op));
            }
            for (w, t) in arms {
                s.push_str(&format!(" WHEN {} THEN {}", render_expr(w), render_expr(t)));
            }
            if let Some(el) = else_expr {
                s.push_str(&format!(" ELSE {}", render_expr(el)));
            }
            s.push_str(" END");
            s
        }
        Expr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_prec(expr, 5),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "{} {}BETWEEN {} AND {}",
            render_prec(expr, 5),
            if *negated { "NOT " } else { "" },
            render_prec(low, 5),
            render_prec(high, 5)
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => format!(
            "{} {}IN ({})",
            render_prec(expr, 5),
            if *negated { "NOT " } else { "" },
            join_exprs(list)
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE '{}'",
            render_prec(expr, 5),
            if *negated { "NOT " } else { "" },
            pattern
        ),
        Expr::ScalarSubquery(q) => format!("({})", render_query(q)),
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
    use crate::parse_expr;

    fn rt(sql: &str) -> String {
        render_expr(&parse_expr(sql).unwrap())
    }

    #[test]
    fn parenthesization_preserves_structure() {
        assert_eq!(rt("(1 + 2) * 3"), "(1 + 2) * 3");
        assert_eq!(rt("1 + 2 * 3"), "1 + 2 * 3");
        assert_eq!(rt("1 - (2 - 3)"), "1 - (2 - 3)");
        assert_eq!(rt("1 - 2 - 3"), "1 - 2 - 3");
        assert_eq!(rt("qty * price * (1 - disc)"), "qty * price * (1 - disc)");
        assert_eq!(rt("a and (b or c)"), "a AND (b OR c)");
        assert_eq!(rt("not (a = 1)"), "NOT a = 1");
    }

    #[test]
    fn rendered_expr_reparses_identically() {
        for sql in [
            "(1 + 2) * 3",
            "a and (b or c) and not d = 2",
            "case when x > 0 then x else -x end",
            "sum(distinct q) / count(*)",
            "x between 1 + 1 and 2 * 2",
            "year(date) % 100 = 97",
        ] {
            let e1 = parse_expr(sql).unwrap();
            let printed = render_expr(&e1);
            let e2 = parse_expr(&printed).unwrap();
            assert_eq!(e1, e2, "for `{sql}` → `{printed}`");
        }
    }
}
