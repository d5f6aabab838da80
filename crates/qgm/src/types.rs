//! Output type and nullability inference for QGM boxes.
//!
//! The matcher consumes nullability in two places: the aggregate derivation
//! rules of Section 4.1.2 (e.g. `COUNT(x) -> SUM(COUNT(z))` requires `x`
//! non-nullable when `z ≠ y`), and the lossless-extra-join test of Section
//! 4.1.1 (FK columns must be non-nullable). The engine and the AST
//! materializer consume the types to create backing tables.

use crate::expr::ScalarExpr;
use crate::graph::{BoxId, BoxKind, GroupByBox, QgmGraph, QuantKind};
use std::collections::HashMap;
use sumtab_catalog::{Catalog, SqlType};
use sumtab_parser::{AggFunc, BinOp, ScalarFunc, UnOp};

/// Type and nullability of one output column. `ty == None` means the type
/// could not be determined (e.g. a bare NULL literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColMeta {
    /// Scalar type, when known.
    pub ty: Option<SqlType>,
    /// May the column be NULL?
    pub nullable: bool,
}

impl ColMeta {
    /// A known, non-nullable column.
    pub fn known(ty: SqlType) -> ColMeta {
        ColMeta {
            ty: Some(ty),
            nullable: false,
        }
    }
}

/// Infer output metadata for every box reachable from the root.
///
/// Graphs containing `SubsumerRef` boxes are not supported here (the matcher
/// carries its own metadata for those).
pub fn infer_output_types(g: &QgmGraph, catalog: &Catalog) -> HashMap<BoxId, Vec<ColMeta>> {
    let mut metas: HashMap<BoxId, Vec<ColMeta>> = HashMap::new();
    for b in g.topo_order() {
        let bx = g.boxed(b);
        let out = match &bx.kind {
            BoxKind::BaseTable { table } => {
                let t = catalog.table(table);
                bx.outputs
                    .iter()
                    .enumerate()
                    .map(|(i, _)| match t {
                        Some(t) => ColMeta {
                            ty: Some(t.columns[i].ty),
                            nullable: t.columns[i].nullable,
                        },
                        None => ColMeta {
                            ty: None,
                            nullable: true,
                        },
                    })
                    .collect()
            }
            BoxKind::Select(_) => bx
                .outputs
                .iter()
                .map(|c| infer_expr(g, b, &c.expr, &metas))
                .collect(),
            BoxKind::GroupBy(gb) => {
                let mut out = Vec::with_capacity(bx.outputs.len());
                for (i, c) in bx.outputs.iter().enumerate() {
                    let mut m = infer_expr(g, b, &c.expr, &metas);
                    // Grouping columns missing from some grouping set are
                    // NULL-padded there (Section 5).
                    if i < gb.items.len() && !gb.sets.iter().all(|s| s.contains(&i)) {
                        m.nullable = true;
                    }
                    out.push(m);
                }
                out
            }
            BoxKind::SubsumerRef { .. } => bx
                .outputs
                .iter()
                .map(|_| ColMeta {
                    ty: None,
                    nullable: true,
                })
                .collect(),
        };
        metas.insert(b, out);
    }
    metas
}

/// Infer the metadata of one expression evaluated in box `owner`.
pub fn infer_expr(
    g: &QgmGraph,
    owner: BoxId,
    e: &ScalarExpr,
    metas: &HashMap<BoxId, Vec<ColMeta>>,
) -> ColMeta {
    let _ = owner;
    match e {
        ScalarExpr::BaseCol(_) => ColMeta {
            ty: None,
            nullable: true,
        },
        ScalarExpr::Col(c) => {
            if c.qid.graph != g.id {
                return ColMeta {
                    ty: None,
                    nullable: true,
                };
            }
            let quant = g.quant(c.qid);
            let child = quant.input;
            let mut m = metas
                .get(&child)
                .and_then(|v| v.get(c.ordinal))
                .copied()
                .unwrap_or(ColMeta {
                    ty: None,
                    nullable: true,
                });
            // A scalar subquery over an empty input yields NULL.
            if quant.kind == QuantKind::Scalar {
                m.nullable = true;
            }
            m
        }
        ScalarExpr::Lit(v) => ColMeta {
            ty: v.sql_type(),
            nullable: v.is_null(),
        },
        ScalarExpr::Bin(op, l, r) => {
            let lm = infer_expr(g, owner, l, metas);
            let rm = infer_expr(g, owner, r, metas);
            let nullable = lm.nullable || rm.nullable;
            let ty = match op {
                BinOp::And | BinOp::Or => Some(SqlType::Bool),
                op if op.is_comparison() => Some(SqlType::Bool),
                BinOp::Mod => Some(SqlType::Int),
                BinOp::Div => match (lm.ty, rm.ty) {
                    (Some(a), Some(b)) => a.arith_result(b),
                    _ => None,
                },
                _ => match (lm.ty, rm.ty) {
                    (Some(a), Some(b)) => a.arith_result(b),
                    _ => None,
                },
            };
            // Division may produce NULL on a zero divisor — unless the
            // divisor is a provably non-zero literal (e.g. `year % 100`,
            // whose non-nullability cube slicing relies on).
            let nonzero_divisor = matches!(
                &**r,
                ScalarExpr::Lit(v) if v.as_f64().is_some_and(|x| x != 0.0)
            );
            let nullable =
                nullable || ((*op == BinOp::Div || *op == BinOp::Mod) && !nonzero_divisor);
            ColMeta { ty, nullable }
        }
        ScalarExpr::Un(UnOp::Neg, x) => infer_expr(g, owner, x, metas),
        ScalarExpr::Un(UnOp::Not, x) => ColMeta {
            ty: Some(SqlType::Bool),
            nullable: infer_expr(g, owner, x, metas).nullable,
        },
        ScalarExpr::Func(f, args) => {
            let am = args
                .first()
                .map(|a| infer_expr(g, owner, a, metas))
                .unwrap_or(ColMeta {
                    ty: None,
                    nullable: true,
                });
            match f {
                ScalarFunc::Year | ScalarFunc::Month | ScalarFunc::Day => ColMeta {
                    ty: Some(SqlType::Int),
                    nullable: am.nullable,
                },
                ScalarFunc::Abs => am,
                ScalarFunc::Upper | ScalarFunc::Lower => ColMeta {
                    ty: Some(SqlType::Varchar),
                    nullable: am.nullable,
                },
            }
        }
        ScalarExpr::Case {
            operand: _,
            arms,
            else_expr,
        } => {
            let mut ty = None;
            let mut nullable = else_expr.is_none();
            for (_, t) in arms {
                let m = infer_expr(g, owner, t, metas);
                ty = ty.or(m.ty);
                nullable |= m.nullable;
            }
            if let Some(el) = else_expr {
                let m = infer_expr(g, owner, el, metas);
                ty = ty.or(m.ty);
                nullable |= m.nullable;
            }
            ColMeta { ty, nullable }
        }
        ScalarExpr::IsNull { .. } => ColMeta {
            ty: Some(SqlType::Bool),
            nullable: false,
        },
        ScalarExpr::Like { expr, .. } => ColMeta {
            ty: Some(SqlType::Bool),
            nullable: infer_expr(g, owner, expr, metas).nullable,
        },
        ScalarExpr::GeneralAgg { func, arg, .. } => {
            let arg_meta = arg.as_ref().map(|a| infer_expr(g, owner, a, metas));
            match func {
                AggFunc::Count => ColMeta::known(SqlType::Int),
                _ => {
                    let m = arg_meta.unwrap_or(ColMeta {
                        ty: None,
                        nullable: true,
                    });
                    ColMeta {
                        ty: m.ty,
                        nullable: true,
                    }
                }
            }
        }
        ScalarExpr::Agg(a) => {
            let arg_meta = a
                .arg
                .map(|c| infer_expr(g, owner, &ScalarExpr::Col(c), metas));
            match a.func {
                AggFunc::Count => ColMeta::known(SqlType::Int),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::Avg => {
                    let m = arg_meta.unwrap_or(ColMeta {
                        ty: None,
                        nullable: true,
                    });
                    ColMeta {
                        ty: m.ty,
                        // NULL when every argument in the group is NULL (or,
                        // for a grand-total group, when the input is empty).
                        nullable: m.nullable
                            || g.boxed(owner)
                                .as_group_by()
                                .is_some_and(GroupByBox::has_grand_total),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use crate::build::build_query;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;

    fn root_metas(sql: &str) -> Vec<ColMeta> {
        let cat = Catalog::credit_card_sample();
        let q = parse_query(sql).unwrap();
        let g = build_query(&q, &cat).unwrap();
        let metas = infer_output_types(&g, &cat);
        metas[&g.root].clone()
    }

    #[test]
    fn base_columns_flow_through() {
        let m = root_metas("select qty, price, state from trans, loc where flid = lid");
        assert_eq!(m[0], ColMeta::known(SqlType::Int));
        assert_eq!(m[1], ColMeta::known(SqlType::Double));
        assert_eq!(m[2], ColMeta::known(SqlType::Varchar));
    }

    #[test]
    fn arithmetic_widens() {
        let m = root_metas("select qty * price as v, qty + 1 as q2 from trans");
        assert_eq!(m[0].ty, Some(SqlType::Double));
        assert_eq!(m[1].ty, Some(SqlType::Int));
    }

    #[test]
    fn count_not_null_sum_follows_arg() {
        let m = root_metas("select count(*) as c, sum(qty) as s from trans group by faid");
        assert_eq!(m[0], ColMeta::known(SqlType::Int));
        assert_eq!(m[1].ty, Some(SqlType::Int));
        assert!(!m[1].nullable, "per-group sum over non-null arg");
    }

    #[test]
    fn scalar_agg_sum_is_nullable() {
        let m = root_metas("select sum(qty) as s from trans");
        assert!(m[0].nullable, "sum over possibly-empty input is nullable");
    }

    #[test]
    fn grouping_set_padding_is_nullable() {
        let m = root_metas(
            "select flid, year(date) as y, count(*) as c from trans \
             group by grouping sets ((flid, year(date)), (flid))",
        );
        assert!(!m[0].nullable, "flid is in every set");
        assert!(
            m[1].nullable,
            "year is padded with NULL in the (flid) cuboid"
        );
        assert!(!m[2].nullable);
    }

    #[test]
    fn year_month_are_int() {
        let m = root_metas("select year(date) as y, month(date) as mo from trans");
        assert_eq!(m[0].ty, Some(SqlType::Int));
        assert_eq!(m[1].ty, Some(SqlType::Int));
        assert!(!m[0].nullable);
    }

    #[test]
    fn scalar_subquery_is_nullable() {
        let m = root_metas("select (select count(*) from loc) as c from trans");
        assert_eq!(m[0].ty, Some(SqlType::Int));
        assert!(m[0].nullable);
    }
}
