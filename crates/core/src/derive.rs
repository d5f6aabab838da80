//! Expression derivation (Section 6, second half).
//!
//! Given a translated (mixed-space) subsumee expression, derivation rewrites
//! it over the *available* columns — the subsumer's output QCLs and the
//! rejoin columns — collapsing every subtree the subsumer already computes.
//! The whole-node match is tried before recursing, which realizes the
//! paper's "minimum number of subsumer QCLs" tie-break (Figure 5: `amt` is
//! derived from `value` and `disc` rather than `qty`, `price`, and `disc`).

use crate::equiv::{equiv_eq, ColEquiv};
use crate::translate::Avail;
use sumtab_qgm::ScalarExpr;

/// Derive `expr` (mixed space, normalized) over the available columns.
/// Returns the compensation-space expression, or `None` when underivable.
pub fn derive(expr: &ScalarExpr, avail: &[Avail], eq: &ColEquiv) -> Option<ScalarExpr> {
    // Whole-node match first: fewest referenced columns.
    for a in avail {
        if equiv_eq(expr, &a.defines, eq) {
            return Some(ScalarExpr::Col(a.refer));
        }
    }
    Some(match expr {
        // A bare column with no whole-node hit: try its equivalence-class
        // members (covered by equiv_eq above through `same`) — reaching
        // here means the column is simply unavailable.
        ScalarExpr::Col(_) => return None,
        ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
        ScalarExpr::BaseCol(_) => return None,
        ScalarExpr::Bin(op, l, r) => {
            ScalarExpr::bin(*op, derive(l, avail, eq)?, derive(r, avail, eq)?)
        }
        ScalarExpr::Un(op, x) => ScalarExpr::Un(*op, Box::new(derive(x, avail, eq)?)),
        ScalarExpr::Func(f, args) => {
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                out.push(derive(a, avail, eq)?);
            }
            ScalarExpr::Func(*f, out)
        }
        ScalarExpr::Case {
            operand,
            arms,
            else_expr,
        } => {
            let operand = match operand {
                Some(o) => Some(Box::new(derive(o, avail, eq)?)),
                None => None,
            };
            let mut out_arms = Vec::with_capacity(arms.len());
            for (w, t) in arms {
                out_arms.push((derive(w, avail, eq)?, derive(t, avail, eq)?));
            }
            let else_expr = match else_expr {
                Some(e) => Some(Box::new(derive(e, avail, eq)?)),
                None => None,
            };
            ScalarExpr::Case {
                operand,
                arms: out_arms,
                else_expr,
            }
        }
        ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: Box::new(derive(expr, avail, eq)?),
            negated: *negated,
        },
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => ScalarExpr::Like {
            expr: Box::new(derive(expr, avail, eq)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        // Aggregates are only derivable by a whole-node hit (exact agg QCL
        // match); regrouping derivations are bespoke to the GROUP BY
        // patterns (Section 4.1.2 rules a–g).
        ScalarExpr::Agg(_) | ScalarExpr::GeneralAgg { .. } => return None,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Value;
    use sumtab_qgm::{BinOp, ColRef, GraphId, QuantId};

    fn cr(q: u32, o: usize) -> ColRef {
        ColRef {
            qid: QuantId {
                graph: GraphId(77),
                idx: q,
            },
            ordinal: o,
        }
    }

    fn col(q: u32, o: usize) -> ScalarExpr {
        ScalarExpr::Col(cr(q, o))
    }

    fn out(o: usize) -> ColRef {
        cr(99, o)
    }

    /// The distinct columns an expression references.
    fn referenced_cols(expr: &ScalarExpr) -> Vec<ColRef> {
        let mut refs = expr.col_refs();
        refs.sort();
        refs.dedup();
        refs
    }

    /// Availability: value = qty*price (out 0), qty (out 1), price (out 2),
    /// disc (out 3).
    fn avail() -> Vec<Avail> {
        let qty = col(0, 5);
        let price = col(0, 6);
        let disc = col(0, 7);
        vec![
            Avail {
                refer: out(0),
                defines: ScalarExpr::bin(BinOp::Mul, qty.clone(), price.clone()).normalize(),
            },
            Avail {
                refer: out(1),
                defines: qty.normalize(),
            },
            Avail {
                refer: out(2),
                defines: price.normalize(),
            },
            Avail {
                refer: out(3),
                defines: disc.normalize(),
            },
        ]
    }

    #[test]
    fn whole_node_beats_leaf_decomposition() {
        // qty*price*(1-disc): the qty*price subtree should collapse to the
        // `value` column (minimal-QCL derivation of Figure 5).
        let eq = ColEquiv::new();
        let amt = ScalarExpr::bin(
            BinOp::Mul,
            ScalarExpr::bin(BinOp::Mul, col(0, 5), col(0, 6)),
            ScalarExpr::bin(BinOp::Sub, ScalarExpr::Lit(Value::Int(1)), col(0, 7)),
        )
        .normalize();
        let derived = derive(&amt, &avail(), &eq).unwrap();
        let used = referenced_cols(&derived);
        assert_eq!(used.len(), 2, "value and disc only: {derived:?}");
        assert!(used.contains(&out(0)));
        assert!(used.contains(&out(3)));
    }

    #[test]
    fn fallback_to_leaves_when_no_subtree_matches() {
        let eq = ColEquiv::new();
        // qty + price has no whole-node hit; derive leaf-wise.
        let e = ScalarExpr::bin(BinOp::Add, col(0, 5), col(0, 6)).normalize();
        let derived = derive(&e, &avail(), &eq).unwrap();
        assert_eq!(referenced_cols(&derived).len(), 2);
    }

    #[test]
    fn underivable_column_fails() {
        let eq = ColEquiv::new();
        let e = col(0, 1).normalize(); // not in avail
        assert!(derive(&e, &avail(), &eq).is_none());
    }

    #[test]
    fn equivalence_class_rescues_missing_column() {
        let mut eq = ColEquiv::new();
        // col(0,1) ≡ qty (col(0,5)) — like aid ≡ faid.
        eq.union(cr(0, 1), cr(0, 5));
        let e = col(0, 1).normalize();
        let derived = derive(&e, &avail(), &eq).unwrap();
        assert_eq!(derived, ScalarExpr::Col(out(1)));
    }

    #[test]
    fn literals_pass_through() {
        let eq = ColEquiv::new();
        let e = ScalarExpr::bin(BinOp::Gt, col(0, 5), ScalarExpr::Lit(Value::Int(100))).normalize();
        let derived = derive(&e, &avail(), &eq).unwrap();
        assert!(matches!(derived, ScalarExpr::Bin(..)));
    }
}
