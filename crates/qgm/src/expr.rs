//! QGM scalar expressions.
//!
//! Unlike the parser's surface syntax, QGM expressions reference columns
//! positionally through quantifiers ([`ColRef`]) and confine aggregate calls
//! to GROUP BY box outputs, where the aggregate argument is always a *simple*
//! input column (Section 2: "their QCLs include all of the grouping input
//! columns, plus aggregate functions over simple input columns").
//!
//! `BETWEEN` and `IN (list)` are normalized to conjunctions/disjunctions of
//! comparisons during QGM construction, which keeps the matcher's expression
//! algebra small.

use crate::graph::QuantId;
use sumtab_catalog::Value;
use sumtab_parser::{AggFunc, BinOp, ScalarFunc, UnOp};

/// A reference to an input column (QNC): column `ordinal` of the box consumed
/// through quantifier `qid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    /// The quantifier (tagged with its owning graph).
    pub qid: QuantId,
    /// Output ordinal of the producing box.
    pub ordinal: usize,
}

/// An aggregate call inside a GROUP BY box output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggCall {
    /// The aggregate function (`AVG` never appears: it is normalized to
    /// SUM/COUNT during construction).
    pub func: AggFunc,
    /// The argument column; `None` only for `COUNT(*)`.
    pub arg: Option<ColRef>,
    /// `DISTINCT`?
    pub distinct: bool,
}

/// A QGM scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column `ordinal` of a base table; appears only in BaseTable box outputs.
    BaseCol(usize),
    /// An input column reference (QNC).
    Col(ColRef),
    /// A literal.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Unary operation.
    Un(UnOp, Box<ScalarExpr>),
    /// Scalar built-in function.
    Func(ScalarFunc, Vec<ScalarExpr>),
    /// Searched/simple CASE.
    Case {
        /// Comparand for simple CASE.
        operand: Option<Box<ScalarExpr>>,
        /// `(when, then)` arms.
        arms: Vec<(ScalarExpr, ScalarExpr)>,
        /// ELSE branch.
        else_expr: Option<Box<ScalarExpr>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Literal pattern with `%`/`_` wildcards.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// Aggregate call; appears only in GROUP BY box outputs.
    Agg(AggCall),
    /// An aggregate over a *general* argument expression. This never appears
    /// in stored QGM graphs (aggregate arguments are simple columns there);
    /// it exists for the matcher's expression-translation machinery
    /// (Section 6), where pushing an expression through a GROUP BY
    /// compensation box turns `cnt` into `SUM(cnt-expression)` (Figure 15).
    GeneralAgg {
        /// The aggregate function.
        func: AggFunc,
        /// Argument; `None` only for `COUNT(*)`.
        arg: Option<Box<ScalarExpr>>,
        /// `DISTINCT`?
        distinct: bool,
    },
}

impl ScalarExpr {
    /// Shorthand for a column reference.
    pub fn col(qid: QuantId, ordinal: usize) -> ScalarExpr {
        ScalarExpr::Col(ColRef { qid, ordinal })
    }

    /// Shorthand for a binary expression.
    pub fn bin(op: BinOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Visit every node pre-order. The callback returns `false` to prune the
    /// walk below a node.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr) -> bool) {
        if !f(self) {
            return;
        }
        match self {
            ScalarExpr::BaseCol(_)
            | ScalarExpr::Col(_)
            | ScalarExpr::Lit(_)
            | ScalarExpr::Agg(_) => {}
            ScalarExpr::Bin(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            ScalarExpr::Un(_, e) => e.walk(f),
            ScalarExpr::GeneralAgg { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
            ScalarExpr::Func(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            ScalarExpr::Case {
                operand,
                arms,
                else_expr,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in arms {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            ScalarExpr::IsNull { expr, .. } | ScalarExpr::Like { expr, .. } => expr.walk(f),
        }
    }

    /// Collect every [`ColRef`] in the expression, including aggregate
    /// arguments.
    pub fn col_refs(&self) -> Vec<ColRef> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            match e {
                ScalarExpr::Col(c) => out.push(*c),
                ScalarExpr::Agg(a) => {
                    if let Some(c) = a.arg {
                        out.push(c);
                    }
                }
                _ => {}
            }
            true
        });
        out
    }

    /// Rewrite every column reference bottom-up with `f`; `f` returns the
    /// replacement *expression* for the reference, enabling substitution of
    /// whole subtrees (the translation mechanism of Section 6 builds on this).
    ///
    /// Aggregate argument references are NOT rewritten by this function —
    /// aggregate rewriting has bespoke rules (Section 4.1.2) and is handled
    /// by the matcher.
    pub fn map_cols(&self, f: &mut impl FnMut(ColRef) -> ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Col(c) => f(*c),
            ScalarExpr::BaseCol(i) => ScalarExpr::BaseCol(*i),
            ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
            ScalarExpr::Bin(op, l, r) => ScalarExpr::bin(*op, l.map_cols(f), r.map_cols(f)),
            ScalarExpr::Un(op, e) => ScalarExpr::Un(*op, Box::new(e.map_cols(f))),
            ScalarExpr::GeneralAgg {
                func,
                arg,
                distinct,
            } => ScalarExpr::GeneralAgg {
                func: *func,
                arg: arg.as_ref().map(|a| Box::new(a.map_cols(f))),
                distinct: *distinct,
            },
            ScalarExpr::Func(func, args) => {
                ScalarExpr::Func(*func, args.iter().map(|a| a.map_cols(f)).collect())
            }
            ScalarExpr::Case {
                operand,
                arms,
                else_expr,
            } => ScalarExpr::Case {
                operand: operand.as_ref().map(|o| Box::new(o.map_cols(f))),
                arms: arms
                    .iter()
                    .map(|(w, t)| (w.map_cols(f), t.map_cols(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.map_cols(f))),
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.map_cols(f)),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.map_cols(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            ScalarExpr::Agg(a) => ScalarExpr::Agg(*a),
        }
    }

    /// True if the expression contains any aggregate call.
    pub fn contains_agg(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, ScalarExpr::Agg(_) | ScalarExpr::GeneralAgg { .. }) {
                found = true;
                return false;
            }
            true
        });
        found
    }

    /// Split a predicate into its top-level AND conjuncts.
    pub fn split_conjuncts(self) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::Bin(BinOp::And, l, r) => {
                let mut out = l.split_conjuncts();
                out.extend(r.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Re-join conjuncts with AND; `TRUE` for an empty list.
    pub fn and_all(conjuncts: Vec<ScalarExpr>) -> ScalarExpr {
        let mut it = conjuncts.into_iter();
        match it.next() {
            None => ScalarExpr::Lit(Value::Bool(true)),
            Some(first) => it.fold(first, |acc, c| ScalarExpr::bin(BinOp::And, acc, c)),
        }
    }

    /// Structural normalization that makes syntactically different but
    /// trivially equivalent expressions compare equal:
    ///
    /// * operands of commutative operators (`+`, `*`, `=`, `<>`, `AND`, `OR`)
    ///   are sorted by a stable structural key;
    /// * comparisons are oriented so the structurally smaller side is first
    ///   (`10 < x` becomes `x > 10`);
    /// * double negation is removed.
    ///
    /// The matcher compares normalized forms; normalization is idempotent.
    pub fn normalize(&self) -> ScalarExpr {
        match self {
            ScalarExpr::Bin(op, l, r) => {
                let ln = l.normalize();
                let rn = r.normalize();
                match op {
                    BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::NotEq | BinOp::And | BinOp::Or => {
                        if expr_key(&rn) < expr_key(&ln) {
                            ScalarExpr::bin(*op, rn, ln)
                        } else {
                            ScalarExpr::bin(*op, ln, rn)
                        }
                    }
                    BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                        if expr_key(&rn) < expr_key(&ln) {
                            ScalarExpr::bin(flip_comparison(*op), rn, ln)
                        } else {
                            ScalarExpr::bin(*op, ln, rn)
                        }
                    }
                    _ => ScalarExpr::bin(*op, ln, rn),
                }
            }
            ScalarExpr::Un(UnOp::Not, inner) => {
                let n = inner.normalize();
                if let ScalarExpr::Un(UnOp::Not, inner2) = n {
                    *inner2
                } else {
                    ScalarExpr::Un(UnOp::Not, Box::new(n))
                }
            }
            ScalarExpr::Un(op, e) => ScalarExpr::Un(*op, Box::new(e.normalize())),
            ScalarExpr::GeneralAgg {
                func,
                arg,
                distinct,
            } => ScalarExpr::GeneralAgg {
                func: *func,
                arg: arg.as_ref().map(|a| Box::new(a.normalize())),
                distinct: *distinct,
            },
            ScalarExpr::Func(f, args) => {
                ScalarExpr::Func(*f, args.iter().map(ScalarExpr::normalize).collect())
            }
            ScalarExpr::Case {
                operand,
                arms,
                else_expr,
            } => ScalarExpr::Case {
                operand: operand.as_ref().map(|o| Box::new(o.normalize())),
                arms: arms
                    .iter()
                    .map(|(w, t)| (w.normalize(), t.normalize()))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.normalize())),
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.normalize()),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.normalize()),
                pattern: pattern.clone(),
                negated: *negated,
            },
            other => other.clone(),
        }
    }
}

/// Mirror a comparison operator (`a < b` ⇔ `b > a`).
pub fn flip_comparison(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// A stable ordering key for commutative-operand sorting: the debug rendering
/// is structural and deterministic, which is all we need.
fn expr_key(e: &ScalarExpr) -> String {
    format!("{e:?}")
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}.{}#{}", self.qid.graph.0, self.qid.idx, self.ordinal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphId, QuantId};

    fn q(idx: u32) -> QuantId {
        QuantId {
            graph: GraphId(7),
            idx,
        }
    }

    #[test]
    fn split_and_join_conjuncts() {
        let e = ScalarExpr::bin(
            BinOp::And,
            ScalarExpr::bin(
                BinOp::And,
                ScalarExpr::col(q(0), 0),
                ScalarExpr::col(q(0), 1),
            ),
            ScalarExpr::col(q(0), 2),
        );
        let parts = e.clone().split_conjuncts();
        assert_eq!(parts.len(), 3);
        let rejoined = ScalarExpr::and_all(parts);
        assert_eq!(rejoined.clone().split_conjuncts().len(), 3);
        assert_eq!(
            ScalarExpr::and_all(vec![]),
            ScalarExpr::Lit(Value::Bool(true))
        );
    }

    #[test]
    fn normalize_orients_comparisons() {
        // 10 < x  ==>  x > 10
        let a = ScalarExpr::bin(
            BinOp::Lt,
            ScalarExpr::Lit(Value::Int(10)),
            ScalarExpr::col(q(1), 0),
        );
        let b = ScalarExpr::bin(
            BinOp::Gt,
            ScalarExpr::col(q(1), 0),
            ScalarExpr::Lit(Value::Int(10)),
        );
        assert_eq!(a.normalize(), b.normalize());
    }

    /// Operand order across graphs follows the numeric order of graph ids,
    /// whatever their digit counts: the ids come from a process-global
    /// counter, so text order would flip when it passes 9, 99, ...
    #[test]
    fn normalize_orders_graphs_numerically() {
        let col = |graph: u32| {
            let qid = QuantId {
                graph: GraphId(graph),
                idx: 0,
            };
            ScalarExpr::col(qid, 0)
        };
        for (lo, hi) in [(9, 10), (99, 100), (42, 1_234)] {
            let e = ScalarExpr::bin(BinOp::Eq, col(hi), col(lo));
            assert_eq!(e.normalize(), ScalarExpr::bin(BinOp::Eq, col(lo), col(hi)));
        }
    }

    #[test]
    fn normalize_sorts_commutative_operands() {
        let ab = ScalarExpr::bin(
            BinOp::Mul,
            ScalarExpr::col(q(0), 0),
            ScalarExpr::col(q(0), 1),
        );
        let ba = ScalarExpr::bin(
            BinOp::Mul,
            ScalarExpr::col(q(0), 1),
            ScalarExpr::col(q(0), 0),
        );
        assert_eq!(ab.normalize(), ba.normalize());
        // Subtraction is NOT commutative.
        let s1 = ScalarExpr::bin(
            BinOp::Sub,
            ScalarExpr::col(q(0), 0),
            ScalarExpr::col(q(0), 1),
        );
        let s2 = ScalarExpr::bin(
            BinOp::Sub,
            ScalarExpr::col(q(0), 1),
            ScalarExpr::col(q(0), 0),
        );
        assert_ne!(s1.normalize(), s2.normalize());
    }

    #[test]
    fn normalize_is_idempotent() {
        let e = ScalarExpr::bin(
            BinOp::Eq,
            ScalarExpr::bin(
                BinOp::Add,
                ScalarExpr::col(q(2), 3),
                ScalarExpr::col(q(0), 1),
            ),
            ScalarExpr::Un(
                UnOp::Not,
                Box::new(ScalarExpr::Un(
                    UnOp::Not,
                    Box::new(ScalarExpr::col(q(1), 0)),
                )),
            ),
        );
        let n1 = e.normalize();
        assert_eq!(n1.normalize(), n1);
    }

    #[test]
    fn col_refs_include_agg_args() {
        let agg = ScalarExpr::Agg(AggCall {
            func: AggFunc::Sum,
            arg: Some(ColRef {
                qid: q(4),
                ordinal: 2,
            }),
            distinct: false,
        });
        let refs = agg.col_refs();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].ordinal, 2);
    }

    #[test]
    fn map_cols_substitutes_subtrees() {
        let e = ScalarExpr::bin(
            BinOp::Add,
            ScalarExpr::col(q(0), 0),
            ScalarExpr::Lit(Value::Int(1)),
        );
        let mapped = e.map_cols(&mut |c| {
            assert_eq!(c.ordinal, 0);
            ScalarExpr::bin(
                BinOp::Mul,
                ScalarExpr::col(q(9), 5),
                ScalarExpr::Lit(Value::Int(2)),
            )
        });
        assert!(matches!(mapped, ScalarExpr::Bin(BinOp::Add, _, _)));
        assert_eq!(mapped.col_refs()[0].qid, q(9));
    }

    #[test]
    fn contains_agg_detects_nesting() {
        let agg = ScalarExpr::Agg(AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        });
        let e = ScalarExpr::bin(BinOp::Gt, agg, ScalarExpr::Lit(Value::Int(2)));
        assert!(e.contains_agg());
        assert!(!ScalarExpr::col(q(0), 0).contains_agg());
    }
}
