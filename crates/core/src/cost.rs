//! Cardinality-based plan costing and rewrite routing.
//!
//! The paper's §7 multi-AST routing assumes the optimizer *chooses* among
//! candidate rewrites; blindly preferring any matching AST can pick a
//! losing plan — an AST nearly as large as the base data (Figure 5's AST2)
//! pays the compensation overhead without saving meaningful scan work.
//! This module supplies the missing choice: a deterministic cardinality
//! cost model over QGM graphs, parameterized only by stored-table row
//! counts, plus a routing policy that decides base plan vs. rewrite.
//!
//! The model is intentionally coarse — its job is *routing*, not absolute
//! time prediction. Estimated cost is "rows processed": every stored-table
//! leaf contributes its row count (the scan), and every operator box
//! contributes the estimated cardinality of its inputs (the per-row work).
//! Cardinalities propagate bottom-up with two fixed heuristics:
//!
//! * a single-quantifier predicate (a *filter*, as opposed to a join
//!   predicate) keeps [`DEFAULT_FILTER_SELECTIVITY`] of its input;
//! * grouping compresses to [`DEFAULT_GROUP_COMPRESSION`] of its input.
//!
//! Joins are assumed key–foreign-key (the paper's star schema): a select
//! box's output cardinality is the *largest* input, not the product.
//!
//! Routing applies a [`RoutePolicy`]: a rewrite must beat the base plan by
//! [`RoutePolicy::rewrite_penalty`] — compensation work per AST row (wider
//! rows, derived expressions, rejoins) is costlier than base per-row work,
//! so a rewrite that merely ties on scanned rows loses in practice. Below
//! [`RoutePolicy::min_cost_gate`] estimated rows, the choice cannot matter
//! (µs-scale either way) and the paper's default — prefer the rewrite —
//! stands. The session routes on this decision alone — no observed latency
//! feeds back into it — so a query routes the same way on every run over
//! the same data; keeping the penalty and selectivities honest against the
//! executor is a matter of recalibrating these constants.

use std::collections::HashMap;

use sumtab_qgm::{BoxId, BoxKind, QgmGraph, ScalarExpr};

/// Fraction of input rows a single-table filter predicate keeps.
pub const DEFAULT_FILTER_SELECTIVITY: f64 = 0.33;

/// Fraction of input rows surviving grouping (distinct-group estimate).
pub const DEFAULT_GROUP_COMPRESSION: f64 = 0.25;

/// The estimated cost of executing one QGM plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Rows read from stored tables (base tables and AST backing tables).
    pub scanned: f64,
    /// Total rows processed: scans plus every operator's estimated input.
    /// This is the figure routing compares.
    pub total: f64,
}

/// How the router trades a rewrite's estimated cost against the base plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePolicy {
    /// Multiplier on the rewrite's estimated cost before comparison: the
    /// rewrite is chosen only when `rewrite.total * rewrite_penalty <=
    /// base.total`, i.e. it must at least halve (at the default `2.0`) the
    /// estimated work to be worth the per-row compensation overhead.
    pub rewrite_penalty: f64,
    /// Base-plan cost (in estimated rows) below which routing always takes
    /// the rewrite: at that scale the choice cannot matter, and preferring
    /// the summary table is the paper's default behaviour.
    pub min_cost_gate: f64,
}

impl Default for RoutePolicy {
    fn default() -> RoutePolicy {
        RoutePolicy {
            rewrite_penalty: 2.0,
            min_cost_gate: 1024.0,
        }
    }
}

/// Does the router pick `rewrite` over `base` under `policy`?
pub fn rewrite_wins(base: &PlanCost, rewrite: &PlanCost, policy: &RoutePolicy) -> bool {
    if base.total <= policy.min_cost_gate {
        return true;
    }
    rewrite.total * policy.rewrite_penalty <= base.total
}

/// True when the predicate references at most one quantifier — a local
/// filter whose selectivity shrinks the output, as opposed to a join
/// predicate (two quantifiers), which the FK-join cardinality rule (max of
/// inputs) already accounts for.
fn is_local_filter(pred: &ScalarExpr) -> bool {
    let mut quants = Vec::new();
    pred.walk(&mut |e| {
        if let ScalarExpr::Col(c) = e {
            if !quants.contains(&c.qid) {
                quants.push(c.qid);
            }
        }
        true
    });
    quants.len() <= 1
}

/// Estimate the cost of executing `g`, with stored-table cardinalities
/// supplied by `row_count` (typically `Database::row_count`; an unknown
/// table estimates as a single row).
pub fn estimate(g: &QgmGraph, row_count: &dyn Fn(&str) -> usize) -> PlanCost {
    let mut card: HashMap<BoxId, f64> = HashMap::new();
    let mut cost = PlanCost {
        scanned: 0.0,
        total: 0.0,
    };
    for b in g.topo_order() {
        let bx = g.boxed(b);
        let inputs: Vec<f64> = bx
            .quants
            .iter()
            .map(|&q| card.get(&g.input_of(q)).copied().unwrap_or(1.0))
            .collect();
        let out = match &bx.kind {
            BoxKind::BaseTable { table } => {
                let n = row_count(table).max(1) as f64;
                cost.scanned += n;
                cost.total += n;
                n
            }
            BoxKind::Select(sel) => {
                cost.total += inputs.iter().sum::<f64>();
                let widest = inputs.iter().copied().fold(1.0f64, f64::max);
                let filters = sel.predicates.iter().filter(|p| is_local_filter(p)).count();
                (widest * DEFAULT_FILTER_SELECTIVITY.powi(filters as i32)).max(1.0)
            }
            BoxKind::GroupBy(_) => {
                let input = inputs.iter().sum::<f64>();
                cost.total += input;
                (input * DEFAULT_GROUP_COMPRESSION).max(1.0)
            }
            // Matcher-internal leaf; never in an executable plan. A unit
            // estimate keeps the model total (permissive like pass 1).
            BoxKind::SubsumerRef { .. } => 1.0,
        };
        card.insert(b, out);
    }
    cost
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;
    use sumtab_qgm::build_query;

    fn graph(sql: &str) -> QgmGraph {
        let catalog = Catalog::credit_card_sample();
        build_query(&parse_query(sql).unwrap(), &catalog).unwrap()
    }

    fn rows(counts: &'static [(&'static str, usize)]) -> impl Fn(&str) -> usize {
        move |t: &str| {
            counts
                .iter()
                .find(|(n, _)| t.eq_ignore_ascii_case(n))
                .map(|(_, c)| *c)
                .unwrap_or(0)
        }
    }

    #[test]
    fn scan_cost_tracks_row_counts() {
        let g = graph("select tid from trans");
        let cheap = estimate(&g, &rows(&[("trans", 100)]));
        let dear = estimate(&g, &rows(&[("trans", 100_000)]));
        assert!(dear.total > cheap.total * 500.0, "{dear:?} vs {cheap:?}");
        assert_eq!(cheap.scanned, 100.0);
        assert_eq!(dear.scanned, 100_000.0);
    }

    #[test]
    fn filters_shrink_cardinality_joins_take_max() {
        // One local filter (price > 100) and one join predicate: the join
        // must not multiply cardinalities, the filter must shrink them.
        let g = graph(
            "select country, sum(qty) as q from trans, loc \
             where flid = lid and price > 100 group by country",
        );
        let c = estimate(&g, &rows(&[("trans", 10_000), ("loc", 50)]));
        assert_eq!(c.scanned, 10_050.0);
        // Work: scans + select input (10_050) + group-by input
        // (10_000 * 0.33 filtered join output).
        assert!(c.total > 20_000.0 && c.total < 30_000.0, "{c:?}");
    }

    #[test]
    fn routing_prefers_rewrites_only_when_they_halve_the_work() {
        let policy = RoutePolicy::default();
        let base = PlanCost {
            scanned: 100_000.0,
            total: 200_000.0,
        };
        let winning = PlanCost {
            scanned: 4_000.0,
            total: 8_000.0,
        };
        let losing = PlanCost {
            scanned: 72_000.0,
            total: 144_000.0,
        };
        assert!(rewrite_wins(&base, &winning, &policy));
        assert!(
            !rewrite_wins(&base, &losing, &policy),
            "an AST nearly as large as the base data must be rejected"
        );
    }

    #[test]
    fn tiny_plans_keep_the_paper_default() {
        let policy = RoutePolicy::default();
        let base = PlanCost {
            scanned: 10.0,
            total: 30.0,
        };
        let rewrite = PlanCost {
            scanned: 9.0,
            total: 29.0,
        };
        assert!(
            rewrite_wins(&base, &rewrite, &policy),
            "below the gate the rewrite is always taken"
        );
    }
}
