//! Plan costing and rewrite routing by stored rows read.
//!
//! The paper's §7 multi-AST routing assumes the optimizer *chooses* among
//! candidate rewrites: an AST nearly as large as the base data (Figure 5's
//! AST2) pays the compensation overhead without saving scan work. A plan's
//! cost here is the number of rows it reads from stored tables (base tables
//! and AST backing tables) at current row counts. It is exact for what it
//! counts and guesses nothing else: filters, joins and grouping leave it at
//! the sum of the scanned tables' row counts.
//!
//! A [`RoutePolicy`] decides base plan vs. rewrite: the rewrite must read
//! [`RoutePolicy::rewrite_penalty`] times fewer rows, since compensation
//! work per AST row (wider rows, derived expressions, rejoins) costs more
//! than base per-row work. Below [`RoutePolicy::min_cost_gate`] rows the
//! choice cannot matter and the paper's default, prefer the rewrite, stands.
//! No observed latency feeds back: a query routes the same way every run.

use sumtab_qgm::{BoxKind, QgmGraph};

/// The cost of executing one QGM plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Rows read from stored tables; the figure routing compares.
    pub total: f64,
}

/// How the router trades a rewrite's cost against the base plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePolicy {
    /// The rewrite is chosen only when `rewrite.total * rewrite_penalty <=
    /// base.total`: at the default `2.0` it must halve the rows read.
    pub rewrite_penalty: f64,
    /// Base-plan cost (in rows read) at or below which routing always takes
    /// the rewrite, the paper's default behaviour.
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

/// The cost of executing `g`: the rows its stored-table leaves read, with
/// row counts supplied by `row_count` (typically `Database::row_count`; an
/// unknown or empty table counts as a single row).
pub fn estimate(g: &QgmGraph, row_count: &dyn Fn(&str) -> usize) -> PlanCost {
    let total = g
        .topo_order()
        .into_iter()
        .filter_map(|b| match &g.boxed(b).kind {
            BoxKind::BaseTable { table } => Some(row_count(table).max(1) as f64),
            _ => None,
        })
        .sum();
    PlanCost { total }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use crate::{RegisteredAst, Rewriter};
    use sumtab_catalog::{Catalog, SummaryTableDef};
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
        assert_eq!(cheap.total, 100.0);
        assert_eq!(dear.total, 100_000.0);
    }

    #[test]
    fn cost_is_the_stored_rows_read() {
        // A local filter, a join predicate and grouping: none of them
        // changes the figure, which is the two scanned tables' row counts.
        let g = graph(
            "select country, sum(qty) as q from trans, loc \
             where flid = lid and price > 100 group by country",
        );
        let c = estimate(&g, &rows(&[("trans", 10_000), ("loc", 50)]));
        assert_eq!(c.total, 10_050.0);

        // An AST backing table counts its own rows, not its base tables'.
        let mut catalog = Catalog::credit_card_sample();
        let sql = "select flid, sum(qty) as q from trans group by flid";
        let ast = RegisteredAst::from_sql("st", sql, &catalog).unwrap();
        let backing = sumtab_engine::backing_table_schema("st", &ast.graph, &catalog).unwrap();
        let def = SummaryTableDef {
            name: "st".to_string(),
            query_sql: sql.to_string(),
        };
        catalog.add_summary_table(def, backing).unwrap();
        let rw = Rewriter::new(&catalog)
            .rewrite(&graph(sql), &ast)
            .unwrap()
            .unwrap();
        let c = estimate(&rw.graph, &rows(&[("trans", 10_000), ("st", 40)]));
        assert_eq!(c.total, 40.0);

        // An unknown table counts as a single row.
        assert_eq!(estimate(&g, &rows(&[])).total, 2.0);
    }

    #[test]
    fn routing_prefers_rewrites_only_when_they_halve_the_work() {
        let policy = RoutePolicy::default();
        let base = PlanCost { total: 200_000.0 };
        let winning = PlanCost { total: 8_000.0 };
        let losing = PlanCost { total: 144_000.0 };
        assert!(rewrite_wins(&base, &winning, &policy));
        assert!(
            !rewrite_wins(&base, &losing, &policy),
            "an AST nearly as large as the base data must be rejected"
        );
    }

    #[test]
    fn tiny_plans_keep_the_paper_default() {
        let policy = RoutePolicy::default();
        let base = PlanCost { total: 30.0 };
        let rewrite = PlanCost { total: 29.0 };
        assert!(
            rewrite_wins(&base, &rewrite, &policy),
            "below the gate the rewrite is always taken"
        );
    }
}
