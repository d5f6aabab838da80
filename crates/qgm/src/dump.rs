//! Human-readable QGM graph dumps, in the spirit of the paper's box
//! diagrams (Figure 3): one indented block per box, listing quantifiers,
//! output columns, predicates, and grouping sets. Used by `EXPLAIN
//! VERBOSE`-style tooling and debugging sessions.

use crate::graph::{BoxId, BoxKind, QgmGraph, QuantKind};
use crate::render::render_expr;

/// Render the whole graph as an indented box tree.
pub fn dump_graph(g: &QgmGraph) -> String {
    let mut out = String::new();
    dump_box(g, g.root, 0, &mut out, &mut vec![false; g.boxes.len()]);
    out
}

fn dump_box(g: &QgmGraph, b: BoxId, depth: usize, out: &mut String, seen: &mut Vec<bool>) {
    let pad = "  ".repeat(depth);
    let bx = g.boxed(b);
    let already = seen[b.0 as usize];
    seen[b.0 as usize] = true;
    match &bx.kind {
        BoxKind::BaseTable { table } => {
            out.push_str(&format!("{pad}BaseTable#{} {table}\n", b.0));
            return;
        }
        BoxKind::SubsumerRef { target, .. } => {
            out.push_str(&format!("{pad}SubsumerRef#{} -> box {}\n", b.0, target.0));
            return;
        }
        BoxKind::Select(sel) => {
            out.push_str(&format!("{pad}Select#{}\n", b.0));
            if already {
                out.push_str(&format!("{pad}  (shared, see above)\n"));
                return;
            }
            for (i, oc) in bx.outputs.iter().enumerate() {
                out.push_str(&format!(
                    "{pad}  out[{i}] {} = {}\n",
                    oc.name,
                    render_expr(g, &oc.expr, 0)
                ));
            }
            for p in &sel.predicates {
                out.push_str(&format!("{pad}  pred {}\n", render_expr(g, p, 0)));
            }
        }
        BoxKind::GroupBy(gb) => {
            out.push_str(&format!("{pad}GroupBy#{}\n", b.0));
            if already {
                out.push_str(&format!("{pad}  (shared, see above)\n"));
                return;
            }
            let items: Vec<String> = gb
                .items
                .iter()
                .map(|c| render_expr(g, &crate::expr::ScalarExpr::Col(*c), 0))
                .collect();
            if gb.sets.len() == 1 {
                out.push_str(&format!("{pad}  group by ({})\n", items.join(", ")));
            } else {
                let sets: Vec<String> = gb
                    .sets
                    .iter()
                    .map(|s| {
                        let cols: Vec<&str> = s.iter().map(|&i| items[i].as_str()).collect();
                        format!("({})", cols.join(", "))
                    })
                    .collect();
                out.push_str(&format!("{pad}  grouping sets {}\n", sets.join(", ")));
            }
            for (i, oc) in bx.outputs.iter().enumerate() {
                out.push_str(&format!(
                    "{pad}  out[{i}] {} = {}\n",
                    oc.name,
                    render_expr(g, &oc.expr, 0)
                ));
            }
        }
    }
    for &q in &bx.quants {
        let quant = g.quant(q);
        let kind = match quant.kind {
            QuantKind::Foreach => "F",
            QuantKind::Scalar => "S",
        };
        out.push_str(&format!(
            "{}  q{} [{}] \"{}\" over:\n",
            pad, q.idx, kind, quant.name
        ));
        dump_box(g, quant.input, depth + 2, out, seen);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use crate::build::build_query;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;

    #[test]
    fn dump_shows_figure3_structure() {
        let cat = Catalog::credit_card_sample();
        let g = build_query(
            &parse_query(
                "select faid, state, year(date) as year, count(*) as cnt \
                 from trans, loc where flid = lid and country = 'USA' \
                 group by faid, state, year(date) having count(*) > 100",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let d = dump_graph(&g);
        assert!(d.contains("Select#"), "{d}");
        assert!(d.contains("GroupBy#"), "{d}");
        assert!(d.contains("BaseTable"), "{d}");
        assert!(d.contains("group by"), "{d}");
        assert!(d.contains("COUNT(*)"), "{d}");
        // Box nesting depth: top select, group-by, lower select, tables.
        assert!(d.lines().count() > 10, "{d}");
    }

    #[test]
    fn dump_marks_grouping_sets_and_scalar_quants() {
        let cat = Catalog::credit_card_sample();
        let g = build_query(
            &parse_query(
                "select flid, (select count(*) from loc) as n, count(*) as c \
                 from trans group by rollup(flid)",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let d = dump_graph(&g);
        assert!(d.contains("grouping sets"), "{d}");
        assert!(d.contains("[S]"), "scalar quantifier marker: {d}");
    }
}
