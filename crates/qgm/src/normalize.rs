//! Graph normalization: merging consecutive SELECT boxes.
//!
//! Footnote 6 of the paper: "consecutive SELECT boxes can (almost) always be
//! merged into a single SELECT." Merging derived-table SELECTs into their
//! consumers canonicalizes graphs, which increases match hits — the matcher
//! compares box-by-box, so two equivalent queries should produce identical
//! shapes.
//!
//! A child SELECT `C` merges into its parent SELECT `P` when `C` is consumed
//! by exactly one Foreach quantifier of `P`. The merge inlines `C`'s output
//! expressions into `P`'s expressions, adopts `C`'s quantifiers, and appends
//! `C`'s predicates. Unreachable boxes are then garbage-collected by
//! rebuilding the arena.

use crate::graph::{BoxKind, QgmGraph, QuantKind};

/// Merge consecutive SELECT boxes to a fixpoint, then compact the arena.
pub fn merge_selects(g: &mut QgmGraph) {
    while let Some((parent, quant)) = find_mergeable(g) {
        merge_one(g, parent, quant);
    }
    compact(g);
}

/// Find a `(parent box, quantifier)` pair where the quantifier's input is a
/// mergeable SELECT child.
fn find_mergeable(g: &QgmGraph) -> Option<(crate::graph::BoxId, crate::graph::QuantId)> {
    for b in g.topo_order() {
        if !g.boxed(b).is_select() {
            continue;
        }
        for &q in &g.boxed(b).quants {
            if g.quant(q).kind != QuantKind::Foreach {
                continue;
            }
            let child = g.input_of(q);
            if !g.boxed(child).is_select() {
                continue;
            }
            if g.consumer_count(child) != 1 {
                continue;
            }
            return Some((b, q));
        }
    }
    None
}

// `find_mergeable` returns only (parent, q) pairs where `q` is a quantifier
// of `parent` and both boxes are SELECTs, so the lookups below cannot fail.
#[allow(clippy::expect_used)]
fn merge_one(g: &mut QgmGraph, parent: crate::graph::BoxId, q: crate::graph::QuantId) {
    let child = g.input_of(q);
    let child_box = g.boxed(child).clone();
    let child_sel = match &child_box.kind {
        BoxKind::Select(s) => s.clone(),
        _ => unreachable!("merge_one called on non-select child"),
    };

    // Inline child's output expressions into every parent expression that
    // references `q`. Child quantifier ids are unchanged (they are adopted),
    // so child output expressions substitute verbatim.
    let subst = |e: &crate::expr::ScalarExpr| -> crate::expr::ScalarExpr {
        e.map_cols(&mut |c| {
            if c.qid == q {
                child_box.outputs[c.ordinal].expr.clone()
            } else {
                crate::expr::ScalarExpr::Col(c)
            }
        })
    };

    let new_outputs: Vec<_> = g
        .boxed(parent)
        .outputs
        .iter()
        .map(|oc| crate::graph::OutputCol {
            name: oc.name.clone(),
            expr: subst(&oc.expr),
        })
        .collect();
    let new_preds: Vec<_> = match &g.boxed(parent).kind {
        BoxKind::Select(s) => s
            .predicates
            .iter()
            .map(subst)
            .chain(child_sel.predicates.iter().cloned())
            .collect(),
        _ => unreachable!("merge parent must be select"),
    };

    // Adopt the child's quantifiers: replace `q` in the parent's quantifier
    // list with the child's list (preserving join order), and re-own them.
    let pos = g
        .boxed(parent)
        .quants
        .iter()
        .position(|&x| x == q)
        .expect("quantifier must be on parent");
    let adopted = child_box.quants.clone();
    {
        let pb = g.boxed_mut(parent);
        pb.quants.splice(pos..=pos, adopted.iter().copied());
        pb.outputs = new_outputs;
        pb.kind = BoxKind::Select(crate::graph::SelectBox {
            predicates: new_preds,
        });
    }
    for &aq in &adopted {
        let idx = aq.idx as usize;
        g.quants[idx].owner = parent;
    }
    // `q` itself becomes dangling; `child` becomes unreachable. Both are
    // removed by `compact`.
}

/// Rebuild the graph keeping only boxes reachable from the root. Box and
/// quantifier ids are remapped; the graph receives a fresh identity.
fn compact(g: &mut QgmGraph) {
    let mut fresh = QgmGraph::new();
    fresh.order = g.order.clone();
    let new_root = fresh.clone_subgraph(g, g.root);
    fresh.root = new_root;
    *g = fresh;
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use crate::build::build_query_with_params;
    use crate::graph::BoxKind;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;

    fn build(sql: &str, normalize: bool) -> crate::graph::QgmGraph {
        let cat = Catalog::credit_card_sample();
        let q = parse_query(sql).unwrap();
        build_query_with_params(&q, &cat, normalize).unwrap()
    }

    #[test]
    fn derived_table_select_merges() {
        let sql = "select a1 from (select qty as a1 from trans where qty > 2) as s where a1 < 10";
        let unmerged = build(sql, false);
        let merged = build(sql, true);
        // Unmerged: outer select + inner select + base table = 3 boxes.
        assert_eq!(unmerged.topo_order().len(), 3);
        // Merged: single select over the base table.
        assert_eq!(merged.topo_order().len(), 2);
        let root = merged.boxed(merged.root);
        assert!(root.is_select());
        let preds = &root.as_select().unwrap().predicates;
        assert_eq!(preds.len(), 2, "both predicates live in the merged box");
        merged.validate();
    }

    #[test]
    fn groupby_blocks_merge_around_it() {
        // Inner aggregation query used as derived table: the inner top select
        // merges into the outer lower select, leaving
        // select(top) <- gb <- select <- gb <- select <- base.
        let sql = "select tcnt, count(*) as ycnt from \
                   (select year(date) as year, count(*) as tcnt from trans group by year(date)) as v \
                   group by tcnt";
        let g = build(sql, true);
        let order = g.topo_order();
        let kinds: Vec<&'static str> = order
            .iter()
            .map(|&b| match g.boxed(b).kind {
                BoxKind::BaseTable { .. } => "base",
                BoxKind::Select(_) => "select",
                BoxKind::GroupBy(_) => "groupby",
                BoxKind::SubsumerRef { .. } => "subsumer",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["base", "select", "groupby", "select", "groupby", "select"]
        );
        g.validate();
    }

    #[test]
    fn shared_children_are_not_merged() {
        // The scalar subquery stays a separate block (Scalar quantifier).
        let sql = "select flid, (select count(*) from trans) as totcnt from trans";
        let g = build(sql, true);
        // boxes: base(trans), base(trans for subquery), subquery select+gb+top..., outer select
        let root = g.boxed(g.root);
        assert!(root
            .quants
            .iter()
            .any(|&q| g.quant(q).kind == crate::graph::QuantKind::Scalar));
        g.validate();
    }

    #[test]
    fn compact_drops_unreachable() {
        let mut g = build("select qty from trans", false);
        // Add garbage box.
        g.add_box(BoxKind::BaseTable {
            table: "loc".into(),
        });
        assert_eq!(g.boxes.len(), 3);
        super::compact(&mut g);
        assert_eq!(g.boxes.len(), 2);
        g.validate();
    }
}
