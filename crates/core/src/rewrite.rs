//! Final rewrite construction: splice the winning compensation into the
//! query over the AST's materialized backing table.

use crate::context::{Ctx, MatchEntry};
use std::collections::HashMap;
use sumtab_qgm::{
    BoxId, BoxKind, ColRef, GroupByBox, OutputCol, QgmGraph, QuantId, ScalarExpr, SelectBox,
};

/// Maximum box-nesting depth the rewrite builder will walk before giving up
/// with an error instead of risking a stack overflow.
pub const MAX_REWRITE_DEPTH: usize = 256;

/// Build the rewritten query graph for a match of query box `matched` (an
/// entry against the AST root). `backing` names the AST's materialized
/// table; `backing_cols` are its column names (ordinals identical to the
/// AST root's outputs).
///
/// Returns `Err` when the match tables are internally inconsistent (e.g. a
/// compensation leaf that does not target the AST root) or the walk exceeds
/// [`MAX_REWRITE_DEPTH`]; these are matcher bugs surfaced as data, not
/// panics, so a caller can fall back to the un-rewritten plan.
pub fn build_rewrite(
    ctx: &Ctx<'_>,
    matched: BoxId,
    entry: &MatchEntry,
    backing: &str,
    backing_cols: &[String],
) -> Result<QgmGraph, String> {
    let mut out = QgmGraph::new();
    out.order = ctx.q.order.clone();

    let mut builder = RewriteBuilder {
        ctx,
        out: &mut out,
        backing,
        backing_cols,
        comp_map: HashMap::new(),
        q_map: HashMap::new(),
        quant_map: HashMap::new(),
        depth: 0,
    };

    // The replacement subtree for the matched query box.
    let replacement = match entry.comp_root {
        Some(root) => builder.clone_comp(root)?,
        None => builder.exact_projection(matched, &entry.colmap),
    };

    // Clone the query graph, substituting the replacement at `matched`.
    let root = if matched == ctx.q.root {
        replacement
    } else {
        builder.clone_query(ctx.q.root, matched, replacement)?
    };
    out.root = root;
    Ok(out)
}

struct RewriteBuilder<'a, 'b> {
    ctx: &'a Ctx<'b>,
    out: &'a mut QgmGraph,
    backing: &'a str,
    backing_cols: &'a [String],
    comp_map: HashMap<BoxId, BoxId>,
    q_map: HashMap<BoxId, BoxId>,
    quant_map: HashMap<QuantId, QuantId>,
    depth: usize,
}

impl RewriteBuilder<'_, '_> {
    /// Bump the walk depth, erroring out past [`MAX_REWRITE_DEPTH`].
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_REWRITE_DEPTH {
            return Err(format!(
                "rewrite walk exceeded {MAX_REWRITE_DEPTH} nested boxes"
            ));
        }
        Ok(())
    }

    /// A base-table box over the materialized AST.
    fn backing_box(&mut self) -> BoxId {
        let b = self.out.add_box(BoxKind::BaseTable {
            table: self.backing.to_string(),
        });
        self.out.boxed_mut(b).outputs = self
            .backing_cols
            .iter()
            .enumerate()
            .map(|(i, name)| OutputCol {
                name: name.clone(),
                expr: ScalarExpr::BaseCol(i),
            })
            .collect();
        b
    }

    /// For an exact match: a projection SELECT over the backing table.
    fn exact_projection(&mut self, matched: BoxId, colmap: &[usize]) -> BoxId {
        let base = self.backing_box();
        let sel = self.out.add_box(BoxKind::Select(SelectBox::default()));
        let q = self
            .out
            .add_quant(sel, base, sumtab_qgm::QuantKind::Foreach, self.backing);
        let names: Vec<String> = self
            .ctx
            .q
            .boxed(matched)
            .outputs
            .iter()
            .map(|oc| oc.name.clone())
            .collect();
        self.out.boxed_mut(sel).outputs = colmap
            .iter()
            .zip(names)
            .map(|(&ord, name)| OutputCol {
                name,
                expr: ScalarExpr::col(q, ord),
            })
            .collect();
        sel
    }

    /// Clone a compensation fragment, replacing `SubsumerRef` leaves that
    /// target the AST root with the backing table.
    fn clone_comp(&mut self, b: BoxId) -> Result<BoxId, String> {
        if let Some(&m) = self.comp_map.get(&b) {
            return Ok(m);
        }
        self.enter()?;
        let src = self.ctx.comp.boxed(b).clone();
        if let BoxKind::SubsumerRef { target, .. } = &src.kind {
            if *target != self.ctx.a.root {
                return Err(format!(
                    "compensation leaf targets box {target:?}, not the AST root \
                     {:?}",
                    self.ctx.a.root
                ));
            }
            let nb = self.backing_box();
            self.comp_map.insert(b, nb);
            self.depth -= 1;
            return Ok(nb);
        }
        let new_id = self.out.add_box(BoxKind::Select(SelectBox::default()));
        self.comp_map.insert(b, new_id);
        for &q in &src.quants {
            let quant = self.ctx.comp.quant(q);
            let child = self.clone_comp(quant.input)?;
            let nq = self
                .out
                .add_quant(new_id, child, quant.kind, quant.name.clone());
            self.quant_map.insert(q, nq);
        }
        self.fill_box(new_id, &src)?;
        self.depth -= 1;
        Ok(new_id)
    }

    /// Clone the query graph from `b`, substituting `replacement` for the
    /// subtree rooted at `matched`.
    fn clone_query(
        &mut self,
        b: BoxId,
        matched: BoxId,
        replacement: BoxId,
    ) -> Result<BoxId, String> {
        if b == matched {
            return Ok(replacement);
        }
        if let Some(&m) = self.q_map.get(&b) {
            return Ok(m);
        }
        self.enter()?;
        let src = self.ctx.q.boxed(b).clone();
        let new_id = self.out.add_box(BoxKind::Select(SelectBox::default()));
        self.q_map.insert(b, new_id);
        for &q in &src.quants {
            let quant = self.ctx.q.quant(q);
            let child = self.clone_query(quant.input, matched, replacement)?;
            let nq = self
                .out
                .add_quant(new_id, child, quant.kind, quant.name.clone());
            self.quant_map.insert(q, nq);
        }
        self.fill_box(new_id, &src)?;
        self.depth -= 1;
        Ok(new_id)
    }

    /// Copy a source box's kind/outputs with quantifier remapping.
    fn fill_box(&mut self, new_id: BoxId, src: &sumtab_qgm::QgmBox) -> Result<(), String> {
        let remap = |e: &ScalarExpr| sumtab_qgm::graph::remap_expr(e, &self.quant_map);
        let outputs: Vec<OutputCol> = src
            .outputs
            .iter()
            .map(|oc| OutputCol {
                name: oc.name.clone(),
                expr: remap(&oc.expr),
            })
            .collect();
        let kind = match &src.kind {
            BoxKind::Select(s) => BoxKind::Select(SelectBox {
                predicates: s.predicates.iter().map(remap).collect(),
            }),
            BoxKind::GroupBy(g) => {
                let mut items = Vec::with_capacity(g.items.len());
                for c in &g.items {
                    let qid = *self.quant_map.get(&c.qid).ok_or_else(|| {
                        format!("group-by item references unmapped quantifier {:?}", c.qid)
                    })?;
                    items.push(ColRef {
                        qid,
                        ordinal: c.ordinal,
                    });
                }
                BoxKind::GroupBy(GroupByBox {
                    items,
                    sets: g.sets.clone(),
                })
            }
            BoxKind::BaseTable { table } => BoxKind::BaseTable {
                table: table.clone(),
            },
            BoxKind::SubsumerRef { .. } => {
                return Err("subsumer reference survived into a cloned interior box".to_string())
            }
        };
        let nb = self.out.boxed_mut(new_id);
        nb.outputs = outputs;
        nb.kind = kind;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use crate::{RegisteredAst, Rewriter};
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;
    use sumtab_qgm::{build_query, BoxKind};

    /// The rewriter must replace the HIGHEST matched query box — covering
    /// the most work with the AST (HAVING included in the match, not
    /// recomputed over base tables).
    #[test]
    fn rewrite_replaces_the_highest_matching_box() {
        let cat = Catalog::credit_card_sample();
        let ast = RegisteredAst::from_sql(
            "a",
            "select faid, count(*) as cnt from trans group by faid",
            &cat,
        )
        .unwrap();
        let q = build_query(
            &parse_query(
                "select faid, count(*) as cnt from trans group by faid \
                 having count(*) > 5",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let rw = Rewriter::new(&cat).rewrite(&q, &ast).unwrap().unwrap();
        assert_eq!(rw.replaced_box, q.root, "top select (with HAVING) matched");
        // The rewritten graph must not scan the fact table at all.
        assert!(!rw
            .graph
            .boxes
            .iter()
            .any(|b| matches!(&b.kind, BoxKind::BaseTable { table } if table == "trans")));
    }
}
