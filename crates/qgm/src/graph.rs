//! The QGM graph arena: boxes, quantifiers, output columns.

use crate::expr::{ColRef, ScalarExpr};
use std::sync::atomic::{AtomicU32, Ordering};

/// Globally unique graph identity; tags every [`QuantId`] so expressions can
/// safely mix column spaces during matching.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u32);

/// Zero-padded, so the `Debug` text that expression normalization orders
/// operands by sorts ids numerically, whatever their digit counts.
impl std::fmt::Debug for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GraphId({:010})", self.0)
    }
}

static NEXT_GRAPH_ID: AtomicU32 = AtomicU32::new(1);

/// Index of a box within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxId(pub u32);

/// A quantifier id, tagged with its owning graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuantId {
    /// Owning graph.
    pub graph: GraphId,
    /// Index into that graph's quantifier arena.
    pub idx: u32,
}

/// How a quantifier ranges over its input box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// Ranges over every row (join operand).
    Foreach,
    /// A scalar subquery: must produce exactly one row and one column.
    Scalar,
}

/// A quantifier: the edge from a consumer box to a producer box.
#[derive(Debug, Clone)]
pub struct Quantifier {
    /// The consuming box.
    pub owner: BoxId,
    /// The producing box.
    pub input: BoxId,
    /// Row semantics.
    pub kind: QuantKind,
    /// Correlation name, used for rendering and debugging.
    pub name: String,
}

/// One output column (QCL) of a box.
#[derive(Debug, Clone)]
pub struct OutputCol {
    /// Exposed column name.
    pub name: String,
    /// Defining expression over the box's own quantifiers.
    pub expr: ScalarExpr,
}

/// A SELECT box: select-project-join with predicates.
#[derive(Debug, Clone, Default)]
pub struct SelectBox {
    /// The conjunctive predicates (WHERE/HAVING conjuncts, join predicates).
    pub predicates: Vec<ScalarExpr>,
}

/// A GROUP BY box, possibly multidimensional.
///
/// Output layout invariant: outputs `0..items.len()` are exactly the grouping
/// columns (`Col(items[i])` in order), and the remaining outputs are
/// aggregate calls.
#[derive(Debug, Clone)]
pub struct GroupByBox {
    /// The grouping columns (simple QNCs of the single child), i.e. the union
    /// grouping set GS of Section 5.
    pub items: Vec<ColRef>,
    /// Canonical grouping sets: each is a sorted list of indices into
    /// `items`. A simple GROUP BY has exactly one set covering all items;
    /// `sets == [[]]` is the single grand-total group.
    pub sets: Vec<Vec<usize>>,
}

impl GroupByBox {
    /// True when this box performs plain (single-set, all-items) grouping.
    pub fn is_simple(&self) -> bool {
        self.sets.len() == 1 && self.sets[0].len() == self.items.len()
    }

    /// True when one grouping set is empty: the grand-total group, whose
    /// aggregates also see an empty input.
    pub fn has_grand_total(&self) -> bool {
        self.sets.iter().any(Vec::is_empty)
    }
}

/// Box payloads.
#[derive(Debug, Clone)]
pub enum BoxKind {
    /// A base-table leaf.
    BaseTable {
        /// Catalog table name.
        table: String,
    },
    /// Select-project-join.
    Select(SelectBox),
    /// Grouping and aggregation.
    GroupBy(GroupByBox),
    /// Matcher-internal leaf standing for "the output of the subsumer box".
    /// Never present in translator-produced or final rewritten graphs.
    SubsumerRef {
        /// The graph that owns the subsumer box.
        graph: GraphId,
        /// The subsumer box.
        target: BoxId,
    },
}

/// A QGM box.
#[derive(Debug, Clone)]
pub struct QgmBox {
    /// Operation payload.
    pub kind: BoxKind,
    /// Quantifiers owned by this box, in join order.
    pub quants: Vec<QuantId>,
    /// Output columns (QCLs).
    pub outputs: Vec<OutputCol>,
}

impl QgmBox {
    /// True for SELECT boxes.
    pub fn is_select(&self) -> bool {
        matches!(self.kind, BoxKind::Select(_))
    }

    /// True for GROUP BY boxes.
    pub fn is_group_by(&self) -> bool {
        matches!(self.kind, BoxKind::GroupBy(_))
    }

    /// The SELECT payload, if any.
    pub fn as_select(&self) -> Option<&SelectBox> {
        match &self.kind {
            BoxKind::Select(s) => Some(s),
            _ => None,
        }
    }

    /// The GROUP BY payload, if any.
    pub fn as_group_by(&self) -> Option<&GroupByBox> {
        match &self.kind {
            BoxKind::GroupBy(g) => Some(g),
            _ => None,
        }
    }

    /// Ordinal of the named output column.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.outputs.iter().position(|c| c.name == lname)
    }
}

/// Ordering/limit decoration on the root box (presentation only; ignored by
/// matching, honored by the engine).
#[derive(Debug, Clone, Default)]
pub struct RootOrder {
    /// `(output ordinal, descending)` sort keys.
    pub keys: Vec<(usize, bool)>,
    /// Row limit.
    pub limit: Option<u64>,
}

/// An arena-allocated QGM graph.
#[derive(Debug, Clone)]
pub struct QgmGraph {
    /// Unique identity.
    pub id: GraphId,
    /// Box arena.
    pub boxes: Vec<QgmBox>,
    /// Quantifier arena.
    pub quants: Vec<Quantifier>,
    /// The root box.
    pub root: BoxId,
    /// Presentation ordering attached to the root.
    pub order: RootOrder,
}

impl Default for QgmGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl QgmGraph {
    /// An empty graph with a fresh identity. `root` starts at box 0; set it
    /// after adding boxes.
    pub fn new() -> QgmGraph {
        QgmGraph {
            id: GraphId(NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed)),
            boxes: Vec::new(),
            quants: Vec::new(),
            root: BoxId(0),
            order: RootOrder::default(),
        }
    }

    /// Add a box and return its id.
    pub fn add_box(&mut self, kind: BoxKind) -> BoxId {
        let id = BoxId(self.boxes.len() as u32);
        self.boxes.push(QgmBox {
            kind,
            quants: Vec::new(),
            outputs: Vec::new(),
        });
        id
    }

    /// Add a quantifier from `owner` over `input` and register it on the
    /// owner box.
    pub fn add_quant(
        &mut self,
        owner: BoxId,
        input: BoxId,
        kind: QuantKind,
        name: impl Into<String>,
    ) -> QuantId {
        let qid = QuantId {
            graph: self.id,
            idx: self.quants.len() as u32,
        };
        self.quants.push(Quantifier {
            owner,
            input,
            kind,
            name: name.into(),
        });
        self.boxes[owner.0 as usize].quants.push(qid);
        qid
    }

    /// The box with the given id.
    pub fn boxed(&self, id: BoxId) -> &QgmBox {
        &self.boxes[id.0 as usize]
    }

    /// Mutable access to a box.
    pub fn boxed_mut(&mut self, id: BoxId) -> &mut QgmBox {
        &mut self.boxes[id.0 as usize]
    }

    /// The quantifier with the given id (must belong to this graph).
    pub fn quant(&self, q: QuantId) -> &Quantifier {
        assert_eq!(q.graph, self.id, "quantifier from foreign graph");
        &self.quants[q.idx as usize]
    }

    /// The box a quantifier ranges over.
    pub fn input_of(&self, q: QuantId) -> BoxId {
        self.quant(q).input
    }

    /// Number of quantifiers (across all boxes) that consume `b`.
    pub fn consumer_count(&self, b: BoxId) -> usize {
        self.quants.iter().filter(|q| q.input == b).count()
    }

    /// Boxes reachable from the root, in bottom-up (post) order.
    pub fn topo_order(&self) -> Vec<BoxId> {
        let mut visited = vec![false; self.boxes.len()];
        let mut out = Vec::new();
        self.visit_post(self.root, &mut visited, &mut out);
        out
    }

    fn visit_post(&self, b: BoxId, visited: &mut [bool], out: &mut Vec<BoxId>) {
        if visited[b.0 as usize] {
            return;
        }
        visited[b.0 as usize] = true;
        for &q in &self.boxed(b).quants.clone() {
            self.visit_post(self.input_of(q), visited, out);
        }
        out.push(b);
    }

    /// Copy the subgraph rooted at `src_root` in `src` into `self`,
    /// remapping box and quantifier ids. Returns the new root id.
    ///
    /// `SubsumerRef` leaves are copied verbatim (their targets reference a
    /// *foreign* graph by design).
    pub fn clone_subgraph(&mut self, src: &QgmGraph, src_root: BoxId) -> BoxId {
        let mut box_map: std::collections::HashMap<BoxId, BoxId> = std::collections::HashMap::new();
        self.clone_rec(src, src_root, &mut box_map)
    }

    fn clone_rec(
        &mut self,
        src: &QgmGraph,
        b: BoxId,
        box_map: &mut std::collections::HashMap<BoxId, BoxId>,
    ) -> BoxId {
        if let Some(&nb) = box_map.get(&b) {
            return nb;
        }
        let src_box = src.boxed(b);
        let new_id = self.add_box(src_box.kind.clone());
        box_map.insert(b, new_id);
        // Clone children first, creating remapped quantifiers.
        let mut quant_map: std::collections::HashMap<QuantId, QuantId> =
            std::collections::HashMap::new();
        for &q in &src_box.quants.clone() {
            let src_q = src.quant(q);
            let new_child = self.clone_rec(src, src_q.input, box_map);
            let new_q = self.add_quant(new_id, new_child, src_q.kind, src_q.name.clone());
            quant_map.insert(q, new_q);
        }
        // Remap expressions.
        let remap = |e: &ScalarExpr| -> ScalarExpr { remap_expr(e, &quant_map) };
        let src_box = src.boxed(b); // re-borrow after mutation
        let outputs = src_box
            .outputs
            .iter()
            .map(|c| OutputCol {
                name: c.name.clone(),
                expr: remap(&c.expr),
            })
            .collect();
        self.boxed_mut(new_id).outputs = outputs;
        let new_kind = match &src.boxed(b).kind {
            BoxKind::Select(s) => BoxKind::Select(SelectBox {
                predicates: s.predicates.iter().map(remap).collect(),
            }),
            BoxKind::GroupBy(g) => BoxKind::GroupBy(GroupByBox {
                items: g
                    .items
                    .iter()
                    .map(|c| ColRef {
                        qid: quant_map[&c.qid],
                        ordinal: c.ordinal,
                    })
                    .collect(),
                sets: g.sets.clone(),
            }),
            other => other.clone(),
        };
        self.boxed_mut(new_id).kind = new_kind;
        new_id
    }

    /// Structural sanity checks; panics with a description on violation.
    /// Call from tests and after graph surgery; library code should prefer
    /// [`crate::verify::verify_structure`].
    pub fn validate(&self) {
        if let Err(e) = crate::verify::verify_structure(self) {
            panic!("invalid QGM graph: {e}");
        }
    }
}

/// The column names of a summary table's backing table: the root's output
/// names, a repeat of an earlier name suffixed `_2`, `_3`, ... until it is
/// unique.
pub fn backing_column_names(g: &QgmGraph) -> Vec<String> {
    let mut used = std::collections::HashSet::new();
    g.boxed(g.root)
        .outputs
        .iter()
        .map(|oc| {
            let mut name = oc.name.clone();
            for n in 2.. {
                if used.insert(name.clone()) {
                    break;
                }
                name = format!("{}_{n}", oc.name);
            }
            name
        })
        .collect()
}

/// Remap quantifier ids in an expression according to `quant_map`; ids
/// missing from the map (foreign-graph references) are kept as-is.
pub fn remap_expr(
    e: &ScalarExpr,
    quant_map: &std::collections::HashMap<QuantId, QuantId>,
) -> ScalarExpr {
    match e {
        ScalarExpr::Agg(a) => {
            let arg = a.arg.map(|c| ColRef {
                qid: quant_map.get(&c.qid).copied().unwrap_or(c.qid),
                ordinal: c.ordinal,
            });
            ScalarExpr::Agg(crate::expr::AggCall { arg, ..*a })
        }
        other => other.map_cols(&mut |c| {
            ScalarExpr::Col(ColRef {
                qid: quant_map.get(&c.qid).copied().unwrap_or(c.qid),
                ordinal: c.ordinal,
            })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sumtab_catalog::Value;
    use sumtab_parser::BinOp;

    /// Build a tiny graph: BaseTable -> Select(root).
    fn tiny() -> QgmGraph {
        let mut g = QgmGraph::new();
        let t = g.add_box(BoxKind::BaseTable { table: "t".into() });
        g.boxed_mut(t).outputs = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::BaseCol(0),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::BaseCol(1),
            },
        ];
        let s = g.add_box(BoxKind::Select(SelectBox::default()));
        let q = g.add_quant(s, t, QuantKind::Foreach, "t");
        g.boxed_mut(s).outputs = vec![OutputCol {
            name: "a".into(),
            expr: ScalarExpr::col(q, 0),
        }];
        if let BoxKind::Select(sel) = &mut g.boxed_mut(s).kind {
            sel.predicates.push(ScalarExpr::bin(
                BinOp::Gt,
                ScalarExpr::col(q, 1),
                ScalarExpr::Lit(Value::Int(5)),
            ));
        }
        g.root = s;
        g
    }

    #[test]
    fn build_and_validate() {
        let g = tiny();
        g.validate();
        assert_eq!(g.topo_order().len(), 2);
        assert_eq!(g.consumer_count(BoxId(0)), 1);
        assert_eq!(g.consumer_count(g.root), 0);
    }

    #[test]
    fn clone_subgraph_remaps_ids() {
        let g = tiny();
        let mut dst = QgmGraph::new();
        let new_root = dst.clone_subgraph(&g, g.root);
        dst.root = new_root;
        dst.validate();
        assert_eq!(dst.boxes.len(), 2);
        assert_eq!(dst.quants.len(), 1);
        // All colrefs belong to dst now.
        for b in &dst.boxes {
            for c in &b.outputs {
                for r in c.expr.col_refs() {
                    assert_eq!(r.qid.graph, dst.id);
                }
            }
        }
    }

    #[test]
    fn clone_shares_common_subtrees() {
        // Diamond: two selects over one base table, joined above.
        let mut g = QgmGraph::new();
        let t = g.add_box(BoxKind::BaseTable { table: "t".into() });
        g.boxed_mut(t).outputs = vec![OutputCol {
            name: "a".into(),
            expr: ScalarExpr::BaseCol(0),
        }];
        let top = g.add_box(BoxKind::Select(SelectBox::default()));
        let q1 = g.add_quant(top, t, QuantKind::Foreach, "t1");
        let q2 = g.add_quant(top, t, QuantKind::Foreach, "t2");
        g.boxed_mut(top).outputs = vec![
            OutputCol {
                name: "x".into(),
                expr: ScalarExpr::col(q1, 0),
            },
            OutputCol {
                name: "y".into(),
                expr: ScalarExpr::col(q2, 0),
            },
        ];
        g.root = top;
        g.validate();
        let mut dst = QgmGraph::new();
        let r = dst.clone_subgraph(&g, g.root);
        dst.root = r;
        dst.validate();
        // The shared base table is cloned once, referenced twice.
        assert_eq!(dst.boxes.len(), 2);
        assert_eq!(dst.quants.len(), 2);
    }

    #[test]
    fn group_by_simple_detection() {
        let gb = GroupByBox {
            items: vec![],
            sets: vec![vec![]],
        };
        assert!(gb.is_simple());
        let gb2 = GroupByBox {
            items: vec![ColRef {
                qid: QuantId {
                    graph: GraphId(1),
                    idx: 0,
                },
                ordinal: 0,
            }],
            sets: vec![vec![0], vec![]],
        };
        assert!(!gb2.is_simple());
    }

    #[test]
    #[should_panic(expected = "foreign quantifier")]
    fn validate_catches_foreign_refs() {
        let mut g = tiny();
        let alien = QuantId {
            graph: GraphId(99_999),
            idx: 0,
        };
        g.boxed_mut(g.root).outputs[0].expr = ScalarExpr::col(alien, 0);
        g.validate();
    }
}
