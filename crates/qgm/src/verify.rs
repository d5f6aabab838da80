//! Multi-pass static verification of QGM graphs ("the plan verifier").
//!
//! The rewriting machinery of Sections 4–6 is only sound if every graph it
//! produces still *is* a QGM graph: an acyclic arena of well-wired boxes
//! whose expressions reference existing columns, whose grouping sets are in
//! the canonical form of Section 5, and whose root exposes the same schema
//! the user asked for. This module machine-checks those properties at every
//! transformation boundary (builder, normalizer, rewriter, maintenance,
//! program compilation) instead of trusting that the differential tests
//! happened to cover the offending shape.
//!
//! Three passes live here; the fourth (the compiled-program verifier) lives
//! with the bytecode in `sumtab-engine::program` and reports through the
//! same [`VerifyError`] type:
//!
//! 1. **Structural** ([`verify_structure`] / [`verify_plan_structure`]):
//!    arena-reference validity, DAG acyclicity from a single reachable root,
//!    no orphan boxes, quantifier↔box wiring, canonical `gs(...)` grouping
//!    sets.
//! 2. **Typing** ([`verify_types`]): propagates catalog column
//!    types/nullability bottom-up and requires boolean predicates, numeric
//!    `SUM` inputs, normalized aggregates, and base-table outputs that
//!    actually exist in the catalog.
//! 3. **Rewrite soundness** ([`verify_schema_preservation`] /
//!    [`verify_backing_projection`]): a rewritten graph must expose the
//!    original root schema (names, order, types, nullability direction) and
//!    may only read columns the registered AST definition exposes.
//!
//! Gating: every call site guards with [`runtime_checks_enabled`], which is
//! always true in debug builds and opt-in via `SUMTAB_VERIFY=1` in release
//! builds — the release hot path pays one branch on a cached boolean.

use crate::expr::{ColRef, ScalarExpr};
use crate::graph::{BoxId, BoxKind, QgmGraph, QuantId, QuantKind};
use crate::types::{infer_output_types, ColMeta};
use std::collections::HashSet;
use std::sync::OnceLock;
use sumtab_catalog::{Catalog, SqlType};
use sumtab_parser::AggFunc;

/// Which analysis pass rejected the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyPass {
    /// Pass 1: arena references, acyclicity, wiring, canonical grouping sets.
    Structural,
    /// Pass 2: type/nullability propagation and per-box typing rules.
    Typing,
    /// Pass 3: rewrite soundness (schema preservation, AST column usage).
    Schema,
    /// Pass 4: compiled postfix-program checks (stack balance, jumps, slots).
    Program,
}

impl std::fmt::Display for VerifyPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerifyPass::Structural => "structural",
            VerifyPass::Typing => "typing",
            VerifyPass::Schema => "rewrite-soundness",
            VerifyPass::Program => "program",
        })
    }
}

/// A typed verification failure: the pass that fired, the offending box
/// (when one is identifiable), a root-relative box path, and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The pass that rejected the plan.
    pub pass: VerifyPass,
    /// The offending box, when the failure is attributable to one.
    pub box_id: Option<BoxId>,
    /// Human-readable location, e.g. `root/b1/b0(base:trans)`.
    pub path: String,
    /// What was violated.
    pub reason: String,
}

impl VerifyError {
    /// A structural-pass failure at `b`.
    pub fn structural(g: &QgmGraph, b: BoxId, reason: impl Into<String>) -> VerifyError {
        VerifyError {
            pass: VerifyPass::Structural,
            box_id: Some(b),
            path: box_path(g, b),
            reason: reason.into(),
        }
    }

    /// A typing-pass failure at `b`.
    pub fn typing(g: &QgmGraph, b: BoxId, reason: impl Into<String>) -> VerifyError {
        VerifyError {
            pass: VerifyPass::Typing,
            box_id: Some(b),
            path: box_path(g, b),
            reason: reason.into(),
        }
    }

    /// A rewrite-soundness failure (graph-level, no single box).
    pub fn schema(reason: impl Into<String>) -> VerifyError {
        VerifyError {
            pass: VerifyPass::Schema,
            box_id: None,
            path: "root".to_string(),
            reason: reason.into(),
        }
    }

    /// A program-pass failure attributed to box number `box_id`.
    pub fn program(box_id: u32, reason: impl Into<String>) -> VerifyError {
        VerifyError {
            pass: VerifyPass::Program,
            box_id: Some(BoxId(box_id)),
            path: format!("b{box_id}"),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verify: {} pass failed at {}: {}",
            self.pass, self.path, self.reason
        )
    }
}

impl std::error::Error for VerifyError {}

/// Should the verification gates run? Always in debug builds; in release
/// builds only when `SUMTAB_VERIFY=1` (or `true`) is set, so the hot path
/// costs a single branch on a cached boolean.
pub fn runtime_checks_enabled() -> bool {
    if cfg!(debug_assertions) {
        return true;
    }
    env_verify_requested()
}

/// Was verification explicitly requested through the environment
/// (`SUMTAB_VERIFY=1`)? Exposed separately so benchmarks can assert the
/// gates are off in release mode unless opted in.
pub fn env_verify_requested() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("SUMTAB_VERIFY")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// Best-effort root-relative path to `b`, e.g. `root/b2/b0(base:trans)`.
/// Shared with the maintainability analyzer so its obstructions locate
/// boxes the same way verifier errors do.
pub(crate) fn box_path(g: &QgmGraph, b: BoxId) -> String {
    let label = |id: BoxId| -> String {
        let tag = match g.boxes.get(id.0 as usize).map(|bx| &bx.kind) {
            Some(BoxKind::BaseTable { table }) => format!("base:{table}"),
            Some(BoxKind::Select(_)) => "select".to_string(),
            Some(BoxKind::GroupBy(_)) => "group-by".to_string(),
            Some(BoxKind::SubsumerRef { .. }) => "subsumer-ref".to_string(),
            None => "out-of-range".to_string(),
        };
        format!("b{}({tag})", id.0)
    };
    if b == g.root {
        return format!("root:{}", label(b));
    }
    // BFS from the root recording parents; unreachable boxes get a bare tag.
    let n = g.boxes.len();
    if (g.root.0 as usize) >= n || (b.0 as usize) >= n {
        return label(b);
    }
    let mut parent: Vec<Option<BoxId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([g.root]);
    seen[g.root.0 as usize] = true;
    while let Some(cur) = queue.pop_front() {
        for &q in &g.boxes[cur.0 as usize].quants {
            if q.graph != g.id || (q.idx as usize) >= g.quants.len() {
                continue;
            }
            let child = g.quants[q.idx as usize].input;
            if (child.0 as usize) < n && !seen[child.0 as usize] {
                seen[child.0 as usize] = true;
                parent[child.0 as usize] = Some(cur);
                queue.push_back(child);
            }
        }
    }
    if !seen[b.0 as usize] {
        return format!("{} (unreachable)", label(b));
    }
    let mut segs = vec![label(b)];
    let mut cur = b;
    while let Some(p) = parent[cur.0 as usize] {
        segs.push(if p == g.root {
            "root".to_string()
        } else {
            format!("b{}", p.0)
        });
        cur = p;
    }
    segs.reverse();
    segs.join("/")
}

/// Pass 1 in the permissive mode used by matcher-internal graphs: foreign
/// quantifiers and `SubsumerRef` leaves are tolerated (their targets live in
/// another graph by design), everything else is enforced.
pub fn verify_structure(g: &QgmGraph) -> Result<(), VerifyError> {
    structure(g, false)
}

/// Pass 1 in strict mode for final (executable) plans: additionally rejects
/// `SubsumerRef` boxes and foreign-graph quantifiers, which must never
/// survive translation or rewriting.
pub fn verify_plan_structure(g: &QgmGraph) -> Result<(), VerifyError> {
    structure(g, true)
}

fn structure(g: &QgmGraph, strict: bool) -> Result<(), VerifyError> {
    let n = g.boxes.len();
    let err = |b: BoxId, reason: String| Err(VerifyError::structural(g, b, reason));
    if (g.root.0 as usize) >= n {
        return Err(VerifyError {
            pass: VerifyPass::Structural,
            box_id: None,
            path: "root".to_string(),
            reason: format!(
                "root box id {} out of range (arena has {n} boxes)",
                g.root.0
            ),
        });
    }
    // Quantifier arena: endpoints in range, reverse wiring intact.
    for (i, q) in g.quants.iter().enumerate() {
        if (q.owner.0 as usize) >= n {
            return Err(VerifyError::structural(
                g,
                g.root,
                format!("quantifier {i} owner box {} out of range", q.owner.0),
            ));
        }
        if (q.input.0 as usize) >= n {
            return err(
                q.owner,
                format!(
                    "quantifier {i} input box {} dangling (arena has {n} boxes)",
                    q.input.0
                ),
            );
        }
        let own_id = QuantId {
            graph: g.id,
            idx: i as u32,
        };
        if !g.boxes[q.owner.0 as usize].quants.contains(&own_id) {
            return err(
                q.owner,
                format!("quantifier {i} not listed by its owner box {}", q.owner.0),
            );
        }
    }
    // Forward wiring + per-box invariants.
    for (bi, b) in g.boxes.iter().enumerate() {
        let bid = BoxId(bi as u32);
        for &q in &b.quants {
            if q.graph != g.id {
                if strict {
                    return err(
                        bid,
                        format!(
                            "foreign quantifier q{} (graph {}) in final plan",
                            q.idx, q.graph.0
                        ),
                    );
                }
                continue;
            }
            if (q.idx as usize) >= g.quants.len() {
                return err(bid, format!("dangling quantifier id q{}", q.idx));
            }
            if g.quants[q.idx as usize].owner != bid {
                return err(bid, format!("lists quantifier q{} it does not own", q.idx));
            }
            if g.quants[q.idx as usize].kind == QuantKind::Scalar {
                let input = g.quants[q.idx as usize].input;
                let outs = g.boxes[input.0 as usize].outputs.len();
                if outs != 1
                    && !matches!(g.boxes[input.0 as usize].kind, BoxKind::SubsumerRef { .. })
                {
                    return err(
                        bid,
                        format!(
                            "scalar quantifier q{} input has {outs} output columns, expected 1",
                            q.idx
                        ),
                    );
                }
            }
        }
        let own: HashSet<QuantId> = b.quants.iter().copied().collect();
        let check_ref = |c: ColRef, what: &str| -> Result<(), VerifyError> {
            if !own.contains(&c.qid) {
                return Err(VerifyError::structural(
                    g,
                    bid,
                    format!("{what} references foreign quantifier {c}"),
                ));
            }
            if c.qid.graph == g.id {
                let input = g.quants[c.qid.idx as usize].input;
                let inbox = &g.boxes[input.0 as usize];
                if c.ordinal >= inbox.outputs.len()
                    && !matches!(inbox.kind, BoxKind::SubsumerRef { .. })
                {
                    return Err(VerifyError::structural(
                        g,
                        bid,
                        format!(
                            "{what} ordinal {} out of range (input box {} has {} outputs)",
                            c.ordinal,
                            input.0,
                            inbox.outputs.len()
                        ),
                    ));
                }
            }
            Ok(())
        };
        let check_expr = |e: &ScalarExpr, what: &str| -> Result<(), VerifyError> {
            for c in e.col_refs() {
                check_ref(c, what)?;
            }
            Ok(())
        };
        match &b.kind {
            BoxKind::BaseTable { .. } => {
                if !b.quants.is_empty() {
                    return err(bid, "base table box has quantifiers".to_string());
                }
                for c in &b.outputs {
                    if !matches!(c.expr, ScalarExpr::BaseCol(_)) {
                        return err(bid, "base table output must be BaseCol".to_string());
                    }
                }
            }
            BoxKind::Select(s) => {
                for c in &b.outputs {
                    if c.expr.contains_agg() {
                        return err(
                            bid,
                            format!("select output `{}` contains aggregate", c.name),
                        );
                    }
                    check_expr(&c.expr, "output")?;
                }
                for p in &s.predicates {
                    check_expr(p, "predicate")?;
                }
            }
            BoxKind::GroupBy(gb) => {
                let foreach = b
                    .quants
                    .iter()
                    .filter(|q| {
                        q.graph != g.id || g.quants[q.idx as usize].kind == QuantKind::Foreach
                    })
                    .count();
                if foreach != 1 {
                    return err(
                        bid,
                        format!("group-by box needs exactly 1 child, has {foreach}"),
                    );
                }
                for cr in &gb.items {
                    check_ref(*cr, "grouping item")?;
                }
                // Canonical gs(...) form (Section 5): each set strictly
                // ascending (sorted + deduped), indices in range, and no
                // duplicate sets in the list.
                let mut seen_sets: HashSet<&[usize]> = HashSet::new();
                for s in &gb.sets {
                    if !s.windows(2).all(|w| w[0] < w[1]) {
                        return err(bid, format!("grouping set {s:?} not sorted/deduped"));
                    }
                    if let Some(&i) = s.iter().find(|&&i| i >= gb.items.len()) {
                        return err(
                            bid,
                            format!(
                                "grouping set index {i} out of range ({} items)",
                                gb.items.len()
                            ),
                        );
                    }
                    if !seen_sets.insert(s.as_slice()) {
                        return err(bid, format!("duplicate grouping set {s:?}"));
                    }
                }
                if gb.sets.is_empty() {
                    return err(bid, "group-by box has no grouping sets".to_string());
                }
                for (i, c) in b.outputs.iter().enumerate() {
                    match &c.expr {
                        ScalarExpr::Col(cr) => {
                            if !gb.items.contains(cr) {
                                return err(
                                    bid,
                                    format!(
                                        "output {i} (`{}`) must reference a grouping item",
                                        c.name
                                    ),
                                );
                            }
                        }
                        ScalarExpr::Agg(_) => {}
                        other => {
                            return err(
                                bid,
                                format!(
                                    "output {i} must be grouping item or aggregate, got {other:?}"
                                ),
                            )
                        }
                    }
                    check_expr(&c.expr, "output")?;
                }
            }
            BoxKind::SubsumerRef { .. } => {
                if strict {
                    return err(
                        bid,
                        "matcher-internal SubsumerRef box in final plan".to_string(),
                    );
                }
                if !b.quants.is_empty() {
                    return err(bid, "subsumer-ref box has quantifiers".to_string());
                }
            }
        }
    }
    // Acyclicity + reachability: iterative colored DFS from the root.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    // (box, next-child-index) stack.
    let mut stack: Vec<(BoxId, usize)> = vec![(g.root, 0)];
    color[g.root.0 as usize] = Color::Gray;
    while let Some(top) = stack.len().checked_sub(1) {
        let (b, next) = stack[top];
        let quants = &g.boxes[b.0 as usize].quants;
        if next >= quants.len() {
            color[b.0 as usize] = Color::Black;
            stack.pop();
            continue;
        }
        stack[top].1 += 1;
        let q = quants[next];
        if q.graph != g.id {
            continue;
        }
        let child = g.quants[q.idx as usize].input;
        match color[child.0 as usize] {
            Color::Gray => {
                return err(
                    b,
                    format!("cycle: box {} reaches itself through box {}", child.0, b.0),
                );
            }
            Color::White => {
                color[child.0 as usize] = Color::Gray;
                stack.push((child, 0));
            }
            Color::Black => {}
        }
    }
    if let Some(orphan) = (0..n).find(|&i| color[i] != Color::Black) {
        return err(
            BoxId(orphan as u32),
            "orphan box not reachable from the root".to_string(),
        );
    }
    if g.boxes[g.root.0 as usize].outputs.is_empty() {
        return err(g.root, "root box has no output columns".to_string());
    }
    Ok(())
}

/// Numeric types accepted as `SUM`/`AVG` inputs.
fn numeric(ty: SqlType) -> bool {
    matches!(ty, SqlType::Int | SqlType::Double)
}

/// Pass 2: propagate catalog types/nullability bottom-up and enforce per-box
/// typing rules. Requires a structurally valid graph (run pass 1 first);
/// unknown catalog tables contribute unknown types rather than failing, so
/// matcher fixtures without registered backing tables still verify.
pub fn verify_types(g: &QgmGraph, catalog: &Catalog) -> Result<(), VerifyError> {
    let metas = infer_output_types(g, catalog);
    for b in g.topo_order() {
        let bx = g.boxed(b);
        match &bx.kind {
            BoxKind::BaseTable { table } => {
                if let Some(t) = catalog.table(table) {
                    for (i, c) in bx.outputs.iter().enumerate() {
                        let ScalarExpr::BaseCol(j) = c.expr else {
                            continue; // structural pass already rejected
                        };
                        let Some(col) = t.columns.get(j) else {
                            return Err(VerifyError::typing(
                                g,
                                b,
                                format!(
                                    "output {i} reads column ordinal {j} but table `{table}` has {} columns",
                                    t.columns.len()
                                ),
                            ));
                        };
                        if !c.name.eq_ignore_ascii_case(&col.name) {
                            return Err(VerifyError::typing(
                                g,
                                b,
                                format!(
                                    "output {i} named `{}` but `{table}` column {j} is `{}`",
                                    c.name, col.name
                                ),
                            ));
                        }
                    }
                }
            }
            BoxKind::Select(s) => {
                for p in &s.predicates {
                    let m = crate::types::infer_expr(g, b, p, &metas);
                    if let Some(ty) = m.ty {
                        if ty != SqlType::Bool {
                            return Err(VerifyError::typing(
                                g,
                                b,
                                format!("predicate has type {ty:?}, expected Bool"),
                            ));
                        }
                    }
                }
            }
            BoxKind::GroupBy(_) => {
                for (i, c) in bx.outputs.iter().enumerate() {
                    let ScalarExpr::Agg(a) = &c.expr else {
                        continue;
                    };
                    if a.func == AggFunc::Avg {
                        return Err(VerifyError::typing(
                            g,
                            b,
                            format!("output {i} (`{}`) is an un-normalized AVG", c.name),
                        ));
                    }
                    if a.func == AggFunc::Sum {
                        let arg_meta = a
                            .arg
                            .map(|cr| crate::types::infer_expr(g, b, &ScalarExpr::Col(cr), &metas));
                        if let Some(ColMeta { ty: Some(ty), .. }) = arg_meta {
                            if !numeric(ty) {
                                return Err(VerifyError::typing(
                                    g,
                                    b,
                                    format!(
                                        "output {i} (`{}`): SUM over non-numeric {ty:?}",
                                        c.name
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            BoxKind::SubsumerRef { .. } => {}
        }
    }
    Ok(())
}

/// Passes 1+2 over a final (executable) plan.
pub fn verify_plan(g: &QgmGraph, catalog: &Catalog) -> Result<(), VerifyError> {
    verify_plan_structure(g)?;
    verify_types(g, catalog)
}

/// Pass 3a: the rewritten graph must expose the original root schema —
/// same arity, same column names in the same order, equal types where both
/// are known, and no *narrowing* of nullability (a rewrite may widen
/// nullability: `COUNT(*)` derived as `SUM(cnt)` over an empty summary is
/// NULL where the original COUNT is 0 — the classic empty-input edge the
/// paper's derivation table glosses over — but must never claim non-NULL
/// where the original could be NULL... nor the reverse: we reject only the
/// direction that invents non-nullability, `original nullable` →
/// `rewritten non-nullable`).
pub fn verify_schema_preservation(
    original: &QgmGraph,
    rewritten: &QgmGraph,
    catalog: &Catalog,
) -> Result<(), VerifyError> {
    let o = &original.boxed(original.root).outputs;
    let r = &rewritten.boxed(rewritten.root).outputs;
    if o.len() != r.len() {
        return Err(VerifyError::schema(format!(
            "rewrite changed output arity: {} -> {}",
            o.len(),
            r.len()
        )));
    }
    for (i, (oc, rc)) in o.iter().zip(r.iter()).enumerate() {
        if !oc.name.eq_ignore_ascii_case(&rc.name) {
            return Err(VerifyError::schema(format!(
                "rewrite renamed output {i}: `{}` -> `{}`",
                oc.name, rc.name
            )));
        }
    }
    let om = infer_output_types(original, catalog);
    let rm = infer_output_types(rewritten, catalog);
    let empty: Vec<ColMeta> = Vec::new();
    let omr = om.get(&original.root).unwrap_or(&empty);
    let rmr = rm.get(&rewritten.root).unwrap_or(&empty);
    for i in 0..o.len().min(omr.len()).min(rmr.len()) {
        if let (Some(ot), Some(rt)) = (omr[i].ty, rmr[i].ty) {
            if ot != rt {
                return Err(VerifyError::schema(format!(
                    "rewrite changed type of output {i} (`{}`): {ot:?} -> {rt:?}",
                    o[i].name
                )));
            }
        }
        if omr[i].nullable && !rmr[i].nullable {
            return Err(VerifyError::schema(format!(
                "rewrite narrowed nullability of output {i} (`{}`)",
                o[i].name
            )));
        }
    }
    // Presentation decoration must survive untouched (sort keys are output
    // ordinals, and output order is preserved above).
    if original.order.keys != rewritten.order.keys || original.order.limit != rewritten.order.limit
    {
        return Err(VerifyError::schema(
            "rewrite changed the root ORDER BY/LIMIT decoration".to_string(),
        ));
    }
    Ok(())
}

/// Pass 3b: every base-table box over the summary table `table` may only
/// read columns the registered AST definition exposes (`allowed`, in backing
/// column order).
pub fn verify_backing_projection(
    g: &QgmGraph,
    table: &str,
    allowed: &[String],
) -> Result<(), VerifyError> {
    for (bi, b) in g.boxes.iter().enumerate() {
        let BoxKind::BaseTable { table: t } = &b.kind else {
            continue;
        };
        if !t.eq_ignore_ascii_case(table) {
            continue;
        }
        for (i, c) in b.outputs.iter().enumerate() {
            let ScalarExpr::BaseCol(j) = c.expr else {
                continue;
            };
            let Some(want) = allowed.get(j) else {
                return Err(VerifyError {
                    pass: VerifyPass::Schema,
                    box_id: Some(BoxId(bi as u32)),
                    path: box_path(g, BoxId(bi as u32)),
                    reason: format!(
                        "rewrite reads column ordinal {j} of AST `{table}` which exposes only {} columns",
                        allowed.len()
                    ),
                });
            };
            if !c.name.eq_ignore_ascii_case(want) {
                return Err(VerifyError {
                    pass: VerifyPass::Schema,
                    box_id: Some(BoxId(bi as u32)),
                    path: box_path(g, BoxId(bi as u32)),
                    reason: format!(
                        "rewrite output {i} named `{}` but AST `{table}` column {j} is `{want}`",
                        c.name
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use crate::build::build_query;
    use sumtab_parser::parse_query;

    fn built(sql: &str) -> (QgmGraph, Catalog) {
        let cat = Catalog::credit_card_sample();
        let q = parse_query(sql).unwrap();
        (build_query(&q, &cat).unwrap(), cat)
    }

    #[test]
    fn built_graphs_verify_clean() {
        for sql in [
            "select faid, count(*) as c from trans group by faid",
            "select qty * price as v from trans, acct where faid = aid and status = 'a'",
            "select flid, year(date) as y, count(*) as c from trans \
             group by grouping sets ((flid, year(date)), (flid))",
            "select state, sum(qty) as s from trans, loc where flid = lid group by state",
        ] {
            let (g, cat) = built(sql);
            verify_plan(&g, &cat).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn orphan_box_is_rejected() {
        let (mut g, cat) = built("select faid from trans");
        g.add_box(BoxKind::BaseTable {
            table: "loc".into(),
        });
        let e = verify_plan(&g, &cat).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Structural);
        assert!(e.reason.contains("orphan"), "{e}");
    }

    #[test]
    fn cycle_is_rejected() {
        // `tid` is ordinal 0, so re-pointing the child edge at the
        // single-output root keeps every ordinal in range — only the cycle
        // check can reject this shape.
        let (mut g, cat) = built("select tid from trans");
        // Re-point the select's child edge back at the root.
        let root = g.root;
        let qidx = g.boxed(root).quants[0].idx as usize;
        g.quants[qidx].input = root;
        let e = verify_plan(&g, &cat).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Structural);
        assert!(e.reason.contains("cycle"), "{e}");
    }

    #[test]
    fn schema_preservation_detects_rename_and_type_change() {
        let (g, cat) = built("select faid, count(*) as c from trans group by faid");
        let mut renamed = g.clone();
        renamed.boxed_mut(renamed.root).outputs[1].name = "cnt".into();
        let e = verify_schema_preservation(&g, &renamed, &cat).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Schema);

        let (other, _) = built("select faid, date as c from trans");
        let e = verify_schema_preservation(&g, &other, &cat).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Schema);
        assert!(e.reason.contains("type"), "{e}");
    }

    #[test]
    fn identity_preserves_schema() {
        let (g, cat) = built("select faid, sum(qty) as s from trans group by faid");
        verify_schema_preservation(&g, &g.clone(), &cat).unwrap();
    }
}
