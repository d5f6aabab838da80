//! The match-function pattern library (Sections 4 and 5).
//!
//! [`match_boxes`] implements the two universal preconditions of Section 3 —
//! the boxes must be of the same type, and at least one subsumee child must
//! match a subsumer child — and dispatches to the per-type patterns.

pub mod groupby;
pub mod select;

use crate::context::{Ctx, MatchEntry, Side};
use sumtab_qgm::{BoxId, BoxKind};

/// Try to match subsumee box `e` (in `side`'s graph) with subsumer box `r`
/// (in the AST graph).
pub fn match_boxes(ctx: &mut Ctx<'_>, side: Side, e: BoxId, r: BoxId) -> Option<MatchEntry> {
    let ekind = kind_tag(ctx, side, e);
    let rkind = match &ctx.a.boxed(r).kind {
        BoxKind::BaseTable { table } => Tag::Base(table.clone()),
        BoxKind::Select(_) => Tag::Select,
        BoxKind::GroupBy(_) => Tag::GroupBy,
        BoxKind::SubsumerRef { .. } => return None,
    };
    match (ekind, rkind) {
        (Tag::Base(te), Tag::Base(tr)) if te == tr => {
            let n = ctx.egraph(side).boxed(e).outputs.len();
            Some(MatchEntry::exact((0..n).collect()))
        }
        (Tag::Select, Tag::Select) => select::match_selects(ctx, side, e, r),
        (Tag::GroupBy, Tag::GroupBy) => groupby::match_groupbys(ctx, side, e, r),
        _ => None,
    }
}

enum Tag {
    Base(String),
    Select,
    GroupBy,
}

fn kind_tag(ctx: &Ctx<'_>, side: Side, b: BoxId) -> Tag {
    match &ctx.egraph(side).boxed(b).kind {
        BoxKind::BaseTable { table } => Tag::Base(table.clone()),
        BoxKind::Select(_) => Tag::Select,
        BoxKind::GroupBy(_) => Tag::GroupBy,
        BoxKind::SubsumerRef { .. } => Tag::Select, // never matched directly
    }
}

/// Look up (or synthesize) the match entry for a child pair.
///
/// For query-graph subsumees this is a match-table lookup. For comp-graph
/// subsumees (the recursive invocation of Section 4.2.2) the entry is
/// synthesized from the fragment's structure: a `SubsumerRef` leaf targeting
/// the subsumer child is an exact identity match, and a compensation SELECT
/// over that leaf is its own fragment.
pub fn child_entry(ctx: &Ctx<'_>, side: Side, ce: BoxId, cr: BoxId) -> Option<MatchEntry> {
    match side {
        Side::Query => ctx.table.get(&(ce, cr)).cloned(),
        Side::Comp => {
            let bx = ctx.comp.boxed(ce);
            match &bx.kind {
                BoxKind::SubsumerRef { target, .. } if *target == cr => {
                    Some(MatchEntry::exact((0..bx.outputs.len()).collect()))
                }
                BoxKind::Select(_) if ctx.reaches_subsumer(ce) => {
                    subsumer_target(ctx, ce).filter(|&t| t == cr)?;
                    Some(MatchEntry::with_comp(ce))
                }
                _ => None,
            }
        }
    }
}

/// The subsumer box a compensation fragment ultimately references.
fn subsumer_target(ctx: &Ctx<'_>, b: BoxId) -> Option<BoxId> {
    match &ctx.comp.boxed(b).kind {
        BoxKind::SubsumerRef { target, .. } => Some(*target),
        _ => ctx
            .comp
            .boxed(b)
            .quants
            .iter()
            .find_map(|&q| subsumer_target(ctx, ctx.comp.input_of(q))),
    }
}

/// True when the comp-graph fragment rooted at `b` contains a GROUP BY box
/// on its subsumer path.
pub fn fragment_has_group_by(ctx: &Ctx<'_>, b: BoxId) -> bool {
    let bx = ctx.comp.boxed(b);
    if matches!(bx.kind, BoxKind::SubsumerRef { .. }) {
        return false;
    }
    let on_path = ctx.reaches_subsumer(b);
    if !on_path {
        return false;
    }
    if bx.is_group_by() {
        return true;
    }
    bx.quants
        .iter()
        .any(|&q| fragment_has_group_by(ctx, ctx.comp.input_of(q)))
}
