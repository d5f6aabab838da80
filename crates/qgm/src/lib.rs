//! # sumtab-qgm
//!
//! The Query Graph Model (QGM) of Section 2 of the paper, together with the
//! SQL-to-QGM translator, a QGM-to-SQL renderer, box-merging normalization,
//! and output type/nullability inference.
//!
//! A query is a rooted DAG of *boxes*. Leaf boxes are base tables; internal
//! boxes are `SELECT` (select-project-join, WHERE/HAVING predicates, scalar
//! expressions) or `GROUP BY` (grouping + aggregation, possibly
//! multidimensional via canonical grouping sets). Boxes consume their
//! children's output columns (*QCLs*) through *quantifiers*; a consumed
//! column is a *QNC*, written here as [`ColRef`]`{ qid, ordinal }`.
//!
//! Graphs are arena-allocated (`Vec<QgmBox>` + `Vec<Quantifier>`); all ids
//! are small copy types. Every [`QuantId`] carries the id of the graph that
//! owns it, so expressions that mix spaces during matching (subsumer QNCs vs
//! compensation rejoin columns) stay unambiguous.

#![forbid(unsafe_code)]

pub mod build;
pub mod dump;
pub mod expr;
pub mod fingerprint;
pub mod graph;
pub mod grouping;
pub mod maintainability;
pub mod normalize;
pub mod render;
pub mod types;
pub mod verify;

pub use build::{
    build_query, build_query_with_params, BuildError, BuildErrorKind, MAX_BUILD_DEPTH,
};
pub use dump::dump_graph;
pub use expr::{AggCall, ColRef, ScalarExpr};
pub use fingerprint::graph_fingerprint;
pub use graph::{
    backing_column_names, BoxId, BoxKind, GraphId, GroupByBox, OutputCol, QgmBox, QgmGraph,
    QuantId, QuantKind, Quantifier, SelectBox,
};
pub use grouping::canonical_grouping_sets;
pub use maintainability::{
    analyze as analyze_maintainability, augment_with_count, ColumnOp, MaintStrategy,
    MaintainabilityReport, Obstruction, ObstructionKind, HIDDEN_COUNT_NAME,
};
pub use render::render_graph_sql;
pub use types::{infer_output_types, ColMeta};
pub use verify::{VerifyError, VerifyPass};

// Re-export the operator enums shared with the parser so downstream crates
// can depend on `sumtab-qgm` alone.
pub use sumtab_parser::{AggFunc, BinOp, ScalarFunc, UnOp};
