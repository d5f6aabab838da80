//! # sumtab-matcher
//!
//! The paper's primary contribution: an algorithm that rewrites a SQL query
//! to answer it from one or more *Automatic Summary Tables* (materialized
//! aggregate views), by proving that the query and an AST overlap and
//! compensating for the non-overlapping parts.
//!
//! Architecture (Section 3):
//!
//! * the **navigator** scans the query and AST QGM graphs bottom-up, pairing
//!   candidate (subsumee, subsumer) boxes;
//! * the **match function** tests per-pattern sufficient conditions
//!   (Sections 4.1.1–4.2.4 and 5.1–5.2) and constructs the compensation;
//! * the **translation mechanism** (Section 6) rewrites subsumee expressions
//!   into the subsumer's context and derives them from the subsumer's
//!   output columns.
//!
//! ```
//! use sumtab_catalog::Catalog;
//! use sumtab_matcher::{RegisteredAst, Rewriter};
//! use sumtab_parser::parse_query;
//! use sumtab_qgm::build_query;
//!
//! let catalog = Catalog::credit_card_sample();
//! let ast = RegisteredAst::from_sql(
//!     "ast1",
//!     "select faid, flid, year(date) as year, count(*) as cnt \
//!      from trans group by faid, flid, year(date)",
//!     &catalog,
//! ).unwrap();
//! let q = build_query(&parse_query(
//!     "select faid, count(*) as cnt from trans group by faid",
//! ).unwrap(), &catalog).unwrap();
//! // `rewrite` returns Result<Option<Rewrite>, MatchError>: the Err layer is
//! // a matcher-internal failure; the Option layer is "did it match at all".
//! let rewrite = Rewriter::new(&catalog)
//!     .rewrite(&q, &ast)
//!     .unwrap()
//!     .expect("should match");
//! assert_eq!(rewrite.ast_name, "ast1");
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod context;
pub mod cost;
pub mod derive;
pub mod equiv;
pub mod patterns;
pub mod rewrite;
pub mod signature;
pub mod stats;
pub mod translate;

use context::run_navigator;
use sumtab_catalog::{Catalog, MatchSignature};
use sumtab_qgm::{build_query, BoxId, BuildError, QgmGraph};

/// Why an AST definition could not be registered.
#[derive(Debug, Clone, PartialEq)]
pub enum AstDefError {
    /// The definition SQL failed to parse.
    Parse(sumtab_parser::ParseError),
    /// The definition SQL failed semantic analysis / QGM construction.
    Plan(BuildError),
}

impl std::fmt::Display for AstDefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AstDefError::Parse(e) => write!(f, "AST definition does not parse: {e}"),
            AstDefError::Plan(e) => write!(f, "AST definition does not plan: {e}"),
        }
    }
}

impl std::error::Error for AstDefError {}

/// A registered Automatic Summary Table: its backing-table name, its
/// definition as a QGM graph, and its match signature (computed once, at
/// registration, so per-query filtering touches no graph structure).
#[derive(Debug, Clone)]
pub struct RegisteredAst {
    /// The backing (materialized) table's name.
    pub name: String,
    /// The definition query's QGM graph.
    pub graph: QgmGraph,
    /// The definition's match signature, for pre-navigator filtering.
    pub signature: MatchSignature,
}

impl RegisteredAst {
    /// Register a definition graph under `name`, computing its signature.
    pub fn new(name: &str, graph: QgmGraph) -> RegisteredAst {
        let signature = signature::graph_signature(&graph);
        RegisteredAst {
            name: name.to_string(),
            graph,
            signature,
        }
    }

    /// Parse and translate a definition; the backing table is assumed to be
    /// named `name` with columns matching the definition's root outputs.
    pub fn from_sql(
        name: &str,
        sql: &str,
        catalog: &Catalog,
    ) -> Result<RegisteredAst, AstDefError> {
        let q = sumtab_parser::parse_query(sql).map_err(AstDefError::Parse)?;
        let graph = build_query(&q, catalog).map_err(AstDefError::Plan)?;
        Ok(RegisteredAst::new(name, graph))
    }

    /// The backing table's column names
    /// ([`sumtab_qgm::backing_column_names`], as the materializer names them).
    pub fn backing_columns(&self) -> Vec<String> {
        sumtab_qgm::backing_column_names(&self.graph)
    }
}

/// A matcher-internal failure: the navigator or rewrite builder produced an
/// inconsistent result (or exceeded a depth bound) while matching against a
/// particular AST. Distinct from "no match", which is `Ok(None)` from
/// [`Rewriter::rewrite`] and is not an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchError {
    /// The AST whose match attempt failed.
    pub ast: String,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matcher error against AST `{}`: {}",
            self.ast, self.detail
        )
    }
}

impl std::error::Error for MatchError {}

/// A successful rewrite.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// Which AST the query was routed to.
    pub ast_name: String,
    /// The rewritten query graph (reads the AST's backing table).
    pub graph: QgmGraph,
    /// The query box that was replaced.
    pub replaced_box: BoxId,
    /// Whether the match at that box was exact (compensation-free).
    pub exact: bool,
}

/// The outcome of one candidate AST in a [`Rewriter::rewrite_candidates`]
/// sweep, in input order.
#[derive(Debug, Clone)]
pub enum CandidateOutcome {
    /// Rejected by the signature filter: a match is provably impossible,
    /// so the navigator never ran.
    Filtered,
    /// Survived the filter, but the navigator found no match.
    NoMatch,
    /// A successful rewrite.
    Match(Box<Rewrite>),
    /// The matcher itself failed on this candidate.
    Error(MatchError),
}

/// The rewriting engine.
///
/// Candidate sweeps ([`Rewriter::rewrite_candidates`],
/// [`Rewriter::rewrite_all`]) run a two-phase
/// fast path: a sound per-AST signature filter (see [`signature`]) prunes
/// provably unmatchable candidates, then the survivors fan out across a
/// `std::thread::scope` pool. Results are always reported in input order,
/// so every sweep is deterministic regardless of pool size.
pub struct Rewriter<'a> {
    catalog: &'a Catalog,
    pool_size: usize,
}

/// Default worker count for candidate sweeps: the machine's available
/// parallelism, capped — matching is µs-scale per candidate, so a huge pool
/// only adds spawn overhead. Asked of the OS once per process: the call
/// costs more than a whole memoized planning lookup.
fn default_pool_size() -> usize {
    static POOL: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *POOL.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8)
    })
}

impl<'a> Rewriter<'a> {
    /// A rewriter over the given catalog, with the default match pool.
    pub fn new(catalog: &'a Catalog) -> Rewriter<'a> {
        Rewriter {
            catalog,
            pool_size: default_pool_size(),
        }
    }

    /// A rewriter with an explicit candidate-matching pool size. `1` (or
    /// `0`) forces serial sweeps; results are identical for every size.
    pub fn with_pool_size(catalog: &'a Catalog, pool_size: usize) -> Rewriter<'a> {
        Rewriter {
            catalog,
            pool_size: pool_size.max(1),
        }
    }

    /// Try to rewrite `query` to use `ast`.
    ///
    /// * `Ok(Some(_))` — the best rewrite (the one replacing the highest
    ///   matched query box).
    /// * `Ok(None)` — the AST root matches no query box; not an error.
    /// * `Err(_)` — the matcher itself failed (inconsistent match tables, a
    ///   rewritten graph that fails validation, or a depth bound exceeded).
    ///   Callers should treat this as "AST unusable for this query" and fall
    ///   back to the un-rewritten plan rather than aborting.
    pub fn rewrite(
        &self,
        query: &QgmGraph,
        ast: &RegisteredAst,
    ) -> Result<Option<Rewrite>, MatchError> {
        let err = |detail: String| MatchError {
            ast: ast.name.clone(),
            detail,
        };
        let ctx = run_navigator(query, &ast.graph, self.catalog);
        // Prefer the highest (latest in bottom-up order) matched query box:
        // it covers the most query work with the AST.
        let order = query.topo_order();
        let Some((&(eb, _), entry)) = ctx
            .table
            .iter()
            .filter(|((_, rb), _)| *rb == ast.graph.root)
            .max_by_key(|((eb, _), _)| order.iter().position(|b| b == eb))
        else {
            return Ok(None);
        };
        let backing_cols = ast.backing_columns();
        let mut graph =
            rewrite::build_rewrite(&ctx, eb, entry, &ast.name, &backing_cols).map_err(err)?;
        sumtab_qgm::normalize::merge_selects(&mut graph);
        // Rewrite boundary gate. Strict structure is always enforced (a
        // structurally broken rewrite was always an error here); the typing
        // pass and the schema-preservation/AST-projection proofs (pass 3)
        // run under the verification gates. Every failure surfaces as a
        // `MatchError`, so candidate sweeps degrade to the un-rewritten
        // plan instead of aborting the query.
        sumtab_qgm::verify::verify_plan_structure(&graph)
            .map_err(|e| err(format!("rewritten graph failed validation: {e}")))?;
        if sumtab_qgm::verify::runtime_checks_enabled() {
            sumtab_qgm::verify::verify_types(&graph, self.catalog)
                .map_err(|e| err(e.to_string()))?;
            sumtab_qgm::verify::verify_schema_preservation(query, &graph, self.catalog)
                .map_err(|e| err(e.to_string()))?;
            sumtab_qgm::verify::verify_backing_projection(&graph, &ast.name, &backing_cols)
                .map_err(|e| err(e.to_string()))?;
        }
        Ok(Some(Rewrite {
            ast_name: ast.name.clone(),
            graph,
            replaced_box: eb,
            exact: entry.exact,
        }))
    }

    /// One candidate attempt, as an outcome value.
    fn attempt(&self, query: &QgmGraph, ast: &RegisteredAst) -> CandidateOutcome {
        match self.rewrite(query, ast) {
            Ok(Some(rw)) => CandidateOutcome::Match(Box::new(rw)),
            Ok(None) => CandidateOutcome::NoMatch,
            Err(e) => CandidateOutcome::Error(e),
        }
    }

    /// Sweep every candidate AST through the fast path: signature-filter
    /// first, then match the survivors on the thread pool. The returned
    /// vector has exactly one [`CandidateOutcome`] per input, in input
    /// order — deterministic for every pool size.
    pub fn rewrite_candidates(
        &self,
        query: &QgmGraph,
        asts: &[&RegisteredAst],
    ) -> Vec<CandidateOutcome> {
        let qsig = signature::graph_signature(query);
        let mut out: Vec<CandidateOutcome> = Vec::with_capacity(asts.len());
        let mut survivors: Vec<usize> = Vec::new();
        for (i, ast) in asts.iter().enumerate() {
            if signature::survives(&qsig, &ast.signature, self.catalog) {
                survivors.push(i);
            } else {
                stats::count_filter_rejection();
            }
            out.push(CandidateOutcome::Filtered);
        }
        let workers = self.pool_size.min(survivors.len());
        if workers <= 1 {
            for &i in &survivors {
                out[i] = self.attempt(query, asts[i]);
            }
            return out;
        }
        // Static partition: each worker owns a contiguous chunk of the
        // survivor list and writes into its own slice of the slot vector,
        // so no locking is needed and slot order fixes result order.
        let mut slots: Vec<Option<CandidateOutcome>> = vec![None; survivors.len()];
        let chunk = survivors.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (idx_chunk, slot_chunk) in survivors.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (&i, slot) in idx_chunk.iter().zip(slot_chunk.iter_mut()) {
                        *slot = Some(self.attempt(query, asts[i]));
                    }
                });
            }
        });
        for (&i, slot) in survivors.iter().zip(slots) {
            // Every slot is filled: the scope joins all workers, and each
            // worker writes its whole chunk. A missing slot would be a
            // harness bug; degrade to "no match" rather than panicking.
            out[i] = slot.unwrap_or(CandidateOutcome::NoMatch);
        }
        out
    }

    /// Rewrite against every AST; returns all successful rewrites, in input
    /// order (filtered + parallel via [`Rewriter::rewrite_candidates`]).
    ///
    /// Best-effort: an AST whose match attempt errors internally is skipped
    /// (treated like a non-match) so one bad AST cannot sink the others. Use
    /// [`Rewriter::rewrite`] per AST to observe the errors.
    pub fn rewrite_all(&self, query: &QgmGraph, asts: &[RegisteredAst]) -> Vec<Rewrite> {
        let refs: Vec<&RegisteredAst> = asts.iter().collect();
        self.rewrite_candidates(query, &refs)
            .into_iter()
            .filter_map(|o| match o {
                CandidateOutcome::Match(rw) => Some(*rw),
                _ => None,
            })
            .collect()
    }

    /// The pre-fast-path sweep: every AST through the full navigator,
    /// serially, no signature filter. Identical results to
    /// [`Rewriter::rewrite_all`] (the filter is sound and ordering is
    /// stable); kept as the baseline for benches and soundness tests.
    pub fn rewrite_all_unfiltered(&self, query: &QgmGraph, asts: &[RegisteredAst]) -> Vec<Rewrite> {
        asts.iter()
            .filter_map(|ast| self.rewrite(query, ast).ok().flatten())
            .collect()
    }
}
