//! # sumtab
//!
//! Answering complex SQL queries using Automatic Summary Tables — a Rust
//! reproduction of Zaharioudakis et al., SIGMOD 2000.
//!
//! This facade crate re-exports the whole workspace and adds
//! [`SummarySession`]: a SQL session in which `CREATE SUMMARY TABLE`
//! registers an AST for *transparent* use — subsequent queries are
//! automatically rewritten to read the summary table whenever the matching
//! algorithm proves they can be.
//!
//! ```
//! use sumtab::SummarySession;
//!
//! let mut s = SummarySession::new();
//! s.run_script(
//!     "create table sales (prod varchar not null, qty int not null);
//!      insert into sales values ('tv', 2), ('tv', 3), ('radio', 1);
//!      create summary table by_prod as
//!        (select prod, sum(qty) as total, count(*) as cnt from sales group by prod);",
//! ).unwrap();
//! let result = s.query("select prod, sum(qty) as total from sales group by prod").unwrap();
//! assert_eq!(result.used_ast.as_deref(), Some("by_prod"));
//! assert_eq!(result.rows.len(), 2);
//! ```
//!
//! ## Fault tolerance
//!
//! The pipeline degrades rather than failing or silently answering wrong:
//!
//! * **Staleness**: every [`Database`] mutation bumps a per-table epoch; a
//!   summary table records its base tables' epochs when (re)materialized and
//!   the planner skips any AST whose snapshot no longer matches
//!   ([`SummarySession::plan_detail`] reports the skip reasons, as does
//!   `EXPLAIN`). DML issued through [`SummarySession::run_script`] keeps
//!   affected summaries fresh via incremental maintenance.
//! * **One change path**: a statement resolves to a [`persist::WalRecord`]
//!   ([`SummarySession::resolve`]) and [`SummarySession::apply`] is the one
//!   function that carries a record out — for live DML, for the
//!   programmatic entry points, and for crash-recovery replay alike.
//! * **Fallback**: if an AST-backed plan fails *at execution time*,
//!   [`SummarySession::query`] re-runs the query from base tables and
//!   reports the cause in [`QueryResult::fallback`] instead of erroring.
//! * **Fail points**: the `match`, `execute-rewritten`, `maintain`, and
//!   `refresh` boundaries carry [`failpoint`] hooks so the degraded paths
//!   are deterministically testable, as do the WAL/snapshot IO boundaries
//!   (`wal-append`, `wal-fsync`, `snapshot-write`, `snapshot-rename`).
//! * **Durability**: [`SummarySession::apply`] writes a checksummed
//!   write-ahead log plus periodic atomic snapshots, which [`DurableSession`]
//!   attaches after recovering the full session — catalog, data, registered
//!   ASTs, staleness epochs — from a crash (see [`durable`], DESIGN.md §12).

#![forbid(unsafe_code)]

pub mod durable;
pub mod maintain;

pub use sumtab_catalog as catalog;
pub use sumtab_datagen as datagen;
pub use sumtab_engine as engine;
pub use sumtab_matcher as matcher;
pub use sumtab_parser as parser;
pub use sumtab_persist as persist;
pub use sumtab_persist::failpoint;
pub use sumtab_qgm as qgm;

pub use durable::{DurabilityMode, DurableOptions, DurableSession, RecoverError, RecoveryReport};

pub use sumtab_catalog::{Catalog, Date, SqlType, Value};
pub use sumtab_engine::{
    format_table, sort_rows, CacheStats, Database, PlanCache, Row, Session, SumtabError,
};
pub use sumtab_matcher::cost;
pub use sumtab_matcher::{
    baseline::baseline_matches, AstDefError, CandidateOutcome, MatchError, RegisteredAst, Rewrite,
    Rewriter,
};
pub use sumtab_qgm::{build_query, graph_fingerprint, render_graph_sql, QgmGraph};

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use sumtab_engine::session::{literal_rows, table_from_ddl, StatementResult};
use sumtab_engine::{matched_rows, update_deltas};
use sumtab_matcher::cost::{PlanCost, RoutePolicy};
use sumtab_parser::render::render_query;
use sumtab_parser::{parse_query, parse_statements, Statement};
use sumtab_persist::WalRecord;

/// The result of a transparently-rewritten query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub header: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
    /// The summary table the query was answered from, if any.
    pub used_ast: Option<String>,
    /// The executed (possibly rewritten) query, rendered as SQL.
    pub executed_sql: String,
    /// When the AST-backed plan failed at execution time and the query was
    /// re-answered from base tables: a description of the failure. `None`
    /// means no degradation happened (the plan that was chosen also ran).
    pub fallback: Option<String>,
    /// When the router *deliberately* declined a viable rewrite — the cost
    /// model kept the base plan — the reason is reported here. `None` for
    /// the normal paths (no match, or the rewrite was chosen and ran).
    ///
    /// This is intentionally distinct from [`QueryResult::fallback`]:
    /// a cost-based base-plan choice is the router working as designed,
    /// not a degradation, and must not pollute failure telemetry.
    pub routed: Option<String>,
}

/// A registered AST plus the base-table epochs captured when its contents
/// were last brought up to date (materialization, refresh, or incremental
/// maintenance).
#[derive(Debug, Clone)]
pub struct AstState {
    /// The AST definition.
    pub ast: RegisteredAst,
    /// Base table → [`Database::epoch`] at last (re)materialization.
    pub base_epochs: BTreeMap<String, u64>,
    /// The registration-time maintainability analysis: per-base-table
    /// strategy certificates plus the exec graph (definition, possibly
    /// augmented with a hidden row counter).
    pub maint: maintain::AstMaintenance,
}

impl AstState {
    /// Analyze the definition and snapshot base epochs for a freshly
    /// (re)registered AST.
    fn new(ast: RegisteredAst, catalog: &Catalog, db: &Database) -> AstState {
        let maint = maintain::analyze_ast(&ast.graph, catalog);
        let base_epochs = snapshot_epochs(db, &ast.graph);
        AstState {
            ast,
            base_epochs,
            maint,
        }
    }
}

/// Why an AST was passed over during planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedAst {
    /// The AST's name.
    pub ast: String,
    /// Human-readable skip reason (staleness or a matcher error).
    pub reason: String,
}

/// What [`SummarySession::apply`] did with one change record. `Ok(Applied)`
/// means the record took effect on the base state (and was logged);
/// `Err` from `apply` means nothing was changed.
#[derive(Debug, Clone, Default)]
pub struct Applied {
    /// ASTs maintained through the incremental merge path.
    pub maintained: Vec<String>,
    /// ASTs recomputed in full because their incremental path failed
    /// (verify gate, injected fault, or merge error). The degradation can be
    /// non-deterministic (a transient fault), so `apply` logs one
    /// idempotent `Refresh` record per name to make replay converge.
    /// ASTs whose definition *never* had an incremental plan (e.g. HAVING)
    /// are not listed: their full refresh re-runs deterministically on
    /// replay.
    pub refreshed: Vec<String>,
    /// The first AST whose incremental merge *and* fallback refresh both
    /// failed. The base change stands; that AST keeps its old epoch
    /// snapshot, so the planner's staleness gate skips it (named in
    /// [`PlanDetail::skipped`]) until a later refresh succeeds.
    pub failed: Option<SumtabError>,
}

impl Applied {
    /// Surface [`Applied::failed`] as the statement's error.
    pub fn into_result(self) -> Result<Applied, SumtabError> {
        match self.failed {
            Some(e) => Err(e),
            None => Ok(self),
        }
    }
}

/// How the cost-based router disposed of one query's rewrite candidates.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteDecision {
    /// No registered AST matched; the base plan is the only plan.
    NoMatch,
    /// A rewrite matched and the cost model chose it.
    Rewrite,
    /// A rewrite matched but the cost model estimated the base plan
    /// cheaper — the losing rewrite was rejected *before* execution.
    Base {
        /// Estimated total rows processed by the base plan.
        base_cost: f64,
        /// Estimated total rows processed by the rejected rewrite.
        rewrite_cost: f64,
        /// The ASTs the rejected rewrite would have read.
        rejected: Vec<String>,
    },
}

impl RouteDecision {
    /// A stable one-word tag (`none` / `rewrite` / `base`) for benches and
    /// telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            RouteDecision::NoMatch => "none",
            RouteDecision::Rewrite => "rewrite",
            RouteDecision::Base { .. } => "base",
        }
    }

    /// The reason string surfaced through [`QueryResult::routed`]: `Some`
    /// only when the router declined a viable rewrite.
    pub fn describe(&self) -> Option<String> {
        match self {
            RouteDecision::NoMatch | RouteDecision::Rewrite => None,
            RouteDecision::Base {
                base_cost,
                rewrite_cost,
                rejected,
            } => Some(format!(
                "cost routing kept the base plan: rewrite via {} estimated \
                 {rewrite_cost:.0} rows processed vs base {base_cost:.0}",
                rejected.join(", ")
            )),
        }
    }
}

/// Tunables for the cost-based router. Routing is a pure function of the
/// match candidates, current row counts and this policy: executing a query
/// never changes how the next one routes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouterOptions {
    /// The static cost policy (rewrite penalty, small-plan gate).
    pub policy: RoutePolicy,
}

/// The outcome of planning one query: the final (possibly rewritten) graph,
/// the ASTs it uses, the ASTs that were considered but skipped, and the
/// router's disposition of the rewrite candidates.
#[derive(Debug, Clone)]
pub struct PlanDetail {
    /// The graph that would execute.
    pub graph: QgmGraph,
    /// Names of the ASTs the plan reads, in application order.
    pub used: Vec<String>,
    /// ASTs skipped for staleness or matcher errors, with reasons.
    pub skipped: Vec<SkippedAst>,
    /// What the cost-based router decided.
    pub routing: RouteDecision,
    /// For each AST the plan reads: how it will be kept fresh under
    /// base-table churn (the registration-time maintainability
    /// certificates).
    pub maintenance: Vec<MaintenanceNote>,
}

/// The maintainability certificate of one AST, surfaced for EXPLAIN and
/// diagnostics: per base table the strongest certified strategy, plus the
/// typed obstructions explaining every downgrade from counting-delta.
#[derive(Debug, Clone)]
pub struct MaintenanceNote {
    /// The AST's name.
    pub ast: String,
    /// Base table (lower-cased) → certified strategy.
    pub strategies: Vec<(String, qgm::MaintStrategy)>,
    /// Rendered obstructions (`reason at path: detail`), in analysis order.
    pub obstructions: Vec<String>,
}

/// Greedy-loop state (the ASTs already applied, in order) → AST name → that
/// AST's outcome against the graph the state denotes.
type MatchMemo = HashMap<Vec<String>, HashMap<String, CandidateOutcome>>;

/// What the session plan cache stores for one fingerprint: the base graph
/// plus a memo of match outcomes. Whether an AST subsumes a query depends
/// only on the two definitions and the catalog, so an entry is validated by
/// [`SummarySession::plan_generation`] alone and survives DML; everything
/// data-dependent (staleness, costs, the routing decision) is re-derived
/// from it on every lookup by [`SummarySession::compute_routed_plan`].
struct PlanEntry {
    /// The un-rewritten plan.
    base: QgmGraph,
    /// Filled lazily by the planning loop: an outcome is stored the first
    /// time the loop needs it, so an AST that was stale when the entry was
    /// created is matched when it first turns fresh. Every stored outcome
    /// already passed the matcher's verifier gates.
    memo: Mutex<MatchMemo>,
}

impl PlanEntry {
    fn new(base: QgmGraph) -> PlanEntry {
        PlanEntry {
            base,
            memo: Mutex::new(MatchMemo::new()),
        }
    }
}

/// One lookup's routing inputs, derived from a [`PlanEntry`] at current
/// epochs and row counts: the base plan's cost, the best rewrite and the
/// skipped ASTs. Never cached — a DML that changes a cost or a staleness
/// verdict is seen on the next lookup, while a cost-*rejected* match still
/// re-serves the base plan with zero navigator runs.
#[derive(Debug, Clone)]
struct RoutedPlan {
    /// Estimated cost of the base plan.
    base_cost: PlanCost,
    /// The best rewrite, when any AST matched.
    rewrite: Option<RewriteAlt>,
    /// ASTs skipped for staleness or matcher errors.
    skipped: Vec<SkippedAst>,
}

/// A viable rewritten alternative.
#[derive(Debug, Clone)]
struct RewriteAlt {
    /// The fully (iteratively) rewritten graph.
    graph: QgmGraph,
    /// ASTs the rewrite reads, in application order.
    used: Vec<String>,
    /// Estimated cost of the rewritten plan.
    cost: PlanCost,
}

/// Record each base table the graph scans at its current epoch.
fn snapshot_epochs(db: &Database, graph: &QgmGraph) -> BTreeMap<String, u64> {
    let mut epochs = BTreeMap::new();
    for b in &graph.boxes {
        if let qgm::BoxKind::BaseTable { table } = &b.kind {
            let key = table.to_ascii_lowercase();
            let e = db.epoch(&key);
            epochs.insert(key, e);
        }
    }
    epochs
}

/// Does the graph scan `table` (case-insensitive)?
fn graph_reads(graph: &QgmGraph, table: &str) -> bool {
    graph.boxes.iter().any(|b| {
        matches!(&b.kind, qgm::BoxKind::BaseTable { table: t }
                 if t.eq_ignore_ascii_case(table))
    })
}

/// Parse, plan and verify (in every build) one summary-table definition:
/// the gate every registration passes, live, restored or replayed.
fn verified_ast(name: &str, sql: &str, catalog: &Catalog) -> Result<RegisteredAst, SumtabError> {
    let ast = RegisteredAst::from_sql(name, sql, catalog).map_err(|e| match e {
        AstDefError::Parse(p) => SumtabError::parse(sql, p),
        AstDefError::Plan(b) => SumtabError::plan(sql, b),
    })?;
    sumtab_qgm::verify::verify_plan(&ast.graph, catalog)?;
    Ok(ast)
}

/// Plans a session keeps cached, and SQL texts it remembers the fingerprint
/// of; small — a `PlanEntry` is the base graph plus one rewritten graph per
/// matching AST — and bounded, so a long-lived session cannot grow without
/// limit on a stream of distinct queries.
const PLAN_CACHE_CAPACITY: usize = 256;

/// Default result-cache capacity. Results can be arbitrarily wide (a
/// cached entry clones its rows on every hit), so the default is small;
/// [`SummarySession::set_result_cache_capacity`] resizes, `0` disables.
const RESULT_CACHE_CAPACITY: usize = 16;

/// Lock a session cache or memo, recovering from poisoning (they hold no
/// invariants a panicking reader could break — cache entries are validated
/// on every lookup anyway, and a memo only ever gains verified outcomes).
fn lock_cache<V>(m: &Mutex<V>) -> MutexGuard<'_, V> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A SQL session with transparent AST rewriting.
///
/// `CREATE SUMMARY TABLE` both materializes the summary and registers it
/// with the rewriter; `query` then routes each statement through the
/// matching algorithm, picking the smallest matching AST.
///
/// Matching is done once per catalog: a query's match outcomes are cached
/// per fingerprint and stay valid until the AST/catalog generation moves,
/// whatever DML happens in between. Each lookup re-derives only what data
/// can change — staleness, costs and the routing decision — so a repeated
/// query runs the matcher again only for an AST it has not yet been matched
/// against (one that was stale until now).
pub struct SummarySession {
    /// The underlying engine session (catalog + data).
    pub session: Session,
    asts: Vec<AstState>,
    registration_failures: Vec<(String, String)>,
    /// SQL text → fingerprint, validated by
    /// [`SummarySession::plan_generation`] alone, so an exact repeat skips
    /// parse, build and fingerprint.
    text_memo: Mutex<PlanCache<String>>,
    /// Fingerprint → [`PlanEntry`] (base graph + match-outcome memo),
    /// validated by [`SummarySession::plan_generation`] alone.
    plan_cache: Mutex<PlanCache<Arc<PlanEntry>>>,
    /// Fingerprint → complete [`QueryResult`], validated by generation and
    /// an epoch snapshot of every table the plan can depend on: any
    /// mutation of such a table invalidates the cached result.
    result_cache: Mutex<PlanCache<QueryResult>>,
    /// `0` disables result caching entirely.
    result_cache_capacity: usize,
    /// Cost-router tunables.
    router: RouterOptions,
    /// Bumped by every event that can change planning outcomes without
    /// touching table data: AST registration, `CREATE TABLE`, and
    /// `ALTER TABLE .. ADD FOREIGN KEY` (a new RI constraint can make a
    /// previously impossible lossless extra join legal).
    ast_generation: u64,
    /// Written by [`SummarySession::apply`]; inert outside a [`DurableSession`].
    log: durable::ChangeLog,
}

impl Default for SummarySession {
    fn default() -> SummarySession {
        SummarySession {
            session: Session::default(),
            asts: Vec::new(),
            registration_failures: Vec::new(),
            text_memo: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            plan_cache: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            result_cache: Mutex::new(PlanCache::new(RESULT_CACHE_CAPACITY)),
            result_cache_capacity: RESULT_CACHE_CAPACITY,
            router: RouterOptions::default(),
            ast_generation: 0,
            log: durable::ChangeLog::default(),
        }
    }
}

impl SummarySession {
    /// An empty session.
    pub fn new() -> SummarySession {
        SummarySession::default()
    }

    /// Set the executor worker-pool size used for queries, summary-table
    /// materialization, and refreshes (the `Rewriter::with_pool_size`
    /// idiom, applied to execution). Results are identical for every pool
    /// size; only wall-clock time changes.
    pub fn set_exec_pool_size(&mut self, n: usize) {
        self.session.exec.pool_size = n.max(1);
    }

    /// The executor options in effect.
    pub fn exec_options(&self) -> &sumtab_engine::ExecOptions {
        &self.session.exec
    }

    /// A session over a pre-built catalog and database.
    ///
    /// Summary tables already present in the catalog are re-registered for
    /// rewriting; any whose definition no longer parses, plans or verifies
    /// are reported through [`SummarySession::registration_failures`] rather
    /// than silently dropped. Their base tables are assumed up to date as
    /// of the given database.
    pub fn with_data(catalog: Catalog, db: Database) -> SummarySession {
        let mut asts = Vec::new();
        let mut registration_failures = Vec::new();
        for def in catalog.summary_tables() {
            match verified_ast(&def.name, &def.query_sql, &catalog) {
                Ok(ast) => asts.push(AstState::new(ast, &catalog, &db)),
                Err(e) => registration_failures.push((def.name.clone(), e.to_string())),
            }
        }
        SummarySession {
            session: Session {
                catalog,
                db,
                exec: sumtab_engine::ExecOptions::default(),
            },
            asts,
            registration_failures,
            ..SummarySession::default()
        }
    }

    /// The registered ASTs.
    pub fn asts(&self) -> Vec<&RegisteredAst> {
        self.asts.iter().map(|s| &s.ast).collect()
    }

    /// The registered ASTs with their staleness bookkeeping.
    pub fn ast_states(&self) -> &[AstState] {
        &self.asts
    }

    /// Summary tables found in the catalog at construction whose definition
    /// could not be re-registered, as `(name, reason)` pairs. These ASTs
    /// exist as data but take no part in rewriting.
    pub fn registration_failures(&self) -> &[(String, String)] {
        &self.registration_failures
    }

    /// The registration-time maintainability analysis of one AST (`None`
    /// for unknown names).
    pub fn maintainability(&self, name: &str) -> Option<&maintain::AstMaintenance> {
        self.asts
            .iter()
            .find(|st| st.ast.name.eq_ignore_ascii_case(name))
            .map(|st| &st.maint)
    }

    /// Render an AST's maintainability certificate for EXPLAIN and
    /// [`PlanDetail::maintenance`].
    fn maintenance_note(&self, name: &str) -> Option<MaintenanceNote> {
        let st = self
            .asts
            .iter()
            .find(|st| st.ast.name.eq_ignore_ascii_case(name))?;
        let strategies = st
            .maint
            .reports
            .iter()
            .map(|(t, r)| (t.clone(), r.strategy))
            .collect();
        let obstructions = st
            .maint
            .reports
            .values()
            .flat_map(|r| r.obstructions.iter().map(|o| o.to_string()))
            .collect();
        Some(MaintenanceNote {
            ast: st.ast.name.clone(),
            strategies,
            obstructions,
        })
    }

    /// The current plan-cache generation: bumped by AST registration and by
    /// DDL that can change match outcomes. Cached plans (and remembered
    /// fingerprints) from earlier generations are invalidated on lookup;
    /// nothing else invalidates them.
    pub fn plan_generation(&self) -> u64 {
        self.ast_generation
    }

    /// Force-advance the plan-cache generation, invalidating every cached
    /// plan on its next lookup, so the next planning of any query runs the
    /// matcher from scratch. Crash recovery calls this after replay so a
    /// plan cached by the pre-crash process can never validate against the
    /// recovered session.
    pub fn bump_plan_generation(&mut self) {
        self.ast_generation += 1;
    }

    /// Cumulative plan-cache statistics for this session.
    pub fn plan_cache_stats(&self) -> CacheStats {
        lock_cache(&self.plan_cache).stats()
    }

    /// Cumulative result-cache statistics for this session.
    pub fn result_cache_stats(&self) -> CacheStats {
        lock_cache(&self.result_cache).stats()
    }

    /// Resize the result cache (dropping its contents, keeping its
    /// cumulative statistics); `0` disables result caching. A result is
    /// validated by fingerprint, generation and an epoch snapshot of every
    /// table its plan can depend on, so a cached result can never survive a
    /// mutation of any such table, and fault injection bypasses the cache
    /// entirely.
    pub fn set_result_cache_capacity(&mut self, n: usize) {
        self.result_cache_capacity = n;
        lock_cache(&self.result_cache).resize(n.max(1));
    }

    /// The configured result-cache capacity (`0` = disabled).
    pub fn result_cache_capacity(&self) -> usize {
        self.result_cache_capacity
    }

    /// Replace the router's cost policy. Takes effect on the next planning
    /// decision — cached plan entries stay valid because the decision is
    /// re-derived on every lookup.
    pub fn set_router_options(&mut self, opts: RouterOptions) {
        self.router = opts;
    }

    /// The router tunables in effect.
    pub fn router_options(&self) -> RouterOptions {
        self.router
    }

    /// Is `table` read by any registered AST?
    fn any_ast_reads(&self, table: &str) -> bool {
        self.asts.iter().any(|st| graph_reads(&st.ast.graph, table))
    }

    /// `Some(reason)` when the AST's recorded base epochs no longer match
    /// the database — its contents may not reflect current data.
    fn staleness(&self, st: &AstState) -> Option<String> {
        for (table, &snap) in &st.base_epochs {
            let cur = self.session.db.epoch(table);
            if cur != snap {
                return Some(format!(
                    "stale: base table `{table}` is at epoch {cur}, \
                     summary captured epoch {snap}"
                ));
            }
        }
        None
    }

    /// Run a semicolon-separated script: each statement is resolved to the
    /// change record it means ([`SummarySession::resolve`]) and that record
    /// is applied ([`SummarySession::apply`]). `CREATE SUMMARY TABLE`
    /// registers the summary for rewriting, and DML on tables read by a
    /// registered AST keeps the affected summaries fresh (incrementally
    /// where the definition allows, by full recomputation otherwise).
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>, SumtabError> {
        let stmts = parse_statements(sql).map_err(|e| SumtabError::parse(sql, e))?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            let (result, record) = self.resolve(stmt)?;
            if let Some(rec) = record {
                self.apply(&rec)?.into_result()?;
            }
            out.push(result);
        }
        Ok(out)
    }

    /// Resolve one parsed statement against current state, read-only: its
    /// result, plus the change record it means (`None` for a query, which
    /// simply executes, and for a DELETE/UPDATE that matches no row).
    ///
    /// DELETE/UPDATE resolve their `WHERE` here into row *values*: the
    /// durability layer logs exactly those (resolving the predicate again
    /// at replay time could match different rows), and summary maintenance
    /// needs the pre-images. An INSERT becomes `Append` when some registered
    /// AST reads the table and a plain `Insert` otherwise.
    pub fn resolve(
        &self,
        stmt: &Statement,
    ) -> Result<(StatementResult, Option<WalRecord>), SumtabError> {
        let s = &self.session;
        let counted =
            |n: usize, rec: WalRecord| (StatementResult::Count(n), (n > 0).then_some(rec));
        Ok(match stmt {
            Statement::Query(q) => (s.run_query(q)?, None),
            Statement::CreateTable(ct) => (
                StatementResult::Done,
                Some(WalRecord::CreateTable(table_from_ddl(ct)?)),
            ),
            Statement::AddForeignKey {
                child_table,
                columns,
                parent_table,
            } => (
                StatementResult::Done,
                Some(WalRecord::AddForeignKey {
                    child_table: child_table.clone(),
                    columns: columns.clone(),
                    parent_table: parent_table.clone(),
                }),
            ),
            // The canonical rendering is what the catalog stores and what
            // re-registration (recovery, `with_data`) parses.
            Statement::CreateSummaryTable { name, query } => (
                StatementResult::Done,
                Some(WalRecord::RegisterAst {
                    name: name.clone(),
                    query_sql: render_query(query),
                }),
            ),
            Statement::Insert { table, rows } => {
                let (table, rows) = (table.clone(), literal_rows(rows)?);
                let n = rows.len();
                let record = if self.any_ast_reads(&table) {
                    WalRecord::Append { table, rows }
                } else {
                    WalRecord::Insert { table, rows }
                };
                (StatementResult::Count(n), Some(record))
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let rows = matched_rows(&s.catalog, &s.db, &s.exec, table, where_clause.as_ref())?;
                let table = table.clone();
                counted(rows.len(), WalRecord::Delete { table, rows })
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let (old_rows, new_rows) = update_deltas(
                    &s.catalog,
                    &s.db,
                    &s.exec,
                    table,
                    sets,
                    where_clause.as_ref(),
                )?;
                counted(
                    old_rows.len(),
                    WalRecord::Update {
                        table: table.clone(),
                        old_rows,
                        new_rows,
                    },
                )
            }
        })
    }

    /// Apply one change record — the only place the catalog, the data or
    /// the AST set change (and, [`SummarySession::bump_plan_generation`]
    /// aside, the plan generation), shared by live statements, the
    /// programmatic entry points and crash-recovery replay, so the three
    /// cannot drift. Records are kind-authoritative: an `Insert` applies as
    /// a plain insert even if an AST now reads the table.
    ///
    /// `Err` means nothing was changed and nothing was logged. `Ok` means
    /// the record took effect and was logged — followed by an idempotent
    /// `Refresh` per [`Applied::refreshed`] name, and a snapshot when due.
    /// For the row-change kinds an AST that could neither be merged nor
    /// refreshed is reported in [`Applied::failed`] and left stale. The log
    /// is inert unless a [`DurableSession`] attached it after recovery.
    pub fn apply(&mut self, rec: &WalRecord) -> Result<Applied, SumtabError> {
        let applied = self.carry_out(rec)?;
        self.log_applied(rec, &applied);
        Ok(applied)
    }

    /// [`SummarySession::apply`] short of the log.
    fn carry_out(&mut self, rec: &WalRecord) -> Result<Applied, SumtabError> {
        match rec {
            // Catalog DDL can change match outcomes (a new RI constraint
            // legalizes extra joins) without moving any table epoch — hence
            // the generation bumps.
            WalRecord::CreateTable(t) => {
                self.session.catalog.add_table(t.clone())?;
                self.ast_generation += 1;
            }
            WalRecord::AddForeignKey {
                child_table,
                columns,
                parent_table,
            } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.session
                    .catalog
                    .add_foreign_key(child_table, &cols, parent_table)?;
                self.ast_generation += 1;
            }
            WalRecord::RegisterAst { name, query_sql } => self.register_ast(name, query_sql)?,
            WalRecord::DeregisterAst { name } => {
                self.session.catalog.drop_summary_table(name)?;
                self.session.db.drop_table(name);
                self.asts
                    .retain(|st| !st.ast.name.eq_ignore_ascii_case(name));
                self.registration_failures
                    .retain(|(n, _)| !n.eq_ignore_ascii_case(name));
                self.ast_generation += 1;
            }
            WalRecord::Insert { table, rows } => {
                self.session
                    .db
                    .insert(&self.session.catalog, table, rows.clone())?;
            }
            WalRecord::Append { table, rows } => return self.apply_delta(table, &[], rows),
            WalRecord::Delete { table, rows } => return self.apply_delta(table, rows, &[]),
            WalRecord::Update {
                table,
                old_rows,
                new_rows,
            } => return self.apply_delta(table, old_rows, new_rows),
            WalRecord::Refresh { name } => self.refresh_ast(name)?,
            WalRecord::EpochBump { table } => self.session.db.bump_epoch(table),
        }
        Ok(Applied::default())
    }

    /// Materialize a summary table and register it for rewriting. Every
    /// fallible step (parse, plan, schema, execution, name clash) precedes
    /// the first mutation.
    fn register_ast(&mut self, name: &str, query_sql: &str) -> Result<(), SumtabError> {
        let Session { catalog, db, exec } = &mut self.session;
        let ast = verified_ast(name, query_sql, catalog)?;
        let backing = sumtab_engine::backing_table_schema(name, &ast.graph, catalog)?;
        let st = AstState::new(ast, catalog, db);
        // The *exec* graph: a counting-delta definition that projects no row
        // counter materializes with the hidden one as an extra trailing
        // column, which lives only in backing rows — the catalog schema, and
        // therefore every query over the summary, never sees it.
        let rows = sumtab_engine::execute_with(&st.maint.exec_graph, db, exec)
            .map_err(|e| SumtabError::exec(format!("materialization of `{name}`"), e))?;
        let def = sumtab_catalog::SummaryTableDef {
            name: name.to_string(),
            query_sql: query_sql.to_string(),
        };
        catalog.add_summary_table(def, backing)?;
        db.put_table(name, rows);
        self.asts.push(st);
        self.ast_generation += 1;
        Ok(())
    }

    /// Every table a plan for `graph` can depend on, at current epochs: the
    /// query's base tables, each registered AST's base tables (staleness
    /// gating reads them), and each AST's backing table (row counts drive
    /// the best-pick; a refresh rewrites the backing table).
    fn plan_epoch_snapshot(&self, graph: &QgmGraph) -> BTreeMap<String, u64> {
        let mut snap = snapshot_epochs(&self.session.db, graph);
        for st in &self.asts {
            snap.extend(snapshot_epochs(&self.session.db, &st.ast.graph));
            let key = st.ast.name.to_ascii_lowercase();
            let e = self.session.db.epoch(&key);
            snap.insert(key, e);
        }
        snap
    }

    /// Plan a query, reporting which ASTs were used, which were skipped
    /// (stale snapshot, or the matcher erred on them) and why, and how the
    /// cost-based router disposed of the candidates.
    ///
    /// Both skip classes degrade gracefully: a stale or matcher-erroring
    /// AST is simply not used — planning continues with the remaining ASTs
    /// and, in the limit, the un-rewritten base plan.
    ///
    /// Fast paths, in order:
    ///
    /// 1. **Text memo** — an exact repeat of a SQL text seen at the current
    ///    generation skips parse, build and fingerprint.
    /// 2. **Plan cache** — a query with the same canonical fingerprint
    ///    ([`graph_fingerprint`]) planned at the same generation reuses its
    ///    cached base graph and match outcomes: the planning loop below
    ///    runs over them without any match attempt, whatever DML happened
    ///    since — including when the decision is "use the base plan": a
    ///    cost-rejected match is re-costed, not re-matched. Only an AST the
    ///    entry has no outcome for yet (one that was stale until now) is
    ///    matched. Fault injection ([`failpoint::any_armed`]) bypasses both
    ///    so injected outcomes are never stored or served.
    /// 3. **Signature filter** — those missing outcomes come from
    ///    [`Rewriter::rewrite_candidates`], which rejects
    ///    provably-unmatchable ASTs by signature and fans the rest out
    ///    across threads, with deterministic result order.
    ///
    /// Everything data can change is *derived on every call*: the
    /// staleness gate, the cheapest-match pick on current row counts, and
    /// the routing decision from those costs and the current
    /// [`RouterOptions`]. Nothing else feeds it, so planning the same query
    /// over the same data and ASTs always routes the same way.
    pub fn plan_detail(&self, sql: &str) -> Result<PlanDetail, SumtabError> {
        let (entry, _) = self.plan_entry(sql)?;
        Ok(self.route(&entry))
    }

    /// The plan entry for a query and its fingerprint; the front half of
    /// planning shared by [`SummarySession::plan_detail`] and
    /// [`SummarySession::query`]. Makes exactly one plan-cache lookup, and
    /// none under fault injection, which yields a fresh entry and no
    /// fingerprint (so nothing keyed by it is stored or served).
    fn plan_entry(&self, sql: &str) -> Result<(Arc<PlanEntry>, Option<String>), SumtabError> {
        let parse_build = || {
            let q = parse_query(sql).map_err(|e| SumtabError::parse(sql, e))?;
            build_query(&q, &self.session.catalog).map_err(|e| SumtabError::plan(sql, e))
        };
        if failpoint::any_armed() {
            Ok((Arc::new(PlanEntry::new(parse_build()?)), None))
        } else {
            let generation = self.ast_generation;
            let remembered = lock_cache(&self.text_memo)
                .lookup(sql, &BTreeMap::new(), generation)
                .cloned();
            let (fp, built) = match remembered {
                Some(fp) => (fp, None),
                None => {
                    let g = parse_build()?;
                    let fp = graph_fingerprint(&g);
                    lock_cache(&self.text_memo).store(
                        sql.to_string(),
                        BTreeMap::new(),
                        generation,
                        fp.clone(),
                    );
                    (fp, Some(g))
                }
            };
            let cached = lock_cache(&self.plan_cache)
                .lookup(&fp, &BTreeMap::new(), generation)
                .cloned();
            let entry = match cached {
                Some(e) => e,
                None => {
                    let base = match built {
                        Some(g) => g,
                        None => parse_build()?,
                    };
                    let e = Arc::new(PlanEntry::new(base));
                    lock_cache(&self.plan_cache).store(
                        fp.clone(),
                        BTreeMap::new(),
                        generation,
                        Arc::clone(&e),
                    );
                    e
                }
            };
            Ok((entry, Some(fp)))
        }
    }

    /// Route a plan entry: run the planning loop at current epochs and row
    /// counts, then keep the best rewrite only if the cost model says it
    /// wins ([`cost::rewrite_wins`]).
    fn route(&self, entry: &PlanEntry) -> PlanDetail {
        let RoutedPlan {
            base_cost,
            rewrite,
            skipped,
        } = self.compute_routed_plan(entry);
        match rewrite {
            Some(alt) if cost::rewrite_wins(&base_cost, &alt.cost, &self.router.policy) => {
                PlanDetail {
                    maintenance: alt
                        .used
                        .iter()
                        .filter_map(|n| self.maintenance_note(n))
                        .collect(),
                    graph: alt.graph,
                    used: alt.used,
                    skipped,
                    routing: RouteDecision::Rewrite,
                }
            }
            rewrite => PlanDetail {
                graph: entry.base.clone(),
                used: Vec::new(),
                skipped,
                routing: match rewrite {
                    None => RouteDecision::NoMatch,
                    Some(alt) => RouteDecision::Base {
                        base_cost: base_cost.total,
                        rewrite_cost: alt.cost.total,
                        rejected: alt.used,
                    },
                },
                maintenance: Vec::new(),
            },
        }
    }

    /// The planning loop: gate out stale ASTs, greedily apply the cheapest
    /// matching AST until none matches, and cost both alternatives at
    /// current row counts. Match outcomes come from the entry's memo, and
    /// only the ones it lacks are computed (and stored) — on a fresh entry
    /// that is every one, so a cold lookup runs exactly the matches a
    /// memo-less loop would.
    fn compute_routed_plan(&self, entry: &PlanEntry) -> RoutedPlan {
        // Built on the first missing outcome only: sizing its pool asks the
        // OS for the available parallelism, which costs more than a whole
        // memoized lookup.
        let mut rewriter: Option<Rewriter> = None;
        let row_count = |t: &str| self.session.db.row_count(t);
        let mut memo = lock_cache(&entry.memo);
        let mut used = Vec::new();
        let mut skipped = Vec::new();

        // Soundness gate: an AST whose base tables changed since its last
        // (re)materialization could answer with outdated data — skip it.
        let mut candidates: Vec<&AstState> = Vec::new();
        for st in &self.asts {
            match self.staleness(st) {
                Some(reason) => skipped.push(SkippedAst {
                    ast: st.ast.name.clone(),
                    reason,
                }),
                None => candidates.push(st),
            }
        }

        // The rewritten graph so far; `None` until an AST is applied.
        let mut graph: Option<QgmGraph> = None;
        loop {
            let mut errored: Vec<usize> = Vec::new();
            let mut eligible: Vec<usize> = Vec::new();
            for (i, st) in candidates.iter().enumerate() {
                if failpoint::triggered("match") {
                    // A matcher failure disqualifies the AST but must not
                    // sink the query: record and move on.
                    skipped.push(SkippedAst {
                        ast: st.ast.name.clone(),
                        reason: "matcher error: injected fault at failpoint `match`".to_string(),
                    });
                    errored.push(i);
                } else {
                    eligible.push(i);
                }
            }
            // The graph at this state is a function of the ASTs applied so
            // far, so their sequence keys its outcomes.
            let outcomes = memo.entry(used.clone()).or_default();
            let missing: Vec<&RegisteredAst> = eligible
                .iter()
                .map(|&i| &candidates[i].ast)
                .filter(|a| !outcomes.contains_key(&a.name))
                .collect();
            if !missing.is_empty() {
                let rewriter = rewriter.get_or_insert_with(|| Rewriter::new(&self.session.catalog));
                let query = graph.as_ref().unwrap_or(&entry.base);
                let computed = rewriter.rewrite_candidates(query, &missing);
                for (ast, outcome) in missing.iter().zip(computed) {
                    outcomes.insert(ast.name.clone(), outcome);
                }
            }
            // §7 multi-AST choice: among the matching candidates, take the
            // one whose rewritten graph the cost model estimates cheapest
            // (previously: fewest backing rows — a scan-only proxy).
            let mut best: Option<(usize, &Rewrite, f64)> = None;
            for &i in &eligible {
                match outcomes.get(&candidates[i].ast.name) {
                    Some(CandidateOutcome::Match(rw)) => {
                        let c = cost::estimate(&rw.graph, &row_count).total;
                        if best.as_ref().is_none_or(|(_, _, b)| c < *b) {
                            best = Some((i, rw, c));
                        }
                    }
                    Some(CandidateOutcome::Error(e)) => {
                        skipped.push(SkippedAst {
                            ast: candidates[i].ast.name.clone(),
                            reason: format!("matcher error: {}", e.detail),
                        });
                        errored.push(i);
                    }
                    _ => {}
                }
            }
            let Some((chosen, rw, _)) = best else {
                break;
            };
            used.push(rw.ast_name.clone());
            graph = Some(rw.graph.clone());
            let mut remove = errored;
            remove.push(chosen);
            remove.sort_unstable();
            for i in remove.into_iter().rev() {
                candidates.remove(i);
            }
        }

        RoutedPlan {
            base_cost: cost::estimate(&entry.base, &row_count),
            rewrite: graph.map(|graph| RewriteAlt {
                cost: cost::estimate(&graph, &row_count),
                graph,
                used,
            }),
            skipped,
        }
    }

    /// Execute a query with transparent rewriting.
    ///
    /// Graceful degradation: when an AST-backed plan fails at execution
    /// time (a corrupt backing table, an injected fault, a malformed
    /// rewritten graph), the query is re-planned *without* summary tables
    /// and answered from base data. The result then carries the failure in
    /// [`QueryResult::fallback`] and `used_ast` is `None`. Errors in the
    /// un-rewritten path itself still surface as `Err` — there is nothing
    /// left to fall back to.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, SumtabError> {
        let (entry, fp) = self.plan_entry(sql)?;
        // Result cache: an identical query at identical table epochs and
        // AST generation replays the stored result without executing — or
        // routing: the key needs only the plan entry. Fault injection
        // already forced `fp` to `None`, so injected outcomes are never
        // stored or served.
        let key = match &fp {
            Some(fp) if self.result_cache_capacity > 0 => {
                Some((fp.clone(), self.plan_epoch_snapshot(&entry.base)))
            }
            _ => None,
        };
        if let Some((fp, snap)) = &key {
            if let Some(hit) = lock_cache(&self.result_cache).lookup(fp, snap, self.ast_generation)
            {
                return Ok(hit.clone());
            }
        }
        let detail = self.route(&entry);
        let header: Vec<String> = detail
            .graph
            .boxed(detail.graph.root)
            .outputs
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let exec = if !detail.used.is_empty() && failpoint::triggered("execute-rewritten") {
            Err(sumtab_engine::ExecError::Injected(
                "execute-rewritten".to_string(),
            ))
        } else {
            sumtab_engine::execute_with(&detail.graph, &self.session.db, &self.session.exec)
        };
        match exec {
            Ok(rows) => {
                let result = QueryResult {
                    header,
                    rows,
                    used_ast: detail.used.first().cloned(),
                    executed_sql: render_graph_sql(&detail.graph),
                    fallback: None,
                    routed: detail.routing.describe(),
                };
                if let Some((fp, snap)) = key {
                    lock_cache(&self.result_cache).store(
                        fp,
                        snap,
                        self.ast_generation,
                        result.clone(),
                    );
                }
                Ok(result)
            }
            Err(cause) if !detail.used.is_empty() => {
                let (header, rows) = self.session.query(sql)?;
                Ok(QueryResult {
                    header,
                    rows,
                    used_ast: None,
                    executed_sql: sql.to_string(),
                    fallback: Some(format!(
                        "AST-backed plan using {} failed at execution ({cause}); \
                         fell back to the base plan",
                        detail.used.join(", ")
                    )),
                    routed: None,
                })
            }
            Err(cause) => Err(SumtabError::exec(sql, cause)),
        }
    }

    /// Execute a query WITHOUT rewriting (the baseline for comparisons).
    pub fn query_no_rewrite(&mut self, sql: &str) -> Result<QueryResult, SumtabError> {
        let (header, rows) = self.session.query(sql)?;
        Ok(QueryResult {
            header,
            rows,
            used_ast: None,
            executed_sql: sql.to_string(),
            fallback: None,
            routed: None,
        })
    }

    /// EXPLAIN-style view: the SQL that would actually run, with routing
    /// and per-AST skip reasons as leading comments.
    pub fn explain(&self, sql: &str) -> Result<String, SumtabError> {
        let detail = self.plan_detail(sql)?;
        let mut out = String::new();
        if !detail.used.is_empty() {
            out.push_str(&format!("-- answered from: {}\n", detail.used.join(", ")));
        } else if detail.routing.describe().is_none() {
            // Truly no usable rewrite. When the router *declined* one, the
            // routing line below tells the fuller story instead.
            out.push_str("-- no summary table applicable\n");
        }
        if let Some(why) = detail.routing.describe() {
            out.push_str(&format!("-- routing: {why}\n"));
        }
        for s in &detail.skipped {
            out.push_str(&format!("-- skipped {}: {}\n", s.ast, s.reason));
        }
        for note in &detail.maintenance {
            let strategies: Vec<String> = note
                .strategies
                .iter()
                .map(|(t, s)| format!("{t}={s}"))
                .collect();
            out.push_str(&format!(
                "-- maintenance {}: {}\n",
                note.ast,
                strategies.join(", ")
            ));
            for o in &note.obstructions {
                out.push_str(&format!("-- obstruction {}: {o}\n", note.ast));
            }
        }
        out.push_str(&render_graph_sql(&detail.graph));
        Ok(out)
    }

    /// Append rows to a base table and maintain every affected summary
    /// table — the programmatic form of an `Append` record (what an INSERT
    /// into an AST-read table resolves to). Returns the names of the
    /// incrementally-maintained ASTs.
    pub fn append(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<String>, SumtabError> {
        let table = table.to_string();
        let applied = self.apply(&WalRecord::Append { table, rows })?;
        applied.into_result().map(|a| a.maintained)
    }

    /// Refresh one summary table from current base data (full recompute),
    /// re-snapshotting its base-table epochs and so clearing any staleness.
    pub fn refresh(&mut self, name: &str) -> Result<(), SumtabError> {
        let name = name.to_string();
        self.apply(&WalRecord::Refresh { name }).map(drop)
    }

    /// Deregister a summary table: drops its definition and backing schema
    /// from the catalog, its materialized data from the database, and its
    /// rewrite registration. Errors if no such summary table exists.
    pub fn deregister(&mut self, name: &str) -> Result<(), SumtabError> {
        let name = name.to_string();
        self.apply(&WalRecord::DeregisterAst { name }).map(drop)
    }

    /// Invalidate a table: bump its modification epoch (marking every
    /// summary snapshotted against it stale, and invalidating cached
    /// results that read it) without changing its data.
    pub fn invalidate(&mut self, table: &str) {
        let table = table.to_string();
        // Applying an epoch bump cannot fail.
        let _ = self.apply(&WalRecord::EpochBump { table });
    }

    /// Change a base table's rows — `removed` leave, `inserted` arrive (an
    /// append removes nothing, a delete inserts nothing, an update does
    /// both, positionally paired) — and bring every summary that reads the
    /// table up to date. `removed` must be rows currently present in
    /// `table`, as [`SummarySession::resolve`] and the WAL produce them; a
    /// record whose pre-images are not all there (one applied twice, a
    /// stale `old_rows`) is refused with nothing changed.
    ///
    /// A fresh AST whose registration-time certificate covers the change
    /// merges the delta: any certificate covers appends, removing rows
    /// needs counting-delta (dropping groups whose row counter reaches
    /// zero). Everything else — refresh-only shapes, and ASTs already stale,
    /// which a merge would wrongly stamp fresh — recomputes in full.
    fn apply_delta(
        &mut self,
        table: &str,
        removed: &[Row],
        inserted: &[Row],
    ) -> Result<Applied, SumtabError> {
        let table_lc = table.to_ascii_lowercase();
        // Classify first, against the pre-change state.
        let mut incremental = Vec::new();
        let mut full = Vec::new();
        for (i, st) in self.asts.iter().enumerate() {
            if !graph_reads(&st.ast.graph, table) {
                continue;
            }
            match st.maint.plan_for(&table_lc) {
                Some(plan)
                    if self.staleness(st).is_none()
                        && (removed.is_empty()
                            || plan.strategy == qgm::MaintStrategy::CountingDelta) =>
                {
                    incremental.push((i, plan))
                }
                _ => full.push(st.ast.name.clone()),
            }
        }
        // Change the base rows next; the delta aggregations below override
        // the table with just the changed rows, over the post-change state
        // of every other table. The database locates every removed row
        // before it moves one, so a validation failure or a missing
        // pre-image returns here with nothing changed — no AST may be
        // handed a delta the base table did not take.
        let Session { catalog, db, .. } = &mut self.session;
        if removed.is_empty() {
            db.insert(catalog, table, inserted.to_vec())?;
        } else {
            db.replace_rows(catalog, table, removed, inserted.to_vec())?;
        }
        // From here on the record has taken effect: failures are collected,
        // never returned.
        let mut applied = Applied::default();
        for (i, plan) in incremental {
            let name = self.asts[i].ast.name.clone();
            match self.apply_incremental(i, &plan, &table_lc, removed, inserted) {
                Ok(()) => applied.maintained.push(name),
                // Degrade: recompute from scratch rather than leaving the
                // summary stale (and thus skipped by the planner).
                Err(cause) => match self.refresh_ast(&name) {
                    Ok(()) => applied.refreshed.push(name),
                    Err(e) => {
                        applied.failed.get_or_insert(SumtabError::Maintain {
                            ast: name,
                            detail: format!(
                                "incremental maintenance failed ({cause}) and the \
                                 fallback full refresh also failed: {e}"
                            ),
                        });
                    }
                },
            }
        }
        for name in full {
            if let Err(e) = self.refresh_ast(&name) {
                applied.failed.get_or_insert(e);
            }
        }
        Ok(applied)
    }

    /// Run one incremental maintenance step for AST `i` with full gating:
    /// the plan verifier (passes 1–3) in front, the `maintain` failpoint,
    /// the one delta merge of pre- and post-images, and — under runtime
    /// checks — the recompute-equivalence assertion behind. `Err(cause)` on
    /// any of them: the caller degrades to a full refresh.
    fn apply_incremental(
        &mut self,
        i: usize,
        plan: &maintain::MaintenancePlan,
        table_lc: &str,
        removed: &[Row],
        inserted: &[Row],
    ) -> Result<(), String> {
        use maintain::DeltaOutcome;
        let checks = sumtab_qgm::verify::runtime_checks_enabled();
        let st = &self.asts[i];
        let (g, name) = (&st.maint.exec_graph, st.ast.name.as_str());
        if checks {
            maintain::verify_maintenance(g, plan, &self.session.catalog)
                .map_err(|e| e.to_string())?;
        }
        if failpoint::triggered("maintain") {
            return Err("injected fault: maintain".to_string());
        }
        let db = &mut self.session.db;
        let outcome = maintain::merge(g, plan, name, table_lc, removed, inserted, db)
            .map_err(|e| e.to_string())?;
        if let DeltaOutcome::NeedsRefresh(why) = outcome {
            return Err(why);
        }
        if checks {
            maintain::check_equivalence(g, name, db)
                .map_err(|why| format!("recompute-equivalence check failed: {why}"))?;
        }
        let epoch = db.epoch(table_lc);
        self.asts[i].base_epochs.insert(table_lc.to_string(), epoch);
        Ok(())
    }

    /// Recompute one summary table from current base data. Runs the *exec*
    /// graph, so a hidden-counter AST re-materializes with its counter
    /// column intact. Carries the `refresh` failpoint.
    fn refresh_ast(&mut self, name: &str) -> Result<(), SumtabError> {
        let maintain_err = |detail: &str| SumtabError::Maintain {
            ast: name.to_string(),
            detail: detail.to_string(),
        };
        let idx = self
            .asts
            .iter()
            .position(|a| a.ast.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| maintain_err("unknown summary table"))?;
        if failpoint::triggered("refresh") {
            return Err(maintain_err("injected fault: refresh"));
        }
        let rows = sumtab_engine::execute_with(
            &self.asts[idx].maint.exec_graph,
            &self.session.db,
            &self.session.exec,
        )
        .map_err(|e| SumtabError::exec(format!("refresh of `{name}`"), e))?;
        self.session.db.put_table(name, rows);
        self.asts[idx].base_epochs = snapshot_epochs(&self.session.db, &self.asts[idx].ast.graph);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::{Column, SummaryTableDef, Table};

    #[test]
    fn transparent_rewriting_round_trip() {
        let mut s = SummarySession::new();
        s.run_script(
            "create table t (k int not null, v int not null);
             insert into t values (1, 10), (1, 20), (2, 30);
             create summary table st as (select k, sum(v) as sv, count(*) as c from t group by k);",
        )
        .unwrap();
        let with = s.query("select k, sum(v) as sv from t group by k").unwrap();
        assert_eq!(with.used_ast.as_deref(), Some("st"));
        assert!(with.fallback.is_none());
        let without = s
            .query_no_rewrite("select k, sum(v) as sv from t group by k")
            .unwrap();
        assert_eq!(sort_rows(with.rows), sort_rows(without.rows));
    }

    #[test]
    fn explain_reports_routing() {
        let mut s = SummarySession::new();
        s.run_script(
            "create table t (k int not null, v int not null);
             insert into t values (1, 1);
             create summary table st as (select k, count(*) as c from t group by k);",
        )
        .unwrap();
        let plan = s
            .explain("select k, count(*) as c from t group by k")
            .unwrap();
        assert!(plan.contains("answered from: st"), "{plan}");
        let plan2 = s.explain("select v from t").unwrap();
        assert!(plan2.contains("no summary table applicable"), "{plan2}");
    }

    #[test]
    fn stale_asts_are_skipped_until_refreshed() {
        let mut s = SummarySession::new();
        s.run_script(
            "create table t (k int not null);
             insert into t values (1);
             create summary table st as (select k, count(*) as c from t group by k);",
        )
        .unwrap();
        // Mutate the base table BEHIND the session's back (directly in the
        // database), so no maintenance runs and `st`'s snapshot goes stale.
        let Session { catalog, db, .. } = &mut s.session;
        db.insert(catalog, "t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        assert_eq!(s.session.db.row_count("st"), 1, "summary is a snapshot");

        // The planner must refuse the stale AST and answer from base data.
        let detail = s
            .plan_detail("select k, count(*) as c from t group by k")
            .unwrap();
        assert!(detail.used.is_empty(), "stale AST must not be used");
        assert_eq!(detail.skipped.len(), 1);
        assert!(detail.skipped[0].reason.contains("stale"), "{detail:?}");
        let explain = s
            .explain("select k, count(*) as c from t group by k")
            .unwrap();
        assert!(explain.contains("skipped st: stale"), "{explain}");
        let r = s
            .query("select k, count(*) as c from t group by k")
            .unwrap();
        assert_eq!(r.used_ast, None);
        assert_eq!(
            sort_rows(r.rows),
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(1)],
            ],
            "answers reflect current data, not the stale summary"
        );

        // Refresh clears the staleness and re-enables routing. The name is
        // matched without regard to case, as `deregister` and the database
        // match it (a replayed `Refresh` record may differ in case from the
        // registration).
        s.refresh("ST").unwrap();
        assert_eq!(s.session.db.row_count("st"), 2);
        let r = s
            .query("select k, count(*) as c from t group by k")
            .unwrap();
        assert_eq!(r.used_ast.as_deref(), Some("st"));

        // Invalidating the base table marks `st` stale without touching a
        // row; the next refresh routes through it again.
        let rows = sort_rows(s.session.db.rows("t").to_vec());
        s.invalidate("t");
        let detail = s
            .plan_detail("select k, count(*) as c from t group by k")
            .unwrap();
        assert!(detail.used.is_empty(), "{detail:?}");
        assert!(
            detail
                .skipped
                .iter()
                .any(|k| k.ast == "st" && k.reason.contains("stale")),
            "{detail:?}"
        );
        assert_eq!(sort_rows(s.session.db.rows("t").to_vec()), rows);
        s.refresh("st").unwrap();
        let r = s
            .query("select k, count(*) as c from t group by k")
            .unwrap();
        assert_eq!(r.used_ast.as_deref(), Some("st"));
    }

    #[test]
    fn script_inserts_keep_summaries_fresh() {
        let mut s = SummarySession::new();
        s.run_script(
            "create table t (k int not null);
             insert into t values (1);
             create summary table st as (select k, count(*) as c from t group by k);",
        )
        .unwrap();
        // Post-registration INSERTs route through append-maintenance.
        s.run_script("insert into t values (1), (2)").unwrap();
        assert_eq!(s.session.db.row_count("st"), 2, "summary maintained");
        let r = s
            .query("select k, count(*) as c from t group by k")
            .unwrap();
        assert_eq!(r.used_ast.as_deref(), Some("st"), "AST still fresh");
        assert_eq!(
            sort_rows(r.rows),
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn with_data_reregisters_asts() {
        let mut s1 = SummarySession::new();
        s1.run_script(
            "create table t (k int not null);
             insert into t values (1), (1);
             create summary table st as (select k, count(*) as c from t group by k);",
        )
        .unwrap();
        let s2 = SummarySession::with_data(s1.session.catalog.clone(), s1.session.db.clone());
        assert_eq!(s2.asts().len(), 1);
        assert!(s2.registration_failures().is_empty());
    }

    #[test]
    fn with_data_reports_undecodable_definitions() {
        let mut s1 = SummarySession::new();
        s1.run_script("create table t (k int not null); insert into t values (1);")
            .unwrap();
        let mut cat = s1.session.catalog.clone();
        // A definition that no longer plans (references a missing column).
        cat.add_summary_table(
            SummaryTableDef {
                name: "bad".into(),
                query_sql: "select nope, count(*) as c from t group by nope".into(),
            },
            Table::new("bad", vec![Column::new("nope", SqlType::Int)]),
        )
        .unwrap();
        let s2 = SummarySession::with_data(cat, s1.session.db.clone());
        assert!(s2.asts().is_empty());
        assert_eq!(s2.registration_failures().len(), 1);
        let (name, reason) = &s2.registration_failures()[0];
        assert_eq!(name, "bad");
        assert!(reason.contains("nope"), "{reason}");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod maintain_integration_tests {
    use super::*;

    #[test]
    fn append_maintains_incrementally_and_stays_consistent() {
        let mut s = SummarySession::new();
        s.run_script(
            "create table t (k int not null, v int not null);
             insert into t values (1, 10), (2, 5);
             create summary table st as
               (select k, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx
                from t group by k);",
        )
        .unwrap();
        let maintained = s
            .append(
                "t",
                vec![
                    vec![Value::Int(1), Value::Int(3)],
                    vec![Value::Int(3), Value::Int(7)],
                ],
            )
            .unwrap();
        assert_eq!(maintained, vec!["st".to_string()], "incremental path used");
        // The maintained summary equals a from-scratch recomputation.
        let direct = s
            .query_no_rewrite(
                "select k, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx \
                 from t group by k",
            )
            .unwrap();
        let stored = s
            .query_no_rewrite("select k, c, s, mn, mx from st")
            .unwrap();
        assert_eq!(sort_rows(direct.rows), sort_rows(stored.rows));
        // And queries routed through it see the fresh data.
        let routed = s.query("select k, sum(v) as s from t group by k").unwrap();
        assert_eq!(routed.used_ast.as_deref(), Some("st"));
        assert_eq!(
            sort_rows(routed.rows),
            vec![
                vec![Value::Int(1), Value::Int(13)],
                vec![Value::Int(2), Value::Int(5)],
                vec![Value::Int(3), Value::Int(7)],
            ]
        );
    }

    #[test]
    fn append_falls_back_to_refresh_for_having_asts() {
        let mut s = SummarySession::new();
        s.run_script(
            "create table t (k int not null);
             insert into t values (1), (1), (2);
             create summary table big as
               (select k, count(*) as c from t group by k having count(*) > 1);",
        )
        .unwrap();
        let maintained = s.append("t", vec![vec![Value::Int(2)]]).unwrap();
        assert!(maintained.is_empty(), "HAVING forces full refresh");
        let stored = s.query_no_rewrite("select k, c from big").unwrap();
        assert_eq!(
            sort_rows(stored.rows),
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn append_to_unrelated_table_leaves_asts_alone() {
        let mut s = SummarySession::new();
        s.run_script(
            "create table t (k int not null);
             create table u (k int not null);
             insert into t values (1);
             create summary table st as (select k, count(*) as c from t group by k);",
        )
        .unwrap();
        let maintained = s.append("u", vec![vec![Value::Int(9)]]).unwrap();
        assert!(maintained.is_empty());
        assert_eq!(s.session.db.row_count("st"), 1);
    }
}
