//! # sumtab
//!
//! Answering complex SQL queries using Automatic Summary Tables — a Rust
//! reproduction of Zaharioudakis et al., SIGMOD 2000.
//!
//! This facade crate re-exports the whole workspace and adds
//! [`SummarySession`]: a SQL session in which `CREATE SUMMARY TABLE`
//! registers an AST for *transparent* use — subsequent queries are
//! automatically rewritten to read the summary table whenever the matching
//! algorithm proves they can be. The session applies change records and
//! executes plans; its private `planner` module owns the rest of the read
//! path — the §7 greedy loop, the match memo, the three caches, routing.
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
mod planner;

pub use sumtab_catalog as catalog;
pub use sumtab_datagen as datagen;
pub use sumtab_engine as engine;
pub use sumtab_matcher as matcher;
pub use sumtab_parser as parser;
pub use sumtab_persist as persist;
pub use sumtab_persist::failpoint;
pub use sumtab_qgm as qgm;

pub use durable::{DurabilityMode, DurableOptions, DurableSession, RecoverError, RecoveryReport};
pub use planner::{MaintenanceNote, PlanDetail, RouteDecision, RouterOptions, SkippedAst};

pub use sumtab_catalog::{Catalog, Date, SqlType, Value};
pub use sumtab_engine::{
    format_table, rows_approx_eq, sort_rows, CacheStats, Database, PlanCache, Row, Session,
    SumtabError,
};
pub use sumtab_matcher::cost;
pub use sumtab_matcher::{
    baseline::baseline_matches, AstDefError, CandidateOutcome, MatchError, RegisteredAst, Rewrite,
    Rewriter,
};
pub use sumtab_qgm::{build_query, graph_fingerprint, render_graph_sql, QgmGraph};

use planner::{PlanView, Planner};
use std::collections::BTreeMap;
use sumtab_engine::session::{literal_rows, table_from_ddl, StatementResult};
use sumtab_engine::{matched_rows, update_deltas};
use sumtab_parser::render::render_query;
use sumtab_parser::{parse_statements, Statement};
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
    /// When the router *deliberately* declined a viable rewrite — it did
    /// not read enough fewer stored rows — the reason is reported here.
    /// `None` for the normal paths (no match, or the rewrite was chosen and
    /// ran).
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
    /// strategy certificates, the exec graph (definition, possibly
    /// augmented with hidden counts) and the maintenance plan.
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

    /// `Some(reason)` when the recorded base epochs no longer match the
    /// database — the summary's contents may not reflect current data.
    pub(crate) fn staleness(&self, db: &Database) -> Option<String> {
        for (table, &snap) in &self.base_epochs {
            let cur = db.epoch(table);
            if cur != snap {
                return Some(format!(
                    "stale: base table `{table}` is at epoch {cur}, \
                     summary captured epoch {snap}"
                ));
            }
        }
        None
    }
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

/// Answer a query from base tables, without rewriting.
fn base_answer(session: &Session, sql: &str) -> Result<QueryResult, SumtabError> {
    let (header, rows) = session.query(sql)?;
    Ok(QueryResult {
        header,
        rows,
        used_ast: None,
        executed_sql: sql.to_string(),
        fallback: None,
        routed: None,
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
#[derive(Default)]
pub struct SummarySession {
    /// The underlying engine session (catalog + data).
    pub session: Session,
    asts: Vec<AstState>,
    registration_failures: Vec<(String, String)>,
    /// The text memo, the plan cache and the result cache.
    planner: Planner,
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
        self.planner.plan_cache_stats()
    }

    /// Cumulative result-cache statistics for this session.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.planner.result_cache_stats()
    }

    /// Resize the result cache (dropping its contents, keeping its
    /// cumulative statistics); `0` disables result caching. A result is
    /// validated by fingerprint, generation and an epoch snapshot of every
    /// table its plan can depend on, so a cached result can never survive a
    /// mutation of any such table, and fault injection bypasses the cache
    /// entirely.
    pub fn set_result_cache_capacity(&mut self, n: usize) {
        self.planner.set_result_cache_capacity(n);
    }

    /// The configured result-cache capacity (`0` = disabled).
    pub fn result_cache_capacity(&self) -> usize {
        self.planner.result_cache_capacity()
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

    /// What the planner reads of this session.
    fn view(&self) -> PlanView<'_> {
        PlanView {
            catalog: &self.session.catalog,
            db: &self.session.db,
            asts: &self.asts,
            generation: self.ast_generation,
            policy: self.router.policy,
        }
    }

    /// Is `table` read by any registered AST?
    fn any_ast_reads(&self, table: &str) -> bool {
        self.asts.iter().any(|st| graph_reads(&st.ast.graph, table))
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
        // The *exec* graph: a counting-delta definition materializes with its
        // hidden counts (a row counter when it projects none, a COUNT(arg)
        // per nullable SUM(arg)) as extra trailing columns, which live only
        // in backing rows — the catalog schema, and therefore every query
        // over the summary, never sees them.
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

    /// Plan a query, reporting which ASTs were used, which were skipped
    /// (stale snapshot, or the matcher erred on them) and why, and how the
    /// cost-based router disposed of the candidates.
    ///
    /// Both skip classes degrade gracefully: a stale or matcher-erroring
    /// AST is simply not used — planning continues with the remaining ASTs
    /// and, in the limit, the un-rewritten base plan. A repeat reuses the
    /// cached match outcomes; staleness, costs and the route are derived
    /// anew on every call.
    pub fn plan_detail(&self, sql: &str) -> Result<PlanDetail, SumtabError> {
        self.planner.plan_detail(&self.view(), sql)
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
        let session = &self.session;
        self.planner.query(&self.view(), sql, |detail| {
            let header: Vec<String> = (detail.graph.boxed(detail.graph.root).outputs.iter())
                .map(|c| c.name.clone())
                .collect();
            let exec = if !detail.used.is_empty() && failpoint::triggered("execute-rewritten") {
                let injected = "execute-rewritten".to_string();
                Err(sumtab_engine::ExecError::Injected(injected))
            } else {
                sumtab_engine::execute_with(&detail.graph, &session.db, &session.exec)
            };
            match exec {
                Ok(rows) => Ok(QueryResult {
                    header,
                    rows,
                    used_ast: detail.used.first().cloned(),
                    executed_sql: render_graph_sql(&detail.graph),
                    fallback: None,
                    routed: detail.routing.describe(),
                }),
                Err(cause) if !detail.used.is_empty() => Ok(QueryResult {
                    fallback: Some(format!(
                        "AST-backed plan using {} failed at execution ({cause}); \
                         fell back to the base plan",
                        detail.used.join(", ")
                    )),
                    ..base_answer(session, sql)?
                }),
                Err(cause) => Err(SumtabError::exec(sql, cause)),
            }
        })
    }

    /// Execute a query WITHOUT rewriting (the baseline for comparisons).
    pub fn query_no_rewrite(&mut self, sql: &str) -> Result<QueryResult, SumtabError> {
        base_answer(&self.session, sql)
    }

    /// EXPLAIN-style view: the SQL that would actually run, with routing,
    /// per-AST skip reasons and maintenance certificates as leading
    /// comments.
    pub fn explain(&self, sql: &str) -> Result<String, SumtabError> {
        self.planner.explain(&self.view(), sql)
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
    /// A fresh AST that is counting-delta for `table` merges the delta
    /// (dropping groups whose row counter reaches zero). Everything else —
    /// refresh-only shapes, and ASTs already stale, which a merge would
    /// wrongly stamp fresh — recomputes in full.
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
                Some(plan) if st.staleness(&self.session.db).is_none() => {
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
        db.replace_rows(catalog, table, removed, inserted.to_vec())?;
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
    /// graph, so an AST with hidden counts re-materializes with those
    /// columns intact. Carries the `refresh` failpoint.
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
