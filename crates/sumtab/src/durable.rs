//! Durable sessions: a write-ahead-logged, snapshotted [`SummarySession`]
//! that survives crashes with its full state — catalog, base data,
//! registered ASTs and their materialized contents, per-table modification
//! epochs, and the plan-cache generation.
//!
//! ## Protocol (logical redo; DESIGN.md §12 has the invariants)
//!
//! Every mutating operation is one [`WalRecord`]: a statement is resolved
//! to its record ([`SummarySession::resolve`]), the record is applied **in
//! memory first** ([`SummarySession::apply`]), and then that same record is
//! appended (checksummed, fsynced) to `wal.bin`; only then is it
//! acknowledged. Memory and log agree afterwards either way: an apply that
//! fails changed nothing and logs nothing, an apply that took effect is
//! logged even when it reports a summary it could not maintain.
//!
//! Every `snapshot_every` records the whole session state is serialized to
//! `snapshot.bin` via an atomic temp-file-then-rename, after which the log
//! is reset. Recovery ([`DurableSession::open`]) loads the newest valid
//! snapshot, replays the WAL records it does not already cover, truncates
//! any torn tail at the last valid record, and re-runs the plan verifier on
//! every recovered AST registration — an AST that no longer verifies is
//! *skipped* with a typed [`RecoverError::AstRejected`] entry in the
//! [`RecoveryReport`], never loaded and never a panic.
//!
//! ## Degradation, not failure
//!
//! When a WAL append fails even after bounded retry-with-backoff, the
//! session drops to [`DurabilityMode::Ephemeral`] — it keeps answering
//! queries and applying mutations in memory, and the mode (with its cause)
//! is explicitly reported rather than silently losing the durability
//! guarantee. A failed snapshot is softer still: the previous snapshot plus
//! the intact WAL remain authoritative, and the error is surfaced through
//! [`DurableSession::last_snapshot_error`].
//!
//! ## Replay determinism
//!
//! Replay calls the *same* [`SummarySession::apply`] as live execution, on
//! the same records, so epochs advance identically and recovered staleness
//! bookkeeping matches the pre-crash session. The one non-deterministic
//! live event — an incremental maintenance attempt that a transient fault
//! pushed onto the full-refresh path — is neutralized by logging an
//! idempotent `Refresh` record after the change record. After replay the
//! plan-cache generation is bumped once more than the pre-crash session
//! ever saw, so no plan cached before the crash can validate against the
//! recovered session.

use crate::{Applied, SummarySession};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use sumtab_catalog::{Catalog, Table};
use sumtab_engine::session::StatementResult;
use sumtab_engine::{Database, Row, SumtabError};
use sumtab_parser::parse_statements;
use sumtab_persist::snapshot::{self, SnapshotState};
use sumtab_persist::wal::{self, Wal, WalRecord};
use sumtab_persist::{PersistError, WalOptions};

/// WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.bin";

/// Configuration for a [`DurableSession`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Take a snapshot (and reset the log) after this many WAL records.
    /// `0` disables automatic snapshots — the log then grows until
    /// [`DurableSession::snapshot_now`] is called.
    pub snapshot_every: u64,
    /// WAL write options (retry policy, fsync).
    pub wal: WalOptions,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            snapshot_every: 64,
            wal: WalOptions::default(),
        }
    }
}

/// Whether the session is actually persisting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Mutations are logged (and snapshotted) before acknowledgement.
    Durable,
    /// The WAL became unavailable; the session continues in memory only.
    /// Ops applied in this mode are lost on crash — explicitly, not
    /// silently: the reason records what failed.
    Ephemeral {
        /// Why durability was lost.
        reason: String,
    },
}

/// A failure while opening/recovering a durable session, or a typed note
/// about an AST recovery skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoverError {
    /// The storage layer failed (IO, or validated-as-corrupt state).
    Storage(PersistError),
    /// A WAL record could not be re-applied to the recovered session.
    Replay {
        /// The record's LSN.
        lsn: u64,
        /// What went wrong.
        detail: String,
    },
    /// A recovered AST registration no longer parses, plans, or passes the
    /// plan verifier. Recovery *skips* the AST (it takes no part in
    /// rewriting) and continues; this variant appears in
    /// [`RecoveryReport::rejected`], not as a hard error.
    AstRejected {
        /// The AST's name.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Storage(e) => write!(f, "recovery storage error: {e}"),
            RecoverError::Replay { lsn, detail } => {
                write!(f, "replay failed at lsn {lsn}: {detail}")
            }
            RecoverError::AstRejected { name, reason } => {
                write!(f, "recovered AST `{name}` rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<PersistError> for RecoverError {
    fn from(e: PersistError) -> RecoverError {
        RecoverError::Storage(e)
    }
}

/// What [`DurableSession::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// LSN the loaded snapshot covered (0 = no snapshot).
    pub snapshot_lsn: u64,
    /// WAL records replayed after the snapshot.
    pub replayed: u64,
    /// Why the WAL scan stopped early, when it did — the torn/corrupt tail
    /// that was truncated away.
    pub torn_tail: Option<String>,
    /// ASTs skipped during recovery ([`RecoverError::AstRejected`] entries).
    pub rejected: Vec<RecoverError>,
}

impl RecoveryReport {
    fn is_rejected(&self, name: &str) -> bool {
        self.rejected.iter().any(|r| {
            matches!(r, RecoverError::AstRejected { name: n, .. }
                     if n.eq_ignore_ascii_case(name))
        })
    }
}

/// A [`SummarySession`] whose state survives process death.
///
/// ```
/// use sumtab::DurableSession;
/// let dir = std::env::temp_dir().join(format!("sumtab-doc-{}", std::process::id()));
/// std::fs::remove_dir_all(&dir).ok();
/// let mut s = DurableSession::open(&dir).unwrap();
/// s.run_script(
///     "create table t (k int not null);
///      insert into t values (1), (1), (2);
///      create summary table st as (select k, count(*) as c from t group by k);",
/// ).unwrap();
/// drop(s); // "crash"
/// let mut s = DurableSession::open(&dir).unwrap();
/// let r = s.query("select k, count(*) as c from t group by k").unwrap();
/// assert_eq!(r.used_ast.as_deref(), Some("st"), "AST survives recovery");
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct DurableSession {
    inner: SummarySession,
    dir: PathBuf,
    /// `None` exactly when `mode` is ephemeral.
    wal: Option<Wal>,
    mode: DurabilityMode,
    opts: DurableOptions,
    records_since_snapshot: u64,
    report: RecoveryReport,
    last_snapshot_error: Option<String>,
}

impl DurableSession {
    /// Open (or create) a durable session rooted at `dir`, recovering any
    /// state a previous process left there. See [`DurableSession::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<DurableSession, RecoverError> {
        DurableSession::open_with(dir, DurableOptions::default())
    }

    /// [`DurableSession::open`] with explicit options.
    ///
    /// Recovery sequence: load `snapshot.bin` (typed error if present but
    /// corrupt), scan `wal.bin` accepting the longest valid prefix, replay
    /// records the snapshot does not cover, truncate the torn tail, then
    /// bump the plan generation past anything the pre-crash session could
    /// have cached. Opening the WAL for *append* is allowed to fail — that
    /// degrades the session to [`DurabilityMode::Ephemeral`] instead of
    /// refusing to serve.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<DurableSession, RecoverError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| PersistError::io(format!("create {}", dir.display()), &e))?;
        let snap = snapshot::read_snapshot(&dir)?;
        let wal_path = dir.join(WAL_FILE);
        let scanned = wal::scan(&wal_path)?;
        let had_prior_state = snap.is_some() || scanned.is_some();

        let mut report = RecoveryReport::default();
        let mut inner = match snap {
            Some(state) => {
                report.snapshot_lsn = state.last_lsn;
                restore_session(state, &mut report)?
            }
            None => SummarySession::new(),
        };
        if let Some(out) = &scanned {
            report.torn_tail = out.torn.clone();
            for (lsn, rec) in &out.records {
                if *lsn <= report.snapshot_lsn {
                    // The snapshot already covers this record (crash hit
                    // the window between snapshot rename and WAL reset).
                    continue;
                }
                replay_record(&mut inner, *lsn, rec, &mut report)?;
                report.replayed += 1;
            }
        }
        if had_prior_state {
            // No plan cached by the pre-crash process may ever validate
            // against the recovered session, even though replay reproduces
            // its generation and epochs exactly.
            inner.bump_plan_generation();
        }

        let next_lsn = scanned
            .as_ref()
            .map(|o| o.next_lsn)
            .unwrap_or(1)
            .max(report.snapshot_lsn + 1);
        let opened = match &scanned {
            Some(out) => Wal::open_after_scan(&wal_path, out, next_lsn, opts.wal),
            None => Wal::create(&wal_path, next_lsn, opts.wal),
        };
        let (wal, mode) = match opened {
            Ok(w) => (Some(w), DurabilityMode::Durable),
            // Degrade explicitly: the recovered state is served, but new
            // mutations cannot be made durable.
            Err(e) => (
                None,
                DurabilityMode::Ephemeral {
                    reason: format!("wal unavailable: {e}"),
                },
            ),
        };
        Ok(DurableSession {
            inner,
            dir,
            wal,
            mode,
            opts,
            records_since_snapshot: 0,
            report,
            last_snapshot_error: None,
        })
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether mutations are currently being persisted.
    pub fn mode(&self) -> &DurabilityMode {
        &self.mode
    }

    /// What recovery found when this session was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The most recent automatic-snapshot failure, if any (cleared by the
    /// next successful snapshot). The session stays durable through the
    /// WAL regardless.
    pub fn last_snapshot_error(&self) -> Option<&str> {
        self.last_snapshot_error.as_deref()
    }

    /// Read-only view of the wrapped session (plans, EXPLAIN, AST
    /// introspection). Mutations must go through the durable methods.
    pub fn session(&self) -> &SummarySession {
        &self.inner
    }

    /// The wrapped session's plan-cache generation.
    pub fn plan_generation(&self) -> u64 {
        self.inner.plan_generation()
    }

    /// Configure the wrapped session's result-cache capacity.
    ///
    /// Routing, feedback, and result-cache state are *derived* — none of it
    /// is WAL-logged. Recovery replays registrations, which bumps the plan
    /// generation and so invalidates any pre-crash routing decisions and
    /// cached results; the cost model re-derives the same routes from the
    /// recovered catalog, and the feedback loop re-learns from live
    /// executions.
    pub fn set_result_cache_capacity(&mut self, n: usize) {
        self.inner.set_result_cache_capacity(n);
    }

    /// Configure the wrapped session's routing policy (not WAL-logged;
    /// reapply after reopening if a non-default policy is wanted).
    pub fn set_router_options(&mut self, opts: crate::RouterOptions) {
        self.inner.set_router_options(opts);
    }

    /// Run a script durably: each statement is resolved, then committed
    /// (applied in memory, then logged) before the next statement runs. A
    /// statement that fails before changing anything logs nothing; a failed
    /// *log append* (after retries) degrades the session to ephemeral mode
    /// and the script continues.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>, SumtabError> {
        let stmts = parse_statements(sql).map_err(|e| SumtabError::parse(sql, e))?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            let (result, record) = self.inner.resolve(stmt)?;
            if let Some(rec) = record {
                self.commit(rec)?;
            }
            out.push(result);
        }
        Ok(out)
    }

    /// Execute a query with transparent rewriting (no logging needed —
    /// queries do not mutate logical state).
    pub fn query(&mut self, sql: &str) -> Result<crate::QueryResult, SumtabError> {
        self.inner.query(sql)
    }

    /// Execute a query without rewriting (baseline).
    pub fn query_no_rewrite(&mut self, sql: &str) -> Result<crate::QueryResult, SumtabError> {
        self.inner.query_no_rewrite(sql)
    }

    /// EXPLAIN-style routing view.
    pub fn explain(&self, sql: &str) -> Result<String, SumtabError> {
        self.inner.explain(sql)
    }

    /// Durable [`SummarySession::append`]: rows land in the base table,
    /// affected summaries are maintained, and the batch (plus any
    /// fault-degraded refreshes) is logged.
    pub fn append(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<String>, SumtabError> {
        let table = table.to_string();
        self.commit(WalRecord::Append { table, rows })
            .map(|a| a.maintained)
    }

    /// Durable [`SummarySession::refresh`].
    pub fn refresh(&mut self, name: &str) -> Result<(), SumtabError> {
        let name = name.to_string();
        self.commit(WalRecord::Refresh { name }).map(drop)
    }

    /// Durable [`SummarySession::deregister`].
    pub fn deregister(&mut self, name: &str) -> Result<(), SumtabError> {
        let name = name.to_string();
        self.commit(WalRecord::DeregisterAst { name }).map(drop)
    }

    /// Durably invalidate a table: bump its modification epoch (marking
    /// every summary snapshotted against it stale, and invalidating cached
    /// plans that read it) without changing its data.
    pub fn invalidate(&mut self, table: &str) {
        let table = table.to_string();
        // Applying an epoch bump cannot fail.
        let _ = self.commit(WalRecord::EpochBump { table });
    }

    /// Take a snapshot immediately and reset the log. Errors if the
    /// session is ephemeral (there is no log to anchor the snapshot's LSN)
    /// or if the snapshot write fails — in the latter case the previous
    /// snapshot and the intact WAL remain authoritative.
    pub fn snapshot_now(&mut self) -> Result<(), PersistError> {
        let Some(w) = &mut self.wal else {
            return Err(PersistError::Io {
                context: "snapshot".to_string(),
                kind: std::io::ErrorKind::Other,
                message: "session is in ephemeral mode".to_string(),
            });
        };
        let state = build_snapshot_state(&self.inner, w.last_lsn());
        snapshot::write_snapshot(&self.dir, &state, self.opts.wal.retry)?;
        // A failed reset is harmless: the snapshot's LSN makes recovery
        // skip every record the log still holds.
        let _ = w.reset();
        self.records_since_snapshot = 0;
        self.last_snapshot_error = None;
        Ok(())
    }

    /// The one durable write path: apply the record in memory, log that
    /// same record, then log an idempotent `Refresh` for every summary the
    /// apply degraded onto a full recompute (the degradation may be a
    /// transient fault that replay will not see; the refresh record
    /// converges both).
    ///
    /// Memory and log agree when this returns, either way: `apply` failing
    /// means nothing changed and nothing is logged; once it took effect the
    /// record is logged even if [`Applied::failed`] then surfaces as `Err`.
    fn commit(&mut self, rec: WalRecord) -> Result<Applied, SumtabError> {
        let applied = self.inner.apply(&rec)?;
        self.log(&rec);
        for name in &applied.refreshed {
            self.log(&WalRecord::Refresh { name: name.clone() });
        }
        self.maybe_snapshot();
        applied.into_result()
    }

    /// Append one record, degrading to ephemeral mode when the WAL fails
    /// even after bounded retry. The in-memory application has already
    /// happened; what is lost is only the *durability* of this op — which
    /// is exactly what the mode change reports.
    fn log(&mut self, rec: &WalRecord) {
        let Some(w) = &mut self.wal else { return };
        match w.append(rec) {
            Ok(_) => self.records_since_snapshot += 1,
            Err(e) => {
                self.mode = DurabilityMode::Ephemeral {
                    reason: format!("wal append failed: {e}"),
                };
                self.wal = None;
            }
        }
    }

    fn maybe_snapshot(&mut self) {
        if self.opts.snapshot_every == 0
            || self.records_since_snapshot < self.opts.snapshot_every
            || self.wal.is_none()
        {
            return;
        }
        if let Err(e) = self.snapshot_now() {
            // Soft failure: WAL durability is intact; retry at the next
            // cadence point and surface the cause.
            self.last_snapshot_error = Some(e.to_string());
            self.records_since_snapshot = 0;
        }
    }
}

/// Serialize the full session state for a snapshot covering `last_lsn`.
fn build_snapshot_state(s: &SummarySession, last_lsn: u64) -> SnapshotState {
    let (data, epochs) = s.session.db.export_state();
    SnapshotState {
        last_lsn,
        generation: s.plan_generation(),
        tables: s.session.catalog.tables().cloned().collect(),
        foreign_keys: s.session.catalog.foreign_keys().to_vec(),
        summaries: s.session.catalog.summary_tables().cloned().collect(),
        data,
        epochs,
        ast_epochs: s
            .ast_states()
            .iter()
            .map(|st| {
                (
                    st.ast.name.clone(),
                    st.base_epochs
                        .iter()
                        .map(|(k, &v)| (k.clone(), v))
                        .collect(),
                )
            })
            .collect(),
    }
}

/// Rebuild a session from a decoded snapshot. Epochs and per-AST epoch
/// snapshots are restored *exactly* (a summary that was stale at snapshot
/// time is still stale after recovery). Every recovered AST registration is
/// re-verified; failures are recorded as typed rejections and skipped.
fn restore_session(
    state: SnapshotState,
    report: &mut RecoveryReport,
) -> Result<SummarySession, RecoverError> {
    let rerr = |detail: String| RecoverError::Replay {
        lsn: state.last_lsn,
        detail,
    };
    let mut catalog = Catalog::new();
    let summary_names: Vec<String> = state
        .summaries
        .iter()
        .map(|d| d.name.to_ascii_lowercase())
        .collect();
    let mut backing: BTreeMap<String, Table> = BTreeMap::new();
    for t in &state.tables {
        if summary_names.contains(&t.name) {
            backing.insert(t.name.clone(), t.clone());
        } else {
            catalog
                .add_table(t.clone())
                .map_err(|e| rerr(format!("snapshot table `{}`: {e}", t.name)))?;
        }
    }
    for def in &state.summaries {
        let b = backing
            .remove(&def.name.to_ascii_lowercase())
            .ok_or_else(|| {
                rerr(format!(
                    "snapshot summary `{}` has no backing table",
                    def.name
                ))
            })?;
        catalog
            .add_summary_table(def.clone(), b)
            .map_err(|e| rerr(format!("snapshot summary `{}`: {e}", def.name)))?;
    }
    for fk in &state.foreign_keys {
        // FKs travel as ordinals; resolve back to names so the catalog's
        // own validation re-runs against the restored schemas.
        let child = catalog
            .table(&fk.child_table)
            .ok_or_else(|| rerr(format!("snapshot fk child `{}` missing", fk.child_table)))?;
        let cols: Vec<String> = fk
            .child_columns
            .iter()
            .map(|&i| {
                child
                    .columns
                    .get(i)
                    .map(|c| c.name.clone())
                    .ok_or_else(|| rerr(format!("snapshot fk ordinal {i} out of range")))
            })
            .collect::<Result<_, _>>()?;
        let cols_ref: Vec<&str> = cols.iter().map(String::as_str).collect();
        catalog
            .add_foreign_key(&fk.child_table, &cols_ref, &fk.parent_table)
            .map_err(|e| rerr(format!("snapshot fk on `{}`: {e}", fk.child_table)))?;
    }

    let mut db = Database::new();
    db.restore_state(state.data, state.epochs);
    let mut inner = SummarySession::with_data(catalog, db);

    // Definitions that failed to re-parse/plan are typed rejections.
    for (name, reason) in inner.registration_failures().to_vec() {
        report.rejected.push(RecoverError::AstRejected {
            name,
            reason: format!("definition no longer plans: {reason}"),
        });
    }
    // Restore each AST's epoch snapshot exactly as persisted — NOT from the
    // current database — so pre-crash staleness survives recovery.
    let stored: BTreeMap<String, &Vec<(String, u64)>> = state
        .ast_epochs
        .iter()
        .map(|(n, v)| (n.to_ascii_lowercase(), v))
        .collect();
    for st in inner.asts.iter_mut() {
        if let Some(bases) = stored.get(&st.ast.name.to_ascii_lowercase()) {
            st.base_epochs = bases.iter().map(|(k, v)| (k.clone(), *v)).collect();
        }
    }
    inner.ast_generation = state.generation;

    // Satellite gate: every recovered registration must still pass the
    // plan verifier; failures are skipped (typed), never loaded.
    let mut rejected = Vec::new();
    for (i, st) in inner.asts.iter().enumerate() {
        if let Err(e) = sumtab_qgm::verify::verify_plan(&st.ast.graph, &inner.session.catalog) {
            report.rejected.push(RecoverError::AstRejected {
                name: st.ast.name.clone(),
                reason: format!("plan verifier rejected recovered AST: {e}"),
            });
            rejected.push(i);
        }
    }
    for i in rejected.into_iter().rev() {
        let st = inner.asts.remove(i);
        inner
            .registration_failures
            .push((st.ast.name.clone(), "rejected by recovery verifier".into()));
    }
    Ok(inner)
}

/// Re-apply one WAL record through the live [`SummarySession::apply`].
/// Recovery-only on top of it: the verifier gate on replayed registrations,
/// tolerance for records naming an AST recovery already rejected, and
/// typed errors.
fn replay_record(
    inner: &mut SummarySession,
    lsn: u64,
    rec: &WalRecord,
    report: &mut RecoveryReport,
) -> Result<(), RecoverError> {
    match (rec, inner.apply(rec)) {
        (WalRecord::RegisterAst { name, .. }, Ok(_)) => {
            let verdict = inner
                .ast_states()
                .iter()
                .find(|st| st.ast.name.eq_ignore_ascii_case(name))
                .map(|st| sumtab_qgm::verify::verify_plan(&st.ast.graph, &inner.session.catalog));
            if let Some(Err(e)) = verdict {
                report.rejected.push(RecoverError::AstRejected {
                    name: name.clone(),
                    reason: format!("plan verifier rejected replayed AST: {e}"),
                });
                // Typed skip: remove it cleanly, keep recovering.
                let _ = inner.apply(&WalRecord::DeregisterAst { name: name.clone() });
            }
        }
        (WalRecord::RegisterAst { name, .. }, Err(e)) => {
            report.rejected.push(RecoverError::AstRejected {
                name: name.clone(),
                reason: format!("replayed registration failed: {e}"),
            })
        }
        // Deregistering or refreshing an AST that recovery already rejected
        // is a no-op, not a failure.
        (WalRecord::DeregisterAst { name } | WalRecord::Refresh { name }, Err(_))
            if report.is_rejected(name) => {}
        (_, Err(e)) => {
            return Err(RecoverError::Replay {
                lsn,
                detail: e.to_string(),
            })
        }
        // `Applied::failed` is not a replay error: the live session logged
        // this record with that summary left stale, and so does replay.
        (_, Ok(_)) => {}
    }
    Ok(())
}
