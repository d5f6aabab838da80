//! Durable sessions: a write-ahead-logged, snapshotted [`SummarySession`]
//! that survives crashes with its full state — catalog, base data,
//! registered ASTs and their materialized contents, per-table modification
//! epochs, and the plan-cache generation.
//!
//! ## Protocol (logical redo; DESIGN.md §12 has the invariants)
//!
//! Every mutating operation is one [`WalRecord`]: a statement is resolved
//! to its record ([`SummarySession::resolve`]), and [`SummarySession::apply`]
//! carries the record out **in memory first**, then appends that same
//! record (checksummed, fsynced) to `wal.bin` through the session's change
//! log; only then is it acknowledged. Every mutator goes through `apply`,
//! so each is logged with no code of its own here. Memory and log agree
//! afterwards either way: an apply that fails changed nothing and logs
//! nothing, an apply that took effect is logged even when it reports a
//! summary it could not maintain.
//!
//! Every `snapshot_every` records the whole session state is serialized to
//! `snapshot.bin` via an atomic temp-file-then-rename, after which the log
//! is reset. Recovery ([`DurableSession::open`]) loads the newest valid
//! snapshot, replays the WAL records it does not already cover, and
//! truncates any torn tail at the last valid record. Every recovered AST
//! registration passes the same plan-verifier gate as a live one; an AST
//! that no longer verifies is *skipped* with a typed
//! [`RecoverError::AstRejected`] entry in the [`RecoveryReport`], never
//! loaded and never a panic.
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
//! bookkeeping matches the pre-crash session. Replay runs before the log is
//! attached, so a replayed record is never logged again. The one
//! non-deterministic live event — an incremental maintenance attempt that a
//! transient fault pushed onto the full-refresh path — is neutralized by
//! logging an idempotent `Refresh` record after the change record. After
//! replay the plan-cache generation is bumped once more than the pre-crash
//! session ever saw, so no plan cached before the crash can validate
//! against the recovered session.

use crate::{Applied, SummarySession};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use sumtab_catalog::{Catalog, Table};
use sumtab_engine::Database;
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

/// The change log [`SummarySession::apply`] writes. Inert (no WAL) in a
/// plain session and during replay; [`DurableSession::open_with`] attaches
/// a live one once recovery is done.
pub(crate) struct ChangeLog {
    dir: PathBuf,
    /// `None` when inert, and once the WAL failed (`mode` then says why).
    wal: Option<Wal>,
    mode: DurabilityMode,
    opts: DurableOptions,
    records_since_snapshot: u64,
    last_snapshot_error: Option<String>,
}

impl Default for ChangeLog {
    fn default() -> ChangeLog {
        ChangeLog {
            dir: PathBuf::new(),
            wal: None,
            mode: DurabilityMode::Ephemeral {
                reason: "no change log attached".to_string(),
            },
            opts: DurableOptions::default(),
            records_since_snapshot: 0,
            last_snapshot_error: None,
        }
    }
}

impl ChangeLog {
    /// Append one record, degrading to ephemeral mode when the WAL fails
    /// even after bounded retry. The in-memory application has already
    /// happened; what is lost is only the *durability* of this op — which
    /// is exactly what the mode change reports.
    fn append(&mut self, rec: &WalRecord) {
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
}

impl SummarySession {
    /// The logging half of [`SummarySession::apply`], for a record that took
    /// effect: log it, then an idempotent `Refresh` for every summary the
    /// apply degraded onto a full recompute (the degradation may be a
    /// transient fault that replay will not see; the refresh record
    /// converges both), then snapshot when the cadence is due.
    pub(crate) fn log_applied(&mut self, rec: &WalRecord, applied: &Applied) {
        self.log.append(rec);
        for name in &applied.refreshed {
            self.log.append(&WalRecord::Refresh { name: name.clone() });
        }
        let every = self.log.opts.snapshot_every;
        if every == 0 || self.log.records_since_snapshot < every || self.log.wal.is_none() {
            return;
        }
        if let Err(e) = self.snapshot() {
            // Soft failure: WAL durability is intact; retry at the next
            // cadence point and surface the cause.
            self.log.last_snapshot_error = Some(e.to_string());
            self.log.records_since_snapshot = 0;
        }
    }

    /// See [`DurableSession::snapshot_now`].
    fn snapshot(&mut self) -> Result<(), PersistError> {
        let Some(last_lsn) = self.log.wal.as_ref().map(Wal::last_lsn) else {
            return Err(PersistError::Io {
                context: "snapshot".to_string(),
                kind: std::io::ErrorKind::Other,
                message: "session is in ephemeral mode".to_string(),
            });
        };
        let state = build_snapshot_state(self, last_lsn);
        snapshot::write_snapshot(&self.log.dir, &state, self.log.opts.wal.retry)?;
        if let Some(w) = &mut self.log.wal {
            // A failed reset is harmless: the snapshot's LSN makes recovery
            // skip every record the log still holds.
            let _ = w.reset();
        }
        self.log.records_since_snapshot = 0;
        self.log.last_snapshot_error = None;
        Ok(())
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
    report: RecoveryReport,
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
    /// have cached. Only then is the change log attached, so replay logs
    /// nothing. Opening the WAL for *append* is allowed to fail — that
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
        inner.log = ChangeLog {
            dir,
            wal,
            mode,
            opts,
            records_since_snapshot: 0,
            last_snapshot_error: None,
        };
        Ok(DurableSession { inner, report })
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.inner.log.dir
    }

    /// Whether mutations are currently being persisted.
    pub fn mode(&self) -> &DurabilityMode {
        &self.inner.log.mode
    }

    /// What recovery found when this session was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The most recent automatic-snapshot failure, if any (cleared by the
    /// next successful snapshot). The session stays durable through the
    /// WAL regardless.
    pub fn last_snapshot_error(&self) -> Option<&str> {
        self.inner.log.last_snapshot_error.as_deref()
    }

    /// Take a snapshot immediately and reset the log. Errors if the
    /// session is ephemeral (there is no log to anchor the snapshot's LSN)
    /// or if the snapshot write fails — in the latter case the previous
    /// snapshot and the intact WAL remain authoritative.
    pub fn snapshot_now(&mut self) -> Result<(), PersistError> {
        self.inner.snapshot()
    }

    /// The wrapped session.
    pub fn session(&self) -> &SummarySession {
        &self.inner
    }
}

impl Deref for DurableSession {
    type Target = SummarySession;

    fn deref(&self) -> &SummarySession {
        &self.inner
    }
}

/// Every [`SummarySession`] mutator is durable through this impl, since
/// only [`SummarySession::apply`] logs and every mutator goes through it.
/// Writing the `session.catalog`/`session.db` fields directly bypasses the
/// log, just as it bypasses summary maintenance in a plain session.
/// Configuration (result-cache capacity, router options, pool size) is
/// never logged: reapply it after reopening.
impl DerefMut for DurableSession {
    fn deref_mut(&mut self) -> &mut SummarySession {
        &mut self.inner
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
/// time is still stale after recovery). Every AST definition passes the
/// registration gate of [`SummarySession::with_data`]; the ones it refuses
/// are recorded as typed rejections and skipped.
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

    // Definitions that no longer parse, plan or verify are typed rejections.
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
    Ok(inner)
}

/// Re-apply one WAL record through the live [`SummarySession::apply`].
/// Recovery-only on top of it: a registration the gate refuses becomes a
/// typed rejection, records naming an AST recovery already rejected are
/// tolerated, and other failures become typed errors.
fn replay_record(
    inner: &mut SummarySession,
    lsn: u64,
    rec: &WalRecord,
    report: &mut RecoveryReport,
) -> Result<(), RecoverError> {
    match (rec, inner.apply(rec)) {
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
