//! Crash-recovery tests for the durable session: kill/restart at every IO
//! fail point, recovery of the full session state (catalog, ASTs, data,
//! staleness epochs), graceful degradation to ephemeral mode, and the
//! plan-generation bump that fences pre-crash cached plans.
//!
//! Fail-point state is process-global, so every test serializes on `LOCK`.
//!
//! The durability contract asserted throughout: after a crash, the
//! recovered state equals the live session as of some *prefix* of its
//! operations, at least as long as the acked prefix (ops that completed
//! while the session still reported [`DurabilityMode::Durable`]). It can
//! be longer — an fsync-failed record whose bytes reached the file is
//! legitimately recovered — but never shorter, never torn, never wrong.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use sumtab::persist::snapshot;
use sumtab::{
    failpoint, sort_rows, DurabilityMode, DurableOptions, DurableSession, RecoverError, Value,
};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sumtab-durable-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

const SETUP: &str = "create table t (k int not null, v int not null);
     create summary table st as (select k, sum(v) as sv, count(*) as c from t group by k);";

const PROBE: &str = "select k, sum(v) as sv from t group by k";

fn opts(snapshot_every: u64) -> DurableOptions {
    DurableOptions {
        snapshot_every,
        ..DurableOptions::default()
    }
}

#[test]
fn round_trip_recovers_full_session() {
    let _serial = serialize();
    let dir = tmp_dir("roundtrip");
    let expected = {
        let mut s = DurableSession::open(&dir).unwrap();
        s.run_script(SETUP).unwrap();
        s.run_script("insert into t values (1, 10), (1, 20), (2, 30)")
            .unwrap();
        s.run_script("create table u (x int not null); insert into u values (7)")
            .unwrap();
        assert_eq!(s.mode(), &DurabilityMode::Durable);
        sort_rows(s.query(PROBE).unwrap().rows)
    };
    // "Crash" (drop without snapshot) and recover.
    let mut s = DurableSession::open(&dir).unwrap();
    let report = s.recovery_report().clone();
    assert!(report.rejected.is_empty(), "{report:?}");
    assert!(report.torn_tail.is_none());
    assert!(report.replayed > 0, "state came from the wal: {report:?}");

    // Catalog, data, and AST registration all survive.
    assert!(s.session().session.catalog.is_summary_table("st"));
    assert_eq!(s.session().asts().len(), 1);
    assert_eq!(s.session().session.db.row_count("u"), 1);
    let r = s.query(PROBE).unwrap();
    assert_eq!(
        r.used_ast.as_deref(),
        Some("st"),
        "recovered AST is fresh and routable"
    );
    assert_eq!(sort_rows(r.rows), expected);

    // And the session keeps working durably after recovery.
    s.run_script("insert into t values (3, 5)").unwrap();
    assert_eq!(s.mode(), &DurabilityMode::Durable);
    drop(s);
    let mut s = DurableSession::open(&dir).unwrap();
    assert_eq!(s.session().session.db.row_count("t"), 4);
    assert_eq!(s.query(PROBE).unwrap().used_ast.as_deref(), Some("st"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill/restart at each IO fail point: arm the point for exactly one
/// trigger mid-workload, crash, recover, and check the consistent-prefix
/// contract plus summary/base agreement.
#[test]
fn kill_at_each_io_failpoint_recovers_consistent_prefix() {
    let _serial = serialize();
    for fp in [
        "wal-append",
        "wal-fsync",
        "snapshot-write",
        "snapshot-rename",
    ] {
        failpoint::disarm_all();
        let dir = tmp_dir(&format!("kill-{fp}"));
        let mut acked = 0usize;
        {
            // Small cadence so snapshot fail points actually fire.
            let mut s = DurableSession::open_with(&dir, opts(3)).unwrap();
            s.run_script(SETUP).unwrap();
            let mut saw_snapshot_error = false;
            for i in 0..10i64 {
                if i == 4 {
                    failpoint::arm_times(fp, 1);
                }
                s.run_script(&format!("insert into t values ({i}, {})", i * 10))
                    .unwrap();
                if s.mode() == &DurabilityMode::Durable {
                    acked += 1;
                }
                // A later successful snapshot clears the error by design,
                // so remember whether it was ever surfaced.
                saw_snapshot_error |= s.last_snapshot_error().is_some_and(|e| e.contains(fp));
            }
            match fp {
                // WAL faults cost durability — explicitly.
                "wal-append" | "wal-fsync" => {
                    assert!(
                        matches!(s.mode(), DurabilityMode::Ephemeral { reason }
                                 if reason.contains(fp)),
                        "{fp}: mode {:?}",
                        s.mode()
                    );
                    assert!(acked >= 4, "{fp}: ops before the fault were acked");
                }
                // Snapshot faults do not: the WAL still holds everything.
                _ => {
                    assert_eq!(s.mode(), &DurabilityMode::Durable, "{fp}");
                    assert_eq!(acked, 10, "{fp}");
                    assert!(
                        saw_snapshot_error,
                        "{fp}: snapshot failure must be surfaced"
                    );
                }
            }
        } // crash
        failpoint::disarm_all();

        let mut s = DurableSession::open_with(&dir, opts(3)).unwrap();
        let persisted = s.session().session.db.row_count("t");
        assert!(
            persisted >= acked && persisted <= 10,
            "{fp}: recovered {persisted} rows, acked {acked}"
        );
        if fp == "wal-append" {
            assert!(
                s.recovery_report().torn_tail.is_some(),
                "{fp}: the short write must be reported as a torn tail"
            );
        }
        // Whatever prefix survived, summary and base data agree exactly.
        let with = s.query(PROBE).unwrap();
        assert_eq!(with.used_ast.as_deref(), Some("st"), "{fp}");
        let without = s.query_no_rewrite(PROBE).unwrap();
        assert_eq!(sort_rows(with.rows), sort_rows(without.rows), "{fp}");

        // The torn tail was healed: a second recovery scans clean.
        drop(s);
        let s = DurableSession::open_with(&dir, opts(3)).unwrap();
        assert!(s.recovery_report().torn_tail.is_none(), "{fp}");
        assert_eq!(s.session().session.db.row_count("t"), persisted, "{fp}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn wal_failure_degrades_to_explicit_ephemeral_mode() {
    let _serial = serialize();
    let dir = tmp_dir("ephemeral");
    let mut s = DurableSession::open(&dir).unwrap();
    s.run_script(SETUP).unwrap();
    s.run_script("insert into t values (1, 10)").unwrap();

    {
        let _fp = failpoint::armed("wal-append");
        s.run_script("insert into t values (2, 20)").unwrap();
    }
    // The op itself succeeded in memory; only durability was lost, and the
    // mode says so rather than pretending.
    assert!(matches!(s.mode(), DurabilityMode::Ephemeral { reason }
                     if reason.contains("wal-append")));
    assert_eq!(s.session().session.db.row_count("t"), 2);

    // The session keeps serving — including further (volatile) mutations.
    s.run_script("insert into t values (3, 30)").unwrap();
    let r = s.query(PROBE).unwrap();
    assert_eq!(r.rows.len(), 3);
    // Snapshots are refused in ephemeral mode (no log to anchor them).
    assert!(s.snapshot_now().is_err());
    drop(s);

    // Recovery yields the durable prefix only: the pre-fault row.
    let s = DurableSession::open(&dir).unwrap();
    assert_eq!(s.session().session.db.row_count("t"), 1);
    assert_eq!(s.mode(), &DurabilityMode::Durable, "durability restored");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression test: recovery must advance the plan-cache
/// generation strictly past the pre-crash session's, so a plan cached
/// before the crash (same fingerprint, same epochs — replay reproduces
/// them exactly) can never validate against the recovered session.
#[test]
fn recovery_bumps_plan_generation_past_pre_crash_plans() {
    let _serial = serialize();
    let dir = tmp_dir("generation");
    let pre_crash_generation = {
        let mut s = DurableSession::open(&dir).unwrap();
        s.run_script(SETUP).unwrap();
        s.run_script("insert into t values (1, 10), (2, 20)")
            .unwrap();
        // Cache a plan, then confirm the cache actually serves it.
        s.query(PROBE).unwrap();
        s.query(PROBE).unwrap();
        assert!(s.session().plan_cache_stats().hits >= 1);
        s.plan_generation()
    };
    let s = DurableSession::open(&dir).unwrap();
    assert!(
        s.plan_generation() > pre_crash_generation,
        "recovered generation {} must exceed pre-crash {}",
        s.plan_generation(),
        pre_crash_generation
    );
    // Double recovery stays strictly above as well (and is deterministic).
    let s2 = DurableSession::open(&dir).unwrap();
    assert_eq!(s2.plan_generation(), s.plan_generation());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staleness_and_invalidation_survive_recovery() {
    let _serial = serialize();
    let dir = tmp_dir("staleness");
    {
        let mut s = DurableSession::open(&dir).unwrap();
        s.run_script(SETUP).unwrap();
        s.run_script("insert into t values (1, 10)").unwrap();
        assert_eq!(s.query(PROBE).unwrap().used_ast.as_deref(), Some("st"));
        // Durably invalidate the base table: st is now stale.
        s.invalidate("t");
        let d = s.session().plan_detail(PROBE).unwrap();
        assert!(d.used.is_empty(), "stale AST must be skipped");
    }
    // Staleness is bookkeeping, and bookkeeping is state: it recovers.
    let mut s = DurableSession::open(&dir).unwrap();
    let d = s.session().plan_detail(PROBE).unwrap();
    assert!(d.used.is_empty(), "staleness survives the crash: {d:?}");
    assert!(d.skipped[0].reason.contains("stale"), "{d:?}");

    // A durable refresh clears it — across another crash too.
    s.refresh("st").unwrap();
    assert_eq!(s.query(PROBE).unwrap().used_ast.as_deref(), Some("st"));
    drop(s);
    let mut s = DurableSession::open(&dir).unwrap();
    assert_eq!(s.query(PROBE).unwrap().used_ast.as_deref(), Some("st"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deregistration_survives_recovery() {
    let _serial = serialize();
    let dir = tmp_dir("dereg");
    {
        let mut s = DurableSession::open(&dir).unwrap();
        s.run_script(SETUP).unwrap();
        s.run_script("insert into t values (1, 10)").unwrap();
        s.deregister("st").unwrap();
        assert!(s.session().asts().is_empty());
    }
    let mut s = DurableSession::open(&dir).unwrap();
    assert!(s.session().asts().is_empty(), "deregistration recovered");
    assert!(!s.session().session.catalog.is_summary_table("st"));
    let r = s.query(PROBE).unwrap();
    assert_eq!(r.used_ast, None);
    assert_eq!(r.rows, vec![vec![Value::Int(1), Value::Int(10)]]);
    std::fs::remove_dir_all(&dir).ok();
}

/// An AST whose persisted definition no longer plans is *skipped* with a
/// typed [`RecoverError::AstRejected`] — recovery neither panics nor loads
/// it, and the rest of the session comes back intact.
#[test]
fn undecodable_recovered_ast_is_rejected_typed_not_fatal() {
    let _serial = serialize();
    let dir = tmp_dir("rejected");
    {
        let mut s = DurableSession::open(&dir).unwrap();
        s.run_script(SETUP).unwrap();
        s.run_script("insert into t values (1, 10), (2, 20)")
            .unwrap();
        s.snapshot_now().unwrap();
    }
    // Doctor the snapshot: replace the AST's definition with SQL that no
    // longer plans (references a column that does not exist).
    let mut state = snapshot::read_snapshot(&dir).unwrap().unwrap();
    assert_eq!(state.summaries.len(), 1);
    state.summaries[0].query_sql = "select nope, count(*) as c from t group by nope".into();
    snapshot::write_snapshot(&dir, &state, sumtab::persist::RetryPolicy::none()).unwrap();

    let mut s = DurableSession::open(&dir).unwrap();
    let rejected = &s.recovery_report().rejected;
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert!(
        matches!(&rejected[0], RecoverError::AstRejected { name, reason }
                 if name == "st" && reason.contains("nope")),
        "{rejected:?}"
    );
    assert!(s.session().asts().is_empty(), "rejected AST not registered");
    // The rest of the session is intact and the rejected AST plays no part.
    let r = s.query(PROBE).unwrap();
    assert_eq!(r.used_ast, None);
    assert_eq!(
        sort_rows(r.rows),
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_cadence_resets_the_log() {
    let _serial = serialize();
    let dir = tmp_dir("cadence");
    let mut s = DurableSession::open_with(&dir, opts(4)).unwrap();
    s.run_script(SETUP).unwrap();
    for i in 0..20i64 {
        s.run_script(&format!("insert into t values ({i}, 1)"))
            .unwrap();
    }
    assert!(s.last_snapshot_error().is_none());
    drop(s);
    // The WAL holds at most one cadence interval of records, not all 22.
    let out = sumtab::persist::wal::scan(&dir.join("wal.bin"))
        .unwrap()
        .unwrap();
    assert!(
        out.records.len() <= 4,
        "log should have been reset by snapshots, holds {}",
        out.records.len()
    );
    // Snapshot + tail replay reproduces everything.
    let s = DurableSession::open_with(&dir, opts(4)).unwrap();
    assert!(s.recovery_report().snapshot_lsn > 0, "snapshot was loaded");
    assert_eq!(s.session().session.db.row_count("t"), 20);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_recovery_is_idempotent() {
    let _serial = serialize();
    let dir = tmp_dir("double");
    {
        let mut s = DurableSession::open_with(&dir, opts(3)).unwrap();
        s.run_script(SETUP).unwrap();
        for i in 0..7i64 {
            s.run_script(&format!("insert into t values ({i}, {})", i + 1))
                .unwrap();
        }
        s.invalidate("t");
    }
    let observe = |s: &mut DurableSession| {
        (
            sort_rows(s.query(PROBE).unwrap().rows),
            sort_rows(s.query_no_rewrite("select k, sv, c from st").unwrap().rows),
            s.session().session.db.epoch("t"),
            s.plan_generation(),
        )
    };
    let mut a = DurableSession::open_with(&dir, opts(3)).unwrap();
    let obs_a = observe(&mut a);
    drop(a);
    let mut b = DurableSession::open_with(&dir, opts(3)).unwrap();
    let obs_b = observe(&mut b);
    assert_eq!(obs_a, obs_b, "recovery is idempotent");
    std::fs::remove_dir_all(&dir).ok();
}

/// Memory and log agree after every durable call, whichever way it
/// returns: a DELETE whose base mutation succeeded but whose summary could
/// be neither merged nor refreshed returns `Err`, yet it is logged — the
/// summary is left stale (and skipped), not the log left short.
#[test]
fn unmaintainable_dml_is_still_logged() {
    let _serial = serialize();
    failpoint::disarm_all();
    let dir = tmp_dir("unmaintained");
    let mut s = DurableSession::open(&dir).unwrap();
    s.run_script(SETUP).unwrap();
    s.run_script("insert into t values (1, 10), (1, 20), (2, 30)")
        .unwrap();
    {
        let _merge = failpoint::armed("maintain");
        let _refresh = failpoint::armed("refresh");
        let err = s.run_script("delete from t where k = 1").unwrap_err();
        assert!(err.to_string().contains("refresh"), "{err}");
    }
    let base = |s: &DurableSession| sort_rows(s.session().session.db.rows("t").to_vec());
    assert_eq!(base(&s), vec![vec![Value::Int(2), Value::Int(30)]]);
    let d = s.session().plan_detail(PROBE).unwrap();
    assert!(d.used.is_empty(), "the unmaintained AST must be skipped");
    assert!(d.skipped[0].reason.contains("stale"), "{d:?}");

    // The next DML must not merge a delta into the stale summary and stamp
    // it fresh: it recomputes it, which also heals it.
    s.run_script("insert into t values (3, 5)").unwrap();
    let with = s.query(PROBE).unwrap();
    assert_eq!(with.used_ast.as_deref(), Some("st"));
    let expected = sort_rows(s.query_no_rewrite(PROBE).unwrap().rows);
    assert_eq!(sort_rows(with.rows), expected);

    let live = base(&s);
    drop(s);
    let mut s = DurableSession::open(&dir).unwrap();
    assert_eq!(base(&s), live, "the log holds the delete");
    let with = s.query(PROBE).unwrap();
    assert_eq!(with.used_ast.as_deref(), Some("st"));
    assert_eq!(sort_rows(with.rows), expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The programmatic and the script entry point are one path: the same rows
/// through either leave byte-identical logs.
#[test]
fn append_and_insert_script_write_identical_logs() {
    let _serial = serialize();
    failpoint::disarm_all();
    let wal_after = |tag: &str, load: &dyn Fn(&mut DurableSession)| {
        let dir = tmp_dir(tag);
        let mut s = DurableSession::open(&dir).unwrap();
        s.run_script(SETUP).unwrap();
        load(&mut s);
        drop(s);
        let bytes = std::fs::read(dir.join(sumtab::durable::WAL_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let programmatic = wal_after("entry-append", &|s| {
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(30)],
        ];
        assert_eq!(s.append("t", rows).unwrap(), vec!["st".to_string()]);
    });
    let script = wal_after("entry-script", &|s| {
        s.run_script("insert into t values (1, 10), (2, 30)")
            .unwrap();
    });
    assert_eq!(programmatic, script);
}

/// CI kill/restart entry point: the `crash-recovery` job runs exactly this
/// test with `SUMTAB_FAILPOINTS` arming one IO fail point for the whole
/// process, so the *first* durable write fails. With nothing armed it
/// degenerates to a plain kill/restart round trip.
#[test]
fn env_armed_kill_restart() {
    let _serial = serialize();
    let armed_env = std::env::var("SUMTAB_FAILPOINTS").unwrap_or_default();
    let dir = tmp_dir("env-kill");
    let mut acked = 0usize;
    {
        let mut s = DurableSession::open_with(&dir, opts(3)).unwrap();
        // Under an env-armed wal fail point even the setup DDL may lose
        // durability; that is part of what this exercises.
        if s.run_script(SETUP).is_ok() {
            for i in 0..8i64 {
                s.run_script(&format!("insert into t values ({i}, {})", i * 2))
                    .unwrap();
                if s.mode() == &DurabilityMode::Durable {
                    acked += 1;
                }
            }
        }
    }
    failpoint::disarm_all();
    let mut s = DurableSession::open_with(&dir, opts(3)).unwrap();
    let persisted = s.session().session.db.row_count("t");
    assert!(
        persisted >= acked.min(8),
        "env `{armed_env}`: recovered {persisted} rows < acked {acked}"
    );
    // Whatever survived is consistent: if the AST recovered, it agrees
    // with base data; if not, queries still answer from base.
    if persisted > 0 {
        let with = s.query(PROBE).unwrap();
        let without = s.query_no_rewrite(PROBE).unwrap();
        assert_eq!(sort_rows(with.rows), sort_rows(without.rows));
    }
    // Second recovery is clean and identical.
    drop(s);
    let s = DurableSession::open_with(&dir, opts(3)).unwrap();
    assert!(s.recovery_report().torn_tail.is_none());
    assert_eq!(s.session().session.db.row_count("t"), persisted);
    std::fs::remove_dir_all(&dir).ok();
}

/// A mutator reached through `DerefMut` is logged and recovered with no code
/// for it in `durable.rs`: `apply` itself writes the log. Replay runs before
/// the log is attached, so reopening logs nothing again.
#[test]
fn mutators_reached_through_deref_mut_are_logged_and_recovered() {
    use sumtab::persist::WalRecord;
    let _serial = serialize();
    failpoint::disarm_all();
    let dir = tmp_dir("deref-mut");
    let logged = |dir: &PathBuf| {
        sumtab::persist::wal::scan(&dir.join(sumtab::durable::WAL_FILE))
            .unwrap()
            .map_or(0, |out| out.records.len())
    };
    let expected = {
        let mut s = DurableSession::open(&dir).unwrap();
        s.run_script(SETUP).unwrap();
        s.run_script("insert into t values (1, 10), (2, 20)")
            .unwrap();
        let stmts = sumtab::parser::parse_statements("update t set v = 11 where k = 1").unwrap();
        let Some(WalRecord::Update {
            table,
            old_rows,
            new_rows,
        }) = s.resolve(&stmts[0]).unwrap().1
        else {
            panic!("an UPDATE matching a row resolves to an Update record");
        };
        s.apply(&WalRecord::Update {
            table,
            old_rows,
            new_rows,
        })
        .unwrap()
        .into_result()
        .unwrap();
        s.invalidate("t");
        sort_rows(s.session.db.rows("t").to_vec())
    };
    // SETUP (2 records), the insert, the update and the epoch bump.
    let before = logged(&dir);
    assert_eq!(before, 5, "every mutation was logged");

    let s = DurableSession::open(&dir).unwrap();
    assert_eq!(sort_rows(s.session.db.rows("t").to_vec()), expected);
    assert_eq!(
        expected,
        vec![
            vec![Value::Int(1), Value::Int(11)],
            vec![Value::Int(2), Value::Int(20)],
        ]
    );
    let d = s.plan_detail(PROBE).unwrap();
    assert!(d.used.is_empty(), "{d:?}");
    assert!(
        d.skipped
            .iter()
            .any(|k| k.ast == "st" && k.reason.contains("stale")),
        "{d:?}"
    );
    assert_eq!(
        logged(&dir),
        before,
        "replayed records are not logged again"
    );
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}
