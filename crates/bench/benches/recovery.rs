//! Recovery time vs log length: how long [`sumtab::DurableSession::open`]
//! takes to rebuild a session from (a) a pure WAL of n logical records and
//! (b) a snapshot with an empty tail covering the same history — the two
//! endpoints of the snapshot-cadence trade-off EXPERIMENTS.md discusses.
//!
//! Each replayed record is an insert routed through summary maintenance,
//! so WAL replay re-runs the *logical* work of the original session;
//! snapshot recovery deserializes materialized state instead. The sweep
//! shows replay scaling linearly with log length while snapshot recovery
//! stays flat, which is the whole argument for taking snapshots.
//!
//! Emits `BENCH_recovery.json` at the repository root and aborts loudly if
//! recovery loses rows or if snapshot recovery fails to beat full replay
//! at the largest log length. Plain `harness = false` benchmark (no
//! external framework — the workspace builds offline); accepts `--quick`
//! for CI smoke runs.

// Bench fixtures run over fixed inputs; a failed setup step should abort
// the run loudly, so panicking unwraps are intended here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use sumtab::{DurableOptions, DurableSession};
use sumtab_bench::median_time;

/// Floor on full-log replay over snapshot recovery at the largest log
/// length: a snapshot that recovered slower than re-executing the whole
/// history would defeat the point of taking one.
const MIN_RATIO: f64 = 1.0;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "sumtab-bench-recovery-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Build a durability dir whose WAL holds the whole history: setup DDL,
/// an AST registration, and `n` maintained single-row inserts.
fn build_log(dir: &PathBuf, n: usize) {
    let mut s = DurableSession::open_with(
        dir,
        DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        },
    )
    .unwrap();
    s.run_script(
        "create table t (k int not null, v int not null);
         create summary table st as (select k, sum(v) as sv, count(*) as c from t group by k);",
    )
    .unwrap();
    for i in 0..n {
        s.run_script(&format!("insert into t values ({}, {i})", i % 16))
            .unwrap();
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 7 };
    let sizes: &[usize] = if quick { &[32, 128] } else { &[64, 256, 1024] };
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>9}",
        "records", "wal_bytes", "replay", "snapshot", "ratio"
    );
    let mut records = Vec::new();
    let mut last_ratio = f64::INFINITY;
    for &n in sizes {
        let dir = scratch(&format!("wal-{n}"));
        build_log(&dir, n);
        let wal_bytes = std::fs::metadata(dir.join("wal.bin")).unwrap().len();
        // Recovery must be lossless before it is worth timing.
        {
            let s = DurableSession::open(&dir).unwrap();
            assert_eq!(s.session().session.db.row_count("t"), n, "lossless replay");
            assert_eq!(s.recovery_report().replayed as usize, n + 2);
        }
        let replay = median_time(reps, || {
            let s = DurableSession::open(&dir).unwrap();
            assert_eq!(s.session().session.db.row_count("t"), n);
        });

        // Same history, snapshotted: the log resets and recovery becomes a
        // deserialize instead of a re-execution.
        {
            let mut s = DurableSession::open(&dir).unwrap();
            s.snapshot_now().unwrap();
        }
        let snap_bytes = std::fs::metadata(dir.join("snapshot.bin")).unwrap().len();
        let snapshot = median_time(reps, || {
            let s = DurableSession::open(&dir).unwrap();
            assert_eq!(s.session().session.db.row_count("t"), n);
            assert_eq!(s.recovery_report().replayed, 0, "snapshot covers the log");
        });

        let ratio = replay.as_secs_f64() / snapshot.as_secs_f64().max(f64::EPSILON);
        last_ratio = ratio;
        println!(
            "{:>8} {:>12} {:>12.3?} {:>12.3?} {:>8.1}x",
            n, wal_bytes, replay, snapshot, ratio
        );
        records.push(format!(
            "{{\"records\": {n}, \"wal_bytes\": {wal_bytes}, \"snapshot_bytes\": {snap_bytes}, \
             \"replay_recovery_ns\": {}, \"snapshot_recovery_ns\": {}, \"ratio\": {ratio:.2}}}",
            replay.as_nanos(),
            snapshot.as_nanos(),
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
    // Written before the floor is asserted, so a run that misses it still
    // records what it measured.
    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"quick\": {quick},\n  \
         \"min_ratio\": {MIN_RATIO:.1},\n  \"sweeps\": [\n    {}\n  ]\n}}\n",
        records.join(",\n    ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_recovery.json");
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());
    assert!(
        last_ratio >= MIN_RATIO,
        "snapshot recovery must not be slower than replaying the full log \
         at {} records, got {last_ratio:.2}x",
        sizes[sizes.len() - 1]
    );
}
