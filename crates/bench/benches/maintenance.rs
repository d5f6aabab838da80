//! Incremental maintenance vs full refresh: the cost of keeping a summary
//! table fresh under single-statement DELETEs and UPDATEs, as a function of
//! base-table size.
//!
//! The counting-delta path aggregates only the delta rows and patches the
//! affected groups in place; the refresh path re-aggregates the whole base
//! table. The sweep shows the incremental path staying near-flat while
//! refresh scales with base cardinality — the argument for the
//! maintainability analyzer doing its static work at registration time.
//! What still grows with the base table in an incremental statement is two
//! typed single-column passes: the WHERE scan and the victim probe.
//!
//! Each size runs twice: over a plain `GROUP BY k` summary, and over the
//! same groups plus the grand total as one `grouping sets ((k), ())`
//! summary.
//!
//! Emits `BENCH_maintenance.json` at the repository root and aborts loudly
//! if full refresh is not at least [`MIN_REFRESH_OVER_INCREMENTAL`] times
//! slower than incremental maintenance at the largest base size (for the
//! grouping-sets summary, [`MIN_GS_REFRESH_OVER_INCREMENTAL`]), if (full
//! mode) an incremental DELETE at 32,768 rows costs more than
//! [`MAX_DELETE_GROWTH`] times one at 1,024 rows, or if the maintained
//! summary ever diverges from a recomputation. Plain `harness = false`
//! benchmark; accepts `--quick`.

// Bench fixtures run over fixed inputs; a failed setup step should abort
// the run loudly, so panicking unwraps are intended here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;
use sumtab::qgm::MaintStrategy;
use sumtab::{failpoint, sort_rows, SummarySession};
use sumtab_bench::median_time;

const GROUPS: u64 = 16;

/// Floor on `refresh_over_incremental` at the largest size of the sweep
/// (1.40 when every DELETE rebuilt the columnar copy and hashed the table).
const MIN_REFRESH_OVER_INCREMENTAL: f64 = 3.0;

/// Floor on `gs_refresh_over_incremental` at the largest size: the same
/// statements against a `grouping sets ((k), ())` summary. Measured 7.5-10.1
/// at 32,768 rows (full mode) and 5.0-6.6 at 2,048 (`--quick`, which CI
/// re-checks against the same floor). Its own floor, above
/// [`MIN_REFRESH_OVER_INCREMENTAL`], because a refresh of this summary
/// aggregates the whole table into two cuboids and so sits further above
/// its incremental path: 3.0 would let this ratio lose 40% of its lowest
/// quick reading before tripping, 3.5 keeps the 30% margin.
const MIN_GS_REFRESH_OVER_INCREMENTAL: f64 = 3.5;

/// Ceiling on `delete_incremental_ns` at 32,768 rows over the same at 1,024
/// (full mode only). 32 would be a statement that is one linear pass and
/// nothing else; it was 37 with the O(table) rebuild and hash. The WHERE
/// scan, ~3.5 ns a row, is most of an incremental DELETE at 32,768 rows and
/// puts the measured ratio near 11.
const MAX_DELETE_GROWTH: f64 = 16.0;

/// The summary every sweep point maintains: one group per `k`.
const BY_K: &str = "select k, sum(v) as sv, count(*) as c from f group by k";

/// The same groups plus the grand total, as one grouping-sets summary: the
/// merge keys on the NULL-padded tuple, and the `()` row takes every delta.
const BY_K_AND_TOTAL: &str =
    "select k, sum(v) as sv, count(*) as c from f group by grouping sets ((k), ())";

/// A session with `n` fact rows and one counting-delta summary `st` over
/// the definition `def`.
fn build(n: usize, def: &str) -> SummarySession {
    let mut s = SummarySession::new();
    s.run_script("create table f (id int not null, k int not null, v int not null);")
        .unwrap();
    // Bulk-load in chunks to keep statement sizes bounded.
    let mut vals = Vec::with_capacity(n);
    for i in 0..n as u64 {
        vals.push(format!("({i}, {}, {})", i % GROUPS, (i * 7) % 100));
    }
    for chunk in vals.chunks(512) {
        s.run_script(&format!("insert into f values {}", chunk.join(", ")))
            .unwrap();
    }
    s.run_script(&format!("create summary table st as ({def});"))
        .unwrap();
    let m = s.maintainability("st").unwrap();
    assert_eq!(
        m.strategy_for("f"),
        MaintStrategy::CountingDelta,
        "the bench summary must be counting-delta certified"
    );
    s
}

/// Median costs of the same single-row DELETE and UPDATE statements,
/// maintained incrementally and fault-forced onto a full refresh.
struct Costs {
    delete_incr: Duration,
    delete_refresh: Duration,
    update_incr: Duration,
    update_refresh: Duration,
    /// Backing rows of the summary after the run.
    ast_rows: usize,
}

impl Costs {
    fn incremental(&self) -> Duration {
        self.delete_incr + self.update_incr
    }

    fn refresh(&self) -> Duration {
        self.delete_refresh + self.update_refresh
    }

    fn ratio(&self) -> f64 {
        self.refresh().as_secs_f64() / self.incremental().as_secs_f64().max(f64::EPSILON)
    }
}

/// Measure [`Costs`] for the summary `def` over `n` fact rows.
fn measure(n: usize, def: &str, reps: usize) -> Costs {
    // Incremental DELETE: one row out of `n`, counting-delta merge.
    // Each rep deletes a distinct id so the statement always hits.
    let mut s = build(n, def);
    let mut next = 0u64;
    let delete_incr = median_time(reps, || {
        s.run_script(&format!("delete from f where id = {next}"))
            .unwrap();
        next += 1;
    });
    // The maintained summary must still answer exactly.
    let expected = sort_rows(s.query_no_rewrite(def).unwrap().rows);
    let got = s.query(def).unwrap();
    assert_eq!(got.used_ast.as_deref(), Some("st"), "summary went stale");
    assert_eq!(sort_rows(got.rows), expected, "maintained summary diverged");

    // The same DELETE statement with the incremental path fault-forced
    // onto a full refresh: everything else (WHERE resolution, base
    // mutation) is identical, so the difference is purely
    // maintenance-by-delta vs maintenance-by-recompute.
    let delete_refresh = median_time(reps, || {
        failpoint::arm_times("maintain", 1);
        s.run_script(&format!("delete from f where id = {next}"))
            .unwrap();
        next += 1;
    });
    failpoint::disarm_all();

    // Incremental UPDATE: one merge of the deltas of the removed and the
    // inserted image. Target ids from the middle of the table so every
    // rep hits a live row.
    let mut upd = n as u64 / 2;
    let update_incr = median_time(reps, || {
        s.run_script(&format!("update f set v = 3 where id = {upd}"))
            .unwrap();
        upd += 1;
    });
    let update_refresh = median_time(reps, || {
        failpoint::arm_times("maintain", 1);
        s.run_script(&format!("update f set v = 5 where id = {upd}"))
            .unwrap();
        upd += 1;
    });
    failpoint::disarm_all();
    Costs {
        delete_incr,
        delete_refresh,
        update_incr,
        update_refresh,
        ast_rows: s.session.db.row_count("st"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 7 };
    let sizes: &[usize] = if quick {
        &[512, 2048]
    } else {
        &[1024, 8192, 32768]
    };
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "rows", "del_incr", "del_refresh", "upd_incr", "upd_refresh", "ratio", "gs_ratio"
    );
    let mut records = Vec::new();
    let (mut last_ratio, mut last_gs_ratio) = (0.0f64, 0.0f64);
    let mut delete_costs = Vec::new();
    for &n in sizes {
        let c = measure(n, BY_K, reps);
        let gs = measure(n, BY_K_AND_TOTAL, reps);
        let (ratio, gs_ratio) = (c.ratio(), gs.ratio());
        (last_ratio, last_gs_ratio) = (ratio, gs_ratio);
        delete_costs.push(c.delete_incr.as_secs_f64());
        println!(
            "{:>8} {:>12.3?} {:>12.3?} {:>12.3?} {:>12.3?} {:>8.1}x {:>8.1}x",
            n, c.delete_incr, c.delete_refresh, c.update_incr, c.update_refresh, ratio, gs_ratio
        );
        // |AST| next to |base|: the sweep grows the base table and holds the
        // backing table at `GROUPS` rows, and the file should say so.
        records.push(format!(
            "{{\"rows\": {n}, \"ast_rows\": {}, \"delete_incremental_ns\": {}, \
             \"delete_refresh_ns\": {}, \"update_incremental_ns\": {}, \
             \"update_refresh_ns\": {}, \"refresh_over_incremental\": {ratio:.2}, \
             \"gs_ast_rows\": {}, \"gs_incremental_ns\": {}, \"gs_refresh_ns\": {}, \
             \"gs_refresh_over_incremental\": {gs_ratio:.2}}}",
            c.ast_rows,
            c.delete_incr.as_nanos(),
            c.delete_refresh.as_nanos(),
            c.update_incr.as_nanos(),
            c.update_refresh.as_nanos(),
            gs.ast_rows,
            gs.incremental().as_nanos(),
            gs.refresh().as_nanos(),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"maintenance\",\n  \"quick\": {quick},\n  \
         \"min_refresh_over_incremental\": {MIN_REFRESH_OVER_INCREMENTAL:.1},\n  \
         \"min_gs_refresh_over_incremental\": {MIN_GS_REFRESH_OVER_INCREMENTAL:.1},\n  \
         \"max_delete_growth\": {MAX_DELETE_GROWTH:.1},\n  \"sweeps\": [\n    {}\n  ]\n}}\n",
        records.join(",\n    ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_maintenance.json");
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());
    let largest = sizes[sizes.len() - 1];
    assert!(
        last_ratio >= MIN_REFRESH_OVER_INCREMENTAL,
        "full refresh must cost at least {MIN_REFRESH_OVER_INCREMENTAL}x incremental \
         maintenance at {largest} rows, got {last_ratio:.2}x"
    );
    assert!(
        last_gs_ratio >= MIN_GS_REFRESH_OVER_INCREMENTAL,
        "full refresh of the grouping-sets summary must cost at least \
         {MIN_GS_REFRESH_OVER_INCREMENTAL}x its incremental maintenance at {largest} rows, \
         got {last_gs_ratio:.2}x"
    );
    if !quick {
        let growth = delete_costs[delete_costs.len() - 1] / delete_costs[0];
        assert!(
            growth <= MAX_DELETE_GROWTH,
            "an incremental DELETE grew {growth:.1}x from {} to {largest} rows, more than \
             {MAX_DELETE_GROWTH}x",
            sizes[0],
        );
    }
}
