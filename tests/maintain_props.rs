//! Property tests for incremental summary maintenance and the
//! maintainability analyzer.
//!
//! Two halves:
//!
//! 1. **Soundness** — seeded random scripts of mixed INSERT/DELETE/UPDATE
//!    statements against a mix of summary-table shapes (visible counter,
//!    hidden counter, MIN/MAX, nullable SUM, joined dimension, grouping
//!    sets, grand total). After every
//!    statement the session's answer to each probe query must be
//!    byte-identical to a from-scratch recomputation over the base tables,
//!    and only the shrink-sensitive summary may degrade to a refresh. The
//!    recompute-equivalence runtime assertion (debug builds) turns an
//!    unsound merge into such a refresh, so the refresh check catches it in
//!    debug and the probe comparison in release.
//!
//! 2. **Mutation kill** — a suite of non-maintainable definition classes
//!    (HAVING, DISTINCT aggregates, scalar subquery, self-join, expression
//!    outputs, an unprojected grouping column, ...): each must be rejected
//!    with a *typed*
//!    obstruction that names the offending box.
//!
//! Seeds are deterministic but overridable via `SUMTAB_MAINTAIN_SEED`.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::BTreeSet;
use std::sync::Arc;
use sumtab::maintain::{self, DeltaOutcome};
use sumtab::persist::WalRecord;
use sumtab::qgm::{
    analyze_maintainability, build_query, MaintStrategy, MaintainabilityReport, ObstructionKind,
};
use sumtab::{
    render_graph_sql, sort_rows, Applied, Catalog, PlanDetail, Row, SummarySession, Value,
};
use sumtab_parser::{parse_query, parse_statements};

/// SplitMix64 — tiny, deterministic, good enough for workload shuffling.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn base_seed() -> u64 {
    match std::env::var("SUMTAB_MAINTAIN_SEED") {
        Ok(s) => {
            let t = s.trim().trim_start_matches("0x");
            u64::from_str_radix(t, 16)
                .or_else(|_| t.parse())
                .expect("SUMTAB_MAINTAIN_SEED must be a (hex or decimal) u64")
        }
        Err(_) => 0x3a1e_2026_0807_0002,
    }
}

/// Fact table with a unique id (so deletes/updates can target single rows),
/// a nullable measure (SUM(w) carries a hidden COUNT(w)), a dimension join,
/// and summaries covering every maintenance strategy.
const SETUP: &str = "
    create table dim (d int not null, grp int not null);
    create table f (id int not null, d int not null, v int not null, w int);
    insert into dim values (0, 0), (1, 0), (2, 1), (3, 1);
    create summary table s_counting as
      (select d, sum(v) as sv, count(*) as c from f group by d);
    create summary table s_hidden as
      (select d, sum(v) as sv from f group by d);
    create summary table s_extrema as
      (select d, min(v) as mn, max(v) as mx, count(*) as c from f group by d);
    create summary table s_nullable as
      (select d, sum(w) as sw, count(*) as c from f group by d);
    create summary table s_joined as
      (select grp, sum(v) as sv, count(*) as c from f, dim where f.d = dim.d group by grp);
    create summary table s_sets as
      (select d, v, sum(w) as sw from f group by grouping sets ((d), (d, v), ()));
    create summary table s_total as
      (select count(*) as c, sum(v) as sv, sum(w) as sw from f);
    create summary table s_nested as
      (select d, c, count(*) as n from
         (select d, v, count(*) as c from f group by d, v) as m group by d, c);
";

const PROBES: &[&str] = &[
    "select d, sum(v) as sv, count(*) as c from f group by d",
    "select d, min(v) as mn, max(v) as mx from f group by d",
    "select d, sum(w) as sw from f group by d",
    "select grp, sum(v) as sv from f, dim where f.d = dim.d group by grp",
    "select d, v, sum(w) as sw from f group by grouping sets ((d), (d, v), ())",
    TOTAL_PROBE,
    NESTED_PROBE,
];

/// The grand total: one row even over an empty `f`.
const TOTAL_PROBE: &str = "select count(*) as c, sum(v) as sv, sum(w) as sw from f";

/// The AST8 shape (a histogram over a histogram): not delta-maintainable,
/// so `s_nested` must refresh on every mutation.
const NESTED_PROBE: &str = "select d, c, count(*) as n from \
     (select d, v, count(*) as c from f group by d, v) as m group by d, c";

const SUMMARIES: &[&str] = &[
    "s_counting",
    "s_hidden",
    "s_extrema",
    "s_nullable",
    "s_joined",
    "s_sets",
    "s_total",
    "s_nested",
];

/// Generate one random mutation statement. Ids are dense, so delete/update
/// targets frequently hit live rows (and sometimes miss — the 0-row paths
/// must hold too).
fn gen_stmt(rng: &mut Rng, next_id: &mut i64) -> String {
    match rng.below(10) {
        0..=4 => {
            *next_id += 1;
            let d = rng.below(4);
            let v = rng.below(50);
            let w = if rng.below(4) == 0 {
                "null".to_string()
            } else {
                rng.below(50).to_string()
            };
            format!("insert into f values ({next_id}, {d}, {v}, {w})")
        }
        5..=6 => {
            let id = 1 + rng.below((*next_id).max(1) as u64);
            format!("delete from f where id = {id}")
        }
        7 => {
            // Range delete: multi-row victims in one statement.
            let v = rng.below(50);
            format!("delete from f where v < {v}")
        }
        8 => {
            let id = 1 + rng.below((*next_id).max(1) as u64);
            let v = rng.below(50);
            format!("update f set v = {v} where id = {id}")
        }
        _ => {
            // Multi-row update touching the grouping column: rows migrate
            // between groups (delete from one, insert into another).
            let from = rng.below(4);
            let to = rng.below(4);
            format!("update f set d = {to} where d = {from}")
        }
    }
}

/// The ground truth: each probe recomputed from base tables only.
fn recompute(s: &mut SummarySession, probe: &str) -> Vec<Row> {
    sort_rows(s.query_no_rewrite(probe).unwrap().rows)
}

/// What the session answers (transparently rewritten when a summary is
/// fresh).
fn answer(s: &mut SummarySession, probe: &str) -> Vec<Row> {
    sort_rows(s.query(probe).unwrap().rows)
}

/// The change record one DML statement means (`None` when it matches no
/// row), as `run_script` resolves it.
fn record_of(s: &SummarySession, sql: &str) -> Option<WalRecord> {
    s.resolve(&parse_statements(sql).unwrap()[0]).unwrap().1
}

/// Run one DML statement as `run_script` does, keeping what `apply` reports.
fn run_dml(s: &mut SummarySession, sql: &str) -> Applied {
    match record_of(s, sql) {
        Some(rec) => s.apply(&rec).unwrap().into_result().unwrap(),
        None => Applied::default(),
    }
}

/// Warm planning equals cold planning: every probe's plan is a plan-cache
/// hit with no invalidation — a data change never evicts a plan — and it
/// agrees with a from-scratch plan taken after a generation bump in the
/// ASTs used, the ASTs skipped and why, the routing decision, and the SQL
/// that would run.
fn assert_warm_plans_equal_cold(s: &mut SummarySession, ctx: &str) {
    let before = s.plan_cache_stats();
    let warm: Vec<PlanDetail> = PROBES.iter().map(|p| s.plan_detail(p).unwrap()).collect();
    let after = s.plan_cache_stats();
    assert_eq!(after.hits - before.hits, PROBES.len() as u64, "{ctx}");
    assert_eq!(after.invalidations, before.invalidations, "{ctx}");
    s.bump_plan_generation();
    for (probe, warm) in PROBES.iter().zip(warm) {
        let cold = s.plan_detail(probe).unwrap();
        assert_eq!(warm.used, cold.used, "{ctx}: `{probe}`");
        assert_eq!(warm.skipped, cold.skipped, "{ctx}: `{probe}`");
        assert_eq!(warm.routing, cold.routing, "{ctx}: `{probe}`");
        assert_eq!(
            render_graph_sql(&warm.graph),
            render_graph_sql(&cold.graph),
            "{ctx}: `{probe}`"
        );
    }
}

#[test]
fn random_mixed_scripts_stay_byte_identical_to_recompute() {
    let base = base_seed();
    for case in 0..3u64 {
        let seed = base ^ case.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rng = Rng(seed);
        let mut s = SummarySession::new();
        s.run_script(SETUP).unwrap();
        for probe in PROBES {
            s.plan_detail(probe).unwrap();
        }
        let mut next_id = 0i64;
        let mut merged = BTreeSet::new();
        // A merge is a row-level mutation of the backing table: its columnar
        // view is maintained in place, not dropped and rebuilt.
        let view = |s: &SummarySession, name: &str| Arc::as_ptr(&s.session.db.columnar(name));
        for step in 0..64 {
            let views: Vec<_> = SUMMARIES.iter().map(|n| view(&s, n)).collect();
            let live_rows = s.session.db.row_count("f");
            // Four fixed-schedule steps draw no random numbers, so the other
            // 60 steps run the same random DML script whatever the fixed
            // steps do: an out-of-session epoch bump leaves every summary
            // stale, then a refresh makes one fresh again; after the random
            // steps every row of `f` goes, and one insert brings the grand
            // total's group and the cuboids back.
            let (stmt, maintained) = match step {
                21 => {
                    s.session.db.bump_epoch("f");
                    ("out-of-session bump_epoch(f)".to_string(), Vec::new())
                }
                22 => {
                    s.refresh("s_counting").unwrap();
                    ("refresh(s_counting)".to_string(), Vec::new())
                }
                _ => {
                    let stmt = match step {
                        62 => "delete from f".to_string(),
                        63 => format!("insert into f values ({}, 2, 7, null)", next_id + 1),
                        _ => gen_stmt(&mut rng, &mut next_id),
                    };
                    let applied = run_dml(&mut s, &stmt);
                    // Only a removed extremum may force a refresh; any other
                    // degradation is a merge the equivalence gate refused.
                    assert!(
                        applied.refreshed.iter().all(|n| n == "s_extrema"),
                        "seed {seed:#x} step {step}: `{stmt}` refreshed {:?}",
                        applied.refreshed
                    );
                    (stmt, applied.maintained)
                }
            };
            if step == 62 {
                // The grand total outlives the emptied table, by a merge: the
                // row aggregation emits over no input, hidden counts included.
                let total_merged = maintained.iter().any(|n| n == "s_total");
                assert_eq!(total_merged, live_rows > 0, "seed {seed:#x}");
                let (null, zero) = (Value::Null, Value::Int(0));
                let empty = vec![zero.clone(), null.clone(), null.clone(), zero.clone()];
                assert_eq!(s.session.db.rows("s_total"), [empty], "seed {seed:#x}");
                let padded = vec![null.clone(), null.clone(), null, zero.clone(), zero];
                assert_eq!(s.session.db.rows("s_sets"), [padded], "seed {seed:#x}");
            }
            if step == 63 {
                // The insert merges into the surviving grand-total rows.
                for name in ["s_total", "s_sets"] {
                    assert!(
                        maintained.iter().any(|n| n == name),
                        "seed {seed:#x}: {name}"
                    );
                }
            }
            for name in maintained {
                let i = SUMMARIES.iter().position(|n| **n == name).unwrap();
                assert_eq!(
                    views[i],
                    view(&s, &name),
                    "seed {seed:#x} step {step}: `{stmt}` rebuilt the view of `{name}`"
                );
                merged.insert(name);
            }
            assert_warm_plans_equal_cold(&mut s, &format!("seed {seed:#x} step {step}: `{stmt}`"));
            for probe in PROBES {
                let expected = recompute(&mut s, probe);
                let got = answer(&mut s, probe);
                assert_eq!(
                    got, expected,
                    "seed {seed:#x} step {step}: `{stmt}` diverged on `{probe}`"
                );
            }
        }
        // Every certified shape merged at least once — `s_hidden` with rows
        // wider than its catalog schema; `s_nested` never.
        let certified: BTreeSet<String> = SUMMARIES[..7].iter().map(|n| n.to_string()).collect();
        assert_eq!(merged, certified, "seed {seed:#x}");
        // Every summary must still be fresh enough to serve its own
        // definition (maintained or refreshed — never silently stale).
        for name in SUMMARIES {
            let def = format!("select * from {name}");
            assert!(
                s.query_no_rewrite(&def).is_ok(),
                "seed {seed:#x}: `{name}` unreadable"
            );
        }
        // The nested probe compared the summary itself, not a base plan.
        let nested = s.query(NESTED_PROBE).unwrap();
        assert_eq!(
            nested.used_ast.as_deref(),
            Some("s_nested"),
            "seed {seed:#x}"
        );
    }
}

/// The UPDATE shapes one merge has to get right, through the session and
/// against the two-call pattern (`apply_delete` then `apply_append` on a
/// scratch database) the merge replaced: same refusals, same row multiset.
#[test]
fn update_shapes_merge_once_and_match_recompute() {
    struct Case {
        sql: &'static str,
        /// Summaries whose delete half cannot be repaired from the delta.
        refused: &'static [&'static str],
        /// Summaries whose merged rows equal their stored rows.
        untouched: &'static [&'static str],
    }
    const COUNTING: [&str; 7] = [
        "s_counting",
        "s_hidden",
        "s_extrema",
        "s_nullable",
        "s_joined",
        "s_sets",
        "s_total",
    ];
    let cases = [
        // A row moves from group d=0 to d=1 (both map to grp 0 in `dim`).
        Case {
            sql: "update f set d = 1 where id = 2",
            refused: &[],
            untouched: &["s_joined", "s_total"],
        },
        // id 6 is all of d=2 (and of grp 1): the removed side empties the
        // group, the inserted side re-creates it.
        Case {
            sql: "update f set v = 61 where id = 6",
            refused: &[],
            untouched: &[],
        },
        // No summary reads `id`, and v=40 is no extremum of d=1.
        Case {
            sql: "update f set id = 40 where id = 4",
            refused: &[],
            untouched: &COUNTING,
        },
        // v=20 is the stored MIN of d=1, which keeps two other rows.
        Case {
            sql: "update f set v = 5 where id = 2",
            refused: &["s_extrema"],
            untouched: &[],
        },
    ];
    let mut s = SummarySession::new();
    s.run_script(SETUP).unwrap();
    s.run_script(
        "insert into f values (1, 0, 10, 1), (2, 0, 20, 2), (3, 0, 30, 3),
                              (4, 1, 40, 4), (5, 1, 50, 5), (6, 2, 60, 6);",
    )
    .unwrap();
    for Case {
        sql,
        refused,
        untouched,
    } in cases
    {
        let rec = record_of(&s, sql).unwrap();
        let WalRecord::Update {
            old_rows, new_rows, ..
        } = &rec
        else {
            panic!("`{sql}` resolved to {rec:?}");
        };
        let mut after = s.session.db.clone();
        after
            .replace_rows(&s.session.catalog, "f", old_rows, new_rows.clone())
            .unwrap();
        for name in COUNTING {
            let m = s.maintainability(name).unwrap();
            let (g, plan) = (&m.exec_graph, m.plan_for("f").unwrap());
            let (mut once, mut twice) = (after.clone(), after.clone());
            let merged = maintain::merge(g, &plan, name, "f", old_rows, new_rows, &mut once);
            let mut two_calls = maintain::apply_delete(g, &plan, name, "f", old_rows, &mut twice);
            if two_calls == Ok(DeltaOutcome::Applied) {
                two_calls = maintain::apply_append(g, &plan, name, "f", new_rows, &mut twice);
            }
            assert_eq!(merged, two_calls, "`{sql}` on {name}");
            let stored = |db: &sumtab::Database| (db.rows(name).to_vec(), db.epoch(name));
            if refused.contains(&name) {
                assert!(
                    matches!(merged, Ok(DeltaOutcome::NeedsRefresh(_))),
                    "`{sql}` on {name}: {merged:?}"
                );
                assert_eq!(stored(&once), stored(&after), "a refusal modified {name}");
                continue;
            }
            assert_eq!(merged, Ok(DeltaOutcome::Applied), "`{sql}` on {name}");
            assert_eq!(
                sort_rows(once.rows(name).to_vec()),
                sort_rows(twice.rows(name).to_vec()),
                "`{sql}` on {name}"
            );
            maintain::check_equivalence(g, name, &once).unwrap();
            if untouched.contains(&name) {
                assert_eq!(stored(&once), stored(&after), "`{sql}` rewrote {name}");
            }
        }
        let applied = s.apply(&rec).unwrap().into_result().unwrap();
        assert_eq!(applied.refreshed, refused, "`{sql}`");
        for name in COUNTING.iter().filter(|n| !refused.contains(n)) {
            assert!(
                applied.maintained.iter().any(|m| m == name),
                "`{sql}`: {name}"
            );
        }
        for probe in PROBES {
            assert_eq!(
                answer(&mut s, probe),
                recompute(&mut s, probe),
                "`{sql}`: {probe}"
            );
        }
    }
}

/// Deleting every row of a group must drop the group's row from the
/// backing table (the hidden/visible counter reaching zero), not leave a
/// zero-count ghost that a rewritten query would surface.
#[test]
fn emptied_groups_vanish_from_summaries() {
    let mut s = SummarySession::new();
    s.run_script(
        "create table t (k int not null, v int not null);
         insert into t values (1, 10), (1, 20), (2, 30);
         create summary table st as (select k, sum(v) as sv from t group by k);",
    )
    .unwrap();
    // `st` does not project a counter: the hidden one must be doing this.
    let m = s.maintainability("st").unwrap();
    assert_eq!(m.strategy_for("t"), MaintStrategy::CountingDelta);
    assert_eq!(
        m.plan_for("t").unwrap().counter,
        2,
        "hidden trailing counter"
    );
    let r = s.run_script("delete from t where k = 1").unwrap();
    assert_eq!(format!("{:?}", r[0]), "Count(2)");
    let q = s.query("select k, sum(v) as sv from t group by k").unwrap();
    assert_eq!(q.used_ast.as_deref(), Some("st"), "summary must stay fresh");
    assert_eq!(
        q.rows,
        vec![vec![sumtab::Value::Int(2), sumtab::Value::Int(30)]]
    );
}

/// A change record whose pre-images are not in the table must be refused
/// whole: applying a `Delete` twice (or an `Update` with stale `old_rows`)
/// used to leave the base table alone while every counting-delta summary
/// subtracted the phantom rows anyway.
#[test]
fn a_record_with_missing_pre_images_changes_nothing() {
    use sumtab::engine::DbError;
    use sumtab::persist::WalRecord;
    use sumtab::{SumtabError, Value};
    let mut s = SummarySession::new();
    s.run_script(SETUP).unwrap();
    s.run_script(
        "insert into f values (1, 0, 10, 1), (2, 0, 20, null), (3, 1, 30, 3), (4, 1, 30, 4);",
    )
    .unwrap();
    let victim = vec![Value::Int(2), Value::Int(0), Value::Int(20), Value::Null];
    let delete = WalRecord::Delete {
        table: "f".into(),
        rows: vec![victim.clone()],
    };
    s.apply(&delete).unwrap().into_result().unwrap();

    type State = (Vec<Row>, Vec<Vec<Row>>, Vec<String>);
    let state = |s: &SummarySession| -> State {
        let db = &s.session.db;
        (
            db.rows("f").to_vec(),
            SUMMARIES.iter().map(|n| db.rows(n).to_vec()).collect(),
            s.ast_states()
                .iter()
                .map(|a| format!("{}@{:?}", a.ast.name, a.base_epochs))
                .collect(),
        )
    };
    let before = state(&s);
    let not_found = |r: Result<_, SumtabError>| match r.map(drop) {
        Err(SumtabError::Db(DbError::RowsNotFound { table, missing })) => (table, missing),
        other => panic!("expected RowsNotFound, got {other:?}"),
    };
    // The same record again: its row is gone.
    assert_eq!(not_found(s.apply(&delete)), ("f".to_string(), 1));
    assert_eq!(state(&s), before, "a refused delete changed something");
    // An update pairing one live pre-image with the stale one.
    let live = vec![Value::Int(1), Value::Int(0), Value::Int(10), Value::Int(1)];
    let update = WalRecord::Update {
        table: "f".into(),
        old_rows: vec![live.clone(), victim],
        new_rows: vec![live.clone(), live],
    };
    assert_eq!(not_found(s.apply(&update)), ("f".to_string(), 1));
    assert_eq!(state(&s), before, "a refused update changed something");
    // Still maintained, and still exact.
    for probe in PROBES {
        assert_eq!(answer(&mut s, probe), recompute(&mut s, probe), "{probe}");
    }
}

/// The hidden counter column lives in backing rows only — queries over the
/// summary table itself must never see it.
#[test]
fn hidden_counter_is_invisible_to_queries() {
    let mut s = SummarySession::new();
    s.run_script(
        "create table t (k int not null, v int not null);
         insert into t values (1, 10), (2, 20);
         create summary table st as (select k, sum(v) as sv from t group by k);",
    )
    .unwrap();
    let q = s.query_no_rewrite("select k, sv from st").unwrap();
    assert_eq!(q.header, vec!["k", "sv"]);
    assert!(q.rows.iter().all(|r| r.len() == 2));
}

/// A deleted extremum cannot be repaired from a delta: the apply must
/// detect the shrink and refresh, and the answer must stay exact.
#[test]
fn extremum_deletion_refreshes_and_stays_exact() {
    let mut s = SummarySession::new();
    s.run_script(
        "create table t (k int not null, v int not null);
         insert into t values (1, 5), (1, 9), (1, 7);
         create summary table st as
           (select k, min(v) as mn, max(v) as mx, count(*) as c from t group by k);",
    )
    .unwrap();
    s.run_script("delete from t where v = 9").unwrap();
    let q = s
        .query("select k, min(v) as mn, max(v) as mx from t group by k")
        .unwrap();
    assert_eq!(q.used_ast.as_deref(), Some("st"));
    assert_eq!(
        q.rows,
        vec![vec![
            sumtab::Value::Int(1),
            sumtab::Value::Int(5),
            sumtab::Value::Int(7),
        ]]
    );
}

// ---------------------------------------------------------------------------
// Mutation-kill suite: each non-maintainable class must be rejected with a
// typed obstruction naming the offending box.
// ---------------------------------------------------------------------------

/// Run the analyzer on `sql` (over the paper's sample schema) for `table`
/// and return `(strategy, obstruction kinds with their box paths)`.
fn analyze(sql: &str, table: &str) -> (MaintStrategy, Vec<(ObstructionKind, String)>) {
    let cat = Catalog::credit_card_sample();
    let g = build_query(&parse_query(sql).unwrap(), &cat).unwrap();
    let r = analyze_maintainability(&g, table, &cat);
    let obs = r
        .obstructions
        .iter()
        .map(|o| (o.reason, o.path.clone()))
        .collect();
    (r.strategy, obs)
}

/// Assert `sql` is refresh-only for `table` and that the stated obstruction
/// kind is reported with a non-empty box path.
fn assert_killed(sql: &str, table: &str, kind: ObstructionKind) {
    let (strategy, obs) = analyze(sql, table);
    assert_eq!(
        strategy,
        MaintStrategy::RefreshOnly,
        "`{sql}` must be refresh-only"
    );
    let hit = obs.iter().find(|(k, _)| *k == kind);
    match hit {
        Some((_, path)) => assert!(
            !path.is_empty(),
            "`{sql}`: obstruction {kind} must name a box path"
        ),
        None => panic!("`{sql}`: expected obstruction {kind}, got {obs:?}"),
    }
}

#[test]
fn kill_having_predicate() {
    assert_killed(
        "select faid, count(*) as c from trans group by faid having count(*) > 1",
        "trans",
        ObstructionKind::PostAggregationPredicate,
    );
}

/// A grand total is the cuboid whose key is empty, and CUBE and ROLLUP are
/// grouping sets over non-nullable columns: all of them are counting-delta.
#[test]
fn kill_grand_total() {
    for sql in [
        "select count(*) as c from trans",
        "select sum(qty) as s from trans",
        "select faid, flid, count(*) as c from trans group by cube(faid, flid)",
        "select faid, flid, sum(qty) as s from trans group by rollup(faid, flid)",
    ] {
        let (strategy, obs) = analyze(sql, "trans");
        assert_eq!(strategy, MaintStrategy::CountingDelta, "`{sql}`: {obs:?}");
        assert!(obs.is_empty(), "`{sql}`: {obs:?}");
    }
}

/// The certificate of `sql` for `f`, over the schema [`SETUP`] creates.
fn analyze_f(sql: &str) -> MaintainabilityReport {
    let mut s = SummarySession::new();
    s.run_script(SETUP).unwrap();
    let cat = &s.session.catalog;
    let g = build_query(&parse_query(sql).unwrap(), cat).unwrap();
    analyze_maintainability(&g, "f", cat)
}

/// A grouping column the root does not project is in the grouping tuple but
/// not in the backing rows: merging on `d` alone would fold the `(d, v)`
/// groups that share a `d` into each other. The certificate names `v`.
#[test]
fn kill_unprojected_grouping_column() {
    let r = analyze_f("select d, sum(v) as sv, count(*) as c from f group by d, v");
    assert_eq!(r.strategy, MaintStrategy::RefreshOnly);
    let [o] = r.obstructions.as_slice() else {
        panic!("{:?}", r.obstructions);
    };
    assert_eq!(o.reason, ObstructionKind::NoGroupingColumn);
    assert!(o.detail.contains("`v`"), "{}", o.detail);
    assert!(o.path.starts_with("root"), "{}", o.path);
}

/// Over several grouping sets a NULL key cell means "not in this cuboid";
/// a nullable grouping column would put a second meaning on it. A single
/// grouping set has no padding, so there the NULL is just another group.
#[test]
fn kill_nullable_grouping_sets() {
    let r = analyze_f("select d, w, count(*) as c from f group by grouping sets ((d), (d, w))");
    assert_eq!(r.strategy, MaintStrategy::RefreshOnly);
    let kinds: Vec<_> = r.obstructions.iter().map(|o| o.reason).collect();
    assert_eq!(kinds, vec![ObstructionKind::GroupingSets]);
    assert!(
        r.obstructions[0].detail.contains("`w`"),
        "{}",
        r.obstructions[0]
    );
    let r = analyze_f("select d, w, count(*) as c from f group by d, w");
    assert_eq!(
        r.strategy,
        MaintStrategy::CountingDelta,
        "{:?}",
        r.obstructions
    );
}

#[test]
fn kill_distinct_aggregate() {
    assert_killed(
        "select faid, count(distinct flid) as c from trans group by faid",
        "trans",
        ObstructionKind::DistinctAggregate,
    );
}

#[test]
fn kill_scalar_subquery() {
    assert_killed(
        "select faid, count(*) as c, (select count(*) from loc) as t \
         from trans group by faid",
        "trans",
        ObstructionKind::ScalarSubquery,
    );
}

#[test]
fn kill_self_join_nonlinearity() {
    assert_killed(
        "select t1.faid as f, count(*) as c from trans as t1, trans as t2 \
         where t1.faid = t2.faid group by t1.faid",
        "trans",
        ObstructionKind::NonLinear,
    );
}

#[test]
fn kill_table_not_read() {
    assert_killed(
        "select faid, count(*) as c from trans group by faid",
        "acct",
        ObstructionKind::TableNotRead,
    );
}

#[test]
fn kill_no_aggregation_root() {
    assert_killed(
        "select tid, qty from trans",
        "trans",
        ObstructionKind::NoAggregationRoot,
    );
}

/// Nested aggregation (AST8, a histogram over a histogram) has the
/// `SELECT ← GROUP BY` root but is not delta-maintainable: the delta rows'
/// inner groups are not the inner groups the mutation changed. The
/// certificate itself must say so, naming the *inner* GROUP BY.
#[test]
fn kill_nested_aggregation() {
    let (strategy, obs) = analyze(sumtab::datagen::workloads::AST8, "trans");
    assert_eq!(strategy, MaintStrategy::RefreshOnly, "{obs:?}");
    let (_, path) = obs
        .iter()
        .find(|(k, _)| *k == ObstructionKind::NoAggregationRoot)
        .unwrap_or_else(|| panic!("expected a nested-aggregation obstruction, got {obs:?}"));
    // `root/<outer group-by>/<inner select>/<inner group-by>`: the root's own
    // GROUP BY would sit one level below the root, not three.
    assert!(path.ends_with("(group-by)"), "{path}");
    assert_eq!(path.split('/').count(), 4, "{path}");
}

/// The same certificates as a session registers them, for all nine of the
/// paper's ASTs: the single-block aggregates and the grouping-sets
/// summaries (AST11, AST12) are counting-delta; the SPJ AST2, the nested
/// AST8, AST10's second read of `trans` and the HAVING are not.
#[test]
fn registered_paper_asts_carry_the_expected_certificates() {
    use sumtab::datagen::workloads::{
        AST1, AST10, AST10_HAVING, AST11, AST12, AST2, AST6, AST7, AST8,
    };
    use ObstructionKind::{NoAggregationRoot, NonLinear, PostAggregationPredicate};
    let mut s = SummarySession::with_data(Catalog::credit_card_sample(), sumtab::Database::new());
    let by_pgroup = "select fpgid, year(date) as year, count(*) as cnt, sum(qty) as qty \
         from trans group by fpgid, year(date)";
    let trans: &[&str] = &["trans"];
    for (name, sql, tables, refresh_only) in [
        ("ast1", AST1, trans, None),
        ("ast6", AST6, trans, None),
        ("ast7", AST7, trans, None),
        ("ast11", AST11, trans, None),
        ("ast12", AST12, trans, None),
        ("ast_pg", by_pgroup, trans, None),
        (
            "ast2",
            AST2,
            &["trans", "loc", "acct"],
            Some(NoAggregationRoot),
        ),
        ("ast8", AST8, trans, Some(NoAggregationRoot)),
        ("ast10", AST10, trans, Some(NonLinear)),
        (
            "ast10_having",
            AST10_HAVING,
            trans,
            Some(PostAggregationPredicate),
        ),
    ] {
        s.run_script(&format!("create summary table {name} as ({sql})"))
            .unwrap();
        let m = s.maintainability(name).unwrap();
        for table in tables {
            let r = &m.reports[*table];
            let kinds: Vec<ObstructionKind> = r.obstructions.iter().map(|o| o.reason).collect();
            let strategy = match refresh_only {
                None => MaintStrategy::CountingDelta,
                Some(_) => MaintStrategy::RefreshOnly,
            };
            assert_eq!(r.strategy, strategy, "{name} on {table}: {kinds:?}");
            assert_eq!(kinds, Vec::from_iter(refresh_only), "{name} on {table}");
        }
    }
}

#[test]
fn kill_average_not_lowered() {
    // `avg` reaching the analyzer un-lowered (no SUM/COUNT decomposition)
    // cannot be merged; build keeps it as an Avg aggregate.
    let (strategy, obs) = analyze(
        "select faid, avg(qty) as a from trans group by faid",
        "trans",
    );
    if strategy != MaintStrategy::RefreshOnly {
        // The builder lowers AVG into SUM/COUNT — then it must be fully
        // counting-maintainable instead.
        assert_eq!(strategy, MaintStrategy::CountingDelta);
    } else {
        assert!(
            obs.iter().any(|(k, _)| matches!(
                k,
                ObstructionKind::UnloweredAverage | ObstructionKind::NonMaintainableExpression
            )),
            "avg rejection must be typed, got {obs:?}"
        );
    }
}

#[test]
fn kill_expression_output() {
    // A root output that is not a bare column of the group-by box (e.g. an
    // arithmetic expression over aggregates) cannot be delta-merged.
    let (strategy, obs) = analyze(
        "select faid, sum(qty) + count(*) as blend from trans group by faid",
        "trans",
    );
    assert_eq!(strategy, MaintStrategy::RefreshOnly);
    assert!(
        obs.iter()
            .any(|(k, _)| *k == ObstructionKind::NonMaintainableExpression),
        "expression output must be typed, got {obs:?}"
    );
}

/// A SUM over a nullable argument is counting-delta: deleting a group's
/// last non-NULL contributor merges, and its hidden `COUNT(arg)` reaching 0
/// turns the sum into an exact NULL — for a DOUBLE measure too, where
/// `stored − delta` would leave rounding residue instead of 0.0.
#[test]
fn nullable_sums_merge_deletes_to_an_exact_null() {
    use sumtab::Value;
    for (ty, a, b, c) in [("int", "7", "5", "2"), ("double", "0.1", "0.2", "0.3")] {
        let mut s = SummarySession::new();
        s.run_script(&format!(
            "create table n (id int not null, k int not null, v {ty});
             insert into n values (1, 1, {a}), (2, 1, {b}), (3, 1, null), (4, 2, {c});
             create summary table st as (select k, sum(v) as sv from n group by k);"
        ))
        .unwrap();
        let m = s.maintainability("st").unwrap();
        assert_eq!(m.strategy_for("n"), MaintStrategy::CountingDelta, "{ty}");
        // Hidden COUNT(*) first, then COUNT(v) for `sv`.
        assert_eq!(m.plan_for("n").unwrap().nullable_sums, vec![(1, 3)], "{ty}");
        for stmt in [
            "delete from n where id = 1",
            "update n set v = null where id = 2",
        ] {
            let applied = run_dml(&mut s, stmt);
            assert_eq!(applied.maintained, vec!["st"], "{ty}: `{stmt}`");
            assert!(applied.refreshed.is_empty(), "{ty}: `{stmt}`");
        }
        let q = s.query("select k, sum(v) as sv from n group by k").unwrap();
        assert_eq!(q.used_ast.as_deref(), Some("st"), "{ty}");
        let c = if ty == "int" {
            Value::Int(2)
        } else {
            Value::Double(0.3)
        };
        assert_eq!(
            sort_rows(q.rows),
            vec![vec![Value::Int(1), Value::Null], vec![Value::Int(2), c]],
            "{ty}"
        );
    }
}

/// Backing rows narrower than the exec graph — a snapshot written before
/// the summary carried its hidden `COUNT(arg)`, or before a grand total
/// that projects no counter was counting-delta and carried a hidden
/// `COUNT(*)` — cannot be merged: the first DELETE refreshes them to full
/// width, the next one merges, and the answers stay exact throughout.
#[test]
fn narrow_backing_rows_refresh_once_then_merge() {
    let mut s = SummarySession::new();
    s.run_script(SETUP).unwrap();
    s.run_script(
        "insert into f values (1, 0, 10, 1), (2, 0, 20, null), (3, 1, 30, 3), (4, 1, 40, 4);
         create summary table s_sum as (select sum(v) as sv from f);",
    )
    .unwrap();
    // `s_nullable` stores (d, sw, c, COUNT(w)), `s_sum` (sv, COUNT(*)): drop
    // the hidden counts.
    let narrowed = [("s_nullable", 3), ("s_sum", 1)];
    for (name, width) in narrowed {
        let narrow: Vec<Row> = s
            .session
            .db
            .rows(name)
            .iter()
            .map(|r| r[..width].to_vec())
            .collect();
        s.session.db.put_table(name, narrow);
    }
    for (stmt, merged) in [
        ("delete from f where id = 1", false),
        ("delete from f where id = 3", true),
    ] {
        let applied = run_dml(&mut s, stmt);
        for (name, width) in narrowed {
            let (maintained, refreshed) = (
                applied.maintained.iter().any(|n| n == name),
                applied.refreshed.iter().any(|n| n == name),
            );
            assert_eq!(
                (maintained, refreshed),
                (merged, !merged),
                "`{stmt}`: {name}"
            );
            assert!(s.session.db.rows(name).iter().all(|r| r.len() == width + 1));
        }
        for probe in PROBES {
            assert_eq!(
                answer(&mut s, probe),
                recompute(&mut s, probe),
                "`{stmt}`: {probe}"
            );
        }
    }
    let q = s.query("select d, sum(w) as sw from f group by d").unwrap();
    assert_eq!(q.used_ast.as_deref(), Some("s_nullable"));
}

#[test]
fn advisory_shrink_sensitive_extrema_stay_counting() {
    // MIN/MAX do not downgrade the strategy — they are handled at apply
    // time — but the certificate must flag them.
    let (strategy, obs) = analyze(
        "select faid, min(price) as mn, count(*) as c from trans group by faid",
        "trans",
    );
    assert_eq!(strategy, MaintStrategy::CountingDelta);
    assert!(
        obs.iter()
            .any(|(k, _)| *k == ObstructionKind::ShrinkSensitiveExtremum),
        "shrink-sensitive extremum must be flagged, got {obs:?}"
    );
}

#[test]
fn explain_surfaces_strategy_and_obstructions() {
    let mut s = SummarySession::new();
    s.run_script(
        "create table t (k int not null, v int);
         insert into t values (1, 10);
         create summary table st as
           (select k, sum(v) as sv, min(v) as mn, count(*) as c from t group by k);",
    )
    .unwrap();
    let plan = s
        .explain("select k, sum(v) as sv from t group by k")
        .unwrap();
    assert!(
        plan.contains("-- maintenance st: t=counting-delta"),
        "{plan}"
    );
    assert!(
        plan.contains("shrink-sensitive-extremum") && plan.contains("`mn`"),
        "obstruction must be surfaced: {plan}"
    );
}
