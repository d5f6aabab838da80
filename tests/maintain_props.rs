//! Property tests for incremental summary maintenance and the
//! maintainability analyzer.
//!
//! Two halves:
//!
//! 1. **Soundness** — seeded random scripts of mixed INSERT/DELETE/UPDATE
//!    statements against a mix of summary-table shapes (visible counter,
//!    hidden counter, MIN/MAX, joined dimension). After every statement the
//!    session's answer to each probe query must be byte-identical to a
//!    from-scratch recomputation over the base tables. The recompute-
//!    equivalence runtime assertion is active throughout (debug builds), so
//!    any unsound incremental merge degrades loudly to refresh — and any
//!    *divergence* that survives fails the probe comparison here.
//!
//! 2. **Mutation kill** — a suite of non-maintainable definition classes
//!    (HAVING, grand total, DISTINCT aggregates, scalar subquery, self-join,
//!    nullable SUM under delete, expression outputs, ...): each must be
//!    rejected with a *typed* obstruction that names the offending box.
//!
//! Seeds are deterministic but overridable via `SUMTAB_MAINTAIN_SEED`.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::BTreeSet;
use std::sync::Arc;
use sumtab::maintain::{self, DeltaOutcome};
use sumtab::persist::WalRecord;
use sumtab::qgm::{analyze_maintainability, build_query, MaintStrategy, ObstructionKind};
use sumtab::{render_graph_sql, sort_rows, Applied, Catalog, PlanDetail, Row, SummarySession};
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
/// a nullable measure (forces the insert-delta downgrade on SUM(w)), a
/// dimension join, and summaries covering every maintenance strategy.
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
    create summary table s_nested as
      (select d, c, count(*) as n from
         (select d, v, count(*) as c from f group by d, v) as m group by d, c);
";

const PROBES: &[&str] = &[
    "select d, sum(v) as sv, count(*) as c from f group by d",
    "select d, min(v) as mn, max(v) as mx from f group by d",
    "select d, sum(w) as sw from f group by d",
    "select grp, sum(v) as sv from f, dim where f.d = dim.d group by grp",
    NESTED_PROBE,
];

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
        for step in 0..62 {
            let views: Vec<_> = SUMMARIES.iter().map(|n| view(&s, n)).collect();
            // Two fixed-schedule steps draw no random numbers, so the DML
            // script is the one the other 60 steps always ran: an
            // out-of-session epoch bump leaves every summary stale, then a
            // refresh makes one fresh again.
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
                    let stmt = gen_stmt(&mut rng, &mut next_id);
                    let maintained = run_dml(&mut s, &stmt).maintained;
                    (stmt, maintained)
                }
            };
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
        let certified: BTreeSet<String> = SUMMARIES[..5].iter().map(|n| n.to_string()).collect();
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
    const COUNTING: [&str; 4] = ["s_counting", "s_hidden", "s_extrema", "s_joined"];
    let cases = [
        // A row moves from group d=0 to d=1 (both map to grp 0 in `dim`).
        Case {
            sql: "update f set d = 1 where id = 2",
            refused: &[],
            untouched: &["s_joined"],
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
    assert!(m.hidden_counter, "hidden counter expected for SUM-only AST");
    assert_eq!(m.strategy_for("t"), MaintStrategy::CountingDelta);
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

#[test]
fn kill_grand_total() {
    assert_killed(
        "select count(*) as c from trans",
        "trans",
        ObstructionKind::GrandTotal,
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

/// The same certificates as a session registers them: the paper's
/// single-block aggregate ASTs keep counting-delta, AST8 does not.
#[test]
fn registered_paper_asts_carry_the_expected_certificates() {
    use sumtab::datagen::workloads::{AST1, AST6, AST7, AST8};
    let mut s = SummarySession::with_data(Catalog::credit_card_sample(), sumtab::Database::new());
    let by_pgroup = "select fpgid, year(date) as year, count(*) as cnt, sum(qty) as qty \
         from trans group by fpgid, year(date)";
    for (name, sql, expected) in [
        ("ast1", AST1, MaintStrategy::CountingDelta),
        ("ast6", AST6, MaintStrategy::CountingDelta),
        ("ast7", AST7, MaintStrategy::CountingDelta),
        ("ast_pg", by_pgroup, MaintStrategy::CountingDelta),
        ("ast8", AST8, MaintStrategy::RefreshOnly),
    ] {
        s.run_script(&format!("create summary table {name} as ({sql})"))
            .unwrap();
        let m = s.maintainability(name).unwrap();
        assert_eq!(m.strategy_for("trans"), expected, "{name}");
    }
    let kinds: Vec<ObstructionKind> = s.maintainability("ast8").unwrap().reports["trans"]
        .obstructions
        .iter()
        .map(|o| o.reason)
        .collect();
    assert_eq!(kinds, vec![ObstructionKind::NoAggregationRoot]);
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

#[test]
fn downgrade_nullable_sum_to_insert_delta() {
    // Over a schema where the SUM argument is nullable, deletes cannot
    // reproduce SUM=NULL from stored - delta: the strategy must downgrade
    // to insert-delta with a typed explanation.
    let mut s = SummarySession::new();
    s.run_script("create table n (k int not null, v int);")
        .unwrap();
    let cat = &s.session.catalog;
    let g = build_query(
        &parse_query("select k, sum(v) as sv, count(*) as c from n group by k").unwrap(),
        cat,
    )
    .unwrap();
    let r = analyze_maintainability(&g, "n", cat);
    assert_eq!(r.strategy, MaintStrategy::InsertDelta);
    assert!(
        r.obstructions
            .iter()
            .any(|o| o.reason == ObstructionKind::NullableSumUnderDelete),
        "nullable SUM downgrade must be typed, got {:?}",
        r.obstructions
    );
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
           (select k, sum(v) as sv, count(*) as c from t group by k);",
    )
    .unwrap();
    let plan = s
        .explain("select k, sum(v) as sv from t group by k")
        .unwrap();
    assert!(plan.contains("-- maintenance st: t=insert-delta"), "{plan}");
    assert!(
        plan.contains("nullable-sum-under-delete"),
        "obstruction must be surfaced: {plan}"
    );
}
