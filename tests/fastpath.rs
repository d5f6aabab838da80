//! Fast-path behaviour: the session plan cache (hits avoid the matcher
//! entirely, epoch bumps and registrations invalidate) and the determinism
//! of the parallel candidate sweep across pool sizes.
//!
//! The match-attempt counter (`matcher::stats::navigator_runs`) is
//! process-global, so every test here serializes on `LOCK` and asserts on
//! before/after deltas.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::{Mutex, MutexGuard};
use sumtab::matcher::stats;
use sumtab::{Catalog, RegisteredAst, Rewriter, SummarySession, Value};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn session_with_summary() -> SummarySession {
    let mut s = SummarySession::new();
    s.run_script(
        "create table t (k int not null, v int not null);
         insert into t values (1, 10), (1, 20), (2, 30);
         create summary table st as (select k, sum(v) as sv, count(*) as c from t group by k);",
    )
    .unwrap();
    s
}

const QUERY: &str = "select k, sum(v) as sv from t group by k";

/// A repeated query is answered from the plan cache: zero navigator runs —
/// no match attempt at all — on the second planning of the same SQL.
#[test]
fn repeated_query_skips_the_matcher_entirely() {
    let _g = serialize();
    let mut s = session_with_summary();
    let first = s.query(QUERY).unwrap();
    assert_eq!(first.used_ast.as_deref(), Some("st"));

    let nav_before = stats::navigator_runs();
    let hits_before = s.plan_cache_stats().hits;
    let detail = s.plan_detail(QUERY).unwrap();
    assert_eq!(
        stats::navigator_runs() - nav_before,
        0,
        "cached plan must not run the navigator"
    );
    assert_eq!(s.plan_cache_stats().hits - hits_before, 1);
    assert_eq!(detail.used, vec!["st".to_string()]);

    // And the cached plan still executes correctly.
    let again = s.query(QUERY).unwrap();
    assert_eq!(again.used_ast.as_deref(), Some("st"));
    assert_eq!(sumtab::sort_rows(again.rows), sumtab::sort_rows(first.rows));
}

/// A base-table epoch bump leaves the cached entry valid — a match outcome
/// depends on no table data — while the staleness gate, re-derived on the
/// lookup, correctly refuses the now-stale AST without a match attempt.
#[test]
fn epoch_bump_keeps_cached_plan_and_rederives_staleness() {
    let _g = serialize();
    let mut s = session_with_summary();
    assert_eq!(s.query(QUERY).unwrap().used_ast.as_deref(), Some("st"));

    // Mutate the base table behind the session's back: bumps `t`'s epoch
    // without maintaining `st`.
    let sumtab::Session { catalog, db, .. } = &mut s.session;
    db.insert(catalog, "t", vec![vec![Value::Int(3), Value::Int(5)]])
        .unwrap();

    let stats_before = s.plan_cache_stats();
    let nav_before = stats::navigator_runs();
    let detail = s.plan_detail(QUERY).unwrap();
    let stats_after = s.plan_cache_stats();
    assert_eq!(stats_after.hits - stats_before.hits, 1, "one hit");
    assert_eq!(stats_after.misses, stats_before.misses);
    assert_eq!(
        stats_after.invalidations, stats_before.invalidations,
        "an epoch bump must not evict the entry"
    );
    assert_eq!(stats::navigator_runs() - nav_before, 0);
    assert!(detail.used.is_empty(), "stale AST must not be used");
    assert!(detail.skipped[0].reason.contains("stale"), "{detail:?}");

    // Refresh advances the AST snapshot: the same entry's memoized match
    // routes through the summary again, still without matching.
    s.refresh("st").unwrap();
    let nav_before = stats::navigator_runs();
    assert_eq!(s.query(QUERY).unwrap().used_ast.as_deref(), Some("st"));
    assert_eq!(stats::navigator_runs() - nav_before, 0);
}

/// The SQL-text memo is fenced by the generation: a text that once named a
/// summary table answers from the plain table that replaces it, with the
/// new schema.
#[test]
fn text_memo_follows_a_replaced_table() {
    let _g = serialize();
    let mut s = session_with_summary();
    let text = "select * from st";
    let old = s.query(text).unwrap();
    assert_eq!(old.header, vec!["k", "sv", "c"]);

    s.deregister("st").unwrap();
    s.run_script(
        "create table st (name varchar not null);
         insert into st values ('fresh');",
    )
    .unwrap();
    let new = s.query(text).unwrap();
    assert_eq!(new.header, vec!["name"]);
    assert_eq!(new.rows, vec![vec![Value::Str("fresh".into())]]);
}

/// Registering a new AST bumps the plan generation, invalidating cached
/// plans computed before it existed — even though no table epoch moved.
#[test]
fn ast_registration_invalidates_cached_plans() {
    let _g = serialize();
    let mut s = SummarySession::new();
    s.run_script(
        "create table t (k int not null, v int not null);
         insert into t values (1, 10), (2, 30);",
    )
    .unwrap();
    let gen_before = s.plan_generation();
    let no_ast = s.plan_detail(QUERY).unwrap();
    assert!(no_ast.used.is_empty());

    s.run_script(
        "create summary table st as (select k, sum(v) as sv, count(*) as c from t group by k);",
    )
    .unwrap();
    assert!(s.plan_generation() > gen_before);
    let with_ast = s.plan_detail(QUERY).unwrap();
    assert_eq!(
        with_ast.used,
        vec!["st".to_string()],
        "a stale cached plan would have missed the new AST"
    );
}

/// The parallel sweep is deterministic: identical ordered results for any
/// pool size.
#[test]
fn rewrite_all_is_deterministic_across_pool_sizes() {
    let _g = serialize();
    let cat = Catalog::credit_card_sample();
    // A mix of matching, non-matching, and signature-filtered candidates.
    let asts: Vec<RegisteredAst> = [
        "select faid, sum(qty) as s, count(*) as c from trans group by faid",
        "select faid, flid, sum(qty) as s, count(*) as c from trans group by faid, flid",
        "select state, count(*) as c from loc group by state", // filtered: no shared table
        "select faid, max(qty) as m from trans group by faid", // no SUM: kind-filtered
        "select faid, qty, price from trans where qty > 100",
        "select faid, sum(price) as sp, count(*) as c from trans group by faid",
    ]
    .iter()
    .enumerate()
    .map(|(i, sql)| RegisteredAst::from_sql(&format!("a{i}"), sql, &cat).unwrap())
    .collect();
    let q = sumtab::build_query(
        &sumtab::parser::parse_query("select faid, sum(qty) as s from trans group by faid")
            .unwrap(),
        &cat,
    )
    .unwrap();

    let names = |pool: usize| -> Vec<String> {
        Rewriter::with_pool_size(&cat, pool)
            .rewrite_all(&q, &asts)
            .into_iter()
            .map(|rw| rw.ast_name)
            .collect()
    };
    let serial = names(1);
    assert!(!serial.is_empty(), "population must contain matches");
    for pool in [2, 3, 8] {
        assert_eq!(names(pool), serial, "pool size {pool} diverged");
    }
}

/// The signature filter really fires on the sweep path: provably
/// unmatchable candidates are rejected without a navigator run.
#[test]
fn filter_rejections_avoid_navigator_runs() {
    let _g = serialize();
    let cat = Catalog::credit_card_sample();
    let asts: Vec<RegisteredAst> = [
        (
            "a0",
            "select faid, sum(qty) as s, count(*) as c from trans group by faid",
        ),
        ("a1", "select state, count(*) as c from loc group by state"),
        ("a2", "select cid, count(*) as c from cust group by cid"),
    ]
    .iter()
    .map(|(name, sql)| RegisteredAst::from_sql(name, sql, &cat).unwrap())
    .collect();
    let q = sumtab::build_query(
        &sumtab::parser::parse_query("select faid, sum(qty) as s from trans group by faid")
            .unwrap(),
        &cat,
    )
    .unwrap();
    let nav_before = stats::navigator_runs();
    let rej_before = stats::filter_rejections();
    let rewrites = Rewriter::new(&cat).rewrite_all(&q, &asts);
    assert_eq!(rewrites.len(), 1);
    assert_eq!(
        stats::navigator_runs() - nav_before,
        1,
        "only the surviving candidate reaches the navigator"
    );
    assert_eq!(stats::filter_rejections() - rej_before, 2);
}
