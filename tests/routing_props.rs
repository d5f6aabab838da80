//! Cost-based routing properties: whatever the router decides — rewrite or
//! base — the *answer* never changes; executing a query never changes how
//! it routes; a cost-rejected match is cached so repeats skip the matcher;
//! and the result cache serves repeats without execution yet can never
//! survive an epoch or generation bump.
//!
//! The match-attempt counter (`matcher::stats::navigator_runs`) is
//! process-global, so tests that assert on it serialize on `LOCK`.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::{Mutex, MutexGuard};
use sumtab::catalog::SummaryTableDef;
use sumtab::cost::RoutePolicy;
use sumtab::datagen::workloads::FIGURES;
use sumtab::datagen::{generate, GenConfig};
use sumtab::engine::backing_table_schema;
use sumtab::matcher::stats;
use sumtab::{RegisteredAst, RouteDecision, RouterOptions, SummarySession, Value};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Multiset equality with relative tolerance on doubles: base-plan and
/// AST-plan aggregation sum in different orders, so totals can differ in
/// the last few ulps (same comparison as `paper_workload`).
fn rows_approx_eq(a: &[sumtab::Row], b: &[sumtab::Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                (Value::Double(p), Value::Double(q)) => {
                    let scale = p.abs().max(q.abs()).max(1.0);
                    (p - q).abs() <= scale * 1e-9
                }
                _ => x == y,
            })
    })
}

/// A session over the generated credit-card data with every figure AST
/// materialized and registered. Deterministic: the same `transactions`
/// always yields the same data, so independently-built sessions agree.
fn figure_session(transactions: usize) -> SummarySession {
    let cfg = GenConfig {
        transactions,
        ..GenConfig::scale(transactions)
    };
    let (mut catalog, mut db) = generate(&cfg);
    let mut defs = Vec::new();
    for case in FIGURES {
        let ast_name = format!("ast_{}", case.id.to_lowercase().replace('.', "_"));
        let ast = RegisteredAst::from_sql(&ast_name, case.ast, &catalog).unwrap();
        sumtab::engine::materialize(&ast_name, &ast.graph, &catalog, &mut db).unwrap();
        let backing = backing_table_schema(&ast_name, &ast.graph, &catalog).unwrap();
        defs.push((
            SummaryTableDef {
                name: ast_name,
                query_sql: case.ast.to_string(),
            },
            backing,
        ));
    }
    for (def, backing) in defs {
        catalog.add_summary_table(def, backing).unwrap();
    }
    SummarySession::with_data(catalog, db)
}

/// Enough rows that figure-query base plans clear the small-plan gate, so
/// the routing decision is live, while staying fast in debug builds.
const SCALE: usize = 3_000;

/// Router options that force one side of the choice, for differential
/// comparison against the default router.
fn always_base() -> RouterOptions {
    RouterOptions {
        policy: RoutePolicy {
            rewrite_penalty: f64::INFINITY,
            min_cost_gate: 0.0,
        },
    }
}

fn always_rewrite() -> RouterOptions {
    RouterOptions {
        policy: RoutePolicy {
            rewrite_penalty: 0.0,
            min_cost_gate: 0.0,
        },
    }
}

/// The core soundness property: the router's choice is a pure performance
/// decision. For every paper figure, the base plan, the rewrite, and the
/// default cost-routed choice all return multiset-identical results.
#[test]
fn router_choice_never_changes_results() {
    let mut routed = figure_session(SCALE);
    let mut base = figure_session(SCALE);
    base.set_router_options(always_base());
    let mut rewrite = figure_session(SCALE);
    rewrite.set_router_options(always_rewrite());

    let mut labels = Vec::new();
    for case in FIGURES.iter().filter(|c| c.matches) {
        let oracle = routed.query_no_rewrite(case.query).unwrap();
        let expect = sumtab::sort_rows(oracle.rows);
        for (name, s) in [
            ("default", &mut routed),
            ("always-base", &mut base),
            ("always-rewrite", &mut rewrite),
        ] {
            let r = s.query(case.query).unwrap();
            assert!(
                rows_approx_eq(&sumtab::sort_rows(r.rows), &expect),
                "{}: router `{name}` changed the answer",
                case.id
            );
        }
        labels.push(routed.plan_detail(case.query).unwrap().routing.label());
    }
    // The default router must actually exercise both branches on this
    // workload: the near-base-size AST routes to base, the rest rewrite.
    assert!(labels.contains(&"rewrite"), "{labels:?}");
    assert!(labels.contains(&"base"), "{labels:?}");
}

/// Routing is a pure function of the match candidates, current row counts
/// and the policy: running a query — and so timing it — never changes how
/// it, or any later query, routes. The result cache is off so every pass
/// really executes.
#[test]
fn execution_never_changes_a_routing_decision() {
    let mut s = figure_session(SCALE);
    s.set_result_cache_capacity(0);
    let matching: Vec<_> = FIGURES.iter().filter(|c| c.matches).collect();
    let mut first_pass = Vec::new();
    for pass in 0..4 {
        let mut used = Vec::new();
        for case in &matching {
            let before = s.plan_detail(case.query).unwrap().routing;
            let r = s.query(case.query).unwrap();
            let after = s.plan_detail(case.query).unwrap().routing;
            assert_eq!(
                before, after,
                "{} pass {pass}: execution re-routed",
                case.id
            );
            used.push(r.used_ast);
        }
        if pass == 0 {
            first_pass = used;
        } else {
            assert_eq!(used, first_pass, "pass {pass} routed differently");
        }
    }
    assert_eq!(s.plan_cache_stats().reroutes, 0);
}

/// An epoch bump without a data change leaves every AST stale: the router
/// has no rewrite to choose, and the answers still hold.
#[test]
fn epoch_bump_routes_every_figure_to_base() {
    let mut s = figure_session(SCALE);
    let matching: Vec<_> = FIGURES.iter().filter(|c| c.matches).collect();
    let expected: Vec<_> = matching
        .iter()
        .map(|case| sumtab::sort_rows(s.query_no_rewrite(case.query).unwrap().rows))
        .collect();
    for case in &matching {
        s.query(case.query).unwrap();
    }
    s.session.db.bump_epoch("trans");
    for (case, expect) in matching.iter().zip(&expected) {
        let r = s.query(case.query).unwrap();
        assert_eq!(r.used_ast, None, "{}: stale AST must not be used", case.id);
        assert!(
            rows_approx_eq(&sumtab::sort_rows(r.rows), expect),
            "{}",
            case.id
        );
    }
}

/// A cost-*rejected* match is cached like any other plan: the second
/// identical query re-serves the base-plan decision with zero navigator
/// runs, instead of re-matching and re-rejecting.
#[test]
fn cost_rejected_match_is_cached() {
    let _g = serialize();
    let mut s = SummarySession::new();
    s.run_script("create table t (k int not null, v int not null);")
        .unwrap();
    // Every key distinct: the summary is as large as the base table, so
    // the rewrite saves nothing and the penalty rejects it. 1500 rows puts
    // the base plan well past the small-plan gate.
    let rows: Vec<Vec<Value>> = (0..1500)
        .map(|i| vec![Value::Int(i), Value::Int(i * 7)])
        .collect();
    {
        let sumtab::Session { catalog, db, .. } = &mut s.session;
        db.insert(catalog, "t", rows).unwrap();
    }
    s.run_script(
        "create summary table st as (select k, sum(v) as sv, count(*) as c from t group by k);",
    )
    .unwrap();

    let q = "select k, sum(v) as sv from t group by k";
    let detail = s.plan_detail(q).unwrap();
    match &detail.routing {
        RouteDecision::Base {
            base_cost,
            rewrite_cost,
            rejected,
        } => {
            assert_eq!(rejected, &vec!["st".to_string()]);
            assert!(
                rewrite_cost * 2.0 > *base_cost,
                "rejection must follow the policy: {rewrite_cost} vs {base_cost}"
            );
        }
        other => panic!("expected a cost-rejected rewrite, got {other:?}"),
    }
    assert!(detail.used.is_empty(), "the base plan carries no ASTs");

    // Repeat: the navigator must not run again for this fingerprint.
    let nav_before = stats::navigator_runs();
    let hits_before = s.plan_cache_stats().hits;
    let again = s.plan_detail(q).unwrap();
    assert_eq!(
        stats::navigator_runs() - nav_before,
        0,
        "cached base-plan decision must skip the matcher"
    );
    assert_eq!(s.plan_cache_stats().hits - hits_before, 1);
    assert_eq!(again.routing.label(), "base");

    // And the executed result reports the routing, distinct from fallback.
    let r = s.query(q).unwrap();
    assert_eq!(r.used_ast, None);
    assert_eq!(r.fallback, None, "a cost choice is not a degradation");
    let why = r.routed.expect("base routing must be reported");
    assert!(why.contains("cost routing kept the base plan"), "{why}");
}

/// The result cache serves repeated identical queries without execution,
/// and a base-table epoch bump ([`sumtab::Database::bump_epoch`]) or a
/// plan-generation bump invalidates it.
#[test]
fn result_cache_hits_and_is_epoch_invalidated() {
    let mut s = SummarySession::new();
    s.run_script(
        "create table t (k int not null, v int not null);
         insert into t values (1, 10), (1, 20), (2, 30);
         create summary table st as (select k, sum(v) as sv, count(*) as c from t group by k);",
    )
    .unwrap();
    let q = "select k, sum(v) as sv from t group by k";

    let first = s.query(q).unwrap();
    let hits0 = s.result_cache_stats().hits;
    let second = s.query(q).unwrap();
    assert_eq!(s.result_cache_stats().hits - hits0, 1, "repeat must hit");
    assert_eq!(
        sumtab::sort_rows(second.rows.clone()),
        sumtab::sort_rows(first.rows.clone())
    );

    // Epoch bump without a data change: the cached result is stale by
    // keying even though its rows happen to still be right — it must be
    // recomputed, not served.
    s.session.db.bump_epoch("t");
    let hits1 = s.result_cache_stats().hits;
    let third = s.query(q).unwrap();
    assert_eq!(s.result_cache_stats().hits, hits1, "stale hit served");
    assert_eq!(
        sumtab::sort_rows(third.rows),
        sumtab::sort_rows(first.rows.clone())
    );

    // A real mutation: the recomputed result reflects the new data.
    {
        let sumtab::Session { catalog, db, .. } = &mut s.session;
        db.insert(catalog, "t", vec![vec![Value::Int(2), Value::Int(5)]])
            .unwrap();
    }
    let fourth = s.query(q).unwrap();
    assert_ne!(
        sumtab::sort_rows(fourth.rows.clone()),
        sumtab::sort_rows(first.rows),
        "the cache must not hide the mutation"
    );

    // Generation bump (AST registration / recovery) also invalidates.
    let hits2 = s.result_cache_stats().hits;
    s.query(q).unwrap(); // re-populate at current epochs
    assert_eq!(s.result_cache_stats().hits - hits2, 1);
    s.bump_plan_generation();
    let hits3 = s.result_cache_stats().hits;
    let fifth = s.query(q).unwrap();
    assert_eq!(s.result_cache_stats().hits, hits3, "stale generation hit");
    assert_eq!(
        sumtab::sort_rows(fifth.rows),
        sumtab::sort_rows(fourth.rows)
    );

    // Capacity 0 disables caching entirely.
    let stats = s.result_cache_stats();
    s.set_result_cache_capacity(0);
    assert_eq!(s.result_cache_stats(), stats, "a resize kept the counters");
    let hits4 = s.result_cache_stats().hits;
    s.query(q).unwrap();
    s.query(q).unwrap();
    assert_eq!(s.result_cache_stats().hits, hits4);
}
