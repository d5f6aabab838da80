//! Result-cache benchmark: repeated identical queries through a
//! [`sumtab::SummarySession`], cold (result cache disabled) vs warm
//! (cached). The acceptance bar is a >= 4x win on the repeat path; the
//! bench also proves the cache is *correctly invalidated* — an append to a
//! base table bumps its epoch, after which the cached result must not be
//! served.
//!
//! It then times re-planning after DML: `plan_detail` right after a 1-row
//! append (the append itself untimed) re-derives staleness and routing from
//! the still-valid plan entry without a match attempt, against the same
//! call after a plan-generation bump, which parses, builds and matches from
//! scratch. The bar is >= 3x, with zero navigator runs on the warm side.
//!
//! Emits `BENCH_result_cache.json` at the repository root. Plain
//! `harness = false` benchmark; accepts `--quick` for CI smoke runs.

// Benches run over fixed inputs; unwrap/expect failures should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::time::{Duration, Instant};
use sumtab::catalog::SummaryTableDef;
use sumtab::engine::backing_table_schema;
use sumtab::matcher::stats;
use sumtab::{Date, RegisteredAst, Row, SummarySession, Value};
use sumtab_bench::{median_time, prepare};

/// Floor on the result-cache repeat path over executing every repeat. A
/// hit is looked up before the planning loop runs, so it costs the text
/// memo, the plan-cache lookup, an epoch snapshot and cloning the rows —
/// most of a hit is cloning F5's result rows, so the ratio cannot reach
/// the 10x it once had. The floor sits below the slowest measured run
/// (EXPERIMENTS E-X4); a cache that stopped hitting would read ~1x.
const MIN_SPEEDUP: f64 = 4.0;

/// Floor on a cold plan over a re-plan after a 1-row append.
const MIN_COLD_OVER_REPLAN: f64 = 3.0;

/// One fact-table row with a fresh transaction id.
fn fact_row(id: i64) -> Row {
    vec![
        Value::Int(id),
        Value::Int(1),
        Value::Int(1),
        Value::Int(1),
        Value::Date(Date::new(2000, 1, 1).unwrap()),
        Value::Int(1),
        Value::Double(1.0),
        Value::Double(0.0),
    ]
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 10_000 } else { 50_000 };
    let reps = if quick { 5 } else { 15 };
    let fx = prepare(scale);

    // Promote the fixture's materialized ASTs into catalog-registered
    // summary tables so `with_data` re-registers them for rewriting.
    let mut catalog = fx.catalog;
    let mut defs = Vec::new();
    for case in &fx.cases {
        let ast = RegisteredAst::from_sql(&case.ast_name, case.case.ast, &catalog).unwrap();
        let backing = backing_table_schema(&case.ast_name, &ast.graph, &catalog).unwrap();
        defs.push((
            SummaryTableDef {
                name: case.ast_name.clone(),
                query_sql: case.case.ast.to_string(),
            },
            backing,
        ));
    }
    for (def, backing) in defs {
        catalog.add_summary_table(def, backing).unwrap();
    }

    // The heaviest figure (largest AST backing table — Figure 5's shape):
    // its cold execution does real work whichever way the router sends it.
    let heavy = fx
        .cases
        .iter()
        .filter(|c| c.rewritten.is_some())
        .max_by_key(|c| c.ast_rows)
        .unwrap();
    let sql = heavy.case.query;

    let mut session = SummarySession::with_data(catalog, fx.db);
    let routing = session
        .plan_detail(sql)
        .unwrap()
        .routing
        .label()
        .to_string();

    // Cold: result cache off; every repetition plans (cached entry) and
    // executes.
    session.set_result_cache_capacity(0);
    session.query(sql).unwrap();
    let cold = median_time(reps, || {
        session.query(sql).unwrap();
    });

    // Warm: result cache on; one populating run, then every repetition is
    // a cache hit.
    session.set_result_cache_capacity(16);
    session.query(sql).unwrap();
    let warm = median_time(reps, || {
        session.query(sql).unwrap();
    });
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(f64::EPSILON);
    let hits = session.result_cache_stats().hits;
    assert!(hits >= reps as u64, "warm runs must be cache hits");

    // Epoch invalidation: appending to the fact table bumps its epoch;
    // the cached result's snapshot no longer validates, so the next
    // identical query must re-execute, not serve stale rows.
    let mut next_id = scale as i64 + 1_000_000;
    let hits_before = session.result_cache_stats().hits;
    session.append("trans", vec![fact_row(next_id)]).unwrap();
    session.query(sql).unwrap();
    let invalidated = session.result_cache_stats().hits == hits_before;
    assert!(
        invalidated,
        "a base-table append must invalidate the cached result"
    );
    // ... and the re-executed result is re-cached at the new epochs.
    session.query(sql).unwrap();
    assert_eq!(session.result_cache_stats().hits, hits_before + 1);

    // Re-planning after DML, alternating: append one row (untimed), plan
    // (warm: the entry survived the append), bump the generation
    // (untimed), plan again (cold: everything from scratch).
    let (mut replans, mut cold_plans) = (Vec::new(), Vec::new());
    let mut replan_navigator_runs = 0;
    for _ in 0..reps {
        next_id += 1;
        session.append("trans", vec![fact_row(next_id)]).unwrap();
        let nav_before = stats::navigator_runs();
        let t = Instant::now();
        session.plan_detail(sql).unwrap();
        replans.push(t.elapsed());
        replan_navigator_runs += stats::navigator_runs() - nav_before;
        session.bump_plan_generation();
        let t = Instant::now();
        session.plan_detail(sql).unwrap();
        cold_plans.push(t.elapsed());
    }
    assert_eq!(
        replan_navigator_runs, 0,
        "a re-plan after DML must not run the matcher"
    );
    let (replan, cold_plan) = (median(replans), median(cold_plans));
    let cold_over_replan = cold_plan.as_secs_f64() / replan.as_secs_f64().max(f64::EPSILON);

    println!(
        "{:<10} routing={routing:<10} cold {cold:>10.3?}  warm {warm:>10.3?}  {speedup:>8.1}x",
        heavy.case.id
    );
    println!(
        "{:<10} plan after append {replan:>10.3?}  cold plan {cold_plan:>10.3?}  \
         {cold_over_replan:>8.1}x",
        heavy.case.id
    );

    // Written before the floors are asserted, so a run that misses one
    // still records what it measured.
    let json = format!(
        "{{\n  \"bench\": \"result_cache\",\n  \"quick\": {quick},\n  \
         \"figure\": \"{}\",\n  \"routing\": \"{routing}\",\n  \
         \"cold_ns\": {},\n  \"warm_ns\": {},\n  \"speedup\": {speedup:.2},\n  \
         \"min_speedup\": {MIN_SPEEDUP:.1},\n  \
         \"epoch_invalidation\": {invalidated},\n  \
         \"replan_ns\": {},\n  \"cold_plan_ns\": {},\n  \
         \"replan_navigator_runs\": {replan_navigator_runs},\n  \
         \"cold_over_replan\": {cold_over_replan:.2},\n  \
         \"min_cold_over_replan\": {MIN_COLD_OVER_REPLAN:.1}\n}}\n",
        heavy.case.id,
        cold.as_nanos(),
        warm.as_nanos(),
        replan.as_nanos(),
        cold_plan.as_nanos(),
    );
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_result_cache.json");
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());

    assert!(
        speedup >= MIN_SPEEDUP,
        "repeated identical queries must be >= {MIN_SPEEDUP}x faster with the \
         result cache; measured {speedup:.2}x"
    );
    assert!(
        cold_over_replan >= MIN_COLD_OVER_REPLAN,
        "a re-plan after DML must be >= {MIN_COLD_OVER_REPLAN}x faster than a \
         cold plan; measured {cold_over_replan:.2}x"
    );
}
