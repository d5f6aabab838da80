//! One benchmark per paper figure: execution time of the original query vs
//! its AST rewrite on a shared generated database (50k fact rows). The
//! paper's claim is a large per-figure gap; absolute times depend on the
//! substrate engine, the *ratios* are the reproduced result.
//!
//! Since the cost-based router landed, the headline `ratio` is the speedup
//! of the plan the system would actually *choose* over the base plan — a
//! figure whose rewrite the router rejects (Figure 5's near-base-size AST
//! does not halve the stored rows read) routes to the base plan and reports
//! 1.00x. `rewrite_ratio` records the rewrite's own speedup whatever the
//! route, so a rejected rewrite that measures faster shows up there. Every
//! reported ratio is asserted `>= 1.0`: the router must never ship a losing
//! plan.
//!
//! Plain `harness = false` benchmark (no external benchmark framework —
//! the workspace builds offline); prints one line per figure.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sumtab::cost::{self, RoutePolicy};
use sumtab_bench::{median_time, prepare};

/// Floor on every figure's routed ratio: the router must never ship a plan
/// slower than the base plan. Emitted with each case so CI re-checks it
/// from the JSON.
const MIN_ROUTED_RATIO: f64 = 1.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fx = prepare(if quick { 10_000 } else { 50_000 });
    let reps = if quick { 3 } else { 10 };
    let policy = RoutePolicy::default();
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>8}",
        "figure", "original", "rewritten", "routing", "ratio"
    );
    let mut records = Vec::new();
    for case in &fx.cases {
        let Some(rewritten) = &case.rewritten else {
            continue; // no-match cases have nothing to compare
        };
        let orig = median_time(reps, || {
            sumtab::engine::execute(&case.original, &fx.db).unwrap();
        });
        let rw = median_time(reps, || {
            sumtab::engine::execute(rewritten, &fx.db).unwrap();
        });
        // The router's cost-model decision, exactly as SummarySession
        // derives it: the plan it picks is the plan it runs.
        let row_count = |t: &str| fx.db.row_count(t);
        let base_cost = cost::estimate(&case.original, &row_count);
        let rw_cost = cost::estimate(rewritten, &row_count);
        let (routing, chosen) = if cost::rewrite_wins(&base_cost, &rw_cost, &policy) {
            ("rewrite", rw)
        } else {
            ("base", orig)
        };
        let rewrite_ratio = orig.as_secs_f64() / rw.as_secs_f64().max(f64::EPSILON);
        let ratio = orig.as_secs_f64() / chosen.as_secs_f64().max(f64::EPSILON);
        assert!(
            ratio >= MIN_ROUTED_RATIO,
            "{}: routed plan slower than base ({ratio:.2}x) — the router shipped a losing plan",
            case.case.id
        );
        println!(
            "{:<8} {:>10.3?} {:>10.3?} {:>10} {:>7.1}x",
            case.case.id, orig, rw, routing, ratio
        );
        records.push(format!(
            "{{\"figure\": \"{}\", \"original_ns\": {}, \"rewritten_ns\": {}, \
             \"routing\": \"{routing}\", \"ratio\": {ratio:.2}, \
             \"floor\": {MIN_ROUTED_RATIO:.1}, \"rewrite_ratio\": {rewrite_ratio:.2}, \
             \"ast_rows\": {}}}",
            case.case.id,
            orig.as_nanos(),
            rw.as_nanos(),
            case.ast_rows,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"figures\",\n  \"quick\": {quick},\n  \"cases\": [\n    {}\n  ]\n}}\n",
        records.join(",\n    ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_figures.json");
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());
}
