//! Matching cost at scale: per-query matching latency against a growing
//! population of registered ASTs, with exactly one matchable candidate —
//! the regime the fast path is built for (a warehouse accumulates many
//! summary tables; any one query can use few of them).
//!
//! Two sweeps per population size:
//!
//! * **unfiltered serial** — [`Rewriter::rewrite_all_unfiltered`], the
//!   pre-fast-path behaviour: every AST through the full navigator;
//! * **filtered parallel** — [`Rewriter::rewrite_all`]: signature filter
//!   first, survivors fanned out across the thread pool.
//!
//! Emits `BENCH_matching.json` at the repository root, with the 1000-AST
//! speedup and its floor, and aborts loudly if that speedup drops below
//! [`MIN_SPEEDUP`] (in practice it is far higher, since a signature test is
//! nanoseconds and a navigator run is microseconds).
//!
//! Plain `harness = false` benchmark (no external benchmark framework —
//! the workspace builds offline); accepts `--quick` for CI smoke runs.

// Bench fixtures run over fixed inputs; a failed setup step should abort
// the run loudly, so panicking unwraps are intended here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sumtab::catalog::{Column, SqlType, Table};
use sumtab::{Catalog, RegisteredAst, Rewriter};
use sumtab_bench::median_time;

/// The acceptance floor on the filtered-parallel over unfiltered-serial
/// speedup at 1000 ASTs.
const MIN_SPEEDUP: f64 = 5.0;

/// One fact table per AST so exactly one candidate survives the filter.
fn build_population(n: usize) -> (Catalog, Vec<RegisteredAst>) {
    let mut catalog = Catalog::new();
    for i in 0..n {
        catalog
            .add_table(Table::new(
                &format!("t{i:03}"),
                vec![
                    Column::new("k", SqlType::Int),
                    Column::new("v", SqlType::Int),
                ],
            ))
            .unwrap();
    }
    let asts = (0..n)
        .map(|i| {
            RegisteredAst::from_sql(
                &format!("ast{i:03}"),
                &format!("select k, count(*) as c, sum(v) as s from t{i:03} group by k"),
                &catalog,
            )
            .unwrap()
        })
        .collect();
    (catalog, asts)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 5 } else { 25 };
    let sizes = [10usize, 100, 1000];
    println!(
        "{:>6} {:>14} {:>14} {:>9} {:>10} {:>10}",
        "asts", "unfiltered", "filtered", "speedup", "nav_runs", "rejected"
    );
    let mut records = Vec::new();
    let mut speedup_at_1000 = f64::INFINITY;
    for n in sizes {
        let (catalog, asts) = build_population(n);
        let rewriter = Rewriter::new(&catalog);
        let query = sumtab::build_query(
            &sumtab::parser::parse_query("select k, sum(v) as s from t000 group by k").unwrap(),
            &catalog,
        )
        .unwrap();
        // Sanity: both paths agree and exactly one AST matches.
        let base = rewriter.rewrite_all_unfiltered(&query, &asts);
        let fast = rewriter.rewrite_all(&query, &asts);
        assert_eq!(base.len(), 1, "exactly one matchable AST by construction");
        assert_eq!(
            base.iter().map(|r| &r.ast_name).collect::<Vec<_>>(),
            fast.iter().map(|r| &r.ast_name).collect::<Vec<_>>(),
            "filter must not change the result"
        );

        let unfiltered = median_time(reps, || {
            let _ = rewriter.rewrite_all_unfiltered(&query, &asts);
        });
        let filtered = median_time(reps, || {
            let _ = rewriter.rewrite_all(&query, &asts);
        });
        let nav_before = sumtab::matcher::stats::navigator_runs();
        let rej_before = sumtab::matcher::stats::filter_rejections();
        let _ = rewriter.rewrite_all(&query, &asts);
        let nav_runs = sumtab::matcher::stats::navigator_runs() - nav_before;
        let rejected = sumtab::matcher::stats::filter_rejections() - rej_before;

        let speedup = unfiltered.as_secs_f64() / filtered.as_secs_f64().max(f64::EPSILON);
        if n == 1000 {
            speedup_at_1000 = speedup;
        }
        println!(
            "{:>6} {:>12.3?} {:>12.3?} {:>8.1}x {:>10} {:>10}",
            n, unfiltered, filtered, speedup, nav_runs, rejected
        );
        records.push(format!(
            "{{\"asts\": {n}, \"matchable\": 1, \
             \"unfiltered_serial_ns\": {}, \"filtered_parallel_ns\": {}, \
             \"speedup\": {speedup:.2}, \
             \"navigator_runs\": {nav_runs}, \"filter_rejections\": {rejected}}}",
            unfiltered.as_nanos(),
            filtered.as_nanos(),
        ));
    }
    // Written before the floor is asserted, so a run that misses it still
    // leaves the figures behind.
    let json = format!(
        "{{\n  \"bench\": \"filtering\",\n  \"quick\": {quick},\n  \
         \"speedup_at_1000\": {speedup_at_1000:.2},\n  \
         \"min_speedup\": {MIN_SPEEDUP:.1},\n  \
         \"sweeps\": [\n    {}\n  ]\n}}\n",
        records.join(",\n    ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_matching.json");
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());
    assert!(
        speedup_at_1000 >= MIN_SPEEDUP,
        "fast path must be at least {MIN_SPEEDUP}x faster at 1000 ASTs, got {speedup_at_1000:.1}x"
    );
}
