//! Executor benchmark: the morsel-parallel columnar path (`execute_with`,
//! pool size 4) against the serial row-at-a-time oracle (`execute_serial`)
//! over a scale-factor sweep of the generated star schema, plus the
//! base-plan vs AST-rewritten-plan gap under the new executor.
//!
//! Emits `BENCH_exec.json` at the repository root and aborts loudly if any
//! case's columnar-over-serial speedup at the biggest scale falls under
//! its per-case floor (see [`CASES`]) — regression bars for every executor
//! layer, not just the headline scan.
//!
//! Plain `harness = false` benchmark (no external benchmark framework —
//! the workspace builds offline); accepts `--quick` for CI smoke runs.

// Benches run over fixed inputs; unwrap/expect failures should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sumtab::engine::{execute_serial, execute_with, ExecOptions, DEFAULT_MORSEL_SIZE};
use sumtab::QgmGraph;
use sumtab_bench::{median_time, prepare};

/// (name, SQL, floor) triples exercising each executor layer: the fused
/// columnar scan, the fused join pipeline over a partitioned hash build,
/// the fused scan→aggregate grouping-sets fold, top-k inside the morsel
/// scan over a single table and behind a join, and a join whose build side
/// is a derived table with one integer key per row (it would turn quadratic
/// if integer keys shared their low hash bits). The floor is the minimum
/// parallel-over-serial speedup tolerated at the biggest scale — set well
/// under steady-state measurements (200,000 rows, 2 cores: large_scan
/// ~7–8×, join_group_by ~4×, grouping_sets ~7–8×, top_k ~70–90×,
/// top_k_join ~25–28×, join_wide_build ~3×; `--quick` at 20,000 rows reads
/// top_k ~20–30×, top_k_join ~9–15× and join_wide_build ~2×)
/// so a real regression trips it, not scheduler jitter. Every case must
/// clear 1.5×: the parallel path is the default executor and has no
/// business losing to the row-at-a-time interpreter anywhere.
const CASES: &[(&str, &str, f64)] = &[
    (
        "large_scan",
        "select tid, qty * price * (1 - disc) as amt from trans \
         where qty >= 2 and disc < 0.1",
        3.0,
    ),
    (
        "join_group_by",
        "select country, year(date) as y, sum(qty * price) as rev, count(*) as cnt \
         from trans, loc where flid = lid group by country, year(date)",
        1.5,
    ),
    (
        "grouping_sets",
        "select flid, fpgid, sum(qty) as q, count(*) as c from trans \
         group by grouping sets ((flid, fpgid), (flid), ())",
        2.0,
    ),
    (
        "top_k",
        "select tid, price from trans order by price desc, tid limit 10",
        10.0,
    ),
    (
        "top_k_join",
        "select tid, pgname, price from trans, pgroup where fpgid = pgid \
         order by price desc, tid limit 10",
        5.0,
    ),
    (
        "join_wide_build",
        "select count(*) as c from trans, \
         (select tid as k, count(*) as n from trans group by tid) as v \
         where trans.tid = v.k",
        1.5,
    ),
];

fn graph(sql: &str, catalog: &sumtab::Catalog) -> QgmGraph {
    sumtab::build_query(&sumtab::parser::parse_query(sql).unwrap(), catalog).unwrap()
}

fn main() {
    // Timing is only meaningful with the verifier gates off. Release builds
    // keep them off unless SUMTAB_VERIFY=1 explicitly opts in; a debug-assert
    // build (or a stray env var) would silently tax every measurement, so
    // abort rather than publish tainted numbers.
    let verify_on = sumtab::qgm::verify::runtime_checks_enabled();
    assert!(
        !verify_on || sumtab::qgm::verify::env_verify_requested(),
        "bench must run with verifier gates off: build with --release and \
         leave SUMTAB_VERIFY unset"
    );
    if verify_on {
        eprintln!("warning: SUMTAB_VERIFY=1 set; timings include verifier overhead");
    }

    let quick = std::env::args().any(|a| a == "--quick");
    let scales: &[usize] = if quick { &[20_000] } else { &[50_000, 200_000] };
    let reps = if quick { 3 } else { 7 };
    let opts = ExecOptions {
        pool_size: 4,
        morsel_size: DEFAULT_MORSEL_SIZE,
    };

    let mut scale_records = Vec::new();
    let mut biggest_scale_speedups: Vec<(&str, f64, f64)> = Vec::new();
    for &scale in scales {
        let fx = prepare(scale);
        println!("scale {scale}:");
        println!(
            "  {:<16} {:>12} {:>12} {:>9}",
            "case", "serial", "parallel", "speedup"
        );
        let mut case_records = Vec::new();
        for (name, sql, floor) in CASES {
            let g = graph(sql, &fx.catalog);
            // Results must agree before timing means anything.
            assert_eq!(
                execute_with(&g, &fx.db, &opts).unwrap(),
                execute_serial(&g, &fx.db).unwrap(),
                "{name}: executor paths disagree"
            );
            let serial = median_time(reps, || {
                execute_serial(&g, &fx.db).unwrap();
            });
            let parallel = median_time(reps, || {
                execute_with(&g, &fx.db, &opts).unwrap();
            });
            let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(f64::EPSILON);
            println!("  {name:<16} {serial:>10.3?} {parallel:>10.3?} {speedup:>8.2}x");
            if scale == *scales.last().unwrap() {
                biggest_scale_speedups.push((name, speedup, *floor));
            }
            case_records.push(format!(
                "{{\"case\": \"{name}\", \"serial_ns\": {}, \"parallel_ns\": {}, \
                 \"speedup\": {speedup:.2}, \"floor\": {floor:.1}}}",
                serial.as_nanos(),
                parallel.as_nanos(),
            ));
        }

        // Base plan vs AST-rewritten plan, both on the parallel executor:
        // the paper's gap must survive the engine swap.
        let mut rewrite_records = Vec::new();
        for case in fx.cases.iter().filter(|c| c.rewritten.is_some()).take(3) {
            let rewritten = case.rewritten.as_ref().unwrap();
            let base = median_time(reps, || {
                execute_with(&case.original, &fx.db, &opts).unwrap();
            });
            let rw = median_time(reps, || {
                execute_with(rewritten, &fx.db, &opts).unwrap();
            });
            let ratio = base.as_secs_f64() / rw.as_secs_f64().max(f64::EPSILON);
            println!(
                "  {:<16} {base:>10.3?} {rw:>10.3?} {ratio:>8.1}x  (base vs rewritten)",
                case.case.id
            );
            rewrite_records.push(format!(
                "{{\"figure\": \"{}\", \"base_ns\": {}, \"rewritten_ns\": {}, \
                 \"ratio\": {ratio:.2}, \"ast_rows\": {}}}",
                case.case.id,
                base.as_nanos(),
                rw.as_nanos(),
                case.ast_rows,
            ));
        }
        scale_records.push(format!(
            "{{\"transactions\": {scale}, \"cases\": [\n      {}\n    ], \"rewritten\": [\n      {}\n    ]}}",
            case_records.join(",\n      "),
            rewrite_records.join(",\n      ")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"exec\",\n  \"quick\": {quick},\n  \"verify_gates\": {verify_on},\n  \
         \"pool_size\": {},\n  \"morsel_size\": {},\n  \"scales\": [\n    {}\n  ]\n}}\n",
        opts.pool_size,
        opts.morsel_size,
        scale_records.join(",\n    ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_exec.json");
    std::fs::write(&out, json).unwrap();
    println!("wrote {}", out.display());

    // Per-case floors at the biggest scale: a single blanket bar on one
    // case let the others regress unnoticed.
    for (name, speedup, floor) in &biggest_scale_speedups {
        assert!(
            speedup >= floor,
            "{name}: columnar executor must be >= {floor:.1}x the serial \
             interpreter at the biggest scale; measured {speedup:.2}x"
        );
    }
}
