//! Extended matching scenarios beyond the paper's figures: combinations of
//! the patterns (expression-heavy derivations, CASE/LIKE/IN predicates,
//! snowflake rejoins, AVG rewriting, multidimensional + rejoin mixes).
//! Each positive case executes both forms and compares results.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sumtab_catalog::{Catalog, Date, Value};
use sumtab_engine::{execute, materialize, rows_approx_eq, Database};
use sumtab_matcher::{RegisteredAst, Rewriter};
use sumtab_parser::parse_query;
use sumtab_qgm::build_query;

fn setup() -> (Catalog, Database) {
    let cat = Catalog::credit_card_sample();
    let mut db = Database::new();
    db.insert(
        &cat,
        "loc",
        vec![
            vec![1.into(), "san jose".into(), "CA".into(), "USA".into()],
            vec![2.into(), "dallas".into(), "TX".into(), "USA".into()],
            vec![3.into(), "lyon".into(), "ARA".into(), "France".into()],
        ],
    )
    .unwrap();
    db.insert(
        &cat,
        "pgroup",
        vec![
            vec![10.into(), "TV".into()],
            vec![11.into(), "Tuner".into()],
            vec![12.into(), "Radio".into()],
        ],
    )
    .unwrap();
    db.insert(
        &cat,
        "cust",
        vec![
            vec![1000.into(), "alice".into(), 30.into()],
            vec![2000.into(), "bob".into(), 55.into()],
        ],
    )
    .unwrap();
    db.insert(
        &cat,
        "acct",
        vec![
            vec![100.into(), 1000.into(), "gold".into()],
            vec![200.into(), 1000.into(), "basic".into()],
            vec![300.into(), 2000.into(), "gold".into()],
        ],
    )
    .unwrap();
    let mut rows = Vec::new();
    let mut x: u64 = 42;
    let mut rnd = |m: u64| {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (x >> 33) % m
    };
    for tid in 0..600i64 {
        rows.push(vec![
            Value::Int(tid),
            Value::Int([100i64, 200, 300][rnd(3) as usize]),
            Value::Int(1 + rnd(3) as i64),
            Value::Int(10 + rnd(3) as i64),
            Value::Date(
                Date::new(1990 + rnd(4) as i32, 1 + rnd(12) as u8, 1 + rnd(28) as u8).unwrap(),
            ),
            Value::Int(1 + rnd(6) as i64),
            Value::Double(5.0 + rnd(300) as f64),
            Value::Double(rnd(4) as f64 / 10.0),
        ]);
    }
    db.insert(&cat, "trans", rows).unwrap();
    (cat, db)
}

fn check(query_sql: &str, ast_sql: &str) {
    let (cat, mut db) = setup();
    let ast = RegisteredAst::from_sql("xast", ast_sql, &cat).unwrap();
    materialize("xast", &ast.graph, &cat, &mut db).unwrap();
    let q = build_query(&parse_query(query_sql).unwrap(), &cat).unwrap();
    let rw = Rewriter::new(&cat)
        .rewrite(&q, &ast)
        .unwrap()
        .unwrap_or_else(|| panic!("expected match:\n  {query_sql}\n  {ast_sql}"));
    let mut a = execute(&q, &db).unwrap();
    let mut b = execute(&rw.graph, &db).unwrap();
    a.sort();
    b.sort();
    assert!(!a.is_empty(), "vacuous: {query_sql}");
    assert!(
        rows_approx_eq(&a, &b),
        "results differ for {query_sql}\nrewritten: {}",
        sumtab_qgm::render_graph_sql(&rw.graph)
    );
}

#[test]
fn avg_is_rewritten_via_sum_and_count() {
    check(
        "select faid, avg(qty) as aq from trans group by faid",
        "select faid, flid, sum(qty) as sq, count(qty) as cq, count(*) as c \
         from trans group by faid, flid",
    );
}

#[test]
fn avg_of_expression() {
    check(
        "select flid, avg(qty * price) as av from trans group by flid",
        "select flid, year(date) as y, sum(qty * price) as s, \
                count(qty * price) as c from trans group by flid, year(date)",
    );
}

#[test]
fn case_expression_in_query_derives_from_ast_columns() {
    check(
        "select tid, case when disc > 0.2 then 'deal' else 'full' end as label \
         from trans where price > 100",
        "select tid, price, disc from trans",
    );
}

#[test]
fn case_expression_precomputed_in_ast() {
    check(
        "select tid, case when disc > 0.2 then 'deal' else 'full' end as label \
         from trans",
        "select tid, case when disc > 0.2 then 'deal' else 'full' end as label, \
                price from trans",
    );
}

#[test]
fn like_and_in_predicates_compensate() {
    check(
        "select tid, pgname from trans, pgroup \
         where fpgid = pgid and pgname like 'T%' and qty in (1, 2, 3)",
        "select tid, fpgid, qty from trans",
    );
}

#[test]
fn between_normalization_matches_explicit_range() {
    // Query uses BETWEEN; AST uses the equivalent explicit conjunction.
    check(
        "select tid from trans where qty between 2 and 4",
        "select tid, qty from trans where qty >= 2 and qty <= 4",
    );
}

#[test]
fn snowflake_rejoin_through_two_dimensions() {
    // Query reaches Cust through Acct; AST has neither dimension.
    check(
        "select cname, count(*) as cnt \
         from trans, acct, cust where faid = aid and fcid = cid group by cname",
        "select faid, year(date) as y, count(*) as cnt from trans \
         group by faid, year(date)",
    );
}

#[test]
fn multidimensional_ast_with_rejoin_compensation() {
    // Cube AST + query needing a rejoin to Loc: slicing + rejoin combine.
    check(
        "select state, count(*) as cnt from trans, loc where flid = lid group by state",
        "select flid, year(date) as y, count(*) as cnt from trans \
         group by grouping sets ((flid, year(date)), (flid), (year(date)))",
    );
}

#[test]
fn grouping_expression_arithmetic_family() {
    // year(date) - 1900 derivable from year(date).
    check(
        "select year(date) - 1900 as y2, count(*) as c from trans \
         group by year(date) - 1900",
        "select year(date) as y, month(date) as m, count(*) as c \
         from trans group by year(date), month(date)",
    );
}

#[test]
fn sum_of_grouping_column_times_count_rule_c() {
    // SUM(qty) from an AST grouping by qty: rule (c)'s second form.
    check(
        "select flid, sum(qty) as s from trans group by flid",
        "select flid, qty, count(*) as c from trans group by flid, qty",
    );
}

#[test]
fn max_of_grouping_column_rule_d() {
    check(
        "select flid, max(qty) as m, min(qty) as n from trans group by flid",
        "select flid, qty, count(*) as c from trans group by flid, qty",
    );
}

#[test]
fn top_select_arithmetic_over_aggregates() {
    check(
        "select faid, sum(qty * price) / count(*) as avg_amt, count(*) + 0 as c \
         from trans group by faid having sum(qty * price) > 100",
        "select faid, flid, sum(qty * price) as v, count(*) as c \
         from trans group by faid, flid",
    );
}

#[test]
fn projection_only_exact_match_with_reorder() {
    check(
        "select qty, tid from trans",
        "select tid, price, qty from trans",
    );
}

#[test]
fn double_stacked_regrouping() {
    // Query groups by year; AST by (year, month, flid): one regroup over a
    // cube-free, three-column AST.
    check(
        "select year(date) as y, count(*) as c, sum(qty) as s from trans \
         group by year(date) having count(*) > 5",
        "select year(date) as y, month(date) as m, flid, count(*) as c, \
                sum(qty) as s from trans group by year(date), month(date), flid",
    );
}

#[test]
fn where_clause_on_grouping_column_of_ast() {
    check(
        "select flid, count(*) as c from trans where flid = 2 group by flid",
        "select flid, year(date) as y, count(*) as c from trans \
         group by flid, year(date)",
    );
}

#[test]
fn is_null_predicate_round_trip() {
    // All sample columns are non-nullable; IS NOT NULL is vacuously true
    // but must still translate and compensate correctly.
    check(
        "select tid from trans where disc is not null and qty > 3",
        "select tid, qty, disc from trans",
    );
}

#[test]
fn order_by_and_limit_preserved_through_rewrite() {
    let (cat, mut db) = setup();
    let ast = RegisteredAst::from_sql(
        "xast",
        "select faid, flid, count(*) as cnt from trans group by faid, flid",
        &cat,
    )
    .unwrap();
    materialize("xast", &ast.graph, &cat, &mut db).unwrap();
    let q = build_query(
        &parse_query(
            "select faid, count(*) as cnt from trans group by faid \
             order by cnt desc, faid limit 2",
        )
        .unwrap(),
        &cat,
    )
    .unwrap();
    let rw = Rewriter::new(&cat).rewrite(&q, &ast).unwrap().unwrap();
    let a = execute(&q, &db).unwrap();
    let b = execute(&rw.graph, &db).unwrap();
    assert_eq!(a.len(), 2);
    assert_eq!(
        a, b,
        "ordered results must match exactly (not just as sets)"
    );
}

#[test]
fn rewrite_graphs_are_structurally_valid() {
    // Every produced graph must pass the QGM structural validator (also
    // exercised implicitly by Rewriter, but assert here explicitly).
    let (cat, _db) = setup();
    let ast = RegisteredAst::from_sql(
        "xast",
        "select faid, flid, year(date) as y, count(*) as cnt, sum(qty) as s \
         from trans group by faid, flid, year(date)",
        &cat,
    )
    .unwrap();
    for sql in [
        "select faid, count(*) as c from trans group by faid",
        "select flid, sum(qty) as s from trans group by flid having sum(qty) > 10",
        "select faid, state, count(*) as c from trans, loc where flid = lid group by faid, state",
    ] {
        let q = build_query(&parse_query(sql).unwrap(), &cat).unwrap();
        let rw = Rewriter::new(&cat).rewrite(&q, &ast).unwrap().unwrap();
        rw.graph.validate();
    }
}

#[test]
fn self_join_pairing_backtracks_footnote3() {
    // The greedy first assignment pairs the query's qty-side Trans with the
    // AST's price-side Trans (listed first) and fails condition 2; the
    // bounded backtracking of footnote 3 finds the crossed pairing.
    check(
        "select a.tid as t1, b.tid as t2 \
         from trans as a, trans as b \
         where a.qty > 3 and b.price > 100 and a.faid = b.faid",
        "select y.tid as tid1, x.tid as tid2, x.price, y.qty, x.faid as fx, y.faid as fy \
         from trans as x, trans as y \
         where x.price > 100 and y.qty > 3 and x.faid = y.faid",
    );
}

#[test]
fn self_join_histogram_ast() {
    // Both sides self-join the fact table symmetrically.
    check(
        "select a.flid, count(*) as c from trans as a, trans as b \
         where a.faid = b.faid group by a.flid",
        "select a.flid, b.flid as flid2, count(*) as c from trans as a, trans as b \
         where a.faid = b.faid group by a.flid, b.flid",
    );
}
