//! End-to-end reproductions of every worked example in the paper
//! (Figures 2–14 and Table 1), executed against generated data:
//! each test matches the query against the AST, rewrites it, materializes
//! the AST, runs both forms, and asserts multiset-equal results.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sumtab_catalog::{Catalog, Date, Value};
use sumtab_engine::{execute, materialize, Database};
use sumtab_matcher::{RegisteredAst, Rewriter};
use sumtab_parser::parse_query;
use sumtab_qgm::{build_query, render_graph_sql, BoxKind, QgmGraph};

/// Deterministic test data over the paper's credit-card schema: several
/// years, months, locations (USA and France), product groups, accounts.
fn setup() -> (Catalog, Database) {
    let cat = Catalog::credit_card_sample();
    let mut db = Database::new();
    db.insert(
        &cat,
        "loc",
        vec![
            vec![1.into(), "san jose".into(), "CA".into(), "USA".into()],
            vec![2.into(), "los angeles".into(), "CA".into(), "USA".into()],
            vec![3.into(), "austin".into(), "TX".into(), "USA".into()],
            vec![4.into(), "paris".into(), "IDF".into(), "France".into()],
        ],
    )
    .unwrap();
    db.insert(
        &cat,
        "pgroup",
        vec![
            vec![10.into(), "TV".into()],
            vec![11.into(), "Radio".into()],
            vec![12.into(), "Audio".into()],
        ],
    )
    .unwrap();
    db.insert(
        &cat,
        "cust",
        vec![
            vec![1000.into(), "alice".into(), 31.into()],
            vec![2000.into(), "bob".into(), 45.into()],
            vec![3000.into(), "carol".into(), 27.into()],
        ],
    )
    .unwrap();
    db.insert(
        &cat,
        "acct",
        vec![
            vec![100.into(), 1000.into(), "gold".into()],
            vec![200.into(), 2000.into(), "basic".into()],
            vec![300.into(), 3000.into(), "gold".into()],
        ],
    )
    .unwrap();
    // A small linear-congruential generator keeps the fixture deterministic
    // while producing a few hundred transactions spread over years/months.
    let mut state: u64 = 0x5eed_1234;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut rows = Vec::new();
    for tid in 0..400i64 {
        let faid = [100i64, 200, 300][next(3) as usize];
        let flid = 1 + next(4) as i64;
        let fpgid = 10 + next(3) as i64;
        let year = 1989 + next(5) as i32;
        let month = 1 + next(12) as u8;
        let day = 1 + next(28) as u8;
        let qty = 1 + next(5) as i64;
        let price = 10.0 + next(200) as f64;
        let disc = (next(5) as f64) / 10.0;
        rows.push(vec![
            Value::Int(tid),
            Value::Int(faid),
            Value::Int(flid),
            Value::Int(fpgid),
            Value::Date(Date::new(year, month, day).unwrap()),
            Value::Int(qty),
            Value::Double(price),
            Value::Double(disc),
        ]);
    }
    db.insert(&cat, "trans", rows).unwrap();
    (cat, db)
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Match `query_sql` against the AST defined by `ast_sql`; assert a rewrite
/// exists, that it reads the backing table (not the fact table, unless
/// `expect_fact` says otherwise), and that both forms produce identical
/// multisets. Returns the rewritten graph for further inspection.
fn check_rewrite(query_sql: &str, ast_sql: &str) -> QgmGraph {
    let (cat, mut db) = setup();
    let ast = RegisteredAst::from_sql("the_ast", ast_sql, &cat).unwrap();
    materialize("the_ast", &ast.graph, &cat, &mut db).unwrap();
    let q = build_query(&parse_query(query_sql).unwrap(), &cat).unwrap();
    let rewriter = Rewriter::new(&cat);
    let rw = rewriter
        .rewrite(&q, &ast)
        .unwrap()
        .unwrap_or_else(|| panic!("expected a match for:\n  {query_sql}\nagainst\n  {ast_sql}"));
    // The rewritten query must read the backing table.
    let reads_ast = rw
        .graph
        .boxes
        .iter()
        .any(|b| matches!(&b.kind, BoxKind::BaseTable { table } if table == "the_ast"));
    assert!(
        reads_ast,
        "rewrite must scan the AST:\n{}",
        render_graph_sql(&rw.graph)
    );
    let original = execute(&q, &db).unwrap();
    let rewritten = execute(&rw.graph, &db).unwrap();
    assert!(
        !original.is_empty(),
        "fixture produced an empty result — test would be vacuous: {query_sql}"
    );
    assert_eq!(
        sorted(original),
        sorted(rewritten),
        "results differ for:\n  {query_sql}\nrewritten:\n  {}",
        render_graph_sql(&rw.graph)
    );
    rw.graph
}

/// Assert that no rewrite exists.
fn check_no_match(query_sql: &str, ast_sql: &str) {
    let (cat, _) = setup();
    let ast = RegisteredAst::from_sql("the_ast", ast_sql, &cat).unwrap();
    let q = build_query(&parse_query(query_sql).unwrap(), &cat).unwrap();
    assert!(
        Rewriter::new(&cat).rewrite(&q, &ast).unwrap().is_none(),
        "expected NO match for:\n  {query_sql}\nagainst\n  {ast_sql}"
    );
}

// ---------------------------------------------------------------------------
// Figure 2: Q1 / AST1 → NewQ1
// ---------------------------------------------------------------------------

#[test]
fn fig02_q1_rollup_with_rejoin_and_having() {
    let g = check_rewrite(
        "select faid, state, year(date) as year, count(*) as cnt \
         from trans, loc where flid = lid and country = 'USA' \
         group by faid, state, year(date) having count(*) > 2",
        "select faid, flid, year(date) as year, count(*) as cnt \
         from trans group by faid, flid, year(date)",
    );
    // The rewrite re-joins Loc and re-groups (SUM over partial counts).
    assert!(g
        .boxes
        .iter()
        .any(|b| matches!(&b.kind, BoxKind::BaseTable { table } if table == "loc")));
    assert!(g.boxes.iter().any(|b| b.is_group_by()));
}

// ---------------------------------------------------------------------------
// Figure 5: Q2 / AST2 → NewQ2 (SELECT boxes with exact child matches)
// ---------------------------------------------------------------------------

#[test]
fn fig05_q2_rejoin_extra_child_and_derivation() {
    let g = check_rewrite(
        "select aid, status, qty * price * (1 - disc) as amt \
         from trans, pgroup, acct \
         where pgid = fpgid and faid = aid and price > 100 and disc > 0.1 and pgname = 'TV'",
        "select tid, faid, fpgid, status, country, price, qty, disc, qty * price as value \
         from trans, loc, acct where lid = flid and faid = aid and disc > 0.1",
    );
    // PGroup is rejoined; Loc (the AST's extra child) is not re-read.
    assert!(g
        .boxes
        .iter()
        .any(|b| matches!(&b.kind, BoxKind::BaseTable { table } if table == "pgroup")));
    assert!(!g
        .boxes
        .iter()
        .any(|b| matches!(&b.kind, BoxKind::BaseTable { table } if table == "loc")));
}

#[test]
fn fig05_extra_child_without_ri_is_rejected() {
    // Same AST shape, but joining Loc on a non-PK column: the extra join is
    // no longer provably lossless, so no match may be produced.
    check_no_match(
        "select aid, status from trans, acct where faid = aid",
        "select tid, faid, status from trans, loc, acct \
         where city = 'san jose' and faid = aid",
    );
}

// ---------------------------------------------------------------------------
// Figure 6: Q4 (GROUP-BY boxes with exact child matches, re-grouping)
// ---------------------------------------------------------------------------

#[test]
fn fig06_q4_regroup_year_from_month() {
    let g = check_rewrite(
        "select year(date) as year, sum(qty * price) as value \
         from trans group by year(date)",
        "select year(date) as year, month(date) as month, sum(qty * price) as value \
         from trans group by year(date), month(date)",
    );
    // Re-grouping compensation must aggregate again.
    assert!(g.boxes.iter().any(|b| b.is_group_by()));
}

#[test]
fn fig06_exact_grouping_sets_need_no_regroup() {
    // Identical grouping sets: the match is exact, the rewrite is a plain
    // scan of the AST.
    let g = check_rewrite(
        "select year(date) as year, sum(qty * price) as value \
         from trans group by year(date)",
        "select year(date) as year, sum(qty * price) as value \
         from trans group by year(date)",
    );
    assert!(
        !g.boxes.iter().any(|b| b.is_group_by()),
        "no GROUP BY needed:\n{}",
        render_graph_sql(&g)
    );
}

// ---------------------------------------------------------------------------
// Figure 7: Q6 / AST6 (GROUP-BY with SELECT-only child compensation)
// ---------------------------------------------------------------------------

#[test]
fn fig07_q6_predicate_pullup_and_expression_grouping() {
    check_rewrite(
        "select year(date) % 100 as year, sum(qty * price) as value \
         from trans where month(date) >= 6 group by year(date) % 100",
        "select year(date) as year, month(date) as month, sum(qty * price) as value \
         from trans group by year(date), month(date)",
    );
}

#[test]
fn fig07_pullup_condition_rejects_non_derivable_predicate() {
    // The filter is on `day(date)`, which the AST does not group by:
    // the pullup condition fails and no rewrite may be produced.
    check_no_match(
        "select year(date) as year, count(*) as cnt \
         from trans where day(date) > 15 group by year(date)",
        "select year(date) as year, month(date) as month, count(*) as cnt \
         from trans group by year(date), month(date)",
    );
}

// ---------------------------------------------------------------------------
// Figure 8: Q7 / AST7 (GROUP-BY with rejoin child compensation, 1:N)
// ---------------------------------------------------------------------------

#[test]
fn fig08_q7_one_to_n_rejoin_avoids_regrouping() {
    let g = check_rewrite(
        "select lid, year(date) as year, count(*) as cnt \
         from trans, loc where flid = lid and country = 'USA' \
         group by lid, year(date)",
        "select flid, year(date) as year, count(*) as cnt \
         from trans group by flid, year(date)",
    );
    assert!(
        !g.boxes.iter().any(|b| b.is_group_by()),
        "1:N rejoin on the PK avoids re-grouping:\n{}",
        render_graph_sql(&g)
    );
}

#[test]
fn fig08_n_m_style_grouping_by_rejoin_attribute_regroups() {
    // Grouping by `state` (not Loc's key) merges several flids per group,
    // so the compensation must re-group and SUM the partial counts.
    let g = check_rewrite(
        "select state, year(date) as year, count(*) as cnt \
         from trans, loc where flid = lid group by state, year(date)",
        "select flid, year(date) as year, count(*) as cnt \
         from trans group by flid, year(date)",
    );
    assert!(g.boxes.iter().any(|b| b.is_group_by()));
}

// ---------------------------------------------------------------------------
// Figure 10: Q8 / AST8 (GROUP-BY boxes with GROUP-BY child compensation)
// ---------------------------------------------------------------------------

#[test]
fn fig10_q8_histogram_of_counts() {
    check_rewrite(
        "select tcnt, count(*) as ycnt from \
         (select year(date) as year, count(*) as tcnt from trans group by year(date)) as v \
         group by tcnt",
        "select year, tcnt, count(*) as mcnt from \
         (select year(date) as year, month(date) as month, count(*) as tcnt \
          from trans group by year(date), month(date)) as m \
         group by year, tcnt",
    );
}

// ---------------------------------------------------------------------------
// Figure 11: Q10 / AST10 (SELECT with GROUP-BY child compensation and a
// scalar subquery). The AST explicitly exports cnt and totcnt — the paper's
// QGM preserves these QNCs at the AST output; our ASTs export only declared
// columns, so the experiment declares them.
// ---------------------------------------------------------------------------

#[test]
fn fig11_q10_scalar_subquery_percentage() {
    check_rewrite(
        "select flid, count(*) / (select count(*) from trans) as cntpct \
         from trans, loc where flid = lid and country = 'USA' \
         group by flid having count(*) > 2",
        "select flid, year(date) as year, count(*) as cnt, \
                (select count(*) from trans) as totcnt \
         from trans group by flid, year(date)",
    );
}

// ---------------------------------------------------------------------------
// Table 1 (Section 6): syntactically equal HAVING predicates that are NOT
// semantically equivalent — translation exposes `count(*) > 2` as
// `sum(cnt) > 2`, which does not match the AST's own `count(*) > 2`.
// ---------------------------------------------------------------------------

#[test]
fn table1_having_predicates_are_compared_semantically() {
    check_no_match(
        "select flid, count(*) as cnt from trans group by flid having count(*) > 2",
        "select flid, year(date) as year, count(*) as cnt \
         from trans group by flid, year(date) having count(*) > 2",
    );
}

#[test]
fn table1_counterpart_same_level_having_does_match() {
    // When the grouping sets coincide, the same HAVING predicate IS
    // semantically equivalent and the match succeeds.
    check_rewrite(
        "select flid, count(*) as cnt from trans group by flid having count(*) > 2",
        "select flid, count(*) as cnt from trans group by flid having count(*) > 2",
    );
}

// ---------------------------------------------------------------------------
// Figure 13: simple GROUP-BY queries against a cube AST (Section 5.1)
// ---------------------------------------------------------------------------

const AST11: &str = "select flid, faid, year(date) as year, month(date) as month, count(*) as cnt \
     from trans group by grouping sets ((flid, year(date)), (flid, faid), \
     (flid, year(date), month(date)))";

#[test]
fn fig13_q11_1_exact_cuboid_with_slicing() {
    let g = check_rewrite(
        "select flid, year(date) as year, count(*) as cnt \
         from trans where year(date) > 1990 group by flid, year(date)",
        AST11,
    );
    assert!(
        !g.boxes.iter().any(|b| b.is_group_by()),
        "exact cuboid needs slicing only:\n{}",
        render_graph_sql(&g)
    );
}

#[test]
fn fig13_q11_2_regroup_from_finer_cuboid() {
    let g = check_rewrite(
        "select flid, year(date) as year, count(*) as cnt \
         from trans where month(date) >= 6 group by flid, year(date)",
        AST11,
    );
    assert!(g.boxes.iter().any(|b| b.is_group_by()));
}

#[test]
fn fig13_q11_3_count_distinct_has_no_match() {
    check_no_match(
        "select flid, year(date) as year, month(date) as month, \
                count(distinct faid) as custcnt \
         from trans group by flid, year(date), month(date)",
        AST11,
    );
}

// ---------------------------------------------------------------------------
// Figure 14: cube queries against a cube AST (Section 5.2)
// ---------------------------------------------------------------------------

const AST12: &str = "select flid, faid, year(date) as year, month(date) as month, count(*) as cnt \
     from trans group by grouping sets ((flid, faid, year(date)), (flid, year(date)), \
     (flid, year(date), month(date)), (year(date)))";

#[test]
fn fig14_q12_1_all_cuboids_present_no_regroup() {
    let g = check_rewrite(
        "select flid, year(date) as year, count(*) as cnt \
         from trans where year(date) > 1990 \
         group by grouping sets ((flid, year(date)), (year(date)))",
        AST12,
    );
    assert!(
        !g.boxes.iter().any(|b| b.is_group_by()),
        "disjunctive slicing, no re-grouping:\n{}",
        render_graph_sql(&g)
    );
}

#[test]
fn fig14_q12_2_missing_cuboid_forces_regroup() {
    let g = check_rewrite(
        "select flid, year(date) as year, count(*) as cnt \
         from trans where year(date) > 1990 \
         group by grouping sets ((flid), (year(date)))",
        AST12,
    );
    // The (flid) cuboid is absent from the AST: the compensation selects
    // the (flid, year) cuboid and re-groups by gs((flid),(year)).
    let regroup = g
        .boxes
        .iter()
        .filter_map(|b| b.as_group_by())
        .find(|gb| gb.sets.len() == 2)
        .expect("multidimensional regroup box");
    assert_eq!(regroup.sets.len(), 2);
}

// ---------------------------------------------------------------------------
// Additional cross-cutting checks from the running example (Figure 2).
// ---------------------------------------------------------------------------

#[test]
fn subsumption_footnote4_weaker_ast_predicate() {
    // AST keeps disc > 0.05; query wants disc > 0.1: the AST predicate
    // subsumes the query's, and the compensation re-applies the stronger one.
    check_rewrite(
        "select tid, qty from trans where disc > 0.1",
        "select tid, qty, disc from trans where disc > 0.05",
    );
    // The reverse direction must fail (the AST is missing rows).
    check_no_match(
        "select tid, qty from trans where disc > 0.05",
        "select tid, qty, disc from trans where disc > 0.1",
    );
}

#[test]
fn column_equivalence_from_join_predicates() {
    // Query selects `aid`; AST only exports `faid`, equivalent via the join.
    check_rewrite(
        "select aid, qty from trans, acct where faid = aid",
        "select faid, qty, status from trans, acct where faid = aid",
    );
}

#[test]
fn multi_ast_routing_picks_a_match() {
    let (cat, mut db) = setup();
    let coarse = RegisteredAst::from_sql(
        "coarse",
        "select faid, count(*) as cnt from trans group by faid",
        &cat,
    )
    .unwrap();
    let fine = RegisteredAst::from_sql(
        "fine",
        "select faid, flid, year(date) as year, count(*) as cnt \
         from trans group by faid, flid, year(date)",
        &cat,
    )
    .unwrap();
    materialize("coarse", &coarse.graph, &cat, &mut db).unwrap();
    materialize("fine", &fine.graph, &cat, &mut db).unwrap();
    let q = build_query(
        &parse_query("select faid, count(*) as cnt from trans group by faid").unwrap(),
        &cat,
    )
    .unwrap();
    let rewriter = Rewriter::new(&cat);
    let all = rewriter.rewrite_all(&q, &[coarse, fine]);
    assert_eq!(all.len(), 2, "both ASTs can answer the query");
    let orig = sorted(execute(&q, &db).unwrap());
    for rw in &all {
        let rows = execute(&rw.graph, &db).unwrap();
        assert_eq!(sorted(rows), orig, "via {}", rw.ast_name);
    }
}
