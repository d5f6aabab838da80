//! The full figure workload (datagen::workloads::FIGURES) executed through
//! the high-level session on generated data: every case must match exactly
//! when the paper says it does, and every rewrite must be result-preserving.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sumtab::datagen::workloads::FIGURES;
use sumtab::datagen::{generate, GenConfig};
use sumtab::{rows_approx_eq, sort_rows, RegisteredAst, Rewriter};

fn fixture() -> (sumtab::Catalog, sumtab::Database) {
    generate(&GenConfig {
        transactions: 3_000,
        accounts: 12,
        customers: 8,
        locations: 8,
        pgroups: 4,
        years: 4,
        ..GenConfig::default()
    })
}

#[test]
fn every_figure_behaves_as_the_paper_says() {
    let (cat, mut db) = fixture();
    for case in FIGURES {
        let ast_name = format!("ast_{}", case.id.to_lowercase().replace('.', "_"));
        let ast = RegisteredAst::from_sql(&ast_name, case.ast, &cat)
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        let q = sumtab::build_query(&sumtab::parser::parse_query(case.query).unwrap(), &cat)
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        let rewriter = Rewriter::new(&cat);
        let rw = rewriter
            .rewrite(&q, &ast)
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        assert_eq!(
            rw.is_some(),
            case.matches,
            "{} ({}) match expectation violated",
            case.id,
            case.title
        );
        if let Some(rw) = rw {
            // Materialize under the per-case name, then compare results.
            let mut cat2 = cat.clone();
            let backing =
                sumtab::engine::materialize(&ast_name, &ast.graph, &cat, &mut db).unwrap();
            cat2.add_summary_table(
                sumtab::catalog::SummaryTableDef {
                    name: ast_name.clone(),
                    query_sql: case.ast.to_string(),
                },
                backing,
            )
            .unwrap();
            let original = sumtab::engine::execute(&q, &db).unwrap();
            let rewritten = sumtab::engine::execute(&rw.graph, &db).unwrap();
            assert!(
                !original.is_empty(),
                "{}: vacuous fixture (original result empty)",
                case.id
            );
            let (original, rewritten) = (sort_rows(original), sort_rows(rewritten));
            assert!(
                rows_approx_eq(&original, &rewritten),
                "{} ({}) results differ:\n  {:?}\nvs\n  {:?}",
                case.id,
                case.title,
                original.first(),
                rewritten.first()
            );
            db.drop_table(&ast_name);
        }
    }
}

#[test]
fn figure_12_cube_semantics_reproduced_exactly() {
    // Figure 12 of the paper: the precise result of a grouping-sets query
    // over the sample table, NULL-padding included.
    use sumtab::Value;
    let mut s = sumtab::SummarySession::new();
    s.run_script(
        "create table strans (flid int not null, year int not null, faid int not null);
         insert into strans values
            (1, 1990, 100), (1, 1991, 100), (1, 1991, 200), (1, 1991, 300),
            (1, 1992, 100), (1, 1992, 400), (2, 1991, 400), (2, 1991, 400);",
    )
    .unwrap();
    let res = s
        .query(
            "select flid, year, faid, count(*) as cnt from strans \
             group by grouping sets ((flid, year), (faid))",
        )
        .unwrap();
    let n = Value::Null;
    let expect = vec![
        // (flid, year) cuboid
        vec![Value::Int(1), Value::Int(1990), n.clone(), Value::Int(1)],
        vec![Value::Int(1), Value::Int(1991), n.clone(), Value::Int(3)],
        vec![Value::Int(1), Value::Int(1992), n.clone(), Value::Int(2)],
        vec![Value::Int(2), Value::Int(1991), n.clone(), Value::Int(2)],
        // (faid) cuboid
        vec![n.clone(), n.clone(), Value::Int(100), Value::Int(3)],
        vec![n.clone(), n.clone(), Value::Int(200), Value::Int(1)],
        vec![n.clone(), n.clone(), Value::Int(300), Value::Int(1)],
        vec![n.clone(), n.clone(), Value::Int(400), Value::Int(3)],
    ];
    assert_eq!(sort_rows(res.rows), sort_rows(expect));
}

#[test]
fn stacked_summaries_via_iterative_routing() {
    // Section 7: "a query may be rerouted towards multiple ASTs by an
    // iterative process". Two independent subqueries, each served by a
    // different AST.
    let (cat, db) = fixture();
    let mut s = sumtab::SummarySession::with_data(cat, db);
    s.run_script(
        "create summary table by_loc_year as (
             select flid, year(date) as year, count(*) as cnt
             from trans group by flid, year(date));",
    )
    .unwrap();
    let sql = "select flid, count(*) as cnt from trans group by flid";
    let with = s.query(sql).unwrap();
    assert_eq!(with.used_ast.as_deref(), Some("by_loc_year"));
    let without = s.query_no_rewrite(sql).unwrap();
    assert_eq!(sort_rows(with.rows), sort_rows(without.rows));
}
