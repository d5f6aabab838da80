//! Randomized soundness: for generated (query, AST) pairs over the
//! credit-card schema, whenever the matcher produces a rewrite, the
//! rewritten query returns the original's multiset of rows on generated
//! data (doubles equal within `rows_approx_eq`'s relative tolerance).
//!
//! This is the repository's strongest correctness guarantee: the matcher is
//! free to refuse (it implements sufficient conditions only), but it must
//! never rewrite wrongly. Most pairs derive the query from the AST, along
//! Cohen & Nutt's conditions for answering an aggregate query from an
//! aggregate view: the query coarsens the AST's grouping, filters only on
//! columns the AST exposes (tightening, keeping, loosening, flipping or
//! dropping the AST's own range predicates), and asks for aggregates that
//! the derivation rules (a)–(g) rebuild — so most pairs rewrite, and the
//! rest probe the refusals next to them. A minority of queries are drawn
//! independently of their AST. Cases are drawn with the in-tree
//! deterministic PRNG, so every run explores the same pairs and failures
//! reproduce by seed alone.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sumtab::datagen::{generate, GenConfig, SplitMix64};
use sumtab::{rows_approx_eq, sort_rows, RegisteredAst, Rewriter};

/// Columns of `trans` the generator groups and filters on: (expression,
/// the literal domain a predicate on it draws from). The first
/// [`GROUPINGS`] are grouping expressions; `price` only filters.
const COLS: &[(&str, i64, i64)] = &[
    ("faid", 0, 7),
    ("flid", 0, 5),
    ("fpgid", 0, 2),
    ("year(date)", 1990, 1992),
    ("month(date)", 1, 12),
    ("qty", 1, 8),
    ("year(date) % 100", 90, 92),
    ("price", 50, 450),
];

/// `COLS[..GROUPINGS]` are the grouping expressions.
const GROUPINGS: usize = 7;
const YEAR: usize = 3;
const QTY: usize = 5;
const YEAR_MOD: usize = 6;

/// Aggregate expressions (name, sql). An AST draws from the first
/// [`AST_AGGS`]; a derived query also asks for the rest when the AST's
/// grouping and counts rebuild them.
const AGGS: &[(&str, &str)] = &[
    ("cnt", "count(*)"),
    ("sq", "sum(qty)"),
    ("sv", "sum(qty * price)"),
    ("mn", "min(price)"),
    ("mx", "max(price)"),
    ("cq", "count(qty)"),
    ("mnq", "min(qty)"),
    ("mxq", "max(qty)"),
    ("aq", "avg(qty)"),
];
const AST_AGGS: usize = 6;

/// Comparison operators of a range predicate: the first four are ranges,
/// upward (`>`, `>=`) then downward (`<`, `<=`).
const OPS: &[&str] = &[">", ">=", "<", "<=", "="];

/// A WHERE conjunct.
#[derive(Debug, Clone, PartialEq)]
enum Pred {
    /// `COLS[col] op lit`.
    Cmp { col: usize, op: usize, lit: i64 },
    /// `country = 'USA'`, through the `loc` join.
    Usa,
}

impl Pred {
    fn sql(&self) -> String {
        match self {
            Pred::Cmp { col, op, lit } => format!("{} {} {lit}", COLS[*col].0, OPS[*op]),
            Pred::Usa => "country = 'USA'".to_string(),
        }
    }
}

#[derive(Debug, Clone)]
struct SpecQuery {
    groupings: Vec<usize>,
    aggs: Vec<usize>,
    preds: Vec<Pred>,
    having_cnt: Option<i64>,
    /// When true, group by ROLLUP(groupings) instead of plain GROUP BY —
    /// exercising the Section 5 cube patterns.
    rollup: bool,
}

impl SpecQuery {
    fn needs_loc(&self) -> bool {
        self.preds.contains(&Pred::Usa)
    }

    fn has_agg(&self, sql: &str) -> bool {
        self.aggs.iter().any(|&a| AGGS[a].1 == sql)
    }

    fn sql(&self) -> String {
        let mut select: Vec<String> = self
            .groupings
            .iter()
            .enumerate()
            .map(|(i, &g)| format!("{} as g{i}", COLS[g].0))
            .collect();
        for &a in &self.aggs {
            let (name, sql) = AGGS[a];
            select.push(format!("{sql} as {name}"));
        }
        let from = if self.needs_loc() {
            "trans, loc"
        } else {
            "trans"
        };
        let mut preds: Vec<String> = self.preds.iter().map(Pred::sql).collect();
        if self.needs_loc() {
            preds.insert(0, "flid = lid".to_string());
        }
        let mut sql = format!("select {} from {from}", select.join(", "));
        if !preds.is_empty() {
            sql.push_str(&format!(" where {}", preds.join(" and ")));
        }
        if !self.groupings.is_empty() {
            let gb: Vec<&str> = self.groupings.iter().map(|&g| COLS[g].0).collect();
            if self.rollup {
                sql.push_str(&format!(" group by rollup({})", gb.join(", ")));
            } else {
                sql.push_str(&format!(" group by {}", gb.join(", ")));
            }
        }
        if let Some(h) = self.having_cnt {
            sql.push_str(&format!(" having count(*) > {h}"));
        }
        sql
    }
}

/// A predicate on a random column: `country = 'USA'`, or a comparison
/// with one of `ops` against a literal from the column's domain.
fn random_pred(r: &mut SplitMix64, ops: usize) -> Pred {
    if r.gen_bool(0.15) {
        return Pred::Usa;
    }
    let col = r.gen_index(COLS.len());
    Pred::Cmp {
        col,
        op: r.gen_index(ops),
        lit: r.gen_i64(COLS[col].1, COLS[col].2),
    }
}

/// Draw a random spec, independent of any other.
fn random_spec(r: &mut SplitMix64, max_preds: usize) -> SpecQuery {
    let groupings = r.subsequence(GROUPINGS, 1, 3);
    let aggs = r.subsequence(AST_AGGS, 1, 3);
    let npreds = r.gen_index(max_preds + 1);
    let mut preds: Vec<Pred> = Vec::new();
    for _ in 0..npreds {
        let p = random_pred(r, OPS.len());
        if !preds.contains(&p) {
            preds.push(p);
        }
    }
    let having_cnt = r.gen_bool(0.5).then(|| r.gen_i64(1, 4));
    let rollup = r.gen_bool(0.25);
    SpecQuery {
        groupings,
        aggs,
        preds,
        having_cnt: if rollup { None } else { having_cnt },
        rollup,
    }
}

/// Draw an AST: up to four grouping columns, up to four aggregates, up to
/// two range predicates, rarely a HAVING.
fn ast_spec(r: &mut SplitMix64) -> SpecQuery {
    let groupings = r.subsequence(GROUPINGS, 1, 4);
    let aggs = r.subsequence(AST_AGGS, 1, 4);
    let mut preds: Vec<Pred> = Vec::new();
    for _ in 0..r.gen_index(3) {
        let p = random_pred(r, 4);
        if !preds.contains(&p) {
            preds.push(p);
        }
    }
    let rollup = r.gen_bool(0.25);
    let having_cnt = (!rollup && r.gen_bool(0.1)).then(|| r.gen_i64(1, 3));
    SpecQuery {
        groupings,
        aggs,
        preds,
        having_cnt,
        rollup,
    }
}

/// Can the rules (a)–(g) rebuild aggregate `AGGS[a]` from `ast`'s rows?
fn derivable(ast: &SpecQuery, a: usize) -> bool {
    let sql = AGGS[a].1;
    let qty_grouped = ast.groupings.contains(&QTY);
    ast.has_agg(sql)
        || match sql {
            "min(qty)" | "max(qty)" => qty_grouped,
            "sum(qty)" | "count(qty)" => qty_grouped && ast.has_agg("count(*)"),
            // AVG is SUM / COUNT.
            "avg(qty)" => derivable(ast, 1) && derivable(ast, 5),
            _ => false,
        }
}

/// The query's version of one of the AST's range predicates. Mostly it
/// keeps the AST's predicate, or tightens it when the AST exposes the
/// column for compensation; otherwise it loosens the literal, flips the
/// direction, or drops the predicate — pairs the matcher must refuse.
fn derive_pred(r: &mut SplitMix64, ast: &SpecQuery, p: &Pred) -> Option<Pred> {
    let Pred::Cmp { col, op, lit } = *p else {
        return r.gen_bool(0.85).then_some(Pred::Usa);
    };
    let (lo, hi) = (COLS[col].1, COLS[col].2);
    let up = op < 2;
    let step = r.gen_i64(1, 2);
    let roll = r.gen_index(20);
    let (op, lit) = if roll < 13 {
        if !ast.groupings.contains(&col) || r.gen_bool(0.3) {
            (op, lit)
        } else if r.gen_bool(0.2) {
            // `x = c` inside the AST's range.
            let c = if up { lit + step } else { lit - step };
            (4, c.clamp(lo, hi))
        } else {
            let c = if up { lit + step } else { lit - step };
            let same_dir = if up {
                r.gen_index(2)
            } else {
                2 + r.gen_index(2)
            };
            (same_dir, c.clamp(lo, hi))
        }
    } else if roll < 17 {
        if r.gen_bool(0.5) {
            (op, if up { lit - step } else { lit + step })
        } else {
            ((op + 2) % 4, lit)
        }
    } else {
        return None;
    };
    Some(Pred::Cmp { col, op, lit })
}

/// Derive a query from `ast` (see the module docs).
fn derived_spec(r: &mut SplitMix64, ast: &SpecQuery) -> SpecQuery {
    // Coarsen: a nonempty subset of the AST's grouping, sometimes the
    // grand total; `year(date)` may coarsen further to `year(date) % 100`.
    let mut groupings: Vec<usize> = r
        .subsequence(ast.groupings.len(), 1, ast.groupings.len())
        .into_iter()
        .map(|i| ast.groupings[i])
        .collect();
    if r.gen_bool(0.1) {
        groupings.clear();
    }
    if groupings.contains(&YEAR) && !groupings.contains(&YEAR_MOD) && r.gen_bool(0.3) {
        for g in &mut groupings {
            if *g == YEAR {
                *g = YEAR_MOD;
            }
        }
    }

    let candidates: Vec<usize> = (0..AGGS.len()).filter(|&a| derivable(ast, a)).collect();
    let mut aggs: Vec<usize> = r
        .subsequence(candidates.len(), 1, 3)
        .into_iter()
        .map(|i| candidates[i])
        .collect();
    if r.gen_bool(0.1) {
        let a = r.gen_index(AGGS.len());
        if !aggs.contains(&a) {
            aggs.push(a);
        }
    }

    let mut preds: Vec<Pred> = ast
        .preds
        .iter()
        .filter_map(|p| derive_pred(r, ast, p))
        .collect();
    // Extra filters on exposed columns, rarely on a hidden one.
    for _ in 0..r.gen_index(3) {
        let col = if r.gen_bool(0.9) {
            *r.choose(&ast.groupings)
        } else {
            r.gen_index(COLS.len())
        };
        let p = Pred::Cmp {
            col,
            op: r.gen_index(OPS.len()),
            lit: r.gen_i64(COLS[col].1, COLS[col].2),
        };
        if !preds.contains(&p) {
            preds.push(p);
        }
    }

    let rollup = !groupings.is_empty() && r.gen_bool(0.1);
    let having_cnt = match ast.having_cnt {
        Some(h) => Some(h),
        None => (!rollup && ast.has_agg("count(*)") && r.gen_bool(0.3)).then(|| r.gen_i64(1, 4)),
    };
    SpecQuery {
        groupings,
        aggs,
        preds,
        having_cnt,
        rollup,
    }
}

fn fixture() -> (sumtab::Catalog, sumtab::Database) {
    generate(&GenConfig {
        transactions: 800,
        accounts: 8,
        customers: 6,
        locations: 6,
        pgroups: 3,
        years: 3,
        ..GenConfig::default()
    })
}

/// Pairs drawn by [`rewrites_are_sound`].
const PAIRS: usize = 128;

/// Generated (query, AST) pairs: every rewrite the matcher produces is
/// result-preserving, and at least 30% of the pairs rewrite, so the
/// property cannot decay into checking nothing.
#[test]
fn rewrites_are_sound() {
    let (cat, db0) = fixture();
    let mut r = SplitMix64::new(0x50_0001);
    let mut rewritten = 0;
    for case in 0..PAIRS {
        let ast = ast_spec(&mut r);
        let query = if r.gen_bool(0.15) {
            random_spec(&mut r, 2)
        } else {
            derived_spec(&mut r, &ast)
        };
        let mut db = db0.clone();
        let ast_sql = ast.sql();
        let query_sql = query.sql();
        let registered = RegisteredAst::from_sql("past", &ast_sql, &cat).unwrap();
        sumtab::engine::materialize("past", &registered.graph, &cat, &mut db).unwrap();
        let q =
            sumtab::build_query(&sumtab::parser::parse_query(&query_sql).unwrap(), &cat).unwrap();
        if let Some(rw) = Rewriter::new(&cat).rewrite(&q, &registered).unwrap() {
            rewritten += 1;
            let original = sort_rows(sumtab::engine::execute(&q, &db).unwrap());
            let answered = sort_rows(sumtab::engine::execute(&rw.graph, &db).unwrap());
            assert!(
                rows_approx_eq(&original, &answered),
                "unsound rewrite (pair {case})!\n  query: {query_sql}\n  ast:   {ast_sql}\n  \
                 rewritten: {}\n  original: {original:?}\n  answered: {answered:?}",
                sumtab::render_graph_sql(&rw.graph)
            );
        }
    }
    assert!(
        rewritten * 10 >= PAIRS * 3,
        "only {rewritten} of {PAIRS} pairs rewrote"
    );
}

/// A query must always match an identical AST (reflexivity of matching).
#[test]
fn identical_definitions_always_match() {
    let (cat, _db) = fixture();
    let mut r = SplitMix64::new(0x50_0002);
    for _ in 0..64 {
        // HAVING-free specs only: a HAVING clause on the AST constrains its
        // content, and matching it requires predicate-equivalence at the top
        // box, which holds — but keep the reflexivity property unconditional
        // by clearing it. Rollup ASTs additionally need non-nullable
        // grouping columns for slicing, which the pool guarantees.
        let spec = SpecQuery {
            having_cnt: None,
            ..random_spec(&mut r, 2)
        };
        let sql = spec.sql();
        let registered = RegisteredAst::from_sql("past", &sql, &cat).unwrap();
        let q = sumtab::build_query(&sumtab::parser::parse_query(&sql).unwrap(), &cat).unwrap();
        assert!(
            Rewriter::new(&cat)
                .rewrite(&q, &registered)
                .unwrap()
                .is_some(),
            "query failed to match its own definition: {sql}"
        );
    }
}

/// Rollup-AST completeness: a plain GROUP BY over any prefix of a
/// rollup AST's columns must match (the prefix cuboid exists by
/// construction), and the slicing rewrite must be sound.
#[test]
fn rollup_prefix_cuboids_match_and_are_sound() {
    let (cat, db0) = fixture();
    let mut r = SplitMix64::new(0x50_0003);
    for _ in 0..32 {
        let pool = [0usize, 1, 3, 4];
        let picked = r.subsequence(pool.len(), 2, 3);
        let groupings: Vec<usize> = picked.iter().map(|&i| pool[i]).collect();
        let prefix = r.gen_i64(1, 2) as usize;
        let mut db = db0.clone();
        let ast_spec = SpecQuery {
            groupings: groupings.clone(),
            aggs: vec![0, 1],
            preds: vec![],
            having_cnt: None,
            rollup: true,
        };
        let query_spec = SpecQuery {
            groupings: groupings[..prefix.min(groupings.len())].to_vec(),
            aggs: vec![0],
            preds: vec![],
            having_cnt: None,
            rollup: false,
        };
        let registered = RegisteredAst::from_sql("past", &ast_spec.sql(), &cat).unwrap();
        sumtab::engine::materialize("past", &registered.graph, &cat, &mut db).unwrap();
        let q = sumtab::build_query(
            &sumtab::parser::parse_query(&query_spec.sql()).unwrap(),
            &cat,
        )
        .unwrap();
        let rw = Rewriter::new(&cat).rewrite(&q, &registered).unwrap();
        assert!(
            rw.is_some(),
            "prefix cuboid must match\n  query: {}\n  ast: {}",
            query_spec.sql(),
            ast_spec.sql()
        );
        let rw = rw.unwrap();
        let original = sumtab::engine::execute(&q, &db).unwrap();
        let rewritten = sumtab::engine::execute(&rw.graph, &db).unwrap();
        assert_eq!(sort_rows(original), sort_rows(rewritten));
    }
}

/// A coarser re-grouping of an AST's own definition must match whenever
/// the query's groupings/aggregates/predicates are drawn from the AST's.
#[test]
fn coarser_regrouping_matches() {
    let (cat, _db) = fixture();
    let mut r = SplitMix64::new(0x50_0004);
    for _ in 0..32 {
        let pool = [0usize, 1, 3, 4];
        let picked = r.subsequence(pool.len(), 2, 4);
        let groupings: Vec<usize> = picked.iter().map(|&i| pool[i]).collect();
        let query_take = r.gen_i64(1, 2) as usize;
        let ast_spec = SpecQuery {
            groupings: groupings.clone(),
            aggs: vec![0, 1],
            preds: vec![],
            having_cnt: None,
            rollup: false,
        };
        let query_spec = SpecQuery {
            groupings: groupings[..query_take.min(groupings.len())].to_vec(),
            aggs: vec![0],
            preds: vec![],
            having_cnt: None,
            rollup: false,
        };
        let registered = RegisteredAst::from_sql("past", &ast_spec.sql(), &cat).unwrap();
        let q = sumtab::build_query(
            &sumtab::parser::parse_query(&query_spec.sql()).unwrap(),
            &cat,
        )
        .unwrap();
        assert!(
            Rewriter::new(&cat)
                .rewrite(&q, &registered)
                .unwrap()
                .is_some(),
            "coarser regrouping should match\n  query: {}\n  ast: {}",
            query_spec.sql(),
            ast_spec.sql()
        );
    }
}
