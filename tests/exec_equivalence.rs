//! Differential property test for the morsel-parallel columnar executor:
//! for every query in the paper workload (plus NULL-join and DISTINCT
//! edge cases), `execute_with` at every pool/morsel configuration must
//! return **byte-identical** results to `execute_serial` — same rows, same
//! order. This is the determinism contract that lets the parallel path be
//! the default executor.

// Tests assert on fixed inputs; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sumtab::catalog::Date;
use sumtab::datagen::workloads::FIGURES;
use sumtab::datagen::{generate, GenConfig};
use sumtab::engine::{execute_serial, execute_with, Database, ExecOptions};
use sumtab::{build_query, Catalog, Value};

const POOLS: [usize; 4] = [1, 2, 4, 8];
const MORSELS: [usize; 3] = [1, 7, 4096];

/// The datagen star schema plus two bespoke nullable tables: `nl`/`nr`
/// carry NULL join keys and duplicated doubles so DISTINCT aggregation and
/// NULL-key join behaviour are exercised.
fn fixture() -> (Catalog, Database) {
    let cfg = GenConfig {
        transactions: 2000,
        ..GenConfig::scale(2000)
    };
    let (mut catalog, mut db) = generate(&cfg);

    use sumtab::catalog::{Column, SqlType, Table};
    catalog
        .add_table(Table::new(
            "nl",
            vec![
                Column::nullable("k", SqlType::Int),
                Column::nullable("v", SqlType::Double),
            ],
        ))
        .unwrap();
    catalog
        .add_table(Table::new("nr", vec![Column::nullable("k", SqlType::Int)]))
        .unwrap();
    // Deterministic pseudo-random rows: every third key NULL, doubles drawn
    // from a small set so DISTINCT collapses duplicates.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let nl: Vec<Vec<Value>> = (0..300)
        .map(|_| {
            let k = next() % 9;
            let v = next() % 7;
            vec![
                if k % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int(k as i64)
                },
                if v == 6 {
                    Value::Null
                } else {
                    Value::Double(v as f64 * 1.25 - 2.0)
                },
            ]
        })
        .collect();
    let nr: Vec<Vec<Value>> = (0..40)
        .map(|_| {
            let k = next() % 9;
            vec![if k % 3 == 0 {
                Value::Null
            } else {
                Value::Int(k as i64)
            }]
        })
        .collect();
    db.insert(&catalog, "nl", nl).unwrap();
    db.insert(&catalog, "nr", nr).unwrap();

    // Adversarial join/aggregate shapes for the partitioned executor:
    // `hot` skews 90% of its join keys onto one value and carries a
    // high-cardinality `uniq` column (every row its own group); `hotdim`
    // and `dim2` are small build sides for multi-level fused joins;
    // `emptyt` is an always-empty build side; `nullj` is NULL-dense (80%
    // NULL join keys). Sizes sit above the executor's serial-fallback
    // floor so the partitioned paths actually run.
    catalog
        .add_table(Table::new(
            "hot",
            vec![
                Column::new("k", SqlType::Int),
                Column::new("j", SqlType::Int),
                Column::new("uniq", SqlType::Int),
                Column::new("v", SqlType::Double),
            ],
        ))
        .unwrap();
    catalog
        .add_table(Table::new(
            "hotdim",
            vec![
                Column::new("k", SqlType::Int),
                Column::new("name", SqlType::Varchar),
            ],
        ))
        .unwrap();
    catalog
        .add_table(Table::new(
            "dim2",
            vec![
                Column::new("j", SqlType::Int),
                Column::new("w", SqlType::Int),
            ],
        ))
        .unwrap();
    catalog
        .add_table(Table::new(
            "emptyt",
            vec![
                Column::new("k", SqlType::Int),
                Column::new("v", SqlType::Int),
            ],
        ))
        .unwrap();
    catalog
        .add_table(Table::new(
            "nullj",
            vec![
                Column::nullable("k", SqlType::Int),
                Column::new("v", SqlType::Int),
            ],
        ))
        .unwrap();
    let hot: Vec<Vec<Value>> = (0..4000)
        .map(|i: i64| {
            let k = if i % 10 < 9 { 7 } else { i % 97 };
            vec![
                Value::Int(k),
                Value::Int(i % 11),
                Value::Int(i),
                Value::Double((i % 13) as f64 * 0.5),
            ]
        })
        .collect();
    let hotdim: Vec<Vec<Value>> = (0..50)
        .map(|k: i64| vec![Value::Int(k), Value::Str(format!("n{}", k % 5))])
        .collect();
    let dim2: Vec<Vec<Value>> = (0..11)
        .map(|j: i64| vec![Value::Int(j), Value::Int(j * 10)])
        .collect();
    let nullj: Vec<Vec<Value>> = (0..3000)
        .map(|i: i64| {
            vec![
                if i % 5 < 4 {
                    Value::Null
                } else {
                    Value::Int(i % 40)
                },
                Value::Int(i),
            ]
        })
        .collect();
    db.insert(&catalog, "hot", hot).unwrap();
    db.insert(&catalog, "hotdim", hotdim).unwrap();
    db.insert(&catalog, "dim2", dim2).unwrap();
    db.insert(&catalog, "emptyt", Vec::new()).unwrap();
    db.insert(&catalog, "nullj", nullj).unwrap();

    // `keyed` holds one grouping column per key storage the executor
    // reads: a nullable DATE (stored as `Mixed`, since a date column has
    // no NULL placeholder), a DOUBLE cycling through -0.0, 0.0, NaN and
    // NULL, and a VARCHAR (dictionary codes, some NULL). `j` joins `dim2`.
    catalog
        .add_table(Table::new(
            "keyed",
            vec![
                Column::nullable("d", SqlType::Date),
                Column::nullable("x", SqlType::Double),
                Column::nullable("s", SqlType::Varchar),
                Column::new("j", SqlType::Int),
                Column::new("v", SqlType::Int),
            ],
        ))
        .unwrap();
    let doubles = [-0.0, 0.0, f64::NAN, 1.5, -2.25];
    let keyed: Vec<Vec<Value>> = (0..2400)
        .map(|i: i64| {
            let r = next();
            let d = match r % 9 {
                0 => Value::Null,
                k => Value::Date(
                    Date::new(1990 + (k % 3) as i32, 1 + ((r >> 24) % 12) as u8, 1).unwrap(),
                ),
            };
            let x = match (r >> 8) % 6 {
                5 => Value::Null,
                k => Value::Double(doubles[k as usize]),
            };
            let s = match (r >> 16) % 7 {
                0 => Value::Null,
                k => Value::Str(format!("s{k}")),
            };
            vec![d, x, s, Value::Int(i % 11), Value::Int(i)]
        })
        .collect();
    db.insert(&catalog, "keyed", keyed).unwrap();

    // `wide` carries a VARCHAR with one value per row (every ninth NULL),
    // so a derived table grouped by it is a build side with one key per row.
    catalog
        .add_table(Table::new(
            "wide",
            vec![
                Column::new("id", SqlType::Int),
                Column::nullable("s", SqlType::Varchar),
            ],
        ))
        .unwrap();
    let wide: Vec<Vec<Value>> = (0..3000)
        .map(|i: i64| {
            let s = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Str(format!("w{i}"))
            };
            vec![Value::Int(i), s]
        })
        .collect();
    db.insert(&catalog, "wide", wide).unwrap();
    (catalog, db)
}

fn assert_equivalent(sql: &str, catalog: &Catalog, db: &Database) {
    assert_equivalent_at(sql, catalog, db, &POOLS, &MORSELS);
}

fn assert_equivalent_at(
    sql: &str,
    catalog: &Catalog,
    db: &Database,
    pools: &[usize],
    morsels: &[usize],
) {
    let q = sumtab::parser::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    let g = build_query(&q, catalog).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    let serial = execute_serial(&g, db).unwrap_or_else(|e| panic!("{sql}: {e}"));
    for &pool in pools {
        for &morsel in morsels {
            let opts = ExecOptions {
                pool_size: pool,
                morsel_size: morsel,
            };
            let par = execute_with(&g, db, &opts).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(
                par, serial,
                "parallel result diverged from serial for `{sql}` \
                 (pool {pool}, morsel {morsel})"
            );
        }
    }
}

/// NULL join keys and DISTINCT aggregates over the nullable tables.
const NULL_AND_DISTINCT_QUERIES: &[&str] = &[
    // NULL keys on both sides of a hash join.
    "select nl.k, nl.v from nl, nr where nl.k = nr.k",
    // NULL keys grouped (NULLs form their own group).
    "select k, count(*) as c, sum(v) as sv from nl group by k",
    // DISTINCT aggregates over doubles: iteration order of the distinct
    // set must not leak into the float fold.
    "select count(distinct v) as n, sum(distinct v) as s from nl",
    "select k, sum(distinct v) as s, min(v) as lo, max(v) as hi from nl group by k",
    // Join + aggregate + DISTINCT combined.
    "select nl.k, count(distinct nl.v) as n from nl, nr where nl.k = nr.k group by nl.k",
    // Grouping sets over nullable data: NULL padding vs NULL keys.
    "select k, count(*) as c from nl group by grouping sets ((k), ())",
    // Top-k selection with duplicate sort keys (ties broken by input
    // order in both paths).
    "select k, v from nl order by v desc limit 17",
    "select k, v from nl order by k, v limit 1",
    // Scalar subquery + filter.
    "select k, v, (select count(*) from nr) as t from nl where v > 0",
    // Cross product whose only link is a non-equi residual (NULLs on both
    // sides make the verdict three-valued).
    "select nl.k, nl.v, nr.k from nl, nr where nl.v < nr.k",
];

/// Star-schema joins and multi-way aggregation.
const STAR_JOIN_QUERIES: &[&str] = &[
    "select tid, qty * price * (1 - disc) as amt from trans where qty >= 2",
    "select country, sum(qty * price) as rev from trans, loc \
     where flid = lid group by country",
    "select pgname, year(date) as y, count(*) as cnt, sum(qty) as q \
     from trans, pgroup where fpgid = pgid group by pgname, year(date)",
    "select country, pgname, sum(qty) as q from trans, loc, pgroup \
     where flid = lid and fpgid = pgid group by country, pgname",
];

/// Skewed, high-cardinality, empty and NULL-dense join/aggregate shapes.
const ADVERSARIAL_QUERIES: &[&str] = &[
    // Heavily skewed join: the hot key's match list lands in one
    // partition, and its per-key order must still be build scan order.
    "select hot.uniq, hotdim.name from hot, hotdim where hot.k = hotdim.k",
    "select hotdim.name, sum(hot.v) as s, count(*) as c \
     from hot, hotdim where hot.k = hotdim.k group by hotdim.name",
    // Three-way fused join + group-by over both dimensions.
    "select hotdim.name, dim2.w, sum(hot.v) as s from hot, hotdim, dim2 \
     where hot.k = hotdim.k and hot.j = dim2.j group by hotdim.name, dim2.w",
    // High-cardinality group keys: every row is its own group.
    "select uniq, sum(v) as s, min(v) as lo from hot group by uniq",
    "select uniq, k, count(*) as c from hot group by uniq, k",
    // Empty build side (both join orders) and a grand total over an
    // empty join result.
    "select hot.uniq, emptyt.v from hot, emptyt where hot.k = emptyt.k",
    "select emptyt.v, hot.uniq from emptyt, hot where emptyt.k = hot.k",
    "select count(*) as c, sum(hot.v) as s from hot, emptyt where hot.k = emptyt.k",
    // NULL-dense join columns: 80% of probe-side keys are NULL.
    "select nullj.v, hotdim.name from nullj, hotdim where nullj.k = hotdim.k",
    "select nullj.k, min(nullj.v) as lo, max(nullj.v) as hi \
     from nullj, hotdim where nullj.k = hotdim.k group by nullj.k",
    // NULL keys on the build side too (nl has every-third-key NULL).
    "select hot.uniq from hot, nl where hot.k = nl.k and hot.uniq < 50",
    // Join levels with no equi-join conjunct: a pure cross product, then a
    // three-quantifier box whose second pick (dim2) has no link to the
    // driver and whose third (hotdim) hashes against the second.
    "select hot.uniq, dim2.w from hot, dim2",
    "select hot.uniq, dim2.w, hotdim.name from hot, dim2, hotdim \
     where dim2.j = hotdim.k and hot.uniq < 700",
    // A derived table as the driver, and as the build side.
    "select v.k, v.c, hotdim.name from \
     (select k, count(*) as c from hot group by k) as v, hotdim where v.k = hotdim.k",
    "select hot.uniq, v.c from hot, \
     (select k, count(*) as c from hot group by k) as v where hot.k = v.k",
    // A constant-false WHERE over a join.
    "select hot.uniq, hotdim.name from hot, hotdim where hot.k = hotdim.k and 1 = 2",
    // An empty driver against a non-empty cross level, and the reverse.
    "select emptyt.v, dim2.w from emptyt, dim2",
    "select dim2.w, emptyt.v from dim2, emptyt",
    // Wide derived build sides, one key per build row: keyed by an
    // integer, by a VARCHAR expression and by a DOUBLE expression.
    "select trans.tid, v.n from trans, \
     (select tid as k, count(*) as n from trans group by tid) as v where trans.tid = v.k",
    "select wide.id, v.n from wide, \
     (select upper(s) as u, count(*) as n from wide group by upper(s)) as v \
     where upper(wide.s) = v.u",
    "select trans.tid, v.n from trans, \
     (select tid * 0.5 as k, count(*) as n from trans group by tid * 0.5) as v \
     where trans.tid * 0.5 = v.k",
    // A derived table entered with no equi-join conjunct: a filtered cross
    // product, and a level linked only by a non-equi residual.
    "select dim2.w, v.k from dim2, \
     (select tid as k, count(*) as n from trans group by tid) as v where v.k < 600",
    "select hot.uniq, v.j from hot, (select j, count(*) as c from hot group by j) as v \
     where hot.uniq < 40 and hot.j < v.j",
];

/// Grouping keys in every storage the executor reads — a `Mixed` nullable
/// DATE, a DOUBLE holding -0.0, 0.0, NaN and NULL, a VARCHAR — each grouped
/// three ways: as a bare column of a scan, through an expression or a join
/// (materialized rows), and in grouping sets with the grand total.
const KEY_STORAGE_QUERIES: &[&str] = &[
    // Bare columns: aggregated over the scan.
    "select d, count(*) as c, sum(v * 0.1) as sf, sum(x) as sx from keyed group by d",
    "select x, count(*) as c, min(d) as lo, max(s) as hi from keyed group by x",
    "select s, count(x) as c, sum(x) as sx, max(d) as hi from keyed group by s",
    "select d, x, s, count(*) as c from keyed where v > 100 group by d, x, s",
    // Expressions and joins: aggregated over materialized rows.
    "select year(d) as y, month(d) as m, count(*) as c, sum(x) as sx \
     from keyed group by year(d), month(d)",
    "select x * 2 as x2, count(*) as c, sum(v * 0.1) as sf from keyed group by x * 2",
    "select upper(s) as u, count(*) as c, min(x) as lo from keyed group by upper(s)",
    "select keyed.d, dim2.w, count(*) as c, sum(keyed.x) as sx \
     from keyed, dim2 where keyed.j = dim2.j group by keyed.d, dim2.w",
    "select keyed.x, count(*) as c from keyed, dim2 \
     where keyed.j = dim2.j and dim2.w > 30 group by keyed.x",
    "select keyed.s, sum(dim2.w) as sw from keyed, dim2 \
     where keyed.j = dim2.j group by keyed.s",
    // Grouping sets with the grand total, over the scan and over rows.
    "select d, count(*) as c, sum(x) as sx from keyed group by grouping sets ((d), ())",
    "select x, count(*) as c, sum(v) as sv from keyed group by grouping sets ((x), ())",
    "select s, count(*) as c, min(d) as lo from keyed group by grouping sets ((s), ())",
    "select d, x, s, count(*) as c from keyed \
     group by grouping sets ((d, x), (s), (x), ())",
    "select year(d) as y, x * 2 as x2, count(*) as c from keyed \
     group by grouping sets ((year(d)), (x * 2), ())",
];

/// ORDER BY … LIMIT and bare LIMIT at the root: each morsel keeps only the
/// rows that can still reach the limit, so these run at small morsels
/// (where a morsel's bound actually drops rows) as well as the default.
const TOP_K_QUERIES: &[&str] = &[
    // Heavy ties: `hot.k` is 7 on 90% of the rows, `j` cycles through 11
    // values, so equal keys straddle every morsel boundary and only
    // emission order breaks them.
    "select uniq, k from hot order by k limit 2",
    "select uniq, k from hot order by k desc limit 5",
    "select uniq, j, v from hot order by j, v desc limit 40",
    "select j, uniq from hot where k = 7 order by j desc limit 1",
    // NULLs in a sort key (NULL sorts first ascending, last descending).
    "select k, v from nl order by v limit 5",
    "select k, v from nl order by k desc, v limit 9",
    "select k, v from nl where v is null or k is null order by k limit 3",
    // Expression sort keys: read through the output program, not a column.
    "select uniq, v * 2 - j as e from hot order by e desc limit 6",
    "select tid, qty * price as amt from trans where qty >= 2 order by amt, tid limit 4",
    // Join roots: the heap sits behind the fused walk.
    "select hot.uniq, hotdim.name from hot, hotdim where hot.k = hotdim.k \
     order by hotdim.name desc, hot.uniq limit 2",
    "select tid, pgname, price from trans, pgroup where fpgid = pgid \
     order by price desc, tid limit 5",
    "select hot.uniq, dim2.w from hot, dim2 order by dim2.w, hot.uniq limit 3",
    // A root SELECT over a GROUP BY (with and without HAVING).
    "select k, count(*) as c from hot group by k order by c desc, k limit 2",
    "select j, sum(v) as s from hot group by j having count(*) > 3 order by s limit 3",
    // LIMIT 0, LIMIT = n (nl has 300 rows), LIMIT > n.
    "select k, v from nl order by v limit 0",
    "select k, v from nl limit 0",
    "select k, v from nl order by v desc limit 300",
    "select k, v from nl order by k limit 100000",
    // LIMIT without ORDER BY keeps the first rows in scan order.
    "select uniq, k from hot where j > 3 limit 2",
    "select uniq from hot limit 4001",
    "select hot.uniq, dim2.w from hot, dim2 where hot.uniq < 30 limit 6",
    "select k, count(*) as c from hot group by k limit 3",
];

/// Every figure query of the paper workload, at every configuration.
#[test]
fn paper_workload_queries_match_serial() {
    let (catalog, db) = fixture();
    for case in FIGURES {
        assert_equivalent(case.query, &catalog, &db);
    }
}

/// Every figure AST definition (the queries that get materialized) too.
#[test]
fn paper_workload_ast_definitions_match_serial() {
    let (catalog, db) = fixture();
    for case in FIGURES {
        assert_equivalent(case.ast, &catalog, &db);
    }
}

/// NULL join keys must never match, identically in both executors, and
/// DISTINCT aggregates must fold in the same deterministic order.
#[test]
fn null_keys_and_distinct_aggregates_match_serial() {
    let (catalog, db) = fixture();
    for sql in NULL_AND_DISTINCT_QUERIES {
        assert_equivalent(sql, &catalog, &db);
    }
}

/// Larger star-schema joins and multi-way aggregation at scale, where
/// morsel boundaries actually split the work.
#[test]
fn star_schema_joins_match_serial() {
    let (catalog, db) = fixture();
    for sql in STAR_JOIN_QUERIES {
        assert_equivalent(sql, &catalog, &db);
    }
}

/// Adversarial shapes for the partitioned join build and the fused
/// scan→aggregate path: one hot join key owning 90% of the probe rows,
/// high-cardinality grouping (every row its own group), empty build sides,
/// NULL-dense join columns, and derived build sides with one key per row.
#[test]
fn adversarial_join_and_aggregate_shapes_match_serial() {
    let (catalog, db) = fixture();
    for sql in ADVERSARIAL_QUERIES {
        assert_equivalent(sql, &catalog, &db);
    }
}

/// Group keys read from every column storage — `Mixed`, typed doubles with
/// signed zeros and NaN, dictionary strings, NULLs in each — fold to the
/// serial result whether the input is a scan or materialized rows.
#[test]
fn key_storages_group_identically_to_serial() {
    let (catalog, db) = fixture();
    for sql in KEY_STORAGE_QUERIES {
        assert_equivalent(sql, &catalog, &db);
    }
}

/// Top-k inside the morsel scan is byte-identical to the serial stable
/// sort + truncate at every pool and morsel size.
#[test]
fn top_k_and_limit_match_serial() {
    let (catalog, db) = fixture();
    for sql in TOP_K_QUERIES {
        assert_equivalent_at(sql, &catalog, &db, &[1, 2, 4], &[1, 3, 7, 4096]);
    }
}

/// After DML the columnar executor reads views that were *maintained in
/// place* (never rebuilt), while the serial executor reads the row store:
/// the two must still agree on the whole query pool, which they only can if
/// every view stayed row-for-row in step with its rows.
#[test]
fn executors_agree_after_mixed_dml_script() {
    let (catalog, db) = fixture();
    let mut s = sumtab::SummarySession::with_data(catalog, db);
    // Build every view up front, so each statement below maintains one.
    let tables = ["trans", "nl", "hot", "hotdim"];
    let built: Vec<_> = tables
        .iter()
        .map(|t| std::sync::Arc::as_ptr(&s.session.db.columnar(t)))
        .collect();
    let mut statements = 0;
    for i in 0..12i64 {
        let script = format!(
            "insert into trans values
               ({new_tid}, 1, 1, 1, date '1996-0{m}-1{d}', {i}, 9.5, 0.1),
               ({new_tid2}, 2, 2, 2, date '1997-0{m}-2{d}', 1, 0.25, 0.0);
             delete from trans where tid = {gone};
             update trans set qty = qty + 1, disc = 0.5 where tid = {bumped};
             insert into nl values (null, {i}.25), ({k}, null);
             update nl set v = null where k = {k} and v > 0;
             delete from nl where k = {k2} and v < 0;
             update hotdim set name = 'renamed{i}' where k = {i};
             delete from hot where uniq = {hot_gone};
             update hot set k = 7, v = v + 1 where uniq = {hot_bumped};",
            new_tid = 1_000_000 + i,
            new_tid2 = 2_000_000 + i,
            m = 1 + i % 9,
            d = i % 9,
            gone = 3 + i * 17,
            bumped = 4 + i * 17,
            k = 1 + i % 8,
            k2 = 8 - i % 8,
            hot_gone = i * 301,
            hot_bumped = i * 301 + 1,
        );
        statements += script.matches(';').count();
        s.run_script(&script)
            .unwrap_or_else(|e| panic!("{e}: {script}"));
    }
    assert!(statements >= 50, "{statements} statements");
    let db = &s.session.db;
    // Every point DELETE hit its row.
    assert_eq!(db.row_count("trans"), 2000 + 24 - 12);
    assert_eq!(db.row_count("hot"), 4000 - 12);
    for (t, before) in tables.iter().zip(built) {
        let now = std::sync::Arc::as_ptr(&db.columnar(t));
        assert_eq!(now, before, "the view of `{t}` was rebuilt, not maintained");
    }
    let catalog = &s.session.catalog;
    for case in FIGURES {
        assert_equivalent(case.query, catalog, db);
        assert_equivalent(case.ast, catalog, db);
    }
    for sql in [
        NULL_AND_DISTINCT_QUERIES,
        STAR_JOIN_QUERIES,
        ADVERSARIAL_QUERIES,
    ]
    .concat()
    {
        assert_equivalent(sql, catalog, db);
    }
}
