//! A TPC-D-flavored workload — the benchmark the paper actually reports on
//! ("Experience with the TPC-D benchmark ... has shown that ASTs can often
//! improve the response time of decision-support queries by orders of
//! magnitude"). A lineitem/orders/part/customer star schema, built and
//! loaded through plain SQL, with two warehouse ASTs answering
//! TPC-D-style pricing-summary and volume queries.

// Tests and examples assert on fixed inputs; unwrap/expect failures are
// test failures, which is exactly what we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sumtab::{rows_approx_eq, sort_rows, SummarySession};

fn setup() -> SummarySession {
    let mut s = SummarySession::new();
    s.run_script(
        "create table part (partkey int not null, brand varchar not null,
                            ptype varchar not null, primary key (partkey));
         create table customer (custkey int not null, segment varchar not null,
                                nation varchar not null, primary key (custkey));
         create table orders (orderkey int not null, ocustkey int not null,
                              odate date not null, primary key (orderkey));
         create table lineitem (lorderkey int not null, lpartkey int not null,
                                quantity int not null, extendedprice double not null,
                                discount double not null, returnflag varchar not null);
         alter table lineitem add foreign key (lpartkey) references part;
         alter table lineitem add foreign key (lorderkey) references orders;
         alter table orders add foreign key (ocustkey) references customer;",
    )
    .unwrap();

    // Deterministic mini-SF data.
    let mut script = String::new();
    for p in 0..20 {
        script.push_str(&format!(
            "insert into part values ({p}, 'Brand#{}', '{}');",
            p % 5,
            ["ECONOMY", "STANDARD", "PROMO"][p % 3]
        ));
    }
    for c in 0..10 {
        script.push_str(&format!(
            "insert into customer values ({c}, '{}', '{}');",
            ["BUILDING", "AUTOMOBILE", "MACHINERY"][c % 3],
            ["FRANCE", "GERMANY", "US"][c % 3]
        ));
    }
    let mut x: u64 = 7;
    let mut rnd = |m: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    for o in 0..120 {
        script.push_str(&format!(
            "insert into orders values ({o}, {}, date '199{}-{:02}-15');",
            rnd(10),
            2 + rnd(4),
            1 + rnd(12)
        ));
    }
    s.run_script(&script).unwrap();
    let mut script = String::new();
    for l in 0..1500 {
        let _ = l;
        script.push_str(&format!(
            "insert into lineitem values ({}, {}, {}, {}.0, 0.0{}, '{}');",
            rnd(120),
            rnd(20),
            1 + rnd(50),
            900 + rnd(100_000),
            rnd(9),
            ["N", "R", "A"][rnd(3) as usize]
        ));
    }
    s.run_script(&script).unwrap();

    // Warehouse ASTs.
    s.run_script(
        "create summary table pricing_summary as (
             select returnflag, lpartkey, count(*) as cnt,
                    sum(quantity) as sum_qty,
                    sum(extendedprice) as sum_base,
                    sum(extendedprice * (1 - discount)) as sum_disc
             from lineitem group by returnflag, lpartkey);
         create summary table volume_by_order as (
             select lorderkey, count(*) as cnt, sum(extendedprice) as revenue
             from lineitem group by lorderkey);",
    )
    .unwrap();
    s
}

/// Run with rewriting, verify routing and result equality vs base tables.
fn check_routed(s: &mut SummarySession, sql: &str, expect_ast: &str) {
    let fast = s.query(sql).unwrap();
    assert_eq!(
        fast.used_ast.as_deref(),
        Some(expect_ast),
        "routing for: {sql}\nplan: {}",
        s.explain(sql).unwrap()
    );
    let plain = s.query_no_rewrite(sql).unwrap();
    let (a, b) = (sort_rows(fast.rows), sort_rows(plain.rows));
    assert!(rows_approx_eq(&a, &b), "results differ for {sql}");
}

#[test]
fn q1_style_pricing_summary() {
    let mut s = setup();
    check_routed(
        &mut s,
        "select returnflag, sum(quantity) as sum_qty, \
                sum(extendedprice) as sum_base, \
                sum(extendedprice * (1 - discount)) as sum_disc, \
                count(*) as count_order \
         from lineitem group by returnflag",
        "pricing_summary",
    );
}

#[test]
fn q1_style_with_having() {
    let mut s = setup();
    check_routed(
        &mut s,
        "select returnflag, count(*) as c from lineitem \
         group by returnflag having count(*) > 100",
        "pricing_summary",
    );
}

#[test]
fn brand_rollup_via_rejoin() {
    let mut s = setup();
    check_routed(
        &mut s,
        "select brand, sum(quantity) as q from lineitem, part \
         where lpartkey = partkey group by brand",
        "pricing_summary",
    );
}

#[test]
fn promo_type_filter_via_rejoin_predicate() {
    let mut s = setup();
    check_routed(
        &mut s,
        "select ptype, count(*) as c from lineitem, part \
         where lpartkey = partkey and ptype = 'PROMO' group by ptype",
        "pricing_summary",
    );
}

#[test]
fn order_volume_histogram_multi_block() {
    // Histogram of per-order line counts — the Figure 10 pattern on the
    // TPC-D schema, answered from volume_by_order.
    let mut s = setup();
    check_routed(
        &mut s,
        "select cnt, count(*) as orders_with from \
         (select lorderkey, count(*) as cnt from lineitem group by lorderkey) as v \
         group by cnt",
        "volume_by_order",
    );
}

#[test]
fn revenue_per_customer_nation_via_double_rejoin() {
    // volume_by_order + rejoin orders + rejoin customer, regrouped.
    let mut s = setup();
    check_routed(
        &mut s,
        "select nation, sum(extendedprice) as rev \
         from lineitem, orders, customer \
         where lorderkey = orderkey and ocustkey = custkey \
         group by nation",
        "volume_by_order",
    );
}

#[test]
fn detail_queries_fall_back_to_base_tables() {
    let mut s = setup();
    // Needs the discount column at line granularity — no AST can serve it.
    let r = s
        .query("select lorderkey, discount from lineitem where discount > 0.05")
        .unwrap();
    assert_eq!(r.used_ast, None);
    assert!(!r.rows.is_empty());
    // AVG over a column no AST pre-aggregates as needed.
    let r = s
        .query("select returnflag, min(discount) as m from lineitem group by returnflag")
        .unwrap();
    assert_eq!(r.used_ast, None);
}

#[test]
fn summary_sizes_actually_summarize() {
    let s = setup();
    let fact = s.session.db.row_count("lineitem");
    let ps = s.session.db.row_count("pricing_summary");
    let vo = s.session.db.row_count("volume_by_order");
    assert!(
        fact >= 10 * ps / 2,
        "pricing_summary summarizes: {fact} vs {ps}"
    );
    assert!(vo < fact, "volume_by_order summarizes: {fact} vs {vo}");
}
