//! # sumtab-datagen
//!
//! Deterministic, seeded workload generation for the paper's Section 1.1
//! credit-card star schema.
//!
//! The paper's quantitative claims rest on data-shape properties it states
//! in prose: "the average customer performs a few hundred transactions per
//! year, most of them within the same city", which makes AST1 roughly a
//! hundred times smaller than the fact table. The generator reproduces that
//! shape: each account has a home location, and a transaction happens there
//! with probability [`GenConfig::locality`]; the per-account yearly
//! transaction count follows from `transactions / (accounts * years)`.

#![forbid(unsafe_code)]

use sumtab_catalog::{Catalog, Date, Value};
use sumtab_engine::{Database, Row};

pub mod rng;
pub mod workloads;

pub use rng::SplitMix64;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of fact rows (`Trans`).
    pub transactions: usize,
    /// Number of credit-card accounts.
    pub accounts: usize,
    /// Number of customers (accounts reference customers round-robin).
    pub customers: usize,
    /// Number of locations; 1/4 are non-USA.
    pub locations: usize,
    /// Number of product groups.
    pub pgroups: usize,
    /// First year of the Time dimension.
    pub start_year: i32,
    /// Number of years covered.
    pub years: u32,
    /// Probability that a transaction happens at the account's home
    /// location (the paper: "most of them within the same city").
    pub locality: f64,
    /// RNG seed; equal configs generate equal databases.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            transactions: 100_000,
            accounts: 100,
            customers: 80,
            locations: 40,
            pgroups: 10,
            start_year: 1990,
            years: 5,
            locality: 0.9,
            seed: 0xA57_ACE,
        }
    }
}

impl GenConfig {
    /// A configuration scaled by fact-table size with the default
    /// dimension shape (dimensions grow with the square root).
    pub fn scale(transactions: usize) -> GenConfig {
        let s = (transactions as f64).sqrt() as usize;
        GenConfig {
            transactions,
            accounts: (s / 3).max(4),
            customers: (s / 4).max(3),
            locations: (s / 8).max(4),
            pgroups: (s / 16).clamp(4, 50),
            ..GenConfig::default()
        }
    }
}

/// US states and a few foreign markers used for the location dimension.
const STATES: [&str; 8] = ["CA", "NY", "TX", "WA", "IL", "MA", "FL", "CO"];
const COUNTRIES: [&str; 3] = ["France", "Germany", "Japan"];
const STATUSES: [&str; 3] = ["gold", "silver", "basic"];

/// Generate a populated database over the credit-card catalog.
pub fn generate(cfg: &GenConfig) -> (Catalog, Database) {
    let catalog = Catalog::credit_card_sample();
    let db = generate_into(cfg, &catalog);
    (catalog, db)
}

/// Generate data for an existing credit-card catalog.
// Generated rows conform to the generator's own schema; insertion failures
// are programming errors, so panicking is the right response here.
#[allow(clippy::unwrap_used, clippy::expect_used)]
fn generate_into(cfg: &GenConfig, catalog: &Catalog) -> Database {
    assert!(cfg.locations >= 2, "need at least two locations");
    assert!(cfg.accounts >= 1 && cfg.customers >= 1 && cfg.pgroups >= 1);
    assert!(cfg.years >= 1);
    let mut rng = SplitMix64::new(cfg.seed);
    let mut db = Database::new();

    // Locations: 3/4 USA, the rest spread over foreign countries.
    let mut loc_rows: Vec<Row> = Vec::with_capacity(cfg.locations);
    for lid in 0..cfg.locations {
        let usa = lid % 4 != 3;
        let (state, country) = if usa {
            (STATES[lid % STATES.len()], "USA")
        } else {
            ("--", COUNTRIES[lid % COUNTRIES.len()])
        };
        loc_rows.push(vec![
            Value::Int(lid as i64),
            Value::Str(format!("city{lid}")),
            Value::Str(state.to_string()),
            Value::Str(country.to_string()),
        ]);
    }
    db.insert(catalog, "loc", loc_rows).unwrap();

    // Product groups.
    let pg_rows: Vec<Row> = (0..cfg.pgroups)
        .map(|pgid| vec![Value::Int(pgid as i64), Value::Str(format!("pg{pgid}"))])
        .collect();
    db.insert(catalog, "pgroup", pg_rows).unwrap();

    // Customers.
    let cust_rows: Vec<Row> = (0..cfg.customers)
        .map(|cid| {
            vec![
                Value::Int(cid as i64),
                Value::Str(format!("cust{cid}")),
                Value::Int(18 + (cid as i64 * 7) % 60),
            ]
        })
        .collect();
    db.insert(catalog, "cust", cust_rows).unwrap();

    // Accounts: home location assigned here, reused by the fact generator.
    let mut home: Vec<usize> = Vec::with_capacity(cfg.accounts);
    let acct_rows: Vec<Row> = (0..cfg.accounts)
        .map(|aid| {
            home.push(rng.gen_index(cfg.locations));
            vec![
                Value::Int(aid as i64),
                Value::Int((aid % cfg.customers) as i64),
                Value::Str(STATUSES[aid % STATUSES.len()].to_string()),
            ]
        })
        .collect();
    db.insert(catalog, "acct", acct_rows).unwrap();

    // Fact rows.
    let mut trans_rows: Vec<Row> = Vec::with_capacity(cfg.transactions);
    for tid in 0..cfg.transactions {
        let aid = rng.gen_index(cfg.accounts);
        let lid = if rng.gen_bool(cfg.locality) {
            home[aid]
        } else if rng.gen_bool(0.8) {
            // Away-from-home purchases cluster in a small neighborhood of
            // the home city (the paper: "most of them within the same
            // city"), keeping the (faid, flid, year) group count low.
            (home[aid] + 1 + rng.gen_index(3)) % cfg.locations
        } else {
            rng.gen_index(cfg.locations)
        };
        let pgid = rng.gen_index(cfg.pgroups);
        let year = cfg.start_year + rng.gen_index(cfg.years as usize) as i32;
        let month = rng.gen_i64(1, 12) as u8;
        let day = rng.gen_i64(1, 28) as u8;
        let qty = rng.gen_i64(1, 8);
        let price = rng.gen_i64(100, 49_999) as f64 / 100.0;
        let disc = rng.gen_i64(0, 39) as f64 / 100.0;
        trans_rows.push(vec![
            Value::Int(tid as i64),
            Value::Int(aid as i64),
            Value::Int(lid as i64),
            Value::Int(pgid as i64),
            Value::Date(Date::new(year, month, day).expect("valid generated date")),
            Value::Int(qty),
            Value::Double(price),
            Value::Double(disc),
        ]);
    }
    db.insert(catalog, "trans", trans_rows).unwrap();
    db
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = GenConfig {
            transactions: 500,
            ..GenConfig::default()
        };
        let (_, db1) = generate(&cfg);
        let (_, db2) = generate(&cfg);
        assert_eq!(db1.rows("trans"), db2.rows("trans"));
        let other = GenConfig { seed: 7, ..cfg };
        let (_, db3) = generate(&other);
        assert_ne!(db1.rows("trans"), db3.rows("trans"));
    }

    #[test]
    fn cardinalities_match_config() {
        let cfg = GenConfig {
            transactions: 1_000,
            accounts: 20,
            customers: 10,
            locations: 8,
            pgroups: 5,
            ..GenConfig::default()
        };
        let (_, db) = generate(&cfg);
        assert_eq!(db.row_count("trans"), 1_000);
        assert_eq!(db.row_count("acct"), 20);
        assert_eq!(db.row_count("cust"), 10);
        assert_eq!(db.row_count("loc"), 8);
        assert_eq!(db.row_count("pgroup"), 5);
    }

    #[test]
    fn referential_integrity_holds() {
        let cfg = GenConfig {
            transactions: 2_000,
            ..GenConfig::default()
        };
        let (_, db) = generate(&cfg);
        let accts: std::collections::HashSet<i64> = db
            .rows("acct")
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        let locs: std::collections::HashSet<i64> = db
            .rows("loc")
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        for t in db.rows("trans") {
            assert!(accts.contains(&t[1].as_i64().unwrap()));
            assert!(locs.contains(&t[2].as_i64().unwrap()));
        }
    }

    #[test]
    fn locality_concentrates_transactions() {
        let cfg = GenConfig {
            transactions: 20_000,
            locality: 0.9,
            ..GenConfig::default()
        };
        let (_, db) = generate(&cfg);
        // Fraction of transactions at the modal location per account should
        // be high: group (faid → most common flid count / total).
        use std::collections::HashMap;
        let mut per_acct: HashMap<i64, HashMap<i64, usize>> = HashMap::new();
        for t in db.rows("trans") {
            *per_acct
                .entry(t[1].as_i64().unwrap())
                .or_default()
                .entry(t[2].as_i64().unwrap())
                .or_default() += 1;
        }
        let (hits, total): (usize, usize) = per_acct.values().fold((0, 0), |(h, n), m| {
            let max = m.values().max().copied().unwrap_or(0);
            let sum: usize = m.values().sum();
            (h + max, n + sum)
        });
        let frac = hits as f64 / total as f64;
        assert!(frac > 0.8, "locality fraction {frac} too low");
    }

    #[test]
    fn scaled_config_is_sane() {
        let cfg = GenConfig::scale(1_000_000);
        assert_eq!(cfg.transactions, 1_000_000);
        assert!(cfg.accounts > 100);
        assert!(cfg.locations >= 4);
    }

    #[test]
    fn ast1_summarization_ratio() {
        // The paper: AST1 (faid, flid, year) is ~100x smaller than Trans for
        // realistic locality. Validate a strong reduction on generated data.
        let cfg = GenConfig {
            transactions: 50_000,
            accounts: 50,
            years: 5,
            locality: 0.9,
            ..GenConfig::default()
        };
        let (_, db) = generate(&cfg);
        let mut groups = std::collections::HashSet::new();
        for t in db.rows("trans") {
            let year = match &t[4] {
                Value::Date(d) => d.year(),
                _ => unreachable!(),
            };
            groups.insert((t[1].clone(), t[2].clone(), year));
        }
        let ratio = db.row_count("trans") as f64 / groups.len() as f64;
        assert!(
            ratio > 10.0,
            "expected a strong summarization ratio, got {ratio:.1}"
        );
    }
}
