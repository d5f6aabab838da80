//! Match signatures: a constant-size summary of the matching-relevant shape
//! of a query or AST definition, used to prune the candidate set *before*
//! the expensive QGM navigator runs (PAPER §6 describes the DB2
//! implementation filtering ASTs cheaply; Cohen & Nutt treat candidate
//! pruning as the scalability lever for rewriting with many views).
//!
//! A signature records:
//!
//! * the **base tables** the graph reads, as a sorted name set plus a
//!   128-bit Bloom-style bitset for O(1) subset/intersection pre-checks;
//! * the **aggregate kinds** present in GROUP BY outputs, as a bitmask —
//!   per box (subsumee side needs "does *some* GROUP BY box survive?") and
//!   as a union (subsumer side);
//! * the **grouping columns**, as canonical `table.column` labels where a
//!   grouping item traces to a base column (diagnostic/display; the filter
//!   itself must not reject on grouping names because join-predicate
//!   equivalence classes make name-level tests unsound — see
//!   `sumtab_matcher::signature`).
//!
//! The type lives in the catalog crate so both the matcher (which computes
//! signatures from QGM graphs) and storage layers can carry it without a
//! dependency cycle. Construction from a graph is in
//! `sumtab_matcher::signature`.

/// Bitmask constants for aggregate kinds appearing in GROUP BY outputs.
/// `AVG` never appears: QGM construction normalizes it to SUM/COUNT.
pub mod agg_kind {
    /// Non-distinct `COUNT` (with or without an argument).
    pub const COUNT: u8 = 1 << 0;
    /// Non-distinct `SUM`.
    pub const SUM: u8 = 1 << 1;
    /// `MIN` (DISTINCT-insensitive).
    pub const MIN: u8 = 1 << 2;
    /// `MAX` (DISTINCT-insensitive).
    pub const MAX: u8 = 1 << 3;
    /// `COUNT(DISTINCT x)`.
    pub const COUNT_DISTINCT: u8 = 1 << 4;
    /// `SUM(DISTINCT x)`.
    pub const SUM_DISTINCT: u8 = 1 << 5;

    /// Human-readable names of the set bits, for diagnostics.
    pub fn names(mask: u8) -> Vec<&'static str> {
        let all = [
            (COUNT, "count"),
            (SUM, "sum"),
            (MIN, "min"),
            (MAX, "max"),
            (COUNT_DISTINCT, "count-distinct"),
            (SUM_DISTINCT, "sum-distinct"),
        ];
        all.iter()
            .filter(|(bit, _)| mask & bit != 0)
            .map(|(_, n)| *n)
            .collect()
    }
}

/// A set of (lower-cased) table names with a 128-bit Bloom companion for
/// constant-time conservative set tests. The exact name list is the ground
/// truth; the bitset only short-circuits the common reject/accept paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableSet {
    names: Vec<String>,
    bits: u128,
}

/// FNV-1a over the byte string — stable across runs, platforms, and Rust
/// versions (unlike `DefaultHasher`), which keeps signature bits comparable
/// between a registration-time snapshot and a query-time computation.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl TableSet {
    /// An empty set.
    pub fn new() -> TableSet {
        TableSet::default()
    }

    /// Insert a table name (case-insensitive).
    pub fn insert(&mut self, name: &str) {
        let key = name.to_ascii_lowercase();
        self.bits |= 1u128 << (fnv1a(&key) % 128);
        if let Err(pos) = self.names.binary_search(&key) {
            self.names.insert(pos, key);
        }
    }

    /// The sorted, de-duplicated, lower-cased names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of distinct tables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Exact membership test (case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        if self.bits & (1u128 << (fnv1a(&key) % 128)) == 0 {
            return false; // Bloom miss is definitive
        }
        self.names.binary_search(&key).is_ok()
    }

    /// Exact subset test, with a bitset fast-reject: if some bit of `self`
    /// is missing from `other`, a name of `self` is certainly missing too.
    pub fn is_subset(&self, other: &TableSet) -> bool {
        if self.bits & !other.bits != 0 {
            return false;
        }
        self.names
            .iter()
            .all(|n| other.names.binary_search(n).is_ok())
    }

    /// Exact non-empty-intersection test, with a bitset fast-reject.
    pub fn intersects(&self, other: &TableSet) -> bool {
        if self.bits & other.bits == 0 {
            return false;
        }
        self.names
            .iter()
            .any(|n| other.names.binary_search(n).is_ok())
    }
}

/// The matching-relevant shape of one QGM graph (query or AST definition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchSignature {
    /// Base tables read by boxes reachable from the root.
    pub tables: TableSet,
    /// Union over every GROUP BY box of the aggregate kinds present
    /// ([`agg_kind`] bits).
    pub agg_mask: u8,
    /// Aggregate-kind mask of each reachable GROUP BY box individually
    /// (bottom-up order). Empty iff the graph has no GROUP BY box.
    pub group_agg_masks: Vec<u8>,
    /// Canonical labels of grouping columns that trace to base-table
    /// columns (`table.column`, sorted, de-duplicated). Diagnostic only.
    pub grouping_cols: Vec<String>,
}

impl MatchSignature {
    /// Does the graph contain any GROUP BY box?
    pub fn has_group_by(&self) -> bool {
        !self.group_agg_masks.is_empty()
    }
}

impl std::fmt::Display for MatchSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tables={{{}}} aggs={{{}}} group_bys={} grouping=[{}]",
            self.tables.names().join(", "),
            agg_kind::names(self.agg_mask).join(", "),
            self.group_agg_masks.len(),
            self.grouping_cols.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_set(names: &[&str]) -> TableSet {
        let mut s = TableSet::new();
        for n in names {
            s.insert(n);
        }
        s
    }

    #[test]
    fn table_set_algebra() {
        let a = table_set(&["Trans", "loc"]);
        let b = table_set(&["trans", "loc", "acct"]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.intersects(&b));
        assert!(a.contains("TRANS"));
        assert!(!a.contains("acct"));
        assert_eq!(a.names(), ["loc", "trans"]);

        let c = table_set(&["other"]);
        assert!(!a.intersects(&c));
        assert!(!c.is_subset(&b));
        assert!(TableSet::new().is_subset(&a), "empty set is subset of all");
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = TableSet::new();
        s.insert("t");
        s.insert("T");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn agg_kind_names_render() {
        let mask = agg_kind::COUNT | agg_kind::MAX;
        assert_eq!(agg_kind::names(mask), vec!["count", "max"]);
    }

    #[test]
    fn display_is_compact() {
        let sig = MatchSignature {
            tables: table_set(&["trans"]),
            agg_mask: agg_kind::COUNT,
            group_agg_masks: vec![agg_kind::COUNT],
            grouping_cols: vec!["trans.faid".into()],
        };
        let s = sig.to_string();
        assert!(s.contains("tables={trans}"), "{s}");
        assert!(s.contains("group_bys=1"), "{s}");
    }
}
