//! The closed loop (one client, no think time) and the oracle.

use crate::fixture::{Fixture, Sess};
use crate::spec::Workload;
use crate::streams::{DmlKind, Stmt};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use sumtab::{sort_rows, CacheStats, DurableSession, Row, Value};

/// When the loop stops: after exactly `max_units` statements (cycles on
/// `mixed_dml`), or at the first deck boundary (`Stream::block_units`) after
/// the statements' own latencies add up to `busy_s`, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub max_units: Option<usize>,
    pub busy_s: f64,
    /// Every n-th statement (cycle on `mixed_dml`) is checked against the
    /// oracle.
    pub oracle_every: usize,
}

/// What one pass over the stream measured.
#[derive(Default)]
pub struct RunStats {
    pub query_us: Vec<f64>,
    pub dml_us: Vec<(DmlKind, f64)>,
    pub first_query_after_dml_us: Vec<f64>,
    /// Latencies of the DMLs after which `wal.bin` shrank (a snapshot ran).
    pub stall_us: Vec<f64>,
    /// `wal.bin` growth `(bytes, statements)` per DML kind (`DmlKind as
    /// usize`), over the DMLs that did not trigger a snapshot.
    pub wal: [(u64, u64); 3],
    /// DMLs since `wal.bin` last shrank (or since the set-up's snapshot).
    pub dmls_since_snapshot: u64,
    /// Statements of the timed phase, and oracle or end-state comparisons
    /// made outside it; together they are what was attempted.
    pub stmts: u64,
    pub checks: u64,
    pub failed: u64,
    /// Queries answered from an AST / that fell back at execution.
    pub rewritten: u64,
    pub fallbacks: u64,
    /// Sum of statement latencies: the timed phase's wall time.
    pub busy_s: f64,
    /// Whole units (statements, or cycles on `mixed_dml`) completed.
    pub units: usize,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    pub plan: CacheStats,
    pub result: CacheStats,
}

impl RunStats {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    pub fn queries(&self) -> u64 {
        self.query_us.len() as u64
    }

    /// Log bytes per DML: the mean over DML kinds of each kind's mean record
    /// size. The codec has no varints, so a kind's records all have one
    /// size, and the figure is exact however many statements of each kind the
    /// clock let through (the stream deals the kinds in equal shares).
    pub fn wal_bytes_per_dml(&self) -> f64 {
        let means: Vec<f64> = self
            .wal
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(bytes, n)| *bytes as f64 / *n as f64)
            .collect();
        means.iter().sum::<f64>() / means.len().max(1) as f64
    }

    /// DMLs whose log growth was measured.
    pub fn wal_dmls(&self) -> usize {
        self.wal.iter().map(|(_, n)| *n as usize).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.stmts + self.checks
    }

    /// Statements completed per second of the timed phase.
    pub fn stmts_per_s(&self) -> f64 {
        self.stmts as f64 / self.busy_s.max(f64::MIN_POSITIVE)
    }

    /// Fold in the pass over another set-up of the same workload.
    pub fn merge(&mut self, other: RunStats) {
        self.query_us.extend(other.query_us);
        self.dml_us.extend(other.dml_us);
        self.first_query_after_dml_us
            .extend(other.first_query_after_dml_us);
        self.stall_us.extend(other.stall_us);
        for (mine, theirs) in self.wal.iter_mut().zip(other.wal) {
            *mine = (mine.0 + theirs.0, mine.1 + theirs.1);
        }
        self.dmls_since_snapshot = other.dmls_since_snapshot;
        self.stmts += other.stmts;
        self.checks += other.checks;
        self.failed += other.failed;
        self.rewritten += other.rewritten;
        self.fallbacks += other.fallbacks;
        self.busy_s += other.busy_s;
        self.units += other.units;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.plan = sum(self.plan, other.plan);
        self.result = sum(self.result, other.result);
    }
}

fn sum(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        invalidations: a.invalidations + b.invalidations,
        evictions: a.evictions + b.evictions,
        reroutes: a.reroutes + b.reroutes,
    }
}

fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidations: after.invalidations - before.invalidations,
        evictions: after.evictions - before.evictions,
        reroutes: after.reroutes - before.reroutes,
    }
}

/// Two answers agree when their sorted multisets match cell by cell; doubles
/// within 1e-9 relative, because a rewrite sums partial sums in another order
/// than the base plan does.
pub fn same_answer(a: &[Row], b: &[Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let (a, b) = (sort_rows(a.to_vec()), sort_rows(b.to_vec()));
    a.iter().zip(&b).all(|(x, y)| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(u, v)| match (u, v) {
                (Value::Double(p), Value::Double(q)) => {
                    (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                }
                _ => u == v,
            })
    })
}

/// Size of the durable session's log (0 without a durability directory).
pub fn wal_len(dir: Option<&Path>) -> u64 {
    dir.and_then(|d| std::fs::metadata(d.join(sumtab::durable::WAL_FILE)).ok())
        .map_or(0, |m| m.len())
}

/// Drive the fixture's stream through its session until `limit`.
///
/// Oracle: on the read-only workloads the answer of every `oracle_every`-th
/// statement with a not-yet-seen text is kept and compared with
/// `query_no_rewrite` after the loop, outside the timed phase. Under DML the
/// answers change with every cycle, so every `oracle_every`-th cycle each
/// query is re-answered without rewriting right away; that time is not part
/// of `busy_s`.
pub fn run(w: Workload, fx: &mut Fixture, limit: Limit) -> RunStats {
    let mut st = RunStats::default();
    let plan0 = fx.sess.inner().plan_cache_stats();
    let result0 = fx.sess.inner().result_cache_stats();
    let dir = fx.dir.clone();
    let mut kept: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    let mut after_dml = false;
    let mut index = 0usize;
    let block_units = fx.stream.block_units();
    loop {
        if fx.stream.at_unit_start() {
            let out_of_time = st.busy_s >= limit.busy_s && st.units.is_multiple_of(block_units);
            if out_of_time || limit.max_units.is_some_and(|m| st.units >= m) {
                break;
            }
            st.units += 1;
        }
        let check = index.is_multiple_of(limit.oracle_every);
        index += 1;
        st.stmts += 1;
        match fx.stream.next_stmt() {
            Stmt::Query(sql) => {
                let t = Instant::now();
                let r = fx.sess.query(&sql);
                let lat = t.elapsed();
                st.busy_s += lat.as_secs_f64();
                let us = lat.as_secs_f64() * 1e6;
                st.query_us.push(us);
                if std::mem::take(&mut after_dml) {
                    st.first_query_after_dml_us.push(us);
                }
                match r {
                    Err(e) => st.fail(format!("query failed: {e}: {sql}")),
                    Ok(r) => {
                        st.rewritten += u64::from(r.used_ast.is_some());
                        st.fallbacks += u64::from(r.fallback.is_some());
                        if w.is_dml() {
                            if (st.units - 1).is_multiple_of(limit.oracle_every) {
                                check_now(&mut fx.sess, &sql, &r.rows, &mut st);
                            }
                        } else if check {
                            kept.entry(sql).or_insert(r.rows);
                        }
                    }
                }
            }
            Stmt::Dml(kind, sql) => {
                let before = wal_len(dir.as_deref());
                let t = Instant::now();
                let r = fx.sess.run_script(&sql);
                let lat = t.elapsed();
                st.busy_s += lat.as_secs_f64();
                let us = lat.as_secs_f64() * 1e6;
                st.dml_us.push((kind, us));
                after_dml = true;
                let after = wal_len(dir.as_deref());
                if after < before {
                    st.stall_us.push(us);
                    st.dmls_since_snapshot = 0;
                } else {
                    st.dmls_since_snapshot += 1;
                    let (bytes, n) = &mut st.wal[kind as usize];
                    *bytes += after - before;
                    *n += 1;
                }
                if let Err(e) = r {
                    st.fail(format!("dml failed: {e}: {sql}"));
                }
            }
        }
    }
    for (sql, rows) in &kept {
        check_now(&mut fx.sess, sql, rows, &mut st);
    }
    st.plan = delta(fx.sess.inner().plan_cache_stats(), plan0);
    st.result = delta(fx.sess.inner().result_cache_stats(), result0);
    st
}

/// Compare a routed answer with the un-rewritten plan's.
fn check_now(sess: &mut Sess, sql: &str, routed: &[Row], st: &mut RunStats) {
    st.checks += 1;
    match sess.query_no_rewrite(sql) {
        Err(e) => st.fail(format!("oracle failed: {e}: {sql}")),
        Ok(base) if !same_answer(routed, &base.rows) => {
            st.fail(format!("answer differs from the base plan's: {sql}"))
        }
        Ok(_) => {}
    }
}

/// The state `mixed_dml` compares across a close and reopen: row counts,
/// each AST's backing rows, and the five query answers.
pub struct DurableState {
    counts: Vec<(String, usize)>,
    asts: Vec<(String, Vec<Row>)>,
    answers: Vec<(&'static str, Vec<Row>)>,
}

pub fn durable_state(s: &mut DurableSession, st: &mut RunStats) -> DurableState {
    use sumtab::datagen::workloads::{Q1, Q4, Q6, Q7, Q8};
    let inner = s.session();
    let mut counts = Vec::new();
    for t in inner.session.catalog.tables() {
        counts.push((t.name.clone(), inner.session.db.row_count(&t.name)));
    }
    let asts = inner
        .ast_states()
        .iter()
        .map(|a| {
            (
                a.ast.name.clone(),
                inner.session.db.rows(&a.ast.name).to_vec(),
            )
        })
        .collect();
    let mut answers = Vec::new();
    for q in [Q1, Q4, Q6, Q7, Q8] {
        st.checks += 1;
        match s.query(q) {
            Ok(r) => answers.push((q, r.rows)),
            Err(e) => st.fail(format!("query failed: {e}: {q}")),
        }
    }
    DurableState {
        counts,
        asts,
        answers,
    }
}

/// End-of-run checks on `mixed_dml`: every AST equals its recompute, and the
/// recovered session equals the one that was closed.
pub fn check_ast_recompute(s: &DurableSession, st: &mut RunStats) {
    let inner = s.session();
    for a in inner.ast_states() {
        st.checks += 1;
        if let Err(why) =
            sumtab::maintain::check_equivalence(&a.maint.exec_graph, &a.ast.name, &inner.session.db)
        {
            st.fail(format!(
                "AST {} differs from its recompute: {why}",
                a.ast.name
            ));
        }
    }
}

pub fn check_recovered(before: &DurableState, after: &DurableState, st: &mut RunStats) {
    st.checks += 1;
    if before.counts != after.counts {
        st.fail(format!(
            "recovered row counts differ: {:?} vs {:?}",
            before.counts, after.counts
        ));
    }
    for ((name, b), (_, a)) in before.asts.iter().zip(&after.asts) {
        st.checks += 1;
        if !same_answer(b, a) {
            st.fail(format!("recovered AST {name} differs"));
        }
    }
    for ((q, b), (_, a)) in before.answers.iter().zip(&after.answers) {
        st.checks += 1;
        if !same_answer(b, a) {
            st.fail(format!("recovered answer differs: {q}"));
        }
    }
    if before.asts.len() != after.asts.len() || before.answers.len() != after.answers.len() {
        st.fail("recovered session lost ASTs or answers".to_string());
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
