//! The traced replay: for each statement of the fixed prefix, a root span
//! around the real session call, then child spans around the same statement
//! taken layer by layer through each crate's public functions on the same
//! state.
//!
//! A child span whose `parent` is the root repeats a step the root call also
//! performed on the path it took (a result-cache hit neither plans nor
//! executes; a plan-cache hit does not match). The root's self time, that is
//! the facade's own work, is its duration minus those children. Spans with no
//! parent are probes the benchmark adds: the base plan, a pool of one, cold
//! and warm planning on a shadow session, a full refresh, an unsynced append.

use crate::fixture::{pool_size, Fixture};
use crate::spec::Scale;
use crate::streams::{DmlKind, Stmt};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use sumtab::engine::session::literal_rows;
use sumtab::engine::{execute_with, matched_rows, update_deltas, ExecOptions};
use sumtab::matcher::{signature, stats};
use sumtab::parser::{parse_query, parse_statements, Statement};
use sumtab::persist::{Wal, WalOptions, WalRecord};
use sumtab::{
    build_query, cost, graph_fingerprint, maintain, render_graph_sql, CandidateOutcome, Database,
    QgmGraph, RegisteredAst, Rewriter, Row, SummarySession,
};

/// Time per layer along the statements' blocking path, in µs.
#[derive(Default, Debug, Clone, Copy)]
pub struct LayerTime {
    pub root: f64,
    pub parser: f64,
    pub qgm: f64,
    pub matcher: f64,
    pub engine: f64,
    pub persist: f64,
    /// `maintain::*` calls plus the roots' self time.
    pub sumtab: f64,
    /// By how much the replayed steps outlasted their root, summed over the
    /// statements where they did: the root had warmer memory than the replay
    /// (see `trace.replay_excess` in the README).
    pub excess: f64,
}

#[derive(Default)]
pub struct LayerStats {
    pub tracer: Tracer,
    /// Per-statement values that are differences of spans, in µs.
    pub derived: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts over the prefix.
    pub counts: BTreeMap<&'static str, f64>,
    pub time: LayerTime,
    pub statements: u64,
    pub failures: Vec<String>,
}

impl LayerStats {
    fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    fn derive(&mut self, name: &'static str, us: f64) {
        self.derived.entry(name).or_default().push(us);
    }

    fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
        self.count("failed", 1.0);
    }
}

/// A second session over a copy of the same data, whose plan cache the
/// replay may empty at will: cold planning cannot be timed on the session
/// under test without changing what its next call does.
fn shadow_of(catalog: &sumtab::Catalog, db: Database) -> SummarySession {
    let mut s = SummarySession::with_data(catalog.clone(), db);
    s.set_exec_pool_size(pool_size());
    s
}

/// Replay `scale.prefix` units of the fixture's stream with tracing on.
/// `scratch` receives the two scratch logs.
pub fn traced(fx: &mut Fixture, scale: &Scale, scratch: &Path) -> LayerStats {
    let mut ls = LayerStats::default();
    let mut wal_sync = Wal::create(&scratch.join("probe-sync.wal"), 1, WalOptions::default()).ok();
    let mut wal_nosync = Wal::create(
        &scratch.join("probe-nosync.wal"),
        1,
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        },
    )
    .ok();
    // The shadow's database doubles as the scratch copy DMLs are replayed
    // on: copied once (`export_state` / `restore_state`), then taken through
    // every statement the session under test runs, so the two stay in the
    // same state without the replay ever touching, or warming, the real one.
    let mut shadow = {
        let inner = fx.sess.inner();
        let (data, epochs) = inner.session.db.export_state();
        let mut copy = Database::new();
        copy.restore_state(data, epochs);
        shadow_of(&inner.session.catalog, copy)
    };
    let dir = fx.dir.clone();
    let wal_len = || crate::run::wal_len(dir.as_deref());
    let mut units = 0usize;
    let mut stmt_no = 0u32;
    loop {
        if fx.stream.at_unit_start() {
            if units >= scale.prefix {
                break;
            }
            units += 1;
        }
        let stmt = stmt_no;
        stmt_no += 1;
        ls.statements += 1;
        let probe = (stmt as usize).is_multiple_of(scale.probe_every);
        match fx.stream.next_stmt() {
            Stmt::Query(sql) => {
                let (plan0, result0) = {
                    let i = fx.sess.inner();
                    (i.plan_cache_stats(), i.result_cache_stats())
                };
                let sess = &mut fx.sess;
                let (root, r) = ls
                    .tracer
                    .span(None, stmt, "sumtab.query", || sess.query(&sql));
                let used_ast = match r {
                    Ok(r) => r.used_ast,
                    Err(e) => {
                        ls.fail(format!("query failed: {e}: {sql}"));
                        continue;
                    }
                };
                let path = {
                    let i = fx.sess.inner();
                    QueryPath {
                        plan_hit: i.plan_cache_stats().hits > plan0.hits,
                        result_hit: i.result_cache_stats().hits > result0.hits,
                        used_ast,
                    }
                };
                if path.result_hit {
                    let us = ls.tracer.us(root);
                    ls.derive("sumtab.result_hit", us);
                } else if probe {
                    // The root just stored its result: asking again is a hit.
                    let sess = &mut fx.sess;
                    let (id, _) = ls
                        .tracer
                        .span(None, stmt, "sumtab.result_hit", || sess.query(&sql));
                    let us = ls.tracer.us(id);
                    ls.derive("sumtab.result_hit", us);
                }
                replay_query(
                    &mut ls,
                    stmt,
                    root,
                    &sql,
                    fx.sess.inner(),
                    &mut shadow,
                    &path,
                    probe,
                );
            }
            Stmt::Dml(kind, sql) => {
                let before = wal_len();
                let sess = &mut fx.sess;
                let (root, r) = ls
                    .tracer
                    .span(None, stmt, "sumtab.run_script", || sess.run_script(&sql));
                if let Err(e) = r {
                    ls.fail(format!("dml failed: {e}: {sql}"));
                    continue;
                }
                let snapshotted = wal_len() < before;
                let mut scratch_db = std::mem::take(&mut shadow.session.db);
                replay_dml(
                    &mut ls,
                    stmt,
                    root,
                    kind,
                    &sql,
                    fx.sess.inner(),
                    &mut scratch_db,
                    (&mut wal_sync, &mut wal_nosync),
                    snapshotted,
                );
                // The scratch copy is now in the session's post-DML state;
                // a new shadow over it sees every AST fresh.
                shadow = shadow_of(&fx.sess.inner().session.catalog, scratch_db);
                if probe {
                    let names: Vec<String> = shadow.asts().iter().map(|a| a.name.clone()).collect();
                    if let Some(name) = names.get(stmt as usize / 5 % names.len().max(1)) {
                        let sh = &mut shadow;
                        let (_, r) = ls
                            .tracer
                            .span(None, stmt, "sumtab.refresh", || sh.refresh(name));
                        if let Err(e) = r {
                            ls.fail(format!("refresh of {name} failed: {e}"));
                        }
                    }
                    // The refresh scanned the fact table and left its columnar
                    // copy cached on the scratch side; the session under test
                    // has none, so the next replayed DML must not find one.
                    let mut db = std::mem::take(&mut shadow.session.db);
                    db.bump_epoch("trans");
                    shadow = shadow_of(&fx.sess.inner().session.catalog, db);
                }
            }
        }
    }
    ls
}

/// What the root call did, read from the cache counters around it and from
/// its result.
struct QueryPath {
    plan_hit: bool,
    result_hit: bool,
    used_ast: Option<String>,
}

/// The planning loop of `SummarySession`, step by step through the matcher's
/// public functions: sweep the candidates, keep the cheapest match, match the
/// rewritten graph against the remaining ASTs, then cost both alternatives.
/// Returns the time spent, in µs.
fn replay_planning(
    ls: &mut LayerStats,
    parent: Option<u32>,
    stmt: u32,
    base: &QgmGraph,
    inner: &SummarySession,
) -> f64 {
    let catalog = &inner.session.catalog;
    let db = &inner.session.db;
    let row_count = |t: &str| db.row_count(t);
    let rewriter = Rewriter::with_pool_size(catalog, pool_size());
    let mut candidates: Vec<&RegisteredAst> = inner.asts();

    // The filter on its own; `rewrite_candidates` below runs it again inside.
    let (_, survivors) = ls.tracer.span(None, stmt, "matcher.filter", || {
        let qsig = signature::graph_signature(base);
        candidates
            .iter()
            .filter(|a| signature::survives(&qsig, &a.signature, catalog))
            .count()
    });
    ls.count("matcher.filter_survivors", survivors as f64);

    let (nav0, rej0) = (stats::navigator_runs(), stats::filter_rejections());
    let (mut rewrite_us, mut cost_us) = (0.0, 0.0);
    let mut graph = base.clone();
    let mut rewritten = false;
    loop {
        let (id, outcomes) = ls.tracer.span(parent, stmt, "matcher.rewrite", || {
            rewriter.rewrite_candidates(&graph, &candidates)
        });
        rewrite_us += ls.tracer.us(id);
        let (id, best) = ls.tracer.span(parent, stmt, "matcher.cost", || {
            let mut best: Option<(usize, QgmGraph, f64)> = None;
            for (i, o) in outcomes.into_iter().enumerate() {
                if let CandidateOutcome::Match(rw) = o {
                    let c = cost::estimate(&rw.graph, &row_count).total;
                    if best.as_ref().is_none_or(|(_, _, b)| c < *b) {
                        best = Some((i, rw.graph, c));
                    }
                }
            }
            best
        });
        cost_us += ls.tracer.us(id);
        let Some((chosen, g, _)) = best else { break };
        ls.count("matcher.matches", 1.0);
        graph = g;
        rewritten = true;
        candidates.remove(chosen);
    }
    let policy = inner.router_options().policy;
    let (id, _) = ls.tracer.span(parent, stmt, "matcher.cost", || {
        let b = cost::estimate(base, &row_count);
        rewritten.then(|| cost::rewrite_wins(&b, &cost::estimate(&graph, &row_count), &policy))
    });
    cost_us += ls.tracer.us(id);
    ls.derive("matcher.rewrite", rewrite_us);
    ls.derive("matcher.cost", cost_us);
    ls.count(
        "matcher.navigator_runs",
        (stats::navigator_runs() - nav0) as f64,
    );
    ls.count(
        "matcher.filter_rejections",
        (stats::filter_rejections() - rej0) as f64,
    );
    rewrite_us + cost_us
}

#[allow(clippy::too_many_arguments)]
fn replay_query(
    ls: &mut LayerStats,
    stmt: u32,
    root: u32,
    sql: &str,
    inner: &SummarySession,
    shadow: &mut SummarySession,
    path: &QueryPath,
    probe: bool,
) {
    let on = Some(root);
    let catalog = &inner.session.catalog;
    let db = &inner.session.db;
    let mut t = LayerTime {
        root: ls.tracer.us(root),
        ..LayerTime::default()
    };

    // Parse, build and fingerprint run on every call, before any cache lookup.
    let (id, q) = ls
        .tracer
        .span(on, stmt, "parser.parse_query", || parse_query(sql));
    t.parser += ls.tracer.us(id);
    ls.count("parser.sql_bytes", sql.len() as f64);
    let Ok(q) = q else {
        return ls.fail(format!("replay parse failed: {sql}"));
    };
    let (id, g) = ls
        .tracer
        .span(on, stmt, "qgm.build", || build_query(&q, catalog));
    t.qgm += ls.tracer.us(id);
    let Ok(g) = g else {
        return ls.fail(format!("replay build failed: {sql}"));
    };
    ls.count("qgm.boxes", g.boxes.len() as f64);
    let (id, _) = ls
        .tracer
        .span(on, stmt, "qgm.fingerprint", || graph_fingerprint(&g));
    t.qgm += ls.tracer.us(id);

    // Matching and costing: part of the root's path on a plan-cache miss,
    // a probe otherwise.
    let mut planning = None;
    if !path.plan_hit {
        let us = replay_planning(ls, on, stmt, &g, inner);
        t.matcher += us;
        planning = Some(us);
    } else if probe {
        planning = Some(replay_planning(ls, None, stmt, &g, inner));
    }
    if probe {
        shadow.bump_plan_generation();
        let (miss, r) = ls.tracer.span(None, stmt, "sumtab.plan_miss", || {
            shadow.plan_detail(sql).is_ok()
        });
        if !r {
            ls.fail(format!("shadow planning failed: {sql}"));
        }
        ls.tracer.span(None, stmt, "sumtab.plan_hit", || {
            shadow.plan_detail(sql).is_ok()
        });
        if let Some(p) = planning {
            let us = ls.tracer.us(miss) - (t.parser + t.qgm + p);
            ls.derive("sumtab.plan_self", us);
        }
    }

    // Execution and rendering, when the root did not hit the result cache.
    if !path.result_hit {
        // The plan the root ran. With no AST in its result that is the
        // un-rewritten graph (no match, the router kept the base plan, or it
        // was probing it). Otherwise it is the session's cached rewrite:
        // `plan_detail` is then a plan-cache hit, but the router re-derives
        // its decision on every lookup and may by now want to probe the base
        // plan, so the shadow, which carries no feedback, is asked second. (It
        // may break a cost tie between equal ASTs the other way: it registers
        // them in catalog order. Either costs the same to run.)
        let rewritten = |s: &SummarySession| {
            s.plan_detail(sql)
                .ok()
                .filter(|d| !d.used.is_empty())
                .map(|d| d.graph)
        };
        let plan = match &path.used_ast {
            None => Some(g.clone()),
            Some(_) => rewritten(inner).or_else(|| rewritten(shadow)),
        };
        match plan {
            None => ls.fail(format!("the root's plan cannot be replayed: {sql}")),
            Some(plan) => {
                let exec = inner.exec_options().clone();
                let (routed, rows) = ls.tracer.span(on, stmt, "engine.exec_routed", || {
                    execute_with(&plan, db, &exec)
                });
                t.engine += ls.tracer.us(routed);
                match rows {
                    Ok(rows) => ls.count("engine.rows_out", rows.len() as f64),
                    Err(e) => ls.fail(format!("replay execution failed: {e}: {sql}")),
                }
                let (id, _) = ls
                    .tracer
                    .span(on, stmt, "qgm.render", || render_graph_sql(&plan));
                t.qgm += ls.tracer.us(id);
                if probe {
                    if path.used_ast.is_some() {
                        ls.tracer.span(None, stmt, "engine.exec_base", || {
                            execute_with(&g, db, &exec).is_ok()
                        });
                    }
                    let one = ExecOptions {
                        pool_size: 1,
                        ..exec.clone()
                    };
                    let (p1, _) = ls.tracer.span(None, stmt, "engine.exec_pool1", || {
                        execute_with(&plan, db, &one).is_ok()
                    });
                    let ratio = ls.tracer.us(p1) / ls.tracer.us(routed).max(1e-3);
                    ls.derive("engine.par_speedup", ratio);
                }
            }
        }
    }
    let self_us = t.root - (t.parser + t.qgm + t.matcher + t.engine);
    ls.derive("sumtab.query_self", self_us);
    t.sumtab = self_us.max(0.0);
    add(&mut ls.time, t);
}

fn add(total: &mut LayerTime, t: LayerTime) {
    total.root += t.root;
    total.parser += t.parser;
    total.qgm += t.qgm;
    total.matcher += t.matcher;
    total.engine += t.engine;
    total.persist += t.persist;
    total.sumtab += t.sumtab;
    let parts = t.parser + t.qgm + t.matcher + t.engine + t.persist + t.sumtab;
    total.excess += (parts - t.root).max(0.0);
}

#[allow(clippy::too_many_arguments)]
fn replay_dml(
    ls: &mut LayerStats,
    stmt: u32,
    root: u32,
    kind: DmlKind,
    sql: &str,
    inner: &SummarySession,
    db: &mut Database,
    wals: (&mut Option<Wal>, &mut Option<Wal>),
    snapshotted: bool,
) {
    let on = Some(root);
    let catalog = &inner.session.catalog;
    let exec = inner.exec_options().clone();
    let mut t = LayerTime {
        root: ls.tracer.us(root),
        ..LayerTime::default()
    };
    let (id, parsed) = ls
        .tracer
        .span(on, stmt, "parser.parse_dml", || parse_statements(sql));
    t.parser += ls.tracer.us(id);
    ls.count("parser.sql_bytes", sql.len() as f64);
    let Some(parsed) = parsed.ok().and_then(|mut v| v.pop()) else {
        return ls.fail(format!("replay parse failed: {sql}"));
    };

    // A DELETE or UPDATE scans the fact table, and the scan first rebuilds
    // the table's columnar copy: every DML bumps the epoch the copy is cached
    // under. Timed on its own here, so `engine.where_resolve` below is the
    // resolution alone.
    if let Statement::Delete { table, .. } | Statement::Update { table, .. } = &parsed {
        let (id, rows) = ls
            .tracer
            .span(on, stmt, "engine.columnar", || db.columnar(table).len());
        t.engine += ls.tracer.us(id);
        ls.count("columnar_rows", rows as f64);
        ls.count("columnar_builds", 1.0);
    }

    // WHERE resolution, then the base mutation, on the scratch copy, which
    // is in the pre-statement state.
    let (table, removed, inserted): (String, Vec<Row>, Vec<Row>) = match &parsed {
        Statement::Insert { table, rows } => match literal_rows(rows) {
            Ok(values) => (table.clone(), Vec::new(), values),
            Err(e) => return ls.fail(format!("replay literals failed: {e}")),
        },
        Statement::Delete {
            table,
            where_clause,
        } => {
            let (id, victims) = ls.tracer.span(on, stmt, "engine.where_resolve", || {
                matched_rows(catalog, db, &exec, table, where_clause.as_ref())
            });
            t.engine += ls.tracer.us(id);
            match victims {
                Ok(v) => (table.clone(), v, Vec::new()),
                Err(e) => return ls.fail(format!("replay WHERE failed: {e}")),
            }
        }
        Statement::Update {
            table,
            sets,
            where_clause,
        } => {
            let (id, deltas) = ls.tracer.span(on, stmt, "engine.where_resolve", || {
                update_deltas(catalog, db, &exec, table, sets, where_clause.as_ref())
            });
            t.engine += ls.tracer.us(id);
            match deltas {
                Ok((old, new)) => (table.clone(), old, new),
                Err(e) => return ls.fail(format!("replay WHERE failed: {e}")),
            }
        }
        other => return ls.fail(format!("not a DML statement: {other:?}")),
    };
    let (id, ok) = ls.tracer.span(on, stmt, "engine.mutate", || match kind {
        DmlKind::Insert => db.insert(catalog, &table, inserted.clone()).is_ok(),
        DmlKind::Delete => db.remove_rows(&table, &removed) == removed.len(),
        DmlKind::Update => db
            .replace_rows(catalog, &table, &removed, inserted.clone())
            .is_ok(),
    });
    t.engine += ls.tracer.us(id);
    if !ok {
        ls.fail(format!("replay mutation failed: {sql}"));
    }

    // Per-AST delta maintenance, as `SummarySession` dispatches it.
    let table_lc = table.to_ascii_lowercase();
    for st in inner.ast_states() {
        let Some(plan) = st.maint.plan_for(&table_lc) else {
            ls.count("refreshed", 1.0);
            continue;
        };
        let (g, name) = (&st.maint.exec_graph, st.ast.name.as_str());
        let mut applied = true;
        if !removed.is_empty() {
            let (id, r) = ls.tracer.span(on, stmt, "sumtab.maintain_delete", || {
                maintain::apply_delete(g, &plan, name, &table_lc, &removed, db)
            });
            t.sumtab += ls.tracer.us(id);
            applied &= matches!(r, Ok(maintain::DeltaOutcome::Applied));
        }
        if applied && !inserted.is_empty() {
            let (id, r) = ls.tracer.span(on, stmt, "sumtab.maintain_append", || {
                maintain::apply_append(g, &plan, name, &table_lc, &inserted, db)
            });
            t.sumtab += ls.tracer.us(id);
            applied &= matches!(r, Ok(maintain::DeltaOutcome::Applied));
        }
        ls.count(if applied { "maintained" } else { "refreshed" }, 1.0);
    }

    // The log record the durable session frames for this statement, appended
    // to scratch logs with and without fsync.
    let record = match kind {
        DmlKind::Insert => WalRecord::Append {
            table: table.clone(),
            rows: inserted,
        },
        DmlKind::Delete => WalRecord::Delete {
            table: table.clone(),
            rows: removed,
        },
        DmlKind::Update => WalRecord::Update {
            table: table.clone(),
            old_rows: removed,
            new_rows: inserted,
        },
    };
    if let (Some(sync), Some(nosync)) = wals {
        let len = |w: &Wal| std::fs::metadata(w.path()).map_or(0, |m| m.len());
        let before = len(sync);
        let (id, r) = ls.tracer.span(on, stmt, "persist.wal_append", || {
            sync.append(&record).is_ok()
        });
        t.persist += ls.tracer.us(id);
        ls.count("wal_records", 1.0);
        ls.count("wal_record_bytes", (len(sync) - before) as f64);
        let (_, r2) = ls.tracer.span(None, stmt, "persist.wal_append_nosync", || {
            nosync.append(&record).is_ok()
        });
        if !(r && r2) {
            ls.fail("scratch log append failed".to_string());
        }
    }

    let self_us = t.root - (t.parser + t.engine + t.sumtab + t.persist);
    if snapshotted {
        // The periodic snapshot ran inside this call; that is the
        // persistence layer's time, not the facade's.
        t.persist += self_us.max(0.0);
    } else {
        ls.derive("sumtab.dml_self", self_us);
        t.sumtab += self_us.max(0.0);
    }
    add(&mut ls.time, t);
}
