//! One workload, start to finish: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.

use crate::fixture::{fresh_dir, nproc, pool_size, setup, Fixture, Sess};
use crate::json::Json;
use crate::layers::{traced, LayerStats};
use crate::run::{self, Limit, RunStats};
use crate::spec::{self, Scale, Workload};
use crate::stats::{median, percentile, sort};
use crate::streams::{DmlKind, Stmt};
use std::path::{Path, PathBuf};
use std::time::Instant;
use sumtab::persist::snapshot::{read_snapshot, write_snapshot, SNAP_FILE};
use sumtab::persist::RetryPolicy;
use sumtab::DurableSession;

/// WAL records past the last snapshot when recovery is timed with tracing
/// off: half the snapshot cadence. The timed phase is cut by the clock, so
/// without this the replayed tail, and with it `recovery_s`, would vary.
const RECOVERY_TAIL: u64 = 32;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile.
    pub n: Option<usize>,
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where result files, traces and scratch directories go.
    pub out: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the contract's metrics for this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The DML-side end-to-end metrics and `failed_share`, with tracing off.
    pub extra: Vec<Metric>,
    pub info: Vec<(&'static str, Json)>,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, false)),
        ])
        .to_line()
    }

    /// Everything measured, for `e2e.json` and `--compare`.
    pub fn to_json(&self, o: &Options) -> Json {
        Json::obj([
            ("workload", Json::str(o.workload.name())),
            ("seed", Json::Num(o.seed as f64)),
            ("trace", Json::Bool(o.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                metrics_json(self.metrics.iter().chain(&self.extra), true),
            ),
            ("info", Json::obj(self.info.iter().cloned())),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }

    pub fn print_table(&self, o: &Options) {
        println!(
            "== {} seed={} trace={} {}",
            o.workload.name(),
            o.seed,
            u8::from(o.trace),
            if o.quick { "(quick)" } else { "" }
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
            println!("  {:<34} {:>16.4} {}{}", m.name, m.value, m.unit, n);
        }
        for (k, v) in &self.info {
            println!("  {:<34} {}", k, v.to_line());
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

fn metrics_json<'a>(ms: impl IntoIterator<Item = &'a Metric>, with_n: bool) -> Json {
    Json::obj(ms.into_iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if let (true, Some(n)) = (with_n, m.n) {
            fields.push(("n", Json::Num(n as f64)));
        }
        (m.name, Json::obj(fields))
    }))
}

fn scale_of(o: &Options) -> Scale {
    if o.quick {
        Scale::quick(o.workload)
    } else {
        Scale::full(o.workload)
    }
}

fn common_info(o: &Options, scale: &Scale) -> Vec<(&'static str, Json)> {
    vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("exec_pool", Json::Num(pool_size() as f64)),
        ("fact_rows", Json::Num(scale.rows as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("load", Json::str("closed loop, 1 client, no think time")),
    ]
}

pub fn run_workload(o: &Options) -> Result<Outcome, String> {
    let scratch = o
        .out
        .join("tmp")
        .join(format!("{}-{}", o.workload.name(), std::process::id()));
    fresh_dir(&scratch)?;
    let out = if o.trace {
        per_layer(o, &scratch)
    } else {
        end_to_end(o, &scratch)
    };
    // Durable directories and scratch logs do not outlive the run.
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

/// What the memory probe's line for its parent starts with.
const RSS_LINE: &str = "peak_rss_mb=";

/// `--rss-probe`: set up once, run `scale.rss_units` of the stream, print
/// `VmHWM`. Runs as a child of the untraced run, see [`peak_rss_mb`].
pub fn rss_probe(o: &Options) -> Result<(), String> {
    let scratch =
        o.out
            .join("tmp")
            .join(format!("{}-rss-{}", o.workload.name(), std::process::id()));
    fresh_dir(&scratch)?;
    let scale = scale_of(o);
    let seed = stream_seed(o.seed, 0);
    let measured = setup(o.workload, seed, &scale, &scratch.join("db")).map(|mut fx| {
        let limit = Limit {
            max_units: Some(scale.rss_units),
            busy_s: f64::INFINITY,
            oracle_every: scale.oracle_every,
        };
        let st = run::run(o.workload, &mut fx, limit);
        (st.failed, run::peak_rss_mb())
    });
    let _ = std::fs::remove_dir_all(&scratch);
    match measured? {
        (0, mb) => {
            println!("{RSS_LINE}{mb}");
            Ok(())
        }
        (failed, _) => Err(format!("memory probe: {failed} statement(s) failed")),
    }
}

/// Peak resident set of the workload, in MiB: `VmHWM` of a child process of
/// its own that sets up once and runs a fixed number of statements.
///
/// The child runs with glibc confined to one malloc arena. With the default
/// of one arena per thread, which arena a scoped worker thread lands in
/// varies from run to run, and `VmHWM` with it (145 to 188 MiB for one seed);
/// with one arena it repeats to within a MiB. One arena makes the session
/// 2.4 times slower, which is why the probe is not the timed run.
fn peak_rss_mb(o: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", o.workload.name(), "--rss-probe"])
        .args(["--seed", &o.seed.to_string(), "--out"])
        .arg(&o.out)
        .env("MALLOC_ARENA_MAX", "1");
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(RSS_LINE)?.parse::<f64>().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "memory probe exited with {:?}: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })
}

fn p(us: &[f64], pct: f64) -> f64 {
    let mut v = us.to_vec();
    sort(&mut v);
    percentile(&v, pct)
}

/// Close the durable session and reopen its directory `times` times; checks
/// every AST against its recompute before, and the recovered session against
/// the closed one after. Returns `(recovery_s, records replayed)`.
fn recover(fx: Fixture, times: usize, st: &mut RunStats) -> Result<(f64, u64), String> {
    let Fixture { sess, dir, .. } = fx;
    let (Sess::Durable(mut s), Some(dir)) = (sess, dir) else {
        return Ok((0.0, 0));
    };
    run::check_ast_recompute(&s, st);
    let before = run::durable_state(&mut s, st);
    drop(s);
    let mut secs = Vec::new();
    let mut replayed = 0;
    for i in 0..times.max(1) {
        let t = Instant::now();
        let mut s = DurableSession::open(&dir).map_err(|e| format!("recovery failed: {e}"))?;
        secs.push(t.elapsed().as_secs_f64());
        replayed = s.recovery_report().replayed;
        if i == 0 {
            let after = run::durable_state(&mut s, st);
            run::check_recovered(&before, &after, st);
        }
    }
    Ok((median(secs), replayed))
}

/// The stream seed of the `i`-th set-up of a run: each set-up continues with
/// statements of its own.
fn stream_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(i as u64)
}

/// `--trace 0`: set up `scale.setups` times and time the stream for an equal
/// share of `--seconds` on each set-up, so that what differs from one set-up
/// to the next (where the rows and the columnar copies land in memory) is
/// averaged inside the run; check answers; recover the last one.
fn end_to_end(o: &Options, scratch: &Path) -> Result<Outcome, String> {
    let w = o.workload;
    let scale = scale_of(o);
    let limit = Limit {
        // `--quick` is bounded by statements so the smoke test stays short.
        max_units: o.quick.then_some(scale.prefix),
        busy_s: o.seconds / scale.setups as f64,
        // As many oracle checks per run as one set-up alone would make.
        oracle_every: scale.oracle_every * scale.setups,
    };
    let mut setups = Vec::new();
    let mut st = RunStats::default();
    let mut last = None;
    for i in 0..scale.setups {
        drop(last.take());
        let mut fx = setup(w, stream_seed(o.seed, i), &scale, &scratch.join("db"))?;
        setups.push(fx.setup_s);
        st.merge(run::run(w, &mut fx, limit));
        last = Some(fx);
    }
    let mut fx = last.ok_or("no set-up ran")?;

    let mut extra = Vec::new();
    let mut info = common_info(o, &scale);
    if w.is_dml() {
        pad_log_tail(&mut fx, &mut st);
        let dmls: Vec<f64> = st.dml_us.iter().map(|(_, us)| *us).collect();
        let wal_bytes_per_dml = st.wal_bytes_per_dml();
        let snapshots = st.stall_us.len();
        let (recovery_s, replayed) = recover(fx, scale.recoveries, &mut st)?;
        let n = Some(dmls.len());
        extra.push(Metric {
            name: "dml_p50_us",
            value: p(&dmls, 50.0),
            unit: "us",
            n,
        });
        extra.push(Metric {
            name: "dml_p95_us",
            value: p(&dmls, 95.0),
            unit: "us",
            n,
        });
        extra.push(Metric {
            name: "recovery_s",
            value: recovery_s,
            unit: "s",
            n: Some(scale.recoveries.max(1)),
        });
        extra.push(Metric {
            name: "wal_bytes_per_dml",
            value: wal_bytes_per_dml,
            unit: "bytes",
            n: Some(st.wal_dmls()),
        });
        info.push(("recovery_replayed_records", Json::Num(replayed as f64)));
        info.push(("snapshots_in_timed_phase", Json::Num(snapshots as f64)));
        info.push(("durability",
            Json::str("fsync on, snapshot every 64 records; the sandbox's fsync may be cheaper than a device's"),
        ));
    } else {
        drop(fx);
    }
    extra.push(Metric {
        name: "failed_share",
        value: st.failed as f64 / st.attempted().max(1) as f64,
        unit: "ratio",
        n: Some(st.attempted() as usize),
    });

    let peak_rss = peak_rss_mb(o)?;
    let nq = Some(st.query_us.len());
    let values = [
        ("setup_s", median(setups), Some(scale.setups)),
        ("stmts_per_s", st.stmts_per_s(), Some(st.stmts as usize)),
        ("query_p50_us", p(&st.query_us, 50.0), nq),
        ("query_p95_us", p(&st.query_us, 95.0), nq),
        ("peak_rss_mb", peak_rss, None),
    ];
    let metrics = spec::contract_end_to_end()
        .map(|m| {
            let (_, value, n) = values
                .iter()
                .find(|(name, _, _)| *name == m.name)
                .copied()
                .unwrap_or((m.name, 0.0, None));
            Metric {
                name: m.name,
                value,
                unit: m.unit,
                n,
            }
        })
        .collect();
    info.push(("timed_statements", Json::Num(st.stmts as f64)));
    info.push(("timed_seconds", Json::Num(st.busy_s)));
    info.push(("oracle_checks", Json::Num(st.checks as f64)));
    info.push((
        "plan_cache_hit_rate",
        Json::Num(rate(st.plan.hits, st.plan.misses)),
    ));
    info.push((
        "rewrite_share",
        Json::Num(st.rewritten as f64 / st.queries().max(1) as f64),
    ));
    Ok(Outcome {
        attempted: st.attempted().max(1),
        failed: st.failed,
        metrics,
        extra,
        info,
        failures: st.failures,
    })
}

/// Run DMLs (their SELECTs are skipped), outside the timed phase, until
/// exactly `RECOVERY_TAIL` records follow the last snapshot.
fn pad_log_tail(fx: &mut Fixture, st: &mut RunStats) {
    let Some(dir) = fx.dir.clone() else { return };
    let len = || run::wal_len(Some(&dir));
    // Every DML of the stream logs one record (all four ASTs are maintained
    // in place), so DMLs since the last shrink of the log count its records.
    // Were that ever untrue the tail might never be hit: give up after a few
    // snapshot periods and let `recovery_replayed_records` show it.
    let mut tail = st.dmls_since_snapshot;
    let mut budget = 4 * 64;
    while tail != RECOVERY_TAIL && budget > 0 {
        let Stmt::Dml(_, sql) = fx.stream.next_stmt() else {
            continue;
        };
        budget -= 1;
        let before = len();
        if let Err(e) = fx.sess.run_script(&sql) {
            st.fail(format!("dml failed: {e}: {sql}"));
            return;
        }
        tail = if len() < before { 0 } else { tail + 1 };
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// `--trace 1`: an untraced pass over the fixed prefix (cache statistics,
/// DML latencies, recovery), then the traced replay of the same prefix on a
/// fresh set-up of the same state.
fn per_layer(o: &Options, scratch: &Path) -> Result<Outcome, String> {
    let w = o.workload;
    let scale = scale_of(o);
    let limit = Limit {
        max_units: Some(scale.prefix),
        // The prefix is fixed so that counts repeat; the clock only guards
        // against a run that would never end.
        busy_s: (o.seconds * 6.0).max(60.0),
        oracle_every: scale.oracle_every,
    };
    let seed = stream_seed(o.seed, 0);
    let mut fx = setup(w, seed, &scale, &scratch.join("db"))?;
    let (generate_s, materialize_s) = (fx.generate_s, fx.materialize_s);
    let mut st = run::run(w, &mut fx, limit);

    let mut snap = (0.0, 0.0, 0.0);
    if let Some(dir) = fx.dir.clone() {
        let t = Instant::now();
        let state = read_snapshot(&dir).map_err(|e| format!("read snapshot: {e}"))?;
        let read_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(state) = state {
            let probe = scratch.join("snapshot-probe");
            fresh_dir(&probe)?;
            let t = Instant::now();
            write_snapshot(&probe, &state, RetryPolicy::default())
                .map_err(|e| format!("write snapshot: {e}"))?;
            let write_ms = t.elapsed().as_secs_f64() * 1e3;
            let bytes = std::fs::metadata(probe.join(SNAP_FILE)).map_or(0, |m| m.len());
            snap = (write_ms, read_ms, bytes as f64);
        }
    }
    let (recovery_s, replayed) = recover(fx, 1, &mut st)?;

    let mut fx = setup(w, seed, &scale, &scratch.join("db"))?;
    let ls = traced(&mut fx, &scale, scratch);
    drop(fx);
    let trace_file = o.out.join(format!("trace-{}.jsonl", w.name()));
    ls.tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let (metrics, dominant) = layer_metrics(
        &st,
        &ls,
        LayerInputs {
            generate_s,
            materialize_s,
            recovery_s,
            replayed,
            snap,
        },
    );
    let mut info = common_info(o, &scale);
    info.push(("dominant_layer", Json::str(dominant)));
    info.push(("prefix_units", Json::Num(st.units as f64)));
    info.push((
        "prefix_complete",
        Json::Bool(st.units == scale.prefix && ls.statements == st.stmts),
    ));
    info.push(("untraced_prefix_s", Json::Num(st.busy_s)));
    info.push(("traced_roots_s", Json::Num(ls.time.root / 1e6)));
    info.push(("spans", Json::Num(ls.tracer.spans.len() as f64)));
    info.push(("trace_file", Json::str(trace_file.display().to_string())));
    let replay_failed = ls.counts.get("failed").copied().unwrap_or(0.0) as u64;
    let mut failures = st.failures.clone();
    failures.extend(ls.failures.iter().cloned());
    Ok(Outcome {
        attempted: (st.attempted() + ls.statements).max(1),
        failed: st.failed + replay_failed,
        metrics,
        extra: Vec::new(),
        info,
        failures,
    })
}

struct LayerInputs {
    generate_s: f64,
    materialize_s: f64,
    recovery_s: f64,
    replayed: u64,
    /// `(write ms, read ms, bytes)` of one snapshot.
    snap: (f64, f64, f64),
}

/// Every `spec::PER_LAYER` metric, in that order, and the dominant layer.
fn layer_metrics(st: &RunStats, ls: &LayerStats, x: LayerInputs) -> (Vec<Metric>, &'static str) {
    let span = |name: &str| {
        let v = ls.tracer.durations(name);
        (median(v.clone()), Some(v.len()))
    };
    let derived = |name: &str| {
        let v = ls.derived.get(name).cloned().unwrap_or_default();
        (median(v.clone()), Some(v.len()))
    };
    let count = |name: &str| (ls.counts.get(name).copied().unwrap_or(0.0), None);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let dmls: Vec<f64> = st.dml_us.iter().map(|(_, us)| *us).collect();
    let by_kind = |k: DmlKind| {
        let v: Vec<f64> = st
            .dml_us
            .iter()
            .filter(|(kind, _)| *kind == k)
            .map(|(_, us)| *us)
            .collect();
        (median(v.clone()), Some(v.len()))
    };
    let t = ls.time;
    let shares = [
        ("parser", t.parser),
        ("qgm", t.qgm),
        ("matcher", t.matcher),
        ("engine", t.engine),
        ("persist", t.persist),
        ("sumtab", t.sumtab),
    ];
    let dominant = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |s| s.0);
    let snapshots = st.stall_us.len() as f64;

    let value = |name: &str| -> (f64, Option<usize>) {
        match name {
            "dml_p50_us" => (p(&dmls, 50.0), Some(dmls.len())),
            "dml_p95_us" => (p(&dmls, 95.0), Some(dmls.len())),
            "recovery_s" => (x.recovery_s, None),
            "wal_bytes_per_dml" => (st.wal_bytes_per_dml(), Some(st.wal_dmls())),
            "parser.parse_query_us" => span("parser.parse_query"),
            "parser.parse_dml_us" => span("parser.parse_dml"),
            "qgm.build_us" => span("qgm.build"),
            "qgm.fingerprint_us" => span("qgm.fingerprint"),
            "qgm.render_us" => span("qgm.render"),
            "matcher.filter_us" => span("matcher.filter"),
            "matcher.rewrite_us" => derived("matcher.rewrite"),
            "matcher.cost_us" => derived("matcher.cost"),
            "matcher.match_ratio" => (
                ratio(
                    count("matcher.matches").0,
                    count("matcher.navigator_runs").0,
                ),
                None,
            ),
            "engine.exec_routed_us" => span("engine.exec_routed"),
            "engine.exec_base_us" => span("engine.exec_base"),
            "engine.exec_pool1_us" => span("engine.exec_pool1"),
            "engine.par_speedup" => derived("engine.par_speedup"),
            "engine.columnar_us" => span("engine.columnar"),
            "engine.columnar_rows" => (
                ratio(count("columnar_rows").0, count("columnar_builds").0),
                None,
            ),
            "engine.where_resolve_us" => span("engine.where_resolve"),
            "engine.mutate_us" => span("engine.mutate"),
            "engine.materialize_s" => (x.materialize_s, None),
            "sumtab.plan_miss_us" => span("sumtab.plan_miss"),
            "sumtab.plan_hit_us" => span("sumtab.plan_hit"),
            "sumtab.plan_self_us" => derived("sumtab.plan_self"),
            "sumtab.result_hit_us" => derived("sumtab.result_hit"),
            "sumtab.query_self_us" => derived("sumtab.query_self"),
            "sumtab.plan_cache_hit_rate" => (rate(st.plan.hits, st.plan.misses), None),
            "sumtab.result_cache_hit_rate" => (rate(st.result.hits, st.result.misses), None),
            "sumtab.plan_invalidations" => (st.plan.invalidations as f64, None),
            "sumtab.reroutes" => (st.plan.reroutes as f64, None),
            "sumtab.rewrite_share" => (ratio(st.rewritten as f64, st.queries() as f64), None),
            "sumtab.fallback_share" => (ratio(st.fallbacks as f64, st.queries() as f64), None),
            "sumtab.first_query_after_dml_us" => (
                median(st.first_query_after_dml_us.clone()),
                Some(st.first_query_after_dml_us.len()),
            ),
            "sumtab.maintain_append_us" => span("sumtab.maintain_append"),
            "sumtab.maintain_delete_us" => span("sumtab.maintain_delete"),
            "sumtab.refresh_us" => span("sumtab.refresh"),
            "sumtab.maintained_share" => {
                let (m, r) = (count("maintained").0, count("refreshed").0);
                (ratio(m, m + r), None)
            }
            "sumtab.insert_p50_us" => by_kind(DmlKind::Insert),
            "sumtab.delete_p50_us" => by_kind(DmlKind::Delete),
            "sumtab.update_p50_us" => by_kind(DmlKind::Update),
            "sumtab.dml_self_us" => derived("sumtab.dml_self"),
            "sumtab.replay_us_per_record" => (ratio(x.recovery_s * 1e6, x.replayed as f64), None),
            "persist.wal_append_us" => span("persist.wal_append"),
            "persist.wal_append_nosync_us" => span("persist.wal_append_nosync"),
            "persist.wal_bytes_per_record" => (
                ratio(count("wal_record_bytes").0, count("wal_records").0),
                None,
            ),
            // One sync per appended record; a snapshot syncs its temp file,
            // its directory and the reset log. Computed from the protocol in
            // `sumtab-persist`, not observed: nothing outside the crate
            // counts its syncs.
            "persist.fsyncs" => (dmls.len() as f64 + 3.0 * snapshots, None),
            "persist.snapshots" => (snapshots, None),
            "persist.snapshot_stall_us" => (median(st.stall_us.clone()), Some(st.stall_us.len())),
            "persist.snapshot_write_ms" => (x.snap.0, None),
            "persist.snapshot_read_ms" => (x.snap.1, None),
            "persist.snapshot_bytes" => (x.snap.2, None),
            "datagen.generate_s" => (x.generate_s, None),
            "trace.overhead_share" => (ratio(t.root, st.busy_s * 1e6) - 1.0, None),
            "trace.replay_excess" => (ratio(t.excess, t.root), None),
            "trace.statements" => (ls.statements as f64, None),
            other => match other.strip_prefix("share.") {
                // Over the decomposition's own total: the roots, plus what
                // the replayed steps took beyond them. The shares then sum
                // to 1; `trace.replay_excess` says how far the two differ.
                Some(layer) => (
                    ratio(
                        shares.iter().find(|s| s.0 == layer).map_or(0.0, |s| s.1),
                        t.root + t.excess,
                    ),
                    None,
                ),
                None => count(other),
            },
        }
    };
    let metrics = spec::PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let (value, n) = value(name);
            Metric {
                name,
                value,
                unit,
                n,
            }
        })
        .collect();
    (metrics, dominant)
}

/// Where the benchmark writes: `<target dir>/bench`, next to the binary.
pub fn default_out() -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            let profile = exe.parent()?;
            let is_profile = profile.file_name()? == "release" || profile.file_name()? == "debug";
            is_profile.then(|| profile.parent().map(Path::to_path_buf))?
        })
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("bench")
}
