//! Command line of the `e2e` binary.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (what the driver runs)
//! e2e [--seed n] [--seconds s] [--trace] [--runs n] [--quick]    all four, one child process each
//! e2e --compare a.json b.json                                    apply the bounds to two result files
//! e2e --check-determinism [--seed n] [--quick]                   same seed twice: counts must repeat
//! ```

use crate::compare::compare;
use crate::json::Json;
use crate::report::{default_out, rss_probe, run_workload, Options};
use crate::spec::{Workload, DETERMINISTIC, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use std::path::{Path, PathBuf};
use std::process::Command;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    check_determinism: bool,
    rss_probe: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: default_out(),
        compare: None,
        check_determinism: false,
        rss_probe: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                a.seconds = Some(s);
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--quick" => a.quick = true,
            "--check-determinism" => a.check_determinism = true,
            // Internal: the untraced run starts this as a child of its own.
            "--rss-probe" => a.rss_probe = true,
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            // `--trace 0|1` as the driver passes it, or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, v: &Json) -> Result<(), String> {
    std::fs::write(path, v.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_file(out: &Path, w: Workload, trace: bool) -> PathBuf {
    out.join(format!("{}.trace{}.json", w.name(), u8::from(trace)))
}

pub fn main(args: Vec<String>) -> i32 {
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return 2;
        }
    };
    let outcome = if let Some((x, y)) = &a.compare {
        read_json(x).and_then(|x| {
            let regressions = compare(&x, &read_json(y)?);
            println!("{regressions} regression(s)");
            Ok(i32::from(regressions > 0))
        })
    } else if a.check_determinism {
        check_determinism(&a)
    } else if let Some(w) = a.workload {
        one(&a, w)
    } else {
        all(&a)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        2
    })
}

fn seconds(a: &Args) -> f64 {
    a.seconds.unwrap_or(if a.quick { 1.0 } else { 10.0 })
}

/// One workload in this process. The last line of standard output is the
/// result object the driver reads.
fn one(a: &Args, w: Workload) -> Result<i32, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let o = Options {
        workload: w,
        seed: a.seed,
        seconds: seconds(a),
        trace: a.trace,
        quick: a.quick,
        out: a.out.clone(),
    };
    if a.rss_probe {
        return rss_probe(&o).map(|()| 0);
    }
    let outcome = run_workload(&o)?;
    outcome.print_table(&o);
    write_json(&result_file(&a.out, w, a.trace), &outcome.to_json(&o))?;
    println!("{}", outcome.result_line());
    Ok(i32::from(!outcome.correct()))
}

/// Run one workload in a child process of its own (clean `VmHWM`, clean
/// `matcher::stats` globals) and read back what it measured. Children run
/// one at a time.
fn child(a: &Args, w: Workload, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds(a).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out);
    if a.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let file = result_file(&a.out, w, trace);
    match (status.code(), read_json(&file)) {
        // 1 = ran to the end with failed answers; the file says which.
        (Some(0 | 1), Ok(v)) => Ok(v),
        (code, _) => Err(format!("{} (trace {trace}) exited with {code:?}", w.name())),
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median and quartiles of every end-to-end metric over the runs, per
/// workload (quartiles need two runs or more).
fn summary(runs: &[Json]) -> Json {
    let per_workload = WORKLOADS.map(|w| {
        let metrics = END_TO_END.iter().filter_map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.get("workloads")?
                        .get(w.name())?
                        .get("end_to_end")?
                        .get(m.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            if values.is_empty() {
                return None;
            }
            let mut fields = vec![
                ("median", Json::Num(median(values.clone()))),
                ("runs", Json::Num(values.len() as f64)),
                ("unit", Json::str(m.unit)),
            ];
            if let Some((q1, _, q3)) = quartiles(values) {
                fields.push(("q1", Json::Num(q1)));
                fields.push(("q3", Json::Num(q3)));
            }
            Some((m.name, Json::obj(fields)))
        });
        (w.name(), Json::obj(metrics))
    });
    Json::obj(per_workload)
}

/// All four workloads, `--runs` times over, into `<out>/e2e.json`.
fn all(a: &Args) -> Result<i32, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let mut runs = Vec::new();
    let mut failed = 0.0;
    for i in 0..a.runs.max(1) as u64 {
        let seed = a.seed + i;
        let mut workloads = Vec::new();
        for w in WORKLOADS {
            let e2e = child(a, w, seed, false)?;
            failed += e2e.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
            let mut entry = vec![
                ("end_to_end", field(&e2e, "metrics")),
                ("attempted", field(&e2e, "attempted")),
                ("failed", field(&e2e, "failed")),
                ("info", field(&e2e, "info")),
            ];
            if a.trace {
                let layers = child(a, w, seed, true)?;
                failed += layers.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
                entry.push(("per_layer", field(&layers, "metrics")));
                entry.push(("trace_info", field(&layers, "info")));
            }
            workloads.push((w.name(), Json::obj(entry)));
        }
        runs.push(Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::obj(workloads)),
        ]));
    }
    let doc = Json::obj([
        (
            "meta",
            Json::obj([
                ("bench", Json::str("e2e")),
                ("nproc", Json::Num(crate::fixture::nproc() as f64)),
                ("exec_pool", Json::Num(crate::fixture::pool_size() as f64)),
                ("rustc", Json::str(rustc_version())),
                ("seconds", Json::Num(seconds(a))),
                ("quick", Json::Bool(a.quick)),
                (
                    "note",
                    Json::str(
                        "latencies are the sandbox's, not a device's: fsync may be cheap here",
                    ),
                ),
            ]),
        ),
        ("summary", summary(&runs)),
        ("runs", Json::Arr(runs)),
    ]);
    let file = a.out.join("e2e.json");
    write_json(&file, &doc)?;
    println!("wrote {}", file.display());
    if failed > 0.0 {
        println!("failed_share > 0: {failed} failed statement(s) or check(s)");
    }
    Ok(i32::from(failed > 0.0))
}

/// Two traced runs per workload with one seed: every count that does not
/// depend on the latency-feedback router must be identical.
fn check_determinism(a: &Args) -> Result<i32, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let mut mismatches = 0;
    for w in WORKLOADS {
        let first = child(a, w, a.seed, true)?;
        let second = child(a, w, a.seed, true)?;
        let value = |run: &Json, name: &str| {
            run.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
        for name in DETERMINISTIC {
            let (x, y) = (value(&first, name), value(&second, name));
            let same = x.is_some() && x == y;
            mismatches += usize::from(!same);
            println!(
                "{:<17} {:<30} {:>18} {:>18}  {}",
                w.name(),
                name,
                show(x),
                show(y),
                if same { "same" } else { "DIFFERS" }
            );
        }
        println!(
            "{:<17} {:<30} {:>18} {:>18}  follows measured latencies; not compared",
            w.name(),
            "sumtab.reroutes",
            show(value(&first, "sumtab.reroutes")),
            show(value(&second, "sumtab.reroutes"))
        );
    }
    println!("{mismatches} mismatch(es)");
    Ok(i32::from(mismatches > 0))
}
