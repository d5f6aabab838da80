//! Pins the benchmark's names: runs all four workloads with `--quick`
//! (2,000 fact rows, tens of statements), traced and untraced, and checks the
//! emitted JSON against `spec` and against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use sumtab_e2e::json::Json;
use sumtab_e2e::spec::{contract_end_to_end, END_TO_END, PER_LAYER, WORKLOADS};

fn out_dir(tag: &str) -> PathBuf {
    // Under the build's target directory: the benchmark writes nowhere else.
    let dir = Path::new(env!("CARGO_BIN_EXE_e2e"))
        .parent()
        .expect("binary has a directory")
        .join(format!("e2e-smoke-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_lists_the_spec() {
    let b = benchmark_json();
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(names(b.get("workloads").expect("workloads")), workloads);
    for (w, listed) in WORKLOADS.iter().zip(
        b.get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads"),
    ) {
        assert_eq!(
            listed.get("why").and_then(Json::as_str),
            Some(w.why()),
            "{}",
            w.name()
        );
    }
    let e2e: Vec<&str> = contract_end_to_end().map(|m| m.name).collect();
    assert_eq!(names(b.get("end_to_end").expect("end_to_end")), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names(b.get("per_layer").expect("per_layer")), layers);
    for m in b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let spec = END_TO_END.iter().find(|s| s.name == name).expect("in spec");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(spec.unit),
            "{name}"
        );
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(spec.better.as_str()),
            "{name}"
        );
        assert_eq!(
            m.get("bound").and_then(Json::as_f64),
            Some(spec.bound),
            "{name}"
        );
    }
    // Every DML-side end-to-end metric is still measured: as a per-layer one.
    for m in END_TO_END.iter().filter(|m| m.dml_only) {
        assert!(
            layers.contains(&m.name),
            "{} missing from per_layer",
            m.name
        );
    }
}

#[test]
fn all_workloads_quick() {
    let out = out_dir("all");
    let status = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--quick", "--trace", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("spawn e2e");
    assert!(status.success(), "e2e --quick --trace exited with {status}");
    let doc = Json::parse(&std::fs::read_to_string(out.join("e2e.json")).expect("e2e.json"))
        .expect("e2e.json parses");
    let run = &doc.get("runs").and_then(Json::as_arr).expect("runs")[0];
    let workloads = run
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(
        workloads
            .iter()
            .map(|(k, _)| k.as_str())
            .collect::<Vec<_>>(),
        expected
    );
    for (w, (name, entry)) in WORKLOADS.iter().zip(workloads) {
        let metrics = entry
            .get("end_to_end")
            .and_then(Json::as_obj)
            .expect("end_to_end");
        let want: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| !m.dml_only || w.is_dml())
            .map(|m| m.name)
            .collect();
        let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        got.sort_unstable();
        let mut sorted = want.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted, "{name}: end-to-end metric names");
        let layers = entry
            .get("per_layer")
            .and_then(Json::as_obj)
            .expect("per_layer");
        assert_eq!(
            layers.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>(),
            "{name}: per-layer metric names"
        );
        for (metric, v) in metrics.iter().chain(layers) {
            let value = v.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name}.{metric} = {value:?}"
            );
        }
        let value = |m: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == m)
                .and_then(|(_, v)| v.get("value")?.as_f64())
        };
        assert_eq!(value("failed_share"), Some(0.0), "{name}");
        assert!(value("stmts_per_s") > Some(0.0), "{name}");
        let shares: f64 = layers
            .iter()
            .filter(|(k, _)| k.starts_with("share."))
            .filter_map(|(_, v)| v.get("value")?.as_f64())
            .sum();
        assert!(
            (shares - 1.0).abs() < 0.01,
            "{name}: shares sum to {shares}"
        );
    }
    // Nothing is left behind but the result files.
    assert!(std::fs::read_dir(out.join("tmp")).map_or(true, |mut d| d.next().is_none()));
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn result_line_is_the_contracts() {
    let b = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = out_dir(&format!("line{trace}"));
        let run = Command::new(env!("CARGO_BIN_EXE_e2e"))
            .args([
                "--workload",
                "adhoc_rewrite",
                "--seed",
                "5",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--quick", "--out"])
            .arg(&out)
            .output()
            .expect("spawn e2e");
        assert!(run.status.success());
        let stdout = String::from_utf8(run.stdout).expect("utf-8");
        let line = Json::parse(stdout.trim_end().lines().last().expect("a last line"))
            .expect("the last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        let metrics: Vec<&str> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(metrics, names(b.get(list).expect(list)), "--trace {trace}");
        std::fs::remove_dir_all(&out).ok();
    }
}
