//! `e2e --compare a.json b.json`: apply each end-to-end metric's bound per
//! workload. Both inputs are `e2e.json` files, each with one or more runs.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regression,
    /// The inputs' own run-to-run spread exceeds the bound, so the pair
    /// cannot be called unchanged.
    Unresolved,
}

/// Values of one `(workload, metric)` across a file's runs.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Judge one pair. `a` is the reference; the ratio printed is `b / a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a.to_vec()), median(b.to_vec()));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    // A zero reference (no failures, say) admits no relative bound: any
    // worsening counts.
    let regressed = if ma == 0.0 || bound == 0.0 {
        worse_by > 0.0
    } else {
        worse_by / ma.abs() > bound
    };
    let verdict = if bound > 0.0 && (spread(a) > bound || spread(b) > bound) {
        Verdict::Unresolved
    } else if regressed {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (ma, mb, verdict)
}

/// Print one row per `(workload, metric)`; returns the number of regressions.
pub fn compare(a: &Json, b: &Json) -> usize {
    println!(
        "{:<17} {:<18} {:>14} {:>14} {:>18} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound"
    );
    let mut regressions = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (values(a, w.name(), m.name), values(b, w.name(), m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            if va.is_empty() || vb.is_empty() {
                println!("{:<17} {:<18} present in only one input", w.name(), m.name);
                regressions += 1;
                continue;
            }
            let (ma, mb, verdict) = judge(&va, &vb, m.better, m.bound);
            let ratio = if ma == 0.0 {
                "n/a (base 0)".to_string()
            } else {
                format!("{:.4} (base {:.4})", mb / ma, ma)
            };
            let verdict = match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => {
                    regressions += 1;
                    "REGRESSION"
                }
            };
            println!(
                "{:<17} {:<18} {:>14.4} {:>14.4} {:>18} {:>7}  {} ({} vs {} runs, {})",
                w.name(),
                m.name,
                ma,
                mb,
                ratio,
                m.bound,
                verdict,
                va.len(),
                vb.len(),
                m.unit
            );
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [60.0, 100.0, 140.0, 90.0, 110.0];
        assert_eq!(judge(&steady, &steady, Better::Lower, 0.1).2, Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.1).2,
            Verdict::Regression
        );
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.1).2, Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.1).2,
            Verdict::Regression
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.1).2,
            Verdict::Unresolved
        );
        // Exact metrics: any worsening is a regression, none is fine.
        assert_eq!(judge(&[80.0], &[80.0], Better::Lower, 0.0).2, Verdict::Ok);
        assert_eq!(
            judge(&[80.0], &[81.0], Better::Lower, 0.0).2,
            Verdict::Regression
        );
        assert_eq!(
            judge(&[0.0], &[0.01], Better::Lower, 0.0).2,
            Verdict::Regression
        );
    }
}
