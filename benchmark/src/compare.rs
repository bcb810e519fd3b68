//! Run files and the `compare A/ B/` verdicts.
//!
//! A run file is what `run --out DIR` writes for one workload run: the
//! workload, seed and host parallelism around the result line the
//! workload printed. `compare` groups the untraced run files of two
//! directories by workload and, for every end-to-end metric, sets the
//! two sets' medians and quartiles side by side and applies the
//! metric's bound.

use crate::spec::{Better, Metric, END_TO_END};
use crate::stats::{median, quartiles, relative_spread};
use eco_core::events::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One workload run, as read back from a run file.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// The run file body: `result` is the workload's printed result line.
pub fn run_file(workload: &str, seed: u64, trace: bool, result: &Json) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .field("workload", Json::str(workload))
        .field("seed", Json::UInt(seed))
        .field("trace", Json::Bool(trace))
        .field("available_parallelism", Json::UInt(parallelism as u64))
        .field("result", result.clone())
}

/// Parses a run file.
pub fn parse_run(text: &str) -> Result<Run, String> {
    let doc = Json::parse(text)?;
    let result = doc.get("result").ok_or("run file: missing result")?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("run file: missing {key}"))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = result.get("metrics") {
        for (name, m) in fields {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("run file: metric {name} has no value"))?;
            metrics.insert(name.clone(), value);
        }
    }
    Ok(Run {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run file: missing workload")?
            .to_string(),
        trace: doc.get("trace").and_then(Json::as_bool).unwrap_or(false),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Every run file (`*.json`) in `dir`.
pub fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// One set's spread exceeds the bound, so the comparison cannot
    /// tell (unless every new run beats every baseline run).
    Unresolved,
    /// Spread too wide to compare medians, but every new run is better
    /// than every baseline run.
    Better,
}

/// Median and quartiles of one set of values.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn summarize(values: &[f64]) -> Option<Summary> {
    let (q1, q3) = quartiles(values)?;
    Some(Summary {
        n: values.len(),
        median: median(values)?,
        q1,
        q3,
    })
}

/// One line of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: Summary,
    pub new: Summary,
    /// How much worse the new median is, as a share of the base median
    /// (negative when better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Applies `m`'s bound to a baseline and a new set of values.
pub fn judge(m: &Metric, base: &[f64], new: &[f64]) -> Option<(f64, Verdict)> {
    let bound = m.bound?;
    let (b, n) = (median(base)?, median(new)?);
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if b == 0.0 {
        0.0
    } else {
        sign * (n - b) / b.abs()
    };
    let spread = relative_spread(base)
        .unwrap_or(0.0)
        .max(relative_spread(new).unwrap_or(0.0));
    let verdict = if spread > bound {
        let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
        let all_better = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some((worse_by, verdict))
}

/// Compares the untraced runs of two sets, per workload and end-to-end
/// metric, plus each workload's failure rate (which may not rise at
/// all). Workloads missing from either set are skipped.
pub fn compare(base: &[Run], new: &[Run]) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let workloads: std::collections::BTreeSet<&str> = base
        .iter()
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    for w in workloads {
        let of = |set: &[Run]| -> Vec<Run> {
            set.iter()
                .filter(|r| !r.trace && r.workload == w)
                .cloned()
                .collect()
        };
        let (b, n) = (of(base), of(new));
        if n.is_empty() {
            continue;
        }
        let rate = |runs: &[Run]| {
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            if attempted == 0 {
                1.0
            } else {
                failed as f64 / attempted as f64
            }
        };
        if rate(&n) > rate(&b) {
            failures.push(format!(
                "{w}: error rate rose from {:.4} to {:.4}",
                rate(&b),
                rate(&n)
            ));
        }
        for m in END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            let (Some(bs), Some(ns), Some((worse_by, verdict))) =
                (summarize(&bv), summarize(&nv), judge(m, &bv, &nv))
            else {
                continue;
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: m.name,
                unit: m.unit,
                base: bs,
                new: ns,
                worse_by,
                bound: m.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    (rows, failures)
}

/// `v` with four decimals, or four significant digits when it is
/// smaller than that shows (a set-up of microseconds).
pub fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints the comparison; the result is whether any metric regressed or
/// the error rate rose.
pub fn print(rows: &[Row], failures: &[String]) -> bool {
    println!(
        "{:<10} {:<13} {:>5}  {:>24}  {:>24}  {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "worse",
        "bound"
    );
    let fmt = |s: &Summary| format!("{} [{}, {}] ({})", num(s.median), num(s.q1), num(s.q3), s.n);
    for r in rows {
        println!(
            "{:<10} {:<13} {:>5}  {:>24}  {:>24}  {:>7.1}% {:>5.0}%  {:?}",
            r.workload,
            r.metric,
            r.unit,
            fmt(&r.base),
            fmt(&r.new),
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    for f in failures {
        println!("REGRESSED: {f}");
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} metrics compared: {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    regressed > 0 || !failures.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, failed: u64, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.to_string(),
            trace: false,
            attempted: 10,
            failed,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn set(wall: &[f64], pps: &[f64]) -> Vec<Run> {
        wall.iter()
            .zip(pps)
            .map(|(&w, &p)| run("tune-cold", 0, &[("wall_s", w), ("points_per_s", p)]))
            .collect()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect(metric)
            .verdict
    }

    #[test]
    fn same_distribution_is_ok() {
        let a = set(&[2.00, 2.02, 1.99], &[500.0, 498.0, 503.0]);
        let b = set(&[2.01, 1.98, 2.03], &[501.0, 499.0, 497.0]);
        let (rows, failures) = compare(&a, &b);
        assert_eq!(rows.len(), 2, "only metrics present in both sets");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        assert!(failures.is_empty());
        assert!(!print(&rows, &failures));
    }

    #[test]
    fn slower_beyond_the_bound_regresses_in_the_metric_direction() {
        let a = set(&[2.00, 2.02, 1.99], &[500.0, 498.0, 503.0]);
        // 35% slower wall time, 35% lower throughput.
        let b = set(&[2.70, 2.71, 2.69], &[325.0, 324.0, 326.0]);
        let (rows, failures) = compare(&a, &b);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "points_per_s"), Verdict::Regressed);
        assert!(print(&rows, &failures), "a regression fails the comparison");
        // The reverse direction is an improvement, not a regression.
        let (rows, _) = compare(&b, &a);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Ok);
        assert!(rows.iter().all(|r| r.worse_by < 0.0));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = set(&[1.0, 2.0, 3.0], &[500.0, 500.0, 500.0]);
        let b = set(&[2.0, 2.5, 3.0], &[500.0, 500.0, 500.0]);
        // (quartile spread of `a`: 100% of its median)
        let (rows, _) = compare(&a, &b);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Unresolved);
        let faster = set(&[0.5, 0.6, 0.7], &[500.0, 500.0, 500.0]);
        let (rows, _) = compare(&a, &faster);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Better);
    }

    #[test]
    fn a_rising_error_rate_fails() {
        let a = vec![run("fig4a", 0, &[("wall_s", 17.0)])];
        let b = vec![run("fig4a", 1, &[("wall_s", 17.0)])];
        let (rows, failures) = compare(&a, &b);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Ok);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(print(&rows, &failures));
    }

    #[test]
    fn run_files_round_trip_and_traced_runs_are_skipped() {
        let result = Json::obj()
            .field("correct", Json::Bool(true))
            .field("attempted", Json::UInt(7))
            .field("failed", Json::UInt(0))
            .field(
                "metrics",
                Json::obj().field(
                    "wall_s",
                    Json::obj()
                        .field("value", Json::Float(2.5))
                        .field("unit", Json::str("s")),
                ),
            );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        for (name, trace) in [("a.json", false), ("b.json", true)] {
            let doc = run_file("tune-warm", 3, trace, &result);
            std::fs::write(dir.join(name), doc.render()).expect("write run file");
        }
        std::fs::write(dir.join("notes.txt"), "ignored").expect("write");
        let runs = load_runs(&dir);
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        let runs = runs.expect("run files parse");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].workload, "tune-warm");
        assert_eq!(runs[0].attempted, 7);
        assert_eq!(runs[0].metrics["wall_s"], 2.5);
        let (rows, _) = compare(&runs, &runs);
        assert_eq!(rows.len(), 1, "the traced run is not compared");
        assert_eq!(rows[0].base.n, 1);
        assert!(parse_run("{}").is_err());
    }
}
