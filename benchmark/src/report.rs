//! Result lines, and the modes built on whole-suite runs: `suite`,
//! `repeat N` (the noise evidence behind the bounds), `diff A B` and
//! `check`.
//!
//! Every workload runs in a process of its own (a child of this binary in
//! driver mode), so `peak_rss_mb` belongs to one workload and a wedged
//! server cannot take the others down.

use std::process::Command;

use crate::catalog::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::run::{write_out, Outcome};
use crate::stats::{median, quartile_spread};

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` — every end-to-end metric of an untraced run, every
/// per-layer metric of a traced one, and nothing else. `detail` adds the
/// exact counts `check` compares (never set by the driver).
pub fn result_line(outcome: &Outcome, trace: bool, detail: bool) -> Result<Json, String> {
    let catalog: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !catalog.iter().any(|m| m.name == *name))
    {
        return Err(format!("metric {extra} is not in the catalog"));
    }
    let mut metrics = Vec::with_capacity(catalog.len());
    for m in catalog {
        let (_, value) = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        metrics.push((
            m.name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]),
        ));
    }
    let mut line = vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ];
    if detail {
        let exact = outcome.exact.iter().map(|(k, v)| (*k, Json::Num(*v)));
        line.push(("exact", Json::obj(exact)));
    }
    Ok(Json::obj(line))
}

/// Prints the metrics as an aligned table on stderr.
pub fn print_table(workload: &str, outcome: &Outcome) {
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| w.why);
    eprintln!("{workload} — {why}");
    eprintln!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for (name, value) in &outcome.metrics {
        let unit = crate::catalog::metric(name).map_or("", |m| m.unit);
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    if !outcome.whole_window.is_empty() {
        eprintln!("  over every operation of the window (not gated):");
        for (name, value) in &outcome.whole_window {
            eprintln!("    {name:<30} {value:>14.4}");
        }
    }
}

/// What the suite modes pass down to each workload's process.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub rounds: Option<usize>,
    pub quick: bool,
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment record written into every result file.
fn environment(options: &SuiteOptions) -> Json {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "kernel",
            Json::str(first_line("/proc/sys/kernel/osrelease")),
        ),
        ("commit", Json::str(commit)),
        ("seconds", Json::Num(options.seconds)),
        (
            "rounds",
            options.rounds.map_or(Json::Null, |r| Json::Num(r as f64)),
        ),
        ("quick", Json::Bool(options.quick)),
    ])
}

/// Runs one workload in a child process and returns its result object.
fn run_child(
    workload: &str,
    options: &SuiteOptions,
    seed: u64,
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail");
    if let Some(rounds) = options.rounds {
        command.args(["--rounds", &rounds.to_string()]);
    }
    if options.quick {
        command.arg("--quick");
    }
    // `output` waits for the child; its stderr passes through.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{workload} result line: {e}"))
}

/// One pass over all four workloads: `{"seed": …, "workloads": {name: result}}`.
fn suite_once(options: &SuiteOptions, seed: u64, trace: bool) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        eprintln!("--- {} (seed {seed}, trace {}) ---", w.name, trace as u8);
        workloads.push((w.name, run_child(w.name, options, seed, trace)?));
    }
    Ok(Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("workloads", Json::obj(workloads)),
    ]))
}

fn results_file(options: &SuiteOptions, runs: Vec<Json>) -> Json {
    Json::obj([("env", environment(options)), ("runs", Json::Arr(runs))])
}

fn metric_value(run: &Json, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed_ops(run: &Json) -> f64 {
    WORKLOADS
        .iter()
        .filter_map(|w| run.get("workloads")?.get(w.name)?.get("failed")?.as_f64())
        .sum()
}

/// `suite`: every workload once, untraced and traced; writes
/// `out/result.json` and `out/layers.json`. Returns the process exit code.
pub fn suite(options: &SuiteOptions) -> Result<i32, String> {
    let end_to_end = suite_once(options, options.seed, false)?;
    let layers = suite_once(options, options.seed, true)?;
    let failed = failed_ops(&end_to_end) + failed_ops(&layers);
    write_out("result.json", &results_file(options, vec![end_to_end]));
    write_out("layers.json", &results_file(options, vec![layers]));
    eprintln!("wrote out/result.json and out/layers.json; {failed} operations failed");
    Ok((failed > 0.0) as i32)
}

/// Values of one workload × metric across the runs of a results file.
fn series(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| metric_value(run, workload, metric))
        .collect()
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        })
}

fn range_share(values: &[f64]) -> f64 {
    let (lo, hi) = min_max(values);
    (hi - lo) / median(values)
}

/// `repeat N`: the suite N times on seeds `seed, seed+1, …`; prints per
/// workload × end-to-end metric the median, min, max, (max − min)/median
/// and the quartile spread the driver uses, against the bound; writes
/// `out/noise.json`.
pub fn repeat(options: &SuiteOptions, n: usize) -> Result<i32, String> {
    let mut runs = Vec::with_capacity(n);
    for i in 0..n {
        runs.push(suite_once(options, options.seed + i as u64, false)?);
    }
    let failed: f64 = runs.iter().map(failed_ops).sum();
    let mut rows = Vec::new();
    let mut over = 0;
    println!(
        "{:<13} {:<18} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "workload", "metric", "median", "min", "max", "range", "iqr", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = series(&runs, w.name, m.name);
            if values.is_empty() {
                continue;
            }
            // Quartiles of fewer than four runs say nothing; fall back on
            // the full range for the verdict.
            let range = range_share(&values);
            let iqr = if values.len() >= 4 {
                quartile_spread(&values)
            } else {
                range
            };
            let (lo, hi) = min_max(&values);
            let flag = if iqr > m.bound { " OVER" } else { "" };
            over += (iqr > m.bound) as i32;
            println!(
                "{:<13} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>8.2}% {:>6.1}%{flag}",
                w.name,
                m.name,
                median(&values),
                lo,
                hi,
                range * 100.0,
                iqr * 100.0,
                m.bound * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("metric", Json::str(m.name)),
                ("median", Json::Num(median(&values))),
                ("min", Json::Num(lo)),
                ("max", Json::Num(hi)),
                ("range_over_median", Json::Num(range)),
                ("quartile_spread", Json::Num(iqr)),
                ("bound", Json::Num(m.bound)),
            ]));
        }
    }
    let mut file = results_file(options, runs);
    if let Json::Obj(pairs) = &mut file {
        pairs.push(("noise".into(), Json::Arr(rows)));
    }
    write_out("noise.json", &file);
    eprintln!("wrote out/noise.json; {over} spreads over their bound; {failed} operations failed");
    Ok((failed > 0.0 || over > 0) as i32)
}

/// The verdict of `diff` on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: the data cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares side B with side A (the base) on one metric. `worse` is the
/// change of the median as a share of A's, positive when B is worse.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (base, new) = (median(a), median(b));
    let change = (new - base) / base;
    let worse = match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread_of = |v: &[f64]| {
        if v.len() >= 4 {
            quartile_spread(v)
        } else if v.len() >= 2 {
            range_share(v)
        } else {
            0.0
        }
    };
    let spread = spread_of(a).max(spread_of(b));
    let verdict = if spread > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regressed
    } else if worse < -spread && worse != 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, spread, verdict)
}

fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    file.get("runs")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path} has no \"runs\""))
}

/// `diff A B`: one row per workload × end-to-end metric, A as the base.
pub fn diff(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load_runs(path_a)?, load_runs(path_b)?);
    println!(
        "base A = {path_a} ({} runs), B = {path_b} ({} runs)",
        a.len(),
        b.len()
    );
    println!(
        "{:<13} {:<18} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "spread", "bound"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (series(&a, w.name, m.name), series(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (_, spread, verdict) = verdict(m, &va, &vb);
            regressed += (verdict == Verdict::Regressed) as i32;
            println!(
                "{:<13} {:<18} {:>12.4} {:>12.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {} (of A's {:.4} {}, {} is better)",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                (median(&vb) - median(&va)) / median(&va) * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                verdict.as_str(),
                median(&va),
                m.unit,
                m.better.as_str(),
            );
        }
    }
    Ok((regressed > 0) as i32)
}

/// `check`: every workload twice on one seed with a fixed number of
/// rounds, untraced and traced. Exits nonzero if any operation failed or
/// any exact count differs between the two runs.
pub fn check(options: &SuiteOptions) -> Result<i32, String> {
    let mut problems = 0;
    for trace in [false, true] {
        let first = suite_once(options, options.seed, trace)?;
        let second = suite_once(options, options.seed, trace)?;
        for w in &WORKLOADS {
            let exact = |run: &Json| -> Vec<(String, f64)> {
                run.get("workloads")
                    .and_then(|ws| ws.get(w.name))
                    .and_then(|r| r.get("exact"))
                    .and_then(Json::as_obj)
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                            .collect()
                    })
                    .unwrap_or_default()
            };
            for ((name, a), (_, b)) in exact(&first).into_iter().zip(exact(&second)) {
                // One exception: a `DatabaseLoaded` reply lists the tenants
                // the admission demoted, and which tenant is least recently
                // used when two clients race is a matter of timing — a few
                // bytes in hundreds of kilobytes.
                let tolerance = if w.name == "tenant_churn" && name == "wire_bytes_per_op" {
                    1e-4
                } else {
                    0.0
                };
                let same = (a - b).abs() <= tolerance * a.abs();
                println!(
                    "{:<13} {:<24} {:>16.4} {:>16.4}  {}",
                    w.name,
                    name,
                    a,
                    b,
                    if same { "same" } else { "DIFFERS" }
                );
                problems += !same as i32;
            }
        }
        let failed = failed_ops(&first) + failed_ops(&second);
        if failed > 0.0 {
            println!("{failed} operations failed");
            problems += 1;
        }
    }
    Ok((problems > 0) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::metric;

    fn outcome(metrics: Vec<(&'static str, f64)>) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            metrics,
            whole_window: Vec::new(),
            exact: vec![("attempted", 10.0)],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let full: Vec<_> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(&outcome(full.clone()), false, false).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics").unwrap().get("qps").unwrap().get("unit"),
            Some(&Json::str("ops/s"))
        );
        // A missing or an unknown metric is refused, not silently dropped.
        assert!(result_line(&outcome(full[1..].to_vec()), false, false).is_err());
        let mut extra = full;
        extra.push(("core.sweep_ms", 1.0));
        assert!(result_line(&outcome(extra), false, false).is_err());
        // The traced line carries the per-layer names instead.
        let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        let traced = result_line(&outcome(layers), true, true).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
        assert!(traced.get("exact").is_some());
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let latency = metric("latency_p50_ms").unwrap();
        let qps = metric("qps").unwrap();
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let v = |m, a: &[f64], b: &[f64]| verdict(m, a, b).2;
        assert_eq!(v(latency, &steady, &steady), Verdict::Unchanged);
        assert_eq!(v(latency, &steady, &[14.0; 5]), Verdict::Regressed);
        assert_eq!(v(latency, &steady, &[8.0; 5]), Verdict::Improved);
        // Higher is better for qps: the same numbers read the other way.
        assert_eq!(v(qps, &steady, &[14.0; 5]), Verdict::Improved);
        assert_eq!(v(qps, &steady, &[6.0; 5]), Verdict::Regressed);
        // A spread wider than the bound resolves nothing.
        let noisy = [6.0, 10.0, 14.0, 8.0, 12.0];
        assert_eq!(v(latency, &noisy, &[20.0; 5]), Verdict::Unresolved);
    }
}
