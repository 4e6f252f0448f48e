//! The two extra modes. Neither changes a metric's definition.
//!
//! `noise` prints 60 s of reference-kernel timings, one line per second:
//! what the host's speed regimes look like to the calibrated clock.
//!
//! `selfcheck` is the acceptance test the driver applies, run locally:
//! two sets of ten runs per workload, each run with another seed, then
//! every end-to-end cell's middle-half spread against its bound (raw and
//! calibrated where both exist) and the drift between the two sets'
//! medians. It is stricter than the driver in one place: the driver does
//! not hold `setup_s` to its spread, this does.

use crate::calib::{iqr_share, median, quantile, RefKernel};
use crate::gen::Workload;
use escape_json::Value;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

pub fn noise() -> Result<(), String> {
    let mut kernel = RefKernel::new();
    kernel.run();
    println!("second   calls   min_ms   p50_ms   p90_ms   max_ms");
    for second in 0..60 {
        let until = Instant::now() + Duration::from_secs(1);
        let mut ms = Vec::new();
        while Instant::now() < until {
            ms.push(kernel.time_ms());
        }
        println!(
            "{second:>6} {:>7} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            ms.len(),
            quantile(&ms, 0.0),
            median(&ms),
            quantile(&ms, 0.9),
            quantile(&ms, 1.0)
        );
    }
    Ok(())
}

/// Metric name → (unit, higher is better, bound), read from the
/// `BENCHMARK.json` the driver reads.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// One child run: its result line's metrics plus the raw `host.*`
/// twins it prints beside them, and its digest.
fn child_run(
    escaped: &Path,
    w: Workload,
    seed: u64,
    seconds: u64,
) -> Result<(Vec<(String, f64)>, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--escaped")
        .arg(escaped)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = Value::parse(last).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("child run was not correct:\n{stdout}"));
    }
    let Some(Value::Obj(fields)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let mut metrics: Vec<(String, f64)> = fields
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    for line in stdout.lines().filter(|l| l.starts_with("host.")) {
        let mut tokens = line.split_whitespace();
        if let (Some(k), Some(Ok(v))) = (tokens.next(), tokens.next().map(str::parse)) {
            metrics.push((k.to_string(), v));
        }
    }
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("virtual_digest"))
        .unwrap_or("");
    Ok((metrics, digest.to_string()))
}

/// Uncalibrated twins of `requests_per_s` and `redeploy_p50_ms`, printed
/// beside them for comparison.
const RAW_TWINS: [&str; 2] = ["host.raw_requests_per_s", "host.raw_redeploy_p50_ms"];

pub fn selfcheck(escaped: &Path, seconds: u64, only: Option<Workload>) -> Result<(), String> {
    let mut bounds = bounds()?;
    let gated = bounds.len();
    for raw in RAW_TWINS {
        bounds.push((raw.to_string(), false, f64::NAN));
    }
    let mut worst: f64 = 0.0;
    let mut failures = Vec::new();
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        // sets[set][metric] = ten values
        let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
        for set in 0..2u64 {
            let mut cells = vec![Vec::new(); bounds.len()];
            for run in 0..10u64 {
                let seed = 1_000 * (set + 1) + run;
                let (metrics, digest) = child_run(escaped, w, seed, seconds)?;
                for (i, (name, _, _)) in bounds.iter().enumerate() {
                    let v = metrics
                        .iter()
                        .find(|(k, _)| k == name)
                        .ok_or(format!("run printed no {name}"))?
                        .1;
                    cells[i].push(v);
                }
                eprintln!("{} set {set} run {run} seed {seed}: {digest}", w.name());
            }
            sets.push(cells);
        }
        println!("\n{}", w.name());
        println!(
            "{:<20} {:>12} {:>9} {:>12} {:>9} {:>9} {:>7}",
            "metric", "median_1", "spread_1", "median_2", "spread_2", "shift", "bound"
        );
        for (i, (name, higher, bound)) in bounds.iter().enumerate() {
            let (m1, m2) = (median(&sets[0][i]), median(&sets[1][i]));
            let (s1, s2) = (iqr_share(&sets[0][i]), iqr_share(&sets[1][i]));
            // How much worse the second set's median is than the first's.
            let shift = if *higher {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            println!(
                "{name:<20} {m1:>12.4} {s1:>9.4} {m2:>12.4} {s2:>9.4} {shift:>9.4} {bound:>7.2}"
            );
            if i >= gated {
                continue; // raw twin: shown, not gated
            }
            worst = worst.max(s1 / bound).max(s2 / bound);
            if s1 > *bound || s2 > *bound {
                failures.push(format!(
                    "{}: {name} spread {s1:.3}/{s2:.3} > {bound}",
                    w.name()
                ));
            }
            if shift > *bound {
                failures.push(format!(
                    "{}: {name} second median worse by {shift:.3} > {bound}",
                    w.name()
                ));
            }
        }
    }
    println!("\nworst spread as a share of its bound: {worst:.2} (target: below 0.33)");
    if failures.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n{}", failures.join("\n")))
    }
}
