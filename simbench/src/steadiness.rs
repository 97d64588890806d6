//! Steadiness mode: interleaved end-to-end runs and their spread.
//!
//! The host's speed drifts for seconds to minutes, so back-to-back runs of
//! one workload see one host state. Rounds here visit every workload once
//! (round `r` uses seed `first + r`), so each workload's samples span the
//! same stretch of time. Each run is a child process, exactly as a single
//! benchmark invocation would be.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use regnet::metrics::json::JsonValue;

use crate::stats::{median, quartiles};
use crate::workload::NAMES;

fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("host: nproc {nproc}, cpu {cpu}, kernel {kernel}")
}

/// Run one child benchmark and return its metrics as `(name, value)`.
fn run_child(name: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = JsonValue::parse(last).map_err(|e| format!("{name} seed {seed}: {e}"))?;
    if !out.status.success() || v.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!(
            "{name} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let metrics = v
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

pub fn run(rounds: u64, seconds: f64, first_seed: u64) -> ExitCode {
    println!("{}", host_line());
    println!(
        "rounds {rounds}, seconds {seconds}, seeds {first_seed}..{}",
        first_seed + rounds
    );
    let mut samples: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    for r in 0..rounds {
        for (i, name) in NAMES.iter().enumerate() {
            match run_child(name, first_seed + r, seconds) {
                Ok(metrics) => {
                    for (k, v) in metrics {
                        samples.entry((i, k)).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        eprintln!("round {} of {rounds} done", r + 1);
    }
    println!(
        "{:<24} {:<26} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for ((i, metric), v) in &samples {
        let [q1, _, q3] = quartiles(v);
        let med = median(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "{:<24} {:<26} {:>14.6e} {:>14.6e} {:>14.6e} {:>8.4}",
            NAMES[*i], metric, q1, med, q3, spread
        );
    }
    println!("samples, in round order:");
    for ((i, metric), v) in &samples {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.5e}")).collect();
        println!("{:<24} {:<26} {}", NAMES[*i], metric, v.join(" "));
    }
    ExitCode::SUCCESS
}
