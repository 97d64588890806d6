//! Same-host benchmark of the regnet simulator.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simbench steadiness --rounds <n> --seconds <s> [--seed <first>]
//! ```
//!
//! A run prints each metric as `name value unit`, then, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, the fastest times over
//! a fixed number of untraced set-ups and windows set by `--seconds`;
//! with `--trace 1` they are the per-layer ones from one traced pass. A
//! failed self-check prints `"correct": false` with no metrics and exits
//! with code 1.
//!
//! `steadiness` re-runs this binary round-robin over the workloads, one
//! seed per round, and prints each end-to-end metric's median, quartiles
//! and spread with the host it ran on. README.md has the details.

mod measure;
mod runs;
mod stats;
mod steadiness;
#[cfg(test)]
mod tests;
mod workload;

use std::process::ExitCode;

use runs::Report;
use workload::{Size, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: simbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         simbench steadiness --rounds <n> --seconds <s> [--seed <first>]",
        workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs, each flag at most once.
fn parse_flags(args: &[String]) -> Option<Vec<(String, String)>> {
    if !args.len().is_multiple_of(2) {
        return None;
    }
    let mut out: Vec<(String, String)> = Vec::new();
    for pair in args.chunks(2) {
        let flag = pair[0].strip_prefix("--")?;
        if out.iter().any(|(f, _)| f == flag) {
            return None;
        }
        out.push((flag.to_string(), pair[1].clone()));
    }
    Some(out)
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Option<T> {
    flags
        .iter()
        .find(|(f, _)| f == name)
        .and_then(|(_, v)| v.parse().ok())
}

/// Render a run's result line. Metric values keep every digit
/// (shortest round-trip formatting).
pub fn result_json(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steadiness") {
        let Some(flags) = parse_flags(&args[1..]) else {
            return usage();
        };
        let (Some(rounds), Some(seconds)) = (flag(&flags, "rounds"), flag(&flags, "seconds"))
        else {
            return usage();
        };
        let first_seed = flag(&flags, "seed").unwrap_or(1);
        if rounds < 2 {
            return usage();
        }
        return steadiness::run(rounds, seconds, first_seed);
    }

    let Some(flags) = parse_flags(&args) else {
        return usage();
    };
    let w = flag::<String>(&flags, "workload").and_then(|n| Workload::get(&n, Size::Full));
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (
        w,
        flag::<u64>(&flags, "seed"),
        flag::<f64>(&flags, "seconds"),
        flag::<u8>(&flags, "trace"),
    ) else {
        return usage();
    };
    if trace > 1 || !seconds.is_finite() || seconds <= 0.0 {
        return usage();
    }
    println!(
        "workload {} seed {seed} seconds {seconds} trace {trace} scheduler {} threads_available {} repetitions {}",
        w.name,
        w.scheduler.label(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if trace == 1 { 1 } else { runs::repetitions(&w, seconds) }
    );
    let result = if trace == 1 {
        runs::traced(&w, seed)
    } else {
        runs::end_to_end(&w, seed, seconds)
    };
    match result {
        Ok(report) => {
            for m in &report.metrics {
                println!("{} {:?} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(true, &report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("self-check failed: {e}");
            println!("{}", result_json(false, &Report::new()));
            ExitCode::FAILURE
        }
    }
}
