//! perfbench: the repository benchmark.
//!
//! Runs one named workload against the public APIs of `ap_serve`, `ap_knn`
//! and `ap_sim`, checks every output against a host oracle, and prints the
//! workload's metrics. With `--trace 0` it reports the end-to-end metrics
//! (tracing off); with `--trace 1` it records spans around the calls into
//! each layer and reports the per-layer metrics derived from them.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is non-zero
//! on any wrong answer or broken invariant.

mod offline;
mod regex;
mod report;
mod schedule;
mod serving;
mod stats;
mod trace;

use report::{Outcome, Provenance};
use std::path::PathBuf;
use std::time::Duration;

/// Seed reserved for confirming future claims; never tune against it.
pub const HELD_OUT_SEED: u64 = 20_170_529;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["knn-offline", "knn-open", "knn-churn", "regex-dict"];

/// What one run is asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
}

impl RunConfig {
    /// Where a traced run writes its spans (inside the working directory).
    pub fn span_path(&self, workload: &str) -> PathBuf {
        PathBuf::from(".perfbench_out").join(format!("spans-{workload}-seed{}.jsonl", self.seed))
    }

    /// Scratch space for durable state (inside the working directory).
    pub fn scratch_dir(&self, what: &str) -> PathBuf {
        PathBuf::from(".perfbench_out").join(format!("{what}-{}", std::process::id()))
    }
}

fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    let mut outcome = match name {
        "knn-offline" => offline::run(cfg),
        "knn-open" => serving::run_open(cfg),
        "knn-churn" => serving::run_churn(cfg),
        "regex-dict" => regex::run(cfg),
        _ => unreachable!("workload names are checked at parse time"),
    };
    if !outcome.values.contains_key("peak_rss_mb") {
        report::set_peak_rss(&mut outcome);
    }
    outcome
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .unwrap_or_else(|| usage("--seconds must be 1..=600")),
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if let Some(&w) = WORKLOADS.iter().find(|&&w| w == workload) {
        vec![w]
    } else {
        usage(&format!("unknown workload {workload}"))
    };
    let cfg = RunConfig {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: Duration::from_secs(seconds.unwrap_or_else(|| usage("--seconds is required"))),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
    };

    let mut all_correct = true;
    for name in names {
        let (steal0, t0) = (report::steal_ticks(), std::time::Instant::now());
        let mut outcome = run_workload(name, &cfg);
        // Host steal is no metric of the program, but it explains outliers.
        // `/proc/stat` counts in USER_HZ ticks, 100 per second.
        if let (Some(a), Some(b)) = (steal0, report::steal_ticks()) {
            let cpu_s = t0.elapsed().as_secs_f64() * report::nproc() as f64;
            let share = (b - a) as f64 / 100.0 / cpu_s;
            outcome.notes.push(format!(
                "host steal {:.1}% of CPU time during the run",
                share * 100.0
            ));
        }
        let prov = Provenance {
            workload: name,
            seed: cfg.seed,
            held_out: cfg.seed == HELD_OUT_SEED,
            traced: cfg.traced,
            seconds: cfg.seconds.as_secs(),
        };
        all_correct &= report::emit(&prov, &outcome);
    }
    let _ = std::fs::remove_dir(".perfbench_out");
    if !all_correct {
        std::process::exit(1);
    }
}
