//! Metric catalogue, per-run outcome, provenance and the result line.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: measured with tracing off, reported by every
/// workload (see `perfbench/METRICS.md` for each workload's definition).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput", "1/s"),
    m("latency_p50_ms", "ms"),
    m("latency_p90_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics: derived by the traced run. A layer a workload never
/// calls reports 0 with n = 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("binvec.generate_ms", "ms"),
    m("sim.lane_pass_ms", "ms"),
    m("sim.scalar_mb_s", "MB/s"),
    m("sim.elements", "count"),
    m("sim.board_images", "count"),
    m("sim.reports_per_query", "count"),
    m("knn.build_ms", "ms"),
    m("knn.compile_ms", "ms"),
    m("knn.encode_ms", "ms"),
    m("knn.simulate_ms", "ms"),
    m("knn.decode_ms", "ms"),
    m("knn.finalize_ms", "ms"),
    m("knn.simulate_share", "ratio"),
    m("knn.batch_p50_ms", "ms"),
    m("knn.batch_p90_ms", "ms"),
    m("knn.ledger_gap_share", "ratio"),
    m("knn.lane_fill", "ratio"),
    m("knn.pool_fresh", "count"),
    m("live.staleness_mean_ms", "ms"),
    m("live.delta_vectors", "count"),
    m("live.tombstones", "count"),
    m("live.compactions", "count"),
    m("wal.fsyncs_per_mutation", "ratio"),
    m("wal.group_mean", "count"),
    m("runtime.queue_wait_mean_ms", "ms"),
    m("runtime.batch_mean", "count"),
    m("runtime.busy_share", "ratio"),
    m("runtime.refused", "count"),
    m("backend.batch_ms", "ms"),
    m("cache.hit_rate", "ratio"),
    m("net.frame_encode_us", "us"),
    m("net.frame_decode_us", "us"),
    m("net.overhead_ms", "ms"),
    m("gen.lag_p90_ms", "ms"),
    m("model.qps", "1/s"),
    m("model.cycles_per_query", "count"),
    m("model.reconfigurations", "count"),
    m("trace.overhead_share", "ratio"),
];

/// One measured value with its unit and sample count.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, mutations, haystack chunks).
    pub attempted: u64,
    /// Failed, refused or wrong operations.
    pub failed: u64,
    /// Operations whose output disagreed with the host oracle (also counted
    /// in `failed`).
    pub wrong: u64,
    /// Broken invariants (conservation, traced == untraced, ...).
    pub violations: Vec<String>,
    /// Every figure the run produced, by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Free-form lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, n: u64) {
        self.values.insert(name, Value { value, unit, n });
    }

    /// Records `value` when the honest-percentile rule produced one; a
    /// missing percentile is noted rather than invented.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, unit: &'static str, n: u64) {
        match value {
            Some(v) => self.set(name, v, unit, n),
            None => self
                .notes
                .push(format!("{name}: too few samples (n={n}) to report")),
        }
    }

    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    pub fn wrong_answers(&mut self, count: u64) {
        self.wrong += count;
        self.failed += count;
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.violations.is_empty()
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Records `peak_rss_mb` (a workload calls this itself when work after its
/// measured phase, such as extra set-up repetitions, must not count).
pub fn set_peak_rss(outcome: &mut Outcome) {
    match peak_rss_mb() {
        Some(mb) => outcome.set("peak_rss_mb", mb, "MB", 1),
        None => outcome.violation("VmHWM unavailable in /proc/self/status".into()),
    }
}

/// Cumulative steal time of all CPUs (`/proc/stat`, in clock ticks): time
/// the hypervisor ran something else while this machine's vCPUs were ready.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Run context printed with every result.
pub struct Provenance<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub held_out: bool,
    pub traced: bool,
    pub seconds: u64,
}

/// Prints the human-readable summary, the provenance line and, last, the
/// one-line result the harness reads. Returns whether the run was correct.
pub fn emit(prov: &Provenance<'_>, outcome: &Outcome) -> bool {
    let catalogue = if prov.traced { PER_LAYER } else { END_TO_END };
    println!(
        "# workload={} seed={} mode={} seconds={}",
        prov.workload,
        prov.seed,
        if prov.traced { "traced" } else { "untraced" },
        prov.seconds
    );
    for (name, v) in &outcome.values {
        println!("{name:<28} {:>14.4} {:<6} n={}", v.value, v.unit, v.n);
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "error_rate                   {error_rate:>14.6} ratio  n={} (failed {}, wrong {})",
        outcome.attempted, outcome.failed, outcome.wrong
    );

    let mut missing = Vec::new();
    let counts: Vec<String> = catalogue
        .iter()
        .map(|d| {
            let n = outcome.values.get(d.name).map_or(0, |v| v.n);
            format!("{}:{}", json_str(d.name), n)
        })
        .collect();
    println!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"held_out_seed\":{},\"mode\":{},\"nproc\":{},\"rustc\":{},\"commit\":{},\"seconds\":{}}},\"samples\":{{{}}}}}",
        json_str(prov.workload),
        prov.seed,
        prov.held_out,
        json_str(if prov.traced { "traced" } else { "untraced" }),
        nproc(),
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        prov.seconds,
        counts.join(",")
    );

    let metrics: Vec<String> = catalogue
        .iter()
        .map(|d| {
            let value = match outcome.values.get(d.name) {
                Some(v) => v.value,
                None => {
                    if !prov.traced {
                        missing.push(d.name);
                    }
                    0.0
                }
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(d.name),
                json_num(value),
                json_str(d.unit)
            )
        })
        .collect();
    for name in &missing {
        println!("VIOLATION: end-to-end metric {name} was not measured");
    }
    let correct = outcome.correct() && missing.is_empty();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let names: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                names.contains(&d.name),
                "{} missing from BENCHMARK.json",
                d.name
            );
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(spec.contains(&entry), "unit of {} differs", d.name);
        }
        // Every other name is a workload this binary runs.
        let workloads = names
            .iter()
            .filter(|n| crate::WORKLOADS.contains(n))
            .count();
        assert!(
            workloads >= 2,
            "BENCHMARK.json gates at least two workloads"
        );
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
