//! `regex-dict`: a PCRE dictionary scanned over a synthetic log.
//!
//! About 200 literals plus a few structured patterns compile into one
//! `PcreSet` network; `Simulator::new` is built once (part of set-up) and
//! `Simulator::run_into` scans a seeded multi-MB log in 16 KiB chunks. Every
//! pass's literal matches must equal a naive substring scan.

use crate::report::Outcome;
use crate::schedule::Rng;
use crate::stats::{BestOf, Samples};
use crate::trace::Tracer;
use crate::RunConfig;
use ap_sim::{PcreSet, ReportEvent, Simulator};
use std::collections::HashMap;
use std::time::Instant;

const LITERALS: usize = 200;
const HAYSTACK_BYTES: usize = 4 << 20;
const CHUNK: usize = 16 << 10;
/// Set-up repetitions before the first pass, and after every pass: spread
/// through the run, so the best of them finds the host's quiet spells.
const SETUP_REPS: usize = 7;
const SETUP_REPS_PER_PASS: usize = 2;
const MIN_PASSES: usize = 3;

/// Structured patterns, shaped like the dictionary integration tests.
const STRUCTURED: &[&str] = &[
    "status [45]\\d\\d",
    "timeout after \\d+ms",
    "user=[a-z]+ (?:GET|POST)",
    "retry [a-z]+ in \\d+s",
];

const SYLLABLES: &[&str] = &[
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "qe", "po", "sa", "de", "fu", "gi", "hy", "jo",
    "xe", "wa", "bi", "co",
];

fn word(rng: &mut Rng) -> String {
    let parts = 2 + rng.below(3);
    (0..parts)
        .map(|_| SYLLABLES[rng.below(SYLLABLES.len())])
        .collect()
}

struct Inputs {
    patterns: Vec<String>,
    haystack: Vec<u8>,
    /// Sorted `(end offset, pattern)` of every literal occurrence.
    expected: Vec<(u64, usize)>,
}

/// A fixed vocabulary of distinct words; the dictionary takes 200 of them
/// and the seeded log draws from the whole vocabulary, so most literals occur
/// and some never do. Fixing the dictionary keeps the automaton the same on
/// every seed; the seed changes only the log.
fn inputs(seed: u64, outcome: &mut Outcome) -> Inputs {
    let t = Instant::now();
    let mut vocab_rng = Rng::new(0, 0x0076_6f63_6162);
    let mut vocab: Vec<String> = Vec::new();
    while vocab.len() < LITERALS + 100 {
        let w = word(&mut vocab_rng);
        if w.len() >= 5 && !vocab.contains(&w) {
            vocab.push(w);
        }
    }
    let mut rng = Rng::new(seed, 0x7265);
    let mut patterns: Vec<String> = vocab[..LITERALS].to_vec();
    patterns.extend(STRUCTURED.iter().map(|s| s.to_string()));

    let methods = ["GET", "POST", "PUT", "DELETE"];
    let mut haystack = Vec::with_capacity(HAYSTACK_BYTES + 256);
    while haystack.len() < HAYSTACK_BYTES {
        let user: String = word(&mut rng);
        let mut line = format!(
            "{} user={} {} /{}/{} status {}",
            rng.next_u64() % 100_000_000,
            user,
            methods[rng.below(methods.len())],
            vocab[rng.below(vocab.len())],
            vocab[rng.below(vocab.len())],
            [200, 201, 204, 301, 404, 500, 503][rng.below(7)]
        );
        match rng.below(4) {
            0 => line.push_str(&format!(" error timeout after {}ms", rng.below(2000))),
            1 => line.push_str(&format!(
                " warn retry {} in {}s",
                word(&mut rng),
                rng.below(60)
            )),
            _ => line.push_str(&format!(" msg {}", vocab[rng.below(vocab.len())])),
        }
        line.push('\n');
        haystack.extend_from_slice(line.as_bytes());
    }
    haystack.truncate(HAYSTACK_BYTES);
    outcome.set(
        "binvec.generate_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    );
    let expected = literal_oracle(&patterns[..LITERALS], &haystack);
    Inputs {
        patterns,
        haystack,
        expected,
    }
}

/// Naive substring scan: every end offset of every literal, grouped by first
/// byte so each position only compares the literals that can start there.
fn literal_oracle(literals: &[String], haystack: &[u8]) -> Vec<(u64, usize)> {
    let mut by_first: HashMap<u8, Vec<usize>> = HashMap::new();
    for (i, lit) in literals.iter().enumerate() {
        by_first.entry(lit.as_bytes()[0]).or_default().push(i);
    }
    let mut out = Vec::new();
    for (pos, b) in haystack.iter().enumerate() {
        if let Some(candidates) = by_first.get(b) {
            for &i in candidates {
                let lit = literals[i].as_bytes();
                if haystack[pos..].starts_with(lit) {
                    out.push(((pos + lit.len() - 1) as u64, i));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// The literal matches a pass reported, in oracle order.
fn literal_matches(set: &PcreSet, reports: &[ReportEvent]) -> Vec<(u64, usize)> {
    let mut out: Vec<(u64, usize)> = reports
        .iter()
        .filter_map(|r| set.pattern_for_code(r.code).map(|p| (r.offset, p)))
        .filter(|&(_, p)| p < LITERALS)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Scans the whole haystack once, timing each chunk (ms, in chunk order).
fn pass(
    sim: &mut Simulator<'_>,
    haystack: &[u8],
    reports: &mut Vec<ReportEvent>,
    tracer: Option<&Tracer>,
) -> Vec<f64> {
    sim.reset();
    reports.clear();
    let mut chunk_ms = Vec::with_capacity(haystack.len().div_ceil(CHUNK));
    for (i, chunk) in haystack.chunks(CHUNK).enumerate() {
        let t = Instant::now();
        match tracer {
            Some(tr) => tr.time("sim.run_into", 0, i as u64, |_| {
                sim.run_into(chunk, reports)
            }),
            None => sim.run_into(chunk, reports),
        }
        chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    chunk_ms
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let inp = inputs(cfg.seed, &mut outcome);
    let tracer = cfg.traced.then(Tracer::new);

    let mut setup = Samples::new();
    let time_setup = |setup: &mut Samples| {
        let t = Instant::now();
        let set = PcreSet::compile(&inp.patterns).expect("dictionary compiles");
        let sim = Simulator::new(set.network()).expect("dictionary network compiles");
        std::hint::black_box(&sim);
        setup.push(t.elapsed().as_secs_f64());
    };
    for _ in 0..SETUP_REPS {
        time_setup(&mut setup);
    }
    let set = match &tracer {
        Some(tr) => tr.time("pcre.compile", 0, 0, |_| PcreSet::compile(&inp.patterns)),
        None => PcreSet::compile(&inp.patterns),
    }
    .expect("dictionary compiles");
    let mut sim = match &tracer {
        Some(tr) => tr.time("sim.new", 0, 0, |_| Simulator::new(set.network())),
        None => Simulator::new(set.network()),
    }
    .expect("dictionary network compiles");

    let mut reports = Vec::new();
    // Warm-up pass: sizes the report sink.
    pass(&mut sim, &inp.haystack, &mut reports, None);

    let chunks_per_pass = inp.haystack.len().div_ceil(CHUNK);
    let mut best = BestOf::new(chunks_per_pass);
    let mut chunk_ms = Samples::new();
    let mut traced_chunk_ms = Samples::new();
    let mut traced_passes = 0;
    let mut untraced_passes = 0;
    let mb = inp.haystack.len() as f64 / 1e6;
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed() < cfg.seconds {
        // The traced run alternates traced and untraced passes, so the
        // untraced ones measure the tracing overhead's baseline.
        let traced_pass = tracer.is_some() && passes % 2 == 1;
        if traced_pass {
            traced_passes += 1;
            for ms in pass(&mut sim, &inp.haystack, &mut reports, tracer.as_ref()) {
                traced_chunk_ms.push(ms);
            }
        } else {
            untraced_passes += 1;
            for (i, ms) in pass(&mut sim, &inp.haystack, &mut reports, None)
                .into_iter()
                .enumerate()
            {
                best.record(i, ms);
                chunk_ms.push(ms);
            }
        }
        outcome.attempted += chunks_per_pass as u64;
        for _ in 0..SETUP_REPS_PER_PASS {
            time_setup(&mut setup);
        }
        let got = literal_matches(&set, &reports);
        if got != inp.expected {
            outcome.wrong_answers(chunks_per_pass as u64);
            outcome.notes.push(format!(
                "pass {passes}: {} literal matches, oracle has {}",
                got.len(),
                inp.expected.len()
            ));
        }
        passes += 1;
    }
    let structured = reports
        .iter()
        .filter(|r| set.pattern_for_code(r.code).is_some_and(|p| p >= LITERALS))
        .count();
    if structured == 0 {
        outcome.violation("no structured pattern ever matched the log".into());
    }

    let n_chunks = chunk_ms.len() as u64;
    // Each chunk at its best pass (see `stats`).
    let mb_s = mb / (best.total() / 1e3);
    let mut best_ms = best.samples();
    outcome.set(
        "setup_s",
        setup.min().expect("reps ran"),
        "s",
        setup.len() as u64,
    );
    outcome.set("throughput", mb_s, "1/s", n_chunks);
    outcome.set("regex_mb_s", mb_s, "MB/s", n_chunks);
    let n_best = best_ms.len() as u64;
    outcome.set_opt("latency_p50_ms", best_ms.percentile(0.50), "ms", n_best);
    outcome.set_opt("latency_p90_ms", best_ms.percentile(0.90), "ms", n_best);
    outcome.set_opt("chunk_p99_ms", chunk_ms.percentile(0.99), "ms", n_chunks);
    outcome.notes.push(format!(
        "{} patterns, {} literal matches per pass, {} structured, {:.1} MB haystack, \
         each of {chunks_per_pass} chunks timed at its best of {untraced_passes} passes",
        inp.patterns.len(),
        inp.expected.len(),
        structured,
        mb
    ));

    if let Some(tr) = &tracer {
        let spans = tr.spans();
        let t = crate::trace::self_times(&spans);
        let run = t.get("sim.run_into").copied().unwrap_or_default();
        outcome.set(
            "sim.scalar_mb_s",
            mb * traced_passes as f64 / (run.1 as f64 / 1e9),
            "MB/s",
            run.0,
        );
        outcome.set("sim.elements", sim.compiled().len() as f64, "count", 1);
        outcome.set("sim.board_images", 1.0, "count", 1);
        let untraced = chunk_ms.mean().expect("untraced passes ran");
        let traced = traced_chunk_ms.mean().unwrap_or(untraced);
        outcome.set(
            "trace.overhead_share",
            (traced - untraced) / untraced,
            "ratio",
            run.0,
        );
        if let Err(e) = tr.write_jsonl(&cfg.span_path("regex-dict")) {
            outcome.notes.push(format!("could not write spans: {e}"));
        }
    }
    outcome
}
