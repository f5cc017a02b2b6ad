//! `knn-offline`: the paper's Table III WordEmbed job, in process.
//!
//! 1024×64 clustered corpus, k = 2, 4096 queries drawn from the same
//! clusters, run as `PreparedEngine::try_search_batch_into` in 64-query
//! batches on one thread, cycle-accurate, default paper-calibrated capacity.
//! The traced run drives the same job stage by stage through the public
//! functions (build → compile → encode → simulate → decode → drain) and
//! asserts its results equal the untraced engine path.

use crate::report::Outcome;
use crate::stats::{BestOf, Samples};
use crate::trace::Tracer;
use crate::RunConfig;
use ap_knn::decode::merge_lane_reports_into;
use ap_knn::{encode_lane_planes_into, ApKnnEngine, ApRunStats, KnnDesign, PartitionNetwork};
use ap_knn::{PreparedEngine, StreamLayout};
use ap_sim::{CompiledNetwork, LaneStream};
use baselines::{LinearScan, SearchIndex};
use binvec::generate::{clustered_dataset, ClusterParams};
use binvec::{BinaryDataset, BinaryVector, Neighbor, QueryOptions, TopK};
use std::time::Instant;

const CORPUS: usize = 1024;
const DIMS: usize = 64;
const QUERIES: usize = 4096;
const K: usize = 2;
const BATCH: usize = 64;
/// Passes over the job a run makes at least, whatever `--seconds` says:
/// every batch is timed at its best pass, and four passes hold 256 batch
/// times, enough for a p90.
const MIN_PASSES: usize = 4;

/// The single-thread, cycle-accurate engine every kNN workload serves with.
pub fn engine() -> ApKnnEngine {
    ApKnnEngine::new(KnnDesign::new(DIMS)).with_parallelism(1)
}

/// Exact answers from the host oracle (never timed).
pub fn oracle(corpus: &BinaryDataset, queries: &[BinaryVector], k: usize) -> Vec<Vec<Neighbor>> {
    let scan = LinearScan::new(corpus.clone());
    queries.iter().map(|q| scan.search(q, k)).collect()
}

struct Inputs {
    corpus: BinaryDataset,
    queries: Vec<BinaryVector>,
    expected: Vec<Vec<Neighbor>>,
}

/// Corpus and queries come from one clustered draw, so queries land near the
/// corpus clusters (and their macros share prefixes).
fn inputs(seed: u64, outcome: &mut Outcome) -> Inputs {
    let t = Instant::now();
    let (all, _) = clustered_dataset(CORPUS + QUERIES, DIMS, ClusterParams::default(), seed);
    let corpus = BinaryDataset::from_vectors(DIMS, all.iter().take(CORPUS));
    let queries: Vec<BinaryVector> = all.iter().skip(CORPUS).collect();
    outcome.set(
        "binvec.generate_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    );
    let expected = oracle(&corpus, &queries, K);
    Inputs {
        corpus,
        queries,
        expected,
    }
}

fn prepare(corpus: &BinaryDataset) -> PreparedEngine {
    let prepared = engine().prepare(corpus).expect("corpus prepares");
    prepared.compile().expect("board images compile");
    prepared
}

/// Times one prepare + compile into `times`.
fn timed_prepare(corpus: &BinaryDataset, times: &mut Samples) -> PreparedEngine {
    let t = Instant::now();
    let prepared = prepare(corpus);
    times.push(t.elapsed().as_secs_f64());
    prepared
}

fn count_wrong(got: &[Vec<Neighbor>], want: &[Vec<Neighbor>]) -> u64 {
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

pub fn run(cfg: &RunConfig) -> Outcome {
    if cfg.traced {
        return run_traced(cfg);
    }
    let mut outcome = Outcome::default();
    let inp = inputs(cfg.seed, &mut outcome);
    // One set-up before the first pass and one after every pass: spread
    // through the run, so the best of them finds the host's quiet spells.
    let mut setup = Samples::new();
    let prepared = timed_prepare(&inp.corpus, &mut setup);
    let options = QueryOptions::top(K);
    let mut results = Vec::new();
    // Warm-up: the scratch pool fills on the first batch.
    prepared
        .try_search_batch_into(&inp.queries[..BATCH], &options, &mut results)
        .expect("warm-up batch");

    let mut batch_ms = Samples::new();
    let mut best = BestOf::new(QUERIES.div_ceil(BATCH));
    let mut model_qps = Samples::new();
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed() < cfg.seconds {
        let mut model_s = 0.0;
        for (i, (chunk, want)) in inp
            .queries
            .chunks(BATCH)
            .zip(inp.expected.chunks(BATCH))
            .enumerate()
        {
            let t = Instant::now();
            let stats = prepared.try_search_batch_into(chunk, &options, &mut results);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            outcome.attempted += chunk.len() as u64;
            match stats {
                Ok(stats) => {
                    model_s += stats.total_seconds();
                    batch_ms.push(ms);
                    best.record(i, ms);
                    outcome.wrong_answers(count_wrong(&results, want));
                }
                Err(e) => {
                    outcome.failed += chunk.len() as u64;
                    outcome.notes.push(format!("batch failed: {e}"));
                }
            }
        }
        model_qps.push(QUERIES as f64 / model_s);
        if passes == 0 {
            // The peak of one engine serving; the set-ups below briefly
            // hold a second engine, and reuse memory unevenly.
            crate::report::set_peak_rss(&mut outcome);
        }
        drop(timed_prepare(&inp.corpus, &mut setup));
        passes += 1;
    }
    let n_setups = setup.len() as u64;
    outcome.set("setup_s", setup.min().expect("set-ups ran"), "s", n_setups);
    let n_batches = batch_ms.len() as u64;
    // Each batch at its best pass (see `stats`).
    let qps = QUERIES as f64 / (best.total() / 1e3);
    outcome.set("throughput", qps, "1/s", n_batches);
    outcome.set("qps", qps, "1/s", n_batches);
    outcome.set(
        "model_qps",
        model_qps.median().expect("passes ran"),
        "1/s",
        passes as u64,
    );
    let mut best_ms = best.samples();
    outcome.set_opt(
        "latency_p50_ms",
        best_ms.median(),
        "ms",
        best_ms.len() as u64,
    );
    outcome.set_opt("latency_p90_ms", batch_ms.percentile(0.90), "ms", n_batches);
    outcome.notes.push(format!(
        "{} batches, each timed at its best of {passes} passes",
        best_ms.len()
    ));
    outcome
}

/// Board images built and compiled stage by stage, as the engine does.
pub struct Images {
    layout: StreamLayout,
    images: Vec<(usize, CompiledNetwork)>,
}

/// The board images a corpus compiles to, with their fabric size recorded.
pub fn image_shape(corpus: &BinaryDataset, outcome: &mut Outcome) -> Images {
    build_images(corpus, &Tracer::new(), outcome)
}

fn build_images(corpus: &BinaryDataset, tracer: &Tracer, outcome: &mut Outcome) -> Images {
    let eng = engine();
    let design = *eng.design();
    let setup = tracer.begin();
    let mut images = Vec::new();
    for partition in corpus.partition(eng.capacity().vectors_per_board) {
        let pn = tracer.time("knn.build", setup.id, 0, |_| {
            PartitionNetwork::build(&partition, &design)
        });
        let compiled = tracer.time("knn.compile", setup.id, 0, |_| {
            CompiledNetwork::compile(&pn.network).expect("partition network compiles")
        });
        images.push((partition.base_index, compiled));
    }
    tracer.end(setup, "setup", 0, 0);
    let elements: usize = images.iter().map(|(_, c)| c.len()).sum();
    outcome.set(
        "sim.elements",
        elements as f64,
        "count",
        images.len() as u64,
    );
    outcome.set("sim.board_images", images.len() as f64, "count", 1);
    Images {
        layout: StreamLayout::for_design(&design),
        images,
    }
}

/// Reusable scratch of the stage-by-stage path.
#[derive(Default)]
struct StageScratch {
    stream: LaneStream,
    state: Option<ap_sim::LaneState>,
    reports: Vec<ap_sim::LaneReportEvent>,
    accumulators: Vec<TopK>,
    results: Vec<Vec<Neighbor>>,
    reports_total: u64,
}

/// One 64-query batch through the public stage functions, one span each.
fn traced_batch(
    imgs: &Images,
    chunk: &[BinaryVector],
    scratch: &mut StageScratch,
    tracer: &Tracer,
    request: u64,
) {
    let batch = tracer.begin();
    scratch
        .accumulators
        .resize_with(chunk.len(), || TopK::new(K));
    for acc in &mut scratch.accumulators {
        acc.reset(K);
    }
    tracer.time("knn.encode", batch.id, request, |_| {
        encode_lane_planes_into(&imgs.layout, chunk, &mut scratch.stream)
    });
    for (base, compiled) in &imgs.images {
        tracer.time("knn.simulate", batch.id, request, |_| {
            let state = match scratch.state.as_mut() {
                Some(state) => {
                    compiled.recycle_lane_state(state);
                    state
                }
                None => scratch.state.insert(compiled.new_lane_state()),
            };
            scratch.reports.clear();
            compiled.run_lanes_into(state, &scratch.stream, &mut scratch.reports);
        });
        tracer.time("knn.decode", batch.id, request, |_| {
            merge_lane_reports_into(
                &imgs.layout,
                &scratch.reports,
                *base,
                0,
                &mut scratch.accumulators,
            )
        });
        scratch.reports_total += scratch
            .reports
            .iter()
            .map(|r| u64::from(r.lanes.count_ones()))
            .sum::<u64>();
    }
    tracer.time("knn.finalize", batch.id, request, |_| {
        scratch.results.resize_with(chunk.len(), Vec::new);
        for (acc, out) in scratch.accumulators.iter_mut().zip(&mut scratch.results) {
            acc.drain_sorted_into(out);
        }
    });
    tracer.end(batch, "knn.batch", 0, request);
}

/// The spans of one batch's stages, which add up to the batch.
const STAGES: [&str; 4] = ["knn.encode", "knn.simulate", "knn.decode", "knn.finalize"];

fn ms_per(total_ns: u64, count: usize) -> f64 {
    total_ns as f64 / 1e6 / count.max(1) as f64
}

fn run_traced(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let tracer = Tracer::new();
    let inp = inputs(cfg.seed, &mut outcome);
    let imgs = build_images(&inp.corpus, &tracer, &mut outcome);
    let prepared = prepare(&inp.corpus);
    let options = QueryOptions::top(K);

    let mut untraced = Vec::new();
    let mut scratch = StageScratch::default();
    // Warm-up both paths; pool growth after this point should be zero.
    prepared
        .try_search_batch_into(&inp.queries[..BATCH], &options, &mut untraced)
        .expect("warm-up batch");
    let warm_tracer = Tracer::new();
    traced_batch(&imgs, &inp.queries[..BATCH], &mut scratch, &warm_tracer, 0);
    scratch.reports_total = 0;
    let fresh_after_warmup = prepared.pool_stats().fresh;

    let mut untraced_ms = Samples::new();
    let mut run_stats: Vec<ApRunStats> = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    let mut batches = 0u64;
    while passes < MIN_PASSES || started.elapsed() < cfg.seconds {
        for (i, (chunk, want)) in inp
            .queries
            .chunks(BATCH)
            .zip(inp.expected.chunks(BATCH))
            .enumerate()
        {
            batches += 1;
            // Alternate which path runs first so drift hits both alike.
            let untraced_first = i % 2 == 0;
            let mut untraced_run = |untraced: &mut Vec<Vec<Neighbor>>| {
                let t = Instant::now();
                let stats = prepared
                    .try_search_batch_into(chunk, &options, untraced)
                    .expect("untraced batch");
                untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                run_stats.push(stats);
            };
            if untraced_first {
                untraced_run(&mut untraced);
                traced_batch(&imgs, chunk, &mut scratch, &tracer, batches);
            } else {
                traced_batch(&imgs, chunk, &mut scratch, &tracer, batches);
                untraced_run(&mut untraced);
            }
            outcome.attempted += chunk.len() as u64;
            let mismatched = count_wrong(&scratch.results, &untraced);
            if mismatched > 0 {
                outcome.violation(format!(
                    "batch {i}: traced stage path differs from PreparedEngine on {mismatched} queries"
                ));
            }
            outcome.wrong_answers(count_wrong(&untraced, want));
        }
        passes += 1;
    }

    let spans = tracer.spans();
    let t = crate::trace::self_times(&spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let n = batches as usize;
    let (build, compile) = (get("knn.build"), get("knn.compile"));
    let (encode, simulate, decode, finalize, batch) = (
        get("knn.encode"),
        get("knn.simulate"),
        get("knn.decode"),
        get("knn.finalize"),
        get("knn.batch"),
    );
    outcome.set("knn.build_ms", build.1 as f64 / 1e6, "ms", build.0);
    outcome.set("knn.compile_ms", compile.1 as f64 / 1e6, "ms", compile.0);
    outcome.set("knn.encode_ms", ms_per(encode.2, n), "ms", encode.0);
    outcome.set("knn.simulate_ms", ms_per(simulate.2, n), "ms", simulate.0);
    outcome.set("knn.decode_ms", ms_per(decode.2, n), "ms", decode.0);
    outcome.set("knn.finalize_ms", ms_per(finalize.2, n), "ms", finalize.0);
    outcome.set(
        "sim.lane_pass_ms",
        ms_per(simulate.1, simulate.0 as usize),
        "ms",
        simulate.0,
    );
    let stages_ns = encode.2 + simulate.2 + decode.2 + finalize.2;
    outcome.set(
        "knn.simulate_share",
        simulate.2 as f64 / stages_ns as f64,
        "ratio",
        batch.0,
    );

    let untraced_mean = untraced_ms.mean().expect("batches ran");
    let traced_mean = ms_per(batch.1, n);
    let stages_mean = ms_per(stages_ns, n);
    let overhead = traced_mean - untraced_mean;
    outcome.set(
        "trace.overhead_share",
        overhead / untraced_mean,
        "ratio",
        batch.0,
    );
    let gap = stages_mean - untraced_mean;
    outcome.set(
        "knn.ledger_gap_share",
        gap / untraced_mean,
        "ratio",
        batch.0,
    );
    // Each batch ran both ways back to back, so the paired differences
    // give the gap's own noise: three standard errors of their mean.
    let mut stage_ms = vec![0.0; n];
    for s in spans
        .iter()
        .filter(|s| STAGES.contains(&s.name) && s.request > 0)
    {
        stage_ms[s.request as usize - 1] += s.duration_ns() as f64 / 1e6;
    }
    let diffs: Vec<f64> = stage_ms
        .iter()
        .zip(untraced_ms.values())
        .map(|(s, u)| s - u)
        .collect();
    let var = diffs.iter().map(|d| (d - gap).powi(2)).sum::<f64>() / (n - 1).max(1) as f64;
    let noise = 3.0 * (var / n as f64).sqrt();
    let ledger = format!(
        "stage ledger: stages {stages_mean:.3} ms vs untraced batch {untraced_mean:.3} ms \
         (gap {gap:+.3} ms, tracing overhead {overhead:+.3} ms, noise {noise:.3} ms)"
    );
    // The stages must account for the untraced batch, up to the cost of
    // tracing them (or 1% of the batch, or the noise, whichever is largest).
    if gap.abs() > overhead.abs().max(0.01 * untraced_mean).max(noise) {
        outcome.violation(format!("{ledger}: gap outside the tracing overhead"));
    }
    outcome.notes.push(ledger);
    outcome.set_opt(
        "knn.batch_p50_ms",
        untraced_ms.percentile(0.50),
        "ms",
        n as u64,
    );
    outcome.set_opt(
        "knn.batch_p90_ms",
        untraced_ms.percentile(0.90),
        "ms",
        n as u64,
    );
    outcome.set(
        "sim.reports_per_query",
        scratch.reports_total as f64 / outcome.attempted as f64,
        "count",
        outcome.attempted,
    );
    let lane_fill = run_stats.iter().map(|s| s.lane_fill).sum::<f64>() / run_stats.len() as f64;
    outcome.set("knn.lane_fill", lane_fill, "ratio", run_stats.len() as u64);
    outcome.set(
        "knn.pool_fresh",
        (prepared.pool_stats().fresh - fresh_after_warmup) as f64,
        "count",
        run_stats.len() as u64,
    );
    let answered = outcome.attempted;
    set_model(&mut outcome, &run_stats, answered);
    if let Err(e) = tracer.write_jsonl(&cfg.span_path("knn-offline")) {
        outcome.notes.push(format!("could not write spans: {e}"));
    }
    outcome
}

/// Modelled AP figures (`perf_model` via `ApRunStats`): deterministic, so
/// they are reported per layer rather than as end-to-end timings.
pub fn set_model(outcome: &mut Outcome, stats: &[ApRunStats], queries: u64) {
    let batches = stats.len() as u64;
    let seconds: f64 = stats.iter().map(ApRunStats::total_seconds).sum();
    let cycles: u64 = stats.iter().map(|s| s.charged_cycles).sum();
    let reconfigs: u64 = stats.iter().map(|s| s.reconfigurations).sum();
    let answered = queries.max(1) as f64;
    if seconds > 0.0 {
        outcome.set("model.qps", answered / seconds, "1/s", batches);
    }
    outcome.set(
        "model.cycles_per_query",
        cycles as f64 / answered,
        "count",
        batches,
    );
    outcome.set(
        "model.reconfigurations",
        reconfigs as f64 / batches.max(1) as f64,
        "count",
        batches,
    );
}

/// Scalar-core rate: `Simulator`-style `run_into` over one encoded query
/// window per image, in MB (10^6 symbols) per second.
pub fn scalar_probe(imgs: &Images, queries: &[BinaryVector], outcome: &mut Outcome) {
    let mut stream = Vec::new();
    let mut reports = Vec::new();
    let mut state = imgs.images[0].1.new_state();
    let mut symbols = 0u64;
    let t = Instant::now();
    for q in queries {
        imgs.layout.encode_query_into(q, &mut stream);
        for (_, image) in &imgs.images {
            image.recycle_state(&mut state);
            reports.clear();
            image.run_into(&mut state, &stream, &mut reports);
            symbols += stream.len() as u64;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    outcome.set(
        "sim.scalar_mb_s",
        symbols as f64 / 1e6 / secs,
        "MB/s",
        queries.len() as u64,
    );
}
