//! `knn-open` and `knn-churn`: the serving stack over loopback.
//!
//! An in-process `ApServer` (one runtime worker, engine parallelism 1) is
//! driven by a one-connection, open-loop load generator: one writer thread
//! sends frames at their scheduled times with `Frame::encode`, one reader
//! thread reassembles replies with `FrameBuffer`. Every latency is timed from
//! the request's *scheduled* send time, so a stalled generator or server
//! charges the wait to every request behind it; the generator's own
//! lateness is reported separately.

use crate::offline::{engine, image_shape, oracle, scalar_probe, set_model};
use crate::report::Outcome;
use crate::schedule::{poisson, shuffled, Rng, Zipf};
use crate::stats::{window_percentiles, BestOf, Samples, WINDOW};
use crate::trace::Tracer;
use crate::RunConfig;
use ap_knn::live::{LiveEngine, LiveStatus};
use ap_knn::{ApRunStats, LiveConfig, WalConfig};
use ap_serve::{
    ApClient, ApEngineBackend, ApServer, BackendBatch, Frame, FrameBuffer, LiveBackend,
    RuntimeConfig, ServiceRuntime, SimilarityBackend,
};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::{BinaryDataset, BinaryVector, MutAck, Mutation, Neighbor, QueryOptions, SearchError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CORPUS: usize = 512;
const DIMS: usize = 64;
const K: usize = 10;
/// Latency objective for `qps_at_slo`: p90 of client latency (the median
/// of a rung's three window p90s, see [`RUNG_WINDOWS`]).
const SLO_MS: f64 = 25.0;
/// Equal-count windows per ladder rung above the reference rate; the SLO
/// verdict takes the median window figure. 600 arrivals make windows of 200.
const RUNG_WINDOWS: usize = 3;
/// knn-open arrival rates (queries/s), light load first. The first rung is
/// the reference rate for the latency metrics.
const LADDER: &[f64] = &[100.0, 300.0, 500.0, 700.0, 900.0, 1100.0, 1300.0];
/// Arrivals per rung above the reference rate.
const RUNG_ARRIVALS: usize = 600;
/// The reference rung lasts `--seconds` (at least ten), in windows of
/// [`WINDOW`] arrivals; the gated latencies are the best window's.
const MIN_REFERENCE_SPAN: Duration = Duration::from_secs(10);
/// Capacity probes: a closed loop keeping this many operations in flight.
/// It exceeds the batch size, so the worker always finds full batches, and
/// stays far below the admission queue (1024), so nothing is refused.
const SATURATION_WINDOW: usize = 64;
/// Half-second slices of the capacity probe, in [`PROBE_BURSTS`] bursts
/// spread through the run; the best slice's rate is reported.
const SATURATION_SLICES: usize = 8;
const SATURATION_SLICE: Duration = Duration::from_millis(500);
const PROBE_BURSTS: usize = 4;
/// Distinct queries the knn-open capacity probe cycles through.
const SATURATION_QUERIES: usize = 4096;
/// knn-churn rates: Zipf queries from a hot pool, and mutations (3 inserts
/// per delete) on the same connection.
const CHURN_QUERY_RATE: f64 = 120.0;
const CHURN_MUTATION_RATE: f64 = 25.0;
/// One churn episode: the open loop over a fresh durable deployment, 1200
/// queries in 12 windows. A run repeats the same episode once per ten
/// `--seconds`, and each window (and probe slice) of the schedule keeps its
/// best episode: the corpus grows through an episode, so each point of the
/// schedule is compared only with itself.
const CHURN_EPISODE: Duration = Duration::from_secs(10);
/// Inserts the churn capacity probe cycles through, and its mix: per
/// [`CHURN_PROBE_CYCLE`] operations, [`CHURN_PROBE_MUTATIONS`] mutations (25
/// per 85 operations, as in the open loop). The probe deletes what it
/// inserts, one for one, so the corpus (and the memory) does not grow with
/// the speed of the probe.
const CHURN_PROBE_VECTORS: usize = 512;
const CHURN_PROBE_CYCLE: usize = 17;
const CHURN_PROBE_MUTATIONS: usize = 5;
const HOT_POOL: usize = 128;
const ZIPF_S: f64 = 1.0;
const VERIFY_QUERIES: usize = 32;
const SETUP_REPS: usize = 9;
/// knn-churn set-ups per episode: the episode's own and two more after it,
/// spread through the run, so the best of them finds the host's quiet
/// spells.
const CHURN_SETUPS_PER_EPISODE: usize = 3;

// ---------------------------------------------------------------- backends

/// Per-batch accounting the timing decorator collects.
#[derive(Default)]
struct BackendLog {
    run_stats: Vec<ApRunStats>,
    queries: u64,
    /// Sum over served queries of their batch's duration (ms), for the mean
    /// service time a query saw.
    query_service_ms: f64,
    live: Vec<LiveStatus>,
}

/// A timing decorator: forwards every `SimilarityBackend` method to the
/// wrapped backend, recording a span around each call that does work.
struct Timed {
    inner: Arc<dyn SimilarityBackend>,
    tracer: Arc<Tracer>,
    log: Mutex<BackendLog>,
}

impl Timed {
    fn log(&self) -> std::sync::MutexGuard<'_, BackendLog> {
        self.log.lock().expect("backend log poisoned")
    }
}

impl SimilarityBackend for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        self.tracer.time("backend.serve_batch", 0, 0, |_| {
            self.inner.serve_batch(queries, k)
        })
    }

    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        let t = Instant::now();
        let out = self.tracer.time("backend.batch", 0, 0, |_| {
            self.inner.try_serve_batch(queries, options)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok(batch) = &out {
            let mut log = self.log();
            log.queries += queries.len() as u64;
            log.query_service_ms += ms * queries.len() as f64;
            log.run_stats.extend(batch.run_stats);
        }
        out
    }

    fn apply_mutation(&self, mutation: &Mutation) -> Result<MutAck, SearchError> {
        self.tracer.time("backend.mutation", 0, 0, |_| {
            self.inner.apply_mutation(mutation)
        })
    }

    fn apply_mutations(&self, mutations: &[&Mutation]) -> Vec<Result<MutAck, SearchError>> {
        let out = self.tracer.time("backend.mutations", 0, 0, |_| {
            self.inner.apply_mutations(mutations)
        });
        if let Some(status) = self.inner.live_status() {
            self.log().live.push(status);
        }
        out
    }

    fn live_status(&self) -> Option<LiveStatus> {
        self.tracer
            .time("backend.live_status", 0, 0, |_| self.inner.live_status())
    }
}

/// A running server plus what the run needs to reach into afterwards.
struct Deployment {
    server: ApServer,
    addr: SocketAddr,
    timed: Option<Arc<Timed>>,
    engine_backend: Option<Arc<ApEngineBackend>>,
    live: Option<Arc<LiveEngine>>,
    dir: Option<PathBuf>,
}

impl Deployment {
    /// Shuts the server down (draining every ticket) and checks the
    /// runtime's conservation invariants.
    fn finish(self, outcome: &mut Outcome) -> ap_serve::ServiceStats {
        let stats = self.server.shutdown();
        if stats.queries_submitted
            != stats.queries_served + stats.failed_queries + stats.deadline_expired
        {
            outcome.violation(format!(
                "submitted {} != served {} + failed {} + expired {}",
                stats.queries_submitted,
                stats.queries_served,
                stats.failed_queries,
                stats.deadline_expired
            ));
        }
        if stats.mutations_submitted != stats.mutations_applied + stats.mutations_failed {
            outcome.violation(format!(
                "mutations submitted {} != applied {} + failed {}",
                stats.mutations_submitted, stats.mutations_applied, stats.mutations_failed
            ));
        }
        drop(self.live);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        stats
    }
}

fn runtime_config(cache: usize) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(1)
        .with_cache_capacity(cache)
        .with_options(QueryOptions::top(K))
}

/// Backend → runtime → server → one warm-up round trip: "ready to serve".
fn deploy(
    backend: Arc<dyn SimilarityBackend>,
    cache: usize,
    tracer: Option<&Arc<Tracer>>,
    warm: &BinaryVector,
) -> (ApServer, SocketAddr, Option<Arc<Timed>>) {
    let timed = tracer.map(|tr| {
        Arc::new(Timed {
            inner: Arc::clone(&backend),
            tracer: Arc::clone(tr),
            log: Mutex::new(BackendLog::default()),
        })
    });
    let served: Arc<dyn SimilarityBackend> = match &timed {
        Some(t) => Arc::clone(t) as Arc<dyn SimilarityBackend>,
        None => backend,
    };
    let runtime = Arc::new(
        ServiceRuntime::try_shared(runtime_config(cache), served).expect("runtime config is valid"),
    );
    let server = ApServer::bind("127.0.0.1:0", runtime).expect("bind loopback");
    let addr = server.local_addr();
    let mut client = ApClient::connect(addr).expect("connect for warm-up");
    client
        .search(warm.clone(), QueryOptions::top(K))
        .expect("warm-up query");
    (server, addr, timed)
}

fn deploy_open(
    corpus: &BinaryDataset,
    tracer: Option<&Arc<Tracer>>,
    warm: &BinaryVector,
) -> Deployment {
    let backend = Arc::new(ApEngineBackend::try_new(engine(), corpus.clone()).expect("backend"));
    backend.prepared().compile().expect("board images compile");
    let (server, addr, timed) = deploy(Arc::clone(&backend) as _, 0, tracer, warm);
    Deployment {
        server,
        addr,
        timed,
        engine_backend: Some(backend),
        live: None,
        dir: None,
    }
}

fn deploy_churn(
    corpus: &BinaryDataset,
    tracer: Option<&Arc<Tracer>>,
    warm: &BinaryVector,
    dir: PathBuf,
) -> Deployment {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let live = Arc::new(
        LiveEngine::durable(
            engine(),
            corpus,
            LiveConfig::default(),
            WalConfig::default(),
            &dir,
        )
        .expect("durable live engine"),
    );
    let backend = Arc::new(LiveBackend::from_engine(Arc::clone(&live)));
    let (server, addr, timed) = deploy(backend, 1024, tracer, warm);
    Deployment {
        server,
        addr,
        timed,
        engine_backend: None,
        live: Some(live),
        dir: Some(dir),
    }
}

/// Times one deployment.
fn timed_deploy(make: impl FnOnce() -> Deployment) -> (Deployment, f64) {
    let t = Instant::now();
    let deployment = make();
    (deployment, t.elapsed().as_secs_f64())
}

/// Records `peak_rss_mb`, then times `SETUP_REPS - 1` more deployments
/// (each torn down at once) and records the best set-up time including
/// `first`. Running the extra repetitions after the measured phase, and
/// after its peak memory is read, keeps their allocations out of
/// `peak_rss_mb`.
fn finish_setup_reps(outcome: &mut Outcome, first: f64, mut make: impl FnMut(usize) -> Deployment) {
    crate::report::set_peak_rss(outcome);
    let mut times = Samples::new();
    times.push(first);
    for rep in 1..SETUP_REPS {
        let (deployment, secs) = timed_deploy(|| make(rep));
        times.push(secs);
        deployment.finish(&mut Outcome::default());
    }
    let best = times.min().expect("reps ran");
    outcome.set("setup_s", best, "s", SETUP_REPS as u64);
}

// ---------------------------------------------------------- load generator

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Index into the query table.
    Query(usize),
    /// Index into the insert table.
    Insert(usize),
    /// Stable id to delete.
    Delete(u64),
    /// Capacity probe only: delete the oldest id the probe inserted (a
    /// query when none is acked yet).
    DeleteInserted,
}

impl Op {
    fn frame(self, tables: &Tables<'_>) -> Frame {
        let options = QueryOptions::top(K);
        match self {
            Op::Query(q) => Frame::Submit {
                options,
                query: tables.queries[q].clone(),
            },
            Op::Insert(v) => Frame::Insert {
                options,
                vector: tables.inserts[v].clone(),
            },
            Op::Delete(id) => Frame::Delete { options, id },
            Op::DeleteInserted => unreachable!("the probe resolves the id before sending"),
        }
    }
}

/// An open-loop schedule: op `i` is due `due[i]` after the start.
struct Plan {
    due: Vec<Duration>,
    ops: Vec<Op>,
}

impl Plan {
    fn span(&self) -> Duration {
        self.due.last().copied().unwrap_or_default()
    }

    /// The ops due in `[from, to)`, with due times relative to `from`.
    fn segment(&self, from: Duration, to: Duration) -> Plan {
        let (due, ops) = self
            .due
            .iter()
            .zip(&self.ops)
            .filter(|(&d, _)| d >= from && d < to)
            .map(|(&d, &op)| (d - from, op))
            .unzip();
        Plan { due, ops }
    }
}

/// What the reader saw.
#[derive(Default)]
struct Drive {
    /// `(due s, latency ms)` of every completed query.
    query_points: Vec<(f64, f64)>,
    mutation_ms: Samples,
    lag_ms: Samples,
    /// Every acknowledged mutation with its ack.
    acks: Vec<(Op, MutAck)>,
    completed: u64,
    failed: u64,
    wrong: u64,
    errors: Vec<String>,
}

struct Tables<'a> {
    queries: &'a [BinaryVector],
    inserts: &'a [BinaryVector],
    /// Exact answers by query index, when every answer is checkable.
    expected: Option<&'a [Vec<Neighbor>]>,
}

/// Runs `plan` over one connection: the calling thread writes, one spawned
/// thread reads. Returns once every reply arrived (or the reply deadline
/// passed, in which case the missing replies count as failed).
/// With a tracer, every request gets spans sharing its correlation id as
/// request id: `net.frame_encode` (writer), `net.frame_decode` and
/// `client.request` (scheduled send → reply, reader).
fn drive(addr: SocketAddr, plan: &Plan, tables: &Tables<'_>, tracer: Option<&Tracer>) -> Drive {
    let mut stream = TcpStream::connect(addr).expect("connect load generator");
    stream.set_nodelay(true).expect("nodelay");
    let read_half = stream.try_clone().expect("clone socket");
    read_half
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + plan.span() + Duration::from_secs(30);

    let mut writer_out = Drive::default();
    let mut reader_out = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_replies(read_half, plan, tables, start, deadline, tracer));
        let mut buf = Vec::with_capacity(256);
        for (i, op) in plan.ops.iter().enumerate() {
            let due = start + plan.due[i];
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            writer_out
                .lag_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let frame = op.frame(tables);
            buf.clear();
            let t = Instant::now();
            frame.encode(i as u64 + 1, &mut buf);
            if let Some(tr) = tracer {
                tr.interval("net.frame_encode", 0, i as u64 + 1, t, Instant::now());
            }
            if let Err(e) = stream.write_all(&buf) {
                writer_out.errors.push(format!("write failed: {e}"));
                break;
            }
        }
        reader.join().expect("reader thread")
    });
    let _ = stream.shutdown(std::net::Shutdown::Both);
    reader_out.lag_ms = writer_out.lag_ms;
    reader_out.errors.extend(writer_out.errors);
    reader_out
}

fn read_replies(
    mut stream: TcpStream,
    plan: &Plan,
    tables: &Tables<'_>,
    start: Instant,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Drive {
    let mut out = Drive::default();
    let mut frames = FrameBuffer::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut received = 0usize;
    let total = plan.ops.len();
    while received < total && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => frames.feed(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => {
                out.errors.push(format!("read failed: {e}"));
                break;
            }
        }
        loop {
            let t = Instant::now();
            let next = frames.next_frame();
            let arrived = Instant::now();
            let (correlation, frame) = match next {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    out.errors.push(format!("wire error: {e}"));
                    return out;
                }
            };
            if let Some(tr) = tracer {
                tr.interval("net.frame_decode", 0, correlation, t, arrived);
            }
            let Some(index) = (correlation as usize).checked_sub(1).filter(|&i| i < total) else {
                out.failed += 1;
                out.errors
                    .push(format!("reply with unknown correlation {correlation}"));
                continue;
            };
            received += 1;
            if let Some(tr) = tracer {
                tr.interval(
                    "client.request",
                    0,
                    correlation,
                    start + plan.due[index],
                    arrived,
                );
            }
            let latency_ms = arrived
                .saturating_duration_since(start + plan.due[index])
                .as_secs_f64()
                * 1e3;
            match (frame, plan.ops[index]) {
                (Frame::Completed { neighbors }, Op::Query(q)) => {
                    out.completed += 1;
                    out.query_points
                        .push((plan.due[index].as_secs_f64(), latency_ms));
                    if tables.expected.is_some_and(|exp| exp[q] != neighbors) {
                        out.wrong += 1;
                    }
                }
                (Frame::MutAck(ack), op @ (Op::Insert(_) | Op::Delete(_))) => {
                    out.completed += 1;
                    out.mutation_ms.push(latency_ms);
                    out.acks.push((op, ack));
                }
                (Frame::Failed { error }, _) => {
                    out.failed += 1;
                    if out.errors.len() < 5 {
                        out.errors.push(format!("op {index} failed: {error}"));
                    }
                }
                (other, op) => {
                    out.failed += 1;
                    out.errors
                        .push(format!("op {index} ({op:?}) got {other:?}"));
                }
            }
        }
    }
    out.failed += (total - received) as u64;
    out
}

fn record_drive(outcome: &mut Outcome, d: &Drive) {
    outcome.attempted += d.completed + d.failed;
    outcome.failed += d.failed;
    outcome.wrong_answers(d.wrong);
    outcome.notes.extend(d.errors.iter().cloned());
}

// ------------------------------------------------------------- knn-open

impl Drive {
    /// Adds the results of a drive over a plan segment that started
    /// `offset` into the whole plan.
    fn absorb(&mut self, d: Drive, offset: Duration) {
        let offset = offset.as_secs_f64();
        self.query_points
            .extend(d.query_points.iter().map(|&(t, v)| (t + offset, v)));
        self.mutation_ms.extend(&d.mutation_ms);
        self.lag_ms.extend(&d.lag_ms);
        self.acks.extend(d.acks);
        self.completed += d.completed;
        self.failed += d.failed;
        self.wrong += d.wrong;
        self.errors.extend(d.errors);
    }

    /// Every completed query's latency (ms).
    fn query_ms(&self) -> Samples {
        let mut all = Samples::new();
        for &(_, v) in &self.query_points {
            all.push(v);
        }
        all
    }

    /// Median of the percentile `p` of `windows` equal-count windows in
    /// schedule order.
    fn windowed(&self, windows: usize, p: f64) -> Option<f64> {
        window_percentiles(&self.query_points, windows, p)?.median()
    }

    /// The best (lowest) percentile `p` over windows of [`WINDOW`] queries
    /// in schedule order.
    fn best_window(&self, p: f64) -> Option<f64> {
        window_percentiles(&self.query_points, self.windows(), p)?.min()
    }

    fn windows(&self) -> usize {
        (self.query_points.len() / WINDOW).max(1)
    }

    /// The per-window percentile `p`, in schedule order, for the notes.
    fn window_note(&self, p: f64) -> String {
        let figures = window_percentiles(&self.query_points, self.windows(), p).map(|w| {
            w.values()
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
        });
        format!(
            "query p{:.0} per window (ms, in run order): {}",
            p * 100.0,
            figures.map_or("-".into(), |f| f.join(" "))
        )
    }

    /// Median latency of the queries due in the last tenth of the schedule.
    fn late_median(&self, span: Duration) -> Option<f64> {
        let from = span.as_secs_f64() * 0.9;
        let mut late = Samples::new();
        for &(_, v) in self.query_points.iter().filter(|(t, _)| *t >= from) {
            late.push(v);
        }
        late.median()
    }
}

/// A rung's verdict: its windowed p90 and whether it met the SLO with
/// nothing failed and no growing backlog (the last tenth of its requests
/// was not slower than the SLO).
fn rung_verdict(d: &Drive, span: Duration) -> (Option<f64>, bool) {
    let p90 = d.windowed(RUNG_WINDOWS, 0.90);
    let ok = d.failed == 0
        && d.wrong == 0
        && p90.is_some_and(|p| p <= SLO_MS)
        && d.late_median(span).is_some_and(|l| l <= SLO_MS);
    (p90, ok)
}

/// The rate where p90 crosses the SLO, interpolated linearly between the
/// last passing rung and the first failing one. When the failing rung has
/// no p90 above the SLO (it failed on errors or backlog), the passing rate.
fn slo_crossing(pass: (f64, f64), fail: (f64, Option<f64>)) -> f64 {
    let (r1, p1) = pass;
    match fail {
        (r2, Some(p2)) if p2 > SLO_MS => r1 + (r2 - r1) * (SLO_MS - p1) / (p2 - p1),
        _ => r1,
    }
}

fn rung_span(rate: f64, arrivals: usize) -> Duration {
    Duration::from_secs_f64(arrivals as f64 / rate)
}

fn open_plan(seed: u64, rung: usize, rate: f64, arrivals: usize, first_query: usize) -> Plan {
    let due = poisson(seed, rung as u64 + 1, arrivals, rung_span(rate, arrivals));
    let ops = (0..due.len()).map(|i| Op::Query(first_query + i)).collect();
    Plan { due, ops }
}

struct OpenInputs {
    corpus: BinaryDataset,
    queries: Vec<BinaryVector>,
    expected: Vec<Vec<Neighbor>>,
    plans: Vec<Plan>,
    /// Capacity-probe queries with their exact answers.
    saturation: (Vec<BinaryVector>, Vec<Vec<Neighbor>>),
}

/// One plan per `(rate, arrivals)` rung, with distinct queries.
fn open_inputs(seed: u64, rungs: &[(f64, usize)], outcome: &mut Outcome) -> OpenInputs {
    let t = Instant::now();
    let corpus = uniform_dataset(CORPUS, DIMS, seed);
    let mut plans = Vec::new();
    let mut next = 0;
    for (rung, &(rate, arrivals)) in rungs.iter().enumerate() {
        let plan = open_plan(seed, rung, rate, arrivals, next);
        next += plan.ops.len();
        plans.push(plan);
    }
    // Distinct queries (the cache never hits) plus one warm-up query.
    let queries = uniform_queries(next + 1, DIMS, seed ^ 0x0fe2);
    outcome.set(
        "binvec.generate_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    );
    let expected = oracle(&corpus, &queries, K);
    let probe = uniform_queries(SATURATION_QUERIES, DIMS, seed ^ 0x5a7);
    let probe_expected = oracle(&corpus, &probe, K);
    OpenInputs {
        corpus,
        queries,
        expected,
        plans,
        saturation: (probe, probe_expected),
    }
}

/// `(rate, arrivals)` of every ladder rung, the reference rate first.
fn ladder_rungs(seconds: Duration) -> Vec<(f64, usize)> {
    let reference = LADDER[0] * seconds.max(MIN_REFERENCE_SPAN).as_secs_f64();
    let arrivals = |rung| match rung {
        0 => reference as usize,
        _ => RUNG_ARRIVALS,
    };
    LADDER
        .iter()
        .enumerate()
        .map(|(rung, &rate)| (rate, arrivals(rung)))
        .collect()
}

pub fn run_open(cfg: &RunConfig) -> Outcome {
    if cfg.traced {
        return run_open_traced(cfg);
    }
    let mut outcome = Outcome::default();
    let rungs = ladder_rungs(cfg.seconds);
    let inp = open_inputs(cfg.seed, &rungs, &mut outcome);
    let warm = inp.queries.last().expect("warm-up query");
    let (deployment, first_setup) = timed_deploy(|| deploy_open(&inp.corpus, None, warm));
    let tables = Tables {
        queries: &inp.queries,
        inserts: &[],
        expected: Some(&inp.expected),
    };
    let (probe_queries, probe_expected) = &inp.saturation;
    let probe_ops: Vec<Op> = (0..probe_queries.len()).map(Op::Query).collect();
    let probe_tables = Tables {
        queries: probe_queries,
        inserts: &[],
        expected: Some(probe_expected),
    };
    // The reference rung shares its run time with the capacity probe.
    let (reference, mut probe) = drive_with_probe(
        deployment.addr,
        &inp.plans[0],
        &tables,
        None,
        &probe_ops,
        &probe_tables,
    );
    record_drive(&mut outcome, &probe.drive);
    let mut reference = Some(reference);
    let mut passed: Option<(f64, f64)> = None;
    let mut qps_at_slo = None;
    let mut lag = Samples::new();
    for (rung, (plan, &(rate, arrivals))) in inp.plans.iter().zip(&rungs).enumerate() {
        let mut d = match reference.take() {
            Some(d) => d,
            None => drive(deployment.addr, plan, &tables, None),
        };
        record_drive(&mut outcome, &d);
        lag.extend(&d.lag_ms);
        let span = rung_span(rate, arrivals);
        let mut all = d.query_ms();
        let n = all.len() as u64;
        let p50 = d.windowed(RUNG_WINDOWS, 0.50);
        let (p90, ok) = rung_verdict(&d, span);
        let show = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.2}"));
        outcome.notes.push(format!(
            "rung {rate:>6.0} q/s: p50 {} p90 {} ms (windowed), generator lag p90 {} ms (n={n}, failed {}) {}",
            show(p50),
            show(p90),
            show(d.lag_ms.percentile(0.90)),
            d.failed,
            if ok { "meets SLO" } else { "misses SLO" }
        ));
        if rung == 0 {
            outcome.notes.push(d.window_note(0.50));
            outcome.notes.push(d.window_note(0.90));
            outcome.set_opt("latency_p50_ms", d.best_window(0.50), "ms", n);
            outcome.set_opt("latency_p90_ms", d.best_window(0.90), "ms", n);
            outcome.set_opt("query_p50_ms", all.percentile(0.50), "ms", n);
        }
        match (ok, passed) {
            (true, _) => passed = Some((rate, p90.expect("a passing rung has a p90"))),
            (false, Some(pass)) => {
                qps_at_slo = Some(slo_crossing(pass, (rate, p90)));
                break;
            }
            (false, None) => break,
        }
    }
    // Every rung met the SLO: the top rung is a lower bound.
    let qps_at_slo = qps_at_slo.or(passed.map(|(r, _)| r)).unwrap_or(0.0);
    outcome.set("qps_at_slo", qps_at_slo, "1/s", 1);
    let stats = deployment.finish(&mut outcome);
    finish_setup_reps(&mut outcome, first_setup, |_| {
        deploy_open(&inp.corpus, None, warm)
    });
    outcome.notes.push(probe.note());
    let capacity = probe.rate();
    outcome.set("throughput", capacity, "1/s", SATURATION_SLICES as u64);
    outcome.set("capacity_qps", capacity, "1/s", SATURATION_SLICES as u64);
    outcome.notes.push(format!(
        "p90 crosses {SLO_MS} ms at {qps_at_slo:.1} q/s; served {} queries in {} batches",
        stats.queries_served, stats.batches_dispatched
    ));
    outcome.set_opt(
        "gen.lag_p90_ms",
        lag.percentile(0.90),
        "ms",
        lag.len() as u64,
    );
    outcome
}

/// What the capacity probe measured, over all its bursts.
#[derive(Default)]
struct Probe {
    /// Completions per second of every slice.
    rates: Samples,
    /// Completions, failures, wrong answers and mutation acks.
    drive: Drive,
    /// Operations sent so far (the next one is `ops[sent % ops.len()]`).
    sent: usize,
    /// Ids the probe inserted and has not deleted yet, oldest first.
    inserted: VecDeque<u64>,
}

impl Probe {
    /// The best slice's rate (operations/s).
    fn rate(&mut self) -> f64 {
        self.rates.max().expect("the probe ran")
    }

    fn note(&self) -> String {
        let slices: Vec<String> = self
            .rates
            .values()
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        format!(
            "capacity probe slices (ops/s, in run order): {}",
            slices.join(" ")
        )
    }
}

/// One burst of the closed-loop capacity probe over a fresh connection (one
/// thread): keeps [`SATURATION_WINDOW`] operations in flight, continuing
/// through `ops` where the last burst stopped, for `slices` slices of
/// [`SATURATION_SLICE`], then waits for every reply. A query is checked
/// against `tables.expected` when there is one.
fn saturate(addr: SocketAddr, ops: &[Op], tables: &Tables<'_>, slices: usize, p: &mut Probe) {
    let mut stream = TcpStream::connect(addr).expect("connect capacity probe");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut frames = FrameBuffer::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut out = Vec::with_capacity(256 * SATURATION_WINDOW);
    // What each correlation id (burst-local index + 1) carried.
    let mut sent_ops: Vec<Op> = Vec::new();
    let send = |p: &mut Probe, sent_ops: &mut Vec<Op>, out: &mut Vec<u8>| {
        let op = match ops[p.sent % ops.len()] {
            Op::DeleteInserted => match p.inserted.pop_front() {
                Some(id) => Op::Delete(id),
                None => Op::Query(0),
            },
            op => op,
        };
        p.sent += 1;
        sent_ops.push(op);
        op.frame(tables).encode(sent_ops.len() as u64, out);
    };
    for _ in 0..SATURATION_WINDOW {
        send(p, &mut sent_ops, &mut out);
    }
    let mut in_flight = SATURATION_WINDOW;
    let mut per_slice = vec![0u64; slices];
    let start = Instant::now();
    let end = SATURATION_SLICE * slices as u32;
    while in_flight > 0 {
        if !out.is_empty() {
            if let Err(e) = stream.write_all(&out) {
                p.drive
                    .errors
                    .push(format!("capacity probe write failed: {e}"));
                p.drive.failed += in_flight as u64;
                break;
            }
            out.clear();
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => frames.feed(&chunk[..n]),
            Ok(_) | Err(_) => {
                p.drive
                    .errors
                    .push("capacity probe lost its connection".into());
                p.drive.failed += in_flight as u64;
                break;
            }
        }
        while let Ok(Some((correlation, frame))) = frames.next_frame() {
            in_flight -= 1;
            let elapsed = start.elapsed();
            let op = sent_ops[(correlation as usize).wrapping_sub(1)];
            let ok = match (frame, op) {
                (Frame::Completed { neighbors }, Op::Query(q)) => {
                    if tables.expected.is_some_and(|exp| exp[q] != neighbors) {
                        p.drive.wrong += 1;
                    }
                    true
                }
                (Frame::MutAck(ack), Op::Insert(_) | Op::Delete(_)) => {
                    if matches!(op, Op::Insert(_)) {
                        p.inserted.push_back(ack.id as u64);
                    }
                    p.drive.acks.push((op, ack));
                    true
                }
                (other, op) => {
                    if p.drive.errors.len() < 5 {
                        p.drive
                            .errors
                            .push(format!("probe op {correlation} ({op:?}) got {other:?}"));
                    }
                    false
                }
            };
            if ok {
                p.drive.completed += 1;
                let slice = (elapsed.as_secs_f64() / SATURATION_SLICE.as_secs_f64()) as usize;
                if let Some(count) = per_slice.get_mut(slice) {
                    *count += 1;
                }
            } else {
                p.drive.failed += 1;
            }
            if elapsed < end {
                send(p, &mut sent_ops, &mut out);
                in_flight += 1;
            }
        }
    }
    for &count in &per_slice {
        p.rates.push(count as f64 / SATURATION_SLICE.as_secs_f64());
    }
}

/// Runs `plan` open loop in [`PROBE_BURSTS`] consecutive time segments, with
/// a burst of the capacity probe after each, so the latency windows and the
/// probe slices both sample the whole run. The returned drive holds the
/// segments' results on the plan's own time axis.
fn drive_with_probe(
    addr: SocketAddr,
    plan: &Plan,
    tables: &Tables<'_>,
    tracer: Option<&Tracer>,
    probe_ops: &[Op],
    probe_tables: &Tables<'_>,
) -> (Drive, Probe) {
    let mut all = Drive::default();
    let mut probe = Probe::default();
    let step = plan.span() / PROBE_BURSTS as u32;
    for burst in 0..PROBE_BURSTS {
        let from = step * burst as u32;
        let to = match burst + 1 == PROBE_BURSTS {
            true => Duration::MAX,
            false => step * (burst as u32 + 1),
        };
        let d = drive(addr, &plan.segment(from, to), tables, tracer);
        all.absorb(d, from);
        saturate(
            addr,
            probe_ops,
            probe_tables,
            SATURATION_SLICES / PROBE_BURSTS,
            &mut probe,
        );
    }
    (all, probe)
}

/// The serving per-layer figures: runtime stats, decorator spans and
/// client frame spans.
fn serving_layers(
    outcome: &mut Outcome,
    stats: &ap_serve::ServiceStats,
    timed: &Timed,
    d: &mut Drive,
) {
    // The runtime's histograms keep exact sums but ±50% buckets, so means,
    // not percentiles, are read from them.
    outcome.set_opt(
        "runtime.queue_wait_mean_ms",
        stats.queue_wait.mean_ms(),
        "ms",
        stats.queue_wait.count(),
    );
    let batches = stats.batches_dispatched;
    outcome.set(
        "runtime.batch_mean",
        stats.batched_queries as f64 / batches.max(1) as f64,
        "count",
        batches,
    );
    outcome.set(
        "runtime.busy_share",
        stats.busy_time.as_secs_f64() / stats.uptime.as_secs_f64(),
        "ratio",
        batches,
    );
    outcome.set(
        "runtime.refused",
        (stats.queue_full_rejections + stats.deadline_expired + stats.failed_queries) as f64,
        "count",
        stats.queries_submitted,
    );
    outcome.set(
        "cache.hit_rate",
        stats.cache_hit_rate().unwrap_or(0.0),
        "ratio",
        stats.queries_served,
    );
    outcome.set(
        "knn.lane_fill",
        stats.lane_fill().unwrap_or(0.0),
        "ratio",
        stats.lane_batches,
    );

    let spans = timed.tracer.spans();
    let mut batch_ms = Samples::new();
    for s in spans.iter().filter(|s| s.name == "backend.batch") {
        batch_ms.push(s.duration_ns() as f64 / 1e6);
    }
    let backend_p50 = batch_ms.percentile(0.50);
    outcome.set_opt("backend.batch_ms", backend_p50, "ms", batch_ms.len() as u64);
    let per_span = crate::trace::self_times(&spans);
    for (span, metric) in [
        ("net.frame_encode", "net.frame_encode_us"),
        ("net.frame_decode", "net.frame_decode_us"),
    ] {
        if let Some(&(count, total_ns, _)) = per_span.get(span) {
            outcome.set(metric, total_ns as f64 / 1e3 / count as f64, "us", count);
        }
    }
    // Sums add up over requests: client time = queue wait + service time
    // + everything else (frames, sockets, server I/O threads, generator).
    // Cache hits see no queue wait and no service time, so the sums are
    // spread over every client request.
    let client = d.query_ms();
    let service_ms = timed.log().query_service_ms;
    if let Some(wait) = stats.queue_wait.mean_ms() {
        let wait_ms = wait * stats.queue_wait.count() as f64;
        outcome.set(
            "net.overhead_ms",
            (client.sum() - wait_ms - service_ms) / client.len().max(1) as f64,
            "ms",
            client.len() as u64,
        );
    }
    outcome.set_opt(
        "gen.lag_p90_ms",
        d.lag_ms.percentile(0.90),
        "ms",
        d.lag_ms.len() as u64,
    );

    let log = timed.log();
    let reports: u64 = log.run_stats.iter().map(|s| s.reports).sum();
    outcome.set(
        "sim.reports_per_query",
        reports as f64 / log.queries.max(1) as f64,
        "count",
        log.queries,
    );
    set_model(outcome, &log.run_stats, log.queries);
}

fn overhead(outcome: &mut Outcome, untraced: &Drive, traced: &Drive) {
    let mut traced = traced.query_ms();
    if let (Some(u), Some(t)) = (untraced.query_ms().median(), traced.median()) {
        outcome.set(
            "trace.overhead_share",
            (t - u) / u,
            "ratio",
            traced.len() as u64,
        );
    }
}

fn run_open_traced(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    // Reference rung untraced (baseline), reference rung traced, then one
    // loaded rung traced so batching and lane fill show.
    let inp = open_inputs(
        cfg.seed,
        &[
            (LADDER[0], RUNG_ARRIVALS),
            (LADDER[0], RUNG_ARRIVALS),
            (LADDER[2], RUNG_ARRIVALS),
        ],
        &mut outcome,
    );
    let warm = inp.queries.last().expect("warm-up query");
    let tables = Tables {
        queries: &inp.queries,
        inserts: &[],
        expected: Some(&inp.expected),
    };
    let plain = deploy_open(&inp.corpus, None, warm);
    let untraced = drive(plain.addr, &inp.plans[0], &tables, None);
    record_drive(&mut outcome, &untraced);
    plain.finish(&mut outcome);

    let tracer = Arc::new(Tracer::new());
    let dep = deploy_open(&inp.corpus, Some(&tracer), warm);
    let backend = dep.engine_backend.clone().expect("engine backend");
    let fresh_after_warmup = backend.prepared().pool_stats().fresh;
    let mut traced = drive(dep.addr, &inp.plans[1], &tables, Some(&tracer));
    let loaded = drive(dep.addr, &inp.plans[2], &tables, Some(&tracer));
    record_drive(&mut outcome, &traced);
    record_drive(&mut outcome, &loaded);
    let timed = dep.timed.clone().expect("traced deployment");
    let pool_fresh = backend.prepared().pool_stats().fresh - fresh_after_warmup;
    let stats = dep.finish(&mut outcome);
    overhead(&mut outcome, &untraced, &traced);
    // The layer figures cover both traced rungs.
    traced.query_points.extend_from_slice(&loaded.query_points);
    serving_layers(&mut outcome, &stats, &timed, &mut traced);
    outcome.set(
        "knn.pool_fresh",
        pool_fresh as f64,
        "count",
        stats.batches_dispatched,
    );
    let imgs = image_shape(&inp.corpus, &mut outcome);
    scalar_probe(&imgs, &inp.queries[..64], &mut outcome);
    if let Err(e) = tracer.write_jsonl(&cfg.span_path("knn-open")) {
        outcome.notes.push(format!("could not write spans: {e}"));
    }
    outcome
}

// ------------------------------------------------------------- knn-churn

struct ChurnInputs {
    corpus: BinaryDataset,
    hot: Vec<BinaryVector>,
    inserts: Vec<BinaryVector>,
    verify: Vec<BinaryVector>,
    plan: Plan,
    /// The capacity probe's cycle of Zipf queries and inserts.
    probe: Vec<Op>,
}

/// Merged query and mutation arrivals; exactly one mutation in four is a
/// delete (of a distinct base id), placed in a seeded order. The capacity
/// probe's inserts follow the open loop's in the insert table.
fn churn_inputs(seed: u64, span: Duration, outcome: &mut Outcome) -> ChurnInputs {
    let t = Instant::now();
    let corpus = uniform_dataset(CORPUS, DIMS, seed);
    let hot = uniform_queries(HOT_POOL, DIMS, seed ^ 0x407);
    let secs = span.as_secs_f64();
    let q_due = poisson(seed, 101, (CHURN_QUERY_RATE * secs) as usize, span);
    let m_due = poisson(seed, 102, (CHURN_MUTATION_RATE * secs) as usize, span);
    let mut rng = Rng::new(seed, 103);
    let zipf = Zipf::new(HOT_POOL, ZIPF_S);
    let victims = shuffled(CORPUS, &mut rng);
    let deletes = (m_due.len() / 4).min(CORPUS);
    let mut is_delete = vec![false; m_due.len()];
    for &i in &shuffled(m_due.len(), &mut rng)[..deletes] {
        is_delete[i] = true;
    }
    let mut events: Vec<(Duration, Op)> = Vec::with_capacity(q_due.len() + m_due.len());
    events.extend(q_due.iter().map(|&d| (d, Op::Query(zipf.sample(&mut rng)))));
    let mut inserts = 0;
    let mut victim = victims.iter();
    for (&d, &delete) in m_due.iter().zip(&is_delete) {
        let op = match delete {
            true => Op::Delete(*victim.next().expect("fewer deletes than base ids") as u64),
            false => {
                inserts += 1;
                Op::Insert(inserts - 1)
            }
        };
        events.push((d, op));
    }
    events.sort_by_key(|&(d, _)| d);
    // Twice as many mutations as inserts in the cycle: inserts alternate
    // with deletes of the probe's own inserts.
    let probe_len = 2 * CHURN_PROBE_VECTORS * CHURN_PROBE_CYCLE / CHURN_PROBE_MUTATIONS;
    let mut mutations = 0;
    let probe: Vec<Op> = (0..probe_len)
        .map(|i| {
            // Bresenham spacing: mutations spread evenly through the cycle.
            if i * CHURN_PROBE_MUTATIONS % CHURN_PROBE_CYCLE >= CHURN_PROBE_MUTATIONS {
                return Op::Query(zipf.sample(&mut rng));
            }
            mutations += 1;
            match mutations % 2 {
                1 => Op::Insert(inserts + mutations / 2),
                _ => Op::DeleteInserted,
            }
        })
        .collect();
    let inserts = uniform_queries(inserts + CHURN_PROBE_VECTORS, DIMS, seed ^ 0x1e5);
    let mut verify: Vec<BinaryVector> = hot[..VERIFY_QUERIES / 2].to_vec();
    verify.extend(uniform_queries(VERIFY_QUERIES / 2, DIMS, seed ^ 0x7e1));
    outcome.set(
        "binvec.generate_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    );
    ChurnInputs {
        corpus,
        hot,
        inserts,
        verify,
        plan: Plan {
            due: events.iter().map(|&(d, _)| d).collect(),
            ops: events.iter().map(|&(_, op)| op).collect(),
        },
        probe,
    }
}

/// After the quiesce (every ack received), a verification batch must equal
/// an exact scan over the host mirror of the acked inserts and deletes.
fn verify_churn(inp: &ChurnInputs, acks: &[(Op, MutAck)], addr: SocketAddr, outcome: &mut Outcome) {
    let mut live: Vec<Option<BinaryVector>> = inp.corpus.iter().map(Some).collect();
    for &(op, ack) in acks {
        match op {
            Op::Insert(v) => {
                if live.len() <= ack.id {
                    live.resize(ack.id + 1, None);
                }
                live[ack.id] = Some(inp.inserts[v].clone());
            }
            Op::Delete(id) => live[id as usize] = None,
            Op::Query(_) | Op::DeleteInserted => unreachable!("acks answer sent mutations"),
        }
    }
    // Stable ids in increasing order keep (distance, id) tie-breaks aligned.
    let ids: Vec<usize> = (0..live.len()).filter(|&i| live[i].is_some()).collect();
    let mirror =
        BinaryDataset::from_vectors(DIMS, ids.iter().map(|&i| live[i].clone().expect("live")));
    let expected: Vec<Vec<Neighbor>> = oracle(&mirror, &inp.verify, K)
        .into_iter()
        .map(|ns| {
            ns.into_iter()
                .map(|n| Neighbor::new(ids[n.id], n.distance))
                .collect()
        })
        .collect();
    let mut client = ApClient::connect(addr).expect("connect for verification");
    let mut wrong = 0;
    for (q, want) in inp.verify.iter().zip(&expected) {
        outcome.attempted += 1;
        match client.search(q.clone(), QueryOptions::top(K)) {
            Ok(got) if &got == want => {}
            Ok(_) => wrong += 1,
            Err(e) => {
                outcome.failed += 1;
                outcome
                    .notes
                    .push(format!("verification query failed: {e}"));
            }
        }
    }
    outcome.wrong_answers(wrong);
}

/// The open-loop churn (with the capacity probe's bursts between its
/// segments when `probe` is set), then the verification against every ack.
/// The traced run leaves the probe out, so the runtime's counters describe
/// the open loop alone.
fn churn_once(
    inp: &ChurnInputs,
    dep: &Deployment,
    outcome: &mut Outcome,
    tracer: Option<&Tracer>,
    probe: bool,
) -> (Drive, Probe) {
    let tables = Tables {
        queries: &inp.hot,
        inserts: &inp.inserts,
        expected: None,
    };
    let (d, probe) = match probe {
        true => drive_with_probe(dep.addr, &inp.plan, &tables, tracer, &inp.probe, &tables),
        false => (
            drive(dep.addr, &inp.plan, &tables, tracer),
            Probe::default(),
        ),
    };
    record_drive(outcome, &d);
    record_drive(outcome, &probe.drive);
    let mut acks = d.acks.clone();
    acks.extend_from_slice(&probe.drive.acks);
    verify_churn(inp, &acks, dep.addr, outcome);
    (d, probe)
}

pub fn run_churn(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let inp = churn_inputs(cfg.seed, CHURN_EPISODE, &mut outcome);
    let warm = &inp.verify[VERIFY_QUERIES - 1];
    if cfg.traced {
        return run_churn_traced(cfg, inp, outcome);
    }
    let scratch = |rep: usize| cfg.scratch_dir(&format!("churn{rep}"));
    let episodes = (cfg.seconds.as_secs() / CHURN_EPISODE.as_secs()).max(1) as usize;
    let windows = inp
        .plan
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Query(_)))
        .count()
        / WINDOW;
    let mut p50 = BestOf::new(windows);
    let mut p90 = BestOf::new(windows);
    // Milliseconds per operation of each probe slice: the best is the lowest.
    let mut slice_ms = BestOf::new(SATURATION_SLICES);
    let mut setups = Samples::new();
    let mut all = Samples::new();
    let mut acks = Samples::new();
    let mut lag = Samples::new();
    let mut probed = 0;
    let mut cache_hits = Samples::new();
    for episode in 0..episodes {
        let (dep, secs) = timed_deploy(|| deploy_churn(&inp.corpus, None, warm, scratch(episode)));
        setups.push(secs);
        let (d, probe) = churn_once(&inp, &dep, &mut outcome, None, true);
        let stats = dep.finish(&mut outcome);
        if episode == 0 {
            // Later episodes and set-ups reuse the freed memory unevenly, so
            // the peak is one episode's.
            crate::report::set_peak_rss(&mut outcome);
        }
        for rep in 1..CHURN_SETUPS_PER_EPISODE {
            let scratch = scratch(episodes + episode * CHURN_SETUPS_PER_EPISODE + rep);
            let (extra, secs) = timed_deploy(|| deploy_churn(&inp.corpus, None, warm, scratch));
            setups.push(secs);
            extra.finish(&mut Outcome::default());
        }
        for (best, p) in [(&mut p50, 0.50), (&mut p90, 0.90)] {
            let figures = window_percentiles(&d.query_points, windows, p);
            for (w, &v) in figures.iter().flat_map(|f| f.values()).enumerate() {
                best.record(w, v);
            }
            outcome
                .notes
                .push(format!("episode {episode}: {}", d.window_note(p)));
        }
        for (i, &rate) in probe.rates.values().iter().enumerate() {
            slice_ms.record(i, 1e3 / rate);
        }
        outcome
            .notes
            .push(format!("episode {episode}: {}", probe.note()));
        all.extend(&d.query_ms());
        acks.extend(&d.mutation_ms);
        lag.extend(&d.lag_ms);
        probed += probe.drive.completed;
        cache_hits.push(stats.cache_hit_rate().unwrap_or(0.0));
    }
    let n_setups = setups.len() as u64;
    outcome.set("setup_s", setups.min().expect("set-ups ran"), "s", n_setups);
    let (nq, nm) = (all.len() as u64, acks.len() as u64);
    outcome.set_opt("latency_p50_ms", p50.samples().median(), "ms", nq);
    outcome.set_opt("latency_p90_ms", p90.samples().median(), "ms", nq);
    outcome.set_opt("query_p50_ms", all.percentile(0.50), "ms", nq);
    outcome.set_opt("mutation_ack_p50_ms", acks.percentile(0.50), "ms", nm);
    let slices = (SATURATION_SLICES * episodes) as u64;
    let capacity = 1e3 / slice_ms.samples().median().expect("the probe ran");
    outcome.set("throughput", capacity, "1/s", slices);
    outcome.set("capacity_ops", capacity, "1/s", slices);
    outcome.set_opt(
        "gen.lag_p90_ms",
        lag.percentile(0.90),
        "ms",
        lag.len() as u64,
    );
    outcome.notes.push(format!(
        "{episodes} episodes: {nq} queries, {nm} mutations acked, {probed} probe operations, \
         cache hit rate {:.3} (median episode)",
        cache_hits.median().expect("episodes ran")
    ));
    outcome
}

fn run_churn_traced(cfg: &RunConfig, inp: ChurnInputs, mut outcome: Outcome) -> Outcome {
    let warm = &inp.verify[VERIFY_QUERIES - 1];
    let plain = deploy_churn(&inp.corpus, None, warm, cfg.scratch_dir("churn-plain"));
    let (untraced, _) = churn_once(&inp, &plain, &mut outcome, None, false);
    plain.finish(&mut outcome);

    let tracer = Arc::new(Tracer::new());
    let dep = deploy_churn(
        &inp.corpus,
        Some(&tracer),
        warm,
        cfg.scratch_dir("churn-traced"),
    );
    let live = dep.live.clone().expect("live engine");
    let timed = dep.timed.clone().expect("traced deployment");
    let (mut d, _) = churn_once(&inp, &dep, &mut outcome, Some(&tracer), false);
    let status = live.status();
    drop(live);
    let stats = dep.finish(&mut outcome);
    overhead(&mut outcome, &untraced, &d);
    serving_layers(&mut outcome, &stats, &timed, &mut d);
    outcome.set_opt(
        "live.staleness_mean_ms",
        stats.mutation_staleness.mean_ms(),
        "ms",
        stats.mutation_staleness.count(),
    );
    {
        let log = timed.log();
        let n = log.live.len();
        let mean = |f: fn(&LiveStatus) -> usize| {
            log.live.iter().map(|s| f(s) as f64).sum::<f64>() / n.max(1) as f64
        };
        outcome.set(
            "live.delta_vectors",
            mean(|s| s.delta_vectors),
            "count",
            n as u64,
        );
        outcome.set("live.tombstones", mean(|s| s.tombstones), "count", n as u64);
    }
    outcome.set("live.compactions", status.compactions as f64, "count", 1);
    outcome.set(
        "wal.fsyncs_per_mutation",
        stats.wal_fsyncs as f64 / stats.mutations_applied.max(1) as f64,
        "ratio",
        stats.mutations_applied,
    );
    outcome.set(
        "wal.group_mean",
        stats.wal_group_mean,
        "count",
        stats.wal_fsyncs,
    );
    image_shape(&inp.corpus, &mut outcome);
    if let Err(e) = tracer.write_jsonl(&cfg.span_path("knn-churn")) {
        outcome.notes.push(format!("could not write spans: {e}"));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_crossing_interpolates_only_across_the_slo() {
        assert_eq!(slo_crossing((500.0, 15.0), (700.0, Some(35.0))), 600.0);
        // The failing rung met the latency SLO (it failed on backlog or
        // errors): no interpolation past the passing rate.
        assert_eq!(slo_crossing((500.0, 15.0), (700.0, Some(20.0))), 500.0);
        assert_eq!(slo_crossing((500.0, 15.0), (700.0, None)), 500.0);
    }
}
