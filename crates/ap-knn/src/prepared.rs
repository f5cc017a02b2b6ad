//! Prepared (amortized) execution: partition once, build and compile every
//! board image once, then stream any number of query batches.
//!
//! The one-shot engine path re-partitions the dataset and rebuilds + recompiles
//! every [`PartitionNetwork`] on every `try_search_batch` call — exactly the
//! reconfiguration-dominated regime Table IV warns about, paid in host time. A
//! [`PreparedEngine`] is the board-image set of §III-C made explicit: the
//! dataset partitioning, the per-partition automata networks, and the compiled
//! sparse-frontier cores are all constructed once and cached, so a steady
//! stream of batches pays only for encoding the new symbol stream and running
//! it. Board images are compiled lazily on the first cycle-accurate batch
//! (behavioural-only traffic never builds a network at all). Every
//! cycle-accurate batch, a single query included, runs on the bit-parallel
//! lane core: each 64-query chunk is one window-length pass.
//!
//! [`crate::scheduler::PreparedSchedule`] is a view over a [`PreparedEngine`]
//! that reports the multi-board schedule.

use crate::builder::PartitionNetwork;
use crate::decode::merge_lane_reports_into;
use crate::engine::{ApKnnEngine, ApRunStats, ExecutionMode};
use crate::lanes::encode_lane_planes_into;
use crate::plan::{BASE_NS_PER_SYMBOL, LANE_CYCLE_COST_FACTOR, NS_PER_ELEMENT_SYMBOL};
use crate::stream::StreamLayout;
use ap_sim::lanes::{LaneReportEvent, LaneState, LaneStream, MAX_LANES};
use ap_sim::CompiledNetwork;
use binvec::dataset::DatasetPartition;
use binvec::{
    BinaryDataset, BinaryVector, ExecutionPreference, Neighbor, QueryOptions, SearchError, TopK,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cached board configuration: the compiled sparse-frontier core plus the
/// base index that rebases its report codes into global dataset ids.
#[derive(Clone, Debug)]
struct BoardImage {
    base_index: usize,
    compiled: CompiledNetwork,
}

/// Reusable execution scratch for one batch role (the host merge side of a
/// batch, or one fan-out worker): per-query top-k accumulators, the
/// behavioural distance buffer, and the lane core's run state, report sink
/// and encoded passes. Everything is recycled through the [`ScratchPool`], so
/// a steady-state batch touches no allocator.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Per-query top-k accumulators, re-armed per batch. Never shrinks, so
    /// alternating batch widths reuse every selector.
    accumulators: Vec<TopK>,
    /// Behavioural-mode per-partition distance buffer.
    distances: Vec<u32>,
    /// Lane-core run state, adapted per board image via
    /// [`CompiledNetwork::recycle_lane_state`]. Created on the first
    /// cycle-accurate run this scratch serves.
    lane_state: Option<LaneState>,
    /// Lane-core report sink reused across images and passes.
    lane_reports: Vec<LaneReportEvent>,
    /// Encoded lane passes for the batch (one per 64-query chunk); streams are
    /// re-encoded in place, so the vector only grows to the widest batch seen.
    lane_streams: Vec<LaneStream>,
}

/// Occupancy statistics of a prepared engine's execution-scratch pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Scratch checkouts served (one host checkout per batch plus one per
    /// cycle-accurate fan-out worker).
    pub checkouts: u64,
    /// Checkouts that created a fresh scratch because the pool was empty.
    /// In steady state this stops growing: every batch runs entirely on
    /// recycled scratch — the zero-allocation hot path.
    pub fresh: u64,
}

impl PoolStats {
    /// Checkouts served from recycled scratch.
    pub fn hits(&self) -> u64 {
        self.checkouts - self.fresh
    }
}

/// A lock-guarded free list of [`BatchScratch`] shared by every batch (and
/// every fan-out worker) of one prepared engine. Clones of a prepared engine
/// share the pool through its `Arc`.
#[derive(Debug, Default)]
struct ScratchPool {
    idle: Mutex<Vec<BatchScratch>>,
    checkouts: AtomicU64,
    fresh: AtomicU64,
}

impl ScratchPool {
    /// Takes a scratch from the pool, creating one only when it is empty.
    fn checkout(&self) -> BatchScratch {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        match self.idle.lock().expect("scratch pool poisoned").pop() {
            Some(scratch) => scratch,
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                BatchScratch::default()
            }
        }
    }

    /// Returns a scratch (with all its warmed allocations) to the pool.
    fn give_back(&self, scratch: BatchScratch) {
        self.idle
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Checkout/fresh counters.
    fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
        }
    }
}

/// Minimum estimated simulation work (nanoseconds) a fan-out worker must have
/// before spawning it pays: below this, thread spawn + scratch checkout + host
/// merge overhead eats the parallel win (the committed `wide` shape recorded a
/// 0.99× "speedup" for exactly this reason). The estimate reuses the planner's
/// calibrated cost model, so the gate and the planner can never disagree about
/// what a symbol costs.
const MIN_WORKER_FANOUT_NS: f64 = 2_000_000.0;

/// Chunk length of the contiguous worker assignment for `count` items over up
/// to `workers` workers: worker `w` owns items `[w·span, (w+1)·span)`. This is
/// the *one* definition of the fan-out shape — the execution path chunks by it
/// and [`crate::ScheduleStats`] reports it (via [`contiguous_assignment`]),
/// so the two can never drift. Allocation-free for the pooled hot path.
fn assignment_span(count: usize, workers: usize) -> usize {
    let workers = workers.min(count).max(1);
    count.div_ceil(workers).max(1)
}

/// The per-worker item counts of the contiguous assignment (see
/// [`assignment_span`]).
pub(crate) fn contiguous_assignment(count: usize, workers: usize) -> Vec<usize> {
    let span = assignment_span(count, workers);
    (0..count.div_ceil(span))
        .map(|w| span.min(count - w * span))
        .collect()
}

/// Re-arms the first `queries` accumulators of `acc` as fresh top-`k`
/// selectors and returns them, reusing both the outer vector and every
/// selector's heap allocation. The vector only grows: selectors past
/// `queries` are kept for the next wider batch.
fn arm_accumulators(acc: &mut Vec<TopK>, queries: usize, k: usize) -> &mut [TopK] {
    for a in acc.iter_mut().take(queries) {
        a.reset(k);
    }
    while acc.len() < queries {
        acc.push(TopK::new(k));
    }
    &mut acc[..queries]
}

/// An [`ApKnnEngine`] bound to a dataset with its board images cached.
///
/// Created by [`ApKnnEngine::prepare`]. Repeated [`Self::try_search_batch`]
/// calls reuse the partitioning and the compiled cores, so steady-state batch
/// cost is encoding + streaming only; results and [`ApRunStats`] are
/// bit-identical to the one-shot engine path (proptest-enforced in
/// `tests/prepared_engine.rs`).
#[derive(Clone, Debug)]
pub struct PreparedEngine {
    engine: ApKnnEngine,
    layout: StreamLayout,
    partitions: Vec<DatasetPartition>,
    dataset_len: usize,
    /// Compiled board images, built on the first cycle-accurate run.
    images: OnceLock<Result<Vec<BoardImage>, SearchError>>,
    /// Shared execution-scratch pool; clones of a preparation share it.
    pool: Arc<ScratchPool>,
}

impl PreparedEngine {
    /// Partitions `data` into the engine's board images.
    ///
    /// # Errors
    /// [`SearchError::ZeroDims`] for a zero-dimension design and
    /// [`SearchError::DimMismatch`] when the dataset disagrees with it.
    pub(crate) fn new(engine: ApKnnEngine, data: &BinaryDataset) -> Result<Self, SearchError> {
        let design = *engine.design();
        if design.dims == 0 {
            return Err(SearchError::ZeroDims);
        }
        if data.dims() != design.dims {
            return Err(SearchError::DimMismatch {
                expected: design.dims,
                actual: data.dims(),
            });
        }
        Ok(Self {
            layout: StreamLayout::for_design(&design),
            partitions: data.partition(engine.capacity().vectors_per_board.max(1)),
            dataset_len: data.len(),
            images: OnceLock::new(),
            pool: Arc::new(ScratchPool::default()),
            engine,
        })
    }

    /// The engine configuration this preparation was made with.
    pub fn engine(&self) -> &ApKnnEngine {
        &self.engine
    }

    /// Vectors served.
    pub fn len(&self) -> usize {
        self.dataset_len
    }

    /// Whether the prepared dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.dataset_len == 0
    }

    /// Dimensionality of the served vectors.
    pub fn dims(&self) -> usize {
        self.engine.design().dims
    }

    /// Board configurations (dataset partitions) in the prepared image set.
    pub fn board_count(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the board images have been built and compiled yet (they are
    /// compiled lazily by the first cycle-accurate batch; a cached compile
    /// *failure* does not count as compiled).
    pub fn is_compiled(&self) -> bool {
        self.images.get().is_some_and(|r| r.is_ok())
    }

    /// Builds and compiles the board images now instead of on the first
    /// cycle-accurate batch, so serving traffic never pays the compile.
    ///
    /// # Errors
    /// [`SearchError::Backend`] if a partition network fails validation.
    pub fn compile(&self) -> Result<(), SearchError> {
        self.images().map(|_| ())
    }

    /// Statistics of the shared execution-scratch pool. Once traffic reaches a
    /// steady state [`PoolStats::fresh`] stops growing: every batch (encode →
    /// simulate → decode) runs entirely on recycled scratch.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Fabric elements of the largest board image (partition 0 by
    /// construction) — the planner's fabric-size input.
    fn board_elements(&self) -> usize {
        let design = self.engine.design();
        let vectors = self.partitions.first().map_or(0, |p| p.data.len());
        vectors * (design.stes_per_vector() + design.counters_per_vector())
    }

    /// Clamps a requested fan-out width to the number of workers that each get
    /// at least [`MIN_WORKER_FANOUT_NS`] of estimated simulation work, pricing
    /// `lane_cycles_per_image` at the planner's lane rate (per-symbol model ×
    /// [`LANE_CYCLE_COST_FACTOR`]). [`crate::scheduler::PreparedSchedule`]
    /// reports its modelled boards, not this host-thread count.
    fn gated_workers(&self, lane_cycles_per_image: u64, workers: usize) -> usize {
        if workers <= 1 {
            return workers.max(1);
        }
        let ns_per_cycle = (BASE_NS_PER_SYMBOL
            + NS_PER_ELEMENT_SYMBOL * self.board_elements() as f64)
            * LANE_CYCLE_COST_FACTOR;
        let total_ns = lane_cycles_per_image as f64 * self.partitions.len() as f64 * ns_per_cycle;
        let useful = (total_ns / MIN_WORKER_FANOUT_NS) as usize;
        workers.min(useful.max(1))
    }

    /// Streams the encoded lane passes (one per 64-query chunk of the batch,
    /// see [`crate::lanes::encode_lane_planes_into`]) through every cached
    /// board image, fanning the images out over up to `workers` scoped
    /// threads — each standing in for one board — and merging each worker's
    /// per-query accumulators into `global` (which must hold one armed
    /// selector per query). Pass `p` demultiplexes into queries `p·64 ..`.
    /// The returned report count unrolls every event's lane mask (one report
    /// per set lane), so [`crate::engine::ApRunStats::reports`] counts one
    /// report per (vector, query) pair exactly as the behavioural path does.
    ///
    /// Every worker checks its scratch (run state, report sink, accumulators)
    /// out of the shared [`ScratchPool`] and returns it afterwards, so a
    /// steady-state batch performs no execution-side allocation.
    fn fan_out_lanes_into(
        &self,
        streams: &[LaneStream],
        k: usize,
        workers: usize,
        global: &mut [TopK],
    ) -> Result<u64, SearchError> {
        let images = self.images()?;
        let layout = &self.layout;
        let queries_len = global.len();
        if images.is_empty() {
            return Ok(0);
        }
        let span = assignment_span(images.len(), workers);
        let workers = workers.min(images.len()).max(1);
        let pool: &ScratchPool = &self.pool;

        let run_chunk = |owned: &[BoardImage], scratch: &mut BatchScratch| -> u64 {
            let accumulators = arm_accumulators(&mut scratch.accumulators, queries_len, k);
            let mut reports_total = 0u64;
            for image in owned {
                for (pass, stream) in streams.iter().enumerate() {
                    // Recycling adapts the pooled state to this image's
                    // geometry *and* clears it between passes.
                    if let Some(state) = scratch.lane_state.as_mut() {
                        image.compiled.recycle_lane_state(state);
                    } else {
                        scratch.lane_state = Some(image.compiled.new_lane_state());
                    }
                    let state = scratch.lane_state.as_mut().expect("state just ensured");
                    scratch.lane_reports.clear();
                    image
                        .compiled
                        .run_lanes_into(state, stream, &mut scratch.lane_reports);
                    merge_lane_reports_into(
                        layout,
                        &scratch.lane_reports,
                        image.base_index,
                        pass * MAX_LANES,
                        accumulators,
                    );
                    reports_total += scratch
                        .lane_reports
                        .iter()
                        .map(|r| u64::from(r.lanes.count_ones()))
                        .sum::<u64>();
                }
            }
            reports_total
        };

        if workers <= 1 {
            let mut scratch = pool.checkout();
            let reports = run_chunk(images, &mut scratch);
            for (g, partial) in global.iter_mut().zip(&scratch.accumulators) {
                g.merge(partial);
            }
            pool.give_back(scratch);
            return Ok(reports);
        }

        let run_chunk = &run_chunk;
        let outputs: Vec<(BatchScratch, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = images
                .chunks(span)
                .map(|owned| {
                    scope.spawn(move || {
                        let mut scratch = pool.checkout();
                        let reports = run_chunk(owned, &mut scratch);
                        (scratch, reports)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("board-image worker panicked"))
                .collect()
        });
        // The host merge across workers is exactly the merge across sequential
        // reconfigurations, in assignment order.
        let mut reports_total = 0u64;
        for (scratch, reports) in outputs {
            for (g, partial) in global.iter_mut().zip(&scratch.accumulators) {
                g.merge(partial);
            }
            pool.give_back(scratch);
            reports_total += reports;
        }
        Ok(reports_total)
    }

    /// The compiled board images, building every [`PartitionNetwork`] and
    /// compiling its sparse-frontier core on first use. With strict analysis
    /// enabled, every compiled image is cross-checked against its source
    /// network by the `ap-analyze` translation validator before it is cached
    /// — a mis-translation becomes a hard [`SearchError::Backend`] instead of
    /// silently corrupted search results.
    fn images(&self) -> Result<&[BoardImage], SearchError> {
        self.images
            .get_or_init(|| {
                self.partitions
                    .iter()
                    .map(|partition| {
                        let pn = PartitionNetwork::build(partition, self.engine.design());
                        let compiled = CompiledNetwork::compile(&pn.network).map_err(|e| {
                            SearchError::Backend {
                                backend: "ap-knn".to_string(),
                                reason: e.to_string(),
                            }
                        })?;
                        if self.engine.strict_analysis() {
                            ap_analyze::verify_compilation(&pn.network, &compiled).map_err(
                                |reason| SearchError::Backend {
                                    backend: "ap-knn".to_string(),
                                    reason: format!(
                                        "strict analysis rejected the board image at base \
                                         index {}: {reason}",
                                        partition.base_index
                                    ),
                                },
                            )?;
                        }
                        Ok(BoardImage {
                            base_index: partition.base_index,
                            compiled,
                        })
                    })
                    .collect()
            })
            .as_deref()
            .map_err(|e| e.clone())
    }

    /// Searches `queries` against the prepared dataset, writing the per-query
    /// sorted neighbors into the caller-owned `results` (resized to the batch;
    /// inner vectors are reused). Passing the same `results` every batch keeps
    /// even the result delivery off the allocator — combined with the scratch
    /// pool, a warmed steady-state batch performs zero heap allocation.
    ///
    /// Semantics are identical to [`ApKnnEngine::try_search_batch`]; only the
    /// per-call board-image construction cost is gone.
    ///
    /// # Errors
    /// Exactly the errors of [`ApKnnEngine::try_search_batch`], minus the
    /// dataset-shape errors already reported by [`ApKnnEngine::prepare`].
    pub fn try_search_batch_into(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
        results: &mut Vec<Vec<Neighbor>>,
    ) -> Result<ApRunStats, SearchError> {
        options.validate()?;
        let dims = self.dims();
        for q in queries {
            if q.dims() != dims {
                return Err(SearchError::DimMismatch {
                    expected: dims,
                    actual: q.dims(),
                });
            }
        }

        let layout = &self.layout;
        let partitions = &self.partitions;
        let configs = partitions.len().max(1);
        // Each 64-query chunk of the batch is one window-length lane pass.
        let lane_passes = queries.len().div_ceil(MAX_LANES);
        let lane_cycles_per_image = layout.window_len() as u64 * lane_passes as u64;
        let mode = match options.execution {
            ExecutionPreference::Auto => {
                // The planner sees the critical-path cycle count: board
                // images fan out over the engine's workers, so wall-clock is
                // set by the most loaded worker, not the serial sum.
                let workers = self.engine.parallelism().min(configs).max(1);
                let critical_configs = configs.div_ceil(workers) as u64;
                self.engine.planner().pick(
                    self.board_elements(),
                    lane_cycles_per_image * critical_configs,
                )
            }
            ExecutionPreference::CycleAccurate => ExecutionMode::CycleAccurate,
            ExecutionPreference::Behavioral => ExecutionMode::Behavioral,
        };

        let k = options.k;
        // The host-side scratch: global accumulators, encoded lane passes, and
        // the behavioural distance buffer all come from (and return to) the
        // pool.
        let mut host = self.pool.checkout();
        let global = arm_accumulators(&mut host.accumulators, queries.len(), k);
        let mut reports_total = 0u64;
        let mut lane_ran = false;
        // An empty batch streams nothing and an empty dataset has no boards:
        // skip execution entirely (and never compile images for it).
        if !queries.is_empty() && !partitions.is_empty() {
            match mode {
                ExecutionMode::CycleAccurate => {
                    // Encode each 64-query chunk as bit-planes of one window
                    // (into pooled streams — only a batch wider than any
                    // before allocates a new pass buffer), then fan the
                    // independent images out over the engine's workers. The
                    // host merge across workers is exactly the merge across
                    // sequential reconfigurations, so results and statistics
                    // are identical at any worker count.
                    while host.lane_streams.len() < lane_passes {
                        host.lane_streams.push(LaneStream::new());
                    }
                    for (chunk, stream) in
                        queries.chunks(MAX_LANES).zip(host.lane_streams.iter_mut())
                    {
                        encode_lane_planes_into(layout, chunk, stream);
                    }
                    let workers =
                        self.gated_workers(lane_cycles_per_image, self.engine.parallelism());
                    match self.fan_out_lanes_into(
                        &host.lane_streams[..lane_passes],
                        k,
                        workers,
                        global,
                    ) {
                        Ok(reports) => {
                            reports_total = reports;
                            lane_ran = true;
                        }
                        Err(e) => {
                            self.pool.give_back(host);
                            return Err(e);
                        }
                    }
                }
                ExecutionMode::Behavioral => {
                    // Behavioural equivalent: every encoded vector reports once
                    // per query, at the offset encoding its Hamming distance.
                    // One batched word-level distance kernel per
                    // (partition, query) pair.
                    for partition in partitions {
                        for (qi, q) in queries.iter().enumerate() {
                            partition.data.hamming_batch_into(q, &mut host.distances);
                            reports_total += host.distances.len() as u64;
                            let acc = &mut global[qi];
                            for (local, &dist) in host.distances.iter().enumerate() {
                                acc.offer(Neighbor::new(partition.global_index(local), dist));
                            }
                        }
                    }
                }
            }
        }

        let mut stats = self.engine.accounting(
            self.dataset_len,
            queries.len(),
            configs,
            reports_total,
            layout,
        );
        if lane_ran {
            stats.lane_width = MAX_LANES;
            stats.lane_fill = queries.len() as f64 / (lane_passes * MAX_LANES) as f64;
        }
        // Decode into the caller-owned results, reusing inner allocations.
        results.truncate(queries.len());
        while results.len() < queries.len() {
            results.push(Vec::new());
        }
        for (acc, neighbors) in global.iter_mut().zip(results.iter_mut()) {
            acc.drain_sorted_into(neighbors);
            options.clip(neighbors);
        }
        self.pool.give_back(host);
        Ok(stats)
    }

    /// Searches `queries` against the prepared dataset. Semantics are identical
    /// to [`ApKnnEngine::try_search_batch`]; only the per-call board-image
    /// construction cost is gone. See [`Self::try_search_batch_into`] for the
    /// allocation-free steady-state form.
    ///
    /// # Errors
    /// Exactly the errors of [`ApKnnEngine::try_search_batch`], minus the
    /// dataset-shape errors already reported by [`ApKnnEngine::prepare`].
    pub fn try_search_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<(Vec<Vec<Neighbor>>, ApRunStats), SearchError> {
        let mut results = Vec::new();
        let stats = self.try_search_batch_into(queries, options, &mut results)?;
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{BoardCapacity, CapacityModel};
    use crate::design::KnnDesign;
    use binvec::generate::{uniform_dataset, uniform_queries};

    fn tiny_capacity(vectors_per_board: usize) -> BoardCapacity {
        BoardCapacity {
            vectors_per_board,
            model: CapacityModel::PaperCalibrated,
        }
    }

    #[test]
    fn worker_fanout_gate_scales_with_estimated_work() {
        let dims = 16;
        let data = uniform_dataset(24, dims, 70);
        let boards = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(tiny_capacity(8))
            .prepare(&data)
            .unwrap();
        assert_eq!(boards.board_count(), 3);

        // Tiny batches do not amortize a thread spawn: the gate collapses the
        // requested fan-out to a single in-place worker.
        assert_eq!(boards.gated_workers(0, 8), 1);
        assert_eq!(boards.gated_workers(10, 8), 1);

        // Huge batches pass the requested width straight through.
        assert_eq!(boards.gated_workers(1_000_000, 8), 8);

        // In between, the width grows with the work estimate but never
        // exceeds the request.
        let mid = boards.gated_workers(2_000, 8);
        assert!((1..=8).contains(&mid));
        assert!(boards.gated_workers(4_000, 8) >= mid);

        // A serial request is always honored as-is (and zero is clamped up).
        assert_eq!(boards.gated_workers(1_000_000, 1), 1);
        assert_eq!(boards.gated_workers(1_000_000, 0), 1);
    }

    #[test]
    fn prepared_engine_matches_fresh_across_repeated_batches() {
        let dims = 12;
        let data = uniform_dataset(42, dims, 71);
        let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(tiny_capacity(9));
        let prepared = engine.prepare(&data).unwrap();
        assert_eq!(prepared.board_count(), 5);
        assert!(!prepared.is_compiled(), "images compile on first use");
        for round in 0..3 {
            let queries = uniform_queries(4, dims, 72 + round);
            let options = QueryOptions::top(5);
            let fresh = engine.try_search_batch(&data, &queries, &options).unwrap();
            let reused = prepared.try_search_batch(&queries, &options).unwrap();
            assert_eq!(fresh, reused, "round {round}");
        }
        assert!(prepared.is_compiled());
    }

    #[test]
    fn behavioral_batches_never_compile_images() {
        let dims = 16;
        let data = uniform_dataset(30, dims, 73);
        let engine = ApKnnEngine::new(KnnDesign::new(dims))
            .with_mode(ExecutionMode::Behavioral)
            .with_capacity(tiny_capacity(10));
        let prepared = engine.prepare(&data).unwrap();
        let queries = uniform_queries(3, dims, 74);
        let (results, _) = prepared
            .try_search_batch(&queries, &QueryOptions::top(3))
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(
            !prepared.is_compiled(),
            "behavioural path builds no network"
        );
    }

    #[test]
    fn explicit_compile_prebuilds_the_images() {
        let dims = 8;
        let data = uniform_dataset(12, dims, 75);
        let prepared = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(tiny_capacity(5))
            .prepare(&data)
            .unwrap();
        prepared.compile().unwrap();
        assert!(prepared.is_compiled());
    }

    #[test]
    fn strict_analysis_accepts_healthy_images_and_matches_plain_results() {
        let dims = 10;
        let data = uniform_dataset(25, dims, 79);
        let plain = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(tiny_capacity(7));
        let strict = plain.clone().with_strict_analysis(true);
        assert!(strict.strict_analysis());
        let prepared = strict.prepare(&data).unwrap();
        prepared
            .compile()
            .expect("validator accepts healthy images");
        let queries = uniform_queries(3, dims, 80);
        let options = QueryOptions::top(4);
        let a = plain
            .prepare(&data)
            .unwrap()
            .try_search_batch(&queries, &options)
            .unwrap();
        let b = prepared.try_search_batch(&queries, &options).unwrap();
        assert_eq!(a, b, "strict analysis must not change results");
    }

    #[test]
    fn prepare_reports_dataset_shape_errors() {
        let engine = ApKnnEngine::new(KnnDesign::new(8));
        let wide = uniform_dataset(4, 16, 76);
        assert_eq!(
            engine.prepare(&wide).unwrap_err(),
            SearchError::DimMismatch {
                expected: 8,
                actual: 16
            }
        );
    }

    #[test]
    fn empty_dataset_and_empty_batch_are_served() {
        let dims = 8;
        let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(tiny_capacity(4));
        let empty = BinaryDataset::new(dims);
        let prepared = engine.prepare(&empty).unwrap();
        assert!(prepared.is_empty());
        let queries = uniform_queries(2, dims, 77);
        let (results, stats) = prepared
            .try_search_batch(&queries, &QueryOptions::top(3))
            .unwrap();
        assert_eq!(results, vec![Vec::new(), Vec::new()]);
        assert_eq!(stats.reports, 0);
        assert_eq!(stats.board_configurations, 1);

        let data = uniform_dataset(10, dims, 78);
        let prepared = engine.prepare(&data).unwrap();
        let (results, stats) = prepared
            .try_search_batch(&[], &QueryOptions::top(3))
            .unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.symbols_streamed, 0);
        assert!(!prepared.is_compiled(), "an empty batch builds nothing");
    }
}
