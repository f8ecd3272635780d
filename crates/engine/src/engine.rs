//! The engine proper: one immutable index, many lightweight handles.
//!
//! Every engine serves one of the paper's three algorithms through the
//! same generic stack: a [`ShardedIndex`] over `k ≥ 1` `R`-shards
//! (one shard is the unsharded build), wrapped in an [`OverlayIndex`]
//! while mutations are pending. The `Family` trait holds the only
//! code that differs per algorithm — how its `S`-side is built,
//! shared, patched and repaired.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use srj_core::{
    BbstIndex, BbstSStructures, BufferStats, CellPatchReport, Cursor, DeltaSet, JoinPair,
    JoinSampler, KdCellStore, KdsIndex, KdsRejectionIndex, OverlayIndex, OverlaySupport,
    PhaseReport, SampleConfig, SampleError, SamplerIndex,
};
use srj_geom::{Point, PointId};

use crate::planner::{plan, PlanReport};
use crate::shard::ShardedIndex;
use crate::stats::{CellRejectionStats, EngineStats, StatsSnapshot};

/// Which of the paper's samplers an [`Engine`] serves with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact counting + spatial independent range sampling (§III-A).
    Kds,
    /// Grid upper bounds + rejection sampling (§III-B).
    KdsRejection,
    /// The proposed BBST pipeline (§IV).
    Bbst,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::Kds => "KDS",
            Algorithm::KdsRejection => "KDS-rejection",
            Algorithm::Bbst => "BBST",
        })
    }
}

/// Runs `$body` with `$x` bound to the payload of whichever algorithm
/// variant `$value` (an `IndexKind` or `CursorKind`) holds — the
/// one place the three families are told apart at run time.
macro_rules! each_algorithm {
    ($kind:ident, $value:expr, $x:ident => $body:expr) => {
        match $value {
            $kind::Kds($x) => $body,
            $kind::KdsRejection($x) => $body,
            $kind::Bbst($x) => $body,
        }
    };
}

/// The built index: one generic `Stack` per algorithm.
enum IndexKind {
    Kds(Arc<Stack<KdsIndex>>),
    KdsRejection(Arc<Stack<KdsRejectionIndex>>),
    Bbst(Arc<Stack<BbstIndex>>),
}

impl IndexKind {
    fn algorithm(&self) -> Algorithm {
        match self {
            IndexKind::Kds(_) => Algorithm::Kds,
            IndexKind::KdsRejection(_) => Algorithm::KdsRejection,
            IndexKind::Bbst(_) => Algorithm::Bbst,
        }
    }
}

/// One algorithm's serving index: the full build over `k ≥ 1`
/// `R`-shards, or that build under a delta overlay while mutations
/// are pending. Both layers draw through the base's scratch, so one
/// monomorphised cursor type (and its buffered fast path) serves
/// either.
enum Stack<I: SamplerIndex> {
    Built(Arc<ShardedIndex<I>>),
    Overlay(Box<OverlayIndex<ShardedIndex<I>>>),
}

macro_rules! on_layer {
    ($stack:expr, $ix:ident => $body:expr) => {
        match $stack {
            Stack::Built($ix) => $body,
            Stack::Overlay($ix) => $body,
        }
    };
}

impl<I: SamplerIndex> Stack<I> {
    /// The full build underneath (the overlay's base, if any).
    fn sharded(&self) -> &Arc<ShardedIndex<I>> {
        match self {
            Stack::Built(sx) => sx,
            Stack::Overlay(ov) => ov.base(),
        }
    }

    /// The full build, or `None` while serving through an overlay
    /// (derived builds always start from the epoch's full build).
    fn built(&self) -> Option<&Arc<ShardedIndex<I>>> {
        match self {
            Stack::Built(sx) => Some(sx),
            Stack::Overlay(_) => None,
        }
    }
}

impl<I: SamplerIndex> SamplerIndex for Stack<I> {
    type Scratch = I::Scratch;

    fn algorithm_name(&self) -> &'static str {
        self.sharded().algorithm_name()
    }

    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        on_layer!(self, ix => ix.try_draw(rng, scratch, stats))
    }

    fn rejection_limit(&self) -> u64 {
        on_layer!(self, ix => ix.rejection_limit())
    }

    fn total_weight(&self) -> f64 {
        on_layer!(self, ix => ix.total_weight())
    }

    fn cell_count(&self) -> usize {
        // An overlay's base draws keep attributing rejections to the
        // base's cells.
        self.sharded().cell_count()
    }

    fn drain_cell_rejections(scratch: &mut Self::Scratch, out: &mut Vec<u32>) {
        I::drain_cell_rejections(scratch, out);
    }

    fn arm_buffers(scratch: &mut Self::Scratch, seed: u64) {
        I::arm_buffers(scratch, seed);
    }

    fn drain_buffer_stats(scratch: &mut Self::Scratch) -> BufferStats {
        I::drain_buffer_stats(scratch)
    }

    fn index_build_report(&self) -> PhaseReport {
        on_layer!(self, ix => ix.index_build_report())
    }

    fn index_memory_bytes(&self) -> usize {
        on_layer!(self, ix => ix.index_memory_bytes())
    }
}

/// The per-algorithm half of every build: how the `S`-side is built,
/// shared between shards, patched cell by cell and repaired. The
/// sharding, overlay and rebuild logic is written once over it.
trait Family: SamplerIndex + Sized + 'static {
    /// The `Arc`-shared `S`-side structures every shard builds against.
    type SSide: Sync;

    /// The plain unsharded build, with the paper's phase split.
    fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self;

    /// Builds only the `S`-side, with a report of the phases it cost.
    fn build_s_side(s: &[Point], config: &SampleConfig) -> (Self::SSide, PhaseReport);

    /// Builds over an already-built `S`-side (charged to its builder).
    fn build_shared(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self;

    /// This index's `S`-side, sharing its allocation.
    fn s_side(&self) -> Self::SSide;

    /// Rebuilds only the cells the `S` mutations touch; every clean
    /// cell stays `Arc`-shared with `s_side`.
    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport);

    /// Per-cell sharing tokens of an `S`-side (see
    /// [`Engine::s_cell_tokens`]).
    fn cell_tokens(s_side: &Self::SSide) -> Vec<((i32, i32), usize)>;

    /// Re-tightens the named cells to exact bounds. Only the BBST
    /// family has a per-cell knob to turn.
    fn repair(&self, _slots: &[u32]) -> Option<Self> {
        None
    }

    /// Wraps a stack of this family into the engine's index enum.
    fn wrap(stack: Arc<Stack<Self>>) -> IndexKind;
}

impl Family for KdsIndex {
    type SSide = Arc<KdCellStore>;

    fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        KdsIndex::build(r, s, config)
    }

    fn build_s_side(s: &[Point], config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let (s_cells, preprocessing) = KdsIndex::build_s_structure(s, config);
        let report = PhaseReport {
            preprocessing,
            ..PhaseReport::default()
        };
        (s_cells, report)
    }

    fn build_shared(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self {
        KdsIndex::build_shared(r, Arc::clone(s_side), config)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_cells()
    }

    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        let (s_cells, report) = s_side.patch(inserted, deleted);
        (Arc::new(s_cells), report)
    }

    fn cell_tokens(s_side: &Self::SSide) -> Vec<((i32, i32), usize)> {
        s_side.store().cell_tokens()
    }

    fn wrap(stack: Arc<Stack<Self>>) -> IndexKind {
        IndexKind::Kds(stack)
    }
}

impl Family for KdsRejectionIndex {
    type SSide = Arc<KdCellStore>;

    fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        KdsRejectionIndex::build(r, s, config)
    }

    fn build_s_side(s: &[Point], config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let (s_cells, preprocessing, grid_mapping) =
            KdsRejectionIndex::build_s_structures(s, config);
        let report = PhaseReport {
            preprocessing,
            grid_mapping,
            ..PhaseReport::default()
        };
        (s_cells, report)
    }

    fn build_shared(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self {
        KdsRejectionIndex::build_shared(r, Arc::clone(s_side), config)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_structures()
    }

    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        let (s_cells, report) = s_side.patch(inserted, deleted);
        (Arc::new(s_cells), report)
    }

    fn cell_tokens(s_side: &Self::SSide) -> Vec<((i32, i32), usize)> {
        s_side.store().cell_tokens()
    }

    fn wrap(stack: Arc<Stack<Self>>) -> IndexKind {
        IndexKind::KdsRejection(stack)
    }
}

impl Family for BbstIndex {
    type SSide = BbstSStructures;

    fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        BbstIndex::build(r, s, config)
    }

    fn build_s_side(s: &[Point], config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let s_side = BbstIndex::build_s_structures(s, config);
        let report = PhaseReport {
            preprocessing: s_side.preprocessing,
            grid_mapping: s_side.grid_mapping,
            ..PhaseReport::default()
        };
        (s_side, report)
    }

    fn build_shared(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self {
        BbstIndex::build_shared(r, config, s_side)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_structures()
    }

    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        s_side.patch(inserted, deleted)
    }

    fn cell_tokens(s_side: &Self::SSide) -> Vec<((i32, i32), usize)> {
        s_side.store().cell_tokens()
    }

    fn repair(&self, slots: &[u32]) -> Option<Self> {
        self.with_exact_cells(slots)
    }

    fn wrap(stack: Arc<Stack<Self>>) -> IndexKind {
        IndexKind::Bbst(stack)
    }
}

/// Wraps a full build as an engine index.
fn into_index<I: Family>(sx: ShardedIndex<I>) -> IndexKind {
    I::wrap(Arc::new(Stack::Built(Arc::new(sx))))
}

/// Wraps one unsharded index as an engine index.
fn unsharded<I: Family>(index: I) -> IndexKind {
    into_index(ShardedIndex::single(Arc::new(index)))
}

/// Builds `R`'s shards against one already-built `S`-side. One shard
/// builds with the whole thread budget and keeps its own report;
/// `base` (the `S`-side's phases) is folded into a multi-shard report.
fn shard_over<I: Family>(
    r: &[Point],
    s_side: &I::SSide,
    config: &SampleConfig,
    shards: usize,
    base: PhaseReport,
) -> ShardedIndex<I> {
    if shards <= 1 {
        return ShardedIndex::single(Arc::new(I::build_shared(r, s_side, config)));
    }
    // The parallelism budget is spent across shards; nested parallel
    // per-shard builds would oversubscribe the cores.
    let shard_cfg = SampleConfig {
        build_threads: 1,
        ..*config
    };
    ShardedIndex::build_with_base(r, config, shards, base, |chunk| {
        I::build_shared(chunk, s_side, &shard_cfg)
    })
}

/// A fresh build over `shards ≥ 1` shards. The `S`-side structures
/// depend only on `S`, never on a shard's slice of `R`, so a sharded
/// build makes them ONCE — with the full `build_threads` budget — and
/// `Arc`-shares them into every shard: k shards cost one `S`-side, not
/// k (`ShardedIndex::index_memory_bytes` counts it once).
fn build_stack<I: Family>(
    r: &[Point],
    s: &[Point],
    config: &SampleConfig,
    shards: usize,
) -> IndexKind {
    if shards <= 1 {
        return unsharded(I::build(r, s, config));
    }
    let (s_side, base) = I::build_s_side(s, config);
    into_index(shard_over::<I>(r, &s_side, config, shards, base))
}

impl<I: Family> Stack<I> {
    fn with_overlay(
        &self,
        delta: DeltaSet,
        support: &OverlaySupport,
        config: &SampleConfig,
    ) -> IndexKind {
        let base = self
            .built()
            .expect("overlay engines must wrap the epoch's full build, not another overlay");
        let overlay = OverlayIndex::new(Arc::clone(base), delta, support, config);
        I::wrap(Arc::new(Stack::Overlay(Box::new(overlay))))
    }

    /// A full build over a new `R` and `s_side`, keeping the shard
    /// count of `sx`.
    fn rebuild(
        sx: &ShardedIndex<I>,
        r: &[Point],
        s_side: &I::SSide,
        config: &SampleConfig,
    ) -> IndexKind {
        let shards = sx.shard_count();
        into_index(shard_over::<I>(
            r,
            s_side,
            config,
            shards,
            PhaseReport::default(),
        ))
    }

    fn rebuild_r_only(&self, r: &[Point], config: &SampleConfig) -> Option<IndexKind> {
        let sx = self.built()?;
        Some(Self::rebuild(sx, r, &sx.shard(0).s_side(), config))
    }

    fn rebuild_with_s_patch(
        &self,
        r: &[Point],
        config: &SampleConfig,
        inserted_s: &[Point],
        deleted_s: &HashSet<PointId>,
    ) -> Option<(IndexKind, CellPatchReport)> {
        let sx = self.built()?;
        let (s_side, report) = I::patch(&sx.shard(0).s_side(), inserted_s, deleted_s);
        Some((Self::rebuild(sx, r, &s_side, config), report))
    }

    fn repair_cells(&self, slots: &[u32]) -> Option<IndexKind> {
        let sx = self.built()?;
        Some(into_index(sx.try_map_shards(|shard| shard.repair(slots))?))
    }

    fn s_cell_tokens(&self) -> Option<Vec<((i32, i32), usize)>> {
        self.built().map(|sx| I::cell_tokens(&sx.shard(0).s_side()))
    }
}

/// State shared by an engine and every handle it has issued.
struct EngineShared {
    index: IndexKind,
    stats: EngineStats,
    /// Per-`S`-cell rejection counters (present when the index is
    /// cell-granular). Handles drain their cursors' per-cell rejection
    /// records here; the epoch machinery reads them to pick cells for
    /// targeted repair.
    cell_rejections: Option<CellRejectionStats>,
    plan: Option<PlanReport>,
    /// Sequence number for auto-seeded handles.
    handle_seq: AtomicU64,
}

/// A build-once / serve-many join-sampling service over one `(R, S, l)`
/// workload.
///
/// `Engine::build` (or [`Engine::auto`]) runs the chosen algorithm's
/// build phases exactly once into immutable, `Arc`-shared state; from
/// then on any number of threads obtain [`SamplerHandle`]s — each with
/// its own RNG and its own [`PhaseReport`] — and draw uniform join
/// samples concurrently with zero synchronisation on the hot path
/// (aggregate statistics are relaxed atomics).
///
/// `Engine` is `Clone` (it is a handle to shared state) and `Send +
/// Sync`; clone it into as many threads as needed, or share one
/// `Arc<Engine>`.
///
/// ```
/// use srj_engine::Engine;
/// use srj_core::SampleConfig;
/// use srj_geom::Point;
///
/// let r: Vec<Point> = (0..200).map(|i| Point::new((i % 20) as f64, (i / 20) as f64)).collect();
/// let s = r.clone();
/// let engine = Engine::auto(&r, &s, &SampleConfig::new(2.0));
///
/// let handles: Vec<_> = (0..4).map(|t| engine.handle_seeded(t)).collect();
/// for mut h in handles {
///     let pairs = h.sample_batch(100).unwrap();
///     assert_eq!(pairs.len(), 100);
/// }
/// assert_eq!(engine.stats().samples, 400);
/// ```
#[derive(Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// Builds the index for `algorithm` once and wraps it for serving.
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig, algorithm: Algorithm) -> Engine {
        Engine::build_sharded_inner(r, s, config, algorithm, 1, None)
    }

    /// Like [`Engine::build`], but partitions `R` into `shards`
    /// contiguous shards, builds the per-shard indexes in parallel (on
    /// [`SampleConfig::build_threads`] threads), and serves by sampling
    /// a shard `∝ Σµ_i` then within it — statistically identical to the
    /// unsharded engine (see [`crate::shard`]). `shards ≤ 1` is the
    /// plain unsharded build.
    pub fn build_sharded(
        r: &[Point],
        s: &[Point],
        config: &SampleConfig,
        algorithm: Algorithm,
        shards: usize,
    ) -> Engine {
        Engine::build_sharded_inner(r, s, config, algorithm, shards, None)
    }

    fn build_sharded_inner(
        r: &[Point],
        s: &[Point],
        config: &SampleConfig,
        algorithm: Algorithm,
        shards: usize,
        plan: Option<PlanReport>,
    ) -> Engine {
        let index = match algorithm {
            Algorithm::Kds => build_stack::<KdsIndex>(r, s, config, shards),
            Algorithm::KdsRejection => build_stack::<KdsRejectionIndex>(r, s, config, shards),
            Algorithm::Bbst => build_stack::<BbstIndex>(r, s, config, shards),
        };
        Engine::from_index(index, plan)
    }

    /// Lets the planner pick the algorithm from a cheap `O(n + m)`
    /// workload estimate (see [`crate::planner`]), then builds —
    /// donating the planner's estimation grid to the index build, so
    /// the grid-mapping phase is never paid twice.
    ///
    /// The decision and its supporting estimates are kept in
    /// [`Engine::plan`].
    pub fn auto(r: &[Point], s: &[Point], config: &SampleConfig) -> Engine {
        let (report, estimation_grid) = plan(r, s, config, 1);
        let index = match (report.algorithm, estimation_grid) {
            (Algorithm::KdsRejection, Some((grid, grid_time))) => unsharded(
                KdsRejectionIndex::build_with_grid(r, s, config, grid, grid_time),
            ),
            (Algorithm::Bbst, Some((grid, grid_time))) => {
                unsharded(BbstIndex::build_with_grid(r, config, grid, grid_time))
            }
            (algorithm, _) => {
                return Engine::build_sharded_inner(r, s, config, algorithm, 1, Some(report))
            }
        };
        Engine::from_index(index, Some(report))
    }

    /// Shard-aware [`Engine::auto`]: the planner picks the algorithm,
    /// then the build is `R`-sharded into `shards` shards ([`PlanReport`]
    /// records the shard count it planned for). The planner's grid
    /// donation only applies to the unsharded path; the sharded build
    /// still builds its `S`-side structures only once, `Arc`-shared
    /// across all shards.
    pub fn auto_sharded(r: &[Point], s: &[Point], config: &SampleConfig, shards: usize) -> Engine {
        if shards <= 1 {
            return Engine::auto(r, s, config);
        }
        let (report, _grid) = plan(r, s, config, shards);
        let shards = report.num_shards;
        Engine::build_sharded_inner(r, s, config, report.algorithm, shards, Some(report))
    }

    /// Wraps this engine's index in a delta [`OverlayIndex`], producing
    /// a new engine that answers uniformly over the **mutated** dataset
    /// (`base ∖ tombstones ∪ inserts`) while sharing the base build.
    ///
    /// The returned engine has fresh statistics and a fresh handle
    /// sequence; the base engine — and every handle it already issued —
    /// keeps serving the pre-mutation epoch untouched. This is the
    /// minor-epoch half of `EpochEngine`'s swap mechanism.
    ///
    /// # Panics
    /// Panics if `self` is itself an overlay engine: overlay snapshots
    /// always stack on the epoch's *full* build, never on each other
    /// (stacking would re-filter tombstones at every level and the
    /// delta bookkeeping would no longer be O(|delta|)).
    pub fn with_overlay(
        &self,
        delta: DeltaSet,
        support: &OverlaySupport,
        config: &SampleConfig,
    ) -> Engine {
        let index = each_algorithm!(IndexKind, &self.shared.index, ix => {
            ix.with_overlay(delta, support, config)
        });
        Engine::from_index(index, self.shared.plan)
    }

    /// Rebuilds this engine over a new `R` while **reusing** its
    /// `Arc`-shared `S`-side structures (kd-tree / grid / per-cell
    /// BBSTs) — the cheap major-epoch swap when only `R` mutated.
    /// Algorithm and shard topology are preserved; the `S`-side is
    /// neither rebuilt nor copied.
    ///
    /// Returns `None` for overlay engines (rebuild from the epoch base
    /// instead). The caller must guarantee `S` is unchanged and
    /// `config` matches the original build (`build_shared` asserts the
    /// structural parts).
    pub fn rebuild_r_only(&self, r: &[Point], config: &SampleConfig) -> Option<Engine> {
        let index = each_algorithm!(IndexKind, &self.shared.index, ix => {
            ix.rebuild_r_only(r, config)
        })?;
        // The old plan described the pre-mutation workload.
        Some(Engine::from_index(index, None))
    }

    /// Rebuilds this engine over a new `R` while **patching** its
    /// `S`-side cell by cell for the given `S` mutations: only the
    /// cells touched by `inserted_s`/`deleted_s` are rebuilt; every
    /// clean cell's structure is `Arc`-shared with this engine's
    /// (asserted by [`Engine::s_cell_tokens`] in the tests). Inserted
    /// points get appended ids, deleted ids become dead — id-stable,
    /// which is what makes the sharing sound. Algorithm and shard
    /// topology are preserved.
    ///
    /// Returns `None` for overlay engines (patch from the epoch base
    /// instead). This is the cell-granular major-epoch swap: `O(dirty
    /// cells)` S-side work instead of `O(|S|)`.
    pub fn rebuild_with_s_patch(
        &self,
        r: &[Point],
        config: &SampleConfig,
        inserted_s: &[Point],
        deleted_s: &HashSet<PointId>,
    ) -> Option<(Engine, CellPatchReport)> {
        let (index, report) = each_algorithm!(IndexKind, &self.shared.index, ix => {
            ix.rebuild_with_s_patch(r, config, inserted_s, deleted_s)
        })?;
        Some((Engine::from_index(index, None), report))
    }

    /// Re-tightens the named `S`-cells to exact (per-bucket-mass)
    /// bounds and recomputes the per-`r` rows over the unchanged,
    /// fully shared `S`-side — the targeted repair for cells whose
    /// measured rejection rate shows a loose Virtual-mass bound. Only
    /// the BBST family has a per-cell knob to turn; other algorithms
    /// (and overlay engines) return `None`, as does a repair that
    /// would change nothing (every named cell already exact).
    pub fn repair_cells(&self, slots: &[u32]) -> Option<Engine> {
        let index = each_algorithm!(IndexKind, &self.shared.index, ix => ix.repair_cells(slots))?;
        Some(Engine::from_index(index, self.shared.plan))
    }

    /// Wraps a built index with fresh stats / handle sequence /
    /// per-cell rejection counters.
    fn from_index(index: IndexKind, plan: Option<PlanReport>) -> Engine {
        let cells = each_algorithm!(IndexKind, &index, ix => ix.cell_count());
        Engine {
            shared: Arc::new(EngineShared {
                index,
                stats: EngineStats::new(),
                cell_rejections: (cells > 0).then(|| CellRejectionStats::new(cells)),
                plan,
                handle_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Whether this engine serves through a delta overlay (pending
    /// mutations present) rather than a full build.
    pub fn is_overlay(&self) -> bool {
        each_algorithm!(IndexKind, &self.shared.index, ix => ix.built().is_none())
    }

    /// Whether `self` and `other` are clones of the same engine (share
    /// one stats/index cell) — lets the epoch machinery tell a real
    /// swap from a same-engine reinstall before retiring counters.
    pub(crate) fn shares_state(&self, other: &Engine) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// The algorithm this engine serves with.
    pub fn algorithm(&self) -> Algorithm {
        self.shared.index.algorithm()
    }

    /// How many `R` shards this engine serves from (`1` when unsharded).
    pub fn shards(&self) -> usize {
        each_algorithm!(IndexKind, &self.shared.index, ix => ix.sharded().shard_count())
    }

    /// The planner's decision report, if this engine came from
    /// [`Engine::auto`].
    pub fn plan(&self) -> Option<PlanReport> {
        self.shared.plan
    }

    /// A new serving handle with an automatically derived, per-handle
    /// unique seed. Deterministic: the k-th handle of an engine always
    /// gets the same seed.
    pub fn handle(&self) -> SamplerHandle {
        let seq = self.shared.handle_seq.fetch_add(1, Ordering::Relaxed);
        // SplitMix64 step keeps consecutive sequence numbers from
        // yielding correlated xoshiro seeds.
        let mut z = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.handle_seeded(z ^ (z >> 31))
    }

    /// A new serving handle seeded with `seed`: two handles with the
    /// same seed over the same engine draw identical sample streams.
    ///
    /// The handle's cursor comes with its sample buffers armed, their
    /// RNG pinned to a stream derived from the handle's own generator
    /// (its first word). Deriving, rather than taking a slot off a
    /// process-wide seed sequence, keeps the repeatability contract: a
    /// seeded handle's whole draw stream — buffered pops included — is
    /// a pure function of its seed, so two same-seed requests against
    /// the same epoch return identical pairs. For the same reason
    /// nothing here consults cross-request state (warm-starting from
    /// the shared rejection counters would let one request's traffic
    /// change the next one's stream); promotion is left to the
    /// per-handle heat ladder, which a hot cell climbs in
    /// [`srj_core::PROMOTE_HITS`] draws.
    pub fn handle_seeded(&self, seed: u64) -> SamplerHandle {
        let mut rng = SmallRng::seed_from_u64(seed);
        let buffer_seed = rng.next_u64();
        let cursor = match &self.shared.index {
            IndexKind::Kds(ix) => CursorKind::Kds(armed_cursor(ix, buffer_seed)),
            IndexKind::KdsRejection(ix) => CursorKind::KdsRejection(armed_cursor(ix, buffer_seed)),
            IndexKind::Bbst(ix) => CursorKind::Bbst(armed_cursor(ix, buffer_seed)),
        };
        SamplerHandle {
            cursor,
            rng,
            shared: Arc::clone(&self.shared),
            reject_buf: Vec::new(),
        }
    }

    /// Aggregate statistics across every handle this engine has issued.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// `(hits, refills, invalidations)` of the buffered draw fast path
    /// across every handle — three relaxed loads, no histogram walk.
    pub fn buffer_counters(&self) -> (u64, u64, u64) {
        self.shared.stats.buffer_counters()
    }

    /// Just `(samples, iterations)` — the rejection-rate pair as two
    /// relaxed atomic loads, for callers (the epoch re-plan check runs
    /// per handle acquisition) that must not pay for a full
    /// histogram-walking [`Engine::stats`] snapshot.
    pub fn sample_counters(&self) -> (u64, u64) {
        self.shared.stats.sample_counters()
    }

    /// Build-phase timing of the underlying index. Unsharded engines
    /// keep the paper's phase split (preprocessing, GM, UB). For
    /// sharded engines the `R`-side decomposition is collapsed:
    /// `upper_bounding` is the wall-clock of the whole parallel
    /// shard-build and `upper_bounding_cpu` the summed per-shard build
    /// time.
    pub fn build_report(&self) -> PhaseReport {
        each_algorithm!(IndexKind, &self.shared.index, ix => ix.index_build_report())
    }

    /// Approximate heap footprint of the shared index.
    pub fn memory_bytes(&self) -> usize {
        each_algorithm!(IndexKind, &self.shared.index, ix => ix.index_memory_bytes())
    }

    /// Total sampling weight `Σµ` the engine draws against (`= |J|` for
    /// exact-counting indexes). This is the quantity a delete-heavy
    /// workload must see **shrink** across rebuilds — the serving stats
    /// export it for exactly that check.
    pub fn total_weight(&self) -> f64 {
        each_algorithm!(IndexKind, &self.shared.index, ix => ix.total_weight())
    }

    /// Number of `S`-side cells the index draws from (0 when the index
    /// is not cell-granular). An overlay engine reports its base
    /// build's cells: base-source draws keep attributing rejections to
    /// them.
    pub fn cell_count(&self) -> usize {
        each_algorithm!(IndexKind, &self.shared.index, ix => ix.cell_count())
    }

    /// Snapshot of the per-cell rejection counters (slot → rejected
    /// iterations attributed to that cell), or `None` when the index
    /// has no cell structure. The epoch machinery feeds this into
    /// `planner::repair_candidates` to pick cells for targeted repair.
    pub fn cell_rejections(&self) -> Option<Vec<u64>> {
        self.shared.cell_rejections.as_ref().map(|c| c.snapshot())
    }

    /// Per-cell sharing tokens of the `S`-side — each cell's grid
    /// coordinate paired with the `Arc` pointer of its per-cell
    /// structure. Two engines reporting the same token for a coordinate
    /// share that cell's structure; a patch-based rebuild must keep the
    /// token of every clean cell (asserted in the cell-patching tests).
    /// `None` for overlay engines.
    pub fn s_cell_tokens(&self) -> Option<Vec<((i32, i32), usize)>> {
        each_algorithm!(IndexKind, &self.shared.index, ix => ix.s_cell_tokens())
    }
}

/// Per-algorithm cursor over the algorithm's `Stack`, so a handle is
/// one concrete type and every draw is monomorphised.
enum CursorKind {
    Kds(Cursor<Stack<KdsIndex>>),
    KdsRejection(Cursor<Stack<KdsRejectionIndex>>),
    Bbst(Cursor<Stack<BbstIndex>>),
}

impl CursorKind {
    fn report(&self) -> PhaseReport {
        each_algorithm!(CursorKind, self, c => c.report())
    }
}

/// A fresh cursor over `stack` with its sample buffers armed and their
/// RNG pinned to `seed`.
fn armed_cursor<I: SamplerIndex>(stack: &Arc<Stack<I>>, seed: u64) -> Cursor<Stack<I>> {
    let mut cursor = Cursor::new(Arc::clone(stack));
    cursor.arm_buffers(seed);
    cursor
}

/// A lightweight per-thread serving handle: its own RNG, its own
/// cursor (scratch + [`PhaseReport`]), a shared immutable index.
///
/// Handles are `Send` (move one into each serving thread) but
/// deliberately not `Sync` — a handle is exactly the state that must
/// not be shared. Creation is O(1); create them freely.
pub struct SamplerHandle {
    cursor: CursorKind,
    rng: SmallRng,
    shared: Arc<EngineShared>,
    /// Reused drain buffer for per-cell rejection records.
    reject_buf: Vec<u32>,
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SamplerHandle>();
};

impl SamplerHandle {
    /// Drains the cursor's per-cell rejection records into the shared
    /// counters (no-op when the index has none; typically 0–1 entries
    /// per draw).
    fn flush_cell_rejections(&mut self) {
        if let Some(cells) = &self.shared.cell_rejections {
            each_algorithm!(CursorKind, &mut self.cursor, c => {
                c.take_cell_rejections(&mut self.reject_buf)
            });
            cells.record_all(self.reject_buf.drain(..));
        }
    }

    /// Draws `t` uniform join samples with replacement — the handle's
    /// one draw entry point, and progressive: call it repeatedly and
    /// stop once enough samples have arrived (the paper's `t = ∞`
    /// reading of Definition 2).
    ///
    /// The draw loop is monomorphised over the handle's concrete
    /// [`SmallRng`] (no per-draw virtual dispatch), hot fully-covered
    /// `S`-cells serve from pre-drawn sample buffers, and the whole
    /// batch is timed and recorded as **one** engine query (a per-item
    /// `Instant` pair would cost more than a buffered draw). Buffers
    /// only short-circuit draws for cells whose selection probability
    /// already equals their exact member weight, so every sample stays
    /// uniform over the join.
    ///
    /// Overlay engines take the same path: the overlay draws its base
    /// source through the base's scratch (buffers included) and
    /// rejects tombstoned ids after the draw, so buffered pops stay
    /// uniform over the current join.
    pub fn sample_batch(&mut self, t: usize) -> Result<Vec<JoinPair>, SampleError> {
        srj_obs::trace::event("engine_query", "sample_batch");
        let before = self.cursor.report().iterations;
        let start = Instant::now();
        let mut out = Vec::new();
        let res = each_algorithm!(CursorKind, &mut self.cursor, c => {
            c.sample_batch(t, &mut self.rng, &mut out)
        });
        let iterations = self.cursor.report().iterations - before;
        match &res {
            Ok(()) => self
                .shared
                .stats
                .record_query(out.len() as u64, iterations, start.elapsed()),
            Err(_) => self.shared.stats.record_error(iterations, start.elapsed()),
        }
        let bufstats = each_algorithm!(CursorKind, &mut self.cursor, c => c.drain_buffer_stats());
        if bufstats != BufferStats::default() {
            self.shared.stats.record_buffer_stats(bufstats);
        }
        self.flush_cell_rejections();
        res.map(|()| out)
    }

    /// This handle's phase report: the shared index's build phases plus
    /// this handle's own sampling statistics.
    pub fn report(&self) -> PhaseReport {
        self.cursor.report()
    }

    /// Observed rejection overhead of this handle so far:
    /// `iterations / samples` (the serving-time measurement of the
    /// planner's `Σµ/|J|` estimate; `1.0` means no rejections). `None`
    /// before the first accepted sample. A later PR feeds this back
    /// into the planner to re-plan when the estimate was wrong.
    pub fn rejection_rate(&self) -> Option<f64> {
        let rep = self.cursor.report();
        (rep.samples > 0).then(|| rep.iterations as f64 / rep.samples as f64)
    }

    /// The algorithm behind this handle.
    pub fn algorithm(&self) -> Algorithm {
        self.shared.index.algorithm()
    }
}
