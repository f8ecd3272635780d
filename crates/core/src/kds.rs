use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, RngCore};
use srj_alias::AliasTable;
use srj_geom::{Point, Rect};

use crate::buffer::{BufferStats, KdsScratch};
use crate::cellstore::{KdCellStore, WindowCountMemo};
use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{Cursor, SamplerIndex};
use crate::parallel::par_map;
use crate::traits::JoinSampler;

/// Immutable build product of Baseline 1 — **KDS** (paper Section III-A).
///
/// 1. Build the `S`-side structure offline: per-cell kd-trees behind a
///    cell-granular [`KdCellStore`] (cell side = `l`, so a window
///    overlaps ≤ 9 cells — the `O(√m)` query bound of the monolithic
///    kd-tree is preserved, and the structure becomes patchable cell by
///    cell).
/// 2. Run an exact range count `|S(w(r))|` for every `r ∈ R`
///    (`O(n√m)` — this is the baseline's bottleneck).
/// 3. Build a Walker alias over the counts; the alias picks `r` with
///    probability `|S(w(r))| / |J|`.
///
/// The index is `Send + Sync` and never mutated after
/// [`KdsIndex::build`]; wrap it in an [`Arc`] and hand every serving
/// thread its own [`KdsCursor`]. Per sample, a cursor draws `r` from the
/// alias and one uniform point from `S ∩ w(r)` via spatial independent
/// range sampling (`O(√m)`). The per-cell counts that draw ranks by are
/// memoised per `r` (`WindowCountMemo`, 16 bytes each, filled on
/// `r`'s first draw), so a repeat visit pays only the descent inside a
/// boundary cell (`O(1)` for a fully covered one). Every pair of `J` is
/// emitted with probability exactly `1/|J|`; no rejections ever occur
/// (`iterations == samples`).
///
/// Total: `O((n + t)√m)` time, `O(n + m)` space.
pub struct KdsIndex {
    r_points: Vec<Point>,
    /// `Arc`-held so a sharded engine can build the `S`-side once and
    /// share it across every shard (see [`KdsIndex::build_shared`]),
    /// and an epoch engine can patch it cell by cell.
    s_cells: Arc<KdCellStore>,
    alias: Option<AliasTable>,
    /// Per-`r` window cell counts, filled by the draws.
    window_counts: WindowCountMemo,
    join_size: u64,
    config: SampleConfig,
    build_report: PhaseReport,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KdsIndex>();
};

impl KdsIndex {
    /// Runs the build phases: kd-tree (pre-processing) + exact counts
    /// and alias (upper-bounding phase, in the paper's table terminology
    /// — for KDS the "bounds" are exact).
    ///
    /// The per-`r` counting loop — the baseline's `O(n√m)` bottleneck —
    /// runs on [`SampleConfig::build_threads`] threads; results are
    /// bit-identical at any thread count (see [`crate::parallel`]).
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        let (s_cells, preprocessing) = Self::build_s_structure(s, config);
        Self::build_inner(r, s_cells, config, preprocessing)
    }

    /// Builds only the `S`-side structure (the per-cell kd-trees) and
    /// reports how long it took. A sharded engine calls this once and
    /// hands `Arc` clones to every per-shard [`KdsIndex::build_shared`],
    /// so the structure is built — and held in memory — exactly once.
    pub fn build_s_structure(
        s: &[Point],
        config: &SampleConfig,
    ) -> (Arc<KdCellStore>, std::time::Duration) {
        let t0 = Instant::now();
        let s_cells = Arc::new(KdCellStore::build(
            s,
            config.half_extent,
            config.build_threads,
        ));
        (s_cells, t0.elapsed())
    }

    /// Like [`KdsIndex::build`], but over an already-built `S`-side
    /// (from [`KdsIndex::build_s_structure`], or a
    /// [`KdCellStore::patch`] of one). Its build time is charged to
    /// whoever built it, so this index's report records zero
    /// preprocessing.
    pub fn build_shared(r: &[Point], s_cells: Arc<KdCellStore>, config: &SampleConfig) -> Self {
        Self::build_inner(r, s_cells, config, std::time::Duration::ZERO)
    }

    fn build_inner(
        r: &[Point],
        s_cells: Arc<KdCellStore>,
        config: &SampleConfig,
        preprocessing: std::time::Duration,
    ) -> Self {
        assert!(
            s_cells.grid().cell_side().to_bits() == config.half_extent.to_bits(),
            "S-side cell side ({}) must equal the window half-extent ({})",
            s_cells.grid().cell_side(),
            config.half_extent
        );
        let t1 = Instant::now();
        let (weights, par) = par_map(r, config.build_threads, |_, &rp| {
            s_cells.count_window(&Rect::window(rp, config.half_extent)) as f64
        });
        let join_size = weights.iter().sum::<f64>() as u64;
        let alias = AliasTable::new(&weights);
        let upper_bounding = t1.elapsed();
        // Alias construction is serial; charge it to CPU too so that
        // cpu/wall stays the honest speedup ratio.
        let upper_bounding_cpu = par.cpu + upper_bounding.saturating_sub(par.wall);

        KdsIndex {
            r_points: r.to_vec(),
            s_cells,
            alias,
            window_counts: WindowCountMemo::new(r.len()),
            join_size,
            config: *config,
            build_report: PhaseReport {
                preprocessing,
                upper_bounding,
                upper_bounding_cpu,
                ..PhaseReport::default()
            },
        }
    }

    /// The `Arc`-shared `S`-side over `S`, for rebuilding an index over
    /// a mutated `R` without re-paying the `S`-side build, or for
    /// patching cell by cell when `S` mutated (epoch-based rebuilds
    /// hand this — or its [`KdCellStore::patch`] — straight back to
    /// [`KdsIndex::build_shared`]).
    pub fn s_cells(&self) -> Arc<KdCellStore> {
        Arc::clone(&self.s_cells)
    }

    /// Exact join cardinality `|J| = Σ_r |S(w(r))|` (free by-product of
    /// the counting step — one of KDS's few advantages).
    pub fn join_size(&self) -> u64 {
        self.join_size
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SampleConfig {
        &self.config
    }

    /// Build-phase timing (preprocessing + upper bounding).
    pub fn build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// Approximate heap footprint of the retained structures.
    pub fn memory_bytes(&self) -> usize {
        self.r_points.capacity() * std::mem::size_of::<Point>()
            + self.s_cells.memory_bytes()
            + self.alias.as_ref().map_or(0, AliasTable::memory_bytes)
            + self.window_counts.memory_bytes()
    }
}

impl SamplerIndex for KdsIndex {
    type Scratch = KdsScratch;

    fn algorithm_name(&self) -> &'static str {
        "KDS"
    }

    /// KDS counts exactly, so every iteration accepts: `try_draw` never
    /// returns `Ok(None)`.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut KdsScratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        stats.iterations += 1;
        let ridx = alias.sample(rng);
        let w = Rect::window(self.r_points[ridx], self.config.half_extent);
        // The alias only returns r with a positive count, so the window
        // is non-empty and the draw cannot fail.
        let (sid, _count) = self
            .s_cells
            .sample_in_window(&w, &self.window_counts, ridx, rng, scratch)
            .expect("alias returned an r with zero range count");
        stats.samples += 1;
        Ok(Some(JoinPair::new(ridx as u32, sid)))
    }

    fn arm_buffers(scratch: &mut KdsScratch, seed: u64) {
        scratch.buffers.arm(seed);
    }

    fn drain_buffer_stats(scratch: &mut KdsScratch) -> BufferStats {
        scratch.buffers.drain_stats()
    }

    fn total_weight(&self) -> f64 {
        self.alias.as_ref().map_or(0.0, AliasTable::total_weight)
    }

    fn cell_count(&self) -> usize {
        self.s_cells.store().num_cells()
    }

    fn index_build_report(&self) -> PhaseReport {
        self.build_report
    }

    fn index_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn shared_memory_bytes(&self) -> usize {
        self.s_cells.memory_bytes()
    }

    fn shared_memory_token(&self) -> usize {
        Arc::as_ptr(&self.s_cells) as usize
    }
}

/// Cheap per-thread query state over a shared [`KdsIndex`]: a kd-tree
/// descent scratch buffer plus sampling-phase statistics (see
/// [`Cursor`]).
pub type KdsCursor = Cursor<KdsIndex>;

/// Baseline 1 — **KDS** — as a self-contained single-threaded sampler:
/// an owned [`KdsIndex`] plus one [`KdsCursor`], preserving the
/// pre-split `build`/`sample` API. New concurrent callers should use
/// [`KdsIndex`] + [`KdsCursor`] (or the `srj-engine` crate) directly.
pub struct KdsSampler {
    cursor: KdsCursor,
}

impl KdsSampler {
    /// Builds the index and attaches a private cursor.
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        KdsSampler {
            cursor: KdsCursor::new(Arc::new(KdsIndex::build(r, s, config))),
        }
    }

    /// Exact join cardinality `|J|` (see [`KdsIndex::join_size`]).
    pub fn join_size(&self) -> u64 {
        self.cursor.index().join_size()
    }

    /// The shared index, for handing to additional cursors.
    pub fn index(&self) -> &Arc<KdsIndex> {
        self.cursor.index()
    }
}

impl JoinSampler for KdsSampler {
    fn name(&self) -> &'static str {
        self.cursor.name()
    }

    fn sample_one(&mut self, rng: &mut dyn RngCore) -> Result<JoinPair, SampleError> {
        self.cursor.sample_one(rng)
    }

    fn sample(&mut self, t: usize, rng: &mut dyn RngCore) -> Result<Vec<JoinPair>, SampleError> {
        self.cursor.sample(t, rng)
    }

    fn report(&self) -> PhaseReport {
        self.cursor.report()
    }

    fn memory_bytes(&self) -> usize {
        self.cursor.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * extent, next() * extent))
            .collect()
    }

    #[test]
    fn samples_are_genuine_join_pairs() {
        let r = pseudo_points(80, 1, 50.0);
        let s = pseudo_points(120, 2, 50.0);
        let cfg = SampleConfig::new(6.0);
        let mut sampler = KdsSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(3);
        let samples = sampler.sample(500, &mut rng).unwrap();
        assert_eq!(samples.len(), 500);
        for p in samples {
            let w = Rect::window(r[p.r as usize], 6.0);
            assert!(w.contains(s[p.s as usize]));
        }
        // KDS never rejects
        assert_eq!(sampler.report().iterations, sampler.report().samples);
    }

    #[test]
    fn join_size_matches_brute_force() {
        let r = pseudo_points(40, 5, 30.0);
        let s = pseudo_points(60, 6, 30.0);
        let cfg = SampleConfig::new(4.0);
        let sampler = KdsSampler::build(&r, &s, &cfg);
        let brute = srj_join::nested_loop_join(&r, &s, 4.0).len() as u64;
        assert_eq!(sampler.join_size(), brute);
    }

    #[test]
    fn empty_join_is_reported() {
        let r = vec![Point::new(0.0, 0.0)];
        let s = vec![Point::new(1000.0, 1000.0)];
        let cfg = SampleConfig::new(1.0);
        let mut sampler = KdsSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sampler.sample_one(&mut rng), Err(SampleError::EmptyJoin));
        assert_eq!(sampler.join_size(), 0);
    }

    #[test]
    fn empty_inputs() {
        let cfg = SampleConfig::new(1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut a = KdsSampler::build(&[], &pseudo_points(10, 1, 10.0), &cfg);
        assert_eq!(a.sample_one(&mut rng), Err(SampleError::EmptyJoin));
        let mut b = KdsSampler::build(&pseudo_points(10, 1, 10.0), &[], &cfg);
        assert_eq!(b.sample_one(&mut rng), Err(SampleError::EmptyJoin));
    }

    #[test]
    fn phase_report_populated() {
        let r = pseudo_points(50, 9, 20.0);
        let s = pseudo_points(50, 10, 20.0);
        let cfg = SampleConfig::new(3.0);
        let mut sampler = KdsSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = sampler.sample(100, &mut rng).unwrap();
        let rep = sampler.report();
        assert_eq!(rep.samples, 100);
        assert_eq!(rep.grid_mapping, std::time::Duration::ZERO); // KDS has no GM
        assert!(rep.total() >= rep.sampling);
        assert!(sampler.memory_bytes() > 0);
    }

    #[test]
    fn two_cursors_share_one_index() {
        let r = pseudo_points(60, 21, 40.0);
        let s = pseudo_points(90, 22, 40.0);
        let index = Arc::new(KdsIndex::build(&r, &s, &SampleConfig::new(5.0)));
        let mut a = KdsCursor::new(Arc::clone(&index));
        let mut b = KdsCursor::new(Arc::clone(&index));
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        // identical seeds over the same index ⇒ identical streams
        let pa = a.sample(50, &mut rng_a).unwrap();
        let pb = b.sample(50, &mut rng_b).unwrap();
        assert_eq!(pa, pb);
        // per-cursor stats are independent
        assert_eq!(a.report().samples, 50);
        assert_eq!(b.report().samples, 50);
        // both cursors carry the index's build phases
        assert_eq!(a.report().preprocessing, index.build_report().preprocessing);
    }
}
