//! Delta overlay: uniform sampling over a **mutated** dataset between
//! full index rebuilds.
//!
//! Every index in this crate is build-once/immutable — the right call
//! for the paper's static workloads, but a dynamic dataset (point
//! inserts and deletes) would otherwise force a full rebuild per
//! mutation. The overlay answers correctly *between* rebuilds: pending
//! mutations live in a small [`DeltaSet`] (insert buffers + delete
//! tombstones) and an [`OverlayIndex`] composes the unchanged base
//! index with the deltas, preserving per-iteration uniformity.
//!
//! ## The sampling argument
//!
//! Let the current (logical) dataset be `R' = (R ∖ R⁻) ∪ R⁺` and
//! `S' = (S ∖ S⁻) ∪ S⁺`. Its join `J'` splits into three **disjoint**
//! pair sources:
//!
//! 1. **base** — `(r, s)` with both endpoints in the base sets. The
//!    base index already emits every pair of `J(R, S)` with
//!    per-iteration probability exactly `1/W_base`
//!    ([`SamplerIndex::total_weight`]'s invariant); pairs touching a
//!    tombstoned point are simply **rejected**, which filters the
//!    emitted set down to source 1 without changing any survivor's
//!    probability.
//! 2. **inserted `R` × base `S`** — a Walker alias over `R⁺` weighted
//!    by the §III-B 9-cell bound `µ(r)` (population of the 3×3 grid
//!    block over base `S`), then one uniform candidate from the block,
//!    accepted iff it lies in `w(r)` and is not tombstoned: each pair
//!    `(r⁺, s)` is emitted per iteration with probability
//!    `(µ(r)/W_R) · (1/µ(r)) = 1/W_R`.
//! 3. **current `R` × inserted `S`** — the window is symmetric
//!    (`s ∈ w(r) ⇔ r ∈ w(s)`), so an alias over `S⁺` weighted by
//!    `ν(s) = pop₉(s over base R) + |R⁺|` draws `s`, then one uniform
//!    candidate from the ≤ 9-cell block over base `R` **plus** the
//!    whole `R⁺` buffer, accepted iff `r ∈ w(s)` and live. Again each
//!    pair is emitted with probability exactly `1/W_S` per iteration.
//!
//! A top-level alias over `(W_base, W_R, W_S)` re-picks the source on
//! **every** iteration (the same composition rule as the sharded
//! engine: per iteration every pair of `J'` must have probability
//! `1/(W_base + W_R + W_S)`), so accepted samples are uniform over the
//! *current* join — chi-squared-tested in `tests/dynamic_updates.rs`.
//!
//! The two support grids (over base `S` for source 2, over base `R`
//! for source 3) are built once per epoch ([`OverlaySupport`]) and
//! `Arc`-shared across every overlay snapshot of that epoch; a
//! snapshot itself costs `O(|delta|)` to assemble.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use srj_alias::AliasTable;
use srj_geom::{Point, PointId, Rect};
use srj_grid::Grid;

use crate::buffer::BufferStats;
use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::SamplerIndex;

/// Pending mutations against a base `(R, S)` snapshot: insert buffers
/// plus delete tombstones.
///
/// Point ids are stable within an epoch: base points keep their build
/// ids (`0..base_len`), inserted points get `base_len + i` in insertion
/// order. Deleting an inserted point tombstones it (its id is never
/// reused); a full rebuild compacts ids and resets the delta.
#[derive(Clone, Debug, Default)]
pub struct DeltaSet {
    /// `|R|` of the base snapshot the ids are relative to.
    pub base_r_len: usize,
    /// `|S|` of the base snapshot.
    pub base_s_len: usize,
    /// Inserted `R` points; id of `r_inserted[i]` is `base_r_len + i`.
    pub r_inserted: Vec<Point>,
    /// Inserted `S` points; id of `s_inserted[j]` is `base_s_len + j`.
    pub s_inserted: Vec<Point>,
    /// Tombstoned `R` ids (base or inserted).
    pub r_deleted: HashSet<PointId>,
    /// Tombstoned `S` ids (base or inserted).
    pub s_deleted: HashSet<PointId>,
}

impl DeltaSet {
    /// An empty delta against a base of the given sizes.
    pub fn for_base(base_r_len: usize, base_s_len: usize) -> Self {
        DeltaSet {
            base_r_len,
            base_s_len,
            ..DeltaSet::default()
        }
    }

    /// `true` iff no mutation is pending.
    pub fn is_empty(&self) -> bool {
        self.r_inserted.is_empty()
            && self.s_inserted.is_empty()
            && self.r_deleted.is_empty()
            && self.s_deleted.is_empty()
    }

    /// Total pending operations (inserts + tombstones; a deleted
    /// inserted point counts twice — it cost two operations).
    pub fn pending_ops(&self) -> usize {
        self.r_inserted.len() + self.s_inserted.len() + self.r_deleted.len() + self.s_deleted.len()
    }

    /// Live `|R'|` (base + inserted − tombstoned).
    pub fn live_r_len(&self) -> usize {
        self.base_r_len + self.r_inserted.len() - self.r_deleted.len()
    }

    /// Live `|S'|`.
    pub fn live_s_len(&self) -> usize {
        self.base_s_len + self.s_inserted.len() - self.s_deleted.len()
    }

    /// Whether `R` id `id` is currently live.
    pub fn is_r_live(&self, id: PointId) -> bool {
        (id as usize) < self.base_r_len + self.r_inserted.len() && !self.r_deleted.contains(&id)
    }

    /// Whether `S` id `id` is currently live.
    pub fn is_s_live(&self, id: PointId) -> bool {
        (id as usize) < self.base_s_len + self.s_inserted.len() && !self.s_deleted.contains(&id)
    }

    /// Resolves `R` id `id` against `base_r` (live or tombstoned).
    pub fn r_point(&self, base_r: &[Point], id: PointId) -> Option<Point> {
        let i = id as usize;
        if i < self.base_r_len {
            base_r.get(i).copied()
        } else {
            self.r_inserted.get(i - self.base_r_len).copied()
        }
    }

    /// Resolves `S` id `id` against `base_s`.
    pub fn s_point(&self, base_s: &[Point], id: PointId) -> Option<Point> {
        let j = id as usize;
        if j < self.base_s_len {
            base_s.get(j).copied()
        } else {
            self.s_inserted.get(j - self.base_s_len).copied()
        }
    }

    /// Approximate heap footprint of the buffers.
    pub fn memory_bytes(&self) -> usize {
        let set_entry = std::mem::size_of::<PointId>() + 1;
        (self.r_inserted.capacity() + self.s_inserted.capacity()) * std::mem::size_of::<Point>()
            + (self.r_deleted.capacity() + self.s_deleted.capacity()) * set_entry
    }

    /// Pending tombstones (deletes only, both sides). Tombstone-heavy
    /// deltas degrade the base source's acceptance rate *and* keep `Σµ`
    /// inflated, so the engine tracks them against a separate (lower)
    /// rebuild threshold than the total pending fraction.
    pub fn tombstone_ops(&self) -> usize {
        self.r_deleted.len() + self.s_deleted.len()
    }

    /// The dirty-cell map of the pending `S`-side mutations: the
    /// coordinates (cell side = `cell_side`) of every inserted or
    /// tombstoned `S` point, resolved against `base_s`. This is exactly
    /// the set of cells a [`crate::CellStore::patch`] would rebuild —
    /// the engine compares its size against the total cell count to
    /// decide between a cell patch and a full rebuild.
    pub fn dirty_s_cells(&self, base_s: &[Point], cell_side: f64) -> HashSet<(i32, i32)> {
        let coord = |p: Point| {
            (
                (p.x / cell_side).floor() as i32,
                (p.y / cell_side).floor() as i32,
            )
        };
        let mut dirty: HashSet<(i32, i32)> = HashSet::new();
        for (j, &p) in self.s_inserted.iter().enumerate() {
            if !self.s_deleted.contains(&((self.base_s_len + j) as PointId)) {
                dirty.insert(coord(p));
            }
        }
        for &id in &self.s_deleted {
            // Only deletes of *base* points dirty a cell; an
            // inserted-then-deleted point never materialises, so a
            // patch never touches its would-be cell (mirrors
            // `Grid::patch`'s dirty computation exactly — overcounting
            // here would make the engine's patch budget refuse patches
            // it could afford).
            if (id as usize) < self.base_s_len {
                if let Some(p) = self.s_point(base_s, id) {
                    dirty.insert(coord(p));
                }
            }
        }
        dirty
    }
}

/// Per-epoch support structures for [`OverlayIndex`]: one hash grid
/// over base `S` (candidate source for inserted-`R` draws) and one
/// over base `R` (candidate source for inserted-`S` draws), both with
/// cell side = `l` so a window's 3×3 block covers it. Built once per
/// epoch, `Arc`-shared across every overlay snapshot of that epoch.
pub struct OverlaySupport {
    s_grid: Arc<Grid>,
    r_grid: Arc<Grid>,
    build_time: Duration,
    half_extent: f64,
}

impl OverlaySupport {
    /// Builds both grids over the epoch's base snapshot; `O(n + m)`.
    pub fn build(base_r: &[Point], base_s: &[Point], half_extent: f64) -> Self {
        Self::build_filtered(base_r, base_s, &HashSet::new(), half_extent)
    }

    /// Like [`OverlaySupport::build`], but the `S`-side grid indexes
    /// only the ids **not** in `s_dead` — the dead ids an incremental
    /// (cell-patch) compaction left in the base without renumbering.
    /// Dead points then never enter a neighborhood population (so the
    /// inserted-`R` weights `µ(r⁺)` count live candidates only) and are
    /// never drawn as candidates, keeping the overlay sources exactly
    /// uniform over the live join.
    pub fn build_filtered(
        base_r: &[Point],
        base_s: &[Point],
        s_dead: &HashSet<PointId>,
        half_extent: f64,
    ) -> Self {
        let t0 = Instant::now();
        let s_grid = Arc::new(Grid::build_subset(base_s, s_dead, half_extent));
        let r_grid = Arc::new(Grid::build(base_r, half_extent));
        OverlaySupport {
            s_grid,
            r_grid,
            build_time: t0.elapsed(),
            half_extent,
        }
    }

    /// Wall-clock the grid builds took.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The window half-extent both grids were built with.
    pub fn half_extent(&self) -> f64 {
        self.half_extent
    }

    /// Heap bytes of both grids.
    pub fn memory_bytes(&self) -> usize {
        self.s_grid.memory_bytes() + self.r_grid.memory_bytes()
    }
}

/// The `k`-th member (0-based) of the 3×3 neighborhood of `p`, in the
/// deterministic slot order [`Grid::neighborhood_slots`] — the order
/// `neighborhood_population` sums in, so a uniform `k` in
/// `[0, pop₉(p))` is a uniform candidate.
fn kth_neighborhood_member(grid: &Grid, p: Point, mut k: usize) -> PointId {
    for slot in grid.neighborhood_slots(p).into_iter().flatten() {
        let cell = grid.cell(slot);
        if k < cell.len() {
            return cell.by_x[k];
        }
        k -= cell.len();
    }
    unreachable!("candidate rank outside the neighborhood population")
}

/// A base index composed with a [`DeltaSet`]: answers uniformly over
/// the **current** (mutated) join without touching the base build. See
/// the module docs for the three-source argument.
///
/// Immutable and `Send + Sync` like every index: a mutation produces a
/// *new* overlay snapshot (`O(|delta|)`), which the engine layer swaps
/// in atomically while in-flight cursors finish against the old one.
pub struct OverlayIndex<I: SamplerIndex> {
    base: Arc<I>,
    delta: DeltaSet,
    s_grid: Arc<Grid>,
    r_grid: Arc<Grid>,
    /// Alias over `(W_base, W_R, W_S)`; `None` when all are zero.
    source_alias: Option<AliasTable>,
    /// Alias over inserted `R` weighted by `µ(r)` (0 for tombstoned).
    r_ins_alias: Option<AliasTable>,
    /// `µ(r)` per inserted `R` point (the candidate count the draw
    /// ranks into; must match the alias weights exactly).
    r_ins_mu: Vec<u64>,
    /// Alias over inserted `S` weighted by `ν(s)` (0 for tombstoned).
    s_ins_alias: Option<AliasTable>,
    total_weight: f64,
    rejection_limit: u64,
    half_extent: f64,
    build_report: PhaseReport,
}

impl<I: SamplerIndex> OverlayIndex<I> {
    /// Assembles an overlay snapshot: `O(|delta|)` alias builds over
    /// the `Arc`-shared per-epoch `support` grids.
    ///
    /// # Panics
    /// Panics if `support` was built for a different base snapshot or
    /// half-extent than `delta`/`config` describe — a mismatched grid
    /// would silently bias the overlay sources.
    pub fn new(
        base: Arc<I>,
        delta: DeltaSet,
        support: &OverlaySupport,
        config: &SampleConfig,
    ) -> Self {
        assert_eq!(
            support.s_grid.num_points(),
            delta.base_s_len,
            "overlay support S-grid does not cover the base S snapshot"
        );
        assert_eq!(
            support.r_grid.num_points(),
            delta.base_r_len,
            "overlay support R-grid does not cover the base R snapshot"
        );
        assert!(
            support.half_extent.to_bits() == config.half_extent.to_bits(),
            "overlay support grids were built for l = {}, config says {}",
            support.half_extent,
            config.half_extent
        );

        // Source 2 weights: 9-cell bound over base S, zeroed for
        // tombstoned inserts (a zero-weight alias entry is never drawn).
        let r_ins_mu: Vec<u64> = delta
            .r_inserted
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if delta
                    .r_deleted
                    .contains(&((delta.base_r_len + i) as PointId))
                {
                    0
                } else {
                    support.s_grid.neighborhood_population(p) as u64
                }
            })
            .collect();
        // Source 3 weights: 9-cell bound over base R plus the whole
        // inserted-R buffer (every r⁺ is a candidate for every s⁺).
        let s_ins_nu: Vec<u64> = delta
            .s_inserted
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                if delta
                    .s_deleted
                    .contains(&((delta.base_s_len + j) as PointId))
                {
                    0
                } else {
                    (support.r_grid.neighborhood_population(p) + delta.r_inserted.len()) as u64
                }
            })
            .collect();

        let mu_f: Vec<f64> = r_ins_mu.iter().map(|&w| w as f64).collect();
        let nu_f: Vec<f64> = s_ins_nu.iter().map(|&w| w as f64).collect();
        let w_base = base.total_weight();
        let w_r: f64 = mu_f.iter().sum();
        let w_s: f64 = nu_f.iter().sum();
        let build_report = base.index_build_report();

        OverlayIndex {
            source_alias: AliasTable::new(&[w_base, w_r, w_s]),
            r_ins_alias: AliasTable::new(&mu_f),
            s_ins_alias: AliasTable::new(&nu_f),
            r_ins_mu,
            total_weight: w_base + w_r + w_s,
            rejection_limit: config.max_consecutive_rejections,
            half_extent: config.half_extent,
            s_grid: Arc::clone(&support.s_grid),
            r_grid: Arc::clone(&support.r_grid),
            base,
            delta,
            build_report,
        }
    }

    /// The unchanged base index underneath.
    pub fn base(&self) -> &Arc<I> {
        &self.base
    }

    /// The pending mutations this snapshot serves.
    pub fn delta(&self) -> &DeltaSet {
        &self.delta
    }

    /// One base-source iteration: base draw + tombstone filter. The
    /// base's own accounting runs against a scratch report so a
    /// tombstone rejection is not miscounted as an accepted sample.
    fn try_draw_base<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut I::Scratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let mut sub = PhaseReport::default();
        let drawn = self.base.try_draw(rng, scratch, &mut sub)?;
        stats.iterations += sub.iterations;
        match drawn {
            Some(p)
                if !self.delta.r_deleted.contains(&p.r) && !self.delta.s_deleted.contains(&p.s) =>
            {
                stats.samples += 1;
                Ok(Some(p))
            }
            _ => Ok(None),
        }
    }

    /// One inserted-`R` iteration: `r⁺ ∝ µ`, uniform candidate from the
    /// base-S 3×3 block, accept iff in-window and live.
    fn try_draw_r_ins<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        stats: &mut PhaseReport,
    ) -> Option<JoinPair> {
        stats.iterations += 1;
        let alias = self.r_ins_alias.as_ref()?;
        let i = alias.sample(rng);
        let rp = self.delta.r_inserted[i];
        let mu = self.r_ins_mu[i];
        debug_assert!(mu > 0, "alias drew a zero-weight insert");
        let k = rng.gen_range(0..mu) as usize;
        let sid = kth_neighborhood_member(&self.s_grid, rp, k);
        let sp = self.s_grid.point(sid);
        if Rect::window(rp, self.half_extent).contains(sp) && !self.delta.s_deleted.contains(&sid) {
            stats.samples += 1;
            return Some(JoinPair::new((self.delta.base_r_len + i) as PointId, sid));
        }
        None
    }

    /// One inserted-`S` iteration: `s⁺ ∝ ν`, uniform candidate from the
    /// base-R 3×3 block ⊎ the inserted-R buffer, accept iff in-window
    /// and live.
    fn try_draw_s_ins<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        stats: &mut PhaseReport,
    ) -> Option<JoinPair> {
        stats.iterations += 1;
        let alias = self.s_ins_alias.as_ref()?;
        let j = alias.sample(rng);
        let sp = self.delta.s_inserted[j];
        let pop = self.r_grid.neighborhood_population(sp);
        let total = pop + self.delta.r_inserted.len();
        debug_assert!(total > 0, "alias drew an insert with no candidates");
        let k = rng.gen_range(0..total as u64) as usize;
        let (rid, rp) = if k < pop {
            let rid = kth_neighborhood_member(&self.r_grid, sp, k);
            (rid, self.r_grid.point(rid))
        } else {
            let i = k - pop;
            (
                (self.delta.base_r_len + i) as PointId,
                self.delta.r_inserted[i],
            )
        };
        if Rect::window(rp, self.half_extent).contains(sp) && !self.delta.r_deleted.contains(&rid) {
            stats.samples += 1;
            return Some(JoinPair::new(rid, (self.delta.base_s_len + j) as PointId));
        }
        None
    }
}

impl<I: SamplerIndex> SamplerIndex for OverlayIndex<I> {
    type Scratch = I::Scratch;

    fn algorithm_name(&self) -> &'static str {
        self.base.algorithm_name()
    }

    /// One iteration: source `∝ (W_base, W_R, W_S)` — re-picked every
    /// iteration, exactly like the sharded composition — then one
    /// iteration of that source.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let alias = self.source_alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        match alias.sample(rng) {
            0 => self.try_draw_base(rng, scratch, stats),
            1 => Ok(self.try_draw_r_ins(rng, stats)),
            _ => Ok(self.try_draw_s_ins(rng, stats)),
        }
    }

    fn rejection_limit(&self) -> u64 {
        self.rejection_limit
    }

    fn total_weight(&self) -> f64 {
        self.total_weight
    }

    fn cell_count(&self) -> usize {
        // The overlay's scratch IS the base's scratch, so base draws
        // keep attributing rejections to their cells through the
        // overlay; size the counters accordingly.
        self.base.cell_count()
    }

    fn drain_cell_rejections(scratch: &mut Self::Scratch, out: &mut Vec<u32>) {
        I::drain_cell_rejections(scratch, out);
    }

    fn arm_buffers(scratch: &mut Self::Scratch, seed: u64) {
        // The overlay's scratch IS the base's scratch: base-source
        // draws keep their buffered fast path through the overlay.
        I::arm_buffers(scratch, seed);
    }

    fn drain_buffer_stats(scratch: &mut Self::Scratch) -> BufferStats {
        I::drain_buffer_stats(scratch)
    }

    fn index_build_report(&self) -> PhaseReport {
        self.build_report
    }

    fn index_memory_bytes(&self) -> usize {
        self.base.index_memory_bytes()
            + self.s_grid.memory_bytes()
            + self.r_grid.memory_bytes()
            + self.delta.memory_bytes()
            + self.r_ins_mu.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BbstIndex, Cursor, JoinSampler, KdsIndex, KdsRejectionIndex};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

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

    /// Brute-force current join over a delta'd dataset.
    fn live_join(base_r: &[Point], base_s: &[Point], delta: &DeltaSet, l: f64) -> Vec<JoinPair> {
        let mut rs: Vec<(PointId, Point)> = Vec::new();
        for (i, &p) in base_r.iter().enumerate() {
            rs.push((i as PointId, p));
        }
        for (i, &p) in delta.r_inserted.iter().enumerate() {
            rs.push(((delta.base_r_len + i) as PointId, p));
        }
        let mut ss: Vec<(PointId, Point)> = Vec::new();
        for (j, &p) in base_s.iter().enumerate() {
            ss.push((j as PointId, p));
        }
        for (j, &p) in delta.s_inserted.iter().enumerate() {
            ss.push(((delta.base_s_len + j) as PointId, p));
        }
        let mut out = Vec::new();
        for &(rid, rp) in rs.iter().filter(|(id, _)| !delta.r_deleted.contains(id)) {
            let w = Rect::window(rp, l);
            for &(sid, sp) in ss.iter().filter(|(id, _)| !delta.s_deleted.contains(id)) {
                if w.contains(sp) {
                    out.push(JoinPair::new(rid, sid));
                }
            }
        }
        out
    }

    fn mutated_delta(base_r: &[Point], base_s: &[Point], seed: u64) -> DeltaSet {
        let mut delta = DeltaSet::for_base(base_r.len(), base_s.len());
        let extra_r = pseudo_points(25, seed, 60.0);
        let extra_s = pseudo_points(30, seed + 1, 60.0);
        delta.r_inserted = extra_r;
        delta.s_inserted = extra_s;
        // tombstone a spread of base points and one inserted point per side
        for id in (0..base_r.len() as u32).step_by(7) {
            delta.r_deleted.insert(id);
        }
        for id in (0..base_s.len() as u32).step_by(9) {
            delta.s_deleted.insert(id);
        }
        delta.r_deleted.insert((base_r.len() + 3) as PointId);
        delta.s_deleted.insert((base_s.len() + 5) as PointId);
        delta
    }

    /// Chi-squared over the full pair space must not reject uniformity
    /// (threshold mirrors tests/uniformity.rs: p ≈ 0.001).
    fn assert_uniform(counts: &HashMap<JoinPair, u64>, join: &[JoinPair], draws: u64) {
        let k = join.len() as f64;
        let expected = draws as f64 / k;
        assert!(expected >= 5.0, "test underpowered: expected {expected}");
        let chi2: f64 = join
            .iter()
            .map(|p| {
                let o = *counts.get(p).unwrap_or(&0) as f64;
                (o - expected) * (o - expected) / expected
            })
            .sum();
        let dof = k - 1.0;
        // Wilson–Hilferty normal approximation of the chi² 99.9th pct.
        let z = 3.09;
        let cut = dof * (1.0 - 2.0 / (9.0 * dof) + z * (2.0 / (9.0 * dof)).sqrt()).powi(3);
        assert!(
            chi2 < cut,
            "chi2 {chi2:.1} over cutoff {cut:.1} (dof {dof})"
        );
    }

    fn overlay_uniformity_case<I, F>(build: F, seed: u64)
    where
        I: SamplerIndex,
        F: Fn(&[Point], &[Point], &SampleConfig) -> I,
    {
        let l = 6.0;
        let cfg = SampleConfig::new(l);
        let base_r = pseudo_points(60, 100 + seed, 50.0);
        let base_s = pseudo_points(80, 200 + seed, 50.0);
        let delta = mutated_delta(&base_r, &base_s, 300 + seed);
        let join = live_join(&base_r, &base_s, &delta, l);
        assert!(join.len() > 30, "workload too sparse: {}", join.len());

        let support = OverlaySupport::build(&base_r, &base_s, l);
        let base = Arc::new(build(&base_r, &base_s, &cfg));
        let overlay = Arc::new(OverlayIndex::new(
            Arc::clone(&base),
            delta.clone(),
            &support,
            &cfg,
        ));

        let draws = (join.len() as u64 * 60).max(20_000);
        let mut cursor = Cursor::new(Arc::clone(&overlay));
        let mut rng = SmallRng::seed_from_u64(9 + seed);
        let mut counts: HashMap<JoinPair, u64> = HashMap::new();
        let join_set: std::collections::HashSet<JoinPair> = join.iter().copied().collect();
        for _ in 0..draws {
            let p = cursor.sample_one(&mut rng).unwrap();
            assert!(join_set.contains(&p), "emitted non-join / dead pair {p:?}");
            *counts.entry(p).or_insert(0) += 1;
        }
        assert_uniform(&counts, &join, draws);
        // accounting: accepted samples equal the draws, iterations ≥
        let rep = cursor.report();
        assert_eq!(rep.samples, draws);
        assert!(rep.iterations >= draws);
    }

    #[test]
    fn overlay_uniform_over_kds_base() {
        overlay_uniformity_case(KdsIndex::build, 1);
    }

    #[test]
    fn overlay_uniform_over_kds_rejection_base() {
        overlay_uniformity_case(KdsRejectionIndex::build, 2);
    }

    #[test]
    fn overlay_uniform_over_bbst_base() {
        overlay_uniformity_case(BbstIndex::build, 3);
    }

    #[test]
    fn empty_delta_matches_base_weight() {
        let cfg = SampleConfig::new(5.0);
        let r = pseudo_points(50, 5, 40.0);
        let s = pseudo_points(50, 6, 40.0);
        let base = Arc::new(BbstIndex::build(&r, &s, &cfg));
        let support = OverlaySupport::build(&r, &s, 5.0);
        let delta = DeltaSet::for_base(r.len(), s.len());
        let overlay = OverlayIndex::new(Arc::clone(&base), delta, &support, &cfg);
        assert_eq!(overlay.total_weight(), base.total_weight());
    }

    #[test]
    fn everything_deleted_is_rejection_limited() {
        let cfg = SampleConfig::new(5.0).with_rejection_limit(2_000);
        let r = pseudo_points(20, 7, 20.0);
        let s = pseudo_points(20, 8, 20.0);
        let base = Arc::new(KdsRejectionIndex::build(&r, &s, &cfg));
        let support = OverlaySupport::build(&r, &s, 5.0);
        let mut delta = DeltaSet::for_base(r.len(), s.len());
        for id in 0..r.len() as u32 {
            delta.r_deleted.insert(id);
        }
        let overlay = Arc::new(OverlayIndex::new(base, delta, &support, &cfg));
        let mut cursor = Cursor::new(overlay);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            cursor.sample_one(&mut rng),
            Err(SampleError::RejectionLimit)
        );
    }

    #[test]
    fn empty_base_with_inserts_still_serves() {
        // The base join is empty; all pairs come from the delta sources.
        let cfg = SampleConfig::new(5.0);
        let r: Vec<Point> = Vec::new();
        let s: Vec<Point> = Vec::new();
        let base = Arc::new(BbstIndex::build(&r, &s, &cfg));
        let support = OverlaySupport::build(&r, &s, 5.0);
        let mut delta = DeltaSet::for_base(0, 0);
        delta.r_inserted = pseudo_points(10, 11, 10.0);
        delta.s_inserted = pseudo_points(15, 12, 10.0);
        let join = live_join(&r, &s, &delta, 5.0);
        assert!(!join.is_empty());
        let overlay = Arc::new(OverlayIndex::new(base, delta, &support, &cfg));
        let mut cursor = Cursor::new(overlay);
        let mut rng = SmallRng::seed_from_u64(2);
        let join_set: std::collections::HashSet<JoinPair> = join.into_iter().collect();
        for _ in 0..500 {
            let p = cursor.sample_one(&mut rng).unwrap();
            assert!(join_set.contains(&p));
        }
    }

    #[test]
    fn dirty_s_cells_match_what_a_patch_would_touch() {
        let base_s = vec![Point::new(5.0, 5.0), Point::new(25.0, 25.0)];
        let mut delta = DeltaSet::for_base(0, base_s.len());
        // Insert into an empty coordinate, delete a base point, and
        // insert-then-delete into a third coordinate (which a patch
        // never materialises and must NOT count as dirty).
        delta.s_inserted.push(Point::new(45.0, 45.0)); // id 2
        delta.s_inserted.push(Point::new(95.0, 95.0)); // id 3
        delta.s_deleted.insert(0); // base delete: dirties (0,0)
        delta.s_deleted.insert(3); // insert-then-delete: no cell touched
        let dirty = delta.dirty_s_cells(&base_s, 10.0);
        assert!(dirty.contains(&(4, 4)), "live insert's cell is dirty");
        assert!(dirty.contains(&(0, 0)), "base delete's cell is dirty");
        assert!(
            !dirty.contains(&(9, 9)),
            "insert-then-delete must not dirty its would-be cell"
        );
        assert_eq!(dirty.len(), 2);
    }

    #[test]
    fn live_len_accounting() {
        let mut delta = DeltaSet::for_base(10, 20);
        delta.r_inserted.push(Point::new(0.0, 0.0));
        delta.r_deleted.insert(0);
        delta.r_deleted.insert(10); // the inserted one
        assert_eq!(delta.live_r_len(), 9);
        assert_eq!(delta.live_s_len(), 20);
        assert!(!delta.is_r_live(0));
        assert!(!delta.is_r_live(10));
        assert!(delta.is_r_live(1));
        assert!(!delta.is_r_live(11), "never-inserted id is not live");
        assert_eq!(delta.pending_ops(), 3);
    }
}
