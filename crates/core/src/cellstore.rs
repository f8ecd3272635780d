//! Cell-granular, patchable `S`-side structures.
//!
//! Every index in this crate bottoms out in per-cell structures over
//! `S`: the grid's member lists, the per-cell BBST pairs (§IV), or
//! per-cell kd-trees (the KDS family after this refactor). A
//! [`CellStore`] holds them as an immutable, `Arc`-shared collection —
//! one [`Grid`] plus one unit per non-empty cell — and supports
//! [`CellStore::patch`]: given the points inserted and deleted since
//! the store was built, produce a **new** store that rebuilds only the
//! cells those mutations touch and carries every clean cell (and its
//! unit) over by `Arc` clone.
//!
//! Patching never renumbers ids: inserted points are appended to the
//! point array, deleted points stay resolvable but leave their cells
//! (they become *dead* ids — indexed by no cell, invisible to every
//! count and draw). That id stability is what makes structural sharing
//! sound: a clean cell's sorted id lists mean exactly the same thing in
//! the patched store. The epoch machinery in `srj-engine` uses this to
//! turn a major epoch swap from `O(|S|)` S-side work into `O(dirty
//! cells)`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::Rng;
use srj_bbst::CellBbsts;
use srj_geom::{Point, PointId, Rect};
use srj_grid::{Cell, Grid};
use srj_kdtree::KdTree;

use crate::buffer::KdsScratch;
use crate::parallel::par_map;

/// A per-cell payload a [`CellStore`] can carry: built from one cell's
/// member list, never mutated afterwards.
pub trait CellUnit: Send + Sync + Sized + 'static {
    /// Build parameters shared by every cell of a store (e.g. the BBST
    /// bucket capacity). Fixed when the store is first built; a patch
    /// reuses the original context so rebuilt and shared cells stay
    /// consistent.
    type Ctx: Clone + Send + Sync;

    /// Builds the unit for `cell` (member ids index into `points`).
    fn build_unit(points: &[Point], cell: &Cell, ctx: &Self::Ctx) -> Self;

    /// Approximate heap footprint of this unit, in bytes.
    fn unit_memory_bytes(&self) -> usize;
}

impl CellUnit for CellBbsts {
    type Ctx = BbstCellCtx;

    fn build_unit(points: &[Point], cell: &Cell, ctx: &BbstCellCtx) -> Self {
        if ctx.cascading {
            CellBbsts::build_cascading(points, &cell.by_x, ctx.cap)
        } else {
            CellBbsts::build(points, &cell.by_x, ctx.cap)
        }
    }

    fn unit_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// Build context for per-cell BBST pairs: the bucket capacity
/// `⌈log₂ m⌉` and the fractional-cascading switch.
#[derive(Clone, Copy, Debug)]
pub struct BbstCellCtx {
    /// Bucket capacity used for the virtual mass (Section IV-D).
    pub cap: u32,
    /// Whether the trees carry fractional-cascading bridges.
    pub cascading: bool,
}

impl CellUnit for KdTree {
    type Ctx = ();

    /// A kd-tree over the cell's members; its point ids are **local**
    /// (positions in `cell.by_x`), so callers map a sampled local id
    /// through `cell.by_x` back to the global id.
    fn build_unit(points: &[Point], cell: &Cell, _ctx: &()) -> Self {
        let pts: Vec<Point> = cell.by_x.iter().map(|&id| points[id as usize]).collect();
        KdTree::build(&pts)
    }

    fn unit_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// What a [`CellStore::patch`] did, surfaced all the way to the serving
/// stats (`cells-patched` counters).
#[derive(Clone, Copy, Debug, Default)]
pub struct PatchReport {
    /// Cells in the patched store.
    pub cells_total: usize,
    /// Cells rebuilt (dirty; includes cells that vanished because every
    /// member was deleted) — the work the patch paid for.
    pub cells_rebuilt: usize,
    /// Cells carried over by `Arc` clone, structurally shared with the
    /// pre-patch store.
    pub cells_shared: usize,
}

/// An immutable, `Arc`-shared collection of per-cell structures over
/// `S`: the grid plus one [`CellUnit`] per non-empty cell, patchable at
/// cell granularity. See the module docs.
pub struct CellStore<U: CellUnit> {
    grid: Arc<Grid>,
    units: Vec<Arc<U>>,
    ctx: U::Ctx,
}

impl<U: CellUnit> CellStore<U> {
    /// Builds the grid and every cell unit (units on `threads`
    /// builder threads; bit-identical to serial).
    pub fn build(points: &[Point], cell_side: f64, ctx: U::Ctx, threads: usize) -> Self {
        Self::from_grid(Arc::new(Grid::build(points, cell_side)), ctx, threads)
    }

    /// Builds the units over an already-built grid (e.g. the planner's
    /// donated estimation grid, or a grid built from a pre-sorted `S`).
    pub fn from_grid(grid: Arc<Grid>, ctx: U::Ctx, threads: usize) -> Self {
        let (units, _par) = par_map(grid.cells(), threads, |_, c| {
            Arc::new(U::build_unit(grid.points(), c, &ctx))
        });
        CellStore { grid, units, ctx }
    }

    /// The grid underneath (cells, coordinates, point array).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The `Arc` holding the grid — the coarse sharing token.
    pub fn grid_arc(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.units.len()
    }

    /// The unit for the cell at `slot`.
    pub fn unit(&self, slot: u32) -> &U {
        &self.units[slot as usize]
    }

    /// The `Arc` holding the unit at `slot` — `Arc::ptr_eq` across two
    /// stores proves the cell's structure was shared, not rebuilt.
    pub fn unit_arc(&self, slot: u32) -> &Arc<U> {
        &self.units[slot as usize]
    }

    /// The build context the store was created with.
    pub fn ctx(&self) -> &U::Ctx {
        &self.ctx
    }

    /// Per-cell sharing tokens for diagnostics and tests: the cell's
    /// coordinate paired with its unit's `Arc` pointer.
    pub fn cell_tokens(&self) -> Vec<((i32, i32), usize)> {
        self.grid
            .cells()
            .iter()
            .zip(&self.units)
            .map(|(c, u)| (c.coord, Arc::as_ptr(u) as usize))
            .collect()
    }

    /// Rebuilds only the cells touched by `inserted`/`deleted`,
    /// `Arc`-sharing every clean cell's grid entry **and** unit with
    /// this store. Ids are stable: inserted points get
    /// `grid.num_points()..`, deleted ids become dead (resolvable, but
    /// indexed by no cell). The original [`CellStore::ctx`] is reused.
    pub fn patch(&self, inserted: &[Point], deleted: &HashSet<PointId>) -> (Self, PatchReport) {
        let (grid, gp) = self.grid.patch(inserted, deleted);
        let grid = Arc::new(grid);
        let units: Vec<Arc<U>> = gp
            .shared_from
            .iter()
            .enumerate()
            .map(|(slot, from)| match from {
                Some(old) => Arc::clone(&self.units[*old as usize]),
                None => Arc::new(U::build_unit(
                    grid.points(),
                    grid.cell(slot as u32),
                    &self.ctx,
                )),
            })
            .collect();
        let report = PatchReport {
            cells_total: units.len(),
            cells_rebuilt: gp.cells_rebuilt,
            cells_shared: gp.cells_shared,
        };
        (
            CellStore {
                grid,
                units,
                ctx: self.ctx.clone(),
            },
            report,
        )
    }

    /// Approximate heap footprint: grid plus every unit (shared units
    /// are charged here; an aggregator dedups via the store's token).
    pub fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes()
            + self
                .units
                .iter()
                .map(|u| u.unit_memory_bytes())
                .sum::<usize>()
    }
}

/// The KDS family's `S`-side: per-cell kd-trees behind a [`CellStore`],
/// answering exact window counts and uniform in-window draws.
///
/// A window of half-extent = the grid's cell side overlaps at most the
/// 3×3 block around it, so a count visits ≤ 9 cells — fully covered
/// cells in `O(1)`, boundary cells through their kd-tree in `O(√|c|)` —
/// preserving the §III-A `O(√m)` query bound while making the
/// structure patchable cell by cell.
pub struct KdCellStore {
    store: CellStore<KdTree>,
}

impl KdCellStore {
    /// Builds the grid (cell side = the window half-extent `l`) and the
    /// per-cell kd-trees.
    pub fn build(s: &[Point], cell_side: f64, threads: usize) -> Self {
        KdCellStore {
            store: CellStore::build(s, cell_side, (), threads),
        }
    }

    /// Builds the per-cell kd-trees over an already-built grid.
    pub fn from_grid(grid: Arc<Grid>, threads: usize) -> Self {
        KdCellStore {
            store: CellStore::from_grid(grid, (), threads),
        }
    }

    /// The cell store underneath.
    pub fn store(&self) -> &CellStore<KdTree> {
        &self.store
    }

    /// The grid underneath.
    pub fn grid(&self) -> &Grid {
        self.store.grid()
    }

    /// Number of indexed (live) points.
    pub fn live_points(&self) -> usize {
        self.store.grid().live_points()
    }

    /// Cell-granular patch; see [`CellStore::patch`].
    pub fn patch(&self, inserted: &[Point], deleted: &HashSet<PointId>) -> (Self, PatchReport) {
        let (store, report) = self.store.patch(inserted, deleted);
        (KdCellStore { store }, report)
    }

    /// Identity token of the shared allocation (the grid `Arc`).
    pub fn token(&self) -> usize {
        Arc::as_ptr(self.store.grid_arc()) as usize
    }

    /// Walks every cell slot overlapping `w` (≤ 9 for the window sizes
    /// the samplers use; falls back to scanning the non-empty cells for
    /// degenerate wide windows).
    fn for_each_covering_slot(&self, w: &Rect, mut f: impl FnMut(u32)) {
        let grid = self.store.grid();
        let (lo_cx, lo_cy) = grid.coord_of(Point::new(w.min_x, w.min_y));
        let (hi_cx, hi_cy) = grid.coord_of(Point::new(w.max_x, w.max_y));
        let span = (hi_cx as i64 - lo_cx as i64 + 1) * (hi_cy as i64 - lo_cy as i64 + 1);
        if span > grid.num_cells() as i64 {
            for slot in 0..grid.num_cells() as u32 {
                if w.intersects(&grid.cell(slot).rect) {
                    f(slot);
                }
            }
            return;
        }
        for cx in lo_cx..=hi_cx {
            for cy in lo_cy..=hi_cy {
                if let Some(slot) = grid.cell_slot_at((cx, cy)) {
                    f(slot);
                }
            }
        }
    }

    /// Exact count of one cell's members inside `w`.
    fn count_cell(&self, slot: u32, w: &Rect) -> usize {
        let cell = self.store.grid().cell(slot);
        if w.contains_rect(&cell.rect) {
            cell.len()
        } else {
            self.store.unit(slot).range_count(w)
        }
    }

    /// Exact `|S ∩ w|` over the live points.
    pub fn count_window(&self, w: &Rect) -> usize {
        let mut total = 0usize;
        self.for_each_covering_slot(w, |slot| total += self.count_cell(slot, w));
        total
    }

    /// The lower-left coordinate of the 3×3 cell block `w` covers, when
    /// the covering walk visits exactly that block in block order. A
    /// window of half-extent = cell side always spans three cells per
    /// axis up to rounding at cell borders; a grid of fewer than nine
    /// non-empty cells is scanned in slot order instead (see
    /// [`KdCellStore::for_each_covering_slot`]).
    fn block_3x3(&self, w: &Rect) -> Option<(i32, i32)> {
        let grid = self.store.grid();
        let lo = grid.coord_of(Point::new(w.min_x, w.min_y));
        let hi = grid.coord_of(Point::new(w.max_x, w.max_y));
        let square = hi.0 as i64 - lo.0 as i64 == 2 && hi.1 as i64 - lo.1 as i64 == 2;
        (square && grid.num_cells() >= 9).then_some(lo)
    }

    /// One uniform, independent draw from `S ∩ w` (the KDS sampling
    /// primitive): a covering cell is ranked by exact count, then the
    /// draw lands uniformly inside it. Returns the **global** point id
    /// and the exact window count, or `None` when the window is empty.
    ///
    /// The per-cell counts of `w`'s 3×3 block come from `memo[key]`,
    /// filled by the counting walk (up to eight kd-tree range counts)
    /// on the key's first visit — `key` must name the same window on
    /// every call. A window whose block is not 3×3, or whose counts do
    /// not fit an entry, is counted afresh on every call.
    ///
    /// When the ranked cell is **fully covered** by `w` (every member
    /// qualifies — with cell side = window half-extent that is the
    /// common case) and `scratch.buffers` is armed, the draw skips the
    /// kd descent and is served from
    /// [`DrawBuffers`](crate::DrawBuffers): a pre-drawn buffer pop for
    /// hot cells, the already-drawn in-cell rank for cold ones. Boundary
    /// cells keep the descent. Memo hits and misses consume the RNG
    /// identically, so a seed's stream never depends on what earlier
    /// draws filled.
    pub(crate) fn sample_in_window<R: Rng + ?Sized>(
        &self,
        w: &Rect,
        memo: &WindowCountMemo,
        key: usize,
        rng: &mut R,
        scratch: &mut KdsScratch,
    ) -> Option<(PointId, usize)> {
        let Some(lo) = self.block_3x3(w) else {
            return self.sample_walk(w, rng, scratch);
        };
        let grid = self.store.grid();
        let slot_at =
            |pos: usize| grid.cell_slot_at((lo.0 + pos as i32 / 3, lo.1 + pos as i32 % 3));
        let centre = slot_at(CENTRE).map_or(0, |slot| grid.cell(slot).len());
        let counts = match memo.get(key) {
            Some(entry) => decode_counts(entry, centre),
            None => {
                let counts: [usize; 9] = std::array::from_fn(|pos| {
                    slot_at(pos).map_or(0, |slot| self.count_cell(slot, w))
                });
                if let Some(entry) = encode_counts(&counts, centre) {
                    memo.set(key, entry);
                }
                counts
            }
        };
        let total: usize = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let mut rank = rng.gen_range(0..total as u64) as usize;
        for (pos, &count) in counts.iter().enumerate() {
            if rank < count {
                let slot = slot_at(pos).expect("a cell with a positive count exists");
                return Some((self.draw_in_cell(w, slot, count, rank, rng, scratch), total));
            }
            rank -= count;
        }
        unreachable!("rank exceeded the window count")
    }

    /// The counting walk without a memo, for windows whose block is not
    /// 3×3: the per-cell counts are gathered once into a stack buffer
    /// (≤ 9 non-empty cells) and reused for the rank selection;
    /// degenerate wide windows (> 9 non-empty covering cells) re-walk.
    fn sample_walk<R: Rng + ?Sized>(
        &self,
        w: &Rect,
        rng: &mut R,
        scratch: &mut KdsScratch,
    ) -> Option<(PointId, usize)> {
        let mut counts: [(u32, usize); 9] = [(0, 0); 9];
        let mut filled = 0usize;
        let mut overflow = false;
        let mut total = 0usize;
        self.for_each_covering_slot(w, |slot| {
            let count = self.count_cell(slot, w);
            if count == 0 {
                return;
            }
            total += count;
            if filled < counts.len() {
                counts[filled] = (slot, count);
                filled += 1;
            } else {
                overflow = true;
            }
        });
        if total == 0 {
            return None;
        }
        let mut rank = rng.gen_range(0..total as u64) as usize;
        if !overflow {
            for &(slot, count) in &counts[..filled] {
                if rank < count {
                    return Some((self.draw_in_cell(w, slot, count, rank, rng, scratch), total));
                }
                rank -= count;
            }
            unreachable!("rank exceeded the window count");
        }
        let mut picked: Option<PointId> = None;
        self.for_each_covering_slot(w, |slot| {
            if picked.is_some() {
                return;
            }
            let count = self.count_cell(slot, w);
            if rank < count {
                picked = Some(self.draw_in_cell(w, slot, count, rank, rng, scratch));
            } else {
                rank -= count;
            }
        });
        Some((picked.expect("rank exceeded the window count"), total))
    }

    /// One uniform draw among the `count` members of cell `slot` inside
    /// `w`, given a uniform `in_cell_rank < count` the cell selection
    /// already consumed.
    fn draw_in_cell<R: Rng + ?Sized>(
        &self,
        w: &Rect,
        slot: u32,
        count: usize,
        in_cell_rank: usize,
        rng: &mut R,
        scratch: &mut KdsScratch,
    ) -> PointId {
        let cell = self.store.grid().cell(slot);
        if scratch.buffers.enabled() && w.contains_rect(&cell.rect) {
            // Fully covered: every member qualifies, and the in-cell
            // rank is already uniform over them.
            debug_assert_eq!(cell.len(), count);
            let token = Arc::as_ptr(self.store.unit_arc(slot)) as usize;
            return scratch
                .buffers
                .draw_covered(slot, token, &cell.by_x, || in_cell_rank);
        }
        let (local, in_cell) = self
            .store
            .unit(slot)
            .sample_in_range(w, rng, &mut scratch.kd)
            .expect("covering cell with a positive count must yield a sample");
        debug_assert_eq!(in_cell, count);
        cell.by_x[local as usize]
    }

    /// Approximate heap footprint (grid + per-cell trees).
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }
}

/// Position of the centre cell in a 3×3 block walked x-major
/// (`pos = 3·dx + dy`).
const CENTRE: usize = 4;

/// Entries per [`WindowCountMemo`] chunk: 2048 × 16 bytes of counts
/// plus 256 bytes of ready bits, ~32 KiB.
const MEMO_CHUNK_SHIFT: u32 = 11;
const MEMO_CHUNK: usize = 1 << MEMO_CHUNK_SHIFT;
/// Ready-bit words leading each chunk.
const MEMO_READY_WORDS: usize = MEMO_CHUNK / 64;

/// A lazily filled, lock-free memo of window cell counts: one entry per
/// key (an index's `R` point), holding the exact counts of `S ∩ w(r)`
/// in the eight off-centre cells of `w(r)`'s 3×3 block as `u16`s. The
/// centre cell lies inside every such window, so its count is its
/// population and is not stored.
///
/// Entries are filled by [`KdCellStore::sample_in_window`] on a key's
/// first visit and published by a per-entry ready bit: the counts are
/// stored, then the bit is set with `Release`, and readers load it with
/// `Acquire`. Racing fillers compute and store identical values, so no
/// lock is needed.
///
/// The table is allocated with its index, in chunks of [`MEMO_CHUNK`]
/// entries, each far below glibc's mmap threshold. Allocating the
/// chunks on first touch instead, mid-run in the serving threads'
/// malloc arenas, made the `read_hot` benchmark peak at 26–40 MiB RSS
/// against 22–25 MiB.
pub(crate) struct WindowCountMemo {
    chunks: Box<[Box<[AtomicU64]>]>,
}

impl WindowCountMemo {
    /// An empty memo for keys `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        let chunks = (0..len.div_ceil(MEMO_CHUNK))
            .map(|c| {
                let entries = (len - c * MEMO_CHUNK).min(MEMO_CHUNK);
                (0..MEMO_READY_WORDS + 2 * entries)
                    .map(|_| AtomicU64::new(0))
                    .collect()
            })
            .collect();
        WindowCountMemo { chunks }
    }

    /// The chunk holding `key` and the key's position in it.
    #[inline]
    fn locate(&self, key: usize) -> (&[AtomicU64], usize) {
        (
            &self.chunks[key >> MEMO_CHUNK_SHIFT],
            key & (MEMO_CHUNK - 1),
        )
    }

    /// The stored counts of `key`, once filled.
    #[inline]
    fn get(&self, key: usize) -> Option<[u64; 2]> {
        let (chunk, i) = self.locate(key);
        if chunk[i / 64].load(Ordering::Acquire) & (1 << (i % 64)) == 0 {
            return None;
        }
        let at = MEMO_READY_WORDS + 2 * i;
        Some([
            chunk[at].load(Ordering::Relaxed),
            chunk[at + 1].load(Ordering::Relaxed),
        ])
    }

    /// Stores `entry` for `key` and publishes it.
    fn set(&self, key: usize, entry: [u64; 2]) {
        let (chunk, i) = self.locate(key);
        let at = MEMO_READY_WORDS + 2 * i;
        chunk[at].store(entry[0], Ordering::Relaxed);
        chunk[at + 1].store(entry[1], Ordering::Relaxed);
        chunk[i / 64].fetch_or(1 << (i % 64), Ordering::Release);
    }

    /// Heap footprint.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| std::mem::size_of::<Box<[AtomicU64]>>() + std::mem::size_of_val(&**c))
            .sum()
    }
}

/// Packs a block's off-centre counts into a memo entry, or `None` when
/// a count does not fit a `u16` or the centre cell is not fully inside
/// the window (possible only through rounding at cell borders).
fn encode_counts(counts: &[usize; 9], centre: usize) -> Option<[u64; 2]> {
    if counts[CENTRE] != centre {
        return None;
    }
    let mut entry = [0u64; 2];
    let off = counts[..CENTRE].iter().chain(&counts[CENTRE + 1..]);
    for (k, &count) in off.enumerate() {
        entry[k / 4] |= u64::from(u16::try_from(count).ok()?) << (16 * (k % 4));
    }
    Some(entry)
}

/// Unpacks a memo entry into the block's nine counts.
#[inline]
fn decode_counts(entry: [u64; 2], centre: usize) -> [usize; 9] {
    std::array::from_fn(|pos| match pos {
        CENTRE => centre,
        _ => {
            let k = pos - usize::from(pos > CENTRE);
            (entry[k / 4] >> (16 * (k % 4))) as u16 as usize
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn kd_cell_store_counts_match_brute_force() {
        let s = pseudo_points(500, 3, 80.0);
        let store = KdCellStore::build(&s, 7.0, 1);
        assert_eq!(store.live_points(), 500);
        for &(cx, cy, half) in &[(20.0, 20.0, 7.0), (5.0, 70.0, 7.0), (40.0, 40.0, 3.0)] {
            let w = Rect::window(Point::new(cx, cy), half);
            let brute = s.iter().filter(|p| w.contains(**p)).count();
            assert_eq!(store.count_window(&w), brute, "window {w:?}");
        }
        // Degenerate wide window exercises the fallback path.
        let wide = Rect::new(-10.0, -10.0, 200.0, 200.0);
        assert_eq!(store.count_window(&wide), 500);
    }

    #[test]
    fn kd_cell_store_samples_are_uniform_in_window() {
        let s = pseudo_points(120, 11, 30.0);
        let store = KdCellStore::build(&s, 6.0, 1);
        let w = Rect::window(Point::new(15.0, 15.0), 6.0);
        let qualifying: Vec<u32> = (0..s.len() as u32)
            .filter(|&i| w.contains(s[i as usize]))
            .collect();
        assert!(qualifying.len() > 5, "test window too sparse");
        let mut rng = SmallRng::seed_from_u64(7);
        let mut scratch = KdsScratch::default();
        let memo = WindowCountMemo::new(1);
        let mut freq: HashMap<u32, u64> = HashMap::new();
        let draws = 40_000;
        for _ in 0..draws {
            let (id, count) = store
                .sample_in_window(&w, &memo, 0, &mut rng, &mut scratch)
                .unwrap();
            assert_eq!(count, qualifying.len());
            assert!(w.contains(s[id as usize]));
            *freq.entry(id).or_default() += 1;
        }
        assert_eq!(freq.len(), qualifying.len(), "some point never sampled");
        let expected = draws as f64 / qualifying.len() as f64;
        for (&id, &c) in &freq {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.15, "point {id}: expected {expected:.1}, got {c}");
        }
    }

    #[test]
    fn patch_shares_clean_units_and_stays_exact() {
        let s = pseudo_points(400, 21, 60.0);
        let store = KdCellStore::build(&s, 6.0, 1);
        let inserted = vec![Point::new(3.0, 3.0), Point::new(3.5, 3.2)];
        let deleted: HashSet<PointId> = [7u32, 200].into_iter().collect();
        let (patched, rep) = store.patch(&inserted, &deleted);

        assert_eq!(rep.cells_total, patched.store().num_cells());
        assert!(rep.cells_rebuilt >= 1 && rep.cells_rebuilt <= 4);
        assert!(rep.cells_shared > 0);
        // Clean cells share the unit Arc; dirty cells do not.
        let before: HashMap<(i32, i32), usize> = store.store().cell_tokens().into_iter().collect();
        let mut shared = 0;
        for (coord, token) in patched.store().cell_tokens() {
            if before.get(&coord) == Some(&token) {
                shared += 1;
            }
        }
        assert_eq!(shared, rep.cells_shared);

        // Counts over the patched store match a brute force over the
        // live set (stable ids, dead ids invisible).
        let live: Vec<(u32, Point)> = (0..s.len() as u32)
            .filter(|id| !deleted.contains(id))
            .map(|id| (id, s[id as usize]))
            .chain(
                inserted
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| ((s.len() + i) as u32, p)),
            )
            .collect();
        assert_eq!(patched.live_points(), live.len());
        let w = Rect::window(Point::new(4.0, 4.0), 6.0);
        let brute = live.iter().filter(|(_, p)| w.contains(*p)).count();
        assert_eq!(patched.count_window(&w), brute);
        // Sampling never emits a dead id.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut scratch = KdsScratch::default();
        let memo = WindowCountMemo::new(1);
        for _ in 0..2_000 {
            let (id, _) = patched
                .sample_in_window(&w, &memo, 0, &mut rng, &mut scratch)
                .unwrap();
            assert!(!deleted.contains(&id));
        }
    }

    /// Brute-force counts of `S ∩ w` per position of the 3×3 block at
    /// `lo`, in the walk's x-major order.
    fn brute_block_counts(
        store: &KdCellStore,
        s: &[Point],
        w: &Rect,
        lo: (i32, i32),
    ) -> [usize; 9] {
        let grid = store.grid();
        std::array::from_fn(|pos| {
            let coord = (lo.0 + pos as i32 / 3, lo.1 + pos as i32 % 3);
            s.iter()
                .filter(|&&p| grid.coord_of(p) == coord && w.contains(p))
                .count()
        })
    }

    #[test]
    fn memo_entries_equal_brute_force_block_counts() {
        let side = 6.0;
        let s = pseudo_points(900, 41, 60.0);
        let store = KdCellStore::build(&s, side, 1);
        // Random centres, plus centres on cell borders and corners.
        let mut centres = pseudo_points(200, 43, 60.0);
        centres.extend([
            Point::new(18.0, 30.0),
            Point::new(24.0, 24.0),
            Point::new(30.0, 33.5),
        ]);
        let memo = WindowCountMemo::new(centres.len());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut scratch = KdsScratch::default();
        let mut memoised = 0;
        for (key, &c) in centres.iter().enumerate() {
            let w = Rect::window(c, side);
            let drawn = store.sample_in_window(&w, &memo, key, &mut rng, &mut scratch);
            let brute_total = s.iter().filter(|p| w.contains(**p)).count();
            assert_eq!(drawn.map_or(0, |(_, n)| n), brute_total, "window {w:?}");
            let Some(lo) = store.block_3x3(&w) else {
                assert!(memo.get(key).is_none());
                continue;
            };
            let brute = brute_block_counts(&store, &s, &w, lo);
            let centre = store
                .grid()
                .cell_at((lo.0 + 1, lo.1 + 1))
                .map_or(0, |cell| cell.len());
            let entry = memo
                .get(key)
                .expect("a 3×3 window is memoised on first visit");
            assert_eq!(decode_counts(entry, centre), brute, "window {w:?}");
            memoised += 1;
        }
        assert!(memoised > 150, "too few windows took the memo ({memoised})");
        // A border centre's window still spans a 3×3 block.
        assert!(store
            .block_3x3(&Rect::window(Point::new(24.0, 24.0), side))
            .is_some());
    }

    #[test]
    fn oversized_cell_counts_fall_back_and_draw_correctly() {
        let side = 10.0;
        // One cell holds more than u16::MAX points; a ring of sparse
        // cells around it keeps the grid above nine cells.
        let mut s: Vec<Point> = pseudo_points(70_000, 51, 10.0)
            .into_iter()
            .map(|p| Point::new(p.x * 0.999 + 20.0, p.y * 0.999 + 20.0))
            .collect();
        for cx in 0..5 {
            for cy in 0..5 {
                s.push(Point::new(cx as f64 * side + 5.0, cy as f64 * side + 5.0));
            }
        }
        let store = KdCellStore::build(&s, side, 1);
        // Key 0: the dense cell is off-centre — its count does not fit
        // an entry. Key 1: the dense cell is the centre, whose count is
        // never stored.
        let windows = [
            Rect::window(Point::new(19.9, 25.0), side),
            Rect::window(Point::new(25.0, 25.0), side),
        ];
        let memo = WindowCountMemo::new(windows.len());
        let mut rng = SmallRng::seed_from_u64(3);
        let mut scratch = KdsScratch::default();
        for (key, w) in windows.iter().enumerate() {
            let brute = s.iter().filter(|p| w.contains(**p)).count();
            assert!(brute > usize::from(u16::MAX));
            for _ in 0..200 {
                let (id, count) = store
                    .sample_in_window(w, &memo, key, &mut rng, &mut scratch)
                    .unwrap();
                assert_eq!(count, brute);
                assert!(w.contains(s[id as usize]));
            }
        }
        assert!(
            memo.get(0).is_none(),
            "an oversized count must not be memoised"
        );
        assert!(
            memo.get(1).is_some(),
            "the centre's population is never stored"
        );
    }
}
