use rand::Rng;

/// Walker's alias table: `O(1)` weighted sampling over a fixed set of
/// weights.
///
/// Built in `O(k)` time from `k` non-negative weights; each draw makes one
/// uniform index choice and one biased coin flip. Entries with zero weight
/// are never returned.
///
/// This is the `alias` structure of the paper's Algorithm 1 (`A`) and of
/// both baselines (Section III), crediting \[59\] A. J. Walker, "New fast
/// method for generating discrete random numbers with arbitrary frequency
/// distributions", Electronics Letters 1974.
///
/// ```
/// use srj_alias::AliasTable;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let table = AliasTable::new(&[1.0, 0.0, 3.0]).unwrap();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let i = table.sample(&mut rng);
/// assert!(i == 0 || i == 2); // index 1 has zero weight
/// assert_eq!(table.total_weight(), 4.0);
/// ```
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// `prob[i]`: probability of keeping column `i` (scaled to `[0, 1]`).
    prob: Vec<f64>,
    /// `alias[i]`: the donor index used when the coin flip rejects `i`.
    alias: Vec<u32>,
    /// Sum of the input weights.
    total: f64,
}

impl AliasTable {
    /// Builds an alias table from `weights`.
    ///
    /// Returns `None` if `weights` is empty, if any weight is negative or
    /// non-finite, or if all weights are zero (no valid draw exists).
    /// Integer weights (e.g. `u32` counts) are widened in place, so no
    /// `f64` copy of them is made.
    pub fn new<W: Copy + Into<f64>>(weights: &[W]) -> Option<Self> {
        let k = weights.len();
        if k == 0 || k > u32::MAX as usize {
            return None;
        }
        let mut total = 0.0;
        for &w in weights {
            let w: f64 = w.into();
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            total += w;
        }
        if total <= 0.0 {
            return None;
        }

        // Scale each weight so the average column height is exactly 1.
        let scale = k as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w.into() * scale).collect();
        let mut alias: Vec<u32> = (0..k as u32).collect();

        // Two-stack construction: repeatedly top up a "small" column
        // (height < 1) from a "large" one (height ≥ 1).
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // Donate (1 - prob[s]) of column l's mass to column s.
            let new_l = (prob[l as usize] + prob[s as usize]) - 1.0;
            prob[l as usize] = new_l;
            if new_l < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: all remaining columns are (within rounding)
        // exactly full.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }

        Some(AliasTable { prob, alias, total })
    }

    /// Draws an index with probability proportional to its weight.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let k = self.prob.len();
        let i = rng.gen_range(0..k);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` iff the table has no entries (never true for a constructed
    /// table, provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Sum of the input weights (`Σ_r µ(r)` in the paper's analysis).
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Approximate heap footprint in bytes (for the Fig. 4 memory
    /// experiment).
    pub fn memory_bytes(&self) -> usize {
        self.prob.capacity() * std::mem::size_of::<f64>()
            + self.alias.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_input() {
        assert!(AliasTable::new::<f64>(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -0.5]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
        assert!(AliasTable::new(&[f64::INFINITY, 1.0]).is_none());
    }

    #[test]
    fn single_entry_always_returned() {
        let t = AliasTable::new(&[42.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.total_weight(), 42.0);
    }

    #[test]
    fn zero_weight_entries_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 3.0, 0.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let i = t.sample(&mut rng);
            assert!(i == 1 || i == 3, "sampled zero-weight index {i}");
        }
    }

    #[test]
    fn frequencies_track_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let draws = 400_000usize;
        let mut counts = [0usize; 4];
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws as f64 * w / 10.0;
            let got = counts[i] as f64;
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.02, "index {i}: expected {expected}, got {got}");
        }
    }

    #[test]
    fn uniform_weights_are_uniform() {
        let t = AliasTable::new(&[5.0; 10]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let rel = (c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(rel < 0.05);
        }
    }

    #[test]
    fn heavily_skewed_weights() {
        // one giant weight among many tiny ones
        let mut weights = vec![1e-6; 1000];
        weights[500] = 1e6;
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| t.sample(&mut rng) == 500).count();
        assert!(hits > 9_900, "expected ~all draws at index 500, got {hits}");
    }

    /// An RNG that replays fixed words, so a draw's column word (first
    /// `next_u64`) and coin word (second) can be chosen directly.
    struct Words<'a>(std::slice::Iter<'a, u64>);

    impl rand::RngCore for Words<'_> {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("draw took more words than supplied")
        }
        fn fill_bytes(&mut self, _dest: &mut [u8]) {
            unreachable!("draws take whole words")
        }
    }

    /// Draws once with column word `col` and coin word `coin`.
    fn sample_words(t: &AliasTable, col: u64, coin: u64) -> usize {
        t.sample(&mut Words([col, coin].iter()))
    }

    /// Words at the edges of the domain and of each of `k` column spans.
    fn edge_words(k: u64) -> Vec<u64> {
        let mut words = vec![0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for j in 1..k {
            let start = j * (u64::MAX / k + 1);
            words.extend([start - 1, start]);
        }
        words
    }

    #[test]
    fn sample_word_tracks_weights() {
        // Integer weights, as the rejection baseline passes its µ(r)
        // counts. A full grid of column and coin words reproduces the
        // weights up to the grid's resolution, with no sampling noise.
        let weights = [1u32, 2, 3, 4];
        let t = AliasTable::new(&weights).unwrap();
        let (cols, coins) = (64u64, 1000u64);
        let mut counts = [0usize; 4];
        for c in 0..cols {
            for m in 0..coins {
                let col = c * (u64::MAX / cols + 1);
                let coin = m * (u64::MAX / coins + 1);
                counts[sample_words(&t, col, coin)] += 1;
            }
        }
        let draws = (cols * coins) as f64;
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws * w as f64 / 10.0;
            let got = counts[i] as f64;
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.02, "index {i}: expected {expected}, got {got}");
        }
        // Widening the integer weights changes neither table nor stream.
        let widened = AliasTable::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for k in 0..1000 {
            assert_eq!(t.sample(&mut a), widened.sample(&mut b), "draw {k}");
        }
    }

    #[test]
    fn sample_word_never_hits_zero_weight() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 3.0, 0.0]).unwrap();
        let words = edge_words(t.len() as u64);
        for &col in &words {
            for &coin in &words {
                let i = sample_words(&t, col, coin);
                assert!(i == 1 || i == 3, "words ({col}, {coin}) gave {i}");
            }
        }
    }

    #[test]
    fn single_entry_sample_word_always_returned() {
        let t = AliasTable::new(&[42u32]).unwrap();
        assert_eq!(t.total_weight(), 42.0);
        let words = edge_words(1);
        for &col in &words {
            for &coin in &words {
                assert_eq!(sample_words(&t, col, coin), 0);
            }
        }
    }

    #[test]
    fn memory_accounting_nonzero() {
        let t = AliasTable::new(&[1.0, 2.0]).unwrap();
        assert!(t.memory_bytes() >= 2 * (8 + 4));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
