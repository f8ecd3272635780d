//! Order statistics and the JSON the benchmark prints.

/// Linearly interpolated `q`-quantile (`f64::INFINITY` entries sort
/// last, so failed requests land in the tail). 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    lerp(v[pos.floor() as usize], v[pos.ceil() as usize], pos.fract())
}

/// `a + (b − a)·f`, exact at the ends even when `a` or `b` is infinite.
fn lerp(a: f64, b: f64, f: f64) -> f64 {
    if f == 0.0 || a == b {
        a
    } else {
        a + (b - a) * f
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range over the median, with quartiles taken as
/// Python's `statistics.quantiles(values, n=4)` takes them.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // The "exclusive" method: position i·(n+1)/4, 1-based.
        let m = (i * (n + 1)) as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = median(&v);
    if mid == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / mid
    }
}

/// Requests a tail quantile must leave beyond it.
const TAIL_BEYOND: f64 = 10.0;

/// Requests beyond the `q`-quantile of `n`.
pub fn tail_beyond(n: u64, q: f64) -> f64 {
    // The epsilon keeps 100·(1 − 0.9) from flooring to 9.
    (n as f64 * (1.0 - q) + 1e-9).floor()
}

/// The quantile a tail latency is reported at for `n` requests: the
/// highest of p999, p99 and p90 that leaves at least ten requests
/// beyond it. Below 100 requests even p90 leaves fewer, and the tail is
/// the quantile that leaves exactly ten, `1 − 10/n` (0 for ten or
/// fewer).
pub fn tail_quantile(n: u64) -> f64 {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|&q| tail_beyond(n, q) >= TAIL_BEYOND)
        .unwrap_or((1.0 - TAIL_BEYOND / n.max(1) as f64).max(0.0))
}

/// Buckets per e-fold of a [`Hist`]: 0.1% resolution.
const PER_E: f64 = 1000.0;
/// Largest latency a [`Hist`] resolves (about 22 minutes, in ns);
/// longer ones land in its last bucket.
const MAX_LN: f64 = 28.0;

/// A latency histogram in constant memory: log-spaced buckets of 0.1%
/// width, plus a count of failed operations, which sort above every
/// latency. It keeps the client side's memory flat however many
/// requests a run makes, so `peak_rss_mb` measures the server.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    failed: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; (MAX_LN * PER_E) as usize + 1],
            failed: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let b = ((ns.max(1) as f64).ln() * PER_E) as usize;
        let last = self.counts.len() - 1;
        self.counts[b.min(last)] += 1;
    }

    pub fn record_failed(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.failed += other.failed;
    }

    /// Operations recorded, failed ones included.
    pub fn len(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum::<u64>() + self.failed
    }

    /// The `q`-quantile in ms, interpolated as [`quantile`] does and
    /// spread log-uniformly inside a bucket; infinite when it falls
    /// among the failures, 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let rank = q * (n - 1) as f64;
        let (lo, hi) = (
            self.at_rank(rank.floor() as u64),
            self.at_rank(rank.ceil() as u64),
        );
        lerp(lo, hi, rank.fract()) / 1e6
    }

    /// The value (ns) of the `rank`-th smallest operation.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if rank < below + c {
                let within = (rank - below) as f64 + 0.5;
                return ((b as f64 + within / c as f64) / PER_E).exp();
            }
            below += c;
        }
        f64::INFINITY
    }
}

/// A JSON number; `null` for a non-finite value, which JSON cannot
/// carry.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

pub fn string(s: &str) -> String {
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

/// `{"k": v, ...}` from already-encoded values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn hist_quantiles_track_exact_ones_within_its_resolution() {
        let ns: Vec<u64> = (1..=1000).map(|i| 50_000 + i * i * 7).collect();
        let mut h = Hist::default();
        for &x in &ns {
            h.record(x);
        }
        let exact: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e6).collect();
        for q in [0.0, 0.5, 0.9, 0.999] {
            let (a, b) = (h.quantile_ms(q), quantile(&exact, q));
            assert!((a / b - 1.0).abs() < 2e-3, "q={q}: {a} vs {b}");
        }
        h.record_failed();
        assert!(h.quantile_ms(1.0).is_infinite());
        assert_eq!(h.len(), 1001);
    }

    #[test]
    fn tail_quantile_leaves_ten_requests_beyond_it() {
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(5), 0.0);
        for n in [11, 50, 87, 99] {
            let q = tail_quantile(n);
            assert!(q < 0.9);
            assert_eq!(tail_beyond(n, q), 10.0, "n={n}");
        }
    }

    #[test]
    fn quantile_interpolates_and_sorts_failures_last() {
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        let v = [4.0, 1.0, f64::INFINITY, 2.0, f64::INFINITY];
        assert_eq!(quantile(&v, 0.5), 4.0);
        assert!(quantile(&v, 0.9).is_infinite());
    }
}
