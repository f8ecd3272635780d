//! The KDS family's per-`r` window-count memo must be invisible in the
//! samples: a seed's stream is the same whether the memo is cold, warm,
//! or filled concurrently by other threads, on every stack the engine
//! serves (unsharded, `R`-sharded, and under an overlay with pending
//! deletes).

use std::thread;

use srj::{Algorithm, DeltaSet, Engine, JoinPair, OverlaySupport, Point, Rect, SampleConfig};

const L: f64 = 5.0;
const T: usize = 3_000;
const SEEDS: [u64; 4] = [1, 2, 0xBEEF, 0x5EED];

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

struct Data {
    r: Vec<Point>,
    s: Vec<Point>,
    cfg: SampleConfig,
    support: OverlaySupport,
}

impl Data {
    fn new() -> Self {
        let r = pseudo_points(1_500, 71, 100.0);
        let s = pseudo_points(2_500, 72, 100.0);
        let support = OverlaySupport::build(&r, &s, L);
        Data {
            r,
            s,
            cfg: SampleConfig::new(L),
            support,
        }
    }

    /// A fresh (cold-memo) engine: `overlay` wraps the build in pending
    /// deletes of every 7th `R` and every 5th `S` point.
    fn engine(&self, algo: Algorithm, shards: usize, overlay: bool) -> Engine {
        let base = Engine::build_sharded(&self.r, &self.s, &self.cfg, algo, shards);
        if !overlay {
            return base;
        }
        let mut delta = DeltaSet::for_base(self.r.len(), self.s.len());
        delta.r_deleted.extend((0..self.r.len() as u32).step_by(7));
        delta.s_deleted.extend((0..self.s.len() as u32).step_by(5));
        base.with_overlay(delta, &self.support, &self.cfg)
    }
}

fn stream(engine: &Engine, seed: u64) -> Vec<JoinPair> {
    engine
        .handle_seeded(seed)
        .sample_batch(T)
        .expect("non-empty join must sample")
}

fn stacks() -> Vec<(Algorithm, usize, bool)> {
    let mut out = Vec::new();
    for algo in [Algorithm::Kds, Algorithm::KdsRejection] {
        for (shards, overlay) in [(1, false), (3, false), (1, true)] {
            out.push((algo, shards, overlay));
        }
    }
    out
}

#[test]
fn cold_warm_and_fresh_memos_give_identical_streams() {
    let data = Data::new();
    for (algo, shards, overlay) in stacks() {
        let what = format!("{algo} shards={shards} overlay={overlay}");
        let engine = data.engine(algo, shards, overlay);
        let cold: Vec<Vec<JoinPair>> = SEEDS.iter().map(|&s| stream(&engine, s)).collect();
        let warm: Vec<Vec<JoinPair>> = SEEDS.iter().map(|&s| stream(&engine, s)).collect();
        let fresh_engine = data.engine(algo, shards, overlay);
        let fresh: Vec<Vec<JoinPair>> = SEEDS.iter().map(|&s| stream(&fresh_engine, s)).collect();
        assert_eq!(cold, warm, "{what}: warm re-draw diverged");
        assert_eq!(cold, fresh, "{what}: second fresh index diverged");
        for p in cold.iter().flatten() {
            let w = Rect::window(data.r[p.r as usize], L);
            assert!(
                w.contains(data.s[p.s as usize]),
                "{what}: non-join pair {p:?}"
            );
            if overlay {
                assert!(
                    p.r % 7 != 0 && p.s % 5 != 0,
                    "{what}: deleted id drawn {p:?}"
                );
            }
        }
    }
}

#[test]
fn concurrent_fillers_give_single_threaded_streams() {
    let data = Data::new();
    for (algo, shards, overlay) in stacks() {
        let what = format!("{algo} shards={shards} overlay={overlay}");
        let single_engine = data.engine(algo, shards, overlay);
        let single: Vec<Vec<JoinPair>> = SEEDS.iter().map(|&s| stream(&single_engine, s)).collect();
        let shared = data.engine(algo, shards, overlay);
        let concurrent: Vec<Vec<JoinPair>> = thread::scope(|scope| {
            let workers: Vec<_> = SEEDS
                .iter()
                .map(|&seed| {
                    let shared = &shared;
                    scope.spawn(move || stream(shared, seed))
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(single, concurrent, "{what}: concurrent fill diverged");
    }
}
