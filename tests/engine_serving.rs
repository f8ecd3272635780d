//! Integration tests for the `srj-engine` serving subsystem: the
//! build-once/serve-many contract under real threads, and statistical
//! uniformity when samples are drawn through the engine path (mirroring
//! `tests/uniformity.rs` for the single-threaded samplers).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread;

use srj::{
    Algorithm, Client, DatasetRegistry, Engine, JoinPair, Point, Rect, RequestStatus, SampleConfig,
    SampleRequest, Server, ServerConfig,
};

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

/// ≥ 4 threads share one engine built once; every draw must be a
/// genuine join pair and every per-thread stream must be reproducible
/// under its fixed seed.
#[test]
fn concurrent_threads_share_one_engine() {
    const THREADS: u64 = 8;
    const PER_THREAD: usize = 2_000;

    let r = pseudo_points(300, 1, 80.0);
    let s = pseudo_points(500, 2, 80.0);
    let l = 6.0;
    let cfg = SampleConfig::new(l);

    for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        let engine = Arc::new(Engine::build(&r, &s, &cfg, algo));

        let run_all = |engine: &Arc<Engine>| -> Vec<Vec<JoinPair>> {
            let mut joins = Vec::new();
            thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let engine = Arc::clone(engine);
                        scope.spawn(move || {
                            let mut h = engine.handle_seeded(0xFEED ^ tid);
                            h.sample_batch(PER_THREAD)
                                .expect("non-empty join must sample")
                        })
                    })
                    .collect();
                joins = handles.into_iter().map(|h| h.join().unwrap()).collect();
            });
            joins
        };

        let first = run_all(&engine);
        // every draw from every thread is a genuine join pair
        for pairs in &first {
            assert_eq!(pairs.len(), PER_THREAD);
            for p in pairs {
                let w = Rect::window(r[p.r as usize], l);
                assert!(w.contains(s[p.s as usize]), "{algo}: non-join pair {p:?}");
            }
        }
        // distinct seeds actually explore different streams
        let distinct: HashSet<&Vec<JoinPair>> = first.iter().collect();
        assert_eq!(distinct.len(), THREADS as usize, "{algo}: seed collision");

        // re-running with the same seeds reproduces every stream,
        // regardless of thread scheduling
        let second = run_all(&engine);
        assert_eq!(first, second, "{algo}: streams not reproducible");

        // aggregate stats saw every query
        let snap = engine.stats();
        assert_eq!(snap.queries, 2 * THREADS);
        assert_eq!(snap.samples, 2 * THREADS * PER_THREAD as u64);
        assert_eq!(snap.errors, 0);
        assert!(snap.p99_latency >= snap.p50_latency);
    }
}

/// Chi-square uniformity over a fully-enumerable join, drawing through
/// the engine path (handle-owned RNG, stats recording and all), for
/// each algorithm the engine can serve.
#[test]
fn engine_path_is_uniform_over_join() {
    let r = pseudo_points(60, 101, 60.0);
    let s = pseudo_points(90, 102, 60.0);
    let l = 6.0;

    let join = srj::join::nested_loop_join(&r, &s, l);
    assert!(join.len() > 10, "test join too small to be meaningful");
    let expected_support: HashSet<JoinPair> =
        join.iter().map(|&(a, b)| JoinPair::new(a, b)).collect();

    let per_pair = 60usize;
    let draws = per_pair * join.len();

    for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        let engine = Engine::build(&r, &s, &SampleConfig::new(l), algo);
        let mut handle = engine.handle_seeded(0xC0FFEE);
        let samples = handle.sample_batch(draws).unwrap();

        let mut freq: HashMap<JoinPair, usize> = HashMap::new();
        for p in samples {
            assert!(
                expected_support.contains(&p),
                "{algo}: emitted a non-join pair {p:?}"
            );
            *freq.entry(p).or_default() += 1;
        }
        assert_eq!(
            freq.len(),
            join.len(),
            "{algo}: some join pairs are unreachable"
        );

        let expected = per_pair as f64;
        let chi2: f64 = expected_support
            .iter()
            .map(|p| {
                let obs = *freq.get(p).unwrap_or(&0) as f64;
                (obs - expected) * (obs - expected) / expected
            })
            .sum();
        let df = (join.len() - 1) as f64;
        let threshold = df + 6.0 * (2.0 * df).sqrt();
        assert!(
            chi2 < threshold,
            "{algo}: χ² = {chi2:.1} exceeds {threshold:.1} (df = {df})"
        );
    }
}

/// The same uniformity must hold when the draws are split across
/// threads: merging every thread's samples is still uniform over `J`.
#[test]
fn engine_path_is_uniform_across_threads() {
    let r = pseudo_points(50, 201, 50.0);
    let s = pseudo_points(80, 202, 50.0);
    let l = 6.0;

    let join = srj::join::nested_loop_join(&r, &s, l);
    assert!(join.len() > 10);
    let expected_support: HashSet<JoinPair> =
        join.iter().map(|&(a, b)| JoinPair::new(a, b)).collect();

    const THREADS: u64 = 4;
    let per_pair = 60usize;
    let per_thread = per_pair * join.len() / THREADS as usize;

    let engine = Arc::new(Engine::build(
        &r,
        &s,
        &SampleConfig::new(l),
        Algorithm::Bbst,
    ));
    let mut freq: HashMap<JoinPair, usize> = HashMap::new();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    engine
                        .handle_seeded(0xBEEF ^ tid)
                        .sample_batch(per_thread)
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            for p in h.join().unwrap() {
                *freq.entry(p).or_default() += 1;
            }
        }
    });

    for p in freq.keys() {
        assert!(expected_support.contains(p), "non-join pair {p:?}");
    }
    assert_eq!(freq.len(), join.len(), "some join pairs unreachable");

    let total: usize = freq.values().sum();
    let expected = total as f64 / join.len() as f64;
    let chi2: f64 = expected_support
        .iter()
        .map(|p| {
            let obs = *freq.get(p).unwrap_or(&0) as f64;
            (obs - expected) * (obs - expected) / expected
        })
        .sum();
    let df = (join.len() - 1) as f64;
    let threshold = df + 6.0 * (2.0 * df).sqrt();
    assert!(chi2 < threshold, "χ² = {chi2:.1} exceeds {threshold:.1}");
}

/// Chi-square uniformity through the **R-sharded** engine path: the
/// sharded sampler (top-level alias over per-shard Σµ, shard re-picked
/// every iteration) must produce the same uniform distribution over `J`
/// as the unsharded engine — same support, χ² within threshold, and a
/// per-pair frequency profile statistically indistinguishable from the
/// unsharded run.
#[test]
fn sharded_engine_matches_unsharded_uniformity() {
    let r = pseudo_points(60, 101, 60.0);
    let s = pseudo_points(90, 102, 60.0);
    let l = 6.0;

    let join = srj::join::nested_loop_join(&r, &s, l);
    assert!(join.len() > 10, "test join too small to be meaningful");
    let expected_support: HashSet<JoinPair> =
        join.iter().map(|&(a, b)| JoinPair::new(a, b)).collect();

    let per_pair = 60usize;
    let draws = per_pair * join.len();

    for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        let sharded = Engine::build_sharded(&r, &s, &SampleConfig::new(l), algo, 4);
        assert_eq!(sharded.shards(), 4);
        let samples = sharded.handle_seeded(0xC0FFEE).sample_batch(draws).unwrap();

        let mut freq: HashMap<JoinPair, usize> = HashMap::new();
        for p in samples {
            assert!(
                expected_support.contains(&p),
                "{algo} sharded: emitted a non-join pair {p:?} (bad shard remap?)"
            );
            *freq.entry(p).or_default() += 1;
        }
        assert_eq!(
            freq.len(),
            join.len(),
            "{algo} sharded: some join pairs are unreachable"
        );

        // χ² against the uniform distribution over J — the same test
        // (same threshold) the unsharded engine path passes.
        let expected = per_pair as f64;
        let chi2: f64 = expected_support
            .iter()
            .map(|p| {
                let obs = *freq.get(p).unwrap_or(&0) as f64;
                (obs - expected) * (obs - expected) / expected
            })
            .sum();
        let df = (join.len() - 1) as f64;
        let threshold = df + 6.0 * (2.0 * df).sqrt();
        assert!(
            chi2 < threshold,
            "{algo} sharded: χ² = {chi2:.1} exceeds {threshold:.1} (df = {df})"
        );

        // two-sample χ² sharded-vs-unsharded: both draw from uniform,
        // so the homogeneity statistic must stay within threshold too.
        let unsharded = Engine::build(&r, &s, &SampleConfig::new(l), algo);
        let base_samples = unsharded.handle_seeded(0xBEEF).sample_batch(draws).unwrap();
        let mut base_freq: HashMap<JoinPair, usize> = HashMap::new();
        for p in base_samples {
            *base_freq.entry(p).or_default() += 1;
        }
        let chi2_homog: f64 = expected_support
            .iter()
            .map(|p| {
                let a = *freq.get(p).unwrap_or(&0) as f64;
                let b = *base_freq.get(p).unwrap_or(&0) as f64;
                // equal sample sizes: χ² = Σ (a-b)² / (a+b)
                if a + b > 0.0 {
                    (a - b) * (a - b) / (a + b)
                } else {
                    0.0
                }
            })
            .sum();
        let df_h = (join.len() - 1) as f64;
        let threshold_h = df_h + 6.0 * (2.0 * df_h).sqrt();
        assert!(
            chi2_homog < threshold_h,
            "{algo}: sharded vs unsharded distributions differ: χ² = {chi2_homog:.1} \
             exceeds {threshold_h:.1}"
        );
    }
}

/// Sharded engines under real serving threads: reproducible per-seed
/// streams and valid pairs, mirroring `concurrent_threads_share_one_engine`.
#[test]
fn concurrent_threads_share_one_sharded_engine() {
    const THREADS: u64 = 4;
    const PER_THREAD: usize = 1_000;

    let r = pseudo_points(300, 1, 80.0);
    let s = pseudo_points(500, 2, 80.0);
    let l = 6.0;
    let cfg = SampleConfig::new(l);

    let engine = Arc::new(Engine::build_sharded(&r, &s, &cfg, Algorithm::Bbst, 4));
    let run_all = |engine: &Arc<Engine>| -> Vec<Vec<JoinPair>> {
        let mut joins = Vec::new();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|tid| {
                    let engine = Arc::clone(engine);
                    scope.spawn(move || {
                        let mut h = engine.handle_seeded(0xFEED ^ tid);
                        h.sample_batch(PER_THREAD)
                            .expect("non-empty join must sample")
                    })
                })
                .collect();
            joins = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        joins
    };

    let first = run_all(&engine);
    for pairs in &first {
        for p in pairs {
            let w = Rect::window(r[p.r as usize], l);
            assert!(w.contains(s[p.s as usize]), "non-join pair {p:?}");
        }
    }
    let second = run_all(&engine);
    assert_eq!(first, second, "sharded streams not reproducible");
    let snap = engine.stats();
    assert_eq!(snap.samples, 2 * THREADS * PER_THREAD as u64);
    assert!(snap.iterations >= snap.samples);
}

/// The server's engine map: one build per `(dataset, l)` shape, hits
/// share the index, and concurrent lookers all get a working engine.
#[test]
fn cache_reuses_indexes_across_threads() {
    let r = pseudo_points(80, 301, 40.0);
    let s = pseudo_points(120, 302, 40.0);
    let mut registry = DatasetRegistry::new();
    registry.register(7, r.clone(), s.clone());
    let config = ServerConfig {
        cache_capacity: 4,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();
    let request = |l: f64, t: u64, seed: u64| SampleRequest {
        req_id: 0,
        dataset: 7,
        l,
        algorithm: Some(Algorithm::Bbst),
        shards: 1,
        t,
        seed,
    };

    thread::scope(|scope| {
        for tid in 0..6u64 {
            let (r, s) = (&r, &s);
            scope.spawn(move || {
                // threads alternate between two window sizes
                let l = if tid % 2 == 0 { 4.0 } else { 5.0 };
                let mut client = Client::connect(addr).unwrap();
                let outcome = client.sample(request(l, 100, tid + 1)).unwrap();
                assert_eq!(outcome.status, RequestStatus::Ok);
                assert_eq!(outcome.pairs.len(), 100);
                for p in outcome.pairs {
                    let w = Rect::window(r[p.r as usize], l);
                    assert!(w.contains(s[p.s as usize]));
                }
            });
        }
    });

    // at most one engine per key is kept however the build race went;
    // every lookup is a hit or a miss, and each key missed at least once
    let mut client = Client::connect(addr).unwrap();
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.engines_cached, 2, "expected both window sizes cached");
    assert!(stats.cache_misses >= 2);
    assert_eq!(stats.cache_hits + stats.cache_misses, 6);
    // warm map: no further builds
    let again = client.sample(request(4.0, 1, 9)).unwrap();
    assert_eq!(again.status, RequestStatus::Ok);
    let warm = client.server_stats().unwrap();
    assert_eq!(warm.cache_misses, stats.cache_misses, "must be cached");
    assert_eq!(warm.cache_hits, stats.cache_hits + 1);
    server.shutdown();
}
