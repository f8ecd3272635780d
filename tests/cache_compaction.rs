//! Regression: `DatasetStore::compact()` renumbers ids. A serving
//! engine map holds one [`EpochEngine`] per request shape, all over one
//! shared store, so a compaction — whoever runs it — must never leave
//! any of them answering from the pre-compaction id space: each engine's
//! next handle acquisition rebuilds at the store's new generation.

use std::sync::Arc;

use srj::{Algorithm, DatasetStore, EpochConfig, EpochEngine, Point, Rect, SampleConfig};

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

/// One engine per window size over the shared store, as an engine map
/// holds them.
fn engines_for(store: &Arc<DatasetStore>, ls: [f64; 2]) -> [EpochEngine; 2] {
    ls.map(|l| {
        EpochEngine::with_store(
            Arc::clone(store),
            &SampleConfig::new(l),
            EpochConfig::default().with_algorithm(Algorithm::Bbst),
        )
    })
}

/// The core regression: after a compaction bumps the store's epoch,
/// every engine over the store is rebuilt at the new generation on its
/// next handle acquisition, and never emits a renumbered-away id.
#[test]
fn compaction_never_aliases_generations() {
    let ls = [5.0, 6.0];
    let store = Arc::new(DatasetStore::new(
        pseudo_points(80, 1, 50.0),
        pseudo_points(120, 2, 50.0),
    ));
    let engines = engines_for(&store, ls);
    let g0 = store.epoch();
    let old_live_r = store.live_r_len();

    // Mutate and compact: ids renumber, epoch bumps (monotonically —
    // generations can never repeat, so no engine can mistake a stale
    // build for a current one).
    for id in 0..40u32 {
        assert!(store.delete_r(id));
    }
    store.insert_s(Point::new(1.0, 1.0));
    let (_, s_changed) = store.compact();
    assert!(s_changed);
    let g1 = store.epoch();
    assert!(g1 > g0, "epochs must be strictly monotonic");

    let live_r = store.live_r_len();
    assert!(live_r < old_live_r);
    let snap = store.snapshot();
    for (engine, l) in engines.iter().zip(ls) {
        // A current-generation acquisition must rebuild, never answer
        // with the stale build.
        let mut h = engine.handle_seeded(7);
        assert_eq!(
            engine.epoch(),
            g1,
            "stale engine served for the new generation"
        );
        assert_eq!(engine.major_swaps(), 1, "the new generation must rebuild");
        for _ in 0..2_000 {
            let p = h.sample_batch(1).unwrap()[0];
            assert!(
                (p.r as usize) < live_r,
                "engine emitted a renumbered-away id {}",
                p.r
            );
            let (rp, sp) = (snap.r_point(p.r).unwrap(), snap.s_point(p.s).unwrap());
            assert!(Rect::window(rp, l).contains(sp), "non-join pair {p:?}");
        }
    }
}

/// Same guarantee through incremental (cell-patch) compaction: the
/// epoch bumps there too, so no engine keeps serving its pre-patch
/// build, and the deleted point is never sampled again.
#[test]
fn incremental_compaction_bumps_the_generation_too() {
    let ls = [4.0, 4.5];
    let s = pseudo_points(60, 12, 40.0);
    let gone = s[3];
    let store = Arc::new(DatasetStore::new(pseudo_points(40, 11, 40.0), s));
    let engines = engines_for(&store, ls);
    let g0 = store.epoch();

    store.delete_s(3);
    let (snap, patch) = store.compact_incremental();
    assert!(patch.s_changed());
    assert!(snap.epoch > g0);
    for (engine, l) in engines.iter().zip(ls) {
        let mut h = engine.handle_seeded(1);
        assert_eq!(
            engine.epoch(),
            store.epoch(),
            "patched epoch must not be answered by the pre-patch engine"
        );
        let snap = store.snapshot();
        for p in h.sample_batch(1_000).unwrap() {
            let (rp, sp) = (snap.r_point(p.r).unwrap(), snap.s_point(p.s).unwrap());
            assert_ne!(sp, gone, "deleted S point sampled");
            assert!(Rect::window(rp, l).contains(sp), "non-join pair {p:?}");
        }
    }
}
