//! RNG dispatch-shape micro-bench: what a `next_u64` costs per call
//! depending on how the sampler reaches the generator.
//!
//! The serving hot loop burns one or two RNG words per draw, so the
//! dispatch shape is a first-order cost:
//!
//! * `concrete` — monomorphised `SmallRng`, the engine's batch path
//!   (`Cursor::sample_batch`): the compiler sees the xoshiro kernel
//!   and inlines it into the loop.
//! * `dyn_ref` — `&mut dyn RngCore`, the object-safe `JoinSampler`
//!   path: one virtual call per word.
//! * `boxed_dyn` — `&mut dyn RngCore` *over* a `Box<dyn RngCore>`:
//!   the outer vtable lands in the `Box<R>` forwarding impl, which
//!   re-enters the vtable for the inner generator — two virtual calls
//!   per word.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;

/// Words per measured iteration: enough that loop overhead reaches
/// steady state.
const WORDS: usize = 4096;

fn draw_words<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
    let mut acc = 0u64;
    for _ in 0..WORDS {
        acc = acc.wrapping_add(rng.next_u64());
    }
    acc
}

/// Boxes the generator behind a call LLVM cannot see through —
/// without it the optimiser devirtualises the `dyn` cases (the
/// concrete type is visible in the bench body) and every shape
/// measures identical.
#[inline(never)]
fn opaque_boxed(seed: u64) -> Box<dyn RngCore> {
    Box::new(SmallRng::seed_from_u64(black_box(seed)))
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng_dispatch");
    g.throughput(criterion::Throughput::Elements(WORDS as u64));

    g.bench_function("concrete", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| black_box(draw_words(&mut rng)));
    });

    g.bench_function("dyn_ref", |b| {
        let mut boxed = opaque_boxed(2);
        let dyn_rng: &mut dyn RngCore = &mut *boxed;
        b.iter(|| black_box(draw_words(dyn_rng)));
    });

    g.bench_function("boxed_dyn", |b| {
        let mut boxed = opaque_boxed(3);
        // Coercing `&mut Box<dyn RngCore>` to `&mut dyn RngCore` routes
        // every call through the `Box<R>` forwarding impl first — the
        // double indirection this bench exists to expose.
        let dyn_rng: &mut dyn RngCore = &mut boxed;
        b.iter(|| black_box(draw_words(dyn_rng)));
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
