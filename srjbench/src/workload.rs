//! The three reference workloads and their seeded datasets.

use srj_datagen::{generate, split_rs, DatasetKind, DatasetSpec};
use srj_geom::Point;

/// Points generated per dataset before the 50/50 R/S split.
pub const POINTS: usize = 150_000;
/// Window half-extent of every warm request (the paper's default).
pub const L: f64 = 100.0;
/// Points per INSERT, and ids per DELETE.
pub const UPDATE_BATCH: usize = 4096;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// The id the dataset is registered under.
pub const DATASET_ID: u64 = 1;
/// Side length of the square domain `srj-datagen` normalises to.
pub const DOMAIN: f64 = 10_000.0;
/// `srj-datagen` seed of every dataset's spatial layout. The layout
/// (cluster centres, spreads and weights) is fixed rather than drawn
/// from `--seed`: one PoiClusters layout can have 4x the draw cost of
/// another (the planner flips between KDS-rejection and BBST), which
/// would make runs on different seeds different workloads. On this
/// layout the planner picks KDS-rejection for both dataset kinds.
const LAYOUT_SEED: u64 = 1;

/// Which window sizes a workload's requests name.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shapes {
    /// Every request uses `l = L`: after warm-up the engine cache hits.
    Warm,
    /// Every request names an `l` no earlier request used, so each one
    /// pays the planner and an index build.
    Cold,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: DatasetKind,
    /// Samples per SAMPLE request.
    pub t: u64,
    pub shapes: Shapes,
    /// Every `update_every`-th operation of a client is an INSERT or
    /// DELETE batch (0 = read-only).
    pub update_every: usize,
}

impl Workload {
    pub fn read_only(&self) -> bool {
        self.update_every == 0
    }

    /// Window half-extent of a client's `op`-th operation.
    pub fn l_for(&self, client: usize, op: u64) -> f64 {
        match self.shapes {
            Shapes::Warm => L,
            // Distinct per (client, op) and never equal to the warm-up
            // shape; all within 1% of L, so every build costs the same.
            Shapes::Cold => L + 0.001 * (op * CLIENTS as u64 + client as u64 + 1) as f64,
        }
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "read_hot",
        kind: DatasetKind::PoiClusters,
        t: 50_000,
        shapes: Shapes::Warm,
        update_every: 0,
    },
    Workload {
        name: "cold_shapes",
        kind: DatasetKind::PoiClusters,
        t: 2_000,
        shapes: Shapes::Cold,
        update_every: 0,
    },
    Workload {
        name: "mixed_update",
        kind: DatasetKind::TaxiHotspots,
        t: 25_000,
        shapes: Shapes::Warm,
        update_every: 5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The generated `R` and `S` a run serves and checks against.
pub struct Dataset {
    pub r: Vec<Point>,
    pub s: Vec<Point>,
}

impl Dataset {
    /// The workload's points, assigned to `R` or `S` by `seed`.
    pub fn generate(w: &Workload, seed: u64) -> Dataset {
        let points = generate(&DatasetSpec::new(w.kind, POINTS, LAYOUT_SEED));
        let (r, s) = split_rs(&points, 0.5, mix(seed ^ 0x5EED_5B17));
        Dataset { r, s }
    }
}

/// SplitMix64: the benchmark's one source of derived seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
