//! Multi-core scaling measurements (PR 2): build wall-time vs
//! `build_threads`, and serving throughput vs thread count through the
//! `srj-engine` path — plus the machine-readable `BENCH_PR2.json`
//! summary that tracks the perf trajectory from this PR onward.
//!
//! The JSON is hand-rolled (the build environment is offline, so no
//! serde); the format is append-friendly: one top-level object with
//! `build` (per-algorithm, per-thread-count phase times) and `serving`
//! (per-algorithm samples/sec, plus the sharded engine swept over
//! serving thread counts).

use std::fmt::Write as _;
use std::time::Instant;

use srj_core::{PhaseReport, SampleConfig};
use srj_datagen::DatasetKind;
use srj_engine::{Algorithm, Engine};

use crate::datasets::scaled_spec;
use crate::experiments::ExpConfig;

/// Build-thread counts the build sweep measures.
pub const BUILD_THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Serving-thread counts the engine throughput sweep measures.
pub const SERVE_THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Available cores on this host — recorded in every machine-readable
/// bench summary (`BENCH_PR2.json`, `BENCH_PR3.json`) so throughput
/// and speedup claims measured on single-core CI boxes stay honest.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nearest-rank percentile over an ascending-sorted sample (`q` in
/// `[0, 1]`); `0` for an empty sample. Shared by the loadgen's
/// client-observed latency reporting.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One algorithm's build measured at one `build_threads` setting.
pub struct BuildPoint {
    /// `build_threads` used.
    pub threads: usize,
    /// Phase decomposition (UB wall vs CPU carry the scaling signal).
    pub report: PhaseReport,
}

/// Measures one algorithm's build across [`BUILD_THREAD_SWEEP`].
pub fn build_sweep(
    algorithm: Algorithm,
    r: &[srj_geom::Point],
    s: &[srj_geom::Point],
    l: f64,
) -> Vec<BuildPoint> {
    BUILD_THREAD_SWEEP
        .iter()
        .map(|&threads| {
            let cfg = SampleConfig::new(l).with_build_threads(threads);
            let engine = Engine::build(r, s, &cfg, algorithm);
            BuildPoint {
                threads,
                report: engine.build_report(),
            }
        })
        .collect()
}

/// Serving throughput: `total_samples` drawn with replacement, split
/// evenly over `threads` scoped threads each holding its own
/// [`srj_engine::SamplerHandle`]; returns samples/sec of the whole run.
pub fn serving_throughput(engine: &Engine, threads: usize, total_samples: usize) -> f64 {
    let per_thread = (total_samples / threads.max(1)).max(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let mut handle = engine.handle_seeded(0x5EED ^ tid as u64);
                scope.spawn(move || {
                    handle
                        .sample_batch(per_thread)
                        .expect("bench datasets have non-empty joins")
                        .len()
                })
            })
            .collect();
        let drawn: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        drawn as f64 / start.elapsed().as_secs_f64()
    })
}

fn build_json(points: &[BuildPoint]) -> String {
    let base_wall = points
        .first()
        .map_or(1.0, |p| ms(p.report.upper_bounding).max(1e-9));
    let entries: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"threads\": {}, \"preprocessing_ms\": {:.3}, \"grid_mapping_ms\": {:.3}, \
                 \"upper_bounding_wall_ms\": {:.3}, \"upper_bounding_cpu_ms\": {:.3}, \
                 \"ub_speedup_vs_1t\": {:.3}}}",
                p.threads,
                ms(p.report.preprocessing),
                ms(p.report.grid_mapping),
                ms(p.report.upper_bounding),
                ms(p.report.upper_bounding_cpu),
                base_wall / ms(p.report.upper_bounding).max(1e-9),
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

/// Runs the full PR-2 scaling suite on one `datagen` dataset and
/// renders the `BENCH_PR2.json` text: per-algorithm build sweeps over
/// [`BUILD_THREAD_SWEEP`], single-thread serving throughput per
/// algorithm, and the `R`-sharded engine's throughput over
/// [`SERVE_THREAD_SWEEP`].
pub fn bench_pr2(cfg: &ExpConfig) -> String {
    let kind = DatasetKind::Uniform;
    let d = scaled_spec(kind, cfg.scale, 0.5, cfg.seed);
    let l = cfg.l;
    // `--shards 1` is honoured (the "sharded" sweep then measures the
    // unsharded baseline across thread counts).
    let shards = cfg.shards.max(1);

    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"pr\": 2,").unwrap();
    writeln!(out, "  \"host_cores\": {},", host_cores()).unwrap();
    writeln!(
        out,
        "  \"dataset\": {{\"kind\": \"{}\", \"scale\": {}, \"n\": {}, \"m\": {}, \"l\": {}}},",
        kind.label(),
        cfg.scale,
        d.r.len(),
        d.s.len(),
        l
    )
    .unwrap();
    writeln!(out, "  \"t\": {},", cfg.t).unwrap();

    // Build sweep: wall vs cpu per algorithm per thread count.
    writeln!(out, "  \"build\": {{").unwrap();
    let algos = [
        (Algorithm::Kds, "KDS"),
        (Algorithm::KdsRejection, "KDS-rejection"),
        (Algorithm::Bbst, "BBST"),
    ];
    for (i, (algo, name)) in algos.iter().enumerate() {
        let sweep = build_sweep(*algo, &d.r, &d.s, l);
        let comma = if i + 1 < algos.len() { "," } else { "" };
        writeln!(out, "    \"{name}\": {}{comma}", build_json(&sweep)).unwrap();
    }
    writeln!(out, "  }},").unwrap();

    // Serving: single-handle throughput per algorithm, then the
    // sharded engine swept over serving thread counts.
    writeln!(out, "  \"serving\": {{").unwrap();
    for (algo, name) in algos {
        let engine = Engine::build(&d.r, &d.s, &SampleConfig::new(l), algo);
        let sps = serving_throughput(&engine, 1, cfg.t);
        writeln!(out, "    \"{name}\": {{\"samples_per_sec\": {sps:.0}}},").unwrap();
    }
    let sharded = Engine::build_sharded(
        &d.r,
        &d.s,
        &SampleConfig::new(l).with_build_threads(0),
        Algorithm::Bbst,
        shards,
    );
    let sharded_entries: Vec<String> = SERVE_THREAD_SWEEP
        .iter()
        .map(|&threads| {
            let sps = serving_throughput(&sharded, threads, cfg.t);
            format!(
                "{{\"shards\": {}, \"threads\": {threads}, \"samples_per_sec\": {sps:.0}}}",
                sharded.shards()
            )
        })
        .collect();
    writeln!(
        out,
        "    \"sharded_bbst\": [{}]",
        sharded_entries.join(", ")
    )
    .unwrap();
    writeln!(out, "  }}").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sweep_covers_thread_counts_and_speedup_is_sane() {
        let d = scaled_spec(DatasetKind::Uniform, 0.01, 0.5, 3);
        let sweep = build_sweep(Algorithm::Bbst, &d.r, &d.s, 100.0);
        assert_eq!(sweep.len(), BUILD_THREAD_SWEEP.len());
        for p in &sweep {
            assert!(p.report.upper_bounding > std::time::Duration::ZERO);
            assert!(p.report.upper_bounding_cpu > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn serving_throughput_is_positive_across_thread_counts() {
        let d = scaled_spec(DatasetKind::Uniform, 0.01, 0.5, 3);
        let engine =
            Engine::build_sharded(&d.r, &d.s, &SampleConfig::new(100.0), Algorithm::Bbst, 2);
        for threads in [1, 4] {
            assert!(serving_throughput(&engine, threads, 2_000) > 0.0);
        }
    }

    #[test]
    fn bench_pr2_json_has_expected_shape() {
        let cfg = ExpConfig {
            scale: 0.004,
            t: 500,
            l: 100.0,
            seed: 7,
            threads: 1,
            shards: 2,
        };
        let json = bench_pr2(&cfg);
        for key in [
            "\"pr\": 2",
            "\"host_cores\"",
            "\"build\"",
            "\"KDS\"",
            "\"KDS-rejection\"",
            "\"BBST\"",
            "\"upper_bounding_wall_ms\"",
            "\"upper_bounding_cpu_ms\"",
            "\"ub_speedup_vs_1t\"",
            "\"serving\"",
            "\"samples_per_sec\"",
            "\"sharded_bbst\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // crude structural sanity: balanced braces/brackets
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
