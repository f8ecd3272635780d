//! Per-layer readings: the server's metrics exposition, its TRACE
//! events, and the engine timed directly through its public functions.

use std::time::Instant;

use srj_core::SampleConfig;
use srj_engine::{Algorithm, Engine, PlanReport};
use srj_server::TraceSpan;

use crate::workload::{mix, Dataset, L};

/// Sum of every series of metric `name` (any labels) whose label set
/// contains `label` (when given), from a Prometheus text exposition.
pub fn series_sum(text: &str, name: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            let (metric, labels) = match key.split_once('{') {
                Some((m, rest)) => (m, rest),
                None => (key, ""),
            };
            (metric == name && label.is_none_or(|l| labels.contains(l)))
                .then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Cumulative `(le, count)` buckets of histogram `name`.
fn buckets(text: &str, name: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, rest) = rest.split_once('"')?;
            let count = rest.rsplit_once(' ')?.1.parse().ok()?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count))
        })
        .collect()
}

/// Median of what histogram `name` recorded between the two
/// expositions of each `(before, after)` window, summed over the
/// windows, interpolated linearly inside the bucket that holds it.
pub fn histogram_p50(windows: &[(String, String)], name: &str) -> f64 {
    let mut delta: Vec<(f64, f64)> = Vec::new();
    for (before, after) in windows {
        let b = buckets(before, name);
        for (i, &(le, n)) in buckets(after, name).iter().enumerate() {
            let d = n - b.iter().find(|x| x.0 == le).map_or(0.0, |x| x.1);
            match delta.get_mut(i) {
                Some(slot) => slot.1 += d,
                None => delta.push((le, d)),
            }
        }
    }
    let total = delta.last().map_or(0.0, |x| x.1);
    if total <= 0.0 {
        return 0.0;
    }
    let target = total / 2.0;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, cum) in &delta {
        if cum >= target {
            if le.is_infinite() {
                return lo;
            }
            let frac = if cum > below {
                (target - below) / (cum - below)
            } else {
                1.0
            };
            return lo + frac * (le - lo);
        }
        lo = le;
        below = cum;
    }
    lo
}

/// Server stages a request's time is split into.
pub const STAGES: [&str; 4] = ["queue", "acquire", "draw_loop", "batch_write"];

/// Splits one request's TRACE events into stage intervals
/// `(stage, start_ns, dur_ns)` on the server's clock, [`STAGES`]
/// indexing the stage. Each gap between consecutive events belongs to
/// the stage the earlier event opens: decode to pickup and the wait
/// between job steps are `queue`; `acquire` runs to the first batch;
/// each batch's draw (the engine's `sample_batch` included) is
/// `draw_loop`; encoding a batch and enqueueing `DONE` are
/// `batch_write`. Adjacent gaps of one stage merge. Returns `None` for
/// an incomplete trail.
pub fn stage_intervals(spans: &[TraceSpan]) -> Option<Vec<(usize, u64, u64)>> {
    let first = spans.first()?;
    let last = spans.last()?;
    if first.span != "frame_decode"
        || (last.span.as_str(), last.event.as_str()) != ("batch_write", "done_enqueued")
    {
        return None;
    }
    let mut out: Vec<(usize, u64, u64)> = Vec::new();
    for pair in spans.windows(2) {
        let (e, next) = (&pair[0], &pair[1]);
        let stage = match (e.span.as_str(), e.event.as_str()) {
            ("acquire", _) => 1,
            ("draw_loop", "batch_end") => 3,
            ("draw_loop", _) | ("engine_query", _) => 2,
            ("batch_write", _) if next.event == "done_enqueued" => 3,
            _ => 0,
        };
        let dur = next.ns.saturating_sub(e.ns);
        match out.last_mut() {
            Some(prev) if prev.0 == stage => prev.2 += dur,
            _ => out.push((stage, e.ns, dur)),
        }
    }
    Some(out)
}

/// Per-stage self times (ns, [`STAGES`] order) of one request's trail.
pub fn stage_self_ns(spans: &[TraceSpan]) -> Option<[u64; 4]> {
    let mut out = [0u64; 4];
    for (stage, _, dur) in stage_intervals(spans)? {
        out[stage] += dur;
    }
    Some(out)
}

/// A span the benchmark records around one call into a layer.
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The engine, timed from outside, for one forced algorithm.
pub struct AlgoProbe {
    pub build_ms: f64,
    /// preprocessing, grid mapping, upper bounding (ms).
    pub phase_ms: [f64; 3],
    pub index_bytes: f64,
    pub draw_ns_per_sample: f64,
    pub iters_per_sample: f64,
}

/// Samples drawn per `sample_batch` call of the draw probe.
const PROBE_BATCH: usize = 8192;
/// Least draw time measured per algorithm.
const PROBE_DRAW_NS: u64 = 300_000_000;

fn config() -> SampleConfig {
    // The server's own build configuration (all cores).
    SampleConfig::new(L).with_build_threads(0)
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Builds one forced algorithm's engine on the dataset and draws from
/// it for at least [`PROBE_DRAW_NS`].
pub fn probe_algorithm(
    data: &Dataset,
    algorithm: Algorithm,
    seed: u64,
    clock: Instant,
    spans: &mut Vec<Span>,
) -> AlgoProbe {
    let begin = Instant::now();
    let engine = Engine::build(&data.r, &data.s, &config(), algorithm);
    let build_ns = elapsed_ns(begin);
    spans.push(Span {
        layer: "core",
        name: format!("Engine::build({algorithm})"),
        start_ns: (begin - clock).as_nanos() as u64,
        dur_ns: build_ns,
    });
    let report = engine.build_report();
    let (samples0, iters0) = engine.sample_counters();
    let mut handle = engine.handle_seeded(mix(seed ^ 0xA160) | 1);
    let mut draw_ns = 0u64;
    while draw_ns < PROBE_DRAW_NS {
        let begin = Instant::now();
        let pairs = handle
            .sample_batch(PROBE_BATCH)
            .expect("the dataset's join is not empty");
        let dur = elapsed_ns(begin);
        assert_eq!(pairs.len(), PROBE_BATCH);
        spans.push(Span {
            layer: "core",
            name: format!("sample_batch({algorithm})"),
            start_ns: (begin - clock).as_nanos() as u64,
            dur_ns: dur,
        });
        draw_ns += dur;
    }
    let (samples, iters) = engine.sample_counters();
    let drawn = (samples - samples0) as f64;
    AlgoProbe {
        build_ms: build_ns as f64 / 1e6,
        phase_ms: [
            report.preprocessing.as_secs_f64() * 1e3,
            report.grid_mapping.as_secs_f64() * 1e3,
            report.upper_bounding.as_secs_f64() * 1e3,
        ],
        index_bytes: engine.memory_bytes() as f64,
        draw_ns_per_sample: draw_ns as f64 / drawn,
        iters_per_sample: (iters - iters0) as f64 / drawn,
    }
}

/// Times `Engine::auto` (planner plus build) on the dataset.
pub fn probe_auto(data: &Dataset, clock: Instant, spans: &mut Vec<Span>) -> (f64, PlanReport) {
    let begin = Instant::now();
    let engine = Engine::auto(&data.r, &data.s, &config());
    let dur = elapsed_ns(begin);
    spans.push(Span {
        layer: "engine",
        name: "Engine::auto".into(),
        start_ns: (begin - clock).as_nanos() as u64,
        dur_ns: dur,
    });
    (
        dur as f64 / 1e6,
        engine.plan().expect("Engine::auto records its plan"),
    )
}
