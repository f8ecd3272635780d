//! `srjbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path srjbench/Cargo.toml -- \
//!     --workload read_hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Starts an in-process `srj-server` on a seeded `srj-datagen`
//! dataset, drives it with two closed-loop clients for `--seconds`,
//! checks every answer, and prints one JSON result as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. See README.md next to this file.

mod layers;
mod load;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use srj_engine::Algorithm;
use srj_obs::trace;
use srj_server::{
    Client, DatasetRegistry, RequestStatus, SampleRequest, Server, ServerConfig, ServerStatsFrame,
};

use layers::{Span, STAGES};
use load::{ClientLog, LoadClient, Op, OpKind, PhaseOpts};
use report::{median, num, object, spread, string, tail_beyond, tail_quantile};
use workload::{Dataset, Workload, CLIENTS, DATASET_ID, L, WORKLOADS};

const USAGE: &str = "usage: srjbench --workload NAME --seed N --seconds N --trace 0|1";
/// Longest run `--seconds` accepts.
const MAX_SECONDS: u64 = 3600;

/// Set-ups per untraced run; `setup_s` is their median. Each but the
/// last adds about a second to the run: a server's shutdown waits for
/// its time-series recorder to wake.
const SETUPS: usize = 13;
/// Untraced/traced sub-phase pairs of a traced run.
const PAIRS: usize = 4;
/// Quantile reported as `client.update_tail_ms`.
const UPDATE_TAIL_Q: f64 = 0.9;
/// Largest accepted gap between the traced per-stage self times,
/// summed, and the untraced client-observed median latency.
const ACCOUNTING_TOLERANCE: f64 = 0.25;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    if let Some(k) = flags
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(k))
    {
        return Err(format!("unknown flag {k}"));
    }
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes an integer")?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be within 1..={MAX_SECONDS}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One in-process server with its connected clients.
struct Serving {
    server: Server,
    clients: Vec<LoadClient>,
    /// A separate connection for warm-up, STATS, METRICS and replays.
    control: Client,
}

fn warm_request(seed: u64) -> SampleRequest {
    SampleRequest {
        req_id: 0,
        dataset: DATASET_ID,
        l: L,
        algorithm: None,
        shards: 1,
        t: 16,
        seed: workload::mix(seed) | 1,
    }
}

/// Starts a server (default configuration, tracing off) on `data`,
/// connects the clients, and warms the `l = L` engine with one small
/// request.
fn serve(data: &Dataset, seed: u64) -> Serving {
    let mut registry = DatasetRegistry::new();
    registry.register(DATASET_ID, data.r.clone(), data.s.clone());
    let server =
        Server::start("127.0.0.1:0", registry, ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();
    let clients = (0..CLIENTS)
        .map(|i| LoadClient::new(Client::connect(addr).expect("client connects"), i, seed))
        .collect();
    let mut control = Client::connect(addr).expect("control client connects");
    let warm = control.sample(warm_request(seed)).expect("warm-up request");
    assert_eq!(warm.status, RequestStatus::Ok, "warm-up request failed");
    Serving {
        server,
        clients,
        control,
    }
}

impl Serving {
    /// Runs every client's closed loop for the phase, concurrently, and
    /// (traced phases) the span collector beside them.
    fn phase(&mut self, opts: &PhaseOpts) -> Vec<ClientLog> {
        let barrier = Barrier::new(self.clients.len());
        let (tx, rx) = mpsc::channel();
        let collector = opts
            .fetch_traces
            .then(|| Client::connect(self.server.local_addr()).expect("collector connects"));
        std::thread::scope(|scope| {
            let collector = collector.map(|c| scope.spawn(move || load::collect_traces(c, rx)));
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    let (barrier, tx) = (&barrier, opts.fetch_traces.then(|| tx.clone()));
                    scope.spawn(move || c.run_phase(opts, barrier, tx))
                })
                .collect();
            drop(tx);
            let mut logs: Vec<ClientLog> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            if let Some(collector) = collector {
                for (client, op, spans) in collector.join().expect("collector thread") {
                    logs[client].ops[op].server_spans = spans;
                }
            }
            logs
        })
    }

    /// Resends client 0's first request of the phase and requires the
    /// identical pairs back. Counts as one attempted operation.
    fn replay_matches(&mut self, logs: &[ClientLog]) -> bool {
        let Some((req, pairs)) = &logs[0].first else {
            return false;
        };
        match self.control.sample(*req) {
            Ok(out) => out.status == RequestStatus::Ok && out.pairs == *pairs,
            Err(_) => false,
        }
    }

    /// The server's `STATS` frame and `METRICS` exposition.
    fn counters(&mut self) -> (ServerStatsFrame, String) {
        (
            self.control.server_stats().expect("STATS answers"),
            self.control.metrics().expect("METRICS answers"),
        )
    }

    fn shutdown(mut self) {
        drop(self.clients);
        drop(self.control);
        self.server.shutdown();
    }
}

/// What a run found, in the shape it is printed and recorded.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Operations that failed or needed a retry.
    errors: u64,
    /// (name, value, unit), in print order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Run facts, each value already JSON-encoded.
    facts: Vec<(&'static str, String)>,
    /// Spans to write out when the run ends, JSON-encoded.
    spans: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn fact(&mut self, key: &'static str, value: String) {
        self.facts.push((key, value));
    }

    /// Counts a phase's operations and checks its answers.
    fn account(&mut self, all: &ClientLog) {
        self.attempted += all.attempted;
        self.failed += all.failed;
        self.errors += all.errors;
        if all.invalid_pairs + all.short_answers + all.insert_mismatches > 0 {
            eprintln!(
                "output check failed: {} invalid pairs, {} short answers, {} short inserts",
                all.invalid_pairs, all.short_answers, all.insert_mismatches
            );
            self.correct = false;
        }
    }

    /// The replay check: one more attempted operation.
    fn replay(&mut self, serving: &mut Serving, logs: &[ClientLog]) {
        self.attempted += 1;
        if !serving.replay_matches(logs) {
            eprintln!("replay check failed: the same-seed request returned other pairs");
            self.correct = false;
            self.failed += 1;
            self.errors += 1;
        }
    }
}

/// The clients' logs folded into one.
fn merged(logs: &[ClientLog]) -> ClientLog {
    let mut all = ClientLog::new(false);
    for l in logs {
        all.merge(l);
    }
    all
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn common_facts(out: &mut Outcome, args: &Args, data: &Dataset) {
    let w = args.workload;
    out.fact("workload", string(w.name));
    out.fact("seed", args.seed.to_string());
    out.fact("seconds", args.seconds.to_string());
    out.fact("trace", u8::from(args.trace).to_string());
    out.fact("nproc", nproc().to_string());
    out.fact("clients", CLIENTS.to_string());
    out.fact("dataset", string(w.kind.label()));
    out.fact("n", data.r.len().to_string());
    out.fact("m", data.s.len().to_string());
    out.fact("t", w.t.to_string());
    out.fact("l", num(L));
}

/// Times `Engine::auto` and records the planner's decision.
fn plan_facts(out: &mut Outcome, data: &Dataset, clock: Instant, spans: &mut Vec<Span>) -> f64 {
    let (auto_ms, plan) = layers::probe_auto(data, clock, spans);
    out.fact("planner_algorithm", string(&plan.algorithm.to_string()));
    out.fact("planner_reason", string(plan.reason));
    out.fact(
        "planner_est_join_size",
        num(plan.est_join_size.unwrap_or(0.0)),
    );
    out.fact(
        "planner_est_overhead",
        num(plan.est_overhead.unwrap_or(0.0)),
    );
    out.fact(
        "planner_mu_grid_total",
        num(plan.mu_grid_total.unwrap_or(0.0)),
    );
    auto_ms
}

/// Client-side facts of one phase: counts, tails, update latency and
/// failure accounting.
fn client_facts(out: &mut Outcome, all: &ClientLog) {
    let requests = all.sample_lat.len();
    let tail_q = tail_quantile(requests);
    out.fact("requests", requests.to_string());
    out.fact("updates", all.update_lat.len().to_string());
    out.fact("request_tail_quantile", num(tail_q));
    out.fact("request_tail_beyond", num(tail_beyond(requests, tail_q)));
    out.fact("request_tail_ms", num(all.sample_lat.quantile_ms(tail_q)));
    out.fact("update_p50_ms", num(all.update_lat.quantile_ms(0.5)));
    out.fact("update_p90_ms", num(all.update_lat.quantile_ms(0.9)));
    out.fact("error_ops", all.errors.to_string());
    out.fact("busy_answers", all.busy_answers.to_string());
    out.fact("retries", all.retries.to_string());
    out.fact("delete_shortfalls", all.delete_shortfalls.to_string());
}

/// Adds a span record; returns its id (ids start at 1, parent 0 is
/// none).
fn push_span(out: &mut Outcome, parent: usize, fields: Vec<(&str, String)>) -> usize {
    let id = out.spans.len() + 1;
    let mut all = vec![("id", id.to_string()), ("parent", parent.to_string())];
    all.extend(fields);
    out.spans.push(object(all));
    id
}

/// Records every kept operation as a client span, with the server's
/// stage intervals (on the server's clock) as its children.
fn client_spans(out: &mut Outcome, phase: &str, logs: &[ClientLog]) {
    // Logs come in sub-phases of `CLIENTS` logs each, in client order.
    for (i, log) in logs.iter().enumerate() {
        let client = i % CLIENTS;
        for o in &log.ops {
            let id = push_span(
                out,
                0,
                vec![
                    ("layer", string("client")),
                    ("name", string(&format!("{:?}", o.kind))),
                    ("phase", string(phase)),
                    ("client", client.to_string()),
                    ("start_ns", o.start_ns.to_string()),
                    ("dur_ns", o.latency_ns.to_string()),
                    ("ok", o.ok.to_string()),
                ],
            );
            for (stage, start, dur) in layers::stage_intervals(&o.server_spans).unwrap_or_default()
            {
                push_span(
                    out,
                    id,
                    vec![
                        ("layer", string("server")),
                        ("name", string(STAGES[stage])),
                        ("clock", string("server")),
                        ("start_ns", start.to_string()),
                        ("dur_ns", dur.to_string()),
                    ],
                );
            }
        }
    }
}

fn phase_opts<'a>(args: &Args, data: &'a Dataset, tag: u64, duration: Duration) -> PhaseOpts<'a> {
    PhaseOpts {
        w: args.workload,
        data,
        seed: args.seed,
        tag,
        duration,
        keep_ops: false,
        fetch_traces: false,
        record_swaps: false,
    }
}

/// One timed set-up: dataset generation, server start, connects and the
/// warm-up request. Returns its seconds with the dataset and server.
fn set_up(w: &Workload, seed: u64) -> (Dataset, Serving, f64) {
    let begin = Instant::now();
    let data = Dataset::generate(w, seed);
    let serving = serve(&data, seed);
    let secs = begin.elapsed().as_secs_f64();
    (data, serving, secs)
}

/// `--trace 0`: set up `SETUPS` times, run the closed loop on the last
/// set-up, check.
fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::new();
    // The warm-up requests.
    out.attempted += SETUPS as u64;
    // One server at a time, so that none but the last counts in the
    // peak memory.
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (_, serving, secs) = set_up(w, args.seed);
        setups.push(secs);
        serving.shutdown();
    }
    let (data, mut serving, last) = set_up(w, args.seed);
    setups.push(last);
    let duration = Duration::from_secs(args.seconds);
    let logs = serving.phase(&phase_opts(args, &data, 0, duration));
    let peak_rss = peak_rss_mb();
    if w.read_only() {
        out.replay(&mut serving, &logs);
    }
    serving.shutdown();

    let all = merged(&logs);
    out.account(&all);
    out.metric("samples_per_s", all.samples_per_s(), "1/s");
    out.metric("request_p50_ms", all.sample_lat.quantile_ms(0.5), "ms");
    out.metric(
        "success_rate",
        1.0 - out.errors as f64 / out.attempted as f64,
        "share",
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak_rss, "MiB");

    common_facts(&mut out, args, &data);
    plan_facts(&mut out, &data, Instant::now(), &mut Vec::new());
    client_facts(&mut out, &all);
    out.fact(
        "setup_s_each",
        format!(
            "[{}]",
            setups
                .iter()
                .map(|&s| num(s))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    out.fact("spread_setup_s", num(spread(&setups)));
    out
}

/// `--trace 1`: an untraced phase (counters), a traced phase (every
/// request's spans), then the per-algorithm engine probe.
fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::new();
    let data = Dataset::generate(w, args.seed);
    let sub = Duration::from_millis(args.seconds * 1000 / (2 * PAIRS as u64));
    let mut serving = serve(&data, args.seed);
    // The warm-up request.
    out.attempted += 1;

    // Untraced and traced sub-phases alternate on one server, so a
    // drift in host speed lands on both sides alike.
    let (mut logs_a, mut logs_b) = (Vec::new(), Vec::new());
    let (mut stats, mut texts, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS as u64 {
        trace::set_sample_rate(0.0);
        let (stats0, text0) = serving.counters();
        let a = serving.phase(&PhaseOpts {
            keep_ops: true,
            record_swaps: true,
            ..phase_opts(args, &data, 2 * pair + 1, sub)
        });
        let (stats1, text1) = serving.counters();
        trace::set_sample_rate(1.0);
        let b = serving.phase(&PhaseOpts {
            keep_ops: true,
            fetch_traces: true,
            ..phase_opts(args, &data, 2 * pair + 2, sub)
        });
        let rate = |logs: &[ClientLog]| merged(logs).samples_per_s();
        ratios.push(rate(&b) / rate(&a));
        stats.push((stats0, stats1));
        texts.push((text0, text1));
        logs_a.extend(a);
        logs_b.extend(b);
    }
    trace::set_sample_rate(0.0);
    if w.read_only() {
        out.replay(&mut serving, &logs_a);
    }
    serving.shutdown();
    let (all_a, all_b) = (merged(&logs_a), merged(&logs_b));
    out.account(&all_a);
    out.account(&all_b);

    // srj-core and srj-engine, timed through their public functions.
    let mut spans = Vec::new();
    let clock = Instant::now();
    let auto_ms = plan_facts(&mut out, &data, clock, &mut spans);
    for (key, alg) in [
        ("kds", Algorithm::Kds),
        ("kds_rejection", Algorithm::KdsRejection),
        ("bbst", Algorithm::Bbst),
    ] {
        let p = layers::probe_algorithm(&data, alg, args.seed, clock, &mut spans);
        out.metric(
            format!("core.draw_ns_per_sample.{key}"),
            p.draw_ns_per_sample,
            "ns",
        );
        out.metric(
            format!("core.iters_per_sample.{key}"),
            p.iters_per_sample,
            "iter/sample",
        );
        out.metric(format!("core.build_ms.{key}"), p.build_ms, "ms");
        let phases = ["preprocessing", "grid_mapping", "upper_bounding"];
        for (phase, ms) in phases.iter().zip(p.phase_ms) {
            out.metric(format!("core.build_phase_ms.{phase}.{key}"), ms, "ms");
        }
        out.metric(format!("core.index_bytes.{key}"), p.index_bytes, "bytes");
    }
    // Counter deltas over the untraced sub-phases only.
    let stat = |f: fn(&ServerStatsFrame) -> u64| -> u64 {
        stats.iter().map(|(s0, s1)| f(s1) - f(s0)).sum()
    };
    let delta = |name: &str, label: Option<&str>| -> f64 {
        texts
            .iter()
            .map(|(t0, t1)| {
                layers::series_sum(t1, name, label) - layers::series_sum(t0, name, label)
            })
            .sum()
    };
    let served = stat(|s| s.samples) as f64;
    out.metric(
        "core.buffer_hit_share",
        delta("srj_buffer_hits_total", None) / served,
        "share",
    );

    // srj-engine.
    let stages: Vec<[u64; 4]> = logs_b
        .iter()
        .flat_map(|l| &l.ops)
        .filter_map(|o| layers::stage_self_ns(&o.server_spans))
        .collect();
    let stage_us = |i: usize| -> Vec<f64> { stages.iter().map(|s| s[i] as f64 / 1e3).collect() };
    let hits = stat(|s| s.cache_hits);
    let lookups = hits + stat(|s| s.cache_misses);
    out.metric("engine.auto_build_ms", auto_ms, "ms");
    out.metric(
        "engine.cache_hit_share",
        hits as f64 / lookups.max(1) as f64,
        "share",
    );
    let acquire = stage_us(1);
    let acquire_mean = acquire.iter().sum::<f64>() / acquire.len().max(1) as f64;
    out.metric("engine.acquire_us", acquire_mean, "us");
    for rung in [
        "minor_swap",
        "cell_patch",
        "full_rebuild",
        "repair",
        "replan",
    ] {
        let label = format!("rung=\"{rung}\"");
        let count = delta("srj_maintenance_total", Some(&label));
        out.metric(format!("engine.maintenance.{rung}"), count, "count");
    }
    let swaps: Vec<f64> = all_a.swap_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    out.metric("engine.last_swap_ms", median(&swaps), "ms");

    // srj-server.
    let samples_a: Vec<&Op> = logs_a
        .iter()
        .flat_map(|l| &l.ops)
        .filter(|o| o.kind == OpKind::Sample && o.ok)
        .collect();
    let service: Vec<f64> = samples_a
        .iter()
        .map(|o| o.service_ns as f64 / 1e6)
        .collect();
    let outside: Vec<f64> = samples_a
        .iter()
        .map(|o| o.latency_ns.saturating_sub(o.service_ns) as f64 / 1e6)
        .collect();
    out.metric("server.service_ms", median(&service), "ms");
    out.metric("server.outside_ms", median(&outside), "ms");
    for (i, name) in STAGES.iter().enumerate() {
        out.metric(
            format!("server.stage_us.{name}"),
            median(&stage_us(i)),
            "us",
        );
    }
    let iters = all_a.iterations as f64 / all_a.samples.max(1) as f64;
    out.metric("server.iters_per_sample", iters, "iter/sample");
    let busy = all_a.busy_answers + all_b.busy_answers;
    out.metric("server.busy_answers", busy as f64, "count");
    out.metric(
        "server.retries",
        (all_a.retries + all_b.retries) as f64,
        "count",
    );

    // srj-net.
    let wakeups = delta("srj_event_loop_wakeups_total", None) / all_a.attempted.max(1) as f64;
    out.metric("net.wakeups_per_request", wakeups, "count");
    let dispatch = layers::histogram_p50(&texts, "srj_event_loop_dispatch_ns");
    out.metric("net.dispatch_ns_p50", dispatch, "ns");

    // srj-obs, and the accounting self-check: the traced self times of
    // every layer — the client's (outside the server's trail) plus the
    // four server stages — summed, against the untraced median.
    out.metric("obs.trace_overhead", median(&ratios), "ratio");
    let client_self: Vec<f64> = logs_b
        .iter()
        .flat_map(|l| &l.ops)
        .filter(|o| o.ok && layers::stage_self_ns(&o.server_spans).is_some())
        .map(|o| {
            let first = o.server_spans.first().map_or(0, |s| s.ns);
            let last = o.server_spans.last().map_or(0, |s| s.ns);
            o.latency_ns.saturating_sub(last - first) as f64 / 1e3
        })
        .collect();
    let self_sum_us = median(&client_self) + (0..4).map(|i| median(&stage_us(i))).sum::<f64>();
    let untraced_p50_us = all_a.sample_lat.quantile_ms(0.5) * 1e3;
    let gap = (self_sum_us / untraced_p50_us - 1.0).abs();
    out.metric("check.accounting_gap", gap, "share");
    if gap.is_nan() || gap > ACCOUNTING_TOLERANCE || client_self.is_empty() {
        eprintln!(
            "accounting self-check failed: traced self times sum to {self_sum_us:.1} us \
             against an untraced median of {untraced_p50_us:.1} us"
        );
        out.correct = false;
    }

    // Client-observed numbers of the untraced phase that do not repeat
    // closely enough between runs to be end-to-end metrics.
    out.metric(
        "client.error_rate",
        out.errors as f64 / out.attempted as f64,
        "share",
    );
    out.metric(
        "client.request_tail_ms",
        all_a
            .sample_lat
            .quantile_ms(tail_quantile(all_a.sample_lat.len())),
        "ms",
    );
    out.metric(
        "client.update_p50_ms",
        all_a.update_lat.quantile_ms(0.5),
        "ms",
    );
    out.metric(
        "client.update_tail_ms",
        all_a.update_lat.quantile_ms(UPDATE_TAIL_Q),
        "ms",
    );

    common_facts(&mut out, args, &data);
    client_facts(&mut out, &all_a);
    out.fact("traced_requests", client_self.len().to_string());
    out.fact("client_self_us_p50", num(median(&client_self)));
    out.fact("traced_self_sum_us", num(self_sum_us));
    out.fact("untraced_request_p50_us", num(untraced_p50_us));
    out.fact("accounting_tolerance", num(ACCOUNTING_TOLERANCE));
    client_spans(&mut out, "untraced", &logs_a);
    client_spans(&mut out, "traced", &logs_b);
    for s in spans {
        push_span(
            &mut out,
            0,
            vec![
                ("layer", string(s.layer)),
                ("name", string(&s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("dur_ns", s.dur_ns.to_string()),
            ],
        );
    }
    out
}

/// Writes the run record (facts, metrics, spans) next to the
/// benchmark, under `runs/`.
fn write_record(args: &Args, facts: &str, metrics: &str, spans: &[String]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    // One file per workload and mode: the latest run's record.
    let path = dir.join(format!(
        "{}-trace{}.json",
        args.workload.name,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"facts\": {facts},\n\"metrics\": {metrics},\n\"spans\": [\n{}\n]}}\n",
        spans.join(",\n")
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "srjbench: {e}\n{USAGE}\nworkloads: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            );
            std::process::exit(2);
        }
    };
    let mut out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    // A p50 that falls among failed requests is infinite; it must not
    // print as a number that reads like a gain.
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite ({value})");
            out.correct = false;
        }
    }
    let facts = object(out.facts.iter().map(|(k, v)| (*k, v.clone())));
    let metrics = object(out.metrics.iter().map(|(name, value, unit)| {
        (
            name.as_str(),
            object([("value", num(*value)), ("unit", string(unit))]),
        )
    }));
    write_record(&args, &facts, &metrics, &out.spans);
    println!("{}", object([("facts", facts)]));
    println!(
        "{}",
        object([
            ("correct", out.correct.to_string()),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("metrics", metrics),
        ])
    );
}
