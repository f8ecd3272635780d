//! `srj-loadgen` — concurrent load generator for `srj-serve`.
//!
//! ```sh
//! srj-loadgen --addr 127.0.0.1:7878 --clients 4 --requests 8 --t 50000
//! srj-loadgen --addr 127.0.0.1:7878 --clients 1 --shutdown   # CI smoke
//! srj-loadgen --addr 127.0.0.1:7878 --update-fraction 0.1 \
//!             --out BENCH_PR4.json                           # mixed 90/10
//! ```
//!
//! Spawns `--clients` threads, each holding one connection and issuing
//! `--requests` sequential operations. By default every operation is a
//! `SAMPLE` request of `--t` samples; with `--update-fraction f > 0`
//! every ⌈1/f⌉-th operation is instead an `INSERT` or `DELETE` batch
//! (`--update-batch` points, alternating sides, deletes recycling
//! previously inserted ids) — the mixed read/update workload the
//! dynamic-dataset path is benchmarked under. Reports achieved
//! samples/sec, client-observed request latency quantiles, update
//! latency quantiles, and the served dataset's epoch counters (swap
//! count + last swap latency via the `EPOCH` frame), machine-readable
//! into `--out` (`BENCH_PR3.json` shape, `"pr": 4` fields added when
//! updates ran; `host_cores` included — single-core CI boxes cannot
//! show parallel speedup). Exits non-zero on any non-`Ok` status or
//! transport error.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use srj_bench::{host_cores, percentile_sorted};
use srj_geom::Point;
use srj_server::{
    Algorithm, Client, ClientConfig, ClientError, DatasetRegistry, FaultPlan, RequestStatus,
    SampleRequest, Server, ServerConfig, Side,
};

const USAGE: &str = "usage: srj-loadgen [--addr HOST:PORT] [--clients N] [--requests N] [--t N]
                   [--dataset ID] [--l F] [--algo auto|kds|kds-rejection|bbst]
                   [--shards N] [--update-fraction F] [--update-batch N]
                   [--delete-heavy] [--obs-bench] [--chaos] [--fault-seed N]
                   [--connections N]
                   [--connect-timeout-ms N]
                   [--no-nodelay] [--domain F] [--out PATH] [--shutdown]
  Defaults: --addr 127.0.0.1:7878 --clients 4 --requests 8 --t 50000
            --dataset 1 --l 100 --algo auto --shards 1
            --update-fraction 0 --update-batch 256 --domain 10000
            --connect-timeout-ms 5000 --fault-seed 7
            --out BENCH_PR3.json (BENCH_PR5.json with --delete-heavy,
            BENCH_PR8.json with --obs-bench, BENCH_PR7.json with --chaos,
            BENCH_PR10.json with --connections)
  --delete-heavy: every request is preceded by a DELETE batch of S ids
                  (no inserts); asserts the served Σµ strictly shrinks
                  across the resulting epoch swap and writes the PR5
                  bench JSON.
  --obs-bench: ignore --addr; start identical in-process servers —
               observability cold (tracing, slow log, recorder, and
               profiler all off) and hot (every request traced,
               always-on slow-log rings, 100 ms recorder cadence,
               worker-state sampling) — run the same read load against
               both in interleaved phase pairs, and record the best-of
               throughput ratio as \"measured_ratio\" (plus the
               per-phase rates and spread) in the PR8 bench JSON.
  --chaos: ignore --addr; run the fault-injection soak — the same
           mutating workload against a clean in-process server and one
           injecting dropped connections, truncated/partial frames,
           delayed reads, and forced BUSY (seeded by --fault-seed).
           Exits non-zero unless every client converges with zero lost
           mutations, a chi-squared uniformity test passes under
           faults, and the hardening paths (retries, BUSY answers,
           idle-connection reaping) demonstrably fired. Writes the PR7
           bench JSON.
  --connections N: ignore --addr; run the high-fanout serving bench
           against an in-process server — phase 1 is the plain read
           workload alone (the regression gate vs the
           thread-per-connection baseline), phase 2 opens N keepalive
           connections held live by PING sweeps and reruns the same
           hot workload through that standing crowd. Exits non-zero
           on any hot-client error or any keepalive connection that
           stops answering. Writes the PR10 bench JSON.
  --connect-timeout-ms / --no-nodelay: client socket knobs (all modes);
           0 disables the connect deadline, --no-nodelay leaves Nagle
           batching on.";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

#[derive(Default)]
struct ClientOutcome {
    samples: u64,
    latencies_ns: Vec<u64>,
    update_latencies_ns: Vec<u64>,
    inserted_points: u64,
    deleted_points: u64,
    /// DELETE frames actually sent (points *applied* can legitimately
    /// be zero when an epoch swap invalidated the ids mid-flight).
    delete_frames: u64,
    errors: u64,
}

/// Deterministic xorshift point stream for inserts (same generator as
/// the test helpers; no `rand` dependency in the bins).
struct PointGen {
    state: u64,
    domain: f64,
}

impl PointGen {
    fn new(seed: u64, domain: f64) -> Self {
        PointGen {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            domain,
        }
    }

    fn next_unit(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn point(&mut self) -> Point {
        Point::new(
            self.next_unit() * self.domain,
            self.next_unit() * self.domain,
        )
    }
}

/// One delete-heavy client: each round tombstones a batch of currently
/// live `S` ids (validated against the current epoch via an `EPOCH`
/// probe, like the mixed-mode delete path) and then samples, so the
/// tombstone-threshold rebuild — and its `Σµ` shrink — happens under
/// read load.
#[allow(clippy::too_many_arguments)]
fn run_delete_heavy_client(
    cid: usize,
    addr: &str,
    cfg: ClientConfig,
    requests: usize,
    t: u64,
    dataset: u64,
    l: f64,
    algorithm: Option<Algorithm>,
    shards: u32,
    delete_batch: usize,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut client = match Client::connect_with(addr, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client {cid}: connect failed: {e}");
            out.errors += 1;
            return out;
        }
    };
    for r in 0..requests {
        // Pick a deterministic, per-(client, round) segment of the
        // currently live id space. Already-tombstoned ids are skipped
        // server-side (`applied` counts the effective ones).
        let live_s = match client.epoch(dataset) {
            Ok((RequestStatus::Ok, info)) => info.live_s,
            _ => 0,
        };
        if live_s > delete_batch as u64 * 2 {
            let span = live_s - delete_batch as u64;
            let start = ((cid as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(r as u64 * 2_654_435_761))
                % span;
            let ids: Vec<u32> = (0..delete_batch as u64)
                .map(|k| (start + k) as u32)
                .collect();
            let del_start = Instant::now();
            match client.delete(dataset, Side::S, &ids) {
                Ok(o) if o.status == RequestStatus::Ok => {
                    out.deleted_points += o.applied as u64;
                    out.delete_frames += 1;
                    out.update_latencies_ns
                        .push(del_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                }
                Ok(o) => {
                    eprintln!("client {cid} delete: status {}", o.status);
                    out.errors += 1;
                }
                Err(e) => {
                    eprintln!("client {cid} delete: {e}");
                    out.errors += 1;
                    return out;
                }
            }
        }
        let seed = 1 + (cid * requests + r) as u64;
        let start = Instant::now();
        let mut received = 0u64;
        let outcome = client.sample_with(
            SampleRequest {
                req_id: 0,
                dataset,
                l,
                algorithm,
                shards,
                t,
                seed,
            },
            |batch| received += batch.len() as u64,
        );
        match outcome {
            Ok(o) if o.status == RequestStatus::Ok && received == t => {
                out.samples += received;
                out.latencies_ns
                    .push(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
            Ok(o) => {
                eprintln!(
                    "client {cid} request {r}: status {} after {received} samples",
                    o.status
                );
                out.errors += 1;
            }
            Err(e) => {
                eprintln!("client {cid} request {r}: {e}");
                out.errors += 1;
                return out;
            }
        }
    }
    out
}

/// The `--obs-bench` harness: the same read-only load against freshly
/// started in-process servers — observability cold (tracing off,
/// slow-log rings off, no time-series recorder, no profiler; the
/// metrics counters still run, as they always do) and hot (every
/// request traced, always-on slow-log rings, a fast-cadence recorder,
/// and worker-state sampling). The achieved samples/sec ratio is the
/// measured end-to-end overhead of the full instrumentation stack.
/// Phases are interleaved off/on and the ratio is best-of per side
/// (instrumentation cost is a floor effect; peak-vs-peak cancels
/// scheduler and frequency noise), with the per-phase spread reported
/// alongside so the noise floor is visible in the JSON. Exits the
/// process with the bench outcome.
#[allow(clippy::too_many_arguments)]
fn run_obs_bench(
    cfg: ClientConfig,
    clients_n: usize,
    requests: usize,
    t: u64,
    l: f64,
    algorithm: Option<Algorithm>,
    algo_str: &str,
    shards: u32,
    domain: f64,
    out_path: &str,
) -> ! {
    let dataset = 1u64;
    let phase = |hot: bool| -> (f64, u64) {
        // Identical dataset per phase (same generator seeds).
        let mut gen = PointGen::new(0x0B5_BE7C4, domain);
        let r: Vec<Point> = (0..20_000).map(|_| gen.point()).collect();
        let s: Vec<Point> = (0..20_000).map(|_| gen.point()).collect();
        let mut registry = DatasetRegistry::new();
        registry.register(dataset, r, s);
        // Off: every optional observability layer disabled. On: the
        // full stack — per-request tracing, always-on slow-log rings
        // with auto (p99) thresholding, a 100 ms recorder cadence
        // (10x the default, so short phases still exercise it), and
        // worker-state sampling.
        let config = if hot {
            ServerConfig {
                trace_sample_rate: 1.0,
                slow_log_capacity: 64,
                slow_threshold_ns: 0,
                timeseries_cadence_ms: 100,
                profiler: true,
                ..ServerConfig::default()
            }
        } else {
            ServerConfig {
                trace_sample_rate: 0.0,
                slow_log_capacity: 0,
                timeseries_cadence_ms: 0,
                profiler: false,
                ..ServerConfig::default()
            }
        };
        let mut server =
            Server::start("127.0.0.1:0", registry, config).expect("bind obs-bench server");
        let addr = server.local_addr().to_string();
        // Warm the engine cache so neither phase times the index build.
        if let Ok(mut c) = Client::connect_with(addr.as_str(), cfg) {
            let _ = c.sample(SampleRequest {
                req_id: 0,
                dataset,
                l,
                algorithm,
                shards,
                t: 1,
                seed: 1,
            });
        }
        let wall_start = Instant::now();
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let addr = &addr;
            let handles: Vec<_> = (0..clients_n)
                .map(|cid| {
                    scope.spawn(move || {
                        run_client(
                            cid, addr, cfg, requests, t, dataset, l, algorithm, shards, 0, 1,
                            domain,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = wall_start.elapsed();
        if hot {
            // Exercise the export surfaces once while hot, so the bench
            // also covers the scrape path end to end.
            if let Ok(mut c) = Client::connect_with(addr.as_str(), cfg) {
                if let Ok(text) = c.metrics() {
                    assert!(
                        text.contains("srj_requests_total"),
                        "hot-phase METRICS exposition is missing request counters"
                    );
                }
            }
        }
        server.shutdown();
        let total: u64 = outcomes.iter().map(|o| o.samples).sum();
        let errors: u64 = outcomes.iter().map(|o| o.errors).sum();
        if errors > 0 || total == 0 {
            eprintln!("obs-bench phase failed: {errors} errors, {total} samples");
            std::process::exit(1);
        }
        (total as f64 / wall.as_secs_f64().max(1e-9), total)
    };

    eprintln!(
        "# obs-bench: {clients_n} clients x {requests} reqs x {t} samples, \
         observability off vs on (trace 1.0 + slow-log + recorder + profiler)"
    );
    // Interleaved off/on phase pairs, best rate per side: the phases
    // are short and the interesting signal (instrumentation cost) is
    // a *floor* effect, so peak-vs-peak cancels the scheduler and
    // frequency noise that dominates single-run deltas on a shared
    // 1-core box. Five pairs (up from three in PR 6) because the
    // observed round-to-round spread exceeded the effect size; the
    // per-phase rates and their spread go into the JSON so a reader
    // can judge the noise floor against the reported ratio.
    const ROUNDS: usize = 5;
    let mut off_rates = Vec::with_capacity(ROUNDS);
    let mut on_rates = Vec::with_capacity(ROUNDS);
    let mut total = 0u64;
    for round in 0..ROUNDS {
        let (off, n) = phase(false);
        let (on, _) = phase(true);
        eprintln!("# round {round}: off {off:.0} samples/s, on {on:.0} samples/s");
        off_rates.push(off);
        on_rates.push(on);
        total = n;
    }
    let best = |rates: &[f64]| rates.iter().copied().fold(0.0f64, f64::max);
    let spread_pct = |rates: &[f64]| {
        let hi = best(rates);
        let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
        (hi - lo) / hi.max(1e-9) * 100.0
    };
    let fmt_rates = |rates: &[f64]| {
        let items: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        format!("[{}]", items.join(", "))
    };
    let off_rate = best(&off_rates);
    let on_rate = best(&on_rates);
    // on/off throughput: 1.0 = free, 0.95 = 5% overhead.
    let measured_ratio = on_rate / off_rate.max(1e-9);

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"pr\": 8,").unwrap();
    writeln!(json, "  \"host_cores\": {},", host_cores()).unwrap();
    writeln!(
        json,
        "  \"workload\": {{\"clients\": {clients_n}, \"requests_per_client\": {requests}, \
         \"t\": {t}, \"dataset\": {dataset}, \"l\": {l}, \"algorithm\": \"{algo_str}\", \
         \"shards\": {shards}, \"hot\": {{\"trace_sample_rate\": 1.0, \
         \"slow_log_capacity\": 64, \"timeseries_cadence_ms\": 100, \"profiler\": true}}}},"
    )
    .unwrap();
    writeln!(json, "  \"rounds\": {ROUNDS},").unwrap();
    writeln!(json, "  \"total_samples_per_phase\": {total},").unwrap();
    writeln!(
        json,
        "  \"samples_per_sec_off_phases\": {},",
        fmt_rates(&off_rates)
    )
    .unwrap();
    writeln!(
        json,
        "  \"samples_per_sec_on_phases\": {},",
        fmt_rates(&on_rates)
    )
    .unwrap();
    writeln!(json, "  \"off_spread_pct\": {:.2},", spread_pct(&off_rates)).unwrap();
    writeln!(json, "  \"on_spread_pct\": {:.2},", spread_pct(&on_rates)).unwrap();
    writeln!(json, "  \"samples_per_sec_off\": {off_rate:.0},").unwrap();
    writeln!(json, "  \"samples_per_sec_on\": {on_rate:.0},").unwrap();
    writeln!(
        json,
        "  \"overhead_pct\": {:.2},",
        (1.0 - measured_ratio) * 100.0
    )
    .unwrap();
    writeln!(json, "  \"measured_ratio\": {measured_ratio:.4}").unwrap();
    writeln!(json, "}}").unwrap();
    print!("{json}");
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("warning: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {out_path}");
    std::process::exit(0);
}

/// High-fanout serving bench — the C10k acceptance run for the
/// readiness-based connection layer. Ignores `--addr`; starts one
/// in-process server with a deliberately short idle timeout and runs
/// two phases against it:
///
/// 1. **low fanout** — the plain read workload (`clients_n` hot
///    clients, no standing crowd), the regression gate against the
///    thread-per-connection baseline's samples/sec;
/// 2. **high fanout** — `connections` keepalive connections are
///    opened (handshake only), kept alive by a PING sweep timed to
///    beat the idle reaper, and the *same* hot workload runs through
///    that standing crowd. After the hot load drains, every keepalive
///    connection must still answer a PING: a dead one means the event
///    loop starved it, mis-fired its idle timer, or leaked its state
///    under fanout — exactly the failure modes this layer exists to
///    avoid.
///
/// Writes the PR10 bench JSON with both rates, the sustained
/// connection count, and the event-loop counters scraped via
/// `METRICS`. Exits non-zero on any hot-client error, any keepalive
/// ping failure, or a sustained count below the target.
#[allow(clippy::too_many_arguments)]
fn run_connections_bench(
    cfg: ClientConfig,
    connections: usize,
    clients_n: usize,
    requests: usize,
    t: u64,
    l: f64,
    algorithm: Option<Algorithm>,
    algo_str: &str,
    shards: u32,
    domain: f64,
    out_path: &str,
) -> ! {
    let dataset = 1u64;
    // The fd budget: N keepalive sockets + hot clients + listener +
    // waker + accept headroom, on both ends of the loopback.
    let need = (connections as u64) * 2 + 512;
    match srj_net::rlimit::raise_nofile(need) {
        Ok(soft) if soft < need => eprintln!(
            "warning: RLIMIT_NOFILE soft limit {soft} < wanted {need}; \
             some connections may fail to open"
        ),
        Ok(_) => {}
        Err(e) => eprintln!("warning: could not raise RLIMIT_NOFILE: {e}"),
    }

    // The exact dataset `srj-serve`'s default serves (uniform, scale
    // 0.05, seed 42): the low-fanout phase is then directly comparable
    // to a `srj-serve` + plain-loadgen run of the same workload — the
    // regression gate against the thread-per-connection baseline.
    let d = srj_bench::scaled_spec(srj_datagen::DatasetKind::Uniform, 0.05, 0.5, 42);
    let mut registry = DatasetRegistry::new();
    registry.register(dataset, d.r, d.s);
    // Short idle timeout on purpose: with the PING sweep below at half
    // that period, a reaped keepalive connection is a timer-wheel bug,
    // not a configuration accident.
    const IDLE: Duration = Duration::from_secs(5);
    let config = ServerConfig {
        idle_timeout: IDLE,
        ..ServerConfig::default()
    };
    let mut server =
        Server::start("127.0.0.1:0", registry, config).expect("bind connections-bench server");
    let addr = server.local_addr().to_string();

    // Warm the engine cache so neither phase times the index build.
    if let Ok(mut c) = Client::connect_with(addr.as_str(), cfg) {
        let _ = c.sample(SampleRequest {
            req_id: 0,
            dataset,
            l,
            algorithm,
            shards,
            t: 1,
            seed: 1,
        });
    }

    let hot_phase = |label: &str| -> (f64, u64, u64) {
        let wall_start = Instant::now();
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let addr = &addr;
            let handles: Vec<_> = (0..clients_n)
                .map(|cid| {
                    scope.spawn(move || {
                        run_client(
                            cid, addr, cfg, requests, t, dataset, l, algorithm, shards, 0, 1,
                            domain,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = wall_start.elapsed();
        let total: u64 = outcomes.iter().map(|o| o.samples).sum();
        let errors: u64 = outcomes.iter().map(|o| o.errors).sum();
        let rate = total as f64 / wall.as_secs_f64().max(1e-9);
        eprintln!(
            "# {label}: {total} samples in {:.2}s = {rate:.0}/s ({errors} errors)",
            wall.as_secs_f64()
        );
        (rate, total, errors)
    };

    eprintln!(
        "# connections-bench: {clients_n} hot clients x {requests} reqs x {t} samples, \
         {connections} keepalive connections (idle timeout {:?})",
        IDLE
    );
    let (low_rate, low_total, low_errors) = hot_phase("low-fanout phase");

    // Open the standing crowd. Connect failures are counted, not
    // fatal here — the sustained-count gate at the end decides.
    let mut keepalive: Vec<Client> = Vec::with_capacity(connections);
    let mut connect_failures = 0u64;
    for k in 0..connections {
        match Client::connect_with(addr.as_str(), cfg) {
            Ok(c) => keepalive.push(c),
            Err(e) => {
                if connect_failures == 0 {
                    eprintln!("keepalive connect {k} failed: {e}");
                }
                connect_failures += 1;
            }
        }
    }
    let opened = keepalive.len();
    eprintln!("# opened {opened}/{connections} keepalive connections");

    // PING sweep at half the idle timeout: every connection stays
    // legitimately alive, so any reap is the server's mistake. The
    // sweeper owns the crowd while the hot phase runs and hands it
    // back (with its failure count) for the final liveness check.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let sweep_every = IDLE / 2;
    let ((high_rate, high_total, high_errors), (mut keepalive, sweep_failures)) =
        std::thread::scope(|scope| {
            let stop = &stop;
            let sweeper = scope.spawn(move || {
                let mut failures = 0u64;
                let mut last = Instant::now();
                // First sweep immediately: proves the crowd is live
                // before the hot load starts competing for the core.
                loop {
                    for c in keepalive.iter_mut() {
                        if c.ping().is_err() {
                            failures += 1;
                        }
                    }
                    while last.elapsed() < sweep_every {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            return (keepalive, failures);
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    last = Instant::now();
                }
            });
            let hot = hot_phase("high-fanout phase");
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            (hot, sweeper.join().unwrap())
        });

    // Final liveness check: every opened connection must still answer.
    let mut sustained = 0usize;
    for c in keepalive.iter_mut() {
        if c.ping().is_ok() {
            sustained += 1;
        }
    }
    eprintln!("# sustained {sustained}/{opened} keepalive connections after hot load");

    // Scrape the event-loop counters while the crowd is still open so
    // `srj_conn_open` reflects the standing fanout.
    let (conn_open, wakeups, reaped) = Client::connect_with(addr.as_str(), cfg)
        .ok()
        .and_then(|mut c| c.metrics().ok())
        .map(|text| {
            (
                metric_value(&text, "srj_conn_open"),
                metric_value(&text, "srj_event_loop_wakeups_total"),
                metric_value(&text, "srj_conn_reaped"),
            )
        })
        .unwrap_or((-1.0, -1.0, -1.0));
    drop(keepalive);
    server.shutdown();

    let ratio = high_rate / low_rate.max(1e-9);
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"pr\": 10,").unwrap();
    writeln!(json, "  \"host_cores\": {},", host_cores()).unwrap();
    writeln!(
        json,
        "  \"workload\": {{\"clients\": {clients_n}, \"requests_per_client\": {requests}, \
         \"t\": {t}, \"dataset\": {dataset}, \"l\": {l}, \"algorithm\": \"{algo_str}\", \
         \"shards\": {shards}, \"idle_timeout_s\": {}, \"ping_sweep_s\": {}}},",
        IDLE.as_secs(),
        sweep_every.as_secs_f64(),
    )
    .unwrap();
    writeln!(json, "  \"connections_target\": {connections},").unwrap();
    writeln!(json, "  \"connections_opened\": {opened},").unwrap();
    writeln!(json, "  \"connections_sustained\": {sustained},").unwrap();
    writeln!(json, "  \"connect_failures\": {connect_failures},").unwrap();
    writeln!(json, "  \"keepalive_ping_failures\": {sweep_failures},").unwrap();
    writeln!(json, "  \"samples_low_fanout\": {low_total},").unwrap();
    writeln!(json, "  \"samples_per_sec_low_fanout\": {low_rate:.0},").unwrap();
    writeln!(json, "  \"samples_high_fanout\": {high_total},").unwrap();
    writeln!(json, "  \"samples_per_sec_high_fanout\": {high_rate:.0},").unwrap();
    writeln!(json, "  \"high_over_low_ratio\": {ratio:.4},").unwrap();
    writeln!(json, "  \"errors\": {},", low_errors + high_errors).unwrap();
    writeln!(json, "  \"srj_conn_open\": {conn_open:.0},").unwrap();
    writeln!(json, "  \"srj_conn_reaped\": {reaped:.0},").unwrap();
    writeln!(json, "  \"srj_event_loop_wakeups_total\": {wakeups:.0}").unwrap();
    writeln!(json, "}}").unwrap();
    print!("{json}");
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("warning: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {out_path}");

    let hot_failed = low_errors + high_errors > 0 || low_total == 0 || high_total == 0;
    if hot_failed {
        eprintln!("connections-bench: hot clients saw errors");
        std::process::exit(1);
    }
    if sweep_failures > 0 || sustained < connections {
        eprintln!(
            "connections-bench: keepalive crowd degraded \
             ({sweep_failures} sweep failures, {sustained}/{connections} sustained)"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    cid: usize,
    addr: &str,
    cfg: ClientConfig,
    requests: usize,
    t: u64,
    dataset: u64,
    l: f64,
    algorithm: Option<Algorithm>,
    shards: u32,
    update_every: usize,
    update_batch: usize,
    domain: f64,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut client = match Client::connect_with(addr, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client {cid}: connect failed: {e}");
            out.errors += 1;
            return out;
        }
    };
    let mut gen = PointGen::new(0xC11E_4400 + cid as u64, domain);
    // Ids this client inserted and may later delete, tagged with the
    // epoch they were assigned in (a rebuild renumbers ids, so stale
    // epochs are discarded rather than deleting arbitrary points).
    let mut pending_deletes: Vec<(Side, u32, u64)> = Vec::new();
    let mut update_no = 0usize;
    for r in 0..requests {
        let is_update = update_every > 0 && (r + 1) % update_every == 0;
        if is_update {
            update_no += 1;
            let side = if update_no.is_multiple_of(2) {
                Side::S
            } else {
                Side::R
            };
            let start = Instant::now();
            // Alternate insert/delete once enough inserted ids are
            // banked, so the dataset size stays roughly stable.
            let result = if update_no.is_multiple_of(4) {
                // Confirm the banked ids are still addressable before
                // sending: a concurrent client's inserts may have
                // crossed the rebuild threshold (or tripped a re-plan)
                // and renumbered everything, in which case the banked
                // ids would tombstone arbitrary points.
                let current_epoch = match client.epoch(dataset) {
                    Ok((RequestStatus::Ok, info)) => info.epoch,
                    _ => u64::MAX, // discard everything below
                };
                pending_deletes.retain(|(_, _, e)| *e == current_epoch);
                if pending_deletes.len() < update_batch {
                    // Not enough surviving ids (e.g. an epoch swap just
                    // discarded the bank): insert a fresh batch in the
                    // current epoch so the delete always has valid
                    // targets and the DELETE path is always exercised.
                    let points: Vec<Point> = (0..update_batch).map(|_| gen.point()).collect();
                    if let Ok(o) = client.insert(dataset, side, &points) {
                        if o.status == RequestStatus::Ok {
                            out.inserted_points += o.applied as u64;
                            pending_deletes.retain(|(_, _, e)| *e == o.epoch);
                            for k in 0..o.applied {
                                pending_deletes.push((side, o.first_id + k, o.epoch));
                            }
                        }
                    }
                }
                let take = pending_deletes.len().min(update_batch);
                let batch: Vec<(Side, u32, u64)> = pending_deletes.drain(..take).collect();
                out.delete_frames += u64::from(batch.iter().any(|(s, _, _)| *s == Side::R))
                    + u64::from(batch.iter().any(|(s, _, _)| *s == Side::S));
                let mut applied = 0;
                let mut failed = false;
                for del_side in [Side::R, Side::S] {
                    let ids: Vec<u32> = batch
                        .iter()
                        .filter(|(s, _, _)| *s == del_side)
                        .map(|(_, id, _)| *id)
                        .collect();
                    if ids.is_empty() {
                        continue;
                    }
                    match client.delete(dataset, del_side, &ids) {
                        Ok(o) if o.status == RequestStatus::Ok => {
                            applied += o.applied as u64;
                            // A bumped epoch invalidates banked ids —
                            // including the not-yet-sent other side of
                            // this very batch (the server skipped the
                            // now-stale ids anyway; `applied` tells us).
                            pending_deletes.retain(|(_, _, e)| *e == o.epoch);
                            if o.epoch != current_epoch {
                                break;
                            }
                        }
                        Ok(o) => {
                            eprintln!("client {cid} delete: status {}", o.status);
                            failed = true;
                        }
                        Err(e) => {
                            eprintln!("client {cid} delete: {e}");
                            failed = true;
                        }
                    }
                }
                out.deleted_points += applied;
                !failed
            } else {
                let points: Vec<Point> = (0..update_batch).map(|_| gen.point()).collect();
                match client.insert(dataset, side, &points) {
                    Ok(o) if o.status == RequestStatus::Ok => {
                        pending_deletes.retain(|(_, _, e)| *e == o.epoch);
                        for k in 0..o.applied {
                            pending_deletes.push((side, o.first_id + k, o.epoch));
                        }
                        out.inserted_points += o.applied as u64;
                        true
                    }
                    Ok(o) => {
                        eprintln!("client {cid} insert: status {}", o.status);
                        false
                    }
                    Err(e) => {
                        eprintln!("client {cid} insert: {e}");
                        false
                    }
                }
            };
            if result {
                out.update_latencies_ns
                    .push(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            } else {
                out.errors += 1;
            }
            continue;
        }
        // Nonzero seed ⇒ reproducible per-slot streams.
        let seed = 1 + (cid * requests + r) as u64;
        let start = Instant::now();
        let mut received = 0u64;
        let outcome = client.sample_with(
            SampleRequest {
                req_id: 0,
                dataset,
                l,
                algorithm,
                shards,
                t,
                seed,
            },
            |batch| received += batch.len() as u64,
        );
        let elapsed = start.elapsed();
        match outcome {
            Ok(o) if o.status == RequestStatus::Ok && received == t => {
                out.samples += received;
                out.latencies_ns
                    .push(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
            }
            Ok(o) => {
                eprintln!(
                    "client {cid} request {r}: status {} after {received} samples",
                    o.status
                );
                out.errors += 1;
            }
            Err(e) => {
                eprintln!("client {cid} request {r}: {e}");
                out.errors += 1;
                return out;
            }
        }
    }
    out
}

/// Read-only control dataset for the chaos soak's chi-squared check:
/// small enough to brute-force the exact join client-side, dense
/// enough that every joinable pair expects well over five draws.
const CTL_DATASET: u64 = 1_000;
const CTL_L: f64 = 25.0;

fn control_points() -> (Vec<Point>, Vec<Point>) {
    let mut gen = PointGen::new(0xC7_1000, 100.0);
    let r: Vec<Point> = (0..50).map(|_| gen.point()).collect();
    let s: Vec<Point> = (0..50).map(|_| gen.point()).collect();
    (r, s)
}

/// The value of an unlabeled `name value` series in a Prometheus text
/// exposition (0 when absent).
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

/// Current live `|S'|` of a dataset, via a (retried) `EPOCH` probe.
fn probe_live(client: &mut Client, dataset: u64) -> Option<u64> {
    match client.epoch(dataset) {
        Ok((RequestStatus::Ok, info)) => Some(info.live_s),
        _ => None,
    }
}

#[derive(Default)]
struct ChaosOutcome {
    samples: u64,
    retries: u64,
    busy: u64,
    errors: u64,
    /// Ledger disagreements: the server's live count ended up somewhere
    /// the client's mutation history cannot explain — a mutation was
    /// lost or applied twice.
    lost: u64,
}

/// One chaos client: sole mutator of its own dataset, alternating
/// insert/delete batches with reads, keeping a ledger of the live `S`
/// count the server *must* report. `AmbiguousMutation` (a retry the
/// client could not prove safe) is resolved the way a real
/// application-level protocol would: probe the authoritative count and
/// accept only the two states the ambiguous op can explain.
fn run_chaos_client(
    cid: usize,
    addr: &str,
    cfg: ClientConfig,
    rounds: usize,
    t: u64,
) -> ChaosOutcome {
    const BATCH: usize = 32;
    let dataset = cid as u64 + 1;
    let mut out = ChaosOutcome::default();
    let mut client = match Client::connect_with(addr, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chaos client {cid}: connect failed: {e}");
            out.errors += 1;
            return out;
        }
    };
    let mut expected = match probe_live(&mut client, dataset) {
        Some(v) => v,
        None => {
            eprintln!("chaos client {cid}: initial EPOCH probe failed");
            out.errors += 1;
            return out;
        }
    };
    let mut gen = PointGen::new(0x50A4_D00D + cid as u64, 10_000.0);
    for r in 0..rounds {
        if r % 3 == 2 && expected > 2 * BATCH as u64 {
            // Delete a batch of currently live ids. `applied` can fall
            // short of the batch when a concurrent fold renumbered the
            // id space — the ledger tracks applied, not attempted.
            match probe_live(&mut client, dataset) {
                Some(live) if live > BATCH as u64 => {
                    let start = (r as u64 * 97) % (live - BATCH as u64);
                    let ids: Vec<u32> = (0..BATCH as u64).map(|k| (start + k) as u32).collect();
                    match client.delete(dataset, Side::S, &ids) {
                        Ok(o) if o.status == RequestStatus::Ok => {
                            expected -= u64::from(o.applied);
                        }
                        Ok(o) => {
                            eprintln!("chaos client {cid} delete: status {}", o.status);
                            out.errors += 1;
                        }
                        Err(ClientError::AmbiguousMutation) => {
                            match probe_live(&mut client, dataset) {
                                // Anywhere in [expected - BATCH, expected]
                                // is explained by a partially-stale batch
                                // applied zero or one times; resync.
                                Some(live)
                                    if live <= expected && live + BATCH as u64 >= expected =>
                                {
                                    expected = live;
                                }
                                Some(live) => {
                                    eprintln!(
                                        "chaos client {cid}: ambiguous delete left live {live}, \
                                         ledger {expected}"
                                    );
                                    out.lost += 1;
                                }
                                None => out.errors += 1,
                            }
                        }
                        Err(e) => {
                            eprintln!("chaos client {cid} delete: {e}");
                            out.errors += 1;
                        }
                    }
                }
                Some(_) => {}
                None => out.errors += 1,
            }
        } else {
            let points: Vec<Point> = (0..BATCH).map(|_| gen.point()).collect();
            match client.insert(dataset, Side::S, &points) {
                Ok(o) if o.status == RequestStatus::Ok => {
                    expected += u64::from(o.applied);
                }
                Ok(o) => {
                    eprintln!("chaos client {cid} insert: status {}", o.status);
                    out.errors += 1;
                }
                Err(ClientError::AmbiguousMutation) => match probe_live(&mut client, dataset) {
                    // Inserts apply atomically: applied once or not at
                    // all — any other count is a lost/doubled mutation.
                    Some(live) if live == expected + BATCH as u64 || live == expected => {
                        expected = live;
                    }
                    Some(live) => {
                        eprintln!(
                            "chaos client {cid}: ambiguous insert left live {live}, \
                             ledger {expected}"
                        );
                        out.lost += 1;
                    }
                    None => out.errors += 1,
                },
                Err(e) => {
                    eprintln!("chaos client {cid} insert: {e}");
                    out.errors += 1;
                }
            }
        }
        // A read between every mutation — full-buffer `sample` retries
        // freely (idempotent), so faults cost latency, not correctness.
        let seed = 1 + (cid * rounds + r) as u64;
        match client.sample(SampleRequest {
            req_id: 0,
            dataset,
            l: 100.0,
            algorithm: None,
            shards: 1,
            t,
            seed,
        }) {
            Ok(o) if o.status == RequestStatus::Ok => out.samples += o.pairs.len() as u64,
            Ok(o) => {
                eprintln!("chaos client {cid} round {r}: status {}", o.status);
                out.errors += 1;
            }
            Err(e) => {
                eprintln!("chaos client {cid} round {r}: {e}");
                out.errors += 1;
            }
        }
    }
    // Final convergence check: the server must agree exactly with the
    // sole mutator's ledger once all ambiguity has been resolved.
    match probe_live(&mut client, dataset) {
        Some(live) if live == expected => {}
        Some(live) => {
            eprintln!("chaos client {cid}: final live {live} != ledger {expected}");
            out.lost += 1;
        }
        None => {
            eprintln!("chaos client {cid}: final EPOCH probe failed");
            out.errors += 1;
        }
    }
    out.retries = client.retries();
    out.busy = client.busy_answers();
    out
}

struct ChaosPhase {
    samples_per_sec: f64,
    samples: u64,
    retries: u64,
    busy: u64,
    errors: u64,
    lost: u64,
    shed: u64,
    rate_limited: u64,
    reaped: u64,
    /// `(pairs, draws, statistic, threshold, pass)` when the phase ran
    /// the chi-squared uniformity check.
    chi2: Option<(usize, u64, f64, f64, bool)>,
}

/// The `--chaos` soak (see USAGE). Runs the identical mutating
/// workload twice — faults off, then the seeded fault plan — and holds
/// the faulted run to the same correctness bar plus evidence that the
/// hardening machinery actually fired.
fn run_chaos(
    base_cfg: ClientConfig,
    clients: usize,
    requests: usize,
    t: u64,
    fault_seed: u64,
    out_path: &str,
) -> ! {
    let clients_n = clients.clamp(2, 8);
    let rounds = requests.max(40);
    let t = t.clamp(200, 2_000);
    // Aggressive retry posture: the soak's job is to converge through
    // faults, not to report them.
    let chaos_cfg = ClientConfig {
        retries: 20,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        ..base_cfg
    };

    let phase = |plan: FaultPlan, idle_timeout_ms: u64, shed_hw: usize| -> ChaosPhase {
        // Identical datasets per phase: one private dataset per client
        // (ids 1..=clients) plus the read-only chi-squared control.
        let mut registry = DatasetRegistry::new();
        for cid in 0..clients_n {
            let mut gen = PointGen::new(0xC4A0_5000 + cid as u64, 10_000.0);
            let r: Vec<Point> = (0..4_000).map(|_| gen.point()).collect();
            let s: Vec<Point> = (0..4_000).map(|_| gen.point()).collect();
            registry.register(cid as u64 + 1, r, s);
        }
        let (ctl_r, ctl_s) = control_points();
        registry.register(CTL_DATASET, ctl_r.clone(), ctl_s.clone());
        let faulted = plan.is_active();
        let config = ServerConfig {
            fault_plan: plan,
            idle_timeout: Duration::from_millis(idle_timeout_ms),
            shed_high_water: shed_hw,
            ..ServerConfig::default()
        };
        let mut server = Server::start("127.0.0.1:0", registry, config).expect("bind chaos server");
        let addr = server.local_addr().to_string();
        // A connection that speaks once and then goes quiet: under an
        // idle deadline the maintainer must reap it (srj_conn_reaped).
        let mut idle_client = Client::connect_with(addr.as_str(), chaos_cfg).ok();
        if let Some(c) = idle_client.as_mut() {
            let _ = c.ping();
        }
        let idle_since = Instant::now();

        let wall_start = Instant::now();
        let outcomes: Vec<ChaosOutcome> = std::thread::scope(|scope| {
            let addr = &addr;
            let handles: Vec<_> = (0..clients_n)
                .map(|cid| {
                    let cfg = ClientConfig {
                        jitter_seed: cid as u64 + 1,
                        ..chaos_cfg
                    };
                    scope.spawn(move || run_chaos_client(cid, addr, cfg, rounds, t))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = wall_start.elapsed();

        // Chi-squared uniformity of the sample stream *under faults*:
        // retries and reassembly must not bias which pairs come back.
        let chi2 = faulted.then(|| {
            let mut pair_index = std::collections::HashMap::new();
            for (ri, rp) in ctl_r.iter().enumerate() {
                let w = srj_geom::Rect::window(*rp, CTL_L);
                for (si, sp) in ctl_s.iter().enumerate() {
                    if w.contains(*sp) {
                        let k = pair_index.len();
                        pair_index.insert((ri as u32, si as u32), k);
                    }
                }
            }
            let j = pair_index.len();
            assert!(j > 20, "degenerate control join ({j} pairs)");
            let target = (60 * j as u64).clamp(20_000, 200_000);
            let mut counts = vec![0u64; j];
            let mut drawn = 0u64;
            let mut sound = true;
            let mut c = Client::connect_with(addr.as_str(), chaos_cfg).expect("chi2 client");
            for round in 0.. {
                if drawn >= target || round > 400 {
                    break;
                }
                let want = (target - drawn).min(2_000);
                match c.sample(SampleRequest {
                    req_id: 0,
                    dataset: CTL_DATASET,
                    l: CTL_L,
                    algorithm: None,
                    shards: 1,
                    t: want,
                    seed: 0xC210 + round,
                }) {
                    Ok(o) if o.status == RequestStatus::Ok => {
                        for p in &o.pairs {
                            match pair_index.get(&(p.r, p.s)) {
                                Some(&k) => counts[k] += 1,
                                // A pair outside the exact join is a
                                // correctness failure, not noise.
                                None => sound = false,
                            }
                        }
                        drawn += o.pairs.len() as u64;
                    }
                    _ => {
                        sound = false;
                        break;
                    }
                }
            }
            let e = drawn as f64 / j as f64;
            let stat: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - e;
                    d * d / e
                })
                .sum();
            let df = (j - 1) as f64;
            // ~6 sigma above the chi-squared mean: essentially never
            // trips on a uniform sampler, catches gross bias.
            let threshold = df + 6.0 * (2.0 * df).sqrt();
            (
                j,
                drawn,
                stat,
                threshold,
                sound && drawn >= target && stat <= threshold,
            )
        });

        // Give the maintainer room to reap the idle connection: the
        // acceptance bound is 2x the idle deadline.
        if idle_timeout_ms > 0 {
            let deadline = Duration::from_millis(idle_timeout_ms * 2);
            let since = idle_since.elapsed();
            if since < deadline {
                std::thread::sleep(deadline - since);
            }
            std::thread::sleep(Duration::from_millis(200));
        }
        let metrics = server.metrics_text();
        drop(idle_client);
        server.shutdown();

        ChaosPhase {
            samples_per_sec: outcomes.iter().map(|o| o.samples).sum::<u64>() as f64
                / wall.as_secs_f64().max(1e-9),
            samples: outcomes.iter().map(|o| o.samples).sum(),
            retries: outcomes.iter().map(|o| o.retries).sum(),
            busy: outcomes.iter().map(|o| o.busy).sum(),
            errors: outcomes.iter().map(|o| o.errors).sum(),
            lost: outcomes.iter().map(|o| o.lost).sum(),
            shed: metric_value(&metrics, "srj_requests_shed") as u64,
            rate_limited: metric_value(&metrics, "srj_rate_limited") as u64,
            reaped: metric_value(&metrics, "srj_conn_reaped") as u64,
            chi2,
        }
    };

    eprintln!(
        "# chaos: {clients_n} clients x {rounds} rounds x {t} samples, \
         faults off then on (seed {fault_seed})"
    );
    let off = phase(FaultPlan::inert(), 0, 0);
    eprintln!(
        "# faults off: {:.0} samples/s, {} errors",
        off.samples_per_sec, off.errors
    );
    let plan = FaultPlan {
        seed: fault_seed,
        delay_read_prob: 0.05,
        delay_read_ms: 2,
        partial_write_prob: 0.03,
        truncate_frame_prob: 0.015,
        drop_conn_prob: 0.015,
        busy_prob: 0.05,
        busy_retry_after_ms: 5,
    };
    let on = phase(plan, 300, 2);
    let ratio = on.samples_per_sec / off.samples_per_sec.max(1e-9);
    eprintln!(
        "# faults on: {:.0} samples/s (ratio {ratio:.2}), {} retries, {} busy, \
         {} shed, {} reaped, {} errors, {} lost",
        on.samples_per_sec, on.retries, on.busy, on.shed, on.reaped, on.errors, on.lost
    );

    let mut failures: Vec<String> = Vec::new();
    for (label, p) in [("faults_off", &off), ("faults_on", &on)] {
        if p.lost > 0 {
            failures.push(format!("{label}: {} lost mutations", p.lost));
        }
        if p.errors > 0 {
            failures.push(format!("{label}: {} unconverged operations", p.errors));
        }
        if p.samples == 0 {
            failures.push(format!("{label}: no samples delivered"));
        }
    }
    if ratio < 0.35 {
        failures.push(format!(
            "faulted throughput collapsed: ratio {ratio:.2} < 0.35"
        ));
    }
    if on.reaped == 0 {
        failures.push("no idle connection was reaped under the idle deadline".into());
    }
    if on.retries + on.busy == 0 {
        failures.push("fault plan produced zero retry/BUSY activity".into());
    }
    match on.chi2 {
        Some((_, _, stat, threshold, pass)) if !pass => {
            failures.push(format!(
                "chi-squared uniformity failed under faults: {stat:.1} > {threshold:.1} \
                 (or non-join pairs / short draw)"
            ));
        }
        None => failures.push("chi-squared check did not run".into()),
        _ => {}
    }

    let (chi_pairs, chi_draws, chi_stat, chi_threshold, chi_pass) =
        on.chi2.unwrap_or((0, 0, 0.0, 0.0, false));
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"pr\": 7,").unwrap();
    writeln!(json, "  \"host_cores\": {},", host_cores()).unwrap();
    writeln!(
        json,
        "  \"workload\": {{\"clients\": {clients_n}, \"rounds_per_client\": {rounds}, \
         \"t\": {t}, \"insert_batch\": 32, \"fault_seed\": {fault_seed}}},"
    )
    .unwrap();
    writeln!(
        json,
        "  \"fault_plan\": {{\"delay_read_prob\": {}, \"delay_read_ms\": {}, \
         \"partial_write_prob\": {}, \"truncate_frame_prob\": {}, \"drop_conn_prob\": {}, \
         \"busy_prob\": {}, \"busy_retry_after_ms\": {}}},",
        plan.delay_read_prob,
        plan.delay_read_ms,
        plan.partial_write_prob,
        plan.truncate_frame_prob,
        plan.drop_conn_prob,
        plan.busy_prob,
        plan.busy_retry_after_ms
    )
    .unwrap();
    for (label, p) in [("faults_off", &off), ("faults_on", &on)] {
        writeln!(
            json,
            "  \"{label}\": {{\"samples_per_sec\": {:.0}, \"samples\": {}, \"retries\": {}, \
             \"busy_answers\": {}, \"requests_shed\": {}, \"rate_limited\": {}, \
             \"conns_reaped\": {}, \"errors\": {}, \"lost_mutations\": {}}},",
            p.samples_per_sec,
            p.samples,
            p.retries,
            p.busy,
            p.shed,
            p.rate_limited,
            p.reaped,
            p.errors,
            p.lost
        )
        .unwrap();
    }
    writeln!(json, "  \"throughput_ratio\": {ratio:.4},").unwrap();
    writeln!(
        json,
        "  \"chi2\": {{\"pairs\": {chi_pairs}, \"draws\": {chi_draws}, \
         \"statistic\": {chi_stat:.2}, \"threshold\": {chi_threshold:.2}, \
         \"pass\": {chi_pass}}},"
    )
    .unwrap();
    writeln!(json, "  \"pass\": {}", failures.is_empty()).unwrap();
    writeln!(json, "}}").unwrap();
    print!("{json}");
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("warning: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {out_path}");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("chaos soak failed: {f}");
        }
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut clients: usize = 4;
    let mut requests: usize = 8;
    let mut t: u64 = 50_000;
    let mut dataset: u64 = 1;
    let mut l: f64 = 100.0;
    let mut algo_str = "auto".to_string();
    let mut shards: u32 = 1;
    let mut update_fraction: f64 = 0.0;
    let mut update_batch: usize = 256;
    let mut delete_heavy = false;
    let mut obs_bench = false;
    let mut chaos = false;
    let mut connections: usize = 0;
    let mut fault_seed: u64 = 7;
    let mut connect_timeout_ms: u64 = 5_000;
    let mut nodelay = true;
    let mut domain: f64 = 10_000.0;
    let mut out_path: Option<String> = None;
    let mut shutdown = false;

    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        let Some(v) = args.get(*i + 1) else {
            fail(&format!("{flag} requires a value"));
        };
        *i += 2;
        v.clone()
    };
    macro_rules! parse_flag {
        ($target:ident, $flag:literal, $what:literal) => {
            $target = value(&args, &mut i, $flag)
                .parse()
                .unwrap_or_else(|_| fail(concat!($flag, " takes ", $what)))
        };
    }
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = value(&args, &mut i, "--addr"),
            "--clients" => parse_flag!(clients, "--clients", "an integer"),
            "--requests" => parse_flag!(requests, "--requests", "an integer"),
            "--t" => parse_flag!(t, "--t", "an integer"),
            "--dataset" => parse_flag!(dataset, "--dataset", "an integer"),
            "--l" => parse_flag!(l, "--l", "a float"),
            "--algo" => algo_str = value(&args, &mut i, "--algo"),
            "--shards" => parse_flag!(shards, "--shards", "an integer"),
            "--update-fraction" => {
                parse_flag!(update_fraction, "--update-fraction", "a float")
            }
            "--update-batch" => parse_flag!(update_batch, "--update-batch", "an integer"),
            "--delete-heavy" => {
                delete_heavy = true;
                i += 1;
            }
            "--obs-bench" => {
                obs_bench = true;
                i += 1;
            }
            "--chaos" => {
                chaos = true;
                i += 1;
            }
            "--connections" => parse_flag!(connections, "--connections", "an integer"),
            "--fault-seed" => parse_flag!(fault_seed, "--fault-seed", "an integer"),
            "--connect-timeout-ms" => {
                parse_flag!(connect_timeout_ms, "--connect-timeout-ms", "an integer")
            }
            "--no-nodelay" => {
                nodelay = false;
                i += 1;
            }
            "--domain" => parse_flag!(domain, "--domain", "a float"),
            "--out" => out_path = Some(value(&args, &mut i, "--out")),
            "--shutdown" => {
                shutdown = true;
                i += 1;
            }
            "--help" | "-h" => fail("srj-loadgen"),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let algorithm = match algo_str.as_str() {
        "auto" => None,
        "kds" => Some(Algorithm::Kds),
        "kds-rejection" => Some(Algorithm::KdsRejection),
        "bbst" => Some(Algorithm::Bbst),
        other => fail(&format!("unknown algorithm {other:?}")),
    };
    if !(0.0..=1.0).contains(&update_fraction) {
        fail("--update-fraction takes a fraction in [0, 1]");
    }
    if delete_heavy && update_fraction > 0.0 {
        fail("--delete-heavy and --update-fraction are mutually exclusive");
    }
    if obs_bench && (delete_heavy || update_fraction > 0.0) {
        fail("--obs-bench runs a pure read workload (no updates)");
    }
    if chaos && (obs_bench || delete_heavy || update_fraction > 0.0) {
        fail("--chaos is its own workload (no --obs-bench/--delete-heavy/--update-fraction)");
    }
    if connections > 0 && (chaos || obs_bench || delete_heavy || update_fraction > 0.0) {
        fail("--connections runs its own high-fanout read workload (no other workload modes)");
    }
    let cfg = ClientConfig {
        connect_timeout: Duration::from_millis(connect_timeout_ms),
        nodelay,
        ..ClientConfig::default()
    };
    let out_path = out_path.unwrap_or_else(|| {
        if connections > 0 {
            "BENCH_PR10.json".to_string()
        } else if chaos {
            "BENCH_PR7.json".to_string()
        } else if obs_bench {
            "BENCH_PR8.json".to_string()
        } else if delete_heavy {
            "BENCH_PR5.json".to_string()
        } else {
            "BENCH_PR3.json".to_string()
        }
    });
    if chaos {
        run_chaos(cfg, clients, requests, t, fault_seed, &out_path);
    }
    if connections > 0 {
        run_connections_bench(
            cfg,
            connections,
            clients.max(1),
            requests,
            t,
            l,
            algorithm,
            &algo_str,
            shards,
            domain,
            &out_path,
        );
    }
    if obs_bench {
        run_obs_bench(
            cfg,
            clients.max(1),
            requests,
            t,
            l,
            algorithm,
            &algo_str,
            shards,
            domain,
            &out_path,
        );
    }
    let update_batch = update_batch.max(1);
    let clients_n = clients.max(1);
    // Every k-th operation is an update ⇒ update share ≈ 1/k.
    let update_every = if update_fraction > 0.0 {
        (1.0 / update_fraction).round().max(1.0) as usize
    } else {
        0
    };

    eprintln!(
        "# loadgen: {clients_n} clients x {requests} ops x {t} samples \
         (dataset {dataset}, l {l}, algo {algo_str}, shards {shards}, \
         update-fraction {update_fraction}, delete-heavy {delete_heavy}) -> {addr}"
    );
    let probes = update_every > 0 || delete_heavy;
    // Delete-heavy runs compare Σµ across the swap, so the serving
    // engine must exist (and register its Σµ) *before* the first
    // delete: warm it up with one tiny sample request.
    if delete_heavy {
        if let Ok(mut c) = Client::connect_with(addr.as_str(), cfg) {
            let _ = c.sample(SampleRequest {
                req_id: 0,
                dataset,
                l,
                algorithm,
                shards,
                t: 1,
                seed: 1,
            });
        }
    }
    // Epoch/stats probes only matter for the update-mode JSON
    // branches; pure-read runs must not pay the extra connections.
    let probe = |fold_first: bool| {
        Client::connect_with(addr.as_str(), cfg)
            .ok()
            .and_then(|mut c| {
                if fold_first {
                    // One read forces any still-pending delta to be folded
                    // in, so the probe reports a current swap.
                    let _ = c.sample(SampleRequest {
                        req_id: 0,
                        dataset,
                        l,
                        algorithm,
                        shards,
                        t: 1,
                        seed: 1,
                    });
                }
                let info = c.epoch(dataset).ok().map(|(_, info)| info)?;
                let stats = c.server_stats().ok()?;
                Some((info, stats))
            })
    };
    let before = probes.then(|| probe(false)).flatten();
    let wall_start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let addr = &addr;
        let handles: Vec<_> = (0..clients_n)
            .map(|cid| {
                scope.spawn(move || {
                    if delete_heavy {
                        run_delete_heavy_client(
                            cid,
                            addr,
                            cfg,
                            requests,
                            t,
                            dataset,
                            l,
                            algorithm,
                            shards,
                            update_batch,
                        )
                    } else {
                        run_client(
                            cid,
                            addr,
                            cfg,
                            requests,
                            t,
                            dataset,
                            l,
                            algorithm,
                            shards,
                            update_every,
                            update_batch,
                            domain,
                        )
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall_start.elapsed();
    let after = probes.then(|| probe(true)).flatten();
    let epoch_before = before.as_ref().map(|(info, _)| *info);
    let epoch_after = after.as_ref().map(|(info, _)| *info);

    let total_samples: u64 = outcomes.iter().map(|o| o.samples).sum();
    let errors: u64 = outcomes.iter().map(|o| o.errors).sum();
    let inserted: u64 = outcomes.iter().map(|o| o.inserted_points).sum();
    let deleted: u64 = outcomes.iter().map(|o| o.deleted_points).sum();
    let delete_frames: u64 = outcomes.iter().map(|o| o.delete_frames).sum();
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let mut update_latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.update_latencies_ns.iter().copied())
        .collect();
    update_latencies.sort_unstable();
    let samples_per_sec = total_samples as f64 / wall.as_secs_f64().max(1e-9);
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0
        } else {
            v.iter().sum::<u64>() / v.len() as u64
        }
    };
    let ns_to_ms = |ns: u64| ns as f64 / 1e6;

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    let pr = if delete_heavy {
        5
    } else if update_every > 0 {
        4
    } else {
        3
    };
    writeln!(json, "  \"pr\": {pr},").unwrap();
    writeln!(json, "  \"host_cores\": {},", host_cores()).unwrap();
    writeln!(
        json,
        "  \"workload\": {{\"clients\": {clients_n}, \"requests_per_client\": {requests}, \
         \"t\": {t}, \"dataset\": {dataset}, \"l\": {l}, \"algorithm\": \"{algo_str}\", \
         \"shards\": {shards}, \"update_fraction\": {update_fraction}, \
         \"update_batch\": {update_batch}}},"
    )
    .unwrap();
    writeln!(json, "  \"total_samples\": {total_samples},").unwrap();
    writeln!(json, "  \"errors\": {errors},").unwrap();
    writeln!(json, "  \"wall_s\": {:.4},", wall.as_secs_f64()).unwrap();
    writeln!(json, "  \"samples_per_sec\": {samples_per_sec:.0},").unwrap();
    if probes {
        writeln!(
            json,
            "  \"updates\": {{\"ops\": {}, \"inserted_points\": {inserted}, \
             \"deleted_points\": {deleted}, \"delete_frames\": {delete_frames}, \
             \"latency_ms\": {{\"mean\": {:.3}, \
             \"p50\": {:.3}, \"p99\": {:.3}}}}},",
            update_latencies.len(),
            ns_to_ms(mean(&update_latencies)),
            ns_to_ms(percentile_sorted(&update_latencies, 0.50)),
            ns_to_ms(percentile_sorted(&update_latencies, 0.99)),
        )
        .unwrap();
        let (e0, e1) = (
            epoch_before.map_or(0, |i| i.epoch),
            epoch_after.map_or(0, |i| i.epoch),
        );
        writeln!(
            json,
            "  \"epochs\": {{\"before\": {e0}, \"after\": {e1}, \"swaps\": {}, \
             \"pending_ops_after\": {}, \"last_swap_ms\": {:.3}}},",
            e1.saturating_sub(e0),
            epoch_after.map_or(0, |i| i.pending_ops),
            ns_to_ms(epoch_after.map_or(0, |i| i.last_swap_ns)),
        )
        .unwrap();
        // Cell-granular maintenance counters (the PR5 acceptance
        // signal): Σµ before/after and how much of the S-side each
        // swap actually rebuilt.
        if let (Some((_, sb)), Some((_, sa))) = (&before, &after) {
            writeln!(
                json,
                "  \"cell_maintenance\": {{\"mu_before\": {:.1}, \"mu_after\": {:.1}, \
                 \"patch_swaps\": {}, \"cells_patched\": {}, \"repairs\": {}, \
                 \"epoch_swap_cost_ms\": {:.3}}},",
                sb.mu_total,
                sa.mu_total,
                sa.patch_swaps.saturating_sub(sb.patch_swaps),
                sa.cells_patched.saturating_sub(sb.cells_patched),
                sa.repairs.saturating_sub(sb.repairs),
                ns_to_ms(sa.last_swap_ns),
            )
            .unwrap();
        }
    }
    writeln!(
        json,
        "  \"request_latency_ms\": {{\"mean\": {:.3}, \"p50\": {:.3}, \"p99\": {:.3}}}",
        ns_to_ms(mean(&latencies)),
        ns_to_ms(percentile_sorted(&latencies, 0.50)),
        ns_to_ms(percentile_sorted(&latencies, 0.99))
    )
    .unwrap();
    writeln!(json, "}}").unwrap();
    print!("{json}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("warning: could not write {out_path}: {e}");
    } else {
        eprintln!("# wrote {out_path}");
    }

    if shutdown {
        match Client::connect_with(addr.as_str(), cfg).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => eprintln!("# sent shutdown"),
            Err(e) => eprintln!("warning: shutdown request failed: {e}"),
        }
    }

    if errors > 0 || total_samples == 0 {
        std::process::exit(1);
    }
    if delete_heavy {
        // The whole point of the delete-heavy smoke: deletes must flow,
        // the tombstone threshold must fire, and the swap must shrink
        // Σµ (tombstone rejection alone never does).
        // Saturating: a failed after-probe reports 0 while the before
        // epoch may be positive.
        let swaps = epoch_after
            .map_or(0, |i| i.epoch)
            .saturating_sub(epoch_before.map_or(0, |i| i.epoch));
        if deleted == 0 {
            eprintln!("delete-heavy run deleted nothing");
            std::process::exit(1);
        }
        if swaps == 0 {
            eprintln!("delete-heavy run never crossed the tombstone rebuild threshold");
            std::process::exit(1);
        }
        match (&before, &after) {
            (Some((_, sb)), Some((_, sa))) if sa.mu_total < sb.mu_total => {}
            (Some((_, sb)), Some((_, sa))) => {
                eprintln!(
                    "delete-only swap did not shrink Σµ: {} -> {}",
                    sb.mu_total, sa.mu_total
                );
                std::process::exit(1);
            }
            _ => {
                eprintln!("delete-heavy run could not probe server stats");
                std::process::exit(1);
            }
        }
    }
}
