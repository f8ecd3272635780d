//! End-to-end fault-tolerance tests over real loopback connections:
//! handshake rejection, idle-connection reaping, load shedding, rate
//! limiting, keepalives, and client retry semantics under an active
//! fault plan — each with its journal/metrics evidence.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use srj_geom::Point;
use srj_obs::journal::{journal, EventKind};
use srj_server::protocol::{
    decode_response, encode_request, read_frame, ErrorCode, Request, Response, SampleRequest,
    PROTOCOL_VERSION,
};
use srj_server::{
    Client, ClientConfig, ClientError, DatasetRegistry, FaultPlan, RequestStatus, Server,
    ServerConfig, Side,
};

/// Journal assertions are process-global and every test binds a
/// loopback server, so the tests in this binary do not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn registry_with(dataset: u64, n: usize) -> DatasetRegistry {
    let mut registry = DatasetRegistry::new();
    registry.register(
        dataset,
        pseudo_points(n, 11, 50.0),
        pseudo_points(n, 12, 50.0),
    );
    registry
}

/// Drives a raw (non-`Client`) connection: returns the decoded answer
/// to one written request frame.
fn raw_exchange(stream: &mut TcpStream, req: &Request) -> Response {
    stream.write_all(&encode_request(req)).unwrap();
    let payload = read_frame(stream).unwrap().expect("peer closed early");
    decode_response(&payload).unwrap()
}

#[test]
fn wrong_version_hello_is_rejected_cleanly() {
    let _serial = serial();
    // One worker: if rejected handshakes consumed worker slots, the
    // real request at the end could never be served.
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(1, 300), config).unwrap();
    let addr = server.local_addr();

    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let resp = raw_exchange(
            &mut stream,
            &Request::Hello {
                version: PROTOCOL_VERSION + 7,
                features: 0,
            },
        );
        match resp {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::VersionMismatch);
                assert!(
                    message.contains(&PROTOCOL_VERSION.to_string()),
                    "message should name the server version: {message:?}"
                );
            }
            other => panic!("expected ERROR, got {other:?}"),
        }
        // The server closes cleanly after the ERROR — no hang, no junk.
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    // A v0-style peer that never heard of HELLO gets the same clean
    // rejection for its first (non-HELLO) frame.
    let mut stream = TcpStream::connect(addr).unwrap();
    match raw_exchange(&mut stream, &Request::Stats) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::HandshakeRequired),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert!(read_frame(&mut stream).unwrap().is_none());

    // The lone worker is still free: a well-versioned client is served.
    let mut client = Client::connect(addr).unwrap();
    let outcome = client
        .sample(SampleRequest {
            req_id: 0,
            dataset: 1,
            l: 5.0,
            algorithm: None,
            shards: 1,
            t: 100,
            seed: 1,
        })
        .unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("srj_handshake_rejects_total 4"),
        "expected 4 handshake rejects in:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn idle_connection_is_reaped_and_journaled() {
    let _serial = serial();
    let idle = Duration::from_millis(200);
    let config = ServerConfig {
        idle_timeout: idle,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(2, 200), config).unwrap();
    let addr = server.local_addr();
    let seq_floor = journal().recent(1).first().map_or(0, |e| e.seq);

    // The victim: handshakes, then goes quiet.
    let _idle_client = Client::connect(addr).unwrap();
    let connected_at = Instant::now();

    // The observer polls METRICS (staying active itself) until the
    // victim is reaped — which must happen within 2x the idle deadline
    // (deadline + one maintainer sweep), plus scheduling margin.
    let mut scraper = Client::connect(addr).unwrap();
    let deadline = idle * 2 + Duration::from_millis(800);
    let reaped_at = loop {
        let text = scraper.metrics().unwrap();
        if text.lines().any(|l| {
            l.strip_prefix("srj_conn_reaped ")
                .is_some_and(|v| v.trim() != "0")
        }) {
            break connected_at.elapsed();
        }
        assert!(
            connected_at.elapsed() < deadline,
            "idle connection not reaped within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        reaped_at >= idle,
        "reaped after {reaped_at:?}, before the {idle:?} deadline"
    );

    let events = journal().recent(256);
    let reap = events
        .iter()
        .filter(|e| e.seq > seq_floor)
        .find(|e| e.kind == EventKind::ConnReaped)
        .expect("no ConnReaped journal event");
    assert!(
        reap.duration_ns >= idle.as_nanos() as u64,
        "reap recorded only {}ns idle",
        reap.duration_ns
    );
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "journal seq must be strictly monotone"
    );
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_samples_with_busy() {
    let _serial = serial();
    let config = ServerConfig {
        workers: 1,
        queue_frames: 4,
        shed_high_water: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(3, 400), config).unwrap();
    let addr = server.local_addr();
    let seq_floor = journal().recent(1).first().map_or(0, |e| e.seq);

    let mut stream = TcpStream::connect(addr).unwrap();
    match raw_exchange(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            features: 0,
        },
    ) {
        Response::Welcome { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected WELCOME, got {other:?}"),
    }

    // A huge request this connection does not read: its response queue
    // fills and the job parks, which marks the connection saturated.
    let big = Request::Sample(SampleRequest {
        req_id: 1,
        dataset: 3,
        l: 5.0,
        algorithm: None,
        shards: 1,
        t: 5_000_000,
        seed: 2,
    });
    stream.write_all(&encode_request(&big)).unwrap();
    // Wait until the connection is saturated *now*: the job is parked
    // on the full response queue and stays there. The first park can
    // come before the socket buffers fill — the event loop then drains
    // the queue into the socket, un-parks the job and the lone worker
    // runs it, and a SAMPLE decoded meanwhile finds nothing parked and
    // nothing queued, so it would be queued rather than shed. Every
    // re-run of the job ends in a fresh park, so a park counter that
    // has not moved for a quiet window means the job has sat parked
    // against a full socket for that whole window.
    let parks = || {
        server
            .metrics_text()
            .lines()
            .find_map(|l| l.strip_prefix("srj_backpressure_parks_total "))
            .map_or(0, |v| v.trim().parse::<u64>().unwrap())
    };
    const QUIET: Duration = Duration::from_millis(300);
    let started = Instant::now();
    let mut last = (parks(), Instant::now());
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = parks();
        if now != last.0 {
            last = (now, Instant::now());
        } else if now > 0 && last.1.elapsed() >= QUIET {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "sample job never stayed parked (parks = {now})"
        );
    }
    // The next SAMPLE on the saturated connection must be shed, not
    // queued behind megabytes of backlog.
    let second = Request::Sample(SampleRequest {
        req_id: 2,
        ..match big {
            Request::Sample(s) => s,
            _ => unreachable!(),
        }
    });
    stream.write_all(&encode_request(&second)).unwrap();

    // A SAMPLE queued instead of shed never yields a BUSY frame, and
    // the loop below would block once both streams ran dry: fail fast
    // instead of waiting for the idle reaper.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut saw_busy = None;
    for _ in 0..100_000 {
        let payload = read_frame(&mut stream)
            .expect("no frame within 10 s: the second SAMPLE was queued, not shed")
            .expect("closed early");
        match decode_response(&payload).unwrap() {
            Response::Busy {
                req_id,
                retry_after_ms,
            } => {
                saw_busy = Some((req_id, retry_after_ms));
                break;
            }
            _ => continue,
        }
    }
    let (req_id, retry_after_ms) = saw_busy.expect("saturated connection was never shed");
    assert_eq!(req_id, 2);
    assert!(retry_after_ms > 0);
    drop(stream);

    let shed = journal()
        .recent(256)
        .into_iter()
        .filter(|e| e.seq > seq_floor)
        .find(|e| e.kind == EventKind::LoadShed)
        .expect("no LoadShed journal event");
    assert_eq!(shed.dataset, Some(3));
    let metrics = server.metrics_text();
    assert!(
        metrics.lines().any(|l| l
            .strip_prefix("srj_requests_shed ")
            .is_some_and(|v| v.trim() != "0")),
        "srj_requests_shed not incremented:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn token_bucket_rate_limits_with_retry_hint() {
    let _serial = serial();
    let config = ServerConfig {
        rate_limit_rps: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(4, 100), config).unwrap();

    // No retries: the BUSY must surface, not be absorbed.
    let cfg = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), cfg).unwrap();
    client
        .server_stats()
        .expect("burst budget admits the first");
    match client.server_stats() {
        Err(ClientError::Busy { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected Busy, got {other:?}"),
    }
    // A client *with* retries rides the hint through transparently.
    let mut patient = Client::connect_with(
        server.local_addr(),
        ClientConfig {
            retries: 5,
            backoff_base: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    patient.server_stats().unwrap();
    patient.server_stats().unwrap();
    assert!(
        patient.busy_answers() > 0,
        "second call must have been limited"
    );
    let metrics = server.metrics_text();
    assert!(
        metrics.lines().any(|l| l
            .strip_prefix("srj_rate_limited ")
            .is_some_and(|v| v.trim() != "0")),
        "srj_rate_limited not incremented:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn ping_pong_keepalive() {
    let _serial = serial();
    let mut server =
        Server::start("127.0.0.1:0", registry_with(5, 50), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        client.ping().unwrap();
    }
    assert_ne!(client.server_features(), 0);
    server.shutdown();
}

#[test]
fn client_retries_through_forced_busy() {
    let _serial = serial();
    let config = ServerConfig {
        fault_plan: FaultPlan {
            seed: 3,
            busy_prob: 0.5,
            busy_retry_after_ms: 1,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(6, 300), config).unwrap();
    let cfg = ClientConfig {
        retries: 30,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), cfg).unwrap();
    for seed in 1..=8 {
        let outcome = client
            .sample(SampleRequest {
                req_id: 0,
                dataset: 6,
                l: 5.0,
                algorithm: None,
                shards: 1,
                t: 200,
                seed,
            })
            .unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok);
        assert_eq!(outcome.pairs.len(), 200);
    }
    assert!(
        client.busy_answers() > 0,
        "busy_prob 0.5 must have forced at least one BUSY"
    );
    server.shutdown();
}

#[test]
fn mutations_survive_dropped_connections_exactly_once() {
    let _serial = serial();
    const BATCH: usize = 8;
    let config = ServerConfig {
        fault_plan: FaultPlan {
            seed: 5,
            drop_conn_prob: 0.15,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(7, 500), config).unwrap();
    let cfg = ClientConfig {
        retries: 30,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), cfg).unwrap();
    let probe = |c: &mut Client| match c.epoch(7) {
        Ok((RequestStatus::Ok, info)) => info.live_s,
        other => panic!("EPOCH probe failed: {other:?}"),
    };
    let mut expected = probe(&mut client);

    let points = pseudo_points(BATCH, 99, 50.0);
    let mut ambiguous = 0u64;
    for _ in 0..25 {
        match client.insert(7, Side::S, &points) {
            Ok(o) => {
                assert_eq!(o.status, RequestStatus::Ok);
                expected += u64::from(o.applied);
            }
            // The client could not prove the retry safe; the ledger
            // resolves it — the mutation applied once or not at all,
            // never twice.
            Err(ClientError::AmbiguousMutation) => {
                ambiguous += 1;
                let live = probe(&mut client);
                assert!(
                    live == expected || live == expected + BATCH as u64,
                    "ambiguous insert must resolve to 0 or 1 applications: \
                     ledger {expected}, live {live}"
                );
                expected = live;
            }
            Err(e) => panic!("insert failed: {e}"),
        }
    }
    let live = probe(&mut client);
    assert_eq!(live, expected, "lost or doubled mutation");
    assert!(
        client.retries() > 0,
        "drop_conn_prob 0.15 must have forced at least one retry \
         ({ambiguous} ambiguous)"
    );
    server.shutdown();
}
