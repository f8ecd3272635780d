//! Closed-loop clients: each waits for its reply before sending the
//! next operation, checks what came back, and keeps one record per
//! operation.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use srj_core::JoinPair;
use srj_geom::{Point, Rect};
use srj_server::{Client, RequestStatus, SampleRequest, Side, TraceSpan};

use crate::report::Hist;
use crate::workload::{mix, Dataset, Workload, DATASET_ID, DOMAIN, UPDATE_BATCH};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    Sample,
    Insert,
    Delete,
}

/// One attempted operation, as the client saw it.
pub struct Op {
    pub kind: OpKind,
    /// Start, relative to the phase start.
    pub start_ns: u64,
    /// Client-observed latency (checks and trace fetches excluded).
    pub latency_ns: u64,
    /// Answered `Ok` with everything asked for.
    pub ok: bool,
    /// The client resent it at least once (after `BUSY` or a
    /// transport failure).
    pub retried: bool,
    pub samples: u64,
    pub iterations: u64,
    /// `RequestStats.elapsed_ns`: server time from dequeue to `DONE`.
    pub service_ns: u64,
    /// Server spans of this request (traced phases only).
    pub server_spans: Vec<TraceSpan>,
}

/// What a phase is asked to do besides issuing the workload's load.
pub struct PhaseOpts<'a> {
    pub w: &'a Workload,
    pub data: &'a Dataset,
    pub seed: u64,
    /// Distinguishes request seeds of different phases of one run.
    pub tag: u64,
    pub duration: Duration,
    /// Keep every [`Op`], not just the aggregates.
    pub keep_ops: bool,
    /// Fetch traced requests' spans with `Client::trace`, on a
    /// collector connection of its own.
    pub fetch_traces: bool,
    /// Sample `EpochInfo::last_swap_ns` after each mutation.
    pub record_swaps: bool,
}

/// A traced request whose spans the collector should fetch: (client,
/// index into that client's ops, trace id).
pub type TraceTicket = (usize, usize, u64);

/// The span collector: fetches the spans of every traced request on its
/// own connection while the load clients run, so their closed loops
/// never wait for a fetch.
pub fn collect_traces(
    mut client: Client,
    tickets: Receiver<TraceTicket>,
) -> Vec<(usize, usize, Vec<TraceSpan>)> {
    let mut out = Vec::new();
    while let Ok((client_id, op, trace_id)) = tickets.recv() {
        match client.trace(trace_id) {
            Ok(spans) => out.push((client_id, op, spans)),
            Err(e) => eprintln!("span collector: trace fetch failed: {e}"),
        }
    }
    out
}

/// Everything one client saw during a phase, aggregated in memory that
/// does not grow with the request count (unless `ops` are kept).
pub struct ClientLog {
    /// Every operation, kept only in traced phases.
    pub ops: Vec<Op>,
    keep_ops: bool,
    pub sample_lat: Hist,
    pub update_lat: Hist,
    pub attempted: u64,
    /// Operations that did not end `Ok` with everything asked for.
    pub failed: u64,
    /// Operations that failed or needed a retry.
    pub errors: u64,
    pub samples: u64,
    pub iterations: u64,
    /// Pairs outside their window or pointing past R/S.
    pub invalid_pairs: u64,
    /// SAMPLE answers with status `Ok` but not exactly `t` pairs.
    pub short_answers: u64,
    /// INSERTs answered `Ok` that applied fewer points than sent.
    pub insert_mismatches: u64,
    /// DELETEs that applied fewer ids than sent (a rebuild renumbered
    /// them between the epoch check and the delete).
    pub delete_shortfalls: u64,
    pub busy_answers: u64,
    pub retries: u64,
    /// Completion time of the last operation, from the phase start.
    pub end_ns: u64,
    /// `EpochInfo::last_swap_ns` after each mutation.
    pub swap_ns: Vec<u64>,
    /// The client's first SAMPLE request and its pairs (for the replay
    /// check).
    pub first: Option<(SampleRequest, Vec<JoinPair>)>,
}

impl ClientLog {
    pub fn new(keep_ops: bool) -> ClientLog {
        ClientLog {
            ops: Vec::new(),
            keep_ops,
            sample_lat: Hist::default(),
            update_lat: Hist::default(),
            attempted: 0,
            failed: 0,
            errors: 0,
            samples: 0,
            iterations: 0,
            invalid_pairs: 0,
            short_answers: 0,
            insert_mismatches: 0,
            delete_shortfalls: 0,
            busy_answers: 0,
            retries: 0,
            end_ns: 0,
            swap_ns: Vec::new(),
            first: None,
        }
    }

    fn record(&mut self, op: Op) {
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
        self.errors += u64::from(!op.ok || op.retried);
        self.end_ns = self.end_ns.max(op.start_ns + op.latency_ns);
        let hist = match op.kind {
            OpKind::Sample => &mut self.sample_lat,
            OpKind::Insert | OpKind::Delete => &mut self.update_lat,
        };
        if op.ok {
            hist.record(op.latency_ns);
        } else {
            hist.record_failed();
        }
        if op.kind == OpKind::Sample {
            self.samples += op.samples;
            self.iterations += op.iterations;
        }
        if self.keep_ops {
            self.ops.push(op);
        }
    }

    /// Delivered samples per wall-clock second, from the phase start to
    /// the last completion: every stall of the phase counts.
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / (self.end_ns.max(1) as f64 / 1e9)
    }

    /// Folds `other`'s aggregates into this log (the op lists and the
    /// replay request are not merged).
    pub fn merge(&mut self, other: &ClientLog) {
        self.sample_lat.merge(&other.sample_lat);
        self.update_lat.merge(&other.update_lat);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors += other.errors;
        self.samples += other.samples;
        self.iterations += other.iterations;
        self.invalid_pairs += other.invalid_pairs;
        self.short_answers += other.short_answers;
        self.insert_mismatches += other.insert_mismatches;
        self.delete_shortfalls += other.delete_shortfalls;
        self.busy_answers += other.busy_answers;
        self.retries += other.retries;
        self.end_ns = self.end_ns.max(other.end_ns);
        self.swap_ns.extend_from_slice(&other.swap_ns);
    }
}

/// Ids one client inserted into one side, with the epoch they are
/// valid in (a rebuild renumbers ids).
#[derive(Default)]
struct Bank {
    epoch: u64,
    ids: Vec<u32>,
}

/// A client with its private state: update cycle, id banks, point
/// generator.
pub struct LoadClient {
    client: Client,
    id: usize,
    /// Operations sent so far, across phases: numbers each request's
    /// seed and shape.
    ops: u64,
    updates: u64,
    banks: [Bank; 2],
    rng: u64,
}

impl LoadClient {
    pub fn new(client: Client, id: usize, seed: u64) -> LoadClient {
        LoadClient {
            client,
            id,
            ops: 0,
            updates: 0,
            banks: [Bank::default(), Bank::default()],
            rng: mix(seed ^ 0xD1CE_0000 ^ id as u64),
        }
    }

    fn point(&mut self) -> Point {
        self.rng = mix(self.rng);
        let x = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        self.rng = mix(self.rng);
        let y = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        Point::new(x * DOMAIN, y * DOMAIN)
    }

    fn request(&self, o: &PhaseOpts, op: u64) -> SampleRequest {
        SampleRequest {
            req_id: 0,
            dataset: DATASET_ID,
            l: o.w.l_for(self.id, op),
            algorithm: None,
            shards: 1,
            t: o.w.t,
            // Nonzero: the server draws seed 0 from entropy.
            seed: mix(o.seed ^ (o.tag << 56) ^ ((self.id as u64) << 40) ^ op) | 1,
        }
    }

    /// Runs the phase's closed loop until its deadline, handing traced
    /// requests to `traces`.
    pub fn run_phase(
        &mut self,
        o: &PhaseOpts,
        barrier: &Barrier,
        traces: Option<Sender<TraceTicket>>,
    ) -> ClientLog {
        let mut log = ClientLog::new(o.keep_ops);
        let (busy0, retries0) = (self.client.busy_answers(), self.client.retries());
        barrier.wait();
        let start = Instant::now();
        while start.elapsed() < o.duration {
            let op = self.ops;
            self.ops += 1;
            let is_update =
                o.w.update_every > 0 && (op + 1).is_multiple_of(o.w.update_every as u64);
            if is_update {
                self.update(start, o.record_swaps, &mut log);
            } else {
                let req = self.request(o, op);
                self.sample(req, start, o, traces.as_ref(), &mut log);
            }
        }
        log.busy_answers = self.client.busy_answers() - busy0;
        log.retries = self.client.retries() - retries0;
        log
    }

    fn sample(
        &mut self,
        req: SampleRequest,
        phase: Instant,
        o: &PhaseOpts,
        traces: Option<&Sender<TraceTicket>>,
        log: &mut ClientLog,
    ) {
        let retries0 = self.client.retries();
        let begin = Instant::now();
        let result = self.client.sample(req);
        let latency = begin.elapsed();
        let mut record = Op {
            kind: OpKind::Sample,
            start_ns: (begin - phase).as_nanos() as u64,
            latency_ns: latency.as_nanos() as u64,
            ok: false,
            retried: self.client.retries() > retries0,
            samples: 0,
            iterations: 0,
            service_ns: 0,
            server_spans: Vec::new(),
        };
        match result {
            Ok(out) => {
                record.samples = out.pairs.len() as u64;
                record.iterations = out.stats.iterations;
                record.service_ns = out.stats.elapsed_ns;
                let complete = out.pairs.len() as u64 == req.t;
                record.ok = out.status == RequestStatus::Ok && complete;
                if out.status == RequestStatus::Ok && !complete {
                    log.short_answers += 1;
                }
                if o.w.read_only() {
                    log.invalid_pairs += invalid_pairs(o.data, req.l, &out.pairs);
                }
                if let Some(tx) = traces.filter(|_| log.keep_ops && out.stats.trace_id != 0) {
                    // Cannot fail: the collector outlives every client.
                    let _ = tx.send((self.id, log.ops.len(), out.stats.trace_id));
                }
                if log.first.is_none() {
                    log.first = Some((req, out.pairs));
                }
            }
            Err(e) => eprintln!("client {}: sample failed: {e}", self.id),
        }
        log.record(record);
    }

    /// One mutation of the update cycle: insert R, insert S, delete R,
    /// delete S. A delete sends the ids this client inserted into that
    /// side; if a rebuild has renumbered them meanwhile it inserts a
    /// fresh batch instead.
    fn update(&mut self, phase: Instant, record_swaps: bool, log: &mut ClientLog) {
        let u = self.updates;
        self.updates += 1;
        let (side, slot) = if u.is_multiple_of(2) {
            (Side::R, 0)
        } else {
            (Side::S, 1)
        };
        let mut delete = (u / 2) % 2 == 1 && !self.banks[slot].ids.is_empty();
        if delete {
            // Outside the timed span: confirm the banked ids still
            // address the points this client inserted.
            match self.client.epoch(DATASET_ID) {
                Ok((RequestStatus::Ok, info)) if info.epoch == self.banks[slot].epoch => {}
                _ => delete = false,
            }
        }
        let points: Vec<Point> = if delete {
            Vec::new()
        } else {
            (0..UPDATE_BATCH).map(|_| self.point()).collect()
        };
        let ids = std::mem::take(&mut self.banks[slot].ids);
        let retries0 = self.client.retries();
        let begin = Instant::now();
        let result = if delete {
            self.client.delete(DATASET_ID, side, &ids)
        } else {
            self.client.insert(DATASET_ID, side, &points)
        };
        let latency = begin.elapsed();
        let mut record = Op {
            kind: if delete {
                OpKind::Delete
            } else {
                OpKind::Insert
            },
            start_ns: (begin - phase).as_nanos() as u64,
            latency_ns: latency.as_nanos() as u64,
            ok: false,
            retried: self.client.retries() > retries0,
            samples: 0,
            iterations: 0,
            service_ns: 0,
            server_spans: Vec::new(),
        };
        match result {
            Ok(out) => {
                let sent = if delete { ids.len() } else { points.len() };
                record.ok = out.status == RequestStatus::Ok;
                if out.applied as usize != sent {
                    if delete {
                        log.delete_shortfalls += 1;
                    } else if record.ok {
                        log.insert_mismatches += 1;
                    }
                }
                if !delete && record.ok {
                    self.banks[slot] = Bank {
                        epoch: out.epoch,
                        ids: (out.first_id..out.first_id + out.applied).collect(),
                    };
                }
                if record_swaps {
                    if let Ok((RequestStatus::Ok, info)) = self.client.epoch(DATASET_ID) {
                        log.swap_ns.push(info.last_swap_ns);
                    }
                }
            }
            Err(e) => eprintln!("client {}: mutation failed: {e}", self.id),
        }
        log.record(record);
    }
}

/// Pairs that break `|r − s|∞ ≤ l` or name a point outside R/S.
fn invalid_pairs(data: &Dataset, l: f64, pairs: &[JoinPair]) -> u64 {
    pairs
        .iter()
        .filter(
            |p| match (data.r.get(p.r as usize), data.s.get(p.s as usize)) {
                (Some(&r), Some(&s)) => !Rect::window(r, l).contains(s),
                _ => true,
            },
        )
        .count() as u64
}
