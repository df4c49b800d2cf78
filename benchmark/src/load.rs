//! Closed-loop load over loopback: each client thread sends its next
//! request only after the previous answer arrived, and checks every
//! answer against the in-process oracle.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use iot_sentinel::core::ServiceResponse;
use iot_sentinel::fingerprint::Fingerprint;
use iot_sentinel::serve::SentinelClient;

use crate::inputs::{derive_seed, SplitMix, Workload};
use crate::service::client_config;

/// Probes per query frame on the catalogue workload. A catalogue probe
/// takes tens of microseconds, about what waking an idle core costs a
/// shared virtual machine, and that cost drifts with the host's load.
/// Frames of 32 probes keep a pool worker computing for about 3 ms, so
/// the figures follow the service's work rather than the host's
/// wake-up latency. In one interleaved set of runs, frames of 16
/// still swung by a fifth.
const CATALOG_BATCH: usize = 32;
/// Probes per query frame on the organic workload.
const ORGANIC_BATCH: usize = 2;
/// Error messages kept for the log.
const ERRORS_KEPT: usize = 5;

/// Pause between admin reloads. A reload of the organic bank takes
/// about 0.4 s and comes every 2 s; the catalogue's takes 15-30 ms and
/// comes every 0.5 s. Either way a window's mean rests on several
/// reloads spread across it.
fn reload_every(workload: Workload) -> Duration {
    match workload {
        Workload::Catalog => Duration::from_millis(500),
        Workload::Organic => Duration::from_secs(2),
    }
}

/// What to drive and how long.
pub struct LoadPlan<'a> {
    /// The load shape.
    pub workload: Workload,
    /// The server.
    pub addr: SocketAddr,
    /// Probe fingerprints; each client walks them in a fresh seeded
    /// order on every pass.
    pub fingerprints: &'a [Fingerprint],
    /// The oracle's answer to each probe.
    pub expected: &'a [ServiceResponse],
    /// Measured window.
    pub window: Duration,
    /// Answered requests the window must reach before it may close
    /// (the window stretches up to three times its length for them).
    pub min_requests: usize,
    /// Model document for periodic reloads on the first client's
    /// connection; `None` sends none.
    pub reload_doc: Option<&'a [u8]>,
    /// Seed of the frame order.
    pub seed: u64,
}

/// What one window of load measured.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Send-to-answer time of every answered query frame, in ms.
    pub latencies_ms: Vec<f64>,
    /// When each of those frames was answered, in the same order.
    pub answered_at: Vec<Instant>,
    /// Query frames attempted.
    pub frames_attempted: u64,
    /// Query frames that failed, were refused or shed, or carried an
    /// answer different from the oracle's.
    pub frames_failed: u64,
    /// Probes answered differently from the oracle.
    pub mismatches: u64,
    /// Admin reload send-to-ack times, in ms.
    pub reload_ms: Vec<f64>,
    /// Reloads attempted.
    pub reloads_attempted: u64,
    /// Reloads refused or failed.
    pub reloads_failed: u64,
    /// Connections opened.
    pub connects: u64,
    /// Wall time of the window, in seconds.
    pub wall_s: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl LoadReport {
    /// Adds `other`'s samples and counts to this report, wall time
    /// included.
    pub fn merge(&mut self, other: LoadReport) {
        self.latencies_ms.extend(other.latencies_ms);
        self.answered_at.extend(other.answered_at);
        self.frames_attempted += other.frames_attempted;
        self.frames_failed += other.frames_failed;
        self.mismatches += other.mismatches;
        self.reload_ms.extend(other.reload_ms);
        self.reloads_attempted += other.reloads_attempted;
        self.reloads_failed += other.reloads_failed;
        self.connects += other.connects;
        self.wall_s += other.wall_s;
        for e in other.errors {
            self.note(e);
        }
    }

    /// The frame latencies ordered by when the frames were answered,
    /// across clients and merged windows.
    pub fn latencies_in_time_order(&self) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.latencies_ms.len()).collect();
        order.sort_by_key(|&i| self.answered_at[i]);
        order.into_iter().map(|i| self.latencies_ms[i]).collect()
    }

    fn note(&mut self, error: String) {
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(error);
        }
    }
}

/// Probes per query frame for `workload`.
pub fn batch_size(workload: Workload) -> usize {
    match workload {
        Workload::Catalog => CATALOG_BATCH,
        Workload::Organic => ORGANIC_BATCH,
    }
}

/// Client threads, each with one persistent connection. Two requests
/// in flight keep both pool workers busy: a frame runs on one worker
/// (the service splits only frames of more than 64 probes), and the
/// clients wait for their answers, so clients and pool together fit two
/// cores.
const CLIENTS: usize = 2;

/// Runs the workload's closed-loop clients against the server for the
/// plan's window and merges what they measured.
pub fn drive(plan: &LoadPlan<'_>) -> LoadReport {
    let answered = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS + 1);
    let (reports, wall_s) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                let (answered, barrier) = (&answered, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    run_client(plan, thread, start, answered)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let reports: Vec<LoadReport> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (reports, start.elapsed().as_secs_f64())
    });
    let mut total = LoadReport::default();
    for report in reports {
        total.merge(report);
    }
    total.wall_s = wall_s;
    total
}

fn run_client(
    plan: &LoadPlan<'_>,
    thread: usize,
    start: Instant,
    answered: &AtomicUsize,
) -> LoadReport {
    let mut report = LoadReport::default();
    let deadline = start + plan.window;
    let cap = start + plan.window * 3;
    let batch = batch_size(plan.workload);
    let mut order = FrameOrder::new(
        plan.fingerprints.len(),
        batch,
        derive_seed(plan.seed, "frames") ^ thread as u64,
    );
    let mut frame_buf: Vec<Fingerprint> = Vec::with_capacity(batch);
    let every = reload_every(plan.workload);
    let mut next_reload = start + every;
    let mut client: Option<SentinelClient> = None;
    loop {
        let now = Instant::now();
        if now >= deadline && (answered.load(Ordering::Relaxed) >= plan.min_requests || now >= cap)
        {
            break;
        }
        let connection = match &mut client {
            Some(c) => c,
            None => match SentinelClient::connect(plan.addr, client_config()) {
                Ok(c) => {
                    report.connects += 1;
                    client.insert(c)
                }
                Err(e) => {
                    report.frames_attempted += 1;
                    report.frames_failed += 1;
                    report.note(format!("connect: {e}"));
                    continue;
                }
            },
        };
        if let (Some(doc), 0) = (plan.reload_doc, thread) {
            if now >= next_reload {
                next_reload += every;
                let payload = doc.to_vec();
                report.reloads_attempted += 1;
                let sent = Instant::now();
                match connection.reload(payload) {
                    Ok(_) => report.reload_ms.push(ms_since(sent)),
                    Err(e) => {
                        report.reloads_failed += 1;
                        report.note(format!("reload: {e}"));
                        client = None;
                    }
                }
                continue;
            }
        }
        let probes = order.next();
        frame_buf.clear();
        frame_buf.extend(probes.iter().map(|&i| plan.fingerprints[i].clone()));
        report.frames_attempted += 1;
        let send = Instant::now();
        match connection.query_batch(&frame_buf) {
            Ok(results) => {
                let done = Instant::now();
                let latency = (done - send).as_secs_f64() * 1e3;
                let wrong = results
                    .iter()
                    .zip(probes)
                    .filter(|(got, &i)| got.response != plan.expected[i])
                    .count() as u64;
                report.mismatches += wrong;
                if wrong > 0 {
                    report.frames_failed += 1;
                    report.note(format!(
                        "{wrong} answers differ from the in-process service"
                    ));
                } else {
                    report.latencies_ms.push(latency);
                    report.answered_at.push(done);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => {
                report.frames_failed += 1;
                report.note(format!("query: {e}"));
                client = None;
            }
        }
    }
    report
}

/// A client's walk through the probes: a fresh seeded permutation on
/// every pass, cut into frames. Batched frames thus pair other probes on
/// each pass, and the frame-cost tail does not rest on a few fixed
/// pairings.
struct FrameOrder {
    order: Vec<usize>,
    next: usize,
    batch: usize,
    rng: SplitMix,
}

impl FrameOrder {
    fn new(probes: usize, batch: usize, seed: u64) -> Self {
        FrameOrder {
            order: (0..probes).collect(),
            next: probes,
            batch,
            rng: SplitMix::new(seed),
        }
    }

    /// The probe indices of the next frame.
    fn next(&mut self) -> &[usize] {
        if self.next + self.batch > self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += self.batch;
        &self.order[self.next - self.batch..self.next]
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
