//! The traced run: spans recorded around calls into each layer's public
//! API, replayed over the probe set, plus the serve-path layers timed
//! from outside the server.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! are kept in memory and written out when the run ends. A span's self
//! time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use iot_sentinel::core::{persist, CandidateScratch, ServiceResponse, TypeId};
use iot_sentinel::editdist::dissimilarity_over;
use iot_sentinel::fingerprint::{Fingerprint, FixedScratch};
use iot_sentinel::pool::ComputePool;
use iot_sentinel::serve::wire::{self, Message, QueryResponse, ResponseItem};
use iot_sentinel::serve::SentinelClient;
use iot_sentinel::Sentinel;

use crate::service::client_config;
use crate::stats::median;

/// Per-probe reconciliation tolerance: the traced layers' summed self
/// times must lie within this share of the untraced `handle` time…
pub const RECONCILE_SHARE: f64 = 0.25;
/// …or within this many nanoseconds of it, whichever is looser (two
/// clock reads per span dominate on probes that take a few µs).
pub const RECONCILE_SLACK_NS: f64 = 2_000.0;
/// Share of probes that must reconcile for the run to count as correct.
/// Timings of one probe taken a fraction of a second apart differ by
/// up to a quarter on a shared two-core machine, so the per-probe rule
/// is a quorum and the totals carry the tight check.
pub const RECONCILE_QUORUM: f64 = 0.75;
/// Over the whole replay, the layers' summed time must lie within this
/// share of the summed untraced `handle` time, and the stage spans
/// (fill, stage one, stage two) within it of the summed `identify`.
pub const RECONCILE_TOTAL_SHARE: f64 = 0.10;

/// Probes identified untimed before the first sweep, so the first
/// timed sweep meets the same warm process as the later ones.
const WARMUP_PROBES: usize = 64;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `ml.stage_one`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The probe replay this span belongs to.
    pub request: u32,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u32) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now();
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(duration(span));
            }
        }
        own
    }

    /// Writes one tab-separated line per span: request, index, parent
    /// (-1 for a root), name, start and end in ns.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn duration(span: &Span) -> u64 {
    span.end_ns.saturating_sub(span.start_ns)
}

/// What the traced replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Probes replayed (whole passes over the probe set).
    pub probes: usize,
    /// Untraced `Sentinel::handle` time per probe, ns.
    pub handle_ns: Vec<f64>,
    /// Untraced `identify` time per probe, ns.
    pub identify_ns: Vec<f64>,
    /// Traced request (root span) duration per probe, ns.
    pub traced_ns: Vec<f64>,
    /// Summed durations of the layer spans under each request, ns.
    pub layers_ns: Vec<f64>,
    /// Accepting classifiers per probe.
    pub candidates: Vec<usize>,
    /// Edit-distance calls (candidates × references), summed.
    pub distance_calls: u64,
    /// Σ n·m over every distance call: the OSA cells computed.
    pub osa_cells: u64,
    /// Probes whose re-assembled ranking picked another type than
    /// `identify`, or whose traced answer differs from the oracle's.
    pub mismatches: u64,
    /// Distinct probes whose layer spans sum to their `handle` time
    /// within the tolerance, each side taken as the probe's median over
    /// the replay's passes.
    pub reconciled: usize,
    /// Self time per span name, ns, summed over all probes.
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Probes per sweep block: within a block, each variant (`identify`,
/// `handle`, traced layers) sweeps the same probes in the same order,
/// so every timed call follows the same predecessor and meets equally
/// warm caches and branch predictors, and the three timings of a probe
/// lie a fraction of a second apart.
const SWEEP_BLOCK: usize = 16;

/// Probes a replay pass covers at most: the first ones of the shuffled
/// probe set, so one pass stays within a few seconds on every workload.
pub const REPLAY_PROBES: usize = 512;

/// Replays `fingerprints` through the layers of `sentinel` under the
/// tracer until `budget_s` has passed, in whole passes over the probes
/// (at least one), and checks every traced answer.
pub fn replay(
    sentinel: &Sentinel,
    fingerprints: &[Fingerprint],
    expected: &[ServiceResponse],
    budget_s: f64,
    tracer: &mut Tracer,
) -> Replay {
    let mut layers = Layers {
        sentinel,
        fixed: FixedScratch::new(),
        candidates: CandidateScratch::new(),
        scores: Vec::new(),
    };
    let mut out = Replay::default();
    for fp in fingerprints.iter().take(WARMUP_PROBES) {
        std::hint::black_box(sentinel.handle(fp));
    }
    let start = Instant::now();
    let n = fingerprints.len();
    while out.probes == 0 || start.elapsed().as_secs_f64() < budget_s {
        let pass = out.probes / n.max(1);
        let mut handle_ns = vec![0.0; n];
        let mut identify_ns = vec![0.0; n];
        for block in (0..n).step_by(SWEEP_BLOCK) {
            let range = block..(block + SWEEP_BLOCK).min(n);
            let mut identified = Vec::with_capacity(SWEEP_BLOCK);
            for i in range.clone() {
                let t = Instant::now();
                let id = std::hint::black_box(sentinel.identifier().identify(&fingerprints[i]));
                identify_ns[i] = t.elapsed().as_nanos() as f64;
                identified.push(id.device_type());
            }
            let mut handled = Vec::with_capacity(SWEEP_BLOCK);
            for i in range.clone() {
                let t = Instant::now();
                handled.push(std::hint::black_box(sentinel.handle(&fingerprints[i])));
                handle_ns[i] = t.elapsed().as_nanos() as f64;
            }
            for (k, i) in range.enumerate() {
                let request = (pass * n + i) as u32;
                let traced = layers.run(&fingerprints[i], request, tracer, &mut out);
                if traced.device_type != identified[k]
                    || traced != expected[i]
                    || handled[k] != expected[i]
                {
                    out.mismatches += 1;
                }
            }
        }
        out.handle_ns.extend(handle_ns);
        out.identify_ns.extend(identify_ns);
    }
    out.reconciled = reconciled_probes(n, &out.handle_ns, &out.layers_ns);
    let own = tracer.self_times();
    for (span, self_ns) in tracer.spans().iter().zip(own) {
        *out.self_ns.entry(span.name).or_default() += self_ns;
    }
    out
}

/// The traced decomposition of `Sentinel::handle` into its layers'
/// public calls, with the scratch space those calls reuse.
struct Layers<'a> {
    sentinel: &'a Sentinel,
    fixed: FixedScratch,
    candidates: CandidateScratch,
    scores: Vec<(TypeId, f64)>,
}

impl Layers<'_> {
    /// Answers `fp` layer by layer under spans of request `request`,
    /// re-assembling the stage-two ranking from the distances, and
    /// records the counts and timings in `out`.
    fn run(
        &mut self,
        fp: &Fingerprint,
        request: u32,
        tracer: &mut Tracer,
        out: &mut Replay,
    ) -> ServiceResponse {
        let identifier = self.sentinel.identifier();
        let config = identifier.config();
        let root = tracer.open("core.handle", None, request);
        let span = tracer.open("fingerprint.fill", Some(root), request);
        let fx = self.fixed.fill(fp, config.fixed_prefix_len);
        tracer.close(span);
        let span = tracer.open("ml.stage_one", Some(root), request);
        identifier.classify_candidates_into(fx, &mut self.candidates);
        tracer.close(span);
        let accepted = self.candidates.candidates();
        let winner = match accepted.len() {
            0 => None,
            1 => Some(accepted[0]),
            _ => {
                let stage = tracer.open("editdist.stage_two", Some(root), request);
                self.scores.clear();
                for &id in accepted {
                    let references = identifier
                        .references(id)
                        .expect("every candidate has references");
                    let span = tracer.open("editdist.dissimilarity_over", Some(stage), request);
                    let score = dissimilarity_over(fp, references, config.distance);
                    tracer.close(span);
                    self.scores.push((id, score));
                    out.distance_calls += references.len() as u64;
                    out.osa_cells += references
                        .iter()
                        .map(|r| (fp.len() * r.len()) as u64)
                        .sum::<u64>();
                }
                // Stable ascending sort: ties go to the lower id, as in
                // the identifier's own ranking.
                self.scores
                    .sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                tracer.close(stage);
                Some(self.scores[0].0)
            }
        };
        let span = tracer.open("core.assess", Some(root), request);
        let isolation = self.sentinel.service().vulnerabilities().assess(winner);
        tracer.close(span);
        tracer.close(root);

        let layers_ns: u64 = tracer.spans()[root + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(duration)
            .sum();
        out.layers_ns.push(layers_ns as f64);
        out.traced_ns.push(duration(&tracer.spans()[root]) as f64);
        out.candidates.push(accepted.len());
        out.probes += 1;
        ServiceResponse {
            device_type: winner,
            isolation,
            needed_discrimination: accepted.len() > 1,
        }
    }
}

/// Counts the probes whose median layer sum lies within the stated
/// tolerance of their median `handle` time. Sample `k` belongs to probe
/// `k % probes`.
pub fn reconciled_probes(probes: usize, handle_ns: &[f64], layers_ns: &[f64]) -> usize {
    (0..probes)
        .filter(|&i| {
            let of_probe =
                |v: &[f64]| -> Vec<f64> { v.iter().skip(i).step_by(probes).copied().collect() };
            let (Some(handle), Some(layers)) =
                (median(&of_probe(handle_ns)), median(&of_probe(layers_ns)))
            else {
                return false;
            };
            (layers - handle).abs() <= (RECONCILE_SHARE * handle).max(RECONCILE_SLACK_NS)
        })
        .count()
}

/// Median ns of `reps` calls of `f`, each timed on its own.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Median hand-off of an empty task to `pool` and back, in µs.
pub fn pool_handoff_us(pool: &ComputePool, reps: usize) -> f64 {
    median_ns(reps, || {
        pool.run(|| ()).expect("an empty task cannot panic");
    }) / 1e3
}

/// Median ns to decode the workload's query frames (the server's
/// decode stage) and to encode their answers (its encode stage).
pub fn wire_codec_ns(frames: &[&[Fingerprint]], answers: &[&[ServiceResponse]]) -> (f64, f64) {
    let mut decode = Vec::with_capacity(frames.len());
    let mut encode = Vec::with_capacity(frames.len());
    let mut request = Vec::new();
    let mut response = Vec::new();
    for (frame, answer) in frames.iter().zip(answers) {
        request.clear();
        wire::encode_query_request_frame(false, frame, &mut request).expect("probe frame encodes");
        let t = Instant::now();
        let decoded = wire::decode_frame(&request, wire::DEFAULT_MAX_FRAME_BYTES);
        decode.push(t.elapsed().as_nanos() as f64);
        assert!(
            matches!(decoded, Ok((Message::QueryRequest(_), _))),
            "probe frame decodes as a query"
        );
        let message = Message::QueryResponse(QueryResponse {
            epoch: Some(1),
            items: answer
                .iter()
                .map(|&response| ResponseItem {
                    response,
                    name: None,
                })
                .collect(),
        });
        response.clear();
        let t = Instant::now();
        wire::encode_frame(&message, &mut response).expect("answer frame encodes");
        encode.push(t.elapsed().as_nanos() as f64);
    }
    (
        median(&encode).unwrap_or(0.0),
        median(&decode).unwrap_or(0.0),
    )
}

/// Median warm ping round trip, µs.
pub fn ping_us(addr: SocketAddr, reps: usize) -> Result<f64, String> {
    let mut client =
        SentinelClient::connect(addr, client_config()).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    let mut failed = None;
    let us = median_ns(reps, || {
        if let Err(e) = client.ping() {
            failed = Some(e.to_string());
        }
    }) / 1e3;
    failed.map_or(Ok(us), |e| Err(format!("ping: {e}")))
}

/// Median cost of a fresh connection, ms: connect plus first answer,
/// minus the median warm query on one connection.
pub fn connect_ms(addr: SocketAddr, probe: &Fingerprint, reps: usize) -> Result<f64, String> {
    let fail = |e: iot_sentinel::serve::ClientError| e.to_string();
    let mut warm = SentinelClient::connect(addr, client_config()).map_err(fail)?;
    warm.query(probe).map_err(fail)?;
    let mut warm_ms = Vec::with_capacity(reps);
    let mut fresh_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        warm.query(probe).map_err(fail)?;
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mut fresh = SentinelClient::connect(addr, client_config()).map_err(fail)?;
        fresh.query(probe).map_err(fail)?;
        fresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (Some(fresh), Some(warm)) = (median(&fresh_ms), median(&warm_ms)) else {
        return Err("no connections timed".to_string());
    };
    Ok(fresh - warm)
}

/// Median time to parse a model document and compile its bank, ms.
pub fn bank_build_ms(doc: &[u8], reps: usize) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let identifier = persist::read_identifier(doc).map_err(|e| format!("model: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        drop(std::hint::black_box(identifier));
    }
    median(&samples).ok_or_else(|| "no builds timed".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root", None, 0);
        let child = tracer.open("child", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(child);
        tracer.close(root);
        let own = tracer.self_times();
        let spans = tracer.spans();
        assert_eq!(own[child], duration(&spans[child]));
        assert_eq!(own[root], duration(&spans[root]) - duration(&spans[child]));
        assert!(own[child] >= 2_000_000);
    }

    #[test]
    fn reconciliation_takes_each_probe_median_over_passes() {
        // Two probes over three passes: probe 0's one outlier pass is
        // outvoted, probe 1's layers are twice its handle time.
        let handle = [
            100_000.0, 10_000.0, 100_000.0, 10_000.0, 100_000.0, 10_000.0,
        ];
        let layers = [101_000.0, 20_000.0, 500_000.0, 20_000.0, 99_000.0, 20_000.0];
        assert_eq!(reconciled_probes(2, &handle, &layers), 1);
        // Within the absolute slack, short probes reconcile.
        assert_eq!(reconciled_probes(1, &[3_000.0], &[4_500.0]), 1);
    }
}
