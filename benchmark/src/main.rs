//! The IoT Sentinel benchmark: self-hosts the identification service on
//! loopback, drives one of three closed-loop workloads from this
//! process, checks every answer against the in-process service, and
//! prints each metric by name and unit. With `--trace 1` it instead
//! replays the probes under spans around each layer's public API and
//! prints per-layer metrics. See `README.md` for the metric catalogue.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload catalog --seed 1 --seconds 36 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod inputs;
mod load;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use iot_sentinel::core::ServiceResponse;
use iot_sentinel::fingerprint::Fingerprint;
use iot_sentinel::serve::{Counter, MetricsSnapshot, SentinelClient, Stage};

use inputs::{Inputs, Workload};
use load::{batch_size, LoadPlan, LoadReport};
use service::{client_config, Served};
use stats::{block_percentile, mean, median, samples_needed, tail_percentile};

/// Repetitions in an untraced run. Each trains and serves the model
/// afresh, then drives the workload for its share of `--seconds`. Thread
/// placement and client phase settle differently for every fresh
/// server, and latency can shift by half between two of them, so the
/// metrics pool the samples of all repetitions; `setup_s` is the
/// median of their set-ups.
const REPS: usize = 4;
/// Warm-up before the measured window, so lazily grown buffers and
/// per-thread scratches exist before timing starts.
const WARMUP: Duration = Duration::from_millis(1000);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds
                .filter(|s| *s > 0)
                .ok_or("--seconds > 0 is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The metrics of one run, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finished run: the result line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sentinel-benchmark --workload catalog|organic --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        measured_run(&args)
    };
    match outcome {
        Ok(outcome) => {
            for (name, value, unit) in &outcome.metrics.0 {
                println!("{name:<28} {value:>16.6} {unit}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                outcome.metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The generated inputs, plus the probe fingerprints as one slice.
struct Prepared {
    inputs: Inputs,
    fingerprints: Vec<Fingerprint>,
}

fn prepare(args: &Args) -> Prepared {
    let inputs = Inputs::generate(args.workload, args.seed);
    println!(
        "workload {} seed {} inputs digest {:016x}: {} training samples of {} types, \
         {} probes ({} unlearned types); simulated in {:.2} s",
        args.workload.name(),
        args.seed,
        inputs.digest,
        inputs.train.len(),
        inputs.learned_types,
        inputs.probes.len(),
        inputs.heldout_types,
        inputs.prep_s
    );
    let fingerprints = inputs
        .probes
        .iter()
        .map(|p| p.fingerprint.clone())
        .collect();
    Prepared {
        inputs,
        fingerprints,
    }
}

/// Prints the bank's shape and refuses banks that fold into replicas.
fn bank_report(served: &Served, accuracy: f64) -> Result<(), String> {
    let stats = served.sentinel.bank_stats();
    println!(
        "bank: forests {} cluster_groups {} arena_bytes {} quantized_forests {} accuracy {:.4} \
         compute_threads {}",
        stats.forests,
        stats.cluster_groups,
        stats.arena_bytes,
        stats.quantized_forests,
        accuracy,
        service::pool_threads()
    );
    service::check_bank(&stats)
}

fn plan<'a>(
    args: &Args,
    served: &Served,
    prepared: &'a Prepared,
    expected: &'a [ServiceResponse],
    window: Duration,
    min_requests: usize,
    reload_doc: Option<&'a [u8]>,
) -> LoadPlan<'a> {
    LoadPlan {
        workload: args.workload,
        addr: served.addr(),
        fingerprints: &prepared.fingerprints,
        expected,
        window,
        min_requests,
        reload_doc,
        seed: args.seed,
    }
}

fn log_load(label: &str, load: &LoadReport) {
    println!(
        "{label}: {} frames ({} failed, {} answers mismatched), {} connects, {} reloads \
         ({} failed) in {:.2} s",
        load.frames_attempted,
        load.frames_failed,
        load.mismatches,
        load.connects,
        load.reloads_attempted,
        load.reloads_failed,
        load.wall_s
    );
    for e in &load.errors {
        println!("  error: {e}");
    }
}

/// The in-process facts every repetition is checked against, taken from
/// the first set-up: training is deterministic, so every set-up serves
/// the same model.
struct Reference {
    expected: Vec<ServiceResponse>,
    accuracy: f64,
    doc: Vec<u8>,
    peak_rss_mb: f64,
}

fn measured_run(args: &Args) -> Result<Outcome, String> {
    let prepared = prepare(args);
    let window = Duration::from_secs_f64(args.seconds as f64 / REPS as f64);
    // Each window stretches until it holds its share of the frames a p99
    // needs, so the pooled samples always support one.
    let min_requests = samples_needed(0.99).div_ceil(REPS);
    let mut reference: Option<Reference> = None;
    let mut setups = Vec::with_capacity(REPS);
    let mut pooled = LoadReport::default();
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    for rep in 0..REPS {
        let (served, setup_s) = service::set_up(&prepared.inputs.train)?;
        setups.push(setup_s);
        let reference = match &mut reference {
            Some(reference) => reference,
            None => {
                let expected = service::oracle(&served.sentinel, &prepared.inputs.probes);
                let accuracy =
                    service::accuracy(&served.sentinel, &prepared.inputs.probes, &expected);
                bank_report(&served, accuracy)?;
                let doc = service::model_document(&served.sentinel)?;
                // The high-water mark of set-up: training, bank, oracle
                // and model document. The load windows are left out: how
                // a reload's parse overlaps the client's copies of the
                // model document is timing luck (±60 MB on organic).
                let peak_rss_mb = peak_rss_mb()?;
                reference.insert(Reference {
                    expected,
                    accuracy,
                    doc,
                    peak_rss_mb,
                })
            }
        };
        let expected = &reference.expected;
        let warm = load::drive(&plan(args, &served, &prepared, expected, WARMUP, 0, None));
        let load = load::drive(&plan(
            args,
            &served,
            &prepared,
            expected,
            window,
            min_requests,
            Some(&reference.doc),
        ));
        served.server.shutdown();
        log_load(&format!("set-up {rep} ({setup_s:.3} s), warm-up"), &warm);
        log_load(&format!("set-up {rep}, measured"), &load);
        println!(
            "  p50 {:.4} ms, reload {:.1} ms",
            median(&load.latencies_ms).unwrap_or(f64::NAN),
            mean(&load.reload_ms).unwrap_or(f64::NAN),
        );
        attempted += warm.frames_attempted + load.frames_attempted + load.reloads_attempted;
        failed += warm.frames_failed + load.frames_failed + load.reloads_failed;
        mismatches += warm.mismatches + load.mismatches;
        pooled.merge(load);
    }
    let reference = reference.expect("at least one set-up");
    println!(
        "pooled: {} answered frames, {} reloads; p99 is the median over {} blocks of {}+ \
         consecutive frames, each with {}+ beyond its p99",
        pooled.latencies_ms.len(),
        pooled.reload_ms.len(),
        pooled.latencies_ms.len() / samples_needed(0.99),
        samples_needed(0.99),
        stats::MIN_TAIL_SAMPLES
    );
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("error_rate {error_rate}");
    let mut metrics = Metrics::default();
    let mut complete = true;
    let mut put = |name, value: Option<f64>, unit| {
        complete &= value.is_some();
        metrics.put(name, value.unwrap_or(f64::NAN), unit);
    };
    let frames = pooled.latencies_ms.len() as f64;
    put(
        "ident_per_s",
        Some(frames * batch_size(args.workload) as f64 / pooled.wall_s),
        "1/s",
    );
    put(
        "latency_p50_ms",
        tail_percentile(&pooled.latencies_ms, 0.5),
        "ms",
    );
    put(
        "latency_p99_ms",
        block_percentile(&pooled.latencies_in_time_order(), 0.99),
        "ms",
    );
    put("success_rate", Some(1.0 - error_rate), "ratio");
    put("accuracy", Some(reference.accuracy), "ratio");
    // Reload times flip between host speed modes; a mean over reloads
    // spread across the windows averages the modes, where a median
    // jumps between them.
    put("reload_ms", mean(&pooled.reload_ms), "ms");
    put("peak_rss_mb", Some(reference.peak_rss_mb), "MB");
    put("setup_s", median(&setups), "s");
    if !complete {
        println!("too few samples for a p99, or no reload answered");
    }
    Ok(Outcome {
        correct: failed == 0 && mismatches == 0 && complete,
        attempted,
        failed,
        metrics,
    })
}

/// The high-water mark of this process's resident memory, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn server_stats(served: &Served) -> Result<MetricsSnapshot, String> {
    SentinelClient::connect(served.addr(), client_config())
        .and_then(|mut c| c.server_stats())
        .map_err(|e| format!("stats: {e}"))
}

fn traced_run(args: &Args) -> Result<Outcome, String> {
    let prepared = prepare(args);
    let (served, _) = service::set_up(&prepared.inputs.train)?;
    let expected = service::oracle(&served.sentinel, &prepared.inputs.probes);
    let accuracy = service::accuracy(&served.sentinel, &prepared.inputs.probes, &expected);
    bank_report(&served, accuracy)?;
    let doc = service::model_document(&served.sentinel)?;
    let third = Duration::from_secs_f64(args.seconds as f64 / 3.0);

    // The serve path, read through the server's own timers.
    let warm = load::drive(&plan(args, &served, &prepared, &expected, WARMUP, 0, None));
    let before = server_stats(&served)?;
    let load = load::drive(&plan(
        args,
        &served,
        &prepared,
        &expected,
        third,
        0,
        Some(&doc),
    ));
    log_load("wire phase", &load);
    let after = server_stats(&served)?;
    let frames =
        (after.counter(Counter::QueryFrames) - before.counter(Counter::QueryFrames)).max(1) as f64;
    let stage_p50_us = |stage| {
        after
            .stage(stage)
            .map_or(f64::NAN, |s| s.p50_ns as f64 / 1e3)
    };
    // Client time per frame beyond the server's own frame timer: mean
    // minus mean, since the server's percentiles are bucketed.
    let frame_sum = |s: &MetricsSnapshot| s.stage(Stage::Frame).map_or(0, |h| h.sum_ns);
    let server_frame_us = (frame_sum(&after) - frame_sum(&before)) as f64 / 1e3 / frames;
    let outside_us = mean(&load.latencies_ms).unwrap_or(f64::NAN) * 1e3 - server_frame_us;

    // The in-process layers, under spans.
    let mut tracer = trace::Tracer::new();
    let replayed = prepared.fingerprints.len().min(trace::REPLAY_PROBES);
    let replay = trace::replay(
        &served.sentinel,
        &prepared.fingerprints[..replayed],
        &expected[..replayed],
        third.as_secs_f64(),
        &mut tracer,
    );
    let trace_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-{}.tsv", args.workload.name(), args.seed));
    tracer
        .write(&trace_file)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    println!(
        "traced replay: {} probes, {} spans written to {}",
        replay.probes,
        tracer.spans().len(),
        trace_file.display()
    );

    // Layers timed from outside the server.
    let pool = served.server.cell().pool();
    let handoff_us = trace::pool_handoff_us(pool, 2000);
    let batch = batch_size(args.workload);
    let frames_of: Vec<&[Fingerprint]> = prepared
        .fingerprints
        .chunks_exact(batch)
        .take(256)
        .collect();
    let answers_of: Vec<&[ServiceResponse]> = expected.chunks_exact(batch).take(256).collect();
    let (encode_ns, decode_ns) = trace::wire_codec_ns(&frames_of, &answers_of);
    let ping_us = trace::ping_us(served.addr(), 500)?;
    let connect_ms = trace::connect_ms(served.addr(), &prepared.fingerprints[0], 10)?;
    let bank_build_ms = trace::bank_build_ms(&doc, 3)?;
    let stats = served.sentinel.bank_stats();
    served.server.shutdown();

    let probes = replay.probes as f64;
    let per_probe = |name: &str| replay.self_ns.get(name).copied().unwrap_or(0) as f64 / probes;
    let stage_two_ns = per_probe("editdist.stage_two") + per_probe("editdist.dissimilarity_over");
    let handle_ns = mean(&replay.handle_ns).unwrap_or(f64::NAN);
    let layers_ns = per_probe("fingerprint.fill")
        + per_probe("ml.stage_one")
        + stage_two_ns
        + per_probe("core.assess");
    let identify_ns = mean(&replay.identify_ns).unwrap_or(f64::NAN);
    let stages_ns = layers_ns - per_probe("core.assess");
    let reconciled_share = replay.reconciled as f64 / replayed as f64;
    let totals_agree = (layers_ns - handle_ns).abs() <= trace::RECONCILE_TOTAL_SHARE * handle_ns
        && (stages_ns - identify_ns).abs() <= trace::RECONCILE_TOTAL_SHARE * identify_ns;
    println!(
        "reconciliation: layers {layers_ns:.0} ns vs handle {handle_ns:.0} ns, stages \
         {stages_ns:.0} ns vs identify {identify_ns:.0} ns per probe (tolerance {:.0}%): {}; \
         {:.1}% of probes within {:.0}% or {:.0} ns of handle (quorum {:.0}%)",
        trace::RECONCILE_TOTAL_SHARE * 100.0,
        if totals_agree { "agree" } else { "DISAGREE" },
        reconciled_share * 100.0,
        trace::RECONCILE_SHARE * 100.0,
        trace::RECONCILE_SLACK_NS,
        trace::RECONCILE_QUORUM * 100.0
    );
    let share_with = |keep: &dyn Fn(usize) -> bool| {
        replay.candidates.iter().filter(|&&c| keep(c)).count() as f64 / probes
    };
    let mut histogram = std::collections::BTreeMap::new();
    for &c in &replay.candidates[..replayed] {
        *histogram.entry(c).or_insert(0usize) += 1;
    }
    println!("candidates per probe (count: probes): {histogram:?}");

    let mut m = Metrics::default();
    m.put("fingerprint.fill_ns", per_probe("fingerprint.fill"), "ns");
    m.put("ml.stage_one_ns", per_probe("ml.stage_one"), "ns");
    m.put(
        "ml.candidates_per_probe",
        mean(
            &replay
                .candidates
                .iter()
                .map(|&c| c as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        "count",
    );
    m.put("ml.candidates_0", share_with(&|c| c == 0), "ratio");
    m.put("ml.candidates_1", share_with(&|c| c == 1), "ratio");
    m.put(
        "ml.candidates_2_3",
        share_with(&|c| (2..4).contains(&c)),
        "ratio",
    );
    m.put(
        "ml.candidates_4_15",
        share_with(&|c| (4..16).contains(&c)),
        "ratio",
    );
    m.put(
        "ml.candidates_16_63",
        share_with(&|c| (16..64).contains(&c)),
        "ratio",
    );
    m.put("ml.candidates_64_up", share_with(&|c| c >= 64), "ratio");
    m.put("ml.forests", stats.forests as f64, "count");
    m.put("ml.cluster_groups", stats.cluster_groups as f64, "count");
    m.put(
        "ml.quantized_forests",
        stats.quantized_forests as f64,
        "count",
    );
    m.put("ml.arena_bytes", stats.arena_bytes as f64, "bytes");
    m.put("ml.bank_build_ms", bank_build_ms, "ms");
    m.put("editdist.stage_two_ns", stage_two_ns, "ns");
    m.put(
        "editdist.distance_calls",
        replay.distance_calls as f64 / probes,
        "count",
    );
    m.put(
        "editdist.osa_cells",
        replay.osa_cells as f64 / probes,
        "count",
    );
    m.put("core.identify_ns", identify_ns, "ns");
    m.put("core.assess_ns", per_probe("core.assess"), "ns");
    m.put("core.handle_ns", handle_ns, "ns");
    m.put("pool.handoff_us", handoff_us, "us");
    m.put(
        "pool.steals",
        (after.counter(Counter::PoolSteals) - before.counter(Counter::PoolSteals)) as f64 / frames,
        "1/frame",
    );
    m.put(
        "pool.parks",
        (after.counter(Counter::PoolParks) - before.counter(Counter::PoolParks)) as f64 / frames,
        "1/frame",
    );
    m.put("serve.encode_ns", encode_ns, "ns");
    m.put("serve.decode_ns", decode_ns, "ns");
    m.put("serve.ping_us", ping_us, "us");
    m.put("serve.connect_ms", connect_ms, "ms");
    m.put("serve.frame_p50_us", stage_p50_us(Stage::Frame), "us");
    m.put("serve.scan_p50_us", stage_p50_us(Stage::Scan), "us");
    m.put("serve.outside_us", outside_us, "us");
    m.put(
        "serve.queries_shed",
        after.counter(Counter::QueriesShed) as f64,
        "count",
    );
    m.put(
        "serve.connections_refused",
        after.counter(Counter::ConnectionsRefused) as f64,
        "count",
    );
    m.put(
        "trace.overhead_ns",
        mean(&replay.traced_ns).unwrap_or(f64::NAN) - handle_ns,
        "ns",
    );
    m.put("trace.reconciled_share", reconciled_share, "ratio");
    m.put("trace.spans", tracer.spans().len() as f64, "count");

    let failed = warm.frames_failed + load.frames_failed + load.reloads_failed + replay.mismatches;
    Ok(Outcome {
        correct: failed == 0
            && warm.mismatches + load.mismatches == 0
            && totals_agree
            && reconciled_share >= trace::RECONCILE_QUORUM,
        attempted: warm.frames_attempted
            + load.frames_attempted
            + load.reloads_attempted
            + replay.probes as u64,
        failed,
        metrics: m,
    })
}
