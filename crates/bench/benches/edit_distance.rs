//! Edit-distance discrimination bench (the "1 discrimination" and
//! "7 discriminations" rows of Table IV): the `O(n·m)` OSA DP against
//! the bit-parallel kernel stage two runs, on catalog words.
//!
//! Every one of the 27 catalog types contributes one probe and five
//! references (six simulated setups). Rows are ns per single distance
//! and ns per 5-reference round, averaged over the 27 types. The
//! kernel's sums are checked bit-identical to the DP's before timing.
//! Writes `BENCH_editdist.json`.

use sentinel_bench::bench_report::{measure_ns, write_bench_json};
use sentinel_devices::{capture_setups, catalog, NetworkEnvironment};
use sentinel_editdist::{
    damerau_levenshtein, dissimilarity_over, fingerprint_distance, osa_distance, DistanceVariant,
};
use sentinel_fingerprint::{Fingerprint, FingerprintExtractor};

/// References per discrimination round (the paper's five).
const REFERENCES: usize = 5;

/// One catalog type's probe and its references.
struct Round {
    probe: Fingerprint,
    references: Vec<Fingerprint>,
}

fn rounds() -> Vec<Round> {
    let env = NetworkEnvironment::default();
    catalog::standard_catalog()
        .iter()
        .map(|profile| {
            let mut words: Vec<Fingerprint> =
                capture_setups(profile, &env, REFERENCES as u32 + 1, 3)
                    .iter()
                    .map(|c| FingerprintExtractor::extract_from(c.packets()))
                    .collect();
            let probe = words.remove(0);
            Round {
                probe,
                references: words,
            }
        })
        .collect()
}

/// The DP's normalised distance, as stage two computed it before the
/// kernel.
fn dp_distance(a: &Fingerprint, b: &Fingerprint) -> f64 {
    let longest = a.len().max(b.len());
    if longest == 0 {
        return 0.0;
    }
    osa_distance(a.columns(), b.columns()) as f64 / longest as f64
}

fn dp_round(round: &Round) -> f64 {
    round
        .references
        .iter()
        .map(|r| dp_distance(&round.probe, r))
        .sum()
}

fn main() {
    let rounds = rounds();
    for round in &rounds {
        assert_eq!(
            dissimilarity_over(&round.probe, &round.references, DistanceVariant::Osa).to_bits(),
            dp_round(round).to_bits(),
            "kernel and DP scores diverged"
        );
    }
    let per_round = |ns: f64| ns / rounds.len() as f64;
    let per_distance = |ns: f64| per_round(ns) / REFERENCES as f64;

    let dp_single = per_round(measure_ns(|| {
        for round in &rounds {
            std::hint::black_box(dp_distance(&round.probe, &round.references[0]));
        }
    }));
    let kernel_single = per_round(measure_ns(|| {
        for round in &rounds {
            std::hint::black_box(fingerprint_distance(
                &round.probe,
                &round.references[0],
                DistanceVariant::Osa,
            ));
        }
    }));
    let full_dl_single = per_round(measure_ns(|| {
        for round in &rounds {
            std::hint::black_box(damerau_levenshtein(
                round.probe.columns(),
                round.references[0].columns(),
            ));
        }
    }));
    let dp_5 = per_round(measure_ns(|| {
        for round in &rounds {
            std::hint::black_box(dp_round(round));
        }
    }));
    let kernel_5 = per_round(measure_ns(|| {
        for round in &rounds {
            std::hint::black_box(dissimilarity_over(
                &round.probe,
                &round.references,
                DistanceVariant::Osa,
            ));
        }
    }));

    let cells: usize = rounds
        .iter()
        .flat_map(|round| round.references.iter().map(|r| round.probe.len() * r.len()))
        .sum();
    let mean_cells = cells as f64 / (rounds.len() * REFERENCES) as f64;
    let mean_probe_len =
        rounds.iter().map(|r| r.probe.len()).sum::<usize>() as f64 / rounds.len() as f64;

    for (name, ns) in [
        ("osa_dp_distance", dp_single),
        ("osa_kernel_distance", kernel_single),
        ("full_dl_dp_distance", full_dl_single),
        ("osa_dp_5_refs", dp_5),
        ("osa_kernel_5_refs", kernel_5),
    ] {
        println!("{name:<40} time: [{:.3} µs]", ns / 1e3);
    }
    println!(
        "kernel-over-DP speedup: {:.1}x per distance, {:.1}x per 5-reference round \
         (mean probe {mean_probe_len:.1} packets, {mean_cells:.0} DP cells per distance)",
        dp_single / kernel_single,
        dp_5 / kernel_5
    );
    // Per-distance cost of the 5-reference round, where the kernel
    // builds the probe's masks once for all five references.
    let kernel_amortized = per_distance(kernel_5 * rounds.len() as f64);

    let path = write_bench_json(
        "editdist",
        "ns",
        &[
            ("osa_dp_distance", dp_single),
            ("osa_kernel_distance", kernel_single),
            ("full_dl_dp_distance", full_dl_single),
            ("osa_dp_5_refs", dp_5),
            ("osa_kernel_5_refs", kernel_5),
        ],
        &[
            ("speedup_distance", dp_single / kernel_single),
            ("speedup_5_refs", dp_5 / kernel_5),
            ("kernel_ns_per_distance_in_round", kernel_amortized),
            ("mean_probe_packets", mean_probe_len),
            ("mean_dp_cells_per_distance", mean_cells),
        ],
    )
    .expect("writing bench json");
    println!("wrote {}", path.display());
}
