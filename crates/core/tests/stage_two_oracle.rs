//! Stage two against a DP oracle on the paper's catalog.
//!
//! Discrimination runs the bit-parallel edit distance. Its scores must
//! be bit-identical (`f64::to_bits`) to the ones the plain
//! `osa_distance` DP gives when summed in the same reference order,
//! and the ranking — ties included — must match.

use sentinel_core::{Identification, Trainer, TypeId};
use sentinel_devices::{catalog, generate_dataset, NetworkEnvironment};
use sentinel_editdist::osa_distance;
use sentinel_fingerprint::Fingerprint;

/// Scores every candidate with the DP, then ranks them with the same
/// stable sort as the identifier.
fn dp_ranking(
    probe: &Fingerprint,
    candidates: &[TypeId],
    references: impl Fn(TypeId) -> Vec<Fingerprint>,
) -> Vec<(TypeId, f64)> {
    let mut scores: Vec<(TypeId, f64)> = candidates
        .iter()
        .map(|&id| {
            let score: f64 = references(id)
                .iter()
                .map(|r| {
                    let longest = probe.len().max(r.len());
                    if longest == 0 {
                        0.0
                    } else {
                        osa_distance(probe.columns(), r.columns()) as f64 / longest as f64
                    }
                })
                .sum();
            (id, score)
        })
        .collect();
    scores.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    scores
}

#[test]
fn catalog_scores_are_bit_identical_to_the_dp_oracle() {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();
    let training = generate_dataset(&profiles, &env, 10, 1);
    let probes = generate_dataset(&profiles, &env, 10, 2);
    let identifier = Trainer::default().train(&training, 7).expect("training");
    let prefix_len = identifier.config().fixed_prefix_len;

    let mut discriminated = 0;
    for probe in probes.iter() {
        let fingerprint = probe.fingerprint();
        let candidates = identifier.classify_candidates(&fingerprint.to_fixed_with(prefix_len));
        if candidates.len() < 2 {
            continue;
        }
        discriminated += 1;
        let oracle = dp_ranking(fingerprint, &candidates, |id| {
            identifier.references(id).expect("known type").to_vec()
        });
        match identifier.identify(fingerprint) {
            Identification::Known {
                device_type,
                accepted,
                scores,
            } => {
                assert_eq!(accepted, candidates.len());
                assert_eq!(device_type, oracle[0].0, "winner differs from the oracle");
                let bits = |s: &[(TypeId, f64)]| -> Vec<(TypeId, u64)> {
                    s.iter().map(|(id, v)| (*id, v.to_bits())).collect()
                };
                assert_eq!(
                    bits(&scores),
                    bits(&oracle),
                    "scores differ from the oracle"
                );
            }
            Identification::Unknown => panic!("{} candidates but no winner", candidates.len()),
        }
    }
    assert!(
        discriminated >= 20,
        "only {discriminated} catalog probes reached stage two"
    );
}
