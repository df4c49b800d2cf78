//! Seeded input generation: the device catalogues, the training set,
//! the held-out probes and a digest that pins them.
//!
//! Everything here is a pure function of the workload and the seed
//! given on the command line. Training setups and probe setups are
//! simulated from two different seeds derived from it, so every probe
//! is a setup the trainer never saw.

use std::time::Instant;

use iot_sentinel::devices::{
    capture_setups, catalog, generate_dataset, DeviceProfile, NetworkEnvironment, ScriptStep,
    SetupAction, SetupScript,
};
use iot_sentinel::fingerprint::{Dataset, Fingerprint, FingerprintExtractor};

/// The load shapes the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 27-type catalogue, 32 probes per frame on two
    /// persistent connections.
    Catalog,
    /// About a thousand near-duplicate types plus held-out types,
    /// batched frames and periodic admin reloads.
    Organic,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "catalog" => Some(Workload::Catalog),
            "organic" => Some(Workload::Organic),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog",
            Workload::Organic => "organic",
        }
    }
}

/// Training setups simulated per catalogue type.
const CATALOG_TRAIN_RUNS: u32 = 12;
/// Held-out probe setups simulated per catalogue type.
const CATALOG_PROBE_RUNS: u32 = 300;
/// Device types the organic bank learns.
const ORGANIC_TYPES: usize = 1000;
/// Standard profiles whose organic variants are never learned: their
/// probes come from device families the bank has not seen, and are
/// answered correctly only as Unknown.
const ORGANIC_HELDOUT_BASES: [&str; 2] = ["Withings", "Lightify"];
/// Organic variants generated per held-out base.
const ORGANIC_HELDOUT_VARIANTS: usize = 24;
/// Training setups simulated per organic type.
const ORGANIC_TRAIN_RUNS: u32 = 5;
/// Probe setups simulated per organic type, learned or not.
const ORGANIC_PROBE_RUNS: u32 = 1;
/// Seed of the training setups and of the organic catalogue. The
/// trained bank is the same on every run, so `setup_s` times the same
/// work each time; the probes come from the run's seed.
const TRAIN_SEED: u64 = 0x5e17_1e57;

/// A small deterministic generator (SplitMix64); the benchmark owns its
/// randomness so the inputs depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniform draw from `low..=high`.
    pub fn range(&mut self, low: i64, high: i64) -> i64 {
        low + self.below((high - low + 1) as u64) as i64
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Derives an independent seed for one named input stream.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    SplitMix::new(fnv1a(FNV_OFFSET ^ seed, stream.as_bytes())).next_u64()
}

/// One held-out query and the answer it should get.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The setup fingerprint sent to the service.
    pub fingerprint: Fingerprint,
    /// The device type the probe was simulated from.
    pub label: String,
    /// Whether the bank learned `label`; a probe of an unlearned type
    /// is answered correctly only as Unknown.
    pub known: bool,
}

/// Everything a run feeds the program, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Labelled training fingerprints of every learned type.
    pub train: Dataset,
    /// Held-out probes, in the order clients cycle through them.
    pub probes: Vec<Probe>,
    /// Types the bank learns.
    pub learned_types: usize,
    /// Types with probes but no training data.
    pub heldout_types: usize,
    /// FNV-1a digest over every training and probe fingerprint and
    /// label: two runs with equal digests used identical inputs.
    pub digest: u64,
    /// Seconds spent simulating captures (benchmark preparation, not
    /// part of `setup_s`).
    pub prep_s: f64,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let start = Instant::now();
        let env = NetworkEnvironment::default();
        let probe_seed = derive_seed(seed, "probe");
        let (train, probes, learned_types, heldout_types) = match workload {
            Workload::Catalog => {
                let profiles = catalog::standard_catalog();
                let train = generate_dataset(&profiles, &env, CATALOG_TRAIN_RUNS, TRAIN_SEED);
                let probes = simulate_probes(&profiles, &env, CATALOG_PROBE_RUNS, probe_seed, true);
                (train, probes, profiles.len(), 0)
            }
            Workload::Organic => {
                let (learned, heldout) = organic_catalog(TRAIN_SEED);
                let train = generate_dataset(&learned, &env, ORGANIC_TRAIN_RUNS, TRAIN_SEED);
                let mut probes =
                    simulate_probes(&learned, &env, ORGANIC_PROBE_RUNS, probe_seed, true);
                probes.extend(simulate_probes(
                    &heldout,
                    &env,
                    ORGANIC_PROBE_RUNS,
                    probe_seed,
                    false,
                ));
                (train, probes, learned.len(), heldout.len())
            }
        };
        let mut probes = probes;
        SplitMix::new(derive_seed(seed, "probe-order")).shuffle(&mut probes);
        let digest = digest(&train, &probes);
        Inputs {
            train,
            probes,
            learned_types,
            heldout_types,
            digest,
            prep_s: start.elapsed().as_secs_f64(),
        }
    }
}

fn simulate_probes(
    profiles: &[DeviceProfile],
    env: &NetworkEnvironment,
    runs: u32,
    seed: u64,
    known: bool,
) -> Vec<Probe> {
    let mut probes = Vec::new();
    for profile in profiles {
        for capture in capture_setups(profile, env, runs, seed) {
            probes.push(Probe {
                fingerprint: FingerprintExtractor::extract_from(capture.packets()),
                label: profile.type_name.clone(),
                known,
            });
        }
    }
    probes
}

fn fingerprint_digest(mut hash: u64, fingerprint: &Fingerprint) -> u64 {
    hash = fnv1a(hash, &(fingerprint.len() as u64).to_le_bytes());
    for column in fingerprint.columns() {
        for value in column.values() {
            hash = fnv1a(hash, &value.to_le_bytes());
        }
    }
    hash
}

/// The input digest: labels and raw feature values of every training
/// sample and probe, in order.
fn digest(train: &Dataset, probes: &[Probe]) -> u64 {
    let mut hash = FNV_OFFSET;
    for sample in train.iter() {
        hash = fnv1a(hash, sample.label().as_bytes());
        hash = fingerprint_digest(hash, sample.fingerprint());
    }
    for probe in probes {
        hash = fnv1a(hash, probe.label.as_bytes());
        hash = fnv1a(hash, &[u8::from(probe.known)]);
        hash = fingerprint_digest(hash, &probe.fingerprint);
    }
    hash
}

/// The organic catalogue: [`ORGANIC_TYPES`] distinct, near-duplicate
/// device types to learn, plus the held-out types. Each type is a
/// standard profile with its OUI, hostnames, heartbeat host and record
/// size, and step timings perturbed. Types derived from the same base
/// share its protocol structure, so several classifiers accept each
/// probe and discrimination runs at tens of candidates; no two types
/// are copies, so the bank's duplicate index cannot fold them together.
/// The held-out types are variants of [`ORGANIC_HELDOUT_BASES`], whose
/// family the learned types do not include.
fn organic_catalog(seed: u64) -> (Vec<DeviceProfile>, Vec<DeviceProfile>) {
    let (heldout_bases, learned_bases): (Vec<DeviceProfile>, Vec<DeviceProfile>) =
        catalog::standard_catalog()
            .into_iter()
            .partition(|p| ORGANIC_HELDOUT_BASES.contains(&p.type_name.as_str()));
    let mut rng = SplitMix::new(seed);
    let learned = (0..ORGANIC_TYPES)
        .map(|i| perturb(&learned_bases[i % learned_bases.len()], i, &mut rng))
        .collect();
    let heldout = (0..ORGANIC_HELDOUT_VARIANTS * heldout_bases.len())
        .map(|i| perturb(&heldout_bases[i % heldout_bases.len()], i, &mut rng))
        .collect();
    (learned, heldout)
}

fn perturb(base: &DeviceProfile, index: usize, rng: &mut SplitMix) -> DeviceProfile {
    let hostname_suffix = token(rng, 10);
    let host_prefix = token(rng, 10);
    let heartbeat_delta = rng.range(-40, 40);
    let timing_percent = rng.range(80, 125) as u64;
    let mut script = SetupScript::new();
    for step in base.script.steps() {
        let action = match &step.action {
            SetupAction::Dhcp { hostname } => SetupAction::Dhcp {
                hostname: format!("{hostname}{hostname_suffix}"),
            },
            SetupAction::DhcpRenew { hostname } => SetupAction::DhcpRenew {
                hostname: format!("{hostname}{hostname_suffix}"),
            },
            SetupAction::DnsQuery { host } => SetupAction::DnsQuery {
                host: format!("{host_prefix}{host}"),
            },
            SetupAction::HttpGet { host, path } => SetupAction::HttpGet {
                host: format!("{host_prefix}{host}"),
                path: path.clone(),
            },
            SetupAction::TlsConnect {
                host,
                extra_records,
            } => SetupAction::TlsConnect {
                host: format!("{host_prefix}{host}"),
                extra_records: *extra_records,
            },
            SetupAction::Heartbeat { host, rounds, size } => SetupAction::Heartbeat {
                host: format!("{host_prefix}{host}"),
                rounds: *rounds,
                size: (*size as i64 + heartbeat_delta).max(16) as usize,
            },
            other => other.clone(),
        };
        script = script.step(ScriptStep {
            action,
            delay_ms: step.delay_ms * timing_percent / 100,
            jitter_ms: step.jitter_ms * timing_percent / 100,
            ..step.clone()
        });
    }
    let mut oui = base.oui;
    oui[2] = oui[2].wrapping_add(1 + (index % 251) as u8);
    DeviceProfile {
        type_name: format!("{}~{index:04}", base.type_name),
        oui,
        script,
        ..base.clone()
    }
}

/// A random lowercase token of 0 to `max_len` letters: each length
/// shifts the size of the packets that carry the token.
fn token(rng: &mut SplitMix, max_len: i64) -> String {
    let len = rng.range(0, max_len);
    (0..len)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest() {
        let a = Inputs::generate(Workload::Catalog, 7);
        let b = Inputs::generate(Workload::Catalog, 7);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.probes.len(), b.probes.len());
        let c = Inputs::generate(Workload::Catalog, 8);
        assert_ne!(a.digest, c.digest, "another seed gives other inputs");
    }

    #[test]
    fn probe_seed_differs_from_training_seed() {
        for seed in 0..1000 {
            assert_ne!(derive_seed(seed, "probe"), TRAIN_SEED);
        }
    }

    #[test]
    fn organic_types_are_distinct_near_duplicates() {
        let (learned, heldout) = organic_catalog(11);
        assert_eq!(learned.len(), ORGANIC_TYPES);
        let names: std::collections::HashSet<&str> = learned
            .iter()
            .chain(&heldout)
            .map(|p| p.type_name.as_str())
            .collect();
        assert_eq!(names.len(), learned.len() + heldout.len());
        // Types 0 and 25 share a base profile but not a script.
        assert_eq!(learned[0].script.len(), learned[25].script.len());
        assert_ne!(learned[0].script, learned[25].script);
        assert!(heldout.iter().all(|p| ORGANIC_HELDOUT_BASES
            .iter()
            .any(|b| p.type_name.starts_with(b))));
    }
}
