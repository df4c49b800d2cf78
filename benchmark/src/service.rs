//! Standing the service up on loopback, and the in-process oracle every
//! wire answer is checked against.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use iot_sentinel::core::{persist, BankStats, ServiceResponse};
use iot_sentinel::fingerprint::Dataset;
use iot_sentinel::serve::{ClientConfig, SentinelClient, ServerConfig, ServerHandle};
use iot_sentinel::{Sentinel, SentinelBuilder};

use crate::inputs::Probe;

/// Seed of classifier training (the training *inputs* have their own).
const TRAINING_SEED: u64 = 0x7a11_5eed;

/// The most requests any workload keeps in flight.
const MAX_IN_FLIGHT: usize = 2;

/// Compute-pool workers of the served cell: one per core, and no more
/// than requests in flight. Clients wait for their answers (closed
/// loop), so the pool and the clients together never ask for more cores
/// than exist.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, MAX_IN_FLIGHT)
}

/// The server's settings: production defaults plus the admin channel,
/// which the reload measurement needs.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        admin: true,
        ..ServerConfig::default()
    }
}

/// Client settings under which every refusal shows: one connection
/// attempt and no silent resend of shed batches.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        connect_attempts: 1,
        overload_retries: 0,
        io_timeout: Duration::from_secs(60),
        ..ClientConfig::default()
    }
}

/// A trained service answering on a loopback port.
pub struct Served {
    /// The in-process service; its `handle` is the answer oracle.
    pub sentinel: Sentinel,
    /// The running server.
    pub server: ServerHandle,
}

impl Served {
    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Trains a service from `train`, serves it on loopback and waits for
/// its first pong. Returns the service and the seconds from the
/// training set to that pong: training, bank compile and server start.
pub fn set_up(train: &Dataset) -> Result<(Served, f64), String> {
    let dataset = train.clone();
    let start = Instant::now();
    let mut sentinel = SentinelBuilder::new()
        .dataset(dataset)
        .training_seed(TRAINING_SEED)
        .demo_vulnerabilities()
        .compute_threads(pool_threads())
        .build()
        .map_err(|e| format!("training failed: {e}"))?;
    let server = sentinel
        .serve("127.0.0.1:0", server_config())
        .map_err(|e| format!("bind failed: {e}"))?;
    let mut client = SentinelClient::connect(server.local_addr(), client_config())
        .map_err(|e| format!("connect failed: {e}"))?;
    client
        .ping()
        .map_err(|e| format!("first ping failed: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((Served { sentinel, server }, seconds))
}

/// The in-process answer to every probe: `Sentinel::handle`, spread
/// over as many threads as the server's pool has workers.
pub fn oracle(sentinel: &Sentinel, probes: &[Probe]) -> Vec<ServiceResponse> {
    let chunk = probes.len().div_ceil(pool_threads()).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = probes
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|p| sentinel.handle(&p.fingerprint))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Whether `answer` is right for `probe`: its true type for a learned
/// type, Unknown for a type the bank never learned.
fn is_accurate(sentinel: &Sentinel, probe: &Probe, answer: &ServiceResponse) -> bool {
    let name = sentinel.type_name(answer.device_type);
    if probe.known {
        name == Some(probe.label.as_str())
    } else {
        name.is_none()
    }
}

/// The share of probes the oracle answers accurately.
pub fn accuracy(sentinel: &Sentinel, probes: &[Probe], answers: &[ServiceResponse]) -> f64 {
    let right = probes
        .iter()
        .zip(answers)
        .filter(|(p, a)| is_accurate(sentinel, p, a))
        .count();
    right as f64 / probes.len().max(1) as f64
}

/// Checks the compiled bank is made of distinct types: a bank whose
/// duplicate index folds forests together measures replicas, not a
/// catalogue.
pub fn check_bank(stats: &BankStats) -> Result<(), String> {
    if stats.cluster_groups < stats.forests {
        return Err(format!(
            "bank folds {} forests into {} duplicate groups; scaling figures need distinct types",
            stats.forests, stats.cluster_groups
        ));
    }
    Ok(())
}

/// The served model as a v2 model document, the payload of a reload.
pub fn model_document(sentinel: &Sentinel) -> Result<Vec<u8>, String> {
    let mut doc = Vec::new();
    persist::write_identifier(&mut doc, sentinel.identifier())
        .map_err(|e| format!("writing the model failed: {e}"))?;
    Ok(doc)
}
