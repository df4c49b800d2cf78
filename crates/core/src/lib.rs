//! IoT Sentinel core: automated device-type identification and the IoT
//! Security Service (paper §III and §IV).
//!
//! The crate implements the paper's two-stage identification pipeline:
//!
//! 1. **Per-type classification** ([`classifier`], [`trainer`]): one
//!    binary Random Forest per known device type, trained on that
//!    type's fixed fingerprints F′ against a 10×n random subsample of
//!    other types' fingerprints (imbalance control, §IV-B-1). New
//!    device types are added by training *one* new classifier — no
//!    relearning of existing models.
//! 2. **Edit-distance discrimination** ([`identifier`]): when several
//!    classifiers accept a fingerprint, the full fingerprints F are
//!    compared by Damerau-Levenshtein distance against five reference
//!    fingerprints per candidate type; the lowest dissimilarity score
//!    wins (§IV-B-2). Zero accepting classifiers yields
//!    [`Identification::Unknown`] — the discovery path for new device
//!    types.
//!
//! On top of identification sit the IoT Security Service components
//! (§III-B): a CVE-style [`vulnerability`] database, the
//! [`isolation`] levels (trusted / restricted / strict) of §V, and the
//! [`service`] that maps fingerprints to enforcement decisions.
//! [`eval`] hosts the cross-validation, confusion and timing harnesses
//! behind the paper's Fig. 5 and Tables III-IV.
//!
//! # Example
//!
//! ```no_run
//! use sentinel_core::{IdentifierConfig, Trainer};
//! use sentinel_devices::{catalog, generate_dataset, NetworkEnvironment};
//!
//! let env = NetworkEnvironment::default();
//! let dataset = generate_dataset(&catalog::standard_catalog(), &env, 20, 1);
//! let identifier = Trainer::new(IdentifierConfig::default()).train(&dataset, 42)?;
//! let unknown = dataset.sample(0);
//! let result = identifier.identify(unknown.fingerprint());
//! // Results carry interned TypeIds; names are borrowed on demand.
//! println!("identified as {:?}", identifier.name_of(&result));
//! # Ok::<(), sentinel_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod classifier;
pub mod error;
pub mod eval;
pub mod identifier;
pub mod incidents;
pub mod isolation;
pub mod persist;
pub mod registry;
pub mod service;
pub mod trainer;
pub mod vulnerability;

pub use cell::{ServiceCell, ServiceEpoch};
pub use classifier::TypeClassifier;
pub use error::CoreError;
pub use identifier::{
    BankStats, CandidateScratch, DeviceTypeIdentifier, Identification, ReplicatedBank,
    ShardedScratch, Verdict,
};
pub use incidents::{
    CorrelatorConfig, FlaggedType, GatewayId, IncidentCorrelator, IncidentKind, IncidentReport,
};
pub use isolation::{Endpoint, IsolationClass, IsolationLevel};
pub use registry::{RegistryMismatch, TypeId, TypeRegistry};
pub use sentinel_ml::ScanSnapshot;
pub use service::{IoTSecurityService, ServiceResponse, BATCH_CHUNK};
pub use trainer::{IdentifierConfig, Trainer};
pub use vulnerability::{Severity, VulnerabilityDatabase, VulnerabilityRecord};
