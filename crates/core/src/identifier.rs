//! The two-stage device-type identifier (paper §IV-B).

use std::cell::RefCell;
use std::collections::BTreeMap;

use sentinel_editdist::dissimilarity_over;
use sentinel_fingerprint::{Dataset, Fingerprint, FixedFingerprint, FixedScratch, FEATURE_COUNT};
use sentinel_ml::{CompiledBank, CompiledBankBuilder, ScanSnapshot, ShardScratch};

use crate::classifier::TypeClassifier;
use crate::error::CoreError;
use crate::registry::{TypeId, TypeRegistry};
use crate::trainer::{fnv1a, negative_indices, reference_indices, IdentifierConfig};

/// The outcome of identifying one fingerprint.
///
/// Carries interned [`TypeId`]s only — resolve them to names through
/// the identifier's [`TypeRegistry`] (borrowed, never cloned). The
/// single-candidate (and unknown) outcomes own no heap data at all, so
/// the warm query path hands them out allocation-free; `scores` only
/// materialises when discrimination actually ran.
#[derive(Debug, Clone, PartialEq)]
pub enum Identification {
    /// Exactly one prediction was produced.
    Known {
        /// The predicted device type.
        device_type: TypeId,
        /// How many classifiers accepted the fingerprint (≥ 1; more
        /// than one means discrimination ran).
        accepted: usize,
        /// Dissimilarity scores per accepting candidate, best first,
        /// when discrimination ran (empty on a single classifier
        /// match).
        scores: Vec<(TypeId, f64)>,
    },
    /// Every classifier rejected the fingerprint: a new device type
    /// has been discovered (§IV-B-1).
    Unknown,
}

impl Identification {
    /// The winner and accepted count, without the scores.
    pub fn verdict(&self) -> Verdict {
        Verdict {
            device_type: self.device_type(),
            accepted: self.accepted_candidates(),
        }
    }

    /// The predicted type, or `None` for an unknown device.
    pub fn device_type(&self) -> Option<TypeId> {
        match self {
            Identification::Known { device_type, .. } => Some(*device_type),
            Identification::Unknown => None,
        }
    }

    /// How many classifiers accepted the fingerprint (0 for an
    /// unknown device).
    pub fn accepted_candidates(&self) -> usize {
        match self {
            Identification::Known { accepted, .. } => *accepted,
            Identification::Unknown => 0,
        }
    }

    /// Whether the edit-distance discrimination stage was needed
    /// (more than one classifier accepted).
    pub fn needed_discrimination(&self) -> bool {
        self.accepted_candidates() > 1
    }

    /// Number of edit-distance computations performed for this
    /// identification (candidates × references when discrimination
    /// ran).
    pub fn distance_computations(&self, references_per_type: usize) -> usize {
        if self.needed_discrimination() {
            self.accepted_candidates() * references_per_type
        } else {
            0
        }
    }
}

/// The outcome of identifying one fingerprint without the
/// discrimination scores: what the service needs to answer a query.
/// A plain `Copy` value, so producing one never allocates, even when
/// discrimination ran; [`Identification`] adds the ranked scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The predicted type, or `None` for an unknown device.
    pub device_type: Option<TypeId>,
    /// How many classifiers accepted the fingerprint (0 for an
    /// unknown device).
    pub accepted: usize,
}

impl Verdict {
    /// Whether the edit-distance discrimination stage was needed
    /// (more than one classifier accepted).
    pub fn needed_discrimination(&self) -> bool {
        self.accepted > 1
    }

    /// The full [`Identification`], with `scores` as left in the
    /// scratch by the query this verdict came from (empty unless
    /// discrimination ran).
    fn with_scores(self, scores: &[(TypeId, f64)]) -> Identification {
        match self.device_type {
            None => Identification::Unknown,
            Some(device_type) => Identification::Known {
                device_type,
                accepted: self.accepted,
                scores: scores.to_vec(),
            },
        }
    }
}

thread_local! {
    /// The scratch behind [`DeviceTypeIdentifier::identify`] and
    /// [`DeviceTypeIdentifier::verdict`]: one per thread, so concurrent
    /// queries never contend.
    static QUERY_SCRATCH: RefCell<CandidateScratch> = RefCell::new(CandidateScratch::new());
}

/// Reusable per-thread workspace for the identification hot path: the
/// F′ conversion buffers, the accepted-candidate list and the
/// discrimination score list all live here, so a warm
/// [`DeviceTypeIdentifier::identify_with`] call performs **zero** heap
/// allocations on the common single-candidate (and unknown) outcomes.
#[derive(Debug, Clone, Default)]
pub struct CandidateScratch {
    fixed: FixedScratch,
    candidates: Vec<TypeId>,
    scores: Vec<(TypeId, f64)>,
}

impl CandidateScratch {
    /// An empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        CandidateScratch::default()
    }

    /// The candidate ids produced by the most recent
    /// [`DeviceTypeIdentifier::classify_candidates_into`] /
    /// [`DeviceTypeIdentifier::identify_with`] call, in classifier
    /// (id) order.
    pub fn candidates(&self) -> &[TypeId] {
        &self.candidates
    }

    /// The per-candidate dissimilarity scores of the most recent
    /// [`DeviceTypeIdentifier::identify_with`] call (best first;
    /// empty if that query did not need discrimination).
    pub fn scores(&self) -> &[(TypeId, f64)] {
        &self.scores
    }
}

/// Reusable workspace for the thread-sharded stage-one scan: the
/// per-shard candidate lanes plus the merged candidate list. Warm
/// [`DeviceTypeIdentifier::classify_candidates_sharded_into`] calls
/// reuse all buffers.
#[derive(Debug, Clone, Default)]
pub struct ShardedScratch {
    lanes: ShardScratch,
    candidates: Vec<TypeId>,
}

impl ShardedScratch {
    /// An empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        ShardedScratch::default()
    }

    /// The candidate ids produced by the most recent
    /// [`DeviceTypeIdentifier::classify_candidates_sharded_into`]
    /// call, in classifier (id) order.
    pub fn candidates(&self) -> &[TypeId] {
        &self.candidates
    }
}

/// Shape and acceleration statistics of a compiled classifier bank
/// (see [`DeviceTypeIdentifier::bank_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankStats {
    /// Compiled forests (= known device types).
    pub forests: usize,
    /// Packed branch nodes across all forests.
    pub nodes: usize,
    /// Approximate arena footprint (nodes + roots + spans + index).
    pub arena_bytes: usize,
    /// Whether queries consult the feature-usage prefilter.
    pub indexed: bool,
    /// Stripe lanes the prefilter folds F′ dimensions into (23 for
    /// banks compiled by this crate: the per-packet feature columns).
    pub stripes: u32,
    /// Forests proven decision-identical under 8-byte threshold
    /// quantization (the rest escalate to the retained f32 arena).
    pub quantized_forests: usize,
    /// Duplicate-content cluster groups (one representative walk
    /// answers every member); equals `forests` when every type is
    /// distinct.
    pub cluster_groups: usize,
    /// Cumulative scan-traffic counters (queries answered, prefilter
    /// consults, arena walks skipped) at the instant the stats were
    /// taken.
    pub scan: ScanSnapshot,
}

/// A compiled bank tiled to a large replicated type count, with the
/// forest→[`TypeId`] mapping that [`CompiledBank::repeat`] alone does
/// not carry: all copies share one registry/id slice, forest `i`
/// answering for base forest `i mod base_count`.
///
/// The mapping is computed in `usize` — replica counts and forest
/// indices past `u16::MAX` (the regime the 100k-type scaling bench
/// exercises) stay exact. Built by
/// [`DeviceTypeIdentifier::replicated_bank`], which also refuses
/// tilings whose node references would wrap into earlier copies (the
/// "off-by-bank" arena corruption) via [`CompiledBank::try_repeat`].
#[derive(Debug, Clone)]
pub struct ReplicatedBank {
    bank: CompiledBank,
    base_ids: Vec<TypeId>,
}

impl ReplicatedBank {
    /// The tiled arena (every copy owns its own region).
    pub fn bank(&self) -> &CompiledBank {
        &self.bank
    }

    /// Total replicated type count (= tiled forest count).
    pub fn type_count(&self) -> usize {
        self.bank.forest_count()
    }

    /// Number of distinct base types behind the replicas.
    pub fn base_count(&self) -> usize {
        self.base_ids.len()
    }

    /// The device type forest `index` of the tiled bank answers for,
    /// or `None` past the tiled forest count.
    pub fn type_of(&self, index: usize) -> Option<TypeId> {
        if index < self.bank.forest_count() {
            Some(self.base_ids[index % self.base_ids.len()])
        } else {
            None
        }
    }
}

/// Per-type model state: the classifier plus reference fingerprints
/// for discrimination.
#[derive(Debug, Clone)]
struct TypeModel {
    classifier: TypeClassifier,
    references: Vec<Fingerprint>,
}

/// The trained IoT Sentinel identifier: one binary classifier per
/// known device type plus reference fingerprints for edit-distance
/// discrimination.
///
/// Device-type labels are interned once into [`TypeId`]s through the
/// identifier's [`TypeRegistry`]; every internal map is keyed by id
/// and every identification result carries ids, so the query path
/// performs no string allocation.
///
/// Built via [`crate::Trainer`]; extended incrementally with
/// [`DeviceTypeIdentifier::add_device_type`] — "every time the
/// fingerprint of a new device-type is captured, a new classifier is
/// trained without making any modification to the existing
/// classifiers".
#[derive(Debug, Clone)]
pub struct DeviceTypeIdentifier {
    config: IdentifierConfig,
    registry: TypeRegistry,
    models: BTreeMap<TypeId, TypeModel>,
    /// Pool of training samples: (type, full F, fixed F′).
    pool: Vec<(TypeId, Fingerprint, FixedFingerprint)>,
    /// The whole classifier bank compiled into one flat arena (always
    /// in sync with `models`); `compiled_ids[i]` is the [`TypeId`] of
    /// the bank's forest `i`.
    compiled: CompiledBank,
    compiled_ids: Vec<TypeId>,
}

impl DeviceTypeIdentifier {
    pub(crate) fn new(config: IdentifierConfig) -> Self {
        DeviceTypeIdentifier {
            config,
            registry: TypeRegistry::new(),
            models: BTreeMap::new(),
            pool: Vec::new(),
            compiled: CompiledBank::default(),
            compiled_ids: Vec::new(),
        }
    }

    /// Recompiles the flat-arena bank from the current models. Must be
    /// called after every batch of model mutations so queries always
    /// run against the compiled representation (the `classify_into`
    /// debug assertion catches forgotten rebuilds). Only fails for a
    /// non-binary classifier forest, which the training paths cannot
    /// produce (the persistence path validates before reaching here).
    ///
    /// Banks are indexed on the 23 per-packet F′ feature columns
    /// (dimension `23·p + c` folds to column `c`), so the feature-usage
    /// prefilter's stripes are exactly the paper's 23 features.
    pub(crate) fn rebuild_compiled(&mut self) -> Result<(), CoreError> {
        let mut builder = CompiledBankBuilder::with_stripes(FEATURE_COUNT as u32);
        let mut ids = Vec::with_capacity(self.models.len());
        for (id, model) in &self.models {
            builder.push(model.classifier.forest(), self.config.accept_threshold)?;
            ids.push(*id);
        }
        self.compiled = builder.finish();
        self.compiled_ids = ids;
        Ok(())
    }

    /// Appends **one** freshly trained model to the compiled bank
    /// without touching the already-compiled regions — O(new forest)
    /// instead of O(bank). Only valid when `id` sorts after every
    /// compiled id (the bank mirrors the model map's ascending-id
    /// order); [`DeviceTypeIdentifier::add_device_type`] falls back to
    /// a full [`DeviceTypeIdentifier::rebuild_compiled`] otherwise
    /// (retrains, out-of-order interning).
    fn append_compiled(&mut self, id: TypeId) -> Result<(), CoreError> {
        debug_assert!(self.compiled_ids.last().is_none_or(|last| *last < id));
        let model = &self.models[&id];
        let bank = std::mem::take(&mut self.compiled);
        // A never-compiled identifier holds an unindexed default bank;
        // start a fresh F′-striped builder instead of inheriting its
        // disabled index.
        let mut builder = if bank.is_empty() && !bank.is_indexed() {
            CompiledBankBuilder::with_stripes(FEATURE_COUNT as u32)
        } else {
            CompiledBankBuilder::from_bank(bank)
        };
        match builder.push(model.classifier.forest(), self.config.accept_threshold) {
            Ok(_) => {
                self.compiled = builder.finish();
                self.compiled_ids.push(id);
                Ok(())
            }
            // The taken bank was dropped with the failed builder; a
            // full rebuild restores models⇄bank consistency (or
            // reports the same error). Clear the id column first so
            // that even a failing rebuild leaves the (empty) bank and
            // the id list mutually consistent.
            Err(_) => {
                self.compiled_ids.clear();
                self.rebuild_compiled()
            }
        }
    }

    /// The compiled flat-arena classifier bank serving
    /// [`DeviceTypeIdentifier::classify_candidates`] (bank statistics,
    /// scaling experiments).
    pub fn compiled_bank(&self) -> &CompiledBank {
        &self.compiled
    }

    /// The configuration this identifier was built with.
    pub fn config(&self) -> &IdentifierConfig {
        &self.config
    }

    /// The label ↔ id bijection for every type this identifier has
    /// ever seen (trained or pooled).
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Mutable access to the registry, for interning names that enter
    /// the system outside training (vulnerability feeds, incident
    /// streams). The registry is append-only, so handing out mutable
    /// access can never invalidate an existing [`TypeId`].
    pub fn registry_mut(&mut self) -> &mut TypeRegistry {
        &mut self.registry
    }

    /// The name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different registry.
    pub fn type_name(&self, id: TypeId) -> &str {
        self.registry.name(id)
    }

    /// Resolves an identification to a borrowed type name (`None` for
    /// unknown devices).
    pub fn name_of(&self, identification: &Identification) -> Option<&str> {
        self.registry.resolve(identification.device_type())
    }

    /// Adds every sample of `dataset` to the training pool without
    /// training any classifier.
    pub(crate) fn absorb_samples(&mut self, dataset: &Dataset) {
        for s in dataset.iter() {
            let fixed = if self.config.fixed_prefix_len == sentinel_fingerprint::FIXED_PACKETS {
                s.fixed().clone()
            } else {
                s.fingerprint().to_fixed_with(self.config.fixed_prefix_len)
            };
            let id = self.registry.intern(s.label());
            self.pool.push((id, s.fingerprint().clone(), fixed));
        }
    }

    /// Trains (or retrains) the classifier for `id` from the pool.
    ///
    /// Does **not** recompile the flat-arena bank — callers must
    /// follow up with [`DeviceTypeIdentifier::rebuild_compiled`] once
    /// their batch of `train_type` calls is done (rebuilding per call
    /// would make bulk training quadratic in bank size).
    pub(crate) fn train_type(&mut self, id: TypeId, seed: u64) -> Result<(), CoreError> {
        let label = self.registry.name(id);
        let positives: Vec<&FixedFingerprint> = self
            .pool
            .iter()
            .filter(|(l, _, _)| *l == id)
            .map(|(_, _, fx)| fx)
            .collect();
        if positives.is_empty() {
            return Err(CoreError::BadDataset(format!(
                "no fingerprints for type {label}"
            )));
        }
        let complement: Vec<&FixedFingerprint> = self
            .pool
            .iter()
            .filter(|(l, _, _)| *l != id)
            .map(|(_, _, fx)| fx)
            .collect();
        if complement.is_empty() {
            return Err(CoreError::BadDataset(format!(
                "no negative fingerprints available for type {label}"
            )));
        }
        let neg_idx = negative_indices(
            positives.len(),
            complement.len(),
            self.config.negative_ratio,
            seed,
        );
        let negatives: Vec<&FixedFingerprint> =
            neg_idx.into_iter().map(|i| complement[i]).collect();
        let classifier =
            TypeClassifier::train(label, &positives, &negatives, &self.config.forest, seed)?;
        // Reference fingerprints for discrimination: a random subset of
        // this type's full fingerprints.
        let own_full: Vec<&Fingerprint> = self
            .pool
            .iter()
            .filter(|(l, _, _)| *l == id)
            .map(|(_, f, _)| f)
            .collect();
        let ref_idx = reference_indices(own_full.len(), self.config.references_per_type, seed);
        let references: Vec<Fingerprint> =
            ref_idx.into_iter().map(|i| own_full[i].clone()).collect();
        self.models.insert(
            id,
            TypeModel {
                classifier,
                references,
            },
        );
        Ok(())
    }

    /// Registers a newly discovered device type from its fingerprints
    /// and trains **only its** classifier — existing classifiers are
    /// untouched (incremental learning, §IV-B-1). Returns the interned
    /// id of the (possibly pre-existing) label.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadDataset`] if `fingerprints` is empty.
    pub fn add_device_type(
        &mut self,
        label: &str,
        fingerprints: &[Fingerprint],
        seed: u64,
    ) -> Result<TypeId, CoreError> {
        if fingerprints.is_empty() {
            return Err(CoreError::BadDataset(format!(
                "no fingerprints supplied for new type {label}"
            )));
        }
        let id = self.registry.intern(label);
        for f in fingerprints {
            let fixed = f.to_fixed_with(self.config.fixed_prefix_len);
            self.pool.push((id, f.clone(), fixed));
        }
        let fresh = !self.models.contains_key(&id);
        self.train_type(id, seed ^ fnv1a(label.as_bytes()))?;
        // The common case — a type the bank has never seen, with an id
        // sorting after every compiled forest — appends its node
        // region and index row in O(new forest). Retraining an
        // existing type (its forest changed in place) or a label
        // interned out of order (the bank mirrors ascending-id order)
        // falls back to the full recompile.
        if fresh && self.compiled_ids.last().is_none_or(|last| *last < id) {
            self.append_compiled(id)?;
        } else {
            self.rebuild_compiled()?;
        }
        Ok(id)
    }

    /// Per-type models in id order: (id, classifier, references).
    /// Persistence path.
    pub(crate) fn models(&self) -> impl Iterator<Item = (TypeId, &TypeClassifier, &[Fingerprint])> {
        self.models
            .iter()
            .map(|(id, m)| (*id, &m.classifier, m.references.as_slice()))
    }

    /// The training-sample pool as (id, full fingerprint) pairs.
    /// Persistence path; fixed fingerprints are recomputed on load.
    pub(crate) fn pool_samples(&self) -> impl Iterator<Item = (TypeId, &Fingerprint)> {
        self.pool.iter().map(|(l, f, _)| (*l, f))
    }

    /// Reassembles an identifier from loaded parts (persistence path).
    /// `registry` must already contain every id referenced by `models`
    /// and `pool`; fixed fingerprints are recomputed from the full
    /// fingerprints with the loaded configuration's prefix length.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] when a loaded classifier forest
    /// cannot be compiled into the flat-arena bank (it is not binary —
    /// a malformed model document).
    pub(crate) fn from_parts(
        config: IdentifierConfig,
        registry: TypeRegistry,
        models: Vec<(TypeId, TypeClassifier, Vec<Fingerprint>)>,
        pool: Vec<(TypeId, Fingerprint)>,
    ) -> Result<Self, CoreError> {
        let mut identifier = DeviceTypeIdentifier::new(config);
        identifier.registry = registry;
        for (id, classifier, references) in models {
            identifier.models.insert(
                id,
                TypeModel {
                    classifier,
                    references,
                },
            );
        }
        for (id, fingerprint) in pool {
            let fixed = fingerprint.to_fixed_with(config.fixed_prefix_len);
            identifier.pool.push((id, fingerprint, fixed));
        }
        identifier.rebuild_compiled()?;
        Ok(identifier)
    }

    /// The device types this identifier can recognise, sorted by name.
    pub fn known_types(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .models
            .keys()
            .map(|id| self.registry.name(*id))
            .collect();
        names.sort_unstable();
        names
    }

    /// The ids of the types this identifier can recognise, in id
    /// (interning) order.
    pub fn known_type_ids(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.models.keys().copied()
    }

    /// Number of known types (= number of classifiers).
    pub fn type_count(&self) -> usize {
        self.models.len()
    }

    /// Stage one only: which classifiers accept `fixed`?
    ///
    /// Runs the compiled flat-arena bank with early-exit voting.
    /// Exposed separately for the timing evaluation (Table IV times
    /// classification and discrimination independently); hot-path
    /// callers should prefer
    /// [`DeviceTypeIdentifier::classify_candidates_into`], which reuses
    /// the caller's buffers instead of allocating the result.
    pub fn classify_candidates(&self, fixed: &FixedFingerprint) -> Vec<TypeId> {
        let mut out = Vec::new();
        self.classify_into(fixed, &mut out);
        out
    }

    /// Allocation-free stage one: fills `scratch` with the ids of the
    /// classifiers accepting `fixed` (read them back via
    /// [`CandidateScratch::candidates`]), reusing the scratch's buffer
    /// capacity across calls.
    pub fn classify_candidates_into(
        &self,
        fixed: &FixedFingerprint,
        scratch: &mut CandidateScratch,
    ) {
        self.classify_into(fixed, &mut scratch.candidates);
    }

    /// Stage one through the compiled bank **without** the
    /// feature-usage prefilter: every forest is walked. The PR-4 full
    /// scan, kept for A/B benchmarks against the indexed path.
    pub fn classify_candidates_full(&self, fixed: &FixedFingerprint) -> Vec<TypeId> {
        let mut out = Vec::new();
        let ids = &self.compiled_ids;
        self.compiled
            .for_each_accepting_full(fixed.as_slice(), |index| out.push(ids[index]));
        out
    }

    /// Stage one across `shards` span ranges on the global compute
    /// pool: each range is scanned (prefilter included) by a pool
    /// task, and the per-shard candidate lanes are merged in shard
    /// order — the result is **bit-identical** to
    /// [`DeviceTypeIdentifier::classify_candidates`], including order.
    /// Banks under the pool hand-off break-even run inline on the
    /// caller instead (`sentinel_ml::SHARDED_MIN_FORESTS`). Allocates
    /// the returned `Vec` (and a per-call scratch); hot-path callers
    /// should prefer
    /// [`DeviceTypeIdentifier::classify_candidates_sharded_into`].
    pub fn classify_candidates_sharded(
        &self,
        fixed: &FixedFingerprint,
        shards: usize,
    ) -> Vec<TypeId> {
        let mut scratch = ShardedScratch::new();
        self.classify_candidates_sharded_into(fixed, shards, &mut scratch);
        std::mem::take(&mut scratch.candidates)
    }

    /// [`DeviceTypeIdentifier::classify_candidates_sharded`] against a
    /// caller-owned scratch: the per-shard lanes and the candidate
    /// list reuse `scratch`'s buffers (read the result back via
    /// [`ShardedScratch::candidates`]). Warm calls allocate nothing
    /// and spawn nothing, inline or pooled.
    pub fn classify_candidates_sharded_into(
        &self,
        fixed: &FixedFingerprint,
        shards: usize,
        scratch: &mut ShardedScratch,
    ) {
        debug_assert_eq!(
            self.compiled_ids.len(),
            self.models.len(),
            "compiled bank out of sync with models — a mutation path \
             forgot to call rebuild_compiled()"
        );
        let ShardedScratch { lanes, candidates } = scratch;
        candidates.clear();
        let ids = &self.compiled_ids;
        self.compiled
            .for_each_accepting_sharded(fixed.as_slice(), shards, lanes, |index| {
                candidates.push(ids[index])
            });
    }

    /// Shape and acceleration statistics of the compiled bank serving
    /// this identifier's stage one.
    pub fn bank_stats(&self) -> BankStats {
        BankStats {
            forests: self.compiled.forest_count(),
            nodes: self.compiled.node_count(),
            arena_bytes: self.compiled.arena_bytes(),
            indexed: self.compiled.is_indexed(),
            stripes: self.compiled.index().stripes(),
            quantized_forests: self.compiled.quantized_forest_count(),
            cluster_groups: self.compiled.clusters().group_count(),
            scan: self.compiled.scan_counters(),
        }
    }

    /// Physically relocates the compiled bank's node regions
    /// most-accepted-first, guided by the accept tallies recorded by
    /// every scan since the bank was built. Purely a layout change —
    /// candidate sets, their order, and every verdict are bit-identical
    /// before and after — but dense probes walk the hot forests as one
    /// contiguous prefix of the arena instead of scattered regions.
    /// Incremental appends keep working afterwards.
    pub fn optimize_bank_layout(&mut self) {
        self.compiled = self.compiled.rebuilt_hot_first();
    }

    /// Tiles this identifier's compiled bank `replicas` times for
    /// type-count scaling experiments, keeping the forest→[`TypeId`]
    /// mapping: all copies share this identifier's registry, and
    /// forest `i` of the tiled bank answers for the type of base
    /// forest `i mod type_count`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadDataset`] when the identifier has no compiled
    /// forests or `replicas` is zero; [`CoreError::Ml`] when the tiled
    /// arena would overflow the 31-bit reference space
    /// ([`CompiledBank::try_repeat`]).
    pub fn replicated_bank(&self, replicas: usize) -> Result<ReplicatedBank, CoreError> {
        if self.compiled_ids.is_empty() || replicas == 0 {
            return Err(CoreError::BadDataset(
                "replicating needs a trained bank and at least one copy".into(),
            ));
        }
        Ok(ReplicatedBank {
            bank: self.compiled.try_repeat(replicas)?,
            base_ids: self.compiled_ids.clone(),
        })
    }

    /// Stage one through the reference tree-walking interpreter (one
    /// [`TypeClassifier`] at a time, no arena, no early exit). Kept as
    /// the semantic baseline the compiled bank is pinned against —
    /// candidate sets must be bit-identical — and for A/B benchmarks.
    pub fn classify_candidates_interpreted(&self, fixed: &FixedFingerprint) -> Vec<TypeId> {
        self.models
            .iter()
            .filter(|(_, m)| {
                m.classifier
                    .matches(fixed, self.config.accept_threshold)
                    .unwrap_or(false)
            })
            .map(|(id, _)| *id)
            .collect()
    }

    fn classify_into(&self, fixed: &FixedFingerprint, out: &mut Vec<TypeId>) {
        debug_assert_eq!(
            self.compiled_ids.len(),
            self.models.len(),
            "compiled bank out of sync with models — a mutation path \
             forgot to call rebuild_compiled()"
        );
        out.clear();
        let sample = fixed.as_slice();
        let ids = &self.compiled_ids;
        self.compiled
            .for_each_accepting(sample, |index| out.push(ids[index]));
    }

    /// The reference fingerprints stored for `id`, if known.
    pub fn references(&self, id: TypeId) -> Option<&[Fingerprint]> {
        self.models.get(&id).map(|m| m.references.as_slice())
    }

    /// The reference fingerprints stored for a type name, if known.
    pub fn references_by_name(&self, label: &str) -> Option<&[Fingerprint]> {
        self.references(self.registry.get(label)?)
    }

    /// Identifies a device from its full fingerprint F.
    ///
    /// Stage one runs the compiled classifier bank on F′; stage two
    /// discriminates multiple matches with edit distance over F. Uses
    /// a per-thread [`CandidateScratch`], so the warm
    /// single-candidate/unknown path performs **zero** heap
    /// allocations end to end (each worker thread owns its own
    /// scratch, so concurrent identification never contends). Callers
    /// that manage their own scratch lifetimes should use
    /// [`DeviceTypeIdentifier::identify_with`] directly; callers that
    /// need only the winner should use
    /// [`DeviceTypeIdentifier::verdict`], which never allocates.
    pub fn identify(&self, fingerprint: &Fingerprint) -> Identification {
        QUERY_SCRATCH.with(|scratch| self.identify_with(fingerprint, &mut scratch.borrow_mut()))
    }

    /// [`DeviceTypeIdentifier::identify`] without the discrimination
    /// scores: the same winner and accepted count, and a warm call
    /// performs zero heap allocations on every outcome, stage two
    /// included. This is what the service answers queries with.
    pub fn verdict(&self, fingerprint: &Fingerprint) -> Verdict {
        QUERY_SCRATCH.with(|scratch| self.verdict_with(fingerprint, &mut scratch.borrow_mut()))
    }

    /// [`DeviceTypeIdentifier::identify`] against a caller-owned
    /// scratch: the F′ conversion, the candidate list and the
    /// discrimination scores all reuse `scratch`'s buffers. On the
    /// single-candidate and unknown outcomes the returned
    /// [`Identification`] owns no heap data, so a warm call allocates
    /// nothing at all; when discrimination runs, only the returned
    /// score vector is allocated.
    pub fn identify_with(
        &self,
        fingerprint: &Fingerprint,
        scratch: &mut CandidateScratch,
    ) -> Identification {
        self.verdict_with(fingerprint, scratch)
            .with_scores(&scratch.scores)
    }

    /// [`DeviceTypeIdentifier::verdict`] against a caller-owned
    /// scratch. The ranked scores stay readable through
    /// [`CandidateScratch::scores`].
    pub fn verdict_with(
        &self,
        fingerprint: &Fingerprint,
        scratch: &mut CandidateScratch,
    ) -> Verdict {
        debug_assert_eq!(
            self.compiled_ids.len(),
            self.models.len(),
            "compiled bank out of sync with models — a mutation path \
             forgot to call rebuild_compiled()"
        );
        let CandidateScratch {
            fixed,
            candidates,
            scores,
        } = scratch;
        // Clearing up front keeps the scratch accessors honest: after
        // a query that needed no discrimination, `scores()` is empty
        // rather than echoing an earlier query's ranking.
        scores.clear();
        let fx = fixed.fill(fingerprint, self.config.fixed_prefix_len);
        {
            candidates.clear();
            let sample = fx.as_slice();
            let ids = &self.compiled_ids;
            self.compiled
                .for_each_accepting(sample, |index| candidates.push(ids[index]));
        }
        self.stage_two(fingerprint, candidates, scores)
    }

    /// [`DeviceTypeIdentifier::verdict_with`] with stage one fanned
    /// out across `pool` via the pooled sharded scan (`shards` span
    /// ranges, candidate order bit-identical to the serial scan).
    /// Stage two is shared with the serial path, so the verdict is
    /// exactly [`DeviceTypeIdentifier::verdict`]'s, and the ranked
    /// scores stay readable through [`CandidateScratch::scores`]. This
    /// is the large-bank query path, and the inner half of the nested
    /// batch×shard fan-out: called from a task already on `pool`, the
    /// scan's sub-tasks ride the same workers through work-stealing
    /// instead of spawning. Warm calls allocate nothing and spawn
    /// nothing.
    pub fn verdict_sharded_on(
        &self,
        pool: &sentinel_pool::ComputePool,
        fingerprint: &Fingerprint,
        shards: usize,
        scratch: &mut CandidateScratch,
        lanes: &mut ShardScratch,
    ) -> Verdict {
        debug_assert_eq!(
            self.compiled_ids.len(),
            self.models.len(),
            "compiled bank out of sync with models — a mutation path \
             forgot to call rebuild_compiled()"
        );
        let CandidateScratch {
            fixed,
            candidates,
            scores,
        } = scratch;
        scores.clear();
        let fx = fixed.fill(fingerprint, self.config.fixed_prefix_len);
        candidates.clear();
        let ids = &self.compiled_ids;
        self.compiled
            .for_each_accepting_pooled(pool, fx.as_slice(), shards, lanes, |index| {
                candidates.push(ids[index])
            });
        self.stage_two(fingerprint, candidates, scores)
    }

    /// The stage-two tail shared by every identify variant: resolve
    /// the accepted candidate set to a [`Verdict`], running
    /// edit-distance discrimination only when more than one classifier
    /// accepted. `scores` must arrive cleared; it leaves holding the
    /// ranking, best first, when discrimination ran.
    fn stage_two(
        &self,
        fingerprint: &Fingerprint,
        candidates: &[TypeId],
        scores: &mut Vec<(TypeId, f64)>,
    ) -> Verdict {
        let device_type = match candidates {
            [] => None,
            [only] => Some(*only),
            _ => {
                for id in candidates {
                    let score = dissimilarity_over(
                        fingerprint,
                        &self.models[id].references,
                        self.config.distance,
                    );
                    scores.push((*id, score));
                }
                // Stable ascending sort: ties break toward the earlier
                // (lower-id) candidate, like `rank_candidates`.
                scores.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                Some(scores[0].0)
            }
        };
        Verdict {
            device_type,
            accepted: candidates.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use sentinel_fingerprint::{LabeledFingerprint, PacketFeatures};

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            tags.iter()
                .map(|t| {
                    let mut v = [0u32; 23];
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                "TypeA",
                fp(&[100 + i, 110, 120, 130]),
            ));
            ds.push(LabeledFingerprint::new(
                "TypeB",
                fp(&[500 + i, 510, 520, 530]),
            ));
            ds.push(LabeledFingerprint::new(
                "TypeC",
                fp(&[900 + i, 910, 920, 930]),
            ));
        }
        ds
    }

    fn trained() -> DeviceTypeIdentifier {
        Trainer::default().train(&dataset(), 17).unwrap()
    }

    #[test]
    fn identifies_known_types() {
        let id = trained();
        assert_eq!(id.type_count(), 3);
        let result = id.identify(&fp(&[104, 110, 120, 130]));
        assert_eq!(id.name_of(&result), Some("TypeA"));
        let result = id.identify(&fp(&[505, 510, 520, 530]));
        assert_eq!(id.name_of(&result), Some("TypeB"));
    }

    /// Fingerprint whose columns carry a binary protocol pattern
    /// (`bits`) plus a size — the shape real F′ vectors have. Binary
    /// features are what keeps unknown devices from extrapolating into
    /// a known type's acceptance region.
    fn typed_fp(bits: u32, sizes: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            sizes
                .iter()
                .map(|t| {
                    let mut v = [0u32; 23];
                    for (b, slot) in v.iter_mut().enumerate().take(12) {
                        *slot = (bits >> b) & 1;
                    }
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    #[test]
    fn rejects_alien_fingerprints_as_unknown() {
        // Known types have distinct protocol-bit patterns; the alien
        // uses a pattern never seen in training, so every classifier's
        // trees route it to negative leaves.
        // Size ranges are shared across types, so separation rests on
        // the protocol bits alone — as for real devices whose frame
        // sizes overlap.
        let mut ds = Dataset::new();
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                "BitsA",
                typed_fp(0b0001, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "BitsB",
                typed_fp(0b0010, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "BitsC",
                typed_fp(0b0100, &[100 + i, 110, 120]),
            ));
        }
        let id = Trainer::default().train(&ds, 21).unwrap();
        // Sanity: known patterns are recognised.
        assert_eq!(
            id.name_of(&id.identify(&typed_fp(0b0001, &[104, 110, 120]))),
            Some("BitsA")
        );
        let result = id.identify(&typed_fp(0b1000, &[104, 110, 120]));
        assert_eq!(result, Identification::Unknown);
        assert_eq!(result.device_type(), None);
        assert!(!result.needed_discrimination());
    }

    #[test]
    fn incremental_add_does_not_disturb_existing_types() {
        let mut id = trained();
        let before = id.identify(&fp(&[104, 110, 120, 130]));
        let new_fps: Vec<Fingerprint> = (0..10).map(|i| fp(&[3000 + i, 3010, 3020])).collect();
        let new_id = id.add_device_type("TypeNew", &new_fps, 5).unwrap();
        assert_eq!(id.type_count(), 4);
        assert_eq!(id.type_name(new_id), "TypeNew");
        // Old prediction unchanged.
        let after = id.identify(&fp(&[104, 110, 120, 130]));
        assert_eq!(before.device_type(), after.device_type());
        // New type recognised, under the id interning returned.
        let novel = id.identify(&fp(&[3004, 3010, 3020]));
        assert_eq!(novel.device_type(), Some(new_id));
        assert_eq!(id.name_of(&novel), Some("TypeNew"));
    }

    #[test]
    fn discrimination_runs_for_overlapping_types() {
        // Two types with heavily overlapping feature distributions force
        // multi-candidate matches.
        let mut ds = Dataset::new();
        for i in 0..20u32 {
            ds.push(LabeledFingerprint::new(
                "TwinOne",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            ds.push(LabeledFingerprint::new(
                "TwinTwo",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            // Twelve far types dilute the negative pool the way the
            // paper's 27-type dataset does.
            for far in 0..12u32 {
                ds.push(LabeledFingerprint::new(
                    format!("Far{far}").leak() as &str,
                    fp(&[900 + 50 * far, 910 + 50 * far, 920 + 50 * far]),
                ));
            }
        }
        let id = Trainer::default().train(&ds, 3).unwrap();
        let result = id.identify(&fp(&[100, 110, 120]));
        match &result {
            Identification::Known {
                accepted, scores, ..
            } => {
                assert!(*accepted >= 2, "twins should both match");
                assert!(result.needed_discrimination());
                assert_eq!(scores.len(), *accepted);
                assert!(
                    scores.windows(2).all(|w| w[0].1 <= w[1].1),
                    "scores are ranked best first"
                );
                assert!(
                    result.distance_computations(5) >= 10,
                    "2 candidates x 5 refs"
                );
            }
            Identification::Unknown => panic!("twin fingerprint must be recognised"),
        }
    }

    #[test]
    fn scratch_scores_reset_when_discrimination_is_skipped() {
        // Twins force discrimination; a far type resolves on a single
        // classifier. The scratch must not echo the twins' ranking
        // after the single-candidate query.
        let mut ds = Dataset::new();
        for i in 0..20u32 {
            ds.push(LabeledFingerprint::new(
                "TwinOne",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            ds.push(LabeledFingerprint::new(
                "TwinTwo",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            for far in 0..12u32 {
                ds.push(LabeledFingerprint::new(
                    format!("Far{far}").leak() as &str,
                    fp(&[900 + 50 * far, 910 + 50 * far, 920 + 50 * far]),
                ));
            }
        }
        let id = Trainer::default().train(&ds, 3).unwrap();
        let mut scratch = CandidateScratch::new();
        let twin = id.identify_with(&fp(&[100, 110, 120]), &mut scratch);
        assert!(twin.needed_discrimination());
        assert!(!scratch.scores().is_empty());

        let far = id.identify_with(&fp(&[900, 910, 920]), &mut scratch);
        assert!(!far.needed_discrimination());
        assert!(
            scratch.scores().is_empty(),
            "scores from the twin query must not survive a \
             no-discrimination query"
        );
    }

    #[test]
    fn compiled_bank_matches_interpreter() {
        let id = trained();
        assert_eq!(id.compiled_bank().forest_count(), id.type_count());
        let mut scratch = CandidateScratch::new();
        for probe in [
            fp(&[104, 110, 120, 130]),
            fp(&[505, 510, 520, 530]),
            fp(&[905, 910, 920, 930]),
            fp(&[1, 2, 3]),
            Fingerprint::from_columns(Vec::new()),
        ] {
            let fixed = probe.to_fixed_with(id.config().fixed_prefix_len);
            let compiled = id.classify_candidates(&fixed);
            assert_eq!(
                compiled,
                id.classify_candidates_interpreted(&fixed),
                "compiled and interpreted banks disagree on {probe:?}"
            );
            id.classify_candidates_into(&fixed, &mut scratch);
            assert_eq!(scratch.candidates(), compiled.as_slice());
            // identify_with agrees with identify (same scratch reuse).
            assert_eq!(id.identify_with(&probe, &mut scratch), id.identify(&probe));
        }
    }

    #[test]
    fn wrong_dimension_fixed_rejects_everywhere() {
        // A fixed fingerprint built with the wrong prefix length is
        // rejected by both the interpreter (dimension-mismatch ->
        // unmatched) and the compiled bank (per-forest check).
        let id = trained();
        let probe = fp(&[104, 110, 120, 130]);
        let wrong = probe.to_fixed_with(3);
        assert!(id.classify_candidates(&wrong).is_empty());
        assert!(id.classify_candidates_interpreted(&wrong).is_empty());
    }

    /// Every stage-one entry point — indexed, full scan, sharded at
    /// several widths, caller-scratch — must agree with the
    /// interpreter bit for bit.
    fn assert_all_scans_agree(id: &DeviceTypeIdentifier, probe: &Fingerprint) {
        let fixed = probe.to_fixed_with(id.config().fixed_prefix_len);
        let interpreted = id.classify_candidates_interpreted(&fixed);
        assert_eq!(id.classify_candidates(&fixed), interpreted);
        assert_eq!(id.classify_candidates_full(&fixed), interpreted);
        let mut scratch = ShardedScratch::new();
        for shards in [1usize, 2, 3, 8] {
            assert_eq!(
                id.classify_candidates_sharded(&fixed, shards),
                interpreted,
                "sharded({shards}) diverged on {probe:?}"
            );
            id.classify_candidates_sharded_into(&fixed, shards, &mut scratch);
            assert_eq!(scratch.candidates(), interpreted.as_slice());
        }
    }

    #[test]
    fn incremental_append_keeps_every_scan_path_in_parity() {
        let mut id = trained();
        let stats_before = id.bank_stats();
        assert!(stats_before.indexed);
        assert_eq!(stats_before.stripes, 23);
        assert_eq!(stats_before.forests, 3);
        // Two incremental additions ride the append fast path (fresh
        // labels, ascending ids).
        for (label, base) in [("TypeD", 3000u32), ("TypeE", 4000)] {
            let fps: Vec<Fingerprint> = (0..10)
                .map(|i| fp(&[base + i, base + 10, base + 20]))
                .collect();
            id.add_device_type(label, &fps, 5).unwrap();
            for probe in [
                fp(&[104, 110, 120, 130]),
                fp(&[505, 510, 520, 530]),
                fp(&[base + 4, base + 10, base + 20]),
                fp(&[1, 2, 3]),
            ] {
                assert_all_scans_agree(&id, &probe);
            }
        }
        let stats_after = id.bank_stats();
        assert_eq!(stats_after.forests, 5);
        assert!(stats_after.indexed, "appends keep the index usable");
        assert!(stats_after.nodes >= stats_before.nodes);
    }

    #[test]
    fn hot_first_layout_and_quantization_keep_scans_identical() {
        let mut id = trained();
        let stats = id.bank_stats();
        // Training thresholds are f32 midpoints stored bit-exactly —
        // every forest quantizes with a build-time proof — and
        // distinct types compile to distinct cluster groups.
        assert_eq!(stats.quantized_forests, stats.forests);
        assert_eq!(stats.cluster_groups, stats.forests);
        let probes = [
            fp(&[104, 110, 120, 130]),
            fp(&[505, 510, 520, 530]),
            fp(&[905, 910, 920, 930]),
            fp(&[1, 2, 3]),
        ];
        // Warm the accept tallies, then relocate hottest-first.
        for probe in &probes {
            assert_all_scans_agree(&id, probe);
        }
        id.optimize_bank_layout();
        let after = id.bank_stats();
        assert_eq!(after.forests, stats.forests);
        assert_eq!(after.nodes, stats.nodes);
        assert_eq!(after.quantized_forests, stats.quantized_forests);
        for probe in &probes {
            assert_all_scans_agree(&id, probe);
        }
        // Appends still ride the incremental path after relocation.
        let fps: Vec<Fingerprint> = (0..10).map(|i| fp(&[8000 + i, 8010, 8020])).collect();
        id.add_device_type("PostLayout", &fps, 13).unwrap();
        let grown = id.bank_stats();
        assert_eq!(grown.forests, stats.forests + 1);
        assert_eq!(grown.quantized_forests, grown.forests);
        let extra = fp(&[8004, 8010, 8020]);
        for probe in probes.iter().chain(std::iter::once(&extra)) {
            assert_all_scans_agree(&id, probe);
        }
    }

    #[test]
    fn out_of_order_interning_and_retrains_fall_back_to_recompiles() {
        let mut id = trained();
        // Interned now, trained later: its id sorts *before* the next
        // fresh label's, so training it below cannot append at the
        // bank's tail.
        id.registry_mut().intern("AheadOfTime");
        let late: Vec<Fingerprint> = (0..10).map(|i| fp(&[5000 + i, 5010, 5020])).collect();
        id.add_device_type("ZLate", &late, 7).unwrap();
        let early: Vec<Fingerprint> = (0..10).map(|i| fp(&[7000 + i, 7010, 7020])).collect();
        id.add_device_type("AheadOfTime", &early, 9).unwrap();
        assert_eq!(id.type_count(), 5);
        // Retraining an existing type (forest replaced in place) also
        // recompiles rather than appending a duplicate forest.
        let retrain: Vec<Fingerprint> = (0..10).map(|i| fp(&[100 + i, 110, 120, 130])).collect();
        id.add_device_type("TypeA", &retrain, 11).unwrap();
        assert_eq!(id.type_count(), 5);
        assert_eq!(id.bank_stats().forests, 5);
        for probe in [
            fp(&[104, 110, 120, 130]),
            fp(&[5004, 5010, 5020]),
            fp(&[7004, 7010, 7020]),
            fp(&[905, 910, 920, 930]),
        ] {
            assert_all_scans_agree(&id, &probe);
        }
    }

    fn leaf_only_identifier() -> DeviceTypeIdentifier {
        use sentinel_ml::{ForestConfig, TreeConfig};
        let config = IdentifierConfig {
            forest: ForestConfig {
                n_trees: 3,
                tree: TreeConfig {
                    max_depth: 0,
                    ..TreeConfig::default()
                },
                bootstrap: true,
                threads: 1,
            },
            ..IdentifierConfig::default()
        };
        Trainer::new(config).train(&dataset(), 3).unwrap()
    }

    #[test]
    fn replicated_bank_maps_forests_to_types_past_u16_max() {
        // Regression: the forest→TypeId mapping of a tiled bank must
        // stay exact when the replicated type count exceeds u16::MAX —
        // all copies share one registry slice, so the mapping is a
        // usize modulo, never a narrowed index. Leaf-only forests keep
        // the 120k-forest arena tiny (zero packed nodes).
        let id = leaf_only_identifier();
        let base: Vec<TypeId> = id.known_type_ids().collect();
        assert_eq!(base.len(), 3);
        let replicas = 40_000usize;
        let tiled = id.replicated_bank(replicas).unwrap();
        assert_eq!(tiled.type_count(), 120_000);
        assert_eq!(tiled.base_count(), 3);
        assert!(tiled.type_count() > usize::from(u16::MAX));
        for index in [0usize, 1, 2, 3, 65_535, 65_536, 65_537, 99_999, 119_999] {
            assert_eq!(
                tiled.type_of(index),
                Some(base[index % 3]),
                "forest {index} mapped to the wrong bank copy"
            );
        }
        assert_eq!(tiled.type_of(120_000), None);
        // The tiled arena answers like the base bank, copy for copy.
        let probe = fp(&[104, 110, 120, 130]).to_fixed_with(id.config().fixed_prefix_len);
        let base_accepts: Vec<bool> = (0..3)
            .map(|i| id.compiled_bank().accepts(i, probe.as_slice()))
            .collect();
        for index in [3usize, 65_537, 119_997] {
            assert_eq!(
                tiled.bank().accepts(index, probe.as_slice()),
                base_accepts[index % 3]
            );
        }
    }

    #[test]
    fn replicated_bank_rejects_bad_shapes_with_typed_errors() {
        let id = trained();
        assert!(matches!(
            id.replicated_bank(0),
            Err(CoreError::BadDataset(_))
        ));
        // A tiling whose node references would wrap into earlier
        // copies must come back as a typed error, not a corrupt bank.
        let nodes = id.bank_stats().nodes;
        assert!(nodes > 0);
        let overflow = (1usize << 31) / nodes + 1;
        assert!(matches!(
            id.replicated_bank(overflow),
            Err(CoreError::Ml(_))
        ));
        let untrained = DeviceTypeIdentifier::new(IdentifierConfig::default());
        assert!(matches!(
            untrained.replicated_bank(4),
            Err(CoreError::BadDataset(_))
        ));
    }

    #[test]
    fn references_stored_per_type() {
        let id = trained();
        let refs = id.references_by_name("TypeA").unwrap();
        assert_eq!(refs.len(), 5);
        assert!(id.references_by_name("NoSuchType").is_none());
        let type_a = id.registry().get("TypeA").unwrap();
        assert_eq!(id.references(type_a).unwrap().len(), 5);
    }

    #[test]
    fn add_device_type_rejects_empty() {
        let mut id = trained();
        assert!(matches!(
            id.add_device_type("Empty", &[], 1),
            Err(CoreError::BadDataset(_))
        ));
    }

    #[test]
    fn known_types_sorted() {
        let id = trained();
        assert_eq!(id.known_types(), vec!["TypeA", "TypeB", "TypeC"]);
    }

    #[test]
    fn registry_covers_all_trained_types() {
        let id = trained();
        let ids: Vec<TypeId> = id.known_type_ids().collect();
        assert_eq!(ids.len(), 3);
        for tid in ids {
            assert!(id.registry().try_name(tid).is_some());
        }
    }
}
