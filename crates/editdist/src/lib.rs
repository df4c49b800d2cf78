//! Damerau-Levenshtein edit distance over packet words (paper §IV-B-2).
//!
//! When several per-type classifiers accept a fingerprint, IoT Sentinel
//! discriminates by "computing Damerau-Levenshtein edit distance
//! considering the insertion, deletion, substitution and immediate
//! transposition of characters", treating the fingerprint matrix F "as
//! a word with each character being a column of the matrix, i.e. a
//! packet pᵢ", with character equality requiring **all 23 features** to
//! match. The absolute distance is normalised by the longer word's
//! length to `[0, 1]`.
//!
//! The insert/delete/substitute/adjacent-transpose operation set is the
//! *optimal string alignment* (OSA) variant ([`osa`]); the unrestricted
//! Damerau-Levenshtein variant ([`damerau`]) and plain Levenshtein are
//! provided for the distance-variant ablation.
//!
//! # The bit-parallel kernel
//!
//! Stage two scores one query against five references of every
//! accepting type, so it runs the edit distance tens to hundreds of
//! times per query. [`fingerprint_distance`], [`dissimilarity_over`]
//! and [`dissimilarity_score`] therefore run OSA through Hyyrö's
//! bit-vector algorithm (H. Hyyrö, "A bit-vector algorithm for
//! computing Levenshtein and Damerau edit distances", Nordic Journal
//! of Computing 10(1), 2003) and Levenshtein through the same kernel
//! without its transposition term (Myers 1999) — see [`bitpar`]. The
//! query word is the pattern: one `u64` holds a DP column of up to 64
//! packets, and each reference packet advances it with a dozen word
//! operations instead of one cell update per query packet.
//!
//! A pattern needs one match mask per distinct packet column. The
//! masks sit in a 128-slot open-addressing table keyed by the full
//! 23-feature column: a xor-fold of the features picks the slot, and
//! an exact compare with the stored pattern packet confirms every hit,
//! so distances never depend on the hash. The table is built once per
//! scoring call, on the stack, so stage two allocates nothing.
//!
//! A query longer than 64 packets falls back to the `O(n·m)` DP
//! ([`osa_distance`], [`levenshtein`]); full Damerau-Levenshtein always
//! runs its DP. Kernel and DP agree exactly (pinned by property tests),
//! and scores are summed in reference order, so every score is
//! bit-identical to the DP's.
//!
//! # Example
//!
//! ```
//! use sentinel_editdist::{normalized_osa, osa_distance};
//!
//! let a = ["dhcp", "arp", "dns", "ntp"];
//! let b = ["dhcp", "dns", "arp", "ntp"]; // one adjacent transposition
//! assert_eq!(osa_distance(&a, &b), 1);
//! assert_eq!(normalized_osa(&a, &b), 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitpar;
pub mod damerau;
pub mod osa;
pub mod packet_word;
pub mod score;

pub use bitpar::PatternMasks;
pub use damerau::damerau_levenshtein;
pub use osa::{levenshtein, normalized_osa, osa_distance};
pub use packet_word::{fingerprint_distance, DistanceVariant};
pub use score::{dissimilarity_over, dissimilarity_score, rank_candidates};
