//! Fingerprints as words of packet characters.
//!
//! "We consider the matrix F as a word with each character being a
//! column of the matrix, i.e. a packet pᵢ. Character equality for edit
//! distance computation is considered if all features f from a packet
//! pᵢ are equal to those of another packet pⱼ." (§IV-B-2)
//!
//! [`PacketFeatures`] derives
//! `Eq` over all 23 features, so the generic distances apply directly
//! to fingerprint columns.

use sentinel_fingerprint::{Fingerprint, PacketFeatures};

use crate::bitpar::PatternMasks;
use crate::damerau::damerau_levenshtein;
use crate::osa::{levenshtein, osa_distance};

/// Which edit-distance variant to use on packet words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceVariant {
    /// Insertion, deletion, substitution, adjacent transposition — the
    /// paper's operation set (optimal string alignment).
    #[default]
    Osa,
    /// Unrestricted Damerau-Levenshtein.
    FullDamerau,
    /// Plain Levenshtein (no transpositions).
    Levenshtein,
}

/// Normalised edit distance between two fingerprints in `[0, 1]`:
/// the absolute packet-word distance divided by the length of the
/// longer fingerprint.
///
/// OSA and Levenshtein run the bit-parallel kernel ([`PatternMasks`])
/// with the shorter word as the pattern, and fall back to the DP when
/// both words exceed 64 packets; full Damerau-Levenshtein always runs
/// its DP. Every path returns the same distance.
///
/// # Examples
///
/// ```
/// use sentinel_editdist::{fingerprint_distance, DistanceVariant};
/// use sentinel_fingerprint::{Fingerprint, PacketFeatures};
///
/// let col = |tag: u32| {
///     let mut v = [0u32; 23];
///     v[18] = tag;
///     PacketFeatures::from_raw(v)
/// };
/// let a = Fingerprint::from_columns(vec![col(1), col(2), col(3), col(4)]);
/// let b = Fingerprint::from_columns(vec![col(1), col(3), col(2), col(4)]);
/// // One adjacent transposition across 4 packets.
/// assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Osa), 0.25);
/// // Levenshtein pays 2 for the swap.
/// assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Levenshtein), 0.5);
/// ```
pub fn fingerprint_distance(a: &Fingerprint, b: &Fingerprint, variant: DistanceVariant) -> f64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let masks = pattern_masks(short.columns(), variant);
    normalized(masks.as_ref(), short.columns(), long.columns(), variant)
}

/// The kernel's match masks for `pattern`, when `variant` runs on the
/// kernel and the pattern fits one word.
pub(crate) fn pattern_masks(
    pattern: &[PacketFeatures],
    variant: DistanceVariant,
) -> Option<PatternMasks<'_>> {
    match variant {
        DistanceVariant::FullDamerau => None,
        DistanceVariant::Osa | DistanceVariant::Levenshtein => PatternMasks::new(pattern),
    }
}

/// The normalised `variant` distance between `pattern` and `text`,
/// through `masks` (built from `pattern`) when the kernel covers the
/// variant and the word fits it, through the DP otherwise.
pub(crate) fn normalized(
    masks: Option<&PatternMasks<'_>>,
    pattern: &[PacketFeatures],
    text: &[PacketFeatures],
    variant: DistanceVariant,
) -> f64 {
    let longest = pattern.len().max(text.len());
    if longest == 0 {
        return 0.0;
    }
    let d = match (variant, masks) {
        (DistanceVariant::Osa, Some(masks)) => masks.osa(text),
        (DistanceVariant::Osa, None) => osa_distance(pattern, text),
        (DistanceVariant::Levenshtein, Some(masks)) => masks.levenshtein(text),
        (DistanceVariant::Levenshtein, None) => levenshtein(pattern, text),
        (DistanceVariant::FullDamerau, _) => damerau_levenshtein(pattern, text),
    };
    d as f64 / longest as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_fingerprint::PacketFeatures;

    fn col(tag: u32) -> PacketFeatures {
        let mut v = [0u32; 23];
        v[18] = tag;
        PacketFeatures::from_raw(v)
    }

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(tags.iter().map(|t| col(*t)).collect())
    }

    #[test]
    fn identical_fingerprints_have_zero_distance() {
        let a = fp(&[1, 2, 3]);
        for v in [
            DistanceVariant::Osa,
            DistanceVariant::FullDamerau,
            DistanceVariant::Levenshtein,
        ] {
            assert_eq!(fingerprint_distance(&a, &a, v), 0.0);
        }
    }

    #[test]
    fn empty_fingerprints() {
        let empty = Fingerprint::default();
        let a = fp(&[1, 2]);
        assert_eq!(
            fingerprint_distance(&empty, &empty, DistanceVariant::Osa),
            0.0
        );
        assert_eq!(fingerprint_distance(&a, &empty, DistanceVariant::Osa), 1.0);
    }

    #[test]
    fn normalization_uses_longer_word() {
        let a = fp(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = fp(&[1, 2, 3, 4]);
        // 4 deletions / length 8.
        assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Osa), 0.5);
    }

    #[test]
    fn character_equality_needs_all_features() {
        // Columns differing in a single feature are different
        // characters.
        let mut va = [0u32; 23];
        va[18] = 7;
        let mut vb = va;
        vb[20] = 1; // different dst-ip counter
        let a = Fingerprint::from_columns(vec![PacketFeatures::from_raw(va)]);
        let b = Fingerprint::from_columns(vec![PacketFeatures::from_raw(vb)]);
        assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Osa), 1.0);
    }

    #[test]
    fn variant_ordering_osa_between_dl_and_lev() {
        let a = fp(&[2, 1, 3, 4, 6, 5]);
        let b = fp(&[1, 2, 3, 4, 5, 6]);
        let dl = fingerprint_distance(&a, &b, DistanceVariant::FullDamerau);
        let osa = fingerprint_distance(&a, &b, DistanceVariant::Osa);
        let lev = fingerprint_distance(&a, &b, DistanceVariant::Levenshtein);
        assert!(dl <= osa);
        assert!(osa <= lev);
    }
}
