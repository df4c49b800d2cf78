//! Bit-parallel OSA and Levenshtein distances over packet words
//! (Hyyrö 2003, after Myers 1999).
//!
//! The pattern word — up to 64 packets — is one `u64` bit-vector per
//! distinct column: bit `i` of a column's match mask is set when
//! pattern packet `i` equals that column. One DP column of the
//! `(m + 1) × (n + 1)` matrix is then encoded as two vertical-delta
//! words (`VP`/`VN`), and each text packet advances the whole column
//! with a dozen word operations instead of `m` cell updates. Hyyrö's
//! OSA extension adds one term, `TR`, for adjacent transpositions;
//! without it the recurrence is Myers' Levenshtein kernel.
//!
//! The match masks live in [`PatternMasks`], a 128-slot
//! open-addressing table keyed by the full 23-feature column. The slot
//! comes from a xor-fold of the column's features; every hit is
//! confirmed by an exact compare with the pattern packet stored in the
//! slot, so a hash collision can only cost a probe, never a wrong
//! mask. A column absent from the pattern has mask 0. The table holds
//! at most 64 keys, so it is never more than half full. It lives on
//! the stack (about 1.1 KiB) and is built once per pattern, so scoring
//! one query against many references allocates nothing.
//!
//! Both distances are symmetric, so either word may serve as the
//! pattern; the results equal [`crate::osa_distance`] and
//! [`crate::levenshtein`] exactly.

use sentinel_fingerprint::PacketFeatures;

/// The longest pattern the single-word kernel handles.
pub const MAX_PATTERN: usize = 64;

/// Open-addressing table size: a power of two at least twice
/// [`MAX_PATTERN`], so probe chains stay short.
const SLOTS: usize = 128;

/// Per-column match masks of one pattern word of at most
/// [`MAX_PATTERN`] packets.
///
/// # Examples
///
/// ```
/// use sentinel_editdist::{osa_distance, PatternMasks};
/// use sentinel_fingerprint::PacketFeatures;
///
/// let col = |tag: u32| {
///     let mut v = [0u32; 23];
///     v[18] = tag;
///     PacketFeatures::from_raw(v)
/// };
/// let a = [col(1), col(2), col(3), col(4)];
/// let b = [col(1), col(3), col(2), col(4)];
/// let masks = PatternMasks::new(&a).expect("4 packets fit one word");
/// assert_eq!(masks.osa(&b), 1);
/// assert_eq!(masks.osa(&b), osa_distance(&a, &b));
/// assert_eq!(masks.levenshtein(&b), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PatternMasks<'p> {
    pattern: &'p [PacketFeatures],
    /// `1 + ` the pattern position of the column a slot holds; 0 marks
    /// an empty slot.
    keys: [u8; SLOTS],
    masks: [u64; SLOTS],
}

impl<'p> PatternMasks<'p> {
    /// Builds the match masks of `pattern`, or `None` when it is longer
    /// than [`MAX_PATTERN`] packets.
    pub fn new(pattern: &'p [PacketFeatures]) -> Option<Self> {
        if pattern.len() > MAX_PATTERN {
            return None;
        }
        let mut table = PatternMasks {
            pattern,
            keys: [0; SLOTS],
            masks: [0; SLOTS],
        };
        for (position, column) in pattern.iter().enumerate() {
            let slot = table.slot_of(column);
            if table.keys[slot] == 0 {
                // `position < 64`, so the key fits a u8.
                table.keys[slot] = position as u8 + 1;
            }
            table.masks[slot] |= 1 << position;
        }
        Some(table)
    }

    /// The slot holding `column`, or the empty slot ending its probe
    /// chain.
    fn slot_of(&self, column: &PacketFeatures) -> usize {
        let mut slot = slot_hash(column);
        loop {
            match self.keys[slot] {
                0 => return slot,
                key if self.pattern[usize::from(key) - 1] == *column => return slot,
                _ => slot = (slot + 1) % SLOTS,
            }
        }
    }

    /// The match mask of `column`: bit `i` is set iff pattern packet
    /// `i` equals it on all 23 features.
    fn mask(&self, column: &PacketFeatures) -> u64 {
        self.masks[self.slot_of(column)]
    }

    /// Optimal-string-alignment distance from the pattern to `text`,
    /// equal to [`crate::osa_distance`].
    pub fn osa(&self, text: &[PacketFeatures]) -> usize {
        self.distance::<true>(text)
    }

    /// Levenshtein distance from the pattern to `text`, equal to
    /// [`crate::levenshtein`].
    pub fn levenshtein(&self, text: &[PacketFeatures]) -> usize {
        self.distance::<false>(text)
    }

    /// Hyyrö's bit-vector recurrence; `TRANSPOSE` adds the OSA
    /// adjacent-transposition term.
    fn distance<const TRANSPOSE: bool>(&self, text: &[PacketFeatures]) -> usize {
        let m = self.pattern.len();
        if m == 0 {
            return text.len();
        }
        let last = 1u64 << (m - 1);
        // Bits above `m - 1` carry garbage that only ever propagates
        // upwards (shifts and carries move left), so they never reach
        // the `last` bit and need no masking.
        let mut vp = !0u64;
        let mut vn = 0u64;
        let mut d0 = 0u64;
        let mut previous_mask = 0u64;
        let mut distance = m;
        for column in text {
            let mask = self.mask(column);
            let mut diagonal = (((mask & vp).wrapping_add(vp)) ^ vp) | mask | vn;
            if TRANSPOSE {
                diagonal |= ((!d0 & mask) << 1) & previous_mask;
                previous_mask = mask;
            }
            d0 = diagonal;
            let hp = vn | !(d0 | vp);
            let hn = d0 & vp;
            distance += usize::from(hp & last != 0);
            distance -= usize::from(hn & last != 0);
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(d0 | hp);
            vn = hp & d0;
        }
        distance
    }
}

/// The table slot a column hashes to: the 23 features xor-folded into
/// four independent lanes (short dependency chains), the lanes
/// combined, spread by one multiply, top bits taken.
fn slot_hash(column: &PacketFeatures) -> usize {
    let mut lanes = [0u64; 4];
    for (i, &v) in column.values().iter().enumerate() {
        let lane = &mut lanes[i % 4];
        *lane = lane.rotate_left(11) ^ u64::from(v);
    }
    let folded =
        lanes[0] ^ lanes[1].rotate_left(5) ^ lanes[2].rotate_left(29) ^ lanes[3].rotate_left(47);
    (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osa::{levenshtein, osa_distance};
    use proptest::prelude::*;

    fn col(tag: u32) -> PacketFeatures {
        let mut v = [0u32; 23];
        v[18] = tag;
        PacketFeatures::from_raw(v)
    }

    fn word(tags: &[u32]) -> Vec<PacketFeatures> {
        tags.iter().map(|t| col(*t)).collect()
    }

    fn check(a: &[PacketFeatures], b: &[PacketFeatures]) {
        for (pattern, text) in [(a, b), (b, a)] {
            if let Some(masks) = PatternMasks::new(pattern) {
                assert_eq!(masks.osa(text), osa_distance(pattern, text));
                assert_eq!(masks.levenshtein(text), levenshtein(pattern, text));
            }
        }
    }

    #[test]
    fn classic_examples() {
        let kitten = word(&[11, 9, 20, 20, 5, 14]);
        let sitting = word(&[19, 9, 20, 20, 9, 14, 7]);
        let masks = PatternMasks::new(&kitten).unwrap();
        assert_eq!(masks.osa(&sitting), 3);
        assert_eq!(masks.levenshtein(&sitting), 3);
        // The OSA restriction: "ca" -> "abc" is 3, not full DL's 2.
        let ca = word(&[3, 1]);
        let abc = word(&[1, 2, 3]);
        assert_eq!(PatternMasks::new(&ca).unwrap().osa(&abc), 3);
        assert_eq!(PatternMasks::new(&abc).unwrap().osa(&ca), 3);
    }

    #[test]
    fn empty_words() {
        let empty = word(&[]);
        let abc = word(&[1, 2, 3]);
        assert_eq!(PatternMasks::new(&empty).unwrap().osa(&abc), 3);
        assert_eq!(PatternMasks::new(&abc).unwrap().osa(&empty), 3);
        assert_eq!(PatternMasks::new(&empty).unwrap().levenshtein(&empty), 0);
    }

    #[test]
    fn pattern_length_limit() {
        let full: Vec<u32> = (0..MAX_PATTERN as u32).collect();
        let full = word(&full);
        let masks = PatternMasks::new(&full).expect("64 packets fit one word");
        assert_eq!(masks.osa(&full), 0);
        let mut swapped = full.clone();
        swapped.swap(62, 63);
        assert_eq!(masks.osa(&swapped), 1);
        assert_eq!(masks.levenshtein(&swapped), 2);
        let too_long = word(&vec![7; MAX_PATTERN + 1]);
        assert!(PatternMasks::new(&too_long).is_none());
    }

    #[test]
    fn every_feature_distinguishes_columns() {
        // Columns differing in one feature are different characters,
        // whatever slot they hash to.
        let base = col(5);
        let pattern: Vec<PacketFeatures> = (0..23)
            .map(|f| {
                let mut v = *base.values();
                v[f] ^= 1;
                PacketFeatures::from_raw(v)
            })
            .collect();
        let masks = PatternMasks::new(&pattern).unwrap();
        assert_eq!(masks.mask(&base), 0);
        for (i, column) in pattern.iter().enumerate() {
            assert_eq!(masks.mask(column), 1 << i);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_dp_on_small_alphabets(
            alphabet in 1u32..5,
            a in proptest::collection::vec(0u32..4, 0..131),
            b in proptest::collection::vec(0u32..4, 0..131),
        ) {
            // Short words keep the DP oracle cheap, but the long tail
            // still crosses the 64-packet pattern limit.
            let a = word(&a.iter().map(|s| s % alphabet).collect::<Vec<_>>());
            let b = word(&b.iter().map(|s| s % alphabet).collect::<Vec<_>>());
            check(&a, &b);
        }

        #[test]
        fn matches_dp_on_edited_copies(
            a in proptest::collection::vec(0u32..64, 0..65),
            edits in proptest::collection::vec((0u32..4, 0usize..64, 0u32..64), 0..6),
        ) {
            // Near-duplicate words, as stage two sees them: up to 64
            // distinct columns fill the mask table half way.
            let mut b = a.clone();
            for (op, at, tag) in edits {
                let at = if b.is_empty() { 0 } else { at % b.len() };
                match op {
                    0 if !b.is_empty() => { b.remove(at); }
                    1 => b.insert(at, tag),
                    2 if !b.is_empty() => b[at] = tag,
                    _ if at + 1 < b.len() => b.swap(at, at + 1),
                    _ => {}
                }
            }
            check(&word(&a), &word(&b));
        }
    }
}
