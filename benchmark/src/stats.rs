//! Order statistics over measured samples.

/// Samples that must lie beyond a reported percentile: a tail figure
/// resting on fewer is noise.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The median of `values` (mean of the middle two for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`, or `None`
/// unless at least [`MIN_TAIL_SAMPLES`] samples lie strictly beyond
/// its rank. The p99 of 1000 samples is the 990th smallest, with ten
/// samples beyond it; with 999 samples p99 is refused.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The fewest samples for which [`tail_percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).min(n) >= MIN_TAIL_SAMPLES)
        .expect("some sample count supports every quantile below 1")
}

/// The median, over consecutive blocks of `values` each just large
/// enough for [`tail_percentile`] to report `q`, of each block's
/// `q`-quantile; `None` when `values` cannot fill one block. Given
/// samples in time order, a burst of slow samples confined to fewer
/// than half of the blocks does not move it, where the pooled quantile
/// jumps: on a shared host a few seconds of stolen CPU would otherwise
/// decide a whole run's tail figure.
pub fn block_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let blocks = n / samples_needed(q);
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|b| tail_percentile(&values[b * n / blocks..(b + 1) * n / blocks], q))
        .collect();
    median(&per_block)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&values[..999], 0.99), None);
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn median_rank_needs_only_ten_beyond() {
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&values[..19], 0.5), None);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let sorted_p99 = {
            let mut s = values.clone();
            s.sort_by(f64::total_cmp);
            tail_percentile(&s, 0.99)
        };
        values.reverse();
        assert_eq!(tail_percentile(&values, 0.99), sorted_p99);
        assert_eq!(sorted_p99, Some(1979.0));
    }

    #[test]
    fn block_p99_ignores_a_burst_confined_to_one_block() {
        let steady: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000 + 1)).collect();
        assert_eq!(block_percentile(&steady, 0.99), Some(990.0));
        let mut burst = steady.clone();
        for value in &mut burst[1000..1100] {
            *value = 1e6;
        }
        assert_eq!(tail_percentile(&burst, 0.99), Some(1e6));
        assert_eq!(block_percentile(&burst, 0.99), Some(990.0));
    }

    #[test]
    fn block_p99_needs_one_full_block() {
        let values: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(block_percentile(&values[..999], 0.99), None);
        // 1999 samples make one block; its p99 rests on 19 beyond.
        assert_eq!(block_percentile(&values, 0.99), tail_percentile(&values, 0.99));
    }

    #[test]
    fn empty_and_degenerate_inputs_are_refused() {
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&[1.0; 5], 0.0), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }
}
