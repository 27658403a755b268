//! Order statistics over the benchmark's own sample vectors.
//!
//! Every reported number is a median or a percentile of exact samples
//! (never a bucketed histogram): the bounds in `BENCHMARK.json` are a few
//! percent, which the daemon's log2 histograms cannot resolve.
//!
//! Throughputs and the timings of set-up and of the layer probes are those
//! of the *fastest* samples ([`fast_rate`], [`fast_time`]). On a shared
//! host the slow samples measure the neighbours: they come in bursts of
//! seconds that drag the median of a run by up to a quarter, while its
//! fast tail repeats from run to run.

/// The `q`-quantile (`0.0..=1.0`) by the nearest-rank rule: the smallest
/// sample with at least `q` of the samples at or below it. `None` for an
/// empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The share of the samples taken to be undisturbed by the host.
const FAST_SHARE: f64 = 0.05;

/// The time the fastest samples took: the 5th percentile, which is the
/// smallest of twenty samples or fewer.
pub fn fast_time(samples: &[f64]) -> Option<f64> {
    percentile(samples, FAST_SHARE)
}

/// The rate the fastest samples reached: the 95th percentile, which is
/// the largest of fewer than twenty samples.
pub fn fast_rate(samples: &[f64]) -> Option<f64> {
    percentile(samples, 1.0 - FAST_SHARE)
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), Some(50.0));
        assert_eq!(percentile(&s, 0.95), Some(95.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        // Ten samples: p95 needs the 10th (ceil(9.5)).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.95), Some(10.0));
        assert_eq!(percentile(&ten, 0.90), Some(9.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), Some(5.0));
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.67), Some(9.0));
    }

    #[test]
    fn fast_samples_are_the_tail_a_stalled_host_cannot_reach() {
        // Forty epochs at 8 Mpackets/s, of which a burst slowed fifteen.
        let mut rates = vec![8.0; 25];
        rates.extend((0..15).map(|i| 4.0 + f64::from(i) * 0.2));
        assert_eq!(median(&rates), Some(8.0));
        assert_eq!(fast_rate(&rates), Some(8.0));
        rates.extend(vec![5.0; 20]);
        assert!(median(&rates).unwrap() < 6.0);
        assert_eq!(fast_rate(&rates), Some(8.0));
        // One outlier above the plateau does not set the rate of 40 epochs.
        let mut rates = vec![8.0; 39];
        rates.push(11.0);
        assert_eq!(fast_rate(&rates), Some(8.0));
        // Times: the smallest of up to twenty, the second of twenty-one.
        let times: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(fast_time(&times[..3]), Some(1.0));
        assert_eq!(fast_time(&times[..20]), Some(1.0));
        assert_eq!(fast_time(&times), Some(2.0));
        assert_eq!(fast_rate(&times[..19]), Some(19.0));
        assert_eq!(fast_rate(&times[..20]), Some(19.0));
        assert_eq!(fast_time(&[]), None);
    }

    #[test]
    fn median_of_epochs_for_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
