//! Order statistics and the comparison rule.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Lower and upper quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so a spread printed here is the spread the driver sees.  With
/// fewer than two values both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    assert!(m > 0, "quartiles of no values");
    if m < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The quietest observation of each unit of work: the element-wise minimum
/// of several repetitions' per-unit times.
///
/// Every repetition of a pass does the same work quantum by quantum, so
/// anything above a quantum's fastest time is interference from outside
/// the program (on a shared box the same loop runs up to 40 % slower for
/// seconds at a time, and interference only ever adds time).  A median
/// over passes keeps that noise; the per-quantum minimum drops it, and what
/// remains — the distribution *across* quanta — is the program's own.
///
/// # Panics
/// Panics when the repetitions are empty or of different lengths.
pub fn quietest(repetitions: &[&[u64]]) -> Vec<u64> {
    let first = repetitions.first().expect("at least one repetition");
    assert!(
        repetitions.iter().all(|r| r.len() == first.len()),
        "repetitions measure different numbers of units"
    );
    (0..first.len())
        .map(|i| repetitions.iter().map(|r| r[i]).min().expect("non-empty"))
        .collect()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (throughput, recall).
    Higher,
}

/// The outcome of comparing one metric on one workload between a
/// baseline set of runs `a` and a candidate set `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the baseline's by more
    /// than the bound, and the spread is narrow enough to say so.
    Within,
    /// Every candidate run reads better than every baseline run.
    Better,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the comparison cannot tell "unchanged" from "regressed".
    Unresolved,
    /// The candidate's median is worse by more than the bound.
    Regression,
}

/// Fraction by which `b`'s median is worse than `a`'s (negative when it
/// is better), relative to `a`'s median.
pub fn worse_by(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Applies the comparison rule of the choosing-metrics guide: a metric
/// whose spread exceeds its bound is *unresolved*, not unchanged, unless
/// every candidate run beats every baseline run.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let all_better = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if all_better {
        Verdict::Better
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn quietest_takes_each_units_fastest_repetition() {
        let reps: [&[u64]; 3] = [&[10, 50, 30], &[12, 20, 90], &[11, 25, 31]];
        assert_eq!(quietest(&reps), [10, 20, 30]);
        assert_eq!(quietest(&reps[..1]), reps[0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut samples: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&mut samples, 50.0), 100);
        assert_eq!(percentile(&mut samples, 99.0), 198);
        assert_eq!(percentile(&mut samples, 100.0), 200);
        assert_eq!(percentile(&mut [9, 3, 5], 0.0), 3);
    }

    #[test]
    fn within_bound_when_medians_are_close_and_spread_is_narrow() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [102.0, 103.0, 101.0, 102.5, 101.5];
        assert_eq!(compare(&a, &b, Better::Lower, 0.05), Verdict::Within);
        assert_eq!(compare(&a, &b, Better::Higher, 0.05), Verdict::Within);
    }

    #[test]
    fn regression_when_the_median_moves_past_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slow = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(compare(&a, &slow, Better::Lower, 0.05), Verdict::Regression);
        // The same move is an improvement for a higher-is-better metric.
        assert_eq!(compare(&a, &slow, Better::Higher, 0.05), Verdict::Better);
        assert!((worse_by(&a, &slow, Better::Lower) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = [100.0, 120.0, 80.0, 110.0, 90.0];
        let b = [101.0, 121.0, 81.0, 111.0, 91.0];
        assert_eq!(compare(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
        // …even when the median moved past the bound: it cannot be told
        // from noise.
        let worse = [112.0, 132.0, 92.0, 122.0, 102.0];
        assert_eq!(
            compare(&a, &worse, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_spread_still_resolves_when_every_run_is_better() {
        let a = [100.0, 120.0, 80.0, 110.0, 90.0];
        let faster = [60.0, 70.0, 50.0, 65.0, 55.0];
        assert_eq!(compare(&a, &faster, Better::Lower, 0.05), Verdict::Better);
    }

    #[test]
    fn identical_exact_values_are_within_a_zero_bound() {
        let a = [97.5, 97.5, 97.5];
        assert_eq!(compare(&a, &a, Better::Higher, 0.0), Verdict::Within);
    }
}
