//! Order statistics for the benchmark's timings.

/// The median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// The tail percentile reported for `n` samples: the highest percentile
/// of the ladder (at most p99) that leaves at least ten samples beyond
/// it, so the tail is never a single outlier. `None` when even the
/// median has fewer than ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
}

/// The nearest-rank percentile `p` of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[nearest_rank(p, v.len()) - 1])
}

/// The total of a replayed sequence of segments, each at percentile `p`
/// of its durations across the replays: `replays[k][i]` is segment `i`'s
/// duration in replay `k`. `None` without replays or when they do not
/// have the same segments.
pub fn segment_total(replays: &[Vec<f64>], p: f64) -> Option<f64> {
    let n = replays.first()?.len();
    if replays.iter().any(|r| r.len() != n) {
        return None;
    }
    (0..n)
        .map(|i| percentile(&replays.iter().map(|r| r[i]).collect::<Vec<_>>(), p))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn segment_total_sums_per_segment_percentiles() {
        // Three replays of two segments; each segment's minimum comes
        // from a different replay.
        let replays = vec![vec![1.0, 9.0], vec![5.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(segment_total(&replays, 0.0), Some(1.0 + 2.0));
        assert_eq!(segment_total(&replays, 50.0), Some(3.0 + 4.0));
        assert_eq!(segment_total(&[], 10.0), None);
        assert_eq!(segment_total(&[vec![1.0], vec![1.0, 2.0]], 10.0), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 is rank 990, nine beyond; p90 (rank 900) wins.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // 40 samples: p90 is rank 36 (4 beyond), p75 rank 30 (10 beyond).
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }
}
