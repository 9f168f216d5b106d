//! Order statistics over timing samples.

/// Nearest-rank percentile `pct` (1..=100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    ((pct as usize * n).div_ceil(100)).clamp(1, n)
}

/// Median (nearest-rank p50); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50).unwrap_or(0.0)
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (1..=99).
    pub pct: u32,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, with its value and the sample count; `None` below
/// `TAIL_BEYOND + 1` samples, where no percentile qualifies.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let pct = (1..=99u32).rev().find(|&p| n >= rank(n, p) + TAIL_BEYOND)?;
    Some(Tail {
        pct,
        value: percentile(samples, pct)?,
        count: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50), Some(50.0));
        assert_eq!(percentile(&s, 90), Some(90.0));
        assert_eq!(percentile(&s, 100), Some(100.0));
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th value, with exactly 10 beyond.
        let t = tail(&ramp(100)).expect("100 samples qualify");
        assert_eq!((t.pct, t.value, t.count), (90, 90.0, 100));
        // 200 samples: p95.
        let t = tail(&ramp(200)).expect("200 samples qualify");
        assert_eq!((t.pct, t.value), (95, 190.0));
        // 1000 samples: p99.
        assert_eq!(tail(&ramp(1000)).map(|t| t.pct), Some(99));
        // 150 samples: p93 leaves 150 - 140 = 10 beyond, p94 only 9.
        assert_eq!(tail(&ramp(150)).map(|t| t.pct), Some(93));
    }

    #[test]
    fn tail_counts_samples_beyond_for_every_size() {
        for n in 11..400 {
            let s = ramp(n);
            let t = tail(&s).expect("eleven or more samples qualify");
            let beyond = s.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond p{}", t.pct);
            if t.pct < 99 {
                let next = percentile(&s, t.pct + 1).unwrap();
                let beyond_next = s.iter().filter(|&&v| v > next).count();
                assert!(
                    beyond_next < TAIL_BEYOND,
                    "n={n}: p{} is not the highest",
                    t.pct
                );
            }
        }
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&ramp(11)).map(|t| t.pct), Some(9));
    }
}
