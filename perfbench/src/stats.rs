//! Order statistics, the seeded arrival schedule and small numeric
//! helpers shared by every workload.

use smartpaf_tensor::Rng64;

/// Nearest-rank percentile of ascending `sorted` samples, `p` in
/// `(0, 100]`. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// The tail of a latency sample: the highest order statistic that
/// still has at least `beyond` samples above it, with its percentile
/// `100·(n − beyond)/n`. With `beyond` or fewer samples no percentile
/// qualifies, and the maximum is reported as percentile 100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Latency at the tail rank.
    pub value: f64,
    /// The percentile that rank stands for.
    pub percentile: f64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Selects the [`Tail`] of ascending `sorted` samples.
pub fn tail(sorted: &[f64], beyond: usize) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    if n <= beyond {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
        };
    }
    let rank = n - beyond; // 1-based rank with exactly `beyond` above it
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
    }
}

/// Open-loop arrival offsets in seconds: `round(rate · window)`
/// arrivals of a Poisson process conditioned on that count, i.e.
/// sorted uniform draws over `[0, window)`. The count is fixed by the
/// rate, so every seed offers the same load; the spacing depends on
/// the seed.
pub fn poisson_schedule(seed: u64, rate: f64, window: f64) -> Vec<f64> {
    let n = (rate * window).round() as usize;
    let mut rng = Rng64::new(seed ^ 0x5ced_u64.rotate_left(40));
    let mut at: Vec<f64> = (0..n).map(|_| rng.next_f64() * window).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// Open-loop arrival offsets in seconds at a steady rate:
/// `round(rate · window)` arrivals, the `i`-th due at
/// `(i + 1/2 + jitter·(u_i − 1/2)) / rate` with `u_i` uniform from the
/// seed. With `jitter < 1` consecutive gaps stay within
/// `[(1 − jitter), (1 + jitter)] / rate`, so a server faster than the
/// shortest gap never queues.
pub fn jittered_schedule(seed: u64, rate: f64, window: f64, jitter: f64) -> Vec<f64> {
    let n = (rate * window).round() as usize;
    let mut rng = Rng64::new(seed ^ 0x717e_u64.rotate_left(40));
    (0..n)
        .map(|i| (i as f64 + 0.5 + jitter * (rng.next_f64() - 0.5)) / rate)
        .collect()
}

/// Index of the largest entry (first one on ties).
pub fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// Largest absolute entrywise difference.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s, TAIL_BEYOND);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 10);

        let s: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&s, TAIL_BEYOND);
        assert_eq!((t.value, t.percentile), (15.0, 60.0));
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_without_enough_samples_is_the_maximum() {
        let s = [3.0, 1.0, 2.0].map(f64::from);
        let mut sorted = s.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(
            tail(&sorted, TAIL_BEYOND),
            Tail {
                value: 3.0,
                percentile: 100.0
            }
        );
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven, TAIL_BEYOND).value, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 50.0), 20.0);
        assert_eq!(percentile(&s, 51.0), 30.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn schedule_is_reproducible_and_depends_on_the_seed() {
        let a = poisson_schedule(7, 1.5, 20.0);
        let b = poisson_schedule(7, 1.5, 20.0);
        let c = poisson_schedule(8, 1.5, 20.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert_eq!(a.len(), 30);
        assert_eq!(c.len(), 30);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
    }

    #[test]
    fn jittered_schedule_is_reproducible_and_keeps_its_gaps() {
        let a = jittered_schedule(7, 0.6, 20.0, 0.4);
        assert_eq!(a, jittered_schedule(7, 0.6, 20.0, 0.4));
        assert_ne!(a, jittered_schedule(8, 0.6, 20.0, 0.4));
        assert_eq!(a.len(), 12);
        for w in a.windows(2) {
            let gap = (w[1] - w[0]) * 0.6;
            assert!((0.6..=1.4).contains(&gap), "gap {gap}");
        }
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
    }

    #[test]
    fn argmax_and_error_helpers() {
        assert_eq!(argmax(&[0.1, 0.7, 0.7, -1.0]), 1);
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
    }
}
