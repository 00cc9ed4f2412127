//! Order statistics, the process's memory high-water mark, and the seeded
//! generator the request stream is drawn from.

use std::time::Instant;

/// Times one call, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p80/p90/p95/p99 that still has at least ten samples
/// beyond it, as `(percentile, value)`; the median below 50 samples. Tails
/// of fewer than ten samples are one scheduler hiccup wide.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let p = [99u32, 95, 90, 80]
        .into_iter()
        .find(|p| values.len() as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(50);
    (p, quantile(values, f64::from(p) / 100.0))
}

/// The mean of every window of `k` consecutive values, in order (`k` is
/// clamped to `1..=values.len()`); empty for an empty sample.
pub fn window_means(values: &[f64], k: usize) -> Vec<f64> {
    let k = k.clamp(1, values.len().max(1));
    values
        .windows(k)
        .map(|w| w.iter().sum::<f64>() / k as f64)
        .collect()
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// splitmix64: the request stream's generator. The benchmark owns it so
/// the stream depends on `--seed` alone, not on the program's `rand`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 49]).0, 50);
        assert_eq!(tail(&[1.0; 50]).0, 80);
        assert_eq!(tail(&[1.0; 1000]).0, 99);
    }

    #[test]
    fn windows_slide_by_one() {
        let v = [1.0, 3.0, 5.0, 7.0];
        assert_eq!(window_means(&v, 2), vec![2.0, 4.0, 6.0]);
        assert_eq!(window_means(&v, 9), vec![4.0]);
        assert_eq!(window_means(&v, 0), v.to_vec());
        assert!(window_means(&[], 3).is_empty());
    }

    #[test]
    fn splitmix_repeats_and_shuffles() {
        let draw = |seed| {
            let mut g = SplitMix(seed);
            let mut v: Vec<u32> = (0..8).collect();
            g.shuffle(&mut v);
            (v, g.below(25))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
