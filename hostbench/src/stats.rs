//! Statistics, digests and host readings shared by every workload.

use std::time::Instant;

use qram::telemetry::{fnv1a_64, host_wall};

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when the denominator is not positive (a layer that
/// did no work in this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host nanoseconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = host_wall();
    let value = f();
    (value, elapsed_ns(start))
}

/// Median host nanoseconds of one `f()` call over `reps` calls; each
/// result passes through `black_box` so the call cannot be elided.
pub fn median_call_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| timed(|| std::hint::black_box(f())).1 as f64)
        .collect();
    median(&samples)
}

/// Peak resident set size (`VmHWM`) of this process in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for memory images.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The `2^address_width` cells of a pseudo-random memory image holding
/// exactly half ones. Circuit sizes of some architectures grow with the
/// count of ones, so fixing it keeps the served work comparable across
/// seeds while the seed still places every bit.
pub fn memory_bits(address_width: usize, seed: u64) -> Vec<bool> {
    let cells = 1usize << address_width;
    let mut bits: Vec<bool> = (0..cells).map(|i| i < cells / 2).collect();
    let mut rng = SplitMix64(seed);
    for i in (1..cells).rev() {
        bits.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    bits
}

/// A chained fnv1a-64 digest over 64-bit words: equal word sequences
/// give equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(fnv1a_64([]))
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn add(&mut self, word: u64) {
        self.0 = fnv1a_64(self.0.to_le_bytes().into_iter().chain(word.to_le_bytes()));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
    }

    #[test]
    fn memory_bits_are_seeded() {
        assert_eq!(memory_bits(6, 1), memory_bits(6, 1));
        assert_ne!(memory_bits(6, 1), memory_bits(6, 2));
        assert_eq!(memory_bits(6, 1).len(), 64);
        assert_eq!(memory_bits(6, 3).iter().filter(|&&b| b).count(), 32);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
