//! Order statistics, the output-check ledger, the report digest and the
//! resident-memory sampler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Nearest-rank quantile `q` in `0..=1` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Operations attempted, operations and output checks failed, and what
/// failed. Every call into the program and every check counts once.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts an operation; a failure is recorded and yields `None`.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts an output check described by `what`.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }
}

/// 64-bit FNV-1a over a sequence of strings (each followed by a
/// separator byte, so item boundaries count).
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, item: &str) {
        for &b in item.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Resident set size of this process in MiB, from `/proc/self/status`.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Samples the resident set every few milliseconds on a background
/// thread; [`RssSampler::stop`] returns the peak growth over the resident
/// set at start, in MiB. The input text, rendered before the start, is
/// not part of that growth.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<f64>,
}

impl RssSampler {
    pub fn start() -> Self {
        let base = rss_mb().unwrap_or(0.0);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = base;
            loop {
                peak = peak.max(rss_mb().unwrap_or(0.0));
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            peak - base
        });
        RssSampler { stop, thread }
    }

    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("rss sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.8), 80.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn digest_separates_items() {
        let mut a = Digest::default();
        a.add("ab");
        a.add("c");
        let mut b = Digest::default();
        b.add("a");
        b.add("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
