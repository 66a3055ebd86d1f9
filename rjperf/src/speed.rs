//! Host times at a fixed reference speed.
//!
//! On a shared host the same code runs up to half again slower for
//! seconds or minutes at a time, as neighbours load the shared cache and
//! memory. A host time measured raw then tells more about the neighbours
//! than about the program. So every run also times a fixed reference
//! kernel, code of the benchmark's own that the program cannot change,
//! between its operations and before each set-up, and reports every
//! host-time metric scaled by `REFERENCE_US / (median kernel time)`: the
//! time the operation would take on a host where the kernel takes
//! exactly `REFERENCE_US`. A change that makes the program faster or
//! slower moves the scaled metrics as much as the raw ones; a slow
//! period on the host moves the kernel and the program alike and cancels.
//!
//! The kernel does what the store does most: ordered lookups and short
//! range scans over byte-string keys in a map larger than the per-core
//! caches, and copies of the values it finds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::measure::median;
use crate::rng::Rng;

/// Kernel time (µs) that defines the reference speed. It is about the
/// kernel's median time on an unloaded 2-vCPU Xeon VM at 2.1 GHz, so
/// scaled metrics read close to raw ones there.
pub const REFERENCE_US: f64 = 2000.0;
/// Keys in the kernel's map (about 4 MB with values).
const KEYS: u64 = 30_000;
/// Lookups per kernel run, each followed by a 4-entry range scan.
const LOOKUPS: usize = 1500;
/// Least host time between two kernel runs taken by [`Speed::tick`].
const INTERVAL: Duration = Duration::from_millis(50);

/// How a declared metric relates to host speed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Host {
    /// Simulated, counted or sized: independent of host speed.
    No,
    /// A host duration: scaled by the run's factor.
    Time,
    /// Operations per host second: divided by the run's factor.
    Rate,
}

/// The reference kernel and its timings over one run.
pub struct Speed {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    probes: Vec<Vec<u8>>,
    samples_us: Vec<f64>,
    last: Instant,
}

impl Speed {
    /// Builds the kernel's map (the same for every seed) and runs the
    /// kernel once untimed, so the first sample is warm.
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5eed, 11);
        let mut map = BTreeMap::new();
        let mut probes = Vec::with_capacity(LOOKUPS);
        for i in 0..KEYS {
            let key = format!("row{:016x}", rng.next_u64()).into_bytes();
            map.insert(key.clone(), vec![(i % 251) as u8; 40]);
            if probes.len() < LOOKUPS && rng.below(KEYS as usize / LOOKUPS) == 0 {
                probes.push(key);
            }
        }
        let speed = Speed {
            map,
            probes,
            samples_us: Vec::new(),
            last: Instant::now(),
        };
        speed.kernel_us();
        speed
    }

    fn kernel_us(&self) -> f64 {
        let t = Instant::now();
        let mut sum = 0u64;
        let mut copies = Vec::with_capacity(self.probes.len());
        for key in &self.probes {
            if let Some(v) = self.map.get(key) {
                copies.push(v.clone());
            }
            for (k, v) in self.map.range(key.clone()..).take(4) {
                sum += u64::from(k[4]) + v.len() as u64;
            }
        }
        std::hint::black_box((sum, copies));
        t.elapsed().as_secs_f64() * 1e6
    }

    /// Times the kernel once. Call it only where no timed interval is
    /// open.
    pub fn sample(&mut self) {
        let us = self.kernel_us();
        self.samples_us.push(us);
        self.last = Instant::now();
    }

    /// Times the kernel if [`INTERVAL`] has passed since the last sample.
    /// Call it only where no timed interval is open.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples_us.len()
    }

    /// Median kernel time (µs) of the run.
    pub fn median_us(&self) -> f64 {
        median(&self.samples_us)
    }

    /// Host durations are multiplied, and host rates divided, by this.
    pub fn factor(&self) -> f64 {
        factor(&self.samples_us)
    }
}

/// `REFERENCE_US` over the median kernel time; 1 with no samples.
fn factor(samples_us: &[f64]) -> f64 {
    let m = median(samples_us);
    if m > 0.0 {
        REFERENCE_US / m
    } else {
        1.0
    }
}

/// A raw value of the given kind at the reference speed.
pub fn scale(value: f64, host: Host, factor: f64) -> f64 {
    match host {
        Host::No => value,
        Host::Time => value * factor,
        Host::Rate => value / factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_host_scales_times_down_and_rates_up() {
        // The kernel ran at twice the reference time: the host was slow.
        let f = factor(&[4000.0, 3900.0, 4100.0]);
        assert_eq!(f, 0.5);
        assert_eq!(scale(300.0, Host::Time, f), 150.0);
        assert_eq!(scale(200.0, Host::Rate, f), 400.0);
        assert_eq!(scale(7.0, Host::No, f), 7.0);
        assert_eq!(factor(&[]), 1.0);
    }

    #[test]
    fn kernel_finds_every_probe() {
        let s = Speed::new();
        assert!(!s.probes.is_empty());
        assert!(s.probes.iter().all(|k| s.map.contains_key(k)));
    }
}
