//! The box's speed index: a fixed harness-only kernel timed next to every
//! measurement.
//!
//! On a shared two-CPU virtual machine the same deterministic work runs
//! up to twice as slowly from one run to the next, in spells that last
//! tens of seconds (`NOTES.md` has the evidence). CPU-time figures
//! other than start-up CPU (see `rig::startups`) are therefore reported
//! at the reference speed: the measured time times
//! `REFERENCE_S / probe`, where `probe` is this kernel's median time around
//! the measurement. The kernel is benchmark code only (hashing and
//! random read-modify-writes over a 1 MiB table), so a change to the
//! program moves the measured time and never the probe.

use std::hint::black_box;

/// Kernel time defining the reference speed (about its typical time on
/// the two-CPU box the bounds were set on).
pub const REFERENCE_S: f64 = 1.0e-3;

/// Kernel runs per probe; the probe is their median.
const RUNS: usize = 5;

/// The kernel's table, allocated once.
pub struct Speed {
    table: Vec<u64>,
}

impl Speed {
    /// Allocate and touch the table.
    pub fn new() -> Speed {
        Speed {
            table: vec![1; 1 << 17],
        }
    }

    /// One kernel run: its CPU time in seconds (so time spent waiting
    /// for a CPU the daemons hold does not count).
    pub fn probe_once(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let t = crate::sys::thread_cpu_ns();
        let mut x = 0x9E37_79B9u64;
        for i in 0..200_000u64 {
            x = symbio::mix64(x ^ i);
            let j = x as usize & mask;
            self.table[j] = self.table[j].wrapping_add(x);
        }
        black_box(&self.table);
        (crate::sys::thread_cpu_ns() - t) as f64 / 1e9
    }

    /// Median of `RUNS` kernel runs, seconds.
    pub fn probe(&mut self) -> f64 {
        let mut runs: Vec<f64> = (0..RUNS).map(|_| self.probe_once()).collect();
        crate::stats::median(&mut runs)
    }
}

/// The factor that scales a time measured next to `probe` to the
/// reference speed.
pub fn factor(probe: f64) -> f64 {
    REFERENCE_S / probe
}
