//! The machine-speed reading every host time is divided by.
//!
//! On the shared two-core sandbox the speed at which *any* code
//! executes drifts by ±20 % over tens of seconds (a pure compute loop
//! shows it; CPU time drifts with wall time, so it is not
//! descheduling). No filter inside one run can remove a drift slower
//! than the run, and a later change is measured at another moment than
//! its parent. So the benchmark times a fixed **calibration kernel**
//! right before and after every measured call and reports host times
//! in *reference seconds*: wall time × nominal kernel time ÷ the kernel
//! time measured around the call.
//!
//! The kernel must respond to interference the way the simulator does,
//! which is bound by memory as much as by arithmetic: a random walk
//! over 8 MB (most steps miss L2) plus a burst of small heap
//! allocations. Probes against `engine_oltp` segments: an L2-resident
//! kernel left a quartile spread of 10 % between runs, this one 3–6 %
//! (raw wall times: 7–16 %).
//!
//! The kernel lives here, not in the engine crates, and must not
//! change with them: a change that claims a gain may not edit it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the kernel takes on the reference machine — this sandbox in
/// its fast state. It only fixes the scale: on any one machine every
/// host metric is off by the same constant factor.
pub const NOMINAL_NS: f64 = 600_000.0;

/// Words of the kernel's array: 8 MB.
const WORDS: usize = 1 << 20;
/// Random-walk steps and allocations of one reading (about 1 ms).
const STEPS: usize = 60_000;
const ALLOCATIONS: usize = 600;

/// A reading younger than this is reused: the calls measured are
/// often adjacent, and the speed does not change within milliseconds.
const FRESH: Duration = Duration::from_millis(2);

/// Times the calibration kernel on demand.
#[derive(Debug)]
pub struct Speedometer {
    array: Vec<u64>,
    state: u64,
    latest: Option<(Instant, u64)>,
    /// Every reading taken, in nanoseconds.
    readings: Vec<u64>,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        Speedometer {
            array: vec![1; WORDS],
            state: 88_172_645_463_325_252,
            latest: None,
            readings: Vec::with_capacity(4096),
        }
    }

    /// The kernel's time right now, in nanoseconds (a reading taken
    /// within the last two milliseconds is reused).
    pub fn read(&mut self) -> u64 {
        if let Some((at, ns)) = self.latest {
            if at.elapsed() < FRESH {
                return ns;
            }
        }
        let started = Instant::now();
        let mask = (WORDS - 1) as u64;
        let mut x = self.state;
        let mut sum = 0u64;
        for _ in 0..STEPS {
            // xorshift64: the next index depends on the last load.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x & mask) as usize;
            sum = sum.wrapping_add(self.array[i]);
            self.array[i] = sum ^ x;
        }
        let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(ALLOCATIONS);
        for k in 0..ALLOCATIONS {
            blocks.push(vec![k as u8; 64]);
        }
        black_box(&blocks);
        // Never 0: xorshift has no way out of that state.
        self.state = (x ^ sum) | 1;
        let ns = started.elapsed().as_nanos() as u64;
        self.latest = Some((Instant::now(), ns));
        self.readings.push(ns);
        ns
    }

    /// Median of the readings so far over the nominal time: how much
    /// slower than the reference machine this one ran (1.0 = as fast).
    pub fn slowdown(&self) -> f64 {
        let readings: Vec<f64> = self.readings.iter().map(|&r| r as f64).collect();
        crate::stats::median(&readings) / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_reused_while_fresh() {
        let mut s = Speedometer::new();
        let a = s.read();
        let b = s.read();
        assert!(a > 0);
        // The kernel takes far less than the two milliseconds a reading
        // stays fresh only on a fast machine; either way the second
        // call must not return 0.
        assert!(b > 0);
        assert!(s.slowdown() > 0.0);
        std::thread::sleep(FRESH);
        s.read();
        assert!(s.readings.len() >= 2);
    }
}
