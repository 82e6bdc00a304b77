//! The host-speed probe: a fixed computation timed between every two
//! measured program runs.
//!
//! Other tenants of the host slow the program by up to about 2x, in
//! stretches of seconds to many minutes, and never speed it up.  The probe
//! — random read-modify-writes over a 4 MiB table, like the simulator's
//! cache and hash-map lookups — slows with them.  Each probe is five short
//! runs of that computation, and every measured time is scaled by
//! [`QUIET_S`] over the median of the ten runs just before and just after
//! it, which is what the run would have taken on a quiet host.  The median
//! ignores the bursts that make one run in a hundred take two to ten times
//! as long, and probing on both sides follows a host that changes speed
//! during the measured run.  The
//! probe is the benchmark's own code, so no change to the program can move
//! it.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

/// A probe run's time on a quiet host of the kind the benchmark was defined
/// on (see `benchmark/README.md`).  It only sets the scale the metrics read
/// in; any fixed value compares commits alike.
pub const QUIET_S: f64 = 0.005;

/// Table words: 4 MiB.
const WORDS: usize = 1 << 19;
/// Read-modify-writes per run (about 5 ms on a quiet host).
const STEPS: u64 = 1_200_000;
/// Runs per probe.
const RUNS: usize = 5;

/// The probe's table, allocated once per benchmark run.
#[derive(Debug)]
pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

/// The times of one probe's runs, in seconds.
pub type Sample = [f64; RUNS];

impl Probe {
    /// A probe with its table allocated.
    pub fn new() -> Probe {
        Probe {
            table: vec![0; WORDS],
        }
    }

    /// Times the reference computation [`RUNS`] times.  The table is
    /// rewritten in order before each run, untimed, so every run starts from
    /// the same cache state whatever ran before.
    pub fn sample(&mut self) -> Sample {
        std::array::from_fn(|_| {
            for (word, value) in self.table.iter_mut().zip(0u64..) {
                *word = value;
            }
            let start = Instant::now();
            let (mut x, mut sum) = (0x9E37_79B9_7F4A_7C15_u64, 0_u64);
            for step in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut self.table[x as usize & (WORDS - 1)];
                sum = sum.wrapping_add(*slot).rotate_left(5) ^ (sum >> 3);
                *slot = slot.wrapping_add(step);
            }
            black_box(sum);
            start.elapsed().as_secs_f64()
        })
    }
}

/// The host's speed around a measured run: the median probe run of the
/// probes just before and just after it.
pub fn around(before: &Sample, after: &Sample) -> f64 {
    median(&[before.as_slice(), after.as_slice()].concat())
}

/// A time the benchmark measured, with the probe's time around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Seconds as measured.
    pub seconds: f64,
    /// The probe's time around it ([`around`]).
    pub probe_s: f64,
}

impl Timed {
    /// The time scaled to a quiet host.
    pub fn scaled(self) -> f64 {
        self.seconds * QUIET_S / self.probe_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_probe() {
        let slow_host = Timed {
            seconds: 3.0,
            probe_s: 2.0 * QUIET_S,
        };
        assert!((slow_host.scaled() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_burst_in_one_run_does_not_move_the_probe() {
        let before = [5e-3, 5e-3, 0.2, 6e-3, 5e-3];
        let after = [6e-3, 6e-3, 6e-3, 5e-3, 6e-3];
        assert_eq!(around(&before, &after), 6e-3);
    }
}
