//! Collection primitives: the on/off switch, wall-clock stopwatches and
//! event rates.
//!
//! Everything here is built around one rule: **disabled collection must cost
//! nothing**.  A [`Stopwatch`] constructed disabled never calls
//! `Instant::now`, and code instrumenting a hot loop should follow the
//! monomorphized-meter pattern — define a small meter trait for the loop's
//! events, implement it for `()` with empty bodies, and make the loop generic
//! over the meter — so the disabled variant compiles to exactly the
//! uninstrumented loop (this is what `memsim`'s driver does).

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Whether telemetry is collected at all.
///
/// Carried explicitly (rather than read from a global) so tests can prove
/// that enabled and disabled runs produce byte-identical simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsConfig {
    /// Collect timings and counters when `true`; skip all clock reads when
    /// `false`.
    pub enabled: bool,
}

impl MetricsConfig {
    /// Collection on.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }

    /// Collection off: timers read as zero and never touch the clock.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A wall-clock timer that is free when disabled.
///
/// A disabled stopwatch holds no start instant, reports zero elapsed time and
/// never calls `Instant::now` — constructing and querying it is a couple of
/// register moves.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts a running stopwatch.
    pub fn started() -> Self {
        Self {
            start: Some(Instant::now()),
        }
    }

    /// A stopwatch that never reads the clock and always reports zero.
    pub fn disabled() -> Self {
        Self { start: None }
    }

    /// Starts a stopwatch iff `enabled` (the usual constructor, fed from
    /// [`MetricsConfig::enabled`]).
    pub fn start_if(enabled: bool) -> Self {
        if enabled {
            Self::started()
        } else {
            Self::disabled()
        }
    }

    /// Whether this stopwatch is actually timing.
    pub fn is_enabled(&self) -> bool {
        self.start.is_some()
    }

    /// Seconds elapsed since the start; `0.0` for a disabled stopwatch.
    pub fn elapsed_seconds(&self) -> f64 {
        match self.start {
            Some(start) => start.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }
}

/// Events per second, `0.0` when `seconds` is not a positive measurement
/// (disabled stopwatches report zero elapsed time).
pub fn per_sec(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_stopwatch_reads_zero() {
        let w = Stopwatch::disabled();
        assert!(!w.is_enabled());
        assert_eq!(w.elapsed_seconds(), 0.0);
        assert!(!Stopwatch::start_if(false).is_enabled());
    }

    #[test]
    fn enabled_stopwatch_advances() {
        let w = Stopwatch::start_if(true);
        assert!(w.is_enabled());
        assert!(w.elapsed_seconds() >= 0.0);
        // Monotonic: a later reading is never smaller.
        let first = w.elapsed_seconds();
        assert!(w.elapsed_seconds() >= first);
    }

    #[test]
    fn per_sec_handles_zero_time() {
        assert_eq!(per_sec(100, 0.0), 0.0);
        assert_eq!(per_sec(100, -1.0), 0.0);
        assert!((per_sec(100, 2.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn config_defaults_to_disabled() {
        assert!(!MetricsConfig::default().enabled);
        assert!(MetricsConfig::enabled().enabled);
        assert!(!MetricsConfig::disabled().enabled);
    }
}
