//! Timing-model parameters (derived from Table 1 of the paper).

use serde::{Deserialize, Serialize};

/// Latencies and window sizes used by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// L2 hit latency in cycles (Table 1: 25 cycles).
    pub l2_hit_cycles: f64,
    /// Off-chip access latency in cycles (Table 1: 60 ns at 4 GHz ≈ 240
    /// cycles, plus interconnect hops).
    pub memory_cycles: f64,
    /// Out-of-order window, expressed in demand accesses, over which read
    /// misses can overlap (approximates the 256-entry ROB / 32 MSHRs).
    pub overlap_window_accesses: usize,
    /// Maximum read misses that can overlap (MSHRs).
    pub max_mlp: usize,
    /// Store-buffer capacity in entries (Table 1: 64).
    pub store_buffer_entries: usize,
    /// Stores that miss drain at this many cycles per entry once the memory
    /// system serializes them.
    pub store_drain_cycles: f64,
    /// Stores that can drain in parallel.
    pub store_mlp: usize,
    /// Busy cycles charged per committed access (user + system).
    pub busy_cycles_per_access: f64,
    /// Fraction of busy time attributed to the operating system.
    pub system_busy_fraction: f64,
    /// Constant per-access stall charged to the "other" category
    /// (wrong-path branches, instruction-cache misses, ...).
    pub other_stall_per_access: f64,
}

impl TimingConfig {
    /// Parameters matching Table 1 of the paper.
    pub fn table1() -> Self {
        Self {
            l2_hit_cycles: 25.0,
            memory_cycles: 300.0,
            overlap_window_accesses: 64,
            max_mlp: 32,
            store_buffer_entries: 64,
            store_drain_cycles: 300.0,
            store_mlp: 8,
            busy_cycles_per_access: 1.0,
            system_busy_fraction: 0.15,
            other_stall_per_access: 0.4,
        }
    }

    /// Returns a copy with a different system-busy fraction (commercial
    /// workloads spend noticeably more time in the OS than scientific ones).
    pub fn with_system_busy_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.system_busy_fraction = fraction;
        self
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_sane() {
        let c = TimingConfig::table1();
        assert!(c.memory_cycles > c.l2_hit_cycles);
        assert!(c.max_mlp >= 1);
        assert!(c.store_buffer_entries > 0);
        assert_eq!(c, TimingConfig::default());
    }

    #[test]
    fn builder_sets_fraction() {
        let c = TimingConfig::default().with_system_busy_fraction(0.3);
        assert!((c.system_busy_fraction - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_rejected() {
        let _ = TimingConfig::default().with_system_busy_fraction(2.0);
    }
}
