//! Execution-time breakdown categories (Figure 13).

use serde::{Deserialize, Serialize};

/// Cycles attributed to each of the paper's execution-time categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Cycles in which user instructions commit.
    pub user_busy: f64,
    /// Cycles in which operating-system instructions commit.
    pub system_busy: f64,
    /// Stall cycles waiting for load data from off-chip.
    pub offchip_read: f64,
    /// Stall cycles waiting for load data from an on-chip cache (e.g. L2).
    pub onchip_read: f64,
    /// Stall cycles with a full store buffer.
    pub store_buffer: f64,
    /// All remaining stall cycles (wrong-path branches, instruction cache
    /// misses, ...).
    pub other: f64,
}

impl TimeBreakdown {
    /// Creates an all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> f64 {
        self.user_busy
            + self.system_busy
            + self.offchip_read
            + self.onchip_read
            + self.store_buffer
            + self.other
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &TimeBreakdown) {
        self.user_busy += other.user_busy;
        self.system_busy += other.system_busy;
        self.offchip_read += other.offchip_read;
        self.onchip_read += other.onchip_read;
        self.store_buffer += other.store_buffer;
        self.other += other.other;
    }

    /// Returns this breakdown scaled by `1 / denominator`, used to normalize
    /// both bars of a Figure 13 pair to the same amount of completed work.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is not strictly positive.
    pub fn normalized_by(&self, denominator: f64) -> TimeBreakdown {
        assert!(
            denominator > 0.0,
            "normalization denominator must be positive"
        );
        TimeBreakdown {
            user_busy: self.user_busy / denominator,
            system_busy: self.system_busy / denominator,
            offchip_read: self.offchip_read / denominator,
            onchip_read: self.onchip_read / denominator,
            store_buffer: self.store_buffer / denominator,
            other: self.other / denominator,
        }
    }

    /// The category values in the order Figure 13 stacks them, paired with
    /// their labels.
    pub fn categories(&self) -> [(&'static str, f64); 6] {
        [
            ("Off-Chip Read", self.offchip_read),
            ("On-chip Read", self.onchip_read),
            ("Store Buffer", self.store_buffer),
            ("Other", self.other),
            ("System Busy", self.system_busy),
            ("User Busy", self.user_busy),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_merge() {
        let mut a = TimeBreakdown {
            user_busy: 1.0,
            system_busy: 2.0,
            offchip_read: 3.0,
            onchip_read: 4.0,
            store_buffer: 5.0,
            other: 6.0,
        };
        assert!((a.total() - 21.0).abs() < 1e-12);
        let b = a;
        a.merge(&b);
        assert!((a.total() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_scales_all_fields() {
        let a = TimeBreakdown {
            user_busy: 10.0,
            offchip_read: 30.0,
            ..Default::default()
        };
        let n = a.normalized_by(10.0);
        assert!((n.user_busy - 1.0).abs() < 1e-12);
        assert!((n.offchip_read - 3.0).abs() < 1e-12);
    }

    #[test]
    fn categories_cover_total() {
        let a = TimeBreakdown {
            user_busy: 1.0,
            system_busy: 1.0,
            offchip_read: 1.0,
            onchip_read: 1.0,
            store_buffer: 1.0,
            other: 1.0,
        };
        let sum: f64 = a.categories().iter().map(|(_, v)| v).sum();
        assert!((sum - a.total()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_denominator_rejected() {
        let _ = TimeBreakdown::new().normalized_by(0.0);
    }
}
