//! Configuration shared by all workload generators.

use serde::{Deserialize, Serialize};

/// Parameters controlling the scale of generated traces.
///
/// The defaults are chosen so that a few hundred thousand accesses produce a
/// representative mix of warm and cold regions on a laptop-scale run; the
/// paper's traces span billions of instructions, which the generators can
/// also emulate simply by drawing more accesses from the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of simulated processors issuing accesses (the paper uses 16).
    pub cpus: usize,
    /// Fraction of accesses that are writes for update-heavy code paths.
    ///
    /// Individual workloads scale this base rate up or down; for example the
    /// DSS scan query barely writes while TPC-C updates tuples frequently.
    pub base_write_fraction: f64,
    /// Fraction of accesses directed at data shared between processors.
    ///
    /// Shared writes induce invalidations in remote caches, which terminate
    /// spatial region generations exactly as in the paper's multiprocessor.
    pub sharing_fraction: f64,
    /// Approximate size of each application's data set in bytes.
    ///
    /// Generators scale their internal structure counts (buffer-pool pages,
    /// connections, matrix rows, ...) from this value.
    pub data_set_bytes: u64,
}

impl GeneratorConfig {
    /// Default number of simulated processors.
    pub const DEFAULT_CPUS: usize = 4;

    /// Most processors a generator models.
    pub const MAX_CPUS: usize = 64;

    /// Creates a config with the default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of simulated processors.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or greater than [`MAX_CPUS`](Self::MAX_CPUS).
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        assert!(
            (1..=Self::MAX_CPUS).contains(&cpus),
            "cpu count must be in 1..={}",
            Self::MAX_CPUS
        );
        self.cpus = cpus;
        self
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            cpus: Self::DEFAULT_CPUS,
            base_write_fraction: 0.15,
            sharing_fraction: 0.05,
            data_set_bytes: 64 * 1024 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = GeneratorConfig::default();
        assert!(c.cpus >= 1);
        assert!(c.base_write_fraction >= 0.0 && c.base_write_fraction <= 1.0);
        assert!(c.data_set_bytes >= 64 * 1024);
    }

    #[test]
    fn builder_methods_apply() {
        let c = GeneratorConfig::default().with_cpus(16);
        assert_eq!(c.cpus, 16);
    }

    #[test]
    #[should_panic(expected = "cpu count")]
    fn zero_cpus_rejected() {
        let _ = GeneratorConfig::default().with_cpus(0);
    }
}
