//! Sample statistics and the benchmark's result line.

use crate::probe::Timed;
use serde_json::Value;

/// The median of `samples` (the mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice: every metric is computed from at least one
/// measured sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let middle = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[middle]
    } else {
        (sorted[middle - 1] + sorted[middle]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Metrics as one JSON object, `{name: {"value", "unit"}}`.  Values keep
/// every digit of their `f64` (the vendored renderer prints floats with
/// `{:?}`).
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Renders the final line of a run: one compact JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), metrics_value(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always renders")
}

/// The end-to-end metrics every workload reports, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_macc_s", "Macc/s"),
    ("cpu_ns_per_acc", "ns"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// One quantity of something the program computes in every measured pass
/// — an operation's wall-clock, a process's CPU time — with the demand
/// accesses it covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// Demand accesses computed per sample.
    pub accesses: u64,
    /// One time per measured pass.
    pub seconds: Vec<Timed>,
}

impl Samples {
    /// No samples yet of something that computes `accesses`.
    pub fn new(accesses: u64) -> Samples {
        Samples {
            accesses,
            seconds: Vec::new(),
        }
    }

    /// The median sample: the probe follows the host only roughly within a
    /// second, and the median pass is what the operation costs when the
    /// probe and the program saw the same host.
    fn median(&self, time: fn(Timed) -> f64) -> f64 {
        median(&self.seconds.iter().map(|&t| time(t)).collect::<Vec<_>>())
    }
}

/// Everything a measured run of a workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// Measured passes.
    pub passes: usize,
    /// Wall-clock of each zero-access set-up.
    pub setups: Vec<Timed>,
    /// Wall-clock of each operation the program computed: a batch `run`,
    /// a new `served` submission.
    pub wall: Vec<Samples>,
    /// User+sys CPU time of each program process whose accesses are known:
    /// a batch `run`, a pass's server.
    pub cpu: Vec<Samples>,
    /// Peak resident set of every program process, kilobytes.
    pub max_rss_kb: Vec<u64>,
}

impl Measured {
    /// Whether every quantity has at least one sample.
    pub fn complete(&self) -> bool {
        !self.setups.is_empty()
            && !self.max_rss_kb.is_empty()
            && !self.wall.is_empty()
            && !self.cpu.is_empty()
            && self
                .wall
                .iter()
                .chain(&self.cpu)
                .all(|s| !s.seconds.is_empty())
    }

    /// Accesses per second of the operations' median wall-clocks, scaled
    /// to a quiet host with `Timed::scaled` or as measured with
    /// `|t| t.seconds`.
    pub fn throughput_macc_s(&self, time: fn(Timed) -> f64) -> f64 {
        let (accesses, seconds) = median_sum(&self.wall, time);
        accesses as f64 / seconds / 1e6
    }

    /// The end-to-end metrics: accesses per wall-clock and CPU second, each
    /// operation at its median pass; the largest resident set; the median
    /// set-up.  Times are scaled to a quiet host.
    ///
    /// # Panics
    ///
    /// Panics unless the measurement is [`complete`](Self::complete).
    pub fn metrics(&self) -> Vec<Metric> {
        assert!(self.complete(), "metrics of an incomplete measurement");
        let (cpu_accesses, cpu_s) = median_sum(&self.cpu, Timed::scaled);
        let setups: Vec<f64> = self.setups.iter().map(|&t| t.scaled()).collect();
        let values = [
            self.throughput_macc_s(Timed::scaled),
            cpu_s * 1e9 / cpu_accesses as f64,
            self.max_rss_kb.iter().copied().max().unwrap_or(0) as f64 / 1024.0,
            median(&setups),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, unit, value))
            .collect()
    }
}

/// Total accesses and the sum of median times of `all`.
fn median_sum(all: &[Samples], time: fn(Timed) -> f64) -> (u64, f64) {
    all.iter()
        .fold((0, 0.0), |(a, s), x| (a + x.accesses, s + x.median(time)))
}

/// Operations attempted and failed, where a failure is any refused or
/// failed operation or any output that does not check out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            eprintln!("FAILED: {message}");
        }
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Renders metrics as an aligned human-readable table.
pub fn table(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("  {:<34} {:>16.6} {}\n", m.name, m.value, m.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn metrics_take_each_operation_at_its_median_pass() {
        // Probes at twice the quiet time halve every time.
        let timed = |seconds: f64| Timed {
            seconds: 2.0 * seconds,
            probe_s: 2.0 * crate::probe::QUIET_S,
        };
        let samples = |accesses, seconds: &[f64]| Samples {
            accesses,
            seconds: seconds.iter().map(|&s| timed(s)).collect(),
        };
        let measured = Measured {
            passes: 3,
            setups: vec![timed(0.3), timed(0.1), timed(0.2)],
            wall: vec![
                samples(2_000_000, &[1.5, 1.0, 2.0]),
                samples(1_000_000, &[0.5, 0.25, 0.75]),
            ],
            cpu: vec![samples(3_000_000, &[1.2, 0.6, 0.9])],
            max_rss_kb: vec![2048, 3072, 1024],
        };
        assert!(measured.complete());
        let values: Vec<f64> = measured.metrics().iter().map(|m| m.value).collect();
        // 3 M accesses in 1.5 + 0.5 s; 0.9 CPU s over 3 M accesses; the
        // largest peak; the middle set-up.
        let expected = [1.5, 300.0, 3.0, 0.2];
        for (value, expected) in values.iter().zip(expected) {
            assert!((value - expected).abs() < 1e-9, "{values:?}");
        }
        assert!((measured.throughput_macc_s(|t| t.seconds) - 0.75).abs() < 1e-9);
        let mut partial = measured;
        partial.wall[1].seconds.clear();
        assert!(!partial.complete());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_full_digits() {
        let line = result_line(true, 12, 0, &[Metric::new("setup_s", "s", 0.1 + 0.2)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":0.30000000000000004,"unit":"s"}}}"#
        );
    }
}
