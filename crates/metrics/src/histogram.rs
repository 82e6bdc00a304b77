//! Log2-bucketed latency histograms.
//!
//! A [`Histogram`] counts `u64` samples (the workspace records microseconds)
//! into power-of-two buckets: bucket 0 holds the value 0 and bucket *i* ≥ 1
//! holds the half-open range `[2^(i-1), 2^i)`.  The layout is fixed —
//! [`Histogram::BUCKETS`] covers the full `u64` range — so two histograms
//! always merge bucket-by-bucket, and merging is commutative and associative
//! by construction.  Count, min, max, sum and estimated percentiles are all
//! derivable from the serialized form.
//!
//! The struct is `Copy` (one fixed-size array, no heap), and recording is a
//! bounds-free array increment, cheap enough to take under the server's
//! counter lock.
//!
//! Serialization is sparse: only non-empty buckets appear, as
//! `[[index, count], ...]` pairs, so an empty histogram costs a few bytes in
//! a report rather than 65 zeroes.

use serde::{de, Deserialize, Serialize, Value};

/// A mergeable log2-bucketed histogram over `u64` samples.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; Histogram::BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("sum", &self.sum)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl Histogram {
    /// Number of buckets: the value 0 plus one bucket per power of two up to
    /// the full `u64` range.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; Histogram::BUCKETS],
        }
    }

    /// The bucket index `value` falls into: 0 for the value 0, else
    /// `1 + floor(log2(value))`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Folds another histogram into this one, bucket by bucket.  Merging is
    /// commutative: `a.merge(b)` and `b.merge(a)` produce equal histograms.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts:
    /// the upper edge of the bucket containing the quantile rank, clamped to
    /// the observed max.  Exact for values that share a bucket; otherwise an
    /// upper bound within 2x (the bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The non-empty buckets as `(index, count)` pairs (the serialized form).
    pub fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .sparse_buckets()
            .into_iter()
            .map(|(i, n)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(n)]))
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::UInt(self.sum)),
            ("min".to_string(), Value::UInt(self.min)),
            ("max".to_string(), Value::UInt(self.max)),
            ("buckets".to_string(), Value::Array(buckets)),
        ])
    }
}

fn value_u64(v: &Value, what: &str) -> Result<u64, de::Error> {
    match v {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(de::Error::custom(&format!(
            "histogram {what} must be a non-negative integer, got {other:?}"
        ))),
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| de::Error::custom("histogram must be an object"))?;
        let mut hist = Histogram::new();
        hist.count = value_u64(serde::field(obj, "count"), "count")?;
        hist.sum = value_u64(serde::field(obj, "sum"), "sum")?;
        hist.min = value_u64(serde::field(obj, "min"), "min")?;
        hist.max = value_u64(serde::field(obj, "max"), "max")?;
        let buckets = serde::field(obj, "buckets")
            .as_array()
            .ok_or_else(|| de::Error::custom("histogram buckets must be an array"))?;
        for pair in buckets {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                de::Error::custom("histogram bucket must be an [index, count] pair")
            })?;
            let index = value_u64(&pair[0], "bucket index")? as usize;
            if index >= Histogram::BUCKETS {
                return Err(de::Error::custom(&format!(
                    "histogram bucket index {index} out of range"
                )));
            }
            hist.buckets[index] = value_u64(&pair[1], "bucket count")?;
        }
        Ok(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_pinned() {
        // The serialized format depends on these exact edges; a change here
        // is a report schema change and must bump the envelope version.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Bucket i >= 1 starts at 2^(i-1) and ends just below 2^i.
        for i in 1..Histogram::BUCKETS {
            let floor = 1u64 << (i - 1);
            assert_eq!(Histogram::bucket_index(floor), i);
            assert_eq!(Histogram::bucket_index(floor + (floor - 1)), i);
        }
    }

    #[test]
    fn records_and_derives_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.p50(), 0);
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.sum(), 1100);
        assert!((h.mean() - 220.0).abs() < 1e-9);
        // Median falls in the [16,32) bucket; the estimate is its upper edge.
        assert_eq!(h.p50(), 31);
        assert_eq!(h.p99(), 1000, "p99 clamps to the observed max");
    }

    #[test]
    fn merge_is_commutative_and_matches_recording_everything() {
        let xs = [0u64, 1, 1, 7, 90, 4096, 5, 65_000];
        let ys = [2u64, 2, 300, 12, 0];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &x in &xs {
            a.record(x);
        }
        for &y in &ys {
            b.record(y);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        let mut all = Histogram::new();
        for &v in xs.iter().chain(ys.iter()) {
            all.record(v);
        }
        assert_eq!(ab, all, "merge equals recording the union");
        let mut with_empty = a;
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, a, "empty is the merge identity");
    }

    #[test]
    fn serializes_sparsely_and_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 500] {
            h.record(v);
        }
        let value = h.to_value();
        let buckets = value.get("buckets").and_then(Value::as_array).unwrap();
        assert_eq!(buckets.len(), 3, "only non-empty buckets serialize");
        let json = serde_json::to_string(&value).unwrap();
        let back = Histogram::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.p50(), 3);

        let empty_json = serde_json::to_string(&Histogram::new().to_value()).unwrap();
        let back = Histogram::from_value(&serde_json::from_str(&empty_json).unwrap()).unwrap();
        assert_eq!(back, Histogram::new());
    }

    #[test]
    fn deserialize_rejects_malformed_buckets() {
        let bad = serde_json::from_str(
            "{\"count\": 1, \"sum\": 1, \"min\": 1, \"max\": 1, \"buckets\": [[99, 1]]}",
        )
        .unwrap();
        assert!(Histogram::from_value(&bad).is_err());
        let bad = serde_json::from_str("{\"count\": 1, \"buckets\": [[1]]}").unwrap();
        assert!(Histogram::from_value(&bad).is_err());
    }
}
