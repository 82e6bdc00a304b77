//! Event rates.

/// Events per second, `0.0` when `seconds` is not a positive measurement.
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
    fn per_sec_handles_zero_time() {
        assert_eq!(per_sec(100, 0.0), 0.0);
        assert_eq!(per_sec(100, -1.0), 0.0);
        assert!((per_sec(100, 2.0) - 50.0).abs() < 1e-12);
    }
}
