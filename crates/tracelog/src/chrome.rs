//! Chrome trace-event export and validation.
//!
//! The export format is the JSON object flavor of the [trace-event format]
//! understood by `chrome://tracing` and Perfetto: a top-level
//! `{"traceEvents": [...]}` array of `"ph": "X"` complete events (spans),
//! `"ph": "i"` instants, `"ph": "C"` counters and `"ph": "M"` thread-name
//! metadata.  Timestamps are run-relative microseconds and the array is
//! sorted by timestamp, so a valid export is monotonic by construction —
//! which is exactly what [`check_chrome_trace`] (and the CI trace checker
//! built on it) verifies.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeSet;

use serde::Value;

use crate::{ArgValue, EventKind, ThreadLog};

/// The synthetic process id every event carries (one process per trace).
pub const PID: u64 = 1;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn args_value(args: &[(&'static str, ArgValue)]) -> Value {
    Value::Object(
        args.iter()
            .map(|(k, v)| {
                let value = match v {
                    ArgValue::U64(u) => Value::UInt(*u),
                    ArgValue::I64(i) => Value::Int(*i),
                    ArgValue::F64(f) => Value::Float(*f),
                    ArgValue::Bool(b) => Value::Bool(*b),
                    ArgValue::Text(s) => Value::String(s.clone()),
                };
                (k.to_string(), value)
            })
            .collect(),
    )
}

/// Renders drained thread logs as a Chrome trace-event [`Value`] tree.
///
/// Thread-name metadata events come first (timestamp 0), then every recorded
/// event sorted by `(timestamp, tid)`.  Rings that overflowed contribute a
/// `tracelog.dropped` instant so truncation is visible in the trace itself.
pub fn to_chrome_value(logs: &[ThreadLog]) -> Value {
    let mut logs: Vec<&ThreadLog> = logs.iter().collect();
    logs.sort_by_key(|l| l.tid);

    let mut events: Vec<(u64, u64, Value)> = Vec::new();
    for log in &logs {
        for event in &log.events {
            let value = match event.kind {
                EventKind::Span { start_us, dur_us } => obj(vec![
                    ("name", Value::String(event.name.to_string())),
                    ("ph", Value::String("X".to_string())),
                    ("ts", Value::UInt(start_us)),
                    ("dur", Value::UInt(dur_us)),
                    ("pid", Value::UInt(PID)),
                    ("tid", Value::UInt(log.tid)),
                    ("args", args_value(&event.args)),
                ]),
                EventKind::Instant { ts_us } => obj(vec![
                    ("name", Value::String(event.name.to_string())),
                    ("ph", Value::String("i".to_string())),
                    ("ts", Value::UInt(ts_us)),
                    ("s", Value::String("t".to_string())),
                    ("pid", Value::UInt(PID)),
                    ("tid", Value::UInt(log.tid)),
                    ("args", args_value(&event.args)),
                ]),
                EventKind::Counter { ts_us, value } => obj(vec![
                    ("name", Value::String(event.name.to_string())),
                    ("ph", Value::String("C".to_string())),
                    ("ts", Value::UInt(ts_us)),
                    ("pid", Value::UInt(PID)),
                    ("tid", Value::UInt(log.tid)),
                    ("args", obj(vec![("value", Value::Float(value))])),
                ]),
            };
            events.push((event.ts_us(), log.tid, value));
        }
        if log.dropped > 0 {
            let ts = log.events.first().map(|e| e.ts_us()).unwrap_or(0);
            events.push((
                ts,
                log.tid,
                obj(vec![
                    ("name", Value::String("tracelog.dropped".to_string())),
                    ("ph", Value::String("i".to_string())),
                    ("ts", Value::UInt(ts)),
                    ("s", Value::String("t".to_string())),
                    ("pid", Value::UInt(PID)),
                    ("tid", Value::UInt(log.tid)),
                    ("args", obj(vec![("dropped", Value::UInt(log.dropped))])),
                ]),
            ));
        }
    }
    events.sort_by_key(|(ts, tid, _)| (*ts, *tid));

    let mut trace_events: Vec<Value> = logs
        .iter()
        .map(|log| {
            obj(vec![
                ("name", Value::String("thread_name".to_string())),
                ("ph", Value::String("M".to_string())),
                ("ts", Value::UInt(0)),
                ("pid", Value::UInt(PID)),
                ("tid", Value::UInt(log.tid)),
                (
                    "args",
                    obj(vec![("name", Value::String(log.label.clone()))]),
                ),
            ])
        })
        .collect();
    trace_events.extend(events.into_iter().map(|(_, _, v)| v));

    obj(vec![
        ("displayTimeUnit", Value::String("ms".to_string())),
        ("traceEvents", Value::Array(trace_events)),
    ])
}

/// Summary of a validated Chrome trace, as produced by [`check_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in the document (all phases).
    pub events: usize,
    /// `"ph": "X"` complete spans.
    pub spans: usize,
    /// Distinct span names seen.
    pub span_names: BTreeSet<String>,
    /// Total events dropped to ring overflow (`tracelog.dropped` instants).
    pub dropped: u64,
    /// Largest `ts + dur` over all spans: the run-relative end of the trace,
    /// microseconds.
    pub end_us: u64,
}

fn event_u64(event: &Value, key: &str) -> Result<u64, String> {
    match event.get(key) {
        Some(Value::UInt(u)) => Ok(*u),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        other => Err(format!(
            "event field {key:?} must be a non-negative integer, got {other:?}"
        )),
    }
}

/// Parses and validates a Chrome trace-event JSON document.
///
/// Checks, in order: the text is valid JSON with a non-empty `traceEvents`
/// array; every event has a name and a phase; spans/instants/counters carry
/// non-negative integer timestamps (and durations for spans); non-metadata
/// timestamps are monotonically non-decreasing in document order; and every
/// name in `required` appears among the span names.  Returns a [`TraceCheck`]
/// summary on success and a human-readable reason on failure.
pub fn check_chrome_trace(text: &str, required: &[&str]) -> Result<TraceCheck, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }

    let mut check = TraceCheck {
        events: events.len(),
        spans: 0,
        span_names: BTreeSet::new(),
        dropped: 0,
        end_us: 0,
    };
    let mut last_ts = 0u64;
    for (i, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let phase = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} ({name}) has no phase"))?;
        if phase == "M" {
            continue;
        }
        let ts = event_u64(event, "ts").map_err(|e| format!("event {i} ({name}): {e}"))?;
        if ts < last_ts {
            return Err(format!(
                "event {i} ({name}) breaks timestamp monotonicity: ts {ts} after {last_ts}"
            ));
        }
        last_ts = ts;
        match phase {
            "X" => {
                let dur =
                    event_u64(event, "dur").map_err(|e| format!("event {i} ({name}): {e}"))?;
                check.spans += 1;
                check.span_names.insert(name.to_string());
                check.end_us = check.end_us.max(ts + dur);
            }
            "i" => {
                if name == "tracelog.dropped" {
                    if let Some(Value::UInt(d)) = event.get("args").and_then(|a| a.get("dropped")) {
                        check.dropped += *d;
                    }
                }
                check.end_us = check.end_us.max(ts);
            }
            "C" => {
                event
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("counter event {i} ({name}) has no value"))?;
                check.end_us = check.end_us.max(ts);
            }
            other => {
                return Err(format!("event {i} ({name}) has unknown phase {other:?}"));
            }
        }
    }
    if check.spans == 0 {
        return Err("trace contains no spans".to_string());
    }
    for want in required {
        if !check.span_names.contains(*want) {
            return Err(format!(
                "required span {want:?} not present (have: {:?})",
                check.span_names
            ));
        }
    }
    Ok(check)
}

/// Sums the durations of every span named `name`, in microseconds.
pub fn span_total_us(text: &str, name: &str) -> Result<u64, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut total = 0u64;
    for event in events {
        if event.get("ph").and_then(Value::as_str) == Some("X")
            && event.get("name").and_then(Value::as_str) == Some(name)
        {
            total += event_u64(event, "dur")?;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn sample_trace() -> Trace {
        let trace = Trace::enabled();
        {
            let rec = trace.recorder("worker0");
            let outer = rec.span("job");
            {
                let mut inner = rec.span("seg.simulate");
                inner.arg_u64("segment", 0);
            }
            rec.instant("run_cancelled", |a| {
                a.u64("delivered", 3);
            });
            rec.counter("queue_depth", 2.0);
            drop(outer);
        }
        trace
    }

    #[test]
    fn export_round_trips_through_the_vendored_serde() {
        let trace = sample_trace();
        let json = trace.to_chrome_json().expect("enabled");
        // Parse back through the vendored stand-in and re-serialize: the
        // document survives a full round trip unchanged.
        let parsed: Value = serde_json::from_str(&json).expect("export parses");
        assert_eq!(
            serde_json::to_string_pretty(&parsed).expect("re-serializes"),
            json
        );
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        // 1 metadata + 2 spans + 1 instant + 1 counter.
        assert_eq!(events.len(), 5);
        let check = check_chrome_trace(&json, &["job", "seg.simulate"]).expect("valid trace");
        assert_eq!(check.spans, 2);
        assert_eq!(check.dropped, 0);
        assert!(check.span_names.contains("job"));
    }

    #[test]
    fn checker_rejects_missing_required_span() {
        let trace = sample_trace();
        let json = trace.to_chrome_json().expect("enabled");
        let err = check_chrome_trace(&json, &["seg.pull"]).expect_err("span absent");
        assert!(err.contains("seg.pull"), "{err}");
    }

    #[test]
    fn checker_rejects_garbage_and_non_monotonic_timestamps() {
        assert!(check_chrome_trace("not json", &[]).is_err());
        assert!(check_chrome_trace("{}", &[]).is_err());
        assert!(check_chrome_trace("{\"traceEvents\": []}", &[]).is_err());
        let out_of_order = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1, "args": {}},
            {"name": "b", "ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 1, "args": {}}
        ]}"#;
        let err = check_chrome_trace(out_of_order, &[]).expect_err("non-monotonic");
        assert!(err.contains("monotonicity"), "{err}");
    }

    #[test]
    fn dropped_events_surface_in_the_export() {
        let trace = Trace::enabled_with_capacity(2);
        {
            let rec = trace.recorder("t0");
            for _ in 0..5 {
                let _s = rec.span("tick");
            }
        }
        let json = trace.to_chrome_json().expect("enabled");
        let check = check_chrome_trace(&json, &["tick"]).expect("valid");
        assert_eq!(check.dropped, 3);
        assert_eq!(check.spans, 2);
    }

    #[test]
    fn span_totals_sum_per_name() {
        let trace = sample_trace();
        let json = trace.to_chrome_json().expect("enabled");
        let job = span_total_us(&json, "job").expect("job total");
        let sim = span_total_us(&json, "seg.simulate").expect("sim total");
        assert!(job >= sim);
        assert_eq!(span_total_us(&json, "absent").expect("absent total"), 0);
    }
}
