//! Span-based pipeline tracing with Chrome trace-event export.
//!
//! A traced run's spans are the engine's only record of where its time
//! went: per job, per segment and per step of the job loop.
//!
//! - **Nothing recorded when disabled.**  A disabled [`Trace`] hands out
//!   disabled [`Recorder`]s whose spans and events are no-ops that never
//!   read the clock and never allocate.  Simulation results are
//!   byte-identical with tracing on or off (pinned by
//!   `tests/metrics_telemetry.rs`).
//! - **One clock.**  Spans and events from every thread read the trace's
//!   one clock, so they line up on one timeline; the engine keeps no other
//!   timings of a job.
//! - **The hot loop never locks.**  Each thread records into its own bounded
//!   ring buffer through a [`Recorder`]; buffers are drained into the shared
//!   collector exactly once, when the recorder is dropped.  When a ring
//!   overflows it drops the *oldest* events and counts them, so a trace is
//!   never silently truncated.
//! - **Run-relative microseconds.**  All timestamps are measured from the
//!   moment the trace was enabled, so exported files load directly into
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) with t=0 at the
//!   start of the run.
//!
//! ```
//! let trace = tracelog::Trace::enabled();
//! {
//!     let rec = trace.recorder("worker0");
//!     let mut span = rec.span("job");
//!     span.arg_u64("job", 0);
//!     // ... do the work ...
//! } // recorder drops: its ring drains into the trace
//! let json = trace.to_chrome_json().expect("enabled");
//! let check = tracelog::check_chrome_trace(&json, &["job"]).unwrap();
//! assert_eq!(check.spans, 1);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod chrome;

pub use chrome::{check_chrome_trace, span_total_us, TraceCheck};

/// Default per-thread ring-buffer capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A typed argument value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument.
    F64(f64),
    /// Boolean argument.
    Bool(bool),
    /// Text argument.
    Text(String),
}

/// What kind of trace event a [`TraceEvent`] is.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A complete span: work that started at `start_us` and ran `dur_us`.
    Span {
        /// Run-relative start, microseconds.
        start_us: u64,
        /// Duration, microseconds.
        dur_us: u64,
    },
    /// A point-in-time event.
    Instant {
        /// Run-relative timestamp, microseconds.
        ts_us: u64,
    },
    /// A sampled gauge value (rendered as a counter track).
    Counter {
        /// Run-relative timestamp, microseconds.
        ts_us: u64,
        /// Sampled value.
        value: f64,
    },
}

/// One recorded event.  Names are `&'static str` on purpose: recording a
/// span must not allocate.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the span/track label in Perfetto).
    pub name: &'static str,
    /// Span, instant or counter payload.
    pub kind: EventKind,
    /// Typed arguments, shown in the Perfetto detail pane.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Run-relative sort key (span start / event timestamp), microseconds.
    fn ts_us(&self) -> u64 {
        match self.kind {
            EventKind::Span { start_us, .. } => start_us,
            EventKind::Instant { ts_us } => ts_us,
            EventKind::Counter { ts_us, .. } => ts_us,
        }
    }
}

/// The drained log of one recorder: everything one thread observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadLog {
    /// Human-readable thread label (becomes the Perfetto track name).
    pub label: String,
    /// Synthetic thread id, unique per recorder within one [`Trace`].
    pub tid: u64,
    /// Recorded events, in recording order.
    pub events: Vec<TraceEvent>,
    /// Events dropped because the ring buffer overflowed (oldest first).
    pub dropped: u64,
}

struct TraceInner {
    origin: Instant,
    next_tid: AtomicU64,
    ring_capacity: usize,
    collected: Mutex<Vec<ThreadLog>>,
}

/// A handle to one run's trace.  Cheap to clone (an `Arc` when enabled, a
/// `None` when disabled); clones feed the same collector.
#[derive(Clone)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Trace")
                .field("enabled", &true)
                .field("ring_capacity", &inner.ring_capacity)
                .finish(),
            None => f.debug_struct("Trace").field("enabled", &false).finish(),
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::disabled()
    }
}

impl Trace {
    /// A trace that records nothing: every recorder, span and event is a
    /// no-op that never reads the clock.
    pub const fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// An enabled trace with the default per-thread ring capacity.  The
    /// moment of this call is t=0 for every timestamp in the trace.
    pub fn enabled() -> Trace {
        Trace::enabled_with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled trace whose per-thread rings hold at most `ring_capacity`
    /// events (older events are dropped, and counted, on overflow).
    pub fn enabled_with_capacity(ring_capacity: usize) -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                origin: Instant::now(),
                next_tid: AtomicU64::new(1),
                ring_capacity: ring_capacity.max(1),
                collected: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this trace records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a per-thread recorder labelled `label`.  On a disabled trace
    /// this is free and the returned recorder no-ops.
    pub fn recorder(&self, label: &str) -> Recorder {
        match &self.inner {
            None => Recorder { inner: None },
            Some(inner) => {
                let tid = inner.next_tid.fetch_add(1, Ordering::Relaxed);
                Recorder {
                    inner: Some(RecorderInner {
                        trace: Arc::clone(inner),
                        tid,
                        label: label.to_string(),
                        ring: RefCell::new(Ring {
                            events: VecDeque::new(),
                            capacity: inner.ring_capacity,
                            dropped: 0,
                        }),
                    }),
                }
            }
        }
    }

    /// Clones the logs drained so far.  Recorders that are still alive have
    /// not drained yet — drop them first.
    pub fn logs(&self) -> Vec<ThreadLog> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .collected
                .lock()
                .expect("trace collector lock")
                .clone(),
        }
    }

    /// Renders the drained logs as a Chrome trace-event JSON document, or
    /// `None` when the trace is disabled.  Events are sorted by timestamp so
    /// the document is monotonic; timestamps are run-relative microseconds.
    pub fn to_chrome_json(&self) -> Option<String> {
        self.inner.as_ref().map(|_| {
            serde_json::to_string_pretty(&chrome::to_chrome_value(&self.logs()))
                .expect("a Value tree always serializes")
        })
    }

    /// Writes the Chrome trace-event JSON to `path`.  Returns `Ok(false)`
    /// without touching the filesystem when the trace is disabled.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<bool> {
        match self.to_chrome_json() {
            None => Ok(false),
            Some(json) => {
                std::fs::write(path, json + "\n")?;
                Ok(true)
            }
        }
    }
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

struct RecorderInner {
    trace: Arc<TraceInner>,
    tid: u64,
    label: String,
    ring: RefCell<Ring>,
}

impl RecorderInner {
    fn now_us(&self) -> u64 {
        self.trace.origin.elapsed().as_micros() as u64
    }
}

/// A per-thread event recorder.  Not `Sync`: each thread opens its own via
/// [`Trace::recorder`].  Dropping the recorder drains its ring into the
/// trace's collector (the only synchronized step).
pub struct Recorder {
    inner: Option<RecorderInner>,
}

impl Recorder {
    /// A recorder that records nothing (what a disabled trace hands out).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a span named `name`.  The span ends (and is recorded) when the
    /// returned guard drops; on a disabled recorder nothing happens and the
    /// clock is never read.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(inner) => SpanGuard {
                active: Some(ActiveSpan {
                    rec: inner,
                    name,
                    start_us: inner.now_us(),
                    args: Vec::new(),
                }),
            },
        }
    }

    /// Records a point-in-time event.  `fill` attaches arguments and only
    /// runs when the recorder is enabled, so call sites pay nothing for
    /// argument construction when tracing is off.
    pub fn instant<F: FnOnce(&mut Args)>(&self, name: &'static str, fill: F) {
        if let Some(inner) = &self.inner {
            let mut args = Args(Vec::new());
            fill(&mut args);
            let event = TraceEvent {
                name,
                kind: EventKind::Instant {
                    ts_us: inner.now_us(),
                },
                args: args.0,
            };
            inner.ring.borrow_mut().push(event);
        }
    }

    /// Samples a gauge value (rendered as a counter track in Perfetto).
    pub fn counter(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            let event = TraceEvent {
                name,
                kind: EventKind::Counter {
                    ts_us: inner.now_us(),
                    value,
                },
                args: Vec::new(),
            };
            inner.ring.borrow_mut().push(event);
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let ring = inner.ring.into_inner();
            let log = ThreadLog {
                label: inner.label,
                tid: inner.tid,
                events: ring.events.into_iter().collect(),
                dropped: ring.dropped,
            };
            inner
                .trace
                .collected
                .lock()
                .expect("trace collector lock")
                .push(log);
        }
    }
}

/// Argument builder handed to [`Recorder::instant`] and friends.
pub struct Args(Vec<(&'static str, ArgValue)>);

impl Args {
    /// Attaches an unsigned integer argument.
    pub fn u64(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.0.push((key, ArgValue::U64(value)));
        self
    }

    /// Attaches a signed integer argument.
    pub fn i64(&mut self, key: &'static str, value: i64) -> &mut Self {
        self.0.push((key, ArgValue::I64(value)));
        self
    }

    /// Attaches a floating-point argument.
    pub fn f64(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.0.push((key, ArgValue::F64(value)));
        self
    }

    /// Attaches a boolean argument.
    pub fn bool(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.0.push((key, ArgValue::Bool(value)));
        self
    }

    /// Attaches a text argument.
    pub fn text(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.0.push((key, ArgValue::Text(value.to_string())));
        self
    }
}

struct ActiveSpan<'a> {
    rec: &'a RecorderInner,
    name: &'static str,
    start_us: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// An in-flight span.  Recorded when dropped; arguments can be attached any
/// time before that.  Nest guards lexically and the enclosing span encloses
/// the inner one on the timeline.
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl SpanGuard<'_> {
    /// Attaches an unsigned integer argument to the span.
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        if let Some(active) = &mut self.active {
            active.args.push((key, ArgValue::U64(value)));
        }
    }

    /// Attaches a floating-point argument to the span.
    pub fn arg_f64(&mut self, key: &'static str, value: f64) {
        if let Some(active) = &mut self.active {
            active.args.push((key, ArgValue::F64(value)));
        }
    }

    /// Attaches a text argument to the span.
    pub fn arg_text(&mut self, key: &'static str, value: &str) {
        if let Some(active) = &mut self.active {
            active.args.push((key, ArgValue::Text(value.to_string())));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let end_us = active.rec.now_us();
            let event = TraceEvent {
                name: active.name,
                kind: EventKind::Span {
                    start_us: active.start_us,
                    dur_us: end_us.saturating_sub(active.start_us),
                },
                args: active.args,
            };
            active.rec.ring.borrow_mut().push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        let rec = trace.recorder("nothing");
        assert!(!rec.is_enabled());
        {
            let mut span = rec.span("never");
            span.arg_u64("k", 1);
        }
        rec.instant("never", |a| {
            a.u64("k", 2);
        });
        rec.counter("never", 3.0);
        drop(rec);
        assert!(trace.logs().is_empty());
        assert!(trace.to_chrome_json().is_none());
    }

    #[test]
    fn spans_nest_and_order_on_one_thread() {
        let trace = Trace::enabled();
        {
            let rec = trace.recorder("t0");
            let outer = rec.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = rec.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            drop(outer);
        }
        let logs = trace.logs();
        assert_eq!(logs.len(), 1);
        let log = &logs[0];
        assert_eq!(log.label, "t0");
        assert_eq!(log.dropped, 0);
        // Guards drop inner-first, so the inner span is recorded first.
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].name, "inner");
        assert_eq!(log.events[1].name, "outer");
        let (outer_start, outer_dur) = match log.events[1].kind {
            EventKind::Span { start_us, dur_us } => (start_us, dur_us),
            _ => panic!("outer must be a span"),
        };
        let (inner_start, inner_dur) = match log.events[0].kind {
            EventKind::Span { start_us, dur_us } => (start_us, dur_us),
            _ => panic!("inner must be a span"),
        };
        // The outer span encloses the inner span on the timeline.
        assert!(outer_start <= inner_start);
        assert!(inner_start + inner_dur <= outer_start + outer_dur);
        assert!(inner_dur <= outer_dur);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let trace = Trace::enabled_with_capacity(4);
        {
            let rec = trace.recorder("t0");
            for i in 0..10u64 {
                rec.instant("tick", |a| {
                    a.u64("i", i);
                });
            }
        }
        let logs = trace.logs();
        assert_eq!(logs.len(), 1);
        let log = &logs[0];
        assert_eq!(log.dropped, 6);
        assert_eq!(log.events.len(), 4);
        // The survivors are the newest four events, oldest dropped first.
        let survivors: Vec<u64> = log
            .events
            .iter()
            .map(|e| match e.args[0].1 {
                ArgValue::U64(v) => v,
                _ => panic!("u64 arg"),
            })
            .collect();
        assert_eq!(survivors, vec![6, 7, 8, 9]);
    }

    #[test]
    fn recorders_on_many_threads_all_drain() {
        let trace = Trace::enabled();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let trace = trace.clone();
                scope.spawn(move || {
                    let rec = trace.recorder(&format!("thread{t}"));
                    let _span = rec.span("work");
                });
            }
        });
        let logs = trace.logs();
        assert_eq!(logs.len(), 4);
        let mut tids: Vec<u64> = logs.iter().map(|l| l.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "every recorder gets a distinct tid");
        assert!(logs.iter().all(|l| l.events.len() == 1));
    }
}
