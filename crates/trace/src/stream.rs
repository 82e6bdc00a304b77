//! The [`AccessStream`] abstraction over trace sources.

use crate::access::MemAccess;

/// An infinite (or very long) stream of memory accesses.
///
/// All workload generators implement this trait; so do trace readers and the
/// [`Interleaver`](crate::interleave::Interleaver).  The trait is
/// object-safe, allowing heterogeneous collections of workloads
/// (`Vec<BoxedStream>`) in the experiment harness.
pub trait AccessStream: Iterator<Item = MemAccess> {
    /// A short, human-readable name for this stream (used in reports).
    fn name(&self) -> &str;

    /// The error that ended the stream early, if any.
    ///
    /// Synthetic generators never fail; file-backed replay streams end at
    /// the first corrupt record and report it here, so drivers can
    /// distinguish "trace exhausted" from "trace corrupt".
    fn take_error(&mut self) -> Option<std::io::Error> {
        None
    }
}

/// A boxed, dynamically-dispatched access stream.
pub type BoxedStream = Box<dyn AccessStream + Send>;

/// An access stream backed by an in-memory vector; useful in tests and for
/// replaying recorded traces.
#[derive(Debug, Clone)]
pub struct VecStream {
    name: String,
    accesses: std::vec::IntoIter<MemAccess>,
}

impl VecStream {
    /// Creates a stream that yields `accesses` in order under `name`.
    pub fn new(name: impl Into<String>, accesses: Vec<MemAccess>) -> Self {
        Self {
            name: name.into(),
            accesses: accesses.into_iter(),
        }
    }
}

impl Iterator for VecStream {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        self.accesses.next()
    }
}

impl AccessStream for VecStream {
    fn name(&self) -> &str {
        &self.name
    }
}

/// Collects the next `n` accesses from a stream into a vector.
///
/// This is a convenience wrapper around `Iterator::take` that keeps the
/// stream usable afterwards.
pub fn collect_n<S: AccessStream + ?Sized>(stream: &mut S, n: usize) -> Vec<MemAccess> {
    let mut out = Vec::with_capacity(n);
    fill_segment(stream, &mut out, n);
    out
}

/// Refills `out` with the next (up to) `n` accesses from the stream,
/// returning how many were delivered.
///
/// This is the pull step of the engine's job loop: the buffer is cleared
/// and reused across segments, so a steady-state run allocates nothing per
/// segment.  A return value below `n` means the stream ran dry — by
/// exhaustion or by a recorded error; check
/// [`AccessStream::take_error`] to tell the two apart.
pub fn fill_segment<S: AccessStream + ?Sized>(
    stream: &mut S,
    out: &mut Vec<MemAccess>,
    n: usize,
) -> usize {
    out.clear();
    for _ in 0..n {
        match stream.next() {
            Some(a) => out.push(a),
            None => break,
        }
    }
    out.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemAccess;

    #[test]
    fn vec_stream_yields_in_order() {
        let accesses = vec![
            MemAccess::read(0, 1, 64),
            MemAccess::write(0, 2, 128),
            MemAccess::read(1, 3, 192),
        ];
        let mut s = VecStream::new("test", accesses.clone());
        assert_eq!(s.name(), "test");
        let got: Vec<_> = (&mut s).collect();
        assert_eq!(got, accesses);
    }

    #[test]
    fn collect_n_stops_at_end() {
        let accesses = vec![MemAccess::read(0, 1, 64); 5];
        let mut s = VecStream::new("short", accesses);
        let got = collect_n(&mut s, 10);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn collect_n_leaves_remainder() {
        let accesses: Vec<_> = (0..10).map(|i| MemAccess::read(0, 1, i * 64)).collect();
        let mut s = VecStream::new("long", accesses);
        let first = collect_n(&mut s, 4);
        let rest = collect_n(&mut s, 100);
        assert_eq!(first.len(), 4);
        assert_eq!(rest.len(), 6);
        assert_eq!(rest[0].addr, 4 * 64);
    }
}
