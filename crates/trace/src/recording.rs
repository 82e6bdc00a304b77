//! In-memory recordings of an access stream, replayed by any number of
//! readers.
//!
//! A [`Recording`] stores accesses as columns — address and program counter
//! as `u64`, CPU index and access kind packed into one byte — so it costs
//! [`Recording::BYTES_PER_ACCESS`] (17) bytes per access instead of the 24
//! of a `MemAccess` array.  A [`RecordingStream`] replays a prefix of it
//! through an `Arc`, so several simulations can read one recording at once.

use crate::access::{AccessKind, Addr, MemAccess, Pc};
use crate::stream::AccessStream;
use std::io;
use std::sync::Arc;

/// An access stream recorded in memory, column by column.
#[derive(Debug)]
pub struct Recording {
    name: String,
    addr: Vec<Addr>,
    pc: Vec<Pc>,
    /// The CPU index in the low seven bits; the top bit marks a write.
    cpu_kind: Vec<u8>,
}

impl Recording {
    /// Memory one recorded access occupies.
    pub const BYTES_PER_ACCESS: usize = 17;

    /// The largest CPU index a recording can hold.
    pub const MAX_CPU: u8 = 0x7f;

    const WRITE: u8 = 0x80;

    /// Records the next `n` accesses of `stream`, or all that remain if it
    /// runs dry first.
    ///
    /// # Errors
    ///
    /// The error that ended the stream early, if any
    /// ([`AccessStream::take_error`]).
    ///
    /// # Panics
    ///
    /// Panics if an access's CPU index is above [`MAX_CPU`](Self::MAX_CPU).
    pub fn record<S: AccessStream + ?Sized>(stream: &mut S, n: usize) -> io::Result<Self> {
        let mut recording = Recording {
            name: stream.name().to_string(),
            addr: Vec::with_capacity(n),
            pc: Vec::with_capacity(n),
            cpu_kind: Vec::with_capacity(n),
        };
        for access in stream.take(n) {
            assert!(
                access.cpu <= Self::MAX_CPU,
                "cpu {} cannot be recorded",
                access.cpu
            );
            let write = if access.kind.is_write() {
                Self::WRITE
            } else {
                0
            };
            recording.addr.push(access.addr);
            recording.pc.push(access.pc);
            recording.cpu_kind.push(access.cpu | write);
        }
        match stream.take_error() {
            Some(e) => Err(e),
            None => Ok(recording),
        }
    }

    fn len(&self) -> usize {
        self.addr.len()
    }

    fn get(&self, index: usize) -> MemAccess {
        let cpu_kind = self.cpu_kind[index];
        MemAccess {
            cpu: cpu_kind & Self::MAX_CPU,
            pc: self.pc[index],
            addr: self.addr[index],
            kind: if cpu_kind & Self::WRITE != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        }
    }

    /// A stream over the first `limit` recorded accesses (all of them if
    /// fewer were recorded), named like the recorded stream.
    pub fn replay(self: &Arc<Self>, limit: usize) -> RecordingStream {
        RecordingStream {
            recording: Arc::clone(self),
            next: 0,
            end: limit.min(self.len()),
        }
    }
}

/// A stream replaying a prefix of a shared [`Recording`].
#[derive(Debug, Clone)]
pub struct RecordingStream {
    recording: Arc<Recording>,
    next: usize,
    end: usize,
}

impl Iterator for RecordingStream {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        if self.next == self.end {
            return None;
        }
        let access = self.recording.get(self.next);
        self.next += 1;
        Some(access)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl AccessStream for RecordingStream {
    fn name(&self) -> &str {
        &self.recording.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;
    use crate::stream::{collect_n, VecStream};
    use crate::suite::Application;

    #[test]
    fn replays_the_recorded_accesses_in_order() {
        let config = GeneratorConfig::default().with_cpus(4);
        let expected = collect_n(&mut Application::WebZeus.stream(5, &config), 2_000);
        let recording = Arc::new(
            Recording::record(&mut Application::WebZeus.stream(5, &config), 2_000).unwrap(),
        );
        assert_eq!(recording.len(), 2_000);
        let replayed: Vec<MemAccess> = recording.replay(usize::MAX).collect();
        assert_eq!(replayed, expected);
        assert_eq!(recording.replay(0).name(), "web-zeus");
    }

    #[test]
    fn each_reader_replays_its_own_prefix() {
        let accesses: Vec<MemAccess> = (0..10u64)
            .map(|i| {
                if i % 3 == 0 {
                    MemAccess::write(127, i, i * 64)
                } else {
                    MemAccess::read(i as u8, u64::MAX - i, u64::MAX - i * 64)
                }
            })
            .collect();
        let recording =
            Arc::new(Recording::record(&mut VecStream::new("v", accesses.clone()), 100).unwrap());
        assert_eq!(recording.len(), 10, "a short stream records what it has");
        let short = recording.replay(4);
        assert_eq!(short.size_hint(), (4, Some(4)));
        assert_eq!(short.collect::<Vec<_>>(), accesses[..4]);
        assert_eq!(recording.replay(100).collect::<Vec<_>>(), accesses);
        assert!(recording.replay(0).next().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot be recorded")]
    fn cpu_indices_above_the_packed_range_are_rejected() {
        let mut stream = VecStream::new("v", vec![MemAccess::read(128, 0, 0)]);
        let _ = Recording::record(&mut stream, 1);
    }
}
