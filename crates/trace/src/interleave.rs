//! Interleaving of per-processor access streams into a single global order.

use crate::access::MemAccess;
use crate::stream::{AccessStream, BoxedStream};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::rng::stream_rng;

/// Merges several per-CPU streams into one globally-interleaved stream.
///
/// The interleaver models the loose, bursty interleaving seen on a real
/// multiprocessor: it repeatedly picks a processor at random and drains a
/// short burst of its accesses before switching.  Burst lengths default to a
/// handful of accesses so that independent spatial regions from different
/// processors and transactions interleave heavily, which is the property the
/// paper's AGT design specifically targets.
pub struct Interleaver {
    name: String,
    streams: Vec<BoxedStream>,
    rng: ChaCha8Rng,
    burst: usize,
    current: usize,
    remaining_in_burst: usize,
    exhausted: Vec<bool>,
    /// Number of streams not yet exhausted.
    live: usize,
}

impl std::fmt::Debug for Interleaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleaver")
            .field("name", &self.name)
            .field("streams", &self.streams.len())
            .field("burst", &self.burst)
            .finish()
    }
}

impl Interleaver {
    /// Creates an interleaver over `streams` with the default burst length.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty.
    pub fn new(name: impl Into<String>, streams: Vec<BoxedStream>, seed: u64) -> Self {
        Self::with_burst(name, streams, seed, 4)
    }

    /// Creates an interleaver with an explicit maximum burst length.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or `burst` is zero.
    pub fn with_burst(
        name: impl Into<String>,
        streams: Vec<BoxedStream>,
        seed: u64,
        burst: usize,
    ) -> Self {
        assert!(!streams.is_empty(), "interleaver needs at least one stream");
        assert!(burst >= 1, "burst length must be at least 1");
        let n = streams.len();
        Self {
            name: name.into(),
            streams,
            rng: stream_rng(seed, 0xC0FFEE),
            burst,
            current: 0,
            remaining_in_burst: 0,
            exhausted: vec![false; n],
            live: n,
        }
    }

    /// Starts a burst on a random live stream.  The `k`-th live stream is
    /// drawn from `0..live`, so the draws are those of indexing a list of the
    /// live streams, without building one.
    fn pick_next_stream(&mut self) {
        let k = self.rng.gen_range(0..self.live);
        self.current = if self.live == self.streams.len() {
            k
        } else {
            (0..self.streams.len())
                .filter(|&i| !self.exhausted[i])
                .nth(k)
                .expect("k is below the live count")
        };
        self.remaining_in_burst = self.rng.gen_range(1..=self.burst);
    }
}

impl Iterator for Interleaver {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        loop {
            if self.live == 0 {
                return None;
            }
            if self.remaining_in_burst == 0 || self.exhausted[self.current] {
                self.pick_next_stream();
            }
            match self.streams[self.current].next() {
                Some(access) => {
                    self.remaining_in_burst -= 1;
                    return Some(access);
                }
                None => {
                    self.exhausted[self.current] = true;
                    self.live -= 1;
                    self.remaining_in_burst = 0;
                }
            }
        }
    }
}

impl AccessStream for Interleaver {
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::VecStream;

    fn cpu_stream(cpu: u8, n: usize) -> BoxedStream {
        let accesses: Vec<_> = (0..n)
            .map(|i| MemAccess::read(cpu, 0x1000 + cpu as u64, (i as u64) * 64))
            .collect();
        Box::new(VecStream::new(format!("cpu{cpu}"), accesses))
    }

    #[test]
    fn yields_all_accesses_from_all_streams() {
        let streams = vec![cpu_stream(0, 100), cpu_stream(1, 50), cpu_stream(2, 75)];
        let inter = Interleaver::new("mix", streams, 1);
        let all: Vec<_> = inter.collect();
        assert_eq!(all.len(), 225);
        assert_eq!(all.iter().filter(|a| a.cpu == 0).count(), 100);
        assert_eq!(all.iter().filter(|a| a.cpu == 1).count(), 50);
        assert_eq!(all.iter().filter(|a| a.cpu == 2).count(), 75);
    }

    #[test]
    fn per_cpu_order_is_preserved() {
        let streams = vec![cpu_stream(0, 200), cpu_stream(1, 200)];
        let inter = Interleaver::new("mix", streams, 2);
        let all: Vec<_> = inter.collect();
        for cpu in 0..2u8 {
            let addrs: Vec<u64> = all
                .iter()
                .filter(|a| a.cpu == cpu)
                .map(|a| a.addr)
                .collect();
            let mut sorted = addrs.clone();
            sorted.sort_unstable();
            assert_eq!(addrs, sorted, "cpu {cpu} order was not preserved");
        }
    }

    #[test]
    fn interleaving_actually_switches_cpus() {
        let streams = vec![cpu_stream(0, 500), cpu_stream(1, 500)];
        let inter = Interleaver::new("mix", streams, 3);
        let all: Vec<_> = inter.collect();
        let switches = all.windows(2).filter(|w| w[0].cpu != w[1].cpu).count();
        assert!(switches > 50, "only {switches} cpu switches observed");
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            let streams = vec![cpu_stream(0, 100), cpu_stream(1, 100)];
            Interleaver::new("mix", streams, 99).collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_streams_rejected() {
        let _ = Interleaver::new("empty", vec![], 0);
    }
}
