//! Synthetic memory-access trace generation for the Spatial Memory Streaming
//! (ISCA 2006) reproduction.
//!
//! The original paper evaluates SMS on memory reference traces collected with
//! the FLEXUS full-system simulator running commercial (TPC-C OLTP on DB2 and
//! Oracle, TPC-H decision support, SPECweb on Apache and Zeus) and scientific
//! (em3d, ocean, sparse) workloads.  Those traces are proprietary, so this
//! crate provides deterministic, seedable workload generators that reproduce
//! the *structural* properties the paper relies on:
//!
//! * code-correlated spatial access patterns spanning multi-kilobyte regions
//!   (database buffer-pool pages, packet buffers, matrix rows);
//! * heavy interleaving of accesses to many concurrently-live regions
//!   (OLTP transactions, web connections);
//! * once-visited data swept by scans and joins (DSS), which only a
//!   PC-indexed predictor can cover;
//! * dense, regular traversals (scientific kernels); and
//! * read/write sharing between processors, which terminates spatial region
//!   generations through invalidations.
//!
//! # Quick example
//!
//! ```
//! use trace::{Application, GeneratorConfig};
//!
//! let config = GeneratorConfig::default().with_cpus(2);
//! let mut stream = Application::OltpDb2.stream(42, &config);
//! let accesses: Vec<_> = (&mut stream).take(1000).collect();
//! assert_eq!(accesses.len(), 1000);
//! assert!(accesses.iter().all(|a| (a.cpu as usize) < 2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod config;
pub mod interleave;
pub mod io;
pub mod recording;
pub mod rng;
pub mod source;
pub mod stream;
pub mod suite;
pub mod workloads;

pub use access::{AccessKind, Addr, MemAccess, Pc};
pub use config::GeneratorConfig;
pub use interleave::Interleaver;
pub use recording::{Recording, RecordingStream};
pub use source::{retry_transient, ReplayStream, TraceSource};
pub use stream::{fill_segment, AccessStream, BoxedStream};
pub use suite::{Application, ApplicationClass};
