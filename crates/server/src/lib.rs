//! The simulation-as-a-service layer: a resident job server over the
//! deterministic engine, with a content-addressed result cache.
//!
//! Everything the engine runs is a pure function of its serializable spec
//! (the jobs of an [`engine::JobList`]), so serving simulations is classic
//! infrastructure work:
//!
//! * **transport** — a line-delimited JSON protocol over a unix-domain
//!   socket and/or loopback TCP ([`protocol`]): one request per
//!   connection, results streamed back frame by frame as jobs complete;
//! * **scheduling** — a FIFO submission queue ([`queue`]) drained by a
//!   single scheduler thread driving [`engine::execute`], so submissions
//!   run in arrival order and each one gets the full worker budget;
//! * **caching** — a content-addressed result cache ([`cache`]) keyed by
//!   [`engine::spec_fingerprint`]: identical resubmissions replay the
//!   recorded frames byte for byte without touching the engine;
//! * **protection** — loopback-only TCP, per-submission deadlines,
//!   cancellation of a run whose client disconnected, a panicking job
//!   failing its own submission only, and graceful shutdown that drains the
//!   queue before exit;
//! * **observability** — server counters ([`ServerMetrics`]) exported
//!   through the workspace's standard [`metrics::MetricsReport`] envelope
//!   (`kind: "server"`).
//!
//! The CLI front ends live in `sms-experiments` (`serve` and `submit`); the
//! [`client`] module is the reusable client those are built on.
//!
//! # Example
//!
//! ```
//! use server::{client, Endpoint, Server, ServerConfig, SubmitOptions};
//!
//! let dir = std::env::temp_dir();
//! let socket = dir.join(format!("sms-doc-{}.sock", std::process::id()));
//! let server = Server::start(ServerConfig {
//!     unix_socket: Some(socket.clone()),
//!     ..ServerConfig::default()
//! })
//! .expect("server starts");
//!
//! let endpoint = Endpoint::Unix(socket);
//! let list = engine::JobList::new(Vec::new());
//! let outcome = client::submit(&endpoint, &list, &SubmitOptions::default(), &mut |_| {})
//!     .expect("empty submission succeeds");
//! assert_eq!(outcome.frames.len(), 0);
//!
//! client::shutdown(&endpoint).expect("shutdown");
//! let metrics = server.wait();
//! assert_eq!(metrics.submissions, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::ResultCache;
pub use client::{ClientError, Endpoint, SubmitOptions, SubmitOutcome};
pub use protocol::{
    Accepted, Done, ErrorFrame, Frame, JobFrame, Request, ShutdownAck, SubmitRequest,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerError, ServerMetrics, REPORT_KIND};
