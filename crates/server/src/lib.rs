//! The simulation-as-a-service layer: a resident job server over the
//! deterministic engine, with a content-addressed result cache.
//!
//! Everything the engine runs is a pure function of its serializable spec
//! ([`engine::JobList`] + the engine-relevant [`engine::EngineConfig`]
//! fields), so serving simulations is classic infrastructure work:
//!
//! * **transport** — a line-delimited JSON protocol over a unix-domain
//!   socket and/or loopback TCP ([`protocol`]): one request per
//!   connection, results streamed back frame by frame as jobs complete;
//! * **scheduling** — a prioritized submission queue ([`queue`]) drained by
//!   one runner thread per engine worker in the server's budget: a runner
//!   starts the highest-priority submission whenever a worker is free and
//!   grants it as many free workers as it asked for and can use (an
//!   explicit `--jobs` above the budget is capped at the budget), so start
//!   order is strictly by priority, running work is never preempted, and
//!   a queued miss runs on an idle worker instead of waiting;
//! * **caching** — a content-addressed result cache ([`cache`]) keyed by
//!   [`engine::spec_fingerprint`]: identical resubmissions replay the
//!   recorded frames byte for byte without touching the engine;
//! * **protection** — per-client job quotas, loopback-only TCP, and
//!   graceful shutdown that drains the queue before exit;
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
pub use server::{ClientUsage, Server, ServerConfig, ServerError, ServerMetrics, REPORT_KIND};
