//! The repository benchmark.
//!
//! Three workloads drive the simulator crates through their public
//! functions only: `sweep` (figure job lists through the job-parallel
//! engine), `long-job` (one long job through the segment pipeline) and
//! `serve-mix` (a resident server under a closed loop of clients).  An
//! untraced run reports the end-to-end metrics; a traced run reports the
//! per-layer metrics and the ledger.  `BENCHMARK.json` at the repository
//! root names both sets.

pub mod calibrate;
pub mod e2e;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod workload;
