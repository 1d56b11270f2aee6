//! The bench pipeline: `sms-experiments bench`.
//!
//! Runs the job-bearing experiments at a reduced scale through the engine
//! four ways — serial, job-parallel at `N` workers, **segment-parallel**
//! (same `N` workers with the intra-job segment pipeline), and
//! **speculative** (the segment pipeline with run-ahead speculation, every
//! segment verified against the authoritative state before commit) —
//! measures per-figure throughput and speedup with the engine's own
//! telemetry, measures the **served** path (each figure's
//! job list submitted to a local resident job server over its unix-domain
//! socket — a cold round trip that prices the protocol + scheduling
//! overhead, then best-of-N cache-hit replays that price the
//! content-addressed result cache), and emits everything as a
//! schema-versioned `BENCH_<name>.json` — the perf trajectory the ROADMAP's
//! scaling work measures itself against.
//!
//! Each figure's measurement starts with an unmeasured **warm-up** pass, so
//! cold-start costs (page faults, allocator growth, file cache) no longer
//! land entirely on whichever configuration happens to run first.
//!
//! The report is wrapped in the shared [`MetricsReport`] envelope
//! (`kind: "bench"`) and validates its own schema ([`BenchReport::validate`]);
//! CI fails the bench job when validation fails.  [`diff_reports`] compares
//! a fresh report against a previously recorded one (`bench --against`) and
//! flags per-figure throughput regressions, tolerating older report schemas
//! by reading only the fields it needs.

use crate::catalog::{figure_jobs, job_bearing_experiments};
use crate::common::ExperimentConfig;
use engine::{run_jobs_metered, run_jobs_observed, EngineConfig, JobList, JobResult, Registry};
use metrics::{per_sec, MetricsConfig, MetricsReport, Stopwatch};
use serde::{Deserialize, Serialize};
use tracelog::Trace;

/// The [`MetricsReport`] kind tag of a serialized bench report.
pub const REPORT_KIND: &str = "bench";

/// How `sms-experiments bench` was invoked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchOptions {
    /// Report name (lands in the report and the default output filename).
    pub name: String,
    /// Parallel worker count to compare against serial (`0` = one per
    /// available hardware thread).
    pub workers: usize,
    /// Reduced scale: tiny traces and representative applications per class
    /// (the CI configuration).
    pub quick: bool,
    /// Restrict the measured experiments (empty = every job-bearing
    /// experiment).  Used by tests; the CLI always measures the full suite.
    pub figures: Vec<String>,
    /// Accesses per segment for the segment-parallel measurement (`None` =
    /// a scale-derived default).
    pub segment_size: Option<usize>,
    /// Speculation depth for the speculative measurement (`None` = the
    /// default depth of 4 segments ahead of the commit frontier).
    pub speculate: Option<usize>,
    /// Measured passes per figure (`bench --repeat N`, minimum 1).  Each
    /// figure records best-of-N wall-clock per configuration plus the
    /// relative spread of its parallel-throughput samples, so noisy hosts
    /// can be recognized in the payload instead of guessed at.
    pub repeat: usize,
}

impl BenchOptions {
    /// The default invocation: full job-bearing suite, auto worker count.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            workers: 0,
            quick: false,
            figures: Vec::new(),
            segment_size: None,
            speculate: None,
            repeat: 1,
        }
    }
}

/// The experiment scale a bench report was measured at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchScale {
    /// Simulated processors per job.
    pub cpus: usize,
    /// Demand accesses per job.
    pub accesses: usize,
    /// Whether class-level figures used representative applications only.
    pub representative_only: bool,
    /// Accesses per segment used by the segment-parallel measurement.
    pub segment_size: usize,
    /// Run-ahead depth used by the speculative measurement.
    pub speculation: usize,
    /// Measured passes per figure; recorded timings are best-of-`repeats`.
    pub repeats: usize,
}

/// Throughput and speedup of one experiment's job list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureBench {
    /// Experiment name.
    pub figure: String,
    /// Jobs in the experiment's list.
    pub jobs: usize,
    /// Demand accesses simulated across the list (serial run).
    pub accesses: u64,
    /// Wall-clock seconds of the 1-worker run.
    pub serial_seconds: f64,
    /// Wall-clock seconds of the N-worker run.
    pub parallel_seconds: f64,
    /// Accesses/second of the 1-worker run.
    pub serial_accesses_per_sec: f64,
    /// Accesses/second of the N-worker run.
    pub parallel_accesses_per_sec: f64,
    /// `serial_seconds / parallel_seconds`.
    pub speedup: f64,
    /// Whether the N-worker results were bit-identical to the serial run
    /// (must always be `true`; recorded so the report proves it).
    pub deterministic: bool,
    /// Total wall-clock seconds of the unmeasured warm-up passes that
    /// precede the measured runs (the ordering-bias fix: cold-start cost
    /// lands here, not on whichever measured configuration runs first).
    /// The sum of the four per-configuration warm-up timings below.
    pub warmup_seconds: f64,
    /// Wall-clock seconds of the serial configuration's warm-up pass.  This
    /// and the three fields below are required as of envelope schema
    /// version 6; older reports recorded only the parallel warm-up total.
    pub warmup_serial_seconds: f64,
    /// Wall-clock seconds of the N-worker configuration's warm-up pass.
    pub warmup_parallel_seconds: f64,
    /// Wall-clock seconds of the segment-parallel configuration's warm-up
    /// pass.
    pub warmup_segmented_seconds: f64,
    /// Wall-clock seconds of the speculative configuration's warm-up pass.
    pub warmup_speculative_seconds: f64,
    /// Wall-clock seconds of the N-worker segment-parallel run.
    pub segmented_seconds: f64,
    /// Accesses/second of the segment-parallel run.
    pub segmented_accesses_per_sec: f64,
    /// `serial_seconds / segmented_seconds` — the intra-job pipeline's
    /// speedup over the serial run.
    pub segmented_speedup: f64,
    /// Whether the segment-parallel results were bit-identical to the
    /// serial run (must always be `true`).
    pub segmented_deterministic: bool,
    /// Wall-clock seconds of the speculative segment-parallel run (the
    /// segment pipeline with run-ahead speculation).  This and the fields
    /// below are required as of envelope schema version 3; `bench --against`
    /// reads pre-speculation reports leniently without them.
    pub speculative_seconds: f64,
    /// Accesses/second of the speculative run.
    pub speculative_accesses_per_sec: f64,
    /// `serial_seconds / speculative_seconds`.
    pub speculative_speedup: f64,
    /// Whether the speculative results were bit-identical to the serial run
    /// (must always be `true` — speculation commits only verified segments).
    pub speculative_deterministic: bool,
    /// Speculative segments that passed fingerprint verification and were
    /// committed, summed over the figure's jobs (must be nonzero: the
    /// speculative configuration has to actually speculate).
    pub speculation_commits: u64,
    /// Relative spread of the parallel-throughput samples across the
    /// repeated passes: `(max - min) / max`, `0.0` when a single pass was
    /// measured.  Required as of envelope schema version 4; a large spread
    /// means the host was noisy and the best-of-N numbers should be read
    /// with care.
    pub parallel_spread: f64,
    /// Wall-clock seconds of the cold served round trip: the figure's job
    /// list submitted to a local resident job server over its unix-domain
    /// socket, results streamed back frame by frame.  Includes protocol
    /// encode/decode and queue scheduling on top of the engine run, so the
    /// gap to `parallel_seconds` prices the serving overhead.  This and the
    /// fields below are required as of envelope schema version 5;
    /// `bench --against` reads pre-server reports leniently without them.
    pub served_seconds: f64,
    /// Accesses/second of the cold served round trip.
    pub served_accesses_per_sec: f64,
    /// `serial_seconds / served_seconds`.
    pub served_speedup: f64,
    /// Whether the served results were bit-identical to the serial run and
    /// the cold submission actually computed (must always be `true`).
    pub served_deterministic: bool,
    /// Best-of-`repeats` wall-clock seconds of resubmitting the identical
    /// spec: answered from the server's content-addressed result cache
    /// without touching the engine, so this prices pure replay throughput.
    pub served_cached_seconds: f64,
    /// Accesses/second of the cache-hit replay.
    pub served_cached_accesses_per_sec: f64,
    /// Whether every resubmission was answered from the cache with results
    /// bit-identical to the cold round trip (must always be `true`).
    pub served_cache_hit: bool,
}

/// Whole-suite aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchTotals {
    /// Jobs across all measured experiments.
    pub jobs: u64,
    /// Demand accesses across all measured experiments (serial run).
    pub accesses: u64,
    /// Total 1-worker wall-clock seconds.
    pub serial_seconds: f64,
    /// Total N-worker wall-clock seconds.
    pub parallel_seconds: f64,
    /// Whole-suite parallel speedup.
    pub speedup: f64,
    /// Whole-suite N-worker throughput in accesses/second.
    pub parallel_accesses_per_sec: f64,
    /// Total segment-parallel wall-clock seconds.
    pub segmented_seconds: f64,
    /// Whole-suite segment-parallel speedup over serial.
    pub segmented_speedup: f64,
    /// Total speculative wall-clock seconds.
    pub speculative_seconds: f64,
    /// Whole-suite speculative speedup over serial.
    pub speculative_speedup: f64,
    /// Total cold served wall-clock seconds.
    pub served_seconds: f64,
    /// Whole-suite cold served speedup over serial (below the parallel
    /// speedup by exactly the serving overhead).
    pub served_speedup: f64,
    /// Total cache-hit replay wall-clock seconds.
    pub served_cached_seconds: f64,
    /// Whole-suite cache-hit replay speedup over serial.
    pub served_cached_speedup: f64,
}

/// The payload of a `BENCH_<name>.json` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report name (from `--name` / the default).
    pub name: String,
    /// Parallel worker count measured against serial.
    pub workers: usize,
    /// Hardware threads available on the measuring host — context for the
    /// recorded speedups (a 1-core container cannot show thread-level
    /// parallelism; segment-parallel gains there come from the pipeline's
    /// phase-batched cache locality alone).
    pub host_threads: usize,
    /// Scale the suite ran at.
    pub scale: BenchScale,
    /// Per-experiment throughput and speedup, in catalog order.
    pub figures: Vec<FigureBench>,
    /// Whole-suite aggregates.
    pub totals: BenchTotals,
}

impl BenchReport {
    /// Wraps the report in the shared schema-versioned envelope
    /// (`kind: "bench"`).
    pub fn into_envelope(&self) -> MetricsReport {
        MetricsReport::new(REPORT_KIND, self)
    }

    /// Decodes and validates a report from its envelope.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant: a bad envelope, a
    /// kind other than `"bench"`, an undecodable payload, or a payload that
    /// fails [`BenchReport::validate`].
    pub fn from_envelope(envelope: &MetricsReport) -> Result<Self, String> {
        envelope.validate()?;
        let report: BenchReport = envelope.decode(REPORT_KIND)?.ok_or_else(|| {
            format!(
                "expected report kind {REPORT_KIND:?}, got {:?}",
                envelope.kind
            )
        })?;
        report.validate()?;
        Ok(report)
    }

    /// Validates the payload schema: the structural invariants external
    /// tooling (and CI) may rely on.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("bench report has no name".to_string());
        }
        if self.workers == 0 {
            return Err("bench report must record a resolved worker count".to_string());
        }
        if self.figures.is_empty() {
            return Err("bench report measured no experiments".to_string());
        }
        for figure in &self.figures {
            let f = &figure.figure;
            if figure.jobs == 0 || figure.accesses == 0 {
                return Err(format!("{f}: empty measurement"));
            }
            if !(figure.serial_seconds > 0.0
                && figure.parallel_seconds > 0.0
                && figure.segmented_seconds > 0.0
                && figure.speculative_seconds > 0.0)
            {
                return Err(format!("{f}: missing wall-clock timings"));
            }
            if !(figure.serial_accesses_per_sec > 0.0
                && figure.parallel_accesses_per_sec > 0.0
                && figure.segmented_accesses_per_sec > 0.0
                && figure.speculative_accesses_per_sec > 0.0)
            {
                return Err(format!("{f}: missing throughput"));
            }
            if !figure.speedup.is_finite() || figure.speedup <= 0.0 {
                return Err(format!("{f}: bad speedup {}", figure.speedup));
            }
            if !figure.segmented_speedup.is_finite() || figure.segmented_speedup <= 0.0 {
                return Err(format!(
                    "{f}: bad segmented speedup {}",
                    figure.segmented_speedup
                ));
            }
            if !figure.deterministic {
                return Err(format!(
                    "{f}: parallel results diverged from the serial run"
                ));
            }
            if !figure.segmented_deterministic {
                return Err(format!(
                    "{f}: segment-parallel results diverged from the serial run"
                ));
            }
            if !figure.speculative_speedup.is_finite() || figure.speculative_speedup <= 0.0 {
                return Err(format!(
                    "{f}: bad speculative speedup {}",
                    figure.speculative_speedup
                ));
            }
            if !figure.speculative_deterministic {
                return Err(format!(
                    "{f}: speculative results diverged from the serial run"
                ));
            }
            if figure.speculation_commits == 0 {
                return Err(format!(
                    "{f}: speculative run committed no speculative segments"
                ));
            }
            if !(figure.parallel_spread.is_finite() && (0.0..1.0).contains(&figure.parallel_spread))
            {
                return Err(format!("{f}: bad sample spread {}", figure.parallel_spread));
            }
            if !(figure.warmup_serial_seconds > 0.0
                && figure.warmup_parallel_seconds > 0.0
                && figure.warmup_segmented_seconds > 0.0
                && figure.warmup_speculative_seconds > 0.0)
            {
                return Err(format!("{f}: missing per-configuration warm-up timings"));
            }
            if !(figure.served_seconds > 0.0 && figure.served_cached_seconds > 0.0) {
                return Err(format!("{f}: missing served wall-clock timings"));
            }
            if !(figure.served_accesses_per_sec > 0.0
                && figure.served_cached_accesses_per_sec > 0.0)
            {
                return Err(format!("{f}: missing served throughput"));
            }
            if !figure.served_speedup.is_finite() || figure.served_speedup <= 0.0 {
                return Err(format!("{f}: bad served speedup {}", figure.served_speedup));
            }
            if !figure.served_deterministic {
                return Err(format!("{f}: served results diverged from the serial run"));
            }
            if !figure.served_cache_hit {
                return Err(format!(
                    "{f}: an identical resubmission was not answered from the result cache"
                ));
            }
        }
        if self.scale.repeats == 0 {
            return Err("bench report must record the measured repeat count".to_string());
        }
        let jobs: u64 = self.figures.iter().map(|f| f.jobs as u64).sum();
        let accesses: u64 = self.figures.iter().map(|f| f.accesses).sum();
        if self.totals.jobs != jobs || self.totals.accesses != accesses {
            return Err("bench totals do not match the per-figure rows".to_string());
        }
        if !(self.totals.speedup.is_finite() && self.totals.speedup > 0.0) {
            return Err("bench totals have no speedup".to_string());
        }
        Ok(())
    }
}

/// Runs the bench suite and builds the report.
///
/// # Errors
///
/// The engine's message for a job that failed to prepare (cannot happen for
/// catalog-declared jobs unless the build is broken — surfaced rather than
/// panicking so the CLI exits cleanly).
pub fn run_bench(options: &BenchOptions) -> Result<BenchReport, String> {
    run_bench_observed(options, &Trace::disabled())
}

/// [`run_bench`] with span tracing: the measured engine passes and the
/// resident bench server share `trace`, so a `bench --trace-out` run yields
/// one Chrome-trace document covering workers, segment stages, and the
/// served round trips.  The unmeasured warm-up passes stay untraced — they
/// exist to absorb cold-start noise, not to be looked at.  With a disabled
/// trace this *is* [`run_bench`].
///
/// # Errors
///
/// As [`run_bench`].
pub fn run_bench_observed(options: &BenchOptions, trace: &Trace) -> Result<BenchReport, String> {
    let (config, representative_only) = if options.quick {
        (ExperimentConfig::tiny(), true)
    } else {
        (ExperimentConfig::quick(), false)
    };
    let workers = resolve_workers(options.workers);
    let figures: Vec<String> = if options.figures.is_empty() {
        job_bearing_experiments()
            .into_iter()
            .map(str::to_string)
            .collect()
    } else {
        options.figures.clone()
    };

    let segment_size = options
        .segment_size
        .filter(|&s| s > 0)
        .unwrap_or_else(|| (config.accesses / 6).max(10_000));
    let speculation = options.speculate.filter(|&d| d > 0).unwrap_or(4);
    let repeats = options.repeat.max(1);
    let registry = Registry::builtin();
    let collect = MetricsConfig::enabled();

    // One resident job server for the whole bench run: each figure's cold
    // submission prices the protocol + scheduling overhead, each identical
    // resubmission the content-addressed result cache.  The socket name
    // carries the pid and a counter so concurrent benches (e.g. the test
    // suite running in one process) cannot collide.
    static BENCH_SERVER_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let socket = std::env::temp_dir().join(format!(
        "sms-bench-{}-{}.sock",
        std::process::id(),
        BENCH_SERVER_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let bench_server = server::Server::start(server::ServerConfig {
        unix_socket: Some(socket.clone()),
        tcp: None,
        quota: 0,
        workers,
        cache_max_entries: 0,
        cache_max_bytes: 0,
        trace: trace.clone(),
        ..server::ServerConfig::default()
    })
    .map_err(|e| format!("bench job server failed to start: {e}"))?;
    let endpoint = server::Endpoint::Unix(socket);
    let submit_options = server::SubmitOptions {
        client: "bench".to_string(),
        workers,
        ..server::SubmitOptions::default()
    };

    // The measuring loop runs inside a closure so the bench server is shut
    // down (queue drained, socket file removed) on the error path too.
    let measure = || -> Result<Vec<FigureBench>, String> {
        let mut rows = Vec::with_capacity(figures.len());
        for name in &figures {
            let jobs = figure_jobs(name, &config, representative_only)
                .ok_or_else(|| format!("{name}: not a job-bearing experiment"))?;
            // Unmeasured warm-up of *each* configuration: pages, the
            // allocator, thread stacks and per-configuration code paths are
            // hot before any measured pass, so measurement order stops
            // biasing the serial-vs-parallel ratio.  Each pass is timed
            // individually — the report records per-configuration warm-up
            // wall-clock next to host_threads, so a suspicious measured
            // number can be cross-checked against its own cold pass.
            let warm = |config: &EngineConfig| -> Result<f64, String> {
                let watch = Stopwatch::started();
                run_jobs_metered(&jobs, config, registry, &MetricsConfig::disabled())
                    .map_err(|e| e.to_string())?;
                Ok(watch.elapsed_seconds())
            };
            let warmup_serial_seconds = warm(&EngineConfig::serial())?;
            let warmup_parallel_seconds = warm(&EngineConfig::with_workers(workers))?;
            let warmup_segmented_seconds =
                warm(&EngineConfig::with_workers(workers).with_segment_size(segment_size))?;
            let warmup_speculative_seconds = warm(
                &EngineConfig::with_workers(workers)
                    .with_segment_size(segment_size)
                    .with_speculation(speculation),
            )?;
            let warmup_seconds = warmup_serial_seconds
                + warmup_parallel_seconds
                + warmup_segmented_seconds
                + warmup_speculative_seconds;

            // Best-of-N measurement: every configuration runs `repeats` times,
            // the minimum wall-clock per configuration is recorded, and the
            // relative spread of the parallel-throughput samples lands in the
            // payload so a noisy host is visible instead of guessed at.
            // Determinism must hold on *every* pass, not just the fastest one.
            let mut accesses = 0u64;
            let mut baseline: Vec<JobResult> = Vec::new();
            let mut serial_seconds = f64::INFINITY;
            let mut parallel_seconds = f64::INFINITY;
            let mut segmented_seconds = f64::INFINITY;
            let mut speculative_seconds = f64::INFINITY;
            let mut deterministic = true;
            let mut segmented_deterministic = true;
            let mut speculative_deterministic = true;
            let mut speculation_commits = 0u64;
            let mut parallel_samples = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                let (serial_results, serial) =
                    run_jobs_observed(&jobs, &EngineConfig::serial(), registry, &collect, trace)
                        .map_err(|e| e.to_string())?;
                let (parallel_results, parallel) = run_jobs_observed(
                    &jobs,
                    &EngineConfig::with_workers(workers),
                    registry,
                    &collect,
                    trace,
                )
                .map_err(|e| e.to_string())?;
                let (segmented_results, segmented) = run_jobs_observed(
                    &jobs,
                    &EngineConfig::with_workers(workers).with_segment_size(segment_size),
                    registry,
                    &collect,
                    trace,
                )
                .map_err(|e| e.to_string())?;
                let (speculative_results, speculative) = run_jobs_observed(
                    &jobs,
                    &EngineConfig::with_workers(workers)
                        .with_segment_size(segment_size)
                        .with_speculation(speculation),
                    registry,
                    &collect,
                    trace,
                )
                .map_err(|e| e.to_string())?;
                accesses = serial.total_accesses;
                deterministic &= serial_results == parallel_results;
                segmented_deterministic &= serial_results == segmented_results;
                speculative_deterministic &= serial_results == speculative_results;
                serial_seconds = serial_seconds.min(serial.total_seconds);
                parallel_seconds = parallel_seconds.min(parallel.total_seconds);
                segmented_seconds = segmented_seconds.min(segmented.total_seconds);
                // The commit count rides with the fastest speculative pass, so
                // the recorded timing and its commit activity stay one story.
                if speculative.total_seconds < speculative_seconds {
                    speculative_seconds = speculative.total_seconds;
                    speculation_commits = speculative.jobs.iter().map(|j| j.spec_commits).sum();
                }
                parallel_samples.push(parallel.accesses_per_sec);
                baseline = serial_results;
            }

            // Served measurements: one cold round trip through the local job
            // server (the engine computes, so the frames must match the serial
            // baseline and must NOT come from the cache), then best-of-N
            // identical resubmissions, each of which must be answered from the
            // content-addressed result cache with bit-identical frames.
            let list = JobList::new(jobs.clone());
            let watch = Stopwatch::started();
            let cold = server::client::submit(&endpoint, &list, &submit_options, &mut |_| {})
                .map_err(|e| format!("{name}: served submission failed: {e}"))?;
            let served_seconds = watch.elapsed_seconds();
            let cold_results: Vec<JobResult> =
                cold.frames.iter().map(|f| f.result.clone()).collect();
            let served_deterministic = !cold.done.cache_hit && cold_results == baseline;
            let mut served_cached_seconds = f64::INFINITY;
            let mut served_cache_hit = true;
            for _ in 0..repeats {
                let watch = Stopwatch::started();
                let replay = server::client::submit(&endpoint, &list, &submit_options, &mut |_| {})
                    .map_err(|e| format!("{name}: cached resubmission failed: {e}"))?;
                served_cached_seconds = served_cached_seconds.min(watch.elapsed_seconds());
                let replay_results: Vec<JobResult> =
                    replay.frames.iter().map(|f| f.result.clone()).collect();
                served_cache_hit &= replay.done.cache_hit && replay_results == cold_results;
            }

            rows.push(FigureBench {
                figure: name.clone(),
                jobs: jobs.len(),
                accesses,
                serial_seconds,
                parallel_seconds,
                serial_accesses_per_sec: per_sec(accesses, serial_seconds),
                parallel_accesses_per_sec: per_sec(accesses, parallel_seconds),
                speedup: ratio(serial_seconds, parallel_seconds),
                deterministic,
                warmup_seconds,
                warmup_serial_seconds,
                warmup_parallel_seconds,
                warmup_segmented_seconds,
                warmup_speculative_seconds,
                segmented_seconds,
                segmented_accesses_per_sec: per_sec(accesses, segmented_seconds),
                segmented_speedup: ratio(serial_seconds, segmented_seconds),
                segmented_deterministic,
                speculative_seconds,
                speculative_accesses_per_sec: per_sec(accesses, speculative_seconds),
                speculative_speedup: ratio(serial_seconds, speculative_seconds),
                speculative_deterministic,
                speculation_commits,
                parallel_spread: sample_spread(&parallel_samples),
                served_seconds,
                served_accesses_per_sec: per_sec(accesses, served_seconds),
                served_speedup: ratio(serial_seconds, served_seconds),
                served_deterministic,
                served_cached_seconds,
                served_cached_accesses_per_sec: per_sec(accesses, served_cached_seconds),
                served_cache_hit,
            });
        }
        Ok(rows)
    };
    let rows = measure();
    // Drain and join the bench server before surfacing any measurement
    // error, so a failed bench never leaks the runner threads or the
    // socket file.
    bench_server.shutdown();
    let rows = rows?;

    let totals = BenchTotals {
        jobs: rows.iter().map(|f| f.jobs as u64).sum(),
        accesses: rows.iter().map(|f| f.accesses).sum(),
        serial_seconds: rows.iter().map(|f| f.serial_seconds).sum(),
        parallel_seconds: rows.iter().map(|f| f.parallel_seconds).sum(),
        speedup: ratio(
            rows.iter().map(|f| f.serial_seconds).sum(),
            rows.iter().map(|f| f.parallel_seconds).sum(),
        ),
        parallel_accesses_per_sec: per_sec(
            rows.iter().map(|f| f.accesses).sum(),
            rows.iter().map(|f| f.parallel_seconds).sum(),
        ),
        segmented_seconds: rows.iter().map(|f| f.segmented_seconds).sum(),
        segmented_speedup: ratio(
            rows.iter().map(|f| f.serial_seconds).sum(),
            rows.iter().map(|f| f.segmented_seconds).sum(),
        ),
        speculative_seconds: rows.iter().map(|f| f.speculative_seconds).sum(),
        speculative_speedup: ratio(
            rows.iter().map(|f| f.serial_seconds).sum(),
            rows.iter().map(|f| f.speculative_seconds).sum(),
        ),
        served_seconds: rows.iter().map(|f| f.served_seconds).sum(),
        served_speedup: ratio(
            rows.iter().map(|f| f.serial_seconds).sum(),
            rows.iter().map(|f| f.served_seconds).sum(),
        ),
        served_cached_seconds: rows.iter().map(|f| f.served_cached_seconds).sum(),
        served_cached_speedup: ratio(
            rows.iter().map(|f| f.serial_seconds).sum(),
            rows.iter().map(|f| f.served_cached_seconds).sum(),
        ),
    };

    Ok(BenchReport {
        name: options.name.clone(),
        workers,
        host_threads: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        scale: BenchScale {
            cpus: config.cpus,
            accesses: config.accesses,
            representative_only,
            segment_size,
            speculation,
            repeats,
        },
        figures: rows,
        totals,
    })
}

/// One figure's entry in a [`BenchDiff`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureDiff {
    /// Experiment name.
    pub figure: String,
    /// Parallel accesses/second in the old report.
    pub old_accesses_per_sec: f64,
    /// Parallel accesses/second in the new report.
    pub new_accesses_per_sec: f64,
    /// `new / old` — below 1.0 means the figure got slower.
    pub ratio: f64,
    /// Whether the ratio fell below the regression threshold.
    pub regressed: bool,
}

/// The result of comparing a fresh bench report against a recorded one
/// (`bench --against OLD.json`): per-figure throughput ratios and the
/// regression verdict.  Serialized (kind `"bench-diff"`) as the CI diff
/// artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchDiff {
    /// Name of the new report.
    pub name: String,
    /// Name recorded in the old report.
    pub against: String,
    /// Minimum acceptable `new / old` throughput ratio.
    pub threshold: f64,
    /// Figures present in both reports, in new-report order.
    pub figures: Vec<FigureDiff>,
    /// Figures only in the new report (not compared).
    pub added: Vec<String>,
    /// Figures only in the old report (not compared).
    pub removed: Vec<String>,
    /// Whether any compared figure regressed below the threshold.
    pub regressed: bool,
}

/// The [`MetricsReport`] kind tag of a serialized bench diff.
pub const DIFF_REPORT_KIND: &str = "bench-diff";

impl BenchDiff {
    /// Wraps the diff in the shared schema-versioned envelope.
    pub fn into_envelope(&self) -> MetricsReport {
        MetricsReport::new(DIFF_REPORT_KIND, self)
    }
}

/// Compares a fresh report against the JSON text of a previously recorded
/// `BENCH_*.json`.
///
/// The old file is read *leniently* — only the envelope shape and each
/// figure's `figure` + `parallel_accesses_per_sec` are required — so reports
/// recorded by older builds (before the segment-parallel columns existed)
/// remain comparable.  A figure regresses when its new parallel throughput
/// falls below `threshold * old`; absolute throughput is machine-dependent,
/// so compare reports recorded on comparable hosts (CI against CI).
///
/// # Errors
///
/// A description of why the old file cannot be compared: not a metrics
/// envelope, wrong report kind, or no comparable figures.
pub fn diff_reports(
    new: &BenchReport,
    old_json: &str,
    threshold: f64,
) -> Result<BenchDiff, String> {
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(format!(
            "threshold must be a positive number, got {threshold}"
        ));
    }
    let envelope: serde_json::Value =
        serde_json::from_str(old_json).map_err(|e| format!("not JSON: {e}"))?;
    let kind = envelope
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or_else(|| "not a metrics report envelope (no \"kind\")".to_string())?;
    if kind != REPORT_KIND {
        return Err(format!("expected a {REPORT_KIND:?} report, got {kind:?}"));
    }
    let data = envelope
        .get("data")
        .ok_or_else(|| "envelope has no payload".to_string())?;
    let old_name = data
        .get("name")
        .and_then(|n| n.as_str())
        .unwrap_or("<unnamed>")
        .to_string();
    let old_figures = data
        .get("figures")
        .and_then(|f| f.as_array())
        .ok_or_else(|| "old report has no figures".to_string())?;
    let mut old_throughput: Vec<(String, f64)> = Vec::new();
    for figure in old_figures {
        let name = figure
            .get("figure")
            .and_then(|n| n.as_str())
            .ok_or_else(|| "old report figure without a name".to_string())?;
        let throughput = figure
            .get("parallel_accesses_per_sec")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("old report figure {name}: no parallel throughput"))?;
        old_throughput.push((name.to_string(), throughput));
    }

    let mut figures = Vec::new();
    let mut added = Vec::new();
    for figure in &new.figures {
        match old_throughput
            .iter()
            .find(|(name, _)| *name == figure.figure)
        {
            Some((_, old_per_sec)) if *old_per_sec > 0.0 => {
                let ratio = figure.parallel_accesses_per_sec / old_per_sec;
                figures.push(FigureDiff {
                    figure: figure.figure.clone(),
                    old_accesses_per_sec: *old_per_sec,
                    new_accesses_per_sec: figure.parallel_accesses_per_sec,
                    ratio,
                    regressed: ratio < threshold,
                });
            }
            // A present-but-unusable baseline must fail loudly, not be
            // silently skipped as if the figure were new.
            Some((_, old_per_sec)) => {
                return Err(format!(
                    "old report figure {}: non-positive parallel throughput {old_per_sec}",
                    figure.figure
                ));
            }
            None => added.push(figure.figure.clone()),
        }
    }
    let removed: Vec<String> = old_throughput
        .iter()
        .filter(|(name, _)| !new.figures.iter().any(|f| f.figure == *name))
        .map(|(name, _)| name.clone())
        .collect();
    if figures.is_empty() {
        return Err("no figures in common between the two reports".to_string());
    }
    let regressed = figures.iter().any(|f| f.regressed);
    Ok(BenchDiff {
        name: new.name.clone(),
        against: old_name,
        threshold,
        figures,
        added,
        removed,
        regressed,
    })
}

/// Renders a [`BenchDiff`] as the human-readable table the CLI prints.
pub fn render_diff(diff: &BenchDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench {:?} vs {:?} (regression threshold {:.2}x):",
        diff.name, diff.against, diff.threshold
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>7}",
        "figure", "old acc/s", "new acc/s", "ratio"
    );
    for f in &diff.figures {
        let _ = writeln!(
            out,
            "{:<10} {:>14.0} {:>14.0} {:>6.2}x{}",
            f.figure,
            f.old_accesses_per_sec,
            f.new_accesses_per_sec,
            f.ratio,
            if f.regressed { "  <-- REGRESSED" } else { "" }
        );
    }
    for name in &diff.added {
        let _ = writeln!(out, "{name:<10} (new figure, not compared)");
    }
    for name in &diff.removed {
        let _ = writeln!(out, "{name:<10} (dropped figure, not compared)");
    }
    out
}

/// `0` means one worker per available hardware thread (min 2, so the
/// speedup comparison is never against itself on a single-core runner).
fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .max(2)
}

/// Relative spread of throughput samples: `(max - min) / max`, `0.0` for a
/// single sample (or an empty/degenerate set).
fn sample_spread(samples: &[f64]) -> f64 {
    let max = samples.iter().fold(0.0f64, |a, &s| a.max(s));
    let min = samples.iter().fold(f64::INFINITY, |a, &s| a.min(s));
    if max > 0.0 && min.is_finite() {
        (max - min) / max
    } else {
        0.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Renders the report as the human-readable summary the CLI prints.
pub fn render(report: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench {:?}: {} jobs, {} accesses, workers 1 vs {}, segments of {}, \
         speculation depth {}, best of {} pass{} (scale: {} cpus x {} accesses{}; \
         host threads: {})",
        report.name,
        report.totals.jobs,
        report.totals.accesses,
        report.workers,
        report.scale.segment_size,
        report.scale.speculation,
        report.scale.repeats,
        if report.scale.repeats == 1 { "" } else { "es" },
        report.scale.cpus,
        report.scale.accesses,
        if report.scale.representative_only {
            ", representative apps"
        } else {
            ""
        },
        report.host_threads,
    );
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>10} {:>14} {:>14} {:>8} {:>14} {:>8} {:>14} {:>8} {:>8} {:>14} {:>8} {:>14}",
        "figure",
        "jobs",
        "accesses",
        "serial acc/s",
        "par acc/s",
        "par",
        "seg acc/s",
        "seg",
        "spec acc/s",
        "spec",
        "commits",
        "srv acc/s",
        "srv",
        "cached acc/s"
    );
    for f in &report.figures {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>10} {:>14.0} {:>14.0} {:>7.2}x {:>14.0} {:>7.2}x {:>14.0} {:>7.2}x {:>8} {:>14.0} {:>7.2}x {:>14.0}",
            f.figure,
            f.jobs,
            f.accesses,
            f.serial_accesses_per_sec,
            f.parallel_accesses_per_sec,
            f.speedup,
            f.segmented_accesses_per_sec,
            f.segmented_speedup,
            f.speculative_accesses_per_sec,
            f.speculative_speedup,
            f.speculation_commits,
            f.served_accesses_per_sec,
            f.served_speedup,
            f.served_cached_accesses_per_sec,
        );
    }
    let t = &report.totals;
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>10} {:>14} {:>14.0} {:>7.2}x {:>14} {:>7.2}x {:>14} {:>7.2}x {:>8} {:>14} {:>7.2}x",
        "total",
        t.jobs,
        t.accesses,
        "",
        t.parallel_accesses_per_sec,
        t.speedup,
        "",
        t.segmented_speedup,
        "",
        t.speculative_speedup,
        "",
        "",
        t.served_speedup,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> BenchOptions {
        BenchOptions {
            name: "test".to_string(),
            workers: 2,
            quick: true,
            figures: vec!["fig5".to_string(), "fig11".to_string()],
            segment_size: None,
            speculate: None,
            repeat: 1,
        }
    }

    #[test]
    fn bench_runs_validates_and_round_trips() {
        let report = run_bench(&quick_options()).expect("bench runs");
        report.validate().expect("fresh report validates");
        assert_eq!(report.figures.len(), 2);
        assert_eq!(report.workers, 2);
        assert!(report.figures.iter().all(|f| f.deterministic));
        assert!(
            report.figures.iter().all(|f| f.segmented_deterministic),
            "segment-parallel results must be bit-identical"
        );
        assert!(
            report.figures.iter().all(|f| f.speculative_deterministic),
            "speculative results must be bit-identical"
        );
        assert!(
            report.figures.iter().all(|f| f.speculation_commits > 0),
            "the speculative configuration must actually commit speculative segments"
        );
        assert!(
            report.figures.iter().all(|f| f.served_deterministic),
            "served results must be bit-identical to the serial run"
        );
        assert!(
            report.figures.iter().all(|f| f.served_cache_hit),
            "identical resubmissions must be answered from the result cache"
        );
        assert!(report
            .figures
            .iter()
            .all(|f| f.served_seconds > 0.0 && f.served_cached_seconds > 0.0));
        assert!(report.figures.iter().all(|f| f.warmup_seconds > 0.0));
        assert!(
            report.figures.iter().all(|f| {
                let sum = f.warmup_serial_seconds
                    + f.warmup_parallel_seconds
                    + f.warmup_segmented_seconds
                    + f.warmup_speculative_seconds;
                f.warmup_serial_seconds > 0.0
                    && f.warmup_parallel_seconds > 0.0
                    && f.warmup_segmented_seconds > 0.0
                    && f.warmup_speculative_seconds > 0.0
                    && (f.warmup_seconds - sum).abs() < 1e-9
            }),
            "every configuration records its own warm-up wall-clock"
        );
        assert!(
            report.figures.iter().all(|f| f.parallel_spread == 0.0),
            "a single pass has no spread"
        );
        assert_eq!(report.scale.repeats, 1, "default is one measured pass");
        assert!(report.scale.segment_size > 0);
        assert_eq!(report.scale.speculation, 4, "default speculation depth");
        assert!(report.host_threads >= 1);

        // Envelope round trip, as the CLI writes and `--check` reads it.
        let envelope = report.into_envelope();
        let json = serde_json::to_string_pretty(&envelope).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        let decoded = BenchReport::from_envelope(&back).expect("valid envelope");
        assert_eq!(decoded, report);

        let human = render(&report);
        assert!(human.contains("fig5"));
        assert!(!human.contains("hot path"), "the hot-path section is gone");

        // A report diffed against itself never regresses.
        let diff = diff_reports(&report, &json, 0.5).expect("self-diff");
        assert!(!diff.regressed);
        assert_eq!(diff.figures.len(), report.figures.len());
        assert!(diff.added.is_empty() && diff.removed.is_empty());
    }

    #[test]
    fn repeated_passes_record_best_of_n_and_spread() {
        let mut options = quick_options();
        options.figures = vec!["fig5".to_string()];
        options.repeat = 3;
        let report = run_bench(&options).expect("bench runs");
        report.validate().expect("repeated report validates");
        assert_eq!(report.scale.repeats, 3);
        let figure = &report.figures[0];
        // The spread is measured, not assumed zero: three samples on a real
        // host essentially never coincide exactly, but all the invariant
        // demands is a well-formed relative spread.
        assert!(figure.parallel_spread.is_finite());
        assert!((0.0..1.0).contains(&figure.parallel_spread));
        // Best-of-N throughput is derived from the recorded best seconds.
        let derived = figure.accesses as f64 / figure.parallel_seconds;
        assert!((figure.parallel_accesses_per_sec - derived).abs() < 1e-6 * derived);
        assert!(figure.deterministic && figure.segmented_deterministic);
        assert!(figure.speculative_deterministic && figure.speculation_commits > 0);
    }

    #[test]
    fn sample_spread_is_relative_max_minus_min() {
        assert_eq!(sample_spread(&[]), 0.0);
        assert_eq!(sample_spread(&[250_000.0]), 0.0);
        let spread = sample_spread(&[100_000.0, 80_000.0, 90_000.0]);
        assert!((spread - 0.2).abs() < 1e-12, "got {spread}");
        assert_eq!(sample_spread(&[0.0, 0.0]), 0.0, "degenerate samples");
    }

    /// A hand-built, schema-valid report (no simulation needed), so the
    /// validation tests stay fast.
    fn fixture() -> BenchReport {
        let figure = FigureBench {
            figure: "fig5".to_string(),
            jobs: 4,
            accesses: 80_000,
            serial_seconds: 2.0,
            parallel_seconds: 1.0,
            serial_accesses_per_sec: 40_000.0,
            parallel_accesses_per_sec: 80_000.0,
            speedup: 2.0,
            deterministic: true,
            warmup_seconds: 1.1,
            warmup_serial_seconds: 0.5,
            warmup_parallel_seconds: 0.2,
            warmup_segmented_seconds: 0.2,
            warmup_speculative_seconds: 0.2,
            segmented_seconds: 1.25,
            segmented_accesses_per_sec: 64_000.0,
            segmented_speedup: 1.6,
            segmented_deterministic: true,
            speculative_seconds: 1.0,
            speculative_accesses_per_sec: 80_000.0,
            speculative_speedup: 2.0,
            speculative_deterministic: true,
            speculation_commits: 8,
            parallel_spread: 0.0,
            served_seconds: 1.1,
            served_accesses_per_sec: 72_727.0,
            served_speedup: 1.8,
            served_deterministic: true,
            served_cached_seconds: 0.01,
            served_cached_accesses_per_sec: 8_000_000.0,
            served_cache_hit: true,
        };
        BenchReport {
            name: "fixture".to_string(),
            workers: 2,
            host_threads: 4,
            scale: BenchScale {
                cpus: 2,
                accesses: 20_000,
                representative_only: true,
                segment_size: 10_000,
                speculation: 4,
                repeats: 1,
            },
            totals: BenchTotals {
                jobs: 4,
                accesses: 80_000,
                serial_seconds: 2.0,
                parallel_seconds: 1.0,
                speedup: 2.0,
                parallel_accesses_per_sec: 80_000.0,
                segmented_seconds: 1.25,
                segmented_speedup: 1.6,
                speculative_seconds: 1.0,
                speculative_speedup: 2.0,
                served_seconds: 1.1,
                served_speedup: 1.8,
                served_cached_seconds: 0.01,
                served_cached_speedup: 200.0,
            },
            figures: vec![figure],
        }
    }

    #[test]
    fn committed_reports_with_a_hot_path_section_still_load() {
        // Reports recorded before the hot-path section was removed carry a
        // `hot_path` object; `bench --check` and `--against` must still
        // read them.
        let text = include_str!("../../../BENCH_pr10.json");
        assert!(text.contains("\"hot_path\""));
        let envelope: MetricsReport = serde_json::from_str(text).expect("committed report");
        let report = BenchReport::from_envelope(&envelope).expect("still validates");
        assert_eq!(report.name, "pr10");
        let diff = diff_reports(&fixture(), text, 0.5).expect("still diffs");
        assert_eq!(diff.figures.len(), 1);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        let report = fixture();
        report.validate().expect("fixture is valid");

        let mut broken = report.clone();
        broken.figures[0].deterministic = false;
        assert!(broken.validate().unwrap_err().contains("diverged"));

        let mut broken = report.clone();
        broken.totals.jobs += 1;
        assert!(broken.validate().unwrap_err().contains("totals"));

        let mut broken = report.clone();
        broken.figures[0].serial_seconds = 0.0;
        assert!(broken.validate().unwrap_err().contains("wall-clock"));

        let mut broken = report.clone();
        broken.figures[0].parallel_spread = f64::NAN;
        assert!(broken.validate().unwrap_err().contains("sample spread"));

        let mut broken = report.clone();
        broken.figures[0].parallel_spread = 1.5;
        assert!(broken.validate().unwrap_err().contains("sample spread"));

        let mut broken = report.clone();
        broken.figures[0].warmup_segmented_seconds = 0.0;
        assert!(broken.validate().unwrap_err().contains("warm-up"));

        let mut broken = report.clone();
        broken.scale.repeats = 0;
        assert!(broken.validate().unwrap_err().contains("repeat count"));

        let mut broken = report;
        broken.figures.clear();
        assert!(broken.validate().unwrap_err().contains("no experiments"));
    }

    #[test]
    fn validation_rejects_broken_served_runs() {
        let mut broken = fixture();
        broken.figures[0].served_deterministic = false;
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("served results diverged"));

        let mut broken = fixture();
        broken.figures[0].served_cache_hit = false;
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("not answered from the result cache"));

        let mut broken = fixture();
        broken.figures[0].served_seconds = 0.0;
        assert!(broken.validate().unwrap_err().contains("served wall-clock"));

        let mut broken = fixture();
        broken.figures[0].served_cached_accesses_per_sec = 0.0;
        assert!(broken.validate().unwrap_err().contains("served throughput"));

        let mut broken = fixture();
        broken.figures[0].served_speedup = f64::NAN;
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("bad served speedup"));
    }

    #[test]
    fn validation_rejects_segmented_divergence() {
        let mut broken = fixture();
        broken.figures[0].segmented_deterministic = false;
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("segment-parallel results diverged"));

        let mut broken = fixture();
        broken.figures[0].segmented_seconds = 0.0;
        assert!(broken.validate().unwrap_err().contains("wall-clock"));
    }

    #[test]
    fn validation_rejects_broken_speculative_runs() {
        let mut broken = fixture();
        broken.figures[0].speculative_deterministic = false;
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("speculative results diverged"));

        let mut broken = fixture();
        broken.figures[0].speculative_seconds = 0.0;
        assert!(broken.validate().unwrap_err().contains("wall-clock"));

        let mut broken = fixture();
        broken.figures[0].speculative_accesses_per_sec = 0.0;
        assert!(broken.validate().unwrap_err().contains("throughput"));

        let mut broken = fixture();
        broken.figures[0].speculative_speedup = f64::NAN;
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("bad speculative speedup"));

        // A "speculative" run that never speculated is a measurement bug,
        // not a slow run.
        let mut broken = fixture();
        broken.figures[0].speculation_commits = 0;
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("committed no speculative segments"));
    }

    /// Asserts the exact `bench-diff` envelope contract: the kind tag, the
    /// current schema version, a validating envelope, and a payload that
    /// JSON-round-trips back to `diff` bit for bit.
    fn assert_diff_envelope(diff: &BenchDiff) {
        let envelope = diff.into_envelope();
        assert_eq!(envelope.kind, DIFF_REPORT_KIND);
        assert_eq!(envelope.schema_version, MetricsReport::SCHEMA_VERSION);
        envelope.validate().expect("diff envelope validates");
        let json = serde_json::to_string(&envelope).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        let decoded: BenchDiff = back
            .decode(DIFF_REPORT_KIND)
            .expect("payload decodes")
            .expect("kind matches");
        assert_eq!(&decoded, diff);
    }

    /// A two-figure report: the fixture's fig5 plus a fig11 at half its
    /// throughput (totals don't matter to `diff_reports`).
    fn two_figure_fixture() -> BenchReport {
        let mut report = fixture();
        let mut second = report.figures[0].clone();
        second.figure = "fig11".to_string();
        second.parallel_accesses_per_sec = 40_000.0;
        report.figures.push(second);
        report
    }

    #[test]
    fn diff_handles_a_figure_missing_from_the_old_baseline() {
        // The old report predates fig11: the diff must compare fig5, list
        // fig11 as added (not compared), and not invent a regression.
        let new = two_figure_fixture();
        let old = fixture();
        let old_json = serde_json::to_string(&old.into_envelope()).unwrap();

        let diff = diff_reports(&new, &old_json, 0.8).expect("comparable");
        assert_eq!(
            diff.figures,
            vec![FigureDiff {
                figure: "fig5".to_string(),
                old_accesses_per_sec: 80_000.0,
                new_accesses_per_sec: 80_000.0,
                ratio: 1.0,
                regressed: false,
            }]
        );
        assert_eq!(diff.added, vec!["fig11".to_string()]);
        assert!(diff.removed.is_empty());
        assert!(!diff.regressed);
        assert_diff_envelope(&diff);

        // No overlap at all is an error, not an empty success: an all-new
        // figure set means the baseline is not comparable.
        let mut renamed = fixture();
        renamed.figures[0].figure = "figX".to_string();
        let err = diff_reports(&renamed, &old_json, 0.8).unwrap_err();
        assert_eq!(err, "no figures in common between the two reports");
    }

    #[test]
    fn diff_errors_when_an_old_baseline_figure_has_zero_throughput() {
        // A present-but-unusable baseline entry (recorded zero throughput)
        // must fail with the exact named-figure error, never be skipped.
        let mut old = fixture();
        old.figures[0].parallel_accesses_per_sec = 0.0;
        let old_json = serde_json::to_string(&old.into_envelope()).unwrap();
        let err = diff_reports(&fixture(), &old_json, 0.8).unwrap_err();
        assert_eq!(
            err,
            "old report figure fig5: non-positive parallel throughput 0"
        );
    }

    #[test]
    fn diff_parses_a_schema_version_1_baseline_leniently() {
        // A version-1 envelope (the BENCH_pr4.json era: no segmented or
        // speculative columns, no host_threads) must still diff — only the
        // figure names and parallel throughput matter — and the resulting
        // diff must satisfy the exact current bench-diff envelope contract.
        let old_json = r#"{
            "schema_version": 1,
            "kind": "bench",
            "data": {
                "name": "pr4",
                "workers": 2,
                "figures": [
                    {"figure": "fig5", "jobs": 4, "parallel_accesses_per_sec": 160000.0}
                ]
            }
        }"#;
        let diff = diff_reports(&fixture(), old_json, 0.8).expect("v1 baseline comparable");
        assert_eq!(
            diff,
            BenchDiff {
                name: "fixture".to_string(),
                against: "pr4".to_string(),
                threshold: 0.8,
                figures: vec![FigureDiff {
                    figure: "fig5".to_string(),
                    old_accesses_per_sec: 160_000.0,
                    new_accesses_per_sec: 80_000.0,
                    ratio: 0.5,
                    regressed: true,
                }],
                added: Vec::new(),
                removed: Vec::new(),
                regressed: true,
            }
        );
        assert_diff_envelope(&diff);
    }

    #[test]
    fn threshold_exactly_at_the_boundary_is_not_a_regression() {
        // The gate is `ratio < threshold`, strictly: a figure sitting
        // exactly at the threshold passes.  100k -> 80k at threshold 0.8
        // gives a ratio equal to the 0.8 threshold double, which must not
        // regress; a threshold a hair above the ratio must.
        let mut old = fixture();
        old.figures[0].parallel_accesses_per_sec = 100_000.0;
        let old_json = serde_json::to_string(&old.into_envelope()).unwrap();

        let diff = diff_reports(&fixture(), &old_json, 0.8).expect("comparable");
        assert_eq!(diff.threshold, 0.8);
        assert_eq!(diff.figures[0].ratio, 0.8);
        assert!(!diff.figures[0].regressed, "ratio == threshold must pass");
        assert!(!diff.regressed);
        assert_diff_envelope(&diff);

        let above = diff_reports(&fixture(), &old_json, 0.8 + f64::EPSILON).expect("comparable");
        assert!(
            above.figures[0].regressed && above.regressed,
            "a threshold above the ratio must regress"
        );
        assert_diff_envelope(&above);
    }

    #[test]
    fn diff_detects_regressions_against_an_old_report() {
        let new = fixture();
        // Old report with twice the throughput on fig5: the new one sits at
        // ratio 0.5, regressed under a 0.8 threshold but fine under 0.4.
        let mut old = fixture();
        old.name = "older".to_string();
        old.figures[0].parallel_accesses_per_sec = 160_000.0;
        let old_json = serde_json::to_string(&old.into_envelope()).unwrap();

        let diff = diff_reports(&new, &old_json, 0.8).expect("comparable");
        assert!(diff.regressed);
        assert_eq!(diff.against, "older");
        assert_eq!(diff.figures[0].ratio, 0.5);
        assert!(diff.figures[0].regressed);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("REGRESSED"), "{rendered}");

        let diff = diff_reports(&new, &old_json, 0.4).expect("comparable");
        assert!(!diff.regressed, "generous threshold tolerates the gap");

        // The diff envelope round-trips like any metrics report.
        let envelope = diff.into_envelope();
        assert_eq!(envelope.kind, DIFF_REPORT_KIND);
        assert!(envelope.validate().is_ok());
    }

    #[test]
    fn diff_reads_old_schema_reports_leniently() {
        // A pre-segmentation report: no segmented_* columns, no
        // host_threads — only the figure names and parallel throughput
        // matter.  (This is the BENCH_pr4.json shape.)
        let old_json = r#"{
            "schema_version": 1,
            "kind": "bench",
            "data": {
                "name": "pr4",
                "workers": 2,
                "figures": [
                    {"figure": "fig5", "jobs": 4, "parallel_accesses_per_sec": 40000.0},
                    {"figure": "gone", "jobs": 1, "parallel_accesses_per_sec": 1.0}
                ]
            }
        }"#;
        let diff = diff_reports(&fixture(), old_json, 0.5).expect("old schema comparable");
        assert_eq!(diff.figures.len(), 1);
        assert_eq!(diff.figures[0].ratio, 2.0, "fig5 doubled");
        assert!(!diff.regressed);
        assert_eq!(diff.removed, vec!["gone".to_string()]);

        let err = diff_reports(&fixture(), "{not json", 0.5).unwrap_err();
        assert!(err.contains("not JSON"), "{err}");
        // A figure that exists in the old report but with an unusable
        // baseline throughput is an error, never a silent skip.
        let zero_json = r#"{
            "schema_version": 1,
            "kind": "bench",
            "data": {"name": "z", "figures": [
                {"figure": "fig5", "parallel_accesses_per_sec": 0.0}
            ]}
        }"#;
        let err = diff_reports(&fixture(), zero_json, 0.5).unwrap_err();
        assert!(err.contains("non-positive"), "{err}");
        let err =
            diff_reports(&fixture(), r#"{"kind": "engine-run", "data": {}}"#, 0.5).unwrap_err();
        assert!(err.contains("bench"), "{err}");
        let err = diff_reports(&fixture(), old_json, 0.0).unwrap_err();
        assert!(err.contains("threshold"), "{err}");
    }

    #[test]
    fn envelope_kind_is_checked() {
        let report = fixture();
        let mut envelope = report.into_envelope();
        envelope.kind = "not-bench".to_string();
        let err = BenchReport::from_envelope(&envelope).unwrap_err();
        assert!(err.contains("bench"), "{err}");

        let mut envelope = report.into_envelope();
        envelope.schema_version = 99;
        let err = BenchReport::from_envelope(&envelope).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }
}
