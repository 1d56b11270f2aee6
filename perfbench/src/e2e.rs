//! The untraced end-to-end runs: set up (several times, reporting the
//! median), measure passes over the workload's fixed input for the given
//! seconds, then check every output against a serial reference.

use crate::calibrate::Passes;
use crate::report::{self, median, Outcome};
use crate::serve::{self, LoopRun};
use crate::workload::{digest, Inputs, Scale, Workload};
use engine::{run_jobs_in, EngineConfig, JobResult, Registry, SimJob};
use std::hint::black_box;

/// Settings shared by every run of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Input scale.
    pub scale: Scale,
    /// Host threads: engine workers and the load generator's connections.
    pub nproc: usize,
    /// How many times set-up is repeated (the median is reported).
    pub setups: usize,
}

impl RunConfig {
    /// The engine configuration of every measured run: one worker per host
    /// thread.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::with_workers(self.nproc)
    }
}

/// Refuses load generation with more threads or connections than host
/// threads.
///
/// # Errors
///
/// When `clients` exceeds `nproc`.
pub fn check_load(clients: usize, nproc: usize) -> Result<(), String> {
    if clients > nproc {
        Err(format!(
            "refusing {clients} load-generating connections on {nproc} host threads"
        ))
    } else {
        Ok(())
    }
}

/// Runs `make` `cfg.setups` times, discarding all but the last product, and
/// returns it with the median calibrated set-up seconds.  Discarding happens
/// outside the timer.
pub fn timed_setups<T>(
    cfg: &RunConfig,
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut passes = Passes::default();
    let mut last = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        last = Some(passes.time(cfg.nproc, &mut make)?);
    }
    Ok((last.expect("at least one set-up ran"), passes.median_s()))
}

/// Per-job digests of a result list.
pub fn job_digests(results: &[JobResult]) -> Vec<u64> {
    results
        .iter()
        .map(|r| digest(std::slice::from_ref(r)))
        .collect()
}

/// Runs `jobs` on the serial path and returns the per-job reference digests.
///
/// # Errors
///
/// When a job fails to run.
pub fn serial_reference(jobs: &[SimJob]) -> Result<Vec<JobResult>, String> {
    run_jobs_in(jobs, &EngineConfig::serial(), Registry::builtin()).map_err(|e| e.to_string())
}

/// Counts jobs whose digest differs from the reference (a missing or extra
/// result counts as a mismatch).
pub fn mismatches(results: &[JobResult], reference: &[u64]) -> u64 {
    let got = job_digests(results);
    let differing = got.iter().zip(reference).filter(|(a, b)| a != b).count();
    (differing + got.len().abs_diff(reference.len())) as u64
}

/// One untraced run of `workload`.  Method notes and the result digest go
/// to `notes`.
///
/// # Errors
///
/// When set-up fails (no result can be reported).
pub fn run(
    workload: Workload,
    cfg: &RunConfig,
    notes: &mut Vec<String>,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let passes = match workload {
        Workload::Sweep => sweep(cfg, &mut out, notes)?,
        Workload::LongJob => long_job(cfg, &mut out, notes)?,
        Workload::ServeMix => serve_mix(cfg, &mut out, notes)?,
    };
    let peaks: Option<Vec<f64>> = passes.peak_rss_mb.iter().copied().collect();
    match peaks {
        Some(peaks) => out.set("peak_rss_mb", peaks.into_iter().fold(0.0, f64::max)),
        None => out
            .method_errors
            .push("peak RSS could not be reset between passes (/proc/self/clear_refs)".to_string()),
    }
    out.set(
        "ok_ops_ratio",
        (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Measures passes of `pass` until `seconds` have been measured; returns
/// the pass times and each pass's outputs.
fn measure<T>(seconds: f64, nproc: usize, mut pass: impl FnMut() -> T) -> (Passes, Vec<T>) {
    let mut passes = Passes::default();
    let mut outputs = Vec::new();
    while passes.raw_s.is_empty() || passes.total_raw_s() < seconds {
        outputs.push(passes.time(nproc, &mut pass));
    }
    (passes, outputs)
}

/// Records pass counts, raw and calibrated medians and the host slowdown.
fn note_passes(passes: &Passes, notes: &mut Vec<String>) {
    notes.push(format!(
        "passes: {}; raw median {:.4} s; reported {:.4} s; host slowdown median {:.4}",
        passes.raw_s.len(),
        median(&passes.raw_s),
        passes.median_s(),
        passes.slowdown()
    ));
}

/// Sets the pass metrics from the median calibrated pass: its time, and the
/// accesses and submissions of one pass per second of it.
fn set_pass_metrics(
    out: &mut Outcome,
    passes: &Passes,
    accesses_per_pass: f64,
    submits_per_pass: f64,
    notes: &mut Vec<String>,
) {
    note_passes(passes, notes);
    let wall_s = passes.median_s();
    out.set("wall_s", wall_s);
    out.set("accesses_per_s", accesses_per_pass / wall_s);
    out.set("submits_per_s", submits_per_pass / wall_s);
}

/// Sets up the sweep: generates the figure lists and warms up on every
/// eighth job.
///
/// # Errors
///
/// When a warm-up job fails.
pub fn sweep_setup(cfg: &RunConfig) -> Result<Inputs, String> {
    let inputs = Inputs::generate(Workload::Sweep, cfg.seed, cfg.scale, cfg.nproc);
    let warm: Vec<SimJob> = inputs.all_jobs().into_iter().step_by(8).collect();
    black_box(run_jobs_in(&warm, &cfg.engine(), Registry::builtin()).map_err(|e| e.to_string())?);
    Ok(inputs)
}

fn sweep(cfg: &RunConfig, out: &mut Outcome, notes: &mut Vec<String>) -> Result<Passes, String> {
    let engine_cfg = cfg.engine();
    let (inputs, setup_s) = timed_setups(cfg, || sweep_setup(cfg), drop)?;
    out.set("setup_s", setup_s);
    let (passes, outputs) = measure(cfg.seconds, cfg.nproc, || {
        inputs
            .lists
            .iter()
            .map(|list| run_jobs_in(&list.jobs, &engine_cfg, Registry::builtin()))
            .collect::<Vec<_>>()
    });
    let mut accesses = 0;
    for (list, pass_results) in inputs.lists.iter().zip(transpose(outputs)) {
        let reference = serial_reference(&list.jobs)?;
        let reference_digests = job_digests(&reference);
        accesses += reference.iter().map(|r| r.summary.accesses).sum::<u64>();
        for results in pass_results {
            let failed = match results {
                Ok(results) => mismatches(&results, &reference_digests),
                Err(_) => list.jobs.len() as u64,
            };
            out.count(list.jobs.len() as u64, failed);
        }
        notes.push(format!(
            "digest {}: {:016x} ({} jobs)",
            list.name,
            digest(&reference),
            list.jobs.len()
        ));
    }
    set_pass_metrics(
        out,
        &passes,
        accesses as f64,
        inputs.lists.len() as f64,
        notes,
    );
    Ok(passes)
}

/// Regroups per-pass outputs (one per list) into per-list outputs.
fn transpose<T>(passes: Vec<Vec<T>>) -> Vec<Vec<T>> {
    let mut lists: Vec<Vec<T>> = Vec::new();
    for pass in passes {
        for (i, output) in pass.into_iter().enumerate() {
            if lists.len() <= i {
                lists.push(Vec::new());
            }
            lists[i].push(output);
        }
    }
    lists
}

/// The long job's measured engine configuration: the segment pipeline on
/// every host thread.
pub fn long_job_engine(cfg: &RunConfig, inputs: &Inputs) -> EngineConfig {
    cfg.engine().with_segment_size(inputs.segment_size)
}

/// Sets up the long job: generates it and warms up on its first tenth.
///
/// # Errors
///
/// When the warm-up run fails.
pub fn long_job_setup(cfg: &RunConfig) -> Result<Inputs, String> {
    let inputs = Inputs::generate(Workload::LongJob, cfg.seed, cfg.scale, cfg.nproc);
    let mut warm = inputs.lists[0].jobs.clone();
    warm[0].sim.accesses /= 10;
    black_box(
        run_jobs_in(&warm, &long_job_engine(cfg, &inputs), Registry::builtin())
            .map_err(|e| e.to_string())?,
    );
    Ok(inputs)
}

fn long_job(cfg: &RunConfig, out: &mut Outcome, notes: &mut Vec<String>) -> Result<Passes, String> {
    let (inputs, setup_s) = timed_setups(cfg, || long_job_setup(cfg), drop)?;
    out.set("setup_s", setup_s);
    let jobs = &inputs.lists[0].jobs;
    let engine_cfg = long_job_engine(cfg, &inputs);
    let (passes, outputs) = measure(cfg.seconds, cfg.nproc, || {
        run_jobs_in(jobs, &engine_cfg, Registry::builtin())
    });
    let reference = serial_reference(jobs)?;
    let reference_digests = job_digests(&reference);
    for results in outputs {
        let failed = match results {
            Ok(results) => mismatches(&results, &reference_digests),
            Err(_) => 1,
        };
        out.count(1, failed);
    }
    set_pass_metrics(
        out,
        &passes,
        reference[0].summary.accesses as f64,
        1.0,
        notes,
    );
    notes.push(format!("digest: {:016x}", digest(&reference)));
    notes.push(format!("segment size: {}", inputs.segment_size));
    Ok(passes)
}

/// Checks every served submission against a serial run of the same list;
/// returns the accesses delivered.
pub fn verify_served(
    inputs: &Inputs,
    run: &LoopRun,
    out: &mut Outcome,
    notes: &mut Vec<String>,
) -> Result<u64, String> {
    let mut references: Vec<Option<(u64, u64)>> = vec![None; inputs.lists.len()];
    let mut delivered = 0;
    let mut pool_bytes = 0;
    for record in &run.records {
        let (reference, accesses) = match references[record.list] {
            Some(known) => known,
            None => {
                let results = serial_reference(&inputs.lists[record.list].jobs)?;
                pool_bytes += results
                    .iter()
                    .map(|r| {
                        let frame = server::JobFrame {
                            result: r.clone(),
                            metrics: engine::JobMetrics::default(),
                        };
                        serde_json::to_string(&frame)
                            .expect("frame serializes")
                            .len() as u64
                    })
                    .sum::<u64>();
                let known = (
                    digest(&results),
                    results.iter().map(|r| r.summary.accesses).sum(),
                );
                references[record.list] = Some(known);
                known
            }
        };
        let ok = matches!(&record.results, Ok(results) if digest(results) == reference);
        if ok {
            delivered += accesses;
        } else if let Err(e) = &record.results {
            notes.push(format!(
                "submission of {} failed: {e}",
                inputs.lists[record.list].name
            ));
        }
        out.count(1, u64::from(!ok));
    }
    notes.push(format!(
        "submitted lists: {pool_bytes} serialized bytes against a cache budget of {}",
        inputs.cache_budget
    ));
    if pool_bytes <= inputs.cache_budget {
        out.method_errors
            .push("the submitted lists fit the cache budget: nothing is evicted".to_string());
    }
    Ok(delivered)
}

/// Latency quantiles (ms) of hits and misses, each `None` when the sample
/// leaves fewer than 10 values above it.
pub fn latency_quantiles(run: &LoopRun) -> [(&'static str, Option<f64>, usize); 4] {
    let ms = |hit: bool| -> Vec<f64> {
        run.records
            .iter()
            .filter(|r| r.hit == hit && r.results.is_ok())
            .map(|r| r.latency_s * 1e3)
            .collect()
    };
    let (hits, misses) = (ms(true), ms(false));
    [
        ("hit_p50_ms", report::quantile(&hits, 0.50), hits.len()),
        ("hit_p99_ms", report::quantile(&hits, 0.99), hits.len()),
        ("miss_p50_ms", report::quantile(&misses, 0.50), misses.len()),
        ("miss_p90_ms", report::quantile(&misses, 0.90), misses.len()),
    ]
}

/// Sets up a serve-mix run: inputs, a started server, and a warm-up pass
/// that brings its cache to steady state.
pub fn serve_setup(cfg: &RunConfig) -> Result<(Inputs, serve::Served), String> {
    let inputs = Inputs::generate(Workload::ServeMix, cfg.seed, cfg.scale, cfg.nproc);
    check_load(inputs.script.len(), cfg.nproc)?;
    let served = serve::start(&inputs, cfg.nproc)?;
    black_box(serve::closed_loop(
        &served.endpoint,
        &inputs,
        &|_| true,
        None,
    ));
    Ok((inputs, served))
}

fn serve_mix(
    cfg: &RunConfig,
    out: &mut Outcome,
    notes: &mut Vec<String>,
) -> Result<Passes, String> {
    let ((inputs, served), setup_s) = timed_setups(
        cfg,
        || serve_setup(cfg),
        |(_, served)| {
            served.server.shutdown();
        },
    )?;
    out.set("setup_s", setup_s);
    let run = serve::closed_loop(
        &served.endpoint,
        &inputs,
        &|run| run.passes.total_raw_s() >= cfg.seconds,
        None,
    );
    let status = serve::status(&served.endpoint);
    served.server.shutdown();
    let delivered = verify_served(&inputs, &run, out, notes)?;
    let count = run.passes.raw_s.len() as f64;
    set_pass_metrics(
        out,
        &run.passes,
        delivered as f64 / count,
        run.records.len() as f64 / count,
        notes,
    );
    let hits = run.records.iter().filter(|r| r.hit).count();
    notes.push(format!(
        "submissions: {} ({} hits, {} misses); max connections: {}",
        run.records.len(),
        hits,
        run.records.len() - hits,
        run.max_connections
    ));
    // Latency percentiles are per-layer metrics of the traced run, which
    // sizes its loop for them; here they are only noted.
    for (name, value, samples) in latency_quantiles(&run) {
        match value {
            Some(v) => notes.push(format!("{name} = {v:.4} ms (n={samples})")),
            None => notes.push(format!("{name}: n={samples} leaves fewer than 10 above it")),
        }
    }
    if run.max_connections > cfg.nproc {
        out.method_errors.push(format!(
            "load generator held {} connections on {} host threads",
            run.max_connections, cfg.nproc
        ));
    }
    match status {
        Ok(m) => notes.push(format!(
            "server: {} hits, {} misses, {} evictions, {} rejected",
            m.cache_hits,
            m.cache_misses,
            m.cache_evictions,
            m.quota_rejections + m.overload_rejections
        )),
        Err(e) => out
            .method_errors
            .push(format!("status request failed: {e}")),
    }
    Ok(run.passes)
}
