//! The traced run: each layer's cost, measured by timing the benchmark's
//! calls into that layer's public functions, and the ledger that
//! reconciles the layers with the 1-worker end-to-end time.
//!
//! The traced job set is replayed stage by stage, the way the segment
//! pipeline runs a job: pull a segment (`trace`), simulate it once with the
//! null prefetcher (`memsim`: caches and coherence alone) and once with the
//! job's prefetcher (the difference is the prefetcher's self time), replay
//! the recorded outcome tape (`account`) and feed the timing model
//! (`timing`).  The assembled results must equal the engine's, so the
//! measured kernels are known to do the program's work.

use crate::e2e::{self, job_digests, long_job_engine, mismatches, RunConfig};
use crate::report::{self, median, Outcome};
use crate::serve::{self, LoopRun, OUT_DIR};
use crate::spans::{self, Track, ROOT};
use crate::workload::{Inputs, Scale, Workload};
use engine::{
    run_job, run_jobs_in, run_jobs_observed, EngineConfig, JobMetrics, JobResult, JobWarning,
    Registry, SimJob,
};
use memsim::{MissAccounting, MultiCpuSystem, NullPrefetcher, OutcomeTape, SegmentCounts};
use metrics::MetricsConfig;
use server::protocol::{read_line, write_line};
use server::{Frame, JobFrame, ResultCache};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;
use timing::{TimingAccounting, TimingModel};
use tracelog::Trace;

/// Per-prefetcher totals of the layered replay.
#[derive(Debug, Default, Clone, Copy)]
struct PrefetcherTotals {
    /// Simulate time with the prefetcher attached, ns.
    sim_ns: u64,
    /// Simulate time of the null-prefetcher baseline over the same accesses.
    baseline_ns: u64,
    accesses: u64,
    requests: u64,
    /// Baseline misses the prefetcher removed (L1 for SMS, off-chip for
    /// GHB, which fills the L2).
    covered: u64,
    triggers: u64,
    pht_hits: u64,
}

/// Totals of the layered replay over the traced job set.
#[derive(Debug, Default)]
struct Totals {
    jobs: u64,
    accesses: u64,
    prepare_ns: u64,
    open_ns: u64,
    pull_ns: u64,
    /// Null-prefetcher simulation of every job (caches and coherence).
    cache_ns: u64,
    /// The simulate stage: the job's own simulation.
    simulate_ns: u64,
    account_ns: u64,
    timing_ns: u64,
    timing_accesses: u64,
    l1_misses: u64,
    offchip_misses: u64,
    invalidations: u64,
    by_plugin: BTreeMap<String, PrefetcherTotals>,
}

impl Totals {
    /// Prefetcher self time: simulate with the prefetcher minus simulate
    /// without it, over the same accesses.
    fn prefetcher_self_ns(&self, plugin: &str) -> u64 {
        self.by_plugin
            .get(plugin)
            .map_or(0, |p| p.sim_ns.saturating_sub(p.baseline_ns))
    }

    /// The layers' summed self time.
    fn ledger_ns(&self) -> u64 {
        let prefetchers: u64 = self
            .by_plugin
            .keys()
            .map(|plugin| self.prefetcher_self_ns(plugin))
            .sum();
        self.prepare_ns
            + self.open_ns
            + self.pull_ns
            + self.cache_ns
            + prefetchers
            + self.account_ns
            + self.timing_ns
    }
}

/// Replays one job layer by layer, recording a span around every layer
/// call, and returns the result the engine would have produced.
fn replay_job(
    index: usize,
    job: &SimJob,
    segment_size: usize,
    track: &mut Track,
    t: &mut Totals,
) -> Result<JobResult, String> {
    let sim = &job.sim;
    let op = index as u64;
    let root = track.open("job", ROOT, op);
    let plugin = sim.prefetcher.plugin.clone();
    let with_prefetcher = plugin != "null";

    let ((prefetcher, mut system), prepare_ns) = track.leaf("engine.prepare", root, op, || {
        let prefetcher = Registry::builtin().build(&sim.prefetcher, sim.cpus);
        if let Some(spec) = &job.timing {
            black_box(TimingModel::new(sim.hierarchy, sim.cpus, spec.config));
        }
        (prefetcher, MultiCpuSystem::new(sim.cpus, &sim.hierarchy))
    });
    let mut prefetcher = prefetcher.map_err(|e| e.to_string())?;
    let extra = track.open("bench.extra", root, op);
    let mut baseline = with_prefetcher.then(|| MultiCpuSystem::new(sim.cpus, &sim.hierarchy));
    let mut accounting = MissAccounting::new(sim.cpus, &sim.hierarchy);
    let mut timing = job
        .timing
        .as_ref()
        .map(|spec| TimingAccounting::new(sim.cpus, spec.config, sim.accesses, spec.segments));
    let mut sink = prefetcher.take_kind_sink();
    track.close(extra);
    let (stream, open_ns) = track.leaf("trace.open", root, op, || sim.source.open());
    let mut stream = stream.map_err(|e| e.to_string())?;

    let sim_name = match plugin.as_str() {
        "sms" => "sim.sms",
        "ghb" => "sim.ghb",
        _ => "sim.other",
    };
    let mut pf = PrefetcherTotals::default();
    let mut buffer = Vec::with_capacity(segment_size);
    let (mut batch, mut baseline_batch) = (Vec::new(), Vec::new());
    let (mut tape, mut baseline_tape) = (OutcomeTape::new(), OutcomeTape::new());
    let (mut counts, mut baseline_counts) = (SegmentCounts::default(), SegmentCounts::default());
    let mut remaining = sim.accesses;
    let mut pull_ns = 0;
    let mut simulate_ns = 0;
    let mut account_ns = 0;
    let mut timing_ns = 0;
    while remaining > 0 {
        let want = segment_size.min(remaining);
        let (got, ns) = track.leaf("trace.pull", root, op, || {
            trace::fill_segment(&mut *stream, &mut buffer, want)
        });
        pull_ns += ns;
        remaining -= got;
        if got == 0 {
            break;
        }
        tape.clear();
        if let Some(base) = baseline.as_mut() {
            baseline_tape.clear();
            let ((), ns) = track.leaf("memsim.baseline", root, op, || {
                memsim::run_segment_deferred(
                    base,
                    &mut NullPrefetcher::new(),
                    &buffer,
                    &mut baseline_batch,
                    &mut baseline_tape,
                    &mut baseline_counts,
                    &mut (),
                )
            });
            pf.baseline_ns += ns;
            t.cache_ns += ns;
            let ((), ns) = track.leaf(sim_name, root, op, || {
                memsim::run_segment_deferred(
                    &mut system,
                    &mut prefetcher,
                    &buffer,
                    &mut batch,
                    &mut tape,
                    &mut counts,
                    &mut (),
                )
            });
            pf.sim_ns += ns;
            simulate_ns += ns;
        } else {
            let ((), ns) = track.leaf("memsim.baseline", root, op, || {
                memsim::run_segment_deferred(
                    &mut system,
                    &mut prefetcher,
                    &buffer,
                    &mut batch,
                    &mut tape,
                    &mut counts,
                    &mut (),
                )
            });
            t.cache_ns += ns;
            simulate_ns += ns;
        }
        let ((), ns) = track.leaf("account.replay", root, op, || match sink.as_mut() {
            Some(sink) => accounting.replay_with_kinds(&buffer, &tape, |access, l1, l2| {
                sink.on_kinds(access, l1, l2)
            }),
            None => accounting.replay(&buffer, &tape),
        });
        account_ns += ns;
        if let Some(timing) = timing.as_mut() {
            let ((), ns) = track.leaf("timing.observe", root, op, || {
                for (i, access) in buffer.iter().enumerate() {
                    let flags = tape.flags_at(i);
                    if !flags.skipped {
                        timing.observe(access, flags.l1_miss, flags.offchip);
                    }
                }
            });
            timing_ns += ns;
        }
        if got < want {
            break;
        }
    }
    if let Some(e) = stream.take_error() {
        return Err(format!("job {index}: corrupt mid-stream: {e}"));
    }

    let extra = track.open("bench.extra", root, op);
    let summary = memsim::summarize_segmented(&system, &accounting, &counts);
    if let Some(sink) = sink {
        prefetcher.restore_kind_sink(sink);
    }
    let mut result = JobResult {
        job_index: index,
        summary,
        probe: prefetcher.into_report(),
        timing: timing.map(TimingAccounting::finish),
        warnings: Vec::new(),
    };
    let delivered = result.summary.accesses + result.summary.skipped_accesses;
    if delivered < sim.accesses as u64 {
        result.warnings.push(JobWarning::short_trace(
            &sim.source.describe(),
            delivered,
            sim.accesses,
        ));
    }
    track.close(extra);
    track.close(root);

    let s = &result.summary;
    t.jobs += 1;
    t.accesses += s.accesses;
    t.prepare_ns += prepare_ns;
    t.open_ns += open_ns;
    t.pull_ns += pull_ns;
    t.simulate_ns += simulate_ns;
    t.account_ns += account_ns;
    t.timing_ns += timing_ns;
    if job.timing.is_some() {
        t.timing_accesses += s.accesses;
    }
    t.l1_misses += s.l1.misses;
    t.offchip_misses += s.l2.misses;
    t.invalidations += s.l1.invalidations;
    if let Some(base) = &baseline {
        pf.accesses = s.accesses;
        pf.requests = s.prefetch_requests;
        pf.covered = if plugin == "ghb" {
            base.l2_stats_total()
                .read_misses
                .saturating_sub(s.l2.read_misses)
        } else {
            base.l1_stats_total()
                .read_misses
                .saturating_sub(s.l1.read_misses)
        };
        if let Some(stats) = result.probe.sms() {
            pf.triggers = stats.triggers;
            pf.pht_hits = stats.pht_hits;
        }
        let entry = t.by_plugin.entry(plugin).or_default();
        entry.sim_ns += pf.sim_ns;
        entry.baseline_ns += pf.baseline_ns;
        entry.accesses += pf.accesses;
        entry.requests += pf.requests;
        entry.covered += pf.covered;
        entry.triggers += pf.triggers;
        entry.pht_hits += pf.pht_hits;
    }
    Ok(result)
}

/// Samples that leave 10 above the hit p99 and the miss p90.
const MIN_HIT_SAMPLES: usize = 1_010;
const MIN_MISS_SAMPLES: usize = 110;

/// The engine runs the traced run compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `run_job` per job on the calling thread.
    Serial,
    /// The job-parallel engine, unsegmented, on every host thread.
    Parallel,
    /// The segment pipeline on one thread.
    Segmented1,
    /// The segment pipeline on every host thread.
    SegmentedN,
    /// The workload's own engine configuration, tracing off.
    Untraced,
    /// The same with the program's own span tracing on.
    Traced,
}

/// Runs `a, b, b, a` and returns each side's summed seconds.
fn abba(step: &mut impl FnMut(Step) -> f64, a: Step, b: Step) -> (f64, f64) {
    let (mut a_s, mut b_s) = (step(a), 0.0);
    b_s += step(b);
    b_s += step(b);
    a_s += step(a);
    (a_s, b_s)
}

/// The traced job set: a fixed, seed-independent slice of the workload's
/// jobs, tagged with the list each came from.
fn traced_jobs(inputs: &Inputs, scale: Scale) -> Vec<(usize, SimJob)> {
    let step = match (inputs.workload, scale) {
        (_, Scale::Tiny) | (Workload::LongJob, _) => 1,
        (Workload::Sweep, Scale::Full) => 3,
        (Workload::ServeMix, Scale::Full) => 2,
    };
    inputs
        .lists
        .iter()
        .enumerate()
        .flat_map(|(l, list)| list.jobs.iter().map(move |job| (l, job.clone())))
        .step_by(step)
        .collect()
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean microseconds per call of `f` over `calls` calls, repeated until at
/// least 20 ms have been measured; the median repetition is reported.
fn micro_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    let started = Instant::now();
    while per_call.len() < 5 || (secs(started) < 0.02 && per_call.len() < 1000) {
        let t = Instant::now();
        f();
        per_call.push(secs(t) * 1e6 / calls.max(1) as f64);
    }
    median(&per_call)
}

/// Times the server's frame codec and result cache on the traced results.
fn server_layer(
    out: &mut Outcome,
    inputs: &Inputs,
    groups: &[(usize, Vec<JobResult>)],
    config: &EngineConfig,
) {
    let frames: Vec<Frame> = groups
        .iter()
        .flat_map(|(_, results)| results.iter())
        .map(|r| {
            Frame::Result(Box::new(JobFrame {
                result: r.clone(),
                metrics: JobMetrics {
                    job_index: r.job_index,
                    ..JobMetrics::default()
                },
            }))
        })
        .collect();
    let mut lines = Vec::new();
    for frame in &frames {
        let mut line = Vec::new();
        write_line(&mut line, frame).expect("writing to memory cannot fail");
        lines.push(line);
    }
    let mut buffer = Vec::new();
    out.set(
        "server.frame_encode_us",
        micro_us(frames.len(), || {
            for frame in &frames {
                buffer.clear();
                write_line(&mut buffer, frame).expect("writing to memory cannot fail");
            }
        }),
    );
    out.set(
        "server.frame_decode_us",
        micro_us(lines.len(), || {
            for line in &lines {
                let frame: Option<Frame> = read_line(&mut &line[..]).expect("frame decodes");
                black_box(frame);
            }
        }),
    );
    let entries: Vec<(String, Vec<JobFrame>)> = groups
        .iter()
        .map(|(list, results)| {
            let frames = results
                .iter()
                .map(|r| JobFrame {
                    result: r.clone(),
                    metrics: JobMetrics::default(),
                })
                .collect();
            (
                engine::spec_fingerprint(&inputs.lists[*list].jobs, config),
                frames,
            )
        })
        .collect();
    let total_bytes: usize = lines.iter().map(Vec::len).sum();
    let budget = match inputs.workload {
        Workload::ServeMix => inputs.cache_budget,
        _ => total_bytes as u64 / 2,
    };
    let mut insert_us = Vec::new();
    let mut lookup_us = Vec::new();
    let started = Instant::now();
    while insert_us.len() < 5 || (secs(started) < 0.05 && insert_us.len() < 200) {
        let mut cache = ResultCache::with_budget(0, budget);
        let copies = entries.clone();
        let t = Instant::now();
        for (fingerprint, frames) in copies {
            cache.insert(fingerprint, frames);
        }
        insert_us.push(secs(t) * 1e6 / entries.len() as f64);
        let t = Instant::now();
        for (fingerprint, _) in &entries {
            black_box(cache.lookup(fingerprint));
        }
        lookup_us.push(secs(t) * 1e6 / entries.len() as f64);
    }
    out.set("server.cache_insert_us", median(&insert_us));
    out.set("server.cache_lookup_us", median(&lookup_us));
}

/// One traced run of `workload`.
///
/// # Errors
///
/// When set-up fails.
pub fn run(
    workload: Workload,
    cfg: &RunConfig,
    notes: &mut Vec<String>,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for (name, _) in report::PER_LAYER {
        out.set(name, 0.0);
    }
    let origin = Instant::now();
    let mut main = Track::new("main", 0, origin);
    let run_op = u64::MAX;
    let run_span = main.open("bench.run", ROOT, run_op);

    // The same set-up and warm-up as the untraced run, done once.
    let setup = main.open("bench.setup", run_span, run_op);
    let (inputs, served) = match workload {
        Workload::Sweep => (e2e::sweep_setup(cfg)?, None),
        Workload::LongJob => (e2e::long_job_setup(cfg)?, None),
        Workload::ServeMix => {
            let (inputs, served) = e2e::serve_setup(cfg)?;
            (inputs, Some(served))
        }
    };
    main.close(setup);
    let traced = traced_jobs(&inputs, cfg.scale);
    let jobs: Vec<SimJob> = traced.iter().map(|(_, j)| j.clone()).collect();
    let seg = inputs.segment_size;
    let nproc = cfg.nproc;
    let reference = e2e::serial_reference(&jobs)?;
    let reference_digests = job_digests(&reference);

    // Engine runs over the traced jobs, each checked against the reference.
    // Compared runs go in the order a, b, b, a so drift cancels.
    let workload_config = match workload {
        Workload::LongJob => long_job_engine(cfg, &inputs),
        _ => cfg.engine(),
    };
    let program_trace = Trace::enabled();
    let mut run_job_s = 0.0;
    let mut step = |which: Step| -> f64 {
        let (label, config, trace) = match which {
            Step::Serial => ("e2e.serial", EngineConfig::serial(), Trace::disabled()),
            Step::Parallel => ("engine.parallel", cfg.engine(), Trace::disabled()),
            Step::Segmented1 => (
                "engine.segmented_1t",
                EngineConfig::with_workers(1).with_segment_size(seg),
                Trace::disabled(),
            ),
            Step::SegmentedN => (
                "engine.segmented_nt",
                cfg.engine().with_segment_size(seg),
                Trace::disabled(),
            ),
            Step::Untraced => ("engine.untraced", workload_config, Trace::disabled()),
            Step::Traced => ("engine.traced", workload_config, program_trace.clone()),
        };
        let span = main.open(label, run_span, run_op);
        let results = if which == Step::Serial {
            // The 1-worker end to end: the plain `run_job` path, one job at
            // a time.
            jobs.iter()
                .enumerate()
                .map(|(i, job)| {
                    let span = main.open("e2e.run_job", span, i as u64);
                    let result = run_job(i, job, Registry::builtin());
                    run_job_s += main.close(span) as f64 * 1e-9;
                    result
                })
                .collect::<Result<Vec<_>, _>>()
        } else {
            run_jobs_observed(
                &jobs,
                &config,
                Registry::builtin(),
                &MetricsConfig::disabled(),
                &trace,
            )
            .map(|(results, _)| results)
        };
        let seconds = main.close(span) as f64 * 1e-9;
        let failed = match results {
            Ok(results) => mismatches(&results, &reference_digests),
            Err(_) => jobs.len() as u64,
        };
        out.count(jobs.len() as u64, failed);
        seconds
    };
    let (serial_s, parallel_s) = abba(&mut step, Step::Serial, Step::Parallel);
    let (seg1_s, segn_s) = abba(&mut step, Step::Segmented1, Step::SegmentedN);
    let (untraced_s, traced_s) = abba(&mut step, Step::Untraced, Step::Traced);
    // Both serial repetitions were summed; the ledger compares one.
    let serial_once_s = serial_s / 2.0;

    // The layered replay.
    let mut layers = Track::new("layers", 1, origin);
    let mut totals = Totals::default();
    let mut replayed = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        replayed.push(replay_job(i, job, seg, &mut layers, &mut totals)?);
    }
    out.count(jobs.len() as u64, mismatches(&replayed, &reference_digests));

    // The workload's own end-to-end pass, untraced and with spans.
    let (pass_untraced_s, pass_traced_s, loop_run) = workload_pass(
        origin,
        workload,
        cfg,
        &inputs,
        served.as_ref(),
        &mut main,
        run_span,
    );

    // Server layer.
    let mut groups: Vec<(usize, Vec<JobResult>)> = Vec::new();
    for ((list, _), result) in traced.iter().zip(&reference) {
        match groups.last_mut() {
            Some((l, results)) if l == list => results.push(result.clone()),
            _ => groups.push((*list, vec![result.clone()])),
        }
    }
    server_layer(&mut out, &inputs, &groups, &cfg.engine());
    if let (Some(served), Some(run)) = (served, loop_run.as_ref()) {
        serve_metrics(&mut out, cfg, &inputs, &served, run, notes)?;
        served.server.shutdown();
    }
    main.close(run_span);

    // Per-layer metrics.
    let per_access = |ns: u64, accesses: u64| ratio(ns as f64, accesses as f64);
    let per_kaccess = |n: u64| ratio(n as f64 * 1e3, totals.accesses as f64);
    out.set(
        "trace.pull_ns_per_access",
        per_access(totals.pull_ns, totals.accesses),
    );
    out.set(
        "trace.open_us",
        ratio(totals.open_ns as f64 / 1e3, totals.jobs as f64),
    );
    let streams: HashSet<String> = inputs
        .all_jobs()
        .iter()
        .map(|j| {
            engine::canonical_json(&serde_json::to_value(&j.sim.source).expect("source serializes"))
        })
        .collect();
    out.set(
        "trace.jobs_per_distinct_stream",
        ratio(inputs.all_jobs().len() as f64, streams.len() as f64),
    );
    out.set(
        "memsim.cache_ns_per_access",
        per_access(totals.cache_ns, totals.accesses),
    );
    out.set(
        "memsim.l1_misses_per_kaccess",
        per_kaccess(totals.l1_misses),
    );
    out.set(
        "memsim.offchip_misses_per_kaccess",
        per_kaccess(totals.offchip_misses),
    );
    out.set(
        "memsim.invalidations_per_kaccess",
        per_kaccess(totals.invalidations),
    );
    out.set(
        "account.replay_ns_per_access",
        per_access(totals.account_ns, totals.accesses),
    );
    let sms = totals.by_plugin.get("sms").copied().unwrap_or_default();
    out.set(
        "sms.ns_per_access",
        per_access(totals.prefetcher_self_ns("sms"), sms.accesses),
    );
    out.set(
        "sms.pht_hit_ratio",
        ratio(sms.pht_hits as f64, sms.triggers as f64),
    );
    out.set(
        "sms.stream_requests_per_kaccess",
        ratio(sms.requests as f64 * 1e3, sms.accesses as f64),
    );
    out.set(
        "sms.useful_prefetch_ratio",
        ratio(sms.covered as f64, sms.requests as f64),
    );
    let ghb = totals.by_plugin.get("ghb").copied().unwrap_or_default();
    out.set(
        "ghb.ns_per_access",
        per_access(totals.prefetcher_self_ns("ghb"), ghb.accesses),
    );
    out.set(
        "ghb.useful_prefetch_ratio",
        ratio(ghb.covered as f64, ghb.requests as f64),
    );
    out.set(
        "timing.ns_per_access",
        per_access(totals.timing_ns, totals.timing_accesses),
    );
    out.set(
        "engine.prepare_us_per_job",
        ratio(totals.prepare_ns as f64 / 1e3, totals.jobs as f64),
    );
    let busy = ratio(run_job_s, nproc as f64 * parallel_s);
    out.set("engine.worker_busy_ratio", busy);
    let segment_speedup = ratio(seg1_s, segn_s);
    out.set("engine.segment_speedup", segment_speedup);
    out.set("engine.plain_over_segmented_1t", ratio(serial_s, seg1_s));
    let slowest_stage = totals
        .pull_ns
        .max(totals.simulate_ns)
        .max(totals.account_ns + totals.timing_ns);
    out.set(
        "engine.critical_stage_share",
        ratio(2.0 * slowest_stage as f64 * 1e-9, segn_s),
    );
    out.set("tracelog.overhead_ratio", ratio(traced_s, untraced_s));
    out.set(
        "ledger.explained_ratio",
        ratio(totals.ledger_ns() as f64 * 1e-9, serial_once_s),
    );
    out.set(
        "bench.span_overhead_ratio",
        ratio(pass_traced_s, pass_untraced_s),
    );

    // Method guards: a parallel ratio above the worker count is impossible.
    if busy * nproc as f64 > nproc as f64 {
        out.method_errors.push(format!(
            "job-parallel speed-up {:.3} exceeds {nproc} workers",
            busy * nproc as f64
        ));
    }
    if segment_speedup > nproc as f64 {
        out.method_errors.push(format!(
            "segment speed-up {segment_speedup:.3} exceeds {nproc} threads"
        ));
    }
    notes.push(format!(
        "traced jobs: {} of {}; accesses: {}; 1-worker end to end {:.4} s; ledger explains {:.1}%",
        jobs.len(),
        inputs.all_jobs().len(),
        totals.accesses,
        serial_once_s,
        100.0 * ratio(totals.ledger_ns() as f64 * 1e-9, serial_once_s)
    ));
    notes.push(format!(
        "plain/segmented-1t = {:.3} is a code-path gap, not a speed-up; segmented 1t/{nproc}t = {:.3}",
        ratio(serial_s, seg1_s),
        segment_speedup
    ));

    // The span trace: written once, then validated.
    let mut tracks = vec![main, layers];
    if let Some(run) = loop_run {
        tracks.extend(run.tracks);
    }
    let self_ns = spans::self_times(&tracks);
    for (name, ns) in &self_ns {
        notes.push(format!("self time {name}: {:.4} s", *ns as f64 * 1e-9));
    }
    let json = spans::chrome_json(&tracks);
    let required = [
        "bench.run",
        "job",
        "trace.pull",
        "memsim.baseline",
        "account.replay",
    ];
    match tracelog::check_chrome_trace(&json, &required) {
        Ok(check) => notes.push(format!("span trace: {} spans, valid", check.spans)),
        Err(e) => out.method_errors.push(format!("span trace invalid: {e}")),
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}-seed{}.trace.json", workload.name(), cfg.seed);
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    notes.push(format!("span trace written to {path}"));
    Ok(out)
}

/// Runs the workload's end-to-end pass once untraced and once with the
/// benchmark's spans around each submission, returning both times (and the
/// serve-mix loop runs, whose untraced half gives the latency metrics).
fn workload_pass(
    origin: Instant,
    workload: Workload,
    cfg: &RunConfig,
    inputs: &Inputs,
    served: Option<&serve::Served>,
    main: &mut Track,
    parent: u64,
) -> (f64, f64, Option<LoopRun>) {
    let engine_cfg = match workload {
        Workload::LongJob => long_job_engine(cfg, inputs),
        _ => cfg.engine(),
    };
    match served {
        Some(served) => {
            // Sized so every reported latency percentile has at least 10
            // samples above it, within a cap of three times the run length.
            let enough = |run: &LoopRun| {
                let hits = run.records.iter().filter(|r| r.hit).count();
                let total = run.passes.total_raw_s();
                total >= 3.0 * cfg.seconds
                    || (total >= cfg.seconds
                        && hits >= MIN_HIT_SAMPLES
                        && run.records.len() - hits >= MIN_MISS_SAMPLES)
            };
            let untraced = serve::closed_loop(&served.endpoint, inputs, &enough, None);
            let traced = serve::closed_loop(
                &served.endpoint,
                inputs,
                &|run| run.passes.total_raw_s() >= cfg.seconds / 3.0,
                Some(origin),
            );
            // Seconds per submission, untraced and traced.
            let per_submit = |run: &LoopRun| run.passes.total_raw_s() / run.records.len() as f64;
            let (untraced_s, traced_s) = (per_submit(&untraced), per_submit(&traced));
            let mut untraced = untraced;
            untraced.tracks = traced.tracks;
            (untraced_s, traced_s, Some(untraced))
        }
        None => {
            // Passes in the order untraced, traced, traced, untraced.
            let mut pass = |spans: bool| -> f64 {
                let t = Instant::now();
                let pass = spans.then(|| main.open("e2e.pass", parent, u64::MAX));
                for (l, list) in inputs.lists.iter().enumerate() {
                    let span = pass.map(|p| main.open("e2e.submit", p, l as u64));
                    black_box(run_jobs_in(&list.jobs, &engine_cfg, Registry::builtin()).ok());
                    if let Some(span) = span {
                        main.close(span);
                    }
                }
                if let Some(pass) = pass {
                    main.close(pass);
                }
                secs(t)
            };
            let mut untraced_s = pass(false);
            let traced_s = pass(true) + pass(true);
            untraced_s += pass(false);
            (untraced_s, traced_s, None)
        }
    }
}

/// The serve-mix metrics: latencies from the untraced closed loop, the
/// server's own counters, and how much of a miss the engine accounts for.
fn serve_metrics(
    out: &mut Outcome,
    cfg: &RunConfig,
    inputs: &Inputs,
    served: &serve::Served,
    run: &LoopRun,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    e2e::verify_served(inputs, run, out, notes)?;
    for (name, value, samples) in e2e::latency_quantiles(run) {
        let metric = match name {
            "hit_p50_ms" => "serve.hit_p50_ms",
            "hit_p99_ms" => "serve.hit_p99_ms",
            "miss_p50_ms" => "serve.miss_p50_ms",
            _ => "serve.miss_p90_ms",
        };
        match value {
            Some(v) => out.set(metric, v),
            None => out.method_errors.push(format!(
                "{name}: {samples} samples leave fewer than 10 above it"
            )),
        }
    }
    let hits = run.records.iter().filter(|r| r.hit).count();
    out.set("serve.hit_samples", hits as f64);
    out.set("serve.miss_samples", (run.records.len() - hits) as f64);
    let status = serve::status(&served.endpoint)?;
    out.set(
        "server.cache_hit_ratio",
        ratio(
            status.cache_hits as f64,
            (status.cache_hits + status.cache_misses) as f64,
        ),
    );
    out.set("server.cache_evictions", status.cache_evictions as f64);
    out.set(
        "server.rejected",
        (status.quota_rejections + status.overload_rejections) as f64,
    );
    out.set(
        "server.queue_wait_p50_ms",
        status.queue_wait_us.p50() as f64 / 1e3,
    );
    out.set(
        "server.queue_wait_p90_ms",
        status.queue_wait_us.p90() as f64 / 1e3,
    );
    // Direct engine time of each missed list, at the server's worker count.
    let mut direct_s: BTreeMap<usize, f64> = BTreeMap::new();
    let mut shares = Vec::new();
    for record in run.records.iter().filter(|r| !r.hit && r.results.is_ok()) {
        let seconds = match direct_s.get(&record.list) {
            Some(&s) => s,
            None => {
                let t = Instant::now();
                black_box(
                    run_jobs_in(
                        &inputs.lists[record.list].jobs,
                        &cfg.engine(),
                        Registry::builtin(),
                    )
                    .map_err(|e| e.to_string())?,
                );
                let s = secs(t);
                direct_s.insert(record.list, s);
                s
            }
        };
        shares.push(seconds / record.latency_s);
    }
    if !shares.is_empty() {
        out.set("server.engine_share_of_miss", median(&shares));
    }
    Ok(())
}
