//! The benchmark's workloads and the inputs each one generates from its seed.
//!
//! The program under test only ever sees the job lists built here; nothing
//! about a workload reaches it except through those lists and the engine or
//! server configuration the harness passes alongside them.

use engine::{JobResult, PrefetcherSpec, SimJob};
use experiments::ExperimentConfig;
use ghb::GhbConfig;
use memsim::HierarchyConfig;
use trace::{Application, GeneratorConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep", "long-job", "serve-mix"];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fig7, fig11 and fig12 job lists through the job-parallel engine.
    Sweep,
    /// One long OLTP job through the segment pipeline.
    LongJob,
    /// A resident server driven by a closed loop of small submissions.
    ServeMix,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep" => Some(Workload::Sweep),
            "long-job" => Some(Workload::LongJob),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => WORKLOADS[0],
            Workload::LongJob => WORKLOADS[1],
            Workload::ServeMix => WORKLOADS[2],
        }
    }
}

/// Input size.  `Full` is what the benchmark measures; `Tiny` keeps the
/// harness's own tests to a few seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured inputs.
    Full,
    /// Shrunken inputs with the same structure.
    Tiny,
}

/// One submission-shaped group of jobs: a figure's list, the long job, or
/// one entry of the serve-mix pool.
#[derive(Debug, Clone)]
pub struct NamedList {
    /// Label used in reports.
    pub name: String,
    /// The jobs, in submission order.
    pub jobs: Vec<SimJob>,
}

/// Everything a workload feeds the program, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// Sweep: the three figure lists.  Long job: the single job.  Serve mix:
    /// the pool submissions are drawn from.
    pub lists: Vec<NamedList>,
    /// Serve mix: each client's fixed sequence of pool indices (one pass).
    pub script: Vec<Vec<usize>>,
    /// Serve mix: the server's result-cache byte budget.
    pub cache_budget: u64,
    /// Long job: accesses per pipeline segment.
    pub segment_size: usize,
}

/// Figures whose job lists make up the sweep.
pub const SWEEP_FIGURES: [&str; 3] = ["fig7", "fig11", "fig12"];

/// Long job: simulated processors and demand accesses.
const LONG_JOB_CPUS: usize = 4;
const LONG_JOB_ACCESSES: usize = 3_000_000;
/// Long job: accesses per segment of the pipeline.
pub const SEGMENT_SIZE: usize = 10_000;

/// Serve mix: pool size, per-client script length, Zipf exponent and the
/// cache budget.  The budget holds roughly a third of the pool's serialized
/// results, so popular entries hit and the tail keeps evicting.
const POOL_SIZE: usize = 40;
const SCRIPT_LEN: usize = 60;
const ZIPF_EXPONENT: f64 = 1.0;
const CACHE_BUDGET_BYTES: u64 = 32 * 1024;
const POOL_JOB_ACCESSES: [usize; 3] = [20_000, 40_000, 60_000];
const POOL_SHAPE_SEED: u64 = 2006;

impl Inputs {
    /// Generates `workload`'s inputs from `seed` for `clients` serve-mix
    /// clients.
    pub fn generate(workload: Workload, seed: u64, scale: Scale, clients: usize) -> Inputs {
        let mut inputs = Inputs {
            workload,
            lists: Vec::new(),
            script: Vec::new(),
            cache_budget: 0,
            segment_size: SEGMENT_SIZE,
        };
        match workload {
            Workload::Sweep => {
                let mut config = ExperimentConfig::quick();
                config.seed = seed;
                if scale == Scale::Tiny {
                    config.accesses = 2_000;
                }
                for figure in SWEEP_FIGURES {
                    let jobs = experiments::catalog::figure_jobs(figure, &config, true)
                        .expect("sweep figures declare engine jobs");
                    inputs.lists.push(NamedList {
                        name: figure.to_string(),
                        jobs,
                    });
                }
            }
            Workload::LongJob => {
                let accesses = match scale {
                    Scale::Full => LONG_JOB_ACCESSES,
                    Scale::Tiny => 30_000,
                };
                if scale == Scale::Tiny {
                    inputs.segment_size = 4_000;
                }
                let job = SimJob::new(memsim::SimJob::synthetic(
                    Application::OltpDb2,
                    GeneratorConfig::default().with_cpus(LONG_JOB_CPUS),
                    seed,
                    LONG_JOB_CPUS,
                    HierarchyConfig::scaled(),
                    PrefetcherSpec::sms_paper_default(),
                    accesses,
                ));
                inputs.lists.push(NamedList {
                    name: "oltp-db2".to_string(),
                    jobs: vec![job],
                });
            }
            Workload::ServeMix => {
                let (pool, script_len, access_scale) = match scale {
                    Scale::Full => (POOL_SIZE, SCRIPT_LEN, 1),
                    Scale::Tiny => (8, 12, 20),
                };
                // The pool's shape (list lengths, applications, prefetchers,
                // access counts) and the clients' scripts are fixed, so every
                // seed asks for the same amount of work; the seed picks the
                // generated traces.
                let mut shape = SplitMix::new(POOL_SHAPE_SEED);
                let mut traces = SplitMix::new(seed);
                for entry in 0..pool {
                    let jobs = (0..1 + shape.below(2))
                        .map(|_| {
                            let app = Application::ALL[shape.below(Application::ALL.len())];
                            let prefetcher = match shape.below(3) {
                                0 => PrefetcherSpec::null(),
                                1 => PrefetcherSpec::sms_paper_default(),
                                _ => PrefetcherSpec::ghb(&GhbConfig::paper_small()),
                            };
                            let accesses = POOL_JOB_ACCESSES[shape.below(3)] / access_scale;
                            SimJob::new(memsim::SimJob::synthetic(
                                app,
                                GeneratorConfig::default().with_cpus(2),
                                traces.next_u64(),
                                2,
                                HierarchyConfig::scaled(),
                                prefetcher,
                                accesses,
                            ))
                        })
                        .collect();
                    inputs.lists.push(NamedList {
                        name: format!("pool{entry}"),
                        jobs,
                    });
                }
                let cdf = zipf_cdf(pool, ZIPF_EXPONENT);
                inputs.script = (0..clients)
                    .map(|client| {
                        let mut rng = SplitMix::new(POOL_SHAPE_SEED + 1 + client as u64);
                        (0..script_len).map(|_| rng.zipf(&cdf)).collect()
                    })
                    .collect();
                inputs.cache_budget = CACHE_BUDGET_BYTES / access_scale as u64;
            }
        }
        inputs
    }

    /// Every job of the workload, lists concatenated in order.
    pub fn all_jobs(&self) -> Vec<SimJob> {
        self.lists.iter().flat_map(|l| l.jobs.clone()).collect()
    }

    /// A fingerprint of the generated inputs: equal seeds give equal
    /// fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let value = serde_json::to_value(&self.all_jobs()).expect("jobs serialize");
        let mut text = engine::canonical_json(&value);
        text.push_str(&format!("{:?}", self.script));
        engine::fnv1a_64(text.as_bytes())
    }
}

/// The result digest every correctness check compares: FNV-1a over the
/// canonical JSON of the results.
pub fn digest(results: &[JobResult]) -> u64 {
    let value = serde_json::to_value(results).expect("results serialize");
    engine::fnv1a_64(engine::canonical_json(&value).as_bytes())
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// A small deterministic generator (SplitMix64) for the workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A rank drawn from the cumulative weights `cdf`.
    fn zipf(&mut self, cdf: &[f64]) -> usize {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
    }
}
