//! The serve-mix workload: a resident server started in this process on a
//! unix socket, driven by a closed loop of client connections.
//!
//! Each client sends its next submission only after the previous one's
//! `Done` frame, so a slow server receives less load.  One pass is every
//! client working through its fixed script once.

use crate::calibrate::Passes;
use crate::spans::{Track, ROOT};
use crate::workload::Inputs;
use engine::JobResult;
use server::{client, Endpoint, Server, ServerConfig, ServerMetrics, SubmitOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Directory, relative to the working directory, for sockets and traces.
pub const OUT_DIR: &str = ".bench_out";

/// One submission of the closed loop.
#[derive(Debug, Clone)]
pub struct Record {
    /// Pool index of the submitted list.
    pub list: usize,
    /// Connect to `Done`, seconds.
    pub latency_s: f64,
    /// Whether the server answered from its result cache.
    pub hit: bool,
    /// The served results, or the error that ended the submission.
    pub results: Result<Vec<JobResult>, String>,
}

/// Everything a run of the closed loop observed.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Every submission, in completion order per client.
    pub records: Vec<Record>,
    /// Each pass's time and peak memory.
    pub passes: Passes,
    /// Most connections the load generator held open at once.
    pub max_connections: usize,
    /// Per-client span tracks (empty unless traced).
    pub tracks: Vec<Track>,
}

/// A server started for the benchmark, with the endpoint clients use.
#[derive(Debug)]
pub struct Served {
    /// The running server.
    pub server: Server,
    /// Where it listens.
    pub endpoint: Endpoint,
}

/// Starts a server with `workers` engine workers and the inputs' cache
/// budget on a fresh unix socket under [`OUT_DIR`].
///
/// # Errors
///
/// When the socket directory cannot be made or the server cannot bind.
pub fn start(inputs: &Inputs, workers: usize) -> Result<Served, String> {
    static INSTANCE: AtomicUsize = AtomicUsize::new(0);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let socket = PathBuf::from(format!(
        "{OUT_DIR}/serve-{}-{}.sock",
        std::process::id(),
        INSTANCE.fetch_add(1, Ordering::Relaxed)
    ));
    let server = Server::start(ServerConfig {
        unix_socket: Some(socket.clone()),
        workers,
        cache_max_bytes: inputs.cache_budget,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    Ok(Served {
        server,
        endpoint: Endpoint::Unix(socket),
    })
}

/// The server's counters, read through the protocol's status request.
///
/// # Errors
///
/// A transport or decoding failure.
pub fn status(endpoint: &Endpoint) -> Result<ServerMetrics, String> {
    let report = client::status(endpoint).map_err(|e| e.to_string())?;
    report
        .decode::<ServerMetrics>(server::REPORT_KIND)?
        .ok_or_else(|| "status reply is not a server report".to_string())
}

/// Runs passes of the closed loop, one client thread per script, until
/// `done` holds after a pass.  With `traced` set to the trace's origin,
/// each client records a span around every submission.
pub fn closed_loop(
    endpoint: &Endpoint,
    inputs: &Inputs,
    done: &dyn Fn(&LoopRun) -> bool,
    traced: Option<Instant>,
) -> LoopRun {
    let origin = traced.unwrap_or_else(Instant::now);
    let open = AtomicUsize::new(0);
    let max_open = AtomicUsize::new(0);
    let mut run = LoopRun::default();
    let mut tracks: Vec<Track> = (0..inputs.script.len())
        .map(|c| Track::new(&format!("client{c}"), c as u64 + 2, origin))
        .collect();
    let mut seq = 0u64;
    loop {
        let per_client: Vec<Vec<Record>> = run.passes.time(inputs.script.len(), || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .script
                    .iter()
                    .zip(tracks.iter_mut())
                    .enumerate()
                    .map(|(c, (script, track))| {
                        let (open, max_open) = (&open, &max_open);
                        let first_op = seq + (c * script.len()) as u64;
                        scope.spawn(move || {
                            let options = SubmitOptions {
                                client: format!("bench{c}"),
                                ..SubmitOptions::default()
                            };
                            let mut records = Vec::with_capacity(script.len());
                            for (k, &list) in script.iter().enumerate() {
                                let jobs = engine::JobList::new(inputs.lists[list].jobs.clone());
                                let span = traced
                                    .map(|_| track.open("serve.submit", ROOT, first_op + k as u64));
                                let now_open = open.fetch_add(1, Ordering::SeqCst) + 1;
                                max_open.fetch_max(now_open, Ordering::SeqCst);
                                let t = Instant::now();
                                let outcome =
                                    client::submit(endpoint, &jobs, &options, &mut |_| {});
                                let latency_s = t.elapsed().as_secs_f64();
                                open.fetch_sub(1, Ordering::SeqCst);
                                if let Some(id) = span {
                                    track.close(id);
                                }
                                records.push(match outcome {
                                    Ok(outcome) => Record {
                                        list,
                                        latency_s,
                                        hit: outcome.done.cache_hit,
                                        results: Ok(outcome
                                            .frames
                                            .into_iter()
                                            .map(|f| f.result)
                                            .collect()),
                                    },
                                    Err(e) => Record {
                                        list,
                                        latency_s,
                                        hit: false,
                                        results: Err(e.to_string()),
                                    },
                                });
                            }
                            records
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        });
        seq += inputs.script.iter().map(|s| s.len() as u64).sum::<u64>();
        run.records.extend(per_client.into_iter().flatten());
        if done(&run) {
            break;
        }
    }
    run.max_connections = max_open.load(Ordering::SeqCst);
    if traced.is_some() {
        run.tracks = tracks;
    }
    run
}
