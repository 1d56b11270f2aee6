//! Trace sharing within one engine batch.
//!
//! The figures run many predictor configurations against the same synthetic
//! access stream: fig7 reads 6 streams with 66 jobs.  Generating that stream
//! once per job is pure repetition — the generators are deterministic — so a
//! `TracePlan` groups a batch's jobs by equal [`TraceSource::Synthetic`]
//! values before dispatch.  Within a group:
//!
//! * the jobs are claimed back to back (a stable, group-major claim order;
//!   results are still merged in submission order);
//! * the first job to start generates the longest member's access budget
//!   into one compact, immutable `AccessBuffer` shared through an [`Arc`];
//! * every member, the generator included, replays a prefix of that buffer,
//!   which is exactly the sequence its own freshly opened generator would
//!   have delivered;
//! * the plan drops its reference once the group's last job has opened the
//!   buffer, so the memory goes with the last replay.
//!
//! Because a group's members are claimed back to back and a job opens its
//! trace as soon as it is claimed, at most one buffer per worker is alive at
//! any time.  File sources, sources that only one job reads, and sources
//! longer than [`MAX_SHARED_ACCESSES`] stream per job exactly as before.

use crate::runner::SimJob;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use trace::{AccessKind, AccessStream, Application, BoxedStream, MemAccess, TraceSource};
use tracelog::Recorder;

/// Longest trace a group may generate into memory: about 72 MB at 17 bytes
/// per access.  A source whose longest job reads more streams per job, so
/// sharing never turns a constant-memory run into an unbounded one.
pub const MAX_SHARED_ACCESSES: usize = 1 << 22;

/// Shared buffers currently alive, and the most that ever were.
#[derive(Debug, Default)]
struct LiveBuffers {
    now: AtomicUsize,
    peak: AtomicUsize,
}

/// One generated trace, stored column-wise: 17⅛ bytes per access against
/// the 24 of a `Vec<MemAccess>`, and lossless for every access value.
#[derive(Debug)]
pub(crate) struct AccessBuffer {
    /// The generator's stream name, reported by every replay.
    name: String,
    cpus: Vec<u8>,
    pcs: Vec<u64>,
    addrs: Vec<u64>,
    /// One bit per access, set for writes.
    writes: Vec<u64>,
    live: Arc<LiveBuffers>,
}

impl AccessBuffer {
    /// Reads up to `len` accesses of `stream` into a new buffer.
    fn generate(stream: &mut dyn AccessStream, len: usize, live: Arc<LiveBuffers>) -> Self {
        let mut buffer = AccessBuffer {
            name: stream.name().to_string(),
            cpus: Vec::with_capacity(len),
            pcs: Vec::with_capacity(len),
            addrs: Vec::with_capacity(len),
            writes: vec![0; len.div_ceil(64)],
            live,
        };
        for (i, access) in stream.take(len).enumerate() {
            buffer.cpus.push(access.cpu);
            buffer.pcs.push(access.pc);
            buffer.addrs.push(access.addr);
            if access.kind.is_write() {
                buffer.writes[i / 64] |= 1 << (i % 64);
            }
        }
        let now = buffer.live.now.fetch_add(1, Ordering::SeqCst) + 1;
        buffer.live.peak.fetch_max(now, Ordering::SeqCst);
        buffer
    }

    fn len(&self) -> usize {
        self.cpus.len()
    }

    fn get(&self, i: usize) -> MemAccess {
        MemAccess {
            cpu: self.cpus[i],
            pc: self.pcs[i],
            addr: self.addrs[i],
            kind: if self.writes[i / 64] >> (i % 64) & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        }
    }

    /// Heap bytes held by the columns.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.cpus.capacity()
            + 8 * (self.pcs.capacity() + self.addrs.capacity() + self.writes.capacity())
    }
}

impl Drop for AccessBuffer {
    fn drop(&mut self) {
        self.live.now.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A job's view of a shared buffer: its first `end` accesses.
struct Replay {
    buffer: Arc<AccessBuffer>,
    next: usize,
    end: usize,
}

impl Iterator for Replay {
    type Item = MemAccess;

    #[inline]
    fn next(&mut self) -> Option<MemAccess> {
        if self.next == self.end {
            return None;
        }
        let access = self.buffer.get(self.next);
        self.next += 1;
        Some(access)
    }
}

impl AccessStream for Replay {
    fn name(&self) -> &str {
        &self.buffer.name
    }
}

/// The jobs of one batch that read the same synthetic source.
#[derive(Debug)]
struct Group {
    /// Member job indices, ascending.
    members: Vec<usize>,
    /// The longest member's access budget: what the buffer holds.
    accesses: usize,
    slot: Mutex<Slot>,
}

/// A group's buffer while some member has yet to open it.
#[derive(Debug, Default)]
struct Slot {
    buffer: Option<Arc<AccessBuffer>>,
    opened: usize,
}

/// How one batch's jobs read their traces: which jobs share a generated
/// buffer, and the order workers claim jobs in.
#[derive(Debug)]
pub(crate) struct TracePlan {
    order: Vec<usize>,
    group_of: Vec<Option<usize>>,
    groups: Vec<Group>,
    generations: AtomicU64,
    replays: AtomicU64,
    live: Arc<LiveBuffers>,
}

impl TracePlan {
    /// Groups `jobs` by equal synthetic sources.  A group forms only when two
    /// or more jobs read the source.
    pub(crate) fn new(jobs: &[SimJob]) -> Self {
        // `TraceSource` is only `PartialEq`: bucket by application and seed,
        // then compare whole sources within a bucket.
        let mut buckets: HashMap<(Application, u64), Vec<usize>> = HashMap::new();
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            let TraceSource::Synthetic { app, seed, .. } = &job.sim.source else {
                continue;
            };
            let bucket = buckets.entry((*app, *seed)).or_default();
            match bucket
                .iter()
                .find(|&&c| jobs[candidates[c][0]].sim.source == job.sim.source)
            {
                Some(&c) => candidates[c].push(index),
                None => {
                    bucket.push(candidates.len());
                    candidates.push(vec![index]);
                }
            }
        }

        let mut group_of = vec![None; jobs.len()];
        let mut groups = Vec::new();
        for members in candidates {
            let accesses = members.iter().map(|&i| jobs[i].sim.accesses).max();
            let accesses = accesses.unwrap_or(0);
            if members.len() < 2 || accesses > MAX_SHARED_ACCESSES {
                continue;
            }
            for &i in &members {
                group_of[i] = Some(groups.len());
            }
            groups.push(Group {
                members,
                accesses,
                slot: Mutex::default(),
            });
        }

        // Group-major, otherwise stable: a group's members are claimed
        // together where its first member stood.
        let mut order = Vec::with_capacity(jobs.len());
        let mut placed = vec![false; groups.len()];
        for (index, group) in group_of.iter().enumerate() {
            match *group {
                None => order.push(index),
                Some(g) if !placed[g] => {
                    placed[g] = true;
                    order.extend_from_slice(&groups[g].members);
                }
                Some(_) => {}
            }
        }

        Self {
            order,
            group_of,
            groups,
            generations: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            live: Arc::default(),
        }
    }

    /// Job indices in the order workers claim them.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Opens job `index`'s trace: a replay of its group's shared buffer
    /// (generating it if this is the group's first job to start), or the
    /// job's own stream when its source is not shared.  Records a
    /// `trace.materialize` or `trace.open` span on `rec`.
    ///
    /// # Errors
    ///
    /// As [`TraceSource::open`]; shared sources are synthetic and never fail.
    pub(crate) fn open(
        &self,
        index: usize,
        job: &SimJob,
        rec: &Recorder,
    ) -> io::Result<BoxedStream> {
        let source = &job.sim.source;
        let Some(g) = self.group_of[index] else {
            let mut span = rec.span("trace.open");
            span.arg_u64("job", index as u64);
            return source.open();
        };
        let group = &self.groups[g];
        // Generation runs under the lock, so members that start meanwhile
        // wait for the buffer instead of generating it again.  Nothing that
        // runs under the lock can leave the slot half-updated, so a poisoned
        // lock is still sound to use.
        let mut slot = group.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let buffer = match &slot.buffer {
            Some(buffer) => {
                self.replays.fetch_add(1, Ordering::Relaxed);
                Arc::clone(buffer)
            }
            None => {
                let mut span = rec.span("trace.materialize");
                if rec.is_enabled() {
                    span.arg_text("source", &source.describe());
                }
                span.arg_u64("accesses", group.accesses as u64);
                span.arg_u64("jobs", group.members.len() as u64);
                let mut stream = source.open()?;
                let buffer = Arc::new(AccessBuffer::generate(
                    &mut *stream,
                    group.accesses,
                    Arc::clone(&self.live),
                ));
                self.generations.fetch_add(1, Ordering::Relaxed);
                slot.buffer = Some(Arc::clone(&buffer));
                buffer
            }
        };
        slot.opened += 1;
        if slot.opened == group.members.len() {
            slot.buffer = None;
        }
        Ok(Box::new(Replay {
            end: job.sim.accesses.min(buffer.len()),
            buffer,
            next: 0,
        }))
    }

    /// Shared buffers generated so far.
    pub(crate) fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Opens served from a buffer another job generated.
    pub(crate) fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// The most shared buffers alive at once so far.
    pub(crate) fn peak_buffers(&self) -> u64 {
        self.live.peak.load(Ordering::SeqCst) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PrefetcherSpec;
    use memsim::HierarchyConfig;
    use trace::GeneratorConfig;

    fn job(app: Application, seed: u64, accesses: usize) -> SimJob {
        SimJob::new(memsim::SimJob::synthetic(
            app,
            GeneratorConfig::default().with_cpus(2),
            seed,
            2,
            HierarchyConfig::scaled(),
            PrefetcherSpec::null(),
            accesses,
        ))
    }

    #[test]
    fn claim_order_is_group_major_and_stable() {
        let jobs = vec![
            job(Application::OltpDb2, 1, 100),
            job(Application::Ocean, 1, 100),
            job(Application::OltpDb2, 2, 100),
            job(Application::OltpDb2, 1, 300),
            job(Application::Ocean, 1, 100),
            job(Application::Sparse, 1, 100),
        ];
        let plan = TracePlan::new(&jobs);
        assert_eq!(plan.order(), &[0, 3, 1, 4, 2, 5]);
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.groups[0].accesses, 300);
        assert_eq!(plan.group_of[2], None);
        assert_eq!(plan.group_of[5], None);
    }

    #[test]
    fn replays_are_the_generator_prefix_and_the_plan_releases_the_buffer() {
        let jobs = vec![
            job(Application::WebApache, 7, 5_000),
            job(Application::WebApache, 7, 2_000),
        ];
        let plan = TracePlan::new(&jobs);
        let rec = Recorder::disabled();
        let direct: Vec<MemAccess> = jobs[0].sim.source.open().unwrap().take(5_000).collect();
        // `take` bounds the read even if a broken plan streamed the endless
        // generator; a replay must end at its job's budget by itself.
        let long: Vec<MemAccess> = plan.open(0, &jobs[0], &rec).unwrap().take(6_000).collect();
        assert_eq!(long, direct);
        assert!(plan.groups[0].slot.lock().unwrap().buffer.is_some());
        let short: Vec<MemAccess> = plan.open(1, &jobs[1], &rec).unwrap().take(6_000).collect();
        assert_eq!(short, direct[..2_000]);
        assert!(plan.groups[0].slot.lock().unwrap().buffer.is_none());
        assert_eq!((plan.generations(), plan.replays()), (1, 1));
        assert_eq!(plan.live.now.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn buffers_are_lossless_and_smaller_than_mem_access() {
        let accesses = vec![
            MemAccess::read(0, 0, 0),
            MemAccess::write(255, u64::MAX, u64::MAX),
            MemAccess::write(3, 1 << 63, 64),
        ];
        let mut stream = trace::stream::VecStream::new("edge", accesses.clone());
        let buffer = AccessBuffer::generate(&mut stream, 3, Arc::default());
        let back: Vec<MemAccess> = (0..buffer.len()).map(|i| buffer.get(i)).collect();
        assert_eq!(back, accesses);

        let n = 10_000;
        let mut stream = Application::OltpDb2.stream(1, &GeneratorConfig::default());
        let buffer = AccessBuffer::generate(&mut stream, n, Arc::default());
        assert_eq!(buffer.len(), n);
        assert!(buffer.heap_bytes() < n * std::mem::size_of::<MemAccess>());
        assert!(
            buffer.heap_bytes() <= n * 18,
            "{} bytes",
            buffer.heap_bytes()
        );
    }
}
