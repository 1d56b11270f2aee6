//! Host-speed calibration.
//!
//! The shared host this benchmark runs on changes speed by tens of percent
//! over seconds to minutes: its cores slow down while the program under
//! test does not change.  Before the first and after every measured
//! operation, a fixed kernel that belongs to the benchmark (never to the
//! program) runs on every host thread while the program is idle.  The
//! median operation time is divided by the median of those slowdown
//! readings, which scales it to the reference host's speed: a change in
//! host speed cancels, a change in the program does not.  Medians on both
//! sides keep one slow reading or one disturbed operation from moving the
//! result.
//!
//! A program change that leaves work running between operations would slow
//! the kernel and flatter the program; the reports print the median
//! slowdown, so compare it across commits.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the kernel takes on the reference host: the median over many
/// readings on the 2-thread machine the benchmark was defined on.
pub const NOMINAL_S: f64 = 0.05;

/// The kernel is a small cache model of the benchmark's own: a 4-way
/// set-associative tag array of 4 MB per thread with move-to-front LRU, fed
/// a skewed random address stream.  Like the simulator it mixes branchy
/// integer work with accesses that miss the private caches, so it slows
/// down when either the cores or the memory system are contended.
const SETS: usize = 1 << 18;
const WAYS: usize = 4;
const STEPS: u64 = 1 << 21;

/// Runs the kernel once on each of `threads` threads and returns the mean
/// of the threads' own run times (thread start-up and the table's page
/// faults do not count).
fn kernel_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    // Filled with a non-zero value so every page is touched
                    // before the clock starts.
                    let mut tags = vec![1u32; SETS * WAYS];
                    let start = Instant::now();
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t as u64;
                    let mut hits = 0u64;
                    for _ in 0..STEPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Three in four addresses fall in a 1 MB hot region.
                        let addr = if x & 3 != 0 {
                            (x >> 8) & 0xf_ffff
                        } else {
                            (x >> 8) & 0xfff_ffff
                        };
                        let set = ((addr ^ (addr >> 18)) as usize) & (SETS - 1);
                        let tag = (addr >> 6) as u32 | 1;
                        let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
                        match ways.iter().position(|&w| w == tag) {
                            Some(way) => {
                                hits += 1;
                                ways[..=way].rotate_right(1);
                            }
                            None => {
                                ways.rotate_right(1);
                                ways[0] = tag;
                            }
                        }
                    }
                    black_box(hits);
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread does not panic"))
            .sum()
    });
    total / threads as f64
}

/// The host's slowdown against the reference host: above 1 when it runs
/// slower right now.
fn slowdown(threads: usize) -> f64 {
    kernel_s(threads) / NOMINAL_S
}

/// Times a sequence of operations (passes or set-ups) between host-speed
/// readings, and records each operation's peak resident memory (the peak
/// is reset before each operation, so set-up does not count toward a pass).
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall seconds of each operation.
    pub raw_s: Vec<f64>,
    /// Every slowdown reading, in order: one more than there are operations.
    pub slowdowns: Vec<f64>,
    /// Peak resident MB during each operation (`None` when the kernel
    /// refused the peak reset).
    pub peak_rss_mb: Vec<Option<f64>>,
}

impl Passes {
    /// Runs `f` as the next operation on a host with `threads` threads.
    pub fn time<T>(&mut self, threads: usize, f: impl FnOnce() -> T) -> T {
        if self.slowdowns.is_empty() {
            self.slowdowns.push(slowdown(threads));
        }
        let reset = crate::report::reset_peak_rss();
        let start = Instant::now();
        let value = f();
        let raw_s = start.elapsed().as_secs_f64();
        self.peak_rss_mb
            .push(crate::report::peak_rss_mb().filter(|_| reset));
        self.slowdowns.push(slowdown(threads));
        self.raw_s.push(raw_s);
        value
    }

    /// The host's median slowdown over the readings.
    pub fn slowdown(&self) -> f64 {
        median(&self.slowdowns)
    }

    /// The median operation time, scaled to the reference host's speed.
    pub fn median_s(&self) -> f64 {
        median(&self.raw_s) / self.slowdown()
    }

    /// Wall seconds of every operation so far.
    pub fn total_raw_s(&self) -> f64 {
        self.raw_s.iter().sum()
    }
}
