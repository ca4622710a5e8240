//! The host's speed, sampled while the benchmark runs, and wall times
//! scaled to a reference speed.
//!
//! On a shared host the CPU this benchmark is pinned to runs the same work
//! a quarter faster or slower from one minute to the next, mostly with no
//! steal time and no change in the work: the neighbours share its caches.
//! The program's repetitions follow these swings, so a raw wall time
//! measures the neighbours as much as the program. A sampler thread on the
//! same CPU therefore runs a fixed reference kernel every
//! [`SAMPLE_PERIOD_MS`] and times it in its own CPU time; its speed is
//! [`REF_KERNEL_S`] over that time. The speed of an interval is the mean
//! speed of its samples, times the share of their span the host did not
//! steal from the CPU. A wall time at reference speed is the measured wall
//! time times that speed: the time the interval would have taken with the
//! kernel running at [`REF_KERNEL_S`] and nothing stolen.
//!
//! The kernel mixes what the program does most: a pseudo-random walk over
//! a table that fits in the L2 cache, and heap allocation with hash-map
//! inserts. On the 2-vCPU Xeon VM the benchmark was tuned on, the kernel
//! swung as much with the program idle as while it ran, so the swings are
//! the host's. Over 20 `append_storm` and 29 `wordcount_durable`
//! repetitions whose raw wall times varied by 12.5% and 17% (coefficient
//! of variation), the repetitions' wall times went as the kernel's time to
//! the power 1.0 when the walk took 50–60% of the kernel's time (0.84
//! with the walk alone, 1.2 with the hashing alone), and their wall times
//! at reference speed varied by 2%. Sampling takes about 4% of the CPU
//! from the measured phase.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::probe::wall_now;

/// Sleep between two runs of the kernel.
const SAMPLE_PERIOD_MS: u64 = 15;

/// Samples an interval's speed is read off at least: when fewer fell
/// inside it, the ones nearest its middle are taken.
const MIN_SAMPLES: usize = 16;

/// The kernel's CPU time at reference speed, seconds: about its typical
/// time on the VM the benchmark was tuned on, so that wall times at
/// reference speed read like wall times there.
pub const REF_KERNEL_S: f64 = 6.0e-4;

const WALK_TABLE: usize = 1 << 16;
const WALK_STEPS: usize = 6_000;
const CHURN_STEPS: u64 = 1_000;

/// A fixed amount of work: a table walk, then allocation and hashing. The
/// walk takes about three fifths of the time; with that share the
/// program's wall time moved in proportion to the kernel's time (see the
/// module notes).
fn reference_kernel(table: &[u32]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut i, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0usize, 0u64);
    for _ in 0..WALK_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        i = (table.get(i).copied().unwrap_or(0) as usize ^ x as usize) & mask;
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(u64::from(table.get(i).copied().unwrap_or(0)));
    }
    let mut map = HashMap::new();
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    for k in 0..CHURN_STEPS {
        map.insert(k.wrapping_mul(2_654_435_761), k);
        bufs.push(vec![0; 64 + (k % 512) as usize]);
        if bufs.len() > 64 {
            bufs.swap_remove((k as usize * 7) % 64);
        }
    }
    acc ^ map.values().sum::<u64>() ^ bufs.len() as u64
}

/// CPU time the calling thread has used, seconds.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live `struct timespec` (two 64-bit fields on the
    // 64-bit Linux targets the benchmark runs on) that the call only
    // writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    if rc == 0 {
        t.sec as f64 + t.nsec as f64 / 1e9
    } else {
        f64::NAN
    }
}

/// Seconds the host has held `cpu` away from this VM since boot (the
/// `steal` column of `/proc/stat`, in 1/100 s ticks); 0 when unreadable.
fn steal_s(cpu: usize) -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = format!("cpu{cpu} ");
    stat.lines()
        .find(|l| l.starts_with(&label))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// One kernel run: when it ended, the speed it ran at, and the CPU's
/// steal time so far.
#[derive(Clone, Copy)]
struct Sample {
    at: Instant,
    speed: f64,
    steal_s: f64,
}

/// The sampler thread and its samples.
pub struct HostSpeed {
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HostSpeed {
    /// Start sampling. Call after the process is pinned to `cpu`, so that
    /// the sampler shares the program's CPU; unpinned (`None`), steal time
    /// is not read.
    pub fn start(cpu: Option<usize>) -> HostSpeed {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (out, flag) = (samples.clone(), stop.clone());
        let handle = std::thread::spawn(move || {
            let table: Vec<u32> = (0..WALK_TABLE as u32)
                .map(|k| k.wrapping_mul(2_654_435_761))
                .collect();
            while !flag.load(Ordering::SeqCst) {
                let c0 = thread_cpu_s();
                std::hint::black_box(reference_kernel(std::hint::black_box(&table)));
                let cpu_s = thread_cpu_s() - c0;
                if cpu_s > 0.0 {
                    out.lock().push(Sample {
                        at: wall_now(),
                        speed: REF_KERNEL_S / cpu_s,
                        steal_s: cpu.map_or(0.0, steal_s),
                    });
                }
                std::thread::sleep(Duration::from_millis(SAMPLE_PERIOD_MS));
            }
        });
        HostSpeed {
            samples,
            stop,
            handle: Some(handle),
        }
    }

    /// Speed over the `secs` seconds from `start`: the samples' mean
    /// speed times the share of their span the host did not steal; 1 when
    /// nothing was sampled. The kernel is timed in CPU time, which stolen
    /// time does not enter, while wall time does.
    pub fn over(&self, start: Instant, secs: f64) -> f64 {
        let end = start + Duration::from_secs_f64(secs.max(0.0));
        let samples = self.samples.lock();
        let mut picked: Vec<Sample> = samples
            .iter()
            .filter(|s| s.at >= start && s.at <= end)
            .copied()
            .collect();
        if picked.len() < MIN_SAMPLES {
            let mid = start + (end - start) / 2;
            let gap = |t: Instant| t.max(mid) - t.min(mid);
            picked = samples.clone();
            picked.sort_by_key(|s| gap(s.at));
            picked.truncate(MIN_SAMPLES);
            picked.sort_by_key(|s| s.at);
        }
        let (Some(first), Some(last)) = (picked.first(), picked.last()) else {
            return 1.0;
        };
        let span_s = (last.at - first.at).as_secs_f64();
        let stolen = if span_s > 0.0 {
            ((last.steal_s - first.steal_s) / span_s).clamp(0.0, 0.9)
        } else {
            0.0
        };
        let mean = picked.iter().map(|s| s.speed).sum::<f64>() / picked.len() as f64;
        mean * (1.0 - stolen)
    }

    /// Share of the run so far the host stole from the pinned CPU.
    pub fn stolen_share(&self) -> f64 {
        let samples = self.samples.lock();
        match (samples.first(), samples.last()) {
            (Some(a), Some(b)) if b.at > a.at => {
                (b.steal_s - a.steal_s) / (b.at - a.at).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// `secs` of wall time from `start`, at reference speed.
    pub fn at_ref(&self, start: Instant, secs: f64) -> f64 {
        secs * self.over(start, secs)
    }

    /// Kernel runs sampled so far.
    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}
