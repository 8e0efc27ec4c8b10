//! The benchmark's clock: wall time scaled by how fast the host is running
//! the server right now.
//!
//! The reference host is a two-core guest on a shared machine. Each of its
//! cores, on its own, drops to two thirds of its speed for seconds at a time
//! and sometimes for minutes, and throughput, latency and CPU time per
//! request of whatever runs there move with it, so two sets of runs of one
//! commit disagree in wall time. One calibration thread per core, pinned to
//! it, therefore runs a fixed piece of arithmetic of the benchmark's own (no
//! product code) for about a millisecond every [`PERIOD`], timed on the
//! thread's CPU clock so that sharing the core does not count. The clock
//! advances by `speed ÷ REFERENCE` calibrated milliseconds per wall
//! millisecond, where `speed` is the cores' recent burst speeds weighted by
//! the share of its CPU time the watched process — the server — spent on
//! each (`/proc/<pid>/task/*/stat`).
//!
//! Every time the harness takes — latencies, the open loop's arrival
//! schedule, the operator's schedule, the measured window that throughput
//! divides by, set-up — is read from this clock, so it is in milliseconds
//! *of the reference host*: a server on a core running at 0.7 of the
//! reference speed answers 0.7 as many requests per wall second and the same
//! number per calibrated second. [`REFERENCE`] only fixes the unit; it
//! cancels in any comparison of two runs.
//!
//! What the product waits for on a wall-clock timer (the kernel's 40 ms
//! delayed-ACK timer behind `wire.overhead_p50_ms`) is not sped up by a
//! faster host; the workloads keep such timers out of the bounded metrics.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pause between calibration bursts.
const PERIOD: Duration = Duration::from_millis(40);
/// Bursts whose median is a core's current speed, and periods over which
/// the watched process's CPU time is apportioned to cores (half a second).
const RECENT: usize = 12;
/// Burst speed, in sweeps per CPU microsecond, at which a calibrated
/// millisecond is a wall millisecond: a core of the reference host (Intel
/// Xeon 2.1 GHz Firecracker guest, AVX-512) when its neighbours are quiet.
const REFERENCE: f64 = 0.13;

/// Floats a burst sweeps over (twice: accumulator and addend).
const LANES: usize = 64 * 1024;
/// Sweeps per burst.
const SWEEPS: usize = 80;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// CPU sets as the kernel passes them: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPUTIME: i32 = 3;

/// CPU time the calling thread has used, in nanoseconds.
fn thread_cpu_ns() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, properly aligned `Timespec` with the layout
    // 64-bit Linux gives `struct timespec` (two 64-bit integers); the clock
    // id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes through
    // the pointer, which points at a live `CpuSet` of exactly that size;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    let cpus: Vec<usize> = (0..1024)
        .filter(|c| rc == 0 && set[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        vec![0]
    } else {
        cpus
    }
}

/// Pins the calling thread to `cpu`; returns whether the kernel agreed.
fn pin_to(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes through the
    // pointer, which points at a live `CpuSet` of that size; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// The fixed work: [`SWEEPS`] multiply-add sweeps over the buffers. Returns
/// sweeps per CPU microsecond.
fn burst(acc: &mut [f32], x: &[f32]) -> f64 {
    let t = thread_cpu_ns();
    for _ in 0..SWEEPS {
        for (a, &b) in acc.iter_mut().zip(x) {
            *a = *a * 0.999 + b;
        }
        black_box(&mut *acc);
    }
    SWEEPS as f64 / ((thread_cpu_ns() - t).max(1.0) / 1e3)
}

fn buffers() -> (Vec<f32>, Vec<f32>) {
    (vec![1.0f32; LANES], vec![0.001f32; LANES])
}

fn median(xs: impl Iterator<Item = f64>) -> f64 {
    crate::stats::median(&xs.collect::<Vec<_>>()).expect("at least one burst")
}

/// CPU ticks each thread of `pid` has used and the CPU it last ran on.
fn thread_ticks(pid: u32) -> Vec<(u64, f64, usize)> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid: u64 = e.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(e.path().join("stat")).ok()?;
        // Fields after the parenthesised command name: utime and stime are
        // the 12th and 13th of those, the CPU last run on the 37th.
        let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks = rest.get(11)?.parse::<f64>().ok()? + rest.get(12)?.parse::<f64>().ok()?;
        Some((tid, ticks, rest.get(36)?.parse().ok()?))
    })
    .collect()
}

struct State {
    /// Wall-clock instant at which the clock read zero.
    t0: Instant,
    /// Wall and calibrated ms (from the origin) at the last update.
    wall_ms: f64,
    cal_ms: f64,
    /// Calibrated ms per wall ms since then.
    rate: f64,
    /// Per calibrated core: its last [`RECENT`] burst speeds.
    recent: Vec<VecDeque<f64>>,
    /// The process whose placement weights the cores, the ticks its threads
    /// had used at the last update, and what it used on each core in each of
    /// the last [`RECENT`] periods.
    watched: u32,
    seen: HashMap<u64, f64>,
    used: VecDeque<Vec<f64>>,
    /// Every rate the clock has run at, for `host.speed_spread`.
    rates: Vec<f64>,
}

impl State {
    fn wall_now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    fn now_ms(&self) -> f64 {
        self.cal_ms + (self.wall_now_ms() - self.wall_ms) * self.rate
    }
}

/// See the module comment.
pub struct Clock {
    /// The CPUs calibrated, one thread each.
    cpus: Vec<usize>,
    state: Mutex<State>,
    stop: AtomicBool,
}

impl Clock {
    /// Starts the clock at zero, watching this process, after a few bursts
    /// to learn the speed.
    pub fn start() -> Clock {
        let (mut acc, x) = buffers();
        let first: VecDeque<f64> = (0..RECENT).map(|_| burst(&mut acc, &x)).collect();
        let cpus = allowed_cpus();
        Clock {
            state: Mutex::new(State {
                t0: Instant::now(),
                wall_ms: 0.0,
                cal_ms: 0.0,
                rate: median(first.iter().copied()) / REFERENCE,
                recent: vec![first; cpus.len()],
                watched: std::process::id(),
                seen: HashMap::new(),
                used: VecDeque::new(),
                rates: Vec::new(),
            }),
            cpus,
            stop: AtomicBool::new(false),
        }
    }

    /// A clock that reads plain wall time (self-tests against fake servers).
    #[cfg(test)]
    pub fn wall() -> Clock {
        Clock {
            cpus: Vec::new(),
            state: Mutex::new(State {
                t0: Instant::now(),
                wall_ms: 0.0,
                cal_ms: 0.0,
                rate: 1.0,
                recent: Vec::new(),
                watched: 0,
                seen: HashMap::new(),
                used: VecDeque::new(),
                rates: vec![1.0],
            }),
            stop: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("the clock's lock is never held across a panic")
    }

    /// The wall-clock instant at which the clock read zero (span timestamps
    /// stay in wall time and count from here).
    pub fn origin(&self) -> Instant {
        self.lock().t0
    }

    /// Sets the clock back to zero and has it follow process `pid` from
    /// here on: the measured run counts from here and follows the server,
    /// set-up counted from [`Clock::start`] and followed the harness.
    pub fn restart(&self, pid: u32) {
        let mut s = self.lock();
        (s.t0, s.wall_ms, s.cal_ms) = (Instant::now(), 0.0, 0.0);
        s.watched = pid;
        s.seen.clear();
        s.used.clear();
        s.rates.clear();
    }

    /// Calibrated milliseconds since the clock read zero.
    pub fn now_ms(&self) -> f64 {
        self.lock().now_ms()
    }

    /// Wall time from now until the clock reads `cal_ms`, at today's rate.
    pub fn wall_until(&self, cal_ms: f64) -> Duration {
        let s = self.lock();
        Duration::from_secs_f64(((cal_ms - s.now_ms()) / s.rate / 1e3).max(0.0))
    }

    /// Sleeps until the clock reads `cal_ms` (re-reading the rate as it goes).
    pub fn sleep_until(&self, cal_ms: f64) {
        loop {
            let left = self.wall_until(cal_ms);
            if left.is_zero() {
                return;
            }
            std::thread::sleep(left.min(Duration::from_millis(100)));
        }
    }

    /// How many calibration threads the clock wants: call [`Clock::run`]
    /// with each index below this on a thread of its own.
    pub fn calibrators(&self) -> usize {
        self.cpus.len()
    }

    /// Calibration thread `idx`: pinned to its core, a burst every
    /// [`PERIOD`] until [`Clock::stop`]. Thread 0 also re-weights the cores
    /// and moves the clock.
    pub fn run(&self, idx: usize) {
        // Unpinned (the kernel refused), the thread still measures the
        // cores it is given.
        pin_to(self.cpus[idx]);
        let (mut acc, x) = buffers();
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(PERIOD);
            let speed = burst(&mut acc, &x);
            let watched = self.lock().watched;
            let placement = (idx == 0).then(|| thread_ticks(watched));
            let mut s = self.lock();
            s.recent[idx].pop_front();
            s.recent[idx].push_back(speed);
            if let Some(threads) = placement {
                self.advance(&mut s, &threads);
            }
        }
    }

    /// Moves the clock up to now at the old rate, then sets the new one.
    fn advance(&self, s: &mut State, threads: &[(u64, f64, usize)]) {
        let wall = s.wall_now_ms();
        s.cal_ms += (wall - s.wall_ms) * s.rate;
        s.wall_ms = wall;
        let mut used = vec![0.0; self.cpus.len()];
        for &(tid, ticks, cpu) in threads {
            let before = s.seen.insert(tid, ticks).unwrap_or(ticks);
            if let Some(core) = self.cpus.iter().position(|&c| c == cpu) {
                used[core] += ticks - before;
            }
        }
        if s.used.len() == RECENT {
            s.used.pop_front();
        }
        s.used.push_back(used);
        let per_core: Vec<f64> = (0..self.cpus.len())
            .map(|c| s.used.iter().map(|u| u[c]).sum())
            .collect();
        let total: f64 = per_core.iter().sum();
        let speed: f64 = per_core
            .iter()
            .zip(&s.recent)
            .map(|(&used, recent)| {
                // An idle process weighs the cores alike.
                let weight = if total > 0.0 {
                    used / total
                } else {
                    1.0 / self.cpus.len() as f64
                };
                weight * median(recent.iter().copied())
            })
            .sum();
        s.rate = speed / REFERENCE;
        let rate = s.rate;
        s.rates.push(rate);
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Quartile spread of the rates since the last restart: how unevenly
    /// the host ran the watched process.
    pub fn rate_spread(&self) -> f64 {
        crate::stats::spread(&self.lock().rates).unwrap_or(0.0)
    }
}
