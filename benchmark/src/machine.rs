//! What the harness reads from the machine rather than from the program
//! under test: a speed-calibration kernel, process CPU time, peak
//! resident memory and an allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Time of one probe, in milliseconds, on the reference box in its fast
/// regime. A probe at or below it means "running at nominal speed";
/// changing it rescales normalised times and invalidates recorded
/// baselines.
pub const PROBE_NOMINAL_MS: f64 = 2.9;

const PROBE_TABLE_WORDS: usize = 128 * 1024; // 1 MiB of u64
const PROBE_PASSES: u64 = 120;

/// The speed probe: a streaming read-modify-write over a 1 MiB table,
/// which is throughput-bound work resident in the L2 cache. It calls no
/// repository code, so a change to the program cannot move it.
///
/// The reference box flips between a fast and a slow regime every few
/// seconds. The slow regime slows throughput-bound code like this loop
/// by 1.5× to 1.7× and a serial dependency chain by about 1.06×, so this
/// loop is the sensitive instrument: it tells the regimes apart, and a
/// slice caught between them sits in between (see [`normalise`]).
#[derive(Debug)]
pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            table: vec![1; PROBE_TABLE_WORDS],
        }
    }
}

impl Probe {
    /// Runs the kernel once on the calling thread and returns its time
    /// in milliseconds. Call it only while the system under test is idle.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for pass in 0..PROBE_PASSES {
            for word in self.table.iter_mut() {
                sum = sum.wrapping_add(*word);
                *word = word.wrapping_add(pass);
            }
        }
        std::hint::black_box(sum);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// How much slower than nominal a slice ran, judged by the probes on
/// either side of it.
///
/// Measured on the reference box, a workload slows down one for one with
/// the probe until it reaches its own slow-regime plateau, `1 + excess`,
/// and stays there however much slower the probe gets. `excess` is a
/// constant of the workload, measured by `wanbench fit` as the ratio of
/// its slice times between the two regimes, less one. Each probe is
/// judged on its own and the two are averaged, so a slice that began in
/// one regime and ended in the other counts as half in each.
pub fn slowdown(excess: f64, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    let over = |probe_ms: f64| (probe_ms / PROBE_NOMINAL_MS - 1.0).clamp(0.0, excess);
    1.0 + 0.5 * (over(probe_before_ms) + over(probe_after_ms))
}

/// Restates a duration (or CPU time) measured between two probes at the
/// nominal machine speed.
pub fn normalise(raw: f64, excess: f64, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    raw / slowdown(excess, probe_before_ms, probe_after_ms)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, all threads together, in nanoseconds.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this harness supports) that
    // outlives the call, and CLOCK_PROCESS_CPUTIME_ID is a clock every
    // Linux kernel provides; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The system allocator plus two counters that run only while a traced
/// run switches them on, so an end-to-end run pays one relaxed load per
/// allocation and nothing else.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn allocations() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_restates_at_nominal_speed() {
        let nominal = PROBE_NOMINAL_MS;
        // At or below nominal probe time nothing changes.
        assert_eq!(normalise(2.0, 0.4, nominal, nominal), 2.0);
        assert_eq!(normalise(2.0, 0.4, 0.9 * nominal, 0.8 * nominal), 2.0);
        // Up to its plateau a workload slows down with the probe...
        assert!((normalise(2.4, 0.4, 1.2 * nominal, 1.2 * nominal) - 2.0).abs() < 1e-12);
        // ...and beyond it no further, however slow the probe.
        assert!((normalise(2.8, 0.4, 1.5 * nominal, 1.9 * nominal) - 2.0).abs() < 1e-12);
        // A slice between the regimes counts as half in each.
        assert!((normalise(2.4, 0.4, nominal, 2.0 * nominal) - 2.0).abs() < 1e-12);
        // A workload the slow regime does not touch is left as measured.
        assert_eq!(normalise(3.0, 0.0, 9.0, 9.0), 3.0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time_ns();
        Probe::default().run();
        assert!(cpu_time_ns() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
