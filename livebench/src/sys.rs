//! Process counters read from outside the program under test: a
//! counting global allocator and Linux `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// `USER_HZ`: the unit of the CPU times in `/proc/*/stat`.
const TICKS_PER_SEC: f64 = 100.0;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static CHECK_NS: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator, counting allocations and live bytes.
/// Both counters are statistics that publish no other data, so
/// `Relaxed` suffices.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is updating two atomics, which cannot fail or allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s
        // contract (non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout` and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) made so far by the process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes currently allocated by the process.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Runs one of the benchmark's correctness checks, adding its wall
/// time to the process-wide check total, so the share of a timed phase
/// spent checking the program rather than driving it is known.
pub fn timed_check<T>(check: impl FnOnce() -> T) -> T {
    let started = std::time::Instant::now();
    let out = check();
    CHECK_NS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// utime + stime, in seconds, from a `/proc/.../stat` line.
fn stat_cpu_secs(stat: &str) -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// User + system CPU seconds consumed by the whole process, exited
/// threads included.
pub fn process_cpu_secs() -> f64 {
    stat_cpu_secs(&read("/proc/self/stat"))
}

/// User + system CPU seconds consumed by the calling thread.
pub fn thread_cpu_secs() -> f64 {
    stat_cpu_secs(&read("/proc/thread-self/stat"))
}

/// Read plus write system calls made by the process (`syscr + syscw`
/// of `/proc/self/io`).
pub fn io_syscalls() -> u64 {
    read("/proc/self/io")
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(':')?;
            matches!(k, "syscr" | "syscw").then(|| v.trim().parse::<u64>().ok())?
        })
        .sum()
}

fn status_value(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches summed over the
/// process's live threads.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .map(|t| {
            let status = read(&format!("{}/status", t.path().display()));
            status_value(&status, "voluntary_ctxt_switches")
                + status_value(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_value(&read("/proc/self/status"), "VmHWM") as f64 / 1024.0
}

/// Host-wide CPU time from the first line of `/proc/stat`: (steal,
/// total) in ticks.
pub fn host_steal_total() -> (u64, u64) {
    let stat = read("/proc/stat");
    let line = stat.lines().next().unwrap_or("");
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A cut of every process counter, for deltas around a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub cpu_secs: f64,
    pub allocs: u64,
    pub syscalls: u64,
    pub ctx_switches: u64,
    /// Seconds spent in the benchmark's own checks.
    pub check_secs: f64,
    pub steal: u64,
    pub host_total: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Counters {
        let (steal, host_total) = host_steal_total();
        Counters {
            cpu_secs: process_cpu_secs(),
            allocs: allocs(),
            syscalls: io_syscalls(),
            ctx_switches: ctx_switches(),
            check_secs: CHECK_NS.load(Ordering::Relaxed) as f64 / 1e9,
            steal,
            host_total,
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cpu_secs: self.cpu_secs - earlier.cpu_secs,
            allocs: self.allocs - earlier.allocs,
            syscalls: self.syscalls - earlier.syscalls,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            check_secs: self.check_secs - earlier.check_secs,
            steal: self.steal - earlier.steal,
            host_total: self.host_total - earlier.host_total,
        }
    }
}
