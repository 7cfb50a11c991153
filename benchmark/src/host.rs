//! What the harness knows about the host it runs on: allocation and
//! page-fault counters, peak memory, a description of the machine, and
//! two calibration loops that say whether the *host* moved between two
//! result sets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::Command;
use std::time::Instant;

use crate::json::Value;

/// The system allocator with per-thread counters.
///
/// Counting per thread (const-initialised `thread_local!` `Cell`s: no
/// allocation, no lock, no atomic) keeps a count exact while sweep
/// workers or libtest threads allocate next to it.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain thread-local integers that never influence the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + new_size.saturating_sub(layout.size()) as u64));
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` made by the calling thread so
/// far. Meaningful only in a binary whose `#[global_allocator]` is
/// [`CountingAlloc`]; differences of two readings are what callers use.
pub fn thread_allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Pins glibc malloc to "keep freed memory": no `mmap` for large blocks,
/// no trimming of the heap top.
///
/// Left alone, glibc adapts both thresholds to the first large block a
/// process frees, and whether a dropped image's ~2 MiB then goes back to
/// the kernel sits on a knife edge: the same 272-point sweep ran in
/// 0.30 s with 0 page faults in one process and 0.49 s with 161 000 in
/// the next (measured while sizing this harness). A benchmark cannot
/// have two modes chosen by luck, so it fixes the one that measures the
/// simulator's own work; how much memory a trim-happy allocator would
/// fault back in per image is reported as the exact count
/// `system.build_bytes` instead. Returns `false` where the call is
/// unavailable (non-glibc targets) or refused, which the result records.
pub fn pin_malloc_retain() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores two tunables inside glibc's
        // allocator state; it is called once, first thing in `main`,
        // before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Minor page faults of this process so far (`/proc/self/stat` field
/// 10), or 0 where `/proc` is unavailable.
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself contain spaces.
            let rest = s.get(s.rfind(')')? + 2..)?;
            rest.split(' ').nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host metadata for a result file: enough to judge two files
/// comparable without the shell history.
pub fn metadata() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj()
        .with("cpu_model", cpu)
        .with("nproc", nproc())
        .with("rustc", command_line("rustc", &["--version"]))
        // A driver checkout is not a git repository: "unknown" there.
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
}

/// Nanoseconds per iteration of a fixed integer loop: the host's CPU
/// speed as this process sees it, independent of the repository's code.
pub fn calib_cpu_ns() -> f64 {
    const ITERS: u64 = 40_000_000;
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..std::hint::black_box(ITERS) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Nanoseconds to first-touch one fresh 4 KiB page: the host's
/// page-fault cost (the kernel path a build-heavy sweep leans on when
/// the allocator does return memory).
pub fn calib_fault_ns() -> f64 {
    const PAGES: usize = 16_384;
    const PAGE: usize = 4096;
    // A fresh zeroed 64 MiB block is above any malloc threshold, so it
    // comes straight from `mmap` and every page below is untouched.
    // (Natural alignment on purpose: an over-aligned zeroed request is
    // served by aligned_alloc + memset, which would touch the pages.)
    let layout = Layout::from_size_align(PAGES * PAGE, 16).expect("valid layout");
    // SAFETY: `layout` has non-zero size; the block is written only
    // inside its bounds and freed with the same layout.
    unsafe {
        let block = System.alloc_zeroed(layout);
        if block.is_null() {
            return f64::NAN;
        }
        let start = Instant::now();
        for p in 0..PAGES {
            block.add(p * PAGE).write_volatile(1);
        }
        let ns = start.elapsed().as_nanos() as f64 / PAGES as f64;
        System.dealloc(block, layout);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.0);
            let before = minor_faults();
            let v = vec![1u8; 8 << 20];
            std::hint::black_box(&v);
            assert!(minor_faults() >= before);
        }
        let meta = metadata();
        for key in ["cpu_model", "nproc", "rustc", "git_commit"] {
            assert!(meta.get(key).is_some(), "{key}");
        }
    }

    #[test]
    fn calibration_loops_measure_something() {
        assert!(calib_cpu_ns() > 0.0);
        let fault = calib_fault_ns();
        assert!(fault.is_nan() || fault > 0.0);
    }
}
