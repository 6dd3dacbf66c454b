//! Process-level instruments: a counting global allocator and the peak
//! resident set from `/proc/self/status`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation and the bytes live on the heap (two
/// relaxed adds per call). Snapshotting [`allocs_now`] around
/// `Simulation::run` gives allocations per event, and [`live_bytes_now`]
/// around set-up gives the heap a simulation holds; both are exact at
/// one thread.
pub struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Wraps on purpose: only differences between two readings are used.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(allocated: usize, freed: usize) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(
        (allocated as u64).wrapping_sub(freed as u64),
        Ordering::Relaxed,
    );
}

// SAFETY: every operation is forwarded unchanged to `System`; the only
// addition is relaxed counter arithmetic, which touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Allocations made by this process so far.
pub fn allocs_now() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Bytes live on the heap now, as a wrapping counter: subtract two
/// readings with `wrapping_sub`.
pub fn live_bytes_now() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Peak resident set (`VmHWM`) of this process so far, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
