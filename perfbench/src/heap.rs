//! Live heap bytes of the process, counted by a wrapper around the
//! system allocator, and their peak since the measured phase began.
//!
//! `peak_heap_mib` reads this peak rather than VmHWM: the resident peak
//! also holds whatever the allocator has freed but not yet handed back
//! to the kernel, and on glibc that share moves by tens of MiB from run
//! to run of the same code.
//!
//! Only blocks of at least [`COUNTED`] bytes are counted. The arrays,
//! streams and scratch buffers that make up the peak are all larger;
//! the many small blocks would each cost an update of a counter shared
//! by every thread, which slowed the tiny jobs of serve-small-jobs by
//! several per cent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Smallest block counted, in bytes.
pub const COUNTED: usize = 1024;

/// A counter on a cache line of its own, so that the two counters do
/// not contend with each other or with their neighbours.
#[repr(align(128))]
struct Counter(AtomicUsize);

static LIVE: Counter = Counter(AtomicUsize::new(0));
static PEAK: Counter = Counter(AtomicUsize::new(0));

fn grew(size: usize) {
    if size >= COUNTED {
        let live = LIVE.0.fetch_add(size, Relaxed) + size;
        // Most blocks do not set a new peak: read before writing.
        if live > PEAK.0.load(Relaxed) {
            PEAK.0.fetch_max(live, Relaxed);
        }
    }
}

fn shrank(size: usize) {
    if size >= COUNTED {
        LIVE.0.fetch_sub(size, Relaxed);
    }
}

pub struct Counting;

// SAFETY: every call is forwarded to `System` with the caller's own
// layout and pointer; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

/// Let the peak start again from the bytes live now.
pub fn reset_peak() {
    PEAK.0.store(LIVE.0.load(Relaxed), Relaxed);
}

/// Most bytes live at once since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.0.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
