//! The bytes the program holds on the heap, counted at every allocation
//! while switched on.
//!
//! Resident memory after a multi-threaded episode depends on which
//! thread's malloc arena served which allocation, and work stealing
//! makes that vary from run to run by several percent. The bytes the
//! program holds at once do not, so the benchmark reports their peak.
//! Counting from two threads into one counter slows the program by a
//! third, so it is switched on for one untimed episode only; switched
//! off, an allocation pays one load of a flag.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator, counting bytes in use and their peak while
/// [`measure`] runs.
pub struct Counting;

// Relaxed throughout: the counters are a statistic and publish no other
// data, and the worker pool's own hand-offs order the switch before any
// work the episode dispatches to another thread.
static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while counting; memory held from
/// before counting began and freed during it makes this lower.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(by: usize) {
    if ON.load(Relaxed) {
        let now = LIVE.fetch_add(by as isize, Relaxed) + by as isize;
        if now > PEAK.load(Relaxed) {
            PEAK.fetch_max(now, Relaxed);
        }
    }
}

fn shrank(by: usize) {
    if ON.load(Relaxed) {
        LIVE.fetch_sub(by as isize, Relaxed);
    }
}

// SAFETY: every call is passed straight to the system allocator; the
// counting around it touches no memory it hands out.
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
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Runs `f` with counting on; returns its result and the peak of the
/// heap bytes it held at once, MiB.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    (out, PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_peak_not_the_total() {
        let ((), mb) = measure(|| {
            for _ in 0..4 {
                let v = vec![1u8; 2 << 20];
                std::hint::black_box(&v);
            }
        });
        // Four 2 MiB buffers, one at a time (8 MiB in total); other test
        // threads may allocate and free a little meanwhile.
        assert!((1.0..6.0).contains(&mb), "{mb} MiB");
    }
}
