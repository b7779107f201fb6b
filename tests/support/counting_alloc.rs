//! A counting global allocator shared by the memory and allocation gates.
//!
//! It counts allocator hits (`alloc` and `realloc`) while [`counted`] has
//! counting enabled, and always tracks the live heap bytes and their
//! peak. A test binary installs it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and
//! keeps its phases in one `#[test]`, so the harness cannot run another
//! test's allocations into the process-wide counters.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The counting allocator: [`System`] plus the counters below.
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

fn hit() {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hit();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        hit();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    /// Counted as the new block appearing before the old one goes: a
    /// moving `realloc` holds both for the copy.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hit();
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
}

/// Runs `f` with hit counting enabled; returns (allocations, result).
pub fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    let r = f();
    ENABLED.store(false, Relaxed);
    (ALLOCS.load(Relaxed), r)
}

/// Heap bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Runs `f` and returns (highest live bytes above the live bytes at the
/// start, live bytes at the end above the start, result).
pub fn peak_above_start<R>(f: impl FnOnce() -> R) -> (u64, i64, R) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let r = f();
    let peak = PEAK.load(Relaxed) - start;
    (peak, LIVE.load(Relaxed) as i64 - start as i64, r)
}
