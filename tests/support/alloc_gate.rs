//! Shared by the allocation gates (`allocation_gate*.rs`) and the decoder
//! mutation sweep (`decoder_mutation.rs`): the counting global allocator
//! and the steady-state stream shape.  Each is its own binary with exactly
//! one test, so no concurrent test thread can pollute the counters.  Each
//! binary uses part of this file.
#![allow(dead_code, reason = "each binary uses part of this file")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use dengraph_stream::{Message, UserId};
use dengraph_text::KeywordId;

/// Counts `alloc`/`realloc` calls while armed, and always tracks the
/// bytes live on the heap and their high-water mark; delegates to the
/// system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Moves the live-byte count by `delta`, raising the high-water mark.
fn track(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged; the counters are atomics and never touch the allocation.
#[expect(unsafe_code, reason = "a counting global allocator is an unsafe impl")]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed; returns its result and the number of
/// heap allocations (`alloc` + `realloc` calls) it performed.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let result = f();
    ARMED.store(false, Ordering::Relaxed);
    (result, ALLOCATIONS.load(Ordering::Relaxed))
}

/// Runs `f`; returns its result and the high-water mark of the bytes it
/// held live on the heap beyond what was live when it started.  An
/// allocation counts at its requested size, whether or not its pages are
/// ever touched.
pub fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let result = f();
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - base;
    (result, peak.max(0) as u64)
}

/// A steady-state quantum: `groups` disjoint correlated bursts (three
/// keywords, four users each) from a fixed user population (so window
/// refcounts oscillate without growing), plus fresh long-tail filler
/// (below σ, so it never materializes index entries — exactly the
/// real-stream shape).  Every burst forms one reportable cluster.
pub fn steady_quantum(q: u64, groups: u32, quantum_size: usize) -> Vec<Message> {
    let mut messages = Vec::with_capacity(quantum_size);
    for group in 0..groups {
        let keywords: Vec<KeywordId> = (0..3).map(|i| KeywordId(group * 10 + i)).collect();
        for u in 0..4u64 {
            messages.push(Message::new(
                UserId(100 * group as u64 + u),
                q * 1_000 + u,
                keywords.clone(),
            ));
        }
    }
    let mut filler = 1_000_000 + q * 1_000;
    while messages.len() < quantum_size {
        messages.push(Message::new(
            UserId(filler),
            q * 1_000 + filler,
            vec![KeywordId(1_000 + (filler % 50_000) as u32)],
        ));
        filler += 1;
    }
    messages
}
