//! Shared by the allocation gates (`allocation_gate.rs`,
//! `allocation_gate_dense.rs`): the counting global allocator and the
//! steady-state stream shape.  Each gate is its own binary with exactly
//! one test, so no concurrent test thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dengraph_stream::{Message, Quantum, UserId};
use dengraph_text::KeywordId;

/// Counts `alloc`/`realloc` calls while armed; delegates to the system
/// allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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

/// A steady-state quantum: `groups` disjoint correlated bursts (three
/// keywords, four users each) from a fixed user population (so window
/// refcounts oscillate without growing), plus fresh long-tail filler
/// (below σ, so it never materializes index entries — exactly the
/// real-stream shape).  Every burst forms one reportable cluster.
pub fn steady_quantum(q: u64, groups: u32, quantum_size: usize) -> Quantum {
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
    Quantum { index: q, messages }
}
