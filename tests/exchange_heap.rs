//! Heap gate for the paper's pipeline: the peak live heap of
//! `enumerate_via_decomposition` on a power-law graph must stay within a
//! fixed multiple of the graph's own CSR bytes.
//!
//! The intra-cluster adjacency exchange sets the pipeline's peak
//! (DESIGN.md §4). Its messages are read in place from the senders'
//! outgoing storage; an engine that copies each message into a
//! per-receiver inbox that keeps its largest round's capacity holds
//! `Θ(m)` 72-byte messages at once and fails this gate.
//!
//! A test binary of its own: the counting allocator below is
//! process-global, and a single test keeps every other test's
//! allocations out of the count.

#![allow(unsafe_code)] // the counting `GlobalAlloc` wrapper below

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use expander_repro::prelude::*;

/// `System` plus a count of live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are bookkeeping only and never touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                Counting::shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The gate on peak live heap over CSR bytes. Reading mail in place
/// measures ≈ 23.4 on this input (the cluster phase sets the peak; the
/// decomposition's own is ≈ 10.5); copying every message into a
/// per-receiver inbox measures ≈ 44.
const MAX_PEAK_OVER_CSR: f64 = 30.0;

/// The decomposition dominates the run time, so the graph is kept small
/// enough for an unoptimized build (a few seconds). The ratio is nearly
/// flat in `n`: 22–24 from 500 to 20,000 vertices.
#[test]
fn exchange_peak_heap_is_a_small_multiple_of_the_graph() {
    let g = graph::gen::power_law_fast(600, 2.5, 10.0, 1).unwrap();
    let csr_bytes = (g.n() + 1) * std::mem::size_of::<usize>()
        + 2 * g.m() * std::mem::size_of::<graph::VertexId>();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = enumerate_via_decomposition(&g, &PipelineParams::default());
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let ratio = peak as f64 / csr_bytes as f64;
    assert!(
        ratio <= MAX_PEAK_OVER_CSR,
        "peak live heap {peak} B is {ratio:.2} × the CSR's {csr_bytes} B (gate {MAX_PEAK_OVER_CSR})"
    );
    assert_eq!(report.count(), count_triangles(&g));
}
