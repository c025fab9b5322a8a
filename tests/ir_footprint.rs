//! The in-memory IR's footprint gate: decoded apps must hold at most
//! [`MAX_HEAP_PER_CONTAINER_BYTE`] bytes of live heap per byte of the
//! `SAPK` containers they were decoded from.
//!
//! A counting global allocator tracks live heap bytes (requested sizes,
//! so allocator overhead is not counted). The test decodes every 16th
//! app of the seeded medium real-world corpus and compares the heap the
//! decoded apps hold with their container bytes. Names are already
//! interned when it measures (generating the sample interned them), so
//! the figure is the IR's own structure: instructions, blocks, methods
//! and classes.
//!
//! Measured on this sample (25 apps, 813,392 container bytes): 26.0
//! with the 80-byte instruction layout that kept `Invoke`'s
//! `MethodRef` and argument `Vec` inline, 11.9 with the 32-byte layout
//! that boxes them. The bound sits between, 26% above the current
//! figure, so a regression to a wide instruction fails here under its
//! own name.
//!
//! This must stay the only test in its binary: another test allocating
//! on a parallel test thread would land in the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_ir::{codec, Apk};

/// Live heap bytes per container byte the decoded sample may hold.
const MAX_HEAP_PER_CONTAINER_BYTE: f64 = 15.0;

/// Every `SAMPLE_STRIDE`-th app of the corpus is decoded.
const SAMPLE_STRIDE: usize = 16;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, plus a running total of live bytes.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn decoded_apps_hold_a_bounded_multiple_of_their_container_bytes() {
    let corpus = RealWorldCorpus::new(RealWorldConfig::medium());
    let containers: Vec<Vec<u8>> = (0..corpus.len())
        .step_by(SAMPLE_STRIDE)
        .map(|i| codec::encode_apk(&corpus.get(i).apk))
        .collect();
    let container_bytes: usize = containers.iter().map(Vec::len).sum();

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let apps: Vec<Apk> = containers
        .iter()
        .map(|c| codec::decode_apk(c).expect("generated containers decode"))
        .collect();
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;

    let ratio = held as f64 / container_bytes as f64;
    assert!(
        ratio <= MAX_HEAP_PER_CONTAINER_BYTE,
        "{} decoded apps hold {held} heap bytes for {container_bytes} container bytes: \
         {ratio:.1}x, over the {MAX_HEAP_PER_CONTAINER_BYTE}x bound",
        apps.len()
    );
}
