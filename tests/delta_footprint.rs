//! The delta store's memory gate: after a cold pass, a
//! `DeltaScanner` may hold at most [`MAX_HEAP_PER_CONTAINER_BYTE`]
//! bytes of live heap per byte of the `SAPK` containers it scanned.
//!
//! A long-lived scanner (the daemon's) keeps every group artifact and
//! merged report it produced in its in-process memos, so this is the
//! state that grows with the apps a daemon has seen. A counting global
//! allocator tracks live heap bytes (requested sizes, so allocator
//! overhead is not counted). The test scans every 16th app of the
//! seeded medium real-world corpus, over the medium framework, through
//! one scanner with an empty store, and compares the heap the scanner
//! holds afterwards with the container bytes. Every sampled app is
//! scanned in full once before measuring, so the framework database is
//! mined and every name the pass can reach is already interned: the
//! figure is the memos' own structure.
//!
//! Measured on this sample (25 apps, 813,392 container bytes): 7.26
//! with group artifacts that spell every ledger entry out by name, 3.20
//! with framework entries stored as dictionary ids (about 0.9 of it is the
//! dictionary itself, a fixed cost per framework). The bound sits
//! between, 25% above the current figure, so a regression to named
//! framework ledgers fails here under its own name.
//!
//! This must stay the only test in its binary: another test allocating
//! on a parallel test thread would land in the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_delta::DeltaScanner;
use saint_ir::{codec, Apk};
use saintdroid::SaintDroid;

/// Live heap bytes per container byte the scanner may hold.
const MAX_HEAP_PER_CONTAINER_BYTE: f64 = 4.0;

/// Every `SAMPLE_STRIDE`-th app of the corpus is scanned.
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
fn a_cold_scanner_holds_a_bounded_multiple_of_its_container_bytes() {
    let tool = SaintDroid::new(Arc::new(AndroidFramework::with_scale(
        &SynthConfig::medium(),
    )));
    let corpus = RealWorldCorpus::new(RealWorldConfig::medium());
    let apps: Vec<(Vec<u8>, Apk)> = (0..corpus.len())
        .step_by(SAMPLE_STRIDE)
        .map(|i| {
            let apk = corpus.get(i).apk;
            (codec::encode_apk(&apk), apk)
        })
        .collect();
    let container_bytes: usize = apps.iter().map(|(sapk, _)| sapk.len()).sum();
    for (_, apk) in &apps {
        drop(tool.run(apk));
    }
    let dir = std::env::temp_dir().join(format!("saint-delta-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let scanner = DeltaScanner::new(&dir);
    for (sapk, apk) in &apps {
        drop(scanner.scan_encoded(&tool, sapk, apk, 1));
    }
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    drop(scanner);
    let _ = std::fs::remove_dir_all(&dir);

    let ratio = held as f64 / container_bytes as f64;
    assert!(
        ratio <= MAX_HEAP_PER_CONTAINER_BYTE,
        "a scanner over {} apps holds {held} heap bytes for {container_bytes} container \
         bytes: {ratio:.2}x, over the {MAX_HEAP_PER_CONTAINER_BYTE}x bound",
        apps.len()
    );
}
