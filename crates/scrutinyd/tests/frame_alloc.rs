//! The frame reader's allocation is bounded by the bytes that arrive,
//! not by the length prefix: a peer announcing a `MAX_FRAME` payload and
//! then closing costs kilobytes. Its own test binary, because the
//! counting global allocator sees every allocation in the process.

use scrutinyd::proto::read_frame;
use scrutinyd::MAX_FRAME;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` guarantees pass through as-is.
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn max_frame_prefix_then_eof_allocates_kilobytes() {
    let mut wire = MAX_FRAME.to_le_bytes().to_vec();
    wire.extend_from_slice(&[0xAB; 16]);

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let err = read_frame(&mut wire.as_slice()).unwrap_err();
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(peak < 1 << 20, "peak allocation {peak} bytes");
}
