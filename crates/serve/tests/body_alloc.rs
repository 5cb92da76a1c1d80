//! A request header alone must not make a worker allocate the body
//! length it declares: the body grows with the bytes that actually
//! arrive. This binary counts every allocation, so it holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// Tracks live and peak heap bytes across the whole process.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK.fetch_max(live, SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_declared_body_is_not_allocated_before_it_arrives() {
    let declared = 200 * 1024 * 1024;
    let wire = format!("POST /tenants HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n0123456789");
    let mut reader = Cursor::new(wire.into_bytes());

    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    let err = bz_serve::http::read_request(&mut reader).unwrap_err();
    let grown = PEAK.load(SeqCst).saturating_sub(before);

    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert!(
        grown < 1024 * 1024,
        "a 10-byte body under a {declared}-byte header allocated {grown} bytes"
    );
}
