//! What a hot uploaded tenant costs the host: its matcher, and nothing
//! the size of its database beside it. The registry drops the upload's
//! serialized bytes once the matcher is built from them (a demotion
//! writes the matcher's own export to flash instead), so a remote CM-SW
//! tenant holds only a small, size-independent overhead — id, channel,
//! limit, books — over the same matcher built directly.
//!
//! Live bytes are counted per thread by a counting global allocator; a
//! one-range CM-SW tenant is built on the calling thread, so the
//! thread's count is what the registry and the matcher keep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cm_core::{Backend, BitString, MatcherConfig};
use cm_server::wire::{content_digest, upload_tag};
use cm_server::{TenantRegistry, TenantSpec, UploadAuth};

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter update that neither allocates nor unwinds
// (`try_with` on a const-initialized `Cell` without a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Above what the matcher itself keeps, a hot tenant may hold this much:
/// its id, AES channel, query limit and lifetime books, and the registry
/// entry and binding — a constant, whatever the database's size.
const OVERHEAD_BOUND: i64 = 4 << 10;

#[test]
fn a_hot_upload_holds_its_matcher_and_no_second_copy() {
    let config = MatcherConfig::new(Backend::Ciphermatch).insecure_test();
    let spec = TenantSpec::from_config(&config, 1);
    let key = [0x5A; 32];
    for kib in [16usize, 64] {
        let bytes: Vec<u8> = (0..kib << 10).map(|i| (i * 131 + 7) as u8).collect();
        let mut owner = config.build().unwrap();
        owner.load_database(&BitString::from_bytes(&bytes)).unwrap();
        let encoded = owner.export_database().unwrap();
        // A first build warms whatever a build caches process-wide, so
        // neither measurement below pays for it.
        let mut warm = config.build().unwrap();
        warm.load_database_wire(&encoded).unwrap();
        drop(warm);

        // The same matcher, built directly from the upload.
        let before = live();
        let mut matcher = config.build().unwrap();
        matcher.load_database_wire(&encoded).unwrap();
        let matcher_bytes = live() - before;
        drop(matcher);

        // The registry, handed the upload. Whatever it keeps of the
        // upload buffer counts, whether it frees the buffer or not.
        let registry = TenantRegistry::new();
        let id = format!("t{kib}");
        let content = content_digest(&key, &encoded);
        let total = encoded.len() as u64;
        let auth = UploadAuth {
            nonce: 1,
            channel_key: key,
            content,
            tag: upload_tag(&key, &id, 1, total, &spec, &content),
        };
        let upload = encoded.capacity() as i64;
        let before = live();
        let load = registry
            .register_remote(&id, &spec, encoded, &auth)
            .unwrap();
        let held = live() - before + upload;
        assert_eq!(load.bytes, total);
        assert!(registry.is_resident(&id).unwrap());

        let beyond = held - matcher_bytes;
        assert!(
            beyond < OVERHEAD_BOUND,
            "{kib} KiB: the registry holds {held} B, {beyond} B beyond its \
             {matcher_bytes} B matcher (the upload is {total} B)"
        );
    }
}
