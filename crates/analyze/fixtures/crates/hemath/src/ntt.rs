//! Fixture for the `unsafe-sites` rule in a file allowed to hold
//! `unsafe`: the argued call must NOT fire, the bare one must.

fn argued(p: *const u64) -> u64 {
    // SAFETY: the caller passes a valid, aligned pointer.
    unsafe { p.read() }
}

fn bare(p: *const u64) -> u64 {
    unsafe { p.read() }
}
