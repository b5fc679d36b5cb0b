//! Fixture for the `unsafe-sites` rule: an argued `unsafe` block in a
//! file not allowed to hold one still fires.

fn raw_read(p: *const u64) -> u64 {
    // SAFETY: the caller passes a valid, aligned pointer.
    unsafe { p.read() }
}
