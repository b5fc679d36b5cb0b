//! Minimal Linux syscall shim: `epoll` and the open-files rlimit.
//!
//! The workspace builds offline, so there is no `libc` or `mio` crate to
//! lean on — but `std` already links the C library, which means the
//! handful of symbols the reactor needs can be declared directly as
//! `extern "C"` imports. Everything unsafe lives behind the safe
//! [`Epoll`] wrapper; the rest of the crate never touches a raw syscall.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (`EPOLLERR`); always reported, never armed.
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`); always reported, never armed.
pub const EPOLLHUP: u32 = 0x010;

/// `EPOLL_CLOEXEC` for [`epoll_create1`].
const EPOLL_CLOEXEC: c_int = 0o2000000;
/// `epoll_ctl` op: register a new fd.
const EPOLL_CTL_ADD: c_int = 1;
/// `epoll_ctl` op: deregister an fd.
const EPOLL_CTL_DEL: c_int = 2;
/// `epoll_ctl` op: change an fd's armed interest set.
const EPOLL_CTL_MOD: c_int = 3;

/// One readiness record, ABI-compatible with the kernel's
/// `struct epoll_event`. On x86-64 the C definition is packed (12
/// bytes); elsewhere it uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of ready conditions ([`EPOLLIN`], [`EPOLLOUT`], …).
    pub events: u32,
    /// The caller-chosen token registered with the fd.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed record, for preallocating the wait buffer.
    pub const fn empty() -> Self {
        Self { events: 0, data: 0 }
    }
}

/// `getrlimit`/`setrlimit` resource id for the open-files cap.
const RLIMIT_NOFILE: c_int = 7;

/// ABI mirror of `struct rlimit` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

/// Raises the process's soft open-files limit toward `target` (clamped
/// to the hard limit) and returns the soft limit now in effect. A limit
/// already at or above `target` is left untouched. Idle connections are
/// cheap for the reactor but each still costs an fd, so soak tests and
/// benches holding thousands of sockets call this first.
///
/// # Errors
///
/// The underlying `getrlimit`/`setrlimit` failure.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live, writable `RLimit`, laid out as the C
    // `struct rlimit` the call fills.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    lim.rlim_cur = target.min(lim.rlim_max);
    // SAFETY: `lim` is a live `RLimit`, laid out as the C `struct
    // rlimit` the call only reads.
    if unsafe { setrlimit(RLIMIT_NOFILE, &lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(lim.rlim_cur)
}

/// A safe epoll instance: owns the epoll fd, closes it on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure.
    pub fn new() -> io::Result<Self> {
        // SAFETY: the call takes no pointers; a failure is a negative
        // return, checked below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `event` is a live `EpollEvent` laid out as the C
        // `struct epoll_event`; the kernel copies it and keeps no pointer.
        if unsafe { epoll_ctl(self.fd, op, fd, &mut event) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the level-triggered `interest` set; readiness
    /// records for it carry `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Re-arms `fd` with a new interest set (same token).
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL but must be non-null on
        // pre-2.6.9 kernels; pass one unconditionally.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness (or `timeout_ms`; negative blocks
    /// indefinitely), filling `events` and returning how many records
    /// are valid. `EINTR` is retried internally.
    ///
    /// # Errors
    ///
    /// Any other `epoll_wait` failure.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a live, writable slice and the count
            // passed is at most its length, so the kernel writes only
            // inside it.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self` owns `fd` and this drop is its last use, so no
        // other handle is closed or left dangling.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_event_matches_the_kernel_abi() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
    }

    #[test]
    fn epoll_reports_readability_with_the_registered_token() {
        let epoll = Epoll::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        epoll.add(rx.as_raw_fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent::empty(); 4];
        // Nothing written yet: a zero-timeout wait sees nothing.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        tx.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (ready, token) = (events[0].events, events[0].data);
        assert_eq!(token, 42);
        assert_ne!(ready & EPOLLIN, 0);
        // Deregistered fds report nothing even with data pending.
        epoll.remove(rx.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn modify_rearms_the_interest_set() {
        let epoll = Epoll::new().unwrap();
        let (tx, rx) = UnixStream::pair().unwrap();
        // Armed only for writability: a fresh socketpair is writable.
        epoll.add(tx.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let mut events = [EpollEvent::empty(); 4];
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        // Re-armed for readability only: no longer reported.
        epoll.modify(tx.as_raw_fd(), EPOLLIN, 7).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        drop(rx);
        // Peer gone: HUP is reported even though it was never armed.
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events & EPOLLHUP, 0);
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        let current = raise_nofile_limit(0).unwrap();
        assert!(current > 0);
        // Raising toward the current value is a no-op, never a lowering.
        assert_eq!(raise_nofile_limit(current).unwrap(), current);
    }
}
