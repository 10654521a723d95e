//! The minimal `extern "C"` surface the crate needs: file descriptors,
//! memory mapping, the monotonic clock and the `futex(2)` wait/wake pair.
//!
//! The workspace has no registry access, so instead of a `libc` dependency
//! these symbols are declared directly against the C library that `std`
//! already links.  Constants are the Linux/x86-64 + AArch64 values (the
//! only platforms the workspace targets); `off_t`, `time_t` and pointers
//! are all 64-bit there.

use std::os::raw::{c_char, c_int, c_long, c_void};

/// `open(2)` flag: read/write access.
pub const O_RDWR: c_int = 0o2;
/// `open(2)` flag: create the file if it does not exist.
pub const O_CREAT: c_int = 0o100;
/// `open(2)` flag: fail if the file already exists (with [`O_CREAT`]).
pub const O_EXCL: c_int = 0o200;
/// `mmap(2)` protection: readable pages.
pub const PROT_READ: c_int = 1;
/// `mmap(2)` protection: writable pages.
pub const PROT_WRITE: c_int = 2;
/// `mmap(2)` flag: updates are visible to other mappings of the file.
pub const MAP_SHARED: c_int = 1;
/// `mmap(2)` flag: anonymous mapping, no backing file (`fd = -1`).
pub const MAP_ANONYMOUS: c_int = 0x20;
/// `clock_gettime(2)` clock id: monotonic since an unspecified epoch.
pub const CLOCK_MONOTONIC: c_int = 1;

/// `syscall(2)` number of `futex(2)`.
#[cfg(target_arch = "x86_64")]
pub const SYS_FUTEX: c_long = 202;
/// `syscall(2)` number of `futex(2)`.
#[cfg(target_arch = "aarch64")]
pub const SYS_FUTEX: c_long = 98;
/// `futex(2)` op: sleep while the word still holds the expected value.
/// Deliberately not `FUTEX_PRIVATE_FLAG`: waiter and waker are different
/// processes, so the kernel must key the wait on the shared page, not on
/// one address space.
pub const FUTEX_WAIT: c_int = 0;
/// `futex(2)` op: wake up to `val` waiters on the word.
pub const FUTEX_WAKE: c_int = 1;
/// `errno`: the futex word no longer held the expected value.
pub const EAGAIN: c_int = 11;
/// `errno`: a signal interrupted the wait.
pub const EINTR: c_int = 4;
/// `errno`: the futex wait's timeout elapsed.
pub const ETIMEDOUT: c_int = 110;

/// The value `mmap(2)` returns on failure.
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
pub struct Timespec {
    /// Whole seconds.
    pub tv_sec: i64,
    /// Nanoseconds within the second, `[0, 1e9)`.
    pub tv_nsec: i64,
}

extern "C" {
    /// `open(2)`.  Declared variadic in C; the mode is only read when
    /// [`O_CREAT`] is set, and on the SysV x86-64 and AAPCS64 calling
    /// conventions a third register argument is call-compatible with the
    /// variadic form.
    pub fn open(path: *const c_char, flags: c_int, mode: c_int) -> c_int;
    /// `close(2)`.
    pub fn close(fd: c_int) -> c_int;
    /// `ftruncate(2)` (`off_t` is 64-bit on the targeted platforms).
    pub fn ftruncate(fd: c_int, length: i64) -> c_int;
    /// `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    /// `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    /// `unlink(2)`.
    pub fn unlink(path: *const c_char) -> c_int;
    /// `clock_gettime(2)`.
    pub fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    /// `syscall(2)`: the raw system-call entry, used for `futex(2)`, which
    /// the C library does not wrap.
    pub fn syscall(number: c_long, ...) -> c_long;
}
