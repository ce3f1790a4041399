//! Thread CPU time, the clock every host time of the benchmark is read on.
//!
//! On a shared host the wall clock also counts the time the hypervisor or
//! other tenants take the processor away (steal), which swings the same
//! computation's wall time by tens of percent from one second to the next.
//! The thread's CPU time counts only the time it ran; the benchmark is
//! single-threaded, so that is the cost of the work measured.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has consumed, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout for the
    // whole call, and `clock_gettime` writes nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "the thread CPU-time clock is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU seconds the calling thread has consumed since `start_ns`.
pub fn secs_since(start_ns: u64) -> f64 {
    (thread_cpu_ns() - start_ns) as f64 * 1e-9
}
