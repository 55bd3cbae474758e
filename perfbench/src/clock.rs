//! The process's CPU clock (Linux).
//!
//! Passes and set-up are timed on it rather than on the wall clock. The
//! benchmark runs one thread, so on a core of its own the two agree; on a
//! shared virtual machine the CPU clock leaves out the time the hypervisor
//! gives the core to other guests (steal), which the wall clock counts and
//! which has nothing to do with the program. A read is a system call
//! (~0.4 us), so per-request latencies use it only where requests take
//! milliseconds (`churn`); the stream workloads time requests on
//! [`std::time::Instant`].

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process so far, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU seconds consumed since `since` (a [`cpu_ns`] reading).
pub fn cpu_s_since(since: u64) -> f64 {
    cpu_ns().saturating_sub(since) as f64 * 1e-9
}
