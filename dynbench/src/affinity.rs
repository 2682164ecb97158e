//! CPU affinity for single-threaded runs. On a shared host each core
//! slows down and recovers on its own schedule (other tenants' load on
//! its sibling), for tens of seconds at a time. A single-threaded run
//! left on one core measures that core's luck, so repetitions of such a
//! run rotate over the allowed CPUs instead.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Mask words: room for 1024 CPUs.
const WORDS: usize = 16;

/// CPUs the calling thread may run on (empty if the query fails).
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restricts the calling thread to `cpus`; false if the kernel refuses.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: the kernel reads `size` bytes from `mask`.
    unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
}
