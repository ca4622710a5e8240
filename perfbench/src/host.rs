//! Host-side facts of a run: CPU placement and peak memory.

/// Bind this process to one CPU, the last one it may run on, before any
/// simulated process exists (threads inherit the mask). Only one simulated
/// process runs at a time, so this costs no parallelism; it turns every
/// hand-off between the engine and a process thread into a same-CPU
/// switch, which removes most of the run-to-run wall-time noise of
/// cross-CPU wake-ups. Returns the CPU, or `None` when the mask could not
/// be read or set (the run then proceeds unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: usize = list
        .trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|c| c.trim().parse().ok())?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a live, initialised 128-byte buffer (the size of
    // glibc's cpu_set_t) and `size` is exactly its length in bytes; pid 0
    // names the calling thread. The call only reads the buffer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
