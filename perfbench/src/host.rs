//! Host context read from `/proc`: core count, steal share, peak RSS,
//! and the process CPU clock the operation metrics are measured on.
//!
//! The benchmark runs on shared virtual machines whose neighbours steal
//! CPU time; the steal share over the timed phase travels with every run
//! so a noisy set of runs can be explained rather than guessed at.

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    total: u64,
    steal: u64,
}

/// Reads the aggregate `cpu` line; zeros where `/proc/stat` is absent.
pub fn cpu_sample() -> CpuSample {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return CpuSample::default();
    };
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuSample::default();
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already folded into user, so sum the first eight.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuSample {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Percentage of CPU time stolen by the hypervisor between two samples.
pub fn steal_pct(before: CpuSample, after: CpuSample) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS")
}

/// A `kB` line of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// Restarts the peak-RSS mark (`VmHWM`) at the current resident size, after
/// handing the memory the allocator holds free back to the system, so a
/// later `peak_rss_mb` covers only what runs from here on.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and is safe to
        // call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS mark: {e}"))
}

/// CPU time used so far by all threads of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). The kernel's task clock leaves out time
/// the hypervisor stole from the vCPU, so this moves with the work the
/// program does and not with its neighbours' load.
pub fn process_cpu_secs() -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".into());
    }
    Ok(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}
