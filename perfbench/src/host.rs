//! Host facts and process memory.
//!
//! Peak resident memory comes from `VmHWM` in `/proc/self/status`; writing
//! `5` to `/proc/self/clear_refs` resets the high-water mark to the current
//! resident size, so one process can measure the peak of each deploy +
//! replay on its own.

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A field of `/proc/self/status` in kilobytes (`VmRSS`, `VmHWM`).
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Resident memory now, in megabytes.
pub fn rss_mb() -> Option<f64> {
    status_kb("VmRSS").map(|kb| kb as f64 / 1024.0)
}

/// Resident high-water mark since the last [`reset_peak`], in megabytes.
pub fn peak_mb() -> Option<f64> {
    status_kb("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Resets the resident high-water mark; false where the kernel does not
/// support it (the peak then spans the whole process lifetime).
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

// The one exception to the repository's `unsafe_code = "deny"` rule (the
// crate denies it too): a foreign call has no safe form. Without the trim,
// pages a replay frees stay resident in the allocator, the next replay
// reuses them without raising `VmHWM`, and its peak reads too low.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
mod trim {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }

    /// Returns the allocator's free pages to the kernel.
    pub fn release_free_memory() {
        // SAFETY: glibc's `malloc_trim` takes a plain integer, touches only
        // the allocator's own free lists under its locks, and is safe to
        // call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod trim {
    /// No-op where the allocator offers no trim call.
    pub fn release_free_memory() {}
}

/// Returns the allocator's free pages to the kernel, so that memory freed
/// by an earlier replay does not hide the next replay's peak.
pub use trim::release_free_memory;
