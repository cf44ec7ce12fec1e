//! Bounds the run's wall time when the program under test stops making
//! progress.
//!
//! A deployment whose threads block each other forever (for example a
//! producer waiting on an ack while its shard sleeps through the wakeup)
//! cannot be cancelled from outside. The watchdog turns that into a
//! bounded, explicit failure: when no [`beat`] arrives for [`HANG_S`]
//! seconds it reports the stall and ends the process with exit code 2.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seconds without progress after which the run is declared hung. The
/// longest single step (trace generation or one traced pass) takes a few
/// seconds on a 2-core host.
pub const HANG_S: u64 = 60;

/// Exit code of a hung run.
pub const HANG_EXIT: i32 = 2;

static BEATS: AtomicU64 = AtomicU64::new(0);

/// Marks progress: a step of the run started or finished.
pub fn beat() {
    BEATS.fetch_add(1, Ordering::Relaxed);
}

/// Runs `f` under the watchdog and returns its result. The watchdog
/// thread is joined before this returns.
pub fn guard<R>(f: impl FnOnce() -> R) -> R {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut seen = BEATS.load(Ordering::Relaxed);
            let mut since = Instant::now();
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(100));
                let now = BEATS.load(Ordering::Relaxed);
                if now != seen {
                    seen = now;
                    since = Instant::now();
                } else if since.elapsed() >= Duration::from_secs(HANG_S) {
                    eprintln!(
                        "perfbench: no progress for {HANG_S} s; a deploy or replay is blocked \
                         (see perfbench/README.md, \"Known defect\"). The run failed."
                    );
                    std::process::exit(HANG_EXIT);
                }
            }
        });
        let r = f();
        done.store(true, Ordering::Release);
        r
    })
}
