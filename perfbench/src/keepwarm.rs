//! Keeps every CPU of the host busy, at the lowest scheduling class, while
//! a score workload measures.
//!
//! On a virtual machine, waking a halted vCPU costs tens of microseconds,
//! and whether the vCPUs halt between requests depends on what else the
//! host runs. Beside one CPU-bound process the same tier measured a p50
//! about 17% lower, a p90 up to 37% lower and 35-55% less CPU per request
//! than on a quiet host, so the figures followed the neighbours rather
//! than the program. One
//! spinner per CPU under `SCHED_IDLE` fixes that state: any other thread
//! that wakes preempts a spinner at once, and the tier always finds its
//! CPU running. The spinners' CPU time is kept apart
//! ([`spun`]), so per-request CPU figures leave it out.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// CPU time the spinners have used so far, ns.
static SPUN_NS: AtomicU64 = AtomicU64::new(0);

/// CPU time the spinners have used so far.
pub fn spun() -> Duration {
    Duration::from_nanos(SPUN_NS.load(Ordering::Relaxed))
}

/// Running spinners; dropping it stops and joins them.
pub struct KeepWarm {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepWarm {
    /// Starts one spinner per CPU the process may use.
    pub fn start() -> KeepWarm {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..cpus)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("keepwarm-{i}"))
                    .spawn(move || spin(&stop))
                    .expect("spawn a spinner thread")
            })
            .collect();
        KeepWarm { stop, spinners }
    }
}

impl Drop for KeepWarm {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

fn spin(stop: &AtomicBool) {
    if !idle_policy() {
        // A spinner at normal priority would take CPU from the tier.
        eprintln!("warning: SCHED_IDLE refused; this run measures without spinners");
        return;
    }
    let mut last = crate::stats::thread_cpu_ns();
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..256 {
            std::hint::spin_loop();
        }
        let now = crate::stats::thread_cpu_ns();
        SPUN_NS.fetch_add(now - last, Ordering::Relaxed);
        last = now;
    }
}

/// Moves the calling thread to `SCHED_IDLE`; whether it worked.
fn idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread; `param` outlives the call,
    // which only reads it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}
