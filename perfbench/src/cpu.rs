//! Keep-awake threads and CPU pinning for `serve-mixed`.
//!
//! On a virtual machine an idle vCPU halts, and a thread woken on it (the
//! server's connection thread, a parked worker, the waiting client) runs
//! only once the host schedules that vCPU again. On a busy host that took
//! milliseconds and changed from minute to minute: with the server idle
//! between point queries, point p90 read 2.4–6.9 ms in three runs of the
//! same build. One spinner per CPU in the idle scheduling class
//! (`SCHED_IDLE`) keeps every vCPU running without taking time from any
//! other thread: the kernel runs an idle-class thread only when nothing
//! else on its CPU is runnable, and a waking thread preempts it at once.
//! A wake-up then costs a context switch inside the guest.
//!
//! The spinners still share the host's cores with the program: while they
//! spun beside a scan, the scan's time wandered by 15–25% within a run.
//! So they can be paused around work that runs long without waking up.
//!
//! The host also takes time from one vCPU more than the other, and which
//! one changes. A calibration sample on one vCPU then missed a slowdown of
//! the server on the other: with 10–14% of the time stolen, scans ran 20%
//! slower while the samples stayed within 5%. [`pin_current_thread`] and
//! [`pin_command`] place the server and the thread that drives it and
//! takes the samples on the same CPU.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    paused: AtomicBool,
    running: AtomicUsize,
}

/// Spinners in the idle scheduling class; stopped and joined on drop.
pub struct KeepAwake {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts `n` spinners, spinning. A thread that cannot enter the idle
    /// class ends at once rather than compete with the program at normal
    /// priority.
    pub fn start(n: usize) -> KeepAwake {
        let shared = Arc::new(Shared::default());
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let threads = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let ready = ready_tx.clone();
                std::thread::spawn(move || {
                    let idle = enter_idle_class();
                    if idle {
                        shared.running.fetch_add(1, Ordering::SeqCst);
                    }
                    let _ = ready.send(());
                    while idle && !shared.stop.load(Ordering::Acquire) {
                        if shared.paused.load(Ordering::Acquire) {
                            std::thread::park();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for _ in 0..n {
            let _ = ready_rx.recv();
        }
        KeepAwake { shared, threads }
    }

    /// Spinners that entered the idle class.
    pub fn running(&self) -> usize {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Parks the spinners until [`KeepAwake::resume`].
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Sets parked spinners spinning again.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
        self.wake_all();
    }

    fn wake_all(&self) {
        for t in &self.threads {
            t.thread().unpark();
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.wake_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bits in the kernel's CPU mask, as glibc's `cpu_set_t` has them.
const MASK_WORDS: usize = 1024 / 64;

/// The CPUs this process may run on, in ascending order; empty where the
/// mask cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    if !get_affinity(&mut mask) {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpu`; false where that failed.
pub fn pin_current_thread(cpu: usize) -> bool {
    set_affinity(cpu)
}

/// Makes the process `command` starts, and every thread it creates, run on
/// `cpu` only.
pub fn pin_command(command: &mut std::process::Command, cpu: usize) {
    use std::os::unix::process::CommandExt;
    // SAFETY: the hook runs in the child between fork and exec; it only
    // fills a mask on its stack and makes one system call, both safe there.
    unsafe {
        command.pre_exec(move || {
            set_affinity(cpu);
            Ok(())
        });
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_affinity(mask: &mut [u64; MASK_WORDS]) -> bool {
    // SAFETY: pid 0 names the calling thread; `mask` is writable for the
    // size passed.
    unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) == 0 }
}

#[cfg(target_os = "linux")]
fn set_affinity(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `mask` is readable for the
    // size passed.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_affinity(_mask: &mut [u64; MASK_WORDS]) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_run_in_the_idle_class_pause_and_stop_on_drop() {
        let awake = KeepAwake::start(2);
        if cfg!(target_os = "linux") {
            assert_eq!(awake.running(), 2);
        }
        awake.pause();
        awake.resume();
        awake.pause();
        drop(awake);
    }

    #[test]
    fn a_pinned_thread_runs_on_its_cpu_alone() {
        let cpus = allowed_cpus();
        if !cfg!(target_os = "linux") {
            assert!(cpus.is_empty());
            return;
        }
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        let seen = std::thread::spawn(move || {
            assert!(pin_current_thread(last));
            allowed_cpus()
        })
        .join()
        .unwrap();
        assert_eq!(seen, vec![last]);
    }
}
