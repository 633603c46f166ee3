//! Machine-speed calibration of the workloads.
//!
//! On a virtual machine that shares its host with other tenants, the speed
//! of the same code drifts by a third or more within minutes: set-up, the
//! serial point engine and the parallel engines all speed up or slow down
//! together. A calibration sample runs a fixed task that shares no code with
//! the program (each participant of a pool follows its own random cycle
//! through an 8 MiB array, then runs a chain of dependent multiplies), so a
//! change to the program cannot move it. The engine workloads take one
//! sample on the engine pool after every fourth round; `serve-mixed` takes
//! one on its driving thread alone, on the server's CPU, after every round,
//! once the server is idle. Every workload reports its timed end-to-end
//! metrics scaled to the box's reference speed: measured time ×
//! [`REFERENCE_MS`] ÷ the run's calibration median. The measured times are
//! printed beside them as `raw.<name>`.

use std::time::Instant;

use priograph_parallel::Pool;

use crate::rng::Rng64;
use crate::stats::Metrics;

/// Entries per cycle: 2^21 × 4 B = 8 MiB, larger than the per-core L2 like
/// the benchmark's graphs.
const CYCLE_LEN: usize = 1 << 21;
/// Cycle steps per participant and sample.
const STEPS: usize = 1 << 14;
/// Dependent multiplies per participant and sample.
const MULTIPLIES: usize = 1 << 19;
/// The calibration median, ms, that the scaled metrics are expressed at: a
/// typical reading on the box the README's figures come from.
pub const REFERENCE_MS: f64 = 4.0;
/// The end-to-end times reported at the reference speed.
pub const SCALED: [&str; 8] = [
    "setup_s",
    "sssp_fused_ms",
    "sssp_lazy_ms",
    "wbfs_ms",
    "kcore_ms",
    "point_p50_ms",
    "point_p99_ms",
    "scan_p90_ms",
];

/// One random cycle per pool participant.
pub struct Calibration {
    cycles: Vec<Vec<u32>>,
}

impl Calibration {
    /// Builds `threads` random cycles, each from its own fixed seed:
    /// Sattolo's shuffle of the identity is a permutation with one cycle.
    pub fn new(threads: usize) -> Calibration {
        let cycles = (0..threads.max(1))
            .map(|t| {
                let mut rng = Rng64::new(0xCA1B ^ t as u64);
                let mut next: Vec<u32> = (0..CYCLE_LEN as u32).collect();
                for i in (1..CYCLE_LEN).rev() {
                    next.swap(i, rng.below(i as u64) as usize);
                }
                next
            })
            .collect();
        Calibration { cycles }
    }

    /// Resident bytes of the cycles, MB, which the benchmark process's
    /// peak memory excludes.
    pub fn mb(&self) -> f64 {
        (self.cycles.len() * CYCLE_LEN * 4) as f64 / (1024.0 * 1024.0)
    }

    /// One sample on the calling thread alone, ms.
    pub fn sample(&self) -> f64 {
        let start = Instant::now();
        task(&self.cycles[0]);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// One sample on `pool`'s participants, ms: each runs the task on its
    /// own cycle at once.
    pub fn sample_on(&self, pool: &Pool) -> f64 {
        let start = Instant::now();
        pool.broadcast(|w| task(&self.cycles[w.tid() % self.cycles.len()]));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Records `machine.calib_ms` and replaces every [`SCALED`] metric with its
/// value at the reference speed, keeping the measured one as `raw.<name>`.
///
/// # Errors
///
/// When there is no calibration sample.
pub fn scale(metrics: &mut Metrics, samples: &[f64]) -> Result<(), String> {
    let calib_ms = crate::stats::median(samples);
    if calib_ms <= 0.0 {
        return Err("no calibration sample".to_string());
    }
    metrics.set("machine.calib_ms", calib_ms, "ms");
    for name in SCALED {
        let unit = if name == "setup_s" { "s" } else { "ms" };
        if let Some(measured) = metrics.get(name) {
            metrics.set(&format!("raw.{name}"), measured, unit);
            metrics.set(name, measured * REFERENCE_MS / calib_ms, unit);
        }
    }
    Ok(())
}

fn task(cycle: &[u32]) {
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = cycle[at as usize];
    }
    let mut acc = u64::from(at) | 1;
    for _ in 0..MULTIPLIES {
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (acc >> 29);
    }
    std::hint::black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_cycle_visits_every_entry() {
        let c = Calibration::new(2);
        for cycle in &c.cycles {
            let mut at = 0u32;
            let mut steps = 0usize;
            loop {
                at = cycle[at as usize];
                steps += 1;
                if at == 0 {
                    break;
                }
            }
            assert_eq!(steps, CYCLE_LEN);
        }
        assert!(c.sample_on(&Pool::new(2)) > 0.0);
    }

    #[test]
    fn scaling_keeps_the_measured_value() {
        let mut m = Metrics::default();
        m.set("sssp_fused_ms", 6.0, "ms");
        m.set("peak_rss_mb", 30.0, "MB");
        scale(&mut m, &[REFERENCE_MS * 2.0]).unwrap();
        assert_eq!(m.get("sssp_fused_ms"), Some(3.0));
        assert_eq!(m.get("raw.sssp_fused_ms"), Some(6.0));
        assert_eq!(m.get("peak_rss_mb"), Some(30.0));
        assert!(scale(&mut m, &[]).is_err());
    }
}
