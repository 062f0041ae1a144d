//! Machine-speed calibration.
//!
//! On a shared virtual machine the CPU time a fixed piece of work takes
//! moves from minute to minute with what the neighbours do to the shared
//! cores, caches and memory: on the reference machine the same job took
//! 500 µs in one run and 1070 µs a minute later. Every time the benchmark
//! reports is therefore scaled to a reference speed: it runs a fixed job
//! in the engine's style (string formatting, hashing, ordered-map churn,
//! byte checksums) next to the measured work, and multiplies the measured
//! time by `REF_JOB_US / job time`. A calibration thread samples the
//! machine at a low duty cycle alongside concurrent phases; short
//! sequential steps (set-ups, reopens) run a few jobs on the calling
//! thread before each step instead.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::util::{median, thread_cpu};

/// CPU time of one job at the reference speed, in µs: about its median on
/// the reference machine (see README.md).
pub const REF_JOB_US: f64 = 1000.0;
/// Pause between two calibration jobs of the calibration thread.
const PAUSE: Duration = Duration::from_millis(25);
/// Jobs run on the calling thread before each sequential step.
const STEP_JOBS: usize = 5;

/// One fixed job; its result only keeps the optimiser honest.
fn job() -> u64 {
    let mut by_key: HashMap<String, u64> = HashMap::with_capacity(512);
    let mut ordered: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
    let mut sum = 0u64;
    for i in 0..2000i64 {
        let key = format!("acct{}", (i * 7919) % 509);
        *by_key.entry(key).or_insert(0) += i as u64;
        let k = (i * 104_729) % 1021;
        match ordered.remove(&k) {
            Some(v) => sum += v.len() as u64,
            None => {
                ordered.insert(k, vec![(i % 251) as u8; 24 + (i % 64) as usize]);
            }
        }
    }
    let bytes: Vec<u8> = ordered.values().flatten().copied().collect();
    let mut crc = 0u32;
    for &b in &bytes {
        crc = crc.rotate_left(5) ^ b as u32;
    }
    sum + crc as u64 + by_key.values().sum::<u64>()
}

/// CPU µs of one job on the calling thread.
fn job_us() -> f64 {
    let t0 = thread_cpu();
    black_box(job());
    (thread_cpu() - t0).as_secs_f64() * 1e6
}

/// The factor that scales a time measured at the machine's current speed
/// to the reference speed, from a few jobs run on the calling thread.
pub fn step_scale() -> f64 {
    let us: Vec<f64> = (0..STEP_JOBS).map(|_| job_us()).collect();
    REF_JOB_US / median(&us)
}

/// A running calibration thread.
pub struct Calib {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<f64>, Duration)>,
}

impl Calib {
    pub fn start() -> Calib {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut us = Vec::new();
            // Sleep first, so that the first job runs inside the measured
            // interval that follows the start.
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PAUSE);
                us.push(job_us());
            }
            (us, thread_cpu())
        });
        Calib { stop, handle }
    }

    /// Stop the thread; returns the scale factor to the reference speed
    /// (from the median job; 1 if no job ran) and the CPU time the thread
    /// used, which is the benchmark's own and not the program's.
    pub fn stop(self) -> (f64, Duration) {
        self.stop.store(true, Ordering::Relaxed);
        let (us, spent) = self.handle.join().expect("calibration thread");
        let scale = if us.is_empty() {
            1.0
        } else {
            REF_JOB_US / median(&us)
        };
        (scale, spent)
    }
}
