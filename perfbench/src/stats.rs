//! Order statistics and process probes.

/// The `p`-th percentile (`0..=100`) of `values` by linear
/// interpolation between closest ranks; `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when the layer did no work (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_self() -> u64;
    fn pthread_getcpuclockid(thread: u64, clock: *mut i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the CPU it is running on; returns that CPU, or `None` when the kernel
/// refuses.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` has no preconditions.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1,024-bit `cpu_set_t` of the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live local of that
    // layout, and reads nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds. Exact only while no other thread of the process is running:
/// the kernel folds a running thread's time in at the next tick.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPU-time clock of one thread, exact to the nanosecond when read
/// from any thread of the process. It does not advance while the thread
/// waits or sleeps, nor, on a virtual machine whose kernel accounts
/// steal time, while the host runs something else on its virtual CPU.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// The calling thread's clock.
    pub fn current() -> ThreadClock {
        let mut id = 0;
        // SAFETY: `pthread_self` has no preconditions; `pthread_getcpuclockid`
        // writes one `clockid_t` (an `int`) through a pointer to a live
        // local and reads the handle of the calling, hence live, thread.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut id) };
        assert_eq!(rc, 0, "every thread has a CPU-time clock on Linux");
        ThreadClock(id)
    }

    /// Seconds of CPU time the thread has used; the thread must not
    /// have exited.
    pub fn seconds(self) -> f64 {
        clock_s(self.0)
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    somrm_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0, 1.0, 5.0]), 5.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 96.0);
        assert!((percentile(&[10.0, 20.0], 95.0) - 19.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
    }

    #[test]
    fn a_thread_clock_counts_work_not_sleep() {
        let clock = ThreadClock::current();
        let c0 = clock.seconds();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = clock.seconds() - c0;
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spun = clock.seconds() - c0 - slept;
        assert!(slept < 0.005, "sleep cost {slept} s of CPU");
        assert!(spun > 0.005, "30 ms of spinning read as {spun} s of CPU");
        // Read from another thread, the clock sees the same thread.
        let other = std::thread::scope(|s| s.spawn(|| clock.seconds()).join().unwrap());
        assert!(other >= c0 + slept + spun && other <= clock.seconds());
    }
}
