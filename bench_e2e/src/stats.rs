//! Order statistics over measured samples.

/// Linearly interpolated percentile (`p` in `[0, 100]`) of a non-empty
/// sample; the same definition as NumPy's default.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// CPU time consumed so far by every thread of this process, in seconds
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`): the clock every timed
/// end-to-end figure uses. On the shared VM this benchmark was built on, the
/// hypervisor at times took up to 45% of a call's wall time for other
/// tenants (steal), and wall-clock figures of identical code spread by up to
/// 0.31 of their median over ten runs. With paravirtual steal accounting
/// this clock leaves steal out; threads blocked on a channel or a join
/// (idle workers) do not advance it either, so parallel idle time shows in
/// the wall-clock rate that the notes carry, not in the figure.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux), and clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
