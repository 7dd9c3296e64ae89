//! Host-side measurement: CPU time, resident memory, and the order
//! statistics the report uses (median, quartiles, tail percentile).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, all threads) consumed by this process.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s
    // on the 64-bit Linux targets this benchmark runs on) and the clock
    // id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {field} line: {line}"))
}

/// Reset the peak-RSS high-water mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Peak resident set size since the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size, MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Wall and CPU time of one measured phase plus its memory peak.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Run `f` as a measured phase: the RSS high-water mark is reset first,
/// wall and process CPU time bracket the call.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Phase) {
    reset_peak_rss();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let phase = Phase {
        wall_s,
        cpu_s,
        peak_rss_mb: peak_rss_mb(),
    };
    (out, phase)
}

/// Linear-interpolation quantile (type 7) of `xs`; `xs` must be
/// non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest "nines" percentile (p50, p90, p99, p99.9, …) that still
/// has at least ten samples beyond it, with its value and the sample
/// count. `None` when fewer than 20 samples exist (not even the median
/// has ten samples above it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0 for p99.
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    // p50 leaves n/2 samples beyond it; p(1 - 10^-k) leaves n / 10^k,
    // which is at least ten while n >= 10^(k+1).
    let mut q = 0.5;
    let mut need = 100usize;
    let mut beyond = 0.1;
    while n >= need {
        q = 1.0 - beyond;
        need = need.saturating_mul(10);
        beyond /= 10.0;
    }
    Some(Tail {
        pct: q * 100.0,
        value: quantile(xs, q),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples have a tail");
        // p99 leaves 10 samples above it; p99.9 would leave only 1.
        assert!((t.pct - 99.0).abs() < 1e-9, "pct {}", t.pct);
        assert_eq!(t.n, 1000);
        assert!((t.value - quantile(&xs, 0.99)).abs() < 1e-9);

        let t = tail(&xs[..99]).expect("99 samples have a median tail");
        assert!((t.pct - 50.0).abs() < 1e-9, "pct {}", t.pct);
        assert_eq!(t.n, 99);
        let t = tail(&xs[..100]).expect("100 samples reach p90");
        assert!((t.pct - 90.0).abs() < 1e-9, "pct {}", t.pct);

        assert_eq!(tail(&xs[..19]), None);
        let t = tail(&xs[..20]).expect("20 samples reach p50");
        assert!((t.pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > c0);
    }
}
