//! Quantiles and process resource readings.

use std::time::Duration;

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice. Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Clock ticks per second of the `/proc` CPU counters (`CLK_TCK`, which
/// is 100 on every Linux target Rust supports).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in
/// microseconds (from `/proc/self/stat`, so threads that already exited
/// still count).
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 * 1e6 / CLOCK_TICKS_PER_SEC
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: the share
/// of time the hypervisor ran other guests on this machine's CPUs tells a
/// run disturbed by its neighbours from a slow one.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("/proc/stat has a cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!((quantile(&mut v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_us() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
