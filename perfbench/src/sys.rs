//! Process and machine readings from `/proc`: CPU time, steal time,
//! peak memory, and the box fingerprint recorded with every run.

use std::process::Command;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second of the `/proc` CPU counters.
pub fn clock_ticks() -> f64 {
    // SAFETY: sysconf only reads a configuration value; any name is a
    // valid argument, and an unknown one returns -1.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User plus system CPU time of this process, seconds.
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesized command name: state is field 3,
    // utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks as f64 / clock_ticks()
}

/// Hypervisor steal time summed over all CPUs, seconds.
pub fn steal_s() -> f64 {
    let stat = read("/proc/stat");
    let cpu = stat.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
    let steal: u64 = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|x| x.parse().ok())
        .unwrap_or(0);
    steal as f64 / clock_ticks()
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = read("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run's numbers depend on besides the code: runs on different
/// boxes, or steal-heavy runs, are flagged rather than compared.
pub fn fingerprint() -> String {
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\"", nproc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(steal_s() >= 0.0);
        assert!(fingerprint().starts_with("nproc="));
    }
}
