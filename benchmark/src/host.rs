//! What the run ran on: the host stamp every output record carries, and the
//! process CPU clock.

use std::process::Command;

use serde::Serialize;

use crate::config::{Scale, CLIENTS, ENGINE_WORKERS, QUEUE_CAPACITY, REQUEST_READS, SHARDS};

/// Host, toolchain and load constants of one run. Two records are only
/// comparable when their stamps agree.
#[derive(Debug, Clone, Serialize)]
pub struct HostStamp {
    /// Logical cores available to the process.
    pub logical_cores: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// L2 cache size as the kernel reports it.
    pub l2_cache: String,
    /// L3 cache size as the kernel reports it.
    pub l3_cache: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// The `--seed` of the run.
    pub seed: u64,
    /// The `--seconds` of the run.
    pub seconds: f64,
    /// Client threads, one connection each.
    pub client_threads: usize,
    /// Engine worker threads.
    pub engine_workers: usize,
    /// Threads `classify_batch` fans out to (rayon's default: all cores).
    pub rayon_threads: usize,
    /// Reads per network request.
    pub request_reads: usize,
    /// Engine queue capacity in batches.
    pub queue_capacity: usize,
    /// Shards of the sharded workload.
    pub shards: usize,
    /// Timed windows of the workload's untraced run.
    pub windows: usize,
    /// Length of one such window in seconds.
    pub window_s: f64,
    /// Times the set-up was repeated.
    pub setup_repeats: usize,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cache_size(level: u32) -> String {
    (0..8)
        .find_map(|index| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            (read_trimmed(&format!("{dir}/level"))? == level.to_string())
                .then(|| read_trimmed(&format!("{dir}/size")))?
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical cores available to the process.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl HostStamp {
    /// Stamp the current host and run.
    pub fn collect(scale: &Scale, seed: u64, seconds: f64, windows: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            logical_cores: logical_cores(),
            cpu_model,
            l2_cache: cache_size(2),
            l3_cache: cache_size(3),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_sha: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            seed,
            seconds,
            client_threads: CLIENTS,
            engine_workers: ENGINE_WORKERS,
            rayon_threads: logical_cores(),
            request_reads: REQUEST_READS,
            queue_capacity: QUEUE_CAPACITY,
            shards: SHARDS,
            windows,
            window_s: seconds / windows as f64,
            setup_repeats: scale.setup_repeats,
        }
    }
}

/// Kernel clock ticks per second of `/proc/*/stat` times. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) the process has used so far, over all its
/// threads including ended ones, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields are counted after its `)`.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_s() > before);
    }
}
