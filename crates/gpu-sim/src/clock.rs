//! The analytical device clock and cost model.
//!
//! The reproduction runs on a CPU, so wall-clock time cannot reproduce the
//! performance *tables* of the paper. Instead, every simulated kernel and
//! transfer reports the data volume it actually processed and the
//! [`CostModel`] converts those volumes into simulated time using
//! bandwidth/throughput constants of the paper's hardware (V100 GPUs, their
//! NVLink and PCIe links). The accumulated [`DeviceClock`] values drive
//! Tables 3–5 and Figures 4–5 of the reproduction; `repro` reports both
//! simulated device times and measured host times.
//!
//! The model is deliberately simple — time = max(bytes / bandwidth,
//! ops / throughput) + launch overhead — because the paper's headline results
//! (orders-of-magnitude build speedup, query insensitivity to database size)
//! stem from data-volume and parallelism arguments, not from microarchitec-
//! tural detail.

use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated duration in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// From nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// From seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self {
            nanos: (secs.max(0.0) * 1e9) as u64,
        }
    }

    /// As nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// As (fractional) seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// As (fractional) milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_add(other.nanos),
        }
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, SimDuration::saturating_add)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.as_secs_f64();
        if s >= 60.0 {
            write!(f, "{:.0} min {:.0} s", (s / 60.0).floor(), s % 60.0)
        } else if s >= 1.0 {
            write!(f, "{s:.1} s")
        } else {
            write!(f, "{:.1} ms", self.as_millis_f64())
        }
    }
}

/// Resource usage of one kernel launch or transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// Bytes read from device/host memory.
    pub bytes_read: u64,
    /// Bytes written to device/host memory.
    pub bytes_written: u64,
    /// Number of elementary operations (hashes, comparisons, probes, …).
    pub ops: u64,
    /// Number of kernel launches included (adds fixed launch latency).
    pub launches: u64,
}

impl KernelCost {
    /// A pure memory-traffic cost.
    pub fn memory(bytes_read: u64, bytes_written: u64) -> Self {
        Self {
            bytes_read,
            bytes_written,
            ops: 0,
            launches: 1,
        }
    }

    /// A compute-plus-memory cost.
    pub fn compute(ops: u64, bytes_read: u64, bytes_written: u64) -> Self {
        Self {
            bytes_read,
            bytes_written,
            ops,
            launches: 1,
        }
    }

    /// Combine two costs of kernels that run sequentially.
    pub fn merge(self, other: KernelCost) -> KernelCost {
        KernelCost {
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            ops: self.ops + other.ops,
            launches: self.launches + other.launches,
        }
    }
}

/// Bandwidth/throughput constants of an execution platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Usable memory bandwidth in bytes/second.
    pub memory_bandwidth: f64,
    /// Sustainable elementary-operation throughput in ops/second (aggregate
    /// over the whole processor).
    pub op_throughput: f64,
    /// Host↔device (or node interconnect) bandwidth in bytes/second.
    pub transfer_bandwidth: f64,
    /// Device↔device (NVLink) bandwidth in bytes/second.
    pub peer_bandwidth: f64,
    /// Fixed overhead per kernel launch in seconds.
    pub launch_overhead: f64,
}

impl CostModel {
    /// V100-like constants (HBM2 ~900 GB/s, 80 SMs, NVLink ~150 GB/s,
    /// PCIe 3.0 x16 ~12 GB/s effective).
    pub fn v100() -> Self {
        Self {
            memory_bandwidth: 800e9,
            op_throughput: 2.0e12,
            transfer_bandwidth: 12e9,
            peer_bandwidth: 150e9,
            launch_overhead: 5e-6,
        }
    }

    /// Time taken to execute a kernel with the given cost.
    pub fn kernel_time(&self, cost: KernelCost) -> SimDuration {
        let memory_time = (cost.bytes_read + cost.bytes_written) as f64 / self.memory_bandwidth;
        let compute_time = cost.ops as f64 / self.op_throughput;
        let overhead = cost.launches as f64 * self.launch_overhead;
        SimDuration::from_secs_f64(memory_time.max(compute_time) + overhead)
    }

    /// Time to copy `bytes` between host and device.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.transfer_bandwidth + self.launch_overhead)
    }

    /// Time to copy `bytes` between two devices (peer to peer).
    pub fn peer_transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.peer_bandwidth + self.launch_overhead)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::v100()
    }
}

/// A monotonically accumulating simulated clock (one per device / per
/// pipeline stage). Thread safe: batches classified on several serving
/// workers add their cost concurrently.
#[derive(Debug, Default)]
pub struct DeviceClock {
    nanos: AtomicU64,
}

impl DeviceClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by a duration and return the new total.
    pub fn advance(&self, by: SimDuration) -> SimDuration {
        let new = self
            .nanos
            .fetch_add(by.as_nanos(), Ordering::Relaxed)
            .saturating_add(by.as_nanos());
        SimDuration::from_nanos(new)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimDuration {
        SimDuration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Reset to zero (used between experiment runs).
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((d.as_millis_f64() - 1500.0).abs() < 1e-6);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_display_scales() {
        assert_eq!(format!("{}", SimDuration::from_secs_f64(0.0123)), "12.3 ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(4.26)), "4.3 s");
        assert_eq!(
            format!("{}", SimDuration::from_secs_f64(72.0 * 60.0)),
            "72 min 0 s"
        );
    }

    #[test]
    fn kernel_time_is_max_of_memory_and_compute() {
        let model = CostModel {
            memory_bandwidth: 100.0,
            op_throughput: 10.0,
            transfer_bandwidth: 1.0,
            peer_bandwidth: 1.0,
            launch_overhead: 0.0,
        };
        // 200 bytes at 100 B/s = 2 s; 10 ops at 10 ops/s = 1 s -> memory bound.
        let t = model.kernel_time(KernelCost::compute(10, 100, 100));
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        // 100 ops -> compute bound (10 s).
        let t = model.kernel_time(KernelCost::compute(100, 100, 100));
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn launch_overhead_added_per_launch() {
        let model = CostModel {
            launch_overhead: 1.0,
            ..CostModel::v100()
        };
        let cost = KernelCost {
            launches: 3,
            ..Default::default()
        };
        assert!((model.kernel_time(cost).as_secs_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let clock = DeviceClock::new();
        let model = CostModel::v100();
        clock.advance(model.transfer_time(12_000_000_000)); // ~1 s at 12 GB/s
        clock.advance(model.kernel_time(KernelCost::memory(800_000_000_000, 0))); // ~1 s
        let t = clock.now().as_secs_f64();
        assert!(t > 1.9 && t < 2.2, "unexpected simulated time {t}");
        clock.reset();
        assert_eq!(clock.now(), SimDuration::ZERO);
    }

    #[test]
    fn clock_is_thread_safe() {
        let clock = std::sync::Arc::new(DeviceClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let clock = std::sync::Arc::clone(&clock);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        clock.advance(SimDuration::from_nanos(10));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now().as_nanos(), 8 * 1000 * 10);
    }

    #[test]
    fn cost_merge_adds_components() {
        let a = KernelCost::compute(10, 20, 30);
        let b = KernelCost::memory(5, 5);
        let m = a.merge(b);
        assert_eq!(m.ops, 10);
        assert_eq!(m.bytes_read, 25);
        assert_eq!(m.bytes_written, 35);
        assert_eq!(m.launches, 2);
    }
}
