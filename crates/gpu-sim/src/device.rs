//! Simulated devices and their memory capacity accounting.
//!
//! A V100 has 32 GB of HBM2; RefSeq-scale databases do not fit on one card,
//! which is what motivates the multi-GPU partitioning of §4.3 ("the larger
//! AFS31+RefSeq202 database did not fit in the memory of 4 V100 GPUs and
//! therefore always uses 8 GPUs"). The [`Device`] type tracks allocations
//! against a configurable capacity so the same capacity pressure, and the
//! same partitioning decisions, arise in the reproduction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::{CostModel, DeviceClock};

/// Errors raised by device memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The requested allocation exceeds the remaining device memory.
    OutOfMemory {
        /// Bytes requested by the allocation.
        requested: u64,
        /// Bytes still available on the device.
        available: u64,
    },
    /// An allocation was released twice or with a wrong size.
    InvalidFree,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            DeviceError::InvalidFree => write!(f, "invalid device memory release"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Static description of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceInfo {
    /// Device ordinal within the node.
    pub id: usize,
    /// Total device memory in bytes.
    pub memory_capacity: u64,
    /// The performance model of this device.
    pub cost_model: CostModel,
}

impl DeviceInfo {
    /// A V100-like device: 32 GB HBM2.
    pub fn v100(id: usize) -> Self {
        Self {
            id,
            memory_capacity: 32 * (1 << 30),
            cost_model: CostModel::v100(),
        }
    }

    /// A device with an explicit memory capacity (used by tests and by the
    /// scaled-down experiments).
    pub fn with_capacity(id: usize, memory_capacity: u64) -> Self {
        Self {
            id,
            memory_capacity,
            cost_model: CostModel::v100(),
        }
    }
}

/// A simulated device: memory accounting + its own simulated clock.
#[derive(Debug)]
pub struct Device {
    info: DeviceInfo,
    allocated: AtomicU64,
    clock: DeviceClock,
}

impl Device {
    /// Create a device from its description.
    pub fn new(info: DeviceInfo) -> Arc<Self> {
        Arc::new(Self {
            info,
            allocated: AtomicU64::new(0),
            clock: DeviceClock::new(),
        })
    }

    /// The device's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.info.cost_model
    }

    /// The device's simulated clock.
    pub fn clock(&self) -> &DeviceClock {
        &self.clock
    }

    /// Currently allocated bytes.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Reserve `bytes` of device memory.
    pub fn allocate(&self, bytes: u64) -> Result<(), DeviceError> {
        let mut current = self.allocated.load(Ordering::Relaxed);
        loop {
            let new = current + bytes;
            if new > self.info.memory_capacity {
                return Err(DeviceError::OutOfMemory {
                    requested: bytes,
                    available: self.info.memory_capacity.saturating_sub(current),
                });
            }
            match self.allocated.compare_exchange_weak(
                current,
                new,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Release `bytes` of device memory.
    pub fn free(&self, bytes: u64) -> Result<(), DeviceError> {
        let mut current = self.allocated.load(Ordering::Relaxed);
        loop {
            if bytes > current {
                return Err(DeviceError::InvalidFree);
            }
            match self.allocated.compare_exchange_weak(
                current,
                current - bytes,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_has_32_gb() {
        let dev = Device::new(DeviceInfo::v100(0));
        assert_eq!(dev.allocated(), 0);
        dev.allocate(32 * (1 << 30)).unwrap();
        assert!(dev.allocate(1).is_err());
    }

    #[test]
    fn allocate_and_free_track_usage() {
        let dev = Device::new(DeviceInfo::with_capacity(1, 1000));
        dev.allocate(400).unwrap();
        dev.allocate(300).unwrap();
        assert_eq!(dev.allocated(), 700);
        dev.free(400).unwrap();
        assert_eq!(dev.allocated(), 300);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let dev = Device::new(DeviceInfo::with_capacity(0, 100));
        dev.allocate(80).unwrap();
        let err = dev.allocate(50).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                requested: 50,
                available: 20
            }
        );
        // The failed allocation must not change the accounting.
        assert_eq!(dev.allocated(), 80);
    }

    #[test]
    fn invalid_free_detected() {
        let dev = Device::new(DeviceInfo::with_capacity(0, 100));
        dev.allocate(10).unwrap();
        assert_eq!(dev.free(20), Err(DeviceError::InvalidFree));
    }

    #[test]
    fn concurrent_allocations_never_exceed_capacity() {
        let dev = Device::new(DeviceInfo::with_capacity(0, 10_000));
        let successes: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let dev = &dev;
                    s.spawn(move || (0..100).filter(|_| dev.allocate(100).is_ok()).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(successes, 100, "exactly capacity/alloc_size must succeed");
        assert_eq!(dev.allocated(), 10_000);
    }

    #[test]
    fn device_clock_is_per_device() {
        let d0 = Device::new(DeviceInfo::v100(0));
        let d1 = Device::new(DeviceInfo::v100(1));
        d0.clock().advance(d0.cost_model().transfer_time(1 << 30));
        assert!(d0.clock().now() > d1.clock().now());
    }
}
