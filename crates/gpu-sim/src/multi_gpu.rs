//! Multi-device systems and peer communication.
//!
//! The paper distributes the k-mer index over up to 8 V100s connected by
//! NVLink (a DGX-1), queries every partition, and merges the per-device top
//! hits along a device ring (Figure 2; §4.2 "each GPU generates its own top
//! hits … which are then sent to the next GPU and merged with its local top
//! hits"). [`MultiGpuSystem`] models the node: a set of [`Device`]s, one
//! stream per device, and peer copies whose time is charged to both
//! participating devices' clocks.

use std::sync::Arc;

use crate::clock::SimDuration;
use crate::device::{Device, DeviceInfo};
use crate::stream::Stream;

/// A node with several simulated devices.
#[derive(Debug)]
pub struct MultiGpuSystem {
    devices: Vec<Arc<Device>>,
}

impl MultiGpuSystem {
    /// Create a system of `count` V100-like devices.
    pub fn dgx1(count: usize) -> Self {
        Self::new((0..count).map(DeviceInfo::v100).collect())
    }

    /// Create a system from explicit device descriptions.
    pub fn new(infos: Vec<DeviceInfo>) -> Self {
        Self {
            devices: infos.into_iter().map(Device::new).collect(),
        }
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The devices.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// One device by ordinal.
    pub fn device(&self, id: usize) -> &Arc<Device> {
        &self.devices[id]
    }

    /// Model a peer-to-peer (NVLink) copy of `bytes` from `src` to `dst`,
    /// charging the time to both devices' clocks. Returns the transfer
    /// duration.
    pub fn peer_copy(&self, src: usize, dst: usize, bytes: u64) -> SimDuration {
        let src_dev = &self.devices[src];
        let dst_dev = &self.devices[dst];
        let duration = src_dev.cost_model().peer_transfer_time(bytes);
        src_dev.clock().advance(duration);
        dst_dev.clock().advance(duration);
        duration
    }

    /// Create one stream per device.
    pub fn streams(&self) -> Vec<Stream> {
        self.devices.iter().cloned().map(Stream::new).collect()
    }

    /// The maximum simulated time across all device clocks — the node-level
    /// makespan used as "build time" / "query time" in the tables.
    pub fn makespan(&self) -> SimDuration {
        self.devices
            .iter()
            .map(|d| d.clock().now())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Reset every device clock (between experiments).
    pub fn reset_clocks(&self) {
        for d in &self.devices {
            d.clock().reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx1_has_requested_devices() {
        let sys = MultiGpuSystem::dgx1(8);
        assert_eq!(sys.device_count(), 8);
        // Each device holds 32 GB and not one byte more.
        for device in sys.devices() {
            device.allocate(32 * (1 << 30)).unwrap();
            assert!(device.allocate(1).is_err());
        }
    }

    #[test]
    fn peer_copy_charges_both_devices() {
        let sys = MultiGpuSystem::dgx1(2);
        let d = sys.peer_copy(0, 1, 150_000_000_000); // ~1 s at 150 GB/s
        assert!(d.as_secs_f64() > 0.9 && d.as_secs_f64() < 1.1);
        assert!(sys.device(0).clock().now() >= d);
        assert!(sys.device(1).clock().now() >= d);
    }

    #[test]
    fn makespan_is_max_over_devices() {
        let sys = MultiGpuSystem::dgx1(3);
        sys.device(1)
            .clock()
            .advance(SimDuration::from_secs_f64(5.0));
        sys.device(2)
            .clock()
            .advance(SimDuration::from_secs_f64(2.0));
        assert!((sys.makespan().as_secs_f64() - 5.0).abs() < 1e-9);
        sys.reset_clocks();
        assert_eq!(sys.makespan(), SimDuration::ZERO);
    }

    #[test]
    fn streams_per_device() {
        let sys = MultiGpuSystem::dgx1(4);
        let streams = sys.streams();
        assert_eq!(streams.len(), 4);
        // Stream 2 runs on device 2: its work advances that clock only.
        streams[2].transfer(1 << 20);
        for (d, device) in sys.devices().iter().enumerate() {
            assert_eq!(
                device.clock().now() > SimDuration::ZERO,
                d == 2,
                "device {d}"
            );
        }
    }
}
