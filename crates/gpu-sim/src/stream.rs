//! Streams.
//!
//! The GPU pipeline of §5.2 processes batches through a chain of kernels on
//! per-device streams, so that the transfers and kernels of concurrent
//! batches overlap. In the simulation a [`Stream`] is an in-order sequence of
//! transfers and kernels with its own simulated position, each of which also
//! advances its device's clock.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{CostModel, KernelCost, SimDuration};
use crate::device::Device;

/// An in-order work queue bound to one device.
///
/// The stream keeps its own simulated timeline (`position`) so that several
/// streams on the same device can overlap, exactly like CUDA streams; the
/// device clock records the furthest point any stream has reached.
#[derive(Debug)]
pub struct Stream {
    device: Arc<Device>,
    position: Mutex<SimDuration>,
}

impl Stream {
    /// Create a stream on a device.
    pub fn new(device: Arc<Device>) -> Self {
        Self {
            device,
            position: Mutex::new(SimDuration::ZERO),
        }
    }

    /// The stream's current simulated position.
    pub fn position(&self) -> SimDuration {
        *self.position.lock()
    }

    fn cost_model(&self) -> CostModel {
        *self.device.cost_model()
    }

    fn advance(&self, by: SimDuration) -> SimDuration {
        let mut pos = self.position.lock();
        *pos = pos.saturating_add(by);
        // Keep the device clock at the maximum of all stream positions by
        // advancing it by the same amount (device time models total busy time).
        self.device.clock().advance(by);
        *pos
    }

    /// Enqueue a kernel with the given cost; returns the stream position
    /// after the kernel completes.
    pub fn launch_kernel(&self, cost: KernelCost) -> SimDuration {
        let time = self.cost_model().kernel_time(cost);
        self.advance(time)
    }

    /// Enqueue a host↔device transfer of `bytes`.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        let time = self.cost_model().transfer_time(bytes);
        self.advance(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceInfo;

    fn test_device() -> Arc<Device> {
        let info = DeviceInfo {
            id: 0,
            memory_capacity: 1 << 30,
            cost_model: CostModel {
                memory_bandwidth: 1e9,
                op_throughput: 1e9,
                transfer_bandwidth: 1e8,
                peer_bandwidth: 1e9,
                launch_overhead: 0.0,
            },
        };
        Device::new(info)
    }

    #[test]
    fn kernels_advance_stream_position() {
        let stream = Stream::new(test_device());
        assert_eq!(stream.position(), SimDuration::ZERO);
        stream.launch_kernel(KernelCost::memory(500_000_000, 0)); // 0.5 s
        stream.launch_kernel(KernelCost::memory(500_000_000, 0)); // 0.5 s
        assert!((stream.position().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_uses_transfer_bandwidth() {
        let stream = Stream::new(test_device());
        stream.transfer(100_000_000); // 1 s at 1e8 B/s
        assert!((stream.position().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn streams_share_the_device_clock() {
        let dev = test_device();
        let a = Stream::new(Arc::clone(&dev));
        let b = Stream::new(Arc::clone(&dev));
        a.launch_kernel(KernelCost::memory(1_000_000_000, 0));
        b.launch_kernel(KernelCost::memory(1_000_000_000, 0));
        assert!(dev.clock().now().as_secs_f64() >= 2.0 - 1e-6);
    }
}
