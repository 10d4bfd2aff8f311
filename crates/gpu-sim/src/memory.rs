//! RAII device memory reservations.
//!
//! A [`Reservation`] charges a number of bytes against a [`Device`]'s
//! capacity for as long as it lives and holds no data: the simulated
//! device's arrays live in host memory, only their footprint is accounted.
//! The GPU builder reserves each device's statically allocated hash table
//! this way, which reproduces the capacity pressure described in §4.3 and
//! §5.1: a partition that does not fit fails the build.

use std::sync::Arc;

use crate::device::{Device, DeviceError};

/// Bytes of device memory held from creation until drop.
#[derive(Debug)]
pub struct Reservation {
    device: Arc<Device>,
    bytes: u64,
}

impl Reservation {
    /// Reserve `bytes` on `device`; fails, charging nothing, if they do not
    /// fit in the device's remaining memory.
    pub fn new(device: Arc<Device>, bytes: u64) -> Result<Self, DeviceError> {
        device.allocate(bytes)?;
        Ok(Self { device, bytes })
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        let _ = self.device.free(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceInfo;

    #[test]
    fn allocation_charges_and_drop_releases() {
        let dev = Device::new(DeviceInfo::with_capacity(0, 1 << 20));
        {
            let _reservation = Reservation::new(Arc::clone(&dev), 8192).unwrap();
            assert_eq!(dev.allocated(), 8192);
        }
        assert_eq!(dev.allocated(), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let dev = Device::new(DeviceInfo::with_capacity(0, 100));
        assert!(Reservation::new(Arc::clone(&dev), 8000).is_err());
        assert_eq!(dev.allocated(), 0);
    }
}
