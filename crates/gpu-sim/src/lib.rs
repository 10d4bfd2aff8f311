//! # mc-gpu-sim — a software cost model of a CUDA multi-GPU node
//!
//! MetaCache-GPU is a CUDA application: its kernels are written in terms of
//! warps (groups of 32 threads), streams and per-device memory (paper §5).
//! No GPU is available in this reproduction, so this crate models the parts
//! of those abstractions that `metacache::gpu` and
//! `metacache::build::GpuBuilder` charge their work to. It executes no
//! kernel: the host computes every sketch, table and candidate list, and
//! the model turns the counts of that work into simulated device time.
//!
//! * [`device::Device`] / [`memory::Reservation`] — per-device memory
//!   capacity accounting (the 32 GB HBM2 limit per V100 is what forces the
//!   multi-GPU database partitioning of §4.3),
//! * [`stream::Stream`] — in-order per-device work queues with their own
//!   simulated position,
//! * [`clock::DeviceClock`] + [`clock::CostModel`] — an analytical timing
//!   model (bandwidth + throughput based, with V100-like constants) that
//!   converts the data volumes the kernels would move into simulated
//!   execution times; this drives the performance tables/figures of the
//!   reproduction,
//! * [`segsort`] — the cost model of the segmented key-only sort of Hou et
//!   al. adapted in §5.5: segments counted per size class and charged from
//!   their lengths (nothing is sorted),
//! * [`multi_gpu::MultiGpuSystem`] — a node with several devices and the
//!   peer copies of the top-hit merge ring (Figure 2).
//!
//! Only the timing is modelled; the answers are the host's, which is why
//! the experiment harness reports both measured host time and simulated
//! device time.

pub mod clock;
pub mod device;
pub mod memory;
pub mod multi_gpu;
pub mod segsort;
pub mod stream;

pub use clock::{CostModel, DeviceClock, KernelCost, SimDuration};
pub use device::{Device, DeviceError, DeviceInfo};
pub use memory::Reservation;
pub use multi_gpu::MultiGpuSystem;
pub use segsort::{SegmentedSortStats, WARP_SIZE};
pub use stream::Stream;
