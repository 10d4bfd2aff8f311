//! # mc-gpu-sim — a software CUDA-like execution substrate
//!
//! MetaCache-GPU is a CUDA application: its kernels are written in terms of
//! warps (groups of 32 threads), streams and per-device memory (paper §5).
//! No GPU is available in this reproduction, so this crate provides a
//! *software* model of the parts of those abstractions that the kernels of
//! `metacache::gpu` and `metacache::build::GpuBuilder` use:
//!
//! * [`warp::Warp`] — a 32-lane SIMT group with an in-register bitonic sort
//!   and duplicate removal, executed lane-for-lane on the CPU,
//! * [`launch`] — warp-grid kernel launches into one flat output buffer,
//!   executed on one scoped host thread per core,
//! * [`device::Device`] / [`memory::Reservation`] — per-device memory
//!   capacity accounting (the 32 GB HBM2 limit per V100 is what forces the
//!   multi-GPU database partitioning of §4.3),
//! * [`stream::Stream`] — in-order per-device work queues with their own
//!   simulated position,
//! * [`clock::DeviceClock`] + [`clock::CostModel`] — an analytical timing
//!   model (bandwidth + throughput based, with V100-like constants) that
//!   converts the data volumes actually moved by the simulated kernels into
//!   simulated execution times; this drives the performance tables/figures
//!   of the reproduction,
//! * [`segsort`] — the cost model of the segmented key-only sort of Hou et
//!   al. adapted in §5.5: segments counted per size class and charged from
//!   their lengths (nothing is sorted),
//! * [`multi_gpu::MultiGpuSystem`] — a node with several devices and the
//!   peer copies of the top-hit merge ring (Figure 2).
//!
//! The algorithmic behaviour of code written against this substrate is
//! identical to the CUDA original; only wall-clock performance differs, which
//! is why the experiment harness reports both measured host time and
//! simulated device time.
//!
//! The natural unit of work fed to [`launch_warps_into`] is one sequence
//! batch popped from the serving engine's bounded queue: a session of
//! `metacache::serving::ServingEngine` parses reads into sequence-numbered
//! batches, a `GpuBackend` worker launches one warp per read window per
//! batch, and the session restores input order from the sequence numbers —
//! the overlapped parse/sketch/classify architecture of the paper's
//! Figure 2.

pub mod clock;
pub mod device;
pub mod launch;
pub mod memory;
pub mod multi_gpu;
pub mod segsort;
pub mod stream;
pub mod warp;

pub use clock::{CostModel, DeviceClock, KernelCost, SimDuration};
pub use device::{Device, DeviceError, DeviceInfo};
pub use launch::launch_warps_into;
pub use memory::Reservation;
pub use multi_gpu::MultiGpuSystem;
pub use segsort::SegmentedSortStats;
pub use stream::Stream;
pub use warp::{Warp, WARP_SIZE};
