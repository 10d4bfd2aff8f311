//! # mc-gpu-sim — a software CUDA-like execution substrate
//!
//! MetaCache-GPU is a CUDA application: its kernels are written in terms of
//! warps (groups of 32 threads), warp shuffles, cooperative groups, streams,
//! events and per-device memory (paper §5). No GPU is available in this
//! reproduction, so this crate provides a faithful *software* model of those
//! abstractions:
//!
//! * [`warp::Warp`] — a 32-lane SIMT group with shuffle, ballot, reductions
//!   and an in-register bitonic sort, executed lane-for-lane on the CPU,
//! * [`launch`] — warp-grid kernel launches executed in parallel with rayon,
//! * [`device::Device`] / [`memory::DeviceBuffer`] — per-device memory
//!   capacity accounting (the 32 GB HBM2 limit per V100 is what forces the
//!   multi-GPU database partitioning of §4.3),
//! * [`stream::Stream`] / [`stream::Event`] — in-order work queues and the
//!   event synchronisation used to orchestrate the build/query pipeline,
//! * [`clock::DeviceClock`] + [`clock::CostModel`] — an analytical timing
//!   model (bandwidth + throughput based, with V100-like and Xeon-like
//!   presets) that converts the data volumes actually moved by the simulated
//!   kernels into simulated execution times; this drives the performance
//!   tables/figures of the reproduction,
//! * [`segsort`] — the segmented key-only sort of Hou et al. adapted in §5.5,
//!   with per-segment kernel selection by size,
//! * [`multi_gpu::MultiGpuSystem`] — a node with several devices and
//!   all-to-all / ring peer transfers (the gossip-style communication used
//!   for multi-GPU queries).
//!
//! The algorithmic behaviour of code written against this substrate is
//! identical to the CUDA original; only wall-clock performance differs, which
//! is why the experiment harness reports both measured host time and
//! simulated device time.
//!
//! The natural unit of work fed to [`launch_warps`] is one sequence batch
//! popped from the serving engine's bounded queue: a session of
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
pub use launch::{launch_warps, launch_warps_into, launch_warps_with_clock, LaunchConfig};
pub use memory::DeviceBuffer;
pub use multi_gpu::{MultiGpuSystem, Topology};
pub use segsort::{segmented_sort, segmented_sort_by_key, SegmentedSortStats};
pub use stream::{Event, Stream};
pub use warp::{Warp, WARP_SIZE};
