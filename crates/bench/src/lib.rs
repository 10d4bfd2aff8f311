//! # mc-bench — the experiment harness of the MetaCache-GPU reproduction
//!
//! One module per experiment of the paper's evaluation section (§6). Each
//! module exposes a `run(&ExperimentScale) -> …Result` function returning a
//! structured, serializable result plus a text rendering in the layout of the
//! corresponding paper table or figure. The `repro` binary
//! (`cargo run -p mc-bench --bin repro -- <experiment>`) drives them; the
//! criterion benches under `benches/` cover the underlying kernels.
//! [`pipeline`] holds the two end-to-end workflows that Table 5 and Figure 4
//! compare: write + load, and on the fly.
//!
//! All experiments run on synthetic data generated by `mc-datagen` at a
//! configurable [`ExperimentScale`]. End-to-end and per-layer speed of the
//! serving stack is measured by the `benchmark/` package (`BENCHMARK.json`),
//! not here.

pub mod experiments;
pub mod pipeline;
pub mod scale;
pub mod setup;

pub use scale::ExperimentScale;
pub use setup::{ReferenceSetup, Workloads};
