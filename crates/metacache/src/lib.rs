//! # metacache — minhash-based metagenomic read classification
//!
//! A from-scratch Rust reproduction of **MetaCache-GPU: Ultra-Fast
//! Metagenomic Classification** (Kobus et al., ICPP 2021). The library
//! implements the complete MetaCache pipeline:
//!
//! * **Build phase** (§4.1): reference genomes are split into windows of
//!   length `w` overlapping by `k − 1`; the `s` smallest hashes of each
//!   window's canonical k-mers form its minhash sketch, and every sketch
//!   feature is inserted into a feature → location hash table together with
//!   its (target, window) location.
//! * **Query phase** (§4.2): reads are sketched the same way, the sketches
//!   are looked up, the retrieved locations are accumulated into a window
//!   count statistic, a sliding-window scan produces candidate regions, and
//!   the read is assigned either to the top candidate's taxon or to the
//!   lowest common ancestor of all near-best candidates.
//! * **Database partitioning** (§4.3) across multiple (simulated) GPUs, a
//!   freshly built database that is queried as it is (**on the fly**, with
//!   no write and load), database **serialization** into the `.meta` /
//!   `.cache` layout, and **abundance estimation** (§6.5). The runners that
//!   time the on-the-fly and write + load workflows against each other
//!   (Table 5, Figure 4) are `mc_bench::pipeline`'s.
//!
//! Two execution back ends share the same algorithms:
//!
//! * [`build::CpuBuilder`] / the host query path — the original CPU
//!   MetaCache behaviour (254-location bucket cap; the build sketches on the
//!   calling thread and inserts on one thread per feature range, fused into
//!   one hash table),
//! * [`gpu`] — the GPU pipeline of §5 running on the [`mc_gpu_sim`]
//!   substrate: warp-level sketching kernels, the multi-bucket hash table,
//!   segmented sort, top-candidate generation, multi-device partitioning and
//!   an analytical device clock that models V100 execution times.
//!
//! Reads can be classified from a fully materialised slice
//! ([`query::Classifier::classify_batch`]) or streamed through the resident
//! [`serving::ServingEngine`]: a long-lived worker pool over a shared
//! `Arc<Database>`, multiplexing any number of [`serving::Session`] streams
//! — each overlapping parsing with sketching and table lookup, emitting
//! bit-identical results in input order under a per-session memory bound.
//! [`pipeline::StreamingClassifier`] is the one-stream front over such an
//! engine (a file or iterator in, classifications out). There is one
//! classifier and one host backend, [`query::Classifier`] and
//! [`backend::HostBackend`], over one [`Database`] type: a database split
//! by target ([`Database::repartition`], see [`shard`]) is a database whose
//! partitions are the shards. The host and simulated-GPU execution paths
//! sit behind the
//! [`backend::Backend`] trait, so the engine drives either; the GPU path is
//! an analytic model and an identity oracle, not a deployment
//! (see `docs/ARCHITECTURE.md`). The companion `mc-net` crate exposes the
//! serving engine over TCP (`docs/SERVING.md` specifies the wire
//! protocol):
//!
//! ```
//! # use metacache::{MetaCacheConfig, build::CpuBuilder};
//! # use metacache::pipeline::StreamingClassifier;
//! # use mc_seqio::SequenceRecord;
//! # use mc_taxonomy::{Rank, Taxonomy};
//! # let mut taxonomy = Taxonomy::with_root();
//! # taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
//! # let mut state = 3u64;
//! # let genome: Vec<u8> = (0..6000).map(|_| {
//! #     state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
//! #     b"ACGT"[(state >> 33) as usize % 4]
//! # }).collect();
//! # let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
//! # builder.add_target(SequenceRecord::new("refA", genome.clone()), 100).unwrap();
//! # let db = std::sync::Arc::new(builder.finish());
//! let streaming = StreamingClassifier::new(db);
//! let reads = (0..10).map(|i| {
//!     SequenceRecord::new(format!("r{i}"), genome[i * 100..i * 100 + 150].to_vec())
//! });
//! let (classifications, summary) = streaming.classify_iter(reads);
//! assert_eq!(summary.records, 10);
//! assert!(classifications.iter().all(|c| c.taxon == 100));
//! ```
//!
//! ## Quick start
//!
//! ```
//! use metacache::{MetaCacheConfig, build::CpuBuilder, query::Classifier};
//! use mc_seqio::SequenceRecord;
//! use mc_taxonomy::{Rank, Taxonomy};
//!
//! // Tiny reference set: two "genomes" from two species.
//! let mut taxonomy = Taxonomy::with_root();
//! taxonomy.add_node(100, 1, Rank::Species, "Species A").unwrap();
//! taxonomy.add_node(200, 1, Rank::Species, "Species B").unwrap();
//! let genome_a: Vec<u8> = (0..4000).map(|i| b"ACGT"[(i * 7 + i / 13) % 4]).collect();
//! let genome_b: Vec<u8> = (0..4000).map(|i| b"TTGCA"[(i * 3 + i / 7) % 5]).collect();
//!
//! let config = MetaCacheConfig::default();
//! let mut builder = CpuBuilder::new(config, taxonomy);
//! builder.add_target(SequenceRecord::new("refA", genome_a.clone()), 100).unwrap();
//! builder.add_target(SequenceRecord::new("refB", genome_b), 200).unwrap();
//! let database = builder.finish();
//!
//! // Classify a read drawn from genome A.
//! let classifier = Classifier::new(&database);
//! let result = classifier.classify(&SequenceRecord::new("read", genome_a[100..220].to_vec()));
//! assert_eq!(result.taxon, 100);
//! ```

pub mod abundance;
pub mod backend;
pub mod build;
pub mod candidate;
pub mod classify;
pub mod config;
pub mod database;
pub mod error;
pub mod gpu;
pub mod pipeline;
pub mod query;
pub mod serialize;
pub mod serving;
pub mod shard;
pub mod sketch;

pub use backend::{Backend, BackendWorker, GpuBackend, HostBackend};
pub use candidate::{Candidate, CandidateList};
pub use classify::{Classification, ClassificationEvaluation};
pub use config::MetaCacheConfig;
pub use database::{Database, DatabaseDelta, DeltaStats, Partition, TargetInfo};
pub use error::MetaCacheError;
pub use pipeline::{StreamingClassifier, StreamingSummary};
pub use query::{Classifier, QueryScratch};
pub use serving::{
    EngineConfig, EngineStats, Epoch, EpochStore, ServingEngine, Session, SessionConfig,
};
pub use shard::ShardPlan;
pub use sketch::{SketchScratch, Sketcher};

#[doc(hidden)]
pub use frozen_benchmark::{ShardedClassifier, ShardedDatabase};

/// The names the frozen `benchmark/` package spells, kept over
/// [`Database::repartition`] and used by nothing else. They go when that
/// package next changes (ROADMAP item 1(c)).
#[doc(hidden)]
mod frozen_benchmark {
    use std::sync::{Arc, OnceLock};

    use mc_seqio::SequenceRecord;

    use crate::{Classification, Classifier, Database, MetaCacheError, ShardPlan};

    /// A database repartitioned round-robin, and its parts on demand.
    pub struct ShardedDatabase {
        whole: Arc<Database>,
        plan: ShardPlan,
        parts: OnceLock<Vec<Arc<Database>>>,
    }

    impl ShardedDatabase {
        pub fn round_robin(db: Database, shard_count: usize) -> Result<Self, MetaCacheError> {
            let plan = ShardPlan::round_robin(db.target_count(), shard_count)?;
            Ok(Self {
                whole: Arc::new(db.repartition(&plan)?),
                plan,
                parts: OnceLock::new(),
            })
        }

        pub fn meta(&self) -> &Database {
            &self.whole
        }

        pub fn shards(&self) -> &[Arc<Database>] {
            self.parts.get_or_init(|| {
                let copy = self.whole.repartition(&self.plan);
                let copy = copy.expect("the plan split this database once already");
                copy.into_parts().into_iter().map(Arc::new).collect()
            })
        }
    }

    /// The one classifier over the whole repartitioned database.
    pub struct ShardedClassifier(Classifier);

    impl ShardedClassifier {
        pub fn new(db: Arc<ShardedDatabase>) -> Self {
            Self(Classifier::new(Arc::clone(&db.whole)))
        }

        pub fn classify_batch(&self, records: &[SequenceRecord]) -> Vec<Classification> {
            self.0.classify_batch(records)
        }
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, MetaCacheError>;
