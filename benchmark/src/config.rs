//! The benchmark's fixed shape: load constants, reference-set sizes and run
//! lengths. None of these is a command-line flag; every output record is
//! stamped with them (see [`crate::host`]).

use mc_datagen::community::RefSeqLikeSpec;
use mc_datagen::taxonomy_gen::TaxonomySpec;

/// Client threads of the two `serve_*` workloads, one connection each.
pub const CLIENTS: usize = 2;
/// Worker threads of the serving engine.
pub const ENGINE_WORKERS: usize = 2;
/// Reads per network request; also the engine's records per batch, so a
/// request is exactly one batch and is served by exactly one generation.
pub const REQUEST_READS: usize = 64;
/// Capacity of the engine's shared submission queue, in batches.
pub const QUEUE_CAPACITY: usize = 4;
/// Shards of `query_sharded4`.
pub const SHARDS: usize = 4;
/// Extra strain targets of the odd generations of `serve_reload`.
pub const RELOAD_EXTRA_TARGETS: usize = 2;

/// The sizes a run uses. [`Scale::full`] is what the command measures;
/// tests shrink it through `Scale::tiny`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The `sparse` reference set: the `RefSeqLikeSpec` numbers of
    /// `ExperimentScale::default_scale()` in `crates/bench`, copied so that
    /// an edit there cannot move the baseline. `dense` is the same with
    /// [`Scale::dense_strains`] strains per species.
    pub sparse: RefSeqLikeSpec,
    /// Strains per species of the `dense` reference set.
    pub dense_strains: usize,
    /// Reads in the read set; the timed loops cycle through it.
    pub reads: usize,
    /// Reads of the first query after a build (`time_to_query_s`).
    pub first_query_reads: usize,
    /// Reads per request of the in-process batch workloads.
    pub slice_reads: usize,
    /// FASTQ files the read set is split into for `stream_dense_file`.
    pub stream_files: usize,
    /// Timed windows of a windowed workload.
    pub windows: usize,
    /// Timed windows of `serve_reload`, one reload each.
    pub reload_windows: usize,
    /// Fewest repetitions of `build_otf`'s timed phase.
    pub min_build_repeats: usize,
    /// Times the whole set-up is repeated; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Reads the traced run follows stage by stage.
    pub traced_reads: usize,
    /// Requests the traced run follows over the loopback.
    pub traced_requests: usize,
    /// Reference targets the traced run sketches for `sketch.ref_mbases_per_s`.
    pub traced_ref_targets: usize,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Self {
        Self {
            sparse: RefSeqLikeSpec {
                taxonomy: TaxonomySpec {
                    genera: 12,
                    species_per_genus: 5,
                    families: 5,
                },
                genome_length: 80_000,
                strains_per_species: 1,
                seed: 0,
            },
            dense_strains: 6,
            reads: 40_000,
            first_query_reads: 4_096,
            slice_reads: 4_000,
            stream_files: 4,
            windows: 7,
            reload_windows: 5,
            min_build_repeats: 3,
            setup_repeats: 3,
            traced_reads: 20_000,
            traced_requests: 2_000,
            traced_ref_targets: 60,
        }
    }

    /// `ExperimentScale::tiny()`-sized references and short loops, for the
    /// package's own tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            sparse: RefSeqLikeSpec {
                taxonomy: TaxonomySpec {
                    genera: 4,
                    species_per_genus: 2,
                    families: 2,
                },
                genome_length: 20_000,
                strains_per_species: 1,
                seed: 0,
            },
            dense_strains: 2,
            reads: 512,
            first_query_reads: 128,
            slice_reads: 128,
            stream_files: 2,
            windows: 1,
            reload_windows: 1,
            min_build_repeats: 1,
            setup_repeats: 1,
            traced_reads: 256,
            traced_requests: 16,
            traced_ref_targets: 4,
        }
    }
}
