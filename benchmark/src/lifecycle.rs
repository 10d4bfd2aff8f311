//! The database life cycle every workload's set-up goes through and
//! `build_otf` measures: build → first query on the fresh table
//! (on-the-fly mode) → save → load.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mc_seqio::SequenceRecord;
use mc_taxonomy::{TaxonId, Taxonomy};
use metacache::build::{BuildStats, CpuBuilder};
use metacache::query::Classifier;
use metacache::{serialize, Classification, Database, MetaCacheConfig};

use crate::host::process_cpu_s;
use crate::trace::Tracer;

/// A database with the timings of its build.
pub struct Built {
    /// The database.
    pub db: Database,
    /// Seconds of each `add_target` call, in target order.
    pub add_target_s: Vec<f64>,
    /// Seconds of `finish`.
    pub finish_s: f64,
    /// Seconds from `CpuBuilder::new` to the end of `finish`.
    pub build_s: f64,
    /// The builder's counters.
    pub stats: BuildStats,
}

/// Request identifier of the life cycle's spans: a run traces one.
const REQUEST: u64 = 0;

/// `CpuBuilder::new → add_target × n → finish` under a `build` span, with
/// one `add_target` span per target and one `finish` span.
pub fn build(
    targets: Vec<(SequenceRecord, TaxonId)>,
    taxonomy: Taxonomy,
    tracer: &mut Tracer,
) -> Built {
    let root = tracer.begin("build", None, REQUEST);
    let start = Instant::now();
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
    let mut add_target_s = Vec::with_capacity(targets.len());
    for (record, taxon) in targets {
        let span = tracer.begin("add_target", root, REQUEST);
        let t0 = Instant::now();
        builder
            .add_target(record, taxon)
            .expect("generated targets name taxa of the generated taxonomy");
        add_target_s.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
    }
    let stats = builder.stats();
    let span = tracer.begin("finish", root, REQUEST);
    let t0 = Instant::now();
    let db = builder.finish();
    let finish_s = t0.elapsed().as_secs_f64();
    tracer.end(span);
    let build_s = start.elapsed().as_secs_f64();
    tracer.end(root);
    Built {
        db,
        add_target_s,
        finish_s,
        build_s,
        stats,
    }
}

/// One pass through the life cycle.
pub struct LifeCycle {
    /// The freshly built database (not the loaded copy).
    pub db: Arc<Database>,
    /// Seconds of each `add_target` call.
    pub add_target_s: Vec<f64>,
    /// Seconds of `finish`.
    pub finish_s: f64,
    /// Seconds from `CpuBuilder::new` to the end of `finish`.
    pub build_s: f64,
    /// The builder's counters.
    pub stats: BuildStats,
    /// Seconds from `CpuBuilder::new` until the first reads are classified.
    pub time_to_query_s: f64,
    /// Process CPU seconds of that interval.
    pub time_to_query_cpu_s: f64,
    /// Classifications of the first reads on the fresh table.
    pub first: Vec<Classification>,
    /// Seconds of `serialize::save`.
    pub save_s: f64,
    /// Bytes `serialize::save` wrote.
    pub disk_bytes: u64,
    /// `Database::table_bytes` of the fresh table.
    pub table_bytes: usize,
    /// Seconds of `serialize::load`.
    pub load_s: f64,
    /// First reads the loaded copy classifies differently from the fresh
    /// table (must be 0).
    pub loaded_mismatches: usize,
}

/// Build from `targets`, classify `first_reads` on the fresh table, save the
/// database under `dir` (over the previous life cycle's files), load it back
/// and classify `first_reads` on the copy.
pub fn life_cycle(
    targets: Vec<(SequenceRecord, TaxonId)>,
    taxonomy: Taxonomy,
    first_reads: &[SequenceRecord],
    dir: &Path,
    tracer: &mut Tracer,
) -> LifeCycle {
    let cpu_before = process_cpu_s();
    let start = Instant::now();
    let built = build(targets, taxonomy, tracer);
    let span = tracer.begin("first_query", None, REQUEST);
    let first = Classifier::new(&built.db).classify_batch(first_reads);
    tracer.end(span);
    let time_to_query_s = start.elapsed().as_secs_f64();
    let time_to_query_cpu_s = process_cpu_s() - cpu_before;

    let span = tracer.begin("save", None, REQUEST);
    let t0 = Instant::now();
    let report = serialize::save(&built.db, dir, "database").expect("database saves");
    let save_s = t0.elapsed().as_secs_f64();
    tracer.end(span);

    let span = tracer.begin("load", None, REQUEST);
    let t0 = Instant::now();
    let loaded = serialize::load(dir, "database").expect("saved database loads");
    let load_s = t0.elapsed().as_secs_f64();
    tracer.end(span);

    let reloaded = Classifier::new(loaded).classify_batch(first_reads);
    let loaded_mismatches = mismatches(&first, &reloaded);
    LifeCycle {
        table_bytes: built.db.table_bytes(),
        db: Arc::new(built.db),
        add_target_s: built.add_target_s,
        finish_s: built.finish_s,
        build_s: built.build_s,
        stats: built.stats,
        time_to_query_s,
        time_to_query_cpu_s,
        first,
        save_s,
        disk_bytes: report.total_bytes,
        load_s,
        loaded_mismatches,
    }
}

/// Reads whose classification differs between `got` and `expected`
/// (a missing or surplus answer counts as one each).
pub fn mismatches(got: &[Classification], expected: &[Classification]) -> usize {
    got.iter().zip(expected).filter(|(g, e)| g != e).count() + got.len().abs_diff(expected.len())
}
