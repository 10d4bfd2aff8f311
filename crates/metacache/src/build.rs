//! The build phase: turning reference genomes into a database.
//!
//! Two builders share the same windowing/sketching logic:
//!
//! * [`CpuBuilder`] — the original MetaCache CPU build (§4.1) into the host
//!   hash table with a per-feature location cap of 254, one target at a
//!   time and in two stages, as the paper's §4.1 pipeline runs them: the
//!   calling thread sketches a target into a batch and queues it, and W
//!   inserter threads (W = the available parallelism) insert it while the
//!   next target is sketched. Inserter `w` owns the features `f` with
//!   `f % W == w` and inserts them, in batch order, into a table of its own;
//!   `finish` fuses the W tables into one. Every bucket receives the same
//!   locations in the same order as from one inserter, so the cap drops the
//!   same ones and the build is bit-identical for any W.
//!   [`CpuBuilder::build_from_queue`] is the consumer end of a
//!   producer–consumer queue: parser threads produce batches of records.
//! * [`GpuBuilder`] — the GPU build (§5): reference targets are distributed
//!   over the devices of a [`MultiGpuSystem`] (a target never spans devices),
//!   each device sketches its windows with warp kernels and inserts into its
//!   own multi-bucket hash table, and all data movement / kernel work is
//!   charged to the device clocks so that the simulated build times of
//!   Table 3 can be reproduced. `finish` packs each device's table into a
//!   host table, the one table type a database holds at rest.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use mc_gpu_sim::{
    launch_warps_into, DeviceBuffer, KernelCost, LaunchConfig, MultiGpuSystem, SimDuration, Warp,
};
use mc_kmer::{Feature, Location, TargetId};
use mc_seqio::{BatchReceiver, SequenceRecord};
use mc_taxonomy::{TaxonId, Taxonomy};
use mc_warpcore::{
    ConcurrentInsert, FeatureStore, HostHashTable, MultiBucketConfig, MultiBucketHashTable,
    TableError,
};

use crate::config::MetaCacheConfig;
use crate::database::{Database, Partition, TargetInfo};
use crate::error::MetaCacheError;
use crate::gpu::warp_sketch_to_slot;
use crate::sketch::{SketchScratch, Sketcher};

/// Statistics of a finished build.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildStats {
    /// Number of reference targets inserted.
    pub targets: usize,
    /// Number of reference windows sketched.
    pub windows: u64,
    /// Number of (feature, location) pairs inserted (after capping).
    pub locations_inserted: u64,
    /// Number of locations dropped by the per-feature cap.
    pub locations_dropped: u64,
    /// Simulated device time of the build (zero for the CPU builder, which
    /// is timed with the wall clock by the caller).
    pub sim_build_time: SimDuration,
    /// Bytes transferred host → device during the build.
    pub bytes_to_device: u64,
}

/// Per-target counters of one [`sketch_target_into`] call.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SketchCounts {
    pub windows: u64,
    pub inserted: u64,
    pub dropped: u64,
}

/// Reused state of [`sketch_target_into`]: the sketch scratch and one
/// target's `(feature, location)` pairs in window order. The batch holds
/// 12 bytes per feature — about 1.7 bytes per base at the default `s = 16`,
/// stride 112 — next to a record that already holds the target's bases.
#[derive(Debug)]
pub(crate) struct TargetScratch {
    sketch: SketchScratch,
    batch: Vec<(Feature, Location)>,
}

impl TargetScratch {
    pub(crate) fn new(config: &MetaCacheConfig) -> Self {
        Self {
            sketch: SketchScratch::with_capacity(config.sketch_size),
            batch: Vec::new(),
        }
    }
}

/// Sketch one reference target into `batch`: every feature's
/// `(target, window)` location, in window order and within a window in
/// ascending feature order. Returns the number of windows.
fn sketch_target(
    sketcher: &Sketcher,
    sketch: &mut SketchScratch,
    record: &SequenceRecord,
    target_id: TargetId,
    batch: &mut Vec<(Feature, Location)>,
) -> u64 {
    batch.clear();
    let mut windows = 0;
    sketcher.for_each_window_sketch(&record.sequence, sketch, |window, features| {
        windows += 1;
        let location = Location::new(target_id, window);
        batch.extend(features.iter().map(|&feature| (feature, location)));
        ControlFlow::Continue(())
    });
    windows
}

/// Hand `pairs` to `insert` in order. A [`TableError::ValueLimitReached`]
/// counts as a dropped location (the per-feature cap); any other table
/// error stops the insertion and is returned. `counts` accumulates as it
/// goes, so the locations inserted before a fatal error are still accounted
/// for.
fn insert_batch<'a>(
    pairs: impl IntoIterator<Item = &'a (Feature, Location)>,
    mut insert: impl FnMut(Feature, Location) -> Result<(), TableError>,
    counts: &mut SketchCounts,
) -> Result<(), TableError> {
    for &(feature, location) in pairs {
        match insert(feature, location) {
            Ok(()) => counts.inserted += 1,
            Err(TableError::ValueLimitReached) => counts.dropped += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sketch one reference target and hand every feature's `(target, window)`
/// location to `insert` — the sequential insertion loop of post-load
/// incremental insertion ([`Database::insert_target`],
/// [`Database::apply_delta`]). [`CpuBuilder`] runs the same two stages on
/// two sides of a queue, so both produce bit-identical tables for the same
/// insertion order.
///
/// Two tight loops, not one interleaved walk: the whole target is sketched
/// into the reused batch, then the batch is inserted back to back, in window
/// order and within a window in ascending feature order. The table sees the
/// calls it would see from a window-by-window walk; the inserter's cache
/// misses no longer queue behind a window's worth of hashing. Table errors
/// are counted or returned as [`insert_batch`] does.
pub(crate) fn sketch_target_into(
    sketcher: &Sketcher,
    scratch: &mut TargetScratch,
    record: &SequenceRecord,
    target_id: TargetId,
    insert: impl FnMut(Feature, Location) -> Result<(), TableError>,
    counts: &mut SketchCounts,
) -> Result<(), MetaCacheError> {
    let TargetScratch { sketch, batch } = scratch;
    counts.windows += sketch_target(sketcher, sketch, record, target_id, batch);
    Ok(insert_batch(batch.iter(), insert, counts)?)
}

/// One target's `(feature, location)` pairs, shared by every inserter.
type Batch = Arc<Vec<(Feature, Location)>>;

/// Batches a queue holds before the sketching thread waits: the inserters
/// are the slower side and must never run dry, and memory stays at a few
/// targets' batches.
const QUEUE_DEPTH: usize = 2;

/// What the inserter threads report, under one lock.
#[derive(Debug, Default)]
struct Progress {
    /// Batches finished, summed over the inserters.
    batches_done: u64,
    inserted: u64,
    dropped: u64,
    /// The first fatal table error. Every inserter skips its batches from
    /// then on.
    error: Option<TableError>,
    /// An inserter thread panicked, so its batches will never be done.
    panicked: bool,
}

#[derive(Debug, Default)]
struct Shared {
    progress: Mutex<Progress>,
    /// Signalled whenever `progress` changes.
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Progress> {
        self.progress
            .lock()
            .expect("no thread panics while it holds the progress lock")
    }
}

/// W inserter threads. Thread `w` owns the features `f` with `f % W == w`
/// and inserts them, batch by batch in queue order, into a table of its
/// own. They live until [`Inserters::join`] or drop.
struct Inserters {
    queues: Vec<SyncSender<Batch>>,
    threads: Vec<JoinHandle<HostHashTable>>,
    shared: Arc<Shared>,
    /// Batches queued to each thread.
    queued: u64,
}

impl Inserters {
    fn spawn(count: NonZeroUsize, max_locations_per_key: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let (queues, threads) = (0..count.get())
            .map(|owner| {
                let (queue, batches) = sync_channel(QUEUE_DEPTH);
                let shared = Arc::clone(&shared);
                let thread = std::thread::spawn(move || {
                    insert_owned(owner, count, max_locations_per_key, batches, &shared)
                });
                (queue, thread)
            })
            .unzip();
        Self {
            queues,
            threads,
            shared,
            queued: 0,
        }
    }

    /// Hand `batch` to every inserter, waiting while a queue is full.
    fn queue(&mut self, batch: &Batch) {
        for queue in &self.queues {
            queue
                .send(Arc::clone(batch))
                .expect("an inserter thread outlives its queue unless it panicked");
        }
        self.queued += 1;
    }

    /// The progress once every queued batch is done.
    ///
    /// # Panics
    ///
    /// If an inserter thread panicked.
    fn wait(&self) -> MutexGuard<'_, Progress> {
        let expected = self.queued * self.threads.len() as u64;
        let progress = self
            .shared
            .changed
            .wait_while(self.shared.lock(), |p| {
                p.batches_done < expected && !p.panicked
            })
            .expect("no thread panics while it holds the progress lock");
        assert!(!progress.panicked, "an inserter thread panicked");
        progress
    }

    /// Close the queues and join the threads: their tables in owner order,
    /// and the first fatal table error. Resumes an inserter's panic.
    fn join(mut self) -> (Vec<HostHashTable>, Option<TableError>) {
        self.queues.clear();
        let joined: Vec<_> = self.threads.drain(..).map(JoinHandle::join).collect();
        let parts = joined
            .into_iter()
            .map(|joined| joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        (parts, self.shared.lock().error)
    }
}

impl Drop for Inserters {
    /// Closing the queues ends the threads; joining them means no build
    /// outlives its builder.
    fn drop(&mut self) {
        self.queues.clear();
        for thread in self.threads.drain(..) {
            // A panic has been reported by the thread itself; drop must not
            // panic again.
            let _ = thread.join();
        }
    }
}

/// The body of inserter `owner` of `count`: insert the owned features of
/// every batch until the queue closes, and report each batch as done.
fn insert_owned(
    owner: usize,
    count: NonZeroUsize,
    max_locations_per_key: usize,
    batches: Receiver<Batch>,
    shared: &Shared,
) -> HostHashTable {
    /// Reports a panic, so that no one waits for batches that will never be
    /// done.
    struct ReportPanic<'a>(&'a Shared);
    impl Drop for ReportPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let progress = self.0.progress.lock();
                progress.unwrap_or_else(PoisonError::into_inner).panicked = true;
                self.0.changed.notify_all();
            }
        }
    }
    let _report = ReportPanic(shared);
    let (owner, count) = (owner as Feature, count.get() as Feature);
    let mut table = HostHashTable::new(max_locations_per_key);
    for batch in batches {
        let mut counts = SketchCounts::default();
        let stopped = shared.lock().error.is_some();
        let inserted = if stopped {
            Ok(())
        } else {
            insert_batch(
                batch
                    .iter()
                    .filter(|&&(feature, _)| feature % count == owner),
                |feature, location| table.insert(feature, location),
                &mut counts,
            )
        };
        // Let go of the batch before it is reported done, so that the
        // sketching thread can fill it again.
        drop(batch);
        let mut progress = shared.lock();
        progress.batches_done += 1;
        progress.inserted += counts.inserted;
        progress.dropped += counts.dropped;
        if let Err(error) = inserted {
            progress.error.get_or_insert(error);
        }
        drop(progress);
        shared.changed.notify_all();
    }
    table
}

/// The CPU builder: the calling thread sketches, W inserter threads fill the
/// host hash table (see the [module documentation](self)).
pub struct CpuBuilder {
    config: MetaCacheConfig,
    sketcher: Sketcher,
    taxonomy: Taxonomy,
    targets: Vec<TargetInfo>,
    /// Targets and windows; the inserters count the locations.
    stats: BuildStats,
    sketch: SketchScratch,
    /// The batches queued last, oldest first. The oldest is sketched into
    /// again once no inserter holds it, so batches are allocated only for
    /// those in flight and grow only to the largest target's size.
    batches: VecDeque<Batch>,
    inserters: Inserters,
    /// An `add_target` has returned the inserters' fatal table error.
    error_returned: bool,
}

impl CpuBuilder {
    /// Create a builder with the given configuration and taxonomy, and spawn
    /// its inserter threads: as many as
    /// [`std::thread::available_parallelism`] reports.
    ///
    /// # Panics
    ///
    /// If `config` does not pass [`MetaCacheConfig::validated`] — check
    /// configurations that come from outside the program there first.
    pub fn new(config: MetaCacheConfig, taxonomy: Taxonomy) -> Self {
        let inserters = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        Self::with_inserters(config, taxonomy, inserters)
    }

    /// [`CpuBuilder::new`] with `inserters` inserter threads.
    pub(crate) fn with_inserters(
        config: MetaCacheConfig,
        taxonomy: Taxonomy,
        inserters: NonZeroUsize,
    ) -> Self {
        let sketcher = Sketcher::new(&config)
            .expect("CpuBuilder::new requires a config that passes MetaCacheConfig::validated");
        Self {
            config,
            sketcher,
            taxonomy,
            targets: Vec::new(),
            stats: BuildStats::default(),
            sketch: SketchScratch::with_capacity(config.sketch_size),
            batches: VecDeque::new(),
            inserters: Inserters::spawn(inserters, config.max_locations_per_feature),
            error_returned: false,
        }
    }

    /// Add one reference target belonging to `taxon`: sketch it and queue
    /// it for insertion. Returns without waiting for the insertion, and
    /// waits only while the inserters are a few targets behind.
    ///
    /// A fatal table error — an arena past 2^36 locations, or a probe walk
    /// that found no free slot — stops all insertion, and this call returns
    /// it from then on.
    pub fn add_target(
        &mut self,
        record: SequenceRecord,
        taxon: TaxonId,
    ) -> Result<TargetId, MetaCacheError> {
        if let Some(error) = self.inserters.shared.lock().error {
            self.error_returned = true;
            return Err(error.into());
        }
        if !self.taxonomy.contains(taxon) {
            return Err(MetaCacheError::UnknownTaxon(taxon));
        }
        let target_id = self.targets.len() as TargetId;
        let reusable = self
            .batches
            .front_mut()
            .is_some_and(|oldest| Arc::get_mut(oldest).is_some());
        let mut batch = if reusable {
            self.batches.pop_front().expect("the oldest batch")
        } else {
            Batch::default()
        };
        let pairs = Arc::get_mut(&mut batch).expect("no inserter holds a reused batch");
        let windows = sketch_target(&self.sketcher, &mut self.sketch, &record, target_id, pairs);
        self.inserters.queue(&batch);
        self.batches.push_back(batch);
        self.targets.push(TargetInfo {
            id: target_id,
            name: record.id().to_string(),
            taxon,
            length: record.sequence.len(),
            num_windows: self.sketcher.num_windows(record.sequence.len()),
        });
        self.stats.targets += 1;
        self.stats.windows += windows;
        Ok(target_id)
    }

    /// Add every record of an iterator, resolving each record's taxon with
    /// `taxon_of` (e.g. a lookup from accession to taxid).
    pub fn add_records<I, F>(
        &mut self,
        records: I,
        mut taxon_of: F,
    ) -> Result<usize, MetaCacheError>
    where
        I: IntoIterator<Item = SequenceRecord>,
        F: FnMut(&SequenceRecord) -> TaxonId,
    {
        let mut added = 0;
        for record in records {
            let taxon = taxon_of(&record);
            self.add_target(record, taxon)?;
            added += 1;
        }
        Ok(added)
    }

    /// Consume batches from a producer–consumer queue until the producers
    /// close it: parsers produce on their own threads, the calling thread
    /// sketches every record, in arrival order, and the inserter threads
    /// insert them (see [`CpuBuilder::add_target`]).
    pub fn build_from_queue<F>(
        &mut self,
        receiver: BatchReceiver,
        mut taxon_of: F,
    ) -> Result<usize, MetaCacheError>
    where
        F: FnMut(&SequenceRecord) -> TaxonId,
    {
        let mut added = 0;
        for batch in receiver.iter() {
            for record in batch.records {
                let taxon = taxon_of(&record);
                self.add_target(record, taxon)?;
                added += 1;
            }
        }
        Ok(added)
    }

    /// Build statistics so far. Waits until every queued target is
    /// inserted, so the location counts are exact.
    ///
    /// # Panics
    ///
    /// If an inserter thread panicked.
    pub fn stats(&self) -> BuildStats {
        let progress = self.inserters.wait();
        BuildStats {
            locations_inserted: progress.inserted,
            locations_dropped: progress.dropped,
            ..self.stats
        }
    }

    /// Finish the build: join the inserter threads and fuse their tables
    /// into a single-partition database whose table is packed — every
    /// bucket at its exact length, no holes.
    ///
    /// # Panics
    ///
    /// If a fatal table error stopped the insertion and no
    /// [`add_target`](Self::add_target) has returned it, if the fused table
    /// meets one (an arena past 2^36 locations, or a probe walk that found
    /// no free slot), or if an inserter thread panicked: the build never
    /// returns a table short of locations without saying so.
    pub fn finish(self) -> Database {
        let (parts, error) = self.inserters.join();
        if let Some(error) = error.filter(|_| !self.error_returned) {
            panic!("a table error stopped the build and no add_target returned it: {error}");
        }
        let table = HostHashTable::fuse(parts)
            .unwrap_or_else(|error| panic!("the inserters' tables do not fuse into one: {error}"));
        let lineages = self.taxonomy.lineage_cache();
        let target_ids: Vec<TargetId> = self.targets.iter().map(|t| t.id).collect();
        Database {
            config: self.config,
            targets: self.targets,
            taxonomy: self.taxonomy,
            lineages,
            partitions: vec![Partition {
                table,
                targets: target_ids,
            }],
        }
    }
}

/// The GPU builder: one multi-bucket table per device while it builds, one
/// packed host-table partition per device once it finishes.
pub struct GpuBuilder<'sys> {
    config: MetaCacheConfig,
    sketcher: Sketcher,
    taxonomy: Taxonomy,
    system: &'sys MultiGpuSystem,
    targets: Vec<TargetInfo>,
    partitions: Vec<GpuPartitionState>,
    stats: BuildStats,
    next_device: usize,
    /// Flat per-launch feature buffer (one `sketch_size` slot per window),
    /// reused across targets so warp sketching never allocates per window.
    feature_buf: Vec<mc_kmer::Feature>,
}

struct GpuPartitionState {
    table: MultiBucketHashTable,
    targets: Vec<TargetId>,
    /// Keeps the table's bytes charged against the device for the lifetime of
    /// the build.
    _reservation: DeviceBuffer<u8>,
}

impl<'sys> GpuBuilder<'sys> {
    /// Create a GPU builder over `system`, sizing each device's table for
    /// `expected_locations_per_device` (feature, location) pairs.
    pub fn new(
        config: MetaCacheConfig,
        taxonomy: Taxonomy,
        system: &'sys MultiGpuSystem,
        expected_locations_per_device: usize,
    ) -> Result<Self, MetaCacheError> {
        let sketcher = Sketcher::new(&config)?;
        let mut partitions = Vec::with_capacity(system.device_count());
        for device in system.devices() {
            let table_config = MultiBucketConfig {
                max_locations_per_key: config.max_locations_per_feature,
                ..MultiBucketConfig::for_expected_values(
                    expected_locations_per_device.max(1024),
                    0.8,
                )
            };
            let table = MultiBucketHashTable::new(table_config);
            // Charge the (statically allocated, §5.1) table against the
            // device's memory; fails if the database partition does not fit.
            let reservation = DeviceBuffer::<u8>::zeroed(Arc::clone(device), table.bytes())?;
            partitions.push(GpuPartitionState {
                table,
                targets: Vec::new(),
                _reservation: reservation,
            });
        }
        Ok(Self {
            config,
            sketcher,
            taxonomy,
            system,
            targets: Vec::new(),
            partitions,
            stats: BuildStats::default(),
            next_device: 0,
            feature_buf: Vec::new(),
        })
    }

    /// Add one reference target; it is assigned to the least-loaded device
    /// (by bases inserted so far) and never split across devices.
    pub fn add_target(
        &mut self,
        record: SequenceRecord,
        taxon: TaxonId,
    ) -> Result<TargetId, MetaCacheError> {
        if !self.taxonomy.contains(taxon) {
            return Err(MetaCacheError::UnknownTaxon(taxon));
        }
        let device_count = self.partitions.len().max(1);
        let device_idx = self.next_device % device_count;
        self.next_device += 1;
        let target_id = self.targets.len() as TargetId;

        // Host -> device transfer of the raw sequence batch.
        let stream = mc_gpu_sim::Stream::new(Arc::clone(self.system.device(device_idx)));
        stream.transfer(record.sequence.len() as u64);
        self.stats.bytes_to_device += record.sequence.len() as u64;

        // One warp per window: encode, hash, sort, sketch (steps 1–3), then
        // insert the sketch features into the device's multi-bucket table.
        let params = self.sketcher.window_params();
        let kmer = params.kmer();
        let sketch_size = self.config.sketch_size;
        let windows = self.sketcher.num_windows(record.sequence.len());
        let sequence = &record.sequence;
        // One warp per window, all features written into one flat per-launch
        // buffer (reused across targets) instead of an owned Vec per window.
        let sketches: Vec<(usize, KernelCost)> = launch_warps_into(
            LaunchConfig::new(windows as usize),
            sketch_size,
            &mut self.feature_buf,
            |warp: Warp, slot: &mut [mc_kmer::Feature]| {
                let w = warp.warp_id as u32;
                let (start, end) = mc_kmer::window::window_range(w, sequence.len(), params);
                warp_sketch_to_slot(&warp, &sequence[start..end], kmer, sketch_size, slot)
            },
        );
        let mut kernel_cost = KernelCost {
            launches: 1,
            ..Default::default()
        };
        let partition = &mut self.partitions[device_idx];
        for (window, &(filled, cost)) in (0u32..).zip(&sketches) {
            kernel_cost = kernel_cost.merge(cost);
            let slot = window as usize * sketch_size;
            for &feature in &self.feature_buf[slot..slot + filled] {
                // Warp-aggregated insertion: charge one probe-group traversal
                // plus the value write.
                kernel_cost.ops += 8;
                kernel_cost.bytes_written += 8;
                match partition
                    .table
                    .insert(feature, Location::new(target_id, window))
                {
                    Ok(()) => self.stats.locations_inserted += 1,
                    Err(TableError::ValueLimitReached) => self.stats.locations_dropped += 1,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        kernel_cost.launches = 1;
        stream.launch_kernel(kernel_cost);

        partition.targets.push(target_id);
        self.targets.push(TargetInfo {
            id: target_id,
            name: record.id().to_string(),
            taxon,
            length: record.sequence.len(),
            num_windows: windows,
        });
        self.stats.targets += 1;
        self.stats.windows += sketches.len() as u64;
        Ok(target_id)
    }

    /// Add every record of an iterator (taxon resolved per record).
    pub fn add_records<I, F>(
        &mut self,
        records: I,
        mut taxon_of: F,
    ) -> Result<usize, MetaCacheError>
    where
        I: IntoIterator<Item = SequenceRecord>,
        F: FnMut(&SequenceRecord) -> TaxonId,
    {
        let mut added = 0;
        for record in records {
            let taxon = taxon_of(&record);
            self.add_target(record, taxon)?;
            added += 1;
        }
        Ok(added)
    }

    /// Build statistics so far, with the simulated build time set to the
    /// node's makespan.
    pub fn stats(&self) -> BuildStats {
        BuildStats {
            sim_build_time: self.system.makespan(),
            ..self.stats
        }
    }

    /// Finish the build, producing one partition per device: the device's
    /// table packed into a host table (§4.2), each feature's bucket what a
    /// query of the device table returns, under the build's cap. No device
    /// time is charged for this host-side copy.
    pub fn finish(self) -> Database {
        let lineages = self.taxonomy.lineage_cache();
        let cap = self.config.max_locations_per_feature;
        let partitions = self
            .partitions
            .into_iter()
            .map(|p| {
                let mut arena = Vec::with_capacity(p.table.value_count());
                let buckets: Vec<(Feature, u32)> = p
                    .table
                    .features()
                    .into_iter()
                    .map(|feature| (feature, p.table.query_into(feature, &mut arena) as u32))
                    .collect();
                let table = HostHashTable::from_packed(cap, &buckets, arena).expect(
                    "a device query returns at most the cap; a device holds < 2^36 locations",
                );
                Partition {
                    table,
                    targets: p.targets,
                }
            })
            .collect();
        Database {
            config: self.config,
            targets: self.targets,
            taxonomy: self.taxonomy,
            lineages,
            partitions,
        }
    }
}

/// Estimate the number of (feature, location) pairs a set of records will
/// insert — used to size the per-device tables before a GPU build.
pub fn estimate_locations(config: &MetaCacheConfig, records: &[SequenceRecord]) -> usize {
    let sketcher = Sketcher::new(config).expect("valid config");
    records
        .iter()
        .map(|r| sketcher.num_windows(r.sequence.len()) as usize * config.sketch_size)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_seqio::BatchQueue;
    use mc_taxonomy::Rank;

    fn make_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    fn taxonomy() -> Taxonomy {
        let mut t = Taxonomy::with_root();
        t.add_node(10, 1, Rank::Genus, "G").unwrap();
        t.add_node(100, 10, Rank::Species, "G a").unwrap();
        t.add_node(101, 10, Rank::Species, "G b").unwrap();
        t
    }

    #[test]
    fn cpu_build_creates_single_partition_database() {
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy());
        builder
            .add_target(SequenceRecord::new("a", make_seq(10_000, 1)), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("b", make_seq(12_000, 2)), 101)
            .unwrap();
        let stats = builder.stats();
        assert_eq!(stats.targets, 2);
        assert!(stats.windows > 0);
        assert!(stats.locations_inserted > 0);
        let db = builder.finish();
        assert_eq!(db.partition_count(), 1);
        assert_eq!(db.target_count(), 2);
        // 10,000 bases at stride 112 -> ceil((10000 - 16 + 1) / 112) = 90 windows.
        assert_eq!(db.targets[0].num_windows, 90);
        assert!(db.total_locations() > 0);
        assert_eq!(db.taxon_of_target(0), 100);
    }

    #[test]
    fn unknown_taxon_is_rejected() {
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy());
        let err = builder
            .add_target(SequenceRecord::new("a", make_seq(1_000, 1)), 999)
            .unwrap_err();
        assert!(matches!(err, MetaCacheError::UnknownTaxon(999)));
    }

    #[test]
    fn queue_based_build_matches_direct_build() {
        let records: Vec<SequenceRecord> = (0..6)
            .map(|i| SequenceRecord::new(format!("r{i}"), make_seq(5_000, i as u64 + 1)))
            .collect();
        // Direct build.
        let mut direct = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy());
        direct
            .add_records(records.clone(), |r| {
                if r.id().ends_with(['0', '2', '4']) {
                    100
                } else {
                    101
                }
            })
            .unwrap();
        let direct_db = direct.finish();

        // Producer-consumer build.
        let queue = BatchQueue::new(4, 2);
        let (tx, rx) = queue.split();
        let producer = std::thread::spawn(move || tx.send_all(records).unwrap());
        let mut queued = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy());
        let added = queued
            .build_from_queue(rx, |r| {
                if r.id().ends_with(['0', '2', '4']) {
                    100
                } else {
                    101
                }
            })
            .unwrap();
        producer.join().unwrap();
        assert_eq!(added, 6);
        let queued_db = queued.finish();
        assert_eq!(direct_db.target_count(), queued_db.target_count());
        assert_eq!(direct_db.total_locations(), queued_db.total_locations());
    }

    /// The window-by-window build the batch replaced, spelled out: every
    /// feature of every window handed to `HostHashTable::insert` as soon as
    /// its window is sketched. Returns the counters it would have reported.
    fn insert_per_location(
        table: &mut HostHashTable,
        config: &MetaCacheConfig,
        record: &SequenceRecord,
        target_id: TargetId,
    ) -> SketchCounts {
        let sketcher = Sketcher::new(config).unwrap();
        let mut counts = SketchCounts::default();
        for (window, sketch) in sketcher.sketch_reference(&record.sequence) {
            counts.windows += 1;
            for &feature in sketch.features() {
                match table.insert(feature, Location::new(target_id, window)) {
                    Ok(()) => counts.inserted += 1,
                    Err(TableError::ValueLimitReached) => counts.dropped += 1,
                    Err(e) => panic!("fatal table error: {e}"),
                }
            }
        }
        counts
    }

    /// Every partition's buckets, partition by partition.
    fn buckets_of(db: &Database) -> Vec<Vec<(Feature, Vec<Location>)>> {
        let partition_buckets = |partition: &Partition| {
            let mut buckets = Vec::new();
            partition
                .table
                .for_each_bucket(|feature, bucket| {
                    buckets.push((feature, bucket.to_vec()));
                    Ok::<(), ()>(())
                })
                .unwrap();
            buckets
        };
        db.partitions.iter().map(partition_buckets).collect()
    }

    fn saved_bytes(db: &Database, tag: &str) -> Vec<Vec<u8>> {
        let dir = std::env::temp_dir().join(format!("metacache_build_{tag}"));
        let report = crate::serialize::save(db, &dir, "db").unwrap();
        let bytes = report
            .files
            .iter()
            .map(|f| std::fs::read(f).unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    }

    #[test]
    fn batched_build_and_delta_equal_per_location_insertion() {
        // A cap of 3 with a repeat-rich target in the mix, so the order in
        // which locations reach a bucket decides which of them are dropped.
        let config = MetaCacheConfig {
            max_locations_per_feature: 3,
            ..MetaCacheConfig::for_tests()
        };
        let repeat: Vec<u8> = make_seq(700, 9)
            .iter()
            .cycle()
            .take(9_000)
            .copied()
            .collect();
        let mut shared = make_seq(6_000, 1);
        shared.extend_from_slice(&repeat[..2_000]);
        let records = [
            SequenceRecord::new("a", shared),
            SequenceRecord::new("rep", repeat.clone()),
            SequenceRecord::new(
                "n",
                [&make_seq(300, 4)[..], &[b'N'; 500], &make_seq(40, 5)].concat(),
            ),
            SequenceRecord::new("short", make_seq(10, 6)),
        ];
        let delta_records = [
            SequenceRecord::new("d0", [&make_seq(5_000, 1)[..], &repeat[..3_000]].concat()),
            SequenceRecord::new("d1", make_seq(3_000, 21)),
        ];

        // Build: batch path against per-location insertion.
        let mut builder = CpuBuilder::new(config, taxonomy());
        let mut table = HostHashTable::new(config.max_locations_per_feature);
        let mut expected = BuildStats::default();
        for (id, record) in records.iter().enumerate() {
            builder.add_target(record.clone(), 100).unwrap();
            let counts = insert_per_location(&mut table, &config, record, id as TargetId);
            expected.targets += 1;
            expected.windows += counts.windows;
            expected.locations_inserted += counts.inserted;
            expected.locations_dropped += counts.dropped;
        }
        assert_eq!(builder.stats(), expected);
        assert!(expected.locations_dropped > 0, "the cap must bite");
        let mut batched = builder.finish();
        table.compact();
        let mut reference = Database {
            config,
            targets: batched.targets.clone(),
            taxonomy: taxonomy(),
            lineages: taxonomy().lineage_cache(),
            partitions: vec![Partition {
                table,
                targets: batched.partitions[0].targets.clone(),
            }],
        };
        assert_eq!(buckets_of(&batched), buckets_of(&reference));
        assert_eq!(
            saved_bytes(&batched, "batched"),
            saved_bytes(&reference, "reference")
        );

        // Delta onto the finished (packed) database, same comparison.
        let mut delta = crate::DatabaseDelta::new();
        let mut expected = crate::DeltaStats::default();
        for (i, record) in delta_records.iter().enumerate() {
            delta.add_target(record.clone(), 101);
            let id = (records.len() + i) as TargetId;
            let table = &mut reference.partitions[0].table;
            let counts = insert_per_location(table, &config, record, id);
            expected.targets_added += 1;
            expected.windows_sketched += counts.windows;
            expected.locations_inserted += counts.inserted;
            expected.locations_dropped += counts.dropped;
        }
        assert_eq!(batched.apply_delta(delta).unwrap(), expected);
        assert!(
            expected.locations_dropped > 0,
            "the cap must bite the delta"
        );
        reference.targets = batched.targets.clone();
        reference.partitions[0].targets = batched.partitions[0].targets.clone();
        assert_eq!(buckets_of(&batched), buckets_of(&reference));
        assert_eq!(
            saved_bytes(&batched, "batched_delta"),
            saved_bytes(&reference, "reference_delta")
        );
    }

    #[test]
    fn threaded_build_equals_the_sequential_insert_loop_for_any_inserter_count() {
        // Repeats shared across targets, so at cap 3 the order in which
        // locations reach a bucket decides which of them are dropped; more
        // targets than the queues hold, so the sketcher runs ahead.
        let repeat: Vec<u8> = make_seq(700, 9)
            .iter()
            .cycle()
            .take(4_000)
            .copied()
            .collect();
        let records: Vec<SequenceRecord> = (0..12)
            .map(|i| {
                let mut sequence = make_seq(2_000 + 300 * i, i as u64 + 1);
                sequence.extend_from_slice(&repeat[..1_000 * (i % 5)]);
                SequenceRecord::new(format!("t{i}"), sequence)
            })
            .collect();
        let taxon = |i: usize| 100 + i as TaxonId % 2;
        for cap in [3, 254] {
            let config = MetaCacheConfig {
                max_locations_per_feature: cap,
                ..MetaCacheConfig::for_tests()
            };
            // The reference: `Database::insert_target`'s one-thread loop.
            let mut reference = Database {
                config,
                targets: Vec::new(),
                taxonomy: taxonomy(),
                lineages: taxonomy().lineage_cache(),
                partitions: vec![Partition {
                    table: HostHashTable::new(cap),
                    targets: Vec::new(),
                }],
            };
            let mut delta = crate::DatabaseDelta::new();
            for (i, record) in records.iter().enumerate() {
                delta.add_target(record.clone(), taxon(i));
            }
            let expected = reference.apply_delta(delta).unwrap();
            assert_eq!(expected.locations_dropped > 0, cap == 3, "cap {cap}");
            let expected_bytes = saved_bytes(&reference, &format!("sequential_cap{cap}"));

            for inserters in [1, 2, 3, 7] {
                let mut builder = CpuBuilder::with_inserters(
                    config,
                    taxonomy(),
                    NonZeroUsize::new(inserters).unwrap(),
                );
                for (i, record) in records.iter().enumerate() {
                    builder.add_target(record.clone(), taxon(i)).unwrap();
                }
                // Right after the last `add_target`: waits for the queues.
                let stats = builder.stats();
                assert_eq!(
                    (
                        stats.targets,
                        stats.windows,
                        stats.locations_inserted,
                        stats.locations_dropped
                    ),
                    (
                        expected.targets_added,
                        expected.windows_sketched,
                        expected.locations_inserted,
                        expected.locations_dropped
                    ),
                    "W = {inserters}, cap {cap}"
                );
                let db = builder.finish();
                let bytes = saved_bytes(&db, &format!("w{inserters}_cap{cap}"));
                assert!(bytes == expected_bytes, "W = {inserters}, cap {cap}");
            }
        }
    }

    #[test]
    fn cpu_location_cap_drops_repetitive_features() {
        // A highly repetitive reference generates the same features in many
        // windows; the 254-location cap must kick in.
        let config = MetaCacheConfig {
            max_locations_per_feature: 16,
            ..MetaCacheConfig::for_tests()
        };
        let repetitive: Vec<u8> = make_seq(500, 3)
            .iter()
            .cycle()
            .take(100_000)
            .copied()
            .collect();
        let mut builder = CpuBuilder::new(config, taxonomy());
        builder
            .add_target(SequenceRecord::new("rep", repetitive), 100)
            .unwrap();
        assert!(builder.stats().locations_dropped > 0);
    }

    #[test]
    fn gpu_build_partitions_targets_across_devices() {
        let system = MultiGpuSystem::dgx1(4);
        let records: Vec<SequenceRecord> = (0..8)
            .map(|i| SequenceRecord::new(format!("g{i}"), make_seq(8_000, i as u64 + 10)))
            .collect();
        let expected = estimate_locations(&MetaCacheConfig::for_tests(), &records);
        let mut builder = GpuBuilder::new(
            MetaCacheConfig::for_tests(),
            taxonomy(),
            &system,
            expected / 4 + 1024,
        )
        .unwrap();
        builder
            .add_records(records, |r| {
                if r.id().as_bytes()[1] % 2 == 0 {
                    100
                } else {
                    101
                }
            })
            .unwrap();
        let stats = builder.stats();
        assert!(stats.sim_build_time > SimDuration::ZERO);
        assert!(stats.bytes_to_device >= 8 * 8_000);
        let db = builder.finish();
        assert_eq!(db.partition_count(), 4);
        assert_eq!(db.target_count(), 8);
        // Every partition got 2 of the 8 targets (round-robin assignment).
        for p in &db.partitions {
            assert_eq!(p.targets.len(), 2);
        }
        // No target appears in two partitions.
        let mut all: Vec<TargetId> = db
            .partitions
            .iter()
            .flat_map(|p| p.targets.clone())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn gpu_build_fails_when_partition_exceeds_device_memory() {
        // Devices with only 1 MB cannot hold a table sized for millions of
        // locations — mirrors "AFS31+RefSeq202 did not fit in the memory of 4
        // V100 GPUs".
        let system = MultiGpuSystem::new(
            (0..2)
                .map(|i| mc_gpu_sim::DeviceInfo::with_capacity(i, 1 << 20))
                .collect(),
            mc_gpu_sim::Topology::DenseNvlink,
        );
        let result = GpuBuilder::new(
            MetaCacheConfig::for_tests(),
            taxonomy(),
            &system,
            10_000_000,
        );
        assert!(matches!(result, Err(MetaCacheError::Device(_))));
    }

    #[test]
    fn gpu_and_cpu_builds_store_same_location_counts_without_capping() {
        let system = MultiGpuSystem::dgx1(2);
        let records: Vec<SequenceRecord> = (0..4)
            .map(|i| SequenceRecord::new(format!("g{i}"), make_seq(6_000, i as u64 + 30)))
            .collect();
        let config = MetaCacheConfig::for_tests();
        let mut cpu = CpuBuilder::new(config, taxonomy());
        cpu.add_records(records.clone(), |_| 100).unwrap();
        let expected = estimate_locations(&config, &records);
        let mut gpu = GpuBuilder::new(config, taxonomy(), &system, expected).unwrap();
        gpu.add_records(records, |_| 100).unwrap();
        assert_eq!(
            cpu.stats().locations_inserted + cpu.stats().locations_dropped,
            gpu.stats().locations_inserted + gpu.stats().locations_dropped
        );
        let cpu_db = cpu.finish();
        let gpu_db = gpu.finish();
        assert_eq!(cpu_db.total_locations(), gpu_db.total_locations());
    }

    /// A 2-device GPU build at `cap`: six targets, round-robin over the
    /// devices, sharing a random stretch and a short-period repeat across
    /// both devices. Every window of the repeat has the same sketch, and
    /// device 0 holds enough of it that the cap bites at 254 too. Also
    /// returns a delta of more of both.
    fn gpu_fixture(cap: usize) -> (Database, BuildStats, crate::DatabaseDelta) {
        let config = MetaCacheConfig {
            max_locations_per_feature: cap,
            ..MetaCacheConfig::for_tests()
        };
        let hot: Vec<u8> = make_seq(90, 7)
            .iter()
            .cycle()
            .take(30_000)
            .copied()
            .collect();
        let shared = make_seq(2_500, 8);
        let records: Vec<SequenceRecord> = (0..6)
            .map(|i| {
                let mut sequence = make_seq(3_000 + 400 * i, 60 + i as u64);
                sequence.extend_from_slice(&shared[..500 * i]);
                match i {
                    2 => sequence.extend_from_slice(&hot),
                    3 => sequence.extend_from_slice(&hot[..6_000]),
                    _ => {}
                }
                SequenceRecord::new(format!("g{i}"), sequence)
            })
            .collect();
        let system = MultiGpuSystem::dgx1(2);
        let expected = estimate_locations(&config, &records);
        let mut builder = GpuBuilder::new(config, taxonomy(), &system, expected).unwrap();
        for (i, record) in records.into_iter().enumerate() {
            builder.add_target(record, 100 + i as TaxonId % 2).unwrap();
        }
        let stats = builder.stats();
        let mut delta = crate::DatabaseDelta::new();
        // Target 6 joins the hot target on device 0, target 7 device 1.
        delta.add_target(
            SequenceRecord::new("d0", [&make_seq(2_500, 80)[..], &hot[..12_000]].concat()),
            100,
        );
        delta.add_target(
            SequenceRecord::new("d1", [&shared[..], &make_seq(2_000, 81)].concat()),
            101,
        );
        (builder.finish(), stats, delta)
    }

    /// FNV-1a of a byte string.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A GPU-built database is the packed table a save writes and a load
    /// reads back: the same size, buckets and counts as its loaded copy, with
    /// the builder's counters agreeing, and a delta applied to either leaves
    /// the same files and counters.
    #[test]
    fn gpu_build_equals_its_saved_and_loaded_copy() {
        for cap in [3, 254] {
            let (mut built, stats, delta) = gpu_fixture(cap);
            assert!(stats.locations_dropped > 0, "cap {cap} must bite");
            assert_eq!(
                stats.locations_inserted,
                built.total_locations() as u64,
                "cap {cap}"
            );
            let dir = std::env::temp_dir().join(format!("metacache_build_gpu_copy_{cap}"));
            crate::serialize::save(&built, &dir, "db").unwrap();
            let loaded = crate::serialize::load(&dir, "db").unwrap();
            std::fs::remove_dir_all(&dir).ok();
            let mut loaded = Arc::try_unwrap(loaded).ok().expect("sole owner");
            assert_eq!(loaded.partition_count(), 2);
            assert_eq!(loaded.table_bytes(), built.table_bytes(), "cap {cap}");
            assert_eq!(
                loaded.total_locations(),
                built.total_locations(),
                "cap {cap}"
            );
            assert!(buckets_of(&loaded) == buckets_of(&built), "cap {cap}");

            let built_delta = built.apply_delta(delta.clone()).unwrap();
            assert!(
                built_delta.locations_dropped > 0,
                "cap {cap} must bite the delta"
            );
            assert_eq!(loaded.apply_delta(delta).unwrap(), built_delta, "cap {cap}");
            assert!(
                saved_bytes(&built, &format!("gpu_built_delta_{cap}"))
                    == saved_bytes(&loaded, &format!("gpu_loaded_delta_{cap}")),
                "cap {cap}"
            );
        }
    }

    /// The table files of the GPU fixture, pinned: a change to the device
    /// table, the pack at `finish` or the file layout that reached a saved
    /// GPU-built database would show here.
    #[test]
    fn gpu_built_cache_files_are_pinned() {
        let pinned = [
            (
                3,
                [
                    (32_544, 8_798_555_605_621_051_647),
                    (37_632, 17_239_138_454_536_319_336),
                ],
            ),
            (
                254,
                [
                    (64_672, 7_520_971_836_573_760_975),
                    (44_112, 935_105_117_414_376_260),
                ],
            ),
        ];
        for (cap, files) in pinned {
            let (db, _, _) = gpu_fixture(cap);
            let saved = saved_bytes(&db, &format!("gpu_pinned_{cap}"));
            // `.meta` first, then `.cache0` and `.cache1`.
            let caches: Vec<(usize, u64)> =
                saved[1..].iter().map(|c| (c.len(), fnv1a(c))).collect();
            assert_eq!(caches, files, "cap {cap}");
        }
    }

    #[test]
    fn estimate_locations_is_close_to_actual() {
        let config = MetaCacheConfig::for_tests();
        let records: Vec<SequenceRecord> = (0..3)
            .map(|i| SequenceRecord::new(format!("e{i}"), make_seq(20_000, i as u64 + 50)))
            .collect();
        let estimate = estimate_locations(&config, &records);
        let mut builder = CpuBuilder::new(config, taxonomy());
        builder.add_records(records, |_| 100).unwrap();
        let actual = builder.stats().locations_inserted + builder.stats().locations_dropped;
        let ratio = estimate as f64 / actual as f64;
        assert!(
            ratio > 0.95 && ratio < 1.3,
            "estimate {estimate} vs actual {actual}"
        );
    }
}
