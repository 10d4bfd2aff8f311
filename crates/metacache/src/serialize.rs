//! Database serialization: the `.meta` / `.cache` file layout.
//!
//! "After database construction has finished, the taxonomic meta information
//! as well as the hash table are written to the file system" (§4.1), and on
//! load "a condensed form of the hash table is used where all buckets of
//! target locations are loaded into one large contiguous array" (§4.2) —
//! here the packed state of the one host table
//! ([`mc_warpcore::HostHashTable`]): [`save`] writes buckets straight out of
//! it, [`load`] reads them straight into the arena of one (the index is
//! filled once the file is read), and a loaded table is the type and state a
//! build finishes with.
//! Figure 2 names the files `database.meta` (metadata), `database.cache0`,
//! `database.cache1`, … (one per partition). We keep exactly that layout:
//!
//! * `<name>.meta` — JSON: configuration, target table, taxonomy,
//! * `<name>.cache<i>` — binary, little-endian: magic and bucket count, then
//!   for every feature of partition `i`, ascending, the feature, its bucket
//!   length and the packed locations.
//!
//! A database is built once and loaded where it is served: [`load_parts`]
//! reads `.meta` and only the `.cache` files asked for — all of them
//! ([`load`]), partition `k` alone (a shard server's part) or none (the
//! metadata a router classifies against).
//!
//! A load reads each `.cache` file front to back in 64 KiB blocks and parses
//! headers and locations straight from each block, checking every bucket as
//! it enters, and fills the table's index only once the whole arena is read.
//!
//! The files are outside input: a load checks every count against the
//! file's length before allocating for it, and fails with
//! [`MetaCacheError::Format`] rather than a panic or an allocation abort.
//! [`save`] refuses, before it writes a file, a database a load would refuse
//! for its configuration or a bucket over the location cap.

use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mc_kmer::{Feature, Location};
use mc_taxonomy::Taxonomy;
use mc_warpcore::{FeatureStore, HostHashTable};

use crate::config::MetaCacheConfig;
use crate::database::{Database, Partition, TargetInfo};
use crate::error::MetaCacheError;

/// Magic bytes at the start of every `.cache` partition file.
const CACHE_MAGIC: &[u8; 8] = b"MCCACHE1";

/// Bytes a load reads from a `.cache` file at a time, then parses from the
/// block's slice. A bucket is 8 bytes of header and 8 per location, so an
/// 8 KiB block would end every two hundred or so buckets of a dense file,
/// each refill a system call; 64 KiB makes eight times fewer, without
/// holding the file in memory beside the arena it becomes.
const READ_BLOCK: usize = 64 << 10;

/// The JSON metadata stored in `<name>.meta`.
#[derive(Debug, Serialize, Deserialize)]
struct MetaFile {
    config: MetaCacheConfig,
    targets: Vec<TargetInfo>,
    taxonomy: Taxonomy,
    partition_targets: Vec<Vec<u32>>,
    partition_count: usize,
}

/// Report of a completed save: file paths and sizes (the "DB size" column of
/// Table 3 is the sum of these sizes).
#[derive(Debug, Clone, Default)]
pub struct SaveReport {
    /// Paths of all written files (`.meta` first).
    pub files: Vec<PathBuf>,
    /// Total bytes written.
    pub total_bytes: u64,
}

/// Save a database into `dir` under the base name `name`.
pub fn save(
    db: &Database,
    dir: impl AsRef<Path>,
    name: &str,
) -> Result<SaveReport, MetaCacheError> {
    // What a load of the files would refuse is refused here, before any
    // file is written: a split of a multi-device build may merge buckets
    // past the build's cap.
    let cap = db.config.validated()?.max_locations_per_feature;
    for partition in &db.partitions {
        if let Some((feature, locations)) = partition.table.longest_bucket() {
            if locations > cap {
                return Err(MetaCacheError::OverCap {
                    feature,
                    locations,
                    cap,
                });
            }
        }
    }
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut report = SaveReport::default();

    // Metadata file.
    let meta = MetaFile {
        config: db.config,
        targets: db.targets.clone(),
        taxonomy: db.taxonomy.clone(),
        partition_targets: db.partitions.iter().map(|p| p.targets.clone()).collect(),
        partition_count: db.partitions.len(),
    };
    let meta_path = dir.join(format!("{name}.meta"));
    let meta_json = serde_json::to_vec(&meta)
        .map_err(|e| MetaCacheError::Format(format!("metadata serialization failed: {e}")))?;
    std::fs::write(&meta_path, &meta_json)?;
    report.total_bytes += meta_json.len() as u64;
    report.files.push(meta_path);

    // One cache file per partition.
    for (i, partition) in db.partitions.iter().enumerate() {
        let path = dir.join(format!("{name}.cache{i}"));
        let file = std::fs::File::create(&path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(CACHE_MAGIC)?;
        let bucket_count = partition.table.key_count() as u64;
        writer.write_all(&bucket_count.to_le_bytes())?;
        let mut bytes_written = 16u64;
        partition.table.for_each_bucket(|feature, bucket| {
            writer.write_all(&feature.to_le_bytes())?;
            writer.write_all(&(bucket.len() as u32).to_le_bytes())?;
            for location in bucket {
                writer.write_all(&location.pack().to_le_bytes())?;
            }
            bytes_written += 8 + 8 * bucket.len() as u64;
            std::io::Result::Ok(())
        })?;
        writer.flush()?;
        report.total_bytes += bytes_written;
        report.files.push(path);
    }
    Ok(report)
}

/// Which `.cache` files [`load_parts`] reads; `.meta` is always read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parts {
    /// Every partition: the database as it was saved.
    All,
    /// Partition `k` alone: the database [`Database::into_parts`] gives as
    /// part `k` of the saved one, what a shard server holds.
    One(usize),
    /// No partition: the database [`Database::metadata_view`] gives, what a
    /// router classifies against.
    Metadata,
}

/// Load a database saved with [`save`]: every partition, through
/// [`load_parts`].
pub fn load(dir: impl AsRef<Path>, name: &str) -> Result<Arc<Database>, MetaCacheError> {
    load_parts(dir, name, Parts::All).map(|(db, _)| db)
}

/// Load the metadata and the partitions `parts` names of a database saved
/// with [`save`], and return it with the number of partitions the files
/// hold. Every partition read is loaded into a packed host table (§4.2), as
/// a build or a split leaves it. A partition index at or past that number is
/// [`MetaCacheError::NoSuchPart`].
///
/// The database is returned behind an [`Arc`]: a loaded database is the
/// shared, read-only artefact the serving stack multiplexes over
/// (classifiers, backends and the [`crate::serving::ServingEngine`] all
/// co-own it), so ownership starts shared at the load boundary.
pub fn load_parts(
    dir: impl AsRef<Path>,
    name: &str,
    parts: Parts,
) -> Result<(Arc<Database>, usize), MetaCacheError> {
    let dir = dir.as_ref();
    let meta_path = dir.join(format!("{name}.meta"));
    let meta_json = std::fs::read(&meta_path)?;
    let mut meta: MetaFile = serde_json::from_slice(&meta_json)
        .map_err(|e| MetaCacheError::Format(format!("metadata parse error: {e}")))?;
    // The file is outside input: a configuration no build would accept must
    // fail here, not as a panic in the first classifier over the database.
    let config = meta.config.validated()?;

    // `save` writes one target list per partition; a count that disagrees
    // must not size the allocation below.
    let part_count = meta.partition_count;
    if part_count != meta.partition_targets.len() {
        return Err(MetaCacheError::Format(format!(
            "{}: {part_count} partitions but {} target lists",
            meta_path.display(),
            meta.partition_targets.len()
        )));
    }
    let read = match parts {
        Parts::All => 0..part_count,
        Parts::One(part) if part < part_count => part..part + 1,
        Parts::One(part) => return Err(MetaCacheError::NoSuchPart { part, part_count }),
        Parts::Metadata => 0..0,
    };
    let mut partitions = Vec::with_capacity(read.len());
    for i in read {
        let path = dir.join(format!("{name}.cache{i}"));
        partitions.push(Partition {
            table: load_table(&path, config.max_locations_per_feature)?,
            targets: std::mem::take(&mut meta.partition_targets[i]),
        });
    }

    let lineages = meta.taxonomy.lineage_cache();
    let db = Database {
        config,
        targets: meta.targets,
        taxonomy: meta.taxonomy,
        lineages,
        partitions,
    };
    Ok((Arc::new(db), part_count))
}

/// Read one `.cache` file into a packed host table: the buckets, back to
/// back, are the table's arena as they stand. The file's length bounds its
/// bucket count and says how many locations that count leaves room for, so
/// nothing is allocated that the file has not paid for in bytes; every bucket
/// is then checked against that budget, the location cap and ascending
/// feature order (no feature twice).
fn load_table(path: &Path, max_locations: usize) -> Result<HostHashTable, MetaCacheError> {
    let bad = |what: String| MetaCacheError::Format(format!("{}: {what}", path.display()));
    let mut file = std::fs::File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut head = [0u8; 16];
    let has_magic = file_bytes >= 16 && {
        file.read_exact(&mut head)?;
        head[..8] == CACHE_MAGIC[..]
    };
    if !has_magic {
        return Err(bad("not a MetaCache cache file".into()));
    }
    let bucket_count = u64::from_le_bytes(head[8..].try_into().expect("8-byte word"));
    // 16 bytes of file header, 8 of header per bucket, 8 per location.
    let locations = bucket_count
        .checked_mul(8)
        .and_then(|headers| (file_bytes - 16).checked_sub(headers))
        .filter(|bytes| bytes % 8 == 0)
        .ok_or_else(|| {
            bad(format!(
                "{bucket_count} buckets do not fit {file_bytes} bytes"
            ))
        })?
        / 8;
    let body = file.take(file_bytes - 16);
    read_table(body, bucket_count, locations, max_locations, bad)
}

/// Parse the `bucket_count` buckets of a `.cache` body holding `locations`
/// locations in all, reading [`READ_BLOCK`] bytes at a time and taking the
/// headers and locations out of each block's slice. A word cut by a block's
/// edge is carried to the front of the next block, and a bucket's locations
/// continue there.
fn read_table(
    mut body: impl Read,
    bucket_count: u64,
    mut locations_left: u64,
    max_locations: usize,
    bad: impl Fn(String) -> MetaCacheError,
) -> Result<HostHashTable, MetaCacheError> {
    let mut buckets = Vec::with_capacity(bucket_count as usize);
    let mut arena = Vec::with_capacity(locations_left as usize);
    let mut block = vec![0u8; READ_BLOCK];
    // Bytes of a cut word at the front of `block`, and the locations the
    // last bucket read still has to come.
    let (mut carried, mut bucket_left) = (0, 0u64);
    let mut previous = None;
    while buckets.len() as u64 != bucket_count || bucket_left != 0 {
        let read = body.read(&mut block[carried..])?;
        if read == 0 {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        let filled = carried + read;
        let whole = filled - filled % 8;
        let mut words = &block[..whole];
        while !words.is_empty() {
            if bucket_left == 0 {
                if buckets.len() as u64 == bucket_count {
                    break;
                }
                let (word, rest) = words.split_at(8);
                words = rest;
                // Little-endian: the feature is the low half, the length the high.
                let header = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                let (feature, len) = (header as Feature, header >> 32);
                let in_order = previous.replace(feature).is_none_or(|p| p < feature);
                if !in_order || len == 0 || len > max_locations as u64 || len > locations_left {
                    return Err(bad(format!(
                        "feature {feature} is out of order, or its bucket of {len} locations is \
                         empty, over the cap of {max_locations} or longer than the rest of the file"
                    )));
                }
                locations_left -= len;
                bucket_left = len;
                buckets.push((feature, len as u32));
            }
            let take = (words.len() / 8).min(bucket_left as usize);
            let (locations, rest) = words.split_at(8 * take);
            arena.extend(locations.chunks_exact(8).map(|bytes| {
                Location::unpack(u64::from_le_bytes(bytes.try_into().expect("8-byte chunk")))
            }));
            words = rest;
            bucket_left -= take as u64;
        }
        block.copy_within(whole..filled, 0);
        carried = filled - whole;
    }
    if locations_left != 0 {
        return Err(bad(format!(
            "{} bytes after the last bucket",
            locations_left * 8
        )));
    }
    Ok(HostHashTable::from_packed(max_locations, &buckets, arena)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
    use crate::query::Classifier;
    use mc_seqio::SequenceRecord;
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

    fn build_db() -> (Database, Vec<u8>) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let genome_a = make_seq(12_000, 1);
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("a", genome_a.clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("b", make_seq(9_000, 2)), 101)
            .unwrap();
        (builder.finish(), genome_a)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("metacache_serialize_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_creates_meta_and_cache_files() {
        let (db, _) = build_db();
        let dir = temp_dir("save");
        let report = save(&db, &dir, "testdb").unwrap();
        assert_eq!(report.files.len(), 1 + db.partition_count());
        assert!(report.files[0].ends_with("testdb.meta"));
        assert!(report.total_bytes > 1000);
        for f in &report.files {
            assert!(f.exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_preserves_classification_behaviour() {
        let (db, genome_a) = build_db();
        let dir = temp_dir("roundtrip");
        save(&db, &dir, "db").unwrap();
        let loaded = load(&dir, "db").unwrap();
        assert_eq!(loaded.target_count(), db.target_count());
        assert_eq!(loaded.total_locations(), db.total_locations());
        // One host table: the loaded copy is in the packed state the build
        // finished with, byte for byte as large.
        assert_eq!(loaded.table_bytes(), db.table_bytes());
        assert_eq!(loaded.taxonomy.len(), db.taxonomy.len());

        // Classifications must be identical between the in-memory (OTF) and
        // the loaded database.
        let original = Classifier::new(&db);
        let reloaded = Classifier::new(Arc::clone(&loaded));
        for offset in [100usize, 2_000, 7_333] {
            let read = SequenceRecord::new("r", genome_a[offset..offset + 120].to_vec());
            assert_eq!(original.classify(&read), reloaded.classify(&read));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let (db, _) = build_db();
        let dir = temp_dir("resave");
        let first = save(&db, &dir, "first").unwrap();
        let loaded = load(&dir, "first").unwrap();
        let second = save(&loaded, &dir, "second").unwrap();
        assert_eq!(first.total_bytes, second.total_bytes);
        for (a, b) in first.files.iter().zip(&second.files) {
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "{} differs after a load → save round trip",
                a.display()
            );
        }
        // The table file of this fixture, pinned: a change to the table's
        // slot mapping or bucket order that reached the file would orphan
        // every saved database. (FNV-1a; the value predates the
        // division-free probe walk and the one host table.)
        let cache = std::fs::read(&first.files[1]).unwrap();
        let fnv = cache.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((cache.len(), fnv), (48_160, 9_247_922_593_616_143_622));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_an_invalid_config_in_the_meta_file() {
        let (db, _) = build_db();
        let dir = temp_dir("badconfig");
        save(&db, &dir, "db").unwrap();
        let meta_path = dir.join("db.meta");
        let meta = std::fs::read_to_string(&meta_path).unwrap();
        let k = format!("\"kmer_len\":{}", db.config.kmer_len);
        assert!(
            meta.contains(&k),
            "fixture .meta spells the k-mer length as {k}"
        );
        // k = 40 does not fit a 64-bit packed k-mer; before the check this
        // loaded fine and panicked in `Classifier::new`.
        std::fs::write(&meta_path, meta.replace(&k, "\"kmer_len\":40")).unwrap();
        assert!(matches!(load(&dir, "db"), Err(MetaCacheError::Config(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_missing_or_corrupt_files_errors() {
        let dir = temp_dir("corrupt");
        assert!(load(&dir, "missing").is_err());
        // Write a meta file with a partition whose cache file is garbage.
        let (db, _) = build_db();
        save(&db, &dir, "bad").unwrap();
        std::fs::write(dir.join("bad.cache0"), b"not a cache file").unwrap();
        assert!(matches!(
            load(&dir, "bad"),
            Err(MetaCacheError::Format(_)) | Err(MetaCacheError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Save the fixture, let `corrupt` rewrite its `.cache0` bytes, load.
    fn load_corrupted(
        tag: &str,
        corrupt: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Arc<Database>, MetaCacheError> {
        let (db, _) = build_db();
        let dir = temp_dir(tag);
        save(&db, &dir, "db").unwrap();
        let cache_path = dir.join("db.cache0");
        let mut cache = std::fs::read(&cache_path).unwrap();
        corrupt(&mut cache);
        std::fs::write(&cache_path, cache).unwrap();
        let loaded = load(&dir, "db");
        std::fs::remove_dir_all(&dir).ok();
        loaded
    }

    fn is_format_error(loaded: Result<Arc<Database>, MetaCacheError>) -> bool {
        matches!(loaded, Err(MetaCacheError::Format(_)))
    }

    /// A one-bucket table file: feature 5 with `len` locations.
    fn one_bucket_file(len: u32) -> Vec<u8> {
        let mut file = CACHE_MAGIC.to_vec();
        file.extend_from_slice(&1u64.to_le_bytes());
        file.extend_from_slice(&5u32.to_le_bytes());
        file.extend_from_slice(&len.to_le_bytes());
        for window in 0..len {
            file.extend_from_slice(&Location::new(0, window).pack().to_le_bytes());
        }
        file
    }

    #[test]
    fn truncated_cache_files_are_format_errors() {
        // Every section boundary of the header and the first two buckets,
        // one byte either side of a few, and every 97th bucket boundary on to
        // the last.
        let (db, _) = build_db();
        let mut cuts = vec![0usize, 1, 7, 8, 9, 15, 16];
        let mut offset = 16;
        let mut buckets = 0;
        let every_bucket = |_, bucket: &[Location]| {
            if buckets < 2 {
                cuts.extend([offset + 3, offset + 4, offset + 8]);
                cuts.extend((1..=bucket.len()).map(|l| offset + 8 + 8 * l - 1));
            }
            offset += 8 + 8 * bucket.len();
            if buckets < 2 || buckets % 97 == 0 {
                cuts.push(offset);
            }
            buckets += 1;
            Ok::<(), ()>(())
        };
        db.partitions[0]
            .table
            .for_each_bucket(every_bucket)
            .unwrap();
        let last_bucket_start = cuts.pop().unwrap();
        assert!(last_bucket_start < offset);
        cuts.extend([last_bucket_start, offset - 8, offset - 1]);
        for cut in cuts {
            let loaded = load_corrupted("truncated", |cache| {
                assert_eq!(cache.len(), offset, "the walk above mirrors the file");
                cache.truncate(cut);
            });
            assert!(is_format_error(loaded), "file cut to {cut} bytes");
        }
    }

    #[test]
    fn hostile_counts_are_format_errors_not_allocations() {
        let put = |at: usize, bytes: &[u8]| {
            let bytes = bytes.to_vec();
            move |cache: &mut Vec<u8>| cache[at..at + bytes.len()].copy_from_slice(&bytes)
        };
        // A bucket count no file could hold, one the arithmetic cannot even
        // multiply, and the largest this file's length admits (which leaves
        // the first bucket no room for its locations).
        for count in [u64::MAX, u64::MAX / 8 + 1, 1 << 40] {
            let loaded = load_corrupted("count", put(8, &count.to_le_bytes()));
            assert!(is_format_error(loaded), "bucket count {count}");
        }
        let loaded = load_corrupted("count_fits", |cache| {
            let most = (cache.len() as u64 - 16) / 8;
            cache[8..16].copy_from_slice(&most.to_le_bytes());
        });
        assert!(is_format_error(loaded));
        // One bucket more, or fewer, than the file holds.
        for delta in [1u64, u64::MAX] {
            let loaded = load_corrupted("count_off", |cache| {
                let count = u64::from_le_bytes(cache[8..16].try_into().unwrap());
                cache[8..16].copy_from_slice(&count.wrapping_add(delta).to_le_bytes());
            });
            assert!(is_format_error(loaded), "bucket count off by {delta}");
        }
        // The first bucket's length: huge, and empty.
        for len in [u32::MAX, 0] {
            let loaded = load_corrupted("len", put(20, &len.to_le_bytes()));
            assert!(is_format_error(loaded), "bucket length {len}");
        }
        // A bucket one past the location cap is refused where it enters, not
        // truncated; one at the cap loads.
        let cap = MetaCacheConfig::for_tests().max_locations_per_feature as u32;
        let loaded = load_corrupted("cap", |cache| *cache = one_bucket_file(cap)).unwrap();
        assert_eq!(loaded.total_locations(), cap as usize);
        let loaded = load_corrupted("cap_plus_one", |cache| *cache = one_bucket_file(cap + 1));
        assert!(is_format_error(loaded));
        // A `.meta` partition count its target lists do not match: one no
        // allocation could hold, and one more than the file lists.
        for count in [1u64 << 60, 2] {
            let (db, _) = build_db();
            let dir = temp_dir("partition_count");
            save(&db, &dir, "db").unwrap();
            let meta_path = dir.join("db.meta");
            let meta = std::fs::read_to_string(&meta_path).unwrap();
            let one = "\"partition_count\":1}";
            assert!(
                meta.contains(one),
                "fixture .meta spells one partition as {one}"
            );
            let hostile = format!("\"partition_count\":{count}}}");
            std::fs::write(&meta_path, meta.replace(one, &hostile)).unwrap();
            assert!(is_format_error(load(&dir, "db")), "{count} partitions");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_cache_file_of_many_read_blocks_round_trips() {
        // Four targets of 40 kb: a `.cache` of over three read blocks, so
        // that buckets straddle the reader's refills.
        let mut taxonomy = Taxonomy::with_root();
        for taxon in 100..104 {
            taxonomy.add_node(taxon, 1, Rank::Species, "s").unwrap();
        }
        let genomes: Vec<Vec<u8>> = (0..4).map(|i| make_seq(40_000, 10 + i)).collect();
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        for (taxon, genome) in (100..).zip(&genomes) {
            let record = SequenceRecord::new(format!("t{taxon}"), genome.clone());
            builder.add_target(record, taxon).unwrap();
        }
        let db = builder.finish();
        let dir = temp_dir("blocks");
        let first = save(&db, &dir, "first").unwrap();
        let cache_bytes = std::fs::metadata(&first.files[1]).unwrap().len();
        assert!(cache_bytes > 3 * READ_BLOCK as u64, "{cache_bytes} bytes");
        let loaded = load(&dir, "first").unwrap();
        let second = save(&loaded, &dir, "second").unwrap();
        for (a, b) in first.files.iter().zip(&second.files) {
            assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        }
        let (source, reloaded) = (Classifier::new(&db), Classifier::new(Arc::clone(&loaded)));
        for (i, genome) in genomes.iter().enumerate() {
            for offset in (0..genome.len() - 150).step_by(4_999) {
                let read = SequenceRecord::new("r", genome[offset..offset + 150].to_vec());
                let candidates = source.candidates(&read);
                assert!(!candidates.is_empty(), "target {i} at {offset}");
                assert_eq!(
                    candidates,
                    reloaded.candidates(&read),
                    "target {i} at {offset}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reader that hands out at most `step` bytes per call, so that block
    /// edges fall inside words.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn buckets_across_block_edges_load_whole() {
        // In words after the file header, blocks end every 8192: the first
        // bucket (16 383 locations) is longer than a block and ends where
        // the third block starts with the second header; the third header
        // is the last word of the third block, its locations in the fourth.
        let per_block = (READ_BLOCK / 8) as u32;
        let lengths = [2 * per_block - 1, per_block - 2, 3, 1, 700, 2];
        let cap = HostHashTable::MAX_BUCKET_LEN;
        let mut file = CACHE_MAGIC.to_vec();
        file.extend_from_slice(&(lengths.len() as u64).to_le_bytes());
        let mut expected = Vec::new();
        for (i, &len) in lengths.iter().enumerate() {
            let feature = 10 + 7 * i as Feature;
            file.extend_from_slice(&feature.to_le_bytes());
            file.extend_from_slice(&len.to_le_bytes());
            let bucket: Vec<Location> = (0..len).map(|w| Location::new(i as u32, w)).collect();
            for location in &bucket {
                file.extend_from_slice(&location.pack().to_le_bytes());
            }
            expected.push((feature, bucket));
        }
        // The second and third headers' word indices.
        assert_eq!(1 + lengths[0], 2 * per_block);
        assert_eq!(2 + lengths[0] + lengths[1], 3 * per_block - 1);

        let dir = temp_dir("block_edges");
        let path = dir.join("edges.cache0");
        std::fs::write(&path, &file).unwrap();
        let from_file = load_table(&path, cap).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let contents = |table: &HostHashTable| {
            let mut all = Vec::new();
            table
                .for_each_bucket(|feature, bucket| {
                    all.push((feature, bucket.to_vec()));
                    Ok::<(), ()>(())
                })
                .unwrap();
            all
        };
        assert_eq!(contents(&from_file), expected);
        // Reads that end inside words: headers and locations across edges.
        for step in [4_093, 8_005, READ_BLOCK - 3] {
            let body = Trickle {
                data: &file[16..],
                step,
            };
            let total = expected.iter().map(|(_, b)| b.len() as u64).sum();
            let table = read_table(body, lengths.len() as u64, total, cap, |what| {
                MetaCacheError::Format(what)
            })
            .unwrap();
            assert_eq!(contents(&table), expected, "step {step}");
        }
    }

    #[test]
    fn trailing_bytes_and_disordered_features_are_format_errors() {
        for garbage in [&[0u8; 8][..], &[0u8; 3], &[0xff; 16]] {
            let loaded = load_corrupted("trailing", |cache| cache.extend_from_slice(garbage));
            assert!(is_format_error(loaded), "{} trailing bytes", garbage.len());
        }
        // The first feature again as the second (both buckets keep their
        // lengths, so only the order check can see it), and the first above
        // every other.
        let loaded = load_corrupted("duplicate", |cache| {
            let first_len = u32::from_le_bytes(cache[20..24].try_into().unwrap()) as usize;
            let second = 24 + 8 * first_len;
            let feature: [u8; 4] = cache[16..20].try_into().unwrap();
            cache[second..second + 4].copy_from_slice(&feature);
        });
        assert!(is_format_error(loaded));
        let loaded = load_corrupted("disorder", |cache| cache[16..20].fill(0xff));
        assert!(is_format_error(loaded));
    }

    #[test]
    fn load_rejects_a_location_cap_no_bucket_reference_holds() {
        let (db, _) = build_db();
        let dir = temp_dir("bigcap");
        save(&db, &dir, "db").unwrap();
        let meta_path = dir.join("db.meta");
        let meta = std::fs::read_to_string(&meta_path).unwrap();
        let cap = format!(
            "\"max_locations_per_feature\":{}",
            db.config.max_locations_per_feature
        );
        assert!(meta.contains(&cap), "fixture .meta spells the cap as {cap}");
        let oversized = format!(
            "\"max_locations_per_feature\":{}",
            mc_warpcore::HostHashTable::MAX_BUCKET_LEN + 1
        );
        std::fs::write(&meta_path, meta.replace(&cap, &oversized)).unwrap();
        assert!(matches!(load(&dir, "db"), Err(MetaCacheError::Config(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
