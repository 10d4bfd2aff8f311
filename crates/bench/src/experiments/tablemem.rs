//! Hash-table memory comparison and parameter ablations.
//!
//! §6 of the paper: "In the 4 GPU configuration our Multi Bucket Hash Table
//! needed 10% and 11% less memory than WarpCore's Multi Value and Bucket List
//! Hash Table, respectively. It was the only hash table that could fit
//! RefSeq202 on 4 GPUs without further restricting the number of locations
//! per k-mer." This experiment inserts a realistic skewed k-mer location
//! distribution (generated from the synthetic reference set) into all three
//! device-table variants and compares the bytes needed to hold it, plus an
//! ablation over the multi-bucket slot width and the sketch size.

use serde::Serialize;

use mc_kmer::Location;
use mc_warpcore::{
    BucketListConfig, BucketListHashTable, ConcurrentInsert, MultiBucketConfig,
    MultiBucketHashTable, MultiValueConfig, MultiValueHashTable,
};
use metacache::sketch::Sketcher;
use metacache::MetaCacheConfig;

use crate::scale::ExperimentScale;
use crate::setup::ReferenceSetup;

/// Memory needed by one table variant to hold the workload.
#[derive(Debug, Clone, Serialize)]
pub struct TableMemRow {
    /// Table variant name.
    pub table: String,
    /// Bytes of storage allocated.
    pub bytes: u64,
    /// Bytes per stored location.
    pub bytes_per_location: f64,
    /// Ratio of this variant's bytes to the multi-bucket variant's bytes.
    pub relative_to_multi_bucket: f64,
}

/// One ablation measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Parameter being varied.
    pub parameter: String,
    /// Parameter value.
    pub value: u64,
    /// Resulting metric (bytes for bucket-size ablation, features per read
    /// window for the sketch-size ablation).
    pub metric: f64,
}

/// The combined result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct TableMemResult {
    /// Memory comparison rows (multi-bucket first).
    pub rows: Vec<TableMemRow>,
    /// Ablation rows.
    pub ablation: Vec<AblationRow>,
    /// Number of (feature, location) pairs in the workload.
    pub locations: usize,
    /// Number of distinct features in the workload.
    pub distinct_features: usize,
}

/// Extract the (feature, location) workload of the RefSeq-like reference set.
///
/// RefSeq Release 202 contains 51,326 genomes for 15,461 species (≈3.3
/// genomes per species), so a large fraction of features carry several
/// locations. The workload therefore uses a strain-rich variant of the
/// reference spec (3 strains per species) to obtain a comparable location
/// multiplicity at the reduced scale.
fn workload(scale: &ExperimentScale) -> Vec<(u32, Location)> {
    let spec = mc_datagen::community::RefSeqLikeSpec {
        strains_per_species: 3,
        ..scale.refseq
    };
    let collection = mc_datagen::ReferenceCollection::refseq_like(spec);
    let _ = ReferenceSetup::generate; // shared setup kept for the other experiments
    let config = MetaCacheConfig::default();
    let sketcher = Sketcher::new(&config).expect("valid config");
    let mut pairs = Vec::new();
    for (target_id, target) in collection.targets.iter().enumerate() {
        for (window, sketch) in sketcher.sketch_reference(&target.sequence) {
            for &feature in sketch.features() {
                pairs.push((feature, Location::new(target_id as u32, window)));
            }
        }
    }
    pairs
}

fn count_distinct(pairs: &[(u32, Location)]) -> usize {
    let mut features: Vec<u32> = pairs.iter().map(|(f, _)| *f).collect();
    features.sort_unstable();
    features.dedup();
    features.len()
}

/// Insert the workload into a table and return the bytes used; the table must
/// be pre-sized by the caller so that all insertions succeed (or hit only the
/// per-key cap).
fn fill(table: &dyn ConcurrentInsert, pairs: &[(u32, Location)]) -> u64 {
    for (feature, location) in pairs {
        // Per-key caps may drop values, exactly as in the real pipeline.
        let _ = table.insert(*feature, *location);
    }
    table.bytes() as u64
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> TableMemResult {
    let pairs = workload(scale);
    let distinct = count_distinct(&pairs);
    let values = pairs.len();
    let load = 0.8;
    let mut result = TableMemResult {
        locations: values,
        distinct_features: distinct,
        ..Default::default()
    };

    // Multi-bucket (the paper's variant), multi-value and bucket-list tables,
    // each sized for the same workload at the same target load factor.
    let multi_bucket = MultiBucketHashTable::new(MultiBucketConfig {
        bucket_size: 2,
        ..MultiBucketConfig::for_expected(distinct, values, load)
    });
    let mb_bytes = fill(&multi_bucket, &pairs);

    let multi_value = MultiValueHashTable::new(MultiValueConfig::for_expected_values(values, load));
    let mv_bytes = fill(&multi_value, &pairs);

    let bucket_list = BucketListHashTable::new(BucketListConfig {
        capacity_keys: ((distinct as f64 / load) as usize).max(64),
        initial_bucket: 1,
        growth_factor: 2,
        ..Default::default()
    });
    let bl_bytes = fill(&bucket_list, &pairs);

    for (name, bytes) in [
        ("Multi Bucket (ours)", mb_bytes),
        ("Multi Value (WarpCore)", mv_bytes),
        ("Bucket List (WarpCore)", bl_bytes),
    ] {
        result.rows.push(TableMemRow {
            table: name.to_string(),
            bytes,
            bytes_per_location: bytes as f64 / values.max(1) as f64,
            relative_to_multi_bucket: bytes as f64 / mb_bytes.max(1) as f64,
        });
    }

    // Ablation 1: multi-bucket slot width (bucket size).
    for bucket_size in [1usize, 2, 4, 8] {
        let table = MultiBucketHashTable::new(MultiBucketConfig {
            bucket_size,
            ..MultiBucketConfig::for_expected(distinct, values, load)
        });
        let bytes = fill(&table, &pairs);
        result.ablation.push(AblationRow {
            parameter: "multi-bucket slot width".into(),
            value: bucket_size as u64,
            metric: bytes as f64,
        });
    }

    // Ablation 2: sketch size (features kept per window) — the knob that
    // trades database size for classification evidence.
    for sketch_size in [4usize, 8, 16, 32] {
        let config = MetaCacheConfig {
            sketch_size,
            ..MetaCacheConfig::default()
        };
        let sketcher = Sketcher::new(&config).expect("valid");
        let window: Vec<u8> = (0..127).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let features = sketcher.sketch_window(&window).len();
        result.ablation.push(AblationRow {
            parameter: "sketch size".into(),
            value: sketch_size as u64,
            metric: features as f64,
        });
    }
    result
}

/// Render the memory comparison and ablations.
pub fn render(result: &TableMemResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Hash table memory comparison ({} locations, {} distinct features)\n",
        result.locations, result.distinct_features
    ));
    out.push_str(&format!(
        "{:<26} {:>14} {:>12} {:>12}\n",
        "Table variant", "Bytes", "B/location", "vs multi-bucket"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<26} {:>14} {:>12.1} {:>11.2}x\n",
            row.table, row.bytes, row.bytes_per_location, row.relative_to_multi_bucket
        ));
    }
    out.push('\n');
    out.push_str("Ablations\n");
    for row in &result.ablation {
        out.push_str(&format!(
            "{:<28} = {:>4}  ->  {:>14.0}\n",
            row.parameter, row.value, row.metric
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_variants_hold_the_workload_at_comparable_density() {
        let result = run(&ExperimentScale::tiny());
        assert_eq!(result.rows.len(), 3);
        assert!(result.locations > 10_000);
        // The strain-rich workload must actually contain multi-location keys.
        assert!(
            result.locations as f64 / result.distinct_features as f64 > 1.5,
            "workload multiplicity too low: {} locations over {} features",
            result.locations,
            result.distinct_features
        );
        let mb = &result.rows[0];
        let mv = &result.rows[1];
        let bl = &result.rows[2];
        assert!(mb.table.contains("Multi Bucket"));
        // All variants store the data at a sane density; the multi-bucket
        // layout must at least be competitive (the paper reports ~10% savings
        // on the full RefSeq202 distribution; EXPERIMENTS.md discusses how the
        // margin depends on the location multiplicity of the workload).
        for row in &result.rows {
            assert!(
                row.bytes_per_location > 4.0 && row.bytes_per_location < 200.0,
                "{}: implausible density {}",
                row.table,
                row.bytes_per_location
            );
        }
        assert!(
            mb.bytes as f64 <= 1.25 * mv.bytes as f64,
            "multi-bucket must be competitive with multi-value ({} vs {})",
            mb.bytes,
            mv.bytes
        );
        assert!(
            mb.bytes as f64 <= 1.25 * bl.bytes as f64,
            "multi-bucket must be competitive with bucket-list ({} vs {})",
            mb.bytes,
            bl.bytes
        );
        // Ablations present for both parameters.
        assert_eq!(result.ablation.len(), 8);
        // Sketch-size ablation: larger sketches keep more features per window.
        let sketch_rows: Vec<_> = result
            .ablation
            .iter()
            .filter(|r| r.parameter == "sketch size")
            .collect();
        assert!(sketch_rows.windows(2).all(|w| w[0].metric <= w[1].metric));
        let text = render(&result);
        assert!(text.contains("Hash table memory comparison"));
    }
}
