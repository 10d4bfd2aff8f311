//! MetaCache configuration parameters.

use serde::{Deserialize, Serialize};

use mc_kmer::window::WindowParams;
use mc_warpcore::HostHashTable;

use crate::error::MetaCacheError;

/// All tunable parameters of the classifier, mirroring the sub-sampling and
/// classification defaults reported in §5.2 and §4.2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetaCacheConfig {
    /// k-mer length (paper default: 16).
    pub kmer_len: u32,
    /// Reference window length in bases (paper default: 127).
    pub window_len: u32,
    /// Distance between consecutive window starts. The default `w − k + 1 =
    /// 112` satisfies the GPU constraint of being a multiple of 4 (§5.2).
    pub window_stride: u32,
    /// Sketch size: number of smallest distinct hashes kept per window
    /// (paper default: 16).
    pub sketch_size: usize,
    /// Maximum number of locations stored per feature (paper default: 254).
    pub max_locations_per_feature: usize,
    /// Number of top candidates kept per read (paper: 2 ≤ m ≤ 4).
    pub top_candidates: usize,
    /// Minimum accumulated hit count a candidate needs for the read to be
    /// classified at all.
    pub min_hits: u32,
    /// If the best candidate beats the runner-up by at least this many hits
    /// the read is assigned to the best candidate's taxon directly; otherwise
    /// the LCA of all near-best candidates is used.
    pub hit_diff_threshold: u32,
    /// Candidates within this many hits of the maximum participate in the
    /// LCA fallback.
    pub lca_hit_window: u32,
    /// Number of reads per processing batch (per device in the GPU pipeline).
    pub batch_size: usize,
}

impl Default for MetaCacheConfig {
    fn default() -> Self {
        Self {
            kmer_len: 16,
            window_len: 127,
            window_stride: 112,
            sketch_size: 16,
            max_locations_per_feature: 254,
            top_candidates: 4,
            min_hits: 4,
            hit_diff_threshold: 2,
            lca_hit_window: 2,
            batch_size: 4096,
        }
    }
}

impl MetaCacheConfig {
    /// Validate the configuration and derive the window parameters.
    pub fn window_params(&self) -> Result<WindowParams, MetaCacheError> {
        if self.sketch_size == 0 {
            return Err(MetaCacheError::Config(
                "sketch size must be positive".into(),
            ));
        }
        if self.top_candidates == 0 {
            return Err(MetaCacheError::Config(
                "at least one top candidate is required".into(),
            ));
        }
        if !(1..=HostHashTable::MAX_BUCKET_LEN).contains(&self.max_locations_per_feature) {
            return Err(MetaCacheError::Config(format!(
                "max locations per feature must be 1 to {} (what a bucket reference of the \
                 host table can hold)",
                HostHashTable::MAX_BUCKET_LEN
            )));
        }
        WindowParams::with_stride(self.kmer_len, self.window_len, self.window_stride)
            .map_err(|e| MetaCacheError::Config(e.to_string()))
    }

    /// Validate all parameters; returns the config for chaining.
    pub fn validated(self) -> Result<Self, MetaCacheError> {
        self.window_params()?;
        Ok(self)
    }

    /// The sliding-window size used during top-candidate generation: the
    /// maximum number of contiguous reference windows a read (or read pair)
    /// of `read_len` total bases can span (§5.6).
    pub fn sliding_window_size(&self, read_len: usize) -> usize {
        let stride = self.window_stride.max(1) as usize;
        read_len.div_ceil(stride) + 1
    }

    /// A scaled-down configuration with a smaller batch size, used by tests.
    pub fn for_tests() -> Self {
        Self {
            batch_size: 64,
            min_hits: 2,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = MetaCacheConfig::default();
        assert_eq!(c.kmer_len, 16);
        assert_eq!(c.window_len, 127);
        assert_eq!(c.window_stride, 112);
        assert_eq!(c.sketch_size, 16);
        assert_eq!(c.max_locations_per_feature, 254);
        assert!(c.top_candidates >= 2 && c.top_candidates <= 4);
        let w = c.window_params().unwrap();
        assert!(w.gpu_aligned());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MetaCacheConfig {
            sketch_size: 0,
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(MetaCacheConfig {
            kmer_len: 0,
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(MetaCacheConfig {
            window_len: 8,
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(MetaCacheConfig {
            top_candidates: 0,
            ..Default::default()
        }
        .validated()
        .is_err());
        for max_locations_per_feature in [0, HostHashTable::MAX_BUCKET_LEN + 1] {
            assert!(MetaCacheConfig {
                max_locations_per_feature,
                ..Default::default()
            }
            .validated()
            .is_err());
        }
        assert!(MetaCacheConfig {
            max_locations_per_feature: HostHashTable::MAX_BUCKET_LEN,
            ..Default::default()
        }
        .validated()
        .is_ok());
    }

    #[test]
    fn sliding_window_size_scales_with_read_length() {
        let c = MetaCacheConfig::default();
        assert_eq!(c.sliding_window_size(100), 2);
        assert_eq!(c.sliding_window_size(101), 2);
        assert_eq!(c.sliding_window_size(113), 3);
        assert_eq!(c.sliding_window_size(250), 4);
        assert!(c.sliding_window_size(2 * 101 + 300) >= 5);
    }

    #[test]
    fn config_serializes() {
        let c = MetaCacheConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: MetaCacheConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
