//! One module per artefact of the paper's evaluation section. Serving,
//! streaming and reload speed is not measured here: `benchmark/`
//! (`BENCHMARK.json`) is the one system that times those.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`datasets`] | Table 1 (reference sets) and Table 2 (read datasets) |
//! | [`build_perf`] | Table 3 (build performance) |
//! | [`query_perf`] | Table 4 (query performance) |
//! | [`ttq`] | Table 5 (time-to-query) and Figure 4 (OTF vs W+L) |
//! | [`accuracy`] | Table 6 (classification accuracy) and the §6.5 abundance comparison |
//! | [`breakdown`] | Figure 5 (query pipeline breakdown) |
//! | [`tablemem`] | the multi-bucket vs multi-value vs bucket-list memory comparison (§6) and hash-table/sketch ablations |
//! | [`serving_sharded`] | sharded scatter-gather serving vs unsharded (§4.3 partitioning, serving-side) + routed loopback — kept only for the routed row, the one routed number in the repo until `benchmark/` has a routed workload |

pub mod accuracy;
pub mod breakdown;
pub mod build_perf;
pub mod datasets;
pub mod query_perf;
pub mod serving_sharded;
pub mod tablemem;
pub mod ttq;

/// Format a byte count with a binary-prefix unit, as used in the tables.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Format a duration in seconds with an adaptive unit.
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 90.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.1} s")
    } else if secs >= 1e-3 {
        format!("{:.1} ms", secs * 1e3)
    } else {
        format!("{:.1} µs", secs * 1e6)
    }
}

/// Reads-per-minute throughput from a read count and a duration in seconds.
pub fn reads_per_minute(reads: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        reads as f64 * 60.0 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(74 * (1 << 30)), "74.0 GiB");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_secs(0.0000005), "0.5 µs");
        assert_eq!(fmt_secs(0.042), "42.0 ms");
        assert_eq!(fmt_secs(42.6), "42.6 s");
        assert_eq!(fmt_secs(4260.0), "71.0 min");
    }

    #[test]
    fn throughput() {
        assert!((reads_per_minute(10_000_000, 4.6) - 130_434_782.6).abs() < 1.0);
        assert_eq!(reads_per_minute(100, 0.0), 0.0);
    }
}
