//! Table 3: build performance of Kraken2, MetaCache-CPU and MetaCache-GPU.
//!
//! The paper reports build time, total time (build + writing the database to
//! the file system), database size and host RAM for both reference sets. The
//! reproduction measures wall-clock time for the CPU methods, simulated
//! device time for the GPU builds, and derives write time from the serialized
//! database size through the disk model. The *shape* to reproduce: GPU builds
//! are orders of magnitude faster than both CPU tools while using almost no
//! host RAM, and most of the GPU "total time" is file-system writing.

use serde::Serialize;

use mc_gpu_sim::MultiGpuSystem;
use metacache::MetaCacheConfig;

use crate::experiments::{fmt_bytes, fmt_secs};
use crate::pipeline::DiskModel;
use crate::scale::ExperimentScale;
use crate::setup::{self, ReferenceSetup};

/// One row of Table 3.
#[derive(Debug, Clone, Serialize)]
pub struct BuildRow {
    /// Database name.
    pub database: String,
    /// Method name.
    pub method: String,
    /// Build time in seconds (simulated for GPU methods, measured otherwise).
    pub build_secs: f64,
    /// Build + write time in seconds.
    pub total_secs: f64,
    /// Serialized / table size in bytes.
    pub db_bytes: u64,
    /// Host RAM in bytes.
    pub ram_bytes: u64,
    /// Whether the build time is simulated device time.
    pub simulated: bool,
}

/// The Table 3 result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct BuildPerfResult {
    /// All rows in paper order.
    pub rows: Vec<BuildRow>,
}

impl BuildPerfResult {
    /// Speedup of the fastest GPU build over a named CPU method for a
    /// database (used by EXPERIMENTS.md and the tests).
    pub fn gpu_speedup_over(&self, database: &str, cpu_method: &str) -> Option<f64> {
        let cpu = self
            .rows
            .iter()
            .find(|r| r.database == database && r.method == cpu_method)?;
        let gpu = self
            .rows
            .iter()
            .filter(|r| r.database == database && r.method.contains("GPU"))
            .map(|r| r.build_secs)
            .fold(f64::INFINITY, f64::min);
        if gpu.is_finite() && gpu > 0.0 {
            Some(cpu.build_secs / gpu)
        } else {
            None
        }
    }
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> BuildPerfResult {
    let refs = ReferenceSetup::generate(scale);
    let disk = DiskModel::default();
    let config = MetaCacheConfig::default();
    let mut result = BuildPerfResult::default();

    for (db_name, collection, gpu_counts) in [
        (
            "RefSeq-like",
            &refs.refseq,
            vec![scale.small_gpu_count, scale.large_gpu_count],
        ),
        (
            "AFS-like+RefSeq-like",
            &refs.afs_refseq,
            vec![scale.large_gpu_count],
        ),
    ] {
        // Kraken2 baseline (the paper reports only its total time).
        let kraken = setup::build_kraken2(collection);
        let kraken_write = disk.write_time(kraken.table_bytes as u64).as_secs_f64();
        result.rows.push(BuildRow {
            database: db_name.into(),
            method: "Kraken2".into(),
            build_secs: kraken.wall_time.as_secs_f64(),
            total_secs: kraken.wall_time.as_secs_f64() + kraken_write,
            db_bytes: kraken.table_bytes as u64,
            ram_bytes: kraken.host_bytes as u64,
            simulated: false,
        });

        // MetaCache CPU.
        let cpu = setup::build_metacache_cpu(config, collection);
        let cpu_write = disk.write_time(cpu.table_bytes as u64).as_secs_f64();
        result.rows.push(BuildRow {
            database: db_name.into(),
            method: "MC CPU".into(),
            build_secs: cpu.wall_time.as_secs_f64(),
            total_secs: cpu.wall_time.as_secs_f64() + cpu_write,
            db_bytes: cpu.table_bytes as u64,
            ram_bytes: cpu.host_bytes as u64,
            simulated: false,
        });

        // MetaCache GPU with each device-count configuration.
        for devices in gpu_counts {
            let system = MultiGpuSystem::dgx1(devices);
            let gpu = setup::build_metacache_gpu(config, collection, &system);
            let write = disk.write_time(gpu.table_bytes as u64).as_secs_f64();
            let build = gpu.sim_time.as_secs_f64();
            result.rows.push(BuildRow {
                database: db_name.into(),
                method: format!("MC {devices} GPUs"),
                build_secs: build,
                total_secs: build + write,
                db_bytes: gpu.table_bytes as u64,
                ram_bytes: gpu.host_bytes as u64,
                simulated: true,
            });
        }
    }
    result
}

/// Render Table 3.
pub fn render(result: &BuildPerfResult) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Build performance (build time, total = build + write to disk)\n");
    out.push_str(&format!(
        "{:<24} {:<12} {:>12} {:>12} {:>12} {:>12}\n",
        "Database", "Method", "Build", "Total", "DB size", "RAM"
    ));
    let mut last_db = String::new();
    for row in &result.rows {
        if row.database != last_db {
            out.push_str(&format!("{} database:\n", row.database));
            last_db = row.database.clone();
        }
        out.push_str(&format!(
            "{:<24} {:<12} {:>11}{} {:>12} {:>12} {:>12}\n",
            "",
            row.method,
            fmt_secs(row.build_secs),
            if row.simulated { "*" } else { " " },
            fmt_secs(row.total_secs),
            fmt_bytes(row.db_bytes),
            fmt_bytes(row.ram_bytes)
        ));
    }
    out.push_str("(* simulated device time from the V100 cost model)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_builds_are_much_faster_and_use_less_host_ram() {
        let result = run(&ExperimentScale::tiny());
        // 4 methods for RefSeq-like (Kraken2, CPU, 2 GPU configs) + 3 for AFS.
        assert_eq!(result.rows.len(), 7);
        let speedup_vs_cpu = result
            .gpu_speedup_over("RefSeq-like", "MC CPU")
            .expect("rows present");
        let speedup_vs_kraken = result
            .gpu_speedup_over("RefSeq-like", "Kraken2")
            .expect("rows present");
        assert!(
            speedup_vs_cpu > 5.0,
            "GPU build should be much faster than MC CPU, got {speedup_vs_cpu:.1}x"
        );
        assert!(
            speedup_vs_kraken > 5.0,
            "GPU build should be much faster than Kraken2, got {speedup_vs_kraken:.1}x"
        );
        // GPU host RAM is far below the CPU variant's RAM (tables live on device).
        let cpu_ram = result
            .rows
            .iter()
            .find(|r| r.database == "RefSeq-like" && r.method == "MC CPU")
            .unwrap()
            .ram_bytes;
        let gpu_ram = result
            .rows
            .iter()
            .find(|r| r.database == "RefSeq-like" && r.method.contains("GPU"))
            .unwrap()
            .ram_bytes;
        assert!(
            gpu_ram * 2 < cpu_ram,
            "gpu ram {gpu_ram} vs cpu ram {cpu_ram}"
        );
        let text = render(&result);
        assert!(text.contains("Table 3"));
        assert!(text.contains("MC CPU"));
    }
}
