//! Table 5 (time-to-query) and Figure 4 (on-the-fly vs write+load).
//!
//! Table 5 compares how long each method needs before the first query can be
//! executed: Kraken2 and the classic workflow must build, write and (re)load
//! the database, while the on-the-fly (OTF) mode queries the in-memory table
//! right after building. Figure 4 shows the phase breakdown (build / write /
//! load / query) of the two workflows for the KAL_D dataset.

use serde::Serialize;

use mc_gpu_sim::MultiGpuSystem;
use metacache::MetaCacheConfig;

use crate::experiments::fmt_secs;
use crate::pipeline::{run_on_the_fly, run_write_load_query, DiskModel, PhaseTimes};
use crate::scale::ExperimentScale;
use crate::setup::{self, records_with_taxa, ReferenceSetup, Workloads};

/// One row of Table 5.
#[derive(Debug, Clone, Serialize)]
pub struct TtqRow {
    /// Database name.
    pub database: String,
    /// Method name.
    pub method: String,
    /// Build time in seconds.
    pub build_secs: f64,
    /// Load time in seconds (0 for OTF).
    pub load_secs: f64,
    /// Time-to-query in seconds.
    pub ttq_secs: f64,
    /// Speedup relative to the slowest method of the same database.
    pub speedup: f64,
}

/// One stacked bar of Figure 4.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Bar {
    /// Database name.
    pub database: String,
    /// Workflow label (`OTF` or `W+L`).
    pub workflow: String,
    /// Per-phase durations in seconds.
    pub phases: PhaseSeconds,
}

/// Per-phase durations in seconds (serializable mirror of `PhaseTimes`).
#[derive(Debug, Clone, Copy, Serialize, Default)]
pub struct PhaseSeconds {
    /// Build phase.
    pub build: f64,
    /// Write phase.
    pub write: f64,
    /// Load phase.
    pub load: f64,
    /// Query phase.
    pub query: f64,
}

impl From<PhaseTimes> for PhaseSeconds {
    fn from(p: PhaseTimes) -> Self {
        Self {
            build: p.build.as_secs_f64(),
            write: p.write.as_secs_f64(),
            load: p.load.as_secs_f64(),
            query: p.query.as_secs_f64(),
        }
    }
}

/// The combined Table 5 + Figure 4 result.
#[derive(Debug, Clone, Serialize, Default)]
pub struct TtqResult {
    /// Table 5 rows.
    pub rows: Vec<TtqRow>,
    /// Figure 4 bars.
    pub bars: Vec<Fig4Bar>,
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> TtqResult {
    let refs = ReferenceSetup::generate(scale);
    let workloads = Workloads::generate(scale, &refs.refseq, &refs.afs_refseq);
    let config = MetaCacheConfig::default();
    let disk = DiskModel::default();
    let mut result = TtqResult::default();
    let tmp = std::env::temp_dir().join("metacache_repro_ttq");

    for (db_name, collection, devices) in [
        ("RefSeq-like", &refs.refseq, scale.large_gpu_count),
        (
            "AFS-like+RefSeq-like",
            &refs.afs_refseq,
            scale.large_gpu_count,
        ),
    ] {
        let references = records_with_taxa(collection);
        let reads = &workloads.kal_d.reads;
        let system = MultiGpuSystem::dgx1(devices);

        // Kraken2: build (+ modelled write) then load before first query.
        let kraken = setup::build_kraken2(collection);
        let kraken_build = kraken.wall_time.as_secs_f64()
            + disk.write_time(kraken.table_bytes as u64).as_secs_f64();
        let kraken_load = disk.read_time(kraken.table_bytes as u64).as_secs_f64();

        // MetaCache CPU on-the-fly: query follows the in-memory build.
        let cpu = setup::build_metacache_cpu(config, collection);
        let cpu_build = cpu.wall_time.as_secs_f64();

        // MetaCache GPU: W+L workflow and OTF workflow.
        let wl = run_write_load_query(
            config,
            collection.taxonomy.clone(),
            &references,
            reads,
            &system,
            disk,
            &tmp,
            &format!("ttq_{}", db_name.replace(['+', '-'], "_")),
        )
        .expect("W+L pipeline runs at experiment scale");
        let otf = run_on_the_fly(
            config,
            collection.taxonomy.clone(),
            &references,
            reads,
            &system,
        )
        .expect("OTF pipeline runs at experiment scale");

        let mut rows = vec![
            TtqRow {
                database: db_name.into(),
                method: "Kraken2".into(),
                build_secs: kraken_build,
                load_secs: kraken_load,
                ttq_secs: kraken_build + kraken_load,
                speedup: 1.0,
            },
            TtqRow {
                database: db_name.into(),
                method: "MC CPU OTF".into(),
                build_secs: cpu_build,
                load_secs: 0.0,
                ttq_secs: cpu_build,
                speedup: 1.0,
            },
            TtqRow {
                database: db_name.into(),
                method: format!("MC {devices} GPUs W+L"),
                build_secs: wl.phases.build.as_secs_f64() + wl.phases.write.as_secs_f64(),
                load_secs: wl.phases.load.as_secs_f64(),
                ttq_secs: wl.phases.time_to_query().as_secs_f64(),
                speedup: 1.0,
            },
            TtqRow {
                database: db_name.into(),
                method: format!("MC {devices} GPUs OTF"),
                build_secs: otf.phases.build.as_secs_f64(),
                load_secs: 0.0,
                ttq_secs: otf.phases.time_to_query().as_secs_f64(),
                speedup: 1.0,
            },
        ];
        let baseline = rows
            .iter()
            .map(|r| r.ttq_secs)
            .fold(0.0f64, f64::max)
            .max(1e-12);
        for row in &mut rows {
            row.speedup = baseline / row.ttq_secs.max(1e-12);
        }
        result.rows.extend(rows);

        result.bars.push(Fig4Bar {
            database: db_name.into(),
            workflow: "W+L".into(),
            phases: wl.phases.into(),
        });
        result.bars.push(Fig4Bar {
            database: db_name.into(),
            workflow: "OTF".into(),
            phases: otf.phases.into(),
        });
    }
    std::fs::remove_dir_all(&tmp).ok();
    result
}

/// Render Table 5 and a text version of Figure 4.
pub fn render(result: &TtqResult) -> String {
    let mut out = String::new();
    out.push_str("Table 5: Time until a query can be executed (TTQ), on-the-fly vs W+L\n");
    out.push_str(&format!(
        "{:<24} {:<20} {:>12} {:>12} {:>12} {:>9}\n",
        "Database", "Method", "Build", "Load", "TTQ", "Speedup"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<24} {:<20} {:>12} {:>12} {:>12} {:>8.1}x\n",
            row.database,
            row.method,
            fmt_secs(row.build_secs),
            if row.load_secs > 0.0 {
                fmt_secs(row.load_secs)
            } else {
                "-".to_string()
            },
            fmt_secs(row.ttq_secs),
            row.speedup
        ));
    }
    out.push('\n');
    out.push_str("Figure 4: Runtime of OTF vs W+L (KAL_D-like queries), per phase\n");
    for bar in &result.bars {
        let total = bar.phases.build + bar.phases.write + bar.phases.load + bar.phases.query;
        out.push_str(&format!(
            "{:<24} {:<4} total {:>10}  [build {} | write {} | load {} | query {}]\n",
            bar.database,
            bar.workflow,
            fmt_secs(total),
            fmt_secs(bar.phases.build),
            fmt_secs(bar.phases.write),
            fmt_secs(bar.phases.load),
            fmt_secs(bar.phases.query),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn otf_gives_the_best_time_to_query() {
        let result = run(&ExperimentScale::tiny());
        assert_eq!(result.rows.len(), 8);
        assert_eq!(result.bars.len(), 4);
        for db in ["RefSeq-like", "AFS-like+RefSeq-like"] {
            let rows: Vec<_> = result.rows.iter().filter(|r| r.database == db).collect();
            let otf = rows.iter().find(|r| r.method.contains("GPUs OTF")).unwrap();
            let wl = rows.iter().find(|r| r.method.contains("GPUs W+L")).unwrap();
            let kraken = rows.iter().find(|r| r.method == "Kraken2").unwrap();
            assert!(otf.ttq_secs < wl.ttq_secs, "{db}: OTF must beat W+L");
            assert!(
                otf.ttq_secs < kraken.ttq_secs,
                "{db}: OTF must beat Kraken2"
            );
            assert!(otf.speedup >= wl.speedup);
            // OTF bars have no write/load phases.
            let otf_bar = result
                .bars
                .iter()
                .find(|b| b.database == db && b.workflow == "OTF")
                .unwrap();
            assert_eq!(otf_bar.phases.write, 0.0);
            assert_eq!(otf_bar.phases.load, 0.0);
        }
        let text = render(&result);
        assert!(text.contains("Table 5") && text.contains("Figure 4"));
    }
}
