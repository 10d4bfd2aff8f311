//! `mc-benchmark` — one benchmark for the whole stack.
//!
//! ```text
//! mc-benchmark --workload <name> [--seed <u64>] [--seconds <1..=60>] [--trace <0|1>]
//! ```
//!
//! One process runs one workload. With `--trace 0` it sets the workload up,
//! warms up, measures for `--seconds` with tracing off and reports every
//! end-to-end metric of `BENCHMARK.json`; with `--trace 1` it follows the
//! workload's inputs through every layer with spans on and reports every
//! per-layer metric. Every classification is checked against an oracle. The
//! last line of standard output is the result as one JSON object; the exit
//! code is 0 only if nothing failed. Run it from the repository root (see
//! `README.md` in this directory).

mod config;
mod data;
mod host;
mod lifecycle;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use config::Scale;
use host::HostStamp;
use report::{Declaration, Report};
use workload::Workload;

/// The repository root: the command's working directory, and the parent of
/// the package directory `cargo test` runs in.
pub fn repo_root() -> &'static Path {
    if cfg!(test) {
        Path::new("..")
    } else {
        Path::new(".")
    }
}

/// Where the benchmark writes: records, traces and its temporary files.
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark/out")
}

struct Args {
    workload: Workload,
    seed: u64,
    /// `None` means `run_seconds` of `BENCHMARK.json`.
    seconds: Option<u64>,
    traced: bool,
}

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: mc-benchmark --workload <name> [--seed <u64>] [--seconds <1..=60>] [--trace <0|1>]\n\
         workloads: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut traced = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value)?),
            "--seed" => seed = value.parse().ok()?,
            "--seconds" => {
                seconds = Some(value.parse().ok().filter(|s| (1..=60).contains(s))?);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed,
        seconds,
        traced,
    })
}

/// Run one workload for `seconds` and assemble its report. Temporary files
/// and the trace go under `out`.
fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    out: &Path,
) -> Report {
    let name = workload.name();
    let dir = out.join(format!("work-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("working directory can be created");
    let host = HostStamp::collect(scale, seed, seconds, workload.windows(scale));
    let measured = if traced {
        let trace_path = out.join(format!("trace-{name}.json"));
        sweep::run_traced(workload, scale, seed, seconds, &dir, &trace_path)
    } else {
        workload::run_end_to_end(workload, scale, seed, seconds, &dir)
    };
    std::fs::remove_dir_all(&dir).expect("working directory can be removed");
    Report {
        workload: name.into(),
        traced,
        host,
        attempted: measured.attempted,
        failed: measured.failed,
        failed_share: measured.failed as f64 / measured.attempted as f64,
        metrics: measured.metrics,
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&raw) else {
        return usage();
    };
    let declaration = match Declaration::load(&repo_root().join("BENCHMARK.json")) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mc-benchmark: {e} (run from the repository root)");
            return ExitCode::from(1);
        }
    };
    if !declaration
        .workloads
        .iter()
        .any(|w| w.name == args.workload.name())
    {
        eprintln!(
            "mc-benchmark: BENCHMARK.json declares no workload {}",
            args.workload.name()
        );
        return ExitCode::from(1);
    }
    let out = out_dir();
    let report = run(
        args.workload,
        args.seed,
        args.seconds.unwrap_or(declaration.run_seconds) as f64,
        args.traced,
        &Scale::full(),
        &out,
    );
    print!("{}", report.table());
    let record = out.join(format!(
        "{}.trace{}.json",
        report.workload,
        u8::from(report.traced)
    ));
    std::fs::write(&record, report.to_json()).expect("record can be written");

    let disagreements = report.disagreements(&declaration.declared(args.traced));
    if !disagreements.is_empty() {
        for d in disagreements {
            eprintln!("mc-benchmark: {d}");
        }
        return ExitCode::from(1);
    }
    println!("{}", report.result_line());
    if report.failed > 0 {
        eprintln!(
            "mc-benchmark: {} of {} reads failed",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declaration() -> Declaration {
        Declaration::load(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn declaration_names_the_six_workloads_and_well_formed_metrics() {
        let declaration = declaration();
        let declared: Vec<&str> = declaration
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, known);
        assert!((1..=60).contains(&declaration.run_seconds));
        let well_formed = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for traced in [false, true] {
            for (name, _) in declaration.declared(traced) {
                assert!(well_formed(&name), "metric name {name}");
            }
        }
        assert!(declaration
            .declared(false)
            .contains(&("setup_s".to_string(), "s".to_string())));
    }

    #[test]
    fn unknown_flags_workloads_and_values_are_refused() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&args(&["--workload", "serve_reload", "--trace", "1"])).is_some());
        assert!(parse_args(&args(&["--workload", "serve_reload", "--verbose", "1"])).is_none());
        assert!(parse_args(&args(&["--workload", "no_such_workload"])).is_none());
        assert!(parse_args(&args(&["--workload", "build_otf", "--trace", "2"])).is_none());
        assert!(parse_args(&args(&["--workload", "build_otf", "--seconds", "0"])).is_none());
        assert!(parse_args(&args(&["--workload", "build_otf", "--seed"])).is_none());
        assert!(parse_args(&args(&["--seed", "3"])).is_none());
    }

    /// Every workload, shrunk (one window of 0.2 s, tiny references), emits
    /// exactly the metrics `BENCHMARK.json` declares, untraced and traced,
    /// and fails no read.
    fn emits_declared_metrics(workload: Workload) {
        let declaration = declaration();
        let out = out_dir().join(format!("test-{}", workload.name()));
        for traced in [false, true] {
            let report = run(workload, 3, 0.2, traced, &Scale::tiny(), &out);
            let disagreements = report.disagreements(&declaration.declared(traced));
            assert!(disagreements.is_empty(), "{disagreements:?}");
            assert_eq!(report.failed, 0, "{}", report.table());
            assert!(report.attempted > 0);
        }
        assert!(out.join(format!("trace-{}.json", workload.name())).exists());
        std::fs::remove_dir_all(&out).expect("test output can be removed");
    }

    #[test]
    fn build_otf_emits_declared_metrics() {
        emits_declared_metrics(Workload::BuildOtf);
    }

    #[test]
    fn query_sparse_short_emits_declared_metrics() {
        emits_declared_metrics(Workload::QuerySparseShort);
    }

    #[test]
    fn stream_dense_file_emits_declared_metrics() {
        emits_declared_metrics(Workload::StreamDenseFile);
    }

    #[test]
    fn query_sharded4_emits_declared_metrics() {
        emits_declared_metrics(Workload::QuerySharded4);
    }

    #[test]
    fn serve_loopback_emits_declared_metrics() {
        emits_declared_metrics(Workload::ServeLoopback);
    }

    #[test]
    fn serve_reload_emits_declared_metrics() {
        emits_declared_metrics(Workload::ServeReload);
    }
}
