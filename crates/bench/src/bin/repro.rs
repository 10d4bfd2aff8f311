//! `repro` — regenerate the tables and figures of the MetaCache-GPU paper.
//!
//! ```text
//! Usage: repro [--scale tiny|default] [--json] <experiment>...
//!
//! Experiments:
//!   table1 table2      reference sets and read datasets (Tables 1 & 2)
//!   table3             build performance (Table 3)
//!   table4             query performance (Table 4)
//!   table5 fig4        time-to-query and OTF vs W+L phases (Table 5, Figure 4)
//!   table6 abundance   classification accuracy and abundance estimation (Table 6, §6.5)
//!   fig5               query pipeline breakdown (Figure 5)
//!   tablemem ablation  hash-table memory comparison and parameter ablations (§6)
//!   serving_sharded    sharded scatter-gather serving vs unsharded + routed loopback
//!   all                everything above
//! ```
//!
//! Serving, streaming and reload speed is measured by `benchmark/`
//! (`bash benchmark/bench.sh --workload <name> …`), not here.

use std::collections::BTreeSet;

use serde::Serialize;

use mc_bench::experiments::{
    accuracy, breakdown, build_perf, datasets, query_perf, serving_sharded, tablemem, ttq,
};
use mc_bench::ExperimentScale;

/// Run one experiment and print its result as JSON or as the rendered table.
fn report<T: Serialize>(
    scale: &ExperimentScale,
    json: bool,
    run: fn(&ExperimentScale) -> T,
    render: fn(&T) -> String,
) {
    let result = run(scale);
    if json {
        println!("{}", serde_json::to_string_pretty(&result).unwrap());
    } else {
        println!("{}", render(&result));
    }
}

/// One runnable experiment: the names that select it, and how to run and
/// print it.
type Experiment = (&'static [&'static str], fn(&ExperimentScale, bool));

/// Every experiment, in output order. The usage string, the `all` expansion
/// and the dispatch below all read this one table.
const EXPERIMENTS: &[Experiment] = &[
    (&["table1", "table2"], |s, j| {
        report(s, j, datasets::run, datasets::render)
    }),
    (&["table3"], |s, j| {
        report(s, j, build_perf::run, build_perf::render)
    }),
    (&["table4"], |s, j| {
        report(s, j, query_perf::run, query_perf::render)
    }),
    (&["table5", "fig4"], |s, j| {
        report(s, j, ttq::run, ttq::render)
    }),
    (&["table6", "abundance"], |s, j| {
        report(s, j, accuracy::run, accuracy::render)
    }),
    (&["fig5"], |s, j| {
        report(s, j, breakdown::run, breakdown::render)
    }),
    (&["tablemem", "ablation"], |s, j| {
        report(s, j, tablemem::run, tablemem::render)
    }),
    (&["serving_sharded"], |s, j| {
        report(s, j, serving_sharded::run, serving_sharded::render)
    }),
];

/// Every name an experiment answers to.
fn names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale tiny|default] [--json] <{}|all>...",
        names().collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = ExperimentScale::default_scale();
    let mut json = false;
    let mut requested: BTreeSet<String> = BTreeSet::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(name) = args.next() else { usage() };
                scale = ExperimentScale::by_name(&name).unwrap_or_else(|| usage());
            }
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => {
                requested.insert(other.to_string());
            }
        }
    }
    let all = requested.remove("all");
    if !all && requested.is_empty() {
        usage();
    }
    // A name no experiment answers to is an error, not a silent no-op.
    if let Some(unknown) = requested.iter().find(|name| !names().any(|n| n == *name)) {
        eprintln!("repro: unknown experiment `{unknown}`");
        usage();
    }

    eprintln!(
        "# MetaCache-GPU reproduction, scale = {} ({} reads per dataset)",
        scale.label, scale.reads_per_dataset
    );

    for (names, run) in EXPERIMENTS {
        if all || names.iter().any(|name| requested.contains(*name)) {
            run(&scale, json);
        }
    }
}
