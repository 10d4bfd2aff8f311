//! The six workloads: their set-up, and the untraced run that measures the
//! end-to-end metrics.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mc_net::NetClient;
use mc_seqio::SequenceRecord;
use metacache::query::Classifier;
use metacache::{
    Classification, ClassificationEvaluation, ShardedClassifier, ShardedDatabase,
    StreamingClassifier,
};

use crate::config::{Scale, CLIENTS, REQUEST_READS, SHARDS};
use crate::data::{write_fastq_files, Inputs, ReadKind, RefSet};
use crate::host::process_cpu_s;
use crate::lifecycle::{life_cycle, mismatches, LifeCycle};
use crate::report::{Measured, Metric};
use crate::serve::{reload_hook, RebuildLog, ReloadSource, Server};
use crate::trace::Tracer;

/// A workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Build, first query, save and load on the dense reference set.
    BuildOtf,
    /// `Classifier::classify_batch`, short reads, sparse reference set.
    QuerySparseShort,
    /// `StreamingClassifier::classify_file`, long reads, dense reference set.
    StreamDenseFile,
    /// `ShardedClassifier::classify_batch` over four shards of sparse.
    QuerySharded4,
    /// Two `NetClient`s against a `NetServer` on the loopback.
    ServeLoopback,
    /// `serve_loopback` with a database reload in every window.
    ServeReload,
}

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 6] = [
        Workload::BuildOtf,
        Workload::QuerySparseShort,
        Workload::StreamDenseFile,
        Workload::QuerySharded4,
        Workload::ServeLoopback,
        Workload::ServeReload,
    ];

    /// The name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildOtf => "build_otf",
            Workload::QuerySparseShort => "query_sparse_short",
            Workload::StreamDenseFile => "stream_dense_file",
            Workload::QuerySharded4 => "query_sharded4",
            Workload::ServeLoopback => "serve_loopback",
            Workload::ServeReload => "serve_reload",
        }
    }

    /// The workload of that name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reference set its database is built from.
    pub fn ref_set(self) -> RefSet {
        match self {
            Workload::BuildOtf | Workload::StreamDenseFile => RefSet::Dense,
            _ => RefSet::Sparse,
        }
    }

    /// The reads it queries with.
    pub fn read_kind(self) -> ReadKind {
        match self {
            Workload::StreamDenseFile => ReadKind::MiSeq,
            _ => ReadKind::HiSeq,
        }
    }

    /// Timed windows of its untraced run.
    pub fn windows(self, scale: &Scale) -> usize {
        match self {
            Workload::ServeReload => scale.reload_windows,
            _ => scale.windows,
        }
    }
}

/// What every workload's set-up produces: inputs, one pass through the
/// database life cycle, and the oracle's answer for every read.
pub struct Prepared {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The life cycle of the database under test.
    pub cycle: LifeCycle,
    /// `Classifier::classify_batch` over the whole read set.
    pub oracle: Vec<Classification>,
}

impl Prepared {
    /// Generate inputs for `seed`, run the life cycle under `dir` and ask
    /// the oracle.
    pub fn new(
        workload: Workload,
        scale: &Scale,
        seed: u64,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> Self {
        let inputs = Inputs::generate(scale, workload.ref_set(), workload.read_kind(), seed);
        let first = scale.first_query_reads.min(inputs.reads.len());
        let cycle = life_cycle(
            inputs.target_records(),
            inputs.refs.taxonomy.clone(),
            &inputs.reads[..first],
            dir,
            tracer,
        );
        let oracle = Classifier::new(Arc::clone(&cycle.db)).classify_batch(&inputs.reads);
        Self {
            inputs,
            cycle,
            oracle,
        }
    }

    /// Reads of the life cycle that disagree with the oracle: the first
    /// query on the fresh table, and the loaded copy against the fresh one.
    pub fn life_cycle_failures(&self) -> usize {
        mismatches(&self.cycle.first, &self.oracle[..self.cycle.first.len()])
            + self.cycle.loaded_mismatches
    }
}

/// The per-workload part of a set-up.
enum Extra {
    /// Nothing beyond [`Prepared`].
    None,
    /// The FASTQ files of the streaming workload, with their read ranges.
    Files(Vec<(PathBuf, Range<usize>)>),
    /// The sharded database.
    Sharded(Arc<ShardedDatabase>),
    /// A running server with connected clients.
    Served(Box<Served>),
}

struct Served {
    server: Server,
    clients: Vec<NetClient>,
    /// Admin connection and oracle of the odd generations of `serve_reload`.
    reload: Option<(NetClient, Vec<Classification>)>,
}

/// One complete set-up of a workload.
pub struct SetUp {
    /// The common part.
    pub prepared: Prepared,
    extra: Extra,
}

impl SetUp {
    /// Set the workload up from nothing: datagen, database life cycle,
    /// oracle answers, temp files, shard split, server start and client
    /// connections. `setup_s` is the time of this call.
    pub fn new(workload: Workload, scale: &Scale, seed: u64, dir: &Path) -> Self {
        let mut tracer = Tracer::new(false);
        let mut prepared = Prepared::new(workload, scale, seed, dir, &mut tracer);
        let extra = match workload {
            Workload::BuildOtf | Workload::QuerySparseShort => Extra::None,
            Workload::StreamDenseFile => Extra::Files(
                write_fastq_files(dir, &prepared.inputs.reads, scale.stream_files)
                    .expect("FASTQ files are written"),
            ),
            Workload::QuerySharded4 => {
                // The split consumes the database; the oracle is done with it.
                let placeholder = Arc::new(prepared.cycle.db.metadata_view());
                let db = std::mem::replace(&mut prepared.cycle.db, placeholder);
                let db = Arc::try_unwrap(db).unwrap_or_else(|_| panic!("database has one owner"));
                Extra::Sharded(Arc::new(
                    ShardedDatabase::round_robin(db, SHARDS).expect("database splits"),
                ))
            }
            Workload::ServeLoopback | Workload::ServeReload => {
                let reload = (workload == Workload::ServeReload).then(|| {
                    let source = Arc::new(ReloadSource::new(&prepared.inputs));
                    let odd = source.build(1).0;
                    let oracle = Classifier::new(&odd).classify_batch(&prepared.inputs.reads);
                    (source, oracle)
                });
                // The traced run reads the rebuild log; here nobody does.
                let hook = reload
                    .as_ref()
                    .map(|(source, _)| reload_hook(Arc::clone(source), RebuildLog::default()));
                let server = Server::start(Arc::clone(&prepared.cycle.db), hook);
                let connect =
                    || NetClient::connect(server.addr()).expect("client connects to loopback");
                let clients = (0..CLIENTS).map(|_| connect()).collect();
                let reload = reload.map(|(_, oracle)| (connect(), oracle));
                Extra::Served(Box::new(Served {
                    server,
                    clients,
                    reload,
                }))
            }
        };
        Self { prepared, extra }
    }

    /// Stop what the set-up started. Its files stay in the working
    /// directory, which the next set-up overwrites and the run removes.
    pub fn tear_down(self) {
        if let Extra::Served(served) = self.extra {
            drop(served.clients);
            drop(served.reload);
            served.server.stop();
        }
    }
}

/// Outcome of one request of a timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Reads the request carried.
    pub reads: usize,
    /// Reads answered differently from the oracle, or not answered.
    pub failed: usize,
}

/// One caller of a closed loop: given the index of its next request, sends
/// it, waits for the reply and checks it.
pub type Driver<'a> = Box<dyn FnMut(usize) -> Outcome + Send + 'a>;

/// What the timed windows measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Reads per second of each window.
    pub reads_per_s: Vec<f64>,
    /// Process CPU microseconds per read of each window.
    pub cpu_us_per_read: Vec<f64>,
    /// Latency of every request of every window, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Reads attempted.
    pub attempted: u64,
    /// Reads failed.
    pub failed: u64,
}

/// Run `windows` windows of `window` wall time each. In a window every
/// driver loops whole requests on its own thread until the time is up; the
/// window's rate divides by its real elapsed time. Driver `d` of `n` sends
/// requests `d, d + n, d + 2n, …` and carries on where it stopped.
pub fn run_windows(
    drivers: &mut [Driver<'_>],
    windows: usize,
    window: Duration,
    mut before_window: impl FnMut(),
) -> Timed {
    let stride = drivers.len();
    let mut next: Vec<usize> = (0..stride).collect();
    let mut timed = Timed::default();
    for _ in 0..windows {
        before_window();
        let cpu_before = process_cpu_s();
        let start = Instant::now();
        let deadline = start + window;
        let per_driver: Vec<(Outcome, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = drivers
                .iter_mut()
                .zip(next.iter_mut())
                .map(|(driver, next)| {
                    scope.spawn(move || {
                        let mut total = Outcome::default();
                        let mut latencies = Vec::new();
                        while Instant::now() < deadline {
                            let t0 = Instant::now();
                            let outcome = driver(*next);
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                            *next += stride;
                            total.reads += outcome.reads;
                            total.failed += outcome.failed;
                        }
                        (total, latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread ends cleanly"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu_before;
        let reads: usize = per_driver.iter().map(|(o, _)| o.reads).sum();
        timed.attempted += reads as u64;
        timed.failed += per_driver.iter().map(|(o, _)| o.failed as u64).sum::<u64>();
        timed.reads_per_s.push(reads as f64 / elapsed);
        timed.cpu_us_per_read.push(cpu * 1e6 / reads as f64);
        for (_, latencies) in per_driver {
            timed.latencies_ms.extend(latencies);
        }
    }
    timed
}

/// A driver that classifies request `i`'s slice of the read set in-process
/// and checks it against the oracle.
pub fn slice_driver<'a>(
    reads: &'a [SequenceRecord],
    oracle: &'a [Classification],
    slice: usize,
    classify: impl Fn(&[SequenceRecord]) -> Vec<Classification> + Send + 'a,
) -> Driver<'a> {
    let slices = reads.len().div_ceil(slice);
    Box::new(move |i| {
        let start = (i % slices) * slice;
        let end = (start + slice).min(reads.len());
        let got = classify(&reads[start..end]);
        Outcome {
            reads: end - start,
            failed: mismatches(&got, &oracle[start..end]),
        }
    })
}

/// A driver that streams request `i`'s FASTQ file through `streaming` and
/// checks it against the oracle of the file's read range.
pub fn file_driver<'a>(
    streaming: &'a StreamingClassifier,
    files: &'a [(PathBuf, Range<usize>)],
    oracle: &'a [Classification],
) -> Driver<'a> {
    Box::new(move |i| {
        let (path, range) = &files[i % files.len()];
        let failed = match streaming.classify_file(path) {
            Ok((got, _)) => mismatches(&got, &oracle[range.clone()]),
            Err(_) => range.len(),
        };
        Outcome {
            reads: range.len(),
            failed,
        }
    })
}

/// The reads of network request `i`: the `i`-th [`REQUEST_READS`]-sized chunk
/// of a read set of `reads` reads, cycled.
pub fn request_range(i: usize, reads: usize) -> Range<usize> {
    let start = (i % reads.div_ceil(REQUEST_READS)) * REQUEST_READS;
    start..(start + REQUEST_READS).min(reads)
}

/// A driver that sends request `i`'s chunk of the read set through `client`
/// and checks the reply against the oracle of the generation that served it
/// (`oracles[generation % oracles.len()]`).
pub fn client_driver<'a>(
    client: &'a mut NetClient,
    reads: &'a [SequenceRecord],
    oracles: Vec<&'a [Classification]>,
) -> Driver<'a> {
    Box::new(move |i| {
        let range = request_range(i, reads.len());
        let failed = match client.classify_batch(&reads[range.clone()]) {
            Ok(got) => match client.database_generation() {
                Some(generation) => {
                    let oracle = oracles[generation as usize % oracles.len()];
                    mismatches(&got, &oracle[range.clone()])
                }
                None => range.len(),
            },
            Err(_) => range.len(),
        };
        Outcome {
            reads: range.len(),
            failed,
        }
    })
}

/// Send every request of one pass over the read set, untimed.
fn warm_up(drivers: &mut [Driver<'_>], requests: usize) -> Outcome {
    let mut total = Outcome::default();
    let stride = drivers.len();
    for i in 0..requests {
        let outcome = drivers[i % stride](i);
        total.reads += outcome.reads;
        total.failed += outcome.failed;
    }
    total
}

/// Samples of the life-cycle metrics, one per life cycle.
#[derive(Default)]
struct CycleSamples {
    build_mbases_per_s: Vec<f64>,
    time_to_query_s: Vec<f64>,
    load_s: Vec<f64>,
    table_bytes_per_base: Vec<f64>,
}

impl CycleSamples {
    fn push(&mut self, cycle: &LifeCycle, bases: usize) {
        self.build_mbases_per_s
            .push(bases as f64 / 1e6 / cycle.build_s);
        self.time_to_query_s.push(cycle.time_to_query_s);
        self.load_s.push(cycle.load_s);
        self.table_bytes_per_base
            .push(cycle.table_bytes as f64 / bases as f64);
    }
}

/// Run `workload` untraced: set up `scale.setup_repeats` times, warm up,
/// measure for `seconds`, and report every end-to-end metric.
pub fn run_end_to_end(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Measured {
    let mut setup_s = Vec::new();
    let mut cycles = CycleSamples::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setup: Option<SetUp> = None;
    for _ in 0..scale.setup_repeats {
        if let Some(previous) = setup.take() {
            previous.tear_down();
        }
        let start = Instant::now();
        let fresh = SetUp::new(workload, scale, seed, dir);
        setup_s.push(start.elapsed().as_secs_f64());
        let p = &fresh.prepared;
        attempted += 2 * p.cycle.first.len() as u64;
        failed += p.life_cycle_failures() as u64;
        cycles.push(&p.cycle, p.inputs.ref_bases);
        setup = Some(fresh);
    }
    let mut setup = setup.expect("set-up ran at least once");
    let prepared = &setup.prepared;
    let reads = &prepared.inputs.reads;
    let oracle = &prepared.oracle;
    let windows = workload.windows(scale);
    let window = Duration::from_secs_f64(seconds / windows as f64);
    let slices = reads.len().div_ceil(scale.slice_reads);

    let timed = match &mut setup.extra {
        Extra::None if workload == Workload::BuildOtf => {
            // On-the-fly repetitions replace the set-up's life-cycle samples.
            cycles = CycleSamples::default();
            run_build_otf(prepared, scale, seconds, dir, &mut cycles)
        }
        Extra::None => {
            let classifier = Classifier::new(Arc::clone(&prepared.cycle.db));
            let driver = slice_driver(reads, oracle, scale.slice_reads, move |r| {
                classifier.classify_batch(r)
            });
            run_checked(&mut [driver], slices, windows, window, || {})
        }
        Extra::Sharded(sharded) => {
            let classifier = ShardedClassifier::new(Arc::clone(sharded));
            let driver = slice_driver(reads, oracle, scale.slice_reads, move |r| {
                classifier.classify_batch(r)
            });
            run_checked(&mut [driver], slices, windows, window, || {})
        }
        Extra::Files(files) => {
            let streaming = StreamingClassifier::new(Arc::clone(&prepared.cycle.db));
            let mut drivers = [file_driver(&streaming, files, oracle)];
            run_checked(&mut drivers, files.len(), windows, window, || {})
        }
        Extra::Served(served) => {
            let requests = reads.len().div_ceil(REQUEST_READS);
            let mut oracles: Vec<&[Classification]> = vec![oracle];
            let mut admin = None;
            if let Some((client, odd_oracle)) = &mut served.reload {
                oracles.push(odd_oracle.as_slice());
                admin = Some(client);
            }
            let mut drivers: Vec<Driver<'_>> = served
                .clients
                .iter_mut()
                .map(|client| client_driver(client, reads, oracles.clone()))
                .collect();
            match admin {
                None => run_checked(&mut drivers, requests, windows, window, || {}),
                Some(admin) => std::thread::scope(|scope| {
                    // The admin connection reloads once per window, when the
                    // window starts, and is otherwise idle.
                    let (fire, fired) = mpsc::channel::<()>();
                    let admin_thread = scope.spawn(move || {
                        let mut failures = 0u64;
                        while fired.recv().is_ok() {
                            if admin.reload().is_err() {
                                failures += 1;
                            }
                            while fired.try_recv().is_ok() {}
                        }
                        failures
                    });
                    let mut timed = run_checked(&mut drivers, requests, windows, window, || {
                        fire.send(()).expect("admin thread is alive");
                    });
                    drop(fire);
                    // A refused reload fails the run like a refused request.
                    let refused = admin_thread.join().expect("admin thread ends cleanly");
                    timed.attempted += refused;
                    timed.failed += refused;
                    timed
                }),
            }
        }
    };
    attempted += timed.attempted;
    failed += timed.failed;

    let evaluation = ClassificationEvaluation::evaluate(
        // The sharded workload's `cycle.db` is the metadata view, which is
        // all the evaluation reads.
        &prepared.cycle.db,
        oracle,
        &prepared.inputs.truth,
    );
    let metrics = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::median("reads_per_s", "reads/s", &timed.reads_per_s),
        Metric::median("cpu_us_per_read", "us", &timed.cpu_us_per_read),
        Metric::percentile("request_p50_ms", "ms", &timed.latencies_ms, 50.0),
        Metric::percentile("request_p90_ms", "ms", &timed.latencies_ms, 90.0),
        Metric::median("build_mbases_per_s", "Mbases/s", &cycles.build_mbases_per_s),
        Metric::median("time_to_query_s", "s", &cycles.time_to_query_s),
        Metric::median("load_s", "s", &cycles.load_s),
        Metric::median(
            "table_bytes_per_base",
            "bytes/base",
            &cycles.table_bytes_per_base,
        ),
        Metric::single(
            "species_precision",
            "fraction",
            evaluation.species.precision(),
        ),
        Metric::single(
            "species_sensitivity",
            "fraction",
            evaluation.species.sensitivity(),
        ),
    ];
    setup.tear_down();
    Measured {
        attempted,
        failed,
        metrics,
    }
}

/// Warm up with one pass, then run the timed windows; both are checked.
pub fn run_checked(
    drivers: &mut [Driver<'_>],
    requests_per_pass: usize,
    windows: usize,
    window: Duration,
    before_window: impl FnMut(),
) -> Timed {
    let warm = warm_up(drivers, requests_per_pass);
    let mut timed = run_windows(drivers, windows, window, before_window);
    timed.attempted += warm.reads as u64;
    timed.failed += warm.failed as u64;
    timed
}

/// `build_otf`'s timed phase: whole life cycles until `seconds` are up (at
/// least `scale.min_build_repeats`). A request is one `add_target` call.
/// Reads per second and CPU per read are those of the on-the-fly job: build
/// the database, then classify the whole read set on the fresh table, the
/// first `first_query_reads` reads first.
fn run_build_otf(
    prepared: &Prepared,
    scale: &Scale,
    seconds: f64,
    dir: &Path,
    cycles: &mut CycleSamples,
) -> Timed {
    let inputs = &prepared.inputs;
    let first = prepared.cycle.first.len();
    let mut timed = Timed::default();
    let mut tracer = Tracer::new(false);
    let start = Instant::now();
    let mut repeats = 0;
    while repeats < scale.min_build_repeats || start.elapsed().as_secs_f64() < seconds {
        let cycle = life_cycle(
            inputs.target_records(),
            inputs.refs.taxonomy.clone(),
            &inputs.reads[..first],
            dir,
            &mut tracer,
        );
        cycles.push(&cycle, inputs.ref_bases);
        timed
            .latencies_ms
            .extend(cycle.add_target_s.iter().map(|s| s * 1e3));

        let classifier = Classifier::new(Arc::clone(&cycle.db));
        let cpu_before = process_cpu_s();
        let t0 = Instant::now();
        let rest = classifier.classify_batch(&inputs.reads[first..]);
        let job_s = cycle.time_to_query_s + t0.elapsed().as_secs_f64();
        let job_cpu_s = cycle.time_to_query_cpu_s + process_cpu_s() - cpu_before;
        let reads = inputs.reads.len();
        timed.reads_per_s.push(reads as f64 / job_s);
        timed.cpu_us_per_read.push(job_cpu_s * 1e6 / reads as f64);
        // The fresh table answers every read; the loaded copy the first ones.
        timed.attempted += (reads + first) as u64;
        timed.failed += (mismatches(&cycle.first, &prepared.oracle[..first])
            + mismatches(&rest, &prepared.oracle[first..])
            + cycle.loaded_mismatches) as u64;
        repeats += 1;
    }
    timed
}
