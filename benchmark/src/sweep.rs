//! The traced run: the workload's inputs followed through every layer of
//! the stack with spans on, one layer after the other, from outside.
//!
//! Every span is recorded by this file around a public function of the
//! layer. Times of single calls come from span self times; rates that need
//! several threads (batch, streaming, sharded, session, loopback, reload)
//! come from short untraced windows in this same process, so every ratio
//! has both of its operands measured under the same conditions.
//!
//! A replica of a call never runs right after the call it mirrors on the
//! same input: the first would leave the table's buckets in the cache for
//! the second. Replicas run as a loop of their own over the same inputs.

use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mc_kmer::{Feature, Location};
use mc_net::protocol::{
    decode_classify_into, encode_classify_packed, encode_results_into, frame_type,
};
use mc_net::NetClient;
use mc_seqio::{SequenceReader, SequenceRecord};
use metacache::candidate::{accumulate_locations_into, top_candidates_into};
use metacache::classify::classify_candidates;
use metacache::query::Classifier;
use metacache::serving::ServingEngine;
use metacache::{
    CandidateList, Classification, Database, QueryScratch, ShardedClassifier, ShardedDatabase,
    SketchScratch, Sketcher, StreamingClassifier,
};

use crate::config::{Scale, CLIENTS, REQUEST_READS, SHARDS};
use crate::data::write_fastq_files;
use crate::host::logical_cores;
use crate::lifecycle::{self, mismatches};
use crate::report::Measured;
use crate::serve::{engine_config, reload_hook, RebuildLog, ReloadSource, Server};
use crate::stats::{percentile, summary};
use crate::trace::Tracer;
use crate::workload::{
    client_driver, file_driver, request_range, run_checked, slice_driver, Driver, Outcome,
    Prepared, Timed, Workload,
};

/// Untraced windows behind each operand of a ratio; the operand is their
/// median.
const OPERAND_WINDOWS: usize = 3;
/// Rounds of the stage-by-stage pass over the followed reads (untraced, then
/// traced); stage times and `trace.overhead` are medians over the rounds.
/// The first untraced pass also warms the caches up.
const OVERHEAD_PAIRS: usize = 3;
/// Requests whose round trips run before their replicas do. Long enough
/// that a replica finds nothing of its request left in the L2 cache, short
/// enough that both see the same phase of a noisy host.
const REPLICA_BLOCK: usize = 50;

/// A warm-up pass and [`OPERAND_WINDOWS`] untraced windows over `drivers`,
/// all checked into `tally`; returns the median rate and the windows.
fn rate(
    tally: &mut Measured,
    drivers: &mut [Driver<'_>],
    requests_per_pass: usize,
    window: Duration,
) -> (f64, Timed) {
    let timed = run_checked(drivers, requests_per_pass, OPERAND_WINDOWS, window, || {});
    tally.attempted += timed.attempted;
    tally.failed += timed.failed;
    (summary(&timed.reads_per_s).median, timed)
}

/// Counts made while following reads through the query stages.
#[derive(Default)]
struct StageCounts {
    reads: u64,
    bases: u64,
    features: u64,
    locations: u64,
    candidates: u64,
    classified: u64,
    failed: u64,
}

/// Follow each read through the query stages on this thread: a `read` span
/// with children `sketch`, `probe`, `candidate` and `classify`, built from
/// the stages' public functions; then, in a second loop over the same
/// reads, a `candidates_with` span over the real hot path. The real path
/// orders the probed locations with a crate-private run merge; the replica
/// sorts them outside any child span, and the merge's cost is the residual
/// `candidates_with − (sketch + probe + candidate)`.
fn follow_reads(
    db: &Database,
    reads: &[SequenceRecord],
    oracle: &[Classification],
    tracer: &mut Tracer,
) -> StageCounts {
    let classifier = Classifier::new(db);
    let sketcher = *classifier.sketcher();
    let mut sketch_scratch = SketchScratch::with_capacity(db.config.sketch_size);
    let mut features: Vec<Feature> = Vec::new();
    let mut locations: Vec<Location> = Vec::new();
    let mut window_counts: Vec<(Location, u32)> = Vec::new();
    let mut candidates = CandidateList::new(db.config.top_candidates);
    let mut counts = StageCounts::default();
    for (i, (read, expected)) in reads.iter().zip(oracle).enumerate() {
        let request = i as u64;
        let t0 = tracer.now();
        let root = tracer.begin_at("read", None, request, t0);

        features.clear();
        sketcher.sketch_record_into(read, &mut sketch_scratch, &mut features);
        let t1 = tracer.now();
        tracer.record("sketch", root, request, t0, t1);

        locations.clear();
        db.query_features_into(&features, &mut locations);
        let t2 = tracer.now();
        tracer.record("probe", root, request, t1, t2);

        locations.sort_unstable();
        let t3 = tracer.now();

        accumulate_locations_into(&locations, &mut window_counts);
        let sliding = db.config.sliding_window_size(read.total_len());
        top_candidates_into(&window_counts, sliding, &mut candidates);
        let t4 = tracer.now();
        tracer.record("candidate", root, request, t3, t4);

        let got = classify_candidates(db, &db.config, &candidates);
        let t5 = tracer.now();
        tracer.record("classify", root, request, t4, t5);
        tracer.end_at(root, t5);

        counts.reads += 1;
        counts.bases += read.total_len() as u64;
        counts.features += features.len() as u64;
        counts.locations += locations.len() as u64;
        counts.candidates += candidates.len() as u64;
        counts.classified += u64::from(got.is_classified());
        counts.failed += u64::from(got != *expected);
    }
    let mut scratch = QueryScratch::new();
    let mut start = tracer.now();
    for (i, read) in reads.iter().enumerate() {
        std::hint::black_box(classifier.candidates_with(read, &mut scratch));
        let end = tracer.now();
        tracer.record("candidates_with", None, i as u64, start, end);
        start = end;
    }
    counts
}

/// Nanoseconds per read of `classify_with` on one thread with one scratch.
fn classify_1t_ns_per_read(db: &Database, reads: &[SequenceRecord]) -> f64 {
    let classifier = Classifier::new(db);
    let mut scratch = QueryScratch::new();
    let start = Instant::now();
    for read in reads {
        std::hint::black_box(classifier.classify_with(read, &mut scratch));
    }
    start.elapsed().as_nanos() as f64 / reads.len() as f64
}

/// Features that return at least one location ÷ features queried.
fn probe_hit_share(db: &Database, reads: &[SequenceRecord]) -> f64 {
    let sketcher = Sketcher::new(&db.config).expect("database config is valid");
    let mut scratch = SketchScratch::with_capacity(db.config.sketch_size);
    let mut features: Vec<Feature> = Vec::new();
    let mut locations: Vec<Location> = Vec::new();
    let (mut hits, mut queried) = (0u64, 0u64);
    for read in reads {
        features.clear();
        sketcher.sketch_record_into(read, &mut scratch, &mut features);
        for &feature in &features {
            locations.clear();
            hits += u64::from(db.query_feature_into(feature, &mut locations) > 0);
            queried += 1;
        }
    }
    hits as f64 / queried.max(1) as f64
}

/// Shared, read-only context of the layer functions.
struct Context<'a> {
    scale: &'a Scale,
    prepared: &'a Prepared,
    /// The first `scale.traced_reads` reads, followed one by one.
    followed: &'a [SequenceRecord],
    /// Length of one untraced operand window.
    window: Duration,
    /// Length of the window with a reload in it, as in `serve_reload`.
    reload_window: Duration,
    dir: &'a Path,
}

impl<'a> Context<'a> {
    fn db(&self) -> &'a Database {
        &self.prepared.cycle.db
    }

    fn reads(&self) -> &'a [SequenceRecord] {
        &self.prepared.inputs.reads
    }

    fn oracle(&self) -> &'a [Classification] {
        &self.prepared.oracle
    }
}

/// mc-datagen, metacache::build and metacache::serialize: the set-up's own
/// spans, and reference sketching alone for the insertion residual.
fn build_layers(ctx: &Context<'_>, tracer: &mut Tracer, tally: &mut Measured) {
    let (inputs, cycle) = (&ctx.prepared.inputs, &ctx.prepared.cycle);
    tally.attempted += 2 * cycle.first.len() as u64;
    tally.failed += ctx.prepared.life_cycle_failures() as u64;
    tally.put("datagen.refs_s", "s", inputs.refs_s);
    tally.put("datagen.reads_s", "s", inputs.reads_s);

    let sketcher = Sketcher::new(&ctx.db().config).expect("database config is valid");
    let mut scratch = SketchScratch::with_capacity(ctx.db().config.sketch_size);
    let mut sketched_bases = 0usize;
    let targets = inputs
        .refs
        .targets
        .iter()
        .take(ctx.scale.traced_ref_targets);
    for (i, target) in targets.enumerate() {
        let span = tracer.begin("sketch_reference", None, i as u64);
        sketcher.for_each_window_sketch(&target.sequence, &mut scratch, |_, features| {
            std::hint::black_box(features);
            std::ops::ControlFlow::Continue(())
        });
        tracer.end(span);
        sketched_bases += target.sequence.len();
    }
    let sketch_ns = tracer.totals()["sketch_reference"].total_ns as f64;
    tally.put(
        "sketch.ref_mbases_per_s",
        "Mbases/s",
        sketched_bases as f64 * 1e3 / sketch_ns,
    );

    let add_target_s: f64 = cycle.add_target_s.iter().sum();
    tally.put("build.add_target_s", "s", add_target_s);
    tally.put("build.finish_s", "s", cycle.finish_s);
    // Sketching every reference at the measured rate would take this much
    // of `add_target`; what is left is table insertion.
    let sketch_share_s = inputs.ref_bases as f64 * sketch_ns / 1e9 / sketched_bases as f64;
    tally.put(
        "build.insert_ns_per_location",
        "ns",
        (add_target_s - sketch_share_s).max(0.0) * 1e9 / cycle.stats.locations_inserted as f64,
    );
    tally.put(
        "build.locations_inserted",
        "count",
        cycle.stats.locations_inserted as f64,
    );
    tally.put(
        "build.locations_dropped",
        "count",
        cycle.stats.locations_dropped as f64,
    );
    tally.put("serialize.save_s", "s", cycle.save_s);
    tally.put("serialize.disk_bytes", "bytes", cycle.disk_bytes as f64);
    tally.put(
        "serialize.disk_bytes_per_table_byte",
        "ratio",
        cycle.disk_bytes as f64 / cycle.table_bytes as f64,
    );
}

/// metacache::sketch, database, query, candidate and classify: the followed
/// reads, stage by stage, on one thread. Returns `classify_with`'s
/// nanoseconds per read.
fn query_layers(ctx: &Context<'_>, tracer: &mut Tracer, tally: &mut Measured) -> f64 {
    let (db, reads) = (ctx.db(), ctx.followed);
    let oracle = &ctx.oracle()[..reads.len()];
    // Every time below is the median over [`OVERHEAD_PAIRS`] rounds of:
    // the pass untraced, the pass traced, `classify_with` alone. A round
    // takes a fraction of a second, so its three parts see the same host.
    let names = [
        "sketch",
        "probe",
        "candidate",
        "classify",
        "candidates_with",
    ];
    let mut stage_ns: [Vec<f64>; 5] = Default::default();
    let (mut overhead, mut alone_ns) = (Vec::new(), Vec::new());
    let mut counts = StageCounts::default();
    for round in 0..OVERHEAD_PAIRS {
        let t0 = Instant::now();
        follow_reads(db, reads, oracle, &mut Tracer::new(false));
        let untraced_ns = t0.elapsed().as_nanos() as f64;
        // Only the first traced pass goes into the trace file.
        let mut spare = Tracer::new(true);
        let into = if round == 0 { &mut *tracer } else { &mut spare };
        // Six spans per read; their memory is touched before the clock starts.
        into.reserve(6 * reads.len());
        let t0 = Instant::now();
        counts = follow_reads(db, reads, oracle, into);
        overhead.push(t0.elapsed().as_nanos() as f64 / untraced_ns);
        let totals = into.totals();
        for (samples, name) in stage_ns.iter_mut().zip(names) {
            samples.push(totals[name].self_ns as f64);
        }
        alone_ns.push(classify_1t_ns_per_read(db, reads));
    }
    tally.attempted += counts.reads;
    tally.failed += counts.failed;
    let ns_per_read_1t = summary(&alone_ns).median;
    let [sketch, probe, candidate, classify, candidates_with] =
        stage_ns.map(|samples| summary(&samples).median);
    let n = counts.reads as f64;
    let merge = (candidates_with - sketch - probe - candidate).max(0.0);
    let stage_sum = sketch + probe + merge + candidate + classify;
    tally.put("sketch.ns_per_read", "ns", sketch / n);
    tally.put(
        "sketch.mbases_per_s",
        "Mbases/s",
        counts.bases as f64 * 1e3 / sketch,
    );
    tally.put(
        "sketch.features_per_read",
        "count",
        counts.features as f64 / n,
    );
    tally.put("probe.ns_per_read", "ns", probe / n);
    tally.put("probe.ns_per_feature", "ns", probe / counts.features as f64);
    tally.put(
        "probe.locations_per_read",
        "count",
        counts.locations as f64 / n,
    );
    tally.put("probe.hit_share", "fraction", probe_hit_share(db, reads));
    tally.put("merge.ns_per_read", "ns", merge / n);
    tally.put(
        "merge.ns_per_location",
        "ns",
        merge / counts.locations as f64,
    );
    tally.put("candidate.ns_per_read", "ns", candidate / n);
    tally.put("candidate.per_read", "count", counts.candidates as f64 / n);
    tally.put("classify.lca_ns_per_read", "ns", classify / n);
    tally.put(
        "classify.classified_share",
        "fraction",
        counts.classified as f64 / n,
    );
    tally.put("query.ns_per_read_1t", "ns", ns_per_read_1t);
    tally.put(
        "query.stage_sum_over_total",
        "ratio",
        stage_sum / n / ns_per_read_1t,
    );
    tally.put(
        "query.sketch_probe_share",
        "fraction",
        (sketch + probe) / stage_sum,
    );
    tally.put(
        "query.merge_candidate_share",
        "fraction",
        (merge + candidate) / stage_sum,
    );
    tally.put("trace.overhead", "ratio", summary(&overhead).median);
    ns_per_read_1t
}

/// mc-seqio, `classify_batch` over all cores, and metacache::pipeline over
/// the same reads as FASTQ files. Returns the median `classify_batch` reads
/// per second, the denominator of the later layers' ratios.
fn batch_and_stream_layers(
    ctx: &Context<'_>,
    ns_per_read_1t: f64,
    tracer: &mut Tracer,
    tally: &mut Measured,
) -> f64 {
    let (reads, oracle) = (ctx.reads(), ctx.oracle());
    let files =
        write_fastq_files(ctx.dir, reads, ctx.scale.stream_files).expect("FASTQ files are written");
    let parse_bytes = std::fs::metadata(&files[0].0)
        .expect("FASTQ file exists")
        .len();
    let stream = SequenceReader::open(&files[0].0).expect("FASTQ file opens");
    tracer.reserve(files[0].1.len());
    let mut parsed = 0u64;
    let mut start = tracer.now();
    for record in stream {
        record.expect("generated FASTQ parses");
        let end = tracer.now();
        tracer.record("parse", None, parsed, start, end);
        start = end;
        parsed += 1;
    }
    let parse_ns = tracer.totals()["parse"].total_ns as f64;
    tally.put("seqio.parse_ns_per_read", "ns", parse_ns / parsed as f64);
    tally.put(
        "seqio.parse_mb_per_s",
        "MB/s",
        parse_bytes as f64 * 1e3 / parse_ns,
    );

    let slices = reads.len().div_ceil(ctx.scale.slice_reads);
    let classifier = Classifier::new(Arc::clone(&ctx.prepared.cycle.db));
    let mut drivers = [slice_driver(
        reads,
        oracle,
        ctx.scale.slice_reads,
        move |r| classifier.classify_batch(r),
    )];
    let (batch_reads_per_s, _) = rate(tally, &mut drivers, slices, ctx.window);
    tally.put("query.batch_reads_per_s", "reads/s", batch_reads_per_s);
    tally.put(
        "query.par_efficiency",
        "ratio",
        batch_reads_per_s / (logical_cores() as f64 * 1e9 / ns_per_read_1t),
    );

    let streaming = StreamingClassifier::new(Arc::clone(&ctx.prepared.cycle.db));
    let (_, stream_summary) = streaming
        .classify_file(&files[0].0)
        .expect("generated FASTQ streams");
    let mut drivers = [file_driver(&streaming, &files, oracle)];
    let (stream_reads_per_s, _) = rate(tally, &mut drivers, files.len(), ctx.window);
    tally.put("pipeline.stream_reads_per_s", "reads/s", stream_reads_per_s);
    tally.put(
        "pipeline.stream_over_batch",
        "ratio",
        stream_reads_per_s / batch_reads_per_s,
    );
    tally.put("pipeline.batches", "count", stream_summary.batches as f64);
    tally.put(
        "pipeline.peak_resident_batches",
        "count",
        stream_summary.peak_resident_batches as f64,
    );
    batch_reads_per_s
}

/// metacache::shard: a second build of the same references, split
/// [`SHARDS`] ways.
fn shard_layers(
    ctx: &Context<'_>,
    batch_reads_per_s: f64,
    tracer: &mut Tracer,
    tally: &mut Measured,
) {
    let inputs = &ctx.prepared.inputs;
    let config = ctx.db().config;
    let second = lifecycle::build(
        inputs.target_records(),
        inputs.refs.taxonomy.clone(),
        &mut Tracer::new(false),
    );
    let sharded =
        Arc::new(ShardedDatabase::round_robin(second.db, SHARDS).expect("database splits"));
    let slices = ctx.reads().len().div_ceil(ctx.scale.slice_reads);
    let classifier = ShardedClassifier::new(Arc::clone(&sharded));
    let mut drivers = [slice_driver(
        ctx.reads(),
        ctx.oracle(),
        ctx.scale.slice_reads,
        move |r| classifier.classify_batch(r),
    )];
    let (s4_reads_per_s, _) = rate(tally, &mut drivers, slices, ctx.window);

    let legs: Vec<Classifier> = sharded
        .shards()
        .iter()
        .map(|s| Classifier::new(Arc::clone(s)))
        .collect();
    let mut scratch = QueryScratch::new();
    let mut merged = CandidateList::new(config.top_candidates);
    tracer.reserve(2 * SHARDS * ctx.followed.len());
    for (i, read) in ctx.followed.iter().enumerate() {
        let request = i as u64;
        merged.reset(config.top_candidates);
        let mut start = tracer.now();
        for leg in &legs {
            let list = leg.candidates_with(read, &mut scratch);
            let middle = tracer.now();
            tracer.record("shard.leg", None, request, start, middle);
            merged.merge(list);
            let end = tracer.now();
            tracer.record("shard.merge", None, request, middle, end);
            start = end;
        }
        let got = classify_candidates(sharded.meta(), &config, &merged);
        tally.attempted += 1;
        tally.failed += u64::from(got != ctx.oracle()[i]);
    }
    let totals = tracer.totals();
    let n = ctx.followed.len() as f64;
    tally.put("shard.s4_reads_per_s", "reads/s", s4_reads_per_s);
    tally.put(
        "shard.s4_over_unsharded",
        "ratio",
        s4_reads_per_s / batch_reads_per_s,
    );
    tally.put(
        "shard.leg_ns_per_read",
        "ns",
        totals["shard.leg"].total_ns as f64 / n,
    );
    tally.put(
        "shard.merge_ns_per_read",
        "ns",
        totals["shard.merge"].total_ns as f64 / n,
    );
    // Computed, not counted: every shard leg sketches the read again.
    tally.put("shard.sketches_per_read", "count", SHARDS as f64);
    let largest = sharded.shards().iter().map(|s| s.table_bytes()).max();
    tally.put(
        "shard.max_table_bytes",
        "bytes",
        largest.unwrap_or(0) as f64,
    );
}

/// metacache::serving, mc-net and the reload path: in-process sessions, one
/// client's requests over the loopback with spans, the loopback at full
/// load, and the loopback with a reload under way.
fn served_layers(
    ctx: &Context<'_>,
    batch_reads_per_s: f64,
    tracer: &mut Tracer,
    tally: &mut Measured,
) {
    let (reads, oracle) = (ctx.reads(), ctx.oracle());
    let db = &ctx.prepared.cycle.db;
    let requests = reads.len().div_ceil(REQUEST_READS);
    let chunk_of = |i: usize| request_range(i, reads.len());

    // In-process sessions on the requests the clients will send.
    let engine = ServingEngine::host_with_config(Arc::clone(db), engine_config());
    let mut drivers: Vec<Driver<'_>> = (0..CLIENTS)
        .map(|_| -> Driver<'_> {
            let mut session = engine.session();
            Box::new(move |i| {
                let range = chunk_of(i);
                let got = session.classify_batch(&reads[range.clone()]);
                Outcome {
                    reads: range.len(),
                    failed: mismatches(&got, &oracle[range]),
                }
            })
        })
        .collect();
    let (session_reads_per_s, _) = rate(tally, &mut drivers, requests, ctx.window);
    drop(drivers);
    tally.put(
        "serving.session_reads_per_s",
        "reads/s",
        session_reads_per_s,
    );
    tally.put(
        "serving.session_over_batch",
        "ratio",
        session_reads_per_s / batch_reads_per_s,
    );

    let source = Arc::new(ReloadSource::new(&ctx.prepared.inputs));
    let odd_oracle = Classifier::new(&source.build(1).0).classify_batch(reads);
    let log: RebuildLog = Arc::new(Mutex::new(Vec::new()));
    let hook = reload_hook(Arc::clone(&source), Arc::clone(&log));
    let server = Server::start(Arc::clone(db), Some(hook));
    let connect = || NetClient::connect(server.addr()).expect("client connects to loopback");
    let mut clients: Vec<NetClient> = (0..CLIENTS).map(|_| connect()).collect();
    let mut admin = connect();

    // One client's requests, one at a time, in blocks: the round trips of a
    // block, then the server's share of each of its requests replayed on
    // this thread.
    let traced_requests = ctx.scale.traced_requests;
    tracer.reserve(6 * traced_requests);
    let warm = chunk_of(0);
    let warm_ok = clients[0].classify_batch(&reads[warm.clone()]).is_ok();
    tally.attempted += warm.len() as u64;
    tally.failed += if warm_ok { 0 } else { warm.len() as u64 };
    let mut session = engine.session();
    let mut decoded: Vec<SequenceRecord> = Vec::new();
    let mut response: Vec<u8> = Vec::new();
    let (mut request_bytes, mut response_bytes, mut request_reads) = (0u64, 0u64, 0u64);
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(REPLICA_BLOCK);
    for block in (0..traced_requests).step_by(REPLICA_BLOCK) {
        let block = block..(block + REPLICA_BLOCK).min(traced_requests);
        frames.clear();
        for i in block.clone() {
            let request = i as u64;
            let range = chunk_of(i);
            let chunk = &reads[range.clone()];
            let t0 = tracer.now();
            let root = tracer.begin_at("request", None, request, t0);
            let frame = encode_classify_packed(request, chunk).expect("request encodes");
            let t1 = tracer.now();
            tracer.record("protocol.encode_request", root, request, t0, t1);
            let got = clients[0].classify_batch(chunk);
            let t2 = tracer.now();
            tracer.record("net.roundtrip", root, request, t1, t2);
            tracer.end_at(root, t2);
            frames.push(frame);
            tally.attempted += range.len() as u64;
            tally.failed += got.map_or(range.len(), |got| mismatches(&got, &oracle[range])) as u64;
        }
        for (i, frame) in block.zip(&frames) {
            let request = i as u64;
            let range = chunk_of(i);
            let t0 = tracer.now();
            // The payload follows the 4-byte length and the type byte.
            decode_classify_into(frame_type::CLASSIFY_PACKED, &frame[5..], &mut decoded)
                .expect("request decodes");
            let t1 = tracer.now();
            tracer.record("protocol.decode_request", None, request, t0, t1);
            let replica = session.classify_batch(&decoded);
            let t2 = tracer.now();
            tracer.record("serving.session", None, request, t1, t2);
            encode_results_into(&mut response, request, &replica, Some(0))
                .expect("response encodes");
            let t3 = tracer.now();
            tracer.record("protocol.encode_response", None, request, t2, t3);
            request_bytes += frame.len() as u64;
            response_bytes += response.len() as u64;
            request_reads += range.len() as u64;
            tally.attempted += range.len() as u64;
            tally.failed += mismatches(&replica, &oracle[range]) as u64;
        }
    }
    drop(session);
    let totals = tracer.totals();
    let total_ns = |name: &str| totals[name].total_ns as f64;
    let per_read = |name: &str| total_ns(name) / request_reads as f64;
    tally.put(
        "protocol.encode_request_ns_per_read",
        "ns",
        per_read("protocol.encode_request"),
    );
    tally.put(
        "protocol.decode_request_ns_per_read",
        "ns",
        per_read("protocol.decode_request"),
    );
    tally.put(
        "protocol.encode_response_ns_per_read",
        "ns",
        per_read("protocol.encode_response"),
    );
    tally.put(
        "protocol.request_bytes_per_read",
        "bytes",
        request_bytes as f64 / request_reads as f64,
    );
    tally.put(
        "protocol.response_bytes_per_read",
        "bytes",
        response_bytes as f64 / request_reads as f64,
    );
    let replicas_ns = total_ns("protocol.encode_request")
        + total_ns("protocol.decode_request")
        + total_ns("serving.session")
        + total_ns("protocol.encode_response");
    tally.put(
        "net.wire_self_us_per_request",
        "us",
        (total_ns("net.roundtrip") - replicas_ns) / 1e3 / traced_requests as f64,
    );

    // The loopback at full load, untraced.
    let oracles: Vec<&[Classification]> = vec![oracle, &odd_oracle];
    let mut drivers: Vec<Driver<'_>> = clients
        .iter_mut()
        .map(|c| client_driver(c, reads, oracles.clone()))
        .collect();
    let (loopback_reads_per_s, loopback) = rate(tally, &mut drivers, requests, ctx.window);
    tally.put("net.loopback_reads_per_s", "reads/s", loopback_reads_per_s);
    tally.put(
        "net.loopback_over_session",
        "ratio",
        loopback_reads_per_s / session_reads_per_s,
    );
    tally.put(
        "net.request_p99_ms",
        "ms",
        percentile(&loopback.latencies_ms, 99.0),
    );

    // The same load with one reload fired as the window starts.
    let (reloading, ack_ms) = std::thread::scope(|scope| {
        let (fire, fired) = mpsc::channel::<()>();
        let admin = &mut admin;
        let admin_thread = scope.spawn(move || {
            fired.recv().ok()?;
            let t0 = Instant::now();
            admin.reload().ok()?;
            Some(t0.elapsed().as_secs_f64() * 1e3)
        });
        let timed = run_checked(&mut drivers, 0, 1, ctx.reload_window, || {
            fire.send(()).expect("admin thread is alive");
        });
        (
            timed,
            admin_thread.join().expect("admin thread ends cleanly"),
        )
    });
    drop(drivers);
    tally.attempted += reloading.attempted + 1;
    tally.failed += reloading.failed + u64::from(ack_ms.is_none());
    tally.put("reload.reads_per_s", "reads/s", reloading.reads_per_s[0]);
    tally.put(
        "reload.over_loopback",
        "ratio",
        reloading.reads_per_s[0] / loopback_reads_per_s,
    );
    tally.put("reload.ack_ms", "ms", ack_ms.unwrap_or(0.0));
    let rebuilds = log.lock().expect("no hook panicked").clone();
    let rebuild = rebuilds.first().copied().unwrap_or_default();
    tally.put("reload.rebuild_ms", "ms", rebuild.rebuild_ms);
    tally.put("serving.swap_publish_us", "us", rebuild.swap_publish_us);
    tally.put("serving.reloads", "count", rebuilds.len() as f64);
    tally.put(
        "build.delta_mbases_per_s",
        "Mbases/s",
        rebuild.delta_bases as f64 / 1e6 / rebuild.delta_s,
    );

    drop((clients, admin));
    let (server_stats, served_engine) = server.stop();
    let replica_engine = engine.shutdown();
    tally.put("server.requests", "count", server_stats.requests as f64);
    tally.put("server.reads", "count", server_stats.reads as f64);
    tally.put(
        "server.shed_requests",
        "count",
        server_stats.shed_requests as f64,
    );
    tally.put("server.timeouts", "count", server_stats.timeouts as f64);
    tally.put(
        "server.protocol_errors",
        "count",
        server_stats.protocol_errors as f64,
    );
    tally.put(
        "server.internal_errors",
        "count",
        server_stats.internal_errors as f64,
    );
    tally.put(
        "serving.batches_classified",
        "count",
        served_engine.batches_classified as f64,
    );
    tally.put(
        "serving.peak_queue_batches",
        "count",
        served_engine.peak_queue_batches as f64,
    );
    tally.put(
        "serving.worker_panics",
        "count",
        (served_engine.worker_panics + replica_engine.worker_panics) as f64,
    );
}

/// Run `workload` traced and report every per-layer metric.
pub fn run_traced(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    dir: &Path,
    trace_path: &Path,
) -> Measured {
    let mut tracer = Tracer::new(true);
    let mut tally = Measured::default();
    let prepared = Prepared::new(workload, scale, seed, dir, &mut tracer);
    let followed = scale.traced_reads.min(prepared.inputs.reads.len());
    let ctx = Context {
        scale,
        followed: &prepared.inputs.reads[..followed],
        prepared: &prepared,
        window: Duration::from_secs_f64(seconds / 20.0),
        reload_window: Duration::from_secs_f64(seconds / scale.reload_windows as f64),
        dir,
    };
    build_layers(&ctx, &mut tracer, &mut tally);
    let ns_per_read_1t = query_layers(&ctx, &mut tracer, &mut tally);
    let batch_reads_per_s = batch_and_stream_layers(&ctx, ns_per_read_1t, &mut tracer, &mut tally);
    shard_layers(&ctx, batch_reads_per_s, &mut tracer, &mut tally);
    served_layers(&ctx, batch_reads_per_s, &mut tracer, &mut tally);
    tally.put("trace.spans", "count", tracer.spans().len() as f64);
    tracer
        .write_json(trace_path, workload.name(), seed)
        .expect("trace file is written");
    tally
}
