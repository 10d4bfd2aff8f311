//! `mc-serve` — build a MetaCache database once, then serve the saved files
//! over TCP, or talk to a server.
//!
//! ```text
//! Usage:
//!   mc-serve build --refs <fasta> --db <prefix> [--parts N]
//!       Build a database from a reference FASTA/FASTQ (every record
//!       becomes one species-level target), split it round-robin by target
//!       into N parts (default 1) and save it as <prefix>.meta plus
//!       <prefix>.cache0 … <prefix>.cache{N-1} (§4.1's layout).
//!
//!   mc-serve serve --db <prefix> [--part K] [--listen <addr>] [--workers N]
//!                  [--batch N] [--queue N]
//!       Load a saved database and serve it until stdin closes, then drain
//!       gracefully. With --part K, load <prefix>.meta and <prefix>.cacheK
//!       only: the shard server of part K, one process per part behind
//!       `mc-serve route`. Without it, load every part.
//!
//!   mc-serve route --db <prefix> --shard <addr> [--shard <addr> ...]
//!                  [--listen <addr>] [--workers N] [--batch N] [--queue N]
//!       Scatter-gather router over the shard servers of a saved split, one
//!       --shard per part in part order: every classify batch fans out to
//!       all shards as candidate queries, the per-shard top-hit lists merge
//!       losslessly, and the final classification step runs on the router
//!       against <prefix>.meta, the only file it loads. Clients speak the
//!       ordinary protocol — a routed topology is indistinguishable from a
//!       single server (and bit-identical to it).
//!
//!   mc-serve classify --addr <host:port> <reads-file>
//!       Stream a FASTA/FASTQ file through a running server and print one
//!       TSV line per read: id, taxon, rank, best hit count.
//!
//!   mc-serve reload --addr <host:port>
//!       Hot-swap a running server's database with zero downtime: the
//!       server loads its --db files again as at start-up and swaps the
//!       result in while in-flight batches finish on the old one. Against a
//!       router, the swap propagates to every shard server (router metadata
//!       first, then each shard). Prints the new database generation on
//!       success.
//!
//!   mc-serve smoke [--reads N] [--swarm N] [--chaos]
//!       Self-contained loopback round-trip on a synthetic database:
//!       starts a server on an ephemeral port, classifies N reads through
//!       a NetClient, verifies the results against the in-process session
//!       bit for bit, then fetches the same reads' candidate lists (the
//!       shard-server role), verifies them against the in-process lists and
//!       asserts the pass spawned no thread; shuts down cleanly. With
//!       --swarm N, additionally
//!       parks N idle handshaken connections on the server, asserts the
//!       process thread count stays O(workers) (the event loop serves
//!       connections, threads serve compute), and classifies a full pass
//!       amid the swarm. With --chaos, adds a pass through
//!       a fault-injecting proxy (truncation, reset, dribble, stall) driven
//!       by the backoff-retry client — results must still be bit-identical.
//!       Last, saves a 2-part split as `build` does, serves each part from
//!       its `serve --part` load behind a router on the `route` load, and
//!       requires the routed answers ≡ in-process.
//!       Exit code 0 = pass (CI smoke).
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use mc_net::{
    ChaosProxy, ClientConfig, ConnPlan, Fault, NetClient, NetServer, ReloadHook, RetryClient,
    RetryPolicy, RouterBackend, RouterConfig,
};
use mc_seqio::{SequenceReader, SequenceRecord};
use mc_taxonomy::{Rank, Taxonomy, NO_TAXON};
use metacache::build::CpuBuilder;
use metacache::query::Classifier;
use metacache::serialize::{self, Parts};
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::{Database, HostBackend, MetaCacheConfig, ShardPlan};

fn usage() -> ! {
    eprintln!(
        "usage: mc-serve build --refs <file> --db <prefix> [--parts N]\n       mc-serve serve --db <prefix> [--part K] [--listen <addr>] [--workers N] [--batch N] [--queue N]\n       mc-serve route --db <prefix> --shard <host:port> [--shard <host:port> ...] [--listen <addr>] [--workers N] [--batch N] [--queue N]\n       mc-serve classify --addr <host:port> <reads-file>\n       mc-serve reload --addr <host:port>\n       mc-serve smoke [--reads N] [--swarm N] [--chaos]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("build") => build(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("route") => route(&args[1..]),
        Some("classify") => classify(&args[1..]),
        Some("reload") => reload(&args[1..]),
        Some("smoke") => smoke(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}

/// Pull `--flag value` out of an argument list; returns the remainder.
fn parse_flags(args: &[String], flags: &[&str]) -> (Vec<(String, String)>, Vec<String>) {
    let mut values = Vec::new();
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if flags.contains(&arg.as_str()) {
            let Some(value) = iter.next() else { usage() };
            values.push((arg.clone(), value.clone()));
        } else if arg.starts_with('-') {
            usage();
        } else {
            rest.push(arg.clone());
        }
    }
    (values, rest)
}

fn flag<'a>(values: &'a [(String, String)], name: &str) -> Option<&'a str> {
    values
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parsed<T: std::str::FromStr>(values: &[(String, String)], name: &str, default: T) -> T {
    match flag(values, name) {
        None => default,
        Some(text) => text.parse().unwrap_or_else(|_| {
            eprintln!("mc-serve: invalid value for {name}: {text}");
            std::process::exit(2);
        }),
    }
}

/// Build a database from a reference file: each record becomes one target
/// under its own species taxon.
fn build_from_refs(path: &str) -> Result<Database, String> {
    let mut taxonomy = Taxonomy::with_root();
    let stream = SequenceReader::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut records = Vec::new();
    for record in stream {
        records.push(record.map_err(|e| format!("parse {path}: {e}"))?);
    }
    if records.is_empty() {
        return Err(format!("{path}: no reference sequences"));
    }
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), {
        for (i, record) in records.iter().enumerate() {
            let taxon = 100 + i as u32;
            taxonomy
                .add_node(taxon, 1, Rank::Species, record.id())
                .map_err(|e| format!("taxonomy: {e}"))?;
        }
        taxonomy
    });
    for (i, record) in records.into_iter().enumerate() {
        let taxon = 100 + i as u32;
        builder
            .add_target(record, taxon)
            .map_err(|e| format!("add target: {e}"))?;
    }
    Ok(builder.finish())
}

/// The directory and base name of a database prefix: `dir/name` names
/// `dir/name.meta` and `dir/name.cache<i>`.
fn split_prefix(prefix: &str) -> Result<(&Path, &str), String> {
    let path = Path::new(prefix);
    match (
        path.parent(),
        path.file_name().and_then(|name| name.to_str()),
    ) {
        (Some(dir), Some(name)) => Ok((dir, name)),
        _ => Err(format!("{prefix}: not a database prefix")),
    }
}

/// Save `db` under `prefix`, split round-robin by target into `parts`
/// partitions when that is more than one: the files `build` writes.
fn save_parts(db: &Database, prefix: &str, parts: usize) -> Result<(), String> {
    let (dir, name) = split_prefix(prefix)?;
    let split = match parts {
        1 => None,
        _ => Some(
            ShardPlan::round_robin(db.target_count(), parts)
                .and_then(|plan| db.repartition(&plan))
                .map_err(|e| format!("split into {parts} parts: {e}"))?,
        ),
    };
    let report = serialize::save(split.as_ref().unwrap_or(db), dir, name)
        .map_err(|e| format!("save {prefix}: {e}"))?;
    eprintln!(
        "mc-serve: saved {prefix} ({} targets in {parts} parts, {} files, {} bytes)",
        db.target_count(),
        report.files.len(),
        report.total_bytes
    );
    Ok(())
}

/// Load `parts` of the database saved under `prefix`, and the number of
/// parts its files hold. `serve` and `route` start and reload through here,
/// so both fail with the same message.
fn load_parts(prefix: &str, parts: Parts) -> Result<(Arc<Database>, usize), String> {
    let (dir, name) = split_prefix(prefix)?;
    let (db, part_count) =
        serialize::load_parts(dir, name, parts).map_err(|e| format!("load {prefix}: {e}"))?;
    let read = match parts {
        Parts::All => "every part".to_string(),
        Parts::One(part) => format!("part {part}"),
        Parts::Metadata => "the metadata".to_string(),
    };
    eprintln!(
        "mc-serve: loaded {read} of {prefix} ({part_count} parts, {} targets, {} table bytes)",
        db.target_count(),
        db.table_bytes()
    );
    Ok((db, part_count))
}

/// Resolve the engine shape flags shared by `serve` and `route`.
fn engine_config(flags: &[(String, String)]) -> EngineConfig {
    EngineConfig {
        workers: parsed(flags, "--workers", EngineConfig::default().workers),
        queue_capacity: parsed(flags, "--queue", 4),
        batch_records: parsed(flags, "--batch", 256),
        session_max_in_flight: 0,
    }
}

/// Bind `engine` on `listen` and run it until stdin closes (or a "quit"
/// line), then drain both the server and the engine — the shared tail of
/// `serve` and `route`. With a `reload` hook, `mc-serve reload` hot-swaps
/// the database through it.
fn run_engine(
    engine: ServingEngine,
    listen: &str,
    workers: usize,
    reload: Option<ReloadHook>,
) -> i32 {
    let server = match NetServer::bind(&engine, listen) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mc-serve: bind {listen}: {e}");
            return 1;
        }
    };
    let server = match reload {
        Some(hook) => server.with_reload(hook),
        None => server,
    };
    let handle = server.handle();
    eprintln!(
        "mc-serve: listening on {} ({} workers); close stdin to stop",
        handle.local_addr(),
        workers
    );

    let stats = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        // Drain stdin; EOF (or a "quit" line) triggers the graceful stop.
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) => break,
                Ok(_) if line.trim() == "quit" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        handle.shutdown();
        runner.join().expect("server thread")
    });
    match stats {
        Ok(stats) => {
            let engine_stats = engine.shutdown();
            eprintln!(
                "mc-serve: drained; {} connections, {} requests, {} reads ({} protocol errors); engine classified {} records",
                stats.connections,
                stats.requests,
                stats.reads,
                stats.protocol_errors,
                engine_stats.records_classified
            );
            0
        }
        Err(e) => {
            eprintln!("mc-serve: server error: {e}");
            1
        }
    }
}

fn build(args: &[String]) -> i32 {
    let (flags, rest) = parse_flags(args, &["--refs", "--db", "--parts"]);
    let (Some(refs), Some(prefix), true) = (
        flag(&flags, "--refs"),
        flag(&flags, "--db"),
        rest.is_empty(),
    ) else {
        usage()
    };
    let parts: usize = parsed(&flags, "--parts", 1);
    match build_from_refs(refs).and_then(|db| save_parts(&db, prefix, parts)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("mc-serve: {e}");
            1
        }
    }
}

fn serve(args: &[String]) -> i32 {
    let (flags, rest) = parse_flags(
        args,
        &[
            "--db",
            "--part",
            "--listen",
            "--workers",
            "--batch",
            "--queue",
        ],
    );
    let (Some(prefix), true) = (flag(&flags, "--db"), rest.is_empty()) else {
        usage()
    };
    let listen = flag(&flags, "--listen").unwrap_or("127.0.0.1:7878");
    let config = engine_config(&flags);
    let parts = match flag(&flags, "--part") {
        None => Parts::All,
        Some(_) => Parts::One(parsed(&flags, "--part", 0)),
    };

    let db = match load_parts(prefix, parts) {
        Ok((db, _)) => db,
        Err(e) => {
            eprintln!("mc-serve: {e}");
            return 1;
        }
    };
    // The reload hook loads the same files as start-up and swaps the result
    // in as the next epoch. In-flight batches finish on the old database;
    // the swap is the moment new batches observe the new one.
    let prefix = prefix.to_string();
    let hook: ReloadHook = Arc::new(move |engine: &ServingEngine| {
        let (db, _) = load_parts(&prefix, parts)?;
        Ok(engine.reload_backend(HostBackend::new(db)))
    });
    let engine = ServingEngine::new(HostBackend::new(db), config);
    run_engine(engine, listen, config.workers, Some(hook))
}

/// Scatter-gather router over N shard servers (see the module docs and
/// [`mc_net::router`]).
fn route(args: &[String]) -> i32 {
    let (flags, rest) = parse_flags(
        args,
        &[
            "--db",
            "--listen",
            "--workers",
            "--batch",
            "--queue",
            "--shard",
        ],
    );
    let (Some(prefix), true) = (flag(&flags, "--db"), rest.is_empty()) else {
        usage()
    };
    // --shard repeats, one occurrence per shard server, in part order.
    let shards: Vec<String> = flags
        .iter()
        .filter(|(k, _)| k == "--shard")
        .map(|(_, v)| v.clone())
        .collect();
    if shards.is_empty() {
        usage();
    }
    let listen = flag(&flags, "--listen").unwrap_or("127.0.0.1:7879");
    let config = engine_config(&flags);

    // The router needs only the shared metadata (targets, taxonomy,
    // lineages): the `.meta` file the shard servers' parts were saved with.
    let meta = match load_parts(prefix, Parts::Metadata) {
        Ok((meta, part_count)) if part_count == shards.len() => meta,
        Ok((_, part_count)) => {
            eprintln!(
                "mc-serve: {} --shard addresses for a database saved in {part_count} parts",
                shards.len()
            );
            return 2;
        }
        Err(e) => {
            eprintln!("mc-serve: {e}");
            return 1;
        }
    };
    let router_config = RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            request_timeout: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
        policy: RetryPolicy::default(),
    };
    let backend = match RouterBackend::new(meta, &shards, router_config.clone()) {
        Ok(backend) => backend,
        Err(e) => {
            eprintln!("mc-serve: resolve shard addresses: {e}");
            return 1;
        }
    };
    // Routed reload: load the router's metadata again and swap it first,
    // then tell every shard server to reload. Order matters —
    // new metadata over old shard tables degrades gracefully (old target
    // ids stay valid in the grown target table), whereas new shard tables
    // over old metadata would answer with target ids the merge step cannot
    // resolve. The router workers' generation-agreement re-query bridges
    // the window in which the shard sweep is mid-propagation.
    let prefix = prefix.to_string();
    let shard_addrs = shards.clone();
    let hook_config = router_config;
    let hook: ReloadHook = Arc::new(move |engine: &ServingEngine| {
        let (meta, part_count) = load_parts(&prefix, Parts::Metadata)?;
        if part_count != shard_addrs.len() {
            return Err(format!(
                "{prefix} now holds {part_count} parts, the router {} shards",
                shard_addrs.len()
            ));
        }
        let backend = RouterBackend::new(meta, &shard_addrs, hook_config.clone())
            .map_err(|e| format!("resolve shard addresses: {e}"))?;
        let generation = engine.reload_backend(backend);
        for addr in &shard_addrs {
            let mut client = NetClient::connect(addr.as_str())
                .map_err(|e| format!("reload shard {addr}: {e}"))?;
            let shard_generation = client
                .reload()
                .map_err(|e| format!("reload shard {addr}: {e}"))?;
            eprintln!("mc-serve: shard {addr} reloaded to generation {shard_generation}");
        }
        Ok(generation)
    });
    let engine = ServingEngine::new(backend, config);
    run_engine(engine, listen, config.workers, Some(hook))
}

fn classify(args: &[String]) -> i32 {
    let (flags, rest) = parse_flags(args, &["--addr"]);
    let (Some(addr), [reads_file]) = (flag(&flags, "--addr"), rest.as_slice()) else {
        usage()
    };
    let stream = match SequenceReader::open(reads_file) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("mc-serve: open {reads_file}: {e}");
            return 1;
        }
    };
    let mut client = match NetClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("mc-serve: connect {addr}: {e}");
            return 1;
        }
    };
    // Materialise ids alongside the stream so output lines carry them.
    let mut reads = Vec::new();
    for record in stream {
        match record {
            Ok(record) => reads.push(record),
            Err(e) => {
                eprintln!("mc-serve: parse {reads_file}: {e}");
                return 1;
            }
        }
    }
    let ids: Vec<String> = reads.iter().map(|r| r.id().to_string()).collect();
    match client.classify_iter(reads) {
        Ok((classifications, summary)) => {
            let mut stdout = String::new();
            for (id, c) in ids.iter().zip(&classifications) {
                let rank = c.rank.map_or("-", |r| r.name());
                let taxon = if c.taxon == NO_TAXON {
                    "unclassified".to_string()
                } else {
                    c.taxon.to_string()
                };
                stdout.push_str(&format!("{id}\t{taxon}\t{rank}\t{}\n", c.best_hits));
            }
            print!("{stdout}");
            eprintln!(
                "mc-serve: classified {} reads in {} requests (peak {} in flight)",
                summary.reads, summary.requests, summary.peak_in_flight
            );
            0
        }
        Err(e) => {
            eprintln!("mc-serve: classify: {e}");
            1
        }
    }
}

/// Trigger a zero-downtime database reload on a running server
/// (`Reload`/`ReloadAck`): the server's reload hook loads its database
/// files again and swaps epochs while streams keep flowing.
fn reload(args: &[String]) -> i32 {
    let (flags, rest) = parse_flags(args, &["--addr"]);
    if !rest.is_empty() {
        usage();
    }
    let Some(addr) = flag(&flags, "--addr") else {
        usage()
    };
    let mut client = match NetClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("mc-serve: connect {addr}: {e}");
            return 1;
        }
    };
    match client.reload() {
        Ok(generation) => {
            eprintln!("mc-serve: {addr} reloaded; database generation {generation}");
            0
        }
        Err(e) => {
            eprintln!("mc-serve: reload {addr}: {e}");
            1
        }
    }
}

/// This process's live OS thread count (`Threads:` in /proc/self/status);
/// `None` where procfs is unavailable.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

fn show_threads(count: Option<usize>) -> String {
    count.map_or("n/a".into(), |n| n.to_string())
}

fn synthetic_genome(len: usize, seed: u64) -> Vec<u8> {
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

/// The smoke's routed pass: save `db` as a 2-part split through `build`'s
/// [`save_parts`], serve each part from its `serve --part` load and route
/// over them from the `route` load, all on ephemeral ports; the routed
/// answers must be ≡ `expected`.
fn smoke_routed(
    db: &Database,
    reads: &[SequenceRecord],
    expected: &[metacache::Classification],
) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("mc-serve-smoke-{}", std::process::id()));
    let prefix = dir.join("smoke");
    let prefix = prefix.to_str().ok_or("the temp dir is not UTF-8")?;
    let loaded = save_parts(db, prefix, 2).and_then(|()| {
        let parts = (0..2)
            .map(|part| load_parts(prefix, Parts::One(part)).map(|(db, _)| db))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((parts, load_parts(prefix, Parts::Metadata)?))
    });
    std::fs::remove_dir_all(&dir).ok();
    let (parts, (meta, part_count)) = loaded?;
    if part_count != 2 {
        return Err(format!(
            "saved 2 parts, the metadata load found {part_count}"
        ));
    }

    let config = EngineConfig {
        workers: 1,
        queue_capacity: 4,
        batch_records: 32,
        session_max_in_flight: 0,
    };
    let shard_engines: Vec<ServingEngine> = parts
        .into_iter()
        .map(|part| ServingEngine::new(HostBackend::new(part), config))
        .collect();
    let shard_servers = shard_engines
        .iter()
        .map(|engine| NetServer::bind(engine, "127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("bind shard server: {e}"))?;
    let shard_handles: Vec<_> = shard_servers.iter().map(NetServer::handle).collect();
    let shard_addrs: Vec<_> = shard_handles.iter().map(|h| h.local_addr()).collect();
    let router = RouterBackend::new(meta, &shard_addrs, RouterConfig::default())
        .map_err(|e| format!("router: {e}"))?;
    let router_engine = ServingEngine::new(router, config);
    let router_server =
        NetServer::bind(&router_engine, "127.0.0.1:0").map_err(|e| format!("bind router: {e}"))?;
    let router_handle = router_server.handle();

    let verdict = std::thread::scope(|scope| {
        let runners: Vec<_> = shard_servers
            .into_iter()
            .chain([router_server])
            .map(|server| scope.spawn(|| server.run()))
            .collect();
        let routed = NetClient::connect(router_handle.local_addr())
            .and_then(|mut client| client.classify_batch(reads))
            .map_err(|e| format!("classify through the router: {e}"));
        router_handle.shutdown();
        shard_handles.iter().for_each(|handle| handle.shutdown());
        for runner in runners {
            runner
                .join()
                .expect("server thread")
                .map_err(|e| format!("server: {e}"))?;
        }
        routed
    });
    router_engine.shutdown();
    shard_engines.into_iter().for_each(|engine| {
        engine.shutdown();
    });
    if verdict? != expected {
        return Err("routed results diverged from in-process results".into());
    }
    eprintln!(
        "mc-serve smoke: routed pass from 2 saved parts ≡ in-process ({} reads)",
        reads.len()
    );
    Ok(())
}

/// Self-contained loopback round-trip: synthetic database, ephemeral-port
/// server, one pipelined client; verifies network ≡ in-process bit for bit.
fn smoke(args: &[String]) -> i32 {
    let mut args: Vec<String> = args.to_vec();
    let with_chaos = match args.iter().position(|a| a == "--chaos") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let (flags, rest) = parse_flags(&args, &["--reads", "--swarm"]);
    if !rest.is_empty() {
        usage();
    }
    let read_count: usize = parsed(&flags, "--reads", 200);
    let swarm: usize = parsed(&flags, "--swarm", 0);

    let mut taxonomy = Taxonomy::with_root();
    taxonomy.add_node(100, 1, Rank::Species, "smoke a").unwrap();
    taxonomy.add_node(101, 1, Rank::Species, "smoke b").unwrap();
    let genomes = [synthetic_genome(20_000, 41), synthetic_genome(20_000, 42)];
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), taxonomy);
    builder
        .add_target(SequenceRecord::new("refA", genomes[0].clone()), 100)
        .unwrap();
    builder
        .add_target(SequenceRecord::new("refB", genomes[1].clone()), 101)
        .unwrap();
    let db = Arc::new(builder.finish());
    let reads: Vec<SequenceRecord> = (0..read_count)
        .map(|i| {
            let genome = &genomes[i % 2];
            let offset = (i * 97) % (genome.len() - 160);
            SequenceRecord::new(format!("r{i}"), genome[offset..offset + 150].to_vec())
        })
        .collect();
    let expected = Classifier::new(Arc::clone(&db)).classify_batch(&reads);

    let engine = ServingEngine::new(
        HostBackend::new(Arc::clone(&db)),
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            batch_records: 32,
            session_max_in_flight: 0,
        },
    );
    let server = match NetServer::bind(&engine, "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mc-serve smoke: bind: {e}");
            return 1;
        }
    };
    let handle = server.handle();
    let addr = handle.local_addr();

    let verdict = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run());
        let result = (|| -> Result<(), String> {
            let mut client =
                NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let batch = client
                .classify_batch(&reads)
                .map_err(|e| format!("classify_batch: {e}"))?;
            if batch != expected {
                return Err("network classify_batch diverged from in-process results".into());
            }
            let (streamed, summary) = client
                .classify_iter(reads.iter().cloned())
                .map_err(|e| format!("classify_iter: {e}"))?;
            if streamed != expected {
                return Err("network classify_iter diverged from in-process results".into());
            }
            eprintln!(
                "mc-serve smoke: {} reads on {} ≡ in-process \
                 ({} requests, peak {} in flight, credits {})",
                reads.len(),
                addr,
                summary.requests,
                summary.peak_in_flight,
                client.credits()
            );
            // Candidates pass: the shard-server role on the same connection.
            // The lists come off the engine's worker pool like everything
            // else — the first `Candidates` frame must not spawn a thread.
            let threads_before = os_thread_count();
            let (lists, generation) = client
                .candidates_batch_tagged(&reads)
                .map_err(|e| format!("candidates_batch: {e}"))?;
            let threads_after = os_thread_count();
            let classifier = Classifier::new(Arc::clone(&db));
            let mut scratch = metacache::QueryScratch::new();
            let identical = lists.len() == reads.len()
                && reads.iter().zip(&lists).all(|(read, list)| {
                    classifier.candidates_with(read, &mut scratch).as_slice() == &list[..]
                });
            if !identical {
                return Err("network candidate lists diverged from in-process lists".into());
            }
            if generation != engine.generation() {
                return Err(format!(
                    "candidate lists tagged generation {generation}, engine is at {}",
                    engine.generation()
                ));
            }
            if threads_after != threads_before {
                return Err(format!(
                    "the candidates pass changed the thread count \
                     {threads_before:?} -> {threads_after:?}; candidates must ride the engine pool"
                ));
            }
            eprintln!(
                "mc-serve smoke: candidates pass ≡ in-process ({} lists, threads {})",
                lists.len(),
                show_threads(threads_after)
            );
            if swarm > 0 {
                // Swarm pass: N idle handshaken connections park on the
                // event loop while a full classify pass runs amid them.
                // Connections must cost fds, not threads — the thread
                // count is O(workers), independent of the swarm size.
                let threads_before = os_thread_count();
                let mut drones = Vec::with_capacity(swarm);
                let hello = mc_net::protocol::Frame::Hello {
                    magic: mc_net::protocol::MAGIC,
                    version: mc_net::protocol::PROTOCOL_VERSION,
                    batch_records: 0,
                    max_in_flight: 0,
                    auth_token: None,
                }
                .encode()
                .map_err(|e| format!("swarm hello encode: {e}"))?;
                for i in 0..swarm {
                    use std::io::Write as _;
                    let mut drone = std::net::TcpStream::connect(addr)
                        .map_err(|e| format!("swarm connect {i}: {e}"))?;
                    drone
                        .write_all(&hello)
                        .map_err(|e| format!("swarm hello {i}: {e}"))?;
                    match mc_net::protocol::read_frame(&mut drone) {
                        Ok(Some(mc_net::protocol::Frame::HelloAck { .. })) => {}
                        other => return Err(format!("swarm handshake {i}: {other:?}")),
                    }
                    drones.push(drone);
                }
                let threads_during = os_thread_count();
                if let (Some(before), Some(during)) = (threads_before, threads_during) {
                    if during > before {
                        return Err(format!(
                            "swarm of {swarm} connections grew the thread count \
                             {before} -> {during}; connections must not cost threads"
                        ));
                    }
                }
                let mut amid =
                    NetClient::connect(addr).map_err(|e| format!("connect amid swarm: {e}"))?;
                let swarmed = amid
                    .classify_batch(&reads)
                    .map_err(|e| format!("classify amid swarm: {e}"))?;
                if swarmed != expected {
                    return Err("results amid the swarm diverged from in-process".into());
                }
                eprintln!(
                    "mc-serve smoke: swarm pass ≡ in-process ({} idle connections, threads {})",
                    swarm,
                    show_threads(threads_during)
                );
                drop(drones);
            }
            if with_chaos {
                // One more pass, through a fault-injecting proxy: handshake
                // truncation, a mid-stream reset, slow-loris dribble and a
                // stall — the retry client must converge bit-identically.
                let plans = vec![
                    ConnPlan::upstream(Fault::Truncate { after: 9 }),
                    ConnPlan::downstream(Fault::Reset { after: 30 }),
                    ConnPlan::upstream(Fault::Stall { after: 7 }),
                    ConnPlan::upstream(Fault::Dribble {
                        chunk: 16,
                        pause: Duration::from_millis(1),
                    }),
                ];
                let proxy =
                    ChaosProxy::start(addr, plans).map_err(|e| format!("chaos proxy: {e}"))?;
                let mut retry = RetryClient::connect_with(
                    proxy.local_addr(),
                    ClientConfig {
                        connect_timeout: Some(Duration::from_secs(2)),
                        request_timeout: Some(Duration::from_secs(2)),
                        ..ClientConfig::default()
                    },
                    RetryPolicy {
                        max_retries: 12,
                        base_delay: Duration::from_millis(5),
                        max_delay: Duration::from_millis(100),
                        seed: 7,
                    },
                )
                .map_err(|e| format!("chaos connect: {e}"))?;
                let (chaotic, _) = retry
                    .classify_iter(reads.iter().cloned())
                    .map_err(|e| format!("chaos classify_iter: {e}"))?;
                if chaotic != expected {
                    return Err("chaos-pass results diverged from in-process results".into());
                }
                let rstats = retry.stats();
                eprintln!(
                    "mc-serve smoke: chaos pass ≡ in-process \
                     ({} connects, {} retries, {} busy sheds)",
                    rstats.connects, rstats.retries, rstats.busy_sheds
                );
                proxy.shutdown();
            }
            Ok(())
        })();
        handle.shutdown();
        let stats = runner.join().expect("server thread");
        result.and_then(|()| stats.map_err(|e| format!("server: {e}")))
    });

    let engine_stats = engine.shutdown();
    match verdict {
        Ok(stats) => {
            // Three clean passes (classify_batch, classify_iter, candidates
            // — candidate work is engine work) plus one exact pass amid the
            // swarm; the chaos pass classifies every read at least once
            // more, plus replays of unacknowledged chunks.
            let passes = 3 + u64::from(swarm > 0) + u64::from(with_chaos);
            let floor = passes * reads.len() as u64;
            let exact = !with_chaos;
            if (exact && engine_stats.records_classified != floor)
                || engine_stats.records_classified < floor
            {
                eprintln!(
                    "mc-serve smoke: engine classified {} records, expected {}{}",
                    engine_stats.records_classified,
                    if exact { "" } else { "at least " },
                    floor
                );
                return 1;
            }
            if let Err(e) = smoke_routed(&db, &reads, &expected) {
                eprintln!("mc-serve smoke: FAIL: routed pass: {e}");
                return 1;
            }
            eprintln!(
                "mc-serve smoke: PASS ({} connections, {} requests, clean shutdown)",
                stats.connections, stats.requests
            );
            0
        }
        Err(e) => {
            eprintln!("mc-serve smoke: FAIL: {e}");
            1
        }
    }
}
