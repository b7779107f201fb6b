//! `ppanns` — command-line front end for the PP-ANNS scheme.
//!
//! A minimal operational surface over the library: generate synthetic
//! datasets, set up keys and outsource a database, run encrypted queries,
//! and grid-search the `k′` knob — each step persisting its artifacts so
//! the roles (owner / user / server) can live in separate invocations.
//!
//! ```text
//! ppanns-cli gen       --profile sift --n 5000 --queries 50 --base base.fvecs --out-queries q.fvecs
//! ppanns-cli outsource --base base.fvecs --beta 3.0 --seed 7 --db db.bin --keys keys.bin
//! ppanns-cli serve     --db db.bin --addr 127.0.0.1:7070 --workers 8 --token 42
//! ppanns-cli serve     --data-dir ./collections --addr 127.0.0.1:7070 --workers 8 --token 42
//! ppanns-cli query     --remote 127.0.0.1:7070 --keys keys.bin --queries q.fvecs --k 10
//! ppanns-cli query     --remote 127.0.0.1:7070 --keys keys.bin --queries q.fvecs --collection docs
//! ppanns-cli query     --remote 127.0.0.1:7070 --keys keys.bin --batch-file q.fvecs --batch-size 64
//! ppanns-cli query     --db db.bin --keys keys.bin --queries q.fvecs --k 10 --ratio 16
//! ppanns-cli collections --remote 127.0.0.1:7070
//! ppanns-cli create    --remote 127.0.0.1:7070 --token 42 --name docs --dim 960
//! ppanns-cli drop      --remote 127.0.0.1:7070 --token 42 --name docs
//! ppanns-cli stats     --remote 127.0.0.1:7070 [--collection docs]
//! ppanns-cli shutdown  --remote 127.0.0.1:7070 --token 42
//! ppanns-cli tune      --db db.bin --keys keys.bin --base base.fvecs --queries q.fvecs --k 10 --target 0.9
//! ```
//!
//! `serve` runs the cloud role of PROTOCOL.md over TCP — one index
//! (`--db`, served as collection `"default"`) or a whole snapshot
//! directory (`--data-dir`, one collection per `*.ppdb` file, with
//! remote create/drop persisted back). `query --remote`, `collections`,
//! `create`, `drop`, `stats` and `shutdown` are its clients.
//! OPERATIONS.md is the runbook.

use ppanns::core::catalog::Catalog;
use ppanns::core::tune::{grid_search, TuningGrid};
use ppanns::core::{
    CloudServer, DataOwner, DurabilityOptions, EncryptedDatabase, FsyncPolicy, PpAnnParams,
    SearchParams, DEFAULT_COMPACT_BYTES,
};
use ppanns::datasets::io::{read_fvecs, write_fvecs};
use ppanns::datasets::{brute_force_knn, Dataset, DatasetProfile};
use ppanns::service::{serve_catalog, ServiceClient, ServiceConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = parse_flags(rest).and_then(|flags| match command.as_str() {
        "gen" => cmd_gen(&flags),
        "outsource" => cmd_outsource(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags),
        "collections" => cmd_collections(&flags),
        "create" => cmd_create(&flags),
        "drop" => cmd_drop(&flags),
        "stats" => cmd_stats(&flags),
        "promote" => cmd_promote(&flags),
        "shutdown" => cmd_shutdown(&flags),
        "tune" => cmd_tune(&flags),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed. A `Usage` error is the command line's own (an
/// unknown command, a flag that is missing, clashes or does not parse), so
/// the usage text follows it; any other failure — a file, the network, a
/// server's refusal of a well-formed command — prints one `error:` line.
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Failed(e)
    }
}

const USAGE: &str = "usage:
  ppanns-cli gen       --profile <sift|gist|glove|deep> --n <N> --queries <Q> --base <out.fvecs> --out-queries <out.fvecs> [--seed S]
  ppanns-cli outsource --base <in.fvecs> --db <out.bin> --keys <out.bin> [--beta B] [--seed S]
  ppanns-cli serve     --db <in.bin> [--addr A] [--workers W] [--token T]
  ppanns-cli serve     --data-dir <dir> [--addr A] [--workers W] [--token T] [--fsync always|never|every=N] [--compact-bytes B] [--replica-listen A2]
  ppanns-cli serve     --replicate-from <primary-addr> [--addr A] [--workers W] [--token T]
  ppanns-cli query     --remote <addr> --keys <in.bin> --queries <in.fvecs> [--collection C] [--k K] [--ratio R] [--ef E]
  ppanns-cli query     --remote <addr> --keys <in.bin> --batch-file <in.fvecs> [--collection C] [--batch-size B] [--k K] [--ratio R] [--ef E]
  ppanns-cli query     --db <in.bin> --keys <in.bin> --queries <in.fvecs> [--k K] [--ratio R] [--ef E]
  ppanns-cli collections --remote <addr>
  ppanns-cli create    --remote <addr> --token <T> --name <N> --dim <D>
  ppanns-cli drop      --remote <addr> --token <T> --name <N>
  ppanns-cli stats     --remote <addr> [--collection C]
  ppanns-cli promote   --remote <addr> --token <T>
  ppanns-cli shutdown  --remote <addr> --token <T>
  ppanns-cli tune      --db <in.bin> --keys <in.bin> --base <in.fvecs> --queries <in.fvecs> [--k K] [--target T]";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected --flag, got `{key}`")));
        };
        let value = it.next().ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, CliError> {
    flags.get(name).map(String::as_str).ok_or_else(|| CliError::Usage(format!("missing --{name}")))
}

fn parse_value<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::Usage(format!("--{name}: cannot parse `{value}`")))
}

fn parse_required<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<T, CliError> {
    parse_value(name, required(flags, name)?)
}

fn parse_or<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, CliError> {
    flags.get(name).map_or(Ok(default), |v| parse_value(name, v))
}

fn cmd_gen(flags: &Flags) -> Result<(), CliError> {
    let profile = match required(flags, "profile")? {
        "sift" => DatasetProfile::SiftLike,
        "gist" => DatasetProfile::GistLike,
        "glove" => DatasetProfile::GloveLike,
        "deep" => DatasetProfile::DeepLike,
        other => return Err(CliError::Usage(format!("unknown profile `{other}`"))),
    };
    let n: usize = parse_or(flags, "n", 5_000)?;
    let q: usize = parse_or(flags, "queries", 50)?;
    let seed: u64 = parse_or(flags, "seed", 42)?;
    let base_path = PathBuf::from(required(flags, "base")?);
    let queries_path = PathBuf::from(required(flags, "out-queries")?);
    let ds = Dataset::generate(profile, n, q, seed);
    write_fvecs(&base_path, &ds.base).map_err(|e| e.to_string())?;
    write_fvecs(&queries_path, &ds.queries).map_err(|e| e.to_string())?;
    println!(
        "wrote {} base vectors -> {} and {} queries -> {} ({}d, profile {})",
        n,
        base_path.display(),
        q,
        queries_path.display(),
        profile.dim(),
        profile.name()
    );
    Ok(())
}

fn load_base(flags: &Flags) -> Result<Vec<Vec<f64>>, CliError> {
    let path = PathBuf::from(required(flags, "base")?);
    read_fvecs(&path, None).map_err(|e| CliError::Failed(format!("{}: {e}", path.display())))
}

fn cmd_outsource(flags: &Flags) -> Result<(), CliError> {
    let base = load_base(flags)?;
    if base.is_empty() {
        return Err(CliError::Failed("base file holds no vectors".into()));
    }
    let dim = base[0].len();
    let beta: f64 = parse_or(flags, "beta", 1.0)?;
    let seed: u64 = parse_or(flags, "seed", 7)?;
    let db_path = PathBuf::from(required(flags, "db")?);
    let keys_path = PathBuf::from(required(flags, "keys")?);

    let owner = DataOwner::setup(PpAnnParams::new(dim).with_beta(beta).with_seed(seed), &base);
    let db = owner.outsource(&base);
    db.save_to(&db_path).map_err(|e| e.to_string())?;
    owner.save_keys(&keys_path).map_err(|e| e.to_string())?;
    println!(
        "outsourced {} vectors ({dim}d, beta {beta}) -> {} ; keys -> {}",
        db.len(),
        db_path.display(),
        keys_path.display()
    );
    Ok(())
}

fn load_server_and_owner(flags: &Flags) -> Result<(CloudServer, DataOwner), CliError> {
    let db_path = PathBuf::from(required(flags, "db")?);
    let keys_path = PathBuf::from(required(flags, "keys")?);
    let db = EncryptedDatabase::load_from(Path::new(&db_path)).map_err(|e| e.to_string())?;
    let owner = DataOwner::load_keys(Path::new(&keys_path)).map_err(|e| e.to_string())?;
    Ok((CloudServer::new(db), owner))
}

fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let addr: String = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7070".into());
    let workers: usize = parse_or(flags, "workers", 4)?;
    let token: Option<u64> = flags.get("token").map(|t| parse_value("token", t)).transpose()?;

    let mut config = ServiceConfig::loopback().with_addr(addr).with_workers(workers);
    if let Some(t) = token {
        config = config.with_owner_token(t);
    }

    // Three boot modes: one snapshot served as collection "default"
    // (--db, the legacy deployment), a whole snapshot directory
    // (--data-dir, one collection per *.ppdb file, with remote
    // create/drop persisted back), or a replication follower
    // (--replicate-from, empty catalog that syncs every upstream
    // collection and serves reads — OPERATIONS.md §10).
    let replicate_from = flags.get("replicate-from");
    if replicate_from.is_some() && (flags.get("db").is_some() || flags.get("data-dir").is_some()) {
        return Err(CliError::Usage(
            "--replicate-from is exclusive with --db/--data-dir: a follower's collections \
             come from its upstream and live in memory"
                .into(),
        ));
    }
    let catalog = match (flags.get("db"), flags.get("data-dir")) {
        (None, None) if replicate_from.is_some() => {
            config = config.with_replicate_from(replicate_from.expect("checked above"));
            Catalog::new()
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage("--db and --data-dir are mutually exclusive".into()))
        }
        (Some(db_path), None) => {
            let db = EncryptedDatabase::load_from(Path::new(db_path)).map_err(|e| e.to_string())?;
            let catalog = Catalog::new();
            catalog.create("default", db).map_err(|e| e.to_string())?;
            catalog
        }
        (None, Some(dir)) => {
            let dir = PathBuf::from(dir);
            let fsync = match flags.get("fsync") {
                None => FsyncPolicy::Always,
                Some(v) => {
                    FsyncPolicy::parse(v).map_err(|e| CliError::Usage(format!("--fsync: {e}")))?
                }
            };
            let compact_bytes: u64 = parse_or(flags, "compact-bytes", DEFAULT_COMPACT_BYTES)?;
            let opts = DurabilityOptions { fsync, compact_bytes: compact_bytes.max(1) };
            // Load every snapshot and replay its write-ahead log over it;
            // a torn or corrupt log tail is truncated, never fatal.
            let (catalog, reports) =
                Catalog::load_dir_durable(&dir, opts).map_err(|e| e.to_string())?;
            for r in &reports {
                if r.discarded {
                    println!(
                        "recovery: collection `{}`: discarded a stale write-ahead log",
                        r.collection
                    );
                } else if r.replayed > 0 || r.truncated_bytes > 0 {
                    println!(
                        "recovery: collection `{}`: replayed {} logged mutation(s){}",
                        r.collection,
                        r.replayed,
                        if r.truncated_bytes > 0 {
                            format!(", truncated {} torn byte(s)", r.truncated_bytes)
                        } else {
                            String::new()
                        }
                    );
                }
            }
            if catalog.is_empty() {
                println!("note: {} holds no *.ppdb snapshots yet", dir.display());
            }
            config = config.with_data_dir(dir).with_fsync(fsync).with_compact_bytes(compact_bytes);
            catalog
        }
        (None, None) => {
            return Err(CliError::Usage("missing --db, --data-dir or --replicate-from".into()))
        }
    };

    let collections = catalog.list();
    let catalog = Arc::new(catalog);
    let handle = serve_catalog(Arc::clone(&catalog), config.clone())
        .map_err(|e| format!("bind failed: {e}"))?;

    // A dedicated replication listener over the SAME catalog: follower
    // pull traffic (snapshot chunks, WAL segments) gets its own accept
    // queue, connection budget and worker pool, so a bootstrapping
    // follower never competes with client queries for the primary's
    // main listener.
    let replica_handle = match flags.get("replica-listen") {
        Some(replica_addr) => {
            let replica_config = {
                let mut c = config.clone().with_addr(replica_addr.clone());
                c.replicate_from = None; // listeners never pull
                c
            };
            let h = serve_catalog(Arc::clone(&catalog), replica_config)
                .map_err(|e| format!("replica listener bind failed: {e}"))?;
            println!("replication listener on {}", h.local_addr());
            Some(h)
        }
        None => None,
    };

    println!(
        "serving {} collections ({} vectors) on {} with {workers} workers{}{}",
        collections.len(),
        handle.live(),
        handle.local_addr(),
        if token.is_some() { ", owner maintenance enabled" } else { ", maintenance disabled" },
        match replicate_from {
            Some(upstream) => format!(", replicating from {upstream} (read-only follower)"),
            None => String::new(),
        },
    );
    for c in &collections {
        println!("  {:<20} {:>8} vectors  {:>5}d", c.name, c.live, c.dim);
    }
    match token {
        Some(t) => {
            println!("stop with: ppanns-cli shutdown --remote {} --token {t}", handle.local_addr())
        }
        // Without a token no Shutdown frame is accepted; the process stops
        // on SIGINT/SIGTERM like any foreground server.
        None => println!("no --token given: remote shutdown disabled, stop with Ctrl-C"),
    }

    // Serve until a Shutdown frame raises a stop flag (on either
    // listener — both serve the same catalog, so either stops both).
    while !handle.stop_requested() && replica_handle.as_ref().is_none_or(|h| !h.stop_requested()) {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    let snap = handle.stats().snapshot(handle.live());
    if let Some(h) = replica_handle {
        h.request_stop();
        h.join();
    }
    handle.request_stop();
    handle.join();
    println!(
        "shutdown: {} live vectors, {} queries, {} inserts, {} deletes, {} errors, {} B in, {} B out",
        snap.live, snap.queries, snap.inserts, snap.deletes, snap.errors, snap.bytes_in,
        snap.bytes_out
    );
    Ok(())
}

fn cmd_collections(flags: &Flags) -> Result<(), CliError> {
    let remote = required(flags, "remote")?;
    let mut client = ServiceClient::connect(remote, None).map_err(|e| format!("{remote}: {e}"))?;
    let entries = client.list_collections().map_err(|e| e.to_string())?;
    println!("{} collections on {remote}:", entries.len());
    for e in &entries {
        println!("  {:<20} {:>8} vectors  {:>5}d", e.name, e.live, e.dim);
    }
    Ok(())
}

fn cmd_create(flags: &Flags) -> Result<(), CliError> {
    let remote = required(flags, "remote")?;
    let token: u64 = parse_required(flags, "token")?;
    let name = required(flags, "name")?;
    let dim: usize = parse_required(flags, "dim")?;
    let mut client = ServiceClient::connect(remote, None).map_err(|e| format!("{remote}: {e}"))?;
    client.create_collection(token, name, dim).map_err(|e| e.to_string())?;
    println!("created empty collection `{name}` ({dim}d) on {remote}");
    Ok(())
}

fn cmd_drop(flags: &Flags) -> Result<(), CliError> {
    let remote = required(flags, "remote")?;
    let token: u64 = parse_required(flags, "token")?;
    let name = required(flags, "name")?;
    let mut client = ServiceClient::connect(remote, None).map_err(|e| format!("{remote}: {e}"))?;
    client.drop_collection(token, name).map_err(|e| e.to_string())?;
    println!("dropped collection `{name}` on {remote}");
    Ok(())
}

fn cmd_query_remote(flags: &Flags) -> Result<(), CliError> {
    let remote = required(flags, "remote")?;
    let keys_path = PathBuf::from(required(flags, "keys")?);
    let owner = DataOwner::load_keys(Path::new(&keys_path)).map_err(|e| e.to_string())?;
    // --queries sends one Search frame per query (one round trip each);
    // --batch-file ships the same fvecs content as SearchBatch frames of
    // --batch-size queries, amortizing framing and round trips across the
    // server's worker pool (PROTOCOL.md §3.14, OPERATIONS.md §7).
    let (queries_path, batched) = match (flags.get("queries"), flags.get("batch-file")) {
        (Some(p), None) => (PathBuf::from(p), false),
        (None, Some(p)) => (PathBuf::from(p), true),
        (Some(_), Some(_)) => {
            return Err(CliError::Usage("--queries and --batch-file are mutually exclusive".into()))
        }
        (None, None) => return Err(CliError::Usage("missing --queries (or --batch-file)".into())),
    };
    let queries = read_fvecs(&queries_path, None).map_err(|e| e.to_string())?;
    let k: usize = parse_or(flags, "k", 10)?;
    let ratio: usize = parse_or(flags, "ratio", 16)?;
    let ef: usize = parse_or(flags, "ef", 160)?;
    let batch_size: usize = parse_or(flags, "batch-size", 64)?;
    if batch_size == 0 {
        return Err(CliError::Usage("--batch-size must be at least 1".into()));
    }
    let params = SearchParams::from_ratio(k, ratio, ef.max(k * ratio));

    // --collection routes every frame to the named collection
    // (version-2 frames); without it the legacy nameless frames target
    // the server's "default" collection.
    let collection = flags.get("collection").map(String::as_str);

    let mut user = owner.authorize_user();
    let mut client = ServiceClient::connect(remote, None).map_err(|e| format!("{remote}: {e}"))?;
    println!(
        "connected to {remote}: serving {} vectors ({}d){}",
        client.server_live(),
        client.server_dim(),
        collection.map(|c| format!(", targeting collection `{c}`")).unwrap_or_default()
    );

    let started = std::time::Instant::now();
    if batched {
        let encrypted: Vec<_> = queries.iter().map(|q| user.encrypt_query(q, k)).collect();
        let mut qi = 0usize;
        for chunk in encrypted.chunks(batch_size) {
            let outs = match collection {
                Some(c) => client.search_batch_in(c, chunk, &params),
                None => client.search_batch(chunk, &params),
            }
            .map_err(|e| e.to_string())?;
            for out in outs {
                println!("query {qi}: {:?}", out.ids);
                qi += 1;
            }
        }
    } else {
        for (i, q) in queries.iter().enumerate() {
            let enc = user.encrypt_query(q, k);
            let out = match collection {
                Some(c) => client.search_in(c, &enc, &params),
                None => client.search(&enc, &params),
            }
            .map_err(|e| e.to_string())?;
            println!("query {i}: {:?}", out.ids);
        }
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "{} queries in {:.3}s ({:.1} QPS, remote{})",
        queries.len(),
        secs,
        queries.len() as f64 / secs.max(1e-12),
        if batched { format!(", batches of {batch_size}") } else { String::new() }
    );
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), CliError> {
    let remote = required(flags, "remote")?;
    let mut client = ServiceClient::connect(remote, None).map_err(|e| format!("{remote}: {e}"))?;
    let s = match flags.get("collection") {
        Some(c) => {
            println!("collection   : {c}");
            client.stats_in(c)
        }
        None => client.stats(),
    }
    .map_err(|e| e.to_string())?;
    println!("live vectors : {}", s.live);
    println!("queries      : {}", s.queries);
    println!("inserts      : {}", s.inserts);
    println!("deletes      : {}", s.deletes);
    println!("errors       : {}", s.errors);
    println!("bytes in/out : {} / {}", s.bytes_in, s.bytes_out);
    println!("latency p50  : {} us (bucketed)", s.p50_micros);
    println!("latency p99  : {} us (bucketed)", s.p99_micros);
    println!("uptime       : {:.1} s", s.uptime_micros as f64 / 1e6);
    // Connection gauges live on the process, not on a collection: the
    // per-collection reply carries zeros there, so only the aggregate
    // view prints them.
    if flags.get("collection").is_none() {
        println!("connections  : {} parked / {} active", s.conns_parked, s.conns_active);
        println!("ready queue  : {} waiting", s.ready_depth);
    }
    // Worker scratch is process state too, but the per-collection reply
    // overlays the live value (PROTOCOL.md §3.10), so print it always.
    println!("scratch bytes: {}", s.scratch_bytes);
    Ok(())
}

fn cmd_shutdown(flags: &Flags) -> Result<(), CliError> {
    let remote = required(flags, "remote")?;
    let token: u64 = parse_required(flags, "token")?;
    let mut client = ServiceClient::connect(remote, None).map_err(|e| format!("{remote}: {e}"))?;
    client.shutdown(token).map_err(|e| e.to_string())?;
    println!("server at {remote} acknowledged shutdown");
    Ok(())
}

/// Flips a replication follower to primary (OPERATIONS.md §10 is the
/// runbook — fence the old primary first).
fn cmd_promote(flags: &Flags) -> Result<(), CliError> {
    let remote = required(flags, "remote")?;
    let token: u64 = parse_required(flags, "token")?;
    let mut client = ServiceClient::connect(remote, None).map_err(|e| format!("{remote}: {e}"))?;
    client.promote(token).map_err(|e| e.to_string())?;
    println!("server at {remote} is now the primary (accepting writes)");
    Ok(())
}

fn cmd_query(flags: &Flags) -> Result<(), CliError> {
    if flags.contains_key("remote") {
        return cmd_query_remote(flags);
    }
    let (server, owner) = load_server_and_owner(flags)?;
    let queries_path = PathBuf::from(required(flags, "queries")?);
    let queries = read_fvecs(&queries_path, None).map_err(|e| e.to_string())?;
    let k: usize = parse_or(flags, "k", 10)?;
    let ratio: usize = parse_or(flags, "ratio", 16)?;
    let ef: usize = parse_or(flags, "ef", 160)?;
    let mut user = owner.authorize_user();
    let params = SearchParams::from_ratio(k, ratio, ef.max(k * ratio));

    let started = std::time::Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let enc = user.encrypt_query(q, k);
        let out = server.search(&enc, &params);
        println!("query {i}: {:?}", out.ids);
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "{} queries in {:.3}s ({:.1} QPS, single-threaded)",
        queries.len(),
        secs,
        queries.len() as f64 / secs.max(1e-12)
    );
    Ok(())
}

fn cmd_tune(flags: &Flags) -> Result<(), CliError> {
    let (server, owner) = load_server_and_owner(flags)?;
    let base = load_base(flags)?;
    let queries_path = PathBuf::from(required(flags, "queries")?);
    let queries = read_fvecs(&queries_path, None).map_err(|e| e.to_string())?;
    let k: usize = parse_or(flags, "k", 10)?;
    let target: f64 = parse_or(flags, "target", 0.9)?;
    let truth = brute_force_knn(&base, &queries, k);
    let mut user = owner.authorize_user();
    let outcome =
        grid_search(&server, &mut user, &queries, &truth, k, target, &TuningGrid::default());
    match outcome.best {
        Some(best) => println!(
            "best config for recall >= {target}: k'={} efSearch={} (recall {:.3}, {:.1} QPS)",
            best.params.k_prime, best.params.ef_search, best.recall, best.qps
        ),
        None => println!("no configuration on the grid reaches recall {target}"),
    }
    for p in &outcome.evaluated {
        println!(
            "  k'={:>5} ef={:>5} recall={:.3} qps={:.1}",
            p.params.k_prime, p.params.ef_search, p.recall, p.qps
        );
    }
    Ok(())
}
