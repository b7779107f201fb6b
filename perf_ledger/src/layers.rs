//! The traced run: the per-layer ledger.
//!
//! Every layer is timed from outside, around its crate's public functions,
//! on the same data and the same op ids the loopback pass sent. The
//! loopback pass records `request` → {`user.encrypt_query`,
//! `client.search`} spans on alternate windows (the untraced windows in
//! between give the tracing overhead); the ops of the first measured
//! window are then replayed in-process under the same request ids, layer
//! by layer, so that no layer is timed in the cache footprint of another.

use crate::e2e::{insert_latencies, measure_windows, search_latencies, write_probe, RunResult};
use crate::json::Value;
use crate::procfs;
use crate::report::{check_complete, Metrics, PER_LAYER};
use crate::run::{search_params, set_up, Env, Plain, Session, WindowSample};
use crate::stats::{percentile, windowed_percentile, Summary};
use crate::trace::{NO_COUNT, NO_REQUEST};
use crate::workload::{windows_for, Op, OpGen, Spec, COLLECTION, RECALL_QUERIES};
use bytes::BytesMut;
use ppann_core::wal::{snapshot_id, WalWriter};
use ppann_core::{Catalog, DurabilityOptions, EncryptedQuery, FsyncPolicy, SearchOutcome};
use ppann_dce::{distance_comp_many, DceCiphertext, DceSecretKey};
use ppann_dcpe::{SapEncryptor, SapKey};
use ppann_hnsw::Hnsw;
use ppann_linalg::{kernels, seeded_rng};
use ppann_service::wire::decode_frame;
use ppann_service::{Frame, DEFAULT_MAX_FRAME};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Searches whose query and outcome are kept for the codec passes.
const CODEC_SAMPLES: usize = 1000;
const NOOP_CALLS: usize = 2000;
/// Inserts appended to the scratch log.
const WAL_SAMPLES: usize = 200;
/// The last window the in-process passes replay. The loopback pass traces
/// every replayed window, so each replayed span joins a `request` span on
/// its id.
const REPLAY_WINDOW: usize = 1;
/// Ops the hnsw and the core replay take in turns.
const REPLAY_CHUNK: usize = 200;
/// Compactions the churn workload must show, and the most windows it may
/// take to get there (a 4 MiB log holds ~560 insert + delete pairs).
const CHURN_COMPACTIONS: u64 = 5;
const CHURN_MAX_WINDOWS: usize = 16;

/// The warm-up (window 0) and the odd windows are traced; the even ones
/// are not, and give the tracing overhead.
fn loopback_traced(window: usize) -> bool {
    window == 0 || window % 2 == 1
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median over `reps` timings of `f`, each divided by `per`.
fn timed_median(reps: usize, per: f64, mut f: impl FnMut()) -> Summary {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per
        })
        .collect();
    Summary::of(&samples).expect("reps > 0")
}

/// The windows the in-process passes replay, each with its number: the
/// first measured window, and before it the warm-up where the warm-up's
/// writes lead up to the state that window starts from.
fn replay_ops(spec: &Spec, seed: u64) -> Vec<(usize, Vec<Op>)> {
    let mut gen = OpGen::new(spec, seed);
    let first = if spec.churn { 0 } else { REPLAY_WINDOW };
    (0..=REPLAY_WINDOW).map(|w| (w, gen.next_window())).filter(|(w, _)| *w >= first).collect()
}

fn store_rows(hnsw: &Hnsw) -> Vec<Vec<f64>> {
    hnsw.store().iter().map(|(_, row)| row.to_vec()).collect()
}

fn graph_bytes_per_vector(hnsw: &Hnsw) -> f64 {
    let n = hnsw.capacity_slots();
    let links: usize = (0..n as u32)
        .map(|id| (0..=hnsw.node_level(id)).map(|layer| hnsw.links(id, layer).len()).sum::<usize>())
        .sum();
    (hnsw.store().raw().len() * 8 + links * 4) as f64 / n as f64
}

struct LoadProbe {
    load_with_wal_ms: f64,
    replayed: usize,
    compact_ms: f64,
    snapshot_load_ms: f64,
}

/// Restart as the server does it, in-process on the end-of-run data dir:
/// load + WAL replay, a forced compaction, then a load of the snapshot
/// alone. The difference of the two loads is the replay.
fn load_probe(data_dir: &Path) -> Result<LoadProbe, String> {
    let opts = DurabilityOptions { fsync: FsyncPolicy::Always, compact_bytes: u64::MAX };
    let t = Instant::now();
    let (catalog, reports) =
        Catalog::load_dir_durable(data_dir, opts).map_err(|e| format!("load: {e}"))?;
    let load_with_wal_ms = secs_since(t) * 1e3;
    let replayed = reports.iter().map(|r| r.replayed).sum();
    let collection = catalog.get(COLLECTION).ok_or("collection missing from the data dir")?;
    let t = Instant::now();
    collection.compact().map_err(|e| format!("compact: {e}"))?;
    let compact_ms = secs_since(t) * 1e3;
    drop(collection);
    drop(catalog);
    let t = Instant::now();
    Catalog::load_dir_durable(data_dir, opts).map_err(|e| format!("reload: {e}"))?;
    Ok(LoadProbe { load_with_wal_ms, replayed, compact_ms, snapshot_load_ms: secs_since(t) * 1e3 })
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    env: &Env,
    trace_out: Option<&Path>,
) -> Result<RunResult, String> {
    // At least two windows of each kind; churn may need more to compact.
    let count = windows_for(seconds).max(4);
    let most = if spec.churn { CHURN_MAX_WINDOWS.max(count) } else { count };
    let plain = Plain::generate(spec, seed, spec.insert_pool(most));
    let (served, _) = set_up(spec, seed, &plain, env)?;
    let mut session = Session::new(spec, seed, &plain, env, served);
    let params = search_params(spec);
    let pid = session.served.server.pid();

    // ---- loopback pass -------------------------------------------------
    let noop_us: Vec<f64> = (0..NOOP_CALLS)
        .map(|_| {
            let t = Instant::now();
            if session.served.client.list_collections().is_err() {
                session.failed += 1;
            }
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    session.attempted += NOOP_CALLS as u64;

    let warm_up = session.gen.next_window();
    session.run_window(&warm_up, 0, loopback_traced(0));
    let ctx_before = procfs::context_switches(pid).map_err(|e| format!("ctx switches: {e}"))?;
    let mut windows = measure_windows(&mut session, 1, count, loopback_traced);
    while spec.churn && session.compactions < CHURN_COMPACTIONS && windows.len() < most {
        windows.extend(measure_windows(&mut session, windows.len() + 1, 1, loopback_traced));
    }
    let ctx_after = procfs::context_switches(pid).map_err(|e| format!("ctx switches: {e}"))?;
    let requests: usize = windows.iter().map(|w| w.ops).sum();
    let (traced, untraced): (Vec<WindowSample>, Vec<WindowSample>) =
        windows.iter().cloned().partition(|w| w.traced);
    let throughput = |ws: &[WindowSample]| {
        Summary::of(&ws.iter().map(WindowSample::ops_per_s).collect::<Vec<_>>())
    };
    let throughput_untraced = throughput(&untraced).ok_or("no untraced window")?;
    let overhead =
        1.0 - throughput(&traced).ok_or("no traced window")?.value / throughput_untraced.value;
    let query_p50 =
        windowed_percentile(&search_latencies(&untraced), 50.0).ok_or("no untraced searches")?;
    let query_p99 =
        windowed_percentile(&search_latencies(&windows), 99.0).ok_or("too few searches for p99")?;

    // Recall, parity and the filter's hit share, on the pristine snapshot.
    let recall = session.recall_sweep(!spec.churn);
    if recall < spec.recall_floor {
        session.failed += 1;
        eprintln!("perf_ledger: {}: recall_at_k {recall:.4} is below the floor", spec.name);
    }

    let probe_queries: Vec<EncryptedQuery> = {
        let mut user = session.served.owner.authorize_user();
        plain.queries[..256].iter().map(|q| user.encrypt_query(q, spec.k)).collect()
    };
    session.attempted += 10;
    let mut batch_failed = 0;
    let batch64 = timed_median(5, 64.0 * 1e3, || {
        if session.served.client.search_batch_in(COLLECTION, &probe_queries[..64], &params).is_err()
        {
            batch_failed += 1;
        }
    });
    let pipelined32 = timed_median(5, 256.0 * 1e3, || {
        if session
            .served
            .client
            .search_pipelined_in(COLLECTION, &probe_queries, &params, 32)
            .is_err()
        {
            batch_failed += 1;
        }
    });
    session.failed += batch_failed;

    // Durable writes. Churn's windows hold thousands, and their p99 has
    // its ten samples beyond. A read-only workload makes the write probe,
    // a few of its inserts deleted again so that the log to replay holds
    // both record kinds; its p99 has four samples beyond and is there
    // because every workload reports every metric.
    let mut stall_max_us = windows.iter().map(WindowSample::max_us).fold(0.0, f64::max);
    let insert_p99 = if spec.churn {
        windowed_percentile(&insert_latencies(&windows), 99.0).ok_or("too few inserts for p99")?
    } else {
        let (sample, _) = write_probe(&mut session, Spec::PROBE_INSERTS, 64);
        stall_max_us = stall_max_us.max(sample.max_us());
        Summary::point(percentile(&sample.insert_us, 99.0).ok_or("the probe made no insert")?)
    };
    let loopback_inserts = session.gen.inserts_made();

    // ---- in-process replays, one pass per layer -------------------------
    let replay = replay_ops(spec, seed);
    let pool_entry =
        |j: u32| session.served.owner.encrypt_for_insert(&plain.pool[j as usize], j as u64);

    // hnsw: a replica built from the snapshot's own rows (construction is
    // deterministic, so it is the snapshot's graph), mutable for the
    // insert/delete spans.
    let pristine = session.served.local.database().hnsw();
    let rows = store_rows(pristine);
    let bytes_per_vector = graph_bytes_per_vector(pristine);
    let hit_share = {
        let mut user = session.served.owner.authorize_user();
        let mut hits = 0;
        for (q, truth) in plain.queries[..RECALL_QUERIES].iter().zip(&plain.truth) {
            let eq = user.encrypt_query(q, spec.k);
            let candidates = pristine.search(&eq.c_sap, spec.k_prime, spec.ef);
            hits += truth.iter().filter(|t| candidates.iter().any(|c| c.id == **t)).count();
        }
        hits as f64 / (RECALL_QUERIES * spec.k) as f64
    };
    let t = Instant::now();
    let mut replica = Hnsw::build(spec.dim(), *pristine.params(), &rows);
    let build_s = secs_since(t);
    drop(rows);
    // Probes that need the in-process server as outsourced, before the
    // replay puts churn's writes into it.
    let warm: Vec<EncryptedQuery> = probe_queries[..64].to_vec();
    for q in &warm {
        black_box(session.served.local.search(q, &params));
    }
    let allocs_before = crate::allocations();
    for q in &warm {
        black_box(session.served.local.search(q, &params));
    }
    let allocs_per_q = (crate::allocations() - allocs_before) as f64 / warm.len() as f64;

    let cts: &[DceCiphertext] = session.served.local.database().dce_ciphertexts();
    let comp_dim = cts[0].component_dim();
    let k = kernels::active();
    let l2 = {
        let store = session.served.local.database().hnsw().store();
        let q = &probe_queries[0].c_sap;
        timed_median(9, store.len() as f64, || {
            for (_, row) in store.iter() {
                black_box((k.squared_euclidean)(black_box(q), row));
            }
        })
    };
    let dce_comp = {
        let t = probe_queries[0].trapdoor.as_slice();
        let [o1, o2, _, _] = cts[0].components();
        let sample = &cts[..cts.len().min(2000)];
        timed_median(9, sample.len() as f64, || {
            for p in sample {
                let [_, _, p3, p4] = p.components();
                black_box((k.dce_comp)(o1, o2, p3, p4, black_box(t)));
            }
        })
    };
    let sdc = {
        let hnsw = session.served.local.database().hnsw();
        let mut samples = Vec::new();
        for eq in &probe_queries {
            let cand = hnsw.search(&eq.c_sap, spec.k_prime, spec.ef);
            let refs: Vec<&DceCiphertext> = cand[1..].iter().map(|c| &cts[c.id as usize]).collect();
            let t = Instant::now();
            black_box(distance_comp_many(&cts[cand[0].id as usize], &refs, &eq.trapdoor));
            samples.push(t.elapsed().as_nanos() as f64 / refs.len() as f64);
        }
        Summary::of(&samples).expect("256 queries")
    };
    let (sap_encrypt, dce_encrypt) = {
        let scale =
            1.0 / plain.base.iter().flatten().fold(0.0f64, |m, x| m.max(x.abs())).max(1e-300);
        let sample: Vec<Vec<f64>> =
            plain.base[..1000].iter().map(|v| v.iter().map(|x| x * scale).collect()).collect();
        let sap = SapEncryptor::new(SapKey::new(1024.0, spec.beta));
        let dce = DceSecretKey::generate(spec.dim(), &mut seeded_rng(seed));
        (
            timed_median(5, 1000.0 * 1e3, || drop(black_box(sap.encrypt_batch(&sample, seed)))),
            timed_median(5, 1000.0 * 1e3, || drop(black_box(dce.encrypt_batch(&sample, seed)))),
        )
    };

    // hnsw and core: the same ops through `Hnsw::search` on the replica
    // and through `CloudServer::search`, a chunk of ops at a time in
    // turns. Two whole passes one after the other would each sample
    // another second of this host's speed, and their ratio is what the
    // workloads are judged by; a chunk is long enough that all but its
    // first few queries run in their own pass's cache footprint.
    let mut codec_samples: Vec<(u64, EncryptedQuery, SearchOutcome)> = Vec::new();
    for (w, ops) in &replay {
        let mut hnsw_user = session.served.owner.authorize_user();
        let mut core_user = session.served.owner.authorize_user();
        for (c, chunk) in ops.chunks(REPLAY_CHUNK).enumerate() {
            let ids = |i: usize| spec.request_id(*w, c * REPLAY_CHUNK + i);
            for (i, &op) in chunk.iter().enumerate() {
                let request = ids(i);
                match op {
                    Op::Search(q) => {
                        let eq = hnsw_user.encrypt_query(&plain.queries[q as usize], spec.k);
                        let before = replica.distance_computations();
                        session.tracer.time("hnsw.search", request, || {
                            black_box(replica.search(&eq.c_sap, spec.k_prime, spec.ef));
                            let comps = replica.distance_computations() - before;
                            ((), [("dist_comps", comps), NO_COUNT])
                        });
                    }
                    Op::Insert(j) => {
                        let (c_sap, _) = pool_entry(j);
                        session.tracer.time("hnsw.insert", request, || {
                            black_box(replica.insert(&c_sap));
                            ((), [NO_COUNT; 2])
                        });
                    }
                    Op::Delete(id) => session.tracer.time("hnsw.delete", request, || {
                        replica.delete(id);
                        ((), [NO_COUNT; 2])
                    }),
                }
            }
            for (i, &op) in chunk.iter().enumerate() {
                let request = ids(i);
                match op {
                    Op::Search(q) => {
                        let eq = core_user.encrypt_query(&plain.queries[q as usize], spec.k);
                        let local = &session.served.local;
                        let out = session.tracer.time("core.search", request, || {
                            let out = local.search(&eq, &params);
                            let counts = [
                                ("dist_comps", out.cost.filter_dist_comps),
                                ("sdc_comps", out.cost.refine_sdc_comps),
                            ];
                            (out, counts)
                        });
                        if codec_samples.len() < CODEC_SAMPLES {
                            codec_samples.push((request, eq, out));
                        }
                    }
                    Op::Insert(j) => {
                        let (c_sap, c_dce) = pool_entry(j);
                        let local = &mut session.served.local;
                        session.tracer.time("core.insert", request, || {
                            black_box(local.insert(c_sap, c_dce));
                            ((), [NO_COUNT; 2])
                        });
                    }
                    Op::Delete(id) => {
                        let local = &mut session.served.local;
                        session.tracer.time("core.delete", request, || {
                            local.delete(id);
                            ((), [NO_COUNT; 2])
                        });
                    }
                }
            }
        }
    }
    if !spec.churn {
        // Read-only op lists hold no writes: probe the replica's write path.
        let first = replica.capacity_slots() as u32;
        for j in 0..64u32 {
            let (c_sap, _) = pool_entry(j);
            session.tracer.time("hnsw.insert", NO_REQUEST, || {
                black_box(replica.insert(&c_sap));
                ((), [NO_COUNT; 2])
            });
        }
        for id in first..first + 64 {
            session.tracer.time("hnsw.delete", NO_REQUEST, || {
                replica.delete(id);
                ((), [NO_COUNT; 2])
            });
        }
    }
    drop(replica);

    // codecs: the bytes of the same queries and replies.
    let mut payload = BytesMut::new();
    let mut frame_buf = Vec::new();
    for (request, eq, out) in &codec_samples {
        let request = *request;
        let tr = &mut session.tracer;
        let mut buf = BytesMut::new();
        tr.time("wire.query_encode", request, || (eq.write_to(&mut buf), [NO_COUNT; 2]));
        let mut bytes = buf.freeze();
        let len = bytes.len() as u64;
        tr.time("wire.query_decode", request, || {
            (black_box(EncryptedQuery::read_from(&mut bytes)).is_ok(), [("bytes", len), NO_COUNT])
        });
        let mut buf = BytesMut::new();
        tr.time("wire.reply_encode", request, || (out.write_to(&mut buf), [NO_COUNT; 2]));
        let mut bytes = buf.freeze();
        let len = bytes.len() as u64;
        tr.time("wire.reply_decode", request, || {
            (black_box(SearchOutcome::read_from(&mut bytes)).is_ok(), [("bytes", len), NO_COUNT])
        });
        let frame = Frame::Search {
            collection: Some(COLLECTION.as_bytes().to_vec()),
            params,
            query: eq.clone(),
        };
        frame_buf.clear();
        let len = tr.time("frame.encode", request, || {
            (frame.encode_with(&mut payload, &mut frame_buf) as u64, [NO_COUNT; 2])
        });
        tr.time("frame.decode", request, || {
            (
                black_box(decode_frame(&frame_buf, DEFAULT_MAX_FRAME)).is_ok(),
                [("bytes", len), NO_COUNT],
            )
        });
    }

    // wal: append (policy never) then sync, on a scratch log.
    let wal_path = env.work.join(format!("{}-scratch.wal", spec.name));
    let (wal_bytes_per_insert, wal_bytes_per_delete) = {
        let mut wal = WalWriter::create_sealed(&wal_path, snapshot_id(&[]), FsyncPolicy::Never)
            .map_err(|e| format!("scratch wal: {e}"))?;
        let sealed = wal.log_len();
        let mut io_failed = false;
        // The replayed windows' own inserts under their request ids; a
        // read-only op list holds none, so the pool's first vectors probe.
        let mut inserts: Vec<(u64, u32)> = replay
            .iter()
            .flat_map(|(w, ops)| {
                ops.iter().enumerate().map(|(i, op)| (spec.request_id(*w, i), *op))
            })
            .filter_map(|(request, op)| match op {
                Op::Insert(j) => Some((request, j)),
                _ => None,
            })
            .take(WAL_SAMPLES)
            .collect();
        if inserts.is_empty() {
            inserts = (0..WAL_SAMPLES as u32).map(|j| (NO_REQUEST, j)).collect();
        }
        for &(request, j) in &inserts {
            let (c_sap, c_dce) = pool_entry(j);
            let tr = &mut session.tracer;
            io_failed |= tr.time("wal.append", request, || {
                (wal.append_insert(j, &c_sap, &c_dce).is_err(), [NO_COUNT; 2])
            });
            io_failed |= tr.time("wal.sync", request, || (wal.sync().is_err(), [NO_COUNT; 2]));
        }
        let after_inserts = wal.log_len();
        io_failed |= wal.append_delete(0).is_err();
        if io_failed {
            return Err("scratch wal: append or sync failed".into());
        }
        (
            (after_inserts - sealed) as f64 / inserts.len() as f64,
            (wal.log_len() - after_inserts) as f64,
        )
    };
    let _ = std::fs::remove_file(&wal_path);

    // restart path, in-process, on the data dir the server leaves behind.
    let data_dir = session.served.data_dir.clone();
    session.served.server.kill();
    let load = load_probe(&data_dir)?;

    // ---- the ledger ------------------------------------------------------
    let tr = &session.tracer;
    // Median duration of the spans called `name`, in units of `per_ns`.
    let p50 = |name: &str, per_ns: f64| -> Result<Summary, String> {
        let d: Vec<f64> = tr.durations_us(name).iter().map(|us| us * 1e3 / per_ns).collect();
        Summary::of(&d).ok_or_else(|| format!("no `{name}` spans"))
    };
    let p50_us = |name: &str| p50(name, 1e3);
    let p50_ns = |name: &str| p50(name, 1.0);
    let per_span = |name: &str, count: &str| {
        let (total, spans) = tr.count_total(name, count);
        total as f64 / spans.max(1) as f64
    };
    let trapdoor = p50_us("user.encrypt_query")?;
    let hnsw_search = p50_us("hnsw.search")?;
    let core_search = p50_us("core.search")?;
    let client_search = p50_us("client.search")?;
    let noop = Summary::of(&noop_us).expect("NOOP_CALLS > 0");
    let dist_comps = per_span("hnsw.search", "dist_comps");
    let sdc_comps = per_span("core.search", "sdc_comps");
    let unexplained =
        (query_p50.value - trapdoor.value - core_search.value - noop.value) / query_p50.value;
    let inserted_bytes = (loopback_inserts * (spec.dim() + 4 * comp_dim) * 8) as f64;
    let wal_bytes = loopback_inserts as f64 * (wal_bytes_per_insert + wal_bytes_per_delete);
    let write_amp = (wal_bytes + session.rewritten_bytes as f64) / inserted_bytes;

    let metrics: Metrics = vec![
        ("linalg.l2_ns_per_pair", l2),
        ("linalg.dce_comp_ns", dce_comp),
        ("dcpe.sap_encrypt_us_per_vec", sap_encrypt),
        ("dce.encrypt_us_per_vec", dce_encrypt),
        ("dce.trapdoor_us_p50", trapdoor),
        ("dce.sdc_ns_per_comp", sdc),
        ("hnsw.build_s", Summary::point(build_s)),
        ("hnsw.search_us_p50", hnsw_search),
        ("hnsw.dist_comps_per_q", Summary::point(dist_comps)),
        ("hnsw.ns_per_dist_comp", Summary::point(hnsw_search.value * 1e3 / dist_comps)),
        ("hnsw.candidate_hit_share", Summary::point(hit_share)),
        ("hnsw.insert_us_p50", p50_us("hnsw.insert")?),
        ("hnsw.delete_us_p50", p50_us("hnsw.delete")?),
        ("hnsw.bytes_per_vector", Summary::point(bytes_per_vector)),
        ("core.search_us_p50", core_search),
        ("core.refine_us_p50", Summary::point(core_search.value - hnsw_search.value)),
        ("core.sdc_comps_per_q", Summary::point(sdc_comps)),
        ("core.sdc_per_candidate", Summary::point(sdc_comps / spec.k_prime as f64)),
        ("core.allocs_per_q", Summary::point(allocs_per_q)),
        ("core.wire_query_encode_ns", p50_ns("wire.query_encode")?),
        ("core.wire_query_decode_ns", p50_ns("wire.query_decode")?),
        ("core.wire_reply_encode_ns", p50_ns("wire.reply_encode")?),
        ("core.wire_reply_decode_ns", p50_ns("wire.reply_decode")?),
        ("core.wal_append_us_p50", p50_us("wal.append")?),
        ("core.wal_fsync_us_p50", p50_us("wal.sync")?),
        ("core.wal_bytes_per_insert", Summary::point(wal_bytes_per_insert)),
        ("core.compact_ms", Summary::point(load.compact_ms)),
        ("core.compactions", Summary::point(session.compactions as f64)),
        ("core.write_amp", Summary::point(write_amp)),
        ("core.snapshot_load_ms", Summary::point(load.snapshot_load_ms)),
        ("core.wal_replay_ms", Summary::point(load.load_with_wal_ms - load.snapshot_load_ms)),
        ("core.wal_replay_records", Summary::point(load.replayed as f64)),
        ("service.frame_encode_ns", p50_ns("frame.encode")?),
        ("service.frame_decode_ns", p50_ns("frame.decode")?),
        ("service.noop_rtt_us_p50", noop),
        ("service.transport_us_p50", Summary::point(client_search.value - core_search.value)),
        (
            "service.ctx_switches_per_req",
            Summary::point((ctx_after - ctx_before) as f64 / requests as f64),
        ),
        ("service.batch64_us_per_q", batch64),
        ("service.pipelined32_us_per_q", pipelined32),
        ("service.stall_max_ms", Summary::point(stall_max_us / 1e3)),
        ("service.unexplained_share", Summary::point(unexplained)),
        ("query_p99_us", query_p99),
        ("insert_p99_us", insert_p99),
        ("trace.overhead_share", Summary::point(overhead)),
    ];
    check_complete(&metrics, PER_LAYER)?;
    let unjoined = session.tracer.unjoined();
    if unjoined > 0 {
        return Err(format!("{unjoined} replayed spans carry a request id no `request` span has"));
    }

    if let Some(dir) = trace_out {
        let path = dir.join(format!("trace-{}.jsonl", spec.name));
        session.tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let facts = Value::obj(vec![
        ("windows", Value::Num(windows.len() as f64)),
        (
            "window_ops_per_s",
            Value::Arr(windows.iter().map(|w| Value::Num(w.ops_per_s())).collect()),
        ),
        ("spans", Value::Num(session.tracer.spans().len() as f64)),
        ("recall_at_k", Value::Num(recall)),
        ("loopback_inserts", Value::Num(loopback_inserts as f64)),
        ("hnsw_share_of_core", Value::Num(hnsw_search.value / core_search.value)),
        ("core_share_of_query", Value::Num(core_search.value / query_p50.value)),
    ]);
    Ok(RunResult { attempted: session.attempted, failed: session.failed, metrics, facts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn every_replayed_window_is_traced_in_the_loopback_pass() {
        for spec in &WORKLOADS {
            let replay = replay_ops(spec, 1);
            assert_eq!(replay.last().map(|(w, _)| *w), Some(REPLAY_WINDOW));
            assert_eq!(replay.len(), if spec.churn { REPLAY_WINDOW + 1 } else { 1 });
            let mut gen = OpGen::new(spec, 1);
            for w in 0..=REPLAY_WINDOW {
                let ops = gen.next_window();
                if let Some((_, replayed)) = replay.iter().find(|(r, _)| *r == w) {
                    assert!(loopback_traced(w), "{}: window {w} is replayed untraced", spec.name);
                    assert_eq!(*replayed, ops, "{}: window {w}", spec.name);
                }
            }
        }
        assert!(!loopback_traced(2), "the even windows give the tracing overhead");
    }
}
