//! Stress exercise of the reactor: a large population of idle parked
//! keep-alive connections plus a handful of clients churning searches
//! and maintenance. Asserts latency sanity, no starvation, truthful
//! connection gauges, reaping of peer-closed parked sockets, and a
//! clean drained shutdown that EOFs every surviving idler.
//!
//! Scale: `PPANN_STRESS_CONNS` sets the idle population (default 256,
//! which fits a 1024-fd ulimit; run with 1024 locally for the full
//! ISSUE-scale population).

use ppann_core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::wire::{tag, HEADER_LEN, MAGIC};
use ppann_service::{serve, Frame, ServiceClient, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const DIM: usize = 8;
const N: usize = 300;
const TOKEN: u64 = 99;
const CHURN_CLIENTS: usize = 8;
const ROUNDS: usize = 60;

fn idle_population() -> usize {
    std::env::var("PPANN_STRESS_CONNS").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

/// Handshakes a raw keep-alive connection that will then go idle.
fn park_idler(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&Frame::Hello { dim: DIM as u64 }.encode()).unwrap();
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(&header[..4], &MAGIC);
    assert_eq!(header[5], tag::HELLO_ACK);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    stream
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

#[test]
fn idle_population_does_not_starve_active_clients() {
    let idlers_target = idle_population();
    let mut rng = seeded_rng(701);
    let data: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(701).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    let config = ServiceConfig::loopback()
        .with_workers(4)
        .with_owner_token(TOKEN)
        .with_max_connections(idlers_target + 64);
    let handle = serve(server, config).unwrap();
    let addr = handle.local_addr();

    // Park the idle population. Every one of these costs the service a
    // file descriptor and an epoll registration — and nothing else.
    let mut idlers: Vec<TcpStream> = (0..idlers_target).map(|_| park_idler(addr)).collect();
    println!("parked {} idle keep-alive connections", idlers.len());

    // With all idlers parked, every sample of the gauges must count
    // them: they are never dispatched, so they are always "parked".
    let mut stats_client = ServiceClient::connect(addr, Some(DIM)).unwrap();
    let snap = stats_client.stats().unwrap();
    assert!(
        snap.conns_parked >= idlers.len() as u64,
        "parked gauge {} must cover the {} idlers",
        snap.conns_parked,
        idlers.len()
    );

    // Churn: 8 active clients hammering searches with maintenance mixed
    // in, all while the idle population sits in the epoll set.
    let churn_started = Instant::now();
    let mut all_latencies: Vec<Duration> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CHURN_CLIENTS {
            let data = &data;
            let owner = &owner;
            handles.push(scope.spawn(move || {
                let mut client = ServiceClient::connect(addr, Some(DIM)).unwrap();
                let mut user = owner.authorize_user();
                let params = SearchParams { k_prime: 20, ef_search: 40 };
                let mut latencies = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    let started = Instant::now();
                    if round % 10 == 9 {
                        // Exclusive-path maintenance through the same pool.
                        let novel = vec![2.0 + (t * ROUNDS + round) as f64 / 1e3; DIM];
                        let (c_sap, c_dce) =
                            owner.encrypt_for_insert(&novel, (1000 + t * ROUNDS + round) as u64);
                        let id = client.insert(TOKEN, c_sap, c_dce).unwrap();
                        client.delete(TOKEN, id).unwrap();
                    } else {
                        let q = user.encrypt_query(&data[(t * ROUNDS + round) % N], 5);
                        let out = client.search(&q, &params).unwrap();
                        assert_eq!(out.ids.len(), 5, "client {t} round {round}");
                    }
                    latencies.push(started.elapsed());
                }
                latencies
            }));
        }
        // Sample the gauges mid-churn from the main thread: the idlers
        // must still all be parked while the actives bounce between
        // parked and checked-out.
        std::thread::sleep(Duration::from_millis(50));
        let snap = stats_client.stats().unwrap();
        assert!(
            snap.conns_parked >= idlers.len() as u64,
            "mid-churn parked gauge {} lost idlers",
            snap.conns_parked
        );
        assert!(snap.conns_active >= 1, "the stats request itself is checked out");
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let churn_elapsed = churn_started.elapsed();

    // Latency and throughput sanity. The bounds are deliberately loose —
    // this gates "no starvation/stall", not absolute speed (the bench
    // row remote_throughput:idle_keepalive gates the QPS ratio).
    all_latencies.sort();
    let total_ops = all_latencies.len();
    let p50 = percentile(&all_latencies, 0.50);
    let p99 = percentile(&all_latencies, 0.99);
    let qps = total_ops as f64 / churn_elapsed.as_secs_f64();
    println!(
        "churn: {total_ops} ops in {churn_elapsed:?} ({qps:.0} op/s), p50 {p50:?}, p99 {p99:?}, \
         {} idlers parked",
        idlers.len()
    );
    assert_eq!(total_ops, CHURN_CLIENTS * ROUNDS, "every operation must complete");
    assert!(p99 < Duration::from_secs(5), "p99 {p99:?} indicates starvation");

    // Peer-closed parked sockets are reaped: drop half the idlers and
    // watch the parked gauge come down (EPOLLRDHUP wakes each, a worker
    // reads the EOF, the reactor deregisters).
    let kept = idlers.split_off(idlers.len() / 2);
    let dropped = idlers.len();
    drop(idlers);
    let reap_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = stats_client.stats().unwrap();
        // kept idlers + our stats connection (parked between requests)
        // + the churn clients' already-dropped sockets racing out.
        if snap.conns_parked <= (kept.len() + 2) as u64 {
            break;
        }
        assert!(
            Instant::now() < reap_deadline,
            "dropped {} idlers but parked gauge is stuck at {}",
            dropped,
            snap.conns_parked
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Clean drained shutdown, bounded by a watchdog: request, join, and
    // every surviving idler sees EOF — no socket is left dangling.
    drop(stats_client);
    handle.request_stop();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30)).expect("shutdown must drain, not hang");
    for mut idler in kept {
        idler.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut probe = [0u8; 16];
        match idler.read(&mut probe) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("idler read {n} unexpected bytes at shutdown"),
        }
    }
}
