//! Adversarial peers against the reactor: a slow-loris sender dripping
//! one byte per write, and a peer that pipelines requests but never
//! reads a reply. Both must be cut off by `frame_timeout` — without
//! stalling the reactor, a worker, or any well-behaved client. Pinned
//! as regressions for the readiness-driven server core.

use ppann_core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::wire::{tag, HEADER_LEN, MAGIC, PROTOCOL_VERSION};
use ppann_service::{serve, Frame, ServiceClient, ServiceConfig, ServiceHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const DIM: usize = 6;
const N: usize = 200;

fn spawn_service(seed: u64, config: ServiceConfig) -> (Vec<Vec<f64>>, DataOwner, ServiceHandle) {
    let mut rng = seeded_rng(seed);
    let data: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(seed).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    let handle = serve(server, config).unwrap();
    (data, owner, handle)
}

/// Handshakes a raw stream: writes the `Hello`, consumes the ack.
fn raw_handshake(stream: &mut TcpStream) {
    stream.write_all(&Frame::Hello { dim: DIM as u64 }.encode()).unwrap();
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(&header[..4], &MAGIC);
    assert_eq!(header[5], tag::HELLO_ACK);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
}

/// True once the peer observes the server-side close (EOF or reset).
fn peer_sees_close(stream: &mut TcpStream, wait: Duration) -> bool {
    stream.set_read_timeout(Some(wait)).unwrap();
    let mut probe = [0u8; 256];
    loop {
        match stream.read(&mut probe) {
            Ok(0) => return true, // FIN
            Ok(_) => continue,    // drain whatever was buffered
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => return false,
            Err(_) => return true, // RST counts as closed
        }
    }
}

/// Runs well-behaved searches on their own connections while an attack
/// is in progress, asserting each is answered promptly.
fn assert_served_promptly(handle: &ServiceHandle, owner: &DataOwner, data: &[Vec<f64>], n: usize) {
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();
    let mut user = owner.authorize_user();
    for i in 0..n {
        let q = user.encrypt_query(&data[i % N], 3);
        let started = Instant::now();
        let out = client.search(&q, &SearchParams { k_prime: 15, ef_search: 30 }).unwrap();
        assert_eq!(out.ids.len(), 3);
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "well-behaved search {i} took {:?} while the attack ran",
            started.elapsed()
        );
    }
}

/// A slow-loris peer drips a request one byte at a time. The deadline
/// clock starts when the frame's first byte arrives and is *not* reset
/// by further drips, so steady traffic does not keep the connection
/// alive — it is closed `frame_timeout` after the frame began, long
/// before the drip would complete.
#[test]
fn slow_loris_is_cut_off_by_the_frame_timeout() {
    let config =
        ServiceConfig::loopback().with_workers(2).with_frame_timeout(Duration::from_millis(300));
    let (data, owner, handle) = spawn_service(601, config);

    let mut loris = TcpStream::connect(handle.local_addr()).unwrap();
    raw_handshake(&mut loris);

    // A Search header promising 64 payload bytes, delivered whole so the
    // partial-frame clock starts immediately...
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.push(PROTOCOL_VERSION);
    header.push(tag::SEARCH);
    header.extend_from_slice(&[0, 0]);
    header.extend_from_slice(&64u32.to_le_bytes());
    loris.write_all(&header).unwrap();

    // ...then one payload byte every 50 ms: at this rate the frame would
    // take 3.2 s, an order of magnitude past the 300 ms deadline.
    let started = Instant::now();
    let mut write_failed = false;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(50));
        if loris.write_all(&[0u8]).is_err() {
            write_failed = true;
            break;
        }
        // Writes into a dead connection can keep "succeeding" into the
        // local buffer for a round trip; the read probe is authoritative.
        if peer_sees_close(&mut loris, Duration::from_millis(1)) {
            break;
        }
    }
    let elapsed = started.elapsed();
    assert!(
        write_failed || peer_sees_close(&mut loris, Duration::from_secs(2)),
        "slow-loris connection was never closed"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "loris survived {elapsed:?} past the 300 ms deadline"
    );

    // The attack held no worker: everyone else was served throughout and
    // the service is intact afterwards.
    assert_served_promptly(&handle, &owner, &data, 3);
    handle.request_stop();
    handle.join();
}

/// A peer that pipelines large-reply requests and never reads. Replies
/// accumulate until the kernel buffers fill; the worker buffers the rest
/// and parks the connection write-only (no worker ever blocks in
/// `write`), and the reactor closes it `frame_timeout` after the flush
/// first stalled — while other clients are served the whole time.
#[test]
fn never_reading_peer_is_dropped_without_stalling_the_reactor() {
    let config =
        ServiceConfig::loopback().with_workers(2).with_frame_timeout(Duration::from_millis(300));
    let (data, owner, handle) = spawn_service(602, config);

    let mut user = owner.authorize_user();
    // k = N makes each reply ~2.5 KiB — big enough that a few thousand
    // unread replies overflow any loopback buffer sizing.
    let query = user.encrypt_query(&data[0], N);
    let request = Frame::Search {
        collection: None,
        params: SearchParams { k_prime: 20, ef_search: 40 },
        query,
    }
    .encode()
    .to_vec();

    let mut glutton = TcpStream::connect(handle.local_addr()).unwrap();
    raw_handshake(&mut glutton);
    glutton.set_write_timeout(Some(Duration::from_millis(200))).unwrap();

    // Keep a well-behaved client running concurrently for the duration.
    let stop_probe = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle_ref = &handle;
        let owner_ref = &owner;
        let data_ref = &data;
        let stop_ref = &stop_probe;
        let probe = scope.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                assert_served_promptly(handle_ref, owner_ref, data_ref, 1);
                std::thread::sleep(Duration::from_millis(20));
            }
        });

        // Pump requests without ever reading, tracking our own partial
        // writes (a timed-out write may land a prefix; resuming from the
        // offset keeps the stream well-framed so the server's eventual
        // close is the *write* timeout, not a framing error).
        let started = Instant::now();
        let mut offset = 0usize;
        let mut stalled_once = false;
        let mut closed = false;
        while started.elapsed() < Duration::from_secs(20) {
            match glutton.write(&request[offset..]) {
                Ok(n) => {
                    offset += n;
                    if offset == request.len() {
                        offset = 0;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Backpressure reached us: the server stopped reading
                    // because its replies are stuck. The write deadline is
                    // now ticking on the server side.
                    stalled_once = true;
                }
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        assert!(stalled_once || closed, "the pipeline never backed up — buffers too large?");
        assert!(closed, "the never-reading peer was not dropped within 20 s");

        stop_probe.store(true, Ordering::Relaxed);
        probe.join().unwrap();
    });

    // The reactor survived with a clean registry: new clients work.
    assert_served_promptly(&handle, &owner, &data, 3);
    handle.request_stop();
    handle.join();
}

/// A half-closed peer (FIN after a complete request, reply unread yet)
/// still gets its answer: shutdown of the peer's write half must not be
/// confused with a dead connection.
#[test]
fn half_closed_peer_still_receives_its_reply() {
    let config = ServiceConfig::loopback().with_workers(2);
    let (data, owner, handle) = spawn_service(603, config);

    let mut user = owner.authorize_user();
    let query = user.encrypt_query(&data[3], 3);
    let request = Frame::Search {
        collection: None,
        params: SearchParams { k_prime: 15, ef_search: 30 },
        query,
    }
    .encode()
    .to_vec();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    raw_handshake(&mut stream);
    stream.write_all(&request).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("the reply must arrive despite the FIN");
    assert_eq!(header[5], tag::SEARCH_RESULT);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();

    handle.request_stop();
    handle.join();
}
