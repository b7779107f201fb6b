//! Adversarial and concurrent exercise of the server: malformed bytes,
//! truncations, oversized frames, wrong tokens — none of it may wedge the
//! service or poison the backend for well-behaved clients.

use ppann_core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::wire::{tag, HEADER_LEN, MAGIC, PROTOCOL_VERSION};
use ppann_service::{
    serve, ClientError, ErrorCode, Frame, ServiceClient, ServiceConfig, ServiceHandle,
};
use std::io::{Read, Write};
use std::net::TcpStream;

const DIM: usize = 6;
const N: usize = 200;
const TOKEN: u64 = 77;

fn spawn_service(seed: u64) -> (Vec<Vec<f64>>, DataOwner, ServiceHandle) {
    let mut rng = seeded_rng(seed);
    let data: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(seed).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    let config = ServiceConfig::loopback().with_owner_token(TOKEN).with_max_frame(64 * 1024);
    let handle = serve(server, config).unwrap();
    (data, owner, handle)
}

/// Reads one raw reply frame (header + payload) from a bare stream.
fn read_raw_reply(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).ok()?;
    assert_eq!(&header[..4], &MAGIC, "server reply must carry the magic");
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some((header[5], payload))
}

fn expect_error_then_close(mut stream: TcpStream, expected_code: u16, what: &str) {
    let (reply_tag, payload) =
        read_raw_reply(&mut stream).unwrap_or_else(|| panic!("{what}: no error reply"));
    assert_eq!(reply_tag, tag::ERROR, "{what}: expected an Error frame");
    let code = u16::from_le_bytes([payload[0], payload[1]]);
    assert_eq!(code, expected_code, "{what}: wrong error code");
    // The connection must be closed after a framing error.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0, "{what}: connection must close");
}

/// The service must still answer a well-formed client after abuse.
fn assert_still_serves(handle: &ServiceHandle, owner: &DataOwner, data: &[Vec<f64>]) {
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();
    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[0], 3);
    let out = client.search(&q, &SearchParams { k_prime: 15, ef_search: 30 }).unwrap();
    assert_eq!(out.ids.len(), 3);
}

#[test]
fn truncated_frame_then_disconnect_does_not_wedge_the_server() {
    let (data, owner, handle) = spawn_service(501);
    {
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Valid Hello first, so we get past the handshake.
        stream.write_all(&Frame::Hello { dim: DIM as u64 }.encode()).unwrap();
        read_raw_reply(&mut stream).expect("HelloAck");
        // Now a frame header promising 64 payload bytes... and hang up
        // after 10.
        let mut partial = Vec::new();
        partial.extend_from_slice(&MAGIC);
        partial.push(PROTOCOL_VERSION);
        partial.push(tag::SEARCH);
        partial.extend_from_slice(&[0, 0]);
        partial.extend_from_slice(&64u32.to_le_bytes());
        partial.extend_from_slice(&[0u8; 10]);
        stream.write_all(&partial).unwrap();
    } // dropped: FIN mid-frame
    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn bad_magic_is_rejected_and_closed() {
    let (data, owner, handle) = spawn_service(502);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut bytes = Frame::Hello { dim: DIM as u64 }.encode().to_vec();
    bytes[0] = b'X';
    stream.write_all(&bytes).unwrap();
    expect_error_then_close(stream, ErrorCode::BadFrame as u16, "bad magic");
    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn unsupported_version_is_rejected_with_its_own_code() {
    let (data, owner, handle) = spawn_service(503);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut bytes = Frame::Hello { dim: DIM as u64 }.encode().to_vec();
    bytes[4] = 9; // a future protocol version
    stream.write_all(&bytes).unwrap();
    expect_error_then_close(stream, ErrorCode::UnsupportedVersion as u16, "bad version");
    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let (data, owner, handle) = spawn_service(504);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    // Header claiming a 1 GiB payload against the 64 KiB server limit.
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.push(PROTOCOL_VERSION);
    header.push(tag::SEARCH);
    header.extend_from_slice(&[0, 0]);
    header.extend_from_slice(&(1u32 << 30).to_le_bytes());
    stream.write_all(&header).unwrap();
    expect_error_then_close(stream, ErrorCode::FrameTooLarge as u16, "oversized");
    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn first_frame_must_be_hello() {
    let (data, owner, handle) = spawn_service(505);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&Frame::Stats { collection: None }.encode()).unwrap();
    expect_error_then_close(stream, ErrorCode::BadRequest as u16, "handshake skip");
    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn dim_mismatch_is_refused_at_handshake() {
    let (_data, _owner, handle) = spawn_service(506);
    match ServiceClient::connect(handle.local_addr(), Some(DIM + 1)) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::DimMismatch),
        other => panic!("expected DimMismatch, got {other:?}"),
    }
    handle.request_stop();
    handle.join();
}

#[test]
fn wrong_token_and_dead_id_keep_the_connection_usable() {
    let (data, owner, handle) = spawn_service(507);
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    // Wrong token: Unauthorized, connection survives.
    let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 1);
    match client.insert(TOKEN + 1, c_sap, c_dce) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Unauthorized),
        other => panic!("expected Unauthorized, got {other:?}"),
    }

    // Deleting an id that was never assigned: BadRequest, no panic, no
    // poisoned lock, connection survives.
    match client.delete(TOKEN, 10_000) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Same connection still answers queries.
    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[1], 3);
    assert_eq!(
        client.search(&q, &SearchParams { k_prime: 15, ef_search: 30 }).unwrap().ids.len(),
        3
    );

    // Double delete: first succeeds, second is BadRequest.
    client.delete(TOKEN, 5).unwrap();
    match client.delete(TOKEN, 5) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    handle.request_stop();
    handle.join();
}

#[test]
fn wrong_dim_query_is_bad_request_not_poison() {
    let (data, owner, handle) = spawn_service(508);
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();
    let mut user = owner.authorize_user();
    let mut q = user.encrypt_query(&data[0], 3);
    q.c_sap.push(0.0); // now dim+1 wide
    match client.search(&q, &SearchParams { k_prime: 15, ef_search: 30 }) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let q = user.encrypt_query(&data[0], 3);
    assert_eq!(
        client.search(&q, &SearchParams { k_prime: 15, ef_search: 30 }).unwrap().ids.len(),
        3
    );
    handle.request_stop();
    handle.join();
}

#[test]
fn silent_connection_is_reclaimed_by_the_handshake_deadline() {
    let mut rng = seeded_rng(510);
    let data: Vec<Vec<f64>> = (0..50).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(510).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    // One worker and a tight handshake deadline: a silent peer would own
    // the whole service if the deadline did not reclaim the worker.
    let config = ServiceConfig::loopback()
        .with_workers(1)
        .with_timeouts(std::time::Duration::from_millis(200), std::time::Duration::from_secs(120));
    let handle = serve(server, config).unwrap();

    let mut silent = TcpStream::connect(handle.local_addr()).unwrap();
    // The server must hang up on the silent peer within the deadline...
    silent.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(silent.read(&mut probe).unwrap_or(0), 0, "silent peer must be disconnected");
    // ...freeing the single worker for a real client.
    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn absurd_search_knobs_are_rejected_before_allocation() {
    let (data, owner, handle) = spawn_service(512);
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();
    let mut user = owner.authorize_user();

    // k is an attacker-controlled u64 on the wire; a huge value would be
    // a multi-petabyte heap reservation in the top-k heap, and a failed
    // allocation aborts the process — it must die as a BadRequest.
    let mut q = user.encrypt_query(&data[0], 3);
    q.k = 1 << 50;
    let sane = SearchParams { k_prime: 15, ef_search: 30 };
    match client.search(&q, &sane) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest for huge k, got {other:?}"),
    }

    // The filter-phase knobs size allocations and work the same way.
    q.k = 3;
    for bad in [
        SearchParams { k_prime: 1 << 50, ef_search: 30 },
        SearchParams { k_prime: 15, ef_search: 1 << 50 },
    ] {
        match client.search(&q, &bad) {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected BadRequest for {bad:?}, got {other:?}"),
        }
    }

    // Same connection still answers sane queries; the server never died.
    assert_eq!(client.search(&q, &sane).unwrap().ids.len(), 3);

    // k = 0 (would panic the top-k heap's capacity assertion) is already
    // malformed at the codec layer: BadFrame, and the connection closes.
    q.k = 0;
    match client.search(&q, &sane) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame for k = 0, got {other:?}"),
    }
    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn parked_keepalive_connections_do_not_starve_other_clients() {
    let mut rng = seeded_rng(513);
    let data: Vec<Vec<f64>> = (0..50).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(513).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    // A single worker, long idle timeout. If a worker were owned by one
    // connection until close/idle (the old design), the parked client
    // below would pin it for the full 120 s and starve everyone else.
    let config = ServiceConfig::loopback().with_workers(1);
    let handle = serve(server, config).unwrap();

    // Handshake fully, then go quiet — a legitimate keep-alive client.
    let mut parked = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    // New clients must still be served by the same single worker...
    assert_still_serves(&handle, &owner, &data);
    assert_still_serves(&handle, &owner, &data);

    // ...and the parked connection is still usable afterwards.
    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[7], 3);
    let out = parked.search(&q, &SearchParams { k_prime: 15, ef_search: 30 }).unwrap();
    assert_eq!(out.ids.len(), 3);
    handle.request_stop();
    handle.join();
}

#[test]
fn insert_with_wrong_shape_dce_ciphertext_is_rejected() {
    let (data, owner, handle) = spawn_service(511);
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    // Right-size SAP ciphertext, wrong-size DCE ciphertext: accepted
    // silently, it would poison every refine that touches the id.
    let (c_sap, _) = owner.encrypt_for_insert(&data[0], 3);
    let bogus = ppann_dce::DceCiphertext::from_components(
        vec![1.0, 2.0],
        vec![3.0, 4.0],
        vec![5.0, 6.0],
        vec![7.0, 8.0],
    );
    match client.insert(TOKEN, c_sap, bogus) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Nothing was stored; searches still work on the same connection.
    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[0], 3);
    let out = client.search(&q, &SearchParams { k_prime: 15, ef_search: 30 }).unwrap();
    assert_eq!(out.ids.len(), 3);
    let snap = client.stats().unwrap();
    assert_eq!(snap.inserts, 0);
    assert_eq!(snap.live, N as u64);
    handle.request_stop();
    handle.join();
}

#[test]
fn client_call_deadline_expires_against_a_hung_server() {
    // A "server" that accepts the connection and never says anything: the
    // client's handshake call must fail with a timed-out Io error instead
    // of blocking forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
    let started = std::time::Instant::now();
    let timeout = std::time::Duration::from_millis(300);
    match ServiceClient::connect_with_timeout(addr, Some(DIM), timeout) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
        other => panic!("expected a timed-out Io error, got {other:?}"),
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "deadline did not bound the wait"
    );
    drop(hold.join());
}

#[test]
fn concurrent_searches_with_maintenance_interleaved() {
    let (data, owner, handle) = spawn_service(509);
    let addr = handle.local_addr();
    let params = SearchParams { k_prime: 20, ef_search: 40 };

    std::thread::scope(|scope| {
        // Four query clients hammering searches on their own connections.
        for t in 0..4usize {
            let data = &data;
            let owner = &owner;
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr, Some(DIM)).unwrap();
                let mut user = owner.authorize_user();
                for round in 0..15 {
                    let q = user.encrypt_query(&data[(t * 15 + round) % N], 5);
                    let out = client.search(&q, &params).unwrap();
                    assert_eq!(out.ids.len(), 5, "thread {t} round {round}");
                }
            });
        }
        // One owner connection doing exclusive-path maintenance throughout.
        let owner = &owner;
        scope.spawn(move || {
            let mut client = ServiceClient::connect(addr, None).unwrap();
            for i in 0..10u64 {
                let novel = vec![3.0 + i as f64; DIM];
                let (c_sap, c_dce) = owner.encrypt_for_insert(&novel, 100 + i);
                let id = client.insert(TOKEN, c_sap, c_dce).unwrap();
                client.delete(TOKEN, id).unwrap();
            }
        });
    });

    // Every insert was deleted again: live count is back to N, and the
    // counters saw all the traffic.
    let mut client = ServiceClient::connect(addr, None).unwrap();
    let snap = client.stats().unwrap();
    assert_eq!(snap.live, N as u64);
    assert_eq!(snap.queries, 60);
    assert_eq!(snap.inserts, 10);
    assert_eq!(snap.deletes, 10);
    handle.request_stop();
    handle.join();
}

/// Malformed and out-of-policy `SearchBatch` frames: an empty batch and a
/// batch above the server's limit are semantic `BadRequest`s that leave
/// the connection usable; a count field claiming more queries than the
/// payload carries is a framing error that closes it. None of it may
/// wedge the service.
#[test]
fn malformed_batches_are_rejected() {
    let (data, owner, handle) = spawn_service(513);
    let mut user = owner.authorize_user();
    let params = SearchParams { k_prime: 15, ef_search: 30 };

    // Zero-length batch: well-formed on the wire, refused as BadRequest
    // with the connection kept open. (ServiceClient::search_batch never
    // sends one, so speak the raw protocol.)
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&Frame::Hello { dim: DIM as u64 }.encode()).unwrap();
    read_raw_reply(&mut stream).expect("HelloAck");
    stream
        .write_all(&Frame::SearchBatch { collection: None, params, queries: Vec::new() }.encode())
        .unwrap();
    let (reply_tag, payload) = read_raw_reply(&mut stream).expect("error reply");
    assert_eq!(reply_tag, tag::ERROR, "empty batch: expected an Error frame");
    let code = u16::from_le_bytes([payload[0], payload[1]]);
    assert_eq!(code, ErrorCode::BadRequest as u16, "empty batch: wrong code");
    // Same connection still answers: a one-query batch works.
    let q = user.encrypt_query(&data[0], 3);
    stream
        .write_all(
            &Frame::SearchBatch { collection: None, params, queries: vec![q.clone()] }.encode(),
        )
        .unwrap();
    let (reply_tag, _) = read_raw_reply(&mut stream).expect("batch reply");
    assert_eq!(reply_tag, tag::SEARCH_BATCH_RESULT, "connection must stay usable");

    // Truncated count: the count field claims one query more than the
    // payload carries — a framing error, answered and then closed.
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&Frame::Hello { dim: DIM as u64 }.encode()).unwrap();
    read_raw_reply(&mut stream).expect("HelloAck");
    let mut bytes =
        Frame::SearchBatch { collection: None, params, queries: vec![q.clone()] }.encode().to_vec();
    let count_off = HEADER_LEN + 16; // count u64 sits after the params block
    bytes[count_off..count_off + 8].copy_from_slice(&2u64.to_le_bytes());
    stream.write_all(&bytes).unwrap();
    expect_error_then_close(stream, ErrorCode::BadFrame as u16, "truncated batch count");

    assert_still_serves(&handle, &owner, &data);
    handle.request_stop();
    handle.join();
}

/// A batch above the server's configured size limit is refused before any
/// query runs, and the client connection survives to retry with smaller
/// chunks.
#[test]
fn over_limit_batch_is_bad_request() {
    let mut rng = seeded_rng(514);
    let data: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(514).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    let config = ServiceConfig::loopback().with_max_batch(4);
    let handle = serve(server, config).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    let mut user = owner.authorize_user();
    let queries: Vec<_> = (0..5).map(|i| user.encrypt_query(&data[i], 3)).collect();
    let params = SearchParams { k_prime: 15, ef_search: 30 };
    match client.search_batch(&queries, &params) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest for a 5-query batch over a limit of 4, got {other:?}"),
    }
    // At the limit it works, and order is preserved.
    let outs = client.search_batch(&queries[..4], &params).unwrap();
    assert_eq!(outs.len(), 4);
    for (out, q) in outs.iter().zip(&queries) {
        assert_eq!(out.ids.len(), q.k.min(3));
    }
    // A batch with one bad query (wrong dim) names the query and keeps
    // the connection.
    let mut bad = queries[..3].to_vec();
    bad[1].c_sap.push(0.0);
    match client.search_batch(&bad, &params) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("batch query 1"), "message should name the query: {message}");
        }
        other => panic!("expected BadRequest for a bad in-batch query, got {other:?}"),
    }
    assert_eq!(client.search_batch(&queries[..2], &params).unwrap().len(), 2);
    handle.request_stop();
    handle.join();
}

/// A batch whose *reply* could not fit the frame-size limit (summed k) is
/// refused before any search runs — otherwise the server would burn the
/// whole batch of work on an undeliverable frame.
#[test]
fn batch_with_oversized_reply_is_refused_before_searching() {
    let mut rng = seeded_rng(515);
    let data: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(515).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    // Request frames stay small; replies of 3 × k=200 results would not.
    let config = ServiceConfig::loopback().with_max_frame(4096);
    let handle = serve(server, config).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    let mut user = owner.authorize_user();
    let params = SearchParams { k_prime: 15, ef_search: 30 };
    let queries: Vec<_> = (0..3).map(|i| user.encrypt_query(&data[i], 200)).collect();
    match client.search_batch(&queries, &params) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("frame limit"), "should name the bound: {message}");
        }
        other => panic!("expected BadRequest for an oversized reply, got {other:?}"),
    }
    // The connection survives, and a small-k batch of the same width works.
    let small: Vec<_> = (0..3).map(|i| user.encrypt_query(&data[i], 3)).collect();
    assert_eq!(client.search_batch(&small, &params).unwrap().len(), 3);
    handle.request_stop();
    handle.join();
}
