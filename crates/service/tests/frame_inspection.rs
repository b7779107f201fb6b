//! Frame inspection: capture the actual bytes a [`ServiceClient`] puts on
//! the wire and verify that only ciphertext, id and cost material appears
//! — in particular that no byte pattern of the plaintext query (raw or
//! normalized) leaks into any frame. This is the acceptance check that the
//! network boundary carries exactly what the paper's threat model allows.

use ppann_core::wire::put_f64_slice;
use ppann_core::{DataOwner, PpAnnParams, SearchParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::wire::{decode_frame, Frame, DEFAULT_MAX_FRAME, HEADER_LEN};
use ppann_service::ServiceClient;
use std::io::{Read, Write};
use std::net::TcpListener;

const DIM: usize = 8;

/// Reads one complete raw frame from a stream.
fn read_raw_frame(stream: &mut impl Read) -> Vec<u8> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut out = header.to_vec();
    out.resize(HEADER_LEN + len, 0);
    stream.read_exact(&mut out[HEADER_LEN..]).unwrap();
    out
}

/// True when `needle`'s byte image occurs anywhere in `haystack`.
fn contains_bytes(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Asserts no coordinate of `vector` appears byte-for-byte in `frame`.
/// An 8-byte f64 pattern colliding by chance is ~2⁻⁶⁴ per position —
/// a hit means the value itself was serialized.
fn assert_no_plaintext(frame: &[u8], vector: &[f64], what: &str) {
    for (i, coord) in vector.iter().enumerate() {
        assert!(
            !contains_bytes(frame, &coord.to_le_bytes()),
            "{what}: plaintext coordinate {i} ({coord}) found in the frame"
        );
    }
}

#[test]
fn captured_search_frame_holds_only_ciphertext_and_knobs() {
    // A raw listener stands in for the server so the test sees the exact
    // client bytes (the real server parses them the same way).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let mut rng = seeded_rng(4242);
    let data: Vec<Vec<f64>> = (0..50).map(|_| uniform_vec(&mut rng, DIM, -7.0, 7.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(11), &data);
    let mut user = owner.authorize_user();
    let plaintext_query = data[3].clone();
    let norm_scale = 1.0 / data.iter().flat_map(|v| v.iter()).fold(0.0f64, |m, x| m.max(x.abs()));
    let normalized_query: Vec<f64> = plaintext_query.iter().map(|x| x * norm_scale).collect();
    let query = user.encrypt_query(&plaintext_query, 5);
    let params = SearchParams { k_prime: 20, ef_search: 40 };

    let server_side = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_raw_frame(&mut conn);
        conn.write_all(&Frame::HelloAck { dim: DIM as u64, live: 50 }.encode()).unwrap();
        let search = read_raw_frame(&mut conn);
        (hello, search)
    });

    let mut client = ServiceClient::connect(addr, Some(DIM)).unwrap();
    // The stand-in never answers the search; a closed connection after
    // capture is fine for this test.
    let query_for_wire = query.clone();
    let _ = client.search(&query_for_wire, &params);
    let (hello_bytes, search_bytes) = server_side.join().unwrap();

    // --- The Hello frame is exactly the 8-byte dim payload.
    assert_eq!(hello_bytes.len(), HEADER_LEN + 8);

    // --- The Search frame: every byte accounted for.
    // Header (12) + params (16) + k (8) + c_sap (8 + 8·dim) + trapdoor
    // (8 + 8·trapdoor_dim). Nothing else fits, so nothing else travels.
    let expected_len = HEADER_LEN + 16 + 8 + (8 + 8 * DIM) + (8 + 8 * query.trapdoor.dim());
    assert_eq!(search_bytes.len(), expected_len, "unaccounted bytes in the Search frame");

    // --- Decoding yields exactly the ciphertext fields we sent...
    match decode_frame(&search_bytes, DEFAULT_MAX_FRAME).unwrap() {
        Frame::Search { collection: None, params: p, query: q } => {
            assert_eq!(p, params);
            assert_eq!(q.k, 5);
            assert_eq!(q.c_sap, query.c_sap);
            assert_eq!(q.trapdoor.as_slice(), query.trapdoor.as_slice());
        }
        other => panic!("captured frame is not Search: {other:?}"),
    }

    // --- ...and no plaintext coordinate (raw or normalized) leaked.
    assert_no_plaintext(&search_bytes, &plaintext_query, "raw query");
    assert_no_plaintext(&search_bytes, &normalized_query, "normalized query");
    // The SAP ciphertext *should* be present — the check above is
    // meaningful only if its ciphertext counterpart does appear.
    let mut c_sap_bytes = bytes::BytesMut::new();
    put_f64_slice(&mut c_sap_bytes, &query.c_sap);
    assert!(contains_bytes(&search_bytes, &c_sap_bytes), "the SAP ciphertext must be on the wire");
}

#[test]
fn search_result_frame_holds_only_ids_distances_and_cost() {
    use ppann_core::CloudServer;
    use ppann_service::{serve, ServiceConfig};

    let mut rng = seeded_rng(4343);
    let data: Vec<Vec<f64>> = (0..80).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(12).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    let handle = serve(server, ServiceConfig::loopback()).unwrap();

    // Speak the protocol manually so the reply bytes can be inspected.
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&Frame::Hello { dim: DIM as u64 }.encode()).unwrap();
    let _hello_ack = read_raw_frame(&mut stream);

    let mut user = owner.authorize_user();
    let query = user.encrypt_query(&data[7], 4);
    let params = SearchParams { k_prime: 16, ef_search: 32 };
    stream
        .write_all(&Frame::Search { collection: None, params, query: query.clone() }.encode())
        .unwrap();
    let reply = read_raw_frame(&mut stream);

    // Size accounting: header + n + n ids + n dists + 6 counters.
    let k = 4usize;
    assert_eq!(reply.len(), HEADER_LEN + 8 + 4 * k + 8 * k + 6 * 8);

    match decode_frame(&reply, DEFAULT_MAX_FRAME).unwrap() {
        Frame::SearchResult(out) => {
            assert_eq!(out.ids.len(), k);
            assert_eq!(out.sap_dists.len(), k);
            // The result must not echo the query ciphertext, let alone any
            // plaintext: the query point itself is the top hit, and its
            // *plaintext* coordinates must not be anywhere in the reply.
            assert_eq!(out.ids[0], 7);
            assert_no_plaintext(&reply, &data[7], "result vector plaintext");
        }
        other => panic!("reply is not SearchResult: {other:?}"),
    }
    handle.request_stop();
    handle.join();
}
