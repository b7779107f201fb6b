//! Refusal accounting: every way the server refuses a request is answered
//! with one `Error` frame and counted by one rule. A refusal of a frame
//! already routed to a collection counts `errors` and `bytes_out` against
//! that collection and process-wide; a refusal that happens before routing
//! (unknown name, token, follower role, frame direction) counts
//! process-wide only.
//!
//! Each case sends one raw frame and compares the counters before and
//! after it: the process-wide ones in-process, the per-collection ones
//! through `Stats` frames. A per-collection `Stats` reply credits its own
//! bytes to the collection (and to the process), so those deltas carry a
//! fixed `Stats` reply size, measured first.

use ppann_core::catalog::Catalog;
use ppann_core::{DataOwner, PpAnnParams, SearchParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::io::{read_frame, write_frame};
use ppann_service::{
    serve_catalog, ErrorCode, Frame, ServiceClient, ServiceConfig, ServiceHandle, DEFAULT_MAX_FRAME,
};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN: u64 = 0x5EC7;
const DIM: usize = 6;
const COLL: &str = "docs";
const MAX_BATCH: usize = 4;
const MAX_FRAME: u32 = 64 * 1024;

fn owner(dim: usize, seed: u64) -> (Vec<Vec<f64>>, DataOwner) {
    let mut rng = seeded_rng(seed);
    let data: Vec<Vec<f64>> = (0..60).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(dim).with_seed(seed).with_beta(0.0), &data);
    (data, owner)
}

/// One running service plus the two connections a case needs: a raw
/// stream for the refused frame, and a client reading `Stats`.
struct Probe {
    handle: ServiceHandle,
    raw: TcpStream,
    stats: ServiceClient,
    /// Bytes one per-collection `StatsReply` adds to `bytes_out`.
    stats_reply: u64,
}

impl Probe {
    fn start(data: &[Vec<f64>], owner: &DataOwner, config: ServiceConfig) -> Self {
        let catalog = Catalog::new();
        catalog.create(COLL, owner.outsource(data)).unwrap();
        let handle = serve_catalog(Arc::new(catalog), config.with_owner_token(TOKEN)).unwrap();
        let mut raw = TcpStream::connect(handle.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        match call(&mut raw, &Frame::Hello { dim: 0 }).0 {
            Frame::HelloAck { .. } => {}
            other => panic!("handshake answered {other:?}"),
        }
        let mut stats = ServiceClient::connect(handle.local_addr(), None).unwrap();
        let a = stats.stats_in(COLL).unwrap();
        let b = stats.stats_in(COLL).unwrap();
        let stats_reply = b.bytes_out - a.bytes_out;
        assert!(stats_reply > 0);
        Self { handle, raw, stats, stats_reply }
    }

    /// Sends `frame`, expects an `Error` frame with `code`, and checks
    /// which counters it advanced.
    fn refuse(&mut self, name: &str, frame: Frame, code: ErrorCode, routed: bool) {
        let p0 = self.handle.stats().snapshot(0);
        let c0 = self.stats.stats_in(COLL).unwrap();
        let (reply, wire) = call(&mut self.raw, &frame);
        let c1 = self.stats.stats_in(COLL).unwrap();
        let p1 = self.handle.stats().snapshot(0);
        match reply {
            Frame::Error { code: got, message } => {
                assert_eq!(got, code, "{name}: wrong code ({message})");
            }
            other => panic!("{name}: expected an Error frame, got {other:?}"),
        }
        let wire = wire as u64;
        let s = self.stats_reply;
        assert_eq!(p1.errors - p0.errors, 1, "{name}: process errors");
        assert_eq!(p1.bytes_out - p0.bytes_out, 2 * s + wire, "{name}: process bytes_out");
        let (errors, bytes_out) = if routed { (1, s + wire) } else { (0, s) };
        assert_eq!(c1.errors - c0.errors, errors, "{name}: collection errors");
        assert_eq!(c1.bytes_out - c0.bytes_out, bytes_out, "{name}: collection bytes_out");
    }
}

/// One request/response exchange on a raw, handshaken stream.
fn call(stream: &mut TcpStream, frame: &Frame) -> (Frame, usize) {
    write_frame(stream, frame).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    read_frame(stream, DEFAULT_MAX_FRAME, None, Some(deadline)).unwrap().expect("reply frame")
}

fn name() -> Option<Vec<u8>> {
    Some(COLL.as_bytes().to_vec())
}

#[test]
fn every_refusal_is_counted_by_the_routing_rule() {
    let (data, owner) = owner(DIM, 9101);
    // A dim-7 owner supplies rows and queries of the wrong shape.
    let (wide_data, wide_owner) = self::owner(DIM + 1, 9102);
    let params = SearchParams { k_prime: 16, ef_search: 32 };
    let mut user = owner.authorize_user();
    let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 1);
    let (wide_sap, wide_dce) = wide_owner.encrypt_for_insert(&wide_data[0], 1);
    let insert =
        |c_sap: Vec<f64>, c_dce, token| Frame::Insert { collection: name(), token, c_sap, c_dce };
    let batch = |queries| Frame::SearchBatch { collection: name(), params, queries };

    let config = ServiceConfig::loopback().with_max_batch(MAX_BATCH).with_max_frame(MAX_FRAME);
    let mut primary = Probe::start(&data, &owner, config.clone());
    let bad = ErrorCode::BadRequest;

    primary.refuse(
        "unknown collection",
        Frame::Search {
            collection: Some(b"nope".to_vec()),
            params,
            query: user.encrypt_query(&data[1], 3),
        },
        ErrorCode::UnknownCollection,
        false,
    );
    primary.refuse(
        "bad token",
        insert(c_sap.clone(), c_dce.clone(), TOKEN + 1),
        ErrorCode::Unauthorized,
        false,
    );
    primary.refuse("wrong SAP dim", insert(wide_sap.clone(), c_dce.clone(), TOKEN), bad, true);
    primary.refuse("wrong DCE width", insert(c_sap.clone(), wide_dce, TOKEN), bad, true);
    primary.refuse(
        "dead delete target",
        Frame::Delete { collection: name(), token: TOKEN, id: 10_000 },
        bad,
        true,
    );
    primary.refuse(
        "bad query",
        Frame::Search {
            collection: name(),
            params,
            query: wide_owner.authorize_user().encrypt_query(&wide_data[1], 3),
        },
        bad,
        true,
    );
    primary.refuse("empty batch", batch(Vec::new()), bad, true);
    let oversized = (0..=MAX_BATCH).map(|i| user.encrypt_query(&data[i], 3)).collect();
    primary.refuse("oversized batch", batch(oversized), bad, true);
    // Two queries of k = 3000 could answer ~72 KB, above the 64 KiB limit.
    let heavy = (0..2).map(|i| user.encrypt_query(&data[i], 3000)).collect();
    primary.refuse("reply-bound batch", batch(heavy), bad, true);
    primary.refuse("wrong frame direction", Frame::DeleteAck, bad, false);

    // A follower refuses writes before routing them. Its upstream is a
    // port nobody listens on, so its catalog stays as registered.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let mut follower = Probe::start(&data, &owner, config.with_replicate_from(dead.to_string()));
    follower.refuse("follower refusal", insert(c_sap, c_dce, TOKEN), ErrorCode::NotPrimary, false);
}
