//! A follower applies what its primary ships through the same admission
//! check as a client write. A `WalSegment` insert whose DCE width does not
//! fit the replica is refused, and the follower re-bootstraps instead of
//! storing a row that would fail every query touching it.
//!
//! The primary here is a scripted peer: it serves a valid snapshot, then
//! a log segment holding one wrong-width insert, and reports every pull.

use ppann_core::wal::{snapshot_id, WalRecord, WAL_SEALED_LEN};
use ppann_core::{collection_snapshot_bytes, Catalog, CollectionMeta, DataOwner, PpAnnParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::io::{read_frame, write_frame};
use ppann_service::{
    serve_catalog, CollectionEntry, Frame, ServiceConfig, COLLECTION_KIND_CLOUD, DEFAULT_MAX_FRAME,
};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const DIM: usize = 6;
const N: usize = 30;

fn owner(dim: usize, seed: u64) -> (Vec<Vec<f64>>, DataOwner) {
    let mut rng = seeded_rng(seed);
    let data: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(dim).with_seed(seed).with_beta(0.0), &data);
    (data, owner)
}

/// What the scripted primary saw a follower ask for.
#[derive(Debug, PartialEq)]
enum Pull {
    /// A `ReplicaHello`: a (re-)bootstrap.
    Bootstrap,
    /// A `ReplicaAck` at or past the end of the shipped segment: the
    /// follower applied the record.
    AppliedPast(u64),
}

/// Answers one follower connection until it closes or `stop` is raised.
fn serve_follower(
    mut stream: TcpStream,
    snapshot: &[u8],
    segment: &[u8],
    pulls: &mpsc::Sender<Pull>,
    stop: &AtomicBool,
) {
    let seal = snapshot_id(snapshot);
    let log_len = WAL_SEALED_LEN + segment.len() as u64;
    while let Ok(Some((frame, _))) = read_frame(&mut stream, DEFAULT_MAX_FRAME, Some(stop), None) {
        let reply = match frame {
            Frame::Hello { .. } => Frame::HelloAck { dim: 0, live: 0 },
            Frame::ListCollections => Frame::ListCollectionsReply(vec![CollectionEntry {
                name: "c".into(),
                dim: DIM as u64,
                live: N as u64,
                kind: COLLECTION_KIND_CLOUD,
                shards: 1,
            }]),
            Frame::ReplicaHello { .. } => {
                let _ = pulls.send(Pull::Bootstrap);
                Frame::SnapshotChunk {
                    seal_len: seal.len,
                    seal_crc: seal.crc,
                    offset: 0,
                    total_len: seal.len,
                    bytes: snapshot.to_vec(),
                }
            }
            Frame::ReplicaAck { applied_offset, .. } => {
                if applied_offset >= log_len {
                    let _ = pulls.send(Pull::AppliedPast(applied_offset));
                }
                let bytes =
                    if applied_offset == WAL_SEALED_LEN { segment.to_vec() } else { Vec::new() };
                Frame::WalSegment {
                    seal_len: seal.len,
                    seal_crc: seal.crc,
                    start_offset: applied_offset,
                    log_len,
                    bytes,
                }
            }
            other => panic!("unexpected follower frame {other:?}"),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

#[test]
fn follower_refuses_a_wrong_width_record_and_rebootstraps() {
    let (data, owner) = owner(DIM, 9201);
    let meta = CollectionMeta { name: "c".into(), shards: 1 };
    let snapshot = collection_snapshot_bytes(&meta, &owner.outsource(&data));
    // The SAP half fits; the DCE half comes from a dim-7 owner, 30 wide
    // where the replica's rows are 28.
    let (c_sap, _) = owner.encrypt_for_insert(&data[0], 1);
    let (wide_data, wide_owner) = self::owner(DIM + 1, 9202);
    let (_, c_dce) = wide_owner.encrypt_for_insert(&wide_data[0], 1);
    let segment = WalRecord::Insert { id: N as u32, c_sap, c_dce }.encode().to_vec();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let upstream = listener.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);
    let (pulls, seen) = mpsc::channel();
    std::thread::scope(|scope| {
        let (snapshot, segment, stop) = (&snapshot, &segment, &stop);
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).unwrap();
                        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
                        let pulls = pulls.clone();
                        scope
                            .spawn(move || serve_follower(stream, snapshot, segment, &pulls, stop));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
        });

        // Raised on the way out, failing assertions included, so the
        // scope can join the scripted primary.
        let _stop = StopOnDrop(stop);
        let follower = serve_catalog(
            std::sync::Arc::new(Catalog::new()),
            ServiceConfig::loopback().with_replicate_from(upstream),
        )
        .unwrap();
        let wait = Duration::from_secs(20);
        assert_eq!(seen.recv_timeout(wait), Ok(Pull::Bootstrap), "first bootstrap");
        assert_eq!(
            seen.recv_timeout(wait),
            Ok(Pull::Bootstrap),
            "the follower must refuse the record and re-bootstrap"
        );
        let replica = follower.catalog().get("c").expect("replica installed");
        assert_eq!(replica.slots(), N, "the wrong-width row was stored");
    });
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}
