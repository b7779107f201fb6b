//! Primary/backup replication: WAL shipping over PPNW v2 frames.
//!
//! ```text
//! primary process                         follower process
//! ┌──────────────────────┐   ReplicaHello ┌──────────────────────┐
//! │ reactor + workers    │◄───────────────│ per-collection sync  │
//! │  (normal frame path) │ SnapshotChunk /│ thread (blocking IO) │
//! │                      │──WalSegment───►│                      │
//! │ per-collection WAL   │   ReplicaAck   │ apply_replicated →   │
//! │  (PR 7 durability)   │◄───────────────│ in-memory replica    │
//! └──────────────────────┘                └──────────────────────┘
//! ```
//!
//! The design is **pull-based**: followers drive the stream with strict
//! request/response pulls ([`Frame::ReplicaHello`] to open or bootstrap,
//! [`Frame::ReplicaAck`] in steady state), and the primary answers them
//! through the same reactor + worker pool that serves every other frame —
//! replication needs no dedicated primary-side session state beyond the
//! per-connection write buffer the reactor already keeps. That keeps the
//! primary passive (it never dials anyone) and makes follower recovery
//! trivial: reconnect and re-ack the last applied offset.
//!
//! What ships is the durable byte stream itself, never re-encoded rows:
//!
//! * **Bootstrap** — the follower's sealed snapshot identity `(len, crc)`
//!   does not match the primary's, so the primary streams the snapshot
//!   file in [`Frame::SnapshotChunk`] runs. The follower verifies the
//!   assembled bytes against the advertised seal before loading them.
//! * **Steady state** — the primary ships record-aligned `PPWL` log bytes
//!   in [`Frame::WalSegment`]s, never past its acknowledged `log_len`
//!   (bytes below it are complete acknowledged records even mid-crash —
//!   the WAL writer's dirty-flag discipline guarantees it). The follower
//!   decodes record by record with [`ppann_core::wal::decode_record_at`]
//!   and applies through [`Collection::apply_replicated`]: the admission
//!   check client writes and restart replay pass too (next-slot id, row
//!   shape, live delete target).
//! * **Reseal catch-up** — a primary compaction swaps the snapshot and
//!   restarts the log, changing the seal; the follower's next pull gets
//!   `SnapshotChunk`s for the new snapshot and re-enters bootstrap.
//!   Correct but wasteful for large collections; shipping the compacted
//!   snapshot as a delta is a documented upgrade path (OPERATIONS.md §10).
//!
//! A torn segment (the TCP stream died mid-record) costs nothing: the
//! follower applies the whole records it can decode, discards the partial
//! tail, and its next ack names the last good offset — the primary simply
//! resends from there. Divergence (an apply error) is handled the way
//! restart replay handles a non-applying record: full re-bootstrap, with
//! [`Catalog::install_replica`] atomically swapping the rebuilt replica in
//! so reads never observe a missing collection and its counters carry
//! over.
//!
//! Roles are manual in this version: a process started with
//! `--replicate-from` is a follower (mutating frames get
//! [`ErrorCode::NotPrimary`]) until an
//! owner-authenticated [`Frame::Promote`] flips it. Consensus-driven
//! promotion and follower-side durability are documented upgrade paths
//! (OPERATIONS.md §10); follower replicas are in-memory and resync from
//! their upstream on restart.

use crate::io::{read_frame, write_frame, FrameReadError};
use crate::reactor::Shared;
use crate::wire::{ErrorCode, Frame, WireName};
use ppann_core::wal::{
    decode_record_at, segment_end, snapshot_id, wal_path_for, SnapshotId, WalRecord,
    MAX_WAL_RECORD, WAL_FRAME_LEN, WAL_HEADER_LEN, WAL_SEALED_LEN,
};
use ppann_core::{Catalog, Collection, ReplicationSource};
use std::collections::HashMap;
use std::fs::File;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on log bytes shipped per [`Frame::WalSegment`] (the first record
/// is always included even if it alone exceeds the cap).
pub(crate) const SEGMENT_MAX_BYTES: usize = 1 << 20;

/// Cap on snapshot bytes shipped per [`Frame::SnapshotChunk`].
pub(crate) const SNAPSHOT_CHUNK_BYTES: usize = 1 << 20;

/// How many times a pull retries when the collection's sealed state
/// changes underneath the file read (a concurrent compaction).
const PULL_RETRIES: usize = 3;

/// How long a follower waits between polls when fully caught up.
const CAUGHT_UP_PAUSE: Duration = Duration::from_millis(25);

/// Reconnect backoff after an upstream transport failure.
const RECONNECT_PAUSE: Duration = Duration::from_millis(100);

/// How often the follower manager re-lists the upstream catalog.
const CATALOG_POLL: Duration = Duration::from_millis(500);

/// Deadline for one blocking request/response exchange with the upstream.
const PULL_DEADLINE: Duration = Duration::from_secs(10);

/// This process's replication role. Shared by the worker pool (mutation
/// gating), the follower sync threads (exit on promotion), and
/// [`ServiceHandle`](crate::server::ServiceHandle).
///
/// The only transition is follower → primary, via an owner-authenticated
/// [`Frame::Promote`] (or [`Self::promote`] in-process). There is no
/// demotion: restart the process with `--replicate-from` instead, so a
/// stale primary can never silently rejoin as a follower with diverged
/// state.
#[derive(Debug)]
pub struct ReplicationRole {
    primary: AtomicBool,
}

impl ReplicationRole {
    /// A primary role (the default for a process started without
    /// `--replicate-from`).
    pub fn primary() -> Arc<Self> {
        Arc::new(Self { primary: AtomicBool::new(true) })
    }

    /// A follower role: mutations refused, sync threads running.
    pub fn follower() -> Arc<Self> {
        Arc::new(Self { primary: AtomicBool::new(false) })
    }

    /// True when this process accepts mutations.
    pub fn is_primary(&self) -> bool {
        self.primary.load(Ordering::Relaxed)
    }

    /// Promotes a follower to primary: mutations are accepted from the
    /// next frame on, and the sync threads wind down (they stop pulling
    /// once they observe the flip). Idempotent.
    pub fn promote(&self) {
        self.primary.store(true, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Primary side: answering pulls.
// ---------------------------------------------------------------------

/// Answers one follower pull against `coll`. `snapshot_offset` is
/// `Some` for a [`Frame::ReplicaHello`] (the follower may be mid-
/// bootstrap) and `None` for a [`Frame::ReplicaAck`] (snapshot transfer
/// complete by definition). `Err` carries the error frame to answer.
pub(crate) fn serve_pull(
    coll: &Collection,
    seal: SnapshotId,
    snapshot_offset: Option<u64>,
    log_offset: u64,
) -> Result<Frame, (ErrorCode, String)> {
    for _ in 0..PULL_RETRIES {
        let Some(src) = coll.replication_source() else {
            return Err((
                ErrorCode::Internal,
                "collection is resealing or not durable — retry".into(),
            ));
        };
        // Bootstrap cases: the follower's seal is not ours (fresh
        // follower, or our compaction re-sealed), its claimed offset is
        // past our log (it followed a future we rolled away from), or it
        // is mid-snapshot-transfer for the current seal.
        let bootstrapping = seal != src.seal
            || log_offset > src.log_len
            || snapshot_offset.is_some_and(|off| off < src.seal.len);
        let reply = if bootstrapping {
            // A mismatched seal restarts the transfer at offset 0; a
            // matching one resumes where the follower left off.
            let offset = if seal == src.seal { snapshot_offset.unwrap_or(0) } else { 0 };
            snapshot_chunk(&src, offset)
        } else {
            wal_segment(&src, log_offset)
        };
        match reply {
            Ok(frame) => return Ok(frame),
            // The file changed identity under the read (compaction swaps
            // it atomically): re-sample and try again.
            Err(PullError::SealChanged) => continue,
            Err(PullError::Io(e)) => {
                return Err((ErrorCode::Internal, format!("replication source read failed: {e}")))
            }
        }
    }
    Err((ErrorCode::Internal, "collection kept resealing under the pull — retry".into()))
}

enum PullError {
    /// The on-disk state no longer matches the sampled source.
    SealChanged,
    Io(std::io::Error),
}

impl From<std::io::Error> for PullError {
    fn from(e: std::io::Error) -> Self {
        PullError::Io(e)
    }
}

/// Reads exactly `buf.len()` bytes of `file` at `offset`: every file
/// read a pull makes goes through here (tests count them). A file shorter
/// than that is not the generation the pull sampled, so it reads as
/// [`PullError::SealChanged`].
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), PullError> {
    use std::os::unix::fs::FileExt;
    #[cfg(test)]
    tests::BYTES_READ.with(|n| n.set(n.get() + buf.len() as u64));
    file.read_exact_at(buf, offset).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => PullError::SealChanged,
        _ => PullError::Io(e),
    })
}

/// One snapshot run starting at `offset`: one positioned read of at most
/// [`SNAPSHOT_CHUNK_BYTES`] from the handle the sampled seal names.
/// Compaction publishes a new snapshot by rename, so that handle's bytes
/// never change and no chunk can be a torn hybrid; the follower's
/// end-to-end seal check remains the integrity gate.
fn snapshot_chunk(src: &ReplicationSource, offset: u64) -> Result<Frame, PullError> {
    let start = offset.min(src.seal.len);
    let end = (start + SNAPSHOT_CHUNK_BYTES as u64).min(src.seal.len);
    let mut bytes = vec![0u8; (end - start) as usize];
    read_at(&src.snapshot, &mut bytes, start)?;
    Ok(Frame::SnapshotChunk {
        seal_len: src.seal.len,
        seal_crc: src.seal.crc,
        offset: start,
        total_len: src.seal.len,
        bytes,
    })
}

/// One record-aligned log run starting at `log_offset` (clamped up to
/// the sealed prefix — the sealing checkpoint is never shipped; the
/// follower's bootstrap already gave it the sealed base). Only bytes
/// below the *sampled* `log_len` ship: those are complete acknowledged
/// records even if the primary is killed mid-append. The pull reads the
/// log's sealed header and then at most [`SEGMENT_MAX_BYTES`] from
/// `log_offset` (more only for a single record larger than that).
fn wal_segment(src: &ReplicationSource, log_offset: u64) -> Result<Frame, PullError> {
    let start = log_offset.max(WAL_SEALED_LEN);
    let mut bytes = Vec::new();
    if start < src.log_len {
        let file = File::open(wal_path_for(&src.snapshot_path))?;
        // The sealing checkpoint must still name the sampled seal — if
        // not, the file was swapped between the sample and the open.
        let mut head = [0u8; WAL_SEALED_LEN as usize];
        read_at(&file, &mut head, 0)?;
        match decode_record_at(&head, WAL_HEADER_LEN) {
            Some((WalRecord::Checkpoint { base }, _)) if base == src.seal => {}
            _ => return Err(PullError::SealChanged),
        }
        let avail = src.log_len - start;
        bytes = vec![0u8; avail.min(SEGMENT_MAX_BYTES as u64) as usize];
        read_at(&file, &mut bytes, start)?;
        let mut end = segment_end(&bytes, 0, SEGMENT_MAX_BYTES);
        if end == 0 && bytes.len() >= WAL_FRAME_LEN {
            // The first record alone is over the cap: it ships whole.
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            if len <= MAX_WAL_RECORD {
                let read = bytes.len();
                bytes.resize(((WAL_FRAME_LEN + len) as u64).min(avail) as usize, 0);
                read_at(&file, &mut bytes[read..], start + read as u64)?;
                end = segment_end(&bytes, 0, SEGMENT_MAX_BYTES);
            }
        }
        bytes.truncate(end);
    }
    Ok(Frame::WalSegment {
        seal_len: src.seal.len,
        seal_crc: src.seal.crc,
        start_offset: start,
        log_len: src.log_len,
        bytes,
    })
}

// ---------------------------------------------------------------------
// Follower side: the manager and per-collection sync threads.
// ---------------------------------------------------------------------

/// Everything a follower thread needs from the service that spawned it.
#[derive(Clone)]
pub(crate) struct FollowerCtx {
    pub upstream: String,
    pub catalog: Arc<Catalog>,
    pub role: Arc<ReplicationRole>,
    pub shared: Arc<Shared>,
    pub max_frame: u32,
}

impl FollowerCtx {
    /// True while the follower machinery should keep running.
    fn running(&self) -> bool {
        !self.shared.stopping() && !self.role.is_primary()
    }

    /// Sleeps up to `pause` in small slices; false when winding down.
    fn pause(&self, pause: Duration) -> bool {
        let deadline = Instant::now() + pause;
        while Instant::now() < deadline {
            if !self.running() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.running()
    }
}

/// Spawns the follower manager: it polls the upstream catalog and keeps
/// one sync thread per upstream collection alive until the service stops
/// or the role flips to primary. Returned handle joins everything.
pub(crate) fn spawn_follower(ctx: FollowerCtx) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || run_manager(ctx))
}

fn run_manager(ctx: FollowerCtx) {
    let mut syncers: HashMap<String, std::thread::JoinHandle<()>> = HashMap::new();
    while ctx.running() {
        match list_upstream(&ctx) {
            Ok(entries) => {
                syncers.retain(|_, handle| !handle.is_finished());
                for name in entries {
                    if let std::collections::hash_map::Entry::Vacant(slot) = syncers.entry(name) {
                        let ctx = ctx.clone();
                        let thread_name = slot.key().clone();
                        slot.insert(std::thread::spawn(move || run_sync(ctx, thread_name)));
                    }
                }
                if !ctx.pause(CATALOG_POLL) {
                    break;
                }
            }
            Err(_) => {
                // Upstream unreachable (down, or not up yet): keep
                // retrying — the primary may simply start after us.
                if !ctx.pause(RECONNECT_PAUSE) {
                    break;
                }
            }
        }
    }
    for (_, handle) in syncers {
        let _ = handle.join();
    }
}

/// One blocking upstream connection, handshaken and ready for pulls.
fn dial_upstream(ctx: &FollowerCtx) -> Result<TcpStream, FrameReadError> {
    let addr: SocketAddr =
        ctx.upstream.to_socket_addrs().map_err(FrameReadError::Io)?.next().ok_or_else(|| {
            FrameReadError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "upstream address resolved to nothing",
            ))
        })?;
    let stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(FrameReadError::Io)?;
    stream.set_nodelay(true).map_err(FrameReadError::Io)?;
    // A short read timeout keeps `read_frame`'s retry loop spinning
    // through its stop/deadline checks instead of blocking forever.
    stream.set_read_timeout(Some(Duration::from_millis(50))).map_err(FrameReadError::Io)?;
    let mut stream = stream;
    // dim 0 = wildcard: a follower syncs heterogeneous collections.
    exchange(ctx, &mut stream, &Frame::Hello { dim: 0 }).and_then(|reply| match reply {
        Frame::HelloAck { .. } => Ok(()),
        other => Err(protocol_surprise("HelloAck", &other)),
    })?;
    Ok(stream)
}

/// One strict request/response exchange with stop-aware deadlines.
fn exchange(
    ctx: &FollowerCtx,
    stream: &mut TcpStream,
    request: &Frame,
) -> Result<Frame, FrameReadError> {
    write_frame(stream, request).map_err(FrameReadError::Io)?;
    let deadline = Instant::now() + PULL_DEADLINE;
    match read_frame(stream, ctx.max_frame, Some(&ctx.shared.stop), Some(deadline))? {
        Some((frame, _)) => Ok(frame),
        None => Err(FrameReadError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "upstream closed mid-exchange",
        ))),
    }
}

fn protocol_surprise(wanted: &str, got: &Frame) -> FrameReadError {
    FrameReadError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("expected {wanted}, upstream answered {got:?}"),
    ))
}

/// The upstream collection names (one sync thread each).
fn list_upstream(ctx: &FollowerCtx) -> Result<Vec<String>, FrameReadError> {
    let mut stream = dial_upstream(ctx)?;
    match exchange(ctx, &mut stream, &Frame::ListCollections)? {
        Frame::ListCollectionsReply(entries) => Ok(entries.into_iter().map(|e| e.name).collect()),
        other => Err(protocol_surprise("ListCollectionsReply", &other)),
    }
}

/// Follower-side progress for one collection.
struct SyncState {
    /// The sealed snapshot identity the local replica was built from;
    /// zero until the first bootstrap completes.
    seal: SnapshotId,
    /// Next log byte to request: everything below applied cleanly.
    applied: u64,
    /// Accumulates snapshot bytes during bootstrap.
    pending: Vec<u8>,
    /// The seal the pending bytes belong to.
    pending_seal: SnapshotId,
    /// True once the local replica is installed and serving reads.
    installed: bool,
}

impl SyncState {
    fn fresh() -> Self {
        Self {
            seal: SnapshotId { len: 0, crc: 0 },
            applied: 0,
            pending: Vec::new(),
            pending_seal: SnapshotId { len: 0, crc: 0 },
            installed: false,
        }
    }

    /// Forgets all replication progress (the local replica, if
    /// installed, keeps serving stale reads until the re-bootstrap
    /// atomically replaces it).
    fn reset_progress(&mut self) {
        self.seal = SnapshotId { len: 0, crc: 0 };
        self.applied = 0;
        self.pending.clear();
        self.pending_seal = SnapshotId { len: 0, crc: 0 };
    }
}

/// The per-collection sync loop: bootstrap, then tail the log, acking
/// applied offsets; on any divergence fall back to a full re-bootstrap.
/// Exits when the service stops, the role flips to primary, or the
/// upstream drops the collection (taking the local replica with it).
fn run_sync(ctx: FollowerCtx, name: String) {
    let mut state = SyncState::fresh();
    let wire_name: WireName = name.as_bytes().to_vec();
    'reconnect: while ctx.running() {
        let mut stream = match dial_upstream(&ctx) {
            Ok(stream) => stream,
            Err(_) => {
                if !ctx.pause(RECONNECT_PAUSE) {
                    return;
                }
                continue 'reconnect;
            }
        };
        while ctx.running() {
            // Mid-bootstrap (or never bootstrapped) pulls go through
            // ReplicaHello, which carries the snapshot transfer offset;
            // steady-state pulls are the cheaper ReplicaAck.
            let request = if state.seal == state.pending_seal && state.applied >= WAL_SEALED_LEN {
                Frame::ReplicaAck {
                    collection: wire_name.clone(),
                    seal_len: state.seal.len,
                    seal_crc: state.seal.crc,
                    applied_offset: state.applied,
                }
            } else {
                Frame::ReplicaHello {
                    collection: wire_name.clone(),
                    seal_len: state.pending_seal.len,
                    seal_crc: state.pending_seal.crc,
                    snapshot_offset: state.pending.len() as u64,
                    log_offset: state.applied,
                }
            };
            let reply = match exchange(&ctx, &mut stream, &request) {
                Ok(reply) => reply,
                Err(FrameReadError::Stopped) => return,
                Err(_) => {
                    if !ctx.pause(RECONNECT_PAUSE) {
                        return;
                    }
                    continue 'reconnect;
                }
            };
            match reply {
                Frame::SnapshotChunk { seal_len, seal_crc, offset, total_len, bytes } => {
                    let seal = SnapshotId { len: seal_len, crc: seal_crc };
                    if seal != state.pending_seal || offset != state.pending.len() as u64 {
                        // New target (primary re-sealed) or a resumption
                        // mismatch: restart the transfer from zero.
                        state.reset_progress();
                        state.pending_seal = seal;
                        if offset != 0 {
                            continue; // re-pull from offset 0
                        }
                    }
                    state.pending.extend_from_slice(&bytes);
                    if state.pending.len() as u64 >= total_len
                        && !install_pending(&ctx, &name, &mut state)
                    {
                        // Verification failed — the transfer was
                        // damaged; start over.
                        state.reset_progress();
                    }
                }
                Frame::WalSegment { seal_len, seal_crc, start_offset, log_len, bytes } => {
                    let seal = SnapshotId { len: seal_len, crc: seal_crc };
                    if seal != state.seal || start_offset != state.applied {
                        // The primary answered for a different log
                        // generation than we hold: re-bootstrap.
                        state.reset_progress();
                        continue;
                    }
                    if bytes.is_empty() || state.applied >= log_len {
                        // Caught up: breathe before the next poll.
                        if !ctx.pause(CAUGHT_UP_PAUSE) {
                            return;
                        }
                        continue;
                    }
                    if !apply_segment(&ctx, &name, &mut state, &bytes) {
                        // Divergence: forget progress, re-bootstrap.
                        state.reset_progress();
                    }
                }
                Frame::Error { code: ErrorCode::UnknownCollection, .. } => {
                    // Dropped upstream: drop the local replica and let
                    // the manager respawn us if the name returns.
                    let _ = ctx.catalog.drop_collection(&name);
                    return;
                }
                Frame::Error { .. } => {
                    // Transient primary-side trouble (resealing, read
                    // failure): back off and re-pull.
                    if !ctx.pause(RECONNECT_PAUSE) {
                        return;
                    }
                }
                other => {
                    let _ = protocol_surprise("WalSegment or SnapshotChunk", &other);
                    continue 'reconnect;
                }
            }
        }
    }
}

/// Verifies and installs a completed snapshot transfer; true on success.
/// Installation is an atomic catalog swap — reads against a previous
/// replica generation never observe a missing collection.
fn install_pending(ctx: &FollowerCtx, name: &str, state: &mut SyncState) -> bool {
    if snapshot_id(&state.pending) != state.pending_seal {
        return false;
    }
    let loaded = ppann_core::load_snapshot_bytes(&state.pending);
    state.pending = Vec::new();
    let db = match loaded {
        Ok((_, db)) => db,
        Err(_) => return false,
    };
    if ctx.catalog.install_replica(name, db).is_err() {
        return false;
    }
    state.seal = state.pending_seal;
    state.applied = WAL_SEALED_LEN;
    state.installed = true;
    true
}

/// Applies every whole record in a shipped segment, advancing `applied`
/// past each one; a torn tail is discarded (the next ack re-requests
/// it). False means the stream diverged and the caller re-bootstraps.
fn apply_segment(ctx: &FollowerCtx, name: &str, state: &mut SyncState, bytes: &[u8]) -> bool {
    let Some(coll) = ctx.catalog.get(name) else {
        return false;
    };
    let mut off = 0usize;
    while let Some((record, next)) = decode_record_at(bytes, off) {
        if coll.apply_replicated(record).is_err() {
            return false;
        }
        state.applied += (next - off) as u64;
        off = next;
    }
    // Anything after `off` is a torn or corrupt tail: deliberately not
    // counted as applied, so the next pull fetches it again whole.
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppann_core::{DurabilityOptions, EncryptedDatabase, FsyncPolicy};
    use ppann_dce::DceCiphertext;
    use std::cell::Cell;

    thread_local! {
        /// File bytes [`read_at`] has read on this thread.
        pub(super) static BYTES_READ: Cell<u64> = const { Cell::new(0) };
    }

    /// Runs one pull, returning the file bytes it read and its reply.
    fn counted_pull(
        coll: &Collection,
        seal: SnapshotId,
        snapshot_offset: Option<u64>,
        log_offset: u64,
    ) -> (u64, Frame) {
        BYTES_READ.with(|n| n.set(0));
        let reply = serve_pull(coll, seal, snapshot_offset, log_offset).expect("pull answered");
        (BYTES_READ.with(Cell::get), reply)
    }

    const DIM: usize = 292;

    /// A synthetic row of a dim-292 collection: the SAP vector and 4 ×
    /// 600-wide DCE components (`ciphertext_dim(292)`, 19 KiB), so a few
    /// hundred rows span several snapshot chunks.
    fn row(i: usize) -> (Vec<f64>, DceCiphertext) {
        let x = i as f64;
        let comp = |k: f64| (0..600).map(|j| x + k + j as f64).collect::<Vec<f64>>();
        let sap = (0..DIM).map(|j| (x * 0.5 + j as f64).sin()).collect();
        (sap, DceCiphertext::from_components(comp(0.1), comp(0.2), comp(0.3), comp(0.4)))
    }

    /// Bootstrap cost is linear: each snapshot pull reads one chunk from
    /// the pinned handle, and each log pull reads the sealed header plus
    /// one segment from the follower's offset, however large the files.
    #[test]
    fn each_pull_reads_at_most_one_chunk_plus_the_header() {
        let dir = std::env::temp_dir().join(format!("ppanns_pull_reads_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = EncryptedDatabase::empty(DIM);
        for i in 0..300 {
            let (sap, dce) = row(i);
            db.insert(sap, dce);
        }
        let opts = DurabilityOptions { fsync: FsyncPolicy::Never, compact_bytes: u64::MAX };
        let catalog = Catalog::new();
        let coll = catalog.create_durable("big", db, &dir, opts).unwrap();
        let src = coll.replication_source().unwrap();
        assert!(src.seal.len > 4 * SNAPSHOT_CHUNK_BYTES as u64, "snapshot spans several chunks");

        let header = WAL_SEALED_LEN;
        let mut pending = Vec::new();
        let mut pull_seal = SnapshotId { len: 0, crc: 0 };
        while (pending.len() as u64) < src.seal.len {
            let (read, reply) = counted_pull(&coll, pull_seal, Some(pending.len() as u64), 0);
            assert!(
                read <= SNAPSHOT_CHUNK_BYTES as u64 + header,
                "snapshot pull read {read} bytes"
            );
            let Frame::SnapshotChunk { seal_len, seal_crc, offset, bytes, .. } = reply else {
                panic!("expected a snapshot chunk, got {reply:?}");
            };
            assert_eq!(offset, pending.len() as u64);
            pull_seal = SnapshotId { len: seal_len, crc: seal_crc };
            pending.extend_from_slice(&bytes);
        }
        assert_eq!(snapshot_id(&pending), src.seal);
        assert_eq!(pending, std::fs::read(&src.snapshot_path).unwrap());

        for i in 300..420 {
            let (sap, dce) = row(i);
            coll.insert(sap, dce).unwrap();
        }
        let log = std::fs::read(wal_path_for(&src.snapshot_path)).unwrap();
        assert!(log.len() > 2 * SEGMENT_MAX_BYTES, "log spans several segments");
        let mut shipped = Vec::new();
        let mut offset = WAL_SEALED_LEN;
        while offset < log.len() as u64 {
            let (read, reply) = counted_pull(&coll, src.seal, None, offset);
            assert!(read <= SEGMENT_MAX_BYTES as u64 + header, "log pull read {read} bytes");
            let Frame::WalSegment { start_offset, bytes, .. } = reply else {
                panic!("expected a log segment, got {reply:?}");
            };
            assert_eq!(start_offset, offset);
            assert!(!bytes.is_empty());
            offset += bytes.len() as u64;
            shipped.extend_from_slice(&bytes);
        }
        assert_eq!(shipped, log[WAL_SEALED_LEN as usize..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn role_flips_once_and_stays() {
        let role = ReplicationRole::follower();
        assert!(!role.is_primary());
        role.promote();
        assert!(role.is_primary());
        role.promote();
        assert!(role.is_primary());
    }

    #[test]
    fn fresh_sync_state_asks_for_a_bootstrap() {
        let state = SyncState::fresh();
        // seal == pending_seal but applied < WAL_SEALED_LEN: the pull
        // loop sends ReplicaHello, which the primary answers with a
        // bootstrap because the zero seal can never match a real one.
        assert!(state.applied < WAL_SEALED_LEN);
        assert!(!state.installed);
    }
}
