//! The readiness-driven TCP server: one epoll reactor, N workers.
//!
//! ```text
//! reactor thread ── owns: TcpListener · epoll set · eventfd waker
//!      │                  token→conn registry · deadline heap
//!      │   accept → register (EPOLLIN | EPOLLET | EPOLLONESHOT)
//!      │   readiness event → push conn onto the ready queue
//!      ▼
//! ReadyQueue ◄──────────── requeue (more frames already buffered)
//!      │
//! N worker threads: pop a ready connection, flush its buffered
//!      │  replies, reassemble frames from non-blocking reads, answer
//!      ▼  at most ONE request, hand the connection back
//! Catalog ── "default"  → collection (one CloudServer)
//!        ├── "products" → collection      searches: shared lock
//!        └── "docs"     → collection      batches: BatchExecutor fan-out
//!                                         maintenance: exclusive lock
//! ```
//!
//! An idle parked connection costs *nothing*: it sits armed in the epoll
//! set and is never visited until bytes arrive or its deadline passes —
//! unlike the previous peek-rotation pool, where every worker paid one
//! probe syscall per parked connection per pass. Workers only ever touch
//! connections the kernel reported ready, answer exactly one request per
//! wake (so a chatty pipelining peer cannot starve the rest), and never
//! block on a peer: partial frames accumulate in a per-connection
//! [`FrameAssembler`](crate::io::FrameAssembler), partial replies in a
//! write buffer flushed on writability. See DESIGN.md §7 for why
//! edge-triggered + one-shot rearm is the storm-free discipline.
//!
//! One process serves a whole [`Catalog`] of named collections: every
//! request frame routes to one collection — a legacy nameless (version-1)
//! frame to `"default"`, a version-2 frame to the collection it names —
//! and each collection is one `CloudServer` behind a read-write lock, so
//! collections of different dimensionalities serve side by side. Per
//! collection, concurrent `Search` frames share the lock and
//! `Insert`/`Delete` take it exclusively. The single-server [`serve`]
//! entry point is a one-collection catalog.
//!
//! With [`ServiceConfig::data_dir`] set, the catalog is disk-backed and
//! crash-safe: `CreateCollection` writes an empty `<name>.ppdb` snapshot
//! plus a sealed `<name>.wal` write-ahead log before the collection goes
//! live, every acknowledged `Insert`/`Delete` is appended to the log
//! (synced per [`ServiceConfig::fsync`]) *before* it is applied, and
//! `DropCollection` deletes both files. A restart
//! (`ppanns-cli serve --data-dir`) reloads each snapshot and replays its
//! log, so no acknowledged mutation is lost to a crash — see DESIGN.md
//! §5 for the recovery protocol and OPERATIONS.md §9 for the durability
//! knobs.
//!
//! Liveness guards, all configurable on [`ServiceConfig`] and all
//! enforced by the reactor's deadline heap (they bind *parked*
//! connections; a checked-out connection never blocks its worker):
//!
//! * `handshake_timeout` — a fresh connection must deliver its `Hello`
//!   within this deadline or it is dropped.
//! * `idle_timeout` — an established connection idle this long is
//!   dropped (reclaims the file descriptor; it never holds a worker).
//! * `frame_timeout` — once the first byte of a frame has arrived, the
//!   whole frame must arrive within this deadline (bounds slow-loris
//!   peers that drip one byte per poll); a peer that stops reading its
//!   buffered replies is dropped by the same deadline.
//! * `max_connections` — live-connection cap, enforced at accept time.
//! * `max_search_k` — upper bound on the `Search` knobs `k`/`k_prime`/
//!   `ef_search`, which size server-side allocations and work.
//! * `max_batch` — upper bound on queries per `SearchBatch` frame; with
//!   `max_search_k` it caps the total work one frame can demand, and it
//!   bounds how long one batch holds the worker answering it.
//!
//! Graceful shutdown: an owner-authenticated `Shutdown` frame (or
//! [`ServiceHandle::request_stop`]) raises a flag and wakes the reactor;
//! the reactor stops accepting, closes every parked socket, and releases
//! the workers, which finish the request they are answering and exit.
//!
//! See `PROTOCOL.md` for the wire format and OPERATIONS.md §2 for
//! sizing the reactor + worker deployment.

use crate::reactor::{deadline_after, Command, Conn, ConnState, Interest, Reactor, Shared};
use crate::replication::{self, FollowerCtx, ReplicationRole};
use crate::wire::{
    CollectionEntry, ErrorCode, Frame, WireName, COLLECTION_KIND_CLOUD, DEFAULT_MAX_FRAME,
};
use bytes::BytesMut;
use ppann_core::catalog::{validate_collection_name, Catalog, Collection};
use ppann_core::wal::SnapshotId;
use ppann_core::{
    BatchExecutor, CloudServer, DurabilityOptions, DurableCatalogError, EncryptedDatabase,
    EncryptedQuery, FsyncPolicy, MutationError, PersistError, QueryScratch, SearchParams,
    ServiceStats, DEFAULT_COLLECTION, DEFAULT_COMPACT_BYTES,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-chunk size for draining a ready socket into its assembler.
const READ_CHUNK: usize = 64 * 1024;

/// Cap on bytes pulled off one connection per wake. A peer streaming
/// pipelined requests faster than they are served is requeued behind
/// everyone else instead of monopolizing its worker's read loop.
const MAX_READ_PER_WAKE: usize = 1 << 20;

/// High-water mark for a worker's persistent reply-encode buffer: the
/// buffer grows to the largest reply the worker has staged and stays
/// there (zero-allocation steady state), but one giant batch reply must
/// not pin megabytes per worker forever — above this capacity the
/// buffer is released after the wake and regrown on demand.
const ENCODE_HIGH_WATER: usize = 1 << 20;

/// Everything one worker thread keeps warm across the requests it
/// answers (DESIGN.md §6): the backend's pooled query scratch, the
/// reply-encode staging buffer, and the worker's last report to the
/// process-wide `scratch_bytes` gauge.
#[derive(Default)]
struct WorkerScratch {
    /// Filter-and-refine buffers handed to `Collection::search_in`.
    query: QueryScratch,
    /// Reply-payload staging for `Frame::encode_with` — grow-only until
    /// [`ENCODE_HIGH_WATER`].
    encode: BytesMut,
    /// Resident bytes last pushed to the gauge (delta bookkeeping).
    reported: u64,
}

impl WorkerScratch {
    /// Post-wake bookkeeping: shrink the encode buffer above the
    /// high-water mark, then move the `scratch_bytes` gauge by this
    /// worker's delta.
    fn settle(&mut self, stats: &ServiceStats) {
        if self.encode.capacity() > ENCODE_HIGH_WATER {
            self.encode = BytesMut::new();
        }
        let now = (self.query.resident_bytes() + self.encode.capacity()) as u64;
        if now != self.reported {
            stats.update_scratch_bytes(self.reported, now);
            self.reported = now;
        }
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an OS-assigned port (tests do).
    pub addr: String,
    /// Worker threads, i.e. requests served concurrently. Connections
    /// are parked in the reactor's epoll set, so this does not cap how
    /// many clients may stay connected — `max_connections` does.
    pub workers: usize,
    /// Maximum accepted frame payload in bytes; larger frames are refused
    /// with an error frame before any allocation.
    pub max_frame: u32,
    /// Shared secret for `Insert`/`Delete`/`Shutdown` and the
    /// collection-management frames (`CreateCollection`/`DropCollection`).
    /// `None` disables remote maintenance, catalog changes and shutdown
    /// entirely. This stands in for real channel authentication (mTLS
    /// etc. — DESIGN.md §7); it gates *mutation*, not confidentiality,
    /// which the ciphertexts provide on their own.
    pub owner_token: Option<u64>,
    /// Snapshot directory backing the catalog lifecycle: when set,
    /// `CreateCollection` persists an empty `<name>.ppdb` snapshot plus a
    /// sealed `<name>.wal` write-ahead log before the collection goes
    /// live, every acknowledged `Insert`/`Delete` is appended to the log
    /// before it is applied, and `DropCollection` removes both files.
    /// `None` keeps the whole catalog in-memory-only.
    pub data_dir: Option<PathBuf>,
    /// When the WAL is synced to stable storage (only meaningful with
    /// `data_dir` set). `Always` fsyncs before every mutation ack — an
    /// acked mutation survives power loss. `EveryN(n)` fsyncs every n-th
    /// append — an ack means "logged", and up to n-1 tail mutations may
    /// vanish on power loss (not on process crash: the OS still has the
    /// write). `Never` leaves flushing entirely to the OS. See
    /// OPERATIONS.md §9 for the tradeoffs.
    pub fsync: FsyncPolicy,
    /// WAL size that triggers a compaction: once a collection's log
    /// exceeds this many bytes after a mutation, the collection is
    /// re-snapshotted and the log restarts empty (OPERATIONS.md §9).
    pub compact_bytes: u64,
    /// How long a fresh connection may take to send its `Hello`.
    pub handshake_timeout: Duration,
    /// How long an established connection may sit idle between frames
    /// before it is dropped. Parked connections cost no CPU at all under
    /// the reactor, so this reclaims file descriptors, not threads — it
    /// can stay generous.
    pub idle_timeout: Duration,
    /// Once a frame's first byte has arrived, the rest must arrive within
    /// this deadline; a peer that stops draining its buffered replies is
    /// dropped under the same deadline. Bounds slow-loris senders and
    /// never-reading receivers alike.
    pub frame_timeout: Duration,
    /// Live-connection cap; accepts beyond it are dropped immediately.
    pub max_connections: usize,
    /// Upper bound accepted for the `Search` knobs `k` (in
    /// `EncryptedQuery`), `k_prime` and `ef_search` (in `SearchParams`).
    /// All three size server-side allocations and work, and all three
    /// arrive as attacker-controlled integers — requests exceeding the
    /// bound get [`ErrorCode::BadRequest`].
    pub max_search_k: usize,
    /// Upper bound on queries per `SearchBatch` frame. Together with
    /// `max_search_k` this caps the total work one frame can demand
    /// (`max_batch × max_search_k` knob-sized searches); a batch above the
    /// bound — or an empty one — gets [`ErrorCode::BadRequest`]. It also
    /// bounds how long one batch occupies the worker answering it — the
    /// other workers keep consuming the ready queue meanwhile, so a giant
    /// batch cannot starve keep-alive peers.
    pub max_batch: usize,
    /// Upstream primary address to replicate from. When set, this
    /// process starts as a **follower**: it continuously pulls every
    /// upstream collection's snapshot and WAL stream, serves
    /// `Search`/`SearchBatch`/`Stats` against the replicas, and refuses
    /// mutating frames with [`ErrorCode::NotPrimary`] until an
    /// owner-authenticated `Promote` frame flips the role. Follower
    /// replicas are in-memory: a restarted follower resyncs from its
    /// upstream (OPERATIONS.md §10).
    pub replicate_from: Option<String>,
}

impl ServiceConfig {
    /// Loopback defaults: OS-assigned port, 4 workers, maintenance off.
    pub fn loopback() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            owner_token: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            compact_bytes: DEFAULT_COMPACT_BYTES,
            handshake_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(120),
            frame_timeout: Duration::from_secs(30),
            max_connections: 1024,
            max_search_k: 1 << 16,
            max_batch: 1024,
            replicate_from: None,
        }
    }

    /// Replaces the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Replaces the worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the per-frame batch size bound (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Enables owner maintenance under `token`.
    pub fn with_owner_token(mut self, token: u64) -> Self {
        self.owner_token = Some(token);
        self
    }

    /// Backs the catalog lifecycle with a snapshot directory (see
    /// [`Self::data_dir`]).
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Replaces the WAL fsync policy (see [`Self::fsync`]).
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Replaces the WAL compaction threshold (see [`Self::compact_bytes`],
    /// clamped to ≥ 1 so compaction can never be armed on every append).
    pub fn with_compact_bytes(mut self, compact_bytes: u64) -> Self {
        self.compact_bytes = compact_bytes.max(1);
        self
    }

    /// The durability knobs bundled the way the catalog takes them.
    pub fn durability(&self) -> DurabilityOptions {
        DurabilityOptions { fsync: self.fsync, compact_bytes: self.compact_bytes }
    }

    /// Replaces the frame size limit.
    pub fn with_max_frame(mut self, max_frame: u32) -> Self {
        self.max_frame = max_frame;
        self
    }

    /// Replaces the handshake and idle deadlines.
    pub fn with_timeouts(mut self, handshake: Duration, idle: Duration) -> Self {
        self.handshake_timeout = handshake;
        self.idle_timeout = idle;
        self
    }

    /// Replaces the per-frame receive/write deadline.
    pub fn with_frame_timeout(mut self, frame_timeout: Duration) -> Self {
        self.frame_timeout = frame_timeout;
        self
    }

    /// Replaces the live-connection cap (clamped to ≥ 1).
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Replaces the search-knob bound (clamped to ≥ 1).
    pub fn with_max_search_k(mut self, max_search_k: usize) -> Self {
        self.max_search_k = max_search_k.max(1);
        self
    }

    /// Starts this process as a replication follower of `upstream`
    /// (see [`Self::replicate_from`]).
    pub fn with_replicate_from(mut self, upstream: impl Into<String>) -> Self {
        self.replicate_from = Some(upstream.into());
        self
    }
}

/// What every worker shares: the catalog, the configuration, this
/// listener's process-wide counters, the reactor handle and the
/// replication role.
struct Service {
    catalog: Arc<Catalog>,
    config: ServiceConfig,
    /// The `SearchBatch` fan-out width (clamped to the batch size by
    /// `BatchExecutor`): the worker count capped at the host's available
    /// parallelism — fanning one batch wider than the cores only adds
    /// context-switching, which on a small host makes batches *slower*
    /// than sequential frames (OPERATIONS.md §7). Read once at start:
    /// the parallelism query reads cgroup files.
    batch_threads: usize,
    stats: Arc<ServiceStats>,
    shared: Arc<Shared>,
    role: Arc<ReplicationRole>,
}

/// A running service: bound address, shared counters, join/stop control.
///
/// Dropping the handle requests a stop and joins all threads, so a test
/// (or a panicking caller) never leaks the listener.
pub struct ServiceHandle {
    addr: SocketAddr,
    svc: Arc<Service>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live service counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.svc.stats
    }

    /// The served catalog, shared with the workers: collections created
    /// or dropped over the wire are visible here immediately, and one
    /// created or dropped here is served or refused from the next frame.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.svc.catalog
    }

    /// Total live vectors across every served collection.
    pub fn live(&self) -> u64 {
        self.svc.catalog.total_live() as u64
    }

    /// True when this process accepts mutations (started without
    /// `replicate_from`, or promoted since).
    pub fn is_primary(&self) -> bool {
        self.svc.role.is_primary()
    }

    /// The replication role handle (shared with the worker pool and the
    /// follower sync threads). [`ReplicationRole::promote`] here is the
    /// in-process equivalent of an owner-authenticated `Promote` frame.
    pub fn role(&self) -> &Arc<ReplicationRole> {
        &self.svc.role
    }

    /// Raises the stop flag and wakes the reactor: stop accepting, close
    /// parked connections, drain, exit. Returns immediately; pair with
    /// [`Self::join`] to wait.
    pub fn request_stop(&self) {
        self.svc.shared.request_stop();
    }

    /// True once a stop was requested (locally or via a `Shutdown` frame).
    pub fn stop_requested(&self) -> bool {
        self.svc.shared.stopping()
    }

    /// Waits for the reactor and every worker to exit.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.request_stop();
        self.join_inner();
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("addr", &self.addr)
            .field("stopping", &self.stop_requested())
            .finish_non_exhaustive()
    }
}

/// What to do with a connection after one answered request.
enum ConnFate {
    /// Still healthy: keep serving it.
    Keep,
    /// Finish up: flush buffered replies, then close.
    Close,
}

/// The verdict of one worker wake.
enum Wake {
    /// More complete frames (or possibly-unread bytes) are pending:
    /// hand the connection straight back to the ready queue, *without*
    /// rearming epoll — it is still checked out, so no second worker
    /// can race us, and peers already waiting get served in between.
    Requeue,
    /// Nothing serveable until the kernel reports readiness again: park
    /// via the reactor with this interest and deadline.
    Park(Interest, Instant),
    /// Done: deregister and drop.
    Close,
}

/// Binds the listener and spawns the reactor plus worker pool over one
/// server, served as the one-collection catalog `{"default"}` — the
/// legacy entry point, byte-compatible with version-1 clients. Returns
/// once the socket is bound; serving continues in the background until a
/// shutdown is requested. [`ServiceHandle::catalog`] reaches the served
/// collection in-process.
pub fn serve(server: CloudServer, config: ServiceConfig) -> std::io::Result<ServiceHandle> {
    let catalog = Catalog::new();
    catalog
        .create(DEFAULT_COLLECTION, server.into_database())
        .expect("fresh catalog cannot refuse the default collection");
    serve_catalog(Arc::new(catalog), config)
}

/// Binds the listener and spawns the reactor plus worker pool over a
/// whole [`Catalog`]: one process, many named collections of any
/// dimensionalities. Nameless (version-1) frames route
/// to the `"default"` collection when the catalog holds one.
pub fn serve_catalog(
    catalog: Arc<Catalog>,
    config: ServiceConfig,
) -> std::io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stats = Arc::new(ServiceStats::new());
    let shared = Arc::new(Shared::new(Arc::clone(&stats))?);
    let workers = config.workers.max(1);
    let role = match &config.replicate_from {
        Some(_) => ReplicationRole::follower(),
        None => ReplicationRole::primary(),
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch_threads = workers.min(cores);
    let svc =
        Arc::new(Service { catalog, config: config.clone(), batch_threads, stats, shared, role });

    let mut threads = Vec::with_capacity(workers + 2);
    for _ in 0..workers {
        let svc = Arc::clone(&svc);
        threads.push(std::thread::spawn(move || {
            let mut ws = WorkerScratch::default();
            while let Some(conn) = svc.shared.ready.pop(&svc.stats) {
                serve_wake(&conn, &mut ws, &svc);
                ws.settle(&svc.stats);
            }
            // Retire this worker's contribution from the gauge.
            svc.stats.update_scratch_bytes(ws.reported, 0);
        }));
    }

    if let Some(upstream) = &config.replicate_from {
        // The follower machinery: one manager thread polling the
        // upstream catalog, one sync thread per collection. All of them
        // observe the shared stop flag and the role, so `request_stop`
        // (or a promotion) winds them down; `join` collects them here.
        threads.push(replication::spawn_follower(FollowerCtx {
            upstream: upstream.clone(),
            catalog: Arc::clone(&svc.catalog),
            role: Arc::clone(&svc.role),
            shared: Arc::clone(&svc.shared),
            max_frame: config.max_frame,
        }));
    }

    let reactor = Reactor::new(
        listener,
        Arc::clone(&svc.shared),
        config.max_connections,
        config.max_frame,
        config.handshake_timeout,
    )?;
    threads.push(std::thread::spawn(move || reactor.run()));

    Ok(ServiceHandle { addr, svc, threads })
}

/// One worker wake: drive the connection as far as one answered request
/// allows, then hand it back — to the ready queue, to the reactor, or to
/// the grave.
fn serve_wake(conn: &Arc<Conn>, ws: &mut WorkerScratch, svc: &Service) {
    let verdict = {
        let mut state = conn.state.lock();
        drive(conn, &mut state, ws, svc)
    };
    let (stats, shared) = (&svc.stats, &svc.shared);
    match verdict {
        Wake::Requeue => {
            if let Err(conn) = shared.ready.push(Arc::clone(conn), stats) {
                // Queue closed for shutdown: dispose of our checkout.
                stats.conns_active_sub(1);
                drop(conn);
            }
        }
        Wake::Park(interest, deadline) => {
            shared.send(Command::Rearm { conn: Arc::clone(conn), interest, deadline });
        }
        Wake::Close => {
            shared.send(Command::Close { conn: Arc::clone(conn) });
        }
    }
}

/// The per-wake state machine, run under the connection's state lock.
fn drive(conn: &Conn, st: &mut ConnState, ws: &mut WorkerScratch, svc: &Service) -> Wake {
    let (config, stats, shared) = (&svc.config, &*svc.stats, &*svc.shared);
    // Step 1: move buffered reply bytes toward the kernel. A connection
    // with replies still pending after the flush serves nothing new —
    // that is the backpressure that stops a peer from pipelining fresh
    // work while refusing to take answers.
    if flush(conn, st).is_err() {
        return Wake::Close;
    }
    if st.closing {
        return finish_closing(conn, st, config, shared);
    }
    if st.pending_write() > 0 {
        return Wake::Park(Interest::Write, write_deadline(st, config));
    }

    // Step 2: obtain the next complete frame, reading edge-triggered
    // chunks into the assembler as needed. The loop ends this wake with
    // a frame, a park (nothing serveable), or a close (EOF/error).
    let mut saw_wouldblock = false;
    let mut saw_eof = false;
    let mut read_total = 0usize;
    let (frame, wire_bytes) = loop {
        match st.assembler.poll_frame() {
            Ok(Some(pair)) => break pair,
            Ok(None) => {}
            Err(e) => {
                // Framing violation: answer, then close — byte-positional
                // framing has no resynchronization point.
                let refusal = (e.error_code(), e.to_string());
                send_reply(&mut st.write_buf, &mut ws.encode, stats, None, Err(refusal));
                st.closing = true;
                return finish_closing(conn, st, config, shared);
            }
        }
        if saw_eof {
            // Peer closed with no complete frame left: a clean boundary
            // closes cleanly, a torn partial is abandoned the same way
            // (there is nobody left to answer).
            return Wake::Close;
        }
        if read_total >= MAX_READ_PER_WAKE {
            // Yield to other ready connections; bytes still in the
            // kernel re-surface on the next wake because the connection
            // is requeued, not rearmed.
            note_partial(st);
            return Wake::Requeue;
        }
        if saw_wouldblock {
            // Kernel drained, frame incomplete: park for more bytes.
            note_partial(st);
            return Wake::Park(Interest::Read, read_deadline(st, config));
        }
        let mut buf = [0u8; READ_CHUNK];
        match (&conn.stream).read(&mut buf) {
            Ok(0) => saw_eof = true,
            Ok(n) => {
                st.assembler.extend(&buf[..n]);
                read_total += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => saw_wouldblock = true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Wake::Close,
        }
    };
    st.partial_since = None;
    stats.add_bytes_in(wire_bytes as u64);

    // Step 3: answer exactly one request. A panic while serving must not
    // take the worker down with it (the vendored lock recovers from
    // poisoning, so the backend stays serviceable too); tell the peer it
    // hit a server bug, not a network failure.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_frame(st, ws, frame, wire_bytes as u64, svc)
    }));
    let fate = match outcome {
        Ok(fate) => fate,
        Err(_) => {
            // The panic may have left the worker scratch mid-handoff
            // (buffers taken, partial contents) — drop it for a fresh
            // one; the determinism contract needs valid, not clean,
            // state, and a poisoned buffer must not serve the next peer.
            *ws = WorkerScratch { reported: ws.reported, ..WorkerScratch::default() };
            let refusal = (ErrorCode::Internal, "server failed while answering".into());
            send_reply(&mut st.write_buf, &mut ws.encode, stats, None, Err(refusal));
            ConnFate::Close
        }
    };

    // Step 4: flush the reply and decide the connection's next home.
    if flush(conn, st).is_err() {
        return Wake::Close;
    }
    match fate {
        ConnFate::Close => {
            st.closing = true;
            finish_closing(conn, st, config, shared)
        }
        ConnFate::Keep => {
            if st.pending_write() > 0 {
                // Reply partially buffered: wait for writability, and do
                // not serve pipelined successors until the peer drains.
                Wake::Park(Interest::Write, write_deadline(st, config))
            } else if st.assembler.frame_pending() || !saw_wouldblock {
                // One request per wake: the next buffered frame (or the
                // bytes still sitting in the kernel) waits its turn
                // behind every other ready connection.
                Wake::Requeue
            } else {
                note_partial(st);
                Wake::Park(Interest::Read, read_deadline(st, config))
            }
        }
    }
}

/// Starts the slow-loris clock when a partial frame is buffered, stops
/// it when the buffer is at a frame boundary.
fn note_partial(st: &mut ConnState) {
    if st.assembler.has_partial() {
        if st.partial_since.is_none() {
            st.partial_since = Some(Instant::now());
        }
    } else {
        st.partial_since = None;
    }
}

/// The deadline for a read-parked connection: `Hello` arrival before the
/// handshake, frame completion while one is partially received, idle
/// reclamation otherwise.
fn read_deadline(st: &ConnState, config: &ServiceConfig) -> Instant {
    if !st.ready {
        return st.handshake_deadline;
    }
    if let Some(since) = st.partial_since {
        return since
            .checked_add(config.frame_timeout)
            .unwrap_or_else(|| deadline_after(config.frame_timeout));
    }
    deadline_after(config.idle_timeout)
}

/// The deadline for a write-parked connection: `frame_timeout` from the
/// moment the reply bytes first failed to flush — a peer that never
/// reads loses the connection, without ever blocking a worker.
fn write_deadline(st: &mut ConnState, config: &ServiceConfig) -> Instant {
    let since = *st.write_since.get_or_insert_with(Instant::now);
    since.checked_add(config.frame_timeout).unwrap_or_else(|| deadline_after(config.frame_timeout))
}

/// Drives a closing connection: flush the goodbye, then close. During
/// service shutdown the reactor may already be gone, so the flush happens
/// here, bounded and blocking-by-retry, instead of through a rearm.
fn finish_closing(
    conn: &Conn,
    st: &mut ConnState,
    config: &ServiceConfig,
    shared: &Shared,
) -> Wake {
    if flush(conn, st).is_err() {
        return Wake::Close;
    }
    if st.pending_write() == 0 {
        return Wake::Close;
    }
    if shared.stopping() {
        let deadline = deadline_after(config.frame_timeout.min(Duration::from_secs(2)));
        while st.pending_write() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            if flush(conn, st).is_err() {
                break;
            }
        }
        return Wake::Close;
    }
    Wake::Park(Interest::Write, write_deadline(st, config))
}

/// Non-blocking flush of the reply buffer; the buffer is compacted when
/// it drains (common case) or when the dead prefix grows large. `Err`
/// means the peer is unwritable and the connection should close.
fn flush(conn: &Conn, st: &mut ConnState) -> std::io::Result<()> {
    while st.write_pos < st.write_buf.len() {
        match (&conn.stream).write(&st.write_buf[st.write_pos..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer accepted zero bytes",
                ))
            }
            Ok(n) => st.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if st.write_pos == st.write_buf.len() {
        st.write_buf.clear();
        st.write_pos = 0;
        st.write_since = None;
    } else {
        if st.write_pos >= READ_CHUNK {
            st.write_buf.drain(..st.write_pos);
            st.write_pos = 0;
        }
        st.write_since.get_or_insert_with(Instant::now);
    }
    Ok(())
}

/// A refused request: the code and message of the `Error` frame that
/// answers it.
type Refusal = (ErrorCode, String);

fn bad_request(message: impl Into<String>) -> Refusal {
    (ErrorCode::BadRequest, message.into())
}

/// Decodes and validates an owner-supplied collection name for the
/// catalog-management frames (stricter than `Request::route`: no
/// default fallback, existence is checked by the caller).
fn decode_name(name: &[u8]) -> Result<&str, Refusal> {
    let name =
        std::str::from_utf8(name).map_err(|_| bad_request("collection name is not UTF-8"))?;
    validate_collection_name(name).map_err(|e| bad_request(e.to_string()))?;
    Ok(name)
}

/// Bound on the owner-supplied `CreateCollection` dimensionality: it
/// arrives as an attacker-reachable integer (behind the owner token) and
/// sizes server-side structures, so it is checked before anything is
/// built.
const MAX_CREATE_DIM: u64 = 1 << 16;

/// The body of `CreateCollection`. `Err` is the error frame to answer
/// with.
fn create_collection(
    catalog: &Catalog,
    config: &ServiceConfig,
    name: &str,
    dim: u64,
) -> Result<(), Refusal> {
    let db = EncryptedDatabase::empty(dim as usize);
    let Some(dir) = &config.data_dir else {
        // In-memory-only catalog: reserve the name, nothing to persist.
        return catalog.create(name, db).map(|_| ()).map_err(|e| bad_request(e.to_string()));
    };
    // Disk-backed catalog: `create_durable` reserves the name, then
    // writes the empty snapshot and its sealed WAL atomically (temp +
    // rename) before the collection becomes visible, rolling both files
    // back on any failure. A crash mid-create loses an un-acked
    // collection on restart, which is the safe direction (the owner
    // never saw an ack).
    match catalog.create_durable(name, db, dir, config.durability()) {
        Ok(_) => Ok(()),
        // Duplicate name — nothing was built, no file was touched.
        Err(DurableCatalogError::Catalog(e)) => Err(bad_request(e.to_string())),
        Err(DurableCatalogError::Persist(e)) => {
            Err((ErrorCode::Internal, format!("collection persist failed: {e}")))
        }
    }
}

/// A refused mutation: a storage failure is the server's (`Internal`),
/// every other refusal is the request's (`BadRequest`).
fn refused(e: MutationError) -> Refusal {
    let code = match e {
        MutationError::Storage(_) => ErrorCode::Internal,
        _ => ErrorCode::BadRequest,
    };
    (code, e.to_string())
}

/// Answers one frame into the connection's write buffer: the handshake
/// `Hello` on a fresh connection, a request after it. Every reply and
/// every refusal leaves through [`send_reply`]. `ConnFate::Close` means
/// flush-then-close (the reply still reaches the peer): a refused
/// handshake and an acknowledged `Shutdown` close.
fn serve_frame(
    st: &mut ConnState,
    ws: &mut WorkerScratch,
    frame: Frame,
    frame_bytes: u64,
    svc: &Service,
) -> ConnFate {
    let mut req = Request { svc, frame_bytes, routed: None };
    let handshake = !st.ready;
    let answer = if handshake { hello(svc, frame) } else { req.answer(frame, &mut ws.query) };
    let shutdown = matches!(answer, Ok(Frame::ShutdownAck));
    st.ready |= answer.is_ok();
    let fate =
        if shutdown || (handshake && answer.is_err()) { ConnFate::Close } else { ConnFate::Keep };
    let routed = req.routed.as_deref().map(Collection::stats);
    send_reply(&mut st.write_buf, &mut ws.encode, &svc.stats, routed, answer);
    if shutdown {
        // Raise the flag *and* wake the reactor so teardown starts now,
        // not at its next deadline.
        svc.shared.request_stop();
    }
    fate
}

/// Handles the first frame of a connection, which must be a `Hello` with
/// a compatible dimensionality. The handshake describes the `"default"`
/// collection — the one nameless frames route to; against a catalog with
/// no default collection the ack reports `dim = 0` (heterogeneous; use
/// `ListCollections`) and the catalog-wide live total, and only a
/// `dim = 0` Hello passes.
fn hello(svc: &Service, frame: Frame) -> Result<Frame, Refusal> {
    let Frame::Hello { dim } = frame else {
        return Err(bad_request("expected Hello first"));
    };
    let default = svc.catalog.default_collection();
    let (served_dim, live) = match &default {
        Some(coll) => (coll.dim() as u64, coll.live_len() as u64),
        None => (0, svc.catalog.total_live() as u64),
    };
    if dim != 0 && dim != served_dim {
        let detail = match default {
            Some(_) => format!("server dim {served_dim}, client dim {dim}"),
            None => format!(
                "no default collection to check dim {dim} against — \
                 send dim 0 and pick a collection by name"
            ),
        };
        return Err((ErrorCode::DimMismatch, detail));
    }
    Ok(Frame::HelloAck { dim: served_dim, live })
}

/// One post-handshake request being answered, and where its accounting
/// goes.
struct Request<'a> {
    svc: &'a Service,
    /// The request frame's wire size.
    frame_bytes: u64,
    /// The collection the request was routed to. From routing on, the
    /// request's bytes, its reply and a refusal count against the
    /// collection's counters as well as process-wide; a refusal before
    /// routing counts process-wide only.
    routed: Option<Arc<Collection>>,
}

impl Request<'_> {
    /// Routes the request to the collection it names (a nameless legacy
    /// frame to `"default"`) with one catalog lookup. `Err` carries the
    /// error frame to answer — malformed names are `BadRequest`,
    /// well-formed-but-absent ones `UnknownCollection`; both keep the
    /// connection open.
    fn route(&mut self, collection: &Option<WireName>) -> Result<Arc<Collection>, Refusal> {
        let name = match collection {
            None => DEFAULT_COLLECTION,
            Some(bytes) => decode_name(bytes)?,
        };
        let coll = self.svc.catalog.get(name).ok_or_else(|| {
            (ErrorCode::UnknownCollection, format!("unknown collection `{name}`"))
        })?;
        coll.stats().add_bytes_in(self.frame_bytes);
        self.routed = Some(Arc::clone(&coll));
        Ok(coll)
    }

    /// The gate of every owner frame: a follower refuses `mutating` ones
    /// outright (reads are never gated — scaling them out is the point),
    /// then the owner token must match.
    fn owner(&self, token: u64, mutating: bool) -> Result<(), Refusal> {
        if mutating && !self.svc.role.is_primary() {
            return Err((
                ErrorCode::NotPrimary,
                "this node is a read-only follower — send writes to the primary".into(),
            ));
        }
        if self.svc.config.owner_token != Some(token) {
            return Err((ErrorCode::Unauthorized, "bad owner token".into()));
        }
        Ok(())
    }

    /// Applies `record` to the process-wide counters and, once routed,
    /// to the collection's.
    fn count(&self, record: impl Fn(&ServiceStats)) {
        record(&self.svc.stats);
        if let Some(coll) = &self.routed {
            record(coll.stats());
        }
    }

    /// Answers one post-handshake request: its reply frame, or the
    /// refusal. `scratch` is the worker's warm query scratch.
    fn answer(&mut self, frame: Frame, scratch: &mut QueryScratch) -> Result<Frame, Refusal> {
        let svc = self.svc;
        let config = &svc.config;
        match frame {
            Frame::Search { collection, params, query } => {
                let coll = self.route(&collection)?;
                validate_query(&query, &params, coll.dim(), config).map_err(bad_request)?;
                let started = Instant::now();
                let outcome = coll.search_in(scratch, &query, &params);
                let elapsed = started.elapsed();
                self.count(|s| s.record_query(elapsed));
                Ok(Frame::SearchResult(outcome))
            }
            Frame::SearchBatch { collection, params, queries } => {
                let coll = self.route(&collection)?;
                // An empty batch is well-formed on the wire but answers
                // nothing — refuse it rather than invent an empty reply a
                // buggy client would silently accept.
                if queries.is_empty() {
                    return Err(bad_request("empty batch"));
                }
                // The batch bound caps the total work one frame can demand
                // (max_batch × max_search_k knob-sized searches) and bounds
                // how long this worker is occupied — the other workers keep
                // consuming the ready queue meanwhile, so a giant batch
                // cannot starve keep-alive peers.
                if queries.len() > config.max_batch {
                    return Err(bad_request(format!(
                        "batch of {} queries exceeds the {} limit",
                        queries.len(),
                        config.max_batch
                    )));
                }
                for (qi, query) in queries.iter().enumerate() {
                    validate_query(query, &params, coll.dim(), config)
                        .map_err(|msg| bad_request(format!("batch query {qi}: {msg}")))?;
                }
                // The reply must also be deliverable: each result encodes
                // to at most 56 + 12·k bytes, so a batch whose summed k
                // would overflow the frame-size limit is refused *before*
                // the searches run — otherwise the server would burn the
                // whole batch of work (or, past u32::MAX, panic in the
                // encoder) on a frame no peer with the same limit could
                // accept.
                let reply_bound: u64 =
                    8 + queries.iter().map(|q| 56 + 12 * q.k as u64).sum::<u64>();
                if reply_bound > config.max_frame as u64 {
                    return Err(bad_request(format!(
                        "batch reply could reach {reply_bound} bytes, above the {} frame limit — \
                         lower the batch size or k",
                        config.max_frame
                    )));
                }
                // Fan the batch across min(workers, cores) scoped workers
                // (clamped to the batch size), each query searching under
                // the collection's shared lock; a one-thread batch runs
                // inline through this worker's warm scratch.
                let started = Instant::now();
                let outcomes = BatchExecutor::new(coll, svc.batch_threads)
                    .run_in(scratch, &queries, &params)
                    .outcomes;
                // Every query in the batch completes when its frame's
                // reply does, so each records the frame's service-layer
                // wall time — the same arrival-to-answer quantity the
                // single-Search path records, keeping one histogram
                // comparable across both paths (per-query backend times
                // still travel in each outcome's `cost.server_time`).
                let elapsed = started.elapsed();
                for _ in &outcomes {
                    self.count(|s| s.record_query(elapsed));
                }
                Ok(Frame::SearchBatchResult(outcomes))
            }
            Frame::Insert { collection, token, c_sap, c_dce } => {
                self.owner(token, true)?;
                let coll = self.route(&collection)?;
                let id = coll.insert(c_sap, c_dce).map_err(refused)?;
                self.count(ServiceStats::record_insert);
                Ok(Frame::InsertAck { id })
            }
            Frame::Delete { collection, token, id } => {
                self.owner(token, true)?;
                let coll = self.route(&collection)?;
                if !coll.try_delete(id).map_err(refused)? {
                    return Err(refused(MutationError::NotLive(id)));
                }
                self.count(ServiceStats::record_delete);
                Ok(Frame::DeleteAck)
            }
            Frame::Stats { collection: None } => {
                // Aggregate view: process-wide counters, catalog-wide
                // live, plus the reactor's connection gauges.
                Ok(Frame::StatsReply(svc.stats.snapshot(svc.catalog.total_live() as u64)))
            }
            Frame::Stats { collection: collection @ Some(_) } => {
                let coll = self.route(&collection)?;
                // The collection's counters count the frames routed to it
                // by every listener, but the connection gauges are reactor
                // state — connections are not owned by any collection, so
                // the collection's own gauges stay zero forever. Report the
                // process-global gauges instead of misreporting "0
                // connections" next to real per-collection request
                // counters (PROTOCOL.md §3.10).
                let stats = &svc.stats;
                let mut snap = coll.stats().snapshot(coll.live_len() as u64);
                snap.conns_parked = stats.conns_parked();
                snap.conns_active = stats.conns_active();
                snap.ready_depth = stats.ready_depth();
                snap.scratch_bytes = stats.scratch_bytes();
                Ok(Frame::StatsReply(snap))
            }
            Frame::ListCollections => Ok(Frame::ListCollectionsReply(
                svc.catalog
                    .list()
                    .into_iter()
                    .map(|info| CollectionEntry {
                        name: info.name,
                        dim: info.dim as u64,
                        live: info.live as u64,
                        kind: COLLECTION_KIND_CLOUD,
                        shards: 1,
                    })
                    .collect(),
            )),
            Frame::CreateCollection { token, name, dim, shards } => {
                self.owner(token, true)?;
                let name = decode_name(&name)?;
                if dim == 0 || dim > MAX_CREATE_DIM {
                    return Err(bad_request(format!(
                        "collection dim must be in 1..={MAX_CREATE_DIM}, got {dim}"
                    )));
                }
                // Every collection is one index; the field stays on the
                // wire for byte compatibility (PROTOCOL.md §3.17).
                if shards != 1 {
                    return Err(bad_request(format!(
                        "shards must be 1 (sharded collections are retired), got {shards}"
                    )));
                }
                create_collection(&svc.catalog, config, name, dim)?;
                Ok(Frame::CreateCollectionAck)
            }
            Frame::DropCollection { token, name } => {
                self.owner(token, true)?;
                let name = decode_name(&name)?;
                // The catalog deletes a durable collection's snapshot and
                // WAL before it unregisters it: if the files cannot go
                // away the collection must not either, or a restart would
                // resurrect it.
                match svc.catalog.drop_collection(name) {
                    Ok(_) => Ok(Frame::DropCollectionAck),
                    Err(DurableCatalogError::Persist(PersistError::Io(e))) => Err((
                        ErrorCode::Internal,
                        format!("delete of collection files failed: {e}"),
                    )),
                    Err(e) => Err((ErrorCode::UnknownCollection, e.to_string())),
                }
            }
            Frame::Shutdown { token } => {
                self.owner(token, false)?;
                Ok(Frame::ShutdownAck)
            }
            Frame::Promote { token } => {
                // Manual promotion: owner-authenticated, idempotent (a
                // primary acks too). The sync threads observe the flip and
                // wind down; consensus-driven promotion is the documented
                // upgrade path (OPERATIONS.md §10).
                self.owner(token, false)?;
                svc.role.promote();
                Ok(Frame::PromoteAck)
            }
            // Replication pulls: the follower names a collection and its
            // applied position; the reply is a `SnapshotChunk`
            // (bootstrap/reseal) or a `WalSegment` (steady state). The
            // only "session state" a pull needs is the follower's own
            // offsets, which it carries in every request.
            Frame::ReplicaHello { collection, seal_len, seal_crc, snapshot_offset, log_offset } => {
                let coll = self.route(&Some(collection))?;
                let seal = SnapshotId { len: seal_len, crc: seal_crc };
                replication::serve_pull(&coll, seal, Some(snapshot_offset), log_offset)
            }
            Frame::ReplicaAck { collection, seal_len, seal_crc, applied_offset } => {
                let coll = self.route(&Some(collection))?;
                let seal = SnapshotId { len: seal_len, crc: seal_crc };
                replication::serve_pull(&coll, seal, None, applied_offset)
            }
            // Replies and a second Hello are protocol violations from a
            // client; answer and keep the connection (stream sync intact).
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::SearchResult(_)
            | Frame::SearchBatchResult(_)
            | Frame::InsertAck { .. }
            | Frame::DeleteAck
            | Frame::StatsReply(_)
            | Frame::ShutdownAck
            | Frame::CreateCollectionAck
            | Frame::DropCollectionAck
            | Frame::ListCollectionsReply(_)
            | Frame::WalSegment { .. }
            | Frame::SnapshotChunk { .. }
            | Frame::PromoteAck
            | Frame::Error { .. } => Err(bad_request("unexpected frame direction")),
        }
    }
}

/// Validates one query's shape and knobs against the served configuration;
/// `Err` is the `BadRequest` message to answer with. The three search
/// knobs size server-side allocations and work, and all arrive as
/// attacker-controlled integers: a `k` of 2^50 would ask the top-k heap
/// for a petabyte reservation, and the allocation failure aborts the whole
/// process — bound them before they reach the backend. (`k = 0` never gets
/// here: the payload codec rejects it as malformed; zero `k'`/`ef` are
/// fine, the backend clamps them up to `k`.)
fn validate_query(
    query: &EncryptedQuery,
    params: &SearchParams,
    dim: usize,
    config: &ServiceConfig,
) -> Result<(), String> {
    if query.c_sap.len() != dim {
        return Err(format!("query dim {} != served dim {dim}", query.c_sap.len()));
    }
    let expected = ppann_dce::ciphertext_dim(dim);
    if query.trapdoor.dim() != expected {
        return Err(format!("trapdoor dim {} != expected {expected}", query.trapdoor.dim()));
    }
    let max = config.max_search_k;
    if query.k > max || params.k_prime > max || params.ef_search > max {
        return Err(format!(
            "search knobs k={} k'={} ef={} exceed the {max} limit",
            query.k, params.k_prime, params.ef_search
        ));
    }
    Ok(())
}

/// The one reply site of every request: buffers the reply frame, or the
/// `Error` frame of a refusal, and credits it by one accounting rule —
/// `bytes_out` (and for a refusal `errors`) count process-wide and, when
/// the request was `routed` to a collection, against the collection's
/// counters too, so per-collection error rates locate the misbehaving
/// tenant. Buffering cannot fail; delivery failures surface at flush
/// time, where the connection is closed.
fn send_reply(
    out: &mut Vec<u8>,
    encode: &mut BytesMut,
    stats: &ServiceStats,
    routed: Option<&ServiceStats>,
    answer: Result<Frame, Refusal>,
) {
    let sinks = || std::iter::once(stats).chain(routed);
    let frame = answer.unwrap_or_else(|(code, message)| {
        sinks().for_each(ServiceStats::record_error);
        Frame::Error { code, message }
    });
    let n = frame.encode_with(encode, out) as u64;
    sinks().for_each(|sink| sink.add_bytes_out(n));
}
