//! The multi-collection catalog: many named encrypted indexes in one
//! process.
//!
//! A production deployment rarely hosts one dataset — each owner ships its
//! own encrypted database, with its own dimensionality and its own privacy
//! / accuracy trade-off (the paper tunes β per dataset). [`Catalog`] owns
//! any number of named **collections**, each one [`CloudServer`] of its own
//! dimensionality, and hands out cheaply clonable [`Collection`] handles
//! the service layer routes requests through.
//!
//! ## Concurrency
//!
//! The map itself sits behind one `RwLock`, held only for
//! lookup/insert/remove — never across a search. Create and drop run
//! whole under its write lock, files included, so they are serialized
//! against each other for every caller: each listener of the network
//! service and a replication follower alike. Handles are `Arc`s, so a
//! collection dropped mid-query finishes the queries already routed to it
//! and is freed when the last handle goes away; new requests get an
//! unknown-collection error.
//!
//! Inside a collection the `CloudServer` sits behind a second `RwLock`:
//! searches take it shared, inserts and deletes exclusive. A durable
//! collection's WAL mutex is the outer lock of every mutation.
//!
//! ## Names
//!
//! Collection names double as file stems in a `--data-dir` deployment
//! (`<name>.ppdb`), so [`validate_collection_name`] is deliberately
//! strict: 1–[`MAX_COLLECTION_NAME_LEN`] bytes of lowercase ASCII
//! alphanumerics, `_` and `-` (lowercase-only so names can never
//! case-collide onto one file on a case-insensitive filesystem). The
//! wire protocol carries names as raw bytes precisely so a malformed
//! name can travel to this check and be answered as a semantic error
//! (PROTOCOL.md §4 "Collections").

use crate::index::{EncryptedDatabase, MutationError};
use crate::persist::{
    open_snapshot, write_collection_snapshot, CollectionMeta, PersistError, SnapshotFile,
    SNAPSHOT_EXT,
};
use crate::query::EncryptedQuery;
use crate::scratch::QueryScratch;
use crate::server::{CloudServer, SearchOutcome, SearchParams};
use crate::stats::ServiceStats;
use crate::wal::{replay, wal_path_for, DurabilityOptions, SnapshotId, WalRecord, WalWriter};
use parking_lot::{Mutex, RwLock};
use ppann_dce::DceCiphertext;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The collection legacy (v1, nameless) protocol frames route to.
pub const DEFAULT_COLLECTION: &str = "default";

/// Maximum collection-name length in bytes.
pub const MAX_COLLECTION_NAME_LEN: usize = 64;

/// Largest shard count a v2 snapshot header may carry. Shards are retired
/// — every collection is one [`CloudServer`] and any count in
/// `1..=MAX_SHARDS` loads as one — but a value outside the range still
/// marks the file as damaged and fails as [`PersistError::Corrupt`].
pub const MAX_SHARDS: usize = 64;

/// Catalog failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The name violates [`validate_collection_name`] (reason attached).
    InvalidName(String),
    /// A collection with this name already exists.
    Duplicate(String),
    /// No collection with this name exists.
    Unknown(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::InvalidName(msg) => write!(f, "invalid collection name: {msg}"),
            CatalogError::Duplicate(name) => write!(f, "collection `{name}` already exists"),
            CatalogError::Unknown(name) => write!(f, "unknown collection `{name}`"),
        }
    }
}
impl std::error::Error for CatalogError {}

/// Validates a collection name: 1–[`MAX_COLLECTION_NAME_LEN`] bytes,
/// *lowercase* ASCII alphanumerics plus `_` and `-` only. Strict because
/// names double as snapshot file stems (`<name>.ppdb`) — no separators,
/// no dots, and lowercase-only so two distinct catalog entries can never
/// case-collide onto one file on a case-insensitive filesystem (where
/// `Docs.ppdb` and `docs.ppdb` are the same file and each create would
/// truncate the other's snapshot).
pub fn validate_collection_name(name: &str) -> Result<(), CatalogError> {
    if name.is_empty() {
        return Err(CatalogError::InvalidName("name is empty".into()));
    }
    if name.len() > MAX_COLLECTION_NAME_LEN {
        return Err(CatalogError::InvalidName(format!(
            "name of {} bytes exceeds the {MAX_COLLECTION_NAME_LEN}-byte limit",
            name.len()
        )));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !c.is_ascii_lowercase() && !c.is_ascii_digit() && *c != '_' && *c != '-')
    {
        return Err(CatalogError::InvalidName(format!(
            "character {bad:?} not allowed (lowercase ASCII alphanumerics, `_` and `-` only)"
        )));
    }
    Ok(())
}

/// The durable state of one collection: its open write-ahead log plus
/// the snapshot path compaction rewrites. Serialized by the collection's
/// WAL mutex, which is the *outer* lock of every durable mutation (the
/// server's `RwLock` is taken inside it, never the other way around —
/// searches take only the server lock and are unaffected).
struct CollectionWal {
    state: WalState,
    snapshot_path: PathBuf,
    /// The open snapshot file whose bytes the current seal names: the
    /// handle the load parsed and hashed, or the temp file compaction
    /// wrote and renamed into place. Replication serves bootstrap chunks
    /// from it, so a later compaction (which publishes a new inode by
    /// rename) can never tear a transfer. `None` once retired.
    snapshot: Option<Arc<File>>,
    opts: DurabilityOptions,
    compactions: u64,
}

/// Where a collection's log currently is. Only `Open` can acknowledge
/// mutations; the other two states make every durable mutation fail,
/// because an ack they issued could not be honored after a restart.
enum WalState {
    /// A log sealed to the on-disk snapshot, accepting appends.
    Open(WalWriter),
    /// Compaction replaced the snapshot but could not seal a fresh log:
    /// the on-disk log's checkpoint now names the *replaced* snapshot,
    /// so replay would discard it wholesale — appending (= acking) to it
    /// would silently lose those mutations on restart. Mutations fail
    /// until a reseal to this snapshot identity succeeds; each mutation
    /// retries the reseal first.
    NeedsReseal(SnapshotId),
    /// The collection was dropped: its files are gone and must never be
    /// recreated by a mutation or compaction racing the drop.
    Dropped,
}

impl CollectionWal {
    /// Writes a fresh sealed log for the snapshot identity `base`, the
    /// seal of the bytes of the open `snapshot`.
    fn new_sealed(
        snapshot_path: &Path,
        snapshot: File,
        base: SnapshotId,
        opts: DurabilityOptions,
    ) -> std::io::Result<Self> {
        let writer = WalWriter::create_sealed(&wal_path_for(snapshot_path), base, opts.fsync)?;
        Ok(Self::open(snapshot_path, snapshot, writer, opts))
    }

    /// Opens an existing (already replayed and repaired) log for append;
    /// its checkpoint names the bytes of the open `snapshot`.
    fn open_existing(
        snapshot_path: &Path,
        snapshot: File,
        opts: DurabilityOptions,
    ) -> std::io::Result<Self> {
        let writer = WalWriter::open_append(&wal_path_for(snapshot_path), opts.fsync)?;
        Ok(Self::open(snapshot_path, snapshot, writer, opts))
    }

    fn open(
        snapshot_path: &Path,
        snapshot: File,
        writer: WalWriter,
        opts: DurabilityOptions,
    ) -> Self {
        Self {
            state: WalState::Open(writer),
            snapshot_path: snapshot_path.to_path_buf(),
            snapshot: Some(Arc::new(snapshot)),
            opts,
            compactions: 0,
        }
    }

    /// The writer every durable mutation appends through. A pending
    /// reseal (failed compaction) is retried here first, so one full
    /// disk does not strand the collection forever; `Err` — reseal
    /// still failing, or the collection dropped — means the mutation
    /// must fail unacknowledged.
    fn writer(&mut self) -> std::io::Result<&mut WalWriter> {
        match self.state {
            WalState::NeedsReseal(base) => {
                let writer = WalWriter::create_sealed(
                    &wal_path_for(&self.snapshot_path),
                    base,
                    self.opts.fsync,
                )?;
                self.state = WalState::Open(writer);
                // The compaction that stranded us is now complete.
                self.compactions += 1;
            }
            WalState::Dropped => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "collection was dropped",
                ));
            }
            WalState::Open(_) => {}
        }
        match &mut self.state {
            WalState::Open(writer) => Ok(writer),
            _ => unreachable!("writer(): state is Open after a successful reseal"),
        }
    }

    /// Retires the log at drop time: removes the snapshot and log files
    /// and marks the state `Dropped` — so a mutation racing the drop
    /// (already holding the collection handle) can neither append to the
    /// deleted log nor recreate the files through compaction, and a
    /// restart cannot resurrect the collection. Files already gone are
    /// fine; on any other IO failure nothing is marked and the collection
    /// stays fully serviceable.
    fn retire(&mut self) -> std::io::Result<()> {
        // Snapshot first: a crash in between leaves an orphan `.wal`
        // that the loader ignores without its snapshot, while the
        // reverse order would leave a snapshot that resurrects the
        // collection minus its logged tail.
        for path in [self.snapshot_path.clone(), wal_path_for(&self.snapshot_path)] {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.state = WalState::Dropped;
        self.snapshot = None;
        Ok(())
    }

    /// Current log length; 0 while no appendable log exists (the stale
    /// log of a pending reseal is about to be replaced, a dropped
    /// collection has no log at all) so the compaction threshold cannot
    /// fire in either state.
    fn log_len(&self) -> u64 {
        match &self.state {
            WalState::Open(writer) => writer.log_len(),
            WalState::NeedsReseal(_) | WalState::Dropped => 0,
        }
    }
}

/// What a replication primary needs to serve one follower pull: the
/// snapshot identity the collection's log is sealed to, the open
/// snapshot file those bytes are, the log's current acknowledged length,
/// and where the files live. Taken as one consistent sample under the WAL
/// mutex ([`Collection::replication_source`]) — the primary then reads
/// snapshot bytes from the pinned handle, and log bytes *below* `log_len`
/// only, which by the WAL's dirty-flag discipline are always whole
/// acknowledged records.
#[derive(Clone, Debug)]
pub struct ReplicationSource {
    /// Identity of the snapshot the log extends (what followers must
    /// hold before applying log records).
    pub seal: SnapshotId,
    /// Acknowledged log length in bytes (header + checkpoint +
    /// records).
    pub log_len: u64,
    /// The collection's snapshot file.
    pub snapshot_path: PathBuf,
    /// The open snapshot whose bytes `seal` names. Compaction publishes a
    /// new snapshot by rename, so this handle keeps reading the sealed
    /// bytes after the path has moved on.
    pub snapshot: Arc<File>,
}

/// A point-in-time view of a collection's durability state (diagnostics
/// and the log-bounded-restart assertions in the persistence tests).
#[derive(Clone, Copy, Debug)]
pub struct WalStatus {
    /// Current log length in bytes (header + checkpoint + records).
    pub log_bytes: u64,
    /// Compactions performed since this process attached the log.
    pub compactions: u64,
    /// The byte threshold that triggers the next compaction.
    pub compact_bytes: u64,
}

/// One named collection: a validated name plus the [`CloudServer`] that
/// answers it, behind a read-write lock — searches share it, inserts and
/// deletes take it exclusively — and the collection's request counters.
pub struct Collection {
    name: String,
    /// Cached at registration: a server's dimensionality never changes
    /// (inserts are dim-checked against it), so the hot request path
    /// reads a field instead of taking the server lock per frame.
    dim: usize,
    server: RwLock<CloudServer>,
    /// `Some` on a durable (`--data-dir`) collection: every mutation is
    /// logged before it is applied. `None` keeps the collection
    /// in-memory-only with infallible mutations.
    wal: Option<Mutex<CollectionWal>>,
    /// The frames routed to this collection, counted by every listener
    /// that serves the catalog; uptime runs from registration.
    stats: Arc<ServiceStats>,
}

impl Collection {
    fn new(
        name: &str,
        db: EncryptedDatabase,
        wal: Option<CollectionWal>,
        stats: Arc<ServiceStats>,
    ) -> Self {
        let server = CloudServer::new(db);
        Self {
            name: name.to_string(),
            dim: server.dim(),
            server: RwLock::new(server),
            wal: wal.map(Mutex::new),
            stats,
        }
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vector dimensionality served.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The collection's request counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Live vector count.
    pub fn live_len(&self) -> usize {
        self.server.read().len()
    }

    /// Answers one query under the shared lock.
    pub fn search(&self, query: &EncryptedQuery, params: &SearchParams) -> SearchOutcome {
        self.server.read().search(query, params)
    }

    /// Answers one query under the shared lock through caller-owned
    /// scratch ([`CloudServer::search_in`] semantics): what a long-lived
    /// service worker calls so its warm buffers survive across requests.
    pub fn search_in(
        &self,
        scratch: &mut QueryScratch,
        query: &EncryptedQuery,
        params: &SearchParams,
    ) -> SearchOutcome {
        self.server.read().search_in(scratch, query, params)
    }

    /// Inserts a pre-encrypted vector, returning its assigned id (the
    /// next slot). Like every mutation it passes
    /// [`EncryptedDatabase::admit`] and, on a durable collection, is
    /// logged before it is applied: an `Err` means nothing changed and
    /// the caller must not acknowledge.
    pub fn insert(&self, c_sap: Vec<f64>, c_dce: DceCiphertext) -> Result<u32, MutationError> {
        self.apply_with(|next| WalRecord::Insert { id: next, c_sap, c_dce })
    }

    /// Check-and-delete: `Ok(false)` (nothing touched) when `id` is out
    /// of range or already deleted, instead of the panic of
    /// [`CloudServer::delete`].
    pub fn try_delete(&self, id: u32) -> Result<bool, MutationError> {
        match self.apply_with(|_| WalRecord::Delete { id }) {
            Ok(_) => Ok(true),
            Err(MutationError::NotLive(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Applies one record shipped by a replication primary. A record
    /// that does not apply here (stale or future id, wrong row shape,
    /// dead delete target) means the follower diverged from the
    /// primary's stream; its recovery is a full re-bootstrap.
    pub fn apply_replicated(&self, record: WalRecord) -> Result<u32, MutationError> {
        self.apply_with(|_| record)
    }

    /// The one checked apply of every mutation: `record` is built from
    /// the next free slot, then [`EncryptedDatabase::admit`] decides it
    /// and the mutation lands in the same step. In memory, check and
    /// apply share one write lock. On a durable collection the WAL mutex
    /// (the outer lock of every mutation) spans check → append → apply:
    /// the record is logged, and fsynced per policy, *before* the server
    /// is touched, so an `Ok` is exactly as durable as the policy
    /// promises and an `Err` guarantees nothing changed — the caller
    /// must not acknowledge.
    fn apply_with(&self, record: impl FnOnce(u32) -> WalRecord) -> Result<u32, MutationError> {
        let Some(wal) = &self.wal else {
            let mut server = self.server.write();
            let record = record(server.slots() as u32);
            return server.database_mut().apply(record);
        };
        let mut wal = wal.lock();
        let record = {
            let server = self.server.read();
            let record = record(server.slots() as u32);
            server.database().admit(&record)?;
            record
        };
        wal.writer()?.append(&record)?;
        let id = self.server.write().database_mut().apply_admitted(record);
        self.maybe_compact(&mut wal);
        Ok(id)
    }

    /// Whether `id` names a live vector.
    pub fn is_live(&self, id: u32) -> bool {
        self.server.read().is_live(id)
    }

    /// Total id slots allocated (live + tombstoned): the id the next
    /// insert will assign.
    pub fn slots(&self) -> usize {
        self.server.read().slots()
    }

    /// Durability diagnostics; `None` on an in-memory-only collection.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.wal.as_ref().map(|wal| {
            let wal = wal.lock();
            WalStatus {
                log_bytes: wal.log_len(),
                compactions: wal.compactions,
                compact_bytes: wal.opts.compact_bytes,
            }
        })
    }

    /// One consistent `(seal, log_len, paths)` sample for serving a
    /// replication pull, taken under the WAL mutex. `None` when the
    /// collection cannot be streamed right now: it is in-memory-only,
    /// dropped, or mid-reseal (the on-disk log is stale — the follower
    /// retries and gets the post-reseal state).
    pub fn replication_source(&self) -> Option<ReplicationSource> {
        let wal = self.wal.as_ref()?.lock();
        match &wal.state {
            WalState::Open(writer) => Some(ReplicationSource {
                seal: writer.base(),
                log_len: writer.log_len(),
                snapshot_path: wal.snapshot_path.clone(),
                snapshot: Arc::clone(wal.snapshot.as_ref()?),
            }),
            WalState::NeedsReseal(_) | WalState::Dropped => None,
        }
    }

    /// Compacts now regardless of the byte threshold: rewrites the
    /// snapshot from the server's current state and starts a fresh
    /// sealed log. Returns `false` (a no-op) on a non-durable
    /// collection.
    pub fn compact(&self) -> Result<bool, PersistError> {
        match &self.wal {
            None => Ok(false),
            Some(wal) => {
                let mut wal = wal.lock();
                self.compact_locked(&mut wal)?;
                Ok(true)
            }
        }
    }

    /// Compacts once the log crosses its threshold. Failure is logged
    /// and *swallowed* — but what the next mutation does depends on
    /// where it failed. Before the snapshot rename: the collection keeps
    /// serving from the (intact) old snapshot + growing log, and the
    /// next mutation retries the compaction — a full disk must degrade
    /// restart time, not lose acknowledged writes. After the rename
    /// (the log reseal failed): the old log is stale, so the wal enters
    /// [`WalState::NeedsReseal`] and mutations fail unacknowledged
    /// until a reseal succeeds (each mutation retries it).
    fn maybe_compact(&self, wal: &mut CollectionWal) {
        if wal.log_len() < wal.opts.compact_bytes {
            return;
        }
        if let Err(e) = self.compact_locked(wal) {
            eprintln!("ppanns: WAL compaction of `{}` failed (will retry): {e}", self.name);
        }
    }

    /// The compaction sequence, under the WAL mutex. Crash-safe by
    /// ordering alone:
    ///
    /// 1. Stream the server's database into `<file>.tmp` under its read
    ///    guard (every logged record is in it — the mutex excludes every
    ///    mutation, so searches keep running and nothing slips in). The
    ///    image never exists in memory: the transient cost is the write
    ///    buffer, and the seal is computed in the same pass.
    /// 2. Atomically replace the snapshot. A crash before this rename
    ///    leaves old snapshot + old log (nothing happened); a crash
    ///    after it leaves *new* snapshot + old log, whose checkpoint no
    ///    longer matches — replay discards the stale log, losing nothing
    ///    because step 1 folded all of it into the snapshot.
    /// 3. Atomically replace the log with a fresh one sealed to the new
    ///    snapshot's identity. The state moves to
    ///    [`WalState::NeedsReseal`] *before* this step is attempted: if
    ///    the reseal fails, the old log (now stale — replay would
    ///    discard it) must never take another acknowledged append, so
    ///    mutations fail until a retry of the reseal succeeds.
    fn compact_locked(&self, wal: &mut CollectionWal) -> Result<(), PersistError> {
        if matches!(wal.state, WalState::Dropped) {
            return Err(PersistError::from(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "collection was dropped",
            )));
        }
        let meta = CollectionMeta { name: self.name.clone(), shards: 1 };
        let (seal, file) =
            write_collection_snapshot(&wal.snapshot_path, &meta, self.server.read().database())?;
        wal.snapshot = Some(Arc::new(file));
        wal.state = WalState::NeedsReseal(seal);
        wal.writer()?;
        Ok(())
    }
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.name)
            .field("dim", &self.dim())
            .field("live", &self.live_len())
            .finish()
    }
}

/// A point-in-time description of one collection, as listed by
/// [`Catalog::list`] and shipped in the service's `ListCollectionsReply`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionInfo {
    /// Collection name.
    pub name: String,
    /// Vector dimensionality served.
    pub dim: usize,
    /// Live vector count at listing time.
    pub live: usize,
}

/// Many named collections behind one lock (see the module docs).
#[derive(Default)]
pub struct Catalog {
    inner: RwLock<BTreeMap<String, Arc<Collection>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `db` as the in-memory collection `name`. Fails on an
    /// invalid or already-taken name; name reservation is atomic, so two
    /// concurrent creates of the same name cannot both succeed.
    pub fn create(
        &self,
        name: &str,
        db: EncryptedDatabase,
    ) -> Result<Arc<Collection>, CatalogError> {
        validate_collection_name(name)?;
        let mut map = self.inner.write();
        Self::register_locked(&mut map, name, db, None)
    }

    /// The shared tail of every create: builds the handle and inserts it
    /// under the already-held map lock.
    fn register_locked(
        map: &mut BTreeMap<String, Arc<Collection>>,
        name: &str,
        db: EncryptedDatabase,
        wal: Option<CollectionWal>,
    ) -> Result<Arc<Collection>, CatalogError> {
        if map.contains_key(name) {
            return Err(CatalogError::Duplicate(name.to_string()));
        }
        let coll = Arc::new(Collection::new(name, db, wal, Arc::default()));
        map.insert(name.to_string(), Arc::clone(&coll));
        Ok(coll)
    }

    /// Registers `db` as a **durable** collection in `dir`: writes its
    /// `<name>.ppdb` snapshot (atomically), seals a fresh `<name>.wal`
    /// to that snapshot's identity, and only then makes the collection
    /// visible — all under the catalog's write lock, so the files on
    /// disk always belong to the registered collection and no create or
    /// drop of any name can interleave. On any failure both files are
    /// removed and nothing is registered.
    pub fn create_durable(
        &self,
        name: &str,
        db: EncryptedDatabase,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> Result<Arc<Collection>, DurableCatalogError> {
        validate_collection_name(name).map_err(DurableCatalogError::Catalog)?;
        let mut map = self.inner.write();
        if map.contains_key(name) {
            return Err(DurableCatalogError::Catalog(CatalogError::Duplicate(name.to_string())));
        }
        let meta = CollectionMeta { name: name.to_string(), shards: 1 };
        let path = dir.join(format!("{name}.{SNAPSHOT_EXT}"));
        let cleanup = || {
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(wal_path_for(&path)).ok();
        };
        let (seal, file) = write_collection_snapshot(&path, &meta, &db).map_err(|e| {
            cleanup();
            DurableCatalogError::Persist(e)
        })?;
        let wal = CollectionWal::new_sealed(&path, file, seal, opts).map_err(|e| {
            cleanup();
            DurableCatalogError::Persist(e.into())
        })?;
        Self::register_locked(&mut map, name, db, Some(wal)).map_err(DurableCatalogError::Catalog)
    }

    /// Installs (or atomically replaces) a **replica** collection: an
    /// in-memory, non-durable image a replication follower just
    /// bootstrapped from a primary's snapshot. Replace-in-one-step
    /// matters: during a re-bootstrap (the primary compacted, changing
    /// its seal) the old image keeps answering reads until the new one
    /// swaps in — readers never see an unknown-collection window — and
    /// the new image inherits the replaced one's counters. Returns the
    /// new handle.
    pub fn install_replica(
        &self,
        name: &str,
        db: EncryptedDatabase,
    ) -> Result<Arc<Collection>, CatalogError> {
        validate_collection_name(name)?;
        let mut map = self.inner.write();
        let stats = map.get(name).map(|old| Arc::clone(&old.stats)).unwrap_or_default();
        let coll = Arc::new(Collection::new(name, db, None, stats));
        map.insert(name.to_string(), Arc::clone(&coll));
        Ok(coll)
    }

    /// Removes and returns the collection named `name`. A durable
    /// collection is retired in the same step, under the map's write
    /// lock: its snapshot and log files are removed and the handle can
    /// no longer mutate or compact. If the files cannot be removed the
    /// collection stays registered and serviceable. In-flight queries
    /// holding the handle finish normally; the server is freed when the
    /// last handle drops.
    pub fn drop_collection(&self, name: &str) -> Result<Arc<Collection>, DurableCatalogError> {
        validate_collection_name(name).map_err(DurableCatalogError::Catalog)?;
        let unknown = || DurableCatalogError::Catalog(CatalogError::Unknown(name.to_string()));
        let coll = self.get(name).ok_or_else(unknown)?;
        // The log mutex is taken before the map lock: a drop that waits
        // out a running compaction or append must not stall every lookup.
        let mut wal = coll.wal.as_ref().map(|wal| wal.lock());
        let mut map = self.inner.write();
        // A concurrent drop, or drop and re-create, got here first.
        if !map.get(name).is_some_and(|current| Arc::ptr_eq(current, &coll)) {
            return Err(unknown());
        }
        if let Some(wal) = &mut wal {
            wal.retire().map_err(|e| DurableCatalogError::Persist(e.into()))?;
        }
        map.remove(name);
        drop((map, wal));
        Ok(coll)
    }

    /// The collection named `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<Collection>> {
        self.inner.read().get(name).cloned()
    }

    /// The collection legacy nameless frames route to
    /// ([`DEFAULT_COLLECTION`]).
    pub fn default_collection(&self) -> Option<Arc<Collection>> {
        self.get(DEFAULT_COLLECTION)
    }

    /// All collections, sorted by name.
    pub fn list(&self) -> Vec<CollectionInfo> {
        self.inner
            .read()
            .values()
            .map(|c| CollectionInfo {
                name: c.name().to_string(),
                dim: c.dim(),
                live: c.live_len(),
            })
            .collect()
    }

    /// Number of collections.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when no collection is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Total live vectors across every collection.
    pub fn total_live(&self) -> usize {
        self.inner.read().values().map(|c| c.live_len()).sum()
    }

    /// Builds a durable catalog from a snapshot directory: every
    /// `*.ppdb` file becomes one collection named after its file stem,
    /// loaded in sorted order. v2 snapshots must embed the same name as
    /// their stem (a renamed file is refused rather than silently
    /// re-labeled); v1 snapshots — databases written before collections
    /// existed — load the same way. Every collection is one [`CloudServer`]: a v2 header
    /// naming several shards (a retired server shape) loads losslessly as
    /// one index, because its inner image is always the whole database.
    ///
    /// A collection with a `<name>.wal` next to its snapshot gets the
    /// log **replayed** over the snapshot, recovering every mutation
    /// logged since the last compaction. Damage never fails the load: a
    /// torn or corrupt tail is truncated away (keeping the longest
    /// cleanly-applying prefix), and a log sealed to a different
    /// snapshot — the leftover of a crash inside a compaction — is
    /// discarded wholesale, which is lossless by construction (see
    /// [`crate::wal`]).
    ///
    /// Every collection then gets a WAL writer (continuing the replayed
    /// log, or sealing a fresh one where none exists), so all later
    /// mutations are durable under `opts`. Returns one recovery report
    /// per collection.
    pub fn load_dir_durable(
        dir: &Path,
        opts: DurabilityOptions,
    ) -> Result<(Self, Vec<WalRecoveryReport>), PersistError> {
        let catalog = Self::new();
        let mut reports = Vec::new();
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT))
            .collect();
        paths.sort();
        for path in paths {
            let corrupt = |msg: String| PersistError::Corrupt(format!("{}: {msg}", path.display()));
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| corrupt("file stem is not UTF-8".into()))?
                .to_string();
            validate_collection_name(&stem).map_err(|e| corrupt(e.to_string()))?;
            let SnapshotFile { meta, mut db, seal: base, file } =
                open_snapshot(&path).map_err(|e| match e {
                    PersistError::Io(e) => PersistError::Io(e),
                    e => corrupt(e.to_string()),
                })?;
            if let Some(meta) = meta {
                if meta.name != stem {
                    return Err(corrupt(format!(
                        "embedded collection name `{}` does not match the file stem",
                        meta.name
                    )));
                }
                if meta.shards == 0 || meta.shards as usize > MAX_SHARDS {
                    return Err(corrupt(format!(
                        "shard count {} outside 1..={MAX_SHARDS}",
                        meta.shards
                    )));
                }
            }
            let (report, log_usable) = replay_wal_over(&mut db, &path, base, &stem)?;
            reports.push(report);
            let wal = if log_usable {
                CollectionWal::open_existing(&path, file, opts)?
            } else {
                CollectionWal::new_sealed(&path, file, base, opts)?
            };
            let mut map = catalog.inner.write();
            Self::register_locked(&mut map, &stem, db, Some(wal))
                .map_err(|e| corrupt(e.to_string()))?;
        }
        Ok((catalog, reports))
    }
}

/// What [`Catalog::load_dir_durable`] recovered for one collection.
#[derive(Clone, Debug)]
pub struct WalRecoveryReport {
    /// Collection name.
    pub collection: String,
    /// Mutation records replayed over the snapshot.
    pub replayed: usize,
    /// Torn/corrupt tail bytes truncated away (0 on a clean log).
    pub truncated_bytes: u64,
    /// The whole log was discarded: it was sealed to a different
    /// snapshot (crashed-compaction leftover; lossless) or its own
    /// header was unusable.
    pub discarded: bool,
}

/// Replays `<path>`'s WAL (if any) into `db` and repairs the file:
/// truncates at the first record that fails to decode *or* to apply,
/// removes the file entirely when its header/checkpoint is unusable or
/// stale. Returns the report plus whether a usable log file remains on
/// disk. IO errors during repair are real errors; damage itself never
/// is.
fn replay_wal_over(
    db: &mut EncryptedDatabase,
    snapshot_path: &Path,
    base: SnapshotId,
    name: &str,
) -> Result<(WalRecoveryReport, bool), PersistError> {
    let wal_path = wal_path_for(snapshot_path);
    let mut report = WalRecoveryReport {
        collection: name.to_string(),
        replayed: 0,
        truncated_bytes: 0,
        discarded: false,
    };
    let bytes = match std::fs::read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((report, false)),
        Err(e) => return Err(e.into()),
    };
    let decoded = replay(&bytes, base);
    if decoded.valid_len == 0 {
        // Unusable header or stale checkpoint: no record has a defined
        // base to apply over. Remove the file; the caller reseals.
        report.discarded = true;
        report.truncated_bytes = bytes.len() as u64;
        std::fs::remove_file(&wal_path)?;
        return Ok((report, false));
    }
    // Apply records in order; the first that the admission check
    // refuses marks the log corrupt from there on (same handling as a bad
    // checksum — replay is "longest valid prefix", where valid means
    // *applies*, not merely *decodes*).
    let mut end = decoded.sealed_len;
    for (record, record_end) in decoded.records {
        if db.apply(record).is_err() {
            break;
        }
        report.replayed += 1;
        end = record_end;
    }
    if end < bytes.len() as u64 {
        report.truncated_bytes = bytes.len() as u64 - end;
        crate::wal::truncate_to(&wal_path, end)?;
    }
    Ok((report, true))
}

/// A durable-catalog failure: either a naming/registration problem
/// (answerable as a bad request) or an IO/persistence problem
/// (answerable as an internal error).
#[derive(Debug)]
pub enum DurableCatalogError {
    /// Name validation or registration failed.
    Catalog(CatalogError),
    /// Snapshot or log IO failed.
    Persist(PersistError),
}

impl std::fmt::Display for DurableCatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableCatalogError::Catalog(e) => e.fmt(f),
            DurableCatalogError::Persist(e) => e.fmt(f),
        }
    }
}
impl std::error::Error for DurableCatalogError {}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.inner.read();
        f.debug_struct("Catalog").field("collections", &map.keys().collect::<Vec<_>>()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::{DataOwner, PpAnnParams};
    use crate::persist::{save_collection_snapshot, CollectionMeta};
    use crate::wal::WalWriter;
    use ppann_linalg::{seeded_rng, uniform_vec};

    fn make_db(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, DataOwner, EncryptedDatabase) {
        let mut rng = seeded_rng(seed);
        let data: Vec<Vec<f64>> = (0..n).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(dim).with_seed(seed).with_beta(0.0), &data);
        let db = owner.outsource(&data);
        (data, owner, db)
    }

    #[test]
    fn name_validation() {
        for ok in ["default", "a", "a-1_b", &"x".repeat(MAX_COLLECTION_NAME_LEN)] {
            assert!(validate_collection_name(ok).is_ok(), "{ok} should be valid");
        }
        // "Docs" is refused: on a case-insensitive filesystem it would
        // share `docs.ppdb` with a lowercase sibling.
        for bad in
            ["", "a/b", "a.b", "a b", "naïve", "Docs", &"x".repeat(MAX_COLLECTION_NAME_LEN + 1)]
        {
            assert!(validate_collection_name(bad).is_err(), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn heterogeneous_collections_coexist_and_answer() {
        let (data_a, owner_a, db_a) = make_db(120, 4, 31);
        let (data_b, owner_b, db_b) = make_db(150, 6, 32);
        let catalog = Catalog::new();
        catalog.create("products", db_a).unwrap();
        catalog.create("docs", db_b).unwrap();

        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.total_live(), 270);
        let infos = catalog.list();
        assert_eq!(infos[0].name, "docs");
        assert_eq!(infos[0].dim, 6);
        assert_eq!(infos[1].name, "products");
        assert_eq!(infos[1].dim, 4);

        let products = catalog.get("products").unwrap();
        let docs = catalog.get("docs").unwrap();
        let params = SearchParams { k_prime: 15, ef_search: 30 };
        let mut user_a = owner_a.authorize_user();
        let out = products.search(&user_a.encrypt_query(&data_a[0], 3), &params);
        assert_eq!(out.ids.len(), 3);
        assert_eq!(out.ids[0], 0);
        let mut user_b = owner_b.authorize_user();
        let outs = crate::BatchExecutor::new(docs, 2)
            .run(
                &[user_b.encrypt_query(&data_b[1], 2), user_b.encrypt_query(&data_b[2], 2)],
                &params,
            )
            .outcomes;
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].ids[0], 1);
        assert_eq!(outs[1].ids[0], 2);
    }

    #[test]
    fn duplicate_and_unknown_names_are_errors() {
        let (_, _, db) = make_db(30, 4, 33);
        let catalog = Catalog::new();
        catalog.create("default", db).unwrap();
        let (_, _, db2) = make_db(30, 4, 34);
        assert_eq!(
            catalog.create("default", db2).unwrap_err(),
            CatalogError::Duplicate("default".into())
        );
        assert!(matches!(
            catalog.drop_collection("nope").unwrap_err(),
            DurableCatalogError::Catalog(CatalogError::Unknown(name)) if name == "nope"
        ));
        assert!(matches!(
            catalog.drop_collection("no/pe").unwrap_err(),
            DurableCatalogError::Catalog(CatalogError::InvalidName(_))
        ));
        catalog.drop_collection("default").unwrap();
        assert!(catalog.is_empty());
    }

    /// A re-bootstrapped replica keeps its predecessor's counters; a
    /// collection registered after a drop starts from zero.
    #[test]
    fn replica_reinstall_keeps_the_counters() {
        let catalog = Catalog::new();
        let first = catalog.install_replica("r", make_db(20, 4, 42).2).unwrap();
        first.stats().record_insert();
        let second = catalog.install_replica("r", make_db(30, 4, 43).2).unwrap();
        assert_eq!(second.live_len(), 30);
        assert_eq!(second.stats().snapshot(0).inserts, 1);
        catalog.drop_collection("r").unwrap();
        let fresh = catalog.install_replica("r", make_db(20, 4, 44).2).unwrap();
        assert_eq!(fresh.stats().snapshot(0).inserts, 0);
    }

    #[test]
    fn dropped_collection_handle_stays_usable() {
        let (data, owner, db) = make_db(80, 4, 35);
        let catalog = Catalog::new();
        let handle = catalog.create("ephemeral", db).unwrap();
        catalog.drop_collection("ephemeral").unwrap();
        assert!(catalog.get("ephemeral").is_none());
        // The held Arc still answers: in-flight queries never race a drop.
        let mut user = owner.authorize_user();
        let out = handle
            .search(&user.encrypt_query(&data[5], 2), &SearchParams { k_prime: 10, ef_search: 20 });
        assert_eq!(out.ids[0], 5);
    }

    #[test]
    fn maintenance_through_the_erased_handle() {
        let (_, owner, db) = make_db(40, 4, 36);
        let catalog = Catalog::new();
        let coll = catalog.create("m", db).unwrap();
        let novel = vec![6.0, 6.0, 6.0, 6.0];
        let (c_sap, c_dce) = owner.encrypt_for_insert(&novel, 1);
        let id = coll.insert(c_sap, c_dce).unwrap();
        assert_eq!(id, 40);
        assert!(coll.is_live(id));
        assert_eq!(coll.live_len(), 41);
        assert!(coll.try_delete(id).unwrap());
        assert!(!coll.try_delete(id).unwrap(), "second delete must refuse");
        assert_eq!(coll.live_len(), 40);
    }

    #[test]
    fn load_dir_mixes_v1_and_v2_snapshots() {
        let dir = std::env::temp_dir().join(format!("ppanns_catalog_dir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, _, db_v1) = make_db(25, 4, 37);
        db_v1.save_to(&dir.join("legacy.ppdb")).unwrap();
        let (_, _, db_v2) = make_db(35, 6, 38);
        save_collection_snapshot(
            &dir.join("wide.ppdb"),
            &CollectionMeta { name: "wide".into(), shards: 2 },
            &db_v2,
        )
        .unwrap();
        // Non-snapshot files are ignored.
        std::fs::write(dir.join("notes.txt"), b"not a snapshot").unwrap();

        let (catalog, _) = Catalog::load_dir_durable(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(catalog.len(), 2);
        let legacy = catalog.get("legacy").unwrap();
        assert_eq!(legacy.dim(), 4);
        assert_eq!(legacy.live_len(), 25);
        let wide = catalog.get("wide").unwrap();
        assert_eq!(wide.dim(), 6);
        assert_eq!(wide.live_len(), 35);

        // A v2 snapshot renamed away from its embedded name is refused.
        std::fs::rename(dir.join("wide.ppdb"), dir.join("renamed.ppdb")).unwrap();
        assert!(
            Catalog::load_dir_durable(&dir, DurabilityOptions::default()).is_err(),
            "renamed v2 snapshot must be refused"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_refuses_absurd_shard_counts() {
        // Shard counts are retired, but a v2 header outside
        // 1..=MAX_SHARDS still marks a damaged file: it must surface as
        // PersistError::Corrupt. The wire CreateCollection path
        // refuses every count but 1.
        let dir =
            std::env::temp_dir().join(format!("ppanns_catalog_shards_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, _, db) = make_db(10, 4, 40);
        for bad in [0u16, (MAX_SHARDS + 1) as u16, u16::MAX] {
            save_collection_snapshot(
                &dir.join("bomb.ppdb"),
                &CollectionMeta { name: "bomb".into(), shards: bad },
                &db,
            )
            .unwrap();
            let err = Catalog::load_dir_durable(&dir, DurabilityOptions::default()).unwrap_err();
            assert!(
                matches!(&err, PersistError::Corrupt(msg) if msg.contains("shard count")),
                "shards={bad}: expected Corrupt shard-count error, got {err:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ppanns_catalog_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Durable mutations survive a "crash" simulated the honest way: the
    /// catalog (and its open WAL writers) is dropped without any
    /// snapshot rewrite, and a fresh load must reconstruct the exact
    /// live set from snapshot + log.
    #[test]
    fn durable_mutations_replay_after_reload() {
        let dir = temp_dir("durable");
        let (data, owner, db) = make_db(30, 4, 50);
        let catalog = Catalog::new();
        let opts = DurabilityOptions::default();
        let coll = catalog.create_durable("docs", db, &dir, opts).unwrap();
        assert!(coll.wal_status().is_some(), "durable collection");

        let mut inserted = Vec::new();
        for v in data.iter().take(6) {
            let (c_sap, c_dce) = owner.encrypt_for_insert(v, 1);
            inserted.push(coll.insert(c_sap, c_dce).unwrap());
        }
        assert!(coll.try_delete(3).unwrap());
        assert!(coll.try_delete(inserted[0]).unwrap());
        assert!(!coll.try_delete(inserted[0]).unwrap(), "dead id refused, not re-logged");
        let live_before: Vec<bool> = (0..coll.slots() as u32).map(|id| coll.is_live(id)).collect();
        drop(coll);
        drop(catalog);

        let (reloaded, reports) = Catalog::load_dir_durable(&dir, opts).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].replayed, 8, "6 inserts + 2 deletes");
        assert_eq!(reports[0].truncated_bytes, 0);
        let coll = reloaded.get("docs").unwrap();
        let live_after: Vec<bool> = (0..coll.slots() as u32).map(|id| coll.is_live(id)).collect();
        assert_eq!(live_after, live_before, "replayed liveness diverged");

        // The replayed index answers: a query for a replayed insert
        // finds it.
        let mut user = owner.authorize_user();
        let out = coll
            .search(&user.encrypt_query(&data[4], 1), &SearchParams { k_prime: 10, ef_search: 20 });
        assert_eq!(out.ids, vec![inserted[4]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crossing the byte threshold compacts: the snapshot absorbs the
    /// log, the log restarts near-empty, and a reload replays only the
    /// post-compaction suffix — restart cost is log-bounded.
    #[test]
    fn compaction_bounds_the_log_and_reload_replays_the_suffix() {
        let dir = temp_dir("compact");
        let (data, owner, db) = make_db(20, 4, 51);
        let catalog = Catalog::new();
        // Tiny threshold: a handful of dim-4 inserts (~200 bytes each)
        // crosses it quickly.
        let opts = DurabilityOptions { compact_bytes: 1024, ..DurabilityOptions::default() };
        let coll = catalog.create_durable("churn", db, &dir, opts).unwrap();
        for round in 0..30 {
            let (c_sap, c_dce) = owner.encrypt_for_insert(&data[round % data.len()], 1);
            coll.insert(c_sap, c_dce).unwrap();
            let status = coll.wal_status().unwrap();
            // One oversized record may land before the threshold check,
            // but the log can never *stay* above threshold + one record.
            assert!(
                status.log_bytes < opts.compact_bytes + 512,
                "log grew unbounded: {} bytes after round {round}",
                status.log_bytes
            );
        }
        let status = coll.wal_status().unwrap();
        assert!(status.compactions > 0, "threshold never triggered");
        let live: Vec<bool> = (0..coll.slots() as u32).map(|id| coll.is_live(id)).collect();
        drop(coll);
        drop(catalog);

        let (reloaded, reports) = Catalog::load_dir_durable(&dir, opts).unwrap();
        assert!(
            reports[0].replayed < 30,
            "reload replayed the full history ({}) — compaction did not absorb it",
            reports[0].replayed
        );
        let coll = reloaded.get("churn").unwrap();
        assert_eq!(
            (0..coll.slots() as u32).map(|id| coll.is_live(id)).collect::<Vec<_>>(),
            live,
            "post-compaction reload diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A WAL sealed against an older snapshot (the crashed-compaction
    /// window: new snapshot renamed, new log not yet) is discarded on
    /// load instead of being half-applied to the wrong base.
    #[test]
    fn stale_wal_is_discarded_not_misapplied() {
        let dir = temp_dir("stale");
        let (data, owner, db) = make_db(10, 4, 52);
        let opts = DurabilityOptions::default();
        {
            let catalog = Catalog::new();
            let coll = catalog.create_durable("c", db, &dir, opts).unwrap();
            let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 1);
            coll.insert(c_sap, c_dce).unwrap();
            // Simulate the crash window: the snapshot is rewritten (as
            // compaction's step 2 does) but the log is NOT resealed.
            let meta = CollectionMeta { name: "c".into(), shards: 1 };
            let coll = catalog.get("c").unwrap();
            write_collection_snapshot(&dir.join("c.ppdb"), &meta, coll.server.read().database())
                .unwrap();
        }
        let (reloaded, reports) = Catalog::load_dir_durable(&dir, opts).unwrap();
        assert!(reports[0].discarded, "stale log must be discarded");
        assert_eq!(reports[0].replayed, 0);
        let coll = reloaded.get("c").unwrap();
        // Nothing lost: the rewritten snapshot already contains the
        // logged insert.
        assert_eq!(coll.slots(), 11);
        assert!(coll.is_live(10));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The failed-compaction window the reviewer of PR 6 flagged: the
    /// snapshot rename succeeded but the fresh log could not be sealed.
    /// The old log is now stale (replay would discard it), so mutations
    /// must FAIL — an ack appended there would silently vanish on
    /// restart — until a retried reseal succeeds.
    #[test]
    fn failed_reseal_refuses_acks_until_it_succeeds() {
        let dir = temp_dir("reseal");
        let (data, owner, db) = make_db(10, 4, 53);
        let catalog = Catalog::new();
        let opts = DurabilityOptions::default();
        let coll = catalog.create_durable("p", db, &dir, opts).unwrap();
        let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 1);
        let first = coll.insert(c_sap, c_dce).unwrap();

        // Block the reseal only: `create_sealed` stages the new log at
        // `p.wal.tmp`, so a directory squatting on that path makes it
        // fail while the snapshot rewrite (staged at `p.ppdb.tmp`)
        // succeeds — exactly the half-failed compaction.
        let block = dir.join("p.wal.tmp");
        std::fs::create_dir(&block).unwrap();
        assert!(coll.compact().is_err(), "compaction must surface the reseal failure");

        // Poisoned: the mutation may not be acknowledged (its append
        // would land in the stale log and be discarded on restart).
        let (c_sap, c_dce) = owner.encrypt_for_insert(&data[1], 1);
        assert!(coll.insert(c_sap, c_dce).is_err(), "ack against a stale log");
        assert!(coll.try_delete(first).is_err(), "delete ack against a stale log");
        assert!(coll.is_live(first), "failed delete must not touch the server");

        // Unblock: the next mutation retries the reseal and acks again.
        std::fs::remove_dir(&block).unwrap();
        let (c_sap, c_dce) = owner.encrypt_for_insert(&data[1], 1);
        let second = coll.insert(c_sap, c_dce).unwrap();
        assert!(coll.wal_status().unwrap().compactions > 0, "retried reseal completes compaction");
        let live: Vec<bool> = (0..coll.slots() as u32).map(|id| coll.is_live(id)).collect();
        drop(coll);
        drop(catalog);

        // Restart: everything acknowledged is there, nothing else.
        let (reloaded, _) = Catalog::load_dir_durable(&dir, opts).unwrap();
        let coll = reloaded.get("p").unwrap();
        assert!(coll.is_live(second));
        assert_eq!(
            (0..coll.slots() as u32).map(|id| coll.is_live(id)).collect::<Vec<_>>(),
            live,
            "acknowledged state lost across the failed-compaction window"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A drop racing a mutation that still holds the collection handle:
    /// `drop_collection` alone removes both files and retires the
    /// handle, which can then neither ack nor — via a threshold-crossing
    /// compaction — recreate the deleted files, so a restart cannot
    /// resurrect the dropped collection.
    #[test]
    fn retired_collection_cannot_resurrect_through_compaction() {
        let dir = temp_dir("retire");
        let (data, owner, db) = make_db(10, 4, 54);
        let catalog = Catalog::new();
        // Threshold of 1 byte: every mutation would trigger compaction.
        let opts = DurabilityOptions { compact_bytes: 1, ..DurabilityOptions::default() };
        let coll = catalog.create_durable("r", db, &dir, opts).unwrap();
        let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 1);
        coll.insert(c_sap, c_dce).unwrap();

        catalog.drop_collection("r").unwrap();
        assert!(!dir.join("r.ppdb").exists() && !dir.join("r.wal").exists());

        // The stale handle: mutations fail unacknowledged, explicit
        // compaction fails, and neither recreates a file.
        let (c_sap, c_dce) = owner.encrypt_for_insert(&data[1], 1);
        assert!(coll.insert(c_sap, c_dce).is_err());
        assert!(coll.try_delete(0).is_err());
        assert!(coll.compact().is_err());
        assert!(
            !dir.join("r.ppdb").exists() && !dir.join("r.wal").exists(),
            "dropped collection's files resurrected"
        );

        let (reloaded, _) = Catalog::load_dir_durable(&dir, opts).unwrap();
        assert!(reloaded.is_empty(), "dropped collection came back on restart");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A drop that waits for a busy log (a compaction or append holding
    /// its mutex) waits outside the map lock, so lookups go on. The pause
    /// only lets the drop reach the log mutex; the assertions hold in
    /// every interleaving.
    #[test]
    fn a_drop_waiting_on_a_busy_log_leaves_lookups_free() {
        let dir = temp_dir("busy_drop");
        let catalog = Arc::new(Catalog::new());
        let opts = DurabilityOptions::default();
        let busy = catalog.create_durable("busy", make_db(10, 4, 56).2, &dir, opts).unwrap();
        catalog.create("other", make_db(10, 4, 57).2).unwrap();
        let log = busy.wal.as_ref().unwrap().lock();
        let dropper = std::thread::spawn({
            let catalog = Arc::clone(&catalog);
            move || catalog.drop_collection("busy").is_ok()
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (tx, rx) = std::sync::mpsc::channel();
        let lookup = std::thread::spawn({
            let catalog = Arc::clone(&catalog);
            move || tx.send((catalog.get("other").is_some(), catalog.get("busy").is_some()))
        });
        let answered = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(log);
        assert_eq!(answered, Ok((true, true)), "a lookup waited on a drop's busy log");
        lookup.join().unwrap().unwrap();
        assert!(dropper.join().unwrap());
        assert!(catalog.get("busy").is_none() && !dir.join("busy.ppdb").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replay checks a row's DCE width against the index dimension, not
    /// against the rows already stored: a log whose first insert over an
    /// empty snapshot has the wrong width is truncated at that record.
    #[test]
    fn replay_truncates_at_a_wrong_width_first_insert() {
        let dir = temp_dir("width");
        let opts = DurabilityOptions::default();
        let catalog = Catalog::new();
        catalog.create_durable("w", EncryptedDatabase::empty(4), &dir, opts).unwrap();
        drop(catalog);
        let row = || vec![0.5; 3];
        let bad = WalRecord::Insert {
            id: 0,
            c_sap: vec![0.25; 4],
            c_dce: DceCiphertext::from_components(row(), row(), row(), row()),
        };
        let log = wal_path_for(&dir.join("w.ppdb"));
        WalWriter::open_append(&log, opts.fsync).unwrap().append(&bad).unwrap();

        let (reloaded, reports) = Catalog::load_dir_durable(&dir, opts).unwrap();
        assert_eq!(reports[0].replayed, 0);
        assert_eq!(reports[0].truncated_bytes, bad.encode().len() as u64);
        assert!(!reports[0].discarded);
        assert_eq!(reloaded.get("w").unwrap().slots(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A client insert that lands between a replicated insert's arrival
    /// and its apply (a follower promoted mid-stream) takes the slot the
    /// record names. The record is then stale: it must be refused, never
    /// stored under another id. The replicated apply is parked behind a
    /// read guard and the client insert barges in when the guard drops;
    /// the pause only lets the apply reach the lock, and the assertions
    /// hold under every interleaving.
    #[test]
    fn replicated_insert_with_a_stale_id_is_refused() {
        let (data, owner, db) = make_db(20, 4, 55);
        let coll = Catalog::new().create("f", db).unwrap();
        for round in 0..4 {
            let next = coll.slots() as u32;
            let (c_sap, c_dce) = owner.encrypt_for_insert(&data[round], 1);
            let record = WalRecord::Insert { id: next, c_sap: c_sap.clone(), c_dce };
            let (client_sap, client_dce) = owner.encrypt_for_insert(&data[round + 10], 2);
            let guard = coll.server.read();
            let replicated = std::thread::spawn({
                let coll = Arc::clone(&coll);
                move || coll.apply_replicated(record)
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(guard);
            let client = coll.insert(client_sap.clone(), client_dce).unwrap();
            let winner = match replicated.join().expect("replicated apply panicked") {
                Ok(id) => {
                    assert_eq!(id, next, "replicated row stored under another id");
                    c_sap
                }
                Err(e) => {
                    assert!(matches!(e, MutationError::IdMismatch { .. }), "{e}");
                    assert_eq!(client, next);
                    client_sap
                }
            };
            let stored = coll.server.read().database().hnsw().store().get(next).to_vec();
            assert_eq!(stored, winner, "round {round}: slot {next} holds the wrong row");
        }
    }

    #[test]
    fn empty_database_collections_accept_inserts() {
        let catalog = Catalog::new();
        let coll = catalog.create("fresh", EncryptedDatabase::empty(4)).unwrap();
        assert_eq!(coll.live_len(), 0);
        assert_eq!(coll.dim(), 4);
        // Populate through the handle, then search.
        let data = vec![vec![0.1, 0.2, 0.3, 0.4], vec![0.9, 0.8, 0.7, 0.6]];
        let owner = DataOwner::setup(PpAnnParams::new(4).with_seed(39).with_beta(0.0), &data);
        for v in &data {
            let (c_sap, c_dce) = owner.encrypt_for_insert(v, 1);
            coll.insert(c_sap, c_dce).unwrap();
        }
        assert_eq!(coll.live_len(), 2);
        let mut user = owner.authorize_user();
        let out = coll
            .search(&user.encrypt_query(&data[1], 1), &SearchParams { k_prime: 4, ef_search: 8 });
        assert_eq!(out.ids, vec![1]);
    }

    /// Concurrent searches on the shared lock interleave with an insert
    /// and a delete on the exclusive one.
    #[test]
    fn parallel_queries_and_maintenance() {
        let (data, owner, db) = make_db(200, 6, 161);
        let coll = Catalog::new().create("shared", db).unwrap();
        let mut user = owner.authorize_user();
        let queries: Vec<_> = (0..16).map(|i| user.encrypt_query(&data[i], 5)).collect();

        std::thread::scope(|scope| {
            for chunk in queries.chunks(4) {
                let coll = &coll;
                scope.spawn(move || {
                    for q in chunk {
                        let out = coll.search(q, &SearchParams { k_prime: 20, ef_search: 40 });
                        assert_eq!(out.ids.len(), 5);
                    }
                });
            }
            let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 99);
            let coll = &coll;
            scope.spawn(move || {
                let id = coll.insert(c_sap, c_dce).unwrap();
                assert!(coll.try_delete(id).unwrap());
            });
        });
        assert_eq!(coll.live_len(), 200);
    }

    /// A v2 snapshot written by the retired sharded shape (header
    /// `shards: 2`, inner image the whole database) loads as one index
    /// through both loaders, answers exactly like a `CloudServer` built
    /// from the same image, and keeps answering after a compaction
    /// rewrites it with `shards: 1`.
    #[test]
    fn legacy_sharded_snapshot_loads_as_one_index() {
        let dir = temp_dir("legacy_sharded");
        let (data, owner, db) = make_db(60, 4, 41);
        let image = db.to_bytes();
        let meta = CollectionMeta { name: "old".into(), shards: 2 };
        save_collection_snapshot(&dir.join("old.ppdb"), &meta, &db).unwrap();
        let reference = CloudServer::new(db);
        let mut user = owner.authorize_user();
        let params = SearchParams { k_prime: 20, ef_search: 40 };
        let queries: Vec<_> = (0..10).map(|i| user.encrypt_query(&data[i * 5], 4)).collect();
        let expected: Vec<Vec<u32>> =
            queries.iter().map(|q| reference.search(q, &params).ids).collect();
        let answers = |coll: &Collection| -> Vec<Vec<u32>> {
            queries.iter().map(|q| coll.search(q, &params).ids).collect()
        };

        let (plain, _) = Catalog::load_dir_durable(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(answers(&plain.get("old").unwrap()), expected, "load_dir");
        drop(plain);

        let opts = DurabilityOptions::default();
        let (durable, _) = Catalog::load_dir_durable(&dir, opts).unwrap();
        let coll = durable.get("old").unwrap();
        assert_eq!(coll.server.read().database().to_bytes(), image, "image changed on load");
        assert_eq!(answers(&coll), expected, "load_dir_durable");
        assert!(coll.compact().unwrap());
        assert_eq!(answers(&coll), expected, "after compact");
        drop((coll, durable));

        let raw = std::fs::read(dir.join("old.ppdb")).unwrap();
        let (meta, _) = crate::persist::load_snapshot_bytes(raw).unwrap();
        assert_eq!(meta.unwrap().shards, 1, "compaction rewrites the retired count");
        let (reloaded, _) = Catalog::load_dir_durable(&dir, opts).unwrap();
        assert_eq!(answers(&reloaded.get("old").unwrap()), expected, "reload after compact");
        std::fs::remove_dir_all(&dir).ok();
    }
}
