//! The blocking client library.
//!
//! [`ServiceClient`] speaks one in-flight request per connection by
//! default (strict request/response); for throughput it also offers
//! [`ServiceClient::search_batch`] — many queries in one `SearchBatch`
//! frame, answered as a unit by the server's worker pool — and
//! [`ServiceClient::search_pipelined`] — up to a window of single-query
//! frames in flight, paired with replies positionally (PROTOCOL.md §4).
//! Open several clients for connection-level concurrency on top — the
//! `remote_throughput` bench does. The client is
//! deliberately key-free: it ships pre-encrypted material produced by
//! [`ppann_core::QueryUser`] / [`ppann_core::DataOwner`] and never sees
//! key bundles, mirroring the trust split of the paper's Figure 1.

use crate::io::{read_frame, write_frame, FrameReadError};
use crate::wire::{CollectionEntry, ErrorCode, Frame, WireName, DEFAULT_MAX_FRAME};
use ppann_core::{EncryptedQuery, SearchOutcome, SearchParams, StatsSnapshot};
use ppann_dce::DceCiphertext;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Turns an optional collection name into its wire form. `None` selects
/// the legacy version-1 frames, which servers route to `"default"`.
fn wire_name(collection: Option<&str>) -> Option<WireName> {
    collection.map(|name| name.as_bytes().to_vec())
}

/// Default per-call deadline: how long [`ServiceClient`] waits for a
/// complete reply before failing the call with a timed-out
/// [`ClientError::Io`]. Without one, a hung server would block the
/// client forever.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket read timeout granularity; each expiry re-checks the call
/// deadline without losing partially read bytes.
const READ_POLL: Duration = Duration::from_millis(100);

/// Default in-flight window for [`ServiceClient::search_pipelined`]: deep
/// enough to hide the per-frame round trip, shallow enough that the
/// un-read replies queueing in the two TCP buffers stay far from filling
/// them (which would stall the server's writes — see PROTOCOL.md §4).
pub const DEFAULT_PIPELINE_WINDOW: usize = 32;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, truncation).
    Io(std::io::Error),
    /// The server sent bytes that are not the expected protocol.
    Protocol(String),
    /// The server answered with an error frame.
    Remote {
        /// Error class reported by the server.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            // Some refusals already open with their code's name
            // ("unknown collection `x`"): print the code once.
            ClientError::Remote { code, message } if message.starts_with(&code.to_string()) => {
                write!(f, "server: {message}")
            }
            ClientError::Remote { code, message } => write!(f, "server: {code}: {message}"),
        }
    }
}
impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(e) => ClientError::Io(e),
            FrameReadError::Protocol(p) => ClientError::Protocol(p.to_string()),
            FrameReadError::TimedOut => ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "call deadline expired waiting for the server's reply",
            )),
            FrameReadError::Stopped => ClientError::Protocol("read interrupted".into()),
        }
    }
}

/// A blocking connection to a `ppann-service` server.
pub struct ServiceClient {
    stream: TcpStream,
    max_frame: u32,
    call_timeout: Duration,
    /// Set when a call failed with the stream in an unknown state (timed
    /// out, truncated, closed): a late reply could otherwise be consumed
    /// as the answer to the *next* request. Poisoned clients refuse
    /// further calls — reconnect.
    poisoned: bool,
    server_dim: u64,
    server_live: u64,
}

impl ServiceClient {
    /// Connects and performs the `Hello`/`HelloAck` handshake. Pass the
    /// dimensionality you will query with — the server refuses mismatches
    /// up front — or `None` to accept whatever the server serves. Every
    /// call (including the handshake) is bounded by
    /// [`DEFAULT_CALL_TIMEOUT`]; use [`Self::connect_with_timeout`] to
    /// choose your own.
    pub fn connect<A: ToSocketAddrs>(addr: A, dim: Option<usize>) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, dim, DEFAULT_CALL_TIMEOUT)
    }

    /// [`Self::connect`] with an explicit per-call deadline: the TCP
    /// connect and each request/response exchange that has not completed
    /// within `call_timeout` fails with a timed-out [`ClientError::Io`]
    /// (the connection is unusable afterwards — reconnect).
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        dim: Option<usize>,
        call_timeout: Duration,
    ) -> Result<Self, ClientError> {
        // TcpStream::connect has no deadline of its own (a black-holed
        // address would block for the OS default, minutes on some
        // systems) — try the resolved addresses under ONE shared call
        // budget, handing each candidate only what remains of it.
        let connect_deadline = Instant::now().checked_add(call_timeout);
        let mut last_err: Option<std::io::Error> = None;
        let mut connected = None;
        for candidate in addr.to_socket_addrs()? {
            let remaining = connect_deadline
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(call_timeout);
            if remaining.is_zero() {
                last_err = Some(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "call deadline expired while connecting",
                ));
                break;
            }
            match TcpStream::connect_timeout(&candidate, remaining) {
                Ok(s) => {
                    connected = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = connected.ok_or_else(|| {
            ClientError::Io(last_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
            }))
        })?;
        stream.set_nodelay(true)?;
        // Short read timeout for deadline polling; writes get the full
        // call budget per syscall.
        stream.set_read_timeout(Some(READ_POLL))?;
        stream.set_write_timeout(Some(call_timeout))?;
        let mut client = Self {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            call_timeout,
            poisoned: false,
            server_dim: 0,
            server_live: 0,
        };
        let hello = Frame::Hello { dim: dim.map_or(0, |d| d as u64) };
        match client.call(&hello)? {
            Frame::HelloAck { dim, live } => {
                client.server_dim = dim;
                client.server_live = live;
                Ok(client)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// The dimensionality the server reported at handshake.
    pub fn server_dim(&self) -> usize {
        self.server_dim as usize
    }

    /// The live vector count the server reported at handshake.
    pub fn server_live(&self) -> u64 {
        self.server_live
    }

    /// Sends one encrypted query and returns the decoded outcome. The
    /// `cost.server_time` field is the server's measurement rounded to
    /// microseconds; ids and encrypted distances are bit-exact.
    ///
    /// Sent as a legacy (version-1) frame, answered from the server's
    /// `"default"` collection; use [`Self::search_in`] to target a named
    /// collection.
    pub fn search(
        &mut self,
        query: &EncryptedQuery,
        params: &SearchParams,
    ) -> Result<SearchOutcome, ClientError> {
        self.search_opt(None, query, params)
    }

    /// [`Self::search`] against the named collection (version-2 frame).
    pub fn search_in(
        &mut self,
        collection: &str,
        query: &EncryptedQuery,
        params: &SearchParams,
    ) -> Result<SearchOutcome, ClientError> {
        self.search_opt(Some(collection), query, params)
    }

    fn search_opt(
        &mut self,
        collection: Option<&str>,
        query: &EncryptedQuery,
        params: &SearchParams,
    ) -> Result<SearchOutcome, ClientError> {
        let frame = Frame::Search {
            collection: wire_name(collection),
            params: *params,
            query: query.clone(),
        };
        match self.call(&frame)? {
            Frame::SearchResult(outcome) => Ok(outcome),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends one `SearchBatch` frame and returns the decoded outcomes, in
    /// query order. The server answers the whole batch as a unit, fanning
    /// it across its worker pool — one round trip and one frame pair for
    /// the lot, which is what amortizes the wire cost (PROTOCOL.md §3.14).
    ///
    /// An empty slice returns `Ok(vec![])` without touching the wire
    /// (servers refuse empty batches). Batches above the server's
    /// configured limit (default 1024) come back as a
    /// [`ClientError::Remote`] with [`ErrorCode::BadRequest`]; chunk large
    /// query sets client-side.
    pub fn search_batch(
        &mut self,
        queries: &[EncryptedQuery],
        params: &SearchParams,
    ) -> Result<Vec<SearchOutcome>, ClientError> {
        self.search_batch_opt(None, queries, params)
    }

    /// [`Self::search_batch`] against the named collection (version-2
    /// frame).
    pub fn search_batch_in(
        &mut self,
        collection: &str,
        queries: &[EncryptedQuery],
        params: &SearchParams,
    ) -> Result<Vec<SearchOutcome>, ClientError> {
        self.search_batch_opt(Some(collection), queries, params)
    }

    fn search_batch_opt(
        &mut self,
        collection: Option<&str>,
        queries: &[EncryptedQuery],
        params: &SearchParams,
    ) -> Result<Vec<SearchOutcome>, ClientError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let frame = Frame::SearchBatch {
            collection: wire_name(collection),
            params: *params,
            queries: queries.to_vec(),
        };
        match self.call(&frame)? {
            Frame::SearchBatchResult(outcomes) => {
                if outcomes.len() != queries.len() {
                    self.poisoned = true;
                    return Err(ClientError::Protocol(format!(
                        "batch of {} queries answered with {} outcomes",
                        queries.len(),
                        outcomes.len()
                    )));
                }
                Ok(outcomes)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Runs many single-query `Search` exchanges with up to `window`
    /// frames in flight, returning the outcomes in query order. The
    /// server answers frames on one connection strictly in arrival order
    /// (PROTOCOL.md §4), so replies pair with requests positionally.
    ///
    /// Compared to [`Self::search_batch`] this keeps per-query framing
    /// (useful when queries carry different `k`, or to smooth latency
    /// rather than maximize throughput) while still hiding the round-trip
    /// stalls of the strict one-at-a-time loop. `window` is clamped to
    /// ≥ 1; [`DEFAULT_PIPELINE_WINDOW`] is a good default.
    ///
    /// Any failure mid-pipeline — including a server `Error` reply —
    /// poisons the client: with several requests in flight the stream
    /// position is no longer provably aligned, so the connection must be
    /// re-established. Validate knobs against the server's limits before
    /// pipelining.
    pub fn search_pipelined(
        &mut self,
        queries: &[EncryptedQuery],
        params: &SearchParams,
        window: usize,
    ) -> Result<Vec<SearchOutcome>, ClientError> {
        self.search_pipelined_opt(None, queries, params, window)
    }

    /// [`Self::search_pipelined`] against the named collection
    /// (version-2 frames).
    pub fn search_pipelined_in(
        &mut self,
        collection: &str,
        queries: &[EncryptedQuery],
        params: &SearchParams,
        window: usize,
    ) -> Result<Vec<SearchOutcome>, ClientError> {
        self.search_pipelined_opt(Some(collection), queries, params, window)
    }

    fn search_pipelined_opt(
        &mut self,
        collection: Option<&str>,
        queries: &[EncryptedQuery],
        params: &SearchParams,
        window: usize,
    ) -> Result<Vec<SearchOutcome>, ClientError> {
        if self.poisoned {
            return Err(ClientError::Protocol(
                "connection poisoned by an earlier failed call — reconnect".into(),
            ));
        }
        let collection = wire_name(collection);
        let window = window.max(1);
        let mut outcomes = Vec::with_capacity(queries.len());
        let mut next = 0usize;
        while outcomes.len() < queries.len() {
            // Top up the window, then block on the oldest reply. Each
            // reply read gets the full per-call budget.
            while next < queries.len() && next - outcomes.len() < window {
                let frame = Frame::Search {
                    collection: collection.clone(),
                    params: *params,
                    query: queries[next].clone(),
                };
                if let Err(e) = write_frame(&mut self.stream, &frame) {
                    self.poisoned = true;
                    return Err(e.into());
                }
                next += 1;
            }
            let deadline = Instant::now().checked_add(self.call_timeout);
            match read_frame(&mut self.stream, self.max_frame, None, deadline) {
                Ok(Some((Frame::SearchResult(outcome), _))) => outcomes.push(outcome),
                Ok(Some((Frame::Error { code, message }, _))) => {
                    self.poisoned = true;
                    return Err(ClientError::Remote { code, message });
                }
                Ok(Some((frame, _))) => {
                    self.poisoned = true;
                    return Err(unexpected(&frame));
                }
                Ok(None) => {
                    self.poisoned = true;
                    return Err(ClientError::Protocol("server closed the connection".into()));
                }
                Err(e) => {
                    self.poisoned = true;
                    return Err(e.into());
                }
            }
        }
        Ok(outcomes)
    }

    /// Owner-authenticated insertion into the `"default"` collection;
    /// returns the id the server assigned.
    pub fn insert(
        &mut self,
        token: u64,
        c_sap: Vec<f64>,
        c_dce: DceCiphertext,
    ) -> Result<u32, ClientError> {
        self.insert_opt(None, token, c_sap, c_dce)
    }

    /// [`Self::insert`] into the named collection (version-2 frame).
    pub fn insert_in(
        &mut self,
        collection: &str,
        token: u64,
        c_sap: Vec<f64>,
        c_dce: DceCiphertext,
    ) -> Result<u32, ClientError> {
        self.insert_opt(Some(collection), token, c_sap, c_dce)
    }

    fn insert_opt(
        &mut self,
        collection: Option<&str>,
        token: u64,
        c_sap: Vec<f64>,
        c_dce: DceCiphertext,
    ) -> Result<u32, ClientError> {
        let frame = Frame::Insert { collection: wire_name(collection), token, c_sap, c_dce };
        match self.call(&frame)? {
            Frame::InsertAck { id } => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Owner-authenticated deletion by id from the `"default"` collection.
    pub fn delete(&mut self, token: u64, id: u32) -> Result<(), ClientError> {
        self.delete_opt(None, token, id)
    }

    /// [`Self::delete`] from the named collection (version-2 frame).
    pub fn delete_in(&mut self, collection: &str, token: u64, id: u32) -> Result<(), ClientError> {
        self.delete_opt(Some(collection), token, id)
    }

    fn delete_opt(
        &mut self,
        collection: Option<&str>,
        token: u64,
        id: u32,
    ) -> Result<(), ClientError> {
        match self.call(&Frame::Delete { collection: wire_name(collection), token, id })? {
            Frame::DeleteAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the aggregate (process-wide) service counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.stats_opt(None)
    }

    /// Fetches one collection's counters (version-2 frame): the frames
    /// routed to that collection plus its own live count and uptime.
    pub fn stats_in(&mut self, collection: &str) -> Result<StatsSnapshot, ClientError> {
        self.stats_opt(Some(collection))
    }

    fn stats_opt(&mut self, collection: Option<&str>) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Frame::Stats { collection: wire_name(collection) })? {
            Frame::StatsReply(snap) => Ok(snap),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists every collection the server holds, sorted by name.
    pub fn list_collections(&mut self) -> Result<Vec<CollectionEntry>, ClientError> {
        match self.call(&Frame::ListCollections)? {
            Frame::ListCollectionsReply(entries) => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Owner-authenticated creation of a fresh, empty collection of the
    /// given dimensionality (one index; the frame's retired `shards` field
    /// is sent as 1). On a `--data-dir` server the snapshot file is
    /// written before this returns. Populate it with [`Self::insert_in`].
    pub fn create_collection(
        &mut self,
        token: u64,
        name: &str,
        dim: usize,
    ) -> Result<(), ClientError> {
        let frame = Frame::CreateCollection {
            token,
            name: name.as_bytes().to_vec(),
            dim: dim as u64,
            shards: 1,
        };
        match self.call(&frame)? {
            Frame::CreateCollectionAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Owner-authenticated removal of a collection (and of its snapshot
    /// file on a `--data-dir` server).
    pub fn drop_collection(&mut self, token: u64, name: &str) -> Result<(), ClientError> {
        match self.call(&Frame::DropCollection { token, name: name.as_bytes().to_vec() })? {
            Frame::DropCollectionAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Owner-authenticated graceful shutdown. On `Ok` the server has
    /// acknowledged and will stop accepting connections.
    pub fn shutdown(&mut self, token: u64) -> Result<(), ClientError> {
        match self.call(&Frame::Shutdown { token })? {
            Frame::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Owner-authenticated promotion of a replication follower to
    /// primary: from the ack on, the server accepts mutations and stops
    /// pulling from its old upstream. Idempotent — a primary acks too.
    /// See OPERATIONS.md §10 for the promotion runbook.
    pub fn promote(&mut self, token: u64) -> Result<(), ClientError> {
        match self.call(&Frame::Promote { token })? {
            Frame::PromoteAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// One request/response exchange, bounded by the call deadline.
    /// Error frames surface as [`ClientError::Remote`]; any other
    /// failure leaves the stream in an unknown state (a late reply could
    /// be mistaken for the next call's answer), so it poisons the client
    /// and every later call fails immediately — reconnect.
    fn call(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        if self.poisoned {
            return Err(ClientError::Protocol(
                "connection poisoned by an earlier failed call — reconnect".into(),
            ));
        }
        if let Err(e) = write_frame(&mut self.stream, request) {
            self.poisoned = true;
            return Err(e.into());
        }
        let deadline = Instant::now().checked_add(self.call_timeout);
        match read_frame(&mut self.stream, self.max_frame, None, deadline) {
            Ok(Some((Frame::Error { code, message }, _))) => {
                // The exchange completed; the stream is still in sync.
                Err(ClientError::Remote { code, message })
            }
            Ok(Some((frame, _))) => Ok(frame),
            Ok(None) => {
                self.poisoned = true;
                Err(ClientError::Protocol("server closed the connection".into()))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e.into())
            }
        }
    }
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("server_dim", &self.server_dim)
            .field("server_live", &self.server_live)
            .finish_non_exhaustive()
    }
}

fn unexpected(frame: &Frame) -> ClientError {
    ClientError::Protocol(format!("unexpected reply frame tag {:#04x}", frame.tag()))
}

/// One node of a [`ReplicaSet`]: its address, and a lazily established
/// connection that is torn down (and later re-dialed) on any transport
/// failure.
struct ReplicaNode {
    addr: String,
    client: Option<ServiceClient>,
}

/// A topology-aware client over one primary plus any number of
/// replication followers (see `OPERATIONS.md` §10).
///
/// * **Writes** (`insert`/`delete`/collection lifecycle) are pinned to
///   the primary — node 0. Followers would refuse them with
///   [`ErrorCode::NotPrimary`] anyway, so there is nothing to fail over
///   to; a write failure surfaces immediately.
/// * **Reads** (`search`/`search_batch`/`stats`) rotate round-robin
///   across *all* nodes — the primary serves reads too — and **fail
///   over**: a node that cannot be dialed, times out, or breaks the
///   stream is skipped (its connection dropped for a later re-dial) and
///   the next node answers. One failed node therefore costs at most one
///   call timeout before the read lands elsewhere. Server-answered
///   errors ([`ClientError::Remote`]) are real answers and surface
///   without failover.
/// * **Failover of the write role** is manual: [`Self::promote`] sends
///   an owner-authenticated `Promote` to a chosen follower and repins
///   writes to it.
///
/// Connections are established lazily, per node, on first use — a hung
/// primary cannot block construction of the set.
///
/// Followers replicate asynchronously, so a read after an acked write
/// may briefly see the previous state on a follower (read-your-writes
/// requires reading the primary; see OPERATIONS.md §10).
pub struct ReplicaSet {
    nodes: Vec<ReplicaNode>,
    next_read: usize,
    dim: Option<usize>,
    call_timeout: Duration,
}

impl ReplicaSet {
    /// Builds a replica set over `addrs` — the primary first, then the
    /// followers — with [`DEFAULT_CALL_TIMEOUT`] per call. No connection
    /// is attempted until the first call needs one.
    pub fn connect_replicas<S: Into<String>>(
        addrs: impl IntoIterator<Item = S>,
        dim: Option<usize>,
    ) -> Result<Self, ClientError> {
        Self::connect_replicas_with_timeout(addrs, dim, DEFAULT_CALL_TIMEOUT)
    }

    /// [`Self::connect_replicas`] with an explicit per-call deadline —
    /// the bound on how long a dead node can delay a failing-over read.
    pub fn connect_replicas_with_timeout<S: Into<String>>(
        addrs: impl IntoIterator<Item = S>,
        dim: Option<usize>,
        call_timeout: Duration,
    ) -> Result<Self, ClientError> {
        let nodes: Vec<ReplicaNode> =
            addrs.into_iter().map(|addr| ReplicaNode { addr: addr.into(), client: None }).collect();
        if nodes.is_empty() {
            return Err(ClientError::Protocol("a replica set needs at least one node".into()));
        }
        Ok(Self { nodes, next_read: 0, dim, call_timeout })
    }

    /// Node count (primary included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a single-node "set" (no follower to fail over to).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The address writes are currently pinned to.
    pub fn primary_addr(&self) -> &str {
        &self.nodes[0].addr
    }

    /// The client for `node`, dialing it if not yet connected.
    fn client_at(&mut self, node: usize) -> Result<&mut ServiceClient, ClientError> {
        let slot = &mut self.nodes[node];
        if slot.client.is_none() {
            slot.client = Some(ServiceClient::connect_with_timeout(
                slot.addr.as_str(),
                self.dim,
                self.call_timeout,
            )?);
        }
        Ok(slot.client.as_mut().expect("just connected"))
    }

    /// Runs `op` against node `node`, dropping its connection on any
    /// transport-level failure so the next use re-dials.
    fn call_node<T>(
        &mut self,
        node: usize,
        op: &mut dyn FnMut(&mut ServiceClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let outcome = self.client_at(node).and_then(&mut *op);
        if matches!(outcome, Err(ClientError::Io(_)) | Err(ClientError::Protocol(_))) {
            self.nodes[node].client = None;
        }
        outcome
    }

    /// One read with rotation + failover. `Remote` errors are answers
    /// (the node is healthy) and surface without trying another node.
    fn read<T>(
        &mut self,
        mut op: impl FnMut(&mut ServiceClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let n = self.nodes.len();
        let mut last_err = None;
        for attempt in 0..n {
            let node = (self.next_read + attempt) % n;
            match self.call_node(node, &mut op) {
                Ok(value) => {
                    self.next_read = (node + 1) % n;
                    return Ok(value);
                }
                Err(e @ ClientError::Remote { .. }) => {
                    self.next_read = (node + 1) % n;
                    return Err(e);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one node was tried"))
    }

    /// One write, pinned to the primary (node 0). No failover: a
    /// follower would refuse the write anyway.
    fn write<T>(
        &mut self,
        mut op: impl FnMut(&mut ServiceClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.call_node(0, &mut op)
    }

    /// [`ServiceClient::search_in`] with follower failover.
    pub fn search_in(
        &mut self,
        collection: &str,
        query: &EncryptedQuery,
        params: &SearchParams,
    ) -> Result<SearchOutcome, ClientError> {
        self.read(|client| client.search_in(collection, query, params))
    }

    /// [`ServiceClient::search`] (default collection) with failover.
    pub fn search(
        &mut self,
        query: &EncryptedQuery,
        params: &SearchParams,
    ) -> Result<SearchOutcome, ClientError> {
        self.read(|client| client.search(query, params))
    }

    /// [`ServiceClient::search_batch_in`] with follower failover.
    pub fn search_batch_in(
        &mut self,
        collection: &str,
        queries: &[EncryptedQuery],
        params: &SearchParams,
    ) -> Result<Vec<SearchOutcome>, ClientError> {
        self.read(|client| client.search_batch_in(collection, queries, params))
    }

    /// [`ServiceClient::stats_in`] with follower failover.
    pub fn stats_in(&mut self, collection: &str) -> Result<StatsSnapshot, ClientError> {
        self.read(|client| client.stats_in(collection))
    }

    /// [`ServiceClient::list_collections`] with follower failover.
    pub fn list_collections(&mut self) -> Result<Vec<CollectionEntry>, ClientError> {
        self.read(|client| client.list_collections())
    }

    /// [`ServiceClient::insert_in`], pinned to the primary.
    pub fn insert_in(
        &mut self,
        collection: &str,
        token: u64,
        c_sap: Vec<f64>,
        c_dce: DceCiphertext,
    ) -> Result<u32, ClientError> {
        self.write(|client| client.insert_in(collection, token, c_sap.clone(), c_dce.clone()))
    }

    /// [`ServiceClient::delete_in`], pinned to the primary.
    pub fn delete_in(&mut self, collection: &str, token: u64, id: u32) -> Result<(), ClientError> {
        self.write(|client| client.delete_in(collection, token, id))
    }

    /// Promotes the follower at `node` to primary and repins writes to
    /// it. The old primary (if still alive) keeps its primary role —
    /// fence it off before promoting, or its un-replicated tail diverges
    /// (OPERATIONS.md §10 walks the safe order).
    pub fn promote(&mut self, node: usize, token: u64) -> Result<(), ClientError> {
        if node >= self.nodes.len() {
            return Err(ClientError::Protocol(format!(
                "node {node} out of range ({} nodes)",
                self.nodes.len()
            )));
        }
        self.call_node(node, &mut |client| client.promote(token))?;
        self.nodes.swap(0, node);
        Ok(())
    }
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("nodes", &self.nodes.iter().map(|n| n.addr.as_str()).collect::<Vec<_>>())
            .field("next_read", &self.next_read)
            .finish_non_exhaustive()
    }
}
