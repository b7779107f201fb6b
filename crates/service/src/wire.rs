//! The framed binary wire protocol (`PPNW`), message layer.
//!
//! Every message travels as one **frame**: a fixed 12-byte header followed
//! by a message payload. The byte-level specification, including one worked
//! hex example per message, is `PROTOCOL.md` at the repository root
//! (rendered into this crate's docs as [`crate::spec`]); the
//! `protocol_examples` integration test asserts those documented bytes
//! decode and re-encode exactly.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PPNW"
//! 4       1     protocol version (1 = legacy single-index, 2 = namespaced)
//! 5       1     message tag
//! 6       2     reserved, must be zero (little-endian u16)
//! 8       4     payload length in bytes (little-endian u32)
//! 12      len   payload
//! ```
//!
//! ## Versioning (multi-collection namespacing)
//!
//! Version is a **per-frame** property, and both ends accept both
//! versions. Version 2 prefixes a collection name to the request payloads
//! that route to a collection (`Search`, `SearchBatch`, `Insert`,
//! `Delete`, `Stats`) and adds the catalog-management tags
//! (`CreateCollection`, `DropCollection`, `ListCollections` and their
//! replies). The encoder is canonical: a nameless message encodes as a
//! version-1 frame (byte-identical to the legacy protocol), a named or
//! catalog message as version 2 — so a legacy v1-only peer interoperates
//! unchanged (its requests carry no names and are routed to the
//! `"default"` collection; every reply it can receive is a nameless
//! frame, i.e. version 1 on the wire).
//!
//! Collection names travel as **raw length-prefixed bytes**, not
//! `String`s: name validation (UTF-8, charset, length) is a *semantic*
//! check answered with a keep-open `BadRequest`, so the codec must be able
//! to carry a malformed name up to the request layer instead of killing
//! the connection with a framing error.
//!
//! Payload codecs reuse the core serialization hooks
//! ([`EncryptedQuery::write_to`], [`SearchOutcome::write_to`],
//! [`SearchParams::write_to`] — `ppann_core::wire`), so the service layer
//! adds framing and dispatch but no second serialization scheme.
//!
//! ## What may cross the wire
//!
//! Only ciphertext, id and cost material is representable: SAP ciphertexts,
//! DCE trapdoors/ciphertexts, result ids, encrypted-space distances, cost
//! counters and service statistics. There is deliberately no codec for
//! plaintext vectors, plaintext distances or key material — see DESIGN.md
//! §7 for the threat-model placement of this boundary.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppann_core::wire::{
    get_dce_ciphertext, get_f64_slice, put_dce_ciphertext, put_f64_slice, WireError,
};
use ppann_core::{EncryptedQuery, SearchOutcome, SearchParams, StatsSnapshot};
use ppann_dce::DceCiphertext;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PPNW";

/// Highest protocol version this build speaks (header byte 4): version 2,
/// the namespaced multi-collection protocol.
pub const PROTOCOL_VERSION: u8 = 2;

/// The legacy single-index protocol version, still fully supported:
/// nameless messages encode as version-1 frames byte-identical to the
/// pre-collection protocol.
pub const PROTOCOL_VERSION_LEGACY: u8 = 1;

/// A collection name as carried on the wire: raw bytes (see the module
/// docs for why this is not a `String`). `None` on a namespaced-capable
/// message selects the legacy version-1 encoding, which servers route to
/// the `"default"` collection.
pub type WireName = Vec<u8>;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Default maximum accepted payload size (32 MiB). Frames claiming more
/// are rejected with [`ErrorCode::FrameTooLarge`] before any allocation.
pub const DEFAULT_MAX_FRAME: u32 = 32 * 1024 * 1024;

/// Message tags (header byte 5).
pub mod tag {
    pub const HELLO: u8 = 0x01;
    pub const HELLO_ACK: u8 = 0x02;
    pub const SEARCH: u8 = 0x10;
    pub const SEARCH_RESULT: u8 = 0x11;
    pub const SEARCH_BATCH: u8 = 0x12;
    pub const SEARCH_BATCH_RESULT: u8 = 0x13;
    pub const INSERT: u8 = 0x20;
    pub const INSERT_ACK: u8 = 0x21;
    pub const DELETE: u8 = 0x22;
    pub const DELETE_ACK: u8 = 0x23;
    pub const STATS: u8 = 0x30;
    pub const STATS_REPLY: u8 = 0x31;
    pub const SHUTDOWN: u8 = 0x3E;
    pub const SHUTDOWN_ACK: u8 = 0x3F;
    // Catalog management (version 2 only).
    pub const CREATE_COLLECTION: u8 = 0x40;
    pub const CREATE_COLLECTION_ACK: u8 = 0x41;
    pub const DROP_COLLECTION: u8 = 0x42;
    pub const DROP_COLLECTION_ACK: u8 = 0x43;
    pub const LIST_COLLECTIONS: u8 = 0x44;
    pub const LIST_COLLECTIONS_REPLY: u8 = 0x45;
    // Replication (version 2 only; PROTOCOL.md §3.23–§3.28).
    pub const REPLICA_HELLO: u8 = 0x50;
    pub const REPLICA_ACK: u8 = 0x51;
    pub const WAL_SEGMENT: u8 = 0x52;
    pub const SNAPSHOT_CHUNK: u8 = 0x53;
    pub const PROMOTE: u8 = 0x54;
    pub const PROMOTE_ACK: u8 = 0x55;
    pub const ERROR: u8 = 0x7F;
}

/// Error codes carried by [`Frame::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame could not be parsed (bad magic, unknown tag, malformed
    /// payload, trailing bytes). The connection is closed after this —
    /// stream synchronization cannot be trusted anymore.
    BadFrame = 1,
    /// Header protocol version unsupported by this server.
    UnsupportedVersion = 2,
    /// Client and server disagree on the vector dimensionality.
    DimMismatch = 3,
    /// Maintenance/shutdown frame without the owner token.
    Unauthorized = 4,
    /// A well-formed request the backend refuses (e.g. deleting an id that
    /// is out of range or already deleted). The connection stays open.
    BadRequest = 5,
    /// The frame header claims a payload above the server's limit.
    FrameTooLarge = 6,
    /// The server failed internally while answering.
    Internal = 7,
    /// The request names a collection the catalog does not hold (the name
    /// itself is well-formed — malformed names are [`Self::BadRequest`]).
    /// The connection stays open.
    UnknownCollection = 8,
    /// A mutation sent to a read-only replication follower. The
    /// connection stays open (reads still work here); the client should
    /// direct writes at the primary.
    NotPrimary = 9,
}

impl ErrorCode {
    /// Decodes a wire error code.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => Self::BadFrame,
            2 => Self::UnsupportedVersion,
            3 => Self::DimMismatch,
            4 => Self::Unauthorized,
            5 => Self::BadRequest,
            6 => Self::FrameTooLarge,
            7 => Self::Internal,
            8 => Self::UnknownCollection,
            9 => Self::NotPrimary,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::BadFrame => "bad frame",
            Self::UnsupportedVersion => "unsupported protocol version",
            Self::DimMismatch => "dimension mismatch",
            Self::Unauthorized => "unauthorized",
            Self::BadRequest => "bad request",
            Self::FrameTooLarge => "frame too large",
            Self::Internal => "internal server error",
            Self::UnknownCollection => "unknown collection",
            Self::NotPrimary => "not the primary",
        };
        f.write_str(name)
    }
}

/// Frame-layer failures (header or payload level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// First four bytes are not `PPNW`.
    BadMagic,
    /// Header version byte is neither [`PROTOCOL_VERSION_LEGACY`] nor
    /// [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Reserved header bytes are non-zero.
    BadReserved,
    /// Tag byte names no known message.
    UnknownTag(u8),
    /// Payload length exceeds the configured maximum.
    TooLarge { claimed: u32, max: u32 },
    /// Payload failed to decode.
    Codec(WireError),
    /// Payload decoded but left unconsumed bytes.
    TrailingBytes(usize),
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Codec(e)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad frame magic"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::BadReserved => write!(f, "reserved header bytes must be zero"),
            Self::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            Self::TooLarge { claimed, max } => {
                write!(f, "payload of {claimed} bytes exceeds the {max}-byte limit")
            }
            Self::Codec(e) => write!(f, "payload codec: {e}"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}
impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// The error code a server reports for this failure.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            Self::BadVersion(_) => ErrorCode::UnsupportedVersion,
            Self::TooLarge { .. } => ErrorCode::FrameTooLarge,
            _ => ErrorCode::BadFrame,
        }
    }
}

/// One collection as described by [`Frame::ListCollectionsReply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionEntry {
    /// Collection name (reply direction only, so UTF-8 is enforced by the
    /// codec — a server never emits a malformed name).
    pub name: String,
    /// Vector dimensionality the collection serves.
    pub dim: u64,
    /// Live vector count at listing time.
    pub live: u64,
    /// Server shape code: always [`COLLECTION_KIND_CLOUD`] from current
    /// servers (1, the sharded shape, is retired). Other values are
    /// carried opaquely.
    pub kind: u8,
    /// Shard count: always 1 from current servers (kept for byte
    /// compatibility).
    pub shards: u16,
}

/// [`CollectionEntry::kind`] for a single-index `CloudServer` collection.
pub const COLLECTION_KIND_CLOUD: u8 = 0;

/// One protocol message, ready to frame.
///
/// Messages that route to a collection carry `collection:
/// Option<WireName>`: `None` selects the legacy version-1 encoding (no
/// name on the wire; servers route to `"default"`), `Some(name)` the
/// version-2 encoding with the name prefixed to the payload.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Connection opener (client → server, must be first). `dim` is the
    /// dimensionality the client will query with; `0` means "unknown,
    /// tell me" and always passes the server's check (the only choice
    /// that makes sense against a heterogeneous catalog).
    Hello { dim: u64 },
    /// Handshake answer (server → client): the served dimensionality and
    /// live vector count of the `"default"` collection — or `dim = 0` and
    /// the catalog-wide live total when no default collection exists.
    HelloAck { dim: u64, live: u64 },
    /// One encrypted query with its public search knobs.
    Search { collection: Option<WireName>, params: SearchParams, query: EncryptedQuery },
    /// Answer to [`Frame::Search`]: ids, encrypted-space distances, cost.
    SearchResult(SearchOutcome),
    /// Many encrypted queries under one set of public search knobs,
    /// answered as a unit so the server can fan the whole batch across its
    /// worker pool (`BatchExecutor`). An empty batch is well-formed on the
    /// wire but refused by servers with [`ErrorCode::BadRequest`], as is a
    /// batch above the server's configured size limit.
    SearchBatch { collection: Option<WireName>, params: SearchParams, queries: Vec<EncryptedQuery> },
    /// Answer to [`Frame::SearchBatch`]: one [`SearchOutcome`] per query,
    /// in request order.
    SearchBatchResult(Vec<SearchOutcome>),
    /// Owner-authenticated insertion of a pre-encrypted vector.
    Insert { collection: Option<WireName>, token: u64, c_sap: Vec<f64>, c_dce: DceCiphertext },
    /// Answer to [`Frame::Insert`]: the assigned id.
    InsertAck { id: u32 },
    /// Owner-authenticated deletion by id.
    Delete { collection: Option<WireName>, token: u64, id: u32 },
    /// Answer to a successful [`Frame::Delete`].
    DeleteAck,
    /// Request for service counters (unauthenticated, read-only):
    /// aggregate process-wide counters when nameless, one collection's
    /// counters when named.
    Stats { collection: Option<WireName> },
    /// Answer to [`Frame::Stats`].
    StatsReply(StatsSnapshot),
    /// Owner-authenticated graceful shutdown request.
    Shutdown { token: u64 },
    /// Answer to [`Frame::Shutdown`]; the listener stops accepting and
    /// drains in-flight connections after this is sent.
    ShutdownAck,
    /// Owner-authenticated creation of a fresh, empty collection of the
    /// given dimensionality. `shards` is retired and must be 1 (servers
    /// answer anything else with [`ErrorCode::BadRequest`]); it stays on
    /// the wire for byte compatibility. The owner then populates the
    /// collection with [`Frame::Insert`]s.
    CreateCollection { token: u64, name: WireName, dim: u64, shards: u16 },
    /// Answer to a successful [`Frame::CreateCollection`].
    CreateCollectionAck,
    /// Owner-authenticated removal of a collection (and of its snapshot
    /// file in a `--data-dir` deployment).
    DropCollection { token: u64, name: WireName },
    /// Answer to a successful [`Frame::DropCollection`].
    DropCollectionAck,
    /// Request for the collection listing (unauthenticated, read-only).
    ListCollections,
    /// Answer to [`Frame::ListCollections`]: every collection, sorted by
    /// name.
    ListCollectionsReply(Vec<CollectionEntry>),
    /// A follower opens (or re-opens) replication of one collection:
    /// the snapshot seal `(len, crc)` it currently holds, how many
    /// snapshot bytes it has received toward that seal, and the WAL
    /// offset up to which it has applied records. A follower that holds
    /// nothing yet sends all-zero state; the primary answers with
    /// whatever the follower needs next — [`Frame::SnapshotChunk`] while
    /// bootstrapping, [`Frame::WalSegment`] once sealed state matches.
    ReplicaHello {
        collection: WireName,
        seal_len: u64,
        seal_crc: u32,
        snapshot_offset: u64,
        log_offset: u64,
    },
    /// A follower's steady-state pull: its (complete) snapshot seal and
    /// the WAL offset one past the last record it applied. Semantically
    /// a [`Frame::ReplicaHello`] whose snapshot transfer is done.
    ReplicaAck { collection: WireName, seal_len: u64, seal_crc: u32, applied_offset: u64 },
    /// A record-aligned run of raw `PPWL` log bytes: the seal of the
    /// snapshot the log extends, the offset of the run's first byte,
    /// the primary's current log length (so the follower knows how far
    /// behind it still is), and the bytes themselves. Empty bytes mean
    /// the follower is caught up.
    WalSegment { seal_len: u64, seal_crc: u32, start_offset: u64, log_len: u64, bytes: Vec<u8> },
    /// One run of raw snapshot-file bytes during bootstrap: the seal of
    /// the snapshot being transferred, the run's starting offset, the
    /// full snapshot length, and the bytes.
    SnapshotChunk { seal_len: u64, seal_crc: u32, offset: u64, total_len: u64, bytes: Vec<u8> },
    /// Owner-authenticated promotion of a follower to primary (manual
    /// failover — OPERATIONS.md §10). Idempotent on a node that is
    /// already primary.
    Promote { token: u64 },
    /// Answer to a successful [`Frame::Promote`].
    PromoteAck,
    /// Failure report. Depending on the code the server either keeps the
    /// connection open (semantic errors) or closes it (framing errors).
    Error { code: ErrorCode, message: String },
}

impl Frame {
    /// The wire tag of this message.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => tag::HELLO,
            Frame::HelloAck { .. } => tag::HELLO_ACK,
            Frame::Search { .. } => tag::SEARCH,
            Frame::SearchResult(_) => tag::SEARCH_RESULT,
            Frame::SearchBatch { .. } => tag::SEARCH_BATCH,
            Frame::SearchBatchResult(_) => tag::SEARCH_BATCH_RESULT,
            Frame::Insert { .. } => tag::INSERT,
            Frame::InsertAck { .. } => tag::INSERT_ACK,
            Frame::Delete { .. } => tag::DELETE,
            Frame::DeleteAck => tag::DELETE_ACK,
            Frame::Stats { .. } => tag::STATS,
            Frame::StatsReply(_) => tag::STATS_REPLY,
            Frame::Shutdown { .. } => tag::SHUTDOWN,
            Frame::ShutdownAck => tag::SHUTDOWN_ACK,
            Frame::CreateCollection { .. } => tag::CREATE_COLLECTION,
            Frame::CreateCollectionAck => tag::CREATE_COLLECTION_ACK,
            Frame::DropCollection { .. } => tag::DROP_COLLECTION,
            Frame::DropCollectionAck => tag::DROP_COLLECTION_ACK,
            Frame::ListCollections => tag::LIST_COLLECTIONS,
            Frame::ListCollectionsReply(_) => tag::LIST_COLLECTIONS_REPLY,
            Frame::ReplicaHello { .. } => tag::REPLICA_HELLO,
            Frame::ReplicaAck { .. } => tag::REPLICA_ACK,
            Frame::WalSegment { .. } => tag::WAL_SEGMENT,
            Frame::SnapshotChunk { .. } => tag::SNAPSHOT_CHUNK,
            Frame::Promote { .. } => tag::PROMOTE,
            Frame::PromoteAck => tag::PROMOTE_ACK,
            Frame::Error { .. } => tag::ERROR,
        }
    }

    /// The header version this message encodes with — the canonical rule
    /// of the module docs: nameless messages are version 1 (legacy bytes),
    /// named and catalog messages are version 2.
    pub fn wire_version(&self) -> u8 {
        match self {
            Frame::Search { collection: Some(_), .. }
            | Frame::SearchBatch { collection: Some(_), .. }
            | Frame::Insert { collection: Some(_), .. }
            | Frame::Delete { collection: Some(_), .. }
            | Frame::Stats { collection: Some(_) }
            | Frame::CreateCollection { .. }
            | Frame::CreateCollectionAck
            | Frame::DropCollection { .. }
            | Frame::DropCollectionAck
            | Frame::ListCollections
            | Frame::ListCollectionsReply(_)
            | Frame::ReplicaHello { .. }
            | Frame::ReplicaAck { .. }
            | Frame::WalSegment { .. }
            | Frame::SnapshotChunk { .. }
            | Frame::Promote { .. }
            | Frame::PromoteAck => PROTOCOL_VERSION,
            _ => PROTOCOL_VERSION_LEGACY,
        }
    }

    /// Encodes the complete frame: header plus payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes: such a frame has
    /// no representable length header, and silently truncating the `u32`
    /// cast would put a corrupt frame on the wire. Receivers enforce far
    /// smaller limits anyway ([`DEFAULT_MAX_FRAME`]); only an
    /// owner-built `Insert` of absurd dimensionality can get here.
    /// Also panics on a collection name above `u16::MAX` bytes (the name
    /// length field's width; servers bound names far lower).
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::new();
        let mut out = Vec::new();
        self.encode_with(&mut payload, &mut out);
        Bytes::from(out)
    }

    /// [`Self::encode`] through caller-owned buffers: the payload is
    /// staged in `payload` (cleared here; its contents afterwards are
    /// scratch) and the complete frame — header plus payload — is
    /// *appended* to `out`. Returns the appended wire length. A
    /// long-lived worker that reuses both buffers encodes replies with
    /// zero allocations once they are grown (DESIGN.md §6).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::encode`].
    pub fn encode_with(&self, payload: &mut BytesMut, out: &mut Vec<u8>) -> usize {
        payload.clear();
        self.write_payload(payload);
        assert!(
            payload.len() <= u32::MAX as usize,
            "frame payload of {} bytes overflows the u32 length header",
            payload.len()
        );
        out.reserve(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.wire_version());
        out.push(self.tag());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        HEADER_LEN + payload.len()
    }

    fn write_payload(&self, buf: &mut BytesMut) {
        match self {
            Frame::Hello { dim } => buf.put_u64_le(*dim),
            Frame::HelloAck { dim, live } => {
                buf.put_u64_le(*dim);
                buf.put_u64_le(*live);
            }
            Frame::Search { collection, params, query } => {
                put_opt_name(buf, collection);
                params.write_to(buf);
                query.write_to(buf);
            }
            Frame::SearchResult(outcome) => outcome.write_to(buf),
            Frame::SearchBatch { collection, params, queries } => {
                put_opt_name(buf, collection);
                params.write_to(buf);
                buf.put_u64_le(queries.len() as u64);
                for query in queries {
                    query.write_to(buf);
                }
            }
            Frame::SearchBatchResult(outcomes) => {
                buf.put_u64_le(outcomes.len() as u64);
                for outcome in outcomes {
                    outcome.write_to(buf);
                }
            }
            Frame::Insert { collection, token, c_sap, c_dce } => {
                put_opt_name(buf, collection);
                buf.put_u64_le(*token);
                put_f64_slice(buf, c_sap);
                put_dce_ciphertext(buf, c_dce);
            }
            Frame::InsertAck { id } => buf.put_u32_le(*id),
            Frame::Delete { collection, token, id } => {
                put_opt_name(buf, collection);
                buf.put_u64_le(*token);
                buf.put_u32_le(*id);
            }
            Frame::Stats { collection } => put_opt_name(buf, collection),
            Frame::DeleteAck
            | Frame::ShutdownAck
            | Frame::CreateCollectionAck
            | Frame::DropCollectionAck
            | Frame::ListCollections => {}
            Frame::StatsReply(snap) => snap.write_to(buf),
            Frame::Shutdown { token } => buf.put_u64_le(*token),
            Frame::CreateCollection { token, name, dim, shards } => {
                buf.put_u64_le(*token);
                put_name(buf, name);
                buf.put_u64_le(*dim);
                buf.put_u16_le(*shards);
            }
            Frame::DropCollection { token, name } => {
                buf.put_u64_le(*token);
                put_name(buf, name);
            }
            Frame::ListCollectionsReply(entries) => {
                buf.put_u64_le(entries.len() as u64);
                for e in entries {
                    put_name(buf, e.name.as_bytes());
                    buf.put_u64_le(e.dim);
                    buf.put_u64_le(e.live);
                    buf.put_u8(e.kind);
                    buf.put_u16_le(e.shards);
                }
            }
            Frame::ReplicaHello { collection, seal_len, seal_crc, snapshot_offset, log_offset } => {
                put_name(buf, collection);
                buf.put_u64_le(*seal_len);
                buf.put_u32_le(*seal_crc);
                buf.put_u64_le(*snapshot_offset);
                buf.put_u64_le(*log_offset);
            }
            Frame::ReplicaAck { collection, seal_len, seal_crc, applied_offset } => {
                put_name(buf, collection);
                buf.put_u64_le(*seal_len);
                buf.put_u32_le(*seal_crc);
                buf.put_u64_le(*applied_offset);
            }
            Frame::WalSegment { seal_len, seal_crc, start_offset, log_len, bytes } => {
                buf.put_u64_le(*seal_len);
                buf.put_u32_le(*seal_crc);
                buf.put_u64_le(*start_offset);
                buf.put_u64_le(*log_len);
                buf.put_u64_le(bytes.len() as u64);
                buf.put_slice(bytes);
            }
            Frame::SnapshotChunk { seal_len, seal_crc, offset, total_len, bytes } => {
                buf.put_u64_le(*seal_len);
                buf.put_u32_le(*seal_crc);
                buf.put_u64_le(*offset);
                buf.put_u64_le(*total_len);
                buf.put_u64_le(bytes.len() as u64);
                buf.put_slice(bytes);
            }
            Frame::Promote { token } => buf.put_u64_le(*token),
            Frame::PromoteAck => {}
            Frame::Error { code, message } => {
                buf.put_u16_le(*code as u16);
                let msg = message.as_bytes();
                buf.put_u64_le(msg.len() as u64);
                buf.put_slice(msg);
            }
        }
    }

    /// Decodes a payload for `tag` under `version`, requiring full
    /// consumption. Version 2 payloads of namespaced-capable tags carry
    /// the collection-name prefix; version 1 payloads never do, and the
    /// catalog tags do not exist under version 1 (they decode as
    /// [`ProtocolError::UnknownTag`]).
    pub fn decode_payload(
        version: u8,
        tag_byte: u8,
        mut data: Bytes,
    ) -> Result<Frame, ProtocolError> {
        let namespaced = version >= PROTOCOL_VERSION;
        let frame = match tag_byte {
            tag::HELLO => Frame::Hello { dim: get_u64(&mut data)? },
            tag::HELLO_ACK => {
                Frame::HelloAck { dim: get_u64(&mut data)?, live: get_u64(&mut data)? }
            }
            tag::SEARCH => {
                let collection = get_opt_name(&mut data, namespaced)?;
                let params = SearchParams::read_from(&mut data)?;
                let query = EncryptedQuery::read_from(&mut data)?;
                Frame::Search { collection, params, query }
            }
            tag::SEARCH_RESULT => Frame::SearchResult(SearchOutcome::read_from(&mut data)?),
            tag::SEARCH_BATCH => {
                let collection = get_opt_name(&mut data, namespaced)?;
                let params = SearchParams::read_from(&mut data)?;
                // Every query needs at least 24 bytes (k + two empty
                // lists), so an absurd claimed count is refused before any
                // allocation sized by it.
                let count = get_counted(&mut data, 24)?;
                let mut queries = Vec::with_capacity(count);
                for _ in 0..count {
                    queries.push(EncryptedQuery::read_from(&mut data)?);
                }
                Frame::SearchBatch { collection, params, queries }
            }
            tag::SEARCH_BATCH_RESULT => {
                // Every outcome needs at least 56 bytes (count + counters).
                let count = get_counted(&mut data, 56)?;
                let mut outcomes = Vec::with_capacity(count);
                for _ in 0..count {
                    outcomes.push(SearchOutcome::read_from(&mut data)?);
                }
                Frame::SearchBatchResult(outcomes)
            }
            tag::INSERT => {
                let collection = get_opt_name(&mut data, namespaced)?;
                let token = get_u64(&mut data)?;
                let c_sap = get_f64_slice(&mut data)?;
                let c_dce = get_dce_ciphertext(&mut data)?;
                Frame::Insert { collection, token, c_sap, c_dce }
            }
            tag::INSERT_ACK => Frame::InsertAck { id: get_u32(&mut data)? },
            tag::DELETE => {
                let collection = get_opt_name(&mut data, namespaced)?;
                Frame::Delete { collection, token: get_u64(&mut data)?, id: get_u32(&mut data)? }
            }
            tag::DELETE_ACK => Frame::DeleteAck,
            tag::STATS => Frame::Stats { collection: get_opt_name(&mut data, namespaced)? },
            tag::STATS_REPLY => Frame::StatsReply(StatsSnapshot::read_from(&mut data)?),
            tag::SHUTDOWN => Frame::Shutdown { token: get_u64(&mut data)? },
            tag::SHUTDOWN_ACK => Frame::ShutdownAck,
            tag::CREATE_COLLECTION if namespaced => {
                let token = get_u64(&mut data)?;
                let name = get_name(&mut data)?;
                let dim = get_u64(&mut data)?;
                if data.remaining() < 2 {
                    return Err(WireError::Truncated.into());
                }
                let shards = data.get_u16_le();
                Frame::CreateCollection { token, name, dim, shards }
            }
            tag::DROP_COLLECTION if namespaced => {
                Frame::DropCollection { token: get_u64(&mut data)?, name: get_name(&mut data)? }
            }
            tag::CREATE_COLLECTION_ACK if namespaced => Frame::CreateCollectionAck,
            tag::DROP_COLLECTION_ACK if namespaced => Frame::DropCollectionAck,
            tag::LIST_COLLECTIONS if namespaced => Frame::ListCollections,
            tag::LIST_COLLECTIONS_REPLY if namespaced => {
                // Every entry needs at least 21 bytes (empty name + the
                // fixed fields).
                let count = get_counted(&mut data, 21)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let name_bytes = get_name(&mut data)?;
                    let name = String::from_utf8(name_bytes)
                        .map_err(|_| WireError::Malformed("collection name not UTF-8".into()))?;
                    let dim = get_u64(&mut data)?;
                    let live = get_u64(&mut data)?;
                    if data.remaining() < 3 {
                        return Err(WireError::Truncated.into());
                    }
                    let kind = data.get_u8();
                    let shards = data.get_u16_le();
                    entries.push(CollectionEntry { name, dim, live, kind, shards });
                }
                Frame::ListCollectionsReply(entries)
            }
            tag::REPLICA_HELLO if namespaced => {
                let collection = get_name(&mut data)?;
                let seal_len = get_u64(&mut data)?;
                let seal_crc = get_u32(&mut data)?;
                let snapshot_offset = get_u64(&mut data)?;
                let log_offset = get_u64(&mut data)?;
                Frame::ReplicaHello { collection, seal_len, seal_crc, snapshot_offset, log_offset }
            }
            tag::REPLICA_ACK if namespaced => {
                let collection = get_name(&mut data)?;
                let seal_len = get_u64(&mut data)?;
                let seal_crc = get_u32(&mut data)?;
                let applied_offset = get_u64(&mut data)?;
                Frame::ReplicaAck { collection, seal_len, seal_crc, applied_offset }
            }
            tag::WAL_SEGMENT if namespaced => {
                let seal_len = get_u64(&mut data)?;
                let seal_crc = get_u32(&mut data)?;
                let start_offset = get_u64(&mut data)?;
                let log_len = get_u64(&mut data)?;
                let bytes = get_byte_run(&mut data)?;
                Frame::WalSegment { seal_len, seal_crc, start_offset, log_len, bytes }
            }
            tag::SNAPSHOT_CHUNK if namespaced => {
                let seal_len = get_u64(&mut data)?;
                let seal_crc = get_u32(&mut data)?;
                let offset = get_u64(&mut data)?;
                let total_len = get_u64(&mut data)?;
                let bytes = get_byte_run(&mut data)?;
                Frame::SnapshotChunk { seal_len, seal_crc, offset, total_len, bytes }
            }
            tag::PROMOTE if namespaced => Frame::Promote { token: get_u64(&mut data)? },
            tag::PROMOTE_ACK if namespaced => Frame::PromoteAck,
            tag::ERROR => {
                if data.remaining() < 10 {
                    return Err(WireError::Truncated.into());
                }
                let code_raw = data.get_u16_le();
                let code = ErrorCode::from_u16(code_raw)
                    .ok_or_else(|| WireError::Malformed(format!("error code {code_raw}")))?;
                let len = data.get_u64_le() as usize;
                if data.remaining() < len {
                    return Err(WireError::Truncated.into());
                }
                let message = String::from_utf8(data.copy_to_bytes(len).to_vec())
                    .map_err(|_| WireError::Malformed("error message not UTF-8".into()))?;
                Frame::Error { code, message }
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        if data.has_remaining() {
            return Err(ProtocolError::TrailingBytes(data.remaining()));
        }
        Ok(frame)
    }
}

/// Parses and validates a frame header, returning
/// `(version, tag, payload_len)`. Both protocol versions are accepted —
/// the returned version selects how the payload is decoded.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    max_frame: u32,
) -> Result<(u8, u8, u32), ProtocolError> {
    if header[..4] != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    if header[4] != PROTOCOL_VERSION_LEGACY && header[4] != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(header[4]));
    }
    if header[6] != 0 || header[7] != 0 {
        return Err(ProtocolError::BadReserved);
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > max_frame {
        return Err(ProtocolError::TooLarge { claimed: len, max: max_frame });
    }
    Ok((header[4], header[5], len))
}

/// Decodes one complete frame from a contiguous buffer (header + payload).
/// Used by tests and by callers that already hold whole frames; the
/// streaming path lives in [`crate::io`].
pub fn decode_frame(bytes: &[u8], max_frame: u32) -> Result<Frame, ProtocolError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtocolError::Codec(WireError::Truncated));
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let (version, tag_byte, len) = parse_header(&header, max_frame)?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != len as usize {
        return Err(ProtocolError::Codec(WireError::Truncated));
    }
    Frame::decode_payload(version, tag_byte, Bytes::copy_from_slice(payload))
}

/// Appends a collection name: `u16 length | bytes`.
fn put_name(buf: &mut BytesMut, name: &[u8]) {
    assert!(name.len() <= u16::MAX as usize, "collection name overflows the u16 length field");
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name);
}

/// Optional-name prefix of namespaced-capable payloads: written only when
/// the frame carries a name (version-2 encoding).
fn put_opt_name(buf: &mut BytesMut, name: &Option<WireName>) {
    if let Some(name) = name {
        put_name(buf, name);
    }
}

/// Reads a name written by [`put_name`], validating the claimed length
/// against the bytes remaining. The bytes are *not* checked for UTF-8 or
/// charset here — that is the server's semantic check (keep-open
/// `BadRequest`), not the codec's.
fn get_name(data: &mut Bytes) -> Result<WireName, WireError> {
    if data.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let len = data.get_u16_le() as usize;
    if data.remaining() < len {
        return Err(WireError::Truncated);
    }
    Ok(data.copy_to_bytes(len).to_vec())
}

/// Reads the optional name prefix: present exactly when the frame's
/// header said version 2.
fn get_opt_name(data: &mut Bytes, namespaced: bool) -> Result<Option<WireName>, WireError> {
    if namespaced {
        Ok(Some(get_name(data)?))
    } else {
        Ok(None)
    }
}

/// Reads a `u64` element count and validates it against the bytes actually
/// remaining, given a conservative minimum encoded size per element — the
/// guard that makes `Vec::with_capacity(count)` safe against a frame whose
/// count field claims the moon.
fn get_counted(data: &mut Bytes, min_element_len: usize) -> Result<usize, WireError> {
    let count = get_u64(data)? as usize;
    let need = count.checked_mul(min_element_len).ok_or(WireError::Truncated)?;
    if data.remaining() < need {
        return Err(WireError::Truncated);
    }
    Ok(count)
}

/// Reads a `u64` byte-count followed by that many raw bytes (the WAL /
/// snapshot byte runs of the replication frames). The count is checked
/// against the bytes actually remaining before any allocation.
fn get_byte_run(data: &mut Bytes) -> Result<Vec<u8>, WireError> {
    let len = get_u64(data)? as usize;
    if data.remaining() < len {
        return Err(WireError::Truncated);
    }
    Ok(data.copy_to_bytes(len).to_vec())
}

fn get_u64(data: &mut Bytes) -> Result<u64, WireError> {
    if data.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(data.get_u64_le())
}

fn get_u32(data: &mut Bytes) -> Result<u32, WireError> {
    if data.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(data.get_u32_le())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppann_core::QueryCost;
    use ppann_dce::DceTrapdoor;
    use std::time::Duration;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        let back = decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap();
        // Re-encoding the decoded frame must reproduce the original bytes:
        // the codec has exactly one representation per message.
        assert_eq!(back.encode().as_slice(), bytes.as_slice(), "re-encode mismatch");
        back
    }

    fn sample_query() -> EncryptedQuery {
        EncryptedQuery {
            c_sap: vec![1.5, -2.25, 0.0],
            trapdoor: DceTrapdoor::from_vec(vec![3.5, 4.75, -0.125, 9.0]),
            k: 2,
        }
    }

    fn sample_outcome() -> SearchOutcome {
        SearchOutcome {
            ids: vec![7, 3],
            sap_dists: vec![0.5, 1.25],
            filter_candidates: 9,
            cost: QueryCost {
                filter_dist_comps: 11,
                refine_sdc_comps: 13,
                server_time: Duration::from_micros(17),
                bytes_up: 19,
                bytes_down: 8,
            },
        }
    }

    #[test]
    fn hello_roundtrip() {
        match roundtrip(&Frame::Hello { dim: 128 }) {
            Frame::Hello { dim } => assert_eq!(dim, 128),
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::HelloAck { dim: 128, live: 10_000 }) {
            Frame::HelloAck { dim, live } => {
                assert_eq!(dim, 128);
                assert_eq!(live, 10_000);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn search_roundtrip() {
        let q = sample_query();
        let p = SearchParams { k_prime: 20, ef_search: 40 };
        match roundtrip(&Frame::Search { collection: None, params: p, query: q.clone() }) {
            Frame::Search { collection, params, query } => {
                assert_eq!(collection, None);
                assert_eq!(params, p);
                assert_eq!(query.k, q.k);
                assert_eq!(query.c_sap, q.c_sap);
                assert_eq!(query.trapdoor.as_slice(), q.trapdoor.as_slice());
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn nameless_frames_encode_as_version_1_named_as_version_2() {
        let q = sample_query();
        let p = SearchParams { k_prime: 20, ef_search: 40 };
        let legacy = Frame::Search { collection: None, params: p, query: q.clone() };
        assert_eq!(legacy.encode()[4], PROTOCOL_VERSION_LEGACY);
        let named = Frame::Search { collection: Some(b"vault".to_vec()), params: p, query: q };
        assert_eq!(named.encode()[4], PROTOCOL_VERSION);
        assert_eq!(Frame::Stats { collection: None }.encode()[4], PROTOCOL_VERSION_LEGACY);
        assert_eq!(Frame::ListCollections.encode()[4], PROTOCOL_VERSION);
        // Replies are nameless, so a legacy peer only ever receives v1.
        assert_eq!(Frame::SearchResult(sample_outcome()).encode()[4], PROTOCOL_VERSION_LEGACY);
    }

    #[test]
    fn named_search_roundtrip_preserves_raw_name_bytes() {
        let q = sample_query();
        let p = SearchParams { k_prime: 20, ef_search: 40 };
        // Names are raw bytes on the wire: even a non-UTF-8 name must
        // survive the codec so the server can answer it as a semantic
        // BadRequest instead of a connection-closing framing error.
        for name in [b"vault".to_vec(), vec![], vec![0xFF, 0xFE, b'x']] {
            let frame =
                Frame::Search { collection: Some(name.clone()), params: p, query: q.clone() };
            match roundtrip(&frame) {
                Frame::Search { collection, params, query } => {
                    assert_eq!(collection, Some(name));
                    assert_eq!(params, p);
                    assert_eq!(query.c_sap, q.c_sap);
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn catalog_frames_roundtrip() {
        match roundtrip(&Frame::CreateCollection {
            token: 9,
            name: b"fresh".to_vec(),
            dim: 128,
            shards: 4,
        }) {
            Frame::CreateCollection { token, name, dim, shards } => {
                assert_eq!(token, 9);
                assert_eq!(name, b"fresh".to_vec());
                assert_eq!(dim, 128);
                assert_eq!(shards, 4);
            }
            other => panic!("wrong frame {other:?}"),
        }
        assert!(matches!(roundtrip(&Frame::CreateCollectionAck), Frame::CreateCollectionAck));
        match roundtrip(&Frame::DropCollection { token: 9, name: b"fresh".to_vec() }) {
            Frame::DropCollection { token, name } => {
                assert_eq!(token, 9);
                assert_eq!(name, b"fresh".to_vec());
            }
            other => panic!("wrong frame {other:?}"),
        }
        assert!(matches!(roundtrip(&Frame::DropCollectionAck), Frame::DropCollectionAck));
        assert!(matches!(roundtrip(&Frame::ListCollections), Frame::ListCollections));
        let entries = vec![
            CollectionEntry {
                name: "default".into(),
                dim: 8,
                live: 1000,
                kind: COLLECTION_KIND_CLOUD,
                shards: 1,
            },
            // Unknown kinds and shard counts are carried opaquely.
            CollectionEntry { name: "docs".into(), dim: 960, live: 5, kind: 7, shards: 4 },
        ];
        match roundtrip(&Frame::ListCollectionsReply(entries.clone())) {
            Frame::ListCollectionsReply(back) => assert_eq!(back, entries),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn replication_frames_roundtrip() {
        match roundtrip(&Frame::ReplicaHello {
            collection: b"docs".to_vec(),
            seal_len: 0x1122,
            seal_crc: 0xAABBCCDD,
            snapshot_offset: 64,
            log_offset: 29,
        }) {
            Frame::ReplicaHello { collection, seal_len, seal_crc, snapshot_offset, log_offset } => {
                assert_eq!(collection, b"docs".to_vec());
                assert_eq!(seal_len, 0x1122);
                assert_eq!(seal_crc, 0xAABBCCDD);
                assert_eq!(snapshot_offset, 64);
                assert_eq!(log_offset, 29);
            }
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::ReplicaAck {
            collection: b"docs".to_vec(),
            seal_len: 7,
            seal_crc: 8,
            applied_offset: 99,
        }) {
            Frame::ReplicaAck { collection, seal_len, seal_crc, applied_offset } => {
                assert_eq!(collection, b"docs".to_vec());
                assert_eq!(seal_len, 7);
                assert_eq!(seal_crc, 8);
                assert_eq!(applied_offset, 99);
            }
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::WalSegment {
            seal_len: 1,
            seal_crc: 2,
            start_offset: 29,
            log_len: 1000,
            bytes: vec![0xDE, 0xAD, 0xBE, 0xEF],
        }) {
            Frame::WalSegment { seal_len, seal_crc, start_offset, log_len, bytes } => {
                assert_eq!(seal_len, 1);
                assert_eq!(seal_crc, 2);
                assert_eq!(start_offset, 29);
                assert_eq!(log_len, 1000);
                assert_eq!(bytes, vec![0xDE, 0xAD, 0xBE, 0xEF]);
            }
            other => panic!("wrong frame {other:?}"),
        }
        // The empty (caught-up) segment is representable.
        match roundtrip(&Frame::WalSegment {
            seal_len: 1,
            seal_crc: 2,
            start_offset: 64,
            log_len: 64,
            bytes: vec![],
        }) {
            Frame::WalSegment { bytes, .. } => assert!(bytes.is_empty()),
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::SnapshotChunk {
            seal_len: 100,
            seal_crc: 5,
            offset: 32,
            total_len: 100,
            bytes: vec![1, 2, 3],
        }) {
            Frame::SnapshotChunk { seal_len, seal_crc, offset, total_len, bytes } => {
                assert_eq!(seal_len, 100);
                assert_eq!(seal_crc, 5);
                assert_eq!(offset, 32);
                assert_eq!(total_len, 100);
                assert_eq!(bytes, vec![1, 2, 3]);
            }
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::Promote { token: 42 }) {
            Frame::Promote { token } => assert_eq!(token, 42),
            other => panic!("wrong frame {other:?}"),
        }
        assert!(matches!(roundtrip(&Frame::PromoteAck), Frame::PromoteAck));
        // All replication frames are version-2-only on the wire.
        assert_eq!(Frame::Promote { token: 1 }.encode()[4], PROTOCOL_VERSION);
        assert_eq!(
            Frame::WalSegment {
                seal_len: 0,
                seal_crc: 0,
                start_offset: 0,
                log_len: 0,
                bytes: vec![]
            }
            .encode()[4],
            PROTOCOL_VERSION
        );
    }

    #[test]
    fn byte_run_count_is_validated_before_allocation() {
        // A WalSegment whose byte-count field claims 2^56 bytes but
        // carries none must be rejected as truncated, without allocating.
        let mut bytes = Frame::WalSegment {
            seal_len: 1,
            seal_crc: 2,
            start_offset: 29,
            log_len: 1000,
            bytes: vec![],
        }
        .encode()
        .to_vec();
        let payload_len = bytes.len() - HEADER_LEN;
        bytes[HEADER_LEN + payload_len - 8..].copy_from_slice(&(1u64 << 56).to_le_bytes());
        assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap_err(),
            ProtocolError::Codec(WireError::Truncated)
        );
    }

    #[test]
    fn not_primary_error_code_roundtrips() {
        assert_eq!(ErrorCode::from_u16(9), Some(ErrorCode::NotPrimary));
        match roundtrip(&Frame::Error { code: ErrorCode::NotPrimary, message: "follower".into() }) {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::NotPrimary);
                assert_eq!(message, "follower");
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn catalog_tags_do_not_exist_under_version_1() {
        for frame in [
            Frame::ListCollections,
            Frame::CreateCollection { token: 1, name: b"a".to_vec(), dim: 2, shards: 1 },
            Frame::DropCollection { token: 1, name: b"a".to_vec() },
            Frame::ReplicaHello {
                collection: b"a".to_vec(),
                seal_len: 0,
                seal_crc: 0,
                snapshot_offset: 0,
                log_offset: 0,
            },
            Frame::ReplicaAck {
                collection: b"a".to_vec(),
                seal_len: 0,
                seal_crc: 0,
                applied_offset: 0,
            },
            Frame::WalSegment {
                seal_len: 0,
                seal_crc: 0,
                start_offset: 0,
                log_len: 0,
                bytes: vec![],
            },
            Frame::SnapshotChunk {
                seal_len: 0,
                seal_crc: 0,
                offset: 0,
                total_len: 0,
                bytes: vec![],
            },
            Frame::Promote { token: 1 },
            Frame::PromoteAck,
        ] {
            let mut bytes = frame.encode().to_vec();
            bytes[4] = PROTOCOL_VERSION_LEGACY;
            assert!(
                matches!(
                    decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap_err(),
                    ProtocolError::UnknownTag(_)
                ),
                "catalog tag must be unknown under v1"
            );
        }
    }

    #[test]
    fn search_result_roundtrip() {
        let out = sample_outcome();
        match roundtrip(&Frame::SearchResult(out.clone())) {
            Frame::SearchResult(back) => {
                assert_eq!(back.ids, out.ids);
                assert_eq!(back.sap_dists, out.sap_dists);
                assert_eq!(back.filter_candidates, out.filter_candidates);
                assert_eq!(back.cost.refine_sdc_comps, out.cost.refine_sdc_comps);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn search_batch_roundtrip() {
        let q1 = sample_query();
        let q2 = EncryptedQuery {
            c_sap: vec![0.5, 0.5],
            trapdoor: DceTrapdoor::from_vec(vec![-1.0, 4.0]),
            k: 1,
        };
        let p = SearchParams { k_prime: 4, ef_search: 8 };
        let batch = Frame::SearchBatch {
            collection: None,
            params: p,
            queries: vec![q1.clone(), q2.clone()],
        };
        match roundtrip(&batch) {
            Frame::SearchBatch { collection, params, queries } => {
                assert_eq!(collection, None);
                assert_eq!(params, p);
                assert_eq!(queries.len(), 2);
                assert_eq!(queries[0].c_sap, q1.c_sap);
                assert_eq!(queries[1].k, q2.k);
                assert_eq!(queries[1].trapdoor.as_slice(), q2.trapdoor.as_slice());
            }
            other => panic!("wrong frame {other:?}"),
        }
        // The empty batch is representable on the wire (servers refuse it
        // at the request layer, not the codec layer).
        match roundtrip(&Frame::SearchBatch { collection: None, params: p, queries: vec![] }) {
            Frame::SearchBatch { queries, .. } => assert!(queries.is_empty()),
            other => panic!("wrong frame {other:?}"),
        }
        // Named batches carry the prefix and keep every query intact.
        let named = Frame::SearchBatch {
            collection: Some(b"vault".to_vec()),
            params: p,
            queries: vec![q1.clone()],
        };
        match roundtrip(&named) {
            Frame::SearchBatch { collection, queries, .. } => {
                assert_eq!(collection, Some(b"vault".to_vec()));
                assert_eq!(queries[0].c_sap, q1.c_sap);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn search_batch_result_roundtrip() {
        let out = sample_outcome();
        let mut short = sample_outcome();
        short.ids = vec![2];
        short.sap_dists = vec![0.5];
        match roundtrip(&Frame::SearchBatchResult(vec![out.clone(), short.clone()])) {
            Frame::SearchBatchResult(back) => {
                assert_eq!(back.len(), 2);
                assert_eq!(back[0].ids, out.ids);
                assert_eq!(back[0].sap_dists, out.sap_dists);
                assert_eq!(back[1].ids, short.ids);
                assert_eq!(back[1].cost.refine_sdc_comps, short.cost.refine_sdc_comps);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn batch_count_is_validated_before_allocation() {
        // A SearchBatch whose count field claims 2^56 queries but carries
        // none must be rejected as truncated, without allocating.
        let mut buf = BytesMut::new();
        SearchParams { k_prime: 4, ef_search: 8 }.write_to(&mut buf);
        buf.put_u64_le(1u64 << 56);
        let payload = buf.freeze();
        let mut bytes = BytesMut::new();
        bytes.put_slice(&MAGIC);
        bytes.put_u8(PROTOCOL_VERSION_LEGACY);
        bytes.put_u8(tag::SEARCH_BATCH);
        bytes.put_u16_le(0);
        bytes.put_u32_le(payload.len() as u32);
        bytes.put_slice(&payload);
        assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap_err(),
            ProtocolError::Codec(WireError::Truncated)
        );
    }

    #[test]
    fn truncated_batch_payload_rejected() {
        let bytes = Frame::SearchBatch {
            collection: None,
            params: SearchParams { k_prime: 4, ef_search: 8 },
            queries: vec![sample_query(), sample_query()],
        }
        .encode();
        for cut in HEADER_LEN..bytes.len() {
            let mut prefix = bytes[..cut].to_vec();
            let len = (cut - HEADER_LEN) as u32;
            prefix[8..12].copy_from_slice(&len.to_le_bytes());
            assert!(
                decode_frame(&prefix, DEFAULT_MAX_FRAME).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn maintenance_roundtrips() {
        let ct = DceCiphertext::from_components(
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        );
        let insert = Frame::Insert {
            collection: None,
            token: 42,
            c_sap: vec![0.5, 0.25],
            c_dce: ct.clone(),
        };
        match roundtrip(&insert) {
            Frame::Insert { collection, token, c_sap, c_dce } => {
                assert_eq!(collection, None);
                assert_eq!(token, 42);
                assert_eq!(c_sap, vec![0.5, 0.25]);
                assert_eq!(c_dce.components(), ct.components());
            }
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::InsertAck { id: 77 }) {
            Frame::InsertAck { id } => assert_eq!(id, 77),
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::Delete { collection: None, token: 42, id: 3 }) {
            Frame::Delete { collection, token, id } => {
                assert_eq!(collection, None);
                assert_eq!(token, 42);
                assert_eq!(id, 3);
            }
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::Delete { collection: Some(b"vault".to_vec()), token: 1, id: 2 }) {
            Frame::Delete { collection, .. } => assert_eq!(collection, Some(b"vault".to_vec())),
            other => panic!("wrong frame {other:?}"),
        }
        assert!(matches!(roundtrip(&Frame::DeleteAck), Frame::DeleteAck));
    }

    #[test]
    fn stats_and_shutdown_roundtrips() {
        assert!(matches!(
            roundtrip(&Frame::Stats { collection: None }),
            Frame::Stats { collection: None }
        ));
        match roundtrip(&Frame::Stats { collection: Some(b"docs".to_vec()) }) {
            Frame::Stats { collection } => assert_eq!(collection, Some(b"docs".to_vec())),
            other => panic!("wrong frame {other:?}"),
        }
        let snap = StatsSnapshot {
            queries: 1,
            inserts: 2,
            deletes: 3,
            errors: 4,
            bytes_in: 5,
            bytes_out: 6,
            live: 7,
            p50_micros: 8,
            p99_micros: 9,
            uptime_micros: 10,
            conns_parked: 11,
            conns_active: 12,
            ready_depth: 13,
            scratch_bytes: 14,
        };
        match roundtrip(&Frame::StatsReply(snap)) {
            Frame::StatsReply(back) => assert_eq!(back, snap),
            other => panic!("wrong frame {other:?}"),
        }
        match roundtrip(&Frame::Shutdown { token: 9 }) {
            Frame::Shutdown { token } => assert_eq!(token, 9),
            other => panic!("wrong frame {other:?}"),
        }
        assert!(matches!(roundtrip(&Frame::ShutdownAck), Frame::ShutdownAck));
    }

    #[test]
    fn error_roundtrip() {
        match roundtrip(&Frame::Error { code: ErrorCode::Unauthorized, message: "no".into() }) {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::Unauthorized);
                assert_eq!(message, "no");
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Frame::Hello { dim: 1 }.encode().to_vec();
        bytes[0] = b'X';
        assert_eq!(decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap_err(), ProtocolError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Frame::Hello { dim: 1 }.encode().to_vec();
        bytes[4] = 99;
        assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap_err(),
            ProtocolError::BadVersion(99)
        );
    }

    #[test]
    fn oversized_payload_rejected_at_header() {
        let mut bytes = Frame::Hello { dim: 1 }.encode().to_vec();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes, 1024).unwrap_err(),
            ProtocolError::TooLarge { claimed: u32::MAX, max: 1024 }
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = Frame::Stats { collection: None }.encode().to_vec();
        bytes[5] = 0x66;
        assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap_err(),
            ProtocolError::UnknownTag(0x66)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::Hello { dim: 1 }.encode().to_vec();
        bytes.push(0);
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[8..12].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME).unwrap_err(),
            ProtocolError::TrailingBytes(1)
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = Frame::Search {
            collection: None,
            params: SearchParams { k_prime: 4, ef_search: 8 },
            query: sample_query(),
        }
        .encode();
        // Every strict prefix with a corrected header length must fail.
        for cut in HEADER_LEN..bytes.len() {
            let mut prefix = bytes[..cut].to_vec();
            let len = (cut - HEADER_LEN) as u32;
            prefix[8..12].copy_from_slice(&len.to_le_bytes());
            assert!(
                decode_frame(&prefix, DEFAULT_MAX_FRAME).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }
}
