//! # ppann-service
//!
//! The **networked query service** for the PP-ANNS scheme: everything
//! needed to run the cloud server of the paper's Figure 1 as an actual
//! server across a real network boundary, with the data owner, query
//! users and the untrusted cloud in separate processes.
//!
//! Three layers:
//!
//! * [`wire`] — the versioned, length-prefixed binary framing (`PPNW`).
//!   Byte-level spec with worked hex examples: `PROTOCOL.md` at the
//!   repository root, rendered into these docs as the [`spec`] module.
//! * [`server`] — a readiness-driven service core over a whole
//!   [`ppann_core::Catalog`] of named collections (the single-server
//!   [`serve`] entry point is a one-collection catalog): one reactor
//!   thread owns the listener, an edge-triggered one-shot `epoll` set,
//!   and every connection's registration and deadline; a fixed worker
//!   pool consumes ready connections from a queue, reassembles frames
//!   incrementally, answers one request per wake and never blocks on a
//!   peer (partial writes are buffered and flushed on writability).
//!   Idle keep-alive connections park in the kernel at zero cost. Every
//!   request frame routes to its collection's `CloudServer`: concurrent
//!   searches under the shared lock, whole-`SearchBatch` frames fanned
//!   across a `BatchExecutor`, exclusive owner
//!   maintenance, a disk-backed collection lifecycle (`--data-dir`),
//!   validated search knobs and batch sizes, graceful shutdown, atomic
//!   [`ServiceStats`] per listener and per collection (the collection's
//!   own counters, shared by every listener of its catalog), including
//!   the reactor's parked/active/ready-queue gauges.
//! * [`client`] — the blocking [`ServiceClient`] (single-frame, batched
//!   and pipelined search; each with a `_in` variant targeting a named
//!   collection, plus `list_collections`/`create_collection`/
//!   `drop_collection`) used by the `ppanns-cli`
//!   `serve`/`query`/`stats`/`collections` subcommands, the
//!   `secure_cloud_service` example and the loopback parity tests.
//!
//! ## The wire boundary (DESIGN.md §7)
//!
//! Only ciphertexts, ids and cost counters cross this boundary — SAP
//! ciphertexts, DCE trapdoors and ciphertexts, result ids, encrypted-space
//! distances and counters. Key bundles, plaintext vectors and plaintext
//! distances have no codec, so they *cannot* be framed; the
//! `frame_inspection` test enumerates every frame byte to verify it.
//!
//! ## Loopback quickstart
//!
//! ```
//! use ppann_core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
//! use ppann_linalg::{seeded_rng, uniform_vec};
//! use ppann_service::{serve, ServiceClient, ServiceConfig};
//!
//! // Owner side: encrypt and outsource.
//! let mut rng = seeded_rng(5);
//! let data: Vec<Vec<f64>> = (0..300).map(|_| uniform_vec(&mut rng, 8, -1.0, 1.0)).collect();
//! let owner = DataOwner::setup(PpAnnParams::new(8).with_seed(2), &data);
//! let server = CloudServer::new(owner.outsource(&data));
//!
//! // Cloud side: serve over TCP (port 0 = OS-assigned).
//! let handle = serve(server, ServiceConfig::loopback()).unwrap();
//!
//! // User side: encrypt locally, query remotely.
//! let mut user = owner.authorize_user();
//! let query = user.encrypt_query(&data[3], 5);
//! let mut client = ServiceClient::connect(handle.local_addr(), Some(8)).unwrap();
//! let outcome = client.search(&query, &SearchParams::from_ratio(5, 8, 60)).unwrap();
//! assert_eq!(outcome.ids.len(), 5);
//! assert!(outcome.ids.contains(&3));
//!
//! handle.request_stop();
//! handle.join();
//! ```

pub mod client;
pub mod io;
mod reactor;
pub mod replication;
pub mod server;
mod sys;
pub mod wire;

/// The wire-protocol specification (`PROTOCOL.md`), rendered verbatim.
pub mod spec {
    #![doc = include_str!("../../../PROTOCOL.md")]
}

pub use client::{
    ClientError, ReplicaSet, ServiceClient, DEFAULT_CALL_TIMEOUT, DEFAULT_PIPELINE_WINDOW,
};
pub use replication::ReplicationRole;
pub use server::{serve, serve_catalog, ServiceConfig, ServiceHandle};
// The counters live in `ppann-core`, where every collection carries its own.
pub use ppann_core::{ServiceStats, StatsSnapshot};
pub use wire::{
    CollectionEntry, ErrorCode, Frame, ProtocolError, WireName, COLLECTION_KIND_CLOUD,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION, PROTOCOL_VERSION_LEGACY,
};
