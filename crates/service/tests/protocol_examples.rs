//! PROTOCOL.md and the codec cannot drift apart: this test parses every
//! worked hex example out of the spec and asserts that (a) the bytes
//! decode into the message the spec names and (b) re-encoding the decoded
//! frame reproduces the documented bytes exactly.

use ppann_service::wire::{decode_frame, tag, Frame, DEFAULT_MAX_FRAME};
use std::collections::BTreeMap;

/// Extracts `frame <Name>` hex blocks from PROTOCOL.md.
fn documented_examples() -> BTreeMap<String, Vec<u8>> {
    let spec = include_str!("../../../PROTOCOL.md");
    let mut out = BTreeMap::new();
    let mut lines = spec.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(name) = line.trim().strip_prefix("frame ") else {
            continue;
        };
        let mut bytes = Vec::new();
        while let Some(next) = lines.peek() {
            let toks: Vec<&str> = next.split_whitespace().collect();
            if toks.is_empty() || toks.iter().any(|t| u8::from_str_radix(t, 16).is_err()) {
                break;
            }
            bytes.extend(toks.iter().map(|t| u8::from_str_radix(t, 16).unwrap()));
            lines.next();
        }
        assert!(
            out.insert(name.trim().to_string(), bytes).is_none(),
            "duplicate example for {name}"
        );
    }
    out
}

fn expected_tag(name: &str) -> u8 {
    match name {
        "Hello" => tag::HELLO,
        "HelloAck" => tag::HELLO_ACK,
        "Search" | "SearchNamed" => tag::SEARCH,
        "SearchResult" => tag::SEARCH_RESULT,
        "SearchBatch" | "SearchBatchNamed" => tag::SEARCH_BATCH,
        "SearchBatchResult" => tag::SEARCH_BATCH_RESULT,
        "Insert" | "InsertNamed" => tag::INSERT,
        "InsertAck" => tag::INSERT_ACK,
        "Delete" | "DeleteNamed" => tag::DELETE,
        "DeleteAck" => tag::DELETE_ACK,
        "Stats" | "StatsNamed" => tag::STATS,
        "StatsReply" => tag::STATS_REPLY,
        "Shutdown" => tag::SHUTDOWN,
        "ShutdownAck" => tag::SHUTDOWN_ACK,
        "CreateCollection" => tag::CREATE_COLLECTION,
        "CreateCollectionAck" => tag::CREATE_COLLECTION_ACK,
        "DropCollection" => tag::DROP_COLLECTION,
        "DropCollectionAck" => tag::DROP_COLLECTION_ACK,
        "ListCollections" => tag::LIST_COLLECTIONS,
        "ListCollectionsReply" => tag::LIST_COLLECTIONS_REPLY,
        "ReplicaHello" => tag::REPLICA_HELLO,
        "ReplicaAck" => tag::REPLICA_ACK,
        "WalSegment" => tag::WAL_SEGMENT,
        "SnapshotChunk" => tag::SNAPSHOT_CHUNK,
        "Promote" => tag::PROMOTE,
        "PromoteAck" => tag::PROMOTE_ACK,
        "Error" => tag::ERROR,
        other => panic!("PROTOCOL.md documents unknown message {other}"),
    }
}

#[test]
fn every_message_has_a_worked_example() {
    let examples = documented_examples();
    for name in [
        "Hello",
        "HelloAck",
        "Search",
        "SearchNamed",
        "SearchResult",
        "SearchBatch",
        "SearchBatchNamed",
        "SearchBatchResult",
        "Insert",
        "InsertNamed",
        "InsertAck",
        "Delete",
        "DeleteNamed",
        "DeleteAck",
        "Stats",
        "StatsNamed",
        "StatsReply",
        "Shutdown",
        "ShutdownAck",
        "CreateCollection",
        "CreateCollectionAck",
        "DropCollection",
        "DropCollectionAck",
        "ListCollections",
        "ListCollectionsReply",
        "ReplicaHello",
        "ReplicaAck",
        "WalSegment",
        "SnapshotChunk",
        "Promote",
        "PromoteAck",
        "Error",
    ] {
        assert!(examples.contains_key(name), "PROTOCOL.md lacks a worked example for {name}");
    }
}

/// The documented version bytes follow the canonical encoding rule:
/// nameless messages are version 1, named and catalog messages version 2.
#[test]
fn documented_version_bytes_follow_the_canonical_rule() {
    for (name, bytes) in documented_examples() {
        let v2 = name.ends_with("Named")
            || name.contains("Collection")
            || name.starts_with("Replica")
            || name.starts_with("Promote")
            || name == "WalSegment"
            || name == "SnapshotChunk";
        let expect = if v2 { 2 } else { 1 };
        assert_eq!(bytes[4], expect, "example {name} has the wrong version byte");
    }
}

#[test]
fn documented_hex_decodes_and_reencodes_exactly() {
    for (name, bytes) in documented_examples() {
        let frame = decode_frame(&bytes, DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("PROTOCOL.md example {name} does not decode: {e}"));
        assert_eq!(frame.tag(), expected_tag(&name), "example {name} decodes to the wrong message");
        assert_eq!(
            frame.encode().as_slice(),
            &bytes[..],
            "re-encoding the {name} example changes its bytes"
        );
    }
}

#[test]
fn documented_field_values_match() {
    let examples = documented_examples();
    match decode_frame(&examples["Hello"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Hello { dim } => assert_eq!(dim, 8),
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["HelloAck"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::HelloAck { dim, live } => {
            assert_eq!(dim, 8);
            assert_eq!(live, 1000);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["Search"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Search { collection: None, params, query } => {
            assert_eq!(params.k_prime, 4);
            assert_eq!(params.ef_search, 8);
            assert_eq!(query.k, 2);
            assert_eq!(query.c_sap, vec![1.0, -0.5]);
            assert_eq!(query.trapdoor.as_slice(), &[0.25, 2.0]);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["SearchBatch"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::SearchBatch { collection: None, params, queries } => {
            assert_eq!(params.k_prime, 4);
            assert_eq!(params.ef_search, 8);
            assert_eq!(queries.len(), 2);
            assert_eq!(queries[0].k, 2);
            assert_eq!(queries[0].c_sap, vec![1.0, -0.5]);
            assert_eq!(queries[0].trapdoor.as_slice(), &[0.25, 2.0]);
            assert_eq!(queries[1].k, 1);
            assert_eq!(queries[1].c_sap, vec![0.5, 0.5]);
            assert_eq!(queries[1].trapdoor.as_slice(), &[-1.0, 4.0]);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["SearchBatchResult"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::SearchBatchResult(outs) => {
            assert_eq!(outs.len(), 2);
            assert_eq!(outs[0].ids, vec![3, 1]);
            assert_eq!(outs[0].sap_dists, vec![0.125, 2.0]);
            assert_eq!(outs[0].cost.server_time.as_micros(), 42);
            assert_eq!(outs[1].ids, vec![2]);
            assert_eq!(outs[1].sap_dists, vec![0.5]);
            assert_eq!(outs[1].filter_candidates, 3);
            assert_eq!(outs[1].cost.bytes_down, 8);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["SearchResult"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::SearchResult(out) => {
            assert_eq!(out.ids, vec![3, 1]);
            assert_eq!(out.sap_dists, vec![0.125, 2.0]);
            assert_eq!(out.filter_candidates, 4);
            assert_eq!(out.cost.filter_dist_comps, 5);
            assert_eq!(out.cost.refine_sdc_comps, 7);
            assert_eq!(out.cost.server_time.as_micros(), 42);
            assert_eq!(out.cost.bytes_up, 120);
            assert_eq!(out.cost.bytes_down, 8);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["Insert"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Insert { collection: None, token, c_sap, c_dce } => {
            assert_eq!(token, 7);
            assert_eq!(c_sap, vec![0.5]);
            assert_eq!(c_dce.component_dim(), 1);
            assert_eq!(c_dce.components(), [&[1.0][..], &[2.0][..], &[3.0][..], &[4.0][..]]);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["Error"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code as u16, 4);
            assert_eq!(message, "no");
        }
        other => panic!("wrong frame {other:?}"),
    }
    // Named variants: same fields as their nameless twins plus the name.
    match decode_frame(&examples["SearchNamed"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Search { collection, params, query } => {
            assert_eq!(collection, Some(b"vault".to_vec()));
            assert_eq!(params.k_prime, 4);
            assert_eq!(query.k, 2);
            assert_eq!(query.c_sap, vec![1.0, -0.5]);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["SearchBatchNamed"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::SearchBatch { collection, queries, .. } => {
            assert_eq!(collection, Some(b"vault".to_vec()));
            assert_eq!(queries.len(), 2);
            assert_eq!(queries[1].c_sap, vec![0.5, 0.5]);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["InsertNamed"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Insert { collection, token, c_sap, .. } => {
            assert_eq!(collection, Some(b"vault".to_vec()));
            assert_eq!(token, 7);
            assert_eq!(c_sap, vec![0.5]);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["DeleteNamed"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Delete { collection, token, id } => {
            assert_eq!(collection, Some(b"vault".to_vec()));
            assert_eq!(token, 7);
            assert_eq!(id, 3);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["StatsNamed"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Stats { collection } => assert_eq!(collection, Some(b"vault".to_vec())),
        other => panic!("wrong frame {other:?}"),
    }
    // Catalog-management frames.
    match decode_frame(&examples["CreateCollection"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::CreateCollection { token, name, dim, shards } => {
            assert_eq!(token, 7);
            assert_eq!(name, b"vault".to_vec());
            assert_eq!(dim, 128);
            assert_eq!(shards, 1);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["DropCollection"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::DropCollection { token, name } => {
            assert_eq!(token, 7);
            assert_eq!(name, b"vault".to_vec());
        }
        other => panic!("wrong frame {other:?}"),
    }
    // Replication frames (§3.23–§3.28).
    match decode_frame(&examples["ReplicaHello"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::ReplicaHello { collection, seal_len, seal_crc, snapshot_offset, log_offset } => {
            assert_eq!(collection, b"vault".to_vec());
            assert_eq!(seal_len, 512);
            assert_eq!(seal_crc, 0xDEADBEEF);
            assert_eq!(snapshot_offset, 0);
            assert_eq!(log_offset, 29);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["ReplicaAck"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::ReplicaAck { collection, seal_len, seal_crc, applied_offset } => {
            assert_eq!(collection, b"vault".to_vec());
            assert_eq!(seal_len, 512);
            assert_eq!(seal_crc, 0xDEADBEEF);
            assert_eq!(applied_offset, 73);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["WalSegment"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::WalSegment { seal_len, seal_crc, start_offset, log_len, bytes } => {
            assert_eq!(seal_len, 512);
            assert_eq!(seal_crc, 0xDEADBEEF);
            assert_eq!(start_offset, 29);
            assert_eq!(log_len, 73);
            assert_eq!(bytes, vec![0xAA, 0xBB, 0xCC, 0xDD]);
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["SnapshotChunk"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::SnapshotChunk { seal_len, seal_crc, offset, total_len, bytes } => {
            assert_eq!(seal_len, 512);
            assert_eq!(seal_crc, 0xDEADBEEF);
            assert_eq!(offset, 0);
            assert_eq!(total_len, 512);
            assert_eq!(bytes, b"PPDB".to_vec());
        }
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["Promote"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::Promote { token } => assert_eq!(token, 7),
        other => panic!("wrong frame {other:?}"),
    }
    match decode_frame(&examples["ListCollectionsReply"], DEFAULT_MAX_FRAME).unwrap() {
        Frame::ListCollectionsReply(entries) => {
            assert_eq!(entries.len(), 2);
            assert_eq!(entries[0].name, "default");
            assert_eq!(entries[0].dim, 8);
            assert_eq!(entries[0].live, 1000);
            assert_eq!(entries[0].kind, 0);
            assert_eq!(entries[0].shards, 1);
            assert_eq!(entries[1].name, "vault");
            assert_eq!(entries[1].dim, 128);
            assert_eq!(entries[1].live, 42);
            assert_eq!(entries[1].kind, 0);
            assert_eq!(entries[1].shards, 1);
        }
        other => panic!("wrong frame {other:?}"),
    }
}
