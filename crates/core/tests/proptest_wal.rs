//! Property-based tests of the write-ahead log: arbitrary record
//! sequences must round-trip through [`ppann_core::wal::replay`],
//! arbitrary truncation must recover exactly the longest valid prefix,
//! arbitrary single-bit corruption must never panic nor damage records
//! before the flipped byte, and a durable collection reloaded over a
//! torn log must equal the surviving op prefix — in particular it must
//! never resurrect a deleted id.

use bytes::{BufMut, BytesMut};
use ppann_core::wal::{
    crc32, replay, snapshot_id, wal_header, Crc32, DurabilityOptions, FsyncPolicy, SnapshotId,
    WalRecord,
};
use ppann_core::{Catalog, DataOwner, PpAnnParams, SearchParams};
use ppann_dce::DceCiphertext;
use ppann_linalg::{seeded_rng, uniform_vec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Draws one mutation record — apply-validity not required here:
/// `replay` is purely a decoder, the apply layer is tested end-to-end
/// below. Weighted 3:1 insert:delete like real churn.
struct RecordStrategy;

impl Strategy for RecordStrategy {
    type Value = WalRecord;

    fn generate(&self, rng: &mut StdRng) -> WalRecord {
        if rng.gen_range(0u8..4) == 0 {
            return WalRecord::Delete { id: rng.gen() };
        }
        let sap_len = rng.gen_range(0usize..4);
        let c_sap = (0..sap_len).map(|_| rng.gen_range(-1.0e6..1.0e6)).collect();
        let comp_dim = rng.gen_range(1usize..3);
        let mut comp = || (0..comp_dim).map(|_| rng.gen_range(-1.0e6..1.0e6)).collect::<Vec<f64>>();
        let (a, b, c, d) = (comp(), comp(), comp(), comp());
        WalRecord::Insert {
            id: rng.gen(),
            c_sap,
            c_dce: DceCiphertext::from_components(a, b, c, d),
        }
    }
}

/// Builds a complete log image (header, sealing checkpoint, records)
/// and the end offset of every record.
fn build_image(base: SnapshotId, records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut image = BytesMut::new();
    image.put_slice(&wal_header());
    image.put_slice(&WalRecord::Checkpoint { base }.encode());
    let mut ends = Vec::with_capacity(records.len());
    for r in records {
        image.put_slice(&r.encode());
        ends.push(image.len());
    }
    (image.to_vec(), ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Encode → replay is the identity on arbitrary record sequences.
    #[test]
    fn replay_roundtrips_arbitrary_records(
        records in collection::vec(RecordStrategy, 0..12),
        base_seed in any::<u64>(),
    ) {
        let base = snapshot_id(&base_seed.to_le_bytes());
        let (image, _) = build_image(base, &records);
        let out = replay(&image, base);
        prop_assert!(!out.truncated && !out.stale);
        prop_assert_eq!(out.valid_len, image.len() as u64);
        let got: Vec<WalRecord> = out.records.into_iter().map(|(r, _)| r).collect();
        prop_assert_eq!(got, records);
    }

    /// Truncation at *any* byte position recovers exactly the records
    /// whose frames fit in the prefix — never an error, never a panic,
    /// never a partially-decoded record.
    #[test]
    fn truncation_recovers_longest_valid_prefix(
        records in collection::vec(RecordStrategy, 1..10),
        cut_frac in 0.0f64..1.0,
        base_seed in any::<u64>(),
    ) {
        let base = snapshot_id(&base_seed.to_le_bytes());
        let (image, ends) = build_image(base, &records);
        let cut = (cut_frac * image.len() as f64) as usize;
        let out = replay(&image[..cut], base);
        let want = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(out.records.len(), want);
        let got: Vec<WalRecord> = out.records.into_iter().map(|(r, _)| r).collect();
        prop_assert_eq!(&got[..], &records[..want]);
        // `truncated` fires exactly when damage was found: a file cut
        // on a record boundary is indistinguishable from a shorter log.
        prop_assert_eq!(out.truncated, (out.valid_len as usize) < cut);
    }

    /// Flipping any single bit anywhere in the image never panics, and
    /// every record that ends before the flipped byte survives intact
    /// (the frame CRC confines damage to the record it lands in).
    #[test]
    fn bitflip_never_panics_and_spares_the_prefix(
        records in collection::vec(RecordStrategy, 1..10),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
        base_seed in any::<u64>(),
    ) {
        let base = snapshot_id(&base_seed.to_le_bytes());
        let (mut image, ends) = build_image(base, &records);
        let pos = ((pos_frac * image.len() as f64) as usize).min(image.len() - 1);
        image[pos] ^= 1 << bit;
        let out = replay(&image, base);
        prop_assert!(out.valid_len <= image.len() as u64);
        let intact = ends.iter().filter(|&&e| e <= pos).count();
        prop_assert!(out.records.len() >= intact);
        let got: Vec<WalRecord> =
            out.records.into_iter().take(intact).map(|(r, _)| r).collect();
        prop_assert_eq!(&got[..], &records[..intact]);
    }
}

/// One churn op against a durable collection (ids 0 and 1 are the two
/// outsourced base vectors).
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u32),
    Delete(u32),
}

/// Decodes a raw decision stream into a valid op sequence: values < 3
/// insert the next id, others delete a pseudo-chosen live id (forced to
/// insert when nothing is live).
fn decode_ops(decisions: &[u8]) -> Vec<Op> {
    let mut live: Vec<u32> = vec![0, 1];
    let mut next_id = 2u32;
    let mut ops = Vec::new();
    for &d in decisions {
        if d < 3 || live.is_empty() {
            ops.push(Op::Insert(next_id));
            live.push(next_id);
            next_id += 1;
        } else {
            let victim = live.remove(d as usize % live.len());
            ops.push(Op::Delete(victim));
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End to end: a durable collection whose log is torn at an
    /// arbitrary byte reloads to exactly the state of the surviving op
    /// prefix — surviving deletes stay deleted (no resurrection) and
    /// surviving inserts stay live and findable.
    #[test]
    fn torn_log_reloads_to_the_surviving_op_prefix(
        decisions in collection::vec(0u8..5, 1..10),
        cut_frac in 0.0f64..1.05,
        seed in 0u64..1000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ppanns_proptest_wal_{}_{seed}_{cut_frac:.6}_{}",
            std::process::id(),
            decisions.iter().map(|d| d.to_string()).collect::<String>(),
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let mut rng = seeded_rng(seed);
        let base: Vec<Vec<f64>> = (0..2).map(|_| uniform_vec(&mut rng, 4, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(4).with_seed(seed), &base);
        let opts = DurabilityOptions { fsync: FsyncPolicy::Never, compact_bytes: u64::MAX };

        let ops = decode_ops(&decisions);
        let mut vectors: Vec<Vec<f64>> = base.clone();
        let mut op_ends = Vec::new();
        {
            let catalog = Catalog::new();
            let coll = catalog
                .create_durable("c", owner.outsource(&base), &dir, opts)
                .unwrap();
            for op in &ops {
                match *op {
                    Op::Insert(id) => {
                        let v = uniform_vec(&mut rng, 4, -1.0, 1.0);
                        let (c_sap, c_dce) = owner.encrypt_for_insert(&v, seed ^ id as u64);
                        prop_assert_eq!(coll.insert(c_sap, c_dce).unwrap(), id);
                        vectors.push(v);
                    }
                    Op::Delete(id) => prop_assert!(coll.try_delete(id).unwrap()),
                }
                op_ends.push(coll.wal_status().unwrap().log_bytes);
            }
        }

        // Tear the log at an arbitrary byte.
        let wal_path = dir.join("c.wal");
        let full = std::fs::metadata(&wal_path).unwrap().len();
        let cut = ((cut_frac * full as f64) as u64).min(full);
        ppann_core::wal::truncate_to(&wal_path, cut).unwrap();

        // Reload: never an error, state == the surviving op prefix.
        let (catalog, reports) = Catalog::load_dir_durable(&dir, opts).unwrap();
        prop_assert_eq!(reports.len(), 1);
        let survived = op_ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(reports[0].replayed, survived);

        let mut live = vec![true, true];
        for op in &ops[..survived] {
            match *op {
                Op::Insert(_) => live.push(true),
                Op::Delete(id) => live[id as usize] = false,
            }
        }
        let coll = catalog.get("c").unwrap();
        prop_assert_eq!(coll.slots(), live.len());
        for (id, &want) in live.iter().enumerate() {
            prop_assert_eq!(coll.is_live(id as u32), want, "id {} liveness diverged", id);
        }
        // Every surviving live vector is its own nearest neighbor.
        let mut user = owner.authorize_user();
        for (id, &alive) in live.iter().enumerate() {
            if alive {
                let q = user.encrypt_query(&vectors[id], 1);
                let out = coll.search(&q, &SearchParams { k_prime: 8, ef_search: 16 });
                prop_assert_eq!(out.ids[0], id as u32);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// CRC-32 one bit at a time, straight from the reflected IEEE polynomial:
/// the oracle the table-driven implementation must match.
fn bitwise_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random bytes fed to the incremental CRC in pieces split at random
    /// points (empty pieces and unaligned tails included) give the CRC
    /// of the whole, and so does the one-call form.
    #[test]
    fn crc32_of_any_split_equals_the_bitwise_reference(
        bytes in collection::vec(any::<u8>(), 0..300),
        cuts in collection::vec(any::<u64>(), 0..6),
    ) {
        let mut points: Vec<usize> =
            cuts.iter().map(|&c| (c % (bytes.len() as u64 + 1)) as usize).collect();
        points.sort_unstable();
        let mut crc = Crc32::new();
        let mut at = 0;
        for p in points {
            crc.update(&bytes[at..p]);
            at = p;
        }
        crc.update(&bytes[at..]);
        let expect = bitwise_crc32(&bytes);
        prop_assert_eq!(crc.finish(), expect);
        prop_assert_eq!(crc32(&bytes), expect);
    }
}
