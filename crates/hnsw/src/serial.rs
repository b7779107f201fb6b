//! Byte-level serialization of HNSW snapshots.
//!
//! The cloud server persists the privacy-preserving index between sessions;
//! since no serialization-format crate is on the approved dependency list the
//! format is a hand-rolled little-endian layout:
//!
//! ```text
//! magic "HNSW" | version u32 | dim u64 | params | entry (u64::MAX = none)
//! | live u64 | n_nodes u64 | store f64s | per node: deleted u8, n_layers u32,
//!   per layer: len u32, ids u32*
//! ```
//!
//! Rows are written from and read straight into the layer-0 arena
//! (`crate::adjacency`), so a load holds one copy of the graph. The codec
//! streams: [`Hnsw::write_to`] and [`Hnsw::read_from`] work on any
//! `Write`/`Read`, so a snapshot goes to or comes from a file without an
//! image of it in memory, and `to_bytes`/`from_bytes` are the same code
//! over a `Vec`/slice. Snapshots arrive from disk and from replication
//! chunks, so the reader treats every field as hostile: a snapshot that
//! does not describe a well-formed graph is an error, never a panic, an
//! abort or a wrapped size, and every length it claims is checked against
//! the bytes left in its section (`ppann_linalg::Section`) before anything
//! is allocated for it.

use crate::adjacency::Adjacency;
use crate::graph::Hnsw;
use crate::params::{HnswParams, MAX_DEGREE};
use crate::store::VecStore;
use ppann_linalg::{write_f64s, Section, SectionError};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"HNSW";
const VERSION: u32 = 1;
/// Bytes from the magic through the node count.
const HEADER_LEN: usize = 4 + 4 + 8 + HnswParams::ENCODED_LEN + 3 * 8;
/// Bytes a node takes in the graph section at the least: the tombstone
/// byte, the layer count and the layer-0 length word.
const MIN_NODE_BYTES: usize = 1 + 4 + 4;
/// A snapshot may claim a layer-0 arena of at most this many times its
/// own length, plus [`ARENA_SLACK`]. Every node costs `(m0 + 2)·4` arena
/// bytes however few links it writes, so without the bound a file of
/// minimal node records makes the loader zero-fill ~60× its size. Any
/// `m0 ≤ 32`, and `m0 = 80` for any index whose nodes each hold a link or
/// whose `dim ≥ 2`, stays under it.
const ARENA_PER_INPUT_BYTE: usize = 16;
/// Arena bytes any snapshot may claim, so small indexes load whatever
/// their parameters.
const ARENA_SLACK: usize = 1 << 20;

/// Serialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Magic bytes or version did not match.
    BadHeader,
    /// The buffer ended prematurely or contained inconsistent lengths.
    Truncated,
    /// The fields parse but do not describe a well-formed index.
    Corrupt(&'static str),
    /// The reader failed for a reason other than running out of bytes.
    Io(io::ErrorKind),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader => write!(f, "bad snapshot header"),
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::Io(kind) => write!(f, "snapshot read failed: {kind}"),
        }
    }
}
impl std::error::Error for SnapshotError {}

impl From<SectionError> for SnapshotError {
    fn from(e: SectionError) -> Self {
        match e {
            SectionError::Io(e) if e.kind() != io::ErrorKind::UnexpectedEof => {
                SnapshotError::Io(e.kind())
            }
            _ => SnapshotError::Truncated,
        }
    }
}

impl Hnsw {
    /// Exact length in bytes of the snapshot [`Self::write_to`] writes.
    pub fn encoded_len(&self) -> usize {
        let graph: usize = (0..self.capacity_slots() as u32)
            .map(|id| {
                let lists: usize = (0..=self.node_level(id)).map(|l| self.links(id, l).len()).sum();
                1 + 4 + 4 * (self.node_level(id) + 1) + 4 * lists
            })
            .sum();
        HEADER_LEN + self.store().raw().len() * 8 + graph
    }

    /// Streams the full index (vectors + graph + tombstones) to `w`.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let (params, store, n) = (self.params(), self.store(), self.capacity_slots());
        let mut record = Vec::with_capacity(HEADER_LEN);
        record.extend_from_slice(MAGIC);
        record.extend(VERSION.to_le_bytes());
        record.extend((store.dim() as u64).to_le_bytes());
        params.write_to(&mut record)?;
        let entry = self.entry_point().map_or(u64::MAX, |e| e as u64);
        for v in [entry, self.len() as u64, n as u64] {
            record.extend(v.to_le_bytes());
        }
        w.write_all(&record)?;
        write_f64s(w, store.raw())?;
        for id in 0..n as u32 {
            let level = self.node_level(id);
            record.clear();
            record.push(self.is_deleted(id) as u8);
            record.extend((level as u32 + 1).to_le_bytes());
            for layer in 0..=level {
                let links = self.links(id, layer);
                record.extend((links.len() as u32).to_le_bytes());
                for &nb in links {
                    record.extend(nb.to_le_bytes());
                }
            }
            w.write_all(&record)?;
        }
        Ok(())
    }

    /// Serializes the full index: [`Self::write_to`] into a `Vec`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Restores an index serialized by [`Hnsw::to_bytes`]:
    /// [`Self::read_from`] over a byte slice.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<Self, SnapshotError> {
        let data = data.as_ref();
        Self::read_from(&mut &data[..], data.len())
    }

    /// Restores an index from the next `section_len` bytes of `r`, the
    /// length the caller knows the snapshot spans (a slice's length, or
    /// the section length a container header gives and the file length
    /// bounds). Consumes exactly `section_len` bytes, skipping any the
    /// index does not use.
    ///
    /// Returns [`SnapshotError::Corrupt`] when the fields do not describe
    /// an index this code could have written: sizes that overflow, a zero
    /// dimension, invalid parameters, a non-finite coordinate, a node with
    /// no layer 0, a list longer than its layer's degree bound, a link or
    /// entry point out of range, an upper-layer link to a node below that
    /// layer, a live count that disagrees with the tombstones, or a
    /// layer-0 arena more than 16× the snapshot's length plus 1 MiB.
    pub fn read_from<R: Read + ?Sized>(
        r: &mut R,
        section_len: usize,
    ) -> Result<Self, SnapshotError> {
        use SnapshotError::Corrupt;
        let data = &mut Section::new(r, section_len as u64);
        let magic = match data.array::<8>() {
            Err(SectionError::Short) => return Err(SnapshotError::BadHeader),
            magic => magic?,
        };
        if &magic[..4] != MAGIC || u32::from_le_bytes(magic[4..].try_into().unwrap()) != VERSION {
            return Err(SnapshotError::BadHeader);
        }
        let dim = data.u64()? as usize;
        let params = HnswParams::read_from(data)?;
        let [entry_raw, live, n_nodes] = [data.u64()?, data.u64()?, data.u64()?];
        let (live, n_nodes) = (live as usize, n_nodes as usize);
        if dim == 0 {
            return Err(Corrupt("zero dimension"));
        }
        params.validate().map_err(|_| Corrupt("invalid parameters"))?;
        let floats = n_nodes
            .checked_mul(dim)
            .filter(|f| f.checked_mul(8).is_some() && n_nodes <= u32::MAX as usize)
            .ok_or(Corrupt("node count × dimension overflows"))?;
        let raw = data.f64s(floats as u64)?;
        if raw.iter().any(|x| !x.is_finite()) {
            return Err(Corrupt("non-finite coordinate"));
        }
        let store = VecStore::from_raw(dim, raw);

        data.need(n_nodes as u64, MIN_NODE_BYTES as u64)?;
        let arena_bytes = n_nodes * (params.m0 + 2) * 4;
        if arena_bytes > ARENA_PER_INPUT_BYTE.saturating_mul(section_len) + ARENA_SLACK {
            return Err(Corrupt("layer-0 arena out of proportion to the snapshot"));
        }
        let mut adj = Adjacency::with_capacity(params.m0, n_nodes)
            .ok_or(Corrupt("layer-0 arena size overflows"))?;
        let mut deleted = Vec::with_capacity(n_nodes);
        let mut list = [0u8; 4 * MAX_DEGREE];
        for id in 0..n_nodes as u32 {
            let head = data.array::<5>()?;
            deleted.push(head[0] != 0);
            let n_layers = u32::from_le_bytes(head[1..].try_into().unwrap()) as usize;
            if n_layers == 0 {
                return Err(Corrupt("node without a layer 0"));
            }
            data.need(n_layers as u64, 4)?;
            adj.add_node(n_layers - 1);
            for layer in 0..n_layers {
                let len = u32::from_le_bytes(data.array()?) as usize;
                if len > params.max_degree(layer) {
                    return Err(Corrupt("neighbour list longer than its degree bound"));
                }
                let links = &mut list[..len * 4];
                data.fill(links)?;
                let ids = links.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
                adj.set_links(id, layer, ids);
                if adj.links_at(id, layer).iter().any(|&nb| nb as usize >= n_nodes) {
                    return Err(Corrupt("neighbour id out of range"));
                }
            }
        }
        // A walk on layer l steps only to nodes that live on layer l.
        for id in 0..n_nodes as u32 {
            for layer in 1..=adj.level(id) {
                if adj.links_at(id, layer).iter().any(|&nb| adj.level(nb) < layer) {
                    return Err(Corrupt("upper-layer link to a node below that layer"));
                }
            }
        }
        let entry = match entry_raw {
            u64::MAX => None,
            e if e < n_nodes as u64 => Some(e as u32),
            _ => return Err(Corrupt("entry point out of range")),
        };
        if deleted.iter().filter(|&&d| !d).count() != live {
            return Err(Corrupt("live count disagrees with the tombstones"));
        }
        data.skip_rest()?;
        Ok(Hnsw::from_parts(params, store, adj, deleted, entry, live))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ppann_linalg::{seeded_rng, uniform_vec};

    #[test]
    fn retired_option_bytes_are_ignored_on_load() {
        let mut rng = seeded_rng(72);
        let pts: Vec<Vec<f64>> = (0..200).map(|_| uniform_vec(&mut rng, 6, -1.0, 1.0)).collect();
        let index = Hnsw::build(6, HnswParams::default(), &pts);
        let original = index.to_bytes();
        // magic, version, dim, m, m0, ef_construction, then the two bytes.
        let at = 4 + 4 + 8 + 3 * 8;
        assert_eq!(original[at..at + 2], [0, 1]);
        let mut edited = original.to_vec();
        edited[at..at + 2].copy_from_slice(&[1, 0]);
        let restored = Hnsw::from_bytes(Bytes::from(edited)).unwrap();
        assert_eq!(restored.to_bytes(), original);
        assert_eq!(restored.search(&pts[9], 5, 40), index.search(&pts[9], 5, 40));
    }

    #[test]
    fn roundtrip_preserves_results() {
        let mut rng = seeded_rng(71);
        let pts: Vec<Vec<f64>> = (0..300).map(|_| uniform_vec(&mut rng, 8, -1.0, 1.0)).collect();
        let mut index = Hnsw::build(8, HnswParams::default(), &pts);
        index.delete(5);
        let bytes = index.to_bytes();
        let restored = Hnsw::from_bytes(bytes).unwrap();
        assert_eq!(restored.len(), index.len());
        assert!(restored.is_deleted(5));
        for q in pts.iter().take(10) {
            let a: Vec<u32> = index.search(q, 5, 40).iter().map(|n| n.id).collect();
            let b: Vec<u32> = restored.search(q, 5, 40).iter().map(|n| n.id).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            Hnsw::from_bytes(Bytes::from_static(b"nope")).unwrap_err(),
            SnapshotError::BadHeader
        );
        let mut good = Hnsw::build(2, HnswParams::default(), &[vec![0.0, 1.0]]).to_bytes().to_vec();
        // Cut inside the node count, the last of the 74 header bytes.
        let header_cut = Bytes::copy_from_slice(&good[..70]);
        assert_eq!(Hnsw::from_bytes(header_cut).unwrap_err(), SnapshotError::Truncated);
        good.truncate(good.len() - 3);
        assert_eq!(Hnsw::from_bytes(Bytes::from(good)).unwrap_err(), SnapshotError::Truncated);
    }

    // Header offsets of the fields the rejection tests below edit.
    const DIM: usize = 8;
    const M: usize = 16;
    const M0: usize = 24;
    const ENTRY: usize = 50;
    const LIVE: usize = 58;
    const N_NODES: usize = 66;
    const STORE: usize = 74;

    /// A 300 × 2 index (so some nodes reach layer 1) and its snapshot.
    fn snapshot() -> (Hnsw, Vec<u8>) {
        let mut rng = seeded_rng(72);
        let pts: Vec<Vec<f64>> = (0..300).map(|_| uniform_vec(&mut rng, 2, -1.0, 1.0)).collect();
        let index = Hnsw::build(2, HnswParams::default(), &pts);
        let bytes = index.to_bytes().to_vec();
        (index, bytes)
    }

    fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Offset of node 0's record (its tombstone byte) in the graph section.
    fn node0(index: &Hnsw) -> usize {
        STORE + index.capacity_slots() * index.dim() * 8
    }

    /// Offset of the record of the first node that lives on layer 1.
    fn first_upper_node(index: &Hnsw) -> (u32, usize) {
        let mut at = node0(index);
        for id in 0..index.capacity_slots() as u32 {
            if index.node_level(id) >= 1 {
                return (id, at);
            }
            at += 1 + 4 + 4 + 4 * index.links(id, 0).len();
        }
        panic!("no node reached layer 1");
    }

    fn load(bytes: Vec<u8>) -> Result<Hnsw, SnapshotError> {
        Hnsw::from_bytes(Bytes::from(bytes))
    }

    fn corrupt(bytes: Vec<u8>) -> &'static str {
        match load(bytes) {
            Err(SnapshotError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "an index")),
        }
    }

    #[test]
    fn the_unedited_snapshot_loads() {
        let (index, bytes) = snapshot();
        assert_eq!(load(bytes.clone()).unwrap().to_bytes().to_vec(), bytes);
        assert!(first_upper_node(&index).0 < 300);
    }

    #[test]
    fn rejects_a_store_size_that_overflows() {
        let (_, mut bytes) = snapshot();
        put_u64(&mut bytes, N_NODES, 1 << 62);
        assert_eq!(corrupt(bytes), "node count × dimension overflows");
    }

    #[test]
    fn rejects_a_zero_dimension() {
        let (_, mut bytes) = snapshot();
        put_u64(&mut bytes, DIM, 0);
        assert_eq!(corrupt(bytes), "zero dimension");
    }

    #[test]
    fn rejects_invalid_parameters() {
        let (_, mut bytes) = snapshot();
        put_u64(&mut bytes, M, 1);
        assert_eq!(corrupt(bytes), "invalid parameters");
        let (_, mut bytes) = snapshot();
        put_u64(&mut bytes, M0, crate::params::MAX_DEGREE as u64 + 1);
        assert_eq!(corrupt(bytes), "invalid parameters");
    }

    #[test]
    fn rejects_a_non_finite_coordinate() {
        let (_, mut bytes) = snapshot();
        bytes[STORE..STORE + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(corrupt(bytes), "non-finite coordinate");
    }

    #[test]
    fn rejects_a_node_without_layer_0() {
        let (index, mut bytes) = snapshot();
        put_u32(&mut bytes, node0(&index) + 1, 0);
        assert_eq!(corrupt(bytes), "node without a layer 0");
    }

    #[test]
    fn rejects_a_neighbour_id_out_of_range() {
        let (index, mut bytes) = snapshot();
        assert!(!index.links(0, 0).is_empty());
        put_u32(&mut bytes, node0(&index) + 9, 300);
        assert_eq!(corrupt(bytes), "neighbour id out of range");
    }

    #[test]
    fn rejects_an_entry_point_out_of_range() {
        let (_, mut bytes) = snapshot();
        put_u64(&mut bytes, ENTRY, 300);
        assert_eq!(corrupt(bytes), "entry point out of range");
    }

    #[test]
    fn rejects_a_layer_0_list_longer_than_m0() {
        // Lowering m0 to m (still valid parameters) leaves the rows that
        // hold more than m links too long for the arena.
        let (index, mut bytes) = snapshot();
        assert!((0..300).any(|id| index.links(id, 0).len() > 16));
        put_u64(&mut bytes, M0, 16);
        assert_eq!(corrupt(bytes), "neighbour list longer than its degree bound");
    }

    #[test]
    fn rejects_an_upper_list_longer_than_m() {
        let (index, mut bytes) = snapshot();
        let (id, _) = first_upper_node(&index);
        let longest = (0..300u32)
            .filter(|&v| index.node_level(v) >= 1)
            .map(|v| index.links(v, 1).len())
            .max()
            .unwrap();
        assert!(longest > 2, "node {id}'s layer is too sparse for this edit");
        put_u64(&mut bytes, M, 2);
        assert_eq!(corrupt(bytes), "neighbour list longer than its degree bound");
    }

    #[test]
    fn rejects_an_upper_link_to_a_node_below_that_layer() {
        let (index, mut bytes) = snapshot();
        let (id, at) = first_upper_node(&index);
        let layer1 = at + 1 + 4 + 4 + 4 * index.links(id, 0).len();
        assert!(!index.links(id, 1).is_empty());
        let ground = (0..300u32).find(|&v| index.node_level(v) == 0).unwrap();
        put_u32(&mut bytes, layer1 + 4, ground);
        assert_eq!(corrupt(bytes), "upper-layer link to a node below that layer");
    }

    /// A dim-1 snapshot of `n` live nodes with empty lists: 17 bytes per
    /// node, the least a node record can take.
    fn minimal_nodes(m0: u64, n: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend(VERSION.to_le_bytes());
        for v in [1, 16, m0, 200] {
            bytes.extend(u64::to_le_bytes(v));
        }
        bytes.extend([0, 1]);
        for v in [0x5EED, u64::MAX, n as u64, n as u64] {
            bytes.extend(u64::to_le_bytes(v));
        }
        for _ in 0..n {
            bytes.extend(0.0f64.to_le_bytes());
        }
        for _ in 0..n {
            bytes.push(0);
            bytes.extend(1u32.to_le_bytes());
            bytes.extend(0u32.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn rejects_an_arena_out_of_proportion_to_the_snapshot() {
        // At m0 = 256 each 17-byte record claims a 1032-byte row.
        assert_eq!(
            corrupt(minimal_nodes(256, 4000)),
            "layer-0 arena out of proportion to the snapshot"
        );
        assert_eq!(load(minimal_nodes(256, 100)).unwrap().len(), 100, "small ones fit the slack");
        assert_eq!(load(minimal_nodes(32, 4000)).unwrap().len(), 4000, "default m0 always fits");
    }

    #[test]
    fn rejects_a_live_count_that_disagrees_with_the_tombstones() {
        let (_, mut bytes) = snapshot();
        put_u64(&mut bytes, LIVE, 299);
        assert_eq!(corrupt(bytes), "live count disagrees with the tombstones");
    }
}
