//! Golden layout parity: a fixed build → delete → insert → search history
//! must produce the same snapshot bytes, the same answers (ids and `f64`
//! distance bits) and the same distance-computation count as the
//! adjacency layout the constants were recorded on. Any change to how the
//! graph is stored or walked must leave all three hashes untouched.
//!
//! The constants are keyed by the active kernel table, because the SIMD
//! kernels round differently from the scalar oracle (DESIGN.md §6) and so
//! build a different graph; `PPANN_FORCE_SCALAR=1` selects the scalar row.

use ppann_hnsw::{Hnsw, HnswParams};
use ppann_linalg::{kernels, seeded_rng, uniform_vec};

const N: usize = 3_000;
const DIM: usize = 32;
const CHURN: usize = 50;
const QUERIES: usize = 100;

/// `(snapshot bytes, result ids + distance bits, summed dist_comps)`.
type Golden = (u64, u64, u64);

/// Recorded with levels drawn from `hash(seed, id)`, the neighbour
/// selection that keeps a far link on layer 0 and does not back-fill the
/// upper layers, and deletes that repair each in-neighbour from its 2-hop
/// neighbourhood (DESIGN.md §3, S8); every adjacency layout must
/// reproduce them.
fn golden(table: &str) -> Option<Golden> {
    match table {
        "avx2" => Some((0xd56b_a3d7_ec96_9f5f, 0x91c4_61cb_7f39_9ccf, 0xeeed_130e_27e1_1461)),
        "scalar" => Some((0xd56b_a3d7_ec96_9f5f, 0x7f7d_386a_2017_a84c, 0xeeed_130e_27e1_1461)),
        _ => None,
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn history() -> Golden {
    let mut rng = seeded_rng(0x1A70);
    let base: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    // A narrower construction beam than the default keeps the debug-build
    // test quick; shrinking, tombstones and repair all still run.
    let params = HnswParams { ef_construction: 64, ..HnswParams::default() };
    let mut index = Hnsw::build(DIM, params, &base);
    // 61 is coprime to N, so these are 50 distinct ids spread over the graph.
    for i in 0..CHURN {
        index.delete((i * 61 % N) as u32);
    }
    for _ in 0..CHURN {
        index.insert(&uniform_vec(&mut rng, DIM, -1.0, 1.0));
    }
    let mut snapshot = Fnv::new();
    snapshot.write(&index.to_bytes());

    let mut answers = Fnv::new();
    index.reset_distance_computations();
    for _ in 0..QUERIES {
        let q = uniform_vec(&mut rng, DIM, -1.0, 1.0);
        for hit in index.search(&q, 10, 100) {
            answers.write(&hit.id.to_le_bytes());
            answers.write(&hit.dist.to_bits().to_le_bytes());
        }
    }
    let mut comps = Fnv::new();
    comps.write(&index.distance_computations().to_le_bytes());
    (snapshot.0, answers.0, comps.0)
}

#[test]
fn build_churn_search_history_is_layout_independent() {
    let table = kernels::active().name;
    let got = history();
    match golden(table) {
        Some(want) => assert_eq!(
            got, want,
            "layout parity broken on the {table} kernels: (snapshot, answers, dist_comps) hashes"
        ),
        None => eprintln!("no golden row for the {table} kernels; this host computed {got:#x?}"),
    }
}
