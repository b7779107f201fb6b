//! The four named workloads and their op lists.
//!
//! An op list is a pure function of (workload, seed): the server only ever
//! receives generated inputs, and a window replays the same seeded ops in
//! the same order, so counters repeat exactly and only wall time varies.

use ppann_datasets::DatasetProfile;

/// Distinct plaintext queries generated per workload; the first
/// [`RECALL_QUERIES`] of them are the fixed recall subset.
pub const QUERY_POOL: usize = 1000;
pub const RECALL_QUERIES: usize = 500;

/// Collection name every workload is served under.
pub const COLLECTION: &str = "ledger";

/// Nominal length of one window. `--seconds` buys `seconds / WINDOW_S`
/// windows: a tighter run cuts windows, never a window's size or `n`.
pub const WINDOW_S: f64 = 2.0;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub profile: DatasetProfile,
    /// Live vectors (constant on the churn workload).
    pub n: usize,
    pub beta: f64,
    pub k: usize,
    pub k_prime: usize,
    pub ef: usize,
    /// Ops in one window, sized so a window lasts at least [`WINDOW_S`]
    /// on the reference host (2 vCPU sandbox).
    pub window_ops: usize,
    /// 8 searches : 1 insert : 1 delete instead of searches only.
    pub churn: bool,
    /// `recall_at_k` below this fails the run.
    pub recall_floor: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "sift50k-filter",
        why: "HNSW filter over c_sap is ~85% of server time and the 51 MB store plus graph exceeds \
              cache: index-layout and distance-kernel changes show here, refine/service changes \
              must not; recall floor 0.85",
        profile: DatasetProfile::SiftLike,
        n: 50_000,
        beta: 1.5,
        k: 10,
        k_prime: 40,
        ef: 600,
        window_ops: 3200,
        churn: false,
        recall_floor: 0.85,
    },
    Spec {
        name: "sift2k-refine",
        why: "small collection, k=100, k'=1600: the filter is a near-scan and exact DCE ranking \
              dominates, replies carry 100 ids: DCE kernel, top-k and reply-codec changes show here; \
              recall floor 0.99",
        profile: DatasetProfile::SiftLike,
        n: 2000,
        beta: 3.0,
        k: 100,
        k_prime: 1600,
        ef: 1600,
        window_ops: 1400,
        churn: false,
        recall_floor: 0.99,
    },
    Spec {
        name: "deep2k-rtt",
        why: "the whole search is ~35us, so trapdoor, frame codec, syscalls, reactor hand-off and \
              lock dominate the round trip: the service-layer workload, kernels must not move it; \
              recall floor 0.99",
        profile: DatasetProfile::DeepLike,
        n: 2000,
        beta: 1.4,
        k: 10,
        k_prime: 40,
        ef: 40,
        window_ops: 13_000,
        churn: false,
        recall_floor: 0.99,
    },
    Spec {
        name: "deep5k-churn",
        why: "8 search : 1 insert : 1 delete on one index and lock with fsync always: WAL append, \
              HNSW insert/delete, threshold compaction, tombstones, then SIGKILL + restart; \
              recall floor 0.97",
        profile: DatasetProfile::DeepLike,
        n: 5000,
        beta: 1.4,
        k: 10,
        k_prime: 160,
        ef: 160,
        window_ops: 2400,
        churn: true,
        recall_floor: 0.97,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Measured windows in a run of `seconds`, at least three.
pub fn windows_for(seconds: f64) -> usize {
    ((seconds / WINDOW_S).round() as usize).max(3)
}

impl Spec {
    pub fn dim(&self) -> usize {
        self.profile.dim()
    }

    /// Inserts the write probe of a read-only workload makes. On the
    /// 50 000-vector collection a 4 MiB log holds 430 inserts and a
    /// compaction rewrites 490 MB in ten seconds; the probe stays under.
    pub const PROBE_INSERTS: usize = 400;
    /// Inserts acked before each `SIGKILL`; a quarter of them are deleted
    /// again. Few, because every restart replays all of them so far and a
    /// replayed delete alone is ~3 ms of graph repair.
    pub const WRITES_PER_RESTART: usize = 4;

    /// `SIGKILL` + restart cycles `restart_s` is the median of. Restart is
    /// churn's subject; the read-only workloads report it because every
    /// workload reports every metric, and a 50 000-vector restart is 3 s.
    pub fn restart_cycles(&self) -> usize {
        if self.churn {
            5
        } else {
            3
        }
    }

    /// The op's id in the trace: ids run on through the warm-up window
    /// (`window` 0) and the measured windows (`window` 1 onwards).
    pub fn request_id(&self, window: usize, i: usize) -> u64 {
        (window * self.window_ops + i) as u64
    }

    /// Plaintext vectors to generate beyond the initial `n` for a run of
    /// `windows` measured windows (plus the warm-up); the owner
    /// pre-encrypts all of them for insertion during set-up.
    pub fn insert_pool(&self, windows: usize) -> usize {
        let windows = if self.churn { (windows + 1) * self.window_ops / 10 } else { 0 };
        windows + Self::PROBE_INSERTS + self.restart_cycles() * Self::WRITES_PER_RESTART
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Search for query `QUERY_POOL` index.
    Search(u32),
    /// Insert insert-pool vector; the server must assign it id `n + index`.
    Insert(u32),
    /// Delete a live id.
    Delete(u32),
}

/// SplitMix64: the op lists need a seeded stream, not a quality one.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Generates a workload's windows in order, and is the client's record of
/// which ids are live (ids the server has acknowledged are a function of
/// the op list: insert `j` gets id `n + j`).
#[derive(Clone, Debug)]
pub struct OpGen {
    spec: Spec,
    seed: u64,
    rng: SplitMix64,
    live: Vec<u32>,
    next_insert: u32,
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Self {
            spec: *spec,
            seed,
            rng: Self::stream(spec, seed),
            live: (0..spec.n as u32).collect(),
            next_insert: 0,
        }
    }

    fn stream(spec: &Spec, seed: u64) -> SplitMix64 {
        let tag = spec.name.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        SplitMix64(seed ^ tag)
    }

    /// The next window. Read-only workloads repeat one window; the churn
    /// workload continues its history (fresh inserts, deletes of live ids).
    pub fn next_window(&mut self) -> Vec<Op> {
        if !self.spec.churn {
            self.rng = Self::stream(&self.spec, self.seed);
        }
        (0..self.spec.window_ops)
            .map(|i| match (self.spec.churn, i % 10) {
                (true, 8) => self.insert(),
                (true, 9) => self.delete(),
                _ => Op::Search(self.rng.below(QUERY_POOL) as u32),
            })
            .collect()
    }

    /// An insert of the next pool vector, outside any window.
    pub fn insert(&mut self) -> Op {
        let index = self.next_insert;
        self.next_insert += 1;
        self.live.push(self.spec.n as u32 + index);
        Op::Insert(index)
    }

    /// A delete of a seeded choice among the live ids.
    pub fn delete(&mut self) -> Op {
        let at = self.rng.below(self.live.len());
        Op::Delete(self.live.swap_remove(at))
    }

    /// Deletes one specific live id (the write probe removes what it added).
    pub fn delete_id(&mut self, id: u32) -> Op {
        let at = self.live.iter().position(|&l| l == id).expect("delete_id of a dead id");
        Op::Delete(self.live.swap_remove(at))
    }

    pub fn live(&self) -> &[u32] {
        &self.live
    }

    pub fn inserts_made(&self) -> usize {
        self.next_insert as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}: why is {}", w.name, w.why.len());
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name), Some(w));
            assert!(w.k <= w.k_prime && w.k_prime <= w.ef && w.ef <= w.n);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn op_list_is_a_pure_function_of_workload_and_seed() {
        for spec in &WORKLOADS {
            let windows = |seed| {
                let mut g = OpGen::new(spec, seed);
                (0..3).map(|_| g.next_window()).collect::<Vec<_>>()
            };
            assert_eq!(windows(1), windows(1), "{}", spec.name);
            assert_ne!(windows(1), windows(2), "{}", spec.name);
            assert!(windows(1).iter().all(|w| w.len() == spec.window_ops));
        }
        let a = OpGen::new(&WORKLOADS[0], 1).next_window();
        let b = OpGen::new(&WORKLOADS[1], 1).next_window();
        assert_ne!(a[..50], b[..50], "workloads draw from separate streams");
    }

    #[test]
    fn read_only_windows_repeat_exactly() {
        let mut g = OpGen::new(&WORKLOADS[2], 9);
        let first = g.next_window();
        assert_eq!(first, g.next_window());
        assert!(first.iter().all(|op| matches!(op, Op::Search(q) if (*q as usize) < QUERY_POOL)));
        assert_eq!(g.live().len(), WORKLOADS[2].n);
    }

    #[test]
    fn churn_keeps_the_live_count_constant_and_never_deletes_a_dead_id() {
        let spec = find("deep5k-churn").unwrap();
        let mut g = OpGen::new(spec, 3);
        let mut live: std::collections::BTreeSet<u32> = (0..spec.n as u32).collect();
        for _ in 0..4 {
            let window = g.next_window();
            let count = |f: fn(&Op) -> bool| window.iter().filter(|op| f(op)).count();
            assert_eq!(count(|op| matches!(op, Op::Search(_))), spec.window_ops * 8 / 10);
            assert_eq!(count(|op| matches!(op, Op::Insert(_))), spec.window_ops / 10);
            assert_eq!(count(|op| matches!(op, Op::Delete(_))), spec.window_ops / 10);
            for op in &window {
                match *op {
                    Op::Insert(j) => assert!(live.insert(spec.n as u32 + j), "id reused"),
                    Op::Delete(id) => assert!(live.remove(&id), "deleted dead id {id}"),
                    Op::Search(_) => {}
                }
            }
            assert_eq!(live.len(), spec.n);
            assert_eq!(g.live().len(), spec.n);
        }
        assert_eq!(g.inserts_made(), 4 * spec.window_ops / 10);
        assert!(g.inserts_made() <= spec.insert_pool(3));
    }
}
