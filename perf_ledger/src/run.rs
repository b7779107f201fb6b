//! What the untraced and the traced run share: generated inputs, set-up,
//! the closed-loop client session and its per-reply correctness checks.

use crate::procfs;
use crate::server::{ServeOptions, Server, TOKEN};
use crate::trace::{Tracer, NO_COUNT};
use crate::workload::{Op, OpGen, Spec, COLLECTION, QUERY_POOL, RECALL_QUERIES};
use ppann_core::{
    save_collection_snapshot, CloudServer, CollectionMeta, DataOwner, EncryptedQuery, PpAnnParams,
    QueryUser, SearchOutcome, SearchParams,
};
use ppann_datasets::{brute_force_knn, recall_at_k, Dataset};
use ppann_dce::DceCiphertext;
use ppann_service::{ClientError, Frame, ServiceClient};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where the benchmark finds its server binary and keeps its data dirs.
pub struct Env {
    pub cli: PathBuf,
    pub work: PathBuf,
    /// `serve --workers`: `min(nproc, 4)`.
    pub workers: usize,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The plaintext side of a workload: everything generated from the seed
/// before any clock starts (dataset generation and ground truth are the
/// benchmark's own work, not the system's).
pub struct Plain {
    /// The `n` vectors outsourced at set-up.
    pub base: Vec<Vec<f64>>,
    /// Vectors inserted later; pool vector `j` becomes id `n + j`.
    pub pool: Vec<Vec<f64>>,
    pub queries: Vec<Vec<f64>>,
    /// Exact top-k over `base` for the first `RECALL_QUERIES` queries.
    pub truth: Vec<Vec<u32>>,
}

impl Plain {
    /// `pool` is how many vectors beyond `n` the run may insert.
    pub fn generate(spec: &Spec, seed: u64, pool: usize) -> Self {
        let ds = Dataset::generate(spec.profile, spec.n + pool, QUERY_POOL, seed);
        let mut base = ds.base;
        let pool = base.split_off(spec.n);
        let truth = brute_force_knn(&base, &ds.queries[..RECALL_QUERIES], spec.k);
        Self { base, pool, queries: ds.queries, truth }
    }

    /// The plaintext behind a server id.
    pub fn vector(&self, id: u32) -> &[f64] {
        let id = id as usize;
        if id < self.base.len() {
            &self.base[id]
        } else {
            &self.pool[id - self.base.len()]
        }
    }
}

/// One provisioned deployment: the owner's keys, the in-process copy of
/// what was outsourced, and the server child serving the same snapshot.
pub struct Served {
    pub owner: DataOwner,
    pub local: CloudServer,
    pub server: Server,
    pub client: ServiceClient,
    pub data_dir: PathBuf,
}

pub fn search_params(spec: &Spec) -> SearchParams {
    SearchParams { k_prime: spec.k_prime, ef_search: spec.ef }
}

pub fn snapshot_path(data_dir: &Path) -> PathBuf {
    data_dir.join(format!("{COLLECTION}.ppdb"))
}

pub fn serve(env: &Env, data_dir: &Path) -> Result<Server, String> {
    Server::spawn(&ServeOptions { cli: &env.cli, data_dir, workers: env.workers })
}

pub fn connect(server: &Server) -> Result<ServiceClient, String> {
    ServiceClient::connect(server.addr.as_str(), None).map_err(|e| format!("connect: {e}"))
}

/// Set-up as an operator pays for it: owner key setup, SAP + DCE
/// encryption, index build, snapshot write, server spawn, first reply.
/// Returns the deployment and the seconds it took.
pub fn set_up(spec: &Spec, seed: u64, plain: &Plain, env: &Env) -> Result<(Served, f64), String> {
    let data_dir = env.work.join(spec.name);
    let _ = std::fs::remove_dir_all(&data_dir);
    let started = Instant::now();
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let params = PpAnnParams::new(spec.dim()).with_seed(seed).with_beta(spec.beta);
    let owner = DataOwner::setup(params, &plain.base);
    let db = owner.outsource(&plain.base);
    let meta = CollectionMeta { name: COLLECTION.to_string(), shards: 1 };
    save_collection_snapshot(&snapshot_path(&data_dir), &meta, &db)
        .map_err(|e| format!("snapshot: {e}"))?;
    let server = serve(env, &data_dir)?;
    let mut client = connect(&server)?;
    let first = owner.authorize_user().encrypt_query(&plain.queries[0], spec.k);
    let reply = client
        .search_in(COLLECTION, &first, &search_params(spec))
        .map_err(|e| format!("first query: {e}"))?;
    if reply.ids.len() != spec.k {
        return Err(format!("first reply holds {} ids, not {}", reply.ids.len(), spec.k));
    }
    let secs = started.elapsed().as_secs_f64();
    Ok((Served { owner, local: CloudServer::new(db), server, client, data_dir }, secs))
}

/// What one window of ops measured at the client.
#[derive(Clone, Debug, Default)]
pub struct WindowSample {
    pub search_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub wall_s: f64,
    pub ops: usize,
    /// Server child `utime + stime` spent during the window.
    pub server_cpu_s: f64,
    pub traced: bool,
}

impl WindowSample {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    pub fn server_cpu_us_per_op(&self) -> f64 {
        self.server_cpu_s * 1e6 / self.ops as f64
    }

    pub fn max_us(&self) -> f64 {
        [&self.search_us, &self.insert_us, &self.delete_us]
            .into_iter()
            .flatten()
            .fold(0.0, |m, &v| m.max(v))
    }
}

/// The closed loop: **one** connection, each op sent only after the
/// previous reply was read and checked.
pub struct Session<'a> {
    pub spec: &'a Spec,
    pub plain: &'a Plain,
    pub env: &'a Env,
    pub served: Served,
    pub gen: OpGen,
    /// The insert pool as the owner pre-encrypted it during set-up.
    pool_enc: Vec<(Vec<f64>, DceCiphertext)>,
    /// Client-side record of which ids are live, indexed by id.
    live: Vec<bool>,
    /// Duplicate detection: `seen[id] == stamp` means id already appeared
    /// in the reply being checked.
    seen: Vec<u64>,
    stamp: u64,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    /// Snapshot rewrites observed (threshold compactions) and their bytes.
    pub compactions: u64,
    pub rewritten_bytes: u64,
    snapshot_seen: Option<(u64, std::time::SystemTime)>,
    /// Request + reply frame bytes of the searches sampled so far.
    frame_bytes: (u64, u64),
}

impl<'a> Session<'a> {
    pub fn new(spec: &'a Spec, seed: u64, plain: &'a Plain, env: &'a Env, served: Served) -> Self {
        let pool_enc = plain
            .pool
            .iter()
            .enumerate()
            .map(|(j, v)| served.owner.encrypt_for_insert(v, j as u64))
            .collect();
        let slots = plain.base.len() + plain.pool.len();
        let mut live = vec![false; slots];
        live[..plain.base.len()].fill(true);
        let mut s = Self {
            spec,
            plain,
            env,
            served,
            gen: OpGen::new(spec, seed),
            pool_enc,
            live,
            seen: vec![0; slots],
            stamp: 0,
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(),
            compactions: 0,
            rewritten_bytes: 0,
            snapshot_seen: None,
            frame_bytes: (0, 0),
        };
        s.snapshot_seen = s.snapshot_stat();
        s
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perf_ledger: {}: FAILED op: {what}", self.spec.name);
        }
    }

    /// `k` ids, `k` distances, every id live, none twice.
    fn reply_fault(&mut self, out: &SearchOutcome, k: usize) -> Option<String> {
        if out.ids.len() != k || out.sap_dists.len() != k {
            return Some(format!(
                "{} ids / {} dists for k={k}",
                out.ids.len(),
                out.sap_dists.len()
            ));
        }
        self.stamp += 1;
        for &id in &out.ids {
            if !self.live.get(id as usize).copied().unwrap_or(false) {
                return Some(format!("dead or unknown id {id}"));
            }
            if std::mem::replace(&mut self.seen[id as usize], self.stamp) == self.stamp {
                return Some(format!("duplicate id {id}"));
            }
        }
        None
    }

    /// Counts a search reply that errored or fails [`Self::reply_fault`] as
    /// a failed op; returns the outcome when it is sound.
    fn checked(
        &mut self,
        reply: Result<SearchOutcome, ClientError>,
        what: &str,
    ) -> Option<SearchOutcome> {
        let fault = match &reply {
            Ok(out) => self.reply_fault(out, self.spec.k),
            Err(e) => Some(e.to_string()),
        };
        match fault {
            None => reply.ok(),
            Some(fault) => {
                self.fail(&format!("{what}: {fault}"));
                None
            }
        }
    }

    /// Encrypts and sends one search, checks the reply, and returns the
    /// encrypted query with the outcome (for parity and recall checks).
    fn search(
        &mut self,
        user: &mut QueryUser,
        query: &[f64],
        params: &SearchParams,
    ) -> Option<(EncryptedQuery, SearchOutcome)> {
        let eq = user.encrypt_query(query, self.spec.k);
        self.attempted += 1;
        let reply = self.served.client.search_in(COLLECTION, &eq, params);
        self.checked(reply, "search").map(|out| (eq, out))
    }

    /// Runs one op; `request` identifies it in the trace when `traced`.
    fn exec(
        &mut self,
        user: &mut QueryUser,
        op: Op,
        request: u64,
        traced: bool,
        sample: &mut WindowSample,
    ) {
        self.attempted += 1;
        match op {
            Op::Search(q) => {
                let plain: &'a Plain = self.plain;
                let query = &plain.queries[q as usize];
                let t0 = self.tracer.now();
                let eq = user.encrypt_query(query, self.spec.k);
                let t1 = self.tracer.now();
                let reply =
                    self.served.client.search_in(COLLECTION, &eq, &search_params(self.spec));
                let t2 = self.tracer.now();
                sample.search_us.push((t2 - t0) as f64 / 1e3);
                let ids = self.checked(reply, "search").map_or(0, |out| out.ids.len() as u64);
                if traced {
                    let t3 = self.tracer.now();
                    let root = self.tracer.record("request", t0, t3, None, request, [NO_COUNT; 2]);
                    self.tracer.record(
                        "user.encrypt_query",
                        t0,
                        t1,
                        Some(root),
                        request,
                        [NO_COUNT; 2],
                    );
                    let counts = [("reply_ids", ids), NO_COUNT];
                    self.tracer.record("client.search", t1, t2, Some(root), request, counts);
                }
            }
            Op::Insert(j) => {
                let (c_sap, c_dce) = self.pool_enc[j as usize].clone();
                let expected = (self.plain.base.len() + j as usize) as u32;
                let t0 = self.tracer.now();
                let reply = self.served.client.insert_in(COLLECTION, TOKEN, c_sap, c_dce);
                let t1 = self.tracer.now();
                sample.insert_us.push((t1 - t0) as f64 / 1e3);
                match reply {
                    Ok(id) if id == expected => self.live[id as usize] = true,
                    Ok(id) => self.fail(&format!("insert acked id {id}, expected {expected}")),
                    Err(e) => self.fail(&format!("insert: {e}")),
                }
                self.note_write("client.insert", t0, t1, request, traced);
            }
            Op::Delete(id) => {
                let t0 = self.tracer.now();
                let reply = self.served.client.delete_in(COLLECTION, TOKEN, id);
                let t1 = self.tracer.now();
                sample.delete_us.push((t1 - t0) as f64 / 1e3);
                match reply {
                    Ok(()) => self.live[id as usize] = false,
                    Err(e) => self.fail(&format!("delete {id}: {e}")),
                }
                self.note_write("client.delete", t0, t1, request, traced);
            }
        }
    }

    fn note_write(&mut self, name: &'static str, t0: u64, t1: u64, request: u64, traced: bool) {
        self.note_compaction();
        if traced {
            let t2 = self.tracer.now();
            let root = self.tracer.record("request", t0, t2, None, request, [NO_COUNT; 2]);
            self.tracer.record(name, t0, t1, Some(root), request, [NO_COUNT; 2]);
        }
    }

    fn snapshot_stat(&self) -> Option<(u64, std::time::SystemTime)> {
        let meta = std::fs::metadata(snapshot_path(&self.served.data_dir)).ok()?;
        Some((meta.len(), meta.modified().ok()?))
    }

    /// A compaction renames a rewritten snapshot over the old one; seen
    /// from outside, the file's length or mtime changed after a write ack.
    fn note_compaction(&mut self) {
        let now = self.snapshot_stat();
        if now != self.snapshot_seen {
            self.compactions += 1;
            self.rewritten_bytes += now.map_or(0, |(len, _)| len);
            self.snapshot_seen = now;
        }
    }

    /// Runs one window of ops from a freshly authorised user (so a
    /// repeated window re-sends byte-identical encrypted queries).
    pub fn run_window(&mut self, ops: &[Op], request_base: u64, traced: bool) -> WindowSample {
        let mut user = self.served.owner.authorize_user();
        let mut sample = WindowSample { ops: ops.len(), traced, ..WindowSample::default() };
        let pid = self.served.server.pid();
        let cpu_before = procfs::cpu_seconds(pid).unwrap_or(0.0);
        let started = Instant::now();
        for (i, &op) in ops.iter().enumerate() {
            self.exec(&mut user, op, request_base + i as u64, traced, &mut sample);
        }
        sample.wall_s = started.elapsed().as_secs_f64();
        sample.server_cpu_s = procfs::cpu_seconds(pid).unwrap_or(0.0) - cpu_before;
        sample
    }

    /// Exact top-k over the *current* live set for the recall queries.
    fn live_truth(&self) -> Vec<Vec<u32>> {
        if self.gen.inserts_made() == 0 {
            return self.plain.truth.clone();
        }
        let mut ids: Vec<u32> = self.gen.live().to_vec();
        ids.sort_unstable();
        let vectors: Vec<Vec<f64>> = ids.iter().map(|&id| self.plain.vector(id).to_vec()).collect();
        brute_force_knn(&vectors, &self.plain.queries[..RECALL_QUERIES], self.spec.k)
            .into_iter()
            .map(|hits| hits.into_iter().map(|at| ids[at as usize]).collect())
            .collect()
    }

    /// The fixed 500-query sweep: mean recall@k against plaintext brute
    /// force over the live set. With `parity`, every reply must also equal
    /// in-process `CloudServer::search` over the same snapshot, ids and
    /// `sap_dists` bit for bit.
    pub fn recall_sweep(&mut self, parity: bool) -> f64 {
        let truth = self.live_truth();
        let params = search_params(self.spec);
        let mut user = self.served.owner.authorize_user();
        let mut recall = 0.0;
        let plain: &'a Plain = self.plain;
        for (qi, truth) in truth.iter().enumerate() {
            let query = &plain.queries[qi];
            let Some((eq, out)) = self.search(&mut user, query, &params) else { continue };
            recall += recall_at_k(truth, &out.ids);
            if qi < 32 {
                let collection = Some(COLLECTION.as_bytes().to_vec());
                let request = Frame::Search { collection, params, query: eq.clone() };
                self.frame_bytes.0 += 1;
                self.frame_bytes.1 += (request.encode().len()
                    + Frame::SearchResult(out.clone()).encode().len())
                    as u64;
            }
            if parity {
                let local = self.served.local.search(&eq, &params);
                let same_dists = local.sap_dists.len() == out.sap_dists.len()
                    && local
                        .sap_dists
                        .iter()
                        .zip(&out.sap_dists)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if local.ids != out.ids || !same_dists {
                    self.fail(&format!(
                        "query {qi}: loopback reply differs from in-process search"
                    ));
                }
            }
        }
        recall / truth.len() as f64
    }

    /// Mean request + reply frame bytes over the sampled searches.
    pub fn bytes_per_query(&self) -> f64 {
        self.frame_bytes.1 as f64 / self.frame_bytes.0.max(1) as f64
    }

    /// Bytes under the data dir (snapshot + WAL).
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.served.data_dir)
            .map(|entries| {
                entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
            })
            .unwrap_or(0)
    }

    /// `SIGKILL`s the server right after the last ack, restarts it on the
    /// same data dir and returns the seconds to the first correct reply.
    /// Then holds the restarted server to "acknowledged means durable":
    /// the live count is the acked one, every insert in `recent` is
    /// searchable and every delete in `recent` is gone.
    pub fn kill_and_restart(&mut self, recent: &[Op]) -> Result<f64, String> {
        let data_dir = self.served.data_dir.clone();
        let probe =
            self.served.owner.authorize_user().encrypt_query(&self.plain.queries[0], self.spec.k);
        let params = search_params(self.spec);
        self.served.server.kill();
        let started = Instant::now();
        self.served.server = serve(self.env, &data_dir)?;
        self.served.client = connect(&self.served.server)?;
        self.attempted += 1;
        let reply = self.served.client.search_in(COLLECTION, &probe, &params);
        let secs = started.elapsed().as_secs_f64();
        self.checked(reply, "first reply after restart");
        self.snapshot_seen = self.snapshot_stat();
        self.verify_durable(recent);
        Ok(secs)
    }

    fn verify_durable(&mut self, recent: &[Op]) {
        self.attempted += 1;
        let expected_live = self.gen.live().len() as u64;
        match self.served.client.list_collections() {
            Ok(entries) => match entries.iter().find(|e| e.name == COLLECTION) {
                Some(e) if e.live == expected_live => {}
                Some(e) => {
                    self.fail(&format!("restart recovered {} live, acked {expected_live}", e.live))
                }
                None => self.fail("restart lost the collection"),
            },
            Err(e) => self.fail(&format!("list_collections: {e}")),
        }
        // A near-exhaustive beam: this check asks whether the id is in the
        // index at all, not whether the tuned search finds it.
        let wide = (4 * self.spec.ef).min(self.spec.n);
        let params = SearchParams { k_prime: wide, ef_search: wide };
        let mut user = self.served.owner.authorize_user();
        let plain: &'a Plain = self.plain;
        for &op in recent {
            let id = match op {
                Op::Insert(j) => (plain.base.len() + j as usize) as u32,
                Op::Delete(id) => id,
                Op::Search(_) => continue,
            };
            // The client's record says which it must be: a probe insert
            // deleted again before the kill has to stay gone.
            let want_present = self.live[id as usize];
            if let Some((_, out)) = self.search(&mut user, plain.vector(id), &params) {
                match (want_present, out.ids.contains(&id)) {
                    (true, false) => self.fail(&format!("acked insert {id} missing after restart")),
                    (false, true) => self.fail(&format!("acked delete {id} present after restart")),
                    _ => {}
                }
            }
        }
    }
}
