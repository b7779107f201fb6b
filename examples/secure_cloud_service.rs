//! Three-party deployment over a **real network boundary**: the data owner
//! outsources ciphertexts, the cloud runs `ppann-service` on a TCP socket,
//! and two independent query users talk to it through `ServiceClient` —
//! the message pattern of the paper's Figure 1, with actual frames on an
//! actual socket instead of in-process channels (PROTOCOL.md documents
//! every byte that crosses).
//!
//! ```text
//! cargo run --release --example secure_cloud_service
//! ```

use ppanns::core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
use ppanns::datasets::{DatasetProfile, Workload};
use ppanns::service::{serve, ServiceClient, ServiceConfig};
use std::thread;

const OWNER_TOKEN: u64 = 0x0B5C;

fn main() {
    let workload = Workload::generate(DatasetProfile::DeepLike, 3_000, 12, 11);
    let k = 5;
    let params = SearchParams::from_ratio(k, 16, 120);

    // --- Data owner: generates keys, encrypts, outsources.
    let scheme = PpAnnParams::new(workload.dim())
        .with_beta(DatasetProfile::DeepLike.default_beta())
        .with_seed(1);
    let owner = DataOwner::setup(scheme, workload.base());
    let encrypted_db = owner.outsource(workload.base());
    println!("[owner ] outsourced {} encrypted vectors", encrypted_db.len());

    // --- Cloud: serves the ciphertexts over TCP (port 0 = OS-assigned).
    // The cloud process holds no keys — only what the owner shipped.
    let server = CloudServer::new(encrypted_db);
    let config = ServiceConfig::loopback().with_owner_token(OWNER_TOKEN);
    let handle = serve(server, config).expect("bind loopback");
    let addr = handle.local_addr();
    println!("[cloud ] listening on {addr}");

    // --- Two independent users, each with its own connection and its own
    // forked key handle; queries are encrypted client-side, only
    // ciphertext crosses the socket.
    let mut user_a = owner.authorize_user();
    let mut user_b = user_a.fork();
    let queries = workload.queries().to_vec();
    let (half_a, half_b) = queries.split_at(queries.len() / 2);
    thread::scope(|s| {
        for (name, user, batch) in
            [("user-A", &mut user_a, half_a), ("user-B", &mut user_b, half_b)]
        {
            s.spawn(move || {
                let mut client = ServiceClient::connect(addr, None).expect("connect to cloud");
                for q in batch {
                    let enc = user.encrypt_query(q, k);
                    let up_bytes = enc.upload_bytes();
                    let out = client.search(&enc, &params).expect("remote search");
                    println!(
                        "[{name}] sent {up_bytes} B of ciphertext, got {} ids back \
                         ({} filter candidates, {} secure comparisons)",
                        out.ids.len(),
                        out.filter_candidates,
                        out.cost.refine_sdc_comps
                    );
                }
            });
        }
    });

    // --- The owner performs remote maintenance on the live service...
    let mut owner_client = ServiceClient::connect(addr, None).expect("owner connect");
    let novel = vec![0.5; workload.dim()];
    let (c_sap, c_dce) = owner.encrypt_for_insert(&novel, 99);
    let id = owner_client.insert(OWNER_TOKEN, c_sap, c_dce).expect("remote insert");
    owner_client.delete(OWNER_TOKEN, id).expect("remote delete");
    println!("[owner ] inserted and deleted vector {id} over the wire");

    // --- ...provisions a second, empty collection on the live service,
    // populates it with a pre-encrypted vector, and retires it — the
    // multi-collection catalog lifecycle (PROTOCOL.md §3.17–§3.22).
    owner_client
        .create_collection(OWNER_TOKEN, "staging", workload.dim())
        .expect("create collection");
    let (c_sap, c_dce) = owner.encrypt_for_insert(&novel, 100);
    let staged =
        owner_client.insert_in("staging", OWNER_TOKEN, c_sap, c_dce).expect("staged insert");
    let listing = owner_client.list_collections().expect("list collections");
    println!(
        "[owner ] staged vector {staged}; catalog now holds {}",
        listing
            .iter()
            .map(|e| format!("`{}` ({} live)", e.name, e.live))
            .collect::<Vec<_>>()
            .join(", ")
    );
    owner_client.drop_collection(OWNER_TOKEN, "staging").expect("drop collection");

    // --- ...reads the service counters, and shuts the cloud down cleanly.
    let stats = owner_client.stats().expect("stats");
    println!(
        "[cloud ] served {} queries (p50 {} us, p99 {} us bucketed), {} B in, {} B out",
        stats.queries, stats.p50_micros, stats.p99_micros, stats.bytes_in, stats.bytes_out
    );
    assert_eq!(stats.queries, queries.len() as u64);
    owner_client.shutdown(OWNER_TOKEN).expect("shutdown");
    handle.join();
    println!("[cloud ] shut down cleanly");
}
