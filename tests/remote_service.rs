//! Facade-level service tests: the acceptance path (`serve` answering
//! bit-identically to an in-process `CloudServer`) through the
//! `ppanns::service` re-export, plus a full process-level exercise of the
//! `ppanns-cli serve` / `query --remote` / `stats` / `shutdown` loop.

use ppanns::core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
use ppanns::linalg::{seeded_rng, uniform_vec};
use ppanns::service::{serve, ServiceClient, ServiceConfig};
use std::io::BufRead;
use std::process::{Command, Stdio};

#[test]
fn facade_serve_matches_in_process_cloud_server() {
    let dim = 6;
    let mut rng = seeded_rng(77);
    let data: Vec<Vec<f64>> = (0..300).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(dim).with_seed(77).with_beta(0.0), &data);

    let local = CloudServer::new(owner.outsource(&data));
    let handle =
        serve(CloudServer::new(owner.outsource(&data)), ServiceConfig::loopback()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(dim)).unwrap();

    let params = SearchParams { k_prime: 30, ef_search: 60 };
    let mut local_user = owner.authorize_user();
    let mut remote_user = owner.authorize_user();
    for (qi, point) in data.iter().take(10).enumerate() {
        let expect = local.search(&local_user.encrypt_query(point, 5), &params);
        let got = client.search(&remote_user.encrypt_query(point, 5), &params).unwrap();
        assert_eq!(got.ids, expect.ids, "query {qi}");
        let expect_bits: Vec<u64> = expect.sap_dists.iter().map(|d| d.to_bits()).collect();
        let got_bits: Vec<u64> = got.sap_dists.iter().map(|d| d.to_bits()).collect();
        assert_eq!(got_bits, expect_bits, "query {qi} encrypted distances");
    }
    handle.request_stop();
    handle.join();
}

#[test]
fn cli_serve_query_stats_shutdown_loop() {
    use ppanns::datasets::io::write_fvecs;
    use ppanns::datasets::{Dataset, DatasetProfile};

    let dir = std::env::temp_dir().join(format!("ppanns_cli_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.fvecs");
    let queries = dir.join("q.fvecs");
    let db = dir.join("db.bin");
    let keys = dir.join("keys.bin");

    // gen + outsource through the library (same code paths as the CLI
    // subcommands, which are covered by their own unit of this test:
    // serve/query/stats/shutdown as real processes).
    let ds = Dataset::generate(DatasetProfile::SiftLike, 400, 8, 5);
    write_fvecs(&base, &ds.base).unwrap();
    write_fvecs(&queries, &ds.queries).unwrap();
    let bin = env!("CARGO_BIN_EXE_ppanns-cli");
    let out = Command::new(bin)
        .args([
            "outsource",
            "--base",
            base.to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
            "--keys",
            keys.to_str().unwrap(),
            "--beta",
            "0",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "outsource failed: {}", String::from_utf8_lossy(&out.stderr));

    // serve on an OS-assigned port; parse the bound address.
    let mut server = Command::new(bin)
        .args([
            "serve",
            "--db",
            db.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--token",
            "99",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = server.stdout.take().unwrap();
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("cannot parse bound address from: {line}"))
        .to_string();

    // query --remote against the live server.
    let out = Command::new(bin)
        .args([
            "query",
            "--remote",
            &addr,
            "--keys",
            keys.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "5",
        ])
        .output()
        .unwrap();
    let stdout_text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "remote query failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout_text.contains("query 0:"), "no results in: {stdout_text}");
    assert!(stdout_text.contains("QPS, remote"), "no throughput line in: {stdout_text}");

    // stats over the wire.
    let out = Command::new(bin).args(["stats", "--remote", &addr]).output().unwrap();
    let stats_text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stats_text.contains("queries      : 8"), "unexpected stats: {stats_text}");
    assert!(stats_text.contains("live vectors : 400"), "unexpected stats: {stats_text}");

    // graceful shutdown; the server process must exit on its own, and its
    // final counter line must report the real live count (regression:
    // this used to print a hardcoded live=0).
    let out =
        Command::new(bin).args(["shutdown", "--remote", &addr, "--token", "99"]).output().unwrap();
    assert!(out.status.success(), "shutdown failed: {}", String::from_utf8_lossy(&out.stderr));
    let status = server.wait().unwrap();
    assert!(status.success(), "server exited abnormally");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
    assert!(
        rest.contains("shutdown: 400 live vectors"),
        "final counter line must report the real live count, got: {rest}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-collection CLI loop as real processes: serve --data-dir over
/// a directory holding a legacy v1 snapshot and a v2 one of another
/// dimensionality, then create/list/query/drop collections remotely and
/// restart to verify the directory is the source of truth.
#[test]
fn cli_data_dir_collections_loop() {
    use ppanns::core::{CollectionMeta, DataOwner, PpAnnParams};
    use ppanns::datasets::io::write_fvecs;
    use ppanns::datasets::{Dataset, DatasetProfile};

    let dir = std::env::temp_dir().join(format!("ppanns_cli_datadir_{}", std::process::id()));
    let store = dir.join("collections");
    std::fs::create_dir_all(&store).unwrap();
    let base = dir.join("base.fvecs");
    let queries = dir.join("q.fvecs");
    let keys = dir.join("keys.bin");

    let ds = Dataset::generate(DatasetProfile::SiftLike, 300, 4, 6);
    write_fvecs(&base, &ds.base).unwrap();
    write_fvecs(&queries, &ds.queries).unwrap();
    let narrow = Dataset::generate(DatasetProfile::DeepLike, 200, 1, 7);

    // Owner side (library): a 96d v1 snapshot (loads as its file stem)
    // and a 128d v2 one, whose owner's keys the remote query below uses.
    let narrow_owner =
        DataOwner::setup(PpAnnParams::new(96).with_beta(0.0).with_seed(7), &narrow.base);
    narrow_owner.outsource(&narrow.base).save_to(&store.join("legacy.ppdb")).unwrap();
    let owner =
        DataOwner::setup(PpAnnParams::new(ds.base[0].len()).with_beta(0.0).with_seed(6), &ds.base);
    owner.save_keys(&keys).unwrap();
    ppanns::core::save_collection_snapshot(
        &store.join("wide.ppdb"),
        &CollectionMeta { name: "wide".into(), shards: 1 },
        &owner.outsource(&ds.base),
    )
    .unwrap();

    let bin = env!("CARGO_BIN_EXE_ppanns-cli");
    // The returned reader must stay alive for the server's lifetime:
    // dropping it closes the stdout pipe, and the server's next println
    // would die on the closed pipe.
    let spawn_server = || {
        let mut server = Command::new(bin)
            .args([
                "serve",
                "--data-dir",
                store.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--token",
                "55",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = server.stdout.take().unwrap();
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("cannot parse bound address from: {line}"))
            .to_string();
        (server, addr, reader)
    };

    let (mut server, addr, _reader) = spawn_server();

    // collections lists both snapshots with their dimensionalities.
    let out = Command::new(bin).args(["collections", "--remote", &addr]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(text.contains("2 collections"), "unexpected listing: {text}");
    let row = |name: &str| text.lines().find(|l| l.contains(name)).unwrap_or_default().to_string();
    assert!(row("legacy").contains(" 96d"), "unexpected listing: {text}");
    assert!(row("wide").contains(" 128d"), "unexpected listing: {text}");

    // query --collection targets the named collection.
    let out = Command::new(bin)
        .args([
            "query",
            "--remote",
            &addr,
            "--keys",
            keys.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "3",
            "--collection",
            "wide",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "remote query failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("targeting collection `wide`"), "no targeting note: {text}");
    assert!(text.contains("query 0:"), "no results: {text}");

    // create persists a snapshot; drop removes one.
    let out = Command::new(bin)
        .args(["create", "--remote", &addr, "--token", "55", "--name", "scratch", "--dim", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "create failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(store.join("scratch.ppdb").exists(), "create must write the snapshot");
    let out = Command::new(bin)
        .args(["drop", "--remote", &addr, "--token", "55", "--name", "legacy"])
        .output()
        .unwrap();
    assert!(out.status.success(), "drop failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(!store.join("legacy.ppdb").exists(), "drop must delete the snapshot");

    // stats --collection answers per collection.
    let out = Command::new(bin)
        .args(["stats", "--remote", &addr, "--collection", "wide"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(text.contains("collection   : wide"), "unexpected stats: {text}");
    assert!(text.contains("live vectors : 300"), "unexpected stats: {text}");

    let out =
        Command::new(bin).args(["shutdown", "--remote", &addr, "--token", "55"]).output().unwrap();
    assert!(out.status.success(), "shutdown failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(server.wait().unwrap().success(), "server exited abnormally");

    // Restart: the directory is the source of truth — scratch and wide.
    let (mut server, addr, _reader) = spawn_server();
    let out = Command::new(bin).args(["collections", "--remote", &addr]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scratch") && text.contains("wide"), "unexpected listing: {text}");
    assert!(!text.contains("legacy"), "dropped collection resurfaced: {text}");
    let out =
        Command::new(bin).args(["shutdown", "--remote", &addr, "--token", "55"]).output().unwrap();
    assert!(out.status.success());
    assert!(server.wait().unwrap().success());

    std::fs::remove_dir_all(&dir).ok();
}

/// A server's refusal of a well-formed command is one `error:` line that
/// names the refusal once; only a command-line mistake prints the usage
/// text.
#[test]
fn cli_prints_a_refusal_on_one_line_and_usage_only_for_argument_errors() {
    let store = std::env::temp_dir().join(format!("ppanns_cli_refusal_{}", std::process::id()));
    std::fs::create_dir_all(&store).unwrap();
    let bin = env!("CARGO_BIN_EXE_ppanns-cli");
    let mut server = Command::new(bin)
        .args(["serve", "--data-dir", store.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .args(["--token", "56"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // Keep the reader alive: the server prints to this pipe until it exits.
    let mut reader = std::io::BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server exited before serving");
        if let Some(rest) = line.strip_prefix("serving ") {
            let at = rest.split(" on ").nth(1).and_then(|r| r.split_whitespace().next());
            break at.expect("bound address").to_string();
        }
    };

    let refused = Command::new(bin)
        .args(["stats", "--remote", &addr, "--collection", "late"])
        .output()
        .unwrap();
    let misused = Command::new(bin).args(["stats", "--collection", "late"]).output().unwrap();
    // Stop the server before asserting, so a failure leaves no process behind.
    let out =
        Command::new(bin).args(["shutdown", "--remote", &addr, "--token", "56"]).output().unwrap();
    assert!(out.status.success(), "shutdown failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(server.wait().unwrap().success(), "server exited abnormally");

    assert!(!refused.status.success());
    assert_eq!(
        String::from_utf8_lossy(&refused.stderr),
        "error: server: unknown collection `late`\n"
    );
    let stderr = String::from_utf8_lossy(&misused.stderr);
    assert!(!misused.status.success());
    assert!(stderr.starts_with("error: missing --remote\n\nusage:"), "{stderr}");
    std::fs::remove_dir_all(&store).ok();
}
