//! CLI integration tests for `lesm update`: incremental mining appends
//! documents to a snapshot or store, carries delta lineage on the
//! published artifact, compacts past the configured chain depth, and is
//! byte-deterministic for any thread count.

use lesm_cli::{parse_args, run_snapshot, run_update, Command};
use lesm_corpus::io::write_tsv;
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::Corpus;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lesm-cli-update-test-{name}-{}", std::process::id()));
    p
}

fn write_corpus(corpus: &Corpus, name: &str) -> std::path::PathBuf {
    let path = temp_dir(name);
    let file = std::fs::File::create(&path).expect("create temp file");
    write_tsv(corpus, std::io::BufWriter::new(file)).expect("write tsv");
    path
}

fn synth_corpus(docs: usize, seed: u64) -> Corpus {
    let mut cfg = PapersConfig::dblp(docs, seed);
    cfg.hierarchy.branching = vec![2];
    cfg.entity_specs[0].level = 1;
    cfg.entity_specs[0].pool_per_node = 5;
    cfg.entity_specs[1].pool_per_node = 2;
    SyntheticPapers::generate(&cfg).unwrap().corpus
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

#[test]
fn parse_update_subcommand() {
    match parse_args(&s(&["update", "store", "delta.tsv"])).unwrap() {
        Command::Update { target, delta, k, depth, threads, update_iters, update_tol, max_delta_chain } => {
            assert_eq!((target.as_str(), delta.as_str()), ("store", "delta.tsv"));
            assert_eq!((k, depth, threads), (4, 2, 0));
            assert_eq!(update_iters, 30);
            assert_eq!(update_tol, 1e-5);
            assert_eq!(max_delta_chain, 4);
        }
        other => panic!("expected Update, got {other:?}"),
    }
    match parse_args(&s(&[
        "update", "m.lesm", "d.tsv", "--k", "3", "--depth", "1", "--update-iters", "5",
        "--update-tol", "0.001", "--max-delta-chain", "2",
    ]))
    .unwrap()
    {
        Command::Update { k, depth, update_iters, update_tol, max_delta_chain, .. } => {
            assert_eq!((k, depth), (3, 1));
            assert_eq!(update_iters, 5);
            assert_eq!(update_tol, 0.001);
            assert_eq!(max_delta_chain, 2);
        }
        other => panic!("expected Update, got {other:?}"),
    }
    assert!(parse_args(&s(&["update", "only-target"])).is_err());
    assert!(parse_args(&s(&["update", "a", "b", "--update-iters", "0"])).is_err());
    assert!(parse_args(&s(&["update", "a", "b", "--max-delta-chain", "0"])).is_err());
    assert!(parse_args(&s(&["update", "a", "b", "--update-tol", "-1"])).is_err());
}

#[test]
fn update_snapshot_in_place_is_deterministic_and_carries_lineage() {
    let base = synth_corpus(260, 31);
    let delta = synth_corpus(26, 77);
    let delta_tsv = write_corpus(&delta, "delta.tsv");

    // Same artifact file name in two directories: lineage records the base
    // name, so determinism is only byte-exact for identically named bases.
    let da = temp_dir("run-a");
    let db = temp_dir("run-b");
    std::fs::create_dir_all(&da).unwrap();
    std::fs::create_dir_all(&db).unwrap();
    let a = da.join("base.lesm");
    let b = db.join("base.lesm");
    run_snapshot(&base, a.to_str().unwrap(), 2, 1, 1, 0.0).expect("snapshot");
    std::fs::copy(&a, &b).expect("copy base");

    // Update the two copies with different thread counts: byte-identical.
    let summary = run_update(a.to_str().unwrap(), delta_tsv.to_str().unwrap(), 2, 1, 1, 30, 1e-5, 4)
        .expect("update a");
    run_update(b.to_str().unwrap(), delta_tsv.to_str().unwrap(), 2, 1, 4, 30, 1e-5, 4)
        .expect("update b");
    assert!(summary.contains("+26 docs"), "unexpected summary: {summary}");
    assert!(summary.contains("delta chain depth 1"), "unexpected summary: {summary}");
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "update must be byte-deterministic across thread counts"
    );

    // The published artifact is a full v2 snapshot with delta lineage.
    let report = lesm_serve::describe_artifact_file(a.to_str().unwrap()).expect("inspect");
    assert!(report.contains("delta-lineage"), "missing lineage section:\n{report}");
    let model = lesm_serve::load_model_file(a.to_str().unwrap()).expect("load updated");
    let lesm_serve::Model::Mapped(mapped) = &model;
    let info = mapped.delta_info().expect("lineage present");
    assert_eq!(info.base_docs, 260);
    assert_eq!(info.chain_depth, 1);
    assert_eq!(info.base_artifact, a.file_name().unwrap().to_string_lossy());

    // The updated artifact still answers searches (full data sections).
    let query = base.vocab.name(base.docs[0].tokens[0]).unwrap().to_string();
    let lines = lesm_cli::run_search_input(a.to_str().unwrap(), &query, 2, 1).expect("search");
    assert!(!lines.is_empty(), "updated snapshot should answer queries");

    std::fs::remove_file(delta_tsv).ok();
    std::fs::remove_dir_all(da).ok();
    std::fs::remove_dir_all(db).ok();
}

#[test]
fn store_updates_publish_new_versions_and_compact_past_chain_limit() {
    let base = synth_corpus(200, 5);
    let delta = synth_corpus(20, 99);
    let delta_tsv = write_corpus(&delta, "store-delta.tsv");

    // Seed a versioned store with the base artifact as v0001.
    let seed_lesm = temp_dir("store-seed.lesm");
    run_snapshot(&base, seed_lesm.to_str().unwrap(), 2, 1, 1, 0.0).expect("snapshot");
    let dir = temp_dir("store");
    std::fs::remove_dir_all(&dir).ok();
    let bytes = std::fs::read(&seed_lesm).unwrap();
    let v1 = lesm_serve::store::publish(&dir, &bytes).expect("publish base");
    assert_eq!(v1, "v0001.lesm");

    // Chain: depth 1, depth 2, then depth 3 > --max-delta-chain 2 compacts.
    let s1 = run_update(dir.to_str().unwrap(), delta_tsv.to_str().unwrap(), 2, 1, 1, 20, 1e-4, 2)
        .expect("update 1");
    assert!(s1.contains("v0001.lesm -> v0002.lesm"), "unexpected summary: {s1}");
    assert!(s1.contains("delta chain depth 1"), "unexpected summary: {s1}");
    let s2 = run_update(dir.to_str().unwrap(), delta_tsv.to_str().unwrap(), 2, 1, 1, 20, 1e-4, 2)
        .expect("update 2");
    assert!(s2.contains("delta chain depth 2"), "unexpected summary: {s2}");
    let s3 = run_update(dir.to_str().unwrap(), delta_tsv.to_str().unwrap(), 2, 1, 1, 20, 1e-4, 2)
        .expect("update 3");
    assert!(s3.contains("compacted (chain reset)"), "unexpected summary: {s3}");

    // CURRENT tracks the latest publish; lineage reflects the chain state.
    assert_eq!(
        lesm_serve::store::current_version(&dir).unwrap().as_deref(),
        Some("v0004.lesm")
    );
    let (name, model) = lesm_serve::store::load_current(&dir).expect("load current");
    assert_eq!(name, "v0004.lesm");
    let lesm_serve::Model::Mapped(mapped) = &model;
    assert!(mapped.delta_info().is_none(), "compacted artifact must carry no lineage");

    // Each update appended the same 20 docs on top of the 200 base docs.
    assert!(s3.contains("+20 docs (260 total)"), "unexpected summary: {s3}");

    std::fs::remove_file(delta_tsv).ok();
    std::fs::remove_file(seed_lesm).ok();
    std::fs::remove_dir_all(&dir).ok();
}
