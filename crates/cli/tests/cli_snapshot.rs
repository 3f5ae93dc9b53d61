//! CLI integration tests for the snapshot/serve subsystem: `snapshot`
//! writes a loadable `.lesm` artifact, `search` answers from either input
//! kind with identical output, and the snapshot path never re-runs EM.

use lesm_cli::{load_corpus, parse_args, run_search, run_search_input, run_snapshot, Command};
use lesm_corpus::io::write_tsv;
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::Corpus;
use lesm_hier::em::EdgeState;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lesm-cli-snapshot-test-{name}-{}", std::process::id()));
    p
}

fn write_corpus(corpus: &Corpus, name: &str) -> std::path::PathBuf {
    let path = temp_path(name);
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

#[test]
fn snapshot_search_matches_tsv_search_and_never_reruns_em() {
    let corpus = synth_corpus(300, 31);
    let tsv = write_corpus(&corpus, "roundtrip");
    let lesm = temp_path("roundtrip.lesm");

    let summary =
        run_snapshot(&corpus, lesm.to_str().unwrap(), 2, 1, 1, 0.0).expect("snapshot");
    assert!(summary.contains("topics"), "unexpected summary: {summary}");
    assert!(lesm_serve::is_snapshot_file(lesm.to_str().unwrap()));
    assert!(!lesm_serve::is_snapshot_file(tsv.to_str().unwrap()));

    // Query with a token that is guaranteed to occur in the corpus.
    let query = corpus.vocab.name(corpus.docs[0].tokens[0]).unwrap().to_string();

    // TSV input: mined on this thread, so the flatten counter advances.
    let before_tsv = EdgeState::flattens_on_this_thread();
    let tsv_lines = run_search_input(tsv.to_str().unwrap(), &query, 2, 1).expect("tsv search");
    assert!(
        EdgeState::flattens_on_this_thread() > before_tsv,
        "TSV search path should have mined (positive control)"
    );

    // Snapshot input: answered from the artifact, EM must not run at all.
    let before_snap = EdgeState::flattens_on_this_thread();
    let snap_lines =
        run_search_input(lesm.to_str().unwrap(), &query, 2, 1).expect("snapshot search");
    assert_eq!(
        EdgeState::flattens_on_this_thread(),
        before_snap,
        "snapshot-backed search must not re-run EM"
    );

    assert_eq!(snap_lines, tsv_lines, "the two input kinds must answer identically");
    assert!(!snap_lines.is_empty(), "query should match the synthetic corpus");

    // And both equal the in-memory reference path.
    let loaded = load_corpus(tsv.to_str().unwrap()).unwrap();
    assert_eq!(run_search(&loaded, &query, 2, 1).unwrap(), tsv_lines);

    std::fs::remove_file(tsv).ok();
    std::fs::remove_file(lesm).ok();
}

#[test]
fn corrupted_snapshot_is_a_clean_error() {
    let corpus = synth_corpus(200, 5);
    let lesm = temp_path("corrupt.lesm");
    run_snapshot(&corpus, lesm.to_str().unwrap(), 2, 1, 1, 0.0).expect("snapshot");
    let mut bytes = std::fs::read(&lesm).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&lesm, &bytes).unwrap();
    let err = run_search_input(lesm.to_str().unwrap(), "mining", 2, 1)
        .expect_err("corrupted snapshot must not load");
    assert!(err.contains("checksum"), "unexpected error: {err}");
    std::fs::remove_file(lesm).ok();
}

/// A minimal artifact in the retired v1 layout: magic, version 1, an
/// empty section table, and its byte-wise FNV-1a 64 trailer.
fn v1_artifact() -> Vec<u8> {
    let mut bytes = b"LESM".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    let h = lesm_core::fnv1a64(&bytes);
    bytes.extend_from_slice(&h.to_le_bytes());
    bytes
}

#[test]
fn v1_artifacts_fail_with_a_rebuild_hint() {
    let path = temp_path("v1.lesm");
    std::fs::write(&path, v1_artifact()).unwrap();
    let path = path.to_str().unwrap();
    let lesm = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lesm"))
            .args(args)
            .output()
            .expect("run lesm");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for args in [
        vec!["search", path, "mining"],
        vec!["serve", path, "--addr", "127.0.0.1:0"],
        vec!["snapshot", "inspect", path],
        vec!["query", path, r#"{"steps":[]}"#],
        vec!["shard", path, "unused-out-dir"],
    ] {
        let (code, stderr) = lesm(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("format version 1 unsupported (this build reads 2)")
                && stderr.contains("`lesm snapshot`"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("checksum") && !stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_file(path).ok();
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

#[test]
fn parse_snapshot_subcommand() {
    match parse_args(&s(&["snapshot", "in.tsv", "out.lesm"])).unwrap() {
        Command::Snapshot { input, output, k, depth, threads, em_tol } => {
            assert_eq!((input.as_str(), output.as_str()), ("in.tsv", "out.lesm"));
            assert_eq!((k, depth, threads), (4, 2, 0));
            assert_eq!(em_tol, 0.0);
        }
        other => panic!("expected Snapshot, got {other:?}"),
    }
    match parse_args(&s(&["snapshot", "a", "b", "--k", "3", "--depth", "1"])).unwrap() {
        Command::Snapshot { k, depth, .. } => assert_eq!((k, depth), (3, 1)),
        other => panic!("expected Snapshot, got {other:?}"),
    }
    assert!(parse_args(&s(&["snapshot", "only-input"])).is_err());
    assert!(parse_args(&s(&["snapshot", "a", "b", "--k", "0"])).is_err());
}

#[test]
fn parse_serve_subcommand() {
    match parse_args(&s(&["serve", "m.lesm"])).unwrap() {
        Command::Serve { snapshot, addr, workers, cache, queue, shutdown_file } => {
            assert_eq!(snapshot, "m.lesm");
            assert_eq!(addr, "127.0.0.1:7878");
            assert_eq!((workers, cache, queue), (4, 1024, 128));
            assert_eq!(shutdown_file, None);
        }
        other => panic!("expected Serve, got {other:?}"),
    }
    match parse_args(&s(&[
        "serve", "m.lesm", "--addr", "0.0.0.0:80", "--workers", "2", "--cache", "16",
        "--shutdown-file", "/tmp/stop",
    ]))
    .unwrap()
    {
        Command::Serve { addr, workers, cache, shutdown_file, .. } => {
            assert_eq!(addr, "0.0.0.0:80");
            assert_eq!((workers, cache), (2, 16));
            assert_eq!(shutdown_file.as_deref(), Some("/tmp/stop"));
        }
        other => panic!("expected Serve, got {other:?}"),
    }
    assert!(parse_args(&s(&["serve"])).is_err());
    assert!(parse_args(&s(&["serve", "m.lesm", "--workers", "0"])).is_err());
}
