//! Integration tests for the CLI library: the synth → mine / search /
//! advisors round trip on temporary files.

use lesm_cli::{corpus_to_papers, load_corpus, run_advisors, run_mine, run_search};
use lesm_corpus::io::write_tsv;
use lesm_corpus::synth::{GenealogyConfig, Genealogy, PapersConfig, SyntheticPapers};
use lesm_corpus::Corpus;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lesm-cli-test-{name}-{}", std::process::id()));
    p
}

fn write_corpus(corpus: &Corpus, name: &str) -> std::path::PathBuf {
    let path = temp_path(name);
    let file = std::fs::File::create(&path).expect("create temp file");
    write_tsv(corpus, std::io::BufWriter::new(file)).expect("write tsv");
    path
}

#[test]
fn synth_mine_roundtrip_produces_balanced_json() {
    let mut cfg = PapersConfig::dblp(500, 17);
    cfg.hierarchy.branching = vec![2];
    cfg.entity_specs[0].level = 1;
    cfg.entity_specs[0].pool_per_node = 5;
    cfg.entity_specs[1].pool_per_node = 2;
    let papers = SyntheticPapers::generate(&cfg).unwrap();
    let path = write_corpus(&papers.corpus, "mine");
    let corpus = load_corpus(path.to_str().unwrap()).unwrap();
    assert_eq!(corpus.num_docs(), 500);
    let json = run_mine(&corpus, 2, 1, 2, 0.0).unwrap();
    assert!(lesm_core::export::is_balanced_json(&json));
    assert!(json.contains("\"phrases\""));
    std::fs::remove_file(path).ok();
}

/// End-to-end determinism diff (PR 1 contract, re-verified against the
/// flat-arena EM core): `mine` output is byte-identical across
/// `--threads 1/2/4` and across repeated runs — with and without the EM
/// early exit enabled.
#[test]
fn mine_output_is_byte_identical_across_threads_and_runs() {
    let mut cfg = PapersConfig::dblp(300, 23);
    cfg.hierarchy.branching = vec![2];
    cfg.entity_specs[0].level = 1;
    cfg.entity_specs[0].pool_per_node = 5;
    cfg.entity_specs[1].pool_per_node = 2;
    let papers = SyntheticPapers::generate(&cfg).unwrap();
    let path = write_corpus(&papers.corpus, "identical");
    let corpus = load_corpus(path.to_str().unwrap()).unwrap();
    for em_tol in [0.0, 1e-8] {
        let reference = run_mine(&corpus, 2, 1, 1, em_tol).unwrap();
        for threads in [1usize, 2, 4] {
            let json = run_mine(&corpus, 2, 1, threads, em_tol).unwrap();
            assert_eq!(
                json, reference,
                "mine output differs (threads={threads}, em_tol={em_tol})"
            );
        }
    }
    std::fs::remove_file(path).ok();
}

/// Thread dispatch has no process-wide knob: `--par-threshold` is an
/// unknown flag, a usage error (exit 2) like any other.
#[test]
fn par_threshold_flag_is_a_usage_error() {
    for args in [
        &["mine", "x.tsv", "--par-threshold", "4096"][..],
        &["snapshot", "x.tsv", "x.lesm", "--par-threshold", "4096"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lesm"))
            .args(args)
            .output()
            .expect("run lesm");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag --par-threshold"), "{args:?}: {stderr}");
    }
}

#[test]
fn search_returns_relevant_lines() {
    let mut cfg = PapersConfig::dblp(500, 19);
    cfg.hierarchy.branching = vec![2];
    cfg.entity_specs[0].level = 1;
    cfg.entity_specs[0].pool_per_node = 5;
    cfg.entity_specs[1].pool_per_node = 2;
    let papers = SyntheticPapers::generate(&cfg).unwrap();
    let path = write_corpus(&papers.corpus, "search");
    let corpus = load_corpus(path.to_str().unwrap()).unwrap();
    // Query a ground-truth leaf word (names survive the TSV round trip).
    let leaf = papers.truth.hierarchy.leaves[0];
    let word = papers.truth.hierarchy.own_words[leaf][0];
    let query = papers.corpus.vocab.name_or_unk(word);
    let lines = run_search(&corpus, query, 2, 1).unwrap();
    assert!(!lines.is_empty());
    assert!(lines[0].contains("score"));
    assert!(lines.iter().filter(|l| l.contains(query)).count() * 2 >= lines.len());
    std::fs::remove_file(path).ok();
}

#[test]
fn advisors_runs_on_genealogy_tsv() {
    // Build a corpus whose author/year structure carries the genealogy.
    let gen = Genealogy::generate(&GenealogyConfig {
        n_authors: 80,
        seed: 21,
        ..GenealogyConfig::default()
    })
    .unwrap();
    let mut corpus = Corpus::new();
    let author = corpus.entities.add_type("author");
    for p in gen.papers.iter().take(4000) {
        let d = corpus.push_text("paper");
        corpus.docs[d].year = Some(p.year);
        for &a in &p.authors {
            corpus.link_entity(d, author, &format!("a{a}")).unwrap();
        }
    }
    let path = write_corpus(&corpus, "advisors");
    let loaded = load_corpus(path.to_str().unwrap()).unwrap();
    let (papers, n) = corpus_to_papers(&loaded).unwrap();
    assert_eq!(papers.len(), corpus.num_docs());
    assert!(n <= 80);
    let rendered = run_advisors(&loaded).unwrap();
    assert!(rendered.contains("a"), "forest renders author labels");
    std::fs::remove_file(path).ok();
}

#[test]
fn query_advisor_edges_are_the_forest_lesm_advisors_prints() {
    let synth = SyntheticPapers::generate(&PapersConfig::dblp(400, 5)).unwrap();
    let corpus = &synth.corpus;
    let (papers, n_authors) = corpus_to_papers(corpus).unwrap();
    let forest = lesm_relations::advising_forest(&papers, n_authors).unwrap();
    let mut want: Vec<(u32, u32)> = forest
        .nodes
        .iter()
        .flat_map(|node| node.children.iter().map(move |&c| (node.author, c as u32)))
        .collect();
    want.sort_unstable();
    want.dedup();
    assert!(!want.is_empty(), "the corpus must yield advisor edges");

    let mined = lesm_core::model_from_truth(&synth);
    let parts = lesm_query::IndexParts::from_view(&mined.view(corpus)).unwrap();
    let index = lesm_query::QueryIndex::build(parts).unwrap();
    let edges = index.advisor_edges();
    let pairs = |lists: &[Vec<u32>], flip: bool| {
        let mut out: Vec<(u32, u32)> = lists
            .iter()
            .enumerate()
            .flat_map(|(a, list)| list.iter().map(move |&b| (a as u32, b)))
            .map(|(a, b)| if flip { (b, a) } else { (a, b) })
            .collect();
        out.sort_unstable();
        out
    };
    assert_eq!(pairs(&edges.advisees, false), want);
    assert_eq!(pairs(&edges.advisors, true), want);

    // `/query` traverses those edges: every advisee, once.
    let mut advisees: Vec<u32> = want.iter().map(|&(_, b)| b).collect();
    advisees.sort_unstable();
    advisees.dedup();
    let body = r#"{"steps":[{"filter":{"type":"author"}},{"traverse":{"edge":"advisees"}}]}"#;
    let response = lesm_query::run_query(&index, body).unwrap();
    assert!(
        response.starts_with(&format!("{{\"total\":{},", advisees.len())),
        "unexpected response head: {}",
        &response[..response.len().min(80)]
    );
}
