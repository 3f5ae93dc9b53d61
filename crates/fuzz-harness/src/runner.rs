//! The chain driver: runs one adversarial case end-to-end under
//! `catch_unwind` and classifies the outcome.

use crate::check::{check_export, check_finite, check_snapshot_roundtrip, snapshot_roundtrip};
use crate::gen::{case, Case};
use lesm_core::pipeline::{LatentStructureMiner, MinedStructure};
use lesm_corpus::Corpus;
use lesm_eval::pmi::{pmi_topic, CoOccurrenceStats};
use lesm_serve::client::{http_get, FetchedResponse};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Read, write and connect timeout of each request to a served case.
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// How one adversarial case ended. Both variants satisfy the contract;
/// everything else is a [`CaseFailure`].
#[derive(Debug)]
pub enum CaseOutcome {
    /// The chain ran to completion and every invariant held.
    Completed,
    /// The miner rejected the input with a typed error (rendered here).
    TypedError(String),
}

/// A contract violation: the case id, its reproducer label, and what broke.
#[derive(Debug)]
pub struct CaseFailure {
    /// The failing case id (feed back to [`case`] to reproduce).
    pub id: usize,
    /// Human-readable shape/config label.
    pub label: String,
    /// What went wrong (panic payload or violated invariant).
    pub detail: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "case {} [{}]: {}", self.id, self.label, self.detail)
    }
}

/// Extracts a printable message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: <non-string payload>".into()
    }
}

/// Silences the default panic hook while `f` runs, so expected-panic
/// probing does not spray backtraces over test output. The hook is global
/// to the process: call this once around a whole batch, not per case.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Runs adversarial case `id` through the full
/// `mine → export → snapshot → load → search` chain.
///
/// Invariants checked:
/// 1. no stage panics (typed `Err` returns are fine),
/// 2. every float in the mined structure is finite,
/// 3. the JSON export is balanced, before and after a snapshot round-trip,
/// 4. `save → load → save` is byte-identical,
/// 5. search/render over hostile queries neither panics nor emits
///    non-finite scores.
pub fn run_case(id: usize) -> Result<CaseOutcome, CaseFailure> {
    let Case { label, corpus, config } = case(id);
    let fail = |detail: String| CaseFailure { id, label: label.clone(), detail };

    let mined = match catch_unwind(AssertUnwindSafe(|| LatentStructureMiner::mine(&corpus, &config)))
    {
        Err(payload) => return Err(fail(panic_message(payload))),
        Ok(Err(e)) => return Ok(CaseOutcome::TypedError(e.to_string())),
        Ok(Ok(mined)) => mined,
    };

    let rest = catch_unwind(AssertUnwindSafe(|| drive_mined(&corpus, &mined)));
    match rest {
        Err(payload) => Err(fail(panic_message(payload))),
        Ok(Err(detail)) => Err(fail(detail)),
        Ok(Ok(())) => Ok(CaseOutcome::Completed),
    }
}

/// Post-mine stages (export, snapshot, search, render, eval) — everything
/// here must succeed on any structure `mine` was willing to produce.
fn drive_mined(corpus: &Corpus, mined: &MinedStructure) -> Result<(), String> {
    check_finite(mined)?;
    let json = check_export(corpus, mined)?;
    check_snapshot_roundtrip(corpus, mined, &json)?;

    // Hostile queries: empty, unknown vocabulary, JSON metacharacters, and
    // (when available) a real vocabulary term.
    let mut queries: Vec<String> =
        ["", "zzz unseen terms", "{\"]\\ \u{1}"].iter().map(|s| s.to_string()).collect();
    if !corpus.vocab.is_empty() {
        queries.push(corpus.vocab.render(&[0]));
    }
    let view = mined.view(corpus);
    let index = lesm_core::SearchIndex::build(&view);
    for q in &queries {
        let hits = lesm_core::search::search(&view, &index, q, 10);
        if let Some(h) = hits.iter().find(|h| !h.score.is_finite()) {
            return Err(format!("search({q:?}) hit doc {} has score {}", h.doc, h.score));
        }
        let lines = lesm_core::search::render_hits(&view, &hits);
        if lines.len() != hits.len() {
            return Err("render_hits dropped or invented lines".into());
        }
    }

    // Render every topic, plus an out-of-range probe through the public
    // length check the server uses.
    for t in 0..mined.hierarchy.len() {
        let _ = lesm_core::export::render_topic(&view, t, 10);
    }

    // Coherence eval over the top phrases: finite even on empty corpora.
    let stats = CoOccurrenceStats::from_corpus(corpus);
    let tt = stats.term_type();
    let items: Vec<(usize, u32)> = mined
        .topic_phrases
        .first()
        .map(|l| l.iter().flat_map(|p| p.tokens.iter().map(|&w| (tt, w))).take(6).collect())
        .unwrap_or_default();
    let coherence = pmi_topic(&stats, &items);
    if !coherence.is_finite() {
        return Err(format!("pmi_topic over top phrases = {coherence}"));
    }
    Ok(())
}

/// Runs a batch of cases, returning `(completed, typed_errors, failures)`.
pub fn run_batch(ids: impl Iterator<Item = usize>) -> (usize, usize, Vec<CaseFailure>) {
    let mut completed = 0;
    let mut typed = 0;
    let mut failures = Vec::new();
    with_quiet_panics(|| {
        for id in ids {
            match run_case(id) {
                Ok(CaseOutcome::Completed) => completed += 1,
                Ok(CaseOutcome::TypedError(_)) => typed += 1,
                Err(f) => failures.push(f),
            }
        }
    });
    (completed, typed, failures)
}

/// Mines case `id`, snapshots it, serves the snapshot on an ephemeral
/// port, and exercises every endpoint with hostile requests. Returns the
/// responses for inspection; any panic, hung worker, or response the
/// client cannot parse is a failure. Cases whose mine ends in a typed
/// error are reported as `Ok(vec![])`.
pub fn run_server_case(id: usize) -> Result<Vec<FetchedResponse>, CaseFailure> {
    let Case { label, corpus, config } = case(id);
    let fail = |detail: String| CaseFailure { id, label: label.clone(), detail };

    let mined = match catch_unwind(AssertUnwindSafe(|| LatentStructureMiner::mine(&corpus, &config)))
    {
        Err(payload) => return Err(fail(panic_message(payload))),
        Ok(Err(_)) => return Ok(Vec::new()),
        Ok(Ok(m)) => m,
    };
    let mapped = match snapshot_roundtrip(&corpus, &mined) {
        Ok((_, m)) => m,
        Err(e) => return Err(fail(e)),
    };
    let server_config = lesm_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 4,
        ..lesm_serve::ServerConfig::default()
    };
    let model = lesm_serve::Model::Mapped(Box::new(mapped));
    let handle = match lesm_serve::Server::start_model(model, server_config) {
        Ok(h) => h,
        Err(e) => return Err(fail(format!("Server::start_model: {e}"))),
    };
    let addr = handle.addr();
    let targets = [
        "/search?q=word",
        "/search?q=",
        "/search?q=%7B%22%5C",
        "/search?q=word&top=0",
        "/topics/0",
        "/topics/999999",
        "/topics/NaN",
        "/hierarchy",
        "/healthz",
        "/metrics",
        "/no-such-endpoint",
    ];
    let mut responses = Vec::new();
    for target in targets {
        match http_get(&addr.to_string(), target, HTTP_TIMEOUT) {
            Ok(resp) => responses.push(resp),
            Err(e) => {
                handle.shutdown();
                return Err(fail(format!("{target}: {e}")));
            }
        }
    }
    handle.shutdown();
    Ok(responses)
}

/// Round-trips structures whose floats are raw non-finite bit patterns
/// (NaN, ±inf, signaling-NaN payloads) through the snapshot store: save →
/// load → save must be byte-identical (floats travel as raw bits) and the
/// JSON export of the loaded structure must stay balanced, with every
/// non-finite score rendered as `null`, never as a bare `NaN`/`inf` token.
pub fn run_nonfinite_snapshot_cases() -> Vec<CaseFailure> {
    use lesm_hier::hierarchy::{HierTopic, TopicHierarchy};
    use lesm_phrases::TopicalPhrase;

    let bit_patterns: [u64; 8] = [
        f64::NAN.to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        0x7ff0_0000_0000_0001, // signaling NaN
        0xfff8_dead_beef_0001, // negative NaN with payload
        (-0.0f64).to_bits(),
        f64::MIN_POSITIVE.to_bits() - 1, // largest subnormal
        1.0f64.to_bits(),
    ];
    let mut failures = Vec::new();
    for (id, &bits) in bit_patterns.iter().enumerate() {
        let x = f64::from_bits(bits);
        let mut corpus = Corpus::new();
        let w = corpus.vocab.intern("word");
        let hierarchy = TopicHierarchy {
            network: lesm_net::TypedNetwork::new(vec![], vec![]),
            topics: vec![HierTopic {
                parent: None,
                children: vec![],
                level: 0,
                path: "o".into(),
                phi: vec![vec![x]],
                rho: x,
            }],
            fits: vec![None],
        };
        let mined = MinedStructure {
            hierarchy,
            topic_phrases: vec![vec![TopicalPhrase {
                tokens: vec![w],
                score: x,
                topic_freq: x,
            }]],
            topic_entities: vec![vec![]],
            phrase_topic_freq: vec![std::collections::HashMap::from([(vec![w], x)])],
            segments: vec![],
            doc_topic: vec![],
        };
        let fail = |detail: String| CaseFailure {
            id,
            label: format!("nonfinite-snapshot bits={bits:#018x}"),
            detail,
        };
        let (bytes, mapped) = match snapshot_roundtrip(&corpus, &mined) {
            Ok(r) => r,
            Err(e) => {
                failures.push(fail(e));
                continue;
            }
        };
        let again = match mapped.to_snapshot().map_err(|e| format!("to_snapshot: {e}")).and_then(
            |snap| {
                lesm_serve::save_snapshot_v2(&snap.corpus, &snap.mined)
                    .map_err(|e| format!("save_snapshot_v2 (re-save): {e}"))
            },
        ) {
            Ok(b) => b,
            Err(e) => {
                failures.push(fail(e));
                continue;
            }
        };
        if again != bytes {
            failures.push(fail("re-save not byte-identical".into()));
            continue;
        }
        let json = lesm_core::export::hierarchy_to_json(&mapped, 10);
        if !lesm_core::export::is_balanced_json(&json) {
            failures.push(fail("unbalanced JSON after round-trip".into()));
            continue;
        }
        // The vocabulary is a single tame word, so a bare non-finite token
        // can only come from a float that leaked past json_number.
        if json.contains("NaN") || json.contains("inf") {
            failures.push(fail(format!("non-finite token leaked into JSON: {json}")));
        }
    }
    failures
}

/// Feeds hostile argument vectors through the CLI parser; parsing must
/// return `Ok`/`Err(String)` and never panic. Returns the failure list.
pub fn run_cli_arg_cases() -> Vec<CaseFailure> {
    let commands = ["mine", "snapshot", "serve", "search", "synth", "advisors", "", "–mine"];
    let flags = ["--k", "--depth", "--em-tol", "--threads", "--workers", "--cache", "--docs", "--bogus"];
    let values = ["0", "-1", "NaN", "inf", "18446744073709551616", "1e309", "", "x", "\u{0}"];
    let mut failures = Vec::new();
    let mut id = 0;
    with_quiet_panics(|| {
        for cmd in commands {
            for flag in flags {
                for value in values {
                    let args: Vec<String> =
                        ["input.tsv", flag, value].iter().map(|s| s.to_string()).collect();
                    let mut full = vec![cmd.to_string()];
                    full.extend(args);
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| lesm_cli::parse_args(&full)))
                    {
                        failures.push(CaseFailure {
                            id,
                            label: format!("cli-args {full:?}"),
                            detail: panic_message(payload),
                        });
                    }
                    id += 1;
                }
            }
        }
    });
    failures
}

/// Drives the `advisors` CLI path (TPFG preprocessing + inference) over
/// every corpus shape. Years are user-controlled TSV input, so extreme
/// values must produce a typed error or a result — never an arithmetic
/// panic.
pub fn run_advisors_cases() -> Vec<CaseFailure> {
    let mut failures = Vec::new();
    with_quiet_panics(|| {
        for shape in 0..crate::gen::NUM_SHAPES {
            let (label, corpus) = crate::gen::corpus_shape(shape);
            let run = catch_unwind(AssertUnwindSafe(|| lesm_cli::run_advisors(&corpus)));
            if let Err(payload) = run {
                failures.push(CaseFailure {
                    id: shape,
                    label: format!("advisors/{label}"),
                    detail: panic_message(payload),
                });
            }
        }
    });
    failures
}

/// Feeds hostile query programs through the `lesm-query` engine over two
/// adversarial indexes (a dense well-formed model and one whose topic
/// metadata contains a parent/child cycle). Contract (DESIGN.md §14):
/// every body yields a response or a typed *request-class* error — never
/// a panic, never a server-state error — and running the same body twice
/// produces byte-identical outcomes.
pub fn run_query_cases() -> Vec<CaseFailure> {
    use lesm_query::{run_query, DocRecord, IndexParts, QueryIndex, TopicMeta};

    // Two entity types, a root with two leaf topics, six docs with years
    // and repeated co-occurrences — enough structure that every edge kind
    // and rank criterion has work to do.
    let dense = IndexParts {
        type_names: vec!["author".into(), "venue".into()],
        entity_names: vec![
            vec!["alice".into(), "bob".into(), "carol".into()],
            vec!["vldb".into()],
        ],
        topics: vec![
            TopicMeta { parent: None, children: vec![1, 2], path: "o".into() },
            TopicMeta { parent: Some(0), children: vec![], path: "o/1".into() },
            TopicMeta { parent: Some(0), children: vec![], path: "o/2".into() },
        ],
        docs: (0..6u64)
            .map(|g| DocRecord {
                gid: g,
                year: Some(2000 + g as i32),
                leaf: 1 + (g as usize % 2),
                entities: vec![(0, (g % 3) as u32), (0, ((g + 1) % 3) as u32), (1, 0)],
            })
            .collect(),
    };
    // Topic 1 and 2 point at each other: subtree walks must terminate.
    let mut cyclic = dense.clone();
    cyclic.topics[1].children = vec![2];
    cyclic.topics[2].children = vec![1];
    cyclic.topics[2].parent = Some(1);
    let indexes =
        vec![
        ("dense", QueryIndex::build(dense).expect("build dense index")),
        ("cyclic-topics", QueryIndex::build(cyclic).expect("build cyclic index")),
    ];

    let over_steps = format!(
        r#"{{"steps":[{{"filter":{{"type":"author"}}}}{}]}}"#,
        r#",{"traverse":{"edge":"coauthor"}}"#.repeat(20)
    );
    let deep_nest = format!(r#"{{"steps":{}1{}}}"#, "[".repeat(40), "]".repeat(40));
    // (body, must_fail): true ⇒ the engine must reject it.
    let bodies: Vec<(&str, bool)> = vec![
        // Malformed JSON.
        ("", true),
        ("{", true),
        ("null", true),
        ("[]", true),
        (r#"{"steps":[{"filter":{"type":"author"}}]"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"page":1,"page":2}"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"page":01}"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"page":NaN}"#, true),
        ("{\"steps\":\u{1}}", true),
        (&deep_nest, true),
        // Unknown steps / fields / caps.
        (r#"{"steps":[{"warp":{}}]}"#, true),
        (r#"{"steps":[{"filter":{"type":"author","bogus":1}}]}"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"page":0}"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"page":100000}"#, true),
        (&over_steps, true),
        // Depth/limit extremes on path.
        (
            r#"{"steps":[{"filter":{"type":"author"}},{"path":{"to":{"type":"author"},"edges":["coauthor"],"max_depth":9}}]}"#,
            true,
        ),
        (
            r#"{"steps":[{"filter":{"type":"author"}},{"path":{"to":{"type":"author"},"edges":["coauthor"],"max_depth":1,"limit":0}}]}"#,
            true,
        ),
        (
            r#"{"steps":[{"filter":{"type":"author"}},{"path":{"to":{"type":"author"},"edges":["coauthor"],"max_depth":1,"limit":100000}}]}"#,
            true,
        ),
        // Invalid cursors.
        (r#"{"steps":[{"filter":{"type":"author"}}],"cursor":""}"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"cursor":"q2.0.0.1"}"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"cursor":"q1.zzzz.0.1"}"#, true),
        (r#"{"steps":[{"filter":{"type":"author"}}],"cursor":"q1.0000000000000000.0.1"}"#, true),
        (
            r#"{"steps":[{"filter":{"type":"author"}}],"cursor":"q1.0000000000000000.99999999999999999999.1"}"#,
            true,
        ),
        // Resolution failures are typed request errors too.
        (r#"{"steps":[{"filter":{"type":"nosuchtype"}}]}"#, true),
        (r#"{"steps":[{"filter":{"type":"author","topic":"no/such"}}]}"#, true),
        // Cyclic traversals and heavy-but-capped programs must finish.
        (
            r#"{"steps":[{"filter":{"type":"author"}},{"traverse":{"edge":"coauthor"}},{"traverse":{"edge":"coauthor"}},{"traverse":{"edge":"coauthor"}},{"traverse":{"edge":"topics"}},{"traverse":{"edge":"entities"}},{"traverse":{"edge":"docs"}}]}"#,
            false,
        ),
        (
            r#"{"steps":[{"filter":{"type":"author"}},{"path":{"to":{"type":"author","name":"carol"},"edges":["coauthor"],"max_depth":8,"mode":"paths","limit":1000}}]}"#,
            false,
        ),
        (
            r#"{"steps":[{"filter":{"type":"author"}},{"rank":{"by":"combined","topic":"o/1","limit":1000}}]}"#,
            false,
        ),
        (r#"{"steps":[{"filter":{"type":"author"}}],"page":1000}"#, false),
        (
            r#"{"steps":[{"filter":{"type":"topic","topic":"o"}},{"traverse":{"edge":"children"}},{"traverse":{"edge":"children"}},{"traverse":{"edge":"children"}},{"traverse":{"edge":"parent"}}]}"#,
            false,
        ),
    ];

    let mut failures = Vec::new();
    with_quiet_panics(|| {
        let mut id = 0;
        for (index_label, index) in &indexes {
            for (body, must_fail) in &bodies {
                let fail = |detail: String| CaseFailure {
                    id,
                    label: format!("query/{index_label} {body:?}"),
                    detail,
                };
                let run_once = || run_query(index, body);
                let first = match catch_unwind(AssertUnwindSafe(run_once)) {
                    Err(payload) => {
                        failures.push(fail(panic_message(payload)));
                        id += 1;
                        continue;
                    }
                    Ok(r) => r,
                };
                match &first {
                    Ok(_) if *must_fail => {
                        failures.push(fail("hostile body was accepted".into()));
                    }
                    Ok(_) => {}
                    Err(e) if !e.is_request_error() => {
                        failures.push(fail(format!("internal (not request-class) error: {e}")));
                    }
                    Err(_) => {}
                }
                // Determinism probe: same body, same outcome bytes.
                let second = catch_unwind(AssertUnwindSafe(run_once));
                let render = |r: &Result<String, lesm_query::QueryError>| match r {
                    Ok(s) => format!("ok:{s}"),
                    Err(e) => format!("err:{e}"),
                };
                match second {
                    Err(payload) => failures.push(fail(panic_message(payload))),
                    Ok(second) => {
                        if render(&second) != render(&first) {
                            failures.push(fail("re-running the body changed the outcome".into()));
                        }
                    }
                }
                id += 1;
            }
        }
    });
    failures
}

/// Drives hostile delta TSVs through the full incremental-mining chain:
/// `append_tsv → LatentStructureMiner::update (warm-start EM) → v2
/// snapshot with delta lineage → load → serve`. Contract: every stage
/// either completes or returns a typed error (`CorpusError`/`CoreError`/
/// `SnapshotError`) — never a panic — and any artifact the chain does
/// produce must load, carry its lineage intact, and answer requests.
pub fn run_update_cases() -> Vec<CaseFailure> {
    use lesm_corpus::synth::{PapersConfig, SyntheticPapers};

    // One healthy base model, mined once and shared by every delta case.
    let base_corpus = match SyntheticPapers::generate(&PapersConfig::dblp(60, 11)) {
        Ok(p) => p.corpus,
        Err(e) => {
            return vec![CaseFailure {
                id: 0,
                label: "update/base-synth".into(),
                detail: format!("base corpus generation failed: {e}"),
            }]
        }
    };
    let mut config = lesm_core::pipeline::MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    config.threads = 2;
    let base = match LatentStructureMiner::mine(&base_corpus, &config) {
        Ok(m) => m,
        Err(e) => {
            return vec![CaseFailure {
                id: 0,
                label: "update/base-mine".into(),
                detail: format!("base mine failed: {e}"),
            }]
        }
    };

    // A base document re-encoded as a TSV line, for duplicate-doc deltas.
    let mut base_tsv = Vec::new();
    let _ = lesm_corpus::io::write_tsv(&base_corpus, &mut base_tsv);
    let base_line = String::from_utf8_lossy(&base_tsv)
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    // A token already interned in the base vocabulary, for collisions.
    let known = base_corpus.vocab.render(&[0]);

    let deltas: Vec<(&str, String)> = vec![
        ("empty-delta", String::new()),
        ("blank-lines", "\n\n\n".into()),
        ("duplicate-docs", format!("{base_line}\n{base_line}\n{base_line}\n")),
        (
            "vocab-collisions",
            format!("{known} {known} brand new term\tauthor={known}|author={known}\t2009\n"),
        ),
        ("year-overflow", "some delta text\tauthor=a\t99999999999999999999\n".into()),
        ("year-extremes", "tok\tauthor=x\t-2147483648\ntok\tauthor=x\t2147483647\n".into()),
        ("malformed-extra-fields", "a\tb\tc\td\te\n".into()),
        ("new-entity-type", "tok tok tok\tspaceship=zorp\t2001\n".into()),
    ];

    let mut failures = Vec::new();
    with_quiet_panics(|| {
        for (id, (label, tsv)) in deltas.iter().enumerate() {
            let fail = |detail: String| CaseFailure {
                id,
                label: format!("update/{label}"),
                detail,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                drive_update(&base_corpus, &base, tsv)
            }));
            match outcome {
                Err(payload) => failures.push(fail(panic_message(payload))),
                Ok(Err(detail)) => failures.push(fail(detail)),
                Ok(Ok(_typed_or_completed)) => {}
            }
        }
    });
    failures
}

/// One hostile-delta chain. `Ok(true)` = completed end to end, `Ok(false)`
/// = a stage rejected the delta with a typed error (also within contract),
/// `Err` = contract violation.
fn drive_update(
    base_corpus: &Corpus,
    base: &MinedStructure,
    delta_tsv: &str,
) -> Result<bool, String> {
    let mut merged = base_corpus.clone();
    let base_docs = merged.num_docs();
    let appended =
        match lesm_corpus::append_tsv(&mut merged, delta_tsv.as_bytes(), &lesm_corpus::LoadOptions::default()) {
            Ok(n) => n,
            Err(_) => return Ok(false), // typed CorpusError
        };

    let mut config = lesm_core::pipeline::MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    config.threads = 2;
    let budget = lesm_core::UpdateBudget { iters: 5, tol: 1e-3 };
    let updated =
        match LatentStructureMiner::update(&merged, base, base_docs, &config, &budget) {
            Ok(u) => u,
            Err(_) => return Ok(false), // typed CoreError
        };
    check_finite(&updated)?;

    let lineage = lesm_serve::DeltaInfo {
        base_artifact: "fuzz-base.lesm".into(),
        base_docs: base_docs as u64,
        base_words: base_corpus.num_words() as u64,
        base_entities: (0..base_corpus.entities.num_types())
            .map(|t| base_corpus.entities.count(t) as u64)
            .collect(),
        chain_depth: 1,
    };
    let bytes = lesm_serve::save_snapshot_v2_with_lineage(&merged, &updated, None, Some(&lineage))
        .map_err(|e| format!("save_snapshot_v2_with_lineage: {e}"))?;
    let mapped = lesm_serve::MappedSnapshot::from_bytes(&bytes)
        .map_err(|e| format!("artifact produced by update does not load: {e}"))?;
    if mapped.delta_info() != Some(&lineage) {
        return Err("delta lineage did not round-trip through the artifact".into());
    }
    if mapped.num_docs() != merged.num_docs() {
        return Err(format!(
            "artifact has {} docs, the merged corpus ({} base + {appended} appended) has {}",
            mapped.num_docs(),
            base_docs,
            merged.num_docs()
        ));
    }

    // Serve the updated artifact and poke it with hostile requests.
    let server_config = lesm_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 4,
        ..lesm_serve::ServerConfig::default()
    };
    let handle = lesm_serve::Server::start_model(
        lesm_serve::Model::Mapped(Box::new(mapped)),
        server_config,
    )
    .map_err(|e| format!("Server::start_model: {e}"))?;
    let addr = handle.addr();
    for target in ["/healthz", "/hierarchy", "/search?q=word", "/search?q=", "/topics/999999"] {
        match http_get(&addr.to_string(), target, HTTP_TIMEOUT) {
            Ok(_) => {}
            Err(e) => {
                handle.shutdown();
                return Err(format!("{target}: {e}"));
            }
        }
    }
    handle.shutdown();
    Ok(true)
}

/// Feeds hostile TSV bytes through the corpus loader; loading must return
/// a typed `CorpusError` or a corpus, never panic.
pub fn run_tsv_cases() -> Vec<CaseFailure> {
    let inputs: &[&str] = &[
        "",
        "\n\n\n",
        "\t\t\t",
        "just text no tabs",
        "text\tauthor=\t2001",
        "text\t=name\t2001",
        "text\tauthor=a|author=a\tnot-a-year",
        "text\tauthor=a\t99999999999999999999",
        "\ttab first\t",
        "a\tb\tc\td\te",
        "tok\tauthor=\u{0}\t-2147483648",
        "x\ty=z\t2001\nx\ty=z\t2001\nx\ty=z\t2001",
    ];
    let mut failures = Vec::new();
    with_quiet_panics(|| {
        for (id, tsv) in inputs.iter().enumerate() {
            let run = catch_unwind(AssertUnwindSafe(|| {
                lesm_corpus::load_tsv(tsv.as_bytes(), &lesm_corpus::LoadOptions::default())
                    .map(|c| c.num_docs())
            }));
            if let Err(payload) = run {
                failures.push(CaseFailure {
                    id,
                    label: format!("tsv {tsv:?}"),
                    detail: panic_message(payload),
                });
            }
        }
    });
    failures
}
