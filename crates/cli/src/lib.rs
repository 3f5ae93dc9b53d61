//! Library backing the `lesm` command-line tool.
//!
//! Subcommands:
//!
//! * `lesm synth --docs N --seed S` — emit a synthetic DBLP-like corpus
//!   as TSV (for demos and smoke tests);
//! * `lesm mine <corpus.tsv> [--k K --depth D]` — mine a topical
//!   hierarchy and print it as JSON;
//! * `lesm snapshot <corpus.tsv> <out.lesm>` — mine once and persist the
//!   structure as a binary snapshot artifact;
//! * `lesm serve <snapshot.lesm> --addr HOST:PORT --workers N` — serve
//!   `/search`, `/topics/{id}` and `/hierarchy` from a snapshot;
//! * `lesm update <store_dir | snapshot.lesm> <new.tsv>` — append
//!   documents to an existing model and refresh it by warm-started
//!   incremental EM, publishing into the store (hot-swap) or over the
//!   snapshot file;
//! * `lesm search <corpus.tsv | snapshot.lesm> <query…>` — topic-aware
//!   document search (snapshot inputs, detected by magic bytes, skip
//!   re-mining entirely);
//! * `lesm advisors <corpus.tsv>` — TPFG advisor–advisee mining over the
//!   corpus' author/year structure, rendered as an advising forest.
//!
//! Argument parsing is hand-rolled (the workspace avoids a CLI
//! dependency); all logic lives here so it is unit-testable, and
//! `main.rs` stays a thin shell.

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use lesm_core::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_corpus::synth::GenPaper;
use lesm_corpus::{Corpus, LoadOptions};
use lesm_hier::em::{EmConfig, WeightMode};
use lesm_hier::hierarchy::{CathyConfig, ChildCount};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Emit a synthetic corpus as TSV.
    Synth {
        /// Number of documents.
        docs: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Mine a hierarchy and print JSON.
    Mine {
        /// Input TSV path.
        input: String,
        /// Children per topic.
        k: usize,
        /// Hierarchy depth.
        depth: usize,
        /// Worker threads (`0` = all available cores).
        threads: usize,
        /// EM early-exit tolerance (`0` = run every iteration).
        em_tol: f64,
    },
    /// Mine a hierarchy and persist it as a binary snapshot.
    Snapshot {
        /// Input TSV path.
        input: String,
        /// Output `.lesm` artifact path.
        output: String,
        /// Children per topic.
        k: usize,
        /// Hierarchy depth.
        depth: usize,
        /// Worker threads (`0` = all available cores).
        threads: usize,
        /// EM early-exit tolerance (`0` = run every iteration).
        em_tol: f64,
    },
    /// Dump a snapshot artifact's section table (`lesm snapshot inspect`).
    Inspect {
        /// The `.lesm` artifact to describe.
        input: String,
    },
    /// Split a snapshot into per-shard artifacts plus a manifest.
    Shard {
        /// Input `.lesm` snapshot path.
        snapshot: String,
        /// Output directory for the shard artifacts and `manifest.json`.
        out_dir: String,
        /// Assignment strategy: `entity-range` or `topic-subtree`.
        by: String,
        /// Number of shards (>= 1).
        shards: usize,
    },
    /// Serve queries from a snapshot artifact, a shard manifest, or a
    /// versioned snapshot store directory.
    Serve {
        /// Input: `.lesm` snapshot, shard `manifest.json`, or store dir.
        snapshot: String,
        /// Bind address (`HOST:PORT`; port 0 picks an ephemeral port).
        addr: String,
        /// Worker-thread count.
        workers: usize,
        /// Response-cache capacity in entries (must be >= 1).
        cache: usize,
        /// Accept-queue depth before connections are shed with 503.
        queue: usize,
        /// Optional signal file; the server shuts down once it exists.
        shutdown_file: Option<String>,
    },
    /// Topic-aware search (TSV corpus or `.lesm` snapshot input).
    Search {
        /// Input TSV or snapshot path.
        input: String,
        /// Query text.
        query: String,
    },
    /// Incrementally update a snapshot or store with appended documents
    /// (warm-start EM; see DESIGN.md §15).
    Update {
        /// A versioned store directory or a `.lesm` snapshot path.
        target: String,
        /// TSV file with the documents to append.
        delta: String,
        /// Children per topic (must match the base mine).
        k: usize,
        /// Hierarchy depth (must match the base mine).
        depth: usize,
        /// Worker threads (`0` = all available cores).
        threads: usize,
        /// Warm-start EM iteration budget.
        update_iters: usize,
        /// Warm-start EM relative-improvement tolerance.
        update_tol: f64,
        /// Delta chain length that forces compaction to a full artifact.
        max_delta_chain: u64,
    },
    /// Typed structural query against a snapshot (`lesm-query` engine).
    Query {
        /// Input `.lesm` snapshot path.
        snapshot: String,
        /// Program: an inline JSON literal (starts with `{`) or a path
        /// to a JSON file.
        query: String,
    },
    /// Advisor-advisee mining.
    Advisors {
        /// Input TSV path.
        input: String,
    },
    /// Print usage.
    Help,
}

/// Parses command-line arguments (excluding `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "synth" => {
            let mut docs = 1000usize;
            let mut seed = 42u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--docs" => docs = next_value(&mut it, flag)?,
                    "--seed" => seed = next_value(&mut it, flag)?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            Ok(Command::Synth { docs, seed })
        }
        "mine" => {
            let input = it.next().ok_or("mine needs an input path")?.clone();
            let (k, depth, threads, em_tol) = parse_mine_flags(&mut it)?;
            Ok(Command::Mine { input, k, depth, threads, em_tol })
        }
        "snapshot" => {
            let input = it.next().ok_or("snapshot needs an input path")?.clone();
            if input == "inspect" {
                let input = it.next().ok_or("snapshot inspect needs an artifact path")?.clone();
                if it.next().is_some() {
                    return Err("snapshot inspect takes exactly one path".into());
                }
                return Ok(Command::Inspect { input });
            }
            let output = it.next().ok_or("snapshot needs an output path")?.clone();
            let (k, depth, threads, em_tol) = parse_mine_flags(&mut it)?;
            Ok(Command::Snapshot { input, output, k, depth, threads, em_tol })
        }
        "shard" => {
            let snapshot = it.next().ok_or("shard needs a snapshot path")?.clone();
            let out_dir = it.next().ok_or("shard needs an output directory")?.clone();
            let mut by = "entity-range".to_string();
            let mut shards = 2usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--by" => by = next_value(&mut it, flag)?,
                    "--shards" => shards = next_value(&mut it, flag)?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if lesm_serve::ShardBy::parse(&by).is_none() {
                return Err(format!("--by got {by:?}; use entity-range or topic-subtree"));
            }
            if shards == 0 {
                return Err("--shards must be >= 1".into());
            }
            Ok(Command::Shard { snapshot, out_dir, by, shards })
        }
        "serve" => {
            let snapshot = it.next().ok_or("serve needs a snapshot path")?.clone();
            let mut addr = "127.0.0.1:7878".to_string();
            let mut workers = 4usize;
            let mut cache = 1024usize;
            let mut queue = 128usize;
            let mut shutdown_file = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--addr" => addr = next_value(&mut it, flag)?,
                    "--workers" => workers = next_value(&mut it, flag)?,
                    "--cache" => cache = next_value(&mut it, flag)?,
                    "--queue" => queue = next_value(&mut it, flag)?,
                    "--shutdown-file" => shutdown_file = Some(next_value(&mut it, flag)?),
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if workers == 0 {
                return Err("--workers must be >= 1 (the server needs at least one handler thread)".into());
            }
            if cache == 0 {
                return Err(
                    "--cache must be >= 1 (use a small capacity like 1 to keep reuse minimal)"
                        .into(),
                );
            }
            if queue == 0 {
                return Err("--queue must be >= 1".into());
            }
            Ok(Command::Serve { snapshot, addr, workers, cache, queue, shutdown_file })
        }
        "search" => {
            let input = it.next().ok_or("search needs an input path")?.clone();
            let query: Vec<String> = it.cloned().collect();
            if query.is_empty() {
                return Err("search needs a query".into());
            }
            Ok(Command::Search { input, query: query.join(" ") })
        }
        "advisors" => {
            let input = it.next().ok_or("advisors needs an input path")?.clone();
            Ok(Command::Advisors { input })
        }
        "update" => {
            let target =
                it.next().ok_or("update needs a store directory or snapshot path")?.clone();
            let delta = it.next().ok_or("update needs a delta TSV path")?.clone();
            let mut k = 4usize;
            let mut depth = 2usize;
            let mut threads = 0usize;
            let mut update_iters = 30usize;
            let mut update_tol = 1e-5f64;
            let mut max_delta_chain = 4u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--k" => k = next_value(&mut it, flag)?,
                    "--depth" => depth = next_value(&mut it, flag)?,
                    "--threads" => threads = next_value(&mut it, flag)?,
                    "--update-iters" => update_iters = next_value(&mut it, flag)?,
                    "--update-tol" => update_tol = next_value(&mut it, flag)?,
                    "--max-delta-chain" => max_delta_chain = next_value(&mut it, flag)?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if k == 0 || depth == 0 {
                return Err("--k and --depth must be positive".into());
            }
            if update_iters == 0 {
                return Err("--update-iters must be >= 1".into());
            }
            if update_tol < 0.0 || !update_tol.is_finite() {
                return Err("--update-tol must be a finite non-negative number".into());
            }
            if max_delta_chain == 0 {
                return Err("--max-delta-chain must be >= 1".into());
            }
            Ok(Command::Update {
                target,
                delta,
                k,
                depth,
                threads,
                update_iters,
                update_tol,
                max_delta_chain,
            })
        }
        "query" => {
            let snapshot = it.next().ok_or("query needs a snapshot path")?.clone();
            let query = it
                .next()
                .ok_or("query needs a program (JSON file path or inline literal)")?
                .clone();
            if it.next().is_some() {
                return Err("query takes exactly one snapshot and one program argument".into());
            }
            Ok(Command::Query { snapshot, query })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command {other}; try `lesm help`")),
    }
}

/// Parses the flags `mine` and `snapshot` share — `--k`, `--depth`,
/// `--threads` and `--em-tol` — into `(k, depth, threads, em_tol)`.
fn parse_mine_flags(
    it: &mut std::slice::Iter<'_, String>,
) -> Result<(usize, usize, usize, f64), String> {
    let (mut k, mut depth, mut threads, mut em_tol) = (4usize, 2usize, 0usize, 0.0f64);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--k" => k = next_value(it, flag)?,
            "--depth" => depth = next_value(it, flag)?,
            "--threads" => threads = next_value(it, flag)?,
            "--em-tol" => em_tol = next_value(it, flag)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if k == 0 || depth == 0 {
        return Err("--k and --depth must be positive".into());
    }
    if em_tol < 0.0 || !em_tol.is_finite() {
        return Err("--em-tol must be a finite non-negative number".into());
    }
    Ok((k, depth, threads, em_tol))
}

fn next_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| {
        format!(
            "{flag} got {raw:?}, which is not a valid {}",
            std::any::type_name::<T>().rsplit("::").next().unwrap_or("value")
        )
    })
}

/// The usage text.
pub const USAGE: &str = "\
lesm — latent entity structure mining

USAGE:
  lesm synth [--docs N] [--seed S]        emit a synthetic corpus as TSV
  lesm mine <corpus.tsv> [--k K] [--depth D] [--threads T] [--em-tol TOL]
                                          mine a hierarchy, print JSON
  lesm snapshot <corpus.tsv> <out.lesm> [--k K] [--depth D] [--threads T] [--em-tol TOL]
                                          mine once, save a binary snapshot
  lesm snapshot inspect <file.lesm>       dump an artifact's section table
  lesm shard <snapshot.lesm> <out_dir> [--by entity-range|topic-subtree]
             [--shards N]                 split a snapshot into v2 shards
  lesm serve <snapshot.lesm | manifest.json | store_dir>
             [--addr HOST:PORT] [--workers N] [--cache N] [--queue N]
             [--shutdown-file PATH]       serve queries
  lesm update <store_dir | snapshot.lesm> <new.tsv> [--k K] [--depth D]
            [--threads T] [--update-iters N] [--update-tol TOL]
            [--max-delta-chain C]           append documents and refresh the
                                          model by warm-started incremental EM
  lesm search <corpus.tsv | snapshot.lesm> <query...>
                                          topic-aware document search
  lesm query <snapshot.lesm> <query.json | '{...}'>
                                          typed structural query (JSON program)
  lesm advisors <corpus.tsv>              mine advisor-advisee relations

`--threads 0` (the default) uses every available core; any thread count
produces identical output. `--em-tol` stops each EM run once the relative
objective improvement drops below TOL (0, the default, always runs the
full iteration budget). `search` detects snapshot inputs by their magic
bytes and answers from the persisted structure without re-mining,
mapping the artifact zero-copy. `query` runs a composable
filter/traverse/path/rank pipeline (see README \"Querying\" and DESIGN.md
§14) and prints the JSON response a server's POST /query returns for the
same program. The server exposes GET
/search?q=...&top=N, /topics/{id}, /hierarchy, /healthz and /metrics,
plus POST /query, sheds connections with 503 once `--queue` accepted connections are
waiting, and shuts down gracefully once the `--shutdown-file` path
exists. Serving a shard manifest boots one local server per shard plus a
front that merges byte-identically to an unsharded server; serving a
store directory hot-swaps to each newly published snapshot version.
`update` appends the TSV documents to the model's corpus (append-only:
every existing id stays stable), warm-starts EM from the previous fit
under the `--update-iters`/`--update-tol` budget, and publishes the
result — into the store as the next version (a serving `lesm serve
store_dir` hot-swaps to it), or atomically over the snapshot file. The
artifact records its delta lineage; once a chain of updates exceeds
`--max-delta-chain`, the artifact is written compacted (no lineage) and
the chain restarts. Same base + same update sequence = byte-identical
artifacts and responses, for any `--threads`.

TSV format (one doc per line):
  title text<TAB>etype=name|etype=name<TAB>year
";

/// Default miner configuration used by the CLI. `threads = 0` resolves to
/// all available cores; any value produces identical output. `em_tol = 0`
/// disables the EM early exit.
pub fn cli_miner_config(k: usize, depth: usize, threads: usize, em_tol: f64) -> MinerConfig {
    MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::Fixed(k),
            max_depth: depth,
            em: EmConfig {
                iters: 200,
                restarts: 4,
                seed: 7,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 20,
            subnet_threshold: 0.5,
        },
        threads,
        em_tol,
        ..MinerConfig::default()
    }
}

/// Runs `mine` on an already-loaded corpus; returns the JSON.
pub fn run_mine(
    corpus: &Corpus,
    k: usize,
    depth: usize,
    threads: usize,
    em_tol: f64,
) -> Result<String, String> {
    let mined = LatentStructureMiner::mine(corpus, &cli_miner_config(k, depth, threads, em_tol))
        .map_err(|e| e.to_string())?;
    Ok(lesm_core::export::hierarchy_to_json(&mined.view(corpus), 10))
}

/// Renders the top-10 search hits for `query` against an already-mined
/// structure (shared by the TSV path, the snapshot path, and the server).
pub fn search_lines(corpus: &Corpus, mined: &MinedStructure, query: &str) -> Vec<String> {
    let view = mined.view(corpus);
    let index = lesm_core::SearchIndex::build(&view);
    lesm_core::search::render_hits(&view, &lesm_core::search::search(&view, &index, query, 10))
}

/// Runs `search` on a TSV corpus (mines first); returns rendered lines.
pub fn run_search(corpus: &Corpus, query: &str, k: usize, depth: usize) -> Result<Vec<String>, String> {
    let mined = LatentStructureMiner::mine(corpus, &cli_miner_config(k, depth, 0, 0.0))
        .map_err(|e| e.to_string())?;
    Ok(search_lines(corpus, &mined, query))
}

/// Runs `search` on either input kind: `.lesm` snapshots (detected by
/// magic bytes) answer from the persisted structure without re-mining,
/// mapped zero-copy; anything else is loaded as TSV and mined with the
/// default CLI config.
pub fn run_search_input(
    input: &str,
    query: &str,
    k: usize,
    depth: usize,
) -> Result<Vec<String>, String> {
    if lesm_serve::is_snapshot_file(input) {
        let model = lesm_serve::load_model_file(input).map_err(|e| e.to_string())?;
        Ok(model.search_lines(query, 10))
    } else {
        let corpus = load_corpus(input)?;
        run_search(&corpus, query, k, depth)
    }
}

/// Runs `snapshot`: mines `corpus` with the default CLI config and writes
/// the v2 artifact to `output`. Returns a human-readable summary.
pub fn run_snapshot(
    corpus: &Corpus,
    output: &str,
    k: usize,
    depth: usize,
    threads: usize,
    em_tol: f64,
) -> Result<String, String> {
    let mined = LatentStructureMiner::mine(corpus, &cli_miner_config(k, depth, threads, em_tol))
        .map_err(|e| e.to_string())?;
    let artifact = lesm_serve::save_snapshot_v2(corpus, &mined).map_err(|e| e.to_string())?;
    std::fs::write(output, &artifact)
        .map_err(|e| lesm_serve::SnapshotError::Io(e).to_string())?;
    let bytes = artifact.len();
    Ok(format!(
        "wrote {output} (format v{}): {} topics, {} docs, {bytes} bytes",
        lesm_serve::FORMAT_VERSION_V2,
        mined.hierarchy.len(),
        corpus.num_docs()
    ))
}

/// Runs `shard`: loads the snapshot, splits its documents into `shards`
/// v2 artifacts under `out_dir`, and writes `manifest.json`. Returns a
/// human-readable summary.
pub fn run_shard(
    snapshot: &str,
    out_dir: &str,
    by: &str,
    shards: usize,
) -> Result<String, String> {
    let by = lesm_serve::ShardBy::parse(by)
        .ok_or_else(|| format!("unknown strategy {by:?}; use entity-range or topic-subtree"))?;
    let lesm_serve::Model::Mapped(mapped) =
        lesm_serve::load_model_file(snapshot).map_err(|e| e.to_string())?;
    let snap = mapped.to_snapshot().map_err(|e| e.to_string())?;
    let manifest = lesm_serve::write_shards(
        &snap.corpus,
        &snap.mined,
        by,
        shards,
        std::path::Path::new(out_dir),
    )
    .map_err(|e| e.to_string())?;
    let docs: Vec<String> = manifest.docs.iter().map(usize::to_string).collect();
    Ok(format!(
        "wrote {} shards by {} to {out_dir} (docs per shard: {}), manifest.json",
        manifest.files.len(),
        manifest.by,
        docs.join("/"),
    ))
}

/// What `lesm serve` was pointed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeInput {
    /// A single `.lesm` artifact.
    Artifact,
    /// A shard `manifest.json` — boot shard servers plus a front.
    Manifest,
    /// A versioned snapshot store directory — serve with hot-swap.
    Store,
}

/// Classifies the `lesm serve` input path by shape: a directory with a
/// `CURRENT` pointer is a store, a `.json` file is a shard manifest,
/// anything else is treated as a snapshot artifact.
pub fn classify_serve_input(path: &str) -> ServeInput {
    let p = std::path::Path::new(path);
    if lesm_serve::store::is_store_dir(p) {
        ServeInput::Store
    } else if p.extension().is_some_and(|e| e == "json") {
        ServeInput::Manifest
    } else {
        ServeInput::Artifact
    }
}

/// Converts a corpus with author links and years into TPFG paper records.
///
/// The author entity type is located by name (`"author"`); docs lacking a
/// year or authors are skipped.
pub fn corpus_to_papers(corpus: &Corpus) -> Result<(Vec<GenPaper>, usize), String> {
    let author = author_type(corpus)?;
    let n_authors = corpus.entities.count(author);
    let papers: Vec<GenPaper> = corpus
        .docs
        .iter()
        .filter_map(|d| {
            let year = d.year?;
            let authors: Vec<u32> = d.entities_of(author).collect();
            if authors.is_empty() {
                None
            } else {
                Some(GenPaper { year, authors })
            }
        })
        .collect();
    if papers.is_empty() {
        return Err("no documents with both a year and author links".into());
    }
    Ok((papers, n_authors))
}

/// Locates the `"author"` entity type (shared by [`corpus_to_papers`] and
/// [`run_advisors`], so neither needs to re-derive — or assume — its
/// presence).
fn author_type(corpus: &Corpus) -> Result<usize, String> {
    (0..corpus.entities.num_types())
        .find(|&t| corpus.entities.type_name(t) == Some("author"))
        .ok_or_else(|| "corpus has no 'author' entity type".into())
}

/// Runs `query`: loads the snapshot, builds the query index, and
/// executes the JSON program — the same
/// `lesm_query::run_query` code path a server's `POST /query` runs, so
/// the returned response is byte-identical to a served response body
/// (the binary appends one trailing newline when printing). `query` is
/// an inline program when it starts with `{`, otherwise a file path.
pub fn run_query_input(snapshot: &str, query: &str) -> Result<String, String> {
    let body = if query.trim_start().starts_with('{') {
        query.to_string()
    } else {
        std::fs::read_to_string(query).map_err(|e| format!("cannot read {query}: {e}"))?
    };
    let model = lesm_serve::load_model_file(snapshot).map_err(|e| e.to_string())?;
    let parts = model.query_parts()?;
    let index = lesm_query::QueryIndex::build(parts).map_err(|e| e.to_string())?;
    lesm_query::run_query(&index, &body).map_err(|e| e.to_string())
}

/// Runs `update`: loads the base model from a store directory (its
/// `CURRENT` version) or a `.lesm` snapshot file, appends the delta TSV
/// documents to its corpus, refines the structure by warm-started
/// incremental EM under the given budget, and publishes the result — as
/// the store's next version, or atomically over the snapshot file. The
/// published artifact is always format v2 and carries delta lineage
/// unless the update chain exceeded `max_delta_chain`, in which case it
/// is written compacted (no lineage) and the chain restarts.
///
/// Determinism: the same base plus the same delta file produces a
/// byte-identical artifact, for any `threads` value.
#[allow(clippy::too_many_arguments)]
pub fn run_update(
    target: &str,
    delta_tsv: &str,
    k: usize,
    depth: usize,
    threads: usize,
    update_iters: usize,
    update_tol: f64,
    max_delta_chain: u64,
) -> Result<String, String> {
    let path = std::path::Path::new(target);
    let is_store = lesm_serve::store::is_store_dir(path);
    let (base_name, model) = if is_store {
        lesm_serve::store::load_current(path).map_err(|e| e.to_string())?
    } else {
        let name =
            path.file_name().and_then(|n| n.to_str()).unwrap_or(target).to_string();
        (name, lesm_serve::load_model_file(target).map_err(|e| e.to_string())?)
    };
    let lesm_serve::Model::Mapped(mapped) = model;
    let base_chain = mapped.delta_info().map_or(0, |d| d.chain_depth);
    let lesm_serve::Snapshot { corpus: mut merged, mined: base } =
        mapped.to_snapshot().map_err(|e| e.to_string())?;
    let base_docs = merged.num_docs();
    let base_words = merged.num_words();
    let base_entities: Vec<u64> =
        (0..merged.entities.num_types()).map(|t| merged.entities.count(t) as u64).collect();

    let file = std::fs::File::open(delta_tsv)
        .map_err(|e| format!("cannot open {delta_tsv}: {e}"))?;
    let appended = lesm_corpus::append_tsv(
        &mut merged,
        std::io::BufReader::new(file),
        &LoadOptions::default(),
    )
    .map_err(|e| e.to_string())?;

    let budget = lesm_core::UpdateBudget { iters: update_iters, tol: update_tol };
    let config = cli_miner_config(k, depth, threads, 0.0);
    let updated = LatentStructureMiner::update(&merged, &base, base_docs, &config, &budget)
        .map_err(|e| e.to_string())?;

    let chain_depth = base_chain + 1;
    let compact = chain_depth > max_delta_chain;
    let bytes = if compact {
        lesm_serve::save_snapshot_v2(&merged, &updated).map_err(|e| e.to_string())?
    } else {
        let lineage = lesm_serve::DeltaInfo {
            base_artifact: base_name.clone(),
            base_docs: base_docs as u64,
            base_words: base_words as u64,
            base_entities,
            chain_depth,
        };
        lesm_serve::save_snapshot_v2_with_lineage(&merged, &updated, None, Some(&lineage))
            .map_err(|e| e.to_string())?
    };
    let published = if is_store {
        lesm_serve::store::publish(path, &bytes).map_err(|e| e.to_string())?
    } else {
        // Durable in-place replace: a concurrent reader or a crash sees
        // the old or the new artifact in full, never a torn file.
        lesm_serve::store::replace_file(path, &bytes)
            .map_err(|e| format!("cannot replace {target}: {e}"))?;
        base_name.clone()
    };
    Ok(format!(
        "updated {base_name} -> {published}: +{appended} docs ({} total), {}, {} bytes",
        merged.num_docs(),
        if compact {
            "compacted (chain reset)".to_string()
        } else {
            format!("delta chain depth {chain_depth}")
        },
        bytes.len()
    ))
}

/// Runs `advisors`; returns the rendered advising forest.
pub fn run_advisors(corpus: &Corpus) -> Result<String, String> {
    let (papers, n_authors) = corpus_to_papers(corpus)?;
    let author = author_type(corpus)?;
    let forest = lesm_relations::advising_forest(&papers, n_authors).map_err(|e| e.to_string())?;
    let name = |a: u32| {
        corpus
            .entities
            .name(lesm_corpus::EntityRef::new(author, a))
            .to_string()
    };
    Ok(forest.render(&name, 10))
}

/// Loads a TSV corpus from a file path.
pub fn load_corpus(path: &str) -> Result<Corpus, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    lesm_corpus::load_tsv(std::io::BufReader::new(file), &LoadOptions::default())
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_subcommands() {
        assert_eq!(
            parse_args(&s(&["synth", "--docs", "50", "--seed", "9"])).unwrap(),
            Command::Synth { docs: 50, seed: 9 }
        );
        assert_eq!(
            parse_args(&s(&["mine", "in.tsv", "--k", "3", "--depth", "1"])).unwrap(),
            Command::Mine { input: "in.tsv".into(), k: 3, depth: 1, threads: 0, em_tol: 0.0 }
        );
        assert_eq!(
            parse_args(&s(&["mine", "in.tsv", "--threads", "4"])).unwrap(),
            Command::Mine { input: "in.tsv".into(), k: 4, depth: 2, threads: 4, em_tol: 0.0 }
        );
        assert_eq!(
            parse_args(&s(&["mine", "in.tsv", "--em-tol", "1e-6"])).unwrap(),
            Command::Mine { input: "in.tsv".into(), k: 4, depth: 2, threads: 0, em_tol: 1e-6 }
        );
        assert_eq!(
            parse_args(&s(&["snapshot", "in.tsv", "out.lesm", "--threads", "2", "--em-tol", "1e-4"]))
                .unwrap(),
            Command::Snapshot {
                input: "in.tsv".into(),
                output: "out.lesm".into(),
                k: 4,
                depth: 2,
                threads: 2,
                em_tol: 1e-4
            }
        );
        assert_eq!(
            parse_args(&s(&["snapshot", "inspect", "art.lesm"])).unwrap(),
            Command::Inspect { input: "art.lesm".into() }
        );
        assert_eq!(
            parse_args(&s(&["shard", "art.lesm", "out", "--by", "topic-subtree", "--shards", "4"]))
                .unwrap(),
            Command::Shard {
                snapshot: "art.lesm".into(),
                out_dir: "out".into(),
                by: "topic-subtree".into(),
                shards: 4
            }
        );
        assert_eq!(
            parse_args(&s(&["shard", "art.lesm", "out"])).unwrap(),
            Command::Shard {
                snapshot: "art.lesm".into(),
                out_dir: "out".into(),
                by: "entity-range".into(),
                shards: 2
            }
        );
        assert_eq!(
            parse_args(&s(&["search", "in.tsv", "query", "processing"])).unwrap(),
            Command::Search { input: "in.tsv".into(), query: "query processing".into() }
        );
        assert_eq!(
            parse_args(&s(&["advisors", "in.tsv"])).unwrap(),
            Command::Advisors { input: "in.tsv".into() }
        );
        assert_eq!(
            parse_args(&s(&["query", "art.lesm", "q.json"])).unwrap(),
            Command::Query { snapshot: "art.lesm".into(), query: "q.json".into() }
        );
        assert_eq!(
            parse_args(&s(&["query", "art.lesm", "{\"steps\":[]}"])).unwrap(),
            Command::Query { snapshot: "art.lesm".into(), query: "{\"steps\":[]}".into() }
        );
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_bad_args() {
        assert!(parse_args(&s(&["mine"])).is_err());
        assert!(parse_args(&s(&["mine", "x", "--k", "zero"])).is_err());
        assert!(parse_args(&s(&["mine", "x", "--k", "0"])).is_err());
        assert!(parse_args(&s(&["mine", "x", "--em-tol", "-1"])).is_err());
        assert!(parse_args(&s(&["mine", "x", "--em-tol", "NaN"])).is_err());
        assert!(parse_args(&s(&["snapshot", "x", "y", "--em-tol", "-1"])).is_err());
        assert!(parse_args(&s(&["search", "x"])).is_err());
        assert!(parse_args(&s(&["frobnicate"])).is_err());
        assert!(parse_args(&s(&["synth", "--bogus", "1"])).is_err());
        assert!(parse_args(&s(&["serve", "m.lesm", "--workers", "0"])).is_err());
        assert!(parse_args(&s(&["serve", "m.lesm", "--cache", "0"])).is_err());
        assert!(parse_args(&s(&["serve", "m.lesm", "--queue", "0"])).is_err());
        assert!(parse_args(&s(&["snapshot", "in.tsv", "out.lesm", "--format", "v1"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect", "a.lesm", "b.lesm"])).is_err());
        assert!(parse_args(&s(&["shard", "a.lesm"])).is_err());
        assert!(parse_args(&s(&["shard", "a.lesm", "out", "--by", "vibes"])).is_err());
        assert!(parse_args(&s(&["shard", "a.lesm", "out", "--shards", "0"])).is_err());
        assert!(parse_args(&s(&["query", "a.lesm"])).is_err());
        assert!(parse_args(&s(&["query", "a.lesm", "q.json", "extra"])).is_err());
    }

    #[test]
    fn parse_errors_name_the_flag_and_the_value() {
        let e = parse_args(&s(&["mine", "x", "--k", "zero"])).unwrap_err();
        assert!(e.contains("--k") && e.contains("zero"), "unhelpful message: {e}");
        let e = parse_args(&s(&["synth", "--docs", "-3"])).unwrap_err();
        assert!(e.contains("--docs") && e.contains("-3"), "unhelpful message: {e}");
        let e = parse_args(&s(&["mine", "x", "--em-tol"])).unwrap_err();
        assert!(e.contains("--em-tol") && e.contains("needs a value"));
    }

    #[test]
    fn corpus_to_papers_extracts_author_year_records() {
        let tsv = "a b\tauthor=x|author=y\t2001\nc d\tauthor=x\t2002\nno year\tauthor=z\t\n";
        let corpus =
            lesm_corpus::load_tsv(tsv.as_bytes(), &LoadOptions::default()).unwrap();
        let (papers, n) = corpus_to_papers(&corpus).unwrap();
        assert_eq!(papers.len(), 2, "the year-less doc is skipped");
        assert_eq!(n, 3);
        assert_eq!(papers[0].year, 2001);
        assert_eq!(papers[0].authors.len(), 2);
    }

    #[test]
    fn corpus_without_authors_is_an_error() {
        let tsv = "a b\tvenue=V\t2001\n";
        let corpus =
            lesm_corpus::load_tsv(tsv.as_bytes(), &LoadOptions::default()).unwrap();
        assert!(corpus_to_papers(&corpus).is_err());
    }
}
