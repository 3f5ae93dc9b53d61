//! The mining workload: `update_stream` (`lesm update` chains on a
//! snapshot store), whose set-up is a cold `lesm snapshot` of the base.
//!
//! Untraced operations call the CLI library entry point users run
//! (`lesm_cli::run_update`). Traced operations make the same calls layer
//! by layer, each inside a span, and then re-run the mining stages one by
//! one (a "probe") so that the stage rows can be summed against the whole
//! mine or update call. In a traced run the set-up's cold base mine is
//! traced and probed the same way.

use crate::report::{fnv64, timed, Outcome};
use crate::trace::Tracer;
use crate::{Opts, SETUP_REPS};
use lesm_core::{LatentStructureMiner, MinedStructure, MinerConfig, UpdateBudget};
use lesm_corpus::Corpus;
use lesm_phrases::topmine::{FrequentPhrases, Segmenter, SegmenterConfig};
use lesm_serve::{store, MappedSnapshot};
use std::path::Path;
use std::time::Instant;

/// `lesm snapshot|update --k 4 --depth 2`, pinned to one thread: on a
/// 2-vCPU host two threads measured slower and noisier than one.
const K: usize = 4;
const DEPTH: usize = 2;
pub const THREADS: usize = 1;
/// `lesm update` defaults.
const UPDATE_ITERS: usize = 30;
const UPDATE_TOL: f64 = 1e-5;
const MAX_DELTA_CHAIN: u64 = 4;
/// Updates per chain before it restarts from the base: one past the
/// delta-chain limit, so every chain also publishes one compaction.
const CHAIN_LEN: usize = 5;

fn config() -> MinerConfig {
    lesm_cli::cli_miner_config(K, DEPTH, THREADS, 0.0)
}

fn budget() -> UpdateBudget {
    UpdateBudget {
        iters: UPDATE_ITERS,
        tol: UPDATE_TOL,
    }
}

/// `lesm synth --docs N --seed S`: the dblp preset as TSV lines.
fn synth_tsv(docs: usize, seed: u64) -> Result<String, String> {
    let papers = lesm_corpus::synth::SyntheticPapers::generate(
        &lesm_corpus::synth::PapersConfig::dblp(docs, seed),
    )
    .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    lesm_corpus::io::write_tsv(&papers.corpus, &mut out).map_err(|e| e.to_string())?;
    String::from_utf8(out).map_err(|e| e.to_string())
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", path.display()))
}

fn write(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Flips one byte in the middle of a file (self-test fault injection).
fn corrupt_file(path: &Path) -> Result<(), String> {
    let mut bytes = read(path)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    write(path, bytes)
}

/// States how much of the whole call the stage rows leave unaccounted.
fn note_residual(out: &mut Outcome, total: &'static str, residual_ms: f64) {
    let total_ms = out.values.get(total).copied().unwrap_or(0.0);
    out.note(format!(
        "stage rows sum to {total} within a residual of {residual_ms:.1} ms ({:.1}% of {total_ms:.1} ms)",
        100.0 * residual_ms / total_ms
    ));
}

/// Checks a batch artifact: byte-identical to the reference and loadable
/// through the zero-copy v2 reader with the expected shape.
fn check_artifact(bytes: &[u8], reference: &[u8], docs: usize) -> Result<usize, String> {
    if bytes != reference {
        return Err(format!(
            "artifact {:016x} differs from reference {:016x}",
            fnv64(bytes),
            fnv64(reference)
        ));
    }
    let mapped = MappedSnapshot::from_bytes(bytes).map_err(|e| format!("artifact: {e}"))?;
    if mapped.num_docs() != docs {
        return Err(format!(
            "artifact holds {} docs, expected {docs}",
            mapped.num_docs()
        ));
    }
    Ok(mapped.num_topics())
}

/// `lesm snapshot` of the base corpus: load → mine → v2 save, each in a
/// span (a disabled tracer only runs them). Returns the corpus and the
/// artifact bytes.
fn base_mine(
    tracer: &mut Tracer,
    tsv: &Path,
    config: &MinerConfig,
) -> Result<(Corpus, Vec<u8>), String> {
    tracer.span("op", |tr| {
        let corpus = tr.span("corpus.load_tsv", |_| lesm_cli::load_corpus(path_str(tsv)?))?;
        let mined = tr
            .span("core.mine", |_| LatentStructureMiner::mine(&corpus, config))
            .map_err(|e| e.to_string())?;
        let bytes = tr
            .span("serve.save_v2", |_| {
                lesm_serve::save_snapshot_v2(&corpus, &mined)
            })
            .map_err(|e| e.to_string())?;
        Ok((corpus, bytes))
    })
}

/// The mining stages of `LatentStructureMiner::mine`, one span each.
/// Returns (topics, frequent phrases).
fn mine_stages(
    tracer: &mut Tracer,
    corpus: &Corpus,
    config: &MinerConfig,
) -> Result<(usize, usize), String> {
    tracer.span("probe", |tr| {
        let net = tr.span("net.collapse", |_| lesm_net::collapsed_network(corpus));
        let mut hier_cfg = config.hierarchy.clone();
        hier_cfg.em.threads = config.threads;
        hier_cfg.em.tol = config.em_tol;
        let hierarchy = tr
            .span("hier.construct", |_| {
                lesm_hier::TopicHierarchy::construct(net, &hier_cfg)
            })
            .map_err(|e| e.to_string())?;
        let docs: Vec<Vec<u32>> = corpus.docs.iter().map(|d| d.tokens.clone()).collect();
        let phrases = tr.span("phrases.mine", |_| {
            FrequentPhrases::mine_threads(
                &docs,
                config.phrase_min_support,
                config.phrase_max_len,
                config.threads,
            )
        });
        tr.span("phrases.segment", |_| {
            Segmenter::segment_threads(
                &docs,
                &phrases,
                &SegmenterConfig {
                    alpha: config.seg_alpha,
                },
                config.threads,
            )
        });
        Ok((hierarchy.len(), phrases.len()))
    })
}

/// The base store and delta files one `update_stream` chain starts from.
#[derive(Clone)]
struct Chain {
    base_docs: usize,
    delta_docs: usize,
    base_artifact: Vec<u8>,
    deltas: Vec<std::path::PathBuf>,
}

/// One traced `lesm update` on a store directory: the body of
/// `lesm_cli::run_update`, each layer call in a span. Returns the same
/// summary line plus the inputs the stage probe needs.
fn traced_update(
    tracer: &mut Tracer,
    dir: &Path,
    delta: &Path,
    config: &MinerConfig,
) -> Result<(String, Corpus, MinedStructure, usize), String> {
    tracer.span("op", |tr| {
        let (base_name, model) = tr
            .span("serve.store_load", |_| store::load_current(dir))
            .map_err(|e| e.to_string())?;
        let lesm_serve::Model::Mapped(mapped) = model else {
            return Err(format!("{base_name} is not a v2 artifact"));
        };
        let base_chain = mapped.delta_info().map_or(0, |d| d.chain_depth);
        let snap = tr
            .span("serve.to_snapshot", |_| mapped.to_snapshot())
            .map_err(|e| e.to_string())?;
        let lesm_serve::Snapshot {
            corpus: mut merged,
            mined: base,
        } = snap;
        let base_docs = merged.num_docs();
        let base_words = merged.num_words();
        let base_entities: Vec<u64> = (0..merged.entities.num_types())
            .map(|t| merged.entities.count(t) as u64)
            .collect();
        let appended = tr.span("corpus.append_tsv", |_| {
            let file = std::fs::File::open(delta).map_err(|e| e.to_string())?;
            lesm_corpus::append_tsv(
                &mut merged,
                std::io::BufReader::new(file),
                &lesm_corpus::LoadOptions::default(),
            )
            .map_err(|e| e.to_string())
        })?;
        let updated = tr
            .span("core.update", |_| {
                LatentStructureMiner::update(&merged, &base, base_docs, config, &budget())
            })
            .map_err(|e| e.to_string())?;
        let chain_depth = base_chain + 1;
        let compact = chain_depth > MAX_DELTA_CHAIN;
        let bytes = tr
            .span("serve.save_v2", |_| {
                if compact {
                    lesm_serve::save_snapshot_v2(&merged, &updated)
                } else {
                    let lineage = lesm_serve::DeltaInfo {
                        base_artifact: base_name.clone(),
                        base_docs: base_docs as u64,
                        base_words: base_words as u64,
                        base_entities,
                        chain_depth,
                    };
                    lesm_serve::save_snapshot_v2_with_lineage(
                        &merged,
                        &updated,
                        None,
                        Some(&lineage),
                    )
                }
            })
            .map_err(|e| e.to_string())?;
        let published = tr
            .span("serve.publish", |_| store::publish(dir, &bytes))
            .map_err(|e| e.to_string())?;
        let summary = format!(
            "updated {base_name} -> {published}: +{appended} docs ({} total), {}, {} bytes",
            merged.num_docs(),
            if compact {
                "compacted (chain reset)".to_string()
            } else {
                format!("delta chain depth {chain_depth}")
            },
            bytes.len()
        );
        Ok((summary, merged, base, base_docs))
    })
}

/// The stages of `LatentStructureMiner::update`, one span each. Returns
/// the number of frequent phrases in the re-mined base inventory.
fn update_stages(
    tracer: &mut Tracer,
    merged: &Corpus,
    base: &MinedStructure,
    base_docs: usize,
    config: &MinerConfig,
) -> Result<usize, String> {
    tracer.span("probe", |tr| {
        let delta_net = tr.span("net.collapse_delta", |_| {
            lesm_net::collapsed_network_from(merged, base_docs)
        });
        let mut hier_cfg = config.hierarchy.clone();
        hier_cfg.em.threads = config.threads;
        hier_cfg.em.tol = config.em_tol;
        tr.span("hier.update", |_| {
            lesm_hier::TopicHierarchy::update(&base.hierarchy, &delta_net, &hier_cfg, &budget())
        })
        .map_err(|e| e.to_string())?;
        let tokens: Vec<Vec<u32>> = merged.docs.iter().map(|d| d.tokens.clone()).collect();
        let phrases = tr.span("phrases.mine", |_| {
            FrequentPhrases::mine_threads(
                &tokens[..base_docs],
                config.phrase_min_support,
                config.phrase_max_len,
                config.threads,
            )
        });
        tr.span("phrases.segment", |_| {
            Segmenter::segment_threads(
                &tokens[base_docs..],
                &phrases,
                &SegmenterConfig {
                    alpha: config.seg_alpha,
                },
                config.threads,
            )
        });
        Ok(phrases.len())
    })
}

/// Checks update `step` (1-based) of a chain against what the store holds
/// and what the update reported; returns the published artifact bytes.
fn check_update(dir: &Path, chain: &Chain, step: usize, summary: &str) -> Result<Vec<u8>, String> {
    let current = store::current_version(dir)
        .map_err(|e| e.to_string())?
        .ok_or("store has no CURRENT pointer")?;
    let expected = format!("v{:04}.lesm", step + 1);
    if current != expected {
        return Err(format!("CURRENT names {current}, expected {expected}"));
    }
    let bytes = read(&dir.join(&current))?;
    let total = chain.base_docs + step * chain.delta_docs;
    let depth = step as u64;
    let tail = if depth > MAX_DELTA_CHAIN {
        "compacted (chain reset)".to_string()
    } else {
        format!("delta chain depth {depth}")
    };
    let want = format!(
        "updated v{step:04}.lesm -> {expected}: +{} docs ({total} total), {tail}, {} bytes",
        chain.delta_docs,
        bytes.len()
    );
    if summary != want {
        return Err(format!("update reported {summary:?}, expected {want:?}"));
    }
    let mapped = MappedSnapshot::from_bytes(&bytes).map_err(|e| format!("{current}: {e}"))?;
    if mapped.num_docs() != total {
        return Err(format!(
            "{current} holds {} docs, expected {total}",
            mapped.num_docs()
        ));
    }
    match (mapped.delta_info(), depth > MAX_DELTA_CHAIN) {
        (None, true) => {}
        (Some(info), false)
            if info.chain_depth == depth
                && info.base_docs as usize == total - chain.delta_docs
                && info.base_artifact == format!("v{step:04}.lesm") => {}
        (info, _) => return Err(format!("{current} lineage {info:?} at chain step {step}")),
    }
    Ok(bytes)
}

/// Set-up for `update_stream`: the corpus split into base and deltas, the
/// cold base mine (`lesm snapshot`), and the first publish into a fresh
/// store. Also returns the base corpus, for the traced run's stage probe.
fn prepare_chain(
    opts: &Opts,
    config: &MinerConfig,
    tracer: &mut Tracer,
) -> Result<(Chain, Corpus), String> {
    let base_docs = if opts.tiny { 200 } else { 2000 };
    let delta_docs = base_docs / 100;
    let tsv = synth_tsv(base_docs + CHAIN_LEN * delta_docs, opts.seed)?;
    let lines: Vec<&str> = tsv.lines().collect();
    let base_tsv = opts.work.join("base.tsv");
    write(
        &base_tsv,
        lines[..base_docs]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect::<String>(),
    )?;
    let mut deltas = Vec::with_capacity(CHAIN_LEN);
    for i in 0..CHAIN_LEN {
        let from = base_docs + i * delta_docs;
        let path = opts.work.join(format!("delta{}.tsv", i + 1));
        write(
            &path,
            lines[from..from + delta_docs]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
        )?;
        deltas.push(path);
    }
    tracer.begin_op();
    let (corpus, base_artifact) = base_mine(tracer, &base_tsv, config)?;
    let dir = opts.work.join("store-setup");
    let _ = std::fs::remove_dir_all(&dir);
    store::publish(&dir, &base_artifact).map_err(|e| e.to_string())?;
    Ok((
        Chain {
            base_docs,
            delta_docs,
            base_artifact,
            deltas,
        },
        corpus,
    ))
}

/// `update_stream`: one operation is `lesm update` applying a +1% delta
/// to a store directory; chains of `CHAIN_LEN` updates restart from the
/// same base so the per-operation cost does not drift with run length.
pub fn update_stream(opts: &Opts) -> Result<Outcome, String> {
    let config = config();
    let mut out = Outcome::default();

    // Set-up, repeated so its time is a median. In a traced run each
    // repetition's cold base mine is traced, then probed stage by stage
    // (outside the set-up time): these are the `lesm snapshot` rows.
    let mut tracer = Tracer::new();
    tracer.set_enabled(opts.trace);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut chain: Option<Chain> = None;
    for _ in 0..SETUP_REPS {
        let (prepared, time) = timed(0, || prepare_chain(opts, &config, &mut tracer))?;
        let (next, corpus) = prepared?;
        setup.push(time);
        let first = chain.get_or_insert_with(|| next.clone());
        let mut result = check_artifact(&next.base_artifact, &first.base_artifact, next.base_docs);
        if opts.trace {
            let (topics, phrases) = mine_stages(&mut tracer, &corpus, &config)?;
            out.set("hier.topics", topics as f64);
            out.set("phrases.count", phrases as f64);
            result = result.and_then(|artifact_topics| {
                if artifact_topics == topics {
                    Ok(artifact_topics)
                } else {
                    Err(format!(
                        "probe built {topics} topics, base artifact has {artifact_topics}"
                    ))
                }
            });
        }
        out.record(result.map(drop));
    }
    let chain = chain.ok_or("no set-up ran")?;
    crate::set_setup(&mut out, &setup);
    out.note(format!(
        "digest: base artifact {:016x} ({} bytes)",
        fnv64(&chain.base_artifact),
        chain.base_artifact.len()
    ));

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Artifact digest per chain step, taken from the first chain that
    // reaches it; every later chain must publish the same bytes.
    let mut digests: Vec<Option<u64>> = vec![None; CHAIN_LEN];
    let mut last_artifact = Vec::new();
    let cpu = crate::host::cpu_sample();
    let start = Instant::now();
    let mut op = 0usize;
    for c in 0.. {
        if c > 0 && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let dir = opts.work.join(format!("store-{c}"));
        let dir_str = path_str(&dir)?.to_string();
        store::publish(&dir, &chain.base_artifact).map_err(|e| e.to_string())?;
        for step in 1..=CHAIN_LEN {
            let delta = &chain.deltas[step - 1];
            tracer.set_enabled(opts.trace && op % 2 == 1);
            tracer.begin_op();
            op += 1;
            let window = start.elapsed().as_secs();
            let (result, timing) = timed(window, || {
                if tracer.enabled() {
                    traced_update(&mut tracer, &dir, delta, &config)
                        .map(|(summary, merged, base, docs)| (summary, Some((merged, base, docs))))
                } else {
                    lesm_cli::run_update(
                        &dir_str,
                        path_str(delta)?,
                        K,
                        DEPTH,
                        THREADS,
                        UPDATE_ITERS,
                        UPDATE_TOL,
                        MAX_DELTA_CHAIN,
                    )
                    .map(|summary| (summary, None))
                }
            })?;
            let (summary, probe) = match result {
                Ok(done) => done,
                Err(e) => {
                    // The store no longer holds a valid chain: start a new one.
                    out.record(Err(format!("chain {c} step {step}: {e}")));
                    break;
                }
            };
            if opts.fault && op == 1 {
                corrupt_file(&dir.join(format!("v{:04}.lesm", step + 1)))?;
            }
            let mut result = check_update(&dir, &chain, step, &summary).and_then(|bytes| {
                let digest = fnv64(&bytes);
                let first = *digests[step - 1].get_or_insert(digest);
                last_artifact = bytes;
                if first == digest {
                    Ok(())
                } else {
                    Err(format!(
                        "chain {c} step {step}: artifact {digest:016x} differs from {first:016x}"
                    ))
                }
            });
            match probe {
                Some((merged, base, base_docs)) => {
                    traced.push(timing.secs);
                    match update_stages(&mut tracer, &merged, &base, base_docs, &config) {
                        Ok(phrases) => out.set("phrases.count", phrases as f64),
                        Err(e) => result = result.and(Err(e)),
                    }
                }
                None => untraced.push(timing),
            }
            out.record(result);
        }
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    out.set(
        "host.steal_pct",
        crate::host::steal_pct(cpu, crate::host::cpu_sample()),
    );
    out.note(format!(
        "digest: chain-end artifact {:016x} ({} bytes)",
        fnv64(&last_artifact),
        last_artifact.len()
    ));
    out.set_op_metrics(&untraced, chain.delta_docs as f64);
    if opts.trace {
        out.set("serve.artifact_mb", chain.base_artifact.len() as f64 / 1e6);
        crate::set_layers(
            &mut out,
            &tracer,
            &[
                "corpus.load_tsv_ms",
                "core.mine_ms",
                "net.collapse_ms",
                "hier.construct_ms",
                "serve.store_load_ms",
                "serve.to_snapshot_ms",
                "corpus.append_tsv_ms",
                "core.update_ms",
                "serve.save_v2_ms",
                "serve.publish_ms",
                "net.collapse_delta_ms",
                "hier.update_ms",
                "phrases.mine_ms",
                "phrases.segment_ms",
            ],
        );
        // Per operation: the set-up mines' stages against `core.mine`, the
        // updates' against `core.update`.
        let stages = [
            "net.collapse",
            "hier.construct",
            "phrases.mine",
            "phrases.segment",
        ];
        if let Some(ms) = tracer.residual_ms("core.mine", &stages) {
            out.set("core.derive_residual_ms", ms);
            note_residual(&mut out, "core.mine_ms", ms);
        }
        let stages = [
            "net.collapse_delta",
            "hier.update",
            "phrases.mine",
            "phrases.segment",
        ];
        if let Some(ms) = tracer.residual_ms("core.update", &stages) {
            out.set("core.update_residual_ms", ms);
            note_residual(&mut out, "core.update_ms", ms);
        }
        crate::finish_trace(&mut out, &tracer, &untraced, &traced, opts)?;
    }
    Ok(out)
}
