//! The `lesm` command-line tool (thin shell over [`lesm_cli`]).

use std::io::Write;

use lesm_cli::{parse_args, Command, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(command);
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Writes to stdout without panicking when the read end has gone away
/// (`lesm ... | head` closes the pipe early): `BrokenPipe` is a clean
/// exit, any other stdout failure a typed error. `println!` would panic
/// on EPIPE because Rust starts with SIGPIPE ignored.
fn emit(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("cannot write to stdout: {e}")),
    }
}

fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help => emit(USAGE),
        Command::Synth { docs, seed } => {
            let papers = lesm_corpus::synth::SyntheticPapers::generate(
                &lesm_corpus::synth::PapersConfig::dblp(docs, seed),
            )
            .map_err(|e| e.to_string())?;
            let stdout = std::io::stdout();
            match lesm_corpus::io::write_tsv(&papers.corpus, stdout.lock()) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
                Err(e) => Err(e.to_string()),
            }
        }
        Command::Mine { input, k, depth, threads, em_tol } => {
            let corpus = lesm_cli::load_corpus(&input)?;
            let json = lesm_cli::run_mine(&corpus, k, depth, threads, em_tol)?;
            emit(&json)
        }
        Command::Snapshot { input, output, k, depth, threads, em_tol } => {
            let corpus = lesm_cli::load_corpus(&input)?;
            let summary = lesm_cli::run_snapshot(&corpus, &output, k, depth, threads, em_tol)?;
            emit(&format!("{summary}\n"))
        }
        Command::Inspect { input } => {
            let report =
                lesm_serve::describe_artifact_file(&input).map_err(|e| e.to_string())?;
            emit(&report)
        }
        Command::Shard { snapshot, out_dir, by, shards } => {
            let summary = lesm_cli::run_shard(&snapshot, &out_dir, &by, shards)?;
            emit(&format!("{summary}\n"))
        }
        Command::Serve { snapshot, addr, workers, cache, queue, shutdown_file } => {
            let config = lesm_serve::ServerConfig {
                addr,
                workers,
                cache_capacity: cache,
                queue_depth: queue,
                shutdown_file: shutdown_file.map(std::path::PathBuf::from),
                ..lesm_serve::ServerConfig::default()
            };
            let path = std::path::Path::new(&snapshot);
            let handle = match lesm_cli::classify_serve_input(&snapshot) {
                lesm_cli::ServeInput::Store => {
                    lesm_serve::Server::start_store(path, config).map_err(|e| e.to_string())?
                }
                lesm_cli::ServeInput::Manifest => {
                    lesm_serve::Server::start_sharded(path, config).map_err(|e| e.to_string())?
                }
                lesm_cli::ServeInput::Artifact => {
                    let model =
                        lesm_serve::load_model_file(&snapshot).map_err(|e| e.to_string())?;
                    lesm_serve::Server::start_model(model, config).map_err(|e| e.to_string())?
                }
            };
            emit(&format!("listening on http://{}\n", handle.addr()))?;
            handle.join();
            Ok(())
        }
        Command::Search { input, query } => {
            for line in lesm_cli::run_search_input(&input, &query, 4, 1)? {
                emit(&format!("{line}\n"))?;
            }
            Ok(())
        }
        Command::Update {
            target,
            delta,
            k,
            depth,
            threads,
            update_iters,
            update_tol,
            max_delta_chain,
        } => {
            let summary = lesm_cli::run_update(
                &target,
                &delta,
                k,
                depth,
                threads,
                update_iters,
                update_tol,
                max_delta_chain,
            )?;
            emit(&format!("{summary}\n"))
        }
        Command::Query { snapshot, query } => {
            let response = lesm_cli::run_query_input(&snapshot, &query)?;
            emit(&format!("{response}\n"))
        }
        Command::Advisors { input } => {
            let corpus = lesm_cli::load_corpus(&input)?;
            emit(&lesm_cli::run_advisors(&corpus)?)
        }
    }
}
