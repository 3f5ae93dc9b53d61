//! Fixtures and the HTTP helpers the serve integration tests share.
//! Requests go through [`lesm_serve::client`], the client the front tier
//! itself uses; tests write raw bytes only where the bytes are the point.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use lesm_core::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::Corpus;
use lesm_serve::client::{http_get, http_post};
use lesm_serve::{save_snapshot_v2, MappedSnapshot, Model};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// The model a server loads from `corpus` + `mined`: a v2 artifact,
/// mapped back from its bytes.
pub fn mapped_model(corpus: &Corpus, mined: &MinedStructure) -> Model {
    let bytes = save_snapshot_v2(corpus, mined).expect("save");
    Model::Mapped(Box::new(MappedSnapshot::from_bytes(&bytes).expect("load")))
}

/// An 80-document synthetic corpus mined one level deep.
pub fn fixture(seed: u64) -> (Corpus, MinedStructure) {
    let papers = SyntheticPapers::generate(&PapersConfig::dblp(80, seed)).expect("synth corpus");
    let mut config = MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    config.threads = 2;
    let mined = LatentStructureMiner::mine(&papers.corpus, &config).expect("mine");
    (papers.corpus, mined)
}

/// A fresh, empty directory under the system temp dir.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lesm-serve-tests-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// `GET target`: `(status, body)`.
pub fn get(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let got = http_get(&addr.to_string(), target, TIMEOUT).expect("GET");
    (got.status, got.body)
}

/// `POST target` with a JSON body: `(status, body)`.
pub fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, Vec<u8>) {
    let got = http_post(&addr.to_string(), target, body, TIMEOUT).expect("POST");
    (got.status, got.body)
}
