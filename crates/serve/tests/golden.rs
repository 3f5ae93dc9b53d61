//! Byte-identity golden for the served model.
//!
//! `golden/model.lesm` is the v2 artifact of a small EM-free model
//! (`lesm_core::model_from_truth` over a 200-document synthetic corpus),
//! and `golden/transcript.txt` records every serving endpoint's answer
//! for it: `/search` (multi-word, unknown-word, empty and missing
//! queries, plus the shard-internal variant), every `/topics/{id}` and
//! one out of range, `/hierarchy`, and one `POST /query` per query-engine
//! family. Both files were produced once and are never regenerated by
//! the suite: a refactor of the snapshot writer or of any renderer must
//! reproduce them byte for byte.
//!
//! `model.lesm` was regenerated exactly once since, by the change that
//! added the `doc-facts` section (each document's entity links, year and
//! leaf topic, moved out of the cold section's per-document records).
//! Sections 1–9 kept their bytes; the transcript was not regenerated and
//! still passes.
//!
//! Transcript format, one exchange after another:
//!
//! ```text
//! >>> {method} {target} {request body length}\n{request body}\n
//! <<< {status} {response body length} {content type}\n{response body}\n
//! ```

use lesm_core::MinedStructure;
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::Corpus;
use lesm_serve::client::{http_get, http_post};
use lesm_serve::server::{Server, ServerConfig};
use lesm_serve::{load_model_file, save_snapshot_v2};
use std::time::Duration;

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/model.lesm");
const TRANSCRIPT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/transcript.txt");

fn golden_model() -> (Corpus, MinedStructure) {
    let papers = SyntheticPapers::generate(&PapersConfig::dblp(200, 14)).expect("synth corpus");
    let mined = lesm_core::model_from_truth(&papers);
    (papers.corpus, mined)
}

/// One recorded request and the response it must get.
#[derive(Debug, PartialEq)]
struct Exchange {
    method: String,
    target: String,
    body: String,
    status: u16,
    content_type: String,
    response: Vec<u8>,
}

/// Splits off one `\n`-terminated header line and the `len`-byte payload
/// (plus its `\n` terminator) that follows it.
fn take_record<'a>(rest: &mut &'a [u8], marker: &str) -> (Vec<&'a str>, &'a [u8]) {
    let eol = rest.iter().position(|&b| b == b'\n').expect("header line");
    let line = std::str::from_utf8(&rest[..eol]).expect("utf-8 header");
    let line = line.strip_prefix(marker).unwrap_or_else(|| panic!("expected {marker:?}: {line}"));
    let fields: Vec<&str> = line.splitn(3, ' ').collect();
    let len: usize = fields[if marker == ">>> " { 2 } else { 1 }].parse().expect("length");
    let payload = &rest[eol + 1..eol + 1 + len];
    assert_eq!(rest[eol + 1 + len], b'\n', "payload terminator after {line}");
    *rest = &rest[eol + 2 + len..];
    (fields, payload)
}

fn parse_transcript(mut rest: &[u8]) -> Vec<Exchange> {
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (req, body) = take_record(&mut rest, ">>> ");
        let (resp, response) = take_record(&mut rest, "<<< ");
        out.push(Exchange {
            method: req[0].to_string(),
            target: req[1].to_string(),
            body: String::from_utf8(body.to_vec()).expect("utf-8 request body"),
            status: resp[0].parse().expect("status"),
            content_type: resp[2].to_string(),
            response: response.to_vec(),
        });
    }
    out
}

#[test]
fn golden_artifact_is_rebuilt_byte_for_byte() {
    let (corpus, mined) = golden_model();
    let bytes = save_snapshot_v2(&corpus, &mined).expect("save");
    let golden = std::fs::read(ARTIFACT).expect("committed golden artifact");
    assert!(bytes == golden, "v2 artifact drifted from the committed golden");
}

#[test]
fn golden_transcript_is_served_byte_for_byte() {
    let exchanges = parse_transcript(&std::fs::read(TRANSCRIPT).expect("committed transcript"));
    assert!(exchanges.len() > 30, "transcript too short: {}", exchanges.len());
    let model = load_model_file(ARTIFACT).expect("load golden artifact");
    let handle = Server::start_model(model, ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(10);
    for ex in &exchanges {
        let got = match ex.method.as_str() {
            "GET" => http_get(&addr, &ex.target, timeout),
            _ => http_post(&addr, &ex.target, &ex.body, timeout),
        }
        .expect("request");
        assert_eq!(
            (got.status, got.content_type.as_str()),
            (ex.status, ex.content_type.as_str()),
            "{} {}",
            ex.method,
            ex.target
        );
        assert!(
            got.body == ex.response,
            "{} {} {}: body drifted\n got: {}\nwant: {}",
            ex.method,
            ex.target,
            ex.body,
            got.text(),
            String::from_utf8_lossy(&ex.response)
        );
    }
    handle.shutdown();
}
