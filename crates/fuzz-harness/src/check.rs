//! Invariant checks shared by the harness test suite and the smoke binary.

use lesm_core::export::{hierarchy_to_json, is_balanced_json};
use lesm_core::pipeline::MinedStructure;
use lesm_corpus::Corpus;

/// Walks every float the pipeline emits and reports the first non-finite
/// one as `Err(site)`. "Emitted" means reachable through the public
/// structure: hierarchy parameters, phrase/entity scores, topical
/// frequency tables, and document-topic attributions.
pub fn check_finite(mined: &MinedStructure) -> Result<(), String> {
    for (t, topic) in mined.hierarchy.topics.iter().enumerate() {
        if !topic.rho.is_finite() {
            return Err(format!("hierarchy.topics[{t}].rho = {}", topic.rho));
        }
        for (x, row) in topic.phi.iter().enumerate() {
            if let Some(v) = row.iter().find(|v| !v.is_finite()) {
                return Err(format!("hierarchy.topics[{t}].phi[{x}] contains {v}"));
            }
        }
    }
    for (t, fit) in mined.hierarchy.fits.iter().enumerate() {
        let Some(fit) = fit else { continue };
        if let Some(v) = fit.rho.iter().find(|v| !v.is_finite()) {
            return Err(format!("fits[{t}].rho contains {v}"));
        }
        if let Some(v) = fit.alpha.iter().find(|v| !v.is_finite()) {
            return Err(format!("fits[{t}].alpha contains {v}"));
        }
        for (x, per_z) in fit.phi.iter().enumerate() {
            for row in per_z {
                if let Some(v) = row.iter().find(|v| !v.is_finite()) {
                    return Err(format!("fits[{t}].phi[{x}] contains {v}"));
                }
            }
        }
    }
    for (t, list) in mined.topic_phrases.iter().enumerate() {
        for p in list {
            if !p.score.is_finite() || !p.topic_freq.is_finite() {
                return Err(format!(
                    "topic_phrases[{t}] has score {} / topic_freq {}",
                    p.score, p.topic_freq
                ));
            }
        }
    }
    for (t, per_type) in mined.topic_entities.iter().enumerate() {
        for list in per_type {
            if let Some((id, s)) = list.iter().find(|(_, s)| !s.is_finite()) {
                return Err(format!("topic_entities[{t}] entity {id} score {s}"));
            }
        }
    }
    for (t, table) in mined.phrase_topic_freq.iter().enumerate() {
        if let Some((_, f)) = table.iter().find(|(_, f)| !f.is_finite()) {
            return Err(format!("phrase_topic_freq[{t}] contains {f}"));
        }
    }
    for (d, row) in mined.doc_topic.iter().enumerate() {
        if let Some(v) = row.iter().find(|v| !v.is_finite()) {
            return Err(format!("doc_topic[{d}] contains {v}"));
        }
    }
    Ok(())
}

/// Exports the structure and checks the JSON is structurally balanced.
pub fn check_export(corpus: &Corpus, mined: &MinedStructure) -> Result<String, String> {
    let json = hierarchy_to_json(&mined.view(corpus), 10);
    if !is_balanced_json(&json) {
        return Err("hierarchy_to_json produced unbalanced JSON".into());
    }
    Ok(json)
}

/// Round-trips the structure through a v2 artifact and checks
/// `save(decode(load(save(x)))) == save(x)` byte-for-byte, plus that the
/// decoded structure and the mapped artifact both export `json`.
pub fn check_snapshot_roundtrip(
    corpus: &Corpus,
    mined: &MinedStructure,
    json: &str,
) -> Result<(), String> {
    let (bytes, mapped) = snapshot_roundtrip(corpus, mined)?;
    let snap = mapped.to_snapshot().map_err(|e| format!("to_snapshot: {e}"))?;
    let again = lesm_serve::save_snapshot_v2(&snap.corpus, &snap.mined)
        .map_err(|e| format!("save_snapshot_v2 (re-save): {e}"))?;
    if again != bytes {
        return Err(format!(
            "snapshot re-save differs: {} vs {} bytes",
            again.len(),
            bytes.len()
        ));
    }
    if check_export(&snap.corpus, &snap.mined)? != json {
        return Err("decoded snapshot exports different JSON".into());
    }
    if hierarchy_to_json(&mapped, 10) != json {
        return Err("mapped snapshot exports different JSON".into());
    }
    Ok(())
}

/// Saves `corpus` + `mined` as a v2 artifact and maps it back.
pub fn snapshot_roundtrip(
    corpus: &Corpus,
    mined: &MinedStructure,
) -> Result<(Vec<u8>, lesm_serve::MappedSnapshot), String> {
    let bytes = lesm_serve::save_snapshot_v2(corpus, mined)
        .map_err(|e| format!("save_snapshot_v2: {e}"))?;
    let mapped = lesm_serve::MappedSnapshot::from_bytes(&bytes)
        .map_err(|e| format!("MappedSnapshot::from_bytes: {e}"))?;
    Ok((bytes, mapped))
}
