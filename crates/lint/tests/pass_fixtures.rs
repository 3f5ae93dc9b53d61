//! Fire/silent fixture pairs for the workspace passes (DESIGN.md §16).
//!
//! Every rule the multi-pass auditor ships gets at least one fixture that
//! must fire and one that must stay silent, driven through the public
//! `Workspace::from_sources` + `run_pass` API — the same machinery the
//! `lesm-lint` binary uses — so the gate tested here is the gate shipped.

use lesm_lint::{parse_passes, render_json, run_pass, FileViolation, Pass, RuleId, Workspace};

/// Builds an in-memory workspace from `(path, source)` pairs.
fn ws(sources: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        sources.iter().map(|(p, s)| (p.to_string(), s.as_bytes().to_vec())).collect(),
    )
}

fn rules(violations: &[FileViolation]) -> Vec<RuleId> {
    violations.iter().map(|v| v.violation.rule).collect()
}

// ---------------------------------------------------------------- taint (D4)

#[test]
fn taint_follows_a_laundered_clock_two_hops_to_a_pub_sink() {
    // The ambient read sits two private hops below the pub surface; only
    // the call graph can see that `expose_value` serves it.
    let src = "\
fn clock_value() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
fn relay_value() -> u64 {
    clock_value()
}
pub fn expose_value() -> u64 {
    relay_value()
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    let out = run_pass(&w, Pass::Taint);
    assert_eq!(rules(&out), vec![RuleId::D4], "{out:?}");
    // The violation lands at the seed, not the sink, and names the sink.
    assert_eq!(out[0].violation.line, 2, "{out:?}");
    assert!(out[0].violation.note.contains("expose_value"), "{}", out[0].violation.note);
}

#[test]
fn taint_is_silent_when_the_seed_never_reaches_a_sink() {
    // Same seed, but every caller is private and nothing in a wire file
    // touches it: observable output cannot depend on it.
    let src = "\
fn clock_value() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
fn relay_value() -> u64 {
    clock_value()
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    assert!(run_pass(&w, Pass::Taint).is_empty());
}

#[test]
fn taint_pragma_at_the_seed_silences_the_chain() {
    let src = "\
pub fn expose_value() -> u64 {
    // lesm-lint: allow(D4) — latency metric, never serialized into a response
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    assert!(run_pass(&w, Pass::Taint).is_empty());
}

#[test]
fn taint_treats_private_fns_in_wire_files_as_sinks() {
    // In a serialization file even a private fn is presumed to feed bytes.
    let src = "\
fn stamp() -> u64 {
    let t = SystemTime::now();
    0
}
";
    let w = ws(&[("crates/serve/src/v2.rs", src)]);
    let out = run_pass(&w, Pass::Taint);
    assert_eq!(rules(&out), vec![RuleId::D4], "{out:?}");
}

#[test]
fn taint_treats_the_shared_core_renderers_as_wire_files() {
    // Response bodies are rendered in lesm-core for every backend, so a
    // clock read there reaches the wire even from a private helper...
    let src = "\
fn stamp() -> u64 {
    let t = SystemTime::now();
    0
}
";
    for path in ["crates/core/src/search.rs", "crates/core/src/export.rs", "crates/core/src/view.rs"] {
        let out = run_pass(&ws(&[(path, src)]), Pass::Taint);
        assert_eq!(rules(&out), vec![RuleId::D4], "{path}: {out:?}");
    }
    // ...while the same private helper in a non-rendering core module
    // reaches no sink.
    let out = run_pass(&ws(&[("crates/core/src/pipeline.rs", src)]), Pass::Taint);
    assert!(out.is_empty(), "{out:?}");
}

// ------------------------------------------------------------- unsafe (U1-U3)

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = "\
pub fn peek(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    let out = run_pass(&w, Pass::Unsafe);
    assert_eq!(rules(&out), vec![RuleId::U1], "{out:?}");
}

#[test]
fn unsafe_with_nearby_safety_comment_is_silent() {
    let src = "\
pub fn peek(v: &[u8]) -> u8 {
    assert!(!v.is_empty());
    // SAFETY: the assert above guarantees index 0 is in bounds.
    unsafe { *v.get_unchecked(0) }
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    assert!(run_pass(&w, Pass::Unsafe).is_empty());
}

#[test]
fn raw_primitive_outside_the_allowlist_fires() {
    let src = "\
pub fn view(p: *const u8, n: usize) -> u32 {
    // SAFETY: caller contract.
    unsafe { std::slice::from_raw_parts(p, n).len() as u32 }
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    let out = run_pass(&w, Pass::Unsafe);
    assert_eq!(rules(&out), vec![RuleId::U2], "{out:?}");
}

#[test]
fn raw_primitive_in_an_allowlisted_file_is_silent() {
    let src = "\
pub fn view(p: *const u8, n: usize) -> usize {
    // SAFETY: caller contract.
    unsafe { std::slice::from_raw_parts(p, n).len() }
}
";
    let w = ws(&[("crates/serve/src/mapping.rs", src)]);
    assert!(run_pass(&w, Pass::Unsafe).is_empty());
}

#[test]
fn pub_target_feature_fn_and_ungated_caller_both_fire() {
    let src = "\
// SAFETY: callers must prove avx2 via is_x86_feature_detected.
#[target_feature(enable = \"avx2\")]
pub unsafe fn dot_avx2(a: &[f32]) -> f32 {
    0.0
}
pub fn dot(a: &[f32]) -> f32 {
    // SAFETY: wrong — nothing checked the CPU feature.
    unsafe { dot_avx2(a) }
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    let mut got = rules(&run_pass(&w, Pass::Unsafe));
    got.sort();
    assert_eq!(got, vec![RuleId::U3, RuleId::U3], "pub decl + ungated call");
}

#[test]
fn gated_private_target_feature_fn_is_silent() {
    let src = "\
// SAFETY: callers must prove avx2 via is_x86_feature_detected.
#[target_feature(enable = \"avx2\")]
unsafe fn dot_avx2(a: &[f32]) -> f32 {
    0.0
}
pub fn dot(a: &[f32]) -> f32 {
    if is_x86_feature_detected!(\"avx2\") {
        // SAFETY: the runtime check above proves avx2 is available.
        return unsafe { dot_avx2(a) };
    }
    0.0
}
";
    let w = ws(&[("crates/foo/src/lib.rs", src)]);
    assert!(run_pass(&w, Pass::Unsafe).is_empty());
}

// --------------------------------------------------------------- casts (W1)

#[test]
fn narrowing_cast_in_a_wire_crate_fires() {
    let src = "\
pub fn header(n: usize) -> u32 {
    n as u32
}
";
    let w = ws(&[("crates/serve/src/wire.rs", src)]);
    let out = run_pass(&w, Pass::Casts);
    assert_eq!(rules(&out), vec![RuleId::W1], "{out:?}");
}

#[test]
fn in_range_literal_narrowing_is_silent() {
    let src = "\
pub fn version() -> u32 {
    let tag = 0x4c45_u32;
    7 as u32 + 255 as u32 + tag
}
";
    let w = ws(&[("crates/serve/src/wire.rs", src)]);
    assert!(run_pass(&w, Pass::Casts).is_empty());
}

#[test]
fn float_to_int_cast_in_a_wire_crate_fires() {
    let src = "\
pub fn quantize(score: f64) -> u64 {
    score.floor() as u64
}
pub fn half() -> u64 {
    0.5 as u64
}
";
    let w = ws(&[("crates/query/src/engine.rs", src)]);
    let out = run_pass(&w, Pass::Casts);
    assert_eq!(rules(&out), vec![RuleId::W1, RuleId::W1], "{out:?}");
}

#[test]
fn widening_and_non_wire_crates_are_silent() {
    let widen = "\
pub fn widen(n: u32) -> u64 {
    n as u64
}
";
    // The identical narrowing that fires in serve stays legal elsewhere:
    // W1 polices wire encoding paths, not arithmetic crates.
    let narrow = "\
pub fn shrink(n: usize) -> u32 {
    n as u32
}
use std::collections::BTreeMap as Map;
";
    let w = ws(&[("crates/serve/src/wire.rs", widen), ("crates/core/src/lib.rs", narrow)]);
    assert!(run_pass(&w, Pass::Casts).is_empty());
}

#[test]
fn cast_pragma_with_reason_silences_w1() {
    let src = "\
pub fn header(n: usize) -> u32 {
    // lesm-lint: allow(W1) — n is a section count proven < 32 by the builder
    n as u32
}
";
    let w = ws(&[("crates/serve/src/wire.rs", src)]);
    assert!(run_pass(&w, Pass::Casts).is_empty());
}

// ------------------------------------------------------- CLI plumbing

#[test]
fn parse_passes_accepts_all_and_dedups_into_canonical_order() {
    assert_eq!(parse_passes("all").expect("all"), Pass::ALL.to_vec());
    assert_eq!(
        parse_passes("casts,taint,casts").expect("list"),
        vec![Pass::Taint, Pass::Casts],
        "canonical order, duplicates collapsed"
    );
    assert!(parse_passes("tokens,bogus").is_err());
    assert!(parse_passes("").is_err());
}

#[test]
fn json_rendering_is_stable_and_escaped() {
    let src = "\
pub fn header(n: usize) -> u32 {
    n as u32
}
";
    let w = ws(&[("crates/serve/src/wire.rs", src)]);
    let out = run_pass(&w, Pass::Casts);
    let json = render_json(&out);
    assert!(json.starts_with("[\n  {\"file\":\"crates/serve/src/wire.rs\",\"line\":2,\"rule\":\"W1\","), "{json}");
    assert!(json.ends_with("}\n]\n"), "{json}");
    // Field order is part of the contract.
    let body = json.lines().nth(1).expect("one object");
    let fields: Vec<usize> = ["\"file\":", "\"line\":", "\"rule\":", "\"note\":", "\"snippet\":"]
        .iter()
        .map(|f| body.find(f).expect(f))
        .collect();
    assert!(fields.windows(2).all(|p| p[0] < p[1]), "field order drifted: {body}");
    assert_eq!(render_json(&[]), "[]\n");
}
