//! The full adversarial matrix (ISSUE 4 acceptance: >= 256 cases across
//! the mine → export → snapshot → load → serve/search chain, zero panics,
//! zero non-finite emitted floats, only typed errors).

use lesm_fuzz::{
    run_batch, run_case, run_cli_arg_cases, run_nonfinite_snapshot_cases, run_server_case,
    run_tsv_cases, CaseOutcome, NUM_CASES, NUM_CONFIGS,
};

#[test]
#[allow(clippy::assertions_on_constants)] // NUM_CASES is the documented acceptance floor
fn full_case_matrix_holds_the_contract() {
    assert!(NUM_CASES >= 256, "the matrix must cover at least 256 cases, has {NUM_CASES}");
    let (completed, typed, failures) = run_batch(0..NUM_CASES);
    assert!(
        failures.is_empty(),
        "{} of {NUM_CASES} adversarial cases violated the contract:\n{}",
        failures.len(),
        failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(completed + typed, NUM_CASES);
    // The matrix must actually exercise both outcomes: plenty of corpora
    // mine fine, and at least the auto-k-empty-range column errors.
    assert!(completed > 0, "no case completed — the generator is broken");
    assert!(typed > 0, "no case produced a typed error — the matrix lost its error column");
}

#[test]
fn snapshots_round_trip_nonfinite_bits() {
    let failures = run_nonfinite_snapshot_cases();
    assert!(
        failures.is_empty(),
        "non-finite snapshot round-trips failed:\n{}",
        failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn cli_parser_never_panics_on_hostile_args() {
    let failures = run_cli_arg_cases();
    assert!(
        failures.is_empty(),
        "CLI parsing panicked:\n{}",
        failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn tsv_loader_never_panics_on_hostile_input() {
    let failures = run_tsv_cases();
    assert!(
        failures.is_empty(),
        "TSV loading panicked:\n{}",
        failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

/// One server case per corpus shape (the config column is fixed to the
/// default mutation): mine → snapshot → serve → hostile requests.
#[test]
fn served_snapshots_answer_hostile_requests() {
    let mut served = 0;
    for shape in 0..lesm_fuzz::NUM_SHAPES {
        let id = shape * NUM_CONFIGS; // config 0 = default
        match run_server_case(id) {
            Ok(responses) => {
                if responses.is_empty() {
                    continue; // typed mine error — nothing to serve
                }
                served += 1;
                for resp in &responses {
                    assert!((200..600).contains(&resp.status), "bad status: {resp:?}");
                    assert!(!resp.content_type.is_empty(), "no content type: {resp:?}");
                }
            }
            Err(f) => panic!("server case failed: {f}"),
        }
    }
    assert!(served > 0, "no shape produced a servable snapshot");
}

/// Valid, well-clustered input must still complete end-to-end (the
/// harness is not allowed to pass by rejecting everything).
#[test]
fn healthy_input_completes() {
    // shape 14 (two-communities) with config 0 (default).
    let id = 14 * NUM_CONFIGS;
    match run_case(id) {
        Ok(CaseOutcome::Completed) => {}
        other => panic!("two-communities/default should complete, got {other:?}"),
    }
}

#[test]
fn query_engine_never_panics_on_hostile_programs() {
    let failures = lesm_fuzz::run_query_cases();
    assert!(
        failures.is_empty(),
        "hostile query programs violated the contract:\n{}",
        failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

/// Hostile delta TSVs through the full `update → snapshot → serve` chain
/// (incremental mining, DESIGN.md §15): no panics, typed errors only, and
/// any produced artifact loads with its lineage intact and serves.
#[test]
fn incremental_update_chain_holds_the_contract() {
    let failures = lesm_fuzz::run_update_cases();
    assert!(
        failures.is_empty(),
        "hostile deltas violated the update contract:\n{}",
        failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn advisors_path_never_panics() {
    let failures = lesm_fuzz::run_advisors_cases();
    assert!(
        failures.is_empty(),
        "advisors mining panicked:\n{}",
        failures.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}
