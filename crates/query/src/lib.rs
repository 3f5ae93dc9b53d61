//! `lesm-query`: a composable typed query/traversal engine over the mined
//! THIN + topic hierarchy (ROADMAP item 3; the "heterogeneous web of
//! topics" exploration scenario).
//!
//! A query is a deterministic pipeline of steps — `filter`, `traverse`,
//! `path`, `rank` — parsed from a compact JSON representation by a
//! hand-rolled, dependency-free parser ([`json`]), compiled to a typed
//! program ([`program`]), and executed ([`engine`]) against a derived
//! index ([`index`]) built from a canonical model extract ([`parts`]).
//!
//! The whole stack honors the DESIGN.md §11 determinism contract
//! end-to-end: identical programs yield byte-identical responses on the
//! owned model, the v2 zero-copy snapshot, and a sharded front tier, and
//! cursors encode only a resume position — never wall-clock or
//! randomness. Each cursor is stamped with a content hash of both the
//! program and the indexed model, so a cursor outlives restarts and
//! rebuilds of the same model but is a typed [`QueryError::BadCursor`]
//! after a hot-swap replaces the model underneath a page stream. See
//! DESIGN.md §14 for the model and the argument.

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod engine;
pub mod index;
pub mod json;
pub mod parts;
pub mod program;

pub use engine::{execute, run_query, Node, Rendered};
pub use index::{AdvisorEdges, QueryIndex};
pub use json::{parse_json, Json, JsonError};
pub use parts::{DocRecord, IndexParts, TopicMeta};
pub use program::{parse_request, QueryRequest, Step};

/// Errors surfaced by parsing or executing a query. Everything a hostile
/// request can trigger is represented here; the engine never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The request body is not valid JSON.
    Json(JsonError),
    /// The JSON does not describe a valid program.
    Program(String),
    /// An entity type name that is not in the catalog.
    UnknownType(String),
    /// A topic index or path that is not in the hierarchy.
    UnknownTopic(String),
    /// A cursor that is malformed, from another program, or out of range.
    BadCursor(String),
    /// A bounded search exceeded its budget.
    TooLarge(String),
    /// The model is too large to index: an id range does not fit the
    /// engine's `u32` node ids. Raised at [`QueryIndex::build`] time so
    /// traversal never silently truncates ids.
    IndexOverflow(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Json(e) => write!(f, "invalid JSON: {e}"),
            QueryError::Program(m) => write!(f, "invalid program: {m}"),
            QueryError::UnknownType(t) => write!(f, "unknown entity type {t:?}"),
            QueryError::UnknownTopic(t) => write!(f, "unknown topic {t:?}"),
            QueryError::BadCursor(m) => write!(f, "bad cursor: {m}"),
            QueryError::TooLarge(m) => write!(f, "query too large: {m}"),
            QueryError::IndexOverflow(m) => write!(f, "model too large to index: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl QueryError {
    /// Whether the error blames the request (HTTP 400) rather than the
    /// server's own state (HTTP 500).
    pub fn is_request_error(&self) -> bool {
        !matches!(self, QueryError::IndexOverflow(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parts::{DocRecord, TopicMeta};
    use proptest::prelude::*;

    /// A small but structurally rich fixture: 3 topics, 2 entity types,
    /// 6 docs with years, enough for every edge kind to fire.
    fn fixture() -> QueryIndex {
        QueryIndex::build(fixture_parts()).expect("build fixture index")
    }

    fn run(body: &str) -> Result<String, QueryError> {
        run_query(&fixture(), body)
    }

    #[test]
    fn filter_by_name_and_years() {
        let out = run(
            r#"{"steps": [{"filter": {"type": "author", "years": {"min": 2006}}}]}"#,
        )
        .unwrap();
        // bob, carol and dan have post-2006 docs; alice does not.
        assert!(out.contains("\"name\":\"bob\"") && out.contains("\"name\":\"dan\""));
        assert!(!out.contains("alice"));
    }

    #[test]
    fn traverse_coauthor_and_topics() {
        let out = run(
            r#"{"steps": [
                {"filter": {"type": "author", "name": "alice"}},
                {"traverse": {"edge": "coauthor"}}
            ]}"#,
        )
        .unwrap();
        assert!(out.contains("\"name\":\"bob\""));
        assert!(!out.contains("\"name\":\"dan\""));
        let topics = run(
            r#"{"steps": [
                {"filter": {"type": "author", "name": "dan"}},
                {"traverse": {"edge": "topics"}}
            ]}"#,
        )
        .unwrap();
        assert!(topics.contains("\"path\":\"o/2\""));
        assert!(!topics.contains("\"path\":\"o/1\""));
    }

    #[test]
    fn topic_membership_uses_subtrees() {
        let out = run(
            r#"{"steps": [{"filter": {"type": "doc", "topic": "o/2"}}]}"#,
        )
        .unwrap();
        assert_eq!(out.matches("\"kind\":\"doc\"").count(), 2);
        let all = run(r#"{"steps": [{"filter": {"type": "doc", "topic": 0}}]}"#).unwrap();
        assert_eq!(all.matches("\"kind\":\"doc\"").count(), 6);
    }

    #[test]
    fn path_exists_and_enumerate() {
        let exists = run(
            r#"{"steps": [
                {"filter": {"type": "author", "name": "alice"}},
                {"path": {"to": {"type": "author", "name": "dan"}, "edges": ["coauthor"], "max_depth": 3}}
            ]}"#,
        )
        .unwrap();
        // alice—bob—carol… but dan only shares docs with nobody (doc 5 has
        // only dan), so no path exists.
        assert!(exists.contains("\"total\":0"), "{exists}");
        let paths = run(
            r#"{"steps": [
                {"filter": {"type": "author", "name": "alice"}},
                {"path": {"to": {"type": "author", "name": "carol"}, "edges": ["coauthor"], "max_depth": 2, "mode": "paths"}}
            ]}"#,
        )
        .unwrap();
        assert!(paths.contains("\"kind\":\"path\""));
        assert!(paths.contains("\"name\":\"carol\""));
    }

    #[test]
    fn rank_orders_are_pinned() {
        let out = run(
            r#"{"steps": [
                {"filter": {"type": "author"}},
                {"rank": {"by": "pop", "topic": "o/1", "limit": 2}}
            ]}"#,
        )
        .unwrap();
        // In o/1: alice 3 occurrences, bob 4, carol 1 → bob first.
        let bob = out.find("bob").unwrap();
        let alice = out.find("alice").unwrap();
        assert!(bob < alice, "{out}");
        assert!(out.contains("\"score\":"));
    }

    #[test]
    fn identical_queries_are_byte_identical() {
        let body = r#"{"steps": [
            {"filter": {"type": "author"}},
            {"traverse": {"edge": "coauthor"}},
            {"rank": {"by": "combined", "topic": "o/1"}}
        ]}"#;
        assert_eq!(run(body).unwrap(), run(body).unwrap());
    }

    #[test]
    fn hostile_requests_yield_typed_errors() {
        for bad in [
            "",
            "{",
            r#"{"steps": [{"filter": {"type": "spaceship"}}]}"#,
            r#"{"steps": [{"filter": {"type": "author", "topic": "o/9"}}]}"#,
            r#"{"steps": [{"filter": {"type": "author"}}], "cursor": "nope"}"#,
            r#"{"steps": [{"filter": {"type": "author"}}], "cursor": "q1.0000000000000000.0.10"}"#,
        ] {
            let err = run(bad).unwrap_err();
            assert!(err.is_request_error(), "{bad} → {err}");
        }
    }

    fn pages(body_steps: &str, page: usize) -> (String, Vec<String>) {
        let idx = fixture();
        let unpaged = run_query(&idx, &format!(r#"{{"steps": {body_steps}}}"#)).unwrap();
        let mut out = Vec::new();
        let mut resp =
            run_query(&idx, &format!(r#"{{"steps": {body_steps}, "page": {page}}}"#)).unwrap();
        loop {
            out.push(resp.clone());
            let Some(cursor) = extract_cursor(&resp) else { break };
            resp = run_query(
                &idx,
                &format!(r#"{{"steps": {body_steps}, "cursor": "{cursor}"}}"#),
            )
            .unwrap();
        }
        (unpaged, out)
    }

    fn extract_cursor(resp: &str) -> Option<String> {
        let tail = resp.split("\"next_cursor\":").nth(1)?;
        let tail = tail.strip_prefix('"')?;
        Some(tail.split('"').next()?.to_string())
    }

    fn extract_items(resp: &str) -> String {
        let inner = resp.split("\"items\":[").nth(1).unwrap();
        let end = inner.rfind("],\"next_cursor\"").unwrap();
        inner[..end].to_string()
    }

    const PAGED_STEPS: &str = r#"[{"filter": {"type": "author"}}, {"traverse": {"edge": "coauthor"}}]"#;

    proptest! {
        /// Satellite: any page size concatenates to the same byte stream
        /// as one unpaginated query.
        #[test]
        fn pagination_concatenates_to_unpaged(page in 1usize..8) {
            let (unpaged, paged) = pages(PAGED_STEPS, page);
            let full = extract_items(&unpaged);
            let joined = paged
                .iter()
                .map(|p| extract_items(p))
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(",");
            prop_assert_eq!(full, joined);
        }
    }

    #[test]
    fn cursor_replay_is_byte_identical() {
        let idx = fixture();
        let first = run_query(
            &idx,
            &format!(r#"{{"steps": {PAGED_STEPS}, "page": 2}}"#),
        )
        .unwrap();
        let cursor = extract_cursor(&first).unwrap();
        let body = format!(r#"{{"steps": {PAGED_STEPS}, "cursor": "{cursor}"}}"#);
        assert_eq!(run_query(&idx, &body).unwrap(), run_query(&idx, &body).unwrap());
    }

    #[test]
    fn cursor_is_position_only_and_survives_rebuilds() {
        // A fresh index (a "restart") accepts and answers the cursor
        // identically: nothing in it is tied to process state.
        let first = run_query(
            &fixture(),
            &format!(r#"{{"steps": {PAGED_STEPS}, "page": 2}}"#),
        )
        .unwrap();
        let cursor = extract_cursor(&first).unwrap();
        let body = format!(r#"{{"steps": {PAGED_STEPS}, "cursor": "{cursor}"}}"#);
        assert_eq!(
            run_query(&fixture(), &body).unwrap(),
            run_query(&fixture(), &body).unwrap()
        );
        assert!(!cursor.contains(':'), "opaque dotted format: {cursor}");
    }

    #[test]
    fn cursor_is_rejected_by_a_different_model_version() {
        // Mint a cursor against the fixture, then "hot-swap" to a model
        // that differs by one appended doc: resuming the same program's
        // cursor must be a typed BadCursor — never a silent resume at the
        // old offset over a different result list.
        let first = run_query(
            &fixture(),
            &format!(r#"{{"steps": {PAGED_STEPS}, "page": 2}}"#),
        )
        .unwrap();
        let cursor = extract_cursor(&first).unwrap();
        let mut parts = fixture_parts();
        parts.docs.push(DocRecord {
            gid: 99,
            year: None,
            leaf: 1,
            entities: vec![(0, 0), (0, 1)],
        });
        let swapped = QueryIndex::build(parts).unwrap();
        let body = format!(r#"{{"steps": {PAGED_STEPS}, "cursor": "{cursor}"}}"#);
        match run_query(&swapped, &body) {
            Err(QueryError::BadCursor(m)) => {
                assert!(m.contains("model version"), "unexpected message: {m}");
            }
            other => panic!("stale cursor must be a typed BadCursor, got {other:?}"),
        }
    }

    fn fixture_parts() -> IndexParts {
        IndexParts {
            type_names: vec!["author".into(), "venue".into()],
            entity_names: vec![
                vec!["alice".into(), "bob".into(), "carol".into(), "dan".into()],
                vec!["vldb".into(), "sigmod".into()],
            ],
            topics: vec![
                TopicMeta { parent: None, children: vec![1, 2], path: "o".into() },
                TopicMeta { parent: Some(0), children: vec![], path: "o/1".into() },
                TopicMeta { parent: Some(0), children: vec![], path: "o/2".into() },
            ],
            docs: vec![
                DocRecord { gid: 0, year: Some(2000), leaf: 1, entities: vec![(0, 0), (0, 1), (1, 0)] },
                DocRecord { gid: 1, year: Some(2001), leaf: 1, entities: vec![(0, 0), (0, 1), (1, 0)] },
                DocRecord { gid: 2, year: Some(2002), leaf: 1, entities: vec![(0, 0), (0, 1), (1, 1)] },
                DocRecord { gid: 3, year: Some(2006), leaf: 1, entities: vec![(0, 1), (0, 2), (1, 0)] },
                DocRecord { gid: 4, year: Some(2007), leaf: 2, entities: vec![(0, 1), (0, 2), (1, 1)] },
                DocRecord { gid: 5, year: Some(2008), leaf: 2, entities: vec![(0, 3), (1, 1)] },
            ],
        }
    }
}
