//! Pass 2 — determinism taint (rule D4).
//!
//! The token-local D2/D3 rules see a nondeterministic *expression*; this
//! pass sees where its value can *go*. Taint seeds at every ambient
//! source (clock / env / RNG — the D3 set), every address-identity read
//! (`addr_of`, `as_ptr … as usize`), and every un-canonicalized
//! `HashMap`/`HashSet` iteration that does **not** carry an `allow(D2)`
//! pragma (a D2 waiver asserts order-independence, so it is not a
//! seed). From the seed's enclosing fn, taint propagates *caller-ward*
//! along the approximate call graph: if a helper reads the clock, every
//! fn that calls the helper is tainted. A violation fires when taint
//! reaches a sink:
//!
//! - a bare-`pub` library fn (the crate's promised-deterministic API), or
//! - any fn in a wire file — snapshot/section writers, cursor codecs,
//!   HTTP framing, response renderers (`crates/serve`, `crates/query`
//!   serve paths, and the `crates/core` renderers they share).
//!
//! The sole escape is `lesm-lint: allow(D4)`: at the seed line it
//! clears the source; at a call-site line or a callee's declaration
//! line it severs that propagation edge. Every waiver needs a reason.
//!
//! One violation is reported per *seed*, at the seed's line, naming the
//! nearest sink reached and the call chain — so a laundered clock shows
//! up where the clock is read, not at the innocent API boundary.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::pragma;
use crate::rules::{ambient_sites, address_of_sites, d2_sites, FileClass, RuleId, Violation};
use crate::source::Workspace;
use crate::symbols::{SymbolTable, Vis};
use crate::FileViolation;

/// Files whose every fn is a wire sink: bytes leaving these reach
/// snapshots, cursors, or HTTP responses, all of which must be
/// byte-identical across runs.
const WIRE_FILES: &[&str] = &[
    "crates/serve/src/snapshot.rs",
    "crates/serve/src/v2.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/front.rs",
    "crates/serve/src/shard.rs",
    "crates/serve/src/store.rs",
    "crates/serve/src/query.rs",
    // The response renderers every backend shares (`/search`,
    // `/topics/{id}`, `/hierarchy` bodies) and the view they read.
    "crates/core/src/search.rs",
    "crates/core/src/export.rs",
    "crates/core/src/view.rs",
    "crates/query/src/engine.rs",
    "crates/query/src/parts.rs",
];

/// Why a fn counts as a sink.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// Bare-`pub` library API.
    PubApi,
    /// Lives in a wire file.
    Wire,
}

fn sink_kind(ws: &Workspace, syms: &SymbolTable, f: usize) -> Option<Sink> {
    let sym = &syms.fns[f];
    if sym.in_test {
        return None;
    }
    if WIRE_FILES.contains(&ws.files[sym.file].rel.as_str()) {
        return Some(Sink::Wire);
    }
    if sym.vis == Vis::Pub {
        return Some(Sink::PubApi);
    }
    None
}

/// Runs the taint pass over a loaded workspace.
pub fn run(ws: &Workspace, syms: &SymbolTable, graph: &CallGraph) -> Vec<FileViolation> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.class != FileClass::Lib {
            continue;
        }
        let cx = file.cx();
        let mut seeds: Vec<(usize, &str)> = Vec::new();
        for t in ambient_sites(&cx) {
            seeds.push((t, "ambient clock/env/RNG read"));
        }
        for t in address_of_sites(&cx) {
            seeds.push((t, "address-dependent value"));
        }
        for t in d2_sites(&cx) {
            // An allow(D2) pragma asserts the iteration is
            // order-independent — then there is nothing to propagate.
            if !pragma::suppresses(&file.pragmas, RuleId::D2, cx.line(t)) {
                seeds.push((t, "un-canonicalized hash-order iteration"));
            }
        }
        seeds.sort_unstable();
        for (tok, desc) in seeds {
            let line = cx.line(tok);
            if pragma::suppresses(&file.pragmas, RuleId::D4, line) {
                continue;
            }
            let Some(seed_fn) = syms.enclosing_fn(fi, tok) else { continue };
            if syms.fns[seed_fn].in_test {
                continue;
            }
            if let Some((sink, chain)) = reach_sink(ws, syms, graph, seed_fn) {
                out.push(FileViolation {
                    path: file.rel.clone(),
                    violation: Violation {
                        rule: RuleId::D4,
                        line,
                        note: describe(ws, syms, desc, seed_fn, sink, &chain),
                        snippet: file.snippet(line),
                    },
                });
            }
        }
    }
    out
}

/// BFS caller-ward from `seed_fn`; returns the nearest sink and the fn
/// chain `[seed_fn, …, sink]`. Deterministic: adjacency is sorted and
/// the frontier is processed in insertion order.
fn reach_sink(
    ws: &Workspace,
    syms: &SymbolTable,
    graph: &CallGraph,
    seed_fn: usize,
) -> Option<(usize, Vec<usize>)> {
    if sink_kind(ws, syms, seed_fn).is_some() {
        return Some((seed_fn, vec![seed_fn]));
    }
    let mut prev: Vec<(usize, usize)> = Vec::new(); // (fn, predecessor)
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut frontier: Vec<usize> = vec![seed_fn];
    visited.insert(seed_fn);
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &f in &frontier {
            for e in &graph.callers[f] {
                let caller = e.other;
                if visited.contains(&caller) {
                    continue;
                }
                let cfile = &ws.files[syms.fns[caller].file];
                // allow(D4) at the call site or at the callee's
                // declaration severs this edge.
                if pragma::suppresses(&cfile.pragmas, RuleId::D4, e.line)
                    || pragma::suppresses(&cfile.pragmas, RuleId::D4, syms.fns[caller].line)
                {
                    continue;
                }
                visited.insert(caller);
                prev.push((caller, f));
                if sink_kind(ws, syms, caller).is_some() {
                    // Unwind the predecessor chain back to the seed.
                    let mut chain = vec![caller];
                    let mut cur = caller;
                    while cur != seed_fn {
                        match prev.iter().find(|&&(n, _)| n == cur) {
                            Some(&(_, p)) => {
                                chain.push(p);
                                cur = p;
                            }
                            None => break,
                        }
                    }
                    chain.reverse();
                    return Some((caller, chain));
                }
                next.push(caller);
            }
        }
        frontier = next;
    }
    None
}

fn describe(
    ws: &Workspace,
    syms: &SymbolTable,
    desc: &str,
    seed_fn: usize,
    sink: usize,
    chain: &[usize],
) -> String {
    let sym = &syms.fns[sink];
    let what = match sink_kind(ws, syms, sink) {
        Some(Sink::Wire) => "wire path",
        _ => "pub API",
    };
    let at = format!("({}:{})", ws.files[sym.file].rel, sym.line);
    let mut note = if sink == seed_fn {
        format!("{desc} inside {what} fn `{}` {at}", sym.name)
    } else {
        format!(
            "{desc} in `{}` flows to {what} fn `{}` {at}",
            syms.fns[seed_fn].name, sym.name
        )
    };
    // Name up to three intermediate hops of the laundering chain.
    let mid = &chain[1..chain.len().saturating_sub(1).max(1)];
    if !mid.is_empty() {
        let hops: Vec<&str> =
            mid.iter().take(3).map(|&f| syms.fns[f].name.as_str()).collect();
        let ell = if mid.len() > 3 { " → …" } else { "" };
        note.push_str(&format!(" via `{}`{}", hops.join("` → `"), ell));
    }
    note.push_str("; canonicalize the value or carry `lesm-lint: allow(D4)` with a reason");
    note
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::source::Workspace;

    fn taint(files: Vec<(&str, &str)>) -> Vec<FileViolation> {
        let ws = Workspace::from_sources(
            files
                .into_iter()
                .map(|(p, s)| (p.to_string(), s.as_bytes().to_vec()))
                .collect(),
        );
        let syms = SymbolTable::build(&ws);
        let graph = CallGraph::build(&ws, &syms);
        run(&ws, &syms, &graph)
    }

    #[test]
    fn clock_in_private_helper_reaching_pub_api_fires() {
        let v = taint(vec![(
            "crates/core/src/t.rs",
            "use std::time::Instant;\nfn stamp() -> Instant { Instant::now() }\npub fn api() -> u64 { stamp(); 0 }\n",
        )]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].violation.rule, RuleId::D4);
        assert_eq!(v[0].violation.line, 2);
        assert!(v[0].violation.note.contains("`api`"), "{}", v[0].violation.note);
    }

    #[test]
    fn private_dead_end_is_silent() {
        let v = taint(vec![(
            "crates/core/src/t.rs",
            "use std::time::Instant;\nfn stamp() -> Instant { Instant::now() }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_d4_at_seed_silences() {
        let v = taint(vec![(
            "crates/core/src/t.rs",
            "use std::time::Instant;\nfn stamp() -> Instant {\n    // lesm-lint: allow(D4) — never leaves the log line\n    Instant::now()\n}\npub fn api() -> u64 { stamp(); 0 }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wire_file_fn_is_a_sink_even_when_private() {
        let v = taint(vec![
            (
                "crates/core/src/t.rs",
                "pub(crate) fn jitter() -> u64 { rand::random() }\n",
            ),
            (
                "crates/serve/src/v2.rs",
                "fn frame() { crate::jitter(); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].violation.note.contains("wire path"), "{}", v[0].violation.note);
        assert_eq!(v[0].path, "crates/core/src/t.rs");
    }

    #[test]
    fn d2_pragma_means_not_a_seed() {
        let v = taint(vec![(
            "crates/core/src/t.rs",
            "use std::collections::HashMap;\npub fn total(m: &HashMap<u32, u64>) -> u64 {\n    let mut s = 0;\n    // lesm-lint: allow(D2) — u64 sum is order-independent\n    for (_, v) in m.iter() { s += v; }\n    s\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
