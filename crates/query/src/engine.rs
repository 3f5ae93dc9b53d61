//! The deterministic query executor.
//!
//! Execution threads a sorted, deduplicated node set through the program's
//! steps; every ordering is pinned (node total order, `f64::total_cmp`
//! with id tie-breaks for scores), every search walks sorted adjacency,
//! and bounded searches fail with a typed error rather than truncate
//! silently — so identical programs yield byte-identical responses on any
//! backend (DESIGN.md §11, §14).
//!
//! Cursors encode only `(program hash, resume offset, page size)` — never
//! wall-clock, randomness, or server identity — so a page stream can be
//! resumed on any replica, after any restart.

use crate::index::{id32, year_in, QueryIndex};
use crate::program::{
    canonical_steps, parse_request, Edge, FilterSpec, KindSel, PathMode, RankBy, Step, MAX_PAGE,
};
use crate::QueryError;
use lesm_core::export::{json_number, json_string, push_json_string};
use lesm_core::fnv1a64;
use lesm_roles::type_b::{erank_pop, erank_pop_pur};
use std::collections::BTreeSet;
use std::fmt::Write as _;

#[cfg(test)]
mod differential;

/// Total expansion budget for one `path` step; exceeding it is a typed
/// error (a silently truncated search would not be deterministic content,
/// and an unbounded one is a denial-of-service lever).
pub const PATH_EXPANSION_CAP: usize = 200_000;

/// A node in the queryable graph, with a pinned total order
/// (topics < entities < docs; then by type and id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Node {
    Topic(u32),
    Entity { etype: u32, id: u32 },
    Doc(u32),
}

/// The shape of a finished pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Rendered {
    Plain(Vec<Node>),
    Ranked(Vec<(Node, f64)>),
    Paths(Vec<Vec<Node>>),
}

/// Runs a full request body against the index, returning the JSON
/// response. The single entry point used by serve, the CLI, and benches.
pub fn run_query(index: &QueryIndex, body: &str) -> Result<String, QueryError> {
    let req = parse_request(body)?;
    // The cursor stamp binds both the program AND the model content: a
    // cursor from another program or from a hot-swapped-out model version
    // is a typed BadCursor, never a silent resume at the same offset in a
    // different result list.
    let hash = fnv1a64(canonical_steps(&req.steps).as_bytes()) ^ index.model_stamp;
    let rendered = execute(index, &req.steps)?;
    let total = rendered.len();
    let (offset, page) = match (&req.cursor, req.page) {
        (Some(cursor), _) => {
            let (offset, page) = decode_cursor(cursor, hash)?;
            if offset > total {
                return Err(QueryError::BadCursor(format!(
                    "cursor offset {offset} is beyond the {total} results"
                )));
            }
            (offset, Some(page))
        }
        (None, page) => (0, page),
    };
    let end = page.map_or(total, |p| (offset + p).min(total));
    let next = match page {
        Some(p) if end < total => json_string(&encode_cursor(hash, end, p)),
        _ => "null".to_string(),
    };
    // Only the page is rendered: items outside it never reach a string.
    let mut out = format!("{{\"total\":{total},\"offset\":{offset},\"items\":[");
    for i in offset..end {
        if i > offset {
            out.push(',');
        }
        rendered.push_item(index, i, &mut out);
    }
    out.push_str("],\"next_cursor\":");
    out.push_str(&next);
    out.push('}');
    Ok(out)
}

fn encode_cursor(hash: u64, offset: usize, page: usize) -> String {
    format!("q1.{hash:016x}.{offset}.{page}")
}

fn decode_cursor(cursor: &str, hash: u64) -> Result<(usize, usize), QueryError> {
    let bad = |what: &str| QueryError::BadCursor(what.to_string());
    let mut fields = cursor.split('.');
    if fields.next() != Some("q1") {
        return Err(bad("unknown cursor version"));
    }
    let stamp = fields.next().ok_or_else(|| bad("missing program hash"))?;
    if stamp.len() != 16 {
        return Err(bad("malformed program hash"));
    }
    let stamp = u64::from_str_radix(stamp, 16).map_err(|_| bad("malformed program hash"))?;
    if stamp != hash {
        return Err(bad("cursor belongs to a different program or model version"));
    }
    let offset: usize = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("malformed offset"))?;
    let page: usize = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("malformed page size"))?;
    if fields.next().is_some() {
        return Err(bad("trailing cursor fields"));
    }
    if page == 0 || page > MAX_PAGE {
        return Err(bad("page size out of range"));
    }
    Ok((offset, page))
}

/// Executes the program steps against the index.
pub fn execute(index: &QueryIndex, steps: &[Step]) -> Result<Rendered, QueryError> {
    let mut set: Vec<Node> = Vec::new();
    let mut rendered: Option<Rendered> = None;
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Filter(spec) if i == 0 => {
                // Validated at parse time: the first filter names a type.
                let kind = spec.kind.as_ref().ok_or_else(|| {
                    QueryError::Program("the first filter must name a type".into())
                })?;
                set = select(index, kind, spec)?;
            }
            Step::Filter(spec) => set = apply_filter(index, spec, std::mem::take(&mut set))?,
            Step::Traverse { edge } => {
                let mut next = NodeBits::new(index);
                for &node in &set {
                    neighbors(index, node, edge, &mut next)?;
                }
                set = next.into_nodes();
            }
            Step::Path { to, edges, max_depth, mode, limit } => {
                let kind = to
                    .kind
                    .as_ref()
                    .ok_or_else(|| QueryError::Program("path target must name a type".into()))?;
                let targets: BTreeSet<Node> = select(index, kind, to)?.into_iter().collect();
                let mut budget = PATH_EXPANSION_CAP;
                match mode {
                    PathMode::Exists => {
                        set = path_exists(index, &set, &targets, edges, *max_depth, &mut budget)?;
                    }
                    PathMode::Paths => {
                        rendered = Some(Rendered::Paths(path_enumerate(
                            index, &set, &targets, edges, *max_depth, *limit, &mut budget,
                        )?));
                    }
                }
            }
            Step::Rank { by, topic, limit } => {
                rendered = Some(Rendered::Ranked(rank(index, &set, *by, topic, *limit)?));
            }
        }
    }
    Ok(rendered.unwrap_or(Rendered::Plain(set)))
}

/// The node set of a filter that names its `kind` (a program's first
/// step, a path's target), built directly instead of by seeding every
/// node of the kind: names resolve to their ids, and a doc filter is one
/// pass over the document columns.
fn select(index: &QueryIndex, kind: &KindSel, spec: &FilterSpec) -> Result<Vec<Node>, QueryError> {
    // Resolved first, so an unknown type fails before an unknown topic
    // (unused for topics and docs).
    let etype = match kind {
        KindSel::Entity(name) => id32(index.resolve_type(name)?),
        KindSel::Topic | KindSel::Doc => 0,
    };
    let topic = spec.topic.as_ref().map(|r| index.resolve_topic(r)).transpose()?;
    let years = spec.years.map(year_bounds);
    let names = (!spec.names.is_empty()).then_some(&spec.names);
    let mut set: Vec<Node> = match (kind, names) {
        // Docs have no names.
        (KindSel::Doc, Some(_)) => Vec::new(),
        (KindSel::Doc, None) => {
            let in_subtree = topic.map(|t| index.subtree_mask(t));
            return Ok(docs_where(index, years, in_subtree.as_deref()));
        }
        (KindSel::Topic, None) => (0..id32(index.num_topics())).map(Node::Topic).collect(),
        (KindSel::Topic, Some(names)) => {
            sorted_ids(names.iter().filter_map(|p| index.topic_by_path(p)).map(id32))
                .map(Node::Topic)
                .collect()
        }
        (KindSel::Entity(_), None) => (0..id32(index.num_entities(etype as usize)))
            .map(|id| Node::Entity { etype, id })
            .collect(),
        (KindSel::Entity(_), Some(names)) => {
            sorted_ids(names.iter().filter_map(|n| index.entity_by_name(etype as usize, n)))
                .map(|id| Node::Entity { etype, id })
                .collect()
        }
    };
    if let Some(bounds) = years {
        retain_years(index, bounds, &mut set);
    }
    if let Some(t) = topic {
        retain_topic(index, t, spec.min_score, &mut set);
    }
    Ok(set)
}

/// Ids ascending, each once.
fn sorted_ids(ids: impl Iterator<Item = u32>) -> impl Iterator<Item = u32> {
    let mut ids: Vec<u32> = ids.collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
}

/// A `years` predicate's inclusive bounds, an unbounded side widened to
/// the `i64` range.
fn year_bounds((min, max): (Option<i64>, Option<i64>)) -> (i64, i64) {
    (min.unwrap_or(i64::MIN), max.unwrap_or(i64::MAX))
}

/// The documents with a year in `years` and a leaf in `in_subtree`
/// (either predicate may be absent), ascending. Only the survivors are
/// written, at their exact count.
fn docs_where(
    index: &QueryIndex,
    years: Option<(i64, i64)>,
    in_subtree: Option<&[bool]>,
) -> Vec<Node> {
    let bits = match (years, in_subtree) {
        (None, None) => return (0..id32(index.num_docs())).map(Node::Doc).collect(),
        (Some((lo, hi)), None) => mark_docs(index, |year, known, _| year_in(year, known, lo, hi)),
        (None, Some(sub)) => mark_docs(index, |_, _, leaf| sub[leaf as usize]),
        (Some((lo, hi)), Some(sub)) => mark_docs(index, |year, known, leaf| {
            year_in(year, known, lo, hi) & sub[leaf as usize]
        }),
    };
    let mut out = Vec::with_capacity(bits.len());
    bits.for_each(|d| out.push(Node::Doc(d)));
    out
}

/// Marks the documents `keep` accepts, given each one's year, whether
/// that year is known, and its leaf topic: one pass over the compact
/// per-document columns, 64 documents a word, with no branch on `keep`'s
/// answer.
fn mark_docs(index: &QueryIndex, keep: impl Fn(i32, bool, u32) -> bool) -> IdBits {
    let columns = index
        .doc_years
        .chunks(64)
        .zip(index.doc_year_known.chunks(64))
        .zip(index.doc_leaf.chunks(64));
    IdBits(
        columns
            .map(|((years, known), leaves)| {
                let mut marks = 0u64;
                let rows = years.iter().zip(known).zip(leaves);
                for (i, ((&year, &known), &leaf)) in rows.enumerate() {
                    marks |= u64::from(keep(year, known, leaf)) << i;
                }
                marks
            })
            .collect(),
    )
}

/// Applies a filter's predicates to the sorted node set of an earlier
/// step: its kind, names, years and topic, each a retain.
fn apply_filter(
    index: &QueryIndex,
    spec: &FilterSpec,
    mut set: Vec<Node>,
) -> Result<Vec<Node>, QueryError> {
    if let Some(kind) = &spec.kind {
        let keep_etype = match kind {
            KindSel::Entity(name) => Some(id32(index.resolve_type(name)?)),
            _ => None,
        };
        set.retain(|n| match (kind, n) {
            (KindSel::Topic, Node::Topic(_)) => true,
            (KindSel::Doc, Node::Doc(_)) => true,
            (KindSel::Entity(_), Node::Entity { etype, .. }) => Some(*etype) == keep_etype,
            _ => false,
        });
    }
    let topic = spec.topic.as_ref().map(|r| index.resolve_topic(r)).transpose()?;
    if !spec.names.is_empty() {
        // Resolve names against the set's kinds once per filter: entity
        // names per type present in the set, topic paths for topics. Docs
        // have no names and never match.
        let topics: Vec<u32> =
            spec.names.iter().filter_map(|p| index.topic_by_path(p)).map(id32).collect();
        let mut entities: Vec<Option<Vec<u32>>> = vec![None; index.num_types()];
        set.retain(|n| match n {
            Node::Entity { etype, id } => entities[*etype as usize]
                .get_or_insert_with(|| {
                    spec.names
                        .iter()
                        .filter_map(|name| index.entity_by_name(*etype as usize, name))
                        .collect()
                })
                .contains(id),
            Node::Topic(t) => topics.contains(t),
            Node::Doc(_) => false,
        });
    }
    if let Some(years) = spec.years {
        retain_years(index, year_bounds(years), &mut set);
    }
    if let Some(t) = topic {
        retain_topic(index, t, spec.min_score, &mut set);
    }
    Ok(set)
}

/// Keeps the docs with a year in `lo..=hi` and the entities with any such
/// doc. Topics carry no year; a year predicate never matches them.
fn retain_years(index: &QueryIndex, (lo, hi): (i64, i64), set: &mut Vec<Node>) {
    set.retain(|n| match n {
        Node::Doc(d) => index.doc_year_in(*d as usize, lo, hi),
        Node::Entity { etype, id } => index.entity_docs[*etype as usize][*id as usize]
            .iter()
            .any(|&d| index.doc_year_in(d as usize, lo, hi)),
        Node::Topic(_) => false,
    });
}

/// Keeps the nodes in topic `t`'s subtree: topics in it, docs whose leaf
/// is in it, and entities that occur in it (with at least `min_score` of
/// its occurrences of their type, when given).
fn retain_topic(index: &QueryIndex, t: usize, min_score: Option<f64>, set: &mut Vec<Node>) {
    let in_subtree = index.subtree_mask(t);
    // Per-type membership/score tables, computed once per filter for
    // the types actually present in the set.
    let mut tables: Vec<Option<(Vec<u64>, f64)>> = vec![None; index.num_types()];
    for n in set.iter() {
        if let Node::Entity { etype, .. } = n {
            let etype = *etype as usize;
            if tables[etype].is_none() {
                let counts = index.subtree_counts(etype, t);
                let total = counts.iter().sum::<u64>() as f64;
                tables[etype] = Some((counts, total.max(1e-12)));
            }
        }
    }
    set.retain(|n| match n {
        Node::Topic(z) => in_subtree[*z as usize],
        Node::Doc(d) => in_subtree[index.doc_leaf[*d as usize] as usize],
        Node::Entity { etype, id } => match &tables[*etype as usize] {
            None => false,
            Some((counts, total)) => {
                let f = counts[*id as usize];
                match min_score {
                    None => f > 0,
                    Some(s) => f > 0 && (f as f64 / *total) >= s,
                }
            }
        },
    });
}

/// A set of ids below a fixed bound, one bit each, iterated ascending.
struct IdBits(Vec<u64>);

impl IdBits {
    fn new(n: usize) -> IdBits {
        IdBits(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, id: u32) {
        let id = id as usize;
        self.0[id / 64] |= 1 << (id % 64);
    }

    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Calls `f` on each id, ascending.
    fn for_each(&self, mut f: impl FnMut(u32)) {
        for (w, &word) in self.0.iter().enumerate() {
            let base = id32(w * 64);
            let mut rest = word;
            while rest != 0 {
                f(base + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
    }
}

/// A traversal's next node set, deduplicated in one id bitmap per node
/// kind and emitted in `Node` order (topics, entities by type then id,
/// docs): the order sorting and deduplicating the neighbours would give.
struct NodeBits {
    topics: IdBits,
    entities: Vec<IdBits>,
    docs: IdBits,
}

impl NodeBits {
    fn new(index: &QueryIndex) -> NodeBits {
        NodeBits {
            topics: IdBits::new(index.num_topics()),
            entities: (0..index.num_types()).map(|t| IdBits::new(index.num_entities(t))).collect(),
            docs: IdBits::new(index.num_docs()),
        }
    }

    fn into_nodes(self) -> Vec<Node> {
        let len = self.topics.len()
            + self.entities.iter().map(IdBits::len).sum::<usize>()
            + self.docs.len();
        let mut out = Vec::with_capacity(len);
        self.topics.for_each(|t| out.push(Node::Topic(t)));
        for (etype, ids) in self.entities.iter().enumerate() {
            let etype = id32(etype);
            ids.for_each(|id| out.push(Node::Entity { etype, id }));
        }
        self.docs.for_each(|d| out.push(Node::Doc(d)));
        out
    }
}

impl Extend<Node> for NodeBits {
    fn extend<I: IntoIterator<Item = Node>>(&mut self, nodes: I) {
        for node in nodes {
            match node {
                Node::Topic(t) => self.topics.insert(t),
                Node::Entity { etype, id } => self.entities[etype as usize].insert(id),
                Node::Doc(d) => self.docs.insert(d),
            }
        }
    }
}

/// Appends `node`'s neighbors along `edge`. Nodes the edge does not apply
/// to contribute nothing (documented drop semantics, DESIGN.md §14).
fn neighbors(
    index: &QueryIndex,
    node: Node,
    edge: &Edge,
    out: &mut impl Extend<Node>,
) -> Result<(), QueryError> {
    match (edge, node) {
        (Edge::Coauthor, Node::Entity { etype, id }) => {
            out.extend(
                index.cooccur[etype as usize][id as usize]
                    .iter()
                    .map(|&peer| Node::Entity { etype, id: peer }),
            );
        }
        (Edge::Advisees, Node::Entity { etype, id })
            if index.author_type == Some(etype as usize) =>
        {
            out.extend(
                index.advisor_edges().advisees[id as usize]
                    .iter()
                    .map(|&a| Node::Entity { etype, id: a }),
            );
        }
        (Edge::Advisors, Node::Entity { etype, id })
            if index.author_type == Some(etype as usize) =>
        {
            out.extend(
                index.advisor_edges().advisors[id as usize]
                    .iter()
                    .map(|&a| Node::Entity { etype, id: a }),
            );
        }
        (Edge::Topics, Node::Entity { etype, id }) => {
            out.extend(
                index.entity_docs[etype as usize][id as usize]
                    .iter()
                    .map(|&d| Node::Topic(index.doc_leaf[d as usize])),
            );
        }
        (Edge::Entities(sel), Node::Topic(t)) => {
            let types = resolve_type_sel(index, sel)?;
            for etype in types {
                let counts = index.subtree_counts(etype, t as usize);
                out.extend(counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(
                    |(id, _)| Node::Entity { etype: id32(etype), id: id32(id) },
                ));
            }
        }
        (Edge::Entities(sel), Node::Doc(d)) => {
            let types = resolve_type_sel(index, sel)?;
            out.extend(
                index.doc_entities(d as usize)
                    .iter()
                    .filter(|&&(etype, _)| types.contains(&(etype as usize)))
                    .map(|&(etype, id)| Node::Entity { etype, id }),
            );
        }
        (Edge::Docs, Node::Entity { etype, id }) => {
            out.extend(
                index.entity_docs[etype as usize][id as usize].iter().map(|&d| Node::Doc(d)),
            );
        }
        (Edge::Docs, Node::Topic(t)) => {
            out.extend(docs_where(index, None, Some(&index.subtree_mask(t as usize))));
        }
        (Edge::Parent, Node::Topic(t)) => {
            out.extend(index.topics[t as usize].parent.map(|p| Node::Topic(id32(p))));
        }
        (Edge::Children, Node::Topic(t)) => {
            out.extend(index.topics[t as usize].children.iter().map(|&c| Node::Topic(id32(c))));
        }
        _ => {}
    }
    Ok(())
}

/// Resolves the optional type selector of an `entities` edge to a type
/// index list (all types when unset).
fn resolve_type_sel(index: &QueryIndex, sel: &Option<String>) -> Result<Vec<usize>, QueryError> {
    match sel {
        Some(name) => Ok(vec![index.resolve_type(name)?]),
        None => Ok((0..index.num_types()).collect()),
    }
}

/// A node's neighbours along a step's edges, sorted and deduplicated.
/// A single edge whose adjacency the index already stores that way is
/// borrowed, so the path searches allocate nothing per node for it.
enum Adjacent<'a> {
    /// Same-type entity ids, ascending.
    Entities { etype: u32, ids: &'a [u32] },
    /// Document ids, ascending.
    Docs(&'a [u32]),
    /// Collected from several edges (or one without stored adjacency).
    Collected(Vec<Node>),
}

impl Adjacent<'_> {
    fn len(&self) -> usize {
        match self {
            Adjacent::Entities { ids, .. } | Adjacent::Docs(ids) => ids.len(),
            Adjacent::Collected(nodes) => nodes.len(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Node> + '_ {
        (0..self.len()).map(|i| match self {
            Adjacent::Entities { etype, ids } => Node::Entity { etype: *etype, id: ids[i] },
            Adjacent::Docs(ids) => Node::Doc(ids[i]),
            Adjacent::Collected(nodes) => nodes[i],
        })
    }

    fn contains(&self, node: Node) -> bool {
        match (self, node) {
            (Adjacent::Entities { etype, ids }, Node::Entity { etype: e, id }) => {
                *etype == e && ids.binary_search(&id).is_ok()
            }
            (Adjacent::Docs(ids), Node::Doc(d)) => ids.binary_search(&d).is_ok(),
            (Adjacent::Collected(nodes), _) => nodes.binary_search(&node).is_ok(),
            _ => false,
        }
    }
}

/// Sorted, deduplicated neighbors of `node` along any of `edges` — the
/// one neighbour routine of both path searches.
fn adjacent<'a>(
    index: &'a QueryIndex,
    node: Node,
    edges: &[Edge],
) -> Result<Adjacent<'a>, QueryError> {
    if let ([edge], Node::Entity { etype, id }) = (edges, node) {
        let (et, id) = (etype as usize, id as usize);
        let is_author = index.author_type == Some(et);
        match edge {
            Edge::Coauthor => return Ok(Adjacent::Entities { etype, ids: &index.cooccur[et][id] }),
            Edge::Advisees if is_author => {
                return Ok(Adjacent::Entities { etype, ids: &index.advisor_edges().advisees[id] })
            }
            Edge::Advisors if is_author => {
                return Ok(Adjacent::Entities { etype, ids: &index.advisor_edges().advisors[id] })
            }
            Edge::Docs => return Ok(Adjacent::Docs(&index.entity_docs[et][id])),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for edge in edges {
        neighbors(index, node, edge, &mut out)?;
    }
    out.sort_unstable();
    out.dedup();
    Ok(Adjacent::Collected(out))
}

/// Keeps sources with a path (≤ `max_depth` edges) to any target.
/// A source that is itself a target trivially qualifies. Each expanded
/// node costs one unit of `budget`.
fn path_exists(
    index: &QueryIndex,
    sources: &[Node],
    targets: &BTreeSet<Node>,
    edges: &[Edge],
    max_depth: usize,
    budget: &mut usize,
) -> Result<Vec<Node>, QueryError> {
    let mut out = Vec::new();
    for &source in sources {
        if targets.contains(&source) {
            out.push(source);
            continue;
        }
        let mut visited: BTreeSet<Node> = BTreeSet::new();
        visited.insert(source);
        let mut frontier = vec![source];
        let mut found = false;
        'bfs: for _ in 0..max_depth {
            let mut next = Vec::new();
            for &node in &frontier {
                *budget = budget
                    .checked_sub(1)
                    .ok_or_else(|| QueryError::TooLarge("path search budget exhausted".into()))?;
                for peer in adjacent(index, node, edges)?.iter() {
                    if targets.contains(&peer) {
                        found = true;
                        break 'bfs;
                    }
                    if visited.insert(peer) {
                        next.push(peer);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        if found {
            out.push(source);
        }
    }
    Ok(out)
}

/// Enumerates simple paths from the sources to the target set, depth-first
/// over sorted adjacency: sources ascending, then lexicographic by node
/// sequence — a pinned order. Stops at `limit` paths. Each node expanded
/// below `max_depth` costs one unit of `budget`.
fn path_enumerate(
    index: &QueryIndex,
    sources: &[Node],
    targets: &BTreeSet<Node>,
    edges: &[Edge],
    max_depth: usize,
    limit: usize,
    budget: &mut usize,
) -> Result<Vec<Vec<Node>>, QueryError> {
    let mut paths: Vec<Vec<Node>> = Vec::new();
    let mut current: Vec<Node> = Vec::new();
    for &source in sources {
        if paths.len() >= limit {
            break;
        }
        current.clear();
        current.push(source);
        dfs(index, targets, edges, max_depth, limit, budget, &mut current, &mut paths)?;
    }
    Ok(paths)
}

#[allow(clippy::too_many_arguments)] // recursion state; bundling would obscure the search
fn dfs(
    index: &QueryIndex,
    targets: &BTreeSet<Node>,
    edges: &[Edge],
    depth_left: usize,
    limit: usize,
    budget: &mut usize,
    current: &mut Vec<Node>,
    paths: &mut Vec<Vec<Node>>,
) -> Result<(), QueryError> {
    let here = *current.last().unwrap_or(&Node::Topic(0));
    if targets.contains(&here) {
        paths.push(current.clone());
        if paths.len() >= limit {
            return Ok(());
        }
    }
    if depth_left == 0 {
        return Ok(());
    }
    *budget = budget
        .checked_sub(1)
        .ok_or_else(|| QueryError::TooLarge("path search budget exhausted".into()))?;
    let adjacency = adjacent(index, here, edges)?;
    if depth_left == 1 {
        // Each extension is a leaf of the search, and a path exactly when
        // the neighbour is a target: intersect the two ascending sets from
        // the smaller side. Depth-0 calls charge no budget, so skipping
        // them charges what the recursion would have.
        let mut extend = |peer: Node| {
            if current.contains(&peer) {
                return false;
            }
            current.push(peer);
            paths.push(current.clone());
            current.pop();
            paths.len() >= limit
        };
        if targets.len() < adjacency.len() {
            for &peer in targets {
                if adjacency.contains(peer) && extend(peer) {
                    break;
                }
            }
        } else {
            for peer in adjacency.iter() {
                if targets.contains(&peer) && extend(peer) {
                    break;
                }
            }
        }
        return Ok(());
    }
    for peer in adjacency.iter() {
        if current.contains(&peer) {
            continue; // simple paths only
        }
        current.push(peer);
        dfs(index, targets, edges, depth_left - 1, limit, budget, current, paths)?;
        current.pop();
        if paths.len() >= limit {
            return Ok(());
        }
    }
    Ok(())
}

/// Scores the entity members of the set by the §5.2 role criteria within
/// `topic`'s sibling group; non-entity nodes are dropped. Order is pinned:
/// score descending by `total_cmp`, then node order ascending.
fn rank(
    index: &QueryIndex,
    set: &[Node],
    by: RankBy,
    topic: &crate::program::TopicRef,
    limit: Option<usize>,
) -> Result<Vec<(Node, f64)>, QueryError> {
    let t = index.resolve_topic(topic)?;
    let siblings: Vec<usize> = match index.topics[t].parent {
        Some(p) if index.topics[p].children.contains(&t) => index.topics[p].children.clone(),
        _ => vec![t],
    };
    let ti = siblings.iter().position(|&z| z == t).unwrap_or(0);
    let mut per_type: Vec<Option<Vec<Option<f64>>>> = vec![None; index.num_types()];
    let mut scored: Vec<(Node, f64)> = Vec::new();
    for &node in set {
        let Node::Entity { etype, id } = node else { continue };
        let scores = per_type[etype as usize]
            .get_or_insert_with(|| type_scores(index, etype as usize, &siblings, ti, by));
        if let Some(score) = scores[id as usize] {
            scored.push((node, score));
        }
    }
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    if let Some(n) = limit {
        scored.truncate(n);
    }
    Ok(scored)
}

/// Per-entity scores for one type within a sibling group; `None` marks
/// zero frequency in the target subtree (dropped from rankings, matching
/// `lesm_roles::type_b`).
fn type_scores(
    index: &QueryIndex,
    etype: usize,
    siblings: &[usize],
    ti: usize,
    by: RankBy,
) -> Vec<Option<f64>> {
    let rows: Vec<Vec<f64>> = siblings
        .iter()
        .map(|&z| index.subtree_counts(etype, z).iter().map(|&c| c as f64).collect())
        .collect();
    let n = index.num_entities(etype);
    let mut out = vec![None; n];
    match by {
        RankBy::Pop => {
            for (e, score) in erank_pop(&rows, ti, n) {
                out[e as usize] = Some(score);
            }
        }
        RankBy::Combined => {
            for (e, score) in erank_pop_pur(&rows, ti, n) {
                out[e as usize] = Some(score);
            }
        }
        RankBy::Pur => {
            // The purity factor alone: log(p / worst mixed probability),
            // with the same guards and sibling semantics as
            // `erank_pop_pur` so "pur" and "combined" agree on supports.
            let totals: Vec<f64> = rows.iter().map(|r| r.iter().sum()).collect();
            let nt = totals[ti].max(1e-12);
            for e in 0..n {
                let f = rows[ti][e];
                if f <= 0.0 {
                    continue;
                }
                let p = f / nt;
                let mut worst_mix = p;
                for (z, row) in rows.iter().enumerate() {
                    if z == ti {
                        continue;
                    }
                    let mix = (f + row[e]) / (totals[ti] + totals[z]).max(1e-12);
                    if mix > worst_mix {
                        worst_mix = mix;
                    }
                }
                out[e] = Some((p / worst_mix.max(1e-300)).ln());
            }
        }
    }
    out
}

impl Rendered {
    /// Number of result items.
    pub fn len(&self) -> usize {
        match self {
            Rendered::Plain(nodes) => nodes.len(),
            Rendered::Ranked(scored) => scored.len(),
            Rendered::Paths(paths) => paths.len(),
        }
    }

    /// Whether the result has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends item `i` as one compact JSON object (pagination and the
    /// concatenation property are defined over these items).
    pub fn push_item(&self, index: &QueryIndex, i: usize, out: &mut String) {
        match self {
            Rendered::Plain(nodes) => push_node(index, nodes[i], None, out),
            Rendered::Ranked(scored) => push_node(index, scored[i].0, Some(scored[i].1), out),
            Rendered::Paths(paths) => {
                out.push_str("{\"kind\":\"path\",\"nodes\":[");
                for (k, &node) in paths[i].iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    push_node(index, node, None, out);
                }
                out.push_str("]}");
            }
        }
    }
}

fn push_node(index: &QueryIndex, node: Node, score: Option<f64>, out: &mut String) {
    // Writing into a `String` cannot fail.
    match node {
        Node::Topic(t) => {
            let _ = write!(out, "{{\"kind\":\"topic\",\"id\":{t},\"path\":");
            push_json_string(out, &index.topics[t as usize].path);
        }
        Node::Entity { etype, id } => {
            out.push_str("{\"kind\":");
            push_json_string(out, &index.type_names[etype as usize]);
            let _ = write!(out, ",\"id\":{id},\"name\":");
            push_json_string(out, &index.entity_names[etype as usize][id as usize]);
        }
        Node::Doc(d) => {
            let gid = index.doc_gids[d as usize];
            let _ = match index.doc_year(d as usize) {
                Some(year) => write!(out, "{{\"kind\":\"doc\",\"id\":{gid},\"year\":{year}"),
                None => write!(out, "{{\"kind\":\"doc\",\"id\":{gid},\"year\":null"),
            };
        }
    }
    if let Some(s) = score {
        out.push_str(",\"score\":");
        out.push_str(&json_number(s));
    }
    out.push('}');
}
