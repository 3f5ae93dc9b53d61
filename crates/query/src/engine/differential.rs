//! Differential tests of the executor against its straightforward
//! definition, kept here as the oracle. The oracle shares no node-set code
//! with the engine; it uses the parser, the cursor codec, the rank scores
//! and the index's tables:
//!
//! * a filter seeds every node of its kind, then retains node by node;
//! * a traverse collects every neighbour, then sorts and deduplicates;
//! * every path search node collects, sorts and deduplicates its
//!   neighbours, and the DFS recurses into every one of them;
//! * a response renders every result item, then slices out the page.
//!
//! Random programs over three models (one with unknown and `i32::MIN` /
//! `i32::MAX` years) must produce byte-identical responses (or the
//! identical typed error) on every cursor page.

use super::*;
use crate::parts::IndexParts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All nodes of one kind, ascending.
fn oracle_seed(index: &QueryIndex, kind: &KindSel) -> Result<Vec<Node>, QueryError> {
    Ok(match kind {
        KindSel::Topic => (0..id32(index.num_topics())).map(Node::Topic).collect(),
        KindSel::Doc => (0..id32(index.num_docs())).map(Node::Doc).collect(),
        KindSel::Entity(name) => {
            let etype = id32(index.resolve_type(name)?);
            (0..id32(index.num_entities(etype as usize)))
                .map(|id| Node::Entity { etype, id })
                .collect()
        }
    })
}

/// Applies a filter's predicates to a sorted node set, one retain each.
/// `seeded` marks that the kind selector already shaped the set.
fn oracle_apply_filter(
    index: &QueryIndex,
    spec: &FilterSpec,
    mut set: Vec<Node>,
    seeded: bool,
) -> Result<Vec<Node>, QueryError> {
    if !seeded {
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
    }
    if !spec.names.is_empty() {
        set.retain(|n| match n {
            Node::Entity { etype, id } => spec
                .names
                .iter()
                .any(|name| index.entity_by_name(*etype as usize, name) == Some(*id)),
            Node::Topic(t) => spec
                .names
                .iter()
                .any(|p| index.topic_by_path(p) == Some(*t as usize)),
            Node::Doc(_) => false,
        });
    }
    if let Some((min, max)) = spec.years {
        let in_range = |year: Option<i32>| {
            year.is_some_and(|y| {
                min.is_none_or(|lo| y as i64 >= lo) && max.is_none_or(|hi| y as i64 <= hi)
            })
        };
        set.retain(|n| match n {
            Node::Doc(d) => in_range(index.doc_year(*d as usize)),
            Node::Entity { etype, id } => index.entity_docs[*etype as usize][*id as usize]
                .iter()
                .any(|&d| in_range(index.doc_year(d as usize))),
            Node::Topic(_) => false,
        });
    }
    if let Some(topic_ref) = &spec.topic {
        let t = index.resolve_topic(topic_ref)?;
        let in_subtree: Vec<usize> = index.subtree(t);
        let counts: Vec<Vec<u64>> =
            (0..index.num_types()).map(|etype| index.subtree_counts(etype, t)).collect();
        let min_score = spec.min_score;
        let mut kept = Vec::new();
        for n in set {
            let keep = match n {
                Node::Topic(z) => in_subtree.contains(&(z as usize)),
                Node::Doc(d) => in_subtree.contains(&(index.doc_leaf[d as usize] as usize)),
                Node::Entity { etype, id } => {
                    let counts = &counts[etype as usize];
                    let f = counts[id as usize];
                    let total = (counts.iter().sum::<u64>() as f64).max(1e-12);
                    f > 0 && min_score.is_none_or(|s| (f as f64 / total) >= s)
                }
            };
            if keep {
                kept.push(n);
            }
        }
        set = kept;
    }
    Ok(set)
}

/// Appends `node`'s neighbors along `edge`, in adjacency order.
fn oracle_edge(
    index: &QueryIndex,
    node: Node,
    edge: &Edge,
    out: &mut Vec<Node>,
) -> Result<(), QueryError> {
    let types = |sel: &Option<String>| -> Result<Vec<usize>, QueryError> {
        match sel {
            Some(name) => Ok(vec![index.resolve_type(name)?]),
            None => Ok((0..index.num_types()).collect()),
        }
    };
    let author = |etype: u32| index.author_type == Some(etype as usize);
    match (edge, node) {
        (Edge::Coauthor, Node::Entity { etype, id }) => {
            for &peer in &index.cooccur[etype as usize][id as usize] {
                out.push(Node::Entity { etype, id: peer });
            }
        }
        (Edge::Advisees, Node::Entity { etype, id }) if author(etype) => {
            for &a in &index.advisor_edges().advisees[id as usize] {
                out.push(Node::Entity { etype, id: a });
            }
        }
        (Edge::Advisors, Node::Entity { etype, id }) if author(etype) => {
            for &a in &index.advisor_edges().advisors[id as usize] {
                out.push(Node::Entity { etype, id: a });
            }
        }
        (Edge::Topics, Node::Entity { etype, id }) => {
            for &d in &index.entity_docs[etype as usize][id as usize] {
                out.push(Node::Topic(index.doc_leaf[d as usize]));
            }
        }
        (Edge::Entities(sel), Node::Topic(t)) => {
            for etype in types(sel)? {
                for (id, &c) in index.subtree_counts(etype, t as usize).iter().enumerate() {
                    if c > 0 {
                        out.push(Node::Entity { etype: id32(etype), id: id32(id) });
                    }
                }
            }
        }
        (Edge::Entities(sel), Node::Doc(d)) => {
            let types = types(sel)?;
            for &(etype, id) in index.doc_entities(d as usize) {
                if types.contains(&(etype as usize)) {
                    out.push(Node::Entity { etype, id });
                }
            }
        }
        (Edge::Docs, Node::Entity { etype, id }) => {
            for &d in &index.entity_docs[etype as usize][id as usize] {
                out.push(Node::Doc(d));
            }
        }
        (Edge::Docs, Node::Topic(t)) => {
            let subtree = index.subtree(t as usize);
            for d in 0..index.num_docs() {
                if subtree.contains(&(index.doc_leaf[d] as usize)) {
                    out.push(Node::Doc(id32(d)));
                }
            }
        }
        (Edge::Parent, Node::Topic(t)) => {
            if let Some(p) = index.topics[t as usize].parent {
                out.push(Node::Topic(id32(p)));
            }
        }
        (Edge::Children, Node::Topic(t)) => {
            for &c in &index.topics[t as usize].children {
                out.push(Node::Topic(id32(c)));
            }
        }
        _ => {}
    }
    Ok(())
}

fn oracle_neighbors(
    index: &QueryIndex,
    node: Node,
    edges: &[Edge],
) -> Result<Vec<Node>, QueryError> {
    let mut out = Vec::new();
    for edge in edges {
        oracle_edge(index, node, edge, &mut out)?;
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

fn oracle_path_exists(
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
                for peer in oracle_neighbors(index, node, edges)? {
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

#[allow(clippy::too_many_arguments)]
fn oracle_dfs(
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
    for peer in oracle_neighbors(index, here, edges)? {
        if current.contains(&peer) {
            continue;
        }
        current.push(peer);
        oracle_dfs(
            index,
            targets,
            edges,
            depth_left - 1,
            limit,
            budget,
            current,
            paths,
        )?;
        current.pop();
        if paths.len() >= limit {
            return Ok(());
        }
    }
    Ok(())
}

fn oracle_path_enumerate(
    index: &QueryIndex,
    sources: &[Node],
    targets: &BTreeSet<Node>,
    edges: &[Edge],
    max_depth: usize,
    limit: usize,
    budget: &mut usize,
) -> Result<Vec<Vec<Node>>, QueryError> {
    let mut paths = Vec::new();
    let mut current = Vec::new();
    for &source in sources {
        if paths.len() >= limit {
            break;
        }
        current.clear();
        current.push(source);
        oracle_dfs(
            index,
            targets,
            edges,
            max_depth,
            limit,
            budget,
            &mut current,
            &mut paths,
        )?;
    }
    Ok(paths)
}

fn oracle_execute(index: &QueryIndex, steps: &[Step]) -> Result<Rendered, QueryError> {
    let mut set: Vec<Node> = Vec::new();
    let mut rendered: Option<Rendered> = None;
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Filter(spec) => {
                if i == 0 {
                    let kind = spec.kind.as_ref().ok_or_else(|| {
                        QueryError::Program("the first filter must name a type".into())
                    })?;
                    set = oracle_seed(index, kind)?;
                }
                set = oracle_apply_filter(index, spec, std::mem::take(&mut set), i == 0)?;
            }
            Step::Traverse { edge } => {
                let mut next = Vec::new();
                for &node in &set {
                    oracle_edge(index, node, edge, &mut next)?;
                }
                next.sort_unstable();
                next.dedup();
                set = next;
            }
            Step::Path {
                to,
                edges,
                max_depth,
                mode,
                limit,
            } => {
                let kind = to
                    .kind
                    .as_ref()
                    .ok_or_else(|| QueryError::Program("path target must name a type".into()))?;
                let targets: BTreeSet<Node> =
                    oracle_apply_filter(index, to, oracle_seed(index, kind)?, true)?
                        .into_iter()
                        .collect();
                let mut budget = PATH_EXPANSION_CAP;
                match mode {
                    PathMode::Exists => {
                        set = oracle_path_exists(
                            index,
                            &set,
                            &targets,
                            edges,
                            *max_depth,
                            &mut budget,
                        )?;
                    }
                    PathMode::Paths => {
                        rendered = Some(Rendered::Paths(oracle_path_enumerate(
                            index,
                            &set,
                            &targets,
                            edges,
                            *max_depth,
                            *limit,
                            &mut budget,
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

fn oracle_node_json(index: &QueryIndex, node: Node, score: Option<f64>) -> String {
    let mut out = match node {
        Node::Topic(t) => format!(
            "{{\"kind\":\"topic\",\"id\":{t},\"path\":{}}}",
            json_string(&index.topics[t as usize].path)
        ),
        Node::Entity { etype, id } => format!(
            "{{\"kind\":{},\"id\":{id},\"name\":{}}}",
            json_string(&index.type_names[etype as usize]),
            json_string(&index.entity_names[etype as usize][id as usize])
        ),
        Node::Doc(d) => {
            let year = index.doc_year(d as usize).map_or("null".to_string(), |y| y.to_string());
            format!(
                "{{\"kind\":\"doc\",\"id\":{},\"year\":{year}}}",
                index.doc_gids[d as usize]
            )
        }
    };
    if let Some(s) = score {
        out.pop();
        out.push_str(&format!(",\"score\":{}}}", json_number(s)));
    }
    out
}

fn oracle_item_lines(index: &QueryIndex, rendered: &Rendered) -> Vec<String> {
    match rendered {
        Rendered::Plain(nodes) => nodes
            .iter()
            .map(|&n| oracle_node_json(index, n, None))
            .collect(),
        Rendered::Ranked(scored) => scored
            .iter()
            .map(|&(n, s)| oracle_node_json(index, n, Some(s)))
            .collect(),
        Rendered::Paths(paths) => paths
            .iter()
            .map(|path| {
                let inner: Vec<String> = path
                    .iter()
                    .map(|&n| oracle_node_json(index, n, None))
                    .collect();
                format!("{{\"kind\":\"path\",\"nodes\":[{}]}}", inner.join(","))
            })
            .collect(),
    }
}

/// Renders every item, then slices out the page.
fn oracle_run_query(index: &QueryIndex, body: &str) -> Result<String, QueryError> {
    let req = parse_request(body)?;
    let hash = fnv1a64(canonical_steps(&req.steps).as_bytes()) ^ index.model_stamp;
    let lines = oracle_item_lines(index, &oracle_execute(index, &req.steps)?);
    let (offset, page) = match (&req.cursor, req.page) {
        (Some(cursor), _) => {
            let (offset, page) = decode_cursor(cursor, hash)?;
            if offset > lines.len() {
                return Err(QueryError::BadCursor(format!(
                    "cursor offset {offset} is beyond the {} results",
                    lines.len()
                )));
            }
            (offset, Some(page))
        }
        (None, page) => (0, page),
    };
    let end = page.map_or(lines.len(), |p| (offset + p).min(lines.len()));
    let next = match page {
        Some(p) if end < lines.len() => json_string(&encode_cursor(hash, end, p)),
        _ => "null".to_string(),
    };
    let mut out = format!(
        "{{\"total\":{},\"offset\":{offset},\"items\":[",
        lines.len()
    );
    out.push_str(&lines[offset..end].join(","));
    out.push_str(&format!("],\"next_cursor\":{next}}}"));
    Ok(out)
}

fn synthetic_parts() -> Result<IndexParts, String> {
    let papers = lesm_corpus::synth::SyntheticPapers::generate(
        &lesm_corpus::synth::PapersConfig::dblp(160, 3),
    )
    .map_err(|e| e.to_string())?;
    let mined = lesm_core::model_from_truth(&papers);
    IndexParts::from_view(&mined.view(&papers.corpus)).map_err(|e| e.to_string())
}

fn synthetic_index() -> Result<QueryIndex, String> {
    QueryIndex::build(synthetic_parts()?).map_err(|e| e.to_string())
}

/// The synthetic model with some years unknown and some at the ends of
/// the `i32` range, so year bounds meet both edges of the year column.
fn extreme_years_index() -> Result<QueryIndex, String> {
    let mut parts = synthetic_parts()?;
    for (d, doc) in parts.docs.iter_mut().enumerate() {
        match d % 9 {
            0 => doc.year = None,
            3 => doc.year = Some(i32::MIN),
            6 => doc.year = Some(i32::MAX),
            _ => {}
        }
    }
    QueryIndex::build(parts).map_err(|e| e.to_string())
}

/// A random program over `index`'s names, topics and edges. Unknown names
/// and topics are drawn too, so typed errors are compared as well.
fn random_program(index: &QueryIndex, rng: &mut StdRng) -> String {
    let types: Vec<String> = index
        .type_names
        .iter()
        .map(|t| format!("\"{t}\""))
        .chain(["\"doc\"".to_string(), "\"topic\"".to_string()])
        .collect();
    let topic = |rng: &mut StdRng| -> String {
        if rng.gen_range(0..8) == 0 {
            "\"o/9/9\"".to_string()
        } else if rng.gen_range(0..2) == 0 {
            rng.gen_range(0..index.num_topics()).to_string()
        } else {
            json_string(&index.topics[rng.gen_range(0..index.num_topics())].path)
        }
    };
    let name = |rng: &mut StdRng, ty: &str| -> String {
        match index
            .type_names
            .iter()
            .position(|t| format!("\"{t}\"") == ty)
        {
            Some(t) if rng.gen_range(0..6) > 0 && !index.entity_names[t].is_empty() => {
                let names = &index.entity_names[t];
                json_string(&names[rng.gen_range(0..names.len())])
            }
            _ if ty == "\"topic\"" => {
                json_string(&index.topics[rng.gen_range(0..index.num_topics())].path)
            }
            _ => "\"nobody\"".to_string(),
        }
    };
    // Mostly years inside the synthetic models' range, sometimes an edge
    // of the i32 year column, one past it, or the largest magnitude a
    // bound may take.
    let year = |rng: &mut StdRng| -> i64 {
        const EDGES: [i64; 6] = [
            i32::MIN as i64,
            i32::MAX as i64,
            i32::MIN as i64 - 1,
            i32::MAX as i64 + 1,
            -(1 << 53),
            1 << 53,
        ];
        if rng.gen_range(0..6) == 0 {
            EDGES[rng.gen_range(0..EDGES.len())]
        } else {
            rng.gen_range(1995..2012)
        }
    };
    // Min only, max only, or both (a min above the max is a typed error).
    let years = |rng: &mut StdRng| -> String {
        match rng.gen_range(0..3) {
            0 => format!("\"years\":{{\"min\":{}}}", year(rng)),
            1 => format!("\"years\":{{\"max\":{}}}", year(rng)),
            _ => {
                let (a, b) = (year(rng), year(rng));
                let (min, max) = if rng.gen_range(0..8) == 0 {
                    (a, b)
                } else {
                    (a.min(b), a.max(b))
                };
                format!("\"years\":{{\"min\":{min},\"max\":{max}}}")
            }
        }
    };
    let filter = |rng: &mut StdRng, ty: Option<&str>| -> String {
        let mut fields: Vec<String> = Vec::new();
        if let Some(ty) = ty {
            fields.push(format!("\"type\":{ty}"));
            match rng.gen_range(0..5) {
                0 => fields.push(format!("\"name\":{}", name(rng, ty))),
                1 => {
                    let names: Vec<String> =
                        (0..rng.gen_range(1..4)).map(|_| name(rng, ty)).collect();
                    fields.push(format!("\"names\":[{}]", names.join(",")));
                }
                _ => {}
            }
        }
        if rng.gen_range(0..4) == 0 {
            fields.push(years(rng));
        }
        if rng.gen_range(0..4) == 0 {
            fields.push(format!("\"topic\":{}", topic(rng)));
        }
        format!("{{\"filter\":{{{}}}}}", fields.join(","))
    };
    // A filter over the docs a `docs` traversal reached: years, a topic
    // or both, with or without restating the type.
    let doc_filter = |rng: &mut StdRng| -> String {
        let mut fields: Vec<String> = Vec::new();
        if rng.gen_range(0..2) == 0 {
            fields.push("\"type\":\"doc\"".to_string());
        }
        match rng.gen_range(0..3) {
            0 => fields.push(years(rng)),
            1 => fields.push(format!("\"topic\":{}", topic(rng))),
            _ => {
                fields.push(years(rng));
                fields.push(format!("\"topic\":{}", topic(rng)));
            }
        }
        format!("{{\"filter\":{{{}}}}}", fields.join(","))
    };
    const EDGES: [&str; 8] = [
        "coauthor", "advisees", "advisors", "topics", "entities", "docs", "parent", "children",
    ];
    // Edge sets that connect the model's node kinds, plus random ones.
    const WALKS: [&[&str]; 6] = [
        &["coauthor"],
        &["docs", "entities"],
        &["topics", "entities"],
        &["parent", "children"],
        &["advisees", "advisors"],
        &["docs"],
    ];
    let path = |rng: &mut StdRng, mode: &str| -> String {
        let ty = &types[rng.gen_range(0..types.len())];
        let mut to = vec![format!("\"type\":{ty}")];
        if rng.gen_range(0..4) > 0 {
            to.push(format!("\"name\":{}", name(rng, ty)));
        }
        let edges: Vec<String> = if rng.gen_range(0..3) > 0 {
            WALKS[rng.gen_range(0..WALKS.len())]
                .iter()
                .map(|e| format!("\"{e}\""))
                .collect()
        } else {
            (0..rng.gen_range(1..3))
                .map(|_| format!("\"{}\"", EDGES[rng.gen_range(0..EDGES.len())]))
                .collect()
        };
        format!(
            "{{\"path\":{{\"to\":{{{}}},\"edges\":[{}],\"max_depth\":{},\"mode\":\"{mode}\",\"limit\":{}}}}}",
            to.join(","),
            edges.join(","),
            rng.gen_range(1..5),
            if rng.gen_range(0..2) == 0 { rng.gen_range(1..4) } else { rng.gen_range(1..40) }
        )
    };
    let first = rng.gen_range(0..types.len());
    let mut steps = vec![filter(rng, Some(&types[first]))];
    for _ in 0..rng.gen_range(0..3) {
        let step = match rng.gen_range(0..6) {
            0 | 1 => format!(
                "{{\"traverse\":{{\"edge\":\"{}\"}}}}",
                EDGES[rng.gen_range(0..EDGES.len())]
            ),
            2 => {
                let ty = rng.gen_range(0..types.len() * 2);
                filter(rng, types.get(ty).map(String::as_str))
            }
            3 | 4 => {
                steps.push("{\"traverse\":{\"edge\":\"docs\"}}".to_string());
                doc_filter(rng)
            }
            _ => path(rng, "exists"),
        };
        steps.push(step);
    }
    // Rank and path enumeration end a program.
    match rng.gen_range(0..4) {
        0 => steps.push(format!(
            "{{\"rank\":{{\"by\":\"{}\",\"topic\":{},\"limit\":{}}}}}",
            ["pop", "pur", "combined"][rng.gen_range(0..3)],
            topic(rng),
            rng.gen_range(1..30)
        )),
        1 | 2 => steps.push(path(rng, "paths")),
        _ => {}
    }
    format!("[{}]", steps.join(","))
}

fn next_cursor(response: &str) -> Option<String> {
    let tail = response.split("\"next_cursor\":\"").nth(1)?;
    Some(tail.split('"').next()?.to_string())
}

/// Runs `steps` unpaged and at `page`, following every cursor, plus a
/// cursor past the end; the engine and the oracle must agree each time.
/// Returns the number of responses compared and the first page's
/// response (empty for a typed error).
fn compare_pages(index: &QueryIndex, steps: &str, page: usize) -> Result<(usize, String), String> {
    let mut bodies = vec![
        format!("{{\"steps\":{steps}}}"),
        format!("{{\"steps\":{steps},\"page\":{page}}}"),
    ];
    let mut compared = 0;
    let mut first = String::new();
    while let Some(body) = bodies.pop() {
        let got = run_query(index, &body);
        let want = oracle_run_query(index, &body);
        if got != want {
            return Err(format!("{body}\n got  {got:?}\n want {want:?}"));
        }
        compared += 1;
        if let Ok(response) = got {
            if compared == 1 {
                first = response.clone();
            }
            if let Some(cursor) = next_cursor(&response) {
                bodies.push(format!("{{\"steps\":{steps},\"cursor\":\"{cursor}\"}}"));
            } else if body.contains("\"cursor\"") {
                // The last page: a cursor one past the end is a typed error.
                let req = parse_request(&body).map_err(|e| e.to_string())?;
                let hash = fnv1a64(canonical_steps(&req.steps).as_bytes()) ^ index.model_stamp;
                let total: usize = response[9..]
                    .split(',')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                let past = encode_cursor(hash, total + 1, page);
                let body = format!("{{\"steps\":{steps},\"cursor\":\"{past}\"}}");
                let (got, want) = (run_query(index, &body), oracle_run_query(index, &body));
                if got != want || got.is_ok() {
                    return Err(format!("{body}\n got  {got:?}\n want {want:?}"));
                }
            }
        }
    }
    Ok((compared, first))
}

#[test]
fn random_programs_match_the_oracle_on_every_page() {
    let indexes = [
        (
            "tiny",
            QueryIndex::build(crate::index::tests::tiny_parts()).expect("tiny index"),
            1..3,
        ),
        ("synthetic", synthetic_index().expect("synthetic index"), 1..10),
        ("extreme years", extreme_years_index().expect("extreme-years index"), 1..10),
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut paged, mut paths, mut errors) = (0, 0, 0);
    let (mut year_max, mut after_docs) = (0, 0);
    for (name, index, pages) in indexes {
        for _ in 0..400 {
            let steps = random_program(&index, &mut rng);
            let page = rng.gen_range(pages.clone());
            match compare_pages(&index, &steps, page) {
                Ok((responses, first)) => {
                    paged += usize::from(responses > 2);
                    paths += usize::from(first.contains("\"kind\":\"path\""));
                    errors += usize::from(first.is_empty());
                    let found = !first.is_empty() && !first.starts_with("{\"total\":0,");
                    year_max += usize::from(found && steps.contains("\"max\":"));
                    after_docs += usize::from(
                        found && steps.contains("{\"traverse\":{\"edge\":\"docs\"}},{\"filter\""),
                    );
                }
                Err(e) => panic!("{name}: {e}"),
            }
        }
    }
    // The draw must reach every shape often enough to matter.
    assert!(paged > 40, "only {paged} programs had a second page");
    assert!(paths > 20, "only {paths} programs enumerated paths");
    assert!(errors > 20, "only {errors} programs failed typed");
    assert!(year_max > 15, "only {year_max} programs with a year max found nodes");
    assert!(after_docs > 15, "only {after_docs} filters after a docs traversal found nodes");
}

#[test]
fn budget_exhaustion_matches_the_oracle() {
    let index = synthetic_index().expect("synthetic index");
    // Every author to an author that does not exist, over all simple
    // coauthor paths of up to eight edges: far past the cap.
    let steps = r#"[{"filter":{"type":"author"}},
        {"path":{"to":{"type":"author","name":"nobody"},"edges":["coauthor"],"max_depth":8,"mode":"paths"}}]"#;
    let body = format!("{{\"steps\":{steps}}}");
    let got = run_query(&index, &body);
    assert_eq!(got, oracle_run_query(&index, &body));
    assert!(matches!(got, Err(QueryError::TooLarge(_))), "{got:?}");
    let exists = steps.replace("\"paths\"", "\"exists\"");
    let body = format!("{{\"steps\":{exists}}}");
    assert_eq!(run_query(&index, &body), oracle_run_query(&index, &body));
}

/// Both path searches, on the source set a random program's prefix
/// yields: the same result and the same budget left as the oracle's,
/// and with one unit less than they used, the same typed error.
#[test]
fn path_searches_charge_the_budget_the_oracle_charges() {
    let index = synthetic_index().expect("synthetic index");
    let mut rng = StdRng::seed_from_u64(0xb0d6e7);
    let (mut compared, mut expensive) = (0, 0);
    for _ in 0..600 {
        let steps = random_program(&index, &mut rng);
        let Ok(req) = parse_request(&format!("{{\"steps\":{steps}}}")) else {
            continue;
        };
        let Some(k) = req
            .steps
            .iter()
            .position(|s| matches!(s, Step::Path { .. }))
        else {
            continue;
        };
        let Step::Path {
            to,
            edges,
            max_depth,
            limit,
            ..
        } = &req.steps[k]
        else {
            continue;
        };
        let Ok(Rendered::Plain(sources)) = execute(&index, &req.steps[..k]) else {
            continue;
        };
        let Some(kind) = to.kind.as_ref() else {
            continue;
        };
        let Ok(targets) = select(&index, kind, to) else {
            continue;
        };
        let targets: BTreeSet<Node> = targets.into_iter().collect();
        let run = |budget: usize, paths: bool| {
            let (mut new, mut old) = (budget, budget);
            let got = if paths {
                path_enumerate(
                    &index, &sources, &targets, edges, *max_depth, *limit, &mut new,
                )
                .map(Rendered::Paths)
            } else {
                path_exists(&index, &sources, &targets, edges, *max_depth, &mut new)
                    .map(Rendered::Plain)
            };
            let want = if paths {
                oracle_path_enumerate(
                    &index, &sources, &targets, edges, *max_depth, *limit, &mut old,
                )
                .map(Rendered::Paths)
            } else {
                oracle_path_exists(&index, &sources, &targets, edges, *max_depth, &mut old)
                    .map(Rendered::Plain)
            };
            assert_eq!(got, want, "{steps}");
            if got.is_ok() {
                assert_eq!(new, old, "{steps}: budget left");
            }
            (got.is_ok(), budget - new)
        };
        for paths in [false, true] {
            let (ok, used) = run(PATH_EXPANSION_CAP, paths);
            compared += 1;
            if ok && used > 0 {
                expensive += usize::from(used > 100);
                assert!(run(used, paths).0, "{steps}: exact budget");
                assert!(!run(used - 1, paths).0, "{steps}: one unit short");
            }
        }
    }
    assert!(compared > 300, "only {compared} path searches compared");
    assert!(
        expensive > 20,
        "only {expensive} path searches expanded over 100 nodes"
    );
}
