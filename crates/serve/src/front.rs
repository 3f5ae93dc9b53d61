//! The front tier of a sharded deployment.
//!
//! A front server owns no model. It holds the shard address list from a
//! shard manifest and answers the same endpoints a single server does:
//!
//! * `/topics/{id}`, `/hierarchy` and `POST /query` need no shard's own
//!   documents: sharding replicates the mined structure, and every shard
//!   carries every document's `doc-facts` row, so any shard builds the
//!   unsharded query index and gives the byte-identical answer. The
//!   front forwards each request to one shard, picked by a deterministic
//!   consistent-hash ring over its cache key (target, plus the body of a
//!   `POST /query`) purely to spread load; ring choice can never change
//!   response bytes. A query cursor stamps the hash of the canonical
//!   parts text, which is the same on every shard, so a page stream may
//!   resume on any of them.
//! * `/search` depends on the documents, which are partitioned. The
//!   front fans out to **every** shard's `/internal/search`, whose lines
//!   carry raw score bits and the global document id ahead of the
//!   rendered text, merges them under the exact total order a single
//!   server sorts with — score (descending, `total_cmp`) then global
//!   document id (ascending) — truncates to `top`, and strips the
//!   prefixes. Because each document lives on exactly one shard and the
//!   order is total, the merged page is byte-identical to the unsharded
//!   answer for any shard count (DESIGN.md §11, §13).
//!
//! An unreachable shard is a typed `503 shard unavailable`, never a 500
//! or a hang (the shard timeout bounds every call). Fronts also answer
//! `/internal/search` (returning merged lines *with* prefixes), so fronts
//! compose over fronts.

use crate::client::{http_get, http_post, FetchedResponse};
use crate::http::{Request, Response};
use crate::ServeError;
use std::time::Duration;

/// Virtual nodes per shard on the consistent-hash ring. Enough to spread
/// load within a few percent of even for small shard counts.
const VNODES: usize = 64;

/// Shard fan-out state for a front server.
#[derive(Debug)]
pub struct Front {
    shards: Vec<String>,
    /// Sorted (hash point, shard index) ring.
    ring: Vec<(u64, usize)>,
    timeout: Duration,
}

fn fnv(key: &str) -> u64 {
    // FNV-1a alone avalanches poorly in its last step: keys differing
    // only in trailing digits hash into a narrow band, which starves
    // ring arcs. A 64-bit mix finalizer (MurmurHash3's fmix64) spreads
    // them across the full ring. Still fully deterministic.
    let mut x = lesm_core::fnv1a64(key.as_bytes());
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

impl Front {
    /// A front over the given shard addresses (e.g. `127.0.0.1:9000`).
    pub fn new(shards: Vec<String>, timeout: Duration) -> Result<Self, ServeError> {
        if shards.is_empty() {
            return Err(ServeError::InvalidConfig("front needs at least one shard".into()));
        }
        let mut ring = Vec::with_capacity(shards.len() * VNODES);
        for (i, addr) in shards.iter().enumerate() {
            for v in 0..VNODES {
                ring.push((fnv(&format!("{addr}#{v}")), i));
            }
        }
        // Ties (equal hash points) resolve by shard index so the ring is
        // a pure function of the address list.
        ring.sort_unstable();
        Ok(Self { shards, ring, timeout })
    }

    /// The shard addresses, in manifest order.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Deterministically picks the shard responsible for `key`: the first
    /// ring point at or after `hash(key)`, wrapping around.
    pub fn pick(&self, key: &str) -> &str {
        let h = fnv(key);
        let i = self.ring.partition_point(|&(point, _)| point < h);
        let (_, shard) = self.ring[i % self.ring.len()];
        &self.shards[shard]
    }

    /// Forwards a request any shard can answer (`/topics/*`,
    /// `/hierarchy`, `POST /query`) to the shard the ring picks for its
    /// cache key, and relays the response.
    pub fn forward(&self, req: &Request) -> Response {
        let (target, addr) = (req.target(), self.pick(&req.cache_key()));
        let fetched = if req.method == "POST" {
            http_post(addr, &target, &req.body, self.timeout)
        } else {
            http_get(addr, &target, self.timeout)
        };
        match fetched {
            Ok(fetched) => relay(fetched),
            Err(e) => Response::error(503, &format!("shard unavailable: {e}")),
        }
    }

    /// Answers `/search` (stripped lines) or `/internal/search` (merged
    /// lines with score-bits/doc-id prefixes intact) by full fan-out.
    pub fn search(&self, req: &Request, default_top: usize, internal: bool) -> Response {
        let top = match crate::server::search_params(req, default_top) {
            Ok((_, top)) => top,
            Err(bad) => return bad,
        };
        let target = if req.raw_query.is_empty() {
            "/internal/search".to_string()
        } else {
            format!("/internal/search?{}", req.raw_query)
        };
        let mut merged: Vec<(f64, u64, String)> = Vec::new();
        for addr in &self.shards {
            let fetched = match http_get(addr, &target, self.timeout) {
                Ok(f) => f,
                Err(e) => return Response::error(503, &format!("shard unavailable: {e}")),
            };
            if fetched.status != 200 {
                return Response::error(503, &format!("shard {addr} answered {}", fetched.status));
            }
            for line in fetched.text().lines() {
                match parse_internal_line(line) {
                    Some(entry) => merged.push(entry),
                    None => {
                        return Response::error(503, &format!("shard {addr} sent a bad line"));
                    }
                }
            }
        }
        // The exact order `lesm_core::search::search` sorts hits into;
        // (score, doc) pairs are unique across shards, so this order is
        // total and the merge is deterministic.
        merged.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        merged.truncate(top);
        let mut body = String::new();
        for (score, doc, line) in &merged {
            if internal {
                body.push_str(&format!("{:016x} {} {}", score.to_bits(), doc, line));
            } else {
                body.push_str(line);
            }
            body.push('\n');
        }
        Response::ok(body)
    }
}

/// Parses one `/internal/search` line: `{score_bits:016x} {doc} {rest}`.
fn parse_internal_line(line: &str) -> Option<(f64, u64, String)> {
    let (bits_hex, rest) = line.split_once(' ')?;
    let (doc_str, rendered) = rest.split_once(' ')?;
    let bits = u64::from_str_radix(bits_hex, 16).ok()?;
    let doc = doc_str.parse().ok()?;
    Some((f64::from_bits(bits), doc, rendered.to_string()))
}

/// Converts a fetched shard response into one the front can serve.
fn relay(fetched: FetchedResponse) -> Response {
    let content_type: &'static str = if fetched.content_type.starts_with("application/json") {
        "application/json"
    } else {
        "text/plain; charset=utf-8"
    };
    Response { status: fetched.status, content_type, body: fetched.body }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pick_is_deterministic_and_complete() {
        let shards = vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()];
        let front = Front::new(shards.clone(), Duration::from_secs(1)).expect("front");
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let key = format!("/topics/{i}");
            let picked = front.pick(&key).to_string();
            assert_eq!(picked, front.pick(&key), "pick must be stable");
            seen.insert(picked);
        }
        // With 64 vnodes per shard, 1000 keys must touch every shard.
        assert_eq!(seen.len(), shards.len());
    }

    #[test]
    fn empty_shard_list_is_invalid() {
        assert!(Front::new(Vec::new(), Duration::from_secs(1)).is_err());
    }

    #[test]
    fn internal_lines_round_trip() {
        let line = format!("{:016x} 42 doc    42  score 1.500  topic o/1  text", 1.5f64.to_bits());
        let (score, doc, rest) = parse_internal_line(&line).expect("parse");
        assert_eq!(score, 1.5);
        assert_eq!(doc, 42);
        assert_eq!(rest, "doc    42  score 1.500  topic o/1  text");
        assert!(parse_internal_line("garbage").is_none());
        assert!(parse_internal_line("zz 1 x").is_none());
    }
}
