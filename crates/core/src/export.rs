//! Export mined structures to JSON (hand-rolled writer — the workspace
//! deliberately avoids a JSON dependency).
//!
//! The output is the artifact a downstream application would consume: the
//! phrase-represented, entity-enriched topic tree with per-topic scores,
//! in the spirit of the Figure 3.4 visualization.

use crate::view::ModelView;
use std::fmt::Write as _;

/// Renders topic `t` as "phrases / entities…" (the Figure 3.4 artifact):
/// the path, then the top `n` phrases and the top `n` entities of each
/// type. The `/topics/{id}` response body.
pub fn render_topic<V: ModelView>(m: &V, t: usize, n: usize) -> String {
    let mut s = String::new();
    let _ = write!(s, "[{}] ", m.topic_path(t));
    let phrases: Vec<String> =
        m.topic_phrases(t).take(n).map(|(tokens, _, _)| m.render_tokens(tokens)).collect();
    let _ = write!(s, "{{{}}}", phrases.join("; "));
    for x in 0..m.entity_cells(t) {
        let names: Vec<&str> =
            m.topic_entities(t, x).take(n).map(|(id, _)| m.entity_name(x, id)).collect();
        let _ = write!(s, " / {{{}}}", names.join("; "));
    }
    s
}

/// Serializes a mined structure to a pretty-printed JSON string.
pub fn hierarchy_to_json<V: ModelView>(m: &V, top_n: usize) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"topics\": [\n");
    let n = m.num_topics();
    for t in 0..n {
        out.push_str("    {\n");
        push_kv(&mut out, 6, "path", &json_string(m.topic_path(t)));
        push_kv(&mut out, 6, "parent", &match m.topic_parent(t) {
            Some(p) => p.to_string(),
            None => "null".into(),
        });
        push_kv(&mut out, 6, "level", &m.topic_level(t).to_string());
        push_kv(&mut out, 6, "rho", &json_number(m.topic_rho(t)));
        // Phrases.
        out.push_str("      \"phrases\": [");
        for (i, (tokens, score, freq)) in m.topic_phrases(t).take(top_n).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"text\": {}, \"score\": {}, \"freq\": {}}}",
                json_string(&m.render_tokens(tokens)),
                json_number(score),
                json_number(freq)
            );
        }
        out.push_str("],\n");
        // Entities per type.
        out.push_str("      \"entities\": {");
        for x in 0..m.entity_cells(t) {
            if x > 0 {
                out.push_str(", ");
            }
            let type_name = m.entity_type_name(x).unwrap_or("entity");
            let _ = write!(out, "{}: [", json_string(type_name));
            for (i, (id, score)) in m.topic_entities(t, x).take(top_n).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"name\": {}, \"score\": {}}}",
                    json_string(m.entity_name(x, id)),
                    json_number(score)
                );
            }
            out.push(']');
        }
        out.push_str("},\n");
        let children: Vec<String> = m.topic_children(t).map(|c| c.to_string()).collect();
        let _ = writeln!(out, "      \"children\": [{}]", children.join(", "));
        out.push_str(if t + 1 < n { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn push_kv(out: &mut String, indent: usize, key: &str, value: &str) {
    out.push_str(&" ".repeat(indent));
    out.push_str(&format!("\"{key}\": {value},\n"));
}

/// Escapes a string per RFC 8259.
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    push_json_string(&mut out, s);
    out
}

/// Appends `s`, quoted and escaped per RFC 8259, to `out`: the bytes of
/// [`json_string`] without its allocation. Runs of unescaped characters
/// are copied whole; only `"`, `\\` and the ASCII controls are escaped.
pub fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        // The character after the backslash; 0 means a `\u00XX` escape.
        let short = match b {
            b'"' | b'\\' => b,
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0..=0x1f => 0,
            _ => continue,
        };
        // `b` is ASCII, so `i` and `i + 1` are char boundaries.
        out.push_str(&s[start..i]);
        out.push('\\');
        if short == 0 {
            out.push_str("u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push(char::from(short));
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Formats a float as a valid JSON value: finite values as fixed-point
/// numbers, non-finite values (`NaN`, `±inf` — which have no JSON
/// representation) as `null`, and negative zero normalized to `0.000000`
/// (RFC 8259 allows `-0`, but emitting one canonical zero keeps exports
/// byte-stable across platforms and sign-of-zero arithmetic quirks).
pub fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    if x == 0.0 {
        // Covers both +0.0 and -0.0.
        return format!("{:.6}", 0.0);
    }
    format!("{x:.6}")
}

/// A minimal structural well-formedness check used by tests and callers
/// that want a sanity guarantee without a JSON parser dependency: verifies
/// bracket balance outside strings and escape validity inside them.
pub fn is_balanced_json(s: &str) -> bool {
    let mut stack = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => stack.push(c),
            '}' if stack.pop() != Some('{') => return false,
            ']' if stack.pop() != Some('[') => return false,
            _ => {}
        }
    }
    stack.is_empty() && !in_string
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_rfc8259_compliant() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    /// The char-by-char escaper `json_string` used to be: the reference
    /// both escapers must match byte for byte.
    fn reference_json_string(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn push_json_string_appends_exactly_json_string() {
        let mut controls: String = (0u8..0x20).map(char::from).collect();
        controls.push('\u{7f}');
        let cases = [
            "",
            "plain",
            "a\"b\"",
            "\\",
            "back\\slash \\\" mixed",
            &controls,
            "caf\u{e9} \u{4e2d}\u{6587} \u{1f600}\n\u{1f}end",
            "\u{2028}\u{2029}\u{fffd}",
        ];
        for case in cases {
            let expected = reference_json_string(case);
            assert_eq!(json_string(case), expected, "{case:?}");
            let mut out = String::from("prefix:");
            push_json_string(&mut out, case);
            assert_eq!(out, format!("prefix:{expected}"), "{case:?}");
        }
        assert_eq!(json_string("\u{1f}\u{7f}"), "\"\\u001f\u{7f}\"");
    }

    #[test]
    fn numbers_are_finite_or_null() {
        assert_eq!(json_number(1.5), "1.500000");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn negative_zero_is_normalized() {
        assert_eq!(json_number(-0.0), "0.000000");
        assert_eq!(json_number(0.0), "0.000000");
        // A tiny negative value rounds to -0.000000 in fixed-point; that is
        // still valid JSON (leading minus, digits), so it passes through.
        assert_eq!(json_number(-1e-12), "-0.000000");
    }

    #[test]
    fn balance_checker_works() {
        assert!(is_balanced_json("{\"a\": [1, 2, {\"b\": \"}\"}]}"));
        assert!(!is_balanced_json("{\"a\": [}"));
        assert!(!is_balanced_json("{\"a\": \"unterminated}"));
    }

    #[test]
    fn export_produces_balanced_json_with_expected_keys() {
        use crate::pipeline::{LatentStructureMiner, MinerConfig};
        use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
        use lesm_hier::em::{EmConfig, WeightMode};
        use lesm_hier::hierarchy::{CathyConfig, ChildCount};

        let mut cfg = PapersConfig::dblp(300, 7);
        cfg.hierarchy.branching = vec![2];
        cfg.hierarchy.words_per_topic = 10;
        cfg.entity_specs[0].pool_per_node = 4;
        cfg.entity_specs[0].level = 1; // flat tree: authors attach at leaves
        cfg.entity_specs[1].pool_per_node = 2;
        let papers = SyntheticPapers::generate(&cfg).unwrap();
        let mined = LatentStructureMiner::mine(
            &papers.corpus,
            &MinerConfig {
                hierarchy: CathyConfig {
                    children: ChildCount::Fixed(2),
                    max_depth: 1,
                    em: EmConfig {
                        iters: 60,
                        restarts: 2,
                        seed: 1,
                        background: true,
                        weights: WeightMode::Equal,
                        ..EmConfig::default()
                    },
                    min_links: 10,
                    subnet_threshold: 0.5,
                },
                phrase_min_support: 3,
                ..MinerConfig::default()
            },
        )
        .unwrap();
        let json = hierarchy_to_json(&mined.view(&papers.corpus), 5);
        assert!(is_balanced_json(&json), "unbalanced JSON:\n{json}");
        assert!(json.contains("\"topics\""));
        assert!(json.contains("\"phrases\""));
        assert!(json.contains("\"entities\""));
        assert!(json.contains("\"author\""));
        assert!(json.contains("\"venue\""));
        assert!(json.contains("\"path\": \"o/1\""));
    }
}
