//! The loaded model behind a server: a zero-copy [`MappedSnapshot`]
//! answering through the shared renderers of `lesm_core`
//! ([`lesm_core::search`], [`lesm_core::export`]), which read it via
//! [`lesm_core::ModelView`]. Offline CLI output and served responses
//! come from the same code, so they are byte-identical by construction —
//! what lets a sharded tier answer underneath the DESIGN.md §11
//! determinism contract.

use crate::v2::MappedSnapshot;
use crate::SnapshotError;
use lesm_core::export::{hierarchy_to_json, render_topic};
use lesm_core::search::{render_hits, search};
use lesm_core::ModelView;

/// A loaded model: a mapped v2 artifact, the one snapshot format.
#[derive(Debug)]
pub enum Model {
    /// A zero-copy mapped v2 snapshot.
    Mapped(Box<MappedSnapshot>),
}

/// Maps the artifact at `path`. Anything but a v2 artifact fails typed:
/// a v1 artifact with [`SnapshotError::VersionMismatch`].
pub fn load_model_file(path: &str) -> Result<Model, SnapshotError> {
    Ok(Model::Mapped(Box::new(MappedSnapshot::open(path)?)))
}

impl Model {
    fn view(&self) -> &MappedSnapshot {
        let Model::Mapped(m) = self;
        m
    }

    /// Ranked search over the model: one rendered line per hit, exactly
    /// as `lesm search` prints them. Document numbers are global ids.
    pub fn search_lines(&self, query: &str, top: usize) -> Vec<String> {
        let m = self.view();
        render_hits(m, &search(m, m.search_index(), query, top))
    }

    /// Search lines for shard fan-out: each line carries the raw score
    /// bits (hex) and the global document id ahead of the rendered line,
    /// so a front tier can merge shard results in the exact total order
    /// a single server would produce, then strip the prefix.
    pub fn internal_search_lines(&self, query: &str, top: usize) -> Vec<String> {
        let m = self.view();
        let hits = search(m, m.search_index(), query, top);
        hits.iter()
            .zip(render_hits(m, &hits))
            .map(|(h, line)| format!("{:016x} {} {}", h.score.to_bits(), m.doc_id(h.doc), line))
            .collect()
    }

    /// Renders topic `t` (phrases + entities), or `None` out of range.
    pub fn render_topic(&self, t: usize, n: usize) -> Option<String> {
        (t < self.view().num_topics()).then(|| render_topic(self.view(), t, n))
    }

    /// The full hierarchy as pretty-printed JSON.
    pub fn hierarchy_json(&self, top_n: usize) -> String {
        hierarchy_to_json(self.view(), top_n)
    }

    /// The canonical [`lesm_query::IndexParts`] for the query engine,
    /// extracted through the model's [`ModelView`]: documents are keyed
    /// by their **global** ids, and a shard holds every document's
    /// record, so any shard builds the unsharded model's index
    /// (DESIGN.md §14).
    pub fn query_parts(&self) -> Result<lesm_query::IndexParts, String> {
        lesm_query::IndexParts::from_view(self.view()).map_err(|e| e.to_string())
    }
}
