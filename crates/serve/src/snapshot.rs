//! What every `.lesm` artifact shares, whatever reads it: the `LESM`
//! magic (so CLI inputs can be sniffed as TSV or snapshot) and the owned
//! [`Snapshot`] pair that [`crate::MappedSnapshot::to_snapshot`] decodes
//! into. The artifact's bytes, cold section included, are written and
//! read by [`crate::v2`] alone.

use lesm_core::pipeline::MinedStructure;
use lesm_corpus::Corpus;

/// Magic bytes opening every snapshot artifact.
pub const MAGIC: [u8; 4] = *b"LESM";

/// A fully decoded snapshot: the query-time corpus slice plus the mined
/// structure.
#[derive(Debug)]
pub struct Snapshot {
    /// Vocabulary, entity catalog, and document tokens/entities.
    pub corpus: Corpus,
    /// The mined structure served to queries.
    pub mined: MinedStructure,
}

/// Whether `prefix` starts with the snapshot magic (format sniffing for
/// CLI inputs that may be either TSV or `.lesm`).
pub fn is_snapshot_bytes(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// Whether the file at `path` begins with the snapshot magic.
pub fn is_snapshot_file(path: &str) -> bool {
    use std::io::Read as _;
    let mut head = [0u8; 4];
    match std::fs::File::open(path) {
        Ok(mut f) => f.read_exact(&mut head).is_ok() && is_snapshot_bytes(&head),
        Err(_) => false,
    }
}
