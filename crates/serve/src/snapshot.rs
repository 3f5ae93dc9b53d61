//! What every `.lesm` artifact shares, whatever reads it: the `LESM`
//! magic (so CLI inputs can be sniffed as TSV or snapshot), the owned
//! [`Snapshot`] pair that [`crate::MappedSnapshot::to_snapshot`] decodes
//! into, and the streaming codecs for per-topic networks and EM fits that
//! the v2 artifact's cold section stores (see [`crate::v2`]).
//!
//! Floats are stored as raw IEEE-754 bits, so decoding is bit-identical
//! to what was encoded. Corruption surfaces as typed [`SnapshotError`]s —
//! never panics.

use crate::wire::{ByteReader, ByteWriter};
use crate::SnapshotError;
use lesm_core::pipeline::MinedStructure;
use lesm_corpus::Corpus;
use lesm_hier::em::EmFit;
use lesm_net::{LinkBlock, TypedNetwork};
use std::sync::Arc;

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

pub(crate) fn encode_network(w: &mut ByteWriter, net: &TypedNetwork) {
    w.put_usize(net.type_names.len());
    for name in &net.type_names {
        w.put_str(name);
    }
    w.put_usize(net.node_counts.len());
    for &n in &net.node_counts {
        w.put_usize(n);
    }
    w.put_usize(net.blocks.len());
    for block in &net.blocks {
        w.put_usize(block.tx);
        w.put_usize(block.ty);
        w.put_usize(block.edges.len());
        for &(i, j, weight) in &block.edges {
            w.put_u32(i);
            w.put_u32(j);
            w.put_f64(weight);
        }
    }
}

pub(crate) fn decode_network(r: &mut ByteReader) -> Result<TypedNetwork, SnapshotError> {
    let n_types = r.get_len(8)?;
    let mut type_names = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        type_names.push(r.get_str()?);
    }
    let n_counts = r.get_len(8)?;
    if n_counts != n_types {
        return Err(SnapshotError::Malformed {
            offset: r.position(),
            what: format!("network has {n_types} type names but {n_counts} node counts"),
        });
    }
    let mut node_counts = Vec::with_capacity(n_counts);
    for _ in 0..n_counts {
        node_counts.push(r.get_u64()? as usize);
    }
    let n_blocks = r.get_len(8)?;
    let mut net = TypedNetwork::new(type_names, node_counts);
    for _ in 0..n_blocks {
        let tx = r.get_u64()? as usize;
        let ty = r.get_u64()? as usize;
        let n_edges = r.get_len(16)?;
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let i = r.get_u32()?;
            let j = r.get_u32()?;
            let weight = r.get_f64()?;
            edges.push((i, j, weight));
        }
        net.blocks.push(LinkBlock { tx, ty, edges });
    }
    net.validate().map_err(|e| SnapshotError::Malformed {
        offset: r.position(),
        what: format!("invalid network: {e}"),
    })?;
    Ok(net)
}

pub(crate) fn encode_fit(w: &mut ByteWriter, fit: &EmFit) {
    w.put_usize(fit.k);
    w.put_usize(fit.phi.len());
    for per_type in &fit.phi {
        w.put_usize(per_type.len());
        for row in per_type {
            w.put_f64_seq(row);
        }
    }
    w.put_usize(fit.phi0.len());
    for row in &fit.phi0 {
        w.put_f64_seq(row);
    }
    w.put_f64_seq(&fit.rho);
    w.put_f64_seq(&fit.alpha);
    w.put_f64_seq(&fit.theta);
    w.put_f64(fit.objective);
    w.put_f64_seq(&fit.objective_trace);
    w.put_f64(fit.loglik);
    w.put_usize(fit.parent_phi.len());
    for row in fit.parent_phi.iter() {
        w.put_f64_seq(row);
    }
}

pub(crate) fn decode_fit(r: &mut ByteReader) -> Result<EmFit, SnapshotError> {
    let k = r.get_u64()? as usize;
    let n_types = r.get_len(8)?;
    let mut phi = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        let n_rows = r.get_len(8)?;
        let mut per_type = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            per_type.push(r.get_f64_seq()?);
        }
        phi.push(per_type);
    }
    let n_phi0 = r.get_len(8)?;
    let mut phi0 = Vec::with_capacity(n_phi0);
    for _ in 0..n_phi0 {
        phi0.push(r.get_f64_seq()?);
    }
    let rho = r.get_f64_seq()?;
    let alpha = r.get_f64_seq()?;
    let theta = r.get_f64_seq()?;
    let objective = r.get_f64()?;
    let objective_trace = r.get_f64_seq()?;
    let loglik = r.get_f64()?;
    let n_parent = r.get_len(8)?;
    let mut parent_phi = Vec::with_capacity(n_parent);
    for _ in 0..n_parent {
        parent_phi.push(r.get_f64_seq()?);
    }
    Ok(EmFit {
        k,
        phi,
        phi0,
        rho,
        alpha,
        theta,
        objective,
        objective_trace,
        loglik,
        parent_phi: Arc::new(parent_phi),
    })
}
