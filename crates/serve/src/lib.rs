//! `lesm-serve` — the mine-once / serve-many subsystem (ROADMAP north
//! star: production-scale query serving over mined latent structures).
//!
//! Two layers:
//!
//! 1. **Snapshot store** ([`v2`]): the `.lesm` artifact format (v2, the
//!    only one), persisting a [`lesm_core::MinedStructure`] plus the
//!    query-time slice of the corpus as checksummed, alignment-padded
//!    arenas that a [`MappedSnapshot`] serves zero-copy, with typed load
//!    errors. `save(to_snapshot(save(m))) == save(m)` byte for byte, and
//!    `to_snapshot(save(m))` is bit-identical to `m`.
//! 2. **Query server** ([`server`]): a dependency-free `std::net`
//!    HTTP/1.1 server with a fixed worker thread pool fed by a bounded
//!    condvar queue, a sharded LRU response cache behind `std::sync::Mutex`
//!    shards (the workspace has no `parking_lot`; the sharding keeps lock
//!    hold times short instead), per-endpoint request/latency/cache
//!    counters at `GET /metrics`, `GET /healthz`, graceful shutdown via an
//!    in-process flag or a signal file, and per-connection read/write
//!    timeouts so a slow client cannot wedge a worker.
//!
//! Serving is deterministic: every response body comes from the
//! renderers in `lesm_core` ([`lesm_core::ModelView`] is implemented by
//! [`MappedSnapshot`]), so it is byte-identical to the offline CLI output
//! for the same model, for any worker count.

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod client;
pub mod front;
pub mod http;
pub mod mapping;
pub mod metrics;
pub mod query;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod store;
pub mod v2;

pub use cache::ShardedLruCache;
pub use front::Front;
pub use metrics::Metrics;
pub use query::{load_model_file, Model};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shard::{load_manifest, write_shards, ShardBy, ShardManifest};
pub use snapshot::{is_snapshot_bytes, is_snapshot_file, Snapshot, MAGIC};
pub use v2::{
    describe_artifact, describe_artifact_file, save_snapshot_v2, save_snapshot_v2_with_lineage,
    DeltaInfo, MappedSnapshot, FORMAT_VERSION_V2,
};

/// Typed failures loading or saving snapshot artifacts.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The artifact does not start with the `LESM` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The artifact was written by an incompatible format version.
    VersionMismatch {
        /// Version stored in the artifact.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The trailer checksum does not match the artifact contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        expected: u64,
        /// Checksum recomputed over the artifact.
        actual: u64,
    },
    /// The artifact ends before a record completes.
    Truncated {
        /// Byte offset of the failed read.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A structurally invalid record (bad tag, bad UTF-8, inconsistent
    /// lengths, out-of-range references).
    Malformed {
        /// Byte offset of the failed read.
        offset: usize,
        /// Human-readable description.
        what: String,
    },
    /// A count or id exceeds the wire format's 32-bit field — writing
    /// would silently truncate, so the save refuses instead.
    TooLarge {
        /// Which field overflowed.
        what: &'static str,
        /// The offending value.
        value: usize,
    },
    /// A store's `CURRENT` pointer holds something other than a
    /// `v{N}.lesm` file name, such as a path that leaves the store.
    BadPointer {
        /// The pointer's text.
        found: String,
    },
    /// The cold section holds a record in a layout this build no longer
    /// decodes (DESIGN.md §13.1). The hot sections still serve; a full
    /// decode, and so `lesm update` and `lesm shard`, needs the artifact
    /// rebuilt with `lesm snapshot`.
    RetiredLayout {
        /// Byte offset of the record (of a fit record's tag).
        offset: usize,
        /// Which record.
        what: &'static str,
    },
}

/// Converts a count/id to the wire's `u32`, refusing values the field
/// cannot hold instead of truncating them.
pub(crate) fn wire_u32(value: usize, what: &'static str) -> Result<u32, SnapshotError> {
    u32::try_from(value).map_err(|_| SnapshotError::TooLarge { what, value })
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:?} (expected {:?})", snapshot::MAGIC)
            }
            SnapshotError::VersionMismatch { found, supported } => {
                write!(f, "snapshot format version {found} unsupported (this build reads {supported})")?;
                if found < supported {
                    write!(f, "; rebuild the artifact from its corpus with `lesm snapshot`")?;
                }
                Ok(())
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: trailer {expected:#018x}, contents {actual:#018x}"
            ),
            SnapshotError::Truncated { offset, needed, available } => write!(
                f,
                "snapshot truncated at byte {offset}: needed {needed} bytes, {available} available"
            ),
            SnapshotError::Malformed { offset, what } => {
                write!(f, "malformed snapshot at byte {offset}: {what}")
            }
            SnapshotError::TooLarge { what, value } => {
                write!(f, "cannot save snapshot: {what} is {value}, over the u32 wire limit")
            }
            SnapshotError::BadPointer { found } => {
                write!(f, "store pointer names {found:?}, not a v{{N}}.lesm file name")
            }
            SnapshotError::RetiredLayout { offset, what } => write!(
                f,
                "snapshot holds {what} at byte {offset} in a retired layout; \
                 rebuild the artifact from its corpus with `lesm snapshot`"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Failures starting or running the query server.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or configuring the listener socket failed.
    Io(std::io::Error),
    /// Invalid server configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server I/O: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid server config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}
