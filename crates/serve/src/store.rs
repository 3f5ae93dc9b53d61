//! A versioned snapshot store: the hot-swap substrate.
//!
//! Layout of a store directory:
//!
//! ```text
//! store/
//!   v0001.lesm     # immutable v2 snapshot artifacts
//!   v0002.lesm
//!   CURRENT        # the file name of the active version, one line
//! ```
//!
//! Publishing writes the artifact under the next version number, then
//! atomically repoints `CURRENT` (write-temp-then-rename, so a reader
//! never observes a partial pointer). A serving process polls `CURRENT`
//! and swaps its in-memory model when the pointer changes; artifacts are
//! never mutated in place, so an in-flight request keeps the model it
//! started with.
//!
//! Crash consistency: the artifact is fsynced before the pointer moves,
//! the tmp pointer is fsynced before the rename, and the store directory
//! is fsynced after it — so a `CURRENT` that survives a crash only ever
//! names a fully durable artifact.

use crate::query::{load_model_file, Model};
use crate::SnapshotError;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The pointer file name.
pub const CURRENT: &str = "CURRENT";

/// Writes `bytes` to `path` and fsyncs the file before returning, so the
/// contents are durable before any pointer can reference them.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut f = std::fs::File::create(path).map_err(SnapshotError::Io)?;
    f.write_all(bytes).map_err(SnapshotError::Io)?;
    f.sync_all().map_err(SnapshotError::Io)?;
    Ok(())
}

/// Fsyncs the directory itself so a rename inside it is durable.
fn sync_dir(dir: &Path) -> Result<(), SnapshotError> {
    std::fs::File::open(dir).map_err(SnapshotError::Io)?.sync_all().map_err(SnapshotError::Io)
}

/// Publishes `bytes` as the next version in `dir` (creating the store on
/// first use) and repoints `CURRENT` at it. Returns the artifact file
/// name, e.g. `v0003.lesm`.
///
/// Ordering contract: artifact fsync → tmp-pointer fsync → rename →
/// directory fsync. Every prefix of that sequence leaves the store in a
/// state where `CURRENT` (old or new) names a readable artifact.
pub fn publish(dir: &Path, bytes: &[u8]) -> Result<String, SnapshotError> {
    std::fs::create_dir_all(dir).map_err(SnapshotError::Io)?;
    let next = 1 + latest_version(dir)?.unwrap_or(0);
    let name = format!("v{next:04}.lesm");
    write_synced(&dir.join(&name), bytes)?;
    let tmp = dir.join(format!("{CURRENT}.tmp"));
    write_synced(&tmp, format!("{name}\n").as_bytes())?;
    std::fs::rename(&tmp, dir.join(CURRENT)).map_err(SnapshotError::Io)?;
    sync_dir(dir)?;
    Ok(name)
}

/// Replaces the file at `path` with `bytes` durably: the bytes go to a
/// sibling `.tmp` file that is fsynced, renamed over `path`, and then the
/// parent directory is fsynced. A reader (or a crash) sees the old or the
/// new contents in full, never a torn file.
pub fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    write_synced(&tmp, bytes)?;
    std::fs::rename(&tmp, path).map_err(SnapshotError::Io)?;
    sync_dir(path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new(".")))
}

/// The version number of a `v{N}.lesm` file name, `N` all ASCII digits.
fn version_of(name: &str) -> Option<u64> {
    let n = name.strip_prefix('v')?.strip_suffix(".lesm")?;
    if n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    n.parse().ok()
}

/// The file name `CURRENT` points at, if the store has one. A pointer
/// that is not a `v{N}.lesm` file name is [`SnapshotError::BadPointer`],
/// so joining it to the store directory never leaves the store.
pub fn current_version(dir: &Path) -> Result<Option<String>, SnapshotError> {
    let text = match std::fs::read_to_string(dir.join(CURRENT)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    let name = text.trim();
    if name.is_empty() {
        return Ok(None);
    }
    if version_of(name).is_none() {
        return Err(SnapshotError::BadPointer { found: name.to_string() });
    }
    Ok(Some(name.to_string()))
}

/// Loads the active version. Returns the artifact file name alongside
/// the model so callers can detect staleness later.
pub fn load_current(dir: &Path) -> Result<(String, Model), SnapshotError> {
    let name = current_version(dir)?.ok_or_else(|| {
        SnapshotError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("store {} has no CURRENT pointer", dir.display()),
        ))
    })?;
    let path: PathBuf = dir.join(&name);
    let model = load_model_file(&path.to_string_lossy())?;
    Ok((name, model))
}

/// Highest version number present in `dir` (`v{N:04}.lesm` files).
fn latest_version(dir: &Path) -> Result<Option<u64>, SnapshotError> {
    let mut max = None;
    for entry in std::fs::read_dir(dir).map_err(SnapshotError::Io)? {
        let entry = entry.map_err(SnapshotError::Io)?;
        let name = entry.file_name();
        if let Some(n) = name.to_str().and_then(version_of) {
            max = Some(max.map_or(n, |m: u64| m.max(n)));
        }
    }
    Ok(max)
}

/// Whether `path` looks like a store directory (has a `CURRENT` pointer).
pub fn is_store_dir(path: &Path) -> bool {
    path.is_dir() && path.join(CURRENT).is_file()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lesm-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_assigns_increasing_versions_and_repoints_current() {
        let dir = tmp_dir("seq");
        assert_eq!(current_version(&dir).ok(), Some(None));
        assert!(!is_store_dir(&dir));
        assert_eq!(publish(&dir, b"one").expect("publish"), "v0001.lesm");
        assert_eq!(publish(&dir, b"two").expect("publish"), "v0002.lesm");
        assert!(is_store_dir(&dir));
        assert_eq!(current_version(&dir).expect("read").as_deref(), Some("v0002.lesm"));
        // Old versions remain readable (rollback is re-pointing CURRENT).
        assert_eq!(std::fs::read(dir.join("v0001.lesm")).expect("v1"), b"one");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reader racing a stream of publishes must never observe a
    /// `CURRENT` pointer naming a file it cannot read back in full:
    /// artifacts are synced and pointer repointing is atomic, so every
    /// observed version resolves to complete bytes.
    #[test]
    fn reader_never_observes_pointer_to_unreadable_version() {
        let dir = tmp_dir("race");
        std::fs::create_dir_all(&dir).expect("mkdir");
        publish(&dir, &payload(1)).expect("seed publish");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader_dir = dir.clone();
            let reader = scope.spawn(|| {
                let dir = reader_dir;
                let mut observed = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let Some(name) = current_version(&dir).expect("pointer readable") else {
                        panic!("CURRENT vanished mid-publish");
                    };
                    let bytes = std::fs::read(dir.join(&name))
                        .unwrap_or_else(|e| panic!("{name} named by CURRENT is unreadable: {e}"));
                    let n: u32 = name
                        .trim_start_matches('v')
                        .trim_end_matches(".lesm")
                        .parse()
                        .expect("version number");
                    assert_eq!(bytes, payload(n), "{name} is torn");
                    observed += 1;
                }
                observed
            });
            for n in 2..=40u32 {
                publish(&dir, &payload(n)).expect("publish");
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(reader.join().expect("reader thread") > 0, "reader never ran");
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Deterministic artifact body for version `n` (reader checks it back).
    fn payload(n: u32) -> Vec<u8> {
        let mut bytes = vec![0u8; 256];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u32).wrapping_mul(n) as u8;
        }
        bytes
    }

    #[test]
    fn replace_file_swaps_contents_and_leaves_no_tmp_behind() {
        let dir = tmp_dir("replace");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.lesm");
        std::fs::write(&path, b"old contents").expect("seed");
        replace_file(&path, b"new").expect("replace");
        assert_eq!(std::fs::read(&path).expect("read back"), b"new");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        assert_eq!(names, ["model.lesm"], "no .tmp may be left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_current_on_an_empty_store_is_a_typed_error() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(load_current(&dir), Err(SnapshotError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn current_accepts_only_a_version_file_name() {
        let dir = tmp_dir("pointer");
        std::fs::create_dir_all(&dir).expect("mkdir");
        for good in ["v0001.lesm", "v12.lesm\n", "  v0003.lesm  "] {
            std::fs::write(dir.join(CURRENT), good).expect("write pointer");
            assert_eq!(current_version(&dir).expect("valid").as_deref(), Some(good.trim()));
        }
        let outside = std::env::temp_dir().join("v0001.lesm");
        for bad in [
            outside.to_str().expect("utf-8 path"),
            "../v0001.lesm",
            "sub/v0001.lesm",
            "v.lesm",
            "v+1.lesm",
            "v0001.lesm.tmp",
            "model.lesm",
        ] {
            std::fs::write(dir.join(CURRENT), bad).expect("write pointer");
            assert!(
                matches!(current_version(&dir), Err(SnapshotError::BadPointer { .. })),
                "{bad:?} must be refused"
            );
            assert!(matches!(load_current(&dir), Err(SnapshotError::BadPointer { .. })));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
