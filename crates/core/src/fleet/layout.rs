//! Typed on-disk layout for attack sessions.
//!
//! A fleet worker writes several artifacts per session — the
//! crash-safe attack journal, the live NDJSON telemetry trace, the
//! submitted spec, the final result — and all of them must land
//! inside *one* session directory that either exists completely or
//! not at all. Resolving each path independently can half-create a
//! session: the journal's parent directory exists, the trace's does
//! not, and a killed worker leaves an undecodable mixture behind.
//! [`SessionLayout`] owns the whole directory, and
//! [`SessionLayout::create`] materialises it atomically (populate a
//! hidden temp directory, then one `rename`), so a directory that
//! exists is always complete.

use core::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the crash-safe attack journal inside a session
/// directory.
pub const JOURNAL_FILE: &str = "attack.journal";

/// File name of the live NDJSON telemetry trace.
pub const TRACE_FILE: &str = "trace.ndjson";

/// File name of the submitted session spec (wire form, one line).
pub const SPEC_FILE: &str = "spec";

/// File name of the terminal session result (one JSON line).
pub const RESULT_FILE: &str = "result.json";

/// File name of the client's submit idempotency token (absent when
/// the submit carried none). Persisted so the boot rescan can rebuild
/// the dedup map and a client retrying across a daemon restart still
/// gets the original session back.
pub const TOKEN_FILE: &str = "client.token";

/// A failure while materialising a session layout.
#[derive(Debug)]
#[non_exhaustive]
pub enum LayoutError {
    /// Creating or renaming the session directory failed.
    Io {
        /// The directory being created.
        dir: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Io { dir, source } => {
                write!(f, "cannot materialise session directory {}: {source}", dir.display())
            }
        }
    }
}

impl std::error::Error for LayoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LayoutError::Io { source, .. } => Some(source),
        }
    }
}

/// The on-disk home of one attack session: a single
/// directory holding the journal, trace, spec and result files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionLayout {
    dir: PathBuf,
}

impl SessionLayout {
    /// The layout of session `id` under the fleet root `root`
    /// (`root/id`).
    #[must_use]
    pub fn for_session(root: impl AsRef<Path>, id: &str) -> Self {
        Self { dir: root.as_ref().join(id) }
    }

    /// The session directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the crash-safe attack journal.
    #[must_use]
    pub fn journal(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Path of the live NDJSON telemetry trace.
    #[must_use]
    pub fn trace(&self) -> PathBuf {
        self.dir.join(TRACE_FILE)
    }

    /// Path of the submitted spec (wire form).
    #[must_use]
    pub fn spec(&self) -> PathBuf {
        self.dir.join(SPEC_FILE)
    }

    /// Path of the terminal result record.
    #[must_use]
    pub fn result(&self) -> PathBuf {
        self.dir.join(RESULT_FILE)
    }

    /// Path of the submit idempotency token (may not exist).
    #[must_use]
    pub fn token(&self) -> PathBuf {
        self.dir.join(TOKEN_FILE)
    }

    /// Whether the session directory exists (and is therefore
    /// complete — see [`SessionLayout::create`]).
    #[must_use]
    pub fn exists(&self) -> bool {
        self.dir.is_dir()
    }

    /// Materialises the session directory atomically: contents are
    /// staged in a hidden sibling (`.<name>.tmp-<pid>`) and published
    /// with a single `rename`, so a crash mid-create leaves no
    /// half-built directory under the session's name. `seed_files`
    /// are written into the staged directory before the rename
    /// (`(file name, contents)` pairs — the spec, typically).
    /// Idempotent: an existing directory is left untouched.
    ///
    /// # Errors
    ///
    /// [`LayoutError::Io`] when staging or renaming fails.
    pub fn create(&self, seed_files: &[(&str, &str)]) -> Result<(), LayoutError> {
        if self.exists() {
            return Ok(());
        }
        let io_err = |source| LayoutError::Io { dir: self.dir.clone(), source };
        let parent = self.dir.parent().unwrap_or_else(|| Path::new("."));
        fs::create_dir_all(parent).map_err(io_err)?;
        let name = self.dir.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
        let staging = parent.join(format!(".{name}.tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&staging);
        fs::create_dir(&staging).map_err(io_err)?;
        for (file, contents) in seed_files {
            fs::write(staging.join(file), contents).map_err(io_err)?;
        }
        match fs::rename(&staging, &self.dir) {
            Ok(()) => Ok(()),
            // Lost a create race: someone else published the
            // directory first; theirs is complete, ours is surplus.
            Err(_) if self.exists() => {
                let _ = fs::remove_dir_all(&staging);
                Ok(())
            }
            Err(source) => {
                let _ = fs::remove_dir_all(&staging);
                Err(io_err(source))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bitmod-layout-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_is_atomic_and_idempotent() {
        let root = tempdir("atomic");
        let layout = SessionLayout::for_session(&root, "s000001");
        assert!(!layout.exists());
        layout.create(&[(SPEC_FILE, "seed=7\n")]).expect("creates");
        assert!(layout.exists());
        assert_eq!(fs::read_to_string(layout.spec()).expect("spec"), "seed=7\n");
        // No staging residue.
        let residue: Vec<_> = fs::read_dir(&root)
            .expect("root")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(residue.is_empty(), "staging directory must not survive: {residue:?}");
        // Re-creating does not clobber.
        layout.create(&[(SPEC_FILE, "seed=9\n")]).expect("idempotent");
        assert_eq!(fs::read_to_string(layout.spec()).expect("spec"), "seed=7\n");
        let _ = fs::remove_dir_all(&root);
    }
}
