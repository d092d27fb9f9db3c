//! The summary registry: named, hot-swappable flat CST summaries.
//!
//! The registry owns every summary the server can answer queries from,
//! keyed by name. Readers (`/estimate` handlers) clone an
//! `Arc<FlatCst>` out under a read lock and then estimate entirely
//! lock-free; the write lock is only taken for the brief pointer swap
//! during a reload.
//! Reloads are **fail-safe**: a summary whose file became unreadable or
//! corrupt keeps serving its previous in-memory version, and the error
//! is reported to the caller — an operator fat-fingering a file must
//! never take a serving summary down.
//!
//! With a [`SnapshotStore`] attached the registry also becomes
//! **crash-safe**: every successful (re)load is persisted as a
//! checksummed snapshot generation, and [`load_or_recover`] can bring a
//! summary back from the last good committed generation when its spec
//! file is gone or corrupt at startup. An entry serving anything other
//! than its freshly loaded spec file is *stale* (degraded mode): the
//! flag is surfaced per summary in `/healthz`, as the
//! `twig_serve_degraded` gauge, and as the `X-Twig-Stale-Generation`
//! response header on estimates.
//!
//! Every summary is a flat `TWIGFLT1` container, memory-mapped and
//! served zero-copy; an owned `TWIGCST` file fails to load (convert it
//! with `twig pack`). A reload is therefore a *map-swap*: the write
//! lock covers only the `Arc` pointer exchange, and the old
//! generation's mapping is unmapped when the last in-flight request
//! drops its `Arc` clone. Snapshot payloads are the container bytes,
//! and recovery adopts them as heap-backed summaries.
//!
//! [`load_or_recover`]: SummaryRegistry::load_or_recover

use std::path::PathBuf;
use std::sync::{Arc, OnceLock, RwLock};

use twig_flat::{FlatCst, FlatError};
use twig_util::metrics::Counter;

use crate::snapshot::SnapshotStore;

/// Where a summary comes from: a registry name plus the file backing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummarySpec {
    /// Registry key, e.g. `default`.
    pub name: String,
    /// Path to the flat (`TWIGFLT1`) summary file.
    pub path: PathBuf,
}

impl SummarySpec {
    /// Parses a CLI-style spec: `name=path`, or a bare path whose file
    /// stem becomes the name.
    pub fn parse(text: &str) -> Result<SummarySpec, String> {
        let (name, path) = match text.split_once('=') {
            Some((name, path)) => {
                if name.is_empty() || path.is_empty() {
                    return Err(format!("invalid summary spec '{text}' (want name=path)"));
                }
                (name.to_owned(), PathBuf::from(path))
            }
            None => {
                let path = PathBuf::from(text);
                let Some(stem) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
                    return Err(format!("cannot derive a summary name from '{text}'"));
                };
                (stem, path)
            }
        };
        Ok(SummarySpec { name, path })
    }
}

/// A failure to load one summary. Chains to the [`FlatError`] (and
/// through it to `io::Error`) via
/// [`source`](std::error::Error::source), so callers can render the
/// full cause chain in one error envelope.
#[derive(Debug)]
pub struct LoadError {
    /// The registry name being (re)loaded.
    pub name: String,
    /// The file that failed.
    pub path: PathBuf,
    /// The underlying open or validation failure.
    pub source: FlatError,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot load summary '{}' from {}", self.name, self.path.display())
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Renders `err` and its full `source()` chain as one line, outermost
/// first: `cannot load summary 'x' from p: flat summary I/O: …`. This is the
/// uniform error envelope text for load failures.
#[must_use]
pub fn error_chain(err: &dyn std::error::Error) -> String {
    let mut text = err.to_string();
    let mut cursor = err.source();
    while let Some(cause) = cursor {
        let rendered = cause.to_string();
        // Skip a cause whose Display the parent already inlined.
        if !text.ends_with(&rendered) {
            text.push_str(": ");
            text.push_str(&rendered);
        }
        cursor = cause.source();
    }
    text
}

struct Entry {
    spec: SummarySpec,
    summary: Arc<FlatCst>,
    /// Bumped on every successful (re)load; lets clients observe swaps.
    generation: u64,
    /// Degraded mode when set: the served summary is *not* a fresh read
    /// of the spec file — the last reload failed, or the entry was
    /// recovered from a snapshot — and this is the rendered cause chain
    /// of that failure. Cleared by the next successful (re)load.
    last_error: Option<String>,
}

/// Descriptive snapshot of one registry entry (for `/summaries`).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryInfo {
    /// Registry key.
    pub name: String,
    /// Backing file.
    pub path: PathBuf,
    /// Reload generation (1 = initial load).
    pub generation: u64,
    /// Size of the flat container being served.
    pub file_bytes: usize,
    /// Trie nodes in the summary.
    pub nodes: usize,
    /// Data elements summarized (`n`).
    pub n: u64,
    /// Prune threshold.
    pub threshold: u32,
    /// Min-hash signature length.
    pub signature_len: usize,
    /// Backing of the served container: `flat+mmap`, or `flat+heap`
    /// for a summary recovered from a snapshot.
    pub format: &'static str,
    /// Degraded mode: serving a stale generation (failed reload or
    /// snapshot recovery).
    pub stale: bool,
    /// The failure that made the entry stale, as a rendered cause chain.
    pub last_error: Option<String>,
}

/// How [`SummaryRegistry::load_or_recover`] satisfied a load request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The spec file loaded cleanly; the entry serves it at this
    /// generation.
    Fresh(u64),
    /// The spec file failed but a committed snapshot stood in; the
    /// entry serves the snapshot, marked stale.
    Recovered {
        /// Generation of the recovered snapshot (the entry adopts it).
        generation: u64,
        /// Rendered cause chain of the spec-file failure.
        error: String,
    },
}

/// Named summaries behind a reader-writer lock.
#[derive(Default)]
pub struct SummaryRegistry {
    entries: RwLock<Vec<Entry>>,
    /// Optional crash-safe snapshot store (set once at startup).
    store: OnceLock<SnapshotStore>,
    /// Failed snapshot persists (serving was unaffected).
    snapshot_failures: Counter,
}

impl SummaryRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> SummaryRegistry {
        SummaryRegistry::default()
    }

    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, Vec<Entry>> {
        // Entries are swapped whole under the write lock; a panicking
        // writer cannot leave them half-updated, so poison recovery is
        // sound.
        self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_entries(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Entry>> {
        self.entries.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attaches the crash-safe snapshot store. Returns `false` (and
    /// leaves the original) if a store was already attached.
    pub fn attach_store(&self, store: SnapshotStore) -> bool {
        self.store.set(store).is_ok()
    }

    /// The attached snapshot store, if any.
    #[must_use]
    pub fn snapshot_store(&self) -> Option<&SnapshotStore> {
        OnceLock::get(&self.store)
    }

    /// Failed snapshot persists since startup (serving was unaffected;
    /// exported as `twig_serve_snapshot_failures_total`).
    #[must_use]
    pub fn snapshot_failure_count(&self) -> u64 {
        Counter::get(&self.snapshot_failures)
    }

    /// Installs a loaded summary, returning its new generation. The
    /// write lock covers only this pointer swap — a reload is a
    /// *map-swap*, and the displaced generation's mapping is released
    /// when the last reader drops its `Arc`. `generation` pins an
    /// explicit generation (snapshot recovery); otherwise the entry's
    /// previous generation + 1 is used. `last_error` marks the entry
    /// stale.
    fn install(
        &self,
        spec: SummarySpec,
        summary: Arc<FlatCst>,
        generation: Option<u64>,
        last_error: Option<String>,
    ) -> u64 {
        let mut entries = self.write_entries();
        match entries.iter().position(|e| e.spec.name == spec.name) {
            Some(at) => {
                let generation =
                    generation.unwrap_or_else(|| entries[at].generation.saturating_add(1));
                entries[at] = Entry { spec, summary, generation, last_error };
                generation
            }
            None => {
                let generation = generation.unwrap_or(1);
                entries.push(Entry { spec, summary, generation, last_error });
                generation
            }
        }
    }

    /// Installs a fresh read of `spec`'s file and persists its container
    /// as a snapshot generation, best-effort: a store failure must never
    /// fail the (re)load that produced the summary, so it only bumps
    /// [`snapshot_failure_count`] here.
    ///
    /// [`snapshot_failure_count`]: SummaryRegistry::snapshot_failure_count
    fn install_fresh(&self, spec: SummarySpec, summary: FlatCst) -> u64 {
        let name = spec.name.clone();
        let summary = Arc::new(summary);
        let generation = self.install(spec, Arc::clone(&summary), None, None);
        if let Some(store) = self.store.get() {
            if store.persist(&name, generation, summary.as_bytes()).is_err() {
                self.snapshot_failures.inc();
            }
        }
        generation
    }

    /// Loads `spec` from disk and inserts it (replacing any entry with
    /// the same name). The registry is untouched on failure.
    pub fn load(&self, spec: SummarySpec) -> Result<(), LoadError> {
        let summary = open_spec(&spec)?;
        self.install_fresh(spec, summary);
        Ok(())
    }

    /// Like [`load`](SummaryRegistry::load), but when the spec file
    /// fails and the attached snapshot store holds a committed
    /// generation, serves that snapshot instead — marked stale, with
    /// the spec-file failure recorded. This is the startup-recovery
    /// path: a torn summary file degrades service instead of refusing
    /// to boot.
    pub fn load_or_recover(&self, spec: SummarySpec) -> Result<LoadOutcome, LoadError> {
        let spec_failure = match open_spec(&spec) {
            Ok(summary) => return Ok(LoadOutcome::Fresh(self.install_fresh(spec, summary))),
            Err(err) => err,
        };
        let Some(store) = self.store.get() else {
            return Err(spec_failure);
        };
        let Ok(Some(recovered)) = store.recover(&spec.name) else {
            return Err(spec_failure);
        };
        // A payload that verified its checksum but is not a flat
        // container (an owned summary persisted by an older server) is
        // never served: the spec-file failure stands.
        let Ok(summary) = FlatCst::from_bytes(recovered.payload) else {
            return Err(spec_failure);
        };
        let error = error_chain(&spec_failure);
        let generation =
            self.install(spec, Arc::new(summary), Some(recovered.generation), Some(error.clone()));
        Ok(LoadOutcome::Recovered { generation, error })
    }

    /// The summary registered under `name`, if any. The returned `Arc`
    /// keeps serving the version current at lookup time even if a reload
    /// swaps the entry mid-request — estimates within one request are
    /// always computed against one consistent summary.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<FlatCst>> {
        self.read_entries().iter().find(|e| e.spec.name == name).map(|e| Arc::clone(&e.summary))
    }

    /// Like [`get`](SummaryRegistry::get), but also returns the entry's
    /// reload generation — the component of the plan-cache key that
    /// makes cached plans self-invalidating across reloads — and its
    /// staleness (degraded mode) for the response header.
    pub(crate) fn get_for_serving(&self, name: &str) -> Option<(Arc<FlatCst>, u64, bool)> {
        self.read_entries()
            .iter()
            .find(|e| e.spec.name == name)
            .map(|e| (Arc::clone(&e.summary), e.generation, e.last_error.is_some()))
    }

    /// Number of entries currently serving a stale generation (the
    /// `twig_serve_degraded` gauge).
    #[must_use]
    pub fn degraded(&self) -> u64 {
        let mut count = 0u64;
        for entry in &*self.read_entries() {
            if entry.last_error.is_some() {
                count += 1;
            }
        }
        count
    }

    /// Registered names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.read_entries().iter().map(|e| e.spec.name.clone()).collect()
    }

    /// Descriptive snapshots of every entry.
    #[must_use]
    pub fn infos(&self) -> Vec<SummaryInfo> {
        self.read_entries()
            .iter()
            .map(|e| SummaryInfo {
                name: e.spec.name.clone(),
                path: e.spec.path.clone(),
                generation: e.generation,
                file_bytes: e.summary.file_len(),
                nodes: e.summary.node_count(),
                n: e.summary.n(),
                threshold: e.summary.threshold(),
                signature_len: e.summary.signature_len(),
                format: if e.summary.is_mapped() { "flat+mmap" } else { "flat+heap" },
                stale: e.last_error.is_some(),
                last_error: e.last_error.clone(),
            })
            .collect()
    }

    /// Number of registered summaries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read_entries().len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read_entries().is_empty()
    }

    /// Re-reads every entry's backing file. Files are read and parsed
    /// *outside* the lock (a slow disk cannot stall readers); each entry
    /// is then swapped in under the write lock only on success. Failed
    /// entries keep serving their previous summary. Returns per-name
    /// results with the new generation on success.
    pub fn reload_all(&self) -> Vec<(String, Result<u64, LoadError>)> {
        let specs: Vec<SummarySpec> = self.read_entries().iter().map(|e| e.spec.clone()).collect();
        let mut results = Vec::with_capacity(specs.len());
        for spec in specs {
            let name = spec.name.clone();
            match open_spec(&spec) {
                Err(err) => {
                    // Degraded mode: keep serving the old generation and
                    // record why it is now stale.
                    let chain = error_chain(&err);
                    let mut entries = self.write_entries();
                    for entry in &mut *entries {
                        if entry.spec.name == name {
                            entry.last_error = Some(chain.clone());
                        }
                    }
                    drop(entries);
                    results.push((name, Err(err)));
                }
                Ok(summary) => results.push((name, Ok(self.install_fresh(spec, summary)))),
            }
        }
        results
    }

    /// Quarantined snapshot files currently sitting in the attached
    /// store: `(count, newest file name)`. `(0, None)` without a store.
    /// Surfaced in `/healthz` and as
    /// `twig_serve_snapshot_quarantined_total`.
    #[must_use]
    pub fn quarantined_snapshots(&self) -> (u64, Option<String>) {
        self.store.get().map_or((0, None), SnapshotStore::quarantined)
    }
}

/// Maps a spec file as a flat summary (zero-copy; `FlatCst::open`
/// falls back to the heap where mapping fails).
///
/// Failpoint `registry.load`: `error` injects an I/O failure; `partial(p)`
/// reads the file to the heap and hands the validator only the first `p`
/// percent of it — a torn read.
fn open_spec(spec: &SummarySpec) -> Result<FlatCst, LoadError> {
    let wrap =
        |source: FlatError| LoadError { name: spec.name.clone(), path: spec.path.clone(), source };
    if let Some(fault) = twig_util::failpoint!("registry.load") {
        let mut bytes = std::fs::read(&spec.path).map_err(|e| wrap(e.into()))?;
        match fault {
            twig_util::failpoint::Fault::Error => {
                return Err(wrap(std::io::Error::other("injected fault at registry.load").into()));
            }
            twig_util::failpoint::Fault::Errno(code) => {
                return Err(wrap(std::io::Error::from_raw_os_error(code).into()));
            }
            twig_util::failpoint::Fault::Partial(keep_percent) => {
                // Env-sourced percentage: checked scale, same as the
                // `flat.pack` failpoint.
                let keep = bytes
                    .len()
                    .checked_mul(usize::try_from(keep_percent.min(100)).unwrap_or(100))
                    .map_or(bytes.len(), |scaled| scaled / 100);
                bytes.truncate(keep);
            }
        }
        return FlatCst::from_bytes(bytes).map_err(wrap);
    }
    FlatCst::open(&spec.path).map_err(wrap)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use twig_core::{Cst, CstConfig, SpaceBudget};
    use twig_tree::DataTree;

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "twig-registry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a flat summary of `xml` to `path` (temp file + rename, so
    /// a live mapping of the old file is never truncated).
    fn write_summary(path: &Path, xml: &str) -> Cst {
        let tree = DataTree::from_xml(xml).unwrap();
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() },
        )
        .unwrap();
        twig_flat::writer::write_file(&cst, path).unwrap();
        cst
    }

    #[test]
    fn spec_parsing() {
        let spec = SummarySpec::parse("main=/tmp/a.flt").unwrap();
        assert_eq!(spec.name, "main");
        assert_eq!(spec.path, PathBuf::from("/tmp/a.flt"));
        let spec = SummarySpec::parse("/tmp/dblp.flt").unwrap();
        assert_eq!(spec.name, "dblp");
        assert!(SummarySpec::parse("=x").is_err());
        assert!(SummarySpec::parse("x=").is_err());
    }

    #[test]
    fn load_get_reload_and_failsafe() {
        let dir = temp_dir();
        let path = dir.join("main.flt");
        let original = write_summary(&path, "<r><a><b>x</b></a></r>");
        let registry = SummaryRegistry::new();
        registry.load(SummarySpec { name: "main".into(), path: path.clone() }).unwrap();
        assert_eq!(registry.names(), ["main"]);
        let served = registry.get("main").unwrap();
        assert_eq!(served.node_count(), original.node_count());
        assert!(registry.get("other").is_none());
        assert_eq!(registry.infos()[0].generation, 1);

        // Swap the file for a different tree; reload picks it up.
        let replacement = write_summary(&path, "<r><a><b>x</b></a><c><d>y</d><d>z</d></c></r>");
        let results = registry.reload_all();
        assert!(matches!(results[0], (_, Ok(2))));
        assert_eq!(registry.get("main").unwrap().node_count(), replacement.node_count());

        // Corrupt the file: reload fails, old summary keeps serving.
        let corrupt = dir.join("corrupt.tmp");
        std::fs::write(&corrupt, [0x67u8; 64]).unwrap();
        std::fs::rename(&corrupt, &path).unwrap();
        let results = registry.reload_all();
        let (_, Err(err)) = &results[0] else { panic!("expected failure") };
        let chain = error_chain(err);
        assert!(chain.contains("cannot load summary 'main'"), "{chain}");
        assert!(chain.contains("not a TWIGFLT1 flat summary"), "{chain}");
        assert_eq!(registry.get("main").unwrap().node_count(), replacement.node_count());
        assert_eq!(registry.infos()[0].generation, 2, "failed reload must not bump");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_chain_includes_io_cause() {
        let registry = SummaryRegistry::new();
        let err = registry
            .load(SummarySpec { name: "x".into(), path: "/nonexistent/x.flt".into() })
            .unwrap_err();
        let chain = error_chain(&err);
        assert!(chain.contains("cannot load summary 'x'"), "{chain}");
        assert!(chain.contains("flat summary I/O"), "{chain}");
        // The io::Error itself is the chain root.
        use std::error::Error as _;
        assert!(err.source().unwrap().source().is_some(), "FlatError::Io chains to io::Error");
    }
}
