//! Crash-safe snapshot store for registry summaries.
//!
//! The registry persists every successfully loaded summary here so a
//! later startup can keep serving the *last good generation* even when
//! the spec file has been corrupted, truncated, or deleted. The store
//! is a plain directory:
//!
//! ```text
//! <dir>/<name>.gen-<G>.cst     framed summary, one file per generation
//! <dir>/MANIFEST               the commit point (see below)
//! ```
//!
//! Each snapshot file is the served flat (`TWIGFLT1`) container
//! followed by a 24-byte footer: an FNV-1a 64 checksum of the payload,
//! the payload length, and the magic `TWIGSNP1` (all little-endian).
//! A file whose footer does not verify is *torn* — a crash or fault
//! interrupted the write — and recovery quarantines it (renames it
//! aside with a `.quarantined` suffix) rather than serving or deleting
//! evidence.
//!
//! Writes are crash-safe by construction: the framed bytes go to a
//! `.tmp` file, are fsynced, and are renamed into place; only then is
//! the `MANIFEST` rewritten (same temp-file + rename dance) to point at
//! the new generation. The manifest is therefore the commit point — a
//! crash between the snapshot rename and the manifest write leaves a
//! complete-but-uncommitted file that recovery discards, and a crash
//! mid-write leaves a torn file that recovery quarantines; either way
//! the previous committed generation keeps serving.
//!
//! Failpoints (`failpoints` feature): `snapshot.write` (`error` fails
//! before writing; `partial(p)` leaves a torn file at the final path,
//! modelling a crash before the data blocks hit disk) and
//! `snapshot.manifest` (`error` crashes between the snapshot rename and
//! the manifest commit).

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Footer magic: the last 8 bytes of every complete snapshot file.
const FOOTER_MAGIC: &[u8] = b"TWIGSNP1";
/// Footer size: checksum (8) + payload length (8) + magic (8).
const FOOTER_LEN: usize = 24;
const MANIFEST_HEADER: &str = "twig-snapshot-manifest v1";

/// A failure to operate the snapshot store. Corrupt snapshot *files*
/// are not errors — they are quarantined and reported via
/// [`Recovered::quarantined`]; this type covers filesystem failures and
/// unusable summary names.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure during `action` on `path`.
    Io {
        /// What the store was doing.
        action: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying failure.
        source: io::Error,
    },
    /// The summary name cannot be used as a file-name stem.
    BadName {
        /// The offending name.
        name: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { action, path, .. } => {
                write!(f, "snapshot store cannot {action} ({})", path.display())
            }
            SnapshotError::BadName { name } => {
                write!(f, "summary name '{name}' is not usable as a snapshot file name")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            SnapshotError::BadName { .. } => None,
        }
    }
}

fn io_error(action: &'static str, path: &Path, source: io::Error) -> SnapshotError {
    SnapshotError::Io { action, path: path.to_owned(), source }
}

/// The error injected by snapshot failpoints; compiled (but unreachable)
/// in default builds, where the failpoint arms fold away.
fn injected(point: &str) -> io::Error {
    io::Error::other(format!("injected fault at {point}"))
}

/// FNV-1a 64 over `payload` — the footer checksum. Public so tests and
/// the chaos harness can frame or corrupt snapshots deliberately.
#[must_use]
pub fn checksum(payload: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in payload {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn u64_le(chunk: &[u8]) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    for &byte in chunk {
        value |= u64::from(byte) << shift;
        shift += 8;
    }
    value
}

/// `payload` plus the checksum/length/magic footer.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len().saturating_add(FOOTER_LEN));
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&checksum(payload).to_le_bytes());
    framed.extend_from_slice(&twig_util::cast::size_to_u64(payload.len()).to_le_bytes());
    framed.extend_from_slice(FOOTER_MAGIC);
    framed
}

/// Strips and verifies the footer of a framed snapshot file, returning
/// the raw summary payload; `None` means the file is torn or corrupt.
/// Public for `twig pack`, which accepts `TWIGSNP1` snapshot files and
/// migrates their payloads to the flat format.
#[must_use]
pub fn unframe(framed: Vec<u8>) -> Option<Vec<u8>> {
    verified_payload(framed).map(|(payload, _)| payload)
}

/// Strips and verifies the footer; `None` means the file is torn or
/// corrupt. Returns the payload and its footer checksum.
fn verified_payload(mut framed: Vec<u8>) -> Option<(Vec<u8>, u64)> {
    if framed.len() < FOOTER_LEN {
        return None;
    }
    let split = framed.len() - FOOTER_LEN;
    let (payload_checksum, ok) = {
        let (payload, footer) = framed.split_at(split);
        let (checksum_bytes, rest) = footer.split_at(8);
        let (length_bytes, magic) = rest.split_at(8);
        let recorded = u64_le(checksum_bytes);
        let ok = magic == FOOTER_MAGIC
            && u64_le(length_bytes) == twig_util::cast::size_to_u64(payload.len())
            && recorded == checksum(payload);
        (recorded, ok)
    };
    if !ok {
        return None;
    }
    Vec::truncate(&mut framed, split);
    Some((framed, payload_checksum))
}

fn check_name(name: &str) -> Result<(), SnapshotError> {
    let mut plain = !name.is_empty() && name != "." && name != "..";
    for &byte in name.as_bytes() {
        plain =
            plain && (byte.is_ascii_alphanumeric() || byte == b'_' || byte == b'-' || byte == b'.');
    }
    if plain {
        Ok(())
    } else {
        Err(SnapshotError::BadName { name: name.to_owned() })
    }
}

fn snapshot_file_name(name: &str, generation: u64) -> String {
    format!("{name}.gen-{generation}.cst")
}

/// Parses `<name>.gen-<G>.cst` back to `G`; `None` for anything else
/// (temp files, quarantined files, other summaries).
fn parse_generation(file_name: &str, name: &str) -> Option<u64> {
    let tail = file_name.strip_prefix(name)?.strip_prefix(".gen-")?;
    let digits = tail.strip_suffix(".cst")?;
    if digits.is_empty() {
        return None;
    }
    let mut value: u64 = 0;
    for &byte in digits.as_bytes() {
        if !byte.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(byte - b'0'))?;
    }
    Some(value)
}

fn write_file_durably(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut file =
        std::fs::File::create(path).map_err(|e| io_error("create snapshot file", path, e))?;
    file.write_all(bytes).map_err(|e| io_error("write snapshot file", path, e))?;
    file.sync_all().map_err(|e| io_error("sync snapshot file", path, e))?;
    Ok(())
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    name: String,
    generation: u64,
    file: String,
    checksum: u64,
}

/// A summary recovered from the store.
#[derive(Debug)]
pub struct Recovered {
    /// The verified payload (the flat container) of the last good
    /// generation.
    pub payload: Vec<u8>,
    /// The generation the payload was committed as.
    pub generation: u64,
    /// Snapshot files that failed verification and were renamed aside
    /// with a `.quarantined` suffix.
    pub quarantined: Vec<PathBuf>,
}

/// A directory of checksummed, atomically renamed summary snapshots
/// with a manifest as the commit point. See the module docs for the
/// format and crash-safety argument.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    /// Serializes manifest read-modify-write cycles.
    manifest_gate: Mutex<()>,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: &Path) -> Result<SnapshotStore, SnapshotError> {
        std::fs::create_dir_all(dir).map_err(|e| io_error("create snapshot directory", dir, e))?;
        Ok(SnapshotStore { dir: dir.to_owned(), manifest_gate: Mutex::new(()) })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_file(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    /// Persists `payload` as generation `generation` of `name`:
    /// temp-file + fsync + atomic rename, then the manifest commit.
    /// Returns the committed snapshot path. On failure the previously
    /// committed generation is untouched.
    pub fn persist(
        &self,
        name: &str,
        generation: u64,
        payload: &[u8],
    ) -> Result<PathBuf, SnapshotError> {
        check_name(name)?;
        let final_path = self.dir.join(snapshot_file_name(name, generation));
        if let Some(fault) = twig_util::failpoint!("snapshot.write") {
            return Err(apply_write_fault(fault, payload, &final_path));
        }
        let framed = frame(payload);
        let tmp_path = self.dir.join(format!("{name}.gen-{generation}.tmp"));
        write_file_durably(&tmp_path, &framed)?;
        std::fs::rename(&tmp_path, &final_path)
            .map_err(|e| io_error("rename snapshot into place", &final_path, e))?;
        if twig_util::failpoint!("snapshot.manifest").is_some() {
            // Crash window between the snapshot rename and the commit:
            // the new file is complete but the manifest still points at
            // the previous generation.
            return Err(io_error(
                "commit snapshot manifest",
                &self.manifest_file(),
                injected("snapshot.manifest"),
            ));
        }
        self.commit_manifest(name, generation, checksum(payload))?;
        self.collect_garbage(name, generation);
        Ok(final_path)
    }

    /// Recovers the last good committed generation of `name`, if any.
    /// Torn or checksum-mismatched snapshot files are quarantined;
    /// complete files the manifest never committed are discarded.
    pub fn recover(&self, name: &str) -> Result<Option<Recovered>, SnapshotError> {
        check_name(name)?;
        let committed = self.committed_entry(name);
        let mut quarantined = Vec::new();
        let mut found: Option<(Vec<u8>, u64)> = None;
        for (generation, path) in self.candidates(name)? {
            if found.is_some() {
                // Older committed generations stay in place; GC owns them.
                continue;
            }
            let uncommitted = match &committed {
                Some(entry) => generation > entry.generation,
                None => false,
            };
            let framed = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(error) => {
                    return Err(io_error("read snapshot file", &path, error));
                }
            };
            match verified_payload(framed) {
                Some((payload, payload_checksum)) => {
                    if uncommitted {
                        // Complete but never committed (crash between
                        // rename and manifest write): the manifest is the
                        // commit point, so this generation never happened.
                        std::fs::remove_file(&path).ok();
                        continue;
                    }
                    let manifest_disagrees = match &committed {
                        Some(entry) => {
                            entry.generation == generation && entry.checksum != payload_checksum
                        }
                        None => false,
                    };
                    if manifest_disagrees {
                        quarantined.push(quarantine(&path));
                        continue;
                    }
                    found = Some((payload, generation));
                }
                None => {
                    quarantined.push(quarantine(&path));
                }
            }
        }
        Ok(found.map(|(payload, generation)| Recovered { payload, generation, quarantined }))
    }

    /// The committed generation of `name` per the manifest, if any.
    #[must_use]
    pub fn committed_generation(&self, name: &str) -> Option<u64> {
        self.committed_entry(name).map(|entry| entry.generation)
    }

    #[allow(clippy::manual_find)] // not `.find(`: twig-flow resolves that name to PrunedTrie::find
    fn committed_entry(&self, name: &str) -> Option<ManifestEntry> {
        for entry in self.read_manifest() {
            if entry.name == name {
                return Some(entry);
            }
        }
        None
    }

    /// Snapshot files of `name`, newest generation first.
    fn candidates(&self, name: &str) -> Result<Vec<(u64, PathBuf)>, SnapshotError> {
        let listing = std::fs::read_dir(&self.dir)
            .map_err(|e| io_error("list snapshot directory", &self.dir, e))?;
        let mut files = Vec::new();
        for entry in listing {
            let entry = match entry {
                Ok(entry) => entry,
                Err(error) => {
                    return Err(io_error("list snapshot directory", &self.dir, error));
                }
            };
            let file_name = entry.file_name();
            let Some(text) = file_name.to_str() else {
                continue;
            };
            if let Some(generation) = parse_generation(text, name) {
                files.push((generation, self.dir.join(text)));
            }
        }
        files.sort_by_key(|&(generation, _)| std::cmp::Reverse(generation));
        Ok(files)
    }

    fn read_manifest(&self) -> Vec<ManifestEntry> {
        let Ok(text) = std::fs::read_to_string(self.manifest_file()) else {
            return Vec::new();
        };
        let mut entries = Vec::new();
        let mut saw_header = false;
        for line in text.lines() {
            if !saw_header {
                saw_header = true;
                if line.trim() != MANIFEST_HEADER {
                    // Unknown manifest version or garbage: treat as
                    // absent and let footer verification carry recovery.
                    return Vec::new();
                }
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [name, generation, file, checksum] = fields.as_slice() else {
                continue;
            };
            let Some(generation) = parse_decimal(generation) else {
                continue;
            };
            let Some(checksum) = parse_decimal(checksum) else {
                continue;
            };
            entries.push(ManifestEntry {
                name: (*name).to_owned(),
                generation,
                file: (*file).to_owned(),
                checksum,
            });
        }
        entries
    }

    fn commit_manifest(
        &self,
        name: &str,
        generation: u64,
        payload_checksum: u64,
    ) -> Result<(), SnapshotError> {
        let _gate = match self.manifest_gate.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut entries = self.read_manifest();
        entries.retain(|entry| entry.name != name);
        entries.push(ManifestEntry {
            name: name.to_owned(),
            generation,
            file: snapshot_file_name(name, generation),
            checksum: payload_checksum,
        });
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut text = String::new();
        text.push_str(MANIFEST_HEADER);
        text.push('\n');
        for entry in &entries {
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                entry.name, entry.generation, entry.file, entry.checksum
            ));
        }
        let tmp_path = self.dir.join("MANIFEST.tmp");
        write_file_durably(&tmp_path, text.as_bytes())?;
        let manifest = self.manifest_file();
        std::fs::rename(&tmp_path, &manifest)
            .map_err(|e| io_error("rename manifest into place", &manifest, e))?;
        Ok(())
    }

    /// Quarantined snapshot files currently in the store directory:
    /// `(count, newest file name)`. Newest is by modification time,
    /// breaking ties (and timestamp-less platforms) by name. Quarantined
    /// files are evidence of torn writes — recovery renames them aside
    /// instead of deleting — so operators need to see them without
    /// grepping the state dir; `/healthz` and `/metrics` surface this.
    #[must_use]
    pub fn quarantined(&self) -> (u64, Option<String>) {
        let Ok(listing) = std::fs::read_dir(&self.dir) else {
            return (0, None);
        };
        let mut count = 0u64;
        let mut newest: Option<(std::time::SystemTime, String)> = None;
        for entry in listing.flatten() {
            let file_name = entry.file_name();
            let Some(text) = file_name.to_str() else {
                continue;
            };
            if !text.ends_with(".quarantined") {
                continue;
            }
            count += 1;
            let modified = entry
                .metadata()
                .and_then(|meta| meta.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            let candidate = (modified, text.to_owned());
            if newest.as_ref().is_none_or(|best| candidate > *best) {
                newest = Some(candidate);
            }
        }
        (count, newest.map(|(_, name)| name))
    }

    /// Best-effort cleanup: keeps the current and previous generation of
    /// `name`, removes every other generation and stray temp file.
    fn collect_garbage(&self, name: &str, current: u64) {
        let Ok(files) = self.candidates(name) else {
            return;
        };
        for (generation, path) in files {
            if generation != current && generation.wrapping_add(1) != current {
                std::fs::remove_file(&path).ok();
            }
        }
        let Ok(listing) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in listing {
            let Ok(entry) = entry else { continue };
            let file_name = entry.file_name();
            let Some(text) = file_name.to_str() else {
                continue;
            };
            if text.strip_prefix(name).is_some_and(|tail| {
                tail.strip_prefix(".gen-").is_some_and(|rest| rest.strip_suffix(".tmp").is_some())
            }) {
                std::fs::remove_file(self.dir.join(text)).ok();
            }
        }
    }
}

/// Applies a `snapshot.write` fault: `error` fails before touching the
/// filesystem; `partial(p)` leaves a torn file at the *final* path
/// (modelling a crash before the data blocks reached disk) and fails.
fn apply_write_fault(
    fault: twig_util::failpoint::Fault,
    payload: &[u8],
    final_path: &Path,
) -> SnapshotError {
    match fault {
        twig_util::failpoint::Fault::Error => {
            io_error("write snapshot file", final_path, injected("snapshot.write"))
        }
        twig_util::failpoint::Fault::Errno(code) => {
            io_error("write snapshot file", final_path, std::io::Error::from_raw_os_error(code))
        }
        twig_util::failpoint::Fault::Partial(keep_percent) => {
            let framed = frame(payload);
            let keep = framed.len() * keep_percent as usize / 100;
            let (head, _) = framed.split_at(keep);
            std::fs::write(final_path, head).ok();
            io_error("write snapshot file", final_path, injected("snapshot.write"))
        }
    }
}

fn quarantine(path: &Path) -> PathBuf {
    let mut quarantined = path.as_os_str().to_owned();
    quarantined.push(".quarantined");
    let target = PathBuf::from(quarantined);
    match std::fs::rename(path, &target) {
        Ok(()) => target,
        // The torn file could not even be renamed; report it in place.
        Err(_) => path.to_owned(),
    }
}

fn parse_decimal(text: &str) -> Option<u64> {
    if text.is_empty() {
        return None;
    }
    let mut value: u64 = 0;
    for &byte in text.as_bytes() {
        if !byte.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(byte - b'0'))?;
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store() -> (PathBuf, SnapshotStore) {
        let dir = std::env::temp_dir().join(format!(
            "twig-snapshot-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = SnapshotStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn persist_then_recover_roundtrips() {
        let (dir, store) = temp_store();
        let payload = b"hello summary bytes".to_vec();
        let path = store.persist("main", 1, &payload).unwrap();
        assert!(path.exists());
        assert_eq!(store.committed_generation("main"), Some(1));
        let recovered = store.recover("main").unwrap().expect("committed snapshot");
        assert_eq!(recovered.payload, payload);
        assert_eq!(recovered.generation, 1);
        assert!(recovered.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_is_quarantined_and_previous_generation_serves() {
        let (dir, store) = temp_store();
        store.persist("main", 1, b"generation one").unwrap();
        // A torn generation 2: written directly, never committed.
        let torn = dir.join(snapshot_file_name("main", 2));
        std::fs::write(&torn, b"TWIG garbage that is too short or wrong").unwrap();
        let recovered = store.recover("main").unwrap().expect("gen 1 still good");
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.payload, b"generation one");
        assert_eq!(recovered.quarantined.len(), 1);
        assert!(!torn.exists(), "torn file renamed aside");
        assert!(recovered.quarantined[0].to_string_lossy().ends_with(".quarantined"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn complete_but_uncommitted_generation_is_discarded() {
        let (dir, store) = temp_store();
        store.persist("main", 3, b"committed three").unwrap();
        // A *complete* generation 4 that never reached the manifest.
        let orphan = dir.join(snapshot_file_name("main", 4));
        std::fs::write(&orphan, frame(b"orphan four")).unwrap();
        let recovered = store.recover("main").unwrap().expect("gen 3 committed");
        assert_eq!(recovered.generation, 3);
        assert_eq!(recovered.payload, b"committed three");
        assert!(recovered.quarantined.is_empty());
        assert!(!orphan.exists(), "uncommitted complete file removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_mismatch_with_manifest_is_quarantined() {
        let (dir, store) = temp_store();
        store.persist("main", 1, b"real bytes").unwrap();
        // Replace the committed file with a *validly framed* different
        // payload: footer verifies, manifest checksum disagrees.
        let path = dir.join(snapshot_file_name("main", 1));
        std::fs::write(&path, frame(b"swapped bytes")).unwrap();
        let recovered = store.recover("main").unwrap();
        assert!(recovered.is_none(), "no good generation left");
        assert!(!path.exists(), "swapped file quarantined");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_collection_keeps_two_generations() {
        let (dir, store) = temp_store();
        for generation in 1..=4u64 {
            store.persist("main", generation, format!("gen {generation}").as_bytes()).unwrap();
        }
        assert!(!dir.join(snapshot_file_name("main", 1)).exists());
        assert!(!dir.join(snapshot_file_name("main", 2)).exists());
        assert!(dir.join(snapshot_file_name("main", 3)).exists());
        assert!(dir.join(snapshot_file_name("main", 4)).exists());
        // Another summary's files are untouched by main's GC.
        store.persist("other", 1, b"other one").unwrap();
        assert!(dir.join(snapshot_file_name("main", 4)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn names_unsafe_for_filenames_rejected() {
        let (dir, store) = temp_store();
        for bad in ["", ".", "..", "a/b", "a\\b", "a b", "caf\u{e9}"] {
            assert!(store.persist(bad, 1, b"x").is_err(), "accepted {bad:?}");
            assert!(store.recover(bad).is_err());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_garbage_manifest_falls_back_to_footers() {
        let (dir, store) = temp_store();
        store.persist("main", 2, b"two").unwrap();
        // Corrupt the manifest wholesale; footer verification still
        // finds the newest complete generation.
        std::fs::write(store.manifest_file(), b"not a manifest").unwrap();
        let recovered = store.recover("main").unwrap().expect("footers carry recovery");
        assert_eq!(recovered.generation, 2);
        assert_eq!(recovered.payload, b"two");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_round_trip_and_tamper_detection() {
        let framed = frame(b"payload");
        let (payload, sum) = verified_payload(framed.clone()).expect("fresh frame verifies");
        assert_eq!(payload, b"payload");
        assert_eq!(sum, checksum(b"payload"));
        for cut in [0usize, 1, 7, framed.len() - 1] {
            assert!(verified_payload(framed[..cut].to_vec()).is_none(), "cut {cut}");
        }
        let mut flipped = framed;
        flipped[0] ^= 0x80;
        assert!(verified_payload(flipped).is_none(), "bit flip detected");
    }
}
