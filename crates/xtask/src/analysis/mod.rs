//! Shared source-analysis infrastructure for the xtask analyzers.
//!
//! `cargo xtask flow` and `cargo xtask taint` work over the same
//! pipeline: mask the source (`scan`), tokenize it (`tokens`), extract a
//! brace-aware item model (`items`), and resolve a conservative
//! workspace call graph (`callgraph`). The lint pass reuses the masking
//! and test-line layers. Everything here is dependency-free by design —
//! the build container is offline, so no `syn`, no `walkdir`; see the
//! module docs of each layer for exactly how much Rust each one
//! understands.

pub(crate) mod callgraph;
pub(crate) mod guards;
pub(crate) mod items;
pub(crate) mod scan;
pub(crate) mod tokens;

use std::fs;
use std::path::Path;

use items::FileModel;

/// Recursively collects `.rs` files under `dir` as repo-relative
/// `/`-separated paths, skipping build output, VCS internals, the
/// analyzer fixture trees (fixtures hold deliberately-bad patterns that
/// must never leak into workspace reports; the self-tests scan them
/// explicitly), and every nested directory whose `Cargo.toml` declares
/// its own `[workspace]`: a separate workspace is not built with this
/// one, and its names would collide with this one's in the call graph.
pub(crate) fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "results" | "fixtures")
                || declares_workspace(&path)
            {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel: Vec<_> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(rel.join("/"));
            }
        }
    }
}

/// Whether `dir/Cargo.toml` has a `[workspace]` table.
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
}

/// Masks, tokenizes and item-models every file in `files` (repo-relative
/// paths under `root`). Unreadable files degrade to a warning, matching
/// the historical behavior of both passes.
pub(crate) fn build_models(root: &Path, files: &[String]) -> Vec<FileModel> {
    let mut models = Vec::with_capacity(files.len());
    for file in files {
        match fs::read_to_string(root.join(file)) {
            Ok(src) => {
                let masked = scan::mask_source(&src);
                let test_lines = scan::test_line_mask(&masked);
                models.push(items::parse_file(
                    file,
                    tokens::tokenize(&masked),
                    &test_lines,
                    crate::rules::test_path(file),
                ));
            }
            Err(err) => {
                eprintln!("warning: cannot read {file}: {err}");
            }
        }
    }
    models
}

/// Collects and sorts the workspace source set rooted at `root`.
pub(crate) fn workspace_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();
    files
}
