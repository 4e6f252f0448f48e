//! escape-bench: the wall-clock experiments. Each bench in `benches/`
//! is a plain `fn main` that prints its table; the virtual-time tables
//! are pinned by `tests/experiments.rs` instead. This lib holds shared
//! plumbing.

use escape_json::Value;
use std::path::PathBuf;

/// Writes a benchmark snapshot as `<name>.json` at the repository root
/// (e.g. `BENCH_domains.json`): a committed baseline that later changes
/// diff against. Returns the path written, or `None` (with the error on
/// stderr) if the filesystem refused.
pub fn write_repo_artifact(name: &str, doc: &Value) -> Option<PathBuf> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}.json"));
    match std::fs::write(&path, doc.to_string_pretty()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "escape-bench: cannot write repo artifact {}: {e}",
                path.display()
            );
            None
        }
    }
}
