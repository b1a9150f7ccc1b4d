//! Shared helpers for the `phaselab` benchmark harness and the
//! experiment binaries that regenerate every table and figure of the
//! paper (see `src/bin/repro.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

/// Returns the output directory for experiment artifacts (SVG figures,
/// CSV tables), creating it if needed. Defaults to `target/experiments`
/// relative to the workspace; override with the `PHASELAB_OUT` variable.
pub fn output_dir() -> PathBuf {
    let dir = std::env::var_os("PHASELAB_OUT")
        .map_or_else(|| Path::new("target").join("experiments"), PathBuf::from);
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Writes a text artifact into the output directory and returns its path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = output_dir().join(name);
    std::fs::write(&path, contents).expect("write experiment artifact");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_round_trip() {
        std::env::set_var(
            "PHASELAB_OUT",
            std::env::temp_dir().join("phaselab-test-out"),
        );
        let p = write_artifact("probe.txt", "hello");
        assert_eq!(std::fs::read_to_string(p).unwrap(), "hello");
        std::env::remove_var("PHASELAB_OUT");
    }
}
