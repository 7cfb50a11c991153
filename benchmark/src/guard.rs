//! Refusing to measure a differently optimised program.
//!
//! The package is its own workspace, so the root manifest's
//! `[profile.release]` does not reach it: `benchmark/Cargo.toml` repeats
//! the stanza. If the two drift apart, or the harness was built without
//! `--release`, its numbers describe another program than the one the
//! repository ships, and it says so instead of running.

use std::collections::BTreeMap;

/// The `key = value` settings of a manifest's `[profile.release]` table,
/// comments and spacing removed.
pub fn profile_release(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// Why this build must not be measured, if it must not.
pub fn refusal() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some(
            "built without --release: run `cargo run --release --manifest-path benchmark/Cargo.toml`"
                .to_string(),
        );
    }
    let own = profile_release(include_str!("../Cargo.toml"));
    let root = profile_release(include_str!("../../Cargo.toml"));
    (own != root).then(|| {
        format!(
            "benchmark/Cargo.toml has [profile.release] {own:?} but ../Cargo.toml has {root:?}: \
             make them equal"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stanza_is_read_whatever_the_spacing_and_comments() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"thin\"\ncodegen-units=1 # one\n\n[dependencies]\nlto = \"no\"\n";
        let b = "[profile.release]\ncodegen-units = 1\nlto   =   \"thin\"\n";
        assert_eq!(profile_release(a), profile_release(b));
        assert_eq!(profile_release(a).len(), 2);
        assert!(profile_release("[package]\n").is_empty());
    }

    #[test]
    fn the_package_repeats_the_root_profile() {
        assert_eq!(
            profile_release(include_str!("../Cargo.toml")),
            profile_release(include_str!("../../Cargo.toml")),
        );
        assert!(!profile_release(include_str!("../Cargo.toml")).is_empty());
    }
}
