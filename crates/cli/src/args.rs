//! Tiny flag parser shared by the subcommands (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positionals plus `--flag value` / `--flag` pairs.
/// Flags may repeat (`--graph a=x --graph b=y`); [`Args::get`] returns the
/// last occurrence, [`Args::get_all`] every occurrence in order.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// The flags one subcommand reads: `values` take an argument (`--eps 0.1`,
/// or `-k 50` in short form), `switches` stand alone (`--quiet`).
pub struct Spec {
    pub values: &'static [&'static str],
    pub switches: &'static [&'static str],
}

impl Args {
    /// Parses argv (without the subcommand name). A flag `spec` does not
    /// list is an error, so a typo or a retired flag cannot be silently
    /// ignored.
    pub fn parse(argv: &[String], spec: &Spec) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
                args.positional.push(a.clone());
                continue;
            };
            if a.starts_with("--") && spec.switches.contains(&name) {
                args.switches.push(name.to_string());
            } else if spec.values.contains(&name) {
                let value = it.next().ok_or_else(|| format!("{a} requires a value"))?;
                args.flags
                    .entry(name.to_string())
                    .or_default()
                    .push(value.clone());
            } else {
                return Err(format!("unknown flag {a}"));
            }
        }
        Ok(args)
    }

    /// True when the boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// String flag value (the last occurrence when repeated).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every occurrence of a repeatable flag, in command-line order.
    pub fn get_all(&self, name: &str) -> &[String] {
        self.flags.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Parsed flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }

    /// A duration flag given in seconds: `None` when absent, an error
    /// naming the flag unless the value is a positive number of seconds
    /// a `Duration` can hold (`try_from_secs_f64` refuses NaN and values
    /// too large, on which `from_secs_f64` would panic).
    pub fn get_secs(&self, name: &str) -> Result<Option<std::time::Duration>, String> {
        self.get(name)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .and_then(|s| std::time::Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| format!("--{name} '{v}' must be a positive number"))
            })
            .transpose()
    }

    /// Required positional argument.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

// The id-list grammar is owned by the wire protocol (`--seeds` uses the
// same `id,id,...` form as protocol queries); re-export the single
// implementation rather than keeping a drift-prone copy here.
pub use tim_server::protocol::parse_id_list;

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        values: &["k", "eps", "graph", "runs"],
        switches: &["undirected", "quiet"],
    };

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv, &SPEC)
    }

    #[test]
    fn parses_positionals_flags_and_switches() {
        let a = parse("edges.txt -k 50 --eps 0.2 --undirected").unwrap();
        assert_eq!(a.positional, vec!["edges.txt"]);
        assert_eq!(a.get("k"), Some("50"));
        assert_eq!(a.get_parsed("eps", 0.1).unwrap(), 0.2);
        assert!(a.switch("undirected"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn seconds_flags_must_be_positive_and_finite() {
        assert_eq!(
            parse("--eps 2.5").unwrap().get_secs("eps").unwrap(),
            Some(std::time::Duration::from_millis(2500))
        );
        assert_eq!(parse("").unwrap().get_secs("eps").unwrap(), None);
        for bad in ["0", "-1", "nah", "NaN", "inf", "1e300"] {
            let err = parse(&format!("--eps {bad}"))
                .unwrap()
                .get_secs("eps")
                .unwrap_err();
            assert_eq!(err, format!("--eps '{bad}' must be a positive number"));
        }
    }

    #[test]
    fn repeated_flags_keep_every_occurrence() {
        let a = parse("--graph a=x --graph b=y --eps 0.1 --eps 0.2").unwrap();
        assert_eq!(a.get_all("graph"), ["a=x".to_string(), "b=y".to_string()]);
        assert_eq!(a.get("graph"), Some("b=y"), "get returns the last");
        assert_eq!(a.get_parsed("eps", 0.0).unwrap(), 0.2);
        assert!(a.get_all("nope").is_empty());
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let a = parse("x").unwrap();
        assert_eq!(a.get_parsed("runs", 10_000usize).unwrap(), 10_000);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(parse("x --eps").unwrap_err(), "--eps requires a value");
        assert_eq!(parse("x -k").unwrap_err(), "-k requires a value");
    }

    #[test]
    fn unknown_flags_and_switches_are_rejected() {
        assert_eq!(parse("x --esp 0.3").unwrap_err(), "unknown flag --esp");
        assert_eq!(parse("x --verbose").unwrap_err(), "unknown flag --verbose");
        assert_eq!(parse("x -q").unwrap_err(), "unknown flag -q");
        // Switches only come in long form.
        assert_eq!(parse("x -quiet").unwrap_err(), "unknown flag -quiet");
        // A flag's value is never mistaken for a flag.
        assert_eq!(parse("x --eps --esp").unwrap().get("eps"), Some("--esp"));
    }

    #[test]
    fn bad_parse_is_reported() {
        let a = parse("x --eps abc").unwrap();
        assert!(a.get_parsed("eps", 0.1f64).is_err());
    }

    #[test]
    fn missing_positional_is_reported() {
        let a = parse("--eps 0.1").unwrap();
        assert!(a.positional(0, "input file").is_err());
    }

    #[test]
    fn id_list_parses_and_rejects() {
        assert_eq!(parse_id_list("1,2, 3").unwrap(), vec![1, 2, 3]);
        assert!(parse_id_list("1,x").is_err());
        assert_eq!(parse_id_list("").unwrap(), Vec::<u64>::new());
    }
}
