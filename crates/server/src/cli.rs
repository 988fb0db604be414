//! A minimal `--key value` / `--flag` argument parser for the server
//! binaries (same conventions as the experiment binaries; no external
//! CLI dependency).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Every key the binary reads; any other key is a usage error.
    accepted: &'static [&'static str],
}

impl Args {
    /// Parses `std::env::args()` for a binary that reads exactly the keys
    /// in `accepted`. `--key value` populates values; a trailing `--key`
    /// with no value (or followed by another `--…`) is a boolean flag. A
    /// positional argument or a key outside `accepted` prints a usage
    /// error and exits with status 2, so a flag the binary would ignore
    /// is never taken silently.
    pub fn parse(accepted: &'static [&'static str]) -> Self {
        Self::from_args(accepted, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list (for tests).
    ///
    /// # Errors
    ///
    /// Returns a usage message for a positional argument or a key outside
    /// `accepted`.
    pub fn from_args(
        accepted: &'static [&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut out = Args {
            accepted,
            ..Args::default()
        };
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument {arg:?}; use --key value"
                ));
            };
            if !accepted.contains(&key) {
                let known: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
                return Err(format!(
                    "unknown flag --{key}; accepted: {}",
                    known.join(" ")
                ));
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = iter.next().expect("peeked");
                    out.values.insert(key.to_owned(), v);
                }
                _ => out.flags.push(key.to_owned()),
            }
        }
        Ok(out)
    }

    /// The raw value of `--key`; reading a key the binary did not accept
    /// is a bug (the flag could never be given), caught in debug builds.
    fn value(&self, key: &str) -> Option<&String> {
        debug_assert!(
            self.accepted.contains(&key),
            "--{key} is read but not in the binary's accepted keys"
        );
        self.values.get(key)
    }

    /// A `usize` value or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparseable.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.value(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A `u64` value or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparseable.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.value(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// The raw value of `--key`, or `None` when the key is absent.
    pub fn get_opt_str(&self, key: &str) -> Option<&str> {
        self.value(key).map(String::as_str)
    }

    /// A string value or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.value(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    /// True when `--key` was given as a bare flag.
    pub fn flag(&self, key: &str) -> bool {
        debug_assert!(
            self.accepted.contains(&key),
            "--{key} is read but not in the binary's accepted keys"
        );
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &["tenants", "out", "budget", "quiet", "verbose", "missing"];

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::from_args(KEYS, list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = args(&["--tenants", "8", "--out", "x.json", "--quiet"]).unwrap();
        assert_eq!(a.get_usize("tenants", 1), 8);
        assert_eq!(a.get_str("out", "def"), "x.json");
        assert_eq!(a.get_u64("budget", 400), 400);
        assert!(a.flag("quiet"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.get_opt_str("missing"), None);
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let err = args(&["oops"]).unwrap_err();
        assert!(err.contains("positional"), "{err}");
    }

    #[test]
    fn flags_the_binary_never_reads_are_rejected() {
        for list in [
            &["--workers", "2"][..],
            &["--tenants", "8", "--max-merge", "16"],
            &["--coalesce-us"],
        ] {
            let err = args(list).unwrap_err();
            assert!(err.contains("unknown flag --"), "{list:?}: {err}");
            assert!(err.contains("--tenants"), "names the accepted keys: {err}");
        }
    }
}
