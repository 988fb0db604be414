//! A minimal `--key value` / `--flag` argument parser shared by the
//! experiment and server binaries (no external CLI dependency).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Every key the binary reads; any other key is a usage error.
    accepted: &'static [&'static str],
}

/// Prints a usage error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

impl Args {
    /// Parses `std::env::args()` for a binary that reads exactly the keys
    /// in `accepted`. `--key value` populates values; a trailing `--key`
    /// with no value (or followed by another `--…`) is a boolean flag. A
    /// positional argument or a key outside `accepted` prints a usage
    /// error and exits with status 2, so a flag the binary would ignore
    /// is never taken silently.
    pub fn parse(accepted: &'static [&'static str]) -> Self {
        Self::from_args(accepted, std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e))
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

    /// The raw value of `--key`, `None` when the key is absent. Reading a
    /// key the binary did not accept is a bug (the flag could never be
    /// given), caught in debug builds.
    ///
    /// # Errors
    ///
    /// A usage message naming the key when `--key` was given without a
    /// value: a default in its place would run what was not asked for.
    fn value(&self, key: &str) -> Result<Option<&String>, String> {
        debug_assert!(
            self.accepted.contains(&key),
            "--{key} is read but not in the binary's accepted keys"
        );
        if self.flags.iter().any(|f| f == key) {
            return Err(format!("--{key} expects a value"));
        }
        Ok(self.values.get(key))
    }

    /// [`Args::value`], exiting with a usage error when the value is
    /// missing.
    fn value_or_exit(&self, key: &str) -> Option<&String> {
        self.value(key).unwrap_or_else(|e| usage_error(&e))
    }

    /// A `usize` value or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparseable.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.value_or_exit(key)
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
        self.value_or_exit(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// The raw value of `--key`, or `None` when the key is absent.
    pub fn get_opt_str(&self, key: &str) -> Option<&str> {
        self.value_or_exit(key).map(String::as_str)
    }

    /// A string value or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.value_or_exit(key)
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

    const KEYS: &[&str] = &["budget", "full", "scale", "missing", "retrain", "trace"];

    fn parse(s: &str) -> Result<Args, String> {
        Args::from_args(KEYS, s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_values_and_flags() {
        let a = parse("--budget 500 --full --scale cifar").unwrap();
        assert_eq!(a.get_u64("budget", 0), 500);
        assert!(a.flag("full"));
        assert_eq!(a.get_str("scale", "x"), "cifar");
        assert_eq!(a.get_opt_str("scale"), Some("cifar"));
        assert_eq!(a.get_usize("missing", 7), 7);
        assert_eq!(a.get_opt_str("missing"), None);
        assert!(!a.flag("missing"));
    }

    #[test]
    fn trailing_flag_without_value() {
        let a = parse("--retrain").unwrap();
        assert!(a.flag("retrain"));
    }

    #[test]
    fn a_value_key_followed_by_another_flag_has_no_value() {
        let a = parse("--budget --trace t.jsonl").unwrap();
        assert_eq!(a.get_opt_str("trace"), Some("t.jsonl"));
        let err = a.value("budget").unwrap_err();
        assert!(err.contains("--budget expects a value"), "{err}");
    }

    #[test]
    fn a_value_key_at_the_end_of_the_line_has_no_value() {
        let a = parse("--scale cifar --budget").unwrap();
        assert_eq!(a.get_opt_str("scale"), Some("cifar"));
        let err = a.value("budget").unwrap_err();
        assert!(err.contains("--budget expects a value"), "{err}");
    }

    #[test]
    fn rejects_positional_arguments() {
        let err = parse("oops").unwrap_err();
        assert!(err.contains("positional"), "{err}");
    }

    #[test]
    fn rejects_flags_the_binary_never_reads() {
        for line in [
            "--tune off",
            "--budget 500 --gemm-threads 2",
            "--fresh",
            "--workers 2",
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains("unknown flag --"), "{line}: {err}");
            assert!(err.contains("--budget"), "names the accepted keys: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn rejects_bad_integers() {
        parse("--budget lots").unwrap().get_u64("budget", 0);
    }
}
