//! Minimal command-line option parsing (no external dependencies).

use std::collections::HashMap;

/// Options that are boolean switches: present or absent, never
/// followed by a value.
const BOOL_FLAGS: &[&str] = &["quiet", "strict", "lenient"];

/// Parsed command line: a subcommand, `--key value` options, boolean
/// `--flag` switches, and positional arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Boolean `--flag` switches that were present.
    pub flags: Vec<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message when a valued `--flag` is missing its value
    /// (switches in [`BOOL_FLAGS`] take none).
    pub fn parse<I, S>(raw: I) -> Result<Args, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    args.flags.push(key.to_string());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| format!("option --{key} requires a value"))?;
                args.options.insert(key.to_string(), value);
            } else if args.command.is_empty() {
                args.command = arg;
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// Rejects any `--key` (valued option or switch) outside `known`,
    /// naming the alphabetically first unknown one.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown option.
    pub fn check_known(&self, known: &[&str]) -> Result<(), String> {
        let unknown = self
            .options
            .keys()
            .chain(&self.flags)
            .filter(|key| !known.contains(&key.as_str()))
            .min();
        match unknown {
            Some(key) => Err(format!("unknown option --{key} for {}", self.command)),
            None => Ok(()),
        }
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// `true` when the boolean switch `--key` was present.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: invalid value {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_positionals() {
        let args = Args::parse(["map", "--ref", "r.fa", "--reads", "q.fq", "extra"]).unwrap();
        assert_eq!(args.command, "map");
        assert_eq!(args.get("ref"), Some("r.fa"));
        assert_eq!(args.get("reads"), Some("q.fq"));
        assert_eq!(args.positional, vec!["extra".to_string()]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(["map", "--ref"]).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args = Args::parse(["map", "--quiet", "--ref", "r.fa"]).unwrap();
        assert!(args.flag("quiet"));
        assert!(!args.flag("verbose"));
        assert_eq!(args.get("ref"), Some("r.fa"));
        // A trailing boolean flag needs no value either.
        let args = Args::parse(["map", "--ref", "r.fa", "--quiet"]).unwrap();
        assert!(args.flag("quiet"));
        // The parse-mode switches are boolean too.
        let args = Args::parse(["map", "--lenient", "--ref", "r.fa", "--strict"]).unwrap();
        assert!(args.flag("lenient"));
        assert!(args.flag("strict"));
    }

    #[test]
    fn require_and_number_helpers() {
        let args = Args::parse(["x", "--k", "5"]).unwrap();
        assert_eq!(args.require("k").unwrap(), "5");
        assert!(args.require("missing").is_err());
        assert_eq!(args.number("k", 0usize).unwrap(), 5);
        assert_eq!(args.number("absent", 7usize).unwrap(), 7);
        let bad = Args::parse(["x", "--k", "abc"]).unwrap();
        assert!(bad.number::<usize>("k", 0).is_err());
    }

    #[test]
    fn check_known_rejects_unlisted_options_and_switches() {
        let args = Args::parse(["map", "--ref", "r.fa", "--quiet"]).unwrap();
        assert!(args.check_known(&["ref", "quiet"]).is_ok());
        let err = args.check_known(&["ref"]).unwrap_err();
        assert!(err.contains("--quiet"), "{err}");
        let args = Args::parse(["map", "--wrokers", "2", "--lanes", "8"]).unwrap();
        let err = args.check_known(&["workers"]).unwrap_err();
        assert_eq!(err, "unknown option --lanes for map");
    }

    #[test]
    fn empty_input_yields_empty_command() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert!(args.command.is_empty());
    }
}
