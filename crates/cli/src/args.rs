//! A small dependency-free argument parser: `--key value` flags and
//! positional words.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    /// Flag name to its value; `None` for a bare flag.
    flags: HashMap<String, Option<String>>,
}

impl Args {
    /// Parse from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if name.is_empty() {
                    return Err("bare '--' is not a flag".into());
                }
                // `--flag=value` or `--flag value`; a flag followed by
                // another flag (or nothing) is bare.
                if let Some((k, v)) = name.split_once('=') {
                    out.flags.insert(k.to_string(), Some(v.to_string()));
                } else {
                    let value = it.next_if(|next| !next.starts_with("--"));
                    out.flags.insert(name.to_string(), value);
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// Positional argument at `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Raw string flag (`None` when absent or given bare).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(Option::as_deref)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// Parsed numeric flag with a default.
    pub fn get_parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Flags that were provided but are not in the allowed set, sorted.
    pub fn unknown_flags(&self, allowed: &[&str]) -> Vec<String> {
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|k| !allowed.contains(&k.as_str()))
            .cloned()
            .collect();
        unknown.sort();
        unknown
    }

    /// Check the flags against a subcommand's table: every flag must be
    /// one of `values` (which need a value) or `switches` (which take
    /// none). The error names the first offending flag.
    pub fn check_flags(
        &self,
        command: &str,
        values: &[&str],
        switches: &[&str],
    ) -> Result<(), String> {
        let allowed: Vec<&str> = values.iter().chain(switches).copied().collect();
        if let Some(flag) = self.unknown_flags(&allowed).first() {
            return Err(format!("unknown flag --{flag} for `eks {command}`"));
        }
        let mut given: Vec<(&String, &Option<String>)> = self.flags.iter().collect();
        given.sort();
        for (name, value) in given {
            match value {
                None if values.contains(&name.as_str()) => {
                    return Err(format!("--{name} needs a value"));
                }
                Some(v) if switches.contains(&name.as_str()) => {
                    return Err(format!("--{name} takes no value (got {v:?})"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["crack", "--algo", "md5", "--threads=8", "--verbose"]);
        assert_eq!(a.positional(0), Some("crack"));
        assert_eq!(a.get("algo"), Some("md5"));
        assert_eq!(a.get_parse_or::<usize>("threads", 1).unwrap(), 8);
        assert!(a.has("verbose"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["x"]);
        assert_eq!(a.get_or("algo", "md5"), "md5");
        assert_eq!(a.get_parse_or::<u32>("min", 1).unwrap(), 1);
    }

    #[test]
    fn invalid_numbers_error() {
        let a = parse(&["--threads", "lots"]);
        assert!(a.get_parse_or::<usize>("threads", 1).is_err());
    }

    #[test]
    fn unknown_flags_detected() {
        let a = parse(&["--algo", "md5", "--tpyo", "x"]);
        assert_eq!(a.unknown_flags(&["algo"]), vec!["tpyo".to_string()]);
        let err = a.check_flags("crack", &["algo"], &[]).unwrap_err();
        assert!(err.contains("--tpyo"), "{err}");
    }

    #[test]
    fn value_flags_need_values_and_switches_take_none() {
        let a = parse(&["--json"]);
        assert_eq!(a.get("json"), None, "a bare flag has no value");
        assert!(a.has("json"));
        let err = a.check_flags("bench", &["json"], &[]).unwrap_err();
        assert!(err.contains("--json needs a value"), "{err}");
        assert!(a.check_flags("verify", &[], &["json"]).is_ok());
        let a = parse(&["--all", "extra"]);
        let err = a.check_flags("crack", &[], &["all"]).unwrap_err();
        assert!(err.contains("--all takes no value"), "{err}");
        let a = parse(&["--json=out.json", "--all"]);
        assert!(a.check_flags("x", &["json"], &["all"]).is_ok());
    }

    #[test]
    fn boolean_flag_before_another_flag() {
        let a = parse(&["--all", "--algo", "sha1"]);
        assert!(a.has("all"));
        assert_eq!(a.get("algo"), Some("sha1"));
    }
}
