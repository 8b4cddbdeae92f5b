//! The oracle binaries' shared command line: `--name VALUE` options and
//! bare `--flag`s, read left to right, failing on the first bad one.

use std::fmt::Display;
use std::str::FromStr;

/// A command line walked one option at a time:
///
/// ```
/// # fn parse() -> Result<(u64, bool), String> {
/// let (mut seed, mut verbose) = (42u64, false);
/// let mut argv = xqr_harness::cli::Argv::new(["--seed", "7", "--verbose"].map(String::from));
/// while let Some(opt) = argv.next_opt() {
///     match opt.as_str() {
///         "--seed" => seed = argv.value()?,
///         "--verbose" => verbose = true,
///         _ => return Err(argv.unknown()),
///     }
/// }
/// # Ok((seed, verbose))
/// # }
/// # assert_eq!(parse(), Ok((7, true)));
/// ```
pub struct Argv {
    rest: std::vec::IntoIter<String>,
    current: String,
}

impl Argv {
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Argv {
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
            current: String::new(),
        }
    }

    /// The process's arguments, program name skipped.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// The next option, or `None` at the end of the line.
    pub fn next_opt(&mut self) -> Option<String> {
        self.current = self.rest.next()?;
        Some(self.current.clone())
    }

    /// Parse the argument after the current option as its value.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let opt = &self.current;
        let value = self
            .rest
            .next()
            .ok_or_else(|| format!("{opt} needs a value"))?;
        value.parse().map_err(|e| format!("{opt}: {e}"))
    }

    /// The error for an option the binary does not take.
    pub fn unknown(&self) -> String {
        format!("unknown argument: {}", self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<(u64, bool), String> {
        let (mut cases, mut verbose) = (200u64, false);
        let mut argv = Argv::new(line.iter().map(|s| s.to_string()));
        while let Some(opt) = argv.next_opt() {
            match opt.as_str() {
                "--cases" => cases = argv.value()?,
                "--verbose" => verbose = true,
                _ => return Err(argv.unknown()),
            }
        }
        Ok((cases, verbose))
    }

    #[test]
    fn options_flags_and_defaults() {
        assert_eq!(parse(&[]), Ok((200, false)));
        assert_eq!(parse(&["--verbose", "--cases", "3"]), Ok((3, true)));
    }

    #[test]
    fn errors_name_the_first_bad_argument() {
        assert_eq!(parse(&["--cases"]), Err("--cases needs a value".into()));
        assert_eq!(
            parse(&["--cases", "x", "--bogus"]),
            Err("--cases: invalid digit found in string".into())
        );
        assert_eq!(
            parse(&["--bogus", "--cases", "x"]),
            Err("unknown argument: --bogus".into())
        );
    }
}
