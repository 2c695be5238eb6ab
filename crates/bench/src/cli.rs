//! The one command-line grammar behind every binary: `reproduce`,
//! `serve`, `calibrate`, `mve-client` and `dsl_goldens`.
//!
//! A binary declares its flags in a spec string such as
//! `"--smoke --only=NAME --jobs[=N]"`, and [`parse`] splits the
//! arguments into flags and positional words:
//!
//! * a switch (`--smoke`) is given as `--flag`;
//! * a value flag (`--only=NAME`) is given as `--flag V` or `--flag=V`;
//!   a following `--word` is never taken as the value, so
//!   `--write --check` lacks a path;
//! * an optional-value flag (`--jobs[=N]`) takes the next argument only
//!   when it is not a `--word`;
//! * a flag may repeat: [`Args::value`] reads the last value and
//!   [`Args::values`] every one (`reproduce --only`);
//! * every argument not starting with `--` is a positional word.
//!
//! Each binary's submodule turns the [`Args`] into that binary's options,
//! with the rules that belong to it alone as short checks on the parsed
//! result. Every error is a reason string: [`from_env`] prints it and the
//! binary's usage line and exits 2, before the binary does any work.

use std::ops::RangeInclusive;

pub mod calibrate;
pub mod client;
pub mod reproduce;
pub mod serve;

/// Any non-negative integer, for [`Args::int`].
pub(crate) const ANY: RangeInclusive<u64> = 0..=u64::MAX;

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// Every flag given, in order, with its value (`None` for a switch or
    /// a bare optional-value flag).
    flags: Vec<(&'static str, Option<String>)>,
    /// The positional words, in order.
    pub(crate) words: Vec<String>,
}

/// Splits `args` by the flag spec. An unknown flag, a value flag without
/// its value, an empty value (`--flag=`) and a switch given a value are
/// errors.
pub fn parse(args: &[String], spec: &'static str) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            parsed.words.push(arg.clone());
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_owned())),
            None => (arg.as_str(), None),
        };
        let Some(decl) = spec
            .split_whitespace()
            .find(|d| d.split(['=', '[']).next() == Some(name))
        else {
            return Err(format!("unknown flag `{arg}`"));
        };
        // `kind` is "" for a switch, "=V" for a value, "[=V]" for an optional value.
        let (flag, kind) = decl.split_at(name.len());
        let value = match kind {
            "" if inline.is_some() => return Err(format!("{flag} takes no value")),
            "" => None,
            _ => inline.or_else(|| args.next_if(|v| !v.starts_with("--")).cloned()),
        };
        if value.as_deref() == Some("") || (kind.starts_with('=') && value.is_none()) {
            return Err(format!("{flag} needs a value"));
        }
        parsed.flags.push((flag, value));
    }
    Ok(parsed)
}

impl Args {
    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the last `flag` given; `None` if it is absent or bare.
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }

    /// Every value given for a repeatable `flag`, in order.
    pub(crate) fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// [`Args::value`] read as an integer in `range`.
    pub(crate) fn int(
        &self,
        flag: &str,
        range: RangeInclusive<u64>,
    ) -> Result<Option<u64>, String> {
        let Some(v) = self.value(flag) else {
            return Ok(None);
        };
        match v.parse().ok().filter(|n| range.contains(n)) {
            Some(n) => Ok(Some(n)),
            None if *range.end() == u64::MAX => Err(format!(
                "{flag} needs an integer ≥ {}, not `{v}`",
                range.start()
            )),
            None => Err(format!("{flag} needs an integer in {range:?}, not `{v}`")),
        }
    }

    /// Fails on the first positional word, for a binary that takes none.
    pub fn no_words(&self) -> Result<(), String> {
        match self.words.first() {
            Some(word) => Err(format!("unexpected argument `{word}`")),
            None => Ok(()),
        }
    }

    /// Fails on the first flag given outside the space-separated
    /// `allowed`, saying that `what` (a mode or a subcommand) does not
    /// take it.
    pub(crate) fn only(&self, allowed: &str, what: &str) -> Result<(), String> {
        let allowed: Vec<&str> = allowed.split_whitespace().collect();
        match self.flags.iter().find(|(f, _)| !allowed.contains(f)) {
            Some((flag, _)) => Err(format!("{what} does not take {flag}")),
            None => Ok(()),
        }
    }
}

/// Parses this process's arguments with `parse`. On an error it prints
/// the reason and `usage`, then exits 2.
pub fn from_env<T>(usage: &str, parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args).unwrap_or_else(|reason| {
        eprintln!("{reason}");
        eprintln!("{usage}");
        std::process::exit(2)
    })
}
