//! `reproduce`'s command line.

use crate::artefacts;

/// The usage line.
pub const USAGE: &str = "usage: reproduce [--smoke] [--only NAME]... [--jobs [N]] [--dsl] \
     | reproduce --json | reproduce --profile [--paper]";

/// What one `reproduce` run does, one field per flag. `only` lists
/// every artefact when no `--only` is given; `jobs` is `None` (serial)
/// without `--jobs` and the available parallelism for a bare `--jobs`.
#[derive(Debug)]
pub struct Reproduce {
    pub smoke: bool,
    pub dsl: bool,
    pub json: bool,
    pub profile: bool,
    pub paper: bool,
    pub only: Vec<&'static str>,
    pub jobs: Option<usize>,
}

/// Parses `reproduce`'s arguments. An `--only` name outside the
/// registry, a `--jobs` value that is not a positive integer, or a flag
/// the chosen mode would ignore is an error, so a mistyped flag never
/// silently runs the wrong pipeline.
pub fn parse(args: &[String]) -> Result<Reproduce, String> {
    let spec = "--smoke --dsl --json --profile --paper --only=NAME --jobs[=N]";
    let a = super::parse(args, spec)?;
    a.no_words()?;
    // `--json` and `--profile` are whole modes of their own: a render
    // flag beside one of them would be silently ignored.
    if a.has("--json") {
        a.only("--json", "--json")?;
    }
    if a.has("--profile") {
        a.only("--profile --paper", "--profile")?;
    } else if a.has("--paper") {
        return Err("--paper only applies to --profile".into());
    }
    let mut only = Vec::new();
    for name in a.values("--only") {
        let known = artefacts::NAMES.into_iter().find(|&n| n == name);
        only.push(known.ok_or_else(|| artefacts::unknown_artefact_message(name))?);
    }
    if only.is_empty() {
        only = artefacts::NAMES.to_vec();
    }
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = if a.has("--jobs") {
        // A bare `--jobs` uses every available core.
        let n = a.int("--jobs", 1..=u64::MAX)?;
        Some(n.map_or_else(cores, |n| n as usize))
    } else {
        None
    };
    Ok(Reproduce {
        smoke: a.has("--smoke"),
        dsl: a.has("--dsl"),
        json: a.has("--json"),
        profile: a.has("--profile"),
        paper: a.has("--paper"),
        only,
        jobs,
    })
}
