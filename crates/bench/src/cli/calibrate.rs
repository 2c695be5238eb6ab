//! `calibrate`'s command line.

/// The usage line.
pub const USAGE: &str = "usage: calibrate [--write PATH | --check]";

/// Parses `(check, write_path)`. A check writes nothing, so `--check`
/// excludes `--write`.
pub fn parse(args: &[String]) -> Result<(bool, Option<String>), String> {
    let a = super::parse(args, "--check --write=PATH")?;
    a.no_words()?;
    if a.has("--check") {
        a.only("--check", "--check")?;
    }
    Ok((a.has("--check"), a.value("--write").map(str::to_owned)))
}
