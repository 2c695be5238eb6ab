//! `mve-client`'s command line.

use super::{Args, ANY};
use mve_insram::Scheme;
use mve_kernels::Scale;
use mve_serve::{Request, SimSpec};

/// The usage line.
pub const USAGE: &str = "usage: mve-client [--port N] (--replay-smoke DIR | [--flood N] \
     [--connections N --duration-ms M] artefact NAME [--paper] | [--flood N] \
     [--connections N --duration-ms M] sim KERNEL [--paper] [--scheme S] [--arrays N] \
     [--ooo] [--no-mode-switch] [--no-cache-warming] | [--flood N] \
     (compile|profile) FILE.mvel [--scheme S] [--ooo] [--no-mode-switch] \
     [--no-cache-warming] | estimate (artefact|sim|compile|profile) ... | \
     stats [--watch SECS [--samples N]] | metrics [--check] | \
     trace [--chrome OUT.json] | shutdown)";

/// The subcommand.
#[derive(Debug)]
pub enum Op {
    /// `--replay-smoke DIR`.
    Replay(String),
    /// `artefact`, `sim`, `compile` or `profile`: sent once, to `flood`
    /// connections at once, or open-loop for `duration_ms`.
    Send(Request),
    /// `estimate` of such a request.
    Estimate(Request),
    Stats,
    Metrics,
    Trace,
    Shutdown,
}

/// What one `mve-client` run does: the subcommand and every flag's
/// value. Each flag is admitted only where the usage line shows it.
#[derive(Debug)]
pub struct Client {
    pub port: u16,
    pub op: Op,
    /// The `.mvel` file of `compile` or `profile`; its request carries an
    /// empty source, for the caller to read from here.
    pub path: Option<String>,
    pub flood: Option<usize>,
    pub connections: Option<usize>,
    pub duration_ms: Option<u64>,
    pub watch: Option<u64>,
    pub samples: Option<u64>,
    pub check: bool,
    pub chrome: Option<String>,
}

/// Parses `mve-client`'s arguments. `--port` goes anywhere; every other
/// flag must belong to the subcommand given, so a mistake exits before
/// any connection is made.
pub fn parse(args: &[String]) -> Result<Client, String> {
    let spec = "--port=N --replay-smoke=DIR --flood=N --connections=N --duration-ms=M --paper \
        --scheme=S --arrays=N --ooo --no-mode-switch --no-cache-warming --watch=SECS \
        --samples=N --check --chrome=OUT";
    let a = super::parse(args, spec)?;
    let words: Vec<&str> = a.words.iter().map(String::as_str).collect();
    let replay = a.value("--replay-smoke");
    let what = if replay.is_some() {
        "--replay-smoke"
    } else {
        words.first().copied().unwrap_or_default()
    };
    // The subcommand, the flags its tail takes besides `--port`, and the
    // `.mvel` file it reads.
    let (op, tail, path) = match (replay, &words[..]) {
        (Some(dir), _) => {
            a.no_words()?;
            (Op::Replay(dir.to_owned()), "--replay-smoke".into(), None)
        }
        (None, [sub, word, ..]) if ["stats", "metrics", "trace", "shutdown"].contains(sub) => {
            return Err(format!("{sub} takes no argument `{word}`"))
        }
        (None, ["stats"]) => (Op::Stats, "--watch --samples".into(), None),
        (None, ["metrics"]) => (Op::Metrics, "--check".into(), None),
        (None, ["trace"]) => (Op::Trace, "--chrome".into(), None),
        (None, ["shutdown"]) => (Op::Shutdown, String::new(), None),
        (None, ["estimate", words @ ..]) => {
            let (req, tail, path) = request(&a, words)?;
            (Op::Estimate(req), tail.to_owned(), path)
        }
        (None, words) => {
            let (req, tail, path) = request(&a, words)?;
            let tail = format!("{tail} --flood --connections --duration-ms");
            (Op::Send(req), tail, path)
        }
    };
    a.only(&format!("--port {tail}"), what)?;
    // Flags that only qualify another: alone they would be ignored.
    for (flag, needs) in [("--connections", "--duration-ms"), ("--samples", "--watch")] {
        if a.has(flag) && !a.has(needs) {
            return Err(format!("{flag} only applies with {needs}"));
        }
    }
    let num = |flag| a.int(flag, ANY);
    Ok(Client {
        port: a.int("--port", 0..=65535)?.map_or(7878, |p| p as u16),
        op,
        path,
        flood: num("--flood")?.map(|n| n as usize),
        connections: num("--connections")?.map(|n| n as usize),
        duration_ms: num("--duration-ms")?,
        watch: num("--watch")?,
        samples: num("--samples")?,
        check: a.has("--check"),
        chrome: a.value("--chrome").map(str::to_owned),
    })
}

/// Builds the request `words` name (`artefact NAME`, `sim KERNEL`,
/// `compile FILE` or `profile FILE`), with the flags it takes and the
/// file it reads.
fn request(a: &Args, words: &[&str]) -> Result<(Request, &'static str, Option<String>), String> {
    let tail = match words.first() {
        Some(&"artefact") => "--paper",
        Some(&"sim") => "--paper --arrays --scheme --ooo --no-mode-switch --no-cache-warming",
        Some(&("compile" | "profile")) => "--scheme --ooo --no-mode-switch --no-cache-warming",
        Some(word) => return Err(format!("unknown subcommand `{word}`")),
        None => return Err("missing subcommand".into()),
    };
    let &[op, arg] = words else {
        return Err(format!("{} takes one argument", words[0]));
    };
    let scheme = match a.value("--scheme") {
        None => SimSpec::default().scheme,
        Some(name) => Scheme::ALL
            .into_iter()
            .find(|s| s.short_name() == name)
            .ok_or_else(|| format!("--scheme must be one of BS|BH|BP|AC, not `{name}`"))?,
    };
    let spec = SimSpec {
        scheme,
        arrays: a.int("--arrays", ANY)?.map(|n| n as usize),
        ooo_dispatch: a.has("--ooo"),
        mode_switch: !a.has("--no-mode-switch"),
        cache_warming: !a.has("--no-cache-warming"),
    };
    let scale = if a.has("--paper") {
        Scale::Paper
    } else {
        Scale::Test
    };
    let (name, source, path) = (arg.to_owned(), String::new(), Some(arg.to_owned()));
    Ok(match op {
        "artefact" => (Request::Artefact { name, scale }, tail, None),
        "sim" => (
            Request::Sim {
                kernel: name,
                scale,
                spec,
            },
            tail,
            None,
        ),
        "compile" => (Request::Compile { source, spec }, tail, path),
        _ => (Request::Profile { source, spec }, tail, path),
    })
}
