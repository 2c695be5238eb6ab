//! The traffic check of the shared command-line grammar. `cli_traffic.txt`
//! lists every distinct command line `.github/workflows/ci.yml` and
//! `README.md` run, and perfbench's daemon boot, each followed by the
//! `Debug` form of the options or request it parses to. Each line must
//! parse to exactly that, also with every `--flag V` written as
//! `--flag=V`. Parse-only: nothing runs.

use mve_bench::cli::{calibrate, client, reproduce, serve};
use mve_serve::ServeOptions;

/// `args` parsed by `bin`'s command line, in `Debug` form.
fn parse(bin: &str, args: &[String]) -> Result<String, String> {
    match bin {
        "reproduce" => reproduce::parse(args).map(|o| format!("{o:?}")),
        // No flag sets the fault plan; the list leaves it out.
        "serve" => serve::parse(args).map(|o| {
            let faults = format!("faults: {:?}, ", ServeOptions::default().faults);
            format!("{o:?}").replace(&faults, "")
        }),
        "calibrate" => calibrate::parse(args).map(|o| format!("{o:?}")),
        "mve-client" => client::parse(args).map(|o| format!("{o:?}")),
        _ => panic!("unknown binary `{bin}`"),
    }
}

/// `args` with each `--flag V` pair joined as `--flag=V`. No line in the
/// list puts a positional word after a switch, so every joined pair is a
/// value flag.
fn joined(args: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for arg in args {
        match out.last_mut() {
            Some(flag)
                if flag.starts_with("--") && !flag.contains('=') && !arg.starts_with("--") =>
            {
                *flag = format!("{flag}={arg}")
            }
            _ => out.push(arg.clone()),
        }
    }
    out
}

#[test]
fn every_traffic_line_parses_to_its_listed_meaning() {
    // Without `--workers` or a `--jobs` count the host's parallelism
    // applies; the list writes it as `{cores}`.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lines = 0;
    for entry in include_str!("cli_traffic.txt").split("\n$ ").skip(1) {
        let (line, want) = entry.split_once('\n').expect("a line and its meaning");
        let want = want.lines().next().unwrap_or_default();
        let want = want.replace("{cores}", &cores.to_string());
        let mut words = line.split_whitespace().map(str::to_owned);
        let bin = words.next().expect("a binary");
        let args: Vec<String> = words.collect();
        for args in [joined(&args), args] {
            let got = parse(&bin, &args).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(got, want, "{args:?}");
        }
        lines += 1;
    }
    assert_eq!(lines, 79, "every listed line is checked");
}
