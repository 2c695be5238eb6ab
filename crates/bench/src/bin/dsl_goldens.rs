//! Regenerates the committed `corpus/<name>.golden.txt` compile renders
//! and the `corpus/<name>.lines.golden.txt` per-line annotated profiles
//! (run from the repo root after changing the DSL pipeline, then review
//! the diff). It takes no arguments.

use mve_bench::cli;

fn main() {
    cli::from_env("usage: dsl_goldens", |args| {
        cli::parse(args, "")?.no_words()
    });
    for (name, _) in mve_bench::dslcorpus::CORPUS {
        let text = mve_bench::dslcorpus::render(name)
            .expect("known name")
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let path = format!("crates/bench/corpus/{name}.golden.txt");
        std::fs::write(&path, &text).expect("write golden");
        eprintln!("wrote {path} ({} bytes)", text.len());

        let (annotated, _) = mve_bench::dslcorpus::profile(name)
            .expect("known name")
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let path = format!("crates/bench/corpus/{name}.lines.golden.txt");
        std::fs::write(&path, &annotated).expect("write per-line golden");
        eprintln!("wrote {path} ({} bytes)", annotated.len());
    }
}
