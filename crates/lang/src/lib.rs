//! # mve-lang — the `.mvel` kernel DSL
//!
//! Until PR 5 the repo could only simulate the 44 hand-written Table III
//! kernels: the Section III-G compiler support (`mve_core::compiler`) had
//! no front-end and no executor, so nothing ever flowed *through* it.
//! This crate closes both gaps and turns the suite open-world — arbitrary
//! client-submitted kernels, the ROADMAP's "as many scenarios as you can
//! imagine":
//!
//! * [`lex`]/[`parse`](mod@parse) — a hand-rolled, std-only lexer and
//!   recursive-descent parser for the small textual DSL (typed buffer and
//!   scalar parameters, multi-dimensional shapes, element-wise and
//!   reduction operators, strided loads/stores, `for` dim blocks that
//!   unroll into the paper's multi-dimensional strip-mining);
//! * [`ast`] — the tree, with a canonical [`ast::pretty`] printer whose
//!   output re-parses to an equal tree (property-tested);
//! * [`lower`](mod@lower) — typed lowering into the compiler IR: inference-driven
//!   type checking, compile-time loop unrolling and constant folding,
//!   static bounds checks against declared buffer lengths, splat
//!   memoization and dead-code elimination;
//! * [`run`] — [`run::compile`] drives the existing list scheduler and
//!   spill-aware linear-scan allocator over the lowered IR, and
//!   [`run::Executor`] executes the allocated code on the functional
//!   [`mve_core::engine::Engine`] — allocator-inserted spills become real
//!   full-register memory traffic, so the §VII-C spill cost finally
//!   exercises the timing simulator;
//! * [`eval`] — an independent AST interpreter, the scalar reference every
//!   compiled execution is checked against;
//! * [`diag`] — line/column diagnostics, surfaced as typed fields in the
//!   service's error replies.
//!
//! ## Example
//!
//! ```
//! use mve_core::sim::SimConfig;
//!
//! let source = r#"
//! kernel scale(a: i32 = 3, x: buf<i32>[1024], out: mut buf<i32>[1024]) {
//!     shape [1024];
//!     let xv = load x [1];
//!     store xv * a -> out [1];
//! }
//! "#;
//! let rendered = mve_lang::compile_and_render(source, &SimConfig::default()).unwrap();
//! assert!(rendered.contains("check: compared=1024 mismatches=0"));
//! ```

pub mod ast;
pub mod diag;
pub mod eval;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod profile;
pub mod run;

pub use ast::{pretty, KernelAst};
pub use diag::{Diag, Span, Spanned};
pub use eval::interpret;
pub use lower::lower;
pub use parse::{parse, parse_tokens};
pub use profile::{profile_and_render, profile_lines, render_annotated, LineReport, LineStat};
pub use run::{
    compare_outputs, compile, compile_and_render, compile_and_render_timed, compile_timed,
    run_checked, Bindings, CheckOutcome, CompilePhases, CompiledKernel, Executor, RawOutputs,
};
