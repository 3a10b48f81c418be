//! Shared harness for the figure-regeneration binaries, the benches and
//! the `verify.sh` gates.
//!
//! Every `fig*`/ablation binary in `src/bin/` regenerates one table or
//! figure of the paper's evaluation (see `DESIGN.md` for the experiment
//! index); this library provides the common pieces: a fully wired GYAN
//! testbed ([`testbed`]), ASCII table rendering ([`table`]), and the
//! paper's reference numbers ([`paper`]) so each binary can print
//! paper-vs-measured rows. The `gates` binary's trajectory format,
//! measuring protocol and comparator are [`gate`].

pub mod gate;
pub mod paper;
pub mod table;
pub mod testbed;

pub use testbed::Testbed;
