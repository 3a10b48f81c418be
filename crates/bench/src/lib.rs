//! The `verify.sh` gates.
//!
//! [`gate`] is the one gate mechanism — trajectory format and exact
//! comparator against the committed file — behind every `BENCH_*.json`;
//! the `gates` binary holds three of its four measurement bodies. The
//! fourth is [`paper`]: the paper's evaluation (Figs. 3–11, §VI-A, §III
//! and two extensions) as one claims table, each distinct simulation run
//! once and every number pinned. [`testbed`] is the fully wired GYAN
//! deployment the gates submit Galaxy jobs to, and [`table`] renders
//! their ASCII tables. Speed in wall-clock time is measured by the
//! canonical benchmark (`benchmark/`), not here. See `DESIGN.md` for the
//! experiment index.

pub mod gate;
pub mod paper;
pub mod table;
pub mod testbed;
