//! The `verify.sh` gates.
//!
//! [`gate`] is the one gate mechanism — trajectory format, measuring
//! protocol, comparator — behind every `BENCH_*.json`; the `gates`
//! binary holds five of its six measurement bodies. The sixth is
//! [`paper`]: the paper's evaluation (Figs. 3–11, §VI-A, §III and two
//! extensions) as one claims table, each distinct simulation run once
//! and every number pinned. [`testbed`] is the fully wired GYAN
//! deployment the gates submit Galaxy jobs to, and [`table`] renders
//! their ASCII tables. See `DESIGN.md` for the experiment index.

pub mod gate;
pub mod paper;
pub mod table;
pub mod testbed;
