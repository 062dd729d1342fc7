//! # plexus-bench — experiment harnesses
//!
//! One module per paper result, and two registries over them: [`suite`]
//! holds one bench per committed `results/BENCH_<name>.json`, run and
//! gated by the `plexus-bench` binary (`list`, `run`, `check`), and
//! [`scenarios`] holds the traced worlds `plexus-replay` replays.
//! `benches/` holds Criterion microbenchmarks of the mechanisms
//! themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client_video;
pub mod diff;
pub mod fwd_latency;
mod guard_eval;
mod guard_state;
pub mod http_latency;
pub mod overload;
pub mod report;
pub mod scenarios;
pub mod suite;
mod sweeps;
pub mod table;
pub mod tcp_tput;
pub mod txn_latency;
pub mod udp_rtt;
pub mod video_cpu;
