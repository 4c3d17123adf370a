//! End-to-end G-SACS serving benchmark.
//!
//! Three workloads drive a real `GrdfServer` over loopback HTTP/1.1
//! keep-alive; an optional traced run replays the same requests
//! in-process and times each layer's public calls. See `README.md` for
//! the workloads, metrics and output checks.

pub mod check;
pub mod client;
pub mod drive;
pub mod gen;
pub mod replay;
pub mod run;
pub mod serve;
pub mod util;
