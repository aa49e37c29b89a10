//! The FUNNEL repository benchmark.
//!
//! Three workloads drive FUNNEL through its public functions only:
//! `deploy_assess` (batch assessment of a deployment week),
//! `ingest_durable` (WAL-backed ingest of agent frames plus recovery) and
//! `stream_live` (open-loop streaming at the paper's SST config). An
//! untraced run reports the end-to-end metrics; a traced run times the
//! calls into each layer from this crate and reports the per-layer
//! metrics. See `README.md` for what each metric should move.

pub mod adapters;
pub mod deploy;
pub mod ingest;
pub mod report;
pub mod run;
pub mod stats;
pub mod stream;

/// Worker threads the assessment legs use: the machine's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
