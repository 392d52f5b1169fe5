//! End-to-end benchmark of the record → store → serve → replay → seek
//! pipeline, driven from outside through each layer's public API on the
//! default configuration. See `README.md` for the workloads and metrics.

pub mod engine;
pub mod plan;
pub mod run;
pub mod spans;
