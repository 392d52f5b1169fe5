//! # debugger — the DejaVu-based perturbation-free debugger (paper §3-§4)
//!
//! Architecture (the paper's Figure 4, three tiers):
//!
//! ```text
//!  application VM ──(replayed deterministically by DejaVu)
//!        ▲
//!        │ remote reflection (word reads only — never executes app code)
//!  debugger tier: [`engine::DebugSession`] — breakpoints, step,
//!        │         reverse-step (checkpoints), stack/thread views
//!        │ TCP, JSON-line protocol ([`protocol`]), small packets
//!  GUI tier: [`client::DebugClient`] (CLI stand-in for the Swing GUI)
//! ```
//!
//! Because the application runs under DejaVu replay and every query goes
//! through remote reflection, debugging is *perturbation-free*: stop,
//! inspect, resume — the execution remains exactly the recorded one.

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

pub use client::DebugClient;
pub use engine::{DebugSession, FrameInfo, StopReason, ThreadInfo, DEFAULT_CHECKPOINT_INTERVAL};
pub use protocol::{Command, Response};
