//! # sim — event-driven HDL simulation with legal nondeterminism
//!
//! The simulator substrate for the CAD-interoperability workbench
//! reproducing *Issues and Answers in CAD Tool Interoperability*
//! (DAC 1996). It implements every Section 3.1 phenomenon the paper
//! catalogues:
//!
//! * an event-driven four-value kernel whose **scheduling policy** is a
//!   parameter — simultaneous-event order and continuous-assignment
//!   eagerness are both legal freedoms ([`kernel`], [`logic`]),
//! * **race detection** by running one model under several policies and
//!   diffing waveforms ([`race`]),
//! * **backward-compatibility drift** in timing checks, with a
//!   `+pre_16a_path`-style switch ([`timing`]),
//! * **co-simulation** across a nine-value/four-value bridge with full
//!   or naive value translation ([`cosim`]).
//!
//! Models come from the [`hdl`] crate ([`elab`] compiles a flattened
//! module).
//!
//! Values are packed two-bitplane words ([`logic::Value`]): widths up
//! to 64 are two inline `u64`s and the gate tables are word-parallel
//! plane arithmetic, with a retained per-bit reference path
//! ([`logic::reference`]) for differential testing. Elaboration
//! compiles every expression once per circuit into word-level
//! instructions over registers ([`eval`]), which each kernel runs
//! against its own preallocated register file. A waveform records each
//! change as a fixed-size entry over one word arena ([`kernel::Waveform`])
//! that readers borrow through [`logic::ValueRef`]s; race reports keep
//! each diverging signal's history as flat columns
//! ([`kernel::History`]). Kernels are `Send`
//! (the circuit sits behind an `Arc`), so the policy × stimulus
//! divergence grid can be swept across threads with
//! [`race::sweep_parallel`], which fans out through
//! [`interop_core::par`].
//!
//! ## Example
//!
//! ```
//! use sim::elab::compile_unit;
//! use sim::kernel::SchedulerPolicy;
//! use sim::race::{clocked_testbench, detect, models};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = hdl::parse(models::PAPER_RACE)?;
//! let circuit = compile_unit(&unit, "race")?;
//! let report = detect(&circuit, &SchedulerPolicy::all(), |k| {
//!     clocked_testbench(k, 4)
//! })?;
//! assert!(report.has_race());
//! # Ok(())
//! # }
//! ```

pub mod cosim;
pub mod elab;
pub mod eval;
pub mod kernel;
pub mod logic;
pub mod pli;
pub mod race;
pub mod timing;
pub mod vcd;

pub use elab::{compile, compile_unit, Circuit};
pub use kernel::{History, IndexedWaveform, Kernel, SchedulerPolicy, SimError, Waveform};
pub use logic::{Logic, Std9, Value, ValueRef};
pub use race::{sweep, sweep_parallel, RaceReport, Stim, SweepResult};
