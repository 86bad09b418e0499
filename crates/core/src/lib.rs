//! # interop-core — the Section 6 interoperability-analysis methodology
//!
//! The primary contribution of *Issues and Answers in CAD Tool
//! Interoperability* (DAC 1996) is its closing research section: a
//! "system level CAD software design process" with three parts —
//! system specification, system analysis, and system optimization.
//! This crate implements all three:
//!
//! * **Specification**: tool-independent [`task::Task`]s with
//!   normalized inputs/outputs, linked into a [`graph::TaskGraph`];
//!   [`scenario::Scenario`]s prune the graph to a practical subset.
//!   [`methodology::cell_based_methodology`] builds the ~200-task
//!   spec-to-tapeout flow the paper cites.
//! * **Analysis**: [`toolmodel::ToolModel`]s classify every data port
//!   into persistence / behavioural semantics / structural model /
//!   namespace and every control surface into interfaces;
//!   [`toolmodel::TaskToolMap`] finds holes and overlaps;
//!   [`flow::build`] derives the data/control-flow diagram; and
//!   [`analysis::analyze`] detects the five classic problems —
//!   performance, name mapping, structure mapping, semantic
//!   interpretation, tool control.
//! * **Optimization**: [`optimize`] implements the paper's three
//!   improvement classes — boundary repartitioning, data-convention
//!   adoption, and technology substitution — each measured by the drop
//!   in weighted interface overhead.
//!
//! ## Example
//!
//! ```
//! use interop_core::methodology::{cell_based_methodology, tool_catalog, MethodologyConfig};
//! use interop_core::toolmodel::TaskToolMap;
//! use interop_core::{analysis, flow};
//!
//! let graph = cell_based_methodology(&MethodologyConfig::default());
//! let tools = tool_catalog();
//! let map = TaskToolMap::build(&graph, &tools);
//! let diagram = flow::build(&graph, &tools, &map);
//! let report = analysis::analyze(&diagram);
//! assert!(!report.findings.is_empty());
//! ```

pub mod analysis;
pub mod dot;
pub mod fault;
pub mod flow;
pub mod graph;
pub mod hash;
pub mod intern;
pub mod methodology;
pub mod optimize;
pub mod par;
pub mod scenario;
pub mod shared;
pub mod task;
pub mod toolmodel;

pub use analysis::{analyze, AnalysisReport, Finding, ProblemClass};
pub use fault::{FaultEvent, FaultKind, FaultPlan, RetryPolicy, VirtualClock};
pub use graph::TaskGraph;
pub use hash::{hash_of, StableHash, StableHasher};
pub use intern::{intern, IStr};
pub use scenario::{prune, Scenario};
pub use shared::Shared;
pub use task::{Info, Task, TaskKind};
pub use toolmodel::{TaskToolMap, ToolModel};
