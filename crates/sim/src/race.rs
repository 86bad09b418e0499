//! Race detection by cross-policy divergence.
//!
//! "Typically, if different simulators give different results when
//! simulating the same model, there is a race condition in the model
//! being simulated, and the potential for a bug in the real hardware."
//! This module runs one model under several *legal* scheduling policies
//! and reports every signal whose history diverges.
//!
//! Section 6's methodology asks for *exhaustive* scenario exploration:
//! [`sweep`] runs the full `policies × stimulus sets` grid, and
//! [`sweep_parallel`] fans the same grid across threads — kernels are
//! `Send`, and the circuit is shared through one [`Arc`] — with the
//! workspace's one work-stealing executor, [`interop_core::par`]. Both
//! produce identical, deterministically ordered results.

use std::collections::BTreeMap;
use std::sync::Arc;

use interop_core::par::par_map;

use crate::elab::{Circuit, SigId};
use crate::kernel::{Kernel, SchedulerPolicy, SimError};
use crate::logic::{Logic, Value};

/// One diverging signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Signal name.
    pub signal: String,
    /// Per-policy collapsed histories `(policy, [(time, value)])`.
    pub histories: Vec<(&'static str, Vec<(u64, Value)>)>,
}

/// Result of a cross-policy comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RaceReport {
    /// Policies compared.
    pub policies: Vec<&'static str>,
    /// Signals whose histories diverge across policies.
    pub diverging: Vec<Divergence>,
}

impl RaceReport {
    /// True when any signal diverges — the model has a race.
    pub fn has_race(&self) -> bool {
        !self.diverging.is_empty()
    }
}

/// Runs `circuit` under every policy, driving each kernel with the same
/// testbench closure, and compares per-signal histories. The circuit is
/// shared across kernels through one [`Arc`] — no per-policy deep clone.
///
/// # Errors
///
/// Propagates the first simulation error from any run.
pub fn detect(
    circuit: &Circuit,
    policies: &[SchedulerPolicy],
    drive: impl Fn(&mut Kernel) -> Result<(), SimError>,
) -> Result<RaceReport, SimError> {
    let shared = Arc::new(circuit.clone());
    let mut kernels = Vec::with_capacity(policies.len());
    for policy in policies {
        let mut k = Kernel::new_shared(Arc::clone(&shared), *policy);
        drive(&mut k)?;
        kernels.push(k);
    }
    Ok(compare(&kernels))
}

/// Compares already-run kernels (which must share a circuit layout).
/// Each waveform is indexed once, so the whole comparison costs
/// O(total changes) instead of O(signals × changes).
pub fn compare(kernels: &[Kernel]) -> RaceReport {
    let mut report = RaceReport {
        policies: kernels.iter().map(|k| k.policy().name).collect(),
        diverging: Vec::new(),
    };
    let Some(first) = kernels.first() else {
        return report;
    };
    let signal_count = first.circuit().signal_count();
    let indexed: Vec<_> = kernels
        .iter()
        .map(|k| k.waveform().indexed(signal_count))
        .collect();
    for sig in 0..signal_count {
        let histories: Vec<(&'static str, Vec<(u64, Value)>)> = kernels
            .iter()
            .zip(&indexed)
            .map(|(k, idx)| (k.policy().name, idx.history(sig)))
            .collect();
        let all_same = histories.windows(2).all(|w| w[0].1 == w[1].1);
        if !all_same {
            report.diverging.push(Divergence {
                signal: first.circuit().signals[sig].name.clone(),
                histories,
            });
        }
    }
    report
}

/// Canonical example models used by tests, examples, and benches.
pub mod models {
    /// The paper's Section 3.1 example, adapted to a clocked process:
    /// a continuous assignment read back in the same activation that
    /// wrote its operand. Whether `a` has updated by the time the `if`
    /// reads it depends on whether the simulator propagates continuous
    /// assignments eagerly or through the event queue — both legal.
    pub const PAPER_RACE: &str = r#"
        module race(input clk, input d, output reg b, output reg mismatch);
          wire a;
          wire c;
          assign c = 1;
          assign a = b & c;
          initial begin
            b = 0;
            mismatch = 0;
          end
          always @(posedge clk) begin
            b = d;
            if (a != d)      // which value of a?
              mismatch = 1;
          end
        endmodule
    "#;

    /// An inter-process order race: two blocking-assignment processes
    /// triggered by the same edge, one reading what the other writes.
    /// FIFO and LIFO activation orders legally disagree.
    pub const ORDER_RACE: &str = r#"
        module order(input clk, input d, output reg x, output reg y);
          initial begin
            x = 0;
            y = 0;
          end
          always @(posedge clk) x = d;
          always @(posedge clk) y = x;
        endmodule
    "#;

    /// The race-free rewrite: non-blocking assignments decouple read
    /// and write, so every policy agrees.
    pub const RACE_FREE: &str = r#"
        module clean(input clk, input d, output reg x, output reg y);
          initial begin
            x = 0;
            y = 0;
          end
          always @(posedge clk) x <= d;
          always @(posedge clk) y <= x;
        endmodule
    "#;
}

/// Drives a clock/data testbench shared by the race experiments:
/// `cycles` rising edges with `d` toggling every cycle. Signal ids are
/// resolved once up front, so the per-event cost is a plain `poke`.
pub fn clocked_testbench(kernel: &mut Kernel, cycles: u64) -> Result<(), SimError> {
    let clk = kernel.lookup("clk")?;
    let d = kernel.lookup("d")?;
    let mut t = 0u64;
    kernel.poke(clk, Value::bit(Logic::Zero));
    kernel.poke(d, Value::bit(Logic::Zero));
    kernel.run_until(t)?;
    for cycle in 0..cycles {
        t += 5;
        kernel.poke(
            d,
            Value::bit(if cycle % 2 == 0 {
                Logic::One
            } else {
                Logic::Zero
            }),
        );
        kernel.run_until(t)?;
        t += 5;
        kernel.poke(clk, Value::bit(Logic::One));
        kernel.run_until(t)?;
        t += 5;
        kernel.poke(clk, Value::bit(Logic::Zero));
        kernel.run_until(t)?;
    }
    Ok(())
}

/// A data-driven stimulus set: a named sequence of timed pokes. Unlike
/// a testbench closure, a `Stim` is plain `Send + Sync` data, so one
/// slice of them can be shared untouched across sweep worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Stim {
    /// Display name (appears in sweep results).
    pub name: String,
    /// `(time, signal name, value)` pokes, expected in time order.
    pub events: Vec<(u64, String, Value)>,
    /// Final time to settle to after the last event.
    pub run_to: u64,
}

impl Stim {
    /// The canonical clock/data waveform of [`clocked_testbench`] as
    /// data: `cycles` rising edges with `d` toggling every cycle.
    pub fn clocked(name: impl Into<String>, cycles: u64) -> Stim {
        let mut events = vec![
            (0, "clk".to_string(), Value::bit(Logic::Zero)),
            (0, "d".to_string(), Value::bit(Logic::Zero)),
        ];
        let mut t = 0u64;
        for cycle in 0..cycles {
            t += 5;
            let level = if cycle % 2 == 0 {
                Logic::One
            } else {
                Logic::Zero
            };
            events.push((t, "d".to_string(), Value::bit(level)));
            t += 5;
            events.push((t, "clk".to_string(), Value::bit(Logic::One)));
            t += 5;
            events.push((t, "clk".to_string(), Value::bit(Logic::Zero)));
        }
        Stim {
            name: name.into(),
            events,
            run_to: t + 5,
        }
    }

    /// Applies the stimulus to a kernel: all pokes sharing a timestamp
    /// land before that time slot settles (matching how a closure
    /// testbench pokes then runs), and the kernel finally settles at
    /// `run_to`. Every distinct signal name is resolved exactly once.
    ///
    /// # Errors
    ///
    /// Fails on unknown signal names or simulation runaway.
    pub fn apply(&self, kernel: &mut Kernel) -> Result<(), SimError> {
        let mut ids: BTreeMap<&str, SigId> = BTreeMap::new();
        for (_, name, _) in &self.events {
            if !ids.contains_key(name.as_str()) {
                ids.insert(name, kernel.lookup(name)?);
            }
        }
        let mut i = 0;
        while i < self.events.len() {
            let t = self.events[i].0;
            while i < self.events.len() && self.events[i].0 == t {
                let (_, name, v) = &self.events[i];
                kernel.poke(ids[name.as_str()], v.clone());
                i += 1;
            }
            kernel.run_until(t)?;
        }
        kernel.run_until(self.run_to)
    }
}

/// The outcome of one sweep cell: one stimulus set compared across all
/// policies.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The stimulus set's name.
    pub stim: String,
    /// The cross-policy comparison for that stimulus.
    pub report: RaceReport,
}

/// Runs the `policies × stims` divergence grid sequentially. Results
/// are in `stims` order.
///
/// # Errors
///
/// Returns the first error in `stims` order.
pub fn sweep(
    circuit: &Arc<Circuit>,
    policies: &[SchedulerPolicy],
    stims: &[Stim],
) -> Result<Vec<SweepResult>, SimError> {
    stims
        .iter()
        .map(|s| sweep_one(circuit, policies, s))
        .collect()
}

fn sweep_one(
    circuit: &Arc<Circuit>,
    policies: &[SchedulerPolicy],
    stim: &Stim,
) -> Result<SweepResult, SimError> {
    let mut kernels = Vec::with_capacity(policies.len());
    for policy in policies {
        let mut k = Kernel::new_shared(Arc::clone(circuit), *policy);
        stim.apply(&mut k)?;
        kernels.push(k);
    }
    Ok(SweepResult {
        stim: stim.name.clone(),
        report: compare(&kernels),
    })
}

/// Runs the `policies × stims` divergence grid across `threads` worker
/// threads with [`par_map`]. Each job is one stimulus set (all policies
/// run within the job, so per-stim comparisons never cross threads).
/// The result vector is byte-identical to [`sweep`]'s regardless of
/// thread count or steal timing.
///
/// # Errors
///
/// Returns the first error in `stims` order (deterministic even when
/// several jobs fail on different threads).
pub fn sweep_parallel(
    circuit: &Arc<Circuit>,
    policies: &[SchedulerPolicy],
    stims: &[Stim],
    threads: usize,
) -> Result<Vec<SweepResult>, SimError> {
    par_map(threads, stims, |stim| sweep_one(circuit, policies, stim))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::compile_unit;
    use hdl::parser::parse;

    fn circuit(src: &str, top: &str) -> Circuit {
        compile_unit(&parse(src).unwrap(), top).unwrap()
    }

    #[test]
    fn paper_race_diverges_between_eager_and_queued() {
        let c = circuit(models::PAPER_RACE, "race");
        let report = detect(&c, &SchedulerPolicy::all(), |k| clocked_testbench(k, 4)).unwrap();
        assert!(report.has_race());
        assert!(
            report.diverging.iter().any(|d| d.signal == "mismatch"),
            "diverging: {:?}",
            report
                .diverging
                .iter()
                .map(|d| &d.signal)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn order_race_diverges_between_fifo_and_lifo() {
        let c = circuit(models::ORDER_RACE, "order");
        let report = detect(&c, &SchedulerPolicy::all(), |k| clocked_testbench(k, 4)).unwrap();
        assert!(report.has_race());
        assert!(report.diverging.iter().any(|d| d.signal == "y"));
    }

    #[test]
    fn race_free_model_agrees_everywhere() {
        let c = circuit(models::RACE_FREE, "clean");
        let report = detect(&c, &SchedulerPolicy::all(), |k| clocked_testbench(k, 6)).unwrap();
        assert!(!report.has_race(), "diverging: {:?}", report.diverging);
    }

    #[test]
    fn single_policy_never_diverges_with_itself() {
        let c = circuit(models::PAPER_RACE, "race");
        let report = detect(
            &c,
            &[SchedulerPolicy::sim_a(), SchedulerPolicy::sim_a()],
            |k| clocked_testbench(k, 4),
        )
        .unwrap();
        assert!(!report.has_race());
    }

    #[test]
    fn clocked_stim_replays_the_closure_testbench_exactly() {
        let c = circuit(models::PAPER_RACE, "race");
        let shared = Arc::new(c.clone());
        for policy in SchedulerPolicy::all() {
            let mut via_closure = Kernel::new_shared(Arc::clone(&shared), policy);
            clocked_testbench(&mut via_closure, 4).unwrap();
            let mut via_stim = Kernel::new_shared(Arc::clone(&shared), policy);
            Stim::clocked("c4", 4).apply(&mut via_stim).unwrap();
            // Identical waveforms up to the stim's final settle time.
            assert_eq!(
                via_closure.waveform().changes,
                via_stim.waveform().changes,
                "{}",
                policy.name
            );
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_for_all_thread_counts() {
        let shared = Arc::new(circuit(models::PAPER_RACE, "race"));
        let stims: Vec<Stim> = (1..=7)
            .map(|cycles| Stim::clocked(format!("cycles{cycles}"), cycles))
            .collect();
        let policies = SchedulerPolicy::all();
        let sequential = sweep(&shared, &policies, &stims).unwrap();
        assert_eq!(sequential.len(), stims.len());
        assert!(sequential.iter().all(|r| r.report.has_race()));
        for threads in [1, 2, 3, 8] {
            let parallel = sweep_parallel(&shared, &policies, &stims, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sweep_reports_the_first_error_deterministically() {
        let shared = Arc::new(circuit(models::ORDER_RACE, "order"));
        let mut bad = Stim::clocked("bad", 2);
        bad.events
            .push((bad.run_to, "nope".to_string(), Value::bit(Logic::One)));
        let stims = vec![Stim::clocked("ok", 2), bad.clone(), bad];
        let err = sweep_parallel(&shared, &SchedulerPolicy::all(), &stims, 4).unwrap_err();
        assert!(matches!(err, SimError::NoSuchSignal { ref name } if name == "nope"));
    }
}
