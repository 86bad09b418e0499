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
//!
//! The sweeps and [`compare`] share one history walk. It compares the
//! histories of every signal in place, in the waveforms' change logs,
//! and copies only a diverging signal's histories into the report, each
//! as one flat [`History`] with its capacity reserved exactly.

use std::borrow::Borrow;
use std::sync::Arc;

use interop_core::par::par_map;

use crate::elab::{Circuit, SigId};
use crate::kernel::{ChangeIndex, History, Kernel, SchedulerPolicy, SimError, Waveform};
use crate::logic::{Logic, Value};

/// One diverging signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Signal name.
    pub signal: String,
    /// Per-policy collapsed histories.
    pub histories: Vec<(&'static str, History)>,
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
/// O(total changes) instead of O(signals × changes); only the histories
/// of diverging signals are copied into the report.
pub fn compare(kernels: &[Kernel]) -> RaceReport {
    let policies = kernels.iter().map(|k| k.policy().name).collect();
    let Some(first) = kernels.first() else {
        return RaceReport {
            policies,
            diverging: Vec::new(),
        };
    };
    let waves: Vec<&Waveform> = kernels.iter().map(Kernel::waveform).collect();
    walk(first.circuit(), policies, &waves)
}

/// The history walk shared by [`compare`] and the sweeps. Each
/// waveform is indexed once; then, signal by signal, every waveform's
/// collapsed history is compared in place with the first one's, and
/// only a diverging signal's entries are copied, while they are still in
/// cache.
fn walk<W: Borrow<Waveform>>(
    circuit: &Circuit,
    policies: Vec<&'static str>,
    waves: &[W],
) -> RaceReport {
    let Some(first) = waves.first().map(Borrow::borrow) else {
        return RaceReport {
            policies,
            diverging: Vec::new(),
        };
    };
    let signal_count = circuit.signal_count();
    let indexes: Vec<ChangeIndex> = waves
        .iter()
        .map(|w| ChangeIndex::new(w.borrow(), signal_count))
        .collect();
    // Each waveform's collapsed positions of the current signal, in
    // buffers reused across signals.
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); waves.len()];
    let mut diverging = Vec::new();
    for sig in 0..signal_count {
        for ((list, index), w) in lists.iter_mut().zip(&indexes).zip(waves) {
            list.clear();
            list.extend(index.history(w.borrow(), sig));
        }
        let same = lists.iter().zip(waves).skip(1).all(|(list, w)| {
            list.len() == lists[0].len()
                && list
                    .iter()
                    .zip(&lists[0])
                    .all(|(&i, &j)| w.borrow().same_change(i, first, j))
        });
        if same {
            continue;
        }
        let histories = policies
            .iter()
            .zip(waves)
            .zip(&lists)
            .map(|((policy, w), list)| (*policy, History::gather(w.borrow(), list)))
            .collect();
        diverging.push(Divergence {
            signal: circuit.signals[sig].name.clone(),
            histories,
        });
    }
    RaceReport {
        policies,
        diverging,
    }
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

    /// A deliberately busy model for the kernel-throughput experiments
    /// and the `race_sweep` benchmark: a combinational gate chain
    /// feeding a 70-bit concat bus, a chain of wide plane ops over
    /// 70/140/280-bit vectors, reductions back down to scalars, and two
    /// clocked registers — so one clock cycle exercises scalar ops, wide
    /// word-parallel ops, NBA commits, and watcher fan-out.
    pub const BUSY: &str = r#"
        module busy(input clk, input d, output reg q, output reg [15:0] acc);
          wire g0; wire g1; wire g2; wire g3; wire g4; wire g5;
          wire g6; wire g7; wire g8; wire g9;
          assign g0 = d ^ clk;
          assign g1 = ~g0;
          assign g2 = g0 & g1;
          assign g3 = g0 | g2;
          assign g4 = g3 ^ g1;
          assign g5 = ~g4;
          assign g6 = g5 & d;
          assign g7 = g6 | g4;
          assign g8 = g7 ^ g5;
          assign g9 = ~g8;
          wire [69:0] bus;
          wire [69:0] busn;
          wire [69:0] busx;
          wire [69:0] busa;
          wire [69:0] buso;
          wire [139:0] wide;
          wire [139:0] widen;
          wire [139:0] widex;
          wire [279:0] huge;
          wire [279:0] hugen;
          wire [279:0] hugea;
          wire [279:0] hugeo;
          wire [279:0] hugex;
          wire ra; wire ro;
          assign bus = {g0, g1, g2, g3, g4, g5, g6, g7, g8, g9,
                        g0, g1, g2, g3, g4, g5, g6, g7, g8, g9,
                        g0, g1, g2, g3, g4, g5, g6, g7, g8, g9,
                        g0, g1, g2, g3, g4, g5, g6, g7, g8, g9,
                        g0, g1, g2, g3, g4, g5, g6, g7, g8, g9,
                        g0, g1, g2, g3, g4, g5, g6, g7, g8, g9,
                        g0, g1, g2, g3, g4, g5, g6, g7, g8, g9};
          assign busn = ~bus;
          assign busx = bus ^ busn;
          assign busa = bus & busx;
          assign buso = busa | busn;
          assign wide = {bus, busn};
          assign widen = ~wide;
          assign widex = wide ^ widen;
          assign huge = {widex, widen};
          assign hugen = ~huge;
          assign hugea = huge & hugen;
          assign hugeo = hugea | huge;
          assign hugex = hugeo ^ hugen;
          assign ra = &hugex;
          assign ro = |buso;
          initial begin
            q = 0;
            acc = 0;
          end
          always @(posedge clk) q <= g9 ^ ra ^ ro;
          always @(posedge clk) acc <= acc + 1;
        endmodule
    "#;

    /// Bit-select writes and blocking assignments: a shift register
    /// filled one bit at a time through a moving index, an index read in
    /// a continuous assignment, a bit-select continuous driver, a second
    /// process that reads (with a blocking write) what the first writes,
    /// and a `case` on the index. The same model is pinned by the golden
    /// kernel digests (`tests/sim_golden.rs`).
    pub const BITS: &str = r#"
        module bits(input clk, input d, output reg [7:0] sh, output reg [2:0] i,
                    output reg seen, output [3:0] nib);
          wire [7:0] inv;
          wire pick;
          assign inv = ~sh;
          assign pick = sh[i];
          assign nib[2] = pick ^ inv[0];
          initial begin
            sh = 0;
            i = 0;
            seen = 0;
          end
          always @(posedge clk) begin
            sh[i] = d;
            i = i + 1;
            if (i == 4)
              sh[7] = ~d;
          end
          always @(posedge clk) seen = pick;
          always @(negedge clk) begin
            case (i)
              1: sh[6] = sh[0];
              5: sh[1] = inv[2];
              default: seen = ~seen;
            endcase
          end
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
    /// `run_to`. Every signal name is resolved before anything runs.
    ///
    /// # Errors
    ///
    /// Fails on unknown signal names or simulation runaway.
    pub fn apply(&self, kernel: &mut Kernel) -> Result<(), SimError> {
        self.resolve(kernel.circuit())?.apply(kernel)
    }

    /// Resolves every event's signal name against `circuit`, failing on
    /// the first unknown name.
    fn resolve(&self, circuit: &Circuit) -> Result<Resolved<'_>, SimError> {
        let events = self
            .events
            .iter()
            .map(|(t, name, v)| match circuit.signal(name) {
                Some(sig) => Ok((*t, sig, v)),
                None => Err(SimError::NoSuchSignal { name: name.clone() }),
            })
            .collect::<Result<_, _>>()?;
        Ok(Resolved {
            events,
            run_to: self.run_to,
        })
    }
}

/// A [`Stim`] with its signal names resolved against one circuit, so a
/// sweep cell resolves once and replays the result under every policy.
struct Resolved<'a> {
    events: Vec<(u64, SigId, &'a Value)>,
    run_to: u64,
}

impl Resolved<'_> {
    fn apply(&self, kernel: &mut Kernel) -> Result<(), SimError> {
        let mut i = 0;
        while i < self.events.len() {
            let t = self.events[i].0;
            while i < self.events.len() && self.events[i].0 == t {
                let (_, sig, v) = self.events[i];
                kernel.poke_ref(sig, v);
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
    let resolved = stim.resolve(circuit)?;
    let mut waves = Vec::with_capacity(policies.len());
    for policy in policies {
        let mut k = Kernel::new_shared(Arc::clone(circuit), *policy);
        resolved.apply(&mut k)?;
        waves.push(k.into_waveform());
    }
    let names = policies.iter().map(|p| p.name).collect();
    Ok(SweepResult {
        stim: stim.name.clone(),
        report: walk(circuit, names, &waves),
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
                via_closure.waveform(),
                via_stim.waveform(),
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
    fn a_sweep_without_policies_reports_no_race() {
        let shared = Arc::new(circuit(models::ORDER_RACE, "order"));
        let results = sweep(&shared, &[], &[Stim::clocked("c2", 2)]).unwrap();
        assert!(!results[0].report.has_race());
        assert!(compare(&[]).policies.is_empty());
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
