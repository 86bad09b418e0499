//! Setup/hold timing checks with a backward-compatibility switch.
//!
//! Section 3.1: "Simulator timing models can change as new versions are
//! released, causing simulation timing results to drift unless
//! backwards compatibility is specifically addressed. For example,
//! Verilog-XL ... supports the `+pre_16a_path` command line option.
//! This option forces simulators with version 1.6a or later to use the
//! same timing check behavior as was used prior to the 1.6a version."
//!
//! Here the two versions differ in whether the check windows are open
//! or half-closed: a data edge landing exactly on the window boundary
//! violates under the new semantics but not the old — precisely the
//! kind of drift the flag exists to paper over.

use crate::elab::SigId;
use crate::kernel::{History, Waveform};
use crate::logic::Logic;

/// Which timing-check semantics to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompatMode {
    /// Pre-1.6a behaviour (`+pre_16a_path`): open windows — boundary
    /// hits do not violate.
    Pre16a,
    /// Current behaviour: half-closed windows — boundary hits violate.
    Post16a,
}

/// Violation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Data changed too close before the clock edge.
    Setup,
    /// Data changed too close after the clock edge.
    Hold,
}

/// One timing violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingViolation {
    /// The clock edge time.
    pub edge_at: u64,
    /// The offending data-change time.
    pub data_at: u64,
    /// Setup or hold.
    pub kind: ViolationKind,
}

/// A setup/hold check specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupHoldCheck {
    /// Clock signal.
    pub clk: SigId,
    /// Data signal.
    pub data: SigId,
    /// Required setup time.
    pub setup: u64,
    /// Required hold time.
    pub hold: u64,
}

/// Extracts the rising-edge times of `clk` from a waveform.
pub fn posedges(wave: &Waveform, clk: SigId) -> Vec<u64> {
    rising_edges(&wave.history(clk))
}

fn rising_edges(history: &History) -> Vec<u64> {
    let mut out = Vec::new();
    let mut prev = Logic::X;
    for (t, v) in history.iter() {
        let bit = v.get(0);
        if bit == Logic::One && prev != Logic::One {
            out.push(t);
        }
        prev = bit;
    }
    out
}

/// Runs the check over a recorded waveform. The waveform is indexed
/// once so both signal histories come out of a single pass over the
/// change log.
pub fn check(wave: &Waveform, spec: &SetupHoldCheck, mode: CompatMode) -> Vec<TimingViolation> {
    let idx = wave.indexed(spec.clk.max(spec.data) + 1);
    let edges = rising_edges(&idx.history(spec.clk));
    let data_changes: Vec<u64> = idx.history(spec.data).iter().map(|(t, _)| t).collect();
    let mut out = Vec::new();
    for &edge in &edges {
        for &d in &data_changes {
            let setup_hit = match mode {
                // Old: open interval (edge - setup, edge).
                CompatMode::Pre16a => d + spec.setup > edge && d < edge,
                // New: half-closed [edge - setup, edge).
                CompatMode::Post16a => d + spec.setup >= edge && d < edge,
            };
            if setup_hit {
                out.push(TimingViolation {
                    edge_at: edge,
                    data_at: d,
                    kind: ViolationKind::Setup,
                });
            }
            let hold_hit = match mode {
                // Old: open interval (edge, edge + hold).
                CompatMode::Pre16a => d > edge && d < edge + spec.hold,
                // New: half-closed (edge, edge + hold].
                CompatMode::Post16a => d > edge && d <= edge + spec.hold,
            };
            if hold_hit {
                out.push(TimingViolation {
                    edge_at: edge,
                    data_at: d,
                    kind: ViolationKind::Hold,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Value;

    /// Builds a waveform with a clock edge at `edge` and data changes
    /// at the given times. Signal 0 is clk, 1 is data.
    fn wave(edge: u64, data_at: &[u64]) -> Waveform {
        let mut changes = vec![(0, 0, Logic::Zero), (0, 1, Logic::Zero)];
        for (i, &t) in data_at.iter().enumerate() {
            changes.push((t, 1, if i % 2 == 0 { Logic::One } else { Logic::Zero }));
        }
        changes.push((edge, 0, Logic::One));
        changes.sort_by_key(|(t, _, _)| *t);
        let mut w = Waveform::default();
        for (t, sig, level) in changes {
            w.push(t, sig, &Value::bit(level));
        }
        w
    }

    const SPEC: SetupHoldCheck = SetupHoldCheck {
        clk: 0,
        data: 1,
        setup: 3,
        hold: 2,
    };

    #[test]
    fn clear_violations_fire_in_both_modes() {
        // Data at edge-1: inside both setup windows.
        let w = wave(10, &[9]);
        assert_eq!(check(&w, &SPEC, CompatMode::Pre16a).len(), 1);
        assert_eq!(check(&w, &SPEC, CompatMode::Post16a).len(), 1);
    }

    #[test]
    fn boundary_setup_hit_differs_across_versions() {
        // Data at exactly edge - setup = 7.
        let w = wave(10, &[7]);
        assert!(check(&w, &SPEC, CompatMode::Pre16a).is_empty());
        let post = check(&w, &SPEC, CompatMode::Post16a);
        assert_eq!(post.len(), 1);
        assert_eq!(post[0].kind, ViolationKind::Setup);
    }

    #[test]
    fn boundary_hold_hit_differs_across_versions() {
        // Data at exactly edge + hold = 12.
        let w = wave(10, &[12]);
        assert!(check(&w, &SPEC, CompatMode::Pre16a).is_empty());
        let post = check(&w, &SPEC, CompatMode::Post16a);
        assert_eq!(post.len(), 1);
        assert_eq!(post[0].kind, ViolationKind::Hold);
    }

    #[test]
    fn safe_data_is_clean_in_both_modes() {
        let w = wave(10, &[2, 20]);
        assert!(check(&w, &SPEC, CompatMode::Pre16a).is_empty());
        assert!(check(&w, &SPEC, CompatMode::Post16a).is_empty());
    }

    #[test]
    fn posedge_extraction_ignores_x_and_falls() {
        let mut w = Waveform::default();
        w.push(1, 0, &Value::bit(Logic::One)); // x -> 1: edge
        w.push(2, 0, &Value::bit(Logic::Zero));
        w.push(3, 0, &Value::bit(Logic::One)); // 0 -> 1: edge
        w.push(4, 0, &Value::bit(Logic::X));
        w.push(5, 0, &Value::bit(Logic::Zero));
        assert_eq!(posedges(&w, 0), vec![1, 3]);
    }
}
