//! Canonical netlists and netlist comparison.
//!
//! Section 2's closing point: "design data translations must be
//! independently verified". The canonical netlist is the tool-neutral
//! form both the source and translated schematics are reduced to; the
//! comparison here is the independent verifier.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use interop_core::hash::{FNV_OFFSET, FNV_PRIME};
use interop_core::intern::IStr;

/// A reference to one pin of one instance. Both parts are interned —
/// a netlist names each instance and pin many times over.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PinRef {
    /// Instance name.
    pub inst: IStr,
    /// Pin name on the instance's symbol.
    pub pin: IStr,
}

impl PinRef {
    /// Creates a pin reference.
    pub fn new(inst: impl Into<IStr>, pin: impl Into<IStr>) -> Self {
        PinRef {
            inst: inst.into(),
            pin: pin.into(),
        }
    }
}

impl fmt::Display for PinRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.inst, self.pin)
    }
}

/// One net of a cell netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetInfo {
    /// Instance pins on the net.
    pub pins: BTreeSet<PinRef>,
    /// True for global nets (power rails etc.).
    pub is_global: bool,
    /// Port names through which this net is visible to the parent cell
    /// (empty for internal nets).
    pub ports: BTreeSet<String>,
}

/// The netlist of one cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellNetlist {
    /// Nets by canonical name.
    pub nets: BTreeMap<String, NetInfo>,
    /// Instance name → referenced cell (symbol cell name).
    pub instances: BTreeMap<IStr, IStr>,
}

impl CellNetlist {
    /// The net a given instance pin connects to, if any.
    pub fn net_of(&self, pin: &PinRef) -> Option<&str> {
        self.nets
            .iter()
            .find(|(_, n)| n.pins.contains(pin))
            .map(|(name, _)| name.as_str())
    }

    /// Pins left unconnected: instance pins referenced by no net are not
    /// representable here, so this reports nets with exactly one pin and
    /// no port/global attachment — the usual dangling-net symptom.
    pub fn dangling_nets(&self) -> Vec<&str> {
        self.nets
            .iter()
            .filter(|(_, n)| n.pins.len() <= 1 && n.ports.is_empty() && !n.is_global)
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

/// A design-wide canonical netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    /// Design name.
    pub design: String,
    /// Cell netlists by cell name.
    pub cells: BTreeMap<String, CellNetlist>,
}

impl Netlist {
    /// Creates an empty netlist for a design name.
    pub fn new(design: impl Into<String>) -> Self {
        Netlist {
            design: design.into(),
            cells: BTreeMap::new(),
        }
    }

    /// Total net count across cells.
    pub fn net_count(&self) -> usize {
        self.cells.values().map(|c| c.nets.len()).sum()
    }

    /// Total pin-connection count across cells.
    pub fn pin_count(&self) -> usize {
        self.cells
            .values()
            .flat_map(|c| c.nets.values())
            .map(|n| n.pins.len())
            .sum()
    }
}

/// One discrepancy found by netlist comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistDiff {
    /// A cell present on one side only.
    CellOnlyIn {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// Cell name.
        cell: String,
    },
    /// An instance present on one side only.
    InstanceOnlyIn {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// Cell name.
        cell: String,
        /// Instance name.
        inst: String,
    },
    /// An instance references different cells on the two sides.
    InstanceRetargeted {
        /// Cell name.
        cell: String,
        /// Instance name.
        inst: String,
        /// Referenced cell on the left.
        left: String,
        /// Referenced cell on the right.
        right: String,
    },
    /// A net whose pin set exists on the left but matches nothing on the
    /// right (or vice versa) — a genuine connectivity change.
    NetUnmatched {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// Cell name.
        cell: String,
        /// Net name on that side.
        net: String,
        /// The pins of the unmatched net.
        pins: Vec<String>,
    },
}

impl fmt::Display for NetlistDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistDiff::CellOnlyIn { side, cell } => write!(f, "cell `{cell}` only in {side}"),
            NetlistDiff::InstanceOnlyIn { side, cell, inst } => {
                write!(f, "{cell}: instance `{inst}` only in {side}")
            }
            NetlistDiff::InstanceRetargeted {
                cell,
                inst,
                left,
                right,
            } => write!(f, "{cell}: instance `{inst}` is `{left}` vs `{right}`"),
            NetlistDiff::NetUnmatched {
                side,
                cell,
                net,
                pins,
            } => write!(
                f,
                "{cell}: net `{net}` in {side} unmatched (pins: {})",
                pins.join(" ")
            ),
        }
    }
}

/// Result of a netlist comparison: the name mapping discovered plus all
/// discrepancies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompareReport {
    /// Per-cell mapping from left net name to the structurally equal
    /// right net name.
    pub net_mapping: BTreeMap<String, BTreeMap<String, String>>,
    /// All discrepancies, empty when the netlists are equivalent.
    pub diffs: Vec<NetlistDiff>,
}

impl CompareReport {
    /// True when no discrepancies were found.
    pub fn is_equivalent(&self) -> bool {
        self.diffs.is_empty()
    }
}

/// A digest of a pin set from the addresses of its interned names. Equal
/// sets have equal digests: every handle to one text points at one
/// allocation, and a `BTreeSet` lists equal sets in one order. The
/// addresses are the intern table's, not chosen by the input.
fn pins_digest(pins: &BTreeSet<PinRef>) -> u64 {
    pins.iter().fold(FNV_OFFSET, |h, p| {
        let h = (h ^ p.inst.as_str().as_ptr() as u64).wrapping_mul(FNV_PRIME);
        (h ^ p.pin.as_str().as_ptr() as u64).wrapping_mul(FNV_PRIME)
    })
}

/// Compares two netlists **structurally**: instance names must match and
/// every net on each side must have a pin-set-identical partner on the
/// other, but net *names* may differ freely (translation legitimately
/// renames nets — e.g. dropping Viewstar postfix indicators).
///
/// Nets with no pins on either side are ignored.
pub fn compare(left: &Netlist, right: &Netlist) -> CompareReport {
    let mut report = CompareReport::default();

    for cell in left.cells.keys() {
        if !right.cells.contains_key(cell) {
            report.diffs.push(NetlistDiff::CellOnlyIn {
                side: "left",
                cell: cell.clone(),
            });
        }
    }
    for cell in right.cells.keys() {
        if !left.cells.contains_key(cell) {
            report.diffs.push(NetlistDiff::CellOnlyIn {
                side: "right",
                cell: cell.clone(),
            });
        }
    }

    for (cell, lc) in &left.cells {
        let Some(rc) = right.cells.get(cell) else {
            continue;
        };

        for (inst, lref) in &lc.instances {
            match rc.instances.get(inst) {
                None => report.diffs.push(NetlistDiff::InstanceOnlyIn {
                    side: "left",
                    cell: cell.clone(),
                    inst: inst.as_str().to_string(),
                }),
                Some(rref) if rref != lref => report.diffs.push(NetlistDiff::InstanceRetargeted {
                    cell: cell.clone(),
                    inst: inst.as_str().to_string(),
                    left: lref.as_str().to_string(),
                    right: rref.as_str().to_string(),
                }),
                Some(_) => {}
            }
        }
        for inst in rc.instances.keys() {
            if !lc.instances.contains_key(inst) {
                report.diffs.push(NetlistDiff::InstanceOnlyIn {
                    side: "right",
                    cell: cell.clone(),
                    inst: inst.as_str().to_string(),
                });
            }
        }

        // Structural matching: key each right net by its pin set's
        // digest, sorted with ties in name order; each left net takes the
        // first unused right net (in name order) with an equal pin set.
        let right_nets: Vec<(&String, &NetInfo)> = rc.nets.iter().collect();
        let mut right_by_digest: Vec<(u64, usize)> = right_nets
            .iter()
            .enumerate()
            .filter(|(_, (_, info))| !info.pins.is_empty())
            .map(|(k, (_, info))| (pins_digest(&info.pins), k))
            .collect();
        right_by_digest.sort_unstable();
        let mut used_right = vec![false; right_nets.len()];
        let mut mapping: Vec<(String, String)> = Vec::new();

        for (lname, linfo) in &lc.nets {
            if linfo.pins.is_empty() {
                continue;
            }
            let digest = pins_digest(&linfo.pins);
            let first = right_by_digest.partition_point(|&(d, _)| d < digest);
            let candidate = right_by_digest[first..]
                .iter()
                .take_while(|&&(d, _)| d == digest)
                .map(|&(_, k)| k)
                .find(|&k| !used_right[k] && right_nets[k].1.pins == linfo.pins);
            match candidate {
                Some(k) => {
                    used_right[k] = true;
                    mapping.push((lname.clone(), right_nets[k].0.clone()));
                }
                None => report.diffs.push(NetlistDiff::NetUnmatched {
                    side: "left",
                    cell: cell.clone(),
                    net: lname.clone(),
                    pins: linfo.pins.iter().map(|p| p.to_string()).collect(),
                }),
            }
        }
        report
            .net_mapping
            .insert(cell.clone(), mapping.into_iter().collect());
        for (k, (rname, rinfo)) in right_nets.iter().enumerate() {
            if rinfo.pins.is_empty() || used_right[k] {
                continue;
            }
            report.diffs.push(NetlistDiff::NetUnmatched {
                side: "right",
                cell: cell.clone(),
                net: (*rname).clone(),
                pins: rinfo.pins.iter().map(|p| p.to_string()).collect(),
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pins: &[(&str, &str)]) -> NetInfo {
        NetInfo {
            pins: pins.iter().map(|(i, p)| PinRef::new(*i, *p)).collect(),
            ..NetInfo::default()
        }
    }

    fn simple(names: [&str; 2]) -> Netlist {
        let mut nl = Netlist::new("d");
        let mut cell = CellNetlist::default();
        cell.instances.insert("I1".into(), "inv".into());
        cell.instances.insert("I2".into(), "inv".into());
        cell.nets
            .insert(names[0].into(), net(&[("I1", "Y"), ("I2", "A")]));
        cell.nets.insert(names[1].into(), net(&[("I2", "Y")]));
        nl.cells.insert("top".into(), cell);
        nl
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let a = simple(["n1", "n2"]);
        let r = compare(&a, &a.clone());
        assert!(r.is_equivalent());
    }

    #[test]
    fn renamed_nets_still_match_structurally() {
        let a = simple(["mid-", "out"]);
        let b = simple(["mid", "out"]);
        let r = compare(&a, &b);
        assert!(r.is_equivalent(), "diffs: {:?}", r.diffs);
        assert_eq!(r.net_mapping["top"]["mid-"], "mid");
    }

    #[test]
    fn equal_pin_sets_pair_up_in_name_order() {
        let side = |nets: &[(&str, &[(&str, &str)])]| {
            let mut nl = Netlist::new("d");
            let mut cell = CellNetlist::default();
            for (name, pins) in nets {
                cell.nets.insert((*name).into(), net(pins));
            }
            nl.cells.insert("top".into(), cell);
            nl
        };
        let p: &[(&str, &str)] = &[("I1", "Y"), ("I2", "A")];
        let q: &[(&str, &str)] = &[("I2", "Y")];
        let left = side(&[("a", p), ("b", p), ("c", q), ("d", p)]);
        let right = side(&[("x", p), ("y", q), ("z", p)]);
        let r = compare(&left, &right);
        let mapping: Vec<(&str, &str)> = r.net_mapping["top"]
            .iter()
            .map(|(l, r)| (l.as_str(), r.as_str()))
            .collect();
        assert_eq!(mapping, [("a", "x"), ("b", "z"), ("c", "y")]);
        assert!(matches!(
            &r.diffs[..],
            [NetlistDiff::NetUnmatched { side: "left", net, .. }] if net == "d"
        ));
    }

    #[test]
    fn moved_pin_is_detected() {
        let a = simple(["n1", "n2"]);
        let mut b = simple(["n1", "n2"]);
        let cell = b.cells.get_mut("top").unwrap();
        let info = cell.nets.get_mut("n2").unwrap();
        info.pins.insert(PinRef::new("I1", "A"));
        let r = compare(&a, &b);
        assert!(!r.is_equivalent());
        assert!(r
            .diffs
            .iter()
            .any(|d| matches!(d, NetlistDiff::NetUnmatched { .. })));
    }

    #[test]
    fn missing_instance_is_detected() {
        let a = simple(["n1", "n2"]);
        let mut b = simple(["n1", "n2"]);
        b.cells.get_mut("top").unwrap().instances.remove("I2");
        let r = compare(&a, &b);
        assert!(r
            .diffs
            .iter()
            .any(|d| matches!(d, NetlistDiff::InstanceOnlyIn { side: "left", .. })));
    }

    #[test]
    fn retargeted_instance_is_detected() {
        let a = simple(["n1", "n2"]);
        let mut b = simple(["n1", "n2"]);
        *b.cells
            .get_mut("top")
            .unwrap()
            .instances
            .get_mut("I1")
            .unwrap() = "nand2".into();
        let r = compare(&a, &b);
        assert!(r
            .diffs
            .iter()
            .any(|d| matches!(d, NetlistDiff::InstanceRetargeted { .. })));
    }

    #[test]
    fn dangling_net_detection() {
        let mut cell = CellNetlist::default();
        cell.nets.insert("loner".into(), net(&[("I1", "Y")]));
        let mut port_net = net(&[("I2", "A")]);
        port_net.ports.insert("OUT".into());
        cell.nets.insert("out".into(), port_net);
        assert_eq!(cell.dangling_nets(), vec!["loner"]);
    }

    #[test]
    fn net_of_finds_owner() {
        let mut cell = CellNetlist::default();
        cell.nets.insert("n".into(), net(&[("I1", "Y")]));
        assert_eq!(cell.net_of(&PinRef::new("I1", "Y")), Some("n"));
        assert_eq!(cell.net_of(&PinRef::new("I9", "Y")), None);
    }
}
