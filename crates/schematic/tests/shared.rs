//! Copy-on-write chunks in the schematic model: random edit sequences
//! through every `&mut` path keep digests and byte counts equal to those
//! of a deep copy, never reach the clones taken along the way, and
//! equality stays deep.

use interop_core::hash::{hash_and_size, hash_of, size_of};
use interop_core::Shared;
use proptest::prelude::*;
use schematic::design::{Design, Library};
use schematic::gen::{generate, GenConfig};
use schematic::geom::Point;
use schematic::property::{FontMetrics, Label, PropValue};
use schematic::sheet::{Connector, ConnectorKind, Sheet, Wire};
use schematic::symbol::{SymbolDef, SymbolRef};

/// A copy that shares no chunk with `d`.
fn deep_copy(d: &Design) -> Design {
    let mut copy = d.clone();
    for lib in d.libraries() {
        let mut fresh = Library::new(lib.name.clone());
        for sym in lib.iter() {
            fresh.add(sym.clone());
        }
        copy.add_library(fresh);
    }
    for cell in copy.cells_mut() {
        for sheet in &mut cell.sheets {
            sheet.instances = Shared::new(Vec::clone(&sheet.instances));
            sheet.wires = Shared::new(Vec::clone(&sheet.wires));
            sheet.connectors = Shared::new(Vec::clone(&sheet.connectors));
            sheet.annotations = Shared::new(Vec::clone(&sheet.annotations));
        }
    }
    copy
}

/// The `pick`-th sheet of the design, counting across cells.
fn sheet_mut(d: &mut Design, pick: u64) -> &mut Sheet {
    let count: usize = d.cells().map(|(_, c)| c.sheets.len()).sum();
    let mut at = pick as usize % count;
    for cell in d.cells_mut() {
        if at < cell.sheets.len() {
            return &mut cell.sheets[at];
        }
        at -= cell.sheets.len();
    }
    unreachable!("at < count")
}

/// Applies edit `op` (parameterised by `arg`) through one of the ways a
/// caller reaches a chunk mutably.
fn edit(d: &mut Design, op: u8, arg: u64) {
    let p = Point::new((arg % 97) as i64 * 16, (arg % 31) as i64 * 16);
    match op {
        // Auto-deref to a `Vec` method.
        0 => sheet_mut(d, arg)
            .wires
            .push(Wire::new(vec![p, p.offset(32, 0)])),
        // `iter_mut` through `DerefMut`.
        1 => {
            for inst in sheet_mut(d, arg).instances.iter_mut() {
                inst.place.origin.x += 16;
            }
        }
        // `&mut` iteration over the handle itself.
        2 => {
            let sheet = sheet_mut(d, arg);
            sheet
                .connectors
                .push(Connector::new(ConnectorKind::OffPage, "n_edit", p));
            for c in &mut sheet.connectors {
                c.at.y -= 16;
            }
        }
        // `IndexMut`.
        3 => {
            let wires = &mut sheet_mut(d, arg).wires;
            if !wires.is_empty() {
                let i = arg as usize % wires.len();
                wires[i].label = None;
            }
        }
        4 => sheet_mut(d, arg).annotations.push(Label::new(
            format!("note {arg}"),
            p,
            FontMetrics::VIEWSTAR,
        )),
        5 => {
            let instances = &mut sheet_mut(d, arg).instances;
            if !instances.is_empty() {
                let i = arg as usize % instances.len();
                instances.remove(i);
            }
        }
        6 => {
            let instances = &mut sheet_mut(d, arg).instances;
            if !instances.is_empty() {
                let i = arg as usize % instances.len();
                instances[i].props.set("EDIT", PropValue::Real(arg as f64));
            }
        }
        // A library's symbol map.
        7 => {
            let name = d.libraries().next().expect("a library").name.clone();
            let lib = d.library_mut(&name).expect("library exists");
            lib.add(SymbolDef::new(
                SymbolRef::new("x", format!("sym{}", arg % 5), "symbol"),
                16,
            ));
        }
        // Replacing a whole list.
        8 => {
            let sheet = sheet_mut(d, arg);
            sheet.wires = sheet.wires.iter().skip(1).cloned().collect();
        }
        _ => {
            sheet_mut(d, arg)
                .annotations
                .retain(|a| a.text.len() % 2 == 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn edits_keep_digests_and_counts_equal_to_a_deep_copy(
        seed in 0u64..1000,
        steps in prop::collection::vec((0u8..10, any::<u64>()), 1..24),
    ) {
        let mut d = generate(&GenConfig { seed, ..GenConfig::default() });
        let mut clones: Vec<(Design, u64, usize)> = Vec::new();
        for (k, (op, arg)) in steps.into_iter().enumerate() {
            // Every other step leaves a clone behind that the next edits
            // must copy away from.
            if k % 2 == 0 {
                clones.push((d.clone(), hash_of(&d), size_of(&d)));
            }
            edit(&mut d, op, arg);
            let copy = deep_copy(&d);
            prop_assert_eq!(size_of(&d), hash_and_size(&d).1, "step {} op {}", k, op);
            prop_assert_eq!(hash_and_size(&d), hash_and_size(&copy), "step {} op {}", k, op);
            prop_assert_eq!(size_of(&d), size_of(&copy), "step {} op {}", k, op);
            for (clone, digest, bytes) in &clones {
                prop_assert_eq!((hash_of(clone), size_of(clone)), (*digest, *bytes));
            }
        }
    }
}

#[test]
fn deep_copy_shares_nothing_and_equals_the_original() {
    let d = generate(&GenConfig::default());
    let copy = deep_copy(&d);
    assert_eq!(d, copy);
    for ((_, a), (_, b)) in d.cells().zip(copy.cells()) {
        for (x, y) in a.sheets.iter().zip(&b.sheets) {
            assert!(!Shared::ptr_eq(&x.wires, &y.wires));
            assert!(!Shared::ptr_eq(&x.instances, &y.instances));
        }
    }
    for (x, y) in d.libraries().zip(copy.libraries()) {
        assert!(!Shared::ptr_eq(x.symbol_map(), y.symbol_map()));
    }
}

#[test]
fn a_design_holding_nan_is_unequal_to_itself() {
    let mut d = generate(&GenConfig::default());
    assert_eq!(d, d.clone());
    let sheet = sheet_mut(&mut d, 0);
    sheet.instances[0]
        .props
        .set("RATIO", PropValue::Real(f64::NAN));
    let same = d.clone();
    let first = |d: &Design| d.cells().next().unwrap().1.sheets[0].instances.clone();
    assert!(Shared::ptr_eq(&first(&d), &first(&same)));
    assert_ne!(d, same, "sharing storage does not make chunks equal");
    #[allow(clippy::eq_op)]
    let reflexive = d == d;
    assert!(
        !reflexive,
        "a NaN property makes the design unequal to itself"
    );
}
