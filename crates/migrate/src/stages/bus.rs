//! Stage: bus syntax translation.
//!
//! "Viewlogic allows condensed busing syntax, i.e. `A0` is equivalent to
//! bit 0 of bus `A<0:15>`. However, Cadence requires that bus syntax be
//! explicit... Viewlogic permits the use of post-fix indicators such as
//! the minus sign in `myBus<0:15>-`. This syntax is not understood by
//! Cadence. For these nets, the postfix indicators were adjusted to keep
//! the net names unique."

use std::collections::{BTreeMap, BTreeSet};

use interop_core::IStr;
use schematic::bus::{BusSyntax, NetName};
use schematic::design::Design;

use crate::report::StageStats;
use crate::stages::edit_where;

/// Suffix appended to a net's base name when simply dropping its postfix
/// indicator would collide with another net.
fn postfix_suffix(c: char) -> &'static str {
    match c {
        '-' => "_n",
        '*' => "_s",
        '+' => "_p",
        '~' => "_t",
        _ => "_x",
    }
}

/// Computes the per-cell net-name translation table from `src` syntax to
/// `dst` syntax.
///
/// Returns `(map, renames, issues)`: the old-text → new-text map, how
/// many names changed, and any untranslatable names.
pub fn translation_table(
    names: &BTreeSet<IStr>,
    buses: &BTreeSet<IStr>,
    src: BusSyntax,
    dst: BusSyntax,
) -> (BTreeMap<IStr, IStr>, usize, Vec<String>) {
    let mut map = BTreeMap::new();
    let mut taken: BTreeSet<String> = BTreeSet::new();
    let mut renames = 0usize;
    let mut issues = Vec::new();

    // First pass: names without postfixes claim their translations.
    let mut postfixed: Vec<(&IStr, NetName)> = Vec::new();
    for text in names {
        match src.parse(text, buses) {
            Ok(parsed) => {
                if parsed.postfix.is_some() && !dst.can_express(&parsed) {
                    postfixed.push((text, parsed));
                } else {
                    let out = dst.format(&parsed);
                    taken.insert(out.clone());
                    if *text != out {
                        renames += 1;
                    }
                    map.insert(text.clone(), out.into());
                }
            }
            Err(e) => issues.push(format!("`{text}`: {e}")),
        }
    }

    // Second pass: postfixed names drop the indicator, suffixing the
    // base on collision.
    for (text, parsed) in postfixed {
        let c = parsed.postfix.expect("postfixed");
        let plain = NetName {
            expr: parsed.expr.clone(),
            postfix: None,
        };
        let candidate = dst.format(&plain);
        let out = if taken.contains(&candidate) {
            // Rebuild with a suffixed base.
            let suffixed = match &parsed.expr {
                schematic::bus::NetExpr::Scalar(b) => {
                    NetName::scalar(format!("{b}{}", postfix_suffix(c)))
                }
                schematic::bus::NetExpr::Bit(b, i) => {
                    NetName::bit(format!("{b}{}", postfix_suffix(c)), *i)
                }
                schematic::bus::NetExpr::Range(b, f, t) => {
                    NetName::range(format!("{b}{}", postfix_suffix(c)), *f, *t)
                }
            };
            dst.format(&suffixed)
        } else {
            candidate
        };
        taken.insert(out.clone());
        renames += 1;
        map.insert(text.clone(), out.into());
    }

    (map, renames, issues)
}

/// Rewrites every wire label and connector name from `src` syntax to
/// `dst` syntax across the design.
pub fn run(design: &mut Design, src: BusSyntax, dst: BusSyntax, stats: &mut StageStats) {
    for cell in design.cells_mut() {
        // Gather all names used in the cell.
        let mut names: BTreeSet<IStr> = BTreeSet::new();
        for sheet in &cell.sheets {
            for w in &sheet.wires {
                if let Some(l) = &w.label {
                    names.insert(l.text.clone());
                }
            }
            for c in &sheet.connectors {
                names.insert(c.name.clone());
            }
        }
        let (map, renames, issues) = translation_table(&names, &cell.buses, src, dst);
        stats.renamed += renames;
        stats.issues.extend(issues);

        // Every mapped name counts as touched; only the lists holding a
        // name that actually changes are written.
        let renamed = |text: &IStr| map.get(text).filter(|new| *new != text);
        for sheet in &mut cell.sheets {
            stats.touched += sheet
                .wires
                .iter()
                .filter(|w| w.label.as_ref().is_some_and(|l| map.contains_key(&l.text)))
                .count();
            stats.touched += sheet
                .connectors
                .iter()
                .filter(|c| map.contains_key(&c.name))
                .count();
            edit_where(
                &mut sheet.wires,
                |w| w.label.as_ref().is_some_and(|l| renamed(&l.text).is_some()),
                |w| {
                    let l = w.label.as_mut().expect("selected wires are labelled");
                    l.text = map[&l.text].clone();
                },
            );
            edit_where(
                &mut sheet.connectors,
                |c| renamed(&c.name).is_some(),
                |c| c.name = map[&c.name].clone(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> BTreeSet<IStr> {
        list.iter().map(|s| IStr::from(*s)).collect()
    }

    #[test]
    fn condensed_names_become_explicit() {
        let buses = names(&["A"]);
        let (map, renames, issues) = translation_table(
            &names(&["A0", "A<3>", "CLK"]),
            &buses,
            BusSyntax::Viewstar,
            BusSyntax::Cascade,
        );
        assert!(issues.is_empty());
        assert_eq!(map["A0"], "A<0>");
        assert_eq!(map["A<3>"], "A<3>");
        assert_eq!(map["CLK"], "CLK");
        assert_eq!(renames, 1);
    }

    #[test]
    fn postfix_dropped_when_unique() {
        let (map, renames, _) = translation_table(
            &names(&["myBus<0:15>-"]),
            &BTreeSet::new(),
            BusSyntax::Viewstar,
            BusSyntax::Cascade,
        );
        assert_eq!(map["myBus<0:15>-"], "myBus<0:15>");
        assert_eq!(renames, 1);
    }

    #[test]
    fn postfix_collision_gets_suffixed_base() {
        // Both `rst` and `rst-` exist: dropping the minus would alias
        // two distinct nets, so the postfixed one is renamed.
        let (map, _, _) = translation_table(
            &names(&["rst", "rst-"]),
            &BTreeSet::new(),
            BusSyntax::Viewstar,
            BusSyntax::Cascade,
        );
        assert_eq!(map["rst"], "rst");
        assert_eq!(map["rst-"], "rst_n");
        // The table stays injective.
        let targets: BTreeSet<&IStr> = map.values().collect();
        assert_eq!(targets.len(), map.len());
    }

    #[test]
    fn bad_names_are_reported() {
        let (_, _, issues) = translation_table(
            &names(&["9bad"]),
            &BTreeSet::new(),
            BusSyntax::Viewstar,
            BusSyntax::Cascade,
        );
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn viewstar_to_viewstar_is_identity() {
        let all = names(&["x", "b<0:3>", "n-"]);
        let (map, renames, issues) = translation_table(
            &all,
            &BTreeSet::new(),
            BusSyntax::Viewstar,
            BusSyntax::Viewstar,
        );
        assert!(issues.is_empty());
        assert_eq!(renames, 0);
        for (k, v) in &map {
            assert_eq!(k, v);
        }
    }
}
