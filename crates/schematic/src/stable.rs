//! [`StableHash`] implementations for the schematic data model.
//!
//! A design's stable digest is the cache key the migration cache and
//! the batch checkpoint layer share: same design content, same 64-bit
//! value, on every run and every host. Everything that affects migration
//! output is hashed — names, geometry, properties, globals, buses,
//! dialect — in the deterministic orders the model already maintains
//! (`BTreeMap`/`BTreeSet` iteration, vector order).

use interop_core::hash::{StableHash, StableHasher};

use crate::design::{CellSchematic, Design, Library};
use crate::dialect::DialectId;
use crate::geom::{BBox, Orient, Point, Transform};
use crate::property::{FontMetrics, Justify, Label, PropMap, PropValue, TextOrigin};
use crate::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use crate::symbol::{PinDir, SymbolDef, SymbolPin, SymbolRef};

impl StableHash for Point {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(self.x);
        h.write_i64(self.y);
    }
}

impl StableHash for BBox {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.lo.stable_hash(h);
        self.hi.stable_hash(h);
    }
}

impl StableHash for Orient {
    fn stable_hash(&self, h: &mut StableHasher) {
        // The vendor code is the stable name; enum discriminants are a
        // refactoring hazard.
        h.write_str(self.code());
    }
}

impl StableHash for Transform {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.origin.stable_hash(h);
        self.orient.stable_hash(h);
    }
}

impl StableHash for DialectId {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(match self {
            DialectId::Viewstar => "viewstar",
            DialectId::Cascade => "cascade",
        });
    }
}

impl StableHash for PinDir {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self.keyword());
    }
}

impl StableHash for ConnectorKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self.keyword());
    }
}

impl StableHash for PropValue {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            PropValue::Text(s) => {
                h.write_u8(0);
                h.write_str(s);
            }
            PropValue::Int(i) => {
                h.write_u8(1);
                h.write_i64(*i);
            }
            PropValue::Real(r) => {
                h.write_u8(2);
                h.write_f64(*r);
            }
            PropValue::Flag(b) => {
                h.write_u8(3);
                h.write_u8(*b as u8);
            }
        }
    }
}

impl StableHash for PropMap {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        for (k, v) in self.iter() {
            h.write_str(k);
            v.stable_hash(h);
        }
    }
}

impl StableHash for TextOrigin {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            TextOrigin::Baseline => 0,
            TextOrigin::BelowBaseline => 1,
        });
    }
}

impl StableHash for FontMetrics {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(self.height);
        h.write_i64(self.width);
        self.origin.stable_hash(h);
        h.write_i64(self.baseline_offset);
    }
}

impl StableHash for Justify {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            Justify::Left => 0,
            Justify::Center => 1,
            Justify::Right => 2,
        });
    }
}

impl StableHash for Label {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.text.stable_hash(h);
        self.at.stable_hash(h);
        self.font.stable_hash(h);
        self.justify.stable_hash(h);
    }
}

impl StableHash for SymbolRef {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.library.stable_hash(h);
        self.cell.stable_hash(h);
        self.view.stable_hash(h);
    }
}

impl StableHash for SymbolPin {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.at.stable_hash(h);
        self.dir.stable_hash(h);
    }
}

impl StableHash for SymbolDef {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.reference.stable_hash(h);
        self.pins.stable_hash(h);
        self.body.stable_hash(h);
        h.write_i64(self.grid);
        self.default_props.stable_hash(h);
    }
}

impl StableHash for Library {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        // The symbols alone, without their `(cell, view)` keys: each
        // symbol's reference already carries them.
        self.symbol_map().stable_hash_by(h, |symbols, h| {
            h.write_usize(symbols.len());
            for sym in symbols.values() {
                sym.stable_hash(h);
            }
        });
    }
}

impl StableHash for Instance {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.symbol.stable_hash(h);
        self.place.stable_hash(h);
        self.props.stable_hash(h);
    }
}

impl StableHash for Wire {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.points.stable_hash(h);
        self.label.stable_hash(h);
    }
}

impl StableHash for Connector {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.kind.stable_hash(h);
        self.name.stable_hash(h);
        self.at.stable_hash(h);
        self.orient.stable_hash(h);
    }
}

impl StableHash for Sheet {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(self.page);
        self.frame.stable_hash(h);
        self.instances.stable_hash(h);
        self.wires.stable_hash(h);
        self.connectors.stable_hash(h);
        self.annotations.stable_hash(h);
    }
}

impl StableHash for CellSchematic {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(&self.cell);
        self.sheets.stable_hash(h);
        self.buses.stable_hash(h);
        self.ports.stable_hash(h);
    }
}

impl StableHash for Design {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(&self.name);
        self.dialect.stable_hash(h);
        h.write_usize(self.libraries().count());
        for lib in self.libraries() {
            lib.stable_hash(h);
        }
        h.write_usize(self.cells().count());
        for (name, cell) in self.cells() {
            h.write_str(name);
            cell.stable_hash(h);
        }
        h.write_str(&self.top);
        self.globals().stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use interop_core::hash::hash_of;

    use crate::gen::{generate, GenConfig};

    #[test]
    fn digest_is_stable_across_clones_and_regeneration() {
        let a = generate(&GenConfig::default());
        let b = generate(&GenConfig::default());
        assert_eq!(hash_of(&a), hash_of(&b), "same generator, same digest");
        assert_eq!(hash_of(&a), hash_of(&a.clone()));
    }

    #[test]
    fn any_edit_changes_the_digest() {
        let base = generate(&GenConfig::default());
        let h0 = hash_of(&base);

        let mut renamed = base.clone();
        renamed.name.push('x');
        assert_ne!(hash_of(&renamed), h0, "design name is hashed");

        let mut moved = base.clone();
        let cell_name = moved.cells().next().unwrap().0.to_string();
        let cell = moved.cell_mut(&cell_name).unwrap();
        if let Some(inst) = cell.sheets[0].instances.first_mut() {
            inst.place.origin.x += 1;
            assert_ne!(hash_of(&moved), h0, "geometry is hashed");
        }

        let mut glob = base.clone();
        glob.add_global("AVDD");
        assert_ne!(hash_of(&glob), h0, "globals are hashed");

        let mut prop = base.clone();
        let cell_name = prop.cells().next().unwrap().0.to_string();
        let cell = prop.cell_mut(&cell_name).unwrap();
        if let Some(inst) = cell.sheets[0].instances.first_mut() {
            inst.props.set("CACHE_TEST", 1i64);
            assert_ne!(hash_of(&prop), h0, "properties are hashed");
        }
    }

    #[test]
    fn dialect_is_part_of_the_digest() {
        let a = generate(&GenConfig::default());
        let mut b = a.clone();
        b.dialect = crate::dialect::DialectId::Cascade;
        assert_ne!(hash_of(&a), hash_of(&b));
    }
}
