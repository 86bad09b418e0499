//! Designs: libraries plus hierarchical schematic cells.

use std::collections::{BTreeMap, BTreeSet};

use interop_core::intern::{intern, IStr};
use interop_core::Shared;

use crate::dialect::DialectId;
use crate::sheet::Sheet;
use crate::symbol::{SymbolDef, SymbolPin, SymbolRef};

/// A named collection of symbol definitions, keyed by `(cell, view)`.
///
/// The symbol map is one copy-on-write [`Shared`] chunk: cloning a
/// library (into a design, a cache memo, or from a migration config's
/// target libraries) copies a pointer, and [`Library::add`] copies the
/// map only while another clone still holds it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Library {
    /// Library name (interned; shared by every symbol reference).
    pub name: IStr,
    symbols: Shared<BTreeMap<(IStr, IStr), SymbolDef>>,
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<IStr>) -> Self {
        Library {
            name: name.into(),
            symbols: Shared::default(),
        }
    }

    /// Adds (or replaces) a symbol. The symbol's own reference supplies
    /// the `(cell, view)` key; its library field is rewritten to match
    /// this library.
    pub fn add(&mut self, mut sym: SymbolDef) {
        sym.reference.library = self.name.clone();
        self.symbols.insert(
            (sym.reference.cell.clone(), sym.reference.view.clone()),
            sym,
        );
    }

    /// Looks up a symbol by cell and view name.
    pub fn symbol(&self, cell: &str, view: &str) -> Option<&SymbolDef> {
        self.symbols.get(&(intern(cell), intern(view)))
    }

    /// Iterates over all symbols in key order.
    pub fn iter(&self) -> impl Iterator<Item = &SymbolDef> {
        self.symbols.values()
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the library holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbol map as its shared chunk, keyed by `(cell, view)` —
    /// for stable hashing and for checking which libraries share
    /// storage ([`Shared::ptr_eq`]).
    pub fn symbol_map(&self) -> &Shared<BTreeMap<(IStr, IStr), SymbolDef>> {
        &self.symbols
    }
}

/// The schematic view of one cell: its pages, declared buses, and ports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSchematic {
    /// Cell name.
    pub cell: String,
    /// Drawing pages in page order.
    pub sheets: Vec<Sheet>,
    /// Base names of buses declared in this cell — the scope used to
    /// resolve Viewstar's condensed bus syntax.
    pub buses: BTreeSet<IStr>,
    /// The cell's interface ports (mirrors the pins of its symbol).
    pub ports: Vec<SymbolPin>,
}

impl CellSchematic {
    /// Creates an empty schematic for `cell`.
    pub fn new(cell: impl Into<String>) -> Self {
        CellSchematic {
            cell: cell.into(),
            ..CellSchematic::default()
        }
    }

    /// Gets a sheet by page number.
    pub fn sheet(&self, page: u32) -> Option<&Sheet> {
        self.sheets.iter().find(|s| s.page == page)
    }

    /// Gets a mutable sheet by page number.
    pub fn sheet_mut(&mut self, page: u32) -> Option<&mut Sheet> {
        self.sheets.iter_mut().find(|s| s.page == page)
    }

    /// Total instance count across all pages.
    pub fn instance_count(&self) -> usize {
        self.sheets.iter().map(|s| s.instances.len()).sum()
    }

    /// Total wire count across all pages.
    pub fn wire_count(&self) -> usize {
        self.sheets.iter().map(|s| s.wires.len()).sum()
    }
}

/// A complete schematic design: libraries, cells, a top cell, and the
/// set of global net names.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Design name.
    pub name: String,
    /// Which dialect's conventions this design is drawn in.
    pub dialect: DialectId,
    libraries: BTreeMap<IStr, Library>,
    cells: BTreeMap<String, CellSchematic>,
    /// Name of the top-level cell.
    pub top: String,
    globals: BTreeSet<IStr>,
}

impl Design {
    /// Creates an empty design in the given dialect.
    pub fn new(name: impl Into<String>, dialect: DialectId) -> Self {
        Design {
            name: name.into(),
            dialect,
            libraries: BTreeMap::new(),
            cells: BTreeMap::new(),
            top: String::new(),
            globals: BTreeSet::new(),
        }
    }

    /// Adds (or replaces) a library.
    pub fn add_library(&mut self, lib: Library) {
        self.libraries.insert(lib.name.clone(), lib);
    }

    /// Adds (or replaces) a cell schematic. The first cell added becomes
    /// the top cell unless [`Design::set_top`] overrides it.
    pub fn add_cell(&mut self, cell: CellSchematic) {
        if self.top.is_empty() {
            self.top = cell.cell.clone();
        }
        self.cells.insert(cell.cell.clone(), cell);
    }

    /// Declares a global net (e.g. `VDD`).
    pub fn add_global(&mut self, name: impl Into<IStr>) {
        self.globals.insert(name.into());
    }

    /// Renames a declared global. Returns `false` when `from` is not a
    /// global (the set is unchanged).
    pub fn rename_global(&mut self, from: &str, to: impl Into<IStr>) -> bool {
        if self.globals.remove(from) {
            self.globals.insert(to.into());
            true
        } else {
            false
        }
    }

    /// Sets the top cell.
    pub fn set_top(&mut self, cell: impl Into<String>) {
        self.top = cell.into();
    }

    /// Library lookup by name.
    pub fn library(&self, name: &str) -> Option<&Library> {
        self.libraries.get(name)
    }

    /// Mutable library lookup by name.
    pub fn library_mut(&mut self, name: &str) -> Option<&mut Library> {
        self.libraries.get_mut(name)
    }

    /// Iterates over libraries in name order.
    pub fn libraries(&self) -> impl Iterator<Item = &Library> {
        self.libraries.values()
    }

    /// Cell lookup by name.
    pub fn cell(&self, name: &str) -> Option<&CellSchematic> {
        self.cells.get(name)
    }

    /// Mutable cell lookup by name.
    pub fn cell_mut(&mut self, name: &str) -> Option<&mut CellSchematic> {
        self.cells.get_mut(name)
    }

    /// Iterates over `(name, cell)` pairs in name order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &CellSchematic)> {
        self.cells.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over cells mutably.
    pub fn cells_mut(&mut self) -> impl Iterator<Item = &mut CellSchematic> {
        self.cells.values_mut()
    }

    /// The set of global net names.
    pub fn globals(&self) -> &BTreeSet<IStr> {
        &self.globals
    }

    /// Resolves a symbol reference against the design's libraries.
    pub fn resolve_symbol(&self, r: &SymbolRef) -> Option<&SymbolDef> {
        self.libraries.get(&r.library)?.symbol(&r.cell, &r.view)
    }

    /// True when instances of `r` are hierarchical (the referenced cell
    /// has a schematic view in this design).
    pub fn is_hierarchical(&self, r: &SymbolRef) -> bool {
        self.cells.contains_key(r.cell.as_str())
    }

    /// Cells in bottom-up dependency order (leaves first, top last).
    /// Cells involved in a reference cycle are appended at the end in
    /// name order; genuine schematic hierarchies are acyclic.
    pub fn cells_bottom_up(&self) -> Vec<&str> {
        let mut order: Vec<&str> = Vec::new();
        let mut done: BTreeSet<&str> = BTreeSet::new();
        // Kahn-style: repeatedly take cells whose children are all done.
        loop {
            let mut progressed = false;
            for (name, cell) in &self.cells {
                if done.contains(name.as_str()) {
                    continue;
                }
                let ready = cell
                    .sheets
                    .iter()
                    .flat_map(|s| &s.instances)
                    .filter(|i| self.is_hierarchical(&i.symbol))
                    .all(|i| done.contains(i.symbol.cell.as_str()) || i.symbol.cell == *name);
                if ready {
                    order.push(name);
                    done.insert(name);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for name in self.cells.keys() {
            if !done.contains(name.as_str()) {
                order.push(name);
            }
        }
        order
    }

    /// Total counts `(cells, instances, wires, labels, connectors)` —
    /// used by migration reports.
    pub fn stats(&self) -> DesignStats {
        let mut s = DesignStats {
            cells: self.cells.len(),
            ..DesignStats::default()
        };
        for cell in self.cells.values() {
            for sheet in &cell.sheets {
                s.instances += sheet.instances.len();
                s.wires += sheet.wires.len();
                s.labels += sheet.wires.iter().filter(|w| w.label.is_some()).count()
                    + sheet.annotations.len();
                s.connectors += sheet.connectors.len();
            }
        }
        s
    }
}

/// Size summary of a design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesignStats {
    /// Number of schematic cells.
    pub cells: usize,
    /// Total component instances.
    pub instances: usize,
    /// Total wires.
    pub wires: usize,
    /// Total labels (net labels plus annotations).
    pub labels: usize,
    /// Total connector objects.
    pub connectors: usize,
}

impl std::fmt::Display for DesignStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells, {} instances, {} wires, {} labels, {} connectors",
            self.cells, self.instances, self.wires, self.labels, self.connectors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Orient, Point};
    use crate::sheet::Instance;
    use crate::symbol::PinDir;

    fn tiny_design() -> Design {
        let mut d = Design::new("tiny", DialectId::Viewstar);
        let mut lib = Library::new("basiclib");
        lib.add(
            SymbolDef::new(SymbolRef::new("basiclib", "inv", "symbol"), 16)
                .with_pin("A", Point::new(0, 0), PinDir::Input)
                .with_pin("Y", Point::new(64, 0), PinDir::Output),
        );
        d.add_library(lib);

        let mut leaf = CellSchematic::new("buf2");
        leaf.sheets.push(Sheet::new(1));
        let mut top = CellSchematic::new("top");
        let mut sheet = Sheet::new(1);
        sheet.instances.push(Instance::new(
            "X1",
            SymbolRef::new("userlib", "buf2", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        top.sheets.push(sheet);
        d.add_cell(top);
        d.add_cell(leaf);
        d.set_top("top");
        d
    }

    #[test]
    fn symbol_resolution_and_hierarchy() {
        let d = tiny_design();
        assert!(d
            .resolve_symbol(&SymbolRef::new("basiclib", "inv", "symbol"))
            .is_some());
        assert!(d
            .resolve_symbol(&SymbolRef::new("basiclib", "nand9", "symbol"))
            .is_none());
        assert!(d.is_hierarchical(&SymbolRef::new("userlib", "buf2", "symbol")));
        assert!(!d.is_hierarchical(&SymbolRef::new("basiclib", "inv", "symbol")));
    }

    #[test]
    fn bottom_up_order_puts_leaves_first() {
        let d = tiny_design();
        let order = d.cells_bottom_up();
        let buf_pos = order.iter().position(|c| *c == "buf2").unwrap();
        let top_pos = order.iter().position(|c| *c == "top").unwrap();
        assert!(buf_pos < top_pos);
    }

    #[test]
    fn stats_count_everything() {
        let d = tiny_design();
        let s = d.stats();
        assert_eq!(s.cells, 2);
        assert_eq!(s.instances, 1);
    }

    #[test]
    fn library_add_rewrites_owner() {
        let mut lib = Library::new("mylib");
        lib.add(SymbolDef::new(SymbolRef::new("other", "c", "v"), 16));
        assert_eq!(lib.symbol("c", "v").unwrap().reference.library, "mylib");
        assert_eq!(lib.len(), 1);
        assert!(!lib.is_empty());
    }
}
