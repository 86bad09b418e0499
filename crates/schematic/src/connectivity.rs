//! Connectivity extraction: from drawn geometry to electrical nets.
//!
//! This is the machinery behind two of the paper's Section 2 issues:
//! *off-page connectors* ("Viewlogic connects same signal names across
//! multiple pages implicitly... Cascade requires these connections to be
//! explicit") and *verification* (the extracted netlist is the canonical
//! form compared before and after translation).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;

use interop_core::intern::IStr;

use crate::bus::{BusSyntax, NetExpr};
use crate::design::{CellSchematic, Design};
use crate::dialect::DialectRules;
use crate::geom::Point;
use crate::netlist::{CellNetlist, NetInfo, Netlist, PinRef};
use crate::property::Label;
use crate::sheet::{point_on_segment, Connector, ConnectorKind};
use crate::symbol::{SymbolDef, SymbolRef};

/// An extraction problem that prevents a clean netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// A wire or connector label failed to parse under the dialect
    /// grammar.
    UnparsedLabel {
        /// Page number.
        page: u32,
        /// Label text.
        text: String,
        /// Parser message.
        reason: String,
    },
    /// A scalar-named pin or label touched a bus bundle.
    BusTapMismatch {
        /// Page number.
        page: u32,
        /// Description of the offending attachment.
        what: String,
        /// The bundle's base names.
        bundle: String,
    },
    /// An instance references a symbol missing from the libraries; its
    /// pins cannot be extracted.
    UnresolvedSymbol {
        /// Page number.
        page: u32,
        /// Instance name.
        inst: String,
    },
}

impl fmt::Display for ConnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnError::UnparsedLabel { page, text, reason } => {
                write!(f, "p{page}: label `{text}`: {reason}")
            }
            ConnError::BusTapMismatch { page, what, bundle } => {
                write!(f, "p{page}: {what} attached to bundle {bundle}")
            }
            ConnError::UnresolvedSymbol { page, inst } => {
                write!(f, "p{page}: instance {inst}: unresolved symbol")
            }
        }
    }
}

/// One extracted electrical net.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtractedNet {
    /// Canonical name (lexicographically smallest alias, or a synthetic
    /// `N$k` for anonymous nets).
    pub name: String,
    /// Every name attached to the net.
    pub aliases: BTreeSet<String>,
    /// Instance pins on the net.
    pub pins: BTreeSet<PinRef>,
    /// Pages the net appears on.
    pub pages: BTreeSet<u32>,
    /// Port names binding the net to the parent cell.
    pub ports: BTreeSet<String>,
    /// True when the net is a declared global.
    pub is_global: bool,
    /// True when an off-page connector is attached.
    pub has_offpage: bool,
}

/// Result of extracting one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Extraction {
    /// Cell name.
    pub cell: String,
    /// The extracted nets, sorted by canonical name.
    pub nets: Vec<ExtractedNet>,
    /// Problems found along the way.
    pub errors: Vec<ConnError>,
}

impl Extraction {
    /// Finds a net by any alias.
    pub fn net(&self, name: &str) -> Option<&ExtractedNet> {
        self.nets
            .iter()
            .find(|n| n.name == name || n.aliases.contains(name))
    }
}

/// Formats an expanded bus bit: `base<idx>` with any postfix appended.
fn bit_name(base: &str, idx: i64, postfix: Option<char>) -> String {
    let mut s = format!("{base}<{idx}>");
    s.extend(postfix);
    s
}

/// Union-find over small index sets.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn with_len(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
    /// The root of every element, and a dense slot per root numbered in
    /// ascending root order: `(roots, slots, root count)`, where
    /// `slots[r]` is meaningful for roots only.
    fn roots_and_slots(&mut self) -> (Vec<usize>, Vec<usize>, usize) {
        let n = self.parent.len();
        let roots: Vec<usize> = (0..n).map(|i| self.find(i)).collect();
        let mut slots = vec![usize::MAX; n];
        let mut count = 0;
        for (i, &r) in roots.iter().enumerate() {
            if r == i {
                slots[i] = count;
                count += 1;
            }
        }
        (roots, slots, count)
    }
}

/// A drawn point: page and coordinates.
type Key = (u32, i64, i64);

/// Groups equal values by sorting, not hashing (the values come from
/// parsed input, so a hash table keyed by them could be flooded): returns
/// for each item the index of its value among the distinct values, and
/// the distinct values in ascending order.
fn distinct<K: Ord + Copy>(items: &[K]) -> (Vec<usize>, Vec<K>) {
    let mut sorted: Vec<(K, usize)> = items.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    let mut class = vec![0; items.len()];
    let mut values = Vec::new();
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        for &(_, i) in run {
            class[i] = values.len();
        }
        values.push(run[0].0);
    }
    (class, values)
}

/// Per-page coordinate index over the registered nodes: one copy sorted
/// by `(page, x, y)`, one by `(page, y, x)`. Answers "which nodes lie on
/// this segment" with range queries instead of a scan of every node.
struct PointIndex {
    by_xy: Vec<(Key, usize)>,
    by_yx: Vec<(Key, usize)>,
}

impl PointIndex {
    /// Builds the index from the nodes sorted by `(page, x, y)`.
    fn new(by_xy: Vec<(Key, usize)>) -> Self {
        let mut by_yx: Vec<(Key, usize)> =
            by_xy.iter().map(|&((p, x, y), n)| ((p, y, x), n)).collect();
        by_yx.sort_unstable();
        PointIndex { by_xy, by_yx }
    }

    fn range(sorted: &[(Key, usize)], lo: Key, hi: Key) -> &[(Key, usize)] {
        let start = sorted.partition_point(|e| e.0 < lo);
        let end = start + sorted[start..].partition_point(|e| e.0 <= hi);
        &sorted[start..end]
    }

    /// Calls `hit` with every node on the closed segment `a`–`b` of
    /// `page`: the same set `point_on_segment` accepts.
    fn on_segment(&self, page: u32, a: Point, b: Point, mut hit: impl FnMut(usize)) {
        let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
        let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
        if a.x == b.x {
            for &(_, n) in Self::range(&self.by_xy, (page, a.x, y0), (page, a.x, y1)) {
                hit(n);
            }
        } else if a.y == b.y {
            for &(_, n) in Self::range(&self.by_yx, (page, a.y, x0), (page, a.y, x1)) {
                hit(n);
            }
        } else {
            let column = Self::range(&self.by_xy, (page, x0, i64::MIN), (page, x1, i64::MAX));
            for &((_, x, y), n) in column {
                if point_on_segment(Point::new(x, y), a, b) {
                    hit(n);
                }
            }
        }
    }
}

/// A wire label or connector name, parsed once per cell under the
/// cell's bus scope.
enum LabelNet {
    /// A scalar or single bit, expanded with any postfix.
    Name(String),
    /// A bundle `base<from:to>` with its bits' expanded names in
    /// declaration order (`from` first).
    Range {
        base: String,
        from: i64,
        to: i64,
        bits: Vec<String>,
    },
}

impl LabelNet {
    fn parse(rules: &DialectRules, text: &str, buses: &BTreeSet<IStr>) -> Result<Self, String> {
        let name = rules.bus.parse(text, buses).map_err(|e| e.to_string())?;
        Ok(match name.expr {
            NetExpr::Scalar(mut b) => {
                b.extend(name.postfix);
                LabelNet::Name(b)
            }
            NetExpr::Bit(b, i) => LabelNet::Name(bit_name(&b, i, name.postfix)),
            NetExpr::Range(b, from, to) => {
                let bits = NetExpr::Range(b.clone(), from, to)
                    .bits()
                    .into_iter()
                    .map(|bit| match bit {
                        NetExpr::Bit(bb, i) => bit_name(&bb, i, name.postfix),
                        _ => unreachable!("a range expands to bits"),
                    })
                    .collect();
                LabelNet::Range {
                    base: b,
                    from,
                    to,
                    bits,
                }
            }
        })
    }
}

/// Attachments of all clusters in one flat list, each entry tagged with
/// its cluster. Sorted stably by cluster, a cluster's entries form one
/// run in the order they were attached, so no cluster needs a list of
/// its own.
type Attached<T> = Vec<(usize, T)>;

/// Splits the run of cluster `c` off the front of a cluster-sorted list.
fn take_run<'s, T>(list: &mut &'s [(usize, T)], c: usize) -> &'s [(usize, T)] {
    let n = list.iter().take_while(|e| e.0 == c).count();
    let (run, rest) = list.split_at(n);
    *list = rest;
    run
}

/// A net "atom": the per-bit (or per-scalar) unit produced from one
/// cluster, before name-based merging. Names and ports are ranges of the
/// extraction's flat name and port lists.
struct Atom {
    page: u32,
    order_key: (u32, i64, i64),
    names: Range<usize>,
    ports: Range<usize>,
    pins: BTreeSet<PinRef>,
    has_offpage: bool,
}

/// One extracted net before it takes the shape of an [`ExtractedNet`]
/// or a [`NetInfo`].
struct RawNet<'a> {
    name: String,
    /// Sorted, distinct.
    aliases: &'a [&'a str],
    /// Sorted, distinct.
    pages: &'a [u32],
    pins: BTreeSet<PinRef>,
    ports: BTreeSet<String>,
    is_global: bool,
    has_offpage: bool,
}

/// Extracts the connectivity of one cell under a dialect rule table.
pub fn extract_cell(design: &Design, cell: &CellSchematic, rules: &DialectRules) -> Extraction {
    let mut nets: Vec<ExtractedNet> = Vec::new();
    let errors = extract_nets(design, cell, rules, &mut |net| {
        nets.push(ExtractedNet {
            name: net.name,
            aliases: net.aliases.iter().map(|s| s.to_string()).collect(),
            pins: net.pins,
            pages: net.pages.iter().copied().collect(),
            ports: net.ports,
            is_global: net.is_global,
            has_offpage: net.has_offpage,
        })
    });
    nets.sort_by(|a, b| a.name.cmp(&b.name));
    Extraction {
        cell: cell.cell.clone(),
        nets,
        errors,
    }
}

/// The extraction behind [`extract_cell`] and [`extract_design`]: emits
/// every net in group order (before the sort by name) and returns the
/// errors.
fn extract_nets(
    design: &Design,
    cell: &CellSchematic,
    rules: &DialectRules,
    emit: &mut dyn FnMut(RawNet<'_>),
) -> Vec<ConnError> {
    let mut errors = Vec::new();
    let wires = || {
        cell.sheets
            .iter()
            .flat_map(|sheet| sheet.wires.iter().map(move |w| (sheet.page, w)))
    };

    // Pass 1: register geometry. Every drawn point is an occurrence, in
    // drawing order: each sheet's wire vertices, then its instances'
    // pins, then its connectors.
    let mut occurrences: Vec<Key> = Vec::new();
    let mut wire_starts: Vec<usize> = Vec::new();
    let mut pin_sites: Vec<(usize, PinRef)> = Vec::new();
    let mut conn_sites: Vec<(usize, &Connector)> = Vec::new();
    let mut symbols: Vec<(&SymbolRef, Option<&SymbolDef>)> = Vec::new();
    for sheet in &cell.sheets {
        for wire in &sheet.wires {
            assert!(!wire.points.is_empty(), "a wire has vertices");
            wire_starts.push(occurrences.len());
            occurrences.extend(wire.points.iter().map(|p| (sheet.page, p.x, p.y)));
        }
        for inst in &sheet.instances {
            let sym = match symbols.iter().find(|(r, _)| **r == inst.symbol) {
                Some(&(_, sym)) => sym,
                None => {
                    let sym = design.resolve_symbol(&inst.symbol);
                    symbols.push((&inst.symbol, sym));
                    sym
                }
            };
            let Some(sym) = sym else {
                errors.push(ConnError::UnresolvedSymbol {
                    page: sheet.page,
                    inst: inst.name.as_str().to_string(),
                });
                continue;
            };
            for pin in &sym.pins {
                let at = inst.place.apply(pin.at);
                pin_sites.push((
                    occurrences.len(),
                    PinRef::new(inst.name.clone(), pin.name.clone()),
                ));
                occurrences.push((sheet.page, at.x, at.y));
            }
        }
        for conn in &sheet.connectors {
            conn_sites.push((occurrences.len(), conn));
            occurrences.push((sheet.page, conn.at.x, conn.at.y));
        }
    }

    // Equal points are one node. Nodes are numbered in first-seen order
    // and the wire paths unioned in drawing order, so the union-find
    // roots, and with them the order of clusters, nets and errors, follow
    // the drawing alone.
    let (point_of, points) = distinct(&occurrences);
    let mut node_of_point = vec![usize::MAX; points.len()];
    let mut keys: Vec<Key> = Vec::with_capacity(points.len());
    for &p in &point_of {
        if node_of_point[p] == usize::MAX {
            node_of_point[p] = keys.len();
            keys.push(points[p]);
        }
    }
    let node_of = |occurrence: usize| node_of_point[point_of[occurrence]];
    let mut uf = UnionFind::with_len(keys.len());
    for ((_, wire), &start) in wires().zip(&wire_starts) {
        for k in start + 1..start + wire.points.len() {
            uf.union(node_of(k - 1), node_of(k));
        }
    }

    // Pass 2: union every registered node that touches a wire on the same
    // page (captures T junctions and pins landing mid-segment). Each
    // wire's hits all join its head's root, so the roots do not depend
    // on the order the index reports them in.
    {
        let by_xy = points
            .iter()
            .zip(&node_of_point)
            .map(|(&key, &n)| (key, n))
            .collect();
        let index = PointIndex::new(by_xy);
        for ((page, wire), &start) in wires().zip(&wire_starts) {
            let head = node_of(start);
            for (a, b) in wire.segments() {
                index.on_segment(page, a, b, |n| uf.union(n, head));
            }
        }
    }

    // Pass 3: gather cluster attributes. Clusters are numbered in
    // ascending root order; each has a page and its smallest point.
    let (roots, slots, count) = uf.roots_and_slots();
    let mut clusters: Vec<(u32, (i64, i64))> = Vec::with_capacity(count);
    for (i, &(page, x, y)) in keys.iter().enumerate() {
        if roots[i] == i {
            clusters.push((page, (x, y)));
        }
    }
    for (i, &(_, x, y)) in keys.iter().enumerate() {
        let min = &mut clusters[slots[roots[i]]].1;
        *min = (*min).min((x, y));
    }
    let cluster_at = |occurrence: usize| slots[roots[node_of(occurrence)]];

    // Every distinct label text, of wire labels and connector names alike,
    // is parsed once; the attachments then borrow names from the table.
    let wire_labels: Vec<(usize, &Label)> = wires()
        .zip(&wire_starts)
        .filter_map(|((_, wire), &start)| Some((start, wire.label.as_ref()?)))
        .collect();
    let texts: Vec<&str> = wire_labels
        .iter()
        .map(|(_, label)| label.text.as_str())
        .chain(conn_sites.iter().map(|(_, conn)| conn.name.as_str()))
        .collect();
    let (slot_of, distinct_texts) = distinct(&texts);
    let table: Vec<Result<LabelNet, String>> = distinct_texts
        .iter()
        .map(|text| LabelNet::parse(rules, text, &cell.buses))
        .collect();
    let (wire_slots, conn_slots) = slot_of.split_at(wire_labels.len());

    // Scalar / single-bit names (already expanded, postfix folded in),
    // bus ranges (as label-table slots), off-page and port names, pins.
    let mut names: Attached<&str> = Vec::new();
    let mut ranges: Attached<usize> = Vec::new();
    let mut offpage: Attached<&str> = Vec::new();
    let mut ports: Attached<&str> = Vec::new();

    // Wire labels.
    for (&(start, label), &slot) in wire_labels.iter().zip(wire_slots) {
        let c = cluster_at(start);
        match &table[slot] {
            Ok(LabelNet::Name(n)) => names.push((c, n)),
            Ok(LabelNet::Range { .. }) => ranges.push((c, slot)),
            Err(reason) => errors.push(ConnError::UnparsedLabel {
                page: clusters[c].0,
                text: label.text.as_str().to_string(),
                reason: reason.clone(),
            }),
        }
    }

    // Connectors.
    for (&(at, conn), &slot) in conn_sites.iter().zip(conn_slots) {
        let c = cluster_at(at);
        let attach: &[String] = match &table[slot] {
            Err(reason) => {
                errors.push(ConnError::UnparsedLabel {
                    page: clusters[c].0,
                    text: conn.name.as_str().to_string(),
                    reason: reason.clone(),
                });
                continue;
            }
            Ok(LabelNet::Name(n)) => {
                names.push((c, n));
                std::slice::from_ref(n)
            }
            Ok(LabelNet::Range { bits, .. }) => {
                ranges.push((c, slot));
                bits
            }
        };
        let list = match conn.kind {
            ConnectorKind::OffPage => &mut offpage,
            k if k.is_hierarchy() => &mut ports,
            _ => continue,
        };
        list.extend(attach.iter().map(|n| (c, n.as_str())));
    }

    // Pins.
    let mut pins: Attached<PinRef> = pin_sites
        .into_iter()
        .map(|(at, pin)| (cluster_at(at), pin))
        .collect();
    for list in [&mut names, &mut offpage, &mut ports] {
        list.sort_by_key(|e| e.0);
    }
    ranges.sort_by_key(|e| e.0);
    pins.sort_by_key(|e| e.0);

    // Pass 4: clusters -> atoms.
    let mut atoms: Vec<Atom> = Vec::with_capacity(count);
    let mut atom_names: Vec<&str> = Vec::with_capacity(names.len());
    let mut atom_ports: Vec<&str> = Vec::with_capacity(ports.len());
    let (mut names_left, mut ranges_left) = (names.as_slice(), ranges.as_slice());
    let (mut offpage_left, mut ports_left) = (offpage.as_slice(), ports.as_slice());
    let mut pins_left = pins.into_iter().peekable();
    for (c, &(page, min_point)) in clusters.iter().enumerate() {
        let order_key = (page, min_point.0, min_point.1);
        let cl_names = take_run(&mut names_left, c);
        let cl_ranges = take_run(&mut ranges_left, c);
        let cl_offpage = take_run(&mut offpage_left, c);
        let cl_ports = take_run(&mut ports_left, c);
        let cl_pins = std::iter::from_fn(|| pins_left.next_if(|e| e.0 == c).map(|e| e.1));
        if cl_ranges.is_empty() {
            // Plain net. Inserting the pins one by one fills a single
            // leaf without the sort buffer a collect would allocate.
            let start = (atom_names.len(), atom_ports.len());
            atom_names.extend(cl_names.iter().map(|e| e.1));
            atom_ports.extend(cl_ports.iter().map(|e| e.1));
            let mut pins = BTreeSet::new();
            pins.extend(cl_pins);
            atoms.push(Atom {
                page,
                order_key,
                names: start.0..atom_names.len(),
                ports: start.1..atom_ports.len(),
                pins,
                has_offpage: !cl_offpage.is_empty(),
            });
            continue;
        }
        // Bundle: one atom per covered bit.
        let cl_pins: Vec<PinRef> = cl_pins.collect();
        let ranges: Vec<(&str, i64, i64, &[String])> = cl_ranges
            .iter()
            .map(|&(_, slot)| match &table[slot] {
                Ok(LabelNet::Range {
                    base,
                    from,
                    to,
                    bits,
                }) => (base.as_str(), *from, *to, bits.as_slice()),
                _ => unreachable!("only bundle labels are recorded as ranges"),
            })
            .collect();
        let bases: BTreeSet<&str> = ranges.iter().map(|r| r.0).collect();
        let bundle = || bases.iter().copied().collect::<Vec<_>>().join(",");
        let mut bits: BTreeMap<&str, Atom> = BTreeMap::new();
        for &(_, _, _, bit_names) in &ranges {
            for n in bit_names {
                bits.entry(n).or_insert_with(|| {
                    let start = (atom_names.len(), atom_ports.len());
                    atom_names.push(n);
                    if cl_ports.iter().any(|e| e.1 == n) {
                        atom_ports.push(n);
                    }
                    Atom {
                        page,
                        order_key,
                        names: start.0..atom_names.len(),
                        ports: start.1..atom_ports.len(),
                        pins: BTreeSet::new(),
                        has_offpage: cl_offpage.iter().any(|e| e.1 == n),
                    }
                });
            }
        }
        // Pins must be bus-bit named with a matching base.
        if !cl_pins.is_empty() {
            let scope: BTreeSet<IStr> = bases
                .iter()
                .map(|&b| cell.buses.get(b).cloned().unwrap_or_else(|| IStr::from(b)))
                .collect();
            for pin in &cl_pins {
                match BusSyntax::Viewstar.parse(&pin.pin, &scope) {
                    Ok(p) => match p.expr {
                        NetExpr::Bit(b, i) if bases.contains(b.as_str()) => {
                            // Attach to any postfix variant carrying this bit.
                            let mut attached = false;
                            for &(b2, f, t, bit_names) in &ranges {
                                if b2 == b && i >= f.min(t) && i <= f.max(t) {
                                    let n = bit_names[(i - f).unsigned_abs() as usize].as_str();
                                    if let Some(atom) = bits.get_mut(n) {
                                        atom.pins.insert(pin.clone());
                                        attached = true;
                                    }
                                }
                            }
                            if !attached {
                                errors.push(ConnError::BusTapMismatch {
                                    page,
                                    what: format!("pin {pin} bit {i} outside bundle range"),
                                    bundle: bundle(),
                                });
                            }
                        }
                        _ => errors.push(ConnError::BusTapMismatch {
                            page,
                            what: format!("scalar pin {pin}"),
                            bundle: bundle(),
                        }),
                    },
                    Err(e) => errors.push(ConnError::UnparsedLabel {
                        page,
                        text: pin.pin.as_str().to_string(),
                        reason: e.to_string(),
                    }),
                }
            }
        }
        // Scalar names alongside ranges are taps onto single bits or
        // mistakes.
        let scalar: BTreeSet<&str> = cl_names.iter().map(|e| e.1).collect();
        for n in scalar {
            if !bits.contains_key(n) {
                errors.push(ConnError::BusTapMismatch {
                    page,
                    what: format!("name `{n}`"),
                    bundle: bundle(),
                });
            }
        }
        atoms.extend(bits.into_values());
    }

    // Pass 5: merge atoms by name per dialect rules, name by name in
    // name order.
    atoms.sort_by_key(|a| a.order_key);
    let mut auf = UnionFind::with_len(atoms.len());
    let mut by_name: Vec<(&str, usize)> = atoms
        .iter()
        .enumerate()
        .flat_map(|(i, atom)| atom_names[atom.names.clone()].iter().map(move |&n| (n, i)))
        .collect();
    by_name.sort_unstable();
    by_name.dedup();
    for members in by_name.chunk_by(|a, b| a.0 == b.0) {
        let everywhere = rules.implicit_page_nets || design.globals().contains(members[0].0);
        // Same-page merging always applies. Members are in atom order,
        // which is page order, so each page's members are one run.
        for w in members.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            if everywhere || atoms[a].page == atoms[b].page {
                auf.union(a, b);
            }
        }
        if everywhere {
            continue;
        }
        // Cross-page merging only through off-page connectors.
        let mut prev: Option<usize> = None;
        for &(_, m) in members {
            if atoms[m].has_offpage {
                if let Some(p) = prev {
                    auf.union(p, m);
                }
                prev = Some(m);
            }
        }
    }

    // Pass 6: materialize nets. Groups go by their first atom, ties in
    // ascending root order; within a group, atoms go in atom order.
    let (roots, slots, count) = auf.roots_and_slots();
    let group_of: Vec<usize> = roots.iter().map(|&r| slots[r]).collect();
    let mut first = vec![usize::MAX; count];
    for (i, &g) in group_of.iter().enumerate().rev() {
        first[g] = i;
    }
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_key(|&g| atoms[first[g]].order_key);
    let mut rank = vec![0; count];
    for (k, &g) in order.iter().enumerate() {
        rank[g] = k;
    }
    let mut members: Vec<usize> = (0..atoms.len()).collect();
    members.sort_by_key(|&i| rank[group_of[i]]);

    let port_names: BTreeSet<&str> = cell.ports.iter().map(|p| p.name.as_str()).collect();
    let mut anon = 0usize;
    let mut aliases: Vec<&str> = Vec::new();
    let mut pages: Vec<u32> = Vec::new();
    for group in members.chunk_by(|&a, &b| group_of[a] == group_of[b]) {
        aliases.clear();
        pages.clear();
        let mut pins: BTreeSet<PinRef> = BTreeSet::new();
        let mut ports: BTreeSet<String> = BTreeSet::new();
        let mut has_offpage = false;
        for &i in group {
            let a = &mut atoms[i];
            aliases.extend_from_slice(&atom_names[a.names.clone()]);
            pins.append(&mut a.pins);
            pages.push(a.page);
            ports.extend(atom_ports[a.ports.clone()].iter().map(|s| s.to_string()));
            has_offpage |= a.has_offpage;
        }
        if pins.is_empty() && aliases.is_empty() {
            continue; // dangling geometry with nothing attached
        }
        aliases.sort_unstable();
        aliases.dedup();
        pages.sort_unstable();
        pages.dedup();
        // Name-based port binding (Viewstar has no hierarchy connectors).
        for alias in &aliases {
            if port_names.contains(alias) {
                ports.insert(alias.to_string());
            }
        }
        let is_global = aliases.iter().any(|n| design.globals().contains(*n));
        let name = match aliases.first() {
            Some(n) => n.to_string(),
            None => {
                anon += 1;
                format!("N${anon}")
            }
        };
        emit(RawNet {
            name,
            aliases: &aliases,
            pages: &pages,
            pins,
            ports,
            is_global,
            has_offpage,
        });
    }
    errors
}

/// Extracts every cell of a design into a canonical [`Netlist`].
///
/// Returns the netlist plus all per-cell extraction errors.
pub fn extract_design(
    design: &Design,
    rules: &DialectRules,
) -> (Netlist, Vec<(String, ConnError)>) {
    let mut netlist = Netlist::new(design.name.clone());
    let mut errors = Vec::new();
    for (name, cell) in design.cells() {
        let mut nets: Vec<(String, NetInfo)> = Vec::new();
        let cell_errors = extract_nets(design, cell, rules, &mut |net| {
            let info = NetInfo {
                pins: net.pins,
                is_global: net.is_global,
                ports: net.ports,
            };
            nets.push((net.name, info));
        });
        // Collecting sorts stably by name and keeps the last of equal
        // names, as inserting the name-sorted nets one by one would.
        let cn = CellNetlist {
            nets: nets.into_iter().collect(),
            instances: cell
                .sheets
                .iter()
                .flat_map(|s| &s.instances)
                .map(|inst| (inst.name.clone(), inst.symbol.cell.clone()))
                .collect(),
        };
        errors.extend(cell_errors.into_iter().map(|e| (name.to_string(), e)));
        netlist.cells.insert(name.to_string(), cn);
    }
    (netlist, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{CellSchematic, Library};
    use crate::dialect::{DialectId, DialectRules};
    use crate::geom::{Orient, Point};
    use crate::property::{FontMetrics, Label};
    use crate::sheet::{Connector, Instance, Sheet, Wire};
    use crate::symbol::{PinDir, SymbolDef, SymbolRef};

    fn inv_symbol() -> SymbolDef {
        SymbolDef::new(SymbolRef::new("basiclib", "inv", "symbol"), 16)
            .with_pin("A", Point::new(0, 0), PinDir::Input)
            .with_pin("Y", Point::new(64, 0), PinDir::Output)
    }

    fn design_with_lib() -> Design {
        let mut d = Design::new("t", DialectId::Viewstar);
        let mut lib = Library::new("basiclib");
        lib.add(inv_symbol());
        d.add_library(lib);
        d
    }

    fn label(text: &str, at: Point) -> Label {
        Label::new(text, at, FontMetrics::VIEWSTAR)
    }

    #[test]
    fn two_inverters_in_series_extract_three_nets() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        let sym = SymbolRef::new("basiclib", "inv", "symbol");
        s.instances.push(Instance::new(
            "I1",
            sym.clone(),
            Point::new(0, 0),
            Orient::R0,
        ));
        s.instances.push(Instance::new(
            "I2",
            sym.clone(),
            Point::new(160, 0),
            Orient::R0,
        ));
        // I1.Y at (64,0) to I2.A at (160,0).
        s.wires.push(
            Wire::new(vec![Point::new(64, 0), Point::new(160, 0)])
                .with_label(label("mid", Point::new(96, 4))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(ex.errors.is_empty(), "{:?}", ex.errors);
        // mid + two dangling pin nets (I1.A, I2.Y).
        assert_eq!(ex.nets.len(), 3);
        let mid = ex.net("mid").expect("mid exists");
        assert_eq!(mid.pins.len(), 2);
        assert!(mid.pins.contains(&PinRef::new("I1", "Y")));
        assert!(mid.pins.contains(&PinRef::new("I2", "A")));
    }

    #[test]
    fn t_junction_connects_mid_segment() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        let sym = SymbolRef::new("basiclib", "inv", "symbol");
        s.instances.push(Instance::new(
            "I1",
            sym.clone(),
            Point::new(0, 0),
            Orient::R0,
        ));
        // Horizontal wire through I1.Y; a vertical wire T-ing into its middle.
        s.wires
            .push(Wire::new(vec![Point::new(64, 0), Point::new(192, 0)]));
        s.wires
            .push(Wire::new(vec![Point::new(128, -64), Point::new(128, 0)]));
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        // I1.Y + both wires are one net; I1.A dangles.
        assert_eq!(ex.nets.len(), 2);
        let with_pin = ex
            .nets
            .iter()
            .find(|n| n.pins.contains(&PinRef::new("I1", "Y")))
            .unwrap();
        assert_eq!(with_pin.pins.len(), 1);
    }

    #[test]
    fn implicit_page_merge_in_viewstar_but_not_cascade() {
        let build = |dialect: DialectId| {
            let mut d = design_with_lib();
            d.dialect = dialect;
            let mut cell = CellSchematic::new("top");
            let sym = SymbolRef::new("basiclib", "inv", "symbol");
            let mut s1 = Sheet::new(1);
            s1.instances.push(Instance::new(
                "I1",
                sym.clone(),
                Point::new(0, 0),
                Orient::R0,
            ));
            s1.wires.push(
                Wire::new(vec![Point::new(64, 0), Point::new(160, 0)])
                    .with_label(label("sig", Point::new(96, 4))),
            );
            let mut s2 = Sheet::new(2);
            s2.instances.push(Instance::new(
                "I2",
                sym.clone(),
                Point::new(320, 0),
                Orient::R0,
            ));
            s2.wires.push(
                Wire::new(vec![Point::new(240, 0), Point::new(320, 0)])
                    .with_label(label("sig", Point::new(260, 4))),
            );
            cell.sheets.push(s1);
            cell.sheets.push(s2);
            d.add_cell(cell);
            d
        };

        let dv = build(DialectId::Viewstar);
        let ex = extract_cell(&dv, dv.cell("top").unwrap(), &DialectRules::viewstar());
        let sig = ex.net("sig").unwrap();
        assert_eq!(sig.pins.len(), 2, "viewstar merges by name across pages");
        assert_eq!(sig.pages.len(), 2);

        let dc = build(DialectId::Cascade);
        let ex = extract_cell(&dc, dc.cell("top").unwrap(), &DialectRules::cascade());
        let sig = ex.net("sig").unwrap();
        assert_eq!(sig.pins.len(), 1, "cascade needs off-page connectors");
    }

    #[test]
    fn offpage_connectors_merge_pages_in_cascade() {
        let mut d = design_with_lib();
        d.dialect = DialectId::Cascade;
        let mut cell = CellSchematic::new("top");
        let sym = SymbolRef::new("basiclib", "inv", "symbol");
        let mut s1 = Sheet::new(1);
        s1.instances.push(Instance::new(
            "I1",
            sym.clone(),
            Point::new(0, 0),
            Orient::R0,
        ));
        s1.wires.push(
            Wire::new(vec![Point::new(64, 0), Point::new(160, 0)]).with_label(Label::new(
                "sig",
                Point::new(96, 4),
                FontMetrics::CASCADE,
            )),
        );
        s1.connectors.push(Connector::new(
            ConnectorKind::OffPage,
            "sig",
            Point::new(160, 0),
        ));
        let mut s2 = Sheet::new(2);
        s2.instances.push(Instance::new(
            "I2",
            sym.clone(),
            Point::new(320, 0),
            Orient::R0,
        ));
        s2.wires.push(
            Wire::new(vec![Point::new(240, 0), Point::new(320, 0)]).with_label(Label::new(
                "sig",
                Point::new(260, 4),
                FontMetrics::CASCADE,
            )),
        );
        s2.connectors.push(Connector::new(
            ConnectorKind::OffPage,
            "sig",
            Point::new(240, 0),
        ));
        cell.sheets.push(s1);
        cell.sheets.push(s2);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::cascade());
        let sig = ex.net("sig").unwrap();
        assert_eq!(sig.pins.len(), 2);
        assert!(sig.has_offpage);
    }

    #[test]
    fn globals_merge_everywhere() {
        let mut d = design_with_lib();
        d.add_global("VDD");
        d.dialect = DialectId::Cascade;
        let mut cell = CellSchematic::new("top");
        let mut s1 = Sheet::new(1);
        s1.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(40, 0)]).with_label(Label::new(
                "VDD",
                Point::new(0, 4),
                FontMetrics::CASCADE,
            )),
        );
        let mut s2 = Sheet::new(2);
        s2.wires.push(
            Wire::new(vec![Point::new(100, 0), Point::new(140, 0)]).with_label(Label::new(
                "VDD",
                Point::new(100, 4),
                FontMetrics::CASCADE,
            )),
        );
        cell.sheets.push(s1);
        cell.sheets.push(s2);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::cascade());
        let vdd = ex.net("VDD").unwrap();
        assert!(vdd.is_global);
        assert_eq!(vdd.pages.len(), 2);
    }

    #[test]
    fn bundle_label_expands_to_bit_nets() {
        let mut d = design_with_lib();
        // Symbol with bus-bit pins.
        let reg = SymbolDef::new(SymbolRef::new("basiclib", "reg2", "symbol"), 16)
            .with_pin("D<0>", Point::new(0, 0), PinDir::Input)
            .with_pin("D<1>", Point::new(0, 32), PinDir::Input);
        d.library_mut("basiclib").unwrap().add(reg);

        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "R1",
            SymbolRef::new("basiclib", "reg2", "symbol"),
            Point::new(160, 0),
            Orient::R0,
        ));
        // A bus wire touching both pins (runs vertically through them).
        s.wires.push(
            Wire::new(vec![Point::new(160, 0), Point::new(160, 32)])
                .with_label(label("D<0:1>", Point::new(164, 16))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(ex.errors.is_empty(), "{:?}", ex.errors);
        let d0 = ex.net("D<0>").unwrap();
        assert!(d0.pins.contains(&PinRef::new("R1", "D<0>")));
        let d1 = ex.net("D<1>").unwrap();
        assert!(d1.pins.contains(&PinRef::new("R1", "D<1>")));
    }

    #[test]
    fn scalar_pin_on_bundle_is_an_error() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("basiclib", "inv", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        // Bundle wire straight through the scalar pin A at (0,0).
        s.wires.push(
            Wire::new(vec![Point::new(0, -16), Point::new(0, 16)])
                .with_label(label("D<0:3>", Point::new(4, 0))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(ex
            .errors
            .iter()
            .any(|e| matches!(e, ConnError::BusTapMismatch { .. })));
    }

    #[test]
    fn condensed_tap_joins_bus_bit() {
        // Viewstar: a wire labelled D2 with bus D declared joins D<2>.
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        let mut s = Sheet::new(1);
        s.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(32, 0)])
                .with_label(label("D2", Point::new(0, 4))),
        );
        s.wires.push(
            Wire::new(vec![Point::new(100, 0), Point::new(132, 0)])
                .with_label(label("D<2>", Point::new(100, 4))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        let net = ex.net("D<2>").unwrap();
        assert_eq!(net.aliases.len(), 1, "both labels expand to D<2>");
        assert_eq!(
            ex.nets
                .iter()
                .filter(|n| n.aliases.contains("D<2>"))
                .count(),
            1,
            "the two wires merged by expanded name"
        );
    }

    #[test]
    fn unresolved_symbol_reports_error() {
        let d0 = design_with_lib();
        let mut d = d0.clone();
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("ghost", "none", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        cell.sheets.push(s);
        d.add_cell(cell);
        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(matches!(ex.errors[0], ConnError::UnresolvedSymbol { .. }));
    }

    #[test]
    fn extract_design_builds_netlist_with_ports() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        cell.ports.push(crate::symbol::SymbolPin::new(
            "OUT",
            Point::new(0, 0),
            PinDir::Output,
        ));
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("basiclib", "inv", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        s.wires.push(
            Wire::new(vec![Point::new(64, 0), Point::new(96, 0)])
                .with_label(label("OUT", Point::new(70, 4))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let (nl, errs) = extract_design(&d, &DialectRules::viewstar());
        assert!(errs.is_empty());
        let top = &nl.cells["top"];
        assert!(top.nets["OUT"].ports.contains("OUT"));
        assert_eq!(top.instances["I1"], "inv");
    }

    #[test]
    fn point_index_finds_exactly_the_points_on_each_segment() {
        // Points of a small two-page grid; segments vertical, horizontal,
        // at ±45°, at any other slope, and degenerate.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as i64
        };
        let keys: Vec<Key> = (0..400)
            .map(|_| (1 + next(2) as u32, next(24) - 8, next(24) - 8))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let index = PointIndex::new(keys.iter().copied().zip(0..).collect());
        for _ in 0..2000 {
            let page = 1 + next(2) as u32;
            let a = Point::new(next(24) - 8, next(24) - 8);
            let b = match next(5) {
                0 => Point::new(a.x, next(24) - 8),
                1 => Point::new(next(24) - 8, a.y),
                2 => {
                    let d = next(13) - 6;
                    Point::new(a.x + d, a.y + d * (1 - 2 * next(2)))
                }
                3 => a,
                _ => Point::new(next(24) - 8, next(24) - 8),
            };
            let mut hits = Vec::new();
            index.on_segment(page, a, b, |n| hits.push(n));
            hits.sort_unstable();
            let expected: Vec<usize> = (0..keys.len())
                .filter(|&n| {
                    let (p, x, y) = keys[n];
                    p == page && point_on_segment(Point::new(x, y), a, b)
                })
                .collect();
            assert_eq!(hits, expected, "segment {a:?}-{b:?} on page {page}");
        }
    }
}
