//! Sheets: the drawing pages of a schematic cell.

use interop_core::intern::IStr;
use interop_core::Shared;

use crate::geom::{BBox, Orient, Point, Transform};
use crate::property::{Label, PropMap};
use crate::symbol::SymbolRef;

/// A placed component instance on a sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within the cell (e.g. `I7`). Interned —
    /// generated and hand-drawn designs alike reuse short `I<n>` names.
    pub name: IStr,
    /// The symbol this instance refers to.
    pub symbol: SymbolRef,
    /// Placement transform (origin + rotation code).
    pub place: Transform,
    /// Instance properties (merged over symbol defaults at netlist time).
    pub props: PropMap,
}

impl Instance {
    /// Creates an instance placed at `origin` with orientation `orient`.
    pub fn new(name: impl Into<IStr>, symbol: SymbolRef, origin: Point, orient: Orient) -> Self {
        Instance {
            name: name.into(),
            symbol,
            place: Transform::new(origin, orient),
            props: PropMap::new(),
        }
    }
}

/// A wire: an open polyline of one or more segments, optionally labelled
/// with a net name (in the owning dialect's bus syntax).
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// Polyline vertices; a valid wire has at least two.
    pub points: Vec<Point>,
    /// Net-name label attached to this wire, if any.
    pub label: Option<Label>,
}

impl Wire {
    /// Creates a wire through the given vertices.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are supplied.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "a wire needs at least two vertices");
        Wire {
            points,
            label: None,
        }
    }

    /// Attaches a label, returning `self` for chaining.
    pub fn with_label(mut self, label: Label) -> Self {
        self.label = Some(label);
        self
    }

    /// The two ends of the polyline.
    pub fn endpoints(&self) -> (Point, Point) {
        (
            *self.points.first().expect("wire has vertices"),
            *self.points.last().expect("wire has vertices"),
        )
    }

    /// Successive segments of the polyline.
    pub fn segments(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.points.windows(2).map(|w| (w[0], w[1]))
    }

    /// Total Manhattan length of the wire.
    pub fn length(&self) -> i64 {
        self.segments().map(|(a, b)| a.manhattan(b)).sum()
    }

    /// True when `p` lies on any segment of the wire (segments are
    /// treated as closed). Works for orthogonal and diagonal segments.
    pub fn touches(&self, p: Point) -> bool {
        self.segments().any(|(a, b)| point_on_segment(p, a, b))
    }
}

/// True when `p` lies on the closed segment `a`–`b`. A degenerate
/// segment (`a == b`) contains only that single point.
///
/// Exact over the whole `i64` plane: parsed coordinates may be any
/// `i64`, and `i64` products overflow already past about 3×10⁹. The
/// differences are taken in `i128` and the cross product compared by
/// sign and `u128` magnitude, which cannot overflow.
pub fn point_on_segment(p: Point, a: Point, b: Point) -> bool {
    if a == b {
        return p == a;
    }
    let within = |v: i64, e0: i64, e1: i64| e0.min(e1) <= v && v <= e0.max(e1);
    if !within(p.x, a.x, b.x) || !within(p.y, a.y, b.y) {
        return false;
    }
    // Inside the bounding box, collinear means on the segment.
    let product = |u: i128, v: i128| (u.signum() * v.signum(), u.unsigned_abs() * v.unsigned_abs());
    let (dx, dy) = (b.x as i128 - a.x as i128, b.y as i128 - a.y as i128);
    let (px, py) = (p.x as i128 - a.x as i128, p.y as i128 - a.y as i128);
    product(dx, py) == product(dy, px)
}

/// The kinds of connector objects a sheet may carry.
///
/// Viewstar treats all of these as optional decoration (same-named nets
/// join implicitly); Cascade *requires* hierarchy connectors at ports and
/// off-page connectors for nets spanning pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConnectorKind {
    /// Joins same-named nets across pages of one cell.
    OffPage,
    /// Hierarchy port, input direction.
    HierInput,
    /// Hierarchy port, output direction.
    HierOutput,
    /// Hierarchy port, bidirectional.
    HierBidir,
    /// Global net access point (e.g. power rails).
    Global,
}

impl ConnectorKind {
    /// Vendor keyword for the connector kind.
    pub fn keyword(self) -> &'static str {
        match self {
            ConnectorKind::OffPage => "offpage",
            ConnectorKind::HierInput => "hier_in",
            ConnectorKind::HierOutput => "hier_out",
            ConnectorKind::HierBidir => "hier_bidir",
            ConnectorKind::Global => "global",
        }
    }

    /// Parses a vendor keyword.
    pub fn parse(s: &str) -> Option<ConnectorKind> {
        match s {
            "offpage" => Some(ConnectorKind::OffPage),
            "hier_in" => Some(ConnectorKind::HierInput),
            "hier_out" => Some(ConnectorKind::HierOutput),
            "hier_bidir" => Some(ConnectorKind::HierBidir),
            "global" => Some(ConnectorKind::Global),
            _ => None,
        }
    }

    /// True for the three hierarchy-port kinds.
    pub fn is_hierarchy(self) -> bool {
        matches!(
            self,
            ConnectorKind::HierInput | ConnectorKind::HierOutput | ConnectorKind::HierBidir
        )
    }
}

/// A connector object placed on a sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct Connector {
    /// Connector kind.
    pub kind: ConnectorKind,
    /// The net (or port) name, in the owning dialect's syntax. Interned —
    /// the same net name appears on every page it spans.
    pub name: IStr,
    /// Attachment point.
    pub at: Point,
    /// Drawing orientation.
    pub orient: Orient,
}

impl Connector {
    /// Creates a connector.
    pub fn new(kind: ConnectorKind, name: impl Into<IStr>, at: Point) -> Self {
        Connector {
            kind,
            name: name.into(),
            at,
            orient: Orient::R0,
        }
    }
}

/// One page of a schematic cell.
///
/// Its four object lists are copy-on-write [`Shared`] chunks: cloning a
/// sheet copies four pointers, and a list is copied only when it is
/// reached through `&mut` while another clone still holds it. Reads
/// (`sheet.wires.iter()`, `&sheet.wires[i]`) work as on a `Vec`; code
/// that only *might* change a list should scan it through `&` first, so
/// the lists it leaves alone stay shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Sheet {
    /// 1-based page number.
    pub page: u32,
    /// Drawable area.
    pub frame: BBox,
    /// Placed component instances.
    pub instances: Shared<Vec<Instance>>,
    /// Wires.
    pub wires: Shared<Vec<Wire>>,
    /// Connector objects.
    pub connectors: Shared<Vec<Connector>>,
    /// Free annotation text (title blocks, notes).
    pub annotations: Shared<Vec<Label>>,
}

impl Sheet {
    /// Standard 11x8.5-inch frame in DBU.
    pub fn standard_frame() -> BBox {
        use crate::geom::DBU_PER_INCH;
        BBox::spanning(
            Point::new(0, 0),
            Point::new(11 * DBU_PER_INCH, (85 * DBU_PER_INCH) / 10),
        )
    }

    /// Creates an empty sheet with the standard frame.
    pub fn new(page: u32) -> Self {
        Sheet {
            page,
            frame: Self::standard_frame(),
            instances: Shared::default(),
            wires: Shared::default(),
            connectors: Shared::default(),
            annotations: Shared::default(),
        }
    }

    /// Finds an instance by name.
    pub fn instance(&self, name: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Total number of wire segments on the sheet.
    pub fn segment_count(&self) -> usize {
        self.wires
            .iter()
            .map(|w| w.points.len().saturating_sub(1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Orient;

    #[test]
    fn wire_geometry_queries() {
        let w = Wire::new(vec![
            Point::new(0, 0),
            Point::new(40, 0),
            Point::new(40, 30),
        ]);
        assert_eq!(w.endpoints(), (Point::new(0, 0), Point::new(40, 30)));
        assert_eq!(w.length(), 70);
        assert!(w.touches(Point::new(20, 0)));
        assert!(w.touches(Point::new(40, 15)));
        assert!(!w.touches(Point::new(20, 10)));
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn degenerate_wire_panics() {
        let _ = Wire::new(vec![Point::new(0, 0)]);
    }

    #[test]
    fn point_on_segment_handles_diagonals_and_ends() {
        let a = Point::new(0, 0);
        let b = Point::new(10, 10);
        assert!(point_on_segment(a, a, b));
        assert!(point_on_segment(b, a, b));
        assert!(point_on_segment(Point::new(5, 5), a, b));
        assert!(!point_on_segment(Point::new(5, 6), a, b));
        assert!(!point_on_segment(Point::new(11, 11), a, b));
    }

    #[test]
    fn point_on_segment_does_not_overflow_on_large_coordinates() {
        let a = Point::new(0, 0);
        let b = Point::new(4_000_000_000, 4_000_000_000);
        assert!(point_on_segment(
            Point::new(3_000_000_000, 3_000_000_000),
            a,
            b
        ));
        assert!(!point_on_segment(
            Point::new(3_000_000_000, 3_000_000_001),
            a,
            b
        ));
        assert!(!point_on_segment(
            Point::new(5_000_000_000, 5_000_000_000),
            a,
            b
        ));
        let far = Point::new(i64::MAX, i64::MIN);
        assert!(point_on_segment(far, far, Point::new(i64::MIN, i64::MAX)));
        assert!(point_on_segment(
            Point::new(-1, 0),
            far,
            Point::new(i64::MIN, i64::MAX)
        ));
    }

    #[test]
    fn connector_keywords_round_trip() {
        for k in [
            ConnectorKind::OffPage,
            ConnectorKind::HierInput,
            ConnectorKind::HierOutput,
            ConnectorKind::HierBidir,
            ConnectorKind::Global,
        ] {
            assert_eq!(ConnectorKind::parse(k.keyword()), Some(k));
        }
        assert!(ConnectorKind::HierInput.is_hierarchy());
        assert!(!ConnectorKind::OffPage.is_hierarchy());
    }

    #[test]
    fn sheet_lookup_and_counts() {
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("lib", "inv", "symbol"),
            Point::new(160, 160),
            Orient::R0,
        ));
        s.wires.push(Wire::new(vec![
            Point::new(0, 0),
            Point::new(16, 0),
            Point::new(16, 16),
        ]));
        assert!(s.instance("I1").is_some());
        assert!(s.instance("I2").is_none());
        assert_eq!(s.segment_count(), 2);
    }
}
