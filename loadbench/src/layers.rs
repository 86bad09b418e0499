//! The traced run's span sink: per-layer busy time and self time.
//!
//! Spans arrive from two sources: the benchmark's own spans around each
//! public call (`schematic.viewstar_parse`, `migrate.migrate`, ...) and
//! the program's existing spans, reached through `*_recorded` entry
//! points and `Kernel::set_recorder`. Only the layers the benchmark
//! reports are kept (see [`is_layer`]); any other span is transparent —
//! its time stays in the nearest reported ancestor's self time, and its
//! children attach to that ancestor.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use obs::{Recorder, SpanId};

/// Busy time of one layer across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Finished spans.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child layer spans.
    pub self_ns: u64,
}

struct Open {
    name: String,
    parent: Option<u64>,
    start: Duration,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    open: HashMap<u64, Open>,
    /// Transparent span id -> the reported ancestor its children
    /// attach to.
    hidden: HashMap<u64, Option<u64>>,
    spans: BTreeMap<String, SpanTotals>,
    counters: BTreeMap<String, u64>,
}

/// Whether a span name is a reported layer: the benchmark's own spans,
/// the cache probe and the migration stages.
pub fn is_layer(name: &str) -> bool {
    name.starts_with("migrate.stage.")
        || matches!(
            name,
            "schematic.viewstar_parse"
                | "schematic.cascade_write"
                | "migrate.migrate"
                | "migrate.cache.lookup"
                | "migrate.verify"
                | "hdl.parse"
                | "sim.elab"
                | "sim.sweep"
                | "sim.kernel"
                | "sim.compare"
        )
}

/// An in-memory sink aggregating span self time by name. Give each
/// client thread its own and [`LayerRecorder::merge`] them afterwards.
#[derive(Default)]
pub struct LayerRecorder {
    state: Mutex<State>,
}

impl LayerRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LayerRecorder::default()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("layer recorder poisoned by a panic")
    }

    /// Totals for one layer (zero when it never ran).
    pub fn span(&self, name: &str) -> SpanTotals {
        self.lock().spans.get(name).copied().unwrap_or_default()
    }

    /// Every layer seen, by name.
    pub fn spans(&self) -> BTreeMap<String, SpanTotals> {
        self.lock().spans.clone()
    }

    /// A counter's value (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `other`'s totals and counters into `self`.
    pub fn merge(&self, other: &LayerRecorder) {
        let theirs = other.lock();
        let mut ours = self.lock();
        for (name, t) in &theirs.spans {
            let e = ours.spans.entry(name.clone()).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
        for (name, v) in &theirs.counters {
            *ours.counters.entry(name.clone()).or_default() += v;
        }
    }
}

impl Recorder for LayerRecorder {
    fn record_span(&self, _name: &str, _duration: Duration) {}

    fn add_counter(&self, name: &str, delta: u64) {
        let mut st = self.lock();
        let c = st.counters.entry(name.to_string()).or_default();
        *c = c.saturating_add(delta);
    }

    fn record_value(&self, _name: &str, _value: u64) {}

    fn record_span_start(&self, id: SpanId, parent: Option<SpanId>, name: &str, start: Duration) {
        let mut st = self.lock();
        let parent = parent.and_then(|p| st.hidden.get(&p.0).copied().unwrap_or(Some(p.0)));
        if is_layer(name) {
            st.open.insert(
                id.0,
                Open {
                    name: name.to_string(),
                    parent,
                    start,
                    child_ns: 0,
                },
            );
        } else {
            st.hidden.insert(id.0, parent);
        }
    }

    fn record_span_end(&self, id: SpanId, end: Duration) {
        let mut st = self.lock();
        let Some(open) = st.open.remove(&id.0) else {
            st.hidden.remove(&id.0);
            return;
        };
        let dur = end.saturating_sub(open.start).as_nanos() as u64;
        if let Some(parent) = open.parent.and_then(|p| st.open.get_mut(&p)) {
            parent.child_ns += dur;
        }
        let t = st.spans.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    }
}

/// A sink that keeps only the kernel's event and delta-cycle counters
/// and ignores spans, so attaching it to a kernel adds little to the
/// kernel time it is measured against.
#[derive(Debug, Default)]
pub struct CounterRecorder {
    events: AtomicU64,
    delta_cycles: AtomicU64,
}

impl CounterRecorder {
    /// Total `sim.events`.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Total `sim.delta_cycles`.
    pub fn delta_cycles(&self) -> u64 {
        self.delta_cycles.load(Ordering::Relaxed)
    }
}

impl Recorder for CounterRecorder {
    fn record_span(&self, _name: &str, _duration: Duration) {}

    fn add_counter(&self, name: &str, delta: u64) {
        let counter = match name {
            "sim.events" => &self.events,
            "sim.delta_cycles" => &self.delta_cycles,
            _ => return,
        };
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    fn record_value(&self, _name: &str, _value: u64) {}
}
