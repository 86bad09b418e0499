//! # obs — zero-dependency observability substrate
//!
//! Section 2 of the paper frames migration as a *whole-library* problem:
//! Exar translated thousands of sheets, and at that scale "it works"
//! stops being useful telemetry. Section 6 goes further — its
//! methodology-management layer is built on *data- and control-flow
//! analysis* of tool chains, and you cannot analyze a flow you cannot
//! see. This crate turns opaque pipeline totals into machine-readable
//! data: **hierarchical spans** (named, monotonically timed intervals
//! with identities and parent links), **structured events** with
//! key/value attributes, **counters**, and **histograms**, all funneled
//! through a [`Recorder`] trait so instrumented code never pays for
//! what the caller doesn't want.
//!
//! * [`NullRecorder`] — the default: every operation is a no-op.
//! * [`MemoryRecorder`] — thread-safe in-memory aggregation, with JSON
//!   export for benchmark perf records.
//! * [`TraceRecorder`] — a bounded ring buffer keeping every span with
//!   its identity, parent, thread, and attributes; feeds the exporters
//!   in [`export`] (Chrome trace-event JSON, span trees, flamegraphs).
//!
//! Instrumented code opens spans RAII-style:
//!
//! ```
//! use obs::{MemoryRecorder, Recorder, Span};
//!
//! let rec = MemoryRecorder::new();
//! {
//!     let _span = Span::enter(&rec, "migrate.stage.scale");
//!     rec.add_counter("objects.touched", 42);
//! }
//! assert_eq!(rec.span_count("migrate.stage.scale"), 1);
//! assert_eq!(rec.counter("objects.touched"), 42);
//! ```
//!
//! ## Hierarchy and cross-thread handoff
//!
//! Every [`Span`] gets a process-unique [`SpanId`]; the innermost open
//! span on the current thread (a thread-local stack) becomes the parent
//! of the next one, so nesting falls out of ordinary RAII scoping. Work
//! handed to *another* thread re-attaches explicitly with
//! [`attach_parent`], so child spans attribute to the job they serve,
//! not the thread that stole it. The workspace's work-stealing
//! executor, `interop_core::par`, does this on every worker thread it
//! starts, attaching the caller's [`current_span`]; by hand it looks
//! like this:
//!
//! ```
//! use obs::{attach_parent, Span, TraceRecorder};
//!
//! let rec = TraceRecorder::new();
//! let batch = Span::enter(&rec, "batch");
//! let batch_id = batch.id();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let _handoff = attach_parent(batch_id);
//!         let _job = Span::enter(&rec, "job"); // parent: "batch"
//!     });
//! });
//! drop(batch);
//! let spans = rec.finished_spans();
//! let job = spans.iter().find(|s| s.name == "job").unwrap();
//! assert_eq!(job.parent, Some(batch_id));
//! ```
//!
//! All sinks are `Send + Sync`; one recorder can be shared by every
//! worker of a parallel batch run.

pub mod export;
pub mod json;
mod trace;

pub use json::{validate_json, JsonError};
pub use trace::{TraceEvent, TraceRecorder, TraceSpan};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Process-unique identity of one span instance.
///
/// Allocated from a global monotonic counter, so ids from different
/// recorders (or none) never collide and parent links stay unambiguous
/// across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

impl SpanId {
    fn next() -> SpanId {
        SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic time since the process-wide trace epoch (set on first
/// use). All trace timestamps share this epoch, so spans recorded by
/// different threads and recorders line up on one timeline.
pub fn trace_clock() -> Duration {
    EPOCH.get_or_init(Instant::now).elapsed()
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// A small dense ordinal for the calling thread — used as the `tid` in
/// Chrome trace exports (std's `ThreadId` has no stable integer form).
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

/// The innermost open span on this thread, if any.
pub fn current_span() -> Option<SpanId> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

fn stack_push(id: SpanId) {
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
}

fn stack_remove(id: SpanId) {
    SPAN_STACK.with(|s| {
        let mut v = s.borrow_mut();
        if let Some(pos) = v.iter().rposition(|&x| x == id) {
            v.remove(pos);
        }
    });
}

/// Makes `parent` the current span on *this* thread until the returned
/// guard drops.
///
/// This is the explicit handoff for work that crosses threads: a
/// work-stealing batch worker attaches the coordinator's span before
/// processing jobs, so every span it opens attributes to the batch (and
/// through per-job spans, to the design it serves) rather than dangling
/// as a root on the stealing thread.
pub fn attach_parent(parent: SpanId) -> ContextGuard {
    stack_push(parent);
    ContextGuard {
        id: parent,
        _not_send: PhantomData,
    }
}

/// Guard returned by [`attach_parent`]; detaches on drop. `!Send`: it
/// must drop on the thread that attached.
pub struct ContextGuard {
    id: SpanId,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        stack_remove(self.id);
    }
}

/// A structured attribute value: spans and events carry
/// `(&str, AttrValue)` pairs (design name, sheet, stage id, net
/// count...).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string.
    Str(String),
    /// An unsigned integer (counts, sizes, line numbers).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    /// Renders the value as a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            AttrValue::Str(s) => format!("\"{}\"", json::escape(s)),
            AttrValue::UInt(v) => v.to_string(),
            AttrValue::Int(v) => v.to_string(),
            AttrValue::Bool(v) => v.to_string(),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::UInt(v) => write!(f, "{v}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// A metrics/tracing sink.
///
/// Implementations must be cheap when unused and safe to share across
/// threads. All instrumented crates (`schematic`, `migrate`, `hdl`,
/// `sim`, `pnr`, `workflow`, `bench`) accept `&dyn Recorder` so callers
/// choose the sink at the boundary.
///
/// The three aggregate methods are required; the hierarchical methods
/// (`record_span_start` / `record_span_end` / `record_attr` /
/// `record_event`) default to no-ops so aggregate-only sinks — and
/// pre-existing third-party impls — keep working unchanged.
pub trait Recorder: Send + Sync {
    /// Records one finished span: a named interval that took `duration`.
    fn record_span(&self, name: &str, duration: Duration);

    /// Adds `delta` to the named monotonic counter (saturating).
    fn add_counter(&self, name: &str, delta: u64);

    /// Records one observation into the named histogram.
    fn record_value(&self, name: &str, value: u64);

    /// A span opened: identity, parent link, and start time on the
    /// shared trace clock. Default: ignored.
    fn record_span_start(
        &self,
        _id: SpanId,
        _parent: Option<SpanId>,
        _name: &str,
        _start: Duration,
    ) {
    }

    /// A span closed at `end` on the shared trace clock. Default:
    /// ignored.
    fn record_span_end(&self, _id: SpanId, _end: Duration) {}

    /// Attaches a key/value attribute to an open (or recently closed)
    /// span. Default: ignored.
    fn record_attr(&self, _id: SpanId, _key: &str, _value: AttrValue) {}

    /// A structured instant event with attributes, parented to the
    /// current span. Default: ignored.
    fn record_event(
        &self,
        _name: &str,
        _parent: Option<SpanId>,
        _ts: Duration,
        _attrs: &[(&str, AttrValue)],
    ) {
    }
}

/// Emits a structured instant event into `recorder`, parented to this
/// thread's innermost open span and stamped on the shared trace clock.
///
/// ```
/// use obs::{event, TraceRecorder};
/// let rec = TraceRecorder::new();
/// event(&rec, "parse.error", &[("line", 14u64.into())]);
/// assert_eq!(rec.events().len(), 1);
/// ```
pub fn event(recorder: &dyn Recorder, name: &str, attrs: &[(&str, AttrValue)]) {
    recorder.record_event(name, current_span(), trace_clock(), attrs);
}

/// The do-nothing sink: instrumentation compiles to near-zero work.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record_span(&self, _name: &str, _duration: Duration) {}
    fn add_counter(&self, _name: &str, _delta: u64) {}
    fn record_value(&self, _name: &str, _value: u64) {}
}

/// One finished span measurement (aggregate view, no identity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (dotted path convention, e.g. `migrate.stage.scale`).
    pub name: String,
    /// Wall-clock duration, measured monotonically.
    pub duration: Duration,
}

/// A power-of-two-bucketed histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket `i` counts observations in `[2^i, 2^(i+1))`; bucket 0
    /// counts zeros and ones.
    pub buckets: [u64; 64],
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

/// Inclusive value bounds of bucket `i` (see [`Histogram::buckets`]).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else if i >= 63 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << i, (1u64 << (i + 1)) - 1)
    }
}

impl Histogram {
    /// Records one observation. All accumulation is saturating: a
    /// recorder hammered past `u64::MAX` clamps instead of panicking in
    /// the instrumented hot path.
    pub fn observe(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        let bucket = &mut self.buckets[idx.min(63)];
        *bucket = bucket.saturating_add(1);
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Arithmetic mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// the `q`-quantile observation (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64.checked_shl(i as u32).unwrap_or(u64::MAX);
            }
        }
        self.max
    }

    /// Bucket-interpolated percentile, `p` in `[0, 100]`.
    ///
    /// Finds the bucket holding the rank-`⌈count·p/100⌉` observation
    /// and interpolates linearly inside the bucket's value range by the
    /// rank's position within the bucket — a much tighter estimate than
    /// [`Histogram::quantile`]'s bucket upper bound, at identical
    /// storage cost. The result is clamped to `[min, max]`, so p0 and
    /// p100 are exact.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((self.count as f64) * p / 100.0).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let into = (target - seen) as f64 / c as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

#[derive(Debug, Default)]
struct MemoryState {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe in-memory sink: aggregates spans, counters, and
/// histograms for later inspection or JSON export.
///
/// ## Lock granularity
///
/// All state sits behind **one** mutex. Critical sections are a few
/// dozen nanoseconds (a `Vec` push or a `BTreeMap` bump), so at the
/// thread counts this workbench runs (≤ 16 batch workers) a single
/// lock measures within noise of sharded alternatives — and keeps
/// snapshots (`to_json`, `counters`) trivially consistent: one lock
/// acquisition sees spans, counters, and histograms at the same
/// instant. Sharding (per-thread buffers merged on read, or one lock
/// per map) would cut contention for *much* wider fan-out at the cost
/// of torn snapshots or a merge step; revisit if a profile ever shows
/// this lock hot.
///
/// The lock is also **poison-hardened**: if an instrumented thread
/// panics while recording, other threads recover the data instead of
/// propagating the panic out of the observability layer (counter bumps
/// and span pushes keep the state internally consistent at every
/// intermediate point, so recovered data is never torn).
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    state: Mutex<MemoryState>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// Locks the state, recovering the data from a poisoned mutex: a
    /// panic elsewhere must not cascade into every instrumented thread.
    fn lock(&self) -> MutexGuard<'_, MemoryState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Number of finished spans with this exact name.
    pub fn span_count(&self, name: &str) -> usize {
        self.lock().spans.iter().filter(|s| s.name == name).count()
    }

    /// Total duration across all spans with this exact name.
    pub fn span_total(&self, name: &str) -> Duration {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration)
            .sum()
    }

    /// Sorted set of distinct span names seen.
    pub fn span_names(&self) -> Vec<String> {
        let st = self.lock();
        let mut names: Vec<String> = st.spans.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of every counter.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.lock().counters.clone()
    }

    /// Snapshot of one histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Snapshot of every histogram.
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        self.lock().histograms.clone()
    }

    /// Discards all recorded data.
    pub fn reset(&self) {
        *self.lock() = MemoryState::default();
    }

    /// Serializes the aggregate state as a JSON object:
    /// `{"spans": {name: {count, total_us}}, "counters": {...},
    /// "histograms": {name: {count, sum, min, max, mean, p50, p90,
    /// p99}}}`.
    ///
    /// Hand-rolled (the crate is zero-dependency); names follow the
    /// dotted-path convention and need no escaping beyond quotes.
    pub fn to_json(&self) -> String {
        let esc = json::escape;
        let st = self.lock();
        let mut span_agg: BTreeMap<&str, (u64, u128)> = BTreeMap::new();
        for s in &st.spans {
            let e = span_agg.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.duration.as_micros();
        }
        let spans = span_agg
            .iter()
            .map(|(name, (count, us))| {
                format!("\"{}\":{{\"count\":{count},\"total_us\":{us}}}", esc(name))
            })
            .collect::<Vec<_>>()
            .join(",");
        let counters = st
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect::<Vec<_>>()
            .join(",");
        let hists = st
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\
                     \"p50\":{},\"p90\":{},\"p99\":{}}}",
                    esc(k),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(90.0),
                    h.percentile(99.0)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"spans\":{{{spans}}},\"counters\":{{{counters}}},\"histograms\":{{{hists}}}}}")
    }
}

impl Recorder for MemoryRecorder {
    fn record_span(&self, name: &str, duration: Duration) {
        self.lock().spans.push(SpanRecord {
            name: name.to_string(),
            duration,
        });
    }

    fn add_counter(&self, name: &str, delta: u64) {
        let mut st = self.lock();
        let c = st.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(delta);
    }

    fn record_value(&self, name: &str, value: u64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }
}

/// An RAII span: opens on [`Span::enter`], records its duration into
/// the recorder when dropped. Timing uses [`Instant`], which is
/// monotonic.
///
/// On enter the span takes a process-unique [`SpanId`], links to the
/// innermost open span on this thread as its parent, and becomes the
/// current span itself; hierarchical sinks ([`TraceRecorder`]) receive
/// the full identity, aggregate sinks just the name/duration pair.
/// `!Send`: the thread-local current-span stack pins a span to the
/// thread that opened it (hand work across threads with
/// [`attach_parent`]).
pub struct Span<'a> {
    recorder: &'a dyn Recorder,
    name: String,
    id: SpanId,
    start: Instant,
    _not_send: PhantomData<*const ()>,
}

impl<'a> Span<'a> {
    /// Opens a span as a child of this thread's current span.
    pub fn enter(recorder: &'a dyn Recorder, name: impl Into<String>) -> Self {
        let name = name.into();
        let id = SpanId::next();
        recorder.record_span_start(id, current_span(), &name, trace_clock());
        stack_push(id);
        Span {
            recorder,
            name,
            id,
            start: Instant::now(),
            _not_send: PhantomData,
        }
    }

    /// This span's identity — pass to [`attach_parent`] to hand the
    /// context to another thread.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attaches a key/value attribute (design name, sheet, net
    /// count...) to this span.
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        self.recorder.record_attr(self.id, key, value.into());
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        stack_remove(self.id);
        self.recorder.record_span_end(self.id, trace_clock());
        self.recorder.record_span(&self.name, self.start.elapsed());
    }
}

/// Times `f`, recording one span around the call.
pub fn timed<T>(recorder: &dyn Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = Span::enter(recorder, name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn null_recorder_accepts_everything() {
        let r = NullRecorder;
        r.record_span("x", Duration::from_millis(1));
        r.add_counter("c", 5);
        r.record_value("h", 7);
        r.record_span_start(SpanId(1), None, "x", Duration::ZERO);
        r.record_span_end(SpanId(1), Duration::ZERO);
        r.record_attr(SpanId(1), "k", AttrValue::UInt(1));
        r.record_event("e", None, Duration::ZERO, &[]);
    }

    #[test]
    fn spans_record_on_drop_with_monotonic_time() {
        let rec = MemoryRecorder::new();
        {
            let s = Span::enter(&rec, "work");
            assert_eq!(rec.span_count("work"), 0, "not recorded until drop");
            let _ = s.elapsed();
        }
        assert_eq!(rec.span_count("work"), 1);
        assert_eq!(rec.span_names(), vec!["work".to_string()]);
    }

    #[test]
    fn span_stack_tracks_nesting() {
        let rec = NullRecorder;
        assert_eq!(current_span(), None);
        let outer = Span::enter(&rec, "outer");
        assert_eq!(current_span(), Some(outer.id()));
        {
            let inner = Span::enter(&rec, "inner");
            assert_eq!(current_span(), Some(inner.id()));
        }
        assert_eq!(current_span(), Some(outer.id()));
        drop(outer);
        assert_eq!(current_span(), None);
    }

    #[test]
    fn attach_parent_sets_context_until_guard_drops() {
        let rec = NullRecorder;
        let span = Span::enter(&rec, "root");
        let id = span.id();
        drop(span);
        assert_eq!(current_span(), None);
        {
            let _g = attach_parent(id);
            assert_eq!(current_span(), Some(id));
        }
        assert_eq!(current_span(), None);
    }

    #[test]
    fn counters_accumulate() {
        let rec = MemoryRecorder::new();
        rec.add_counter("a", 3);
        rec.add_counter("a", 4);
        rec.add_counter("b", 1);
        assert_eq!(rec.counter("a"), 7);
        assert_eq!(rec.counter("b"), 1);
        assert_eq!(rec.counter("missing"), 0);
        assert_eq!(rec.counters().len(), 2);
    }

    #[test]
    fn accumulation_saturates_instead_of_panicking() {
        let rec = MemoryRecorder::new();
        rec.add_counter("c", u64::MAX);
        rec.add_counter("c", u64::MAX);
        rec.add_counter("c", 1);
        assert_eq!(rec.counter("c"), u64::MAX);

        rec.record_value("h", u64::MAX);
        rec.record_value("h", u64::MAX);
        rec.record_value("h", 3);
        let h = rec.histogram("h").unwrap();
        assert_eq!(h.sum, u64::MAX, "sum clamps at u64::MAX");
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.min, 3);
        // And the JSON export still renders.
        assert!(rec.to_json().contains("\"h\""));
    }

    #[test]
    fn histogram_count_saturates_at_max() {
        let mut h = Histogram {
            count: u64::MAX,
            ..Histogram::default()
        };
        h.observe(1);
        assert_eq!(h.count, u64::MAX, "no wrap to zero");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 900] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 906);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 900);
        assert!((h.mean() - 181.2).abs() < 1e-9);
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        // 900 lives in the [512, 1024) bucket -> index 9.
        assert_eq!(h.buckets[9], 1);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut h = Histogram::default();
        for v in 0..100u64 {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 99);
        // p50: rank 50 of 100. Observations 32..=63 share bucket 5
        // ([32, 63], 32 entries); rank 50 is the 18th of them, so the
        // interpolated estimate lands inside [32, 63] near the middle.
        let p50 = h.percentile(50.0);
        assert!((32..=63).contains(&p50), "p50 = {p50}");
        let p90 = h.percentile(90.0);
        assert!((64..=99).contains(&p90), "p90 = {p90}");
        assert!(h.percentile(50.0) <= h.percentile(90.0));
        assert!(h.percentile(90.0) <= h.percentile(99.0));
        // Exact under a single-valued distribution.
        let mut one = Histogram::default();
        for _ in 0..10 {
            one.observe(7);
        }
        assert_eq!(one.percentile(50.0), 7);
        assert_eq!(one.percentile(99.0), 7);
        // Empty histogram.
        assert_eq!(Histogram::default().percentile(50.0), 0);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = MemoryRecorder::new();
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.add_counter("hits", 1);
                    }
                    timed(&rec, "thread.work", || ());
                    rec.record_value("latency", 16);
                });
            }
        });
        assert_eq!(rec.counter("hits"), 400);
        assert_eq!(rec.span_count("thread.work"), 4);
        assert_eq!(rec.histogram("latency").unwrap().count, 4);
    }

    #[test]
    fn json_export_is_well_formed_enough() {
        let rec = MemoryRecorder::new();
        rec.add_counter("designs", 64);
        rec.record_span("stage.scale", Duration::from_micros(1500));
        rec.record_span("stage.scale", Duration::from_micros(500));
        rec.record_value("issues", 0);
        let json = rec.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"designs\":64"));
        assert!(json.contains("\"stage.scale\":{\"count\":2,\"total_us\":2000}"));
        assert!(json.contains("\"issues\":{\"count\":1"));
        assert!(json.contains("\"p50\":0"), "percentiles exported");
        validate_json(&json).expect("aggregate JSON parses");
    }

    #[test]
    fn reset_clears_state() {
        let rec = MemoryRecorder::new();
        rec.add_counter("a", 1);
        rec.record_span("s", Duration::from_micros(1));
        rec.reset();
        assert_eq!(rec.counter("a"), 0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn poisoned_recorder_recovers_data() {
        let rec = MemoryRecorder::new();
        rec.add_counter("before", 1);
        // Poison the mutex by panicking while holding it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = rec.state.lock().unwrap();
            panic!("instrumented thread died");
        }));
        assert!(result.is_err());
        assert!(rec.state.is_poisoned());
        // Recording and reading still work; prior data survives.
        rec.add_counter("after", 2);
        assert_eq!(rec.counter("before"), 1);
        assert_eq!(rec.counter("after"), 2);
    }
}
