//! The event-driven simulation kernel with pluggable scheduling.
//!
//! Section 3.1: "simulation results depend on the scheduling algorithm
//! the simulator uses to order and process events. Different Verilog
//! simulators can legitimately disagree on the outcome of the same
//! simulation, because the simulation cycle and processing order for
//! simultaneous events are not completely defined by the language."
//! [`SchedulerPolicy`] captures two of those legitimate freedoms: the
//! pop order of simultaneous activations and whether continuous
//! assignments propagate eagerly (mid-statement) or through the event
//! queue.
//!
//! ## Hot-path discipline
//!
//! A kernel allocates when it is built and when one of its buffers
//! doubles, and nowhere else on the per-event path, however many
//! changes it commits and however wide they are:
//!
//! * every expression was compiled at elaboration into the circuit's
//!   program ([`crate::eval`]), and the kernel runs it against one
//!   register file allocated when the kernel is built; operands are read
//!   in place from state slots, constants and registers;
//! * a store compares the result with the signal's state slot and, on a
//!   change, copies the words into the slot's existing storage; edge
//!   detection gets only bit 0 of the old and new values, and PLI
//!   callbacks read the new value from the state;
//! * the waveform record of a commit is a fixed-size entry in the change
//!   log; a value wider than 64 bits has its words copied into the
//!   waveform's word arena, a narrower one into the entry itself
//!   ([`Waveform`]);
//! * non-blocking updates are copied into a recycled word buffer, not
//!   into owned values;
//! * activation dedup is a generation-stamped mark array, watcher lists
//!   are built once per circuit and walked in place, PLI dispatch
//!   borrows the callback list, and the NBA buffers are recycled across
//!   delta cycles.
//!
//! Whether the per-bit reference operators are forced
//! ([`crate::logic::reference`]) is checked once per settle, not once
//! per operation. The change log and the word arena grow by amortized
//! doubling, and dropping a finished waveform frees just those two
//! buffers. Readers see the log through borrowed
//! [`ValueRef`]s and copy a signal's values out only into a flat
//! [`History`].
//!
//! The circuit lives behind an [`Arc`], which also makes a [`Kernel`]
//! `Send` — the basis for [`crate::race::sweep_parallel`]'s
//! multi-threaded divergence sweeps. The kernel keeps its mutable run
//! state in a separate struct, so activations borrow the circuit beside
//! it and never touch the `Arc`: sweep threads sharing one circuit do
//! not contend on its reference count.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use hdl::ast::Edge;
use obs::{NullRecorder, Recorder, Span};

use crate::elab::{Circuit, LRef, Proc, SStmt, SigId};
use crate::eval::{store, Expr, Operand};
use crate::logic::{reference, word_count, Bits, BitsMut, Logic, Value, ValueRef};

/// Pop order for simultaneous process activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// First scheduled, first run.
    Fifo,
    /// Last scheduled, first run.
    Lifo,
}

/// A complete (and legal) scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerPolicy {
    /// Display name (the simulated vendor).
    pub name: &'static str,
    /// Simultaneous-activation order.
    pub order: OrderPolicy,
    /// When true, continuous assignments re-evaluate immediately upon
    /// operand change — even between two statements of a running
    /// process — instead of going through the event queue.
    pub eager_continuous: bool,
}

impl SchedulerPolicy {
    /// Vendor "SimA": FIFO order, queued continuous assigns (a
    /// compiled-code simulator).
    pub fn sim_a() -> Self {
        SchedulerPolicy {
            name: "SimA",
            order: OrderPolicy::Fifo,
            eager_continuous: false,
        }
    }

    /// Vendor "SimB": LIFO order, eager continuous assigns (an
    /// interpreted simulator).
    pub fn sim_b() -> Self {
        SchedulerPolicy {
            name: "SimB",
            order: OrderPolicy::Lifo,
            eager_continuous: true,
        }
    }

    /// All built-in policies.
    pub fn all() -> Vec<SchedulerPolicy> {
        vec![
            SchedulerPolicy::sim_a(),
            SchedulerPolicy::sim_b(),
            SchedulerPolicy {
                name: "SimC",
                order: OrderPolicy::Fifo,
                eager_continuous: true,
            },
            SchedulerPolicy {
                name: "SimD",
                order: OrderPolicy::Lifo,
                eager_continuous: false,
            },
        ]
    }
}

/// A recorded waveform: every change, in commit order.
///
/// A change is a fixed record: time, signal, width and its value's
/// words. A value wider than 64 bits lives in one word arena that holds
/// every such value's `[val.., unk..]` planes back to back, and the
/// record keeps its offset; a narrower value's two plane words sit in
/// the record itself, as a [`Value`] keeps them inline. Recording a
/// change allocates nothing beyond the two vectors' amortized growth,
/// and dropping a waveform is two frees.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Waveform {
    changes: Vec<Change>,
    words: Vec<u64>,
}

/// One change record of a [`Waveform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Change {
    time: u64,
    sig: u32,
    width: u32,
    /// `[val, unk]` of a value of at most 64 bits; `[offset, 0]` of a
    /// wider one's first word in the arena.
    words: [u64; 2],
}

impl Waveform {
    /// Number of changes recorded.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Appends a change, copying the value's words. Every change of one
    /// signal must have the same width, as a kernel's do: a history
    /// holds its values at one width.
    ///
    /// # Panics
    ///
    /// Panics if `sig` does not fit in 32 bits.
    pub fn push<'v>(&mut self, time: u64, sig: SigId, value: impl Into<ValueRef<'v>>) {
        let value = value.into().bits();
        self.push_with(time, sig, value.width(), |o| o.copy(value));
    }

    /// Appends a change of `width` bits whose planes `write` fills in
    /// place.
    pub(crate) fn push_with(
        &mut self,
        time: u64,
        sig: SigId,
        width: usize,
        write: impl FnOnce(&mut BitsMut<'_>),
    ) {
        let words = if width <= 64 {
            let mut words = [0; 2];
            write(&mut BitsMut::from_words(&mut words, width));
            words
        } else {
            let at = self.words.len();
            self.words.resize(at + 2 * word_count(width), 0);
            write(&mut BitsMut::from_words(&mut self.words[at..], width));
            [at as u64, 0]
        };
        self.changes.push(Change {
            time,
            sig: u32::try_from(sig).expect("signal ids fit in 32 bits"),
            width: width as u32,
            words,
        });
    }

    /// Every change as `(time, signal, value)`, in commit order, read in
    /// place.
    pub fn changes(&self) -> impl ExactSizeIterator<Item = (u64, SigId, ValueRef<'_>)> + '_ {
        self.changes.iter().map(|c| self.read(c))
    }

    /// Change `i` of the log.
    fn change(&self, i: u32) -> (u64, SigId, ValueRef<'_>) {
        self.read(&self.changes[i as usize])
    }

    /// Whether change `i` of this log and change `j` of `other` have
    /// the same time and value, compared in place: a narrow value by its
    /// record's words, a wide one by its words in the arenas.
    pub(crate) fn same_change(&self, i: u32, other: &Waveform, j: u32) -> bool {
        let (a, b) = (&self.changes[i as usize], &other.changes[j as usize]);
        a.time == b.time && self.same_value(a, other, b)
    }

    fn same_value(&self, a: &Change, other: &Waveform, b: &Change) -> bool {
        if a.width != b.width {
            return false;
        }
        if a.width <= 64 {
            return a.words == b.words;
        }
        self.read(a).2 == other.read(b).2
    }

    fn read<'a>(&'a self, c: &'a Change) -> (u64, SigId, ValueRef<'a>) {
        let width = c.width as usize;
        let words = if width <= 64 {
            &c.words[..]
        } else {
            let at = c.words[0] as usize;
            &self.words[at..at + 2 * word_count(width)]
        };
        (
            c.time,
            c.sig as SigId,
            ValueRef::new(Bits::from_words(words, width)),
        )
    }

    /// The change history of one signal, with consecutive duplicates
    /// collapsed. This scans the whole change log; callers querying
    /// many signals should build a [`Waveform::indexed`] view once and
    /// read histories from it.
    ///
    /// # Panics
    ///
    /// Panics if the signal's changes differ in width.
    pub fn history(&self, sig: SigId) -> History {
        let mut out = History::default();
        let mut last = None;
        for (t, s, v) in self.changes() {
            if s == sig && last != Some(v) {
                out.push(t, v);
                last = Some(v);
            }
        }
        out
    }

    /// Builds a per-signal change index in one pass over the log.
    /// `signal_count` bounds the signal id space (ids at or above it
    /// simply read back empty histories).
    pub fn indexed(&self, signal_count: usize) -> IndexedWaveform<'_> {
        IndexedWaveform {
            wave: self,
            index: ChangeIndex::new(self, signal_count),
        }
    }
}

impl fmt::Debug for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.changes()).finish()
    }
}

/// One signal's collapsed history: the change times in one column and
/// the values' planes, at the signal's fixed width, back to back in
/// another. Equality is entry by entry, as for a list of `(time,
/// Value)` pairs. `Debug` prints the columns as they are stored, which
/// is cheap enough to digest whole race reports; [`History::iter`]
/// reads the entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// The values' width; 0 while the history is empty, so that every
    /// empty history is equal.
    width: usize,
    times: Vec<u64>,
    words: Vec<u64>,
}

impl History {
    /// Copies the changes at `positions` of `wave`, reserving exactly.
    pub(crate) fn gather(wave: &Waveform, positions: &[u32]) -> History {
        let width = positions
            .first()
            .map_or(0, |&i| wave.changes[i as usize].width as usize);
        let mut out = History {
            width: 0, // set by the first push
            times: Vec::with_capacity(positions.len()),
            words: Vec::with_capacity(positions.len() * 2 * word_count(width)),
        };
        for &i in positions {
            let (t, _, v) = wave.change(i);
            out.push(t, v);
        }
        out
    }

    /// Appends an entry, copying the value's words.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not as wide as the entries before it.
    pub(crate) fn push(&mut self, time: u64, value: ValueRef<'_>) {
        if self.times.is_empty() {
            self.width = value.width();
        }
        assert_eq!(
            value.width(),
            self.width,
            "a history's values share one width"
        );
        value.bits().append_to(&mut self.words);
        self.times.push(time);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the signal never changed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The entries as `(time, value)`, oldest first, read in place.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, ValueRef<'_>)> + '_ {
        let stride = 2 * word_count(self.width);
        self.times
            .iter()
            .zip(self.words.chunks_exact(stride.max(1)))
            .map(move |(&t, words)| (t, ValueRef::new(Bits::from_words(words, self.width))))
    }
}

/// A per-signal index over a [`Waveform`], built once so that each
/// history query costs O(own changes) instead of O(all changes). Used
/// by the timing comparator, which queries several signals.
#[derive(Debug)]
pub struct IndexedWaveform<'a> {
    wave: &'a Waveform,
    index: ChangeIndex,
}

impl IndexedWaveform<'_> {
    /// The change history of one signal, with consecutive duplicates
    /// collapsed — identical output to [`Waveform::history`].
    ///
    /// # Panics
    ///
    /// Panics if the signal's changes differ in width.
    pub fn history(&self, sig: SigId) -> History {
        let positions: Vec<u32> = self.index.history(self.wave, sig).collect();
        History::gather(self.wave, &positions)
    }

    /// Number of indexed signals.
    pub fn signal_count(&self) -> usize {
        self.index.ends.len()
    }
}

/// The positions of each signal's changes in a waveform's log, grouped
/// by signal with a counting sort: two allocations whatever the signal
/// count.
#[derive(Debug)]
pub(crate) struct ChangeIndex {
    /// Signal `s`'s positions are `order[ends[s - 1]..ends[s]]`, from
    /// 0 for signal 0.
    ends: Vec<u32>,
    order: Vec<u32>,
}

impl ChangeIndex {
    pub(crate) fn new(wave: &Waveform, signal_count: usize) -> ChangeIndex {
        let mut ends = vec![0u32; signal_count];
        for c in &wave.changes {
            if let Some(n) = ends.get_mut(c.sig as usize) {
                *n += 1;
            }
        }
        // Exclusive prefix sums: each signal's first slot.
        let mut total = 0;
        for e in &mut ends {
            (*e, total) = (total, total + *e);
        }
        let mut order = vec![0u32; total as usize];
        for (i, c) in wave.changes.iter().enumerate() {
            if let Some(next) = ends.get_mut(c.sig as usize) {
                order[*next as usize] = i as u32;
                *next += 1; // ends as the slot after the signal's last
            }
        }
        ChangeIndex { ends, order }
    }

    /// The positions of signal `sig`'s changes in `wave`, consecutive
    /// duplicates collapsed: a change equal in value to the last one
    /// kept is skipped.
    pub(crate) fn history<'a>(
        &'a self,
        wave: &'a Waveform,
        sig: SigId,
    ) -> impl Iterator<Item = u32> + 'a {
        let positions = match self.ends.get(sig) {
            Some(&end) => {
                let start = if sig == 0 { 0 } else { self.ends[sig - 1] };
                &self.order[start as usize..end as usize]
            }
            None => &[],
        };
        let mut last: Option<&Change> = None;
        positions.iter().copied().filter(move |&i| {
            let c = &wave.changes[i as usize];
            if last.is_some_and(|l| wave.same_value(l, wave, c)) {
                return false;
            }
            last = Some(c);
            true
        })
    }
}

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Zero-delay activity did not converge (combinational loop or
    /// oscillation).
    Runaway {
        /// Simulation time at which the loop was detected.
        time: u64,
    },
    /// Unknown signal name in a testbench call.
    NoSuchSignal {
        /// The name.
        name: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Runaway { time } => {
                write!(f, "zero-delay activity did not converge at t={time}")
            }
            SimError::NoSuchSignal { name } => write!(f, "no signal named `{name}`"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-slot step budget (activations) before declaring a runaway.
const SLOT_STEP_LIMIT: usize = 100_000;
/// Eager-propagation recursion cap.
const DEPTH_LIMIT: usize = 512;

/// An event-driven simulator instance.
///
/// Kernels are `Send`: the circuit is shared through an [`Arc`], PLI
/// callbacks are `Send` closures, and the recorder is the already
/// thread-safe [`obs::Recorder`]. A kernel can therefore be built on
/// one thread and run on another, which is what
/// [`crate::race::sweep_parallel`] does.
pub struct Kernel {
    circuit: Arc<Circuit>,
    run: Run,
    recorder: Arc<dyn Recorder>,
    /// False while `recorder` is the [`NullRecorder`]: the hot `settle`
    /// loop skips even the virtual dispatch, keeping the untraced
    /// kernel's cost at zero.
    traced: bool,
}

/// Everything a run mutates, kept apart from the circuit so that
/// activations borrow the circuit beside it (`&Circuit` next to `&mut
/// Run`) and never touch the shared [`Arc`]'s reference count.
struct Run {
    policy: SchedulerPolicy,
    state: Vec<Value>,
    time: u64,
    queue: VecDeque<usize>,
    /// Generation-stamped queue-membership marks: `queued_mark[pid] ==
    /// queue_gen` means the process is currently in `queue`. The
    /// generation is always odd; popping rewinds the mark to the even
    /// `queue_gen - 1`, and draining a slot bumps the generation by
    /// two — staling every mark at once without touching the array.
    queued_mark: Vec<u64>,
    queue_gen: u64,
    /// Pending non-blocking updates of the current delta cycle.
    nba: Nba,
    /// Recycled NBA buffers: swapped with `nba` each delta cycle so the
    /// steady state performs no allocations.
    nba_scratch: Nba,
    /// The register file of the circuit's compiled program.
    regs: Vec<u64>,
    /// Whether the per-bit reference operators are forced on the
    /// running thread, sampled once per settle.
    reference: bool,
    next_stim: usize,
    waves: Waveform,
    steps: usize,
    depth: usize,
    pli: BTreeMap<SigId, Vec<crate::pli::PliCallback>>,
}

/// A pending non-blocking update: the new bits sit at `words[at..]` in
/// its [`Nba`], as wide as the write (the whole signal, or one bit).
struct NbaUpdate {
    sig: SigId,
    bit: Option<i64>,
    at: usize,
}

/// The non-blocking updates of one delta cycle, with their values'
/// words in one buffer.
#[derive(Default)]
struct Nba {
    updates: Vec<NbaUpdate>,
    words: Vec<u64>,
}

/// Per-slot activity tallied during one [`Kernel::settle`].
#[derive(Default)]
struct SlotStats {
    delta_cycles: u64,
    nba_updates: u64,
}

impl Kernel {
    /// Builds a kernel over a circuit with the given policy. All
    /// signals start at X; continuous assignments are scheduled for
    /// time 0 (always blocks wait for their first trigger, as in
    /// Verilog).
    pub fn new(circuit: Circuit, policy: SchedulerPolicy) -> Self {
        Kernel::new_shared(Arc::new(circuit), policy)
    }

    /// Builds a kernel over an already-shared circuit. Policy sweeps
    /// run many kernels over one circuit; sharing the [`Arc`] avoids a
    /// deep clone per kernel.
    pub fn new_shared(circuit: Arc<Circuit>, policy: SchedulerPolicy) -> Self {
        let state = circuit
            .signals
            .iter()
            .map(|s| Value::unknown(s.width))
            .collect();
        let mut run = Run {
            policy,
            state,
            time: 0,
            queue: VecDeque::new(),
            queued_mark: vec![0; circuit.procs.len()],
            queue_gen: 1,
            nba: Nba::default(),
            nba_scratch: Nba::default(),
            regs: vec![0; circuit.program().register_words()],
            reference: false,
            next_stim: 0,
            waves: Waveform::default(),
            steps: 0,
            depth: 0,
            pli: BTreeMap::new(),
        };
        for (pid, proc_) in circuit.procs.iter().enumerate() {
            if matches!(proc_, Proc::Continuous { .. }) {
                run.enqueue(pid);
            }
        }
        Kernel {
            circuit,
            run,
            recorder: Arc::new(NullRecorder),
            traced: false,
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> SchedulerPolicy {
        self.run.policy
    }

    /// Routes kernel observability into `recorder`: `sim.settle` /
    /// `sim.run_until` spans, `sim.events` / `sim.delta_cycles` /
    /// `sim.nba_updates` / `sim.stimuli` counters, and a
    /// `sim.slot.activations` histogram (one sample per settled slot).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
        self.traced = true;
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        self.run.time
    }

    /// The recorded waveform.
    pub fn waveform(&self) -> &Waveform {
        &self.run.waves
    }

    /// Consumes the kernel, keeping only its recorded waveform.
    pub(crate) fn into_waveform(self) -> Waveform {
        self.run.waves
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The shared circuit handle (cheap to clone).
    pub fn circuit_arc(&self) -> Arc<Circuit> {
        Arc::clone(&self.circuit)
    }

    /// Reads a signal's current value.
    pub fn peek(&self, sig: SigId) -> &Value {
        &self.run.state[sig]
    }

    /// Reads a signal by name.
    ///
    /// # Errors
    ///
    /// Fails when the name is unknown.
    pub fn peek_name(&self, name: &str) -> Result<&Value, SimError> {
        let sig = self.lookup(name)?;
        Ok(self.peek(sig))
    }

    /// Resolves a signal name to its id — do this once per signal in a
    /// testbench loop rather than paying the name-map lookup per event.
    ///
    /// # Errors
    ///
    /// Fails when the name is unknown.
    pub fn lookup(&self, name: &str) -> Result<SigId, SimError> {
        self.circuit
            .signal(name)
            .ok_or_else(|| SimError::NoSuchSignal {
                name: name.to_string(),
            })
    }

    /// Drives a signal from outside (a testbench poke). Propagation
    /// happens on the next [`Kernel::run_until`] / [`Kernel::settle`].
    pub fn poke(&mut self, sig: SigId, value: Value) {
        self.poke_ref(sig, &value);
    }

    /// [`Kernel::poke`] from a borrowed value: its bits are copied into
    /// the signal's existing storage.
    pub(crate) fn poke_ref(&mut self, sig: SigId, value: &Value) {
        let run = &mut self.run;
        if let Some((old0, new0)) = store(&mut run.state[sig], None, value.bits()) {
            run.commit_deferred(&self.circuit, sig, old0, new0);
        }
    }

    /// Drives a signal by name.
    ///
    /// # Errors
    ///
    /// Fails when the name is unknown.
    pub fn poke_name(&mut self, name: &str, value: Value) -> Result<(), SimError> {
        let sig = self.lookup(name)?;
        self.poke(sig, value);
        Ok(())
    }

    /// Registers a PLI-style callback invoked on every committed change
    /// of `sig` (see [`crate::pli`]).
    pub fn on_change(&mut self, sig: SigId, callback: crate::pli::PliCallback) {
        self.run.pli.entry(sig).or_default().push(callback);
    }

    /// Processes the current time slot until no activity remains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runaway`] when zero-delay activity exceeds
    /// the step budget (combinational loop / oscillation).
    pub fn settle(&mut self) -> Result<(), SimError> {
        self.run.reference = reference::active();
        let mut stats = SlotStats::default();
        if !self.traced {
            return self.run.settle(&self.circuit, &mut stats);
        }
        let rec = Arc::clone(&self.recorder);
        let span = Span::enter(rec.as_ref(), "sim.settle");
        span.attr("time", self.run.time);
        let result = self.run.settle(&self.circuit, &mut stats);
        let activations = self.run.steps as u64;
        rec.add_counter("sim.events", activations);
        rec.add_counter("sim.delta_cycles", stats.delta_cycles);
        rec.add_counter("sim.nba_updates", stats.nba_updates);
        rec.record_value("sim.slot.activations", activations);
        span.attr("activations", activations);
        span.attr("delta_cycles", stats.delta_cycles);
        if result.is_err() {
            span.attr("runaway", true);
        }
        result
    }

    /// Advances simulation to `t_end`, applying initial-block stimuli
    /// on the way and settling each touched time slot.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Runaway`].
    pub fn run_until(&mut self, t_end: u64) -> Result<(), SimError> {
        if !self.traced {
            return self.run_until_inner(t_end);
        }
        let rec = Arc::clone(&self.recorder);
        let span = Span::enter(rec.as_ref(), "sim.run_until");
        span.attr("policy", self.run.policy.name);
        span.attr("t_start", self.run.time);
        span.attr("t_end", t_end);
        self.run_until_inner(t_end)
    }

    fn run_until_inner(&mut self, t_end: u64) -> Result<(), SimError> {
        // Also samples the reference flag for the stimuli run below.
        self.settle()?;
        while let Some(at) = self
            .stimulus_at(self.run.next_stim)
            .filter(|&at| at <= t_end)
        {
            self.run.time = self.run.time.max(at);
            while self.stimulus_at(self.run.next_stim) == Some(at) {
                let idx = self.run.next_stim;
                self.run.next_stim += 1;
                self.run.steps = 0;
                if self.traced {
                    self.recorder.add_counter("sim.stimuli", 1);
                }
                self.run
                    .exec_stmt(&self.circuit.stimuli[idx].body, &self.circuit)?;
            }
            self.settle()?;
        }
        self.run.time = self.run.time.max(t_end);
        Ok(())
    }

    /// Activation time of initial-block stimulus `idx`, if there is one.
    fn stimulus_at(&self, idx: usize) -> Option<u64> {
        self.circuit.stimuli.get(idx).map(|s| s.at)
    }
}

impl Run {
    /// Fires registered callbacks for a committed change of `sig`,
    /// which read the new value in place from `state`. Borrows the
    /// callback list in place — no per-commit clone of the vector.
    fn fire_pli(&self, sig: SigId) {
        if self.pli.is_empty() {
            return;
        }
        if let Some(cbs) = self.pli.get(&sig) {
            for cb in cbs {
                (cb.lock().expect("pli callback poisoned"))(self.time, &self.state[sig]);
            }
        }
    }

    /// Publishes a committed change of `sig`: PLI callbacks, then the
    /// waveform record (the one copy of the new value a commit makes).
    fn publish(&mut self, sig: SigId) {
        self.fire_pli(sig);
        self.waves.push(self.time, sig, &self.state[sig]);
    }

    fn enqueue(&mut self, pid: usize) {
        if self.queued_mark[pid] != self.queue_gen {
            self.queued_mark[pid] = self.queue_gen;
            self.queue.push_back(pid);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let pid = match self.policy.order {
            OrderPolicy::Fifo => self.queue.pop_front(),
            OrderPolicy::Lifo => self.queue.pop_back(),
        }?;
        // Rewind to the (even) stale value; the generation itself stays
        // odd, so a stale mark can never collide with a future one.
        self.queued_mark[pid] = self.queue_gen - 1;
        Some(pid)
    }

    /// Commit used from outside process execution (pokes): watchers are
    /// queued, never run inline. `old0`/`new0` are bit 0 of the old and
    /// new value, as [`store`] reports them.
    fn commit_deferred(&mut self, circuit: &Circuit, sig: SigId, old0: Logic, new0: Logic) {
        self.publish(sig);
        for &(edge, pid) in circuit.watchers(sig) {
            if edge_fires(edge, old0, new0) {
                self.enqueue(pid);
            }
        }
    }

    /// Commit used during process execution: under an eager policy,
    /// triggered continuous assignments run immediately (recursively);
    /// everything else is queued.
    fn commit_now(
        &mut self,
        circuit: &Circuit,
        sig: SigId,
        old0: Logic,
        new0: Logic,
    ) -> Result<(), SimError> {
        self.publish(sig);
        for &(edge, pid) in circuit.watchers(sig) {
            if !edge_fires(edge, old0, new0) {
                continue;
            }
            if self.policy.eager_continuous && matches!(circuit.procs[pid], Proc::Continuous { .. })
            {
                self.run_proc(circuit, pid)?;
            } else {
                self.enqueue(pid);
            }
        }
        Ok(())
    }

    fn run_proc(&mut self, circuit: &Circuit, pid: usize) -> Result<(), SimError> {
        self.steps += 1;
        if self.steps > SLOT_STEP_LIMIT {
            return Err(SimError::Runaway { time: self.time });
        }
        self.depth += 1;
        if self.depth > DEPTH_LIMIT {
            self.depth -= 1;
            return Err(SimError::Runaway { time: self.time });
        }
        let result = match &circuit.procs[pid] {
            Proc::Continuous { lhs, rhs } => match self.resolve(circuit, lhs, rhs) {
                Some(bit) => match self.store(circuit, lhs.sig, bit, rhs.out()) {
                    Some((old0, new0)) => self.commit_now(circuit, lhs.sig, old0, new0),
                    None => Ok(()),
                },
                None => Ok(()), // unknown index: no drive
            },
            Proc::Always { body, .. } => self.exec_stmt(body, circuit),
        };
        self.depth -= 1;
        result
    }

    /// Runs a compiled expression into the register file.
    fn eval(&mut self, circuit: &Circuit, e: &Expr) {
        circuit
            .program()
            .run(e, &self.state, &mut self.regs, self.reference);
    }

    /// Runs an expression and reads its truthiness.
    fn truthy(&mut self, circuit: &Circuit, e: &Expr) -> Option<bool> {
        self.eval(circuit, e);
        circuit
            .program()
            .result(e, &self.state, &self.regs)
            .truthy()
    }

    /// Evaluates an assignment's index (Verilog: at assignment time) and
    /// right-hand side, leaving the source in the register file. Returns
    /// the resolved bit (relative to the target's declared lsb) of a
    /// bit-select write, and `None` when that index is unknown.
    fn resolve(&mut self, circuit: &Circuit, lhs: &LRef, rhs: &Expr) -> Option<Option<i64>> {
        let bit = match &lhs.index {
            Some(i) => {
                self.eval(circuit, i);
                let index = circuit.program().result(i, &self.state, &self.regs);
                Some(index.as_u64()? as i64 - circuit.signals[lhs.sig].lsb)
            }
            None => None,
        };
        self.eval(circuit, rhs);
        Some(bit)
    }

    /// Stores operand `src` into signal `sig` in place — see [`store`].
    fn store(
        &mut self,
        circuit: &Circuit,
        sig: SigId,
        bit: Option<i64>,
        src: Operand,
    ) -> Option<(Logic, Logic)> {
        let Operand::Sig(from) = src else {
            let src = circuit.program().scratch(src, &self.regs);
            return store(&mut self.state[sig], bit, src);
        };
        if from == sig {
            // A signal read into itself: only a bit write can change it.
            let b = self.state[sig].get(0);
            return bit.and_then(|_| store(&mut self.state[sig], bit, Value::bit(b).bits()));
        }
        let (src, slot) = if from < sig {
            let (lo, hi) = self.state.split_at_mut(sig);
            (&lo[from], &mut hi[0])
        } else {
            let (lo, hi) = self.state.split_at_mut(from);
            (&hi[0], &mut lo[sig])
        };
        store(slot, bit, src.bits())
    }

    /// Queues a non-blocking write of operand `src`, copying its bits at
    /// the write's width into the NBA word buffer.
    fn defer(&mut self, circuit: &Circuit, sig: SigId, bit: Option<i64>, src: Operand) {
        let width = if bit.is_some() {
            1
        } else {
            circuit.signals[sig].width
        };
        let at = self.nba.words.len();
        self.nba.words.resize(at + 2 * word_count(width), 0);
        let src = circuit.program().operand(src, &self.state, &self.regs);
        BitsMut::from_words(&mut self.nba.words[at..], width).copy(src);
        self.nba.updates.push(NbaUpdate { sig, bit, at });
    }

    /// Statement execution with *live* commits: each blocking store
    /// publishes immediately, so eager continuous assignments can fire
    /// between two statements of the same process — the freedom behind
    /// the paper's `assign a = b & c` example.
    fn exec_stmt(&mut self, stmt: &SStmt, circuit: &Circuit) -> Result<(), SimError> {
        match stmt {
            SStmt::Block(items) => {
                for s in items {
                    self.exec_stmt(s, circuit)?;
                }
                Ok(())
            }
            SStmt::If {
                cond,
                then_s,
                else_s,
            } => match self.truthy(circuit, cond) {
                Some(true) => self.exec_stmt(then_s, circuit),
                _ => match else_s {
                    Some(e) => self.exec_stmt(e, circuit),
                    None => Ok(()),
                },
            },
            SStmt::Assign { lhs, rhs, blocking } => {
                let Some(bit) = self.resolve(circuit, lhs, rhs) else {
                    return Ok(()); // unknown index: discard
                };
                if *blocking {
                    if let Some((old0, new0)) = self.store(circuit, lhs.sig, bit, rhs.out()) {
                        self.commit_now(circuit, lhs.sig, old0, new0)?;
                    }
                } else {
                    self.defer(circuit, lhs.sig, bit, rhs.out());
                }
                Ok(())
            }
            SStmt::Case {
                subject,
                arms,
                default,
            } => {
                // Each label is compiled as `subject == label`, reading
                // the subject's result from the register file.
                self.eval(circuit, subject);
                for (labels, body) in arms {
                    for label in labels {
                        if self.truthy(circuit, label) == Some(true) {
                            return self.exec_stmt(body, circuit);
                        }
                    }
                }
                match default {
                    Some(d) => self.exec_stmt(d, circuit),
                    None => Ok(()),
                }
            }
            SStmt::Nop => Ok(()),
        }
    }

    /// Drains the current time slot: the body of [`Kernel::settle`].
    fn settle(&mut self, circuit: &Circuit, stats: &mut SlotStats) -> Result<(), SimError> {
        self.steps = 0;
        loop {
            while let Some(pid) = self.pop() {
                self.run_proc(circuit, pid)?;
            }
            if self.nba.updates.is_empty() {
                // Slot drained: advance the generation (stays odd) so
                // every mark goes stale without clearing the array.
                self.queue_gen += 2;
                return Ok(());
            }
            // NBA region: apply all pending updates, then loop back to
            // the active region. Swap through the scratch buffers so the
            // steady state reuses their allocations.
            stats.delta_cycles += 1;
            let mut pending =
                std::mem::replace(&mut self.nba, std::mem::take(&mut self.nba_scratch));
            stats.nba_updates += pending.updates.len() as u64;
            for u in &pending.updates {
                let width = if u.bit.is_some() {
                    1
                } else {
                    circuit.signals[u.sig].width
                };
                let words = &pending.words[u.at..u.at + 2 * word_count(width)];
                if let Some((old0, new0)) = store(
                    &mut self.state[u.sig],
                    u.bit,
                    Bits::from_words(words, width),
                ) {
                    // NBA commits queue watchers like any other event.
                    self.commit_now(circuit, u.sig, old0, new0)?;
                }
            }
            pending.updates.clear();
            pending.words.clear();
            self.nba_scratch = pending;
        }
    }
}

/// Whether a change with bit 0 going `o` → `n` triggers `edge`.
fn edge_fires(edge: Edge, o: Logic, n: Logic) -> bool {
    match edge {
        Edge::Any => true,
        Edge::Pos => n == Logic::One && o != Logic::One,
        Edge::Neg => n == Logic::Zero && o != Logic::Zero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::compile_unit;
    use hdl::parser::parse;

    fn kernel(src: &str, top: &str, policy: SchedulerPolicy) -> Kernel {
        let unit = parse(src).unwrap();
        let circuit = compile_unit(&unit, top).unwrap();
        Kernel::new(circuit, policy)
    }

    #[test]
    fn kernels_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Kernel>();
    }

    #[test]
    fn combinational_logic_settles() {
        let mut k = kernel(
            r#"
            module m(input a, input b, output w, output v);
              assign w = a & b;
              assign v = ~w;
            endmodule
            "#,
            "m",
            SchedulerPolicy::sim_a(),
        );
        k.poke_name("a", Value::bit(Logic::One)).unwrap();
        k.poke_name("b", Value::bit(Logic::One)).unwrap();
        k.run_until(10).unwrap();
        assert_eq!(k.peek_name("w").unwrap().get(0), Logic::One);
        assert_eq!(k.peek_name("v").unwrap().get(0), Logic::Zero);
    }

    #[test]
    fn dff_captures_on_posedge_only() {
        let mut k = kernel(
            r#"
            module d(input clk, input din, output reg q);
              always @(posedge clk) q <= din;
            endmodule
            "#,
            "d",
            SchedulerPolicy::sim_a(),
        );
        k.poke_name("clk", Value::bit(Logic::Zero)).unwrap();
        k.poke_name("din", Value::bit(Logic::One)).unwrap();
        k.run_until(1).unwrap();
        assert_eq!(
            k.peek_name("q").unwrap().get(0),
            Logic::X,
            "not clocked yet"
        );
        k.poke_name("clk", Value::bit(Logic::One)).unwrap();
        k.run_until(2).unwrap();
        assert_eq!(k.peek_name("q").unwrap().get(0), Logic::One);
        k.poke_name("din", Value::bit(Logic::Zero)).unwrap();
        k.run_until(3).unwrap();
        assert_eq!(k.peek_name("q").unwrap().get(0), Logic::One);
        k.poke_name("clk", Value::bit(Logic::Zero)).unwrap();
        k.run_until(4).unwrap();
        assert_eq!(k.peek_name("q").unwrap().get(0), Logic::One);
    }

    #[test]
    fn nba_swap_works_under_all_policies() {
        let src = r#"
            module s(input clk, output reg a, output reg b);
              initial begin
                a = 0;
                b = 1;
              end
              always @(posedge clk) a <= b;
              always @(posedge clk) b <= a;
            endmodule
        "#;
        for policy in SchedulerPolicy::all() {
            let mut k = kernel(src, "s", policy);
            k.poke_name("clk", Value::bit(Logic::Zero)).unwrap();
            k.run_until(1).unwrap();
            k.poke_name("clk", Value::bit(Logic::One)).unwrap();
            k.run_until(2).unwrap();
            assert_eq!(
                k.peek_name("a").unwrap().get(0),
                Logic::One,
                "{}",
                policy.name
            );
            assert_eq!(k.peek_name("b").unwrap().get(0), Logic::Zero);
        }
    }

    #[test]
    fn initial_stimuli_apply_in_time_order() {
        let mut k = kernel(
            r#"
            module t(output reg [3:0] v);
              initial begin
                v = 0;
                #5 v = 1;
                #5 v = 2;
              end
            endmodule
            "#,
            "t",
            SchedulerPolicy::sim_a(),
        );
        k.run_until(4).unwrap();
        assert_eq!(k.peek_name("v").unwrap().as_u64(), Some(0));
        k.run_until(5).unwrap();
        assert_eq!(k.peek_name("v").unwrap().as_u64(), Some(1));
        k.run_until(100).unwrap();
        assert_eq!(k.peek_name("v").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn combinational_loop_is_detected_under_both_policies() {
        // A ring with odd inversion, loaded with a definite value
        // through a mux so the oscillation is policy-independent.
        for policy in [SchedulerPolicy::sim_a(), SchedulerPolicy::sim_b()] {
            let mut k = kernel(
                r#"
                module l(input sel, input d, output w, output v);
                  assign w = sel ? d : ~v;
                  assign v = w;
                endmodule
                "#,
                "l",
                policy,
            );
            k.poke_name("sel", Value::bit(Logic::One)).unwrap();
            k.poke_name("d", Value::bit(Logic::Zero)).unwrap();
            k.run_until(1).unwrap();
            assert_eq!(k.peek_name("v").unwrap().get(0), Logic::Zero);
            // Release the mux: the loop now inverts itself forever.
            k.poke_name("sel", Value::bit(Logic::Zero)).unwrap();
            let r = k.run_until(2);
            assert!(
                matches!(r, Err(SimError::Runaway { .. })),
                "{:?} under {}",
                r,
                policy.name
            );
        }
    }

    #[test]
    fn waveform_history_collapses_duplicates() {
        let mut k = kernel(
            r#"
            module m(input a, output w);
              assign w = a;
            endmodule
            "#,
            "m",
            SchedulerPolicy::sim_a(),
        );
        k.poke_name("a", Value::bit(Logic::One)).unwrap();
        k.run_until(1).unwrap();
        k.poke_name("a", Value::bit(Logic::Zero)).unwrap();
        k.run_until(2).unwrap();
        let w = k.circuit().signal("w").unwrap();
        let hist = k.waveform().history(w);
        let levels: Vec<Logic> = hist.iter().map(|(_, v)| v.get(0)).collect();
        assert_eq!(levels, [Logic::One, Logic::Zero]);
    }

    #[test]
    fn indexed_history_matches_scan_history() {
        let mut k = kernel(
            r#"
            module m(input a, input b, output w, output v);
              assign w = a & b;
              assign v = a | b;
            endmodule
            "#,
            "m",
            SchedulerPolicy::sim_a(),
        );
        for (t, name, level) in [
            (1u64, "a", Logic::One),
            (2, "b", Logic::One),
            (3, "a", Logic::Zero),
            (4, "b", Logic::Zero),
        ] {
            k.poke_name(name, Value::bit(level)).unwrap();
            k.run_until(t).unwrap();
        }
        let idx = k.waveform().indexed(k.circuit().signal_count());
        for sig in 0..k.circuit().signal_count() {
            assert_eq!(idx.history(sig), k.waveform().history(sig), "sig {sig}");
        }
        // Out-of-range signal ids read back empty.
        assert!(idx.history(999).is_empty());
    }

    #[test]
    fn eager_policy_sees_continuous_update_mid_process() {
        // Distilled from the paper's race example: a process writes b
        // then immediately reads a = b. Eager propagation sees the new
        // value; queued sees the old one.
        let src = r#"
            module e(input clk, input d, output reg b, output reg seen);
              wire a;
              assign a = b;
              initial begin
                b = 0;
                seen = 0;
              end
              always @(posedge clk) begin
                b = d;
                seen = a;
              end
            endmodule
        "#;
        let drive = |k: &mut Kernel| {
            k.poke_name("clk", Value::bit(Logic::Zero)).unwrap();
            k.poke_name("d", Value::bit(Logic::One)).unwrap();
            k.run_until(1).unwrap();
            k.poke_name("clk", Value::bit(Logic::One)).unwrap();
            k.run_until(2).unwrap();
        };
        let mut eager = kernel(src, "e", SchedulerPolicy::sim_b());
        drive(&mut eager);
        assert_eq!(eager.peek_name("seen").unwrap().get(0), Logic::One);
        let mut queued = kernel(src, "e", SchedulerPolicy::sim_a());
        drive(&mut queued);
        assert_eq!(queued.peek_name("seen").unwrap().get(0), Logic::Zero);
    }

    #[test]
    fn recorder_sees_settles_nested_under_run_until() {
        use obs::TraceRecorder;
        let mut k = kernel(
            r#"
            module d(input clk, input din, output reg q);
              always @(posedge clk) q <= din;
            endmodule
            "#,
            "d",
            SchedulerPolicy::sim_a(),
        );
        let rec = Arc::new(TraceRecorder::new());
        k.set_recorder(rec.clone());
        k.poke_name("din", Value::bit(Logic::One)).unwrap();
        k.poke_name("clk", Value::bit(Logic::One)).unwrap();
        k.run_until(5).unwrap();
        assert_eq!(k.peek_name("q").unwrap().get(0), Logic::One);

        assert!(rec.counter("sim.events") > 0, "activations counted");
        assert!(rec.counter("sim.nba_updates") >= 1, "NBA commit counted");
        let hist = rec.histogram("sim.slot.activations").unwrap();
        assert_eq!(hist.count as usize, rec.span_count("sim.settle"));

        // Every settle span parents under the run_until span.
        let spans = rec.finished_spans();
        let run = spans.iter().find(|s| s.name == "sim.run_until").unwrap();
        let settles: Vec<_> = spans.iter().filter(|s| s.name == "sim.settle").collect();
        assert!(!settles.is_empty());
        for s in &settles {
            assert_eq!(s.parent, Some(run.id));
        }
    }

    #[test]
    fn wide_counters_and_shifters_stay_known() {
        let src = r#"
            module w(input clk, input d, output reg [69:0] cnt, output reg [69:0] sh,
                     output reg lt, output reg [69:0] top);
              initial begin
                cnt = 0;
                sh = 1;
                lt = 0;
                top = 70'hffffffffffffffff;
              end
              always @(posedge clk) begin
                cnt <= cnt + 1;
                sh <= sh << 1;
                lt <= cnt < 5;
                top <= top + 1;
              end
            endmodule
        "#;
        for policy in SchedulerPolicy::all() {
            let mut k = kernel(src, "w", policy);
            crate::race::clocked_testbench(&mut k, 66).unwrap();
            let cnt = k.peek_name("cnt").unwrap();
            assert_eq!(cnt, &Value::from_u64(66, 70), "{}", policy.name);
            let sh = k.peek_name("sh").unwrap();
            assert!(!sh.has_unknown());
            assert_eq!(sh.get(66), Logic::One);
            assert_eq!(sh.iter_bits().filter(|b| *b == Logic::One).count(), 1);
            assert_eq!(k.peek_name("lt").unwrap().get(0), Logic::Zero);
            // 2^64 - 1 + 66 carries into bit 64.
            let top = k.peek_name("top").unwrap();
            assert_eq!(top.get(64), Logic::One);
            assert_eq!(top.resized(64).as_u64(), Some(65));
        }
    }

    #[test]
    fn ternary_result_has_the_wider_arms_width() {
        // IEEE 1364-2005 §5.4.1: `s ? a4 : b8` is 8 bits wide whichever
        // arm is chosen, so the chosen 4-bit arm is zero-extended before
        // the concatenation or the inversion sees it.
        let mut k = kernel(
            r#"
            module t(input s, input [3:0] a4, input [7:0] b8,
                     output [8:0] w9, output [7:0] w8);
              assign w9 = {1'b1, s ? a4 : b8};
              assign w8 = ~(s ? a4 : b8);
            endmodule
            "#,
            "t",
            SchedulerPolicy::sim_a(),
        );
        k.poke_name("s", Value::bit(Logic::One)).unwrap();
        k.poke_name("a4", Value::from_u64(0b1010, 4)).unwrap();
        k.poke_name("b8", Value::from_u64(0b0110_0101, 8)).unwrap();
        k.run_until(1).unwrap();
        assert_eq!(k.peek_name("w9").unwrap().to_string_msb(), "100001010");
        assert_eq!(k.peek_name("w8").unwrap().to_string_msb(), "11110101");
        // An unknown condition merges both arms at the same width.
        k.poke_name("s", Value::bit(Logic::X)).unwrap();
        k.run_until(2).unwrap();
        assert_eq!(k.peek_name("w9").unwrap().to_string_msb(), "10xx0xxxx");
    }

    #[test]
    fn program_is_compiled_once_per_circuit() {
        let unit = parse(
            "module m(input [69:0] a, input [69:0] b, output [69:0] w);
               assign w = (a & b) ^ ~a;
             endmodule",
        )
        .unwrap();
        let circuit = Arc::new(compile_unit(&unit, "m").unwrap());
        // Three instructions, each a 70-bit register of 2 × 2 words.
        assert_eq!(circuit.program().instr_count(), 3);
        assert_eq!(circuit.program().register_words(), 12);
        let kernels: Vec<Kernel> = SchedulerPolicy::all()
            .into_iter()
            .map(|p| Kernel::new_shared(Arc::clone(&circuit), p))
            .collect();
        for k in &kernels {
            assert!(std::ptr::eq(k.circuit().program(), circuit.program()));
        }
    }

    #[test]
    fn unknown_names_error() {
        let k = kernel(
            "module m(input a, output w); assign w = a; endmodule",
            "m",
            SchedulerPolicy::sim_a(),
        );
        assert!(matches!(
            k.peek_name("zz"),
            Err(SimError::NoSuchSignal { .. })
        ));
    }
}
