//! Parallel batch migration with work stealing.
//!
//! The paper's Exar case study migrated "approximately 1200 schematic
//! pages" — a batch problem. This module migrates N designs across
//! worker threads with the workspace's one work-stealing executor,
//! [`interop_core::par`]: each worker owns a deque of design indices,
//! pops work from its own front, and steals from the *back* of other
//! workers' deques when its own runs dry. The calling thread is worker
//! 0. Both drivers, [`migrate_batch_recorded`] and
//! [`migrate_batch_resilient`], share that fan-out and its telemetry.
//!
//! ## Determinism
//!
//! Each design migration is independent and deterministic, and every
//! result comes back in input order, so the outcomes are byte-identical
//! to a sequential run regardless of thread count or steal
//! interleaving.
//!
//! ```
//! use migrate::batch::{migrate_batch, BatchConfig};
//! use migrate::Migrator;
//! use schematic::dialect::DialectId;
//! use schematic::gen::{generate, GenConfig};
//!
//! let designs: Vec<_> = (0..4)
//!     .map(|seed| generate(&GenConfig { seed, ..GenConfig::default() }))
//!     .collect();
//! let outcomes = migrate_batch(
//!     &Migrator::default(),
//!     &designs,
//!     DialectId::Cascade,
//!     &BatchConfig::with_threads(2),
//! );
//! assert_eq!(outcomes.len(), 4);
//! assert!(outcomes.iter().all(|o| o.design.dialect == DialectId::Cascade));
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;

use interop_core::fault::{FaultKind, FaultPlan, RetryPolicy, VirtualClock};
use interop_core::par::par_map_with;
use obs::{AttrValue, NullRecorder, Recorder, Span};
use schematic::design::Design;
use schematic::dialect::DialectId;
use schematic::parse::ParseError;

use crate::checkpoint::{batch_fingerprint, Checkpoint, CheckpointError};
use crate::pipeline::{MigrationOutcome, Migrator};

/// Tuning for a batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads migrating designs concurrently (1 = sequential).
    pub threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            threads: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl BatchConfig {
    /// A batch config with a fixed worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        BatchConfig {
            threads: threads.max(1),
        }
    }
}

/// Migrates every design in `sources` to `target`, in parallel.
/// Outcomes are returned in input order; the output is byte-identical
/// to migrating each design sequentially.
pub fn migrate_batch(
    migrator: &Migrator,
    sources: &[Design],
    target: DialectId,
    batch: &BatchConfig,
) -> Vec<MigrationOutcome> {
    migrate_batch_recorded(migrator, sources, target, batch, &NullRecorder)
}

/// Like [`migrate_batch`], but emits observability into `recorder`: a
/// `migrate.batch` span for the whole run, one `migrate.batch.worker`
/// span per worker (parented under the batch span on every thread, so
/// the trace tree survives the thread boundary; the calling thread is
/// worker 0), per-design pipeline spans (via
/// [`Migrator::migrate_recorded`]), a `migrate.batch.designs` counter,
/// a `migrate.batch.steals` counter, and a `migrate.batch.queue_depth`
/// histogram sampled as workers start jobs.
///
/// Pipeline and stage spans carry a `design` attribute, so even when a
/// job is *stolen* by another worker its spans attribute to the design
/// they serve — not to the thread that happened to run them.
pub fn migrate_batch_recorded(
    migrator: &Migrator,
    sources: &[Design],
    target: DialectId,
    batch: &BatchConfig,
    recorder: &dyn Recorder,
) -> Vec<MigrationOutcome> {
    let batch_span = Span::enter(recorder, "migrate.batch");
    batch_span.attr("designs", sources.len());
    batch_span.attr("threads", batch.threads);
    recorder.add_counter("migrate.batch.designs", sources.len() as u64);
    fan_out(batch.threads, sources.len(), recorder, |i| {
        migrator.migrate_recorded(&sources[i], target, recorder)
    })
}

/// The fan-out both batch drivers share: runs `job` for every index in
/// `0..len` through [`par_map_with`] and returns the results in index
/// order. Each worker, the calling thread included, opens a
/// `migrate.batch.worker` span (attributes `worker`, `jobs`, `steals`)
/// under the caller's current span; every stolen job bumps
/// `migrate.batch.steals`, and every job samples its worker's remaining
/// deque length into `migrate.batch.queue_depth`.
fn fan_out<R: Send>(
    threads: usize,
    len: usize,
    recorder: &dyn Recorder,
    job: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    par_map_with(
        threads,
        len,
        |worker| {
            let span = Span::enter(recorder, "migrate.batch.worker");
            span.attr("worker", worker);
            span
        },
        |_, taken| {
            if taken.stolen {
                recorder.add_counter("migrate.batch.steals", 1);
            }
            recorder.record_value("migrate.batch.queue_depth", taken.queue_depth as u64);
            job(taken.index)
        },
        |span, stats| {
            span.attr("jobs", stats.jobs);
            span.attr("steals", stats.steals);
        },
    )
}

/// Serializes a design in the target dialect's canonical text form.
pub(crate) fn write_design(design: &Design, target: DialectId) -> String {
    match target {
        DialectId::Cascade => schematic::cascade::write(design),
        DialectId::Viewstar => schematic::viewstar::write(design),
    }
}

/// Parses target-dialect text back into a design.
pub(crate) fn parse_design(text: &str, target: DialectId) -> Result<Design, ParseError> {
    match target {
        DialectId::Cascade => schematic::cascade::parse(text),
        DialectId::Viewstar => schematic::viewstar::parse(text),
    }
}

/// Tuning for a fault-tolerant batch run.
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Worker threads migrating designs concurrently (1 = sequential).
    pub threads: usize,
    /// Per-design retry budget with backoff on the virtual clock.
    pub retry: RetryPolicy,
    /// Deterministic chaos schedule (sites are design names).
    pub fault_plan: FaultPlan,
    /// Per-attempt latency budget in virtual ticks (`None` =
    /// unlimited): injected latency beyond this fails the attempt.
    pub timeout_ticks: Option<u64>,
    /// Stop taking new designs after this many finish in this run —
    /// the deterministic "kill the batch partway" switch used to
    /// exercise checkpoint/resume.
    pub abort_after: Option<usize>,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            threads: BatchConfig::default().threads,
            retry: RetryPolicy::with_attempts(3),
            fault_plan: FaultPlan::none(),
            timeout_ticks: None,
            abort_after: None,
        }
    }
}

impl ResilientConfig {
    /// A config with a fixed worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        ResilientConfig {
            threads: threads.max(1),
            ..ResilientConfig::default()
        }
    }
}

/// Why a design landed in quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Input index of the design.
    pub index: usize,
    /// Design name.
    pub name: String,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The last attempt's failure (a positioned parse error for
    /// corrupted output, a panic message for crashes, ...).
    pub error: String,
}

/// Per-design outcome of a resilient batch run.
#[derive(Debug, Clone)]
pub enum DesignResult {
    /// Migrated in this run.
    Migrated(MigrationOutcome),
    /// Restored from a checkpoint — not re-run.
    Restored(Design),
    /// Poison design: every attempt failed; the rest of the batch
    /// completed without it.
    Quarantined(QuarantineEntry),
    /// The run was aborted (see [`ResilientConfig::abort_after`])
    /// before this design was taken, or a panic outside the
    /// per-attempt isolation struck it.
    Skipped,
}

impl DesignResult {
    /// The migrated design, when this design is healthy.
    pub fn design(&self) -> Option<&Design> {
        match self {
            DesignResult::Migrated(o) => Some(&o.design),
            DesignResult::Restored(d) => Some(d),
            DesignResult::Quarantined(_) | DesignResult::Skipped => None,
        }
    }

    /// True for quarantined designs.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, DesignResult::Quarantined(_))
    }
}

/// What a resilient batch run did.
#[derive(Debug, Clone, Default)]
pub struct ResilientReport {
    /// Per-design results, in input order.
    pub results: Vec<DesignResult>,
    /// Quarantined designs (also present in `results`).
    pub quarantined: Vec<QuarantineEntry>,
    /// Designs actually migrated in this run.
    pub executed: usize,
    /// Designs restored from the checkpoint without re-running.
    pub restored: usize,
    /// Designs skipped because the run aborted first.
    pub skipped: usize,
    /// Retry attempts beyond each design's first.
    pub retries: u64,
    /// Faults injected by the plan.
    pub faults_injected: u64,
    /// Virtual ticks of injected latency and backoff absorbed.
    pub virtual_ticks: u64,
}

impl ResilientReport {
    /// True when every design is either healthy or quarantined —
    /// nothing was skipped by an abort.
    pub fn is_settled(&self) -> bool {
        self.skipped == 0
    }
}

/// What one attempt at a design produced.
enum DesignAttempt {
    Ok(MigrationOutcome, String),
    Failed { error: String, retryable: bool },
}

/// Runs one migration attempt under the fault plan: injected latency
/// against the timeout budget, synthetic transient/persistent errors,
/// panic isolation, and output corruption checked by re-parsing the
/// serialized result (the corrupted artifact is discarded — a retry
/// re-runs from the pristine source).
#[allow(clippy::too_many_arguments)]
fn attempt_design(
    migrator: &Migrator,
    source: &Design,
    target: DialectId,
    attempt: u32,
    cfg: &ResilientConfig,
    clock: &VirtualClock,
    counters: &ChaosCounters,
    recorder: &dyn Recorder,
) -> DesignAttempt {
    let name = source.name.as_str();
    let fault = cfg.fault_plan.fault_for(name, attempt);
    if fault.is_some() {
        counters.faults.fetch_add(1, Ordering::Relaxed);
        recorder.add_counter("migrate.batch.faults.injected", 1);
    }
    match fault {
        Some(FaultKind::Latency(d)) => {
            if let Some(budget) = cfg.timeout_ticks {
                if d > budget {
                    clock.advance(budget);
                    recorder.add_counter("migrate.batch.timeouts", 1);
                    return DesignAttempt::Failed {
                        error: format!("timed out after {budget} virtual ticks (tool needed {d})"),
                        retryable: true,
                    };
                }
            }
            clock.advance(d);
        }
        Some(FaultKind::TransientError) => {
            return DesignAttempt::Failed {
                error: format!("injected transient error (attempt {attempt})"),
                retryable: true,
            };
        }
        Some(FaultKind::PersistentError) => {
            return DesignAttempt::Failed {
                error: format!("injected persistent error (attempt {attempt})"),
                retryable: false,
            };
        }
        _ => {}
    }

    // Panic isolation: a crashing stage (or the injected crash) fails
    // this design's attempt without poisoning the worker thread.
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        if fault == Some(FaultKind::Panic) {
            panic!("injected fault: migrator crash on `{name}` (attempt {attempt})");
        }
        migrator.migrate_recorded(source, target, recorder)
    }));
    let outcome = match caught {
        Ok(outcome) => outcome,
        Err(payload) => {
            recorder.add_counter("migrate.batch.panics", 1);
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return DesignAttempt::Failed {
                error: format!("panicked: {msg}"),
                retryable: true,
            };
        }
    };

    let text = write_design(&outcome.design, target);
    if let Some(kind @ (FaultKind::CorruptOutput | FaultKind::TruncateOutput)) = fault {
        // The "tool" wrote garbage: what lands on disk is the mangled
        // text. Re-parsing it is how the damage is detected — the
        // resulting positioned ParseError becomes the attempt's error.
        let mangled = cfg.fault_plan.mangle(kind, name, &text).unwrap_or_default();
        let error = match parse_design(&mangled, target) {
            Err(e) => e.to_string(),
            Ok(_) => format!("injected {kind} produced undetectably corrupt output"),
        };
        return DesignAttempt::Failed {
            error,
            retryable: true,
        };
    }
    DesignAttempt::Ok(outcome, text)
}

/// Shared chaos accounting across workers.
#[derive(Default)]
struct ChaosCounters {
    retries: AtomicU64,
    faults: AtomicU64,
}

/// Migrates a design until it succeeds or exhausts the retry budget.
#[allow(clippy::too_many_arguments)]
fn migrate_with_retry(
    migrator: &Migrator,
    index: usize,
    source: &Design,
    target: DialectId,
    cfg: &ResilientConfig,
    clock: &VirtualClock,
    counters: &ChaosCounters,
    recorder: &dyn Recorder,
) -> (DesignResult, Option<String>) {
    let name = source.name.clone();
    let last_error;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if attempt > 1 {
            counters.retries.fetch_add(1, Ordering::Relaxed);
            recorder.add_counter("migrate.batch.retries", 1);
            clock.advance(cfg.retry.delay_after(attempt - 1, &name));
        }
        match attempt_design(
            migrator, source, target, attempt, cfg, clock, counters, recorder,
        ) {
            DesignAttempt::Ok(outcome, text) => {
                return (DesignResult::Migrated(outcome), Some(text));
            }
            DesignAttempt::Failed { error, retryable } => {
                if !retryable || !cfg.retry.may_retry(attempt) {
                    last_error = error;
                    break;
                }
            }
        }
    }
    recorder.add_counter("migrate.batch.quarantined", 1);
    // A corrupt-output fault is detected only *after* the pipeline ran
    // and cached its (genuinely computed, but now untrusted) result —
    // a quarantined design must never be served warm.
    if let Some(cache) = migrator.cache() {
        cache.purge_design(interop_core::hash::hash_of(source));
        recorder.add_counter("migrate.cache.purge", 1);
    }
    obs::event(
        recorder,
        "migrate.batch.quarantine",
        &[
            ("design", AttrValue::Str(name.clone())),
            ("attempts", AttrValue::Int(attempt as i64)),
            ("error", AttrValue::Str(last_error.clone())),
        ],
    );
    (
        DesignResult::Quarantined(QuarantineEntry {
            index,
            name,
            attempts: attempt,
            error: last_error,
        }),
        None,
    )
}

/// Fault-tolerant batch migration with quarantine and
/// checkpoint/resume.
///
/// Every design is migrated under panic isolation and the configured
/// [`RetryPolicy`]; designs that exhaust their budget land on the
/// quarantine list while the rest of the batch completes — healthy
/// designs' outputs are byte-identical to a fault-free run. Progress is
/// recorded into `checkpoint` as designs finish, and a batch restarted
/// with that checkpoint resumes where it left off: finished designs
/// are restored from their serialized outputs without re-running the
/// pipeline.
///
/// Observability mirrors [`migrate_batch_recorded`], whose fan-out and
/// worker telemetry this driver shares (a design left undone by
/// [`ResilientConfig::abort_after`] still counts as a job taken), plus
/// counters `migrate.batch.retries` / `migrate.batch.timeouts` /
/// `migrate.batch.panics` / `migrate.batch.faults.injected` /
/// `migrate.batch.quarantined` / `migrate.batch.restored` and a
/// `migrate.batch.quarantine` event per poisoned design.
///
/// A panic that escapes the per-attempt isolation (from the recorder,
/// say) costs only the design it struck, which comes back
/// [`DesignResult::Skipped`].
///
/// # Errors
///
/// Fails with [`CheckpointError::FingerprintMismatch`] when
/// `checkpoint` was recorded for a different design set, target, or
/// stage pipeline.
pub fn migrate_batch_resilient(
    migrator: &Migrator,
    sources: &[Design],
    target: DialectId,
    cfg: &ResilientConfig,
    checkpoint: &mut Checkpoint,
    recorder: &dyn Recorder,
) -> Result<ResilientReport, CheckpointError> {
    let names: Vec<&str> = sources.iter().map(|d| d.name.as_str()).collect();
    let stage_names: Vec<&str> = migrator.stage_ids().iter().map(|s| s.name()).collect();
    let fingerprint = batch_fingerprint(&names, target, &stage_names);
    if checkpoint.is_empty() && checkpoint.fingerprint == 0 {
        checkpoint.fingerprint = fingerprint;
    } else if checkpoint.fingerprint != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: fingerprint,
            found: checkpoint.fingerprint,
        });
    }

    let batch_span = Span::enter(recorder, "migrate.batch");
    batch_span.attr("designs", sources.len());
    batch_span.attr("threads", cfg.threads);
    batch_span.attr("resilient", 1usize);
    recorder.add_counter("migrate.batch.designs", sources.len() as u64);

    let clock = VirtualClock::new();
    let counters = ChaosCounters::default();
    let mut report = ResilientReport::default();
    let mut slots: Vec<Option<DesignResult>> = Vec::new();
    slots.resize_with(sources.len(), || None);

    // Resume: rehydrate finished designs from the checkpoint. An entry
    // that no longer parses is dropped and its design re-migrated.
    for (index, slot) in slots.iter_mut().enumerate() {
        if let Some(design) = checkpoint.restore(index, target) {
            *slot = Some(DesignResult::Restored(design));
            report.restored += 1;
            recorder.add_counter("migrate.batch.restored", 1);
        }
    }

    let jobs: Vec<usize> = (0..sources.len()).filter(|&i| slots[i].is_none()).collect();
    let finished_cap = cfg.abort_after.unwrap_or(usize::MAX);
    let finished = AtomicUsize::new(0);
    let done = fan_out(cfg.threads, jobs.len(), recorder, |pos| {
        // Simulated kill: once the abort budget is spent, the remaining
        // designs are left undone.
        if finished.load(Ordering::SeqCst) >= finished_cap {
            return None;
        }
        let index = jobs[pos];
        let (result, text) = panic::catch_unwind(AssertUnwindSafe(|| {
            migrate_with_retry(
                migrator,
                index,
                &sources[index],
                target,
                cfg,
                &clock,
                &counters,
                recorder,
            )
        }))
        .ok()?;
        finished.fetch_add(1, Ordering::SeqCst);
        Some((index, result, text))
    });

    for (index, result, text) in done.into_iter().flatten() {
        match &result {
            DesignResult::Migrated(outcome) => {
                report.executed += 1;
                if let Some(text) = text {
                    checkpoint.record(index, outcome.design.name.clone(), text);
                }
            }
            DesignResult::Quarantined(q) => report.quarantined.push(q.clone()),
            DesignResult::Restored(_) | DesignResult::Skipped => {}
        }
        slots[index] = Some(result);
    }

    report.results = slots
        .into_iter()
        .map(|s| s.unwrap_or(DesignResult::Skipped))
        .collect();
    report.skipped = report
        .results
        .iter()
        .filter(|r| matches!(r, DesignResult::Skipped))
        .count();
    report.quarantined.sort_by_key(|q| q.index);
    report.retries = counters.retries.load(Ordering::Relaxed);
    report.faults_injected = counters.faults.load(Ordering::Relaxed);
    report.virtual_ticks = clock.now();
    batch_span.attr("quarantined", report.quarantined.len());
    batch_span.attr("restored", report.restored);
    batch_span.attr("skipped", report.skipped);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic::gen::{generate, GenConfig};

    fn designs(n: u64) -> Vec<Design> {
        (0..n)
            .map(|seed| {
                generate(&GenConfig {
                    seed,
                    ..GenConfig::default()
                })
            })
            .collect()
    }

    #[test]
    fn batch_output_is_byte_identical_to_sequential() {
        let sources = designs(9);
        let migrator = Migrator::default();
        let sequential: Vec<String> = sources
            .iter()
            .map(|d| schematic::cascade::write(&migrator.migrate(d, DialectId::Cascade).design))
            .collect();
        for threads in [2, 4, 8] {
            let outcomes = migrate_batch(
                &migrator,
                &sources,
                DialectId::Cascade,
                &BatchConfig::with_threads(threads),
            );
            let parallel: Vec<String> = outcomes
                .iter()
                .map(|o| schematic::cascade::write(&o.design))
                .collect();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn recorder_sees_every_design_and_stage_span() {
        use obs::{AttrValue, TraceRecorder};

        let sources = designs(6);
        let migrator = Migrator::default();
        // Both drivers share one fan-out, so they emit the same worker
        // spans and counters at every thread count.
        for threads in [1, 3] {
            for resilient in [false, true] {
                let recorder = TraceRecorder::new();
                let migrated = if resilient {
                    let report = migrate_batch_resilient(
                        &migrator,
                        &sources,
                        DialectId::Cascade,
                        &ResilientConfig::with_threads(threads),
                        &mut Checkpoint::default(),
                        &recorder,
                    )
                    .expect("fresh checkpoint");
                    report.executed
                } else {
                    migrate_batch_recorded(
                        &migrator,
                        &sources,
                        DialectId::Cascade,
                        &BatchConfig::with_threads(threads),
                        &recorder,
                    )
                    .len()
                };
                let case = format!("threads={threads} resilient={resilient}");
                assert_eq!(migrated, 6, "{case}");
                assert_eq!(recorder.span_count("migrate.batch"), 1, "{case}");
                assert_eq!(recorder.span_count("migrate.pipeline"), 6, "{case}");
                assert_eq!(recorder.counter("migrate.batch.designs"), 6, "{case}");
                for id in migrator.stage_ids() {
                    assert_eq!(
                        recorder.span_count(&format!("migrate.stage.{}", id.name())),
                        6,
                        "stage {} should run once per design ({case})",
                        id.name()
                    );
                }

                let spans = recorder.finished_spans();
                let batch = spans.iter().find(|s| s.name == "migrate.batch").unwrap();
                let workers: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == "migrate.batch.worker")
                    .collect();
                assert_eq!(workers.len(), threads, "{case}");
                let uint = |span: &obs::TraceSpan, key: &str| match span.attr(key) {
                    Some(AttrValue::UInt(n)) => *n,
                    other => panic!("worker span {key} = {other:?} ({case})"),
                };
                let mut jobs = 0;
                let mut steals = 0;
                for worker in &workers {
                    assert_eq!(worker.parent, Some(batch.id), "{case}");
                    uint(worker, "worker");
                    jobs += uint(worker, "jobs");
                    steals += uint(worker, "steals");
                }
                assert_eq!(jobs, 6, "{case}");
                assert_eq!(steals, recorder.counter("migrate.batch.steals"), "{case}");
                let depth = recorder.histogram("migrate.batch.queue_depth");
                assert_eq!(depth.map(|h| h.count), Some(6), "{case}");
            }
        }
    }

    #[test]
    fn eight_thread_batch_attributes_spans_to_the_right_design() {
        use obs::{AttrValue, TraceRecorder};
        use std::collections::BTreeMap;

        let sources = designs(12);
        let migrator = Migrator::default();
        let sequential: Vec<String> = sources
            .iter()
            .map(|d| schematic::cascade::write(&migrator.migrate(d, DialectId::Cascade).design))
            .collect();

        let recorder = TraceRecorder::new();
        let outcomes = migrate_batch_recorded(
            &migrator,
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(8),
            &recorder,
        );

        // Tracing must not perturb results: byte-identical to sequential.
        let parallel: Vec<String> = outcomes
            .iter()
            .map(|o| schematic::cascade::write(&o.design))
            .collect();
        assert_eq!(parallel, sequential);

        let spans = recorder.finished_spans();
        let by_id: BTreeMap<_, _> = spans.iter().map(|s| (s.id, s)).collect();
        let batch = spans
            .iter()
            .find(|s| s.name == "migrate.batch")
            .expect("batch span recorded");

        // Every worker span hangs off the batch span (cross-thread
        // handoff), and every pipeline span hangs off a worker span.
        let workers: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "migrate.batch.worker")
            .collect();
        assert_eq!(workers.len(), 8);
        for w in &workers {
            assert_eq!(w.parent, Some(batch.id));
        }

        // Key every stage span on the design-name attribute: it must
        // match the design attribute of its parent pipeline span, and
        // each design must get a full complement of stage spans.
        let mut stages_per_design: BTreeMap<String, usize> = BTreeMap::new();
        let stage_count = migrator.stage_ids().len();
        let mut checked = 0usize;
        for stage in spans
            .iter()
            .filter(|s| s.name.starts_with("migrate.stage."))
        {
            let design = match stage.attr("design") {
                Some(AttrValue::Str(name)) => name.clone(),
                other => panic!("stage span missing design attr: {other:?}"),
            };
            let pipeline = by_id[&stage.parent.expect("stage span has a parent")];
            assert_eq!(pipeline.name, "migrate.pipeline");
            assert_eq!(
                pipeline.attr("design"),
                Some(&AttrValue::Str(design.clone())),
                "stage span attributed to the wrong design's pipeline"
            );
            let worker = by_id[&pipeline.parent.expect("pipeline span has a parent")];
            assert_eq!(worker.name, "migrate.batch.worker");
            *stages_per_design.entry(design).or_default() += 1;
            checked += 1;
        }
        assert_eq!(checked, sources.len() * stage_count);
        for source in &sources {
            assert_eq!(
                stages_per_design.get(&source.name),
                Some(&stage_count),
                "design {} missing stage spans",
                source.name
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let outcomes = migrate_batch(
            &Migrator::default(),
            &[],
            DialectId::Cascade,
            &BatchConfig::default(),
        );
        assert!(outcomes.is_empty());
    }

    #[test]
    fn more_threads_than_designs_clamps() {
        let sources = designs(2);
        let outcomes = migrate_batch(
            &Migrator::default(),
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(16),
        );
        assert_eq!(outcomes.len(), 2);
    }
}
