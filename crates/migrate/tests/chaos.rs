//! Chaos tests for the resilient batch migrator: quarantine, byte
//! identity for healthy designs, positioned parse errors from corrupted
//! output, and checkpoint/resume after a simulated kill.

use std::time::Duration;

use migrate::batch::{
    migrate_batch, migrate_batch_resilient, BatchConfig, DesignResult, ResilientConfig,
};
use migrate::checkpoint::{Checkpoint, CheckpointError};
use migrate::{FaultKind, FaultPlan, Migrator, RetryPolicy};
use obs::{MemoryRecorder, NullRecorder, Recorder};
use proptest::prelude::*;
use schematic::design::Design;
use schematic::dialect::DialectId;
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

/// Fault-free reference output: the canonical text of every design.
fn reference(migrator: &Migrator, sources: &[Design]) -> Vec<String> {
    migrate_batch(
        migrator,
        sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(1),
    )
    .iter()
    .map(|o| schematic::cascade::write(&o.design))
    .collect()
}

#[test]
fn poison_design_is_quarantined_and_healthy_designs_stay_byte_identical() {
    let sources = designs(8);
    let migrator = Migrator::default();
    let clean = reference(&migrator, &sources);
    let poison = sources[3].name.clone();

    for threads in [1, 8] {
        let cfg = ResilientConfig {
            threads,
            retry: RetryPolicy::with_attempts(3).base_delay(1),
            fault_plan: FaultPlan::seeded(11).with_fault(
                poison.clone(),
                ..,
                FaultKind::PersistentError,
            ),
            timeout_ticks: None,
            abort_after: None,
        };
        let mut cp = Checkpoint::default();
        let report = migrate_batch_resilient(
            &migrator,
            &sources,
            DialectId::Cascade,
            &cfg,
            &mut cp,
            &NullRecorder,
        )
        .expect("fingerprint binds");

        assert!(report.is_settled());
        assert_eq!(report.quarantined.len(), 1, "threads={threads}");
        let q = &report.quarantined[0];
        assert_eq!(q.index, 3);
        assert_eq!(q.name, poison);
        // Persistent poison quarantines on the first attempt.
        assert_eq!(q.attempts, 1);
        assert!(q.error.contains("persistent"), "{}", q.error);
        // Every healthy design's output matches the fault-free run.
        for (i, r) in report.results.iter().enumerate() {
            if i == 3 {
                assert!(r.is_quarantined());
                assert!(cp.restore(i, DialectId::Cascade).is_none());
            } else {
                let d = r.design().expect("healthy design");
                assert_eq!(
                    schematic::cascade::write(d),
                    clean[i],
                    "threads={threads} design={i}"
                );
            }
        }
    }
}

#[test]
fn corrupt_output_surfaces_a_positioned_parse_error_at_1_and_8_threads() {
    let sources = designs(6);
    let migrator = Migrator::default();
    let victim = sources[2].name.clone();

    for threads in [1, 8] {
        let cfg = ResilientConfig {
            threads,
            // Single attempt so the parse error is the final verdict.
            retry: RetryPolicy::with_attempts(1),
            fault_plan: FaultPlan::seeded(5).with_fault(
                victim.clone(),
                ..,
                FaultKind::CorruptOutput,
            ),
            timeout_ticks: None,
            abort_after: None,
        };
        let mut cp = Checkpoint::default();
        let report = migrate_batch_resilient(
            &migrator,
            &sources,
            DialectId::Cascade,
            &cfg,
            &mut cp,
            &NullRecorder,
        )
        .expect("runs");
        assert_eq!(report.quarantined.len(), 1, "threads={threads}");
        let q = &report.quarantined[0];
        assert_eq!(q.name, victim);
        // The corrupted artifact was *parsed*, not trusted: the error
        // is a positioned ParseError rendered with line/column, never a
        // panic.
        assert!(
            q.error.contains("parse error at line"),
            "threads={threads}: {}",
            q.error
        );
    }
}

#[test]
fn truncated_output_is_also_caught_by_reparsing() {
    let sources = designs(4);
    let migrator = Migrator::default();
    let victim = sources[1].name.clone();
    let cfg = ResilientConfig {
        threads: 2,
        retry: RetryPolicy::with_attempts(1),
        fault_plan: FaultPlan::seeded(9).with_fault(victim, .., FaultKind::TruncateOutput),
        timeout_ticks: None,
        abort_after: None,
    };
    let mut cp = Checkpoint::default();
    let report = migrate_batch_resilient(
        &migrator,
        &sources,
        DialectId::Cascade,
        &cfg,
        &mut cp,
        &NullRecorder,
    )
    .expect("runs");
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].error.contains("parse error"),
        "{}",
        report.quarantined[0].error
    );
}

#[test]
fn transient_faults_retry_to_a_clean_batch() {
    let sources = designs(6);
    let migrator = Migrator::default();
    let clean = reference(&migrator, &sources);
    // Every design panics on attempt 1 and corrupts on attempt 2; the
    // third attempt runs clean.
    let mut plan = FaultPlan::seeded(3);
    for d in &sources {
        plan = plan
            .with_fault(d.name.clone(), 1..=1, FaultKind::Panic)
            .with_fault(d.name.clone(), 2..=2, FaultKind::CorruptOutput);
    }
    let recorder = MemoryRecorder::new();
    let cfg = ResilientConfig {
        threads: 4,
        retry: RetryPolicy::with_attempts(3).base_delay(2),
        fault_plan: plan,
        timeout_ticks: None,
        abort_after: None,
    };
    let mut cp = Checkpoint::default();
    let report = migrate_batch_resilient(
        &migrator,
        &sources,
        DialectId::Cascade,
        &cfg,
        &mut cp,
        &recorder,
    )
    .expect("runs");

    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.retries, 12, "two retries per design");
    assert_eq!(report.faults_injected, 12);
    assert_eq!(recorder.counter("migrate.batch.panics"), 6);
    assert_eq!(recorder.counter("migrate.batch.retries"), 12);
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(
            schematic::cascade::write(r.design().expect("healthy")),
            clean[i]
        );
    }
    // The checkpoint holds every design, byte-identical.
    assert_eq!(cp.len(), 6);
    for (i, text) in clean.iter().enumerate() {
        assert_eq!(&cp.entries[&i].text, text);
    }
}

#[test]
fn killed_batch_resumes_from_checkpoint_without_rerunning_finished_designs() {
    let sources = designs(10);
    let migrator = Migrator::default();
    let clean = reference(&migrator, &sources);

    // First run: the "kill switch" stops the batch after 4 designs.
    let kill_cfg = ResilientConfig {
        threads: 2,
        retry: RetryPolicy::with_attempts(2).base_delay(1),
        fault_plan: FaultPlan::none(),
        timeout_ticks: None,
        abort_after: Some(4),
    };
    let mut cp = Checkpoint::default();
    let first = migrate_batch_resilient(
        &migrator,
        &sources,
        DialectId::Cascade,
        &kill_cfg,
        &mut cp,
        &NullRecorder,
    )
    .expect("runs");
    assert!(first.skipped > 0, "the kill must leave work undone");
    assert!(!first.is_settled());
    let finished_first = first.executed;
    assert_eq!(cp.len(), finished_first);

    // The snapshot survives serialization (crash = process death).
    let snapshot = cp.to_text();
    let mut restored = Checkpoint::parse(&snapshot).expect("snapshot parses");

    // Second run resumes: finished designs come back from the
    // checkpoint, only the remainder executes.
    let resume_cfg = ResilientConfig {
        threads: 2,
        retry: RetryPolicy::with_attempts(2).base_delay(1),
        fault_plan: FaultPlan::none(),
        timeout_ticks: None,
        abort_after: None,
    };
    let recorder = MemoryRecorder::new();
    let second = migrate_batch_resilient(
        &migrator,
        &sources,
        DialectId::Cascade,
        &resume_cfg,
        &mut restored,
        &recorder,
    )
    .expect("fingerprint matches");

    assert!(second.is_settled());
    assert_eq!(second.restored, finished_first);
    assert_eq!(second.executed, sources.len() - finished_first);
    // "Without redoing finished designs": the pipeline ran exactly once
    // per *remaining* design.
    assert_eq!(
        recorder.span_count("migrate.pipeline"),
        sources.len() - finished_first
    );
    assert_eq!(
        recorder.counter("migrate.batch.restored"),
        finished_first as u64
    );
    // And the union is byte-identical to the fault-free run.
    for (i, r) in second.results.iter().enumerate() {
        assert_eq!(
            schematic::cascade::write(r.design().expect("healthy")),
            clean[i],
            "design {i}"
        );
    }
    assert_eq!(restored.len(), sources.len());
}

/// Panics when a design is quarantined. That counter is bumped after
/// the retry loop, outside the per-attempt panic isolation.
struct PanicsOnQuarantine;

impl Recorder for PanicsOnQuarantine {
    fn record_span(&self, _name: &str, _duration: Duration) {}
    fn add_counter(&self, name: &str, _delta: u64) {
        if name == "migrate.batch.quarantined" {
            panic!("recorder failed on {name}");
        }
    }
    fn record_value(&self, _name: &str, _value: u64) {}
}

#[test]
fn a_panic_outside_attempt_isolation_costs_only_its_own_design() {
    let sources = designs(6);
    let migrator = Migrator::default();
    let clean = reference(&migrator, &sources);
    let poison = 2;

    for threads in [1, 2] {
        let cfg = ResilientConfig {
            threads,
            retry: RetryPolicy::with_attempts(2).base_delay(1),
            fault_plan: FaultPlan::seeded(3).with_fault(
                sources[poison].name.clone(),
                ..,
                FaultKind::PersistentError,
            ),
            timeout_ticks: None,
            abort_after: None,
        };
        let mut cp = Checkpoint::default();
        let report = migrate_batch_resilient(
            &migrator,
            &sources,
            DialectId::Cascade,
            &cfg,
            &mut cp,
            &PanicsOnQuarantine,
        )
        .expect("runs");

        assert!(matches!(report.results[poison], DesignResult::Skipped));
        assert_eq!(report.skipped, 1, "threads={threads}");
        assert_eq!(report.executed, sources.len() - 1, "threads={threads}");
        assert_eq!(cp.len(), sources.len() - 1, "threads={threads}");
        for (i, result) in report.results.iter().enumerate() {
            if i == poison {
                continue;
            }
            let DesignResult::Migrated(outcome) = result else {
                panic!("design {i} at threads={threads}: {result:?}");
            };
            assert_eq!(schematic::cascade::write(&outcome.design), clean[i]);
            let saved = cp.restore(i, DialectId::Cascade).expect("checkpointed");
            assert_eq!(schematic::cascade::write(&saved), clean[i]);
        }
    }
}

#[test]
fn checkpoint_from_a_different_batch_is_rejected() {
    let sources = designs(3);
    let migrator = Migrator::default();
    let mut cp = Checkpoint::default();
    migrate_batch_resilient(
        &migrator,
        &sources,
        DialectId::Cascade,
        &ResilientConfig::with_threads(1),
        &mut cp,
        &NullRecorder,
    )
    .expect("runs");

    // Same checkpoint, different design set: fingerprint mismatch.
    let other = designs(4);
    let err = migrate_batch_resilient(
        &migrator,
        &other,
        DialectId::Cascade,
        &ResilientConfig::with_threads(1),
        &mut cp,
        &NullRecorder,
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
    assert!(err.to_string().contains("different batch"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded background chaos with a patient retry budget: the batch
    /// always settles, quarantine only ever holds designs the plan
    /// actually faulted, and every healthy output is byte-identical to
    /// the fault-free run regardless of thread count.
    #[test]
    fn seeded_chaos_batches_settle_with_byte_identical_healthy_output(
        seed in 0u64..200,
        threads in prop::sample::select(vec![1usize, 8]),
    ) {
        let sources = designs(6);
        let migrator = Migrator::default();
        let clean = reference(&migrator, &sources);
        let plan = FaultPlan::seeded(seed).with_rate(30);
        let cfg = ResilientConfig {
            threads,
            retry: RetryPolicy::with_attempts(5).base_delay(1).jitter(seed),
            fault_plan: plan.clone(),
            timeout_ticks: Some(40),
            abort_after: None,
        };
        let mut cp = Checkpoint::default();
        let report = migrate_batch_resilient(
            &migrator,
            &sources,
            DialectId::Cascade,
            &cfg,
            &mut cp,
            &NullRecorder,
        )
        .expect("runs");

        prop_assert!(report.is_settled());
        for q in &report.quarantined {
            // A quarantined design must have drawn at least one fault.
            let faulted = (1..=5u32).any(|a| plan.fault_for(&q.name, a).is_some());
            prop_assert!(faulted, "{} quarantined without a fault", q.name);
        }
        for (i, r) in report.results.iter().enumerate() {
            if let Some(d) = r.design() {
                prop_assert_eq!(
                    schematic::cascade::write(d),
                    clean[i].clone(),
                    "seed={} threads={} design={}",
                    seed,
                    threads,
                    i
                );
            }
        }
    }
}
