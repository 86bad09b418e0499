//! Self-tests of the benchmark: determinism, correctness of tiny runs,
//! metric names and the percentile reporting rule.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use loadbench::driver::{closed_loop, END_TO_END, PER_LAYER};
use loadbench::layers::{CounterRecorder, LayerRecorder};
use loadbench::migrate_load::{MigrateLoad, Mode};
use loadbench::race_load::RaceLoad;
use loadbench::stats::percentile;
use loadbench::{Load, WorkloadKind};
use obs::NullRecorder;

/// Cache budget of the tiny migrate workloads: a library of a handful
/// of designs.
const TINY_CACHE: usize = 1 << 20;
const TINY_POOL: usize = 8;

fn tiny(kind: WorkloadKind, seed: u64) -> Load {
    match kind {
        WorkloadKind::MigrateCold => Load::Migrate(Box::new(
            MigrateLoad::build(Mode::Cold, seed, 2, 2 * TINY_CACHE, TINY_CACHE).unwrap(),
        )),
        WorkloadKind::MigrateIncremental => Load::Migrate(Box::new(
            MigrateLoad::build(Mode::Incremental, seed, 2, 2 * TINY_CACHE, TINY_CACHE).unwrap(),
        )),
        WorkloadKind::RaceSweep => Load::Race(RaceLoad::build(seed, 2, TINY_POOL).unwrap()),
    }
}

#[test]
fn same_seed_gives_same_requests_and_outputs() {
    for kind in WorkloadKind::ALL {
        let (a, b, other) = (tiny(kind, 5), tiny(kind, 5), tiny(kind, 6));
        let list = |load: &Load| (0..40).map(|i| load.describe(i)).collect::<Vec<_>>();
        assert_eq!(list(&a), list(&b), "{kind}: request list");
        assert_ne!(list(&a), list(&other), "{kind}: the seed must matter");
        let digests = |load: &Load| {
            (0..12)
                .map(|i| load.serve(i, &NullRecorder).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&a), digests(&b), "{kind}: output digests");
    }
}

#[test]
fn tiny_runs_have_no_failures() {
    for kind in WorkloadKind::ALL {
        let load = tiny(kind, 9);
        let next = AtomicU64::new(0);
        for traced in [false, true] {
            let phase = closed_loop(&load, &next, Duration::from_millis(300), 0, traced);
            assert!(phase.attempted > 0, "{kind}: no request completed");
            assert_eq!(phase.failed, 0, "{kind}: {:?}", phase.errors);
        }
    }
}

#[test]
fn traced_layers_and_simulated_counts_repeat() {
    let load = tiny(WorkloadKind::MigrateIncremental, 3);
    let rec = LayerRecorder::new();
    for i in 0..20 {
        load.serve(i, &rec).unwrap();
    }
    for layer in [
        "schematic.viewstar_parse",
        "migrate.migrate",
        "migrate.cache.lookup",
        "migrate.verify",
        "schematic.cascade_write",
    ] {
        assert_eq!(rec.span(layer).count, 20, "{layer}");
    }
    let migrate = rec.span("migrate.migrate");
    assert!(migrate.self_ns < migrate.total_ns);

    let race = RaceLoad::build(3, 2, TINY_POOL).unwrap();
    let counts = || {
        let counts = Arc::new(CounterRecorder::default());
        let replay = race.replay(&LayerRecorder::new(), &counts).unwrap();
        assert_eq!(replay.requests, TINY_POOL as u64);
        (counts.events(), counts.delta_cycles())
    };
    let first = counts();
    assert!(first.0 > 0 && first.1 > 0);
    assert_eq!(first, counts());
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let manifest = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "bad metric name {name}"
        );
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) is not declared in BENCHMARK.json"
        );
    }
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    assert_eq!(percentile(&samples(999), 99.0), None);
    let p = percentile(&samples(1000), 99.0).unwrap();
    assert_eq!((p.value, p.samples, p.beyond), (990.0, 1000, 10));
    assert_eq!(percentile(&samples(19), 50.0), None);
    assert_eq!(percentile(&samples(20), 50.0).unwrap().value, 10.0);
}
