//! E-S2-MIG: the full migration pipeline plus per-stage ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use interop_bench::schematic_exp::{migration_ablation, migration_pipeline, verify_mix};
use migrate::verify::{normalize_source, verify};
use schematic::connectivity::extract_design;
use schematic::dialect::{DialectId, DialectRules};
use schematic::netlist::compare;

/// Designs per sample of the verifier benchmarks; divide a sample's time
/// by this for the cost per design.
const VERIFY_MIX: usize = 40;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("s2_migration_pipeline");
    g.sample_size(10);
    for (gates, pages, depth) in [(8usize, 2u32, 0usize), (12, 2, 1), (24, 3, 2)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("g{gates}p{pages}d{depth}")),
            &(gates, pages, depth),
            |b, &(g_, p, d)| b.iter(|| migration_pipeline(g_, p, d)),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("s2_migration_ablation");
    g.sample_size(10);
    g.bench_function("all-stage-skips", |b| b.iter(|| migration_ablation(8)));
    g.finish();

    // The independent verifier and its parts, one sample = the whole mix.
    let (config, pairs) = verify_mix(VERIFY_MIX);
    let src_rules = DialectRules::for_id(DialectId::Viewstar);
    let dst_rules = DialectRules::for_id(DialectId::Cascade);
    let src: Vec<_> = pairs
        .iter()
        .map(|(s, _)| extract_design(s, &src_rules).0)
        .collect();
    let dst: Vec<_> = pairs
        .iter()
        .map(|(_, t)| extract_design(t, &dst_rules).0)
        .collect();
    let normalized: Vec<_> = src.iter().map(|n| normalize_source(n, &config)).collect();
    let mut g = c.benchmark_group(format!("s2_verify_x{VERIFY_MIX}"));
    g.sample_size(9);
    g.bench_function("extract_source", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|(s, _)| extract_design(s, &src_rules))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("extract_target", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|(_, t)| extract_design(t, &dst_rules))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("normalize_source", |b| {
        b.iter(|| {
            src.iter()
                .map(|n| normalize_source(n, &config))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("compare", |b| {
        b.iter(|| {
            normalized
                .iter()
                .zip(&dst)
                .map(|(l, r)| compare(l, r))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("verify", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|(s, t)| verify(s, &src_rules, t, &dst_rules, &config))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
