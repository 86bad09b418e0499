//! Property-based tests for the migration engine's core guarantee:
//! parallel batch migration is an observably pure speedup. Whatever the
//! generated input fleet and whatever the thread count, the serialized
//! output is byte-identical to the sequential run.

use migrate::batch::{migrate_batch, BatchConfig};
use migrate::{presets, Migrator};
use proptest::prelude::*;
use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};

fn arb_fleet() -> impl Strategy<Value = Vec<schematic::design::Design>> {
    (1usize..7, 0u64..1000, 4usize..14, 1u32..4, 0usize..2).prop_map(
        |(count, seed0, gates, pages, depth)| {
            (0..count)
                .map(|i| {
                    let cfg = GenConfig::builder()
                        .seed(seed0 + i as u64)
                        .gates_per_page(gates)
                        .pages(pages)
                        .depth(depth)
                        .cross_page_nets(if pages >= 2 { 2 } else { 0 })
                        .build()
                        .expect("generated parameters are valid");
                    generate(&cfg)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_output_is_byte_identical_across_thread_counts(
        fleet in arb_fleet(),
        pin_shift in 0i64..12,
    ) {
        let migrator = Migrator::new(presets::exar_style_config(4, pin_shift));
        let reference: Vec<String> = fleet
            .iter()
            .map(|d| {
                schematic::cascade::write(&migrator.migrate(d, DialectId::Cascade).design)
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let outcomes = migrate_batch(
                &migrator,
                &fleet,
                DialectId::Cascade,
                &BatchConfig::with_threads(threads),
            );
            let written: Vec<String> = outcomes
                .iter()
                .map(|o| schematic::cascade::write(&o.design))
                .collect();
            prop_assert_eq!(&written, &reference, "threads={}", threads);
        }
    }

}
