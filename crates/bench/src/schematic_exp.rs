//! Experiments E-FIG1 and E-S2-MIG: Figure 1 component replacement and
//! the full Section 2 migration pipeline.

use migrate::{presets, MigrationConfig, Migrator, RerouteStrategy, StageId};
use schematic::design::Design;
use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};

/// One strategy's Figure 1 measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplaceRow {
    /// Wire segments ripped up.
    pub ripped: usize,
    /// Jogs inserted.
    pub jogs: usize,
    /// Graphical similarity to the pre-replacement schematic `[0,1]`.
    pub similarity: f64,
}

/// One Figure 1 data point.
#[derive(Debug, Clone, Default)]
pub struct Fig1Row {
    /// Gates per page in the workload.
    pub gates: usize,
    /// Components replaced.
    pub replaced: usize,
    /// Pins whose position moved.
    pub pins_moved: usize,
    /// Minimized rip-up (the paper's approach).
    pub minimal: ReplaceRow,
    /// Naive full-redraw baseline.
    pub naive: ReplaceRow,
}

/// Runs the Figure 1 experiment for one workload size.
///
/// The design is scaled to the Cascade grid first (so replacement is
/// apples-to-apples), then mapped components are replaced under both
/// reroute strategies; rip-up counts and graphical similarity to the
/// pre-replacement schematic are measured.
pub fn fig1_component_replacement(gates: usize, pin_shift: i64) -> Fig1Row {
    let source = generate(&GenConfig {
        gates_per_page: gates,
        pages: 1,
        depth: 0,
        ..GenConfig::default()
    });
    // Scale only (plus target libraries), no replacement yet.
    let mut cfg = presets::exar_style_config(4, pin_shift);
    cfg.skip_stages = vec![
        StageId::Symbols,
        StageId::Props,
        StageId::Callbacks,
        StageId::Bus,
        StageId::Connectors,
        StageId::Globals,
        StageId::Text,
    ];
    let entries = cfg.symbol_map.clone();
    let target_libs = cfg.target_libraries.clone();
    let scaled = Migrator::new(cfg)
        .migrate(&source, DialectId::Cascade)
        .design;
    let mut baseline = scaled.clone();
    for lib in &target_libs {
        baseline.add_library(lib.clone());
    }

    let mut minimal_design = baseline.clone();
    let min_out =
        migrate::replace_components(&mut minimal_design, &entries, RerouteStrategy::MinimalRipUp);
    let mut naive_design = baseline.clone();
    let naive_out =
        migrate::replace_components(&mut naive_design, &entries, RerouteStrategy::FullRedraw);

    Fig1Row {
        gates,
        replaced: min_out.replaced,
        pins_moved: min_out.pins_moved,
        minimal: ReplaceRow {
            ripped: min_out.segments_ripped,
            jogs: min_out.jogs_added,
            similarity: migrate::similarity(&baseline, &minimal_design),
        },
        naive: ReplaceRow {
            ripped: naive_out.segments_ripped,
            jogs: naive_out.jogs_added,
            similarity: migrate::similarity(&baseline, &naive_design),
        },
    }
}

/// Renders the Figure 1 table.
pub fn fig1_table(rows: &[Fig1Row]) -> String {
    let mut s = String::from("E-FIG1 component replacement (minimized rip-up vs full redraw)\n");
    s.push_str(&format!(
        "{:>6} {:>9} {:>6} | {:>7} {:>5} {:>6} | {:>7} {:>5} {:>6}\n",
        "gates", "replaced", "moved", "rip", "jogs", "sim", "rip", "jogs", "sim"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:>6} {:>9} {:>6} | {:>7} {:>5} {:>6.3} | {:>7} {:>5} {:>6.3}\n",
            r.gates,
            r.replaced,
            r.pins_moved,
            r.minimal.ripped,
            r.minimal.jogs,
            r.minimal.similarity,
            r.naive.ripped,
            r.naive.jogs,
            r.naive.similarity
        ));
    }
    s
}

/// One migration-pipeline data point.
#[derive(Debug, Clone, Default)]
pub struct MigrationRow {
    /// Gates per page.
    pub gates: usize,
    /// Pages per cell.
    pub pages: u32,
    /// Hierarchy depth.
    pub depth: usize,
    /// Objects touched per stage `(stage, touched, created, renamed)`.
    pub stages: Vec<(String, usize, usize, usize)>,
    /// True when the migration verified cleanly.
    pub verified: bool,
    /// Unresolved issues.
    pub issues: usize,
    /// Netlist diff count (0 when verified).
    pub diffs: usize,
}

/// Runs the full migration pipeline and independent verification.
pub fn migration_pipeline(gates: usize, pages: u32, depth: usize) -> MigrationRow {
    let source = generate(&GenConfig {
        gates_per_page: gates,
        pages,
        depth,
        ..GenConfig::default()
    });
    let migrator = Migrator::new(presets::exar_style_config(4, 10));
    let (outcome, verdict) = migrator
        .migrate_and_verify(&source, DialectId::Cascade)
        .expect("valid config");
    MigrationRow {
        gates,
        pages,
        depth,
        stages: outcome
            .report
            .stages
            .iter()
            .map(|(id, st)| (id.name().to_string(), st.touched, st.created, st.renamed))
            .collect(),
        verified: verdict.is_verified(),
        issues: outcome.report.issue_count(),
        diffs: verdict.compare.diffs.len(),
    }
}

/// The per-stage ablation: disable one stage at a time and record
/// whether verification still passes.
pub fn migration_ablation(gates: usize) -> Vec<(String, bool)> {
    let source = generate(&GenConfig {
        gates_per_page: gates,
        ..GenConfig::default()
    });
    let mut out = Vec::new();
    for stage in StageId::ALL {
        let mut cfg = presets::exar_style_config(4, 0);
        cfg.skip_stages = vec![stage];
        // Skipping scale makes symbol replacement mix grids; skip both
        // for that ablation, as a user would.
        if stage == StageId::Scale {
            cfg.skip_stages.push(StageId::Symbols);
        }
        let migrator = Migrator::new(cfg);
        let (_, verdict) = migrator
            .migrate_and_verify(&source, DialectId::Cascade)
            .expect("valid config");
        out.push((format!("skip-{}", stage.name()), verdict.is_verified()));
    }
    out
}

/// A verification workload in the load benchmark's migration size mix:
/// `n` seeded Viewstar designs (every fifth 32 gates × 8 pages at depth
/// 2, the rest 16 × 4 at depth 1), each paired with its Cascade
/// migration under the preset configuration, which is returned too.
pub fn verify_mix(n: usize) -> (MigrationConfig, Vec<(Design, Design)>) {
    let config = presets::exar_style_config(4, 0);
    let migrator = Migrator::new(config.clone());
    let pairs = (0..n)
        .map(|slot| {
            let (gates, pages, depth) = if slot % 5 == 4 {
                (32, 8, 2)
            } else {
                (16, 4, 1)
            };
            let source = generate(
                &GenConfig::builder()
                    .seed(1000 + slot as u64)
                    .gates_per_page(gates)
                    .pages(pages)
                    .depth(depth)
                    .bus_width(4)
                    .build()
                    .expect("valid generator config"),
            );
            let target = migrator.migrate(&source, DialectId::Cascade).design;
            (source, target)
        })
        .collect();
    (config, pairs)
}

/// Renders the migration tables.
pub fn migration_table(rows: &[MigrationRow], ablation: &[(String, bool)]) -> String {
    let mut s = String::from("E-S2-MIG migration pipeline (verification per workload)\n");
    s.push_str(&format!(
        "{:>6} {:>6} {:>6} {:>9} {:>7} {:>6}\n",
        "gates", "pages", "depth", "verified", "issues", "diffs"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:>6} {:>6} {:>6} {:>9} {:>7} {:>6}\n",
            r.gates, r.pages, r.depth, r.verified, r.issues, r.diffs
        ));
    }
    s.push_str("\nE-S2-MIG ablation (one stage disabled at a time)\n");
    s.push_str(&format!("{:<18} {:>9}\n", "config", "verified"));
    for (name, ok) in ablation {
        s.push_str(&format!("{:<18} {:>9}\n", name, ok));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_minimal_beats_naive() {
        let row = fig1_component_replacement(12, 10);
        assert!(row.replaced > 0);
        assert!(row.minimal.ripped <= row.naive.ripped);
        assert!(row.minimal.similarity >= row.naive.similarity);
    }

    #[test]
    fn pipeline_verifies_and_ablations_fail() {
        let row = migration_pipeline(8, 2, 1);
        assert!(row.verified, "diffs: {}", row.diffs);
        let ablation = migration_ablation(8);
        // Text/props/callbacks are cosmetic for connectivity; the
        // structural stages must break verification when skipped.
        let must_fail = ["skip-scale", "skip-bus", "skip-connectors"];
        for (name, ok) in &ablation {
            if must_fail.contains(&name.as_str()) {
                assert!(!ok, "{name} should break verification");
            }
        }
        assert!(
            ablation.iter().any(|(_, ok)| *ok),
            "some stages are cosmetic"
        );
    }
}
