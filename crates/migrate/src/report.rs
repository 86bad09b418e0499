//! Migration reporting.

use std::collections::BTreeMap;
use std::fmt;

use crate::config::StageId;

/// Per-stage counters collected during a migration run. This is the
/// value a [`crate::stage::Stage`] returns from `run`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Objects touched by the stage (instances, wires, labels...).
    pub touched: usize,
    /// Objects created (connectors, stub wires...).
    pub created: usize,
    /// Names rewritten.
    pub renamed: usize,
    /// Problems the stage could not resolve.
    pub issues: Vec<String>,
}

/// Former name of [`StageReport`], kept for compatibility with the old
/// stage-function API.
pub type StageStats = StageReport;

impl StageReport {
    /// Folds another report into this one: counters add, issues append
    /// in order.
    pub fn merge(&mut self, other: StageReport) {
        self.touched += other.touched;
        self.created += other.created;
        self.renamed += other.renamed;
        self.issues.extend(other.issues);
    }
}

/// The full migration report: the paper's goal was "a high degree of
/// automation with no manual post translation cleanup" — the report
/// quantifies exactly that.
#[derive(Debug, Clone, Default)]
pub struct MigrationReport {
    /// Stats per executed stage, in pipeline order.
    pub stages: BTreeMap<StageId, StageReport>,
    /// Stages skipped by configuration.
    pub skipped: Vec<StageId>,
}

impl MigrationReport {
    /// Mutable access to a stage's stats, creating the entry on first
    /// use.
    pub fn stage_mut(&mut self, stage: StageId) -> &mut StageReport {
        self.stages.entry(stage).or_default()
    }

    /// Total issue count across stages — zero means fully automatic
    /// translation.
    pub fn issue_count(&self) -> usize {
        self.stages.values().map(|s| s.issues.len()).sum()
    }

    /// True when no stage reported an unresolved problem.
    pub fn is_clean(&self) -> bool {
        self.issue_count() == 0
    }
}

impl fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "migration report:")?;
        for (stage, stats) in &self.stages {
            writeln!(
                f,
                "  {:<10} touched={:<5} created={:<4} renamed={:<4} issues={}",
                stage.name(),
                stats.touched,
                stats.created,
                stats.renamed,
                stats.issues.len()
            )?;
            for issue in &stats.issues {
                writeln!(f, "    ! {issue}")?;
            }
        }
        for s in &self.skipped {
            writeln!(f, "  {:<10} SKIPPED", s.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_formats() {
        let mut r = MigrationReport::default();
        r.stage_mut(StageId::Scale).touched = 10;
        r.stage_mut(StageId::Bus).renamed = 3;
        r.stage_mut(StageId::Bus).issues.push("collision".into());
        r.skipped.push(StageId::Text);
        assert_eq!(r.issue_count(), 1);
        assert!(!r.is_clean());
        let text = r.to_string();
        assert!(text.contains("scale"));
        assert!(text.contains("SKIPPED"));
        assert!(text.contains("! collision"));
    }

    #[test]
    fn merge_adds_counters_and_preserves_issue_order() {
        let mut a = StageReport {
            touched: 1,
            created: 2,
            renamed: 3,
            issues: vec!["first".into()],
        };
        a.merge(StageReport {
            touched: 10,
            created: 20,
            renamed: 30,
            issues: vec!["second".into()],
        });
        assert_eq!((a.touched, a.created, a.renamed), (11, 22, 33));
        assert_eq!(a.issues, vec!["first".to_string(), "second".to_string()]);
    }
}
