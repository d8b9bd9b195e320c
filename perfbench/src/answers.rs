//! The scenario registry the benchmark runs, and the hand-written
//! answer table every verdict is checked against.
//!
//! The table is written from what each scenario is, not read back from
//! a run: every verified system passes, every mutant fails once the
//! fault sweeps are on, and three mutants carry bugs that only an
//! injected fault exposes, so they pass without the sweeps.

use perennial_checker::ScenarioSet;

/// The registry `scan` sweeps: 18 systems, then 28 mutants.
pub fn registry() -> ScenarioSet {
    let mut set = ScenarioSet::new();
    set.extend(perennial_kv::scenarios());
    set.extend(repldisk::harness::scenarios());
    set.extend(mailboat::scenarios());
    set.extend(crash_patterns::scenarios());
    set.extend(perennial_kv::mutant_scenarios());
    set.extend(repldisk::harness::mutant_scenarios());
    set.extend(mailboat::mutant_scenarios());
    set.extend(crash_patterns::mutant_scenarios());
    set
}

/// What a scenario's correct verdict is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A verified system: passes under every configuration.
    System,
    /// A mutant whose bug any exploration finds.
    Mutant,
    /// A mutant whose bug only a disk, torn-write or network fault
    /// sweep exposes: it passes when those sweeps are off.
    FaultOnlyMutant,
}

/// Every registry name with its answer.
pub const ANSWERS: &[(&str, Answer)] = &[
    ("kv/single-put", Answer::System),
    ("kv/cross-bucket", Answer::System),
    ("kv/same-bucket", Answer::System),
    ("kv/put-delete-get", Answer::System),
    ("repldisk/mixed", Answer::System),
    ("repldisk/single-write", Answer::System),
    ("repldisk/write-race", Answer::System),
    ("repldisk/failover", Answer::System),
    ("mailboat/single-deliver", Answer::System),
    ("mailboat/deliver-vs-pickup", Answer::System),
    ("mailboat/two-delivers", Answer::System),
    ("mailboat/two-users", Answer::System),
    ("mailboat/net-deliver", Answer::System),
    ("patterns/shadow", Answer::System),
    ("patterns/wal", Answer::System),
    ("patterns/txn-wal", Answer::System),
    ("patterns/group-commit", Answer::System),
    ("patterns/synced-log", Answer::System),
    ("kv/mutant/in-place", Answer::Mutant),
    ("kv/mutant/flip-first", Answer::Mutant),
    ("kv/mutant/no-lock", Answer::Mutant),
    ("repldisk/mutant/skip-second-write", Answer::Mutant),
    ("repldisk/mutant/zeroing-recovery", Answer::Mutant),
    ("repldisk/mutant/skip-helping", Answer::Mutant),
    ("repldisk/mutant/commit-early", Answer::Mutant),
    ("repldisk/mutant/transient-give-up", Answer::FaultOnlyMutant),
    ("mailboat/mutant/no-spool", Answer::Mutant),
    ("mailboat/mutant/commit-at-spool", Answer::Mutant),
    ("mailboat/mutant/skip-recovery-cleanup", Answer::Mutant),
    ("mailboat/mutant/delete-without-lock", Answer::Mutant),
    ("mailboat/mutant/slice-race", Answer::Mutant),
    ("mailboat/mutant/net-no-dedup", Answer::FaultOnlyMutant),
    ("patterns/mutant/shadow-flip-first", Answer::Mutant),
    ("patterns/mutant/shadow-in-place", Answer::Mutant),
    ("patterns/mutant/wal-skip-recovery-apply", Answer::Mutant),
    ("patterns/mutant/wal-header-first", Answer::Mutant),
    ("patterns/mutant/wal-skip-helping", Answer::Mutant),
    (
        "patterns/mutant/wal-skip-commit-flush",
        Answer::FaultOnlyMutant,
    ),
    ("patterns/mutant/gc-count-first", Answer::Mutant),
    ("patterns/mutant/gc-fake-durability", Answer::Mutant),
    ("patterns/mutant/txn-no-log", Answer::Mutant),
    ("patterns/mutant/txn-header-first", Answer::Mutant),
    ("patterns/mutant/txn-partial-recovery", Answer::Mutant),
    ("patterns/mutant/sl-skip-fsync", Answer::Mutant),
    ("patterns/mutant/sl-skip-dir-sync", Answer::Mutant),
    ("patterns/mutant/panic-reset", Answer::Mutant),
];

/// The expected verdict (`true` = PASS) of `name`, or `None` when the
/// table does not know the name — which the caller counts as wrong.
pub fn expected_pass(name: &str, faults: bool) -> Option<bool> {
    let (_, answer) = ANSWERS.iter().find(|(n, _)| *n == name)?;
    Some(match answer {
        Answer::System => true,
        Answer::Mutant => false,
        Answer::FaultOnlyMutant => !faults,
    })
}

/// Whether a registry name is a mutant (the `hunt` workload's set).
pub fn is_mutant(name: &str) -> bool {
    name.contains("/mutant/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_registry_name() {
        let names = registry()
            .names()
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>();
        let missing: Vec<&String> = names
            .iter()
            .filter(|n| expected_pass(n, true).is_none())
            .collect();
        assert!(missing.is_empty(), "answer table lacks {missing:?}");
        let stale: Vec<&str> = ANSWERS
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !names.iter().any(|r| r == n))
            .collect();
        assert!(
            stale.is_empty(),
            "answer table names unknown scenarios {stale:?}"
        );
    }

    #[test]
    fn table_counts_match_the_registry_shape() {
        let count = |a: Answer| ANSWERS.iter().filter(|(_, x)| *x == a).count();
        assert_eq!(ANSWERS.len(), 46);
        assert_eq!(count(Answer::System), 18);
        assert_eq!(count(Answer::Mutant) + count(Answer::FaultOnlyMutant), 28);
        let fails = |faults| {
            ANSWERS
                .iter()
                .filter(|(n, _)| expected_pass(n, faults) == Some(false))
                .count()
        };
        assert_eq!(fails(false), 25);
        assert_eq!(fails(true), 28);
        for (name, answer) in ANSWERS {
            assert_eq!(is_mutant(name), *answer != Answer::System, "{name}");
        }
    }
}
