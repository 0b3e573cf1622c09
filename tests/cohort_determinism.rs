//! Determinism pins for the cohort engine: a cohort run is a pure
//! function of `(cohort seed, config)` — bit-identical across repeated
//! runs and across gateway worker counts — and the seed actually
//! matters (different seeds give different cohorts).

use proptest::prelude::*;
use wbsn::cohort::{CohortReport, CohortRunConfig, CohortRunner, SessionPlan};
use wbsn_ecg_synth::cohort::CohortConfig;
use wbsn_ecg_synth::scenario::Script;

/// A reduced cohort that still exercises every moving part (CS
/// patients, reboots, regimes) but keeps the property runs fast.
fn tiny(seed: u64) -> CohortRunConfig {
    CohortRunConfig {
        cohort: CohortConfig {
            cohort_seed: seed,
            sessions: 8,
            modeled_hours: 1,
            segment_s: 40.0,
            cs_fraction: 0.25,
            reboot_rate: 0.2,
            regime_shift_rate: 0.4,
            ..CohortConfig::default()
        },
        ..CohortRunConfig::default()
    }
}

// Same seed ⇒ the full typed report (every float included) replays
// bit-identically. (Comments live outside the macro: the vendored
// proptest only matches bare `#[test] fn` items.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn same_seed_replays_bit_identically(seed in 0u64..1_000_000) {
        let a = CohortRunner::new(tiny(seed)).run().unwrap();
        let b = CohortRunner::new(tiny(seed)).run().unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_give_different_cohorts(seed in 0u64..1_000_000) {
        let a = CohortRunner::new(tiny(seed)).run().unwrap();
        let b = CohortRunner::new(tiny(seed ^ 0x5EED)).run().unwrap();
        prop_assert_ne!(a, b);
    }
}

/// The smoke cohort at `workers` and `batch_sessions`, recorded: the
/// report plus the archive bytes.
fn smoke_recorded(workers: usize, batch_sessions: usize) -> (CohortReport, Vec<u8>) {
    CohortRunner::new(CohortRunConfig {
        workers,
        batch_sessions,
        ..CohortRunConfig::smoke()
    })
    .run_recorded(Vec::new())
    .unwrap()
}

#[test]
fn worker_count_never_changes_the_report() {
    // The acceptance invariant: the CohortReport carries no trace of
    // gateway or synthesis parallelism, so sweeping the workers over
    // {1, 2, 4} must reproduce the exact same artifact.
    let reference = CohortRunner::new(CohortRunConfig {
        workers: 1,
        ..CohortRunConfig::smoke()
    })
    .run()
    .unwrap();
    assert!(reference.link.messages > 0);
    for workers in [2usize, 4] {
        let replay = CohortRunner::new(CohortRunConfig {
            workers,
            ..CohortRunConfig::smoke()
        })
        .run()
        .unwrap();
        assert_eq!(
            reference, replay,
            "cohort report diverged at {workers} gateway workers"
        );
        assert_eq!(reference.to_json(), replay.to_json());
    }
    // Uneven fan-out: a worker count that does not divide the batch,
    // and one larger than the batch. Report and recording both match
    // the single-worker run at the same batch size.
    for (workers, batch_sessions) in [(3usize, 5usize), (4, 3)] {
        let (want, want_bytes) = smoke_recorded(1, batch_sessions);
        let (got, got_bytes) = smoke_recorded(workers, batch_sessions);
        assert_eq!(
            want, got,
            "report diverged at {workers} workers, batches of {batch_sessions}"
        );
        assert!(
            want_bytes == got_bytes,
            "archive bytes diverged at {workers} workers, batches of {batch_sessions}"
        );
    }
}

#[test]
fn plan_types_are_send_and_sync() {
    // Synthesis workers read plans and scripts by shared reference.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Script>();
    assert_send_sync::<SessionPlan>();
}
