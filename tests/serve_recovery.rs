//! Serving-tier recovery contracts for `cm-serve`.
//!
//! Two guarantees, tested at `CM_THREADS` ∈ {1, 2, 4} (`scripts/ci.sh`
//! runs the suite under each):
//!
//! 1. **Golden replay** — ingesting the pool as many arrival batches
//!    matches ingesting it as one batch. Coverage and the propagation
//!    graph are *exactly* cut-invariant; the EM posterior follows a
//!    warm-start chain whose fixed point can lag the cold fit, so the
//!    documented tolerance is a max posterior drift `< 0.05` with the
//!    default 20-iteration refit cap (see
//!    `cm_pipeline::incremental::IncrementalConfig::refit_max_iters`).
//! 2. **Crash/restart bit-identity** — for *every* batch index `k`,
//!    crashing after the k-th ingest (`CM_CRASH_AT` semantics) and
//!    resuming from the last checkpoint produces a final report
//!    byte-identical to an uninterrupted run. Checkpoint state is exact,
//!    so unlike replay there is no tolerance here at all.

use std::path::PathBuf;

use cross_modal::json::ToJson;
use cross_modal::par::ParConfig;
use cross_modal::pipeline::{IncrementalConfig, IncrementalCurator};
use cross_modal::prelude::*;
use cross_modal::serve::{self, RunOutcome, ServeConfig, ServeReport};

fn task() -> TaskConfig {
    TaskConfig::paper(TaskId::Ct2).scaled(0.02)
}

fn incremental_config() -> IncrementalConfig {
    let mut config = IncrementalConfig::default();
    config.curation.prop_max_seeds = 400;
    config.curation.mining.min_recall = 0.05;
    config
}

fn serve_config(seed: u64) -> ServeConfig {
    let mut config = ServeConfig::new(task(), seed);
    config.incremental = incremental_config();
    config.batch_rows = 40;
    config
}

fn run_completed(config: &ServeConfig, par: &ParConfig) -> Box<ServeReport> {
    match serve::run(config, par).expect("serve run failed") {
        RunOutcome::Completed { report, .. } => report,
        RunOutcome::Crashed { at_tick } => panic!("unexpected crash at tick {at_tick}"),
    }
}

fn scratch_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cm_serve_recovery_{}_{tag}.json", std::process::id()))
}

#[test]
fn replaying_all_batches_matches_one_batch_within_tolerance() {
    let par = ParConfig::from_env();
    let seed = 11u64;
    let ds = seed ^ 0xD1CE;
    let t = task();
    let world = World::build(WorldConfig::new(t.clone(), seed));
    let text = world.generate(ModalityKind::Text, t.n_text_labeled, ds ^ 0x1);
    let pool = world.generate(ModalityKind::Image, t.n_image_unlabeled, ds ^ 0x2);

    let mut one = IncrementalCurator::new(&world, &text, incremental_config());
    one.ingest_batch(&pool, &par);

    let mut many = IncrementalCurator::new(&world, &text, incremental_config());
    let mut start = 0;
    while start < pool.len() {
        let end = (start + 45).min(pool.len());
        let idx: Vec<usize> = (start..end).collect();
        many.ingest_batch(&pool.gather(&idx), &par);
        start = end;
    }

    // Coverage (votes + propagation graph) is exactly cut-invariant.
    assert_eq!(one.covered(), many.covered(), "coverage must not depend on batch cuts");
    // The EM warm chain carries a documented tolerance (module docs).
    let drift = one
        .posteriors()
        .iter()
        .zip(many.posteriors())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(drift < 0.05, "posterior drift {drift} exceeds the documented 0.05 tolerance");
}

#[test]
fn crash_at_every_batch_resumes_bit_identically() {
    // ci.sh runs this binary at CM_THREADS 1, 2, and 4; from_env picks
    // that up, so one test body covers the whole thread matrix.
    let par = ParConfig::from_env();
    let path = scratch_checkpoint("matrix");
    let _ = std::fs::remove_file(&path);

    let mut config = serve_config(11);
    config.checkpoint_path = Some(path.clone());

    let reference = run_completed(&config, &par);
    let reference_json = reference.to_json().to_string_pretty();
    let n_batches = reference.batches.len();
    assert!(n_batches >= 2, "need at least two batches for a meaningful crash matrix");

    for k in 1..=n_batches {
        let _ = std::fs::remove_file(&path);
        let mut crashing = config.clone();
        crashing.crash_at = Some(k);
        match serve::run(&crashing, &par).expect("crashing run errored") {
            RunOutcome::Crashed { at_tick } => {
                assert!(at_tick >= k, "crash after ingest {k} cannot precede tick {k}")
            }
            RunOutcome::Completed { .. } => panic!("crash_at={k} never fired"),
        }
        // k = 1 crashes before the first tick's checkpoint is ever
        // written — resuming from nothing (a fresh start) must also be
        // bit-identical. Every later k leaves a checkpoint behind.
        if k > 1 {
            assert!(path.exists(), "crash after batch {k} must leave a checkpoint behind");
        }

        // Restart with crash injection cleared: picks up the checkpoint.
        let resumed = run_completed(&config, &par);
        assert_eq!(
            resumed.to_json().to_string_pretty(),
            reference_json,
            "resume after crash at batch {k} diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpointed_and_uncheckpointed_runs_agree() {
    // Checkpoint persistence must be a pure observer: turning it on
    // cannot perturb the deterministic report.
    let par = ParConfig::from_env();
    let plain = run_completed(&serve_config(5), &par);
    let path = scratch_checkpoint("observer");
    let _ = std::fs::remove_file(&path);
    let mut with_cp = serve_config(5);
    with_cp.checkpoint_path = Some(path.clone());
    let observed = run_completed(&with_cp, &par);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        plain.to_json().to_string_pretty(),
        observed.to_json().to_string_pretty(),
        "checkpointing changed the run output"
    );
}

#[test]
fn torn_or_corrupt_tail_recovers_to_the_previous_durable_record_at_every_offset() {
    // Satellite of the delta-log checkpoint: a crash mid-append leaves a
    // truncated or garbled final record. Recovery must land exactly on
    // the previous durable record — for *every* byte offset of the tail —
    // and a service resumed off the torn log must finish bit-identical to
    // an uninterrupted run.
    let par = ParConfig::from_env();
    let path = scratch_checkpoint("tail");
    let _ = std::fs::remove_file(&path);
    let mut config = serve_config(11);
    config.checkpoint_path = Some(path.clone());
    // Keep the whole run as one base + deltas so the tail is a delta.
    config.compaction.every_ticks = 10_000;
    config.compaction.max_log_factor = 1e9;

    let reference = run_completed(&config, &par);
    let reference_json = reference.to_json().to_string_pretty();

    let bytes = std::fs::read(&path).expect("checkpoint log exists");
    let world = World::build(WorldConfig::new(task(), 11));
    let schema = world.schema();
    let full = serve::snapshot::load_any(&bytes, schema).expect("intact log recovers");
    assert_eq!(full.valid_bytes, bytes.len(), "intact log must be fully valid");
    assert!(full.deltas >= 2, "run too short to leave a delta tail");
    // Dropping one byte makes the final record torn; its recovery point
    // is the start of that record.
    let last_start =
        serve::snapshot::load_any(&bytes[..bytes.len() - 1], schema).expect("torn").valid_bytes;
    assert!(last_start < bytes.len());

    for cut in last_start..bytes.len() {
        let rec = serve::snapshot::load_any(&bytes[..cut], schema)
            .expect("truncated tail must still recover");
        assert_eq!(rec.valid_bytes, last_start, "cut at {cut} recovered past the torn record");
        assert_eq!(rec.deltas, full.deltas - 1, "cut at {cut} kept a torn delta");
    }
    for byte in last_start..bytes.len() {
        let mut bad = bytes.clone();
        bad[byte] ^= 0x10;
        let rec = serve::snapshot::load_any(&bad, schema).expect("corrupt tail must still recover");
        assert_eq!(rec.valid_bytes, last_start, "flip at {byte} went undetected");
    }

    // Full service resumes off sampled torn logs: bit-identical reports.
    for cut in [last_start + 1, last_start + (bytes.len() - last_start) / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).expect("write torn log");
        let resumed = run_completed(&config, &par);
        assert_eq!(
            resumed.to_json().to_string_pretty(),
            reference_json,
            "resume from tail cut at {cut} diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn kill_mid_append_resumes_from_the_last_complete_record() {
    // A crash can land while a delta record is half-written. Simulate the
    // torn append on a real mid-run log and resume through it.
    let par = ParConfig::from_env();
    let path = scratch_checkpoint("midappend");
    let _ = std::fs::remove_file(&path);
    let mut config = serve_config(11);
    config.checkpoint_path = Some(path.clone());

    let reference = run_completed(&config, &par);
    let reference_json = reference.to_json().to_string_pretty();
    let mid = (reference.batches.len() / 2).max(2);

    let _ = std::fs::remove_file(&path);
    let mut crashing = config.clone();
    crashing.crash_at = Some(mid);
    assert!(matches!(
        serve::run(&crashing, &par).expect("crashing run errored"),
        RunOutcome::Crashed { .. }
    ));

    // Simulate the kill landing mid-`commit_delta`: the log gains a tail
    // of record-shaped bytes that never got their checksum — any torn
    // suffix behaves the same, so half the file's own prefix serves.
    let bytes = std::fs::read(&path).expect("mid-run log exists");
    let world = World::build(WorldConfig::new(task(), 11));
    let intact = serve::snapshot::load_any(&bytes, world.schema()).expect("intact log recovers");
    assert_eq!(intact.valid_bytes, bytes.len());
    let torn = [&bytes[..], &bytes[..bytes.len() / 2]].concat();
    std::fs::write(&path, &torn).expect("write torn log");
    let rec = serve::snapshot::load_any(&torn, world.schema()).expect("torn log recovers");
    assert_eq!(rec.valid_bytes, bytes.len(), "torn append must be discarded whole");

    let resumed = run_completed(&config, &par);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        resumed.to_json().to_string_pretty(),
        reference_json,
        "resume through a torn append diverged from the uninterrupted run"
    );
}

#[test]
fn crash_under_fault_storm_still_resumes_bit_identically() {
    // The hard case: breaker state, fault draws, and stale snapshots are
    // all mid-flight when the crash lands.
    let par = ParConfig::from_env();
    let storm = "seed=7;topics=unavailable@0.5;keywords=transient(2)@0.6;\
                 page_quality=latency(300)@0.5;user_reports=corrupt@0.4;\
                 kg_entities=stale;sentiment=unavailable@0.9";
    let path = scratch_checkpoint("storm");
    let _ = std::fs::remove_file(&path);
    let mut config = serve_config(11);
    config.plan = FaultPlan::parse(storm).expect("storm plan parses");
    config.checkpoint_path = Some(path.clone());

    let reference = run_completed(&config, &par);
    let reference_json = reference.to_json().to_string_pretty();
    let mid = (reference.batches.len() / 2).max(1);

    let _ = std::fs::remove_file(&path);
    let mut crashing = config.clone();
    crashing.crash_at = Some(mid);
    assert!(matches!(
        serve::run(&crashing, &par).expect("crashing storm run errored"),
        RunOutcome::Crashed { .. }
    ));
    let resumed = run_completed(&config, &par);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        resumed.to_json().to_string_pretty(),
        reference_json,
        "storm resume diverged from the uninterrupted storm run"
    );
}
