//! Serve drill: drive the incremental curation service from the
//! `specs/serve.json` experiment spec — a mixed fault storm over the
//! arrival stream — and print the deterministic run report.
//!
//! `scripts/ci.sh` runs this three ways and diffs stdout against the
//! pinned `tests/fixtures/serve_drill.out`:
//!
//! 1. a clean run (checkpointing on, no crash);
//! 2. a run with `CM_CRASH_AT=2`, which ingests two batches and exits at
//!    the injected crash (stdout stays empty);
//! 3. a restart off the crashed run's checkpoint, which must print the
//!    exact bytes of the clean run.
//!
//! All output on stdout is deterministic (simulated clock, seeded fault
//! streams, digest instead of floats-by-eye); wall-clock timings go to
//! stderr, out-of-band of the fixture.
//!
//! ```sh
//! CM_CHECKPOINT=/tmp/serve.ckpt CM_CRASH_AT=2 cargo run --release --example serve_drill
//! CM_CHECKPOINT=/tmp/serve.ckpt cargo run --release --example serve_drill
//! ```

use std::path::PathBuf;

use cross_modal::check::{validate_spec_source, ExperimentSpec, ServeSpec};
use cross_modal::json::ToJson;
use cross_modal::par::ParConfig;
use cross_modal::prelude::*;
use cross_modal::serve;

fn load_spec() -> ExperimentSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/serve.json");
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let (spec, violations) = validate_spec_source(&source, "specs/serve.json");
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("{}: {}", v.location, v.message);
        }
        std::process::exit(2);
    }
    spec.unwrap()
}

fn apply_serve_spec(config: &mut ServeConfig, s: &ServeSpec) {
    if let Some(n) = s.total_rows {
        config.total_rows = n;
    }
    if let Some(n) = s.batch_rows {
        config.batch_rows = n;
    }
    if let Some(n) = s.arrivals_per_tick {
        config.arrivals_per_tick = n;
    }
    if let Some(n) = s.queue_capacity {
        config.queue.capacity = n;
    }
    if let Some(n) = s.high_watermark {
        config.queue.high_watermark = n;
    }
    if let Some(k) = s.crash_at {
        config.crash_at = Some(k);
    }
    if let Some(f) = s.min_coverage {
        config.guards.min_coverage = f;
    }
    if let Some(f) = s.max_abstain {
        config.guards.max_abstain = f;
    }
}

fn main() {
    let spec = load_spec();
    let task_id = *spec.tasks.first().unwrap_or(&TaskId::Ct2);
    let task = TaskConfig::paper(task_id).scaled(spec.scale);

    let mut config = ServeConfig::new(task, spec.seed);
    config.incremental.curation.prop_max_seeds = 400;
    config.incremental.curation.mining.min_recall = 0.05;
    if let Some(s) = &spec.serve {
        apply_serve_spec(&mut config, s);
    }
    // Environment knobs override the spec (CM_BATCH_ROWS, CM_QUEUE_DEPTH,
    // CM_MEM_BUDGET, CM_CRASH_AT, CM_FAULTS); the spec's fault plan stays
    // in force unless CM_FAULTS replaces it.
    let mut config = config.with_env_overrides().unwrap_or_else(|e| {
        eprintln!("bad environment: {e}");
        std::process::exit(2);
    });
    if !config.plan.is_enabled() {
        if let Some(p) = &spec.fault_plan {
            config.plan = FaultPlan::parse(p).unwrap();
        }
    }
    config.checkpoint_path = Some(
        std::env::var("CM_CHECKPOINT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| std::env::temp_dir().join("cm_serve_drill.ckpt")),
    );

    println!(
        "serve drill: task {} scale {}, {} rows in ~{}-row batches, fault seed {}",
        task_id.name(),
        spec.scale,
        config.total_rows,
        config.batch_rows,
        config.plan.seed
    );

    let par = ParConfig::from_env();
    match serve::run(&config, &par) {
        Ok(RunOutcome::Completed { report, timing }) => {
            println!(
                "completed: {} batches ingested, {} rows, {} ticks, {} sim-ms",
                report.batches.len(),
                report.rows_ingested,
                report.ticks,
                report.sim_ms
            );
            println!(
                "mode {}: quarantined={} recovered={} dropped={} shed_batches={} deferred={}",
                report.serving.mode,
                report.serving.batches_quarantined,
                report.serving.batches_recovered,
                report.serving.batches_dropped,
                report.shedding.shed_batches,
                report.shedding.deferred
            );
            println!("posterior digest: {}", report.posterior_digest);
            println!("report JSON:");
            println!("{}", report.to_json().to_string_pretty());
            // Wall-clock accounting is real time, not simulated: stderr
            // only, never part of the pinned fixture.
            eprintln!(
                "timing: total {:?}, setup {:?}, generation {:?}, curation {:?}, \
                 checkpoint {:?}, serving envelope {:?} ({:.2}% of curation)",
                timing.total,
                timing.setup,
                timing.generation,
                timing.curation,
                timing.checkpoint,
                timing.envelope(),
                timing.overhead_pct()
            );
            eprintln!(
                "checkpoint: {} bytes over {} writes ({} base rewrites, {} delta appends)",
                timing.checkpoint_bytes,
                timing.base_writes + timing.delta_appends,
                timing.base_writes,
                timing.delta_appends
            );
        }
        Ok(RunOutcome::Crashed { at_tick }) => {
            eprintln!("injected crash at tick {at_tick}; resume from the checkpoint");
        }
        Err(e) => {
            eprintln!("serve run failed: {e}");
            std::process::exit(1);
        }
    }
}
