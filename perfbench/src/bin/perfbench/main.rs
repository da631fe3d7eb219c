//! The repository benchmark: batch curation, propagation-heavy curation
//! and serving ticks, end to end and per layer.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every workload is a closed loop: one caller waits for each call. The
//! set-up (input generation by the orgsim simulator, and for serving the
//! curator's construction) runs [`SETUP_REPEATS`] times and is timed on
//! its own, so the simulator never counts as system throughput. The
//! measured loop then repeats the workload's calls while they fit
//! in `--seconds`, and every timing is a median over its samples.
//!
//! Workloads (each input set has its output digest committed in
//! `pins.txt`). Each holds its world fixed, so that a run's work does not
//! depend on the seed; the seed varies what can vary at equal work.
//!
//! - `pool-anchored`: the CT1 world of seed 3, 2,000 labeled text rows, a
//!   2.5·10⁵-row pool, propagation off, anchored label model. Each
//!   iteration runs one resident `curate` and one `curate_streamed` at the
//!   default `ShardConfig`. Loads LF evaluation, the anchored fit and
//!   predict and the output scans inside `curate`; skips propagation, EM
//!   and checkpoints. Nothing seeded remains, so its input is fixed.
//! - `pool-propagation`: the same world at 5·10³ pool rows with the default
//!   `CurationConfig` (propagation on, k = 15) seeded with `seed % 16`,
//!   which picks the propagation seed/dev split and the graph's anchors;
//!   most of `curate` is the k-NN graph build. Also runs
//!   `curate_streamed` (the sharded graph).
//! - `serve-ticks`: the CT2 × 0.02 world of seed 11, its arrivals in 200
//!   pre-generated 40-row batches through `preview_batch` → guards →
//!   `ingest_batch` → export → checkpoint commit (default compaction),
//!   then eight resumes from the checkpoint file. Per-tick work grows with
//!   the pool. Its input is one fixed stream whatever the seed: warm EM
//!   passes over the 200 ticks range from 923 to 1,796 between the first
//!   16 arrival streams, which would make the seed, not the code, set the
//!   spread of its timings.
//!
//! End-to-end metrics (untraced run, every workload): `setup_s`,
//! `rows_per_s` (pool rows per second of the resident `curate`, or of the
//! tick loop), `second_path_s` (`curate_streamed` wall, or one resume)
//! and `peak_rss_mb`. The traced run (`--trace 1`) records spans around
//! every call into a layer, replays the layer calls of the single-call
//! entry points on the same inputs, and prints the per-layer metrics; its
//! spans are written to `perfbench-traces/` next to the binary when it
//! ends. A layer time is absolute when every workload loads that layer,
//! and a share of its entry point's wall time otherwise, so no time reads
//! a constant zero on a workload that skips the layer.
//!
//! Gates, on every run: the output digest must equal the pinned one;
//! sharded labels must equal resident labels; replayed labels must equal
//! `curate`'s; a resumed curator must equal the live one; work
//! counters must agree between iterations of a run and with any earlier
//! run of the same binary and seed. A failed gate exits non-zero.
//!
//! To pin a new input set, run each workload with `--seconds 1` on the
//! seed and copy the `digest` from the report line into `pins.txt`.

mod adapter;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use adapter::{CurationCounts, PoolWorkload, ServeWorkload};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Resumes from the checkpoint per serving iteration.
const RESUMES: usize = 8;
/// `workload input-seed digest` lines.
const PINS: &str = include_str!("../../../pins.txt");

/// End-to-end metrics printed by every untraced run, in order.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("rows_per_s", "rows/s"), ("second_path_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics printed by every traced run, in order. A share is a
/// fraction of the wall time of the call it sits in: `curate`,
/// `curate_streamed`, the tick loop or a resume. A layer the workload
/// does not load reads 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("orgsim.generate_s", "s"),
    ("orgsim.stream_s", "s"),
    ("orgsim.stream_share", "share"),
    ("mining.mine_lfs_s", "s"),
    ("mining.lfs", "count"),
    ("labelmodel.apply_s", "s"),
    ("labelmodel.votes", "count"),
    ("labelmodel.fire_share", "share"),
    ("labelmodel.distinct_patterns", "count"),
    ("labelmodel.pattern_share", "share"),
    ("labelmodel.anchored_fit_share", "share"),
    ("labelmodel.anchored_predict_share", "share"),
    ("labelmodel.em_iterations", "count"),
    ("propagation.fit_scales_share", "share"),
    ("propagation.graph_build_share", "share"),
    ("propagation.propagate_share", "share"),
    ("propagation.graph_edges", "count"),
    ("shard.segments", "count"),
    ("shard.peak_mb", "MB"),
    ("pipeline.self_s", "s"),
    ("pipeline.preview_share", "share"),
    ("pipeline.ingest_share", "share"),
    ("pipeline.ingest_growth", "ratio"),
    ("pipeline.export_share", "share"),
    ("pipeline.restore_share", "share"),
    ("snapshot.commit_share", "share"),
    ("snapshot.open_share", "share"),
    ("snapshot.bytes", "count"),
    ("snapshot.base_writes", "count"),
    ("serve.guard_rejects", "count"),
    ("serve.guard_share", "share"),
    ("trace.overhead_share", "share"),
];

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PoolAnchored,
    PoolPropagation,
    ServeTicks,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::PoolAnchored, Workload::PoolPropagation, Workload::ServeTicks];

    /// Distinct input sets; `--seed` selects `seed % input_sets`.
    fn input_sets(self) -> u64 {
        match self {
            Workload::PoolPropagation => 16,
            Workload::PoolAnchored | Workload::ServeTicks => 1,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PoolAnchored => "pool-anchored",
            Workload::PoolPropagation => "pool-propagation",
            Workload::ServeTicks => "serve-ticks",
        }
    }
}

/// Input sizes; `--smoke` shrinks them for the package's own tests.
struct Sizes {
    anchored_rows: usize,
    propagation_rows: usize,
    batches: usize,
    batch_rows: usize,
}

const FULL: Sizes =
    Sizes { anchored_rows: 250_000, propagation_rows: 5_000, batches: 200, batch_rows: 40 };
const SMOKE: Sizes =
    Sizes { anchored_rows: 3_000, propagation_rows: 600, batches: 12, batch_rows: 40 };

struct Opts {
    workload: Workload,
    seed: u64,
    input_seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut named: BTreeMap<&str, &str> = BTreeMap::new();
        let mut smoke = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => smoke = true,
                "--workload" | "--seed" | "--seconds" | "--trace" => {
                    let v = it.next().ok_or(format!("{a} needs a value"))?;
                    named.insert(&a[2..], v);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let get = |k: &str| named.get(k).copied().ok_or(format!("--{k} is required"));
        let name = get("workload")?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or(format!("unknown workload {name:?}"))?;
        let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is outside (0, 600]"));
        }
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace {t:?} is neither 0 nor 1")),
        };
        let input_seed = seed % workload.input_sets();
        Ok(Opts { workload, seed, input_seed, seconds, trace, smoke })
    }

    fn sizes(&self) -> &'static Sizes {
        if self.smoke {
            &SMOKE
        } else {
            &FULL
        }
    }

    /// Whether to start another iteration after `done` of them, given the
    /// loop's start and the last iteration's length.
    fn another(&self, done: usize, start: Instant, last_s: f64) -> bool {
        let min = if self.trace { 2 } else { 1 };
        done < min || start.elapsed().as_secs_f64() + last_s <= self.seconds
    }
}

/// Everything a run measured and checked.
#[derive(Default)]
struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Metrics of the report line, which names each by what it measures.
    report: BTreeMap<&'static str, f64>,
    /// Deterministic work counters; must repeat exactly.
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, usize>,
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Metrics {
    /// Counts one attempted operation; `err` marks it failed.
    fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.problems.push(e);
        }
    }

    /// Records a replay's counters, failing if an earlier replay in the
    /// same run disagreed.
    fn counts(&mut self, c: &CurationCounts) {
        let pairs = [
            ("mining.lfs", c.lfs),
            ("labelmodel.votes", c.votes),
            ("labelmodel.distinct_patterns", c.distinct_patterns),
            ("propagation.graph_edges", c.graph_edges),
        ];
        for (k, v) in pairs {
            self.counter(k, v);
        }
        self.values.insert("labelmodel.fire_share", ratio(c.votes as f64, c.vote_slots as f64));
        self.values
            .insert("labelmodel.pattern_share", ratio(c.distinct_patterns as f64, c.rows as f64));
    }

    fn counter(&mut self, name: &'static str, v: u64) {
        if let Some(&old) = self.counters.get(name) {
            if old != v {
                self.problems
                    .push(format!("counter {name} drifted within the run: {old} then {v}"));
            }
        }
        self.counters.insert(name, v);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; 0 on no samples.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of each span's per-trace total.
fn span_median(tr: &Tracer, name: &str) -> f64 {
    median(&tr.totals(name))
}

// --- batch curation ------------------------------------------------------

fn run_pool(o: &Opts, rows: usize, propagation: bool, tr: &mut Tracer, m: &mut Metrics) {
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        tr.begin("setup", o.trace);
        let t = Instant::now();
        w = Some(PoolWorkload::generate(rows, propagation, o.input_seed, tr));
        setup_s.push(secs(t));
    }
    let Some(w) = w else { unreachable!("SETUP_REPEATS is positive") };

    let mut reference: Option<Vec<f64>> = None;
    let (mut curate_s, mut streamed_s, mut plain, mut traced) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let (mut done, mut last_s) = (0, 0.0);
    while o.another(done, start, last_s) {
        let is_traced = o.trace && done % 2 == 1;
        tr.begin("iteration", is_traced);
        let t_iter = Instant::now();
        let t = Instant::now();
        let labels = w.curate(tr);
        let c = secs(t);
        let err = match &reference {
            Some(r) if !same_bits(r, &labels) => Some("resident labels changed between iterations"),
            _ => None,
        };
        m.op(err.map(str::to_owned));
        reference.get_or_insert(labels);
        let t = Instant::now();
        let streamed = w.curate_streamed(tr);
        let s = secs(t);
        match streamed {
            Err(e) => m.op(Some(e)),
            Ok(st) => {
                let equal = reference.as_deref().is_some_and(|r| same_bits(r, &st.labels));
                m.op((!equal).then(|| "curate_streamed labels differ from curate".to_owned()));
                m.counter("shard.segments", st.segments as u64);
                m.counter("shard.peak_bytes", st.peak_bytes as u64);
            }
        }
        if is_traced {
            traced.push(c + s);
            replay_pool(&w, reference.as_deref(), tr, m);
        } else {
            plain.push(c + s);
            curate_s.push(c);
            streamed_s.push(s);
        }
        done += 1;
        last_s = secs(t_iter);
    }
    let rss = peak_rss_mb();
    if !o.trace {
        tr.begin("replay", false);
        replay_pool(&w, reference.as_deref(), tr, m);
    }
    m.digest = reference.as_deref().map(digest);

    let peak_mb = m.counters.get("shard.peak_bytes").map_or(0.0, |&b| b as f64 / 1e6);
    m.values.insert("setup_s", median(&setup_s));
    m.values.insert("rows_per_s", ratio(w.pool_rows() as f64, median(&curate_s)));
    m.values.insert("second_path_s", median(&streamed_s));
    m.values.insert("peak_rss_mb", rss);
    m.values.insert("shard.peak_mb", peak_mb);
    m.report.insert("setup_s", median(&setup_s));
    m.report.insert("peak_rss_mb", rss);
    m.report.insert("streamed_peak_mb", peak_mb);
    if !curate_s.is_empty() {
        m.report.insert("curate_rows_per_s", ratio(w.pool_rows() as f64, median(&curate_s)));
        m.report.insert("streamed_s", median(&streamed_s));
    }
    m.samples.insert("setups", setup_s.len());
    m.samples.insert("iterations", curate_s.len());
    m.samples.insert("traced_iterations", traced.len());

    if o.trace {
        let curate_traced = span_median(tr, "pipeline.curate");
        let streamed_traced = span_median(tr, "pipeline.curate_streamed");
        let layer_names = [
            "mining.mine_lfs",
            "labelmodel.apply",
            "labelmodel.anchored_fit",
            "labelmodel.anchored_predict",
            "propagation.fit_scales",
            "propagation.graph_build",
            "propagation.propagate",
        ];
        let layers: f64 = layer_names.iter().map(|n| span_median(tr, n)).sum();
        let stream = span_median(tr, "orgsim.stream");
        let v = &mut m.values;
        v.insert("orgsim.generate_s", span_median(tr, "orgsim.generate"));
        v.insert("orgsim.stream_s", stream);
        v.insert("orgsim.stream_share", ratio(stream, streamed_traced));
        v.insert("mining.mine_lfs_s", span_median(tr, "mining.mine_lfs"));
        v.insert("labelmodel.apply_s", span_median(tr, "labelmodel.apply"));
        v.insert("pipeline.self_s", curate_traced - layers);
        for (metric, span) in [
            ("labelmodel.anchored_fit_share", "labelmodel.anchored_fit"),
            ("labelmodel.anchored_predict_share", "labelmodel.anchored_predict"),
            ("propagation.fit_scales_share", "propagation.fit_scales"),
            ("propagation.graph_build_share", "propagation.graph_build"),
            ("propagation.propagate_share", "propagation.propagate"),
        ] {
            v.insert(metric, ratio(span_median(tr, span), curate_traced));
        }
        v.insert("trace.overhead_share", ratio(median(&traced) - median(&plain), median(&plain)));
        let r = &mut m.report;
        for (name, span) in [
            ("orgsim.generate_s", "orgsim.generate"),
            ("orgsim.stream_s", "orgsim.stream"),
            ("mining.mine_lfs_s", "mining.mine_lfs"),
            ("labelmodel.apply_s", "labelmodel.apply"),
            ("labelmodel.anchored_fit_s", "labelmodel.anchored_fit"),
            ("labelmodel.anchored_predict_s", "labelmodel.anchored_predict"),
            ("propagation.fit_scales_s", "propagation.fit_scales"),
            ("propagation.graph_build_s", "propagation.graph_build"),
            ("propagation.propagate_s", "propagation.propagate"),
        ] {
            r.insert(name, span_median(tr, span));
        }
        r.insert("pipeline.curate_self_s", curate_traced - layers);
        r.insert("trace.overhead_s", median(&traced) - median(&plain));
    }
}

/// Replays `curate` layer by layer; its labels must equal `curate`'s.
fn replay_pool(w: &PoolWorkload, reference: Option<&[f64]>, tr: &mut Tracer, m: &mut Metrics) {
    match w.replay(tr) {
        Err(e) => m.problems.push(e),
        Ok(r) => {
            if !reference.is_some_and(|x| same_bits(x, &r.labels)) {
                m.problems.push("replayed labels differ from curate's".to_owned());
            }
            if r.counts.segments > 0 {
                m.counter("shard.segments", r.counts.segments);
            }
            m.counts(&r.counts);
        }
    }
}

// --- serving -------------------------------------------------------------

fn run_serve(o: &Opts, work: &Path, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let sizes = o.sizes();
    let path = work.join("checkpoint.bin");
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        tr.begin("setup", o.trace);
        let t = Instant::now();
        let w = ServeWorkload::generate(sizes.batches, sizes.batch_rows, tr);
        let run = w.start(&path, tr)?;
        setup_s.push(secs(t));
        setup = Some((w, run));
    }
    let Some((w, first_run)) = setup else { unreachable!("SETUP_REPEATS is positive") };
    let rows: usize = w.batches().iter().map(|b| b.len()).sum();

    let mut first_run = Some(first_run);
    let mut live_digest = None;
    let (mut tick_ms, mut loop_s, mut traced, mut resume_s) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let (mut done, mut last_s) = (0, 0.0);
    while o.another(done, start, last_s) {
        let is_traced = o.trace && done % 2 == 1;
        tr.begin("iteration", is_traced);
        let t_iter = Instant::now();
        let mut run = match first_run.take() {
            Some(r) => r,
            None => w.start(&path, tr)?,
        };
        let (mut bytes, mut bases, mut deltas, mut rejects, mut em) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut ticks = Vec::with_capacity(w.batches().len());
        let t_loop = Instant::now();
        for b in 0..w.batches().len() {
            let t = Instant::now();
            let tick = w.tick(&mut run, b, tr);
            ticks.push(secs(t) * 1e3);
            match tick {
                Err(e) => m.op(Some(e)),
                Ok(k) => {
                    let err = (!k.accepted).then(|| format!("guards rejected batch {b}"));
                    rejects += u64::from(!k.accepted);
                    m.op(err);
                    bytes += k.bytes as u64;
                    em += k.em_iterations as u64;
                    if k.wrote_base {
                        bases += 1;
                        deltas = 0;
                    } else {
                        deltas += 1;
                    }
                }
            }
        }
        let l = secs(t_loop);
        let live = digest(w.posteriors(&run));
        drop(run);
        if live_digest.is_some_and(|d| d != live) {
            m.problems.push("live posteriors changed between iterations".to_owned());
        }
        live_digest = Some(live);
        m.counter("labelmodel.em_iterations", em);
        m.counter("snapshot.bytes", bytes);
        m.counter("snapshot.base_writes", bases);
        m.counter("snapshot.deltas_replayed", deltas);
        m.counter("serve.guard_rejects", rejects);
        match w.deltas_in(&path) {
            Ok(d) if d as u64 == deltas => {}
            Ok(d) => {
                m.problems.push(format!("reader replays {d} deltas, writer appended {deltas}"))
            }
            Err(e) => m.problems.push(e),
        }
        let mut resumes = Vec::new();
        for _ in 0..RESUMES {
            let t = Instant::now();
            let resumed = w.resume(&path, tr);
            resumes.push(secs(t));
            m.op(match resumed {
                Err(e) => Some(e),
                Ok(p) if digest(&p) != live => {
                    Some("resumed posteriors differ from live".to_owned())
                }
                Ok(_) => None,
            });
        }
        if is_traced {
            traced.push(l);
            m.counts(&w.replay(tr));
        } else {
            loop_s.push(l);
            tick_ms.extend(ticks);
            resume_s.extend(resumes);
        }
        done += 1;
        last_s = secs(t_iter);
    }
    let rss = peak_rss_mb();
    if !o.trace {
        tr.begin("replay", false);
        m.counts(&w.replay(tr));
    }
    m.digest = live_digest;

    let checkpoint_mb = m.counters.get("snapshot.bytes").map_or(0.0, |&b| b as f64 / 1e6);
    m.values.insert("setup_s", median(&setup_s));
    m.values.insert("rows_per_s", ratio(rows as f64, median(&loop_s)));
    m.values.insert("second_path_s", median(&resume_s));
    m.values.insert("peak_rss_mb", rss);
    m.report.insert("setup_s", median(&setup_s));
    m.report.insert("peak_rss_mb", rss);
    m.report.insert("checkpoint_mb", checkpoint_mb);
    if !loop_s.is_empty() {
        m.report.insert("ingest_rows_per_s", ratio(rows as f64, median(&loop_s)));
        m.report.insert("tick_ms_p50", percentile(&tick_ms, 0.5));
        m.report.insert("tick_ms_p95", percentile(&tick_ms, 0.95));
        m.report.insert("resume_s", median(&resume_s));
    }
    m.samples.insert("setups", setup_s.len());
    m.samples.insert("iterations", loop_s.len());
    m.samples.insert("ticks", tick_ms.len());
    m.samples.insert("resumes", resume_s.len());
    m.samples.insert("traced_iterations", traced.len());

    if o.trace {
        let loop_traced = median(&traced);
        let resume_traced = span_median(tr, "snapshot.open") + span_median(tr, "pipeline.restore");
        let preview = span_median(tr, "pipeline.preview_batch");
        let ingest_s = span_median(tr, "pipeline.ingest_batch");
        let export = span_median(tr, "pipeline.export");
        let ingest = tr.durations("pipeline.ingest_batch");
        let q = (ingest.len() / 4).max(1).min(ingest.len());
        let first_q = median(&ingest[..q]);
        let last_q = median(&ingest[ingest.len() - q..]);
        let v = &mut m.values;
        v.insert("orgsim.generate_s", span_median(tr, "orgsim.generate"));
        v.insert("orgsim.stream_s", span_median(tr, "orgsim.stream"));
        v.insert("mining.mine_lfs_s", span_median(tr, "mining.mine_lfs"));
        v.insert("labelmodel.apply_s", span_median(tr, "labelmodel.apply"));
        v.insert("pipeline.self_s", preview + ingest_s + export);
        v.insert("pipeline.preview_share", ratio(preview, loop_traced));
        v.insert("pipeline.ingest_share", ratio(ingest_s, loop_traced));
        v.insert("pipeline.ingest_growth", ratio(last_q, first_q));
        v.insert("pipeline.export_share", ratio(export, loop_traced));
        v.insert("snapshot.commit_share", ratio(span_median(tr, "snapshot.commit"), loop_traced));
        v.insert("serve.guard_share", ratio(span_median(tr, "serve.guards"), loop_traced));
        v.insert(
            "pipeline.restore_share",
            ratio(span_median(tr, "pipeline.restore"), resume_traced),
        );
        v.insert("snapshot.open_share", ratio(span_median(tr, "snapshot.open"), resume_traced));
        v.insert("trace.overhead_share", ratio(loop_traced - median(&loop_s), median(&loop_s)));
        let ms = |n: &str, p: f64| percentile(&tr.durations(n), p) * 1e3;
        let r = &mut m.report;
        r.insert("orgsim.generate_s", span_median(tr, "orgsim.generate"));
        r.insert("orgsim.stream_s", span_median(tr, "orgsim.stream"));
        r.insert("mining.mine_lfs_s", span_median(tr, "mining.mine_lfs"));
        r.insert("labelmodel.apply_s", span_median(tr, "labelmodel.apply"));
        r.insert("pipeline.preview_ms_p50", ms("pipeline.preview_batch", 0.5));
        r.insert("pipeline.ingest_ms_p50", ms("pipeline.ingest_batch", 0.5));
        r.insert("pipeline.ingest_ms_first_q", first_q * 1e3);
        r.insert("pipeline.ingest_ms_last_q", last_q * 1e3);
        r.insert("pipeline.export_delta_ms_p50", ms("pipeline.export", 0.5));
        r.insert("snapshot.commit_ms_p50", ms("snapshot.commit", 0.5));
        r.insert("snapshot.commit_ms_max", ms("snapshot.commit", 1.0));
        r.insert("snapshot.open_s", median(&tr.durations("snapshot.open")));
        r.insert("pipeline.restore_s", median(&tr.durations("pipeline.restore")));
        r.insert("serve.guards_ms_p50", ms("serve.guards", 0.5));
        r.insert("trace.overhead_s", loop_traced - median(&loop_s));
    }
    Ok(())
}

// --- gates and output ----------------------------------------------------

/// `name` next to the benchmark binary (inside the checkout's build
/// directory), created if missing.
fn out_dir(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("binary has no parent directory")?.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// FNV-1a 64.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a 64 over the bit patterns of `values`.
fn digest(values: &[f64]) -> u64 {
    fnv(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The digest committed for this workload and input set, if any.
fn pinned_digest(o: &Opts) -> Option<u64> {
    PINS.lines().filter(|l| !l.trim_start().starts_with('#')).find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == o.workload.name() && s.parse::<u64>().ok()? == o.input_seed)
            .then(|| u64::from_str_radix(d, 16).ok())?
    })
}

/// Compares this run's counters with the last run of the same binary,
/// workload, size and seed, then records them for the next run.
fn check_counters_across_runs(o: &Opts, code_id: u64, m: &mut Metrics) -> Result<(), String> {
    let dir = out_dir("perfbench-counters")?;
    let size = if o.smoke { "smoke" } else { "full" };
    let file = dir.join(format!("{code_id:016x}-{}-{size}-{}.txt", o.workload.name(), o.seed));
    let mut now = String::new();
    for (k, v) in &m.counters {
        let _ = writeln!(now, "{k} {v}");
    }
    match std::fs::read_to_string(&file) {
        Ok(before) if before != now => m.problems.push(format!(
            "work counters differ from an earlier run of this binary and seed ({}):\n{before}vs\n{now}",
            file.display()
        )),
        Ok(_) => {}
        Err(_) => std::fs::write(&file, &now).map_err(|e| format!("write {}: {e}", file.display()))?,
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_obj<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> =
        pairs.into_iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    format!("{{{}}}", body.join(","))
}

fn host_block(o: &Opts, code_id: u64, m: &Metrics) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    json_obj([
        ("nproc", nproc.to_string()),
        ("cm_threads", json_str(&env("CM_THREADS"))),
        ("profile", json_str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("rustc", json_str(&env("PERFBENCH_RUSTC"))),
        ("git_rev", json_str(&env("PERFBENCH_GIT_REV"))),
        ("code_id", json_str(&format!("{code_id:016x}"))),
        ("seed", o.seed.to_string()),
        ("input_seed", o.input_seed.to_string()),
        ("seconds", json_num(o.seconds)),
        ("size", json_str(if o.smoke { "smoke" } else { "full" })),
        ("samples", json_obj(m.samples.iter().map(|(k, v)| (*k, v.to_string())))),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let code_id = std::env::current_exe().and_then(std::fs::read).map(fnv).unwrap_or(0);
    let work = match out_dir(&format!("perfbench-work/{}", std::process::id())) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let sizes = o.sizes();
    match o.workload {
        Workload::PoolAnchored => run_pool(&o, sizes.anchored_rows, false, &mut tr, &mut m),
        Workload::PoolPropagation => run_pool(&o, sizes.propagation_rows, true, &mut tr, &mut m),
        Workload::ServeTicks => {
            if let Err(e) = run_serve(&o, &work, &mut tr, &mut m) {
                m.op(Some(e));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);

    let pinned = if o.smoke { None } else { pinned_digest(&o) };
    match (m.digest, pinned) {
        (Some(d), Some(p)) if d != p => {
            m.failed += 1;
            m.problems.push(format!("output digest {d:016x} differs from pinned {p:016x}"));
        }
        (Some(_), Some(_)) => {}
        (_, None) if !o.smoke => m.problems.push(format!(
            "no digest pinned for {} input set {}",
            o.workload.name(),
            o.input_seed
        )),
        _ => {}
    }
    if let Err(e) = check_counters_across_runs(&o, code_id, &mut m) {
        m.problems.push(e);
    }
    let mut trace_file = None;
    if o.trace {
        let file = out_dir("perfbench-traces")
            .map(|d| d.join(format!("{}-{}.jsonl", o.workload.name(), o.seed)));
        match file.and_then(|f| tr.write(&f).map(|()| f).map_err(|e| format!("write trace: {e}"))) {
            Ok(f) => trace_file = Some(f),
            Err(e) => m.problems.push(e),
        }
    }

    let correct = m.problems.is_empty() && m.failed == 0;
    let report = json_obj([
        ("workload", json_str(o.workload.name())),
        ("host", host_block(&o, code_id, &m)),
        ("metrics", json_obj(m.report.iter().map(|(k, v)| (*k, json_num(*v))))),
        ("failed_share", json_num(ratio(m.failed as f64, m.attempted as f64))),
        ("counters", json_obj(m.counters.iter().map(|(k, v)| (*k, v.to_string())))),
        ("digest", json_str(&m.digest.map_or("none".to_owned(), |d| format!("{d:016x}")))),
        ("trace_file", json_str(&trace_file.map_or(String::new(), |f| f.display().to_string()))),
        (
            "problems",
            format!("[{}]", m.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(",")),
        ),
    ]);
    println!("{}", json_obj([("perfbench", report)]));
    let names: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = json_obj(names.iter().map(|&(name, unit)| {
        let counter = m.counters.get(name).map(|&c| c as f64);
        let v = m.values.get(name).copied().or(counter).unwrap_or(0.0);
        (name, json_obj([("value", json_num(v)), ("unit", json_str(unit))]))
    }));
    println!(
        "{}",
        json_obj([
            ("correct", correct.to_string()),
            ("attempted", m.attempted.max(1).to_string()),
            ("failed", m.failed.to_string()),
            ("metrics", metrics),
        ])
    );
    for p in &m.problems {
        eprintln!("perfbench: {p}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
