//! Versioned checkpoint persistence for the incremental curation
//! service: a **base snapshot + append-only delta log** in the `cm-wire`
//! binary format, the only on-disk checkpoint format.
//!
//! A checkpoint persists exactly the *arrival-dependent* state of a run:
//! the stream cursor, the access-layer breaker/clock state, the curator's
//! accumulated pool + votes + EM warm parameters + online-graph routes,
//! any queued/deferred/quarantined batches, and the telemetry
//! accumulators. Everything clean-path (mined LFs, dev split, similarity
//! scales, seed vertices, the text corpus) is re-derived deterministically
//! on restart.
//!
//! ## One record type; the base is a fold
//!
//! Every frame holds one [`Checkpoint`] record, and every layer inside it
//! has one record type ([`IncrementalState`] for the curator,
//! [`OnlineGraphState`] for the propagation graph). Merging a record
//! ([`Checkpoint::merge`]) only appends rows — pool rows, votes, graph
//! routes and edges, batch statistics, latencies — or replaces scalars:
//! cursor, access state, in-flight batches, EM parameters, counters. A
//! base record ([`capture`], O(pool)) is the fold of every record since an
//! empty run; a delta record ([`capture_delta`], O(batch)) holds what grew
//! since the last durable record. Both go through one encoder and one
//! decoder; the frame tag only marks which record is the base.
//!
//! ## Log layout and recovery contract
//!
//! A checkpoint file is `[header][base frame][delta frame]*`: a 4-byte
//! magic + version varint ([`LOG_VERSION`]), then the base record, then
//! one delta record per tick. Every frame carries a trailing FNV-1a 64
//! checksum, so a crash mid-append leaves a *detectably* torn tail:
//! [`load_any`] folds base + deltas until the first truncated, corrupt or
//! ill-fitting frame, discards the tail, and resumes from the last
//! complete record — bit-identical to a run that never wrote it. A
//! checksum-valid record that does not fit the state it merges onto (pool
//! or graph rows that skip or repeat, graph presence that flips, a route
//! to an anchor that did not exist yet, an edge outside its rows) fails
//! the merge with a typed [`CmError`] and is handled exactly like a
//! corrupt tail. Base rewrites (compaction, policy in
//! [`CompactionPolicy`]) go through a sibling temp file + atomic rename,
//! so the base itself can never tear.
//!
//! All floats travel as raw IEEE-754 bits, so a restart resumes
//! *bit-identical* to an uninterrupted run. Any file that does not open
//! with the magic and the current version — earlier log versions and the
//! JSON text checkpoints of earlier releases among them — is refused with
//! an error and left untouched on disk.
//!
//! This module is the only place allowed to name [`Checkpoint`]: the
//! `checkpoint-drift` lint bans the identifier everywhere else, so
//! checkpointed state can only be produced by [`capture`]/[`capture_delta`]
//! and consumed through [`CheckpointStore`] — a token-level approximation
//! of "no direct field access to checkpointed state outside the snapshot
//! module".

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cm_faults::{AccessState, ServiceAccessState, ServiceStats};
use cm_featurespace::{
    CatSet, CmError, CmResult, ErrorKind, FeatureSchema, FeatureTable, FeatureValue, Label,
    ModalityKind,
};
use cm_labelmodel::WarmStart;
use cm_orgsim::ModalityDataset;
use cm_pipeline::{BatchStats, IncrementalState};
use cm_propagation::OnlineGraphState;
use cm_wire::{append_frame, fnv1a64, read_frame, read_header, write_header, Reader, Writer};

use crate::guards::QuarantinedBatch;
use crate::queue::{QueuedBatch, SheddingReport};

/// Version of the checkpoint log (header varint after the magic); the
/// loader rejects any other value. Bump whenever the serialized layout
/// *or* the clean-path re-derivation contract changes. Version 3: one
/// record layout for base and delta frames, graph state as per-row routes.
pub const LOG_VERSION: u32 = 3;

/// Magic bytes opening every checkpoint file.
const LOG_MAGIC: &[u8; 4] = b"CMCK";

/// Frame tag of the base snapshot record.
const TAG_BASE: u8 = 1;
/// Frame tag of a per-tick delta record.
const TAG_DELTA: u8 = 2;

/// Batches that arrived but have not been ingested: serialized verbatim
/// because regenerating them from the stream would re-draw fault RNG and
/// double-advance breaker state.
#[derive(Debug, Clone, Default)]
pub struct PendingWork {
    /// Admitted batches, oldest first.
    pub queue: Vec<QueuedBatch>,
    /// Watermark-deferred batches awaiting re-offer.
    pub deferred: Vec<QueuedBatch>,
    /// Guard-quarantined batches awaiting their retry tick.
    pub quarantine: Vec<QuarantinedBatch>,
}

/// Telemetry accumulators a resumed run must continue from.
#[derive(Debug, Clone, Default)]
pub struct ServeTelemetry {
    /// Admission-queue overload counters.
    pub shed: SheddingReport,
    /// Batches quarantined by the quality guards.
    pub quarantined: usize,
    /// Quarantined batches that later passed their retry.
    pub recovered: usize,
    /// Quarantined batches dropped after a failed retry.
    pub dropped: usize,
    /// Mean posterior entropy of the last ingested batch.
    pub last_entropy: Option<f64>,
    /// Per-batch ingest statistics, in ingest order.
    pub batch_stats: Vec<BatchStats>,
    /// Arrival-to-completion latency of each ingested batch (sim ms).
    pub latencies_ms: Vec<u64>,
}

/// One checkpoint record of a service run: the whole persisted state
/// after some tick when it is a base ([`capture`]), or what grew since the
/// last durable record when it is a delta ([`capture_delta`]).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Ticks completed before this checkpoint was taken.
    pub ticks: usize,
    /// Rows drawn from the arrival stream so far (stream fast-forward
    /// cursor: clean and fault-injected draws consume identical world-RNG
    /// counts, so a fresh stream discards this many rows to resume).
    pub rows_generated: usize,
    /// Access-layer breaker/clock/stats state.
    pub access: AccessState,
    /// The curator's record: pool rows from its `start_row` on.
    pub curator: IncrementalState,
    /// Batches in flight.
    pub pending: PendingWork,
    /// Telemetry accumulators; the vectors hold the record's entries only.
    pub telemetry: ServeTelemetry,
}

impl Checkpoint {
    /// The record of a run that has done nothing: what [`load_any`] folds
    /// a log onto.
    fn empty(schema: &Arc<FeatureSchema>, propagation: bool) -> Self {
        Checkpoint {
            ticks: 0,
            rows_generated: 0,
            access: AccessState { now_ms: 0, services: Vec::new() },
            curator: IncrementalState::empty(Arc::clone(schema), propagation),
            pending: PendingWork::default(),
            telemetry: ServeTelemetry::default(),
        }
    }

    /// Appends the next record: the curator's rows and the telemetry
    /// vectors append, everything else is replaced.
    ///
    /// # Errors
    /// Fails, leaving `self` unchanged, when the curator record does not
    /// fit this state ([`IncrementalState::merge`]).
    pub fn merge(&mut self, next: Checkpoint) -> CmResult<()> {
        self.curator.merge(next.curator)?;
        self.ticks = next.ticks;
        self.rows_generated = next.rows_generated;
        self.access = next.access;
        self.pending = next.pending;
        let (t, n) = (&mut self.telemetry, next.telemetry);
        t.shed = n.shed;
        t.quarantined = n.quarantined;
        t.recovered = n.recovered;
        t.dropped = n.dropped;
        t.last_entropy = n.last_entropy;
        t.batch_stats.extend(n.batch_stats);
        t.latencies_ms.extend(n.latencies_ms);
        Ok(())
    }
}

/// Assembles a base record from the service's live state: `curator` is
/// the record since pool row 0 and `telemetry` holds every entry.
pub fn capture(
    ticks: usize,
    rows_generated: usize,
    access: AccessState,
    curator: IncrementalState,
    pending: PendingWork,
    telemetry: ServeTelemetry,
) -> Checkpoint {
    Checkpoint { ticks, rows_generated, access, curator, pending, telemetry }
}

/// Assembles one tick's delta record: `curator` is the record since the
/// last durable export, and `stats_durable` / `latencies_durable` are the
/// telemetry vector lengths at the last durable record — only entries past
/// them are kept.
#[allow(clippy::too_many_arguments)]
pub fn capture_delta(
    ticks: usize,
    rows_generated: usize,
    access: AccessState,
    curator: IncrementalState,
    pending: PendingWork,
    telemetry: &ServeTelemetry,
    stats_durable: usize,
    latencies_durable: usize,
) -> Checkpoint {
    let telemetry = ServeTelemetry {
        shed: telemetry.shed.clone(),
        batch_stats: telemetry.batch_stats[stats_durable..].to_vec(),
        latencies_ms: telemetry.latencies_ms[latencies_durable..].to_vec(),
        ..*telemetry
    };
    capture(ticks, rows_generated, access, curator, pending, telemetry)
}

// --- wire encoding -------------------------------------------------------

fn wire_err(e: cm_wire::WireError) -> CmError {
    CmError::new(ErrorKind::InvalidConfig, "snapshot::wire", e.to_string())
}

fn bad_wire(message: impl Into<String>) -> CmError {
    CmError::new(ErrorKind::InvalidConfig, "snapshot::wire", message.into())
}

/// Writes a length-prefixed list.
fn enc_list<T>(w: &mut Writer, items: &[T], mut enc: impl FnMut(&mut Writer, &T)) {
    w.usizev(items.len());
    for item in items {
        enc(w, item);
    }
}

/// Reads a length-prefixed list. Every element takes at least one byte,
/// so the capacity hint is capped by the bytes left: a forged length
/// cannot force a huge allocation.
fn dec_list<'a, T>(
    r: &mut Reader<'a>,
    mut dec: impl FnMut(&mut Reader<'a>) -> CmResult<T>,
) -> CmResult<Vec<T>> {
    let n = r.usizev().map_err(wire_err)?;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(dec(r)?);
    }
    Ok(out)
}

/// Writes an optional value behind a presence flag.
fn enc_opt<T>(w: &mut Writer, value: Option<&T>, enc: impl FnOnce(&mut Writer, &T)) {
    w.bool(value.is_some());
    if let Some(v) = value {
        enc(w, v);
    }
}

/// Reads an optional value behind a presence flag.
fn dec_opt<'a, T>(
    r: &mut Reader<'a>,
    dec: impl FnOnce(&mut Reader<'a>) -> CmResult<T>,
) -> CmResult<Option<T>> {
    if r.bool().map_err(wire_err)? {
        dec(r).map(Some)
    } else {
        Ok(None)
    }
}

fn dec_u32(r: &mut Reader<'_>) -> CmResult<u32> {
    r.u32v().map_err(wire_err)
}

fn dec_u64(r: &mut Reader<'_>) -> CmResult<u64> {
    r.u64v().map_err(wire_err)
}

fn dec_usize(r: &mut Reader<'_>) -> CmResult<usize> {
    r.usizev().map_err(wire_err)
}

fn dec_f64(r: &mut Reader<'_>) -> CmResult<f64> {
    r.f64b().map_err(wire_err)
}

fn enc_value(w: &mut Writer, value: &FeatureValue) {
    match value {
        FeatureValue::Missing => w.u8(0),
        FeatureValue::Numeric(x) => {
            w.u8(1);
            w.f64b(*x);
        }
        FeatureValue::Categorical(set) => {
            w.u8(2);
            enc_list(w, &set.iter().collect::<Vec<u32>>(), |w, &id| w.u32v(id));
        }
        FeatureValue::Embedding(e) => {
            w.u8(3);
            enc_list(w, e, |w, &x| w.f32b(x));
        }
    }
}

fn dec_value(r: &mut Reader<'_>) -> CmResult<FeatureValue> {
    match r.u8().map_err(wire_err)? {
        0 => Ok(FeatureValue::Missing),
        1 => Ok(FeatureValue::Numeric(dec_f64(r)?)),
        2 => {
            let mut set = CatSet::new();
            for id in dec_list(r, dec_u32)? {
                set.insert(id);
            }
            Ok(FeatureValue::Categorical(set))
        }
        3 => Ok(FeatureValue::Embedding(dec_list(r, |r| r.f32b().map_err(wire_err))?)),
        t => Err(bad_wire(format!("unknown feature-value tag {t}"))),
    }
}

fn enc_dataset(w: &mut Writer, ds: &ModalityDataset) {
    w.u8(match ds.modality {
        ModalityKind::Text => 0,
        ModalityKind::Image => 1,
        ModalityKind::Video => 2,
    });
    w.usizev(ds.table.len());
    for r in 0..ds.table.len() {
        enc_list(w, &ds.table.row(r), enc_value);
    }
    enc_list(w, &ds.labels, |w, l| w.u8(u8::from(l.is_positive())));
    enc_list(w, &ds.borderline, |w, &b| w.bool(b));
}

fn dec_dataset(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<ModalityDataset> {
    let modality = match r.u8().map_err(wire_err)? {
        0 => ModalityKind::Text,
        1 => ModalityKind::Image,
        2 => ModalityKind::Video,
        t => return Err(bad_wire(format!("unknown modality tag {t}"))),
    };
    let n_rows = dec_usize(r)?;
    let mut table = FeatureTable::new(schema.clone());
    for _ in 0..n_rows {
        table.try_push_row(&dec_list(r, dec_value)?)?;
    }
    let labels = dec_list(r, |r| match r.u8().map_err(wire_err)? {
        1 => Ok(Label::Positive),
        0 => Ok(Label::Negative),
        t => Err(bad_wire(format!("unknown label byte {t}"))),
    })?;
    let borderline = dec_list(r, |r| r.bool().map_err(wire_err))?;
    if labels.len() != n_rows || borderline.len() != n_rows {
        return Err(bad_wire(format!(
            "dataset of {n_rows} rows carries {} labels and {} borderline flags",
            labels.len(),
            borderline.len()
        )));
    }
    Ok(ModalityDataset { modality, table, labels, borderline })
}

fn enc_queued(w: &mut Writer, item: &QueuedBatch) {
    enc_dataset(w, &item.batch);
    w.u64v(item.arrival_ms);
    w.u32v(item.deferrals);
}

fn dec_queued(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<QueuedBatch> {
    Ok(QueuedBatch {
        batch: dec_dataset(r, schema)?,
        arrival_ms: dec_u64(r)?,
        deferrals: dec_u32(r)?,
    })
}

fn enc_quarantined(w: &mut Writer, q: &QuarantinedBatch) {
    enc_queued(w, &q.item);
    w.usizev(q.retry_tick);
    w.u32v(q.attempts);
    enc_list(w, &q.reasons, |w, reason| w.str(reason));
}

fn dec_quarantined(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<QuarantinedBatch> {
    Ok(QuarantinedBatch {
        item: dec_queued(r, schema)?,
        retry_tick: dec_usize(r)?,
        attempts: dec_u32(r)?,
        reasons: dec_list(r, |r| r.str().map_err(wire_err))?,
    })
}

fn enc_pending(w: &mut Writer, p: &PendingWork) {
    enc_list(w, &p.queue, enc_queued);
    enc_list(w, &p.deferred, enc_queued);
    enc_list(w, &p.quarantine, enc_quarantined);
}

fn dec_pending(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<PendingWork> {
    Ok(PendingWork {
        queue: dec_list(r, |r| dec_queued(r, schema))?,
        deferred: dec_list(r, |r| dec_queued(r, schema))?,
        quarantine: dec_list(r, |r| dec_quarantined(r, schema))?,
    })
}

fn enc_service_stats(w: &mut Writer, s: &ServiceStats) {
    w.str(&s.name);
    w.str(&s.mode);
    w.f64b(s.rate);
    for v in [
        s.calls,
        s.faulted,
        s.recovered,
        s.lost,
        s.corrupt_detected,
        s.stale_served,
        s.short_circuited,
        s.probes,
        s.reopened,
        s.retries,
        s.sim_wait_ms,
    ] {
        w.u64v(v);
    }
    w.bool(s.tripped);
}

fn dec_service_stats(r: &mut Reader<'_>) -> CmResult<ServiceStats> {
    Ok(ServiceStats {
        name: r.str().map_err(wire_err)?,
        mode: r.str().map_err(wire_err)?,
        rate: dec_f64(r)?,
        calls: dec_u64(r)?,
        faulted: dec_u64(r)?,
        recovered: dec_u64(r)?,
        lost: dec_u64(r)?,
        corrupt_detected: dec_u64(r)?,
        stale_served: dec_u64(r)?,
        short_circuited: dec_u64(r)?,
        probes: dec_u64(r)?,
        reopened: dec_u64(r)?,
        retries: dec_u64(r)?,
        sim_wait_ms: dec_u64(r)?,
        tripped: r.bool().map_err(wire_err)?,
    })
}

fn enc_access(w: &mut Writer, a: &AccessState) {
    w.u64v(a.now_ms);
    enc_list(w, &a.services, |w, s| {
        w.str(&s.name);
        w.u32v(s.consecutive_lost);
        w.bool(s.open);
        w.u64v(s.opened_at_ms);
        enc_opt(w, s.snapshot.as_ref(), enc_value);
        enc_service_stats(w, &s.stats);
    });
}

fn dec_access(r: &mut Reader<'_>) -> CmResult<AccessState> {
    Ok(AccessState {
        now_ms: dec_u64(r)?,
        services: dec_list(r, |r| {
            Ok(ServiceAccessState {
                name: r.str().map_err(wire_err)?,
                consecutive_lost: dec_u32(r)?,
                open: r.bool().map_err(wire_err)?,
                opened_at_ms: dec_u64(r)?,
                snapshot: dec_opt(r, dec_value)?,
                stats: dec_service_stats(r)?,
            })
        })?,
    })
}

fn enc_warm(w: &mut Writer, ws: &WarmStart) {
    enc_list(w, &ws.accuracies, |w, &a| w.f64b(a));
    w.f64b(ws.class_prior);
}

fn dec_warm(r: &mut Reader<'_>) -> CmResult<WarmStart> {
    Ok(WarmStart { accuracies: dec_list(r, dec_f64)?, class_prior: dec_f64(r)? })
}

fn enc_graph_record(w: &mut Writer, g: &OnlineGraphState) {
    w.usizev(g.start_row);
    enc_list(w, &g.routes, |w, route| enc_list(w, route, |w, &a| w.u32v(a)));
    enc_list(w, &g.edges, |w, &(a, b, weight)| {
        w.u32v(a);
        w.u32v(b);
        w.f32b(weight);
    });
}

fn dec_graph_record(r: &mut Reader<'_>) -> CmResult<OnlineGraphState> {
    Ok(OnlineGraphState {
        start_row: dec_usize(r)?,
        routes: dec_list(r, |r| dec_list(r, dec_u32))?,
        edges: dec_list(r, |r| Ok((dec_u32(r)?, dec_u32(r)?, r.f32b().map_err(wire_err)?)))?,
    })
}

fn enc_curator(w: &mut Writer, s: &IncrementalState) {
    w.usizev(s.n_batches);
    w.usizev(s.start_row);
    enc_dataset(w, &s.pool);
    enc_list(w, &s.votes, |w, &v| w.u8(v as u8));
    enc_opt(w, s.em_warm.as_ref(), enc_warm);
    w.usizev(s.em_iterations);
    enc_opt(w, s.graph.as_ref(), enc_graph_record);
}

fn dec_curator(r: &mut Reader<'_>, schema: &Arc<FeatureSchema>) -> CmResult<IncrementalState> {
    Ok(IncrementalState {
        n_batches: dec_usize(r)?,
        start_row: dec_usize(r)?,
        pool: dec_dataset(r, schema)?,
        votes: dec_votes(r)?,
        em_warm: dec_opt(r, dec_warm)?,
        em_iterations: dec_usize(r)?,
        graph: dec_opt(r, dec_graph_record)?,
    })
}

/// Vote bytes: `0x01`, `0x00` and `0xFF` are the encodings of `+1`, `0`
/// and `-1`; any other byte is refused, since a restore would panic on it.
fn dec_votes(r: &mut Reader<'_>) -> CmResult<Vec<i8>> {
    r.bytes()
        .map_err(wire_err)?
        .iter()
        .map(|&b| match b as i8 {
            v @ -1..=1 => Ok(v),
            _ => Err(bad_wire(format!("vote byte {b:#04x} is not -1, 0 or +1"))),
        })
        .collect()
}

fn enc_batch_stats(w: &mut Writer, s: &BatchStats) {
    w.usizev(s.batch_index);
    w.usizev(s.rows);
    w.usizev(s.total_rows);
    w.f64b(s.coverage);
    w.f64b(s.abstain_rate);
    w.f64b(s.mean_entropy);
    w.usizev(s.em_iterations);
}

fn dec_batch_stats(r: &mut Reader<'_>) -> CmResult<BatchStats> {
    Ok(BatchStats {
        batch_index: dec_usize(r)?,
        rows: dec_usize(r)?,
        total_rows: dec_usize(r)?,
        coverage: dec_f64(r)?,
        abstain_rate: dec_f64(r)?,
        mean_entropy: dec_f64(r)?,
        em_iterations: dec_usize(r)?,
    })
}

fn enc_telemetry(w: &mut Writer, t: &ServeTelemetry) {
    let s = &t.shed;
    for v in
        [s.offered, s.admitted, s.deferred, s.shed_batches, s.shed_rows, s.peak_depth, s.peak_bytes]
    {
        w.usizev(v);
    }
    w.usizev(t.quarantined);
    w.usizev(t.recovered);
    w.usizev(t.dropped);
    enc_opt(w, t.last_entropy.as_ref(), |w, &x| w.f64b(x));
    enc_list(w, &t.batch_stats, enc_batch_stats);
    enc_list(w, &t.latencies_ms, |w, &l| w.u64v(l));
}

fn dec_telemetry(r: &mut Reader<'_>) -> CmResult<ServeTelemetry> {
    Ok(ServeTelemetry {
        shed: SheddingReport {
            offered: dec_usize(r)?,
            admitted: dec_usize(r)?,
            deferred: dec_usize(r)?,
            shed_batches: dec_usize(r)?,
            shed_rows: dec_usize(r)?,
            peak_depth: dec_usize(r)?,
            peak_bytes: dec_usize(r)?,
        },
        quarantined: dec_usize(r)?,
        recovered: dec_usize(r)?,
        dropped: dec_usize(r)?,
        last_entropy: dec_opt(r, dec_f64)?,
        batch_stats: dec_list(r, dec_batch_stats)?,
        latencies_ms: dec_list(r, dec_u64)?,
    })
}

/// Appends one record to `out` as a frame with the given tag.
fn append_record(out: &mut Writer, tag: u8, cp: &Checkpoint) {
    let mut payload = Writer::new();
    payload.usizev(cp.ticks);
    payload.usizev(cp.rows_generated);
    enc_access(&mut payload, &cp.access);
    enc_curator(&mut payload, &cp.curator);
    enc_pending(&mut payload, &cp.pending);
    enc_telemetry(&mut payload, &cp.telemetry);
    append_frame(out, tag, payload.as_bytes());
}

/// Encodes a complete wire-format file: header + one base frame.
fn encode_base_file(cp: &Checkpoint) -> Vec<u8> {
    let mut out = Writer::new();
    write_header(&mut out, LOG_MAGIC, LOG_VERSION);
    append_record(&mut out, TAG_BASE, cp);
    out.into_bytes()
}

/// Encodes one delta frame (no header — appended to an existing file).
fn encode_delta_frame(cp: &Checkpoint) -> Vec<u8> {
    let mut out = Writer::new();
    append_record(&mut out, TAG_DELTA, cp);
    out.into_bytes()
}

/// Decodes one record's payload, base and delta alike.
fn dec_record(payload: &[u8], schema: &Arc<FeatureSchema>) -> CmResult<Checkpoint> {
    let mut r = Reader::new(payload);
    let cp = Checkpoint {
        ticks: r.usizev().map_err(wire_err)?,
        rows_generated: r.usizev().map_err(wire_err)?,
        access: dec_access(&mut r)?,
        curator: dec_curator(&mut r, schema)?,
        pending: dec_pending(&mut r, schema)?,
        telemetry: dec_telemetry(&mut r)?,
    };
    if !r.is_empty() {
        return Err(bad_wire(format!("{} trailing bytes after record", r.remaining())));
    }
    Ok(cp)
}

// --- log recovery --------------------------------------------------------

/// Result of recovering a checkpoint file: the merged state (base + every
/// complete delta) plus enough layout information for the
/// [`CheckpointStore`] to continue appending where the log left off.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The merged, replayed checkpoint state.
    pub checkpoint: Checkpoint,
    /// Bytes of the header + base frame.
    pub base_bytes: usize,
    /// Bytes through the last complete record; anything past this is a
    /// torn tail the caller must truncate before appending.
    pub valid_bytes: usize,
    /// Delta records applied on top of the base.
    pub deltas: usize,
}

/// Recovers a checkpoint from raw file bytes.
///
/// Folds the base and then every delta onto the empty record until the
/// first truncated, corrupt or ill-fitting frame; that tail is
/// *discarded* (reported via `valid_bytes`), recovering to the last
/// durable tick. A torn, corrupt or ill-fitting **base** frame is
/// unrecoverable and errors — base rewrites are atomic, so only
/// deliberate corruption produces one.
///
/// # Errors
/// Fails on a bad magic/version header (earlier log versions and JSON
/// text checkpoints among them) or a base frame that is torn, corrupt or
/// not a record since an empty run.
pub fn load_any(bytes: &[u8], schema: &Arc<FeatureSchema>) -> CmResult<RecoveredLog> {
    let mut r = Reader::new(bytes);
    let version = read_header(&mut r, LOG_MAGIC).map_err(wire_err)?;
    if version != LOG_VERSION {
        return Err(bad_wire(format!(
            "unsupported checkpoint log version {version} (expected {LOG_VERSION})"
        )));
    }
    let base = read_frame(&mut r).map_err(wire_err)?;
    if base.tag != TAG_BASE {
        return Err(bad_wire(format!("first frame has tag {} (expected base)", base.tag)));
    }
    let base = dec_record(base.payload, schema)?;
    let mut checkpoint = Checkpoint::empty(schema, base.curator.graph.is_some());
    checkpoint.merge(base)?;
    let base_bytes = r.pos();
    let mut valid_bytes = base_bytes;
    let mut deltas = 0usize;
    while !r.is_empty() {
        // A torn or corrupt tail record — torn mid-append by a crash, or
        // deliberately bit-flipped — fails the frame checksum or payload
        // decode; a checksum-valid record that does not fit the state
        // fails the merge, which leaves the state untouched. Everything
        // from such a record on is discarded.
        let mut attempt = r.clone();
        let Ok(frame) = read_frame(&mut attempt) else { break };
        if frame.tag != TAG_DELTA {
            break;
        }
        let Ok(delta) = dec_record(frame.payload, schema) else { break };
        if checkpoint.merge(delta).is_err() {
            break;
        }
        r = attempt;
        valid_bytes = r.pos();
        deltas += 1;
    }
    Ok(RecoveredLog { checkpoint, base_bytes, valid_bytes, deltas })
}

// --- the store -----------------------------------------------------------

/// On-disk checkpoint representation. The `cm-wire` log is the only one;
/// the enum survives so that callers of [`CheckpointStore::open`] that
/// name the format (the `perfbench` harness among them) keep compiling.
/// The store ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFormat {
    /// `cm-wire` binary base + append-only delta log.
    Wire,
}

/// When the delta log is folded back into a fresh base snapshot. Both
/// bounds cap *recovery* cost (replay work is proportional to log length);
/// steady-state append cost stays O(batch) regardless.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Rewrite the base after this many delta appends
    /// (`CM_CKPT_COMPACT_TICKS`).
    pub every_ticks: usize,
    /// Rewrite the base when the whole file exceeds this multiple of the
    /// base record's size (`CM_CKPT_COMPACT_FACTOR`).
    pub max_log_factor: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { every_ticks: 32, max_log_factor: 4.0 }
    }
}

/// Owns a checkpoint file: atomic base rewrites, checksummed delta
/// appends, compaction bookkeeping, and torn-tail recovery on open. The
/// only way service code reads or writes checkpointed state.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    policy: CompactionPolicy,
    /// Header + base frame bytes in the current file (0 = fresh file, so
    /// the next commit writes a base).
    base_bytes: usize,
    /// Valid file length (through the last complete record).
    file_bytes: usize,
    deltas_since_base: usize,
}

impl CheckpointStore {
    /// Opens a checkpoint store over `path`. If the file exists its state
    /// is recovered ([`load_any`]) and any torn tail is truncated away so
    /// later appends start at a record boundary; a missing file yields a
    /// fresh store and `None`. A file that fails to recover is left
    /// exactly as it was.
    ///
    /// # Errors
    /// Propagates recovery errors and filesystem errors.
    pub fn open(
        path: &Path,
        _format: CheckpointFormat,
        policy: CompactionPolicy,
        schema: &Arc<FeatureSchema>,
    ) -> CmResult<(Self, Option<Checkpoint>)> {
        let mut store = CheckpointStore {
            path: path.to_path_buf(),
            policy,
            base_bytes: 0,
            file_bytes: 0,
            deltas_since_base: 0,
        };
        if !path.exists() {
            return Ok((store, None));
        }
        let bytes = std::fs::read(path).map_err(|e| store.io_err("read", &e))?;
        if bytes.is_empty() {
            return Ok((store, None));
        }
        let recovered = load_any(&bytes, schema)?;
        if recovered.valid_bytes < bytes.len() {
            // Drop the torn tail now so the next append starts clean.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| store.io_err("open for truncate", &e))?;
            f.set_len(recovered.valid_bytes as u64).map_err(|e| store.io_err("truncate", &e))?;
        }
        store.base_bytes = recovered.base_bytes;
        store.file_bytes = recovered.valid_bytes;
        store.deltas_since_base = recovered.deltas;
        Ok((store, Some(recovered.checkpoint)))
    }

    fn io_err(&self, op: &str, e: &std::io::Error) -> CmError {
        CmError::new(
            ErrorKind::InvalidConfig,
            "CheckpointStore",
            format!("{op} {}: {e}", self.path.display()),
        )
    }

    /// Whether the next commit must be a full base rewrite: on a fresh
    /// file, and when the compaction policy says the log has grown past
    /// its recovery-cost budget.
    pub fn needs_base(&self) -> bool {
        self.base_bytes == 0
            || self.deltas_since_base >= self.policy.every_ticks
            || self.file_bytes as f64 >= self.base_bytes as f64 * self.policy.max_log_factor
    }

    /// Writes a full base snapshot atomically: encode to a sibling temp
    /// file, then rename into place, so a crash at any instant leaves
    /// either the old complete file or the new one — never a torn base.
    /// Returns the bytes written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn commit_base(&mut self, cp: &Checkpoint) -> CmResult<usize> {
        let bytes = encode_base_file(cp);
        let mut tmp_name = self.path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        std::fs::write(&tmp, &bytes).map_err(|e| self.io_err("write temp", &e))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| self.io_err("rename", &e))?;
        self.base_bytes = bytes.len();
        self.file_bytes = bytes.len();
        self.deltas_since_base = 0;
        Ok(bytes.len())
    }

    /// Appends one delta record to the log — O(batch), the steady-state
    /// checkpoint write. A crash mid-append leaves a torn tail that
    /// [`CheckpointStore::open`] detects by checksum and discards.
    /// Returns the bytes written.
    ///
    /// # Errors
    /// Fails if no base has been committed, and on filesystem errors.
    pub fn commit_delta(&mut self, delta: &Checkpoint) -> CmResult<usize> {
        if self.base_bytes == 0 {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                "CheckpointStore",
                "delta append without a base (call commit_base first)",
            ));
        }
        let frame = encode_delta_frame(delta);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| self.io_err("open for append", &e))?;
        f.write_all(&frame).map_err(|e| self.io_err("append", &e))?;
        self.file_bytes += frame.len();
        self.deltas_since_base += 1;
        Ok(frame.len())
    }

    /// Content digest of the current file (test/debug aid).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn digest(&self) -> CmResult<u64> {
        let bytes = std::fs::read(&self.path).map_err(|e| self.io_err("read", &e))?;
        Ok(fnv1a64(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use cm_faults::ServiceAccessState;
    use cm_featurespace::{FeatureDef, FeatureSet, ServingMode, Vocabulary};
    use cm_pipeline::BatchStats;

    use super::*;

    /// The JSON text checkpoint that [`fixture`] serialized to before the
    /// wire log became the only format.
    const JSON_CHECKPOINT: &str = include_str!("../testdata/json_checkpoint_v1.json");

    fn schema() -> Arc<FeatureSchema> {
        Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::numeric("x", FeatureSet::A, ServingMode::Servable),
            FeatureDef::categorical(
                "c",
                FeatureSet::A,
                ServingMode::Servable,
                Vocabulary::from_names(["v0", "v1", "v2", "v3", "v4", "v5"]),
            ),
            FeatureDef::embedding("e", 2, FeatureSet::B, ServingMode::Servable),
        ]))
    }

    fn dataset(schema: &Arc<FeatureSchema>) -> ModalityDataset {
        let mut table = FeatureTable::new(schema.clone());
        let mut cats = CatSet::new();
        cats.insert(3);
        cats.insert(5);
        table.push_row(&[
            FeatureValue::Numeric(1.0 / 3.0),
            FeatureValue::Categorical(cats),
            FeatureValue::Embedding(vec![0.1, -2.5]),
        ]);
        table.push_row(&[
            FeatureValue::Missing,
            FeatureValue::Missing,
            FeatureValue::Embedding(vec![std::f32::consts::E, 0.0]),
        ]);
        ModalityDataset {
            modality: ModalityKind::Image,
            table,
            labels: vec![Label::Positive, Label::Negative],
            borderline: vec![false, true],
        }
    }

    fn fixture() -> Checkpoint {
        let schema = schema();
        let ds = dataset(&schema);
        let item = QueuedBatch { batch: ds.clone(), arrival_ms: 120, deferrals: 1 };
        capture(
            7,
            420,
            AccessState {
                now_ms: 910,
                // One stale snapshot of every feature-value kind.
                services: [
                    FeatureValue::Numeric(0.25),
                    FeatureValue::Categorical(CatSet::single(3)),
                    FeatureValue::Embedding(vec![0.1, -2.5, f32::MIN_POSITIVE]),
                    FeatureValue::Missing,
                ]
                .into_iter()
                .enumerate()
                .map(|(i, snapshot)| ServiceAccessState {
                    name: format!("service-{i}"),
                    consecutive_lost: 2,
                    open: i == 0,
                    opened_at_ms: 640,
                    snapshot: Some(snapshot),
                    stats: Default::default(),
                })
                .collect(),
            },
            IncrementalState {
                n_batches: 3,
                start_row: 0,
                pool: ds.clone(),
                votes: vec![1, 0, -1, 1, 0, -1],
                em_warm: Some(WarmStart {
                    accuracies: vec![1.0 / 3.0, 0.7251, 2.0 / 7.0],
                    class_prior: 0.123_456_789,
                }),
                em_iterations: 20,
                // Rows 0..5 of the graph: row `i` sees `i` anchors.
                graph: Some(OnlineGraphState {
                    start_row: 0,
                    routes: vec![vec![], vec![0], vec![1, 0], vec![2], vec![0, 3]],
                    edges: vec![(1, 0, 0.25), (4, 3, 0.125)],
                }),
            },
            PendingWork {
                queue: vec![item.clone()],
                deferred: vec![],
                quarantine: vec![QuarantinedBatch {
                    item,
                    retry_tick: 9,
                    attempts: 1,
                    reasons: vec!["coverage 0.0000 below minimum 0.0200".to_owned()],
                }],
            },
            ServeTelemetry {
                shed: SheddingReport {
                    offered: 5,
                    admitted: 3,
                    shed_rows: 7,
                    ..Default::default()
                },
                quarantined: 1,
                recovered: 0,
                dropped: 0,
                last_entropy: Some(0.631_234),
                batch_stats: vec![BatchStats {
                    batch_index: 0,
                    rows: 2,
                    total_rows: 2,
                    coverage: 0.5,
                    abstain_rate: 1.0 / 7.0,
                    mean_entropy: 0.6,
                    em_iterations: 40,
                }],
                latencies_ms: vec![15, 30],
            },
        )
    }

    fn delta_fixture(base: &Checkpoint) -> Checkpoint {
        let schema = schema();
        let ds = dataset(&schema);
        capture_delta(
            base.ticks + 1,
            base.rows_generated + 2,
            AccessState { now_ms: 990, services: base.access.services.clone() },
            IncrementalState {
                n_batches: base.curator.n_batches + 1,
                start_row: base.curator.pool.len(),
                pool: ds,
                votes: vec![1, -1, 0, 0, 1, -1],
                em_warm: Some(WarmStart { accuracies: vec![0.5, 0.625, 0.75], class_prior: 0.25 }),
                em_iterations: 11,
                graph: Some(OnlineGraphState {
                    start_row: 5,
                    routes: vec![vec![0, 4], vec![1]],
                    edges: vec![(5, 0, 0.5), (6, 3, 0.0625)],
                }),
            },
            PendingWork::default(),
            &ServeTelemetry {
                shed: SheddingReport { offered: 6, admitted: 4, ..Default::default() },
                quarantined: 1,
                recovered: 1,
                dropped: 0,
                last_entropy: Some(0.25),
                batch_stats: vec![
                    base.telemetry.batch_stats[0].clone(),
                    BatchStats {
                        batch_index: 1,
                        rows: 2,
                        total_rows: 4,
                        coverage: 1.0,
                        abstain_rate: 0.125,
                        mean_entropy: 0.25,
                        em_iterations: 11,
                    },
                ],
                latencies_ms: vec![15, 30, 45],
            },
            1,
            2,
        )
    }

    #[test]
    fn wire_base_round_trips_bit_exactly() {
        let cp = fixture();
        let bytes = encode_base_file(&cp);
        let rec = load_any(&bytes, &schema()).expect("recover");
        assert_eq!(rec.deltas, 0);
        assert_eq!(rec.valid_bytes, bytes.len());
        assert_eq!(rec.base_bytes, bytes.len());
        // Re-encoding the recovered state reproduces the bytes exactly.
        assert_eq!(encode_base_file(&rec.checkpoint), bytes);
        assert_eq!(rec.checkpoint.curator.votes, cp.curator.votes);
        assert_eq!(
            rec.checkpoint.curator.em_warm.as_ref().map(|w| w.accuracies[0].to_bits()),
            Some((1.0f64 / 3.0).to_bits())
        );
        assert_eq!(rec.checkpoint.pending.quarantine[0].retry_tick, 9);
        assert_eq!(rec.checkpoint.telemetry.latencies_ms, vec![15, 30]);
        assert_eq!(rec.checkpoint.access.services[0].opened_at_ms, 640);
        // Every feature-value kind survives as a stale snapshot.
        assert_eq!(rec.checkpoint.access, cp.access);
    }

    #[test]
    fn delta_replay_merges_onto_the_base() {
        let cp = fixture();
        let delta = delta_fixture(&cp);
        let mut bytes = encode_base_file(&cp);
        bytes.extend_from_slice(&encode_delta_frame(&delta));
        let rec = load_any(&bytes, &schema()).expect("recover");
        assert_eq!(rec.deltas, 1);
        assert_eq!(rec.valid_bytes, bytes.len());
        let got = rec.checkpoint;
        assert_eq!(got.ticks, cp.ticks + 1);
        assert_eq!(got.rows_generated, cp.rows_generated + 2);
        assert_eq!(got.curator.n_batches, cp.curator.n_batches + 1);
        assert_eq!(got.curator.pool.len(), cp.curator.pool.len() + 2);
        assert_eq!(got.curator.votes.len(), cp.curator.votes.len() + 6);
        assert_eq!(got.telemetry.batch_stats.len(), 2);
        assert_eq!(got.telemetry.latencies_ms, vec![15, 30, 45]);
        let graph = got.curator.graph.expect("graph");
        assert_eq!(graph.start_row, 0);
        assert_eq!(graph.routes.len(), 7);
        assert_eq!(graph.routes[5], vec![0, 4]);
        assert_eq!(graph.edges.len(), 4);
    }

    #[test]
    fn torn_tail_recovers_to_the_previous_record_at_every_offset() {
        let cp = fixture();
        let delta = delta_fixture(&cp);
        let base = encode_base_file(&cp);
        let frame = encode_delta_frame(&delta);
        let mut full = base.clone();
        full.extend_from_slice(&frame);
        // Reference: what a run that never appended the delta persisted.
        let reference = load_any(&base, &schema()).expect("base only");
        for cut in 0..frame.len() {
            let torn = &full[..base.len() + cut];
            let rec = load_any(torn, &schema()).expect("torn tail must still recover");
            assert_eq!(rec.deltas, 0, "cut at {cut}");
            assert_eq!(rec.valid_bytes, base.len(), "cut at {cut}");
            assert_eq!(
                encode_base_file(&rec.checkpoint),
                encode_base_file(&reference.checkpoint),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_tail_recovers_to_the_previous_record_at_every_offset() {
        let cp = fixture();
        let delta = delta_fixture(&cp);
        let base = encode_base_file(&cp);
        let frame = encode_delta_frame(&delta);
        for byte in 0..frame.len() {
            let mut bytes = base.clone();
            let mut bad = frame.clone();
            bad[byte] ^= 0x40;
            bytes.extend_from_slice(&bad);
            let rec = load_any(&bytes, &schema()).expect("corrupt tail must still recover");
            assert_eq!(rec.deltas, 0, "flip at {byte}");
            assert_eq!(rec.valid_bytes, base.len(), "flip at {byte}");
        }
    }

    /// The delta's frame with the first payload byte where encoding the
    /// `edit`ed delta differs changed to the edited value, resealed with a
    /// fresh checksum: a checksum-valid frame one byte away from the
    /// honest one.
    fn resealed(delta: &Checkpoint, edit: impl FnOnce(&mut Checkpoint)) -> Vec<u8> {
        let payload = |cp: &Checkpoint| {
            let frame = encode_delta_frame(cp);
            read_frame(&mut Reader::new(&frame)).expect("frame").payload.to_vec()
        };
        let mut edited = delta.clone();
        edit(&mut edited);
        let (mut bytes, changed) = (payload(delta), payload(&edited));
        let at = bytes.iter().zip(&changed).position(|(a, b)| a != b).expect("edit changes bytes");
        bytes[at] = changed[at];
        let mut out = Writer::new();
        append_frame(&mut out, TAG_DELTA, &bytes);
        out.into_bytes()
    }

    #[test]
    fn resealed_delta_that_does_not_fit_recovers_to_the_base() {
        let cp = fixture();
        let delta = delta_fixture(&cp);
        let base = encode_base_file(&cp);
        let reference = load_any(&base, &schema()).expect("base only");
        fn graph(d: &mut Checkpoint) -> &mut OnlineGraphState {
            d.curator.graph.as_mut().expect("graph")
        }
        let edits: [(&str, Box<dyn FnOnce(&mut Checkpoint)>); 6] = [
            ("graph-presence byte", Box::new(|d| d.curator.graph = None)),
            // Row 6 is inserted with 6 anchors in the pool.
            ("anchor index", Box::new(|d| graph(d).routes[1] = vec![9])),
            ("graph start row", Box::new(|d| graph(d).start_row = 6)),
            ("edge target", Box::new(|d| graph(d).edges[1].1 = 7)),
            ("pool start row", Box::new(|d| d.curator.start_row = 3)),
            // Encoded as the byte 0x05, which no vote has.
            ("vote byte", Box::new(|d| d.curator.votes[0] = 5)),
        ];
        for (what, edit) in edits {
            let mut bytes = base.clone();
            bytes.extend_from_slice(&resealed(&delta, edit));
            let rec = load_any(&bytes, &schema()).expect("an ill-fitting tail must recover");
            assert_eq!(rec.deltas, 0, "{what}");
            assert_eq!(rec.valid_bytes, base.len(), "{what}");
            assert_eq!(
                encode_base_file(&rec.checkpoint),
                encode_base_file(&reference.checkpoint),
                "{what}"
            );
        }
    }

    #[test]
    fn load_any_rejects_bad_magic_and_version() {
        let cp = fixture();
        let mut bytes = encode_base_file(&cp);
        bytes[0] = b'X';
        assert!(load_any(&bytes, &schema()).is_err());
        let mut w = Writer::new();
        write_header(&mut w, LOG_MAGIC, LOG_VERSION + 1);
        assert!(load_any(w.as_bytes(), &schema()).is_err());
        assert!(load_any(JSON_CHECKPOINT.as_bytes(), &schema()).is_err());
        // A version-2 log (separate base and delta layouts) is refused
        // with a typed error, and the store leaves the file as it was.
        let mut v2 = Writer::new();
        write_header(&mut v2, LOG_MAGIC, 2);
        let mut v2 = v2.into_bytes();
        v2.extend_from_slice(&encode_base_file(&cp)[v2.len()..]);
        let err = load_any(&v2, &schema()).expect_err("a v2 log must be refused");
        assert_eq!(err.kind, ErrorKind::InvalidConfig);
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("v2.ckpt");
        std::fs::write(&path, &v2).expect("write");
        let policy = CompactionPolicy::default();
        let err = CheckpointStore::open(&path, CheckpointFormat::Wire, policy, &schema())
            .expect_err("a v2 log must be refused by the store");
        assert_eq!(err.kind, ErrorKind::InvalidConfig);
        assert_eq!(std::fs::read(&path).expect("read back"), v2);
        let _ = std::fs::remove_file(&path);
        // A base that is not a record since an empty run is refused too.
        let mut late = cp.clone();
        late.curator.start_row = 1;
        assert!(load_any(&encode_base_file(&late), &schema()).is_err());
        // A torn or corrupt base is unrecoverable: there is no earlier
        // record to fall back to.
        let base = encode_base_file(&cp);
        assert!(load_any(&base[..base.len() / 2], &schema()).is_err());
        let mut flipped = base.clone();
        // The midpoint lies inside the base payload: the header, frame
        // tag and length prefix come before it, the checksum after it.
        flipped[base.len() / 2] ^= 0x40;
        assert!(load_any(&flipped, &schema()).is_err());
    }

    #[test]
    fn store_compacts_by_tick_count_and_log_size() {
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("compact.ckpt");
        let _ = std::fs::remove_file(&path);
        let policy = CompactionPolicy { every_ticks: 2, max_log_factor: 1000.0 };
        let (mut store, none) =
            CheckpointStore::open(&path, CheckpointFormat::Wire, policy, &schema()).expect("open");
        assert!(none.is_none());
        assert!(store.needs_base());
        let cp = fixture();
        store.commit_base(&cp).expect("base");
        assert!(!store.needs_base());
        let delta = delta_fixture(&cp);
        store.commit_delta(&delta).expect("delta 1");
        assert!(!store.needs_base());
        store.commit_delta(&delta).expect("delta 2");
        assert!(store.needs_base(), "every_ticks=2 must force a base rewrite");
        // Size-triggered compaction: a tiny factor trips immediately.
        let policy = CompactionPolicy { every_ticks: 1000, max_log_factor: 1.01 };
        let (mut store, some) =
            CheckpointStore::open(&path, CheckpointFormat::Wire, policy, &schema())
                .expect("reopen");
        assert!(some.is_some());
        store.commit_base(&cp).expect("base");
        store.commit_delta(&delta).expect("delta");
        assert!(store.needs_base(), "log past max_log_factor must force a base rewrite");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_open_truncates_torn_tails() {
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let (mut store, _) = CheckpointStore::open(
            &path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            &schema(),
        )
        .expect("open");
        let cp = fixture();
        store.commit_base(&cp).expect("base");
        let delta = delta_fixture(&cp);
        store.commit_delta(&delta).expect("delta");
        let clean_len = std::fs::metadata(&path).expect("meta").len();
        // Simulate a crash mid-append: half a second delta.
        let frame = encode_delta_frame(&delta);
        {
            let mut f =
                std::fs::OpenOptions::new().append(true).open(&path).expect("append handle");
            f.write_all(&frame[..frame.len() / 2]).expect("torn write");
        }
        let (store, cp_back) = CheckpointStore::open(
            &path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            &schema(),
        )
        .expect("reopen");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len);
        assert_eq!(cp_back.expect("state").ticks, cp.ticks + 1);
        assert_eq!(store.deltas_since_base, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_open_refuses_json_checkpoints_and_leaves_them_intact() {
        let dir = std::env::temp_dir().join("cm_snapshot_store_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("json.ckpt");
        std::fs::write(&path, JSON_CHECKPOINT).expect("write");
        let err = CheckpointStore::open(
            &path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            &schema(),
        )
        .expect_err("a JSON checkpoint must be refused");
        assert_eq!(err.kind, ErrorKind::InvalidConfig);
        assert_eq!(std::fs::read(&path).expect("read back"), JSON_CHECKPOINT.as_bytes());
        let _ = std::fs::remove_file(&path);
    }
}
