//! The durable-ingest leg: one pre-encoded frame per server per minute,
//! pushed serially through `Collector::classify`, the WAL
//! (`DurableHooks::on_accepted_frame`), `Collector::commit` and
//! `after_commit`, then `on_end_of_stream`, `Collector::finish` and
//! `MetricStore::snapshot`; then `recover` rebuilds the store from the WAL
//! just written.

use crate::adapters::TimedHooks;
use crate::report::Tally;
use bytes::Bytes;
use funnel_resilience::{recover, wal, DurableHooks, DurableOptions, Kill, Recovered};
use funnel_sim::agent::ReplayStats;
use funnel_sim::collector::{Collector, IngestHooks};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::store::{MetricStore, StoreSnapshot};
use funnel_sim::wire::{decode_frame, encode_frame, WireRecord};
use funnel_sim::world::World;
use funnel_topology::{Entity, ServerId};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Pre-encoded agent frames and what ingesting them must yield.
pub struct IngestInput {
    /// Frames in send order: minute-major, then agent (server) order.
    pub frames: Vec<Bytes>,
    /// Minutes covered, from the world's start.
    pub minutes: u64,
    /// Agents: one per server.
    pub shards: usize,
    /// Records across all frames.
    pub records: u64,
    /// Service aggregates the collector must finalize.
    pub aggregates: u64,
}

impl IngestInput {
    /// Encodes the first `minutes` of `world` (values read from its
    /// materialized `series`): per minute, one frame per server carrying
    /// its server KPIs and the KPIs of the instances it hosts.
    pub fn encode(world: &World, series: &StoreSnapshot, minutes: u64) -> Self {
        let topology = world.topology();
        let shards = topology.server_count();
        let mut payloads: Vec<Vec<(KpiKey, Vec<f64>)>> = vec![Vec::new(); shards];
        let start = world.config().start;
        let window = |key: KpiKey| -> Vec<f64> {
            series
                .get(&key)
                .map(|s| s.slice(start, start + minutes).to_vec())
                .unwrap_or_default()
        };
        for (sid, payload) in payloads.iter_mut().enumerate() {
            for kind in KpiKind::SERVER_KINDS {
                let key = KpiKey::new(Entity::Server(ServerId(sid as u32)), kind);
                payload.push((key, window(key)));
            }
        }
        let mut aggregates = 0u64;
        for inst in topology.instances() {
            for &kind in world.kinds_of_service(inst.service) {
                let key = KpiKey::new(Entity::Instance(inst.id), kind);
                if let Some(payload) = payloads.get_mut(inst.server.0 as usize) {
                    payload.push((key, window(key)));
                }
            }
        }
        for (svc, _) in topology.services() {
            if !topology.instances_of(svc).is_empty() {
                aggregates += world.kinds_of_service(svc).len() as u64 * minutes;
            }
        }
        let mut frames = Vec::with_capacity(shards * minutes as usize);
        let mut records = 0u64;
        let mut buf = Vec::new();
        for m in 0..minutes {
            for (agent, payload) in payloads.iter().enumerate() {
                buf.clear();
                for (key, values) in payload {
                    if let Some(&value) = values.get(m as usize) {
                        buf.push(WireRecord { key: *key, value });
                    }
                }
                records += buf.len() as u64;
                frames.push(encode_frame(start + m, agent as u32, &buf));
            }
        }
        Self {
            frames,
            minutes,
            shards,
            records,
            aggregates,
        }
    }
}

/// Sub-step timings of a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct IngestTrace {
    /// `Collector::classify`, s.
    pub classify_s: f64,
    /// `Collector::commit` + `after_commit`, s.
    pub commit_s: f64,
    /// `on_end_of_stream` + `Collector::finish`, s.
    pub finish_s: f64,
    /// WAL appends, s.
    pub wal_append_s: f64,
    /// Frame bytes appended to the WAL.
    pub wal_bytes: u64,
    /// `MetricStore::snapshot`, s.
    pub snapshot_s: f64,
    /// Replayed `wal::scan` of the pass's WAL, s.
    pub wal_scan_s: f64,
    /// Frames, records and aggregates the collector counted.
    pub frames: u64,
    /// See `frames`.
    pub records: u64,
    /// See `frames`.
    pub aggregates: u64,
}

/// One pass's timings and counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestPass {
    /// Durable ingest through the snapshot, s.
    pub ingest_s: f64,
    /// `recover`, s.
    pub recover_s: f64,
    /// Records the collector committed.
    pub records: u64,
    /// Correctness failures found by [`check`].
    pub failures: usize,
}

fn options(dir: &Path) -> DurableOptions {
    DurableOptions {
        wal_dir: dir.join("wal"),
        checkpoint_dir: dir.join("ckpt"),
        segment_limit: 4 << 20,
        cadence: 0,
        kill: Kill::None,
    }
}

fn drive(
    collector: &mut Collector<'_>,
    hooks: &mut dyn IngestHooks,
    frames: &[Bytes],
    trace: Option<&mut IngestTrace>,
) -> Result<(), String> {
    let aborted = || "ingest aborted by the durability hooks".to_string();
    match trace {
        None => {
            for raw in frames {
                let ingest = collector.classify(raw);
                if ingest.accepted() {
                    hooks.on_accepted_frame(raw).map_err(|_| aborted())?;
                }
                collector.commit(ingest);
                hooks.after_commit(collector).map_err(|_| aborted())?;
            }
            hooks.on_end_of_stream(collector).map_err(|_| aborted())?;
            collector.finish();
        }
        Some(t) => {
            let (mut classify, mut commit) = (Duration::ZERO, Duration::ZERO);
            for raw in frames {
                let t0 = Instant::now();
                let ingest = collector.classify(raw);
                classify += t0.elapsed();
                if ingest.accepted() {
                    hooks.on_accepted_frame(raw).map_err(|_| aborted())?;
                }
                let t1 = Instant::now();
                collector.commit(ingest);
                hooks.after_commit(collector).map_err(|_| aborted())?;
                commit += t1.elapsed();
            }
            let t2 = Instant::now();
            hooks.on_end_of_stream(collector).map_err(|_| aborted())?;
            collector.finish();
            t.finish_s = t2.elapsed().as_secs_f64();
            t.classify_s = classify.as_secs_f64();
            t.commit_s = commit.as_secs_f64();
        }
    }
    Ok(())
}

/// The stores one durable ingest leaves behind, with its timings.
pub struct Ingested {
    /// The store the collector committed into.
    pub live: MetricStore,
    /// The state `recover` rebuilt from the WAL.
    pub recovered: Recovered,
    /// Collector counters of the ingest.
    pub stats: ReplayStats,
    /// Durable ingest through the snapshot, s.
    pub ingest_s: f64,
    /// `recover`, s.
    pub recover_s: f64,
}

/// Ingests every frame durably under `dir` (emptied first), then recovers
/// from that WAL. Only ingest (through the snapshot) and recovery are
/// timed. The WAL is left in place: deleting it inside a run would put
/// the file system's block release into whatever leg runs next.
pub fn ingest_and_recover(
    world: &World,
    input: &IngestInput,
    dir: &Path,
    mut trace: Option<&mut IngestTrace>,
) -> Result<Ingested, String> {
    let _ = std::fs::remove_dir_all(dir);
    let opts = options(dir);
    let durable = DurableHooks::create(&opts).map_err(|e| e.to_string())?;
    let live = MetricStore::new();
    let mut collector = Collector::for_world(world, &live, input.shards, 0);

    let started = Instant::now();
    let snapshot = match trace.as_deref_mut() {
        None => {
            let mut hooks = durable;
            drive(&mut collector, &mut hooks, &input.frames, None)?;
            live.snapshot()
        }
        Some(t) => {
            let mut hooks = TimedHooks::new(durable);
            drive(&mut collector, &mut hooks, &input.frames, Some(t))?;
            if let Some(e) = hooks.inner().error() {
                return Err(e.to_string());
            }
            t.wal_append_s = hooks.append.as_secs_f64();
            t.wal_bytes = hooks.bytes;
            let t0 = Instant::now();
            let snapshot = live.snapshot();
            t.snapshot_s = t0.elapsed().as_secs_f64();
            snapshot
        }
    };
    let ingest_s = started.elapsed().as_secs_f64();
    black_box(snapshot);
    let stats = *collector.stats();
    drop(collector);

    let started = Instant::now();
    let recovered = recover(world, input.shards, 0, &opts).map_err(|e| e.to_string())?;
    let recover_s = started.elapsed().as_secs_f64();

    if let Some(t) = trace {
        let t0 = Instant::now();
        let scan = black_box(wal::scan(&opts.wal_dir).map_err(|e| e.to_string())?);
        t.wal_scan_s = t0.elapsed().as_secs_f64();
        drop(scan);
        t.frames = stats.frames as u64;
        t.records = stats.records as u64;
        t.aggregates = stats.aggregates as u64;
    }
    Ok(Ingested {
        live,
        recovered,
        stats,
        ingest_s,
        recover_s,
    })
}

/// [`ingest_and_recover`], then every ingest check: [`check`], the WAL's
/// end-of-stream marker, and the frame, record and aggregate counts
/// against what was generated.
pub fn ingest_pass(
    world: &World,
    input: &IngestInput,
    reference: &StoreSnapshot,
    dir: &Path,
    trace: Option<&mut IngestTrace>,
) -> Result<IngestPass, String> {
    let run = ingest_and_recover(world, input, dir, trace)?;
    let mut failures = check(&run.live, &run.recovered.store, reference, input.minutes);
    if !run.recovered.end_of_stream {
        failures.push("recovered WAL lacks its end-of-stream marker".into());
    }
    let counts = (
        run.stats.frames as u64,
        run.stats.records as u64,
        run.stats.aggregates as u64,
    );
    let expected = (input.frames.len() as u64, input.records, input.aggregates);
    if counts != expected {
        failures.push(format!(
            "(frames, records, aggregates) {counts:?}, generated {expected:?}"
        ));
    }
    Ok(IngestPass {
        ingest_s: run.ingest_s,
        recover_s: run.recover_s,
        records: counts.1,
        failures: failures.len(),
    })
}

/// The ingest check: the recovered store equals the live store key by
/// key, byte for byte (values and coverage masks), and every key the
/// reference holds is in the live store within 1e-9 of the reference over
/// the ingested `minutes`. Returns one description per failure.
pub fn check(
    live: &MetricStore,
    recovered: &MetricStore,
    reference: &StoreSnapshot,
    minutes: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let live_entries = live.export_entries();
    let recovered_entries = recovered.export_entries();
    if live_entries.len() != recovered_entries.len() {
        failures.push(format!(
            "recovered {} keys, live {}",
            recovered_entries.len(),
            live_entries.len()
        ));
    }
    for ((lk, ls, lm), (rk, rs, rm)) in live_entries.iter().zip(&recovered_entries) {
        let same_values = ls.start() == rs.start()
            && ls.len() == rs.len()
            && ls
                .values()
                .iter()
                .zip(rs.values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if lk != rk || !same_values || lm != rm {
            failures.push(format!("{lk:?}: recovered store differs from live"));
        }
    }
    for key in reference.keys() {
        let Some(expected) = reference.get(&key) else {
            continue;
        };
        let start = expected.start();
        let want = expected.slice(start, start + minutes);
        match live.get(&key) {
            Some(got)
                if got.start() == start
                    && got.len() == want.len()
                    && got
                        .values()
                        .iter()
                        .zip(want)
                        .all(|(a, b)| (a - b).abs() <= 1e-9) => {}
            _ => failures.push(format!("{key:?}: live store differs from the world")),
        }
    }
    failures
}

/// The ingest leg of an untraced run. Each pass writes its WAL to a
/// directory of its own; all of them are removed with the run's scratch
/// directory.
#[derive(Debug, Clone, Default)]
pub struct IngestLeg {
    passes: usize,
    /// Records committed (and restored), every pass summed.
    pub records: u64,
    /// Durable ingest through the snapshot, every pass summed, s.
    pub ingest_s: f64,
    /// `recover`, every pass summed, s.
    pub recover_s: f64,
}

impl IngestLeg {
    /// One checked pass under a fresh directory below `scratch`.
    pub fn pass(
        &mut self,
        world: &World,
        input: &IngestInput,
        reference: &StoreSnapshot,
        scratch: &Path,
        tally: &mut Tally,
        problems: &mut Vec<String>,
    ) {
        let frames = input.frames.len() as u64;
        let dir = scratch.join(format!("ingest-{}", self.passes));
        self.passes += 1;
        match ingest_pass(world, input, reference, &dir, None) {
            Ok(pass) => {
                if pass.failures > 0 {
                    problems.push(format!("ingest_durable: {} failed checks", pass.failures));
                }
                tally.add(frames, if pass.failures > 0 { frames } else { 0 });
                self.records += pass.records;
                self.ingest_s += pass.ingest_s;
                self.recover_s += pass.recover_s;
            }
            Err(e) => {
                problems.push(format!("ingest_durable: {e}"));
                tally.add(frames, frames);
            }
        }
    }
}

/// Replays `decode_frame` over every frame: seconds per frame.
pub fn decode_replay(input: &IngestInput) -> f64 {
    let started = Instant::now();
    for raw in &input.frames {
        let _ = black_box(decode_frame(black_box(raw.clone())));
    }
    started.elapsed().as_secs_f64() / input.frames.len().max(1) as f64
}
