//! Workloads, their sizes, and the two kinds of run: untraced (end-to-end
//! metrics) and traced (per-layer metrics plus the tracing overhead).
//!
//! Every run drives the same three legs — batch assessment of a deployment
//! week, durable ingest + recovery of its telemetry, open-loop streaming
//! of a live feed — so every workload reports every end-to-end metric. The
//! workload picks which leg runs at full size and gets the larger share of
//! the measured time; the other two run at probe size and split the rest.

use crate::adapters::TimedSource;
use crate::deploy::{self, AssessLeg, AssessTrace, DeployInput};
use crate::ingest::{self, IngestInput, IngestLeg, IngestTrace};
use crate::report::{Outcome, Tally};
use crate::stats::{mean, median, peak_rss_mb, percentile, ratio};
use crate::stream::{self, StreamInput, StreamLeg, StreamShape, StreamTrace};
use funnel_core::Funnel;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The deployment week's changes assessed at full size.
    DeployAssess,
    /// A day of the week's telemetry ingested durably and recovered.
    IngestDurable,
    /// A two-day feed streamed open loop at the paper's SST config.
    StreamLive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DeployAssess,
        Workload::IngestDurable,
        Workload::StreamLive,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeployAssess => "deploy_assess",
            Workload::IngestDurable => "ingest_durable",
            Workload::StreamLive => "stream_live",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time of an untraced run.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub tiny: bool,
}

/// Input sizes and time shares of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Changes per deployment day of the week.
    pub changes_per_day: usize,
    /// Changes the assess leg walks, from the start of the week.
    pub assess_changes: usize,
    /// Minutes of telemetry the ingest leg replays.
    pub ingest_minutes: u64,
    /// The streamed world.
    pub stream: StreamShape,
    /// Set-ups per untraced run (setup time is their median).
    pub setup_reps: usize,
    /// Share of the measured time for the assess, ingest and stream legs.
    pub shares: [f64; 3],
}

/// Open-loop rate of the streamed feed, minutes per second. On a 2-vCPU
/// x86-64 VM the 90-key engine folds about 45k KPI-minutes per busy
/// second (about 500 feed minutes); at 150 minutes per second scoring
/// keeps it busy about a third of the time and the due-change
/// assessments bring that to about half.
const STREAM_RATE: f64 = 150.0;

fn full_stream() -> StreamShape {
    StreamShape {
        duration: 2 * 1440,
        change_minutes: (0..58).map(|k| 150 + 45 * k).collect(),
        full_launch: Some(32),
        rate: STREAM_RATE,
    }
}

fn probe_stream() -> StreamShape {
    StreamShape {
        duration: 400,
        change_minutes: (0..7).map(|k| 150 + 30 * k).collect(),
        full_launch: None,
        rate: STREAM_RATE,
    }
}

impl Plan {
    /// The sizes of `options`' workload.
    pub fn new(options: &Options) -> Self {
        if options.tiny {
            return Self {
                changes_per_day: 2,
                assess_changes: 3,
                ingest_minutes: 20,
                stream: StreamShape {
                    duration: 260,
                    change_minutes: vec![140, 150, 160],
                    full_launch: Some(2),
                    rate: 2000.0,
                },
                setup_reps: 1,
                shares: [0.3; 3],
            };
        }
        let (full, probe) = (0.5, 0.25);
        let base = Self {
            changes_per_day: 40,
            assess_changes: 40,
            ingest_minutes: 360,
            stream: probe_stream(),
            setup_reps: 3,
            shares: [probe; 3],
        };
        match options.workload {
            Workload::DeployAssess => Self {
                assess_changes: usize::MAX,
                shares: [full, probe, probe],
                ..base
            },
            Workload::IngestDurable => Self {
                ingest_minutes: 1440,
                shares: [probe, full, probe],
                ..base
            },
            // One whole two-day pass: 19.2 s at 150 minutes per second,
            // 60 % of a 32-second run.
            Workload::StreamLive => Self {
                stream: full_stream(),
                shares: [0.2, 0.2, 0.6],
                ..base
            },
        }
    }
}

/// Load-generator time inside one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// World building and series synthesis, s.
    pub generate_s: f64,
    /// Frame encoding, s.
    pub encode_s: f64,
}

/// Every input of a run, built by the load generator before any timing.
pub struct Inputs {
    /// The deployment week.
    pub deploy: DeployInput,
    /// Its telemetry as agent frames.
    pub ingest: IngestInput,
    /// The live world and feed.
    pub stream: StreamInput,
}

impl Inputs {
    /// Builds the inputs of `plan` from `seed`.
    pub fn build(plan: &Plan, seed: u64, times: &mut SetupTimes) -> Self {
        let t0 = Instant::now();
        let deploy = DeployInput::build(seed, plan.changes_per_day, plan.assess_changes);
        let stream = StreamInput::build(seed, &plan.stream);
        let t1 = Instant::now();
        let ingest = IngestInput::encode(&deploy.world, &deploy.snapshot, plan.ingest_minutes);
        times.generate_s = (t1 - t0).as_secs_f64();
        times.encode_s = t1.elapsed().as_secs_f64();
        Self {
            deploy,
            ingest,
            stream,
        }
    }
}

/// A private directory under the working directory for WAL files,
/// removed again when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// A leg that cannot run at all (for example, the WAL directory cannot be
/// created).
pub fn run(options: &Options) -> Result<Outcome, String> {
    let plan = Plan::new(options);
    let scratch = Scratch::create()?;
    if options.trace {
        traced(&plan, options.seed, &scratch.0)
    } else {
        untraced(&plan, options, &scratch.0)
    }
}

fn untraced(plan: &Plan, options: &Options, scratch: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(Inputs::build(
            plan,
            options.seed,
            &mut SetupTimes::default(),
        ));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up ran");
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut assess = AssessLeg::new(&inputs.deploy, crate::nproc());
    let mut ingest = IngestLeg::default();
    let mut live = StreamLeg::default();

    // Interleave the legs: always run a pass (for the stream leg, a
    // slice) of the leg furthest behind its share, while at least half of
    // another pass fits the share, so every leg samples the whole run
    // rather than one stretch of it. A stream pass, once started, is
    // streamed to the end of the feed, so the stream leg starts one only
    // while half of a whole pass fits.
    let budget = plan.shares.map(|share| options.seconds as f64 * share);
    let stream_pass_s = plan.stream.duration as f64 / plan.stream.rate;
    let (mut spent, mut passes) = ([0.0f64; 3], [0u32; 3]);
    loop {
        let fits = |i: usize| match i {
            2 if live.mid_pass() => true,
            2 => passes[2] == 0 || spent[2] + stream_pass_s / 2.0 <= budget[2],
            _ => passes[i] == 0 || spent[i] + spent[i] / f64::from(2 * passes[i]) <= budget[i],
        };
        let Some(leg) = (0..3)
            .filter(|&i| fits(i))
            .min_by(|&a, &b| (spent[a] / budget[a]).total_cmp(&(spent[b] / budget[b])))
        else {
            break;
        };
        let started = Instant::now();
        match leg {
            0 => assess.slice(&mut tally, &mut problems),
            1 => ingest.pass(
                &inputs.deploy.world,
                &inputs.ingest,
                &inputs.deploy.snapshot,
                scratch,
                &mut tally,
                &mut problems,
            ),
            _ => live.slice(&inputs.stream, &mut tally, &mut problems),
        }
        spent[leg] += started.elapsed().as_secs_f64();
        passes[leg] += 1;
    }
    assess.finish(&mut tally, &mut problems);

    let mut out = Outcome {
        tally,
        problems,
        metrics: Vec::new(),
    };
    out.push("setup_s", "s", median(&setup_s));
    out.push("peak_rss_mb", "MiB", peak_rss_mb());
    out.push(
        "ok_ops_frac",
        "frac",
        1.0 - ratio(out.tally.failed as f64, out.tally.attempted as f64),
    );
    out.push("assess_items_per_s", "1/s", assess.items_per_s());
    out.push(
        "assess_change_p50_ms",
        "ms",
        percentile(&assess.change_ms, 50.0),
    );
    out.push(
        "assess_change_p95_ms",
        "ms",
        percentile(&assess.change_ms, 95.0),
    );
    let records = ingest.records as f64;
    out.push(
        "ingest_records_per_s",
        "1/s",
        ratio(records, ingest.ingest_s),
    );
    out.push(
        "recover_records_per_s",
        "1/s",
        ratio(records, ingest.recover_s),
    );
    out.push("stream_lag_p50_ms", "ms", percentile(&live.lag_ms, 50.0));
    out.push("stream_lag_p99_ms", "ms", percentile(&live.lag_ms, 99.0));
    out.push(
        "stream_folds_per_s",
        "1/s",
        ratio(live.scoring_folds as f64, live.scoring_s),
    );
    Ok(out)
}

fn span_ms(report: &funnel_obs::report::ObsReport, name: &str) -> f64 {
    report
        .spans
        .get(name)
        .map_or(0.0, |s| s.total_ns as f64 / 1e6)
}

fn traced(plan: &Plan, seed: u64, scratch: &Path) -> Result<Outcome, String> {
    let mut times = SetupTimes::default();
    let inputs = Inputs::build(plan, seed, &mut times);
    let (d, s) = (&inputs.deploy, &inputs.stream);
    let world = &d.world;
    let mut tally = Tally::default();
    let mut problems = Vec::new();

    // Untraced reference passes: one of each leg, funnel_obs off.
    let funnel = Funnel::new(d.config(crate::nproc()));
    let plain = deploy::assess_pass(&funnel, &d.snapshot, d, None);
    let plain_ingest = ingest::ingest_pass(
        world,
        &inputs.ingest,
        &d.snapshot,
        &scratch.join("plain"),
        None,
    )?;
    let plain_stream = stream::stream_pass(s, None)?;
    let plain_busy: f64 = plain.iter().map(|r| r.ms / 1e3).sum::<f64>()
        + plain_ingest.ingest_s
        + plain_ingest.recover_s
        + plain_stream.busy_s;

    // The same passes again through the timing adapters, funnel_obs on.
    funnel_obs::reset();
    funnel_obs::enable();
    let source = TimedSource::new(&d.snapshot);
    let mut at = AssessTrace::default();
    let traced_runs = deploy::assess_pass(&funnel, &source, d, Some(&mut at));
    let spans = funnel_obs::snapshot();
    let mut it = IngestTrace::default();
    let traced_ingest = ingest::ingest_pass(
        world,
        &inputs.ingest,
        &d.snapshot,
        &scratch.join("traced"),
        Some(&mut it),
    )?;
    let mut st = StreamTrace::default();
    let traced_stream = stream::stream_pass(s, Some(&mut st))?;
    funnel_obs::disable();
    funnel_obs::reset();
    let traced_busy: f64 = traced_runs.iter().map(|r| r.ms / 1e3).sum::<f64>()
        + traced_ingest.ingest_s
        + traced_ingest.recover_s
        + traced_stream.busy_s;

    // Correctness: the 1-worker leg, both ingest passes, both streams.
    let serial = Funnel::new(d.config(1));
    let serial_runs = deploy::assess_pass(&serial, &d.snapshot, d, None);
    let prints = |runs: &[deploy::ChangeRun]| -> Vec<Option<u64>> {
        runs.iter().map(|r| r.fingerprint).collect()
    };
    let reference = prints(&serial_runs);
    let mut bad = deploy::mismatches(&reference, &prints(&plain));
    bad.extend(deploy::mismatches(&reference, &prints(&traced_runs)));
    bad.sort_unstable();
    bad.dedup();
    for &i in &bad {
        problems.push(format!(
            "deploy_assess: change #{i} differs from the 1-worker leg"
        ));
    }
    tally.add(reference.len() as u64, bad.len() as u64);
    for pass in [&plain_ingest, &traced_ingest] {
        let frames = inputs.ingest.frames.len() as u64;
        if pass.failures > 0 {
            problems.push(format!("ingest_durable: {} failed checks", pass.failures));
        }
        tally.add(frames, if pass.failures > 0 { frames } else { 0 });
    }
    let want = stream::reference(s);
    for pass in [&plain_stream, &traced_stream] {
        let failures = stream::check(&want, &pass.completed);
        tally.add(s.changes.len() as u64, failures.len() as u64);
        problems.extend(failures.into_iter().map(|f| format!("stream_live: {f}")));
    }

    // Replays of single layers, outside every timed pass.
    let serial_s: f64 = serial_runs.iter().map(|r| r.ms).sum::<f64>();
    let plain_s: f64 = plain.iter().map(|r| r.ms).sum::<f64>();
    let (dark, seasonal) = deploy::item_timings(d, &at.sample);
    let (windows, sst_s) = deploy::sst_replay(d, &at.sample);
    let decode_s = ingest::decode_replay(&inputs.ingest);
    let (folds, fold_s) = stream::fold_replay(s);
    let reads = source.counters();
    const MIB: f64 = 1024.0 * 1024.0;

    let mut out = Outcome {
        tally,
        problems,
        metrics: Vec::new(),
    };
    out.push("store.read.calls", "count", reads.calls() as f64);
    out.push("store.read.mb", "MiB", reads.bytes() as f64 / MIB);
    out.push("store.read.ms", "ms", reads.busy().as_secs_f64() * 1e3);
    out.push("sst.batch.windows", "count", windows as f64);
    out.push(
        "sst.batch.us_per_window",
        "us",
        ratio(sst_s * 1e6, windows as f64),
    );
    out.push("core.item.dark_ms_p50", "ms", median(&dark));
    out.push("core.item.seasonal_ms_p50", "ms", median(&seasonal));
    out.push("core.did.runs", "count", at.did_runs as f64);
    out.push("core.work_units", "count", at.work_units as f64);
    out.push("core.parallel.speedup", "x", ratio(serial_s, plain_s));
    out.push("topology.impact_set.ms", "ms", mean(&at.impact_set_ms));
    out.push("diag.ms", "ms", mean(&at.diag_ms));
    out.push("report.render.ms", "ms", mean(&at.render_ms));
    for (metric, span) in [
        (
            "obs.assess.change.ms",
            funnel_obs::names::SPAN_ASSESS_CHANGE,
        ),
        ("obs.detect.sst.ms", funnel_obs::names::SPAN_DETECT),
        ("obs.did.assess.ms", funnel_obs::names::SPAN_DID),
        ("obs.diag.change.ms", funnel_obs::names::SPAN_DIAG_CHANGE),
    ] {
        out.push(metric, "ms", span_ms(&spans, span));
    }
    out.push("wire.decode.us_per_frame", "us", decode_s * 1e6);
    out.push("collector.classify.ms", "ms", it.classify_s * 1e3);
    out.push("collector.commit.ms", "ms", it.commit_s * 1e3);
    out.push("collector.finish.ms", "ms", it.finish_s * 1e3);
    out.push("wal.append.ms", "ms", it.wal_append_s * 1e3);
    out.push("wal.mb", "MiB", it.wal_bytes as f64 / MIB);
    out.push("wal.scan.ms", "ms", it.wal_scan_s * 1e3);
    out.push("store.snapshot.ms", "ms", it.snapshot_s * 1e3);
    out.push("collector.frames", "count", it.frames as f64);
    out.push("collector.records", "count", it.records as f64);
    out.push("collector.aggregates", "count", it.aggregates as f64);
    out.push("loadgen.generate_s", "s", times.generate_s);
    out.push("loadgen.encode_s", "s", times.encode_s);
    out.push(
        "stream.offer.us_per_record",
        "us",
        ratio(st.offer_s * 1e6, st.records as f64),
    );
    out.push("stream.tick.score_ms_p50", "ms", median(&st.score_ms));
    out.push("stream.tick.complete_ms", "ms", mean(&st.complete_ms));
    out.push(
        "sst.stream.us_per_fold",
        "us",
        ratio(fold_s * 1e6, folds as f64),
    );
    out.push("stream.folds", "count", traced_stream.folds as f64);
    out.push("stream.scored_keys", "count", st.scored_keys as f64);
    out.push("stream.window_bytes", "bytes", st.window_bytes as f64);
    out.push(
        "loadgen.late_p99_ms",
        "ms",
        percentile(&traced_stream.late_ms, 99.0),
    );
    out.push(
        "trace.overhead_frac",
        "frac",
        ratio(traced_busy, plain_busy) - 1.0,
    );
    Ok(out)
}
