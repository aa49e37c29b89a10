//! The batch leg: every change of a deployment week assessed in log order
//! (`Funnel::assess_change_with`, then `Funnel::diagnose`, then
//! `report::render`) against the week frozen into a `StoreSnapshot`.

use crate::report::Tally;
use crate::stats::{ms, ratio};
use funnel_core::report::render;
use funnel_core::{
    AssessmentMode, ChangeAssessment, DiagReport, Funnel, FunnelConfig, FunnelError, KpiSource,
};
use funnel_detect::{DetectorRunner, SstDetector};
use funnel_sim::kpi::KpiKind;
use funnel_sim::scenario::deployment_week;
use funnel_sim::store::StoreSnapshot;
use funnel_sim::world::World;
use funnel_sst::FastSst;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::SoftwareChange;
use funnel_topology::identify_impact_set;
use funnel_topology::model::ServiceId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The deployment week and the change list the leg walks.
pub struct DeployInput {
    /// The simulated week (also the ingest leg's telemetry source).
    pub world: World,
    /// Every series of the week, frozen.
    pub snapshot: StoreSnapshot,
    /// The changes assessed, in log order.
    pub changes: Vec<SoftwareChange>,
    /// Instance KPI kinds per service.
    pub kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    history_days: u32,
}

impl DeployInput {
    /// Builds `deployment_week(seed, changes_per_day)`, materializes every
    /// series into a snapshot and keeps the first `take` changes.
    pub fn build(seed: u64, changes_per_day: usize, take: usize) -> Self {
        let (world, meta) = deployment_week(seed, changes_per_day);
        let snapshot = world
            .materialize()
            .expect("every key of a built world generates")
            .snapshot();
        let changes = world
            .change_log()
            .all()
            .iter()
            .take(take)
            .cloned()
            .collect();
        let kinds = world
            .topology()
            .services()
            .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
            .collect();
        Self {
            world,
            snapshot,
            changes,
            kinds,
            history_days: meta.history_days,
        }
    }

    /// The paper configuration with diagnosis on, at `workers` workers.
    pub fn config(&self, workers: usize) -> FunnelConfig {
        let mut config = FunnelConfig::paper_default();
        config.history_days = self.history_days;
        config.assess.workers = workers;
        config.diagnose.enabled = true;
        config
    }

    fn service_kinds(&self, svc: ServiceId) -> Vec<KpiKind> {
        self.kinds.get(&svc).cloned().unwrap_or_default()
    }
}

/// One change of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeRun {
    /// Time to the operator's report: assess, diagnose, render.
    pub ms: f64,
    /// Hash of the assessment's `{:?}`, the rendered report and the
    /// diagnosis; `None` when the assessment failed.
    pub fingerprint: Option<u64>,
}

/// Sub-step timings and counts of a traced pass.
#[derive(Debug, Default)]
pub struct AssessTrace {
    /// `identify_impact_set` per change, ms.
    pub impact_set_ms: Vec<f64>,
    /// `Funnel::diagnose` per change, ms.
    pub diag_ms: Vec<f64>,
    /// `report::render` per change, ms.
    pub render_ms: Vec<f64>,
    /// Items with a detection (where DiD runs).
    pub did_runs: u64,
    /// Work units enumerated.
    pub work_units: u64,
    /// The first [`SAMPLE`] assessments, kept for the per-item and SST
    /// replays.
    pub sample: Vec<ChangeAssessment>,
}

/// Assessments a traced pass keeps for the single-layer replays.
pub const SAMPLE: usize = 10;

/// The hash the correctness check compares.
pub fn fingerprint(assessment: &ChangeAssessment, report: &str, diag: Option<&DiagReport>) -> u64 {
    let mut bytes = format!("{assessment:?}").into_bytes();
    bytes.extend_from_slice(report.as_bytes());
    bytes.extend_from_slice(format!("{diag:?}").as_bytes());
    funnel_resilience::fnv1a(&bytes)
}

/// Positions where `observed` fails to reproduce `reference` (a missing
/// fingerprint on either side counts as a mismatch).
pub fn mismatches(reference: &[Option<u64>], observed: &[Option<u64>]) -> Vec<usize> {
    (0..reference.len().max(observed.len()))
        .filter(|&i| {
            let r = reference.get(i).copied().flatten();
            let o = observed.get(i).copied().flatten();
            r.is_none() || r != o
        })
        .collect()
}

type Assessed = (ChangeAssessment, Option<DiagReport>, String);

fn assess_one<S: KpiSource + Sync>(
    funnel: &Funnel,
    source: &S,
    input: &DeployInput,
    change: &SoftwareChange,
) -> Result<Assessed, FunnelError> {
    let topology = input.world.topology();
    let assessment =
        funnel.assess_change_with(source, topology, change, &|s| input.service_kinds(s))?;
    let diag = funnel.diagnose(source, topology, change, &assessment);
    let report = render(topology, &assessment);
    Ok((assessment, diag, report))
}

/// Assesses, diagnoses and renders every change once. Only the calls into
/// the pipeline are timed; fingerprints are taken outside that time. With
/// `trace`, each sub-step is timed on its own as well.
pub fn assess_pass<S: KpiSource + Sync>(
    funnel: &Funnel,
    source: &S,
    input: &DeployInput,
    mut trace: Option<&mut AssessTrace>,
) -> Vec<ChangeRun> {
    let topology = input.world.topology();
    let mut runs = Vec::with_capacity(input.changes.len());
    for change in &input.changes {
        let (elapsed, result) = match trace.as_deref_mut() {
            None => {
                let started = Instant::now();
                let result = assess_one(funnel, source, input, change);
                (started.elapsed(), result)
            }
            Some(t) => {
                let started = Instant::now();
                let impact = identify_impact_set(topology, change);
                t.impact_set_ms.push(ms(started.elapsed()));
                if let Ok(impact) = &impact {
                    let work = funnel_core::enumerate_work_units(impact, change, &|s| {
                        input.service_kinds(s)
                    });
                    t.work_units += work.len() as u64;
                }
                let started = Instant::now();
                let result = funnel
                    .assess_change_with(source, topology, change, &|s| input.service_kinds(s))
                    .map(|assessment| {
                        let d0 = Instant::now();
                        let diag = funnel.diagnose(source, topology, change, &assessment);
                        let d1 = Instant::now();
                        let report = render(topology, &assessment);
                        (assessment, diag, report, d0, d1)
                    });
                let elapsed = started.elapsed();
                let result = result.map(|(assessment, diag, report, d0, d1)| {
                    t.diag_ms.push(ms(d1 - d0));
                    t.render_ms.push(ms(started + elapsed - d1));
                    (assessment, diag, report)
                });
                (elapsed, result)
            }
        };
        runs.push(ChangeRun {
            ms: ms(elapsed),
            fingerprint: result
                .as_ref()
                .ok()
                .map(|(a, d, r)| fingerprint(a, r, d.as_ref())),
        });
        if let (Some(t), Ok((assessment, _, _))) = (trace.as_deref_mut(), result) {
            t.did_runs += assessment
                .items
                .iter()
                .filter(|i| i.detection.is_some())
                .count() as u64;
            if t.sample.len() < SAMPLE {
                t.sample.push(assessment);
            }
        }
    }
    runs
}

/// The assess leg of an untraced run: walks the change list in slices,
/// cycling, and checks every change against its first assessment.
pub struct AssessLeg<'a> {
    input: &'a DeployInput,
    funnel: Funnel,
    next: usize,
    reference: Vec<Option<u64>>,
    /// Per-change time to report, every slice pooled, ms.
    pub change_ms: Vec<f64>,
    /// Items judged, every slice summed.
    pub items: u64,
}

/// Changes per slice: any run of this many consecutive changes covers
/// every service of the week about twice.
const SLICE: usize = 40;

impl<'a> AssessLeg<'a> {
    /// A leg over `input` at `workers` workers.
    pub fn new(input: &'a DeployInput, workers: usize) -> Self {
        Self {
            input,
            funnel: Funnel::new(input.config(workers)),
            next: 0,
            reference: vec![None; input.changes.len()],
            change_ms: Vec::new(),
            items: 0,
        }
    }

    /// Assesses the next slice of changes (wrapping around the list). The
    /// first assessment of a change is its reference; later ones must
    /// reproduce it.
    pub fn slice(&mut self, tally: &mut Tally, problems: &mut Vec<String>) {
        let n = self.input.changes.len();
        if n == 0 {
            return;
        }
        for _ in 0..SLICE.min(n) {
            let i = self.next;
            self.next = (self.next + 1) % n;
            let change = &self.input.changes[i];
            let started = Instant::now();
            let result = assess_one(&self.funnel, &self.input.snapshot, self.input, change);
            let elapsed = ms(started.elapsed());
            let print = result
                .ok()
                .map(|(a, d, r)| (a.items.len(), fingerprint(&a, &r, d.as_ref())));
            let failed = match (self.reference[i], print) {
                (_, None) => true,
                (None, Some((_, p))) => {
                    self.reference[i] = Some(p);
                    false
                }
                (Some(want), Some((_, p))) => want != p,
            };
            if failed {
                problems.push(format!(
                    "deploy_assess: change #{i} failed or not reproduced"
                ));
            }
            tally.add(1, u64::from(failed));
            self.items += print.map_or(0, |(k, _)| k as u64);
            self.change_ms.push(elapsed);
        }
    }

    /// Items judged per second of per-change time over every slice.
    pub fn items_per_s(&self) -> f64 {
        ratio(self.items as f64 * 1e3, self.change_ms.iter().sum())
    }

    /// Re-assesses a sample of changes at one worker; each must match its
    /// reference.
    pub fn finish(&self, tally: &mut Tally, problems: &mut Vec<String>) {
        let serial = Funnel::new(self.input.config(1));
        let step = (self.input.changes.len() / 12).max(1);
        for i in (0..self.input.changes.len()).step_by(step) {
            let Some(want) = self.reference[i] else {
                continue;
            };
            let observed = assess_one(
                &serial,
                &self.input.snapshot,
                self.input,
                &self.input.changes[i],
            )
            .ok()
            .map(|(a, d, r)| fingerprint(&a, &r, d.as_ref()));
            if observed != Some(want) {
                problems.push(format!("deploy_assess: change #{i} differs at 1 worker"));
                tally.failed += 1;
            }
        }
    }
}

/// Per-item time of `Funnel::assess_keys` on single keys, split by the
/// control mode the item ends up in: (dark-launch ms, seasonal ms).
pub fn item_timings(input: &DeployInput, sample: &[ChangeAssessment]) -> (Vec<f64>, Vec<f64>) {
    let funnel = Funnel::new(input.config(1));
    let topology = input.world.topology();
    let (mut dark, mut seasonal) = (Vec::new(), Vec::new());
    for assessment in sample {
        let Some(change) = input.changes.iter().find(|c| c.id == assessment.change) else {
            continue;
        };
        for item in &assessment.items {
            let started = Instant::now();
            let result = funnel.assess_keys(&input.snapshot, topology, change, &[item.key]);
            let elapsed = ms(started.elapsed());
            match result.ok().and_then(|items| items.first().map(|i| i.mode)) {
                Some(AssessmentMode::DarkLaunchControl) => dark.push(elapsed),
                Some(AssessmentMode::SeasonalHistory) => seasonal.push(elapsed),
                None => {}
            }
        }
    }
    (dark, seasonal)
}

/// Replays the `detect` runner with `FastSst` over every sampled item's
/// assessment window: (windows scored, seconds).
pub fn sst_replay(input: &DeployInput, sample: &[ChangeAssessment]) -> (u64, f64) {
    let config = input.config(1);
    let runner = DetectorRunner::new(
        SstDetector::fast(FastSst::new(config.sst.clone())),
        config.sst_threshold,
        config.persistence_minutes,
    );
    let width = config.sst.window_len();
    let (mut windows, mut busy) = (0u64, Duration::ZERO);
    for item in sample.iter().flat_map(|a| a.items.iter()) {
        let (lo, to) = item.window;
        let Some(series) = input.snapshot.get(&item.key) else {
            continue;
        };
        let window = TimeSeries::new(lo, series.slice(lo, to).to_vec());
        let started = Instant::now();
        black_box(runner.run(black_box(&window)));
        busy += started.elapsed();
        windows += (window.len() + 1).saturating_sub(width) as u64;
    }
    (windows, busy.as_secs_f64())
}
