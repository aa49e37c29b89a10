//! The live leg: a multi-day feed driven open loop through
//! `StreamEngine::offer` and `tick`, in slices of consecutive minutes.
//! Minute `i` of a slice is due at `t0 + i / rate`, `t0` being the
//! slice's start; a generator thread releases each minute on schedule
//! whether or not the engine has caught up, and lag is measured from the
//! minute's due time to the return of the tick that scored it.

use crate::report::Tally;
use crate::stats::ms;
use funnel_core::{Funnel, FunnelConfig, StreamConfig, StreamEngine};
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::KpiKind;
use funnel_sim::live::LiveFeed;
use funnel_sim::store::{MetricStore, StoreSnapshot};
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_sst::{FastSst, StreamingSst};
use funnel_timeseries::series::MinuteBin;
use funnel_topology::change::{ChangeId, ChangeKind, SoftwareChange};
use funnel_topology::model::ServiceId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The size of a streamed world and the open-loop rate it is fed at.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamShape {
    /// Feed length in minutes.
    pub duration: u64,
    /// Deploy minutes of the tracked changes. Change 0 carries a real
    /// effect; the rest are quiet dark launches on half of a service's
    /// instances, except `full_launch`. Changes alternate between the two
    /// services.
    pub change_minutes: Vec<u64>,
    /// Index of the change that is a full launch, if any (its
    /// seasonal-history control needs it a day into the feed).
    pub full_launch: Option<usize>,
    /// Open-loop rate, feed minutes per second.
    pub rate: f64,
}

/// A built stream world, its feed, and the changes tracked on it.
pub struct StreamInput {
    /// The world the feed comes from.
    pub world: World,
    /// Every series of the world, frozen (the source of the feed).
    pub series: StoreSnapshot,
    /// The arrival-ordered feed.
    pub feed: LiveFeed,
    /// Tracked changes.
    pub changes: Vec<SoftwareChange>,
    /// Instance KPI kinds per service.
    pub kinds: BTreeMap<ServiceId, Vec<KpiKind>>,
    /// Open-loop rate, feed minutes per second.
    pub rate: f64,
}

impl StreamInput {
    /// Builds a world of two related services of six instances each (90
    /// KPI keys), deploys the shape's changes, and flattens it into a
    /// feed.
    pub fn build(seed: u64, shape: &StreamShape) -> Self {
        let mut b = WorldBuilder::new(SimConfig {
            seed,
            start: 0,
            duration: shape.duration as usize,
        });
        let front = b.add_service("prod.live-front.web", 6).expect("fresh name");
        let back = b.add_service("prod.live-back.api", 6).expect("fresh name");
        b.relate(front, back).expect("both services exist");
        for (i, &minute) in shape.change_minutes.iter().enumerate() {
            let svc = if i % 2 == 0 { front } else { back };
            let targets = if Some(i) == shape.full_launch {
                usize::MAX
            } else {
                3
            };
            let effect = if i == 0 {
                ChangeEffect::none().with_level_shift(
                    KpiKind::PageViewResponseDelay,
                    EffectScope::TreatedInstances,
                    9.0,
                )
            } else {
                ChangeEffect::none()
            };
            let kind = if i % 3 == 1 {
                ChangeKind::ConfigChange
            } else {
                ChangeKind::Upgrade
            };
            b.deploy_change(
                kind,
                svc,
                targets,
                minute,
                effect,
                &format!("live change #{i}"),
            )
            .expect("valid change");
        }
        let world = b.build();
        let store = world.materialize().expect("every key generates");
        let feed = LiveFeed::from_store(&store);
        let changes = world.change_log().all().to_vec();
        let kinds = world
            .topology()
            .services()
            .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
            .collect();
        Self {
            world,
            series: store.snapshot(),
            feed,
            changes,
            kinds,
            rate: shape.rate,
        }
    }

    /// The paper configuration (ω = 9) with one day of seasonal history,
    /// assessing due changes on the engine thread: with the feed generator
    /// that makes two runnable threads, and a change's completion time
    /// does not hinge on a second CPU being free at that instant.
    pub fn config() -> FunnelConfig {
        let mut config = FunnelConfig::paper_default();
        config.history_days = 1;
        config.assess.workers = 1;
        config
    }

    fn duration(&self) -> u64 {
        self.world.config().duration as u64
    }
}

/// Engine-side detail of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct StreamTrace {
    /// Time inside `offer`, s.
    pub offer_s: f64,
    /// Measurements offered.
    pub records: u64,
    /// Ticks that completed no change, ms.
    pub score_ms: Vec<f64>,
    /// Ticks that completed a change, ms.
    pub complete_ms: Vec<f64>,
    /// Keys re-scored, summed over ticks.
    pub scored_keys: u64,
    /// Resident window bytes at the end of the feed.
    pub window_bytes: u64,
}

/// One pass over the feed.
#[derive(Debug, Clone, Default)]
pub struct StreamPass {
    /// Per tick: due time to tick return, ms.
    pub lag_ms: Vec<f64>,
    /// Per tick: due time to the generator's release, ms.
    pub late_ms: Vec<f64>,
    /// Time inside `offer` + `tick`, s.
    pub busy_s: f64,
    /// Key-minute folds.
    pub folds: u64,
    /// Time inside `offer` + `tick` for ticks that complete no change, s.
    pub scoring_s: f64,
    /// Folds of the ticks that complete no change.
    pub scoring_folds: u64,
    /// (change, fingerprint of its items) for every completion.
    pub completed: Vec<(ChangeId, u64)>,
}

/// The hash the stream check compares: the `{:?}` of a change's items.
pub fn items_fingerprint(items: &[funnel_core::ItemAssessment]) -> u64 {
    funnel_resilience::fnv1a(format!("{items:?}").as_bytes())
}

/// A pass over the feed in progress: a fresh engine with every change
/// tracked, streamed slice by slice so that other legs can run between
/// slices. Each slice is open loop on a schedule of its own.
pub struct Streaming {
    engine: StreamEngine,
    minutes: Vec<MinuteBin>,
    next: usize,
}

impl Streaming {
    /// A fresh engine at the paper configuration, every change tracked.
    pub fn start(input: &StreamInput) -> Result<Self, String> {
        let config = StreamInput::config();
        let mut stream_config = StreamConfig::paired_with(&config);
        stream_config.ring_capacity = StreamConfig::capacity_for(&config, input.duration());
        stream_config.workers = 1;
        let mut engine = StreamEngine::new(config, stream_config, input.kinds.clone());
        for change in &input.changes {
            engine
                .track_change(input.world.topology(), change.clone())
                .map_err(|e| e.to_string())?;
        }
        Ok(Self {
            engine,
            minutes: input.feed.arrivals().map(|(m, _)| m).collect(),
            next: 0,
        })
    }

    /// Whether every feed minute has been streamed.
    pub fn done(&self) -> bool {
        self.next == self.minutes.len()
    }

    /// Streams the next `count` feed minutes (fewer at the end of the
    /// feed) open loop at the input's rate, adding to `pass`.
    pub fn slice(
        &mut self,
        input: &StreamInput,
        count: usize,
        mut trace: Option<&mut StreamTrace>,
        pass: &mut StreamPass,
    ) {
        let end = self.next + count.min(self.minutes.len() - self.next);
        let minutes = &self.minutes[self.next..end];
        self.next = end;
        let engine = &mut self.engine;
        let period = 1.0 / input.rate;
        let mut busy = Duration::ZERO;
        let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
        let t0 = Instant::now() + Duration::from_millis(20);
        std::thread::scope(|scope| {
            let count = minutes.len();
            scope.spawn(move || {
                for i in 0..count {
                    let due = t0 + Duration::from_secs_f64(i as f64 * period);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if tx.send((i, due, Instant::now())).is_err() {
                        break;
                    }
                }
            });
            for (i, due, released) in rx {
                let minute = minutes[i];
                let batch = input.feed.at(minute);
                let start = Instant::now();
                let report = match trace.as_deref_mut() {
                    None => {
                        for &m in batch {
                            engine.offer(m);
                        }
                        engine.tick(minute)
                    }
                    Some(t) => {
                        for &m in batch {
                            let o = Instant::now();
                            engine.offer(m);
                            t.offer_s += o.elapsed().as_secs_f64();
                        }
                        t.records += batch.len() as u64;
                        let k = Instant::now();
                        let report = engine.tick(minute);
                        let tick_ms = ms(k.elapsed());
                        if report.completed.is_empty() {
                            t.score_ms.push(tick_ms);
                        } else {
                            t.complete_ms.push(tick_ms);
                        }
                        t.scored_keys += report.scored_keys as u64;
                        report
                    }
                };
                let end = Instant::now();
                busy += end - start;
                pass.lag_ms.push(ms(end - due));
                pass.late_ms
                    .push(ms(released.saturating_duration_since(due)));
                pass.folds += report.folds;
                if report.completed.is_empty() {
                    pass.scoring_s += (end - start).as_secs_f64();
                    pass.scoring_folds += report.folds;
                }
                for done in &report.completed {
                    pass.completed
                        .push((done.change, items_fingerprint(&done.items)));
                }
            }
        });
        if let Some(t) = trace {
            t.window_bytes = engine.window_bytes() as u64;
        }
        pass.busy_s += busy.as_secs_f64();
    }
}

/// Streams the whole feed once through a fresh engine, in one slice.
pub fn stream_pass(
    input: &StreamInput,
    trace: Option<&mut StreamTrace>,
) -> Result<StreamPass, String> {
    let mut streaming = Streaming::start(input)?;
    let mut pass = StreamPass::default();
    streaming.slice(input, usize::MAX, trace, &mut pass);
    Ok(pass)
}

/// Batch fingerprints per tracked change: `assess_change_with` on a store
/// replayed from the same feed, at the same configuration.
pub fn reference(input: &StreamInput) -> BTreeMap<ChangeId, Option<u64>> {
    let store = MetricStore::new();
    for (_, batch) in input.feed.arrivals() {
        for m in batch {
            store.append(m.key, m.minute, m.value);
        }
    }
    let snapshot = store.snapshot();
    let funnel = Funnel::new(StreamInput::config());
    input
        .changes
        .iter()
        .map(|change| {
            let items = funnel
                .assess_change_with(&snapshot, input.world.topology(), change, &|s| {
                    input.kinds.get(&s).cloned().unwrap_or_default()
                })
                .ok()
                .map(|a| items_fingerprint(&a.items));
            (change.id, items)
        })
        .collect()
}

/// The stream check: every tracked change completed exactly once, with
/// items equal to the batch reference. Returns one description per
/// failing change.
pub fn check(
    reference: &BTreeMap<ChangeId, Option<u64>>,
    completed: &[(ChangeId, u64)],
) -> Vec<String> {
    reference
        .iter()
        .filter_map(|(id, want)| {
            let got: Vec<u64> = completed
                .iter()
                .filter(|(c, _)| c == id)
                .map(|&(_, f)| f)
                .collect();
            match (want, got.as_slice()) {
                (Some(w), [g]) if w == g => None,
                (None, _) => Some(format!("{id:?}: batch reference failed")),
                (_, []) => Some(format!("{id:?}: never completed")),
                (_, [_]) => Some(format!("{id:?}: streamed items differ from batch")),
                _ => Some(format!("{id:?}: completed {} times", got.len())),
            }
        })
        .collect()
}

/// Feed minutes per slice of the stream leg: 3.2 s at 150 minutes per
/// second, so a two-day pass interleaves with the other legs in six
/// slices and a 400-minute probe pass is one slice.
pub const SLICE_MINUTES: usize = 480;

/// The stream leg of an untraced run.
#[derive(Default)]
pub struct StreamLeg {
    want: Option<BTreeMap<ChangeId, Option<u64>>>,
    current: Option<Streaming>,
    completed: Vec<(ChangeId, u64)>,
    /// Per-tick lag, every slice pooled, ms.
    pub lag_ms: Vec<f64>,
    /// Folds of the ticks that complete no change, every slice summed.
    pub scoring_folds: u64,
    /// Engine busy time (offer + tick) in those ticks, every slice
    /// summed, s.
    pub scoring_s: f64,
}

impl StreamLeg {
    /// Whether a pass has been started and not yet streamed to its end.
    pub fn mid_pass(&self) -> bool {
        self.current.is_some()
    }

    /// Streams the next slice of the current pass, starting a pass on a
    /// fresh engine if none is in progress. When the pass reaches the end
    /// of the feed, checks every completion against the batch reference
    /// (built after the first pass).
    pub fn slice(&mut self, input: &StreamInput, tally: &mut Tally, problems: &mut Vec<String>) {
        let tracked = input.changes.len() as u64;
        let streaming = match self
            .current
            .take()
            .map_or_else(|| Streaming::start(input), Ok)
        {
            Ok(streaming) => self.current.insert(streaming),
            Err(e) => {
                problems.push(format!("stream_live: {e}"));
                tally.add(tracked, tracked);
                return;
            }
        };
        let mut part = StreamPass::default();
        streaming.slice(input, SLICE_MINUTES, None, &mut part);
        self.lag_ms.extend(part.lag_ms);
        self.scoring_folds += part.scoring_folds;
        self.scoring_s += part.scoring_s;
        self.completed.extend(part.completed);
        if streaming.done() {
            self.current = None;
            let completed = std::mem::take(&mut self.completed);
            let want = self.want.get_or_insert_with(|| reference(input));
            let failures = check(want, &completed);
            tally.add(tracked, failures.len() as u64);
            problems.extend(failures.into_iter().map(|f| format!("stream_live: {f}")));
        }
    }
}

/// Replays `StreamingSst::fold` over every key's full series: (folds,
/// seconds).
pub fn fold_replay(input: &StreamInput) -> (u64, f64) {
    let config = StreamInput::config();
    let (mut folds, mut busy) = (0u64, Duration::ZERO);
    for key in input.series.keys() {
        let Some(series) = input.series.get(&key) else {
            continue;
        };
        let mut sst = StreamingSst::new(FastSst::new(config.sst.clone()));
        let started = Instant::now();
        for &v in series.values() {
            black_box(sst.fold(black_box(v)));
        }
        busy += started.elapsed();
        folds += series.len() as u64;
    }
    (folds, busy.as_secs_f64())
}
