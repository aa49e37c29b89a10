//! The parallel assessment engine: fan out impact-set KPIs across a
//! fixed-size worker pool, merge deterministically.
//!
//! The paper's pitch is *rapid* assessment — hundreds of servers, instances
//! and services × KPIs judged within minutes of a rollout. Each work unit
//! (one impact-set KPI, enumerated by
//! [`enumerate_work_units`](crate::pipeline::enumerate_work_units)) is
//! independent of every other, so the batch pipeline is embarrassingly
//! parallel. This module supplies the harness:
//!
//! * **Fan-out** — `fan_out` is the one worker pool: a fixed set of
//!   `workers` threads ([`AssessConfig::workers`](crate::config::AssessConfig))
//!   pulls `(index, key)` jobs from one crossbeam MPMC channel and hands
//!   every per-unit output back in work order. No work stealing, no
//!   runtime: plain scoped threads, per the workspace threading policy.
//!   The batch engine and the supervisor ([`crate::supervise`]) both run
//!   on it.
//! * **Contention-free reads** — workers share a read-only
//!   [`KpiSource`]. For live stores, callers pass a
//!   [`StoreSnapshot`](funnel_sim::store::StoreSnapshot)
//!   (`MetricStore::snapshot()`), so the hot loop never takes a lock.
//! * **One control-pool table per assessment** — every treated item at one
//!   entity level contrasts against the same control group (§3.2.4), so
//!   the pools belong to the assessment, not to a worker. `ControlPools`
//!   holds one lazily built cell per distinct (control level, KPI kind) in
//!   the work list, shared by `&` with every worker; each pool is fetched
//!   exactly once, by whichever DiD lookup needs it first.
//! * **Deterministic merge** — `fan_out` returns outputs in work order
//!   whatever order the workers finished in, so the lowest-index error wins
//!   for any worker count; [`merge`] then re-keys the items by
//!   `(entity, kpi)` into a `BTreeMap`, so the final item list is
//!   byte-identical for any worker count (1, 2, 8, 16, …).
//!
//! Nothing in this path reads the clock, iterates a hashed container, or
//! panics — the `funnel-lint` determinism and no-panic lints gate this file
//! as part of the ingestion-to-verdict hot path.

use crate::pipeline::{Funnel, FunnelError, ItemAssessment};
use crate::source::KpiSource;
use crossbeam::channel;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::SoftwareChange;
use funnel_topology::impact::{Entity, ImpactSet};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One control group's DiD window: the fetched member series with their
/// coverage masks, plus the group's mean coverage over the DiD periods.
pub(crate) type ControlGroupWindow = (Vec<(TimeSeries, Option<CoverageMask>)>, f64);

/// Which control pool a treated entity's DiD contrast draws from: `0` for
/// server-level items (cservers), `1` for instance- and service-level items
/// (both contrast against the cinstances, §3.2.4).
pub(crate) fn control_level(entity: Entity) -> u8 {
    match entity {
        Entity::Server(_) => 0,
        Entity::Instance(_) | Entity::Service(_) => 1,
    }
}

/// The per-assessment control-pool table: one lazily built
/// [`ControlGroupWindow`] per distinct `(control level, KPI kind)` of the
/// work list, shared by every worker.
///
/// The table's shape is fixed before the fan-out and each cell is built at
/// most once, so the pools built and the lookups served depend on the work
/// list alone, never on which worker claimed which unit.
#[derive(Debug)]
pub(crate) struct ControlPools {
    cells: BTreeMap<(u8, KpiKind), OnceLock<ControlGroupWindow>>,
    lookups: AtomicU64,
}

impl ControlPools {
    /// An empty cell for every distinct control pool `work` can ask for.
    pub(crate) fn for_work(work: &[KpiKey]) -> Self {
        let cells = work
            .iter()
            .map(|key| ((control_level(key.entity), key.kind), OnceLock::new()))
            .collect();
        Self {
            cells,
            lookups: AtomicU64::new(0),
        }
    }

    /// The control pool `key` contrasts against, built with `build` on the
    /// first lookup. `None` only for a key outside the table's work list.
    pub(crate) fn get_or_build(
        &self,
        key: KpiKey,
        build: impl FnOnce() -> ControlGroupWindow,
    ) -> Option<&ControlGroupWindow> {
        let cell = self.cells.get(&(control_level(key.entity), key.kind))?;
        self.lookups.fetch_add(1, Ordering::Relaxed);
        Some(cell.get_or_init(build))
    }

    /// Writes the table's tallies once the fan-out has joined: misses are
    /// the pools built, hits the lookups an already-built pool served.
    pub(crate) fn record_tallies(&self) {
        let built = self.cells.values().filter(|c| c.get().is_some()).count() as u64;
        let lookups = self.lookups.load(Ordering::Relaxed);
        let window = funnel_obs::timeline::current_window();
        funnel_obs::timeline_counter_add(
            funnel_obs::names::CONTROL_CACHE_HITS,
            window,
            lookups.saturating_sub(built),
        );
        funnel_obs::timeline_counter_add(funnel_obs::names::CONTROL_CACHE_MISSES, window, built);
    }
}

/// Runs `per_unit` on every work unit across `workers` threads (clamped to at
/// least 1 and at most one per unit) and returns the outputs in work order.
///
/// With one worker the units run inline on the calling thread; otherwise
/// all jobs are enqueued up front on an unbounded MPMC channel that scoped
/// workers drain. Which worker ran which unit is scheduling-dependent; the
/// returned order is not.
pub(crate) fn fan_out<T: Send>(
    work: &[KpiKey],
    workers: usize,
    per_unit: impl Fn(KpiKey) -> T + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, work.len().max(1));
    let window = funnel_obs::timeline::current_window();
    funnel_obs::timeline_gauge_set(funnel_obs::names::WORKERS, window, workers as u64);
    funnel_obs::timeline_histogram_record(
        funnel_obs::names::WORK_QUEUE_DEPTH,
        window,
        work.len() as u64,
    );
    if workers == 1 {
        return work.iter().copied().map(&per_unit).collect();
    }

    let (job_tx, job_rx) = channel::unbounded::<(usize, KpiKey)>();
    for job in work.iter().copied().enumerate() {
        // Cannot fail: the receiver outlives the sends.
        let _ = job_tx.send(job);
    }
    drop(job_tx);
    let (result_tx, result_rx) = channel::unbounded::<(usize, T)>();
    let per_unit = &per_unit;
    std::thread::scope(|scope| {
        for worker_idx in 0..workers {
            let jobs = job_rx.clone();
            let results = result_tx.clone();
            scope.spawn(move || {
                let worker_span =
                    funnel_obs::span!(funnel_obs::names::SPAN_ASSESS_WORKER, worker_idx);
                while let Ok((index, key)) = jobs.recv() {
                    // Cannot fail: the receiver outlives the scope.
                    let _ = results.send((index, per_unit(key)));
                }
                // Merge this worker's span buffer before the scoped thread
                // exits — commutative merge, so flush order is unobservable.
                drop(worker_span);
                funnel_obs::flush_thread();
            });
        }
    });
    // Every worker has joined, so every output is already queued.
    let mut outputs: Vec<(usize, T)> = std::iter::from_fn(|| result_rx.try_recv().ok()).collect();
    outputs.sort_unstable_by_key(|(index, _)| *index);
    outputs.into_iter().map(|(_, output)| output).collect()
}

/// Deterministically merges per-item results into the final report order.
///
/// Results are keyed by `(entity, kpi)` — [`KpiKey`]'s ordering — into a
/// `BTreeMap`, so the output is the same for *any* arrival order: this is
/// what makes the assessment byte-identical across worker counts. If two
/// results carry the same key (the shared enumerator never produces
/// duplicates), the later one wins.
///
/// # Example
///
/// ```
/// use funnel_core::parallel::merge;
/// use funnel_core::pipeline::Funnel;
/// use funnel_sim::scenario::ads_world;
///
/// let (world, _ads, change) = ads_world(42);
/// let items = Funnel::paper_default()
///     .assess_change(&world, change)
///     .unwrap()
///     .items;
/// // Feeding the items back in reverse order restores the same order.
/// let mut reversed = items.clone();
/// reversed.reverse();
/// let keys: Vec<_> = merge(reversed).iter().map(|i| i.key).collect();
/// assert_eq!(keys, items.iter().map(|i| i.key).collect::<Vec<_>>());
/// ```
pub fn merge(results: impl IntoIterator<Item = ItemAssessment>) -> Vec<ItemAssessment> {
    let by_key: BTreeMap<KpiKey, ItemAssessment> =
        results.into_iter().map(|item| (item.key, item)).collect();
    by_key.into_values().collect()
}

/// Assesses every work unit of `work` against `source` on the `fan_out`
/// pool and returns the items in merged (key-sorted) order, or the error of
/// the lowest-index failing unit.
///
/// One `ControlPools` table serves the whole work list and its tallies
/// are written once, after the pool joins.
pub(crate) fn assess_work_units<S: KpiSource + Sync>(
    funnel: &Funnel,
    source: &S,
    change: &SoftwareChange,
    impact_set: &ImpactSet,
    work: &[KpiKey],
    workers: usize,
) -> Result<Vec<ItemAssessment>, FunnelError> {
    let pools = ControlPools::for_work(work);
    let outcomes = fan_out(work, workers, |key| {
        funnel.assess_item(source, change, impact_set, key, &pools)
    });
    pools.record_tallies();
    Ok(merge(outcomes.into_iter().collect::<Result<Vec<_>, _>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FunnelConfig;
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::world::{SimConfig, World, WorldBuilder};
    use funnel_topology::change::{ChangeId, ChangeKind};

    fn shifted_world(delta: f64) -> (World, ChangeId) {
        let mut b = WorldBuilder::new(SimConfig::days(11, 8));
        let svc = b.add_service("prod.par", 6).unwrap();
        let effect = ChangeEffect::none().with_level_shift(
            KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            delta,
        );
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 200, effect, "t")
            .unwrap();
        (b.build(), id)
    }

    fn assess_with_workers(world: &World, change: ChangeId, workers: usize) -> String {
        let mut config = FunnelConfig::paper_default();
        config.assess.workers = workers;
        let assessment = Funnel::new(config).assess_change(world, change).unwrap();
        format!("{assessment:?}")
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let (world, change) = shifted_world(80.0);
        let serial = assess_with_workers(&world, change, 1);
        for workers in [2, 3, 8] {
            let parallel = assess_with_workers(&world, change, workers);
            assert_eq!(serial, parallel, "diverged at {workers} workers");
        }
    }

    #[test]
    fn merge_is_idempotent_and_sorted() {
        let (world, change) = shifted_world(80.0);
        let items = Funnel::paper_default()
            .assess_change(&world, change)
            .unwrap()
            .items;
        let keys: Vec<KpiKey> = items.iter().map(|i| i.key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "assessment items must come out key-sorted");
        let remerged = merge(items.clone());
        assert_eq!(format!("{items:?}"), format!("{remerged:?}"));
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        let mut config = FunnelConfig::paper_default();
        config.assess.workers = 0;
        assert!(config.assess.effective_workers() >= 1);
        let (world, change) = shifted_world(0.0);
        // Auto worker count still assesses correctly on any machine.
        let a = Funnel::new(config).assess_change(&world, change).unwrap();
        assert!(!a.has_impact());
    }

    #[test]
    fn parallel_errors_are_deterministic() {
        // A store that knows none of the impact-set keys: every work unit
        // fails with MissingSeries; the reported key must be the lowest
        // work-unit index regardless of worker count.
        let (world, change) = shifted_world(0.0);
        let empty = funnel_sim::MetricStore::new();
        let record = world.change_log().get(change).unwrap();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();
        let mut errs = Vec::new();
        for workers in [1, 2, 8] {
            let mut config = FunnelConfig::paper_default();
            config.assess.workers = workers;
            let err = Funnel::new(config)
                .assess_change_with(&empty, world.topology(), record, &kinds)
                .unwrap_err();
            errs.push(format!("{err:?}"));
        }
        assert_eq!(errs[0], errs[1]);
        assert_eq!(errs[1], errs[2]);
    }
}
