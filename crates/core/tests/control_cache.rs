//! The shared control-pool table is a pure memo, and its counters are a
//! function of the work list alone.
//!
//! [`Funnel::assess_key`] builds a fresh table per call — every control
//! pool is built anew, i.e. the cache-off path. [`Funnel::assess_keys`]
//! runs the same keys through the fan-out engine, where every worker reads
//! one table shared across the whole work list — the cache-on path. Both
//! must agree byte for byte. The hit/miss counters surfaced through
//! `funnel_obs` must be identical at every worker count, and each
//! distinct `(control level, KPI kind)` pool is built at most once. One
//! `#[test]` covers all of it because the obs registry is process-global.

use funnel_core::pipeline::{enumerate_work_units, Funnel, ItemAssessment};
use funnel_core::FunnelConfig;
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_topology::change::{ChangeId, ChangeKind};
use funnel_topology::impact::{identify_impact_set, Entity};
use std::collections::BTreeSet;

/// A service large enough that many treated items share each control group,
/// so the cache-on run genuinely exercises hits.
fn cached_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(31, 8));
    let svc = b.add_service("prod.cache", 7).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        70.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 3, 7 * 1440 + 300, effect, "c")
        .unwrap();
    (b.build(), id)
}

/// Assesses `work` through the fan-out engine at `workers` with recording
/// on, returning the items and the control-pool (hits, misses) counters the
/// engine writes after the fan-out joins.
fn warm_run(
    world: &World,
    change: ChangeId,
    work: &[KpiKey],
    workers: usize,
) -> (Vec<ItemAssessment>, u64, u64) {
    let record = world.change_log().get(change).expect("logged");
    let mut config = FunnelConfig::paper_default();
    config.assess.workers = workers;
    funnel_obs::enable();
    funnel_obs::reset();
    let items = Funnel::new(config)
        .assess_keys(world, world.topology(), record, work)
        .expect("batch assessment");
    let warm = funnel_obs::snapshot();
    funnel_obs::disable();
    funnel_obs::reset();
    let counter = |name: &str| warm.counters.get(name).copied().unwrap_or(0);
    (
        items,
        counter(funnel_obs::names::CONTROL_CACHE_HITS),
        counter(funnel_obs::names::CONTROL_CACHE_MISSES),
    )
}

#[test]
fn cache_on_and_cache_off_agree_bit_for_bit() {
    let (world, change) = cached_world();
    let record = world.change_log().get(change).expect("logged");
    let impact_set = identify_impact_set(world.topology(), record).expect("impact set");
    let work = enumerate_work_units(&impact_set, record, &|s| world.kinds_of_service(s).to_vec());
    assert!(
        work.len() >= 10,
        "need a non-trivial work list, got {}",
        work.len()
    );

    // Distinct control pools the work list can ask for: server items
    // contrast against the cservers, instance and service items against
    // the cinstances, one pool per KPI kind at each level.
    let pools = work
        .iter()
        .map(|k| (matches!(k.entity, Entity::Server(_)), k.kind))
        .collect::<BTreeSet<_>>()
        .len() as u64;

    // Cache-on: every worker shares one table.
    let (batched, hits, misses) = warm_run(&world, change, &work, 3);
    assert!(
        hits > 0,
        "shared-table run produced no hits (misses = {misses})"
    );
    assert!(misses > 0, "every control pool read is built once");
    assert!(
        misses <= pools,
        "{misses} pools built for {pools} distinct (level, kind) pools"
    );
    for workers in [1, 8] {
        let (_, h, m) = warm_run(&world, change, &work, workers);
        assert_eq!(
            (h, m),
            (hits, misses),
            "control-pool hit/miss counters moved between 3 and {workers} workers"
        );
    }

    let mut config = FunnelConfig::paper_default();
    config.assess.workers = 3;
    let funnel = Funnel::new(config);

    // Cache-off: one fresh table per item, so every control pool rebuilds.
    // The memo must be invisible in the output.
    assert_eq!(batched.len(), work.len());
    for (key, cached_item) in work.iter().zip(&batched) {
        let cold_item = funnel
            .assess_key(&world, world.topology(), record, *key)
            .expect("single-key assessment");
        assert_eq!(
            format!("{cold_item:?}"),
            format!("{cached_item:?}"),
            "cache changed the assessment of {key:?}"
        );
    }
}
