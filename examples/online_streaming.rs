//! FUNNEL online: agents → wire frames → central store → per-minute feed →
//! streaming engine, the deployment dataflow of §5.
//!
//! A world is replayed through per-shard agent threads (binary wire frames
//! over channels, decoded by a collector that also aggregates service
//! KPIs) into the metric store. The store's measurements are then fed
//! minute by minute into a [`StreamEngine`], which folds every KPI into its
//! incremental SST monitor, declares KPI changes under the 7-minute
//! persistence rule as they happen, and completes the tracked change's
//! assessment once its window closes.
//!
//! ```bash
//! cargo run --release --example online_streaming
//! ```

use funnel_suite::core::{FunnelConfig, StreamConfig, StreamEngine};
use funnel_suite::sim::agent::replay;
use funnel_suite::sim::effect::{ChangeEffect, EffectScope};
use funnel_suite::sim::kpi::{KpiKey, KpiKind};
use funnel_suite::sim::live::LiveFeed;
use funnel_suite::sim::store::MetricStore;
use funnel_suite::sim::world::{SimConfig, WorldBuilder};
use funnel_suite::topology::change::ChangeKind;
use funnel_suite::topology::impact::Entity;

fn main() {
    // A service with a memory leak introduced at minute 240.
    let mut b = WorldBuilder::new(SimConfig {
        seed: 3,
        start: 0,
        duration: 480,
    });
    let svc = b.add_service("stream.api", 4).expect("fresh");
    let effect = ChangeEffect::none().with_ramp(
        KpiKind::MemoryUtilization,
        EffectScope::TreatedServers,
        25.0,
        40,
    );
    let change = b
        .deploy_change(ChangeKind::Upgrade, svc, 2, 240, effect, "leaky build")
        .expect("valid");
    let world = b.build();

    // The treated servers' memory KPIs.
    let treated: Vec<KpiKey> = world
        .topology()
        .instances_of(svc)
        .iter()
        .take(2)
        .map(|i| KpiKey::new(Entity::Server(i.server), KpiKind::MemoryUtilization))
        .collect();

    // Replay the world through the agent → collector path (3 shards).
    let store = MetricStore::new();
    let stats = replay(&world, &store, 3).expect("replay succeeds");
    println!(
        "replayed {} minutes: {} wire frames, {} measurements, {} service aggregates",
        stats.minutes, stats.frames, stats.records, stats.aggregates
    );

    // Stream the store's measurements through the engine, one tick per
    // minute, with the change tracked from the start.
    let funnel = FunnelConfig::paper_default();
    let stream = StreamConfig::paired_with(&funnel);
    let kinds = world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect();
    let mut engine = StreamEngine::new(funnel, stream, kinds);
    let record = world.change_log().get(change).expect("logged").clone();
    engine
        .track_change(world.topology(), record)
        .expect("impact set");
    let mut declared = Vec::new();
    let mut completed = Vec::new();
    for (minute, batch) in LiveFeed::from_store(&store).arrivals() {
        for &m in batch {
            engine.offer(m);
        }
        let tick = engine.tick(minute);
        declared.extend(tick.detections);
        completed.extend(tick.completed);
    }
    let totals = engine.stats();
    println!(
        "stream engine ran {} ticks, {} folds, {} detections",
        totals.ticks, totals.folds, totals.detections
    );
    declared.retain(|d| treated.contains(&d.key));
    for d in &declared {
        println!(
            "  {:?} declared at minute {} (score ran from minute {}, peak {:.2})",
            d.key.entity, d.event.declared_at, d.event.first_exceeded_at, d.event.peak_score
        );
    }
    for a in &completed {
        let latency = a
            .detection_latency
            .map_or("none".to_string(), |m| format!("+{m} min"));
        println!(
            "change {:?} assessed at minute {}: {} items, {} caused, first detection {latency}",
            a.change,
            a.emitted_at,
            a.items.len(),
            a.items.iter().filter(|i| i.caused).count(),
        );
    }

    // The leak starts at 240 and ramps over 40 minutes; the stream must
    // catch it on both treated servers, within the ramp.
    assert!(
        declared
            .iter()
            .filter(|d| (240..320).contains(&d.event.declared_at))
            .count()
            >= 2,
        "both leaking servers should be flagged during the ramp: {declared:?}"
    );
    println!("\nleak caught mid-ramp on the live stream.");
}
