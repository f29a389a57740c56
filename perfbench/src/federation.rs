//! `federation_roam`: 64 federated cells with roaming users.
//!
//! T20-style cells (`building(1, 4, …)`, default policy, 2 slots per 30 s,
//! EDF, shed watermarks), commute traces over the cell ring, about 60%
//! aggregate load, and cell 1's base station down for the middle half of
//! the run. `Federation::run`'s window loop does the work: gossip, handoff
//! ledgers and harvest, plus the agent bus. Each cell's grid is tiny.
//! `Federation::run` is one opaque call, so the unit op is its wall time
//! divided by the windows it stepped.

use crate::handheld::{shadow_features, shadow_predict};
use crate::trace::Tracer;
use crate::{close, Round, Workload};
use pg_core::PervasiveGrid;
use pg_federation::gossip::{gossip_round_ctx, GossipConfig, RoundCtx};
use pg_federation::{commute_traces, Federation, FederationConfig, RoamingConfig};
use pg_partition::features::QueryFeatures;
use pg_runtime::{
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryOpts, RuntimeConfig, SchedPolicy,
};
use pg_sim::fault::FaultPlan;
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use rand::Rng;
use std::time::Instant;

const CELLS: usize = 64;
/// Sixteen roaming users per cell: enough that per-cell load evens out and
/// a run's figures depend little on where the seed spawns the users.
const USERS: usize = 16 * CELLS;
const HORIZON_S: u64 = 3_600;
const WINDOW_S: u64 = 30;
/// Per-cell service capacity: 2 slots per 30 s epoch.
const CAPACITY_HZ: f64 = 2.0 / WINDOW_S as f64;
/// Offered load over aggregate capacity.
const LOAD: f64 = 0.6;
const TEXTS: [&str; 3] = [
    "SELECT AVG(temp) FROM sensors",
    "SELECT MAX(temp) FROM sensors",
    "SELECT temp FROM sensors WHERE sensor_id = 3",
];

pub struct Roam;

pub struct World {
    fed: Federation,
    seed: u64,
    offered: usize,
    /// Each offered query's start cell and features, extracted there
    /// before the run (traced run only).
    shadow: Vec<(usize, QueryFeatures)>,
}

fn cell_runtime(seed: u64, faults: Option<FaultPlan>) -> MultiQueryRuntime<PervasiveGrid> {
    let mut b = PervasiveGrid::building(1, 4, seed);
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
    let cfg = RuntimeConfig::builder()
        .capacity(32)
        .epoch(Duration::from_secs(WINDOW_S))
        .slots_per_epoch(2)
        .policy(SchedPolicy::Edf)
        .overload(OverloadConfig::watermarks(
            OverloadPolicy::Shed,
            0,
            0,
            16,
            24,
        ))
        .build();
    MultiQueryRuntime::new(cfg, b.build())
}

/// The Poisson offered load: arrival instant, user and query class.
fn offered(seed: u64) -> Vec<(SimTime, u64, usize)> {
    let rate_hz = LOAD * CAPACITY_HZ * CELLS as f64;
    let mut rng = RngStreams::new(seed).fork("perfbench-federation");
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
        if t >= HORIZON_S as f64 {
            return out;
        }
        let user = rng.gen_range(0..USERS as u64);
        out.push((
            SimTime::from_secs_f64(t),
            user,
            rng.gen_range(0..TEXTS.len()),
        ));
    }
}

fn build_world(seed: u64, tracer: Option<&mut Tracer>) -> World {
    let mut runtimes: Vec<MultiQueryRuntime<PervasiveGrid>> = (0..CELLS)
        .map(|i| {
            let cell_seed = pg_sim::rng::mix(seed, i as u64);
            let faults = (i == 1).then(|| {
                FaultPlan::builder(cell_seed)
                    .base_outage(
                        SimTime::from_secs(HORIZON_S / 4),
                        SimTime::from_secs(3 * HORIZON_S / 4),
                    )
                    .build()
                    .expect("one outage window is a valid plan")
            });
            cell_runtime(cell_seed, faults)
        })
        .collect();
    let traces = commute_traces(
        seed,
        &RoamingConfig {
            users: USERS,
            cells: CELLS,
            horizon: Duration::from_secs(HORIZON_S),
            dwell_min: Duration::from_secs(300),
            dwell_max: Duration::from_secs(600),
        },
    );
    let offered = offered(seed);
    let mut shadow = Vec::new();
    if let Some(tr) = tracer {
        // Parse and extract features of every offered query against its
        // user's start cell, before the grids move into the federation.
        for &(_, user, text) in &offered {
            let cell = traces[user as usize].start.0 as usize;
            if let Some(f) = shadow_features(runtimes[cell].engine_mut(), TEXTS[text], tr) {
                shadow.push((cell, f));
            }
        }
    }
    let cfg = FederationConfig {
        seed,
        ..FederationConfig::default()
    };
    let mut fed = Federation::new(cfg, runtimes, traces);
    for &(at, user, text) in &offered {
        fed.offer(
            at,
            user,
            TEXTS[text],
            QueryOpts::with_deadline(Duration::from_secs(120)),
        );
    }
    World {
        fed,
        seed,
        offered: offered.len(),
        shadow,
    }
}

impl Workload for Roam {
    type World = World;

    fn build(&self, seed: u64, tracer: Option<&mut Tracer>) -> World {
        build_world(seed, tracer)
    }

    fn run(&self, world: World, tracer: Option<&mut Tracer>) -> Round {
        let World {
            mut fed,
            seed,
            offered,
            shadow,
        } = world;
        let mut r = Round::default();
        let t = Instant::now();
        fed.run(SimTime::from_secs(HORIZON_S));
        let run_s = t.elapsed().as_secs_f64();
        let windows = (fed.now().as_secs_f64() / WINDOW_S as f64).round();
        r.busy_s = run_s;
        r.op_us.push(run_s * 1e6 / windows);

        let s = &fed.stats;
        let (mut outcomes, mut admitted, mut rejected, mut shed, mut lost, mut migrated_in) =
            (0, 0, 0, 0, 0, 0);
        let (mut energy_ok, mut drain_j, mut bytes) = (true, 0.0, 0.0);
        for c in fed.cells() {
            let mut attributed_j = 0.0;
            for o in c.rt.outcomes() {
                r.fold(o.id.0);
                r.fold_f(o.started_at.as_secs_f64());
                r.fold_f(o.attribution.energy_j);
                attributed_j += o.attribution.energy_j;
                bytes += o.attribution.bytes;
                match &o.response {
                    Ok(resp) => {
                        r.served += 1;
                        r.response_s.push(o.response_time_s());
                        r.fold_f(resp.value.unwrap_or(f64::NAN));
                    }
                    Err(e) => {
                        r.errors += 1;
                        eprintln!("perfbench: cell {}: {}: {e}", c.id, o.text);
                    }
                }
            }
            let cell_drain = c.rt.engine().energy_consumed();
            energy_ok &= close(attributed_j, cell_drain, 1e-9);
            drain_j += cell_drain;
            outcomes += c.rt.outcomes().len() as u64;
            admitted += c.rt.admitted;
            rejected += c.rt.rejected;
            shed += c.rt.shed;
            lost += c.rt.lost;
            migrated_in += c.rt.migrated_in;
        }
        for ledger in fed.handoff_ledgers() {
            r.fold(ledger.ledger_hash());
        }
        r.completed = outcomes;
        r.deadline_met = fed.goodput().1;
        r.offered = offered as u64;
        r.submitted = r.offered;
        r.drain_j = drain_j;
        // Every offered query ends in exactly one terminal fate. A cell's
        // `rejected` counts both refused arrivals and refused migrations;
        // a refused arrival that bounced to a neighbour arrives again
        // there, so it is not terminal.
        let fates = outcomes
            + shed
            + lost
            + (rejected - s.bounced_redirected)
            + s.home_down_dropped
            + s.migrations_lost;
        r.check(
            "federation: every offered query is accounted for",
            fates == r.offered,
        );
        r.check(
            "federation: every migration is accounted for",
            s.migrations_completed + s.migrations_rejected + s.migrations_lost
                == s.migrations_opened
                && migrated_in == s.migrations_completed,
        );
        r.check(
            "federation: per-cell attributed energy equals drain",
            energy_ok,
        );
        for c in [
            s.migrations_opened,
            s.forwards_opened,
            s.absorbed,
            s.bounced_dropped,
        ] {
            r.fold(c);
        }

        if let Some(tr) = tracer {
            let cells = fed.cells();
            let ledgers = fed.handoff_ledgers();
            // A shadow gossip round over clones of the end-of-run tables:
            // every contact clones and merges whole ledgers, so its cost
            // tracks the ledger growth that dominates the window.
            let mut members = fed.members().to_vec();
            let mut handoffs = ledgers.to_vec();
            let up = vec![true; cells.len()];
            let gossip = GossipConfig::default();
            let ctx = RoundCtx {
                now: fed.now(),
                cfg: &gossip,
                seed,
                round_idx: u64::MAX,
                faults: None,
            };
            tr.span("federation.gossip_round", || {
                gossip_round_ctx(&mut members, &mut handoffs, &up, &ctx)
            });
            // Shadow predictions of every offered query's placement by its
            // start cell's learner, trained by the run.
            for (cell, f) in &shadow {
                shadow_predict(cells[*cell].rt.engine(), f, tr);
            }
            let history: usize = cells
                .iter()
                .map(|c| c.rt.engine().decision.history_len())
                .sum();
            let bus = fed.bus_metrics();
            let sent = bus.counter("reliable.sent");
            let acked = bus.counter("reliable.acked");
            tr.set("query.parse_us", tr.mean("query.parse"));
            tr.set("partition.features_us", tr.mean("partition.features"));
            tr.set("partition.predict_us", tr.mean("partition.predict"));
            tr.set("partition.candidates", tr.mean("partition.candidates"));
            tr.set("partition.history_len", history as f64);
            tr.set("sensornet.bytes_per_query", bytes / outcomes.max(1) as f64);
            tr.set("runtime.admitted", admitted as f64);
            tr.set("runtime.rejected", rejected as f64);
            tr.set("runtime.shed", shed as f64);
            tr.set("runtime.outcomes_len", outcomes as f64);
            tr.set("federation.windows", windows);
            tr.set(
                "federation.handoff_records",
                ledgers.iter().map(|l| l.len()).sum::<usize>() as f64 / ledgers.len() as f64,
            );
            tr.set(
                "federation.gossip_round_us",
                tr.mean("federation.gossip_round"),
            );
            tr.set("federation.migrations", s.migrations_opened as f64);
            tr.set("federation.absorbed", s.absorbed as f64);
            tr.set("federation.forwards", s.forwards_opened as f64);
            tr.set("federation.prewarms", s.prewarms as f64);
            tr.set("federation.bounced_dropped", s.bounced_dropped as f64);
            tr.set("agent.bus_sent", sent as f64);
            tr.set("agent.bus_acked", acked as f64);
            tr.set("agent.bus_retries", bus.counter("reliable.retries") as f64);
            tr.set(
                "agent.bus_dead_letters",
                bus.counter("reliable.dead_letter") as f64,
            );
            tr.set("agent.delivery_ratio", acked as f64 / sent.max(1) as f64);
        }
        r
    }
}
