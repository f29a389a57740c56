//! `handheld_session`: one PDA user in a closed loop (§2 of the paper).
//!
//! One `PervasiveGrid` over the `building(1, 10, …)` world (100 nodes and
//! a named region) under the default adaptive policy. The user submits
//! back to back, rotating through the paper's four query classes, and the
//! clock advances between calls. The k-NN case memory grows with every
//! query, so history-dependent cost shows in `op_late_us`; the Complex
//! class runs the grid PDE.

use crate::trace::Tracer;
use crate::{quantile, Round, Workload};
use pg_core::{PervasiveGrid, QueryResponse};
use pg_partition::exec::ExecContext;
use pg_partition::features::QueryFeatures;
use pg_partition::model::SolutionModel;
use pg_query::classify::{classify, QueryKind};
use pg_sensornet::region::Region;
use pg_sim::rng::RngStreams;
use pg_sim::Duration;
use rand::Rng;
use std::hint::black_box;

/// Queries per session: long enough for the case memory's growth to show
/// in the last tenth.
const QUERIES: usize = 6_000;

/// Per-mote battery, joules.
const BATTERY_J: f64 = 2_000.0;
/// Tolerance of the drain checks, joules. The runtime measures a query's
/// energy as a drop in remaining capacity summed over the motes, so each
/// mote adds up to ε·capacity of rounding.
const DRAIN_TOL_J: f64 = 100.0 * f64::EPSILON * BATTERY_J;

pub struct Handheld;

pub struct World {
    pg: PervasiveGrid,
    /// Query text and the think time before it.
    plan: Vec<(String, Duration)>,
}

/// The seeded query plan: class `i % 4`, details drawn from the seed.
fn plan(seed: u64) -> Vec<(String, Duration)> {
    let mut rng = RngStreams::new(seed).fork("perfbench-handheld");
    let aggs = ["AVG", "MAX", "MIN", "SUM"];
    (0..QUERIES)
        .map(|i| {
            let sensor = rng.gen_range(1..100u32);
            let agg = aggs[rng.gen_range(0..aggs.len())];
            let text = match i % 4 {
                0 => format!("SELECT temp FROM sensors WHERE sensor_id = {sensor}"),
                1 if rng.gen::<bool>() => {
                    format!("SELECT {agg}(temp) FROM sensors WHERE region(west)")
                }
                1 => format!("SELECT {agg}(temp) FROM sensors"),
                2 => "SELECT temperature_distribution() FROM sensors WHERE region(west)".into(),
                _ if rng.gen::<bool>() => {
                    format!(
                        "SELECT temp FROM sensors WHERE sensor_id = {sensor} EPOCH DURATION 10 s"
                    )
                }
                _ => format!(
                    "SELECT {agg}(temp) FROM sensors WHERE region(west) EPOCH DURATION 10 s"
                ),
            };
            (text, Duration::from_secs(rng.gen_range(1..=30u64)))
        })
        .collect()
}

/// Shadow the planning stages of `submit` on the live grid, read-only:
/// parse + classify, feature extraction, and the learner's prediction for
/// every candidate placement.
pub fn shadow_plan(pg: &mut PervasiveGrid, text: &str, tr: &mut Tracer) {
    if let Some(f) = shadow_features(pg, text, tr) {
        shadow_predict(pg, &f, tr);
    }
}

/// Shadow parse + classify and feature extraction.
pub fn shadow_features(
    pg: &mut PervasiveGrid,
    text: &str,
    tr: &mut Tracer,
) -> Option<QueryFeatures> {
    let parsed = tr.span("query.parse", || {
        pg_query::parse(text).inspect(|q| {
            black_box(classify(q));
        })
    });
    let query = parsed.ok()?;
    let now = pg.now;
    tr.span("partition.features", || {
        let ctx = ExecContext {
            net: &mut pg.net,
            grid: &pg.grid,
            field: &pg.field,
            regions: &pg.regions,
            now,
        };
        QueryFeatures::extract(&ctx, &query)
    })
}

/// Shadow the learner's predicted cost of every candidate placement.
pub fn shadow_predict(pg: &PervasiveGrid, f: &QueryFeatures, tr: &mut Tracer) {
    let candidates = SolutionModel::candidates(f.members);
    tr.span("partition.predict", || {
        for m in &candidates {
            black_box(pg.decision.predict(&pg.net, &pg.grid, f, m));
        }
    });
    tr.record("partition.candidates", candidates.len() as f64);
}

fn fold_response(r: &mut Round, resp: &QueryResponse) {
    r.fold(resp.kind as u64);
    r.fold(resp.model.family() as u64);
    r.fold_f(resp.value.unwrap_or(f64::NAN));
    r.fold_f(resp.cost.energy_j);
    r.fold_f(resp.cost.time_s);
    r.fold_f(resp.cost.bytes);
    r.fold_f(resp.cost.ops);
    r.fold_f(resp.delivered_frac);
    r.fold(resp.degradation.retries);
}

impl Workload for Handheld {
    type World = World;

    fn build(&self, seed: u64, _: Option<&mut Tracer>) -> World {
        // A session's Continuous queries would drain the default 50 J
        // batteries flat long before its end.
        let pg = PervasiveGrid::building(1, 10, seed)
            .region("west", Region::room(0.0, 0.0, 22.0, 45.0))
            .battery(BATTERY_J)
            .build();
        World {
            pg,
            plan: plan(seed),
        }
    }

    fn run(&self, world: World, mut tracer: Option<&mut Tracer>) -> Round {
        let World { mut pg, plan } = world;
        let mut r = Round::default();
        let mut by_class: [Vec<f64>; 4] = Default::default();
        let (mut all_ok, mut drain_eq, mut drain_ge) = (true, true, true);
        let mut bytes = 0.0;
        let start_j = pg.energy_consumed();
        for (text, think) in &plan {
            pg.advance(*think);
            let before_j = pg.energy_consumed();
            let shadow_us = match tracer.as_deref_mut() {
                Some(tr) => {
                    shadow_plan(&mut pg, text, tr);
                    tr.take_children()
                }
                None => 0.0,
            };
            let res = r.time_op(|| pg.submit(text));
            let us = r.op_us[r.op_us.len() - 1];
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("core.residual", us - shadow_us);
            }
            let drain_j = pg.energy_consumed() - before_j;
            r.offered += 1;
            r.submitted += 1;
            r.completed += 1;
            match res {
                Ok(resp) => {
                    r.served += 1;
                    r.deadline_met += u64::from(!resp.degradation.deadline_exceeded);
                    r.response_s.push(resp.cost.time_s);
                    bytes += resp.cost.bytes;
                    by_class[resp.kind as usize].push(us);
                    // A Continuous answer reports the mean cost of its
                    // epochs, so its drain is a multiple of the report.
                    if resp.kind == QueryKind::Continuous {
                        drain_ge &= drain_j >= resp.cost.energy_j - DRAIN_TOL_J;
                    } else {
                        drain_eq &= (drain_j - resp.cost.energy_j).abs() <= DRAIN_TOL_J;
                    }
                    fold_response(&mut r, &resp);
                }
                Err(e) => {
                    all_ok = false;
                    r.errors += 1;
                    eprintln!("perfbench: {text}: {e}");
                }
            }
        }
        r.drain_j = pg.energy_consumed() - start_j;
        r.check("handheld: every response is Ok", all_ok);
        r.check("handheld: drain equals reported energy", drain_eq);
        r.check(
            "handheld: continuous drain covers reported energy",
            drain_ge,
        );
        r.check(
            "handheld: every mote alive at the end",
            pg.alive_sensors() == 99,
        );
        match tracer {
            Some(tr) => {
                tr.set("query.parse_us", tr.mean("query.parse"));
                tr.set("partition.features_us", tr.mean("partition.features"));
                tr.set("partition.predict_us", tr.mean("partition.predict"));
                tr.set("partition.candidates", tr.mean("partition.candidates"));
                tr.set("partition.history_len", pg.decision.history_len() as f64);
                tr.set("core.residual_us", tr.mean("core.residual"));
                tr.set("core.log_len", pg.log.len() as f64);
                tr.set("sensornet.bytes_per_query", bytes / r.completed as f64);
            }
            None => {
                r.untraced_layer = vec![
                    (
                        "core.simple_p50_us",
                        quantile(&by_class[QueryKind::Simple as usize], 0.5),
                    ),
                    (
                        "core.complex_p50_us",
                        quantile(&by_class[QueryKind::Complex as usize], 0.5),
                    ),
                ];
            }
        }
        r
    }
}
