//! `metro_stream`: open-loop metro load on one 100-node grid.
//!
//! A seeded `MetroWorkload` (diurnal curve, ×8 flash crowds, Pareto
//! sessions, `retry_after` backoff; aggregates and point reads, no Complex
//! class) feeds a `MultiQueryRuntime` under the bandit policy, EDF,
//! brownout-then-shed watermarks and the write-ahead journal, with 5%
//! message loss. Average offered load is about 1.1× slot capacity. The
//! host drives `step(epoch)` until the stream is drained. Scheduler,
//! admission, overload, journal and the shared aggregation tree do the
//! work; the learner is constant-cost LinUCB and no PDE runs.

use crate::handheld::shadow_plan;
use crate::trace::Tracer;
use crate::{close, quantile, Round, Workload};
use pg_core::{PervasiveGrid, PgError, Policy, QueryResponse};
use pg_runtime::{
    Arrival, ArrivalProcess, BatchQuery, DeviceClass, EngineOutcome, MetroConfig, MetroWorkload,
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, OverloadState, QueryEngine, QueryOpts,
    RuntimeConfig, SchedPolicy,
};
use pg_sensornet::region::Region;
use pg_sim::fault::FaultPlan;
use pg_sim::{Duration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Service capacity: 16 slots per 30 s epoch.
const SLOTS: usize = 16;
const EPOCH_S: u64 = 30;
/// Offered load over capacity, averaged over the run.
const LOAD: f64 = 1.1;
/// One compressed diurnal period.
const DAY_S: u64 = 3_600;
/// Diurnal periods per run: many short days, so each run averages over
/// many flash crowds and its figures depend little on the seed.
const DAYS: u64 = 24;

pub struct Metro;

pub struct World {
    rt: MultiQueryRuntime<PervasiveGrid>,
    arrivals: MetroWorkload,
}

/// Device classes: every query carries a deadline so EDF and the doomed
/// scan see the whole population.
fn classes() -> Vec<DeviceClass> {
    let dl = |s| QueryOpts::with_deadline(Duration::from_secs(s));
    vec![
        DeviceClass {
            name: "handheld".into(),
            weight: 3.0,
            mix: vec![
                ("SELECT AVG(temp) FROM sensors".into(), dl(60)),
                (
                    "SELECT MAX(temp) FROM sensors WHERE region(west)".into(),
                    dl(120),
                ),
            ],
        },
        DeviceClass {
            name: "display".into(),
            weight: 1.0,
            mix: vec![(
                "SELECT AVG(temp) FROM sensors WHERE region(east)".into(),
                dl(180).priority(1),
            )],
        },
        DeviceClass {
            name: "logger".into(),
            weight: 1.0,
            mix: vec![(
                "SELECT temp FROM sensors WHERE sensor_id = 7".into(),
                dl(300),
            )],
        },
    ]
}

/// The metro population, with sessions per user solved so the mean offered
/// rate is `LOAD` × capacity (expected diurnal level, flash duty cycle and
/// mean Pareto(1.5, 1) session length capped at 50, about 3.3 queries).
fn metro_cfg() -> MetroConfig {
    let (floor, flash_mult, flash_every, flash_len) = (0.2, 8.0, 300.0, 15.0);
    let e_diurnal = floor + (1.0 - floor) * 0.5;
    let e_flash = 1.0 + (flash_mult - 1.0) * (flash_len / flash_every);
    let users = 120_000u64;
    let target_hz = LOAD * SLOTS as f64 / EPOCH_S as f64;
    let spd = target_hz * DAY_S as f64 / (users as f64 * e_diurnal * e_flash * 3.3);
    MetroConfig {
        users,
        sessions_per_user_day: spd,
        day: Duration::from_secs(DAY_S),
        horizon: SimTime::from_secs(DAYS * DAY_S),
        diurnal_floor: floor,
        flash_rate_mult: flash_mult,
        flash_every: Duration::from_secs_f64(flash_every),
        flash_len: Duration::from_secs_f64(flash_len),
        pareto_alpha: 1.5,
        queries_min: 1.0,
        queries_cap: 50,
        think_mean: Duration::from_secs(10),
        retry_max: 4,
        classes: classes(),
    }
}

fn grid(seed: u64) -> PervasiveGrid {
    let faults = FaultPlan::builder(seed)
        .message_loss(0.05)
        .build()
        .expect("a 5% loss plan is valid");
    PervasiveGrid::building(1, 10, seed)
        .region("west", Region::room(0.0, 0.0, 22.0, 45.0))
        .region("east", Region::room(20.0, 0.0, 45.0, 45.0))
        .faults(faults)
        .policy(Policy::Bandit)
        .build()
}

fn runtime<E: QueryEngine>(engine: E) -> MultiQueryRuntime<E> {
    let cfg = RuntimeConfig::builder()
        .capacity(8 * SLOTS)
        .epoch(Duration::from_secs(EPOCH_S))
        .slots_per_epoch(SLOTS)
        .policy(SchedPolicy::Edf)
        .overload(OverloadConfig::watermarks(
            OverloadPolicy::BrownoutShed,
            SLOTS,
            2 * SLOTS,
            3 * SLOTS,
            4 * SLOTS,
        ))
        .build();
    let mut rt = MultiQueryRuntime::new(cfg, engine);
    rt.enable_journal();
    rt
}

/// Access to the grid behind an engine, for the end-of-run checks.
trait Grid {
    fn grid(&self) -> &PervasiveGrid;
}

impl Grid for PervasiveGrid {
    fn grid(&self) -> &PervasiveGrid {
        self
    }
}

/// The engine wrapper of the traced run: forwards every trait method to
/// the real grid, timing the engine calls and shadowing each batch entry's
/// planning stages just before the batch runs.
struct TracedEngine {
    inner: PervasiveGrid,
    tr: Rc<RefCell<Tracer>>,
}

impl Grid for TracedEngine {
    fn grid(&self) -> &PervasiveGrid {
        &self.inner
    }
}

impl QueryEngine for TracedEngine {
    type Response = QueryResponse;
    type Error = PgError;

    fn now(&self) -> SimTime {
        QueryEngine::now(&self.inner)
    }
    fn advance(&mut self, dt: Duration) {
        QueryEngine::advance(&mut self.inner, dt);
    }
    fn available_energy_j(&self) -> f64 {
        self.inner.available_energy_j()
    }
    fn estimate_energy_j(&mut self, text: &str) -> Option<f64> {
        self.inner.estimate_energy_j(text)
    }
    fn note_pressure(&mut self, queue_depth: usize, overload_level: f64) {
        self.inner.note_pressure(queue_depth, overload_level);
    }
    fn execute_batch(
        &mut self,
        batch: &[BatchQuery<'_>],
    ) -> Vec<EngineOutcome<QueryResponse, PgError>> {
        let mut tr = self.tr.borrow_mut();
        for bq in batch {
            shadow_plan(&mut self.inner, bq.text, &mut tr);
        }
        tr.record("core.batch_size", batch.len() as f64);
        let inner = &mut self.inner;
        tr.span("core.execute_batch", || inner.execute_batch(batch))
    }
}

/// The arrival wrapper of the traced run: forwards every trait method,
/// the defaulted ones included (`MetroWorkload`'s backoff lives in
/// `on_overload`), timing the generator.
struct TracedArrivals {
    inner: MetroWorkload,
    tr: Rc<RefCell<Tracer>>,
}

impl ArrivalProcess for TracedArrivals {
    fn peek(&mut self) -> Option<SimTime> {
        let inner = &mut self.inner;
        self.tr.borrow_mut().span("arrivals", || inner.peek())
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        let inner = &mut self.inner;
        self.tr
            .borrow_mut()
            .span("arrivals", || inner.next_arrival())
    }
    fn is_exhausted(&mut self) -> bool {
        let inner = &mut self.inner;
        self.tr
            .borrow_mut()
            .span("arrivals", || inner.is_exhausted())
    }
    fn on_overload(&mut self, arrival: Arrival, retry_after: Duration, now: SimTime) {
        let inner = &mut self.inner;
        self.tr
            .borrow_mut()
            .span("arrivals", || inner.on_overload(arrival, retry_after, now));
    }
}

/// Drive the stream to drain; shared by the plain and traced runs.
fn drive<E, A>(
    rt: &mut MultiQueryRuntime<E>,
    arrivals: &mut A,
    r: &mut Round,
    tr: Option<&Rc<RefCell<Tracer>>>,
) where
    E: QueryEngine<Response = QueryResponse, Error = PgError> + Grid,
    A: ArrivalProcess,
{
    let epoch = rt.config().epoch;
    let mut depth = Vec::new();
    let mut overload_steps = 0u64;
    while !arrivals.is_exhausted() || rt.queue_depth() > 0 {
        if let Some(tr) = tr {
            tr.borrow_mut().take_children();
        }
        r.time_op(|| rt.step(epoch, arrivals));
        if let Some(tr) = tr {
            let mut tr = tr.borrow_mut();
            let children = tr.take_children();
            let step_us = r.op_us[r.op_us.len() - 1];
            tr.record("runtime.step_self", step_us - children);
            depth.push(rt.queue_depth() as f64);
            overload_steps += u64::from(rt.overload_state() != OverloadState::Normal);
        }
    }
    if let Some(tr) = tr {
        let mut tr = tr.borrow_mut();
        tr.set("runtime.queue_depth_p99", quantile(&depth, 0.99));
        tr.set("runtime.overload_steps", overload_steps as f64);
    }
}

/// Checks, outcome digest and simulated totals after the drain.
fn finish<E>(
    rt: &MultiQueryRuntime<E>,
    arrivals: &MetroWorkload,
    r: &mut Round,
    tr: Option<&mut Tracer>,
) where
    E: QueryEngine<Response = QueryResponse, Error = PgError> + Grid,
{
    let pg = rt.engine().grid();
    let mut attributed_j = 0.0;
    let (mut bytes, mut shared) = (0.0, 0u64);
    for o in rt.outcomes() {
        r.completed += 1;
        r.fold(o.id.0);
        r.fold(o.completion_index);
        r.fold_f(o.started_at.as_secs_f64());
        r.fold(u64::from(o.brownout));
        r.fold_f(o.attribution.energy_j);
        r.fold_f(o.attribution.bytes);
        attributed_j += o.attribution.energy_j;
        bytes += o.attribution.bytes;
        shared += u64::from(o.attribution.shared);
        match &o.response {
            Ok(resp) => {
                r.served += 1;
                r.deadline_met += u64::from(!o.deadline_exceeded());
                r.response_s.push(o.response_time_s());
                r.fold_f(resp.value.unwrap_or(f64::NAN));
            }
            Err(e) => {
                r.errors += 1;
                eprintln!("perfbench: {}: {e}", o.text);
            }
        }
    }
    for c in [
        rt.arrived,
        rt.rejected,
        rt.shed,
        rt.browned_out,
        rt.preemptions,
    ] {
        r.fold(c);
    }
    r.submitted = rt.arrived;
    r.offered = arrivals.emitted() - arrivals.retries();
    r.drain_j = pg.energy_consumed();
    r.check(
        "stream: arrived == outcomes + rejected + shed",
        rt.arrived == rt.outcomes().len() as u64 + rt.rejected + rt.shed,
    );
    r.check(
        "stream: every emitted arrival reached submit",
        rt.arrived == arrivals.emitted(),
    );
    r.check(
        "stream: attributed energy equals battery drain",
        close(attributed_j, r.drain_j, 1e-9) && close(rt.energy_spent_j(), r.drain_j, 1e-9),
    );
    let journal = rt.journal().expect("the journal is enabled");
    let t = Instant::now();
    let open = journal.open_queries();
    let replay_us = t.elapsed().as_secs_f64() * 1e6;
    r.check(
        "stream: no journal entry open after the drain",
        open.is_empty(),
    );
    if let Some(tr) = tr {
        tr.record("runtime.journal_replay", replay_us);
        let completed = r.completed.max(1) as f64;
        let batches = tr.samples("core.execute_batch").to_vec();
        tr.set("query.parse_us", tr.mean("query.parse"));
        tr.set("partition.features_us", tr.mean("partition.features"));
        tr.set("partition.predict_us", tr.mean("partition.predict"));
        tr.set("partition.candidates", tr.mean("partition.candidates"));
        tr.set("partition.history_len", pg.decision.history_len() as f64);
        tr.set("core.log_len", pg.log.len() as f64);
        tr.set("core.execute_batch_p50_us", quantile(&batches, 0.5));
        tr.set("core.execute_batch_p99_us", quantile(&batches, 0.99));
        tr.set("core.batch_size_mean", tr.mean("core.batch_size"));
        tr.set("core.shared_frac", shared as f64 / completed);
        tr.set("sensornet.bytes_per_query", bytes / completed);
        tr.set("runtime.step_self_us", tr.mean("runtime.step_self"));
        tr.set("runtime.admitted", rt.admitted as f64);
        tr.set("runtime.rejected", rt.rejected as f64);
        tr.set("runtime.shed", rt.shed as f64);
        tr.set("runtime.browned_out", rt.browned_out as f64);
        tr.set("runtime.preemptions", rt.preemptions as f64);
        tr.set("runtime.outcomes_len", rt.outcomes().len() as f64);
        tr.set("runtime.journal_records", journal.len() as f64);
        tr.set(
            "runtime.journal_replay_us",
            tr.mean("runtime.journal_replay"),
        );
        // Generator time (peek, next, backoff) per delivered arrival.
        tr.record("arrivals.delivered", rt.arrived as f64);
        let busy_us: f64 = tr.samples("arrivals").iter().sum();
        let delivered: f64 = tr.samples("arrivals.delivered").iter().sum();
        tr.set("arrivals.next_us", busy_us / delivered.max(1.0));
    }
}

impl Workload for Metro {
    type World = World;

    fn build(&self, seed: u64, _: Option<&mut Tracer>) -> Self::World {
        World {
            rt: runtime(grid(seed)),
            arrivals: MetroWorkload::new(seed, metro_cfg()),
        }
    }

    fn run(&self, world: Self::World, tracer: Option<&mut Tracer>) -> Round {
        let mut r = Round::default();
        let World {
            mut rt,
            mut arrivals,
        } = world;
        let Some(tracer) = tracer else {
            drive(&mut rt, &mut arrivals, &mut r, None);
            finish(&rt, &arrivals, &mut r, None);
            return r;
        };
        // Re-seat the built grid and generator behind the wrappers; the
        // runtime has not run yet, so nothing is lost.
        let tr = Rc::new(RefCell::new(std::mem::take(tracer)));
        let (grid, _) = rt.into_parts();
        let mut rt = runtime(TracedEngine {
            inner: grid,
            tr: Rc::clone(&tr),
        });
        let mut arrivals = TracedArrivals {
            inner: arrivals,
            tr: Rc::clone(&tr),
        };
        drive(&mut rt, &mut arrivals, &mut r, Some(&tr));
        let TracedArrivals {
            inner: arrivals,
            tr: arrivals_tr,
        } = arrivals;
        drop(arrivals_tr);
        {
            let mut t = tr.borrow_mut();
            t.set("arrivals.retries", arrivals.retries() as f64);
            t.set("arrivals.gave_up", arrivals.gave_up() as f64);
            finish(&rt, &arrivals, &mut r, Some(&mut t));
        }
        drop(rt);
        *tracer = Rc::try_unwrap(tr)
            .expect("wrappers are dropped")
            .into_inner();
        r
    }
}
