//! The federation driver: N cells, gossip, roaming, and load absorption.
//!
//! A [`Federation`] owns a vector of [`Cell`]s (each a full base-station
//! runtime over its own grid), their [`Membership`] replicas and
//! [`HandoffStore`] ledgers, and one reliable [`AgentSystem`] bus carrying
//! inter-cell envelopes (migrating queries with their partial results,
//! forwarded answers) with ack/retry/dead-letter semantics. There is no
//! central orchestrator in the *protocol*: every decision a cell makes —
//! who to gossip with, where to redirect an admission, whether a peer is
//! dead — uses only that cell's own replicated state. The driver is just
//! the clock: it advances all cells in lockstep windows, routes each
//! roaming user's arrivals to the cell under their feet, and carries out
//! the per-cell decisions.
//!
//! Per window the driver: (1) processes due mobility moves — observing
//! the next-cell predictor, pre-warming the predicted destination's plan
//! cache, and for each in-flight query either *migrating* it (extracted
//! at the origin, shipped over the bus, re-planned and re-admitted at the
//! destination under its own watermarks) or letting it finish at the
//! origin with the answer *forwarded home*; (2) routes due arrivals,
//! redirecting away from dead or shedding home cells into the neighbor
//! the local membership view says can absorb them; (3) runs due gossip
//! rounds (heartbeats + load digests + handoff-ledger replication);
//! (4) steps every cell's runtime one window; (5) harvests outcomes —
//! stamping cross-cell [`Provenance`], triggering result forwards, and
//! re-routing bounced admissions; (6) pumps the bus to quiescence and
//! applies deliveries.

use crate::cell::{Cell, PendingForward};
use crate::gossip::{gossip_round_ctx, CellId, GossipConfig, MemberState, Membership, RoundCtx};
use crate::handoff::{HandoffId, HandoffKind, HandoffPhase, HandoffRecord, HandoffStore};
use crate::roaming::{NextCellPredictor, Trace};
use pg_agent::{Agent, AgentProfile, AgentSystem, DirectDeputy, Envelope, ReliableConfig};
use pg_compose::proactive::{CacheResult, ComposeCosts};
use pg_compose::MethodLibrary;
use pg_core::{CrossCellHandoff, PervasiveGrid, Provenance};
use pg_net::link::LinkModel;
use pg_runtime::arrivals::Arrival;
use pg_runtime::scheduler::MigratedQuery;
use pg_runtime::{MultiQueryRuntime, OverloadState, QueryHandle, QueryOpts, QueryStatus};
use pg_sim::fault::FaultPlan;
use pg_sim::rng::mix;
use pg_sim::{Duration, SimTime};
use std::collections::BTreeMap;

/// Federation-layer tuning.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Master seed (gossip peer selection, bus retry jitter).
    pub seed: u64,
    /// Lockstep window the driver advances all cells by — normally the
    /// cells' scheduling epoch, so a one-cell federation reproduces
    /// standalone `run_stream` exactly.
    pub window: Duration,
    /// Gossip layer tuning (fanout, period, suspicion/eviction).
    pub gossip: GossipConfig,
    /// Planning-pipeline cost model for destination re-planning.
    pub compose: ComposeCosts,
    /// Plan-cache TTL per cell. `Duration::ZERO` = purely reactive: every
    /// migration pays the full plan + discovery path (the *cold* mode).
    pub cache_ttl: Duration,
    /// Train the next-cell predictor and pre-warm predicted destinations.
    pub predictor: bool,
    /// Peer load absorption: redirect admissions away from dead or
    /// shedding cells into neighbors (each honoring its own watermarks).
    /// Off = isolated cells, the baseline the experiment compares against.
    pub redirect: bool,
    /// Payload size modeling a migrating query's partial results (and a
    /// forwarded answer) on the wire.
    pub payload_bytes: usize,
    /// Reliable-bus tuning (ack timeout, retries, backoff, and the
    /// optional per-peer circuit breaker over dead-letter outcomes).
    pub reliable: ReliableConfig,
    /// Fault plan for the inter-cell bus (message loss exercises
    /// ack/retry/dead-letter on handoff envelopes).
    pub bus_faults: FaultPlan,
    /// Cell-level fault plan: partition windows and one-way cuts sever
    /// inter-cell links (gossip and bus alike, cells addressed by
    /// `CellId.0 as u64`); `cell_crash` windows crash-stop whole cell
    /// processes — the volatile queue is destroyed at the down edge and,
    /// when [`journal`](FederationConfig::journal) is on, replayed at the
    /// up edge. The empty plan (the default) changes nothing.
    pub cell_faults: FaultPlan,
    /// Write-ahead query journal per cell: admission-state transitions
    /// are logged so a crashed-then-restarted cell re-admits its
    /// in-flight queries under their original ids (exactly-once
    /// accounting). Off = a crash loses the queue outright.
    pub journal: bool,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            seed: 42,
            window: Duration::from_secs(30),
            gossip: GossipConfig::default(),
            compose: ComposeCosts::default(),
            cache_ttl: Duration::from_secs(600),
            predictor: true,
            redirect: true,
            payload_bytes: 2048,
            reliable: ReliableConfig::default(),
            bus_faults: FaultPlan::none(),
            cell_faults: FaultPlan::none(),
            journal: false,
        }
    }
}

/// What the federation counted and measured over a run.
#[derive(Debug, Clone, Default)]
pub struct FederationStats {
    /// Handoff records opened for migrating in-flight queries.
    pub migrations_opened: u64,
    /// Migrations re-admitted at their destination.
    pub migrations_completed: u64,
    /// Migrations the destination's own watermarks refused.
    pub migrations_rejected: u64,
    /// Migrations dead-lettered on the bus (query lost in transit).
    pub migrations_lost: u64,
    /// Handoff records opened for results forwarding home.
    pub forwards_opened: u64,
    /// Forwarded results delivered to the user's new cell.
    pub forwards_completed: u64,
    /// Forwarded results dead-lettered on the bus.
    pub forwards_lost: u64,
    /// Fresh arrivals redirected away from a dead or shedding home cell.
    pub absorbed: u64,
    /// Arrivals dropped because the home cell was down and no live
    /// neighbor existed (or absorption was disabled — isolated cells).
    pub home_down_dropped: u64,
    /// Bounced (Overloaded) admissions re-routed into an absorbing peer.
    pub bounced_redirected: u64,
    /// Bounced admissions dropped (no absorber, or drain phase).
    pub bounced_dropped: u64,
    /// Plan-cache pre-warms issued by the next-cell predictor.
    pub prewarms: u64,
    /// End-to-end migration handoff latencies (transport + re-planning),
    /// seconds, when the destination cache was warm.
    pub warm_handoff_latencies_s: Vec<f64>,
    /// Same, when the destination had to re-plan cold.
    pub cold_handoff_latencies_s: Vec<f64>,
    /// Forward-home delivery latencies (transport only), seconds.
    pub forward_latencies_s: Vec<f64>,
    /// Cell-process crash-stops applied from the cell fault plan.
    pub crashes: u64,
    /// Queries destroyed in those crashes (before any journal replay).
    pub crash_lost: u64,
    /// Crash-lost queries re-admitted by write-ahead journal replay at
    /// the restart edge.
    pub journal_recovered: u64,
}

/// The `q`-quantile of a latency sample set (nearest-rank), if non-empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
    Some(s[idx.min(s.len() - 1)])
}

/// A cell's endpoint on the inter-cell bus: queues deliveries (with their
/// arrival instants) for the driver to apply at the window boundary. The
/// reliable layer acks and dedups by sequence number underneath, so each
/// envelope lands here exactly once.
struct CellEndpoint {
    profile: AgentProfile,
    inbox: Vec<(SimTime, Envelope)>,
}

impl Agent for CellEndpoint {
    fn profile(&self) -> &AgentProfile {
        &self.profile
    }

    fn handle(&mut self, now: SimTime, env: Envelope) -> Vec<Envelope> {
        self.inbox.push((now, env));
        Vec::new()
    }
}

/// A migrating query in transit on the bus.
struct MigrateInFlight {
    query: MigratedQuery,
    user: u64,
    from: usize,
    to: usize,
}

/// A forwarded result in transit on the bus.
struct ForwardInFlight {
    from: usize,
}

/// N federated base-station cells plus the state that stitches them
/// together. Construct with [`Federation::new`], offer a workload with
/// [`offer`](Federation::offer), then [`run`](Federation::run).
pub struct Federation {
    cfg: FederationConfig,
    cells: Vec<Cell>,
    members: Vec<Membership>,
    handoffs: Vec<HandoffStore>,
    bus: AgentSystem,
    traces: BTreeMap<u64, Trace>,
    move_cursor: BTreeMap<u64, usize>,
    current_cell: BTreeMap<u64, CellId>,
    offered: Vec<(u64, Arrival)>,
    offered_idx: usize,
    inflight: BTreeMap<u64, Vec<(usize, QueryHandle)>>,
    migrating: BTreeMap<HandoffId, MigrateInFlight>,
    forwarding: BTreeMap<HandoffId, ForwardInFlight>,
    predictor: NextCellPredictor,
    tasks: Vec<String>,
    /// Which cells are currently crash-stopped (cell fault plan).
    crashed: Vec<bool>,
    now: SimTime,
    round_idx: u64,
    next_gossip: SimTime,
    next_seq: u64,
    /// Counters and latency samples for the run.
    pub stats: FederationStats,
}

impl Federation {
    /// Assemble a federation: one pre-built runtime per cell (index `i`
    /// is `CellId(i)`) and the mobility traces of its roaming users.
    /// Users without a trace are stationary at cell `user % cells`. Cell 0
    /// is every cell's introducer; the rest of the view is learned by
    /// anti-entropy. When `cfg.predictor` is set the next-cell predictor
    /// is trained on the given traces (the users' historical commutes)
    /// and each user's first predicted hop is pre-warmed immediately.
    pub fn new(
        cfg: FederationConfig,
        runtimes: Vec<MultiQueryRuntime<PervasiveGrid>>,
        traces: Vec<Trace>,
    ) -> Self {
        assert!(!runtimes.is_empty(), "a federation needs at least one cell");
        let mut bus = AgentSystem::new();
        bus.enable_reliability(cfg.reliable, mix(cfg.seed, 0xfed));
        bus.set_fault_plan(cfg.bus_faults.clone());
        let mut cells = Vec::with_capacity(runtimes.len());
        for (i, mut rt) in runtimes.into_iter().enumerate() {
            rt.record_admissions(true);
            if cfg.journal {
                rt.enable_journal();
            }
            let endpoint = CellEndpoint {
                profile: AgentProfile::new(),
                inbox: Vec::new(),
            };
            let agent = bus.register(
                Box::new(endpoint),
                Box::new(DirectDeputy::new(LinkModel::wired_backhaul())),
            );
            cells.push(Cell::new(CellId(i as u32), rt, agent, cfg.cache_ttl));
        }
        let n = cells.len();
        if cfg.cell_faults.has_cell_faults() {
            // Project the cell-level plan onto the bus wire: a frame
            // between two cells is eaten while their link is severed or
            // either endpoint's process is down. Reliable retries (and the
            // per-peer breaker, when configured) do the rest.
            let plan = cfg.cell_faults.clone();
            let agent_cell: BTreeMap<pg_agent::AgentId, u64> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| (c.agent, i as u64))
                .collect();
            bus.set_link_filter(move |from, to, now| {
                match (agent_cell.get(&from), agent_cell.get(&to)) {
                    (Some(&f), Some(&t)) => {
                        plan.cell_link_up(f, t, now)
                            && !plan.is_cell_down(f, now)
                            && !plan.is_cell_down(t, now)
                    }
                    _ => true,
                }
            });
        }
        let introducer = [CellId(0)];
        let members = (0..n)
            .map(|i| Membership::new(CellId(i as u32), &introducer, SimTime::ZERO))
            .collect();
        let handoffs = (0..n)
            .map(|i| HandoffStore::new(CellId(i as u32)))
            .collect();
        let tasks: Vec<String> = MethodLibrary::pervasive_grid()
            .tasks()
            .map(str::to_string)
            .collect();
        let mut tmap = BTreeMap::new();
        let mut current_cell = BTreeMap::new();
        let mut move_cursor = BTreeMap::new();
        for t in traces {
            current_cell.insert(t.user, t.start);
            move_cursor.insert(t.user, 0);
            tmap.insert(t.user, t);
        }
        let mut predictor = NextCellPredictor::new();
        if cfg.predictor {
            let history: Vec<Trace> = tmap.values().cloned().collect();
            predictor.train(&history);
        }
        let mut fed = Federation {
            cfg,
            cells,
            members,
            handoffs,
            bus,
            traces: tmap,
            move_cursor,
            current_cell,
            offered: Vec::new(),
            offered_idx: 0,
            inflight: BTreeMap::new(),
            migrating: BTreeMap::new(),
            forwarding: BTreeMap::new(),
            predictor,
            tasks,
            crashed: vec![false; n],
            now: SimTime::ZERO,
            round_idx: 0,
            next_gossip: SimTime::ZERO,
            next_seq: 0,
            stats: FederationStats::default(),
        };
        if fed.cfg.predictor {
            let starts: Vec<(u64, CellId)> =
                fed.current_cell.iter().map(|(&u, &c)| (u, c)).collect();
            for (user, at_cell) in starts {
                fed.prewarm_next(user, at_cell, SimTime::ZERO);
            }
        }
        fed
    }

    /// Offer one query arriving at `at` from roaming `user`. Call any
    /// number of times before [`run`](Federation::run); arrivals are
    /// sorted by time (stable on ties) when the run starts.
    pub fn offer(&mut self, at: SimTime, user: u64, text: impl Into<String>, opts: QueryOpts) {
        self.offered.push((
            user,
            Arrival {
                at,
                text: text.into(),
                opts,
            },
        ));
    }

    /// Drive the federation to `horizon`, then keep stepping until every
    /// queue, window, and in-flight handoff has drained.
    pub fn run(&mut self, horizon: SimTime) {
        let dt = self.cfg.window;
        assert!(dt > Duration::ZERO, "window must be positive");
        self.offered[self.offered_idx..].sort_by_key(|(_, a)| a.at);
        let mut windows = 0u64;
        let cell_faults_on = self.cfg.cell_faults.has_cell_faults();
        loop {
            let start = self.now;
            let end = start + dt;
            let draining = start >= horizon;
            if cell_faults_on {
                // Keep the bus clock in lockstep with the federation so
                // time-windowed link cuts bite (and heal) at the right
                // instants for in-flight retries.
                self.bus.advance_to(start);
                self.apply_cell_faults(start);
            }
            self.route_moves(end);
            self.route_arrivals(end);
            self.run_gossip(start);
            for c in self.cells.iter_mut() {
                c.rt.step(dt, &mut c.window);
                debug_assert_eq!(c.window.pending(), 0, "a window step left arrivals queued");
            }
            self.harvest(end, draining);
            self.pump_bus(end);
            self.now = end;
            if self.now >= horizon && self.is_drained() {
                break;
            }
            windows += 1;
            assert!(windows < 4_000_000, "federation failed to drain");
        }
    }

    /// The federation clock (end of the last completed window).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cells, indexed by `CellId.0`.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Per-cell membership replicas, indexed by `CellId.0`.
    pub fn members(&self) -> &[Membership] {
        &self.members
    }

    /// Per-cell handoff ledgers, indexed by `CellId.0`.
    pub fn handoff_ledgers(&self) -> &[HandoffStore] {
        &self.handoffs
    }

    /// The inter-cell bus metrics (reliable.sent / acked / retries /
    /// dead_letter and route counters).
    pub fn bus_metrics(&self) -> &pg_sim::metrics::Metrics {
        self.bus.metrics()
    }

    /// Completed queries across all cells: `(total, deadline_met)` —
    /// counting only `Ok` responses against their deadlines.
    pub fn goodput(&self) -> (u64, u64) {
        let mut total = 0;
        let mut met = 0;
        for c in &self.cells {
            for o in c.rt.outcomes() {
                total += 1;
                if o.response.is_ok() && !o.deadline_exceeded() {
                    met += 1;
                }
            }
        }
        (total, met)
    }

    /// Is cell `i` out of service at `t` — base station down (its own
    /// grid's fault plan) or process crash-stopped (the federation's
    /// cell fault plan)?
    fn cell_down(&self, i: usize, t: SimTime) -> bool {
        self.cells[i].is_down(t) || self.cfg.cell_faults.is_cell_down(i as u64, t)
    }

    /// Apply crash-stop edges from the cell fault plan at a window
    /// boundary: a cell entering a down window loses its volatile queue
    /// on the spot ([`MultiQueryRuntime::crash`]); a cell leaving one
    /// restarts — replaying its write-ahead journal when enabled, and
    /// announcing itself with a bumped gossip incarnation so peers
    /// resurrect it deterministically instead of trusting stale rumors.
    fn apply_cell_faults(&mut self, start: SimTime) {
        for i in 0..self.cells.len() {
            let down = self.cfg.cell_faults.is_cell_down(i as u64, start);
            if down && !self.crashed[i] {
                self.crashed[i] = true;
                let lost = self.cells[i].rt.crash();
                self.stats.crashes += 1;
                self.stats.crash_lost += lost as u64;
            } else if !down && self.crashed[i] {
                self.crashed[i] = false;
                let recovered = self.cells[i].rt.recover_from_journal();
                self.stats.journal_recovered += recovered as u64;
                self.members[i].bump_incarnation();
            }
        }
    }

    /// The task a user's queries plan against (for destination
    /// re-planning and predictive pre-warming).
    fn task_of(&self, user: u64) -> String {
        self.tasks[user as usize % self.tasks.len()].clone()
    }

    /// Pre-warm the plan cache at the cell the predictor expects `user`
    /// (currently in `at_cell`) to enter next.
    fn prewarm_next(&mut self, user: u64, at_cell: CellId, now: SimTime) {
        let Some(next) = self.predictor.predict(user, at_cell) else {
            return;
        };
        let t = next.0 as usize;
        if t >= self.cells.len() || next == at_cell {
            return;
        }
        let task = self.task_of(user);
        if self.cells[t].cache.warm(&task, now).is_ok() {
            self.stats.prewarms += 1;
        }
    }

    /// Mint a fresh handoff id opened by `cell`.
    fn mint(&mut self, cell: CellId) -> HandoffId {
        let id = HandoffId::mint(cell, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Where should load that cannot stay at `home` go at `at`? The
    /// decision-maker is `home` itself when its base is up (shedding), or
    /// else the first live cell ring-wise — and it chooses from its *own
    /// gossip view*: the live, absorbing peer with the shallowest last
    /// digested queue (smallest id on ties). A candidate whose base is
    /// actually down fails the redirect handshake and is skipped.
    fn absorption_target(&self, home: usize, at: SimTime) -> Option<CellId> {
        let n = self.cells.len();
        let decider = if !self.cell_down(home, at) {
            home
        } else {
            (1..n)
                .map(|k| (home + k) % n)
                .find(|&j| !self.cell_down(j, at))?
        };
        self.members[decider]
            .members()
            .filter(|(c, info)| {
                let j = c.0 as usize;
                j != home
                    && j < n
                    && info.state != MemberState::Dead
                    && info.entry.load.can_absorb()
                    && !self.cell_down(j, at)
                    // A partitioned-away peer may look alive in the view
                    // (stale entries persist through the suspicion
                    // window) but cannot be reached to absorb anything.
                    && self.cfg.cell_faults.cell_link_up(decider as u64, j as u64, at)
            })
            .map(|(c, info)| (info.entry.load.queue_depth, c))
            .min()
            .map(|(_, c)| c)
    }

    /// Process mobility moves due before `end`: predictor bookkeeping,
    /// predictive pre-warming, and per-in-flight-query migrate /
    /// forward-home decisions.
    fn route_moves(&mut self, end: SimTime) {
        let users: Vec<u64> = self.traces.keys().copied().collect();
        for user in users {
            while let Some(mv) = self
                .traces
                .get(&user)
                .and_then(|t| {
                    t.moves
                        .get(self.move_cursor.get(&user).copied().unwrap_or(0))
                })
                .copied()
            {
                if mv.at >= end {
                    break;
                }
                if let Some(c) = self.move_cursor.get_mut(&user) {
                    *c += 1;
                }
                let from = self.current_cell.get(&user).copied().unwrap_or(CellId(0));
                self.current_cell.insert(user, mv.to);
                if self.cfg.predictor {
                    self.predictor.observe(user, from, mv.to);
                    self.prewarm_next(user, mv.to, mv.at);
                }
                self.migrate_user(user, mv.to, mv.at);
            }
        }
    }

    /// The user just entered `to`: decide the fate of each of their
    /// in-flight queries.
    fn migrate_user(&mut self, user: u64, to: CellId, at: SimTime) {
        let Some(tracked) = self.inflight.remove(&user) else {
            return;
        };
        let mut keep = Vec::new();
        for (idx, handle) in tracked {
            if idx == to.0 as usize {
                keep.push((idx, handle));
                continue;
            }
            let slots = self.cells[idx].rt.config().slots_per_epoch;
            let migrate = match self.cells[idx].rt.poll(handle) {
                // Deep in the queue: worth moving with the user. Near the
                // head: it will be serviced imminently — let it finish
                // here and forward the answer.
                QueryStatus::Queued { rank, .. } => rank >= slots,
                // Completed while the user was still here (answer already
                // delivered locally), or shed/cancelled: nothing to move.
                _ => {
                    continue;
                }
            };
            // A user walking into a dead cell gets an absorbing neighbor
            // as the migration target instead (when redirect is on).
            let dest = if !self.cell_down(to.0 as usize, at) {
                Some(to.0 as usize)
            } else if self.cfg.redirect {
                self.absorption_target(to.0 as usize, at)
                    .map(|c| c.0 as usize)
            } else {
                None
            };
            match dest {
                Some(d) if migrate && d != idx => {
                    if let Some(q) = self.cells[idx].rt.extract(handle) {
                        let id = self.mint(CellId(idx as u32));
                        self.handoffs[idx].open(HandoffRecord {
                            id,
                            user,
                            from: CellId(idx as u32),
                            to: CellId(d as u32),
                            kind: HandoffKind::Migrate,
                            phase: HandoffPhase::Pending,
                            opened_at: at,
                            completed_at: None,
                            latency_s: None,
                            warm: false,
                        });
                        self.stats.migrations_opened += 1;
                        self.bus.send(Envelope::binary(
                            self.cells[idx].agent,
                            self.cells[d].agent,
                            &format!("handoff/migrate/{}", id.0),
                            vec![0u8; self.cfg.payload_bytes],
                        ));
                        self.migrating.insert(
                            id,
                            MigrateInFlight {
                                query: q,
                                user,
                                from: idx,
                                to: d,
                            },
                        );
                    }
                }
                _ => {
                    // Finishing here (near the head, nowhere to migrate,
                    // or destination dead): forward the answer when it
                    // lands.
                    let id = self.mint(CellId(idx as u32));
                    self.handoffs[idx].open(HandoffRecord {
                        id,
                        user,
                        from: CellId(idx as u32),
                        to,
                        kind: HandoffKind::ForwardHome,
                        phase: HandoffPhase::Pending,
                        opened_at: at,
                        completed_at: None,
                        latency_s: None,
                        warm: false,
                    });
                    self.stats.forwards_opened += 1;
                    self.cells[idx]
                        .forwards
                        .insert(handle.id(), PendingForward { user, handoff: id });
                    keep.push((idx, handle));
                }
            }
        }
        if !keep.is_empty() {
            self.inflight.insert(user, keep);
        }
    }

    /// Route arrivals due before `end` to the cell under the user's feet,
    /// absorbing away from dead or shedding homes when redirect is on.
    fn route_arrivals(&mut self, end: SimTime) {
        while self.offered_idx < self.offered.len() {
            if self.offered[self.offered_idx].1.at >= end {
                break;
            }
            let (user, arrival) = self.offered[self.offered_idx].clone();
            self.offered_idx += 1;
            self.route_one(arrival, user);
        }
    }

    fn route_one(&mut self, arrival: Arrival, user: u64) {
        let n = self.cells.len();
        let home = self
            .traces
            .get(&user)
            .map(|t| t.cell_at(arrival.at))
            .unwrap_or(CellId((user % n as u64) as u32));
        let h = home.0 as usize;
        let at = arrival.at;
        let home_down = self.cell_down(h, at);
        let home_shedding = self.cells[h].rt.overload_state() == OverloadState::Shed;
        if (home_down || home_shedding) && self.cfg.redirect {
            if let Some(t) = self.absorption_target(h, at) {
                self.stats.absorbed += 1;
                let tag = Provenance {
                    origin_cell: Some(home.0),
                    served_cell: Some(t.0),
                    handoff: Some(CrossCellHandoff::Absorbed),
                };
                self.cells[t.0 as usize]
                    .window
                    .push(arrival, user, Some(tag));
                return;
            }
            if home_down {
                self.stats.home_down_dropped += 1;
                return;
            }
            // Shedding home, no absorber anywhere: offer it at home and
            // let the watermark decide.
        } else if home_down {
            // Isolated cells: a dead base station serves nobody.
            self.stats.home_down_dropped += 1;
            return;
        }
        self.cells[h].window.push(arrival, user, None);
    }

    /// Run every gossip round due at or before `start`.
    fn run_gossip(&mut self, start: SimTime) {
        while self.next_gossip <= start {
            let now = self.next_gossip;
            let up: Vec<bool> = (0..self.cells.len())
                .map(|i| !self.cell_down(i, now))
                .collect();
            for (i, c) in self.cells.iter_mut().enumerate() {
                if up[i] {
                    let digest = c.load_digest(now);
                    self.members[i].beat(now, digest);
                }
            }
            gossip_round_ctx(
                &mut self.members,
                &mut self.handoffs,
                &up,
                &RoundCtx {
                    now,
                    cfg: &self.cfg.gossip,
                    seed: self.cfg.seed,
                    round_idx: self.round_idx,
                    faults: Some(&self.cfg.cell_faults),
                },
            );
            self.round_idx += 1;
            self.next_gossip += self.cfg.gossip.round;
        }
    }

    /// Post-step bookkeeping for every cell: correlate streamed
    /// admissions with their users, re-route bounced admissions, stamp
    /// provenance on fresh outcomes, and trigger result forwards.
    fn harvest(&mut self, end: SimTime, draining: bool) {
        for i in 0..self.cells.len() {
            let delivered = self.cells[i].window.take_delivered();
            let log = self.cells[i].rt.take_admission_log();
            debug_assert_eq!(
                delivered.len(),
                log.len(),
                "admission log out of sync with routed arrivals"
            );
            for ((user, tag), handle) in delivered.into_iter().zip(log) {
                if let Some(h) = handle {
                    if let Some(tag) = tag {
                        self.cells[i].annotations.insert(h.id(), tag);
                    }
                    self.inflight.entry(user).or_default().push((i, h));
                }
            }

            let bounced = self.cells[i].window.take_bounced();
            for (mut arrival, user) in bounced {
                if self.cfg.redirect && !draining {
                    if let Some(t) = self.absorption_target(i, end) {
                        arrival.at = end;
                        self.stats.bounced_redirected += 1;
                        let tag = Provenance {
                            origin_cell: Some(i as u32),
                            served_cell: Some(t.0),
                            handoff: Some(CrossCellHandoff::Absorbed),
                        };
                        self.cells[t.0 as usize]
                            .window
                            .push(arrival, user, Some(tag));
                        continue;
                    }
                }
                self.stats.bounced_dropped += 1;
            }

            let total = self.cells[i].rt.outcomes().len();
            for k in self.cells[i].outcomes_seen..total {
                let id = self.cells[i].rt.outcomes()[k].id;
                if let Some(p) = self.cells[i].annotations.remove(&id) {
                    if let Ok(resp) = self.cells[i].rt.outcomes_mut()[k].response.as_mut() {
                        resp.provenance = p;
                    }
                }
                let Some(fwd) = self.cells[i].forwards.remove(&id) else {
                    continue;
                };
                if let Ok(resp) = self.cells[i].rt.outcomes_mut()[k].response.as_mut() {
                    resp.provenance = Provenance {
                        origin_cell: Some(i as u32),
                        served_cell: Some(i as u32),
                        handoff: Some(CrossCellHandoff::ForwardedHome),
                    };
                }
                self.handoffs[i].advance(fwd.handoff, HandoffPhase::InProgress, end, None, false);
                let cur = self
                    .current_cell
                    .get(&fwd.user)
                    .copied()
                    .unwrap_or(CellId(i as u32));
                if cur.0 as usize == i {
                    // The user came back before the answer landed:
                    // delivery is local.
                    self.handoffs[i].advance(
                        fwd.handoff,
                        HandoffPhase::Completed,
                        end,
                        Some(0.0),
                        false,
                    );
                    self.stats.forwards_completed += 1;
                    self.stats.forward_latencies_s.push(0.0);
                } else {
                    self.bus.send(Envelope::binary(
                        self.cells[i].agent,
                        self.cells[cur.0 as usize].agent,
                        &format!("handoff/forward/{}", fwd.handoff.0),
                        vec![0u8; self.cfg.payload_bytes],
                    ));
                    self.forwarding
                        .insert(fwd.handoff, ForwardInFlight { from: i });
                }
            }
            self.cells[i].outcomes_seen = total;
        }
    }

    /// Run the bus to quiescence and apply every delivery. Envelopes still
    /// unaccounted for afterwards exhausted their retries (dead-lettered):
    /// a migrating query lost in transit stays Pending in the ledger.
    fn pump_bus(&mut self, end: SimTime) {
        self.bus.run_to_quiescence();
        for i in 0..self.cells.len() {
            let inbox: Vec<(SimTime, Envelope)> = self
                .bus
                .with_agent_mut(self.cells[i].agent, |a| {
                    a.downcast_mut::<CellEndpoint>()
                        .map(|e| std::mem::take(&mut e.inbox))
                        .unwrap_or_default()
                })
                .unwrap_or_default();
            for (arrived, env) in inbox {
                // The bus clock idles between windows, so only the
                // *duration* in transit is meaningful.
                let transport_s = arrived.since(env.sent_at).as_secs_f64();
                if let Some(id) = env
                    .content_type
                    .strip_prefix("handoff/migrate/")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    self.apply_migration(HandoffId(id), i, transport_s, end);
                } else if let Some(id) = env
                    .content_type
                    .strip_prefix("handoff/forward/")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    self.apply_forward(HandoffId(id), i, transport_s, end);
                }
            }
        }
        let lost = self.migrating.len() as u64;
        if lost > 0 {
            self.stats.migrations_lost += lost;
            self.migrating.clear();
        }
        let lost = self.forwarding.len() as u64;
        if lost > 0 {
            self.stats.forwards_lost += lost;
            self.forwarding.clear();
        }
    }

    /// A migrating query arrived at cell `dest`: re-plan (through the
    /// destination's cache — warm if the predictor got there first) and
    /// re-admit under the destination's own watermarks.
    fn apply_migration(&mut self, id: HandoffId, dest: usize, transport_s: f64, end: SimTime) {
        let Some(m) = self.migrating.remove(&id) else {
            return;
        };
        debug_assert_eq!(m.to, dest, "migration delivered to the wrong cell");
        // The envelope itself carries the record to the destination; the
        // rest of the federation learns by gossip.
        if let Some(rec) = self.handoffs[m.from].get(id).cloned() {
            self.handoffs[dest].merge(&[rec]);
        }
        let task = self.task_of(m.user);
        let costs = self.cfg.compose;
        let (warm, setup_s) = match self.cells[dest].cache.request(&task, end, &costs) {
            Ok((_, CacheResult::Hit, d)) => (true, d.as_secs_f64()),
            Ok((_, CacheResult::Miss, d)) => (false, d.as_secs_f64()),
            Err(_) => (
                false,
                (costs.plan_time + costs.discovery_sweep).as_secs_f64(),
            ),
        };
        self.handoffs[dest].advance(id, HandoffPhase::InProgress, end, None, warm);
        let latency = transport_s + setup_s;
        let verdict = self.cells[dest].rt.admit_migrated(m.query);
        self.handoffs[dest].advance(id, HandoffPhase::Completed, end, Some(latency), warm);
        match verdict.handle() {
            Some(h) => {
                self.cells[dest].annotations.insert(
                    h.id(),
                    Provenance {
                        origin_cell: Some(m.from as u32),
                        served_cell: Some(dest as u32),
                        handoff: Some(CrossCellHandoff::Migrated),
                    },
                );
                self.inflight.entry(m.user).or_default().push((dest, h));
                self.stats.migrations_completed += 1;
                if warm {
                    self.stats.warm_handoff_latencies_s.push(latency);
                } else {
                    self.stats.cold_handoff_latencies_s.push(latency);
                }
            }
            None => {
                // The destination's own overload watermarks refused it.
                self.stats.migrations_rejected += 1;
            }
        }
    }

    /// A forwarded result arrived at the user's new cell.
    fn apply_forward(&mut self, id: HandoffId, dest: usize, transport_s: f64, end: SimTime) {
        let Some(f) = self.forwarding.remove(&id) else {
            return;
        };
        if let Some(rec) = self.handoffs[f.from].get(id).cloned() {
            self.handoffs[dest].merge(&[rec]);
        }
        self.handoffs[dest].advance(id, HandoffPhase::Completed, end, Some(transport_s), false);
        self.stats.forwards_completed += 1;
        self.stats.forward_latencies_s.push(transport_s);
    }

    /// Everything offered has been admitted (or accounted) and every
    /// queue, window, and in-transit handoff is empty.
    fn is_drained(&self) -> bool {
        self.offered_idx >= self.offered.len()
            && self.migrating.is_empty()
            && self.forwarding.is_empty()
            && self
                .cells
                .iter()
                .all(|c| c.rt.queue_depth() == 0 && c.window.pending() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roaming::{commute_traces, RoamingConfig};
    use pg_runtime::{OverloadConfig, OverloadPolicy, RuntimeConfig, SchedPolicy};
    use pg_sim::rng::RngStreams;
    use rand::Rng;

    fn cell_runtime(seed: u64) -> MultiQueryRuntime<PervasiveGrid> {
        let pg = PervasiveGrid::building(1, 4, seed).build();
        let cfg = RuntimeConfig::builder()
            .capacity(32)
            .epoch(Duration::from_secs(30))
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
        MultiQueryRuntime::new(cfg, pg)
    }

    fn small_federation(seed: u64, cells: usize, cfg: FederationConfig) -> Federation {
        let runtimes = (0..cells).map(|i| cell_runtime(seed + i as u64)).collect();
        let traces = commute_traces(
            seed,
            &RoamingConfig {
                users: 8,
                cells,
                horizon: Duration::from_secs(3_600),
                dwell_min: Duration::from_secs(120),
                dwell_max: Duration::from_secs(300),
            },
        );
        Federation::new(cfg, runtimes, traces)
    }

    fn offer_poisson(fed: &mut Federation, seed: u64, rate_hz: f64, horizon_s: u64) {
        let mut rng = RngStreams::new(seed).fork("fed-arrivals");
        let mut t = 0.0;
        loop {
            t += -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
            if t >= horizon_s as f64 {
                break;
            }
            let user = rng.gen_range(0..8u64);
            fed.offer(
                SimTime::from_secs_f64(t),
                user,
                "SELECT AVG(temp) FROM sensors",
                QueryOpts::with_deadline(Duration::from_secs(120)),
            );
        }
    }

    #[test]
    fn federation_runs_roams_and_hands_off() {
        let mut fed = small_federation(5, 3, FederationConfig::default());
        offer_poisson(&mut fed, 5, 0.08, 3_600);
        fed.run(SimTime::from_secs(3_600));
        let (total, met) = fed.goodput();
        assert!(total > 0, "no queries completed");
        assert!(met > 0, "no deadlines met");
        let s = &fed.stats;
        assert!(
            s.migrations_opened + s.forwards_opened > 0,
            "roaming users never triggered a handoff"
        );
        assert_eq!(
            s.migrations_completed + s.migrations_rejected + s.migrations_lost,
            s.migrations_opened,
            "migrations unaccounted for"
        );
        // With the predictor on, commute rings should produce warm
        // migrations whenever any migration happened at all.
        if s.migrations_completed > 0 {
            assert!(s.prewarms > 0, "predictor never pre-warmed anything");
        }
        // Cross-cell work leaves provenance on the outcomes: every
        // migration that was re-admitted and serviced, and every
        // forward-home, is visibly tagged.
        let cross: u64 = fed
            .cells()
            .iter()
            .flat_map(|c| c.rt.outcomes())
            .filter(|o| {
                o.response
                    .as_ref()
                    .is_ok_and(|r| r.provenance.is_cross_cell())
            })
            .count() as u64;
        assert!(
            cross > 0,
            "handoffs happened but no outcome carries cross-cell provenance"
        );
        // Nothing can be tagged that the stats never counted.
        assert!(
            cross <= s.migrations_completed + s.forwards_opened + s.absorbed + s.bounced_redirected,
            "more tagged outcomes than cross-cell events"
        );
    }

    #[test]
    fn determinism_same_seed_same_everything() {
        let run = || {
            let mut fed = small_federation(9, 3, FederationConfig::default());
            offer_poisson(&mut fed, 9, 0.08, 3_600);
            fed.run(SimTime::from_secs(3_600));
            let (total, met) = fed.goodput();
            (
                total,
                met,
                fed.stats.migrations_completed,
                fed.stats.forwards_completed,
                fed.stats.warm_handoff_latencies_s.clone(),
                fed.stats.cold_handoff_latencies_s.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bipartition_heals_and_views_reconverge() {
        // {0,1} | {2,3} for half an hour mid-run. During the cut the two
        // sides must not exchange anything; after the heal every view must
        // reconverge to all four cells alive — the incarnation-guarded
        // sticky-Dead rule plus dead-peer probing doing their job.
        let cfg = FederationConfig {
            cell_faults: FaultPlan::builder(7)
                .cell_partition(&[0, 1], SimTime::from_secs(600), SimTime::from_secs(2_400))
                .build()
                .unwrap(),
            reliable: ReliableConfig {
                breaker: Some(pg_agent::BreakerConfig::default()),
                ..ReliableConfig::default()
            },
            ..FederationConfig::default()
        };
        let mut fed = small_federation(7, 4, cfg);
        offer_poisson(&mut fed, 7, 0.08, 3_600);
        fed.run(SimTime::from_secs(3_600));
        let (total, met) = fed.goodput();
        assert!(total > 0 && met > 0, "partition starved the federation");
        for m in fed.members() {
            let live = m.live_set();
            assert_eq!(
                live.len(),
                4,
                "cell {} did not reconverge after the heal: {live:?}",
                m.me
            );
        }
        // Accounting stays closed even with handoffs dying on the cut.
        let s = &fed.stats;
        assert_eq!(
            s.migrations_completed + s.migrations_rejected + s.migrations_lost,
            s.migrations_opened,
            "migrations unaccounted for across the partition"
        );
    }

    #[test]
    fn crash_restart_with_journal_beats_recovery_free_restart() {
        // Cell 1 crash-stops from t=900 to t=2100. With the write-ahead
        // journal its queued queries survive the restart; without it they
        // are simply gone. Long deadlines so recovered queries still count.
        let build = |journal: bool| {
            let cfg = FederationConfig {
                cell_faults: FaultPlan::builder(31)
                    .cell_crash(1, SimTime::from_secs(900), SimTime::from_secs(2_100))
                    .build()
                    .unwrap(),
                journal,
                ..FederationConfig::default()
            };
            let mut fed = small_federation(31, 3, cfg);
            let mut rng = RngStreams::new(31).fork("crash-arrivals");
            let mut t = 0.0;
            // Hot enough that queues are non-empty at the crash edge.
            while t < 3_600.0 {
                t += -rng.gen::<f64>().max(1e-12).ln() / 0.35;
                let user = rng.gen_range(0..8u64);
                fed.offer(
                    SimTime::from_secs_f64(t),
                    user,
                    "SELECT AVG(temp) FROM sensors",
                    QueryOpts::with_deadline(Duration::from_secs(2_400)),
                );
            }
            fed.run(SimTime::from_secs(3_600));
            fed
        };
        let with = build(true);
        let without = build(false);
        assert!(with.stats.crashes >= 1, "the crash window never applied");
        assert!(
            without.stats.crash_lost > 0,
            "the crash destroyed nothing — the scenario is vacuous"
        );
        assert_eq!(with.stats.journal_recovered, with.stats.crash_lost);
        assert_eq!(without.stats.journal_recovered, 0);
        let (total_with, _) = with.goodput();
        let (total_without, _) = without.goodput();
        assert!(
            total_with > total_without,
            "journal recovery must strictly beat a recovery-free restart: \
             {total_with} vs {total_without}"
        );
        // Exactly-once conservation per cell, at drain (queues empty):
        // everything admitted is completed, cancelled, shed, migrated
        // away, or (net of recovery) lost — nothing double-counted.
        for fed in [&with, &without] {
            for c in fed.cells() {
                assert_eq!(
                    c.rt.admitted,
                    c.rt.outcomes().len() as u64
                        + c.rt.cancelled
                        + c.rt.shed
                        + c.rt.migrated_out
                        + c.rt.lost,
                    "conservation identity broken at cell {}",
                    c.id
                );
            }
        }
    }

    #[test]
    fn dead_home_cell_is_absorbed_by_peers() {
        let outage = |seed| {
            FaultPlan::builder(seed)
                .base_outage(SimTime::from_secs(600), SimTime::from_secs(2_400))
                .build()
                .unwrap()
        };
        let build = |redirect: bool| {
            let mut runtimes: Vec<MultiQueryRuntime<PervasiveGrid>> =
                (0..3).map(|i| cell_runtime(100 + i as u64)).collect();
            // Kill cell 1's base mid-run.
            let pg = PervasiveGrid::building(1, 4, 101)
                .faults(outage(101))
                .build();
            let cfg = *runtimes[1].config();
            runtimes[1] = MultiQueryRuntime::new(cfg, pg);
            let fcfg = FederationConfig {
                redirect,
                ..FederationConfig::default()
            };
            let traces = commute_traces(
                100,
                &RoamingConfig {
                    users: 8,
                    cells: 3,
                    horizon: Duration::from_secs(3_600),
                    dwell_min: Duration::from_secs(400),
                    dwell_max: Duration::from_secs(800),
                },
            );
            let mut fed = Federation::new(fcfg, runtimes, traces);
            offer_poisson(&mut fed, 100, 0.08, 3_600);
            fed.run(SimTime::from_secs(3_600));
            fed
        };
        let federated = build(true);
        let isolated = build(false);
        assert!(federated.stats.absorbed > 0, "nothing was absorbed");
        let (_, met_fed) = federated.goodput();
        let (_, met_iso) = isolated.goodput();
        assert!(
            met_fed > met_iso,
            "federated goodput {met_fed} not above isolated {met_iso}"
        );
    }
}
