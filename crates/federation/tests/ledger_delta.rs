//! Handoff-ledger replication: delta anti-entropy against full snapshots.
//!
//! 1. **Equivalence**: random replica sets driven through `open`,
//!    `advance`, envelope `merge(&[rec])` and gossip contacts whose push
//!    and pull legs are lost independently (partition and one-way-cut
//!    windows) hold, after every round, exactly the ledgers a reference
//!    set reaches by merging full peer snapshots on the same legs.
//! 2. **Pinned federation**: a seeded 16-cell federation with a dead base
//!    station, a bipartition window, a crash-stopped cell and the journal
//!    on lands every cell's `ledger_hash()`, mid-partition and at the end,
//!    on the values full-snapshot anti-entropy produced.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_core::PervasiveGrid;
use pg_federation::{
    commute_traces, CellId, Federation, FederationConfig, HandoffId, HandoffKind, HandoffPhase,
    HandoffRecord, HandoffStore, RoamingConfig,
};
use pg_runtime::{
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryOpts, RuntimeConfig, SchedPolicy,
};
use pg_sim::fault::FaultPlan;
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CELLS: usize = 16;
const USERS: u64 = 32;
const HORIZON_S: u64 = 3_600;

fn cell_runtime(seed: u64, base_outage: bool) -> MultiQueryRuntime<PervasiveGrid> {
    let mut pg = PervasiveGrid::building(1, 4, seed);
    if base_outage {
        pg = pg.faults(
            FaultPlan::builder(seed)
                .base_outage(SimTime::from_secs(600), SimTime::from_secs(2_400))
                .build()
                .unwrap(),
        );
    }
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
    MultiQueryRuntime::new(cfg, pg.build())
}

fn pinned_federation(seed: u64) -> (Federation, Vec<(SimTime, u64)>) {
    let runtimes = (0..CELLS)
        .map(|i| cell_runtime(seed + i as u64, i == 3))
        .collect();
    let traces = commute_traces(
        seed,
        &RoamingConfig {
            users: USERS as usize,
            cells: CELLS,
            horizon: Duration::from_secs(HORIZON_S),
            dwell_min: Duration::from_secs(120),
            dwell_max: Duration::from_secs(300),
        },
    );
    let side: Vec<u64> = (0..CELLS as u64 / 2).collect();
    let cfg = FederationConfig {
        seed,
        cell_faults: FaultPlan::builder(seed)
            .cell_partition(&side, SimTime::from_secs(900), SimTime::from_secs(1_800))
            .cell_crash(5, SimTime::from_secs(1_200), SimTime::from_secs(2_000))
            .build()
            .unwrap(),
        journal: true,
        ..FederationConfig::default()
    };
    let fed = Federation::new(cfg, runtimes, traces);
    let mut offered = Vec::new();
    let mut rng = RngStreams::new(seed).fork("ledger-pin-arrivals");
    let mut t = 0.0;
    loop {
        t += -rng.gen::<f64>().max(1e-12).ln() / 0.6;
        if t >= HORIZON_S as f64 {
            break;
        }
        offered.push((SimTime::from_secs_f64(t), rng.gen_range(0..USERS)));
    }
    (fed, offered)
}

fn offer(fed: &mut Federation, arrivals: &[(SimTime, u64)]) {
    for &(at, user) in arrivals {
        fed.offer(
            at,
            user,
            "SELECT AVG(temp) FROM sensors",
            QueryOpts::with_deadline(Duration::from_secs(180)),
        );
    }
}

fn hashes(fed: &Federation) -> Vec<u64> {
    fed.handoff_ledgers()
        .iter()
        .map(|h| h.ledger_hash())
        .collect()
}

/// Regression: every cell's ledger, pinned mid-partition and at the end.
#[test]
fn sixteen_cell_ledgers_are_pinned() {
    let (mut fed, offered) = pinned_federation(1_612);
    let split = offered.partition_point(|&(at, _)| at < SimTime::from_secs(1_200));
    offer(&mut fed, &offered[..split]);
    fed.run(SimTime::from_secs(1_200));
    // Mid-partition (cells 0-7 cut off from 8-15 until t=1800 s, cell 5
    // crash-stopped): most of each side agrees on its own view, a few
    // cells lag it.
    assert_eq!(fed.now(), SimTime::from_secs(1_260));
    assert_eq!(
        hashes(&fed),
        [
            0x4f09_e25b_66e2_da4b,
            0x4f09_e25b_66e2_da4b,
            0x4f09_e25b_66e2_da4b,
            0x7ec8_5694_b024_2e32,
            0x4f09_e25b_66e2_da4b,
            0xe83d_2d3b_637b_9d2f,
            0x4f09_e25b_66e2_da4b,
            0x4f09_e25b_66e2_da4b,
            0x0c5f_eb01_40b3_0eed,
            0xf2fa_e514_c81f_d185,
            0xf2fa_e514_c81f_d185,
            0xf2fa_e514_c81f_d185,
            0xf2fa_e514_c81f_d185,
            0xf2fa_e514_c81f_d185,
            0xf2fa_e514_c81f_d185,
            0xf2fa_e514_c81f_d185,
        ]
    );
    offer(&mut fed, &offered[split..]);
    fed.run(SimTime::from_secs(HORIZON_S));
    let s = &fed.stats;
    assert!(
        s.migrations_opened > 0 && s.forwards_opened > 0,
        "the scenario opened no handoffs of some kind: {s:?}"
    );
    // After the heal and the drain every replica holds the same ledger.
    assert!(fed.handoff_ledgers().iter().all(|h| h.len() == 316));
    assert_eq!(hashes(&fed), [0xa609_58ae_d9fb_c4a5; CELLS]);
}

/// Sender and receiver of one gossip leg.
fn leg(stores: &mut [HandoffStore], from: usize, to: usize) -> (&HandoffStore, &mut HandoffStore) {
    if from < to {
        let (l, r) = stores.split_at_mut(to);
        (&l[from], &mut r[0])
    } else {
        let (l, r) = stores.split_at_mut(from);
        (&r[0], &mut l[to])
    }
}

/// One local step at cell `i`, applied identically to both replica sets.
fn local_step(
    rng: &mut StdRng,
    sets: [&mut Vec<HandoffStore>; 2],
    next: &mut [u64],
    i: usize,
    now: SimTime,
) {
    let n = next.len();
    let [delta, reference] = sets;
    let pick = |rng: &mut StdRng, store: &HandoffStore| {
        let len = store.len();
        if len == 0 {
            return None;
        }
        store.records().nth(rng.gen_range(0..len)).map(|r| r.id)
    };
    match rng.gen_range(0..3) {
        0 => {
            let id = HandoffId::mint(CellId(i as u32), next[i]);
            next[i] += 1;
            let record = HandoffRecord {
                id,
                user: rng.gen_range(0..64),
                from: CellId(i as u32),
                to: CellId(rng.gen_range(0..n) as u32),
                kind: if rng.gen_bool(0.5) {
                    HandoffKind::Migrate
                } else {
                    HandoffKind::ForwardHome
                },
                phase: HandoffPhase::Pending,
                opened_at: now,
                completed_at: None,
                latency_s: None,
                warm: false,
            };
            delta[i].open(record.clone());
            reference[i].open(record);
        }
        1 => {
            let Some(id) = pick(rng, &delta[i]) else {
                return;
            };
            let phase = if rng.gen_bool(0.4) {
                HandoffPhase::InProgress
            } else {
                HandoffPhase::Completed
            };
            let at = now + Duration::from_secs(rng.gen_range(0..30));
            let latency = Some(f64::from(rng.gen_range(1..8u32)) / 4.0);
            let warm = rng.gen_bool(0.5);
            for s in [&mut delta[i], &mut reference[i]] {
                s.advance(id, phase, at, latency, warm);
            }
        }
        _ => {
            // An envelope from a random cell hands one of its records over.
            let src = rng.gen_range(0..n);
            let Some(id) = pick(rng, &delta[src]) else {
                return;
            };
            for set in [delta, reference] {
                let rec = set[src].get(id).cloned().expect("sets hold the same ids");
                set[i].merge(&[rec]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Delta gossip leaves exactly the ledgers full-snapshot merges do.
    #[test]
    fn delta_gossip_matches_full_snapshot_merges(
        seed in any::<u64>(),
        n in 2usize..=12,
        rounds in 4u64..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = |round: u64| SimTime::from_secs(30 * round);
        // A bipartition window and two one-way cuts somewhere in the run.
        let side: Vec<u64> = (0..n as u64).filter(|_| rng.gen_bool(0.5)).collect();
        let mut plan = FaultPlan::builder(seed);
        if !side.is_empty() && side.len() < n {
            let start = rng.gen_range(0..rounds);
            plan = plan.cell_partition(&side, at(start), at(start + rng.gen_range(1..8u64)));
        }
        for _ in 0..2 {
            let from = rng.gen_range(0..n as u64);
            let to = (from + rng.gen_range(1..n as u64)) % n as u64;
            let start = rng.gen_range(0..rounds);
            plan = plan.one_way_link_cut(from, to, at(start), at(start + rng.gen_range(1..8u64)));
        }
        let plan = plan.build().unwrap();

        let mut delta: Vec<HandoffStore> =
            (0..n).map(|i| HandoffStore::new(CellId(i as u32))).collect();
        let mut reference = delta.clone();
        let mut next = vec![0u64; n];
        for round in 0..rounds {
            let now = at(round);
            for _ in 0..rng.gen_range(0..2 * n) {
                let i = rng.gen_range(0..n);
                local_step(&mut rng, [&mut delta, &mut reference], &mut next, i, now);
            }
            for _ in 0..rng.gen_range(1..=2 * n) {
                let i = rng.gen_range(0..n);
                let t = (i + rng.gen_range(1..n)) % n;
                let push_ok = plan.cell_link_up(i as u64, t as u64, now);
                let pull_ok = push_ok && plan.cell_link_up(t as u64, i as u64, now);
                for (from, to, ok) in [(i, t, push_ok), (t, i, pull_ok)] {
                    if ok {
                        let (s, r) = leg(&mut delta, from, to);
                        r.absorb_delta(s);
                        let snapshot = reference[from].snapshot();
                        reference[to].merge(&snapshot);
                    }
                }
            }
            for k in 0..n {
                prop_assert_eq!(
                    delta[k].ledger_hash(),
                    reference[k].ledger_hash(),
                    "cell {} diverged from the snapshot reference in round {}",
                    k,
                    round
                );
            }
        }
        // Fault-free all-pairs sweeps converge every replica on one ledger,
        // after which no contact ships anything.
        for _ in 0..2 {
            for i in 0..n {
                for t in (0..n).filter(|&t| t != i) {
                    let (s, r) = leg(&mut delta, i, t);
                    r.absorb_delta(s);
                }
            }
        }
        let opened: usize = next.iter().map(|&k| k as usize).sum();
        for s in &delta {
            prop_assert_eq!(s.ledger_hash(), delta[0].ledger_hash());
            prop_assert_eq!(s.len(), opened);
        }
        for i in 0..n {
            for t in (0..n).filter(|&t| t != i) {
                let (s, r) = leg(&mut delta, i, t);
                prop_assert_eq!(r.absorb_delta(s), 0);
            }
        }
    }
}
