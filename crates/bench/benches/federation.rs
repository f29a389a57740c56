//! Microbenchmarks: the federation control plane. One gossip round is the
//! recurring cost every cell pays forever, and handoff-ledger deltas ride
//! on every gossip contact — both scale with federation size, so they are
//! measured at 64 and 256 cells. `gossip_round_ledger` runs the round over
//! ledgers that hold a run's worth of history (about 400 records per
//! cell) while a few new events land per round, the steady state of a
//! long federation run; `handoff_merge` times the envelope-path merge.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_federation::handoff::{HandoffId, HandoffKind, HandoffPhase, HandoffRecord, HandoffStore};
use pg_federation::{gossip_round, CellId, GossipConfig, LoadDigest, Membership};
use pg_sim::SimTime;

/// Rounds of warm-up gossip before measurement starts.
const WARM_ROUNDS: u64 = 32;

/// A federation of `n` cells with fully converged membership views (the
/// steady state: every digest carries all `n` entries). Callers must keep
/// advancing sim time from `WARM_ROUNDS` — a gap larger than the eviction
/// timeout would mass-evict the whole table and measure a frozen world.
fn converged(n: usize) -> (Vec<Membership>, Vec<HandoffStore>, Vec<bool>) {
    let mut members: Vec<Membership> = (0..n)
        .map(|i| Membership::new(CellId(i as u32), &[CellId(0)], SimTime::ZERO))
        .collect();
    let mut handoffs: Vec<HandoffStore> = (0..n)
        .map(|i| HandoffStore::new(CellId(i as u32)))
        .collect();
    let up = vec![true; n];
    let cfg = GossipConfig::default();
    for round in 1..=WARM_ROUNDS {
        let now = SimTime::from_secs(30 * round);
        for m in &mut members {
            m.beat(now, LoadDigest::default());
        }
        gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
    }
    assert!(
        members.iter().all(|m| m.live_set().len() == n),
        "warm-up did not converge: the bench would measure a degraded world"
    );
    (members, handoffs, up)
}

/// A ledger holding `n` handoff records spread across `cells` cells.
fn ledger(cells: u32, n: u64) -> HandoffStore {
    let mut store = HandoffStore::new(CellId(0));
    for seq in 0..n {
        let from = CellId((seq % u64::from(cells)) as u32);
        let to = CellId(((seq + 1) % u64::from(cells)) as u32);
        store.open(HandoffRecord {
            id: HandoffId::mint(from, seq),
            user: seq,
            from,
            to,
            kind: if seq % 3 == 0 {
                HandoffKind::ForwardHome
            } else {
                HandoffKind::Migrate
            },
            phase: match seq % 3 {
                0 => HandoffPhase::Pending,
                1 => HandoffPhase::InProgress,
                _ => HandoffPhase::Completed,
            },
            opened_at: SimTime::from_secs(seq),
            completed_at: None,
            latency_s: None,
            warm: seq % 2 == 0,
        });
    }
    store
}

fn bench_gossip_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("federation");
    for &n in &[64usize, 256] {
        let (mut members, mut handoffs, up) = converged(n);
        let cfg = GossipConfig::default();
        // Continue sim time from the warm-up rounds: a time jump here would
        // exceed `evict_after` and silently bench a mass-evicted table.
        let mut round = WARM_ROUNDS;
        g.bench_with_input(BenchmarkId::new("gossip_round", n), &n, |b, _| {
            b.iter(|| {
                round += 1;
                let now = SimTime::from_secs(30 * round);
                for m in &mut members {
                    m.beat(now, LoadDigest::default());
                }
                gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
            });
        });
    }
    g.finish();
}

/// Cell `seq % cells` opens a Pending migration to its right neighbor.
fn open_handoff(handoffs: &mut [HandoffStore], seq: u64) -> HandoffId {
    let cells = handoffs.len() as u64;
    let from = CellId((seq % cells) as u32);
    let id = HandoffId::mint(from, seq);
    handoffs[from.0 as usize].open(HandoffRecord {
        id,
        user: seq,
        from,
        to: CellId(((seq + 1) % cells) as u32),
        kind: HandoffKind::Migrate,
        phase: HandoffPhase::Pending,
        opened_at: SimTime::from_secs(seq),
        completed_at: None,
        latency_s: None,
        warm: false,
    });
    id
}

/// The envelope of `id` lands at its destination, which completes it.
fn complete_handoff(handoffs: &mut [HandoffStore], id: HandoffId, now: SimTime) {
    // `HandoffId::mint` puts the opening cell in the high bits.
    let rec = handoffs[(id.0 >> 32) as usize].get(id).cloned().unwrap();
    let dest = &mut handoffs[rec.to.0 as usize];
    dest.merge(&[rec]);
    dest.advance(id, HandoffPhase::InProgress, now, None, true);
    dest.advance(id, HandoffPhase::Completed, now, Some(0.5), true);
}

fn bench_gossip_round_ledger(c: &mut Criterion) {
    let mut g = c.benchmark_group("federation");
    let n = 64usize;
    let (mut members, mut handoffs, up) = converged(n);
    let cfg = GossipConfig::default();
    let mut round = WARM_ROUNDS;
    // A run's worth of completed handoffs, then gossip to convergence.
    let mut seq = 400u64;
    for s in 0..seq {
        let id = open_handoff(&mut handoffs, s);
        complete_handoff(&mut handoffs, id, SimTime::from_secs(30 * round));
    }
    for _ in 0..32 {
        round += 1;
        let now = SimTime::from_secs(30 * round);
        for m in &mut members {
            m.beat(now, LoadDigest::default());
        }
        gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
    }
    let h = handoffs[0].ledger_hash();
    assert!(
        handoffs
            .iter()
            .all(|s| s.ledger_hash() == h && s.len() == seq as usize),
        "warm-up did not converge the ledgers"
    );
    // Each round two handoffs open and the two opened last round complete.
    let mut last: Vec<HandoffId> = Vec::new();
    g.bench_with_input(BenchmarkId::new("gossip_round_ledger", n), &n, |b, _| {
        b.iter(|| {
            round += 1;
            let now = SimTime::from_secs(30 * round);
            for id in last.drain(..) {
                complete_handoff(&mut handoffs, id, now);
            }
            for _ in 0..2 {
                last.push(open_handoff(&mut handoffs, seq));
                seq += 1;
            }
            for m in &mut members {
                m.beat(now, LoadDigest::default());
            }
            gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
        });
    });
    g.finish();
}

fn bench_handoff_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("federation");
    for &cells in &[64u32, 256] {
        // Merging a full peer snapshot into a replica that already knows
        // every record (4 records per cell): `merge` per record, as the
        // envelope path calls it.
        let snapshot = ledger(cells, u64::from(cells) * 4).snapshot();
        let mut replica = ledger(cells, u64::from(cells) * 4);
        g.bench_with_input(BenchmarkId::new("handoff_merge", cells), &cells, |b, _| {
            b.iter(|| replica.merge(&snapshot));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gossip_round,
    bench_gossip_round_ledger,
    bench_handoff_merge
);
criterion_main!(benches);
