//! Replicated handoff records, D-GRID style.
//!
//! Every cross-cell handoff — a migrating in-flight query or a result
//! forwarded home — is tracked by a [`HandoffRecord`] that moves through
//! `Pending → InProgress → Completed`. Records live in per-cell
//! [`HandoffStore`]s replicated by the gossip layer (SNIPPETS #1: queue /
//! in-progress / completed state replicated between peers with no central
//! orchestrator), merging by phase dominance: a record can only move
//! forward, so whichever replica has seen more of the handoff wins and
//! every cell converges on the same view. Gossip ships deltas, not
//! snapshots: each replica keeps a version vector over the cells that
//! changed records, and a contact carries only the changes the receiver
//! has not seen (see [`HandoffStore`]).

use crate::gossip::CellId;
use pg_sim::SimTime;
use std::collections::BTreeMap;

/// Globally unique handoff identity: the opening cell in the high bits,
/// its local sequence number in the low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HandoffId(pub u64);

impl HandoffId {
    /// Mint the `seq`-th handoff opened by `cell`.
    pub fn mint(cell: CellId, seq: u64) -> Self {
        debug_assert!(seq < (1 << 32));
        HandoffId(((cell.0 as u64) << 32) | (seq & 0xffff_ffff))
    }
}

/// Which way the handoff moves work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffKind {
    /// The queued query migrates with the roaming user: extracted at the
    /// origin, re-planned and re-admitted at the destination, partial
    /// results riding in the envelope.
    Migrate,
    /// The query completes at its origin after the user left; only the
    /// result travels, forwarded to the user's new cell.
    ForwardHome,
}

/// Lifecycle phase. Ordered: merge keeps the furthest-along phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HandoffPhase {
    /// Opened at the origin; the envelope is in flight.
    Pending,
    /// The destination has the envelope and is re-planning / admitting.
    InProgress,
    /// Done: re-admitted at the destination, or the result delivered.
    Completed,
}

/// One replicated handoff record.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffRecord {
    /// Globally unique id (see [`HandoffId::mint`]).
    pub id: HandoffId,
    /// The roaming user whose query this is.
    pub user: u64,
    /// Origin cell.
    pub from: CellId,
    /// Destination cell.
    pub to: CellId,
    /// Migration or forward-home.
    pub kind: HandoffKind,
    /// Current phase (monotone).
    pub phase: HandoffPhase,
    /// When the origin opened the record.
    pub opened_at: SimTime,
    /// When it completed, once it has.
    pub completed_at: Option<SimTime>,
    /// Measured end-to-end handoff latency, seconds (transport plus, for
    /// migrations, destination re-planning), once completed.
    pub latency_s: Option<f64>,
    /// The destination plan cache was warm when the handoff landed
    /// (pre-warmed by the next-cell predictor or still fresh).
    pub warm: bool,
}

impl HandoffRecord {
    /// Anti-entropy merge: phase dominance first, then — when both
    /// replicas sit at the *same* phase but diverged on the two sides of a
    /// partition — a deterministic field-wise join so every merge order
    /// converges on one value: earliest completion wins (ties broken by
    /// smaller latency), and `warm` joins by OR (either side saw a warm
    /// landing). Returns true when anything changed.
    fn absorb(&mut self, other: &HandoffRecord) -> bool {
        if other.phase > self.phase {
            self.phase = other.phase;
            self.completed_at = other.completed_at;
            self.latency_s = other.latency_s;
            self.warm = other.warm;
            return true;
        }
        if other.phase < self.phase {
            return false;
        }
        let mut changed = false;
        let other_key = (other.completed_at, other.latency_s.map(f64::to_bits));
        let my_key = (self.completed_at, self.latency_s.map(f64::to_bits));
        if other.completed_at.is_some() && (self.completed_at.is_none() || other_key < my_key) {
            self.completed_at = other.completed_at;
            self.latency_s = other.latency_s;
            changed = true;
        }
        if other.warm && !self.warm {
            self.warm = true;
            changed = true;
        }
        changed
    }

    /// Fold this record into a running FNV-1a hash — the ledger
    /// fingerprint two replicas compare to assert convergence.
    fn hash_into(&self, h: &mut u64) {
        let mut mixin = |v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(0x100_0000_01b3);
        };
        mixin(self.id.0);
        mixin(self.user);
        mixin(self.from.0 as u64);
        mixin(self.to.0 as u64);
        mixin(match self.kind {
            HandoffKind::Migrate => 1,
            HandoffKind::ForwardHome => 2,
        });
        mixin(match self.phase {
            HandoffPhase::Pending => 1,
            HandoffPhase::InProgress => 2,
            HandoffPhase::Completed => 3,
        });
        mixin(self.opened_at.as_nanos());
        mixin(self.completed_at.map_or(u64::MAX, |t| t.as_nanos()));
        mixin(self.latency_s.map_or(u64::MAX, f64::to_bits));
        mixin(self.warm as u64);
    }
}

/// One cell's replica of the federation-wide handoff ledger.
///
/// Replication is version-vector delta anti-entropy (Scuttlebutt-style):
/// every change a replica makes to a record — [`open`](Self::open), an
/// [`advance`](Self::advance) or [`merge`](Self::merge) that moves it —
/// is an *event* authored by the owning cell, numbered in sequence and
/// logged as `(seq, record id)` in the owner's per-author log. The last
/// seq of author `a`'s log is the version-vector entry `vv[a]`: how much
/// of `a`'s history this replica has absorbed. A gossip leg
/// ([`absorb_delta`](Self::absorb_delta)) therefore ships only the log
/// suffix the receiver has not seen, carrying the sender's *current* copy
/// of each named record.
///
/// The result is the same ledger a full-snapshot merge produces: records
/// only grow under the [`HandoffRecord`] join, every record a replica
/// holds is the join of the events it has absorbed, and a record no
/// unseen event names is therefore already dominated by the receiver's
/// copy, where a snapshot merge would change nothing.
#[derive(Debug, Clone)]
pub struct HandoffStore {
    owner: CellId,
    records: BTreeMap<HandoffId, HandoffRecord>,
    /// `log[a]`: author `a`'s events as `(seq, record id)`, seq ascending,
    /// ending at `vv[a]`. Back-to-back events on one record keep only the
    /// newer entry.
    log: Vec<Vec<(u64, HandoffId)>>,
}

/// Append `(seq, id)` to an author log, overwriting the last entry when it
/// names the same record: the later event's record dominates the earlier
/// one's, so the older entry carries nothing a reader still needs.
fn append(log: &mut Vec<(u64, HandoffId)>, seq: u64, id: HandoffId) {
    match log.last_mut() {
        Some(last) if last.1 == id => *last = (seq, id),
        _ => log.push((seq, id)),
    }
}

impl HandoffStore {
    /// An empty ledger owned by cell `owner`, the author of its events.
    pub fn new(owner: CellId) -> Self {
        HandoffStore {
            owner,
            records: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// `vv[a]`: the last event of author `a` this replica has absorbed.
    fn vv(&self, a: usize) -> u64 {
        self.log
            .get(a)
            .and_then(|l| l.last())
            .map_or(0, |&(seq, _)| seq)
    }

    /// Author `a`'s log, grown into existence when new.
    fn log_mut(&mut self, a: usize) -> &mut Vec<(u64, HandoffId)> {
        if self.log.len() <= a {
            self.log.resize_with(a + 1, Vec::new);
        }
        &mut self.log[a]
    }

    /// Record that the owner just changed record `id`.
    fn author(&mut self, id: HandoffId) {
        let me = self.owner.0 as usize;
        let seq = self.vv(me) + 1;
        append(self.log_mut(me), seq, id);
    }

    /// Join `r` into the local copy: adopt it when unknown, else
    /// [`absorb`](HandoffRecord::absorb) it. Returns true when anything
    /// changed.
    fn join(&mut self, r: &HandoffRecord) -> bool {
        match self.records.get_mut(&r.id) {
            Some(mine) => mine.absorb(r),
            None => {
                self.records.insert(r.id, r.clone());
                true
            }
        }
    }

    /// Open (or overwrite) a record — callers mint fresh ids, so
    /// overwrites only happen when replaying the owner's own update.
    pub fn open(&mut self, record: HandoffRecord) {
        let id = record.id;
        self.records.insert(id, record);
        self.author(id);
    }

    /// Advance `id` to `phase` if that moves it forward; stamps completion
    /// time and measured latency when `phase` is Completed.
    pub fn advance(
        &mut self,
        id: HandoffId,
        phase: HandoffPhase,
        now: SimTime,
        latency_s: Option<f64>,
        warm: bool,
    ) {
        if let Some(r) = self.records.get_mut(&id) {
            if phase > r.phase {
                r.phase = phase;
                r.warm = warm;
                if phase == HandoffPhase::Completed {
                    r.completed_at = Some(now);
                    r.latency_s = latency_s;
                }
                self.author(id);
            }
        }
    }

    /// Look up one record.
    pub fn get(&self, id: HandoffId) -> Option<&HandoffRecord> {
        self.records.get(&id)
    }

    /// Every record, cloned in id order.
    pub fn snapshot(&self) -> Vec<HandoffRecord> {
        self.records.values().cloned().collect()
    }

    /// Merge records handed over outside gossip (a handoff envelope
    /// carries its record to the destination): unknown records are
    /// adopted, known ones absorbed (phase dominance, then the field-wise
    /// join for equal phases). Idempotent and commutative. Every record
    /// this changes is an event the owner authors, so gossip passes it
    /// on. Returns how many records were adopted or changed.
    pub fn merge(&mut self, snapshot: &[HandoffRecord]) -> usize {
        let mut delta = 0;
        for r in snapshot {
            if self.join(r) {
                self.author(r.id);
                delta += 1;
            }
        }
        delta
    }

    /// One gossip leg from `sender`: for every author whose events the
    /// sender has seen past this replica's `vv`, join the sender's current
    /// copy of each record its unseen log suffix names and append that
    /// suffix here, which raises `vv[a]` to the sender's. Afterwards this
    /// replica's records equal
    /// what merging the sender's full [`snapshot`](Self::snapshot) would
    /// have left. Returns how many records the sender shipped — zero
    /// between converged replicas.
    pub fn absorb_delta(&mut self, sender: &HandoffStore) -> usize {
        let mut shipped = 0;
        for (a, log) in sender.log.iter().enumerate() {
            let seen = self.vv(a);
            if sender.vv(a) <= seen {
                continue;
            }
            let unseen = &log[log.partition_point(|&(seq, _)| seq <= seen)..];
            for &(seq, id) in unseen {
                if let Some(r) = sender.records.get(&id) {
                    self.join(r);
                }
                append(self.log_mut(a), seq, id);
            }
            shipped += unseen.len();
        }
        shipped
    }

    /// Order-independent fingerprint of the whole ledger: two replicas
    /// that gossiped to convergence hash identically, however their
    /// updates interleaved across a partition.
    pub fn ledger_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in self.records.values() {
            r.hash_into(&mut h);
        }
        h
    }

    /// Total records known.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the ledger empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records sit in each phase: `(pending, in_progress,
    /// completed)`.
    pub fn phase_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in self.records.values() {
            match r.phase {
                HandoffPhase::Pending => c.0 += 1,
                HandoffPhase::InProgress => c.1 += 1,
                HandoffPhase::Completed => c.2 += 1,
            }
        }
        c
    }

    /// Iterate all records.
    pub fn records(&self) -> impl Iterator<Item = &HandoffRecord> {
        self.records.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, phase: HandoffPhase) -> HandoffRecord {
        HandoffRecord {
            id: HandoffId(id),
            user: 1,
            from: CellId(0),
            to: CellId(1),
            kind: HandoffKind::Migrate,
            phase,
            opened_at: SimTime::ZERO,
            completed_at: None,
            latency_s: None,
            warm: false,
        }
    }

    #[test]
    fn merge_is_phase_dominant_and_idempotent() {
        let mut a = HandoffStore::new(CellId(0));
        let mut b = HandoffStore::new(CellId(1));
        a.open(rec(1, HandoffPhase::Pending));
        b.open(rec(1, HandoffPhase::Completed));
        b.open(rec(2, HandoffPhase::InProgress));
        let sb = b.snapshot();
        a.merge(&sb);
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.get(HandoffId(1)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        // Merging an older view back never regresses.
        let mut stale = HandoffStore::new(CellId(2));
        stale.open(rec(1, HandoffPhase::Pending));
        a.merge(&stale.snapshot());
        assert_eq!(
            a.get(HandoffId(1)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        // Idempotent.
        let before = a.snapshot();
        a.merge(&sb);
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn split_brain_equal_phase_divergence_converges_both_ways() {
        // Both sides of a partition completed the same record with
        // different observations; after anti-entropy the replicas agree
        // bit-for-bit whichever direction merged first.
        let mut left = rec(9, HandoffPhase::Completed);
        left.completed_at = Some(SimTime::from_secs(10));
        left.latency_s = Some(2.0);
        left.warm = false;
        let mut right = rec(9, HandoffPhase::Completed);
        right.completed_at = Some(SimTime::from_secs(8));
        right.latency_s = Some(3.5);
        right.warm = true;

        let mut a = HandoffStore::new(CellId(0));
        let mut b = HandoffStore::new(CellId(1));
        a.open(left.clone());
        b.open(right.clone());
        let d1 = a.merge(&b.snapshot());
        let d2 = b.merge(&a.snapshot());
        assert!(d1 > 0, "divergent replicas must report a merge delta");
        assert_eq!(a.ledger_hash(), b.ledger_hash(), "replicas diverge");
        // Earliest completion won; warm joined by OR.
        let r = a.get(HandoffId(9)).expect("present");
        assert_eq!(r.completed_at, Some(SimTime::from_secs(8)));
        assert_eq!(r.latency_s, Some(3.5));
        assert!(r.warm);
        // Converged replicas exchange zero delta from then on.
        assert_eq!(a.merge(&b.snapshot()), 0);
        assert_eq!(b.merge(&a.snapshot()), 0);
        let _ = d2;

        // The reverse merge order lands on the same value.
        let mut c = HandoffStore::new(CellId(2));
        let mut d = HandoffStore::new(CellId(3));
        c.open(right);
        d.open(left);
        c.merge(&d.snapshot());
        d.merge(&c.snapshot());
        assert_eq!(c.ledger_hash(), a.ledger_hash());
        assert_eq!(d.ledger_hash(), a.ledger_hash());
    }

    #[test]
    fn advance_is_monotone_and_stamps_completion() {
        let mut s = HandoffStore::new(CellId(0));
        s.open(rec(7, HandoffPhase::Pending));
        s.advance(
            HandoffId(7),
            HandoffPhase::InProgress,
            SimTime::from_secs(1),
            None,
            false,
        );
        s.advance(
            HandoffId(7),
            HandoffPhase::Completed,
            SimTime::from_secs(2),
            Some(0.25),
            true,
        );
        let r = s.get(HandoffId(7)).expect("present");
        assert_eq!(r.phase, HandoffPhase::Completed);
        assert_eq!(r.completed_at, Some(SimTime::from_secs(2)));
        assert_eq!(r.latency_s, Some(0.25));
        assert!(r.warm);
        // A late Pending replay changes nothing.
        s.advance(
            HandoffId(7),
            HandoffPhase::Pending,
            SimTime::from_secs(3),
            None,
            false,
        );
        assert_eq!(
            s.get(HandoffId(7)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        assert_eq!(s.phase_counts(), (0, 0, 1));
    }

    #[test]
    fn back_to_back_events_on_one_record_share_a_log_entry() {
        let mut s = HandoffStore::new(CellId(2));
        s.open(rec(7, HandoffPhase::Pending));
        s.advance(
            HandoffId(7),
            HandoffPhase::InProgress,
            SimTime::ZERO,
            None,
            false,
        );
        s.advance(
            HandoffId(7),
            HandoffPhase::Completed,
            SimTime::ZERO,
            None,
            false,
        );
        // A no-op advance authors nothing.
        s.advance(
            HandoffId(7),
            HandoffPhase::InProgress,
            SimTime::ZERO,
            None,
            false,
        );
        s.open(rec(8, HandoffPhase::Pending));
        assert_eq!(s.vv(2), 4);
        assert_eq!(s.log[2], vec![(3, HandoffId(7)), (4, HandoffId(8))]);
    }

    #[test]
    fn delta_knowledge_is_transitive_and_matches_snapshot_merge() {
        let mut a = HandoffStore::new(CellId(0));
        let mut b = HandoffStore::new(CellId(1));
        let mut c = HandoffStore::new(CellId(2));
        a.open(rec(1, HandoffPhase::Pending));
        a.open(rec(2, HandoffPhase::Pending));
        assert_eq!(b.absorb_delta(&a), 2);
        b.advance(
            HandoffId(1),
            HandoffPhase::Completed,
            SimTime::ZERO,
            None,
            true,
        );
        // c hears a's two opens and b's completion from b alone…
        assert_eq!(c.absorb_delta(&b), 3);
        assert_eq!(c.ledger_hash(), b.ledger_hash());
        // …so a has nothing left to tell it, while a itself still lacks
        // b's completion: one record.
        assert_eq!(c.absorb_delta(&a), 0);
        let mut full = a.clone();
        full.merge(&b.snapshot());
        assert_eq!(a.absorb_delta(&b), 1);
        assert_eq!(a.ledger_hash(), full.ledger_hash());
        assert_eq!(a.absorb_delta(&c), 0);
        assert_eq!(a.log, c.log);
    }

    #[test]
    fn envelope_merge_is_gossiped_on() {
        // A record handed over outside gossip reaches third parties from
        // the cell it was handed to.
        let mut origin = HandoffStore::new(CellId(0));
        let mut dest = HandoffStore::new(CellId(1));
        let mut peer = HandoffStore::new(CellId(2));
        origin.open(rec(5, HandoffPhase::Pending));
        let r = origin.get(HandoffId(5)).cloned().expect("present");
        assert_eq!(dest.merge(&[r]), 1);
        assert_eq!(peer.absorb_delta(&dest), 1);
        assert!(peer.get(HandoffId(5)).is_some());
    }
}
