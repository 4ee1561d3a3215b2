//! Clause storage: one flat arena.
//!
//! Every clause lives in a single `Vec<Lit>` ([`ClauseDb`]): a
//! [`HEADER`]-word header followed inline by its literal slots. A
//! [`ClauseRef`] is the word offset of the header. Header words reuse
//! `Lit`'s `u32` representation:
//!
//! | word | content |
//! |------|---------|
//! | 0 | length (live literals) |
//! | 1 | capacity (literal slots reserved after the header) |
//! | 2 | flags: bit 0 learnt, bit 1 deleted, bits 2–3 tier, bits 4–5 use credits; LBD in bits 8–31 |
//! | 3, 4 | activity (`f64` bits, low word first) |
//!
//! Strengthening and vivification shrink a clause in place: the length
//! drops, the capacity stays, so the arena stays walkable header to
//! header. Deletion is by tombstone: the deleted flag is set and the
//! clause's literals stay readable, so `ClauseRef`s held as propagation
//! reasons or left in watch lists stay valid (reason clauses are
//! additionally *locked* and never deleted while locked). Tombstones
//! and shrink slack stay until [`ClauseDb::compact`], which the solver
//! runs at the end of every inprocessing pass and on its reduction
//! schedule: it slides live clauses down in allocation order and trims
//! each capacity to its length, returning the [`Relocation`] the solver
//! uses to rewrite every live `ClauseRef` (watch lists and reason slots).
//!
//! Order preservation: the arena never reorders clauses, a clause's
//! literals move only where the solver swaps them, and compaction keeps
//! allocation order. Walks over the arena ([`Cursor`],
//! [`ClauseDb::learnt_refs_into`]) therefore visit clauses in the order
//! they were added, whatever compactions happened in between.

use crate::lit::Lit;

/// Stable reference to a clause in the [`ClauseDb`]: the word offset of
/// its header.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClauseRef(pub(crate) u32);

/// Largest LBD admitted to the core tier (kept forever).
pub(crate) const CORE_LBD_MAX: u32 = 2;
/// Largest LBD admitted to the mid tier on learning or promotion.
pub(crate) const MID_LBD_MAX: u32 = 6;

/// Header words in front of every clause's literals.
pub(crate) const HEADER: usize = 5;
const LEN: usize = 0;
const CAP: usize = 1;
const FLAGS: usize = 2;
const ACT_LO: usize = 3;
const ACT_HI: usize = 4;

const LEARNT: u32 = 1;
const DELETED: u32 = 1 << 1;
const TIER_SHIFT: u32 = 2;
const USED_SHIFT: u32 = 4;
const LBD_SHIFT: u32 = 8;
/// Largest storable LBD (24 bits); larger glue saturates, which only a
/// clause spanning more than 16M decision levels could reach.
const LBD_MAX: u32 = u32::MAX >> LBD_SHIFT;

/// Retention tier of a learnt clause (CaDiCaL-style three-tier
/// discipline). Core clauses are never deleted by ordinary reduction;
/// mid-tier clauses survive while recently used and demote to local when
/// idle; local clauses are the activity-sorted delete-half pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tier {
    /// Glue clauses (LBD ≤ [`CORE_LBD_MAX`]): kept forever.
    Core,
    /// Mid-quality clauses (LBD ≤ [`MID_LBD_MAX`]): kept while used.
    Mid,
    /// Everything else: candidates for delete-half reduction.
    Local,
}

impl Tier {
    /// The tier a clause of the given LBD enters on learning.
    pub(crate) fn for_lbd(lbd: u32) -> Tier {
        if lbd <= CORE_LBD_MAX {
            Tier::Core
        } else if lbd <= MID_LBD_MAX {
            Tier::Mid
        } else {
            Tier::Local
        }
    }

    fn bits(self) -> u32 {
        match self {
            Tier::Core => 0,
            Tier::Mid => 1,
            Tier::Local => 2,
        }
    }

    fn from_bits(b: u32) -> Tier {
        match b {
            0 => Tier::Core,
            1 => Tier::Mid,
            _ => Tier::Local,
        }
    }
}

/// Fewest words a stored clause spans: the header plus two literal
/// slots (capacity never drops below the two literals a clause is
/// stored with).
const MIN_WORDS: usize = HEADER + 2;
/// [`Relocation`] slot of a clause that compaction reclaimed.
const RECLAIMED: u32 = u32::MAX;

/// Old → new offsets of the clauses a [`ClauseDb::compact`] saw: a dense
/// table indexed by old offset / [`MIN_WORDS`]. Two clause headers lie
/// at least [`MIN_WORDS`] apart, so each clause owns its own slot and a
/// lookup is one load.
#[derive(Debug)]
pub(crate) struct Relocation(Vec<u32>);

impl Relocation {
    /// Where the clause at `old` now lives (`None` for a reclaimed
    /// tombstone). `old` must be a clause offset from before the
    /// compaction.
    pub(crate) fn get(&self, old: ClauseRef) -> Option<ClauseRef> {
        let new = self.0[old.0 as usize / MIN_WORDS];
        (new != RECLAIMED).then_some(ClauseRef(new))
    }
}

/// A walk over the live clauses in allocation order that does not borrow
/// the arena, so the walker may rewrite or delete clauses between steps.
/// Clauses allocated after the cursor was made are not visited.
pub(crate) struct Cursor {
    next: usize,
    end: usize,
}

impl Cursor {
    pub(crate) fn next(&mut self, db: &ClauseDb) -> Option<ClauseRef> {
        while self.next < self.end {
            let r = ClauseRef(self.next as u32);
            self.next += HEADER + db.word(r, CAP) as usize;
            if !db.is_deleted(r) {
                return Some(r);
            }
        }
        None
    }
}

/// The clause arena.
#[derive(Clone, Debug)]
pub struct ClauseDb {
    data: Vec<Lit>,
    pub(crate) num_learnt: usize,
    num_live: usize,
    pub(crate) clause_inc: f64,
    /// Tombstoned clauses awaiting compaction.
    pub(crate) num_deleted: usize,
    /// Deletions since the solver last reset it: the trigger of database
    /// reduction's scheduled compaction. [`ClauseDb::compact`] leaves it
    /// alone, so compactions off that schedule do not move it.
    pub(crate) compaction_debt: usize,
    /// High-water mark of [`ClauseDb::arena_bytes`], sampled on alloc.
    pub(crate) peak_bytes: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        ClauseDb {
            data: Vec::new(),
            num_learnt: 0,
            num_live: 0,
            clause_inc: 1.0,
            num_deleted: 0,
            compaction_debt: 0,
            peak_bytes: 0,
        }
    }

    fn word(&self, r: ClauseRef, k: usize) -> u32 {
        self.data[r.0 as usize + k].0
    }

    fn set_word(&mut self, r: ClauseRef, k: usize, w: u32) {
        self.data[r.0 as usize + k] = Lit(w);
    }

    fn flags(&self, r: ClauseRef) -> u32 {
        self.word(r, FLAGS)
    }

    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        // Watchers keep a tag bit above the offset.
        assert!(self.data.len() < 1 << 31, "clause arena exceeds 2^31 words");
        let r = ClauseRef(self.data.len() as u32);
        let used = if learnt { 1 } else { 0 };
        let flags = u32::from(learnt)
            | Tier::for_lbd(lbd).bits() << TIER_SHIFT
            | used << USED_SHIFT
            | lbd.min(LBD_MAX) << LBD_SHIFT;
        let n = lits.len() as u32;
        self.data
            .extend([Lit(n), Lit(n), Lit(flags), Lit(0), Lit(0)]);
        self.data.extend_from_slice(lits);
        if learnt {
            self.num_learnt += 1;
        }
        self.num_live += 1;
        self.peak_bytes = self.peak_bytes.max(self.arena_bytes());
        r
    }

    /// Bytes currently held by the arena: the capacity of its one word
    /// vector, 4 bytes per header word or literal slot. Tombstones and the
    /// slack of clauses shrunk in place count until
    /// [`ClauseDb::compact`] reclaims them.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Lit>()
    }

    /// The clause's literals.
    pub(crate) fn lits(&self, r: ClauseRef) -> &[Lit] {
        let start = r.0 as usize + HEADER;
        &self.data[start..start + self.len(r)]
    }

    /// The clause's literals, for in-place reordering.
    pub(crate) fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit] {
        let start = r.0 as usize + HEADER;
        let n = self.len(r);
        &mut self.data[start..start + n]
    }

    pub(crate) fn len(&self, r: ClauseRef) -> usize {
        self.word(r, LEN) as usize
    }

    /// Overwrites the clause's literals with a list no longer than its
    /// capacity (the clause shrinks in place).
    pub(crate) fn set_lits(&mut self, r: ClauseRef, lits: &[Lit]) {
        assert!(
            lits.len() <= self.word(r, CAP) as usize,
            "clauses only shrink"
        );
        let start = r.0 as usize + HEADER;
        self.data[start..start + lits.len()].copy_from_slice(lits);
        self.set_word(r, LEN, lits.len() as u32);
    }

    /// Removes literal `l`, keeping the others in order.
    pub(crate) fn remove_lit(&mut self, r: ClauseRef, l: Lit) {
        let lits = self.lits_mut(r);
        let n = lits.len();
        if let Some(i) = lits.iter().position(|&x| x == l) {
            lits.copy_within(i + 1.., i);
            self.set_word(r, LEN, n as u32 - 1);
        }
    }

    pub(crate) fn is_learnt(&self, r: ClauseRef) -> bool {
        self.flags(r) & LEARNT != 0
    }

    pub(crate) fn is_deleted(&self, r: ClauseRef) -> bool {
        self.flags(r) & DELETED != 0
    }

    /// Literal-block distance at learning time (glue level), lowered when
    /// a recomputation during conflict analysis finds a better value.
    pub(crate) fn lbd(&self, r: ClauseRef) -> u32 {
        self.flags(r) >> LBD_SHIFT
    }

    pub(crate) fn set_lbd(&mut self, r: ClauseRef, lbd: u32) {
        let f = self.flags(r) & !(LBD_MAX << LBD_SHIFT);
        self.set_word(r, FLAGS, f | lbd.min(LBD_MAX) << LBD_SHIFT);
    }

    /// Retention tier (meaningful for learnt clauses only).
    pub(crate) fn tier(&self, r: ClauseRef) -> Tier {
        Tier::from_bits(self.flags(r) >> TIER_SHIFT & 3)
    }

    pub(crate) fn set_tier(&mut self, r: ClauseRef, t: Tier) {
        let f = self.flags(r) & !(3 << TIER_SHIFT);
        self.set_word(r, FLAGS, f | t.bits() << TIER_SHIFT);
    }

    /// Use credits: set on learning and on every use in conflict
    /// analysis, spent one per database reduction. A mid-tier clause
    /// that runs out demotes to local; a local clause with credits is
    /// protected from the next delete-half pass.
    pub(crate) fn used(&self, r: ClauseRef) -> u8 {
        (self.flags(r) >> USED_SHIFT & 3) as u8
    }

    pub(crate) fn set_used(&mut self, r: ClauseRef, used: u8) {
        debug_assert!(used <= 3);
        let f = self.flags(r) & !(3 << USED_SHIFT);
        self.set_word(r, FLAGS, f | u32::from(used) << USED_SHIFT);
    }

    pub(crate) fn activity(&self, r: ClauseRef) -> f64 {
        let lo = u64::from(self.word(r, ACT_LO));
        let hi = u64::from(self.word(r, ACT_HI));
        f64::from_bits(hi << 32 | lo)
    }

    fn set_activity(&mut self, r: ClauseRef, a: f64) {
        let bits = a.to_bits();
        self.set_word(r, ACT_LO, bits as u32);
        self.set_word(r, ACT_HI, (bits >> 32) as u32);
    }

    /// Tombstones the clause. Its literals stay readable until
    /// [`ClauseDb::compact`]; the caller detaches its watchers (eagerly
    /// or lazily).
    pub(crate) fn delete(&mut self, r: ClauseRef) {
        let f = self.flags(r);
        debug_assert!(f & DELETED == 0);
        if f & LEARNT != 0 {
            self.num_learnt -= 1;
        }
        self.set_word(r, FLAGS, f | DELETED);
        self.num_live -= 1;
        self.num_deleted += 1;
        self.compaction_debt += 1;
    }

    /// A walk over the live clauses allocated so far.
    pub(crate) fn cursor(&self) -> Cursor {
        Cursor {
            next: 0,
            end: self.data.len(),
        }
    }

    /// All live learnt clause refs in allocation order, collected into
    /// the caller's scratch buffer (cleared first) so repeated database
    /// reductions reuse one allocation.
    pub(crate) fn learnt_refs_into(&self, out: &mut Vec<ClauseRef>) {
        out.clear();
        let mut cur = self.cursor();
        while let Some(r) = cur.next(self) {
            if self.is_learnt(r) {
                out.push(r);
            }
        }
    }

    /// Reclaims every tombstone and every shrunk clause's slack by
    /// sliding live clauses down in allocation order. The caller must
    /// rewrite every `ClauseRef` it holds — watch lists and reason slots
    /// — through the returned map; refs to tombstones map to nothing.
    pub(crate) fn compact(&mut self) -> Relocation {
        let mut map = vec![RECLAIMED; self.data.len().div_ceil(MIN_WORDS)];
        let (mut src, mut dst) = (0usize, 0usize);
        while src < self.data.len() {
            let old = ClauseRef(src as u32);
            let len = self.len(old);
            let next = src + HEADER + self.word(old, CAP) as usize;
            if !self.is_deleted(old) {
                // A shorter live clause would break the MIN_WORDS stride
                // the next relocation table relies on.
                debug_assert!(len >= 2, "live clause shorter than two literals");
                self.data.copy_within(src..src + HEADER + len, dst);
                self.data[dst + CAP] = Lit(len as u32);
                map[src / MIN_WORDS] = dst as u32;
                dst += HEADER + len;
            }
            src = next;
        }
        self.data.truncate(dst);
        self.num_deleted = 0;
        Relocation(map)
    }

    /// Releases the arena's spare capacity back to the allocator.
    /// [`ClauseDb::compact`] truncates but deliberately keeps capacity for
    /// steady-state reuse; emergency memory reclamation and parking a
    /// stopped session want it gone, since [`ClauseDb::arena_bytes`]
    /// counts capacity, not length.
    pub(crate) fn shrink(&mut self) {
        self.data.shrink_to_fit();
    }

    pub(crate) fn bump_activity(&mut self, r: ClauseRef) {
        let a = self.activity(r) + self.clause_inc;
        self.set_activity(r, a);
        if a > 1e20 {
            let mut at = 0;
            while at < self.data.len() {
                let c = ClauseRef(at as u32);
                self.set_activity(c, self.activity(c) * 1e-20);
                at += HEADER + self.word(c, CAP) as usize;
            }
            self.clause_inc *= 1e-20;
        }
    }

    pub(crate) fn decay_activity(&mut self) {
        self.clause_inc /= 0.999;
    }

    /// Number of live clauses (original + learnt).
    pub(crate) fn num_live(&self) -> usize {
        self.num_live
    }

    /// Live learnt clauses per retention tier: `(core, mid, local)`.
    pub(crate) fn tier_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        let mut cur = self.cursor();
        while let Some(r) = cur.next(self) {
            if !self.is_learnt(r) {
                continue;
            }
            match self.tier(r) {
                Tier::Core => counts.0 += 1,
                Tier::Mid => counts.1 += 1,
                Tier::Local => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;

    fn lits(v: &[i32]) -> Vec<Lit> {
        v.iter().map(|&l| Lit::from_dimacs(l)).collect()
    }

    #[test]
    fn alloc_and_get() {
        let mut db = ClauseDb::new();
        let r = db.alloc(&lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.len(r), 3);
        assert_eq!(db.lits(r), &lits(&[1, -2, 3])[..]);
        assert!(!db.is_learnt(r));
        assert_eq!(db.num_learnt, 0);
    }

    #[test]
    fn learnt_counting_and_delete() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), true, 2);
        let b = db.alloc(&lits(&[1, 3]), true, 3);
        assert_eq!(db.num_learnt, 2);
        db.delete(a);
        assert_eq!(db.num_learnt, 1);
        assert!(db.is_deleted(a));
        // A tombstone's literals stay readable for lazy watch detach.
        assert_eq!(db.lits(a), &lits(&[1, 2])[..]);
        let mut refs = Vec::new();
        db.learnt_refs_into(&mut refs);
        assert_eq!(refs, vec![b]);
        assert_eq!(db.num_live(), 1);
        assert_eq!(db.num_deleted, 1);
    }

    #[test]
    fn compact_reclaims_tombstones_and_maps_survivors() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[1, 3]), true, 2);
        let c = db.alloc(&lits(&[2, 3, 4]), true, 3);
        db.delete(b);
        let map = db.compact();
        assert_eq!(map.get(a), Some(ClauseRef(0)));
        assert_eq!(map.get(b), None);
        let c2 = map.get(c).expect("survivor mapped");
        assert_eq!(c2, ClauseRef((HEADER + 2) as u32));
        assert_eq!(db.num_live(), 2);
        assert_eq!(db.num_deleted, 0);
        // Surviving clauses keep their contents at the remapped offsets.
        assert_eq!(db.lits(c2), &lits(&[2, 3, 4])[..]);
        assert!(db.is_learnt(c2));
    }

    #[test]
    fn peak_bytes_grows_with_allocation() {
        let mut db = ClauseDb::new();
        assert_eq!(db.peak_bytes, 0);
        let _ = db.alloc(&lits(&[1, 2, 3]), false, 0);
        let after_one = db.peak_bytes;
        assert!(after_one > 0);
        let mut r = ClauseRef(0);
        while db.peak_bytes == after_one {
            r = db.alloc(&lits(&[1, 2, 3, 4]), true, 2);
        }
        // Deletion and compaction release current bytes but never lower
        // the peak.
        let peak = db.peak_bytes;
        db.delete(r);
        let _ = db.compact();
        db.shrink();
        assert!(db.arena_bytes() < peak);
        assert_eq!(db.peak_bytes, peak);
    }

    #[test]
    fn tiers_assigned_by_lbd_and_counted() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), true, 2);
        let b = db.alloc(&lits(&[1, 2, 3]), true, 5);
        let c = db.alloc(&lits(&[1, 2, 3]), true, 9);
        // Original clauses never count toward the tiers.
        let o = db.alloc(&lits(&[4, 5]), false, 0);
        assert_eq!(db.tier(a), Tier::Core);
        assert_eq!(db.tier(b), Tier::Mid);
        assert_eq!(db.tier(c), Tier::Local);
        assert_eq!(db.lbd(c), 9);
        assert_eq!(db.used(a), 1);
        assert_eq!(db.used(o), 0);
        assert_eq!(db.tier_counts(), (1, 1, 1));
        db.delete(b);
        assert_eq!(db.tier_counts(), (1, 0, 1));
        // Header fields update independently of each other.
        db.set_used(c, 2);
        db.set_tier(c, Tier::Mid);
        db.set_lbd(c, 4);
        assert_eq!((db.used(c), db.tier(c), db.lbd(c)), (2, Tier::Mid, 4));
        assert!(db.is_learnt(c) && !db.is_deleted(c));
    }

    #[test]
    fn activity_rescale_keeps_order() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), true, 2);
        let b = db.alloc(&lits(&[1, 3]), true, 2);
        for _ in 0..10 {
            db.bump_activity(a);
        }
        db.bump_activity(b);
        assert!(db.activity(a) > db.activity(b));
        db.clause_inc = 1e21;
        db.bump_activity(b);
        assert!(db.activity(b) <= 1e20 && db.activity(a) > 0.0);
        assert!(db.activity(b) > db.activity(a));
    }

    #[test]
    fn shrunk_clause_keeps_the_arena_walkable_and_compacts_short() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3, 4]), false, 0);
        let b = db.alloc(&lits(&[5, 6, 7]), false, 0);
        db.remove_lit(a, Lit::from_dimacs(2));
        assert_eq!(db.lits(a), &lits(&[1, 3, 4])[..]);
        db.set_lits(a, &lits(&[4, 1]));
        let mut cur = db.cursor();
        assert_eq!(cur.next(&db), Some(a));
        assert_eq!(cur.next(&db), Some(b));
        assert_eq!(cur.next(&db), None);
        let map = db.compact();
        let (a2, b2) = (map.get(a).unwrap(), map.get(b).unwrap());
        assert_eq!(db.lits(a2), &lits(&[4, 1])[..]);
        assert_eq!(b2, ClauseRef((HEADER + 2) as u32));
        assert_eq!(db.lits(b2), &lits(&[5, 6, 7])[..]);
        assert_eq!(db.cursor().end, 2 * HEADER + 5);
    }

    #[test]
    fn relocation_maps_survivors_in_order_and_tombstones_to_none() {
        // Clauses of every length from the minimum up, some shrunk in
        // place (capacity above length), every third one deleted: the
        // map must send each survivor to the next dense offset in
        // allocation order and each tombstone to `None`.
        let mut db = ClauseDb::new();
        let mut clauses = Vec::new();
        for i in 0..60i32 {
            let len = 2 + (i % 7);
            let c: Vec<i32> = (1..=len)
                .map(|k| if (i + k) % 2 == 0 { k } else { -k })
                .collect();
            let r = db.alloc(&lits(&c), i % 4 == 0, 3);
            clauses.push((r, c));
        }
        for (i, (r, c)) in clauses.iter_mut().enumerate() {
            if i % 3 == 0 {
                db.delete(*r);
            } else if i % 5 == 0 && c.len() > 2 {
                c.pop();
                db.set_lits(*r, &lits(c));
            }
        }
        let map = db.compact();
        let mut next = 0u32;
        for (i, (r, c)) in clauses.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(map.get(*r), None, "tombstone {i} survived");
                continue;
            }
            let moved = map.get(*r).expect("survivor mapped");
            assert_eq!(moved, ClauseRef(next), "clause {i} out of order");
            assert_eq!(db.lits(moved), &lits(c)[..]);
            assert_eq!(db.is_learnt(moved), i % 4 == 0);
            next += (HEADER + c.len()) as u32;
        }
        assert_eq!(db.cursor().end, next as usize, "slack left behind");
        assert_eq!((db.num_deleted, db.num_live()), (0, 40));
        // Compaction leaves the scheduled-compaction trigger to the
        // solver.
        assert_eq!(db.compaction_debt, 20);
    }
}
