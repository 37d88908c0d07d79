//! Per-thread operation statistics.
//!
//! The paper's evaluation reports two scheduler-level quantities besides wall
//! time: *work increase* (total tasks executed relative to the sequential
//! baseline — wasted work caused by priority relaxation) and, for the
//! NUMA-aware variants, the fraction of queue accesses that stay on the
//! thread's own node (the `E_int` metric of Section 4).  Handles accumulate
//! these counters locally (plain `u64`s, no atomics on the hot path) and the
//! executor merges them after the threads join.

use serde::{Deserialize, Serialize};

/// Operation counters accumulated by one scheduler handle.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    /// Tasks inserted through this handle.
    pub pushes: u64,
    /// Tasks successfully removed through this handle.
    pub pops: u64,
    /// `pop()` calls that returned `None`.
    pub empty_pops: u64,
    /// Steal attempts (SMQ) or second-queue comparisons (Multi-Queue).
    pub steal_attempts: u64,
    /// Steal attempts that actually transferred tasks.
    pub steal_successes: u64,
    /// Steal attempts whose snapshot comparison justified a claim but whose
    /// claim transferred nothing — the victim's buffer was raced away or
    /// its advisory top-key was transiently stale (e.g. `u64::MAX` right
    /// after a steal, before the owner refilled).  Together with
    /// `steal_successes` this pair measures how often thieves act on stale
    /// snapshots, the quantity the owner-side eager refill targets.
    pub steal_failed_claims: u64,
    /// Tasks obtained from another thread's queue/buffer.
    pub stolen_tasks: u64,
    /// Failed lock acquisitions (lock-based schedulers) or CAS failures
    /// (lock-free schedulers) that forced a retry.
    pub contention_retries: u64,
    /// Locks successfully acquired on the **delete path** of a lock-based
    /// scheduler.  The classic two-choice delete locks both sampled queues
    /// (2 per pop); the snapshot-based delete try-locks only the apparent
    /// winner, so `locks_acquired / pops` ≈ 1 in the common case and only
    /// the stale-snapshot fallback pays for a second lock.
    pub locks_acquired: u64,
    /// Shared-structure synchronization passes paid on the **insert path**:
    /// sub-queue/bucket lock acquisitions for the lock-based schedulers, or
    /// stealing-buffer maintenance passes (the shared state-word inspection
    /// plus possible refill) for the SMQ.  The per-task insert path pays one
    /// per push; a native `push_batch` pays one per *batch*, which is the
    /// quantity [`OpStats::locks_per_push`] makes assertable.
    pub push_locks_acquired: u64,
    /// Non-empty **native** `push_batch` calls executed by this handle.
    /// Zero for schedulers that fall back to the per-task default
    /// implementation, and zero at batch size 1, where the executor pushes
    /// per task — policy-level buffering fed by per-task `push` (e.g. the
    /// Multi-Queue's `InsertPolicy::Batching`) is *not* counted here.
    pub batch_flushes: u64,
    /// Tasks inserted through the native `push_batch` calls counted in
    /// `batch_flushes`; `tasks_batched / batch_flushes` is the achieved
    /// insert-side amortization factor.
    pub tasks_batched: u64,
    /// Queue *choices* (two-choice samples, steal-victim samples) that
    /// landed on a queue owned by the same (simulated) NUMA node as the
    /// calling thread.
    pub local_samples: u64,
    /// Queue choices that landed on a queue owned by a different node.
    pub remote_samples: u64,
    /// Successful steals whose victim buffer lived on the thief's own node.
    /// Counted per successful claim (not per sampled victim), so together
    /// with `remote_steals` it measures where stolen cache lines actually
    /// travel from — the traffic the paper's weighted sampling minimizes.
    pub local_steals: u64,
    /// Successful steals whose victim buffer lived on a different node.
    pub remote_steals: u64,
}

impl OpStats {
    /// Adds another handle's counters into this one.
    pub fn merge(&mut self, other: &OpStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.empty_pops += other.empty_pops;
        self.steal_attempts += other.steal_attempts;
        self.steal_successes += other.steal_successes;
        self.steal_failed_claims += other.steal_failed_claims;
        self.stolen_tasks += other.stolen_tasks;
        self.contention_retries += other.contention_retries;
        self.locks_acquired += other.locks_acquired;
        self.push_locks_acquired += other.push_locks_acquired;
        self.batch_flushes += other.batch_flushes;
        self.tasks_batched += other.tasks_batched;
        self.local_samples += other.local_samples;
        self.remote_samples += other.remote_samples;
        self.local_steals += other.local_steals;
        self.remote_steals += other.remote_steals;
    }

    /// The per-field difference `self - baseline`, saturating at zero.
    ///
    /// Counters are monotone within one handle, so on a persistent handle
    /// (the resident worker pool keeps one per worker across jobs) the
    /// delta between two snapshots is exactly the activity in between —
    /// this is how per-job `OpStats` are carved out of long-lived handles.
    pub fn delta_since(&self, baseline: &OpStats) -> OpStats {
        OpStats {
            pushes: self.pushes.saturating_sub(baseline.pushes),
            pops: self.pops.saturating_sub(baseline.pops),
            empty_pops: self.empty_pops.saturating_sub(baseline.empty_pops),
            steal_attempts: self.steal_attempts.saturating_sub(baseline.steal_attempts),
            steal_successes: self
                .steal_successes
                .saturating_sub(baseline.steal_successes),
            steal_failed_claims: self
                .steal_failed_claims
                .saturating_sub(baseline.steal_failed_claims),
            stolen_tasks: self.stolen_tasks.saturating_sub(baseline.stolen_tasks),
            contention_retries: self
                .contention_retries
                .saturating_sub(baseline.contention_retries),
            locks_acquired: self.locks_acquired.saturating_sub(baseline.locks_acquired),
            push_locks_acquired: self
                .push_locks_acquired
                .saturating_sub(baseline.push_locks_acquired),
            batch_flushes: self.batch_flushes.saturating_sub(baseline.batch_flushes),
            tasks_batched: self.tasks_batched.saturating_sub(baseline.tasks_batched),
            local_samples: self.local_samples.saturating_sub(baseline.local_samples),
            remote_samples: self.remote_samples.saturating_sub(baseline.remote_samples),
            local_steals: self.local_steals.saturating_sub(baseline.local_steals),
            remote_steals: self.remote_steals.saturating_sub(baseline.remote_steals),
        }
    }

    /// Sums a collection of per-thread statistics.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a OpStats>) -> OpStats {
        let mut total = OpStats::default();
        for s in stats {
            total.merge(s);
        }
        total
    }

    /// The fraction of node-classified queue *samples* (two-choice picks,
    /// steal-victim picks) that stayed on the caller's node, or `None` when
    /// no samples were classified (non-NUMA schedulers).
    pub fn sample_locality_rate(&self) -> Option<f64> {
        let total = self.local_samples + self.remote_samples;
        if total == 0 {
            None
        } else {
            Some(self.local_samples as f64 / total as f64)
        }
    }

    /// The fraction of successful *steals* whose victim lived on the
    /// thief's own node, or `None` when nothing was stolen.
    pub fn steal_locality_rate(&self) -> Option<f64> {
        let total = self.local_steals + self.remote_steals;
        if total == 0 {
            None
        } else {
            Some(self.local_steals as f64 / total as f64)
        }
    }

    /// The combined in-node fraction over every node-classified event
    /// (samples and steals together) — the paper's `E_int` metric of
    /// Section 4 — or `None` when nothing was classified.
    pub fn locality_rate(&self) -> Option<f64> {
        let local = self.local_samples + self.local_steals;
        let total = local + self.remote_samples + self.remote_steals;
        if total == 0 {
            None
        } else {
            Some(local as f64 / total as f64)
        }
    }

    /// Fraction of steal attempts that succeeded, or `None` if no steals were
    /// attempted.
    pub fn steal_success_rate(&self) -> Option<f64> {
        if self.steal_attempts == 0 {
            None
        } else {
            Some(self.steal_successes as f64 / self.steal_attempts as f64)
        }
    }

    /// Of the claims thieves actually committed to (snapshot said the
    /// victim was better), the fraction that came back empty-handed —
    /// `None` when no claim was ever committed to.  High values mean
    /// thieves keep acting on stale top-key snapshots.
    pub fn steal_claim_failure_rate(&self) -> Option<f64> {
        let committed = self.steal_successes + self.steal_failed_claims;
        if committed == 0 {
            None
        } else {
            Some(self.steal_failed_claims as f64 / committed as f64)
        }
    }

    /// Delete-path locks acquired per successful pop, or `None` when the
    /// scheduler popped nothing (or is lock-free and never counts locks).
    pub fn locks_per_pop(&self) -> Option<f64> {
        if self.pops == 0 || self.locks_acquired == 0 {
            None
        } else {
            Some(self.locks_acquired as f64 / self.pops as f64)
        }
    }

    /// Insert-path synchronization passes per pushed task (mirror of
    /// [`locks_per_pop`](Self::locks_per_pop)), or `None` when nothing was
    /// pushed or the scheduler never counts insert-path locks.
    ///
    /// The per-task insert path pays ≈ 1; a native `push_batch` of B tasks
    /// pays 1/B, which is the batch-granularity claim the stress tests
    /// assert instead of eyeballing.
    pub fn locks_per_push(&self) -> Option<f64> {
        if self.pushes == 0 || self.push_locks_acquired == 0 {
            None
        } else {
            Some(self.push_locks_acquired as f64 / self.pushes as f64)
        }
    }

    /// Tasks moved per native batch operation, or `None` when the handle
    /// never executed one (per-task default paths, batch size 1).
    pub fn tasks_per_batch(&self) -> Option<f64> {
        if self.batch_flushes == 0 {
            None
        } else {
            Some(self.tasks_batched as f64 / self.batch_flushes as f64)
        }
    }

    /// Total lock (or lock-equivalent) acquisitions per scheduler
    /// operation: `(delete-path + insert-path locks) / (pushes + pops)`,
    /// or `None` when the scheduler counts neither (lock-free).  The
    /// combined ratio the bench tables print as `Locks/op`.
    pub fn locks_per_op(&self) -> Option<f64> {
        let ops = self.pushes + self.pops;
        let locks = self.locks_acquired + self.push_locks_acquired;
        if ops == 0 || locks == 0 {
            None
        } else {
            Some(locks as f64 / ops as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(a: u64) -> OpStats {
        OpStats {
            pushes: a,
            pops: a + 1,
            empty_pops: a + 2,
            steal_attempts: a + 3,
            steal_successes: a + 4,
            steal_failed_claims: a + 10,
            stolen_tasks: a + 5,
            contention_retries: a + 6,
            locks_acquired: a + 9,
            push_locks_acquired: a + 11,
            batch_flushes: a + 12,
            tasks_batched: a + 13,
            local_samples: a + 7,
            remote_samples: a + 8,
            local_steals: a + 14,
            remote_steals: a + 15,
        }
    }

    #[test]
    fn merge_adds_every_field() {
        let mut a = sample(10);
        let b = sample(100);
        a.merge(&b);
        assert_eq!(a.pushes, 110);
        assert_eq!(a.pops, 112);
        assert_eq!(a.empty_pops, 114);
        assert_eq!(a.steal_attempts, 116);
        assert_eq!(a.steal_successes, 118);
        assert_eq!(a.steal_failed_claims, 130);
        assert_eq!(a.stolen_tasks, 120);
        assert_eq!(a.contention_retries, 122);
        assert_eq!(a.locks_acquired, 128);
        assert_eq!(a.push_locks_acquired, 132);
        assert_eq!(a.batch_flushes, 134);
        assert_eq!(a.tasks_batched, 136);
        assert_eq!(a.local_samples, 124);
        assert_eq!(a.remote_samples, 126);
        assert_eq!(a.local_steals, 138);
        assert_eq!(a.remote_steals, 140);
    }

    #[test]
    fn delta_since_subtracts_every_field() {
        let later = sample(100);
        let earlier = sample(40);
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.pushes, 60);
        assert_eq!(delta.pops, 60);
        assert_eq!(delta.empty_pops, 60);
        assert_eq!(delta.steal_attempts, 60);
        assert_eq!(delta.steal_successes, 60);
        assert_eq!(delta.steal_failed_claims, 60);
        assert_eq!(delta.stolen_tasks, 60);
        assert_eq!(delta.contention_retries, 60);
        assert_eq!(delta.locks_acquired, 60);
        assert_eq!(delta.push_locks_acquired, 60);
        assert_eq!(delta.batch_flushes, 60);
        assert_eq!(delta.tasks_batched, 60);
        assert_eq!(delta.local_samples, 60);
        assert_eq!(delta.remote_samples, 60);
        assert_eq!(delta.local_steals, 60);
        assert_eq!(delta.remote_steals, 60);
        // Round trip: baseline + delta == later.
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, later);
    }

    #[test]
    fn merged_over_iterator() {
        let stats = [sample(1), sample(2), sample(3)];
        let total = OpStats::merged(&stats);
        assert_eq!(total.pushes, 6);
        assert_eq!(total.remote_samples, (1 + 8) + (2 + 8) + (3 + 8));
    }

    #[test]
    fn locality_and_steal_rates() {
        let mut s = OpStats::default();
        assert_eq!(s.sample_locality_rate(), None);
        assert_eq!(s.steal_locality_rate(), None);
        assert_eq!(s.locality_rate(), None);
        assert_eq!(s.steal_success_rate(), None);
        s.local_samples = 3;
        s.remote_samples = 1;
        s.steal_attempts = 10;
        s.steal_successes = 4;
        assert_eq!(s.sample_locality_rate(), Some(0.75));
        assert_eq!(s.steal_locality_rate(), None, "nothing classified stolen");
        assert_eq!(s.locality_rate(), Some(0.75));
        assert_eq!(s.steal_success_rate(), Some(0.4));
        // Steal classification folds into the combined E_int rate.
        s.local_steals = 3;
        s.remote_steals = 1;
        assert_eq!(s.steal_locality_rate(), Some(0.75));
        assert_eq!(s.locality_rate(), Some(0.75));
    }

    #[test]
    fn claim_failure_rate() {
        let mut s = OpStats::default();
        assert_eq!(s.steal_claim_failure_rate(), None);
        s.steal_successes = 6;
        s.steal_failed_claims = 2;
        assert_eq!(s.steal_claim_failure_rate(), Some(0.25));
    }

    #[test]
    fn locks_per_pop_ratio() {
        let mut s = OpStats::default();
        assert_eq!(s.locks_per_pop(), None);
        s.pops = 8;
        assert_eq!(s.locks_per_pop(), None);
        s.locks_acquired = 10;
        assert_eq!(s.locks_per_pop(), Some(1.25));
    }

    #[test]
    fn locks_per_push_ratio() {
        let mut s = OpStats::default();
        assert_eq!(s.locks_per_push(), None);
        s.pushes = 16;
        assert_eq!(s.locks_per_push(), None, "no insert locks counted yet");
        s.push_locks_acquired = 4;
        assert_eq!(s.locks_per_push(), Some(0.25));
    }

    #[test]
    fn tasks_per_batch_ratio() {
        let mut s = OpStats::default();
        assert_eq!(s.tasks_per_batch(), None);
        s.batch_flushes = 3;
        s.tasks_batched = 24;
        assert_eq!(s.tasks_per_batch(), Some(8.0));
    }

    #[test]
    fn locks_per_op_combines_both_paths() {
        let mut s = OpStats::default();
        assert_eq!(s.locks_per_op(), None);
        s.pushes = 10;
        s.pops = 10;
        assert_eq!(s.locks_per_op(), None, "lock-free schedulers report None");
        s.locks_acquired = 3;
        s.push_locks_acquired = 2;
        assert_eq!(s.locks_per_op(), Some(0.25));
    }
}
