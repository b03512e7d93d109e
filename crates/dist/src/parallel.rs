//! The scheduler: the one loop that replays the federated sites, at any
//! worker count.
//!
//! The paper's architectural point (Section 4) is that federated inference is
//! *embarrassingly per-site*: each site owns its readers, its engine and its
//! query processor, and the only cross-site traffic is the migrating state of
//! dispatched objects. The execution model is exactly that:
//!
//! ```text
//!                     run (worker 0 is the calling thread)
//!   ┌───────────────┬───────────────┬───────────────┐
//!   worker 0        worker 1        worker 2          std::thread::scope
//!   sites 0,3,6…    sites 1,4,7…    sites 2,5,8…      (round-robin shards)
//!   │ maybe_crash   │               │                 per epoch t, per site:
//!   │ before_exchange ──msg──▶ mpsc ◀──msg──            streams, arrivals, dispatch
//!   ├───────────────┴──barrier──────┴───────────────┤  epoch-stride sync
//!   │ drain channel → after_exchange → maybe_checkpoint  zero-transit, custody, step
//!   └───────────────┬───────────────┬───────────────┘
//!            merge (tallies, alerts, containment, ONS)
//! ```
//!
//! One worker is this same loop on the calling thread — it sends to its own
//! channel and a barrier of one never blocks — so "sequential" is a worker
//! count, not a code path, and `1 == N` is a property of one function.
//!
//! Determinism: every worker drives the same two [`SiteState`] phase methods
//! in the same per-epoch order; custody is tracked by a local [`OnsTracker`]
//! replica (a pure function of the static transfer schedule); and arrival
//! batches are re-sorted into generation order before import. The per-epoch
//! barrier guarantees every shipment departing at epoch `t` is in its
//! destination's channel before any worker processes the rest of epoch `t`;
//! shipments a racing worker sends from epoch `t+1` early are buffered by
//! arrival epoch, and the arrival pass holds zero-transit shipments back for
//! the post-departure pass of their epoch. The merged [`DistributedOutcome`]
//! is therefore bit-identical at every worker count.

use crate::driver::{DistributedOutcome, RunCtx};
use crate::inference::Tally;
use crate::site::{OnsTracker, ShipmentMsg, SiteOutcome, SiteState};
use rfid_query::Alert;
use rfid_types::{ContainmentMap, Epoch, TagId};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, PoisonError};

/// A reusable epoch barrier that — unlike `std::sync::Barrier` — can be
/// *poisoned*: when one worker panics, every sibling blocked on (or later
/// reaching) the barrier panics too instead of waiting forever, so the
/// original panic propagates through `std::thread::scope` as a failure
/// rather than deadlocking the run (and CI) at the next epoch boundary.
struct EpochBarrier {
    state: Mutex<BarrierState>,
    condvar: Condvar,
    workers: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl EpochBarrier {
    fn new(workers: usize) -> EpochBarrier {
        EpochBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            condvar: Condvar::new(),
            workers,
        }
    }

    /// Block until every worker arrives, or until the barrier is poisoned —
    /// in which case this panics (after releasing the lock, so the poisoning
    /// thread's own unwind never double-panics).
    fn wait(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.poisoned {
            state.arrived += 1;
            if state.arrived == self.workers {
                state.arrived = 0;
                state.generation = state.generation.wrapping_add(1);
                self.condvar.notify_all();
                return;
            }
            let generation = state.generation;
            while state.generation == generation && !state.poisoned {
                state = self
                    .condvar
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let poisoned = state.poisoned;
        drop(state);
        assert!(
            !poisoned,
            "epoch barrier poisoned: a sibling site worker panicked"
        );
    }

    /// Mark the barrier poisoned and wake every waiter.
    fn poison(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.poisoned = true;
        self.condvar.notify_all();
    }
}

/// Poisons the barrier when its worker unwinds, releasing the siblings.
struct PoisonOnPanic<'a>(&'a EpochBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Replay the federated run with sites sharded round-robin across
/// `num_workers` workers (at least one, at most one per site).
pub(crate) fn run(ctx: &RunCtx<'_>) -> DistributedOutcome {
    let num_sites = ctx.chain.sites.len();
    let workers = ctx.config.num_workers.min(num_sites).max(1);
    let objects = ctx.chain.objects();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..workers).map(|_| channel()).unzip();
    let barrier = EpochBarrier::new(workers);

    let mut outcomes = std::thread::scope(|scope| {
        let (barrier, objects) = (&barrier, objects.as_slice());
        let mut receivers = receivers.into_iter().enumerate();
        let (_, own_rx) = receivers.next().expect("at least one worker");
        let handles: Vec<_> = receivers
            .map(|(w, rx)| {
                let txs = senders.clone();
                scope.spawn(move || worker_loop(w, ctx, rx, txs, barrier, objects))
            })
            .collect();
        let mut outcomes = worker_loop(0, ctx, own_rx, senders, barrier, objects);
        for handle in handles {
            match handle.join() {
                Ok(worker_outcomes) => outcomes.extend(worker_outcomes),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        outcomes
    });

    // Merge in ascending site order; alerts report in firing order.
    outcomes.sort_by_key(|o| o.site);
    let mut tally = Tally::default();
    let mut alerts: Vec<Alert> = Vec::new();
    let mut containment = ContainmentMap::new();
    for outcome in outcomes {
        tally.merge(outcome.tally);
        alerts.extend(outcome.alerts);
        for (object, container) in outcome.containment {
            containment.set(object, container);
        }
    }
    alerts.sort_by(|a, b| (a.at, &a.query, a.tag).cmp(&(b.at, &b.query, b.tag)));
    let mut ons = OnsTracker::new();
    ons.advance(&ctx.chain.transfers, Epoch(ctx.horizon));
    tally.into_outcome(containment, alerts, ons.into_ons())
}

/// One worker: drives the epoch loop for its shard of sites, exchanging
/// shipments with the other workers (and itself) over channels.
fn worker_loop<'a>(
    worker: usize,
    ctx: &'a RunCtx<'a>,
    rx: Receiver<ShipmentMsg>,
    txs: Vec<Sender<ShipmentMsg>>,
    barrier: &EpochBarrier,
    objects: &[TagId],
) -> Vec<SiteOutcome> {
    // If anything below panics, free the siblings blocked on the barrier.
    let _poison_guard = PoisonOnPanic(barrier);
    let workers = txs.len();
    // Round-robin shard: worker w owns sites w, w+workers, w+2·workers, …
    let mut sites: Vec<SiteState<'a>> = (worker..ctx.chain.sites.len())
        .step_by(workers)
        .map(|site| SiteState::new(ctx, site))
        .collect();
    let mut ons = OnsTracker::new();

    for t in 0..=ctx.horizon {
        let now = Epoch(t);
        // Scheduled faults fire at the top of the epoch: a crash destroys
        // the volatile state before any of this epoch's processing, and
        // restore + replay happen here too.
        for site in sites.iter_mut() {
            site.maybe_crash(now);
            site.before_exchange(now, |msg| {
                txs[msg.to as usize % workers]
                    .send(msg)
                    .expect("destination worker outlives the epoch loop");
            });
        }
        // Epoch-stride barrier: after it, every shipment departing at `t`
        // (from any worker) is in its destination worker's channel. A racing
        // worker may already have sent epoch t+1 departures — those carry
        // arrival epochs ≥ t+1, get buffered by arrival epoch, and if they
        // are zero-transit (arrive == depart == t+1) the arrival pass of
        // t+1 holds them back for the post-departure pass.
        barrier.wait();
        while let Ok(msg) = rx.try_recv() {
            sites[msg.to as usize / workers].receive(msg);
        }
        for site in sites.iter_mut() {
            site.after_exchange(now, &mut ons);
            // Durability: cut a checkpoint at the policy boundary. The inbox
            // section is filtered to shipments departing ≤ `now`, so a racing
            // sibling's early epoch-(t+1) delivery cannot leak into it and
            // checkpoint bytes do not depend on the worker count.
            site.maybe_checkpoint(now);
        }
    }

    sites
        .into_iter()
        .map(|site| site.into_outcome(objects, ons.get()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn single_worker_barrier_never_blocks() {
        let barrier = EpochBarrier::new(1);
        for _ in 0..3 {
            barrier.wait();
        }
    }

    #[test]
    fn barrier_releases_every_generation() {
        let barrier = EpochBarrier::new(2);
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| {
                for _ in 0..100 {
                    barrier.wait();
                }
            });
            for _ in 0..100 {
                barrier.wait();
            }
            peer.join().unwrap();
        });
    }

    #[test]
    fn poisoned_barrier_panics_waiters_instead_of_hanging() {
        let barrier = EpochBarrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| catch_unwind(AssertUnwindSafe(|| barrier.wait())).is_err());
            // Never arrive at the barrier: poison it instead, as a panicking
            // worker's drop guard would.
            std::thread::sleep(std::time::Duration::from_millis(20));
            barrier.poison();
            assert!(
                waiter.join().unwrap(),
                "the waiter must panic once poisoned, not block forever"
            );
        });
        // Late arrivals see the poison immediately.
        assert!(catch_unwind(AssertUnwindSafe(|| barrier.wait())).is_err());
    }

    #[test]
    fn unwinding_worker_poisons_the_barrier_via_its_guard() {
        let barrier = EpochBarrier::new(2);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _guard = PoisonOnPanic(&barrier);
            panic!("site worker died mid-epoch");
        }));
        assert!(unwound.is_err());
        assert!(
            catch_unwind(AssertUnwindSafe(|| barrier.wait())).is_err(),
            "the guard must have poisoned the barrier during unwind"
        );
    }
}
