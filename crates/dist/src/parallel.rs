//! The scheduler: the one loop that replays the federated sites, at any
//! worker count.
//!
//! The paper's architectural point (Section 4) is that federated inference is
//! *embarrassingly per-site*: sites interact only through shipments, whose
//! transit is known when they depart. So the schedule is conservative, with
//! no global barrier — one lock over each site's progress, mailbox and state:
//!
//! ```text
//!        run: worker 0 is the calling thread, 1..N are scoped threads
//!   ┌─ lock: take the runnable site furthest behind (ties: lowest id)
//!   ├─ receive its mailbox, then per half-epoch of one slice:
//!   │    maybe_crash + before_exchange(t)     streams, arrivals, dispatch
//!   │    after_exchange(t) + maybe_checkpoint zero-transit, custody, step
//!   └─ lock: post the slice's shipments, publish progress, wake everyone
//!          merge (tallies, alerts, containment, ONS)
//! ```
//!
//! With `L` an inbound edge's minimum transit, a site runs
//! `before_exchange(t)` once each inbound neighbour finished
//! `before_exchange(t − max(L, 1))`, and `after_exchange(t)` once each
//! finished `before_exchange(t − L)`, or `before_exchange(t)` at checkpoints
//! and the horizon. A slice also ends after the site's smallest out-edge
//! transit. Sites import in generation order and own their custody replica,
//! so the merged outcome is bit-identical at every worker count
//! (docs/ARCHITECTURE.md § "One scheduler" gives the rules and why).

use crate::driver::{DistributedOutcome, RunCtx};
use crate::inference::Tally;
use crate::site::{OnsTracker, ShipmentMsg, SiteOutcome, SiteState};
use rfid_query::Alert;
use rfid_types::{Epoch, TagId};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Replay the federated run on `num_workers` workers (at least one, at most
/// one per site).
pub(crate) fn run(ctx: &RunCtx<'_>) -> DistributedOutcome {
    let workers = ctx.config.num_workers.min(ctx.chain.sites.len()).max(1);
    let objects = ctx.chain.objects();
    let schedule = Schedule::new(ctx);
    // The scope joins every worker, and panics if any of them did.
    std::thread::scope(|scope| {
        let (schedule, objects) = (&schedule, objects.as_slice());
        for _ in 1..workers {
            scope.spawn(move || schedule.work(objects));
        }
        schedule.work(objects);
    });
    let mut outcomes = std::mem::take(&mut schedule.lock().outcomes);

    // Merge in ascending site order; alerts report in firing order.
    outcomes.sort_by_key(|o| o.site);
    let mut tally = Tally::default();
    let mut alerts: Vec<Alert> = Vec::new();
    let mut containment = Vec::new();
    for outcome in outcomes {
        tally.merge(outcome.tally);
        alerts.extend(outcome.alerts);
        containment.extend(outcome.containment);
    }
    alerts.sort_by(|a, b| (a.at, &a.query, a.tag).cmp(&(b.at, &b.query, b.tag)));
    let mut ons = OnsTracker::new();
    ons.advance(&ctx.chain.transfers, Epoch(ctx.horizon));
    tally.into_outcome(containment.into_iter().collect(), alerts, ons.into_ons())
}

/// The static schedule plus the board every worker reads and writes.
struct Schedule<'a> {
    ctx: &'a RunCtx<'a>,
    /// Per site: each inbound neighbour and that edge's minimum transit.
    inbound: Vec<Vec<(usize, u32)>>,
    /// Per site: half-epochs per slice, twice its smallest out-edge transit.
    slice: Vec<u32>,
    board: Mutex<Board<'a>>,
    wake: Condvar,
}

/// What the workers share, behind one lock.
struct Board<'a> {
    /// Half-epochs each site has finished: `2t + 1` after
    /// `before_exchange(t)`, `2t + 2` after `after_exchange(t)`.
    progress: Vec<u32>,
    /// Shipments posted to each site and not yet received.
    mailbox: Vec<Vec<ShipmentMsg>>,
    /// Each site's state; `None` while a worker runs it, or once reported.
    slots: Vec<Option<SiteState<'a>>>,
    outcomes: Vec<SiteOutcome>,
    poisoned: bool,
}

impl<'a> Schedule<'a> {
    fn new(ctx: &'a RunCtx<'a>) -> Schedule<'a> {
        let sites = ctx.chain.sites.len();
        let mut inbound: Vec<Vec<(usize, u32)>> = vec![Vec::new(); sites];
        let mut slice = vec![u32::MAX; sites];
        for tr in &ctx.chain.transfers {
            let (from, to) = (usize::from(tr.from_site.0), usize::from(tr.to_site.0));
            let transit = tr.arrive.0.saturating_sub(tr.depart.0);
            match inbound[to].iter_mut().find(|(u, _)| *u == from) {
                Some((_, min)) => *min = (*min).min(transit),
                None => inbound[to].push((from, transit)),
            }
            slice[from] = slice[from].min(transit.saturating_mul(2).max(1));
        }
        Schedule {
            ctx,
            inbound,
            slice,
            board: Mutex::new(Board {
                progress: vec![0; sites],
                mailbox: vec![Vec::new(); sites],
                slots: (0..sites).map(|s| Some(SiteState::new(ctx, s))).collect(),
                outcomes: Vec::new(),
                poisoned: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Whether an inbound neighbour's published progress still keeps `site`
    /// from half-epoch `step`.
    fn blocked(&self, progress: &[u32], site: usize, step: u32) -> bool {
        let t = (step - 1) / 2;
        let sync = t == self.ctx.horizon || self.ctx.next_checkpoint(Epoch(t)) == Some(Epoch(t));
        self.inbound[site].iter().any(|&(from, transit)| {
            let lookahead = match step % 2 {
                1 => transit.max(1),
                _ if sync => 0,
                _ => transit,
            };
            progress[from] < (2 * t + 1).saturating_sub(lookahead.saturating_mul(2))
        })
    }

    /// What the rules promise a site that finished `progress`: a shipment
    /// it receives is still due, and departed after every checkpoint it cut.
    fn assert_on_time(&self, progress: u32, msg: &ShipmentMsg) {
        let half_epochs = |epoch: Epoch| 2 * u64::from(epoch.0);
        let due = half_epochs(msg.arrive) + 1 + u64::from(msg.depart == msg.arrive);
        let checkpoint = self.ctx.next_checkpoint(msg.depart);
        assert!(
            u64::from(progress) < checkpoint.map_or(due, |c| due.min(half_epochs(c) + 2)),
            "site {} received a shipment departing {:?} after {progress} half-epochs",
            msg.to,
            msg.depart
        );
    }

    fn lock(&self) -> MutexGuard<'_, Board<'a>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: run slices of whichever site is furthest behind until
    /// every site has reported.
    fn work(&self, objects: &[TagId]) {
        let _poison = PoisonOnPanic(self);
        let (sites, done) = (self.inbound.len(), 2 * self.ctx.horizon + 2);
        let mut board = self.lock();
        loop {
            assert!(!board.poisoned, "site schedule poisoned: a worker panicked");
            let runnable = (0..sites).filter(|&s| {
                board.slots[s].is_some() && !self.blocked(&board.progress, s, board.progress[s] + 1)
            });
            let Some(site) = runnable.min_by_key(|&s| (board.progress[s], s)) else {
                if board.outcomes.len() == sites {
                    return;
                }
                board = self
                    .wake
                    .wait(board)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let from = board.progress[site];
            let end = from.saturating_add(self.slice[site]).min(done);
            let to = (from + 1..=end)
                .find(|&step| self.blocked(&board.progress, site, step))
                .map_or(end, |step| step - 1);
            let mut slot = board.slots[site].take();
            let inbox = std::mem::take(&mut board.mailbox[site]);
            drop(board);

            let state = slot.as_mut().expect("a runnable site is parked");
            for msg in inbox {
                self.assert_on_time(from, &msg);
                state.receive(msg);
            }
            let mut sent = Vec::new();
            for step in from + 1..=to {
                let now = Epoch((step - 1) / 2);
                if step % 2 == 1 {
                    state.maybe_crash(now);
                    state.before_exchange(now, |msg| sent.push(msg));
                } else {
                    state.after_exchange(now);
                    state.maybe_checkpoint(now);
                }
            }
            let outcome = slot
                .take_if(|_| to == done)
                .map(|s| s.into_outcome(objects));

            board = self.lock();
            for msg in sent {
                board.mailbox[usize::from(msg.to)].push(msg);
            }
            board.progress[site] = to;
            board.slots[site] = slot;
            board.outcomes.extend(outcome);
            self.wake.notify_all();
        }
    }
}

/// Poisons the schedule when its worker unwinds, so no sibling waits forever
/// on a site that will never publish again.
struct PoisonOnPanic<'s, 'a>(&'s Schedule<'a>);

impl Drop for PoisonOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().poisoned = true;
            self.0.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistributedConfig, MigrationStrategy};
    use crate::driver::DistributedDriver;
    use rfid_core::InferenceConfig;
    use rfid_sim::presets;
    use rfid_types::ReadRateTable;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn config(workers: usize) -> DistributedConfig {
        DistributedConfig {
            strategy: MigrationStrategy::CollapsedWeights,
            inference: InferenceConfig::default().without_change_detection(),
            ..Default::default()
        }
        .with_workers(workers)
    }

    #[test]
    fn a_site_panicking_mid_slice_fails_the_run_instead_of_hanging() {
        let mut chain = presets::smoke_chain(900, 2, None);
        // Site 1's readers sit outside its one-location read-rate table, so
        // its first inference run panics in the middle of a slice.
        chain.sites[1].read_rates = ReadRateTable::diagonal(1, 0.8, 1e-4);
        for workers in [1, 2] {
            let run = catch_unwind(AssertUnwindSafe(|| {
                DistributedDriver::new(config(workers)).run(&chain)
            }));
            assert!(run.is_err(), "{workers} workers: the panic must surface");
        }
    }

    #[test]
    fn a_worker_waiting_on_a_lagging_neighbour_is_woken_by_the_poison() {
        let chain = presets::smoke_chain(900, 2, None);
        assert!(chain.transfers.iter().any(|tr| tr.to_site.0 == 1));
        let config = config(2);
        let ctx = RunCtx::new(&config, &chain);
        let objects = chain.objects();
        let schedule = Schedule::new(&ctx);
        // Site 0 is taken by a worker that will never publish again, so
        // site 1 can only run as far as its inbound edge's lookahead.
        let lagging = schedule.lock().slots[0].take();
        std::thread::scope(|scope| {
            let waiter =
                scope.spawn(|| catch_unwind(AssertUnwindSafe(|| schedule.work(&objects))).is_err());
            // Wait until the waiter has parked site 1 at its bound.
            while {
                let board = schedule.lock();
                board.progress[1] == 0 || board.slots[1].is_none()
            } {
                std::thread::yield_now();
            }
            // The lagging worker dies mid-slice; its guard poisons.
            let died = catch_unwind(AssertUnwindSafe(|| {
                let _guard = PoisonOnPanic(&schedule);
                panic!("the lagging site's worker died mid-slice");
            }));
            assert!(died.is_err());
            assert!(
                waiter.join().expect("the waiter catches its own panic"),
                "the waiter must panic once poisoned, not block forever"
            );
        });
        assert!(schedule.lock().outcomes.is_empty());
        drop(lagging);
    }
}
