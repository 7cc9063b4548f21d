//! Who takes a busy shard next.
//!
//! Every request is served by the thread that sent it. A caller that finds
//! its shard free and nobody waiting takes the shard at once; one that finds
//! it busy joins the shard's `arrived` list and parks. Whoever releases the
//! shard files the arrivals into per-tenant queues and hands the shard to
//! the next waiter in deficit-round-robin order, so a thousand-client swarm
//! from one team cannot starve another team's two-client session.
//!
//! That decision is one state machine, [`Admission`], with three steps —
//! [`arrive`](Admission::arrive), [`release`](Admission::release) and
//! [`close`](Admission::close) — and no locks, threads or clocks of its
//! own. It is generic over what a waiter is: the shard lock in `mod.rs`
//! keeps parked threads in it, and the exhaustive check below keeps thread
//! indices of a model, so the check explores the shipped steps and not a
//! copy of them.

use super::TenantStats;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What a caller's arrival decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Arrival {
    /// The shard was free and nobody waited: the caller holds it now.
    Enter,
    /// The shard is busy: the caller's waiter joined `arrived`, and it
    /// holds the shard once a release hands it over.
    Wait,
    /// The shard is closed; the caller is not admitted.
    Closed,
}

/// Admission state of one shard. Invariant: a shard that is not `busy`
/// has nobody waiting, because a release hands the shard on while anyone
/// does.
#[derive(Clone)]
pub(super) struct Admission<W> {
    /// Someone holds the shard (or has been handed it).
    busy: bool,
    /// Callers that found the shard busy and are not yet classified.
    arrived: Vec<W>,
    /// Classified waiters, per tenant.
    queues: DrrQueues<W>,
    /// Later arrivals are refused; waiters already here are still served.
    closed: bool,
    /// A closer waiting for the shard to go idle.
    closer: Option<W>,
}

impl<W> Admission<W> {
    /// A free, open shard whose tenants take `quantum` admissions a turn.
    pub(super) fn new(quantum: u64) -> Self {
        Admission {
            busy: false,
            arrived: Vec::new(),
            queues: DrrQueues::new(quantum),
            closed: false,
            closer: None,
        }
    }

    /// A caller arrives. `waiter` is called only when the caller must wait,
    /// so the free shard's path builds nothing.
    pub(super) fn arrive(&mut self, waiter: impl FnOnce() -> W) -> Arrival {
        if self.closed {
            return Arrival::Closed;
        }
        if !self.busy {
            self.busy = true;
            return Arrival::Enter;
        }
        self.arrived.push(waiter());
        Arrival::Wait
    }

    /// The holder leaves. `classify` names each arrival's tenant (the
    /// releaser still holds the shard's table to read it off). Returns who
    /// to wake: the waiter the shard is handed to, which holds it from now
    /// on, or, when nobody waits, the closer waiting for the shard to go
    /// idle.
    pub(super) fn release(
        &mut self,
        mut classify: impl FnMut(&W) -> (String, Arc<TenantStats>),
    ) -> Option<W> {
        for waiter in self.arrived.drain(..) {
            let (tenant, stats) = classify(&waiter);
            self.queues.enqueue(tenant, stats, waiter);
        }
        let next = self.queues.pop();
        if next.is_none() {
            self.busy = false;
            return self.closer.take();
        }
        next
    }

    /// Close the shard. Returns `true` if it is idle now; otherwise the
    /// closer's waiter is kept, and the release that leaves the shard idle
    /// returns it. One closer at a time.
    pub(super) fn close(&mut self, closer: impl FnOnce() -> W) -> bool {
        self.closed = true;
        if !self.busy {
            return true;
        }
        debug_assert!(self.closer.is_none(), "one closer at a time");
        self.closer = Some(closer());
        false
    }

    /// Callers waiting for the shard, classified or not.
    pub(super) fn waiting(&self) -> usize {
        self.arrived.len() + self.queues.pending
    }

    #[cfg(test)]
    pub(super) fn is_closed(&self) -> bool {
        self.closed
    }
}

/// One tenant's waiters on a shard, with the accounting cell their
/// `queued` count lives in.
#[derive(Clone)]
struct TenantQueue<W> {
    waiters: VecDeque<W>,
    stats: Arc<TenantStats>,
}

/// Per-tenant FIFO queues served in deficit-round-robin order: the tenant
/// at the head of the ring takes up to `quantum` admissions, then the turn
/// passes to the next tenant with waiters. A turn that empties its queue
/// ends there (classic DRR: unused credit is forfeit). Every waiter costs
/// one admission, so no deficit carries over between turns. Invariant: a
/// tenant is in `ring` iff it has a queue, and a queue is never empty.
#[derive(Clone)]
struct DrrQueues<W> {
    quantum: u64,
    queues: HashMap<String, TenantQueue<W>>,
    ring: VecDeque<String>,
    /// Admissions left in the turn of the tenant at the head of `ring`;
    /// zero when its turn has not started.
    credit: u64,
    pending: usize,
}

impl<W> DrrQueues<W> {
    fn new(quantum: u64) -> Self {
        DrrQueues {
            quantum,
            queues: HashMap::new(),
            ring: VecDeque::new(),
            credit: 0,
            pending: 0,
        }
    }

    fn enqueue(&mut self, tenant: String, stats: Arc<TenantStats>, waiter: W) {
        stats.queued.fetch_add(1, Ordering::Relaxed);
        match self.queues.get_mut(&tenant) {
            Some(q) => q.waiters.push_back(waiter),
            None => {
                self.ring.push_back(tenant.clone());
                let waiters = VecDeque::from([waiter]);
                self.queues.insert(tenant, TenantQueue { waiters, stats });
            }
        }
        self.pending += 1;
    }

    /// The next waiter in DRR order; `None` when nobody waits.
    fn pop(&mut self) -> Option<W> {
        let tenant = self.ring.front()?;
        let q = self
            .queues
            .get_mut(tenant)
            .expect("ring tenants have a queue");
        let waiter = q.waiters.pop_front().expect("queues are never empty");
        q.stats.queued.fetch_sub(1, Ordering::Relaxed);
        let emptied = q.waiters.is_empty();
        self.pending -= 1;
        if self.credit == 0 {
            self.credit = self.quantum;
        }
        self.credit -= 1;
        if emptied {
            let tenant = self.ring.pop_front().expect("head tenant");
            self.queues.remove(&tenant);
            self.credit = 0;
        } else if self.credit == 0 {
            self.ring.rotate_left(1);
        }
        Some(waiter)
    }
}

#[cfg(test)]
mod tests {
    //! Exhaustive check of the admission steps: every interleaving of
    //! three requesters (two tenants, one or two requests each) and one
    //! stopper, explored depth-first over the shipped [`Admission`] with
    //! each distinct state visited once.

    use super::*;
    use crate::server::{TenantRegistry, DRR_QUANTUM};
    use std::collections::HashSet;

    const TENANTS: [&str; 2] = ["a", "b"];
    const REQUESTERS: usize = 3;
    /// The stopper's waiter id (requesters are `0..REQUESTERS`).
    const STOPPER: usize = REQUESTERS;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Pc {
        Ready,
        Waiting,
        Holding,
        Done,
    }

    #[derive(Clone, Copy, Debug)]
    struct Requester {
        tenant: usize,
        /// Requests not yet served or refused.
        left: u8,
        pc: Pc,
        /// While waiting: admissions of each tenant since it arrived.
        since: [u8; 2],
    }

    #[derive(Clone)]
    struct World {
        adm: Admission<usize>,
        req: [Requester; REQUESTERS],
        stopper: Pc,
    }

    impl World {
        /// Who can take a step: a ready or holding requester, a stopper
        /// that has not closed yet. Waiters move only when granted.
        fn enabled(&self) -> Vec<usize> {
            let mut who: Vec<usize> = (0..REQUESTERS)
                .filter(|&i| matches!(self.req[i].pc, Pc::Ready | Pc::Holding))
                .collect();
            if self.stopper == Pc::Ready {
                who.push(STOPPER);
            }
            who
        }

        /// Everything that tells two states apart, in a canonical order.
        fn key(&self) -> Vec<u8> {
            let a = &self.adm;
            let mut k = vec![
                a.busy as u8,
                a.closed as u8,
                a.closer.is_some() as u8,
                a.queues.credit as u8,
            ];
            k.extend(a.arrived.iter().map(|&w| w as u8));
            k.push(u8::MAX);
            for tenant in &a.queues.ring {
                k.push(tenant.as_bytes()[0]);
                k.extend(a.queues.queues[tenant].waiters.iter().map(|&w| w as u8));
                k.push(u8::MAX);
            }
            for r in &self.req {
                k.extend([r.left, r.pc as u8, r.since[0], r.since[1]]);
            }
            k.push(self.stopper as u8);
            k
        }

        fn finish(&mut self, i: usize) {
            let r = &mut self.req[i];
            r.left -= 1;
            r.pc = if r.left == 0 { Pc::Done } else { Pc::Ready };
        }

        /// Requester `i` takes the shard, checking the DRR bound if it
        /// waited: with `own` admissions of its own tenant ahead of it
        /// (FIFO within a tenant), any other tenant may have taken at most
        /// `quantum` admissions per turn its own tenant needed.
        fn admit(&mut self, i: usize, quantum: u64) -> Result<(), String> {
            let t = self.req[i].tenant;
            if self.req[i].pc == Pc::Waiting {
                let since = self.req[i].since;
                let (own, other) = (u64::from(since[t]), u64::from(since[1 - t]));
                let bound = quantum * (own / quantum + 1);
                if other > bound {
                    return Err(format!(
                        "requester {i} waited through {other} admissions of the other \
                         tenant behind {own} of its own (bound {bound})"
                    ));
                }
            }
            self.req[i].pc = Pc::Holding;
            self.req[i].since = [0, 0];
            for r in self.req.iter_mut().filter(|r| r.pc == Pc::Waiting) {
                r.since[t] += 1;
            }
            Ok(())
        }

        /// One step of thread `who`, then the invariants every state keeps.
        fn step(
            mut self,
            who: usize,
            quantum: u64,
            registry: &TenantRegistry,
        ) -> Result<World, String> {
            if who == STOPPER {
                self.stopper = if self.adm.close(|| STOPPER) {
                    Pc::Done
                } else {
                    Pc::Waiting
                };
            } else {
                match self.req[who].pc {
                    Pc::Ready => match self.adm.arrive(|| who) {
                        Arrival::Enter => self.admit(who, quantum)?,
                        Arrival::Wait => self.req[who].pc = Pc::Waiting,
                        Arrival::Closed => self.finish(who),
                    },
                    Pc::Holding => {
                        self.finish(who);
                        let tenant = self.req.map(|r| r.tenant);
                        let next = self.adm.release(|&w| {
                            let name = TENANTS[tenant[w]];
                            (name.to_string(), registry.stats(name))
                        });
                        match next {
                            None => {}
                            Some(STOPPER) if self.stopper == Pc::Waiting => self.stopper = Pc::Done,
                            Some(w) if w < STOPPER && self.req[w].pc == Pc::Waiting => {
                                self.admit(w, quantum)?
                            }
                            Some(w) => return Err(format!("woke {w}, which is not waiting")),
                        }
                    }
                    pc => unreachable!("a {pc:?} requester does not step"),
                }
            }
            let holders = self.req.iter().filter(|r| r.pc == Pc::Holding).count();
            if holders > 1 {
                return Err(format!("{holders} holders at once"));
            }
            if (holders == 1) != self.adm.busy {
                return Err(format!("busy is {} with {holders} holders", self.adm.busy));
            }
            let waiting = self.req.iter().filter(|r| r.pc == Pc::Waiting).count();
            if self.adm.waiting() != waiting {
                return Err(format!(
                    "the gauge reads {} with {waiting} waiters",
                    self.adm.waiting()
                ));
            }
            if self.stopper == Pc::Done && (self.adm.busy || !self.adm.closed) {
                return Err("the stopper returned before the shard was closed and idle".into());
            }
            Ok(self)
        }
    }

    /// Visit every state reachable from `start`; `Err` names the first
    /// broken invariant and the schedule that broke it.
    fn explore(
        start: World,
        quantum: u64,
        registry: &TenantRegistry,
        seen: &mut HashSet<Vec<u8>>,
    ) -> Result<(), String> {
        let mut stack = vec![(start, Vec::new())];
        while let Some((world, schedule)) = stack.pop() {
            if !seen.insert(world.key()) {
                continue;
            }
            let enabled = world.enabled();
            if enabled.is_empty() {
                let stranded = world.req.iter().any(|r| r.pc != Pc::Done);
                if stranded || world.stopper != Pc::Done {
                    return Err(format!("stranded after schedule {schedule:?}"));
                }
                continue;
            }
            for who in enabled {
                let mut next = schedule.clone();
                next.push(who);
                let stepped = world.clone().step(who, quantum, registry);
                stack.push((
                    stepped.map_err(|e| format!("{e}, schedule {next:?}"))?,
                    next,
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn every_interleaving_of_three_requesters_and_a_stopper_keeps_admission_safe_and_fair() {
        let registry = TenantRegistry::default();
        let mut states = 0usize;
        // Quanta 1 and 2 make the DRR bound bite within six requests;
        // `DRR_QUANTUM` is what ships.
        for quantum in [1, 2, DRR_QUANTUM] {
            for tenants in 0..1u8 << REQUESTERS {
                for counts in 0..1u8 << REQUESTERS {
                    let req = std::array::from_fn(|i| Requester {
                        tenant: usize::from(tenants >> i & 1),
                        left: 1 + (counts >> i & 1),
                        pc: Pc::Ready,
                        since: [0, 0],
                    });
                    let start = World {
                        adm: Admission::new(quantum),
                        req,
                        stopper: Pc::Ready,
                    };
                    let mut seen = HashSet::new();
                    if let Err(e) = explore(start, quantum, &registry, &mut seen) {
                        panic!(
                            "quantum {quantum}, tenants {tenants:03b}, counts {counts:03b}: {e}"
                        );
                    }
                    states += seen.len();
                }
            }
        }
        println!("admission check: {states} states explored");
        assert!(
            states > 10_000,
            "only {states} states: the model is not exploring"
        );
    }
}
