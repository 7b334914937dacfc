//! The deterministic virtual-time service executor.
//!
//! This is the executor behind every CI-gated claim: a single-threaded
//! discrete-event simulation over the arena, so a `ServiceConfig` plus
//! a seed reproduces the exact event sequence — and therefore the exact
//! p999, switch count, and footprint — on every run. (The threaded
//! executor over real [`reactive_native`] locks lives in
//! [`crate::native`]; it shares the arena and limiter but measures wall
//! time, so it demos rather than gates.)
//!
//! The memory discipline is the point of the design: an object at rest
//! is *only* its slot word, and so is an object that is held but has
//! nobody waiting: `HELD` in the slot word is the single source of
//! truth for "in flight". A side-table entry (the waiter queue; the
//! holder is not recorded anywhere but the pending release event) is
//! created when an arrival finds `HELD` set — the first waiter — and
//! dropped when a release finds nobody left to hand to. The slot word's
//! `SIDE` bit is set and cleared with the entry. An uncontended request
//! therefore reads and writes its slot word and pushes its release, and
//! that release sees `SIDE` clear, clears `HELD` and is done, without
//! touching the side table — so 10⁶ objects with a 10³-object working
//! set cost 4 MB of 4-byte slot words plus kilobytes of side state, not
//! 10⁶ lock structures. This executor reads and writes only the word's
//! flat fields (`HELD`, `MODE`, the streaks, `SIDE`); the narrow
//! in-flight and index fields are the native executor's.
//!
//! The event loop is the simulator's calendar queue
//! ([`alewife_sim::EventQueue`]) with a 4096 ns window: pending events
//! spread over ≈ 600 ns of virtual time, so a push and a pop are O(1)
//! bucket operations, and only long think times and quiet open-loop
//! spells take its overflow heap. Each tenant's next object is drawn
//! one arrival ahead and its slot word prefetched
//! ([`ObjectArena::prefetch`]), so the load at the next arrival rarely
//! misses into the 4 MB arena. Both keep the history bit-exact: events
//! pop in the same `(time, seq)` order, and each tenant's private pick
//! stream is still consumed once per arrival, in handling order.
//!
//! Protocol cost model (virtual ns, loosely calibrated to the paper's
//! Alewife measurements scaled to a modern cache-coherent part):
//!
//! * test-and-set grant, uncontended: 15 ns — the cheap case TTS wins.
//! * test-and-set handoff under `w` waiters: 90 ns × `w` — every waiter
//!   re-fetches the invalidated line, so handoff degrades linearly
//!   (Fig. 4.6's melting slope).
//! * queue grant, empty: 28 ns — the queue's fixed overhead.
//! * queue handoff: 40 ns, flat — the whole reason to switch.
//! * protocol switch: 400 ns — drain + republish.
//!
//! TTS handoff picks the *newest* waiter (last-in wins the re-fetch
//! race more often than not on real hardware); the queue is FIFO. That
//! unfairness is what gives static TTS its long p999 tail under
//! contention, and the adaptive arena its headline.

use std::collections::{BTreeMap, VecDeque};

use alewife_sim::{EventEntry, EventQueue, WaitHistogram};

use crate::arena::{Footprint, ObjectArena};
use crate::limiter::{LimiterConfig, TokenBucket};
use crate::oracle::{self, Stampede, SwitchRecord};
use crate::slot;
use crate::workload::{think_time, Arrivals, Load, TenantConfig};

/// Protocol-selection regime for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArenaMode {
    /// Reactive: observe contention streaks per object and switch
    /// protocols through the per-shard limiter.
    Adaptive,
    /// Every object pinned to the TTS-like protocol.
    StaticTts,
    /// Every object pinned to the queue protocol.
    StaticQueue,
}

/// Full description of one service run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Objects in the arena.
    pub objects: u64,
    /// Shards (each with its own limiter and switch log).
    pub shards: u32,
    /// Master seed; every tenant generator derives its own stream.
    pub seed: u64,
    /// Virtual-time horizon: no arrivals are generated at or after
    /// this time (in-flight requests drain past it).
    pub horizon_ns: u64,
    /// Per-shard switch limiter; `None` disables throttling (the
    /// stampede scenario's control arm).
    pub limiter: Option<LimiterConfig>,
    /// Protocol-selection regime.
    pub mode: ArenaMode,
    /// The tenants driving load.
    pub tenants: Vec<TenantConfig>,
    /// Wait-histogram reservoir capacity (samples kept for
    /// percentiles); scaled down in `--quick` runs.
    pub reservoir: usize,
}

impl ServiceConfig {
    /// A config with the standard knob defaults; callers fill in
    /// tenants.
    pub fn new(objects: u64, shards: u32, seed: u64) -> Self {
        ServiceConfig {
            objects,
            shards,
            seed,
            horizon_ns: 2_000_000,
            limiter: Some(LimiterConfig::default()),
            mode: ArenaMode::Adaptive,
            tenants: Vec::new(),
            reservoir: 65_536,
        }
    }
}

/// Contended-grant streak at which an adaptive TTS object asks to
/// switch to the queue protocol.
const SWITCH_UP_STREAK: u8 = 3;
/// Calm-grant streak at which an adaptive queue object asks to switch
/// back to TTS. Asymmetric (higher) on purpose: switching down is
/// cheap to regret, so demand longer evidence — the hysteresis lesson
/// of the paper's §5 threshold tuning.
const SWITCH_DOWN_STREAK: u8 = 12;

const COST_TTS_UNCONTENDED: u64 = 15;
const COST_TTS_HANDOFF_PER_WAITER: u64 = 90;
const COST_QUEUE_EMPTY: u64 = 28;
const COST_QUEUE_HANDOFF: u64 = 40;
const COST_SWITCH: u64 = 400;

/// Where a request came from, so completions can close the loop.
#[derive(Clone, Copy, Debug)]
enum Source {
    Open,
    Closed { tenant: u32, client: u32 },
}

/// A request waiting for an object.
#[derive(Clone, Copy, Debug)]
struct Waiter {
    arrived_ns: u64,
    /// Absolute abort deadline (u64::MAX when none).
    deadline_ns: u64,
    hold_ns: u64,
    source: Source,
}

/// Side state for one contended object; exists from the first waiter's
/// arrival until a release finds the queue empty.
#[derive(Debug, Default)]
struct Active {
    waiters: VecDeque<Waiter>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// An open-loop tenant's next generated arrival.
    OpenArrival { tenant: u32 },
    /// A closed-loop client issues its next request.
    ClosedArrival { tenant: u32, client: u32 },
    /// The current holder of `object` releases it.
    Release { object: u64 },
}

/// Width of the event queue's window in virtual ns. The loop holds
/// ≈ 34 pending events spread over ≈ 600 ns (a hold plus think time),
/// so nearly every push lands in a bucket; a long think time or an
/// open tenant's quiet spell rides the overflow heap.
const WINDOW_NS: usize = 4096;

/// Everything a run measured, for the bench harness and scenarios.
#[derive(Debug)]
pub struct ServiceReport {
    /// Objects hosted.
    pub objects: u64,
    /// Grants completed.
    pub acquires: u64,
    /// Requests aborted at their deadline.
    pub aborts: u64,
    /// Committed protocol switches.
    pub switches: u64,
    /// Switch requests denied by the limiter.
    pub switch_denials: u64,
    /// Virtual time of the last processed event.
    pub end_ns: u64,
    /// Acquire-latency histogram (arrival → grant, ns).
    pub wait: WaitHistogram,
    /// Measured memory footprint at the run's high-water mark.
    pub footprint: Footprint,
    /// Full per-shard switch log for the oracle.
    pub switch_log: Vec<SwitchRecord>,
    /// Limiter in force, if any.
    pub limiter: Option<LimiterConfig>,
    /// High-water mark of concurrently in-flight objects.
    pub max_active: u64,
}

impl ServiceReport {
    /// Median acquire latency (ns).
    pub fn p50_ns(&self) -> u64 {
        self.wait.p50()
    }

    /// 99th-percentile acquire latency (ns).
    pub fn p99_ns(&self) -> u64 {
        self.wait.p99()
    }

    /// 99.9th-percentile acquire latency (ns).
    pub fn p999_ns(&self) -> u64 {
        self.wait.p999()
    }

    /// Committed switches per second of virtual time.
    pub fn switches_per_sec(&self) -> f64 {
        if self.end_ns == 0 {
            return 0.0;
        }
        self.switches as f64 * 1e9 / self.end_ns as f64
    }

    /// Fraction of requests that aborted at their deadline.
    pub fn abort_rate(&self) -> f64 {
        let total = self.acquires + self.aborts;
        if total == 0 {
            return 0.0;
        }
        self.aborts as f64 / total as f64
    }

    /// Run the no-stampede oracle over this run's switch log (empty =
    /// clean; meaningful only when a limiter was configured).
    pub fn stampedes(&self) -> Vec<Stampede> {
        match self.limiter {
            // The executor's `TokenBucket` ran `cfg`, so its period is
            // positive and the oracle accepts it.
            Some(cfg) => oracle::check_no_stampede(&self.switch_log, cfg)
                .expect("a limiter the executor ran has a positive period"),
            None => Vec::new(),
        }
    }
}

/// Per-shard mutable state for the simulation.
struct ShardState {
    limiter: Option<TokenBucket>,
}

/// The discrete-event executor. Build with a [`ServiceConfig`], call
/// [`run`](ServiceSim::run), read the [`ServiceReport`].
pub struct ServiceSim {
    cfg: ServiceConfig,
    arena: ObjectArena,
    shards: Vec<ShardState>,
    events: EventQueue<Ev, WINDOW_NS>,
    seq: u64,
    now: u64,
    /// Side table: only objects that have had a waiter since they were
    /// last idle appear here.
    active: BTreeMap<u64, Active>,
    /// Objects whose slot word has `HELD` set.
    held: u64,
    /// Side-table entries ever created; zero for a run that never
    /// contends (read by the unit tests).
    side_entries_created: u64,
    /// Per-tenant open-loop arrival generators (index = tenant id).
    arrivals: Vec<Option<Arrivals>>,
    /// Per-tenant object-pick and think-time RNG streams.
    picks: Vec<crate::workload::Zipf>,
    /// Per-tenant next object pick (an offset into the tenant's range),
    /// drawn one arrival ahead so its slot word can be prefetched.
    next_pick: Vec<u64>,
    think_rng: Vec<u64>,
    wait: WaitHistogram,
    acquires: u64,
    aborts: u64,
    switches: u64,
    switch_denials: u64,
    switch_log: Vec<SwitchRecord>,
    max_active: u64,
}

impl ServiceSim {
    /// Build the arena and seed every tenant's generator streams.
    ///
    /// # Panics
    /// If the config has no tenants, a tenant's object range falls
    /// outside the arena, or the reservoir holds no sample.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(
            !cfg.tenants.is_empty(),
            "service run needs at least one tenant"
        );
        assert!(cfg.reservoir > 0, "wait-histogram reservoir of 0 samples");
        for t in &cfg.tenants {
            assert!(
                t.first_object + t.objects <= cfg.objects,
                "tenant range [{}, {}) exceeds arena of {}",
                t.first_object,
                t.first_object + t.objects,
                cfg.objects
            );
        }
        let arena = ObjectArena::new(cfg.objects, cfg.shards);
        if cfg.mode == ArenaMode::StaticQueue {
            for obj in 0..cfg.objects {
                arena.store(obj, slot::with_mode(0, slot::MODE_QUEUE));
            }
        }
        let shards = (0..cfg.shards)
            .map(|_| ShardState {
                limiter: cfg.limiter.map(TokenBucket::new),
            })
            .collect();
        let mut arrivals = Vec::new();
        let mut picks = Vec::new();
        let mut think_rng = Vec::new();
        for (i, t) in cfg.tenants.iter().enumerate() {
            // Distinct derived streams per tenant and per purpose, so
            // adding a tenant never perturbs another's draws.
            let base = cfg.seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
            arrivals.push(match t.load {
                Load::Open { curve } => Some(Arrivals::new(curve, base ^ 1)),
                Load::Closed { .. } => None,
            });
            picks.push(crate::workload::Zipf::new(t.objects, t.theta, base ^ 2));
            think_rng.push(base ^ 3);
        }
        let next_pick = picks.iter_mut().map(|z| z.sample()).collect();
        let seed = cfg.seed;
        ServiceSim {
            arena,
            shards,
            events: EventQueue::new(),
            seq: 0,
            now: 0,
            active: BTreeMap::new(),
            held: 0,
            side_entries_created: 0,
            arrivals,
            picks,
            next_pick,
            think_rng,
            wait: WaitHistogram::with_sampling(cfg.reservoir, seed ^ 0x5EED),
            acquires: 0,
            aborts: 0,
            switches: 0,
            switch_denials: 0,
            switch_log: Vec::new(),
            max_active: 0,
            cfg,
        }
    }

    fn push(&mut self, time: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(EventEntry {
            time,
            seq: self.seq,
            ev,
        });
    }

    /// Schedule a tenant's next open-loop arrival, if one lands before
    /// the horizon.
    fn schedule_open(&mut self, tenant: u32) {
        if let Some(gen) = self.arrivals[tenant as usize].as_mut() {
            if let Some(t) = gen.next_arrival() {
                if t < self.cfg.horizon_ns {
                    self.push(t, Ev::OpenArrival { tenant });
                }
            }
        }
    }

    /// Schedule a closed-loop client's next request after think time.
    fn schedule_closed(&mut self, tenant: u32, client: u32, after_ns: u64) {
        let Load::Closed { think_ns, .. } = self.cfg.tenants[tenant as usize].load else {
            return;
        };
        let think = think_time(think_ns, &mut self.think_rng[tenant as usize]);
        let t = after_ns.saturating_add(think);
        if t < self.cfg.horizon_ns {
            self.push(t, Ev::ClosedArrival { tenant, client });
        }
    }

    /// One tenant request hitting the arena at `self.now`.
    fn handle_arrival(&mut self, tenant: u32, source: Source) {
        let i = tenant as usize;
        let t = &self.cfg.tenants[i];
        // Take the pick drawn at the tenant's previous arrival and draw
        // the next one now: each tenant's stream is private and still
        // consumed once per arrival, in handling order, while the next
        // object's slot word has the time until then to reach cache.
        let object = t.first_object + self.next_pick[i];
        self.next_pick[i] = self.picks[i].sample();
        self.arena.prefetch(t.first_object + self.next_pick[i]);
        let deadline = if t.deadline_ns == 0 {
            u64::MAX
        } else {
            self.now.saturating_add(t.deadline_ns)
        };
        let w = Waiter {
            arrived_ns: self.now,
            deadline_ns: deadline,
            hold_ns: t.hold_ns,
            source,
        };
        let word = self.arena.load(object);
        if word & slot::HELD == 0 {
            // Uncontended grant: pay the mode's empty-acquire cost.
            let cost = match slot::mode(word) {
                slot::MODE_QUEUE => COST_QUEUE_EMPTY,
                _ => COST_TTS_UNCONTENDED,
            };
            self.held += 1;
            self.grant(object, w, cost, 0);
        } else {
            // The first waiter since the object was last idle brings
            // the side entry into being.
            if word & slot::SIDE == 0 {
                self.arena.store(object, word | slot::SIDE);
                self.side_entries_created += 1;
            }
            self.active.entry(object).or_default().waiters.push_back(w);
        }
        self.max_active = self.max_active.max(self.held);
    }

    /// Commit a grant: adaptive observation (maybe a switch), latency
    /// accounting, release scheduling, HELD bookkeeping.
    fn grant(&mut self, object: u64, w: Waiter, base_cost: u64, waiters_seen: u64) {
        let mut cost = base_cost;
        if self.cfg.mode == ArenaMode::Adaptive {
            cost += self.observe_and_maybe_switch(object, waiters_seen > 0);
        }
        let granted_at = self.now + cost;
        self.wait.record(granted_at - w.arrived_ns);
        self.acquires += 1;
        let word = self.arena.load(object);
        self.arena.store(object, word | slot::HELD);
        self.push(granted_at + w.hold_ns, Ev::Release { object });
        if let Source::Closed { tenant, client } = w.source {
            self.schedule_closed(tenant, client, granted_at + w.hold_ns);
        }
    }

    /// Update the slot streaks for one grant; if a switch threshold is
    /// crossed, ask the shard limiter and either commit (returning the
    /// switch cost) or clear streaks and back off.
    fn observe_and_maybe_switch(&mut self, object: u64, contended: bool) -> u64 {
        let word = slot::observe(self.arena.load(object), contended);
        self.arena.store(object, word);
        let cur = slot::mode(word);
        let want = if cur == slot::MODE_TTS && slot::contended_streak(word) >= SWITCH_UP_STREAK {
            Some(slot::MODE_QUEUE)
        } else if cur == slot::MODE_QUEUE && slot::calm_streak(word) >= SWITCH_DOWN_STREAK {
            Some(slot::MODE_TTS)
        } else {
            None
        };
        let Some(to) = want else { return 0 };
        let shard = self.arena.shard_of(object);
        let allowed = match self.shards[shard as usize].limiter.as_mut() {
            Some(bucket) => bucket.try_acquire(self.now),
            None => true,
        };
        if allowed {
            self.arena.store(object, slot::with_mode(word, to));
            self.switches += 1;
            self.switch_log.push(SwitchRecord {
                time_ns: self.now,
                shard,
                object,
                from: cur,
                to,
            });
            COST_SWITCH
        } else {
            // Denied: clear the evidence so the object re-earns its
            // switch instead of stampeding on the next grant.
            self.arena.store(object, slot::clear_streaks(word));
            self.switch_denials += 1;
            0
        }
    }

    /// The holder of `object` leaves; hand off to a waiter or go idle.
    fn handle_release(&mut self, object: u64) {
        let word = self.arena.load(object);
        self.arena.store(object, word & !slot::HELD);
        if word & slot::SIDE == 0 {
            // Nobody waited during this passage: the slot word was the
            // whole lock.
            self.held -= 1;
            return;
        }
        // Abort every waiter whose deadline already passed (the PR 7
        // abortable-acquire path: they have left the queue by now).
        let now = self.now;
        let (next, aborted) = {
            let entry = self
                .active
                .get_mut(&object)
                .expect("`SIDE` set without a side entry");
            let mut aborted = Vec::new();
            entry.waiters.retain(|w| {
                if w.deadline_ns <= now {
                    aborted.push(*w);
                    false
                } else {
                    true
                }
            });
            // Pop handoff candidates until one can still meet its
            // deadline at the grant completion time `now + cost` (not
            // merely at `now`); the TTS handoff cost shrinks as the
            // herd thins, so it is recomputed per candidate. An
            // adaptive switch committed inside `grant` may still add
            // its surcharge past the deadline — that residual keeps
            // admission-time semantics, bounded by `COST_SWITCH`.
            let next = loop {
                let waiters = entry.waiters.len() as u64;
                let cand = match slot::mode(word) {
                    // Queue: FIFO handoff, flat cost.
                    slot::MODE_QUEUE => entry.waiters.pop_front(),
                    // TTS: the newest waiter usually wins the re-fetch
                    // race; cost scales with the herd re-fetching the
                    // line.
                    _ => entry.waiters.pop_back(),
                };
                let Some(w) = cand else { break None };
                let cost = match slot::mode(word) {
                    slot::MODE_QUEUE => COST_QUEUE_HANDOFF,
                    _ => COST_TTS_HANDOFF_PER_WAITER.saturating_mul(waiters),
                };
                if w.deadline_ns <= now.saturating_add(cost) {
                    aborted.push(w);
                    continue;
                }
                break Some((w, cost, waiters - 1));
            };
            (next, aborted)
        };
        self.aborts += aborted.len() as u64;
        for w in aborted {
            if let Source::Closed { tenant, client } = w.source {
                self.schedule_closed(tenant, client, now);
            }
        }
        match next {
            Some((w, cost, waiters_seen)) => self.grant(object, w, cost, waiters_seen),
            None => {
                // Last one out: drop the side entry so the object is
                // back to slot-word-only residency.
                self.active.remove(&object);
                self.arena.store(object, word & !(slot::HELD | slot::SIDE));
                self.held -= 1;
            }
        }
    }

    /// Seed every tenant's first arrivals, then process events until
    /// the queue is empty.
    fn drain(&mut self) {
        for tenant in 0..self.cfg.tenants.len() as u32 {
            match self.cfg.tenants[tenant as usize].load {
                Load::Open { .. } => self.schedule_open(tenant),
                Load::Closed { clients, .. } => {
                    for client in 0..clients {
                        self.schedule_closed(tenant, client, 0);
                    }
                }
            }
        }
        while let Some(e) = self.events.pop() {
            self.now = e.time;
            match e.ev {
                Ev::OpenArrival { tenant } => {
                    self.schedule_open(tenant);
                    self.handle_arrival(tenant, Source::Open);
                }
                Ev::ClosedArrival { tenant, client } => {
                    self.handle_arrival(tenant, Source::Closed { tenant, client });
                }
                Ev::Release { object } => self.handle_release(object),
            }
            debug_assert!(
                self.active
                    .keys()
                    .all(|&o| self.arena.load(o) & (slot::HELD | slot::SIDE)
                        == slot::HELD | slot::SIDE),
                "side entry for an object that is not held or not marked"
            );
        }
        debug_assert!(self.active.is_empty(), "side entries outlived the run");
        debug_assert_eq!(self.held, 0, "held counter out of step");
        debug_assert!(
            (0..self.cfg.objects).all(|o| self.arena.load(o) & (slot::HELD | slot::SIDE) == 0),
            "an object is still held or marked after the last event"
        );
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> ServiceReport {
        self.drain();
        let footprint = self.measure_footprint();
        ServiceReport {
            objects: self.cfg.objects,
            acquires: self.acquires,
            aborts: self.aborts,
            switches: self.switches,
            switch_denials: self.switch_denials,
            end_ns: self.now,
            wait: self.wait,
            footprint,
            switch_log: self.switch_log,
            limiter: self.cfg.limiter,
            max_active: self.max_active,
        }
    }

    /// Account the run's memory: the slot array, fixed per-shard state,
    /// and the high-water lazily allocated side state. Every object in
    /// flight at the high-water mark is charged a side entry with four
    /// waiters whether or not anyone waited on it, so `hot_bytes` is an
    /// upper bound on what the side table held.
    fn measure_footprint(&self) -> Footprint {
        let shard_fixed = std::mem::size_of::<ShardState>() as u64;
        let active_entry = (std::mem::size_of::<u64>()
            + std::mem::size_of::<Active>()
            + 4 * std::mem::size_of::<Waiter>()) as u64;
        Footprint {
            objects: self.cfg.objects,
            slot_bytes: self.arena.resident_bytes(),
            shard_bytes: u64::from(self.cfg.shards) * shard_fixed,
            hot_bytes: self.max_active * active_entry
                + self.switch_log.len() as u64 * std::mem::size_of::<SwitchRecord>() as u64,
            hot_objects: self.max_active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed_tenant(objects: u64, clients: u32, deadline_ns: u64) -> TenantConfig {
        TenantConfig {
            first_object: 0,
            objects,
            theta: 0.9,
            load: Load::Closed {
                clients,
                think_ns: 100,
            },
            hold_ns: 300,
            deadline_ns,
        }
    }

    #[test]
    fn uncontended_requests_never_touch_the_side_table() {
        // One client cannot collide with itself: every request finds
        // HELD clear, so the whole run lives in the slot words.
        let mut cfg = ServiceConfig::new(100_000, 8, 7);
        cfg.horizon_ns = 1_000_000;
        cfg.tenants.push(closed_tenant(100_000, 1, 0));
        let mut sim = ServiceSim::new(cfg);
        sim.drain();
        assert!(sim.acquires > 1_000, "workload too small to mean anything");
        assert_eq!(sim.side_entries_created, 0);
        assert_eq!(sim.max_active, 1);
    }

    #[test]
    fn contended_objects_get_side_entries_and_give_them_back() {
        // 32 clients on 4 objects with a deadline shorter than the
        // queue: waiters, handoffs and aborts all happen.
        let mut cfg = ServiceConfig::new(64, 4, 7);
        cfg.horizon_ns = 200_000;
        cfg.tenants.push(closed_tenant(4, 32, 2_000));
        let mut sim = ServiceSim::new(cfg);
        sim.drain();
        assert!(sim.aborts > 0, "deadline never bit");
        assert!(sim.side_entries_created > 0);
        assert!(
            sim.side_entries_created < sim.acquires,
            "a side entry per grant is the old always-insert path"
        );
        assert!(sim.active.is_empty());
        assert_eq!(sim.held, 0);
    }

    #[test]
    #[should_panic(expected = "reservoir of 0 samples")]
    fn zero_reservoir_is_rejected() {
        let mut cfg = ServiceConfig::new(64, 4, 7);
        cfg.tenants.push(closed_tenant(4, 1, 0));
        cfg.reservoir = 0;
        ServiceSim::new(cfg);
    }
}
