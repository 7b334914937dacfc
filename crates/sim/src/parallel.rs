//! Conservative parallel discrete-event simulation: the machine sharded
//! by node.
//!
//! A [`Cluster`] partitions a large simulated machine into `workers`
//! contiguous node ranges (*shards*). Each shard is a complete
//! [`Machine`] — its own calendar queue, directory, handler tables, and
//! thread runtime — so all PR-2 hot-path structure carries over
//! unchanged. Shards interact only through **cross-shard active
//! messages** posted to a [`RemoteMail`] and routed by the scheduler.
//!
//! ## The conservative scheme
//!
//! Cross-shard delivery latency is bounded below by the *lookahead*
//!
//! ```text
//! L = msg_send + max(min cross-shard mesh latency, epoch_window)
//! ```
//!
//! where the mesh latency comes from the global topology (the smallest
//! square mesh over all nodes, the same `net.rs` rule every shard uses
//! internally) minimized over node pairs in different shards. Execution
//! proceeds in epochs: with `m` the minimum next-event time over all
//! shards, every event with `time < m + L` is *safe* — no message
//! posted at or after `m` can be delivered before `m + L` — so each
//! shard runs its local queue up to the horizon `m + L`, then all
//! shards exchange the messages posted during the epoch and the horizon
//! recomputes. This is the classic synchronization-window scheme of
//! conservative PDES with the lookahead derived from the mesh-hop
//! minimum latency.
//!
//! `epoch_window` (see [`ParallelConfig`]) trades cross-shard latency
//! fidelity for epoch length: raising it declares a larger minimum
//! cross-shard delivery latency, which admits proportionally more
//! events per epoch. Both execution modes honor the same declared
//! latency, so the trade is a *modeling* choice, never a divergence
//! between modes.
//!
//! ## Determinism and the two modes
//!
//! [`Cluster::run_serial`] executes the epoch algorithm on one thread —
//! shards in index order inside each epoch, messages routed in (sender
//! shard, post order) — and is bit-deterministic like the sequential
//! simulator. [`Cluster::run_parallel`] runs one OS thread per shard
//! with the *same* epoch structure: per-shard execution is sequential
//! and deterministic, message injection order is fixed by draining the
//! per-sender lanes in sender order, and horizon choices depend only on
//! exchanged next-event times — so the parallel run produces
//! **identical** [`Stats`] to the serial run regardless of thread
//! interleaving (asserted by `tests/parallel_conformance.rs`).
//!
//! ## The threaded epoch: one rendezvous
//!
//! A worker's epoch is publish → rendezvous → read `m` → drain → run →
//! flush. The serial reference computes `m` *after* injecting the
//! previous epoch's posts; a worker cannot see its peers' posts before
//! the rendezvous, but each sender knows what it flushed, so it
//! publishes `min(own next event, earliest deliver_at it flushed last
//! epoch)`. An injected message is an event at exactly its
//! `deliver_at`, so the minimum over shards is the serial `m` and the
//! epoch count matches too. A released worker may publish and flush for
//! epoch `e + 1` while a slow peer still reads epoch `e` — never more,
//! since it then waits for that peer — so the published slots and the
//! lanes exist twice, indexed by epoch parity.
//!
//! The rendezvous is the paper's two-phase waiting (Chapter 4) applied
//! to the simulator itself: a waiter polls the gate's generation word
//! for as long as its *own* last epoch took to execute — it never burns
//! more than it just usefully spent — and then parks. With more shards
//! than host cores a poller would only keep a peer off the CPU, so the
//! budget is zero there.
//!
//! A causality detector guards the conservative invariant: every
//! delivery is checked against the receiving shard's executed-to
//! watermark. Debug builds panic on a violation; release builds count
//! it in [`ClusterReport::causality_violations`] (the safe-horizon
//! proptest drives random topologies through both modes and asserts the
//! count stays zero).

use std::cell::RefCell;
use std::hint::spin_loop;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::machine::{Config, Machine};
use crate::msg::Port;
use crate::net;
use crate::stats::Stats;

/// Parallel-execution knobs for a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of shards — and, in [`Cluster::run_parallel`], worker
    /// threads. The serial mode shards the machine identically and
    /// executes the shards on one thread.
    pub workers: usize,
    /// Declared minimum cross-shard delivery latency in cycles (0 keeps
    /// the pure mesh-derived lookahead). Larger windows admit more
    /// events per epoch at the price of coarser cross-shard
    /// latency; both modes apply the same declared latency.
    pub epoch_window: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            epoch_window: 0,
        }
    }
}

/// A cross-shard active message in flight between two shards.
#[derive(Clone, Copy, Debug)]
struct RemoteMsg {
    /// Absolute delivery time (post time + declared latency).
    deliver_at: u64,
    /// Global sender node.
    from: usize,
    /// Global destination node.
    dest: usize,
    port: u32,
    args: [u64; 4],
}

/// Topology and pricing shared by every shard's [`RemoteMail`].
struct MailWorld {
    /// Global mesh coordinates for all nodes.
    coords: Vec<(u16, u16)>,
    cost: CostModel,
    epoch_window: u64,
}

/// A shard's outbox for cross-shard active messages. Cheap to clone;
/// workload futures and handlers capture it and post fire-and-forget
/// messages to nodes owned by other shards (a reply travels back as
/// another posted message from the destination's handler).
#[derive(Clone)]
pub struct RemoteMail {
    world: Arc<MailWorld>,
    /// This shard's global node range.
    base: usize,
    len: usize,
    buf: Rc<RefCell<Vec<RemoteMsg>>>,
}

impl RemoteMail {
    /// Post an active message from global node `from` (owned by this
    /// shard) to global node `dest` (owned by another shard), sent at
    /// virtual time `now` (the poster's current time, e.g.
    /// `cpu.now()` or `HandlerCtx::now`). Delivery is priced at
    /// `msg_send + max(mesh latency, epoch_window)` on the global
    /// topology.
    ///
    /// # Panics
    /// If `from` is outside this shard or `dest` is inside it (local
    /// communication goes through the shard machine, whose latencies
    /// may undercut the cross-shard lookahead).
    pub fn post(&self, now: u64, from: usize, dest: usize, port: Port, args: [u64; 4]) {
        assert!(
            from >= self.base && from < self.base + self.len,
            "RemoteMail::post: sender {from} not owned by this shard"
        );
        assert!(
            dest < self.world.coords.len(),
            "RemoteMail::post: destination {dest} out of range"
        );
        assert!(
            dest < self.base || dest >= self.base + self.len,
            "RemoteMail::post: {dest} is shard-local; use the machine's own messaging"
        );
        let w = &self.world;
        let hops = net::hops_between(w.coords[from], w.coords[dest]);
        let lat = net::latency_for_hops(&w.cost, hops).max(w.epoch_window);
        self.buf.borrow_mut().push(RemoteMsg {
            deliver_at: now + w.cost.msg_send + lat,
            from,
            dest,
            port: port.0,
            args,
        });
    }
}

/// The view of one shard handed to the setup closure: the shard-local
/// [`Machine`] plus the global/local node mapping and the cross-shard
/// mail.
pub struct ShardCtx<'a> {
    /// The shard-local machine (`shard_nodes` nodes, ids `0..len`).
    pub machine: &'a Machine,
    /// Shard index.
    pub shard: usize,
    /// First global node id owned by this shard.
    pub node_base: usize,
    /// Number of nodes in this shard.
    pub shard_nodes: usize,
    /// Total nodes across the cluster.
    pub total_nodes: usize,
    mail: RemoteMail,
}

impl ShardCtx<'_> {
    /// The shard's cross-shard outbox (clone it into futures/handlers).
    pub fn mail(&self) -> RemoteMail {
        self.mail.clone()
    }
}

/// The merged result of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Shard stats folded in shard order: scalars/counters/histograms
    /// via [`Stats::absorb`], per-node RMR vectors concatenated so they
    /// are indexed by *global* node id.
    pub stats: Stats,
    /// Maximum final virtual time over the shards.
    pub elapsed: u64,
    /// Epochs executed (in the threaded mode, one rendezvous each).
    pub epochs: u64,
    /// The lookahead `L` the horizons used (cycles).
    pub lookahead: u64,
    /// Cross-shard messages delivered.
    pub remote_msgs: u64,
    /// Unfinished tasks summed over shards (nonzero = deadlock).
    pub live_tasks: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Per-shard wall-clock seconds spent executing events (excludes
    /// waits at the epoch gate and draining).
    pub busy_secs: Vec<f64>,
    /// Sum over epochs of the *maximum* per-shard busy time — the
    /// critical path of the epoch schedule. `events / critical_path`
    /// is the aggregate event rate on a host with at least `workers`
    /// idle cores; meaningful in serial mode, where per-shard timing is
    /// not contaminated by core oversubscription.
    pub critical_path_secs: f64,
    /// The same critical path in *events*: sum over epochs of the
    /// maximum per-shard executed-event count. Deterministic and
    /// build-independent (unlike the wall-clock variant), so claims can
    /// gate on `stats.sim_events / critical_path_events` — the
    /// schedule's exposed parallelism. Measured by [`Cluster::run_serial`];
    /// the threaded mode reports 0 and defers to the serial reference.
    pub critical_path_events: u64,
    /// Deliveries that violated the safe-horizon invariant (always 0
    /// while the lookahead bound is sound; debug builds panic instead).
    pub causality_violations: u64,
}

impl ClusterReport {
    /// Total executor events over all shards.
    pub fn events(&self) -> u64 {
        self.stats.sim_events
    }
}

/// One shard's runtime while a cluster executes.
struct ShardRt {
    machine: Machine,
    mail: RemoteMail,
    /// Horizon watermark: every event up to and including this time has
    /// been executed (the causality detector's reference point).
    executed_to: u64,
    busy: Duration,
    delivered: u64,
    violations: u64,
}

impl ShardRt {
    /// Deliver one routed message into the shard queue, enforcing the
    /// safe-horizon invariant.
    fn inject(&mut self, m: &RemoteMsg, base: usize) {
        if m.deliver_at <= self.executed_to {
            debug_assert!(
                false,
                "causality violation: delivery at {} but shard executed through {}",
                m.deliver_at, self.executed_to
            );
            self.violations += 1;
        }
        self.delivered += 1;
        let local = m.dest - base;
        self.machine
            .inject_message(local, m.from, Port(m.port), m.args, m.deliver_at);
    }

    /// Take everything posted to the shard's outbox this epoch, in post
    /// order.
    fn take_outgoing(&self) -> Vec<RemoteMsg> {
        std::mem::take(&mut *self.mail.buf.borrow_mut())
    }
}

/// Set in [`EpochGate::state`] once a party has unwound instead of
/// arriving; the bits below it count releases.
const POISONED: u64 = 1 << 63;

/// The epoch rendezvous: a generation barrier whose waiters poll, then
/// park — the two-phase waiting of `reactive_native::two_phase`, redone
/// on `std` because this crate has no dependencies.
struct EpochGate {
    parties: usize,
    /// Arrivals in the current generation.
    arrived: AtomicUsize,
    /// The generation count, plus [`POISONED`]: the one word a waiter
    /// polls.
    state: AtomicU64,
    /// Waiters that stopped polling. Whoever changes `state` takes the
    /// list afterwards and unparks everyone on it.
    parked: Mutex<Vec<Thread>>,
}

impl EpochGate {
    fn new(parties: usize) -> EpochGate {
        EpochGate {
            parties,
            arrived: AtomicUsize::new(0),
            state: AtomicU64::new(0),
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Arrive, and wait until all `parties` have: poll `state` for
    /// `poll`, then park. Returns `false` if the gate is poisoned — a
    /// party unwound, and the caller should give up quietly so that the
    /// unwinding party's panic is the one reported.
    #[must_use]
    fn rendezvous(&self, poll: Duration) -> bool {
        // order: Acquire pairs with the Release in the last arriver's
        // bump and in `poison`. Read before arriving: a generation
        // cannot end without this thread, so this is the current one.
        let seen = self.state.load(Ordering::Acquire);
        if seen & POISONED != 0 {
            return false;
        }
        // order: AcqRel — the arrivals are one release sequence on
        // `arrived`, so the last arriver holds every earlier arriver's
        // writes (published slots, flushed lanes) when it opens the
        // gate, and hands them on with the Release below.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // order: Relaxed — nobody arrives again before seeing the
            // new generation, and the Release below publishes the reset.
            self.arrived.store(0, Ordering::Relaxed);
            // order: Release pairs with the waiters' Acquire loads; an
            // add, not a store, so a concurrent poison bit survives.
            let before = self.state.fetch_add(1, Ordering::Release);
            self.wake_parked();
            return before & POISONED == 0;
        }
        // order: Acquire, pairing as for `seen`; a released waiter then
        // reads what every party wrote before arriving.
        let changed = || self.state.load(Ordering::Acquire) != seen;
        // Phase 1: poll.
        let deadline = Instant::now() + poll;
        while !changed() && Instant::now() < deadline {
            spin_loop();
        }
        // Phase 2: park. Register, then re-check under the same lock: a
        // racing release either finds this thread on the list or is
        // seen here. Spurious wake-ups re-register.
        while !changed() {
            {
                let mut parked = self.lock_parked();
                if changed() {
                    break;
                }
                parked.push(thread::current());
            }
            thread::park();
        }
        // order: Acquire, as above.
        self.state.load(Ordering::Acquire) & POISONED == 0
    }

    /// Release every waiter, now and in any later generation, with
    /// `false`. Runs while a worker unwinds, so it must not panic.
    fn poison(&self) {
        // order: Release pairs with the waiters' Acquire loads; an or,
        // so the generation count under the bit is kept.
        self.state.fetch_or(POISONED, Ordering::Release);
        self.wake_parked();
    }

    fn wake_parked(&self) {
        let parked = std::mem::take(&mut *self.lock_parked());
        for t in parked {
            t.unpark();
        }
    }

    fn lock_parked(&self) -> MutexGuard<'_, Vec<Thread>> {
        // A list of thread handles is valid after any interrupted
        // update, so a poisoned mutex is recovered, not propagated.
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poisons the gate if its worker unwinds, so the peers waiting there
/// return instead of waiting for an arrival that will never come.
struct PoisonOnUnwind<'a>(&'a EpochGate);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.poison();
        }
    }
}

/// What the workers of one threaded run share: the gate and the two
/// things that cross it, each held once per epoch parity (see the
/// module docs: a peer can be one epoch ahead, never two).
struct Exchange {
    gate: EpochGate,
    /// Whether a waiter may poll before parking: only when every shard
    /// has a host core of its own.
    poll: bool,
    shards: usize,
    /// `next[parity][shard]`: the shard's published next-event time
    /// (`u64::MAX` = nothing queued and nothing flushed).
    next: [Vec<AtomicU64>; 2],
    /// One lane per parity and ordered shard pair, at
    /// `(parity * shards + src) * shards + dst`. Only `src` pushes
    /// (flushing its epoch) and only `dst` drains (one gate later), so
    /// the mutex is never contended; an empty lane owns no memory.
    lanes: Vec<Mutex<Vec<RemoteMsg>>>,
}

impl Exchange {
    fn new(shards: usize, poll: bool) -> Exchange {
        let slots = || (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        Exchange {
            gate: EpochGate::new(shards),
            poll,
            shards,
            next: [slots(), slots()],
            lanes: (0..2 * shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    fn lane(&self, parity: usize, src: usize, dst: usize) -> MutexGuard<'_, Vec<RemoteMsg>> {
        self.lanes[(parity * self.shards + src) * self.shards + dst]
            .lock()
            .expect("lane poisoned: a peer panicked while draining it")
    }

    /// Append `msg` to the `src → dst` lane of `parity`.
    fn lane_flush(&self, parity: usize, src: usize, dst: usize, msg: RemoteMsg) {
        self.lane(parity, src, dst).push(msg);
    }

    /// Empty the `src → dst` lane of `parity` into `deliver`, in post
    /// order, keeping the lane's allocation for its next epoch.
    fn lane_drain(&self, parity: usize, src: usize, dst: usize, deliver: impl FnMut(RemoteMsg)) {
        self.lane(parity, src, dst).drain(..).for_each(deliver);
    }
}

/// A sharded simulated machine executable serially (deterministic
/// reference) or on one thread per shard (same results, more cores).
/// See the module docs for the scheme.
pub struct Cluster {
    nodes: usize,
    base: Config,
    pcfg: ParallelConfig,
    /// `(base, len)` per shard: contiguous, covering `0..nodes`.
    ranges: Vec<(usize, usize)>,
    world: Arc<MailWorld>,
    lookahead: u64,
}

impl Cluster {
    /// Shard a `nodes`-node machine into `pcfg.workers` contiguous
    /// ranges (near-even: the first `nodes % workers` shards get one
    /// extra node). `base` is the per-shard machine template — its
    /// `nodes` is overridden per shard, its seed is offset by the shard
    /// index so shards draw distinct deterministic streams.
    ///
    /// # Panics
    /// If `workers` is 0 or exceeds `nodes`, or the template carries a
    /// fault plan (fault injection is single-machine-only for now).
    pub fn new(nodes: usize, base: Config, pcfg: ParallelConfig) -> Cluster {
        let w = pcfg.workers;
        assert!(w > 0, "a cluster needs at least one shard");
        assert!(w <= nodes, "more shards ({w}) than nodes ({nodes})");
        assert!(
            base.faults.entries.is_empty(),
            "fault plans are not supported in sharded mode yet"
        );
        let per = nodes / w;
        let extra = nodes % w;
        let mut ranges = Vec::with_capacity(w);
        let mut at = 0;
        for s in 0..w {
            let len = per + usize::from(s < extra);
            ranges.push((at, len));
            at += len;
        }
        debug_assert_eq!(at, nodes);
        let world = Arc::new(MailWorld {
            coords: net::coords_for(nodes),
            cost: base.cost.clone(),
            epoch_window: pcfg.epoch_window,
        });
        let lookahead = Self::compute_lookahead(&world, &ranges);
        Cluster {
            nodes,
            base,
            pcfg,
            ranges,
            world,
            lookahead,
        }
    }

    /// The epoch lookahead `L`: `msg_send` plus the declared minimum
    /// cross-shard latency (mesh-derived, floored by `epoch_window`).
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// The parallel configuration this cluster was built with.
    pub fn config(&self) -> &ParallelConfig {
        &self.pcfg
    }

    /// Total nodes across the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// The global node range `(base, len)` of shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        self.ranges[s]
    }

    fn compute_lookahead(world: &MailWorld, ranges: &[(usize, usize)]) -> u64 {
        // Minimum mesh distance between nodes in different shards.
        // O(n^2) scan at setup only, with an early exit at the floor.
        let mut min_hops = u64::MAX;
        'outer: for (si, &(b1, l1)) in ranges.iter().enumerate() {
            for &(b2, l2) in &ranges[si + 1..] {
                for a in b1..b1 + l1 {
                    for b in b2..b2 + l2 {
                        let h = net::hops_between(world.coords[a], world.coords[b]);
                        min_hops = min_hops.min(h);
                        if min_hops <= 1 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        let mesh_min = if min_hops == u64::MAX {
            // Single shard: no cross-shard traffic; any positive value
            // works.
            1
        } else {
            net::latency_for_hops(&world.cost, min_hops)
        };
        let l = world.cost.msg_send + mesh_min.max(world.epoch_window);
        l.max(1)
    }

    /// Build shard `s`'s machine and hand it to the setup closure.
    fn build_shard(&self, s: usize, setup: &(impl Fn(&ShardCtx<'_>) + ?Sized)) -> ShardRt {
        let (base, len) = self.ranges[s];
        let cfg = self
            .base
            .clone()
            .nodes(len)
            .seed(self.base.seed.wrapping_add(s as u64));
        let machine = Machine::new(cfg);
        let mail = RemoteMail {
            world: self.world.clone(),
            base,
            len,
            buf: Rc::new(RefCell::new(Vec::new())),
        };
        setup(&ShardCtx {
            machine: &machine,
            shard: s,
            node_base: base,
            shard_nodes: len,
            total_nodes: self.nodes,
            mail: mail.clone(),
        });
        ShardRt {
            machine,
            mail,
            executed_to: 0,
            busy: Duration::ZERO,
            delivered: 0,
            violations: 0,
        }
    }

    /// Run the sharded machine to completion on one thread: the
    /// deterministic reference execution of the epoch algorithm (shards
    /// in index order within each epoch, messages routed in (sender,
    /// post-order)). Also measures the per-epoch critical path, which
    /// parallel-host throughput projections are read from.
    pub fn run_serial(&self, setup: impl Fn(&ShardCtx<'_>)) -> ClusterReport {
        let t_run = Instant::now();
        let w = self.ranges.len();
        let lookahead = self.lookahead;
        let mut shards: Vec<ShardRt> = (0..w).map(|s| self.build_shard(s, &setup)).collect();
        // inboxes[dest] holds this epoch's deliveries, already in
        // (sender shard, post order) — the canonical injection order.
        let mut inboxes: Vec<Vec<RemoteMsg>> = (0..w).map(|_| Vec::new()).collect();
        let mut epochs = 0u64;
        let mut critical_path = Duration::ZERO;
        let mut cp_events = 0u64;
        loop {
            for (s, rt) in shards.iter_mut().enumerate() {
                let (base, _) = self.ranges[s];
                for m in inboxes[s].drain(..) {
                    rt.inject(&m, base);
                }
            }
            let Some(m) = shards
                .iter()
                .filter_map(|rt| rt.machine.next_event_time())
                .min()
            else {
                break;
            };
            let horizon = m + lookahead;
            let mut epoch_max = Duration::ZERO;
            let mut epoch_max_ev = 0u64;
            for (s, rt) in shards.iter_mut().enumerate() {
                let ev0 = rt.machine.events_executed();
                let t0 = Instant::now();
                rt.machine.run_until(horizon - 1);
                rt.executed_to = horizon - 1;
                // Route in sender order: shard s's posts append to each
                // destination inbox before shard s+1's.
                for msg in rt.take_outgoing() {
                    let dest_shard = self.shard_of(msg.dest);
                    debug_assert_ne!(dest_shard, s);
                    inboxes[dest_shard].push(msg);
                }
                let dt = t0.elapsed();
                rt.busy += dt;
                epoch_max = epoch_max.max(dt);
                epoch_max_ev = epoch_max_ev.max(rt.machine.events_executed() - ev0);
            }
            critical_path += epoch_max;
            cp_events += epoch_max_ev;
            epochs += 1;
        }
        self.report(shards, epochs, critical_path, cp_events, t_run.elapsed())
    }

    /// Run the sharded machine with one OS thread per shard under the
    /// conservative epoch protocol. Produces [`Stats`] identical to
    /// [`Cluster::run_serial`] for the same setup (the cross-mode
    /// conformance contract); wall time reflects the host's real
    /// parallelism.
    ///
    /// # Panics
    /// With the first panicking shard's panic, if `setup` or a shard's
    /// execution panics; the other workers stop at their next gate.
    pub fn run_parallel(&self, setup: impl Fn(&ShardCtx<'_>) + Send + Sync) -> ClusterReport {
        let t_run = Instant::now();
        let w = self.ranges.len();
        // Asked here and not on a worker: `setup` may pin its thread to
        // one CPU, after which that thread is told the host has one.
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let ex = Exchange::new(w, w <= cores);
        let joined: Vec<thread::Result<Option<ShardDone>>> = thread::scope(|sc| {
            let handles: Vec<_> = (0..w)
                .map(|s| {
                    let (ex, setup) = (&ex, &setup);
                    sc.spawn(move || {
                        let _poison = PoisonOnUnwind(&ex.gate);
                        self.worker(s, setup, ex)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut shards = Vec::with_capacity(w);
        for result in joined {
            match result {
                Ok(done) => shards.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        assert_eq!(shards.len(), w, "a worker gave up but none panicked");
        let epochs = shards[0].epochs;
        assert!(
            shards.iter().all(|d| d.epochs == epochs),
            "workers disagree on the epoch count"
        );
        // Critical-path accounting is measured by the serial reference.
        self.report_done(shards, epochs, Duration::ZERO, 0, t_run.elapsed())
    }

    /// One worker's epoch loop: publish → rendezvous → read-all →
    /// drain → run + flush. Every worker computes the exit decision
    /// from the same published values, so all break together. `None`:
    /// a peer panicked and poisoned the gate.
    fn worker(
        &self,
        s: usize,
        setup: &(impl Fn(&ShardCtx<'_>) + Send + Sync),
        ex: &Exchange,
    ) -> Option<ShardDone> {
        let (base, _) = self.ranges[s];
        let mut rt = self.build_shard(s, setup);
        let mut epochs = 0u64;
        // Earliest deliver_at among the posts flushed last epoch: until
        // the receivers drain them they are in no queue, so the sender
        // publishes them.
        let mut flushed_min = u64::MAX;
        // Polling budget at the next gate: the wall time of the last
        // run + flush, where waiters may poll at all.
        let mut budget = Duration::ZERO;
        loop {
            let parity = (epochs & 1) as usize;
            let queued = rt.machine.next_event_time().unwrap_or(u64::MAX);
            // order: Release publish / Acquire read pair up through the
            // gate, which already synchronizes; the ordering just keeps
            // the slot handoff locally obvious.
            ex.next[parity][s].store(queued.min(flushed_min), Ordering::Release);
            if !ex.gate.rendezvous(budget) {
                return None;
            }
            let m = ex.next[parity]
                .iter()
                .map(|t| t.load(Ordering::Acquire)) // order: see store above
                .min()
                .expect("at least one shard");
            if m == u64::MAX {
                // All queues drained and all lanes empty: every worker
                // computes this same minimum and exits together.
                break;
            }
            // Drain last epoch's deliveries in sender-shard order — the
            // same canonical injection order the serial mode uses.
            for src in (0..ex.shards).filter(|&src| src != s) {
                // horizon: this lane holds exactly what `src` flushed
                // in the previous epoch — it did so before arriving at
                // the gate just passed, and a peer already released
                // writes the other parity until this shard arrives
                // again. Each message carries deliver_at >= the horizon
                // that epoch executed to, so none lands in this shard's
                // executed past (rt.inject re-checks the watermark).
                ex.lane_drain(1 - parity, src, s, |msg| rt.inject(&msg, base));
            }
            let horizon = m + self.lookahead;
            let t0 = Instant::now();
            rt.machine.run_until(horizon - 1);
            rt.executed_to = horizon - 1;
            flushed_min = u64::MAX;
            for msg in rt.take_outgoing() {
                flushed_min = flushed_min.min(msg.deliver_at);
                // horizon: posts from this epoch carry deliver_at >=
                // horizon (post time >= m, latency >= lookahead). The
                // receiver drains this parity only after the next gate,
                // by when `flushed_min` has entered the minimum every
                // shard's next horizon is computed from.
                ex.lane_flush(parity, s, self.shard_of(msg.dest), msg);
            }
            let ran = t0.elapsed();
            rt.busy += ran;
            if ex.poll {
                budget = ran;
            }
            epochs += 1;
        }
        Some(ShardDone {
            stats: rt.machine.stats(),
            live_tasks: rt.machine.live_tasks(),
            elapsed: rt.machine.now(),
            busy: rt.busy,
            delivered: rt.delivered,
            violations: rt.violations,
            epochs,
        })
    }

    /// Shard owning global node `g` (ranges are contiguous).
    fn shard_of(&self, g: usize) -> usize {
        // Near-even split: direct computation instead of binary search.
        let w = self.ranges.len();
        let per = self.nodes / w;
        let extra = self.nodes % w;
        let boundary = extra * (per + 1);
        if g < boundary {
            g / (per + 1)
        } else {
            extra + (g - boundary) / per
        }
    }

    fn report(
        &self,
        shards: Vec<ShardRt>,
        epochs: u64,
        critical_path: Duration,
        cp_events: u64,
        wall: Duration,
    ) -> ClusterReport {
        let done: Vec<ShardDone> = shards
            .into_iter()
            .map(|rt| ShardDone {
                stats: rt.machine.stats(),
                live_tasks: rt.machine.live_tasks(),
                elapsed: rt.machine.now(),
                busy: rt.busy,
                delivered: rt.delivered,
                violations: rt.violations,
                epochs,
            })
            .collect();
        self.report_done(done, epochs, critical_path, cp_events, wall)
    }

    fn report_done(
        &self,
        shards: Vec<ShardDone>,
        epochs: u64,
        critical_path: Duration,
        cp_events: u64,
        wall: Duration,
    ) -> ClusterReport {
        let mut stats = Stats::default();
        let mut elapsed = 0;
        let mut live = 0;
        let mut remote = 0;
        let mut violations = 0;
        let mut busy_secs = Vec::with_capacity(shards.len());
        for mut d in shards {
            // Per-node vectors concatenate in shard order so the merged
            // stats index by global node id; everything else absorbs.
            stats.rmr_cc.append(&mut d.stats.rmr_cc);
            stats.rmr_dsm.append(&mut d.stats.rmr_dsm);
            stats.absorb(&d.stats);
            elapsed = elapsed.max(d.elapsed);
            live += d.live_tasks;
            remote += d.delivered;
            violations += d.violations;
            busy_secs.push(d.busy.as_secs_f64());
        }
        ClusterReport {
            stats,
            elapsed,
            epochs,
            lookahead: self.lookahead,
            remote_msgs: remote,
            live_tasks: live,
            wall_secs: wall.as_secs_f64(),
            busy_secs,
            critical_path_secs: critical_path.as_secs_f64(),
            critical_path_events: cp_events,
            causality_violations: violations,
        }
    }
}

/// One shard's final accounting, independent of execution mode.
struct ShardDone {
    stats: Stats,
    live_tasks: usize,
    elapsed: u64,
    busy: Duration,
    delivered: u64,
    violations: u64,
    epochs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter-ring workload: every node hammers a shard-local
    /// counter, and each shard's node 0 posts a message around the
    /// shard ring; the destination handler bumps a named counter.
    fn ring_setup(ctx: &ShardCtx<'_>) {
        let m = ctx.machine;
        let counter = m.alloc_on(0, 1);
        let mail = ctx.mail();
        let total = ctx.total_nodes;
        let base = ctx.node_base;
        let len = ctx.shard_nodes;
        m.register_handler(0, Port(9), |hctx, args| {
            hctx.bump("ring_hops", 1);
            let _ = args;
        });
        for p in 0..len {
            let cpu = m.cpu(p);
            let mail = mail.clone();
            m.spawn(p, async move {
                for i in 0..6u64 {
                    cpu.fetch_and_add(counter, 1).await;
                    cpu.work(cpu.rand_below(40)).await;
                    if p == 0 {
                        // Ring: shard s's node 0 posts to the next
                        // shard's base node.
                        let dest = (base + len) % total;
                        mail.post(cpu.now(), base, dest, Port(9), [i, 0, 0, 0]);
                    }
                }
            });
        }
    }

    fn digest(r: &ClusterReport) -> (u64, u64, u64, u64, Vec<u64>) {
        (
            r.stats.sim_events,
            r.stats.net_msgs,
            r.stats.counter("ring_hops"),
            r.elapsed,
            r.stats.rmr_cc.clone(),
        )
    }

    #[test]
    fn serial_and_parallel_agree_on_ring() {
        let mk = || {
            Cluster::new(
                16,
                Config::default().seed(77),
                ParallelConfig {
                    workers: 4,
                    epoch_window: 0,
                },
            )
        };
        let a = mk().run_serial(ring_setup);
        let b = mk().run_parallel(ring_setup);
        assert_eq!(a.live_tasks, 0);
        assert_eq!(b.live_tasks, 0);
        assert_eq!(a.causality_violations, 0);
        assert_eq!(b.causality_violations, 0);
        // 4 shards x 6 ring posts each, all delivered.
        assert_eq!(a.stats.counter("ring_hops"), 24);
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn epoch_window_floors_the_lookahead() {
        let base = Config::default();
        let tight = Cluster::new(
            16,
            base.clone(),
            ParallelConfig {
                workers: 4,
                epoch_window: 0,
            },
        );
        let wide = Cluster::new(
            16,
            base,
            ParallelConfig {
                workers: 4,
                epoch_window: 5_000,
            },
        );
        assert!(tight.lookahead() < wide.lookahead());
        assert_eq!(
            wide.lookahead(),
            CostModel::nwo().msg_send + 5_000,
            "window floors the mesh latency"
        );
        // Fewer epochs with the wider window, same simulation.
        let a = tight.run_serial(ring_setup);
        let b = wide.run_serial(ring_setup);
        assert!(b.epochs < a.epochs);
        assert_eq!(a.stats.counter("ring_hops"), b.stats.counter("ring_hops"));
    }

    #[test]
    fn uneven_split_covers_all_nodes() {
        let c = Cluster::new(
            10,
            Config::default(),
            ParallelConfig {
                workers: 3,
                epoch_window: 0,
            },
        );
        assert_eq!(c.shard_range(0), (0, 4));
        assert_eq!(c.shard_range(1), (4, 3));
        assert_eq!(c.shard_range(2), (7, 3));
        for g in 0..10 {
            let s = c.shard_of(g);
            let (b, l) = c.shard_range(s);
            assert!(g >= b && g < b + l, "node {g} misrouted to shard {s}");
        }
    }

    #[test]
    #[should_panic(expected = "shard-local")]
    fn mail_rejects_local_destinations() {
        let c = Cluster::new(
            8,
            Config::default(),
            ParallelConfig {
                workers: 2,
                epoch_window: 0,
            },
        );
        c.run_serial(|ctx| {
            ctx.mail()
                .post(0, ctx.node_base, ctx.node_base, Port(1), [0; 4]);
        });
    }

    /// `threads` parties meet twice in each of `rounds` rounds: every
    /// party bumps a shared counter, meets, reads it, meets again. A
    /// gate that lets anyone through early, or strands a waiter, shows
    /// as a wrong count or a hang. `budget(thread, meeting)` is the
    /// polling budget of a party's arrival at its n-th meeting.
    fn hammer_gate(threads: usize, rounds: u64, budget: impl Fn(usize, u64) -> Duration + Sync) {
        let gate = EpochGate::new(threads);
        let count = AtomicU64::new(0);
        thread::scope(|sc| {
            for t in 0..threads {
                let (gate, count, budget) = (&gate, &count, &budget);
                sc.spawn(move || {
                    let _poison = PoisonOnUnwind(gate);
                    for round in 1..=rounds {
                        // order: Relaxed — the gate orders the counter.
                        count.fetch_add(1, Ordering::Relaxed);
                        assert!(gate.rendezvous(budget(t, 2 * round)));
                        // order: Relaxed, as above.
                        let seen = count.load(Ordering::Relaxed);
                        assert_eq!(seen, threads as u64 * round, "thread {t} released early");
                        assert!(gate.rendezvous(budget(t, 2 * round + 1)));
                    }
                });
            }
        });
    }

    /// Rounds for the gate stress tests: 10^5 where CI runs them in
    /// release, fewer in the debug sweep.
    const GATE_ROUNDS: u64 = if cfg!(debug_assertions) {
        10_000
    } else {
        100_000
    };

    fn host_cores() -> usize {
        thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The three regimes run in turn, not as three tests side by side:
    /// the harness would put their threads on the same cores and turn
    /// the polling regime into an oversubscribed one.
    #[test]
    fn gate_stress() {
        // A core per party and a budget no round here outlasts: every
        // release is seen while polling. (On a one-core host that is a
        // single party with nothing to wait for.)
        hammer_gate(host_cores().min(4), GATE_ROUNDS, |_, _| {
            Duration::from_millis(50)
        });
        // Four parties per core and no budget: every waiter parks.
        hammer_gate(4 * host_cores(), GATE_ROUNDS, |_, _| Duration::ZERO);
        // Parkers and pollers on one gate, swapping roles every meeting:
        // the releaser races registrations in the register-then-recheck
        // window while other waiters never touch the list.
        hammer_gate(4, GATE_ROUNDS, |t, meeting| {
            if (t as u64 + meeting).is_multiple_of(2) {
                Duration::ZERO
            } else {
                Duration::from_micros(5)
            }
        });
    }

    #[test]
    fn poisoned_gate_releases_waiters_with_false() {
        let gate = EpochGate::new(3);
        thread::scope(|sc| {
            let parker = sc.spawn(|| gate.rendezvous(Duration::ZERO));
            let poller = sc.spawn(|| gate.rendezvous(Duration::from_secs(60)));
            // The third party unwinds instead of arriving.
            let died = sc
                .spawn(|| {
                    let _poison = PoisonOnUnwind(&gate);
                    panic!("third party dies");
                })
                .join();
            assert!(died.is_err());
            assert!(!parker.join().expect("waiter must not panic"));
            assert!(!poller.join().expect("waiter must not panic"));
        });
        assert!(!gate.rendezvous(Duration::ZERO), "poison is permanent");
    }
}
