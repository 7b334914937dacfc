//! The model-checked scenarios: each wraps one of the repo's native
//! synchronization algorithms (or the switching kernel itself) in a
//! small closed program whose every interleaving the checker explores.
//!
//! A scenario must build all shared state *inside* its closure (a
//! fresh world per schedule) and fail by panicking — an assertion, a
//! protocol invariant (e.g. `TtsLock`'s unheld-unlock assert), or the
//! model's own vector-clock race detector via
//! [`reactive_native::model::RaceCell`].
//!
//! Four scenarios exist to rediscover the seeded regression mutants
//! (`kernel_arbitration` for `double_commit`, `kernel_commit_first`
//! for `stale_mode`, `kernel_recovery` for `drop_recovery_fence`,
//! `slab_reclaim` for `lookup_before_register`); on an unmutated build
//! they must pass like the rest.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use reactive_api::{
    drive, CrashPoint, Decision, Observation, Policy, ProtocolId, SharedWorld, SwitchKernel,
    SwitchStyle, SwitchableObject,
};
use reactive_native::mcs::{McsLock, McsNode};
use reactive_native::model::shim::{AtomicU64, AtomicU8, Mutex};
use reactive_native::model::{explore, thread, Config, RaceCell, Report};
use reactive_native::reactive::{ReactiveLock, PROTO_QUEUE, PROTO_TTS};
use reactive_native::{Event, TtsLock, TwoPhaseWait};

/// One model-checked scenario.
pub struct Scenario {
    /// Stable name (CLI selector and counterexample file stem).
    pub name: &'static str,
    /// One-line description for `conc-check --list`.
    pub about: &'static str,
    /// Runs the scenario under the given exploration limits.
    pub run: fn(Config) -> Report,
}

/// Every scenario, in documentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "tts_mutex",
            about: "test-and-test&set lock provides mutual exclusion (3 threads)",
            run: tts_mutex,
        },
        Scenario {
            name: "mcs_mutex",
            about: "MCS queue lock provides mutual exclusion + FIFO handoff (3 threads)",
            run: mcs_mutex,
        },
        Scenario {
            name: "two_phase_event",
            about: "two-phase (poll-then-park) event wait never loses a waiter or a write",
            run: two_phase_event,
        },
        Scenario {
            name: "reactive_lock",
            about:
                "reactive lock, 2 threads x 2 passes, under a policy that switches on every release",
            run: |cfg| reactive_lock("reactive_lock", cfg, 2, 2),
        },
        Scenario {
            name: "reactive_lock_usurper",
            about: "reactive lock, 3 threads x 1 pass, switching on every release",
            run: |cfg| reactive_lock("reactive_lock_usurper", cfg, 3, 1),
        },
        Scenario {
            name: "kernel_arbitration",
            about: "concurrent Transfer-style changers arbitrate to exactly one commit",
            run: kernel_arbitration,
        },
        Scenario {
            name: "kernel_commit_first",
            about: "CommitFirst bookkeeping is settled before a racer can win the target",
            run: kernel_commit_first,
        },
        Scenario {
            name: "kernel_abort_switch",
            about: "an abort racing a mode switch resolves to exactly one of {aborted, migrated}",
            run: kernel_abort_switch,
        },
        Scenario {
            name: "kernel_recovery",
            about: "crash-recovery racing a fresh acquirer fences the dead protocol first",
            run: kernel_recovery,
        },
        Scenario {
            name: "arena_inflation",
            about: "slot-word inflate -> deflate -> re-inflate keeps mutual exclusion (2 threads)",
            run: arena_inflation,
        },
        Scenario {
            name: "slab_reclaim",
            about: "slab entry is read after registration and freed after the deflater's release",
            run: slab_reclaim,
        },
    ]
}

/// Look up a scenario by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------
// Protocol scenarios
// ---------------------------------------------------------------------

fn tts_mutex(cfg: Config) -> Report {
    explore(
        "tts_mutex",
        cfg,
        Arc::new(|| {
            let l = Arc::new(TtsLock::new());
            let c = Arc::new(RaceCell::new("tts payload", 0u64));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let (l, c) = (l.clone(), c.clone());
                    thread::spawn(move || {
                        l.lock();
                        let v = c.get();
                        c.set(v + 1);
                        l.unlock();
                    })
                })
                .collect();
            l.lock();
            let v = c.get();
            c.set(v + 1);
            l.unlock();
            for h in hs {
                h.join().unwrap();
            }
            l.lock();
            assert_eq!(c.get(), 3, "an increment was lost");
            l.unlock();
        }),
    )
}

fn mcs_mutex(cfg: Config) -> Report {
    explore(
        "mcs_mutex",
        cfg,
        Arc::new(|| {
            let l = Arc::new(McsLock::new());
            let c = Arc::new(RaceCell::new("mcs payload", 0u64));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let (l, c) = (l.clone(), c.clone());
                    thread::spawn(move || {
                        let node = Box::new(McsNode::new());
                        l.lock(&node);
                        let v = c.get();
                        c.set(v + 1);
                        l.unlock(&node);
                    })
                })
                .collect();
            let node = Box::new(McsNode::new());
            l.lock(&node);
            let v = c.get();
            c.set(v + 1);
            l.unlock(&node);
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(c.get(), 3, "an increment was lost");
        }),
    )
}

fn two_phase_event(cfg: Config) -> Report {
    explore(
        "two_phase_event",
        cfg,
        Arc::new(|| {
            let ev = Arc::new(Event::new());
            let data = Arc::new(RaceCell::new("event payload", 0u64));
            // One waiter polls briefly (virtual nanoseconds = granted
            // ops) and then parks; the other parks immediately. Both
            // must observe the pre-`set` write.
            let hs: Vec<_> = [Duration::from_nanos(3), Duration::ZERO]
                .into_iter()
                .map(|lpoll| {
                    let (ev, data) = (ev.clone(), data.clone());
                    thread::spawn(move || {
                        ev.wait(TwoPhaseWait::new(lpoll));
                        assert_eq!(data.get(), 7, "waiter woke before the producer's write");
                    })
                })
                .collect();
            data.set(7);
            ev.set();
            for h in hs {
                h.join().unwrap();
            }
        }),
    )
}

/// A policy that asks to leave the current protocol on every
/// observation — the adversarial maximum of mode-change traffic, so
/// every release runs a full kernel transaction.
struct Thrash;

impl Policy for Thrash {
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision::SwitchTo(if obs.current == PROTO_TTS {
            PROTO_QUEUE
        } else {
            PROTO_TTS
        })
    }
}

/// `threads` × `passes` acquisitions of one reactive lock. Three
/// threads reach `mcs_release`'s usurper window: a releaser between its
/// two tail swaps, its unlinked successor, and a usurper whose
/// empty-queue grant switches the queue away.
fn reactive_lock(name: &'static str, cfg: Config, threads: u64, passes: u64) -> Report {
    explore(
        name,
        cfg,
        Arc::new(move || {
            let l = Arc::new(ReactiveLock::builder().policy(Thrash).build());
            let c = Arc::new(RaceCell::new("reactive payload", 0u64));
            let hs: Vec<_> = (0..threads)
                .map(|_| {
                    let (l, c) = (l.clone(), c.clone());
                    thread::spawn(move || {
                        for _ in 0..passes {
                            let held = l.acquire();
                            let v = c.get();
                            c.set(v + 1);
                            l.release(held);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            let total = threads * passes;
            assert_eq!(c.get(), total, "an increment was lost across mode changes");
        }),
    )
}

// ---------------------------------------------------------------------
// Kernel scenarios (regression-mutant rediscovery targets)
// ---------------------------------------------------------------------

const MP: ProtocolId = ProtocolId(0);
const SM: ProtocolId = ProtocolId(1);

/// Miniature of the message-passing fetch-op's switch machinery: the
/// exiting protocol's consensus object is a manager validity word
/// (invalidation = winning a compare-exchange on it), the entering
/// protocol's is a TTS flag pinned busy until `validate` frees it.
struct MpFetchOp {
    kernel: SwitchKernel<SharedWorld>,
    /// Manager's validity word for the MP protocol (1 = valid).
    mp_valid: AtomicU64,
    /// The SM side's consensus lock, pinned busy while invalid.
    sm: TtsLock,
    mode: AtomicU8,
}

impl MpFetchOp {
    fn new() -> MpFetchOp {
        let obj = MpFetchOp {
            kernel: SwitchKernel::<SharedWorld>::builder()
                .register(MP, "mp", SwitchStyle::Transfer)
                .register(SM, "sm", SwitchStyle::Handoff)
                .build(),
            mp_valid: AtomicU64::new(1),
            sm: TtsLock::new(),
            mode: AtomicU8::new(MP.0),
        };
        let pinned = obj.sm.try_lock();
        assert!(pinned, "fresh SM consensus lock must be free to pin");
        obj
    }
}

impl SwitchableObject for MpFetchOp {
    type Ctx = ();

    async fn validate(&self, _ctx: &(), to: ProtocolId, _from: ProtocolId, _state: u64) {
        if to == SM {
            // Exactly like the real fetch-op: making SM valid frees its
            // pinned consensus lock. Freeing it twice is the
            // double-commit signature (TtsLock's unheld-unlock assert).
            self.sm.unlock();
        }
    }

    async fn invalidate(&self, _ctx: &(), from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        if from == MP {
            // The manager's conditional invalidation: the validity word
            // is the consensus object, so concurrent changers arbitrate
            // here — exactly one wins the 1 -> 0 transition.
            // order: AcqRel — the winner's later reads see the state the
            // word guarded; losers only need the failure itself.
            self.mp_valid
                .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
                .ok()
                .map(|_| 0)
        } else {
            Some(0)
        }
    }

    async fn publish_mode(&self, _ctx: &(), to: ProtocolId) {
        // order: Release — the hint must not be reordered before the
        // validity transitions above.
        self.mode.store(to.0, Ordering::Release);
    }

    fn now(&self, _ctx: &()) -> u64 {
        0
    }
}

fn kernel_arbitration(cfg: Config) -> Report {
    explore(
        "kernel_arbitration",
        cfg,
        Arc::new(|| {
            // Two completed requesters both hold an approved decision to
            // leave MP for SM (the §3.6 double-commit shape) and race
            // their transactions. Exactly one may commit; the other
            // must abort at the consensus object with no side effects.
            let obj = Arc::new(MpFetchOp::new());
            let wins = Arc::new(AtomicU64::new(0));
            let (o2, w2) = (obj.clone(), wins.clone());
            let h = thread::spawn(move || {
                if drive(o2.kernel.try_switch(&*o2, &(), MP, SM)) {
                    // order: Relaxed — joined before reading.
                    w2.fetch_add(1, Ordering::Relaxed);
                }
            });
            if drive(obj.kernel.try_switch(&*obj, &(), MP, SM)) {
                // order: Relaxed — joined before reading.
                wins.fetch_add(1, Ordering::Relaxed);
            }
            h.join().unwrap();
            // order: Relaxed — the join above orders both increments.
            assert_eq!(
                wins.load(Ordering::Relaxed),
                1,
                "exactly one concurrent changer may commit"
            );
            assert!(
                obj.sm.try_lock(),
                "SM consensus lock freed exactly once by the winning validate"
            );
            assert_eq!(obj.kernel.switches(), 1);
        }),
    )
}

/// Miniature of the kernel's CommitFirst discipline: `validate`
/// makes the target's consensus object winnable; the scenario's second
/// thread pounces on it the instant it lands and runs a full opposite
/// transaction, which is only sound if this transaction's kernel
/// bookkeeping is already settled.
struct CommitFirstObj {
    kernel: SwitchKernel<SharedWorld>,
    /// Target consensus object: 1 = winnable by a racer.
    b_valid: AtomicU64,
    mode: AtomicU8,
}

const A: ProtocolId = ProtocolId(0);
const B: ProtocolId = ProtocolId(1);

impl CommitFirstObj {
    fn new() -> CommitFirstObj {
        CommitFirstObj {
            kernel: SwitchKernel::<SharedWorld>::builder()
                .register(A, "a", SwitchStyle::CommitFirst)
                .register(B, "b", SwitchStyle::CommitFirst)
                .build(),
            b_valid: AtomicU64::new(0),
            mode: AtomicU8::new(A.0),
        }
    }
}

impl SwitchableObject for CommitFirstObj {
    type Ctx = ();

    async fn validate(&self, _ctx: &(), to: ProtocolId, _from: ProtocolId, _state: u64) {
        if to == B {
            // order: Release pairs with the racer's Acquire spin — a
            // winner of the freshly valid consensus object must also
            // see the kernel bookkeeping committed before this store.
            self.b_valid.store(1, Ordering::Release);
        }
    }

    async fn invalidate(&self, _ctx: &(), from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        if from == B {
            // order: Relaxed — serialized by holding the consensus
            // object (the racer owns B when it invalidates it).
            self.b_valid.store(0, Ordering::Relaxed);
        }
        Some(0)
    }

    async fn publish_mode(&self, _ctx: &(), to: ProtocolId) {
        // order: Release — hint only; must trail the validity stores.
        self.mode.store(to.0, Ordering::Release);
    }

    fn now(&self, _ctx: &()) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// Crash/abort scenarios (fault-injection companions)
// ---------------------------------------------------------------------

/// Qnode status protocol of the abortable lock, miniaturized: a single
/// parked waiter whose word arbitrates between its own deadline abort
/// and the mode switch's bounce.
const ST_WAITING: u64 = 0;
const ST_ABORTED: u64 = 1;
const ST_INVALID: u64 = 2;

/// Miniature of the robust lock's Handoff change racing a waiter's
/// abort: the exiting protocol's invalidation bounces parked waiters
/// with a conditional `WAITING -> INVALID` transition, and the waiter's
/// deadline abort is a conditional `WAITING -> ABORTED` transition on
/// the same word — the consensus that makes the two outcomes exclusive.
struct AbortSwitchObj {
    kernel: SwitchKernel<SharedWorld>,
    /// The parked waiter's status word.
    status: AtomicU64,
    /// The entering protocol's sub-lock.
    b: TtsLock,
    /// The entering protocol's validity word.
    b_valid: AtomicU64,
    mode: AtomicU8,
}

impl AbortSwitchObj {
    fn new() -> AbortSwitchObj {
        AbortSwitchObj {
            kernel: SwitchKernel::<SharedWorld>::builder()
                .register(A, "a", SwitchStyle::Handoff)
                .register(B, "b", SwitchStyle::Handoff)
                .build(),
            status: AtomicU64::new(ST_WAITING),
            b: TtsLock::new(),
            b_valid: AtomicU64::new(0),
            mode: AtomicU8::new(A.0),
        }
    }
}

impl SwitchableObject for AbortSwitchObj {
    type Ctx = ();

    async fn validate(&self, _ctx: &(), to: ProtocolId, _from: ProtocolId, _state: u64) {
        if to == B {
            // order: Release pairs with the bounced waiter's Acquire
            // spin before it re-enters through B.
            self.b_valid.store(1, Ordering::Release);
        }
    }

    async fn invalidate(&self, _ctx: &(), from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        if from == A {
            // Bounce the parked waiter — conditionally: its deadline
            // abort may have claimed the word first, and overwriting an
            // ABORTED status would resurrect a withdrawn request.
            // order: AcqRel — a successful bounce orders the waiter's
            // migration after this transaction's validate.
            let _ = self.status.compare_exchange(
                ST_WAITING,
                ST_INVALID,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
        Some(0)
    }

    async fn publish_mode(&self, _ctx: &(), to: ProtocolId) {
        // order: Release — hint only; must trail the validity stores.
        self.mode.store(to.0, Ordering::Release);
    }

    fn now(&self, _ctx: &()) -> u64 {
        0
    }
}

fn kernel_abort_switch(cfg: Config) -> Report {
    explore(
        "kernel_abort_switch",
        cfg,
        Arc::new(|| {
            let obj = Arc::new(AbortSwitchObj::new());
            let data = Arc::new(RaceCell::new("abort payload", 0u64));
            let migrations = Arc::new(AtomicU64::new(0));
            // The parked waiter's deadline fires: it withdraws with a
            // conditional abort. If the switch's bounce won the word
            // first, the withdrawal is off and the waiter must follow
            // the migration to B instead (the abortable lock's
            // failed-CAS-means-granted rule).
            let (o2, d2, m2) = (obj.clone(), data.clone(), migrations.clone());
            let h = thread::spawn(move || {
                // order: AcqRel/Acquire — the abort CAS arbitrates
                // against the bounce CAS on the same word; the loser
                // must observe the winner's write.
                match o2.status.compare_exchange(
                    ST_WAITING,
                    ST_ABORTED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {} // cleanly aborted: never enters a CS
                    Err(s) => {
                        assert_eq!(s, ST_INVALID, "only the bounce may deny an abort");
                        // order: Acquire pairs with validate's Release.
                        while o2.b_valid.load(Ordering::Acquire) == 0 {
                            thread::yield_now();
                        }
                        o2.b.lock();
                        let v = d2.get();
                        d2.set(v + 1);
                        o2.b.unlock();
                        // order: Relaxed — joined before reading.
                        m2.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            // The holder: critical section under A, then the mode
            // change (Handoff), then one more passage through B.
            let v = data.get();
            data.set(v + 1);
            drive(obj.kernel.switch(&*obj, &(), A, B));
            obj.b.lock();
            let v = data.get();
            data.set(v + 1);
            obj.b.unlock();
            h.join().unwrap();
            // Conservation: the waiter either aborted or migrated —
            // exactly one, and the payload count must agree.
            // order: Relaxed — the join above orders the increment.
            let migrated = migrations.load(Ordering::Relaxed);
            // order: Relaxed — the waiter thread is joined; no writer left.
            let st = obj.status.load(Ordering::Relaxed);
            assert!(
                (st == ST_ABORTED && migrated == 0) || (st == ST_INVALID && migrated == 1),
                "abort/bounce arbitration lost the waiter (status {st}, migrated {migrated})"
            );
            assert_eq!(data.get(), 2 + migrated, "a passage was lost");
            assert_eq!(obj.kernel.switches(), 1);
        }),
    )
}

/// Miniature of the robust lock's crash recovery: the switching holder
/// died after commit but before the invalidate fence, leaving the dead
/// protocol's validity word still set and its sub-lock still claimed.
/// Recovery must run the fence *before* the dead claim is released —
/// a fresh acquirer that wins the sub-lock afterwards re-checks the
/// validity word and bails to the new protocol.
struct RecoveryObj {
    kernel: SwitchKernel<SharedWorld>,
    /// The dead protocol's sub-lock (held by the crashed switcher).
    a: TtsLock,
    /// The dead protocol's validity word.
    a_valid: AtomicU64,
    /// The new protocol's sub-lock.
    b: TtsLock,
    b_valid: AtomicU64,
    mode: AtomicU8,
}

impl RecoveryObj {
    fn new() -> RecoveryObj {
        let obj = RecoveryObj {
            kernel: SwitchKernel::<SharedWorld>::builder()
                .register(A, "a", SwitchStyle::Handoff)
                .register(B, "b", SwitchStyle::Handoff)
                .build(),
            a: TtsLock::new(),
            a_valid: AtomicU64::new(1),
            b: TtsLock::new(),
            b_valid: AtomicU64::new(0),
            mode: AtomicU8::new(A.0),
        };
        // The crashed switcher's claim on A, released only by recovery.
        let held = obj.a.try_lock();
        assert!(held, "fresh sub-lock must be claimable by the holder");
        obj
    }
}

impl SwitchableObject for RecoveryObj {
    type Ctx = ();

    async fn validate(&self, _ctx: &(), to: ProtocolId, _from: ProtocolId, _state: u64) {
        let w = if to == B {
            &self.b_valid
        } else {
            &self.a_valid
        };
        // order: Release pairs with an acquirer's validity re-check.
        w.store(1, Ordering::Release);
    }

    async fn invalidate(&self, _ctx: &(), from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        let w = if from == A {
            &self.a_valid
        } else {
            &self.b_valid
        };
        // order: Release — the fence must be visible to any acquirer
        // that subsequently wins the dead sub-lock.
        w.store(0, Ordering::Release);
        Some(0)
    }

    async fn publish_mode(&self, _ctx: &(), to: ProtocolId) {
        // order: Release — hint only; must trail the validity stores.
        self.mode.store(to.0, Ordering::Release);
    }

    fn now(&self, _ctx: &()) -> u64 {
        0
    }
}

fn kernel_recovery(cfg: Config) -> Report {
    explore(
        "kernel_recovery",
        cfg,
        Arc::new(|| {
            let obj = Arc::new(RecoveryObj::new());
            let data = Arc::new(RaceCell::new("recovery payload", 0u64));
            // The fresh acquirer: dispatched to A before the crash, it
            // blocks on A's sub-lock, wins it once recovery releases
            // the dead claim, and must then re-check A's validity word
            // — entering through A iff the word survived.
            let (o2, d2) = (obj.clone(), data.clone());
            let h = thread::spawn(move || {
                o2.a.lock();
                // order: Acquire pairs with the recovery fence's store.
                if o2.a_valid.load(Ordering::Acquire) == 1 {
                    // The fence never landed: a passage through the
                    // dead protocol, unserialized against B's holder.
                    let v = d2.get();
                    d2.set(v + 1);
                    o2.a.unlock();
                } else {
                    o2.a.unlock();
                    o2.b.lock();
                    let v = d2.get();
                    d2.set(v + 1);
                    o2.b.unlock();
                }
            });
            // The crash: the switching holder died after commit,
            // before the invalidate fence (B published, A still valid).
            drive(
                obj.kernel
                    .switch_crashed(&*obj, &(), A, B, CrashPoint::AfterCommit),
            );
            // Recovery: complete the transition (the fence clears A's
            // validity word), then release the dead holder's claim.
            drive(obj.kernel.recover(&*obj, &()));
            obj.a.unlock();
            // The recovered object serves a passage through B.
            obj.b.lock();
            let v = data.get();
            data.set(v + 1);
            obj.b.unlock();
            h.join().unwrap();
            assert_eq!(data.get(), 2, "a passage was lost across the recovery");
            assert_eq!(obj.kernel.current(), B);
        }),
    )
}

fn kernel_commit_first(cfg: Config) -> Report {
    explore(
        "kernel_commit_first",
        cfg,
        Arc::new(|| {
            let obj = Arc::new(CommitFirstObj::new());
            let o2 = obj.clone();
            // The racer: wins B's consensus object the instant it
            // becomes valid and immediately runs the opposite change.
            // Holding the consensus object entitles it to the
            // exclusive-discipline `switch`, which panics if the
            // kernel's state is stale (the pre-kernel native-lock bug).
            let h = thread::spawn(move || {
                // order: Acquire pairs with validate's Release.
                while o2.b_valid.load(Ordering::Acquire) == 0 {
                    thread::yield_now();
                }
                drive(o2.kernel.switch(&*o2, &(), B, A));
            });
            drive(obj.kernel.switch(&*obj, &(), A, B));
            h.join().unwrap();
            assert_eq!(obj.kernel.switches(), 2);
            assert_eq!(obj.kernel.current(), A, "the racer's change committed last");
        }),
    )
}

// ---------------------------------------------------------------------
// Service-arena scenario
// ---------------------------------------------------------------------

/// Shared state of the [`arena_inflation`] miniature: a one-object
/// arena whose packed word is the lock in the flat regime and an
/// in-flight-refcounted pointer to `lock` in the inflated regime.
struct MiniArena {
    /// The slot word (layout in the local constants below).
    word: AtomicU64,
    /// The one "slab entry", deliberately recycled across inflations so
    /// a stale registration that survives deflation would reach the
    /// *new* era's lock — the ABA the registration CAS must prevent.
    lock: TtsLock,
    /// Critical-section payload; the model's vector clocks flag any
    /// unserialized access.
    payload: RaceCell<u64>,
}

/// How [`MiniArena::acquire`] won, so release takes the matching door.
enum MiniHold {
    /// Won on the flat word: the word the winning CAS installed.
    Flat(u64),
    Inflated,
}

impl MiniArena {
    fn acquire(&self) -> MiniHold {
        // Local mini-word layout (the real one is
        // crates/service/src/slot.rs): thresholds are 1, so a single
        // contended release inflates and a single calm inflated
        // release deflates — every boundary is reachable within the
        // preemption bound.
        const HELD: u64 = 1;
        const INFLATED: u64 = 2;
        const WAITERS: u64 = 4;
        const REF_ONE: u64 = 8;
        let mut fought = false;
        loop {
            // order: Acquire — pairs with the inflation publish and
            // the releaser's store, as in the native arena.
            let w = self.word.load(Ordering::Acquire);
            if w & INFLATED != 0 {
                // Register (+REF_ONE) before touching the lock: the
                // refcount pins the entry against deflation; a failed
                // CAS means the word moved — possibly deflated — so
                // reload and re-dispatch.
                // order: AcqRel — the registration is the consensus
                // against the demotion CAS on the same word.
                if self
                    .word
                    .compare_exchange(w, w + REF_ONE, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.lock.lock();
                    return MiniHold::Inflated;
                }
                continue;
            }
            if w & HELD == 0 {
                let next = if fought {
                    w | HELD | WAITERS
                } else {
                    (w | HELD) & !WAITERS
                };
                // order: AcqRel — winning the flat word is the lock
                // acquisition itself.
                if self
                    .word
                    .compare_exchange(w, next, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return MiniHold::Flat(next);
                }
                fought = true;
                continue;
            }
            fought = true;
            if w & WAITERS == 0 {
                // order: Relaxed — evidence bit; the releaser reads it
                // under its own word load.
                let _ = self.word.compare_exchange(
                    w,
                    w | WAITERS,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                continue;
            }
            thread::yield_now();
        }
    }

    fn release(&self, hold: MiniHold) {
        const HELD: u64 = 1;
        const INFLATED: u64 = 2;
        const WAITERS: u64 = 4;
        const REF_ONE: u64 = 8;
        const REF_MASK: u64 = !7;
        match hold {
            MiniHold::Flat(installed) => {
                // The native release's first try: below the threshold
                // (no WAITERS in the word it installed), one CAS of that
                // exact word, no load. It fails only if evidence arrived
                // during the hold — a WAITERS registration — and the
                // loop below then reads and acts on it.
                // order: Release — ends the critical section.
                if installed & WAITERS == 0
                    && self
                        .word
                        .compare_exchange(
                            installed,
                            installed & !HELD,
                            Ordering::Release,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    return;
                }
                loop {
                    // order: Relaxed — we own HELD; the CAS below
                    // publishes.
                    let w = self.word.load(Ordering::Relaxed);
                    if w & WAITERS != 0 {
                        // Contended release at threshold 1: inflate.
                        // We own HELD, so publishing the inflated word
                        // (ref 0, evidence consumed) in one store is
                        // the whole promotion.
                        // order: Release — publishes the entry the
                        // INFLATED bit points acquirers at.
                        self.word.store(INFLATED, Ordering::Release);
                        return;
                    }
                    // order: Release — ends the critical section.
                    if self
                        .word
                        .compare_exchange(w, w & !HELD, Ordering::Release, Ordering::Relaxed)
                        .is_ok()
                    {
                        return;
                    }
                }
            }
            MiniHold::Inflated => {
                loop {
                    // order: Relaxed — arbitration is via the CASes.
                    let w = self.word.load(Ordering::Relaxed);
                    if w & REF_MASK == REF_ONE {
                        // Calm at threshold 1 (our registration is the
                        // only one): demote. The CAS expects our exact
                        // ref==1 word, so it arbitrates against racing
                        // registrations.
                        // order: AcqRel — the demotion consensus.
                        if self
                            .word
                            .compare_exchange(w, 0, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                        {
                            // Provably uncontended: we held the lock
                            // and no registration was en route.
                            self.lock.unlock();
                            return;
                        }
                        continue;
                    }
                    // Release, then deregister (the native order: a
                    // releaser stays registered until it is done with
                    // the lock).
                    self.lock.unlock();
                    let mut w = w;
                    // order: Release — the registration's end; nothing
                    // but the count rides on it here.
                    while let Err(now) = self.word.compare_exchange(
                        w,
                        w - REF_ONE,
                        Ordering::Release,
                        Ordering::Relaxed,
                    ) {
                        w = now;
                    }
                    return;
                }
            }
        }
    }
}

/// Miniature of the service arena's native slot-word protocol
/// (`crates/service/src/native.rs`), with both thresholds at 1 so the
/// checker reaches every boundary: flat wins racing the inflation
/// publish, registration racing demotion on the same word, a stale
/// registration retrying against the deflated word, and re-inflation
/// recycling the same lock. Two threads of two lock/unlock pairs each;
/// mutual exclusion is checked by a [`RaceCell`] payload and a final
/// count.
fn arena_inflation(cfg: Config) -> Report {
    explore(
        "arena_inflation",
        cfg,
        Arc::new(|| {
            let arena = Arc::new(MiniArena {
                word: AtomicU64::new(0),
                lock: TtsLock::new(),
                payload: RaceCell::new("arena payload", 0u64),
            });
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let a = arena.clone();
                    thread::spawn(move || {
                        for _ in 0..2 {
                            let hold = a.acquire();
                            let v = a.payload.get();
                            a.payload.set(v + 1);
                            a.release(hold);
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            let hold = arena.acquire();
            assert_eq!(arena.payload.get(), 4, "an increment was lost");
            arena.release(hold);
        }),
    )
}

// ---------------------------------------------------------------------
// Slab reclamation scenario
// ---------------------------------------------------------------------

/// One heap allocation of the [`slab_reclaim`] miniature: an inflated
/// lock plus a liveness cell standing in for its memory. Every use
/// reads the cell and the free writes it, so a use the protocol has not
/// ordered before the free is a detected race, and a use ordered after
/// it trips the assert.
struct MiniLock {
    lock: TtsLock,
    freed: RaceCell<u64>,
}

impl MiniLock {
    fn touch(&self) {
        assert_eq!(self.freed.get(), 0, "inflated lock used after free");
    }

    fn lock(&self) {
        self.touch();
        self.lock.lock();
    }

    /// A release is not one store: the real lock's protocol-switching
    /// release lets the next holder in and then keeps writing to the
    /// lock (it drains the queue it just validated), so this one
    /// touches the allocation again after handing it over.
    fn unlock(&self) {
        self.touch();
        self.lock.unlock();
        self.touch();
    }

    fn free(&self) {
        self.freed.set(1);
    }
}

/// Inflations one [`slab_reclaim`] run can perform: one per flat
/// release, at most one per lock/unlock pair.
const MINI_HEAP: usize = 6;
/// Table entries: one live inflation plus one retire still pending per
/// worker thread.
const MINI_TABLE: usize = 3;

/// Shared state of the [`slab_reclaim`] miniature: the
/// [`arena_inflation`] slot word plus an index field, with the inflated
/// lock reached through a pointer table and a fresh allocation per
/// inflation, *freed* at deflation — the reclamation protocol of
/// `crates/service/src/slab.rs`, writer mutex and free list included.
struct MiniSlab {
    word: AtomicU64,
    /// The pointer table: 0 is null, `p + 1` points at `heap[p]`.
    table: [AtomicU64; MINI_TABLE],
    /// Writer side: retired indices awaiting reuse, and indices ever
    /// issued.
    writer: Mutex<(Vec<u64>, u64)>,
    heap: [MiniLock; MINI_HEAP],
    /// Next unallocated `heap` slot.
    next: AtomicU64,
    payload: RaceCell<u64>,
}

/// How [`MiniSlab::acquire`] won.
enum SlabHold {
    Flat,
    /// Through `heap[.0]`.
    Inflated(usize),
}

impl MiniSlab {
    const HELD: u64 = 1;
    const INFLATED: u64 = 2;
    const INDEX_SHIFT: u32 = 2;
    const INDEX_MASK: u64 = 3 << Self::INDEX_SHIFT;
    const REF_ONE: u64 = 16;
    const REF_MASK: u64 = !15;

    fn index(w: u64) -> usize {
        ((w & Self::INDEX_MASK) >> Self::INDEX_SHIFT) as usize
    }

    /// The table read: the registered acquirer's wait-free lookup.
    fn lookup(&self, idx: usize) -> usize {
        // order: Acquire — pairs with the inflater's Release entry
        // store, as in `Slab::get`.
        let p = self.table[idx].load(Ordering::Acquire);
        assert_ne!(p, 0, "registered slab index was retired");
        (p - 1) as usize
    }

    fn acquire(&self) -> SlabHold {
        loop {
            // order: Acquire — pairs with the inflation publish and the
            // releaser's store, as in the native arena.
            let w = self.word.load(Ordering::Acquire);
            if w & Self::INFLATED != 0 {
                // Regression mutant `lookup_before_register`: read the
                // table *before* the registration CAS. A deflation and
                // a re-inflation that reuses the index in between leave
                // the word bit-identical, the stale CAS succeeds, and
                // the hoisted pointer is the previous era's freed lock.
                #[cfg(conc_check_mutant)]
                let hoisted = reactive_api::kernel::mutant("lookup_before_register")
                    .then(|| self.lookup(Self::index(w)));
                // order: AcqRel — the registration is the consensus
                // against the demotion CAS on the same word, and its
                // Acquire half is what makes the lookup below see the
                // entry of the era it registered on.
                if self
                    .word
                    .compare_exchange(w, w + Self::REF_ONE, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // Lookup after registration: the count now pins it.
                #[cfg(not(conc_check_mutant))]
                let p = self.lookup(Self::index(w));
                #[cfg(conc_check_mutant)]
                let p = hoisted.unwrap_or_else(|| self.lookup(Self::index(w)));
                self.heap[p].lock();
                return SlabHold::Inflated(p);
            }
            if w & Self::HELD == 0 {
                // order: AcqRel — winning the flat word is the lock
                // acquisition itself.
                if self
                    .word
                    .compare_exchange(w, w | Self::HELD, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return SlabHold::Flat;
                }
                continue;
            }
            thread::yield_now();
        }
    }

    fn release(&self, hold: SlabHold) {
        match hold {
            SlabHold::Flat => {
                // Inflation threshold 0: every flat release inflates,
                // so each deflation is followed by a re-inflation that
                // reuses a retired index when one is free.
                // order: Relaxed — a unique slot number is all we need.
                let p = self.next.fetch_add(1, Ordering::Relaxed);
                assert!((p as usize) < MINI_HEAP, "miniature heap exhausted");
                let idx = {
                    let mut w = self.writer.lock().expect("writer poisoned");
                    let idx = w.0.pop().unwrap_or_else(|| {
                        w.1 += 1;
                        w.1 - 1
                    });
                    assert!((idx as usize) < MINI_TABLE, "miniature table exhausted");
                    // order: Release — publishes the fresh lock to
                    // lookups.
                    self.table[idx as usize].store(p + 1, Ordering::Release);
                    idx
                };
                // order: Release — publishes the entry the INFLATED bit
                // points acquirers at (ref 0), ending our flat hold.
                self.word.store(
                    Self::INFLATED | (idx << Self::INDEX_SHIFT),
                    Ordering::Release,
                );
            }
            SlabHold::Inflated(p) => loop {
                // order: Relaxed — arbitration is via the CASes.
                let w = self.word.load(Ordering::Relaxed);
                if w & Self::REF_MASK == Self::REF_ONE {
                    // Deflation threshold 1: our registration is the
                    // only one, demote.
                    // order: AcqRel — the demotion consensus.
                    if self
                        .word
                        .compare_exchange(w, 0, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        // Retire after the demotion CAS: null the entry
                        // and only then offer its index for reuse, so
                        // an inflation racing this window takes another
                        // index instead of being clobbered.
                        {
                            let mut wr = self.writer.lock().expect("writer poisoned");
                            // order: Relaxed — nobody may read the
                            // entry until an inflation refills it.
                            self.table[Self::index(w)].store(0, Ordering::Relaxed);
                            wr.0.push(Self::index(w) as u64);
                        }
                        // ...release the kernel lock ourselves...
                        self.heap[p].unlock();
                        // ...and only then free it.
                        self.heap[p].free();
                        return;
                    }
                    continue;
                }
                // Release, then deregister: the unlock keeps touching
                // the lock after it lets the next holder in, and while
                // we stay registered that holder reads a count of 2 and
                // cannot deflate — hence cannot free — it under us.
                self.heap[p].unlock();
                let mut w = w;
                // order: Release — orders our last touch of the lock
                // before the demotion CAS that may now succeed.
                while let Err(now) = self.word.compare_exchange(
                    w,
                    w - Self::REF_ONE,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    w = now;
                }
                return;
            },
        }
    }

    fn pass(&self) {
        let hold = self.acquire();
        let v = self.payload.get();
        self.payload.set(v + 1);
        self.release(hold);
    }
}

/// Miniature of the inflated-lock slab's reclamation argument
/// (`crates/service/src/slab.rs`): lookup after registration, retire
/// after the demotion CAS, free after the deflater's own release,
/// deregistration only after a release that keeps touching the lock
/// past its hand-over, re-inflation reusing the index. The main
/// thread's first passage inflates; two threads of two passages each
/// then churn through deflate/re-inflate cycles while a liveness cell
/// per allocation catches any touch of a freed lock.
fn slab_reclaim(cfg: Config) -> Report {
    explore(
        "slab_reclaim",
        cfg,
        Arc::new(|| {
            let slab = Arc::new(MiniSlab {
                word: AtomicU64::new(0),
                table: std::array::from_fn(|_| AtomicU64::new(0)),
                writer: Mutex::new((Vec::new(), 0)),
                heap: std::array::from_fn(|_| MiniLock {
                    lock: TtsLock::new(),
                    freed: RaceCell::new("inflated lock memory", 0u64),
                }),
                next: AtomicU64::new(0),
                payload: RaceCell::new("slab payload", 0u64),
            });
            slab.pass();
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let s = slab.clone();
                    thread::spawn(move || {
                        for _ in 0..2 {
                            s.pass();
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            let hold = slab.acquire();
            assert_eq!(slab.payload.get(), 5, "an increment was lost");
            slab.release(hold);
        }),
    )
}
