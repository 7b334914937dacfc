//! The native threaded executor: real threads, real kernel-backed
//! reactive locks, lock inflation *and deflation*.
//!
//! Where [`crate::exec`] simulates the arena under virtual time (and
//! drives every CI-gated claim), this executor runs it for real: the
//! slot word *is* the lock in the cold path, and a hot object is
//! **inflated** — promoted to a full [`reactive_native::ReactiveLock`]
//! whose switching kernel then adapts between its TTS and queue
//! protocols on its own. The JVM's thin/fat monitor split is the same
//! shape; here the fat lock is the paper's reactive lock.
//!
//! Promotion protocol (the step that must not break mutual exclusion):
//! only the thread that currently owns the flat `HELD` bit may inflate.
//! At release time, instead of clearing `HELD`, it builds the reactive
//! lock, installs it in the slab, and publishes `INFLATED | index` in a
//! single release store, carrying the per-object bits
//! ([`slot::carry_bits`]) of the word it replaces. Flat acquisition is
//! a CAS that asserts `INFLATED` is clear in the expected word, so no
//! thread can win the flat path once the word is inflated, and the word
//! is only replaced while its owner holds it — there is never a moment
//! with two live lock identities.
//!
//! The flat path is the cold path of a million-object arena, so it is
//! built to cost its two atomic RMWs. [`NativeService::acquire`] is one
//! loop, always inlined into its caller, so a free word's win is one
//! load and one CAS in line. The guard keeps the word its winning CAS
//! installed, and below the inflation threshold the release CASes that
//! exact word to its folded, `HELD`-cleared successor without reloading
//! it. Only the owner clears `HELD`; while it holds, the word moves only
//! when evidence arrives (a spinner's `WAITERS` registration). A failed
//! release CAS therefore means evidence arrived, and the reloading
//! release folds it in from the word the CAS returned, so no
//! registration is lost.
//!
//! Contention evidence accrues at *release* time through the `WAITERS`
//! bit: a flat spinner CASes `WAITERS` into the word once per hold, the
//! releasing owner folds it into the contended streak, and the next
//! winner either clears it (uncontended win) or — having itself lost a
//! CAS or seen the word held — re-asserts it into its own hold.
//! Observing at release (rather than at the winner's acquire, as the
//! virtual executor can afford to) defeats the capture effect: a
//! releaser that immediately re-wins its own lock would otherwise reset
//! acquirer-observed streaks forever. The fought-win re-assert covers
//! the opposite degenerate schedule, a single core draining a backlog
//! of descheduled waiters, where no spinner is ever running *during* a
//! hold to register itself. Streaks still miss one pathology — capture
//! on an oversubscribed host, where the starved spinner runs once per
//! scheduling quantum and the captor's thousands of calm releases in
//! between wipe the streak — so a fought win whose measured spin wait
//! crossed `LONG_WAIT_SPINS` seeds the full inflation streak in its
//! winning CAS ([`slot::saturate_contended`]): the paper's reactive
//! rule, switching on observed waiting time, and the winner holds the
//! lock until its own release reads the evidence.
//!
//! Demotion (deflation) is the reverse door, and what makes the slot
//! word's `MODE`/calm-streak bits real on the native path. Inflated
//! acquirers first *register* on the slot word (a `+= REF_ONE` CAS
//! while `INFLATED` is set) before touching the slab, so the word's
//! in-flight count pins the slab entry. A releasing holder whose
//! registration is the only one (`inflight == 1`) observes a calm
//! grant; once the kernel itself has settled back into its TTS protocol
//! and the calm streak crosses `DEFLATE_STREAK`, the holder asks the
//! shard limiter for a token and attempts the demotion CAS: the exact
//! word it loaded (ref == 1, its own) against the flat
//! [`slot::deflated`] word. Registration and demotion arbitrate on the
//! same word, so a racing acquirer either registers first (the demotion
//! CAS fails, the holder releases normally) or loses its registration
//! CAS (and retries against the now-flat word). On success the holder
//! retires the slab entry to a free list for the next inflation to
//! reuse, releases the kernel lock — provably uncontended: it held the
//! lock, so every earlier holder finished, and ref == 1 means no
//! registered acquirer is en route — and only then frees it. Every
//! other release hands the kernel lock over *first* and deregisters
//! afterwards: a kernel release that switches protocols still writes to
//! the lock after the store that lets the next holder in, and a
//! registration that outlives the whole call keeps that holder from
//! deflating the lock under it. That same registration is all an
//! acquirer needs to read the slab: the lookup is two loads from a
//! table whose safety argument lives in `slab.rs`.
//!
//! Deadlines are honest but shallow here. The deadline clock starts the
//! first time a call actually has to *wait* — it loses a CAS or finds
//! the word held — so a call that wins on its first pass, flat or
//! inflated, never reads the clock (a zero deadline still refuses
//! inflated admission outright), and a deadline is measured from that
//! first lost race rather than from call entry: later by the few
//! nanoseconds one pass takes. From then on it bounds the flat spin
//! (checked every `DEADLINE_CHECK_SPINS` iterations, so its precision
//! is a few microseconds, not a few nanoseconds) and is re-checked at
//! inflated-path *admission*; once a thread registers, it is committed
//! (the sim's abortable queues model mid-wait abort).
//! Inflations and deflations are gated by the same per-shard
//! [`TokenBucket`] as simulated switches, and each shard with a limiter
//! checks the [`crate::oracle`]'s no-stampede invariant as its switches
//! commit, keeping only the commit times that check reads.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use reactive_native::reactive::{PROTO_QUEUE, PROTO_TTS};
use reactive_native::ReactiveLock;

use crate::arena::{Footprint, ObjectArena};
use crate::exec::ArenaMode;
use crate::limiter::{LimiterConfig, TokenBucket};
use crate::oracle::{Stampede, StampedeCheck};
use crate::slab::{Retired, Slab};
use crate::slot;

/// Contended flat grants (streak) after which the releasing owner
/// inflates the object.
const INFLATE_STREAK: u8 = 3;
/// Calm inflated grants (streak) after which a releasing holder — with
/// the kernel already back in its TTS protocol — deflates the object.
const DEFLATE_STREAK: u8 = 8;
/// Flat spin iterations between deadline checks / yields; a power of
/// two so the cadence test is a mask, and small enough that deadline
/// precision stays in the low microseconds.
const DEADLINE_CHECK_SPINS: u32 = 64;
/// Initial and maximum per-iteration backoff (in `spin_loop` hints) of
/// the flat spin; doubling between iterations keeps the contended CAS
/// rate — and therefore cache-line bouncing — bounded.
const BACKOFF_INIT: u32 = 4;
const BACKOFF_MAX: u32 = 256;
/// Flat spin iterations past which a wait is *pathological* and the
/// eventual winner seeds the full inflation evidence at once (the
/// paper's reactive rule applied to the arena: switch on observed
/// waiting time). Streaks alone cannot catch lock capture on an
/// oversubscribed host — a starved spinner gets scheduled roughly once
/// per quantum, so the capturing holder's thousands of uncontended
/// releases in between wipe the streak faster than the single
/// contended release per quantum can build it, while the spinner's
/// wait grows without bound. At 8 yield cadences of maximum backoff
/// this is orders of magnitude past any healthy multi-core wait for
/// the microsecond-scale holds the service targets.
const LONG_WAIT_SPINS: u32 = 8 * DEADLINE_CHECK_SPINS;

/// Per-shard native state: the switch limiter and the online
/// no-stampede check of the inflations and deflations it lets through
/// (see [`StampedeCheck`]), or neither.
struct ShardNative {
    limiter: Option<(TokenBucket, StampedeCheck)>,
}

impl ShardNative {
    /// Ask the limiter for a switch token at `now` (always granted
    /// without a limiter).
    fn try_token(&mut self, now: u64) -> bool {
        self.limiter
            .as_mut()
            .is_none_or(|(b, _)| b.try_acquire(now))
    }

    /// Hand a switch committed at `now` to the stampede check.
    fn commit(&mut self, now: u64) {
        if let Some((_, check)) = &mut self.limiter {
            check.push(now);
        }
    }
}

/// One `acquire` call's deadline: a budget whose clock starts at the
/// call's first lost race (see the module docs).
struct Deadline {
    budget: Option<Duration>,
    limit: Option<Instant>,
}

impl Deadline {
    /// Start the clock, if there is a budget and it is not running yet.
    fn start(&mut self) {
        if let (Some(d), None) = (self.budget, self.limit) {
            self.limit = Some(Instant::now() + d);
        }
    }

    /// Whether the budget is spent. Before the clock starts only a zero
    /// budget is.
    fn expired(&self) -> bool {
        match self.limit {
            Some(t) => Instant::now() >= t,
            None => self.budget.is_some_and(|d| d.is_zero()),
        }
    }
}

/// A multi-tenant arena served by real threads.
pub struct NativeService {
    arena: ObjectArena,
    slab: Slab,
    shards: Vec<Mutex<ShardNative>>,
    mode: ArenaMode,
    /// Contended streak at which a releasing owner inflates, fixed by
    /// `mode`: `u8::MAX`, beyond any streak, in the regime that never
    /// inflates. A field rather than a `match`, so the inlined release
    /// tests it with one compare.
    inflate_at: u8,
    epoch: Instant,
    aborts: AtomicU64,
    inflations: AtomicU64,
    deflations: AtomicU64,
}

/// Outcome of a demotion attempt (see [`NativeService::try_deflate`]).
enum Deflate {
    /// The flat word is published and the slab entry retired into the
    /// carried handle.
    Done(Retired),
    /// The shard limiter denied the token.
    Denied,
    /// A racing registration changed the word (carried here from the
    /// failed CAS).
    Raced(u64),
}

/// RAII guard for a native acquisition; releases on drop.
pub struct NativeGuard<'a> {
    svc: &'a NativeService,
    object: u64,
    hold: Hold<'a>,
}

/// How a [`NativeGuard`] holds its object, so its release takes the
/// matching door.
enum Hold<'a> {
    /// Won on the flat word: the word this hold's winning CAS installed,
    /// which its release CASes against.
    Flat(u64),
    /// Admitted through the inflated reactive lock. The borrow is pinned
    /// by the guard's registration on the slot word, not by `'a`; it is
    /// never used after the release that deregisters. The token is
    /// only ever moved out by that release, so the guard has no drop
    /// glue of its own for the flat release to carry.
    Inflated(
        &'a ReactiveLock,
        ManuallyDrop<reactive_native::reactive::Held>,
    ),
}

impl NativeService {
    /// A fresh adaptive arena of flat (deflated, TTS-mode) objects.
    pub fn new(objects: u64, shards: u32, limiter: Option<LimiterConfig>) -> Self {
        Self::with_mode(objects, shards, limiter, ArenaMode::Adaptive)
    }

    /// A fresh arena pinned to a protocol-selection regime: `Adaptive`
    /// inflates hot objects and deflates calm ones; `StaticTts` never
    /// inflates (every object stays a flat TTS-like spin word);
    /// `StaticQueue` inflates every object on its first release and
    /// never deflates.
    pub fn with_mode(
        objects: u64,
        shards: u32,
        limiter: Option<LimiterConfig>,
        mode: ArenaMode,
    ) -> Self {
        NativeService {
            arena: ObjectArena::new(objects, shards),
            slab: Slab::new(),
            shards: (0..shards)
                .map(|shard| {
                    Mutex::new(ShardNative {
                        limiter: limiter
                            .map(|cfg| (TokenBucket::new(cfg), StampedeCheck::new(shard, cfg))),
                    })
                })
                .collect(),
            mode,
            inflate_at: match mode {
                ArenaMode::Adaptive => INFLATE_STREAK,
                ArenaMode::StaticQueue => 0,
                ArenaMode::StaticTts => u8::MAX,
            },
            epoch: Instant::now(),
            aborts: AtomicU64::new(0),
            inflations: AtomicU64::new(0),
            deflations: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since service start (the clock switch commits are
    /// checked against).
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Acquire `object`, optionally bounded by a deadline. `None` means
    /// the deadline expired before the acquisition was admitted.
    ///
    /// Always inlined, so a free flat word's win is one load and one
    /// CAS in the caller and the guard comes back without a call. Left
    /// to its heuristic, the compiler inlines the loop at some call
    /// sites and not at others, which costs the flat path about 15 ns.
    #[inline(always)]
    pub fn acquire(&self, object: u64, deadline: Option<Duration>) -> Option<NativeGuard<'_>> {
        let mut deadline = Deadline {
            budget: deadline,
            limit: None,
        };
        let mut spins: u32 = 0;
        let mut backoff: u32 = BACKOFF_INIT;
        // True once this call has lost a CAS or seen the word held: the
        // eventual win then pre-seeds WAITERS into its own hold, so a
        // drained backlog keeps the streak alive even when the waiters
        // behind it are descheduled (the single-core case, where no
        // spinner is running during a short hold to register itself).
        let mut fought = false;
        loop {
            // Acquire: pairs with the inflation publish store_release,
            // so an INFLATED word guarantees the slab entry it indexes
            // is visible, and a clear HELD bit guarantees the previous
            // holder's critical section is.
            let word = self.arena.load_acquire(object);
            if word & slot::INFLATED != 0 {
                // Admission check: registering commits us, so the
                // deadline is tested before the registration CAS.
                if deadline.expired() {
                    // order: Relaxed — statistics counter.
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                debug_assert!(
                    slot::inflight(word) < u32::from(u16::MAX),
                    "in-flight refcount saturated"
                );
                // Register before touching the slab: the in-flight
                // count pins the entry against deflation (the demotion
                // CAS requires the count to be the holder's own 1). A
                // failed CAS means the word moved — possibly deflated —
                // so reload and re-dispatch.
                if self.arena.cas(object, word, word + slot::REF_ONE).is_err() {
                    deadline.start();
                    continue;
                }
                // SAFETY: the registration CAS above succeeded on a
                // word carrying `INFLATED | index(word)`, and the guard
                // returned below stays registered until its release.
                let lock = unsafe { self.slab.get(slot::index(word)) };
                let held = lock.acquire();
                return Some(NativeGuard {
                    svc: self,
                    object,
                    hold: Hold::Inflated(lock, ManuallyDrop::new(held)),
                });
            }
            if word & slot::HELD == 0 {
                // Win the flat path. An uncontended win consumes the
                // WAITERS evidence (the releaser already folded it into
                // the streaks); a fought win re-asserts it, charging
                // its own hold with the contention it just drained. A
                // win after a *pathological* wait additionally seeds
                // the full inflation streak: the winner holds the lock
                // until its own release reads that evidence, so a
                // capturing peer gets no window to wipe it.
                let next = if fought {
                    let w = if spins >= LONG_WAIT_SPINS {
                        slot::saturate_contended(word, INFLATE_STREAK)
                    } else {
                        word
                    };
                    w | slot::HELD | slot::WAITERS
                } else {
                    (word | slot::HELD) & !slot::WAITERS
                };
                if self.arena.cas(object, word, next).is_ok() {
                    return Some(NativeGuard {
                        svc: self,
                        object,
                        hold: Hold::Flat(next),
                    });
                }
                fought = true;
                deadline.start();
                continue;
            }
            fought = true;
            deadline.start();
            // Held by someone else: register this hold's contention
            // evidence once, then spin. The releaser reads WAITERS as
            // "this grant was contended".
            if word & slot::WAITERS == 0 {
                let _ = self.arena.cas(object, word, word | slot::WAITERS);
                continue;
            }
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            backoff = (backoff * 2).min(BACKOFF_MAX);
            spins = spins.wrapping_add(1);
            if spins & (DEADLINE_CHECK_SPINS - 1) == 0 {
                // Deadline checks and yields ride the same cadence:
                // Instant::now() on every iteration would dominate the
                // contended spin, and the yield keeps progress on
                // oversubscribed hosts.
                if deadline.expired() {
                    // order: Relaxed — statistics counter.
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                std::thread::yield_now();
            }
        }
    }

    /// Release a flat hold whose winning CAS installed `installed`.
    ///
    /// Inlined: below the inflation threshold the release is one CAS of
    /// that exact word to its folded, `HELD`-cleared successor — no
    /// reload. Only the owner clears `HELD`, so while it holds, the word
    /// moves only through evidence arriving: a spinner's `WAITERS`
    /// registration (or a test's direct store). A failed CAS therefore
    /// means evidence arrived, and [`Self::release_flat_slow`] folds it
    /// in from the word the CAS saw.
    #[inline]
    fn release_flat(&self, object: u64, installed: u64) {
        if !self.inflates_at(installed) {
            let next = slot::observe(installed, installed & slot::WAITERS != 0) & !slot::HELD;
            match self.arena.cas(object, installed, next) {
                Ok(_) => return,
                Err(word) => return self.release_flat_slow(object, word),
            }
        }
        self.release_flat_slow(object, self.arena.load(object));
    }

    /// Whether a flat release of `word` inflates instead of clearing
    /// `HELD`.
    fn inflates_at(&self, word: u64) -> bool {
        // The inflation decision reads the streak as it stood when the
        // release began (the evidence that crossed the threshold), not
        // post-observation — so a streak seeded directly (tests) and
        // one accrued through WAITERS behave identically.
        slot::contended_streak(word) >= self.inflate_at
    }

    /// The rest of [`Self::release_flat`], from the word as it now
    /// stands: fold this hold's `WAITERS` evidence into the streaks and
    /// clear `HELD` — or, if the object has proven hot, inflate.
    #[inline(never)]
    fn release_flat_slow(&self, object: u64, mut word: u64) {
        debug_assert!(word & slot::HELD != 0, "releasing an unheld flat object");
        if self.inflates_at(word) {
            self.try_inflate(object, word);
            return;
        }
        loop {
            let contended = word & slot::WAITERS != 0;
            let next = slot::observe(word, contended) & !slot::HELD;
            match self.arena.cas(object, word, next) {
                Ok(_) => return,
                // A spinner registered WAITERS between our load and
                // CAS; retry against the updated word so the evidence
                // is not lost.
                Err(w) => word = w,
            }
        }
    }

    /// Attempt the promotion while owning `HELD`. Publishes either the
    /// inflated word (token granted) or the cleared-streak backoff word
    /// (token denied); either way the flat hold ends.
    fn try_inflate(&self, object: u64, word: u64) {
        let shard = self.arena.shard_of(object);
        let mut sh = self.shards[shard as usize].lock().expect("shard poisoned");
        // Stamped under the shard lock, so a shard's commits are in
        // time order.
        let now = self.now_ns();
        if !sh.try_token(now) {
            // Denied: back off by clearing the evidence (and HELD). A
            // blind store may drop a concurrent WAITERS registration,
            // which only costs one hold's worth of already-discarded
            // evidence.
            self.arena
                .store_release(object, slot::clear_streaks(word) & !slot::HELD);
            return;
        }
        let index = self.slab.insert(
            ReactiveLock::builder()
                // Hot from birth: start in the queue protocol; the
                // kernel will switch back if it calms down.
                .initial_protocol(PROTO_QUEUE)
                .build(),
        );
        sh.commit(now);
        drop(sh);
        // order: Relaxed — statistics counter.
        self.inflations.fetch_add(1, Ordering::Relaxed);
        // Publish the inflated identity and drop HELD in one release
        // store, carrying the per-object bits (HOT) of the word this
        // replaces; we own HELD, so the only concurrent writes are
        // conditional WAITERS CASes, which fail once this word lands,
        // and Release orders the slab insert above before the word
        // that indexes it.
        self.arena.store_release(
            object,
            slot::with_index(
                slot::with_mode(slot::carry_bits(word), slot::MODE_QUEUE),
                index,
            ),
        );
    }

    /// The word an inflated release leaves behind, registration still
    /// counted: the mode field synced to the kernel's protocol and the
    /// grant folded in as calm (ours is the only registration: no other
    /// acquirer is holding, queued, or en route) or contended.
    fn observe_inflated(word: u64, lock: &ReactiveLock) -> u64 {
        debug_assert!(
            word & slot::INFLATED != 0,
            "inflated release on a flat word"
        );
        debug_assert!(slot::inflight(word) >= 1, "release without a registration");
        let kmode = if lock.current_protocol() == PROTO_TTS {
            slot::MODE_TTS
        } else {
            slot::MODE_QUEUE
        };
        if slot::mode(word) == kmode {
            slot::observe(word, slot::inflight(word) != 1)
        } else {
            // The kernel switched protocols since the last sync: reset
            // the streaks exactly like the kernel's own post-commit
            // policy reset.
            slot::with_mode(word, kmode)
        }
    }

    /// Release an inflated hold: first, still holding, deflate the
    /// object back to a flat word if it has proven durably calm;
    /// otherwise release the kernel lock and only then deregister, in
    /// the CAS that also syncs the word's mode field and folds in the
    /// calm/contended observation. The order matters: a kernel release
    /// that switches protocols keeps writing to the lock after handing
    /// it over, and until this thread deregisters the next holder sees
    /// `inflight >= 2` and cannot deflate — hence cannot free — it.
    /// A deflating release returns the retired lock, already released,
    /// for the caller to free once this call's borrow of it has ended.
    fn release_inflated(
        &self,
        object: u64,
        lock: &ReactiveLock,
        held: reactive_native::reactive::Held,
    ) -> Option<Retired> {
        let mut word = self.arena.load(object);
        // Denied by the limiter: back off by clearing the evidence
        // instead of observing, so the object re-accumulates calm
        // before asking again.
        let mut denied = false;
        while self.mode == ArenaMode::Adaptive
            && slot::inflight(word) == 1
            && lock.current_protocol() == PROTO_TTS
            && slot::calm_streak(Self::observe_inflated(word, lock)) >= DEFLATE_STREAK
        {
            match self.try_deflate(object, word, lock) {
                // The flat word is published and the slab entry
                // retired; finish by releasing the kernel lock —
                // provably uncontended (we held it, and ref == 1 meant
                // no registered acquirer was en route).
                Deflate::Done(retired) => {
                    lock.release(held);
                    return Some(retired);
                }
                Deflate::Denied => {
                    denied = true;
                    break;
                }
                // A racing registration changed the word; re-decide
                // against it (it is no longer calm).
                Deflate::Raced(w) => word = w,
            }
        }
        lock.release(held);
        // The deregistration rides the same CAS as the streak update,
        // so the word changes on every release and a stale registration
        // CAS can never succeed late. Until it lands the next holder may
        // already be releasing: both sides retry on the word.
        loop {
            let observed = if denied {
                slot::clear_streaks(word)
            } else {
                Self::observe_inflated(word, lock)
            };
            match self.arena.cas(object, word, observed - slot::REF_ONE) {
                Ok(_) => return None,
                Err(w) => word = w,
            }
        }
    }

    /// Attempt the demotion CAS under a shard-limiter token. On
    /// [`Deflate::Done`] the flat word is published and the slab entry
    /// retired; the caller still holds the kernel lock and must
    /// release it before dropping the handle. The caller keeps sole
    /// responsibility for deregistering on the other two outcomes.
    fn try_deflate(&self, object: u64, word: u64, lock: &ReactiveLock) -> Deflate {
        let shard = self.arena.shard_of(object);
        let mut sh = self.shards[shard as usize].lock().expect("shard poisoned");
        let now = self.now_ns();
        if !sh.try_token(now) {
            return Deflate::Denied;
        }
        // The demotion CAS: the exact word we based the decision on
        // (ref == 1, ours) against the flat TTS word. A racing
        // registration bumps the count first and fails this CAS — the
        // word is the arbiter.
        match self.arena.cas(object, word, slot::deflated(word)) {
            Ok(_) => {
                sh.commit(now);
                drop(sh);
                // order: Relaxed — statistics counter.
                self.deflations.fetch_add(1, Ordering::Relaxed);
                // SAFETY: the demotion CAS just succeeded against a
                // word whose only registration was this holder's, and
                // the caller releases `lock` before dropping the handle.
                let retired = unsafe { self.slab.retire(slot::index(word)) };
                debug_assert!(retired.is(lock));
                Deflate::Done(retired)
            }
            // A registration won the race; the token is burned (the
            // limiter meters attempts, and a lost demotion race is
            // rare enough not to matter for the window bound).
            Err(w) => Deflate::Raced(w),
        }
    }

    /// `object`'s slot word as it stands (a relaxed load; layout in
    /// [`slot`]), for diagnostics.
    pub fn slot_word(&self, object: u64) -> u64 {
        self.arena.load(object)
    }

    /// Total deadline aborts so far.
    pub fn aborts(&self) -> u64 {
        // order: Relaxed — statistics counter.
        self.aborts.load(Ordering::Relaxed)
    }

    /// Objects inflated so far (cumulative; reuse of a retired slab
    /// entry counts as a new inflation).
    pub fn inflations(&self) -> u64 {
        // order: Relaxed — statistics counter.
        self.inflations.load(Ordering::Relaxed)
    }

    /// Objects deflated back to a flat word so far.
    pub fn deflations(&self) -> u64 {
        // order: Relaxed — statistics counter.
        self.deflations.load(Ordering::Relaxed)
    }

    /// Currently live inflated locks (inflations minus deflations, as
    /// counted in the slab).
    pub fn live_inflated(&self) -> u64 {
        self.slab.live()
    }

    /// Physical slab length including retired entries — stays at the
    /// peak live count when the free list recycles, which is how the
    /// reuse claim is tested.
    pub fn slab_entries(&self) -> u64 {
        self.slab.entries()
    }

    /// Kernel-internal protocol switches across all inflated locks,
    /// live and retired.
    pub fn lock_switches(&self) -> u64 {
        self.slab.lock_switches()
    }

    /// The no-stampede verdict: violations the shards caught as their
    /// inflations and deflations committed (empty = clean, and always
    /// empty without a limiter).
    pub fn stampedes(&self) -> Vec<Stampede> {
        let mut out = Vec::new();
        for sh in &self.shards {
            let sh = sh.lock().expect("shard poisoned");
            out.extend(sh.limiter.iter().flat_map(|(_, c)| c.stampedes()));
        }
        out
    }

    /// Measured footprint: slots + shard fixed state + live inflated
    /// locks, the slab's table and the stampede checks' look-backs.
    /// Deflation shrinks `hot_bytes`: a retired entry frees its lock and
    /// leaves only its table cell and a free-list index awaiting reuse.
    pub fn footprint(&self) -> Footprint {
        let live = self.slab.live();
        let check_bytes: u64 = self
            .shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("shard poisoned");
                s.limiter.as_ref().map_or(0, |(_, c)| c.heap_bytes())
            })
            .sum();
        Footprint {
            objects: self.arena.objects(),
            slot_bytes: self.arena.resident_bytes(),
            shard_bytes: self.shards.len() as u64
                * std::mem::size_of::<Mutex<ShardNative>>() as u64,
            hot_bytes: live * std::mem::size_of::<ReactiveLock>() as u64
                + self.slab.table_bytes()
                + check_bytes,
            hot_objects: live,
        }
    }
}

impl Drop for NativeGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        match &mut self.hold {
            Hold::Flat(installed) => self.svc.release_flat(self.object, *installed),
            Hold::Inflated(lock, held) => {
                // SAFETY: the token is taken here only, and the guard is
                // gone once `drop` returns, so nothing reads it again.
                let held = unsafe { ManuallyDrop::take(held) };
                // A deflating release hands back the retired lock; it is
                // freed here, after the call that borrowed it returned.
                drop(self.svc.release_inflated(self.object, lock, held));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed `object`'s contended streak to the inflation threshold
    /// while holding it flat (the single-threaded stand-in for streaks
    /// accrued through real WAITERS contention — which the stress tests
    /// exercise with racing threads).
    fn seed_hot(svc: &NativeService, object: u64, extra_bits: u64) {
        let _g = svc.acquire(object, None).unwrap();
        let mut w = svc.arena.load(object) | extra_bits;
        for _ in 0..INFLATE_STREAK {
            w = slot::observe(w, true);
        }
        svc.arena.store(object, w);
    }

    #[test]
    fn flat_acquire_release_roundtrip() {
        let svc = NativeService::new(8, 2, None);
        {
            let _g = svc.acquire(3, None).unwrap();
            assert_ne!(svc.arena.load(3) & slot::HELD, 0);
        }
        assert_eq!(svc.arena.load(3) & slot::HELD, 0);
        assert_eq!(svc.inflations(), 0);
    }

    #[test]
    fn contended_object_inflates_once() {
        let svc = NativeService::new(1, 1, None);
        seed_hot(&svc, 0, 0);
        assert_eq!((svc.inflations(), svc.deflations()), (1, 0));
        // Subsequent acquisitions go through the reactive lock.
        let g = svc.acquire(0, None).unwrap();
        assert!(matches!(g.hold, Hold::Inflated(..)));
    }

    #[test]
    fn inflation_carries_the_hot_bit() {
        let svc = NativeService::new(1, 1, None);
        seed_hot(&svc, 0, slot::HOT);
        let w = svc.arena.load(0);
        assert_ne!(w & slot::INFLATED, 0);
        // Regression: the publish word used to be rebuilt from 0,
        // silently dropping per-object state like the hot-stat marker.
        assert_ne!(w & slot::HOT, 0, "inflation must carry the HOT bit");
        assert_eq!(slot::mode(w), slot::MODE_QUEUE);
    }

    #[test]
    fn waiters_evidence_accrues_at_release() {
        let svc = NativeService::new(1, 1, None);
        for expected in 1..=2u8 {
            let _g = svc.acquire(0, None).unwrap();
            // A spinner would CAS WAITERS in; do it by hand (the real
            // races are covered by the stress tests).
            let w = svc.arena.load(0);
            svc.arena.store(0, w | slot::WAITERS);
            drop(_g);
            assert_eq!(slot::contended_streak(svc.arena.load(0)), expected);
        }
        // The next winner consumes the WAITERS bit...
        let w = svc.arena.load(0);
        svc.arena.store(0, w | slot::WAITERS);
        let g = svc.acquire(0, None).unwrap();
        assert_eq!(svc.arena.load(0) & slot::WAITERS, 0);
        drop(g);
        // ...so an uncontended hold resets the streak.
        assert_eq!(slot::contended_streak(svc.arena.load(0)), 0);
        assert_eq!(slot::calm_streak(svc.arena.load(0)), 1);
    }

    #[test]
    fn expired_deadline_aborts_without_acquiring() {
        let svc = NativeService::new(1, 1, None);
        let _g = svc.acquire(0, None).unwrap();
        let budget = Duration::from_micros(200);
        let t0 = Instant::now();
        let r = svc.acquire(0, Some(budget));
        let waited = t0.elapsed();
        assert!(r.is_none());
        assert_eq!(svc.aborts(), 1);
        // The clock starts at the first lost race, a pass after entry:
        // the abort comes neither early nor unboundedly late.
        assert!(waited >= budget, "aborted after only {waited:?}");
        assert!(waited < Duration::from_millis(500), "took {waited:?}");
    }

    #[test]
    fn uncontended_acquires_with_a_deadline_succeed() {
        let svc = NativeService::new(2, 1, None);
        // Flat, then inflated: neither first pass has anything to wait
        // for, whatever the budget.
        seed_hot(&svc, 1, 0);
        for object in [0, 1] {
            for budget in [Duration::from_nanos(1), Duration::from_secs(1)] {
                let g = svc
                    .acquire(object, Some(budget))
                    .expect("nothing to wait for");
                assert_eq!(matches!(g.hold, Hold::Inflated(..)), object == 1);
            }
        }
        assert_eq!(svc.aborts(), 0);
    }

    #[test]
    fn zero_deadline_behaves_as_before_the_lazy_clock() {
        let svc = NativeService::new(2, 1, None);
        // A free flat word is won without looking at the budget...
        let g = svc
            .acquire(0, Some(Duration::ZERO))
            .expect("free flat word");
        // ...a held one aborts at the first cadence check...
        assert!(svc.acquire(0, Some(Duration::ZERO)).is_none());
        drop(g);
        // ...and inflated admission is refused outright, lock free or
        // not.
        seed_hot(&svc, 1, 0);
        assert!(svc.acquire(1, Some(Duration::ZERO)).is_none());
        assert_eq!(svc.aborts(), 2);
    }

    #[test]
    fn limiter_denial_defers_inflation() {
        let svc = NativeService::new(
            2,
            1,
            Some(LimiterConfig {
                burst: 1,
                period_ns: u64::MAX / 2,
            }),
        );
        for obj in [0u64, 1] {
            seed_hot(&svc, obj, 0);
        }
        // Only the first release got a token; the second backed off.
        assert_eq!(svc.inflations(), 1);
        assert_eq!(svc.arena.load(1) & slot::INFLATED, 0);
        assert_eq!(slot::contended_streak(svc.arena.load(1)), 0);
    }

    #[test]
    fn calm_inflated_object_deflates_and_slab_recycles() {
        let svc = NativeService::new(1, 1, None);
        seed_hot(&svc, 0, slot::HOT);
        assert_eq!(svc.live_inflated(), 1);
        // Solo polite traffic: the kernel settles back to TTS (empty-
        // queue acquisitions), the mode field syncs, and the calm
        // streak then walks up to the deflation threshold.
        for _ in 0..100 {
            drop(svc.acquire(0, None).unwrap());
            if svc.deflations() == 1 {
                break;
            }
        }
        assert_eq!(svc.deflations(), 1, "calm object never deflated");
        let w = svc.arena.load(0);
        assert_eq!(w & slot::INFLATED, 0);
        assert_eq!(slot::mode(w), slot::MODE_TTS);
        assert_ne!(w & slot::HOT, 0, "deflation must carry the HOT bit");
        assert_eq!(svc.live_inflated(), 0);
        assert_eq!(svc.slab_entries(), 1, "retired entry stays in the slab");
        // The flat word is a real lock again...
        drop(svc.acquire(0, None).unwrap());
        // ...and re-inflation reuses the retired entry instead of
        // growing the slab.
        seed_hot(&svc, 0, 0);
        assert_eq!(
            (svc.inflations(), svc.deflations()),
            (2, 1),
            "inflate + deflate + re-inflate"
        );
        assert_eq!(svc.live_inflated(), 1);
        assert_eq!(svc.slab_entries(), 1, "free list must recycle the entry");
    }

    #[test]
    fn switch_check_footprint_is_bounded_by_its_lookback() {
        // A limiter that never denies: a fresh token every nanosecond.
        let cfg = LimiterConfig {
            burst: 8,
            period_ns: 1,
        };
        let lookback_bytes = (u64::from(cfg.burst) + 65) * std::mem::size_of::<u64>() as u64;
        for (limiter, kept) in [(Some(cfg), lookback_bytes), (None, 0)] {
            let svc = NativeService::new(1, 1, limiter);
            // Inflate/deflate round trips, far more than the check keeps.
            while svc.inflations() + svc.deflations() <= 4_200 {
                seed_hot(&svc, 0, 0);
                while svc.live_inflated() == 1 {
                    drop(svc.acquire(0, None).unwrap());
                }
            }
            assert_eq!(svc.slab_entries(), 1);
            assert!(svc.stampedes().is_empty());
            // Nothing is live, so the hot side is the slab's one table
            // chunk plus the check's look-back — or nothing at all
            // without a limiter.
            let hot = svc.footprint().hot_bytes;
            assert_eq!(
                hot - svc.slab.table_bytes(),
                kept,
                "limiter {limiter:?}: hot side {hot} B"
            );
        }
    }

    #[test]
    fn static_tts_never_inflates() {
        let svc = NativeService::with_mode(1, 1, None, ArenaMode::StaticTts);
        seed_hot(&svc, 0, 0);
        assert_eq!(svc.inflations(), 0);
        assert_eq!(svc.arena.load(0) & slot::INFLATED, 0);
    }

    #[test]
    fn static_queue_inflates_on_first_release() {
        let svc = NativeService::with_mode(1, 1, None, ArenaMode::StaticQueue);
        drop(svc.acquire(0, None).unwrap());
        assert_eq!(svc.inflations(), 1);
        // And never deflates, however calm.
        for _ in 0..100 {
            drop(svc.acquire(0, None).unwrap());
        }
        assert_eq!(svc.deflations(), 0);
        assert_eq!(svc.live_inflated(), 1);
    }

    /// The flat release as it was before it CASed the installed word:
    /// reload, decide, fold, CAS in a loop. The differential test's
    /// reference.
    fn release_by_reload(svc: &NativeService, object: u64) {
        let mut word = svc.arena.load(object);
        if slot::contended_streak(word) >= svc.inflate_at {
            svc.try_inflate(object, word);
            return;
        }
        loop {
            let next = slot::observe(word, word & slot::WAITERS != 0) & !slot::HELD;
            match svc.arena.cas(object, word, next) {
                Ok(_) => return,
                Err(w) => word = w,
            }
        }
    }

    #[test]
    fn release_against_the_installed_word_matches_the_reloading_release() {
        let seeded = |w: u64| (0..INFLATE_STREAK).fold(w, |w, _| slot::observe(w, true));
        let calm = (0..15).fold(0, |w, _| slot::observe(w, false));
        // Words the object rests at before the hold: fresh, calm fixed
        // point, one short of inflating, and left with WAITERS by a
        // contended release.
        let starts = [
            0,
            calm,
            slot::observe(slot::observe(0, true), true),
            slot::observe(0, true) | slot::WAITERS,
        ];
        // What lands on the word mid-hold.
        type Mutation = (&'static str, fn(u64) -> u64);
        let mutations: [Mutation; 4] = [
            ("nothing", |w| w),
            ("WAITERS", |w| w | slot::WAITERS),
            ("HOT", |w| w | slot::HOT),
            ("streak", seeded),
        ];
        for mode in [
            ArenaMode::Adaptive,
            ArenaMode::StaticTts,
            ArenaMode::StaticQueue,
        ] {
            for start in starts {
                // An uncontended win, and a fought win (which installs
                // WAITERS).
                for fought in [false, true] {
                    for (name, mutate) in mutations {
                        // Win the word once, then release that same
                        // installed word through both paths: a fought
                        // win that waits past `LONG_WAIT_SPINS` seeds
                        // the inflation streak into the word it
                        // installs, and both releases must start from
                        // that word.
                        let installed = {
                            let svc = NativeService::with_mode(1, 1, None, mode);
                            svc.arena.store(0, start);
                            let g = if fought {
                                // A held word makes the win a fought one:
                                // the acquirer registers WAITERS, then
                                // wins once the word is put back free.
                                svc.arena.store(0, (start | slot::HELD) & !slot::WAITERS);
                                std::thread::scope(|s| {
                                    let acquirer = s.spawn(|| svc.acquire(0, None));
                                    while svc.arena.load(0) & slot::WAITERS == 0 {
                                        std::hint::spin_loop();
                                    }
                                    svc.arena.store(0, start);
                                    acquirer.join().unwrap()
                                })
                            } else {
                                svc.acquire(0, None)
                            }
                            .expect("free word");
                            let Hold::Flat(installed) = g.hold else {
                                panic!("flat word won through the inflated door")
                            };
                            assert_eq!(svc.arena.load(0), installed);
                            assert_eq!(installed & slot::WAITERS != 0, fought);
                            std::mem::forget(g);
                            installed
                        };
                        let ends = [true, false].map(|shipped| {
                            let svc = NativeService::with_mode(1, 1, None, mode);
                            svc.arena.store(0, mutate(installed));
                            if shipped {
                                drop(NativeGuard {
                                    svc: &svc,
                                    object: 0,
                                    hold: Hold::Flat(installed),
                                });
                            } else {
                                release_by_reload(&svc, 0);
                            }
                            (svc.arena.load(0), svc.inflations())
                        });
                        assert_eq!(
                            ends[0], ends[1],
                            "{mode:?}, start {start:#x}, fought {fought}, mid-hold {name}: \
                             (word, inflations) after the shipped release vs the reloading one"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_waiters_registration_during_a_hold_reaches_the_streak() {
        const ROUNDS: u64 = 400;
        let svc = NativeService::new(ROUNDS, 1, None);
        let mut registered_rounds = 0;
        for object in 0..ROUNDS {
            let g = svc.acquire(object, None).unwrap();
            let start = std::sync::Barrier::new(2);
            let registered = std::thread::scope(|s| {
                // A spinner's registration (the CAS `acquire` makes),
                // racing the release: it lands during the hold or finds
                // the word already released.
                let spinner = s.spawn(|| {
                    start.wait();
                    loop {
                        let w = svc.arena.load(object);
                        if w & slot::HELD == 0 {
                            return false;
                        }
                        if svc.arena.cas(object, w, w | slot::WAITERS).is_ok() {
                            return true;
                        }
                    }
                });
                start.wait();
                // A delay swept over the rounds, so both orders occur.
                for _ in 0..(object % 8) * 64 {
                    std::hint::spin_loop();
                }
                drop(g);
                spinner.join().unwrap()
            });
            registered_rounds += u32::from(registered);
            // A registration that landed made the release's CAS against
            // the installed word fail; the fold must still count it.
            let w = svc.arena.load(object);
            assert_eq!(w & slot::HELD, 0, "object {object}: word {w:#x}");
            assert_eq!(
                (slot::contended_streak(w), slot::calm_streak(w)),
                if registered { (1, 0) } else { (0, 1) },
                "object {object}: registered {registered}, word {w:#x}"
            );
        }
        assert_eq!(svc.inflations(), 0);
        println!("{registered_rounds} of {ROUNDS} registrations landed during the hold");
    }
}
