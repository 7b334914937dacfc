//! Property tests of the switching-kernel invariants, across all
//! ordered protocol pairs for N = 2..4:
//!
//! * **at most one protocol valid at any instant** (§3.2.3), observed
//!   through the kernel's validity snapshot after every transition;
//! * **no waiter lost across a mode change** — a model object tracks
//!   waiters per protocol and migrates them in its invalidate hook; the
//!   population must be conserved through arbitrary switch sequences;
//! * **switch counts match the instrumentation** — the kernel counter,
//!   a [`SwitchTally`] sink, and the model's committed transitions all
//!   agree.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use proptest::prelude::*;
use reactive_api::{
    drive, Always, Instrument, LocalWorld, Observation, ProtocolId, SwitchKernel, SwitchStyle,
    SwitchTally, SwitchableObject,
};

/// A model reactive object: per-protocol waiter sets, migrated on
/// invalidation. `validate` must see the entering protocol empty (its
/// consensus object was quiescent while invalid).
struct ModelObject {
    waiters: RefCell<Vec<Vec<u64>>>,
    clock: Cell<u64>,
    commits: Cell<u64>,
}

impl ModelObject {
    fn new(n: usize) -> ModelObject {
        ModelObject {
            waiters: RefCell::new(vec![Vec::new(); n]),
            clock: Cell::new(0),
            commits: Cell::new(0),
        }
    }

    fn population(&self) -> usize {
        self.waiters.borrow().iter().map(Vec::len).sum()
    }
}

impl SwitchableObject for ModelObject {
    type Ctx = ();

    async fn validate(&self, _ctx: &(), _to: ProtocolId, _from: ProtocolId, _state: u64) {}

    async fn invalidate(&self, _ctx: &(), from: ProtocolId, to: ProtocolId) -> Option<u64> {
        // The waiter-migration hook: everyone waiting on the exiting
        // protocol is bounced to the entering one.
        let mut w = self.waiters.borrow_mut();
        let moved = std::mem::take(&mut w[from.index()]);
        w[to.index()].extend(moved);
        Some(0)
    }

    async fn publish_mode(&self, _ctx: &(), _to: ProtocolId) {
        self.commits.set(self.commits.get() + 1);
    }

    fn now(&self, _ctx: &()) -> u64 {
        self.clock.set(self.clock.get() + 1);
        self.clock.get()
    }
}

/// Every ordered pair (i, j), i != j, for N = 2..4, under every switch
/// style: one transition commits, exactly one protocol stays valid,
/// and the event stream records (i, j).
#[test]
fn every_ordered_pair_commits_under_every_style() {
    for n in 2u8..=4 {
        for style in [SwitchStyle::Handoff, SwitchStyle::Transfer] {
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let tally = Rc::new(SwitchTally::new());
                    let mut b = SwitchKernel::<LocalWorld>::builder()
                        .policy(Box::new(Always))
                        .sink(tally.clone() as Rc<dyn Instrument>)
                        .initial(ProtocolId(i));
                    for s in 0..n {
                        b = b.register(ProtocolId(s), "p", style);
                    }
                    let k = b.build();
                    let obj = ModelObject::new(n as usize);
                    obj.waiters.borrow_mut()[i as usize] = vec![1, 2, 3];
                    drive(k.switch(&obj, &(), ProtocolId(i), ProtocolId(j)));
                    assert_eq!(k.valid_protocols(), vec![ProtocolId(j)]);
                    assert_eq!(k.current(), ProtocolId(j));
                    assert_eq!(k.switches(), 1);
                    assert_eq!(tally.count(), 1);
                    assert_eq!(obj.population(), 3, "waiters lost in {i}->{j} ({style:?})");
                    assert_eq!(
                        obj.waiters.borrow()[j as usize].len(),
                        3,
                        "invalidation must migrate waiters to the target ({style:?})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary switch sequences over N = 2..4 protocols conserve the
    /// waiter population, keep at most one protocol valid, and keep
    /// kernel/tally/model counts in agreement.
    #[test]
    fn invariants_hold_under_arbitrary_switch_sequences(
        n in 2u8..5,
        steps in prop::collection::vec((0u8..4, 0u64..5, 0.0f64..2000.0), 1..160),
    ) {
        let tally = Rc::new(SwitchTally::new());
        let mut b = SwitchKernel::<LocalWorld>::builder()
            .policy(Box::new(Always))
            .sink(tally.clone() as Rc<dyn Instrument>);
        for i in 0..n {
            // Mix styles across slots: the invariants are
            // style-independent.
            let style = if i % 2 == 0 {
                SwitchStyle::Handoff
            } else {
                SwitchStyle::Transfer
            };
            b = b.register(ProtocolId(i), "p", style);
        }
        let k = b.build();
        let obj = ModelObject::new(n as usize);
        let mut cur = ProtocolId(0);
        let mut population = 0usize;
        let mut expected_switches = 0u64;
        for (target_raw, arrivals, residual) in steps {
            // New waiters arrive at the currently valid protocol.
            for w in 0..arrivals {
                obj.waiters.borrow_mut()[cur.index()].push(w);
                population += 1;
            }
            let target = ProtocolId(target_raw % n);
            let obs = if target == cur {
                Observation::optimal(cur)
            } else {
                Observation::suboptimal(cur, target, residual)
            };
            if let Some(t) = k.observe(&obs) {
                prop_assert_eq!(t, target);
                drive(k.switch(&obj, &(), cur, t));
                cur = t;
                expected_switches += 1;
            }
            prop_assert_eq!(k.valid_protocols(), vec![cur], "validity snapshot");
            prop_assert_eq!(obj.population(), population, "waiters lost");
        }
        prop_assert_eq!(k.switches(), expected_switches);
        prop_assert_eq!(tally.count(), expected_switches);
        prop_assert_eq!(obj.commits.get(), expected_switches);
        prop_assert_eq!(k.current(), cur);
    }
}
