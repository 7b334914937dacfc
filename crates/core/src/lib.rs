//! # reactive-core — reactive synchronization algorithms
//!
//! The paper's contribution (Lim & Agarwal, ASPLOS '94; Lim's MIT thesis,
//! 1994): synchronization algorithms that *select their protocol and
//! waiting mechanism at run time* in response to observed conditions,
//! while staying within a constant factor of the best static choice.
//!
//! * [`policy`] — when to switch protocols (§3.4): re-exports the
//!   shared [`reactive_api`] surface (the [`Policy`] trait with
//!   switch-immediately, 3-competitive, and hysteresis impls; protocol
//!   ids; switch-event instrumentation) plus the simulator-side
//!   [`policy::SimKernel`] — the switching kernel every reactive
//!   object here embeds and routes its mode changes through.
//! * [`builder`] — the one [`Builder`] every reactive object here is
//!   constructed through (`ReactiveLock::builder(&m, 0).policy(..)
//!   .instrument(..).build()`), carrying the kernel's own builder.
//! * [`lock`] — the reactive spin lock (§3.3.1, Figures 3.27-3.29):
//!   dynamically selects between test-and-test-and-set and the MCS queue
//!   lock, using the lock words themselves as consensus objects (an
//!   invalid sub-lock is left permanently busy, so the mode variable is
//!   only a hint and correctness never depends on it).
//! * [`spin`] — `reactive_api::spin`'s TTS and MCS locks on simulated
//!   memory (the reactive lock's text is `reactive_api::lock`'s).
//! * [`fetch_op`] — the reactive fetch-and-op (§3.3.2, Appendix C):
//!   selects among a TTS-lock-protected counter, a queue-lock-protected
//!   counter, and a software combining tree.
//! * [`framework`] — the protocol-object framework of §3.2: protocol
//!   objects, the protocol manager, and a C-serializability checker used
//!   to validate histories in tests.
//! * [`waiting`] — two-phase waiting algorithms (Chapter 4): poll up to
//!   `Lpoll`, then block; plus switch-spinning variants for
//!   multithreaded nodes. Each is one `WaitStrategy::wait` over a
//!   condition on the watched word, shared by word-predicate and
//!   full/empty-bit waits.
//! * [`mp`] — reactive selection between shared-memory and
//!   message-passing protocols (§3.6).
//! * [`robust`] — the robust reactive lock: run-time selection between
//!   an abortable MCS queue and a crash-recoverable Peterson tree,
//!   with crash-driven switching and journal-backed mode-change
//!   recovery (the fault-injection companion to [`lock`]).

#![deny(missing_docs)]

pub mod barrier;
pub mod builder;
pub mod fetch_op;
pub mod framework;
pub mod lock;
pub mod mp;
pub mod robust;
pub mod spin;
pub mod waiting;

pub mod policy {
    //! Protocol-switching policies and the simulator-side kernel handle.
    //!
    //! The policy *types* live in [`reactive_api`] and are shared with the
    //! native implementations; this module re-exports them together with
    //! the **switching kernel** ([`SwitchKernel`]) — the consensus-object
    //! mode-change engine every reactive object in `lock`/`fetch_op`/`mp`/
    //! `barrier` embeds. [`SimKernel`] is the kernel instantiated for the
    //! simulator's single-threaded world (`Rc` sharing, `!Send` policies
    //! allowed); objects share it through `Rc` clones, feed it
    //! [`Observation`]s, and run every mode change through
    //! [`SwitchKernel::switch`] with their [`SwitchableObject`] hooks.

    pub use reactive_api::{
        drive, Always, Competitive3, Decision, Hysteresis, Instrument, KernelBuilder, LocalWorld,
        Observation, Policy, ProtocolId, ProtocolInfo, SwitchEvent, SwitchKernel, SwitchLog,
        SwitchStyle, SwitchTally, SwitchableObject,
    };

    /// The switching kernel instantiated for the simulator world.
    pub type SimKernel = SwitchKernel<LocalWorld>;

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::rc::Rc;

        const A: ProtocolId = ProtocolId(0);
        const B: ProtocolId = ProtocolId(1);

        fn two() -> SimKernel {
            SimKernel::builder()
                .register(A, "a", SwitchStyle::Handoff)
                .register(B, "b", SwitchStyle::Handoff)
                .policy(Box::new(Competitive3::new(100.0)))
                .build()
        }

        #[test]
        fn kernel_clones_share_policy_state() {
            let k = Rc::new(two());
            let t = k.clone();
            assert!(k.observe(&Observation::suboptimal(A, B, 60.0)).is_none());
            assert_eq!(t.observe(&Observation::suboptimal(A, B, 60.0)), Some(B));
        }

        #[test]
        fn sim_policies_need_not_be_send() {
            // The simulator world accepts `!Send` policies (e.g. one that
            // shares state with the spawning test through an Rc).
            use std::cell::Cell;
            struct Counting(Rc<Cell<u64>>);
            impl Policy for Counting {
                fn decide(&mut self, _obs: &Observation) -> Decision {
                    self.0.set(self.0.get() + 1);
                    Decision::Stay
                }
            }
            let n = Rc::new(Cell::new(0));
            let k = SimKernel::builder()
                .register(A, "a", SwitchStyle::Handoff)
                .policy(Box::new(Counting(n.clone())))
                .build();
            assert_eq!(k.observe(&Observation::optimal(A)), None);
            assert_eq!(n.get(), 1);
        }

        #[test]
        fn protocol_info_lookup() {
            let k = two();
            assert_eq!(k.protocol(B).name, "b");
        }
    }
}

pub use barrier::ReactiveBarrier;
pub use builder::{Builder, InitialProtocol, MaxProcs, Reactive};
pub use fetch_op::ReactiveFetchOp;
pub use lock::ReactiveLock;
pub use policy::{
    Always, Competitive3, Decision, Hysteresis, Instrument, Observation, Policy, ProtocolId,
    SwitchEvent, SwitchLog,
};
pub use robust::{RobustLock, RobustToken};
pub use waiting::TwoPhase;
