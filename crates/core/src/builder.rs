//! The one builder every simulator reactive object is constructed
//! through. It carries the kernel's own [`KernelBuilder`]; what differs
//! from object to object is its [`Reactive`] impl (protocol table, word
//! layout) and which options it offers: `max_procs` ([`MaxProcs`]) and
//! `initial_protocol` ([`InitialProtocol`]).

use std::rc::Rc;

use alewife_sim::Machine;

use crate::policy::{
    Instrument, KernelBuilder, LocalWorld, Policy, ProtocolId, SimKernel, SwitchStyle,
};

/// A simulator reactive object that [`Builder`] constructs.
pub trait Reactive: Sized {
    /// The object's own parameters (the MP manager node).
    type Params;

    /// The protocol slots as `(name, exit style)`, in id order.
    const PROTOCOLS: &'static [(&'static str, SwitchStyle)];

    /// Allocate the object on `home`, sized for `n` processors, with its
    /// words set for the kernel's initial protocol; embed `kernel`.
    fn assemble(m: &Machine, home: usize, n: usize, p: Self::Params, kernel: Rc<SimKernel>)
        -> Self;
}

/// An object whose processor count is the [`Builder::max_procs`] option.
pub trait MaxProcs: Reactive {}

/// An object whose initial protocol [`Builder::initial_protocol`] sets.
pub trait InitialProtocol: Reactive {}

/// Builder for every simulator reactive object: placement (machine, home
/// node, the object's required parameters) is positional; the switching
/// policy, the instrumentation sink and the object's options are
/// optional with the paper's defaults.
pub struct Builder<'m, O: Reactive> {
    m: &'m Machine,
    home: usize,
    procs: usize,
    params: O::Params,
    kernel: KernelBuilder<LocalWorld>,
}

impl<'m, O: Reactive> Builder<'m, O> {
    pub(crate) fn new(m: &'m Machine, home: usize, procs: usize, params: O::Params) -> Self {
        Builder {
            m,
            home,
            procs,
            params,
            kernel: SimKernel::builder(),
        }
    }

    /// Use the given switching policy (default: [`Always`](crate::Always)).
    pub fn policy(mut self, p: impl Policy + 'static) -> Self {
        self.kernel = self.kernel.policy(Box::new(p));
        self
    }

    /// Report every committed protocol change to `sink`.
    pub fn instrument(mut self, sink: Rc<dyn Instrument>) -> Self {
        self.kernel = self.kernel.sink(sink);
        self
    }

    /// Register the protocol table, build the kernel, and allocate and
    /// initialise the object.
    pub fn build(self) -> O {
        let mut kernel = self.kernel;
        for (id, &(name, exit)) in (0..).zip(O::PROTOCOLS) {
            kernel = kernel.register(ProtocolId(id), name, exit);
        }
        let kernel = Rc::new(kernel.build());
        O::assemble(self.m, self.home, self.procs, self.params, kernel)
    }
}

impl<O: MaxProcs> Builder<'_, O> {
    /// Size backoff bounds, queue-node pools and combining trees for up
    /// to `n` contending processors (default: the machine's node count).
    pub fn max_procs(mut self, n: usize) -> Self {
        self.procs = n;
        self
    }
}

impl<O: InitialProtocol> Builder<'_, O> {
    /// Start in protocol `p` (slot 0 by default). §3.5 shows the initial
    /// choice matters for short-running applications: start in the
    /// protocol the expected conditions favour — scalable under
    /// contention, recoverable under crashes.
    ///
    /// # Panics
    /// If `p` is not one of the object's protocol slots.
    pub fn initial_protocol(mut self, p: ProtocolId) -> Self {
        let slots = O::PROTOCOLS.len();
        let name = std::any::type_name::<O>();
        assert!(p.index() < slots, "{name} has {slots} protocols, not {p}");
        self.kernel = self.kernel.initial(p);
        self
    }
}
