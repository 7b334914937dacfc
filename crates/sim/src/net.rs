//! Network latency model: a 2-D mesh with dimension-ordered routing.
//!
//! One-way latency between two nodes is `net_base + net_per_hop * hops`
//! where `hops` is the Manhattan distance on the smallest square mesh
//! that holds all nodes. Contention is modelled at the endpoints (the
//! directory and handler engines are serially-occupied resources), which
//! is where synchronization traffic actually piles up; wire contention is
//! not modelled.

use crate::cost::CostModel;
use crate::state::State;

/// Side length of the smallest square mesh holding `nodes` nodes (the
/// rule shared by the per-shard machines and the global cluster
/// topology the parallel scheduler derives its lookahead from).
pub(crate) fn mesh_dim(nodes: usize) -> usize {
    (1..).find(|d| d * d >= nodes).unwrap_or(1)
}

/// Row-major mesh coordinates for a `nodes`-node machine.
pub(crate) fn coords_for(nodes: usize) -> Vec<(u16, u16)> {
    let dim = mesh_dim(nodes);
    (0..nodes)
        .map(|n| ((n % dim) as u16, (n / dim) as u16))
        .collect()
}

/// Manhattan distance between two precomputed mesh coordinates.
#[inline]
pub(crate) fn hops_between(a: (u16, u16), b: (u16, u16)) -> u64 {
    (a.0.abs_diff(b.0) + a.1.abs_diff(b.1)) as u64
}

/// One-way latency for a message crossing `hops` mesh hops (`hops > 0`;
/// same-node loopback is priced separately).
#[inline]
pub(crate) fn latency_for_hops(cost: &CostModel, hops: u64) -> u64 {
    cost.net_base + cost.net_per_hop * hops
}

/// Manhattan distance between `a` and `b` on the mesh (coordinates are
/// precomputed in `State::coords`; no division on this path).
#[inline]
pub(crate) fn hops(st: &State, a: usize, b: usize) -> u64 {
    if a == b {
        return 0;
    }
    hops_between(st.coords[a], st.coords[b])
}

/// One-way message latency from `a` to `b` in cycles.
pub(crate) fn latency(st: &State, a: usize, b: usize) -> u64 {
    if a == b {
        // Loopback through the network interface.
        return st.cost.net_base / 2;
    }
    latency_for_hops(&st.cost, hops(st, a, b))
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::state::State;

    fn mk(nodes: usize) -> State {
        State::new(nodes, CostModel::nwo(), false, 1)
    }

    #[test]
    fn mesh_dimension_is_smallest_square() {
        assert_eq!(super::mesh_dim(1), 1);
        assert_eq!(super::mesh_dim(4), 2);
        assert_eq!(super::mesh_dim(16), 4);
        assert_eq!(super::mesh_dim(17), 5);
        assert_eq!(super::mesh_dim(64), 8);
    }

    #[test]
    fn hops_are_symmetric_and_triangle() {
        let st = mk(16);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(super::hops(&st, a, b), super::hops(&st, b, a));
                for c in 0..16 {
                    assert!(
                        super::hops(&st, a, c) <= super::hops(&st, a, b) + super::hops(&st, b, c)
                    );
                }
            }
        }
    }

    #[test]
    fn latency_grows_with_distance() {
        let st = mk(64);
        let near = super::latency(&st, 0, 1);
        let far = super::latency(&st, 0, 63);
        assert!(far > near);
        assert!(super::latency(&st, 5, 5) < near);
    }
}
