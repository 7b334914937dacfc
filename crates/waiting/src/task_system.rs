//! On-line task systems (Chapter 2, §3.4).
//!
//! A task system has `n` states, a state-transition cost matrix `D`, and
//! a task-cost matrix `C`; an on-line algorithm chooses which state
//! services each request (with lookahead one). Protocol selection maps
//! onto a task system whose states are protocols and whose tasks are
//! synchronization requests under given run-time conditions (Fig 3.13).
//!
//! This module provides the environment — the cost model, the exact
//! off-line optimum (dynamic programming), a lookahead-one driver for any
//! on-line decision rule, and the worst-case adversary of Figure 3.14.
//! The rules themselves are not written here: the switching policies of
//! §3.4 exist once, in `reactive-api`, and are driven through
//! [`TaskSystem::run_online`] by that crate's `online_rule` adapter.

/// A task system with `n` states and `m` task types.
#[derive(Clone, Debug)]
pub struct TaskSystem {
    /// `d[i][j]`: cost of switching from state `i` to state `j`.
    pub d: Vec<Vec<f64>>,
    /// `c[i][t]`: cost of serving task type `t` in state `i`.
    pub c: Vec<Vec<f64>>,
}

impl TaskSystem {
    /// Build a task system; validates matrix shapes and that switching
    /// costs have zero diagonal.
    pub fn new(d: Vec<Vec<f64>>, c: Vec<Vec<f64>>) -> TaskSystem {
        let n = d.len();
        assert!(n > 0, "task system needs at least one state");
        assert!(d.iter().all(|r| r.len() == n), "D must be square");
        assert_eq!(c.len(), n, "C must have one row per state");
        let m = c[0].len();
        assert!(c.iter().all(|r| r.len() == m), "C rows must agree");
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0.0, "self-transition must be free");
        }
        TaskSystem { d, c }
    }

    /// The two-protocol system of Figure 3.13: protocol A is optimal
    /// under low contention, B under high contention; `c_a_high` is A's
    /// residual cost on a high-contention request and `c_b_low` B's on a
    /// low-contention one.
    pub fn two_protocol(d_ab: f64, d_ba: f64, c_a_high: f64, c_b_low: f64) -> TaskSystem {
        TaskSystem::new(
            vec![vec![0.0, d_ab], vec![d_ba, 0.0]],
            // task 0 = low contention, task 1 = high contention
            vec![vec![0.0, c_a_high], vec![c_b_low, 0.0]],
        )
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.d.len()
    }

    /// Exact off-line optimal cost for a request sequence (lookahead-one
    /// dynamic programming over end states), starting in state 0.
    pub fn offline_opt(&self, reqs: &[usize]) -> f64 {
        let n = self.states();
        let mut cost = vec![f64::INFINITY; n];
        cost[0] = 0.0;
        for &t in reqs {
            let mut next = vec![f64::INFINITY; n];
            for (j, nj) in next.iter_mut().enumerate() {
                for (i, ci) in cost.iter().enumerate() {
                    let via = ci + self.d[i][j] + self.c[j][t];
                    if via < *nj {
                        *nj = via;
                    }
                }
            }
            cost = next;
        }
        cost.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Run an on-line decision rule over the request sequence; returns
    /// its total cost (tasks + transitions), starting in state 0.
    ///
    /// Before each request is served (lookahead one) the rule is called
    /// as `decide(state, best, residual)` — the current state, the
    /// cheapest state for this request (the current one on ties) and what
    /// serving it in the current state costs above that — and returns the
    /// state to serve it in. Never switching is `|s, _, _| s`; the
    /// switching policies the reactive objects run plug in through
    /// `reactive_api::online_rule`.
    pub fn run_online(
        &self,
        mut decide: impl FnMut(usize, usize, f64) -> usize,
        reqs: &[usize],
    ) -> f64 {
        let mut state = 0usize;
        let mut total = 0.0;
        for &t in reqs {
            let cost = |j: usize| self.c[j][t];
            let best = (0..self.states()).fold(state, |b, j| if cost(j) < cost(b) { j } else { b });
            let target = decide(state, best, cost(state) - cost(best));
            if target != state {
                total += self.d[state][target];
                state = target;
            }
            total += cost(state);
        }
        total
    }
}

/// Generate the Figure 3.14 worst case for the two-protocol system: the
/// adversary flips the contention level exactly when the 3-competitive
/// policy switches, for `cycles` rounds. Returns the request sequence.
pub fn worst_case_sequence(ts: &TaskSystem, cycles: usize) -> Vec<usize> {
    let round_trip = ts.d[0][1] + ts.d[1][0];
    // In state 0, high-contention tasks (t=1) cost c[0][1] each; the
    // policy flips after ceil(round_trip / c[0][1]) of them; then the
    // adversary feeds low-contention tasks, and so on.
    let per_phase_high = (round_trip / ts.c[0][1]).ceil() as usize + 1;
    let per_phase_low = (round_trip / ts.c[1][0]).ceil() as usize + 1;
    let mut reqs = Vec::new();
    for _ in 0..cycles {
        reqs.extend(std::iter::repeat_n(1, per_phase_high));
        reqs.extend(std::iter::repeat_n(0, per_phase_low));
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_system() -> TaskSystem {
        // §3.5.5 empirical numbers: TTS→MCS costs ~8000 cycles, MCS→TTS
        // ~800; TTS under high contention wastes ~150/req, MCS under low
        // contention ~15/req.
        TaskSystem::two_protocol(8_000.0, 800.0, 150.0, 15.0)
    }

    #[test]
    fn offline_opt_never_switches_on_uniform_load() {
        let ts = paper_system();
        let reqs = vec![0; 1000];
        assert_eq!(ts.offline_opt(&reqs), 0.0);
    }

    #[test]
    fn offline_opt_switches_when_worth_it() {
        let ts = paper_system();
        // 1000 high-contention requests: staying costs 150k; switching
        // costs 8000. Opt switches once.
        let reqs = vec![1; 1000];
        assert_eq!(ts.offline_opt(&reqs), 8_000.0);
    }

    #[test]
    fn online_policies_serve_all_requests() {
        let ts = paper_system();
        let reqs: Vec<usize> = (0..500).map(|i| (i / 50) % 2).collect();
        // Never switching pays every high-contention residual; switching
        // greedily pays a transition per block instead.
        assert_eq!(ts.run_online(|s, _, _| s, &reqs), 250.0 * 150.0);
        assert_eq!(
            ts.run_online(|_, best, _| best, &reqs),
            5.0 * 8_000.0 + 4.0 * 800.0
        );
    }

    #[test]
    #[should_panic(expected = "self-transition")]
    fn rejects_nonzero_diagonal() {
        TaskSystem::new(vec![vec![1.0]], vec![vec![0.0]]);
    }
}
