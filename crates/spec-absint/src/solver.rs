//! A generic worklist fixpoint solver (the paper's Algorithm 1, made
//! domain- and graph-agnostic).
//!
//! The solver computes, for every node of a finite graph, the join of all
//! states flowing into it, iterating until a fixed point.  The speculative
//! analysis (`spec-core`) instantiates it over the virtual control flow
//! graph with the dual normal/speculative cache state; the tests here use
//! small toy domains.

use crate::lattice::JoinSemiLattice;

/// A forward dataflow problem over nodes `0..num_nodes()`.
pub trait DataflowProblem {
    /// The abstract state attached to each node (at node entry).
    type State: JoinSemiLattice;

    /// Number of nodes in the graph.
    fn num_nodes(&self) -> usize;

    /// The bottom element for this problem.
    fn bottom_state(&self) -> Self::State;

    /// Initial state for `node`, or `None` if it is not an entry node.
    fn entry_state(&self, node: usize) -> Option<Self::State>;

    /// Successors of `node`.
    fn successors(&self, node: usize) -> Vec<usize>;

    /// State propagated along the edge `from -> to`, given the state at the
    /// entry of `from`.
    ///
    /// Taking `&mut self` lets implementations keep per-edge bookkeeping
    /// (e.g. occurrence counters for symbolic array accesses).
    fn transfer(&mut self, from: usize, to: usize, state: &Self::State) -> Self::State;

    /// Whether widening should be applied when joining at `node`
    /// (typically: `node` is a loop header).
    fn widen_at(&self, node: usize) -> bool {
        let _ = node;
        false
    }
}

/// Statistics reported by [`WorklistSolver::solve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of times a node was taken off the worklist.
    pub node_visits: u64,
    /// Number of joins that changed a successor's state.
    pub state_updates: u64,
    /// Peak length of the worklist.
    pub max_worklist_len: usize,
}

/// Worklist-based fixpoint solver.
#[derive(Clone, Copy, Debug)]
pub struct WorklistSolver {
    /// Number of joins at a widening point before the widening operator is
    /// applied; gives the analysis a few precise iterations first.
    pub widening_delay: u32,
    /// Safety valve: abort (by panicking) if a single node is visited more
    /// than this many times, which would indicate a non-monotone transfer.
    pub max_visits_per_node: u64,
}

impl Default for WorklistSolver {
    fn default() -> Self {
        Self {
            widening_delay: 3,
            max_visits_per_node: 1_000_000,
        }
    }
}

impl WorklistSolver {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the fixpoint computation and returns the per-node states along
    /// with iteration statistics.
    ///
    /// # Panics
    ///
    /// Panics if a node exceeds `max_visits_per_node` visits, which can only
    /// happen if the problem's transfer function is not monotone over a
    /// finite-height lattice and no widening point breaks the cycle.
    pub fn solve<P: DataflowProblem>(&self, problem: &mut P) -> (Vec<P::State>, SolveStats) {
        self.solve_core(problem, Vec::new())
    }

    /// Runs the fixpoint with some nodes *frozen* at already-converged
    /// states (a compositional partial solve).
    ///
    /// `seeds[i] = Some(state)` pins node `i` at `state`: it is never
    /// re-joined, and transfers into it are skipped.  Every frozen node with
    /// at least one unfrozen successor is visited once to flow its state
    /// across the frontier; unfrozen nodes iterate to fixpoint as in
    /// [`WorklistSolver::solve`].
    ///
    /// The result equals a cold [`WorklistSolver::solve`] when the caller
    /// upholds the seeding contract:
    ///
    /// * the frozen set is closed under predecessors (no edge from an
    ///   unfrozen node into a frozen one), so frozen states cannot be
    ///   out of date;
    /// * each seed is the state the cold solve converges to at that node
    ///   (e.g. transplanted from a prior solve of an identical subgraph);
    /// * no widening point is unfrozen — the unfrozen region's fixpoint is
    ///   then its unique least fixpoint, independent of visit order.
    ///
    /// `seeds` may be empty (nothing frozen) or must have `num_nodes()`
    /// entries.  Statistics count only the work actually performed, so a
    /// partial solve reports fewer visits than a cold one.
    pub fn solve_seeded<P: DataflowProblem>(
        &self,
        problem: &mut P,
        seeds: Vec<Option<P::State>>,
    ) -> (Vec<P::State>, SolveStats) {
        self.solve_core(problem, seeds)
    }

    fn solve_core<P: DataflowProblem>(
        &self,
        problem: &mut P,
        mut seeds: Vec<Option<P::State>>,
    ) -> (Vec<P::State>, SolveStats) {
        let n = problem.num_nodes();
        assert!(
            seeds.is_empty() || seeds.len() == n,
            "seed vector length must match the node count"
        );
        seeds.resize_with(n, || None);
        let frozen: Vec<bool> = seeds.iter().map(Option::is_some).collect();
        let mut states: Vec<P::State> = seeds
            .into_iter()
            .enumerate()
            .map(|(i, seed)| {
                seed.or_else(|| problem.entry_state(i))
                    .unwrap_or_else(|| problem.bottom_state())
            })
            .collect();
        let mut join_counts: Vec<u32> = vec![0; n];
        let mut visit_counts: Vec<u64> = vec![0; n];
        let mut stats = SolveStats::default();

        // Unfrozen entry nodes start the iteration; frozen nodes on the
        // frontier (having an unfrozen successor) are visited once to flow
        // their converged state into the region being solved.
        let mut worklist: std::collections::VecDeque<usize> = (0..n)
            .filter(|&i| {
                if frozen[i] {
                    problem.successors(i).iter().any(|&s| !frozen[s])
                } else {
                    problem.entry_state(i).is_some()
                }
            })
            .collect();
        let mut in_worklist: Vec<bool> = vec![false; n];
        for &i in &worklist {
            in_worklist[i] = true;
        }

        while let Some(node) = worklist.pop_front() {
            in_worklist[node] = false;
            stats.node_visits += 1;
            visit_counts[node] += 1;
            assert!(
                visit_counts[node] <= self.max_visits_per_node,
                "node {node} exceeded the visit budget; transfer is likely non-monotone"
            );
            let current = states[node].clone();
            for succ in problem.successors(node) {
                if frozen[succ] {
                    // Frozen states are already converged; re-joining them
                    // is a no-op by the seeding contract, so skip the work.
                    continue;
                }
                let flowed = problem.transfer(node, succ, &current);
                let previous = states[succ].clone();
                let mut changed = states[succ].join_in_place(&flowed);
                if changed {
                    join_counts[succ] += 1;
                    if problem.widen_at(succ) && join_counts[succ] > self.widening_delay {
                        states[succ].widen_with(&previous);
                        changed = states[succ] != previous;
                    }
                }
                if changed {
                    stats.state_updates += 1;
                    if !in_worklist[succ] {
                        worklist.push_back(succ);
                        in_worklist[succ] = true;
                        stats.max_worklist_len = stats.max_worklist_len.max(worklist.len());
                    }
                }
            }
        }
        (states, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use std::collections::BTreeSet;

    /// Reachability over a tiny graph, using the set lattice.
    struct Reach {
        edges: Vec<Vec<usize>>,
    }

    impl DataflowProblem for Reach {
        type State = BTreeSet<usize>;

        fn num_nodes(&self) -> usize {
            self.edges.len()
        }
        fn bottom_state(&self) -> Self::State {
            BTreeSet::new()
        }
        fn entry_state(&self, node: usize) -> Option<Self::State> {
            (node == 0).then(|| [0].into_iter().collect())
        }
        fn successors(&self, node: usize) -> Vec<usize> {
            self.edges[node].clone()
        }
        fn transfer(&mut self, _from: usize, to: usize, state: &Self::State) -> Self::State {
            let mut s = state.clone();
            s.insert(to);
            s
        }
    }

    #[test]
    fn reachability_reaches_fixpoint_on_cyclic_graph() {
        // 0 -> 1 -> 2 -> 1 (cycle), 2 -> 3
        let mut problem = Reach {
            edges: vec![vec![1], vec![2], vec![1, 3], vec![]],
        };
        let (states, stats) = WorklistSolver::new().solve(&mut problem);
        assert_eq!(states[3], [0, 1, 2, 3].into_iter().collect());
        assert_eq!(states[1], [0, 1, 2].into_iter().collect());
        assert!(stats.node_visits >= 4);
        assert!(stats.state_updates >= 3);
    }

    /// A counter loop in the interval domain: x = 0; while (*) x += 1;
    /// Without widening the chain 0..k would keep growing; the solver's
    /// widening at the loop head jumps the bound to +inf.
    struct Counter;

    impl DataflowProblem for Counter {
        type State = Interval;

        fn num_nodes(&self) -> usize {
            3 // 0: init, 1: loop head, 2: exit
        }
        fn bottom_state(&self) -> Self::State {
            Interval::bottom()
        }
        fn entry_state(&self, node: usize) -> Option<Self::State> {
            (node == 0).then(|| Interval::constant(0))
        }
        fn successors(&self, node: usize) -> Vec<usize> {
            match node {
                0 => vec![1],
                1 => vec![1, 2],
                _ => vec![],
            }
        }
        fn transfer(&mut self, from: usize, to: usize, state: &Self::State) -> Self::State {
            if from == 1 && to == 1 {
                state.add_constant(1)
            } else {
                *state
            }
        }
        fn widen_at(&self, node: usize) -> bool {
            node == 1
        }
    }

    #[test]
    fn widening_terminates_the_counter_loop() {
        let (states, _stats) = WorklistSolver::new().solve(&mut Counter);
        assert_eq!(states[1].lo(), Some(0));
        assert_eq!(states[1].hi(), None, "upper bound widened to +inf");
        assert!(!states[2].is_bottom());
    }

    #[test]
    fn unreachable_nodes_stay_bottom() {
        let mut problem = Reach {
            edges: vec![vec![1], vec![], vec![1]], // node 2 unreachable
        };
        let (states, _) = WorklistSolver::new().solve(&mut problem);
        assert!(states[2].is_empty());
        assert_eq!(states[1], [0, 1].into_iter().collect());
    }

    #[test]
    fn seeded_solve_with_no_seeds_matches_cold_solve() {
        let mut cold = Reach {
            edges: vec![vec![1, 2], vec![3], vec![3], vec![1]],
        };
        let (cold_states, cold_stats) = WorklistSolver::new().solve(&mut cold);
        let mut seeded = Reach {
            edges: vec![vec![1, 2], vec![3], vec![3], vec![1]],
        };
        let (states, stats) = WorklistSolver::new().solve_seeded(&mut seeded, Vec::new());
        assert_eq!(states, cold_states);
        assert_eq!(stats, cold_stats);
    }

    #[test]
    fn seeded_solve_reuses_a_predecessor_closed_region() {
        // 0 -> 1 -> 2 -> 3 -> 4, plus a back edge 4 -> 3.  Freezing the
        // prefix {0, 1, 2} at its converged states must reproduce the cold
        // result for {3, 4} while visiting only the frontier and the
        // recomputed region.
        let edges = vec![vec![1], vec![2], vec![3], vec![4], vec![3]];
        let mut cold = Reach {
            edges: edges.clone(),
        };
        let (cold_states, cold_stats) = WorklistSolver::new().solve(&mut cold);

        let seeds: Vec<Option<BTreeSet<usize>>> = vec![
            Some(cold_states[0].clone()),
            Some(cold_states[1].clone()),
            Some(cold_states[2].clone()),
            None,
            None,
        ];
        let mut partial = Reach { edges };
        let (states, stats) = WorklistSolver::new().solve_seeded(&mut partial, seeds);
        assert_eq!(states, cold_states);
        assert!(
            stats.node_visits < cold_stats.node_visits,
            "partial solve must do less work ({} vs {})",
            stats.node_visits,
            cold_stats.node_visits
        );
    }

    #[test]
    fn seeded_solve_never_rejoins_frozen_nodes() {
        // 0 -> 1 -> 0 cycle: node 1 frozen; popping 0 must skip the
        // transfer into 1 entirely, leaving the seed untouched.
        let seeds: Vec<Option<BTreeSet<usize>>> = vec![None, Some([7].into_iter().collect())];
        let mut problem = Reach {
            edges: vec![vec![1], vec![0]],
        };
        let (states, _) = WorklistSolver::new().solve_seeded(&mut problem, seeds);
        assert_eq!(states[1], [7].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "seed vector length")]
    fn seeded_solve_rejects_mismatched_seed_length() {
        let mut problem = Reach {
            edges: vec![vec![1], vec![]],
        };
        let _ = WorklistSolver::new().solve_seeded(&mut problem, vec![None]);
    }

    #[test]
    fn stats_track_worklist_behaviour() {
        let mut problem = Reach {
            edges: vec![vec![1, 2], vec![3], vec![3], vec![]],
        };
        let (_, stats) = WorklistSolver::new().solve(&mut problem);
        assert!(stats.max_worklist_len >= 1);
        assert!(stats.node_visits >= 4);
    }
}
