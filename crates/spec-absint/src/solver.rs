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
        let n = problem.num_nodes();
        let mut states: Vec<P::State> = (0..n)
            .map(|i| {
                problem
                    .entry_state(i)
                    .unwrap_or_else(|| problem.bottom_state())
            })
            .collect();
        let mut join_counts: Vec<u32> = vec![0; n];
        let mut visit_counts: Vec<u64> = vec![0; n];
        let mut stats = SolveStats::default();

        let mut worklist: std::collections::VecDeque<usize> = (0..n)
            .filter(|&i| problem.entry_state(i).is_some())
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
    fn stats_track_worklist_behaviour() {
        let mut problem = Reach {
            edges: vec![vec![1, 2], vec![3], vec![3], vec![]],
        };
        let (_, stats) = WorklistSolver::new().solve(&mut problem);
        assert!(stats.max_worklist_len >= 1);
        assert!(stats.node_visits >= 4);
    }
}
