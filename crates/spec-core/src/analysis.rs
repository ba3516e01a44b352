//! The analysis driver: fixpoint solving, dynamic depth bounding and
//! classification over prepared artifacts.
//!
//! [`CacheAnalysis`] is the one-shot entry point; it is a thin wrapper over
//! a single-use [`crate::session`].  Code that analyses the same program
//! under several configurations should prepare it once with
//! [`crate::session::Analyzer::prepare`] and reuse the
//! [`crate::session::PreparedProgram`].

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use spec_absint::{SolveStats, WorklistSolver};
use spec_cache::AddressMap;
use spec_ir::transform::UnrollReport;
use spec_ir::Program;
use spec_vcfg::Vcfg;

use crate::classify::{classify_accesses, AnalysisResult};
use crate::engine::SpecProblem;
use crate::options::AnalysisOptions;
use crate::session::{Analyzer, Memo, Round, RoundKey};
use crate::state::SpecState;
use crate::summary::SummaryCtx;

/// A configured must-hit cache analysis.
///
/// # Example
///
/// ```rust
/// use spec_core::CacheAnalysis;
/// use spec_ir::builder::ProgramBuilder;
/// use spec_ir::IndexExpr;
///
/// let mut b = ProgramBuilder::new("tiny");
/// let t = b.region("t", 64, false);
/// let entry = b.entry_block("entry");
/// b.load(entry, t, IndexExpr::Const(0));
/// b.load(entry, t, IndexExpr::Const(0));
/// b.ret(entry);
/// let program = b.finish().unwrap();
///
/// let result = CacheAnalysis::speculative().run(&program);
/// // The second access to `t` is a guaranteed hit.
/// assert_eq!(result.must_hit_count(), 1);
/// assert_eq!(result.miss_count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CacheAnalysis {
    options: AnalysisOptions,
}

impl CacheAnalysis {
    /// Creates an analysis with explicit options.
    pub fn new(options: AnalysisOptions) -> Self {
        Self { options }
    }

    /// The paper's speculative analysis with default parameters.
    pub fn speculative() -> Self {
        Self::new(AnalysisOptions::speculative())
    }

    /// The non-speculative baseline analysis.
    pub fn non_speculative() -> Self {
        Self::new(AnalysisOptions::non_speculative())
    }

    /// The options this analysis runs with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Runs the analysis on `program`.
    ///
    /// This prepares `program` in a throw-away session and runs the one
    /// configuration; results are identical to
    /// [`crate::session::PreparedProgram::run`] with the same options.
    pub fn run(&self, program: &Program) -> AnalysisResult {
        Analyzer::new().prepare(program).run(&self.options)
    }
}

/// Runs the fixpoint (with the dynamic depth-bounding refinement of
/// Section 6.2 when enabled) and classification over prepared artifacts.
///
/// This is the shared back half of [`CacheAnalysis::run`] and
/// [`crate::session::PreparedProgram::run`]: given the same artifacts and
/// options it is deterministic, which is what makes session runs
/// bit-identical to fresh runs.  Individual fixpoint rounds are memoized in
/// `round_cache`, so configurations that revisit a round another
/// configuration already solved (most prominently the shared zero-bounds
/// seeding pass of dynamic depth bounding) skip straight to its result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_prepared(
    options: &AnalysisOptions,
    analyzed: &Arc<Program>,
    unroll: UnrollReport,
    vcfg: &Vcfg,
    amap: &Arc<AddressMap>,
    widen_nodes: &HashSet<usize>,
    round_cache: &Memo<RoundKey, Round>,
    summary: SummaryCtx<'_>,
    start: Instant,
) -> AnalysisResult {
    let solver = WorklistSolver {
        widening_delay: options.widening_delay,
        ..WorklistSolver::default()
    };

    let num_colors = vcfg.num_colors();
    let mut total_stats = SolveStats::default();
    let mut rounds = 0u32;

    /// Solves one round (or replays it from the cache), accumulating its
    /// statistics exactly as a fresh solve would.  The returned problem is
    /// freshly constructed either way — classification and the dynamic
    /// depth-bounding checks need its topology.
    ///
    /// An actually-solved round consults the summary context: when the
    /// session adopted a donor whose seeding plan passed the gates *and*
    /// the donor solved this very round, the frozen blocks transplant the
    /// donor's converged states and only the invalidated region iterates.
    /// The converged states are identical either way (the plan's gates
    /// guarantee it); only the per-block hit/miss accounting and the
    /// worklist-pop statistics differ.
    #[allow(clippy::too_many_arguments)]
    fn run_round<'a>(
        solver: &WorklistSolver,
        analyzed: &'a Program,
        vcfg: &'a Vcfg,
        amap: &'a AddressMap,
        options: &AnalysisOptions,
        widen_nodes: &HashSet<usize>,
        bounds: Vec<u32>,
        round_cache: &Memo<RoundKey, Round>,
        summary: &SummaryCtx<'_>,
        total: &mut SolveStats,
        rounds: &mut u32,
    ) -> (SpecProblem<'a>, Arc<Round>) {
        let effective = options.effective_speculation();
        let key = (
            options.cache,
            options.track_shadow,
            options.widening_delay,
            effective.depth_on_miss,
            effective.merge_strategy,
            bounds.clone(),
        );
        let mut problem = SpecProblem::new(
            analyzed,
            vcfg,
            amap,
            options.cache,
            options.track_shadow,
            bounds,
            widen_nodes.clone(),
        );
        let donor_round = summary
            .seed
            .as_ref()
            .and_then(|(_, summaries)| summaries.donor_round(&key));
        let round = round_cache.get_or_insert_with(key, || {
            let blocks = analyzed.blocks().len() as u64;
            if let (Some((plan, _)), Some(donor)) = (&summary.seed, &donor_round) {
                let seeds: Vec<Option<SpecState>> = plan
                    .frozen
                    .iter()
                    .enumerate()
                    .map(|(node, &frozen)| {
                        frozen.then(|| donor.states[plan.donor_node[node] as usize].clone())
                    })
                    .collect();
                let (states, stats) = solver.solve_seeded(&mut problem, seeds);
                summary
                    .store
                    .record_round(plan.frozen_blocks, blocks - plan.frozen_blocks);
                return Round {
                    states: Arc::new(states),
                    stats,
                };
            }
            summary.store.record_round(0, blocks);
            let (states, stats) = solver.solve(&mut problem);
            Round {
                states: Arc::new(states),
                stats,
            }
        });
        let stats = round.stats;
        total.node_visits += stats.node_visits;
        total.state_updates += stats.state_updates;
        total.max_worklist_len = total.max_worklist_len.max(stats.max_worklist_len);
        *rounds += 1;
        (problem, round)
    }

    // Fixpoint, with the dynamic depth-bounding refinement (Section 6.2)
    // when enabled: start every speculating branch at the optimistic window
    // `b_h` if a baseline pass proves its condition operands are hits, then
    // verify against the sound speculative result and enlarge any window
    // whose proof no longer holds, until stable.
    let (problem, round) = if !options.speculative || num_colors == 0 {
        run_round(
            &solver,
            analyzed,
            vcfg,
            amap,
            options,
            widen_nodes,
            vec![0; num_colors],
            round_cache,
            &summary,
            &mut total_stats,
            &mut rounds,
        )
    } else if !options.speculation.dynamic_depth_bounding {
        run_round(
            &solver,
            analyzed,
            vcfg,
            amap,
            options,
            widen_nodes,
            vec![options.speculation.depth_on_miss; num_colors],
            round_cache,
            &summary,
            &mut total_stats,
            &mut rounds,
        )
    } else {
        // Baseline pass (windows of zero) for the initial must-hit facts.
        // Across a comparison suite this is the most frequently shared
        // round: every dynamic-bounding configuration with the same cache,
        // shadow and widening settings starts from it.
        let (baseline_problem, baseline_round) = run_round(
            &solver,
            analyzed,
            vcfg,
            amap,
            options,
            widen_nodes,
            vec![0; num_colors],
            round_cache,
            &summary,
            &mut total_stats,
            &mut rounds,
        );
        let mut bounds: Vec<u32> = vcfg
            .sites()
            .iter()
            .map(|site| {
                let at_branch = &baseline_round.states[site.branch_node.index()].normal;
                if baseline_problem.condition_is_must_hit(&site.condition_refs, at_branch) {
                    options.speculation.depth_on_hit
                } else {
                    options.speculation.depth_on_miss
                }
            })
            .collect();
        drop(baseline_problem);
        drop(baseline_round);

        loop {
            let (problem, round) = run_round(
                &solver,
                analyzed,
                vcfg,
                amap,
                options,
                widen_nodes,
                bounds.clone(),
                round_cache,
                &summary,
                &mut total_stats,
                &mut rounds,
            );
            // Verify every optimistic window against the sound result.
            let violations: Vec<usize> = vcfg
                .sites()
                .iter()
                .enumerate()
                .filter(|(i, site)| {
                    bounds[*i] < options.speculation.depth_on_miss && {
                        let at_branch = &round.states[site.branch_node.index()].normal;
                        !problem.condition_is_must_hit(&site.condition_refs, at_branch)
                    }
                })
                .map(|(i, _)| i)
                .collect();
            if violations.is_empty() {
                break (problem, round);
            }
            for i in violations {
                bounds[i] = options.speculation.depth_on_miss;
            }
        }
    };

    // Classification.
    let states = &round.states;
    let accesses = classify_accesses(&problem, vcfg, states);
    let bounds = problem.bounds.clone();
    let speculated_branches = vcfg.num_speculated_branches();
    drop(problem);

    AnalysisResult {
        program: Arc::clone(analyzed),
        address_map: Arc::clone(amap),
        cache: options.cache,
        states: Arc::clone(&round.states),
        accesses,
        stats: total_stats,
        rounds,
        unroll,
        speculated_branches,
        colors: num_colors,
        bounds,
        elapsed: start.elapsed(),
    }
}
