//! # spec-core
//!
//! The paper's primary contribution: a must-hit cache analysis that is
//! **sound under speculative execution**.
//!
//! The crate provides two analyses behind a single entry point,
//! [`CacheAnalysis`]:
//!
//! * the **non-speculative baseline** (`CacheAnalysis::non_speculative`),
//!   the classic Ferdinand/Wilhelm-style must analysis the paper compares
//!   against (Algorithm 1), and
//! * the **speculative analysis** (`CacheAnalysis::speculative`), which
//!   augments the control flow with virtual speculative executions
//!   (Algorithm 2/3), merges them with the configured
//!   [`spec_vcfg::MergeStrategy`], bounds speculation windows dynamically
//!   (Section 6.2) and optionally refines joins with shadow variables
//!   (Appendix B).
//!
//! The result of a run, [`AnalysisResult`], classifies every memory access
//! as a guaranteed hit or a possible miss, both for committed executions
//! (`#Miss`) and for squashed speculative executions (`#SpMiss`), which is
//! what the execution-time and side-channel applications in `spec-analysis`
//! consume.
//!
//! ## Example
//!
//! ```rust
//! use spec_core::{AnalysisOptions, CacheAnalysis};
//! use spec_cache::CacheConfig;
//! use spec_ir::builder::ProgramBuilder;
//! use spec_ir::{BranchSemantics, IndexExpr, MemRef};
//!
//! // A miniature version of the paper's Figure 2.
//! let mut b = ProgramBuilder::new("figure2-mini");
//! let ph = b.region("ph", 2 * 64, false);
//! let l1 = b.region("l1", 64, false);
//! let l2 = b.region("l2", 64, false);
//! let p = b.region("p", 8, false);
//! let entry = b.entry_block("entry");
//! let then_bb = b.block("then");
//! let else_bb = b.block("else");
//! let done = b.block("done");
//! b.load_sweep(entry, ph, 0, 64, 2);           // preload ph
//! b.load(entry, p, IndexExpr::Const(0));
//! b.data_branch(entry, vec![MemRef::at(p, 0)],
//!               BranchSemantics::InputBit { bit: 0 }, then_bb, else_bb);
//! b.load(then_bb, l1, IndexExpr::Const(0));
//! b.jump(then_bb, done);
//! b.load(else_bb, l2, IndexExpr::Const(0));
//! b.jump(else_bb, done);
//! b.load(done, ph, IndexExpr::Const(0));       // hit?  depends on speculation
//! b.ret(done);
//! let program = b.finish().unwrap();
//!
//! // With a 4-line cache, the non-speculative analysis proves the final
//! // access hits, but speculation can evict it.  Preparing the program once
//! // shares the unrolled program, address map and VCFG between the runs.
//! let cache = CacheConfig::fully_associative(4, 64);
//! let prepared = spec_core::Analyzer::new().prepare(&program);
//! let suite = prepared.run_suite(&[
//!     ("baseline", AnalysisOptions::builder().baseline().cache(cache).build().unwrap()),
//!     ("speculative", AnalysisOptions::builder().cache(cache).build().unwrap()),
//! ]);
//! assert!(
//!     suite.get("baseline").unwrap().result.miss_count()
//!         < suite.get("speculative").unwrap().result.miss_count()
//! );
//! ```
//!
//! One-shot analyses keep working through [`CacheAnalysis`], which is a thin
//! wrapper over a single-use session; comparative code should use
//! [`session::Analyzer::prepare`] and run many configurations against one
//! [`session::PreparedProgram`] (concurrently, via
//! [`session::PreparedProgram::run_suite`]).

pub mod analysis;
pub mod artifact;
pub mod batch;
pub mod cache_session;
pub mod classify;
mod engine;
pub mod gateway;
pub mod incremental;
pub mod json;
pub mod options;
pub mod service;
pub mod session;
pub mod state;
mod summary;

pub use analysis::CacheAnalysis;
pub use artifact::{options_signature, PreparedStore};
pub use batch::{
    BatchError, BatchReport, BundleStamp, ExecMode, PanelKind, PanelSpec, ScanOutcome,
};
pub use cache_session::{AcquireStats, CacheOutcome, CacheSession, PrepareGuard};
pub use classify::{AccessInfo, AnalysisResult};
pub use incremental::{SessionCache, SessionStats, SessionTier, SessionUpdate};
pub use options::{AnalysisOptions, AnalysisOptionsBuilder, OptionsError};
pub use session::{
    Analyzer, CacheStats, MergeError, PreparedProgram, Report, ReportRow, Suite, SuiteRun,
};
pub use state::SpecState;
