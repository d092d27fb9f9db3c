//! Error metrics and the experiment harness that regenerates the paper's
//! tables and figures (Sec. 6).
//!
//! - [`metrics`]: average relative error, average relative *squared* error
//!   (the paper's primary accuracy metric, which divides by the estimate
//!   and therefore punishes underestimation hard), root mean squared error
//!   for negative queries, and the estimate/real ratio buckets of
//!   Fig. 5(a).
//! - [`harness`]: corpus handling (generate → parse → shared suffix trie),
//!   workload construction with exact ground truths, and CST construction
//!   at a given space fraction.
//! - [`experiments`]: one function per table/figure; each returns plain
//!   data rows.
//! - [`figures`]: the table of the paper's figures that `twig eval
//!   <figure>` prints, one text transcript each (`results/<figure>.txt`).
//!
//! Ground truth throughout is the **occurrence** count (Definition 3):
//! both corpora contain duplicate sibling labels, so — as the paper notes
//! in Sec. 6.1 — the evaluation is the multiset counting problem.

pub mod experiments;
pub mod figures;
pub mod harness;
pub mod metrics;

pub use harness::{Corpus, CstPair, Scale, Workload};
pub use metrics::{
    avg_relative_error, avg_relative_squared_error, ratio_buckets, rmse, RatioBuckets,
};
