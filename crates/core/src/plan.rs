//! Memoized per-query answers.
//!
//! Every input of an estimate — the compiled twig, its parse and
//! twiglets, the summary counts the combination reads — is a constant of
//! the `(summary, twig)` pair, so a [`QueryPlan`] memoizes the answer
//! itself: twelve slots, one per (algorithm, count kind). An optimizer
//! re-asking the same predicate reads its slot and runs no estimator.
//!
//! A plan is *passive*: a slot fills on first use by
//! [`Cst::estimate_raw`](crate::Cst::estimate_raw) running the plan-free
//! path, so estimates are bit-identical with and without a plan. A plan
//! belongs to the `(summary, twig)` pair of its first use; the serve plan
//! cache keys it by summary name, reload generation and raw request text,
//! and clears it on reload. Within that pair an answer cannot go stale:
//! summaries are read-only, and the flat form checks a section's checksum
//! before its first read and pins a failed section empty for good.

use std::sync::OnceLock;

use crate::estimate::{Algorithm, CountKind};

/// The memoized answers for one `(summary, twig)` pair.
///
/// Thread-safe: the slots are [`OnceLock`]s, so a plan shared behind an
/// `Arc` across server workers computes each answer exactly once and
/// serves concurrent readers lock-free afterwards.
#[derive(Debug, Default)]
pub struct QueryPlan {
    /// Rows in [`Algorithm::ALL`] order; columns presence, occurrence.
    answers: [[OnceLock<f64>; 2]; 6],
}

impl QueryPlan {
    /// An empty plan; answers fill on first use by
    /// [`Cst::estimate_raw`](crate::Cst::estimate_raw).
    #[must_use]
    pub fn new() -> QueryPlan {
        QueryPlan::default()
    }

    /// The answer for `(algorithm, kind)`, computed by `init` on the
    /// slot's first use.
    pub(crate) fn answer_or_init(
        &self,
        algorithm: Algorithm,
        kind: CountKind,
        init: impl FnOnce() -> f64,
    ) -> f64 {
        let column = match kind {
            CountKind::Presence => 0,
            CountKind::Occurrence => 1,
        };
        *self.answers[algorithm.index()][column].get_or_init(init)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use twig_util::cast::size_to_f64;

    use super::*;

    const KINDS: [CountKind; 2] = [CountKind::Presence, CountKind::Occurrence];

    #[test]
    fn each_slot_runs_its_init_once() {
        let plan = QueryPlan::new();
        let runs = Cell::new(0);
        for (row, algorithm) in Algorithm::ALL.into_iter().enumerate() {
            for (column, kind) in KINDS.into_iter().enumerate() {
                let answer = size_to_f64(row * 2 + column);
                let fill = || {
                    runs.set(runs.get() + 1);
                    answer
                };
                assert_eq!(plan.answer_or_init(algorithm, kind, fill), answer);
                let repeat = plan.answer_or_init(algorithm, kind, || {
                    panic!("{algorithm} {kind:?}: a filled slot must not run its init")
                });
                assert_eq!(repeat, answer);
            }
        }
        assert_eq!(runs.get(), 12, "one init per (algorithm, kind) slot");
    }

    /// Covers the same algorithm with the other kind (MSH presence) and
    /// the same kind with every other algorithm.
    #[test]
    fn filling_one_slot_leaves_the_other_eleven_empty() {
        let plan = QueryPlan::new();
        plan.answer_or_init(Algorithm::Msh, CountKind::Occurrence, || 1.0);
        let runs = Cell::new(0);
        for algorithm in Algorithm::ALL {
            for kind in KINDS {
                let answer = plan.answer_or_init(algorithm, kind, || {
                    runs.set(runs.get() + 1);
                    2.0
                });
                let filled = (algorithm, kind) == (Algorithm::Msh, CountKind::Occurrence);
                assert_eq!(answer, if filled { 1.0 } else { 2.0 }, "{algorithm} {kind:?}");
            }
        }
        assert_eq!(runs.get(), 11);
    }
}
