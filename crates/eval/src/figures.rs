//! The paper's tables and figures as text transcripts: `twig eval
//! <figure>` prints one, and `results/<figure>.txt` holds each at full
//! scale (DESIGN.md §5).
//!
//! `FIGURES` has one row per figure, named after its `results/` file:
//! its space axis, a printer that builds the figure's corpus and makes
//! one [`experiments`] call, and the paper's expectation. A transcript is
//! a human-readable table, machine-readable rows prefixed `csv,` for
//! plotting, and the expectation under them; Fig. 3 and Fig. 4 open with
//! a line describing their corpus.

use std::io::{self, Write};

use twig_core::{Algorithm, SignatureFallback};
use twig_util::stats::log10_floored;

use crate::experiments::{self, SeriesPoint, WorkloadKind};
use crate::harness::{Corpus, Scale};
use crate::metrics::RatioBuckets;

/// Writes a figure's body: its experiment over `spaces` at `scale`.
type Printer = fn(&Scale, &[f64], &mut dyn Write) -> io::Result<()>;

/// One table or figure of the paper's evaluation.
struct Figure {
    /// The `results/` file stem and the `twig eval` argument.
    name: &'static str,
    /// Space budgets as fractions of the corpus size.
    spaces: &'static [f64],
    print: Printer,
    /// The paper's qualitative claim, echoed under the output.
    expectation: Option<&'static str>,
}

const FIG4_EXPECTATION: &str = "MOSH and MSH improve sharply with space and overtake \
    Greedy/Leaf/MO; Greedy and MO are insensitive to space once query paths fit; PMOSH is \
    unstable; the complex corpus needs more space for the same accuracy";

const FIG7_EXPECTATION: &str = "Greedy is good from the start (products of tiny counts); \
    MOSH/MSH improve quickly and win in the end; MO and Leaf are inaccurate due to \
    amplification by conditioning on small overlap counts; PMOSH is poor";

const DBLP_SPACES: &[f64] = &[0.01, 0.02, 0.05, 0.10, 0.15, 0.20];
const SPROT_SPACES: &[f64] = &[0.02, 0.05, 0.10, 0.20, 0.30];

const FIGURES: [Figure; 12] = [
    Figure { name: "table1", spaces: &[], print: table1, expectation: None },
    Figure {
        name: "fig3",
        spaces: &[0.01, 0.02, 0.04, 0.07, 0.10],
        print: fig3,
        expectation: Some(
            "pure MO is up to a few orders of magnitude more accurate than Leaf — path \
             information matters even for single-path queries",
        ),
    },
    Figure {
        name: "fig4a",
        spaces: DBLP_SPACES,
        print: |scale, spaces, out| fig4(&dblp_corpus(scale), scale, spaces, out),
        expectation: Some(FIG4_EXPECTATION),
    },
    Figure {
        name: "fig4b",
        spaces: SPROT_SPACES,
        print: |scale, spaces, out| fig4(&sprot_corpus(scale), scale, spaces, out),
        expectation: Some(FIG4_EXPECTATION),
    },
    Figure {
        name: "fig5a",
        spaces: &[0.10],
        print: fig5a,
        expectation: Some(
            "correlation-less algorithms underestimate >10x on >95% of queries; MOSH/MSH \
             estimate most queries within 50% of the real count",
        ),
    },
    Figure {
        name: "fig5b",
        spaces: DBLP_SPACES,
        print: fig5b,
        expectation: Some("a small share of queries (roughly 1-4%) parse differently"),
    },
    Figure {
        name: "fig6a",
        spaces: &[0.05, 0.10, 0.15],
        print: fig6a,
        expectation: Some("MSH substantially outperforms MOSH on the divergent queries"),
    },
    Figure {
        name: "fig6b",
        spaces: &[0.10],
        print: fig6b,
        expectation: Some(
            "MOSH and MSH improve as data grows (the unpruned structure grows sublinearly \
             while the budget grows linearly); the others show no clear trend",
        ),
    },
    Figure {
        name: "fig7a",
        spaces: DBLP_SPACES,
        print: |scale, spaces, out| fig7(&dblp_corpus(scale), scale, spaces, out),
        expectation: Some(FIG7_EXPECTATION),
    },
    Figure {
        name: "fig7b",
        spaces: SPROT_SPACES,
        print: |scale, spaces, out| fig7(&sprot_corpus(scale), scale, spaces, out),
        expectation: Some(FIG7_EXPECTATION),
    },
    Figure {
        name: "occurrence",
        spaces: &[0.10],
        print: occurrence,
        expectation: Some(
            "the uniformity assumption makes occurrence estimates track multiset ground \
             truth closely (the paper's 2.9 -> 5.8 example)",
        ),
    },
    Figure { name: "ablation", spaces: &[0.10], print: ablation, expectation: None },
];

/// The figure names `twig eval` accepts, in the paper's order.
pub fn names() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|figure| figure.name)
}

/// Writes the transcript of figure `name` at `scale` to `out`. An unknown
/// name is an error that lists the figures.
pub fn render(name: &str, scale: &Scale, out: &mut dyn Write) -> Result<(), String> {
    let Some(figure) = FIGURES.iter().find(|figure| figure.name == name) else {
        let names: Vec<&str> = names().collect();
        return Err(format!("unknown figure '{name}'; expected one of: {}", names.join(", ")));
    };
    (figure.print)(scale, figure.spaces, out)
        .and_then(|()| match figure.expectation {
            Some(text) => write!(out, "paper expectation: {text}\n\n"),
            None => Ok(()),
        })
        .map_err(|err| format!("I/O error: {err}"))
}

fn dblp_corpus(scale: &Scale) -> Corpus {
    Corpus::dblp(scale.dblp_bytes, scale.seed)
}

fn sprot_corpus(scale: &Scale) -> Corpus {
    Corpus::sprot(scale.sprot_bytes, scale.seed)
}

/// Table 1: the qualitative properties of the six algorithms.
fn table1(_: &Scale, _: &[f64], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Table 1: Estimation Algorithms ==")?;
    writeln!(
        out,
        "{:<8} {:<12} {:<12} {:<32} {:<12}",
        "Name", "Path Info", "Correlation", "Twiglets Formation", "Combination"
    )?;
    for algo in Algorithm::ALL {
        let (path, corr, twiglets, comb) = algo.properties();
        writeln!(
            out,
            "{:<8} {:<12} {:<12} {:<32} {:<12}",
            algo.name(),
            path,
            corr,
            twiglets,
            comb
        )?;
    }
    Ok(())
}

/// Fig. 3: Leaf vs pure MO on trivial (single-path) queries.
fn fig3(scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    let corpus = dblp_corpus(scale);
    writeln!(
        out,
        "corpus {} bytes, {} elements; {} queries",
        corpus.tree.source_bytes(),
        corpus.tree.element_count(),
        scale.queries
    )?;
    let points = experiments::trivial_experiment(&corpus, scale, spaces);
    series(out, "fig3-trivial-dblp", "avg relative squared error", &points)
}

/// Fig. 4: all six algorithms on positive non-trivial queries.
fn fig4(corpus: &Corpus, scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "corpus {}: {} bytes, {} elements; {} queries",
        corpus.name,
        corpus.tree.source_bytes(),
        corpus.tree.element_count(),
        scale.queries
    )?;
    let (squared, relative) = experiments::positive_experiment(corpus, scale, spaces);
    let title = format!("fig4-positive-{}", corpus.name);
    series(out, &format!("{title}-squared"), "avg relative squared error", &squared)?;
    series(out, &format!("{title}-relative"), "avg relative error", &relative)
}

/// Fig. 5(a): the estimate/real ratio distribution at one space budget.
fn fig5a(scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    let space = spaces[0];
    let rows = experiments::ratio_distribution(&dblp_corpus(scale), scale, space);
    writeln!(out, "== fig5a: ratio distribution at {}% space, dblp ==", space * 100.0)?;
    write!(out, "{:<8}", "algo")?;
    for label in RatioBuckets::LABELS {
        write!(out, "{label:>8}")?;
    }
    writeln!(out)?;
    for (algo, buckets) in rows {
        let percentages = buckets.as_percentages();
        write!(out, "{:<8}", algo.name())?;
        for pct in percentages {
            write!(out, "{pct:>7.1}%")?;
        }
        writeln!(out)?;
        let row: Vec<String> = percentages.iter().map(|p| format!("{p:.2}")).collect();
        writeln!(out, "csv,fig5a,{},{}", algo.name(), row.join(","))?;
    }
    writeln!(out)
}

/// Fig. 5(b): the share of queries MOSH and MSH parse differently.
fn fig5b(scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    let rows = experiments::parse_divergence(&dblp_corpus(scale), scale, spaces);
    writeln!(out, "== fig5b: % of queries parsed differently by MOSH vs MSH, dblp ==")?;
    for (space, pct) in rows {
        writeln!(out, "space {:>5.1}%  divergent {pct:>5.1}%", space * 100.0)?;
        writeln!(out, "csv,fig5b,{space},{pct:.3}")?;
    }
    writeln!(out)
}

/// Fig. 6(a): MOSH vs MSH on the differently parsed queries.
fn fig6a(scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    let rows = experiments::divergent_error(&dblp_corpus(scale), scale, spaces);
    writeln!(out, "== fig6a: MOSH vs MSH on differently-parsed queries, dblp ==")?;
    for (space, errors) in rows {
        match errors {
            Some((mosh, msh)) => {
                writeln!(
                    out,
                    "space {:>5.1}%  log10 err  MOSH {:>6.2}  MSH {:>6.2}",
                    space * 100.0,
                    log10_floored(mosh),
                    log10_floored(msh)
                )?;
                writeln!(out, "csv,fig6a,{space},{mosh:.4},{msh:.4}")?;
            }
            None => writeln!(out, "space {:>5.1}%  (no divergent queries)", space * 100.0)?,
        }
    }
    writeln!(out)
}

/// Fig. 6(b): scale-up, error at one space budget over DBLP corpora of
/// 1/8 to 8/8 of the full size.
fn fig6b(scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    let sizes: Vec<usize> = [1, 2, 4, 6, 8].iter().map(|&f| scale.dblp_bytes * f / 8).collect();
    let rows = experiments::scaleup(scale, &sizes, spaces[0]);
    writeln!(out, "== fig6b: scale-up at {}% space, dblp ==", spaces[0] * 100.0)?;
    for (bytes, points) in rows {
        write!(out, "size {:>6.1} MB |", bytes as f64 / 1048576.0)?;
        for p in &points {
            write!(out, " {} {:>5.2} |", p.algorithm.name(), p.log10_error)?;
        }
        writeln!(out)?;
        for p in &points {
            writeln!(out, "csv,fig6b,{bytes},{},{:.4}", p.algorithm.name(), p.log10_error)?;
        }
    }
    writeln!(out)
}

/// Fig. 7: negative queries, once with the paper-literal zero fallback
/// and once with the library default.
fn fig7(corpus: &Corpus, scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    for (fallback, label) in
        [(SignatureFallback::Zero, "zero"), (SignatureFallback::ConditionalIndependence, "default")]
    {
        let points = experiments::negative_experiment(corpus, scale, spaces, fallback);
        let title = format!("fig7-negative-{}-{label}-fallback", corpus.name);
        series(out, &title, "RMSE", &points)?;
    }
    Ok(())
}

/// Sec. 5: occurrence estimation through the uniformity assumption.
fn occurrence(scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    let corpus = dblp_corpus(scale);
    let space = spaces[0];
    writeln!(out, "== occurrence estimation (Sec. 5), dblp, {}% space ==", space * 100.0)?;
    for (kind, label) in [(WorkloadKind::Trivial, "trivial"), (WorkloadKind::Positive, "positive")]
    {
        let (presence_err, occurrence_err) =
            experiments::occurrence_validation(&corpus, scale, space, kind);
        writeln!(
            out,
            "{label:>9} workload: avg rel err — presence-as-occurrence {presence_err:.3}, \
             occurrence (uniformity) {occurrence_err:.3}"
        )?;
        writeln!(out, "csv,occurrence,{label},{presence_err:.4},{occurrence_err:.4}")?;
    }
    writeln!(out)
}

/// Ablations (DESIGN.md §6): the signature length at a fixed byte
/// budget, and MOSH with vs without signatures.
fn ablation(scale: &Scale, spaces: &[f64], out: &mut dyn Write) -> io::Result<()> {
    const LENGTHS: [usize; 5] = [8, 16, 32, 64, 128];
    let corpus = dblp_corpus(scale);
    let budget = (corpus.tree.source_bytes() as f64 * spaces[0]) as usize;
    let (lengths, [with, without]) =
        experiments::signature_ablation(&corpus, scale, budget, &LENGTHS);
    writeln!(out, "== ablation 1: signature length at a fixed {budget}-byte budget ==")?;
    writeln!(out, "(longer signatures resolve weaker correlations but buy fewer subpaths)")?;
    for (len, row) in LENGTHS.iter().zip(&lengths) {
        let (nodes, rel, lsq) = (row.nodes, row.relative, row.log10_squared);
        writeln!(
            out,
            "L = {len:>3}: nodes {nodes:>6}  avg rel err {rel:>7.3}  log10 sq err {lsq:>6.2}"
        )?;
        writeln!(out, "csv,ablation-siglen,{len},{nodes},{rel:.4},{lsq:.4}")?;
    }
    writeln!(out)?;
    writeln!(out, "== ablation 2: are the signatures worth their bytes? ==")?;
    for (label, row) in [("with signatures", with), ("without (cond. indep.)", without)] {
        let (nodes, rel, lsq) = (row.nodes, row.relative, row.log10_squared);
        writeln!(
            out,
            "{label:<24} nodes {nodes:>6}  avg rel err {rel:>7.3}  log10 sq err {lsq:>6.2}"
        )?;
        writeln!(out, "csv,ablation-signatures,{label},{nodes},{rel:.4},{lsq:.4}")?;
    }
    Ok(())
}

/// An error-vs-space series: a table (rows are space budgets, columns
/// algorithms, cells `log10` of the error) followed by its CSV rows.
fn series(
    out: &mut dyn Write,
    title: &str,
    metric: &str,
    points: &[SeriesPoint],
) -> io::Result<()> {
    let mut spaces: Vec<f64> = points.iter().map(|p| p.space).collect();
    spaces.sort_by(f64::total_cmp);
    spaces.dedup();
    let mut algorithms: Vec<Algorithm> = Vec::new();
    for p in points {
        if !algorithms.contains(&p.algorithm) {
            algorithms.push(p.algorithm);
        }
    }
    writeln!(out, "== {title} ==")?;
    writeln!(out, "metric: log10({metric})")?;
    write!(out, "{:>8}", "space%")?;
    for algo in &algorithms {
        write!(out, "{:>9}", algo.name())?;
    }
    writeln!(out)?;
    for &space in &spaces {
        write!(out, "{:>7.2}%", space * 100.0)?;
        for &algo in &algorithms {
            match points.iter().find(|p| p.space == space && p.algorithm == algo) {
                Some(p) => write!(out, "{:>9.2}", p.log10_error)?,
                None => write!(out, "{:>9}", "-")?,
            }
        }
        writeln!(out)?;
    }
    for p in points {
        writeln!(
            out,
            "csv,{title},{},{},{:.4},{:.6}",
            p.space,
            p.algorithm.name(),
            p.log10_error,
            p.error
        )?;
    }
    writeln!(out)
}
