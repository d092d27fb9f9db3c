//! Golden transcripts: every figure that `twig eval` prints, rendered at
//! `Scale::small()`, must equal its recorded transcript in `golden/` byte
//! for byte.
//!
//! The goldens pin determinism (corpus generation, workloads, summaries,
//! estimators and formatting), not the paper's claims: at 200 KB several
//! orderings differ from full scale (Leaf beats MO on Fig. 3). A change
//! that moves a figure on purpose re-records its golden with
//!
//! ```text
//! TWIG_SCALE=small twig eval <figure> > crates/eval/tests/golden/<figure>.txt
//! ```
//!
//! and regenerates `results/<figure>.txt` at full scale.

use std::path::Path;

use twig_eval::{figures, Scale};

fn check(name: &str) {
    let mut rendered = Vec::new();
    figures::render(name, &Scale::small(), &mut rendered).expect("figure renders");
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"));
    let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if rendered != golden {
        let rendered = String::from_utf8_lossy(&rendered);
        let golden = String::from_utf8_lossy(&golden);
        let line = rendered.lines().zip(golden.lines()).position(|(r, g)| r != g);
        panic!(
            "`twig eval {name}` differs from {} (first differing line: {line:?})\n\
             --- rendered\n{rendered}\n--- golden\n{golden}",
            path.display()
        );
    }
}

macro_rules! goldens {
    ($($name:ident),* $(,)?) => {
        $(#[test]
        fn $name() {
            check(stringify!($name));
        })*

        #[test]
        fn every_figure_has_a_golden() {
            let pinned = [$(stringify!($name)),*];
            assert_eq!(figures::names().collect::<Vec<_>>(), pinned);
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
            let mut files: Vec<String> = std::fs::read_dir(&dir)
                .expect("golden directory")
                .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            files.sort();
            let mut expected: Vec<String> = pinned.iter().map(|name| format!("{name}.txt")).collect();
            expected.sort();
            assert_eq!(files, expected);
        }
    };
}

goldens!(
    table1, fig3, fig4a, fig4b, fig5a, fig5b, fig6a, fig6b, fig7a, fig7b, occurrence, ablation,
);

#[test]
fn unknown_figure_lists_every_name() {
    let err = figures::render("fig8", &Scale::small(), &mut Vec::new()).unwrap_err();
    for name in figures::names() {
        assert!(err.contains(name), "{err}");
    }
}
