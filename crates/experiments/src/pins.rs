//! Golden copies of the paper figures' `--fast` output.
//!
//! The fast presets of Figs. 7–13 and the Pareto extension run in a
//! fraction of a second and repeat byte for byte, so their text is checked
//! in as `tests/figures/<name>.txt`. `tests/integration_figures.rs`
//! compares the program's output with those files: a change that moves a
//! figure — an LP tie broken the other way on DFL-16's equal-cost links,
//! say — shows up as a diff of the files in the change that moved it. Only
//! `mrlc-experiments pin-figures` rewrites them.

use crate::{ext_pareto, fig10, fig11_13, fig7, fig8, fig9};
use std::path::PathBuf;

/// The pinned figures, by subcommand name.
pub const PINNED: [&str; 8] =
    ["fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "pareto"];

/// The text `mrlc-experiments <name> [--fast]` prints for a pinned figure,
/// or `None` for any other name.
pub fn render(name: &str, fast: bool) -> Option<String> {
    let text = match name {
        "fig7" => {
            let cfg = if fast { fig7::Config::fast() } else { fig7::Config::default() };
            fig7::render(&fig7::run(&cfg))
        }
        "fig8" => {
            let cfg = if fast { fig8::Config::fast() } else { fig8::Config::default() };
            fig8::render(&fig8::run(&cfg), "Fig. 8 — random graphs, equal energy (3000 J)")
        }
        "fig9" => {
            let cfg = if fast { fig9::fast_config() } else { fig9::paper_config() };
            fig9::render(&fig9::run(&cfg))
        }
        "fig10" => {
            let cfg = if fast { fig10::Config::fast() } else { fig10::Config::default() };
            fig10::render(&fig10::run(&cfg))
        }
        "fig11" | "fig12" | "fig13" => {
            let cfg = if fast { fig11_13::Config::fast() } else { fig11_13::Config::default() };
            let records = fig11_13::run(&cfg);
            match name {
                "fig11" => fig11_13::render_fig11(&records),
                "fig12" => fig11_13::render_fig12(&records),
                _ => fig11_13::render_fig13(&records),
            }
        }
        "pareto" => {
            let cfg = if fast { ext_pareto::Config::fast() } else { ext_pareto::Config::default() };
            let (all, dominant) = ext_pareto::run(&cfg);
            ext_pareto::render(&all, &dominant)
        }
        _ => return None,
    };
    Some(text)
}

/// The golden file of a pinned figure.
pub fn pin_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/figures")
        .join(format!("{name}.txt"))
}
