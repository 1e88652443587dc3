//! Golden copies of the paper figures' `--fast` output.
//!
//! The fast presets of Figs. 7, 8 and 11–13 run in a fraction of a second
//! and repeat byte for byte, so their text is checked in as
//! `tests/figures/<name>.txt`. `tests/integration_figures.rs` compares the
//! program's output with those files: a change that moves a figure — an
//! LP tie broken the other way on DFL-16's equal-cost links, say — shows
//! up as a diff of the files in the change that moved it. Only
//! `mrlc-experiments pin-figures` rewrites them.

use crate::{fig11_13, fig7, fig8};
use std::path::PathBuf;

/// The pinned figures, by subcommand name.
pub const PINNED: [&str; 5] = ["fig7", "fig8", "fig11", "fig12", "fig13"];

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
        "fig11" | "fig12" | "fig13" => {
            let cfg = if fast { fig11_13::Config::fast() } else { fig11_13::Config::default() };
            let records = fig11_13::run(&cfg);
            match name {
                "fig11" => fig11_13::render_fig11(&records),
                "fig12" => fig11_13::render_fig12(&records),
                _ => fig11_13::render_fig13(&records),
            }
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
