//! Integration check that every figure module runs end to end at reduced
//! scale and produces non-degenerate, paper-shaped output.

use wsn_experiments::*;

#[test]
fn all_figures_render_fast() {
    let f1 = fig1::render(&fig1::run(&fig1::Config::fast()));
    assert!(f1.contains("Fig. 1"));

    let f2 = fig2::render(&fig2::run(&fig2::Config::fast()));
    assert!(f2.contains("Fig. 2"));

    let f3 = fig3::render(&fig3::run(&fig3::Config::fast()));
    assert!(f3.contains("mW"));

    let f4 = fig4::render(&fig4::run());
    assert!(f4.contains("0.648"));

    let f5 = fig5::render(&fig5::run());
    assert!(f5.contains("[0, 2, 8, 4, 4, 0, 8]"));

    let f7 = fig7::render(&fig7::run(&fig7::Config::fast()));
    assert!(f7.contains("AAML") && f7.contains("MST"));

    let rows8 = fig8::run(&fig8::Config::fast());
    assert!(!rows8.is_empty());

    let rows9 = fig9::run(&fig9::fast_config());
    assert!(!rows9.is_empty());

    let pts10 = fig10::run(&fig10::Config::fast());
    assert_eq!(pts10.len(), fig10::Config::fast().probabilities.len());

    let recs = fig11_13::run(&fig11_13::Config::fast());
    assert!(fig11_13::render_fig11(&recs).contains("Fig. 11"));
    assert!(fig11_13::render_fig12(&recs).contains("Fig. 12"));
    assert!(fig11_13::render_fig13(&recs).contains("Fig. 13"));
}

#[test]
fn paper_figures_match_their_pins() {
    for name in pins::PINNED {
        let path = pins::pin_path(name);
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let text = pins::render(name, true).expect("a pinned figure");
        assert!(
            text == pinned,
            "{name} --fast no longer matches {}; if the change is meant, run \
             `mrlc-experiments pin-figures` and review the diff.\n--- pinned\n{pinned}\n--- now\n{text}",
            path.display()
        );
    }
}

#[test]
fn headline_result_ira_beats_aaml_reliability_by_a_wide_margin() {
    // The abstract's claim: IRA outperforms AAML in reliability (24% on the
    // DFL trace). Check the reproduction preserves a double-digit gap.
    let rows = fig7::run(&fig7::Config::default());
    let aaml = rows.iter().find(|r| r.scheme == "AAML").unwrap();
    let ira = rows.iter().find(|r| r.scheme.starts_with("IRA@1.0")).unwrap();
    let improvement = (ira.reliability - aaml.reliability) / aaml.reliability;
    assert!(improvement > 0.05, "reliability improvement collapsed: {:.1}%", improvement * 100.0);
    assert!(ira.lifetime >= aaml.lifetime * 0.75, "lifetime parity lost");
}
