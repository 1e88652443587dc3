//! `mrlc-experiments` — regenerates every figure of the MRLC evaluation.
//!
//! ```text
//! mrlc-experiments all [--fast]
//! mrlc-experiments fig1|fig2|fig3|fig4|fig5|fig7|fig8|fig9|fig10|fig11|fig12|fig13 [--fast]
//! mrlc-experiments ablation [--fast]
//! mrlc-experiments pin-figures      # rewrite tests/figures/ from the --fast figures
//! mrlc-experiments bench-perf [--smoke] [--out=PATH]   # writes BENCH_ira.json
//! mrlc-experiments serve-storm [--fast] [--json]   # solve-service fleet throughput/p99
//! mrlc-experiments serve-chaos            # seeded worker-kill storm (CI smoke)
//! mrlc-experiments bench-check trend <baseline.json> <current.json>  # CI perf gate
//! mrlc-experiments fig8 --trace t.jsonl --metrics m.json   # instrumented run
//! mrlc-experiments obs-report t.jsonl [w2.jsonl ...] [--metrics=m.json] [--top=N]  # summarize (merges >1)
//! mrlc-experiments obs-report hotspots t.jsonl [w2.jsonl ...] [--top=N] [--folded]
//! mrlc-experiments obs-report postmortem dump.jsonl   # render a black-box dump
//! mrlc-experiments serve-chaos [--dump-dir=DIR]       # write incident black boxes
//! ```
//!
//! `--trace PATH` installs a virtual-clock collector for the run and writes
//! a deterministic JSONL trace (byte-identical across runs under a fixed
//! seed); `--metrics PATH` writes the metrics registry as JSON. Both accept
//! `--flag PATH` and `--flag=PATH` forms and apply to any figure.

use wsn_experiments::*;

/// Parsed command line: positional words plus the handful of flags.
struct Cli {
    fast: bool,
    smoke: bool,
    json: bool,
    folded: bool,
    out_path: String,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    dump_dir: Option<String>,
    top_k: usize,
    positional: Vec<String>,
}

fn parse_cli(raw: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        fast: false,
        smoke: false,
        json: false,
        folded: false,
        out_path: "BENCH_ira.json".to_string(),
        trace_path: None,
        metrics_path: None,
        dump_dir: None,
        top_k: 20,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < raw.len() {
        let arg = &raw[i];
        // A flag's value may be glued (`--trace=t.jsonl`) or the next word.
        let value_of = |name: &str, i: &mut usize| -> Result<String, String> {
            if let Some(v) = arg.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
                return Ok(v.to_string());
            }
            *i += 1;
            raw.get(*i).cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        if arg == "--fast" {
            cli.fast = true;
        } else if arg == "--smoke" {
            cli.smoke = true;
        } else if arg == "--json" {
            cli.json = true;
        } else if arg == "--folded" {
            cli.folded = true;
        } else if arg == "--dump-dir" || arg.starts_with("--dump-dir=") {
            cli.dump_dir = Some(value_of("--dump-dir", &mut i)?);
        } else if arg == "--out" || arg.starts_with("--out=") {
            cli.out_path = value_of("--out", &mut i)?;
        } else if arg == "--trace" || arg.starts_with("--trace=") {
            cli.trace_path = Some(value_of("--trace", &mut i)?);
        } else if arg == "--metrics" || arg.starts_with("--metrics=") {
            cli.metrics_path = Some(value_of("--metrics", &mut i)?);
        } else if arg == "--top" || arg.starts_with("--top=") {
            let v = value_of("--top", &mut i)?;
            cli.top_k = v.parse().map_err(|_| format!("--top expects a number, got `{v}`"))?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            cli.positional.push(arg.clone());
        }
        i += 1;
    }
    Ok(cli)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&raw) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let fast = cli.fast;
    let smoke = cli.smoke;
    let json_out = cli.json;
    let out_path = cli.out_path.clone();
    let which = cli.positional.first().cloned().unwrap_or_else(|| "all".to_string());

    if which == "bench-check" {
        let (Some("trend"), Some(baseline), Some(current)) = (
            cli.positional.get(1).map(String::as_str),
            cli.positional.get(2),
            cli.positional.get(3),
        ) else {
            eprintln!("usage: mrlc-experiments bench-check trend <baseline.json> <current.json>");
            std::process::exit(2);
        };
        match bench_check::run_trend(baseline, current) {
            Ok((text, passed)) => {
                print!("{text}");
                if !passed {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if which == "obs-report" {
        match cli.positional.get(1).map(String::as_str) {
            Some("postmortem") => {
                let Some(dump) = cli.positional.get(2) else {
                    eprintln!("usage: mrlc-experiments obs-report postmortem <dump.jsonl>");
                    std::process::exit(2);
                };
                match obs_report::run_postmortem(dump) {
                    Ok(text) => print!("{text}"),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(1);
                    }
                }
                return;
            }
            Some("hotspots") => {
                let traces = &cli.positional[2..];
                if traces.is_empty() {
                    eprintln!(
                        "usage: mrlc-experiments obs-report hotspots <trace.jsonl>... \
                         [--top=N] [--folded]"
                    );
                    std::process::exit(2);
                }
                match obs_report::run_hotspots(traces, cli.top_k, cli.folded) {
                    Ok(text) => print!("{text}"),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(1);
                    }
                }
                return;
            }
            _ => {}
        }
        let traces = &cli.positional[1..];
        if traces.is_empty() && cli.metrics_path.is_none() {
            eprintln!(
                "usage: mrlc-experiments obs-report [<trace.jsonl>...] [--metrics=m.json] [--top=N]"
            );
            std::process::exit(2);
        }
        if !traces.is_empty() {
            // Several traces (a fleet's per-worker traces) are merged into
            // a single timeline first.
            match obs_report::run(traces, cli.top_k) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &cli.metrics_path {
            match obs_report::run_metrics(path) {
                Ok(text) => {
                    if !traces.is_empty() {
                        println!();
                    }
                    print!("{text}");
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    // `--trace` needs the deterministic virtual clock; `--metrics` alone
    // only needs counters, so a detached (metrics-only) collector suffices.
    let obs = if cli.trace_path.is_some() {
        Some(wsn_obs::Obs::with_trace(wsn_obs::Clock::virtual_ticks()))
    } else if cli.metrics_path.is_some() {
        Some(wsn_obs::Obs::detached())
    } else {
        None
    };
    let ambient = obs.clone().map(wsn_obs::install);

    let run_one = |name: &str| match name {
        "fig1" => {
            let cfg = if fast { fig1::Config::fast() } else { fig1::Config::default() };
            print!("{}", fig1::render(&fig1::run(&cfg)));
        }
        "fig2" => {
            let cfg = if fast { fig2::Config::fast() } else { fig2::Config::default() };
            print!("{}", fig2::render(&fig2::run(&cfg)));
        }
        "fig3" => {
            let cfg = if fast { fig3::Config::fast() } else { fig3::Config::default() };
            print!("{}", fig3::render(&fig3::run(&cfg)));
        }
        "fig4" => print!("{}", fig4::render(&fig4::run())),
        "fig6" => print!("{}", fig6::render(&fig6::run(2015))),
        "fig5" => print!("{}", fig5::render(&fig5::run())),
        "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13" | "pareto" => {
            print!("{}", pins::render(name, fast).expect("a pinned figure"));
        }
        "optgap" => {
            let cfg = if fast { ext_optgap::Config::fast() } else { ext_optgap::Config::default() };
            print!("{}", ext_optgap::render(&ext_optgap::run(&cfg)));
        }
        "latency" => {
            let cfg =
                if fast { ext_latency::Config::fast() } else { ext_latency::Config::default() };
            print!("{}", ext_latency::render(&ext_latency::run(&cfg)));
        }
        "scalability" => {
            let cfg = if fast {
                ext_scalability::Config::fast()
            } else {
                ext_scalability::Config::default()
            };
            print!("{}", ext_scalability::render(&ext_scalability::run(&cfg)));
        }
        "stability" => {
            let cfg =
                if fast { ext_stability::Config::fast() } else { ext_stability::Config::default() };
            print!("{}", ext_stability::render(&ext_stability::run(&cfg)));
        }
        "solvers" => {
            let cfg =
                if fast { ext_solvers::Config::fast() } else { ext_solvers::Config::default() };
            print!("{}", ext_solvers::render(&ext_solvers::run(&cfg)));
        }
        "spatial" => {
            let cfg =
                if fast { ext_spatial::Config::fast() } else { ext_spatial::Config::default() };
            print!("{}", ext_spatial::render(&ext_spatial::run(&cfg)));
        }
        "drift" => {
            let cfg = if fast { ext_drift::Config::fast() } else { ext_drift::Config::default() };
            print!("{}", ext_drift::render(&ext_drift::run(&cfg)));
        }
        "faults" => {
            let cfg = if fast { ext_faults::Config::fast() } else { ext_faults::Config::default() };
            print!("{}", ext_faults::render(&ext_faults::run(&cfg)));
        }
        "resilience" => {
            let cfg = if fast {
                ext_resilience::Config::fast()
            } else {
                ext_resilience::Config::default()
            };
            print!("{}", ext_resilience::render(&ext_resilience::run(&cfg)));
        }
        "ablation" => {
            let (instances, rounds) = if fast { (4, 15) } else { (20, 60) };
            print!("{}", ablation::render_removal(&ablation::removal_policy(instances, 1234)));
            println!();
            print!("{}", ablation::render_ilu(&ablation::ilu_improving_links(rounds, 77)));
        }
        "serve-storm" => {
            let cfg = if fast || smoke {
                serve_storm::Config::fast()
            } else {
                serve_storm::Config::default()
            };
            let stats = serve_storm::run(&cfg);
            if json_out {
                println!("{}", serve_storm::to_json(&stats));
            } else {
                print!("{}", serve_storm::render(&stats));
            }
        }
        "serve-chaos" => {
            // The CI smoke job's entry point: the fast storm with the
            // seeded worker-kill schedule on. A non-typed outcome or a
            // leaked worker fails the process.
            let stats = serve_storm::run(&serve_storm::Config::chaos());
            print!("{}", serve_storm::render(&stats));
            if let Some(dir) = &cli.dump_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {dir}: {e}");
                    std::process::exit(1);
                }
                for (i, b) in stats.black_boxes.iter().enumerate() {
                    let path = format!("{dir}/blackbox-{i:02}-{}.jsonl", b.reason);
                    if let Err(e) = std::fs::write(&path, &b.jsonl) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote {path}");
                }
            }
            if !stats.all_typed || !stats.no_leaked_workers {
                eprintln!("serve-chaos: invariant violated (typed outcomes / leaked workers)");
                std::process::exit(1);
            }
            // A seeded kill schedule that left no black box means the
            // flight recorder is broken — fail the smoke, not just the
            // unit suite.
            if !stats.black_boxes.iter().any(|b| b.reason == "worker-crash") {
                eprintln!("serve-chaos: no worker-crash black box was cut");
                std::process::exit(1);
            }
        }
        "pin-figures" => {
            for name in pins::PINNED {
                let path = pins::pin_path(name);
                let text = pins::render(name, true).expect("a pinned figure");
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                println!("wrote {}", path.display());
            }
        }
        "bench-perf" => {
            let cfg = if smoke || fast {
                bench_perf::Config::smoke()
            } else {
                bench_perf::Config::default()
            };
            let results = bench_perf::run(&cfg);
            print!("{}", bench_perf::render(&results));
            let json = bench_perf::to_json(&results, cfg.smoke);
            match std::fs::write(&out_path, &json) {
                Ok(()) => println!("wrote {out_path}"),
                Err(e) => {
                    eprintln!("cannot write {out_path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown figure `{other}`");
            eprintln!(
                "usage: mrlc-experiments [all|fig1..fig13|ablation|pin-figures|pareto|optgap|latency|drift|spatial|solvers|stability|scalability|faults|resilience|serve-storm|serve-chaos|bench-perf|bench-check|obs-report] [--fast|--smoke] [--out=PATH] [--trace=PATH] [--metrics=PATH] [--dump-dir=DIR] [--folded]"
            );
            std::process::exit(2);
        }
    };

    if which == "all" {
        for name in [
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "ablation",
            "pareto",
            "optgap",
            "latency",
            "drift",
            "spatial",
            "solvers",
            "stability",
            "scalability",
            "faults",
            "resilience",
        ] {
            run_one(name);
            println!();
        }
    } else {
        run_one(&which);
    }

    // Close every span before exporting (the guard pops the collector).
    drop(ambient);
    if let Some(obs) = obs {
        if let Some(path) = &cli.trace_path {
            if let Err(e) = std::fs::write(path, obs.trace_jsonl()) {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote trace {path}");
        }
        if let Some(path) = &cli.metrics_path {
            if let Err(e) = std::fs::write(path, obs.registry().to_json()) {
                eprintln!("cannot write metrics {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote metrics {path}");
        }
    }
}
