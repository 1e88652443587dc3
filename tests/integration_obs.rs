//! End-to-end observability checks: the registry agrees exactly with the
//! fault injector's own accounting, and `--trace`-style collection is
//! deterministic across identically-seeded runs.

use bytes::Bytes;
use wsn_experiments::fig8;
use wsn_model::NodeId;
use wsn_proto::{send_hop, FaultPlan, LossyChannel, Message, RetryPolicy};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn pc_frame(seq: u16) -> Bytes {
    Message::ParentChange { epoch: 1, seq, child: n(2), new_parent: n(3) }.encode()
}

/// The channel counters in the registry must match the `ChannelStats` the
/// fault plan maintains — attempt for attempt, under a fixed seed — and
/// the hop-level ARQ counters must sum exactly over the hop reports.
#[test]
fn retry_and_ack_counters_match_injected_losses_exactly() {
    let obs = wsn_obs::Obs::detached();
    let _ambient = wsn_obs::install(obs.clone());
    // The channel resolves its registry handles at construction, so it
    // must be built *after* the collector is installed.
    let mut ch = LossyChannel::new(FaultPlan::uniform(0.35).with_seed(97).with_duplication(0.1));
    let policy = RetryPolicy::default();
    let (mut attempts, mut acks, mut slots, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for s in 0..150u16 {
        let r = send_hop(&mut ch, &policy, n(0), n(1), &pc_frame(s));
        attempts += r.attempts as u64;
        acks += r.acks as u64;
        slots += r.slots;
        if !r.acked {
            failed += 1;
        }
    }
    let reg = obs.registry();
    let get = |name: &str| reg.counter(name).get();
    // Channel-level: registry mirrors ChannelStats field for field.
    assert_eq!(get("proto.frames_offered"), ch.stats.offered as u64);
    assert_eq!(get("proto.frames_delivered"), ch.stats.delivered as u64);
    assert_eq!(get("proto.frames_dropped"), ch.stats.dropped as u64);
    assert_eq!(get("proto.frames_duplicated"), ch.stats.duplicated as u64);
    assert_eq!(get("proto.frames_reordered"), ch.stats.reordered as u64);
    assert_eq!(get("proto.frames_to_crashed"), ch.stats.to_crashed as u64);
    assert!(ch.stats.dropped > 0, "the 35% loss plan must actually drop frames");
    // Hop-level: counters sum exactly over the per-hop reports.
    assert_eq!(get("proto.hop_attempts"), attempts);
    assert_eq!(get("proto.hop_acks"), acks);
    assert_eq!(get("proto.hop_slots"), slots);
    assert_eq!(get("proto.retransmissions"), attempts - 150);
    assert_eq!(get("proto.backoff_slots"), slots - attempts);
    // The attempts-per-hop histogram saw every hop once.
    let hist = reg.histogram("proto.attempts_per_hop", &[1, 2, 4, 8]);
    assert_eq!(hist.count(), 150);
    assert_eq!(hist.sum(), attempts);
    // Failed hops surface as warn events even without a trace buffer —
    // count them via the summary only when tracing; here just sanity-check
    // the loss plan produced some retries.
    assert!(attempts > 150, "35% loss must force retransmissions");
    let _ = failed;
}

/// Crashed endpoints are mirrored too.
#[test]
fn crashed_traffic_is_counted() {
    let obs = wsn_obs::Obs::detached();
    let _ambient = wsn_obs::install(obs.clone());
    let mut ch = LossyChannel::new(FaultPlan::lossless());
    ch.crash(n(1));
    let r = send_hop(&mut ch, &RetryPolicy::default(), n(0), n(1), &pc_frame(0));
    assert!(!r.acked);
    let reg = obs.registry();
    assert_eq!(reg.counter("proto.frames_to_crashed").get(), ch.stats.to_crashed as u64);
    assert_eq!(ch.stats.to_crashed, RetryPolicy::default().max_attempts);
}

fn traced_fig8_jsonl() -> String {
    let obs = wsn_obs::Obs::with_trace(wsn_obs::Clock::virtual_ticks());
    {
        let _ambient = wsn_obs::install(obs.clone());
        let cfg = fig8::Config { instances: 2, ..fig8::Config::default() };
        let rows = fig8::run(&cfg);
        assert_eq!(rows.len(), 2);
    }
    obs.trace_jsonl()
}

/// Two identically-seeded traced runs produce byte-identical JSONL (the
/// virtual clock ticks once per record, never reading wall time), and the
/// trace passes strict schema validation with the whole pipeline visible.
#[test]
fn traced_fig8_is_deterministic_and_covers_the_pipeline() {
    let a = traced_fig8_jsonl();
    let b = traced_fig8_jsonl();
    assert_eq!(a, b, "virtual-clock traces must be byte-identical");
    let summary = wsn_obs::validate_trace(&a).expect("trace validates");
    for span in
        ["fig8-instance", "ira-attempt", "lp-solve", "separation", "decode", "protocol-round"]
    {
        assert!(summary.span(span).is_some(), "span `{span}` missing from trace");
    }
    // The fig8 replay announces over a lossless channel: one round per
    // instance.
    assert_eq!(summary.span("protocol-round").unwrap().count, 2);
}

/// The cut-pool engine's registry counters are exactly reproducible under
/// a fixed seed: two identical fig8 runs publish identical `sep.*` totals,
/// and the pool counters are consistent with the solver's cut accounting
/// (every pool hit is a cut that was activated without a maxflow run).
#[test]
fn engine_counters_are_deterministic_under_fixed_seed() {
    let run_counters = || {
        let obs = wsn_obs::Obs::detached();
        let mut totals: Vec<(String, u64)>;
        {
            let _ambient = wsn_obs::install(obs.clone());
            let cfg = fig8::Config { instances: 2, ..fig8::Config::default() };
            let _rows = fig8::run(&cfg);
            totals = obs.registry().counter_snapshot();
        }
        // The `*_ns` counters are wall time — real and noisy by design;
        // everything else is algorithmic and must reproduce exactly.
        totals.retain(|(name, _)| !name.ends_with("_ns"));
        totals
    };
    let a = run_counters();
    let b = run_counters();
    assert_eq!(a, b, "identically-seeded runs must publish identical counters");
    let get = |name: &str| a.iter().find(|(k, _)| k == name).map(|&(_, v)| v).unwrap_or(0);
    assert!(get("ira.cuts_added") > 0, "fig8 instances need subtour cuts");
    assert!(
        get("sep.pool_hits") <= get("ira.cuts_added"),
        "a pool hit is one kind of cut activation"
    );
    let batch_cap = mrlc_core::formulation::MAX_CUTS_PER_ROUND as u64;
    assert!(
        get("sep.pool_hits") <= get("sep.pool_scans") * batch_cap,
        "hits are bounded by scans times the batch cap"
    );
}

/// The exported JSONL round-trips through the parser: every record the
/// collector wrote is seen by the validator, and span nesting survives.
#[test]
fn trace_jsonl_round_trips_through_the_validator() {
    let obs = wsn_obs::Obs::with_trace(wsn_obs::Clock::virtual_ticks());
    {
        let _ambient = wsn_obs::install(obs.clone());
        let _outer = wsn_obs::span_with(
            "outer",
            vec![
                wsn_obs::field("int", 7u64),
                wsn_obs::field("float", 0.5f64),
                wsn_obs::field("flag", true),
                wsn_obs::field("label", "x\"y\\z"),
            ],
        );
        {
            let _inner = wsn_obs::span("inner");
            wsn_obs::warn("trouble", vec![wsn_obs::field("code", 3u64)]);
        }
        wsn_obs::event("after", Vec::new());
    }
    let text = obs.trace_jsonl();
    let summary = wsn_obs::validate_trace(&text).expect("round-trip validates");
    // Header + 2 starts + 2 ends + 2 events.
    assert_eq!(summary.records, 6);
    assert_eq!(summary.span("outer").unwrap().count, 1);
    assert_eq!(summary.span("inner").unwrap().count, 1);
    assert_eq!(summary.event("trouble").unwrap().warns, 1);
    assert_eq!(summary.event("after").unwrap().warns, 0);
    // The inner span's time is attributed to inner, not outer's self time.
    let outer = summary.span("outer").unwrap();
    let inner = summary.span("inner").unwrap();
    assert!(outer.total > inner.total);
    assert!(outer.self_time < outer.total);
}

/// Acceptance: on a full-size (n = 80) warm solve under a wall-clock
/// trace, the hotspot profiler attributes at least 90% of `lp-solve` time
/// to named sub-stage spans (`lp-dual-repair`, `lp-primal`, `lp-extract`,
/// `lp-verify`, `lp-cold-build`, `lp-phase1`) — the flamegraph never
/// shows an opaque LP blob.
#[test]
fn hotspots_attribute_lp_time_to_named_substages() {
    use mrlc_core::{solve_ira, IraConfig, MrlcInstance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wsn_model::{lifetime, EnergyModel};
    use wsn_testbed::{random_graph, RandomGraphConfig};

    let model = EnergyModel::PAPER;
    let lc = lifetime::node_lifetime(3000.0, &model, 4) * 0.99;
    let gcfg = RandomGraphConfig { n: 80, link_probability: 0.3, ..RandomGraphConfig::default() };
    let mut rng = StdRng::seed_from_u64(4242 + 80);
    let net = random_graph(&gcfg, &mut rng).expect("connected");
    let inst = MrlcInstance::new(net, model, lc).expect("valid");
    // Attribution is a wall-time claim, so this trace uses the wall clock
    // (on the virtual clock every record is one tick and span durations
    // measure record counts, not time).
    let obs = wsn_obs::Obs::with_trace(wsn_obs::Clock::wall());
    {
        let _ambient = wsn_obs::install(obs.clone());
        let _ = solve_ira(&inst, &IraConfig::default()).expect("n=80 solves");
    }
    let profile = wsn_obs::profile_trace(&obs.trace_jsonl()).expect("trace profiles");
    let attributed = profile.attributed_fraction("lp-solve").expect("lp-solve spans present");
    assert!(
        attributed >= 0.90,
        "only {:.1}% of lp-solve time is attributed to named sub-stages",
        attributed * 100.0
    );
    // The folded stacks expose the nested LP path for flamegraph tooling.
    let folded = profile.folded();
    assert!(
        folded.lines().any(|l| l.contains("lp-solve;lp-")),
        "folded stacks must nest the LP sub-stages:\n{folded}"
    );
}
