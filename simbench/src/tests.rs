//! The benchmark's own tests: metric derivations, a smoke-size pass over
//! every workload through the same code the benchmark runs, and the
//! agreement between what a run prints and what `BENCHMARK.json` declares.

use regnet::netsim::{ReliabilityStats, SpanNode, SpanReport};

use crate::measure::{self, SetupTimes};
use crate::runs::{self, Report};
use crate::workload::{Size, Workload, NAMES};

fn smoke(name: &str) -> Workload {
    Workload::get(name, Size::Smoke).expect("known workload")
}

fn node(name: &str, total_ns: u64, children: Vec<SpanNode>) -> SpanNode {
    let child_ns: u64 = children.iter().map(|c| c.total_ns).sum();
    SpanNode {
        name: name.into(),
        total_ns,
        self_ns: total_ns - child_ns,
        children,
    }
}

/// One smoke window on a fresh simulator, with counters on.
fn smoke_window(name: &str) -> measure::Window {
    let w = smoke(name);
    let mut t = SetupTimes::default();
    let parts = measure::build_parts(&w, 5, &mut t, || {});
    let mut sim = measure::start_sim(&w, &parts, 5, &mut t);
    sim.enable_counters();
    measure::run_window(&mut sim, &w, |_| {})
}

#[test]
fn flit_hops_are_channel_busy_cycles() {
    let win = smoke_window("torus16_rr_par2");
    let c = win.stats.counters.as_ref().expect("counters on");
    // Every flit crosses one channel per switch it leaves (crossbar
    // forward) plus its access link (NIC injection). The two counts are
    // taken at different ends of a channel, so flits on the wire at the
    // window's edges may fall on either side.
    let hops = measure::flit_hops(&win.stats) as f64;
    let moved = (c.flits_forwarded + c.flits_injected) as f64;
    assert!(
        hops > 0.0 && (hops - moved).abs() / moved < 0.005,
        "{hops} vs {moved}"
    );
    let stats = regnet::netsim::RunStats {
        channel_busy: vec![3, 4, 5],
        ..win.stats
    };
    assert_eq!(measure::flit_hops(&stats), 12);
}

#[test]
fn failed_messages_count_drops_and_refusals() {
    let win = smoke_window("torus16_rr_par2");
    let stats = regnet::netsim::RunStats {
        generated: 10,
        ..win.stats
    };
    let rel = ReliabilityStats {
        unreachable_drops: 2,
        dropped_messages: 1,
        ..ReliabilityStats::default()
    };
    let (attempted, failed) = measure::attempted_failed(&stats, &rel);
    assert_eq!((attempted, failed), (12, 3));
    assert_eq!(measure::failed_frac(attempted, failed), 0.25);
    assert_eq!(measure::failed_frac(0, 0), 0.0);
}

#[test]
fn per_unit_ratios() {
    assert_eq!(measure::per_unit(1_000, 4), 250.0);
    assert_eq!(measure::per_unit(5, 0), 0.0);
}

#[test]
fn serial_time_is_phase_total_minus_shard_children() {
    let spans = SpanReport {
        cycles: 10,
        total_ns: 150,
        roots: vec![
            node(
                "arrivals",
                100,
                vec![node("shard0", 30, vec![]), node("shard1", 40, vec![])],
            ),
            node("switches", 50, vec![node("routing", 20, vec![])]),
        ],
    };
    let (busy, serial) = measure::shard_split(&spans);
    assert_eq!(busy, vec![30, 40]);
    assert_eq!(serial, 150 - 70);
    assert!((measure::imbalance(&busy) - 80.0 / 70.0).abs() < 1e-12);
    assert_eq!(measure::imbalance(&[]), 0.0);
    assert_eq!(measure::span_total(&spans, "routing"), 20);
}

#[test]
fn fastest_times_fold_slice_wise_and_step_wise() {
    let mut best = Vec::new();
    measure::fold_fastest(&mut best, &[3.0, 1.0, 4.0]);
    measure::fold_fastest(&mut best, &[2.0, 5.0, 4.5]);
    assert_eq!(best, vec![2.0, 1.0, 4.0]);

    let mut t = SetupTimes {
        gen_s: 1.0,
        build_s: 5.0,
        resolve_s: 1.0,
        sim_new_s: 2.0,
        engine_start_s: 1.0,
    };
    t.fold_fastest(&SetupTimes {
        gen_s: 2.0,
        build_s: 3.0,
        resolve_s: 1.0,
        sim_new_s: 4.0,
        engine_start_s: 0.5,
    });
    assert_eq!(t.total(), 1.0 + 3.0 + 1.0 + 2.0 + 0.5);
}

#[test]
fn repetitions_depend_only_on_the_arguments() {
    let w = Workload::get("torus16_rr_par2", Size::Full).unwrap();
    assert_eq!(runs::repetitions(&w, 0.0), runs::MIN_REPS);
    assert_eq!(runs::repetitions(&w, 25.0), (25.0 / w.rep_s) as usize);
    assert!(runs::repetitions(&w, 25.0) > runs::MIN_REPS);
}

#[test]
fn reliability_delta_is_fieldwise() {
    let before = ReliabilityStats {
        retransmissions: 3,
        unreachable_pairs: 7,
        ..ReliabilityStats::default()
    };
    let after = ReliabilityStats {
        retransmissions: 5,
        reconfigurations: 2,
        unreachable_pairs: 0,
        ..ReliabilityStats::default()
    };
    let d = measure::rel_delta(&before, &after);
    assert_eq!((d.retransmissions, d.reconfigurations), (2, 2));
    assert_eq!(d.unreachable_pairs, 0);
}

#[test]
fn self_check_rejects_wrong_engine_and_undrained_network() {
    let w = smoke("torus16_rr_par2");
    let mut t = SetupTimes::default();
    let parts = measure::build_parts(&w, 3, &mut t, || {});

    let mut sim = measure::start_sim(&w, &parts, 3, &mut t);
    measure::run_window(&mut sim, &w, |_| {});
    let other = Workload {
        scheduler: regnet::netsim::Scheduler::Scan,
        ..w.clone()
    };
    let err = measure::self_check(&mut sim, &other, measure::DRAIN_CYCLES).unwrap_err();
    assert!(err.contains("engine"), "{err}");

    let mut sim = measure::start_sim(&w, &parts, 3, &mut t);
    measure::run_window(&mut sim, &w, |_| {});
    assert!(
        sim.packets_in_flight() > 0,
        "the window leaves worms in flight"
    );
    let err = measure::self_check(&mut sim, &w, 1).unwrap_err();
    assert!(err.contains("still live"), "{err}");
}

#[test]
fn fault_plan_derives_from_the_seed() {
    let w = Workload::get("cplant_rr_faulted", Size::Full).unwrap();
    let topo = w.topology();
    let plan = |seed| w.fault_options(&topo, seed).unwrap().plan;
    assert_eq!(plan(1), plan(1));
    assert_ne!(plan(1), plan(2));
    assert_eq!(plan(1).len() as u64, 2 * w.link_failures);
    // One link down at a time: the sets alternate one dead link / none.
    for (i, set) in crate::workload::fault_sets(&plan(1)).iter().enumerate() {
        assert_eq!(set.counts().0, 1 - i % 2);
    }
    assert!(Workload::get("torus16_rr_par2", Size::Full)
        .unwrap()
        .fault_options(&topo, 1)
        .is_none());
}

/// `(name, unit)` pairs a `BENCHMARK.json` metric list declares.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = regnet::metrics::json::JsonValue::parse(&text).expect("valid JSON");
    root.get(list)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let root = regnet::metrics::json::JsonValue::parse(&text).unwrap();
    let names: Vec<&str> = root
        .get("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert_eq!(names, NAMES);
}

/// The smoke pass: every workload, end-to-end and traced, through the
/// self-checks, printing exactly the metrics BENCHMARK.json declares.
#[test]
fn smoke_pass_over_every_workload() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for name in NAMES {
        let w = smoke(name);
        let report = runs::end_to_end(&w, 11, 0.0).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(printed(&report), e2e, "{name}");
        assert!(report.attempted > 0 && report.failed == 0, "{name}");
        for m in &report.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{name} {}", m.name);
        }
        let report = runs::traced(&w, 11).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(printed(&report), layers, "{name}");
        let value = |k: &str| report.metrics.iter().find(|m| m.name == k).unwrap().value;
        assert!(value("netsim.flits_forwarded") > 0.0, "{name}");
        let parallel = w.scheduler.parallel_threads().is_some();
        assert_eq!(value("par.shard_busy_s.1") > 0.0, parallel, "{name}");
        assert_eq!(
            value("faultplan.reconfigurations") > 0.0,
            w.link_failures > 0,
            "{name}"
        );
    }
}

#[test]
fn result_line_is_one_json_object() {
    let mut r = Report::new();
    r.attempted = 3;
    r.metrics.push(runs::Metric {
        name: "run_s".into(),
        value: 0.125,
        unit: "s",
    });
    let line = crate::result_json(true, &r);
    let v = regnet::metrics::json::JsonValue::parse(&line).unwrap();
    assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
    let m = v.get("metrics").and_then(|x| x.get("run_s")).unwrap();
    assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.125));
    assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
}
