//! The two kinds of run: untraced repetitions for the end-to-end metrics,
//! and one traced pass for the per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use regnet::mapper::rebuild_physical_routes;
use regnet::netsim::{RunStats, PHASE_NAMES};
use regnet::topology::HostId;

use crate::measure::{self, SetupTimes};
use crate::stats::median;
use crate::workload::{fault_sets, Workload};

/// Fewest repetitions an end-to-end run makes, however short `--seconds`.
pub const MIN_REPS: usize = 3;

/// Untraced and traced windows the traced pass runs, alternating, for
/// `netsim.observer_overhead_frac`.
const OVERHEAD_REPS: usize = 3;

/// Pairs sampled for the `select`/`dest` timings.
const SAMPLED_PAIRS: usize = 200_000;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints: operation counts and metrics.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// RunStats without the counter snapshot, which only traced runs carry.
fn untraced_view(stats: &RunStats) -> RunStats {
    RunStats {
        counters: None,
        ..stats.clone()
    }
}

/// Repetitions of set-up plus window an end-to-end run makes: as many
/// of the workload's nominal repetitions as fit into `seconds`, at least
/// [`MIN_REPS`]. The count depends only on the arguments, never on how
/// fast the host runs, so every run of a workload takes the minimum over
/// the same number of samples.
pub fn repetitions(w: &Workload, seconds: f64) -> usize {
    ((seconds / w.rep_s).floor() as usize).max(MIN_REPS)
}

/// Fixed [`repetitions`] of set-up + window, dropping each simulator and
/// its tables before the next set-up. Each repetition first sets up
/// `w.setups_per_rep` times (dropping each) and runs the window on the
/// last one. Set-up time is the sum over the steps of each step's fastest
/// time; window times are the slice-wise fastest over all windows. Every
/// repetition must produce identical `RunStats`.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::new();
    let mut setup: Option<SetupTimes> = None;
    let (mut fastest, mut warmup_slices) = (Vec::new(), 0);
    let mut first: Option<(RunStats, usize)> = None;
    for _ in 0..repetitions(w, seconds) {
        let mut k = 0;
        let (win, switches) = loop {
            k += 1;
            let mut t = SetupTimes::default();
            let parts = measure::build_parts(w, seed, &mut t, || {});
            let mut sim = measure::start_sim(w, &parts, seed, &mut t);
            match &mut setup {
                None => setup = Some(t),
                Some(best) => best.fold_fastest(&t),
            }
            if k < w.setups_per_rep {
                continue;
            }
            let win = measure::run_window(&mut sim, w, |_| {});
            measure::self_check(&mut sim, w, measure::DRAIN_CYCLES)?;
            break (win, parts.topo.num_switches());
        };
        match &first {
            None => first = Some((win.stats.clone(), switches)),
            Some((f, _)) if *f != win.stats => {
                return Err(format!(
                    "{}: two windows with seed {seed} gave different RunStats",
                    w.name
                ))
            }
            Some(_) => {}
        }
        let (a, f) = measure::attempted_failed(&win.stats, &win.rel);
        report.attempted += a;
        report.failed += f;
        measure::fold_fastest(&mut fastest, &win.slices);
        warmup_slices = win.warmup_slices;
    }
    let (stats, switches) = first.expect("at least one repetition ran");
    let measure_s: f64 = fastest[warmup_slices..].iter().sum();
    report.push(
        "setup_s",
        setup.expect("at least one set-up ran").total(),
        "s",
    );
    report.push("run_s", fastest.iter().sum(), "s");
    report.push(
        "flit_hops_per_s",
        measure::flit_hops(&stats) as f64 / measure_s,
        "1/s",
    );
    report.push("peak_rss_mb", measure::peak_rss_mb(), "MiB");
    report.push(
        "sim_accepted_flits_ns_sw",
        stats.accepted_flits_per_ns_per_switch(switches),
        "flits/ns/switch",
    );
    report.push("sim_latency_avg_ns", stats.avg_latency_ns, "ns");
    Ok(report)
}

/// Counters reported per layer, by `CounterSnapshot` name.
const COUNTERS: [&str; 13] = [
    "flits_forwarded",
    "flits_injected",
    "route_lookups",
    "arbitration_grants",
    "worms_blocked",
    "ctl_stops",
    "ctl_gos",
    "itb_ejections",
    "itb_reinjections",
    "itb_overflows",
    "messages_generated",
    "messages_delivered",
    "retransmits",
];

/// One traced pass: set-up timed step by step, alternating untraced and
/// traced (counters + profiler) windows on the same seed, which must
/// agree, then direct timings of route selection, destination draws and mapper
/// rebuilds on the workload's own inputs.
pub fn traced(w: &Workload, seed: u64) -> Result<Report, String> {
    let mut report = Report::new();
    let mut t = SetupTimes::default();
    let mut rss_growth = 0.0;
    let rss0 = measure::peak_rss_mb();
    let parts = measure::build_parts(w, seed, &mut t, || {
        rss_growth = measure::peak_rss_mb() - rss0;
    });
    let routes: usize = parts.db.iter_pairs().map(|(_, _, alts)| alts.len()).sum();

    // Untraced and traced windows alternate, so both sides see the same
    // host states; each side's time is its slice-wise fastest. Metrics
    // come from the first traced window.
    let (mut plain_fastest, mut traced_fastest) = (Vec::new(), Vec::new());
    let mut first_traced = None;
    for _ in 0..OVERHEAD_REPS {
        let mut plain = measure::start_sim(w, &parts, seed, &mut SetupTimes::default());
        let plain_win = measure::run_window(&mut plain, w, |_| {});
        measure::self_check(&mut plain, w, measure::DRAIN_CYCLES)?;
        drop(plain);

        let mut sim = if first_traced.is_none() {
            measure::start_sim(w, &parts, seed, &mut t)
        } else {
            measure::start_sim(w, &parts, seed, &mut SetupTimes::default())
        };
        sim.enable_counters();
        let win = measure::run_window(&mut sim, w, |s| s.enable_profiler());
        let profile = sim.profile_report().expect("profiler enabled");
        let spans = sim.span_report().expect("profiler enabled");
        measure::self_check(&mut sim, w, measure::DRAIN_CYCLES)?;
        drop(sim);
        if untraced_view(&win.stats) != plain_win.stats {
            return Err(format!(
                "{}: observers changed RunStats for seed {seed}",
                w.name
            ));
        }
        measure::fold_fastest(&mut plain_fastest, &plain_win.slices);
        measure::fold_fastest(&mut traced_fastest, &win.slices);
        first_traced.get_or_insert((win, profile, spans));
    }
    let (win, profile, spans) = first_traced.expect("OVERHEAD_REPS > 0");
    let counters = win.stats.counters.clone().expect("counters enabled");
    let count = |name: &str| {
        counters
            .as_pairs()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("known counter name")
    };
    let phase_ns = |name: &str| {
        profile
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.ns)
    };
    let (a, f) = measure::attempted_failed(&win.stats, &win.rel);
    report.attempted = a;
    report.failed = f;

    report.push("topology.gen_s", t.gen_s, "s");
    report.push("core.routedb_build_s", t.build_s, "s");
    report.push("core.routedb_rss_mb", rss_growth, "MiB");
    report.push("core.routes", routes as f64, "count");
    report.push(
        "core.build_ns_per_route",
        t.build_s * 1e9 / routes as f64,
        "ns",
    );

    // Route selection and destination draws over the workload's pattern.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E1E_C7ED);
    let n_hosts = parts.topo.num_hosts() as u32;
    let pairs: Vec<(HostId, HostId)> = (0..SAMPLED_PAIRS)
        .filter_map(|_| {
            let src = HostId(rng.gen_range(0..n_hosts));
            let dst = parts.pattern.dest(src, &parts.topo, &mut rng)?;
            Some((src, dst))
        })
        .collect();
    let mut selector = parts.db.selector();
    let t0 = Instant::now();
    for &(src, dst) in &pairs {
        black_box(parts.db.select(&parts.topo, src, dst, &mut selector));
    }
    let select_ns = t0.elapsed().as_nanos() as f64 / pairs.len() as f64;
    let t0 = Instant::now();
    for &(src, _) in &pairs {
        black_box(parts.pattern.dest(src, &parts.topo, &mut rng));
    }
    let dest_ns = t0.elapsed().as_nanos() as f64 / pairs.len() as f64;
    report.push("core.select_ns", select_ns, "ns");
    report.push("traffic.pattern_resolve_s", t.resolve_s, "s");
    report.push("traffic.dest_ns", dest_ns, "ns");
    report.push("netsim.sim_new_s", t.sim_new_s, "s");
    report.push("netsim.engine_start_s", t.engine_start_s, "s");

    for name in PHASE_NAMES {
        report.push(
            format!("netsim.phase.{name}_s"),
            phase_ns(name) as f64 / 1e9,
            "s",
        );
    }
    for name in ["routing", "crossbar"] {
        report.push(
            format!("netsim.switches.{name}_s"),
            measure::span_total(&spans, name) as f64 / 1e9,
            "s",
        );
    }
    report.push(
        "netsim.switch_ns_per_flit",
        measure::per_unit(phase_ns("switches"), count("flits_forwarded")),
        "ns",
    );
    report.push(
        "netsim.nic_ns_per_flit",
        measure::per_unit(phase_ns("nic_tx"), count("flits_injected")),
        "ns",
    );
    for name in COUNTERS {
        report.push(format!("netsim.{name}"), count(name) as f64, "count");
    }
    report.push(
        "netsim.blocked_per_lookup",
        measure::per_unit(count("worms_blocked"), count("route_lookups")),
        "ratio",
    );
    report.push(
        "netsim.stepped_cycles_frac",
        profile.cycles as f64 / w.measure_cycles as f64,
        "ratio",
    );
    report.push(
        "netsim.gen_ns_per_msg",
        measure::per_unit(phase_ns("generation"), count("messages_generated")),
        "ns",
    );

    // Shard spans exist only under the parallel engine, one per thread.
    let (busy, serial_ns) = measure::shard_split(&spans);
    let threads = w.scheduler.parallel_threads().unwrap_or(0);
    if busy.len() != threads {
        return Err(format!(
            "{}: profile has {} shard spans for {threads} engine threads",
            w.name,
            busy.len()
        ));
    }
    for k in 0..2 {
        let ns = busy.get(k).copied().unwrap_or(0);
        report.push(format!("par.shard_busy_s.{k}"), ns as f64 / 1e9, "s");
    }
    let serial_s = if threads > 0 {
        serial_ns as f64 / 1e9
    } else {
        0.0
    };
    report.push("par.serial_s", serial_s, "s");
    report.push("par.shard_imbalance", measure::imbalance(&busy), "ratio");

    let rebuild_ms = match &parts.faults {
        Some(f) => {
            let mut ms = Vec::new();
            for set in fault_sets(&f.plan) {
                let t0 = Instant::now();
                let routes =
                    rebuild_physical_routes(&parts.topo, &set, f.seed_host, w.scheme, &f.db_cfg)
                        .map_err(|e| format!("{}: mapper rebuild failed: {e:?}", w.name))?;
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                black_box(routes);
            }
            median(&ms)
        }
        None => 0.0,
    };
    report.push("mapper.rebuild_ms", rebuild_ms, "ms");
    let rel = &win.rel;
    for (name, v, unit) in [
        ("reconfigurations", rel.reconfigurations, "count"),
        ("worms_truncated", rel.worms_truncated, "count"),
        ("retransmissions", rel.retransmissions, "count"),
        ("dropped_packets", rel.dropped_packets, "count"),
        ("reconfig_stall_cycles", rel.reconfig_stall_cycles, "cycles"),
    ] {
        report.push(format!("faultplan.{name}"), v as f64, unit);
    }
    report.push(
        "netsim.observer_overhead_frac",
        traced_fastest.iter().sum::<f64>() / plain_fastest.iter().sum::<f64>() - 1.0,
        "ratio",
    );
    report.push("msgs_failed_frac", measure::failed_frac(a, f), "ratio");
    report.push("sim_latency_p99_ns", win.stats.p99_latency_ns, "ns");
    Ok(report)
}
