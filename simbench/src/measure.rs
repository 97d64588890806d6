//! Set-up, the timed window, the self-checks, and the pure derivations
//! that turn simulator outputs into metrics.

use std::time::Instant;

use regnet::core::{RouteDb, RouteDbConfig};
use regnet::netsim::{FaultOptions, ReliabilityStats, RunStats, Simulator, SpanReport};
use regnet::topology::Topology;
use regnet::traffic::{Pattern, PatternSpec};

use crate::workload::Workload;

/// Cycles the post-window drain may take before the run counts as stuck.
pub const DRAIN_CYCLES: u64 = 2_000_000;

/// Everything a simulator borrows, built by [`build_parts`].
pub struct Parts {
    pub topo: Topology,
    pub db: RouteDb,
    pub pattern: Pattern,
    pub faults: Option<FaultOptions>,
}

/// Wall time of each set-up step, seconds.
#[derive(Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub build_s: f64,
    pub resolve_s: f64,
    pub sim_new_s: f64,
    /// Fault-plan arming plus `set_scheduler` (the parallel engine spawns
    /// its worker pool here).
    pub engine_start_s: f64,
}

impl SetupTimes {
    /// Time until the first simulated cycle.
    pub fn total(&self) -> f64 {
        self.gen_s + self.build_s + self.resolve_s + self.sim_new_s + self.engine_start_s
    }

    /// Keep each step's fastest time over this and `other`. Every set-up
    /// of a seed does the same work, so the step-wise minimum is the
    /// set-up's cost on the host at its fastest; a median would flip
    /// between the host's fast and slow states.
    pub fn fold_fastest(&mut self, other: &SetupTimes) {
        self.gen_s = self.gen_s.min(other.gen_s);
        self.build_s = self.build_s.min(other.build_s);
        self.resolve_s = self.resolve_s.min(other.resolve_s);
        self.sim_new_s = self.sim_new_s.min(other.sim_new_s);
        self.engine_start_s = self.engine_start_s.min(other.engine_start_s);
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *slot += t.elapsed().as_secs_f64();
    v
}

/// Generate the topology, build the route DB, resolve the pattern and
/// draw the fault plan. `on_built` runs right after the route DB build
/// (the traced run samples peak RSS there).
pub fn build_parts(w: &Workload, seed: u64, t: &mut SetupTimes, on_built: impl FnOnce()) -> Parts {
    let topo = timed(&mut t.gen_s, || w.topology());
    let db = timed(&mut t.build_s, || {
        RouteDb::build(&topo, w.scheme, &RouteDbConfig::default())
    });
    on_built();
    let pattern = timed(&mut t.resolve_s, || {
        Pattern::resolve(PatternSpec::Uniform, &topo).expect("uniform traffic resolves")
    });
    let faults = timed(&mut t.engine_start_s, || w.fault_options(&topo, seed));
    Parts {
        topo,
        db,
        pattern,
        faults,
    }
}

/// `Simulator::new`, then the engine and the fault runtime.
pub fn start_sim<'a>(
    w: &Workload,
    parts: &'a Parts,
    seed: u64,
    t: &mut SetupTimes,
) -> Simulator<'a> {
    let mut sim = timed(&mut t.sim_new_s, || {
        Simulator::new(
            &parts.topo,
            &parts.db,
            &parts.pattern,
            w.sim_config(),
            w.offered,
            seed,
        )
    });
    timed(&mut t.engine_start_s, || {
        sim.set_scheduler(w.scheduler);
        if let Some(f) = &parts.faults {
            sim.enable_faults(f.clone());
        }
    });
    sim
}

/// Cycles per timed slice of a window.
pub const SLICE_CYCLES: u64 = 1_000;

/// One warm-up plus measurement window.
pub struct Window {
    pub stats: RunStats,
    /// Reliability counters accumulated inside the measurement window.
    pub rel: ReliabilityStats,
    /// Wall time of each [`SLICE_CYCLES`] slice, warm-up first, seconds.
    pub slices: Vec<f64>,
    /// How many of `slices` belong to the warm-up.
    pub warmup_slices: usize,
}

fn run_sliced(sim: &mut Simulator<'_>, cycles: u64, slices: &mut Vec<f64>) {
    let mut left = cycles;
    while left > 0 {
        let n = left.min(SLICE_CYCLES);
        let t = Instant::now();
        sim.run(n);
        slices.push(t.elapsed().as_secs_f64());
        left -= n;
    }
}

/// Run the fixed-length window, timing it slice by slice. `at_measure`
/// runs right after `begin_measurement` (the traced run starts its
/// profiler there, so profile and counters cover the same cycles).
pub fn run_window(
    sim: &mut Simulator<'_>,
    w: &Workload,
    at_measure: impl FnOnce(&mut Simulator<'_>),
) -> Window {
    let mut slices = Vec::new();
    run_sliced(sim, w.warmup_cycles, &mut slices);
    let warmup_slices = slices.len();
    let rel0 = sim.reliability();
    sim.begin_measurement();
    at_measure(sim);
    run_sliced(sim, w.measure_cycles, &mut slices);
    let stats = sim.end_measurement(w.measure_cycles);
    Window {
        stats,
        rel: rel_delta(&rel0, &sim.reliability()),
        slices,
        warmup_slices,
    }
}

/// Fold one repetition's slice times into the fastest seen so far, slice
/// by slice. Every repetition of a seed does identical work per slice, so
/// the element-wise minimum keeps each slice's time on the host at its
/// fastest and drops the stretches where the host ran slow.
pub fn fold_fastest(best: &mut Vec<f64>, slices: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(slices);
    } else {
        assert_eq!(best.len(), slices.len(), "repetitions differ in length");
        for (b, &s) in best.iter_mut().zip(slices) {
            *b = b.min(s);
        }
    }
}

/// The untimed output check after a window: the engine that ran is the
/// one requested, and with generation stopped the network drains with no
/// packet left within `drain_cycles` (no deadlock, no lost worm).
pub fn self_check(sim: &mut Simulator<'_>, w: &Workload, drain_cycles: u64) -> Result<(), String> {
    let ran = sim.effective_scheduler();
    if ran != w.scheduler {
        return Err(format!(
            "{}: engine {} ran, {} was requested",
            w.name,
            ran.label(),
            w.scheduler.label()
        ));
    }
    sim.stop_generation();
    match sim.run_until_drained(drain_cycles) {
        Some(_) if sim.packets_in_flight() == 0 => Ok(()),
        _ => Err(format!(
            "{}: {} packets still live {drain_cycles} cycles after generation stopped",
            w.name,
            sim.packets_in_flight()
        )),
    }
}

/// Field-wise `after - before` of the cumulative reliability counters.
/// `unreachable_pairs` is a state, not a count, so it keeps `after`.
pub fn rel_delta(before: &ReliabilityStats, after: &ReliabilityStats) -> ReliabilityStats {
    ReliabilityStats {
        link_failures: after.link_failures - before.link_failures,
        switch_failures: after.switch_failures - before.switch_failures,
        host_failures: after.host_failures - before.host_failures,
        repairs: after.repairs - before.repairs,
        worms_truncated: after.worms_truncated - before.worms_truncated,
        retransmissions: after.retransmissions - before.retransmissions,
        dropped_packets: after.dropped_packets - before.dropped_packets,
        dropped_messages: after.dropped_messages - before.dropped_messages,
        unreachable_drops: after.unreachable_drops - before.unreachable_drops,
        reconfigurations: after.reconfigurations - before.reconfigurations,
        reconfig_failures: after.reconfig_failures - before.reconfig_failures,
        reconfig_stall_cycles: after.reconfig_stall_cycles - before.reconfig_stall_cycles,
        unreachable_pairs: after.unreachable_pairs,
    }
}

/// Flit hops in the window: every busy channel cycle moves one flit over
/// one hop.
pub fn flit_hops(stats: &RunStats) -> u64 {
    stats.channel_busy.iter().sum()
}

/// Messages the generators attempted in the window, and how many of them
/// failed. A generation refused because the destination is unreachable is
/// an attempt (it never enters `generated`) and a failure; so is a
/// message dropped after its retry budget ran out.
pub fn attempted_failed(stats: &RunStats, rel: &ReliabilityStats) -> (u64, u64) {
    (
        stats.generated + rel.unreachable_drops,
        rel.dropped_messages + rel.unreachable_drops,
    )
}

/// `failed / attempted`, 0 for an empty window.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Cost per unit of work: `ns / count`, 0 when there was no work.
pub fn per_unit(ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

/// Split a span profile into per-shard busy time and serial time, ns.
/// Shard spans are the `shard<k>` children of each phase; serial time is
/// every phase's total minus its shard children (barrier wait, fold and
/// main-thread work).
pub fn shard_split(spans: &SpanReport) -> (Vec<u64>, u64) {
    let mut busy: Vec<u64> = Vec::new();
    let mut in_shards = 0u64;
    for phase in &spans.roots {
        for child in &phase.children {
            if let Some(k) = child.name.strip_prefix("shard") {
                let k: usize = k.parse().expect("shard span names end in the shard index");
                if busy.len() <= k {
                    busy.resize(k + 1, 0);
                }
                busy[k] += child.total_ns;
                in_shards += child.total_ns;
            }
        }
    }
    (busy, spans.total_ns - in_shards)
}

/// Busiest shard over the mean shard, 0 with no shards.
pub fn imbalance(busy: &[u64]) -> f64 {
    let max = busy.iter().copied().max().unwrap_or(0);
    let sum: u64 = busy.iter().sum();
    if sum == 0 {
        0.0
    } else {
        max as f64 * busy.len() as f64 / sum as f64
    }
}

/// Sum of every span named `name` at any depth, ns.
pub fn span_total(spans: &SpanReport, name: &str) -> u64 {
    fn walk(n: &regnet::netsim::SpanNode, name: &str) -> u64 {
        let own = if n.name == name { n.total_ns } else { 0 };
        own + n.children.iter().map(|c| walk(c, name)).sum::<u64>()
    }
    spans
        .roots
        .iter()
        .flat_map(|r| r.children.iter())
        .map(|c| walk(c, name))
        .sum()
}

/// Peak resident set so far, MiB.
pub fn peak_rss_mb() -> f64 {
    regnet::metrics::sys::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}
