//! The benchmark's workloads: which network, scheme, load and engine each
//! one runs, and the seeded inputs (fault plan, sampled pairs) it derives
//! from `--seed`. README.md says why each workload exists.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use regnet::core::RoutingScheme;
use regnet::mapper::FaultSet;
use regnet::netsim::{FaultEvent, FaultOptions, FaultPlan, FaultTarget, Scheduler, SimConfig};
use regnet::topology::{gen, Topology};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["torus16_rr_par2", "cplant_rr_faulted"];

/// Full size is what the benchmark measures; smoke size is the same
/// workload shrunk so the test suite can run it in a second or two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

#[derive(Debug, Clone, Copy)]
pub enum Net {
    Torus {
        rows: usize,
        cols: usize,
        hosts: usize,
    },
    Cplant,
}

/// Reconfiguration latency of the faulted workload, cycles: hundreds
/// rather than the default 16 000, so sources keep generating through the
/// window instead of stalling while the network drains.
const RECONFIG_LATENCY_CYCLES: u64 = 400;

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    pub scheme: RoutingScheme,
    /// Offered load, flits/ns/switch (uniform traffic).
    pub offered: f64,
    pub scheduler: Scheduler,
    pub warmup_cycles: u64,
    pub measure_cycles: u64,
    /// Switch-link failures spread over the measurement window, each
    /// repaired half a period later; 0 for a fault-free workload.
    pub link_failures: u64,
    /// Set-ups per end-to-end repetition (the window runs on the last).
    /// Short set-ups are repeated so each run samples enough of them.
    pub setups_per_rep: usize,
    /// Nominal wall time of one end-to-end repetition (its set-ups plus
    /// window and drain), seconds, a little above what the reference host
    /// takes in its fast state. `--seconds` divided by it gives the fixed
    /// number of repetitions a run makes.
    pub rep_s: f64,
}

impl Workload {
    pub fn get(name: &str, size: Size) -> Option<Workload> {
        let full = size == Size::Full;
        let pick = |f: u64, s: u64| if full { f } else { s };
        let w = match name {
            "torus16_rr_par2" => Workload {
                name: "torus16_rr_par2",
                net: if full {
                    Net::Torus {
                        rows: 16,
                        cols: 16,
                        hosts: 4,
                    }
                } else {
                    Net::Torus {
                        rows: 6,
                        cols: 6,
                        hosts: 2,
                    }
                },
                scheme: RoutingScheme::ItbRr,
                offered: 0.010,
                scheduler: Scheduler::Parallel { threads: 2 },
                warmup_cycles: pick(5_000, 2_000),
                measure_cycles: pick(30_000, 4_000),
                link_failures: 0,
                setups_per_rep: 1,
                rep_s: 3.7,
            },
            "cplant_rr_faulted" => Workload {
                name: "cplant_rr_faulted",
                net: Net::Cplant,
                scheme: RoutingScheme::ItbRr,
                offered: 0.05,
                scheduler: Scheduler::ActiveSet,
                warmup_cycles: pick(10_000, 2_000),
                measure_cycles: pick(40_000, 8_000),
                link_failures: pick(8, 2),
                setups_per_rep: if full { 12 } else { 2 },
                rep_s: 2.5,
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn topology(&self) -> Topology {
        match self.net {
            Net::Torus { rows, cols, hosts } => gen::torus_2d(rows, cols, hosts),
            Net::Cplant => gen::cplant(),
        }
        .expect("benchmark topologies are valid")
    }

    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default();
        if self.link_failures > 0 {
            cfg.reconfig_latency_cycles = RECONFIG_LATENCY_CYCLES;
        }
        cfg
    }

    /// The seeded fault schedule, or `None` for a fault-free workload.
    /// Link `k` fails at `warmup + (k + 1/4) * period` and is repaired half
    /// a period later, so exactly one link is down at a time. Every switch
    /// link of the CPLANT network lies on a cycle, so no single failure
    /// disconnects a host pair.
    pub fn fault_options(&self, topo: &Topology, seed: u64) -> Option<FaultOptions> {
        if self.link_failures == 0 {
            return None;
        }
        let links: Vec<_> = topo
            .links()
            .iter()
            .filter(|l| l.is_switch_link())
            .map(|l| l.id)
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_5EED);
        let period = self.measure_cycles / self.link_failures;
        let mut plan = FaultPlan::new();
        for k in 0..self.link_failures {
            let link = links[rng.gen_range(0..links.len())];
            let start = self.warmup_cycles + k * period;
            plan.fail_link(start + period / 4, link);
            plan.repair_link(start + 3 * period / 4, link);
        }
        plan.normalize();
        Some(FaultOptions::with_plan(plan))
    }
}

/// The fault set in force after each event of `plan` (the sets the
/// mapper rebuilds routes for during the run).
pub fn fault_sets(plan: &FaultPlan) -> Vec<FaultSet> {
    let mut now = FaultSet::new();
    plan.events
        .iter()
        .map(|&FaultEvent { target, fail, .. }| {
            match (target, fail) {
                (FaultTarget::Link(l), true) => now.kill_link(l),
                (FaultTarget::Link(l), false) => now.revive_link(l),
                (FaultTarget::Switch(s), true) => now.kill_switch(s),
                (FaultTarget::Switch(s), false) => now.revive_switch(s),
                (FaultTarget::Host(h), true) => now.kill_host(h),
                (FaultTarget::Host(h), false) => now.revive_host(h),
            };
            now.clone()
        })
        .collect()
}
