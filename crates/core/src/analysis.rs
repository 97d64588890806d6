//! Route-level statistics, matching the numbers quoted in section 4.7 of
//! the paper (fraction of minimal paths, average distance, average number
//! of in-transit buffers per route), and a static deadlock-freedom check of
//! a route table's channel dependencies.

use std::collections::HashMap;

use regnet_topology::{DistanceMatrix, HostId, Port, SwitchId, Topology};
use serde::{Deserialize, Serialize};

use crate::journey::SegmentEnd;
use crate::scheme::RouteDb;

/// Summary statistics of a [`RouteDb`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteStats {
    /// Fraction of ordered distinct switch pairs whose (first-alternative)
    /// route is minimal. The paper reports 80% for up\*/down\* on the 2-D
    /// torus, 94% with express channels and 100% on CPLANT.
    pub minimal_fraction: f64,
    /// Average route length in links over ordered distinct switch pairs,
    /// averaged across alternatives. Paper: 4.57 (up\*/down\*) vs 4.06
    /// (minimal) on the torus.
    pub avg_distance: f64,
    /// Average in-transit buffers per route, over all alternatives of all
    /// ordered distinct pairs. Paper: 0.43 per message with ITB-SP and 0.54
    /// with ITB-RR on the torus under uniform traffic.
    pub avg_itbs: f64,
    /// Largest number of ITBs on any single route.
    pub max_itbs: usize,
    /// Mean number of alternative routes per pair.
    pub avg_alternatives: f64,
}

impl RouteStats {
    /// Compute statistics over every ordered distinct switch pair of `db`.
    pub fn compute(topo: &Topology, db: &RouteDb) -> RouteStats {
        let dm = DistanceMatrix::compute(topo);
        let mut pairs = 0usize;
        let mut minimal_first = 0usize;
        let mut dist_sum = 0.0f64;
        let mut itb_sum = 0.0f64;
        let mut itb_max = 0usize;
        let mut alt_sum = 0usize;
        for (s, d, alts) in db.iter_pairs() {
            if s == d {
                continue;
            }
            pairs += 1;
            alt_sum += alts.len();
            if alts[0].total_links() == dm.get(s, d) as usize {
                minimal_first += 1;
            }
            // Per-pair averages across alternatives, so pairs with many
            // alternatives do not dominate (the round-robin policy gives
            // each alternative of a pair equal weight, and every pair the
            // same traffic).
            let mut pair_dist = 0usize;
            let mut pair_itbs = 0usize;
            for t in alts {
                pair_dist += t.total_links();
                pair_itbs += t.num_itbs();
                itb_max = itb_max.max(t.num_itbs());
            }
            dist_sum += pair_dist as f64 / alts.len() as f64;
            itb_sum += pair_itbs as f64 / alts.len() as f64;
        }
        RouteStats {
            minimal_fraction: minimal_first as f64 / pairs.max(1) as f64,
            avg_distance: dist_sum / pairs.max(1) as f64,
            avg_itbs: itb_sum / pairs.max(1) as f64,
            max_itbs: itb_max,
            avg_alternatives: alt_sum as f64 / pairs.max(1) as f64,
        }
    }
}

/// Distribution of in-transit duty over hosts: how many routes use each host
/// as an in-transit buffer. A heavily skewed distribution would overload a
/// few NICs.
pub fn itb_host_load(topo: &Topology, db: &RouteDb) -> Vec<(HostId, usize)> {
    let mut load = vec![0usize; topo.num_hosts()];
    for (_, _, alts) in db.iter_pairs() {
        for t in alts {
            for seg in &t.segments {
                if let SegmentEnd::Itb(h) = seg.end {
                    load[h.idx()] += 1;
                }
            }
        }
    }
    topo.hosts().map(|h| (h, load[h.idx()])).collect()
}

/// A switch-to-switch channel: output port `port` of switch `from`, whose
/// link leads to switch `to`. Parallel links are distinct channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel {
    pub from: SwitchId,
    pub port: Port,
    pub to: SwitchId,
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}->S{}", self.from.0, self.to.0)
    }
}

/// A cycle in the channel dependency graph of `db`, if it has one.
///
/// A route that holds channel `a` and then requests channel `b` makes `b`
/// depend on `a`. Dependencies exist only between consecutive hops of one
/// segment: an in-transit host ejects the packet completely, which frees
/// every channel it held before it re-injects it. A table whose graph is
/// acyclic cannot deadlock (Dally and Seitz); for up\*/down\* and ITB
/// tables this follows from every segment being up\*/down\*-legal, but the
/// check reads only the table's switches and ports, so it catches a bug in
/// the orientation or the splitter as well.
///
/// The cycle is returned in dependency order: each channel is requested
/// while the one before it is held, and the last one's successor is the
/// first.
pub fn channel_dependency_cycle(db: &RouteDb) -> Option<Vec<Channel>> {
    let mut index: HashMap<(SwitchId, Port), u32> = HashMap::new();
    let mut channels: Vec<Channel> = Vec::new();
    let mut succ: Vec<Vec<u32>> = Vec::new();
    for (_, _, alts) in db.iter_pairs() {
        for seg in alts.iter().flat_map(|t| &t.segments) {
            let mut held: Option<u32> = None;
            for (i, w) in seg.switches.windows(2).enumerate() {
                let c = Channel {
                    from: w[0],
                    port: seg.ports[i],
                    to: w[1],
                };
                let id = *index.entry((c.from, c.port)).or_insert_with(|| {
                    channels.push(c);
                    succ.push(Vec::new());
                    channels.len() as u32 - 1
                });
                if let Some(h) = held {
                    if !succ[h as usize].contains(&id) {
                        succ[h as usize].push(id);
                    }
                }
                held = Some(id);
            }
        }
    }

    // Iterative depth-first search; a successor still on the stack closes
    // a cycle.
    const NEW: u8 = 0;
    const ON_STACK: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![NEW; channels.len()];
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for root in 0..channels.len() as u32 {
        if state[root as usize] != NEW {
            continue;
        }
        state[root as usize] = ON_STACK;
        stack.push((root, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let Some(&to) = succ[node as usize].get(*next) else {
                state[node as usize] = DONE;
                stack.pop();
                continue;
            };
            *next += 1;
            match state[to as usize] {
                NEW => {
                    state[to as usize] = ON_STACK;
                    stack.push((to, 0));
                }
                ON_STACK => {
                    let start = stack.iter().position(|&(c, _)| c == to).unwrap();
                    return Some(
                        stack[start..]
                            .iter()
                            .map(|&(c, _)| channels[c as usize])
                            .collect(),
                    );
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{RouteDbConfig, RoutingScheme};
    use regnet_topology::gen;

    #[test]
    fn paper_torus_updown_stats() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        assert!(
            (0.72..=0.88).contains(&stats.minimal_fraction),
            "torus UP/DOWN minimal fraction {}, paper ~0.80",
            stats.minimal_fraction
        );
        assert!(
            (4.3..=4.9).contains(&stats.avg_distance),
            "torus UP/DOWN avg distance {}, paper 4.57",
            stats.avg_distance
        );
        assert_eq!(stats.avg_itbs, 0.0);
        assert_eq!(stats.max_itbs, 0);
        assert_eq!(stats.avg_alternatives, 1.0);
    }

    #[test]
    fn paper_torus_itb_stats() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        // ITB routing always uses minimal paths.
        assert_eq!(stats.minimal_fraction, 1.0);
        assert!(
            (stats.avg_distance - 4.06).abs() < 0.1,
            "ITB avg distance {}, paper 4.06",
            stats.avg_distance
        );
        // Paper: ~0.43-0.54 ITBs per message under uniform traffic.
        assert!(
            (0.2..=0.9).contains(&stats.avg_itbs),
            "avg ITBs {} out of band",
            stats.avg_itbs
        );
        assert!(stats.avg_alternatives > 1.5);
    }

    #[test]
    fn paper_express_minimal_fraction() {
        // Paper: "the percentage of minimal paths is 94%" for UP/DOWN on
        // the torus with express channels.
        let topo = gen::torus_2d_express(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        assert!(
            stats.minimal_fraction > 0.85,
            "express UP/DOWN minimal fraction {}, paper 0.94",
            stats.minimal_fraction
        );
    }

    #[test]
    fn paper_cplant_minimal_fraction() {
        // Paper: "UP/DOWN always uses minimal paths in this topology".
        let topo = gen::cplant().unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let stats = RouteStats::compute(&topo, &db);
        assert!(
            stats.minimal_fraction > 0.9,
            "cplant UP/DOWN minimal fraction {}",
            stats.minimal_fraction
        );
    }

    #[test]
    fn built_tables_have_acyclic_channel_dependencies() {
        for topo in [
            gen::torus_2d(4, 4, 2).unwrap(),
            gen::torus_2d_express(4, 4, 2).unwrap(),
        ] {
            for scheme in RoutingScheme::extended() {
                let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
                assert_eq!(channel_dependency_cycle(&db), None, "{scheme}");
            }
        }
    }

    #[test]
    fn clockwise_ring_routes_have_a_dependency_cycle() {
        use crate::{JourneyTemplate, Segment, SegmentEnd};

        // Every route walks clockwise around a 4-ring: the dependencies
        // s0->s1 => s1->s2 => s2->s3 => s3->s0 close a cycle. Splitting the
        // same routes at s2 with an in-transit host breaks it.
        let mut b = regnet_topology::TopologyBuilder::new("ring4", 4);
        b.add_switches(4);
        for i in 0..4u32 {
            b.connect(SwitchId(i), SwitchId((i + 1) % 4)).unwrap();
        }
        b.attach_hosts_everywhere(1).unwrap();
        let topo = b.build().unwrap();
        let clockwise = |a: u32, b: u32| -> Vec<SwitchId> {
            let hops = (b + 4 - a) % 4;
            (0..=hops).map(|k| SwitchId((a + k) % 4)).collect()
        };
        let segment = |switches: Vec<SwitchId>, end: SegmentEnd| {
            let ports = switches
                .windows(2)
                .map(|w| topo.port_to(w[0], w[1]).unwrap())
                .collect();
            Segment {
                switches,
                ports,
                end,
            }
        };
        let mut cyclic = Vec::new();
        let mut split = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                let path = clockwise(a, b);
                cyclic.push(vec![JourneyTemplate {
                    segments: vec![segment(path.clone(), SegmentEnd::Deliver)],
                }]);
                let at = path.iter().position(|&s| s == SwitchId(2));
                let segments = match at {
                    Some(i) if i > 0 && i + 1 < path.len() => {
                        let itb = topo.hosts_of(SwitchId(2))[0];
                        vec![
                            segment(path[..=i].to_vec(), SegmentEnd::Itb(itb)),
                            segment(path[i..].to_vec(), SegmentEnd::Deliver),
                        ]
                    }
                    _ => vec![segment(path, SegmentEnd::Deliver)],
                };
                split.push(vec![JourneyTemplate { segments }]);
            }
        }
        let n_hosts = topo.num_hosts();
        let db = RouteDb::from_templates(RoutingScheme::UpDown, 4, n_hosts, cyclic);
        let cycle = channel_dependency_cycle(&db).expect("clockwise routes are cyclic");
        let mut named: Vec<String> = cycle.iter().map(|c| c.to_string()).collect();
        named.sort();
        assert_eq!(named, ["S0->S1", "S1->S2", "S2->S3", "S3->S0"]);
        for (i, c) in cycle.iter().enumerate() {
            assert_eq!(c.to, cycle[(i + 1) % cycle.len()].from, "{cycle:?}");
        }

        let db = RouteDb::from_templates(RoutingScheme::ItbRr, 4, n_hosts, split);
        assert_eq!(channel_dependency_cycle(&db), None);
    }

    #[test]
    fn itb_load_is_spread() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let load = itb_host_load(&topo, &db);
        let total: usize = load.iter().map(|&(_, l)| l).sum();
        assert!(total > 0);
        let max = load.iter().map(|&(_, l)| l).max().unwrap();
        // With the Spread picker no single host should carry more than a
        // few percent of all in-transit duty.
        assert!(
            (max as f64) < total as f64 * 0.05,
            "one host carries {max} of {total} ITB routes"
        );
    }
}
