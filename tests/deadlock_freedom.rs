//! Static deadlock freedom: the channel dependency graph of every route
//! table the library builds is acyclic, on every generator and under every
//! scheme, and so is every table the mapper rebuilds after a fault.
//!
//! The check (`analysis::channel_dependency_cycle`) reads only the switches
//! and ports of the tables, so it does not trust the up*/down* orientation
//! or the ITB splitter that produced them.

use regnet::core::analysis::channel_dependency_cycle;
use regnet::prelude::*;

fn assert_acyclic(name: &str, db: &RouteDb) {
    if let Some(cycle) = channel_dependency_cycle(db) {
        let named: Vec<String> = cycle.iter().map(|c| c.to_string()).collect();
        panic!("{name}: cyclic channel dependency {}", named.join(" => "));
    }
}

fn all_schemes(topo: &Topology) {
    for scheme in RoutingScheme::extended() {
        let db = RouteDb::build(topo, scheme, &RouteDbConfig::default());
        assert_acyclic(&format!("{} {scheme}", topo.name()), &db);
    }
}

/// Ring of 6 whose switch 3 has no hosts: two pairs use the `simple_routes`
/// fallback next to ITB routes.
fn hostless_ring() -> Topology {
    let mut b = TopologyBuilder::new("ring6-gap", 4);
    b.add_switches(6);
    for i in 0..6u32 {
        b.connect(SwitchId(i), SwitchId((i + 1) % 6)).unwrap();
    }
    for i in [0u32, 1, 2, 4, 5] {
        b.attach_host(SwitchId(i)).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn paper_topologies_are_deadlock_free() {
    all_schemes(&gen::torus_2d(8, 8, 8).unwrap());
    all_schemes(&gen::torus_2d_express(8, 8, 8).unwrap());
    all_schemes(&gen::cplant().unwrap());
}

#[test]
fn other_generators_are_deadlock_free() {
    all_schemes(&gen::mesh_2d(6, 6, 2).unwrap());
    all_schemes(&gen::hypercube(5, 2).unwrap());
    all_schemes(&gen::irregular_random(24, 4, 2, 17).unwrap());
    all_schemes(&hostless_ring());
}

#[test]
fn torus16_itb_rr_is_deadlock_free() {
    let topo = gen::torus_2d(16, 16, 4).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    assert_acyclic("torus16 ITB-RR", &db);
}

#[test]
fn cplant_rebuilds_after_faults_are_deadlock_free() {
    let topo = gen::cplant().unwrap();
    let switch_links: Vec<LinkId> = topo
        .links()
        .iter()
        .filter(|l| l.is_switch_link())
        .map(|l| l.id)
        .collect();
    // One failed link, then two at once, then a failed switch.
    let mut plans = vec![
        FaultSet::link(switch_links[0]),
        FaultSet::link(switch_links[switch_links.len() / 2]),
    ];
    plans[1].kill_link(switch_links[7]);
    plans.push(FaultSet::switch(SwitchId(5)));
    for faults in &plans {
        for scheme in RoutingScheme::extended() {
            let pr = rebuild_physical_routes(
                &topo,
                faults,
                HostId(0),
                scheme,
                &RouteDbConfig::default(),
            )
            .unwrap();
            assert_acyclic(&format!("rebuilt CPLANT {scheme} (mapped)"), &pr.mapped_db);
            assert_acyclic(&format!("rebuilt CPLANT {scheme} (physical)"), &pr.db);
        }
    }
}
