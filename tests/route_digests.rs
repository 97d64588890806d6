//! Golden digests of the route tables `RouteDb::build` produces.
//!
//! Every byte of a route table feeds the simulator, so any change to the
//! path sampler, the ITB splitter or the order the table is assembled in
//! shows up here as a changed digest. The digests were recorded before the
//! table build was reorganised per source switch, and must not change
//! unless the routes themselves are meant to change.

use regnet::prelude::*;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of every (pair, alternative, segment switches / ports / end).
fn digest(db: &RouteDb) -> u64 {
    let mut h = Fnv::new();
    for (s, d, alts) in db.iter_pairs() {
        h.u32(s.0);
        h.u32(d.0);
        h.u32(alts.len() as u32);
        for t in alts {
            h.u32(t.segments.len() as u32);
            for seg in &t.segments {
                h.u32(seg.switches.len() as u32);
                for sw in &seg.switches {
                    h.u32(sw.0);
                }
                h.u32(seg.ports.len() as u32);
                for p in &seg.ports {
                    h.bytes(&[p.0]);
                }
                match seg.end {
                    SegmentEnd::Deliver => h.bytes(&[0]),
                    SegmentEnd::Itb(host) => {
                        h.bytes(&[1]);
                        h.u32(host.0);
                    }
                }
            }
        }
    }
    h.0
}

/// Ring of 6 rooted at 0 whose switch 3 has no hosts: the pairs 2->4 and
/// 4->2 need the `simple_routes` fallback.
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

fn check(name: &str, got: u64, want: u64, mismatches: &mut Vec<String>) {
    if got != want {
        mismatches.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
    }
}

fn scheme_digests(topo: &Topology, expected: [u64; 4], mismatches: &mut Vec<String>) {
    for (scheme, want) in RoutingScheme::extended().into_iter().zip(expected) {
        let db = RouteDb::build(topo, scheme, &RouteDbConfig::default());
        check(
            &format!("{} {scheme}", topo.name()),
            digest(&db),
            want,
            mismatches,
        );
    }
}

fn assert_none(mismatches: Vec<String>) {
    assert!(
        mismatches.is_empty(),
        "route tables changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn paper_topologies_route_tables_are_unchanged() {
    let mut bad = Vec::new();
    scheme_digests(
        &gen::torus_2d(8, 8, 8).unwrap(),
        [
            0x5e2f_0186_e214_8d42,
            0xc39d_8dd4_1cbb_7024,
            0xc39d_8dd4_1cbb_7024,
            0xc39d_8dd4_1cbb_7024,
        ],
        &mut bad,
    );
    scheme_digests(
        &gen::torus_2d_express(8, 8, 8).unwrap(),
        [
            0x14a1_c50a_8bf1_000b,
            0xd1c3_29f6_a804_bb35,
            0xd1c3_29f6_a804_bb35,
            0xd1c3_29f6_a804_bb35,
        ],
        &mut bad,
    );
    scheme_digests(
        &gen::cplant().unwrap(),
        [
            0xe4fe_785c_9db5_9fc2,
            0x6deb_1962_a2d8_0493,
            0x6deb_1962_a2d8_0493,
            0x6deb_1962_a2d8_0493,
        ],
        &mut bad,
    );
    assert_none(bad);
}

#[test]
fn irregular_and_hostless_route_tables_are_unchanged() {
    let mut bad = Vec::new();
    scheme_digests(
        &gen::irregular_random(24, 4, 2, 17).unwrap(),
        [
            0x6422_99d3_ae83_fb04,
            0xa572_7d98_471c_9686,
            0xa572_7d98_471c_9686,
            0xa572_7d98_471c_9686,
        ],
        &mut bad,
    );
    scheme_digests(
        &hostless_ring(),
        [
            0x5b60_e55b_4daf_2295,
            0x1755_b936_8283_917e,
            0x1755_b936_8283_917e,
            0x1755_b936_8283_917e,
        ],
        &mut bad,
    );
    assert_none(bad);
}

#[test]
fn torus16_itb_rr_route_table_is_unchanged() {
    let topo = gen::torus_2d(16, 16, 4).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let mut bad = Vec::new();
    check(
        "torus16 ITB-RR",
        digest(&db),
        0xfa51_d63e_403e_5c4a,
        &mut bad,
    );
    assert_none(bad);
}

#[test]
fn cplant_rebuild_after_link_failure_is_unchanged() {
    let topo = gen::cplant().unwrap();
    let link = topo
        .links()
        .iter()
        .find(|l| l.is_switch_link())
        .expect("CPLANT has switch links")
        .id;
    let faults = FaultSet::link(link);
    let expected = [
        0x52e5_49ee_390a_daab,
        0x2275_79b8_da4d_bef8,
        0x2275_79b8_da4d_bef8,
        0x2275_79b8_da4d_bef8,
    ];
    let mut bad = Vec::new();
    for (scheme, want) in RoutingScheme::extended().into_iter().zip(expected) {
        let pr =
            rebuild_physical_routes(&topo, &faults, HostId(0), scheme, &RouteDbConfig::default())
                .unwrap();
        pr.verify(&topo, &faults).unwrap();
        check(
            &format!("rebuilt CPLANT {scheme}"),
            digest(&pr.db),
            want,
            &mut bad,
        );
    }
    assert_none(bad);
}
