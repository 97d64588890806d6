//! All-pairs shortest switch distances (BFS per switch).

use std::collections::VecDeque;

use crate::graph::Topology;
use crate::ids::SwitchId;

/// All-pairs shortest-path distances over the switch graph, measured in
/// switch-to-switch links traversed (host links not counted, matching the
/// paper's "average distance ... measured as the number of traversed
/// links").
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<u16>,
}

impl DistanceMatrix {
    /// Compute the full matrix with one BFS per switch.
    pub fn compute(topo: &Topology) -> DistanceMatrix {
        let n = topo.num_switches();
        let mut dist = vec![u16::MAX; n * n];
        let mut queue = VecDeque::new();
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0;
            queue.clear();
            queue.push_back(SwitchId(src as u32));
            while let Some(s) = queue.pop_front() {
                let d = row[s.idx()];
                for (_, t, _) in topo.switch_neighbors(s) {
                    if row[t.idx()] == u16::MAX {
                        row[t.idx()] = d + 1;
                        queue.push_back(t);
                    }
                }
            }
        }
        DistanceMatrix { n, dist }
    }

    /// Shortest distance between two switches, in links.
    #[inline]
    pub fn get(&self, a: SwitchId, b: SwitchId) -> u16 {
        self.dist[a.idx() * self.n + b.idx()]
    }

    /// Distances from `a` to every switch, indexed by switch id. The matrix
    /// is symmetric, so this is also every switch's distance *to* `a`.
    #[inline]
    pub fn row(&self, a: SwitchId) -> &[u16] {
        &self.dist[a.idx() * self.n..(a.idx() + 1) * self.n]
    }

    /// The network diameter (longest shortest path).
    pub fn diameter(&self) -> u16 {
        self.dist.iter().copied().max().unwrap_or(0)
    }

    /// Average distance over all *ordered distinct* switch pairs.
    pub fn average(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: u64 = self.dist.iter().map(|&d| d as u64).sum();
        sum as f64 / (self.n * (self.n - 1)) as f64
    }

    /// All switches at distance `<= radius` from `s` (including `s`).
    pub fn within(&self, s: SwitchId, radius: u16) -> Vec<SwitchId> {
        (0..self.n as u32)
            .map(SwitchId)
            .filter(|&t| self.get(s, t) <= radius)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn torus_distances() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        assert_eq!(dm.get(SwitchId(0), SwitchId(0)), 0);
        assert_eq!(dm.get(SwitchId(0), SwitchId(1)), 1);
        // Opposite corner of an 8x8 torus: 4+4 wrapped.
        assert_eq!(dm.get(SwitchId(0), SwitchId(36)), 8);
        assert_eq!(dm.diameter(), 8);
        // Average ring distance on an 8-ring over ordered pairs incl. self
        // is 2.0 per dimension => 4.0; excluding self pairs scales by 64/63.
        let expected = 4.0 * 64.0 / 63.0;
        assert!((dm.average() - expected).abs() < 1e-9, "{}", dm.average());
    }

    #[test]
    fn symmetric() {
        let topo = gen::cplant().unwrap();
        let dm = DistanceMatrix::compute(&topo);
        for a in topo.switches() {
            for b in topo.switches() {
                assert_eq!(dm.get(a, b), dm.get(b, a));
                assert_eq!(dm.row(b)[a.idx()], dm.get(a, b));
            }
        }
    }

    #[test]
    fn express_channels_halve_distances() {
        let plain = DistanceMatrix::compute(&gen::torus_2d(8, 8, 1).unwrap());
        let express = DistanceMatrix::compute(&gen::torus_2d_express(8, 8, 1).unwrap());
        // Paper: "average distance to message destinations is almost reduced
        // to the half" — the exact ratio on an 8x8 torus is 0.625.
        assert!(express.average() < plain.average() * 0.63);
        assert_eq!(express.diameter(), 4);
    }

    #[test]
    fn within_radius() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let near = dm.within(SwitchId(0), 1);
        assert_eq!(near.len(), 5); // self + 4 neighbours
        let all = dm.within(SwitchId(0), 8);
        assert_eq!(all.len(), 64);
    }
}
