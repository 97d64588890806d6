//! Enumeration and counting of graph-minimal paths.
//!
//! The in-transit buffer mechanism routes every packet on a *minimal* path;
//! the round-robin policy additionally wants several alternative minimal
//! paths per pair (the paper caps the routing table at 10 alternatives).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regnet_topology::{DistanceMatrix, SwitchId, Topology};

use crate::path::SwitchPath;

/// Number of distinct minimal paths between two switches (dynamic program
/// over the shortest-path DAG). Saturates at `u64::MAX`.
pub fn count_minimal_paths(
    topo: &Topology,
    dm: &DistanceMatrix,
    src: SwitchId,
    dst: SwitchId,
) -> u64 {
    if src == dst {
        return 1;
    }
    let d = dm.get(src, dst);
    // counts[s] = number of minimal paths from s to dst, filled in by
    // increasing distance from dst.
    let mut order: Vec<SwitchId> = topo.switches().filter(|&s| dm.get(s, dst) <= d).collect();
    order.sort_unstable_by_key(|&s| dm.get(s, dst));
    let mut counts = vec![0u64; topo.num_switches()];
    counts[dst.idx()] = 1;
    for &s in order.iter().skip(1) {
        let ds = dm.get(s, dst);
        let mut total: u64 = 0;
        for (_, t, _) in topo.switch_neighbors(s) {
            if dm.get(t, dst) + 1 == ds {
                total = total.saturating_add(counts[t.idx()]);
            }
        }
        counts[s.idx()] = total;
    }
    counts[src.idx()]
}

/// Enumerate up to `k` distinct minimal paths from `src` to `dst`.
///
/// Paths are discovered by seeded randomised walks over the shortest-path
/// DAG, which yields a diverse sample (walks that share long prefixes are
/// no more likely than the DAG structure dictates). The result is
/// deterministic for a given `seed`, sorted for stability, and contains the
/// full set when fewer than `k` minimal paths exist.
///
/// This is one row of a [`MinimalPathSampler`] read for one destination;
/// callers that need many destinations of one source should use the
/// sampler directly.
pub fn k_minimal_paths(
    topo: &Topology,
    dm: &DistanceMatrix,
    src: SwitchId,
    dst: SwitchId,
    k: usize,
    seed: u64,
) -> Vec<SwitchPath> {
    let mut sampler = MinimalPathSampler::new(topo, dm, k, seed);
    sampler.set_source(src);
    sampler
        .sample(dst)
        .map(|p| SwitchPath::new(p.to_vec()))
        .collect()
}

/// Samples up to `k` minimal paths from one source switch to every
/// destination, reusing its buffers from one destination (and one source)
/// to the next.
///
/// [`set_source`](MinimalPathSampler::set_source) counts the minimal paths
/// from the source to every switch in one pass over the source's BFS
/// order. Minimal paths are symmetric, so these are the per-pair counts of
/// [`count_minimal_paths`]. [`sample`](MinimalPathSampler::sample) then
/// either enumerates a destination's paths exhaustively (at most `4k` of
/// them) or draws seeded random walks until `k` distinct ones are found,
/// exactly as [`k_minimal_paths`] documents.
#[derive(Debug, Clone)]
pub struct MinimalPathSampler<'a> {
    dm: &'a DistanceMatrix,
    k: usize,
    seed: u64,
    adj: Adjacency,
    src: SwitchId,
    /// Minimal paths from `src` to each switch (saturating).
    counts: Vec<u64>,
    /// BFS queue of the counting pass.
    queue: Vec<SwitchId>,
    /// Candidate next hops of one walk step.
    nexts: Vec<SwitchId>,
    /// The walk (or DFS stack) being built.
    walk: Vec<SwitchId>,
    /// Distinct next hops per DFS depth.
    levels: Vec<Vec<SwitchId>>,
    /// Paths found for the current destination, back to back and in
    /// ascending order. All minimal paths of a pair have the same length,
    /// so each takes `stride` slots.
    found: Vec<SwitchId>,
}

impl<'a> MinimalPathSampler<'a> {
    /// A sampler for up to `k` paths per pair, with walks seeded from
    /// `seed` (and the pair).
    pub fn new(
        topo: &Topology,
        dm: &'a DistanceMatrix,
        k: usize,
        seed: u64,
    ) -> MinimalPathSampler<'a> {
        let n = topo.num_switches();
        MinimalPathSampler {
            dm,
            k,
            seed,
            adj: Adjacency::new(topo),
            src: SwitchId(0),
            counts: vec![0; n],
            queue: Vec::with_capacity(n),
            nexts: Vec::new(),
            walk: Vec::new(),
            levels: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Make `src` the source of the following [`sample`] calls and count
    /// its minimal paths to every switch.
    ///
    /// [`sample`]: MinimalPathSampler::sample
    pub fn set_source(&mut self, src: SwitchId) {
        self.src = src;
        let dist = self.dm.row(src);
        self.counts.fill(0);
        self.counts[src.idx()] = 1;
        self.queue.clear();
        self.queue.push(src);
        // FIFO order visits every switch at distance d before any at d + 1,
        // so a switch's count is final before it feeds its successors.
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            for &t in self.adj.of(v) {
                if dist[t.idx()] == dist[v.idx()] + 1 {
                    if self.counts[t.idx()] == 0 {
                        self.queue.push(t);
                    }
                    self.counts[t.idx()] =
                        self.counts[t.idx()].saturating_add(self.counts[v.idx()]);
                }
            }
        }
    }

    /// Up to `k` distinct minimal paths from the current source to `dst`,
    /// each as its switch sequence, in ascending order. The same paths
    /// [`k_minimal_paths`] returns for the pair.
    pub fn sample(&mut self, dst: SwitchId) -> std::slice::ChunksExact<'_, SwitchId> {
        let (src, k) = (self.src, self.k);
        self.found.clear();
        if k == 0 {
            return self.found.chunks_exact(1);
        }
        if src == dst {
            self.found.push(src);
            return self.found.chunks_exact(1);
        }
        let dist = self.dm.row(dst);
        let stride = dist[src.idx()] as usize + 1;
        let total = self.counts[dst.idx()];
        if total <= k as u64 * 4 {
            // Few enough paths: enumerate exhaustively by DFS. Next hops
            // are visited in ascending order, so the paths come out sorted.
            if self.levels.len() < stride {
                self.levels.resize_with(stride, Vec::new);
            }
            self.walk.clear();
            self.walk.push(src);
            dfs_all(
                &self.adj,
                dist,
                dst,
                &mut self.walk,
                &mut self.levels,
                &mut self.found,
                k * 4 * stride,
            );
            let n = (self.found.len() / stride).min(k);
            return self.found[..n * stride].chunks_exact(stride);
        }
        // Sample by randomised walks until `k` distinct paths are found,
        // inserting each new one at its sorted position.
        let mut rng = SmallRng::seed_from_u64(self.seed ^ ((src.0 as u64) << 32) ^ dst.0 as u64);
        let max_tries = 200 * k;
        let mut tries = 0;
        while self.found.len() < k * stride && tries < max_tries {
            tries += 1;
            self.walk.clear();
            self.walk.push(src);
            let mut cur = src;
            while cur != dst {
                let dc = dist[cur.idx()];
                self.nexts.clear();
                self.nexts.extend(
                    self.adj
                        .of(cur)
                        .iter()
                        .copied()
                        .filter(|t| dist[t.idx()] + 1 == dc),
                );
                cur = self.nexts[rng.gen_range(0..self.nexts.len())];
                self.walk.push(cur);
            }
            let walk = &self.walk[..];
            let at = stride
                * self
                    .found
                    .chunks_exact(stride)
                    .take_while(|p| *p < walk)
                    .count();
            if self.found.get(at..at + stride) != Some(walk) {
                self.found.splice(at..at, walk.iter().copied());
            }
        }
        self.found.chunks_exact(stride)
    }
}

/// The switch graph as flat neighbour lists: one entry per link, in port
/// order, so parallel links appear once each (as in
/// [`Topology::switch_neighbors`]).
#[derive(Debug, Clone)]
struct Adjacency {
    start: Vec<u32>,
    links: Vec<SwitchId>,
}

impl Adjacency {
    fn new(topo: &Topology) -> Adjacency {
        let mut start = Vec::with_capacity(topo.num_switches() + 1);
        let mut links = Vec::new();
        start.push(0);
        for s in topo.switches() {
            links.extend(topo.switch_neighbors(s).map(|(_, t, _)| t));
            start.push(links.len() as u32);
        }
        Adjacency { start, links }
    }

    #[inline]
    fn of(&self, s: SwitchId) -> &[SwitchId] {
        &self.links[self.start[s.idx()] as usize..self.start[s.idx() + 1] as usize]
    }
}

/// Append every minimal path from the top of `stack` to `dst` to `out`
/// (back to back), in ascending order, stopping once `out` holds `cap`
/// switches. `levels[0]` is this depth's scratch list of next hops.
fn dfs_all(
    adj: &Adjacency,
    dist: &[u16],
    dst: SwitchId,
    stack: &mut Vec<SwitchId>,
    levels: &mut [Vec<SwitchId>],
    out: &mut Vec<SwitchId>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    let cur = *stack.last().unwrap();
    if cur == dst {
        out.extend_from_slice(stack);
        return;
    }
    let dc = dist[cur.idx()];
    let (nexts, deeper) = levels.split_first_mut().expect("one level per hop");
    nexts.clear();
    nexts.extend(
        adj.of(cur)
            .iter()
            .copied()
            .filter(|t| dist[t.idx()] + 1 == dc),
    );
    nexts.sort_unstable();
    nexts.dedup();
    for &t in nexts.iter() {
        stack.push(t);
        dfs_all(adj, dist, dst, stack, deeper, out, cap);
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::gen;

    #[test]
    fn counts_on_torus() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        // Straight line: exactly one minimal path.
        assert_eq!(count_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(3)), 1);
        // (0,0) -> (2,2): C(4,2) = 6 lattice paths.
        assert_eq!(
            count_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(18)),
            6
        );
        // Same switch: one (empty) path.
        assert_eq!(count_minimal_paths(&topo, &dm, SwitchId(5), SwitchId(5)), 1);
    }

    #[test]
    fn enumeration_is_minimal_and_distinct() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let paths = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(18), 10, 7);
        assert_eq!(paths.len(), 6); // only 6 exist
        for p in &paths {
            assert!(p.is_connected(&topo));
            assert!(p.is_minimal(&dm));
            assert_eq!(p.src(), SwitchId(0));
            assert_eq!(p.dst(), SwitchId(18));
        }
        let mut dedup = paths.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), paths.len());
    }

    #[test]
    fn caps_at_k() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        // (0,0) -> (4,4) wraps either way: lots of minimal paths.
        let n = count_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(36));
        assert!(n > 10, "{n}");
        let paths = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(36), 10, 3);
        assert_eq!(paths.len(), 10);
        for p in &paths {
            assert!(p.is_minimal(&dm));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let a = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(36), 10, 3);
        let b = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(36), 10, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn same_switch_pair() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let p = k_minimal_paths(&topo, &dm, SwitchId(2), SwitchId(2), 10, 0);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len_links(), 0);
    }

    #[test]
    fn per_source_counts_match_per_pair_counts() {
        let mut b = regnet_topology::TopologyBuilder::new("dbl", 6);
        b.add_switches(4);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(1), SwitchId(2)).unwrap();
        b.connect(SwitchId(0), SwitchId(3)).unwrap();
        b.connect(SwitchId(3), SwitchId(2)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        let parallel_links = b.build().unwrap();
        for topo in [
            gen::torus_2d(6, 6, 1).unwrap(),
            gen::torus_2d_express(6, 6, 1).unwrap(),
            gen::cplant().unwrap(),
            gen::irregular_random(20, 3, 1, 5).unwrap(),
            parallel_links,
        ] {
            let dm = DistanceMatrix::compute(&topo);
            let mut sampler = MinimalPathSampler::new(&topo, &dm, 10, 0);
            for s in topo.switches() {
                sampler.set_source(s);
                for d in topo.switches() {
                    assert_eq!(
                        sampler.counts[d.idx()],
                        count_minimal_paths(&topo, &dm, s, d),
                        "{} {s}->{d}",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sampler_rows_match_single_pair_calls() {
        // Reusing one sampler across sources and destinations must not
        // leak state from one pair into the next.
        let topo = gen::torus_2d_express(6, 6, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let mut sampler = MinimalPathSampler::new(&topo, &dm, 3, 9);
        for s in topo.switches() {
            sampler.set_source(s);
            for d in topo.switches() {
                let row: Vec<Vec<SwitchId>> = sampler.sample(d).map(|p| p.to_vec()).collect();
                let pair: Vec<Vec<SwitchId>> = k_minimal_paths(&topo, &dm, s, d, 3, 9)
                    .into_iter()
                    .map(|p| p.switches().to_vec())
                    .collect();
                assert_eq!(row, pair, "{s}->{d}");
                assert!(!row.is_empty() && row.len() <= 3);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            }
        }
    }

    #[test]
    fn zero_alternatives_yield_no_paths() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        assert!(k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(5), 0, 1).is_empty());
        assert!(k_minimal_paths(&topo, &dm, SwitchId(5), SwitchId(5), 0, 1).is_empty());
    }

    #[test]
    fn express_torus_counts_consistent() {
        let topo = gen::torus_2d_express(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        for (s, d) in [(0u32, 36u32), (0, 9), (3, 60)] {
            let n = count_minimal_paths(&topo, &dm, SwitchId(s), SwitchId(d));
            let paths = k_minimal_paths(&topo, &dm, SwitchId(s), SwitchId(d), 64, 5);
            if n <= 64 {
                assert_eq!(paths.len() as u64, n, "{s}->{d}");
            } else {
                assert_eq!(paths.len(), 64);
            }
        }
    }
}
