//! Answer checks that share no code with the engines under test: a
//! textbook binary-heap Dijkstra, a bucket k-core peeling, and the
//! properties every correct answer must have.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use priograph_algorithms::UNREACHABLE;
use priograph_graph::{CsrGraph, VertexId};

/// Single-source shortest distances by Dijkstra's algorithm with a binary
/// heap and lazy deletion. Unreached vertices hold [`UNREACHABLE`].
pub fn dijkstra(graph: &CsrGraph, source: VertexId) -> Vec<i64> {
    let mut dist = vec![UNREACHABLE; graph.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0i64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for e in graph.out_edges(u) {
            let nd = d + i64::from(e.weight);
            if nd < dist[e.dst as usize] {
                dist[e.dst as usize] = nd;
                heap.push(Reverse((nd, e.dst)));
            }
        }
    }
    dist
}

/// The distance from `source` to `target` by the same Dijkstra, stopping
/// once `target` is settled; `None` when `target` is unreachable.
pub fn distance(graph: &CsrGraph, source: VertexId, target: VertexId) -> Option<i64> {
    let mut dist = vec![UNREACHABLE; graph.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0i64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if u == target {
            return Some(d);
        }
        for e in graph.out_edges(u) {
            let nd = d + i64::from(e.weight);
            if nd < dist[e.dst as usize] {
                dist[e.dst as usize] = nd;
                heap.push(Reverse((nd, e.dst)));
            }
        }
    }
    None
}

/// Coreness of every vertex of a symmetric graph by repeatedly removing a
/// vertex of least remaining degree (Batagelj–Zaversnik bucket peeling).
pub fn kcore_peel(graph: &CsrGraph) -> Vec<i64> {
    let n = graph.num_vertices();
    let mut degree: Vec<usize> = (0..n).map(|v| graph.out_degree(v as VertexId)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_degree + 1];
    for (v, &d) in degree.iter().enumerate() {
        buckets[d].push(v);
    }
    let mut removed = vec![false; n];
    let mut core = vec![0i64; n];
    let mut k = 0usize;
    let mut d = 0usize;
    while d <= max_degree {
        let Some(v) = buckets[d].pop() else {
            d += 1;
            continue;
        };
        if removed[v] || degree[v] != d {
            continue;
        }
        k = k.max(d);
        core[v] = k as i64;
        removed[v] = true;
        for e in graph.out_edges(v as VertexId) {
            let u = e.dst as usize;
            if !removed[u] && degree[u] > 0 {
                degree[u] -= 1;
                buckets[degree[u]].push(u);
                d = d.min(degree[u]);
            }
        }
    }
    core
}

/// Checks the properties every shortest-path answer has: the source is at
/// 0, no edge can still relax, and every other reached vertex has a tight
/// in-edge (one whose relaxation gives exactly its distance).
pub fn check_shortest_paths(
    graph: &CsrGraph,
    source: VertexId,
    dist: &[i64],
) -> Result<(), String> {
    let n = graph.num_vertices();
    if dist.len() != n {
        return Err(format!(
            "distance vector has {} entries for {n} vertices",
            dist.len()
        ));
    }
    if dist[source as usize] != 0 {
        return Err(format!(
            "source {source} is at {}, not 0",
            dist[source as usize]
        ));
    }
    let mut tight = vec![false; n];
    tight[source as usize] = true;
    for u in graph.vertices() {
        let du = dist[u as usize];
        if du == UNREACHABLE {
            continue;
        }
        if du < 0 {
            return Err(format!("vertex {u} has negative distance {du}"));
        }
        for e in graph.out_edges(u) {
            let via = du + i64::from(e.weight);
            let dv = dist[e.dst as usize];
            if via < dv {
                return Err(format!("edge {u}->{} can still relax: {via} < {dv}", e.dst));
            }
            if via == dv {
                tight[e.dst as usize] = true;
            }
        }
    }
    match (0..n).find(|&v| dist[v] != UNREACHABLE && !tight[v]) {
        Some(v) => Err(format!("vertex {v} at {} has no tight in-edge", dist[v])),
        None => Ok(()),
    }
}

/// Checks the peeling property of a coreness vector on a symmetric graph:
/// each vertex's coreness is the largest `k` such that at least `k` of its
/// neighbours have coreness `k` or more.
pub fn check_coreness(graph: &CsrGraph, coreness: &[i64]) -> Result<(), String> {
    if coreness.len() != graph.num_vertices() {
        return Err(format!(
            "coreness vector has {} entries for {} vertices",
            coreness.len(),
            graph.num_vertices()
        ));
    }
    let mut neighbours: Vec<i64> = Vec::new();
    for v in graph.vertices() {
        neighbours.clear();
        neighbours.extend(graph.out_edges(v).iter().map(|e| coreness[e.dst as usize]));
        neighbours.sort_unstable_by(|a, b| b.cmp(a));
        // h-index: the largest k with at least k neighbours at k or above.
        let h = neighbours
            .iter()
            .enumerate()
            .take_while(|&(i, &c)| c > i as i64)
            .count() as i64;
        if coreness[v as usize] != h {
            return Err(format!(
                "vertex {v} has coreness {} but its neighbours support {h}",
                coreness[v as usize]
            ));
        }
    }
    Ok(())
}

/// A 64-bit FNV-1a fingerprint of an answer vector, so answers can be kept
/// through the timed window and compared with the reference after it.
pub fn fingerprint(values: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ values.len() as u64
}

/// Feeds one perturbed distance and one perturbed coreness to the checks
/// and fails unless both are caught.
pub fn self_test(graph: &CsrGraph, sym: &CsrGraph, source: VertexId) -> Result<(), String> {
    let mut dist = dijkstra(graph, source);
    check_shortest_paths(graph, source, &dist)?;
    let victim = (0..dist.len())
        .rev()
        .find(|&v| v != source as usize && dist[v] != UNREACHABLE && dist[v] > 0)
        .ok_or("self-test graph has no reached vertex besides the source")?;
    dist[victim] -= 1;
    if check_shortest_paths(graph, source, &dist).is_ok() {
        return Err(format!(
            "a distance lowered by 1 at vertex {victim} passed the check"
        ));
    }
    let mut core = kcore_peel(sym);
    check_coreness(sym, &core)?;
    let victim = (0..core.len())
        .find(|&v| core[v] > 0)
        .ok_or("self-test graph has no vertex of positive coreness")?;
    core[victim] += 1;
    if check_coreness(sym, &core).is_ok() {
        return Err(format!(
            "a coreness raised by 1 at vertex {victim} passed the check"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use priograph_graph::gen::GraphGen;

    #[test]
    fn dijkstra_agrees_with_the_library_reference() {
        let g = GraphGen::rmat(9, 8).seed(3).build();
        for s in [0, 17, 300] {
            assert_eq!(
                dijkstra(&g, s),
                priograph_algorithms::serial::dijkstra(&g, s)
            );
        }
    }

    #[test]
    fn point_distances_agree_with_the_full_search() {
        for g in [
            GraphGen::rmat(9, 8).seed(3).build(),
            GraphGen::road_grid(20, 20).seed(3).build(),
        ] {
            let dist = dijkstra(&g, 5);
            for t in g.vertices() {
                let want = (dist[t as usize] != UNREACHABLE).then_some(dist[t as usize]);
                assert_eq!(distance(&g, 5, t), want);
            }
        }
    }

    #[test]
    fn peeling_agrees_with_the_library_reference() {
        let g = GraphGen::rmat(9, 8).seed(5).build().symmetrize();
        assert_eq!(
            kcore_peel(&g),
            priograph_algorithms::serial::kcore_serial(&g)
        );
        let road = GraphGen::road_grid(20, 20).seed(5).build();
        assert_eq!(
            kcore_peel(&road),
            priograph_algorithms::serial::kcore_serial(&road)
        );
    }

    #[test]
    fn perturbed_answers_are_caught() {
        let g = GraphGen::rmat(8, 8).seed(9).build();
        self_test(&g, &g.symmetrize(), 1).unwrap();
        let road = GraphGen::road_grid(16, 16).seed(9).build();
        self_test(&road, &road, 0).unwrap();
    }

    #[test]
    fn raised_distances_are_caught() {
        let g = GraphGen::road_grid(8, 8).seed(1).build();
        let mut d = dijkstra(&g, 0);
        d[10] += 1;
        assert!(check_shortest_paths(&g, 0, &d).is_err());
        d = dijkstra(&g, 0);
        d[0] = 1;
        assert!(check_shortest_paths(&g, 0, &d).is_err());
    }

    #[test]
    fn fingerprints_tell_vectors_apart() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 3, 2]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
    }
}
