//! Partition quality metrics the partitioner tests judge it by: edge cut and
//! balance.

use crate::graph::Graph;
use crate::Partition;

/// Number of edges whose endpoints lie in different parts.
pub(crate) fn edge_cut(graph: &Graph, partition: &Partition) -> usize {
    let mut cut = 0;
    for v in 0..graph.num_vertices() {
        for &u in graph.neighbours(v) {
            if u > v && partition[u] != partition[v] {
                cut += 1;
            }
        }
    }
    cut
}

/// Ratio of the largest part size to the ideal (uniform) size.  1.0 means
/// perfectly balanced; values above ~1.2 indicate a poor partition.
pub(crate) fn balance_factor(partition: &Partition, num_parts: usize) -> f64 {
    if partition.is_empty() || num_parts == 0 {
        return 1.0;
    }
    let mut counts = vec![0usize; num_parts];
    for &p in partition {
        counts[p] += 1;
    }
    let max = *counts.iter().max().unwrap() as f64;
    let ideal = partition.len() as f64 / num_parts as f64;
    max / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let adjacency: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut list = Vec::new();
                if i > 0 {
                    list.push(i - 1);
                }
                if i + 1 < n {
                    list.push(i + 1);
                }
                list
            })
            .collect();
        Graph::from_adjacency(&adjacency)
    }

    #[test]
    fn edge_cut_of_contiguous_split_is_one() {
        let g = path_graph(10);
        let partition: Partition = (0..10).map(|i| if i < 5 { 0 } else { 1 }).collect();
        assert_eq!(edge_cut(&g, &partition), 1);
    }

    #[test]
    fn edge_cut_of_alternating_split_is_maximal() {
        let g = path_graph(10);
        let partition: Partition = (0..10).map(|i| i % 2).collect();
        assert_eq!(edge_cut(&g, &partition), 9);
    }

    #[test]
    fn balance_factor_uniform_and_skewed() {
        let uniform: Partition = (0..10).map(|i| i % 2).collect();
        assert!((balance_factor(&uniform, 2) - 1.0).abs() < 1e-12);
        let skewed: Partition = (0..10).map(|i| usize::from(i >= 8)).collect();
        assert!((balance_factor(&skewed, 2) - 1.6).abs() < 1e-12);
        assert_eq!(balance_factor(&Vec::new(), 3), 1.0);
    }
}
