//! Edge-list (COO / coordinate) graph representation.
//!
//! The paper's applications iterate over edges stored as two indirection
//! arrays `n1` (source) and `n2` (sink) — the "Sparse Matrix View" of §2.2.
//! [`EdgeList`] is exactly that layout, plus optional per-edge weights.

/// A directed graph stored as parallel edge arrays (the paper's `n1`/`n2`).
///
/// Vertex ids are `i32` so they can be loaded directly into SIMD index
/// vectors. All edges reference vertices `< num_vertices`.
///
/// # Example
///
/// ```
/// use invector_graph::EdgeList;
///
/// let g = EdgeList::from_edges(4, &[(0, 1), (1, 2), (3, 0)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.src()[2], 3);
/// assert_eq!(g.dst()[2], 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeList {
    num_vertices: usize,
    src: Vec<i32>,
    dst: Vec<i32>,
    weight: Vec<f32>,
}

impl EdgeList {
    /// Builds an unweighted edge list (all weights `1.0`).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of `0..num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(i32, i32)]) -> Self {
        let weights = vec![1.0; edges.len()];
        Self::from_weighted_edges(
            num_vertices,
            &edges.iter().zip(&weights).map(|(&(s, d), &w)| (s, d, w)).collect::<Vec<_>>(),
        )
    }

    /// Builds a weighted edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of `0..num_vertices`.
    pub fn from_weighted_edges(num_vertices: usize, edges: &[(i32, i32, f32)]) -> Self {
        let mut src = Vec::with_capacity(edges.len());
        let mut dst = Vec::with_capacity(edges.len());
        let mut weight = Vec::with_capacity(edges.len());
        for &(s, d, w) in edges {
            assert!(
                (0..num_vertices as i64).contains(&(s as i64))
                    && (0..num_vertices as i64).contains(&(d as i64)),
                "edge ({s}, {d}) out of range for {num_vertices} vertices"
            );
            src.push(s);
            dst.push(d);
            weight.push(w);
        }
        EdgeList { num_vertices, src, dst, weight }
    }

    /// Builds directly from parallel arrays without copying.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or out-of-range endpoints.
    pub fn from_arrays(
        num_vertices: usize,
        src: Vec<i32>,
        dst: Vec<i32>,
        weight: Vec<f32>,
    ) -> Self {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert_eq!(src.len(), weight.len(), "src/weight length mismatch");
        for (&s, &d) in src.iter().zip(&dst) {
            assert!(
                s >= 0 && (s as usize) < num_vertices && d >= 0 && (d as usize) < num_vertices,
                "edge ({s}, {d}) out of range for {num_vertices} vertices"
            );
        }
        EdgeList { num_vertices, src, dst, weight }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges (the sparse matrix NNZ).
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Source endpoints (`n1` in the paper).
    pub fn src(&self) -> &[i32] {
        &self.src
    }

    /// Sink endpoints (`n2` in the paper).
    pub fn dst(&self) -> &[i32] {
        &self.dst
    }

    /// Per-edge weights.
    pub fn weight(&self) -> &[f32] {
        &self.weight
    }

    /// Out-degree of every vertex (the `nneighbor` array of PageRank).
    pub fn out_degrees(&self) -> Vec<i32> {
        let mut deg = vec![0i32; self.num_vertices];
        for &s in &self.src {
            deg[s as usize] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<i32> {
        let mut deg = vec![0i32; self.num_vertices];
        for &d in &self.dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Returns a copy with every edge also present in the reverse direction
    /// (used by WCC, which needs undirected connectivity).
    pub fn symmetrized(&self) -> EdgeList {
        let mut src = Vec::with_capacity(self.src.len() * 2);
        let mut dst = Vec::with_capacity(self.src.len() * 2);
        let mut weight = Vec::with_capacity(self.src.len() * 2);
        for i in 0..self.src.len() {
            src.push(self.src[i]);
            dst.push(self.dst[i]);
            weight.push(self.weight[i]);
            src.push(self.dst[i]);
            dst.push(self.src[i]);
            weight.push(self.weight[i]);
        }
        EdgeList { num_vertices: self.num_vertices, src, dst, weight }
    }

    /// Returns a copy with edges reordered by `perm` (`perm[k]` is the old
    /// position of the edge placed at `k`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_edges`.
    pub fn permuted(&self, perm: &[u32]) -> EdgeList {
        assert_eq!(perm.len(), self.num_edges(), "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                !std::mem::replace(&mut seen[p as usize], true),
                "duplicate index {p} in permutation"
            );
        }
        EdgeList {
            num_vertices: self.num_vertices,
            src: perm.iter().map(|&p| self.src[p as usize]).collect(),
            dst: perm.iter().map(|&p| self.dst[p as usize]).collect(),
            weight: perm.iter().map(|&p| self.weight[p as usize]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EdgeList {
        EdgeList::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn weighted_construction() {
        let g = EdgeList::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 0.5)]);
        assert_eq!(g.weight(), &[2.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_vertex() {
        let _ = EdgeList::from_edges(2, &[(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_negative_vertex() {
        let _ = EdgeList::from_edges(2, &[(-1, 0)]);
    }

    #[test]
    fn symmetrized_doubles_edges() {
        let g = diamond().symmetrized();
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.out_degrees(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn permuted_reorders_all_arrays() {
        let g = EdgeList::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]);
        let p = g.permuted(&[2, 0, 1]);
        assert_eq!(p.src(), &[2, 0, 1]);
        assert_eq!(p.dst(), &[0, 1, 2]);
        assert_eq!(p.weight(), &[3.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn permuted_rejects_non_permutation() {
        let _ = diamond().permuted(&[0, 0, 1, 2]);
    }

    #[test]
    fn from_arrays_validates() {
        let g = EdgeList::from_arrays(2, vec![0, 1], vec![1, 0], vec![1.0, 1.0]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_arrays_rejects_ragged_input() {
        let _ = EdgeList::from_arrays(2, vec![0], vec![1, 0], vec![1.0, 1.0]);
    }
}
