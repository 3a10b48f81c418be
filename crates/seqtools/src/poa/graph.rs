//! The POA graph structure and heaviest-path consensus.

/// One node of the POA graph: a base plus weighted in/out edges.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// The nucleotide this node represents.
    pub base: u8,
    /// Approximate backbone coordinate of this node (used to center the
    /// banded DP); backbone nodes carry their exact position, inserted
    /// nodes inherit a neighbour's.
    pub pos: u32,
    /// Incoming edges as `(from_node, weight)`.
    pub in_edges: Vec<(usize, u32)>,
    /// Outgoing edges as `(to_node, weight)`.
    pub out_edges: Vec<(usize, u32)>,
}

/// A partial-order alignment graph.
///
/// Nodes are created as sequences are added; edges accumulate weight for
/// every sequence that traverses them. The graph is a DAG by construction
/// (edges always point from earlier to later sequence positions).
#[derive(Debug, Clone, Default)]
pub struct PoaGraph {
    pub(crate) nodes: Vec<Node>,
    /// Entry nodes of each added sequence (used to seed consensus).
    pub(crate) starts: Vec<usize>,
    /// Length of the first (backbone) sequence.
    pub(crate) backbone_len: usize,
    /// Number of sequences added.
    sequences: usize,
}

impl PoaGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph initialized with a backbone sequence (Racon seeds each
    /// window's graph with the draft window itself).
    pub fn from_sequence(seq: &[u8]) -> Self {
        let mut g = PoaGraph::new();
        g.add_unaligned(seq);
        g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn add_node(&mut self, base: u8, pos: u32) -> usize {
        self.nodes.push(Node { base, pos, in_edges: Vec::new(), out_edges: Vec::new() });
        self.nodes.len() - 1
    }

    pub(crate) fn add_edge(&mut self, from: usize, to: usize, weight: u32) {
        debug_assert_ne!(from, to, "self edge would create a cycle");
        if let Some(e) = self.nodes[from].out_edges.iter_mut().find(|(t, _)| *t == to) {
            e.1 += weight;
        } else {
            self.nodes[from].out_edges.push((to, weight));
        }
        if let Some(e) = self.nodes[to].in_edges.iter_mut().find(|(f, _)| *f == from) {
            e.1 += weight;
        } else {
            self.nodes[to].in_edges.push((from, weight));
        }
    }

    /// Add a sequence as a fresh chain without aligning (used for the
    /// first/backbone sequence).
    pub(crate) fn add_unaligned(&mut self, seq: &[u8]) {
        if seq.is_empty() {
            return;
        }
        let mut prev: Option<usize> = None;
        let mut first = None;
        for (i, &b) in seq.iter().enumerate() {
            let node = self.add_node(b, i as u32);
            if first.is_none() {
                first = Some(node);
            }
            if let Some(p) = prev {
                self.add_edge(p, node, 1);
            }
            prev = Some(node);
        }
        if let Some(f) = first {
            self.starts.push(f);
        }
        if self.sequences == 0 {
            self.backbone_len = seq.len();
        }
        self.sequences += 1;
    }

    pub(crate) fn note_sequence_added(&mut self, start: Option<usize>) {
        if let Some(s) = start {
            self.starts.push(s);
        }
        self.sequences += 1;
    }

    /// Topological order of the node indices (Kahn's algorithm).
    pub(crate) fn topological_order(&self) -> Vec<usize> {
        let mut in_deg: Vec<usize> = self.nodes.iter().map(|n| n.in_edges.len()).collect();
        let mut queue: Vec<usize> = (0..self.nodes.len()).filter(|&i| in_deg[i] == 0).collect();
        // Stable processing order for determinism.
        queue.sort_unstable();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head];
            head += 1;
            order.push(n);
            for &(to, _) in &self.nodes[n].out_edges {
                in_deg[to] -= 1;
                if in_deg[to] == 0 {
                    queue.push(to);
                }
            }
        }
        debug_assert_eq!(order.len(), self.nodes.len(), "POA graph has a cycle");
        order
    }

    /// Heaviest-path consensus: the path maximizing the sum of traversed
    /// edge weights, which is the sequence most supported by the aligned
    /// reads.
    pub fn consensus(&self) -> String {
        if self.nodes.is_empty() {
            return String::new();
        }
        let order = self.topological_order();
        let mut score = vec![0i64; self.nodes.len()];
        let mut back: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for &n in &order {
            for &(from, w) in &self.nodes[n].in_edges {
                let cand = score[from] + i64::from(w);
                if cand > score[n] || (cand == score[n] && back[n].is_none_or(|b| from < b)) {
                    score[n] = cand;
                    back[n] = Some(from);
                }
            }
        }
        // Best end node: maximum accumulated weight; ties broken by index
        // for determinism.
        let end = (0..self.nodes.len())
            .max_by(|&a, &b| score[a].cmp(&score[b]).then(b.cmp(&a)))
            .expect("non-empty graph");
        let mut path = Vec::new();
        let mut cur = Some(end);
        while let Some(n) = cur {
            path.push(self.nodes[n].base);
            cur = back[n];
        }
        path.reverse();
        String::from_utf8(path).expect("bases are ASCII")
    }

    /// Heaviest path constrained to start at the backbone's first node
    /// and end at its last node. Racon uses this form: interpolated
    /// fragment breakpoints make the free-ended heaviest path chew window
    /// edges, while the backbone anchors are trustworthy.
    pub fn consensus_anchored(&self) -> String {
        if self.backbone_len == 0 || self.nodes.is_empty() {
            return self.consensus();
        }
        let start = 0usize;
        let end = self.backbone_len - 1;
        let order = self.topological_order();
        const NEG: i64 = i64::MIN / 4;
        let mut score = vec![NEG; self.nodes.len()];
        let mut back: Vec<Option<usize>> = vec![None; self.nodes.len()];
        score[start] = 0;
        for &n in &order {
            if score[n] == NEG {
                continue;
            }
            for &(to, w) in &self.nodes[n].out_edges {
                let cand = score[n] + i64::from(w);
                if cand > score[to] || (cand == score[to] && back[to].is_none_or(|b| n < b)) {
                    score[to] = cand;
                    back[to] = Some(n);
                }
            }
        }
        if score[end] == NEG {
            return self.consensus(); // backbone chain broken (cannot happen)
        }
        let mut path = Vec::new();
        let mut cur = Some(end);
        while let Some(n) = cur {
            path.push(self.nodes[n].base);
            if n == start {
                break;
            }
            cur = back[n];
        }
        path.reverse();
        String::from_utf8(path).expect("bases are ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl PoaGraph {
        /// Number of sequences added so far.
        pub(crate) fn sequence_count(&self) -> usize {
            self.sequences
        }

        /// Total edge weight in the graph.
        fn total_edge_weight(&self) -> u64 {
            self.nodes.iter().flat_map(|n| n.out_edges.iter()).map(|&(_, w)| u64::from(w)).sum()
        }
    }

    proptest! {
        /// POA: adding the same sequence N times always yields that sequence
        /// as consensus, and edge weights grow linearly.
        #[test]
        fn poa_consensus_of_repeats_is_identity(seq in "[ACGT]{10,60}", n in 1usize..5) {
            let mut g = PoaGraph::from_sequence(seq.as_bytes());
            for _ in 0..n {
                g.add_sequence(seq.as_bytes(), None);
            }
            prop_assert_eq!(g.consensus(), seq.clone());
            prop_assert_eq!(g.consensus_anchored(), seq.clone());
            prop_assert_eq!(g.node_count(), seq.len());
            prop_assert_eq!(g.total_edge_weight() as usize, (n + 1) * (seq.len() - 1));
        }
    }

    #[test]
    fn single_sequence_consensus_is_identity() {
        let g = PoaGraph::from_sequence(b"ACGTACGT");
        assert_eq!(g.consensus(), "ACGTACGT");
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.sequence_count(), 1);
    }

    #[test]
    fn empty_graph_consensus_is_empty() {
        assert_eq!(PoaGraph::new().consensus(), "");
    }

    #[test]
    fn edge_weights_accumulate() {
        let mut g = PoaGraph::new();
        let a = g.add_node(b'A', 0);
        let c = g.add_node(b'C', 1);
        g.add_edge(a, c, 1);
        g.add_edge(a, c, 1);
        assert_eq!(g.nodes[a].out_edges, vec![(c, 2)]);
        assert_eq!(g.total_edge_weight(), 2);
    }

    #[test]
    fn heaviest_branch_wins() {
        // A -> C -> T  (weight 3)
        // A -> G -> T  (weight 1)
        let mut g = PoaGraph::new();
        let a = g.add_node(b'A', 0);
        let c = g.add_node(b'C', 1);
        let gg = g.add_node(b'G', 1);
        let t = g.add_node(b'T', 2);
        g.add_edge(a, c, 3);
        g.add_edge(c, t, 3);
        g.add_edge(a, gg, 1);
        g.add_edge(gg, t, 1);
        assert_eq!(g.consensus(), "ACT");
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = PoaGraph::from_sequence(b"ACGT");
        let order = g.topological_order();
        assert_eq!(order.len(), 4);
        let rank: Vec<usize> = {
            let mut r = vec![0; 4];
            for (i, &n) in order.iter().enumerate() {
                r[n] = i;
            }
            r
        };
        for (i, node) in g.nodes.iter().enumerate() {
            for &(to, _) in &node.out_edges {
                assert!(rank[i] < rank[to]);
            }
        }
    }
}
