//! The tiered virtual-grid hierarchy (paper Section 2, Figure 1).
//!
//! The network is organised in tiers: leaf sensors at the bottom, and at
//! each higher tier one leader per cell of an increasingly coarse virtual
//! grid, up to a single leader for the whole network. *"At each cell at
//! the lowest tier of the grid, there is one leader (or parent) node,
//! that is responsible for processing the measurements of all the sensors
//! in the cell."* Leader election itself is out of scope for the paper
//! (it defers to [17, 33, 47]); here leader assignment is deterministic,
//! which also makes simulations replayable.
//!
//! Three constructors cover the paper's experiments and the scaling
//! benchmarks:
//!
//! * [`Hierarchy::balanced`] — explicit per-tier fan-outs, e.g.
//!   `balanced(32, &[4, 2, 4])` builds the 32-leaf / 8 / 4 / 1 four-level
//!   hierarchy used in the accuracy experiments (§10.2).
//! * [`Hierarchy::virtual_grid`] — a `side × side` leaf grid with
//!   quad-tree cells, the literal Figure 1 shape, used for the
//!   communication-scaling experiment (Figure 11).
//! * [`Hierarchy::deep`] — a deep (4–5 tier) shape with near-uniform
//!   fan-outs derived from the leaf count, for the 1k/10k/50k-leaf scale
//!   benchmarks.
//!
//! Storage is flat: child lists and tier membership live in two CSR
//! (compressed sparse row) arenas — one contiguous id vector plus an
//! offset vector each — instead of one heap allocation per node. At 50k
//! nodes that is 4 allocations total rather than ~100k, and walking a
//! tier or a child list is a contiguous slice scan.

use crate::node::{Location, NodeId, NodeRole};
use crate::SimError;

/// A CSR arena of node-id rows: row `i` is `ids[off[i]..off[i+1]]`.
#[derive(Debug, Clone)]
struct Rows {
    ids: Vec<NodeId>,
    off: Vec<u32>,
}

impl Rows {
    fn new() -> Self {
        Self {
            ids: Vec::new(),
            off: vec![0],
        }
    }

    /// Appends a row; rows must be pushed in index order.
    fn push(&mut self, row: &[NodeId]) {
        self.ids.extend_from_slice(row);
        self.off.push(self.ids.len() as u32);
    }

    /// Appends an empty row (leaves have no children).
    fn push_empty(&mut self) {
        self.off.push(self.ids.len() as u32);
    }

    fn row(&self, i: usize) -> &[NodeId] {
        &self.ids[self.off[i] as usize..self.off[i + 1] as usize]
    }

    fn len(&self) -> usize {
        self.off.len() - 1
    }
}

/// An immutable tiered hierarchy of nodes.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    roles: Vec<NodeRole>,
    locations: Vec<Location>,
    parents: Vec<Option<NodeId>>,
    /// CSR child lists, indexed by node id.
    children: Rows,
    /// CSR tier membership; row 0 is the leaf tier (level 1).
    levels: Rows,
}

impl Hierarchy {
    /// Builds a balanced hierarchy: `leaf_count` leaves, then one tier
    /// per entry of `fanouts`, where each leader adopts (up to)
    /// `fanouts[t]` nodes of the tier below. The fan-outs must reduce
    /// the network to a single root (checked — [`SimError::MultiRoot`]
    /// otherwise).
    ///
    /// ```
    /// use snod_engine::Hierarchy;
    /// // The paper's §10.2 setup: 32 leaf streams under 3 leader tiers.
    /// let h = Hierarchy::balanced(32, &[4, 2, 4]).unwrap();
    /// assert_eq!(h.leaves().len(), 32);
    /// assert_eq!(h.level_count(), 4);
    /// assert_eq!(h.node_count(), 32 + 8 + 4 + 1);
    /// ```
    pub fn balanced(leaf_count: usize, fanouts: &[usize]) -> Result<Self, SimError> {
        if leaf_count == 0 {
            return Err(SimError::ZeroSize("leaf count"));
        }
        if fanouts.contains(&0) {
            return Err(SimError::ZeroSize("fan-out"));
        }
        let mut roles = Vec::with_capacity(leaf_count * 2);
        let mut parents: Vec<Option<NodeId>> = Vec::with_capacity(leaf_count * 2);
        let mut children = Rows::new();
        let mut levels = Rows::new();

        let mut current: Vec<NodeId> = (0..leaf_count)
            .map(|i| {
                roles.push(NodeRole::Leaf);
                parents.push(None);
                children.push_empty();
                NodeId(i as u32)
            })
            .collect();
        levels.push(&current);

        for (tier, &fanout) in fanouts.iter().enumerate() {
            let mut next = Vec::with_capacity(current.len().div_ceil(fanout));
            for group in current.chunks(fanout) {
                let leader = NodeId(roles.len() as u32);
                roles.push(NodeRole::Leader {
                    level: (tier + 2) as u8,
                });
                parents.push(None);
                children.push(group);
                for &c in group {
                    parents[c.index()] = Some(leader);
                }
                next.push(leader);
            }
            levels.push(&next);
            current = next;
        }

        let top_tier = levels.row(levels.len() - 1).len();
        if top_tier != 1 {
            return Err(SimError::MultiRoot { top_tier });
        }

        // Leaf placement on a near-square grid; leaders at child centroids.
        let side = (leaf_count as f64).sqrt().ceil() as usize;
        let mut locations = vec![Location { x: 0.0, y: 0.0 }; roles.len()];
        for (i, leaf) in levels.row(0).iter().enumerate() {
            locations[leaf.index()] = Location {
                x: (i % side) as f64 / side.max(1) as f64,
                y: (i / side) as f64 / side.max(1) as f64,
            };
        }
        for level in 1..levels.len() {
            for li in levels.off[level] as usize..levels.off[level + 1] as usize {
                let leader = levels.ids[li];
                let kids = children.row(leader.index());
                let n = kids.len() as f64;
                let (sx, sy) = kids.iter().fold((0.0, 0.0), |(sx, sy), c| {
                    let l = locations[c.index()];
                    (sx + l.x, sy + l.y)
                });
                locations[leader.index()] = Location {
                    x: sx / n,
                    y: sy / n,
                };
            }
        }

        Ok(Self {
            roles,
            locations,
            parents,
            children,
            levels,
        })
    }

    /// A deep balanced hierarchy: `tiers` total levels (counting the
    /// leaf tier) over `leaf_count` leaves, with near-uniform fan-outs
    /// of roughly `leaf_count^(1/(tiers-1))` per tier so the top tier
    /// is a single root. This is the generator behind the 1k/10k/50k
    /// scale benchmarks:
    ///
    /// ```
    /// use snod_engine::Hierarchy;
    /// let h = Hierarchy::deep(10_000, 5).unwrap();
    /// assert_eq!(h.leaves().len(), 10_000);
    /// assert_eq!(h.level_count(), 5);
    /// ```
    pub fn deep(leaf_count: usize, tiers: usize) -> Result<Self, SimError> {
        if leaf_count == 0 {
            return Err(SimError::ZeroSize("leaf count"));
        }
        if tiers == 0 {
            return Err(SimError::ZeroSize("tier count"));
        }
        if tiers == 1 {
            // Only the degenerate single-node network has one tier.
            return if leaf_count == 1 {
                Self::balanced(1, &[])
            } else {
                Err(SimError::MultiRoot {
                    top_tier: leaf_count,
                })
            };
        }
        let leader_tiers = tiers - 1;
        let mut fanouts = Vec::with_capacity(leader_tiers);
        let mut remaining = leaf_count;
        for t in 0..leader_tiers {
            let left = (leader_tiers - t) as f64;
            // `remaining^(1/left)` rounded up always reaches 1 by the
            // top tier; once it does, fan-out 2 chains single leaders
            // upward so the requested depth is exact.
            let f = ((remaining as f64).powf(1.0 / left).ceil() as usize).max(2);
            fanouts.push(f);
            remaining = remaining.div_ceil(f);
        }
        Self::balanced(leaf_count, &fanouts)
    }

    /// A `side × side` leaf grid organised by quad-tree cells (fan-out 4
    /// per tier) until a single root remains — the literal shape of the
    /// paper's Figure 1. `side` is rounded up to a power of two.
    pub fn virtual_grid(side: usize) -> Result<Self, SimError> {
        if side == 0 {
            return Err(SimError::ZeroSize("grid side"));
        }
        let side = side.next_power_of_two();
        let tiers = side.trailing_zeros() as usize; // log2(side) quad tiers
                                                    // Build by explicit quad-tree grouping (chunks() in `balanced`
                                                    // would group linearly, breaking 2-d cell locality).
        let leaf_count = side * side;
        let mut roles = Vec::with_capacity(leaf_count * 2);
        let mut parents: Vec<Option<NodeId>> = Vec::with_capacity(leaf_count * 2);
        let mut children = Rows::new();
        let mut levels = Rows::new();
        let mut locations = Vec::with_capacity(leaf_count * 2);

        // Leaf tier, row-major on the plane.
        let mut grid: Vec<Vec<NodeId>> = Vec::with_capacity(side);
        for y in 0..side {
            let mut row = Vec::with_capacity(side);
            for x in 0..side {
                let id = NodeId(roles.len() as u32);
                roles.push(NodeRole::Leaf);
                parents.push(None);
                children.push_empty();
                locations.push(Location {
                    x: (x as f64 + 0.5) / side as f64,
                    y: (y as f64 + 0.5) / side as f64,
                });
                row.push(id);
            }
            grid.push(row);
        }
        let leaf_row: Vec<NodeId> = grid.iter().flatten().copied().collect();
        levels.push(&leaf_row);

        let mut dim = side;
        for tier in 0..tiers {
            let next_dim = dim / 2;
            let mut next_grid: Vec<Vec<NodeId>> = Vec::with_capacity(next_dim);
            for cy in 0..next_dim {
                let mut row = Vec::with_capacity(next_dim);
                for cx in 0..next_dim {
                    let kids = [
                        grid[2 * cy][2 * cx],
                        grid[2 * cy][2 * cx + 1],
                        grid[2 * cy + 1][2 * cx],
                        grid[2 * cy + 1][2 * cx + 1],
                    ];
                    let leader = NodeId(roles.len() as u32);
                    roles.push(NodeRole::Leader {
                        level: (tier + 2) as u8,
                    });
                    let (sx, sy) = kids.iter().fold((0.0, 0.0), |(sx, sy), c| {
                        let l: Location = locations[c.index()];
                        (sx + l.x, sy + l.y)
                    });
                    locations.push(Location {
                        x: sx / 4.0,
                        y: sy / 4.0,
                    });
                    parents.push(None);
                    children.push(&kids);
                    for &c in &kids {
                        parents[c.index()] = Some(leader);
                    }
                    row.push(leader);
                }
                next_grid.push(row);
            }
            let tier_row: Vec<NodeId> = next_grid.iter().flatten().copied().collect();
            levels.push(&tier_row);
            grid = next_grid;
            dim = next_dim;
        }

        Ok(Self {
            roles,
            locations,
            parents,
            children,
            levels,
        })
    }

    /// Total number of nodes (leaves + leaders).
    pub fn node_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of tiers, counting the leaf tier.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Node ids at tier `level` (1-based; level 1 = leaves).
    pub fn level(&self, level: usize) -> &[NodeId] {
        self.levels.row(level - 1)
    }

    /// All leaf sensors.
    pub fn leaves(&self) -> &[NodeId] {
        self.levels.row(0)
    }

    /// The single node at the highest tier.
    pub fn root(&self) -> NodeId {
        *self
            .levels
            .row(self.levels.len() - 1)
            .first()
            .expect("top tier has a node")
    }

    /// Role of `node`.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.index()]
    }

    /// Tier of `node` (1 = leaf).
    pub fn level_of(&self, node: NodeId) -> u8 {
        self.roles[node.index()].level()
    }

    /// The leader `node` reports to, `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parents[node.index()]
    }

    /// The nodes reporting to `node` (empty for leaves).
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.children.row(node.index())
    }

    /// Location of `node` on the unit square.
    pub fn location(&self, node: NodeId) -> Location {
        self.locations[node.index()]
    }

    /// Leaf sensors in the subtree rooted at `node` (the sensors whose
    /// combined sliding window the leader summarises — paper Section 3).
    pub fn descendant_leaves(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if self.role(n).is_leaf() {
                out.push(n);
            } else {
                stack.extend(self.children(n).iter().copied());
            }
        }
        out.sort();
        out
    }

    /// Validates that `node` exists.
    pub fn check(&self, node: NodeId) -> Result<(), SimError> {
        if node.index() < self.roles.len() {
            Ok(())
        } else {
            Err(SimError::UnknownNode(node))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_paper_setup() {
        let h = Hierarchy::balanced(32, &[4, 2, 4]).unwrap();
        assert_eq!(h.node_count(), 45);
        assert_eq!(h.level(1).len(), 32);
        assert_eq!(h.level(2).len(), 8);
        assert_eq!(h.level(3).len(), 4);
        assert_eq!(h.level(4).len(), 1);
        assert_eq!(h.level_of(h.root()), 4);
    }

    #[test]
    fn balanced_rejects_zero_parameters() {
        assert!(Hierarchy::balanced(0, &[4]).is_err());
        assert!(Hierarchy::balanced(8, &[0]).is_err());
    }

    #[test]
    fn balanced_rejects_fanouts_that_leave_multiple_roots() {
        // 8 leaves under a single fan-out-4 tier leaves 2 top nodes.
        assert!(matches!(
            Hierarchy::balanced(8, &[4]),
            Err(SimError::MultiRoot { top_tier: 2 })
        ));
        // Multiple leaves with no leader tier at all.
        assert!(matches!(
            Hierarchy::balanced(4, &[]),
            Err(SimError::MultiRoot { top_tier: 4 })
        ));
    }

    #[test]
    fn balanced_handles_fanout_product_exceeding_leaf_count() {
        // 5 leaves under fan-outs whose product (8) overshoots: tiers
        // shrink as ceil(n/f) and the shape still reduces to one root.
        let h = Hierarchy::balanced(5, &[4, 2]).unwrap();
        assert_eq!(h.level(1).len(), 5);
        assert_eq!(h.level(2).len(), 2); // ceil(5/4)
        assert_eq!(h.level(3).len(), 1);
        // The second leader adopted the lone leftover leaf.
        let l2 = h.level(2);
        assert_eq!(h.children(l2[0]).len(), 4);
        assert_eq!(h.children(l2[1]).len(), 1);
    }

    #[test]
    fn balanced_degenerate_fanout_one_chains_single_nodes() {
        let h = Hierarchy::balanced(1, &[1, 1]).unwrap();
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.level_count(), 3);
        // A chain: leaf → mid → root, one node per tier.
        for level in 1..=3 {
            assert_eq!(h.level(level).len(), 1);
        }
        let mid = h.level(2)[0];
        assert_eq!(h.parent(h.leaves()[0]), Some(mid));
        assert_eq!(h.parent(mid), Some(h.root()));
        // Fan-out 1 over multiple leaves can never reduce.
        assert!(matches!(
            Hierarchy::balanced(3, &[1, 1]),
            Err(SimError::MultiRoot { top_tier: 3 })
        ));
    }

    #[test]
    fn parent_child_links_are_consistent() {
        let h = Hierarchy::balanced(32, &[4, 2, 4]).unwrap();
        for level in 1..=h.level_count() {
            for &n in h.level(level) {
                if let Some(p) = h.parent(n) {
                    assert!(h.children(p).contains(&n));
                    assert_eq!(h.level_of(p), h.level_of(n) + 1);
                } else {
                    assert_eq!(n, h.root());
                }
            }
        }
    }

    #[test]
    fn every_leaf_reaches_the_root() {
        let h = Hierarchy::balanced(32, &[4, 2, 4]).unwrap();
        for &leaf in h.leaves() {
            let mut n = leaf;
            let mut hops = 0;
            while let Some(p) = h.parent(n) {
                n = p;
                hops += 1;
                assert!(hops <= h.level_count());
            }
            assert_eq!(n, h.root());
        }
    }

    #[test]
    fn descendant_leaves_partition_the_network() {
        let h = Hierarchy::balanced(32, &[4, 2, 4]).unwrap();
        // The root covers every leaf.
        assert_eq!(h.descendant_leaves(h.root()).len(), 32);
        // Level-2 leaders partition the leaves.
        let mut seen = Vec::new();
        for &l in h.level(2) {
            seen.extend(h.descendant_leaves(l));
        }
        seen.sort();
        assert_eq!(seen, h.leaves());
    }

    #[test]
    fn deep_hits_requested_tier_count_at_scale() {
        for (leaves, tiers) in [(1_000, 4), (10_000, 5), (50_000, 5)] {
            let h = Hierarchy::deep(leaves, tiers).unwrap();
            assert_eq!(h.leaves().len(), leaves, "{leaves}/{tiers}");
            assert_eq!(h.level_count(), tiers, "{leaves}/{tiers}");
            assert_eq!(h.level(tiers).len(), 1);
            // Structure is sound: every leaf climbs to the root in
            // exactly tiers-1 hops, and tier widths strictly shrink.
            let mut n = h.leaves()[0];
            let mut hops = 0;
            while let Some(p) = h.parent(n) {
                n = p;
                hops += 1;
            }
            assert_eq!(hops, tiers - 1);
            for t in 1..tiers {
                assert!(h.level(t + 1).len() < h.level(t).len().max(2));
            }
        }
    }

    #[test]
    fn deep_degenerate_shapes() {
        // Few leaves under a deep request: fan-out-2 chains pad the
        // depth so the tier count is still exact.
        let h = Hierarchy::deep(2, 5).unwrap();
        assert_eq!(h.level_count(), 5);
        assert_eq!(h.leaves().len(), 2);
        let h = Hierarchy::deep(1, 1).unwrap();
        assert_eq!(h.node_count(), 1);
        assert!(Hierarchy::deep(0, 4).is_err());
        assert!(Hierarchy::deep(4, 0).is_err());
        assert!(matches!(
            Hierarchy::deep(4, 1),
            Err(SimError::MultiRoot { top_tier: 4 })
        ));
    }

    #[test]
    fn virtual_grid_is_a_quad_tree() {
        let h = Hierarchy::virtual_grid(4).unwrap();
        assert_eq!(h.leaves().len(), 16);
        assert_eq!(h.level_count(), 3); // 16 → 4 → 1
        assert_eq!(h.level(2).len(), 4);
        assert_eq!(h.level(3).len(), 1);
        for &l in h.level(2) {
            assert_eq!(h.children(l).len(), 4);
            // children of a quad cell are mutually close on the plane
            let locs: Vec<_> = h.children(l).iter().map(|&c| h.location(c)).collect();
            for a in &locs {
                for b in &locs {
                    assert!(a.distance(b) < 0.5);
                }
            }
        }
    }

    #[test]
    fn virtual_grid_rounds_to_power_of_two() {
        let h = Hierarchy::virtual_grid(3).unwrap();
        assert_eq!(h.leaves().len(), 16);
    }

    #[test]
    fn leader_location_is_child_centroid() {
        let h = Hierarchy::virtual_grid(2).unwrap();
        let root = h.root();
        let loc = h.location(root);
        assert!((loc.x - 0.5).abs() < 1e-12);
        assert!((loc.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn check_rejects_unknown_nodes() {
        let h = Hierarchy::balanced(4, &[4]).unwrap();
        assert!(h.check(NodeId(0)).is_ok());
        assert!(h.check(NodeId(99)).is_err());
    }

    #[test]
    fn single_leaf_degenerate_hierarchy() {
        let h = Hierarchy::balanced(1, &[]).unwrap();
        assert_eq!(h.node_count(), 1);
        assert_eq!(h.root(), NodeId(0));
        assert!(h.parent(NodeId(0)).is_none());
    }
}
