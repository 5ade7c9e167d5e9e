//! Compiled longest-prefix match: a flat 8-bit-stride multibit trie.
//!
//! `RouteTable::lookup_route` is a first-match scan of the ordered route
//! list — perfect as an executable oracle, linear in table size on every
//! packet. Once RIP44 fills a backbone gateway with ~1000 learned
//! subnets (E18), that scan is the per-packet cost the ES-IS/CLNP
//! kernel-module papers spend their implementation sections on. This
//! module compiles the ordered table into the DIR-24-8 idea flattened
//! into uniform strides: one `Vec<u32>` of 256-slot nodes, walked with
//! zero allocations and at most four dependent memory touches per
//! lookup, whatever the table size.
//!
//! # Encoding
//!
//! Every node is 256 consecutive `u32` slots indexed by one address
//! byte. A slot holds `0` (no route), `route_index + 1` (a leaf: the
//! winning route in the table's preference order), or `CHILD | node_id`
//! (descend). Node 0 is the root, indexed by the top byte.
//!
//! # Build
//!
//! Routes are inserted in *reverse* preference order (shortest prefix
//! first; among equal lengths, least preferred first), each overwriting
//! its covered slot range at its natural level, so the last write — the
//! most preferred route — wins, reproducing exactly the first-match
//! semantics of the ordered linear scan. Descending past a leaf pushes
//! it down into a freshly allocated child (all 256 slots seeded with the
//! covering leaf). Because children are only ever created by *longer*
//! prefixes, which sort later in the build, a route's own target slots
//! never hold a child when it is written — asserted in debug builds.
//!
//! # Invalidation
//!
//! The structure stamps the [`RouteTable`](crate::route::RouteTable)
//! generation it was built from; any table mutation bumps the generation
//! and the next fast lookup rebuilds. Tables at or below
//! [`Lpm::LINEAR_CUTOFF`] routes stay in linear mode: no nodes, no build
//! cost — the two-route host stacks that dominate the city worlds never
//! pay for the machinery.

use crate::route::Route;

/// Slot tag: the low 31 bits are a node id, not a route index.
const CHILD: u32 = 1 << 31;

/// The compiled trie. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Lpm {
    /// 256-slot nodes, concatenated; node 0 is the root. Empty in linear
    /// mode.
    nodes: Vec<u32>,
    /// Route-table generation this build reflects.
    built_gen: u64,
    /// False until the first build (generation 0 is a legal table state,
    /// so staleness cannot be inferred from the stamp alone).
    built: bool,
    /// Table small enough to scan; `nodes` is unused.
    linear: bool,
}

impl Lpm {
    /// Tables at or below this many routes are scanned, not compiled.
    /// Hosts carry 2–4 routes (connected + default); only gateways with
    /// learned backbones cross this line.
    pub const LINEAR_CUTOFF: usize = 8;

    /// True when the structure does not reflect `generation`.
    #[inline]
    pub fn stale(&self, generation: u64) -> bool {
        !self.built || self.built_gen != generation
    }

    /// True when lookups should scan the route list directly.
    pub(crate) fn is_linear(&self) -> bool {
        self.linear
    }

    /// Number of 256-slot nodes held.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len() / 256
    }

    /// Recompiles from `routes` (in table preference order, most
    /// preferred first), stamping `generation`.
    pub(crate) fn rebuild(&mut self, routes: &[Route], generation: u64) {
        self.built = true;
        self.built_gen = generation;
        self.linear = routes.len() <= Self::LINEAR_CUTOFF;
        self.nodes.clear();
        if self.linear {
            return;
        }
        self.nodes.resize(256, 0);
        // Reverse preference order: the table sorts longest prefix first,
        // so iterating backwards inserts shortest-first, and among equal
        // lengths least-preferred-first — every overwrite is by a route
        // the linear scan would have preferred.
        for (idx, route) in routes.iter().enumerate().rev() {
            self.insert(route, idx as u32);
        }
    }

    fn insert(&mut self, route: &Route, idx: u32) {
        let addr = u32::from(route.prefix.addr);
        let len = usize::from(route.prefix.len);
        // The node level whose byte the prefix ends in: /1–/8 root (0),
        // /9–/16 level 1, …; the default route covers the whole root.
        let level = len.saturating_sub(1) / 8;
        let mut node = 0usize;
        for l in 0..level {
            let byte = (addr >> (24 - 8 * l)) & 0xff;
            let v = self.slot(node, byte);
            node = if v & CHILD != 0 {
                (v & !CHILD) as usize
            } else {
                // Push-down: the covering leaf (or empty) seeds every
                // slot of the new child.
                let id = self.nodes.len() / 256;
                self.nodes.resize(self.nodes.len() + 256, v);
                if let Some(slot) = self.nodes.get_mut(node * 256 + byte as usize) {
                    *slot = CHILD | id as u32;
                }
                id
            };
        }
        let base = ((addr >> (24 - 8 * level)) & 0xff) as usize;
        // Free bits within this node's byte: a /12 at level 1 spans
        // 2^(16-12) = 16 slots; the default route spans all 256.
        let span = 1usize << (8 * (level + 1) - len.max(level * 8)).min(8);
        let first = node * 256 + base;
        for slot in self.nodes.get_mut(first..first + span).unwrap_or_default() {
            debug_assert_eq!(*slot & CHILD, 0, "target slots never hold children");
            *slot = idx + 1;
        }
    }

    /// Slot `byte` of node `node`; `0` (no route) past the end, which a
    /// node id the build handed out never reaches.
    #[inline]
    fn slot(&self, node: usize, byte: u32) -> u32 {
        self.nodes
            .get(node * 256 + byte as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The winning route's table index for `ip`, or `None`. At most four
    /// slot reads; no allocation, no branch on table size.
    #[inline]
    pub fn walk(&self, ip: u32) -> Option<usize> {
        let mut node = 0usize;
        let mut shift = 24u32;
        loop {
            let v = self.slot(node, (ip >> shift) & 0xff);
            if v & CHILD == 0 {
                // 0 is "no route"; otherwise a route index + 1.
                return (v != 0).then(|| (v - 1) as usize);
            }
            node = (v & !CHILD) as usize;
            shift -= 8;
        }
    }

    /// Number of nodes touched resolving `ip` (1–4). E18's shape table.
    pub(crate) fn walk_depth(&self, ip: u32) -> usize {
        let mut node = 0usize;
        let mut shift = 24u32;
        let mut depth = 1;
        loop {
            let v = self.slot(node, (ip >> shift) & 0xff);
            if v & CHILD == 0 {
                return depth;
            }
            node = (v & !CHILD) as usize;
            shift -= 8;
            depth += 1;
        }
    }
}
