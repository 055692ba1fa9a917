//! The circuit-switched mesh: atomic path claims, routing, utilization.

use crate::coord::{Coord, Path};
use crate::defect::DefectMap;
use crate::topology::{DimOrder, Topology};

/// Identifier of a path owner (one braid or message).
pub type ClaimId = u32;

const FREE: ClaimId = ClaimId::MAX;

/// Reserved owner marking fabrication defects ([`Mesh::with_defects`]):
/// dead routers and links are claimed by this sentinel forever, so every
/// claim walk, probe, and adaptive search treats them as permanently
/// occupied without any defect-specific logic.
const DEFECT: ClaimId = ClaimId::MAX - 1;

/// Reusable buffers for [`Mesh::route_adaptive_into`].
///
/// The adaptive BFS needs per-node predecessor and visited arrays plus a
/// frontier queue; allocating them per call dominates the cost of short
/// searches. One `RouteScratch` amortizes those allocations across every
/// adaptive routing attempt of a scheduling run. Visited state is
/// invalidated by a generation stamp, so reuse never requires clearing
/// the arrays, and one scratch may serve meshes of any size in any
/// order (the buffers only ever grow).
///
/// A scratch carries no state from one search into the next: the
/// route a search returns depends only on the mesh, the endpoints and
/// the owner, never on which searches the scratch served before (see
/// the visit-order contract on [`Mesh::route_adaptive_into`]).
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    /// Packed (`x | y << 16`) BFS predecessor per node index (valid
    /// only when stamped).
    prev: Vec<u32>,
    /// Generation stamp per node index; equal to `stamp` means visited.
    seen: Vec<u64>,
    /// Current search generation.
    stamp: u64,
    /// BFS frontier of packed (`x | y << 16`) router coordinates, in
    /// discovery order, one slot per node (a router joins at most
    /// once); the search appends through a tail index and reads
    /// through a head index instead of popping.
    frontier: Vec<u32>,
}

impl RouteScratch {
    /// Creates an empty scratch; buffers grow to the mesh size on first
    /// use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    fn begin(&mut self, nodes: usize) {
        if self.prev.len() < nodes {
            self.prev.resize(nodes, u32::MAX);
            self.seen.resize(nodes, 0);
        }
        self.stamp += 1;
        if self.frontier.len() < nodes {
            self.frontier.resize(nodes, 0);
        }
    }
}

/// Largest mesh side, in routers. The adaptive BFS packs a router as
/// `x | y << 16` in one `u32`, so both coordinates must fit in 16 bits.
const MAX_SIDE: u32 = 1 << 16;

/// Packs router `(x, y)` as `x | y << 16` (see [`MAX_SIDE`]).
fn pack(c: Coord) -> u32 {
    c.x | c.y << 16
}

/// Inverse of [`pack`].
fn unpack(p: u32) -> Coord {
    Coord::new(p & 0xFFFF, p >> 16)
}

/// Claimed-interval summary of one router row or column.
///
/// Part of the mesh's occupancy index: every row and every column keeps
/// the number of claimed routers on it and the interval `[min, max]`
/// that bounds them. The summaries are updated incrementally on the
/// claim and release paths and power the conservative
/// `*_certainly_blocked` congestion probes.
#[derive(Clone, Copy, Debug, Default)]
struct LineSummary {
    /// Claimed routers on this line.
    count: u32,
    /// Smallest claimed position along the line (valid when `count > 0`).
    min: u32,
    /// Largest claimed position along the line (valid when `count > 0`).
    max: u32,
}

impl LineSummary {
    /// `true` if the summary proves some claimed router lies in
    /// `[lo, hi]` on a line of `len` routers. Never returns `true`
    /// speculatively: a `false` only means the summary cannot tell.
    fn certainly_claims_in(&self, lo: u32, hi: u32, len: u32) -> bool {
        debug_assert!(
            lo <= hi && hi < len,
            "span [{lo}, {hi}] not on a line of {len}"
        );
        if self.count == 0 {
            return false;
        }
        if (self.min >= lo && self.min <= hi) || (self.max >= lo && self.max <= hi) {
            return true;
        }
        // Pigeonhole: more claimed routers than positions outside the
        // span means at least one must sit inside it.
        self.count > len - (hi - lo + 1)
    }

    /// Removes the claimed position `pos` from the summary. When `pos`
    /// carried the line's `min` or `max`, the boundary walks inward via
    /// `claimed_at` to the next claimed position — O(gap), and O(1)
    /// amortized when a path's contiguous run is released node by node.
    fn release(&mut self, pos: u32, claimed_at: impl Fn(u32) -> bool) {
        self.count -= 1;
        if self.count > 0 {
            if pos == self.min {
                self.min = (self.min + 1..=self.max)
                    .find(|&p| claimed_at(p))
                    .expect("count > 0");
            } else if pos == self.max {
                self.max = (self.min..self.max)
                    .rev()
                    .find(|&p| claimed_at(p))
                    .expect("count > 0");
            }
        }
    }
}

/// A 2D circuit-switched mesh of routers and links.
///
/// This models the braid fabric of the paper's Section 6.1: a braid is a
/// *message* that claims an entire route — every link **and** every
/// router on it — atomically in one cycle, holds it while syndrome
/// measurements stabilize, and releases it when it closes. Because two
/// defects cannot coexist nearby, there are no buffers and no virtual
/// channels: a route is either entirely free or unusable
/// ("braids differ from conventional messages": (a)-(d) in the paper).
///
/// The mesh also keeps the utilization statistics reported in Figure 6
/// (red curve): call [`Mesh::tick`] once per simulated cycle.
///
/// # Examples
///
/// ```
/// use scq_mesh::{Coord, Mesh};
///
/// let mut mesh = Mesh::new(4, 4);
/// let path = mesh.route_xy(Coord::new(0, 0), Coord::new(3, 2));
/// assert!(mesh.try_claim(&path, 7));
/// // The same corridor is now unavailable to a second braid.
/// assert!(!mesh.try_claim(&path, 8));
/// mesh.release(&path, 7);
/// assert!(mesh.try_claim(&path, 8));
/// ```
#[derive(Clone, Debug)]
pub struct Mesh {
    topo: Topology,
    /// Horizontal link (x, y) connects (x, y) and (x+1, y); `(width-1) * height`.
    h_links: Vec<ClaimId>,
    /// Vertical link (x, y) connects (x, y) and (x, y+1); `width * (height-1)`.
    v_links: Vec<ClaimId>,
    /// Router occupancy.
    nodes: Vec<ClaimId>,
    busy_links: usize,
    /// Accumulated busy-link-cycles for utilization.
    busy_link_cycles: u64,
    ticks: u64,
    /// Occupancy index: claimed-interval summary per router row
    /// (indexed by `y`, positions along the line are `x`).
    rows: Vec<LineSummary>,
    /// Occupancy index: claimed-interval summary per router column
    /// (indexed by `x`, positions along the line are `y`).
    cols: Vec<LineSummary>,
    /// Whether the occupancy index is live. The index starts dormant —
    /// uncontended runs never fail a claim, so they never pay its
    /// upkeep — and is built (one O(nodes) sweep) on the first claim
    /// failure, after which claim/release maintain it incrementally.
    index_active: bool,
}

impl Mesh {
    /// Creates an idle `width x height` router mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or larger than 65536 routers
    /// (the adaptive BFS packs a router's coordinates into 16 bits
    /// each).
    pub fn new(width: u32, height: u32) -> Self {
        let topo = Topology::new(width, height);
        assert!(
            width <= MAX_SIDE && height <= MAX_SIDE,
            "mesh dimensions must be at most {MAX_SIDE} routers per side, got {width}x{height}"
        );
        Mesh {
            topo,
            h_links: vec![FREE; topo.num_h_links()],
            v_links: vec![FREE; topo.num_v_links()],
            nodes: vec![FREE; topo.num_nodes()],
            busy_links: 0,
            busy_link_cycles: 0,
            ticks: 0,
            rows: vec![LineSummary::default(); topo.height() as usize],
            cols: vec![LineSummary::default(); topo.width() as usize],
            index_active: false,
        }
    }

    /// Creates a `width x height` router mesh whose defective resources
    /// (per `defects`) are permanently claimed by the reserved `DEFECT`
    /// sentinel. Claims, probes, and adaptive routing all treat them as
    /// occupied forever; they are never released, and they do not count
    /// toward [`Mesh::busy_links`] or [`Mesh::utilization`], which stay
    /// traffic-only. With an empty map this is exactly [`Mesh::new`].
    ///
    /// Flaky links are a transient-fault concept of the packet
    /// [`Fabric`](crate::Fabric); the circuit-switched mesh ignores
    /// them (a braid holds its route for a full error-correction cycle,
    /// which absorbs transient link faults by construction).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or larger than 65536 routers
    /// (as [`Mesh::new`]), or the map's topology is not `width x height`.
    pub fn with_defects(width: u32, height: u32, defects: &DefectMap) -> Self {
        let mut mesh = Mesh::new(width, height);
        let map_topo = defects.topology();
        assert!(
            map_topo.width() == width && map_topo.height() == height,
            "defect map is {}x{} but the mesh is {width}x{height}",
            map_topo.width(),
            map_topo.height()
        );
        for i in 0..mesh.nodes.len() {
            if defects.node_dead_idx(i) {
                mesh.nodes[i] = DEFECT;
            }
        }
        let num_h = mesh.topo.num_h_links();
        for i in 0..mesh.h_links.len() {
            if defects.link_dead_idx(i) {
                mesh.h_links[i] = DEFECT;
            }
        }
        for i in 0..mesh.v_links.len() {
            if defects.link_dead_idx(num_h + i) {
                mesh.v_links[i] = DEFECT;
            }
        }
        mesh
    }

    /// Returns `true` if the router at `c` is a fabrication defect
    /// (dead per the [`DefectMap`] this mesh was built with).
    ///
    /// # Panics
    ///
    /// Panics if `c` is off the mesh.
    pub fn node_defective(&self, c: Coord) -> bool {
        assert!(
            self.contains(c),
            "node {c} outside {}x{} mesh",
            self.width(),
            self.height()
        );
        self.nodes[self.node_index(c)] == DEFECT
    }

    /// Whether the occupancy index is currently live. Dormant until the
    /// first claim failure (see [`Mesh::ensure_occupancy_index`]).
    pub fn occupancy_index_active(&self) -> bool {
        self.index_active
    }

    /// Activates the occupancy index if it is still dormant, rebuilding
    /// the per-row/column claimed-interval summaries from the current
    /// node occupancy in one O(nodes) sweep.
    ///
    /// The mesh calls this itself on the first failed claim — the
    /// earliest evidence of contention, which is the only regime where
    /// the index's `*_certainly_blocked` probes earn their upkeep.
    /// Callers that know a run will be contended may invoke it up front.
    pub fn ensure_occupancy_index(&mut self) {
        if self.index_active {
            return;
        }
        self.index_active = true;
        let (w, h) = (self.topo.width(), self.topo.height());
        for y in 0..h {
            for x in 0..w {
                if self.nodes[(y * w + x) as usize] != FREE {
                    self.index_claim(Coord::new(x, y));
                }
            }
        }
    }

    /// The underlying geometry, shared with the packet-style
    /// [`Fabric`](crate::Fabric) layer.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Mesh width in routers.
    pub fn width(&self) -> u32 {
        self.topo.width()
    }

    /// Mesh height in routers.
    pub fn height(&self) -> u32 {
        self.topo.height()
    }

    /// Total number of links.
    pub fn num_links(&self) -> usize {
        self.topo.num_links()
    }

    /// Number of currently claimed links.
    pub fn busy_links(&self) -> usize {
        self.busy_links
    }

    /// Returns `true` if `c` lies on the mesh.
    pub fn contains(&self, c: Coord) -> bool {
        self.topo.contains(c)
    }

    fn h_index(&self, x: u32, y: u32) -> usize {
        self.topo.h_index(x, y)
    }

    fn v_index(&self, x: u32, y: u32) -> usize {
        self.topo.v_index(x, y)
    }

    fn node_index(&self, c: Coord) -> usize {
        self.topo.node_index(c)
    }

    fn link_slot(&mut self, a: Coord, b: Coord) -> &mut ClaimId {
        debug_assert!(a.is_adjacent(b), "link endpoints must be adjacent");
        if a.y == b.y {
            let x = a.x.min(b.x);
            let i = self.h_index(x, a.y);
            &mut self.h_links[i]
        } else {
            let y = a.y.min(b.y);
            let i = self.v_index(a.x, y);
            &mut self.v_links[i]
        }
    }

    fn link_owner(&self, a: Coord, b: Coord) -> ClaimId {
        if a.y == b.y {
            self.h_links[self.h_index(a.x.min(b.x), a.y)]
        } else {
            self.v_links[self.v_index(a.x, a.y.min(b.y))]
        }
    }

    /// Marks node `c` claimed in place, updating the occupancy index
    /// when it is live. Idempotent re-claims (node already owned) touch
    /// nothing.
    fn set_node_claimed(&mut self, c: Coord, owner: ClaimId) {
        let i = self.node_index(c);
        if self.nodes[i] != FREE {
            debug_assert_eq!(self.nodes[i], owner, "claim over a foreign node");
            return;
        }
        self.nodes[i] = owner;
        if self.index_active {
            self.index_claim(c);
        }
    }

    /// Records node `c` in the row/column claimed-interval summaries.
    /// Only called while the index is live (or while rebuilding it).
    fn index_claim(&mut self, c: Coord) {
        let row = &mut self.rows[c.y as usize];
        if row.count == 0 {
            (row.min, row.max) = (c.x, c.x);
        } else {
            row.min = row.min.min(c.x);
            row.max = row.max.max(c.x);
        }
        row.count += 1;
        let col = &mut self.cols[c.x as usize];
        if col.count == 0 {
            (col.min, col.max) = (c.y, c.y);
        } else {
            col.min = col.min.min(c.y);
            col.max = col.max.max(c.y);
        }
        col.count += 1;
    }

    /// Marks node `c` free, updating the occupancy index when it is
    /// live (see [`LineSummary::release`]).
    fn set_node_free(&mut self, c: Coord) {
        let i = self.node_index(c);
        debug_assert_ne!(self.nodes[i], FREE, "releasing a free node");
        self.nodes[i] = FREE;
        if !self.index_active {
            return;
        }
        let w = self.topo.width();
        let Self {
            nodes, rows, cols, ..
        } = self;
        let base = (c.y * w) as usize;
        rows[c.y as usize].release(c.x, |x| nodes[base + x as usize] != FREE);
        cols[c.x as usize].release(c.y, |y| nodes[(y * w + c.x) as usize] != FREE);
    }

    /// Returns `true` if every node and link of `path` is unclaimed (or
    /// already claimed by `owner`, making re-claims idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the path leaves the mesh.
    pub fn is_path_free(&self, path: &Path, owner: ClaimId) -> bool {
        for &n in path.nodes() {
            assert!(
                self.contains(n),
                "path node {n} outside {}x{} mesh",
                self.width(),
                self.height()
            );
            let o = self.nodes[self.node_index(n)];
            if o != FREE && o != owner {
                return false;
            }
        }
        for (a, b) in path.links() {
            let o = self.link_owner(a, b);
            if o != FREE && o != owner {
                return false;
            }
        }
        true
    }

    /// Atomically claims every node and link of `path` for `owner`.
    ///
    /// Returns `false` (claiming nothing) if any resource is held by a
    /// different owner — the braid cannot open this cycle.
    ///
    /// # Panics
    ///
    /// Panics if the path leaves the mesh or `owner` is one of the
    /// reserved sentinels (`ClaimId::MAX` is reserved for free slots,
    /// `ClaimId::MAX - 1` marks defects).
    pub fn try_claim(&mut self, path: &Path, owner: ClaimId) -> bool {
        assert!(
            owner < DEFECT,
            "ClaimId::MAX is reserved (and ClaimId::MAX - 1 marks defects)"
        );
        if !self.is_path_free(path, owner) {
            // First evidence of contention: from here on the occupancy
            // index earns its upkeep, so bring it live.
            self.ensure_occupancy_index();
            return false;
        }
        for &n in path.nodes() {
            self.set_node_claimed(n, owner);
        }
        for (a, b) in path.links() {
            let slot = self.link_slot(a, b);
            if *slot == FREE {
                *slot = owner;
                self.busy_links += 1;
            }
        }
        true
    }

    /// Releases a previously claimed path.
    ///
    /// # Panics
    ///
    /// Panics if any resource on the path is not held by `owner` —
    /// releasing someone else's braid is always a scheduler bug.
    pub fn release(&mut self, path: &Path, owner: ClaimId) {
        for &n in path.nodes() {
            let i = self.node_index(n);
            assert_eq!(self.nodes[i], owner, "node {n} not owned by {owner}");
            self.set_node_free(n);
        }
        for (a, b) in path.links() {
            let slot = self.link_slot(a, b);
            assert_eq!(*slot, owner, "link not owned by {owner}");
            *slot = FREE;
            self.busy_links -= 1;
        }
    }

    /// Returns `true` if the router at `c` is currently claimed.
    ///
    /// # Panics
    ///
    /// Panics if `c` is off the mesh.
    pub fn node_claimed(&self, c: Coord) -> bool {
        assert!(
            self.contains(c),
            "node {c} outside {}x{} mesh",
            self.width(),
            self.height()
        );
        self.nodes[self.node_index(c)] != FREE
    }

    /// Claimed positions along row `y` — the dormant-index fallback
    /// scan behind the public line accessors.
    fn row_claimed_positions(&self, y: u32) -> impl DoubleEndedIterator<Item = u32> + '_ {
        (0..self.width()).filter(move |&x| self.node_claimed(Coord::new(x, y)))
    }

    /// Claimed positions along column `x`; see
    /// [`Mesh::row_claimed_positions`].
    fn col_claimed_positions(&self, x: u32) -> impl DoubleEndedIterator<Item = u32> + '_ {
        (0..self.height()).filter(move |&y| self.node_claimed(Coord::new(x, y)))
    }

    /// Bounding `[min, max]` of a claimed-position scan, or `None` when
    /// the line is idle.
    fn scan_interval(mut positions: impl DoubleEndedIterator<Item = u32>) -> Option<(u32, u32)> {
        let lo = positions.next()?;
        Some((lo, positions.next_back().unwrap_or(lo)))
    }

    /// Number of claimed routers on row `y` — O(1) from the occupancy
    /// index when it is live, one O(width) scan while it is dormant.
    ///
    /// # Panics
    ///
    /// Panics if `y` is outside the mesh.
    pub fn row_claimed_count(&self, y: u32) -> u32 {
        assert!(
            y < self.height(),
            "row {y} outside height {}",
            self.height()
        );
        if !self.index_active {
            return self.row_claimed_positions(y).count() as u32;
        }
        self.rows[y as usize].count
    }

    /// Number of claimed routers on column `x` — O(1) from the
    /// occupancy index when it is live, one O(height) scan while it is
    /// dormant.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the mesh.
    pub fn col_claimed_count(&self, x: u32) -> u32 {
        assert!(
            x < self.width(),
            "column {x} outside width {}",
            self.width()
        );
        if !self.index_active {
            return self.col_claimed_positions(x).count() as u32;
        }
        self.cols[x as usize].count
    }

    /// The `[min, max]` x-interval bounding row `y`'s claimed routers,
    /// or `None` when the row is idle. O(1) from the occupancy index
    /// when it is live, one O(width) scan while it is dormant.
    ///
    /// # Panics
    ///
    /// Panics if `y` is outside the mesh.
    pub fn row_claimed_interval(&self, y: u32) -> Option<(u32, u32)> {
        assert!(
            y < self.height(),
            "row {y} outside height {}",
            self.height()
        );
        if !self.index_active {
            return Self::scan_interval(self.row_claimed_positions(y));
        }
        let row = &self.rows[y as usize];
        (row.count > 0).then_some((row.min, row.max))
    }

    /// The `[min, max]` y-interval bounding column `x`'s claimed
    /// routers, or `None` when the column is idle. O(1) from the
    /// occupancy index when it is live, one O(height) scan while it is
    /// dormant.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the mesh.
    pub fn col_claimed_interval(&self, x: u32) -> Option<(u32, u32)> {
        assert!(
            x < self.width(),
            "column {x} outside width {}",
            self.width()
        );
        if !self.index_active {
            return Self::scan_interval(self.col_claimed_positions(x));
        }
        let col = &self.cols[x as usize];
        (col.count > 0).then_some((col.min, col.max))
    }

    /// Conservative congestion probe: `true` proves the dimension-ordered
    /// X-then-Y walk `src -> dst` cannot be claimed *by a claimant that
    /// currently holds no mesh resources* — some router on the walk is
    /// certainly claimed. `false` promises nothing.
    ///
    /// The probe reads only the per-line claimed-interval summaries of
    /// row `src.y` and column `dst.x` (O(1)), never the walk itself. It
    /// is exactly conservative: whenever it returns `true`,
    /// [`Mesh::claim_route_xy_into`] would return `false` for any owner
    /// holding nothing, because a claimed link always comes with its
    /// claimed endpoint routers.
    ///
    /// While the occupancy index is dormant (no claim has failed yet —
    /// see [`Mesh::ensure_occupancy_index`]) only the exact endpoint
    /// checks can fire; the corridor proofs need the live summaries.
    /// That weakens the verdict, never its soundness.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn xy_certainly_blocked(&self, src: Coord, dst: Coord) -> bool {
        assert!(
            self.contains(src) && self.contains(dst),
            "endpoints must be on the mesh"
        );
        if self.node_claimed(src) || self.node_claimed(dst) {
            return true;
        }
        let (x_lo, x_hi) = (src.x.min(dst.x), src.x.max(dst.x));
        let (y_lo, y_hi) = (src.y.min(dst.y), src.y.max(dst.y));
        self.rows[src.y as usize].certainly_claims_in(x_lo, x_hi, self.width())
            || self.cols[dst.x as usize].certainly_claims_in(y_lo, y_hi, self.height())
    }

    /// Y-then-X counterpart of [`Mesh::xy_certainly_blocked`]: probes
    /// column `src.x` and row `dst.y`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn yx_certainly_blocked(&self, src: Coord, dst: Coord) -> bool {
        // The Y-then-X walk src -> dst traverses column src.x then row
        // dst.y — exactly the X-then-Y walk dst -> src.
        self.xy_certainly_blocked(dst, src)
    }

    /// Conservative congestion probe for *any* route: `true` proves no
    /// path whatsoever — dimension-ordered or adaptive — can connect
    /// `src` and `dst` for a claimant that currently holds no mesh
    /// resources. Either an endpoint router is claimed, or a fully
    /// claimed row or column strictly between the endpoints separates
    /// them (every unit-step path must cross it on a claimed router).
    ///
    /// `false` promises nothing; [`Mesh::route_adaptive_into`] may still
    /// fail. While the occupancy index is dormant, only the endpoint
    /// and enclosure checks can fire (see [`Mesh::xy_certainly_blocked`]).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_certainly_blocked(&self, src: Coord, dst: Coord) -> bool {
        if self.node_claimed(src) || self.node_claimed(dst) {
            return true;
        }
        if src != dst && (self.endpoint_enclosed(src) || self.endpoint_enclosed(dst)) {
            return true;
        }
        let (y_lo, y_hi) = (src.y.min(dst.y), src.y.max(dst.y));
        if (y_lo + 1..y_hi).any(|y| self.rows[y as usize].count == self.width()) {
            return true;
        }
        let (x_lo, x_hi) = (src.x.min(dst.x), src.x.max(dst.x));
        (x_lo + 1..x_hi).any(|x| self.cols[x as usize].count == self.height())
    }

    /// `true` when every exit of router `c` is shut — each neighbor is
    /// claimed or the connecting link is. A free route of length >= 1
    /// must leave through one of them, so an enclosed endpoint is
    /// provably unroutable (the common local-congestion failure).
    fn endpoint_enclosed(&self, c: Coord) -> bool {
        let exit_open =
            |n: Coord| self.nodes[self.node_index(n)] == FREE && self.link_owner(c, n) == FREE;
        !((c.x + 1 < self.width() && exit_open(Coord::new(c.x + 1, c.y)))
            || (c.x > 0 && exit_open(Coord::new(c.x - 1, c.y)))
            || (c.y + 1 < self.height() && exit_open(Coord::new(c.x, c.y + 1)))
            || (c.y > 0 && exit_open(Coord::new(c.x, c.y - 1))))
    }

    /// Dimension-ordered (X then Y) route between two routers.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_xy(&self, src: Coord, dst: Coord) -> Path {
        let mut out = Path::empty();
        self.route_xy_into(src, dst, &mut out);
        out
    }

    /// Like [`Mesh::route_xy`], writing the route into `out` instead of
    /// allocating — the scratch-buffer variant for hot loops.
    ///
    /// # Panics
    ///
    /// As [`Mesh::route_xy`].
    pub fn route_xy_into(&self, src: Coord, dst: Coord, out: &mut Path) {
        self.topo
            .route_dim_ordered_into(src, dst, DimOrder::XThenY, out);
    }

    /// Dimension-ordered (Y then X) route between two routers.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_yx(&self, src: Coord, dst: Coord) -> Path {
        let mut out = Path::empty();
        self.route_yx_into(src, dst, &mut out);
        out
    }

    /// Like [`Mesh::route_yx`], writing the route into `out` instead of
    /// allocating.
    ///
    /// # Panics
    ///
    /// As [`Mesh::route_yx`].
    pub fn route_yx_into(&self, src: Coord, dst: Coord, out: &mut Path) {
        self.topo
            .route_dim_ordered_into(src, dst, DimOrder::YThenX, out);
    }

    fn claim_route_dim_ordered_into(
        &mut self,
        src: Coord,
        dst: Coord,
        order: DimOrder,
        owner: ClaimId,
        out: &mut Path,
    ) -> bool {
        assert!(
            self.contains(src) && self.contains(dst),
            "endpoints must be on the mesh"
        );
        assert!(
            owner < DEFECT,
            "ClaimId::MAX is reserved (and ClaimId::MAX - 1 marks defects)"
        );
        // Pass 1: availability check in place, touching nothing.
        let mut last: Option<Coord> = None;
        let free = Topology::walk_dim_ordered(src, dst, order, |c| {
            let node_owner = self.nodes[self.node_index(c)];
            if node_owner != FREE && node_owner != owner {
                return false;
            }
            if let Some(prev) = last {
                let link_owner = self.link_owner(prev, c);
                if link_owner != FREE && link_owner != owner {
                    return false;
                }
            }
            last = Some(c);
            true
        });
        if !free {
            self.ensure_occupancy_index();
            return false;
        }
        // Pass 2: claim every resource and materialize the path.
        let nodes_out = out.nodes_mut();
        nodes_out.clear();
        let mut last: Option<Coord> = None;
        Topology::walk_dim_ordered(src, dst, order, |c| {
            self.set_node_claimed(c, owner);
            if let Some(prev) = last {
                let slot = self.link_slot(prev, c);
                if *slot == FREE {
                    *slot = owner;
                    self.busy_links += 1;
                }
            }
            nodes_out.push(c);
            last = Some(c);
            true
        });
        true
    }

    /// Fused route-and-claim along the dimension-ordered X-then-Y walk:
    /// checks every router and link of the route in place and claims the
    /// whole route atomically, writing it into `out`, without ever
    /// materializing a rejected route.
    ///
    /// Exactly equivalent to `route_xy` followed by [`Mesh::try_claim`],
    /// but allocation-free on the (common, under contention) failure
    /// path. Returns `false` and claims nothing if any resource is held
    /// by a different owner; `out` is unspecified in that case.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh or `owner` is the
    /// reserved sentinel `ClaimId::MAX`.
    pub fn claim_route_xy_into(
        &mut self,
        src: Coord,
        dst: Coord,
        owner: ClaimId,
        out: &mut Path,
    ) -> bool {
        self.claim_route_dim_ordered_into(src, dst, DimOrder::XThenY, owner, out)
    }

    /// Allocating convenience wrapper over [`Mesh::claim_route_xy_into`].
    ///
    /// # Panics
    ///
    /// As [`Mesh::claim_route_xy_into`].
    pub fn claim_route_xy(&mut self, src: Coord, dst: Coord, owner: ClaimId) -> Option<Path> {
        let mut out = Path::empty();
        self.claim_route_xy_into(src, dst, owner, &mut out)
            .then_some(out)
    }

    /// Fused route-and-claim along the Y-then-X walk; see
    /// [`Mesh::claim_route_xy_into`].
    ///
    /// # Panics
    ///
    /// As [`Mesh::claim_route_xy_into`].
    pub fn claim_route_yx_into(
        &mut self,
        src: Coord,
        dst: Coord,
        owner: ClaimId,
        out: &mut Path,
    ) -> bool {
        self.claim_route_dim_ordered_into(src, dst, DimOrder::YThenX, owner, out)
    }

    /// Allocating convenience wrapper over [`Mesh::claim_route_yx_into`].
    ///
    /// # Panics
    ///
    /// As [`Mesh::claim_route_yx_into`].
    pub fn claim_route_yx(&mut self, src: Coord, dst: Coord, owner: ClaimId) -> Option<Path> {
        let mut out = Path::empty();
        self.claim_route_yx_into(src, dst, owner, &mut out)
            .then_some(out)
    }

    /// Shortest route from `src` to `dst` using only currently-free
    /// resources (the adaptive escape route of Section 6.1's "route
    /// adaptivity ... after certain timeouts"). Returns `None` when the
    /// congestion leaves no free corridor.
    ///
    /// Resources held by `owner` itself count as free, so a braid may
    /// re-route over its own footprint.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_adaptive(&self, src: Coord, dst: Coord, owner: ClaimId) -> Option<Path> {
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        self.route_adaptive_into(src, dst, owner, &mut scratch, &mut out)
            .then_some(out)
    }

    /// Like [`Mesh::route_adaptive`], reusing the caller's BFS buffers
    /// and writing the route into `out` — the allocation-free variant
    /// for hot scheduling loops. Returns `false` (leaving `out`
    /// unspecified) when no free corridor exists.
    ///
    /// # Visit-order contract
    ///
    /// The route is the one a textbook breadth-first search finds when
    /// it
    ///
    /// - starts from `src` alone and expands routers first in, first
    ///   out;
    /// - offers each router's neighbours in the fixed order east
    ///   (`x + 1`), west (`x - 1`), south (`y + 1`), north (`y - 1`),
    ///   skipping visited routers and any router or link held by
    ///   someone other than `owner`;
    /// - records for each router the predecessor that discovered it
    ///   first, and never updates it.
    ///
    /// The returned path walks those predecessors back from `dst`, so
    /// among the shortest free routes it is a fixed one; `src == dst`
    /// yields the one-node path. The braid scheduler and its reference
    /// engine both route through this search, and their schedules are
    /// byte-identical across changes only as long as this order holds.
    /// `scq-bench` keeps an independent oracle of the contract.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    pub fn route_adaptive_into(
        &self,
        src: Coord,
        dst: Coord,
        owner: ClaimId,
        scratch: &mut RouteScratch,
        out: &mut Path,
    ) -> bool {
        assert!(
            self.contains(src) && self.contains(dst),
            "endpoints must be on the mesh"
        );
        let free = |o: ClaimId| (o == FREE) | (o == owner);
        let (src_i, dst_i) = (self.node_index(src), self.node_index(dst));
        if !free(self.nodes[src_i]) || !free(self.nodes[dst_i]) {
            return false;
        }
        let nodes = out.nodes_mut();
        nodes.clear();
        if src == dst {
            nodes.push(src);
            return true;
        }
        // The flood is the hot loop of contention-bound scheduling runs.
        // Frontier entries are packed coordinates, so a router's `x` and
        // `y` come from a mask and a shift; its node index is
        // `y * width + x`, the vertical link below it is `v_links[i]`
        // and the horizontal link east of it is `h_links[i - y]`.
        let (w, h) = (self.width() as usize, self.height() as usize);
        let n = w * h;
        scratch.begin(n);
        let RouteScratch {
            prev,
            seen,
            stamp,
            frontier,
        } = scratch;
        let stamp = *stamp;
        let (occ, h_links, v_links) = (&self.nodes[..], &self.h_links[..], &self.v_links[..]);
        let (seen, prev) = (&mut seen[..n], &mut prev[..n]);
        // Non-short-circuit `&`: three loads and one branch per
        // neighbour beat three hard-to-predict branches.
        let open =
            |seen: &[u64], i: usize, link: ClaimId| (seen[i] != stamp) & free(occ[i]) & free(link);
        seen[src_i] = stamp;
        let frontier = &mut frontier[..n];
        frontier[0] = pack(src);
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let p = frontier[head];
            head += 1;
            let (x, y) = ((p & 0xFFFF) as usize, (p >> 16) as usize);
            let cur = y * w + x;
            // Each discovery marks, links back, and either ends the
            // search at `dst` or joins the frontier, in east, west,
            // south, north order.
            if x + 1 < w && open(seen, cur + 1, h_links[cur - y]) {
                seen[cur + 1] = stamp;
                prev[cur + 1] = p;
                if cur + 1 == dst_i {
                    break;
                }
                frontier[tail] = p + 1;
                tail += 1;
            }
            if x > 0 && open(seen, cur - 1, h_links[cur - y - 1]) {
                seen[cur - 1] = stamp;
                prev[cur - 1] = p;
                if cur - 1 == dst_i {
                    break;
                }
                frontier[tail] = p - 1;
                tail += 1;
            }
            if y + 1 < h && open(seen, cur + w, v_links[cur]) {
                seen[cur + w] = stamp;
                prev[cur + w] = p;
                if cur + w == dst_i {
                    break;
                }
                frontier[tail] = p + (1 << 16);
                tail += 1;
            }
            if y > 0 && open(seen, cur - w, v_links[cur - w]) {
                seen[cur - w] = stamp;
                prev[cur - w] = p;
                if cur - w == dst_i {
                    break;
                }
                frontier[tail] = p - (1 << 16);
                tail += 1;
            }
        }
        if seen[dst_i] != stamp {
            return false;
        }
        nodes.push(dst);
        let (src_p, mut cur) = (pack(src), pack(dst));
        while cur != src_p {
            cur = prev[self.node_index(unpack(cur))];
            nodes.push(unpack(cur));
        }
        nodes.reverse();
        true
    }

    /// Advances the utilization clock by one cycle, accumulating the
    /// current busy-link count.
    pub fn tick(&mut self) {
        self.busy_link_cycles += self.busy_links as u64;
        self.ticks += 1;
    }

    /// Advances the utilization clock by `k` cycles in one step —
    /// equivalent to calling [`Mesh::tick`] `k` times while no claims or
    /// releases happen in between. This is what lets an event-driven
    /// scheduler jump straight to the next wake time instead of spinning
    /// one cycle at a time.
    pub fn tick_n(&mut self, k: u64) {
        self.busy_link_cycles += self.busy_links as u64 * k;
        self.ticks += k;
    }

    /// Average fraction of busy links over all ticked cycles — the
    /// "Average Mesh Utilization" metric of Figure 6.
    pub fn utilization(&self) -> f64 {
        if self.ticks == 0 || self.num_links() == 0 {
            return 0.0;
        }
        self.busy_link_cycles as f64 / (self.ticks as f64 * self.num_links() as f64)
    }

    /// Cycles ticked so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_count() {
        let m = Mesh::new(4, 3);
        // Horizontal: 3*3 = 9; vertical: 4*2 = 8.
        assert_eq!(m.num_links(), 17);
    }

    #[test]
    fn xy_and_yx_routes() {
        let m = Mesh::new(5, 5);
        let xy = m.route_xy(Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(xy.len_hops(), 5);
        assert_eq!(xy.nodes()[1], Coord::new(1, 0));
        let yx = m.route_yx(Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(yx.len_hops(), 5);
        assert_eq!(yx.nodes()[1], Coord::new(0, 1));
    }

    #[test]
    fn claims_are_atomic() {
        let mut m = Mesh::new(4, 4);
        let p1 = m.route_xy(Coord::new(0, 0), Coord::new(3, 0));
        assert!(m.try_claim(&p1, 1));
        // A crossing path shares node (2,0): claim must fail and leave
        // no partial claims.
        let p2 = m.route_xy(Coord::new(2, 0), Coord::new(2, 3));
        let busy_before = m.busy_links();
        assert!(!m.try_claim(&p2, 2));
        assert_eq!(m.busy_links(), busy_before);
        // A disjoint path succeeds.
        let p3 = m.route_xy(Coord::new(0, 2), Coord::new(3, 2));
        assert!(m.try_claim(&p3, 2));
    }

    #[test]
    fn braids_cannot_cross() {
        let mut m = Mesh::new(5, 5);
        let horizontal = m.route_xy(Coord::new(0, 2), Coord::new(4, 2));
        assert!(m.try_claim(&horizontal, 1));
        // Any vertical path through the occupied row is blocked...
        let vertical = m.route_xy(Coord::new(2, 0), Coord::new(2, 4));
        assert!(!m.try_claim(&vertical, 2));
        // ...and there is no adaptive way around a full-width wall.
        assert!(m
            .route_adaptive(Coord::new(2, 0), Coord::new(2, 4), 2)
            .is_none());
    }

    #[test]
    fn adaptive_routing_detours() {
        let mut m = Mesh::new(5, 5);
        // Block the middle of the direct row.
        let wall = m.route_xy(Coord::new(2, 2), Coord::new(2, 3));
        assert!(m.try_claim(&wall, 9));
        let p = m
            .route_adaptive(Coord::new(0, 2), Coord::new(4, 2), 1)
            .expect("detour exists");
        assert_eq!(p.source(), Coord::new(0, 2));
        assert_eq!(p.dest(), Coord::new(4, 2));
        assert!(p.len_hops() >= 6, "must detour, got {} hops", p.len_hops());
        assert!(m.try_claim(&p, 1));
    }

    #[test]
    fn adaptive_prefers_shortest_free() {
        let m = Mesh::new(6, 6);
        let p = m
            .route_adaptive(Coord::new(1, 1), Coord::new(4, 3), 1)
            .unwrap();
        assert_eq!(
            p.len_hops() as u32,
            Coord::new(1, 1).manhattan(Coord::new(4, 3))
        );
    }

    #[test]
    fn release_frees_resources() {
        let mut m = Mesh::new(4, 4);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(3, 3));
        assert!(m.try_claim(&p, 5));
        assert_eq!(m.busy_links(), 6);
        m.release(&p, 5);
        assert_eq!(m.busy_links(), 0);
        assert!(m.try_claim(&p, 6));
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn release_by_wrong_owner_panics() {
        let mut m = Mesh::new(3, 3);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        assert!(m.try_claim(&p, 1));
        m.release(&p, 2);
    }

    #[test]
    fn reclaim_by_same_owner_is_idempotent() {
        let mut m = Mesh::new(3, 3);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        assert!(m.try_claim(&p, 1));
        assert!(m.try_claim(&p, 1));
        assert_eq!(m.busy_links(), 2);
        m.release(&p, 1);
        assert_eq!(m.busy_links(), 0);
    }

    #[test]
    fn utilization_accounting() {
        let mut m = Mesh::new(3, 3);
        // 12 links total.
        assert_eq!(m.num_links(), 12);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0)); // 2 links
        assert!(m.try_claim(&p, 1));
        m.tick();
        m.tick();
        m.release(&p, 1);
        m.tick();
        // (2 + 2 + 0) / (3 * 12)
        let expect = 4.0 / 36.0;
        assert!((m.utilization() - expect).abs() < 1e-12);
        assert_eq!(m.ticks(), 3);
    }

    #[test]
    fn utilization_of_idle_mesh_is_zero() {
        let m = Mesh::new(2, 2);
        assert_eq!(m.utilization(), 0.0);
    }

    #[test]
    fn zero_hop_path_claims_single_node() {
        let mut m = Mesh::new(3, 3);
        let p = Path::new(vec![Coord::new(1, 1)]);
        assert!(m.try_claim(&p, 1));
        assert_eq!(m.busy_links(), 0);
        // Another braid cannot use that router.
        let crossing = m.route_xy(Coord::new(1, 0), Coord::new(1, 2));
        assert!(!m.try_claim(&crossing, 2));
        m.release(&p, 1);
        assert!(m.try_claim(&crossing, 2));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_mesh_rejected() {
        let _ = Mesh::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "at most 65536 routers per side")]
    fn oversized_mesh_rejected() {
        let _ = Mesh::new(MAX_SIDE + 1, 1);
    }

    #[test]
    fn adaptive_routes_reach_the_largest_coordinates() {
        // The packed frontier must carry x = 65535 and y = 65535.
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        let wide = Mesh::new(MAX_SIDE, 1);
        let far = Coord::new(MAX_SIDE - 1, 0);
        assert!(wide.route_adaptive_into(Coord::new(0, 0), far, 1, &mut scratch, &mut out));
        assert_eq!(out.nodes(), wide.route_xy(Coord::new(0, 0), far).nodes());
        let tall = Mesh::new(1, MAX_SIDE);
        let far = Coord::new(0, MAX_SIDE - 1);
        assert!(tall.route_adaptive_into(far, Coord::new(0, 0), 1, &mut scratch, &mut out));
        assert_eq!(out.nodes(), tall.route_xy(far, Coord::new(0, 0)).nodes());
    }

    #[test]
    fn adaptive_route_to_self_is_one_node() {
        let mut m = Mesh::new(4, 4);
        let c = Coord::new(2, 1);
        let mut scratch = RouteScratch::new();
        let mut out = Path::new(vec![Coord::new(0, 0), Coord::new(1, 0)]);
        assert!(m.route_adaptive_into(c, c, 1, &mut scratch, &mut out));
        assert_eq!(out.nodes(), &[c]);
        // A router held by someone else is not a route, even to itself.
        assert!(m.try_claim(&Path::new(vec![c]), 9));
        assert!(!m.route_adaptive_into(c, c, 1, &mut scratch, &mut out));
        assert!(m.route_adaptive_into(c, c, 9, &mut scratch, &mut out));
    }

    #[test]
    fn claim_route_matches_route_then_claim() {
        // Exhaustively compare the fused walk against the two-step
        // route+claim on a congested mesh, for both dimension orders.
        let mut reference = Mesh::new(6, 6);
        let mut fused = Mesh::new(6, 6);
        let wall = reference.route_xy(Coord::new(2, 1), Coord::new(2, 4));
        assert!(reference.try_claim(&wall, 99));
        assert!(fused.try_claim(&wall, 99));
        let mut out = Path::empty();
        for sx in 0..6u32 {
            for sy in 0..6u32 {
                for dx in 0..6u32 {
                    let (src, dst) = (Coord::new(sx, sy), Coord::new(dx, (sx + dx) % 6));
                    let owner = sx * 36 + sy * 6 + dx + 1000;
                    // X-then-Y.
                    let p = reference.route_xy(src, dst);
                    let expect = reference.try_claim(&p, owner);
                    let got = fused.claim_route_xy_into(src, dst, owner, &mut out);
                    assert_eq!(got, expect, "xy {src}->{dst}");
                    if expect {
                        assert_eq!(out.nodes(), p.nodes());
                        reference.release(&p, owner);
                        fused.release(&out, owner);
                    }
                    // Y-then-X.
                    let p = reference.route_yx(src, dst);
                    let expect = reference.try_claim(&p, owner);
                    let got = fused.claim_route_yx_into(src, dst, owner, &mut out);
                    assert_eq!(got, expect, "yx {src}->{dst}");
                    if expect {
                        assert_eq!(out.nodes(), p.nodes());
                        reference.release(&p, owner);
                        fused.release(&out, owner);
                    }
                    assert_eq!(reference.busy_links(), fused.busy_links());
                }
            }
        }
    }

    #[test]
    fn claim_route_failure_claims_nothing() {
        let mut m = Mesh::new(5, 5);
        let wall = m.route_xy(Coord::new(2, 0), Coord::new(2, 4));
        assert!(m.try_claim(&wall, 1));
        let busy = m.busy_links();
        let mut out = Path::empty();
        assert!(!m.claim_route_xy_into(Coord::new(0, 2), Coord::new(4, 2), 2, &mut out));
        assert_eq!(m.busy_links(), busy);
        // The wall itself is untouched and still releasable.
        m.release(&wall, 1);
        assert_eq!(m.busy_links(), 0);
    }

    #[test]
    fn claim_route_convenience_wrappers() {
        let mut m = Mesh::new(4, 4);
        let p = m
            .claim_route_xy(Coord::new(0, 0), Coord::new(3, 2), 7)
            .expect("free mesh");
        assert_eq!(p.len_hops(), 5);
        assert!(m
            .claim_route_yx(Coord::new(0, 1), Coord::new(3, 1), 8)
            .is_none());
        m.release(&p, 7);
        assert!(m
            .claim_route_yx(Coord::new(0, 1), Coord::new(3, 1), 8)
            .is_some());
    }

    #[test]
    fn route_into_variants_match_allocating_routes() {
        let m = Mesh::new(7, 5);
        let mut out = Path::empty();
        for (src, dst) in [
            (Coord::new(0, 0), Coord::new(6, 4)),
            (Coord::new(3, 3), Coord::new(3, 3)),
            (Coord::new(6, 0), Coord::new(0, 4)),
        ] {
            m.route_xy_into(src, dst, &mut out);
            assert_eq!(out.nodes(), m.route_xy(src, dst).nodes());
            m.route_yx_into(src, dst, &mut out);
            assert_eq!(out.nodes(), m.route_yx(src, dst).nodes());
        }
    }

    #[test]
    fn adaptive_into_reuses_scratch_across_searches() {
        let mut m = Mesh::new(8, 8);
        let wall = m.route_xy(Coord::new(3, 2), Coord::new(3, 5));
        assert!(m.try_claim(&wall, 50));
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        for trial in 0..10u32 {
            let src = Coord::new(0, trial % 8);
            let dst = Coord::new(7, (trial * 3) % 8);
            let expected = m.route_adaptive(src, dst, 1);
            let got = m.route_adaptive_into(src, dst, 1, &mut scratch, &mut out);
            match expected {
                Some(p) => {
                    assert!(got);
                    assert_eq!(out.nodes(), p.nodes(), "trial {trial}");
                }
                None => assert!(!got),
            }
        }
    }

    #[test]
    fn adaptive_into_blocked_endpoint_fails() {
        let mut m = Mesh::new(4, 4);
        assert!(m.try_claim(&Path::new(vec![Coord::new(0, 0)]), 9));
        let mut scratch = RouteScratch::new();
        let mut out = Path::empty();
        assert!(!m.route_adaptive_into(
            Coord::new(0, 0),
            Coord::new(3, 3),
            1,
            &mut scratch,
            &mut out
        ));
    }

    #[test]
    fn node_claimed_tracks_claims() {
        let mut m = Mesh::new(4, 4);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        assert!(!m.node_claimed(Coord::new(1, 0)));
        assert!(m.try_claim(&p, 7));
        assert!(m.node_claimed(Coord::new(1, 0)));
        assert!(!m.node_claimed(Coord::new(3, 3)));
        m.release(&p, 7);
        assert!(!m.node_claimed(Coord::new(1, 0)));
    }

    #[test]
    fn topology_accessor_matches_dimensions() {
        let m = Mesh::new(6, 4);
        let t = m.topology();
        assert_eq!((t.width(), t.height()), (6, 4));
        assert_eq!(t.num_links(), m.num_links());
    }

    #[test]
    fn certainly_blocked_probes_are_conservative() {
        // Exhaustive soundness check on a congested mesh: whenever a
        // probe says "blocked", the corresponding claim must fail for a
        // fresh owner holding nothing.
        let mut m = Mesh::new(7, 7);
        let wall_v = m.route_xy(Coord::new(3, 1), Coord::new(3, 5));
        assert!(m.try_claim(&wall_v, 90));
        let wall_h = m.route_xy(Coord::new(0, 6), Coord::new(6, 6));
        assert!(m.try_claim(&wall_h, 91));
        m.ensure_occupancy_index();
        for sx in 0..7u32 {
            for sy in 0..7u32 {
                for dx in 0..7u32 {
                    for dy in 0..7u32 {
                        let (src, dst) = (Coord::new(sx, sy), Coord::new(dx, dy));
                        if m.xy_certainly_blocked(src, dst) {
                            let mut probe = m.clone();
                            assert!(
                                !probe.claim_route_xy_into(src, dst, 7, &mut Path::empty()),
                                "xy probe lied for {src}->{dst}"
                            );
                        }
                        if m.yx_certainly_blocked(src, dst) {
                            let mut probe = m.clone();
                            assert!(
                                !probe.claim_route_yx_into(src, dst, 7, &mut Path::empty()),
                                "yx probe lied for {src}->{dst}"
                            );
                        }
                        if m.route_certainly_blocked(src, dst) {
                            assert!(
                                m.route_adaptive(src, dst, 7).is_none(),
                                "route probe lied for {src}->{dst}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_wall_blocks_all_routes() {
        let mut m = Mesh::new(5, 5);
        let wall = m.route_xy(Coord::new(0, 2), Coord::new(4, 2));
        assert!(m.try_claim(&wall, 1));
        m.ensure_occupancy_index();
        // Row 2 is fully claimed: anything crossing it is provably
        // unroutable, even adaptively.
        assert!(m.route_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        assert!(m.xy_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        assert!(m.yx_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        // Endpoints on the same side are not separated by it.
        assert!(!m.route_certainly_blocked(Coord::new(0, 0), Coord::new(4, 1)));
        // Releasing the wall clears every verdict.
        m.release(&wall, 1);
        assert!(!m.route_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        assert!(!m.xy_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
    }

    #[test]
    fn enclosed_endpoint_blocks_all_routes() {
        let mut m = Mesh::new(5, 5);
        // Wall the corner router (0, 0) in with its two neighbors.
        assert!(m.try_claim(&Path::new(vec![Coord::new(1, 0)]), 1));
        assert!(m.try_claim(&Path::new(vec![Coord::new(0, 1)]), 2));
        assert!(m.route_certainly_blocked(Coord::new(0, 0), Coord::new(4, 4)));
        assert!(m
            .route_adaptive(Coord::new(0, 0), Coord::new(4, 4), 9)
            .is_none());
        // The zero-hop route to the enclosed-but-free router itself is
        // fine, so enclosure must not fire on src == dst.
        assert!(!m.route_certainly_blocked(Coord::new(0, 0), Coord::new(0, 0)));
        // Freeing one exit clears the verdict.
        m.release(&Path::new(vec![Coord::new(1, 0)]), 1);
        assert!(!m.route_certainly_blocked(Coord::new(0, 0), Coord::new(4, 4)));
    }

    #[test]
    fn claimed_endpoint_blocks_everything() {
        let mut m = Mesh::new(4, 4);
        assert!(m.try_claim(&Path::new(vec![Coord::new(1, 1)]), 5));
        assert!(m.node_claimed(Coord::new(1, 1)));
        assert!(!m.node_claimed(Coord::new(0, 0)));
        assert!(m.xy_certainly_blocked(Coord::new(1, 1), Coord::new(3, 3)));
        assert!(m.yx_certainly_blocked(Coord::new(0, 0), Coord::new(1, 1)));
        assert!(m.route_certainly_blocked(Coord::new(1, 1), Coord::new(3, 3)));
    }

    #[test]
    fn interval_summary_tightens_after_boundary_release() {
        let mut m = Mesh::new(8, 8);
        // Three single-node claims on row 3 at x = 1, 4, 6.
        for x in [1u32, 4, 6] {
            assert!(m.try_claim(&Path::new(vec![Coord::new(x, 3)]), 10 + x));
        }
        m.ensure_occupancy_index();
        // Span [0, 0] holds nothing; [5, 7] certainly holds x=6.
        assert!(!m.xy_certainly_blocked(Coord::new(0, 3), Coord::new(0, 3)));
        assert!(m.xy_certainly_blocked(Coord::new(5, 3), Coord::new(7, 3)));
        // Release the max boundary; the interval must re-tighten so the
        // span [5, 7] is no longer provably blocked (x=6 freed)...
        m.release(&Path::new(vec![Coord::new(6, 3)]), 16);
        assert!(!m.xy_certainly_blocked(Coord::new(5, 3), Coord::new(7, 3)));
        // ...but the remaining min boundary still blocks its span.
        assert!(m.xy_certainly_blocked(Coord::new(0, 3), Coord::new(2, 3)));
        m.release(&Path::new(vec![Coord::new(1, 3)]), 11);
        assert!(!m.xy_certainly_blocked(Coord::new(0, 3), Coord::new(2, 3)));
    }

    #[test]
    fn line_accessors_track_claims() {
        let mut m = Mesh::new(6, 6);
        assert_eq!(m.row_claimed_count(2), 0);
        assert_eq!(m.row_claimed_interval(2), None);
        let p = m.route_xy(Coord::new(1, 2), Coord::new(4, 2));
        assert!(m.try_claim(&p, 3));
        assert_eq!(m.row_claimed_count(2), 4);
        assert_eq!(m.row_claimed_interval(2), Some((1, 4)));
        assert_eq!(m.col_claimed_count(4), 1);
        assert_eq!(m.col_claimed_interval(4), Some((2, 2)));
        m.release(&p, 3);
        assert_eq!(m.row_claimed_count(2), 0);
        assert_eq!(m.col_claimed_interval(4), None);
    }

    #[test]
    #[should_panic(expected = "outside height")]
    fn row_accessor_off_mesh_panics() {
        let m = Mesh::new(4, 4);
        let _ = m.row_claimed_count(4);
    }

    #[test]
    fn index_stays_dormant_until_a_claim_fails() {
        let mut m = Mesh::new(6, 6);
        assert!(!m.occupancy_index_active());
        // Successful claims and releases never wake the index.
        let p = m.route_xy(Coord::new(0, 0), Coord::new(5, 0));
        assert!(m.try_claim(&p, 1));
        m.release(&p, 1);
        let q = m
            .claim_route_yx(Coord::new(0, 1), Coord::new(5, 1), 2)
            .unwrap();
        m.release(&q, 2);
        assert!(!m.occupancy_index_active());
        // The first failed claim brings it live.
        assert!(m.try_claim(&p, 1));
        let crossing = m.route_xy(Coord::new(2, 0), Coord::new(2, 5));
        assert!(!m.try_claim(&crossing, 3));
        assert!(m.occupancy_index_active());
    }

    #[test]
    fn fused_claim_failure_also_wakes_the_index() {
        let mut m = Mesh::new(5, 5);
        let wall = m.route_xy(Coord::new(0, 2), Coord::new(4, 2));
        assert!(m.try_claim(&wall, 1));
        assert!(!m.occupancy_index_active());
        let mut out = Path::empty();
        assert!(!m.claim_route_xy_into(Coord::new(2, 0), Coord::new(2, 4), 2, &mut out));
        assert!(m.occupancy_index_active());
        // Once live, the separator proof fires.
        assert!(m.route_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
    }

    #[test]
    fn rebuilt_index_matches_incremental_maintenance() {
        // Claim a congested pattern on a dormant-index mesh, wake the
        // index, and check every line summary against a twin mesh whose
        // index was live from the start.
        let mut lazy = Mesh::new(9, 9);
        let mut eager = Mesh::new(9, 9);
        eager.ensure_occupancy_index();
        let claims = [
            (Coord::new(0, 0), Coord::new(8, 0)),
            (Coord::new(2, 2), Coord::new(2, 7)),
            (Coord::new(4, 4), Coord::new(7, 6)),
            (Coord::new(0, 8), Coord::new(3, 8)),
        ];
        for (i, &(a, b)) in claims.iter().enumerate() {
            let p = lazy.route_xy(a, b);
            assert!(lazy.try_claim(&p, i as u32 + 1));
            assert!(eager.try_claim(&p, i as u32 + 1));
        }
        // Release one mid-pattern path so boundaries re-tighten on the
        // eager side before the comparison.
        let p = lazy.route_xy(claims[2].0, claims[2].1);
        lazy.release(&p, 3);
        eager.release(&p, 3);
        lazy.ensure_occupancy_index();
        for y in 0..9 {
            assert_eq!(
                lazy.row_claimed_count(y),
                eager.row_claimed_count(y),
                "row {y} count"
            );
            assert_eq!(
                lazy.row_claimed_interval(y),
                eager.row_claimed_interval(y),
                "row {y} interval"
            );
        }
        for x in 0..9 {
            assert_eq!(lazy.col_claimed_count(x), eager.col_claimed_count(x));
            assert_eq!(lazy.col_claimed_interval(x), eager.col_claimed_interval(x));
        }
    }

    #[test]
    fn dormant_probes_still_catch_claimed_endpoints() {
        let mut m = Mesh::new(5, 5);
        assert!(m.try_claim(&Path::new(vec![Coord::new(2, 2)]), 1));
        assert!(!m.occupancy_index_active());
        assert!(m.xy_certainly_blocked(Coord::new(2, 2), Coord::new(4, 4)));
        assert!(m.yx_certainly_blocked(Coord::new(0, 0), Coord::new(2, 2)));
        assert!(m.route_certainly_blocked(Coord::new(2, 2), Coord::new(0, 0)));
        // Corridor proofs need the live index: a wall mid-corridor is
        // invisible while dormant (weaker verdict, still sound)...
        let wall = m.route_xy(Coord::new(0, 3), Coord::new(4, 3));
        assert!(m.try_claim(&wall, 2));
        assert!(!m.xy_certainly_blocked(Coord::new(0, 0), Coord::new(0, 4)));
        // ...and fires once the index is live.
        m.ensure_occupancy_index();
        assert!(m.xy_certainly_blocked(Coord::new(0, 0), Coord::new(0, 4)));
    }

    #[test]
    fn dormant_line_accessors_scan_real_occupancy() {
        let mut m = Mesh::new(6, 6);
        let p = m.route_xy(Coord::new(1, 2), Coord::new(4, 2));
        assert!(m.try_claim(&p, 3));
        assert!(!m.occupancy_index_active());
        assert_eq!(m.row_claimed_count(2), 4);
        assert_eq!(m.row_claimed_interval(2), Some((1, 4)));
        assert_eq!(m.col_claimed_count(4), 1);
        assert_eq!(m.col_claimed_interval(4), Some((2, 2)));
        assert_eq!(m.row_claimed_count(0), 0);
        assert_eq!(m.col_claimed_interval(0), None);
    }

    #[test]
    fn tick_n_matches_repeated_tick() {
        let mut a = Mesh::new(4, 4);
        let mut b = Mesh::new(4, 4);
        let p = a.route_xy(Coord::new(0, 0), Coord::new(3, 0));
        assert!(a.try_claim(&p, 1));
        assert!(b.try_claim(&p, 1));
        for _ in 0..17 {
            a.tick();
        }
        b.tick_n(17);
        assert_eq!(a.ticks(), b.ticks());
        assert!((a.utilization() - b.utilization()).abs() < f64::EPSILON);
        b.tick_n(0);
        assert_eq!(b.ticks(), 17);
    }

    #[test]
    fn defect_free_map_matches_plain_mesh() {
        use crate::defect::DefectMap;
        let topo = Topology::new(5, 4);
        let mut a = Mesh::new(5, 4);
        let mut b = Mesh::with_defects(5, 4, &DefectMap::empty(topo));
        let p = a.route_xy(Coord::new(0, 0), Coord::new(4, 3));
        assert_eq!(a.try_claim(&p, 1), b.try_claim(&p, 1));
        assert_eq!(a.busy_links(), b.busy_links());
        assert!(!b.node_defective(Coord::new(2, 2)));
    }

    #[test]
    fn defective_resources_block_claims_and_adaptive_routes() {
        use crate::defect::DefectMap;
        let text = "dims 5 5\nnode 2 0\nlink 2 2 3 2\n";
        let map = DefectMap::from_text(text).unwrap();
        let mut m = Mesh::with_defects(5, 5, &map);
        assert!(m.node_defective(Coord::new(2, 0)));
        // Defects do not count as traffic.
        assert_eq!(m.busy_links(), 0);
        assert_eq!(m.utilization(), 0.0);
        // A route through the dead node cannot be claimed...
        let p = m.route_xy(Coord::new(0, 0), Coord::new(4, 0));
        assert!(!m.try_claim(&p, 1));
        // ...the fused walks refuse it too...
        let mut out = Path::empty();
        assert!(!m.claim_route_xy_into(Coord::new(0, 0), Coord::new(4, 0), 1, &mut out));
        // ...and the adaptive router detours around both defects.
        let detour = m
            .route_adaptive(Coord::new(0, 0), Coord::new(4, 0), 1)
            .expect("live detour exists");
        assert!(detour.nodes().iter().all(|&n| !m.node_defective(n)));
        assert!(detour
            .links()
            .all(|(a, b)| !(a == Coord::new(2, 2) && b == Coord::new(3, 2)
                || a == Coord::new(3, 2) && b == Coord::new(2, 2))));
        assert!(m.try_claim(&detour, 1));
    }

    #[test]
    fn probes_stay_sound_with_defects() {
        use crate::defect::DefectMap;
        // A fully dead row separates the mesh; the probes must prove it
        // once the index is live, and must never contradict the claims.
        let mut text = String::from("dims 5 5\n");
        for x in 0..5 {
            text.push_str(&format!("node {x} 2\n"));
        }
        let map = DefectMap::from_text(&text).unwrap();
        let mut m = Mesh::with_defects(5, 5, &map);
        m.ensure_occupancy_index();
        assert!(m.route_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        assert!(m
            .route_adaptive(Coord::new(2, 0), Coord::new(2, 4), 1)
            .is_none());
        assert!(m.xy_certainly_blocked(Coord::new(2, 0), Coord::new(2, 4)));
        // Same-side traffic is unaffected.
        let p = m.route_xy(Coord::new(0, 0), Coord::new(4, 0));
        assert!(m.try_claim(&p, 1));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn defect_sentinel_is_not_a_legal_owner() {
        let mut m = Mesh::new(3, 3);
        let p = m.route_xy(Coord::new(0, 0), Coord::new(2, 0));
        let _ = m.try_claim(&p, ClaimId::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "defect map is")]
    fn mismatched_defect_map_dims_rejected() {
        use crate::defect::DefectMap;
        let map = DefectMap::empty(Topology::new(4, 4));
        let _ = Mesh::with_defects(5, 5, &map);
    }
}
