//! Resource Queues (§III-B1).
//!
//! For each resource type RUPAM keeps a priority queue of candidate
//! nodes, "sorted with capacity in descending order (most
//! powerful/capable/capacity first) and associated utilization in
//! ascending order (least used first)". The two criteria are combined
//! into one score — the *remaining* capability
//! `capability × (1 − utilization)` — so a saturated top-tier node
//! sinks below an idle lower-tier one instead of monopolising the head
//! of the queue (on an idle cluster the score degenerates to raw
//! capability, preserving the capability ranking). Queues are rebuilt
//! from the offer-round snapshot — the paper likewise only inserts
//! nodes that are ready to run a task and empties the queues between
//! offer rounds, keeping the sorting cost low.

use rupam_cluster::resources::{PerResource, ResourceKind};
use rupam_cluster::{ClusterSpec, NodeId, ShardMap};
use rupam_exec::scheduler::NodeView;

/// Per-kind utilisation of a node in `0..=1` (lower = more attractive).
pub fn utilization(view: &NodeView, kind: ResourceKind) -> f64 {
    match kind {
        ResourceKind::Cpu => view.cpu_util,
        ResourceKind::Mem => {
            let cap = view.executor_mem.as_f64();
            if cap <= 0.0 {
                1.0
            } else {
                view.mem_in_use.as_f64() / cap
            }
        }
        ResourceKind::Io => view.disk_util,
        ResourceKind::Net => view.net_util,
        ResourceKind::Gpu => {
            let total =
                view.gpus_idle as f64 + view.running.iter().filter(|r| r.on_gpu).count() as f64;
            if total <= 0.0 {
                1.0
            } else {
                1.0 - view.gpus_idle as f64 / total
            }
        }
    }
}

/// The snapshot ranking score: the capability a new task would still
/// find on the node, `capability × (1 − utilization)`.
pub fn remaining_capability(cluster: &ClusterSpec, view: &NodeView, kind: ResourceKind) -> f64 {
    let util = utilization(view, kind).clamp(0.0, 1.0);
    cluster.node(view.node).capability(kind) * (1.0 - util)
}

/// The five node priority queues, rebuilt each offer round.
pub struct ResourceQueues {
    queues: PerResource<Vec<NodeId>>,
}

impl ResourceQueues {
    /// Build the queues from the current snapshot. Blocked (restarting)
    /// nodes and nodes without the resource (`C_i^r = 0`) are excluded.
    pub fn build(cluster: &ClusterSpec, views: &[NodeView]) -> Self {
        let queues = PerResource::from_fn(|kind| {
            let mut nodes: Vec<NodeId> = views
                .iter()
                .filter(|v| !v.blocked)
                .filter(|v| cluster.node(v.node).has_resource(kind))
                .map(|v| v.node)
                .collect();
            let score = |id: NodeId| remaining_capability(cluster, &views[id.index()], kind);
            nodes.sort_by(|&a, &b| {
                let remaining = score(b)
                    .partial_cmp(&score(a))
                    .unwrap_or(std::cmp::Ordering::Equal);
                let util_a = utilization(&views[a.index()], kind);
                let util_b = utilization(&views[b.index()], kind);
                remaining
                    .then(
                        util_a
                            .partial_cmp(&util_b)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(a.cmp(&b))
            });
            nodes
        });
        ResourceQueues { queues }
    }

    /// Nodes for one resource kind, best first.
    pub fn nodes(&self, kind: ResourceKind) -> &[NodeId] {
        self.queues.get(kind)
    }

    /// The best node for one kind, if any qualifies.
    pub fn best(&self, kind: ResourceKind) -> Option<NodeId> {
        self.queues.get(kind).first().copied()
    }
}

/// Collapse `-0.0` to `0.0` so `total_cmp` agrees with the
/// `partial_cmp` the from-scratch sort uses (which treats the two zeros
/// as equal). A NaN here would poison every `total_cmp` downstream
/// (NaN sorts *after* every real under `total_cmp`, silently corrupting
/// rank comparisons), so it is rejected outright.
#[inline]
fn norm(x: f64) -> f64 {
    debug_assert!(!x.is_nan(), "ranking key must never be NaN");
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// One node's position key in a kind's ordered set: remaining capability
/// descending, then raw utilisation ascending, then `NodeId` — exactly
/// the comparator [`ResourceQueues::build`] sorts with, made total via
/// `total_cmp` over [`norm`]alised (NaN-free, single-zero) floats.
///
/// `Rank` totally orders the *global* queue even when it is stored
/// shard-by-shard, which is what lets per-shard winners be merged back
/// into the exact global pick: "earlier in the unsharded queue" is
/// precisely "smaller `Rank`".
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rank {
    pub(crate) remaining: f64,
    util: f64,
    pub(crate) node: NodeId,
}

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .remaining
            .total_cmp(&self.remaining)
            .then(self.util.total_cmp(&other.util))
            .then(self.node.cmp(&other.node))
    }
}

/// One shard of the node rankings: the ordered sets, current keys and
/// materialised dispatch queues for a disjoint subset of the cluster's
/// nodes (one rack, under the default policy).
#[derive(Default)]
struct QueueShard {
    /// Owned nodes, ascending id; `keys[local]` is the key of
    /// `members[local]`.
    members: Vec<NodeId>,
    /// Current key per member per kind; `None` while excluded (blocked
    /// or without the resource).
    keys: Vec<PerResource<Option<(f64, f64)>>>,
    sets: PerResource<std::collections::BTreeSet<Rank>>,
    /// Dispatch-ready snapshot of `sets`, rebuilt only while `dirty`.
    queue: PerResource<Vec<Rank>>,
    /// Suffix-max pick-score bounds, parallel to `queue` (same model as
    /// [`NodeOrder`], per shard).
    bounds: PerResource<Vec<f64>>,
    /// Set when a refresh structurally changed a set since the last
    /// materialisation.
    dirty: bool,
}

impl QueueShard {
    fn new(members: Vec<NodeId>) -> Self {
        QueueShard {
            keys: members.iter().map(|_| PerResource::default()).collect(),
            members,
            ..QueueShard::default()
        }
    }

    /// Re-key one member from its snapshot view, patching the ordered
    /// sets (`O(log shard)`) only when the key actually changed.
    fn refresh_member(&mut self, cluster: &ClusterSpec, view: &NodeView, local: usize) {
        for kind in ResourceKind::ALL {
            let eligible = !view.blocked && cluster.node(view.node).has_resource(kind);
            let next = if eligible {
                Some((
                    norm(remaining_capability(cluster, view, kind)),
                    norm(utilization(view, kind)),
                ))
            } else {
                None
            };
            let slot = self.keys[local].get_mut(kind);
            if *slot == next {
                continue;
            }
            let set = self.sets.get_mut(kind);
            if let Some((remaining, util)) = *slot {
                set.remove(&Rank {
                    remaining,
                    util,
                    node: view.node,
                });
            }
            if let Some((remaining, util)) = next {
                set.insert(Rank {
                    remaining,
                    util,
                    node: view.node,
                });
            }
            *slot = next;
            self.dirty = true;
        }
    }

    fn refresh_all(&mut self, cluster: &ClusterSpec, views: &[NodeView]) {
        for local in 0..self.members.len() {
            let id = self.members[local];
            self.refresh_member(cluster, &views[id.index()], local);
        }
    }

    /// Rebuild the dispatch queue and suffix-max bounds from the sets.
    fn materialize(&mut self, cluster: &ClusterSpec) {
        for kind in ResourceKind::ALL {
            let queue: Vec<Rank> = self.sets.get(kind).iter().copied().collect();
            let mut bounds: Vec<f64> = queue
                .iter()
                .map(|r| match kind {
                    ResourceKind::Cpu | ResourceKind::Gpu => cluster.node(r.node).capability(kind),
                    ResourceKind::Mem | ResourceKind::Net | ResourceKind::Io => r.remaining,
                })
                .collect();
            // suffix maximum: bound[i] caps every position from i onward
            for i in (0..bounds.len().saturating_sub(1)).rev() {
                bounds[i] = bounds[i].max(bounds[i + 1]);
            }
            *self.queue.get_mut(kind) = queue;
            *self.bounds.get_mut(kind) = bounds;
        }
        self.dirty = false;
    }
}

/// Persistent per-kind node rankings, updated in place between offer
/// rounds instead of rebuilt by a full sort — and partitioned into
/// rack-aligned shards (see [`ShardMap`]) so refreshes touch only the
/// shards whose nodes changed.
///
/// Each shard keeps, per resource kind, an ordered set of [`Rank`]
/// entries plus the key each owned node currently occupies. A refresh
/// recomputes keys (a handful of float operations per node — or only
/// for the nodes in the engine's changed-set, when one is supplied) and
/// touches a set — one `O(log shard)` remove + insert — only for nodes
/// whose key actually changed. Dispatch queues are materialised lazily,
/// per dirty shard: on quiet rounds (heartbeats without launches or
/// finishes) a refresh does *zero* structural work, versus the rebuild
/// path's unconditional five `O(n log n)` sorts.
#[derive(Default)]
pub struct NodeQueueCache {
    /// Requested sharding policy (see [`ShardMap::build`]; 0 = by rack).
    shard_count: usize,
    shards: Vec<QueueShard>,
    /// Node index → owning shard.
    shard_of: Vec<u32>,
    /// Node index → position within its shard's `members`.
    local_of: Vec<u32>,
}

impl NodeQueueCache {
    /// An empty cache (populated by the first refresh) with the default
    /// rack-aligned sharding.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with an explicit shard-count policy (see
    /// [`ShardMap::build`]).
    pub fn with_shards(shard_count: usize) -> Self {
        NodeQueueCache {
            shard_count,
            ..NodeQueueCache::default()
        }
    }

    /// Forget everything (cluster changed / run restarted).
    pub fn reset(&mut self) {
        self.shards.clear();
        self.shard_of.clear();
        self.local_of.clear();
    }

    /// Number of shards the rankings are partitioned into (0 before the
    /// first refresh).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn rebuild_shards(&mut self, cluster: &ClusterSpec) {
        let map = ShardMap::build(cluster, self.shard_count);
        self.shards = (0..map.len())
            .map(|s| QueueShard::new(map.members(s).to_vec()))
            .collect();
        self.shard_of = vec![0; cluster.len()];
        self.local_of = vec![0; cluster.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            for (local, &id) in shard.members.iter().enumerate() {
                self.shard_of[id.index()] = s as u32;
                self.local_of[id.index()] = local as u32;
            }
        }
    }

    /// Bring the rankings in line with an offer-round snapshot.
    ///
    /// `changed` is the engine's per-round delta: the nodes whose view
    /// may differ from the previous offer round. When present (and the
    /// cache is already populated for this cluster) only those nodes are
    /// re-keyed — the storm-batching fast path. `None` means "assume
    /// anything moved" and re-keys every node.
    pub fn refresh(
        &mut self,
        cluster: &ClusterSpec,
        views: &[NodeView],
        changed: Option<&[NodeId]>,
    ) {
        self.refresh_keys(cluster, views, changed);
        self.materialize_dirty(cluster);
    }

    /// [`NodeQueueCache::refresh`] without the dispatch-queue
    /// materialisation: re-keys the ordered sets only. On rounds with no
    /// dispatchable work the caller can stop here — keeping a shard
    /// `dirty` across quiet rounds is legal (the sets are authoritative;
    /// the queues are a lazily-rebuilt view) and turns the common
    /// heartbeat-only round from `O(shard)` into `O(changed)`.
    pub fn refresh_keys(
        &mut self,
        cluster: &ClusterSpec,
        views: &[NodeView],
        changed: Option<&[NodeId]>,
    ) {
        let fresh = self.shard_of.len() != views.len() || self.shards.is_empty();
        if fresh {
            self.reset();
            self.rebuild_shards(cluster);
        }
        match (fresh, changed) {
            (false, Some(delta)) => {
                for &id in delta {
                    debug_assert!(id.index() < views.len());
                    let s = self.shard_of[id.index()] as usize;
                    let local = self.local_of[id.index()] as usize;
                    self.shards[s].refresh_member(cluster, &views[id.index()], local);
                }
            }
            _ => {
                for shard in &mut self.shards {
                    shard.refresh_all(cluster, views);
                }
            }
        }
    }

    /// Rebuild the dispatch queues and bounds of every dirty shard —
    /// required before [`NodeQueueCache::sharded_order`].
    pub fn materialize_dirty(&mut self, cluster: &ClusterSpec) {
        for shard in &mut self.shards {
            if shard.dirty {
                shard.materialize(cluster);
            }
        }
    }

    fn key(&self, node: NodeId, kind: ResourceKind) -> Option<(f64, f64)> {
        let s = *self.shard_of.get(node.index())? as usize;
        let local = self.local_of[node.index()] as usize;
        *self.shards[s].keys[local].get(kind)
    }

    /// The global (cross-shard) ranking for one kind, best first.
    fn merged_ranks(&self, kind: ResourceKind) -> Vec<Rank> {
        let mut ranks: Vec<Rank> = self
            .shards
            .iter()
            .flat_map(|s| s.sets.get(kind).iter().copied())
            .collect();
        ranks.sort_unstable();
        ranks
    }

    /// Materialise the global dispatch ordering, with per-position score
    /// bounds for the dispatcher's early exit. The shard-merged
    /// equivalent of the pre-sharding single queue — kept as the
    /// equivalence oracle (and for callers that want one flat ranking);
    /// the dispatcher itself consumes [`NodeQueueCache::sharded_order`].
    pub fn order(&self, cluster: &ClusterSpec) -> NodeOrder {
        let queues = PerResource::from_fn(|kind| {
            self.merged_ranks(kind)
                .into_iter()
                .map(|r| r.node)
                .collect::<Vec<NodeId>>()
        });
        NodeOrder::new(cluster, queues, |kind, node| {
            self.key(node, kind)
                .map(|(remaining, _)| remaining)
                .unwrap_or(0.0)
        })
    }

    /// Borrow the per-shard dispatch queues and bounds — the zero-copy
    /// ranking view [`crate::dispatcher::Dispatcher`] scans. Valid (all
    /// shards materialised) from the end of any refresh until the next
    /// mutation.
    pub fn sharded_order(&self) -> ShardedOrder<'_> {
        debug_assert!(
            self.shards.iter().all(|s| !s.dirty),
            "sharded_order taken before materialisation"
        );
        ShardedOrder {
            shards: &self.shards,
        }
    }

    /// Cross-check the incremental ordering against a from-scratch
    /// rebuild over the same snapshot — the "queues sorted" audit
    /// invariant used as the equivalence oracle. Also checks every
    /// shard's materialised dispatch queue against its ordered set, so a
    /// missed `dirty` flag cannot hide.
    pub fn verify(&self, cluster: &ClusterSpec, views: &[NodeView]) -> Vec<String> {
        let reference = ResourceQueues::build(cluster, views);
        let mut findings = Vec::new();
        for kind in ResourceKind::ALL {
            let incremental: Vec<NodeId> = self.merged_ranks(kind).iter().map(|r| r.node).collect();
            if incremental != reference.nodes(kind) {
                findings.push(format!(
                    "{kind:?} incremental ranking {incremental:?} diverges from rebuilt {:?}",
                    reference.nodes(kind)
                ));
            }
            for (s, shard) in self.shards.iter().enumerate() {
                // a dirty shard is allowed to lag (materialisation is
                // lazy); a shard claiming to be clean is not — a missed
                // `dirty` flag still cannot hide
                if shard.dirty {
                    continue;
                }
                let from_set: Vec<Rank> = shard.sets.get(kind).iter().copied().collect();
                if shard.queue.get(kind) != &from_set {
                    findings.push(format!("{kind:?} shard {s} materialised queue is stale"));
                }
            }
        }
        findings
    }
}

/// A borrowed view of the materialised per-shard rankings: for each
/// shard and kind, the dispatch queue (best first) and the suffix-max
/// score bounds. The dispatcher scans shards independently — skipping
/// any shard whose *top* bound cannot beat the incumbent — and merges
/// per-shard winners with the [`Rank`] total order as the final
/// tiebreak, reproducing the unsharded first-wins scan exactly.
pub struct ShardedOrder<'c> {
    shards: &'c [QueueShard],
}

impl<'c> ShardedOrder<'c> {
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's queue for `kind`, best first.
    pub(crate) fn ranks(&self, shard: usize, kind: ResourceKind) -> &'c [Rank] {
        self.shards[shard].queue.get(kind)
    }

    /// Upper bound on the pick score achievable at position `i` or later
    /// of one shard's queue.
    pub(crate) fn bound(&self, shard: usize, kind: ResourceKind, i: usize) -> f64 {
        self.shards[shard].bounds.get(kind)[i]
    }

    /// Upper bound over a whole shard (`-inf` when it has no candidates).
    pub(crate) fn top_bound(&self, shard: usize, kind: ResourceKind) -> f64 {
        self.shards[shard]
            .bounds
            .get(kind)
            .first()
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }
}

/// A per-kind node ordering plus, for each queue position, an upper
/// bound on the pick score any node at or after that position can still
/// achieve this round. Bounds let [`crate::dispatcher::Dispatcher`] stop
/// scanning as soon as the current best pick is unbeatable:
///
/// * CPU / GPU score is raw capability (claims never change it), so the
///   bound is the suffix maximum of capability;
/// * MEM / NET / I/O score is `capability × (1 − util-with-claims)`,
///   and claims only ever *raise* utilisation above the snapshot, so
///   each node's snapshot key — which the queue is sorted by, descending
///   — bounds its achievable score, and position `i`'s key bounds the
///   whole suffix.
pub struct NodeOrder {
    queues: PerResource<Vec<NodeId>>,
    bounds: PerResource<Vec<f64>>,
}

impl NodeOrder {
    fn new(
        cluster: &ClusterSpec,
        queues: PerResource<Vec<NodeId>>,
        snapshot_key: impl Fn(ResourceKind, NodeId) -> f64,
    ) -> Self {
        let bounds = PerResource::from_fn(|kind| {
            let nodes = queues.get(kind);
            let mut bounds: Vec<f64> = nodes
                .iter()
                .map(|&n| match kind {
                    ResourceKind::Cpu | ResourceKind::Gpu => cluster.node(n).capability(kind),
                    ResourceKind::Mem | ResourceKind::Net | ResourceKind::Io => {
                        snapshot_key(kind, n)
                    }
                })
                .collect();
            // suffix maximum: bound[i] caps every node from i onward
            for i in (0..bounds.len().saturating_sub(1)).rev() {
                bounds[i] = bounds[i].max(bounds[i + 1]);
            }
            bounds
        });
        NodeOrder { queues, bounds }
    }

    /// Nodes for one resource kind, best first.
    pub fn nodes(&self, kind: ResourceKind) -> &[NodeId] {
        self.queues.get(kind)
    }

    /// Upper bound on the score achievable by any node at position `i`
    /// or later in `kind`'s queue.
    pub fn bound(&self, kind: ResourceKind, i: usize) -> f64 {
        self.bounds.get(kind)[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_simcore::units::ByteSize;

    fn views(cluster: &ClusterSpec) -> Vec<NodeView> {
        cluster
            .iter()
            .map(|(id, spec)| NodeView {
                node: id,
                executor_mem: spec.mem,
                mem_in_use: ByteSize::ZERO,
                free_mem: spec.mem,
                running: vec![],
                cpu_util: 0.0,
                net_util: 0.0,
                disk_util: 0.0,
                gpus_idle: spec.gpus,
                blocked: false,
                heartbeat_age: rupam_simcore::time::SimDuration::ZERO,
                dead: false,
                suspect: false,
                tier: rupam_cluster::NodeTier::OnDemand,
                draining: false,
                preempt_risk: 0.0,
            })
            .collect()
    }

    #[test]
    fn cpu_queue_leads_with_thor() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let best = q.best(ResourceKind::Cpu).unwrap();
        assert_eq!(cluster.node(best).class, "thor");
    }

    #[test]
    fn mem_queue_leads_with_hulk() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let best = q.best(ResourceKind::Mem).unwrap();
        assert_eq!(cluster.node(best).class, "hulk");
    }

    #[test]
    fn io_queue_leads_with_ssd() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let best = q.best(ResourceKind::Io).unwrap();
        assert!(cluster.node(best).disk.is_ssd);
    }

    #[test]
    fn gpu_queue_only_contains_gpu_nodes() {
        let cluster = ClusterSpec::hydra();
        let q = ResourceQueues::build(&cluster, &views(&cluster));
        let gpu_nodes = q.nodes(ResourceKind::Gpu);
        assert_eq!(gpu_nodes.len(), 2);
        for n in gpu_nodes {
            assert_eq!(cluster.node(*n).class, "stack");
        }
    }

    #[test]
    fn utilization_breaks_capability_ties() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        // load the first thor node's CPU
        vs[0].cpu_util = 0.9;
        let q = ResourceQueues::build(&cluster, &vs);
        let best = q.best(ResourceKind::Cpu).unwrap();
        assert_ne!(best, NodeId(0), "a loaded node must rank below idle peers");
        assert_eq!(cluster.node(best).class, "thor");
    }

    #[test]
    fn blocked_nodes_excluded() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        for v in vs.iter_mut() {
            v.blocked = true;
        }
        let q = ResourceQueues::build(&cluster, &vs);
        for kind in ResourceKind::ALL {
            assert!(q.nodes(kind).is_empty());
        }
    }

    #[test]
    fn cache_tracks_rebuild_through_mutations() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        let mut cache = NodeQueueCache::new();
        // a sequence of snapshot mutations: load CPUs, fill memory,
        // block a node, then idle everything again
        type Step = Box<dyn Fn(&mut Vec<NodeView>)>;
        let steps: Vec<Step> = vec![
            Box::new(|_| {}),
            Box::new(|vs| vs[0].cpu_util = 0.9),
            Box::new(|vs| {
                vs[7].mem_in_use = ByteSize::gib(30);
                vs[7].free_mem = vs[7].executor_mem.saturating_sub(ByteSize::gib(30));
            }),
            Box::new(|vs| vs[3].blocked = true),
            Box::new(|vs| {
                vs[3].blocked = false;
                vs[0].cpu_util = 0.0;
            }),
        ];
        for (i, step) in steps.iter().enumerate() {
            step(&mut vs);
            cache.refresh(&cluster, &vs, None);
            let findings = cache.verify(&cluster, &vs);
            assert!(findings.is_empty(), "step {i}: {findings:?}");
            let order = cache.order(&cluster);
            let reference = ResourceQueues::build(&cluster, &vs);
            for kind in ResourceKind::ALL {
                assert_eq!(
                    order.nodes(kind),
                    reference.nodes(kind),
                    "step {i} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn order_bounds_dominate_suffix_scores() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        vs[2].cpu_util = 0.5;
        vs[5].net_util = 0.7;
        let mut cache = NodeQueueCache::new();
        cache.refresh(&cluster, &vs, None);
        let order = cache.order(&cluster);
        for kind in ResourceKind::ALL {
            let nodes = order.nodes(kind);
            for i in 0..nodes.len() {
                for &n in &nodes[i..] {
                    let score = match kind {
                        ResourceKind::Cpu | ResourceKind::Gpu => cluster.node(n).capability(kind),
                        _ => remaining_capability(&cluster, &vs[n.index()], kind),
                    };
                    assert!(
                        order.bound(kind, i) >= score,
                        "{kind:?} bound at {i} misses node {n:?}"
                    );
                }
            }
        }
    }

    /// Regression for the GPU 0/0 score: a node with no GPUs (or a GPU
    /// node whose view reports zero idle GPUs and no running kernels)
    /// must never feed a NaN into a [`Rank`] — NaN sorts after every
    /// real under `total_cmp` and silently corrupts the rankings.
    #[test]
    fn pathological_views_never_rank_nan() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        // GPU node with zero idle GPUs and nothing running: the GPU
        // utilisation denominator is 0
        let stack = cluster.nodes_in_class("stack")[0];
        vs[stack.index()].gpus_idle = 0;
        // executor not yet sized: zero-memory capacity
        vs[1].executor_mem = ByteSize::ZERO;
        vs[1].mem_in_use = ByteSize::ZERO;
        vs[1].free_mem = ByteSize::ZERO;
        let mut cache = NodeQueueCache::new();
        cache.refresh(&cluster, &vs, None);
        for kind in ResourceKind::ALL {
            for v in &vs {
                assert!(
                    utilization(v, kind).is_finite(),
                    "{kind:?} utilisation NaN/inf on {:?}",
                    v.node
                );
            }
            for shard in &cache.shards {
                for r in shard.sets.get(kind) {
                    assert!(
                        r.remaining.is_finite() && r.util.is_finite(),
                        "{kind:?} rank for {:?} carries a non-finite key",
                        r.node
                    );
                }
            }
        }
        assert!(cache.verify(&cluster, &vs).is_empty());
    }

    /// A refresh driven by the engine's changed-set must land in the same
    /// state as a full re-score when the set covers everything that moved.
    #[test]
    fn changed_hint_refresh_matches_full() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        let mut hinted = NodeQueueCache::new();
        let mut full = NodeQueueCache::new();
        hinted.refresh(&cluster, &vs, None);
        full.refresh(&cluster, &vs, None);
        // two nodes move; only they appear in the delta
        vs[0].cpu_util = 0.8;
        vs[9].net_util = 0.6;
        hinted.refresh(&cluster, &vs, Some(&[NodeId(0), NodeId(9)]));
        full.refresh(&cluster, &vs, None);
        assert!(hinted.verify(&cluster, &vs).is_empty());
        let (h, f) = (hinted.order(&cluster), full.order(&cluster));
        for kind in ResourceKind::ALL {
            assert_eq!(h.nodes(kind), f.nodes(kind), "{kind:?}");
        }
        // an empty delta on a quiet round is a no-op, not a wipe
        hinted.refresh(&cluster, &vs, Some(&[]));
        assert!(hinted.verify(&cluster, &vs).is_empty());
    }

    /// Concatenating the per-shard dispatch queues and re-sorting by
    /// [`Rank`] must reproduce the flat global ordering, and every
    /// per-shard bound must dominate its suffix — the two facts the
    /// dispatcher's cross-shard merge rests on.
    #[test]
    fn sharded_order_merges_to_global() {
        let cluster = ClusterSpec::hydra_mix(4, 3, 2);
        let mut vs = views(&cluster);
        vs[1].cpu_util = 0.4;
        vs[5].disk_util = 0.9;
        for shard_count in [0usize, 1, 3, 5] {
            let mut cache = NodeQueueCache::with_shards(shard_count);
            cache.refresh(&cluster, &vs, None);
            let sharded = cache.sharded_order();
            let flat = cache.order(&cluster);
            for kind in ResourceKind::ALL {
                let mut merged: Vec<Rank> = (0..sharded.shard_count())
                    .flat_map(|s| sharded.ranks(s, kind).iter().copied())
                    .collect();
                merged.sort_unstable();
                let merged_nodes: Vec<NodeId> = merged.iter().map(|r| r.node).collect();
                assert_eq!(
                    merged_nodes,
                    flat.nodes(kind),
                    "shards={shard_count} {kind:?}"
                );
                for s in 0..sharded.shard_count() {
                    let ranks = sharded.ranks(s, kind);
                    for i in 0..ranks.len() {
                        for r in &ranks[i..] {
                            let score = match kind {
                                ResourceKind::Cpu | ResourceKind::Gpu => {
                                    cluster.node(r.node).capability(kind)
                                }
                                _ => remaining_capability(&cluster, &vs[r.node.index()], kind),
                            };
                            assert!(
                                sharded.bound(s, kind, i) >= score,
                                "shards={shard_count} {kind:?} shard {s} bound at {i}"
                            );
                        }
                    }
                    if ranks.is_empty() {
                        assert_eq!(sharded.top_bound(s, kind), f64::NEG_INFINITY);
                    } else {
                        assert_eq!(sharded.top_bound(s, kind), sharded.bound(s, kind, 0));
                    }
                }
            }
        }
    }

    /// Property test: randomised view churn — including a node dying and
    /// reviving *within one round* (blocked → dead → alive between two
    /// refreshes) and elastic-tier transitions (drain notice →
    /// decommission → re-provision, where the node leaves and re-enters
    /// the fleet without ever being marked dead) — keeps every shard's
    /// patched sets identical to a from-scratch rebuild, under both
    /// full and changed-set refreshes.
    #[test]
    fn property_patch_ordering_under_churn_and_revival() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cluster = ClusterSpec::hydra_mix(5, 4, 3);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for shard_count in [0usize, 4] {
            let mut vs = views(&cluster);
            let mut cache = NodeQueueCache::with_shards(shard_count);
            cache.refresh(&cluster, &vs, None);
            for round in 0..200 {
                let mut touched = Vec::new();
                for _ in 0..rng.gen_range(1usize..=4) {
                    let id = NodeId(rng.gen_range(0..cluster.len()));
                    touched.push(id);
                    let v = &mut vs[id.index()];
                    match rng.gen_range(0..9) {
                        0 => v.cpu_util = rng.gen_range(0.0..1.0),
                        1 => v.net_util = rng.gen_range(0.0..1.0),
                        2 => v.disk_util = rng.gen_range(0.0..1.0),
                        3 => {
                            let used = ByteSize::gib(rng.gen_range(0..16));
                            v.mem_in_use = used;
                            v.free_mem = v.executor_mem.saturating_sub(used);
                        }
                        4 => {
                            // death → revival within one refresh: the
                            // detector killed and re-admitted the node
                            // between offers, so the cache sees only the
                            // final (alive, idle) state and must re-rank
                            // it from whatever it held before
                            v.blocked = false;
                            v.dead = false;
                            v.cpu_util = 0.0;
                            v.net_util = 0.0;
                            v.disk_util = 0.0;
                        }
                        5 => {
                            // spot drain notice: the node stays alive but
                            // stops taking work until the reclaim fires
                            v.tier = rupam_cluster::NodeTier::Spot;
                            v.draining = true;
                            v.blocked = true;
                            v.preempt_risk = rng.gen_range(0.0..1.0);
                        }
                        6 => {
                            // controller decommission: out of the fleet
                            // without ever being dead
                            v.tier = rupam_cluster::NodeTier::Spot;
                            v.draining = false;
                            v.blocked = true;
                            v.preempt_risk = 0.0;
                        }
                        7 => {
                            // re-provision after a decommission (or a
                            // decommission→re-provision pair collapsed
                            // into one refresh): back in the fleet, idle,
                            // carrying fresh pool risk
                            v.tier = rupam_cluster::NodeTier::Spot;
                            v.draining = false;
                            v.blocked = false;
                            v.dead = false;
                            v.preempt_risk = rng.gen_range(0.0..0.5);
                            v.cpu_util = 0.0;
                            v.net_util = 0.0;
                            v.disk_util = 0.0;
                        }
                        _ => {
                            v.blocked = true;
                            v.dead = true;
                        }
                    }
                }
                let hint: Option<Vec<NodeId>> = rng.gen_bool(0.5).then(|| touched.clone());
                cache.refresh(&cluster, &vs, hint.as_deref());
                let findings = cache.verify(&cluster, &vs);
                assert!(
                    findings.is_empty(),
                    "shards={shard_count} round {round}: {findings:?}"
                );
            }
        }
    }

    #[test]
    fn gpu_utilization_accounts_running_kernels() {
        let cluster = ClusterSpec::hydra();
        let mut vs = views(&cluster);
        let stack_ids = cluster.nodes_in_class("stack");
        // stack1 busy on its one GPU
        let v = &mut vs[stack_ids[0].index()];
        v.gpus_idle = 0;
        v.running.push(rupam_exec::scheduler::RunningTaskView {
            task: rupam_dag::TaskRef {
                stage: rupam_dag::StageId(0),
                index: 0,
            },
            speculative: false,
            elapsed: rupam_simcore::SimDuration::ZERO,
            peak_mem: ByteSize::mib(100),
            on_gpu: true,
        });
        let q = ResourceQueues::build(&cluster, &vs);
        assert_eq!(
            q.best(ResourceKind::Gpu),
            Some(stack_ids[1]),
            "idle GPU node first"
        );
        assert!((utilization(&vs[stack_ids[0].index()], ResourceKind::Gpu) - 1.0).abs() < 1e-9);
    }
}
