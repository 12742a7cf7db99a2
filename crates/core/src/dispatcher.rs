//! The Dispatcher: Algorithm 2 (§III-C).
//!
//! Each offer round:
//!
//! 1. RM's Resource Queues rank the nodes per resource kind
//!    (capability ↓, utilisation ↑).
//! 2. The Dispatcher dequeues one node per resource kind in round-robin
//!    order "to make sure no task with a single resource type is
//!    starved", and matches it against the Task Queue of that kind.
//! 3. For the candidate task list it enforces the memory-feasibility
//!    check (`task.peakmemory ≤ node.freememory`), honours the
//!    best-executor lock (`historyresource.size = 5 ∧ optexecutor =
//!    node`), and picks the task with the best locality in the order
//!    PROCESS_LOCAL, NODE_LOCAL, RACK_LOCAL, ANY.
//!
//! Unlike stock Spark's one-task-per-core slots, a node is available "as
//! long as it has enough resources to execute a task" — the Dispatcher
//! over-commits nodes whose *other* resources are idle (§III-C2), bounded
//! by per-kind utilisation ceilings and an overall overcommit factor.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use rupam_simcore::units::ByteSize;

use rupam_cluster::resources::ResourceKind;
use rupam_cluster::NodeId;
use rupam_dag::app::StageId;
use rupam_dag::{Locality, TaskRef, TenantId};
use rupam_exec::scheduler::{Command, NodeView, OfferInput, PendingTaskView};
use rupam_metrics::trace::LaunchReason;

use crate::config::RupamConfig;
use crate::rm::{NodeQueueCache, Rank, ResourceQueues, ShardedOrder};
use crate::tm::TaskManager;

/// Per-node admission bookkeeping within one offer round (commands have
/// not been applied yet, so the Dispatcher accounts its own claims).
#[derive(Clone, Debug, Default)]
struct Claims {
    launches: usize,
    mem: ByteSize,
    cpu: usize,
    net: usize,
    io: usize,
    gpu: u32,
}

/// The per-kind node ranking a dispatch pass consumes: either rebuilt
/// from scratch for this round (the reference path) or served from the
/// scheduler's persistent sharded [`NodeQueueCache`] with early-exit
/// bounds per shard.
enum Ranking<'c> {
    Rebuilt(ResourceQueues),
    Cached(ShardedOrder<'c>),
}

/// Algorithm 2 over one offer snapshot.
pub struct Dispatcher<'a> {
    cfg: &'a RupamConfig,
    input: &'a OfferInput<'a>,
    /// Reference path only: pending views indexed eagerly. The
    /// incremental path instead binary-searches `input.pending` (already
    /// sorted by `(stage, index)`) and tracks launches in `launched`.
    pending: HashMap<TaskRef, &'a PendingTaskView>,
    launched: HashSet<TaskRef>,
    /// Production path: match probes read the Task Manager's persistent
    /// special/plain split (which the scheduler keeps in sync with the
    /// offer's views) instead of scanning whole queues.
    incremental: bool,
    claims: Vec<Claims>,
    /// Smallest peak-memory estimate among each kind queue's live
    /// candidates, refreshed each dispatch pass. A node whose free
    /// memory is below its kind's floor cannot launch *anything* from
    /// that queue, so [`Dispatcher::has_room`] reports it unavailable —
    /// otherwise a memory-full node at the top of a capability ranking
    /// blocks its whole kind for the round while lower-ranked nodes sit
    /// idle. `None` means the floor is unknown (queue empty or not yet
    /// computed) — the MEM arm then falls back to the conservative
    /// default estimate, the other arms admit vacuously.
    floors: [Option<ByteSize>; ResourceKind::COUNT],
    /// Incremental path only: one DB round-trip per task per round
    /// instead of one per (task, candidate-node) probe. The DB is not
    /// written during a round, so the memo can never go stale.
    peak_cache: RefCell<HashMap<TaskRef, ByteSize>>,
    lock_cache: RefCell<HashMap<TaskRef, Option<NodeId>>>,
    /// Tenant scope of the current matching pass. `None` (the default)
    /// is the shared pool — every probe considers every pending task,
    /// exactly the pre-tenant behaviour. Set per tenant by
    /// [`Dispatcher::run`] under an allocation order.
    tenant: Option<TenantId>,
    /// Tasks held back from piecemeal dispatch this round: members of a
    /// gang stage whose all-or-nothing plan did not fit. Invisible to
    /// every probe and to the safety valve.
    held: HashSet<TaskRef>,
}

impl<'a> Dispatcher<'a> {
    /// Prepare a dispatcher for one offer round (reference path: indexes
    /// all pending views up front, re-reads the DB on every probe).
    pub fn new(cfg: &'a RupamConfig, input: &'a OfferInput<'a>) -> Self {
        let pending = input.pending.iter().map(|p| (p.task, p)).collect();
        Self::build(cfg, input, pending, false)
    }

    /// Prepare a dispatcher that resolves pending views by binary search
    /// and memoises DB lookups for the duration of the round. Decisions
    /// are identical to [`Dispatcher::new`]; only the cost differs.
    pub fn new_incremental(cfg: &'a RupamConfig, input: &'a OfferInput<'a>) -> Self {
        debug_assert!(
            input
                .pending
                .windows(2)
                .all(|w| (w[0].task.stage, w[0].task.index) < (w[1].task.stage, w[1].task.index)),
            "OfferInput.pending must stay sorted by (stage, index)"
        );
        Self::build(cfg, input, HashMap::new(), true)
    }

    fn build(
        cfg: &'a RupamConfig,
        input: &'a OfferInput<'a>,
        pending: HashMap<TaskRef, &'a PendingTaskView>,
        incremental: bool,
    ) -> Self {
        Dispatcher {
            cfg,
            input,
            pending,
            launched: HashSet::new(),
            incremental,
            claims: vec![Claims::default(); input.nodes.len()],
            floors: [None; ResourceKind::COUNT],
            peak_cache: RefCell::new(HashMap::new()),
            lock_cache: RefCell::new(HashMap::new()),
            tenant: None,
            held: HashSet::new(),
        }
    }

    /// The pending view for `task`, if it is still dispatchable this
    /// round.
    fn view_of(&self, task: TaskRef) -> Option<&'a PendingTaskView> {
        if !self.held.is_empty() && self.held.contains(&task) {
            return None;
        }
        if !self.incremental {
            return self.pending.get(&task).copied();
        }
        if self.launched.contains(&task) {
            return None;
        }
        self.input
            .pending
            .binary_search_by(|p| (p.task.stage, p.task.index).cmp(&(task.stage, task.index)))
            .ok()
            .map(|i| &self.input.pending[i])
    }

    /// Mark `task` consumed by a launch.
    fn consume(&mut self, task: TaskRef) {
        if self.incremental {
            self.launched.insert(task);
        } else {
            self.pending.remove(&task);
        }
    }

    /// Not yet consumed by a launch this round (held or not).
    fn unconsumed(&self, task: TaskRef) -> bool {
        if self.incremental {
            !self.launched.contains(&task)
        } else {
            self.pending.contains_key(&task)
        }
    }

    /// Whether `task` belongs to the tenant scope of the current
    /// matching pass (vacuously true on the shared pool).
    fn in_scope(&self, tm: &TaskManager, task: TaskRef) -> bool {
        match self.tenant {
            None => true,
            Some(t) => tm.queues.tenant_of(&task) == t,
        }
    }

    /// A best-executor lock is only honoured while its target is alive:
    /// a lock pointing at a node the failure detector declared dead is
    /// released (and its memory-veto override with it) until the node is
    /// re-admitted and re-earns the lock.
    fn live_lock(&self, locked: Option<NodeId>) -> Option<NodeId> {
        locked.filter(|n| {
            self.input
                .nodes
                .get(n.index())
                .map(|v| !v.dead)
                .unwrap_or(false)
        })
    }

    /// One memoised DB round-trip: `(peak estimate, best-executor lock)`.
    fn cached_char(&self, tm: &TaskManager, view: &PendingTaskView) -> (ByteSize, Option<NodeId>) {
        let task = view.task;
        if let Some(&peak) = self.peak_cache.borrow().get(&task) {
            let locked = self.lock_cache.borrow()[&task];
            return (peak, locked);
        }
        let char = tm.lookup(view);
        let locked = self.live_lock(char.as_ref().and_then(|c| {
            if c.history_size() == ResourceKind::COUNT {
                c.best.map(|(n, _)| n)
            } else {
                None
            }
        }));
        let peak = if view.peak_mem_hint > ByteSize::ZERO {
            view.peak_mem_hint
        } else {
            match &char {
                Some(c) if c.peak_mem > ByteSize::ZERO => c.peak_mem,
                _ => self.cfg.unknown_task_mem_estimate,
            }
        };
        self.peak_cache.borrow_mut().insert(task, peak);
        self.lock_cache.borrow_mut().insert(task, locked);
        (peak, locked)
    }

    /// Estimated peak memory for admission: the observed peak when the
    /// task (or the DB) knows it, else a conservative default.
    fn peak_estimate(&self, tm: &TaskManager, view: &PendingTaskView) -> ByteSize {
        if self.incremental {
            return self.cached_char(tm, view).0;
        }
        if view.peak_mem_hint > ByteSize::ZERO {
            return view.peak_mem_hint;
        }
        if let Some(char) = tm.lookup(view) {
            if char.peak_mem > ByteSize::ZERO {
                return char.peak_mem;
            }
        }
        self.cfg.unknown_task_mem_estimate
    }

    /// The node a fully-characterised task is locked to, if any
    /// (`historyresource.size = 5 ∧ optexecutor` known).
    fn locked_best(&self, tm: &TaskManager, view: &PendingTaskView) -> Option<NodeId> {
        if self.incremental {
            return self.cached_char(tm, view).1;
        }
        self.live_lock(tm.lookup(view).and_then(|c| {
            if c.history_size() == ResourceKind::COUNT {
                c.best.map(|(n, _)| n)
            } else {
                None
            }
        }))
    }

    fn free_mem_after_claims(&self, node: NodeId) -> ByteSize {
        let v = &self.input.nodes[node.index()];
        v.free_mem.saturating_sub(self.claims[node.index()].mem)
    }

    /// §III-C2 availability: "a node is available as long as it has
    /// enough resources to execute a task" of the given kind.
    pub fn has_room(&self, node: NodeId, kind: ResourceKind) -> bool {
        self.has_room_floored(node, kind, self.floors[kind.index()])
    }

    /// [`Dispatcher::has_room`] against an explicit memory floor — the
    /// cheapest candidate the caller intends to place. Memory is a
    /// resource like any other: a node that cannot fit even that task
    /// is not available for this queue, no matter how much idle CPU or
    /// network it has. The GPU→CPU fallback passes the *GPU* queue's
    /// floor here, since that is what the picked CPU node must hold.
    fn has_room_floored(&self, node: NodeId, kind: ResourceKind, floor: Option<ByteSize>) -> bool {
        let v: &NodeView = &self.input.nodes[node.index()];
        if v.blocked {
            return false;
        }
        let spec = self.input.cluster.node(node);
        let claims = &self.claims[node.index()];
        let cap = (spec.cores as f64 * self.cfg.overcommit_factor).ceil() as usize;
        if v.running_count() + claims.launches >= cap {
            return false;
        }
        if kind != ResourceKind::Mem {
            // an unknown floor (empty queue) admits vacuously — no
            // candidate exists for the probe to launch anyway
            if let Some(f) = floor {
                if self.free_mem_after_claims(node) < f {
                    return false;
                }
            }
        }
        let cores = spec.cores as f64;
        // "fits after adding one more task" semantics: a ceiling of 1.0
        // admits exactly one task per idle core, like Spark, while lower
        // ceilings reserve headroom
        match kind {
            ResourceKind::Cpu => {
                v.cpu_util + (claims.cpu + 1) as f64 / cores <= self.cfg.cpu_util_ceiling + 1e-9
            }
            ResourceKind::Mem => {
                // a large-memory node has room as long as the *cheapest
                // actual candidate* fits — gating on the fixed default
                // estimate starved big nodes of known-small MEM tasks and
                // admitted known-huge ones it could never hold
                let needed = floor.unwrap_or(self.cfg.unknown_task_mem_estimate);
                self.free_mem_after_claims(node) >= needed
            }
            ResourceKind::Io => {
                v.disk_util + (claims.io + 1) as f64 * 0.25 <= self.cfg.disk_util_ceiling + 1e-9
            }
            ResourceKind::Net => {
                v.net_util + (claims.net + 1) as f64 * 0.25 <= self.cfg.net_util_ceiling + 1e-9
            }
            ResourceKind::Gpu => v.gpus_idle > claims.gpu,
        }
    }

    fn note_claim(&mut self, node: NodeId, kind: ResourceKind, mem: ByteSize) {
        let c = &mut self.claims[node.index()];
        c.launches += 1;
        c.mem += mem;
        match kind {
            ResourceKind::Cpu => c.cpu += 1,
            ResourceKind::Io => c.io += 1,
            ResourceKind::Net => c.net += 1,
            ResourceKind::Gpu => c.gpu += 1,
            ResourceKind::Mem => {}
        }
    }

    /// Per-kind utilisation including this round's own claims — the
    /// within-round counterpart of [`crate::rm::utilization`], using the
    /// same marginal-cost model as [`Dispatcher::has_room`].
    fn utilization_with_claims(&self, node: NodeId, kind: ResourceKind) -> f64 {
        let v = &self.input.nodes[node.index()];
        let claims = &self.claims[node.index()];
        let spec = self.input.cluster.node(node);
        match kind {
            ResourceKind::Cpu => v.cpu_util + claims.cpu as f64 / spec.cores as f64,
            ResourceKind::Mem => {
                let cap = v.executor_mem.as_f64();
                if cap <= 0.0 {
                    1.0
                } else {
                    (v.mem_in_use.as_f64() + claims.mem.as_f64()) / cap
                }
            }
            ResourceKind::Io => v.disk_util + claims.io as f64 * 0.25,
            ResourceKind::Net => v.net_util + claims.net as f64 * 0.25,
            ResourceKind::Gpu => {
                let total =
                    v.gpus_idle as f64 + v.running.iter().filter(|r| r.on_gpu).count() as f64;
                if total <= 0.0 {
                    1.0
                } else {
                    1.0 - v.gpus_idle.saturating_sub(claims.gpu) as f64 / total
                }
            }
        }
    }

    /// Dequeue the best node with room from `queue_kind`'s Resource
    /// Queue. Algorithm 2 keeps the queues "sorted based on both the
    /// capability and the current utilization", and within one round the
    /// round's own claims *are* utilisation the heartbeats have not seen
    /// yet — so the pick maximises the *per-task service capability* a
    /// new task would actually see:
    ///
    /// * CPU and GPU are per-unit resources — a free core (or device)
    ///   serves a task at full speed no matter how busy its neighbours
    ///   are, so capability stays flat until [`Dispatcher::has_room`]
    ///   says the node is saturated. Utilisation only breaks ties, which
    ///   rotates bursts across equally-capable peers.
    /// * Memory, network and disk are shared pools — every admitted task
    ///   shrinks what the next one gets, so remaining capability
    ///   `capability × (1 − utilisation-with-claims)` decays with each
    ///   claim and a large burst waterfills down the tiers instead of
    ///   starving the weaker nodes behind the head.
    ///
    /// On the incremental path the cached [`ShardedOrder`] carries, per
    /// shard and queue position, an upper bound on any later node's
    /// score — so the scan skips whole shards whose top bound cannot
    /// beat the incumbent and stops inside a shard as soon as the
    /// incumbent strictly beats the position bound (strictly: a later
    /// node may still tie the score and win the utilisation/load/rank
    /// tiebreak), instead of always walking the full queue.
    fn pick_node(
        &self,
        ranking: &Ranking<'_>,
        queue_kind: ResourceKind,
        floor: Option<ByteSize>,
    ) -> Option<NodeId> {
        match ranking {
            Ranking::Rebuilt(q) => self.pick_node_scan(q.nodes(queue_kind), queue_kind, floor),
            Ranking::Cached(order) => self.pick_node_sharded(order, queue_kind, floor),
        }
    }

    /// The pick score + tiebreak fields of one candidate node.
    ///
    /// Spot awareness: the score is discounted by the node's published
    /// preemption risk (`1 − min(1, spot_risk_penalty × risk)`), so a
    /// cheap-but-churning node loses ties against a safe peer and only
    /// wins when its raw capability margin outweighs the expected rework.
    /// The discount only ever shrinks a score, so the sharded queue's
    /// suffix-max bounds (computed risk-blind) remain sound upper bounds.
    fn pick_key(&self, n: NodeId, queue_kind: ResourceKind) -> (f64, f64, usize) {
        let util = self.utilization_with_claims(n, queue_kind).clamp(0.0, 1.0);
        let cap = self.input.cluster.node(n).capability(queue_kind);
        let score = match queue_kind {
            ResourceKind::Cpu | ResourceKind::Gpu => cap,
            ResourceKind::Mem | ResourceKind::Net | ResourceKind::Io => cap * (1.0 - util),
        };
        let risk = self.input.nodes[n.index()].preempt_risk;
        let score = score * (1.0 - (self.cfg.spot_risk_penalty * risk).clamp(0.0, 1.0));
        // this kind's utilisation can tie exactly (e.g. two idle
        // 1 GbE NICs) while the nodes are unequally busy overall —
        // prefer the emptier node then, and only then the snapshot
        // queue order (strict comparisons keep the earliest node)
        let load = self.input.nodes[n.index()].running_count() + self.claims[n.index()].launches;
        (score, util, load)
    }

    /// Reference path: full first-wins scan of a flat sorted queue.
    fn pick_node_scan(
        &self,
        nodes: &[NodeId],
        queue_kind: ResourceKind,
        floor: Option<ByteSize>,
    ) -> Option<NodeId> {
        let mut best: Option<(NodeId, f64, f64, usize)> = None;
        for &n in nodes {
            if !self.has_room_floored(n, queue_kind, floor) {
                continue;
            }
            let (score, util, load) = self.pick_key(n, queue_kind);
            let better = match best {
                None => true,
                Some((_, s, u, l)) => {
                    score > s || (score == s && (util < u || (util == u && load < l)))
                }
            };
            if better {
                best = Some((n, score, util, load));
            }
        }
        best.map(|(n, _, _, _)| n)
    }

    /// Incremental path: scan each shard's queue independently and merge
    /// the per-shard winners. The flat scan's winner is the lexicographic
    /// minimum of `(−score, util, load, queue position)` over admissible
    /// nodes, and queue position is exactly the [`Rank`] total order —
    /// so carrying the candidate's `Rank` as the final tiebreak makes
    /// the shard-merged pick byte-identical to the flat one, while the
    /// suffix-max bounds let whole shards be skipped once the incumbent
    /// strictly beats their best possible score.
    fn pick_node_sharded(
        &self,
        order: &ShardedOrder<'_>,
        queue_kind: ResourceKind,
        floor: Option<ByteSize>,
    ) -> Option<NodeId> {
        let mut best: Option<(NodeId, f64, f64, usize, Rank)> = None;
        for shard in 0..order.shard_count() {
            if let Some((_, s, _, _, _)) = best {
                if s > order.top_bound(shard, queue_kind) {
                    continue;
                }
            }
            for (i, r) in order.ranks(shard, queue_kind).iter().enumerate() {
                if let Some((_, s, _, _, _)) = best {
                    if s > order.bound(shard, queue_kind, i) {
                        break;
                    }
                }
                let n = r.node;
                if !self.has_room_floored(n, queue_kind, floor) {
                    continue;
                }
                let (score, util, load) = self.pick_key(n, queue_kind);
                let better = match &best {
                    None => true,
                    Some((_, s, u, l, br)) => {
                        score > *s
                            || (score == *s
                                && (util < *u
                                    || (util == *u && (load < *l || (load == *l && r < br)))))
                    }
                };
                if better {
                    best = Some((n, score, util, load, *r));
                }
            }
        }
        best.map(|(n, _, _, _, _)| n)
    }

    /// [`Dispatcher::schedule_task`] served from the TM's persistent
    /// special/plain split — `O(special + first plain fit)` instead of
    /// `O(queue)`, with zero per-round build cost. Decisions are
    /// byte-identical to the full queue scan, because a *plain* task can
    /// never trigger an early return (no lock ⇒ `locked_here` is false on
    /// every node; no preferences ⇒ its locality is always `ANY`), so the
    /// flat scan's winner is exactly the lexicographic minimum of
    /// `(locality, queue position)` over the special candidates plus the
    /// first plain task that fits. Entries are keyed by seat, and seat
    /// order is exactly queue order, so every position tiebreak is
    /// preserved. Launched tasks are already gone: [`Dispatcher::run_pass`]
    /// removes a match from the TM queues — and thereby from the split —
    /// before the next probe. A tenant pass reads the tenant's own shard
    /// of the split: same seat order, pre-filtered.
    ///
    /// The split classifies by *raw* lock (target liveness ignored); a
    /// dead-locked task lands on the special side where a live-lock
    /// classification would have kept it plain. That is decision-neutral:
    /// its live lock is `None` (no early return), its locality is `ANY`
    /// (no preferences), so it competes exactly as a plain task does — by
    /// queue position at `ANY` — just from the other scan.
    fn schedule_task_incremental(
        &self,
        tm: &TaskManager,
        kind: ResourceKind,
        node: NodeId,
    ) -> Option<(TaskRef, LaunchReason)> {
        let split = tm.queues.split(self.tenant)?;
        let free_mem = self.free_mem_after_claims(node);
        let mut best: Option<(u64, TaskRef, Locality)> = None;
        for (seat, task) in split.special(kind) {
            let Some(view) = self.view_of(task) else {
                continue;
            };
            let locked_here = self.locked_best(tm, view) == Some(node);
            if self.peak_estimate(tm, view) > free_mem {
                if locked_here {
                    return Some((
                        task,
                        LaunchReason::BestExecutorLock {
                            overrode_memory_veto: true,
                        },
                    ));
                }
                continue;
            }
            if locked_here {
                return Some((
                    task,
                    LaunchReason::BestExecutorLock {
                        overrode_memory_veto: false,
                    },
                ));
            }
            let loc = if self.cfg.use_locality {
                view.locality(self.input.cluster, node)
            } else {
                Locality::Any
            };
            if loc == Locality::ProcessLocal {
                return Some((
                    task,
                    LaunchReason::QueueMatch {
                        kind,
                        locality: loc,
                    },
                ));
            }
            if best.map(|(_, _, bl)| loc < bl).unwrap_or(true) {
                best = Some((seat, task, loc));
            }
        }

        let mut plain_pick: Option<(u64, TaskRef)> = None;
        if split.plain_floor(kind).is_some_and(|min| min <= free_mem) {
            for (seat, task, peak) in split.plain(kind) {
                if self.held.contains(&task) {
                    continue;
                }
                if peak <= free_mem {
                    plain_pick = Some((seat, task));
                    break;
                }
            }
        }

        let winner = match (best, plain_pick) {
            (Some((sseat, st, sloc)), Some((pseat, pt))) => {
                if sloc < Locality::Any || sseat < pseat {
                    Some((st, sloc))
                } else {
                    Some((pt, Locality::Any))
                }
            }
            (Some((_, st, sloc)), None) => Some((st, sloc)),
            (None, Some((_, pt))) => Some((pt, Locality::Any)),
            (None, None) => None,
        };
        winner.map(|(t, loc)| {
            (
                t,
                LaunchReason::QueueMatch {
                    kind,
                    locality: loc,
                },
            )
        })
    }

    /// Smallest peak estimate among a kind queue's live candidates (or
    /// the current tenant's), from the persistent split: the plain floor
    /// is the first key of the live peak multiset, the special side is
    /// scanned (it is small). The multiset counts gang-held tasks, so
    /// while anything is held the plain side is scanned too, skipping
    /// them — as the reference floor does.
    fn kind_floor_incremental(&self, tm: &TaskManager, kind: ResourceKind) -> Option<ByteSize> {
        let split = tm.queues.split(self.tenant)?;
        let special_min = split
            .special(kind)
            .filter_map(|(_, t)| self.view_of(t))
            .map(|v| self.peak_estimate(tm, v))
            .min();
        let plain_min = if self.held.is_empty() {
            split.plain_floor(kind)
        } else {
            split
                .plain(kind)
                .filter(|(_, t, _)| !self.held.contains(t))
                .map(|(_, _, peak)| peak)
                .min()
        };
        match (plain_min, special_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Algorithm 2's `schedule_task`: pick the task from `kind`'s queue
    /// that best matches `node`, and say why it won.
    fn schedule_task(
        &self,
        tm: &TaskManager,
        kind: ResourceKind,
        node: NodeId,
    ) -> Option<(TaskRef, LaunchReason)> {
        let free_mem = self.free_mem_after_claims(node);
        let mut best: Option<(TaskRef, Locality)> = None;
        for task in tm.queues.iter_kind(kind) {
            if !self.in_scope(tm, task) {
                continue;
            }
            let Some(view) = self.view_of(task) else {
                continue;
            };
            let locked_here = self.locked_best(tm, view) == Some(node);
            if self.peak_estimate(tm, view) > free_mem {
                // Algorithm 2 lines 12–16: the memory check is overridden
                // only for fully-characterised tasks locked to this node
                if locked_here {
                    return Some((
                        task,
                        LaunchReason::BestExecutorLock {
                            overrode_memory_veto: true,
                        },
                    ));
                }
                continue;
            }
            if locked_here {
                return Some((
                    task,
                    LaunchReason::BestExecutorLock {
                        overrode_memory_veto: false,
                    },
                ));
            }
            let loc = if self.cfg.use_locality {
                view.locality(self.input.cluster, node)
            } else {
                Locality::Any
            };
            if loc == Locality::ProcessLocal {
                return Some((
                    task,
                    LaunchReason::QueueMatch {
                        kind,
                        locality: loc,
                    },
                ));
            }
            if best.map(|(_, bl)| loc < bl).unwrap_or(true) {
                best = Some((task, loc));
            }
        }
        best.map(|(t, loc)| {
            (
                t,
                LaunchReason::QueueMatch {
                    kind,
                    locality: loc,
                },
            )
        })
    }

    /// Run the round-robin matching loop, consuming matched tasks from
    /// the TM queues. Returns launch commands. Reference path: rebuilds
    /// and re-sorts the Resource Queues from this round's snapshot. With
    /// a tenant allocation `order`, the loop serves each listed tenant's
    /// candidate slice in turn; tenants absent from `order` (over quota
    /// this round) receive nothing.
    pub fn dispatch(&mut self, tm: &mut TaskManager, order: Option<&[TenantId]>) -> Vec<Command> {
        let ranking =
            Ranking::Rebuilt(ResourceQueues::build(self.input.cluster, &self.input.nodes));
        self.run(tm, &ranking, order)
    }

    /// The incremental counterpart: diff the persistent node rankings
    /// against this round's snapshot (`O(changed · log n)`) and dispatch
    /// from the materialised order with early-exit bounds. Requires a
    /// dispatcher built with [`Dispatcher::new_incremental`].
    pub fn dispatch_incremental(
        &mut self,
        tm: &mut TaskManager,
        cache: &mut NodeQueueCache,
        order: Option<&[TenantId]>,
    ) -> Vec<Command> {
        cache.refresh_keys(
            self.input.cluster,
            &self.input.nodes,
            self.input.changed.as_deref(),
        );
        // With nothing pending the matching loop can only produce zero
        // launches (every TM-queue entry resolves to no dispatchable
        // view, and the safety valve needs a pending task too) — skip
        // the per-node claims allocation, the pick scans and even the
        // dispatch-queue materialisation outright. The re-keying above
        // still ran, so the ordered sets stay in sync and the queues
        // catch up lazily on the next busy round.
        if self.input.pending.is_empty() {
            return Vec::new();
        }
        cache.materialize_dirty(self.input.cluster);
        let ranking = Ranking::Cached(cache.sharded_order());
        self.run(tm, &ranking, order)
    }

    /// All-or-nothing admission for `gang: true` stages (the GPU
    /// Gramian sweep): every still-pending member of a gang stage must
    /// find a co-resident slot under this round's claims, or none
    /// launches and the whole stage is *held* out of piecemeal dispatch
    /// for the round. Failed plans roll their tentative claims back
    /// completely, so the ordinary dispatch that follows sees an
    /// untouched admission ledger. Call before [`Dispatcher::dispatch`] /
    /// [`Dispatcher::dispatch_incremental`].
    pub fn admit_gangs(&mut self, tm: &mut TaskManager) -> Vec<Command> {
        let mut stages: Vec<StageId> = Vec::new();
        for p in &self.input.pending {
            if self.input.app.stage(p.task.stage).gang && !stages.contains(&p.task.stage) {
                stages.push(p.task.stage);
            }
        }
        let mut out = Vec::new();
        for stage in stages {
            let members: Vec<&PendingTaskView> = self
                .input
                .pending
                .iter()
                .filter(|p| p.task.stage == stage && self.view_of(p.task).is_some())
                .collect();
            if members.is_empty() {
                continue;
            }
            let saved = self.claims.clone();
            let mut plan: Vec<(TaskRef, NodeId, bool, Locality)> = Vec::new();
            let mut fits = true;
            for view in &members {
                let peak = self.peak_estimate(tm, view);
                match self.gang_slot(view, peak) {
                    Some((node, use_gpu, locality)) => {
                        let kind = if use_gpu {
                            ResourceKind::Gpu
                        } else {
                            ResourceKind::Cpu
                        };
                        self.note_claim(node, kind, peak);
                        plan.push((view.task, node, use_gpu, locality));
                    }
                    None => {
                        fits = false;
                        break;
                    }
                }
            }
            if !fits {
                // all-or-nothing rollback: restore the admission ledger
                // and hold every member for the round
                self.claims = saved;
                for view in &members {
                    self.held.insert(view.task);
                }
                continue;
            }
            for (task, node, use_gpu, locality) in plan {
                tm.queues.remove(&task);
                self.consume(task);
                out.push(Command::Launch {
                    task,
                    node,
                    use_gpu,
                    speculative: false,
                    reason: LaunchReason::GangAdmission { locality },
                });
            }
        }
        out
    }

    /// One gang member's slot under the current claims: GPU slots are
    /// preferred for GPU-capable members (mirroring the GPU queue), then
    /// the best locality, then the node with the most post-claim free
    /// memory; node id breaks the final tie, so the plan is a pure
    /// function of the snapshot.
    fn gang_slot(
        &self,
        view: &PendingTaskView,
        peak: ByteSize,
    ) -> Option<(NodeId, bool, Locality)> {
        // (no GPU slot, locality, most free memory, node id): smallest wins
        type SlotKey = (bool, Locality, std::cmp::Reverse<ByteSize>, NodeId);
        let mut best: Option<(SlotKey, bool)> = None;
        for v in &self.input.nodes {
            let n = v.node;
            let gpu_ok =
                view.gpu_capable && self.has_room_floored(n, ResourceKind::Gpu, Some(peak));
            let cpu_ok = self.has_room_floored(n, ResourceKind::Cpu, Some(peak));
            if !gpu_ok && !cpu_ok {
                continue;
            }
            if self.free_mem_after_claims(n) < peak {
                continue;
            }
            let loc = if self.cfg.use_locality {
                view.locality(self.input.cluster, n)
            } else {
                Locality::Any
            };
            let key = (
                !gpu_ok,
                loc,
                std::cmp::Reverse(self.free_mem_after_claims(n)),
                n,
            );
            if best.as_ref().map(|(bk, _)| key < *bk).unwrap_or(true) {
                best = Some((key, gpu_ok));
            }
        }
        best.map(|((_, loc, _, n), use_gpu)| (n, use_gpu, loc))
    }

    /// The matching loop. On the shared pool every outer pass is one
    /// round-robin cycle over the resource kinds. Under a tenant `order`
    /// every outer pass serves each tenant one such cycle, in session
    /// order, so a burst from the first tenant cannot drain the whole
    /// cluster before later tenants see an offer. Claims are shared
    /// across tenants — the round admits exactly as much as the shared
    /// pool would, only distributed by the allocation policy.
    fn run(
        &mut self,
        tm: &mut TaskManager,
        ranking: &Ranking<'_>,
        order: Option<&[TenantId]>,
    ) -> Vec<Command> {
        let scopes: Vec<Option<TenantId>> = match order {
            None => vec![None],
            Some(order) => order.iter().copied().map(Some).collect(),
        };
        let mut cmds = Vec::new();
        loop {
            let mut launched_any = false;
            for &scope in &scopes {
                self.tenant = scope;
                launched_any |= self.run_pass(tm, ranking, &mut cmds);
            }
            if !launched_any {
                break;
            }
        }
        self.tenant = None;
        self.safety_valve(tm, &mut cmds);
        cmds
    }

    /// One round-robin cycle over the resource kinds (the body of the
    /// matching loop). Returns whether anything launched.
    fn run_pass(
        &mut self,
        tm: &mut TaskManager,
        ranking: &Ranking<'_>,
        cmds: &mut Vec<Command>,
    ) -> bool {
        let mut launched_any = false;
        for kind in ResourceKind::ALL {
            // refresh this kind's floor — claims consumed since the
            // last pass may have taken the cheapest candidate. A tenant
            // pass floors on the tenant's own candidates only.
            self.floors[kind.index()] = if self.incremental {
                self.kind_floor_incremental(tm, kind)
            } else {
                tm.queues
                    .iter_kind(kind)
                    .filter(|&t| self.in_scope(tm, t))
                    .filter_map(|t| self.view_of(t))
                    .map(|v| self.peak_estimate(tm, v))
                    .min()
            };
            let floor = self.floors[kind.index()];
            // next node from this kind's Resource Queue with room
            let mut node = self.pick_node(ranking, kind, floor);
            let mut fell_back_to_cpu = false;
            if node.is_none() && kind == ResourceKind::Gpu {
                // §III-C3: GPU tasks are not held hostage by busy
                // GPUs — fall back to the most powerful idle CPU,
                // one that can still hold the GPU queue's cheapest
                // candidate
                node = self.pick_node(ranking, ResourceKind::Cpu, floor);
                fell_back_to_cpu = node.is_some();
            }
            let Some(node) = node else { continue };
            let probe = if self.incremental {
                self.schedule_task_incremental(tm, kind, node)
            } else {
                self.schedule_task(tm, kind, node)
            };
            let Some((task, reason)) = probe else {
                continue;
            };
            let view = self.view_of(task).expect("scheduled task is pending");
            let use_gpu = kind == ResourceKind::Gpu
                && !fell_back_to_cpu
                && view.gpu_capable
                && self.input.nodes[node.index()].gpus_idle > self.claims[node.index()].gpu;
            let mem = self.peak_estimate(tm, view);
            let claim_kind = if fell_back_to_cpu {
                ResourceKind::Cpu
            } else {
                kind
            };
            self.note_claim(node, claim_kind, mem);
            tm.queues.remove(&task);
            self.consume(task);
            // a best-executor lock keeps its own reason even on the
            // fallback path — the lock, not the fallback, chose it
            let reason = match reason {
                LaunchReason::QueueMatch { locality, .. } if fell_back_to_cpu => {
                    LaunchReason::GpuCpuFallback { locality }
                }
                other => other,
            };
            cmds.push(Command::Launch {
                task,
                node,
                use_gpu,
                speculative: false,
                reason,
            });
            launched_any = true;
        }
        launched_any
    }

    /// Progress safety valve: if the whole cluster is idle and policy
    /// found nothing (e.g. every estimate exceeds free memory on the
    /// preferred nodes), force the first pending task onto the node
    /// with the most free memory — a stuck cluster is strictly worse
    /// than any placement. Gang-held tasks stay held: their stage
    /// blocks on co-residency, not on this round's estimates.
    fn safety_valve(&mut self, tm: &mut TaskManager, cmds: &mut Vec<Command>) {
        let cluster_idle = self
            .input
            .nodes
            .iter()
            .all(|v| v.running_count() + self.claims[v.node.index()].launches == 0);
        if cmds.is_empty() && cluster_idle {
            // prefer unheld work; but an idle cluster that STILL cannot
            // co-place a gang will never be able to — break the gang
            // open rather than deadlock
            let pick = self
                .input
                .pending
                .iter()
                .find(|p| !self.held.contains(&p.task) && self.unconsumed(p.task))
                .or_else(|| {
                    self.input
                        .pending
                        .iter()
                        .find(|p| self.held.contains(&p.task) && self.unconsumed(p.task))
                });
            if let Some(view) = pick {
                if let Some(node) = self
                    .input
                    .nodes
                    .iter()
                    .filter(|v| !v.blocked)
                    .max_by_key(|v| (v.free_mem, std::cmp::Reverse(v.node)))
                    .map(|v| v.node)
                {
                    tm.queues.remove(&view.task);
                    cmds.push(Command::Launch {
                        task: view.task,
                        node,
                        use_gpu: false,
                        speculative: false,
                        reason: LaunchReason::SafetyValve,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupam_cluster::ClusterSpec;
    use rupam_dag::app::{Application, StageId, StageKind};
    use rupam_simcore::time::SimTime;

    fn dummy_app() -> Application {
        use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
        let mut b = rupam_dag::AppBuilder::new("d");
        let j = b.begin_job();
        b.add_stage(
            j,
            "r",
            "d/r",
            StageKind::Result,
            vec![],
            vec![TaskTemplate {
                index: 0,
                input: InputSource::Generated,
                demand: TaskDemand::default(),
            }],
        );
        b.build()
    }

    fn views(cluster: &ClusterSpec) -> Vec<NodeView> {
        cluster
            .iter()
            .map(|(id, spec)| NodeView {
                node: id,
                executor_mem: spec.mem.saturating_sub(ByteSize::gib(2)),
                mem_in_use: ByteSize::ZERO,
                free_mem: spec.mem.saturating_sub(ByteSize::gib(2)),
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

    fn pview(index: usize, kind: StageKind) -> PendingTaskView {
        PendingTaskView {
            task: TaskRef {
                stage: StageId(0),
                index,
            },
            job: rupam_dag::app::JobId(0),
            template_key: "d/r".into(),
            stage_kind: kind,
            attempt_no: 0,
            peak_mem_hint: ByteSize::ZERO,
            gpu_capable: false,
            process_nodes: vec![],
            node_local: vec![],
        }
    }

    fn offer<'a>(
        cluster: &'a ClusterSpec,
        app: &'a Application,
        nodes: Vec<NodeView>,
        pending: Vec<PendingTaskView>,
    ) -> OfferInput<'a> {
        OfferInput {
            now: SimTime::ZERO,
            cluster,
            app,
            nodes,
            pending,
            speculatable: vec![],
            job_arrivals: vec![SimTime::ZERO],
            job_tenants: vec![rupam_dag::TenantId(0)],
            changed: None,
            pending_fresh: None,
        }
    }

    #[test]
    fn dispatches_pending_tasks_across_kinds() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        let pending: Vec<_> = (0..4).map(|i| pview(i, StageKind::ShuffleMap)).collect();
        let input = offer(&cluster, &app, views(&cluster), pending.clone());
        tm.submit_stage(app.stage(StageId(0)), &pending, SimTime::ZERO);
        let mut d = Dispatcher::new(&cfg, &input);
        let cmds = d.dispatch(&mut tm, None);
        assert_eq!(cmds.len(), 4, "all pending tasks launch: {cmds:?}");
        // each task launched exactly once
        let mut tasks: Vec<usize> = cmds
            .iter()
            .map(|c| match c {
                Command::Launch { task, .. } => task.index,
                _ => panic!(),
            })
            .collect();
        tasks.sort();
        assert_eq!(tasks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn memory_check_protects_small_nodes() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        // a task that needs 40 GiB: only hulk (62) and stack (46) fit
        let mut p = pview(0, StageKind::ShuffleMap);
        p.peak_mem_hint = ByteSize::gib(40);
        tm.submit_stage(app.stage(StageId(0)), &[p.clone()], SimTime::ZERO);
        let input = offer(&cluster, &app, views(&cluster), vec![p]);
        let mut d = Dispatcher::new(&cfg, &input);
        let cmds = d.dispatch(&mut tm, None);
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            Command::Launch { node, .. } => {
                let class = &cluster.node(*node).class;
                assert!(class == "hulk" || class == "stack", "picked {class}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn gpu_task_lands_on_gpu_node() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        let mut p = pview(0, StageKind::ShuffleMap);
        p.gpu_capable = true;
        // teach the TM that this stage uses GPUs (a sibling was observed
        // on one — §III-B2's stage-wide GPU marking)
        {
            use rupam_metrics::breakdown::TaskBreakdown;
            use rupam_metrics::record::{AttemptOutcome, TaskRecord};
            tm.record_finish(&TaskRecord {
                task: TaskRef {
                    stage: StageId(0),
                    index: 99,
                },
                job: rupam_dag::app::JobId(0),
                template_key: "d/r".into(),
                attempt: 0,
                node: NodeId(10),
                speculative: false,
                locality: rupam_dag::Locality::Any,
                launched_at: SimTime::ZERO,
                finished_at: SimTime::from_secs_f64(1.0),
                outcome: AttemptOutcome::Success,
                breakdown: TaskBreakdown::new(),
                peak_mem: ByteSize::mib(100),
                used_gpu: true,
            });
        }
        tm.submit_stage(app.stage(StageId(0)), &[p.clone()], SimTime::ZERO);
        let input = offer(&cluster, &app, views(&cluster), vec![p]);
        let mut d = Dispatcher::new(&cfg, &input);
        let cmds = d.dispatch(&mut tm, None);
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            Command::Launch { node, use_gpu, .. } => {
                assert_eq!(cluster.node(*node).class, "stack");
                assert!(use_gpu);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn locality_breaks_ties() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        // two CPU-bound-looking tasks; one NODE_LOCAL to the best thor
        let thor_best = {
            // determine which node the dispatcher will pick for CPU
            let input = offer(&cluster, &app, views(&cluster), vec![]);
            let q = crate::rm::ResourceQueues::build(&cluster, &input.nodes);
            q.best(ResourceKind::Cpu).unwrap()
        };
        let mut far = pview(0, StageKind::ShuffleMap);
        far.node_local = vec![]; // ANY everywhere
        let mut near = pview(1, StageKind::ShuffleMap);
        near.node_local = vec![thor_best];
        tm.submit_stage(
            app.stage(StageId(0)),
            &[far.clone(), near.clone()],
            SimTime::ZERO,
        );
        let input = offer(&cluster, &app, views(&cluster), vec![far, near]);
        let mut d = Dispatcher::new(&cfg, &input);
        let cmds = d.dispatch(&mut tm, None);
        // the first CPU dispatch must pick the NODE_LOCAL task (index 1)
        let first_cpu = cmds
            .iter()
            .find_map(|c| match c {
                Command::Launch { task, node, .. } if *node == thor_best => Some(task.index),
                _ => None,
            })
            .expect("something launched on the best thor");
        assert_eq!(first_cpu, 1, "locality should break the tie");
    }

    #[test]
    fn overcommit_cap_respected() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig {
            overcommit_factor: 1.0,
            ..RupamConfig::default()
        };
        let mut tm = TaskManager::new(cfg.clone());
        let pending: Vec<_> = (0..500).map(|i| pview(i, StageKind::ShuffleMap)).collect();
        tm.submit_stage(app.stage(StageId(0)), &pending, SimTime::ZERO);
        let input = offer(&cluster, &app, views(&cluster), pending);
        let mut d = Dispatcher::new(&cfg, &input);
        let cmds = d.dispatch(&mut tm, None);
        // at factor 1.0 no more than total cores can launch
        assert!(cmds.len() <= cluster.total_cores() as usize);
        // per node: count
        let mut per_node = vec![0usize; cluster.len()];
        for c in &cmds {
            if let Command::Launch { node, .. } = c {
                per_node[node.index()] += 1;
            }
        }
        for (i, &n) in per_node.iter().enumerate() {
            assert!(
                n <= cluster.node(NodeId(i)).cores as usize,
                "node {i} got {n} tasks with overcommit 1.0"
            );
        }
    }

    #[test]
    fn incremental_dispatch_matches_rebuild() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        // enough tasks to force multiple passes, partial launches and
        // the memory floor into play; some carry placement preferences
        // so both sides of the persistent split are probed
        let mut pending: Vec<_> = (0..64).map(|i| pview(i, StageKind::ShuffleMap)).collect();
        for (i, p) in pending.iter_mut().enumerate() {
            if i % 5 == 0 {
                p.peak_mem_hint = ByteSize::gib(4);
            }
            if i % 11 == 0 {
                p.peak_mem_hint = ByteSize::gib(40);
            }
            if i % 7 == 3 {
                p.node_local = vec![NodeId(i % cluster.len())];
            }
        }
        // the shared pool, then the same tasks split over two tenants
        // and served in a tenant allocation order
        let mut owned = pending.clone();
        for (i, p) in owned.iter_mut().enumerate() {
            p.job = rupam_dag::app::JobId(i % 2);
        }
        let tenant_cfg = RupamConfig {
            allocation: crate::alloc::AllocationPolicy::WeightedFair,
            ..RupamConfig::default()
        };
        let order = [TenantId(1), TenantId(0)];
        let cases = [
            (RupamConfig::default(), pending, None),
            (tenant_cfg, owned, Some(&order[..])),
        ];
        for (cfg, pending, order) in cases {
            let input = offer(&cluster, &app, views(&cluster), pending.clone());
            let submit = || {
                let mut tm = TaskManager::new(cfg.clone());
                tm.note_tenants(&[TenantId(0), TenantId(1)]);
                tm.submit_stage(app.stage(StageId(0)), &pending, SimTime::ZERO);
                tm
            };

            let rebuilt = Dispatcher::new(&cfg, &input).dispatch(&mut submit(), order);
            let mut cache = NodeQueueCache::new();
            let incremental = Dispatcher::new_incremental(&cfg, &input).dispatch_incremental(
                &mut submit(),
                &mut cache,
                order,
            );

            assert!(!rebuilt.is_empty());
            assert_eq!(
                format!("{rebuilt:?}"),
                format!("{incremental:?}"),
                "the two paths must emit identical command sequences (order {order:?})"
            );
        }
    }

    #[test]
    fn held_gang_tasks_stay_out_of_the_incremental_floor() {
        use rupam_dag::task::{InputSource, TaskDemand, TaskTemplate};
        let cluster = ClusterSpec::hydra();
        let template = || {
            vec![TaskTemplate {
                index: 0,
                input: InputSource::Generated,
                demand: TaskDemand::default(),
            }]
        };
        let mut b = rupam_dag::AppBuilder::new("g");
        let j = b.begin_job();
        let gang = b.add_stage(j, "g", "g/g", StageKind::ShuffleMap, vec![], template());
        b.mark_gang(gang);
        b.add_stage(j, "m", "g/m", StageKind::Result, vec![gang], template());
        let app = b.build();
        // a gang stage too wide for the cluster's slots, so its plan
        // fails and all of it is held, with cheaper peaks than the
        // ordinary stage queued beside it: a floor that counted the held
        // tasks would admit the 14 GiB thor nodes, where no unheld task
        // fits
        let mut pending = Vec::new();
        for i in 0..400 {
            let mut p = pview(i, StageKind::ShuffleMap);
            p.template_key = "g/g".into();
            p.peak_mem_hint = ByteSize::gib(1);
            pending.push(p);
        }
        for i in 0..16 {
            let mut p = pview(i, StageKind::Result);
            p.task.stage = StageId(1);
            p.template_key = "g/m".into();
            p.peak_mem_hint = ByteSize::gib(20);
            pending.push(p);
        }
        let cfg = RupamConfig {
            gang_admission: true,
            ..RupamConfig::default()
        };
        let input = offer(&cluster, &app, views(&cluster), pending.clone());
        let submit = || {
            let mut tm = TaskManager::new(cfg.clone());
            tm.submit_stage(app.stage(StageId(0)), &pending[..400], SimTime::ZERO);
            tm.submit_stage(app.stage(StageId(1)), &pending[400..], SimTime::ZERO);
            tm
        };

        let mut tm = submit();
        let mut d = Dispatcher::new(&cfg, &input);
        let mut rebuilt = d.admit_gangs(&mut tm);
        assert!(rebuilt.is_empty(), "the gang plan must fail");
        rebuilt.extend(d.dispatch(&mut tm, None));

        let mut tm = submit();
        let mut cache = NodeQueueCache::new();
        let mut d = Dispatcher::new_incremental(&cfg, &input);
        let mut incremental = d.admit_gangs(&mut tm);
        incremental.extend(d.dispatch_incremental(&mut tm, &mut cache, None));

        assert!(!rebuilt.is_empty());
        assert_eq!(
            format!("{rebuilt:?}"),
            format!("{incremental:?}"),
            "held gang members must not lower the incremental memory floor"
        );
    }

    #[test]
    fn db_write_refiles_queued_tasks_under_its_key() {
        use rupam_metrics::breakdown::TaskBreakdown;
        use rupam_metrics::record::{AttemptOutcome, TaskRecord};
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let pending: Vec<_> = (0..16).map(|i| pview(i, StageKind::ShuffleMap)).collect();
        // queued at the unknown-task estimate, then another copy of each
        // task (same template and index, so the same cross-job DB key)
        // finishes at 20 GiB: a split left at the old estimate would
        // admit the 14 GiB thor nodes the reference now rejects
        let prepare = || {
            let mut tm = TaskManager::new(cfg.clone());
            tm.submit_stage(app.stage(StageId(0)), &pending, SimTime::ZERO);
            for i in 0..16 {
                tm.record_finish(&TaskRecord {
                    task: TaskRef {
                        stage: StageId(1),
                        index: i,
                    },
                    job: rupam_dag::app::JobId(1),
                    template_key: "d/r".into(),
                    attempt: 0,
                    node: NodeId(6),
                    speculative: false,
                    locality: rupam_dag::Locality::Any,
                    launched_at: SimTime::ZERO,
                    finished_at: SimTime::from_secs_f64(1.0),
                    outcome: AttemptOutcome::Success,
                    breakdown: TaskBreakdown::new(),
                    peak_mem: ByteSize::gib(20),
                    used_gpu: false,
                });
            }
            tm
        };
        let input = offer(&cluster, &app, views(&cluster), pending.clone());
        let rebuilt = Dispatcher::new(&cfg, &input).dispatch(&mut prepare(), None);
        let mut cache = NodeQueueCache::new();
        let incremental = Dispatcher::new_incremental(&cfg, &input).dispatch_incremental(
            &mut prepare(),
            &mut cache,
            None,
        );
        assert!(!rebuilt.is_empty());
        assert_eq!(format!("{rebuilt:?}"), format!("{incremental:?}"));
    }

    #[test]
    fn safety_valve_fires_on_idle_cluster() {
        let cluster = ClusterSpec::hydra();
        let app = dummy_app();
        let cfg = RupamConfig::default();
        let mut tm = TaskManager::new(cfg.clone());
        // a task so large no estimate fits anywhere
        let mut p = pview(0, StageKind::ShuffleMap);
        p.peak_mem_hint = ByteSize::gib(200);
        tm.submit_stage(app.stage(StageId(0)), &[p.clone()], SimTime::ZERO);
        let input = offer(&cluster, &app, views(&cluster), vec![p]);
        let mut d = Dispatcher::new(&cfg, &input);
        let cmds = d.dispatch(&mut tm, None);
        assert_eq!(cmds.len(), 1, "valve must keep the cluster moving");
        match &cmds[0] {
            Command::Launch { node, .. } => {
                // most free memory = a hulk node
                assert_eq!(cluster.node(*node).class, "hulk");
            }
            _ => panic!(),
        }
    }
}
