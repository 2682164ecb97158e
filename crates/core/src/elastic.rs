//! Elastic MDS autoscaling (ROADMAP item 3, λFS-style).
//!
//! λFS (ASPLOS'24) shows a serverless-elastic metadata service beating
//! statically provisioned clusters on cost at equal latency; CFS supplies
//! the diurnal traffic shapes that make it pay off. This module adds that
//! capability as the sixth strategy
//! ([`StrategyKind::ElasticSubtree`](dynmds_partition::StrategyKind)):
//! the cluster is *provisioned* with `n_mds` nodes but only keeps a
//! load-determined subset *active*.
//!
//! * **Signal** — the same smoothed per-node heartbeat load the §4.3
//!   balancer uses (`hb_ewma`: served + miss-weighted misses), averaged
//!   over live nodes and normalized to a per-second rate. Watermarks with
//!   sustain counters (the controller's analogue of `busy_streak`) plus a
//!   post-action cooldown keep it from flapping.
//! * **Scale-out** — the lowest-indexed standby node is activated and
//!   pays the §4.6 cold-start cost: one sequential journal read plus
//!   per-record replay to re-warm its cache from its last tenure's
//!   working set (empty on first activation — a true cold start). The
//!   balancer then migrates load onto it over subsequent heartbeats, as
//!   it would onto any recovered node.
//! * **Scale-in** — *voluntary departure*, deliberately distinct from
//!   crash failover: the least-loaded node first hands every delegation
//!   (with its cached state) to the surviving nodes via the balancer's
//!   own migration path, sends clients redirects for the routes that
//!   named it, and only then releases its RAM. Nothing is lost and no
//!   request ever times out against a parked node.
//!
//! Determinism: the controller runs inside the heartbeat (a fixed event
//! grid), reads only simulation state, and draws nothing from any RNG,
//! so elastic runs are byte-identical across reruns; with `enabled =
//! false` every code path multiplies by the same branches as before and
//! static runs stay bit-for-bit unchanged.

use dynmds_event::SimTime;
use dynmds_namespace::MdsId;

use crate::cluster::Cluster;
use crate::config::ElasticConfig;

/// A scaling action the policy asks its engine for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Scale {
    /// Activate a standby node.
    Out,
    /// Park a live node.
    In,
}

/// Mutable controller state, one per cluster and one per sharded run.
/// Inert (all zeros, all nodes active) unless [`ElasticConfig::enabled`]
/// is set.
#[derive(Clone, Debug)]
pub struct ElasticState {
    /// Nodes currently parked *by the controller* — disjoint from
    /// crashed nodes, which are `!alive` but not standby.
    pub standby: Vec<bool>,
    /// Consecutive heartbeats the live mean sat above the high watermark.
    pub high_streak: u32,
    /// Consecutive heartbeats the live mean sat below the low watermark.
    pub low_streak: u32,
    /// Heartbeats remaining before the controller may act again.
    pub cooldown: u32,
    /// Standby activations performed.
    pub scale_outs: u64,
    /// Voluntary departures performed.
    pub scale_ins: u64,
    /// Provisioned capacity consumed so far, in node-microseconds,
    /// integrated at heartbeat granularity.
    pub provisioned_node_us: u64,
    /// Upper edge of the last accounted interval.
    pub last_account: SimTime,
}

impl ElasticState {
    /// Fresh state for an `n`-node pool, everything active.
    pub fn new(n: usize) -> Self {
        ElasticState {
            standby: vec![false; n],
            high_streak: 0,
            low_streak: 0,
            cooldown: 0,
            scale_outs: 0,
            scale_ins: 0,
            provisioned_node_us: 0,
            last_account: SimTime::ZERO,
        }
    }

    /// Provisioned capacity in node-seconds.
    pub fn provisioned_node_secs(&self) -> f64 {
        self.provisioned_node_us as f64 / 1e6
    }

    /// One heartbeat of the watermark/sustain/cooldown policy, shared by
    /// both engines. Integrates provisioned node-time under the `live`
    /// nodes that held since the last tick, then judges `mean_rate` (the
    /// engine's mean per-live-node load per second; `None` clears the
    /// streaks) and returns the action the policy wants. The engine picks
    /// the node and reports a taken action through [`Self::scaled`].
    pub(crate) fn tick(
        &mut self,
        e: &ElasticConfig,
        now: SimTime,
        live: usize,
        mean_rate: Option<f64>,
    ) -> Option<Scale> {
        // Membership only changes inside ticks, so this is exact.
        self.provisioned_node_us +=
            live as u64 * now.saturating_since(self.last_account).as_micros();
        self.last_account = self.last_account.max(now);
        let Some(rate) = mean_rate else {
            (self.high_streak, self.low_streak) = (0, 0);
            return None;
        };
        if rate > e.high_load_per_s {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if rate < e.low_load_per_s {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if self.high_streak >= e.sustain {
            Some(Scale::Out)
        } else if self.low_streak >= e.sustain && live > e.min_nodes.max(1) as usize {
            Some(Scale::In)
        } else {
            None
        }
    }

    /// The engine carried out `action`: its streak restarts and the
    /// cooldown begins.
    pub(crate) fn scaled(&mut self, e: &ElasticConfig, action: Scale) {
        match action {
            Scale::Out => self.high_streak = 0,
            Scale::In => self.low_streak = 0,
        }
        self.cooldown = e.cooldown_heartbeats;
    }
}

impl Cluster {
    /// Construction-time provisioning for elastic runs: the pool holds
    /// `n_mds` nodes but only `min_nodes` start active. The initial
    /// partition is re-delegated onto the active set (a deployment-time
    /// decision: no costs, no migration counters) and clients are told
    /// the starting membership, so nothing ever routes to a parked node.
    pub(crate) fn park_initial_standby(&mut self) {
        let n = self.nodes.len();
        let min = (self.cfg.elastic.min_nodes.max(1) as usize).min(n);
        for parked in min..n {
            if let Some(sub) = self.partition.as_subtree() {
                let owned = sub.delegations_of(MdsId(parked as u16));
                for (k, root) in owned.into_iter().enumerate() {
                    let heir = MdsId((k % min) as u16);
                    self.partition.as_subtree_mut().expect("subtree").delegate(root, heir);
                    // Marked imported: when the pool scales out these are
                    // the first trees the balancer hands back.
                    self.imported[heir.index()].push(root);
                }
            }
            self.alive[parked] = false;
            self.elastic.standby[parked] = true;
        }
        self.clients.set_membership(&self.alive);
    }

    /// One controller step, run from the heartbeat (after the EWMA
    /// update, before rebalancing). Accounts provisioned node-time, then
    /// applies the watermark/sustain/cooldown policy.
    pub(crate) fn elastic_tick(&mut self, now: SimTime) {
        let e = self.cfg.elastic;
        let mean_rate = self.live_load_mean() / self.cfg.heartbeat.as_secs_f64();
        match self.elastic.tick(&e, now, self.live_nodes(), Some(mean_rate)) {
            Some(Scale::Out) => {
                // Lowest-indexed standby node; crashed nodes are not
                // eligible (they come back through recovery, not scaling).
                let candidate =
                    (0..self.nodes.len()).find(|&i| self.elastic.standby[i] && !self.alive[i]);
                if let Some(i) = candidate {
                    self.activate_node(now, MdsId(i as u16));
                    self.elastic.scaled(&e, Scale::Out);
                }
            }
            Some(Scale::In) => {
                // Least-loaded live node departs; index breaks ties.
                let victim = (0..self.nodes.len())
                    .filter(|&i| self.alive[i])
                    .min_by(|&a, &b| {
                        self.hb_ewma[a]
                            .partial_cmp(&self.hb_ewma[b])
                            .expect("finite")
                            .then(a.cmp(&b))
                    })
                    .expect("live nodes exist");
                self.deactivate_node(now, MdsId(victim as u16));
                self.elastic.scaled(&e, Scale::In);
            }
            None => {}
        }
    }

    /// Provisioned node-seconds consumed by `now`: the integral kept by
    /// the heartbeat ticks plus the still-open interval since the last
    /// tick, under the current live population.
    pub fn provisioned_node_secs(&self, now: SimTime) -> f64 {
        let open = now.saturating_since(self.elastic.last_account).as_micros();
        (self.elastic.provisioned_node_us + self.live_nodes() as u64 * open) as f64 / 1e6
    }

    /// Scale-out: brings a standby node into service, paying the §4.6
    /// cold-start cost (journal replay + cache warming — empty, hence
    /// free, on first-ever activation).
    pub fn activate_node(&mut self, now: SimTime, mds: MdsId) {
        if self.alive[mds.index()] {
            return;
        }
        self.alive[mds.index()] = true;
        self.elastic.standby[mds.index()] = false;
        self.elastic.scale_outs += 1;
        self.obs.on_scale_out();
        if self.cfg.journal_warming {
            self.warm_own_journal(now, mds);
        }
        self.clients.set_membership(&self.alive);
    }

    /// Scale-in: voluntary departure. Hands every delegation (and its
    /// cached state) to the remaining live nodes through the balancer's
    /// migration path, redirects clients, then parks the node.
    pub fn deactivate_node(&mut self, now: SimTime, mds: MdsId) {
        if !self.alive[mds.index()] || self.live_nodes() <= 1 {
            return;
        }
        // Heirs: live peers, least-loaded first; subtrees round-robin
        // over them so one peer doesn't inherit everything.
        let mut heirs: Vec<usize> =
            (0..self.nodes.len()).filter(|&i| self.alive[i] && i != mds.index()).collect();
        heirs.sort_by(|&a, &b| {
            self.hb_ewma[a].partial_cmp(&self.hb_ewma[b]).expect("finite").then(a.cmp(&b))
        });
        let owned = match self.partition.as_subtree() {
            Some(sub) => sub.delegations_of(mds),
            None => Vec::new(),
        };
        for (k, root) in owned.into_iter().enumerate() {
            let heir = MdsId(heirs[k % heirs.len()] as u16);
            self.migrate_subtree(now, root, mds, heir);
        }

        // The departing node's goodbye: clients that knew it as an
        // authority are redirected to the new owners (disjoint field
        // borrows: routes mutate, partition/namespace only read).
        let (clients, partition, ns) = (&mut self.clients, &self.partition, &self.ns);
        if let Some(sub) = partition.as_subtree() {
            clients.redirect_routes(mds, |item| sub.authority(ns, item));
        }

        // Now it can stop serving and release its RAM — after the
        // handoff, unlike a crash, so nothing is lost.
        self.alive[mds.index()] = false;
        self.elastic.standby[mds.index()] = true;
        self.hb_ewma[mds.index()] = 0.0;
        self.busy_streak[mds.index()] = 0;
        self.hb_served[mds.index()] = 0;
        self.hb_misses[mds.index()] = 0;
        let cap = self.cfg.cache_capacity;
        self.nodes[mds.index()].cache = dynmds_cache::MetaCache::new(cap);
        self.elastic.scale_ins += 1;
        self.obs.on_scale_in();
        self.clients.set_membership(&self.alive);
    }
}

#[cfg(test)]
mod tests {
    use dynmds_event::SimTime;
    use dynmds_namespace::{MdsId, NamespaceSpec, Snapshot};
    use dynmds_partition::StrategyKind;

    use crate::cluster::Cluster;
    use crate::config::SimConfig;
    use crate::testutil::NullWorkload;

    fn elastic_cluster() -> Cluster {
        let mut cfg = SimConfig::small(StrategyKind::ElasticSubtree);
        cfg.n_mds = 4;
        cfg.n_clients = 8;
        cfg.seed = 1;
        cfg.elastic.min_nodes = 2;
        cfg.elastic.sustain = 2;
        cfg.elastic.cooldown_heartbeats = 0;
        let snap: Snapshot = NamespaceSpec { users: 8, seed: 2, ..Default::default() }.generate();
        Cluster::new(cfg, snap, Box::new(NullWorkload { n: 8 }))
    }

    #[test]
    fn pool_starts_at_min_nodes_with_no_orphan_delegations() {
        let c = elastic_cluster();
        assert_eq!(c.live_nodes(), 2);
        assert!(c.elastic.standby[2] && c.elastic.standby[3]);
        let sub = c.partition.as_subtree().unwrap();
        for (_, owner) in sub.delegations() {
            assert!(c.is_alive_node(owner), "no delegation names a parked node");
        }
    }

    #[test]
    fn sustained_overload_activates_standby_nodes() {
        let mut c = elastic_cluster();
        let hb = c.cfg.heartbeat.as_secs_f64();
        let hot = (c.cfg.elastic.high_load_per_s * hb * 2.0) as u64;
        for k in 1..=3u64 {
            for i in 0..2 {
                c.hb_served[i] = hot;
            }
            c.heartbeat(SimTime::from_secs(5 * k));
        }
        assert_eq!(c.elastic.scale_outs, 1, "one activation after the sustain window");
        assert_eq!(c.live_nodes(), 3);
        assert!(!c.elastic.standby[2], "lowest-indexed standby joined");
    }

    #[test]
    fn sustained_idle_parks_down_to_the_floor() {
        let mut c = elastic_cluster();
        // Activate everything first.
        c.activate_node(SimTime::from_secs(1), MdsId(2));
        c.activate_node(SimTime::from_secs(1), MdsId(3));
        assert_eq!(c.live_nodes(), 4);
        for k in 1..=12u64 {
            c.heartbeat(SimTime::from_secs(5 * k)); // zero load throughout
        }
        assert_eq!(c.live_nodes(), 2, "parked down to min_nodes, never below");
        assert_eq!(c.elastic.scale_ins, 2);
        let sub = c.partition.as_subtree().unwrap();
        for (_, owner) in sub.delegations() {
            assert!(c.is_alive_node(owner), "handoff left no orphan delegations");
        }
    }

    #[test]
    fn departure_hands_off_state_instead_of_losing_it() {
        let mut c = elastic_cluster();
        let victim = MdsId(0);
        let sub = c.partition.as_subtree().unwrap();
        let owned = sub.delegations_of(victim);
        assert!(!owned.is_empty(), "victim owns subtrees initially");
        // Cache something under an owned subtree at the victim.
        let root = owned[0];
        let item = c.ns.walk(root).find(|&i| !c.ns.is_dir(i)).unwrap_or(root);
        let mut chain: Vec<_> = c.ns.ancestors(item).collect();
        chain.reverse();
        for anc in chain.into_iter().chain(std::iter::once(item)) {
            let parent = c.ns.parent(anc).unwrap().filter(|p| c.nodes[0].cache.peek(*p));
            let kind = if c.ns.is_dir(anc) {
                dynmds_cache::InsertKind::Prefix
            } else {
                dynmds_cache::InsertKind::Target
            };
            c.nodes[0].cache.insert(anc, parent, kind);
        }
        c.deactivate_node(SimTime::from_secs(2), victim);
        assert!(!c.is_alive_node(victim));
        assert_eq!(c.failures, 0, "departure is not a crash");
        let sub = c.partition.as_subtree().unwrap();
        let new_owner = sub.authority(&c.ns, item);
        assert_ne!(new_owner, victim);
        assert!(c.is_alive_node(new_owner));
        assert!(
            c.nodes[new_owner.index()].cache.peek(item),
            "cached state migrated with the subtree"
        );
        assert_eq!(c.migrations as usize, owned.len(), "one migration per delegation");
    }

    #[test]
    fn provisioned_node_seconds_track_the_live_population() {
        let mut c = elastic_cluster();
        c.heartbeat(SimTime::from_secs(5)); // 2 live × 5 s
        assert_eq!(c.elastic.provisioned_node_us, 2 * 5_000_000);
        c.activate_node(SimTime::from_secs(5), MdsId(2));
        c.heartbeat(SimTime::from_secs(10)); // 3 live × 5 s more
        assert_eq!(c.elastic.provisioned_node_us, 2 * 5_000_000 + 3 * 5_000_000);
    }

    #[test]
    fn controller_is_inert_when_disabled() {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = 4;
        cfg.n_clients = 8;
        cfg.seed = 1;
        let snap: Snapshot = NamespaceSpec { users: 8, seed: 2, ..Default::default() }.generate();
        let mut c = Cluster::new(cfg, snap, Box::new(NullWorkload { n: 8 }));
        assert_eq!(c.live_nodes(), 4, "static strategies keep the full pool");
        for k in 1..=6u64 {
            c.heartbeat(SimTime::from_secs(5 * k));
        }
        assert_eq!(c.live_nodes(), 4);
        assert_eq!(c.elastic.scale_outs + c.elastic.scale_ins, 0);
        assert_eq!(c.elastic.provisioned_node_us, 0, "no accounting when disabled");
    }
}
