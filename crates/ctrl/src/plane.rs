//! The control plane: N admitted policies live on one shared data path.
//!
//! [`CtrlPlane`] owns the shared switch
//! ([`SharedSwitch`](superfe_switch::tenant::SharedSwitch)) and the shared
//! streaming NIC ([`SharedStreamingNic`](superfe_nic::SharedStreamingNic)),
//! and sequences reconfiguration in **epochs**:
//!
//! 1. [`CtrlPlane::attach`] gates the candidate policy (optimize → compile
//!    → static analysis, the same `superfe_core::deploy::gate` every solo
//!    path uses), then consults the SF07xx cross-policy equivalence
//!    analysis (`superfe_policy::analyze::equiv`): if the candidate is
//!    provably equivalent to an already-deployed policy — same canonical
//!    hash, same deployment config, proven value-range match, and the
//!    shared plan still at stream position zero — it **fuses**, joining
//!    the existing execution unit's demux fan-out with zero marginal
//!    hardware demand. Otherwise its demand composes with the admitted
//!    set through the admission controller before the plane installs a
//!    new filter entry, cache partition, and NIC engine set.
//! 2. [`CtrlPlane::detach`] picks the handshake by unit population: a
//!    unit's sole member drains its switch partition into the event
//!    stream and finalizes destructively; a member of a fused unit gets a
//!    **snapshot** detach — the partition is cloned and flushed
//!    non-destructively and the NIC finalizes a clone of the unit engine,
//!    so the departing member's output is bitwise what a solo detach
//!    would return while the surviving members' state is never touched.
//!
//! Below whole-plan fusion sits **SF08xx prefix sharing** (cross-tenant
//! CSE): when a candidate is *not* equivalent to any live plan but its
//! switch prefix — parse, groupby chain, filter conjunct set — hashes
//! equal to a live partition's and the SF08xx value certificate holds
//! ([`superfe_policy::analyze::share::certify_prefix`]), the candidate's
//! execution unit subscribes to that partition's event stream instead of
//! installing its own. Units then nest inside **groups**: a group is one
//! switch partition; each of its units is one NIC engine set with its own
//! map/reduce tail; fused tenants share a unit via demux. Prefix joins are
//! position-gated like fusion, and the partition's record layout is
//! widened to the canonical metadata union at join time (lossless: the
//! gate guarantees the partition is empty). Admission composes switch
//! demand once per group and NIC demand once per unit
//! ([`crate::admission::admit_composed`]).
//!
//! Untouched tenants lose or duplicate zero vectors across either
//! operation: their partitions, engines, and channels are never touched,
//! and the epoch markers travel in-band so they cannot reorder against
//! event frames. Fusion preserves the same contract through the demux
//! fan-out: every fused member receives its own copy of every vector
//! under its own egress numbering. Prefix sharing preserves it through
//! the soundness fact the certificate encodes: the MGPV event stream —
//! record content *and* eviction timing — is fully determined by the
//! shared prefix, so every unit observes exactly the stream its solo
//! partition would have produced.

use superfe_core::pipeline::SuperFeConfig;
use superfe_net::{Granularity, PacketRecord};
use superfe_nic::{Scorer, SharedStreamingNic, StreamOutput, UnitPressure};
use superfe_policy::analyze::{codes, equiv, share as pshare, Diagnostic};
use superfe_policy::{NicProgram, Policy, SwitchProgram};
use superfe_switch::resources::{compose, model, SwitchResources};
use superfe_switch::tenant::{
    union_metadata, SharedSwitch, SharedSwitchStats, TaggedEvent, TenantId,
};
use superfe_switch::{MgpvStats, SwitchStats};

use crate::admission::{
    admit_composed, admit_composed_observed, AdmissionReport, StatePressure, TenantDemand,
};
use crate::error::{AdmissionError, CtrlError};

/// A policy a tenant asks to deploy.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (the bundled-app name or file stem).
    pub name: String,
    /// The policy itself.
    pub policy: Policy,
    /// Deployment configuration; `cfg.cache` is the tenant's cache quota.
    pub cfg: SuperFeConfig,
}

/// One live tenant and the execution unit serving it.
pub(crate) struct Slot {
    pub(crate) id: TenantId,
    pub(crate) name: String,
    pub(crate) unit: TenantId,
    /// Whether the tenant's egress runs an in-shard scorer (its alerts are
    /// not part of a plane snapshot).
    pub(crate) scored: bool,
}

/// One deployed execution unit: a NIC engine set that one or more
/// SF07xx-equivalent tenants share, fed by the switch partition of the
/// group it belongs to.
pub(crate) struct Unit {
    pub(crate) id: TenantId,
    pub(crate) hash: u64,
    pub(crate) policy: Policy,
    pub(crate) cfg: SuperFeConfig,
    pub(crate) demand: TenantDemand,
    pub(crate) members: Vec<TenantId>,
    /// The prefix group (switch partition) whose event stream feeds this
    /// unit; equals `id` unless the unit joined via an SF08xx prefix
    /// share.
    pub(crate) group: TenantId,
    /// Stream position (packets pushed) when the unit attached; a
    /// candidate may only fuse while the plane is still at this position,
    /// otherwise the shared plan would owe the late member history.
    pub(crate) attach_pos: u64,
}

/// One deployed switch partition and the units subscribed to its event
/// stream. A group with more than one unit is an SF08xx prefix share: one
/// parse → groupby → filter pipeline and one MGPV cache serving several
/// per-tenant map/reduce tails.
pub(crate) struct Group {
    pub(crate) id: TenantId,
    /// The certified switch-prefix hash
    /// ([`pshare::PrefixForm::switch_prefix`]) every member agrees on.
    pub(crate) prefix: u64,
    /// The founding representative's policy — the certification anchor
    /// later candidates are checked against.
    pub(crate) policy: Policy,
    pub(crate) cfg: SuperFeConfig,
    /// Modeled demand of the partition under its current (union) record
    /// layout; recomputed when a join widens the layout.
    pub(crate) switch: SwitchResources,
    /// The granularity chain, compared structurally at join time as a
    /// belt-and-braces check behind the prefix hash.
    pub(crate) levels: Vec<Granularity>,
    /// Stream position when the partition attached; prefix joins are
    /// gated on the plane still being at this position, which also
    /// guarantees the partition is empty when its layout is widened.
    pub(crate) attach_pos: u64,
    pub(crate) units: Vec<TenantId>,
}

/// One tenant's final output at plane shutdown.
#[derive(Debug)]
pub struct TenantRun {
    /// The tenant id.
    pub id: TenantId,
    /// The tenant's display name.
    pub name: String,
    /// Its isolated extraction output.
    pub output: StreamOutput,
}

/// One live tenant's observed NIC state occupancy (see
/// [`CtrlPlane::state_occupancy`]).
#[derive(Clone, Debug)]
pub struct TenantOccupancy {
    /// The tenant id.
    pub tenant: TenantId,
    /// The tenant's display name.
    pub name: String,
    /// Live group population per granularity level of the tenant's
    /// execution unit (summed across NIC shards; fused members report
    /// their shared unit's population).
    pub groups_per_level: Vec<(Granularity, usize)>,
    /// Group inserts refused because the unit's DRAM overflow table was at
    /// its budget.
    pub overflow_drops: u64,
    /// Groups evicted by the unit's table budget policy.
    pub evicted_groups: u64,
}

/// The multi-tenant control plane over one shared switch + NIC.
pub struct CtrlPlane {
    pub(crate) analyze: superfe_core::analyze::AnalyzeConfig,
    pub(crate) switch: SharedSwitch,
    pub(crate) nic: SharedStreamingNic,
    pub(crate) slots: Vec<Slot>,
    pub(crate) units: Vec<Unit>,
    pub(crate) groups: Vec<Group>,
    pub(crate) fusion: bool,
    pub(crate) cse: bool,
    pub(crate) next_id: u16,
    pub(crate) frame: Vec<TaggedEvent>,
    pub(crate) epoch: u64,
    pub(crate) pushed: u64,
}

impl CtrlPlane {
    /// A plane with `workers` NIC shards and the given hardware model for
    /// admission (budget, NFP, expected group population, headroom), with
    /// analysis-certified cross-policy fusion and SF08xx prefix sharing
    /// enabled.
    pub fn new(workers: usize, analyze: superfe_core::analyze::AnalyzeConfig) -> Self {
        Self::build(workers, analyze, true, true)
    }

    /// Like [`CtrlPlane::new`] but with all cross-tenant sharing disabled
    /// — no SF07xx fusion and no SF08xx prefix sharing: every tenant gets
    /// its own partition and engines even when provably equivalent (the
    /// baseline the sharing benchmarks compare against).
    pub fn without_fusion(workers: usize, analyze: superfe_core::analyze::AnalyzeConfig) -> Self {
        Self::build(workers, analyze, false, false)
    }

    /// Like [`CtrlPlane::new`] but with only SF08xx prefix sharing
    /// disabled: provably-equivalent whole plans still fuse, but tenants
    /// that merely share a switch prefix get separate partitions.
    pub fn without_cse(workers: usize, analyze: superfe_core::analyze::AnalyzeConfig) -> Self {
        Self::build(workers, analyze, true, false)
    }

    pub(crate) fn build(
        workers: usize,
        analyze: superfe_core::analyze::AnalyzeConfig,
        fusion: bool,
        cse: bool,
    ) -> Self {
        CtrlPlane {
            analyze,
            switch: SharedSwitch::new(),
            nic: SharedStreamingNic::new(workers),
            slots: Vec::new(),
            units: Vec::new(),
            groups: Vec::new(),
            fusion,
            cse,
            next_id: 0,
            frame: Vec::new(),
            epoch: 0,
            pushed: 0,
        }
    }

    /// Number of NIC shards.
    pub fn workers(&self) -> usize {
        self.nic.workers()
    }

    /// Sets the group-table budget (DRAM cap + eviction policy) applied to
    /// every tenant attached after this call — how the CLI pins
    /// `RandomWay` to an explicit `--evict-seed` so eviction sequences are
    /// reproducible run to run.
    pub fn set_table_budget(&mut self, budget: superfe_nic::TableBudget) {
        self.nic.set_table_budget(budget);
    }

    /// Whether analysis-certified cross-policy fusion is enabled.
    pub fn fusion_enabled(&self) -> bool {
        self.fusion
    }

    /// Whether SF08xx cross-tenant prefix sharing is enabled.
    pub fn cse_enabled(&self) -> bool {
        self.cse
    }

    /// Completed reconfiguration epochs (each attach/detach is one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Packets pushed through the plane so far. A plane restored from a
    /// snapshot resumes at the saved count, so a caller replaying a
    /// deterministic trace knows exactly where to pick up.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Live tenants in attach order.
    pub fn tenants(&self) -> Vec<(TenantId, &str)> {
        self.slots.iter().map(|s| (s.id, s.name.as_str())).collect()
    }

    /// Live execution units in creation order, each with its member count
    /// (fused units serve more than one tenant).
    pub fn units(&self) -> Vec<(TenantId, usize)> {
        self.units.iter().map(|u| (u.id, u.members.len())).collect()
    }

    /// Live switch partitions in creation order, each with its unit count
    /// (SF08xx prefix-shared partitions feed more than one unit).
    pub fn groups(&self) -> Vec<(TenantId, usize)> {
        self.groups.iter().map(|g| (g.id, g.units.len())).collect()
    }

    /// Link-level counters of the shared switch.
    pub fn switch_stats(&self) -> &SharedSwitchStats {
        self.switch.stats()
    }

    /// Per-tenant switch link counters. For a fused or prefix-shared
    /// tenant these are the shared partition's counters: subscribers of
    /// one partition see one stream.
    pub fn tenant_switch_stats(&self, tenant: TenantId) -> Option<&SwitchStats> {
        self.switch.tenant_stats(self.group_of(tenant)?)
    }

    /// Per-tenant cache counters (the shared partition's, when shared).
    pub fn tenant_cache_stats(&self, tenant: TenantId) -> Option<MgpvStats> {
        self.switch.tenant_cache_stats(self.group_of(tenant)?)
    }

    /// The live state-pressure summary for admission: observed per-level
    /// group populations in plane unit order (the order admission sees NIC
    /// programs in). Synchronizes with every shard, so the observation is
    /// not stale.
    fn live_pressure(&mut self) -> Result<StatePressure, CtrlError> {
        let raw = self.nic.state_pressure()?;
        let per_unit = self
            .units
            .iter()
            .map(|u| {
                raw.iter()
                    .find(|p| p.unit == u.id)
                    .map(|p| p.groups_per_level.iter().map(|&(_, n)| n).collect())
                    .unwrap_or_default()
            })
            .collect();
        Ok(StatePressure { per_unit })
    }

    /// Observed NIC state occupancy per live tenant, in attach order.
    /// Fused members report their shared unit's population; the counters
    /// also surface overflow drops and budget evictions so operators can
    /// see when a tenant is running into its memory budget.
    pub fn state_occupancy(&mut self) -> Result<Vec<TenantOccupancy>, CtrlError> {
        let raw: Vec<UnitPressure> = self.nic.state_pressure()?;
        Ok(self
            .slots
            .iter()
            .map(|s| {
                let p = raw.iter().find(|p| p.unit == s.unit);
                TenantOccupancy {
                    tenant: s.id,
                    name: s.name.clone(),
                    groups_per_level: p.map(|p| p.groups_per_level.clone()).unwrap_or_default(),
                    overflow_drops: p.map_or(0, |p| p.overflow_drops),
                    evicted_groups: p.map_or(0, |p| p.evicted_groups),
                }
            })
            .collect())
    }

    /// The execution unit serving `tenant`.
    fn unit_of(&self, tenant: TenantId) -> Option<TenantId> {
        self.slots.iter().find(|s| s.id == tenant).map(|s| s.unit)
    }

    /// The switch partition feeding `tenant`'s unit.
    fn group_of(&self, tenant: TenantId) -> Option<TenantId> {
        let unit = self.unit_of(tenant)?;
        self.units.iter().find(|u| u.id == unit).map(|u| u.group)
    }

    /// The unit index `spec` may fuse into, per the SF07xx legality rule:
    /// equal canonical hash, identical deployment config, the unit still
    /// at the candidate's stream position, and semantic equivalence
    /// (value ranges, units, saturation) proven against the
    /// representative.
    fn fusion_target(&self, spec: &TenantSpec, hash: u64) -> Option<usize> {
        if !self.fusion {
            return None;
        }
        let vc = self.analyze.value_config();
        self.units.iter().position(|u| {
            u.hash == hash
                && u.cfg == spec.cfg
                && u.attach_pos == self.pushed
                && equiv::check_equivalence(&u.policy, &spec.policy, &vc).is_ok()
        })
    }

    /// The group index whose switch partition `spec` may subscribe to,
    /// per the SF08xx legality rule: equal switch-prefix hash, identical
    /// deployment config (the cache quota and mode fully determine MGPV
    /// behavior), structurally equal granularity chain, the partition
    /// still at the candidate's stream position, and the value
    /// certificate ([`pshare::certify_prefix`]) proven against the
    /// group's founding representative.
    fn prefix_target(
        &self,
        spec: &TenantSpec,
        demand: &TenantDemand,
        prefix: u64,
    ) -> Option<usize> {
        if !self.cse {
            return None;
        }
        let vc = self.analyze.value_config();
        self.groups.iter().position(|g| {
            g.prefix == prefix
                && g.cfg == spec.cfg
                && g.attach_pos == self.pushed
                && g.levels == demand.compiled.switch.levels
                && pshare::certify_prefix(&g.policy, &spec.policy, &vc).is_ok()
        })
    }

    /// Models the demand of group `gpos`'s partition after widening its
    /// record layout to the canonical metadata union of every member
    /// program plus the candidate's.
    fn widened_usage(&self, gpos: usize, demand: &TenantDemand) -> SwitchResources {
        let gid = self.groups[gpos].id;
        let mut progs: Vec<&SwitchProgram> = self
            .units
            .iter()
            .filter(|u| u.group == gid)
            .map(|u| &u.demand.compiled.switch)
            .collect();
        progs.push(&demand.compiled.switch);
        let union = SwitchProgram {
            filter: demand.compiled.switch.filter.clone(),
            levels: demand.compiled.switch.levels.clone(),
            metadata: union_metadata(&progs),
        };
        model(&union, &self.groups[gpos].cfg.cache)
    }

    /// Dry-runs admission for `spec` against the currently-admitted set
    /// without deploying anything. The verdict's warnings carry an SF0703
    /// note when fusion changes the composed demand — either because the
    /// candidate itself would fuse (zero marginal demand) or because the
    /// admitted set already shares plans.
    pub fn admission_check(&self, spec: &TenantSpec) -> Result<AdmissionReport, AdmissionError> {
        let demand = self.gate(spec)?;
        let vc = self.analyze.value_config();
        let hash = equiv::canonical_hash(&spec.policy, &vc);
        let fused_into = self.fusion_target(spec, hash);
        let shared_into = if fused_into.is_none() {
            let prefix = pshare::prefix_form(&spec.policy, &vc).switch_prefix;
            self.prefix_target(spec, &demand, prefix)
        } else {
            None
        };
        let mut switch: Vec<SwitchResources> = self.groups.iter().map(|g| g.switch).collect();
        let mut nics: Vec<&NicProgram> =
            self.units.iter().map(|u| &u.demand.compiled.nic).collect();
        if let Some(gpos) = shared_into {
            switch[gpos] = self.widened_usage(gpos, &demand);
            nics.push(&demand.compiled.nic);
        } else if fused_into.is_none() {
            switch.push(demand.switch);
            nics.push(&demand.compiled.nic);
        }
        let mut report = admit_composed(&self.analyze, &switch, &nics)?;
        // Surface the fusion headroom: what the same tenant set would cost
        // with one partition + engine set per tenant.
        let mut unfused: Vec<SwitchResources> = self
            .slots
            .iter()
            .filter_map(|s| {
                self.units
                    .iter()
                    .find(|u| u.id == s.unit)
                    .map(|u| u.demand.switch)
            })
            .collect();
        unfused.push(demand.switch);
        if unfused.len() > nics.len() {
            let solo = compose(&unfused);
            let mut note = format!(
                "cross-policy fusion serves {} tenants with {} plans: composed switch demand \
                 {} sALUs / {} tables (unfused: {} sALUs / {} tables)",
                unfused.len(),
                nics.len(),
                report.switch.salus,
                report.switch.tables,
                solo.salus,
                solo.tables,
            );
            if let Some(pos) = fused_into {
                note.push_str(&format!(
                    "; candidate is SF07xx-equivalent to unit {} and adds zero marginal demand",
                    self.units[pos].id
                ));
            }
            report
                .warnings
                .push(Diagnostic::note(codes::FUSION_HEADROOM, note));
        }
        // Surface the prefix-sharing saving: units vs the partitions that
        // feed them.
        if switch.len() < nics.len() {
            let mut note = format!(
                "prefix sharing serves {} execution units on {} switch partition(s)",
                nics.len(),
                switch.len(),
            );
            if let Some(gpos) = shared_into {
                note.push_str(&format!(
                    "; candidate shares partition {}'s certified switch prefix and its marginal \
                     demand is NIC-only",
                    self.groups[gpos].id
                ));
            }
            report
                .warnings
                .push(Diagnostic::note(codes::SHARE_SAVING, note));
        }
        Ok(report)
    }

    /// Admits and deploys `spec` at the current epoch. `scorer`, when given,
    /// is the tenant's private egress: a detector scoring every vector the
    /// tenant egresses inside the NIC shard that computed it (fused members
    /// each carry their own). Its alerts come back in the tenant's
    /// [`StreamOutput::inline_alerts`].
    ///
    /// Packets pushed before this call never reach the new tenant; packets
    /// pushed after all do. Other tenants are unaffected. When the SF07xx
    /// analysis certifies the candidate equivalent to a live unit (see
    /// [`CtrlPlane::admission_check`]), the tenant joins that unit's demux
    /// fan-out instead of consuming new hardware; its observable output is
    /// bitwise identical either way.
    pub fn attach(
        &mut self,
        spec: &TenantSpec,
        scorer: Option<Scorer>,
    ) -> Result<TenantId, CtrlError> {
        let demand = self.gate(spec)?;
        let vc = self.analyze.value_config();
        let hash = equiv::canonical_hash(&spec.policy, &vc);
        if let Some(pos) = self.fusion_target(spec, hash) {
            let unit_id = self.units[pos].id;
            let id = TenantId(self.next_id);
            let scored = scorer.is_some();
            self.nic.join(unit_id, id, scorer)?;
            self.next_id = self.next_id.checked_add(1).expect("tenant id space");
            self.units[pos].members.push(id);
            self.slots.push(Slot {
                id,
                name: spec.name.clone(),
                unit: unit_id,
                scored,
            });
            self.epoch += 1;
            return Ok(id);
        }
        let prefix = pshare::prefix_form(&spec.policy, &vc).switch_prefix;
        if let Some(gpos) = self.prefix_target(spec, &demand, prefix) {
            return self.attach_to_group(spec, demand, hash, gpos, scorer);
        }
        // Admission with population feedback: already-loaded units are
        // modeled at their observed group population, the candidate at the
        // static worst-case estimate.
        let pressure = self.live_pressure()?;
        let mut switch: Vec<SwitchResources> = self.groups.iter().map(|g| g.switch).collect();
        switch.push(demand.switch);
        let mut nics: Vec<&NicProgram> =
            self.units.iter().map(|u| &u.demand.compiled.nic).collect();
        nics.push(&demand.compiled.nic);
        admit_composed_observed(&self.analyze, &switch, &nics, &pressure)?;
        let id = TenantId(self.next_id);
        self.next_id = self.next_id.checked_add(1).expect("tenant id space");
        if !self.switch.attach(
            id,
            demand.compiled.switch.clone(),
            spec.cfg.cache,
            spec.cfg.mode,
        ) {
            return Err(CtrlError::Switch(
                "degenerate cache configuration for tenant partition".into(),
            ));
        }
        let scored = scorer.is_some();
        if let Err(e) = self
            .nic
            .attach(id, &demand.compiled, spec.cfg.cache.fg_table_size, scorer)
        {
            // Roll the switch half back so the plane stays consistent.
            let mut discard = Vec::new();
            self.switch.detach_into(id, &mut discard);
            return Err(CtrlError::Nic(e));
        }
        self.groups.push(Group {
            id,
            prefix,
            policy: spec.policy.clone(),
            cfg: spec.cfg,
            switch: demand.switch,
            levels: demand.compiled.switch.levels.clone(),
            attach_pos: self.pushed,
            units: vec![id],
        });
        self.units.push(Unit {
            id,
            hash,
            policy: spec.policy.clone(),
            cfg: spec.cfg,
            demand,
            members: vec![id],
            group: id,
            attach_pos: self.pushed,
        });
        self.slots.push(Slot {
            id,
            name: spec.name.clone(),
            unit: id,
            scored,
        });
        self.epoch += 1;
        Ok(id)
    }

    /// Subscribes a new execution unit for `spec` to group `gpos`'s
    /// switch partition (the SF08xx prefix-share attach path). The
    /// position gate guarantees the partition is empty, so re-attaching
    /// it with the widened canonical-union record layout is lossless.
    fn attach_to_group(
        &mut self,
        spec: &TenantSpec,
        demand: TenantDemand,
        hash: u64,
        gpos: usize,
        scorer: Option<Scorer>,
    ) -> Result<TenantId, CtrlError> {
        let gid = self.groups[gpos].id;
        // Admission: the candidate's marginal demand is its NIC engine
        // set plus whatever the widened record layout costs the shared
        // partition. Existing units are modeled at their observed group
        // population.
        let pressure = self.live_pressure()?;
        let widened = self.widened_usage(gpos, &demand);
        let mut switch: Vec<SwitchResources> = self.groups.iter().map(|g| g.switch).collect();
        switch[gpos] = widened;
        let mut nics: Vec<&NicProgram> =
            self.units.iter().map(|u| &u.demand.compiled.nic).collect();
        nics.push(&demand.compiled.nic);
        admit_composed_observed(&self.analyze, &switch, &nics, &pressure)?;
        let id = TenantId(self.next_id);
        // NIC first — it is the fallible half; the switch re-attach below
        // cannot fail for a configuration the group already validated.
        let scored = scorer.is_some();
        self.nic.attach_to_group(
            gid,
            id,
            &demand.compiled,
            spec.cfg.cache.fg_table_size,
            scorer,
        )?;
        self.next_id = self.next_id.checked_add(1).expect("tenant id space");
        // Swap the partition in for one with the union record layout. The
        // position gate makes this lossless: nothing has been routed
        // since the group attached, so the partition holds no state.
        self.frame.clear();
        self.switch.detach_into(gid, &mut self.frame);
        debug_assert!(
            self.frame.is_empty(),
            "position-gated partition must be empty at a prefix join"
        );
        self.frame.clear();
        let mut progs: Vec<&SwitchProgram> = self
            .units
            .iter()
            .filter(|u| u.group == gid)
            .map(|u| &u.demand.compiled.switch)
            .collect();
        progs.push(&demand.compiled.switch);
        let ok = self
            .switch
            .attach_shared(gid, &progs, spec.cfg.cache, spec.cfg.mode);
        debug_assert!(ok, "re-attaching a validated partition cannot fail");
        self.groups[gpos].switch = widened;
        self.groups[gpos].units.push(id);
        self.units.push(Unit {
            id,
            hash,
            policy: spec.policy.clone(),
            cfg: spec.cfg,
            demand,
            members: vec![id],
            group: gid,
            attach_pos: self.pushed,
        });
        self.slots.push(Slot {
            id,
            name: spec.name.clone(),
            unit: id,
            scored,
        });
        self.epoch += 1;
        Ok(id)
    }

    /// Detaches `tenant` at the current epoch, returning its complete
    /// isolated output. Blocks until every NIC shard acked the epoch.
    ///
    /// The handshake is picked by population, innermost shared layer
    /// first: a member of a fused unit is finalized against a snapshot of
    /// the shared engine state; the sole member of a unit whose partition
    /// feeds *other* units finalizes its own engines against a partition
    /// snapshot (the partition survives for the other subscribers); the
    /// sole member of a partition's sole unit drains destructively. In
    /// every case the survivors are bitwise unaffected.
    pub fn detach(&mut self, tenant: TenantId) -> Result<StreamOutput, CtrlError> {
        let Some(pos) = self.slots.iter().position(|s| s.id == tenant) else {
            return Err(CtrlError::UnknownTenant(tenant));
        };
        let unit_id = self.slots[pos].unit;
        let upos = self
            .units
            .iter()
            .position(|u| u.id == unit_id)
            .expect("slot without unit");
        let gid = self.units[upos].group;
        let gpos = self
            .groups
            .iter()
            .position(|g| g.id == gid)
            .expect("unit without group");
        let out = if self.units[upos].members.len() > 1 {
            // Fused member: snapshot-flush the shared partition (live
            // state untouched) and finalize an engine clone against it.
            self.frame.clear();
            self.switch.snapshot_into(gid, &mut self.frame);
            let events: Vec<TaggedEvent> = self.frame.drain(..).collect();
            let out = self.nic.snapshot_detach(tenant, events)?;
            self.units[upos].members.retain(|&m| m != tenant);
            out
        } else if self.groups[gpos].units.len() > 1 {
            // Sole unit member, but the partition feeds other units: the
            // unit finalizes against a partition snapshot and the
            // partition keeps serving the remaining subscribers.
            self.frame.clear();
            self.switch.snapshot_into(gid, &mut self.frame);
            let events: Vec<TaggedEvent> = self.frame.drain(..).collect();
            let out = self.nic.prefix_detach(tenant, events)?;
            self.groups[gpos].units.retain(|&u| u != unit_id);
            self.units.remove(upos);
            out
        } else {
            // Sole member of the partition's sole unit: drain the switch
            // partition so in-flight batched records reach the NIC ahead
            // of the detach marker.
            self.frame.clear();
            self.switch.detach_into(gid, &mut self.frame);
            self.nic.push_all(self.frame.drain(..))?;
            let out = self.nic.detach(tenant)?;
            self.units.remove(upos);
            self.groups.remove(gpos);
            out
        };
        self.slots.remove(pos);
        self.epoch += 1;
        Ok(out)
    }

    /// Feeds one packet through the shared filter table into every
    /// matching unit's partition and on to the NIC shards.
    pub fn push(&mut self, p: &PacketRecord) -> Result<(), CtrlError> {
        self.pushed += 1;
        self.frame.clear();
        self.switch.process_into(p, &mut self.frame);
        self.nic
            .push_all(self.frame.drain(..))
            .map_err(CtrlError::Nic)
    }

    /// Flushes every unit partition, drains the shards, and returns each
    /// remaining tenant's isolated output in attach order.
    pub fn finish(mut self) -> Result<Vec<TenantRun>, CtrlError> {
        self.frame.clear();
        self.switch.flush_into(&mut self.frame);
        self.nic.push_all(self.frame.drain(..))?;
        let outs = self.nic.finish()?;
        Ok(outs
            .into_iter()
            .map(|(id, output)| {
                let name = self
                    .slots
                    .iter()
                    .find(|s| s.id == id)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|| id.to_string());
                TenantRun { id, name, output }
            })
            .collect())
    }

    /// Runs the per-policy deployment gate and models the demand.
    pub(crate) fn gate(&self, spec: &TenantSpec) -> Result<TenantDemand, AdmissionError> {
        let compiled = superfe_core::deploy::gate(&spec.policy, &spec.cfg).map_err(|e| {
            AdmissionError::Policy {
                tenant: spec.name.clone(),
                source: e,
            }
        })?;
        Ok(TenantDemand::new(compiled, spec.cfg.cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_core::analyze::AnalyzeConfig;
    use superfe_nic::{FeNic, FeatureVector};
    use superfe_policy::dsl::parse;

    fn spec(name: &str, src: &str) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            policy: parse(src).unwrap(),
            cfg: SuperFeConfig::default(),
        }
    }

    fn host_sum() -> TenantSpec {
        spec(
            "host-sum",
            "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        )
    }

    fn host_sum_renamed() -> TenantSpec {
        spec(
            "host-sum-b",
            "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        )
    }

    fn flow_stats() -> TenantSpec {
        spec(
            "flow-stats",
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
             .reduce(size, [f_mean, f_max])\n.collect(flow)",
        )
    }

    fn packets(n: u64) -> impl Iterator<Item = PacketRecord> {
        (0..n).map(|i| {
            if i % 5 == 0 {
                PacketRecord::udp(i * 700, 90, (i % 11 + 1) as u32, 53, 4, 53)
            } else {
                PacketRecord::tcp(i * 700, 400, (i % 11 + 1) as u32, 1500, 4, 443)
            }
        })
    }

    /// Key-sorted copy; the sort is stable, so each key keeps its vector
    /// order (the sharded merge order depends on the worker count).
    fn sorted(v: &[FeatureVector]) -> Vec<FeatureVector> {
        let mut v = v.to_vec();
        v.sort_by_cached_key(|f| format!("{:?}", f.key));
        v
    }

    /// The independent oracle: the tenant alone on a sequential `FeSwitch`
    /// + `FeNic`, vectors key-sorted.
    fn solo(ts: &TenantSpec, n: u64) -> StreamOutput {
        let compiled = superfe_core::gate(&ts.policy, &ts.cfg).unwrap();
        let mut sw = superfe_switch::FeSwitch::with_config(
            compiled.switch.clone(),
            ts.cfg.cache,
            ts.cfg.mode,
        )
        .unwrap();
        let mut nic = FeNic::new(&compiled, ts.cfg.cache.fg_table_size).unwrap();
        let mut frame = Vec::new();
        for p in packets(n) {
            sw.process_into(&p, &mut frame);
        }
        sw.flush_into(&mut frame);
        for e in &frame {
            nic.handle(e);
        }
        let groups = nic.finish();
        StreamOutput {
            group_vectors: sorted(&groups),
            packet_vectors: sorted(&nic.take_packet_vectors()),
            ..StreamOutput::default()
        }
    }

    #[test]
    fn snapshot_of_a_scored_plane_is_refused() {
        use superfe_ml::{train_and_calibrate, CalibrationConfig, CentroidDetector};
        let data: Vec<Vec<f64>> = (0..40).map(|i| vec![100.0 + f64::from(i % 7)]).collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(CentroidDetector::new(1).unwrap()),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        plane.attach(&host_sum(), None).unwrap();
        // The scored tenant fuses into the unscored one's unit: the refusal
        // is per member, not per unit.
        let scored = plane
            .attach(&host_sum_renamed(), Some(frozen.into()))
            .unwrap();
        assert_eq!(plane.units().len(), 1);
        for p in packets(200) {
            plane.push(&p).unwrap();
        }
        assert!(matches!(
            plane.snapshot(),
            Err(CtrlError::ScoredTenant(t)) if t == scored
        ));
        // The refusal leaves the plane serving; once the scored tenant is
        // gone the snapshot goes through.
        let out = plane.detach(scored).unwrap();
        assert!(out.inline_stats.is_some_and(|s| s.scored > 0));
        assert!(plane.snapshot().is_ok());
        plane.finish().unwrap();
    }

    #[test]
    fn plane_runs_two_tenants_isolated() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&flow_stats(), None).unwrap();
        assert_ne!(a, b);
        assert_eq!(plane.epoch(), 2);
        assert_eq!(plane.units().len(), 2, "distinct policies never fuse");
        for p in packets(900) {
            plane.push(&p).unwrap();
        }
        assert!(plane.tenant_switch_stats(a).unwrap().pkts_in == 900);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].name, "host-sum");
        let solo_a = solo(&host_sum(), 900);
        let solo_b = solo(&flow_stats(), 900);
        assert_eq!(sorted(&runs[0].output.group_vectors), solo_a.group_vectors);
        assert_eq!(sorted(&runs[1].output.group_vectors), solo_b.group_vectors);
    }

    #[test]
    fn detach_returns_isolated_output_mid_stream() {
        let mut plane = CtrlPlane::new(4, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&flow_stats(), None).unwrap();
        let mut detached = None;
        for (i, p) in packets(1200).enumerate() {
            if i == 600 {
                detached = Some(plane.detach(b).unwrap());
                assert_eq!(plane.tenants().len(), 1);
            }
            plane.push(&p).unwrap();
        }
        assert!(plane.detach(b).is_err(), "double detach is refused");
        let gone = detached.unwrap();
        assert!(gone.stats.records > 0);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].id, a);
        // Survivor unaffected by the mid-stream epoch.
        let solo_a = solo(&host_sum(), 1200);
        assert_eq!(sorted(&runs[0].output.group_vectors), solo_a.group_vectors);
    }

    #[test]
    fn equivalent_tenants_fuse_and_demux_bitwise() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        assert!(plane.fusion_enabled());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&host_sum_renamed(), None).unwrap();
        let c = plane.attach(&flow_stats(), None).unwrap();
        assert_eq!(plane.tenants().len(), 3);
        assert_eq!(
            plane.units(),
            vec![(a, 2), (c, 1)],
            "equivalent pair shares one unit"
        );
        for p in packets(900) {
            plane.push(&p).unwrap();
        }
        // Fused members read the shared unit's counters.
        assert_eq!(plane.tenant_switch_stats(b).unwrap().pkts_in, 900);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 3);
        let solo_h = solo(&host_sum(), 900);
        let solo_f = solo(&flow_stats(), 900);
        for run in &runs[..2] {
            assert_eq!(sorted(&run.output.group_vectors), solo_h.group_vectors);
            assert_eq!(sorted(&run.output.packet_vectors), solo_h.packet_vectors);
        }
        assert_eq!(sorted(&runs[2].output.group_vectors), solo_f.group_vectors);
    }

    #[test]
    fn fused_member_detach_is_bitwise_solo_and_spares_survivor() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&host_sum_renamed(), None).unwrap();
        assert_eq!(plane.units(), vec![(a, 2)]);
        let mut detached = None;
        for (i, p) in packets(1200).enumerate() {
            if i == 600 {
                // Detach the unit's *owner* — the unit survives under its
                // id with the joined member as sole occupant.
                detached = Some(plane.detach(a).unwrap());
                assert_eq!(plane.units(), vec![(a, 1)]);
            }
            plane.push(&p).unwrap();
        }
        let gone = detached.unwrap();
        let solo_half = solo(&host_sum(), 600);
        assert_eq!(sorted(&gone.group_vectors), solo_half.group_vectors);
        assert_eq!(sorted(&gone.packet_vectors), solo_half.packet_vectors);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].id, b);
        let solo_full = solo(&host_sum(), 1200);
        assert_eq!(
            sorted(&runs[0].output.group_vectors),
            solo_full.group_vectors
        );
    }

    fn host_max() -> TenantSpec {
        spec(
            "host-max",
            "pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)",
        )
    }

    #[test]
    fn prefix_shared_tenants_run_bitwise_on_one_partition() {
        // host-sum and host-max are NOT SF07xx-equivalent (different
        // reduce tails) but share the parse → groupby(host) switch
        // prefix: one partition, two execution units.
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        assert!(plane.cse_enabled());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&host_max(), None).unwrap();
        let c = plane.attach(&flow_stats(), None).unwrap();
        assert_eq!(plane.units().len(), 3, "distinct tails keep their units");
        assert_eq!(
            plane.groups(),
            vec![(a, 2), (c, 1)],
            "prefix pair shares one partition"
        );
        for p in packets(900) {
            plane.push(&p).unwrap();
        }
        // Prefix-shared tenants read the shared partition's counters.
        assert_eq!(plane.tenant_switch_stats(b).unwrap().pkts_in, 900);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 3);
        let solo_s = solo(&host_sum(), 900);
        let solo_m = solo(&host_max(), 900);
        let solo_f = solo(&flow_stats(), 900);
        assert_eq!(sorted(&runs[0].output.group_vectors), solo_s.group_vectors);
        assert_eq!(sorted(&runs[1].output.group_vectors), solo_m.group_vectors);
        assert_eq!(sorted(&runs[2].output.group_vectors), solo_f.group_vectors);
    }

    #[test]
    fn prefix_member_detach_is_bitwise_and_spares_the_partition() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&host_max(), None).unwrap();
        assert_eq!(plane.groups(), vec![(a, 2)]);
        let mut detached = None;
        for (i, p) in packets(1200).enumerate() {
            if i == 600 {
                detached = Some(plane.detach(b).unwrap());
                // The partition survives for its remaining subscriber.
                assert_eq!(plane.groups(), vec![(a, 1)]);
                assert_eq!(plane.units().len(), 1);
            }
            plane.push(&p).unwrap();
        }
        let gone = detached.unwrap();
        let solo_half = solo(&host_max(), 600);
        assert_eq!(sorted(&gone.group_vectors), solo_half.group_vectors);
        assert_eq!(sorted(&gone.packet_vectors), solo_half.packet_vectors);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].id, a);
        let solo_full = solo(&host_sum(), 1200);
        assert_eq!(
            sorted(&runs[0].output.group_vectors),
            solo_full.group_vectors
        );
    }

    #[test]
    fn without_cse_separates_partitions_but_still_fuses() {
        let mut plane = CtrlPlane::without_cse(1, AnalyzeConfig::default());
        assert!(plane.fusion_enabled());
        assert!(!plane.cse_enabled());
        let a = plane.attach(&host_sum(), None).unwrap();
        plane.attach(&host_max(), None).unwrap();
        plane.attach(&host_sum_renamed(), None).unwrap();
        // The prefix pair stays on separate partitions, but the
        // SF07xx-equivalent pair still fuses into one unit.
        assert_eq!(plane.groups().len(), 2);
        assert_eq!(plane.units().len(), 2);
        assert_eq!(plane.units()[0], (a, 2));
        plane.finish().unwrap();

        // without_fusion disables both layers of sharing.
        let mut plain = CtrlPlane::without_fusion(1, AnalyzeConfig::default());
        assert!(!plain.cse_enabled());
        plain.attach(&host_sum(), None).unwrap();
        plain.attach(&host_max(), None).unwrap();
        assert_eq!(plain.groups().len(), 2);
        plain.finish().unwrap();
    }

    #[test]
    fn admission_check_surfaces_prefix_saving() {
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        plane.attach(&host_sum(), None).unwrap();
        let report = plane.admission_check(&host_max()).unwrap();
        let note = report
            .warnings
            .iter()
            .find(|d| d.code == codes::SHARE_SAVING)
            .expect("prefix-sharing candidate must surface SF0803 saving");
        assert!(note.message.contains("NIC-only"), "{note:?}");
        assert!(
            !report
                .warnings
                .iter()
                .any(|d| d.code == codes::FUSION_HEADROOM),
            "a prefix share is not a fusion"
        );
        plane.finish().unwrap();
    }

    #[test]
    fn late_or_unfused_attach_gets_its_own_unit() {
        // Fusion is position-gated: once the stream has moved past the
        // unit's attach point, an equivalent candidate gets fresh hardware
        // (the shared plan would owe it history it must not see).
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        plane.attach(&host_sum(), None).unwrap();
        for p in packets(100) {
            plane.push(&p).unwrap();
        }
        plane.attach(&host_sum_renamed(), None).unwrap();
        assert_eq!(plane.units().len(), 2);
        plane.finish().unwrap();

        // And with fusion disabled, even position-aligned equivalents
        // stay separate.
        let mut plain = CtrlPlane::without_fusion(1, AnalyzeConfig::default());
        assert!(!plain.fusion_enabled());
        plain.attach(&host_sum(), None).unwrap();
        plain.attach(&host_sum_renamed(), None).unwrap();
        assert_eq!(plain.units().len(), 2);
        plain.finish().unwrap();
    }

    #[test]
    fn admission_check_surfaces_fusion_headroom() {
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        plane.attach(&host_sum(), None).unwrap();
        let report = plane.admission_check(&host_sum_renamed()).unwrap();
        let note = report
            .warnings
            .iter()
            .find(|d| d.code == codes::FUSION_HEADROOM)
            .expect("fusable candidate must surface SF0703 headroom");
        assert!(note.message.contains("zero marginal demand"), "{note:?}");
        // A non-fusable candidate against a non-shared set gets no note.
        let report = plane.admission_check(&flow_stats()).unwrap();
        assert!(!report
            .warnings
            .iter()
            .any(|d| d.code == codes::FUSION_HEADROOM));
        plane.finish().unwrap();
    }

    #[test]
    fn infeasible_policy_is_rejected_at_the_gate() {
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        let mut bad = host_sum();
        bad.cfg.cache.short_count = 4_000_000;
        match plane.attach(&bad, None) {
            Err(CtrlError::Admission(AdmissionError::Policy { tenant, .. })) => {
                assert_eq!(tenant, "host-sum");
            }
            other => panic!("expected Policy rejection, got {other:?}"),
        }
        assert_eq!(plane.epoch(), 0);
        plane.finish().unwrap();
    }

    #[test]
    fn composed_overload_is_rejected_with_binding_resource() {
        // Individually feasible, mutually *distinct* tenants (a filter
        // constant keeps their canonical hashes apart, so fusion cannot
        // deduplicate them) whose composition blows the sALU budget: keep
        // attaching until the controller says no.
        let kitsune = |i: usize| {
            spec(
                &format!("kitsune-{i}"),
                &format!(
                    "pktstream\n.filter(size > {i})\n.groupby(socket)\n\
                     .map(ipt, tstamp, f_ipt)\n\
                     .reduce(size, [f_mean, f_var])\n.collect(socket)\n\
                     .groupby(channel)\n.reduce(size, [f_mag, f_pcc])\n.collect(channel)\n\
                     .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)"
                ),
            )
        };
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        let mut rejected = None;
        for i in 0..16 {
            match plane.attach(&kitsune(i), None) {
                Ok(_) => {}
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            plane.units().len(),
            plane.tenants().len(),
            "distinct filters must not fuse"
        );
        match rejected.expect("a Tofino cannot host 16 Kitsune tenants") {
            CtrlError::Admission(AdmissionError::Budget { resource, .. }) => {
                // The plane keeps running for the admitted tenants.
                assert!(!resource.name().is_empty());
            }
            other => panic!("expected Budget rejection, got {other:?}"),
        }
        assert!(!plane.tenants().is_empty());
        for p in packets(100) {
            plane.push(&p).unwrap();
        }
        plane.finish().unwrap();
    }
}
