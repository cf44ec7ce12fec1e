//! The multi-granularity key-vector cache (MGPV, §5).
//!
//! Packets are grouped at the *coarsest* granularity (CG). Each group owns a
//! small **short buffer**; groups that outgrow it get a **long buffer** from
//! a shared stack (the long-tail optimization of §5.2). When the policy uses
//! several granularities, each record additionally carries an index into the
//! **FG group-key table** holding its finest-granularity key, from which the
//! SmartNIC recovers every intermediate grouping — one copy of metadata per
//! packet regardless of how many granularities the application wants (§5.1).
//!
//! Evictions (hash collision, buffer full, aging, FG-slot reassignment, final
//! flush) emit [`MgpvMessage`]s; FG table changes emit [`FgUpdate`]s strictly
//! *before* any message whose records reference them, preserving the paper's
//! order-preserving property.
//!
//! Aging models recirculated probe packets that check one slot each, in
//! cursor order. The simulator reaches the same evictions without visiting
//! every probed slot: a tree over the slots' last-access times yields the
//! expired slots of the probed window directly.

use superfe_net::snap::{StateReader, StateWriter};
use superfe_net::{GroupKey, PacketRecord};

use crate::record::{EvictionCause, FgUpdate, MgpvMessage, MgpvRecord, SwitchEvent, TS_HORIZON_NS};

/// Bytes one metadata record occupies in switch SRAM (full layout).
pub const SWITCH_RECORD_BYTES: usize = 9;
/// Per-entry bookkeeping bytes in switch SRAM (timestamp, pointer, flags).
pub const ENTRY_OVERHEAD_BYTES: usize = 8;

/// How the CG slot array resolves hash collisions.
///
/// The paper's prototype is direct-mapped (one slot per hash, LRU-like
/// evict-on-collision, §5.2); the set-associative variant trades a wider
/// lookup for fewer forced evictions under corpus-scale flow counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CgEvictPolicy {
    /// One slot per hash; a colliding key always evicts the resident group.
    #[default]
    DirectMapped,
    /// `ways`-way set-associative slots: a colliding key takes a free way if
    /// one exists, else evicts a pseudo-random way (seeded, deterministic
    /// for a given packet stream).
    RandomWay {
        /// Ways per set (clamped to at least 1).
        ways: u16,
        /// Seed for the deterministic victim sequence.
        seed: u64,
    },
}

/// Configuration of an MGPV cache instance.
///
/// Defaults are the paper's §7 prototype values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MgpvConfig {
    /// Number of short buffers (one per CG slot).
    pub short_count: usize,
    /// Records per short buffer.
    pub short_size: usize,
    /// Number of long buffers in the shared stack.
    pub long_count: usize,
    /// Records per long buffer.
    pub long_size: usize,
    /// FG key-table slots (0 disables the table).
    pub fg_table_size: usize,
    /// Aging timeout `T`; `None` disables aging.
    pub aging_t_ns: Option<u64>,
    /// Cache entries checked by the recirculating aging probe per packet.
    pub probes_per_packet: usize,
    /// Recirculation probe rate in entries per second: the recirculated
    /// packets check entries continuously, independent of traffic, so on
    /// each insert the cache also executes the probes that elapsed wall
    /// time would have produced (capped at one full scan). The simulator
    /// does not visit every probed slot: a tree over the slots' last-access
    /// times finds the expired ones in the probed window, so an insert
    /// costs O((expired + 1) · log short_count) however wide the window is.
    pub probe_rate_hz: f64,
    /// Window for the "active flow" definition in buffer-efficiency stats.
    pub activity_window_ns: u64,
    /// CG slot collision-resolution policy.
    pub policy: CgEvictPolicy,
}

impl Default for MgpvConfig {
    fn default() -> Self {
        MgpvConfig {
            short_count: 16_384,
            short_size: 4,
            long_count: 4_096,
            long_size: 20,
            fg_table_size: 16_384,
            // Above typical intra-flow gaps (ms-scale) yet small enough to
            // keep the batching delay at O(10) ms.
            aging_t_ns: Some(25_000_000), // 25 ms
            probes_per_packet: 2,
            probe_rate_hz: 1_000_000.0, // one 16k-entry scan every ~16 ms
            activity_window_ns: 100_000_000, // 100 ms
            policy: CgEvictPolicy::DirectMapped,
        }
    }
}

impl MgpvConfig {
    /// Static SRAM footprint of this configuration, in bytes.
    ///
    /// `cg_key_bytes` is the serialized CG key width; the FG table (13-byte
    /// keys plus a 4-byte hash) is counted only when enabled.
    pub fn memory_bytes(&self, cg_key_bytes: usize) -> usize {
        let short = self.short_count
            * (cg_key_bytes + ENTRY_OVERHEAD_BYTES + self.short_size * SWITCH_RECORD_BYTES);
        let long = self.long_count * self.long_size * SWITCH_RECORD_BYTES
            + self.long_count * 2 // stack slots
            + 4; // stack pointer
        let fg = if self.fg_table_size > 0 {
            self.fg_table_size * (13 + 4)
        } else {
            0
        };
        short + long + fg
    }

    /// Derives a configuration fitting an explicit SRAM budget.
    ///
    /// The default table shapes (buffer sizes, aging, probe rate) are kept;
    /// only the three counts — CG slots, long buffers, FG slots — are scaled
    /// down proportionally until [`MgpvConfig::memory_bytes`] with the given
    /// CG key width fits `budget_bytes`. Budgets below the one-slot minimum
    /// yield the smallest valid cache (which may still exceed the budget).
    pub fn with_memory_budget(budget_bytes: usize, cg_key_bytes: usize) -> Self {
        let base = MgpvConfig::default();
        let mut scale = budget_bytes as f64 / base.memory_bytes(cg_key_bytes) as f64;
        loop {
            let cfg = MgpvConfig {
                short_count: ((base.short_count as f64 * scale) as usize).max(1),
                long_count: (base.long_count as f64 * scale) as usize,
                fg_table_size: (base.fg_table_size as f64 * scale) as usize,
                ..base
            };
            let at_floor = cfg.short_count == 1 && cfg.long_count == 0 && cfg.fg_table_size == 0;
            if cfg.memory_bytes(cg_key_bytes) <= budget_bytes || at_floor {
                return cfg;
            }
            scale *= 0.9;
        }
    }
}

/// One step of the splitmix64 sequence (victim-way selection).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Counters exported by the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MgpvStats {
    /// Packets offered to the cache.
    pub packets: u64,
    /// Records currently resident.
    pub resident_records: u64,
    /// Evicted messages by cause `[CgCollision, ShortFull, LongFull, Aging, FgCollision, Flush]`.
    pub evictions: [u64; 6],
    /// Total records shipped in eviction messages.
    pub evicted_records: u64,
    /// FG table update notifications sent.
    pub fg_updates: u64,
    /// Σ occupied entries over samples (buffer-efficiency denominator).
    pub occupied_samples: u64,
    /// Σ active entries over samples (buffer-efficiency numerator).
    pub active_samples: u64,
    /// Σ per-record batching delay (eviction time − arrival time) in ns,
    /// over data-plane evictions (final flushes excluded — they measure
    /// trace length, not the cache).
    pub delay_sum_ns: u64,
    /// Largest per-record batching delay seen on a data-plane eviction.
    pub delay_max_ns: u64,
    /// Records counted in the delay statistics.
    pub delay_samples: u64,
}

impl MgpvStats {
    /// Mean messages per evicted record (inverse batching factor).
    pub fn records_per_message(&self) -> f64 {
        let msgs: u64 = self.evictions.iter().sum();
        if msgs == 0 {
            0.0
        } else {
            self.evicted_records as f64 / msgs as f64
        }
    }

    /// Mean batching delay in nanoseconds (§8.4: bounded by the aging
    /// timeout at O(10) ms).
    pub fn mean_delay_ns(&self) -> f64 {
        if self.delay_samples == 0 {
            0.0
        } else {
            self.delay_sum_ns as f64 / self.delay_samples as f64
        }
    }

    /// Fraction of occupied buffer slots that held recently-active flows
    /// (the Fig. 14 "buffer efficiency" metric).
    pub fn buffer_efficiency(&self) -> f64 {
        if self.occupied_samples == 0 {
            0.0
        } else {
            self.active_samples as f64 / self.occupied_samples as f64
        }
    }

    /// Serializes every counter for state snapshots.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.packets);
        w.put_u64(self.resident_records);
        for e in self.evictions {
            w.put_u64(e);
        }
        w.put_u64(self.evicted_records);
        w.put_u64(self.fg_updates);
        w.put_u64(self.occupied_samples);
        w.put_u64(self.active_samples);
        w.put_u64(self.delay_sum_ns);
        w.put_u64(self.delay_max_ns);
        w.put_u64(self.delay_samples);
    }

    /// Reads counters written by [`MgpvStats::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let mut s = MgpvStats {
            packets: r.get_u64()?,
            resident_records: r.get_u64()?,
            ..MgpvStats::default()
        };
        for e in &mut s.evictions {
            *e = r.get_u64()?;
        }
        s.evicted_records = r.get_u64()?;
        s.fg_updates = r.get_u64()?;
        s.occupied_samples = r.get_u64()?;
        s.active_samples = r.get_u64()?;
        s.delay_sum_ns = r.get_u64()?;
        s.delay_max_ns = r.get_u64()?;
        s.delay_samples = r.get_u64()?;
        Some(s)
    }
}

#[derive(Clone, Debug)]
struct CgEntry {
    key: GroupKey,
    hash: u32,
    last_access_ns: u64,
    short: Vec<MgpvRecord>,
    long_ptr: Option<u16>,
}

/// Implicit binary tree over the CG slots' `last_access_ns` that answers
/// "first slot in `[lo, hi)` last touched before a cutoff" in O(log N),
/// which lets the aging probe skip the live slots of its window instead of
/// visiting each one.
///
/// Nodes hold the bitwise complement `!last_access_ns` and keep the
/// *maximum* of their children, so "touched before the cutoff" reads "key
/// above `!cutoff`", an empty slot is key 0 (never expired), and a new tree
/// is one zeroed allocation with no fill pass at deploy time.
///
/// Derived state: rebuilt from the entries on restore, never serialized.
#[derive(Clone, Debug)]
struct AgeTree {
    /// Node `i` holds the maximum of nodes `2i` and `2i + 1`; slot `s` is
    /// leaf `leaves + s`. Padding leaves stay 0.
    nodes: Vec<u64>,
    leaves: usize,
}

impl AgeTree {
    fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        AgeTree {
            nodes: vec![0; 2 * leaves],
            leaves,
        }
    }

    /// Records an access to `slot` at `ns`.
    fn touch(&mut self, slot: usize, ns: u64) {
        self.set(slot, !ns);
    }

    /// Marks `slot` empty.
    fn clear(&mut self, slot: usize) {
        self.set(slot, 0);
    }

    fn set(&mut self, slot: usize, key: u64) {
        let mut i = self.leaves + slot;
        self.nodes[i] = key;
        while i > 1 {
            i /= 2;
            let max = self.nodes[2 * i].max(self.nodes[2 * i + 1]);
            if self.nodes[i] == max {
                break; // every ancestor is unchanged too
            }
            self.nodes[i] = max;
        }
    }

    fn rebuild(&mut self, entries: &[Option<CgEntry>]) {
        self.nodes.fill(0);
        for (slot, e) in entries.iter().enumerate() {
            if let Some(e) = e {
                self.nodes[self.leaves + slot] = !e.last_access_ns;
            }
        }
        for i in (1..self.leaves).rev() {
            self.nodes[i] = self.nodes[2 * i].max(self.nodes[2 * i + 1]);
        }
    }

    /// The first slot in `[lo, hi)` last touched before `cutoff`.
    fn first_before(&self, lo: usize, hi: usize, cutoff: u64) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let above = !cutoff;
        // Find the first such slot at or after `lo`, then bound it by `hi`:
        // climb while the node is a left child (its parent starts at the
        // same slot), else step to the right neighbour subtree.
        let mut i = self.leaves + lo;
        loop {
            while i.is_multiple_of(2) {
                i /= 2;
            }
            if self.nodes[i] > above {
                while i < self.leaves {
                    i *= 2;
                    if self.nodes[i] <= above {
                        i += 1;
                    }
                }
                let slot = i - self.leaves;
                return (slot < hi).then_some(slot);
            }
            i += 1;
            if i.is_power_of_two() {
                return None; // stepped past the last slot
            }
        }
    }
}

/// One MGPV cache instance (one grouping granularity on the switch).
#[derive(Clone, Debug)]
pub struct MgpvCache {
    cfg: MgpvConfig,
    entries: Vec<Option<CgEntry>>,
    /// `last_access_ns` of every slot, for the aging probe.
    ages: AgeTree,
    long: Vec<Vec<MgpvRecord>>,
    free_longs: Vec<u16>,
    fg_table: Vec<Option<GroupKey>>,
    /// FG slot → CG buckets holding records that reference it.
    fg_refs: Vec<Vec<usize>>,
    probe_cursor: usize,
    last_probe_ns: u64,
    stats: MgpvStats,
    sample_countdown: u32,
    /// Age with the per-slot reference sweep instead of the tree.
    #[cfg(test)]
    reference_sweep: bool,
}

const SAMPLE_EVERY: u32 = 1024;

impl MgpvCache {
    /// Creates a cache; returns `None` for degenerate configurations
    /// (zero-sized buffers).
    pub fn new(cfg: MgpvConfig) -> Option<Self> {
        if cfg.short_count == 0 || cfg.short_size == 0 {
            return None;
        }
        Some(MgpvCache {
            entries: vec![None; cfg.short_count],
            ages: AgeTree::new(cfg.short_count),
            long: vec![Vec::new(); cfg.long_count],
            free_longs: (0..cfg.long_count as u16).rev().collect(),
            fg_table: vec![None; cfg.fg_table_size],
            fg_refs: vec![Vec::new(); cfg.fg_table_size],
            probe_cursor: 0,
            last_probe_ns: 0,
            stats: MgpvStats::default(),
            sample_countdown: SAMPLE_EVERY,
            #[cfg(test)]
            reference_sweep: false,
            cfg,
        })
    }

    /// Current counters.
    pub fn stats(&self) -> &MgpvStats {
        &self.stats
    }

    /// The cache configuration.
    pub fn config(&self) -> &MgpvConfig {
        &self.cfg
    }

    /// Whether the FG key table is enabled.
    pub fn has_fg_table(&self) -> bool {
        self.cfg.fg_table_size > 0
    }

    /// Number of occupied CG slots.
    pub fn occupied(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Inserts one packet, returning the events it triggered, in order.
    ///
    /// `cg_key` is the packet's coarsest-granularity key; `fg_key` its
    /// finest-granularity key when the FG table is in use.
    pub fn insert(
        &mut self,
        p: &PacketRecord,
        cg_key: GroupKey,
        fg_key: Option<GroupKey>,
    ) -> Vec<SwitchEvent> {
        let mut events = Vec::new();
        self.insert_into(p, cg_key, fg_key, &mut events);
        events
    }

    /// Inserts one packet, appending the events it triggered (in order) to a
    /// caller-supplied buffer — the allocation-free form of
    /// [`MgpvCache::insert`] used by the streaming pipeline, which recycles
    /// one event frame across packets instead of allocating per packet.
    pub fn insert_into(
        &mut self,
        p: &PacketRecord,
        cg_key: GroupKey,
        fg_key: Option<GroupKey>,
        events: &mut Vec<SwitchEvent>,
    ) {
        let now = p.ts_ns;
        assert!(
            now < TS_HORIZON_NS,
            "packet timestamp {now} ns is at or past the 32-bit microsecond tstamp horizon \
             ({TS_HORIZON_NS} ns): MgpvRecord::tstamp_us would wrap and the aging probes would \
             mis-order evictions — rebase timestamps per capture epoch"
        );
        self.stats.packets += 1;

        // --- FG table maintenance (before anything references the slot). ---
        let fg_idx = match (self.has_fg_table(), fg_key) {
            (true, Some(fk)) => {
                let slot = (fk.hash32() as usize) % self.cfg.fg_table_size;
                match &self.fg_table[slot] {
                    Some(existing) if *existing == fk => {}
                    Some(_) => {
                        // Reassignment: flush every CG entry holding records
                        // that point at this slot, then replace the key.
                        let buckets = std::mem::take(&mut self.fg_refs[slot]);
                        for b in buckets {
                            if self.entries[b].is_some() {
                                self.evict_bucket(b, EvictionCause::FgCollision, Some(now), events);
                            }
                        }
                        self.fg_table[slot] = Some(fk);
                        self.stats.fg_updates += 1;
                        events.push(SwitchEvent::FgUpdate(FgUpdate {
                            idx: slot as u16,
                            key: fk,
                        }));
                    }
                    None => {
                        self.fg_table[slot] = Some(fk);
                        self.stats.fg_updates += 1;
                        events.push(SwitchEvent::FgUpdate(FgUpdate {
                            idx: slot as u16,
                            key: fk,
                        }));
                    }
                }
                slot as u16
            }
            _ => 0,
        };

        let rec = MgpvRecord::from_packet(p, fg_idx);
        let hash = cg_key.hash32();

        // --- CG slot handling (policy-dependent). ---
        let bucket = self.cg_bucket(cg_key, hash, now, events);
        if self.entries[bucket].is_none() {
            self.entries[bucket] = Some(CgEntry {
                key: cg_key,
                hash,
                last_access_ns: now,
                short: Vec::with_capacity(self.cfg.short_size),
                long_ptr: None,
            });
        }

        // Append the record, spilling to a long buffer as needed.
        {
            let cfg = self.cfg;
            let entry = self.entries[bucket].as_mut().expect("just ensured");
            entry.last_access_ns = now;
            if let Some(lp) = entry.long_ptr {
                self.long[lp as usize].push(rec);
                self.stats.resident_records += 1;
                if self.long[lp as usize].len() >= cfg.long_size {
                    self.evict_bucket(bucket, EvictionCause::LongFull, Some(now), events);
                    // The group stays conceptually known but its buffers are
                    // recycled; re-create an empty entry for future packets.
                    self.entries[bucket] = Some(CgEntry {
                        key: cg_key,
                        hash,
                        last_access_ns: now,
                        short: Vec::with_capacity(cfg.short_size),
                        long_ptr: None,
                    });
                }
            } else if entry.short.len() < cfg.short_size {
                entry.short.push(rec);
                self.stats.resident_records += 1;
                if entry.short.len() == cfg.short_size {
                    // Try to arm a long buffer for the (likely long) flow.
                    if let Some(lp) = self.free_longs.pop() {
                        self.entries[bucket].as_mut().expect("present").long_ptr = Some(lp);
                    }
                }
            } else {
                // Short full and no long buffer was available earlier: flush
                // the short buffer (ShortFull) and restart it with this
                // record.
                self.evict_bucket(bucket, EvictionCause::ShortFull, Some(now), events);
                self.entries[bucket] = Some(CgEntry {
                    key: cg_key,
                    hash,
                    last_access_ns: now,
                    short: vec![rec],
                    long_ptr: None,
                });
                self.stats.resident_records += 1;
            }
        }
        self.ages.touch(bucket, now);

        // Track which CG bucket references the FG slot.
        if self.has_fg_table() && fg_key.is_some() {
            let slot = fg_idx as usize;
            if !self.fg_refs[slot].contains(&bucket) {
                self.fg_refs[slot].push(bucket);
            }
        }

        // --- Aging probes (recirculated internal packets, §5.2). ---
        if let Some(t) = self.cfg.aging_t_ns {
            // Probes the recirculation port performed while wall time passed.
            let elapsed = now.saturating_sub(self.last_probe_ns);
            self.last_probe_ns = self.last_probe_ns.max(now);
            let timed = (elapsed as f64 * self.cfg.probe_rate_hz / 1e9) as usize;
            let n_probes = (self.cfg.probes_per_packet + timed).min(self.cfg.short_count);
            self.probe_window(now, t, n_probes, events);
        }

        // --- Buffer-efficiency sampling. ---
        self.sample_countdown -= 1;
        if self.sample_countdown == 0 {
            self.sample_countdown = SAMPLE_EVERY;
            for e in self.entries.iter().flatten() {
                self.stats.occupied_samples += 1;
                if now.saturating_sub(e.last_access_ns) <= self.cfg.activity_window_ns {
                    self.stats.active_samples += 1;
                }
            }
        }
    }

    /// Evicts every resident group (end of trace).
    pub fn flush(&mut self) -> Vec<SwitchEvent> {
        let mut events = Vec::new();
        self.flush_into(&mut events);
        events
    }

    /// Evicts every resident group into a caller-supplied buffer.
    pub fn flush_into(&mut self, events: &mut Vec<SwitchEvent>) {
        for b in 0..self.entries.len() {
            if self.entries[b].is_some() {
                self.evict_bucket(b, EvictionCause::Flush, None, events);
            }
        }
    }

    /// Runs `n_probes` (≤ `short_count`) aging probes from the cursor:
    /// evicts, in probe order, every slot of the window idle for more than
    /// `t`, and advances the cursor past the window.
    ///
    /// A slot is expired iff `now − last_access > t` (saturating), i.e.
    /// iff `now > t` and `last_access < now − t`; evictions only empty
    /// slots, so the expired set is fixed for the whole window and the tree
    /// walk evicts exactly what a slot-by-slot sweep would, in the same
    /// order.
    fn probe_window(&mut self, now: u64, t: u64, n_probes: usize, events: &mut Vec<SwitchEvent>) {
        #[cfg(test)]
        if self.reference_sweep {
            return self.sweep_window(now, t, n_probes, events);
        }
        let n = self.cfg.short_count;
        let start = self.probe_cursor;
        let end = start + n_probes; // < 2n: the window wraps at most once
        self.probe_cursor = end % n;
        if now <= t {
            return;
        }
        let cutoff = now - t;
        for (mut lo, hi) in [(start, end.min(n)), (0, end.saturating_sub(n))] {
            while let Some(slot) = self.ages.first_before(lo, hi, cutoff) {
                self.evict_bucket(slot, EvictionCause::Aging, Some(now), events);
                lo = slot + 1;
            }
        }
    }

    /// Reference aging probe: visits every slot of the window in turn.
    #[cfg(test)]
    fn sweep_window(&mut self, now: u64, t: u64, n_probes: usize, events: &mut Vec<SwitchEvent>) {
        for _ in 0..n_probes {
            let i = self.probe_cursor;
            self.probe_cursor = (self.probe_cursor + 1) % self.cfg.short_count;
            let expired = match &self.entries[i] {
                Some(e) => now.saturating_sub(e.last_access_ns) > t,
                None => false,
            };
            if expired {
                self.evict_bucket(i, EvictionCause::Aging, Some(now), events);
            }
        }
    }

    /// Picks the CG slot for `key` under the configured policy, evicting a
    /// resident group first if the policy demands it. On return the slot is
    /// either empty or already owned by `key`.
    fn cg_bucket(
        &mut self,
        key: GroupKey,
        hash: u32,
        now: u64,
        events: &mut Vec<SwitchEvent>,
    ) -> usize {
        match self.cfg.policy {
            CgEvictPolicy::DirectMapped => {
                let bucket = (hash as usize) % self.cfg.short_count;
                let owned = matches!(&self.entries[bucket], Some(e) if e.key == key);
                if self.entries[bucket].is_some() && !owned {
                    self.evict_bucket(bucket, EvictionCause::CgCollision, Some(now), events);
                }
                bucket
            }
            CgEvictPolicy::RandomWay { ways, seed } => {
                let w = usize::from(ways).max(1);
                let sets = (self.cfg.short_count / w).max(1);
                let base = ((hash as usize) % sets) * w;
                let end = (base + w).min(self.cfg.short_count);
                for b in base..end {
                    if matches!(&self.entries[b], Some(e) if e.key == key) {
                        return b;
                    }
                }
                for b in base..end {
                    if self.entries[b].is_none() {
                        return b;
                    }
                }
                // Set full: evict a deterministic pseudo-random way. The
                // packet counter (already incremented for this packet) keys
                // the sequence, so replays pick identical victims.
                let victim = base + (splitmix64(seed ^ self.stats.packets) as usize) % (end - base);
                self.evict_bucket(victim, EvictionCause::CgCollision, Some(now), events);
                victim
            }
        }
    }

    fn evict_bucket(
        &mut self,
        bucket: usize,
        cause: EvictionCause,
        now_ns: Option<u64>,
        out: &mut Vec<SwitchEvent>,
    ) {
        let entry = match self.entries[bucket].take() {
            Some(e) => e,
            None => return,
        };
        self.ages.clear(bucket);
        let mut records = entry.short;
        if let Some(lp) = entry.long_ptr {
            records.append(&mut self.long[lp as usize]);
            self.free_longs.push(lp);
        }
        if records.is_empty() {
            // Nothing cached (can happen right after a LongFull recycle).
            return;
        }
        // Clear reverse references from FG slots to this bucket.
        if self.has_fg_table() {
            for r in &records {
                let slot = r.fg_idx as usize;
                if slot < self.fg_refs.len() {
                    self.fg_refs[slot].retain(|&b| b != bucket);
                }
            }
        }
        if let Some(now) = now_ns {
            for r in &records {
                let delay = now.saturating_sub(r.ts_ns());
                self.stats.delay_sum_ns += delay;
                self.stats.delay_max_ns = self.stats.delay_max_ns.max(delay);
                self.stats.delay_samples += 1;
            }
        }
        let cause_idx = EvictionCause::all()
            .iter()
            .position(|c| *c == cause)
            .expect("cause in enumeration");
        self.stats.evictions[cause_idx] += 1;
        self.stats.evicted_records += records.len() as u64;
        self.stats.resident_records = self
            .stats
            .resident_records
            .saturating_sub(records.len() as u64);
        out.push(SwitchEvent::Mgpv(MgpvMessage {
            cg_key: entry.key,
            hash: entry.hash,
            records,
            cause,
        }));
    }

    /// Serializes the full cache state — resident buffers, FG table,
    /// reverse references, probe cursor, and counters — for snapshots.
    ///
    /// The configuration itself is *not* stored (the restoring side
    /// re-creates the cache from the deployed policy); the buffer geometry
    /// is written as a validation header so a mismatched load fails cleanly.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u32(self.cfg.short_count as u32);
        w.put_u32(self.cfg.short_size as u32);
        w.put_u32(self.cfg.long_count as u32);
        w.put_u32(self.cfg.long_size as u32);
        w.put_u32(self.cfg.fg_table_size as u32);
        for slot in &self.entries {
            w.put_bool(slot.is_some());
            if let Some(e) = slot {
                e.key.save_state(w);
                w.put_u32(e.hash);
                w.put_u64(e.last_access_ns);
                w.put_u16(e.short.len() as u16);
                for rec in &e.short {
                    rec.save_state(w);
                }
                w.put_bool(e.long_ptr.is_some());
                w.put_u16(e.long_ptr.unwrap_or(0));
            }
        }
        for buf in &self.long {
            w.put_u16(buf.len() as u16);
            for rec in buf {
                rec.save_state(w);
            }
        }
        w.put_u32(self.free_longs.len() as u32);
        for lp in &self.free_longs {
            w.put_u16(*lp);
        }
        for slot in &self.fg_table {
            w.put_bool(slot.is_some());
            if let Some(k) = slot {
                k.save_state(w);
            }
        }
        // fg_refs are serialized (not rebuilt): their per-slot vec order
        // decides the eviction order of an FG-slot reassignment, which must
        // survive a restore bit-for-bit.
        for refs in &self.fg_refs {
            w.put_u32(refs.len() as u32);
            for b in refs {
                w.put_u32(*b as u32);
            }
        }
        w.put_u64(self.probe_cursor as u64);
        w.put_u64(self.last_probe_ns);
        w.put_u32(self.sample_countdown);
        self.stats.save_state(w);
    }

    /// Restores state written by [`MgpvCache::save_state`] into a cache
    /// created with the *same* configuration. Returns `None` (leaving the
    /// cache untouched) on geometry mismatch or truncated input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Option<()> {
        let geometry = [
            r.get_u32()? as usize,
            r.get_u32()? as usize,
            r.get_u32()? as usize,
            r.get_u32()? as usize,
            r.get_u32()? as usize,
        ];
        if geometry
            != [
                self.cfg.short_count,
                self.cfg.short_size,
                self.cfg.long_count,
                self.cfg.long_size,
                self.cfg.fg_table_size,
            ]
        {
            return None;
        }
        let mut entries = Vec::with_capacity(self.cfg.short_count);
        for _ in 0..self.cfg.short_count {
            if !r.get_bool()? {
                entries.push(None);
                continue;
            }
            let key = GroupKey::load_state(r)?;
            let hash = r.get_u32()?;
            let last_access_ns = r.get_u64()?;
            let n = r.get_u16()? as usize;
            if n > self.cfg.short_size {
                return None;
            }
            let mut short = Vec::with_capacity(self.cfg.short_size);
            for _ in 0..n {
                short.push(MgpvRecord::load_state(r)?);
            }
            let has_long = r.get_bool()?;
            let lp = r.get_u16()?;
            let long_ptr = if has_long {
                if (lp as usize) >= self.cfg.long_count {
                    return None;
                }
                Some(lp)
            } else {
                None
            };
            entries.push(Some(CgEntry {
                key,
                hash,
                last_access_ns,
                short,
                long_ptr,
            }));
        }
        let mut long = Vec::with_capacity(self.cfg.long_count);
        for _ in 0..self.cfg.long_count {
            let n = r.get_u16()? as usize;
            if n > self.cfg.long_size {
                return None;
            }
            let mut buf = Vec::with_capacity(n);
            for _ in 0..n {
                buf.push(MgpvRecord::load_state(r)?);
            }
            long.push(buf);
        }
        let n_free = r.get_u32()? as usize;
        if n_free > self.cfg.long_count {
            return None;
        }
        let mut free_longs = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            let lp = r.get_u16()?;
            if (lp as usize) >= self.cfg.long_count {
                return None;
            }
            free_longs.push(lp);
        }
        let mut fg_table = Vec::with_capacity(self.cfg.fg_table_size);
        for _ in 0..self.cfg.fg_table_size {
            fg_table.push(if r.get_bool()? {
                Some(GroupKey::load_state(r)?)
            } else {
                None
            });
        }
        let mut fg_refs = Vec::with_capacity(self.cfg.fg_table_size);
        for _ in 0..self.cfg.fg_table_size {
            let n = r.get_u32()? as usize;
            if n > self.cfg.short_count {
                return None;
            }
            let mut refs = Vec::with_capacity(n);
            for _ in 0..n {
                let b = r.get_u32()? as usize;
                if b >= self.cfg.short_count {
                    return None;
                }
                refs.push(b);
            }
            fg_refs.push(refs);
        }
        let probe_cursor = r.get_u64()? as usize;
        if probe_cursor >= self.cfg.short_count {
            return None;
        }
        let last_probe_ns = r.get_u64()?;
        let sample_countdown = r.get_u32()?;
        if sample_countdown == 0 || sample_countdown > SAMPLE_EVERY {
            return None;
        }
        let stats = MgpvStats::load_state(r)?;
        self.entries = entries;
        self.ages.rebuild(&self.entries);
        self.long = long;
        self.free_longs = free_longs;
        self.fg_table = fg_table;
        self.fg_refs = fg_refs;
        self.probe_cursor = probe_cursor;
        self.last_probe_ns = last_probe_ns;
        self.sample_countdown = sample_countdown;
        self.stats = stats;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use superfe_net::snap::{StateReader, StateWriter};
    use superfe_net::{Granularity, PacketRecord};

    fn cfg_small() -> MgpvConfig {
        MgpvConfig {
            short_count: 8,
            short_size: 2,
            long_count: 2,
            long_size: 4,
            fg_table_size: 8,
            aging_t_ns: None,
            probes_per_packet: 0,
            probe_rate_hz: 0.0,
            activity_window_ns: 1_000_000,
            policy: CgEvictPolicy::DirectMapped,
        }
    }

    fn pkt(src: u32, dst: u32, sport: u16, ts: u64) -> PacketRecord {
        PacketRecord::tcp(ts, 100, src, sport, dst, 80)
    }

    fn keys(p: &PacketRecord) -> (GroupKey, Option<GroupKey>) {
        (
            Granularity::Host.key_of(p),
            Some(Granularity::Socket.key_of(p)),
        )
    }

    fn mgpv_events(events: &[SwitchEvent]) -> Vec<&MgpvMessage> {
        events
            .iter()
            .filter_map(|e| match e {
                SwitchEvent::Mgpv(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rejects_degenerate_config() {
        let mut c = cfg_small();
        c.short_count = 0;
        assert!(MgpvCache::new(c).is_none());
    }

    #[test]
    fn first_insert_emits_fg_update_only() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        let ev = cache.insert(&p, cg, fg);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], SwitchEvent::FgUpdate(_)));
        assert_eq!(cache.stats().resident_records, 1);
    }

    #[test]
    fn same_fg_key_notifies_once() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        let ev = cache.insert(&p, cg, fg);
        assert!(ev.is_empty());
        assert_eq!(cache.stats().fg_updates, 1);
    }

    #[test]
    fn short_full_without_long_evicts() {
        let mut cfg = cfg_small();
        cfg.long_count = 0; // no long buffers at all
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        cache.insert(&p, cg, fg); // short (size 2) now full
        let ev = cache.insert(&p, cg, fg); // triggers ShortFull
        let msgs = mgpv_events(&ev);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::ShortFull);
        assert_eq!(msgs[0].records.len(), 2);
        // The triggering record restarted the short buffer.
        assert_eq!(cache.stats().resident_records, 1);
    }

    #[test]
    fn long_buffer_extends_then_long_full_evicts() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        let mut all_events = Vec::new();
        // short 2 + long 4 => the 6th insert fills the long buffer.
        for _ in 0..6 {
            all_events.extend(cache.insert(&p, cg, fg));
        }
        let msgs = mgpv_events(&all_events);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::LongFull);
        assert_eq!(msgs[0].records.len(), 6);
        assert_eq!(cache.stats().resident_records, 0);
    }

    #[test]
    fn records_evicted_in_arrival_order() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let (cg, fg) = keys(&pkt(1, 2, 1000, 0));
        let mut events = Vec::new();
        for i in 0..6u64 {
            let p = pkt(1, 2, 1000, i * 10);
            events.extend(cache.insert(&p, cg, fg));
        }
        let msgs = mgpv_events(&events);
        let ts: Vec<u32> = msgs[0].records.iter().map(|r| r.tstamp_us).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn cg_collision_evicts_old_group() {
        let mut cfg = cfg_small();
        cfg.short_count = 1; // force every host into the same slot
        cfg.fg_table_size = 0;
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 10);
        let p2 = pkt(3, 4, 1000, 20);
        cache.insert(&p1, Granularity::Host.key_of(&p1), None);
        let ev = cache.insert(&p2, Granularity::Host.key_of(&p2), None);
        let msgs = mgpv_events(&ev);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::CgCollision);
        assert_eq!(msgs[0].cg_key, GroupKey::Host(1));
    }

    #[test]
    fn fg_slot_reassignment_flushes_referencing_groups_first() {
        let mut cfg = cfg_small();
        cfg.fg_table_size = 1; // every socket key collides in the FG table
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 10);
        let p2 = pkt(1, 2, 2000, 20); // same host, different socket
        let (cg, fg1) = (
            Granularity::Host.key_of(&p1),
            Some(Granularity::Socket.key_of(&p1)),
        );
        cache.insert(&p1, cg, fg1);
        let fg2 = Some(Granularity::Socket.key_of(&p2));
        let ev = cache.insert(&p2, cg, fg2);
        // Order: eviction of the old group BEFORE the FgUpdate for the slot.
        assert!(ev.len() >= 2);
        match (&ev[0], &ev[1]) {
            (SwitchEvent::Mgpv(m), SwitchEvent::FgUpdate(u)) => {
                assert_eq!(m.cause, EvictionCause::FgCollision);
                assert_eq!(u.idx, 0);
            }
            other => panic!("unexpected order: {other:?}"),
        }
    }

    #[test]
    fn aging_evicts_idle_groups() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = Some(1_000);
        cfg.probes_per_packet = 8;
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 0);
        cache.insert(&p1, Granularity::Host.key_of(&p1), None);
        // Much later packet from a different host triggers the probes.
        let p2 = pkt(3, 4, 1000, 1_000_000);
        let ev = cache.insert(&p2, Granularity::Host.key_of(&p2), None);
        let msgs = mgpv_events(&ev);
        assert!(msgs
            .iter()
            .any(|m| m.cause == EvictionCause::Aging && m.cg_key == GroupKey::Host(1)));
    }

    #[test]
    fn aging_releases_long_buffers() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = Some(1_000);
        cfg.probes_per_packet = 8;
        cfg.long_count = 1;
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 0);
        let (cg1, fg1) = keys(&p1);
        for _ in 0..3 {
            cache.insert(&p1, cg1, fg1); // grabs the only long buffer
        }
        assert_eq!(cache.free_longs.len(), 0);
        let p2 = pkt(3, 4, 1000, 1_000_000);
        let (cg2, fg2) = keys(&p2);
        cache.insert(&p2, cg2, fg2);
        assert_eq!(cache.free_longs.len(), 1, "long buffer recycled by aging");
    }

    #[test]
    fn flush_empties_cache() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        for i in 0..5u32 {
            let p = pkt(i + 1, 100, 1000, u64::from(i));
            let (cg, fg) = keys(&p);
            cache.insert(&p, cg, fg);
        }
        let ev = cache.flush();
        let msgs = mgpv_events(&ev);
        let total: usize = msgs.iter().map(|m| m.records.len()).sum();
        assert_eq!(total, 5);
        assert_eq!(cache.occupied(), 0);
        assert_eq!(cache.stats().resident_records, 0);
        assert!(msgs.iter().all(|m| m.cause == EvictionCause::Flush));
    }

    #[test]
    fn no_record_lost_or_duplicated() {
        // Conservation: inserted records == evicted records after flush.
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let mut evicted = 0usize;
        let n = 1000u32;
        for i in 0..n {
            let p = pkt(
                i % 13 + 1,
                200,
                (i % 7 + 1) as u16 * 100,
                u64::from(i) * 100,
            );
            let (cg, fg) = keys(&p);
            for e in cache.insert(&p, cg, fg) {
                if let SwitchEvent::Mgpv(m) = e {
                    evicted += m.records.len();
                }
            }
        }
        for e in cache.flush() {
            if let SwitchEvent::Mgpv(m) = e {
                evicted += m.records.len();
            }
        }
        assert_eq!(evicted, n as usize);
    }

    #[test]
    fn memory_model_components() {
        let cfg = MgpvConfig::default();
        let with_fg = cfg.memory_bytes(4);
        let without_fg = MgpvConfig {
            fg_table_size: 0,
            ..cfg
        }
        .memory_bytes(4);
        assert_eq!(with_fg - without_fg, 16_384 * 17);
        assert!(without_fg > 0);
    }

    #[test]
    fn aging_bounds_batching_delay() {
        // With aging at T, no record lingers much longer than T plus the
        // probe-scan lag before reaching the NIC.
        let t_ns = 1_000_000u64; // 1 ms
        let cfg = MgpvConfig {
            short_count: 64,
            short_size: 4,
            long_count: 8,
            long_size: 8,
            fg_table_size: 0,
            aging_t_ns: Some(t_ns),
            probes_per_packet: 4,
            probe_rate_hz: 0.0,
            activity_window_ns: 10_000_000,
            policy: CgEvictPolicy::DirectMapped,
        };
        let mut cache = MgpvCache::new(cfg).unwrap();
        // Steady stream: many hosts, each sending sporadically, plus a
        // clock-carrier flow that keeps probes advancing.
        for i in 0..20_000u64 {
            let ts = i * 10_000; // 10 µs per packet
            let p = pkt((i % 50 + 1) as u32, 99, 1000, ts);
            let cg = Granularity::Host.key_of(&p);
            cache.insert(&p, cg, None);
        }
        let s = cache.stats();
        assert!(s.delay_samples > 0);
        // Probe lag: a full scan takes short_count / probes packets, i.e.
        // 64/4 * 10µs = 160 µs on top of T.
        let bound = t_ns + 2_000_000;
        assert!(
            s.delay_max_ns <= bound,
            "max delay {} ns exceeds bound {} ns",
            s.delay_max_ns,
            bound
        );
        assert!(s.mean_delay_ns() <= t_ns as f64 * 1.5);
    }

    #[test]
    fn flush_excluded_from_delay_stats() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        cache.flush();
        assert_eq!(cache.stats().delay_samples, 0);
    }

    #[test]
    #[should_panic(expected = "tstamp horizon")]
    fn timestamp_past_horizon_panics() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = PacketRecord::tcp(TS_HORIZON_NS, 100, 1, 1000, 2, 80);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
    }

    #[test]
    fn timestamp_just_below_horizon_is_accepted() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = None; // don't age everything else out
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p = PacketRecord::tcp(TS_HORIZON_NS - 1_000, 100, 1, 1000, 2, 80);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        assert_eq!(cache.stats().resident_records, 1);
    }

    #[test]
    fn random_way_absorbs_colliding_groups() {
        // One 4-way set: four distinct hosts coexist where direct mapping
        // with the same total slot count would thrash.
        let mut cfg = cfg_small();
        cfg.short_count = 4;
        cfg.fg_table_size = 0;
        cfg.policy = CgEvictPolicy::RandomWay { ways: 4, seed: 7 };
        let mut cache = MgpvCache::new(cfg).unwrap();
        for host in 1..=4u32 {
            let p = pkt(host, 99, 1000, u64::from(host) * 10);
            let ev = cache.insert(&p, Granularity::Host.key_of(&p), None);
            assert!(mgpv_events(&ev).is_empty(), "host {host} evicted something");
        }
        assert_eq!(cache.occupied(), 4);
        // A fifth host must evict exactly one resident group.
        let p = pkt(5, 99, 1000, 50);
        let ev = cache.insert(&p, Granularity::Host.key_of(&p), None);
        let msgs = mgpv_events(&ev);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::CgCollision);
        assert_eq!(cache.occupied(), 4);
    }

    #[test]
    fn random_way_eviction_is_deterministic() {
        let run = |seed: u64| -> Vec<GroupKey> {
            let mut cfg = cfg_small();
            cfg.short_count = 4;
            cfg.fg_table_size = 0;
            cfg.policy = CgEvictPolicy::RandomWay { ways: 2, seed };
            let mut cache = MgpvCache::new(cfg).unwrap();
            let mut evicted = Vec::new();
            for i in 0..200u32 {
                let p = pkt(i % 17 + 1, 99, 1000, u64::from(i) * 100);
                for e in cache.insert(&p, Granularity::Host.key_of(&p), None) {
                    if let SwitchEvent::Mgpv(m) = e {
                        evicted.push(m.cg_key);
                    }
                }
            }
            evicted
        };
        assert_eq!(run(1), run(1));
        assert!(!run(1).is_empty());
    }

    #[test]
    fn random_way_conserves_records() {
        let mut cfg = cfg_small();
        cfg.policy = CgEvictPolicy::RandomWay { ways: 4, seed: 3 };
        let mut cache = MgpvCache::new(cfg).unwrap();
        let mut evicted = 0usize;
        let n = 500u32;
        for i in 0..n {
            let p = pkt(
                i % 23 + 1,
                200,
                (i % 7 + 1) as u16 * 100,
                u64::from(i) * 100,
            );
            let (cg, fg) = keys(&p);
            for e in cache.insert(&p, cg, fg) {
                if let SwitchEvent::Mgpv(m) = e {
                    evicted += m.records.len();
                }
            }
        }
        for e in cache.flush() {
            if let SwitchEvent::Mgpv(m) = e {
                evicted += m.records.len();
            }
        }
        assert_eq!(evicted, n as usize);
    }

    #[test]
    fn memory_budget_fits_and_scales() {
        for budget in [1usize << 18, 1 << 20, 1 << 22] {
            let cfg = MgpvConfig::with_memory_budget(budget, 4);
            assert!(
                cfg.memory_bytes(4) <= budget,
                "budget {budget}: {} bytes",
                cfg.memory_bytes(4)
            );
            assert!(cfg.short_count >= 1);
            assert!(MgpvCache::new(cfg).is_some());
        }
        let small = MgpvConfig::with_memory_budget(1 << 18, 4);
        let big = MgpvConfig::with_memory_budget(1 << 22, 4);
        assert!(big.short_count > small.short_count);
    }

    #[test]
    fn save_load_resumes_bitwise_identically() {
        use superfe_net::snap::{StateReader, StateWriter};
        let stream = |i: u32| {
            pkt(
                i % 11 + 1,
                200,
                (i % 5 + 1) as u16 * 100,
                u64::from(i) * 500,
            )
        };
        let mut cfg = cfg_small();
        cfg.aging_t_ns = Some(5_000);
        cfg.probes_per_packet = 2;
        // Uninterrupted run.
        let mut full = MgpvCache::new(cfg).unwrap();
        let mut full_events = Vec::new();
        for i in 0..400u32 {
            let p = stream(i);
            let (cg, fg) = keys(&p);
            full.insert_into(&p, cg, fg, &mut full_events);
        }
        full.flush_into(&mut full_events);
        // Run half, snapshot, restore into a fresh cache, run the rest.
        let mut first = MgpvCache::new(cfg).unwrap();
        let mut events = Vec::new();
        for i in 0..200u32 {
            let p = stream(i);
            let (cg, fg) = keys(&p);
            first.insert_into(&p, cg, fg, &mut events);
        }
        let mut w = StateWriter::new();
        first.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut second = MgpvCache::new(cfg).unwrap();
        let mut r = StateReader::new(&bytes);
        second.load_state(&mut r).expect("state loads");
        assert!(r.is_empty(), "trailing bytes after load");
        for i in 200..400u32 {
            let p = stream(i);
            let (cg, fg) = keys(&p);
            second.insert_into(&p, cg, fg, &mut events);
        }
        second.flush_into(&mut events);
        assert_eq!(events, full_events);
        assert_eq!(second.stats().packets, full.stats().packets);
        assert_eq!(second.stats().evicted_records, full.stats().evicted_records);
    }

    #[test]
    fn load_rejects_mismatched_geometry() {
        use superfe_net::snap::{StateReader, StateWriter};
        let cache = MgpvCache::new(cfg_small()).unwrap();
        let mut w = StateWriter::new();
        cache.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other_cfg = cfg_small();
        other_cfg.short_count = 16; // different geometry
        let mut other = MgpvCache::new(other_cfg).unwrap();
        assert!(other.load_state(&mut StateReader::new(&bytes)).is_none());
        // Truncated input also fails.
        let mut same = MgpvCache::new(cfg_small()).unwrap();
        assert!(same
            .load_state(&mut StateReader::new(&bytes[..bytes.len() - 1]))
            .is_none());
    }

    #[test]
    fn age_tree_finds_first_slot_touched_before_cutoff() {
        // Every (lo, hi, cutoff) against a linear scan, on a slot count
        // that is not a power of two (padding leaves must never match).
        let values = [
            Some(7u64),
            Some(3),
            None,
            Some(9),
            Some(1),
            Some(4),
            None,
            Some(8),
            Some(2),
        ];
        let mut tree = AgeTree::new(values.len());
        for (slot, v) in values.iter().enumerate() {
            // Occupy every slot first, so clearing overwrites a live leaf.
            tree.touch(slot, 0);
            match v {
                Some(ns) => tree.touch(slot, *ns),
                None => tree.clear(slot),
            }
        }
        for lo in 0..=values.len() {
            for hi in lo..=values.len() {
                for cutoff in 0..=10 {
                    let expect = (lo..hi).find(|&s| values[s].is_some_and(|ns| ns < cutoff));
                    assert_eq!(
                        tree.first_before(lo, hi, cutoff),
                        expect,
                        "[{lo},{hi}) < {cutoff}"
                    );
                }
            }
        }
        assert_eq!(tree.first_before(0, values.len(), u64::MAX), Some(0));
    }

    /// Which edge cases reference-differential runs exercised.
    #[derive(Debug, Default)]
    struct Covered {
        wrapped: bool,
        capped: bool,
        backwards: bool,
        before_t: bool,
        aged: bool,
        fg_reassigned: bool,
    }

    fn state_bytes(c: &MgpvCache) -> Vec<u8> {
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        w.into_bytes()
    }

    /// The tree a fresh rebuild from the entries would hold.
    fn ages_consistent(c: &MgpvCache) -> bool {
        let mut fresh = AgeTree::new(c.cfg.short_count);
        fresh.rebuild(&c.entries);
        fresh.nodes == c.ages.nodes
    }

    /// Drives a tree-probing cache and a reference-sweep cache through
    /// `trace` and requires identical events after every packet, then
    /// identical counters and snapshot bytes after the final flush. The
    /// tree cache is snapshotted and restored into a fresh cache before
    /// packet `snap_at`, which checks the tree rebuild. Records the edge
    /// cases the run reached in `cov`.
    fn tree_matches_sweep(
        cfg: MgpvConfig,
        trace: &[PacketRecord],
        snap_at: usize,
        cov: &mut Covered,
    ) -> Result<(), TestCaseError> {
        let mut tree = MgpvCache::new(cfg).unwrap();
        let mut sweep = MgpvCache::new(cfg).unwrap();
        sweep.reference_sweep = true;
        let (mut tree_ev, mut sweep_ev) = (Vec::new(), Vec::new());
        let mut prev_ts = 0;
        for (i, p) in trace.iter().enumerate() {
            if i == snap_at {
                let bytes = state_bytes(&tree);
                tree = MgpvCache::new(cfg).unwrap();
                prop_assert!(tree.load_state(&mut StateReader::new(&bytes)).is_some());
            }
            if let Some(t) = cfg.aging_t_ns {
                let elapsed = p.ts_ns.saturating_sub(sweep.last_probe_ns);
                let timed = (elapsed as f64 * cfg.probe_rate_hz / 1e9) as usize;
                let n_probes = (cfg.probes_per_packet + timed).min(cfg.short_count);
                cov.capped |= cfg.probes_per_packet + timed > cfg.short_count;
                cov.wrapped |= sweep.probe_cursor + n_probes > cfg.short_count;
                cov.before_t |= p.ts_ns <= t;
            }
            cov.backwards |= p.ts_ns < prev_ts;
            prev_ts = p.ts_ns;
            let (cg, fg) = keys(p);
            tree_ev.clear();
            sweep_ev.clear();
            tree.insert_into(p, cg, fg, &mut tree_ev);
            sweep.insert_into(p, cg, fg, &mut sweep_ev);
            prop_assert_eq!(&tree_ev, &sweep_ev, "events diverged at packet {}", i);
            prop_assert!(ages_consistent(&tree), "age tree stale after packet {}", i);
        }
        tree_ev.clear();
        sweep_ev.clear();
        tree.flush_into(&mut tree_ev);
        sweep.flush_into(&mut sweep_ev);
        prop_assert_eq!(&tree_ev, &sweep_ev);
        prop_assert_eq!(tree.stats(), sweep.stats());
        prop_assert_eq!(state_bytes(&tree), state_bytes(&sweep));
        let cause = |c: EvictionCause| EvictionCause::all().iter().position(|x| *x == c).unwrap();
        cov.aged |= sweep.stats().evictions[cause(EvictionCause::Aging)] > 0;
        cov.fg_reassigned |= sweep.stats().evictions[cause(EvictionCause::FgCollision)] > 0;
        Ok(())
    }

    /// A packet trace from `(host, port, gap_ns, step_kind)` tuples: one
    /// step kind in eight moves the clock backwards by the gap.
    fn trace_of(steps: Vec<(u32, u16, u64, u8)>) -> Vec<PacketRecord> {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(host, port, gap, kind)| {
                ts = if kind == 0 {
                    ts.saturating_sub(gap)
                } else {
                    ts + gap
                };
                pkt(host + 1, 99, 1000 + port, ts)
            })
            .collect()
    }

    fn probe_cfg() -> impl Strategy<Value = MgpvConfig> {
        (
            1usize..40,
            1usize..4,
            0usize..4,
            1usize..6,
            0usize..6,
            0u8..4,
            0usize..4,
            (0u8..4, 0u8..3, 0u64..1_000),
        )
            .prop_map(
                |(
                    short_count,
                    short_size,
                    long_count,
                    long_size,
                    fg,
                    t,
                    probes,
                    (rate, policy, seed),
                )| {
                    MgpvConfig {
                        short_count,
                        short_size,
                        long_count,
                        long_size,
                        fg_table_size: fg,
                        aging_t_ns: [None, Some(0), Some(2_000), Some(20_000)][usize::from(t)],
                        probes_per_packet: probes,
                        probe_rate_hz: [0.0, 1e6, 1e7, 1e9][usize::from(rate)],
                        activity_window_ns: 10_000,
                        policy: match policy {
                            0 => CgEvictPolicy::DirectMapped,
                            1 => CgEvictPolicy::RandomWay { ways: 2, seed },
                            _ => CgEvictPolicy::RandomWay { ways: 3, seed },
                        },
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tree-backed probe evicts exactly what the per-slot sweep
        /// evicts: same events in the same order, same counters, same
        /// snapshot bytes — across random geometries, probe rates, aging
        /// timeouts, CG policies, FG tables and non-monotonic clocks.
        #[test]
        fn tree_probe_matches_reference_sweep(
            cfg in probe_cfg(),
            steps in proptest::collection::vec((0u32..10, 0u16..4, 0u64..4_000, 0u8..8), 1..300),
            snap_at in 0usize..300,
        ) {
            tree_matches_sweep(cfg, &trace_of(steps), snap_at, &mut Covered::default())?;
        }
    }

    #[test]
    fn reference_differential_covers_probe_edge_cases() {
        // Fixed cases that must between them hit every edge the random
        // differential is meant to reach.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let steps: Vec<(u32, u16, u64, u8)> = (0..600)
            .map(|_| {
                lcg = splitmix64(lcg);
                (
                    (lcg % 9) as u32,
                    (lcg >> 8) as u16 % 4,
                    (lcg >> 16) % 4_000,
                    (lcg >> 32) as u8 % 8,
                )
            })
            .collect();
        let trace = trace_of(steps);
        let base = MgpvConfig {
            short_count: 12,
            short_size: 2,
            long_count: 2,
            long_size: 3,
            fg_table_size: 2,
            aging_t_ns: Some(2_000),
            probes_per_packet: 1,
            probe_rate_hz: 1e9,
            activity_window_ns: 10_000,
            policy: CgEvictPolicy::RandomWay { ways: 3, seed: 9 },
        };
        let wrap_uncapped = MgpvConfig {
            probes_per_packet: 5,
            probe_rate_hz: 0.0,
            policy: CgEvictPolicy::DirectMapped,
            ..base
        };
        let mut cov = Covered::default();
        for cfg in [base, wrap_uncapped] {
            tree_matches_sweep(cfg, &trace, trace.len() / 2, &mut cov).unwrap();
        }
        assert!(
            cov.wrapped
                && cov.capped
                && cov.backwards
                && cov.before_t
                && cov.aged
                && cov.fg_reassigned,
            "{cov:?}"
        );
    }

    #[test]
    fn buffer_efficiency_reflects_idle_entries() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = None;
        cfg.activity_window_ns = 10;
        let mut cache = MgpvCache::new(cfg).unwrap();
        // Insert one group, then hammer another for > SAMPLE_EVERY packets
        // far in the future so samples see the first entry as inactive.
        let p1 = pkt(1, 2, 1000, 0);
        cache.insert(&p1, Granularity::Host.key_of(&p1), None);
        for i in 0..2 * u64::from(SAMPLE_EVERY) {
            let p = pkt(3, 4, 1000, 1_000_000 + i);
            cache.insert(&p, Granularity::Host.key_of(&p), None);
        }
        let eff = cache.stats().buffer_efficiency();
        assert!(eff > 0.0 && eff < 1.0, "efficiency {eff}");
    }
}
