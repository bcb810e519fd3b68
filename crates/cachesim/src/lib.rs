//! Trace-driven memory-hierarchy simulator.
//!
//! This crate substitutes for the paper's measurement substrate (real SGI
//! R10000 / UltraSparc IIe hardware read through PAPI): it models a
//! multi-level set-associative cache hierarchy with LRU replacement, a
//! fully-associative TLB, software prefetch, and a cycle cost model, and
//! accumulates PAPI-like [`Counters`] (loads, per-level misses, TLB
//! misses, cycles).
//!
//! The executor in `eco-exec` walks an IR program and feeds every memory
//! access to [`MemoryHierarchy::access`] (or whole fused loops, as
//! strided streams, to [`MemoryHierarchy::access_streams`]); flop and
//! loop-overhead costs are added through [`MemoryHierarchy::add_flops`]
//! and [`MemoryHierarchy::add_loop_iterations`].
//!
//! Modelling choices (documented deviations from real hardware):
//!
//! * Caches are virtually indexed off a flat address space and arrays are
//!   laid out contiguously, which matches the paper's footnote-1
//!   assumption of a well-behaved page-colouring OS.
//! * A software prefetch brings the line into every cache level
//!   immediately; it pays the issue cost and the memory *bandwidth*
//!   occupancy (if the line comes from memory) but no latency stall —
//!   i.e. prefetch hides latency but cannot create bandwidth.
//! * Demand misses stall for the full per-level penalty; write-backs are
//!   not modelled (stores are write-allocate, write-back, but dirty
//!   evictions are free).
//! * Per-level miss counters count *demand* (load/store) misses only,
//!   like PAPI's `PAPI_L1_DCM`; prefetch fills are counted separately.
//!
//! # Examples
//!
//! ```
//! use eco_cachesim::{AccessKind, MemoryHierarchy};
//! use eco_machine::MachineDesc;
//!
//! let mut h = MemoryHierarchy::new(&MachineDesc::sgi_r10000());
//! h.access(0, AccessKind::Load);     // cold miss
//! h.access(8, AccessKind::Load);     // same 32-byte line: hit
//! let c = h.counters();
//! assert_eq!(c.loads, 2);
//! assert_eq!(c.cache_misses[0], 1);
//! ```

use eco_machine::{CacheDesc, MachineDesc, TlbDesc};

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A demand store (write-allocate).
    Store,
    /// A software prefetch (no stall, bandwidth + issue cost only).
    Prefetch,
}

/// PAPI-like event counters accumulated by the simulator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counters {
    /// Demand loads issued.
    pub loads: u64,
    /// Demand stores issued.
    pub stores: u64,
    /// Software prefetch instructions issued.
    pub prefetches: u64,
    /// Demand misses per cache level (index 0 = L1).
    pub cache_misses: Vec<u64>,
    /// Lines filled by prefetches, per cache level.
    pub prefetch_fills: Vec<u64>,
    /// TLB misses (demand and prefetch).
    pub tlb_misses: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Loop iterations executed (for overhead costing).
    pub loop_iterations: u64,
    /// Total cycles, in milli-cycles (divide by 1000).
    pub cycles_x1000: u64,
    /// Optional per-tag attribution (see
    /// [`MemoryHierarchy::access_tagged`]); empty unless tags are used.
    pub per_tag: Vec<TagCounters>,
}

/// Per-tag (typically per-array) attribution counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TagCounters {
    /// Demand accesses (loads + stores) with this tag.
    pub accesses: u64,
    /// Demand misses per cache level with this tag.
    pub misses: Vec<u64>,
    /// TLB misses with this tag.
    pub tlb_misses: u64,
}

impl Counters {
    /// Total cycles (rounded down from milli-cycles).
    pub fn cycles(&self) -> u64 {
        self.cycles_x1000 / 1000
    }

    /// The paper's "Loads" column counts prefetch instructions too
    /// (compare mm4 and mm5 in Table 1).
    pub fn loads_incl_prefetch(&self) -> u64 {
        self.loads + self.prefetches
    }

    /// Achieved MFLOPS given a clock rate in MHz.
    ///
    /// Returns 0.0 for an empty run.
    pub fn mflops(&self, clock_mhz: u64) -> f64 {
        if self.cycles_x1000 == 0 {
            return 0.0;
        }
        // flops / seconds = flops * clock_hz / cycles
        self.flops as f64 * clock_mhz as f64 * 1000.0 / self.cycles_x1000 as f64
    }

    /// Accumulates `other` into `self` (event counters add; per-level
    /// vectors extend to the longer of the two), so call sites summing
    /// measurements over several runs need no field-by-field copying.
    pub fn merge(&mut self, other: &Counters) {
        fn add_levels(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        self.loads += other.loads;
        self.stores += other.stores;
        self.prefetches += other.prefetches;
        add_levels(&mut self.cache_misses, &other.cache_misses);
        add_levels(&mut self.prefetch_fills, &other.prefetch_fills);
        self.tlb_misses += other.tlb_misses;
        self.flops += other.flops;
        self.loop_iterations += other.loop_iterations;
        self.cycles_x1000 += other.cycles_x1000;
        if self.per_tag.len() < other.per_tag.len() {
            self.per_tag
                .resize(other.per_tag.len(), TagCounters::default());
        }
        for (a, b) in self.per_tag.iter_mut().zip(&other.per_tag) {
            a.accesses += b.accesses;
            add_levels(&mut a.misses, &b.misses);
            a.tlb_misses += b.tlb_misses;
        }
    }
}

/// One strided access stream of a fused loop nest, in struct-of-arrays
/// batch form: iteration `t` of the loop touches `base + t * stride`
/// whenever `vlo <= t <= vhi`. A batch of streams is serviced in one
/// pass by [`MemoryHierarchy::access_streams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Byte address this stream would touch at iteration 0 (the address
    /// need only be mapped inside the `[vlo, vhi]` window).
    pub base: i64,
    /// Per-iteration byte delta (may be zero or negative).
    pub stride: i64,
    /// First iteration (inclusive) at which this stream is active.
    pub vlo: i64,
    /// Last iteration (inclusive) at which this stream is active.
    pub vhi: i64,
    /// Access kind of every access in the stream.
    pub kind: AccessKind,
    /// Attribution tag (array id); ignored unless attribution is on.
    pub tag: u32,
}

const INVALID: u64 = u64::MAX;

/// Where one access stream (a *lane*) last hit: the L1 slot and TLB
/// entry it touched. A strided stream usually touches the same line or
/// page again on its next iteration, so the walker tries these slots
/// before any search. They are hints, never trusted unverified: a slot
/// is used only while it still holds the line (page) being looked up,
/// so a stale hint costs a search, never a different result.
#[derive(Debug, Clone, Copy, Default)]
struct Memo {
    l1: u32,
    tlb: u32,
}

/// Walker state of one stream of an
/// [`MemoryHierarchy::access_streams`] batch.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Address of the stream's next access.
    addr: u64,
    /// Per-iteration byte delta (two's complement).
    stride: u64,
    prefetch: bool,
    tag: u32,
    memo: Memo,
}

/// One slot of an LRU set: the resident line (page) number and the
/// clock value of its last touch.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// `u64::MAX` = invalid.
    tag: u64,
    stamp: u64,
}

const EMPTY: Slot = Slot {
    tag: INVALID,
    stamp: 0,
};

/// Looks `tag` up in one LRU set at time `clock`: restamps its slot on
/// a hit, else fills the least recently used slot (the first with the
/// smallest stamp). Returns whether it hit and the slot's index in
/// `set`.
#[inline(always)]
fn lru_access(set: &mut [Slot], tag: u64, clock: u64) -> (bool, usize) {
    let mut victim = 0;
    let mut oldest = u64::MAX;
    for (i, s) in set.iter_mut().enumerate() {
        if s.tag == tag {
            s.stamp = clock;
            return (true, i);
        }
        if s.stamp < oldest {
            oldest = s.stamp;
            victim = i;
        }
    }
    set[victim] = Slot { tag, stamp: clock };
    (false, victim)
}

/// One set-associative cache level with LRU replacement.
#[derive(Debug, Clone)]
struct Cache {
    line_bits: u32,
    set_mask: u64,
    ways: usize,
    /// `slots[set * ways + way]`.
    slots: Vec<Slot>,
    clock: u64,
    miss_penalty_x1000: u64,
}

impl Cache {
    fn new(desc: &CacheDesc) -> Self {
        let geom = desc.geometry();
        Cache {
            line_bits: geom.line_bits,
            set_mask: geom.set_mask,
            ways: geom.ways,
            slots: vec![EMPTY; geom.lines],
            clock: 0,
            miss_penalty_x1000: desc.miss_penalty_cycles * 1000,
        }
    }

    /// Looks up `line`, filling on miss. Returns whether it hit and the
    /// slot (index into `slots`) where the line now resides. `hint` is
    /// a slot that may hold the line: a line lives in at most one slot,
    /// so finding it there is exactly the hit the set search would find.
    #[inline(always)]
    fn access(&mut self, line: u64, hint: u32) -> (bool, u32) {
        self.clock += 1;
        let s = &mut self.slots[hint as usize];
        if s.tag == line {
            s.stamp = self.clock;
            return (true, hint);
        }
        let base = (line & self.set_mask) as usize * self.ways;
        let (hit, i) = lru_access(&mut self.slots[base..base + self.ways], line, self.clock);
        (hit, (base + i) as u32)
    }
}

/// Fully-associative LRU TLB.
#[derive(Debug, Clone)]
struct Tlb {
    page_bits: u32,
    slots: Vec<Slot>,
    clock: u64,
    miss_penalty_x1000: u64,
    /// Direct-mapped page → entry hints, indexed by the page's low bits.
    /// A hint is only *trusted* after verifying `slots[entry]` still
    /// holds the page, so stale or colliding entries merely fall back to
    /// the full scan — the shortcut can never change simulated
    /// behaviour. This is what keeps a stream that moves to a new page
    /// from paying a full associative scan on every TLB hit.
    hint: Vec<u32>,
}

/// log2 of the TLB hint-table size.
const TLB_HINT_BITS: u32 = 10;

impl Tlb {
    fn new(desc: &TlbDesc) -> Self {
        assert!(
            desc.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            page_bits: desc.page_bytes.trailing_zeros(),
            slots: vec![EMPTY; desc.entries],
            clock: 0,
            miss_penalty_x1000: desc.miss_penalty_cycles * 1000,
            hint: vec![0; 1 << TLB_HINT_BITS],
        }
    }

    /// Looks up `page`, filling on miss; `hint` is an entry that may
    /// hold it, verified before it is trusted (see [`Cache::access`]).
    #[inline(always)]
    fn access(&mut self, page: u64, hint: u32) -> (bool, u32) {
        self.clock += 1;
        let s = &mut self.slots[hint as usize];
        if s.tag == page {
            s.stamp = self.clock;
            return (true, hint);
        }
        let h = (page as usize) & ((1usize << TLB_HINT_BITS) - 1);
        let s = &mut self.slots[self.hint[h] as usize];
        if s.tag == page {
            s.stamp = self.clock;
            return (true, self.hint[h]);
        }
        let (hit, i) = lru_access(&mut self.slots, page, self.clock);
        self.hint[h] = i as u32;
        (hit, i as u32)
    }
}

/// The full simulated memory hierarchy for one machine.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    caches: Vec<Cache>,
    tlb: Tlb,
    counters: Counters,
    mem_issue_x1000: u64,
    prefetch_issue_x1000: u64,
    flop_x1000: u64,
    loop_overhead_x1000: u64,
    bandwidth_per_line_x1000: u64,
    /// L1 line of the most recent access (`u64::MAX` = none yet). Any
    /// access leaves its line resident in L1 (hit or fill) and its page
    /// in the TLB, so a follow-up access to the same line is *provably*
    /// an L1 + TLB hit whose only architectural effect is bumping the
    /// two LRU clocks and restamping the touched slots — which is what
    /// the same-line shortcut does, without any lookup.
    last_line: u64,
    /// Slot in `caches[0]` holding `last_line`.
    last_l1_slot: u32,
    /// TLB entry holding `last_line`'s page.
    last_tlb_slot: u32,
    /// The same-line shortcut requires at least one cache level and
    /// pages no smaller than L1 lines (so same line implies same page).
    fast_ok: bool,
    /// Reused segment-boundary scratch for [`MemoryHierarchy::access_streams`].
    scratch_cuts: Vec<i64>,
    /// Reused active-stream scratch for [`MemoryHierarchy::access_streams`].
    scratch_active: Vec<u32>,
    /// Per-stream walker state of [`MemoryHierarchy::access_streams`].
    /// Kept between calls: a plan hands the same loop's streams over in
    /// the same order on every entry, so each lane's remembered slots
    /// are good first guesses for the stream at its index next time.
    lanes: Vec<Lane>,
}

impl MemoryHierarchy {
    /// A cold hierarchy for the given machine.
    pub fn new(machine: &MachineDesc) -> Self {
        let caches: Vec<Cache> = machine.caches.iter().map(Cache::new).collect();
        let fast_ok = caches
            .first()
            .map(|l1| machine.tlb.page_bytes.trailing_zeros() >= l1.line_bits)
            .unwrap_or(false);
        MemoryHierarchy {
            tlb: Tlb::new(&machine.tlb),
            counters: Counters {
                cache_misses: vec![0; caches.len()],
                prefetch_fills: vec![0; caches.len()],
                ..Default::default()
            },
            caches,
            mem_issue_x1000: machine.cost.mem_issue_cycles_x1000,
            prefetch_issue_x1000: machine.cost.prefetch_issue_cycles_x1000,
            flop_x1000: machine.cost.flop_cycles_x1000,
            loop_overhead_x1000: machine.cost.loop_overhead_cycles_x1000,
            bandwidth_per_line_x1000: machine.cost.memory_bandwidth_cycles_per_line_x1000,
            last_line: INVALID,
            last_l1_slot: 0,
            last_tlb_slot: 0,
            fast_ok,
            scratch_cuts: Vec::new(),
            scratch_active: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// Counts the issue cost of `k` accesses of `kind` (counters and
    /// cycles only — no clock or stamp movement). Counters are sums, so
    /// issue costs may be added in any order relative to the lookups.
    #[inline]
    fn bulk_issue(&mut self, k: u64, kind: AccessKind) {
        match kind {
            AccessKind::Load => {
                self.counters.loads += k;
                self.counters.cycles_x1000 += k * self.mem_issue_x1000;
            }
            AccessKind::Store => {
                self.counters.stores += k;
                self.counters.cycles_x1000 += k * self.mem_issue_x1000;
            }
            AccessKind::Prefetch => {
                self.counters.prefetches += k;
                self.counters.cycles_x1000 += k * self.prefetch_issue_x1000;
            }
        }
    }

    /// Grows the per-tag table to hold `tag`.
    fn grow_tags(&mut self, tag: usize) {
        let levels = self.caches.len();
        if self.counters.per_tag.len() <= tag {
            self.counters.per_tag.resize_with(tag + 1, || TagCounters {
                accesses: 0,
                misses: vec![0; levels],
                tlb_misses: 0,
            });
        }
    }

    /// The lane state a lone access starts from: the slots of the
    /// previous access, which is all a lone access has to go on.
    fn last_memo(&self) -> Memo {
        Memo {
            l1: self.last_l1_slot,
            tlb: self.last_tlb_slot,
        }
    }

    /// Simulates one access to byte address `addr`, attributing misses
    /// to `tag` (e.g. the array id). Tags grow the per-tag table on
    /// demand; use [`MemoryHierarchy::access`] when attribution is not
    /// needed.
    pub fn access_tagged(&mut self, addr: u64, kind: AccessKind, tag: usize) {
        self.grow_tags(tag);
        self.bulk_issue(1, kind);
        let prefetch = matches!(kind, AccessKind::Prefetch);
        if !prefetch {
            self.counters.per_tag[tag].accesses += 1;
        }
        let mut memo = self.last_memo();
        self.touch::<true>(addr, prefetch, &mut memo, tag);
    }

    /// Simulates one access to byte address `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) {
        self.bulk_issue(1, kind);
        let mut memo = self.last_memo();
        self.touch::<false>(addr, matches!(kind, AccessKind::Prefetch), &mut memo, 0);
    }

    /// Everything one access does except count its issue: the TLB and
    /// cache lookups, fills, miss penalties and (when `ATTR`) the miss
    /// attribution to `tag`. `memo` is the issuing lane's remembered
    /// slots, updated to the slots this access touched.
    ///
    /// The first of these that applies serves the access:
    ///
    /// 1. the same-line shortcut (the previous access, by any lane, was
    ///    to this line: tick both clocks, restamp both slots);
    /// 2. the lane's remembered L1 slot and TLB entry, each accepted
    ///    only if it still holds this line (page);
    /// 3. the set search and TLB lookup, then the lower levels on an L1
    ///    miss.
    ///
    /// Each verified hit ticks the clock and restamps the slot, exactly
    /// what the search would have done on finding the line there. An L1
    /// hit never reaches the lower levels, so nothing below L1 is read.
    #[inline(always)]
    fn touch<const ATTR: bool>(&mut self, addr: u64, prefetch: bool, memo: &mut Memo, tag: usize) {
        let Some(l1) = self.caches.first_mut() else {
            self.touch_tlb::<ATTR>(addr, memo, tag);
            return self.fill::<ATTR>(addr, prefetch, tag);
        };
        let line = addr >> l1.line_bits;
        if self.fast_ok && line == self.last_line {
            l1.clock += 1;
            l1.slots[self.last_l1_slot as usize].stamp = l1.clock;
            self.tlb.clock += 1;
            self.tlb.slots[self.last_tlb_slot as usize].stamp = self.tlb.clock;
            *memo = self.last_memo();
            return;
        }
        let (l1_hit, l1_slot) = l1.access(line, memo.l1);
        memo.l1 = l1_slot;
        self.touch_tlb::<ATTR>(addr, memo, tag);
        if !l1_hit {
            self.fill::<ATTR>(addr, prefetch, tag);
        }
        self.last_line = line;
        self.last_l1_slot = l1_slot;
        self.last_tlb_slot = memo.tlb;
    }

    /// The TLB half of [`MemoryHierarchy::touch`].
    #[inline(always)]
    fn touch_tlb<const ATTR: bool>(&mut self, addr: u64, memo: &mut Memo, tag: usize) {
        let (hit, slot) = self.tlb.access(addr >> self.tlb.page_bits, memo.tlb);
        memo.tlb = slot;
        if !hit {
            self.counters.tlb_misses += 1;
            self.counters.cycles_x1000 += self.tlb.miss_penalty_x1000;
            if ATTR {
                self.counters.per_tag[tag].tlb_misses += 1;
            }
        }
    }

    /// An L1 miss (already filled into L1 by the lookup): counts it and
    /// walks the lower levels until one hits, counting a miss at each
    /// level that does not.
    fn fill<const ATTR: bool>(&mut self, addr: u64, prefetch: bool, tag: usize) {
        for i in 0..self.caches.len() {
            let cache = &mut self.caches[i];
            if i > 0 && cache.access(addr >> cache.line_bits, 0).0 {
                return;
            }
            if prefetch {
                self.counters.prefetch_fills[i] += 1;
            } else {
                self.counters.cache_misses[i] += 1;
                self.counters.cycles_x1000 += cache.miss_penalty_x1000;
                if ATTR {
                    self.counters.per_tag[tag].misses[i] += 1;
                }
            }
        }
        // The line came from main memory: bus occupancy is paid whether
        // or not the latency was hidden.
        self.counters.cycles_x1000 += self.bandwidth_per_line_x1000;
    }

    /// Services a whole batch of strided access streams in one pass —
    /// exactly equivalent to the interleaved per-access loop
    ///
    /// ```ignore
    /// for t in 0..trips {
    ///     for s in streams {
    ///         if s.vlo <= t && t <= s.vhi {
    ///             h.access(s.base + t * s.stride, s.kind)
    ///         }
    ///     }
    /// }
    /// ```
    ///
    /// (or `access_tagged` with each stream's tag when `attribute` is
    /// set), but batched. The trip range is cut at the streams'
    /// validity boundaries so each segment has a constant active set.
    /// A segment's issue counts are added in bulk, one multiply per
    /// stream; then its accesses are walked in the loop's order, each
    /// stream (lane) trying the L1 slot and TLB entry it touched last
    /// before any search, and trusting each only once it is checked to
    /// still hold the line (page). Every lookup still happens, in the
    /// same order, with the same clock ticks and restamps, so the result
    /// is bit-identical to the loop above.
    ///
    /// The caller must guarantee every in-window address is mapped;
    /// strides may be zero or negative.
    pub fn access_streams(&mut self, streams: &[StreamSpec], trips: i64, attribute: bool) {
        if trips <= 0 || streams.is_empty() {
            return;
        }
        if attribute {
            let max_tag = streams.iter().map(|s| s.tag as usize).max().unwrap_or(0);
            self.grow_tags(max_tag);
        }
        let mut cuts = std::mem::take(&mut self.scratch_cuts);
        let mut active = std::mem::take(&mut self.scratch_active);
        let mut lanes = std::mem::take(&mut self.lanes);
        let start = self.last_memo();
        lanes.resize(
            streams.len(),
            Lane {
                memo: start,
                ..Lane::default()
            },
        );
        for (lane, s) in lanes.iter_mut().zip(streams) {
            lane.stride = s.stride as u64;
            lane.prefetch = matches!(s.kind, AccessKind::Prefetch);
            lane.tag = s.tag;
        }
        cuts.clear();
        cuts.push(0);
        cuts.push(trips);
        for s in streams {
            if s.vlo > 0 && s.vlo < trips {
                cuts.push(s.vlo);
            }
            if s.vhi >= 0 && s.vhi + 1 < trips {
                cuts.push(s.vhi + 1);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in 0..cuts.len() - 1 {
            let (t0, t1) = (cuts[w], cuts[w + 1]);
            active.clear();
            for (i, s) in streams.iter().enumerate() {
                if s.vlo <= t0 && t0 <= s.vhi {
                    active.push(i as u32);
                    let n = (t1 - t0) as u64;
                    self.bulk_issue(n, s.kind);
                    if attribute && !matches!(s.kind, AccessKind::Prefetch) {
                        self.counters.per_tag[s.tag as usize].accesses += n;
                    }
                    lanes[i].addr = (s.base as u64).wrapping_add_signed(s.stride.wrapping_mul(t0));
                }
            }
            if attribute {
                self.walk::<true>(&mut lanes, &active, t1 - t0);
            } else {
                self.walk::<false>(&mut lanes, &active, t1 - t0);
            }
        }
        self.scratch_cuts = cuts;
        self.scratch_active = active;
        self.lanes = lanes;
    }

    /// Walks `trips` iterations of the `active` lanes, in order, from
    /// each lane's current address; issue counts are the caller's.
    fn walk<const ATTR: bool>(&mut self, lanes: &mut [Lane], active: &[u32], trips: i64) {
        for _ in 0..trips {
            for &i in active {
                let lane = &mut lanes[i as usize];
                let addr = lane.addr;
                lane.addr = addr.wrapping_add(lane.stride);
                self.touch::<ATTR>(addr, lane.prefetch, &mut lane.memo, lane.tag as usize);
            }
        }
    }

    /// Adds `n` floating-point operations to the cost.
    pub fn add_flops(&mut self, n: u64) {
        self.counters.flops += n;
        self.counters.cycles_x1000 += n * self.flop_x1000;
    }

    /// Adds `n` loop iterations' worth of control overhead.
    pub fn add_loop_iterations(&mut self, n: u64) {
        self.counters.loop_iterations += n;
        self.counters.cycles_x1000 += n * self.loop_overhead_x1000;
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Consumes the hierarchy and returns its counters.
    pub fn into_counters(self) -> Counters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_machine::CostModel;
    use proptest::prelude::*;

    fn tiny_machine() -> MachineDesc {
        MachineDesc {
            name: "tiny".into(),
            clock_mhz: 100,
            fp_registers: 32,
            caches: vec![
                CacheDesc {
                    name: "L1".into(),
                    capacity_bytes: 256, // 8 lines of 32B
                    associativity: 2,
                    line_bytes: 32,
                    miss_penalty_cycles: 10,
                },
                CacheDesc {
                    name: "L2".into(),
                    capacity_bytes: 1024,
                    associativity: 2,
                    line_bytes: 64,
                    miss_penalty_cycles: 80,
                },
            ],
            tlb: TlbDesc {
                entries: 4,
                page_bytes: 256,
                miss_penalty_cycles: 50,
            },
            cost: CostModel::default(),
        }
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        for off in 0..4 {
            h.access(off * 8, AccessKind::Load);
        }
        assert_eq!(h.counters().loads, 4);
        assert_eq!(h.counters().cache_misses[0], 1);
        assert_eq!(h.counters().cache_misses[1], 1);
        assert_eq!(h.counters().tlb_misses, 1);
    }

    #[test]
    fn temporal_locality_within_capacity() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // 8 distinct lines fill L1 exactly; second sweep all hits.
        for rep in 0..2 {
            for line in 0..8u64 {
                h.access(line * 32, AccessKind::Load);
            }
            if rep == 0 {
                assert_eq!(h.counters().cache_misses[0], 8);
            }
        }
        assert_eq!(h.counters().cache_misses[0], 8, "second sweep hits");
    }

    #[test]
    fn capacity_misses_beyond_cache() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // 16 lines cycled twice thrash the 8-line LRU L1 completely.
        for _ in 0..2 {
            for line in 0..16u64 {
                h.access(line * 32, AccessKind::Load);
            }
        }
        assert_eq!(h.counters().cache_misses[0], 32);
        // but the data (8 x 64B L2 lines) fits in the 16-line L2:
        // only the first sweep's compulsory misses show up there.
        assert_eq!(h.counters().cache_misses[1], 8);
    }

    #[test]
    fn conflict_misses_in_same_set() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // L1: 8 lines, 2-way => 4 sets, set stride = 128 B.
        // Three lines mapping to set 0 thrash a 2-way set.
        for _ in 0..10 {
            for k in 0..3u64 {
                h.access(k * 128, AccessKind::Load);
            }
        }
        assert_eq!(h.counters().cache_misses[0], 30, "every access conflicts");
    }

    #[test]
    fn two_way_avoids_conflict_that_direct_mapped_has() {
        let mut dm = tiny_machine();
        dm.caches[0].associativity = 1;
        let mut h2 = MemoryHierarchy::new(&tiny_machine());
        let mut h1 = MemoryHierarchy::new(&dm);
        // Two lines 256 B apart: same set in both configs.
        for _ in 0..10 {
            for k in 0..2u64 {
                h1.access(k * 256, AccessKind::Load);
                h2.access(k * 256, AccessKind::Load);
            }
        }
        assert_eq!(h1.counters().cache_misses[0], 20, "direct-mapped thrashes");
        assert_eq!(h2.counters().cache_misses[0], 2, "2-way keeps both");
    }

    #[test]
    fn store_is_write_allocate() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        h.access(0, AccessKind::Store);
        h.access(8, AccessKind::Load);
        assert_eq!(h.counters().stores, 1);
        assert_eq!(h.counters().cache_misses[0], 1, "load hits allocated line");
    }

    #[test]
    fn tlb_covers_four_pages() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // 4 pages covered; a 5-page round-robin thrashes the LRU TLB.
        for _ in 0..3 {
            for p in 0..5u64 {
                h.access(p * 256, AccessKind::Load);
            }
        }
        assert_eq!(h.counters().tlb_misses, 15);
    }

    #[test]
    fn prefetch_hides_stall_but_pays_bandwidth() {
        let m = tiny_machine();
        let mut with = MemoryHierarchy::new(&m);
        let mut without = MemoryHierarchy::new(&m);
        for line in 0..64u64 {
            with.access(line * 64 + 32, AccessKind::Prefetch);
            with.access(line * 64, AccessKind::Load);
            without.access(line * 64, AccessKind::Load);
        }
        let cw = with.counters();
        let cwo = without.counters();
        assert_eq!(cw.cache_misses[1], 0, "demand misses eliminated at L2");
        assert_eq!(cwo.cache_misses[1], 64);
        assert!(
            cw.cycles() < cwo.cycles(),
            "prefetch must be a net win here"
        );
        assert_eq!(cw.prefetch_fills[1], 64);
    }

    #[test]
    fn prefetch_counts_as_load_in_paper_metric() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        h.access(0, AccessKind::Load);
        h.access(4096, AccessKind::Prefetch);
        assert_eq!(h.counters().loads, 1);
        assert_eq!(h.counters().loads_incl_prefetch(), 2);
    }

    #[test]
    fn flops_and_mflops() {
        let m = tiny_machine();
        let mut h = MemoryHierarchy::new(&m);
        h.add_flops(1000);
        let c = h.into_counters();
        assert_eq!(c.flops, 1000);
        // 1000 flops at 0.5 cycles each = 500 cycles; 100 MHz clock.
        assert_eq!(c.cycles(), 500);
        assert!((c.mflops(100) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn loop_overhead_accumulates() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        h.add_loop_iterations(10);
        assert_eq!(h.counters().loop_iterations, 10);
        assert_eq!(h.counters().cycles(), 10);
    }

    #[test]
    fn empty_counters_mflops_is_zero() {
        let c = Counters::default();
        assert_eq!(c.mflops(1000), 0.0);
    }

    /// A deliberately naive re-implementation of the documented
    /// semantics (no remembered slots, no same-line shortcut), used to
    /// check that the optimized paths are behaviour-preserving — down
    /// to the LRU stamps, whose influence shows up as eviction (miss)
    /// differences on long adversarial streams.
    mod naive {
        use super::super::{AccessKind, Counters, TagCounters};
        use eco_machine::MachineDesc;

        pub struct Model {
            line_bits: Vec<u32>,
            set_mask: Vec<u64>,
            ways: Vec<usize>,
            tags: Vec<Vec<u64>>,
            stamps: Vec<Vec<u64>>,
            clocks: Vec<u64>,
            miss_pen: Vec<u64>,
            page_bits: u32,
            tlb_pages: Vec<u64>,
            tlb_stamps: Vec<u64>,
            tlb_clock: u64,
            tlb_pen: u64,
            pub counters: Counters,
            mem_issue: u64,
            pf_issue: u64,
            bw_line: u64,
        }

        impl Model {
            pub fn new(m: &MachineDesc) -> Self {
                Model {
                    line_bits: m
                        .caches
                        .iter()
                        .map(|c| c.line_bytes.trailing_zeros())
                        .collect(),
                    set_mask: m.caches.iter().map(|c| c.num_sets() as u64 - 1).collect(),
                    ways: m.caches.iter().map(|c| c.associativity).collect(),
                    tags: m
                        .caches
                        .iter()
                        .map(|c| vec![u64::MAX; c.num_sets() * c.associativity])
                        .collect(),
                    stamps: m
                        .caches
                        .iter()
                        .map(|c| vec![0; c.num_sets() * c.associativity])
                        .collect(),
                    clocks: vec![0; m.caches.len()],
                    miss_pen: m
                        .caches
                        .iter()
                        .map(|c| c.miss_penalty_cycles * 1000)
                        .collect(),
                    page_bits: m.tlb.page_bytes.trailing_zeros(),
                    tlb_pages: vec![u64::MAX; m.tlb.entries],
                    tlb_stamps: vec![0; m.tlb.entries],
                    tlb_clock: 0,
                    tlb_pen: m.tlb.miss_penalty_cycles * 1000,
                    counters: Counters {
                        cache_misses: vec![0; m.caches.len()],
                        prefetch_fills: vec![0; m.caches.len()],
                        ..Default::default()
                    },
                    mem_issue: m.cost.mem_issue_cycles_x1000,
                    pf_issue: m.cost.prefetch_issue_cycles_x1000,
                    bw_line: m.cost.memory_bandwidth_cycles_per_line_x1000,
                }
            }

            fn cache_access(&mut self, level: usize, addr: u64) -> bool {
                let line = addr >> self.line_bits[level];
                let set = (line & self.set_mask[level]) as usize;
                let base = set * self.ways[level];
                self.clocks[level] += 1;
                let mut victim = base;
                let mut oldest = u64::MAX;
                for i in base..base + self.ways[level] {
                    if self.tags[level][i] == line {
                        self.stamps[level][i] = self.clocks[level];
                        return true;
                    }
                    if self.stamps[level][i] < oldest {
                        oldest = self.stamps[level][i];
                        victim = i;
                    }
                }
                self.tags[level][victim] = line;
                self.stamps[level][victim] = self.clocks[level];
                false
            }

            pub fn access(&mut self, addr: u64, kind: AccessKind) {
                let is_prefetch = matches!(kind, AccessKind::Prefetch);
                match kind {
                    AccessKind::Load => {
                        self.counters.loads += 1;
                        self.counters.cycles_x1000 += self.mem_issue;
                    }
                    AccessKind::Store => {
                        self.counters.stores += 1;
                        self.counters.cycles_x1000 += self.mem_issue;
                    }
                    AccessKind::Prefetch => {
                        self.counters.prefetches += 1;
                        self.counters.cycles_x1000 += self.pf_issue;
                    }
                }
                let page = addr >> self.page_bits;
                self.tlb_clock += 1;
                let mut hit = false;
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for i in 0..self.tlb_pages.len() {
                    if self.tlb_pages[i] == page {
                        self.tlb_stamps[i] = self.tlb_clock;
                        hit = true;
                        break;
                    }
                    if self.tlb_stamps[i] < oldest {
                        oldest = self.tlb_stamps[i];
                        victim = i;
                    }
                }
                if !hit {
                    self.tlb_pages[victim] = page;
                    self.tlb_stamps[victim] = self.tlb_clock;
                    self.counters.tlb_misses += 1;
                    self.counters.cycles_x1000 += self.tlb_pen;
                }
                let mut filled = true;
                for level in 0..self.clocks.len() {
                    let hit = self.cache_access(level, addr);
                    if !hit {
                        if is_prefetch {
                            self.counters.prefetch_fills[level] += 1;
                        } else {
                            self.counters.cache_misses[level] += 1;
                            self.counters.cycles_x1000 += self.miss_pen[level];
                        }
                    } else {
                        filled = false;
                        break;
                    }
                }
                if filled {
                    self.counters.cycles_x1000 += self.bw_line;
                }
            }

            /// [`Model::access`], attributing the access and its misses
            /// to `tag` by differencing the global counters.
            pub fn access_tagged(&mut self, addr: u64, kind: AccessKind, tag: usize) {
                let levels = self.clocks.len();
                if self.counters.per_tag.len() <= tag {
                    self.counters.per_tag.resize_with(tag + 1, || TagCounters {
                        misses: vec![0; levels],
                        ..Default::default()
                    });
                }
                let before = self.counters.clone();
                self.access(addr, kind);
                let c = &mut self.counters;
                let t = &mut c.per_tag[tag];
                if !matches!(kind, AccessKind::Prefetch) {
                    t.accesses += 1;
                }
                for (i, m) in t.misses.iter_mut().enumerate() {
                    *m += c.cache_misses[i] - before.cache_misses[i];
                }
                t.tlb_misses += c.tlb_misses - before.tlb_misses;
            }
        }
    }

    /// A small deterministic generator for access streams that mix
    /// strided runs (which exercise the shortcuts) with random jumps
    /// (which break it) and all three access kinds.
    fn pseudo_stream(seed: u64, len: usize, span: u64) -> Vec<(u64, AccessKind)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::with_capacity(len);
        let mut addr = 0u64;
        while out.len() < len {
            let r = next();
            let kind = match r % 10 {
                0..=5 => AccessKind::Load,
                6..=8 => AccessKind::Store,
                _ => AccessKind::Prefetch,
            };
            if r % 4 == 0 {
                addr = next() % span;
            }
            let stride = [0i64, 8, 8, 8, 16, 32, -8, 24][(next() % 8) as usize];
            let run = 1 + next() % 9;
            for _ in 0..run {
                out.push((addr % span, kind));
                addr = addr.wrapping_add_signed(stride) % span;
                if out.len() == len {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn fast_paths_match_naive_model() {
        for seed in [3u64, 17, 92, 1234] {
            let m = tiny_machine();
            let mut fast = MemoryHierarchy::new(&m);
            let mut slow = naive::Model::new(&m);
            for (addr, kind) in pseudo_stream(seed, 4000, 16384) {
                fast.access(addr, kind);
                slow.access(addr, kind);
            }
            assert_eq!(fast.into_counters(), slow.counters, "seed {seed}");
        }
    }

    #[test]
    fn fast_paths_match_naive_model_on_real_machines() {
        for m in [
            MachineDesc::sgi_r10000().scaled(32),
            MachineDesc::ultrasparc_iie().scaled(32),
        ] {
            let mut fast = MemoryHierarchy::new(&m);
            let mut slow = naive::Model::new(&m);
            for (addr, kind) in pseudo_stream(7, 6000, 1 << 20) {
                fast.access(addr, kind);
                slow.access(addr, kind);
            }
            assert_eq!(fast.into_counters(), slow.counters, "machine {}", m.name);
        }
    }

    /// Simulates a single-stream run of `count` accesses at `base,
    /// base + stride, …` through [`MemoryHierarchy::access_streams`]
    /// (attributed to `tag` when given).
    fn run(
        h: &mut MemoryHierarchy,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        tag: Option<usize>,
    ) {
        let spec = StreamSpec {
            base: base as i64,
            stride,
            vlo: 0,
            vhi: count as i64 - 1,
            kind,
            tag: tag.unwrap_or(0) as u32,
        };
        h.access_streams(&[spec], count as i64, tag.is_some());
    }

    #[test]
    fn access_run_equals_per_access_loop() {
        let cases: &[(u64, i64, u64)] = &[
            (0, 8, 100),     // unit stride
            (12, 8, 1),      // single access
            (0, 8, 0),       // empty run
            (5, 0, 40),      // zero stride
            (40, 4, 17),     // sub-element stride
            (8192, -8, 64),  // descending
            (3, 32, 50),     // exactly one per line
            (0, 48, 33),     // line-crossing stride
            (100, 1000, 20), // page-crossing stride
        ];
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Prefetch] {
            for &(base, stride, count) in cases {
                let m = tiny_machine();
                let mut a = MemoryHierarchy::new(&m);
                let mut b = MemoryHierarchy::new(&m);
                // interleave with a warm-up so the run starts from a
                // non-trivial cache state
                for t in 0..32 {
                    a.access(t * 8, AccessKind::Load);
                    b.access(t * 8, AccessKind::Load);
                }
                run(&mut a, base, stride, count, kind, None);
                for t in 0..count {
                    b.access(base.wrapping_add_signed(stride * t as i64), kind);
                }
                // and the post-run state must agree too: do a sweep that
                // is sensitive to LRU stamp differences
                for t in 0..64 {
                    a.access(t * 32, kind);
                    b.access(t * 32, kind);
                }
                assert_eq!(
                    a.into_counters(),
                    b.into_counters(),
                    "kind {kind:?} base {base} stride {stride} count {count}"
                );
            }
        }
    }

    /// Single-stream edge cases, each against per-access simulation
    /// from a warmed state:
    /// stride larger than a line, stride crossing a page/TLB boundary,
    /// negative strides, zero-length runs, and runs that straddle a set
    /// wraparound (consecutive lines mapping back to set 0).
    #[test]
    fn access_run_edge_cases_equal_per_access_loop() {
        let cases: &[(&str, u64, i64, u64)] = &[
            ("stride larger than a line", 0, 40, 60),
            ("stride of many lines", 64, 160, 50),
            ("stride crossing pages", 0, 300, 40),
            ("exactly one access per page", 128, 256, 30),
            ("negative line-crossing stride", 16384, -40, 80),
            ("negative page-crossing stride", 32768, -300, 40),
            ("zero-length run", 512, 8, 0),
            ("zero-length negative stride", 512, -8, 0),
            // L1 has 4 sets of 32B lines: 128B wraps back to set 0, so a
            // long unit-line run cycles every set several times.
            ("set wraparound ascending", 0, 32, 24),
            ("set wraparound descending", 4096, -32, 24),
            ("set wraparound with conflicts", 0, 128, 40),
        ];
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Prefetch] {
            for &(name, base, stride, count) in cases {
                let m = tiny_machine();
                let mut a = MemoryHierarchy::new(&m);
                let mut b = MemoryHierarchy::new(&m);
                for t in 0..48 {
                    a.access(t * 8, AccessKind::Load);
                    b.access(t * 8, AccessKind::Load);
                }
                run(&mut a, base, stride, count, kind, None);
                for t in 0..count {
                    b.access(base.wrapping_add_signed(stride * t as i64), kind);
                }
                // post-state must agree too (LRU-stamp sensitive sweep)
                for t in 0..64 {
                    a.access(t * 32, kind);
                    b.access(t * 32, kind);
                }
                assert_eq!(
                    a.into_counters(),
                    b.into_counters(),
                    "{name}: kind {kind:?} base {base} stride {stride} count {count}"
                );
            }
        }
    }

    /// Multi-stream batches (the shape the compiled plan hands over)
    /// must match the interleaved per-access loop exactly, including
    /// partially-active (prefetch-window) streams, shared lines between
    /// streams, and tags.
    #[test]
    fn access_streams_equals_interleaved_loop() {
        let batches: &[&[StreamSpec]] = &[
            // MM inner-loop shape: invariant A, unit-stride B and C
            // (load + store), all resident after the first lines fill.
            &[
                StreamSpec {
                    base: 0,
                    stride: 0,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 1024,
                    stride: 8,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Load,
                    tag: 1,
                },
                StreamSpec {
                    base: 2048,
                    stride: 8,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Load,
                    tag: 2,
                },
                StreamSpec {
                    base: 2048,
                    stride: 8,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Store,
                    tag: 2,
                },
            ],
            // Prefetch stream active only on a sub-window, ahead of a
            // demand stream sharing its lines.
            &[
                StreamSpec {
                    base: 0,
                    stride: 8,
                    vlo: 0,
                    vhi: 99,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 128,
                    stride: 8,
                    vlo: 5,
                    vhi: 80,
                    kind: AccessKind::Prefetch,
                    tag: 0,
                },
            ],
            // Conflicting streams thrashing one set (every lane's
            // remembered slot goes stale) plus a negative stride.
            &[
                StreamSpec {
                    base: 0,
                    stride: 128,
                    vlo: 0,
                    vhi: 39,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 8192,
                    stride: 128,
                    vlo: 0,
                    vhi: 39,
                    kind: AccessKind::Load,
                    tag: 1,
                },
                StreamSpec {
                    base: 4096,
                    stride: -8,
                    vlo: 10,
                    vhi: 30,
                    kind: AccessKind::Store,
                    tag: 2,
                },
            ],
            // Disjoint validity windows: active set changes twice.
            &[
                StreamSpec {
                    base: 0,
                    stride: 8,
                    vlo: 0,
                    vhi: 19,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 512,
                    stride: 8,
                    vlo: 20,
                    vhi: 59,
                    kind: AccessKind::Store,
                    tag: 1,
                },
            ],
        ];
        for (bi, streams) in batches.iter().enumerate() {
            let trips = streams.iter().map(|s| s.vhi + 1).max().unwrap();
            for attribute in [false, true] {
                let m = tiny_machine();
                let mut a = MemoryHierarchy::new(&m);
                let mut b = MemoryHierarchy::new(&m);
                a.access_streams(streams, trips, attribute);
                for t in 0..trips {
                    for s in *streams {
                        if s.vlo <= t && t <= s.vhi {
                            let addr = (s.base + t * s.stride) as u64;
                            if attribute {
                                b.access_tagged(addr, s.kind, s.tag as usize);
                            } else {
                                b.access(addr, s.kind);
                            }
                        }
                    }
                }
                // LRU-stamp-sensitive post-sweep
                for t in 0..64u64 {
                    a.access(t * 32, AccessKind::Load);
                    b.access(t * 32, AccessKind::Load);
                }
                assert_eq!(
                    a.into_counters(),
                    b.into_counters(),
                    "batch {bi} attribute {attribute}"
                );
            }
        }
    }

    /// A machine for the randomized walker differential: an 8-line L1
    /// of `1 << ways_log` ways, an optional L2, and a 4-entry TLB with
    /// pages of `2^page_shift` L1 lines (`page_shift` -1 makes pages
    /// half a line, which turns the same-line shortcut off).
    fn random_machine(ways_log: u32, levels: usize, page_shift: i32) -> MachineDesc {
        let mut m = tiny_machine();
        m.caches[0].associativity = 1 << ways_log;
        m.caches.truncate(levels);
        m.tlb.page_bytes = if page_shift < 0 { 16 } else { 32 << page_shift };
        m
    }

    /// A random batch on `rng`: up to six streams with zero, negative,
    /// line-crossing and set-conflicting strides, duplicates of earlier
    /// streams, neighbours sharing their line, and partial validity
    /// windows (some reaching outside the trip range).
    fn random_batch(rng: &mut proptest::Rng) -> (Vec<StreamSpec>, i64) {
        const STRIDES: [i64; 12] = [0, 8, -8, 16, 24, 32, 40, -40, 128, 256, -256, 1000];
        const KINDS: [AccessKind; 3] = [AccessKind::Load, AccessKind::Store, AccessKind::Prefetch];
        let trips = 1 + rng.below(40) as i64;
        let mut streams: Vec<StreamSpec> = Vec::new();
        for _ in 0..1 + rng.below(6) {
            let kind = KINDS[rng.below(3) as usize];
            let mut s = match streams.last().copied() {
                // a duplicate of the previous stream, maybe another kind
                Some(prev) if rng.below(5) == 0 => StreamSpec { kind, ..prev },
                // a neighbour on the previous stream's line
                Some(prev) if rng.below(4) == 0 => StreamSpec {
                    base: prev.base + 8,
                    kind,
                    ..prev
                },
                _ => StreamSpec {
                    base: 8 * rng.below(1024) as i64 + 40_000,
                    stride: STRIDES[rng.below(STRIDES.len() as u64) as usize],
                    vlo: 0,
                    vhi: trips - 1,
                    kind,
                    tag: rng.below(4) as u32,
                },
            };
            if rng.below(3) == 0 {
                s.vlo = rng.below(trips as u64 + 2) as i64 - 1;
                s.vhi = s.vlo + rng.below(trips as u64 + 2) as i64 - 1;
            }
            streams.push(s);
        }
        (streams, trips)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The stream walker equals the naive model running the
        /// interleaved per-access loop, plain and attributed, over
        /// several consecutive batches (so lanes start from slots
        /// remembered for other streams), down to the LRU stamps a
        /// final sweep exposes.
        #[test]
        fn walker_matches_naive_model_on_random_batches(
            ways_log in 0u32..3,
            levels in 1usize..3,
            page_shift in -1i32..3,
            seed in 0u64..1 << 40,
        ) {
            let m = random_machine(ways_log, levels, page_shift);
            for attribute in [false, true] {
                let mut rng = proptest::Rng::new(seed);
                let mut fast = MemoryHierarchy::new(&m);
                let mut slow = naive::Model::new(&m);
                for (addr, kind) in pseudo_stream(seed, 64, 4096) {
                    fast.access(addr + 40_000, kind);
                    slow.access(addr + 40_000, kind);
                }
                for _ in 0..4 {
                    let (streams, trips) = random_batch(&mut rng);
                    fast.access_streams(&streams, trips, attribute);
                    if attribute {
                        // a batch sizes the tag table for all its
                        // streams, active or not
                        let tags = 1 + streams.iter().map(|s| s.tag as usize).max().unwrap();
                        let per_tag = &mut slow.counters.per_tag;
                        if per_tag.len() < tags {
                            per_tag.resize(tags, TagCounters {
                                misses: vec![0; levels],
                                ..Default::default()
                            });
                        }
                    }
                    for t in 0..trips {
                        for s in &streams {
                            if s.vlo <= t && t <= s.vhi {
                                let addr = (s.base + t * s.stride) as u64;
                                if attribute {
                                    slow.access_tagged(addr, s.kind, s.tag as usize);
                                } else {
                                    slow.access(addr, s.kind);
                                }
                            }
                        }
                    }
                }
                for t in 0..64u64 {
                    fast.access(40_000 + t * 32, AccessKind::Load);
                    slow.access(40_000 + t * 32, AccessKind::Load);
                }
                prop_assert_eq!(
                    fast.into_counters(),
                    slow.counters,
                    "seed {} ways 2^{} levels {} page shift {} attribute {}",
                    seed, ways_log, levels, page_shift, attribute
                );
            }
        }
    }

    #[test]
    fn access_run_tagged_equals_per_access_loop() {
        let m = tiny_machine();
        let mut a = MemoryHierarchy::new(&m);
        let mut b = MemoryHierarchy::new(&m);
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Prefetch] {
            run(&mut a, 64, 8, 50, kind, Some(1));
            for t in 0..50u64 {
                b.access_tagged(64 + t * 8, kind, 1);
            }
        }
        assert_eq!(a.into_counters(), b.into_counters());
    }

    #[test]
    fn tagged_accesses_attribute_misses() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // tag 0: one line, hit after first access; tag 1: thrashing.
        for i in 0..10u64 {
            h.access_tagged(0, AccessKind::Load, 0);
            h.access_tagged(4096 + i * 512, AccessKind::Load, 1);
        }
        let c = h.into_counters();
        assert_eq!(c.per_tag.len(), 2);
        assert_eq!(c.per_tag[0].accesses, 10);
        assert_eq!(c.per_tag[0].misses[0], 1);
        assert_eq!(c.per_tag[1].accesses, 10);
        assert_eq!(c.per_tag[1].misses[0], 10);
        // attribution is exhaustive
        assert_eq!(
            c.per_tag[0].misses[0] + c.per_tag[1].misses[0],
            c.cache_misses[0]
        );
        assert_eq!(
            c.per_tag[0].tlb_misses + c.per_tag[1].tlb_misses,
            c.tlb_misses
        );
    }
}
