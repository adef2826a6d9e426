//! The simulated SSD: write/read service, zombie revival, dedup, GC.

use zssd_core::{DeadValuePool, PoolStats};
use zssd_dedup::DedupStore;
use zssd_flash::{BlockId, Completion, FlashArray, PageState};
use zssd_metrics::{Event, EventLog, FaultEvent, LatencySummary};
use zssd_trace::{initial_value_of, IoOp, TraceRecord};
use zssd_types::{AddressError, Lpn, Ppn, SimDuration, SimTime, ValueId, WriteClock};

use crate::allocator::Allocator;
use crate::config::SsdConfig;
use crate::error::SsdError;
use crate::gc;
use crate::mapping::MappingTable;
use crate::rmap::Rmap;
use crate::stats::{RunReport, SsdStats};

/// A simulated SSD assembled per [`SystemKind`](zssd_core::SystemKind):
/// flash array, mapping table, allocator, and (optionally) the
/// dead-value pool and the dedup index.
///
/// Drive it with [`Ssd::run_trace`] for whole-trace experiments, or
/// with [`Ssd::write`] / [`Ssd::read`] for fine-grained control.
///
/// The host LPN of each command is the only address that comes from
/// outside: [`Ssd::write`], [`Ssd::read`] and [`Ssd::trim`] check it
/// once, on entry, and return [`SsdError::Address`] when it is beyond
/// the logical capacity. Every LPN, PPN and block number below that
/// point comes from the drive's own tables, so the mapping table and
/// the flash array index with them directly; one out of range is a bug
/// and panics.
///
/// # Examples
///
/// ```
/// use zssd_core::SystemKind;
/// use zssd_ftl::{Ssd, SsdConfig};
/// use zssd_types::{Lpn, SimTime, ValueId};
///
/// let config = SsdConfig::small_test()
///     .without_precondition()
///     .with_system(SystemKind::MqDvp { entries: 64 });
/// let mut ssd = Ssd::new(config)?;
///
/// // Write value 7, kill it by overwriting, then rewrite it: the
/// // third write revives the zombie page instead of programming.
/// ssd.write(Lpn::new(0), ValueId::new(7), SimTime::ZERO)?;
/// ssd.write(Lpn::new(0), ValueId::new(8), SimTime::ZERO)?;
/// ssd.write(Lpn::new(1), ValueId::new(7), SimTime::ZERO)?;
/// assert_eq!(ssd.stats().revived_writes, 1);
/// assert_eq!(ssd.stats().host_programs, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Ssd {
    config: SsdConfig,
    flash: FlashArray,
    mapping: MappingTable,
    allocator: Allocator,
    /// The popular-garbage penalty of GC victim selection: the
    /// configured weight when popularity-aware GC is on and the system
    /// has a pool, else 0 (greedy).
    gc_weight: f64,
    /// `None` for the systems that recycle nothing (Baseline, Dedup).
    pool: Option<DeadValuePool>,
    dedup: Option<DedupStore>,
    rmap: Rmap,
    stats: SsdStats,
    /// The run-wide event log (`None` unless the config asked for
    /// tracing). The drive is its only writer: flash faults and block
    /// retirements are emitted here from the results the flash array
    /// returns, so one log holds the whole drive's total order.
    events: Option<EventLog>,
    /// Scratch copy of a GC victim's page states, reused across
    /// collections.
    victim_states: Vec<PageState>,
}

impl Ssd {
    /// Builds a drive from a configuration, running the preconditioning
    /// fill if the config asks for it.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is inconsistent (see
    /// [`SsdConfig::validate`]) or preconditioning runs out of space.
    pub fn new(config: SsdConfig) -> Result<Self, SsdError> {
        config.validate()?;
        let pool =
            DeadValuePool::for_system(config.system, config.mq, config.geometry.pages_per_block());
        let dedup = config
            .system
            .uses_dedup()
            .then(|| DedupStore::new(config.dedup_index_entries));
        let gc_weight = if config.popularity_aware_gc && pool.is_some() {
            config.gc_popularity_weight
        } else {
            0.0
        };
        let mut ssd = Ssd {
            flash: FlashArray::with_faults(config.geometry, config.timing, config.faults),
            mapping: MappingTable::new(config.logical_pages),
            allocator: Allocator::new(&config.geometry),
            gc_weight,
            pool,
            dedup,
            rmap: Rmap::new(config.geometry.total_pages()),
            stats: SsdStats::new(),
            events: config.trace_events.then(EventLog::new),
            victim_states: Vec::with_capacity(config.geometry.pages_per_block() as usize),
            config,
        };
        if ssd.config.precondition {
            ssd.precondition()?;
        }
        Ok(ssd)
    }

    /// The configuration this drive was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The underlying flash array (page states, wear, counters).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Dead-value-pool counters. A drive without a pool reports every
    /// host write as a miss.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.as_ref().map_or(
            PoolStats {
                misses: self.stats.host_writes,
                ..PoolStats::default()
            },
            DeadValuePool::stats,
        )
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// The paper's logical clock (number of host writes issued).
    pub fn write_clock(&self) -> WriteClock {
        WriteClock::from_count(self.stats.host_writes)
    }

    /// Fills every logical page with unique pre-trace content, then
    /// resets timing and counters so the measured run starts on a warm,
    /// quiet drive.
    fn precondition(&mut self) -> Result<(), SsdError> {
        // Every page holds distinct content, so registering them all
        // would leave exactly the last `dedup_index_entries` in the LRU
        // index, oldest first; register only those.
        let first_indexed = self
            .config
            .logical_pages
            .saturating_sub(self.config.dedup_index_entries as u64);
        for index in 0..self.config.logical_pages {
            let lpn = Lpn::new(index);
            let value = initial_value_of(lpn);
            let (ppn, _, _) = self.program_host_page(SimTime::ZERO)?;
            self.rmap.insert(ppn, value, lpn);
            self.mapping.update(lpn, ppn);
            if let Some(dedup) = self.dedup.as_mut().filter(|_| index >= first_indexed) {
                dedup.register(value, ppn);
            }
        }
        self.flash.reset_time();
        self.flash.reset_stats();
        self.stats = SsdStats::new();
        if let Some(dedup) = self.dedup.as_mut() {
            dedup.reset_stats();
        }
        // The warm-up fill is not part of the measured run: drop any
        // events it recorded and restart sequence numbering.
        if let Some(log) = self.events.as_mut() {
            log.clear();
        }
        Ok(())
    }

    /// Appends one event to the log. A single branch when tracing is
    /// disabled.
    fn emit(&mut self, at: SimTime, event: Event) {
        if let Some(log) = self.events.as_mut() {
            log.emit(at, event);
        }
    }

    /// Records an injected fault of `kind` on `unit` (a page or block
    /// index), stamped with when the faulted command finished.
    fn fault(&mut self, at: SimTime, kind: FaultEvent, unit: u64) {
        self.emit(at, Event::Fault { kind, unit });
    }

    /// Reads a page, recording the fault when an injected ECC error
    /// forced a retry.
    fn read_page(&mut self, ppn: Ppn, at: SimTime) -> Result<Completion, SsdError> {
        let read = self.flash.read_page(ppn, at)?;
        if read.faulted {
            self.fault(read.done, FaultEvent::ReadRetry, ppn.index());
        }
        Ok(read)
    }

    /// Issues `attempt` — one program of some page — until a program
    /// sticks, recording each injected failure, and returns the page
    /// and its completion time. A failed attempt consumed its page and
    /// is only seen in the status poll, so the retry starts when the
    /// failed pulse finished. Each attempt takes its page from the
    /// allocator, which runs out of space rather than loops if the
    /// whole device fails.
    fn program_retrying(
        &mut self,
        mut t: SimTime,
        mut attempt: impl FnMut(&mut Self, SimTime) -> Result<(Ppn, Completion), SsdError>,
    ) -> Result<(Ppn, SimTime), SsdError> {
        loop {
            let (ppn, program) = attempt(self, t)?;
            if !program.faulted {
                return Ok((ppn, program.done));
            }
            self.fault(program.done, FaultEvent::Program, ppn.index());
            t = program.done;
        }
    }

    /// The event trace recorded so far (empty unless the config enabled
    /// [`SsdConfig::with_event_tracing`]).
    pub fn events(&self) -> &[zssd_metrics::TracedEvent] {
        self.events.as_ref().map_or(&[], |log| log.events())
    }

    /// Services one host write of `value` to `lpn` arriving at
    /// `arrival`, returning the completion time.
    ///
    /// The §IV-C order: hash, dead-value-pool lookup (hit ⇒ revive a
    /// zombie page, no program), then dedup (hit ⇒ share the live
    /// copy), then a normal program; the overwritten content dies into
    /// the pool. GC runs when the written plane drops below the
    /// free-block watermark.
    ///
    /// # Errors
    ///
    /// Returns an error if `lpn` is beyond the logical capacity or the
    /// drive is over-committed.
    pub fn write(
        &mut self,
        lpn: Lpn,
        value: ValueId,
        arrival: SimTime,
    ) -> Result<SimTime, SsdError> {
        self.check_host_lpn(lpn)?;
        self.stats.host_writes += 1;
        let now = self.write_clock();
        let mut t = arrival;
        if self.config.system.uses_hashing() {
            t += self.flash.timing().hash;
        }
        self.mapping.bump_popularity(lpn);

        // 1. Dead-value-pool lookup (§IV-C "Writes").
        if let Some(zombie) = self
            .pool
            .as_mut()
            .and_then(|pool| pool.take_match(value, now))
        {
            debug_assert_eq!(
                self.flash.page_state(zombie),
                PageState::Invalid,
                "pool must only track garbage pages"
            );
            self.kill_current(lpn, now)?;
            self.flash.revive_page(zombie)?;
            debug_assert_eq!(self.rmap.owners(zombie).next(), None);
            debug_assert_eq!(self.rmap.value(zombie), Some(value));
            self.rmap.push_owner(zombie, lpn);
            self.mapping.update(lpn, zombie);
            if let Some(dedup) = self.dedup.as_mut() {
                dedup.register(value, zombie);
            }
            self.stats.revived_writes += 1;
            // No program, but the completion still goes out through the
            // controller and the zombie's channel — a revival on a busy
            // device queues like any other request.
            let done = self.flash.controller_complete(Some(zombie), t);
            self.emit(done, Event::Revive { lpn, ppn: zombie });
            self.record_write_latency(lpn, arrival, done);
            return Ok(done);
        }

        // 2. Deduplication against live copies.
        if let Some(dedup) = self.dedup.as_mut() {
            if let Some(shared) = dedup.reference(value) {
                // Same content rewritten in place changes nothing.
                if self.mapping.lookup(lpn) != Some(shared) {
                    self.kill_current(lpn, now)?;
                    self.mapping.update(lpn, shared);
                    self.rmap.push_owner(shared, lpn);
                }
                self.stats.deduped_writes += 1;
                let done = self.flash.controller_complete(Some(shared), t);
                self.emit(done, Event::DedupHit { lpn, ppn: shared });
                self.record_write_latency(lpn, arrival, done);
                return Ok(done);
            }
        }

        // 3. Normal out-of-place program.
        self.kill_current(lpn, now)?;
        let (ppn, done, plane) = self.program_host_page(t)?;
        self.stats.host_programs += 1;
        self.rmap.insert(ppn, value, lpn);
        self.mapping.update(lpn, ppn);
        if let Some(dedup) = self.dedup.as_mut() {
            dedup.register(value, ppn);
        }
        // GC triggered by this write stalls it: the erase pipeline the
        // write set off must drain before the host sees completion, so
        // the reclamation time is charged to the triggering request
        // (this is where the paper's tail latency comes from).
        let done = self.maybe_gc(plane, done)?;
        self.record_write_latency(lpn, arrival, done);
        Ok(done)
    }

    /// Services one host read of `lpn` arriving at `arrival`,
    /// returning `(content, completion time)`. Unmapped pages return
    /// their pre-trace content at controller speed.
    ///
    /// # Errors
    ///
    /// Returns an error if `lpn` is beyond the logical capacity.
    pub fn read(&mut self, lpn: Lpn, arrival: SimTime) -> Result<(ValueId, SimTime), SsdError> {
        self.check_host_lpn(lpn)?;
        let mapped = self.mapping.lookup(lpn);
        self.stats.host_reads += 1;
        // LX-SSD refreshes garbage recency on reads (the behaviour the
        // paper critiques); other pools ignore this.
        if let Some(pool) = self.pool.as_mut() {
            pool.note_lpn_access(lpn);
        }
        let done;
        let value;
        match mapped {
            Some(ppn) => {
                let read = self.read_page(ppn, arrival)?;
                done = read.done;
                value = self.rmap.recorded_value(ppn);
                if read.faulted {
                    // The data survived the ECC retry but the page is
                    // suspect: scrub it onto fresh flash in the
                    // background. The host latency is the read's alone.
                    self.scrub_relocate(ppn, done)?;
                }
            }
            None => {
                // Answered from mapping state, but the completion still
                // serializes on the controller.
                done = self.flash.controller_complete(None, arrival);
                value = initial_value_of(lpn);
            }
        }
        let latency = done.saturating_since(arrival);
        self.stats.timeline.record_read(arrival, latency);
        self.emit(done, Event::HostRead { lpn, latency });
        Ok((value, done))
    }

    /// Services a host TRIM/discard of `lpn`: the logical page is
    /// unmapped and its content dies (entering the dead-value pool —
    /// trimmed content is garbage like any other, and may still be
    /// revived by a later write of the same data).
    ///
    /// TRIM is a mapping-table operation; it completes immediately and
    /// records no latency sample.
    ///
    /// # Errors
    ///
    /// Returns an error if `lpn` is beyond the logical capacity.
    pub fn trim(&mut self, lpn: Lpn) -> Result<(), SsdError> {
        self.check_host_lpn(lpn)?;
        let mapped = self.mapping.lookup(lpn);

        // Exactly one count per accepted command, whatever its effect:
        // trimming an already-trimmed (or never-written) page is an
        // acknowledged no-op, not a second state change.
        self.stats.trims += 1;
        if mapped.is_none() {
            return Ok(());
        }
        self.kill_current(lpn, self.write_clock())?;
        self.mapping.unmap(lpn);
        Ok(())
    }

    /// Replays a whole trace and produces the run report.
    ///
    /// Each request arrives at its record's own timestamp when one is
    /// stamped; unstamped records draw the next instant from the
    /// configured [`SsdConfig::arrival`] process (the default constant
    /// process reproduces the classic `i * interval` spacing exactly).
    /// Reads are verified against the content the trace recorded:
    /// mismatches increment [`RunReport::read_mismatches`] and — with
    /// [`SsdConfig::verify_reads`] set — fail a debug assertion.
    ///
    /// # Errors
    ///
    /// Returns an error on the first failed request.
    pub fn run_trace(mut self, records: &[TraceRecord]) -> Result<RunReport, SsdError> {
        self.replay(records)?;
        Ok(self.into_report())
    }

    /// Replays a trace against the live drive without consuming it, so
    /// callers can inspect state (e.g. [`Ssd::check_invariants`])
    /// before finalizing with [`Ssd::into_report`]. Semantics are
    /// identical to [`Ssd::run_trace`]; each call restarts the
    /// configured arrival process for unstamped records.
    ///
    /// # Errors
    ///
    /// Returns an error on the first failed request.
    pub fn replay(&mut self, records: &[TraceRecord]) -> Result<(), SsdError> {
        let mut arrivals = self.config.arrival.times();
        for record in records {
            // The generator is consumed only for unstamped records, so
            // mixed traces keep generated instants contiguous.
            let arrival = record.arrival.unwrap_or_else(|| arrivals.next_time());
            match record.op {
                IoOp::Write => {
                    self.write(record.lpn, record.value, arrival)?;
                }
                IoOp::Read => {
                    let (value, _) = self.read(record.lpn, arrival)?;
                    if value != record.value {
                        self.stats.read_mismatches += 1;
                        debug_assert!(
                            !self.config.verify_reads,
                            "read at seq {} returned {value}, trace recorded {}",
                            record.seq, record.value
                        );
                    }
                }
                IoOp::Trim => {
                    self.trim(record.lpn)?;
                }
            }
        }
        Ok(())
    }

    /// Finalizes this drive into a [`RunReport`].
    ///
    /// Consumes the drive so the timeline moves into the report instead
    /// of being cloned — at experiment scale it holds millions of
    /// samples per run.
    pub fn into_report(mut self) -> RunReport {
        let events = self
            .events
            .take()
            .map(EventLog::into_events)
            .unwrap_or_default();
        let phases = std::mem::take(&mut self.stats.phases);
        let flash = self.flash.stats();
        let timeline = std::mem::take(&mut self.stats.timeline);
        let mut report = RunReport {
            system: self.config.system,
            host_writes: self.stats.host_writes,
            host_reads: self.stats.host_reads,
            flash_programs: flash.programs.get(),
            host_programs: self.stats.host_programs,
            gc_programs: self.stats.gc_programs,
            flash_reads: flash.reads.get(),
            erases: flash.erases.get(),
            revived_writes: self.stats.revived_writes,
            deduped_writes: self.stats.deduped_writes,
            gc_collections: self.stats.gc_collections,
            trims: self.stats.trims,
            read_mismatches: self.stats.read_mismatches,
            program_failures: flash.program_failures.get(),
            erase_failures: flash.erase_failures.get(),
            read_retries: flash.read_retries.get(),
            retired_blocks: flash.retired_blocks.get(),
            scrub_programs: self.stats.scrub_programs,
            pool: self.pool_stats(),
            dedup: self.dedup.as_ref().map(|d| d.stats()),
            wear: self.flash.wear_summary(),
            timeline,
            write_latency: LatencySummary::default(),
            read_latency: LatencySummary::default(),
            all_latency: LatencySummary::default(),
            phases,
            events,
        };
        // Digest the latencies once the drive's tables are freed, so
        // the digests' scratch space does not raise the run's peak
        // memory.
        drop(self);
        let digests = report.timeline.summaries();
        (
            report.write_latency,
            report.read_latency,
            report.all_latency,
        ) = digests;
        report
    }

    /// Checks the cross-structure consistency invariants that must
    /// hold on any quiescent drive, returning a description of the
    /// first violation found. The test suites call this after every
    /// scenario; it is especially valuable under fault injection,
    /// where retry and retirement paths shuffle state across the
    /// mapping table, reverse map, dead-value pool, and flash array.
    ///
    /// The invariants:
    ///
    /// 1. **Mapping ↔ reverse-map bijection** — every mapped LPN
    ///    points at a *valid* page whose record lists it as an owner,
    ///    and every owner in every record maps back to that page.
    /// 2. **Page-state ↔ record coherence** — valid pages carry a
    ///    record with at least one owner; garbage records carry none;
    ///    free and bad pages carry no record at all.
    /// 3. **Dead-value-pool hygiene** — every tracked PPN is an
    ///    *invalid* page whose record survives (revival needs the
    ///    content); in particular nothing on a retired block is
    ///    tracked, so a zombie on dead flash can never be revived.
    /// 4. **Block accounting** — each block's cached
    ///    valid/invalid/free/bad counters match a recount of its page
    ///    states, and sum to the block size; the pool's per-block
    ///    popularity sum (the GC victim score's `Σpop`) matches a
    ///    recount of its pages' [`DeadValuePool::garbage_weight`].
    /// 5. **Dedup-index hygiene** — every dedup index entry names a
    ///    *valid* page whose record holds that value, so a dedup hit
    ///    always shares live, matching content.
    /// 6. **Owner side table** — every overflow owner list in use is
    ///    named by exactly one record and holds at least one owner;
    ///    every free-listed list is empty and named by no record.
    ///    Checked first, since clauses 1–2 read owners through it.
    ///
    /// # Errors
    ///
    /// Returns `Err(description)` on the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let geometry = &self.config.geometry;
        // 6. Owner side table.
        self.rmap.check_lists()?;
        // 1. Mapping -> rmap direction.
        for lpn in (0..self.config.logical_pages).map(Lpn::new) {
            let Some(ppn) = self.mapping.lookup(lpn) else {
                continue;
            };
            let state = self.flash.page_state(ppn);
            if state != PageState::Valid {
                return Err(format!("{lpn} maps to {ppn} in state {state}"));
            }
            if self.rmap.value(ppn).is_none() {
                return Err(format!("{lpn} maps to {ppn}, which has no record"));
            }
            if !self.rmap.owners(ppn).any(|owner| owner == lpn) {
                return Err(format!("{lpn} maps to {ppn} but is not an owner"));
            }
        }
        // 2–3. Per-page state, record, and pool coherence (rmap ->
        // mapping direction rides on the owner loop).
        for ppn in (0..geometry.total_pages()).map(Ppn::new) {
            let state = self.flash.page_state(ppn);
            let recorded = self.rmap.value(ppn).is_some();
            let mut owners = self.rmap.owners(ppn).peekable();
            let pooled = self
                .pool
                .as_ref()
                .is_some_and(|pool| pool.garbage_weight(ppn).is_some());
            match state {
                PageState::Valid => {
                    if !recorded {
                        return Err(format!("valid {ppn} has no record"));
                    }
                    if owners.peek().is_none() {
                        return Err(format!("valid {ppn} has no owners"));
                    }
                    for owner in owners {
                        if self.mapping.lookup(owner) != Some(ppn) {
                            return Err(format!("{ppn} lists owner {owner} mapped elsewhere"));
                        }
                    }
                    if pooled {
                        return Err(format!("valid {ppn} tracked by the dead-value pool"));
                    }
                }
                PageState::Invalid => {
                    if owners.next().is_some() {
                        return Err(format!("garbage {ppn} still has owners"));
                    }
                    if pooled && !recorded {
                        return Err(format!("pool tracks {ppn}, which has no record"));
                    }
                }
                PageState::Free | PageState::Bad => {
                    if recorded {
                        return Err(format!("{state} {ppn} has a record"));
                    }
                    if pooled {
                        return Err(format!("{state} {ppn} tracked by the dead-value pool"));
                    }
                }
            }
        }
        // 4. Block accounting: cached counters vs a recount.
        for (block, info) in self.flash.blocks() {
            let mut counts = [0u32; 4];
            let mut popularity = 0u32;
            let states = self.flash.page_states(block);
            for (ppn, state) in geometry.pages_of(block).zip(states) {
                counts[match state {
                    PageState::Valid => 0,
                    PageState::Invalid => 1,
                    PageState::Free => 2,
                    PageState::Bad => 3,
                }] += 1;
                if let Some(pop) = self.pool.as_ref().and_then(|pool| pool.garbage_weight(ppn)) {
                    popularity += u32::from(pop.get());
                }
            }
            if let Some(pool) = &self.pool {
                let kept = pool.block_weight(block.index());
                if kept != popularity {
                    return Err(format!(
                        "pool keeps popularity sum {kept} for {block}, recount {popularity}"
                    ));
                }
            }
            let cached = [
                info.valid_pages,
                info.invalid_pages,
                info.free_pages,
                info.bad_pages,
            ];
            if counts != cached {
                return Err(format!(
                    "{block} caches valid/invalid/free/bad {cached:?}, recount {counts:?}"
                ));
            }
            if cached.iter().sum::<u32>() != geometry.pages_per_block() {
                return Err(format!("{block} counters do not sum to the block size"));
            }
        }
        // 5. Dedup index -> live pages.
        for (value, ppn) in self.dedup.iter().flat_map(DedupStore::entries) {
            let state = self.flash.page_state(ppn);
            if state != PageState::Valid {
                return Err(format!("dedup index names {ppn} in state {state}"));
            }
            if self.rmap.value(ppn) != Some(value) {
                return Err(format!(
                    "dedup index entry {value} names {ppn}, which holds other content"
                ));
            }
        }
        Ok(())
    }

    /// The drive's one address check: a host LPN must lie within the
    /// logical capacity.
    fn check_host_lpn(&self, lpn: Lpn) -> Result<(), SsdError> {
        let limit = self.config.logical_pages;
        if lpn.index() < limit {
            Ok(())
        } else {
            Err(SsdError::Address(AddressError::out_of_range(
                "lpn",
                lpn.index(),
                limit,
            )))
        }
    }

    fn record_write_latency(&mut self, lpn: Lpn, arrival: SimTime, done: SimTime) {
        let latency = done.saturating_since(arrival);
        self.stats.timeline.record_write(arrival, latency);
        self.emit(done, Event::HostWrite { lpn, latency });
    }

    /// Kills the content currently mapped at `lpn` (if any): removes
    /// `lpn` from the page's owners and, when that was the last owner
    /// (always, without dedup), invalidates the physical page, drops
    /// it from the dedup index, and offers the fresh zombie to the
    /// pool (§IV-C "Updates", §VII).
    fn kill_current(&mut self, lpn: Lpn, now: WriteClock) -> Result<(), SsdError> {
        let Some(old) = self.mapping.lookup(lpn) else {
            return Ok(());
        };
        let pop = self.mapping.popularity(lpn);
        if self.rmap.remove_owner(old, lpn) {
            let value = self.rmap.recorded_value(old);
            self.flash.invalidate_page(old)?;
            if let Some(dedup) = self.dedup.as_mut() {
                dedup.forget(value, old);
            }
            if let Some(pool) = self.pool.as_mut() {
                pool.insert_dead(value, old, lpn, pop, now);
            }
        }
        Ok(())
    }

    /// Programs the next page of the striped host stream at time `t`,
    /// returning the page, its completion time and its plane. An
    /// injected program failure retries on the plane's next page
    /// (possibly of a fresh block).
    fn program_host_page(&mut self, t: SimTime) -> Result<(Ppn, SimTime, u64), SsdError> {
        let plane = self.allocator.next_plane();
        let (ppn, done) = self.program_retrying(t, |ssd, t| {
            let block = ssd.allocator.take_active(plane, &ssd.flash)?;
            Ok(ssd.flash.program_next(block, t)?)
        })?;
        Ok((ppn, done, plane))
    }

    /// Moves a page whose read needed an ECC retry onto fresh flash in
    /// the same plane (scrubbing), so the next read of the content
    /// does not face the same marginal cells. Best-effort: if the
    /// plane is out of space or the relocation program itself fails,
    /// the data simply stays where it is — the host read has already
    /// completed correctly either way.
    fn scrub_relocate(&mut self, ppn: Ppn, at: SimTime) -> Result<(), SsdError> {
        let geometry = &self.config.geometry;
        let plane = geometry.plane_of_block(geometry.block_of(ppn));
        let dest_block = match self.allocator.take_active(plane, &self.flash) {
            Ok(block) => block,
            Err(SsdError::OutOfSpace { .. }) => return Ok(()),
            Err(e) => return Err(e),
        };
        let (new_ppn, copy) = self.flash.copyback_page(ppn, dest_block, at)?;
        if copy.faulted {
            self.fault(copy.done, FaultEvent::Program, new_ppn.index());
            return Ok(());
        }
        let scrub_done = copy.done;
        self.stats.scrub_programs += 1;
        self.stats
            .phases
            .add("scrub", scrub_done.saturating_since(at));
        self.emit(
            scrub_done,
            Event::Scrub {
                src: ppn,
                dest: new_ppn,
            },
        );
        self.relocate(ppn, new_ppn)
    }

    /// Points the record, every owner and the dedup index of the valid
    /// page `from` at its copy `to`, and invalidates `from`. The old
    /// copy is deliberately *not* offered to the dead-value pool: its
    /// content is still live at `to`.
    fn relocate(&mut self, from: Ppn, to: Ppn) -> Result<(), SsdError> {
        for owner in self.rmap.owners(from) {
            self.mapping.update(owner, to);
        }
        if let Some(dedup) = self.dedup.as_mut() {
            dedup.relocate(self.rmap.recorded_value(from), from, to);
        }
        self.rmap.relocate(from, to);
        self.flash.invalidate_page(from)?;
        Ok(())
    }

    /// Runs GC on `plane` until it is back above the free-block
    /// watermark (or no block is reclaimable), returning when the
    /// reclamation pipeline drains — `now` unchanged if no GC ran.
    /// The caller charges that time to the triggering write.
    fn maybe_gc(&mut self, plane: u64, now: SimTime) -> Result<SimTime, SsdError> {
        let mut t = now;
        while self.allocator.free_blocks_in(plane) < self.config.gc_low_watermark as usize {
            let victim = gc::select_victim(
                &self.flash,
                plane,
                self.allocator.active_block(plane),
                self.pool.as_ref(),
                self.gc_weight,
            );
            match victim {
                Some(victim) => t = self.collect_block(victim, plane, t, false)?,
                None if self.allocator.free_blocks_in(plane) == 0 => {
                    // No *full* block is reclaimable but the plane is
                    // dry: the invalid pages are trapped in the active
                    // block (or nowhere). Retire and reclaim the
                    // top-ranked block with any garbage, relocating its
                    // valid pages cross-plane if need be; erase does
                    // not require a full block — only programs are
                    // sequential.
                    let Some(victim) = gc::emergency_victim(&self.flash, plane) else {
                        return Err(SsdError::OutOfSpace { plane });
                    };
                    if self.allocator.active_block(plane) == Some(victim) {
                        self.allocator.retire_active(plane);
                    }
                    t = self.collect_block(victim, plane, t, true)?;
                }
                None => break,
            }
        }
        let stalled = t.saturating_since(now);
        if stalled > SimDuration::ZERO {
            self.stats.phases.add("gc_stall", stalled);
        }
        Ok(t)
    }

    /// Relocates the victim's valid pages, drops its garbage from the
    /// pool, erases it, and returns the erase completion time.
    fn collect_block(
        &mut self,
        victim: BlockId,
        plane: u64,
        now: SimTime,
        emergency: bool,
    ) -> Result<SimTime, SsdError> {
        let geometry = self.config.geometry;
        // Payload assembly (the block-info lookup) is skipped entirely
        // when tracing is off; `emit` gates again internally.
        if self.events.is_some() {
            let info = self.flash.block_info(victim);
            self.emit(now, Event::GcStart { plane, emergency });
            self.emit(
                now,
                Event::GcVictim {
                    block: victim.index(),
                    valid: info.valid_pages,
                    invalid: info.invalid_pages,
                },
            );
        }
        let mut t = now;
        // Only the page being moved changes state during the walk, so
        // a copy of the victim's states taken up front stays accurate.
        let mut states = std::mem::take(&mut self.victim_states);
        states.clear();
        states.extend_from_slice(self.flash.page_states(victim));
        for (ppn, &state) in geometry.pages_of(victim).zip(&states) {
            match state {
                PageState::Valid => {
                    // In-plane relocation uses the copyback advanced
                    // command (tR + tPROG, no channel); the emergency
                    // cross-plane path falls back to read + program.
                    // Either way an injected program failure consumes
                    // the attempted destination page and the move
                    // retries on the next one.
                    if emergency {
                        t = self.read_page(ppn, t)?.done;
                    }
                    let (new_ppn, done) = self.program_retrying(t, |ssd, t| {
                        Ok(if emergency {
                            let (_, dest_block) = ssd.allocator.take_active_any(&ssd.flash)?;
                            ssd.flash.program_next(dest_block, t)?
                        } else {
                            let dest_block = ssd.allocator.take_active(plane, &ssd.flash)?;
                            ssd.flash.copyback_page(ppn, dest_block, t)?
                        })
                    })?;
                    t = done;
                    self.stats.gc_programs += 1;
                    self.emit(
                        done,
                        Event::GcRelocate {
                            src: ppn,
                            dest: new_ppn,
                        },
                    );
                    self.relocate(ppn, new_ppn)?;
                }
                PageState::Invalid => {
                    if let Some(pool) = self.pool.as_mut() {
                        pool.remove_ppn(ppn);
                    }
                    self.rmap.remove(ppn);
                }
                // Bad pages never held data (a failed program consumed
                // them before any content landed), so like still-free
                // pages there is nothing to relocate or purge.
                PageState::Free | PageState::Bad => {}
            }
        }
        self.victim_states = states;
        self.stats
            .phases
            .add("gc_relocate", t.saturating_since(now));
        let mut erase = self.flash.erase_block(victim, t)?;
        if erase.faulted {
            // The failed pulse spent a full tBERS; retry once from when
            // it finished.
            self.fault(erase.done, FaultEvent::Erase, victim.index());
            erase = self.flash.erase_block(victim, erase.done)?;
        }
        let done = erase.done;
        self.stats.phases.add("gc_erase", done.saturating_since(t));
        if erase.faulted {
            self.fault(done, FaultEvent::Erase, victim.index());
            self.retire_victim(victim, done)?;
            return Ok(done);
        }
        self.allocator.on_block_erased(&geometry, victim);
        self.stats.gc_collections += 1;
        self.emit(
            done,
            Event::GcErase {
                block: victim.index(),
            },
        );
        Ok(done)
    }

    /// Gives up on a block whose erase failed twice: purges every
    /// remaining pool and reverse-map entry into it (so a zombie on
    /// dead flash can never be revived) and retires it for good at
    /// `at`, when the second failed erase pulse finished. The block
    /// never returns to the allocator's free lists — the plane
    /// permanently shrinks by one block.
    fn retire_victim(&mut self, victim: BlockId, at: SimTime) -> Result<(), SsdError> {
        let geometry = self.config.geometry;
        for ppn in geometry.pages_of(victim) {
            if let Some(pool) = self.pool.as_mut() {
                pool.remove_ppn(ppn);
            }
            self.rmap.remove(ppn);
        }
        self.flash.retire_block(victim)?;
        self.stats.gc_collections += 1;
        self.emit(
            at,
            Event::Retire {
                block: victim.index(),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_core::SystemKind;
    use zssd_dedup::DedupStats;
    use zssd_types::SimDuration;

    fn ssd(system: SystemKind) -> Ssd {
        // Pin faults off: these tests assert exact counters and
        // latencies, and the tiny drive has too little spare capacity
        // to absorb a `ZSSD_FAULTS` environment's block retirements.
        // Fault behaviour has its own tests with explicit configs.
        Ssd::new(
            SsdConfig::small_test()
                .without_precondition()
                .with_system(system)
                .with_faults(zssd_flash::FaultConfig::none()),
        )
        .expect("valid test drive")
    }

    fn w(ssd: &mut Ssd, lpn: u64, value: u64) -> SimTime {
        ssd.write(Lpn::new(lpn), ValueId::new(value), SimTime::ZERO)
            .expect("write succeeds")
    }

    #[test]
    fn baseline_programs_every_write() {
        let mut s = ssd(SystemKind::Baseline);
        for i in 0..10 {
            w(&mut s, i % 4, 7); // same value over and over
        }
        assert_eq!(s.stats().host_programs, 10);
        assert_eq!(s.stats().revived_writes, 0);
        assert_eq!(s.stats().deduped_writes, 0);
    }

    #[test]
    fn dvp_revives_zombie_pages() {
        let mut s = ssd(SystemKind::MqDvp { entries: 64 });
        w(&mut s, 0, 7); // create value 7
        w(&mut s, 0, 8); // kill it -> zombie holding 7
        w(&mut s, 1, 7); // rewrite 7 -> revival
        assert_eq!(s.stats().revived_writes, 1);
        assert_eq!(s.stats().host_programs, 2);
        assert_eq!(s.pool_stats().hits, 1);
        // The revived page serves reads with the right content.
        let (value, _) = s.read(Lpn::new(1), SimTime::ZERO).expect("read");
        assert_eq!(value, ValueId::new(7));
    }

    #[test]
    fn revival_is_cheaper_than_programming() {
        let mut s = ssd(SystemKind::MqDvp { entries: 64 });
        w(&mut s, 0, 7);
        w(&mut s, 0, 8);
        // Let the programs from the setup writes drain.
        let idle = SimTime::ZERO + SimDuration::from_millis(100);
        let done = s.write(Lpn::new(1), ValueId::new(7), idle).expect("write");
        // On an idle device a revival costs hash + completion transfer
        // — far below the 400 µs program it replaces.
        assert_eq!(done.saturating_since(idle), SimDuration::from_micros(17));
    }

    #[test]
    fn revival_on_busy_channel_waits_for_the_channel() {
        // small_test has a single channel, so any in-flight transfer
        // blocks the fast path.
        let mut s = ssd(SystemKind::MqDvp { entries: 64 });
        w(&mut s, 0, 7);
        w(&mut s, 0, 8); // value 7 dies -> zombie in the pool
                         // A host read holds the channel until its transfer completes.
        let (_, read_done) = s.read(Lpn::new(0), SimTime::ZERO).expect("read");
        // A DVP hit issued at t=0 must not complete before the channel
        // frees: it queues until read_done, then transfers out.
        let done = s
            .write(Lpn::new(1), ValueId::new(7), SimTime::ZERO)
            .expect("write");
        assert_eq!(s.stats().revived_writes, 1);
        assert_eq!(
            done,
            read_done + SimDuration::from_micros(5),
            "revival completion queues behind the busy channel"
        );
    }

    #[test]
    fn unmapped_reads_serialize_on_the_controller() {
        let mut s = ssd(SystemKind::Baseline);
        let (_, d1) = s.read(Lpn::new(5), SimTime::ZERO).expect("read");
        let (_, d2) = s.read(Lpn::new(6), SimTime::ZERO).expect("read");
        assert_eq!(
            d1.saturating_since(SimTime::ZERO),
            SimDuration::from_micros(5)
        );
        assert_eq!(
            d2,
            d1 + SimDuration::from_micros(5),
            "second waits its turn"
        );
    }

    #[test]
    fn dedup_shares_live_copies() {
        let mut s = ssd(SystemKind::Dedup);
        w(&mut s, 0, 7);
        w(&mut s, 1, 7); // deduped against the live copy
        w(&mut s, 2, 7); // deduped again
        assert_eq!(s.stats().host_programs, 1);
        assert_eq!(s.stats().deduped_writes, 2);
        let (v, _) = s.read(Lpn::new(2), SimTime::ZERO).expect("read");
        assert_eq!(v, ValueId::new(7));
    }

    #[test]
    fn dedup_death_only_at_last_reference() {
        let mut s = ssd(SystemKind::DvpPlusDedup { entries: 64 });
        w(&mut s, 0, 7);
        w(&mut s, 1, 7); // refcount 2
        w(&mut s, 0, 8); // refcount 1 -> no death
        assert_eq!(s.flash().total_invalid_pages(), 0);
        w(&mut s, 1, 9); // refcount 0 -> death, zombie enters pool
        assert_eq!(s.flash().total_invalid_pages(), 1);
        w(&mut s, 2, 7); // revival from the pool
        assert_eq!(s.stats().revived_writes, 1);
        // Value 7 is live again; a new copy dedups against it (the
        // earlier w(1, 7) was the first dedup hit).
        w(&mut s, 3, 7);
        assert_eq!(s.stats().deduped_writes, 2);
    }

    #[test]
    fn same_content_overwrite_under_dedup_is_noop() {
        let mut s = ssd(SystemKind::Dedup);
        w(&mut s, 0, 7);
        w(&mut s, 0, 7); // rewrite identical content in place
        assert_eq!(s.stats().host_programs, 1);
        assert_eq!(s.stats().deduped_writes, 1);
        assert_eq!(s.flash().total_invalid_pages(), 0);
    }

    #[test]
    fn overwrites_create_zombies_and_gc_reclaims() {
        let mut s = ssd(SystemKind::Baseline);
        // 256 physical pages, 192 logical; hammer a few pages until GC
        // must run.
        for i in 0..400u64 {
            w(&mut s, i % 8, 1000 + i);
        }
        let report = s.into_report();
        assert!(report.erases > 0, "GC must have reclaimed blocks");
        assert_eq!(report.host_programs, 400);
        assert!(report.gc_programs < 400);
    }

    #[test]
    fn reads_of_unmapped_pages_return_initial_content() {
        let mut s = ssd(SystemKind::Baseline);
        let (v, done) = s.read(Lpn::new(5), SimTime::ZERO).expect("read");
        assert_eq!(v, initial_value_of(Lpn::new(5)));
        assert_eq!(
            done.saturating_since(SimTime::ZERO),
            SimDuration::from_micros(5)
        );
    }

    #[test]
    fn preconditioned_drive_serves_reads_from_flash() {
        let mut s = Ssd::new(SsdConfig::small_test()).expect("drive");
        let (v, done) = s.read(Lpn::new(3), SimTime::ZERO).expect("read");
        assert_eq!(v, initial_value_of(Lpn::new(3)));
        // A real flash read: sense + transfer.
        assert_eq!(
            done.saturating_since(SimTime::ZERO),
            SimDuration::from_micros(80)
        );
        // Warm-up left no residue in the counters.
        assert_eq!(s.stats().host_writes, 0);
        assert_eq!(s.flash().stats().programs.get(), 0);
    }

    #[test]
    fn preconditioning_leaves_no_dedup_counts() {
        for system in [SystemKind::Dedup, SystemKind::DvpPlusDedup { entries: 64 }] {
            // An index smaller than the drive, so the warm-up evicts.
            let config = SsdConfig::small_test()
                .with_system(system)
                .with_dedup_index_entries(16)
                .with_faults(zssd_flash::FaultConfig::none());
            let s = Ssd::new(config).expect("drive");
            assert_eq!(s.dedup.as_ref().map(DedupStore::indexed_len), Some(16));
            let report = s.into_report();
            assert_eq!(report.dedup, Some(DedupStats::default()), "{system}");
        }
    }

    #[test]
    fn run_trace_produces_report() {
        let records = vec![
            TraceRecord::write(0, Lpn::new(0), ValueId::new(1)),
            TraceRecord::write(1, Lpn::new(0), ValueId::new(2)),
            TraceRecord::read(2, Lpn::new(0), ValueId::new(2)),
            TraceRecord::write(3, Lpn::new(1), ValueId::new(1)),
        ];
        let report = Ssd::new(
            SsdConfig::small_test()
                .without_precondition()
                .with_system(SystemKind::MqDvp { entries: 16 }),
        )
        .expect("drive")
        .run_trace(&records)
        .expect("run");
        assert_eq!(report.host_writes, 3);
        assert_eq!(report.host_reads, 1);
        assert_eq!(report.revived_writes, 1);
        assert_eq!(report.all_latency.count, 4);
    }

    #[test]
    fn stamped_arrivals_override_the_configured_process() {
        // Two writes both stamped at t=0 on the single-channel test
        // drive must contend; under the default 1 ms constant process
        // they would not.
        let records = vec![
            TraceRecord::write(0, Lpn::new(0), ValueId::new(1)).with_arrival(SimTime::ZERO),
            TraceRecord::write(1, Lpn::new(1), ValueId::new(2)).with_arrival(SimTime::ZERO),
        ];
        let report = Ssd::new(SsdConfig::small_test().without_precondition())
            .expect("drive")
            .run_trace(&records)
            .expect("run");
        assert!(
            report.write_latency.max > SimDuration::from_micros(405),
            "simultaneous stamped writes must queue: {:?}",
            report.write_latency
        );
        // The same trace unstamped, 1 ms apart, sees no queueing.
        let relaxed = vec![
            TraceRecord::write(0, Lpn::new(0), ValueId::new(1)),
            TraceRecord::write(1, Lpn::new(1), ValueId::new(2)),
        ];
        let relaxed_report = Ssd::new(SsdConfig::small_test().without_precondition())
            .expect("drive")
            .run_trace(&relaxed)
            .expect("run");
        assert!(report.write_latency.max > relaxed_report.write_latency.max);
    }

    #[test]
    fn run_trace_services_trims() {
        let records = vec![
            TraceRecord::write(0, Lpn::new(0), ValueId::new(1)),
            TraceRecord::trim(1, Lpn::new(0)),
            TraceRecord::read(2, Lpn::new(0), initial_value_of(Lpn::new(0))),
        ];
        let report = Ssd::new(SsdConfig::small_test().without_precondition())
            .expect("drive")
            .run_trace(&records)
            .expect("run");
        assert_eq!(report.trims, 1);
        assert_eq!(report.read_mismatches, 0, "trimmed page reads as initial");
        // Trims record no latency sample.
        assert_eq!(report.all_latency.count, 2);
    }

    #[test]
    fn read_mismatches_are_counted() {
        let records = vec![
            TraceRecord::write(0, Lpn::new(0), ValueId::new(1)),
            TraceRecord::read(1, Lpn::new(0), ValueId::new(999)), // wrong
        ];
        let report = Ssd::new(
            SsdConfig::small_test()
                .without_precondition()
                .with_verify_reads(false),
        )
        .expect("drive")
        .run_trace(&records)
        .expect("run");
        assert_eq!(report.read_mismatches, 1);
    }

    #[test]
    fn ideal_pool_never_evicts_tracked_zombies() {
        let mut s = ssd(SystemKind::Ideal);
        for i in 0..20u64 {
            w(&mut s, i % 8, i); // many distinct deaths
        }
        assert_eq!(s.pool_stats().evictions, 0);
    }

    #[test]
    fn lxssd_system_constructs_and_recycles() {
        let mut s = ssd(SystemKind::LxSsd { entries: 64 });
        w(&mut s, 0, 7);
        w(&mut s, 0, 8);
        w(&mut s, 1, 7);
        assert_eq!(s.stats().revived_writes, 1);
    }

    #[test]
    fn out_of_range_lpn_is_an_error() {
        let mut s = ssd(SystemKind::LxSsd { entries: 64 });
        w(&mut s, 0, 1);
        w(&mut s, 0, 2);
        s.read(Lpn::new(0), SimTime::ZERO).expect("read");
        s.trim(Lpn::new(0)).expect("trim");
        let counts = |s: &Ssd| {
            let stats = s.stats();
            (
                stats.host_writes,
                stats.host_reads,
                stats.trims,
                s.write_clock(),
                s.pool_stats(),
            )
        };
        let before = counts(&s);
        let limit = s.config().logical_pages;
        for beyond in [limit, 100_000] {
            let lpn = Lpn::new(beyond);
            let expected = format!("lpn {beyond} out of range (limit {limit})");
            let errors = [
                s.write(lpn, ValueId::new(1), SimTime::ZERO).map(|_| ()),
                s.read(lpn, SimTime::ZERO).map(|_| ()),
                s.trim(lpn),
            ];
            for error in errors {
                match error {
                    Err(e @ SsdError::Address(_)) => assert_eq!(e.to_string(), expected),
                    other => panic!("expected an address error, got {other:?}"),
                }
            }
        }
        assert_eq!(counts(&s), before, "a rejected command counts nothing");
    }

    #[test]
    fn write_clock_counts_host_writes() {
        let mut s = ssd(SystemKind::Baseline);
        w(&mut s, 0, 1);
        w(&mut s, 1, 2);
        s.read(Lpn::new(0), SimTime::ZERO).expect("read");
        assert_eq!(s.write_clock().count(), 2);
    }

    #[test]
    fn gc_relocates_shared_dedup_pages_and_keeps_all_owners() {
        // Three logical pages share one physical copy; hammer other
        // addresses until GC relocates the shared page, then verify
        // every owner still reads the shared content.
        let mut s = ssd(SystemKind::Dedup);
        for lpn in 0..3u64 {
            w(&mut s, lpn, 7);
        }
        for i in 0..600u64 {
            w(&mut s, 3 + (i % 5), 1000 + i);
        }
        let report_erases = s.flash().stats().erases.get();
        assert!(report_erases > 0, "GC must have run");
        for lpn in 0..3u64 {
            let (v, _) = s.read(Lpn::new(lpn), SimTime::ZERO).expect("read");
            assert_eq!(v, ValueId::new(7), "shared copy intact at L{lpn}");
        }
    }

    #[test]
    fn revived_pages_survive_gc_relocation() {
        let mut s = ssd(SystemKind::MqDvp { entries: 64 });
        w(&mut s, 0, 7);
        w(&mut s, 0, 8); // 7 dies
        w(&mut s, 1, 7); // revived
        assert_eq!(s.stats().revived_writes, 1);
        // Churn until GC relocates the revived page.
        for i in 0..600u64 {
            w(&mut s, 2 + (i % 6), 1000 + i);
        }
        assert!(s.flash().stats().erases.get() > 0);
        let (v, _) = s.read(Lpn::new(1), SimTime::ZERO).expect("read");
        assert_eq!(v, ValueId::new(7), "revived content survives GC moves");
    }

    #[test]
    fn reads_refresh_lxssd_entries_through_the_device() {
        // The Ssd wires read traffic into the pool notification hook;
        // with LX-SSD that bumps the garbage entry popularity.
        let mut s = ssd(SystemKind::LxSsd { entries: 64 });
        w(&mut s, 0, 7);
        w(&mut s, 0, 8); // 7 dies at L0
        let weight = |s: &Ssd, ppn| s.pool.as_ref().and_then(|pool| pool.garbage_weight(ppn));
        let old_ppn = {
            // Find the tracked garbage page via its weight.
            let mut found = None;
            for idx in 0..s.flash().geometry().total_pages() {
                let ppn = Ppn::new(idx);
                if weight(&s, ppn).is_some() {
                    found = Some(ppn);
                }
            }
            found.expect("one tracked zombie")
        };
        let before = weight(&s, old_ppn).expect("tracked");
        s.read(Lpn::new(0), SimTime::ZERO).expect("read");
        let after = weight(&s, old_ppn).expect("still tracked");
        assert!(after > before, "a read must bump LX-SSD popularity");
    }

    #[test]
    fn trim_of_unmapped_page_is_a_noop() {
        let mut s = ssd(SystemKind::MqDvp { entries: 16 });
        s.trim(Lpn::new(0)).expect("trim unmapped");
        assert_eq!(s.stats().trims, 1);
        assert_eq!(s.flash().total_invalid_pages(), 0);
        assert!(s.trim(Lpn::new(100_000)).is_err(), "address checked");
    }

    #[test]
    fn trim_counts_once_per_command_and_is_idempotent() {
        let mut s = ssd(SystemKind::MqDvp { entries: 16 });
        w(&mut s, 0, 7);
        s.trim(Lpn::new(0)).expect("trim");
        assert_eq!(s.stats().trims, 1);
        assert_eq!(s.flash().total_invalid_pages(), 1);
        let pool = s.pool_stats();
        // Trimming the same page again acknowledges the command but
        // kills nothing a second time.
        s.trim(Lpn::new(0)).expect("re-trim");
        assert_eq!(s.stats().trims, 2);
        assert_eq!(s.flash().total_invalid_pages(), 1);
        assert_eq!(s.pool_stats(), pool);
        // A never-written page: counted once, nothing dies.
        s.trim(Lpn::new(50)).expect("trim unmapped");
        assert_eq!(s.stats().trims, 3);
        assert_eq!(s.flash().total_invalid_pages(), 1);
        s.check_invariants().expect("consistent after trims");
    }

    #[test]
    fn program_failures_retry_onto_fresh_pages() {
        let config = SsdConfig::small_test().without_precondition().with_faults(
            zssd_flash::FaultConfig::none()
                .with_program_fail(0.1)
                .with_seed(42),
        );
        let mut s = Ssd::new(config).expect("drive");
        let mut shadow = std::collections::HashMap::new();
        for i in 0..400u64 {
            let lpn = (i * 13) % 64;
            let value = 1000 + i;
            s.write(Lpn::new(lpn), ValueId::new(value), SimTime::ZERO)
                .unwrap_or_else(|e| panic!("write {i} failed: {e}"));
            shadow.insert(lpn, value);
        }
        let flash = s.flash().stats();
        assert!(flash.program_failures.get() > 0, "faults must have fired");
        assert!(s.flash().total_bad_pages() > 0);
        // Every host write still landed somewhere despite the retries.
        assert_eq!(s.stats().host_programs, 400);
        s.check_invariants()
            .unwrap_or_else(|e| panic!("invariants violated: {e}"));
        for (&lpn, &value) in &shadow {
            let (got, _) = s.read(Lpn::new(lpn), SimTime::ZERO).expect("read");
            assert_eq!(got, ValueId::new(value), "content at L{lpn}");
        }
    }

    #[test]
    fn repeated_erase_failures_retire_the_block() {
        let config = SsdConfig::small_test().without_precondition().with_faults(
            zssd_flash::FaultConfig::none()
                .with_erase_fail(1.0)
                .with_seed(7),
        );
        let mut s = Ssd::new(config).expect("drive");
        let mut shadow = std::collections::HashMap::new();
        for i in 0..2000u64 {
            let lpn = i % 8;
            let value = 1000 + i;
            s.write(Lpn::new(lpn), ValueId::new(value), SimTime::ZERO)
                .unwrap_or_else(|e| panic!("write {i} failed: {e}"));
            shadow.insert(lpn, value);
            if s.flash().stats().retired_blocks.get() >= 1 {
                break;
            }
        }
        let flash = s.flash().stats();
        assert!(flash.retired_blocks.get() >= 1, "a block must have retired");
        assert!(
            flash.erase_failures.get() >= 2,
            "retirement takes two failures"
        );
        assert_eq!(flash.erases.get(), 0, "every erase attempt failed");
        s.check_invariants()
            .unwrap_or_else(|e| panic!("invariants violated: {e}"));
        for (&lpn, &value) in &shadow {
            let (got, _) = s.read(Lpn::new(lpn), SimTime::ZERO).expect("read");
            assert_eq!(got, ValueId::new(value), "content at L{lpn}");
        }
    }

    #[test]
    fn read_retries_scrub_the_suspect_page() {
        let config = SsdConfig::small_test().without_precondition().with_faults(
            zssd_flash::FaultConfig::none()
                .with_read_error(1.0)
                .with_seed(1),
        );
        let mut s = Ssd::new(config).expect("drive");
        w(&mut s, 0, 7);
        let (v, done) = s.read(Lpn::new(0), SimTime::ZERO).expect("read");
        assert_eq!(v, ValueId::new(7));
        assert_eq!(s.flash().stats().read_retries.get(), 1);
        assert_eq!(s.stats().scrub_programs, 1, "suspect page relocated");
        s.check_invariants().expect("consistent after scrubbing");
        // The content survives at its new address (where this read —
        // with the error rate pinned at 1.0 — retries and scrubs again).
        let (v2, _) = s.read(Lpn::new(0), done).expect("read");
        assert_eq!(v2, ValueId::new(7));
        assert_eq!(s.stats().scrub_programs, 2);
    }

    #[test]
    fn event_trace_matches_counters_and_is_causally_ordered() {
        let config = SsdConfig::small_test()
            .without_precondition()
            .with_system(SystemKind::MqDvp { entries: 64 })
            .with_faults(zssd_flash::FaultConfig::none())
            .with_event_tracing(true);
        let mut s = Ssd::new(config).expect("drive");
        w(&mut s, 0, 7);
        w(&mut s, 0, 8); // 7 dies
        w(&mut s, 1, 7); // revived
        s.read(Lpn::new(1), SimTime::ZERO).expect("read");
        for i in 0..400u64 {
            // churn until GC runs
            w(&mut s, 2 + (i % 6), 1000 + i);
        }
        assert!(!s.events().is_empty(), "live accessor sees the trace");
        let report = s.into_report();
        let count = |kind: &str| {
            report
                .events
                .iter()
                .filter(|e| e.event.kind() == kind)
                .count() as u64
        };
        assert_eq!(count("host_write"), report.host_writes);
        assert_eq!(count("host_read"), report.host_reads);
        assert_eq!(count("revive"), report.revived_writes);
        assert_eq!(count("gc_erase"), report.erases);
        assert_eq!(count("gc_relocate"), report.gc_programs);
        assert!(count("gc_start") >= report.gc_collections);
        assert_eq!(count("gc_victim"), count("gc_start"));
        assert_eq!(count("fault"), 0, "faults pinned off");
        for (i, e) in report.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "gapless run-global sequence");
        }
        // Phase timers saw the same GC work the events did.
        assert_eq!(report.phases.get("gc_erase").count, report.erases);
        assert!(report.phases.get("gc_stall").total > SimDuration::ZERO);
    }

    #[test]
    fn every_program_failure_and_read_retry_is_traced() {
        // Frequent read retries make scrubbing common enough that its
        // best-effort copyback also fails now and then.
        let config = SsdConfig::small_test()
            .without_precondition()
            .with_system(SystemKind::MqDvp { entries: 64 })
            .with_faults(
                zssd_flash::FaultConfig::none()
                    .with_program_fail(0.05)
                    .with_read_error(0.5)
                    .with_seed(3),
            )
            .with_event_tracing(true);
        let mut s = Ssd::new(config).expect("drive");
        for i in 0..400u64 {
            w(&mut s, i % 16, 1000 + i % 23);
            s.read(Lpn::new(i % 16), SimTime::ZERO).expect("read");
        }
        let report = s.into_report();
        let faults = |wanted: FaultEvent| {
            report
                .events
                .iter()
                .filter(|e| matches!(e.event, Event::Fault { kind, .. } if kind == wanted))
                .count() as u64
        };
        assert!(report.scrub_programs > 0 && report.program_failures > 0);
        assert_eq!(faults(FaultEvent::Program), report.program_failures);
        assert_eq!(faults(FaultEvent::ReadRetry), report.read_retries);
    }

    #[test]
    fn tracing_disabled_changes_nothing_and_records_nothing() {
        let run = |trace: bool| {
            let config = SsdConfig::small_test()
                .without_precondition()
                .with_system(SystemKind::MqDvp { entries: 64 })
                .with_faults(zssd_flash::FaultConfig::none())
                .with_event_tracing(trace);
            let mut s = Ssd::new(config).expect("drive");
            for i in 0..400u64 {
                w(&mut s, i % 8, 1000 + (i % 13));
            }
            s.read(Lpn::new(0), SimTime::ZERO).expect("read");
            s.into_report()
        };
        let off = run(false);
        let on = run(true);
        assert!(off.events.is_empty());
        assert!(!on.events.is_empty());
        // Tracing must be observationally free: every counter, digest,
        // and sample of the two runs is identical.
        let mut on_stripped = on.clone();
        on_stripped.events.clear();
        assert_eq!(off, on_stripped);
    }

    #[test]
    fn preconditioning_leaves_no_events_in_the_trace() {
        let config = SsdConfig::small_test()
            .with_system(SystemKind::MqDvp { entries: 64 })
            .with_faults(zssd_flash::FaultConfig::none())
            .with_event_tracing(true);
        let mut s = Ssd::new(config).expect("drive");
        assert!(s.events().is_empty(), "warm-up fill is not traced");
        w(&mut s, 0, 7);
        let events = s.events();
        assert_eq!(events.last().map(|e| e.event.kind()), Some("host_write"));
        assert_eq!(events[0].seq, 0, "sequencing restarts after warm-up");
    }

    #[test]
    fn check_invariants_finds_a_corrupt_owner_list() {
        let mut s = ssd(SystemKind::Dedup);
        w(&mut s, 0, 7);
        w(&mut s, 1, 7); // shares L0's page: L1 and L2 go to list 0
        w(&mut s, 2, 7);
        w(&mut s, 3, 8);
        s.check_invariants().expect("consistent before corruption");
        let shared = s.mapping.lookup(Lpn::new(0)).expect("mapped");
        let single = s.mapping.lookup(Lpn::new(3)).expect("mapped");
        assert_ne!(shared, single);
        // The single-owner page now names the shared page's list too.
        s.rmap.point_at_list(single, 0);
        let err = s.check_invariants().expect_err("corrupt slot found");
        assert!(err.contains("owner list 0 is named by 2 records"), "{err}");
    }

    #[test]
    fn sustained_random_overwrites_stay_consistent() {
        // Endurance smoke test across all systems: hammer random-ish
        // addresses well past device turnover and verify read-back.
        for system in [
            SystemKind::Baseline,
            SystemKind::MqDvp { entries: 32 },
            SystemKind::LruDvp { entries: 32 },
            SystemKind::Dedup,
            SystemKind::DvpPlusDedup { entries: 32 },
            SystemKind::Ideal,
            SystemKind::LxSsd { entries: 32 },
        ] {
            let mut s = ssd(system);
            let mut shadow = std::collections::HashMap::new();
            for i in 0..2000u64 {
                let lpn = (i * 37 + i / 13) % 192;
                let value = (i * 31) % 23; // small value space -> reuse
                s.write(Lpn::new(lpn), ValueId::new(value), SimTime::ZERO)
                    .unwrap_or_else(|e| panic!("{system}: write {i} failed: {e}"));
                shadow.insert(lpn, value);
            }
            for (&lpn, &value) in &shadow {
                let (got, _) = s.read(Lpn::new(lpn), SimTime::ZERO).expect("read");
                assert_eq!(got, ValueId::new(value), "{system}: content at L{lpn}");
            }
            s.check_invariants()
                .unwrap_or_else(|e| panic!("{system}: invariants violated: {e}"));
        }
    }
}
