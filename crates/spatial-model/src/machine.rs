//! The machine: message accounting, placement, instrumentation, and the
//! fault/conformance layer.
//!
//! The machine meters raw counters only;
//! [`crate::profile::CostProfile::charge`] prices a finished
//! [`Machine::report`].

use spatial_rng::Rng;

use crate::cancel::CancelToken;
use crate::coord::Coord;
use crate::cost::Cost;
use crate::error::SpatialError;
use crate::fault::{FaultPlan, RowRemap};
use crate::guard::ModelGuard;
use crate::memory::MemMeter;
use crate::path::Path;
use crate::trace::Trace;
use crate::value::Tracked;

/// Live state of an active [`FaultPlan`].
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Flat dead-row remap table, precomputed at [`Machine::enable_faults`]
    /// so per-message routing is O(1) instead of O(dead rows). `None` when
    /// the plan's dead rows span too wide a window to tabulate.
    remap: Option<RowRemap>,
    /// Whether the plan has individual hard-dead PEs — when it does not, the
    /// dead-target check is skipped entirely (remapped coordinates never
    /// land on a dead row).
    has_dead_pes: bool,
    /// Deterministic per-message transient-corruption stream.
    rng: Rng,
    /// Fault contacts: transiently corrupted messages plus deliveries to
    /// dead PEs. Any non-zero count means the run's output cannot be
    /// trusted end to end.
    hits: u64,
    /// Extra energy relative to the same run on a fault-free grid (dead-row
    /// detours plus degraded-link penalties).
    detour_energy: u64,
}

impl FaultState {
    /// The physical PE for logical `c`, via the flat table when available.
    #[inline]
    fn physical(&self, c: Coord) -> Coord {
        match &self.remap {
            Some(r) => r.physical(c),
            None => self.plan.physical(c),
        }
    }
}

/// The Spatial Computer Model machine.
///
/// A `Machine` owns the global cost accumulators. Algorithms thread a
/// `&mut Machine` through their recursion; all cross-PE data movement goes
/// through [`Machine::send`] / [`Machine::send_owned`], which charge the
/// Manhattan distance to the energy counter, extend the value's critical
/// [`Path`], and update the global depth/distance watermarks.
///
/// The machine is deterministic and single-threaded: every cost reported is
/// exactly reproducible — including under an active [`FaultPlan`], whose
/// random draws are pure functions of its seed.
///
/// ## Faults and guards
///
/// [`Machine::enable_faults`] activates a hardware-defect pattern: dead rows
/// are detoured around (logical coordinates are preserved; the longer
/// physical routes are charged to energy/distance), dead PEs and transient
/// message corruption are recorded. [`Machine::enable_guard`] activates
/// conformance checks (grid extent, per-PE memory cap, cost budgets).
///
/// A violation never panics and never refuses a message: the placement or
/// delivery still happens (and is charged) so the simulation can continue,
/// and the machine **latches** the first [`SpatialError`], retrievable via
/// [`Machine::violation`]. [`Machine::guarded`] is the one place a latched
/// violation becomes a `Result`.
#[derive(Debug, Default)]
pub struct Machine {
    energy: u64,
    messages: u64,
    depth_watermark: u64,
    distance_watermark: u64,
    mem: Option<MemMeter>,
    trace: Option<Trace>,
    faults: Option<FaultState>,
    guard: Option<ModelGuard>,
    violation: Option<SpatialError>,
    cancel: Option<CancelToken>,
}

impl Machine {
    /// A fresh machine with all counters at zero and instrumentation off.
    pub fn new() -> Self {
        Machine::default()
    }

    /// Enables per-PE memory metering (see [`MemMeter`]). Only values placed
    /// or moved after this call are metered, so enable it before placing the
    /// input. When a guard with a declared extent is already active, the
    /// meter uses flat (dense) counters over that extent instead of a hash
    /// map — same observations, cheaper per-message bookkeeping.
    pub fn enable_memory_meter(&mut self) {
        self.mem = Some(match self.guard.as_ref().and_then(|g| g.extent) {
            Some(extent) => MemMeter::with_extent(extent),
            None => MemMeter::new(),
        });
    }

    /// Enables message tracing with the given record cap.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(Trace::with_cap(cap));
    }

    /// Activates a fault plan. Logical coordinates (what algorithms and
    /// [`Tracked::loc`] see) are unchanged; message costs are computed
    /// between the remapped *physical* PEs, so dead-row detours and
    /// degraded links show up in energy/distance. Enable before placing the
    /// input so placements are fault-checked too.
    ///
    /// A plan with no dead rows, dead PEs, degraded rows or flaky rate
    /// leaves the machine bare ([`Machine::is_bare`]): it would charge every
    /// message its logical distance and draw nothing, so the closed-form
    /// kernels charge the same costs.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        let rng = plan.message_rng();
        let remap = plan.row_remap();
        let has_dead_pes = plan.has_dead_pes();
        self.faults =
            Some(FaultState { plan, remap, has_dead_pes, rng, hits: 0, detour_energy: 0 });
    }

    /// Activates conformance checks. A guard with a
    /// [`ModelGuard::mem_cap`] auto-enables the memory meter (like
    /// [`Machine::enable_memory_meter`], enable before placing the input);
    /// when the guard also declares an extent the auto-enabled meter uses
    /// flat counters over it.
    pub fn enable_guard(&mut self, guard: ModelGuard) {
        if guard.mem_cap.is_some() && self.mem.is_none() {
            self.mem = Some(match guard.extent {
                Some(extent) => MemMeter::with_extent(extent),
                None => MemMeter::new(),
            });
        }
        self.guard = Some(guard);
    }

    /// Attaches a cooperative cancellation token (see [`CancelToken`]).
    /// [`Machine::guarded`] reads it once, when its closure returns, and
    /// latches [`SpatialError::Cancelled`] if it has been tripped. A token
    /// is not an instrument: it never observes a message, so the machine
    /// stays bare. A caller that must stop within one message of the token
    /// tripping guards each send separately.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The active memory meter, if enabled.
    pub fn memory(&self) -> Option<&MemMeter> {
        self.mem.as_ref()
    }

    /// The active trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The active trace, or a typed
    /// [`SpatialError::InstrumentationDisabled`] usage error when
    /// [`Machine::enable_trace`] was never called — for drivers that must
    /// report a misconfiguration instead of panicking on `unwrap`.
    pub fn require_trace(&self) -> Result<&Trace, SpatialError> {
        self.trace.as_ref().ok_or(SpatialError::InstrumentationDisabled {
            what: "message trace (call Machine::enable_trace before running the algorithm)",
        })
    }

    /// Number of fault contacts so far: transiently corrupted messages plus
    /// deliveries to dead PEs. A recovery harness treats any non-zero count
    /// as an end-to-end checksum failure.
    pub fn fault_hits(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.hits)
    }

    /// Extra energy charged relative to the same run on a fault-free grid
    /// (dead-row detours plus degraded-link penalties) — the measured
    /// fault-tolerance overhead.
    pub fn detour_energy(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.detour_energy)
    }

    /// The first guard/fault violation latched so far, if any. `None` means
    /// the run so far is model-conformant.
    pub fn violation(&self) -> Option<&SpatialError> {
        self.violation.as_ref()
    }

    /// Takes (and clears) the latched violation.
    pub fn take_violation(&mut self) -> Option<SpatialError> {
        self.violation.take()
    }

    /// Runs `f` and converts any violation it latches into a typed error:
    /// `Err` if a violation was already latched before the call or if `f`
    /// latches one, `Ok(f(self))` otherwise. This is how callers run a whole
    /// primitive (`m.guarded(|m| sort_z(m, 0, items))`) or a single send
    /// fallibly without threading `Result` through the recursion. When `f`
    /// returns, a tripped cancel token (see [`Machine::set_cancel_token`])
    /// latches [`SpatialError::Cancelled`].
    pub fn guarded<R>(&mut self, f: impl FnOnce(&mut Machine) -> R) -> Result<R, SpatialError> {
        if let Some(e) = &self.violation {
            return Err(e.clone());
        }
        let out = f(self);
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.latch(SpatialError::Cancelled);
        }
        match &self.violation {
            Some(e) => Err(e.clone()),
            None => Ok(out),
        }
    }

    /// Places an input value at a PE (free: input placement is part of the
    /// problem statement, not of the algorithm's cost). Guard/fault
    /// violations are latched (see [`Machine::violation`]).
    pub fn place<T>(&mut self, loc: Coord, value: T) -> Tracked<T> {
        if let Some(e) = self.target_violation(loc) {
            self.latch_target(e);
        }
        if let Some(e) = self.mem_violation(loc) {
            self.latch(e);
        }
        if let Some(mem) = &mut self.mem {
            mem.store(loc);
        }
        Tracked::raw(value, loc, Path::ZERO)
    }

    /// Places `values[i]` at `loc_of(i)` — [`Machine::place`] over a whole
    /// input array. Placement is free either way; on an uninstrumented
    /// machine this skips the per-item guard/fault/meter checks entirely,
    /// while any active instrumentation sees the identical per-item
    /// placement stream.
    pub fn place_batch<T>(
        &mut self,
        values: Vec<T>,
        loc_of: impl Fn(usize) -> Coord,
    ) -> Vec<Tracked<T>> {
        if !self.is_bare() {
            return values.into_iter().enumerate().map(|(i, v)| self.place(loc_of(i), v)).collect();
        }
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| Tracked::raw(v, loc_of(i), Path::ZERO))
            .collect()
    }

    /// Sends a *copy* of `t` to `dst`, charging one message. The source copy
    /// stays resident. Guard/fault violations are latched (see
    /// [`Machine::violation`]).
    pub fn send<T: Clone>(&mut self, t: &Tracked<T>, dst: Coord) -> Tracked<T> {
        self.send_impl(t.value().clone(), t.loc(), t.path(), dst, false)
    }

    /// Moves `t` to `dst`, charging one message. The source PE frees the
    /// slot. Guard/fault violations are latched (see [`Machine::violation`]).
    pub fn send_owned<T>(&mut self, t: Tracked<T>, dst: Coord) -> Tracked<T> {
        let (value, loc, path) = t.into_parts();
        self.send_impl(value, loc, path, dst, true)
    }

    /// Discards a value, releasing its memory slot (free in the model).
    pub fn discard<T>(&mut self, t: Tracked<T>) {
        if let Some(mem) = &mut self.mem {
            mem.free(t.loc());
        }
    }

    /// Sends a value only if it is not already at `dst` (avoids charging
    /// zero-length self-messages; the model's messages always travel wires).
    pub fn move_to<T>(&mut self, t: Tracked<T>, dst: Coord) -> Tracked<T> {
        if t.loc() == dst {
            t
        } else {
            self.send_owned(t, dst)
        }
    }

    /// True when no instrumentation can observe or veto a send — every
    /// message reduces to pure counter arithmetic, and the batch APIs may
    /// hoist all per-message checks out of their inner loops. Closed-form
    /// cost kernels (see [`crate::kernels`]) are only valid on a bare
    /// machine; with any instrument armed, algorithms must run the
    /// materializing per-item path so the instrument observes the exact
    /// open-coded event stream. The instruments are the memory meter, the
    /// trace, a fault plan that injects something (an empty one is dropped
    /// by [`Machine::enable_faults`]) and the guard. A cancel token is not
    /// an instrument.
    #[inline]
    pub fn is_bare(&self) -> bool {
        self.mem.is_none() && self.trace.is_none() && self.faults.is_none() && self.guard.is_none()
    }

    /// Adds a closed-form energy total, clamping exactly where the serial
    /// per-item saturating fold would.
    ///
    /// *Saturation note.* A serial left fold of `saturating_add` over
    /// non-negative terms equals `min(true_sum, u64::MAX)`: partial sums are
    /// monotone, so the fold clamps exactly when the true sum exceeds
    /// `u64::MAX` and is exact otherwise. A bare batch's local sum added
    /// with `saturating_add` computes the same function, as do these `u128`
    /// totals of the level kernels, so all three agree bit for bit even at
    /// the clamp.
    #[inline]
    pub(crate) fn add_energy_total(&mut self, total: u128) {
        self.energy = (u128::from(self.energy) + total).min(u128::from(u64::MAX)) as u64;
    }

    /// Adds closed-form-counted messages (for cost kernels charging whole
    /// phases at once).
    #[inline]
    pub(crate) fn add_messages(&mut self, n: u64) {
        self.messages += n;
    }

    /// Raises the watermarks to a path's depth and distance (energy and
    /// messages were charged separately).
    #[inline]
    pub(crate) fn absorb_watermarks(&mut self, seen: Path) {
        self.depth_watermark = self.depth_watermark.max(seen.depth);
        self.distance_watermark = self.distance_watermark.max(seen.distance);
    }

    /// Adds a bare batch's local charges to the machine's counters.
    #[inline]
    fn absorb(&mut self, acc: BatchCharges) {
        self.energy = self.energy.saturating_add(acc.energy);
        self.messages += acc.messages;
        self.absorb_watermarks(acc.seen);
    }

    /// Moves a batch of values, each to its own destination, charging the
    /// same costs as [`Machine::move_to`] on every pair (self-messages are
    /// skipped, all others charge one message).
    ///
    /// On an uninstrumented machine the batch runs as one per-item loop
    /// into a local accumulator, added to the counters once. With any
    /// instrumentation active (meter, trace, faults, guard) each pair goes
    /// through the ordinary `move_to` path, so batching never changes what
    /// instruments observe.
    pub fn send_batch<T>(&mut self, items: Vec<(Tracked<T>, Coord)>) -> Vec<Tracked<T>> {
        if !self.is_bare() {
            return items.into_iter().map(|(t, dst)| self.move_to(t, dst)).collect();
        }
        let mut acc = BatchCharges::default();
        let out = items
            .into_iter()
            .map(|(t, dst)| {
                if t.loc() == dst {
                    return t;
                }
                let (value, src, path) = t.into_parts();
                deliver(value, src, path, dst, &mut acc)
            })
            .collect();
        self.absorb(acc);
        out
    }

    /// Sends a *copy* of each value to its destination, charging the same
    /// costs as [`Machine::send`] on every pair (unlike [`Machine::send_batch`]
    /// nothing is skipped: a copy to the source's own PE still charges one
    /// zero-length message, exactly as `send` does).
    ///
    /// Fast path and instrumentation behavior as in [`Machine::send_batch`].
    pub fn send_batch_copy<T: Clone>(&mut self, items: &[(&Tracked<T>, Coord)]) -> Vec<Tracked<T>> {
        if !self.is_bare() {
            return items.iter().map(|&(t, dst)| self.send(t, dst)).collect();
        }
        let mut acc = BatchCharges::default();
        let out = items
            .iter()
            .map(|&(t, dst)| deliver(t.value().clone(), t.loc(), t.path(), dst, &mut acc))
            .collect();
        self.absorb(acc);
        out
    }

    /// Gathers copies of `srcs` at `dst` and folds them pairwise in arrival
    /// order: the first arrival seeds the accumulator, every later arrival
    /// is combined via `op` and both operands are discarded. Exactly
    /// equivalent — in charged costs, in the result's critical path, and in
    /// the per-PE event stream instruments observe — to the open-coded
    ///
    /// ```text
    /// acc = send(srcs[0], dst);
    /// for s in &srcs[1..] {
    ///     arrived = send(s, dst);
    ///     next = acc.zip_with(&arrived, op); discard(acc); discard(arrived);
    ///     acc = next;
    /// }
    /// ```
    ///
    /// This is the instrumented scan's up-sweep step; on a bare machine the
    /// scan runs as the level kernel [`Machine::scan_block`] instead.
    ///
    /// # Panics
    /// Panics if `srcs` is empty (a usage bug, not a model violation).
    pub fn gather_copy<T: Clone>(
        &mut self,
        srcs: &[&Tracked<T>],
        dst: Coord,
        op: impl Fn(&T, &T) -> T,
    ) -> Tracked<T> {
        assert!(!srcs.is_empty(), "gather_copy requires at least one source");
        let mut acc = self.send(srcs[0], dst);
        for s in &srcs[1..] {
            let arrived = self.send(s, dst);
            let next = acc.zip_with(&arrived, &op);
            self.discard(acc);
            self.discard(arrived);
            acc = next;
        }
        acc
    }

    /// The fold-and-scatter step of a multi-ary down-sweep in one call:
    /// starting from an optional exclusive prefix `carry` (resident at
    /// `hub`), gathers a copy of each of the `N-1` `children` at `hub`,
    /// forms the running prefixes `carry, carry∘c₀, carry∘c₀∘c₁, …`, and
    /// delivers prefix `i` to `dsts[i]` with move semantics (a delivery to
    /// the PE it is already on is free, as in [`Machine::move_to`]).
    /// Returns the delivered prefixes; slot 0 is `None` when `carry` was.
    ///
    /// This is the instrumented scan's down-sweep step, the open-coded
    /// gather/duplicate/`move_to` sequence instruments observe; on a bare
    /// machine the scan runs as the level kernel [`Machine::scan_block`]
    /// instead.
    pub fn fold_scatter<T: Clone, const N: usize>(
        &mut self,
        carry: Option<Tracked<T>>,
        children: &[&Tracked<T>],
        hub: Coord,
        dsts: &[Coord; N],
        op: impl Fn(&T, &T) -> T,
    ) -> [Option<Tracked<T>>; N] {
        assert_eq!(children.len() + 1, N, "one destination per running prefix");
        debug_assert!(carry.as_ref().is_none_or(|c| c.loc() == hub), "carry must reside at hub");
        let mut prefixes: [Option<Tracked<T>>; N] = std::array::from_fn(|_| None);
        let mut running: Option<Tracked<T>> = carry;
        if let Some(c) = &running {
            prefixes[0] = Some(c.duplicate());
        }
        for (i, child) in children.iter().enumerate() {
            let s = self.send(child, hub);
            running = Some(match running.take() {
                None => s,
                Some(r) => {
                    let nr = r.zip_with(&s, &op);
                    self.discard(r);
                    self.discard(s);
                    nr
                }
            });
            prefixes[i + 1] = Some(running.as_ref().expect("just set").duplicate());
        }
        if let Some(r) = running {
            self.discard(r);
        }
        let mut out: [Option<Tracked<T>>; N] = std::array::from_fn(|_| None);
        for (i, p) in prefixes.into_iter().enumerate() {
            out[i] = p.map(|p| self.move_to(p, dsts[i]));
        }
        out
    }

    /// Latches the first violation.
    #[inline]
    fn latch(&mut self, e: SpatialError) {
        if self.violation.is_none() {
            self.violation = Some(e);
        }
    }

    /// Latches a [`Machine::target_violation`], counting a delivery to a
    /// dead PE as a fault hit.
    fn latch_target(&mut self, e: SpatialError) {
        if matches!(e, SpatialError::DeadPe { .. }) {
            if let Some(f) = &mut self.faults {
                f.hits += 1;
            }
        }
        self.latch(e);
    }

    /// The dead-PE / out-of-bounds violation for targeting `dst`, if any.
    #[inline]
    fn target_violation(&self, dst: Coord) -> Option<SpatialError> {
        if let Some(extent) = self.guard.as_ref().and_then(|g| g.extent) {
            if !extent.contains(dst) {
                return Some(SpatialError::OutOfBounds { loc: dst, extent });
            }
        }
        if let Some(f) = &self.faults {
            // A remapped coordinate never lands on a dead *row*, so the only
            // possible dead target is an individual hard-dead PE — skip the
            // remap entirely when the plan has none.
            if f.has_dead_pes {
                let physical = f.physical(dst);
                if f.plan.dead_pe_at(physical) {
                    return Some(SpatialError::DeadPe { logical: dst, physical });
                }
            }
        }
        None
    }

    /// The memory-cap violation a delivery to `dst` would cause, if any.
    #[inline]
    fn mem_violation(&self, dst: Coord) -> Option<SpatialError> {
        let cap = self.guard.as_ref()?.mem_cap?;
        let resident = self.mem.as_ref().map_or(0, |m| m.resident(dst));
        if resident >= cap {
            Some(SpatialError::MemoryExceeded { loc: dst, resident, cap })
        } else {
            None
        }
    }

    fn send_impl<T>(
        &mut self,
        value: T,
        src: Coord,
        path: Path,
        dst: Coord,
        owned: bool,
    ) -> Tracked<T> {
        if let Some(e) = self.target_violation(dst) {
            self.latch_target(e);
        }
        // A move to the source's own PE frees the slot before re-storing, so
        // it can never overflow.
        let mem_err = if owned && src == dst { None } else { self.mem_violation(dst) };
        if let Some(e) = mem_err {
            self.latch(e);
        }
        let d = self.charge(src, dst, path);
        if let Some(mem) = &mut self.mem {
            if owned {
                mem.free(src);
            }
            mem.store(dst);
        }
        if let Some(e) = self.guard.as_ref().and_then(|g| g.budget_violation(self.report())) {
            self.latch(e);
        }
        Tracked::raw(value, dst, path.step(d))
    }

    /// Charges one message from `src` to `dst`. Under an active fault plan
    /// the charged distance is the *physical* route (dead-row detours plus
    /// degraded-link penalties); the trace keeps logical endpoints so traces
    /// of faulty and fault-free runs stay comparable.
    #[inline]
    fn charge(&mut self, src: Coord, dst: Coord, path: Path) -> u64 {
        let logical = src.manhattan(dst);
        let d = match &mut self.faults {
            None => logical,
            Some(f) => {
                let (ps, pd) = (f.physical(src), f.physical(dst));
                let physical = ps.manhattan(pd) + f.plan.degraded_penalty(ps, pd);
                f.detour_energy = f.detour_energy.saturating_add(physical.saturating_sub(logical));
                if f.plan.has_transient_faults() && f.rng.gen_bool(f.plan.flaky()) {
                    f.hits += 1;
                }
                physical
            }
        };
        self.energy = self.energy.saturating_add(d);
        self.messages += 1;
        let p = path.step(d);
        self.depth_watermark = self.depth_watermark.max(p.depth);
        self.distance_watermark = self.distance_watermark.max(p.distance);
        if let Some(tr) = &mut self.trace {
            tr.record(src, dst, d);
        }
        d
    }

    /// Snapshot of the accumulated costs.
    #[inline]
    pub fn report(&self) -> Cost {
        Cost {
            energy: self.energy,
            depth: self.depth_watermark,
            distance: self.distance_watermark,
            messages: self.messages,
        }
    }

    /// Total energy so far.
    #[inline]
    pub fn energy(&self) -> u64 {
        self.energy
    }

    /// Number of messages so far.
    #[inline]
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

/// What a bare batch charges, summed locally and added to the machine's
/// counters once: energy (saturating), messages, and the join of the
/// delivered paths for the watermarks.
#[derive(Default)]
struct BatchCharges {
    energy: u64,
    messages: u64,
    seen: Path,
}

/// One delivery of a bare batch: charges `src.manhattan(dst)` to the
/// batch's accumulator, steps and observes the value's path, and lands the
/// value at `dst` — what [`Machine::send`] charges for one message.
#[inline]
fn deliver<T>(value: T, src: Coord, path: Path, dst: Coord, acc: &mut BatchCharges) -> Tracked<T> {
    let d = src.manhattan(dst);
    acc.energy = acc.energy.saturating_add(d);
    acc.messages += 1;
    let p = path.step(d);
    acc.seen = acc.seen.join(p);
    Tracked::raw(value, dst, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SubGrid;

    #[test]
    fn send_charges_manhattan_distance() {
        let mut m = Machine::new();
        let a = m.place(Coord::new(0, 0), 1u32);
        let b = m.send(&a, Coord::new(2, 3));
        assert_eq!(m.energy(), 5);
        assert_eq!(m.messages(), 1);
        assert_eq!(b.loc(), Coord::new(2, 3));
        assert_eq!(b.path(), Path { depth: 1, distance: 5 });
    }

    #[test]
    fn chains_accumulate_depth_and_distance() {
        let mut m = Machine::new();
        let a = m.place(Coord::ORIGIN, 0u8);
        let b = m.send_owned(a, Coord::new(0, 4));
        let c = m.send_owned(b, Coord::new(4, 4));
        assert_eq!(c.path(), Path { depth: 2, distance: 8 });
        assert_eq!(m.report().depth, 2);
        assert_eq!(m.report().distance, 8);
        assert_eq!(m.report().energy, 8);
    }

    #[test]
    fn independent_sends_do_not_chain() {
        let mut m = Machine::new();
        let a = m.place(Coord::ORIGIN, 0u8);
        let b = m.place(Coord::new(10, 0), 0u8);
        let _a2 = m.send(&a, Coord::new(0, 1));
        let _b2 = m.send(&b, Coord::new(10, 1));
        // Two parallel messages: energy 2, but depth stays 1.
        assert_eq!(m.report().energy, 2);
        assert_eq!(m.report().depth, 1);
        assert_eq!(m.report().distance, 1);
    }

    #[test]
    fn watermark_covers_dropped_values() {
        let mut m = Machine::new();
        let a = m.place(Coord::ORIGIN, 0u8);
        let far = m.send(&a, Coord::new(100, 0));
        let _ = far; // result discarded, but the chain still happened
        assert_eq!(m.report().distance, 100);
        assert_eq!(m.report().depth, 1);
    }

    #[test]
    fn move_to_skips_self_messages() {
        let mut m = Machine::new();
        let a = m.place(Coord::ORIGIN, 3i64);
        let a = m.move_to(a, Coord::ORIGIN);
        assert_eq!(m.messages(), 0);
        let a = m.move_to(a, Coord::new(1, 0));
        assert_eq!(m.messages(), 1);
        assert_eq!(a.loc(), Coord::new(1, 0));
    }

    #[test]
    fn memory_meter_follows_moves() {
        let mut m = Machine::new();
        m.enable_memory_meter();
        let a = m.place(Coord::ORIGIN, 1u8);
        let b = m.send(&a, Coord::new(0, 1)); // copy: both resident
        assert_eq!(m.memory().unwrap().resident(Coord::ORIGIN), 1);
        assert_eq!(m.memory().unwrap().resident(Coord::new(0, 1)), 1);
        let c = m.send_owned(b, Coord::new(0, 2)); // move
        assert_eq!(m.memory().unwrap().resident(Coord::new(0, 1)), 0);
        m.discard(a);
        m.discard(c);
        assert_eq!(m.memory().unwrap().resident(Coord::ORIGIN), 0);
        assert_eq!(m.memory().unwrap().peak(), 1);
    }

    #[test]
    fn trace_records_messages() {
        let mut m = Machine::new();
        m.enable_trace(16);
        let a = m.place(Coord::ORIGIN, 1u8);
        let _ = m.send(&a, Coord::new(1, 1));
        let tr = m.trace().unwrap();
        assert_eq!(tr.records().len(), 1);
        assert_eq!(tr.records()[0].len, 2);
    }

    #[test]
    fn dead_row_detours_are_charged_not_hidden() {
        let mut m = Machine::new();
        m.enable_faults(FaultPlan::builder(0).dead_row(1).build());
        let a = m.place(Coord::new(0, 0), 1u8);
        // Logical (0,0)→(2,0) is distance 2; the detour around dead row 1
        // stretches it to physical (0,0)→(3,0) = 3.
        let b = m.send(&a, Coord::new(2, 0));
        assert_eq!(b.loc(), Coord::new(2, 0), "logical coordinates are preserved");
        assert_eq!(m.energy(), 3);
        assert_eq!(m.detour_energy(), 1);
        assert_eq!(m.fault_hits(), 0);
        assert!(m.violation().is_none());
    }

    #[test]
    fn degraded_rows_add_link_penalties() {
        let mut m = Machine::new();
        m.enable_faults(FaultPlan::builder(0).degraded_row(1).build());
        let a = m.place(Coord::new(0, 0), 1u8);
        let b = m.send(&a, Coord::new(2, 0)); // crosses degraded row 1
        assert_eq!(m.energy(), 3);
        assert_eq!(m.detour_energy(), 1);
        let _ = m.send(&b, Coord::new(2, 2)); // untouched rows: no penalty
        assert_eq!(m.energy(), 5);
    }

    #[test]
    fn send_to_dead_pe_latches_and_counts_a_hit() {
        let mut m = Machine::new();
        m.enable_faults(FaultPlan::builder(0).dead_pe(Coord::new(0, 3)).build());
        let a = m.place(Coord::ORIGIN, 1u8);
        let b = m.send(&a, Coord::new(0, 3)); // latched: simulation continues
        assert_eq!(b.loc(), Coord::new(0, 3));
        assert_eq!(m.energy(), 3, "the violating message is still charged");
        assert_eq!(m.fault_hits(), 1);
        let dead = Coord::new(0, 3);
        assert_eq!(m.violation(), Some(&SpatialError::DeadPe { logical: dead, physical: dead }));
    }

    #[test]
    fn guard_extent_rejects_out_of_bounds_traffic() {
        let mut m = Machine::new();
        let extent = SubGrid::square(Coord::ORIGIN, 4);
        m.enable_guard(ModelGuard::new().extent(extent));
        let err = m.guarded(|m| m.place(Coord::new(4, 0), 1u8)).unwrap_err();
        assert_eq!(err, SpatialError::OutOfBounds { loc: Coord::new(4, 0), extent });
        m.take_violation();
        let a = m.guarded(|m| m.place(Coord::new(3, 3), 1u8)).unwrap();
        let err = m.guarded(|m| m.send(&a, Coord::new(0, 4))).unwrap_err();
        assert_eq!(err, SpatialError::OutOfBounds { loc: Coord::new(0, 4), extent });
    }

    #[test]
    fn guard_mem_cap_is_a_hard_cap() {
        let mut m = Machine::new();
        m.enable_guard(ModelGuard::new().mem_cap(2));
        let _a = m.guarded(|m| m.place(Coord::ORIGIN, 1u8)).unwrap();
        let _b = m.guarded(|m| m.place(Coord::ORIGIN, 2u8)).unwrap();
        let err = m.guarded(|m| m.place(Coord::ORIGIN, 3u8)).unwrap_err();
        assert_eq!(err, SpatialError::MemoryExceeded { loc: Coord::ORIGIN, resident: 2, cap: 2 });
    }

    #[test]
    fn guard_energy_budget_trips_on_the_crossing_send() {
        let mut m = Machine::new();
        m.enable_guard(ModelGuard::new().max_energy(5));
        let a = m.place(Coord::ORIGIN, 1u8);
        let b = m.guarded(|m| m.send(&a, Coord::new(0, 4))).expect("within budget");
        let err = m.guarded(|m| m.send(&b, Coord::new(0, 8))).unwrap_err();
        assert_eq!(
            err,
            SpatialError::BudgetExceeded {
                metric: crate::BudgetMetric::Energy,
                used: 8,
                budget: 5
            }
        );
    }

    #[test]
    fn guarded_converts_latched_violations_into_errors() {
        let mut m = Machine::new();
        m.enable_guard(ModelGuard::new().max_messages(1));
        let res: Result<(), SpatialError> = m.guarded(|m| {
            let a = m.place(Coord::ORIGIN, 1u8);
            let b = m.send(&a, Coord::new(0, 1));
            let _ = m.send(&b, Coord::new(0, 2)); // second message: over budget
        });
        assert!(matches!(res, Err(SpatialError::BudgetExceeded { .. })));
        // A pre-latched violation short-circuits subsequent guarded calls.
        assert!(m.guarded(|_| ()).is_err());
        m.take_violation();
        assert!(m.guarded(|_| ()).is_ok());
    }

    #[test]
    fn fault_costs_are_bit_deterministic_per_seed() {
        let run = |attempt: u32| {
            let mut m = Machine::new();
            let plan = FaultPlan::builder(42).dead_row(2).degraded_row(5).flaky(0.3).build();
            m.enable_faults(plan.for_attempt(attempt));
            let mut v = m.place(Coord::ORIGIN, 0i64);
            for i in 1..32 {
                v = m.send_owned(v, Coord::new(i % 7, i % 5));
            }
            (m.report(), m.fault_hits(), m.detour_energy())
        };
        assert_eq!(run(0), run(0));
        assert_eq!(run(3), run(3));
        let ((c0, h0, _), (c1, h1, _)) = (run(0), run(1));
        assert_eq!(c0, c1, "attempt salt only re-rolls corruption, not routes");
        assert_ne!(h0, h1, "expected different corruption draws across attempts");
    }

    #[test]
    fn tripped_token_latches_cancelled_when_guarded_returns() {
        let mut m = Machine::new();
        let token = CancelToken::new();
        m.set_cancel_token(token.clone());
        let a = m.guarded(|m| m.place(Coord::ORIGIN, 1u8)).expect("live token: placement succeeds");
        let b = m.guarded(|m| m.send(&a, Coord::new(0, 1))).expect("live token: send succeeds");
        token.cancel();
        // The send still happens; the latch is what stops a guarded caller.
        let err = m.guarded(|m| m.send(&b, Coord::new(0, 2))).unwrap_err();
        assert_eq!(err, SpatialError::Cancelled);
        assert_eq!(m.messages(), 2);
        m.take_violation();
        let err = m.guarded(|m| m.place(Coord::new(5, 5), 2u8)).unwrap_err();
        assert_eq!(err, SpatialError::Cancelled);
    }

    #[test]
    fn token_and_empty_fault_plan_leave_the_machine_bare() {
        let mut m = Machine::new();
        m.enable_faults(FaultPlan::builder(7).build());
        assert!(m.is_bare(), "an empty plan observes nothing");
        m.set_cancel_token(CancelToken::new());
        assert!(m.is_bare(), "a token is read by guarded, not per message");
        m.enable_faults(FaultPlan::builder(7).flaky(0.001).build());
        assert!(!m.is_bare(), "a plan that injects faults is an instrument");
        m.enable_faults(FaultPlan::builder(7).build().for_attempt(3));
        assert!(m.is_bare(), "an empty plan replaces the armed one");
    }

    #[test]
    fn require_trace_reports_instead_of_panicking() {
        let m = Machine::new();
        assert!(matches!(m.require_trace(), Err(SpatialError::InstrumentationDisabled { .. })));
        let mut m = Machine::new();
        m.enable_trace(4);
        assert!(m.require_trace().is_ok());
    }

    #[test]
    fn send_batch_matches_per_message_costs_and_skips_self_messages() {
        // The batched fast path must charge exactly what a move_to loop
        // charges, including the self-message skip.
        let pairs = |m: &mut Machine| {
            (0..32)
                .map(|i| {
                    let t = m.place(Coord::new(i % 5, i % 7), i);
                    (t, Coord::new(i % 7, i % 5)) // some pairs are self-moves
                })
                .collect::<Vec<_>>()
        };
        let mut a = Machine::new();
        let pa = pairs(&mut a);
        let batched = a.send_batch(pa);
        let mut b = Machine::new();
        let pb = pairs(&mut b);
        let looped: Vec<_> = pb.into_iter().map(|(t, dst)| b.move_to(t, dst)).collect();
        assert_eq!(a.report(), b.report());
        for (x, y) in batched.iter().zip(&looped) {
            assert_eq!((x.value(), x.loc(), x.path()), (y.value(), y.loc(), y.path()));
        }
        assert!(a.messages() > 0 && a.messages() < 32, "some self-moves must be skipped");
    }

    #[test]
    fn send_batch_under_instrumentation_matches_move_to() {
        // With a meter + trace active the batch must delegate so instruments
        // observe the identical event stream.
        let run = |batch: bool| {
            let mut m = Machine::new();
            m.enable_memory_meter();
            m.enable_trace(64);
            let items: Vec<_> =
                (0..8).map(|i| (m.place(Coord::new(0, i), i), Coord::new(1, i))).collect();
            let out = if batch {
                m.send_batch(items)
            } else {
                items.into_iter().map(|(t, dst)| m.move_to(t, dst)).collect()
            };
            let records = m.trace().unwrap().records().to_vec();
            let resident: Vec<u32> =
                (0..8).map(|i| m.memory().unwrap().resident(Coord::new(1, i))).collect();
            (m.report(), records, resident, out.len())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn send_batch_copy_matches_send_including_zero_length_messages() {
        let mut a = Machine::new();
        let t0 = a.place(Coord::ORIGIN, 1u8);
        let t1 = a.place(Coord::new(2, 2), 2u8);
        let batched = a.send_batch_copy(&[
            (&t0, Coord::new(0, 3)),
            (&t1, Coord::new(2, 2)), // copy-to-self still charges a message
        ]);
        let mut b = Machine::new();
        let s0 = b.place(Coord::ORIGIN, 1u8);
        let s1 = b.place(Coord::new(2, 2), 2u8);
        let l0 = b.send(&s0, Coord::new(0, 3));
        let l1 = b.send(&s1, Coord::new(2, 2));
        assert_eq!(a.report(), b.report());
        assert_eq!(a.messages(), 2);
        assert_eq!(batched[0].path(), l0.path());
        assert_eq!(batched[1].path(), l1.path());
    }

    #[test]
    fn move_within_cap_at_same_pe_is_not_a_violation() {
        let mut m = Machine::new();
        m.enable_guard(ModelGuard::new().mem_cap(1));
        let a = m.guarded(|m| m.place(Coord::ORIGIN, 1u8)).unwrap();
        // A move frees the source before storing at the destination, so a
        // full PE can still forward its word.
        let b = m.guarded(|m| m.send_owned(a, Coord::new(0, 1))).unwrap();
        assert_eq!(m.memory().unwrap().resident(Coord::ORIGIN), 0);
        let _ = b;
    }
}
