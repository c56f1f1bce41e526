//! Timing shims: a pass-through [`KeystreamOracle`] that clocks every
//! call into the layer below it.
//!
//! The program's oracle layers (device, container patch-seal, partial
//! reconfiguration) are stacked behind the public trait, so the
//! benchmark rebuilds the stack itself and puts one [`Timed`] above
//! each layer. The time a layer spends on its own is the time in the
//! shim above it minus the time in the shim below it.
//!
//! A shim over [`Stamps`] instead records when each call crossed the
//! boundary, which cuts an untraced session into stages (see
//! [`crate::floor`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use bitmod::{KeystreamOracle, OracleError};
use bitstream::{Bitstream, PartialBitstream};

/// Accumulated host time, calls and loads of one layer boundary.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: AtomicU64,
    calls: AtomicU64,
    loads: AtomicU64,
}

/// A snapshot of a [`LayerClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockReading {
    /// Host nanoseconds spent below the boundary.
    pub ns: u64,
    /// Calls that shipped at least one load across the boundary.
    pub calls: u64,
    /// Loads (bitstreams or partial streams) shipped across it.
    pub loads: u64,
}

impl ClockReading {
    /// The reading accumulated since `earlier`.
    #[must_use]
    pub fn since(self, earlier: ClockReading) -> ClockReading {
        ClockReading {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
            loads: self.loads - earlier.loads,
        }
    }
}

/// What a [`Timed`] shim does around each call it forwards.
pub trait Boundary {
    /// Runs `f`, a call that ships `loads` loads across the boundary.
    fn time<R>(&self, loads: usize, f: impl FnOnce() -> R) -> R;
}

impl LayerClock {
    /// The current totals.
    #[must_use]
    pub fn read(&self) -> ClockReading {
        ClockReading {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
        }
    }
}

impl Boundary for LayerClock {
    fn time<R>(&self, loads: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        if loads > 0 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.loads.fetch_add(loads as u64, Ordering::Relaxed);
        }
        out
    }
}

/// The host instants at which calls entered and left a boundary, in
/// order: two per call.
#[derive(Debug, Default)]
pub struct Stamps(Mutex<Vec<Instant>>);

impl Stamps {
    /// The instants recorded since the last take.
    #[must_use]
    pub fn take(&self) -> Vec<Instant> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn stamp(&self) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(Instant::now());
    }
}

impl Boundary for Stamps {
    fn time<R>(&self, _loads: usize, f: impl FnOnce() -> R) -> R {
        self.stamp();
        let out = f();
        self.stamp();
        out
    }
}

/// A pass-through oracle that clocks every call into `inner`.
///
/// With `partial_port` false the shim reports no partial-reconfiguration
/// port, which turns the program's own delta layer above it into a
/// pass-through: the benchmark then runs its own [`bitmod::PrOracle`]
/// below the shim, where the forge can be timed.
pub struct Timed<'a, C: Boundary = LayerClock> {
    inner: &'a dyn KeystreamOracle,
    clock: &'a C,
    partial_port: bool,
}

impl<'a, C: Boundary> Timed<'a, C> {
    /// Clocks `inner`, forwarding its partial-reconfiguration port.
    #[must_use]
    pub fn new(inner: &'a dyn KeystreamOracle, clock: &'a C) -> Self {
        Self { inner, clock, partial_port: true }
    }

    /// Clocks `inner` and hides its partial-reconfiguration port.
    #[must_use]
    pub fn hiding_partial_port(inner: &'a dyn KeystreamOracle, clock: &'a C) -> Self {
        Self { inner, clock, partial_port: false }
    }
}

impl<C: Boundary> KeystreamOracle for Timed<'_, C> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        self.clock.time(1, || self.inner.keystream(bitstream, words))
    }

    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.clock.time(bitstreams.len(), || self.inner.keystream_batch(bitstreams, words))
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        self.inner.restore_state(state)
    }

    fn fault_planning(&self) -> bool {
        self.inner.fault_planning()
    }

    fn plan_read(&self, ahead: u64, words: usize) -> Option<fpga_sim::ReadPlan> {
        self.clock.time(0, || self.inner.plan_read(ahead, words))
    }

    fn commit_reads(&self, plans: &[fpga_sim::ReadPlan]) {
        self.clock.time(0, || self.inner.commit_reads(plans));
    }

    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.clock.time(bitstreams.len(), || self.inner.keystream_batch_clean(bitstreams, words))
    }

    fn resolve_plan(
        &self,
        plan: &fpga_sim::ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        self.clock.time(0, || self.inner.resolve_plan(plan, clean, want))
    }

    fn partial_capable(&self) -> bool {
        self.partial_port && self.inner.partial_capable()
    }

    fn keystream_partial(
        &self,
        partial: &PartialBitstream,
        words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        self.clock.time(1, || self.inner.keystream_partial(partial, words))
    }

    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.clock
            .time(partials.len(), || self.inner.keystream_partial_batch_clean(partials, words))
    }
}
