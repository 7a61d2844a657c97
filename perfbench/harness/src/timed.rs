//! Thin timing wrappers around the program's public traits: the substrate
//! (`CapacityQuery` / `Speculate` / `Snapshotable`), the on-line policy
//! (`OnlinePolicy`) and the job source (`JobSource`). Each forwards every
//! call unchanged, inside a span.

use crate::span::{span, Layer};
use resa_core::prelude::*;
use resa_sim::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

static FRESH_ENDPOINTS: AtomicU64 = AtomicU64::new(0);
static LAST_BREAKPOINTS: AtomicU64 = AtomicU64::new(0);
static RESERVE_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Substrate counters gathered by [`Timed`] since the last [`reset`].
pub struct SubstrateCounts {
    /// Reserves that added at least one breakpoint.
    pub fresh_endpoints: u64,
    /// `AvailabilityTimeline::breakpoints()` after the last mutation.
    pub breakpoints_end: u64,
    /// Every reserve's duration, in call order.
    pub reserve_ns: Vec<u64>,
}

pub fn reset() {
    FRESH_ENDPOINTS.store(0, Relaxed);
    LAST_BREAKPOINTS.store(0, Relaxed);
    RESERVE_NS.lock().expect("reserve log lock").clear();
}

pub fn counts() -> SubstrateCounts {
    SubstrateCounts {
        fresh_endpoints: FRESH_ENDPOINTS.load(Relaxed),
        breakpoints_end: LAST_BREAKPOINTS.load(Relaxed),
        reserve_ns: RESERVE_NS.lock().expect("reserve log lock").clone(),
    }
}

/// The shipped timeline substrate, every call timed.
pub struct Timed(pub AvailabilityTimeline);

impl Timed {
    fn note_breakpoints(&self) {
        LAST_BREAKPOINTS.store(self.0.breakpoints() as u64, Relaxed);
    }
}

impl CapacityQuery for Timed {
    fn base(&self) -> u32 {
        self.0.base()
    }

    fn capacity_at(&self, t: Time) -> u32 {
        span(Layer::OtherQuery, || self.0.capacity_at(t))
    }

    fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        span(Layer::MinCapacity, || self.0.min_capacity_in(start, dur))
    }

    fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        span(Layer::EarliestFit, || {
            self.0.earliest_fit(width, dur, not_before)
        })
    }

    fn next_change_after(&self, t: Time) -> Option<Time> {
        span(Layer::OtherQuery, || self.0.next_change_after(t))
    }

    fn spare_capacity_until(&self, now: Time, horizon: Time) -> u32 {
        span(Layer::MinCapacity, || {
            self.0.spare_capacity_until(now, horizon)
        })
    }

    fn capacity_profile_in(&self, start: Time, end: Time, out: &mut Vec<(Time, u32)>) {
        span(Layer::OtherQuery, || {
            self.0.capacity_profile_in(start, end, out)
        })
    }

    fn retire_before(&mut self, t: Time) {
        span(Layer::Retire, || self.0.retire_before(t));
        self.note_breakpoints();
    }

    fn reserve(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        let before = self.0.breakpoints();
        let clock = Instant::now();
        let out = span(Layer::Reserve, || self.0.reserve(start, dur, width));
        let ns = clock.elapsed().as_nanos() as u64;
        RESERVE_NS.lock().expect("reserve log lock").push(ns);
        if self.0.breakpoints() > before {
            FRESH_ENDPOINTS.fetch_add(1, Relaxed);
        }
        self.note_breakpoints();
        out
    }

    fn release(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        let out = span(Layer::Release, || self.0.release(start, dur, width));
        self.note_breakpoints();
        out
    }
}

impl Speculate for Timed {
    /// The timeline's own speculation (checkpoint, probe, rollback), with
    /// the probe's substrate calls nested as child spans.
    fn speculate<T>(&mut self, probe: impl FnOnce(&mut Self) -> T) -> T {
        span(Layer::Speculate, || {
            let mark = self.0.checkpoint();
            let out = probe(self);
            self.0.rollback_to(mark);
            out
        })
    }
}

impl Snapshotable for Timed {
    fn freeze(&self, generation: u64) -> TimelineSnapshot {
        span(Layer::Freeze, || self.0.freeze(generation))
    }
}

/// An on-line policy with every decision timed.
pub struct TimedPolicy<P>(pub P);

impl<P: OnlinePolicy> OnlinePolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        queue: &WaitingJobs<'_>,
        profile: &C,
        scratch: &mut DecisionScratch,
        out: &mut Vec<JobId>,
    ) {
        span(Layer::Decide, || {
            self.0.decide(now, queue, profile, scratch, out)
        })
    }
}

/// A job source with every pull timed (parsing, and inflating when the
/// trace is gzipped).
pub struct TimedSource<S>(pub S);

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_job(&mut self) -> Option<Job> {
        span(Layer::Source, || self.0.next_job())
    }
}
