//! Spans recorded from outside the program: each call the harness makes
//! into a crate (or a wrapper of a crate trait makes on the program's
//! behalf) is timed, and a layer's *self* time is its span minus the spans
//! nested inside it on the same thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The layers a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Decode,
    ApplySubmit,
    ApplyReserve,
    ApplyCancel,
    ApplyAdvance,
    ApplyInject,
    Publish,
    SnapshotQuery,
    JournalAppend,
    JournalSync,
    JournalCompact,
    Stream,
    Decide,
    Source,
    Prescan,
    ParseFull,
    Overlay,
    Lsrc,
    Validate,
    Reserve,
    Release,
    EarliestFit,
    MinCapacity,
    OtherQuery,
    Retire,
    Speculate,
    Freeze,
}

pub const LAYERS: usize = Layer::Freeze as usize + 1;

struct Acc {
    self_ns: AtomicU64,
    total_ns: AtomicU64,
    calls: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Acc = Acc {
    self_ns: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    calls: AtomicU64::new(0),
};

static ACC: [Acc; LAYERS] = [ZERO; LAYERS];
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Time covered by child spans of each open span on this thread.
    static CHILDREN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off. Off, [`span`] is a plain call, which is the
/// baseline `trace.overhead_frac` compares against.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Clear every accumulator.
pub fn reset() {
    for acc in &ACC {
        acc.self_ns.store(0, Relaxed);
        acc.total_ns.store(0, Relaxed);
        acc.calls.store(0, Relaxed);
    }
}

/// Run `f` as a span of `layer`.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Relaxed) {
        return f();
    }
    CHILDREN.with(|c| c.borrow_mut().push(0));
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    let children = CHILDREN.with(|c| {
        let mut stack = c.borrow_mut();
        let children = stack.pop().expect("span stack is balanced");
        if let Some(parent) = stack.last_mut() {
            *parent += dur;
        }
        children
    });
    let acc = &ACC[layer as usize];
    acc.self_ns.fetch_add(dur.saturating_sub(children), Relaxed);
    acc.total_ns.fetch_add(dur, Relaxed);
    acc.calls.fetch_add(1, Relaxed);
    out
}

/// Accumulated `(self_ns, total_ns, calls)` of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub self_ns: u64,
    pub total_ns: u64,
    pub calls: u64,
}

impl Totals {
    /// Mean span length in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

pub fn totals(layer: Layer) -> Totals {
    let acc = &ACC[layer as usize];
    Totals {
        self_ns: acc.self_ns.load(Relaxed),
        total_ns: acc.total_ns.load(Relaxed),
        calls: acc.calls.load(Relaxed),
    }
}

/// Sum of every layer's self time: the part of the driving loops the spans
/// account for.
pub fn self_ns_sum() -> u64 {
    ACC.iter().map(|a| a.self_ns.load(Relaxed)).sum()
}
