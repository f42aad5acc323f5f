//! The pipeline event stream: [`Event`], the [`Probe`] sink trait, and the
//! statically-monomorphized no-op sink.

use std::fmt;

/// Why an instruction was forced to issue again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReissueKind {
    /// Memory-ordering violation (load issued ahead of a conflicting store).
    Memory,
    /// Redispatch changed a source register name.
    Register,
    /// A producer completed after the consumer issued under a stale value.
    Value,
}

impl ReissueKind {
    /// Short lowercase label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReissueKind::Memory => "mem",
            ReissueKind::Register => "reg",
            ReissueKind::Value => "value",
        }
    }
}

/// One pipeline event. Program counters are carried as raw `u32` words so
/// this crate stays dependency-free; they are the same values the ISA
/// crate's `Pc` wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// An instruction was fetched at `pc`.
    Fetch {
        /// Fetch program counter.
        pc: u32,
    },
    /// A fetched instruction was renamed and entered the window.
    Dispatch {
        /// Program counter of the dispatched instruction.
        pc: u32,
    },
    /// An instruction was selected and began execution.
    Issue {
        /// Program counter of the issuing instruction.
        pc: u32,
        /// True when this is not the instruction's first issue.
        reissue: bool,
    },
    /// An instruction finished execution and wrote back.
    Complete {
        /// Program counter of the completing instruction.
        pc: u32,
    },
    /// An instruction retired (left the window architecturally).
    Retire {
        /// Program counter of the retiring instruction.
        pc: u32,
        /// Total times it issued (1 = never reissued).
        issues: u32,
    },
    /// An instruction was squashed out of the window.
    Squash {
        /// Program counter of the squashed instruction.
        pc: u32,
    },
    /// A misprediction recovery began (the span opens).
    RestartBegin {
        /// Program counter of the mispredicted branch.
        branch_pc: u32,
        /// Corrected next PC.
        redirect_pc: u32,
        /// Whether a reconvergent point was found in the window.
        reconverged: bool,
        /// Incorrect control-dependent instructions selectively removed
        /// (the distance to reconvergence along the squashed path).
        removed: u32,
    },
    /// A restart sequence finished filling its gap (the span closes).
    RestartEnd {
        /// Program counter of the recovering branch.
        branch_pc: u32,
        /// Correct-path instructions inserted by the restart.
        inserted: u64,
        /// Cycles the restart sequence occupied the sequencer.
        cycles: u64,
    },
    /// A control-independent instruction was walked by a redispatch
    /// sequence.
    Redispatch {
        /// Program counter of the redispatched instruction.
        pc: u32,
        /// Whether redispatch changed one of its source register names.
        renamed: bool,
    },
    /// An issued instruction was invalidated and will issue again.
    Reissue {
        /// Program counter of the invalidated instruction.
        pc: u32,
        /// Invalidation cause.
        kind: ReissueKind,
    },
    /// End-of-cycle marker carrying window occupancy.
    CycleEnd {
        /// Instructions resident in the window this cycle.
        occupancy: u32,
    },
}

/// Discriminant-only view of [`Event`] for counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// [`Event::Fetch`].
    Fetch,
    /// [`Event::Dispatch`].
    Dispatch,
    /// [`Event::Issue`].
    Issue,
    /// [`Event::Complete`].
    Complete,
    /// [`Event::Retire`].
    Retire,
    /// [`Event::Squash`].
    Squash,
    /// [`Event::RestartBegin`].
    RestartBegin,
    /// [`Event::RestartEnd`].
    RestartEnd,
    /// [`Event::Redispatch`].
    Redispatch,
    /// [`Event::Reissue`].
    Reissue,
    /// [`Event::CycleEnd`].
    CycleEnd,
}

impl EventKind {
    /// Every kind, in declaration order (the indexing order of
    /// [`crate::EventCounters`]).
    pub const ALL: [EventKind; 11] = [
        EventKind::Fetch,
        EventKind::Dispatch,
        EventKind::Issue,
        EventKind::Complete,
        EventKind::Retire,
        EventKind::Squash,
        EventKind::RestartBegin,
        EventKind::RestartEnd,
        EventKind::Redispatch,
        EventKind::Reissue,
        EventKind::CycleEnd,
    ];

    /// Stable snake_case name (used as the JSON metric key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fetch => "fetch",
            EventKind::Dispatch => "dispatch",
            EventKind::Issue => "issue",
            EventKind::Complete => "complete",
            EventKind::Retire => "retire",
            EventKind::Squash => "squash",
            EventKind::RestartBegin => "restart_begin",
            EventKind::RestartEnd => "restart_end",
            EventKind::Redispatch => "redispatch",
            EventKind::Reissue => "reissue",
            EventKind::CycleEnd => "cycle_end",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl Event {
    /// The event's kind.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Fetch { .. } => EventKind::Fetch,
            Event::Dispatch { .. } => EventKind::Dispatch,
            Event::Issue { .. } => EventKind::Issue,
            Event::Complete { .. } => EventKind::Complete,
            Event::Retire { .. } => EventKind::Retire,
            Event::Squash { .. } => EventKind::Squash,
            Event::RestartBegin { .. } => EventKind::RestartBegin,
            Event::RestartEnd { .. } => EventKind::RestartEnd,
            Event::Redispatch { .. } => EventKind::Redispatch,
            Event::Reissue { .. } => EventKind::Reissue,
            Event::CycleEnd { .. } => EventKind::CycleEnd,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Fetch { pc } => write!(f, "fetch pc={pc}"),
            Event::Dispatch { pc } => write!(f, "dispatch pc={pc}"),
            Event::Issue { pc, reissue } => {
                write!(f, "issue pc={pc}{}", if reissue { " (reissue)" } else { "" })
            }
            Event::Complete { pc } => write!(f, "complete pc={pc}"),
            Event::Retire { pc, issues } => write!(f, "retire pc={pc} issues={issues}"),
            Event::Squash { pc } => write!(f, "squash pc={pc}"),
            Event::RestartBegin { branch_pc, redirect_pc, reconverged, removed } => write!(
                f,
                "restart-begin branch={branch_pc} redirect={redirect_pc} reconverged={reconverged} removed={removed}"
            ),
            Event::RestartEnd { branch_pc, inserted, cycles } => {
                write!(f, "restart-end branch={branch_pc} inserted={inserted} cycles={cycles}")
            }
            Event::Redispatch { pc, renamed } => {
                write!(f, "redispatch pc={pc} renamed={renamed}")
            }
            Event::Reissue { pc, kind } => write!(f, "reissue pc={pc} cause={}", kind.name()),
            Event::CycleEnd { occupancy } => write!(f, "cycle-end occupancy={occupancy}"),
        }
    }
}

/// A sink for pipeline events.
///
/// The pipeline is generic over its probe and monomorphized, so with the
/// default [`NoopProbe`] every `record` call inlines to nothing — the hot
/// path pays no branch, no indirect call, and no allocation when
/// observability is disabled. The `throughput` binary's probe-overhead
/// table times the live sinks against a plain run, which uses this default.
pub trait Probe {
    /// Observe one event at `cycle`. The default implementation discards it.
    #[inline(always)]
    fn record(&mut self, cycle: u64, event: Event) {
        let _ = (cycle, event);
    }

    /// Render whatever post-mortem state the probe holds (the flight
    /// recorder's tail). `None` when the probe keeps no replayable state.
    fn dump(&self) -> Option<String> {
        None
    }
}

/// The default sink: discards every event at zero cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// Probes compose: a pair fans every event out to both members.
impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline(always)]
    fn record(&mut self, cycle: u64, event: Event) {
        self.0.record(cycle, event);
        self.1.record(cycle, event);
    }

    fn dump(&self) -> Option<String> {
        match (self.0.dump(), self.1.dump()) {
            (Some(a), Some(b)) => Some(format!("{a}\n{b}")),
            (a, b) => a.or(b),
        }
    }
}

/// Mutable references forward, so a caller can keep ownership of its probe
/// while the pipeline drives it.
impl<P: Probe> Probe for &mut P {
    #[inline(always)]
    fn record(&mut self, cycle: u64, event: Event) {
        (**self).record(cycle, event);
    }

    fn dump(&self) -> Option<String> {
        (**self).dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_events_and_names_are_stable() {
        let events = [
            Event::Fetch { pc: 1 },
            Event::Dispatch { pc: 1 },
            Event::Issue {
                pc: 1,
                reissue: false,
            },
            Event::Complete { pc: 1 },
            Event::Retire { pc: 1, issues: 1 },
            Event::Squash { pc: 1 },
            Event::RestartBegin {
                branch_pc: 1,
                redirect_pc: 2,
                reconverged: true,
                removed: 3,
            },
            Event::RestartEnd {
                branch_pc: 1,
                inserted: 4,
                cycles: 5,
            },
            Event::Redispatch {
                pc: 1,
                renamed: true,
            },
            Event::Reissue {
                pc: 1,
                kind: ReissueKind::Memory,
            },
            Event::CycleEnd { occupancy: 9 },
        ];
        for (e, k) in events.iter().zip(EventKind::ALL) {
            assert_eq!(e.kind(), k);
            assert!(!e.to_string().is_empty());
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn noop_probe_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
        let mut p = NoopProbe;
        p.record(1, Event::Fetch { pc: 0 });
        assert!(p.dump().is_none());
    }

    #[test]
    fn pair_probe_fans_out() {
        #[derive(Default)]
        struct Count(u64);
        impl Probe for Count {
            fn record(&mut self, _c: u64, _e: Event) {
                self.0 += 1;
            }
            fn dump(&self) -> Option<String> {
                Some(format!("count={}", self.0))
            }
        }
        let mut pair = (Count::default(), Count::default());
        pair.record(1, Event::Fetch { pc: 0 });
        pair.record(2, Event::Squash { pc: 0 });
        assert_eq!(pair.0 .0, 2);
        assert_eq!(pair.1 .0, 2);
        assert_eq!(pair.dump().unwrap(), "count=2\ncount=2");
        let mut c = Count::default();
        let mut by_ref = &mut c;
        Probe::record(&mut by_ref, 1, Event::Fetch { pc: 0 });
        assert_eq!(Probe::dump(&&mut c).unwrap(), "count=1");
    }
}
