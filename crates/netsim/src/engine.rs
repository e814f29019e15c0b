//! The discrete-event simulation engine.
//!
//! Events carry a caller-defined payload; the harness pops them in time
//! order and dispatches.  Time never goes backwards.
//!
//! Since the timing-wheel PR, [`Engine`] *is* the hierarchical
//! timing-wheel scheduler from [`crate::sched`] — O(1) cache-friendly
//! slot filing over a slab arena, with batched slot delivery and O(1)
//! cancellation tokens.  The original `BinaryHeap`-based engine is kept
//! bit-compatible behind the same API as [`reference::Engine`]; the
//! `sched_props` suite and the `engine` bench suite drive both through identical
//! seeded schedule/cancel/run_until mixes and assert equal traces (and
//! a ≥2× wheel speedup at 64k pending events).
//!
//! For scenario-driven workloads, `run_until` dispatches events through
//! a handler under two guards — a time deadline and an event budget —
//! so a misbehaving scenario (e.g. a retransmit or duplication storm
//! that reschedules itself forever) terminates with an [`Overrun`]
//! diagnostic instead of looping forever.

use std::fmt;

use crate::Ns;

/// The default engine: the hierarchical timing wheel.
pub use crate::sched::Wheel as Engine;

/// Why a guarded run stopped before its event queue drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overrun {
    /// The next pending event lies beyond the deadline.
    Deadline {
        deadline: Ns,
        now: Ns,
        pending: usize,
        processed: u64,
    },
    /// The run dispatched its entire event budget without draining.
    EventBudget {
        budget: u64,
        now: Ns,
        pending: usize,
    },
}

impl fmt::Display for Overrun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Overrun::Deadline { deadline, now, pending, processed } => write!(
                f,
                "scenario overran its deadline: {processed} events processed, clock at \
                 {now} ns with {pending} event(s) still pending past deadline {deadline} ns"
            ),
            Overrun::EventBudget { budget, now, pending } => write!(
                f,
                "scenario exhausted its event budget of {budget} events at {now} ns \
                 with {pending} event(s) still pending (self-perpetuating schedule?)"
            ),
        }
    }
}

impl std::error::Error for Overrun {}

pub mod reference {
    //! The seed `BinaryHeap` engine, kept as the semantic reference the
    //! timing wheel is validated (and benchmarked) against.  Every pop
    //! is an O(log n) comparison-based sift; cancellation tombstones
    //! events in a side set and skips them on pop, which is exactly the
    //! delivered-and-ignored cost model the wheel's slab tombstones
    //! replace.

    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    use super::Overrun;
    use crate::sched::{drive, EventQueue};
    use crate::Ns;

    /// Cancellation handle for the reference engine: the event's
    /// sequence number.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RefToken(u64);

    /// The event queue plus the simulation clock.
    #[derive(Debug)]
    pub struct Engine<E> {
        queue: BinaryHeap<Reverse<(Ns, u64, EventSlot<E>)>>,
        now: Ns,
        seq: u64,
        processed: u64,
        /// Seqs of armed cancellable events (membership only — never
        /// iterated, so determinism is unaffected).
        cancellable: HashSet<u64>,
        /// Seqs tombstoned by `cancel`, skipped on pop.
        cancelled: HashSet<u64>,
    }

    /// Wrapper so payloads don't need Ord.
    #[derive(Debug)]
    struct EventSlot<E>(E);

    impl<E> PartialEq for EventSlot<E> {
        fn eq(&self, _: &Self) -> bool {
            true
        }
    }
    impl<E> Eq for EventSlot<E> {}
    impl<E> PartialOrd for EventSlot<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for EventSlot<E> {
        fn cmp(&self, _: &Self) -> std::cmp::Ordering {
            std::cmp::Ordering::Equal
        }
    }

    impl<E> Default for Engine<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> Engine<E> {
        pub fn new() -> Self {
            Engine {
                queue: BinaryHeap::new(),
                now: 0,
                seq: 0,
                processed: 0,
                cancellable: HashSet::new(),
                cancelled: HashSet::new(),
            }
        }

        /// Current simulation time.
        pub fn now(&self) -> Ns {
            self.now
        }

        fn push(&mut self, at: Ns, payload: E) -> u64 {
            let at = at.max(self.now);
            let seq = self.seq;
            self.queue.push(Reverse((at, seq, EventSlot(payload))));
            self.seq += 1;
            seq
        }

        /// Schedule `payload` at absolute time `at` (clamped to now).
        pub fn schedule(&mut self, at: Ns, payload: E) {
            self.push(at, payload);
        }

        /// Schedule `payload` `delay` after now, saturating at
        /// `Ns::MAX` instead of wrapping.
        pub fn schedule_in(&mut self, delay: Ns, payload: E) {
            self.schedule(self.now.saturating_add(delay), payload);
        }

        /// Schedule with a cancellation handle.
        pub fn schedule_cancellable(&mut self, at: Ns, payload: E) -> RefToken {
            let seq = self.push(at, payload);
            self.cancellable.insert(seq);
            RefToken(seq)
        }

        /// Tombstone a pending event.  Returns `false` if it was
        /// already delivered or cancelled.
        pub fn cancel(&mut self, token: RefToken) -> bool {
            if self.cancellable.remove(&token.0) {
                self.cancelled.insert(token.0);
                true
            } else {
                false
            }
        }

        /// Drop tombstoned events sitting at the head of the queue.
        fn purge(&mut self) {
            while let Some(Reverse((_, seq, _))) = self.queue.peek() {
                if self.cancelled.contains(seq) {
                    let Some(Reverse((_, seq, _))) = self.queue.pop() else { unreachable!() };
                    self.cancelled.remove(&seq);
                } else {
                    return;
                }
            }
        }

        /// Pop the next event, advancing the clock to its time.
        pub fn pop(&mut self) -> Option<(Ns, E)> {
            self.purge();
            let Reverse((t, seq, EventSlot(e))) = self.queue.pop()?;
            self.cancellable.remove(&seq);
            self.now = t;
            self.processed += 1;
            Some((t, e))
        }

        /// Total events popped over the engine's lifetime.
        pub fn processed(&self) -> u64 {
            self.processed
        }

        /// Time of the next pending event, if any.
        pub fn peek_time(&mut self) -> Option<Ns> {
            self.purge();
            self.queue.peek().map(|Reverse((t, _, _))| *t)
        }

        /// Dispatch events through `handler` until the queue drains,
        /// guarded by `deadline` (simulation time) and `max_events`
        /// (dispatch budget for this call).  The handler may schedule
        /// new events through the engine reference it is passed.
        ///
        /// Returns the number of events dispatched on a clean drain, or
        /// an [`Overrun`] diagnostic if the next event would pass the
        /// deadline or the budget is exhausted with events still
        /// pending — the misbehaving-scenario backstop.
        pub fn run_until<F>(&mut self, deadline: Ns, max_events: u64, handler: F) -> Result<u64, Overrun>
        where
            F: FnMut(&mut Self, Ns, E),
        {
            drive(self, deadline, max_events, handler)
        }

        /// Advance the clock without an event (e.g. processing time).
        pub fn advance(&mut self, delta: Ns) {
            self.now += delta;
        }

        /// Live (uncancelled) event count.
        pub fn pending(&self) -> usize {
            self.queue.len() - self.cancelled.len()
        }

        pub fn is_idle(&self) -> bool {
            self.pending() == 0
        }
    }

    impl<E> EventQueue<E> for Engine<E> {
        type Token = RefToken;

        fn now(&self) -> Ns {
            Engine::now(self)
        }
        fn schedule(&mut self, at: Ns, payload: E) {
            Engine::schedule(self, at, payload)
        }
        fn schedule_in(&mut self, delay: Ns, payload: E) {
            Engine::schedule_in(self, delay, payload)
        }
        fn schedule_cancellable(&mut self, at: Ns, payload: E) -> RefToken {
            Engine::schedule_cancellable(self, at, payload)
        }
        fn cancel(&mut self, token: RefToken) -> bool {
            Engine::cancel(self, token)
        }
        fn pop(&mut self) -> Option<(Ns, E)> {
            Engine::pop(self)
        }
        fn peek_time(&mut self) -> Option<Ns> {
            Engine::peek_time(self)
        }
        fn pending(&self) -> usize {
            Engine::pending(self)
        }
        fn processed(&self) -> u64 {
            Engine::processed(self)
        }
        fn advance(&mut self, delta: Ns) {
            Engine::advance(self, delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_and_advances_clock() {
        let mut e = Engine::new();
        e.schedule(300, "c");
        e.schedule(100, "a");
        e.schedule(200, "b");
        assert_eq!(e.pop(), Some((100, "a")));
        assert_eq!(e.now(), 100);
        assert_eq!(e.pop(), Some((200, "b")));
        assert_eq!(e.pop(), Some((300, "c")));
        assert_eq!(e.pop(), None);
    }

    #[test]
    fn equal_times_fifo() {
        let mut e = Engine::new();
        e.schedule(5, 1);
        e.schedule(5, 2);
        assert_eq!(e.pop().unwrap().1, 1);
        assert_eq!(e.pop().unwrap().1, 2);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut e = Engine::new();
        e.schedule(100, "first");
        e.pop();
        e.schedule(50, "late");
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, 100, "no time travel");
    }

    #[test]
    fn schedule_in_saturates_instead_of_wrapping() {
        // Regression: `now + delay` used to wrap around and file the
        // event in the past (or panic in debug builds).
        let mut e = Engine::new();
        e.schedule(1_000, "tick");
        e.pop();
        e.schedule_in(Ns::MAX, "horizon");
        assert_eq!(e.pop(), Some((Ns::MAX, "horizon")));
        assert_eq!(e.now(), Ns::MAX);
    }

    #[test]
    fn reference_schedule_in_saturates_too() {
        let mut e = reference::Engine::new();
        e.schedule(1_000, "tick");
        e.pop();
        e.schedule_in(Ns::MAX, "horizon");
        assert_eq!(e.pop(), Some((Ns::MAX, "horizon")));
    }

    #[test]
    fn advance_moves_clock() {
        let mut e: Engine<()> = Engine::new();
        e.advance(42);
        assert_eq!(e.now(), 42);
    }

    #[test]
    fn run_until_drains_and_counts() {
        let mut e = Engine::new();
        e.schedule(10, 1u32);
        e.schedule(20, 2);
        let mut seen = Vec::new();
        let n = e
            .run_until(1_000, 100, |eng, t, v| {
                seen.push((t, v));
                if v == 1 {
                    eng.schedule_in(5, 3); // handler may schedule more
                }
            })
            .expect("well-behaved scenario drains");
        assert_eq!(n, 3);
        assert_eq!(seen, vec![(10, 1), (15, 3), (20, 2)]);
        assert_eq!(e.processed(), 3);
    }

    #[test]
    fn run_until_reports_deadline_overrun() {
        let mut e = Engine::new();
        e.schedule(10, "ok");
        e.schedule(500, "late");
        let err = e.run_until(100, 100, |_, _, _| {}).unwrap_err();
        match err {
            Overrun::Deadline { deadline, pending, processed, .. } => {
                assert_eq!(deadline, 100);
                assert_eq!(pending, 1);
                assert_eq!(processed, 1);
            }
            other => panic!("expected deadline overrun, got {other:?}"),
        }
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn run_until_stops_self_perpetuating_schedule() {
        // A storm that reschedules itself forever must terminate with a
        // budget diagnostic instead of looping.
        let mut e = Engine::new();
        e.schedule(0, ());
        let err = e
            .run_until(Ns::MAX, 1_000, |eng, _, ()| eng.schedule_in(1, ()))
            .unwrap_err();
        match err {
            Overrun::EventBudget { budget, pending, .. } => {
                assert_eq!(budget, 1_000);
                assert!(pending >= 1);
            }
            other => panic!("expected event-budget overrun, got {other:?}"),
        }
        assert!(err.to_string().contains("event budget"));
    }

    #[test]
    fn cancelled_events_are_never_delivered() {
        let mut e = Engine::new();
        e.schedule(10, 0u32);
        let tok = e.schedule_cancellable(20, 1);
        e.schedule(30, 2);
        assert!(e.cancel(tok));
        assert!(!e.cancel(tok), "double cancel must fail");
        assert_eq!(e.pending(), 2);
        let mut seen = Vec::new();
        let n = e.run_until(Ns::MAX, 100, |_, t, v| seen.push((t, v))).unwrap();
        assert_eq!(n, 2, "cancelled events must not consume budget");
        assert_eq!(seen, vec![(10, 0), (30, 2)]);
    }

    #[test]
    fn reference_cancellation_matches_wheel_contract() {
        let mut e = reference::Engine::new();
        e.schedule(10, 0u32);
        let tok = e.schedule_cancellable(20, 1);
        e.schedule(30, 2);
        assert!(e.cancel(tok));
        assert!(!e.cancel(tok), "double cancel must fail");
        assert_eq!(e.pending(), 2);
        let mut seen = Vec::new();
        let n = e.run_until(Ns::MAX, 100, |_, t, v| seen.push((t, v))).unwrap();
        assert_eq!(n, 2, "cancelled events must not consume budget");
        assert_eq!(seen, vec![(10, 0), (30, 2)]);
    }

    #[test]
    fn cancel_after_delivery_fails_on_both_engines() {
        let mut w = Engine::new();
        let tok = w.schedule_cancellable(5, "timer");
        assert_eq!(w.pop(), Some((5, "timer")));
        assert!(!w.cancel(tok));

        let mut h = reference::Engine::new();
        let tok = h.schedule_cancellable(5, "timer");
        assert_eq!(h.pop(), Some((5, "timer")));
        assert!(!h.cancel(tok));
    }
}
