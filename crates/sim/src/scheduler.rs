//! The discrete-event scheduler — our equivalent of the Scalable Simulation
//! Framework (SSF) kernel the paper builds on (§2.1).
//!
//! [`Sim`] is a cheaply cloneable handle to a single-threaded event queue.
//! Components hold a `Sim` and schedule closures; the run loop pops events in
//! `(time, seq)` order — `seq` being the insertion order, so events at one
//! instant run FIFO — advances the virtual clock, and executes them.
//! Executing an action never holds a borrow of the queue, so actions are free
//! to schedule (or cancel) further events.
//!
//! Actions sit in a slab of slots recycled through a free list, and the
//! queue is a monotone radix heap holding only `(key, slot)` pairs. A slot's
//! action is a boxed closure, or the one kernel action the run loop
//! dispatches itself: a CPU job's completion, carrying the bank's state and
//! the CPU index instead of a closure allocation per job. A cancel
//! drops the action at once and frees its slot; the queue entry left behind
//! is skipped when it surfaces, because its slot is empty or now belongs to
//! an event with a different `seq`.

use crate::event::{last_key_at, Action, EventId, Queued, RadixQueue, Slot};
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

#[derive(Default)]
struct Inner {
    queue: RadixQueue,
    slots: Vec<Slot>,
    /// Slots whose event ran or was cancelled, reused last-freed first.
    free: Vec<u32>,
    now: SimTime,
    /// Sequence number of the most recently scheduled event (the first is 1).
    last_seq: u64,
    executed: u64,
    /// When set, the run loop stops before executing any event later than this.
    horizon: Option<SimTime>,
    stop_requested: bool,
}

impl Inner {
    /// Events scheduled and neither executed nor cancelled yet.
    fn pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Pops the next live event no later than the horizon, freeing its slot.
    fn pop_live(&mut self) -> Option<(SimTime, Action)> {
        let limit = self.horizon.map_or(u128::MAX, last_key_at);
        loop {
            let e = self.queue.pop_at_most(limit)?;
            let slot = &mut self.slots[e.slot as usize];
            if slot.seq != e.seq {
                continue; // cancelled, and the slot has a new occupant
            }
            let Some(action) = slot.action.take() else { continue }; // cancelled
            self.free.push(e.slot);
            return Some((SimTime::from_nanos(e.at), action));
        }
    }
}

/// Handle to the discrete-event simulation kernel.
///
/// Clones share the same underlying queue and clock.
///
/// # Examples
///
/// ```
/// use dbsm_sim::{Sim, SimTime};
/// use std::time::Duration;
/// use std::rc::Rc;
/// use std::cell::Cell;
///
/// let sim = Sim::new();
/// let hits = Rc::new(Cell::new(0));
/// let h = hits.clone();
/// sim.schedule_in(Duration::from_millis(5), move || h.set(h.get() + 1));
/// sim.run();
/// assert_eq!(hits.get(), 1);
/// assert_eq!(sim.now(), SimTime::from_millis(5));
/// ```
#[derive(Clone, Default)]
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Sim::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.inner.borrow().executed
    }

    /// Number of events scheduled and neither executed nor cancelled yet.
    pub fn pending(&self) -> usize {
        self.inner.borrow().pending()
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time: scheduling
    /// into the past is precisely the bug class the paper's runtime guards
    /// against (§2.2), so it is rejected loudly rather than silently reordered.
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce() + 'static) -> EventId {
        self.schedule_action(at, Action::Boxed(Box::new(action)))
    }

    /// Schedules a kernel action at absolute time `at` (see
    /// [`schedule_at`](Sim::schedule_at) for the ordering and the panic).
    pub(crate) fn schedule_action(&self, at: SimTime, action: Action) -> EventId {
        let mut inner = self.inner.borrow_mut();
        assert!(
            at >= inner.now,
            "event scheduled in the simulation past: at={at} now={}",
            inner.now
        );
        inner.last_seq += 1;
        let seq = inner.last_seq;
        let occupant = Slot { seq, action: Some(action) };
        let slot = match inner.free.pop() {
            Some(slot) => {
                inner.slots[slot as usize] = occupant;
                slot
            }
            None => {
                inner.slots.push(occupant);
                u32::try_from(inner.slots.len() - 1).expect("over 2^32 pending events")
            }
        };
        inner.queue.push(Queued::new(at, seq, slot));
        EventId { seq, slot }
    }

    /// Schedules `action` to run after `delay` of simulated time.
    pub fn schedule_in(&self, delay: Duration, action: impl FnOnce() + 'static) -> EventId {
        let at = self.now() + delay;
        self.schedule_at(at, action)
    }

    /// Schedules `action` at the current instant, after all events already
    /// queued for this instant (FIFO within a timestamp).
    pub fn schedule_now(&self, action: impl FnOnce() + 'static) -> EventId {
        let at = self.now();
        self.schedule_at(at, action)
    }

    /// Cancels a pending event, dropping its action at once. Cancelling an
    /// already-executed, already-cancelled or unknown event is a no-op, which
    /// lets callers keep stale [`EventId`]s safely.
    pub fn cancel(&self, id: EventId) {
        let action = {
            let mut inner = self.inner.borrow_mut();
            let action = match inner.slots.get_mut(id.slot as usize) {
                Some(slot) if slot.seq == id.seq => slot.action.take(),
                _ => None,
            };
            if action.is_some() {
                inner.free.push(id.slot);
            }
            action
        };
        // Dropped outside the borrow: the captures' destructors may use the sim.
        drop(action);
    }

    /// Drops every pending event without running it, for tearing a model
    /// down: queued actions often hold handles on the components that own
    /// the simulation, a cycle that would otherwise keep them all alive.
    /// Stale [`EventId`]s stay safe to cancel.
    pub fn discard_pending(&self) {
        let slots = {
            let mut inner = self.inner.borrow_mut();
            inner.queue = RadixQueue::default();
            inner.free.clear();
            std::mem::take(&mut inner.slots)
        };
        // Dropped outside the borrow: the captures' destructors may use the sim.
        drop(slots);
    }

    /// Requests the run loop to stop after the currently executing event.
    pub fn stop(&self) {
        self.inner.borrow_mut().stop_requested = true;
    }

    /// Executes a single event, if any is pending. Returns `true` if an event
    /// ran, advancing the clock to its timestamp.
    pub fn step(&self) -> bool {
        let action = {
            let mut inner = self.inner.borrow_mut();
            let Some((at, action)) = inner.pop_live() else { return false };
            inner.now = at;
            inner.executed += 1;
            action
        };
        match action {
            Action::Boxed(f) => f(),
            Action::CpuDone(bank, cpu) => crate::cpu::complete(self, bank, cpu),
        }
        true
    }

    /// Runs until the event queue is exhausted or [`stop`](Sim::stop) is called.
    pub fn run(&self) {
        self.inner.borrow_mut().horizon = None;
        loop {
            if self.take_stop() || !self.step() {
                break;
            }
        }
    }

    /// Runs events with timestamps `<= until`, then sets the clock to `until`.
    ///
    /// Events scheduled beyond `until` stay queued, so simulations can be
    /// advanced window by window (used by the experiment runner to sample
    /// resource usage and by fault injection to act at precise instants).
    pub fn run_until(&self, until: SimTime) {
        self.inner.borrow_mut().horizon = Some(until);
        loop {
            if self.take_stop() || !self.step() {
                break;
            }
        }
        let mut inner = self.inner.borrow_mut();
        inner.horizon = None;
        if inner.now < until {
            inner.now = until;
        }
    }

    /// Runs for `window` of simulated time from the current instant.
    pub fn run_for(&self, window: Duration) {
        let until = self.now() + window;
        self.run_until(until);
    }

    fn take_stop(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        std::mem::take(&mut inner.stop_requested)
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Sim")
            .field("now", &inner.now)
            .field("pending", &inner.pending())
            .field("executed", &inner.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    type Log = Rc<RefCell<Vec<u32>>>;

    fn recorder() -> (Log, impl Fn(u32) -> Box<dyn FnOnce()>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mk = move |v: u32| {
            let l = l.clone();
            Box::new(move || l.borrow_mut().push(v)) as Box<dyn FnOnce()>
        };
        (log, mk)
    }

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule_at(SimTime::from_millis(3), mk(3));
        sim.schedule_at(SimTime::from_millis(1), mk(1));
        sim.schedule_at(SimTime::from_millis(2), mk(2));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn same_time_is_fifo() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        for v in 0..10 {
            sim.schedule_at(SimTime::from_millis(7), mk(v));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn actions_can_schedule_more_events() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        let s2 = sim.clone();
        sim.schedule_in(Duration::from_millis(1), move || {
            s2.schedule_in(Duration::from_millis(1), mk(42));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![42]);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn cancel_suppresses_execution() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        let id = sim.schedule_in(Duration::from_millis(1), mk(1));
        sim.schedule_in(Duration::from_millis(2), mk(2));
        sim.cancel(id);
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn cancel_unknown_is_noop() {
        let sim = Sim::new();
        sim.cancel(EventId::NONE);
        sim.cancel(EventId { seq: 999, slot: 999 });
        sim.run();
    }

    #[test]
    fn cancel_of_an_executed_id_spares_its_slots_new_occupant() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        let first = sim.schedule_in(Duration::from_millis(1), mk(1));
        sim.run();
        let second = sim.schedule_in(Duration::from_millis(1), mk(2));
        assert_eq!(second.slot, first.slot, "the freed slot is reused");
        sim.cancel(first);
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn scheduling_at_the_horizon_after_stopping_short_keeps_order() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule_at(SimTime::from_millis(100), mk(100));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        // Below the far event the run loop inspected but did not run.
        sim.schedule_now(mk(5));
        sim.schedule_at(SimTime::from_millis(50), mk(50));
        sim.run();
        assert_eq!(*log.borrow(), vec![5, 50, 100]);
    }

    #[test]
    fn cancel_drops_the_captured_state_at_once() {
        let sim = Sim::new();
        let token = Rc::new(());
        let held = token.clone();
        let id = sim.schedule_in(Duration::from_millis(1), move || drop(held));
        assert_eq!(Rc::strong_count(&token), 2);
        sim.cancel(id);
        assert_eq!(Rc::strong_count(&token), 1);
        assert_eq!(sim.pending(), 0);
        sim.run();
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    #[should_panic(expected = "simulation past")]
    fn scheduling_in_the_past_panics() {
        let sim = Sim::new();
        sim.schedule_in(Duration::from_millis(5), || {});
        sim.run();
        sim.schedule_at(SimTime::from_millis(1), || {});
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule_at(SimTime::from_millis(1), mk(1));
        sim.schedule_at(SimTime::from_millis(10), mk(10));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.now(), SimTime::from_millis(5));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 10]);
    }

    #[test]
    fn stop_halts_the_loop() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        let s2 = sim.clone();
        sim.schedule_at(SimTime::from_millis(1), move || s2.stop());
        sim.schedule_at(SimTime::from_millis(2), mk(2));
        sim.run();
        assert_eq!(*log.borrow(), Vec::<u32>::new());
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn counts_executed_events() {
        let sim = Sim::new();
        for i in 0..5 {
            sim.schedule_at(SimTime::from_millis(i), || {});
        }
        sim.run();
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn discarded_events_are_dropped_unrun() {
        let sim = Sim::new();
        let (log, mk) = recorder();
        let held = Rc::new(());
        let h = held.clone();
        sim.schedule_in(Duration::from_millis(1), mk(1));
        let stale = sim.schedule_in(Duration::from_millis(2), move || drop(h));
        sim.discard_pending();
        assert_eq!(sim.pending(), 0);
        assert_eq!(Rc::strong_count(&held), 1, "the discarded action's captures are dropped");
        sim.cancel(stale);
        // The simulation stays usable after a discard.
        sim.schedule_in(Duration::from_millis(3), mk(3));
        sim.run();
        assert_eq!(*log.borrow(), vec![3]);
        assert_eq!(sim.events_executed(), 1);
    }
}
