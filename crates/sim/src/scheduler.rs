//! The discrete-event scheduler — our equivalent of the Scalable Simulation
//! Framework (SSF) kernel the paper builds on (§2.1).
//!
//! [`Sim`] is a cheaply cloneable handle to a single-threaded event queue.
//! Components hold a `Sim` and schedule closures; the run loop pops events in
//! `(time, insertion-order)` order, advances the virtual clock, and executes
//! them. Executing an action never holds a borrow of the queue, so actions
//! are free to schedule (or cancel) further events.

use crate::event::{Action, Entry, EventId};
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Duration;

#[derive(Default)]
struct Inner {
    queue: BinaryHeap<Entry>,
    now: SimTime,
    next_id: u64,
    /// Tombstones of cancelled events, only ever probed by id as the run
    /// loop pops them: never iterated, so a hash set is safe.
    #[allow(clippy::disallowed_types)]
    cancelled: std::collections::HashSet<EventId>,
    executed: u64,
    /// When set, the run loop stops before executing any event later than this.
    horizon: Option<SimTime>,
    stop_requested: bool,
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

    /// Number of events currently pending (including cancelled tombstones).
    pub fn pending(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time: scheduling
    /// into the past is precisely the bug class the paper's runtime guards
    /// against (§2.2), so it is rejected loudly rather than silently reordered.
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce() + 'static) -> EventId {
        let mut inner = self.inner.borrow_mut();
        assert!(
            at >= inner.now,
            "event scheduled in the simulation past: at={at} now={}",
            inner.now
        );
        let id = EventId(inner.next_id);
        inner.next_id += 1;
        inner.queue.push(Entry { at, id, action: Box::new(action) as Action });
        id
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

    /// Cancels a pending event. Cancelling an already-executed or unknown
    /// event is a no-op, which lets callers keep stale [`EventId`]s safely.
    pub fn cancel(&self, id: EventId) {
        if id == EventId::NONE {
            return;
        }
        self.inner.borrow_mut().cancelled.insert(id);
    }

    /// Requests the run loop to stop after the currently executing event.
    pub fn stop(&self) {
        self.inner.borrow_mut().stop_requested = true;
    }

    /// Executes a single event, if any is pending. Returns `true` if an event
    /// ran, advancing the clock to its timestamp.
    pub fn step(&self) -> bool {
        let (action, at) = {
            let mut inner = self.inner.borrow_mut();
            loop {
                match inner.queue.pop() {
                    None => return false,
                    Some(e) => {
                        if inner.cancelled.remove(&e.id) {
                            continue;
                        }
                        if let Some(h) = inner.horizon {
                            if e.at > h {
                                // Put it back and report exhaustion of the window.
                                inner.queue.push(e);
                                return false;
                            }
                        }
                        break (e.action, e.at);
                    }
                }
            }
        };
        {
            let mut inner = self.inner.borrow_mut();
            inner.now = at;
            inner.executed += 1;
        }
        action();
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
            .field("pending", &inner.queue.len())
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
        sim.cancel(EventId(999));
        sim.run();
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
}
