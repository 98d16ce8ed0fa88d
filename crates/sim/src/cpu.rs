//! Simulated CPUs executing both *simulated* jobs (transaction processing,
//! with a declared duration) and *real* jobs (actual protocol code, timed by
//! a profiler) — the centralized simulation runtime of paper §2.2 and Fig. 1.
//!
//! A [`CpuBank`] models the `N` processors of one database site. Jobs wait in
//! a two-level ready queue: real jobs (protocol code) have priority over
//! simulated jobs and *preempt* them, as required by §3.1 ("as real jobs have
//! a higher priority, simulated transaction executing can be preempted").
//!
//! Real jobs receive a [`RealContext`] implementing the Fig. 1(b) rules:
//! events scheduled from real code at relative delay `δq` fire at
//! `start + Δ₁ + δq` where `Δ₁` is the cost accrued so far, and in wall-clock
//! profiling mode the measuring clock is stopped while inside runtime calls
//! so that runtime overhead never leaks into the measured Δ.

use crate::event::{Action, EventId};
use crate::profiler::ProfilerMode;
use crate::scheduler::Sim;
use crate::time::{scale_duration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A real-code job: receives the runtime context it must use for any
/// interaction with simulated time (clock reads, scheduling, cost charging).
pub type RealJob = Box<dyn FnOnce(&mut RealContext<'_>)>;

/// Execution context handed to real jobs (the paper's abstraction layer
/// bridge to the simulation runtime, §2.3).
///
/// All simulated-time interaction from real code must go through this
/// context; that is what keeps the two failure modes of Fig. 1(b) impossible:
/// events scheduled in the simulation past, and runtime overhead inflating
/// the measured job duration.
pub struct RealContext<'a> {
    sim: &'a Sim,
    start: SimTime,
    /// Simulated cost accrued so far (Δ₁ in the paper's notation), already
    /// converted to simulated-CPU time.
    charged: Duration,
    mode: ProfilerMode,
    /// Running stopwatch for wall-clock mode; `None` while "stopped".
    stopwatch: Option<Instant>,
}

impl<'a> RealContext<'a> {
    fn new(sim: &'a Sim, mode: ProfilerMode) -> Self {
        RealContext {
            sim,
            start: sim.now(),
            charged: Duration::ZERO,
            mode,
            stopwatch: match mode {
                ProfilerMode::WallClock { .. } => Some(Instant::now()),
                ProfilerMode::Synthetic { .. } => None,
            },
        }
    }

    /// Stops the wall-clock stopwatch, folding elapsed host time into the
    /// charged total (the paper's "stop the real-time clock when re-entering
    /// the simulation runtime").
    fn stop_clock(&mut self) {
        if let ProfilerMode::WallClock { scale } = self.mode {
            if let Some(sw) = self.stopwatch.take() {
                self.charged += scale_duration(sw.elapsed(), scale);
            }
        }
    }

    /// Restarts the stopwatch upon returning to real code.
    fn restart_clock(&mut self) {
        if self.mode.is_wall_clock() {
            self.stopwatch = Some(Instant::now());
        }
    }

    /// The simulated instant as seen from inside the job: start time plus
    /// cost accrued so far.
    pub fn now(&mut self) -> SimTime {
        self.stop_clock();
        let t = self.start + self.charged;
        self.restart_clock();
        t
    }

    /// Declares `cost` of simulated CPU work (synthetic mode). In wall-clock
    /// mode this is a no-op: actual execution time is being measured instead.
    pub fn charge(&mut self, cost: Duration) {
        match self.mode {
            ProfilerMode::Synthetic { speed } => {
                self.charged += scale_duration(cost, 1.0 / speed);
            }
            ProfilerMode::WallClock { .. } => {}
        }
    }

    /// Schedules `action` to fire `delay` after the *current point inside the
    /// job* — i.e. at `start + Δ₁ + delay` (Fig. 1(b): `δ′q = Δ₁ + δq`).
    pub fn schedule(&mut self, delay: Duration, action: impl FnOnce() + 'static) -> EventId {
        self.stop_clock();
        let at = self.start + self.charged + delay;
        let id = self.sim.schedule_at(at, action);
        self.restart_clock();
        id
    }

    /// Cancels an event previously scheduled (from real or simulated code).
    pub fn cancel(&mut self, id: EventId) {
        self.stop_clock();
        self.sim.cancel(id);
        self.restart_clock();
    }

    /// Total cost accrued by the job so far.
    pub fn elapsed(&mut self) -> Duration {
        self.stop_clock();
        let e = self.charged;
        self.restart_clock();
        e
    }

    /// Finalizes the measurement, returning the job's total duration Δ.
    fn finish(mut self) -> Duration {
        self.stop_clock();
        self.charged
    }
}

impl std::fmt::Debug for RealContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealContext")
            .field("start", &self.start)
            .field("charged", &self.charged)
            .finish()
    }
}

struct SimJob {
    remaining: Duration,
    on_complete: Box<dyn FnOnce()>,
}

struct RunningJob {
    real: bool,
    started_at: SimTime,
    finish_at: SimTime,
    completion: EventId,
    /// Present only for simulated jobs, so preemption can recover the
    /// continuation and remaining work.
    sim_job: Option<SimJob>,
}

#[derive(Default)]
struct Slot {
    running: Option<RunningJob>,
}

/// Time-integrated accounting of CPU usage, split by job kind as the paper
/// needs for Fig. 6(a) (total usage) and Fig. 7(c) (usage by real jobs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuUsage {
    /// Total busy time attributed to real (protocol) jobs, summed over CPUs.
    pub busy_real: Duration,
    /// Total busy time attributed to simulated jobs, summed over CPUs.
    pub busy_sim: Duration,
}

impl CpuUsage {
    /// Total busy time over all job kinds.
    pub fn busy_total(&self) -> Duration {
        self.busy_real + self.busy_sim
    }
}

pub(crate) struct Bank {
    n: usize,
    slots: Vec<Slot>,
    ready_real: VecDeque<RealJob>,
    ready_sim: VecDeque<SimJob>,
    mode: ProfilerMode,
    /// Completed-portion accounting (updated when work finishes or is preempted).
    busy_real_ns: u64,
    busy_sim_ns: u64,
}

/// A bank of `n` identical simulated CPUs with a shared two-level ready
/// queue (real jobs first), preemption of simulated jobs by real jobs, and
/// per-kind usage accounting.
///
/// # Examples
///
/// ```
/// use dbsm_sim::{Sim, CpuBank, ProfilerMode};
/// use std::time::Duration;
///
/// let sim = Sim::new();
/// let cpu = CpuBank::new(&sim, 2, ProfilerMode::synthetic());
/// cpu.submit_sim(Duration::from_millis(10), || {});
/// cpu.submit_real(Box::new(|ctx| ctx.charge(Duration::from_millis(1))));
/// sim.run();
/// assert_eq!(cpu.usage().busy_real, Duration::from_millis(1));
/// assert_eq!(cpu.usage().busy_sim, Duration::from_millis(10));
/// ```
#[derive(Clone)]
pub struct CpuBank {
    sim: Sim,
    state: Rc<RefCell<Bank>>,
}

impl CpuBank {
    /// Creates a bank of `n` CPUs (`n >= 1`) using the given profiling mode
    /// for real jobs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if the mode's speed or scale is not finite
    /// and positive.
    pub fn new(sim: &Sim, n: usize, mode: ProfilerMode) -> Self {
        assert!(n >= 1, "a site needs at least one CPU");
        let (ProfilerMode::Synthetic { speed: factor } | ProfilerMode::WallClock { scale: factor }) =
            mode;
        assert!(
            factor.is_finite() && factor > 0.0,
            "profiler factor must be finite and positive: {mode:?}"
        );
        let state = Bank {
            n,
            slots: (0..n).map(|_| Slot::default()).collect(),
            ready_real: VecDeque::new(),
            ready_sim: VecDeque::new(),
            mode,
            busy_real_ns: 0,
            busy_sim_ns: 0,
        };
        CpuBank { sim: sim.clone(), state: Rc::new(RefCell::new(state)) }
    }

    /// Submits a real (protocol-code) job. Real jobs run at the next point a
    /// CPU is available, preempting a simulated job if necessary.
    pub fn submit_real(&self, job: RealJob) {
        self.state.borrow_mut().ready_real.push_back(job);
        self.poke();
    }

    /// Submits a simulated job of the given duration; `on_complete` fires
    /// when the job has received `duration` of CPU service (possibly split
    /// across preemptions). The duration is scaled by the configured CPU
    /// speed ("processing operations are scaled according to the configured
    /// CPU speed", paper §3.1).
    pub fn submit_sim(&self, duration: Duration, on_complete: impl FnOnce() + 'static) {
        {
            let mut b = self.state.borrow_mut();
            let speed = match b.mode {
                ProfilerMode::Synthetic { speed } => speed,
                ProfilerMode::WallClock { scale } => 1.0 / scale,
            };
            let remaining = crate::time::scale_duration(duration, 1.0 / speed);
            b.ready_sim.push_back(SimJob { remaining, on_complete: Box::new(on_complete) });
        }
        self.poke();
    }

    /// Cumulative busy-time accounting including the in-progress portion of
    /// currently running jobs.
    pub fn usage(&self) -> CpuUsage {
        let b = self.state.borrow();
        let now = self.sim.now();
        let mut real = b.busy_real_ns;
        let mut sim = b.busy_sim_ns;
        for slot in &b.slots {
            if let Some(r) = &slot.running {
                let served = now.saturating_duration_since(r.started_at).as_nanos() as u64;
                // The in-progress portion never exceeds the scheduled span.
                let span = r.finish_at.saturating_duration_since(r.started_at).as_nanos() as u64;
                let served = served.min(span);
                if r.real {
                    real += served;
                } else {
                    sim += served;
                }
            }
        }
        CpuUsage { busy_real: Duration::from_nanos(real), busy_sim: Duration::from_nanos(sim) }
    }

    /// Drops every queued job, and the continuation of every running
    /// simulated job, without running them; running jobs still complete,
    /// as no-ops. For tearing a model down with [`Sim::discard_pending`]:
    /// queued work often holds handles on the components that own this
    /// bank, a cycle that would otherwise keep them all alive.
    pub fn discard_queued(&self) {
        let discarded = {
            let mut b = self.state.borrow_mut();
            let running = b.slots.iter_mut().filter_map(|s| s.running.as_mut()?.sim_job.as_mut());
            let noop = |job: &mut SimJob| std::mem::replace(&mut job.on_complete, Box::new(|| {}));
            let continuations: Vec<_> = running.map(noop).collect();
            (std::mem::take(&mut b.ready_real), std::mem::take(&mut b.ready_sim), continuations)
        };
        // Dropped outside the borrow: the jobs' destructors may use the bank.
        drop(discarded);
    }

    /// Assigns ready jobs to CPUs: fills idle slots, then preempts simulated
    /// jobs if real jobs are still waiting.
    fn poke(&self) {
        loop {
            // Decide on one action under the borrow, perform it outside.
            enum Step {
                StartReal(usize, RealJob),
                StartSim(usize, SimJob),
                Preempt(usize),
                Done,
            }
            let step = {
                let mut b = self.state.borrow_mut();
                let idle = b.slots.iter().position(|s| s.running.is_none());
                if let Some(i) = idle {
                    if let Some(j) = b.ready_real.pop_front() {
                        Step::StartReal(i, j)
                    } else if let Some(j) = b.ready_sim.pop_front() {
                        Step::StartSim(i, j)
                    } else {
                        Step::Done
                    }
                } else if !b.ready_real.is_empty() {
                    // No idle CPU: preempt a simulated job if one is running.
                    let victim = b
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.running.as_ref().is_some_and(|r| !r.real))
                        .max_by_key(|(i, s)| {
                            (s.running.as_ref().expect("filtered running").finish_at, *i)
                        })
                        .map(|(i, _)| i);
                    match victim {
                        Some(i) => Step::Preempt(i),
                        None => Step::Done,
                    }
                } else {
                    Step::Done
                }
            };
            match step {
                Step::Done => break,
                Step::Preempt(i) => self.preempt(i),
                Step::StartSim(i, job) => self.start_sim(i, job),
                Step::StartReal(i, job) => self.start_real(i, job),
            }
        }
    }

    fn preempt(&self, idx: usize) {
        let mut b = self.state.borrow_mut();
        let now = self.sim.now();
        let slot = &mut b.slots[idx];
        let running = slot.running.take().expect("preempting an idle CPU");
        debug_assert!(!running.real, "real jobs are not preemptible");
        self.sim.cancel(running.completion);
        let mut job = running.sim_job.expect("simulated job carries its continuation");
        let served = now.saturating_duration_since(running.started_at);
        job.remaining = job.remaining.saturating_sub(served);
        b.busy_sim_ns += served.as_nanos() as u64;
        b.ready_sim.push_front(job);
        // poke() loop continues and will start the waiting real job here.
    }

    fn start_sim(&self, idx: usize, job: SimJob) {
        let now = self.sim.now();
        let finish_at = now + job.remaining;
        let completion = self.schedule_completion(finish_at, idx);
        let mut b = self.state.borrow_mut();
        b.slots[idx].running = Some(RunningJob {
            real: false,
            started_at: now,
            finish_at,
            completion,
            sim_job: Some(job),
        });
    }

    fn start_real(&self, idx: usize, job: RealJob) {
        let now = self.sim.now();
        let mode = {
            let mut b = self.state.borrow_mut();
            // Reserve the slot before running the thunk so re-entrant submits
            // from inside the job cannot double-assign this CPU.
            b.slots[idx].running = Some(RunningJob {
                real: true,
                started_at: now,
                finish_at: SimTime::MAX,
                completion: EventId::NONE,
                sim_job: None,
            });
            b.mode
        };
        let mut ctx = RealContext::new(&self.sim, mode);
        job(&mut ctx);
        let delta = ctx.finish();
        let finish_at = now + delta;
        let completion = self.schedule_completion(finish_at, idx);
        let mut b = self.state.borrow_mut();
        let r = b.slots[idx].running.as_mut().expect("slot reserved above");
        r.finish_at = finish_at;
        r.completion = completion;
    }

    /// Schedules CPU `idx`'s completion: an unboxed kernel action that the
    /// run loop hands to [`complete`].
    fn schedule_completion(&self, at: SimTime, idx: usize) -> EventId {
        let cpu = u32::try_from(idx).expect("over 2^32 CPUs");
        self.sim.schedule_action(at, Action::CpuDone(self.state.clone(), cpu))
    }

    fn finish(&self, idx: usize) {
        let (on_complete, served_real, served_sim) = {
            let mut b = self.state.borrow_mut();
            let slot = &mut b.slots[idx];
            let running = slot.running.take().expect("completion fired for idle CPU");
            let served = running.finish_at.saturating_duration_since(running.started_at);
            if running.real {
                (None, served.as_nanos() as u64, 0)
            } else {
                let job = running.sim_job.expect("simulated job carries its continuation");
                (Some(job.on_complete), 0, served.as_nanos() as u64)
            }
        };
        {
            let mut b = self.state.borrow_mut();
            b.busy_real_ns += served_real;
            b.busy_sim_ns += served_sim;
        }
        if let Some(f) = on_complete {
            f();
        }
        self.poke();
    }
}

/// Runs CPU `cpu`'s completion, scheduled by
/// [`CpuBank::schedule_completion`], on the bank whose state is `state`.
pub(crate) fn complete(sim: &Sim, state: Rc<RefCell<Bank>>, cpu: u32) {
    CpuBank { sim: sim.clone(), state }.finish(cpu as usize);
}

impl std::fmt::Debug for CpuBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.state.borrow();
        f.debug_struct("CpuBank")
            .field("n", &b.n)
            .field("ready_real", &b.ready_real.len())
            .field("ready_sim", &b.ready_sim.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn single_cpu_serializes_jobs() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        let log: Rc<RefCell<Vec<(u32, SimTime)>>> = Rc::default();
        for i in 0..3 {
            let l = log.clone();
            let s = sim.clone();
            cpu.submit_sim(ms(10), move || l.borrow_mut().push((i, s.now())));
        }
        sim.run();
        let got = log.borrow().clone();
        assert_eq!(
            got,
            vec![
                (0, SimTime::from_millis(10)),
                (1, SimTime::from_millis(20)),
                (2, SimTime::from_millis(30)),
            ]
        );
    }

    #[test]
    fn multi_cpu_runs_in_parallel() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 3, ProfilerMode::synthetic());
        let done: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        for _ in 0..3 {
            let d = done.clone();
            let s = sim.clone();
            cpu.submit_sim(ms(10), move || d.borrow_mut().push(s.now()));
        }
        sim.run();
        assert_eq!(*done.borrow(), vec![SimTime::from_millis(10); 3]);
    }

    #[test]
    fn real_job_duration_comes_from_charges() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        cpu.submit_real(Box::new(|ctx| {
            ctx.charge(ms(3));
            ctx.charge(ms(4));
        }));
        sim.run();
        assert_eq!(cpu.usage().busy_real, ms(7));
        assert_eq!(sim.now(), SimTime::from_millis(7));
    }

    #[test]
    fn synthetic_speed_scales_cost() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::Synthetic { speed: 2.0 });
        cpu.submit_real(Box::new(|ctx| ctx.charge(ms(10))));
        sim.run();
        assert_eq!(cpu.usage().busy_real, ms(5));
    }

    #[test]
    fn real_preempts_simulated() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        let log: Rc<RefCell<Vec<(&'static str, SimTime)>>> = Rc::default();

        let l = log.clone();
        let s = sim.clone();
        cpu.submit_sim(ms(10), move || l.borrow_mut().push(("sim", s.now())));

        // At t=4ms a real job of 2ms arrives and preempts the simulated job.
        let cpu2 = cpu.clone();
        let l = log.clone();
        let s2 = sim.clone();
        sim.schedule_at(SimTime::from_millis(4), move || {
            let l = l.clone();
            let s2 = s2.clone();
            cpu2.submit_real(Box::new(move |ctx| {
                ctx.charge(ms(2));
                let l = l.clone();
                let s2 = s2.clone();
                ctx.schedule(Duration::ZERO, move || l.borrow_mut().push(("real", s2.now())));
            }));
        });
        sim.run();
        // Real finishes at 6ms; simulated had 6ms remaining -> finishes at 12ms.
        assert_eq!(
            *log.borrow(),
            vec![("real", SimTime::from_millis(6)), ("sim", SimTime::from_millis(12))]
        );
        assert_eq!(cpu.usage(), CpuUsage { busy_real: ms(2), busy_sim: ms(10) });
    }

    #[test]
    fn fig1b_schedule_from_real_code_accounts_elapsed() {
        // Fig. 1(b): an event scheduled from real code after Δ₁ of work with
        // delay δq fires at start + Δ₁ + δq, even when δq < remaining work.
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        let fired: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        let f = fired.clone();
        let s = sim.clone();
        cpu.submit_real(Box::new(move |ctx| {
            ctx.charge(ms(5)); // Δ₁
            let f = f.clone();
            let s = s.clone();
            ctx.schedule(ms(1), move || f.borrow_mut().push(s.now())); // δq = 1ms
            ctx.charge(ms(5)); // Δ₂
        }));
        sim.run();
        assert_eq!(*fired.borrow(), vec![SimTime::from_millis(6)]);
        // Total job duration is Δ₁+Δ₂ = 10ms, unaffected by the runtime call.
        assert_eq!(cpu.usage().busy_real, ms(10));
    }

    #[test]
    fn real_code_clock_reads_see_accrued_cost() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        let seen: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        let s = seen.clone();
        cpu.submit_real(Box::new(move |ctx| {
            s.borrow_mut().push(ctx.now());
            ctx.charge(ms(2));
            s.borrow_mut().push(ctx.now());
        }));
        sim.run();
        assert_eq!(*seen.borrow(), vec![SimTime::ZERO, SimTime::from_millis(2)]);
    }

    #[test]
    fn real_jobs_queue_behind_each_other() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        let log: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        for _ in 0..2 {
            let l = log.clone();
            cpu.submit_real(Box::new(move |ctx| {
                ctx.charge(ms(3));
                let l = l.clone();
                let t = ctx.now();
                ctx.schedule(Duration::ZERO, move || l.borrow_mut().push(t));
            }));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![SimTime::from_millis(3), SimTime::from_millis(6)]);
    }

    #[test]
    fn wall_clock_mode_measures_and_excludes_runtime_reentry() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::wall_clock());
        cpu.submit_real(Box::new(|ctx| {
            // Busy-spin ~2ms of real work.
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(2) {
                std::hint::black_box(0u64);
            }
            // Re-enter the runtime; elapsed must keep counting only real work.
            let _ = ctx.now();
            let e = ctx.elapsed();
            assert!(e >= Duration::from_millis(2), "measured {e:?}");
        }));
        sim.run();
        let measured = cpu.usage().busy_real;
        assert!(measured >= Duration::from_millis(2), "measured {measured:?}");
        // Generous upper bound: the spin is 2ms; runtime re-entry must not
        // add orders of magnitude.
        assert!(measured < Duration::from_millis(200), "measured {measured:?}");
    }

    #[test]
    fn usage_counts_in_progress_work() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        cpu.submit_sim(ms(10), || {});
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(cpu.usage().busy_sim, ms(4));
        sim.run();
        assert_eq!(cpu.usage().busy_sim, ms(10));
    }

    #[test]
    fn zero_cost_real_job_completes() {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        let hit: Rc<RefCell<bool>> = Rc::default();
        let h = hit.clone();
        cpu.submit_real(Box::new(move |ctx| {
            let h = h.clone();
            ctx.schedule(Duration::ZERO, move || *h.borrow_mut() = true);
        }));
        sim.run();
        assert!(*hit.borrow());
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_rejected() {
        let sim = Sim::new();
        let _ = CpuBank::new(&sim, 0, ProfilerMode::synthetic());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_speed_rejected() {
        let sim = Sim::new();
        let _ = CpuBank::new(&sim, 1, ProfilerMode::Synthetic { speed: 0.0 });
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_scale_rejected() {
        let sim = Sim::new();
        let _ = CpuBank::new(&sim, 1, ProfilerMode::WallClock { scale: f64::NAN });
    }

    #[test]
    fn discarded_jobs_are_dropped_unrun() {
        let sim = Sim::new();
        let held = Rc::new(());
        let (a, b, c) = (held.clone(), held.clone(), held.clone());
        // A running real job keeps one bank's CPU busy while a real and a
        // simulated job wait; the other bank is running a simulated job.
        // Discarding needs no discard of the simulation here.
        let busy = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        busy.submit_real(Box::new(|ctx| ctx.charge(ms(10))));
        busy.submit_real(Box::new(move |_| drop(a)));
        busy.submit_sim(ms(10), move || drop(b));
        let running = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        running.submit_sim(ms(10), move || drop(c));
        busy.discard_queued();
        running.discard_queued();
        assert_eq!(Rc::strong_count(&held), 1, "every job's captures are dropped");
        // The running jobs still complete, and nothing runs after them: no
        // completion is left pending, and each bank's one CPU was busy for
        // exactly its running job.
        sim.run();
        assert_eq!(sim.pending(), 0, "no job is left to complete");
        let (busy, running) = (busy.usage(), running.usage());
        assert_eq!((busy.busy_real, busy.busy_sim), (ms(10), Duration::ZERO));
        assert_eq!((running.busy_real, running.busy_sim), (Duration::ZERO, ms(10)));
    }
}
