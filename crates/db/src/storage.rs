//! The storage resource (§3.1): "a storage element is used for fetching and
//! storing items and is defined by its latency and number of allowed
//! concurrent requests. Each request manipulates a single storage sector,
//! hence storage bandwidth becomes configured indirectly. A cache hit ratio
//! determines the probability of a read request being handled instantaneously
//! without consuming storage resources."

use dbsm_sim::{Sim, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

/// Storage configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageConfig {
    /// Service time of one sector request.
    pub latency: Duration,
    /// Concurrent requests the device sustains (command queuing / RAID).
    pub concurrency: usize,
    /// Probability a read is served from cache without touching the device.
    pub cache_hit: f64,
}

impl StorageConfig {
    /// The paper's test storage (§4.1): fibre-channel RAID-5 box measured at
    /// 9.486 MB/s of synchronous 4 KB writes; with 4-way concurrency that
    /// decomposes to ≈1.65 ms per sector. The measured cache hit ratio was
    /// above 98%, so the model is configured with 100% read hits ("read
    /// items do not directly consume storage bandwidth").
    pub fn raid5_fibre() -> Self {
        StorageConfig { latency: Duration::from_micros(1650), concurrency: 4, cache_hit: 1.0 }
    }
}

struct Request {
    remaining: u32,
    on_done: Box<dyn FnOnce()>,
}

struct Inner {
    config: StorageConfig,
    /// Outstanding requests by id, only looked up by id and never iterated.
    requests: dbsm_cert::FxHashMap<u64, Request>,
    /// Sectors not yet issued to the device: `(request id, count)` FIFO.
    issue_queue: VecDeque<(u64, u32)>,
    next_req: u64,
    in_service: usize,
    /// Sector-service time integral for utilisation accounting (Fig. 6b).
    busy_ns: u64,
    rng: SmallRng,
}

/// A simulated storage device attached to one site.
///
/// Requests are batches of sector operations; `on_done` fires when the whole
/// batch completed. Reads roll the cache first.
#[derive(Clone)]
pub struct Storage {
    sim: Sim,
    inner: Rc<RefCell<Inner>>,
}

impl Storage {
    /// Creates a storage device.
    pub fn new(sim: &Sim, config: StorageConfig, seed: u64) -> Self {
        assert!(config.concurrency >= 1, "storage needs at least one channel");
        assert!((0.0..=1.0).contains(&config.cache_hit), "cache hit ratio out of range");
        Storage {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(Inner {
                config,
                requests: dbsm_cert::FxHashMap::default(),
                issue_queue: VecDeque::new(),
                next_req: 0,
                in_service: 0,
                busy_ns: 0,
                rng: SmallRng::seed_from_u64(seed),
            })),
        }
    }

    /// Submits a read of `sectors` sectors; each may hit the cache and cost
    /// nothing. `on_done` fires when all device reads finish (immediately if
    /// everything hit).
    pub fn read(&self, sectors: u32, on_done: impl FnOnce() + 'static) {
        let misses = {
            let mut inner = self.inner.borrow_mut();
            let hit = inner.config.cache_hit;
            (0..sectors).filter(|_| !inner.rng.gen_bool(hit)).count() as u32
        };
        if misses == 0 {
            // Cache hits are free and synchronous-at-this-instant; schedule
            // the callback so completion order stays deterministic.
            self.sim.schedule_now(on_done);
        } else {
            self.submit(misses, Box::new(on_done));
        }
    }

    /// Submits a write of `sectors` sectors (writes always hit the device).
    pub fn write(&self, sectors: u32, on_done: impl FnOnce() + 'static) {
        if sectors == 0 {
            self.sim.schedule_now(on_done);
        } else {
            self.submit(sectors, Box::new(on_done));
        }
    }

    fn submit(&self, sectors: u32, on_done: Box<dyn FnOnce()>) {
        {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_req;
            inner.next_req += 1;
            inner.requests.insert(id, Request { remaining: sectors, on_done });
            inner.issue_queue.push_back((id, sectors));
        }
        self.pump();
    }

    /// Starts sector services while channels are free, FIFO across requests
    /// (later requests may overlap an earlier one that saturated a channel).
    fn pump(&self) {
        loop {
            let job = {
                let mut inner = self.inner.borrow_mut();
                if inner.in_service >= inner.config.concurrency {
                    break;
                }
                let Some((id, left)) = inner.issue_queue.front_mut() else { break };
                let id = *id;
                *left -= 1;
                if *left == 0 {
                    inner.issue_queue.pop_front();
                }
                inner.in_service += 1;
                (id, inner.config.latency)
            };
            let (id, latency) = job;
            let this = self.clone();
            self.sim.schedule_in(latency, move || this.sector_done(id));
        }
    }

    fn sector_done(&self, id: u64) {
        let done_cb = {
            let mut inner = self.inner.borrow_mut();
            inner.in_service -= 1;
            inner.busy_ns += inner.config.latency.as_nanos() as u64;
            let req = inner.requests.get_mut(&id).expect("completion without request");
            req.remaining -= 1;
            if req.remaining == 0 {
                Some(inner.requests.remove(&id).expect("present").on_done)
            } else {
                None
            }
        };
        if let Some(cb) = done_cb {
            cb();
        }
        self.pump();
    }

    /// Device utilisation over `[0, now]`: busy channel-time divided by
    /// available channel-time.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let inner = self.inner.borrow();
        let avail = now.as_nanos() as f64 * inner.config.concurrency as f64;
        if avail == 0.0 {
            0.0
        } else {
            inner.busy_ns as f64 / avail
        }
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Storage")
            .field("queued", &inner.requests.len())
            .field("in_service", &inner.in_service)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn no_cache() -> StorageConfig {
        StorageConfig { latency: Duration::from_millis(1), concurrency: 2, cache_hit: 0.0 }
    }

    /// Sectors the device served by `now`, recovered from its utilisation:
    /// each costs one `latency` of one of `concurrency` channels.
    fn served(st: &Storage, cfg: StorageConfig, now: SimTime) -> u64 {
        let busy_ns = st.utilization(now) * now.as_nanos() as f64 * cfg.concurrency as f64;
        (busy_ns / cfg.latency.as_nanos() as f64).round() as u64
    }

    #[test]
    fn write_batch_completes_after_service() {
        let sim = Sim::new();
        let st = Storage::new(&sim, no_cache(), 1);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = done.clone();
        let s2 = sim.clone();
        st.write(4, move || d.set(s2.now()));
        sim.run();
        // 4 sectors, 2 channels, 1ms each -> 2ms.
        assert_eq!(done.get(), SimTime::from_millis(2));
        assert_eq!(served(&st, no_cache(), sim.now()), 4);
    }

    #[test]
    fn concurrency_bounds_throughput() {
        let sim = Sim::new();
        let st = Storage::new(&sim, no_cache(), 1);
        for _ in 0..10 {
            st.write(1, || {});
        }
        sim.run();
        // 10 sectors / 2 channels * 1ms = 5ms.
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert!((st.utilization(sim.now()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_cache_makes_reads_free() {
        let sim = Sim::new();
        let cfg = StorageConfig { cache_hit: 1.0, ..no_cache() };
        let st = Storage::new(&sim, cfg, 1);
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        st.read(100, move || d.set(true));
        sim.run();
        assert!(done.get());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(served(&st, cfg, sim.now()), 0);
    }

    #[test]
    fn partial_cache_hits_reduce_device_load() {
        let sim = Sim::new();
        let cfg = StorageConfig { cache_hit: 0.5, ..no_cache() };
        let st = Storage::new(&sim, cfg, 42);
        st.read(1000, || {});
        sim.run();
        let served = served(&st, cfg, sim.now());
        assert!(served > 350 && served < 650, "served {served}");
    }

    #[test]
    fn zero_sector_write_completes_immediately() {
        let sim = Sim::new();
        let st = Storage::new(&sim, no_cache(), 1);
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        st.write(0, move || d.set(true));
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn requests_complete_in_fifo_order() {
        let sim = Sim::new();
        let st = Storage::new(&sim, no_cache(), 1);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..3 {
            let o = order.clone();
            st.write(2, move || o.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn paper_config_matches_measured_bandwidth() {
        let cfg = StorageConfig::raid5_fibre();
        let sectors_per_sec = cfg.concurrency as f64 / cfg.latency.as_secs_f64();
        let mbps = sectors_per_sec * 4096.0 / 1e6;
        // 9.486 MB/s measured by IOzone in the paper.
        assert!((mbps - 9.9).abs() < 0.5, "got {mbps} MB/s");
    }
}
