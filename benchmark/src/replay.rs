//! Layer replays: each layer driven alone, from outside, with the counts the
//! workload's own run produced — that many events through the scheduler,
//! that many frames of the mean size through a bare LAN, that many
//! application messages through the group-communication stacks, the
//! generated request stream through marshalling, a certifier and a database
//! engine. A replay bounds what its layer can cost; it misses what the
//! layers do to each other's caches when interleaved, which is why
//! `core.residual_host_share` exists.

use bytes::Bytes;
use dbsm_cert::{marshal, unmarshal, CertRequest, SiteId};
use dbsm_core::ExperimentConfig;
use dbsm_db::DbEngine;
use dbsm_gcs::testkit::TestNet;
use dbsm_gcs::NodeId;
use dbsm_net::{wire_bytes, Addr, Dest, GroupId, NetworkBuilder, Port, SegmentConfig};
use dbsm_sim::{derive_seed, CpuBank, ProfilerMode, Sim};
use dbsm_tpcc::{ClientRequest, TpccConfig, TpccGen};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Host time of one replay and the units of work it performed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub host_ns: u64,
    pub count: u64,
    /// Scheduler events the replay executed on its own `Sim` (zero for
    /// replays that use none): their cost belongs to the `sim` layer.
    pub sim_events: u64,
}

impl Replay {
    pub fn ns_per_unit(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.host_ns as f64 / self.count as f64
        }
    }
}

fn timed(count: u64, f: impl FnOnce() -> u64) -> Replay {
    let t = Instant::now();
    let sim_events = f();
    Replay { host_ns: t.elapsed().as_nanos() as u64, count, sim_events }
}

fn generator(cfg: &ExperimentConfig, clients: usize) -> TpccGen {
    let mut tpcc = TpccConfig::new(clients);
    tpcc.think_mean = cfg.think_mean;
    tpcc.seed = derive_seed(cfg.seed, "tpcc");
    TpccGen::new(tpcc)
}

/// `events` no-op events through `Sim::schedule_in`/`run`, as `depth`
/// self-rescheduling timers so the queue is as deep as the workload's (one
/// pending think timer per client).
pub fn sim(events: u64, depth: usize) -> Replay {
    fn tick(sim: Sim, left: Rc<Cell<u64>>, mut x: u64) {
        if left.get() == 0 {
            return;
        }
        left.set(left.get() - 1);
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let next = sim.clone();
        sim.schedule_in(Duration::from_nanos(1 + (x >> 44)), move || tick(next, left, x));
    }
    let sim = Sim::new();
    let left = Rc::new(Cell::new(events));
    timed(events, || {
        for chain in 0..depth.max(1) as u64 {
            tick(sim.clone(), left.clone(), chain);
        }
        sim.run();
        0
    })
}

/// `packets` multicasts of `payload` bytes on a bare Fast-Ethernet LAN of
/// `hosts` hosts, sent round-robin and paced at wire speed so none overflows.
pub fn net(hosts: usize, packets: u64, payload: usize) -> Replay {
    if hosts < 2 || packets == 0 {
        return Replay::default();
    }
    let sim = Sim::new();
    let mut builder = NetworkBuilder::new(&sim);
    let segment = SegmentConfig::fast_ethernet();
    let gap = Duration::from_secs_f64(wire_bytes(payload) as f64 * 8.0 / segment.bandwidth_bps);
    let lan = builder.lan(segment);
    let ids: Vec<_> = (0..hosts).map(|_| builder.host(lan)).collect();
    let net = builder.build();
    let (group, port) = (GroupId(1), Port(7000));
    for &host in &ids {
        net.join_group(host, group);
        net.bind(Addr::new(host, port), |dg| {
            black_box(dg);
        })
        .expect("fresh network");
    }
    let frame = Bytes::from(vec![0u8; payload]);
    fn send(
        sim: Sim,
        net: dbsm_net::Network,
        ids: Rc<Vec<dbsm_net::HostId>>,
        frame: Bytes,
        gap: Duration,
        sent: u64,
        packets: u64,
    ) {
        if sent == packets {
            return;
        }
        let from = Addr::new(ids[sent as usize % ids.len()], Port(7000));
        net.send(from, Dest::Multicast(GroupId(1), Port(7000)), frame.clone());
        let next = sim.clone();
        sim.schedule_in(gap, move || send(next, net, ids, frame, gap, sent + 1, packets));
    }
    let replay = timed(packets, || {
        send(sim.clone(), net.clone(), Rc::new(ids), frame, gap, 0, packets);
        sim.run();
        sim.events_executed()
    });
    assert_eq!(net.stats().total_drops(), 0, "net replay dropped frames");
    replay
}

/// `messages` broadcasts of `payload` bytes, round-robin over the sites,
/// through real `Gcs` stacks on the `TestNet` harness, spread over `span` of
/// virtual time so the stacks' gossip and heartbeat timers fire as often as
/// in the run. No loss, no votes, no CPU or bandwidth model.
pub fn gcs(cfg: &ExperimentConfig, messages: u64, payload: usize, span: Duration) -> Replay {
    if cfg.sites < 2 || messages == 0 {
        return Replay::default();
    }
    let mut net = TestNet::new(cfg.gcs_config());
    let gap = span / messages as u32;
    let body = Bytes::from(vec![0u8; payload]);
    let replay = timed(messages, || {
        for i in 0..messages {
            net.broadcast(NodeId((i % cfg.sites as u64) as u16), body.clone());
            net.run_for(gap);
            if i.is_multiple_of(256) {
                net.upcalls.iter_mut().for_each(Vec::clear);
            }
        }
        net.run_for(Duration::from_millis(200));
        0
    });
    let delivered = net.nodes[0].borrow().metrics().delivered;
    assert_eq!(delivered, messages, "gcs replay lost messages");
    replay
}

/// What the request stream costs the certification code.
pub struct CertReplay {
    pub marshal: Replay,
    pub certify: Replay,
    /// Mean marshalled size of an update request — the application payload
    /// the gcs replay broadcasts.
    pub mean_payload: usize,
}

/// The first `requests` generated requests: every update among them through
/// `marshal`/`unmarshal`, then through a fresh certifier of the configured
/// kind with the configured history window, each starting `LAG` commits back.
pub fn cert(cfg: &ExperimentConfig, requests: u64) -> CertReplay {
    /// Commits between a request's snapshot and its certification.
    const LAG: u64 = 16;
    let mut gen = generator(cfg, cfg.clients);
    let updates: Vec<CertRequest> = (0..requests)
        .filter_map(|i| {
            let spec = gen.next_request(i as usize % cfg.clients).spec;
            if spec.read_only || spec.user_abort {
                return None;
            }
            let mut read_set = spec.read_set;
            read_set.upgrade_large_tables(cfg.table_lock_threshold);
            Some(CertRequest {
                site: SiteId((i % cfg.sites as u64) as u16),
                txn: i + 1,
                start_seq: 0,
                read_set,
                write_set: spec.write_set,
                write_bytes: spec.write_bytes,
            })
        })
        .collect();
    let n = updates.len() as u64;

    let mut bytes = 0;
    let marshal_replay = timed(n, || {
        for req in &updates {
            let wire = marshal(req);
            bytes += wire.len();
            black_box(unmarshal(wire).expect("own marshalling"));
        }
        0
    });

    let mut backend = cfg.cert_backend.new_backend();
    let certify = timed(n, || {
        for mut req in updates {
            let last = backend.last_committed();
            req.start_seq = last.saturating_sub(LAG);
            black_box(backend.certify(&req).expect("start_seq inside the window"));
            if last.is_multiple_of(256) {
                backend.gc(last.saturating_sub(cfg.history_window));
            }
        }
        0
    });
    CertReplay { marshal: marshal_replay, certify, mean_payload: bytes / n.max(1) as usize }
}

/// One site's share of the workload through `DbEngine::begin_local` /
/// `resolve` on a bare `Sim`: the site's share of the clients in a closed
/// loop with the workload's think time, until its share of the transaction
/// target completed, every commit request granted at once. No remote
/// write-sets, no certification aborts.
pub fn db(cfg: &ExperimentConfig) -> Replay {
    let clients = (cfg.clients / cfg.sites).max(1);
    let target = cfg.target_txns / cfg.sites as u64;
    let sim = Sim::new();
    let cpu =
        CpuBank::new(&sim, cfg.cpus_per_site, ProfilerMode::Synthetic { speed: cfg.cpu_speed });
    let engine =
        DbEngine::new(&sim, &cpu, cfg.storage, cfg.policy, derive_seed(cfg.seed, "storage"));
    struct Loop {
        sim: Sim,
        engine: DbEngine,
        gen: RefCell<TpccGen>,
        done: Cell<u64>,
        target: u64,
    }
    fn think(state: Rc<Loop>, client: usize) {
        let delay = state.gen.borrow_mut().think_time();
        let next = state.clone();
        state.sim.schedule_in(delay, move || fire(next, client));
    }
    fn fire(state: Rc<Loop>, client: usize) {
        let ClientRequest { spec, .. } = state.gen.borrow_mut().next_request(client);
        let (engine, next) = (state.engine.clone(), state.clone());
        state.engine.begin_local(
            spec,
            move |txn, _| engine.resolve(txn, true),
            move |_, outcome| {
                black_box(outcome);
                next.done.set(next.done.get() + 1);
                if next.done.get() == next.target {
                    next.sim.stop();
                } else if next.done.get() < next.target {
                    think(next, client);
                }
            },
        );
    }
    let state = Rc::new(Loop {
        sim: sim.clone(),
        engine,
        gen: RefCell::new(generator(cfg, clients)),
        done: Cell::new(0),
        target,
    });
    timed(target, || {
        for client in 0..clients {
            think(state.clone(), client);
        }
        sim.run();
        sim.events_executed()
    })
}

/// `requests` calls of `TpccGen::next_request` (and the think-time draw that
/// precedes each), round-robin over the clients.
pub fn tpcc(cfg: &ExperimentConfig, requests: u64) -> Replay {
    let mut gen = generator(cfg, cfg.clients);
    timed(requests, || {
        for i in 0..requests {
            black_box(gen.think_time());
            black_box(gen.next_request(i as usize % cfg.clients));
        }
        0
    })
}
