//! Model validation (§4.2): the micro-benchmarks of Fig. 3 (UDP flooding
//! bandwidth and round-trips, real vs. CSRT) and the Fig. 4 Q-Q comparison
//! against a *really concurrent* executor ([`real_rig_run`]).
//!
//! The "real" sides substitute for the paper's physical testbed: flooding
//! and round-trips run the native bridge's transport on the loopback
//! interface, and the Fig. 4 reference is a multi-threaded in-memory engine
//! executing the same TPC-C workload in wall-clock time with real locks.
//! The simulated sides charge [`dbsm_gcs::OVERHEAD`], the CSRT send and
//! receive costs the simulation bridge charges in every run, so Fig. 3
//! validates exactly the calibration the experiments use.
//! What §4.2 validates is that the model's queueing (transport overheads,
//! CPU contention, lock waits) reproduces the shape of a real execution;
//! the substitutes keep real sockets, real threads and real locks on the
//! measured side, so the model is still compared against genuinely
//! concurrent code (commands in `docs/EXPERIMENTS.md`).

use crate::cluster::run_experiment;
use crate::experiment::ExperimentConfig;
use bytes::Bytes;
use dbsm_gcs::OVERHEAD;
use dbsm_net::{Addr, Dest, NetworkBuilder, Port, SegmentConfig};
use dbsm_sim::stats::Samples;
use dbsm_sim::{CpuBank, ProfilerMode, Sim, SimTime};
use dbsm_tpcc::{TpccConfig, TpccGen};
use std::time::{Duration, Instant};

/// Result of one flooding measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodResult {
    /// Application-level bandwidth written to the socket, Mbit/s (Fig. 3a).
    pub written_mbit: f64,
    /// Bandwidth arriving at the receiver, Mbit/s (Fig. 3b).
    pub received_mbit: f64,
}

/// Simulated flooding benchmark: one sender saturates a UDP socket on a
/// 100 Mbps LAN for `duration` of virtual time, with the CSRT charging
/// [`OVERHEAD`] per message.
pub fn flood_sim(msg_size: usize, duration: Duration) -> FloodResult {
    let sim = Sim::new();
    let mut nb = NetworkBuilder::new(&sim);
    let mut lan_cfg = SegmentConfig::fast_ethernet();
    lan_cfg.mtu = 9000; // the benchmark sweeps past 1500B payloads
    let lan = nb.lan(lan_cfg);
    let tx = nb.host(lan);
    let rx = nb.host(lan);
    let net = nb.build();
    let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());

    let recv_bytes = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let rb = recv_bytes.clone();
    net.bind(Addr::new(rx, Port(9)), move |dg| {
        rb.set(rb.get() + dg.payload.len() as u64);
    })
    .expect("bind receiver");

    let sent = std::rc::Rc::new(std::cell::Cell::new(0u64));
    // Self-rescheduling real job: each send costs the CSRT overhead, so the
    // achievable write rate is CPU-bound exactly as in the real system.
    struct Pump {
        cpu: CpuBank,
        net: dbsm_net::Network,
        tx: Addr,
        rx: Addr,
        payload: Bytes,
        sent: std::rc::Rc<std::cell::Cell<u64>>,
        until: SimTime,
    }
    fn pump_once(p: std::rc::Rc<Pump>) {
        let p2 = p.clone();
        p.cpu.submit_real(Box::new(move |ctx| {
            ctx.charge(OVERHEAD.send_cost(p2.payload.len()));
            let net = p2.net.clone();
            let (tx, rx, payload) = (p2.tx, p2.rx, p2.payload.clone());
            ctx.schedule(Duration::ZERO, move || {
                net.send(tx, Dest::Unicast(rx), payload);
            });
            p2.sent.set(p2.sent.get() + 1);
            if ctx.now() < p2.until {
                let p3 = p2.clone();
                ctx.schedule(Duration::ZERO, move || pump_once(p3));
            }
        }));
    }
    let pump = std::rc::Rc::new(Pump {
        cpu: cpu.clone(),
        net: net.clone(),
        tx: Addr::new(tx, Port(1)),
        rx: Addr::new(rx, Port(9)),
        payload: Bytes::from(vec![0u8; msg_size]),
        sent: sent.clone(),
        until: SimTime::ZERO + duration,
    });
    pump_once(pump);
    // Measure reception strictly inside the send window: packets still in
    // flight (or draining from the transmit backlog) when the window closes
    // do not count, matching how the real benchmark samples.
    sim.run_until(SimTime::ZERO + duration);
    let received_in_window = recv_bytes.get();
    let secs = duration.as_secs_f64();
    FloodResult {
        written_mbit: sent.get() as f64 * msg_size as f64 * 8.0 / 1e6 / secs,
        received_mbit: received_in_window as f64 * 8.0 / 1e6 / secs,
    }
}

/// Native flooding benchmark over loopback UDP. `wire_cap_mbit` optionally
/// rate-shapes reception to emulate the paper's 100 Mbps Ethernet (loopback
/// has no such limit).
pub fn flood_native(
    msg_size: usize,
    duration: Duration,
    wire_cap_mbit: Option<f64>,
) -> std::io::Result<FloodResult> {
    use std::net::UdpSocket;
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    rx.set_nonblocking(true)?;
    let rx_addr = rx.local_addr()?;
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    let payload = vec![0u8; msg_size];
    let start = Instant::now();
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut buf = vec![0u8; 65536];
    let cap_bytes_per_sec = wire_cap_mbit.map(|m| m * 1e6 / 8.0);
    while start.elapsed() < duration {
        // UDP on loopback can drop at the socket buffer; that is authentic.
        if tx.send_to(&payload, rx_addr).is_ok() {
            sent += 1;
        }
        // Drain the receiver opportunistically.
        while let Ok((n, _)) = rx.recv_from(&mut buf) {
            // Apply the emulated wire cap by discarding beyond the budget.
            let budget = cap_bytes_per_sec
                .map(|c| (c * start.elapsed().as_secs_f64()) as u64)
                .unwrap_or(u64::MAX);
            if received + n as u64 <= budget {
                received += n as u64;
            }
        }
    }
    let secs = duration.as_secs_f64();
    Ok(FloodResult {
        written_mbit: sent as f64 * msg_size as f64 * 8.0 / 1e6 / secs,
        received_mbit: received as f64 * 8.0 / 1e6 / secs,
    })
}

/// Simulated round-trip time for `n` ping-pongs of `msg_size` bytes
/// (Fig. 3c): two hosts on the LAN, [`OVERHEAD`] charged on both ends.
pub fn rtt_sim(msg_size: usize, n: u32) -> Duration {
    let sim = Sim::new();
    let mut nb = NetworkBuilder::new(&sim);
    let mut lan_cfg = SegmentConfig::fast_ethernet();
    lan_cfg.mtu = 9000;
    let lan = nb.lan(lan_cfg);
    let a = nb.host(lan);
    let b = nb.host(lan);
    let net = nb.build();
    let cpu_a = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
    let cpu_b = CpuBank::new(&sim, 1, ProfilerMode::synthetic());

    let addr_a = Addr::new(a, Port(1));
    let addr_b = Addr::new(b, Port(2));
    let remaining = std::rc::Rc::new(std::cell::Cell::new(n));
    let done_at = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));

    // Responder: echo back, charging receive+send overhead.
    {
        let net2 = net.clone();
        let cpu_b2 = cpu_b.clone();
        net.bind(addr_b, move |dg| {
            let net3 = net2.clone();
            let payload = dg.payload.clone();
            let from = dg.from;
            cpu_b2.submit_real(Box::new(move |ctx| {
                ctx.charge(OVERHEAD.recv_cost(payload.len()));
                ctx.charge(OVERHEAD.send_cost(payload.len()));
                let net4 = net3.clone();
                ctx.schedule(Duration::ZERO, move || {
                    net4.send(addr_b, Dest::Unicast(from), payload);
                });
            }));
        })
        .expect("bind responder");
    }
    // Initiator: send, await echo, repeat.
    {
        let net2 = net.clone();
        let cpu_a2 = cpu_a.clone();
        let remaining2 = remaining.clone();
        let done2 = done_at.clone();
        let send_ping = std::rc::Rc::new(move |payload: Bytes| {
            let net3 = net2.clone();
            cpu_a2.submit_real(Box::new(move |ctx| {
                ctx.charge(OVERHEAD.send_cost(payload.len()));
                let net4 = net3.clone();
                ctx.schedule(Duration::ZERO, move || {
                    net4.send(addr_a, Dest::Unicast(addr_b), payload);
                });
            }));
        });
        let sp2 = send_ping.clone();
        let cpu_a3 = cpu_a.clone();
        net.bind(addr_a, move |dg| {
            let sp3 = sp2.clone();
            let remaining3 = remaining2.clone();
            let done3 = done2.clone();
            let payload = dg.payload.clone();
            cpu_a3.submit_real(Box::new(move |ctx| {
                ctx.charge(OVERHEAD.recv_cost(payload.len()));
                let left = remaining3.get() - 1;
                remaining3.set(left);
                if left == 0 {
                    done3.set(ctx.now());
                } else {
                    let sp4 = sp3.clone();
                    ctx.schedule(Duration::ZERO, move || sp4(payload));
                }
            }));
        })
        .expect("bind initiator");
        send_ping(Bytes::from(vec![0u8; msg_size]));
    }
    sim.run();
    Duration::from_nanos(done_at.get().as_nanos() / u64::from(n))
}

/// Native round-trip over loopback UDP.
pub fn rtt_native(msg_size: usize, n: u32) -> std::io::Result<Duration> {
    use std::net::UdpSocket;
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    a.set_read_timeout(Some(Duration::from_secs(2)))?;
    b.set_read_timeout(Some(Duration::from_secs(2)))?;
    let (addr_a, addr_b) = (a.local_addr()?, b.local_addr()?);
    let payload = vec![0u8; msg_size];
    let mut buf = vec![0u8; 65536];
    // Echo thread.
    let echo = std::thread::spawn(move || {
        let mut buf = vec![0u8; 65536];
        for _ in 0..n {
            match b.recv_from(&mut buf) {
                Ok((len, _)) => {
                    let _ = b.send_to(&buf[..len], addr_a);
                }
                Err(_) => break,
            }
        }
    });
    let start = Instant::now();
    let mut completed = 0u32;
    for _ in 0..n {
        if a.send_to(&payload, addr_b).is_err() {
            break;
        }
        match a.recv_from(&mut buf) {
            Ok(_) => completed += 1,
            Err(_) => break,
        }
    }
    let elapsed = start.elapsed();
    let _ = echo.join();
    if completed == 0 {
        return Err(std::io::Error::other("no round trips completed"));
    }
    Ok(elapsed / completed)
}

/// Latency samples split the way Fig. 4 splits them.
#[derive(Debug, Clone, Default)]
pub struct LatencySplit {
    /// Read-only transaction latencies, milliseconds.
    pub read_only_ms: Samples,
    /// Update transaction latencies, milliseconds.
    pub update_ms: Samples,
}

/// Configuration of the Fig. 4 validation comparison.
#[derive(Debug, Clone, Copy)]
pub struct RigConfig {
    /// Concurrent clients (the paper validates with 20).
    pub clients: usize,
    /// Transactions to execute (the paper uses 5000; tests scale down).
    pub txns: u64,
    /// Worker threads standing in for CPUs.
    pub cores: usize,
    /// Scale applied to CPU demands (shrinks wall-clock cost of the rig).
    pub cpu_scale: f64,
    /// Scale applied to think times.
    pub think_scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            clients: 20,
            txns: 1000,
            cores: 2,
            cpu_scale: 0.05,
            think_scale: 0.002,
            seed: 42,
        }
    }
}

/// The "real system" stand-in for Fig. 4: a genuinely concurrent in-memory
/// engine — client threads, a shared lock table behind a mutex (the same
/// `dbsm-db` policy code), semaphore-limited storage with real sleeps, and
/// CPU demands burned as actual busy-work on a bounded worker pool.
pub fn real_rig_run(cfg: RigConfig) -> LatencySplit {
    use dbsm_db::{Acquire, CcPolicy, LockTable, OwnerKind, TxnId};
    use std::sync::{Arc, Condvar, Mutex};

    struct Rig {
        locks: Mutex<LockTable>,
        aborted: Mutex<std::collections::BTreeSet<TxnId>>,
        lock_cv: Condvar,
        /// Storage channels in use.
        disk: Mutex<usize>,
        disk_cv: Condvar,
        /// Busy worker cores.
        cores: Mutex<usize>,
        cores_cv: Condvar,
        cfg: RigConfig,
        issued: Mutex<u64>,
    }

    impl Rig {
        fn spin(&self, d: Duration) {
            // Acquire a core, burn real cycles, release.
            {
                let mut busy = self.cores.lock().expect("cores lock");
                while *busy >= self.cfg.cores {
                    busy = self.cores_cv.wait(busy).expect("cores wait");
                }
                *busy += 1;
            }
            let t0 = Instant::now();
            while t0.elapsed() < d {
                std::hint::black_box(0u64);
            }
            {
                let mut busy = self.cores.lock().expect("cores lock");
                *busy -= 1;
            }
            self.cores_cv.notify_one();
        }

        /// Sleeps for `d` with sub-OS-tick precision: a coarse sleep for
        /// the bulk and a spin for the tail, so scaled-down disk latencies
        /// are not swamped by timer slack.
        fn precise_sleep(d: Duration) {
            let t0 = Instant::now();
            if d > Duration::from_micros(900) {
                std::thread::sleep(d - Duration::from_micros(600));
            }
            while t0.elapsed() < d {
                std::hint::black_box(0u64);
            }
        }

        /// The storage device: one request at a time (an M/D/1 stand-in for
        /// the 4-channel device), service time `sectors/channels × latency`.
        fn disk_io(&self, sectors: u32, latency: Duration, channels: usize) {
            if sectors == 0 {
                return;
            }
            {
                let mut used = self.disk.lock().expect("disk lock");
                while *used >= 1 {
                    used = self.disk_cv.wait(used).expect("disk wait");
                }
                *used += 1;
            }
            let service = latency.mul_f64(f64::from(sectors) / channels as f64);
            Rig::precise_sleep(service);
            {
                let mut used = self.disk.lock().expect("disk lock");
                *used -= 1;
            }
            self.disk_cv.notify_one();
        }
    }

    let rig = Arc::new(Rig {
        locks: Mutex::new(LockTable::new(CcPolicy::MultiVersion)),
        aborted: Mutex::new(std::collections::BTreeSet::new()),
        lock_cv: Condvar::new(),
        disk: Mutex::new(0),
        disk_cv: Condvar::new(),
        cores: Mutex::new(0),
        cores_cv: Condvar::new(),
        cfg,
        issued: Mutex::new(0),
    });
    let mut tpcc_cfg = TpccConfig::new(cfg.clients);
    tpcc_cfg.seed = cfg.seed;
    let gen = Arc::new(Mutex::new(TpccGen::new(tpcc_cfg)));
    let results = Arc::new(Mutex::new(LatencySplit::default()));

    // Storage latency scaled consistently with CPU scale.
    let disk_latency = Duration::from_secs_f64(1650e-6 * cfg.cpu_scale.max(0.01));
    let disk_channels = 4;

    let mut handles = Vec::new();
    for client in 0..cfg.clients {
        let rig = rig.clone();
        let gen = gen.clone();
        let results = results.clone();
        handles.push(std::thread::spawn(move || {
            let mut next_txn = (client as u64 + 1) << 32;
            loop {
                // Claim a transaction slot.
                {
                    let mut issued = rig.issued.lock().expect("issued");
                    if *issued >= rig.cfg.txns {
                        return;
                    }
                    *issued += 1;
                }
                let (req, think) = {
                    let mut g = gen.lock().expect("gen");
                    (g.next_request(client), g.think_time())
                };
                std::thread::sleep(Duration::from_secs_f64(
                    think.as_secs_f64() * rig.cfg.think_scale,
                ));
                let spec = req.spec;
                let t0 = Instant::now();
                next_txn += 1;
                let txn = TxnId(next_txn);
                // Atomic lock acquisition with the multiversion policy.
                let mut acquired = spec.read_only;
                let mut aborted = false;
                if !spec.read_only {
                    let mut lt = rig.locks.lock().expect("locks");
                    match lt.acquire(txn, spec.write_set.ids().to_vec(), OwnerKind::LocalAbortable)
                    {
                        Acquire::Granted => acquired = true,
                        Acquire::Queued => {
                            // Wait until granted or aborted by a commit.
                            loop {
                                lt = rig.lock_cv.wait(lt).expect("lock wait");
                                if lt.is_holder(txn) {
                                    acquired = true;
                                    break;
                                }
                                if rig.aborted.lock().expect("aborted").remove(&txn) {
                                    aborted = true;
                                    break;
                                }
                            }
                        }
                        Acquire::Preempt(_) => unreachable!("no remote txns in the rig"),
                    }
                }
                if acquired {
                    rig.spin(Duration::from_secs_f64(spec.cpu.as_secs_f64() * rig.cfg.cpu_scale));
                    if !spec.read_only && !spec.user_abort {
                        rig.disk_io(spec.write_set.len() as u32, disk_latency, disk_channels);
                    }
                    if !spec.read_only {
                        let mut lt = rig.locks.lock().expect("locks");
                        let fx = lt.release(txn, !spec.user_abort);
                        drop(lt);
                        if !fx.aborted.is_empty() {
                            let mut ab = rig.aborted.lock().expect("aborted");
                            ab.extend(fx.aborted.iter().copied());
                        }
                        rig.lock_cv.notify_all();
                    }
                }
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                if !aborted && !spec.user_abort {
                    let mut r = results.lock().expect("results");
                    if spec.read_only {
                        r.read_only_ms.record(latency_ms);
                    } else {
                        r.update_ms.record(latency_ms);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("rig thread");
    }
    Arc::try_unwrap(results).map(|m| m.into_inner().expect("results lock")).unwrap_or_default()
}

/// The simulation side of Fig. 4: the same scaled workload through the
/// centralized model.
pub fn sim_rig_run(cfg: RigConfig) -> LatencySplit {
    let mut xc = ExperimentConfig::centralized(cfg.cores, cfg.clients)
        .with_target(cfg.txns)
        .with_seed(cfg.seed);
    // Scale CPU demands and think times identically to the rig. CPU speed
    // scales simulated processing, so speed = 1/scale shrinks demands.
    xc.think_mean = Duration::from_secs_f64(xc.think_mean.as_secs_f64() * cfg.think_scale);
    xc.storage.latency = Duration::from_secs_f64(1650e-6 * cfg.cpu_scale.max(0.01));
    // The rig has no certification; switch read validation off for parity.
    xc.certify_read_only = false;
    // Scale per-transaction CPU by running the CPUs faster.
    xc.cpu_speed = 1.0 / cfg.cpu_scale;
    let metrics = run_experiment(xc);
    let mut split = LatencySplit::default();
    for class in dbsm_tpcc::TxnClass::ALL {
        let s = metrics.class(class);
        if class.read_only() {
            split.read_only_ms.merge(&s.latencies_ms);
        } else {
            split.update_ms.merge(&s.latencies_ms);
        }
    }
    split
}
