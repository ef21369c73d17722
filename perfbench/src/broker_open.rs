//! `broker-open`: an open loop of small seeded payloads at a fixed
//! `RATE`, well below the knee, through one publisher and one subscriber
//! connection over loopback to a `Broker` with its default config. Each
//! message is timed from its *due* time to its decode at the
//! subscriber, so a stall also charges the messages queued behind it.
//!
//! Why this workload: the reactor, the frame codec, the broker's tasks
//! and the kernel's socket path dominate here and the queue layers are a
//! small share. It is the user-facing publish-to-deliver number and the
//! workload that bypasses any L1/L2 change.

use crate::async_rpc::put_executor;
use crate::check::SeqCheck;
use crate::measure::{self, ns, Sampler, SplitMix};
use crate::trace::Spans;
use crate::{run_rounds, Cfg, Metrics, Outcome, Round};
use nbq::aio::AsyncQueue;
use nbq::net::frame::{self, Decoder, Frame};
use nbq::net::{Async, Broker, BrokerConfig, BrokerStats, NetMsg, Reactor};
use nbq::{CasQueue, ShardedConfig, ShardedQueue};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::runtime::Runtime;

/// Messages per second. Two workers saturate near 20 k/s on a 2-vCPU
/// host, and one message costs the broker and the generator together
/// about 85 us of CPU, so 10 k/s already uses 0.85 of the 2 CPUs: when
/// the shared host slowed for minutes at a time, 10 k/s crossed the knee
/// and p90 latency rose from 90 us to milliseconds. A quarter of the
/// knee keeps the open loop below it through such slow spells.
const RATE: f64 = 5_000.0;
const WORKERS: usize = 2;
/// Fresh set-ups per untraced run (see `run_rounds`).
const ROUNDS: u64 = 15;
const LANE_CAPACITY: usize = 1024;
const TOPIC: &str = "bench";
const WARMUP_MSGS: u64 = 500;
/// One message in `TRACE_EVERY` carries spans.
const TRACE_EVERY: u64 = 4;
/// How long the subscriber waits for a message before declaring the
/// rest lost.
const STALL: Duration = Duration::from_secs(3);
/// How often a blocked subscriber read re-checks whether the publisher
/// has finished.
const READ_POLL: Duration = Duration::from_millis(20);

type LaneFn = fn(usize) -> CasQueue<NetMsg>;

fn make_lane(_lane: usize) -> CasQueue<NetMsg> {
    CasQueue::with_capacity(LANE_CAPACITY)
}

/// The seeded payload of message `seq`: 16 to 64 bytes, the first eight
/// holding `seq` itself.
fn payload(seed: u64, seq: u64, out: &mut Vec<u8>) {
    let mut rng = SplitMix::new(seed ^ seq.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let len = 16 + (rng.next_u64() % 49) as usize;
    out.clear();
    out.extend_from_slice(&seq.to_le_bytes());
    while out.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
}

struct Env {
    // Sockets first: they close before the runtime shuts down.
    publisher: TcpStream,
    subscriber: TcpStream,
    pub_decoder: Decoder,
    sub_decoder: Decoder,
    rt: Runtime,
    broker: Arc<Broker<LaneFn>>,
    reactor: Arc<Reactor>,
    seed: u64,
    next_seq: u64,
    acks: Acks,
    attempted: u64,
    failed: u64,
}

fn build(seed: u64) -> Env {
    let reactor = Reactor::new().expect("epoll reactor");
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(WORKERS)
        .io_driver(reactor.clone())
        .enable_all()
        .build()
        .expect("runtime builds");
    let broker = Broker::new(
        reactor.clone(),
        BrokerConfig::default(),
        make_lane as LaneFn,
    );
    let listener = Async::bind(reactor.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    rt.spawn(broker.clone().serve(listener));
    let subscriber = TcpStream::connect(addr).expect("subscriber connects");
    subscriber.set_nodelay(true).expect("nodelay");
    subscriber
        .set_read_timeout(Some(READ_POLL))
        .expect("read timeout");
    (&subscriber)
        .write_all(&frame::encode(&Frame::Sub {
            topic: TOPIC.into(),
        }))
        .expect("SUB sent");
    let publisher = TcpStream::connect(addr).expect("publisher connects");
    publisher.set_nodelay(true).expect("nodelay");
    publisher
        .set_nonblocking(true)
        .expect("nonblocking publisher");
    let mut env = Env {
        publisher,
        subscriber,
        pub_decoder: Decoder::new(),
        sub_decoder: Decoder::new(),
        rt,
        broker,
        reactor,
        seed,
        next_seq: 0,
        acks: Acks::default(),
        attempted: 0,
        failed: 0,
    };
    // Warm-up, through the first deliveries: a burst, so that set-up
    // time is the stack's own work rather than the generator's pacing.
    let w = env.phase(
        Some(WARMUP_MSGS),
        Duration::from_secs(30),
        Duration::ZERO,
        false,
    );
    env.attempted += w.sent;
    env.failed += w.failed;
    env
}

// ---- the generator's two threads ----------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, n: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg: u64, a3: u64, a4: u64, a5: u64) -> i32;
}

const POLLIN: i16 = 1;
const POLLOUT: i16 = 4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Sleeps until `fd` is ready for `events` or `wait` passes.
fn wait_fd(fd: i32, events: i16, wait: Duration) {
    let mut p = PollFd {
        fd,
        events,
        revents: 0,
    };
    let t = Timespec {
        sec: wait.as_secs() as i64,
        nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: one valid `pollfd` and a valid `timespec`, both live for
    // the call; a null signal mask leaves the mask unchanged. The result
    // is only a wake-up hint, so errors (EINTR) need no handling.
    unsafe { ppoll(&mut p, 1, &t, std::ptr::null()) };
}

struct Publisher {
    sent: u64,
    failed: u64,
    lag_ns: Sampler,
    ack_rtt_ns: Sampler,
    cpu_ns: f64,
    spans: Spans,
}

/// The publisher's ACK bookkeeping, carried across phases.
#[derive(Default)]
struct Acks {
    /// `PUB`s acknowledged so far (ACKs are cumulative and in order).
    acked: u64,
    /// Write times of the `PUB`s not yet acknowledged, oldest first.
    unacked: VecDeque<Instant>,
}

/// When each message of a phase is due, and what it carries.
#[derive(Clone, Copy)]
struct Schedule {
    seed: u64,
    first_seq: u64,
    start: Instant,
    gap: Duration,
}

impl Schedule {
    fn due(&self, seq: u64) -> Instant {
        self.start + self.gap.mul_f64((seq - self.first_seq) as f64)
    }
}

/// Publishes on schedule, sleeping in `ppoll` on the ACK stream between
/// due times so that ACKs are timed as they arrive and the generator
/// leaves the CPUs to the broker.
///
/// A burst (gap 0, the warm-up) returns once everything is sent, leaving
/// the outstanding ACKs to the next phase: the broker's side of the
/// socket does not set `TCP_NODELAY`, so the last ACK of a burst can wait
/// for the client's delayed ACK (about 40 ms), which is not set-up work.
fn publish(
    sock: &TcpStream,
    decoder: &mut Decoder,
    sched: Schedule,
    acks: &mut Acks,
    limit: (Option<u64>, Instant),
    spans: Spans,
    sent_total: &AtomicU64,
) -> Publisher {
    // SAFETY: PR_SET_TIMERSLACK only changes this thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    let cpu0 = measure::thread_cpu_ns();
    let fd = sock.as_raw_fd();
    let traced = spans.enabled();
    let mut p = Publisher {
        sent: 0,
        failed: 0,
        lag_ns: Sampler::new(1 << 17),
        ack_rtt_ns: Sampler::new(1 << 17),
        cpu_ns: 0.0,
        spans,
    };
    let mut rbuf = vec![0u8; 16 * 1024];
    let mut wbuf = Vec::with_capacity(256);
    let mut body = Vec::with_capacity(64);
    let mut drain = |p: &mut Publisher, acks: &mut Acks| loop {
        match (&*sock).read(&mut rbuf) {
            Ok(0) => return false,
            Ok(n) => {
                let now = Instant::now();
                decoder.extend(&rbuf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(None) => break,
                        Ok(Some(Frame::Ack { seq })) => {
                            acks.acked += 1;
                            if seq != acks.acked {
                                p.failed += 1;
                            }
                            match acks.unacked.pop_front() {
                                Some(t) if t >= sched.start => p.ack_rtt_ns.record(ns(now - t)),
                                Some(_) => {}
                                None => p.failed += 1,
                            }
                        }
                        // Backpressure, not an error; the broker counts it.
                        Ok(Some(Frame::Busy { .. })) => {}
                        Ok(Some(_)) | Err(_) => p.failed += 1,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    };
    let (count, deadline) = limit;
    loop {
        let k = p.sent;
        if count.is_some_and(|c| k >= c) {
            break;
        }
        let seq = sched.first_seq + k;
        let due = sched.due(seq);
        if due >= deadline {
            break;
        }
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            wait_fd(fd, POLLIN, due - now);
            drain(&mut p, acks);
        }
        let t_send = Instant::now();
        p.lag_ns.record(ns(t_send - due));
        payload(sched.seed, seq, &mut body);
        wbuf.clear();
        let frame = Frame::Pub {
            topic: TOPIC.into(),
            payload: body.clone(),
        };
        frame::encode_into(&frame, &mut wbuf);
        let t_enc = Instant::now();
        let mut off = 0;
        while off < wbuf.len() {
            match (&*sock).write(&wbuf[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    wait_fd(fd, POLLOUT, Duration::from_millis(1));
                    drain(&mut p, acks);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let t_written = Instant::now();
        if off < wbuf.len() {
            p.failed += 1;
            break;
        }
        acks.unacked.push_back(t_written);
        p.sent += 1;
        if traced && seq.is_multiple_of(TRACE_EVERY) {
            p.spans.push("loadgen.lag", "msg", seq, due, t_send);
            p.spans.push("frame.encode", "msg", seq, t_send, t_enc);
            p.spans.push("net.write", "msg", seq, t_enc, t_written);
        }
    }
    sent_total.store(sched.first_seq + p.sent, Ordering::Release);
    // Every PUB must be acknowledged, in order.
    if !sched.gap.is_zero() {
        let until = Instant::now() + STALL;
        while !acks.unacked.is_empty() && Instant::now() < until {
            wait_fd(fd, POLLIN, Duration::from_millis(10));
            if !drain(&mut p, acks) {
                break;
            }
        }
        p.failed += acks.unacked.len() as u64;
        acks.unacked.clear();
    }
    p.cpu_ns = measure::thread_cpu_ns() - cpu0;
    p
}

struct Subscriber {
    delivered: u64,
    failed: u64,
    latency_ns: Sampler,
    last: Instant,
    cpu_ns: f64,
    spans: Spans,
}

/// Reads and checks deliveries: each must be the next sequence number
/// with exactly the payload the publisher generated for it.
fn subscribe(
    sock: &TcpStream,
    decoder: &mut Decoder,
    sched: Schedule,
    spans: Spans,
    sent_total: &AtomicU64,
) -> Subscriber {
    let cpu0 = measure::thread_cpu_ns();
    let traced = spans.enabled();
    let mut s = Subscriber {
        delivered: 0,
        failed: 0,
        latency_ns: Sampler::new(1 << 18),
        last: sched.start,
        cpu_ns: 0.0,
        spans,
    };
    let mut check = SeqCheck::new(sched.first_seq);
    let mut buf = vec![0u8; 16 * 1024];
    let mut expect = Vec::with_capacity(64);
    let mut progress = Instant::now();
    'read: while check.next() < sent_total.load(Ordering::Acquire) {
        let n = match (&*sock).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if progress.elapsed() > STALL {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        progress = Instant::now();
        decoder.extend(&buf[..n]);
        loop {
            let t0 = Instant::now();
            let fr = decoder.next_frame();
            let now = Instant::now();
            let payload_bytes = match fr {
                Ok(None) => break,
                Ok(Some(Frame::Msg { payload, .. })) if payload.len() >= 8 => payload,
                Ok(Some(_)) | Err(_) => {
                    s.failed += 1;
                    break 'read;
                }
            };
            let seq = u64::from_le_bytes(payload_bytes[..8].try_into().expect("8 bytes"));
            payload(sched.seed, seq, &mut expect);
            check.observe(seq, payload_bytes == expect);
            s.delivered += 1;
            s.last = now;
            let due = sched.due(seq.max(sched.first_seq));
            s.latency_ns.record(ns(now.saturating_duration_since(due)));
            if traced && seq.is_multiple_of(TRACE_EVERY) {
                s.spans.push("msg", "", seq, due, now);
                s.spans.push("frame.decode", "msg", seq, t0, now);
            }
        }
    }
    s.failed += check.finish(sent_total.load(Ordering::Acquire));
    s.cpu_ns = measure::thread_cpu_ns() - cpu0;
    s
}

struct Phase {
    sent: u64,
    delivered: u64,
    failed: u64,
    elapsed: Duration,
    generator_cpu_ns: f64,
    publisher: Publisher,
    subscriber: Subscriber,
}

impl Env {
    /// Publishes `count` messages (or until `dur` passes), one every
    /// `gap`, and waits for every delivery and ACK.
    fn phase(&mut self, count: Option<u64>, dur: Duration, gap: Duration, traced: bool) -> Phase {
        let start = Instant::now() + Duration::from_millis(1);
        let sched = Schedule {
            seed: self.seed,
            first_seq: self.next_seq,
            start,
            gap,
        };
        let sent_total = AtomicU64::new(u64::MAX);
        let cap = if traced { 1 << 18 } else { 0 };
        let acks = &mut self.acks;
        let (pub_sock, sub_sock) = (&self.publisher, &self.subscriber);
        let (pub_dec, sub_dec) = (&mut self.pub_decoder, &mut self.sub_decoder);
        let main0 = measure::thread_cpu_ns();
        let (publisher, subscriber) = std::thread::scope(|sc| {
            let sent_total = &sent_total;
            let sub = sc.spawn(move || {
                subscribe(sub_sock, sub_dec, sched, Spans::new(start, cap), sent_total)
            });
            let publ = sc.spawn(move || {
                publish(
                    pub_sock,
                    pub_dec,
                    sched,
                    acks,
                    (count, start + dur),
                    Spans::new(start, cap),
                    sent_total,
                )
            });
            let p = publ.join().expect("publisher thread");
            let s = sub.join().expect("subscriber thread");
            (p, s)
        });
        let main_cpu = measure::thread_cpu_ns() - main0;
        self.next_seq += publisher.sent;
        Phase {
            sent: publisher.sent,
            delivered: subscriber.delivered,
            failed: publisher.failed + subscriber.failed,
            elapsed: subscriber.last.saturating_duration_since(start),
            generator_cpu_ns: publisher.cpu_ns + subscriber.cpu_ns + main_cpu,
            publisher,
            subscriber,
        }
    }

    /// The broker's counters once its writer has accounted for every
    /// delivery the subscriber saw (the count lands after the write).
    fn settled_stats(&self, delivered: u64) -> BrokerStats {
        let until = Instant::now() + Duration::from_secs(2);
        loop {
            let s = self.broker.stats();
            if s.delivered >= delivered || Instant::now() >= until {
                return s;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

struct Window {
    phase: Phase,
    cpu_ns: f64,
    stats: BrokerStats,
    dispatched: u64,
    exec: (
        tokio::runtime::RuntimeMetrics,
        tokio::runtime::RuntimeMetrics,
    ),
}

fn measure(env: &mut Env, secs: f64, traced: bool) -> Window {
    let s0 = env.settled_stats(env.next_seq);
    let (d0, m0) = (env.reactor.dispatched(), env.rt.metrics());
    let cpu0 = measure::process_cpu_ns();
    let gap = Duration::from_secs_f64(1.0 / RATE);
    let phase = env.phase(None, Duration::from_secs_f64(secs), gap, traced);
    let cpu1 = measure::process_cpu_ns();
    let (d1, m1) = (env.reactor.dispatched(), env.rt.metrics());
    let s1 = env.settled_stats(s0.delivered + phase.delivered);
    let stats = delta(&s1, &s0);
    // The broker must agree with the client: every message published
    // once, delivered once, no connection dropped as malformed.
    let mut failed = phase.failed;
    if stats.published != phase.sent || stats.delivered != phase.sent {
        failed += 1;
    }
    failed += stats.malformed;
    env.attempted += phase.sent;
    env.failed += failed;
    Window {
        cpu_ns: (cpu1 - cpu0) - phase.generator_cpu_ns,
        stats,
        dispatched: d1 - d0,
        exec: (m0, m1),
        phase,
    }
}

fn delta(a: &BrokerStats, b: &BrokerStats) -> BrokerStats {
    BrokerStats {
        connections: a.connections - b.connections,
        frames_in: a.frames_in - b.frames_in,
        frames_out: a.frames_out - b.frames_out,
        published: a.published - b.published,
        delivered: a.delivered - b.delivered,
        busy: a.busy - b.busy,
        watermark_hits: a.watermark_hits - b.watermark_hits,
        requeued: a.requeued - b.requeued,
        malformed: a.malformed - b.malformed,
        topics: a.topics - b.topics,
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    if cfg.trace {
        return run_traced(cfg);
    }
    run_rounds(cfg, ROUNDS, |seed, secs| {
        let t = Instant::now();
        let mut env = build(seed);
        let setup_s = t.elapsed().as_secs_f64();
        let w = measure(&mut env, secs, false);
        let ops = w.phase.delivered.max(1) as f64;
        let lat = w.phase.subscriber.latency_ns.sorted();
        let mut m = Metrics::default();
        m.put("ops_per_s", ops / w.phase.elapsed.as_secs_f64(), "1/s");
        m.put("latency_p50_us", measure::percentile(&lat, 0.5) / 1e3, "us");
        m.put("latency_p90_us", measure::percentile(&lat, 0.9) / 1e3, "us");
        m.put("cpu_ns_per_op", w.cpu_ns / ops, "ns");
        let lag_p90_us = measure::percentile(&w.phase.publisher.lag_ns.sorted(), 0.9) / 1e3;
        Round {
            setup_s,
            metrics: m,
            attempted: env.attempted,
            failed: env.failed,
            lag_p90_us,
        }
    })
}

fn run_traced(cfg: &Cfg) -> Outcome {
    let half = cfg.seconds / 2.0;
    let mut base = build(cfg.seed);
    let w0 = measure(&mut base, half, false);
    let (a0, f0) = (base.attempted, base.failed);
    drop(base);

    let mut env = build(cfg.seed);
    let w = measure(&mut env, half, true);
    let ops = w.phase.delivered.max(1) as f64;
    let per_msg = |x: u64| x as f64 / ops;
    let mut m = Metrics::default();
    put_executor(&mut m, &w.exec.0, &w.exec.1, ops);
    m.put("reactor.dispatched_per_msg", per_msg(w.dispatched), "count");
    let mut spans = w.phase.subscriber.spans;
    spans.extend(w.phase.publisher.spans);
    m.put("frame.encode_ns", spans.mean_ns("frame.encode"), "ns");
    m.put("frame.decode_ns", spans.mean_ns("frame.decode"), "ns");
    let rtt = w.phase.publisher.ack_rtt_ns.sorted();
    m.put(
        "broker.ack_rtt_us",
        measure::percentile(&rtt, 0.5) / 1e3,
        "us",
    );
    m.put(
        "broker.frames_in_per_msg",
        per_msg(w.stats.frames_in),
        "count",
    );
    m.put(
        "broker.frames_out_per_msg",
        per_msg(w.stats.frames_out),
        "count",
    );
    m.put("broker.busy_per_msg", per_msg(w.stats.busy), "count");
    m.put(
        "broker.watermark_hits",
        w.stats.watermark_hits as f64,
        "count",
    );
    m.put("broker.malformed", w.stats.malformed as f64, "count");
    m.put(
        "loadgen.cpu_ns_per_op",
        w.phase.generator_cpu_ns / ops,
        "ns",
    );

    // Publish-to-deliver split. From the benchmark's side of the socket
    // the broker is one span: the generator's lateness is the loadgen's,
    // the client codec and syscalls and the whole broker path the net
    // layer's. The queue layers' part of that path is bounded by the
    // cost of one uncontended hop through a topic-shaped queue.
    let (layers, total) = spans.self_time("msg");
    if total > 0.0 {
        let share = |l: &str| layers.get(l).copied().unwrap_or(0.0) / total;
        m.put("loadgen.self_share", share("loadgen"), "ratio");
        m.put(
            "net.self_share",
            share("frame") + share("net") + share("msg"),
            "ratio",
        );
        let mean_msg = spans.mean_ns("msg");
        m.put("broker.queue_hop_share", queue_hop_ns() / mean_msg, "ratio");
    }
    let untraced = w0.cpu_ns / w0.phase.delivered.max(1) as f64;
    m.put("trace.overhead_ratio", (w.cpu_ns / ops) / untraced, "ratio");
    cfg.write_trace(&spans);
    let mut out = Outcome::new(a0 + env.attempted, f0 + env.failed, m);
    out.lag_p90_us = measure::percentile(&w.phase.publisher.lag_ns.sorted(), 0.9) / 1e3;
    out.span_drops = spans.dropped;
    out
}

/// Mean ns of one publish-and-take through a queue shaped like a broker
/// topic (default lanes, MPSC fast path, pinned publisher lane).
fn queue_hop_ns() -> f64 {
    const N: u32 = 100_000;
    let defaults = BrokerConfig::default();
    let cfg = ShardedConfig {
        lane_policy: defaults.lane_policy,
        ..ShardedConfig::with_lanes(defaults.lanes)
    };
    let q = AsyncQueue::new(ShardedQueue::with_config(cfg, make_lane as LaneFn));
    let mut msg = Some(NetMsg {
        payload: vec![0u8; 40],
    });
    let start = Instant::now();
    for _ in 0..N {
        let mut h = q.inner().handle_pinned(0);
        let sent = q.try_send_with_handle(&mut h, msg.take().expect("message in hand"));
        drop(h);
        assert!(sent.is_ok(), "an empty queue accepts a message");
        msg = q.try_recv();
    }
    assert!(msg.is_some(), "the message made it through");
    ns(start.elapsed()) / f64::from(N)
}
