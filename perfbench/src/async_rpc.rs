//! `async-rpc`: a closed loop with `WINDOW` requests in flight. A client
//! task `send`s scalar requests into one `AsyncQueue` over a
//! `ShardedQueue` of MPSC fast-path lanes; a server task drains them
//! with `recv_batch` and answers with `send_batch` on a second queue.
//! Both tasks run on the vendored work-stealing runtime with two
//! workers.
//!
//! Why this workload: it puts the waiter registry and the executor's
//! wake-to-poll (L3/L4) on the critical path, and it drives the lane
//! layer through batch calls on the MPSC ring rather than `lane-mix`'s
//! scalar calls on MPMC lanes, so a change that speeds one path and
//! slows the other shows. The bounded window keeps latency equal to the
//! cost of a hop, not to queue depth.

use crate::lane_mix::{lane_counters, LaneCounters};
use crate::measure::{self, ns, Sampler, SplitMix};
use crate::trace::{Spans, Timed};
use crate::{run_rounds, Cfg, Metrics, Outcome, Round};
use nbq::aio::AsyncQueue;
use nbq::{CasQueue, ShardedConfig, ShardedQueue};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::runtime::{Runtime, RuntimeMetrics};

const WORKERS: usize = 2;
/// Fresh set-ups per untraced run (see `run_rounds`).
const ROUNDS: u64 = 30;
/// Requests in flight. A window of `w` splits round trips into `w`
/// latency modes by position in the server's batch; with an even window
/// the median falls in the gap between two modes and jumps between them
/// from run to run, with an odd one it falls inside the middle mode.
const WINDOW: usize = 5;
const LANES: usize = 2;
const LANE_CAPACITY: usize = 256;
const WARMUP_ROUND_TRIPS: u64 = 20_000;
/// One request in `TRACE_EVERY` carries spans.
const TRACE_EVERY: u64 = 512;
/// A phase this far past its deadline has lost a reply.
const STALL: Duration = Duration::from_secs(5);
/// Round trips of the separate counting pass: the queues' atomic
/// counters would slow the timed spans, so counts come from their own
/// pass.
const COUNT_ROUND_TRIPS: u64 = 100_000;

#[derive(Clone, Copy)]
struct Req {
    seq: u64,
    slot: usize,
    x: u64,
}

struct Resp {
    seq: u64,
    slot: usize,
    y: u64,
}

/// The server's reply to `x`; the client recomputes it to check.
fn answer(x: u64) -> u64 {
    x.rotate_left(17) ^ 0x5bd1_e995
}

type Chan<T> = AsyncQueue<T, ShardedQueue<T, CasQueue<T>>>;

fn channel<T: Send>(stats: bool) -> Chan<T> {
    let cfg = ShardedConfig::with_lanes(LANES).mpsc_fast_path();
    let q = ShardedQueue::with_config(cfg, |_lane: usize| {
        if stats {
            CasQueue::with_stats(LANE_CAPACITY)
        } else {
            CasQueue::with_capacity(LANE_CAPACITY)
        }
    });
    if stats {
        AsyncQueue::with_stats(q)
    } else {
        AsyncQueue::new(q)
    }
}

struct Shared {
    req: Chan<Req>,
    resp: Chan<Resp>,
    traced: bool,
    anchor: Instant,
}

struct ServerEnd {
    calls: u64,
    items: u64,
    spans: Spans,
}

struct Env {
    rt: Runtime,
    shared: Arc<Shared>,
    server: Option<tokio::task::JoinHandle<ServerEnd>>,
    rng: SplitMix,
    next_seq: u64,
    failed: u64,
    attempted: u64,
}

impl Drop for Env {
    fn drop(&mut self) {
        self.shared.req.close();
        self.shared.resp.close();
    }
}

async fn server(shared: Arc<Shared>) -> ServerEnd {
    let mut end = ServerEnd {
        calls: 0,
        items: 0,
        spans: Spans::new(shared.anchor, if shared.traced { 1 << 19 } else { 0 }),
    };
    let mut polls = Vec::with_capacity(64);
    loop {
        polls.clear();
        let batch = if shared.traced {
            Timed {
                inner: shared.req.recv_batch(WINDOW),
                polls: &mut polls,
            }
            .await
        } else {
            shared.req.recv_batch(WINDOW).await
        };
        if batch.is_empty() {
            return end; // closed and drained
        }
        let sampled: Vec<u64> = batch
            .iter()
            .map(|r| r.seq)
            .filter(|s| s % TRACE_EVERY == 0)
            .collect();
        for &id in &sampled {
            for &(s, e) in &polls {
                end.spans.push("async.recv_batch", "rpc", id, s, e);
            }
        }
        end.calls += 2;
        end.items += 2 * batch.len() as u64;
        let out: Vec<Resp> = batch
            .into_iter()
            .map(|r| Resp {
                seq: r.seq,
                slot: r.slot,
                y: answer(r.x),
            })
            .collect();
        polls.clear();
        let sent = if shared.traced {
            Timed {
                inner: shared.resp.send_batch(out),
                polls: &mut polls,
            }
            .await
        } else {
            shared.resp.send_batch(out).await
        };
        if sent.is_err() {
            return end;
        }
        for &id in &sampled {
            for &(s, e) in &polls {
                end.spans.push("async.send_batch", "rpc", id, s, e);
            }
        }
    }
}

struct ClientEnd {
    round_trips: u64,
    failed: u64,
    rtt_ns: Sampler,
    spans: Spans,
    next_seq: u64,
}

/// Sends the next request in `slot`; `None` if the channel refused it.
async fn issue(
    shared: &Shared,
    end: &mut ClientEnd,
    rng: &mut SplitMix,
    slot: usize,
) -> Option<(Req, Instant)> {
    let req = Req {
        seq: end.next_seq,
        slot,
        x: rng.next_u64(),
    };
    end.next_seq += 1;
    let t0 = Instant::now();
    if shared.req.send(req).await.is_err() {
        end.failed += 1;
        return None;
    }
    if shared.traced && req.seq.is_multiple_of(TRACE_EVERY) {
        end.spans
            .push("async.send", "rpc", req.seq, t0, Instant::now());
    }
    Some((req, t0))
}

/// Runs the closed loop until `round_trips` are done or `deadline`
/// passes, then drains the window so the system is idle again.
async fn client(
    shared: Arc<Shared>,
    mut rng: SplitMix,
    first_seq: u64,
    round_trips: u64,
    deadline: Instant,
) -> (ClientEnd, SplitMix) {
    let traced = shared.traced;
    let mut end = ClientEnd {
        round_trips: 0,
        failed: 0,
        rtt_ns: Sampler::new(1 << 16),
        spans: Spans::new(shared.anchor, if traced { 1 << 19 } else { 0 }),
        next_seq: first_seq,
    };
    let mut inflight: [Option<(Req, Instant)>; WINDOW] = [None; WINDOW];
    let mut polls = Vec::with_capacity(64);
    let mut stopping = false;
    for (slot, entry) in inflight.iter_mut().enumerate() {
        *entry = issue(&shared, &mut end, &mut rng, slot).await;
    }
    let mut outstanding = inflight.iter().flatten().count() as u64;
    while outstanding > 0 {
        polls.clear();
        let r0 = Instant::now();
        // Time the polls only while a sampled request is in flight.
        let sampled = traced
            && inflight
                .iter()
                .flatten()
                .any(|(r, _)| r.seq.is_multiple_of(TRACE_EVERY));
        let resp = if sampled {
            Timed {
                inner: shared.resp.recv(),
                polls: &mut polls,
            }
            .await
        } else {
            shared.resp.recv().await
        };
        let now = Instant::now();
        let Some(resp) = resp else {
            // Closed under us: every request still in flight is lost.
            end.failed += outstanding;
            break;
        };
        let Some((req, t0)) = inflight.get_mut(resp.slot).and_then(Option::take) else {
            end.failed += 1;
            continue;
        };
        outstanding -= 1;
        if req.seq != resp.seq || resp.y != answer(req.x) {
            end.failed += 1;
        }
        end.round_trips += 1;
        end.rtt_ns.record(ns(now - t0));
        if traced && resp.seq.is_multiple_of(TRACE_EVERY) {
            end.spans.push("rpc", "", resp.seq, t0, now);
            end.spans.push("async.recv_wait", "", resp.seq, r0, now);
            for &(s, e) in &polls {
                end.spans.push("async.recv", "rpc", resp.seq, s, e);
            }
        }
        stopping |= end.round_trips >= round_trips || now >= deadline;
        if !stopping {
            inflight[resp.slot] = issue(&shared, &mut end, &mut rng, resp.slot).await;
            outstanding += inflight[resp.slot].is_some() as u64;
        }
    }
    (end, rng)
}

fn build(seed: u64, traced: bool, stats: bool) -> Env {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(WORKERS)
        .enable_all()
        .build()
        .expect("runtime builds");
    let shared = Arc::new(Shared {
        req: channel(stats),
        resp: channel(stats),
        traced,
        anchor: Instant::now(),
    });
    let server = rt.spawn(server(shared.clone()));
    let mut env = Env {
        rt,
        shared,
        server: Some(server),
        rng: SplitMix::new(seed),
        next_seq: 0,
        failed: 0,
        attempted: 0,
    };
    // Warm-up, part of set-up: fills the rings, waiter slots and worker queues.
    let far = Instant::now() + Duration::from_secs(60);
    let w = env.phase(WARMUP_ROUND_TRIPS, far);
    env.failed += w.failed;
    env.attempted += w.round_trips + w.failed;
    env
}

impl Env {
    fn phase(&mut self, round_trips: u64, deadline: Instant) -> ClientEnd {
        let rng = std::mem::replace(&mut self.rng, SplitMix::new(0));
        let first_seq = self.next_seq;
        let task = self.rt.spawn(client(
            self.shared.clone(),
            rng,
            first_seq,
            round_trips,
            deadline,
        ));
        let limit = deadline.saturating_duration_since(Instant::now()) + STALL;
        match self.rt.block_on(tokio::time::timeout(limit, task)) {
            Ok(joined) => {
                let (end, rng) = joined.expect("client task completes");
                self.rng = rng;
                self.next_seq = end.next_seq;
                end
            }
            // A reply never came: the window is lost, and the run failed.
            Err(_) => ClientEnd {
                round_trips: 0,
                failed: WINDOW as u64,
                rtt_ns: Sampler::new(0),
                spans: Spans::new(self.shared.anchor, 0),
                next_seq: first_seq,
            },
        }
    }

    /// Closes both channels, joins the server and checks that no waiter
    /// slot outlived the run. Returns `(attempted, failed, server)`.
    fn finish(mut self) -> (u64, u64, ServerEnd) {
        self.shared.req.close();
        let server = self.server.take().expect("server joined once");
        let end = self.rt.block_on(server).expect("server task completes");
        self.shared.resp.close();
        let mut failed = self.failed;
        if self.shared.req.live_waiters() + self.shared.resp.live_waiters() != 0 {
            failed += 1;
        }
        (self.attempted, failed, end)
    }
}

struct Window {
    client: ClientEnd,
    elapsed: Duration,
    cpu_ns: f64,
    loadgen_cpu_ns: f64,
    exec: (RuntimeMetrics, RuntimeMetrics),
}

fn measure(env: &mut Env, secs: f64) -> Window {
    let m0 = env.rt.metrics();
    let (cpu0, main0) = (measure::process_cpu_ns(), measure::thread_cpu_ns());
    let start = Instant::now();
    let client = env.phase(u64::MAX, start + Duration::from_secs_f64(secs));
    let elapsed = start.elapsed();
    let (cpu1, main1) = (measure::process_cpu_ns(), measure::thread_cpu_ns());
    env.failed += client.failed;
    env.attempted += client.round_trips + client.failed;
    Window {
        client,
        elapsed,
        cpu_ns: (cpu1 - cpu0) - (main1 - main0),
        loadgen_cpu_ns: main1 - main0,
        exec: (m0, env.rt.metrics()),
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    if cfg.trace {
        return run_traced(cfg);
    }
    run_rounds(cfg, ROUNDS, |seed, secs| {
        let t = Instant::now();
        let mut env = build(seed, false, false);
        let setup_s = t.elapsed().as_secs_f64();
        let w = measure(&mut env, secs);
        let (attempted, failed, _) = env.finish();
        let ops = w.client.round_trips.max(1) as f64;
        let sorted = w.client.rtt_ns.sorted();
        let mut m = Metrics::default();
        m.put("ops_per_s", ops / w.elapsed.as_secs_f64(), "1/s");
        m.put(
            "latency_p50_us",
            measure::percentile(&sorted, 0.5) / 1e3,
            "us",
        );
        m.put(
            "latency_p90_us",
            measure::percentile(&sorted, 0.9) / 1e3,
            "us",
        );
        m.put("cpu_ns_per_op", w.cpu_ns / ops, "ns");
        Round {
            setup_s,
            metrics: m,
            attempted,
            failed,
            lag_p90_us: 0.0,
        }
    })
}

fn run_traced(cfg: &Cfg) -> Outcome {
    let half = cfg.seconds / 2.0;
    let mut base = build(cfg.seed, false, false);
    let w0 = measure(&mut base, half);
    let (a0, f0, _) = base.finish();

    let mut env = build(cfg.seed, true, false);
    let w = measure(&mut env, half);
    let (a1, f1, server) = env.finish();

    let mut counted = build(cfg.seed, false, true);
    let shared = counted.shared.clone();
    let (lanes0, wakers0) = (counters(&shared), wakers(&shared));
    let c = counted.phase(COUNT_ROUND_TRIPS, Instant::now() + Duration::from_secs(60));
    counted.failed += c.failed;
    counted.attempted += c.round_trips + c.failed;
    let (lanes1, wakers1) = (counters(&shared), wakers(&shared));
    let promoted = promoted_lanes(&shared);
    let (a2, f2, _) = counted.finish();
    let live_end = shared.req.live_waiters() + shared.resp.live_waiters();

    let mut m = Metrics::default();
    lanes1.delta(&lanes0).put_queue_metrics(&mut m);
    m.put(
        "sharded.batch_items_per_call",
        server.items as f64 / server.calls.max(1) as f64,
        "count",
    );
    m.put("sharded.promoted_lanes", promoted as f64, "count");
    let per_rt = |x: u64| x as f64 / c.round_trips.max(1) as f64;
    let (reg, wake, spurious) = (
        wakers1.0 - wakers0.0,
        wakers1.1 - wakers0.1,
        wakers1.2 - wakers0.2,
    );
    m.put("async.registrations_per_op", per_rt(reg), "count");
    m.put("async.wakes_per_op", per_rt(wake), "count");
    m.put(
        "async.spurious_ratio",
        spurious as f64 / reg.max(1) as f64,
        "ratio",
    );
    m.put("async.live_waiters_end", live_end as f64, "count");
    let base_ops = w0.client.round_trips.max(1) as f64;
    put_executor(&mut m, &w0.exec.0, &w0.exec.1, base_ops);

    let mut spans = w.client.spans;
    spans.extend(server.spans);
    m.put("async.send_ns", spans.mean_ns("async.send"), "ns");
    m.put("async.recv_wait_ns", spans.mean_ns("async.recv_wait"), "ns");
    // Round-trip split: time inside the queue API's polls (client send
    // and recv, server recv_batch and send_batch) is the async layer's;
    // the rest of the round trip the request spent waiting to be polled,
    // behind the executor's wake-to-poll and the other requests in the
    // window.
    let (layers, total) = spans.self_time("rpc");
    if total > 0.0 {
        let share = |l: &str| layers.get(l).copied().unwrap_or(0.0) / total;
        m.put("async.self_share", share("async"), "ratio");
        m.put("executor.self_share", share("rpc"), "ratio");
    }
    let ops = w.client.round_trips.max(1) as f64;
    m.put("loadgen.cpu_ns_per_op", w.loadgen_cpu_ns / ops, "ns");
    m.put(
        "trace.overhead_ratio",
        (w.cpu_ns / ops) / (w0.cpu_ns / base_ops),
        "ratio",
    );
    cfg.write_trace(&spans);
    let mut out = Outcome::new(a0 + a1 + a2, f0 + f1 + f2, m);
    out.span_drops = spans.dropped;
    out
}

fn counters(s: &Shared) -> LaneCounters {
    let (a, b) = (lane_counters(s.req.inner()), lane_counters(s.resp.inner()));
    LaneCounters {
        slot_cas: a.slot_cas + b.slot_cas,
        slot_cas_ok: a.slot_cas_ok + b.slot_cas_ok,
        index_cas: a.index_cas + b.index_cas,
        index_cas_ok: a.index_cas_ok + b.index_cas_ok,
        faa: a.faa + b.faa,
        helps: a.helps + b.helps,
        ops: a.ops + b.ops,
        pool_alloc: a.pool_alloc + b.pool_alloc,
        pool_recycled: a.pool_recycled + b.pool_recycled,
    }
}

/// `(registrations, wakes, spurious polls)` summed over both channels.
fn wakers(s: &Shared) -> (u64, u64, u64) {
    use std::sync::atomic::Ordering::Relaxed;
    let mut t = (0, 0, 0);
    for st in [s.req.stats(), s.resp.stats()].into_iter().flatten() {
        t.0 += st.waker_registrations.load(Relaxed);
        t.1 += st.waker_wakes.load(Relaxed);
        t.2 += st.spurious_polls.load(Relaxed);
    }
    t
}

fn promoted_lanes(s: &Shared) -> usize {
    let count =
        |q: &dyn Fn(usize) -> Option<bool>| (0..LANES).filter(|&i| q(i) == Some(true)).count();
    count(&|i| s.req.inner().lane_promoted(i)) + count(&|i| s.resp.inner().lane_promoted(i))
}

/// Executor counters over a window, per operation. The LIFO ratio is the
/// share of the hand-offs the scheduler counts (LIFO slot, injection
/// queue, steals) that the LIFO slot served.
pub fn put_executor(m: &mut Metrics, a: &RuntimeMetrics, b: &RuntimeMetrics, ops: f64) {
    let lifo = (b.lifo_hits - a.lifo_hits) as f64;
    let inj = (b.injection_polls - a.injection_polls) as f64;
    let steals = (b.steals - a.steals) as f64;
    m.put(
        "executor.parks_per_op",
        (b.parks - a.parks) as f64 / ops,
        "count",
    );
    m.put(
        "executor.io_parks_per_op",
        (b.io_parks - a.io_parks) as f64 / ops,
        "count",
    );
    let handoffs = lifo + inj + steals;
    if handoffs > 0.0 {
        m.put("executor.lifo_hit_ratio", lifo / handoffs, "ratio");
    }
    m.put("executor.steals_per_op", steals / ops, "count");
    m.put("executor.injection_polls_per_op", inj / ops, "count");
}
