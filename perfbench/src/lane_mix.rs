//! `lane-mix`: the paper's section 6 loop (five enqueues, then five
//! dequeues) on one thread, through a `ShardedQueue` of `CasQueue` lanes
//! under the default `Mpmc` lane policy.
//!
//! Why this workload: the paper queue (L1) and the lane layer (L2) do
//! nearly all the work, with no async, executor or kernel time, so a
//! change to either shows undiluted. One thread is the paper's T1
//! overhead and the steadiest regime on a small host: two threads
//! contending for one queue's `Head`/`Tail` spread too much between runs
//! to gate on, and stay a `repro` Fig. 6 table instead.

use crate::check::SeqCheck;
use crate::measure::{self, ns, Sampler, SplitMix};
use crate::trace::Spans;
use crate::{run_rounds, Cfg, Metrics, Outcome, Round};
use nbq::{CasQueue, ConcurrentQueue, QueueHandle, ShardedConfig, ShardedQueue};
use std::hint::black_box;
use std::time::{Duration, Instant};

const LANES: usize = 4;
/// Fresh set-ups per untraced run (see `run_rounds`).
const ROUNDS: u64 = 30;
const LANE_CAPACITY: usize = 1024;
/// Operations per loop iteration: the paper's 5 enqueues + 5 dequeues.
const BURST: u64 = 5;
/// Iterations timed as one latency sample: one clock read per block
/// keeps timer cost near 1% of a ~30 ns operation.
const BLOCK: u64 = 64;
const WARMUP_ITERS: u64 = 50_000;
/// One traced iteration in `TRACE_EVERY`.
const TRACE_EVERY: u64 = 512;
/// Iterations of the separate counting pass: the lanes' atomic counters
/// would slow the timed spans, so counts come from their own pass.
const COUNT_ITERS: u64 = 100_000;

type Sharded = ShardedQueue<u64, CasQueue<u64>>;

/// Seeded payload bits carried next to each sequence number, so the
/// check catches a corrupted value as well as a lost or reordered one.
struct Items {
    table: Vec<u64>,
}

impl Items {
    fn new(seed: u64) -> Items {
        let mut rng = SplitMix::new(seed);
        Items {
            table: (0..4096).map(|_| rng.next_u64() & 0xF_FFFF).collect(),
        }
    }

    fn item(&self, seq: u64) -> u64 {
        (seq << 20) | self.table[(seq % 4096) as usize]
    }

    fn check(&self, check: &mut SeqCheck, v: Option<u64>) {
        match v {
            Some(v) => {
                let seq = v >> 20;
                check.observe(seq, v == self.item(seq));
            }
            None => check.failed += 1,
        }
    }
}

struct Env {
    q: Sharded,
    items: Items,
    seq_in: u64,
    check: SeqCheck,
    attempted: u64,
}

fn build(seed: u64, stats: bool) -> Env {
    let q = ShardedQueue::with_config(ShardedConfig::with_lanes(LANES), |_lane: usize| {
        if stats {
            CasQueue::with_stats(LANE_CAPACITY)
        } else {
            CasQueue::with_capacity(LANE_CAPACITY)
        }
    });
    let mut env = Env {
        q,
        items: Items::new(seed),
        seq_in: 0,
        check: SeqCheck::new(0),
        attempted: 0,
    };
    // Warm-up, part of set-up: fills the node pools and handle caches of
    // every lane. New handles take lanes round-robin, so one handle per
    // lane leaves the next handle (the measured one) on a warm lane.
    let Env {
        q,
        items,
        seq_in,
        check,
        attempted,
    } = &mut env;
    for _ in 0..LANES {
        let mut h = q.handle();
        for _ in 0..WARMUP_ITERS / LANES as u64 {
            iteration(&mut h, items, seq_in, check, attempted);
        }
    }
    env
}

#[inline(always)]
fn iteration<H: QueueHandle<u64>>(
    h: &mut H,
    items: &Items,
    seq_in: &mut u64,
    check: &mut SeqCheck,
    attempted: &mut u64,
) {
    for _ in 0..BURST {
        if h.enqueue(black_box(items.item(*seq_in))).is_err() {
            check.failed += 1;
        }
        *seq_in += 1;
    }
    for _ in 0..BURST {
        items.check(check, black_box(h.dequeue()));
    }
    *attempted += 2 * BURST;
}

struct Window {
    ops: u64,
    elapsed: Duration,
    cpu_ns: f64,
    iter_ns: Sampler,
}

/// Runs untraced blocks of the loop for `secs`.
fn measure(env: &mut Env, secs: f64) -> Window {
    let Env {
        q,
        items,
        seq_in,
        check,
        attempted,
    } = env;
    let mut h = q.handle();
    let mut iter_ns = Sampler::new(1 << 16);
    let ops0 = *attempted;
    let cpu0 = measure::process_cpu_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut t = start;
    while t < deadline {
        for _ in 0..BLOCK {
            iteration(&mut h, items, seq_in, check, attempted);
        }
        let now = Instant::now();
        iter_ns.record(ns(now - t) / BLOCK as f64);
        t = now;
    }
    Window {
        ops: *attempted - ops0,
        elapsed: start.elapsed(),
        cpu_ns: measure::process_cpu_ns() - cpu0,
        iter_ns,
    }
}

fn finish(env: &mut Env) -> (u64, u64) {
    // Conservation: every value enqueued came back out, nothing is left.
    let mut h = env.q.handle();
    while let Some(v) = h.dequeue() {
        env.items.check(&mut env.check, Some(v));
    }
    (env.attempted, env.check.finish(env.seq_in))
}

pub fn run(cfg: &Cfg) -> Outcome {
    if cfg.trace {
        return run_traced(cfg);
    }
    run_rounds(cfg, ROUNDS, |seed, secs| {
        let t = Instant::now();
        let mut env = build(seed, false);
        let setup_s = t.elapsed().as_secs_f64();
        let w = measure(&mut env, secs);
        let (attempted, failed) = finish(&mut env);
        let sorted = w.iter_ns.sorted();
        let mut m = Metrics::default();
        m.put("ops_per_s", w.ops as f64 / w.elapsed.as_secs_f64(), "1/s");
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
        m.put("cpu_ns_per_op", w.cpu_ns / w.ops as f64, "ns");
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
    let mut base = build(cfg.seed, false);
    let w0 = measure(&mut base, half);
    let (a0, f0) = finish(&mut base);

    let mut env = build(cfg.seed, false);
    let anchor = Instant::now();
    let mut spans = Spans::new(anchor, 1 << 19);
    let Env {
        q,
        items,
        seq_in,
        check,
        attempted,
    } = &mut env;
    let mut h = q.handle();
    let mut direct = q.lane(h.affinity()).handle();
    let ops0 = *attempted;
    let cpu0 = measure::process_cpu_ns();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(half);
    let mut i: u64 = 0;
    while Instant::now() < deadline {
        for _ in 0..BLOCK {
            i += 1;
            if !i.is_multiple_of(TRACE_EVERY) {
                iteration(&mut h, items, seq_in, check, attempted);
                continue;
            }
            // Alternate traced iterations between the sharded handle and
            // a direct handle on the same lane; the difference is the
            // lane layer's own cost. Between iterations the queue is
            // empty, so the direct path keeps the FIFO check exact.
            let via_lane = (i / TRACE_EVERY) % 2 == 1;
            let (enq, deq) = if via_lane {
                ("cas_queue.enqueue", "cas_queue.dequeue")
            } else {
                ("sharded.enqueue", "sharded.dequeue")
            };
            let t0 = Instant::now();
            for _ in 0..BURST {
                let v = black_box(items.item(*seq_in));
                let r = if via_lane {
                    direct.enqueue(v)
                } else {
                    h.enqueue(v)
                };
                if r.is_err() {
                    check.failed += 1;
                }
                *seq_in += 1;
            }
            let t1 = Instant::now();
            let mut out = [None; BURST as usize];
            for o in out.iter_mut() {
                *o = black_box(if via_lane {
                    direct.dequeue()
                } else {
                    h.dequeue()
                });
            }
            let t2 = Instant::now();
            for o in out {
                items.check(check, o);
            }
            *attempted += 2 * BURST;
            let t3 = Instant::now();
            spans.push("loadgen.iteration", "", i, t0, t3);
            spans.push(enq, "loadgen.iteration", i, t0, t1);
            spans.push(deq, "loadgen.iteration", i, t1, t2);
        }
    }
    let ops = *attempted - ops0;
    let cpu_traced = (measure::process_cpu_ns() - cpu0) / ops as f64;
    drop(direct);
    drop(h);
    let (a1, f1) = finish(&mut env);

    let mut counted = build(cfg.seed, true);
    let stats0 = lane_counters(&counted.q);
    {
        let Env {
            q,
            items,
            seq_in,
            check,
            attempted,
        } = &mut counted;
        let mut h = q.handle();
        for _ in 0..COUNT_ITERS {
            iteration(&mut h, items, seq_in, check, attempted);
        }
    }
    let stats1 = lane_counters(&counted.q);
    let (a2, f2) = finish(&mut counted);

    let mut m = Metrics::default();
    let per_call = |name| spans.mean_ns(name) / BURST as f64;
    let (lane_enq, lane_deq) = (per_call("cas_queue.enqueue"), per_call("cas_queue.dequeue"));
    let (sh_enq, sh_deq) = (per_call("sharded.enqueue"), per_call("sharded.dequeue"));
    m.put("cas_queue.enqueue_ns", lane_enq, "ns");
    m.put("cas_queue.dequeue_ns", lane_deq, "ns");
    m.put("sharded.enqueue_ns", sh_enq, "ns");
    m.put("sharded.dequeue_ns", sh_deq, "ns");
    m.put(
        "sharded.self_ns_per_op",
        (sh_enq + sh_deq - lane_enq - lane_deq) / 2.0,
        "ns",
    );
    let d = stats1.delta(&stats0);
    d.put_queue_metrics(&mut m);

    // Per-op split over the sharded iterations: the lane's share is the
    // direct-lane time, the sharded layer's the remainder of the calls,
    // and the loop's own checks the iteration's self time.
    let iter_sharded = spans.mean_ns_where("loadgen.iteration", |id| {
        (id / TRACE_EVERY).is_multiple_of(2)
    });
    if iter_sharded > 0.0 {
        let calls = (sh_enq + sh_deq) * BURST as f64;
        let lane = (lane_enq + lane_deq) * BURST as f64;
        m.put("cas_queue.self_share", lane / iter_sharded, "ratio");
        m.put("sharded.self_share", (calls - lane) / iter_sharded, "ratio");
        m.put(
            "loadgen.self_share",
            (iter_sharded - calls) / iter_sharded,
            "ratio",
        );
    }
    m.put(
        "trace.overhead_ratio",
        cpu_traced / (w0.cpu_ns / w0.ops as f64),
        "ratio",
    );
    cfg.write_trace(&spans);
    let mut out = Outcome::new(a0 + a1 + a2, f0 + f1 + f2, m);
    out.span_drops = spans.dropped;
    out
}

/// The lanes' `OpStats`, summed: the paper's per-operation atomic
/// instruction counts and the node pool's recycling.
#[derive(Clone, Copy, Default)]
pub struct LaneCounters {
    pub slot_cas: u64,
    pub slot_cas_ok: u64,
    pub index_cas: u64,
    pub index_cas_ok: u64,
    pub faa: u64,
    pub helps: u64,
    pub ops: u64,
    pub pool_alloc: u64,
    pub pool_recycled: u64,
}

pub fn lane_counters<T: Send>(q: &ShardedQueue<T, CasQueue<T>>) -> LaneCounters {
    use std::sync::atomic::Ordering::Relaxed;
    let mut c = LaneCounters::default();
    for i in 0..q.lanes() {
        if let Some(s) = q.lane(i).stats() {
            c.slot_cas += s.slot_cas_attempts.load(Relaxed);
            c.slot_cas_ok += s.slot_cas_successes.load(Relaxed);
            c.index_cas += s.index_cas_attempts.load(Relaxed);
            c.index_cas_ok += s.index_cas_successes.load(Relaxed);
            c.faa += s.faa_ops.load(Relaxed);
            c.helps += s.helps.load(Relaxed);
            c.ops += s.operations.load(Relaxed);
        }
        let p = q.lane(i).pool_stats();
        c.pool_alloc += p.fresh;
        c.pool_recycled += p.recycled;
    }
    c
}

impl LaneCounters {
    pub fn delta(&self, before: &LaneCounters) -> LaneCounters {
        LaneCounters {
            slot_cas: self.slot_cas - before.slot_cas,
            slot_cas_ok: self.slot_cas_ok - before.slot_cas_ok,
            index_cas: self.index_cas - before.index_cas,
            index_cas_ok: self.index_cas_ok - before.index_cas_ok,
            faa: self.faa - before.faa,
            helps: self.helps - before.helps,
            ops: self.ops - before.ops,
            pool_alloc: self.pool_alloc - before.pool_alloc,
            pool_recycled: self.pool_recycled - before.pool_recycled,
        }
    }

    pub fn put_queue_metrics(&self, m: &mut Metrics) {
        let per_op = |x: u64| {
            if self.ops == 0 {
                0.0
            } else {
                x as f64 / self.ops as f64
            }
        };
        let cas = self.slot_cas + self.index_cas;
        m.put("cas_queue.slot_cas_per_op", per_op(self.slot_cas), "count");
        m.put(
            "cas_queue.index_cas_per_op",
            per_op(self.index_cas),
            "count",
        );
        m.put("cas_queue.faa_per_op", per_op(self.faa), "count");
        m.put("cas_queue.helps_per_op", per_op(self.helps), "count");
        if cas > 0 {
            let ok = (self.slot_cas_ok + self.index_cas_ok) as f64 / cas as f64;
            m.put("cas_queue.cas_success_ratio", ok, "ratio");
        }
        let acquired = self.pool_alloc + self.pool_recycled;
        if acquired > 0 {
            m.put(
                "pool.recycle_ratio",
                self.pool_recycled as f64 / acquired as f64,
                "ratio",
            );
        }
        m.put("pool.alloc_count", self.pool_alloc as f64, "count");
    }
}
