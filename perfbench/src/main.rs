//! The nbq stack's benchmark: three workloads driven through the public
//! API only (`nbq` facade, `nbq::aio`, `nbq::net` and the vendored
//! runtime's `Builder`/`metrics()`).
//!
//! ```text
//! nbq-perfbench --workload <lane-mix|async-rpc|broker-open> --seed <n>
//!               --seconds <s> --trace <0|1> [--trace-out <file>]
//! nbq-perfbench --check-selftest
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a separate traced run. The last line of
//! standard output is the result object; the line before it reports the
//! validity guards.

mod async_rpc;
mod broker_open;
mod check;
mod lane_mix;
mod measure;
mod trace;

use std::time::Duration;

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
}

impl Cfg {
    pub fn write_trace(&self, spans: &trace::Spans) {
        if let Some(path) = &self.trace_out {
            if let Err(e) = spans.write_tsv(path) {
                eprintln!("warning: could not write spans to {path}: {e}");
            }
        }
    }
}

/// Metrics by name, each with its unit, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }
}

/// One round of an untraced run: a fresh set-up, then its measurement.
pub struct Round {
    pub setup_s: f64,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub lag_p90_us: f64,
}

/// Runs `n` rounds, each on a fresh set-up measured for an equal share
/// of the run, and reports every metric as its interquartile mean over
/// the rounds (`setup_s` as the median of the same set-ups).
///
/// On a small shared host the CPU's speed drifts by 10-20% over seconds,
/// and a closed loop's latency can flip between two scheduling regimes
/// from one set-up to the next. Many short rounds, each on its own
/// set-up, with the outer quartiles dropped, measure the code rather
/// than one placement or one noisy second; the mean of the middle half
/// moves smoothly where a median would jump between the two regimes.
pub fn run_rounds(cfg: &Cfg, n: u64, mut round: impl FnMut(u64, f64) -> Round) -> Outcome {
    let secs = cfg.seconds / n as f64;
    let (mut attempted, mut failed) = (0, 0);
    let (mut setups, mut lags) = (Vec::new(), Vec::new());
    let mut per_round: Vec<Metrics> = Vec::new();
    for r in 0..n {
        let round = round(cfg.seed.wrapping_mul(1_000_003).wrapping_add(r), secs);
        attempted += round.attempted;
        failed += round.failed;
        setups.push(round.setup_s);
        lags.push(round.lag_p90_us);
        per_round.push(round.metrics);
    }
    let mut m = Metrics::default();
    for &(name, _, unit) in &per_round[0].0 {
        let values: Vec<f64> = per_round
            .iter()
            .flat_map(|r| {
                r.0.iter()
                    .filter(|(n, _, _)| *n == name)
                    .map(|&(_, v, _)| v)
            })
            .collect();
        m.put(name, measure::interquartile_mean(&values), unit);
    }
    m.put("setup_s", measure::median(&setups), "s");
    m.put("rss_peak_mb", measure::rss_peak_mb(), "MB");
    let mut out = Outcome::new(attempted, failed, m);
    out.lag_p90_us = lags.iter().copied().fold(0.0, f64::max);
    out
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// `TcpExt ListenOverflows` growth during the run (must be 0).
    pub listen_overflows: u64,
    /// p90 lateness of an open-loop generator against its due times.
    pub lag_p90_us: f64,
    pub span_drops: u64,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, metrics: Metrics) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics,
            listen_overflows: 0,
            lag_p90_us: 0.0,
            span_drops: 0,
        }
    }
}

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; a layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("cas_queue.enqueue_ns", "ns"),
    ("cas_queue.dequeue_ns", "ns"),
    ("cas_queue.slot_cas_per_op", "count"),
    ("cas_queue.index_cas_per_op", "count"),
    ("cas_queue.faa_per_op", "count"),
    ("cas_queue.cas_success_ratio", "ratio"),
    ("cas_queue.helps_per_op", "count"),
    ("cas_queue.self_share", "ratio"),
    ("sharded.enqueue_ns", "ns"),
    ("sharded.dequeue_ns", "ns"),
    ("sharded.self_ns_per_op", "ns"),
    ("sharded.batch_items_per_call", "count"),
    ("sharded.promoted_lanes", "count"),
    ("sharded.self_share", "ratio"),
    ("pool.recycle_ratio", "ratio"),
    ("pool.alloc_count", "count"),
    ("async.send_ns", "ns"),
    ("async.recv_wait_ns", "ns"),
    ("async.registrations_per_op", "count"),
    ("async.wakes_per_op", "count"),
    ("async.spurious_ratio", "ratio"),
    ("async.live_waiters_end", "count"),
    ("async.self_share", "ratio"),
    ("executor.parks_per_op", "count"),
    ("executor.io_parks_per_op", "count"),
    ("executor.lifo_hit_ratio", "ratio"),
    ("executor.steals_per_op", "count"),
    ("executor.injection_polls_per_op", "count"),
    ("executor.self_share", "ratio"),
    ("reactor.dispatched_per_msg", "count"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("broker.ack_rtt_us", "us"),
    ("broker.frames_in_per_msg", "count"),
    ("broker.frames_out_per_msg", "count"),
    ("broker.busy_per_msg", "count"),
    ("broker.watermark_hits", "count"),
    ("broker.malformed", "count"),
    ("broker.queue_hop_share", "ratio"),
    ("net.self_share", "ratio"),
    ("loadgen.lag_p90_us", "us"),
    ("loadgen.cpu_ns_per_op", "ns"),
    ("loadgen.self_share", "ratio"),
    ("tcp.listen_overflows", "count"),
    ("trace.overhead_ratio", "ratio"),
];

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("cpu_ns_per_op", "ns"),
    ("rss_peak_mb", "MB"),
];

/// An open-loop generator running this late (p90) no longer holds its
/// schedule, and the run is flagged invalid.
const LAG_LIMIT_US: f64 = 1000.0;

/// Hard stop for a hung run, inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

fn usage() -> ! {
    eprintln!(
        "usage: nbq-perfbench --workload <lane-mix|async-rpc|broker-open> --seed <n> \
         --seconds <s> --trace <0|1> [--trace-out <file>] | --check-selftest"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check-selftest") {
        match check::self_test() {
            Ok(()) => println!("checker self-test: ok"),
            Err(e) => {
                eprintln!("checker self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut workload = None;
    let mut cfg = Cfg {
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value == "1",
            "--trace-out" => cfg.trace_out = Some(value.clone()),
            _ => usage(),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        usage();
    }
    let run: fn(&Cfg) -> Outcome = match workload.as_deref() {
        Some("lane-mix") => lane_mix::run,
        Some("async-rpc") => async_rpc::run,
        Some("broker-open") => broker_open::run,
        _ => usage(),
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("run exceeded {WATCHDOG:?}; aborting");
        std::process::exit(3);
    });

    let overflows0 = measure::listen_overflows();
    let mut out = run(&cfg);
    if let (Some(a), Some(b)) = (overflows0, measure::listen_overflows()) {
        out.listen_overflows = b.saturating_sub(a);
    }
    report(&cfg, out);
}

fn report(cfg: &Cfg, out: Outcome) {
    let mut m = out.metrics;
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    if cfg.trace {
        m.put("tcp.listen_overflows", out.listen_overflows as f64, "count");
        m.put("loadgen.lag_p90_us", out.lag_p90_us, "us");
    }
    let valid = out.listen_overflows == 0 && out.lag_p90_us <= LAG_LIMIT_US && out.span_drops == 0;
    println!(
        "{{\"valid\": {valid}, \"guards\": {{\"listen_overflows\": {}, \"lag_p90_us\": {}, \
         \"lag_limit_us\": {LAG_LIMIT_US}, \"span_drops\": {}}}, \"host\": {{\"nproc\": {}}}}}",
        out.listen_overflows,
        num(out.lag_p90_us),
        out.span_drops,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let body: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value =
                m.0.iter()
                    .find(|(n, _, _)| *n == name)
                    .map_or(0.0, |&(_, v, u)| {
                        assert_eq!(u, unit, "metric {name} reported in {u}, declared in {unit}");
                        v
                    });
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

/// A JSON number with every digit Rust prints for the `f64`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}
