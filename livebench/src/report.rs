//! Turns rounds into the reported metrics and prints them.

use crate::replay;
use crate::sys;
use crate::workload::{
    run_rounds, Round, RunCtx, BCAST_TIMED, BCAST_WARMUP, JOIN_TIMED, JOIN_WARMUP, MEMBERS,
    REPLICATED_TIMED, WRITES_PER_JOIN,
};
use corona_trace::{Breakdown, Hop, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Nearest-rank quantile of unsorted nanosecond samples, in µs.
pub fn quantile_us(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1_000.0
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The median over `rounds` of a per-round figure.
fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(rounds.iter().map(|r| f(r)).collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// All samples of `f` over `rounds`, in µs at the quantile `q`.
fn pooled_us(rounds: &[&Round], q: f64, f: impl Fn(&Round) -> &[u64]) -> f64 {
    let samples: Vec<u64> = rounds.iter().flat_map(|r| f(r).iter().copied()).collect();
    quantile_us(&samples, q)
}

/// `num` summed over `rounds`, divided by `den` summed over them.
fn pooled_ratio(
    rounds: &[&Round],
    num: impl Fn(&Round) -> f64,
    den: impl Fn(&Round) -> f64,
) -> f64 {
    ratio(
        rounds.iter().map(|r| num(r)).sum(),
        rounds.iter().map(|r| den(r)).sum(),
    )
}

fn end_to_end(rounds: &[&Round], peak_rss: f64, attempted: u64, completed: u64) -> Vec<Metric> {
    let m = |name: &str, value: f64, unit| (name.to_string(), value, unit);
    let cpu = |r: &Round| r.proc.map_or(0.0, |p| p.cpu_secs);
    vec![
        m("rtt_p50_us", pooled_us(rounds, 0.50, |r| &r.rtts_ns), "us"),
        m("rtt_p99_us", pooled_us(rounds, 0.99, |r| &r.rtts_ns), "us"),
        m(
            "bcast_per_s",
            pooled_ratio(rounds, |r| r.bcasts as f64, |r| r.bcast_secs),
            "1/s",
        ),
        m(
            "join_p50_us",
            pooled_us(rounds, 0.50, |r| &r.joins.lat_ns),
            "us",
        ),
        m(
            "join_p99_us",
            pooled_us(rounds, 0.99, |r| &r.joins.lat_ns),
            "us",
        ),
        m(
            "join_per_s",
            pooled_ratio(rounds, |r| r.joins.completed as f64, |r| r.joins.secs),
            "1/s",
        ),
        m(
            "cpu_us_per_op",
            pooled_ratio(rounds, |r| cpu(r) * 1e6, |r| r.ops as f64),
            "us",
        ),
        m("peak_rss_mib", peak_rss, "MiB"),
        m(
            "ok_frac",
            ratio(completed as f64, attempted as f64),
            "ratio",
        ),
        m("setup_s", per_round(rounds, |r| r.setup_s), "s"),
    ]
}

/// Keeps only the spans of complete chains (client submit through
/// client delivery): a chain whose head fell out of a flight-recorder
/// ring would understate its round trip.
fn complete_chains(spans: &[SpanEvent]) -> Vec<SpanEvent> {
    let mut ends: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.trace.is_some()) {
        let e = ends.entry(s.trace.0).or_default();
        e.0 |= s.hop == Hop::ClientSubmit;
        e.1 |= s.hop == Hop::ClientDeliver;
    }
    spans
        .iter()
        .filter(|s| ends.get(&s.trace.0) == Some(&(true, true)))
        .copied()
        .collect()
}

/// How far the sum of the hop p50s may stray from the traced rounds'
/// own `rtt_p50_us`, as a share of it, on the workloads whose chains
/// are complete. Per chain the hops telescope to the round trip
/// exactly; but a sum of p50s differs from the p50 of sums, only one
/// broadcast in [`crate::workload::TRACE_EVERY`] is traced, and each
/// hop is truncated to whole microseconds.
const HOP_SUM_TOLERANCE: f64 = 0.3;

/// The hop-sum check: on `bcast` and `join`, where every hop from
/// client submit to client delivery is recorded, the per-hop p50s must
/// explain the measured round trip. `replicated` is exempt: its chains
/// stop at the peer link (see README), so its sum is reported only.
fn check_hop_sum(workload: &str, metrics: &[Metric]) -> Result<(), String> {
    if workload == "replicated" {
        return Ok(());
    }
    let get = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let chains = get("trace.chains");
    let over = get("trace.hop_sum_over_rtt");
    if chains == 0.0 {
        return Err("the traced rounds recorded no complete chain".into());
    }
    if (over - 1.0).abs() > HOP_SUM_TOLERANCE {
        return Err(format!(
            "hop p50s sum to {over:.3} of the round trip's p50, outside 1 ± {HOP_SUM_TOLERANCE}"
        ));
    }
    Ok(())
}

fn per_layer(untraced: &[&Round], traced: &[&Round], replayed: Vec<replay::Figure>) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut m = |name: &str, value: f64, unit| out.push((name.to_string(), value, unit));
    let per_op = |f: fn(&sys::Counters) -> u64| {
        per_round(untraced, |r| {
            ratio(r.proc.map_or(0, |p| f(&p)) as f64, r.ops as f64)
        })
    };
    let c = |r: &Round, name: &str| r.server.counter(name) as f64;
    let hq =
        |r: &Round, name: &str, q| r.server.histogram(name).map_or(0, |h| h.quantile(q)) as f64;

    m("process.allocs_per_op", per_op(|p| p.allocs), "count");
    m("process.syscalls_per_op", per_op(|p| p.syscalls), "count");
    m(
        "process.ctx_switches_per_op",
        per_op(|p| p.ctx_switches),
        "count",
    );
    m(
        "process.threads_peak",
        untraced
            .iter()
            .chain(traced)
            .map(|r| r.threads)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );

    m(
        "transport.frames_per_op",
        per_round(untraced, |r| {
            ratio(
                c(r, "transport.frames_in") + c(r, "transport.frames_out"),
                r.ops as f64,
            )
        }),
        "count",
    );
    m(
        "transport.bytes_per_op",
        per_round(untraced, |r| {
            ratio(
                c(r, "transport.bytes_in") + c(r, "transport.bytes_out"),
                r.ops as f64,
            )
        }),
        "B",
    );
    m(
        "transport.reactor_wakeups_per_op",
        per_round(untraced, |r| {
            ratio(c(r, "server.reactor.wakeups"), r.ops as f64)
        }),
        "count",
    );
    m(
        "transport.reactor_events_per_poll",
        per_round(untraced, |r| {
            ratio(c(r, "server.reactor.events"), c(r, "server.reactor.polls"))
        }),
        "count",
    );
    m(
        "transport.reactor_write_blocked",
        per_round(untraced, |r| c(r, "server.reactor.write_blocked")),
        "count",
    );

    m(
        "core.handle_us_p50",
        per_round(untraced, |r| hq(r, "server.stage.handle_us", 0.50)),
        "us",
    );
    m(
        "core.handle_us_p99",
        per_round(untraced, |r| hq(r, "server.stage.handle_us", 0.99)),
        "us",
    );
    m(
        "core.fanout_us_p50",
        per_round(untraced, |r| hq(r, "server.stage.fanout_us", 0.50)),
        "us",
    );
    m(
        "core.encodes_per_bcast",
        per_round(untraced, |r| {
            ratio(c(r, "server.fanout.encodes"), r.bcasts as f64)
        }),
        "count",
    );
    m(
        "core.enqueues_per_bcast",
        per_round(untraced, |r| {
            ratio(c(r, "server.fanout.enqueues"), r.bcasts as f64)
        }),
        "count",
    );
    m(
        "core.queue_hwm",
        untraced
            .iter()
            .map(|r| r.server.gauge("server.fanout.queue_hwm"))
            .max()
            .unwrap_or(0) as f64,
        "count",
    );

    m(
        "replication.peer_msgs_per_bcast",
        per_round(untraced, |r| ratio(c(r, "repl.peer.sent"), r.bcasts as f64)),
        "count",
    );
    m(
        "replication.sequenced_per_bcast",
        per_round(untraced, |r| {
            ratio(c(r, "repl.fanout.sequenced"), r.bcasts as f64)
        }),
        "count",
    );
    m(
        "replication.heartbeats_per_s",
        per_round(untraced, |r| {
            ratio(c(r, "repl.heartbeats.sent"), r.bcast_secs)
        }),
        "1/s",
    );

    // The traced rounds: per-hop p50s of complete chains, their sum
    // against the traced rounds' own round trip, and the cost of
    // tracing against the untraced rounds.
    let spans: Vec<SpanEvent> = traced
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let breakdown = Breakdown::from_spans(&complete_chains(&spans));
    for hop in [
        Hop::ServerIngress,
        Hop::Sequence,
        Hop::LogAppend,
        Hop::FanoutEnqueue,
        Hop::ClientDeliver,
    ] {
        let p50 = breakdown
            .hops
            .iter()
            .find(|h| h.hop == hop)
            .map_or(0, |h| h.p50_us);
        out.push((format!("trace.hop_p50_us.{}", hop.name()), p50 as f64, "us"));
    }
    let traced_rtt = per_round(traced, |r| quantile_us(&r.rtts_ns, 0.50));
    let untraced_rtt = per_round(untraced, |r| quantile_us(&r.rtts_ns, 0.50));
    out.push((
        "trace.hop_sum_over_rtt".into(),
        ratio(breakdown.hop_p50_sum_us() as f64, traced_rtt),
        "ratio",
    ));
    out.push((
        "trace.overhead_frac".into(),
        ratio(traced_rtt, untraced_rtt) - 1.0,
        "ratio",
    ));
    out.push(("trace.chains".into(), breakdown.chains as f64, "count"));

    for (name, value, unit) in replayed {
        out.push((name.to_string(), value, unit));
    }
    out
}

/// The per-run environment record: what a reader needs to tell a noisy
/// run from a regression.
fn environment(
    ctx: &RunCtx,
    workload: &str,
    trace: bool,
    rounds: &[Round],
) -> (String, Vec<Metric>) {
    let timed: Vec<_> = rounds.iter().filter_map(|r| r.proc).collect();
    let sum = |f: fn(&sys::Counters) -> f64| timed.iter().map(f).sum::<f64>();
    let steal = ratio(sum(|p| p.steal as f64), sum(|p| p.host_total as f64));
    let gen_cpu: f64 = rounds.iter().map(|r| r.gen_cpu_secs).sum();
    let cpu_frac = ratio(gen_cpu, sum(|p| p.cpu_secs));
    let check_frac = ratio(sum(|p| p.check_secs), sum(|p| p.cpu_secs));
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let (warm, per_round) = match workload {
        "join" => (
            format!(
                "{JOIN_WARMUP} joins + {} writes",
                JOIN_WARMUP * WRITES_PER_JOIN
            ),
            format!(
                "{JOIN_TIMED} joins + {} writes",
                JOIN_TIMED * WRITES_PER_JOIN
            ),
        ),
        "replicated" => (
            format!("{BCAST_WARMUP} broadcasts per member"),
            format!("{REPLICATED_TIMED} broadcasts per member"),
        ),
        _ => (
            format!("{BCAST_WARMUP} broadcasts per member"),
            format!("{BCAST_TIMED} broadcasts per member"),
        ),
    };
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{trace},\"nproc\":{},\"connections\":{},\
         \"rounds\":{},\"warmup_per_round\":\"{warm}\",\"timed_per_round\":\"{per_round}\",\
         \"timed_ops\":{ops},\"process.allocs\":{},\"process.syscalls\":{},\
         \"process.ctx_switches\":{},\"gen.steal_frac\":{steal},\"gen.cpu_frac\":{cpu_frac},\
         \"gen.check_frac\":{check_frac}}}",
        ctx.seed,
        sys::nproc(),
        MEMBERS,
        rounds.len(),
        sum(|p| p.allocs as f64),
        sum(|p| p.syscalls as f64),
        sum(|p| p.ctx_switches as f64),
    );
    (
        line,
        vec![
            ("gen.steal_frac".into(), steal, "ratio"),
            ("gen.cpu_frac".into(), cpu_frac, "ratio"),
            ("gen.check_frac".into(), check_frac, "ratio"),
        ],
    )
}

/// Runs `n` rounds of `workload` and prints the report: end-to-end
/// figures, or (`trace`) per-layer figures from alternating untraced
/// and traced rounds. Returns whether every operation succeeded and
/// every check passed.
pub fn run(ctx: &RunCtx, workload: &str, n: usize, trace: bool) -> bool {
    // The traced run alternates untraced and traced rounds so it can
    // price the tracing itself.
    let (rounds, result) = if trace {
        run_rounds(ctx, workload, n.max(2), |i| i % 2 == 1)
    } else {
        run_rounds(ctx, workload, n, |_| false)
    };
    let mut correct = result.is_ok();
    if let Err(e) = &result {
        eprintln!("livebench: {e}");
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let completed: u64 = rounds.iter().map(|r| r.completed).sum();
    // Only rounds that ran to completion carry timed-phase figures.
    let done: Vec<Round> = rounds.into_iter().filter(|r| r.proc.is_some()).collect();
    for (i, r) in done.iter().enumerate() {
        let p = r.proc.expect("completed rounds carry counters");
        println!(
            "round {i} setup_s={:.4} bcast_per_s={:.0} rtt_p50_us={:.1} rtt_p99_us={:.1} \
             join_p50_us={:.1} join_p99_us={:.1} cpu_us_per_op={:.1} steal={:.3} wall_s={:.2}",
            r.setup_s,
            ratio(r.bcasts as f64, r.bcast_secs),
            quantile_us(&r.rtts_ns, 0.5),
            quantile_us(&r.rtts_ns, 0.99),
            quantile_us(&r.joins.lat_ns, 0.5),
            quantile_us(&r.joins.lat_ns, 0.99),
            ratio(p.cpu_secs * 1e6, r.ops as f64),
            r.steal(),
            r.wall_s,
        );
    }
    let (env, gen_metrics) = environment(ctx, workload, trace, &done);
    let metrics = if trace {
        let replayed = if correct {
            replay::run(workload, ctx.seed, &ctx.work).unwrap_or_else(|e| {
                eprintln!("livebench: replay: {e}");
                correct = false;
                Vec::new()
            })
        } else {
            Vec::new()
        };
        let untraced: Vec<&Round> = done.iter().step_by(2).collect();
        let traced: Vec<&Round> = done.iter().skip(1).step_by(2).collect();
        let mut metrics = per_layer(&untraced, &traced, replayed);
        if correct {
            if let Err(e) = check_hop_sum(workload, &metrics) {
                eprintln!("livebench: trace: {e}");
                correct = false;
            }
        }
        metrics.extend(gen_metrics.iter().cloned());
        metrics
    } else {
        let all: Vec<&Round> = done.iter().collect();
        let peak_rss = done.first().map_or(0.0, |r| r.peak_rss_mib);
        end_to_end(&all, peak_rss, attempted, completed)
    };
    correct &= attempted > 0 && completed == attempted;

    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    if !trace {
        // The generator's share of the process's CPU, and of that the
        // checks' share, beside the end-to-end figures they are part
        // of; diagnostics, so not in the JSON result.
        for (name, value, unit) in &gen_metrics {
            println!("{name:<36} {value:>16.4} {unit}");
        }
    }
    println!("env {env}");
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        attempted.max(1),
        attempted.max(1) - completed.min(attempted.max(1)),
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    correct
}
