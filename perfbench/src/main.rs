//! Outside-in benchmark of the pervasive-grid workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload handheld_session --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one named workload, built from `--seed`, for at least
//! `--seconds` of wall time. A *round* is one complete, deterministic run
//! of the workload from a fresh world; rounds repeat with the same inputs
//! until the time is up, so wall-clock samples accumulate while every
//! simulated figure stays a pure function of the seed. The last line of
//! stdout is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The process exits 1 when any
//! correctness check fails.
//!
//! Everything is measured from the outside: the benchmark times calls into
//! the crates' public functions and never edits library code. See
//! `perfbench/README.md` for the workloads and the metric map.

mod federation;
mod handheld;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Kept in step with `BENCHMARK.json` (the benchmark's test checks both).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("served_frac", "frac"),
    ("deadline_met_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("energy_mj_per_query", "mJ"),
    ("sim_response_p90_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("op_late_us", "us"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload does not reach from the outside reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("partition.features_us", "us"),
    ("partition.predict_us", "us"),
    ("partition.candidates", "count"),
    ("partition.history_len", "count"),
    ("core.residual_us", "us"),
    ("core.log_len", "count"),
    ("core.simple_p50_us", "us"),
    ("core.complex_p50_us", "us"),
    ("core.execute_batch_p50_us", "us"),
    ("core.execute_batch_p99_us", "us"),
    ("core.batch_size_mean", "count"),
    ("core.shared_frac", "frac"),
    ("sensornet.bytes_per_query", "bytes"),
    ("runtime.step_self_us", "us"),
    ("runtime.queue_depth_p99", "count"),
    ("runtime.overload_steps", "count"),
    ("runtime.admitted", "count"),
    ("runtime.rejected", "count"),
    ("runtime.shed", "count"),
    ("runtime.browned_out", "count"),
    ("runtime.preemptions", "count"),
    ("runtime.outcomes_len", "count"),
    ("runtime.journal_records", "count"),
    ("runtime.journal_replay_us", "us"),
    ("arrivals.next_us", "us"),
    ("arrivals.retries", "count"),
    ("arrivals.gave_up", "count"),
    ("federation.windows", "count"),
    ("federation.handoff_records", "count"),
    ("federation.gossip_round_us", "us"),
    ("federation.migrations", "count"),
    ("federation.absorbed", "count"),
    ("federation.forwards", "count"),
    ("federation.prewarms", "count"),
    ("federation.bounced_dropped", "count"),
    ("agent.bus_sent", "count"),
    ("agent.bus_acked", "count"),
    ("agent.bus_retries", "count"),
    ("agent.bus_dead_letters", "count"),
    ("agent.delivery_ratio", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Set-up is timed at least this many times per process; `setup_s` is the
/// median.
const SETUP_SAMPLES: usize = 21;

/// What one round of a workload produced.
struct Round {
    /// Hash of every simulated outcome: equal across rounds of one seed,
    /// and between traced and untraced rounds.
    digest: u64,
    /// Wall time of each unit call (submit, step or window), in run order.
    op_us: Vec<f64>,
    /// Wall seconds spent inside the unit calls.
    busy_s: f64,
    /// Distinct queries the clients asked (each counted once, however
    /// often its client retried).
    offered: u64,
    /// Query submissions, client retries included.
    submitted: u64,
    /// Submissions answered (`Ok` or `Err`).
    completed: u64,
    /// Submissions answered `Ok`.
    served: u64,
    /// Answers that were `Err`.
    errors: u64,
    /// `Ok` answers within their deadline (no deadline counts as met).
    deadline_met: u64,
    /// Simulated battery drain over the round, joules.
    drain_j: f64,
    /// Simulated response time (queue wait plus execution) of each `Ok`
    /// answer, seconds.
    response_s: Vec<f64>,
    /// Named correctness checks and whether each held.
    checks: Vec<(&'static str, bool)>,
    /// Per-layer wall figures that must come from an untraced round.
    untraced_layer: Vec<(&'static str, f64)>,
}

impl Default for Round {
    fn default() -> Self {
        Round {
            digest: 0xcbf2_9ce4_8422_2325,
            op_us: Vec::new(),
            busy_s: 0.0,
            offered: 0,
            submitted: 0,
            completed: 0,
            served: 0,
            errors: 0,
            deadline_met: 0,
            drain_j: 0.0,
            response_s: Vec::new(),
            checks: Vec::new(),
            untraced_layer: Vec::new(),
        }
    }
}

impl Round {
    /// Fold one value into the outcome digest.
    fn fold(&mut self, x: u64) {
        self.digest = pg_sim::rng::mix(self.digest, x);
    }

    /// Fold a float by its bits, so any change in any digit shows.
    fn fold_f(&mut self, x: f64) {
        self.fold(x.to_bits());
    }

    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    /// Time one unit call.
    fn time_op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        self.busy_s += s;
        self.op_us.push(s * 1e6);
        out
    }
}

/// `a == b` to a relative tolerance (absolute near zero).
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-12)
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A workload: deterministic world construction, then one round over it.
trait Workload {
    type World;
    /// Build the world; the traced run may shadow calls on it first.
    fn build(&self, seed: u64, tracer: Option<&mut Tracer>) -> Self::World;
    fn run(&self, world: Self::World, tracer: Option<&mut Tracer>) -> Round;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: must be a non-negative number"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a measured run collected.
struct Run {
    rounds: Vec<Round>,
    setup_s: Vec<f64>,
    /// Peak RSS after the first round: what one run of the workload
    /// needs, independent of how many rounds fit in the time.
    peak_rss_mb: f64,
    tracer: Option<Tracer>,
}

/// Run rounds until `seconds` have passed.
fn measure<W: Workload>(w: &W, args: &Args) -> Run {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut rounds = Vec::new();
    let timed_build = |setup_s: &mut Vec<f64>, tracer: Option<&mut Tracer>| {
        let t = Instant::now();
        let world = w.build(args.seed, tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        world
    };
    let mut tracer = args.trace.then(Tracer::default);
    rounds.push(w.run(timed_build(&mut setup_s, None), None));
    let peak_rss_mb = peak_rss_mb();
    // The traced run adds a second, warm untraced round: the reference
    // whose digest every traced round must match and whose wall figures
    // anchor the tracing overhead.
    if args.trace {
        rounds.push(w.run(timed_build(&mut setup_s, None), None));
    }
    let min_rounds = if args.trace { 3 } else { 1 };
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        let world = timed_build(&mut setup_s, tracer.as_mut());
        rounds.push(w.run(world, tracer.as_mut()));
    }
    while setup_s.len() < SETUP_SAMPLES {
        drop(timed_build(&mut setup_s, None));
    }
    Run {
        rounds,
        setup_s,
        peak_rss_mb,
        tracer,
    }
}

fn report<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let Run {
        rounds,
        setup_s,
        peak_rss_mb,
        tracer,
    } = measure(w, args);
    let first = &rounds[0];
    let mut failed_checks: Vec<String> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        for (name, _) in r.checks.iter().filter(|(_, ok)| !ok) {
            failed_checks.push(format!("round {i}: {name}"));
        }
        if r.digest != first.digest {
            failed_checks.push(format!(
                "round {i} outcome digest {:016x} != {:016x}{}",
                r.digest,
                first.digest,
                if args.trace && i >= 2 {
                    " (tracing perturbed the run)"
                } else {
                    " (non-deterministic)"
                }
            ));
        }
    }

    let n = rounds.len() as u64;
    let attempted = first.submitted * n;
    let failed = first.errors * n;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(tr) = tracer {
        let mut layer = tr.into_metrics();
        // Tracing overhead: traced busy time over the untraced reference.
        let reference = &rounds[1];
        let traced: Vec<f64> = rounds[2..].iter().map(|r| r.busy_s).collect();
        layer.insert(
            "trace.overhead_frac",
            mean(&traced) / reference.busy_s - 1.0,
        );
        layer.extend(reference.untraced_layer.iter().copied());
        for &(name, unit) in PER_LAYER {
            metrics.push((name, layer.remove(name).unwrap_or(0.0), unit));
        }
        if let Some(extra) = layer.keys().next() {
            failed_checks.push(format!("unlisted per-layer metric {extra}"));
        }
    } else {
        // Wall figures are computed per round and the median over rounds
        // is reported: the host's speed drifts over seconds, and the median
        // shrugs off the rounds a burst of interference hit.
        let per_round =
            |f: &dyn Fn(&Round) -> f64| quantile(&rounds.iter().map(f).collect::<Vec<_>>(), 0.5);
        let late = |r: &Round| mean(&r.op_us[r.op_us.len() - (r.op_us.len() / 10).max(1)..]);
        let offered = first.offered.max(1) as f64;
        let values = [
            quantile(&setup_s, 0.5),
            per_round(&|r| r.completed as f64 / r.busy_s),
            first.served as f64 / offered,
            first.deadline_met as f64 / offered,
            peak_rss_mb,
            first.drain_j * 1e3 / first.completed.max(1) as f64,
            quantile(&first.response_s, 0.9),
            per_round(&|r| quantile(&r.op_us, 0.5)),
            per_round(&|r| quantile(&r.op_us, 0.99)),
            per_round(&late),
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            failed_checks.push(format!("{name} is not finite"));
        }
    }

    let correct = failed_checks.is_empty();
    for f in &failed_checks {
        eprintln!("perfbench: check failed: {f}");
    }
    eprintln!(
        "perfbench: {} rounds, {} ops, workload {} seed {}",
        rounds.len(),
        rounds.iter().map(|r| r.op_us.len()).sum::<usize>(),
        args.workload,
        args.seed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <handheld_session|metro_stream|federation_roam> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "handheld_session" => report(&handheld::Handheld, &args),
        "metro_stream" => report(&stream::Metro, &args),
        "federation_roam" => report(&federation::Roam, &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            ExitCode::from(2)
        }
    }
}
