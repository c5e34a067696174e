//! The untraced run: end-to-end metrics only. Nothing here records spans
//! or counts allocations, and the program's own tracer stays at its
//! shipped default.

use std::sync::Mutex;
use std::time::Instant;

use netsolve_client::NetSolveClient;

use crate::report::{list, metric, num, object, string, Calls};
use crate::stats::{median, nearest_rank, percentile};
use crate::workload::{self, CallInputs};
use crate::{bring_up, drive, peak_rss_mib, Config, Outcome, MIN_CALLS, ROUNDS};

/// Call slots per thread, 2 MiB, written before the set-ups so that the
/// generator's peak RSS does not move with the call count. A thread that
/// fills its slots closes the window; at 13,000 calls/s per thread that
/// takes ten seconds.
const CALL_CAPACITY: usize = 1 << 17;

/// One verified call in the window.
#[derive(Debug, Clone, Copy, Default)]
struct Call {
    /// Seconds into the window at which the reply was checked.
    end_s: f64,
    latency_s: f64,
}

/// One client thread's share of the window.
#[derive(Default)]
struct Worker {
    calls: Calls,
    verified: Vec<Call>,
    /// f64 input plus output payload of the verified calls.
    payload_bytes: u64,
    first_error: Option<String>,
}

impl Worker {
    /// A worker whose call slots are already resident.
    fn prefaulted() -> Worker {
        let mut verified = vec![Call::default(); CALL_CAPACITY];
        std::hint::black_box(&mut verified);
        verified.clear();
        Worker {
            verified,
            ..Worker::default()
        }
    }
}

/// The timing metrics of one round.
struct Round {
    p50_s: f64,
    /// `None` when fewer than ten of the round's calls lie beyond it.
    p99_s: Option<f64>,
    calls_per_s: f64,
    goodput_mib_s: f64,
    cpu_ms_per_call: f64,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let inputs: Vec<Mutex<CallInputs>> = (0..w.threads as u64)
        .map(|t| Mutex::new(CallInputs::generate(w, cfg.seed, t)))
        .collect();
    let workers: Vec<Mutex<Worker>> = (0..w.threads)
        .map(|_| Mutex::new(Worker::prefaulted()))
        .collect();
    let (domain, setups) = bring_up(cfg)?;

    let driven = drive(
        cfg,
        &domain,
        MIN_CALLS,
        || (),
        |t, window| {
            let mut inputs = inputs[t].lock().expect("each thread owns its inputs");
            let client = NetSolveClient::new(domain.transport.clone(), &domain.agent_address);
            let mut out =
                std::mem::take(&mut *workers[t].lock().expect("each thread owns its worker"));
            // Thread t issues calls t, t + threads, t + 2 * threads, ...
            let mut k = t as u64;
            loop {
                let timed = !window.warming();
                if timed && !window.open() {
                    break;
                }
                let args = inputs.prepare(k);
                k += w.threads as u64;
                out.calls.attempted += 1;
                let started = Instant::now();
                let result = client.netsl_timed(w.problem, args);
                let latency_s = started.elapsed().as_secs_f64();
                let verdict = result.map_err(|e| e.to_string()).and_then(|(outputs, _)| {
                    workload::check(w.problem, args, &outputs).map(|_| outputs)
                });
                match verdict {
                    Ok(outputs) if timed => {
                        window.verified();
                        out.verified.push(Call {
                            end_s: window.start.elapsed().as_secs_f64(),
                            latency_s,
                        });
                        out.payload_bytes +=
                            workload::payload_bytes(args) + workload::payload_bytes(&outputs);
                        if out.verified.len() == CALL_CAPACITY {
                            window.close();
                        }
                    }
                    Ok(_) => {}
                    Err(e) => {
                        out.calls.failed += 1;
                        out.first_error.get_or_insert(e);
                    }
                }
            }
            out
        },
    );
    // Read before the calls are gathered below, which allocates in
    // proportion to the call count.
    let rss = peak_rss_mib(&domain);

    let mut calls = Calls {
        attempted: setups.len() as u64,
        failed: 0,
    };
    let mut verified: Vec<Call> = Vec::new();
    let mut payload_bytes = 0;
    for r in &driven.results {
        calls.attempted += r.calls.attempted;
        calls.failed += r.calls.failed;
        payload_bytes += r.payload_bytes;
        verified.extend(&r.verified);
        if let Some(e) = &r.first_error {
            eprintln!("perfbench: failed call: {e}");
        }
    }
    // Rounds are consecutive twentieths of the verified calls in completion
    // order; a round spans from the previous round's last reply to its
    // own.
    verified.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let n = verified.len();
    if n < 2 * ROUNDS {
        return Err(format!("only {n} verified calls in the window"));
    }
    let bytes_per_call = payload_bytes as f64 / n as f64;
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut from_s = 0.0;
    for r in 0..ROUNDS {
        let round = &verified[r * n / ROUNDS..(r + 1) * n / ROUNDS];
        let to_s = match round.last() {
            Some(last) if r + 1 < ROUNDS => last.end_s,
            _ => driven.window_secs,
        };
        let secs = to_s - from_s;
        let mut latencies: Vec<f64> = round.iter().map(|c| c.latency_s).collect();
        latencies.sort_by(f64::total_cmp);
        let (p50_s, _) = nearest_rank(&latencies, 0.5).expect("a round holds calls");
        rounds.push(Round {
            p50_s,
            p99_s: percentile(&latencies, 0.99),
            calls_per_s: round.len() as f64 / secs,
            goodput_mib_s: round.len() as f64 * bytes_per_call / secs / (1u64 << 20) as f64,
            cpu_ms_per_call: driven.cpu_between(from_s, to_s) * 1e3 / round.len() as f64,
        });
        from_s = to_s;
    }
    let over_rounds = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    // The p99 is the median of the rounds' p99s when every round holds
    // enough calls for one (small_ddot), else the whole window's. A window
    // cut short by MAX_WINDOW may hold fewer than ten calls beyond even
    // that; it still reports the nearest rank rather than fail the run,
    // and says so.
    let round_p99s: Option<Vec<f64>> = rounds.iter().map(|r| r.p99_s).collect();
    let (p99_s, p99_over) = match round_p99s {
        Some(p99s) => (median(&p99s), "rounds"),
        None => {
            let mut latencies: Vec<f64> = verified.iter().map(|c| c.latency_s).collect();
            latencies.sort_by(f64::total_cmp);
            match percentile(&latencies, 0.99) {
                Some(p99) => (p99, "window"),
                None => {
                    let (p99, beyond) =
                        nearest_rank(&latencies, 0.99).expect("the window holds calls");
                    eprintln!("perfbench: only {beyond} of {n} calls lie beyond the p99");
                    (p99, "window, fewer than ten beyond")
                }
            }
        }
    };

    let setup_totals: Vec<f64> = setups.iter().map(|s| s.total).collect();
    Ok(Outcome {
        calls,
        window_secs: driven.window_secs,
        metrics: vec![
            metric("setup_s", median(&setup_totals), "s", setups.len()),
            metric("call_p50_ms", over_rounds(|r| r.p50_s) * 1e3, "ms", n),
            metric("call_p99_ms", p99_s * 1e3, "ms", n),
            metric("calls_per_s", over_rounds(|r| r.calls_per_s), "1/s", n),
            metric(
                "goodput_mib_s",
                over_rounds(|r| r.goodput_mib_s),
                "MiB/s",
                n,
            ),
            metric(
                "cpu_ms_per_call",
                over_rounds(|r| r.cpu_ms_per_call),
                "ms",
                n,
            ),
            metric("peak_rss_mib", rss.iter().sum(), "MiB", 3),
        ],
        setups,
        context: vec![
            ("cpu_s", per_process(driven.cpu_secs())),
            ("peak_rss_mib", per_process(rss)),
            (
                "rounds",
                object(&[
                    ("calls_per_s", list(rounds.iter().map(|r| r.calls_per_s))),
                    ("p50_ms", list(rounds.iter().map(|r| r.p50_s * 1e3))),
                    (
                        "cpu_ms_per_call",
                        list(rounds.iter().map(|r| r.cpu_ms_per_call)),
                    ),
                    (
                        "p99_ms",
                        list(rounds.iter().filter_map(|r| r.p99_s).map(|s| s * 1e3)),
                    ),
                ]),
            ),
            ("p99_over", string(p99_over)),
        ],
    })
}

fn per_process(values: [f64; 3]) -> String {
    object(&[
        ("generator", num(values[0])),
        ("agent", num(values[1])),
        ("server", num(values[2])),
    ])
}
