//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each crate, from the daemons' counters and
//! histograms (`StatsQuery`), and from `/proc`.
//!
//! Each client thread repeats one cycle, every call with fresh inputs:
//!
//! 1. a `netsl_timed` call inside a `client.call` span;
//! 2. a decomposed call: a `bench.call` root over the five protocol legs
//!    `agent.query`, `net.connect`, `net.send`, `server.wait` and
//!    `agent.report`, made through the crates' public functions;
//! 3. in-process calls on the decomposed call's own messages:
//!    `proto.*` codec calls, `server.handle` and `agent.rank` on private
//!    cores, and `solvers.execute`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use netsolve_agent::{standard_descriptor, AgentCore, Policy};
use netsolve_client::NetSolveClient;
use netsolve_core::clock::SimTime;
use netsolve_core::config::AgentConfig;
use netsolve_core::data::DataObject;
use netsolve_core::ids::ServerId;
use netsolve_core::problem::{ProblemSpec, RequestShape};
use netsolve_net::{call, Connection, NetworkView, Transport};
use netsolve_obs::metrics::bucket_bound_secs;
use netsolve_obs::StatsSnapshot;
use netsolve_proto::{encode_frame_into, parse_frame, Message, QueryShape};
use netsolve_server::ServerCore;

use crate::domain::{Domain, CALL_TIMEOUT};
use crate::report::{metric, num, object, Calls, Metric};
use crate::spans::{durations_us, self_time_ns, write_jsonl, Span, SpanLog};
use crate::stats::median;
use crate::workload::{self, CallInputs, Workload};
use crate::{bring_up, drive, peak_rss_mib, Config, Outcome};

/// The five protocol legs of a decomposed call.
const LEGS: [&str; 5] = [
    "agent.query",
    "net.connect",
    "net.send",
    "server.wait",
    "agent.report",
];
/// In-process calls whose allocated bytes are reported.
const IN_PROCESS: [&str; 7] = [
    "proto.encode_request",
    "proto.decode_request",
    "server.handle",
    "solvers.execute",
    "proto.encode_reply",
    "proto.decode_reply",
    "agent.rank",
];

/// The spans file keeps the run's earliest spans only: a small-call run
/// records hundreds of thousands, all of which feed the metrics.
const MAX_SPANS_WRITTEN: usize = 50_000;

/// One client thread's share of the window.
#[derive(Default)]
struct Worker {
    calls: Calls,
    /// Calls that reached the live domain inside the window.
    live_calls: u64,
    spans: Vec<Span>,
    client_cpu_ns: Vec<f64>,
    predicted_over_actual: Vec<f64>,
    mflop_s: Vec<f64>,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    /// `client.attempts` and `client.calls` counted inside the window.
    attempts: u64,
    client_calls: u64,
    first_error: Option<String>,
}

impl Worker {
    fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.calls.failed += 1;
        self.first_error
            .get_or_insert_with(|| format!("{what}: {err}"));
    }
}

/// Private cores for the in-process layer calls: a server core like the
/// deployed one (standard catalogue, real execution, no cache) and an
/// agent core holding the same registration as the live agent.
struct Private {
    server: ServerCore,
    agent: Mutex<AgentCore>,
    server_id: ServerId,
}

/// Registrations never age on the private agent: every query sees the
/// state the registration left.
const PRIVATE_NOW: SimTime = SimTime::ZERO;

impl Private {
    fn new(domain: &Domain) -> Result<Private, String> {
        let info = &domain.server_info;
        let mut agent = AgentCore::new(
            AgentConfig::default(),
            Policy::MinimumCompletionTime,
            NetworkView::lan_defaults(),
        );
        let server_id = agent
            .register_server(
                &standard_descriptor(&info.host, &info.address, info.mflops),
                PRIVATE_NOW,
            )
            .map_err(|e| format!("private agent registration: {e}"))?;
        Ok(Private {
            server: ServerCore::with_standard_catalogue(),
            agent: Mutex::new(agent),
            server_id,
        })
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let inputs: Vec<Mutex<CallInputs>> = (0..w.threads as u64)
        .map(|t| Mutex::new(CallInputs::generate(w, cfg.seed, t)))
        .collect();
    let (domain, setups) = bring_up(cfg)?;
    let private = Private::new(&domain)?;
    let mut agent_probe = domain.stats_probe(&domain.agent_address)?;
    let mut server_probe = domain.stats_probe(&domain.server_info.address)?;
    let epoch = Instant::now();

    let driven = drive(
        cfg,
        &domain,
        0,
        || (agent_probe.read(), server_probe.read()),
        |t, window| {
            let mut inputs = inputs[t].lock().expect("each thread owns its inputs");
            let mut out = Worker::default();
            cycle_loop(
                w,
                &domain,
                &private,
                &mut inputs,
                t,
                window,
                epoch,
                &mut out,
            );
            out
        },
    );
    let cpu = driven.cpu_secs();
    let (agent_before, server_before) = driven.at_start;
    let (agent_before, server_before) = (agent_before?, server_before?);
    let (agent_after, server_after) = (agent_probe.read()?, server_probe.read()?);

    let mut calls = Calls {
        attempted: setups.len() as u64,
        failed: 0,
    };
    let mut w_all = Worker::default();
    for r in driven.results {
        calls.attempted += r.calls.attempted;
        calls.failed += r.calls.failed;
        if let Some(e) = &r.first_error {
            eprintln!("perfbench: failed call: {e}");
        }
        w_all.live_calls += r.live_calls;
        w_all.attempts += r.attempts;
        w_all.client_calls += r.client_calls;
        w_all.spans.extend(r.spans);
        w_all.client_cpu_ns.extend(r.client_cpu_ns);
        w_all.predicted_over_actual.extend(r.predicted_over_actual);
        w_all.mflop_s.extend(r.mflop_s);
        w_all.request_bytes.extend(r.request_bytes);
        w_all.reply_bytes.extend(r.reply_bytes);
    }
    let spans_path = cfg
        .out_dir
        .join(format!("{}-seed{}-trace1.spans.jsonl", w.name, cfg.seed));
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?,
    );
    w_all.spans.sort_by_key(|s| s.start_ns);
    let written = w_all.spans.len().min(MAX_SPANS_WRITTEN);
    write_jsonl(&w_all.spans[..written], &mut file).map_err(|e| format!("write spans: {e}"))?;
    std::io::Write::flush(&mut file).map_err(|e| format!("write spans: {e}"))?;

    let live = w_all.live_calls.max(1) as f64;
    let counter = |before: &StatsSnapshot, after: &StatsSnapshot, name: &str| {
        after.counter(name).saturating_sub(before.counter(name)) as f64
    };
    let server_p50_us =
        |name: &str| histogram_delta_p50_secs(&server_before, &server_after, name) * 1e6;
    let rss = peak_rss_mib(&domain);

    let spans = &w_all.spans;
    let med = |name: &str| median(&durations_us(spans, name));
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    let mean = |name: &str, field: fn(&Span) -> u64| {
        let values: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| field(s) as f64)
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    };
    let calls_n = count("client.call");
    let decomposed = decomposed_calls(spans);
    let legs_by_trace: HashMap<u64, f64> =
        decomposed.iter().map(|d| (d.trace, d.legs_us)).collect();
    let client_self = paired(spans, "client.call", &legs_by_trace);
    let execute_by_trace: HashMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == "solvers.execute")
        .map(|s| (s.trace, s.duration_ns() as f64 / 1e3))
        .collect();
    let dispatch_self = paired(spans, "server.handle", &execute_by_trace);
    let (call_us, execute_us) = (med("client.call"), med("solvers.execute"));
    let proto_us: f64 = [
        "proto.encode_request",
        "proto.decode_request",
        "proto.encode_reply",
        "proto.decode_reply",
    ]
    .iter()
    .map(|n| med(n))
    .sum();
    let (query_us, report_us) = (med("agent.query"), med("agent.report"));
    let setup_ms = |f: fn(&crate::domain::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let n_live = w_all.live_calls as usize;

    let mut metrics: Vec<Metric> = vec![
        metric("client.call_us", call_us, "us", calls_n),
        metric(
            "client.self_us",
            median(&client_self),
            "us",
            client_self.len(),
        ),
        metric(
            "client.attempts_per_call",
            w_all.attempts as f64 / w_all.client_calls.max(1) as f64,
            "count",
            w_all.client_calls as usize,
        ),
        metric(
            "client.allocs_per_call",
            mean("client.call", |s| s.allocs),
            "count",
            calls_n,
        ),
        metric(
            "client.alloc_bytes_per_call",
            mean("client.call", |s| s.alloc_bytes),
            "B",
            calls_n,
        ),
        metric(
            "client.cpu_ms_per_call",
            w_all.client_cpu_ns.iter().sum::<f64>() / 1e6 / w_all.client_cpu_ns.len().max(1) as f64,
            "ms",
            w_all.client_cpu_ns.len(),
        ),
        metric("client.peak_rss_mib", rss[0], "MiB", 1),
        metric("agent.query_us", query_us, "us", count("agent.query")),
        metric("agent.report_us", report_us, "us", count("agent.report")),
        metric(
            "agent.rank_us",
            med("agent.rank"),
            "us",
            count("agent.rank"),
        ),
        metric(
            "agent.round_trips_per_call",
            (counter(&agent_before, &agent_after, "agent.queries")
                + counter(&agent_before, &agent_after, "agent.success_reports"))
                / live,
            "count",
            n_live,
        ),
        metric("agent.cpu_ms_per_call", cpu[1] * 1e3 / live, "ms", n_live),
        metric("agent.peak_rss_mib", rss[1], "MiB", 1),
        metric(
            "agent.predicted_over_actual",
            median(&w_all.predicted_over_actual),
            "ratio",
            w_all.predicted_over_actual.len(),
        ),
        metric(
            "net.connect_us",
            med("net.connect"),
            "us",
            count("net.connect"),
        ),
        metric(
            "net.connects_per_call",
            counter(&server_before, &server_after, "server.accepts") / live,
            "count",
            n_live,
        ),
        metric("net.send_us", med("net.send"), "us", count("net.send")),
    ];
    for name in [
        "proto.encode_request",
        "proto.decode_request",
        "proto.encode_reply",
        "proto.decode_reply",
    ] {
        metrics.push(metric(format!("{name}_us"), med(name), "us", count(name)));
    }
    metrics.extend([
        metric(
            "proto.request_bytes",
            median(&w_all.request_bytes),
            "B",
            w_all.request_bytes.len(),
        ),
        metric(
            "proto.reply_bytes",
            median(&w_all.reply_bytes),
            "B",
            w_all.reply_bytes.len(),
        ),
        metric(
            "server.wait_us",
            med("server.wait"),
            "us",
            count("server.wait"),
        ),
        metric(
            "server.handle_us",
            med("server.handle"),
            "us",
            count("server.handle"),
        ),
        metric(
            "server.dispatch_self_us",
            median(&dispatch_self),
            "us",
            dispatch_self.len(),
        ),
        metric(
            "server.queue_us",
            server_p50_us("server.queue_secs"),
            "us",
            n_live,
        ),
        metric(
            "server.compute_us",
            server_p50_us("server.compute_secs"),
            "us",
            n_live,
        ),
        metric(
            "server.request_handle_us",
            server_p50_us("server.request_handle_secs"),
            "us",
            n_live,
        ),
        metric(
            "server.reply_marshal_us",
            server_p50_us("server.reply_marshal_secs"),
            "us",
            n_live,
        ),
        metric(
            "server.shed_per_call",
            (counter(&server_before, &server_after, "server.busy_rejected")
                + counter(&server_before, &server_after, "server.spawn_failures"))
                / live,
            "count",
            n_live,
        ),
        metric("server.cpu_ms_per_call", cpu[2] * 1e3 / live, "ms", n_live),
        metric("server.peak_rss_mib", rss[2], "MiB", 1),
        metric(
            "solvers.execute_us",
            execute_us,
            "us",
            count("solvers.execute"),
        ),
        metric(
            "solvers.mflop_s",
            median(&w_all.mflop_s),
            "Mflop/s",
            w_all.mflop_s.len(),
        ),
        metric(
            "setup.agent_ready_ms",
            setup_ms(|s| s.agent_ready),
            "ms",
            setups.len(),
        ),
        metric(
            "setup.server_ready_ms",
            setup_ms(|s| s.server_ready),
            "ms",
            setups.len(),
        ),
        metric(
            "setup.first_call_ms",
            setup_ms(|s| s.first_call),
            "ms",
            setups.len(),
        ),
        metric(
            "bench.call_self_us",
            median(&decomposed.iter().map(|d| d.self_us).collect::<Vec<_>>()),
            "us",
            decomposed.len(),
        ),
    ]);
    for name in IN_PROCESS {
        metrics.push(metric(
            format!("{name}_alloc_bytes"),
            mean(name, |s| s.alloc_bytes),
            "B",
            count(name),
        ));
    }

    let share = |part: f64| num(part / call_us.max(1e-9));
    Ok(Outcome {
        calls,
        window_secs: driven.window_secs,
        metrics,
        setups,
        context: vec![
            (
                "shares_of_client_call",
                object(&[
                    ("solvers", share(execute_us)),
                    ("proto", share(proto_us)),
                    ("agent_legs", share(query_us + report_us)),
                ]),
            ),
            (
                "spans_file",
                crate::report::string(&spans_path.display().to_string()),
            ),
            ("spans_written", written.to_string()),
            ("spans_total", spans.len().to_string()),
        ],
    })
}

/// One decomposed call: its trace, the summed duration of its five legs
/// and the root's self time.
struct Decomposed {
    trace: u64,
    legs_us: f64,
    self_us: f64,
}

fn decomposed_calls(spans: &[Span]) -> Vec<Decomposed> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    spans
        .iter()
        .filter(|s| s.name == "bench.call")
        .filter_map(|root| {
            let legs = children.get(&root.id)?;
            (legs.len() == LEGS.len()).then(|| Decomposed {
                trace: root.trace,
                legs_us: legs.iter().map(|l| l.duration_ns() as f64).sum::<f64>() / 1e3,
                self_us: self_time_ns(root, legs) as f64 / 1e3,
            })
        })
        .collect()
}

/// For each span named `name`, its duration minus the same trace's
/// entry in `other`, in µs, where that entry exists.
fn paired(spans: &[Span], name: &str, other: &HashMap<u64, f64>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| Some(s.duration_ns() as f64 / 1e3 - other.get(&s.trace)?))
        .collect()
}

/// p50 of the samples a daemon recorded into histogram `name` between
/// two snapshots, interpolated linearly inside the log bucket that holds
/// it (the bucket bound alone would repeat exactly from run to run); 0
/// when none were recorded.
fn histogram_delta_p50_secs(before: &StatsSnapshot, after: &StatsSnapshot, name: &str) -> f64 {
    let Some(a) = after.histogram(name) else {
        return 0.0;
    };
    let b = before.histogram(name);
    let counts: Vec<u64> = a
        .buckets
        .iter()
        .enumerate()
        .map(|(i, c)| c - b.and_then(|b| b.buckets.get(i).copied()).unwrap_or(0))
        .collect();
    let target = counts.iter().sum::<u64>() as f64 / 2.0;
    let mut below = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && below + c >= target {
            let lower = if i == 0 {
                0.0
            } else {
                bucket_bound_secs(i - 1)
            };
            return lower + (target - below) / c * (bucket_bound_secs(i) - lower);
        }
        below += c;
    }
    0.0
}

/// One client thread's traced cycles.
#[allow(clippy::too_many_arguments)]
fn cycle_loop(
    w: Workload,
    domain: &Domain,
    private: &Private,
    inputs: &mut CallInputs,
    t: usize,
    window: &crate::Window,
    epoch: Instant,
    out: &mut Worker,
) {
    let transport = domain.transport.as_ref();
    let client = NetSolveClient::new(domain.transport.clone(), &domain.agent_address);
    let spec = match client.describe(w.problem) {
        Ok(spec) => spec,
        Err(e) => return out.fail("describe", e),
    };
    let mut report_conn = match transport.connect(&domain.agent_address) {
        Ok(c) => c,
        Err(e) => return out.fail("agent connection", e),
    };
    let mut log = SpanLog::new(epoch, t as u64 + 1);
    let (mut request_frame, mut reply_frame) = (Vec::new(), Vec::new());
    let stride = w.threads as u64;
    let mut k = t as u64;
    let mut next = |inputs: &mut CallInputs| {
        let this = k;
        k += stride;
        inputs.prepare(this).to_vec()
    };

    // Warm-up: calls without spans.
    while window.warming() {
        let args = next(inputs);
        out.calls.attempted += 1;
        match client.netsl_timed(w.problem, &args) {
            Ok((outputs, _)) => {
                if let Err(e) = workload::check(w.problem, &args, &outputs) {
                    out.fail("warm-up call", e);
                }
            }
            Err(e) => out.fail("warm-up call", e),
        }
    }
    let metrics = client.metrics();
    let (attempts0, calls0) = (
        metrics.counter("client.attempts").get(),
        metrics.counter("client.calls").get(),
    );

    let mut cycle = 0u64;
    while window.open() {
        cycle += 1;
        let trace = (t as u64) << 40 | cycle;

        // 1. A real call inside a span.
        let args = next(inputs);
        out.calls.attempted += 1;
        out.live_calls += 1;
        let cpu_before = crate::sys::thread_cpu_ns();
        let result = log.time("client.call", 0, trace, || {
            client.netsl_timed(w.problem, &args)
        });
        let cpu_after = crate::sys::thread_cpu_ns();
        let verdict = result
            .map_err(|e| e.to_string())
            .and_then(|(outputs, report)| {
                workload::check(w.problem, &args, &outputs).map(|_| report)
            });
        match verdict {
            Ok(report) => {
                window.verified();
                if let (Some(a), Some(b)) = (cpu_before, cpu_after) {
                    out.client_cpu_ns.push(b.saturating_sub(a) as f64);
                }
                if report.total_secs > 0.0 {
                    out.predicted_over_actual
                        .push(report.predicted_secs / report.total_secs);
                }
            }
            Err(e) => out.fail("traced call", e),
        }

        // 2. Decomposed call through the public layer functions.
        let args = next(inputs);
        out.calls.attempted += 1;
        out.live_calls += 1;
        let shape = RequestShape::from_call(&spec, &args);
        let root = log.open();
        let legs = Legs {
            client: &client,
            transport,
            report_conn: &mut *report_conn,
            root: root.0,
            trace,
        };
        let submit = match decomposed_call(legs, &spec, &args, &shape, &mut log) {
            Ok(msg) => {
                window.verified();
                Some(msg)
            }
            Err(e) => {
                out.fail("decomposed call", e);
                None
            }
        };
        log.close("bench.call", root, 0, trace);

        // 3. In-process calls on the same inputs.
        let Some(submit) = submit else { continue };
        let encoded = log.time("proto.encode_request", 0, trace, || {
            encode_frame_into(&submit, &mut request_frame)
        });
        let decoded = log.time("proto.decode_request", 0, trace, || {
            parse_frame(&request_frame)
        });
        let reply = log.time("server.handle", 0, trace, || {
            private.server.handle_message(&submit)
        });
        let executed = log.time("solvers.execute", 0, trace, || {
            netsolve_solvers::execute(w.problem, &args)
        });
        let execute_secs = log
            .spans
            .last()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
        let reply_encoded = log.time("proto.encode_reply", 0, trace, || {
            encode_frame_into(&reply, &mut reply_frame)
        });
        let reply_decoded = log.time("proto.decode_reply", 0, trace, || parse_frame(&reply_frame));
        let query = QueryShape {
            client_host: 0,
            problem: shape.problem.clone(),
            n: shape.n,
            bytes_in: shape.bytes_in,
            bytes_out: shape.bytes_out,
            trace_id: 0,
            parent_span: 0,
        };
        let ranked = {
            let mut agent = private.agent.lock().expect("private agent lock");
            let ranked = log.time("agent.rank", 0, trace, || agent.query(&query, PRIVATE_NOW));
            // Clear the pending assignment the ranking noted, as the live
            // call's completion report does.
            agent.success_report(private.server_id);
            ranked
        };
        let verdict = (|| -> Result<(), String> {
            encoded.map_err(|e| format!("encode request: {e}"))?;
            if decoded.map_err(|e| format!("decode request: {e}"))?.0 != submit {
                return Err("request frame does not round-trip".into());
            }
            match &reply {
                Message::RequestReply { outputs, .. } => {
                    workload::check(w.problem, &args, outputs)?
                }
                other => return Err(format!("server core answered {}", other.name())),
            }
            let executed = executed.map_err(|e| format!("execute: {e}"))?;
            workload::check(w.problem, &args, &executed)?;
            reply_encoded.map_err(|e| format!("encode reply: {e}"))?;
            if reply_decoded.map_err(|e| format!("decode reply: {e}"))?.0 != reply {
                return Err("reply frame does not round-trip".into());
            }
            ranked.map_err(|e| format!("rank: {e}"))?;
            Ok(())
        })();
        match verdict {
            Ok(()) => {
                out.request_bytes.push(request_frame.len() as f64);
                out.reply_bytes.push(reply_frame.len() as f64);
                if execute_secs > 0.0 {
                    out.mflop_s
                        .push(spec.predicted_flops(&args) / execute_secs / 1e6);
                }
            }
            Err(e) => out.fail("in-process calls", e),
        }
    }
    out.attempts = metrics.counter("client.attempts").get() - attempts0;
    out.client_calls = metrics.counter("client.calls").get() - calls0;
    out.spans = log.spans;
}

/// What a decomposed call goes through, and where its spans hang.
struct Legs<'a> {
    client: &'a NetSolveClient,
    transport: &'a dyn Transport,
    /// The benchmark's own agent connection for completion reports.
    report_conn: &'a mut dyn Connection,
    root: u64,
    trace: u64,
}

/// The five legs of one call, each in its own span under the root.
/// Returns the submitted request so the in-process calls can reuse it.
fn decomposed_call(
    legs: Legs<'_>,
    spec: &ProblemSpec,
    args: &[DataObject],
    shape: &RequestShape,
    log: &mut SpanLog,
) -> Result<Message, String> {
    let Legs {
        client,
        transport,
        report_conn,
        root,
        trace,
    } = legs;
    let candidates = log
        .time("agent.query", root, trace, || {
            client.query_servers(spec, args)
        })
        .map_err(|e| format!("query: {e}"))?;
    let candidate = candidates.first().ok_or("agent returned no candidate")?;
    let submit = Message::RequestSubmit {
        request_id: trace,
        deadline_ms: 0,
        problem: spec.name.clone(),
        inputs: args.to_vec(),
        trace_id: 0,
        parent_span: 0,
    };
    let started = Instant::now();
    let mut conn = log
        .time("net.connect", root, trace, || {
            transport.connect(&candidate.address)
        })
        .map_err(|e| format!("connect: {e}"))?;
    log.time("net.send", root, trace, || conn.send(&submit))
        .map_err(|e| format!("send: {e}"))?;
    let reply = log
        .time("server.wait", root, trace, || {
            conn.recv_timeout(CALL_TIMEOUT)
        })
        .map_err(|e| format!("wait: {e}"))?;
    drop(conn);
    let total_secs = started.elapsed().as_secs_f64();
    let compute_secs = match reply {
        Message::RequestReply {
            outputs,
            compute_secs,
            ..
        } => {
            workload::check(&spec.name, args, &outputs)?;
            compute_secs
        }
        other => return Err(format!("server answered {}", other.name())),
    };
    let report = Message::CompletionReport {
        server_id: candidate.server_id,
        server_address: candidate.address.clone(),
        client_host: 0,
        problem: spec.name.clone(),
        total_secs,
        compute_secs,
        bytes: shape.total_bytes(),
    };
    match log.time("agent.report", root, trace, || {
        call(report_conn, &report, CALL_TIMEOUT)
    }) {
        Ok(Message::Pong) => Ok(submit),
        Ok(other) => Err(format!("report answered {}", other.name())),
        Err(e) => Err(format!("report: {e}")),
    }
}
