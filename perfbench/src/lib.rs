//! Live-TCP end-to-end benchmark of a NetSolve domain.
//!
//! One invocation starts the shipped `ns-agent` and `ns-server` binaries
//! on loopback, drives them in a closed loop through the public
//! `NetSolveClient::netsl_timed`, checks every reply, and prints one JSON
//! result line. The untraced binary reports end-to-end metrics; the
//! traced binary (`perfbench-traced`, with the counting allocator)
//! reports per-layer metrics from spans around the benchmark's own calls
//! into each crate. See `perfbench/README.md`.

pub mod alloc;
pub mod domain;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod untraced;
pub mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use domain::{Binaries, Domain, SetupTimes};
use report::{list, num, object, string, Calls, Metric};
use workload::{CallInputs, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Verified calls an untraced window holds at least, so ten samples lie
/// beyond its p99. The traced run reports medians only and keeps to
/// `seconds`.
pub const MIN_CALLS: u64 = 1000;
/// Rounds an untraced window is cut into; its median, throughput and CPU
/// metrics are medians over the rounds, so host interference that hits
/// a few rounds (a slow phase of a shared host, a burst of CPU steal)
/// moves them less.
pub const ROUNDS: usize = 20;
/// Closed-loop warm-up before the window opens: per-client `describe`,
/// first-touch of buffers, the agent's first workload reports.
pub const WARMUP: Duration = Duration::from_secs(1);
/// A window stretched to reach its minimum call count never runs past
/// this, which keeps a traced invocation, an untraced reference run
/// followed by the traced run, inside the 170 s `run.py` allows it.
/// `bulk_dgtsv` reaches [`MIN_CALLS`] within it down to 10 calls/s.
pub const MAX_WINDOW: Duration = Duration::from_secs(100);
/// Input caller ids of the set-up calls and of the host-speed reading;
/// workers use 0..threads.
const SETUP_CALLER: u64 = 1 << 20;
const REFERENCE_CALLER: u64 = 1 << 21;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub bins: Binaries,
    pub out_dir: PathBuf,
    pub commit: String,
}

fn parse_args(mut args: impl Iterator<Item = String>, trace: bool) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut agent, mut server, mut out_dir, mut commit) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--agent-bin" => agent = Some(PathBuf::from(&value)),
            "--server-bin" => server = Some(PathBuf::from(&value)),
            "--out-dir" => out_dir = Some(PathBuf::from(&value)),
            "--commit" => commit = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |what: &str| format!("missing --{what}");
    Ok(Config {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace,
        bins: Binaries {
            agent: agent.ok_or_else(|| missing("agent-bin"))?,
            server: server.ok_or_else(|| missing("server-bin"))?,
        },
        out_dir: out_dir.ok_or_else(|| missing("out-dir"))?,
        commit: commit.unwrap_or_else(|| "unknown".into()),
    })
}

/// What a run hands back for printing.
pub struct Outcome {
    pub calls: Calls,
    pub window_secs: f64,
    pub setups: Vec<SetupTimes>,
    pub metrics: Vec<Metric>,
    /// Extra context fields, pre-rendered as JSON.
    pub context: Vec<(&'static str, String)>,
}

/// Entry point of both binaries. `traced` says whether this binary has
/// the counting allocator, and so which run it makes.
pub fn main(traced: bool) {
    let cfg = match parse_args(std::env::args().skip(1), traced) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&cfg) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct HostState {
    loadavg: [f64; 3],
    time_wait: u64,
    steal_secs: f64,
}

fn host_state() -> HostState {
    HostState {
        loadavg: sys::loadavg().unwrap_or_default(),
        time_wait: sys::tcp_time_wait().unwrap_or(0),
        steal_secs: sys::steal_secs().unwrap_or(0.0),
    }
}

/// Milliseconds of one in-process `dgesv` solve (n = 200), median of
/// five: a reading of host speed, which moves between phases on a shared
/// machine. It runs outside the window and feeds no metric.
fn host_reference_ms(seed: u64) -> f64 {
    let w = workload::by_name("medium_dgesv").expect("medium_dgesv is a workload");
    let mut inputs = CallInputs::generate(w, seed, REFERENCE_CALLER);
    let times: Vec<f64> = (0..5)
        .map(|k| {
            let args = inputs.prepare(k);
            let started = Instant::now();
            let solved = netsolve_solvers::execute(w.problem, std::hint::black_box(args));
            std::hint::black_box(solved).expect("reference solve succeeds");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

fn run(cfg: &Config) -> Result<(), String> {
    let reference_before = host_reference_ms(cfg.seed);
    let before = host_state();
    let outcome = if cfg.trace {
        traced::run(cfg)?
    } else {
        untraced::run(cfg)?
    };
    let after = host_state();
    let reference_after = host_reference_ms(cfg.seed);

    let w = cfg.workload;
    let stem = format!("{}-seed{}-trace{}", w.name, cfg.seed, u8::from(cfg.trace));
    let samples: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.samples.to_string()))
        .collect();
    let host = |h: HostState| {
        object(&[
            ("loadavg", list(h.loadavg.into_iter())),
            ("tcp_time_wait", h.time_wait.to_string()),
        ])
    };
    let mut fields = vec![
        ("workload", string(w.name)),
        ("problem", string(w.problem)),
        ("threads", w.threads.to_string()),
        ("seed", cfg.seed.to_string()),
        ("trace", cfg.trace.to_string()),
        ("commit", string(&cfg.commit)),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("host_before", host(before)),
        ("host_after", host(after)),
        ("cpu_steal_s", num(after.steal_secs - before.steal_secs)),
        (
            "host_reference_dgesv_ms",
            object(&[
                ("before", num(reference_before)),
                ("after", num(reference_after)),
            ]),
        ),
        ("seconds", cfg.seconds.to_string()),
        ("window_s", num(outcome.window_secs)),
        (
            "calls",
            object(&[
                ("attempted", outcome.calls.attempted.to_string()),
                (
                    "succeeded",
                    (outcome.calls.attempted - outcome.calls.failed).to_string(),
                ),
                ("failed", outcome.calls.failed.to_string()),
            ]),
        ),
        (
            "setup_total_s",
            list(outcome.setups.iter().map(|s| s.total)),
        ),
        ("samples", object(&samples)),
    ];
    fields.extend(outcome.context.iter().cloned());
    let context = object(&fields);
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let path = cfg.out_dir.join(format!("{stem}.context.json"));
    std::fs::write(&path, format!("{context}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("context: {context}");
    println!("{}", report::result_line(outcome.calls, &outcome.metrics));
    Ok(())
}

/// Bring the domain up [`SETUPS`] times, each from fresh processes, and
/// keep the last one running. Inputs exist before the first clock starts.
fn bring_up(cfg: &Config) -> Result<(Domain, Vec<SetupTimes>), String> {
    let mut first = CallInputs::generate(cfg.workload, cfg.seed, SETUP_CALLER);
    let mut times = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS as u64 {
        let domain = Domain::start(&cfg.bins, cfg.workload, first.prepare(i))?;
        times.push(domain.setup);
        if times.len() == SETUPS {
            return Ok((domain, times));
        }
    }
    unreachable!("SETUPS is positive")
}

/// The shared clock of one run's workers. Every worker warms up until
/// `start`, then calls while the window is open: at least `seconds`,
/// and on until the run holds `min_calls` verified calls, unless a worker
/// closes it first.
pub struct Window {
    pub start: Instant,
    seconds: Duration,
    min_calls: u64,
    verified: AtomicU64,
    closed: AtomicBool,
}

impl Window {
    fn new(seconds: u64, min_calls: u64) -> Window {
        Window {
            start: Instant::now() + WARMUP,
            seconds: Duration::from_secs(seconds),
            min_calls,
            verified: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    pub fn warming(&self) -> bool {
        Instant::now() < self.start
    }

    pub fn open(&self) -> bool {
        let elapsed = self.start.elapsed();
        !self.closed.load(Ordering::Relaxed)
            && elapsed < MAX_WINDOW
            && (elapsed < self.seconds || self.verified.load(Ordering::Relaxed) < self.min_calls)
    }

    pub fn verified(&self) {
        self.verified.fetch_add(1, Ordering::Relaxed);
    }

    /// End the window for every worker.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }
}

/// CPU seconds of the generator, agent and server processes.
fn cpu_secs(domain: &Domain) -> [f64; 3] {
    ["self".to_string(), domain.agent.pid(), domain.server.pid()]
        .map(|pid| sys::cpu_secs(&pid).unwrap_or(0.0))
}

fn peak_rss_mib(domain: &Domain) -> [f64; 3] {
    ["self".to_string(), domain.agent.pid(), domain.server.pid()]
        .map(|pid| sys::peak_rss_mib(&pid).unwrap_or(0.0))
}

/// How often the CPU readings are taken while a window is open.
const CPU_SAMPLE: Duration = Duration::from_millis(50);

/// What one window produced.
pub struct Driven<T, S> {
    /// Each worker's result, by thread index.
    pub results: Vec<T>,
    /// What `at_start` returned as the window opened.
    pub at_start: S,
    pub window_secs: f64,
    /// (seconds into the window, CPU seconds of the generator, agent and
    /// server so far), every [`CPU_SAMPLE`] from the window's start to
    /// its end.
    pub cpu_samples: Vec<(f64, [f64; 3])>,
}

impl<T, S> Driven<T, S> {
    /// CPU seconds of the generator, agent and server in the window.
    pub fn cpu_secs(&self) -> [f64; 3] {
        let (first, last) = (
            self.cpu_samples[0].1,
            self.cpu_samples[self.cpu_samples.len() - 1].1,
        );
        [0, 1, 2].map(|i| last[i] - first[i])
    }

    /// CPU seconds of all three processes between `from` and `to`
    /// seconds into the window, interpolated between readings.
    pub fn cpu_between(&self, from: f64, to: f64) -> f64 {
        let total_at = |t: f64| {
            let samples = &self.cpu_samples;
            let i = samples
                .partition_point(|(at, _)| *at < t)
                .clamp(1, samples.len() - 1);
            let ((t0, c0), (t1, c1)) = (samples[i - 1], samples[i]);
            let (c0, c1): (f64, f64) = (c0.iter().sum(), c1.iter().sum());
            let share = if t1 > t0 {
                ((t - t0) / (t1 - t0)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            c0 + share * (c1 - c0)
        };
        total_at(to) - total_at(from)
    }
}

/// Run `worker` on each of the workload's threads inside one window of
/// at least `min_calls` verified calls, calling `at_start` as the window
/// opens.
fn drive<T: Send, S>(
    cfg: &Config,
    domain: &Domain,
    min_calls: u64,
    at_start: impl FnOnce() -> S,
    worker: impl Fn(usize, &Window) -> T + Sync,
) -> Driven<T, S> {
    let window = Window::new(cfg.seconds, min_calls);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workload.threads)
            .map(|t| {
                let (worker, window) = (&worker, &window);
                s.spawn(move || worker(t, window))
            })
            .collect();
        std::thread::sleep(window.start.saturating_duration_since(Instant::now()));
        let at_start = at_start();
        let mut cpu_samples = vec![(0.0, cpu_secs(domain))];
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(CPU_SAMPLE);
            cpu_samples.push((window.start.elapsed().as_secs_f64(), cpu_secs(domain)));
        }
        let results: Vec<T> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let window_secs = window.start.elapsed().as_secs_f64();
        cpu_samples.push((window_secs, cpu_secs(domain)));
        Driven {
            results,
            at_start,
            window_secs,
            cpu_samples,
        }
    })
}
