//! The daemon runtime shared by the agent and the computational server.
//!
//! Both NetSolve daemons are the same kind of long-lived process: accept
//! connections, answer requests on each, and run periodic work (workload
//! reports, liveness probes, telemetry ticks) until told to stop. A
//! [`DaemonRuntime`] owns exactly that and nothing daemon-specific:
//!
//! * one accept loop ([`DaemonRuntime::serve`]) with a connection cap.
//!   Connections past the cap, and connections whose service thread
//!   cannot be spawned, get a retryable `server busy: …` error and are
//!   dropped, so a flood or a thread shortage degrades into shed load
//!   instead of unbounded thread growth or a dead accept thread. The
//!   loop counts `{role}.accepts`, `{role}.busy_rejected` and
//!   `{role}.spawn_failures`;
//! * periodic tasks ([`DaemonRuntime::every`]), one thread each, because
//!   each may block on its own network timeouts;
//! * a [`StopSignal`] that wakes every waiting task at once;
//! * [`DaemonRuntime::stop`], which signals, unblocks the accept loop and
//!   joins every runtime thread.
//!
//! What a connection *means* stays with the daemon: it hands `serve` a
//! handler that runs on the connection's own thread.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netsolve_core::error::{NetSolveError, Result};
use netsolve_obs::{MetricsRegistry, SpanContext, Tracer};
use netsolve_proto::Message;

use crate::transport::{Connection, Listener, Transport};

/// Shared stop flag whose waiters wake the moment it is raised.
#[derive(Clone, Default)]
pub struct StopSignal(Arc<StopState>);

#[derive(Default)]
struct StopState {
    stopped: AtomicBool,
    lock: Mutex<()>,
    cond: Condvar,
}

impl StopSignal {
    /// Whether stop has been requested. Lock-free; cheap enough for a
    /// per-request check.
    pub fn is_stopped(&self) -> bool {
        self.0.stopped.load(Ordering::Acquire)
    }

    /// Sleep for `timeout` unless stop is raised first. Returns `true`
    /// when stopped (possibly at once), `false` when the time ran out.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.0.lock.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if self.is_stopped() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            guard = self
                .0
                .cond
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Raise the signal and wake every waiter. Returns `false` if it was
    /// already raised.
    fn raise(&self) -> bool {
        // Raised under the lock so a waiter between its flag check and
        // its condvar wait cannot miss the notification.
        let _guard = self.0.lock.lock().unwrap_or_else(|p| p.into_inner());
        let first = !self.0.stopped.swap(true, Ordering::AcqRel);
        self.0.cond.notify_all();
        first
    }
}

/// Accept-loop settings for [`DaemonRuntime::serve`].
pub struct AcceptPolicy {
    /// Metric prefix and thread-name prefix (`"agent"`, `"server"`).
    pub role: &'static str,
    /// Connections served at once; further ones are answered Busy.
    pub max_connections: u32,
    /// When set, each accept leaves a traceless `{role}/accept` point.
    pub tracer: Option<Arc<Tracer>>,
}

/// The threads and stop signal of one running daemon.
pub struct DaemonRuntime {
    transport: Arc<dyn Transport>,
    stop: StopSignal,
    /// Address of the served listener, dialled by `stop` to wake accept.
    listening: Option<String>,
    threads: Vec<JoinHandle<()>>,
}

impl DaemonRuntime {
    /// A runtime with no threads yet; `transport` is used to unblock the
    /// accept loop on stop.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        DaemonRuntime {
            transport,
            stop: StopSignal::default(),
            listening: None,
            threads: Vec::new(),
        }
    }

    /// The signal [`stop`](Self::stop) raises.
    pub fn stop_signal(&self) -> StopSignal {
        self.stop.clone()
    }

    /// Run the accept loop on its own thread: every accepted connection
    /// is handed to `handler` on a fresh thread, up to
    /// `policy.max_connections` at once.
    ///
    /// The protocol is strictly client-sends-then-receives, so a Busy
    /// error sent unasked is the first frame a rejected client reads.
    pub fn serve<H>(
        &mut self,
        listener: Box<dyn Listener>,
        policy: AcceptPolicy,
        metrics: &MetricsRegistry,
        handler: H,
    ) -> Result<()>
    where
        H: Fn(Box<dyn Connection>) + Send + Sync + 'static,
    {
        let AcceptPolicy { role, max_connections, tracer } = policy;
        let max_conns = max_connections.max(1);
        let accepts = metrics.counter(&format!("{role}.accepts"));
        let busy_rejected = metrics.counter(&format!("{role}.busy_rejected"));
        let spawn_failures = metrics.counter(&format!("{role}.spawn_failures"));
        let handler = Arc::new(handler);
        let live_conns = Arc::new(AtomicU32::new(0));
        let stop = self.stop.clone();
        self.listening = Some(listener.address());
        self.spawn(format!("{role}-accept"), move || loop {
            let accepted = listener.accept();
            if stop.is_stopped() {
                break;
            }
            let Ok(conn) = accepted else {
                continue; // transient accept failure; keep serving
            };
            accepts.inc();
            if let Some(tracer) = &tracer {
                // No request context exists yet at accept time.
                tracer.point(SpanContext::NONE, role, "accept", String::new());
            }
            if live_conns.fetch_add(1, Ordering::AcqRel) >= max_conns {
                live_conns.fetch_sub(1, Ordering::AcqRel);
                busy_rejected.inc();
                send_busy(conn, format!("server busy: {max_conns} connection(s) already open"));
                continue;
            }
            // Park the connection where a failed spawn can still reach it
            // to answer Busy.
            let slot = Arc::new(Mutex::new(Some(conn)));
            let thread_slot = Arc::clone(&slot);
            let handler = Arc::clone(&handler);
            let conns = Arc::clone(&live_conns);
            let spawned = std::thread::Builder::new().name(format!("{role}-conn")).spawn(move || {
                let conn = thread_slot.lock().unwrap_or_else(|p| p.into_inner()).take();
                if let Some(conn) = conn {
                    handler(conn);
                }
                conns.fetch_sub(1, Ordering::AcqRel);
            });
            if spawned.is_err() {
                // Out of threads: shed this connection, never panic the
                // accept loop.
                live_conns.fetch_sub(1, Ordering::AcqRel);
                spawn_failures.inc();
                let conn = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
                if let Some(conn) = conn {
                    send_busy(conn, "server busy: cannot spawn connection thread".into());
                }
            }
        })
    }

    /// Run `task` every `period` on its own thread until stopped. The
    /// first run comes one period after the call, and each period is
    /// counted from the end of the previous run. `task` receives the
    /// stop signal so a long round can bail out between slow steps.
    pub fn every<T>(&mut self, name: &str, period: Duration, mut task: T) -> Result<()>
    where
        T: FnMut(&StopSignal) + Send + 'static,
    {
        let stop = self.stop.clone();
        self.spawn(name.to_string(), move || {
            while !stop.wait(period) {
                task(&stop);
            }
        })
    }

    fn spawn(&mut self, name: String, body: impl FnOnce() + Send + 'static) -> Result<()> {
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(body)
            .map_err(|e| NetSolveError::Resource(format!("cannot spawn {name} thread: {e}")))?;
        self.threads.push(handle);
        Ok(())
    }

    /// Raise the stop signal, wake the accept loop and join every runtime
    /// thread. Connection threads are not joined: each daemon decides at
    /// its next request boundary what a stopped connection does.
    /// Idempotent.
    pub fn stop(&mut self) {
        if !self.stop.raise() {
            return;
        }
        if let Some(address) = &self.listening {
            self.transport.unblock(address);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for DaemonRuntime {
    fn drop(&mut self) {
        self.stop();
    }
}

fn send_busy(mut conn: Box<dyn Connection>, detail: String) {
    let _ = conn.send(&Message::from_error(&NetSolveError::Resource(detail)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelNetwork;
    use crate::transport::call;

    fn echo_runtime(net: &ChannelNetwork, cap: u32) -> (DaemonRuntime, Arc<MetricsRegistry>) {
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let metrics = Arc::new(MetricsRegistry::new());
        let mut rt = DaemonRuntime::new(Arc::clone(&transport));
        let listener = transport.listen("echo").unwrap();
        let policy = AcceptPolicy { role: "echo", max_connections: cap, tracer: None };
        rt.serve(listener, policy, &metrics, |mut conn| {
            while let Ok(msg) = conn.recv() {
                let reply = if msg == Message::Ping { Message::Pong } else { msg };
                if conn.send(&reply).is_err() {
                    return;
                }
            }
        })
        .unwrap();
        (rt, metrics)
    }

    #[test]
    fn connection_past_the_cap_gets_busy_and_is_counted() {
        let net = ChannelNetwork::new();
        let (mut rt, metrics) = echo_runtime(&net, 1);
        let timeout = Duration::from_secs(5);

        // The first connection holds the only slot while it stays open.
        let mut first = net.connect("echo").unwrap();
        assert_eq!(call(first.as_mut(), &Message::Ping, timeout).unwrap(), Message::Pong);

        // The Busy reply is unsolicited: read it without sending, since the
        // runtime may drop the rejected connection before a send lands.
        let mut second = net.connect("echo").unwrap();
        let reply = second.recv_timeout(timeout).unwrap();
        let expected = Message::from_error(&NetSolveError::Resource(
            "server busy: 1 connection(s) already open".into(),
        ));
        assert_eq!(reply, expected);
        let snap = metrics.snapshot("echo");
        assert_eq!(snap.counter("echo.busy_rejected"), 1);
        assert_eq!(snap.counter("echo.accepts"), 2);
        assert_eq!(snap.counter("echo.spawn_failures"), 0);

        // Closing the first frees its slot for the next dial.
        drop(first);
        let deadline = Instant::now() + timeout;
        loop {
            let mut conn = net.connect("echo").unwrap();
            if let Ok(Message::Pong) = call(conn.as_mut(), &Message::Ping, timeout) {
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed");
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.stop();
    }

    #[test]
    fn stop_wakes_periodic_tasks_at_once() {
        let net = ChannelNetwork::new();
        let (mut rt, _) = echo_runtime(&net, 4);
        let runs = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&runs);
        rt.every("fast", Duration::from_millis(1), move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        rt.every("slow", Duration::from_secs(3600), |_| unreachable!("period never elapses"))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while runs.load(Ordering::Relaxed) < 3 {
            assert!(Instant::now() < deadline, "periodic task never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        rt.stop();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "stop took {took:?}");
        // Stopped means stopped: no further runs, the listener is gone,
        // and stop is idempotent.
        let after = runs.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::Relaxed), after);
        assert!(net.connect("echo").is_err());
        rt.stop();
    }
}
