//! The live agent daemon: an [`AgentCore`] served over a transport.
//!
//! Runs on the shared [`DaemonRuntime`]: one accept loop, each connection
//! on its own handler thread running a simple request/reply protocol
//! (every incoming message is answered), periodic tasks woken at once by
//! stop. Works identically over TCP and the in-process channel transport.
//!
//! The daemon also runs a heartbeat prober: every probe interval it dials
//! each registered server with a `Ping` and feeds the outcome into the
//! core's fault tracker, so dead servers drop out of rankings even when no
//! client ever reports them, and recovered servers are re-admitted.
//!
//! Federated daemons additionally run a gossip loop: every gossip interval
//! the agent pushes its full registration view (`GossipSync`) to each
//! peer, merges nothing itself on the send side (merging happens when
//! peers' rounds arrive), and treats the round as a peer liveness probe —
//! a peer that misses enough consecutive rounds is marked down (skipped by
//! the one-hop query widening path) and re-probed every round until it
//! answers again.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use netsolve_core::clock::{Clock, RealClock};
use netsolve_core::config::HeartbeatPolicy;
use netsolve_core::error::Result;
use netsolve_core::ids::ServerId;
use netsolve_net::{AcceptPolicy, Connection, DaemonRuntime, StopSignal, Transport};
use parking_lot::Mutex;

use crate::core::AgentCore;

/// Handle to a running agent daemon.
pub struct AgentDaemon {
    core: Arc<Mutex<AgentCore>>,
    address: String,
    runtime: DaemonRuntime,
    peers: Arc<Mutex<Vec<String>>>,
}

/// How long a federated agent waits for each peer's answer.
const PEER_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// What every connection thread shares.
struct ConnShared {
    core: Arc<Mutex<AgentCore>>,
    clock: Arc<dyn Clock>,
    transport: Arc<dyn Transport>,
    peers: Arc<Mutex<Vec<String>>>,
    peer_down: Arc<Mutex<HashSet<String>>>,
    stop: StopSignal,
}

impl AgentDaemon {
    /// Start an agent listening at `hint` on the given transport, serving
    /// the given core. Time is wall-clock.
    pub fn start(
        transport: Arc<dyn Transport>,
        hint: &str,
        core: AgentCore,
    ) -> Result<AgentDaemon> {
        Self::start_with_clock(transport, hint, core, Arc::new(RealClock::new()))
    }

    /// Start a *federated* agent: when a local server query finds nothing,
    /// the daemon forwards it to the peer agents at `peers` and merges
    /// their candidate lists (best predicted time first). Peers answer
    /// from local state only, so federation depth is one hop and loops are
    /// impossible even when peers list each other.
    pub fn start_federated(
        transport: Arc<dyn Transport>,
        hint: &str,
        core: AgentCore,
        peers: Vec<String>,
    ) -> Result<AgentDaemon> {
        Self::start_inner(
            transport,
            hint,
            core,
            Arc::new(RealClock::new()),
            peers,
            HeartbeatPolicy::default(),
        )
    }

    /// Start with an explicit clock (tests use a virtual one).
    pub fn start_with_clock(
        transport: Arc<dyn Transport>,
        hint: &str,
        core: AgentCore,
        clock: Arc<dyn Clock>,
    ) -> Result<AgentDaemon> {
        Self::start_inner(transport, hint, core, clock, Vec::new(), HeartbeatPolicy::default())
    }

    /// Start with an explicit clock and heartbeat policy. The clock must
    /// be shared with anyone who later queries the core's fault state,
    /// since down-cooldowns compare [`SimTime`]s from this clock.
    ///
    /// [`SimTime`]: netsolve_core::clock::SimTime
    pub fn start_with_heartbeat(
        transport: Arc<dyn Transport>,
        hint: &str,
        core: AgentCore,
        clock: Arc<dyn Clock>,
        heartbeat: HeartbeatPolicy,
    ) -> Result<AgentDaemon> {
        Self::start_inner(transport, hint, core, clock, Vec::new(), heartbeat)
    }

    fn start_inner(
        transport: Arc<dyn Transport>,
        hint: &str,
        mut core: AgentCore,
        clock: Arc<dyn Clock>,
        peers: Vec<String>,
        heartbeat: HeartbeatPolicy,
    ) -> Result<AgentDaemon> {
        let listener = transport.listen(hint)?;
        let address = listener.address();
        core.set_self_address(&address);
        let metrics = core.metrics();
        let (gossip_interval, telemetry) =
            (core.gossip_policy().interval_secs, core.telemetry_policy());
        let core = Arc::new(Mutex::new(core));
        let peers = Arc::new(Mutex::new(peers));
        let peer_down: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
        let mut runtime = DaemonRuntime::new(Arc::clone(&transport));

        runtime.every(
            "agent-heartbeat",
            Duration::from_secs_f64(heartbeat.probe_interval_secs.max(0.001)),
            heartbeat_round(
                Arc::clone(&transport),
                Arc::clone(&core),
                Arc::clone(&clock),
                heartbeat,
            ),
        )?;
        // The gossip loop runs even when the peer list starts empty:
        // peers can arrive later via `set_peers` (live demos bind
        // ephemeral ports first, then wire the mesh).
        runtime.every(
            "agent-gossip",
            Duration::from_secs_f64(gossip_interval.max(0.001)),
            gossip_round(
                Arc::clone(&transport),
                Arc::clone(&core),
                Arc::clone(&clock),
                address.clone(),
                Arc::clone(&peers),
                Arc::clone(&peer_down),
            ),
        )?;
        // Telemetry sampler: ticks this agent's own windowed series,
        // scrapes locally-registered servers for their digests, and
        // expires dead peers' series — the state gossip replicates.
        if telemetry.digests {
            runtime.every(
                "agent-telemetry",
                Duration::from_secs_f64(telemetry.tick_secs.clamp(0.005, 60.0)),
                telemetry_round(
                    Arc::clone(&transport),
                    Arc::clone(&core),
                    Arc::clone(&clock),
                    address.clone(),
                ),
            )?;
        }

        // The agent answers every connection: `r11_admission` holds one
        // open per in-flight request, so the cap is effectively unbounded.
        let shared = ConnShared {
            core: Arc::clone(&core),
            clock,
            transport,
            peers: Arc::clone(&peers),
            peer_down,
            stop: runtime.stop_signal(),
        };
        runtime.serve(
            listener,
            AcceptPolicy { role: "agent", max_connections: u32::MAX, tracer: None },
            &metrics,
            move |conn| serve_connection(conn, &shared),
        )?;

        Ok(AgentDaemon { core, address, runtime, peers })
    }

    /// Address clients and servers should dial.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// Shared handle to the core (experiments inspect and tweak state).
    pub fn core(&self) -> Arc<Mutex<AgentCore>> {
        Arc::clone(&self.core)
    }

    /// Replace the peer agent list. Live TCP deployments bind ephemeral
    /// ports first and only then know each other's addresses; the gossip
    /// loop and the query-widening path both read the list per use, so
    /// the new mesh takes effect on the next round/request.
    pub fn set_peers(&self, peers: Vec<String>) {
        *self.peers.lock() = peers;
    }

    /// Stop accepting connections and join the accept and periodic
    /// threads. Existing per-connection threads drop their connection at
    /// the next request boundary without replying — a stopped agent goes
    /// silent the way a crashed one does, so pinned clients fail over
    /// instead of talking to a zombie. Dropping the daemon also stops it.
    pub fn stop(&mut self) {
        self.runtime.stop();
    }
}

/// Heartbeat prober, run every `probe_interval_secs`: dial each
/// registered server with a `Ping`. A `Pong` within the probe timeout
/// clears the server's fault record; `miss_threshold` consecutive misses
/// force-mark it down. Miss counts deliberately survive the down-mark, so
/// the half-open probe after the cooldown sends a server straight back
/// down on a single further miss (and fully recovers it on a single
/// success).
fn heartbeat_round(
    transport: Arc<dyn Transport>,
    core: Arc<Mutex<AgentCore>>,
    clock: Arc<dyn Clock>,
    policy: HeartbeatPolicy,
) -> impl FnMut(&StopSignal) + Send + 'static {
    let probe_timeout = Duration::from_secs_f64(policy.probe_timeout_secs.max(0.001));
    let mut misses: HashMap<ServerId, u32> = HashMap::new();
    let (metrics, tracer) = {
        let core = core.lock();
        (core.metrics(), core.tracer())
    };
    move |stop| {
        let targets = core.lock().probe_targets(clock.now());
        for (server, address) in targets {
            if stop.is_stopped() {
                return;
            }
            // Probe outside the core lock: a black-holed dial may block
            // for the full probe timeout. Heartbeats are traceless — no
            // request context exists (stitching skips trace 0).
            let probe_timer = tracer.start();
            let alive = probe_once(&transport, &address, probe_timeout);
            tracer.record(
                netsolve_obs::SpanContext::NONE,
                probe_timer,
                "agent",
                "heartbeat",
                format!("server={} alive={alive}", server.raw()),
            );
            let mut core = core.lock();
            if alive {
                misses.remove(&server);
                core.probe_succeeded(server);
            } else {
                metrics.counter("agent.heartbeat_misses").inc();
                let count = misses.entry(server).or_insert(0);
                *count = count.saturating_add(1);
                if *count >= policy.miss_threshold {
                    core.probe_exhausted(server, clock.now());
                }
            }
        }
    }
}

/// One liveness probe: dial, Ping, expect Pong within the timeout.
fn probe_once(transport: &Arc<dyn Transport>, address: &str, timeout: Duration) -> bool {
    let Ok(mut conn) = transport.connect(address) else {
        return false;
    };
    matches!(
        netsolve_net::call(conn.as_mut(), &netsolve_proto::Message::Ping, timeout),
        Ok(netsolve_proto::Message::Pong)
    )
}

fn serve_connection(mut conn: Box<dyn Connection>, shared: &ConnShared) {
    let ConnShared { core, clock, transport, peers, peer_down, stop } = shared;
    loop {
        let msg = match conn.recv() {
            Ok(m) => m,
            Err(_) => return, // peer hung up or stream corrupted
        };
        // A stopped daemon answers nothing: dropping the connection
        // without a reply is what a crashed agent looks like on the
        // wire, and it is what pushes a pinned client into failover.
        if stop.is_stopped() {
            return;
        }
        let mut reply = {
            let mut core = core.lock();
            let now = clock.now();
            core.handle_message(&msg, now)
        };
        // Federation: client requests that found nothing locally are
        // widened to the peer agents (outside the core lock — peers may be
        // slow). Forwarded variants are answered locally only, so
        // federation is one hop deep and loop-free. Peers the gossip loop
        // has marked down are skipped; the widening path must not pay
        // connect timeouts to a known-dead agent on the client's clock.
        let live_peers: Vec<String> = {
            let peers = peers.lock();
            if peers.is_empty() {
                Vec::new()
            } else {
                let down = peer_down.lock();
                peers.iter().filter(|p| !down.contains(*p)).cloned().collect()
            }
        };
        if !live_peers.is_empty() && matches!(reply, netsolve_proto::Message::Error { .. }) {
            match &msg {
                netsolve_proto::Message::ServerQuery(q) => {
                    if let Some(candidates) = query_peers(transport, &live_peers, q) {
                        reply = netsolve_proto::Message::ServerList { candidates };
                    }
                }
                netsolve_proto::Message::DescribeProblem { problem } => {
                    if let Some(pdl) = describe_via_peers(transport, &live_peers, problem) {
                        reply = netsolve_proto::Message::ProblemDescription { pdl };
                    }
                }
                _ => {}
            }
        }
        if conn.send(&reply).is_err() {
            return;
        }
    }
}

/// Outcome of one gossip push to one peer.
enum GossipOutcome {
    /// Peer merged the digest (it is alive and speaks v4).
    Acked { merged: u32, refreshed: u32, conflicts: u32 },
    /// Peer answered but does not know `GossipSync` (a v3 agent replied
    /// with its generic `Error`). It is alive; it just cannot gossip.
    Unsupported,
    /// Dial or round-trip failed: the peer looks dead.
    Unreachable,
}

/// Gossip round, run every gossip interval: push the full local
/// registration view to each peer and treat the answer as a liveness
/// signal. Expiry of stale gossip-learned entries also runs here, so a
/// dead peer's servers age out even when no further gossip arrives to
/// trigger merge-side expiry.
fn gossip_round(
    transport: Arc<dyn Transport>,
    core: Arc<Mutex<AgentCore>>,
    clock: Arc<dyn Clock>,
    self_address: String,
    peers: Arc<Mutex<Vec<String>>>,
    peer_down: Arc<Mutex<HashSet<String>>>,
) -> impl FnMut(&StopSignal) + Send + 'static {
    let (metrics, tracer, policy) = {
        let core = core.lock();
        (core.metrics(), core.tracer(), core.gossip_policy())
    };
    let round_timeout = Duration::from_secs_f64(policy.round_timeout_secs.max(0.001));
    let mut misses: HashMap<String, u32> = HashMap::new();
    move |stop| {
        let round_peers: Vec<String> = peers.lock().clone();
        if round_peers.is_empty() {
            return;
        }
        metrics.counter("agent.gossip_rounds").inc();
        let now = clock.now();
        let (digest, stats_digests) = {
            let mut core = core.lock();
            core.expire_gossip(now);
            let stats = if core.telemetry_policy().digests {
                core.expire_digests(now);
                core.digest_snapshot(now)
            } else {
                Vec::new()
            };
            (core.gossip_digest(now), stats)
        };
        let sync = netsolve_proto::Message::GossipSync {
            from_agent: self_address.clone(),
            entries: digest,
            digests: stats_digests,
        };
        for peer in &round_peers {
            if stop.is_stopped() {
                return;
            }
            // Push outside the core lock — a black-holed peer may cost the
            // full round timeout. Gossip is traceless (no request context).
            let push_timer = tracer.start();
            let outcome = gossip_once(&transport, peer, &sync, round_timeout);
            let alive = match outcome {
                GossipOutcome::Acked { merged, refreshed, conflicts } => {
                    metrics.counter("agent.gossip_sends").inc();
                    tracer.record(
                        netsolve_obs::SpanContext::NONE,
                        push_timer,
                        "agent",
                        "gossip_push",
                        format!("peer={peer} merged={merged} refreshed={refreshed} conflicts={conflicts}"),
                    );
                    true
                }
                GossipOutcome::Unsupported => {
                    metrics.counter("agent.gossip_peer_unsupported").inc();
                    tracer.record(
                        netsolve_obs::SpanContext::NONE,
                        push_timer,
                        "agent",
                        "gossip_push",
                        format!("peer={peer} unsupported"),
                    );
                    true
                }
                GossipOutcome::Unreachable => {
                    metrics.counter("agent.gossip_send_failures").inc();
                    tracer.record(
                        netsolve_obs::SpanContext::NONE,
                        push_timer,
                        "agent",
                        "gossip_push",
                        format!("peer={peer} unreachable"),
                    );
                    false
                }
            };
            if alive {
                misses.remove(peer);
                if peer_down.lock().remove(peer) {
                    metrics.counter("agent.peer_recoveries").inc();
                }
            } else {
                let count = misses.entry(peer.clone()).or_insert(0);
                *count = count.saturating_add(1);
                if *count >= policy.peer_miss_threshold
                    && peer_down.lock().insert(peer.clone())
                {
                    metrics.counter("agent.peer_down_marks").inc();
                }
            }
        }
        let down_now = peer_down.lock().len();
        metrics
            .gauge("agent.peers_up")
            .set(round_peers.len().saturating_sub(down_now) as i64);
    }
}

/// Telemetry sampler, run every telemetry tick: (1) snapshot the agent's
/// metrics registry into its windowed series and fold the series into
/// the digest store as this agent's own entry, (2) scrape every live
/// locally-registered server with `FleetStatsQuery` and store its
/// digest, (3) TTL-expire digests of daemons nobody has refreshed.
/// Gossip then carries the whole store to peers, so one scrape of any
/// agent returns the fleet's recent history.
fn telemetry_round(
    transport: Arc<dyn Transport>,
    core: Arc<Mutex<AgentCore>>,
    clock: Arc<dyn Clock>,
    self_address: String,
) -> impl FnMut(&StopSignal) + Send + 'static {
    let (metrics, policy) = {
        let core = core.lock();
        (core.metrics(), core.telemetry_policy())
    };
    let series = netsolve_obs::WindowedSeries::new(netsolve_obs::SeriesConfig {
        tick_secs: policy.tick_secs,
        slots: policy.window_slots,
    });
    let window_secs = policy.tick_secs * policy.window_slots as f64;
    // Seed the series baseline at startup so events that land before the
    // first tick show up in the first delta slot instead of vanishing
    // into it.
    series.record(metrics.snapshot("agent"), netsolve_obs::unix_now_secs());
    move |stop| {
        series.record(metrics.snapshot("agent"), netsolve_obs::unix_now_secs());
        let own = series.digest(&self_address, "agent", window_secs);
        let targets = {
            let now = clock.now();
            let mut core = core.lock();
            core.store_digest(own, now);
            core.expire_digests(now);
            core.local_server_addresses(now)
        };
        // Scrape outside the core lock — a wedged server may cost the
        // full call timeout, and queries must keep flowing meanwhile.
        for address in targets {
            if stop.is_stopped() {
                return;
            }
            let Ok(mut conn) = transport.connect(&address) else {
                continue;
            };
            match netsolve_net::call(
                conn.as_mut(),
                &netsolve_proto::Message::FleetStatsQuery,
                Duration::from_secs(2),
            ) {
                Ok(netsolve_proto::Message::FleetStatsReply { digests }) => {
                    let now = clock.now();
                    let mut core = core.lock();
                    for digest in digests {
                        core.store_digest(digest, now);
                    }
                }
                // A pre-v6 server answers Error (unsupported); count it
                // the way gossip counts unsupported peers and move on.
                Ok(netsolve_proto::Message::Error { .. }) => {
                    metrics.counter("agent.digest_scrape_unsupported").inc();
                }
                _ => {
                    metrics.counter("agent.digest_scrape_failures").inc();
                }
            }
        }
    }
}

/// One gossip push: dial, send the digest, classify the reply.
fn gossip_once(
    transport: &Arc<dyn Transport>,
    peer: &str,
    sync: &netsolve_proto::Message,
    timeout: Duration,
) -> GossipOutcome {
    let Ok(mut conn) = transport.connect(peer) else {
        return GossipOutcome::Unreachable;
    };
    match netsolve_net::call(conn.as_mut(), sync, timeout) {
        Ok(netsolve_proto::Message::GossipAck { merged, refreshed, conflicts }) => {
            GossipOutcome::Acked { merged, refreshed, conflicts }
        }
        Ok(netsolve_proto::Message::Error { .. }) => GossipOutcome::Unsupported,
        _ => GossipOutcome::Unreachable,
    }
}

/// Ask every peer agent for candidates; merge and rank by predicted time.
/// Returns `None` when no peer had anything either.
fn query_peers(
    transport: &Arc<dyn Transport>,
    peers: &[String],
    q: &netsolve_proto::QueryShape,
) -> Option<Vec<netsolve_proto::Candidate>> {
    let mut merged: Vec<netsolve_proto::Candidate> = Vec::new();
    for peer in peers {
        let Ok(mut conn) = transport.connect(peer) else {
            continue;
        };
        let ask = netsolve_proto::Message::ServerQueryForwarded(q.clone());
        match netsolve_net::call(conn.as_mut(), &ask, PEER_TIMEOUT) {
            Ok(netsolve_proto::Message::ServerList { candidates }) => {
                merged.extend(candidates);
            }
            _ => continue,
        }
    }
    if merged.is_empty() {
        return None;
    }
    merged.sort_by(|a, b| a.predicted_secs.total_cmp(&b.predicted_secs));
    merged.dedup_by_key(|c| c.server_id);
    merged.truncate(5);
    Some(merged)
}

/// Ask peers to describe a problem unknown locally.
fn describe_via_peers(
    transport: &Arc<dyn Transport>,
    peers: &[String],
    problem: &str,
) -> Option<String> {
    for peer in peers {
        let Ok(mut conn) = transport.connect(peer) else {
            continue;
        };
        let ask = netsolve_proto::Message::DescribeProblemForwarded {
            problem: problem.to_string(),
        };
        if let Ok(netsolve_proto::Message::ProblemDescription { pdl }) =
            netsolve_net::call(conn.as_mut(), &ask, PEER_TIMEOUT)
        {
            return Some(pdl);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::standard_descriptor;
    use netsolve_net::{call, ChannelNetwork};
    use netsolve_proto::{Message, QueryShape};
    use std::time::Duration;

    fn timeout() -> Duration {
        Duration::from_secs(5)
    }

    #[test]
    fn daemon_serves_registration_and_queries() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut daemon =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();

        // register a server over the wire
        let mut conn = net.connect("agent").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("h1", "srv1", 200.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));

        // query from a different connection (like a real client)
        let mut conn2 = net.connect("agent").unwrap();
        let reply = call(
            conn2.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "dgesv".into(),
                n: 100,
                bytes_in: 80_000,
                bytes_out: 800,
                trace_id: 0,
                parent_span: 0,
            }),
            timeout(),
        )
        .unwrap();
        match reply {
            Message::ServerList { candidates } => {
                assert_eq!(candidates.len(), 1);
                assert_eq!(candidates[0].address, "srv1");
            }
            other => panic!("unexpected {other:?}"),
        }

        daemon.stop();
    }

    #[test]
    fn daemon_serves_concurrent_clients() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut daemon =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();

        let handles: Vec<_> = (0..8)
            .map(|_| {
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut conn = net.connect("agent").unwrap();
                    for _ in 0..20 {
                        let reply = call(conn.as_mut(), &Message::Ping, timeout()).unwrap();
                        assert_eq!(reply, Message::Pong);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        daemon.stop();
    }

    #[test]
    fn daemon_stop_is_idempotent() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net);
        let mut daemon =
            AgentDaemon::start(transport, "agent", AgentCore::with_defaults()).unwrap();
        daemon.stop();
        daemon.stop();
    }

    /// Stop wakes the heartbeat, gossip and telemetry threads at once
    /// instead of waiting out their periods.
    #[test]
    fn stop_returns_promptly_with_a_long_telemetry_tick() {
        use crate::balance::Policy;
        use netsolve_core::config::{AgentConfig, TelemetryPolicy};
        use netsolve_net::NetworkView;
        use std::time::Instant;

        let config = AgentConfig {
            telemetry: TelemetryPolicy { tick_secs: 5.0, ..TelemetryPolicy::default() },
            ..AgentConfig::default()
        };
        let core =
            AgentCore::new(config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
        let transport: Arc<dyn Transport> = Arc::new(ChannelNetwork::new());
        let mut daemon = AgentDaemon::start_federated(transport, "agent", core, vec!["peer".into()])
            .unwrap();
        // Let every periodic thread reach its wait.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        daemon.stop();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "agent stop took {took:?}");
    }

    #[test]
    fn federation_widens_queries_and_describes() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        // Agent B holds the only server; agent A federates with B.
        let mut agent_b = AgentDaemon::start(
            Arc::clone(&transport),
            "agent-b",
            AgentCore::with_defaults(),
        )
        .unwrap();
        let mut agent_a = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-a",
            AgentCore::with_defaults(),
            vec!["agent-b".into()],
        )
        .unwrap();
        // Register a server with B only.
        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));

        // A client of agent A can describe and place dgesv via federation.
        let mut client_conn = net.connect("agent-a").unwrap();
        let reply = call(
            client_conn.as_mut(),
            &Message::DescribeProblem { problem: "dgesv".into() },
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::ProblemDescription { .. }), "{reply:?}");

        let reply = call(
            client_conn.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "dgesv".into(),
                n: 50,
                bytes_in: 20_400,
                bytes_out: 408,
                trace_id: 0,
                parent_span: 0,
            }),
            timeout(),
        )
        .unwrap();
        match reply {
            Message::ServerList { candidates } => {
                assert_eq!(candidates.len(), 1);
                assert_eq!(candidates[0].address, "srvb");
            }
            other => panic!("unexpected {other:?}"),
        }
        agent_a.stop();
        agent_b.stop();
    }

    #[test]
    fn mutual_federation_does_not_loop_on_unknown_problem() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut agent_a = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-a",
            AgentCore::with_defaults(),
            vec!["agent-b".into()],
        )
        .unwrap();
        let mut agent_b = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-b",
            AgentCore::with_defaults(),
            vec!["agent-a".into()],
        )
        .unwrap();
        let mut conn = net.connect("agent-a").unwrap();
        // Nothing anywhere: must come back as an error promptly, not hang.
        let reply = call(
            conn.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "nothing".into(),
                n: 1,
                bytes_in: 8,
                bytes_out: 8,
                trace_id: 0,
                parent_span: 0,
            }),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::Error { .. }));
        agent_a.stop();
        agent_b.stop();
    }

    #[test]
    fn heartbeat_marks_unresponsive_server_down_and_readmits_it() {
        use crate::balance::Policy;
        use netsolve_core::config::{AgentConfig, FaultPolicy, HeartbeatPolicy};
        use netsolve_net::NetworkView;
        use std::time::Instant;

        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());

        // A bare Ping/Pong responder standing in for a server daemon.
        let listener = net.listen("srv1").unwrap();
        std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                std::thread::spawn(move || {
                    while let Ok(msg) = conn.recv() {
                        let reply = match msg {
                            Message::Ping => Message::Pong,
                            other => panic!("probe sent {other:?}"),
                        };
                        if conn.send(&reply).is_err() {
                            return;
                        }
                    }
                });
            }
        });

        // Short cooldown so the half-open re-admission probe happens
        // within the test; fast probing so the whole cycle is quick.
        let config = AgentConfig {
            fault: FaultPolicy { failures_to_mark_down: 2, down_cooldown_secs: 0.2 },
            ..AgentConfig::default()
        };
        let core = AgentCore::new(config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
        let heartbeat = HeartbeatPolicy {
            probe_interval_secs: 0.03,
            miss_threshold: 2,
            probe_timeout_secs: 0.5,
        };
        let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
        let mut daemon = AgentDaemon::start_with_heartbeat(
            Arc::clone(&transport),
            "agent",
            core,
            Arc::clone(&clock),
            heartbeat,
        )
        .unwrap();

        let mut conn = net.connect("agent").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("h1", "srv1", 200.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        let sid = daemon.core().lock().registry().all_servers()[0].server_id;

        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        // Healthy server: probes succeed, fault state stays clean.
        let core_handle = daemon.core();
        wait_for("first successful probe", &|| {
            core_handle.lock().probe_targets(clock.now()).len() == 1
                && !core_handle.lock().is_down(sid, clock.now())
        });

        // Kill the server: within probe_interval x miss_threshold (plus
        // slack) the heartbeat must mark it down without any client report.
        net.set_down("srv1");
        wait_for("heartbeat down-mark", &|| core_handle.lock().is_down(sid, clock.now()));

        // While down and cooling, the prober leaves it alone.
        assert!(core_handle.lock().probe_targets(clock.now()).is_empty());

        // Revive it: the half-open probe after the cooldown re-admits it.
        net.set_up("srv1");
        wait_for("re-admission after recovery", &|| {
            let now = clock.now();
            let core = core_handle.lock();
            !core.is_down(sid, now) && !core.registry().all_servers().is_empty()
        });
        // And it stays up: fault record was fully cleared by the probe.
        std::thread::sleep(Duration::from_millis(100));
        assert!(!core_handle.lock().is_down(sid, clock.now()));

        daemon.stop();
    }

    /// An AgentConfig with gossip fast enough for tests: rounds every
    /// 30 ms, entries expire after `ttl` seconds, one missed round marks
    /// a peer down.
    fn fast_gossip_config(ttl: f64) -> netsolve_core::config::AgentConfig {
        netsolve_core::config::AgentConfig {
            gossip: netsolve_core::config::GossipPolicy {
                interval_secs: 0.03,
                entry_ttl_secs: ttl,
                peer_miss_threshold: 1,
                round_timeout_secs: 0.5,
            },
            ..netsolve_core::config::AgentConfig::default()
        }
    }

    fn fast_gossip_core(ttl: f64) -> AgentCore {
        use crate::balance::Policy;
        use netsolve_net::NetworkView;
        AgentCore::new(fast_gossip_config(ttl), Policy::MinimumCompletionTime, NetworkView::lan_defaults())
    }

    fn wait_for(what: &str, cond: &dyn Fn() -> bool) {
        use std::time::Instant;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn query_dgesv(net: &ChannelNetwork, agent: &str) -> Message {
        let mut conn = net.connect(agent).unwrap();
        call(
            conn.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "dgesv".into(),
                n: 50,
                bytes_in: 20_400,
                bytes_out: 408,
                trace_id: 0,
                parent_span: 0,
            }),
            timeout(),
        )
        .unwrap()
    }

    #[test]
    fn gossip_replicates_registrations_to_peers() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        // B gossips to A; the server registers with B only. A must be able
        // to answer the query from its *own* registry (no widening: A has
        // no peers configured, so the answer can only come from gossip).
        let mut agent_a = AgentDaemon::start(
            Arc::clone(&transport),
            "agent-a",
            fast_gossip_core(60.0),
        )
        .unwrap();
        let mut agent_b = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-b",
            fast_gossip_core(60.0),
            vec!["agent-a".into()],
        )
        .unwrap();

        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));

        wait_for("gossip to replicate srvb to agent-a", &|| {
            matches!(query_dgesv(&net, "agent-a"), Message::ServerList { .. })
        });
        match query_dgesv(&net, "agent-a") {
            Message::ServerList { candidates } => {
                assert_eq!(candidates[0].address, "srvb");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The replica is marked with its origin, not adopted as local.
        let core = agent_a.core();
        let core = core.lock();
        let servers = core.registry().all_servers();
        assert_eq!(servers.len(), 1);
        assert_eq!(servers[0].origin.as_deref(), Some("agent-b"));
        drop(core);

        agent_a.stop();
        agent_b.stop();
    }

    #[test]
    fn dead_peer_is_down_marked_and_its_entries_expire() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        // Mutual federation; B owns the only server. Short TTL so B's
        // entries age out of A quickly once B stops vouching for them.
        let mut agent_a = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-a",
            fast_gossip_core(0.3),
            vec!["agent-b".into()],
        )
        .unwrap();
        let mut agent_b = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-b",
            fast_gossip_core(0.3),
            vec!["agent-a".into()],
        )
        .unwrap();

        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        wait_for("replication to agent-a", &|| {
            !agent_a.core().lock().registry().all_servers().is_empty()
        });

        // Kill B (a real stop: its listener drops and its gossip loop
        // dies, so it stops vouching for srvb). A must mark the peer down
        // and expire B's replica, so a query at A fails *fast* (widening
        // skips the dead peer) instead of returning a ghost server.
        agent_b.stop();
        let a_metrics = agent_a.core().lock().metrics();
        wait_for("peer down-mark at agent-a", &|| {
            a_metrics.snapshot("agent").counter("agent.peer_down_marks") >= 1
        });
        wait_for("ghost entries to expire at agent-a", &|| {
            agent_a.core().lock().registry().all_servers().is_empty()
        });
        assert!(matches!(query_dgesv(&net, "agent-a"), Message::Error { .. }));
        assert_eq!(a_metrics.snapshot("agent").gauge("agent.peers_up"), 0);

        // Restart B under the same name (the stop freed the listener) and
        // re-register the server with it: A re-admits the peer on its
        // next answered round and the replica comes back.
        let mut agent_b = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-b",
            fast_gossip_core(0.3),
            vec!["agent-a".into()],
        )
        .unwrap();
        let mut conn = net.connect("agent-b").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(standard_descriptor("hb", "srvb", 150.0)),
            timeout(),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        wait_for("peer recovery at agent-a", &|| {
            a_metrics.snapshot("agent").counter("agent.peer_recoveries") >= 1
        });
        wait_for("re-replication after recovery", &|| {
            matches!(query_dgesv(&net, "agent-a"), Message::ServerList { .. })
        });
        assert_eq!(a_metrics.snapshot("agent").gauge("agent.peers_up"), 1);

        agent_a.stop();
        agent_b.stop();
    }

    #[test]
    fn gossip_tolerates_a_pre_gossip_peer() {
        // A "v3 agent" stand-in: answers every message with the generic
        // Error reply, like a peer that predates GossipSync. The gossiping
        // agent must count it unsupported and keep treating it as alive.
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let listener = net.listen("agent-old").unwrap();
        std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                std::thread::spawn(move || {
                    while conn.recv().is_ok() {
                        let reply = Message::Error {
                            code: 1,
                            detail: "unknown message".into(),
                        };
                        if conn.send(&reply).is_err() {
                            return;
                        }
                    }
                });
            }
        });

        let mut agent = AgentDaemon::start_federated(
            Arc::clone(&transport),
            "agent-new",
            fast_gossip_core(60.0),
            vec!["agent-old".into()],
        )
        .unwrap();
        let metrics = agent.core().lock().metrics();
        wait_for("unsupported-peer tally", &|| {
            metrics.snapshot("agent").counter("agent.gossip_peer_unsupported") >= 2
        });
        let snap = metrics.snapshot("agent");
        assert_eq!(snap.counter("agent.peer_down_marks"), 0, "old peer is alive, not down");
        agent.stop();
    }

    #[test]
    fn daemon_over_tcp() {
        let transport: Arc<dyn Transport> = Arc::new(netsolve_net::TcpTransport::new());
        let mut daemon = AgentDaemon::start(
            Arc::clone(&transport),
            "127.0.0.1:0",
            AgentCore::with_defaults(),
        )
        .unwrap();
        let mut conn = transport.connect(daemon.address()).unwrap();
        let reply = call(conn.as_mut(), &Message::ListProblems, timeout()).unwrap();
        assert!(matches!(reply, Message::ProblemCatalogue { .. }));
        daemon.stop();
    }
}
