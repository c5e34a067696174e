//! The live domain under test: the shipped `ns-agent` and `ns-server`
//! binaries, each in its own process on loopback TCP with default flags,
//! and the set-up clock that times bringing them up.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_client::NetSolveClient;
use netsolve_core::data::DataObject;
use netsolve_net::{call, Connection, TcpTransport, Transport};
use netsolve_obs::StatsSnapshot;
use netsolve_proto::{Message, ServerInfo};

use crate::workload::{self, Workload};

/// Paths of the daemon binaries built from this checkout.
pub struct Binaries {
    pub agent: PathBuf,
    pub server: PathBuf,
}

/// A daemon child process. Dropping it kills and reaps the process, so
/// every exit path, a panic or a failed check included, leaves no
/// daemon behind to eat CPU during later runs.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's later prints never meet a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    fn spawn(bin: &PathBuf, args: &[&str], stdout: Stdio) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Daemon {
            child,
            _stdout: None,
        })
    }

    /// The pid as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Phases of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Agent spawn until it answers `Ping`.
    pub agent_ready: f64,
    /// Server spawn until the agent's `list_servers` shows it.
    pub server_ready: f64,
    /// `describe` plus the first verified call.
    pub first_call: f64,
    /// Agent spawn until the first verified reply.
    pub total: f64,
}

/// A running agent and server.
pub struct Domain {
    // Fields drop in declaration order: the server goes before its agent.
    pub server: Daemon,
    pub agent: Daemon,
    pub agent_address: String,
    pub server_info: ServerInfo,
    pub setup: SetupTimes,
    pub transport: Arc<dyn Transport>,
}

const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// Pause between readiness probes; readiness itself is always observed
/// through the public API, never assumed after a sleep.
const POLL_PAUSE: Duration = Duration::from_micros(200);
/// Per-call timeout for the benchmark's own protocol calls.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(30);

fn poll<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> Result<T, String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Some(v) = probe() {
            return Ok(v);
        }
        if Instant::now() > deadline {
            return Err(format!("{what} not ready within {READY_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL_PAUSE);
    }
}

fn ping(transport: &dyn Transport, address: &str) -> Option<()> {
    let mut conn = transport.connect(address).ok()?;
    matches!(
        call(conn.as_mut(), &Message::Ping, CALL_TIMEOUT),
        Ok(Message::Pong)
    )
    .then_some(())
}

impl Domain {
    /// Bring up an agent and a server and make the first call with
    /// `first_inputs`, checking its reply.
    pub fn start(
        bins: &Binaries,
        workload: Workload,
        first_inputs: &[DataObject],
    ) -> Result<Domain, String> {
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let started = Instant::now();
        let mut agent = Daemon::spawn(&bins.agent, &["--listen", "127.0.0.1:0"], Stdio::piped())?;
        // The agent's first line names the port the OS gave it.
        let mut reader = BufReader::new(agent.child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read ns-agent banner: {e}"))?;
        agent._stdout = Some(reader);
        let agent_address = line
            .split("tcp://")
            .nth(1)
            .map(|a| a.trim().to_string())
            .ok_or_else(|| format!("ns-agent printed no address: {line:?}"))?;
        poll("ns-agent", || ping(transport.as_ref(), &agent_address))?;
        let agent_ready = started.elapsed().as_secs_f64();

        let server_spawned = Instant::now();
        let server = Daemon::spawn(
            &bins.server,
            &["--agent", &agent_address, "--listen", "127.0.0.1:0"],
            Stdio::null(),
        )?;
        let client = NetSolveClient::new(Arc::clone(&transport), &agent_address);
        let server_info = poll("ns-server registration", || {
            client.list_servers().ok()?.into_iter().find(|s| !s.down)
        })?;
        let server_ready = server_spawned.elapsed().as_secs_f64();

        let first_call_started = Instant::now();
        client
            .describe(workload.problem)
            .map_err(|e| format!("describe: {e}"))?;
        let (outputs, _) = client
            .netsl_timed(workload.problem, first_inputs)
            .map_err(|e| format!("first call: {e}"))?;
        workload::check(workload.problem, first_inputs, &outputs)
            .map_err(|e| format!("first call: {e}"))?;
        let setup = SetupTimes {
            agent_ready,
            server_ready,
            first_call: first_call_started.elapsed().as_secs_f64(),
            total: started.elapsed().as_secs_f64(),
        };
        Ok(Domain {
            server,
            agent,
            agent_address,
            server_info,
            setup,
            transport,
        })
    }

    /// A `StatsQuery` channel to one of the daemons.
    pub fn stats_probe(&self, address: &str) -> Result<StatsProbe, String> {
        let conn = self
            .transport
            .connect(address)
            .map_err(|e| format!("connect {address}: {e}"))?;
        Ok(StatsProbe { conn })
    }
}

/// A persistent connection for reading a daemon's counters and
/// histograms. Kept open across reads, so reading the server's
/// `server.accepts` does not itself add an accept.
pub struct StatsProbe {
    conn: Box<dyn Connection>,
}

impl StatsProbe {
    pub fn read(&mut self) -> Result<StatsSnapshot, String> {
        match call(self.conn.as_mut(), &Message::StatsQuery, CALL_TIMEOUT) {
            Ok(Message::StatsReply(snapshot)) => Ok(snapshot),
            Ok(other) => Err(format!("StatsQuery answered with {}", other.name())),
            Err(e) => Err(format!("StatsQuery: {e}")),
        }
    }
}
