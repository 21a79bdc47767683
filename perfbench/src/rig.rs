//! The processes under test: building the real `symbiod`/`fleetd`
//! binaries from the checkout, spawning them on ephemeral ports,
//! accounting their start-up, and draining them through the wire
//! protocol.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use symbio::Error;
use symbio_serve::{Request, Response, WireClient};

/// Deadline for control exchanges and for a daemon to exit after
/// `Shutdown`.
pub const CONTROL_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a process is left to settle after its ready line before its
/// start-up CPU is read: the line is printed just before the serving
/// loop starts its threads.
const SETTLE: Duration = Duration::from_millis(20);

/// CPU seconds `pids` have used since they were spawned, read once they
/// have settled after announcing they are ready.
pub fn startup_cpu_s(pids: &[u32]) -> symbio::Result<f64> {
    std::thread::sleep(SETTLE);
    crate::procfs::cpu_sum(pids)
}

/// Start-ups accounted per run: at least this many …
const MIN_STARTUPS: usize = 25;
/// … and more until this much time has passed.
const STARTUP_BUDGET: Duration = Duration::from_secs(2);

/// Start-up CPU of the processes under test over repeated start-ups.
/// `start` brings the processes up and returns them with their start-up
/// CPU seconds; `stop` takes down every one but the last, which is
/// returned with the figures. The same start-up on the same inputs
/// varies by a third or more from one time to the next on a shared
/// machine, independently of the speed probe (their correlation was
/// near zero), so many are taken, [`setup_s`] reports the fastest, and
/// the probe is not applied.
pub fn startups<T>(
    mut start: impl FnMut() -> symbio::Result<(T, f64)>,
    mut stop: impl FnMut(T) -> symbio::Result<()>,
) -> symbio::Result<(T, Vec<f64>)> {
    let t0 = Instant::now();
    let mut cpu = Vec::new();
    loop {
        let (up, cpu_s) = start()?;
        cpu.push(cpu_s);
        if cpu.len() >= MIN_STARTUPS && t0.elapsed() >= STARTUP_BUDGET {
            return Ok((up, cpu));
        }
        stop(up)?;
    }
}

/// The `setup_s` figure of repeated start-ups: the fastest. A start-up is
/// deterministic work, so slower repeats measure interference from
/// outside the processes; the fastest of 25 or more varied least from
/// run to run (`NOTES.md`).
pub fn setup_s(cpu: &[f64]) -> f64 {
    cpu.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Paths of the daemon binaries.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `symbiod`.
    pub symbiod: PathBuf,
    /// `fleetd`.
    pub fleetd: PathBuf,
}

/// Build both daemons in release mode with the checkout's own cargo
/// workspace (run from the checkout root) and return their paths.
pub fn build() -> symbio::Result<Bins> {
    if !Path::new("crates/serve/Cargo.toml").exists() {
        return Err(Error::InvalidConfig(
            "run from the repository root: crates/serve is not here".into(),
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "symbio-serve",
            "--bin",
            "symbiod",
            "-p",
            "symbio-fleet",
            "--bin",
            "fleetd",
        ])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(Error::InvalidConfig(format!(
            "building the daemons failed ({status})"
        )));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bins = Bins {
        symbiod: target.join("release").join("symbiod"),
        fleetd: target.join("release").join("fleetd"),
    };
    for b in [&bins.symbiod, &bins.fleetd] {
        if !b.exists() {
            return Err(Error::InvalidConfig(format!(
                "{} was not built",
                b.display()
            )));
        }
    }
    Ok(bins)
}

/// One spawned daemon process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its process id.
    pub pid: u32,
    /// Drains the rest of its stdout so it can never block on the pipe.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `bin args…` and wait for its `<name> listening on <addr>`
    /// line.
    pub fn spawn(bin: &Path, args: &[String]) -> symbio::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| Error::InvalidConfig(format!("cannot spawn {}: {e}", bin.display())))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some((_, addr)) = line.split_once(" listening on ") {
                        break addr.trim().parse::<SocketAddr>().map_err(|e| {
                            Error::Protocol(format!("bad listen address {addr:?}: {e}"))
                        });
                    }
                }
                _ => {
                    break Err(Error::Protocol(format!(
                        "{} exited before listening",
                        bin.display()
                    )))
                }
            }
        };
        let addr = match addr {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let drain = std::thread::spawn(move || lines.for_each(drop));
        Ok(Daemon {
            child,
            addr,
            pid,
            drain: Some(drain),
        })
    }

    /// Wait for the process to exit on its own, killing it after
    /// [`CONTROL_TIMEOUT`]. Errors if it had to be killed or failed.
    pub fn wait(mut self) -> symbio::Result<()> {
        let deadline = Instant::now() + CONTROL_TIMEOUT;
        let status = loop {
            if let Some(s) = self.child.try_wait()? {
                break s;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(Error::Protocol(format!(
                    "process {} did not exit after shutdown",
                    self.pid
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        if !status.success() {
            return Err(Error::Protocol(format!(
                "process {} exited with {status}",
                self.pid
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a daemon behind.
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(d) = self.drain.take() {
                let _ = d.join();
            }
        }
    }
}

/// What to bring up.
#[derive(Debug, Clone)]
pub enum Topology {
    /// One `symbiod` with `shards` engine shards, journaling to
    /// `journal` when set.
    Symbiod {
        /// Engine shards.
        shards: usize,
        /// Journal path.
        journal: Option<PathBuf>,
    },
    /// A `fleetd` in front of `backends` single-shard `symbiod`s.
    Fleet {
        /// Backend count.
        backends: usize,
    },
}

/// A running set of daemons with the address clients talk to.
#[derive(Debug)]
pub struct Rig {
    /// Backends first, the front process last.
    pub daemons: Vec<Daemon>,
    /// CPU seconds the processes used from spawn until all listened.
    pub setup_cpu_s: f64,
    /// Whether the front is a `fleetd`.
    pub fleet: bool,
}

impl Rig {
    /// Spawn the topology and account its start-up.
    pub fn start(bins: &Bins, topo: &Topology) -> symbio::Result<Rig> {
        let (daemons, fleet) = match topo {
            Topology::Symbiod { shards, journal } => {
                let mut args = vec![
                    "--addr".to_string(),
                    "127.0.0.1:0".to_string(),
                    "--shards".to_string(),
                    shards.to_string(),
                    "--policy".to_string(),
                    "weight-sort".to_string(),
                ];
                if let Some(j) = journal {
                    args.push("--journal".to_string());
                    args.push(j.display().to_string());
                }
                (vec![Daemon::spawn(&bins.symbiod, &args)?], false)
            }
            Topology::Fleet { backends } => {
                let mut daemons = Vec::new();
                for _ in 0..*backends {
                    daemons.push(Daemon::spawn(
                        &bins.symbiod,
                        &[
                            "--addr".into(),
                            "127.0.0.1:0".into(),
                            "--shards".into(),
                            "1".into(),
                            "--policy".into(),
                            "weight-sort".into(),
                        ],
                    )?);
                }
                let list: Vec<String> = daemons.iter().map(|d| d.addr.to_string()).collect();
                daemons.push(Daemon::spawn(
                    &bins.fleetd,
                    &[
                        "--addr".into(),
                        "127.0.0.1:0".into(),
                        "--backends".into(),
                        list.join(","),
                    ],
                )?);
                (daemons, true)
            }
        };
        let pids: Vec<u32> = daemons.iter().map(|d| d.pid).collect();
        Ok(Rig {
            setup_cpu_s: startup_cpu_s(&pids)?,
            daemons,
            fleet,
        })
    }

    /// The address clients connect to.
    pub fn front(&self) -> SocketAddr {
        self.daemons.last().expect("a rig has processes").addr
    }

    /// Process ids of every daemon under test.
    pub fn pids(&self) -> Vec<u32> {
        self.daemons.iter().map(|d| d.pid).collect()
    }

    /// Drain the rig through `Shutdown` (a `fleetd` forwards it to its
    /// backends) and wait for every process to exit cleanly.
    pub fn shutdown(self) -> symbio::Result<()> {
        let mut client = WireClient::connect(self.front(), CONTROL_TIMEOUT)?;
        match client.exchange(&Request::Shutdown)? {
            Response::Ok => {}
            other => return Err(Error::Protocol(format!("shutdown answered {other:?}"))),
        }
        drop(client);
        let mut first_err = None;
        for d in self.daemons.into_iter().rev() {
            if let Err(e) = d.wait() {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}
