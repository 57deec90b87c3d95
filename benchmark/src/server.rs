//! The system under test as a child process: `tdb serve`, started from
//! the release binary, reached only over TCP.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tdb_net::Client;

/// A running `tdb serve` child. Dropping it kills and reaps the child,
/// so no run leaves a server behind.
pub struct Server {
    child: Child,
    /// Held open: the server stops when its stdin closes.
    stdin: Option<ChildStdin>,
    /// Held open: the server prints while draining, and a closed pipe
    /// would turn that into a panic instead of a clean exit.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Serve the catalog directory `dir` (`durable`: as `--data-dir`,
    /// write-ahead logged) on an ephemeral loopback port, and wait for
    /// the address it prints.
    pub fn spawn(tdb: &Path, dir: &Path, durable: bool) -> Result<Server, String> {
        let mut cmd = Command::new(tdb);
        cmd.arg("serve");
        if durable {
            cmd.arg("127.0.0.1:0").arg("--data-dir").arg(dir);
        } else {
            cmd.arg(dir).arg("127.0.0.1:0");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tdb.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        // "tdb serving catalog <dir> on <addr> — type quit …"
        let mut banner = String::new();
        server
            .stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        server.addr = banner
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .filter(|a| a.parse::<std::net::SocketAddr>().is_ok())
            .ok_or_else(|| format!("no listen address in server banner `{}`", banner.trim()))?
            .to_string();
        Ok(server)
    }

    /// The address the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// `SIGKILL` the server, as a crash would, and reap it.
    pub fn kill(mut self) {
        self.reap(Duration::ZERO);
    }

    /// Ask the server to drain (close its stdin) and reap it; killed if
    /// it has not exited within five seconds.
    pub fn stop(mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        self.reap(Duration::from_secs(5));
    }

    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

/// Client connections of one run, capped at the machine's core count: a
/// closed-loop generator with more connections than cores would measure
/// its own scheduling, not the server.
pub struct Connections {
    limit: usize,
    open: usize,
}

impl Connections {
    /// A budget of `limit` connections.
    pub fn new(limit: usize) -> Connections {
        Connections { limit, open: 0 }
    }

    /// A budget of as many connections as this machine has cores.
    pub fn for_this_machine() -> Connections {
        Connections::new(nproc())
    }

    /// Open one more connection to `addr`, or refuse if the budget is spent.
    pub fn connect(&mut self, addr: &str) -> Result<Client, String> {
        if self.open >= self.limit {
            return Err(format!(
                "refusing connection {}: this machine has {} cores",
                self.open + 1,
                self.limit
            ));
        }
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        self.open += 1;
        Ok(client)
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// This package's directory (`benchmark/`), where results are written.
pub fn package_dir() -> PathBuf {
    // `cargo run` says where the manifest is now; the compile-time value
    // is for the executable started by hand.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    let package = package_dir();
    package.parent().map_or(package.clone(), Path::to_path_buf)
}

/// Build the served binary from the repository's sources (a no-op when
/// it is fresh) into the target directory this harness was built into,
/// and return its path.
pub fn build_tdb() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // <target>/release/tdb-benchmark → <target>
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))?;
    let manifest = repo_root().join("Cargo.toml");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tdb-cli",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build -p tdb-cli failed for {}",
            manifest.display()
        ));
    }
    Ok(target_dir.join("release").join("tdb"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_beyond_the_core_count_are_refused() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut conns = Connections::new(2);
        let _a = conns.connect(&addr).unwrap();
        let _b = conns.connect(&addr).unwrap();
        let refused = conns.connect(&addr).err().expect("third connection");
        assert!(refused.contains("refusing connection 3"), "{refused}");
        assert!(Connections::new(0).connect(&addr).is_err());
    }
}
