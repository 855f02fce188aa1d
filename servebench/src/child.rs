//! The server under test: the real `intext-serve` binary as a child
//! process on an ephemeral TCP port.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};

pub struct ServerProcess {
    child: Child,
    addr: String,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    /// Spawns `intext-serve --tcp 127.0.0.1:0` (default workers) and
    /// waits for its "listening" line.
    pub fn spawn(binary: &str) -> Result<ServerProcess, String> {
        let mut child = Command::new(binary)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {binary}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("intext-serve: listening on tcp ")
                .map(str::to_owned),
            _ => None,
        };
        let mut server = ServerProcess {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(format!("{binary} did not report a tcp address: {line:?}")),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Server workers: the binary's default, one per hardware thread.
    pub fn workers() -> usize {
        std::thread::available_parallelism().map_or(2, usize::from)
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // The server runs until killed; reap it so no process outlives
        // the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
