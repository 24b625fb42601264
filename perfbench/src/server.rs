//! The release `connectit-serve` binary as a child process, started with
//! only the flags a workload needs, so later changes to its defaults are
//! measured the way users get them.

use cc_server::TcpClient;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    wal_dir: Option<PathBuf>,
}

impl Server {
    /// Spawns `connectit-serve --n <n> --port 0`, plus `--wal-dir <dir>
    /// --fsync batch` when `wal_dir` is given, and waits for its listening
    /// line.
    pub fn spawn(bin: &Path, n: usize, wal_dir: Option<PathBuf>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--n", &n.to_string(), "--port", "0"]);
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
            cmd.arg("--wal-dir").arg(dir).args(["--fsync", "batch"]);
        }
        // The server sizes its own pool, as it would for a user.
        cmd.env_remove("CC_NUM_THREADS").stdin(Stdio::null()).stdout(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("connectit-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let mut server = Server { child, stdout, addr: String::new(), wal_dir };
        match addr {
            Some(a) => {
                server.addr = a;
                Ok(server)
            }
            None => Err(format!("connectit-serve did not start: {line:?}")),
        }
    }

    /// Peak resident set (VmHWM) of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    pub fn text(&self) -> Result<TcpClient, String> {
        TcpClient::connect(&self.addr).map_err(|e| format!("text connect: {e}"))
    }

    /// One `METRICS` scrape, as `name{labels} -> value`.
    pub fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let lines = self.text()?.metrics().map_err(|e| format!("METRICS: {e}"))?;
        Ok(lines
            .iter()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }

    /// Sends `SHUTDOWN` and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.text().and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("connectit-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err(format!("connectit-serve did not shut down ({asked:?})")),
            }
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Flushes dirty pages (a finished pass's WAL) before the next set-up, so
/// no pass pays for its predecessor's writeback.
pub fn settle() {
    let _ = Command::new("sync").status();
}

/// VmHWM of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
