//! The `st-serve` daemon as a child process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use st_serve::ServeClient;

/// A running daemon with a fresh state directory. Dropping it kills the
/// process, waits for it and removes the state directory.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's later stderr writes never hit a closed
    /// pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: String,
    state: PathBuf,
}

impl Daemon {
    /// Spawns `bin` on an ephemeral loopback port with one campaign worker
    /// and the default chunk of 8, and waits until it answers `hello`.
    pub fn spawn(bin: &Path, state: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&state);
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--threads", "1", "--chunk", "8"])
            .arg("--state")
            .arg(&state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("st-serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix("st-serve: listening on ") {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_string();
                    }
                }
            }
        };
        let daemon = Daemon {
            child,
            _stderr: stderr,
            addr,
            state,
        };
        let client = daemon.client();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.hello() {
                Ok(()) => return Ok(daemon),
                Err(e) if Instant::now() > deadline => return Err(format!("hello failed: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn client(&self) -> ServeClient {
        ServeClient::new(self.addr.clone())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state);
    }
}
