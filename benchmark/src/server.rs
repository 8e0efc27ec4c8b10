//! Child-process guard around the product's `serve` binary: spawn, wait for
//! `LISTENING` with a deadline, read peak RSS, shut down — and never leave a
//! process behind or hang on a dead one.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take from spawn to `LISTENING`.
pub const LISTEN_DEADLINE: Duration = Duration::from_secs(60);
/// How long a server may take to exit after the `shutdown` op.
const EXIT_DEADLINE: Duration = Duration::from_secs(10);

/// A running `serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: String,
    stdout_pump: Option<JoinHandle<()>>,
}

fn wait_deadline(child: &mut Child, deadline: Duration) -> Option<ExitStatus> {
    let until = Instant::now() + deadline;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
            _ => return None,
        }
    }
}

impl Server {
    /// Spawns `bin args…`, with stderr appended to `log`, and waits until it
    /// prints `LISTENING <addr>`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The pump owns the pipe until EOF, so a chatty child never blocks
        // on a full pipe and the wait below can time out.
        let (tx, rx) = mpsc::channel::<String>();
        let pump = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stdout_pump: Some(pump),
        };
        let until = Instant::now() + LISTEN_DEADLINE;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("LISTENING ") {
                        server.addr = addr.trim().to_string();
                        return Ok(server);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "serve did not print LISTENING within {LISTEN_DEADLINE:?}"
                    ))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let status = wait_deadline(&mut server.child, EXIT_DEADLINE);
                    return Err(format!(
                        "serve exited before LISTENING ({status:?}); see {}",
                        log.display()
                    ));
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the process is still running.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MB.
    pub fn rss_peak_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the server to shut down over the wire and reaps it; kills it if
    /// it does not exit in time. Returns whether the exit was clean.
    pub fn shutdown(mut self) -> bool {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = s.set_read_timeout(Some(EXIT_DEADLINE));
            let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
            // Stay connected until the ack: the server only stops if it
            // could write it.
            let _ = BufReader::new(s).read_line(&mut String::new());
        }
        wait_deadline(&mut self.child, EXIT_DEADLINE).is_some_and(|s| s.success())
        // Drop reaps (and kills, if it is still running).
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(p) = self.stdout_pump.take() {
            let _ = p.join();
        }
    }
}
