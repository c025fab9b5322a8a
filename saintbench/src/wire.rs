//! The daemon side of the two service workloads: daemon child
//! processes, prebuilt request lines, and one connection's send and
//! receive halves.

use std::io::{self, BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use saint_service::protocol::{self, LineRead, ScanRequest};
use saint_service::{Client, MetricsResponse};

/// A daemon child process (`saintbench --child serve`). Dropping it
/// kills and reaps the process, so no daemon outlives a failed run.
pub struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Starts a daemon over the input set in `inputs` running the
    /// `detectors` families (`amd` or `all`), with an incremental store
    /// at `delta_dir` if given, and waits until it listens.
    ///
    /// # Errors
    /// Spawn failures, or a daemon that exits before listening.
    pub fn spawn(inputs: &Path, detectors: &str, delta_dir: Option<&Path>) -> io::Result<Self> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("--child")
            .arg("serve")
            .arg("--inputs")
            .arg(inputs)
            .arg("--detectors")
            .arg(detectors)
            .stdout(Stdio::piped())
            .stdin(Stdio::null());
        if let Some(dir) = delta_dir {
            cmd.arg("--delta-dir").arg(dir);
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => daemon.addr = addr.to_string(),
            None => return Err(io::Error::other("daemon exited before listening")),
        }
        Ok(daemon)
    }

    /// The daemon's listen address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Round-trips one `status` request on a fresh connection.
    ///
    /// # Errors
    /// Connection or protocol failures.
    pub fn status(&self) -> io::Result<()> {
        let mut client = Client::connect(&self.addr).map_err(io::Error::other)?;
        client.status().map(drop).map_err(io::Error::other)
    }

    /// The daemon's `metrics` view.
    ///
    /// # Errors
    /// Connection or protocol failures.
    pub fn metrics(&self) -> io::Result<MetricsResponse> {
        let mut client = Client::connect(&self.addr).map_err(io::Error::other)?;
        client.metrics().map_err(io::Error::other)
    }

    /// Peak resident set of the daemon process so far, in KiB.
    #[must_use]
    pub fn peak_rss_kb(&self) -> u64 {
        self.child.as_ref().map_or(0, |c| peak_rss_kb(c.id()))
    }

    /// Asks the daemon to drain and waits for it to exit.
    ///
    /// # Errors
    /// Protocol failures, or a daemon that exits unsuccessfully.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut client = Client::connect(&self.addr).map_err(io::Error::other)?;
        client.shutdown().map_err(io::Error::other)?;
        let status = self.child.take().expect("not yet reaped").wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// A scan (or delta) request line for one package, encoded once with
/// the id left open, so the send loop only splices in the id.
pub struct RequestTemplate {
    head: String,
    tail: String,
}

/// An id no request uses, marking where the id goes.
const ID_MARK: u64 = 9_007_199_254_740_881;

impl RequestTemplate {
    /// Encodes `sapk` as a `scan` request, or a `delta` one.
    #[must_use]
    pub fn new(sapk: &[u8], delta: bool) -> Self {
        let mut req = ScanRequest::new(sapk, None).with_id(ID_MARK);
        if delta {
            req = req.into_delta();
        }
        let line = protocol::to_line(&req);
        let mark = format!("\"id\":{ID_MARK}");
        let at = line.find(&mark).expect("request carries its id");
        RequestTemplate {
            head: line[..at + 5].to_string(),
            tail: line[at + mark.len()..].to_string(),
        }
    }

    /// The request line carrying `id`, newline included.
    #[must_use]
    pub fn line(&self, id: u64) -> String {
        format!("{}{id}{}", self.head, self.tail)
    }
}

/// The id a response line echoes, read from its envelope without
/// parsing the report.
#[must_use]
pub fn response_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\":")? + 5;
    let digits: &str = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// One received response.
pub struct Received {
    /// The id it echoes (`None` for an unattributable error).
    pub id: Option<u64>,
    /// When its last byte was read.
    pub at: Instant,
    /// The raw line.
    pub line: String,
}

#[derive(Default)]
struct Flow {
    sent: u64,
    received: u64,
    done_sending: bool,
    closed: bool,
}

/// One connection shared by a send loop and a receive loop on two
/// threads, with the in-flight count both sides wait on.
pub struct Exchange {
    flow: Mutex<Flow>,
    changed: Condvar,
    writer: Mutex<TcpStream>,
    reader: Mutex<BufReader<TcpStream>>,
}

/// How long the receiver waits for the next response before it gives
/// up on the rest as lost.
const STALL: Duration = Duration::from_secs(60);

impl Exchange {
    /// Connects to `addr`.
    ///
    /// # Errors
    /// Connect failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        Ok(Exchange {
            flow: Mutex::new(Flow::default()),
            changed: Condvar::new(),
            reader: Mutex::new(BufReader::new(stream.try_clone()?)),
            writer: Mutex::new(stream),
        })
    }

    fn flow(&self) -> std::sync::MutexGuard<'_, Flow> {
        self.flow
            .lock()
            .expect("flow lock is never held across a panic")
    }

    /// Writes one request line. Returns `false` once the connection is
    /// gone.
    pub fn send(&self, line: &str) -> bool {
        if self.flow().closed {
            return false;
        }
        let ok = self
            .writer
            .lock()
            .expect("writer lock is never held across a panic")
            .write_all(line.as_bytes())
            .is_ok();
        let mut flow = self.flow();
        if ok {
            flow.sent += 1;
        } else {
            flow.closed = true;
            self.changed.notify_all();
        }
        ok
    }

    /// Blocks until fewer than `window` requests are unanswered (0 waits
    /// for all of them). Returns `false` once the connection is gone.
    pub fn wait_below(&self, window: u64) -> bool {
        let mut flow = self.flow();
        while !flow.closed && flow.sent - flow.received >= window.max(1) {
            flow = self
                .changed
                .wait(flow)
                .expect("flow lock is never held across a panic");
        }
        !flow.closed
    }

    /// Marks the end of sending: the receive loop returns once every
    /// request sent so far is answered.
    pub fn finish_sending(&self) {
        self.flow().done_sending = true;
        self.changed.notify_all();
    }

    /// The receive loop: collects response lines until every sent
    /// request is answered after [`finish_sending`](Self::finish_sending),
    /// or the connection closes, or nothing arrives for a minute.
    #[must_use]
    pub fn receive_all(&self) -> Vec<Received> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        let mut reader = self
            .reader
            .lock()
            .expect("reader lock is never held across a panic");
        let mut last = Instant::now();
        loop {
            {
                let flow = self.flow();
                if flow.closed || (flow.done_sending && flow.received == flow.sent) {
                    break;
                }
            }
            match protocol::read_line_bounded_into(&mut *reader, protocol::MAX_LINE_BYTES, &mut buf)
            {
                Ok(LineRead::Line(line)) => {
                    let at = Instant::now();
                    last = at;
                    out.push(Received {
                        id: response_id(&line),
                        at,
                        line,
                    });
                    self.flow().received += 1;
                    self.changed.notify_all();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && last.elapsed() < STALL => {}
                Ok(LineRead::Eof | LineRead::TooLong) | Err(_) => break,
            }
        }
        drop(reader);
        self.flow().closed = true;
        self.changed.notify_all();
        out
    }
}

/// A fresh, empty directory for a run's incremental store.
///
/// # Errors
/// I/O errors clearing it.
pub fn fresh_dir(path: PathBuf) -> io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(&path)?;
    }
    Ok(path)
}

/// Total size of the files under `dir`, in bytes.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|m| if m.is_dir() { 0 } else { m.len() })
            .sum()
    })
}
