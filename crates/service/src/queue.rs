//! Bounded job queue with admission control and graceful drain — the
//! state machine between the reactor and the scan workers.
//!
//! Admission is explicit, not backpressure-by-blocking: a submission
//! against a full queue is returned to the caller with
//! [`Admission::Busy`] in O(1), and the *reactor* parks the request and
//! suspends the connection's reads (backpressure). Deadlines are owned
//! by the reactor: it settles the request at expiry, so a worker that
//! dequeues an expired job skips the scan entirely.
//!
//! Drain semantics: [`JobQueue::drain`] closes admission (new scans get
//! [`Admission::Draining`]) but queued jobs keep their promise — workers
//! finish everything already admitted, then [`JobQueue::next`] returns
//! `None` and the workers exit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use saint_sync::{Condvar, Mutex};

use crate::reactor::Responder;

/// One admitted scan: the still-encoded package plus the settle-once
/// responder that routes the outcome back through the reactor.
pub struct Job {
    /// The base64 package exactly as received; workers do the base64
    /// and SAPK decode so the reactor thread never touches payloads.
    pub(crate) package_b64: String,
    /// The response end: exactly one of worker delivery, reactor
    /// deadline, or the drop guard answers the request.
    pub(crate) responder: Responder,
    /// When the job entered the queue; [`JobQueue::next`] records the
    /// elapsed wait as a `queue_wait` phase span when a registry is
    /// attached.
    pub(crate) enqueued_at: Instant,
    /// Whether this is a `delta` submission: the worker routes it
    /// through the incremental artifact store when one is configured.
    pub(crate) delta: bool,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The queue is at capacity.
    Busy,
    /// The daemon is draining toward shutdown.
    Draining,
}

/// Counters surfaced through the `status` response.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Jobs currently queued (admitted, not yet started).
    pub depth: usize,
    /// Admission bound.
    pub capacity: usize,
    /// Jobs currently executing on workers.
    pub active: usize,
    /// Scans whose report reached the client, over the queue's
    /// lifetime.
    pub served: u64,
    /// Scans answered `timeout` at their deadline instead of a report.
    pub timed_out: u64,
    /// Whether admission is closed.
    pub draining: bool,
}

struct State {
    queue: VecDeque<Job>,
    draining: bool,
}

/// The shared queue; see the module docs for the state machine.
pub struct JobQueue {
    state: Mutex<State>,
    wake: Condvar,
    capacity: usize,
    active: AtomicUsize,
    served: AtomicU64,
    timed_out: AtomicU64,
    metrics: Option<Arc<saint_obs::MetricsRegistry>>,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs (executing
    /// jobs do not count against the bound).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                draining: false,
            }),
            wake: Condvar::new(),
            capacity,
            active: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Attaches a metrics registry: every dequeue records the job's
    /// admission-to-pickup latency as a `queue_wait` phase span.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<saint_obs::MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Admits a job, or hands it back with the refusal reason in O(1)
    /// without blocking — the caller owns the retry/park/reject
    /// decision, and getting the job back keeps its responder from
    /// misfiring a crashed-worker answer.
    ///
    /// # Errors
    /// [`Admission::Draining`] once [`drain`](Self::drain) was called,
    /// [`Admission::Busy`] when the queue is at capacity.
    pub fn submit(&self, job: Job) -> Result<(), (Job, Admission)> {
        let mut st = self.state.lock();
        if st.draining {
            return Err((job, Admission::Draining));
        }
        if st.queue.len() >= self.capacity {
            return Err((job, Admission::Busy));
        }
        st.queue.push_back(job);
        drop(st);
        self.wake.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (skipping settled ones — the
    /// reactor already answered them at their deadline) or the queue is
    /// drained dry; `None` tells the worker to exit.
    pub fn next(&self) -> Option<Job> {
        let mut st = self.state.lock();
        loop {
            while let Some(job) = st.queue.pop_front() {
                if job.responder.is_settled() {
                    continue;
                }
                self.active.fetch_add(1, Ordering::Relaxed);
                if let Some(metrics) = &self.metrics {
                    metrics.record(saint_obs::Phase::QueueWait, job.enqueued_at.elapsed());
                }
                return Some(job);
            }
            if st.draining {
                return None;
            }
            st = self.wake.wait(st);
        }
    }

    /// Marks one dequeued job finished (worker-side bookkeeping only).
    pub fn finish(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one scan whose report reached its client. Outcome
    /// counters are owned by whichever party won the request's settle —
    /// the only party that knows what the client was actually told —
    /// and bumped *before* the response frame is queued, so a client
    /// that reads its report and immediately asks for `status` sees
    /// itself counted.
    pub fn mark_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one scan answered `timeout` at its deadline (any late
    /// report is discarded).
    pub fn mark_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes admission and wakes every worker; already-admitted jobs
    /// still run to completion.
    pub fn drain(&self) {
        let mut st = self.state.lock();
        st.draining = true;
        drop(st);
        self.wake.notify_all();
    }

    /// Whether admission is closed.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.lock().draining
    }

    /// A snapshot of the queue counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let st = self.state.lock();
        QueueStats {
            depth: st.queue.len(),
            capacity: self.capacity,
            active: self.active.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            draining: st.draining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::CompletionSink;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicBool;

    fn sink() -> Arc<CompletionSink> {
        let (tx, rx) = UnixStream::pair().expect("socketpair");
        rx.set_nonblocking(true).expect("nonblocking");
        // Leak the read end so wake writes never hit a closed pipe.
        std::mem::forget(rx);
        Arc::new(CompletionSink::new(tx))
    }

    fn job(sink: &Arc<CompletionSink>, settled: &Arc<AtomicBool>) -> Job {
        Job {
            package_b64: "AAAA".to_string(),
            responder: Responder::new(Arc::clone(sink), 0, 1, None, Arc::clone(settled)),
            enqueued_at: Instant::now(),
            delta: false,
        }
    }

    #[test]
    fn capacity_hands_the_job_back_with_busy() {
        let q = JobQueue::new(1);
        let sink = sink();
        let live = Arc::new(AtomicBool::new(false));
        assert!(q.submit(job(&sink, &live)).is_ok());
        let Err((returned, admission)) = q.submit(job(&sink, &live)) else {
            panic!("second submit must be rejected");
        };
        assert_eq!(admission, Admission::Busy);
        returned.responder.disarm();
        assert_eq!(q.stats().depth, 1);
    }

    #[test]
    fn drain_closes_admission_but_serves_queued() {
        let q = JobQueue::new(4);
        let sink = sink();
        let live = Arc::new(AtomicBool::new(false));
        assert!(q.submit(job(&sink, &live)).is_ok());
        q.drain();
        let Err((returned, admission)) = q.submit(job(&sink, &live)) else {
            panic!("draining queue must reject");
        };
        assert_eq!(admission, Admission::Draining);
        returned.responder.disarm();
        // The queued job is still handed out, then workers are told to
        // exit.
        let served = q.next().expect("queued job survives drain");
        served.responder.disarm();
        q.mark_served();
        q.finish();
        assert!(q.next().is_none());
        let stats = q.stats();
        assert!(stats.draining);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.active, 0);
    }

    #[test]
    fn settled_jobs_are_skipped() {
        let q = JobQueue::new(4);
        let sink = sink();
        let expired = Arc::new(AtomicBool::new(true)); // deadline already answered
        let live = Arc::new(AtomicBool::new(false));
        q.submit(job(&sink, &expired))
            .map_err(|_| ())
            .expect("fits");
        q.mark_timed_out(); // what the reactor does when the deadline fires
        q.submit(job(&sink, &live)).map_err(|_| ()).expect("fits");
        let got = q.next().expect("live job");
        assert!(!got.responder.is_settled());
        got.responder.disarm();
        // The skip itself adds nothing: outcome counters are owned by
        // the settling party, and the dead job was already counted once.
        assert_eq!(q.stats().timed_out, 1);
    }

    #[test]
    fn next_blocks_until_submit() {
        let q = Arc::new(JobQueue::new(2));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || match q2.next() {
            Some(job) => {
                job.responder.disarm();
                true
            }
            None => false,
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let sink = sink();
        let live = Arc::new(AtomicBool::new(false));
        q.submit(job(&sink, &live)).map_err(|_| ()).expect("fits");
        assert!(waiter.join().expect("waiter"));
    }
}
