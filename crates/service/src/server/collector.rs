//! The streaming trace collector: a thread that tails every worker's
//! event ring into the rolling on-disk stream and answers the pause
//! path's flush barriers.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use super::ServerShared;
use xgomp_core::TraceStream;

/// Handle of the running collector thread (owned by [`TaskServer`]).
/// Each message on `flushes` is a flush barrier carrying its own ack
/// sender; dropping the sender stops the collector.
pub(super) struct TraceCollector {
    flushes: mpsc::Sender<mpsc::Sender<()>>,
    thread: std::thread::JoinHandle<()>,
}

impl TraceCollector {
    pub(super) fn spawn(
        shared: Arc<ServerShared>,
        stream: TraceStream,
        interval: Duration,
    ) -> Self {
        let (flushes, requests) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("xgomp-trace-collector".into())
            .spawn(move || collector_loop(shared, stream, interval, requests))
            .expect("spawn trace collector");
        TraceCollector { flushes, thread }
    }

    /// Flush barrier: every record emitted before this call is drained
    /// to disk and flushed when it returns (bounded wait).
    pub(super) fn flush_barrier(&self, timeout: Duration) {
        let (ack, acked) = mpsc::channel();
        if self.flushes.send(ack).is_ok() {
            let _ = acked.recv_timeout(timeout);
        }
    }

    /// Stops the collector and joins it; the thread runs one final
    /// exact drain ([`TraceStream::finish`]) on the way out.
    pub(super) fn stop(self) {
        drop(self.flushes);
        let _ = self.thread.join();
    }
}

/// The collector thread: tail every ring on the cadence, answer flush
/// barriers, and finish with one last exact drain + summary once the
/// request sender is dropped.
fn collector_loop(
    shared: Arc<ServerShared>,
    mut stream: TraceStream,
    interval: Duration,
    requests: mpsc::Receiver<mpsc::Sender<()>>,
) {
    let mut reported_io_error = false;
    loop {
        let flush = match requests.recv_timeout(interval) {
            Ok(ack) => Some(ack),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        // Drain first, flush second: a barrier covers every record
        // emitted before its request.
        if let Err(e) = stream.drain_cycle(&shared.tracer) {
            if !reported_io_error {
                reported_io_error = true;
                eprintln!("xgomp-service: trace stream write failed: {e}");
            }
        }
        shared.obs.publish_stream(stream.stats());
        if let Some(ack) = flush {
            let _ = stream.flush();
            let _ = ack.send(());
        }
    }
    match stream.finish(&shared.tracer) {
        Ok(stats) => shared.obs.publish_stream(stats),
        Err(e) => {
            if !reported_io_error {
                eprintln!("xgomp-service: trace stream finish failed: {e}");
            }
        }
    }
}
