//! In-process tenant sessions: bounded intake, match-event delivery,
//! and graceful drain.
//!
//! A [`Session`] is the producer side of one tenant stream. Each
//! accepted chunk is stepped, on the caller's thread, through the
//! session's own resumable simulator state over the tenant's solo plan,
//! and its match events, with global offsets, land in the session's
//! event queue before [`Session::send`] returns. Both directions are
//! budgeted by quantities certified at admission time (see `Tenancy` in
//! the server module).
//!
//! Lock order: a session's `stepper` lock comes before its `state` lock
//! and before the shard's residency lock; `state` is never held while
//! another lock is taken, and the findings log is always taken last.
//! `drain` and `stats` take only `state`, so they never wait on a step.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rap_pipeline::VerifiedPlan;
use rap_sim::{MatchEvent, StreamState};

use crate::rules::Rule;
use crate::server::{ServeError, Shard, Shared};

/// The producer-visible outcome of one [`Session::send`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The chunk was scanned within budget.
    Accepted,
    /// The chunk was scanned, but it fills more than half the certified
    /// intake budget: the producer should send smaller chunks.
    Backpressured,
    /// The chunk was rejected: it alone exceeds the certified intake
    /// budget. Nothing was scanned; split the chunk and resend it.
    Shed,
}

/// Per-session counters, snapshot by [`Session::stats`].
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Chunks accepted into the stream.
    pub chunks_sent: u64,
    /// Chunks rejected over the intake budget.
    pub chunks_shed: u64,
    /// Backpressure signals raised for this session.
    pub backpressure_events: u64,
    /// Bytes accepted into the stream.
    pub bytes_sent: u64,
    /// Bytes stepped through the session's stream state so far.
    pub bytes_scanned: u64,
    /// Steps run on this session's behalf (one per accepted chunk, plus
    /// the final one).
    pub scans: u64,
    /// Match events delivered to this session's queue.
    pub matches_delivered: u64,
}

/// Consumer-visible state, guarded by the session's `state` mutex.
#[derive(Default)]
struct SessionState {
    /// Delivered-but-undrained match events (global `end` offsets).
    events: Vec<MatchEvent>,
    /// Session counters.
    stats: SessionStats,
    /// An R002 finding was already recorded for this session.
    flagged_backpressure: bool,
    /// An R003 finding was already recorded for this session.
    flagged_shed: bool,
}

impl SessionState {
    /// Counts one backpressure signal; true if it is the session's first
    /// (each rule reports at most once per session).
    fn backpressure(&mut self) -> bool {
        self.stats.backpressure_events += 1;
        !std::mem::replace(&mut self.flagged_backpressure, true)
    }
}

/// A registered tenant's streaming handle.
///
/// Dropping the handle without calling [`Session::finish`] still drains
/// gracefully: the drop runs the final step over every accepted byte and
/// releases the tenant's slot before it returns.
pub struct Session {
    name: String,
    /// The hosting shard.
    pub(crate) shard: Arc<Shard>,
    /// The tenant's solo plan. Admission certifies that a tenant's
    /// matches in any composition equal its solo run, so the session
    /// steps this plan alone, whatever shares the shard.
    plan: Arc<VerifiedPlan>,
    /// The persisted simulator state over `plan`; `None` once the stream
    /// finished, which is the only record that the session is closed.
    stepper: Mutex<Option<StreamState<'static>>>,
    state: Mutex<SessionState>,
    shared: Arc<Shared>,
}

impl Session {
    pub(crate) fn new(
        name: &str,
        shard: Arc<Shard>,
        plan: Arc<VerifiedPlan>,
        shared: Arc<Shared>,
    ) -> Session {
        let stepper = StreamState::new(
            plan.compiled().images(),
            plan.mapping(),
            plan.compiled().machine(),
            None,
        );
        Session {
            name: name.to_string(),
            shard,
            plan,
            stepper: Mutex::new(Some(stepper)),
            state: Mutex::new(SessionState::default()),
            shared,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SessionState> {
        self.state.lock().expect("session lock poisoned")
    }

    fn lock_stepper(&self) -> MutexGuard<'_, Option<StreamState<'static>>> {
        self.stepper.lock().expect("session stepper poisoned")
    }

    /// The tenant name this session registered under.
    pub fn tenant(&self) -> &str {
        &self.name
    }

    /// The shard hosting this session.
    pub fn shard(&self) -> usize {
        self.shard.id
    }

    /// Streams one chunk: scans it on the calling thread and delivers
    /// its match events before returning. Returns the budget verdict;
    /// `Shed` means the chunk was **not** scanned and should be split.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionClosed`] once `finish` was called or the
    /// handle's drain began.
    pub fn send(&self, chunk: &[u8]) -> Result<SendOutcome, ServeError> {
        if chunk.is_empty() {
            return Ok(SendOutcome::Accepted);
        }
        let tenancy = self.shard.tenancy();
        let budget = tenancy.as_ref().map_or(0, |t| t.input_budget as usize);
        let events_budget = tenancy.as_ref().map_or(u64::MAX, |t| t.events_budget);
        let outcome = if chunk.len() > budget {
            SendOutcome::Shed
        } else if chunk.len() * 2 > budget {
            SendOutcome::Backpressured
        } else {
            SendOutcome::Accepted
        };
        let mut stepper = self.lock_stepper();
        let Some(stream) = stepper.as_mut() else {
            return Err(ServeError::SessionClosed);
        };
        let (first_backpressure, first_shed) = {
            let mut st = self.lock();
            if outcome == SendOutcome::Shed {
                st.stats.chunks_shed += 1;
            } else {
                st.stats.chunks_sent += 1;
                st.stats.bytes_sent += chunk.len() as u64;
            }
            (
                outcome != SendOutcome::Accepted && st.backpressure(),
                outcome == SendOutcome::Shed && !std::mem::replace(&mut st.flagged_shed, true),
            )
        };
        // A shed always records its R002 first, so "shed without a
        // backpressure finding" is impossible by construction.
        if outcome != SendOutcome::Accepted {
            self.shared.metrics.backpressure_events.inc();
        }
        if first_backpressure {
            self.shared.finding(
                Rule::SessionBackpressure,
                format!(
                    "tenant {:?} crossed its certified intake budget band ({budget} bytes)",
                    self.name
                ),
            );
        }
        if outcome == SendOutcome::Shed {
            self.shared.metrics.chunks_shed.inc();
            if first_shed {
                self.shared.finding(
                    Rule::ChunkShed,
                    format!(
                        "tenant {:?} shed a {}-byte chunk over its certified intake budget ({budget} bytes)",
                        self.name,
                        chunk.len()
                    ),
                );
            }
            return Ok(outcome);
        }
        let start = Instant::now();
        let events = stream.step(self.plan.compiled().images(), self.plan.mapping(), chunk);
        self.deliver(events, chunk.len(), start, events_budget);
        Ok(outcome)
    }

    /// Queues one step's match events and counts the step. The caller
    /// holds the stepper lock, so steps deliver in stream order.
    fn deliver(&self, events: Vec<MatchEvent>, bytes: usize, start: Instant, events_budget: u64) {
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let (bytes, matches) = (bytes as u64, events.len() as u64);
        let over_events_budget = {
            let mut st = self.lock();
            st.events.extend(events);
            st.stats.bytes_scanned += bytes;
            st.stats.scans += 1;
            st.stats.matches_delivered += matches;
            st.events.len() as u64 > events_budget && st.backpressure()
        };
        let metrics = &self.shared.metrics;
        if over_events_budget {
            metrics.backpressure_events.inc();
            self.shared.finding(
                Rule::SessionBackpressure,
                format!(
                    "tenant {:?} exceeded its certified event-queue budget ({events_budget} records)",
                    self.name
                ),
            );
        }
        metrics.bytes_scanned.add(bytes);
        metrics.shard_bytes(self.shard.id).add(bytes);
        metrics.chunks_scanned.inc();
        metrics.matches_delivered.add(matches);
        metrics.tenant_matches(&self.name).add(matches);
        metrics.scan_ns.record(elapsed_ns);
    }

    /// Removes and returns every delivered-but-undrained match event.
    /// Events carry **global** stream offsets in [`MatchEvent::end`]
    /// and the tenant's own pattern indices.
    pub fn drain(&self) -> Vec<MatchEvent> {
        std::mem::take(&mut self.lock().events)
    }

    /// Blocks while another thread's [`Session::send`] or
    /// [`Session::finish`] is mid-step on this session. A `send` returns
    /// with its chunk already scanned, so a producer that sends and
    /// waits on one thread never blocks here.
    pub fn wait_idle(&self) {
        drop(self.lock_stepper());
    }

    /// Ends the stream on the calling thread: runs the final step
    /// (delivering `$`-anchored matches) and releases the tenant's slot
    /// before returning. Idempotent; a concurrent `send` either lands
    /// before the final step or fails with
    /// [`ServeError::SessionClosed`].
    pub fn finish(&self) {
        self.close(self.lock_stepper());
    }

    /// The final step and slot release, under the stepper lock so that a
    /// concurrent `finish` returns only once the slot is free.
    fn close(&self, mut stepper: MutexGuard<'_, Option<StreamState<'static>>>) {
        let Some(stream) = stepper.take() else {
            return;
        };
        let events_budget = self.shard.tenancy().map_or(u64::MAX, |t| t.events_budget);
        let start = Instant::now();
        let events = stream.finish().matches;
        self.deliver(events, 0, start, events_budget);
        self.shared.release(&self.shard, &self.name);
    }

    /// Snapshot of this session's counters.
    pub fn stats(&self) -> SessionStats {
        self.lock().stats.clone()
    }
}

impl Drop for Session {
    /// Graceful drain on disconnect: the final step and the slot release
    /// run inline if `finish` was not already called. A stepper poisoned
    /// by a panicking step is left alone, so the drop does not panic.
    fn drop(&mut self) {
        if let Ok(stepper) = self.stepper.lock() {
            self.close(stepper);
        }
    }
}
