//! Bounded retry-with-backoff for failed control-plane sends.
//!
//! Periodic sensor samples are fire-and-forget — a lost sample is
//! superseded by the next one a few seconds later, so the paper's plain
//! CSMA behaviour is the right call on the data plane. Computed
//! control-plane values (supply temperature, dew targets, actuation
//! commands) are different: consumers hold them for whole control periods,
//! so one lost frame can skew a loop for minutes. This module consumes the
//! failure reports drained from [`Network::take_failures`] and schedules a
//! bounded, exponentially backed-off resend for control-plane frames only
//! (see [`DataType::is_control_plane`]).
//!
//! [`Network::take_failures`]: crate::channel::Network::take_failures
//! [`DataType::is_control_plane`]: crate::message::DataType::is_control_plane

use bz_simcore::{SimDuration, SimTime};

use crate::channel::TxFailure;
use crate::message::Message;

/// Retry policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Maximum resends per original frame.
    pub max_retries: u32,
    /// Backoff before the first resend; doubles per attempt.
    pub base_backoff: SimDuration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: SimDuration::from_millis(50),
        }
    }
}

/// A resend waiting for its backoff to elapse.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    due: SimTime,
    message: Message,
}

/// Consumes control-plane send failures and emits bounded resends.
///
/// Feed every drained failure to [`ControlRetrier::on_failure`]; each
/// step, drain [`ControlRetrier::due`] and offer the returned frames back
/// to the network. Attempts are tracked per original frame (keyed by its
/// creation time), so a frame that keeps losing eventually gives up.
#[derive(Debug, Clone)]
pub struct ControlRetrier {
    config: RetryConfig,
    pending: Vec<PendingRetry>,
    /// Attempt counts per failed frame, keyed by the frame itself.
    attempts: Vec<(Message, u32)>,
    obs: bz_obs::Handle,
}

impl ControlRetrier {
    /// Creates a retrier with telemetry off (see
    /// [`ControlRetrier::with_obs`]).
    #[must_use]
    pub fn new(config: RetryConfig) -> Self {
        Self {
            config,
            pending: Vec::new(),
            attempts: Vec::new(),
            obs: bz_obs::Handle::default(),
        }
    }

    /// Redirects this retrier's counters to `obs` (per-run isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.obs = obs;
        self
    }

    /// Reports one failed send. Control-plane frames are scheduled for a
    /// backed-off resend (returns `true`) until their retry budget is
    /// exhausted; data-plane frames are ignored (returns `false`).
    pub fn on_failure(&mut self, now: SimTime, message: Message, _failure: TxFailure) -> bool {
        if !message.data_type().is_control_plane() {
            return false;
        }
        // Forget frames so old their value is stale anyway; this also
        // bounds the attempt table.
        self.attempts
            .retain(|(m, _)| now.since(m.created_at()) < SimDuration::from_secs(60));
        let attempt = match self.attempts.iter_mut().find(|(m, _)| *m == message) {
            Some((_, count)) => {
                *count += 1;
                *count
            }
            None => {
                self.attempts.push((message, 1));
                1
            }
        };
        if attempt > self.config.max_retries {
            self.obs.counter_inc("wsn.retry.gave_up");
            return false;
        }
        let backoff_ms = self.config.base_backoff.as_millis() << (attempt - 1).min(16);
        self.pending.push(PendingRetry {
            due: now + SimDuration::from_millis(backoff_ms),
            message,
        });
        self.obs.counter_inc("wsn.retry.scheduled");
        true
    }

    /// Drains the resends whose backoff has elapsed by `now`, in due
    /// order.
    pub fn due(&mut self, now: SimTime) -> Vec<Message> {
        let mut ready: Vec<PendingRetry> = Vec::new();
        self.pending.retain(|p| {
            if p.due <= now {
                ready.push(*p);
                false
            } else {
                true
            }
        });
        ready.sort_by_key(|p| p.due);
        for _ in &ready {
            self.obs.counter_inc("wsn.retry.resent");
        }
        ready.into_iter().map(|p| p.message).collect()
    }

    /// Resends still waiting for their backoff.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Serializes the dynamic retry state (pending resends, attempt
    /// table). Configuration and the obs handle are rebuilt on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.pending.save(w);
        self.attempts.save(w);
    }

    /// Restores the dynamic state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.pending = Persist::load(r)?;
        self.attempts = Persist::load(r)?;
        Ok(())
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_struct!(PendingRetry { due, message });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{DataType, NodeId};

    fn control_msg(at: SimTime) -> Message {
        Message::new(NodeId::new(50), DataType::SupplyTemperature, 17.5, at)
    }

    #[test]
    fn data_plane_failures_are_ignored() {
        let mut retrier = ControlRetrier::new(RetryConfig::default());
        let sample = Message::new(NodeId::new(1), DataType::Temperature, 25.0, SimTime::ZERO);
        assert!(!retrier.on_failure(SimTime::ZERO, sample, TxFailure::Collision));
        assert_eq!(retrier.pending_len(), 0);
    }

    #[test]
    fn control_plane_failures_back_off_exponentially() {
        let mut retrier = ControlRetrier::new(RetryConfig::default());
        let msg = control_msg(SimTime::ZERO);
        assert!(retrier.on_failure(SimTime::ZERO, msg, TxFailure::ChannelBusy));
        // Not due before the base backoff.
        assert!(retrier.due(SimTime::from_millis(49)).is_empty());
        let first = retrier.due(SimTime::from_millis(50));
        assert_eq!(first, vec![msg]);
        // Second failure of the same frame: backoff doubles.
        let now = SimTime::from_millis(60);
        assert!(retrier.on_failure(now, msg, TxFailure::Collision));
        assert!(retrier.due(SimTime::from_millis(60 + 99)).is_empty());
        assert_eq!(retrier.due(SimTime::from_millis(60 + 100)), vec![msg]);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let config = RetryConfig {
            max_retries: 2,
            ..RetryConfig::default()
        };
        let obs = bz_obs::Handle::isolated();
        let mut retrier = ControlRetrier::new(config).with_obs(obs.clone());
        let msg = control_msg(SimTime::ZERO);
        assert!(retrier.on_failure(SimTime::from_millis(1), msg, TxFailure::Collision));
        assert!(retrier.on_failure(SimTime::from_millis(2), msg, TxFailure::Collision));
        assert!(!retrier.on_failure(SimTime::from_millis(3), msg, TxFailure::Collision));
        let counters = obs.snapshot().counters;
        assert_eq!(counters["wsn.retry.scheduled"], 2);
        assert_eq!(counters["wsn.retry.gave_up"], 1);
    }

    #[test]
    fn stale_frames_fall_out_of_the_attempt_table() {
        let config = RetryConfig {
            max_retries: 1,
            ..RetryConfig::default()
        };
        let mut retrier = ControlRetrier::new(config);
        let msg = control_msg(SimTime::ZERO);
        assert!(retrier.on_failure(SimTime::ZERO, msg, TxFailure::Collision));
        // Over a minute later the table has been pruned, so the same frame
        // gets a fresh budget rather than an instant give-up.
        assert!(retrier.on_failure(SimTime::from_secs(90), msg, TxFailure::Collision));
    }
}
