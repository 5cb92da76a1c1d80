//! The one checkpointer: an [`Identity`] seals envelopes and refuses
//! foreign ones; a [`Checkpointer`] binds it to one run's
//! [`CheckpointDir`] for periodic writes, retention, resume and crash
//! injection. See `docs/CHECKPOINTS.md` for the guarantees.

use std::path::PathBuf;

use crate::checkpoint::{Checkpoint, CheckpointMeta};
use crate::codec::{Reader, StateError, Writer};
use crate::dir::CheckpointDir;

/// Checkpoints retained per directory.
pub const KEEP: usize = 3;

/// What a checkpoint must match to be restored.
#[derive(Debug, Clone)]
pub struct Identity {
    /// Kind tag of the writing run (`trial`, `chaos`, `serve`, …).
    pub kind: String,
    /// Canonical description of everything that shapes the simulation
    /// (seed, duration, scenario, noise kernel).
    pub label: String,
    /// CRC-64 of [`label`](Self::label), stored in every envelope.
    pub config_crc: u64,
}

impl Identity {
    /// The identity of a `kind` run described by `label`.
    #[must_use]
    pub fn new(kind: &str, label: impl Into<String>) -> Self {
        let label = label.into();
        Self {
            kind: kind.to_owned(),
            config_crc: crate::crc64::checksum(label.as_bytes()),
            label,
        }
    }

    /// Seals `payload`, taken at `tick_ms`, into an envelope stamped with
    /// this identity.
    #[must_use]
    pub fn envelope(&self, tick_ms: u64, payload: Vec<u8>) -> Checkpoint {
        Checkpoint {
            meta: CheckpointMeta {
                kind: self.kind.clone(),
                tick_ms,
                config_crc: self.config_crc,
                label: self.label.clone(),
            },
            payload,
        }
    }

    /// Refuses a checkpoint written by another kind of run or under
    /// another configuration. `subject` opens the message (`checkpoint
    /// <path>`).
    ///
    /// # Errors
    ///
    /// Names both kinds, or both identities; a label differing only in
    /// its `noise=` token names both kernel versions and the fix.
    pub fn check(&self, checkpoint: &Checkpoint, subject: &str) -> Result<(), String> {
        let stored = &checkpoint.meta;
        if stored.kind != self.kind {
            return Err(format!(
                "{subject} was written by '{}' (this is '{}'); refusing to resume",
                stored.kind, self.kind
            ));
        }
        if stored.config_crc == self.config_crc {
            return Ok(());
        }
        let stored_noise = noise_token(&stored.label);
        let our_noise = noise_token(&self.label);
        if stored_noise != our_noise && without_noise(&stored.label) == without_noise(&self.label) {
            let stored_noise = stored_noise.unwrap_or("unrecorded");
            return Err(format!(
                "{subject} was written under noise kernel {stored_noise}, but this run \
                 uses {}; set BZ_NOISE={stored_noise} to resume it (see docs/CHECKPOINTS.md)",
                our_noise.unwrap_or("unrecorded"),
            ));
        }
        Err(format!(
            "{subject} was written under a different configuration ('{}', not '{}'); \
             refusing to resume",
            stored.label, self.label
        ))
    }
}

/// Extracts the `noise=<version>` token from an identity label.
#[must_use]
pub fn noise_token(label: &str) -> Option<&str> {
    label
        .split_whitespace()
        .find_map(|token| token.strip_prefix("noise="))
}

/// The identity label with its `noise=` token removed.
fn without_noise(label: &str) -> String {
    label
        .split_whitespace()
        .filter(|token| !token.starts_with("noise="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// What a resume scan found and did.
#[derive(Debug, Clone, Default)]
pub struct Resumed {
    /// Simulated time of the restored snapshot; `None` when no usable
    /// snapshot existed and the run starts fresh.
    pub tick_ms: Option<u64>,
    /// Human-readable notes: one line per corrupt snapshot skipped, plus
    /// the outcome, so recovery is visible.
    pub notes: Vec<String>,
}

/// One run's checkpointing state.
#[derive(Debug)]
pub struct Checkpointer {
    dir: CheckpointDir,
    identity: Identity,
    every_ms: Option<u64>,
    next_due_ms: u64,
    crash_at_ms: Option<u64>,
    resume: bool,
}

impl Checkpointer {
    /// Binds the directory `root` (created if missing) to one run:
    /// snapshots every `every_ms` simulated milliseconds (never when
    /// `None`), an injected crash once time reaches `crash_at_ms`, and a
    /// restore from the newest good snapshot when `resume` is set.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn new(
        root: impl Into<PathBuf>,
        identity: Identity,
        every_ms: Option<u64>,
        crash_at_ms: Option<u64>,
        resume: bool,
    ) -> Result<Self, String> {
        let dir = CheckpointDir::create(root)
            .map_err(|e| format!("cannot create checkpoint dir: {e}"))?;
        Ok(Self {
            dir,
            identity,
            every_ms,
            next_due_ms: every_ms.unwrap_or(u64::MAX),
            crash_at_ms,
            resume,
        })
    }

    /// Scans for the newest good snapshot and, when resuming, restores it
    /// through `restore`. Corrupt or torn snapshots are reported in the
    /// notes and skipped; an older good snapshot wins over a newer bad
    /// one.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be scanned, when the newest good
    /// snapshot fails the [`Identity::check`], or when its payload does
    /// not decode.
    pub fn resume(
        &mut self,
        restore: impl FnOnce(&mut Reader<'_>) -> Result<(), StateError>,
    ) -> Result<Resumed, String> {
        let mut resumed = Resumed::default();
        if !self.resume {
            return Ok(resumed);
        }
        let scan = self
            .dir
            .latest_good()
            .map_err(|e| format!("cannot scan checkpoint dir: {e}"))?;
        for skipped in &scan.skipped {
            resumed.notes.push(format!(
                "skipping corrupt checkpoint {}: {}",
                skipped.path.display(),
                skipped.error
            ));
        }
        let Some((path, checkpoint)) = scan.best else {
            resumed
                .notes
                .push("no usable checkpoint found; starting fresh".to_owned());
            return Ok(resumed);
        };
        self.identity
            .check(&checkpoint, &format!("checkpoint {}", path.display()))?;
        restore(&mut Reader::new(&checkpoint.payload))
            .map_err(|e| format!("checkpoint {} failed to restore: {e}", path.display()))?;
        let tick_ms = checkpoint.meta.tick_ms;
        resumed.notes.push(format!(
            "resumed from {} at t={}s",
            path.display(),
            tick_ms / 1_000
        ));
        resumed.tick_ms = Some(tick_ms);
        if let Some(every) = self.every_ms {
            self.next_due_ms = tick_ms + every;
        }
        Ok(resumed)
    }

    /// Called after every simulation step: writes a snapshot when one is
    /// due (atomically, pruning to the newest [`KEEP`]) and then fires the
    /// crash injection.
    ///
    /// # Errors
    ///
    /// Fails when a snapshot cannot be written, or — by design — with
    /// the injected-crash error once `now_ms` reaches the crash time.
    pub fn after_step(
        &mut self,
        now_ms: u64,
        save: impl FnOnce(&mut Writer),
    ) -> Result<(), String> {
        if now_ms >= self.next_due_ms {
            let mut w = Writer::new();
            save(&mut w);
            self.identity
                .envelope(now_ms, w.into_bytes())
                .write_atomic(&self.dir.file_for_tick(now_ms))
                .map_err(|e| format!("checkpoint write failed: {e}"))?;
            self.dir
                .prune(KEEP)
                .map_err(|e| format!("checkpoint prune failed: {e}"))?;
            self.next_due_ms = now_ms + self.every_ms.unwrap_or(u64::MAX);
        }
        match self.crash_at_ms {
            Some(crash_at) if now_ms >= crash_at => Err(format!(
                "crash injected at t={}s (--crash-at)",
                now_ms / 1_000
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bz-state-ckpt-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn checkpointer(root: &PathBuf, label: &str, resume: bool) -> Checkpointer {
        Checkpointer::new(
            root,
            Identity::new("trial", label),
            Some(60_000),
            None,
            resume,
        )
        .unwrap()
    }

    #[test]
    fn periodic_writes_land_and_prune() {
        let root = scratch("periodic");
        let mut session = checkpointer(&root, "seed=1", false);
        for minute in 1..=6u64 {
            session
                .after_step(minute * 60_000, |w| w.put_u64(minute))
                .unwrap();
        }
        let listed = CheckpointDir::open(&root).list().unwrap();
        assert_eq!(listed.len(), KEEP, "retention window enforced");
        assert_eq!(listed.last().unwrap().0, 360_000);
    }

    #[test]
    fn resume_restores_the_newest_good_and_reports_corruption() {
        let root = scratch("resume");
        let mut session = checkpointer(&root, "seed=1", true);
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();
        session.after_step(120_000, |w| w.put_u64(2)).unwrap();
        // Corrupt the newest file: flip a byte in the middle.
        let newest = CheckpointDir::open(&root).file_for_tick(120_000);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();

        let mut fresh = checkpointer(&root, "seed=1", true);
        let mut restored = 0;
        let resumed = fresh
            .resume(|r| {
                restored = r.take_u64()?;
                Ok(())
            })
            .unwrap();
        assert_eq!(resumed.tick_ms, Some(60_000), "older good snapshot wins");
        assert_eq!(restored, 1);
        assert!(
            resumed.notes.iter().any(|n| n.contains("corrupt")),
            "corruption must be reported: {:?}",
            resumed.notes
        );
    }

    #[test]
    fn resume_rejects_checkpoints_from_other_configurations() {
        let root = scratch("identity");
        let mut session = checkpointer(&root, "seed=1", true);
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();

        let mut other_seed = checkpointer(&root, "seed=2", true);
        let err = other_seed.resume(|_| Ok(())).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");

        let mut other_kind =
            Checkpointer::new(&root, Identity::new("chaos", "seed=1"), None, None, true).unwrap();
        let err = other_kind.resume(|_| Ok(())).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
    }

    #[test]
    fn noise_only_mismatch_names_both_kernel_versions() {
        let root = scratch("noise");
        let mut session = checkpointer(&root, "trial seed=1 minutes=5 noise=v1", true);
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();

        let mut other_noise = checkpointer(&root, "trial seed=1 minutes=5 noise=v2", true);
        let err = other_noise.resume(|_| Ok(())).unwrap_err();
        assert!(err.contains("noise kernel v1"), "{err}");
        assert!(err.contains("uses v2"), "{err}");
        assert!(err.contains("BZ_NOISE=v1"), "{err}");
        assert!(
            !err.contains("different configuration"),
            "the noise case must replace the generic message: {err}"
        );

        // A mismatch beyond the noise token keeps the generic message.
        let mut other_seed = checkpointer(&root, "trial seed=2 minutes=5 noise=v2", true);
        let err = other_seed.resume(|_| Ok(())).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
    }

    #[test]
    fn crash_injection_fires_after_the_due_snapshot() {
        let root = scratch("crash");
        let mut session = Checkpointer::new(
            &root,
            Identity::new("trial", "seed=1"),
            Some(60_000),
            Some(120_000),
            false,
        )
        .unwrap();
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();
        let err = session.after_step(120_000, |w| w.put_u64(2)).unwrap_err();
        assert!(err.contains("crash injected"), "{err}");
        // The snapshot due at the crash instant was still written.
        let listed = CheckpointDir::open(&root).list().unwrap();
        assert_eq!(listed.last().unwrap().0, 120_000);
    }
}
