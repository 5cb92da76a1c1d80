//! Checkpoint flags and inspection for the long-running `bzctl`
//! commands.
//!
//! Every resumable command (`trial`, `endurance`, `chaos`, single-run
//! `mpc`) accepts the same flag family; `sweep` and `bench throughput`
//! accept the subset that applies to them:
//!
//! * `--checkpoint-dir DIR` — where snapshots live (required by the rest)
//! * `--checkpoint-every SECS` — simulated seconds between snapshots
//! * `--resume` — restore from the newest *good* snapshot in the dir
//! * `--crash-at SECS` — deterministic crash injection for recovery tests
//!
//! The module parses the flags into a [`bz_state::Checkpointer`], which
//! owns the writes, the resume scan and the identity check, and renders
//! `bzctl checkpoint inspect`. See `docs/CHECKPOINTS.md` for the on-disk
//! format and guarantees.

use std::fs;
use std::path::PathBuf;

use crate::args::{ArgError, Args};
use bz_core::session::Run;
use bz_state::checkpointer::noise_token;
use bz_state::{Checkpoint, CheckpointDir, Checkpointer, Identity};

/// The flags this module parses; commands splice them into their
/// `expect_only` lists.
pub const FLAGS: &[&str] = &["checkpoint-dir", "checkpoint-every", "resume", "crash-at"];

/// Parsed checkpoint flags, before binding to a specific command run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    /// Snapshot directory (`--checkpoint-dir`).
    pub dir: Option<PathBuf>,
    /// Simulated seconds between snapshots (`--checkpoint-every`).
    pub every_s: Option<u64>,
    /// Restore from the newest good snapshot (`--resume`).
    pub resume: bool,
    /// Crash (exit nonzero) once simulated time reaches this
    /// (`--crash-at`), *after* any snapshot due at that instant.
    pub crash_at_s: Option<u64>,
}

impl CheckpointOpts {
    /// Extracts and validates the checkpoint flag family.
    ///
    /// # Errors
    ///
    /// Rejects malformed values, a zero cadence, and any of the family
    /// used without `--checkpoint-dir`.
    pub fn from_args(args: &Args) -> Result<Self, ArgError> {
        let dir = args.value("checkpoint-dir")?.map(PathBuf::from);
        let every_s = match args.get_or("checkpoint-every", 0u64)? {
            0 if args.flag("checkpoint-every") => {
                return Err(ArgError::new(
                    "--checkpoint-every must be a positive number of seconds",
                ));
            }
            0 => None,
            s => Some(s),
        };
        let crash_at_s = match args.get_or("crash-at", 0u64)? {
            0 if args.flag("crash-at") => {
                return Err(ArgError::new(
                    "--crash-at must be a positive number of seconds",
                ));
            }
            0 => None,
            s => Some(s),
        };
        let resume = args.flag("resume");
        let opts = Self {
            dir,
            every_s,
            resume,
            crash_at_s,
        };
        if opts.dir.is_none()
            && (opts.every_s.is_some() || opts.resume || opts.crash_at_s.is_some())
        {
            return Err(ArgError::new(
                "--checkpoint-every, --resume, and --crash-at need --checkpoint-dir DIR",
            ));
        }
        Ok(opts)
    }

    /// True when any checkpointing behavior was requested.
    #[must_use]
    pub fn active(&self) -> bool {
        self.dir.is_some()
    }

    /// Binds the options to one command run. `kind` tags the command
    /// ("trial", "chaos", ...); `identity` is the canonical description
    /// of everything that shapes the simulation (seed, duration,
    /// scenario) — its CRC is stored in every snapshot and checked on
    /// resume, so a checkpoint can never be silently restored into a
    /// different run.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint directory cannot be created.
    pub fn session(&self, kind: &str, identity: &str) -> Result<Option<Checkpointer>, ArgError> {
        let Some(root) = &self.dir else {
            return Ok(None);
        };
        Ok(Some(Checkpointer::new(
            root,
            Identity::new(kind, identity),
            self.every_s.map(|s| s * 1_000),
            self.crash_at_s.map(|s| s * 1_000),
            self.resume,
        )?))
    }
}

/// Drives `run` to its end, restoring from and snapshotting into
/// `session` when checkpointing is on. Resume notes go to `out`.
///
/// # Errors
///
/// Fails on a refused or unreadable snapshot, a failed write, or the
/// injected crash.
pub fn drive(
    run: &mut dyn Run,
    mut session: Option<Checkpointer>,
    out: &mut String,
) -> Result<(), ArgError> {
    if let Some(session) = &mut session {
        let resumed = session.resume(|r| run.load_state(r))?;
        for note in &resumed.notes {
            *out += &format!("{note}\n");
        }
    }
    while !run.is_done() {
        run.step_minute();
        if let Some(session) = &mut session {
            session.after_step(run.now_ms(), |w| run.save_state(w))?;
        }
    }
    Ok(())
}

/// Renders `bzctl checkpoint inspect` for one file or a directory.
///
/// # Errors
///
/// Fails when the path does not exist or a single file fails to decode
/// (directories report per-file status instead of failing).
pub fn inspect(path: &str) -> Result<String, ArgError> {
    let path = PathBuf::from(path);
    if path.is_dir() {
        let dir = CheckpointDir::open(&path);
        let mut files: Vec<PathBuf> = dir
            .list()
            .map_err(|e| ArgError::new(format!("cannot list {}: {e}", path.display())))?
            .into_iter()
            .map(|(_, file)| file)
            .collect();
        // The serve layer's final checkpoints are named by tenant
        // (`tenant-<name>.bzck`) rather than by tick; fold in every
        // other .bzck file so one inspect covers both layouts.
        let mut extra: Vec<PathBuf> = fs::read_dir(&path)
            .map_err(|e| ArgError::new(format!("cannot list {}: {e}", path.display())))?
            .filter_map(|entry| {
                let file = entry.ok()?.path();
                let is_bzck = file.extension().is_some_and(|ext| ext == "bzck");
                (is_bzck && CheckpointDir::tick_of(&file).is_none()).then_some(file)
            })
            .collect();
        extra.sort();
        files.extend(extra);
        if files.is_empty() {
            return Ok(format!("{}: no checkpoints\n", path.display()));
        }
        let mut out = String::new();
        for file in files {
            match Checkpoint::read(&file) {
                Ok(checkpoint) => out.push_str(&format!(
                    "{}: ok  {}\n",
                    file.display(),
                    describe(&checkpoint)
                )),
                Err(error) => out.push_str(&format!("{}: BAD  {error}\n", file.display())),
            }
        }
        return Ok(out);
    }
    let checkpoint =
        Checkpoint::read(&path).map_err(|e| ArgError::new(format!("{}: {e}", path.display())))?;
    Ok(format!(
        "{}: ok  {}\n",
        path.display(),
        describe(&checkpoint)
    ))
}

fn describe(checkpoint: &Checkpoint) -> String {
    format!(
        "kind={} t={}s noise={} config_crc={:016x} label='{}' payload={} bytes",
        checkpoint.meta.kind,
        checkpoint.meta.tick_ms / 1_000,
        noise_token(&checkpoint.meta.label).unwrap_or("unrecorded"),
        checkpoint.meta.config_crc,
        checkpoint.meta.label,
        checkpoint.payload.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned())).unwrap()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bz-cli-ckpt-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn flags_require_the_directory() {
        for orphan in [
            &["--checkpoint-every", "60"][..],
            &["--resume"][..],
            &["--crash-at", "120"][..],
        ] {
            let err = CheckpointOpts::from_args(&parse(orphan)).unwrap_err();
            assert!(
                err.to_string().contains("--checkpoint-dir"),
                "unexpected error: {err}"
            );
        }
        let opts = CheckpointOpts::from_args(&parse(&[])).unwrap();
        assert!(!opts.active());
    }

    #[test]
    fn zero_cadence_is_rejected() {
        let args = parse(&["--checkpoint-dir", "/tmp/x", "--checkpoint-every", "0"]);
        assert!(CheckpointOpts::from_args(&args).is_err());
    }

    #[test]
    fn inspect_reports_the_noise_kernel_version() {
        let root = scratch("inspect-noise");
        let opts = CheckpointOpts {
            dir: Some(root.clone()),
            every_s: Some(60),
            ..CheckpointOpts::default()
        };
        let mut session = opts
            .session("trial", "trial seed=9 minutes=5 noise=v2")
            .unwrap()
            .unwrap();
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();
        let report = inspect(root.to_str().unwrap()).unwrap();
        assert!(report.contains("noise=v2"), "{report}");

        let legacy_root = scratch("inspect-legacy");
        let mut legacy = CheckpointOpts {
            dir: Some(legacy_root.clone()),
            every_s: Some(60),
            ..CheckpointOpts::default()
        }
        .session("trial", "seed=9")
        .unwrap()
        .unwrap();
        legacy.after_step(60_000, |w| w.put_u64(1)).unwrap();
        let report = inspect(
            CheckpointDir::open(&legacy_root)
                .file_for_tick(60_000)
                .to_str()
                .unwrap(),
        )
        .unwrap();
        assert!(report.contains("noise=unrecorded"), "{report}");
    }

    #[test]
    fn inspect_renders_good_and_bad_files() {
        let root = scratch("inspect");
        let opts = CheckpointOpts {
            dir: Some(root.clone()),
            every_s: Some(60),
            ..CheckpointOpts::default()
        };
        let mut session = opts.session("trial", "seed=9").unwrap().unwrap();
        session.after_step(60_000, |w| w.put_u64(1)).unwrap();
        session.after_step(120_000, |w| w.put_u64(2)).unwrap();
        let newest = CheckpointDir::open(&root).file_for_tick(120_000);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 4]).unwrap();

        let report = inspect(root.to_str().unwrap()).unwrap();
        assert!(report.contains("ok  kind=trial"), "{report}");
        assert!(report.contains("BAD"), "{report}");
        let single = inspect(
            CheckpointDir::open(&root)
                .file_for_tick(60_000)
                .to_str()
                .unwrap(),
        )
        .unwrap();
        assert!(single.contains("t=60s"), "{single}");
        assert!(inspect("/nonexistent/path.bzck").is_err());
    }

    #[test]
    fn inspect_lists_tenant_named_serve_checkpoints() {
        let root = scratch("inspect-serve");
        std::fs::create_dir_all(&root).unwrap();
        let checkpoint = Identity::new("serve", "serve trial-s0007 minutes=5 noise=v2")
            .envelope(120_000, vec![1, 2, 3]);
        checkpoint
            .write_atomic(&root.join("tenant-b-001.bzck"))
            .unwrap();
        let report = inspect(root.to_str().unwrap()).unwrap();
        assert!(report.contains("tenant-b-001.bzck"), "{report}");
        assert!(report.contains("kind=serve"), "{report}");
        assert!(report.contains("noise=v2"), "{report}");
    }
}
