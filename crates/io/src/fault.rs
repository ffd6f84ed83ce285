//! IO fault injection and the atomic-durable write path it proves
//! correct.
//!
//! Every catalog save in the workspace funnels through
//! [`write_atomic`]: bytes go to a sibling temp file
//! (`<file>.tmp`), the temp is fsynced, renamed over the final path,
//! and the parent directory is fsynced. A crash at *any* byte boundary
//! therefore leaves either the prior file intact (rename not reached)
//! or the new file complete (rename is atomic on POSIX) — never a torn
//! final file. The only debris a crash can leave is an orphan temp,
//! which [`cleanup_orphan`] removes on the next open.
//!
//! From creating the temp until the rename, a writer holds an exclusive
//! [`File::lock`] on a second sibling, `<file>.lock`, so a reader in
//! another process tells a live save from a crashed one: it removes the
//! temp only when it can take that lock itself, and the operating
//! system drops the lock of a writer that died. The lock file is left
//! in place (it is empty, and deleting it would let two writers lock
//! two different files); it is the one sibling a catalog keeps.
//!
//! The guarantee is not taken on faith: [`FaultPlan`] is an injectable
//! seam that the crash-at-every-boundary battery
//! (`tests/crash_battery.rs` at the workspace root) drives over every
//! byte-prefix cut point of a save. Arm a plan with [`arm`] (or
//! [`arm_from_env`] for CLI/CI use via `MULE_FAULT_PLAN`) and the next
//! [`write_atomic`] on the calling thread hits the planned fault:
//!
//! * `fail-at:N` — the write syscall errors once `N` bytes of the
//!   payload have been accepted;
//! * `enospc:N` — same cut point, surfaced as an out-of-space error;
//! * `short-writes:K` — every write accepts at most `K` bytes (the
//!   save must still succeed byte-identically through its retry loop);
//! * `fsync-fail` — the data is written but the fsync of the temp file
//!   errors;
//! * `crash-after:N` — the process "dies" after an `N`-byte prefix:
//!   the error is returned **and the temp file is left behind**,
//!   exactly as a real crash would, so the orphan-cleanup path is
//!   exercised too.
//!
//! Plans are thread-local and one-shot per [`arm`]; production code
//! never arms one, so the seam compiles to a thread-local `None` check
//! per chunk.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One planned IO fault, applied to the next [`write_atomic`] call on
/// the thread that [`arm`]ed it. Byte counts refer to the payload
/// prefix accepted before the fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// The write syscall fails after exactly `N` payload bytes have
    /// been accepted (generic I/O error).
    FailAtByte(u64),
    /// Like [`FaultPlan::FailAtByte`] but surfaced as "no space left
    /// on device" — the classic full-disk mid-save.
    Enospc(u64),
    /// Every write call accepts at most this many bytes (never fails).
    /// A correct writer loops and the save succeeds byte-identically.
    ShortWrites(usize),
    /// Writes succeed but the fsync of the temp file fails.
    FsyncFail,
    /// The process "crashes" after an `N`-byte prefix reached the temp
    /// file: an error is returned, and — unlike every other plan — the
    /// temp file is deliberately **not** cleaned up, simulating a real
    /// power cut so open-time orphan cleanup is exercised. `N` past
    /// the payload end models a crash between the last write and the
    /// rename.
    CrashAfterPrefix(u64),
}

impl FaultPlan {
    /// Parse a plan from its CLI/CI spec string (the `MULE_FAULT_PLAN`
    /// format): `fail-at:N`, `enospc:N`, `short-writes:K`,
    /// `fsync-fail`, `crash-after:N`.
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        let spec = spec.trim();
        if spec == "fsync-fail" {
            return Some(FaultPlan::FsyncFail);
        }
        let (kind, num) = spec.split_once(':')?;
        let n: u64 = num.trim().parse().ok()?;
        match kind.trim() {
            "fail-at" => Some(FaultPlan::FailAtByte(n)),
            "enospc" => Some(FaultPlan::Enospc(n)),
            "short-writes" if n > 0 => Some(FaultPlan::ShortWrites(n as usize)),
            "crash-after" => Some(FaultPlan::CrashAfterPrefix(n)),
            _ => None,
        }
    }
}

struct Armed {
    plan: FaultPlan,
    /// Payload bytes accepted so far under this plan.
    written: u64,
}

thread_local! {
    static ARMED: RefCell<Option<Armed>> = const { RefCell::new(None) };
}

/// Process-wide count of injected faults that actually fired — a
/// telemetry hook for batteries and the chaos smoke ("did the plan
/// trigger, or did the save dodge it?").
static FAULTS_FIRED: AtomicU64 = AtomicU64::new(0);

/// Arm `plan` for the next [`write_atomic`] on this thread, replacing
/// any previously armed plan. The plan stays armed (with its running
/// byte count) until [`disarm`] — a battery arming `crash-after:N`
/// then saving twice will see the second save fail at byte 0.
pub fn arm(plan: FaultPlan) {
    ARMED.with(|a| *a.borrow_mut() = Some(Armed { plan, written: 0 }));
}

/// Disarm this thread's fault plan. Returns the plan that was armed,
/// if any. Always call this after a battery step: plans are
/// deliberately sticky so a single save can hit multiple faults.
pub fn disarm() -> Option<FaultPlan> {
    ARMED.with(|a| a.borrow_mut().take().map(|s| s.plan))
}

/// True when a plan is armed on this thread.
pub fn armed() -> bool {
    ARMED.with(|a| a.borrow().is_some())
}

/// Arm from an environment variable holding a [`FaultPlan::parse`]
/// spec (the CLI uses `MULE_FAULT_PLAN`). Returns the armed plan, or
/// `None` when the variable is unset or unparsable — a bad spec is
/// ignored rather than fatal so a stale variable cannot brick the
/// tool.
pub fn arm_from_env(var: &str) -> Option<FaultPlan> {
    let spec = std::env::var(var).ok()?;
    let plan = FaultPlan::parse(&spec)?;
    arm(plan);
    Some(plan)
}

/// Number of injected faults that have fired process-wide.
pub fn faults_fired() -> u64 {
    FAULTS_FIRED.load(Ordering::Relaxed)
}

fn fired() {
    FAULTS_FIRED.fetch_add(1, Ordering::Relaxed);
}

/// How many of `want` bytes the armed plan lets through, or the
/// injected error. Advances the plan's byte count by the allowance.
fn check_write(want: usize) -> io::Result<usize> {
    ARMED.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(armed) = slot.as_mut() else {
            return Ok(want);
        };
        let allow = match armed.plan {
            FaultPlan::ShortWrites(k) => want.min(k),
            FaultPlan::FailAtByte(n) | FaultPlan::Enospc(n) | FaultPlan::CrashAfterPrefix(n) => {
                let left = n.saturating_sub(armed.written);
                if left == 0 {
                    fired();
                    return Err(injected_error(armed.plan, armed.written));
                }
                want.min(left.min(usize::MAX as u64) as usize)
            }
            FaultPlan::FsyncFail => want,
        };
        armed.written += allow as u64;
        Ok(allow)
    })
}

/// The armed plan's verdict on fsyncing the temp file.
fn check_fsync() -> io::Result<()> {
    ARMED.with(|a| {
        let slot = a.borrow();
        match slot.as_ref().map(|s| (s.plan, s.written)) {
            Some((plan @ FaultPlan::FsyncFail, w))
            | Some((plan @ FaultPlan::CrashAfterPrefix(_), w)) => {
                // crash-after with a cut past the payload end: the
                // write loop never errored, so the "crash" lands here,
                // between the last write and the fsync/rename.
                fired();
                Err(injected_error(plan, w))
            }
            _ => Ok(()),
        }
    })
}

/// True when the armed plan simulates a process death (temp file must
/// be left behind, as a real crash would).
fn crash_mode() -> bool {
    ARMED.with(|a| {
        matches!(
            a.borrow().as_ref().map(|s| s.plan),
            Some(FaultPlan::CrashAfterPrefix(_))
        )
    })
}

fn injected_error(plan: FaultPlan, written: u64) -> io::Error {
    match plan {
        FaultPlan::FailAtByte(n) => io::Error::other(format!("injected write failure at byte {n}")),
        FaultPlan::Enospc(n) => io::Error::other(format!(
            "injected ENOSPC: no space left on device after {n} bytes"
        )),
        FaultPlan::FsyncFail => io::Error::other("injected fsync failure on temp file"),
        FaultPlan::CrashAfterPrefix(_) => io::Error::other(format!(
            "injected crash: process died after a {written}-byte prefix reached the temp file"
        )),
        FaultPlan::ShortWrites(_) => unreachable!("short writes never error"),
    }
}

/// The sibling temp path a save writes through: `<file>.tmp`, in the
/// same directory so the final rename cannot cross filesystems.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The sibling a save holds an exclusive lock on while its temp file
/// exists: `<file>.lock`.
pub fn lock_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

/// Remove the orphan temp a crashed save may have left next to
/// `path`, best-effort. Readers call this before opening so debris
/// from a prior crash never accumulates and can never be mistaken for
/// a catalog. A temp whose writer still holds `<file>.lock` is a save
/// in flight and is left alone; a temp with no lock file at all was
/// not written under the lock, so no live writer owns it.
pub fn cleanup_orphan(path: &Path) {
    let tmp = tmp_path(path);
    if !tmp.exists() {
        return;
    }
    let unowned = match File::open(lock_path(path)) {
        Ok(lock) => lock.try_lock().is_ok(),
        Err(_) => true,
    };
    if unowned {
        let _ = std::fs::remove_file(tmp);
    }
}

/// Write `bytes` to `path` atomically and durably: temp file in the
/// same directory → fsync → rename over `path` → fsync the parent
/// directory. On any error the final path is untouched (prior
/// contents, if any, remain intact) and the temp file is removed —
/// except under a [`FaultPlan::CrashAfterPrefix`] simulation, which
/// leaves the orphan exactly as a real crash would.
///
/// An exclusive lock on [`lock_path`] is held from before the temp is
/// created until after the rename, so [`cleanup_orphan`] in another
/// process never deletes the temp of this save; concurrent saves to
/// one path wait for each other.
///
/// The payload is fed through the fault seam in bounded chunks so an
/// armed byte-count plan fires at its exact cut point regardless of
/// how the OS batches writes.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let lock = File::options()
        .create(true)
        .truncate(false)
        .write(true)
        .open(lock_path(path))?;
    // Released when `lock` drops, after the rename (or the failure).
    lock.lock()?;
    let tmp = tmp_path(path);
    match write_tmp(&tmp, bytes) {
        Ok(()) => {}
        Err(e) => {
            if !crash_mode() {
                let _ = std::fs::remove_file(&tmp);
            }
            return Err(e);
        }
    }
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself. Directory fsync is best-effort:
    // not every platform/filesystem permits opening a directory for
    // sync, and at this point the rename has already committed a
    // complete file — failing the save now would report an error for a
    // state that is in fact fully valid.
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

const CHUNK: usize = 4096;

fn write_tmp(tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(tmp)?;
    let mut off = 0usize;
    while off < bytes.len() {
        let want = (bytes.len() - off).min(CHUNK);
        let allow = check_write(want)?;
        f.write_all(&bytes[off..off + allow])?;
        off += allow;
    }
    check_fsync()?;
    f.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ugq-fault-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn plan_spec_round_trip() {
        assert_eq!(
            FaultPlan::parse("fail-at:7"),
            Some(FaultPlan::FailAtByte(7))
        );
        assert_eq!(FaultPlan::parse("enospc:0"), Some(FaultPlan::Enospc(0)));
        assert_eq!(
            FaultPlan::parse(" short-writes:3 "),
            Some(FaultPlan::ShortWrites(3))
        );
        assert_eq!(FaultPlan::parse("fsync-fail"), Some(FaultPlan::FsyncFail));
        assert_eq!(
            FaultPlan::parse("crash-after:120"),
            Some(FaultPlan::CrashAfterPrefix(120))
        );
        for bad in ["", "fail-at", "fail-at:x", "short-writes:0", "nope:1"] {
            assert_eq!(FaultPlan::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn unarmed_write_is_plain_and_atomic() {
        let d = tdir("plain");
        let p = d.join("a.bin");
        write_atomic(&p, b"hello").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"hello");
        assert!(!tmp_path(&p).exists());
        write_atomic(&p, b"replaced").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"replaced");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn fail_at_byte_preserves_prior_and_cleans_tmp() {
        let d = tdir("failat");
        let p = d.join("a.bin");
        write_atomic(&p, b"old contents").unwrap();
        arm(FaultPlan::FailAtByte(3));
        let err = write_atomic(&p, b"new contents that will not land").unwrap_err();
        disarm();
        assert!(err.to_string().contains("injected write failure"));
        assert_eq!(std::fs::read(&p).unwrap(), b"old contents");
        assert!(
            !tmp_path(&p).exists(),
            "non-crash faults must clean the temp"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn crash_leaves_orphan_and_cleanup_removes_it() {
        let d = tdir("crash");
        let p = d.join("a.bin");
        write_atomic(&p, b"old contents").unwrap();
        arm(FaultPlan::CrashAfterPrefix(4));
        let err = write_atomic(&p, b"new contents").unwrap_err();
        disarm();
        assert!(err.to_string().contains("injected crash"));
        assert_eq!(std::fs::read(&p).unwrap(), b"old contents");
        let orphan = tmp_path(&p);
        assert!(
            orphan.exists(),
            "crash simulation must leave the temp behind"
        );
        assert_eq!(std::fs::read(&orphan).unwrap(), b"new ");
        cleanup_orphan(&p);
        assert!(!orphan.exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn cleanup_spares_a_locked_temp_and_removes_a_crashed_one() {
        let d = tdir("locked");
        let p = d.join("a.bin");
        write_atomic(&p, b"old").unwrap();
        // A save in flight: its writer holds the lock while the temp
        // exists. An open in the meantime must leave the temp alone.
        let held = File::options().write(true).open(lock_path(&p)).unwrap();
        held.lock().unwrap();
        std::fs::write(tmp_path(&p), b"live").unwrap();
        cleanup_orphan(&p);
        assert_eq!(std::fs::read(tmp_path(&p)).unwrap(), b"live");
        // The writer dies: the lock goes with it, and the temp is now
        // an orphan the next open removes.
        drop(held);
        cleanup_orphan(&p);
        assert!(!tmp_path(&p).exists());
        // A crashed save through the real path leaves its orphan
        // unlocked, so it is removed too; the catalog is untouched.
        arm(FaultPlan::CrashAfterPrefix(2));
        write_atomic(&p, b"new").unwrap_err();
        disarm();
        assert!(tmp_path(&p).exists());
        cleanup_orphan(&p);
        assert!(!tmp_path(&p).exists());
        assert_eq!(std::fs::read(&p).unwrap(), b"old");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn crash_past_payload_end_fires_before_rename() {
        let d = tdir("crashend");
        let p = d.join("a.bin");
        write_atomic(&p, b"old").unwrap();
        arm(FaultPlan::CrashAfterPrefix(u64::MAX));
        let err = write_atomic(&p, b"new").unwrap_err();
        disarm();
        assert!(err.to_string().contains("injected crash"));
        assert_eq!(std::fs::read(&p).unwrap(), b"old");
        assert_eq!(std::fs::read(tmp_path(&p)).unwrap(), b"new");
        cleanup_orphan(&p);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn short_writes_still_complete_byte_identically() {
        let d = tdir("short");
        let p = d.join("a.bin");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        arm(FaultPlan::ShortWrites(7));
        write_atomic(&p, &payload).unwrap();
        disarm();
        assert_eq!(std::fs::read(&p).unwrap(), payload);
        assert!(!tmp_path(&p).exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn fsync_failure_preserves_prior() {
        let d = tdir("fsync");
        let p = d.join("a.bin");
        write_atomic(&p, b"old").unwrap();
        arm(FaultPlan::FsyncFail);
        let err = write_atomic(&p, b"new").unwrap_err();
        disarm();
        assert!(err.to_string().contains("injected fsync failure"));
        assert_eq!(std::fs::read(&p).unwrap(), b"old");
        assert!(!tmp_path(&p).exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn enospc_at_zero_accepts_nothing() {
        let d = tdir("enospc");
        let p = d.join("a.bin");
        arm(FaultPlan::Enospc(0));
        let err = write_atomic(&p, b"anything").unwrap_err();
        disarm();
        assert!(err.to_string().contains("no space left"));
        assert!(!p.exists());
        assert!(!tmp_path(&p).exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn arm_from_env_parses_and_arms() {
        // Env mutation is process-global; use a variable name unique to
        // this test to stay independent of parallel tests.
        let var = "UGQ_FAULT_TEST_PLAN_UNIT";
        std::env::set_var(var, "fail-at:9");
        assert_eq!(arm_from_env(var), Some(FaultPlan::FailAtByte(9)));
        assert!(armed());
        assert_eq!(disarm(), Some(FaultPlan::FailAtByte(9)));
        std::env::set_var(var, "garbage");
        assert_eq!(arm_from_env(var), None);
        assert!(!armed());
        std::env::remove_var(var);
    }
}
