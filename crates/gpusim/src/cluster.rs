//! Shared state for a node's GPUs.
//!
//! Each device sits behind its own `RwLock`, and beside it an atomic copy
//! of [`DeviceState::is_available`]. [`GpuCluster::with_device_mut`] is the
//! only path that writes a device and it republishes the copy before it
//! lets the lock go — also when its closure unwinds — so
//! [`GpuCluster::is_device_available`] and
//! [`GpuCluster::available_devices`] answer "which GPUs are free" without
//! touching a device lock, and `DeviceState::is_available` stays the one
//! definition of the answer. A second write path would have to republish
//! too; `simtest`'s `fleet_availability_flags_honest` barrier check and
//! `tests/proptest_stack.rs` hold the copy to a locked recomputation.

use crate::arch::GpuArch;
use crate::clock::VirtualClock;
use crate::device::DeviceState;
use crate::error::GpuError;
use crate::host::HostSpec;
use crate::process::GpuProcess;
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Injectable `nvidia-smi` failure modes, shared by every clone of a
/// cluster handle. On a real node the SMI query is a subprocess that can
/// die (driver resets, Xid errors) or serve data that is already stale by
/// the time a scheduler acts on it; simulation scenarios reproduce both.
#[derive(Default)]
struct SmiFaults {
    /// Remaining injected query failures: each SMI query consumes one
    /// until the counter reaches zero, then queries succeed again.
    fail_queries: AtomicU32,
    /// When set, SMI emitters serve this frozen snapshot instead of the
    /// live device state — a stale-view fault.
    frozen: Mutex<Option<Vec<DeviceState>>>,
}

/// One device: its state behind its lock, and the lock-free copy of the
/// state's availability.
struct Device {
    state: RwLock<DeviceState>,
    /// `state.is_available()` as of the last write. Stored with `Release`
    /// while the write lock is still held, loaded with `Acquire`: whoever
    /// reads the flag after a write returned reads that write's answer.
    available: AtomicBool,
}

/// Exclusive access to one device that republishes its availability when
/// dropped — on return and on unwind alike, before the lock is released.
struct DeviceWrite<'a> {
    state: RwLockWriteGuard<'a, DeviceState>,
    available: &'a AtomicBool,
}

impl Drop for DeviceWrite<'_> {
    fn drop(&mut self) {
        self.available.store(self.state.is_available(), Ordering::Release);
    }
}

/// All GPUs of one compute node plus the shared virtual clock and host
/// model. Clones share state, so a cluster handle can be given to the
/// Galaxy runner, the GYAN allocator, and the monitoring script at once —
/// mirroring how all of those independently shell out to `nvidia-smi` on a
/// real node.
#[derive(Clone)]
pub struct GpuCluster {
    devices: Arc<Vec<Device>>,
    clock: VirtualClock,
    host: HostSpec,
    driver_version: &'static str,
    cuda_version: &'static str,
    next_pid: Arc<AtomicU32>,
    smi_faults: Arc<SmiFaults>,
}

impl GpuCluster {
    /// Build a node with `count` devices of the given architecture.
    pub fn node(arch: GpuArch, count: u32) -> Self {
        let devices = (0..count)
            .map(|i| {
                let state = DeviceState::new(arch.clone(), i);
                Device {
                    available: AtomicBool::new(state.is_available()),
                    state: RwLock::new(state),
                }
            })
            .collect();
        GpuCluster {
            devices: Arc::new(devices),
            clock: VirtualClock::new(),
            host: HostSpec::xeon_e5_2670(),
            driver_version: "455.45.01",
            cuda_version: "11.1",
            next_pid: Arc::new(AtomicU32::new(39_900)),
            smi_faults: Arc::new(SmiFaults::default()),
        }
    }

    /// [`GpuCluster::node`] sharing an existing virtual clock — fleet
    /// shards advance in lock-step on one fleet-wide timeline instead of
    /// each node owning a private clock.
    pub fn node_on_clock(arch: GpuArch, count: u32, clock: &VirtualClock) -> Self {
        let mut node = Self::node(arch, count);
        node.clock = clock.clone();
        node
    }

    /// The paper's evaluation node: one Tesla K80 board exposing two GK210
    /// dies as devices 0 and 1, driver 455.45.01 (as shown in Fig. 10).
    pub fn k80_node() -> Self {
        Self::node(GpuArch::tesla_k80(), 2)
    }

    /// A node with no GPUs — the CPU-only fallback scenario.
    pub fn cpu_only_node() -> Self {
        Self::node(GpuArch::tesla_k80(), 0)
    }

    /// Architecture of the node's devices (`None` on a GPU-less node).
    /// Nodes are homogeneous — heterogeneity lives between fleet shards,
    /// not within one node — so device 0 speaks for all.
    pub fn arch(&self) -> Option<GpuArch> {
        self.devices.first().map(|d| d.state.read().arch.clone())
    }

    /// Number of devices on the node.
    pub fn device_count(&self) -> u32 {
        self.devices.len() as u32
    }

    /// Shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Host CPU description.
    pub fn host(&self) -> &HostSpec {
        &self.host
    }

    /// Driver version string for smi output.
    pub fn driver_version(&self) -> &'static str {
        self.driver_version
    }

    /// CUDA runtime version string for smi output.
    pub fn cuda_version(&self) -> &'static str {
        self.cuda_version
    }

    /// Allocate a fresh host pid for a simulated tool process.
    pub fn spawn_pid(&self) -> u32 {
        self.next_pid.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Run `f` with shared access to device `minor`.
    pub fn with_device<T>(
        &self,
        minor: u32,
        f: impl FnOnce(&DeviceState) -> T,
    ) -> Result<T, GpuError> {
        let dev = self.devices.get(minor as usize).ok_or(GpuError::InvalidDevice(minor))?;
        Ok(f(&dev.state.read()))
    }

    /// Run `f` with exclusive access to device `minor` — the one write
    /// path to a device. The device's lock-free availability is
    /// republished from the state `f` leaves, whether `f` returns or
    /// unwinds.
    pub fn with_device_mut<T>(
        &self,
        minor: u32,
        f: impl FnOnce(&mut DeviceState) -> T,
    ) -> Result<T, GpuError> {
        let dev = self.devices.get(minor as usize).ok_or(GpuError::InvalidDevice(minor))?;
        let mut write = DeviceWrite { state: dev.state.write(), available: &dev.available };
        Ok(f(&mut write.state))
    }

    /// Known-bad twin of [`with_device_mut`](Self::with_device_mut) for
    /// checker tests: the write lands but the lock-free availability is
    /// put back to what it was — what a second write path that forgot to
    /// republish would leave. `simtest`'s `fleet_availability_flags_honest`
    /// must catch it; nothing else may call it.
    #[doc(hidden)]
    pub fn with_device_mut_unpublished<T>(
        &self,
        minor: u32,
        f: impl FnOnce(&mut DeviceState) -> T,
    ) -> Result<T, GpuError> {
        let stale = self.is_device_available(minor);
        let out = self.with_device_mut(minor, f)?;
        self.devices[minor as usize].available.store(stale, Ordering::Release);
        Ok(out)
    }

    /// Clone every device's live state — for a reader that wants to hold
    /// it without holding device locks (the ops plane's `/api/gpus`). SMI
    /// emitters walk [`for_each_smi_device`](Self::for_each_smi_device)
    /// instead.
    pub fn snapshot(&self) -> Vec<DeviceState> {
        self.devices.iter().map(|d| d.state.read().clone()).collect()
    }

    /// Attach a process to a device.
    pub fn attach_process(&self, minor: u32, proc: GpuProcess) -> Result<(), GpuError> {
        self.with_device_mut(minor, |d| d.attach_process(proc))?
    }

    /// Detach a process from a device.
    pub fn detach_process(&self, minor: u32, pid: u32) -> Result<GpuProcess, GpuError> {
        self.with_device_mut(minor, |d| d.detach_process(pid))?
    }

    /// Whether device `minor` has no resident process
    /// ([`DeviceState::is_available`]), read without its lock; `false`
    /// for a minor the node does not have.
    pub fn is_device_available(&self, minor: u32) -> bool {
        self.devices.get(minor as usize).is_some_and(|d| d.available.load(Ordering::Acquire))
    }

    /// Minor numbers of devices with no resident processes, ascending —
    /// the "available GPUs" list of the paper's Pseudocode 1. Takes no
    /// device lock.
    pub fn available_devices(&self) -> Vec<u32> {
        (0..self.device_count()).filter(|minor| self.is_device_available(*minor)).collect()
    }

    /// All minor numbers, ascending.
    pub fn all_devices(&self) -> Vec<u32> {
        (0..self.device_count()).collect()
    }

    /// Arm `n` SMI query failures: the next `n` fallible SMI queries
    /// ([`crate::smi::try_query_devices`], [`crate::smi::try_query_xml`])
    /// return an error instead of output, then queries succeed again.
    /// Shared across clones.
    pub fn inject_smi_query_failures(&self, n: u32) {
        self.smi_faults.fail_queries.fetch_add(n, Ordering::SeqCst);
    }

    /// Freeze the SMI view at the current device state: until
    /// [`thaw_smi_snapshot`](Self::thaw_smi_snapshot) is called, every SMI
    /// emitter serves this snapshot regardless of later attach/detach —
    /// the stale-observation fault the reservation layer must survive.
    pub fn freeze_smi_snapshot(&self) {
        *self.smi_faults.frozen.lock() = Some(self.snapshot());
    }

    /// Drop a frozen SMI snapshot so queries see live state again.
    pub fn thaw_smi_snapshot(&self) {
        *self.smi_faults.frozen.lock() = None;
    }

    /// Consume one armed SMI query failure; `true` if a failure fired.
    pub(crate) fn take_smi_query_failure(&self) -> bool {
        self.smi_faults
            .fail_queries
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Visit, by reference and in minor order, every device of the view
    /// SMI emitters serve: the frozen snapshot if a stale-view fault is
    /// armed, otherwise the live device state. Nothing is cloned; `f`
    /// must not freeze or thaw the view.
    pub fn for_each_smi_device(&self, mut f: impl FnMut(&DeviceState)) {
        match self.smi_faults.frozen.lock().as_deref() {
            Some(frozen) => frozen.iter().for_each(f),
            None => self.devices.iter().for_each(|d| f(&d.state.read())),
        }
    }
}

impl std::fmt::Debug for GpuCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuCluster")
            .field("devices", &self.device_count())
            .field("t", &self.clock.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k80_node_has_two_devices() {
        let c = GpuCluster::k80_node();
        assert_eq!(c.device_count(), 2);
        assert_eq!(c.available_devices(), vec![0, 1]);
        assert_eq!(c.all_devices(), vec![0, 1]);
    }

    #[test]
    fn attach_updates_availability() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(10, "bonito", 2700)).unwrap();
        assert_eq!(c.available_devices(), vec![0]);
        c.detach_process(1, 10).unwrap();
        assert_eq!(c.available_devices(), vec![0, 1]);
    }

    #[test]
    fn lock_free_availability_follows_every_write_even_one_that_unwinds() {
        let c = GpuCluster::k80_node();
        assert!(c.is_device_available(0) && c.is_device_available(1));
        assert!(!c.is_device_available(2), "a minor the node does not have");
        // A refused write republishes what it left: still available.
        let hog = GpuProcess::compute(1, "hog", 1 << 30);
        assert!(c.attach_process(0, hog).is_err());
        assert!(c.is_device_available(0));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.with_device_mut(1, |d| {
                d.attach_process(GpuProcess::compute(2, "x", 1)).unwrap();
                panic!("after the attach landed");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(c.available_devices(), vec![0]);
        assert_eq!(c.with_device(1, |d| d.is_available()), Ok(false));
    }

    #[test]
    fn the_unpublished_twin_leaves_the_flag_stale() {
        let c = GpuCluster::k80_node();
        let _ = c.with_device_mut_unpublished(0, |d| {
            d.attach_process(GpuProcess::compute(1, "x", 1)).unwrap();
        });
        assert_eq!(c.with_device(0, |d| d.is_available()), Ok(false));
        assert!(c.is_device_available(0), "the bug the fleet barrier check exists to catch");
        // The next honest write heals it.
        c.with_device_mut(0, |d| d.set_utilization(10.0, 0.0)).unwrap();
        assert!(!c.is_device_available(0));
    }

    #[test]
    fn invalid_device_errors() {
        let c = GpuCluster::k80_node();
        assert!(matches!(
            c.attach_process(5, GpuProcess::compute(1, "x", 1)),
            Err(GpuError::InvalidDevice(5))
        ));
        assert!(c.with_device(9, |_| ()).is_err());
    }

    #[test]
    fn clones_share_state() {
        let a = GpuCluster::k80_node();
        let b = a.clone();
        a.attach_process(0, GpuProcess::compute(1, "x", 1)).unwrap();
        assert_eq!(b.available_devices(), vec![1]);
        a.clock().advance(3.0);
        assert_eq!(b.clock().now(), 3.0);
    }

    #[test]
    fn pids_are_unique_and_increasing() {
        let c = GpuCluster::k80_node();
        let a = c.spawn_pid();
        let b = c.spawn_pid();
        assert!(b > a);
    }

    #[test]
    fn cpu_only_node_has_no_devices() {
        let c = GpuCluster::cpu_only_node();
        assert_eq!(c.device_count(), 0);
        assert!(c.available_devices().is_empty());
    }

    #[test]
    fn injected_query_failures_are_shared_and_consumed() {
        let a = GpuCluster::k80_node();
        let b = a.clone();
        a.inject_smi_query_failures(2);
        assert!(b.take_smi_query_failure());
        assert!(a.take_smi_query_failure());
        assert!(!a.take_smi_query_failure(), "budget exhausted");
    }

    #[test]
    fn frozen_snapshot_hides_later_attaches() {
        let c = GpuCluster::k80_node();
        c.freeze_smi_snapshot();
        c.attach_process(0, GpuProcess::compute(7, "late", 100)).unwrap();
        let processes_per_device = || {
            let mut counts = Vec::new();
            c.for_each_smi_device(|d| counts.push(d.processes().len()));
            counts
        };
        assert_eq!(processes_per_device(), [0, 0], "frozen view predates attach");
        c.thaw_smi_snapshot();
        assert_eq!(processes_per_device(), [1, 0]);
    }
}
