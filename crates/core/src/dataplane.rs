//! The device-resident data plane: a content-addressed object store
//! with per-device memory residency.
//!
//! The paper's out-of-band path (§4.1) only avoids *serialization*;
//! every invocation still pays the host→device copy, even when the same
//! bytes (GA populations, model weights, reference matrices) were
//! uploaded moments ago by the previous warm invocation. The data plane
//! closes that gap:
//!
//! * Clients [`put`](crate::KaasClient::put) a [`Value`] once and get
//!   back an [`ObjectRef`] — a content address (hash + length). Repeat
//!   invocations pass the 24-byte ref
//!   ([`InvokeBuilder::arg_ref`](crate::InvokeBuilder::arg_ref))
//!   instead of re-shipping the payload.
//! * [`seal`](crate::KaasClient::seal)ing a ref declares the object
//!   immutable, which makes device-side caching safe: the dispatcher
//!   tracks which devices already hold a sealed object (a
//!   [`MemoryManager`] per device) and serves cache hits with **zero
//!   `copy_in` cost**.
//! * Under memory pressure the device manager evicts least-recently-used
//!   objects; [`pin`](crate::KaasClient::pin)ned objects and operands of
//!   in-flight invocations are never victims. When nothing can be
//!   freed, the invocation fails with
//!   [`InvokeError::DeviceOom`](crate::InvokeError::DeviceOom).
//! * Device memory contents die with the runner process that owns them:
//!   runner crashes, device flaps, and idle reaps invalidate the
//!   device's residency, so a post-fault retry re-uploads instead of
//!   reading a stale device pointer.
//!
//! The store itself is host-side and unbounded (host RAM is the paper's
//! shared-memory region); only *device* residency is capacity-managed.
//!
//! On the wire the data plane reuses the reserved control-kernel idiom
//! (like [`DISCOVERY_KERNEL`](crate::DISCOVERY_KERNEL)): `put`/`get`/
//! `seal`/`pin` travel as invocations of `_kaas/data/*` kernels, with
//! payloads in-band or through shared memory (the fast path).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use kaas_accel::{Device, DeviceId, MemoryManager, OomError};
use kaas_kernels::{Value, WordHasher};

/// Prefix of the reserved data-plane control kernels.
pub const DATA_KERNEL_PREFIX: &str = "_kaas/data/";
/// Control kernel storing a payload in the server's object store.
pub const DATA_PUT_KERNEL: &str = "_kaas/data/put";
/// Control kernel fetching a stored object back to the client.
pub const DATA_GET_KERNEL: &str = "_kaas/data/get";
/// Control kernel marking a stored object immutable (cacheable).
pub const DATA_SEAL_KERNEL: &str = "_kaas/data/seal";
/// Control kernel protecting a stored object from device eviction.
pub const DATA_PIN_KERNEL: &str = "_kaas/data/pin";

/// On-wire size of an [`ObjectRef`]: hash + length + framing tag.
pub const OBJECT_REF_WIRE_BYTES: u64 = 24;

const REF_TAG: &str = "kaas.ref";

/// A content address into the server's object store: the
/// [`content_hash`] of the object's canonical encoding plus its logical
/// length. Obtained from [`KaasClient::put`](crate::KaasClient::put);
/// passed to invocations with
/// [`InvokeBuilder::arg_ref`](crate::InvokeBuilder::arg_ref).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef {
    /// Content hash ([`content_hash`] of the canonical [`Value`]
    /// encoding).
    pub hash: u64,
    /// Logical payload size in bytes (the object's wire size).
    pub bytes: u64,
}

impl std::fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{:016x}/{}B", self.hash, self.bytes)
    }
}

impl ObjectRef {
    /// Encodes the ref as a [`Value`] for transport through the existing
    /// request/response payload channel.
    pub fn to_value(self) -> Value {
        Value::List(vec![
            Value::Text(REF_TAG.to_owned()),
            Value::U64(self.hash),
            Value::U64(self.bytes),
        ])
    }

    /// Decodes a ref previously encoded with
    /// [`to_value`](ObjectRef::to_value).
    pub fn from_value(v: &Value) -> Option<ObjectRef> {
        match v.payload() {
            Value::List(items) => match items.as_slice() {
                [Value::Text(tag), Value::U64(hash), Value::U64(bytes)] if tag == REF_TAG => {
                    Some(ObjectRef {
                        hash: *hash,
                        bytes: *bytes,
                    })
                }
                _ => None,
            },
            _ => None,
        }
    }
}

/// The content address of `value`: a [`WordHasher`] over its canonical
/// encoding. Every variant writes a type tag word, then its shape and
/// the length of each variable-length field, then the payload: floats
/// as their bit patterns, bytes as little-endian words. The framing
/// makes the encoding injective, so distinct values (including
/// malformed ones whose data overruns their dimensions) only meet by a
/// hash collision. Deterministic across runs (no hasher randomization)
/// so identical simulations produce identical refs.
pub fn content_hash(value: &Value) -> u64 {
    let mut h = WordHasher::new();
    hash_value(value, &mut h);
    h.finish()
}

fn hash_value(value: &Value, h: &mut WordHasher) {
    match value {
        Value::Unit => h.write_u64(0),
        Value::U64(n) => {
            h.write_u64(1);
            h.write_u64(*n);
        }
        Value::F64(x) => {
            h.write_u64(2);
            h.write_u64(x.to_bits());
        }
        Value::F64s(v) => {
            h.write_u64(3);
            h.write_u64(v.len() as u64);
            h.write_f64s(v);
        }
        Value::Bytes(b) => {
            h.write_u64(4);
            h.write_u64(b.len() as u64);
            h.write_bytes(b);
        }
        Value::Matrix { data, rows, cols } => {
            h.write_u64(5);
            h.write_u64(*rows as u64);
            h.write_u64(*cols as u64);
            h.write_u64(data.len() as u64);
            h.write_f64s(data);
        }
        Value::Image {
            pixels,
            width,
            height,
            channels,
        } => {
            h.write_u64(6);
            h.write_u64(*width as u64);
            h.write_u64(*height as u64);
            h.write_u64(*channels as u64);
            h.write_u64(pixels.len() as u64);
            h.write_bytes(pixels);
        }
        Value::Text(s) => {
            h.write_u64(7);
            h.write_u64(s.len() as u64);
            h.write_bytes(s.as_bytes());
        }
        Value::List(items) => {
            h.write_u64(8);
            h.write_u64(items.len() as u64);
            for item in items {
                hash_value(item, h);
            }
        }
        Value::Sized { bytes, body } => {
            // The declared size is part of the content: two envelopes
            // with the same body but different logical sizes are
            // different objects (they cost differently to copy).
            h.write_u64(9);
            h.write_u64(*bytes);
            hash_value(body, h);
        }
    }
}

#[derive(Debug)]
struct Stored {
    value: Value,
    bytes: u64,
    sealed: Cell<bool>,
    /// Pin count: client pins and flow-lifetime pins both increment it;
    /// the object is protected from device eviction (and from
    /// [`ObjectStore::remove`]) while it is non-zero. Client pins are
    /// sticky (never decremented); flow pins are released when the flow
    /// completes.
    pins: Cell<u32>,
}

/// The host-side content-addressed object store: deduplicated by
/// content hash, unbounded (host RAM), with seal/pin markers consulted
/// by the device-residency layer.
#[derive(Debug, Default)]
pub struct ObjectStore {
    objects: RefCell<BTreeMap<u64, Stored>>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value`, returning its content address. Identical content
    /// deduplicates to the same ref.
    pub fn put(&self, value: Value) -> ObjectRef {
        self.put_tracked(value).0
    }

    /// Stores `value` and reports whether this call **created** the
    /// entry (`false` = deduplicated against existing content). Flow
    /// executors use the flag to garbage-collect only the intermediates
    /// they introduced.
    pub fn put_tracked(&self, value: Value) -> (ObjectRef, bool) {
        let hash = content_hash(&value);
        let bytes = value.wire_bytes();
        let mut objects = self.objects.borrow_mut();
        let created = !objects.contains_key(&hash);
        objects.entry(hash).or_insert(Stored {
            value,
            bytes,
            sealed: Cell::new(false),
            pins: Cell::new(0),
        });
        (ObjectRef { hash, bytes }, created)
    }

    /// The stored object for `r`, if present (and the ref's length
    /// matches — a mismatched length means a forged or stale ref).
    pub fn get(&self, r: &ObjectRef) -> Option<Value> {
        self.objects
            .borrow()
            .get(&r.hash)
            .filter(|s| s.bytes == r.bytes)
            .map(|s| s.value.clone())
    }

    /// Whether [`get`](ObjectStore::get) would find `r`, without
    /// copying the object: a mismatched length is still a miss.
    pub fn contains(&self, r: &ObjectRef) -> bool {
        self.objects
            .borrow()
            .get(&r.hash)
            .is_some_and(|s| s.bytes == r.bytes)
    }

    /// Marks the object immutable, making it eligible for device-side
    /// caching. Returns whether the object exists.
    pub fn seal(&self, hash: u64) -> bool {
        match self.objects.borrow().get(&hash) {
            Some(s) => {
                s.sealed.set(true);
                true
            }
            None => false,
        }
    }

    /// Marks the object pinned: device residency of this object is
    /// never evicted. Client pins are sticky — there is no public
    /// unpin. Returns whether the object exists.
    pub fn pin(&self, hash: u64) -> bool {
        match self.objects.borrow().get(&hash) {
            Some(s) => {
                s.pins.set(s.pins.get().saturating_add(1));
                true
            }
            None => false,
        }
    }

    /// Takes a flow-lifetime pin on the object (released with
    /// [`flow_unpin`](ObjectStore::flow_unpin) when the flow
    /// completes). Returns whether the object exists.
    pub fn flow_pin(&self, hash: u64) -> bool {
        self.pin(hash)
    }

    /// Releases one flow-lifetime pin, returning the remaining pin
    /// count (0 also when the object does not exist).
    pub fn flow_unpin(&self, hash: u64) -> u32 {
        match self.objects.borrow().get(&hash) {
            Some(s) => {
                let left = s.pins.get().saturating_sub(1);
                s.pins.set(left);
                left
            }
            None => 0,
        }
    }

    /// Drops an unpinned object from the store (flow GC of
    /// intermediates). Refuses — returning `false` — while any pin is
    /// outstanding or when the object does not exist.
    pub fn remove(&self, hash: u64) -> bool {
        let mut objects = self.objects.borrow_mut();
        match objects.get(&hash) {
            Some(s) if s.pins.get() == 0 => {
                objects.remove(&hash);
                true
            }
            _ => false,
        }
    }

    /// Whether the object is sealed (immutable, cacheable).
    pub fn is_sealed(&self, hash: u64) -> bool {
        self.objects
            .borrow()
            .get(&hash)
            .is_some_and(|s| s.sealed.get())
    }

    /// Whether the object is pinned against device eviction.
    pub fn is_pinned(&self, hash: u64) -> bool {
        self.pins(hash) > 0
    }

    /// The object's outstanding pin count (0 when absent).
    pub fn pins(&self, hash: u64) -> u32 {
        self.objects.borrow().get(&hash).map_or(0, |s| s.pins.get())
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.borrow().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.borrow().is_empty()
    }

    /// Total logical bytes stored.
    pub fn bytes_stored(&self) -> u64 {
        self.objects.borrow().values().map(|s| s.bytes).sum()
    }
}

/// The server's data plane: the host [`ObjectStore`] plus one
/// [`MemoryManager`] per managed device tracking which objects are
/// resident in that device's memory.
///
/// Owned by the [`KaasServer`](crate::KaasServer) and consulted on the
/// dispatch hot path; reachable for inspection via
/// [`KaasServer::dataplane`](crate::KaasServer::dataplane).
#[derive(Debug)]
pub struct DataPlane {
    store: ObjectStore,
    devices: BTreeMap<DeviceId, Rc<MemoryManager>>,
}

impl DataPlane {
    /// Creates a data plane for `devices`, sizing each device's memory
    /// manager from [`Device::mem_bytes`].
    pub fn new(devices: &[Device]) -> Self {
        DataPlane {
            store: ObjectStore::new(),
            devices: devices
                .iter()
                .map(|d| (d.id(), Rc::new(MemoryManager::new(d.mem_bytes()))))
                .collect(),
        }
    }

    /// The host-side object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Stores `value` in the host object store.
    pub fn put(&self, value: Value) -> ObjectRef {
        self.store.put(value)
    }

    /// Resolves `r` to its stored value.
    pub fn resolve(&self, r: &ObjectRef) -> Option<Value> {
        self.store.get(r)
    }

    /// The memory manager of `device`, if this plane manages it.
    pub fn manager(&self, device: DeviceId) -> Option<&Rc<MemoryManager>> {
        self.devices.get(&device)
    }

    /// Whether object `hash` is resident in `device`'s memory.
    pub fn is_resident(&self, device: DeviceId, hash: u64) -> bool {
        self.devices.get(&device).is_some_and(|m| m.contains(hash))
    }

    /// Marks the object pinned in the store and in every device where it
    /// is currently resident (future admissions pin on upload). Returns
    /// whether the object exists.
    pub fn pin(&self, hash: u64) -> bool {
        if !self.store.pin(hash) {
            return false;
        }
        for mgr in self.devices.values() {
            mgr.pin(hash);
        }
        true
    }

    /// Marks the object sealed (immutable, device-cacheable). Returns
    /// whether the object exists.
    pub fn seal(&self, hash: u64) -> bool {
        self.store.seal(hash)
    }

    /// Takes a flow-lifetime pin: the object survives device eviction
    /// (and store GC) until [`flow_unpin`](DataPlane::flow_unpin)
    /// releases it. Pins every currently-resident device copy; future
    /// admissions inherit the pin via [`admit`](DataPlane::admit).
    pub fn flow_pin(&self, hash: u64) -> bool {
        if !self.store.flow_pin(hash) {
            return false;
        }
        for mgr in self.devices.values() {
            mgr.pin(hash);
        }
        true
    }

    /// Releases one flow-lifetime pin; when the last pin drops, the
    /// device copies become ordinary LRU-evictable residents again.
    /// Returns the remaining pin count.
    pub fn flow_unpin(&self, hash: u64) -> u32 {
        let left = self.store.flow_unpin(hash);
        if left == 0 {
            for mgr in self.devices.values() {
                mgr.unpin(hash);
            }
        }
        left
    }

    /// Garbage-collects an unpinned object: drops it from the store and
    /// from every device's residency. Refuses while pins are
    /// outstanding. Returns whether the object was removed.
    pub fn remove(&self, hash: u64) -> bool {
        if !self.store.remove(hash) {
            return false;
        }
        for mgr in self.devices.values() {
            mgr.remove(hash);
        }
        true
    }

    /// Admits object `r` into `device`'s memory (the caller pays the
    /// upload as its `copy_in`), evicting LRU victims as needed and
    /// preserving the object's pin. Returns the evicted hashes.
    ///
    /// # Errors
    ///
    /// [`OomError`] when the device cannot free enough memory.
    pub fn admit(&self, device: DeviceId, r: &ObjectRef) -> Result<Vec<u64>, OomError> {
        let mgr = self.devices.get(&device).ok_or(OomError {
            requested: r.bytes,
            capacity: 0,
            evictable: 0,
        })?;
        let evicted = mgr.insert(r.hash, r.bytes)?;
        if self.store.is_pinned(r.hash) {
            mgr.pin(r.hash);
        }
        Ok(evicted)
    }

    /// Drops a single residency entry (a failed upload must not look
    /// resident).
    pub fn unmark(&self, device: DeviceId, hash: u64) {
        if let Some(mgr) = self.devices.get(&device) {
            mgr.remove(hash);
        }
    }

    /// Invalidates every residency entry of `device`: its memory
    /// contents died with the runner process that owned them (crash,
    /// device flap, idle reap). Returns the number of objects dropped.
    pub fn invalidate_device(&self, device: DeviceId) -> usize {
        self.devices.get(&device).map_or(0, |m| m.clear())
    }

    /// Total bytes resident across every device.
    pub fn bytes_resident(&self) -> u64 {
        self.devices.values().map(|m| m.bytes_resident()).sum()
    }

    /// Total evictions across every device.
    pub fn evictions(&self) -> u64 {
        self.devices.values().map(|m| m.evictions()).sum()
    }

    /// Per-device `(device, bytes_resident)` in device order.
    pub fn residency(&self) -> Vec<(DeviceId, u64)> {
        self.devices
            .iter()
            .map(|(id, m)| (*id, m.bytes_resident()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_accel::{GpuDevice, GpuProfile};

    fn tiny_gpu(id: u32, mem: u64) -> Device {
        GpuDevice::new(
            DeviceId(id),
            GpuProfile {
                mem_bytes: mem,
                ..GpuProfile::p100()
            },
        )
        .into()
    }

    #[test]
    fn content_hash_is_deterministic_and_collision_aware() {
        let a = Value::F64s(vec![1.0, 2.0, 3.0]);
        assert_eq!(content_hash(&a), content_hash(&a.clone()));
        assert_ne!(
            content_hash(&Value::F64s(vec![1.0, 2.0])),
            content_hash(&Value::F64s(vec![2.0, 1.0]))
        );
        assert_ne!(content_hash(&Value::U64(1)), content_hash(&Value::F64(1.0)));
        // Envelope size is content: same body, different declared size.
        assert_ne!(
            content_hash(&Value::sized(10, Value::U64(1))),
            content_hash(&Value::sized(20, Value::U64(1)))
        );
    }

    #[test]
    fn put_dedupes_identical_content() {
        let store = ObjectStore::new();
        let a = store.put(Value::F64s(vec![1.0; 100]));
        let b = store.put(Value::F64s(vec![1.0; 100]));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(a.bytes, 816);
        assert_eq!(store.get(&a), Some(Value::F64s(vec![1.0; 100])));
    }

    #[test]
    fn get_rejects_mismatched_length() {
        let store = ObjectStore::new();
        let r = store.put(Value::U64(7));
        let forged = ObjectRef {
            hash: r.hash,
            bytes: r.bytes + 1,
        };
        assert!(store.get(&forged).is_none());
        assert!(store.contains(&r));
        assert!(!store.contains(&forged), "a forged length is a miss");
    }

    #[test]
    fn ref_value_roundtrip() {
        let r = ObjectRef {
            hash: 0xdead_beef,
            bytes: 4096,
        };
        assert_eq!(ObjectRef::from_value(&r.to_value()), Some(r));
        assert!(ObjectRef::from_value(&Value::U64(1)).is_none());
        assert!(ObjectRef::from_value(&Value::List(vec![])).is_none());
    }

    #[test]
    fn admit_and_invalidate_track_residency() {
        let dp = DataPlane::new(&[tiny_gpu(0, 1000), tiny_gpu(1, 1000)]);
        let r = dp.put(Value::F64s(vec![0.0; 10]));
        assert_eq!(dp.admit(DeviceId(0), &r).unwrap(), Vec::<u64>::new());
        assert!(dp.is_resident(DeviceId(0), r.hash));
        assert!(!dp.is_resident(DeviceId(1), r.hash));
        assert_eq!(dp.bytes_resident(), r.bytes);
        assert_eq!(dp.invalidate_device(DeviceId(0)), 1);
        assert!(!dp.is_resident(DeviceId(0), r.hash));
        assert_eq!(dp.bytes_resident(), 0);
    }

    #[test]
    fn pin_applies_to_resident_and_future_devices() {
        let dp = DataPlane::new(&[tiny_gpu(0, 200), tiny_gpu(1, 200)]);
        let heavy = dp.put(Value::F64s(vec![1.0; 20])); // 176 B
        let small = dp.put(Value::U64(1)); // 16 B
        dp.admit(DeviceId(0), &heavy).unwrap();
        assert!(dp.pin(heavy.hash));
        // Already-resident copy is pinned: nothing can evict it.
        assert!(dp.admit(DeviceId(0), &heavy).is_ok());
        let err = dp.admit(DeviceId(0), &dp.put(Value::F64s(vec![2.0; 20])));
        assert!(err.is_err(), "pinned resident blocks a same-size admit");
        // A later admit on another device inherits the pin.
        dp.admit(DeviceId(1), &heavy).unwrap();
        dp.admit(DeviceId(1), &small).unwrap();
        assert!(dp
            .admit(DeviceId(1), &dp.put(Value::F64s(vec![3.0; 20])))
            .is_err());
        assert!(dp.is_resident(DeviceId(1), heavy.hash));
    }

    #[test]
    fn seal_is_a_store_marker() {
        let dp = DataPlane::new(&[tiny_gpu(0, 100)]);
        let r = dp.put(Value::U64(5));
        assert!(!dp.store().is_sealed(r.hash));
        assert!(dp.seal(r.hash));
        assert!(dp.store().is_sealed(r.hash));
        assert!(!dp.seal(0xbad));
    }

    #[test]
    fn counted_pins_gate_removal() {
        let store = ObjectStore::new();
        let (r, created) = store.put_tracked(Value::U64(9));
        assert!(created);
        let (_, again) = store.put_tracked(Value::U64(9));
        assert!(!again, "dedup is not creation");
        assert!(store.flow_pin(r.hash));
        assert!(store.is_pinned(r.hash));
        assert_eq!(store.pins(r.hash), 1);
        assert!(!store.remove(r.hash), "pinned objects cannot be removed");
        assert_eq!(store.flow_unpin(r.hash), 0);
        assert!(!store.is_pinned(r.hash));
        assert!(store.remove(r.hash));
        assert!(store.get(&r).is_none());
        assert!(!store.remove(r.hash));
    }

    #[test]
    fn flow_unpin_releases_device_pins() {
        let dp = DataPlane::new(&[tiny_gpu(0, 200)]);
        let heavy = dp.put(Value::F64s(vec![1.0; 20])); // 176 B
        dp.admit(DeviceId(0), &heavy).unwrap();
        assert!(dp.flow_pin(heavy.hash));
        let rival = dp.put(Value::F64s(vec![2.0; 20]));
        assert!(
            dp.admit(DeviceId(0), &rival).is_err(),
            "flow pin blocks eviction"
        );
        assert_eq!(dp.flow_unpin(heavy.hash), 0);
        assert!(
            dp.admit(DeviceId(0), &rival).is_ok(),
            "released pin makes the resident evictable again"
        );
        assert!(dp.remove(heavy.hash));
        assert!(!dp.is_resident(DeviceId(0), heavy.hash));
    }

    #[test]
    fn unknown_device_admit_is_oom() {
        let dp = DataPlane::new(&[]);
        let r = dp.put(Value::U64(5));
        assert!(dp.admit(DeviceId(9), &r).is_err());
    }
}
