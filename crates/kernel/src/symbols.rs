//! The kernel symbol table (kallsyms analog) and native-function registry.
//!
//! Exported kernel API (kmalloc, printk, the `mr_*` reclamation calls,
//! …) is implemented as native Rust functions. Each registration assigns
//! a virtual address inside the native-dispatch region
//! ([`crate::layout::NATIVE_BASE`]); module GOT entries hold those
//! addresses, and the interpreter traps calls into the region back to
//! the registered closure — exactly how a module's GOT slot holds the
//! address of a kernel text symbol on real hardware.

use crate::exec::{Vm, VmError};
use crate::layout;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A native (kernel-implemented) function callable from module code.
///
/// Receives the interpreter so it can access registers, memory, and the
/// kernel; returns the value placed in `rax`.
pub type NativeFn = dyn Fn(&mut Vm<'_>) -> Result<u64, VmError> + Send + Sync;

/// The hasher of every map keyed by a kernel-minted name (symbols,
/// modules, catalog records): deterministic and non-keyed, like the
/// page-number maps in `adelie_vmem`, because the kernel mints the
/// names and no attacker chooses them.
pub type BuildNameHasher = adelie_vmem::BuildPageHasher;

/// Spacing of native addresses: keeps them distinct and "function-like".
const NATIVE_STRIDE: u64 = 16;

/// The dispatch slot of a native-region address: `Some(i)` for
/// `NATIVE_BASE + 16·i`, `None` off the region or off the stride.
pub(crate) fn native_slot(va: u64) -> Option<usize> {
    let off = va.checked_sub(layout::NATIVE_BASE)?;
    (off < layout::NATIVE_SIZE && off.is_multiple_of(NATIVE_STRIDE))
        .then_some((off / NATIVE_STRIDE) as usize)
}

/// Native handlers by dispatch slot, with the slots unregistration
/// freed for reuse.
#[derive(Default)]
struct Natives {
    /// Handler of the native at `NATIVE_BASE + 16·i`; `None` once it is
    /// unregistered.
    slots: Vec<Option<Arc<NativeFn>>>,
    /// Unregistered slots, reused last-in first-out.
    free: Vec<usize>,
}

/// The kernel symbol table.
///
/// Names are interned as `Arc<str>`: lookups borrow, registration
/// shares, and callers that key their own maps by symbol name clone a
/// pointer instead of reallocating the string. Unregistering a native
/// frees its address for the next registration, so modules that bring
/// their own natives (lazy PLT binders) can load and unload forever in
/// the region's 2^20 slots. Every unregistration advances
/// [`SymbolTable::natives_generation`]; the interpreter's per-CPU
/// handler caches follow it, which keeps this table's locks off the
/// dispatch hot path without ever dispatching a recycled address to
/// the handler it had before.
pub struct SymbolTable {
    by_name: RwLock<HashMap<Arc<str>, u64, BuildNameHasher>>,
    natives: RwLock<Natives>,
    natives_generation: AtomicU64,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> SymbolTable {
        SymbolTable {
            by_name: RwLock::new(HashMap::default()),
            natives: RwLock::new(Natives::default()),
            natives_generation: AtomicU64::new(0),
        }
    }

    /// Register a native function under `name`; returns its assigned
    /// kernel-text address, the most recently freed one if any.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already bound (kernel symbols are unique),
    /// or if every address of the native region is taken.
    pub fn register_native(
        &self,
        name: &str,
        f: impl Fn(&mut Vm<'_>) -> Result<u64, VmError> + Send + Sync + 'static,
    ) -> u64 {
        let va = {
            let mut natives = self.natives.write();
            let i = match natives.free.pop() {
                Some(i) => i,
                None => {
                    natives.slots.push(None);
                    natives.slots.len() - 1
                }
            };
            let va = layout::NATIVE_BASE + i as u64 * NATIVE_STRIDE;
            assert!(va < layout::NATIVE_BASE + layout::NATIVE_SIZE);
            natives.slots[i] = Some(Arc::new(f));
            va
        };
        let prev = self.by_name.write().insert(Arc::from(name), va);
        assert!(prev.is_none(), "kernel symbol `{name}` registered twice");
        va
    }

    /// Bind `name` to an arbitrary address (used for module exports that
    /// other modules import, like real inter-module symbols).
    ///
    /// # Panics
    ///
    /// Panics on rebinding an existing name to a *different* address.
    pub fn define(&self, name: &str, va: u64) {
        let mut map = self.by_name.write();
        if let Some(&old) = map.get(name) {
            assert_eq!(old, va, "symbol `{name}` rebound to a new address");
            return;
        }
        map.insert(Arc::from(name), va);
    }

    /// Remove a binding (module unload).
    pub fn undefine(&self, name: &str) {
        self.by_name.write().remove(name);
    }

    /// Remove a native registration (name *and* dispatch handler).
    ///
    /// Module-owned natives — lazy PLT binders — must be torn down at
    /// unload, both so the dispatch region stops resolving to a dead
    /// module and so a later re-load of the same module name can
    /// register fresh binders without tripping the duplicate-name
    /// assertion in [`SymbolTable::register_native`].
    ///
    /// The address goes back to the free pool. The generation advances
    /// before the address can be handed out again, so a CPU that cached
    /// the old handler drops it before it can dispatch the address.
    pub fn unregister_native(&self, name: &str) {
        let Some(va) = self.by_name.write().remove(name) else {
            return;
        };
        let Some(i) = native_slot(va) else {
            return;
        };
        let mut natives = self.natives.write();
        if natives.slots.get_mut(i).and_then(Option::take).is_some() {
            self.natives_generation.fetch_add(1, Ordering::Release);
            natives.free.push(i);
        }
    }

    /// Advanced by every [`SymbolTable::unregister_native`]: a handler
    /// resolved at one generation is still the address's handler while
    /// this returns the same value.
    pub fn natives_generation(&self) -> u64 {
        self.natives_generation.load(Ordering::Acquire)
    }

    /// Resolve a name to its address.
    pub fn lookup(&self, name: &str) -> Option<u64> {
        self.by_name.read().get(name).copied()
    }

    /// Resolve a native-region address to its handler.
    pub fn native_at(&self, va: u64) -> Option<Arc<NativeFn>> {
        let i = native_slot(va)?;
        self.natives.read().slots.get(i)?.clone()
    }

    /// Number of registered symbols.
    pub fn len(&self) -> usize {
        self.by_name.read().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.read().is_empty()
    }

    /// Snapshot of all `(name, address)` pairs (kallsyms dump).
    pub fn dump(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .by_name
            .read()
            .iter()
            .map(|(k, &a)| (k.to_string(), a))
            .collect();
        v.sort_by_key(|(_, a)| *a);
        v
    }
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolTable")
            .field("symbols", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let t = SymbolTable::new();
        let va = t.register_native("kmalloc", |_vm| Ok(0));
        assert!(layout::is_native(va));
        assert_eq!(t.lookup("kmalloc"), Some(va));
        assert!(t.native_at(va).is_some());
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn addresses_are_distinct() {
        let t = SymbolTable::new();
        let a = t.register_native("a", |_| Ok(0));
        let b = t.register_native("b", |_| Ok(0));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_native_panics() {
        let t = SymbolTable::new();
        t.register_native("x", |_| Ok(0));
        t.register_native("x", |_| Ok(0));
    }

    #[test]
    fn unregistered_addresses_are_reused_and_advance_the_generation() {
        let t = SymbolTable::new();
        let a = t.register_native("a", |_| Ok(1));
        let b = t.register_native("b", |_| Ok(2));
        let g = t.natives_generation();
        t.unregister_native("a");
        assert_eq!(t.natives_generation(), g + 1);
        assert!(t.native_at(a).is_none());
        assert_eq!(t.register_native("c", |_| Ok(3)), a, "freed slot reused");
        assert_eq!(
            t.register_native("d", |_| Ok(4)),
            b + 16,
            "then the region grows"
        );
        // A plain binding is not a native: no slot freed, no generation.
        t.define("export", b + 0x1000);
        t.unregister_native("export");
        assert_eq!(t.natives_generation(), g + 1);
        assert!(native_slot(a + 8).is_none(), "off the stride");
    }

    #[test]
    fn define_and_undefine() {
        let t = SymbolTable::new();
        t.define("module_export", 0x1234_0000);
        assert_eq!(t.lookup("module_export"), Some(0x1234_0000));
        t.undefine("module_export");
        assert_eq!(t.lookup("module_export"), None);
    }
}
