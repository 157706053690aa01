//! Link once, instantiate per load: the plan/instantiate split must
//! reproduce, byte for byte, what the single-pass loader it replaced
//! produced. The golden digests below were recorded from that loader
//! (commit 533b630) over the same corpus, kernel seed and option sets;
//! a random-base load must still match them (same bases, same key:
//! the RNG draws stay in order), and instantiating a fresh plan at
//! those bases in a fresh kernel must match as well.

use adelie_core::{Bases, LinkPlan, LoadedModule, ModuleRegistry};
use adelie_drivers::specs;
use adelie_isa::{Insn, Reg};
use adelie_kernel::{Kernel, KernelConfig};
use adelie_obj::ObjectFile;
use adelie_plugin::{transform, DataInit, DataSpec, FuncSpec, MOp, ModuleSpec, TransformOptions};
use adelie_vmem::PAGE_SIZE;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Per corpus module, one digest per [`option_sets`] entry, from the
/// single-pass loader.
const GOLDEN: [(&str, [u64; 8]); 5] = [
    (
        "shapes",
        [
            0xa5f069960eecd99b,
            0xa5f069960eecd99b,
            0x1cc8035bc61d5844,
            0x343d76741533b151,
            0xa7358580169fb85c,
            0x3579c5bce8ebdbb8,
            0xbd217a62ddf643aa,
            0x06cc2d5c185fe45c,
        ],
    ),
    (
        "dummy",
        [
            0x57574ab4b537ccc6,
            0x57574ab4b537ccc6,
            0xeb9e76bd3841867c,
            0xc12186539011f4b4,
            0xd5897f61dcd103f1,
            0x14600b67bfe6bc70,
            0xbb24adb73aa016b6,
            0xf810e7d682e1abd7,
        ],
    ),
    (
        "extfs",
        [
            0x526f1e84a4d7c1a5,
            0x526f1e84a4d7c1a5,
            0xb6cbc5c8a502d190,
            0x54fa213ee61baa99,
            0x7dde9f04b53d30e9,
            0x24e83cd4f56ebf47,
            0xd8dff156dc4a0114,
            0xacf51cc7712489b5,
        ],
    ),
    (
        "fuse",
        [
            0x56b029127e68a94b,
            0x56b029127e68a94b,
            0x9c548d7d419e4dde,
            0xe46b9073c12dfac8,
            0x27750cda60f7c6a3,
            0x7779fb30f99b21d2,
            0x2d52d6aeea435594,
            0xbe9be7927cc83110,
        ],
    ),
    (
        "nvme",
        [
            0x82193d08b1ba234d,
            0x82193d08b1ba234d,
            0x955a692edb499fd8,
            0x0240c23e4852f578,
            0x75490d64141cb5be,
            0x1ace59ddfd735f2f,
            0xd4cf4122ee43d3bf,
            0x6b8b5633015671d9,
        ],
    ),
];

/// Every load configuration the corpus runs under.
fn option_sets() -> Vec<TransformOptions> {
    vec![
        TransformOptions::vanilla(false),
        TransformOptions::vanilla(true),
        TransformOptions::pic(false),
        TransformOptions::pic(true),
        TransformOptions::pic(true).with_lazy_plt(),
        TransformOptions::rerandomizable(false),
        TransformOptions::rerandomizable(true),
        TransformOptions::rerandomizable(true).with_lazy_plt(),
    ]
}

/// A module with every relocation shape the loader handles: local and
/// kernel calls, a patched `mov`→`lea`, a pointer table (absolute
/// relocations into the movable part) and read-only data.
fn shapes_spec() -> ModuleSpec {
    let mut spec = ModuleSpec::new("shapes");
    spec.funcs.push(FuncSpec::exported(
        "shapes_entry",
        vec![
            MOp::CallLocal("shapes_helper".into()),
            MOp::CallKernel("kmalloc".into()),
            MOp::LoadLocalSym(Reg::Rdi, "shapes_table".into()),
            MOp::Ret,
        ],
    ));
    spec.funcs.push(FuncSpec::local(
        "shapes_helper",
        vec![MOp::Insn(Insn::MovImm32(Reg::Rax, 7)), MOp::Ret],
    ));
    spec.data.push(DataSpec {
        name: "shapes_table".into(),
        readonly: false,
        init: DataInit::PtrTable(vec!["shapes_entry".into(), "shapes_helper".into()]),
    });
    spec.data.push(DataSpec {
        name: "shapes_ro".into(),
        readonly: true,
        init: DataInit::PtrTable(vec!["shapes_helper".into()]),
    });
    spec
}

/// The corpus: the shapes module and every driver whose init runs
/// without its device.
fn corpus() -> Vec<ModuleSpec> {
    vec![
        shapes_spec(),
        specs::dummy_spec(),
        specs::extfs_spec(),
        specs::fuse_spec(),
        specs::nvme_spec(0x0000_7000_0000_0000),
    ]
}

/// A kernel with a registry and a stub for every kernel symbol the
/// object imports that the kernel does not provide (drivers register
/// theirs at install time).
fn boot(obj: &ObjectFile) -> (Arc<Kernel>, Arc<ModuleRegistry>) {
    let kernel = Kernel::new(KernelConfig::default());
    let registry = ModuleRegistry::new(&kernel);
    let mut missing: Vec<&str> = obj
        .undefined_symbols()
        .map(|s| &*s.name)
        .filter(|n| kernel.symbols.lookup(n).is_none())
        .collect();
    missing.sort_unstable();
    missing.dedup();
    for name in missing {
        kernel.symbols.register_native(name, |_| Ok(0));
    }
    (kernel, registry)
}

/// FNV-1a over everything a load leaves behind: both parts' frames
/// byte for byte, GOT layouts, exports and their kallsyms entries,
/// lazy-PLT binders and theirs, symbol tables, adjustable slots and
/// `LoadStats`.
fn digest(kernel: &Kernel, m: &LoadedModule) -> u64 {
    let mut out = String::new();
    for part in std::iter::once(&m.movable).chain(m.immovable.as_ref()) {
        out += &format!(
            "part {:#x} {} {:?} {} {} {} {} {:?} {} {}\n",
            part.base,
            part.total_pages,
            part.groups,
            part.lgot_off,
            part.lgot_slots,
            part.fgot_off,
            part.fgot_slots,
            part.fgot_names,
            part.plt_off,
            part.plt_stubs
        );
        for &pfn in &part.frames {
            let mut page = vec![0u8; PAGE_SIZE];
            kernel.phys.read(pfn, 0, &mut page);
            out += &format!("{page:?}\n");
        }
    }
    out += &format!(
        "{:#x} {:#x} {:?} {:?} {:?}\n",
        m.movable_base.load(Ordering::Relaxed),
        m.current_key.load(Ordering::Relaxed),
        m.lgot_movable,
        m.lgot_immovable,
        m.adjust_slots
    );
    let mut syms: Vec<_> = m
        .movable_syms
        .iter()
        .map(|(n, v)| (n.to_string(), *v, 0))
        .collect();
    syms.extend(m.immovable_syms.iter().map(|(n, v)| (n.to_string(), *v, 1)));
    syms.sort();
    out += &format!("{syms:?}\n");
    for (name, va) in &m.exports {
        out += &format!("export {name} {va:#x} {:?}\n", kernel.symbols.lookup(name));
    }
    out += &format!(
        "{:?} {:?} {:?}\n",
        m.init_va, m.exit_va, m.update_pointers_va
    );
    for s in &m.lazy_plt {
        out += &format!(
            "lazy {} {:?} {} {} {:#x} {} {:?} {:?}\n",
            s.symbol,
            s.part,
            s.local,
            s.idx,
            s.binder_va,
            s.binder_name,
            s.target_off,
            kernel.symbols.lookup(&s.binder_name)
        );
    }
    out += &format!("{:?}\n", m.stats);
    out.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn instantiate_matches_the_single_pass_loader_byte_for_byte() {
    let specs = corpus();
    assert_eq!(specs.len(), GOLDEN.len());
    for (spec, (name, golden)) in specs.iter().zip(GOLDEN) {
        assert_eq!(spec.name, name);
        for (opts, want) in option_sets().into_iter().zip(golden) {
            let obj = transform(spec, &opts).unwrap();
            // The load path: plan, random bases, instantiate, init.
            let (kernel, registry) = boot(&obj);
            let loaded = registry.load(&obj, &opts).unwrap();
            assert_eq!(
                digest(&kernel, &loaded),
                want,
                "{name} under {opts:?}: the load differs from the single-pass loader's"
            );
            // A fresh plan at those bases, in a kernel in the same
            // state, then its init (which may bind lazy PLT slots), as
            // the load did.
            let bases = Bases {
                movable: loaded.movable.base,
                immovable: loaded.immovable.as_ref().map(|p| p.base),
                key: loaded.current_key.load(Ordering::Relaxed),
            };
            let (kernel, _registry) = boot(&obj);
            let plan = LinkPlan::new(&obj, &opts).unwrap();
            assert_eq!(*plan.stats(), loaded.stats);
            let imports = plan.resolve_imports(&kernel).unwrap();
            let forced = plan.instantiate(&kernel, bases, &imports).unwrap();
            if let Some(init) = forced.init_va {
                kernel.vm().call(init, &[]).unwrap();
            }
            assert_eq!(
                digest(&kernel, &forced),
                want,
                "{name} under {opts:?}: instantiate at forced bases differs"
            );
        }
    }
}

/// One plan serves every instance: loading, unloading and loading
/// again from the same plan gives a working module at new bases each
/// time, with the same statistics.
#[test]
fn one_plan_instantiates_repeatedly() {
    let opts = TransformOptions::rerandomizable(true).with_lazy_plt();
    let obj = transform(&shapes_spec(), &opts).unwrap();
    let (kernel, registry) = boot(&obj);
    let plan = LinkPlan::new(&obj, &opts).unwrap();
    let mut bases = Vec::new();
    for _ in 0..4 {
        let m = registry.load_plan(&plan).unwrap();
        assert_eq!(m.stats, *plan.stats());
        let mut vm = kernel.vm();
        let entry = m.export("shapes_entry").unwrap();
        vm.call(entry, &[64]).unwrap();
        bases.push(m.movable.base);
        drop(m);
        registry.unload("shapes").unwrap();
    }
    bases.sort_unstable();
    bases.dedup();
    assert_eq!(bases.len(), 4, "every instance drew fresh bases");
}
