//! Scenario building blocks for the deterministic harness
//! ([`crate::FleetSim`]): a [`ModuleProfile`] says how hot and how
//! gadget-rich a synthetic module is, [`profile_spec`] builds it, and
//! `advance_profile_traffic` paces its calls on the virtual clock.

use adelie_isa::{AluOp, Insn, Reg};
use adelie_plugin::{DataInit, DataSpec, FuncSpec, MOp, ModuleSpec};

/// One synthetic module in a scenario: how hot it is and how
/// gadget-rich its movable text looks to a scanner.
#[derive(Clone, Debug)]
pub struct ModuleProfile {
    /// Module name.
    pub name: String,
    /// Wrapper calls injected per *virtual* millisecond (0 = idle).
    pub calls_per_ms: u64,
    /// Repetitions of the pop/ret gadget pattern planted in a
    /// never-called static function (raises scanner-visible exposure
    /// and gives the attacker material to leak).
    pub gadget_units: usize,
    /// Whether the module registers an `update_pointers` callback
    /// (required to exercise the post-commit failure stage).
    pub update_pointers: bool,
}

impl ModuleProfile {
    /// A busy, gadget-rich module (the attacker's preferred target).
    pub fn hot(name: &str) -> ModuleProfile {
        ModuleProfile {
            name: name.to_string(),
            calls_per_ms: 50,
            gadget_units: 12,
            update_pointers: true,
        }
    }

    /// An idle, gadget-poor module.
    pub fn cold(name: &str) -> ModuleProfile {
        ModuleProfile {
            name: name.to_string(),
            calls_per_ms: 0,
            gadget_units: 1,
            update_pointers: false,
        }
    }
}

/// Build the module spec for a profile.
///
/// The exported `{name}_entry(x)` returns `x + 1` (safe to hammer from
/// the traffic driver); `{name}_gadget_farm` is a never-called static
/// function stuffed with classic pop/ret material for the scanner; the
/// pointer table gives the re-randomizer adjust slots to exercise; the
/// optional `{name}_refresh` is a no-op `update_pointers` callback.
pub fn profile_spec(profile: &ModuleProfile) -> ModuleSpec {
    let name = &profile.name;
    let mut spec = ModuleSpec::new(name);
    spec.funcs.push(FuncSpec::exported(
        &format!("{name}_entry"),
        vec![
            MOp::Insn(Insn::MovRR {
                dst: Reg::Rax,
                src: Reg::Rdi,
            }),
            MOp::Insn(Insn::AluImm {
                op: AluOp::Add,
                dst: Reg::Rax,
                imm: 1,
            }),
            MOp::Ret,
        ],
    ));
    if profile.gadget_units > 0 {
        let mut farm = Vec::new();
        for i in 0..profile.gadget_units {
            // An unintended-gadget constant: its little-endian bytes
            // decode (misaligned) to `pop rdi; ret` / `pop rdx; ret` /
            // `pop rsi; ret` — clean chain material the return-address
            // encryption epilogue cannot poison, the way real-world
            // chains are mined from immediates.
            farm.push(MOp::Insn(Insn::MovImm64(Reg::Rcx, 0xC35F_C35E_C35A_C35F)));
            // Vary the pattern so the scanner sees distinct gadgets.
            match i % 3 {
                0 => {
                    farm.push(MOp::Insn(Insn::Pop(Reg::Rdi)));
                    farm.push(MOp::Ret);
                }
                1 => {
                    farm.push(MOp::Insn(Insn::Pop(Reg::Rsi)));
                    farm.push(MOp::Insn(Insn::Pop(Reg::Rdx)));
                    farm.push(MOp::Ret);
                }
                _ => {
                    farm.push(MOp::Insn(Insn::Pop(Reg::Rax)));
                    farm.push(MOp::Insn(Insn::MovRR {
                        dst: Reg::Rdi,
                        src: Reg::Rax,
                    }));
                    farm.push(MOp::Ret);
                }
            }
        }
        farm.push(MOp::Ret);
        spec.funcs
            .push(FuncSpec::local(&format!("{name}_gadget_farm"), farm));
    }
    spec.data.push(DataSpec {
        name: format!("{name}_ops"),
        readonly: false,
        init: DataInit::PtrTable(vec![format!("{name}_entry")]),
    });
    if profile.update_pointers {
        spec.funcs.push(FuncSpec::exported(
            &format!("{name}_refresh"),
            vec![MOp::Ret],
        ));
        spec.update_pointers = Some(format!("{name}_refresh"));
    }
    spec
}

/// Drive profiled traffic up to virtual time `to_ns`: for each profile
/// with a nonzero call rate, inject the wrapper calls due since its
/// cursor (real interpreted calls, deterministic count). `traffic` is
/// the per-profile `(entry va, cursor ns)` state, index-aligned with
/// `profiles`. [`crate::FleetSim`] runs it once per shard.
pub(crate) fn advance_profile_traffic(
    now_ns: u64,
    profiles: &[ModuleProfile],
    traffic: &mut [(u64, u64)],
    vm: &mut adelie_kernel::Vm<'_>,
    to_ns: u64,
) {
    for (i, profile) in profiles.iter().enumerate() {
        if profile.calls_per_ms == 0 {
            continue;
        }
        let (entry, ref mut cursor) = traffic[i];
        if *cursor == 0 {
            *cursor = now_ns.min(to_ns);
        }
        // `max(1)`: a (pathological) rate above one call per virtual
        // nanosecond must tick the cursor, not loop forever.
        let ns_per_call = (1_000_000 / profile.calls_per_ms).max(1);
        while *cursor + ns_per_call <= to_ns {
            *cursor += ns_per_call;
            let x = (*cursor / ns_per_call) & 0xFFFF;
            let got = vm.call(entry, &[x]).expect("traffic call");
            assert_eq!(got, x + 1, "{}_entry corrupted", profile.name);
        }
    }
}
