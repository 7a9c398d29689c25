//! Experiment harnesses that regenerate every table and figure of the
//! PUSHtap paper's evaluation (§7).
//!
//! Each module owns one figure and exposes both structured data (for the
//! Criterion benches and tests) and a `print_all` routine (for the
//! `fig*` binaries). The mapping to the paper is indexed in
//! `ARCHITECTURE.md`; how to run the figures and the benches is in
//! `README.md`.
//!
//! Scales: the binaries default to small populations (the simulator is
//! value-correct at any scale and the reported quantities are ratios);
//! pass a scale argument to grow them.

#![forbid(unsafe_code)]
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig8;
pub mod fig9;
pub mod open_loop;
pub mod shard_scale;
pub mod soak;
pub mod table1;

/// The operand following `flag` in a binary's arguments, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// FNV-1a of `bytes`: with the length, the tests' pin on a renderer's
/// exact output.
#[cfg(test)]
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
