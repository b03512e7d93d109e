//! `rfid-lint` — workspace invariant linter for the RFID inference repo.
//!
//! The solver's correctness story rests on three properties that ordinary
//! compiler lints cannot check: **determinism** (bit-identical replay across
//! runs and sites), **exactness** (the default dense kernels must not
//! reassociate floating-point accumulation), and **panic-freedom** on the
//! cross-site decode surface (a malformed frame from a peer must surface as
//! `Err`, never abort the ingest loop). This crate machine-checks those
//! properties as five repo-specific rules over the workspace's own sources:
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `undocumented-unsafe` | everywhere | every `unsafe` carries a `SAFETY:` justification |
//! | `panic-free-decode` | `crates/wire/src` | decode paths are `Result`-only: no unwrap/expect/panic!/indexing |
//! | `nondeterministic-collections` | core/dist/wire/query | no `HashMap`/`HashSet` with the default `RandomState` |
//! | `float-exactness` | dense solver files | no reassociating accumulation |
//! | `no-wall-clock` | core/dist/wire/query | no `Instant::now`/`SystemTime::now` in solver/replay paths |
//!
//! The linter lexes Rust properly (nested block comments, raw strings, char
//! vs. lifetime) rather than grepping, so string literals and comments never
//! false-positive. Intentional exceptions are waived per site with
//! `// LINT-ALLOW(rule): reason`; reasonless or stale waivers are themselves
//! findings. `--self-test` runs the rules against seeded-violation fixtures
//! in `fixtures/` so CI can prove every rule still fires.
//!
//! The crate is deliberately dependency-free (std only): it must be able to
//! lint the workspace even when the workspace itself does not compile.

pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod workspace;

pub use diagnostics::{apply_waivers, to_json, Diagnostic};
pub use rules::ALL_RULES;
pub use workspace::{find_root, lint_source, lint_workspace, self_test, SelfTestReport};
