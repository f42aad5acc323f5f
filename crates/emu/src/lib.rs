//! Functional emulation and dynamic-trace generation.
//!
//! This crate is the "architecturally correct" half of every simulator in the
//! suite. It provides:
//!
//! - [`Memory`]: sparse, paged, word-addressed data memory.
//! - [`exec`]: the pure instruction semantics (`alu_result`, `branch_taken`,
//!   `effective_addr`) shared by the emulator and by the execution-driven
//!   pipeline simulator.
//! - [`Emulator`]: an in-order functional interpreter producing [`DynInst`]
//!   records.
//! - [`WrongPathEmu`]: a copy-on-write fork of a running emulator used to
//!   execute *mispredicted* paths with their real (wrong) data values — this
//!   is what lets the idealized models of the paper's Section 2 account for
//!   false data dependences instead of ignoring them as Lam & Wilson's
//!   trace-driven study did.
//! - [`Trace`] / [`run_trace`]: whole-program correct-path traces.
//!
//! # Example
//!
//! ```
//! use ci_isa::{Asm, Reg};
//! use ci_emu::run_trace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(Reg::R1, 3);
//! a.label("loop")?;
//! a.addi(Reg::R1, Reg::R1, -1);
//! a.bne(Reg::R1, Reg::R0, "loop");
//! a.halt();
//! let program = a.assemble()?;
//! let trace = run_trace(&program, 1_000)?;
//! assert_eq!(trace.len(), 8); // li + 3 * (addi, bne) + halt
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dyninst;
mod emulator;
pub mod exec;
mod memory;
mod wrongpath;

pub use dyninst::{DynInst, Trace};
pub use emulator::{run_trace, EmuError, Emulator};
pub use memory::Memory;
pub use wrongpath::WrongPathEmu;
