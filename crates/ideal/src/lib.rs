//! The six idealized control-independence machine models of Section 2.
//!
//! The paper isolates three factors that limit control independence — true
//! data dependences with the correct control-dependent path, false data
//! dependences created by the incorrect control-dependent path, and machine
//! resources wasted on the incorrect path — by simulating six models over the
//! same dynamic instruction stream:
//!
//! | Model | Wrong path fetched? | False dependences? |
//! |-------|--------------------|--------------------|
//! | [`ModelKind::Oracle`]  | no mispredictions at all | — |
//! | [`ModelKind::Base`]    | no (complete squash: fetch stalls to resolution) | — |
//! | [`ModelKind::NwrNfd`]  | no (skips straight to the reconvergent point) | no |
//! | [`ModelKind::NwrFd`]   | no | yes |
//! | [`ModelKind::WrNfd`]   | yes | no |
//! | [`ModelKind::WrFd`]    | yes | yes |
//!
//! All six share one engine ([`simulate`]) with width-16
//! fetch/issue/retire, a bounded instruction window, unlimited renaming,
//! oracle memory disambiguation, a perfect 1-cycle data cache, and — exactly
//! as the paper's idealized study (and Lam & Wilson's) assumes — branch
//! predictions made under the architecturally correct global history.
//!
//! The engine steps cycle by cycle but is event-driven within a cycle: issue
//! pops a key-ordered ready set, instructions wait on their producers'
//! waiter chains and on a wake-up wheel sized from the configured
//! latencies, false-dependence victims park on the blocking misprediction
//! until it resolves, and fetch skips each misprediction's blocked range
//! whole. No stage walks the window, so a cycle costs work proportional to
//! the instructions that move, not to the window size.
//!
//! Unlike Lam & Wilson's trace-driven study, wrong paths here are *executed*
//! (via [`ci_emu::WrongPathEmu`]), so the false data dependences the `FD`
//! models charge for are the real ones.
//!
//! # Example
//!
//! ```
//! use ci_ideal::{simulate, IdealConfig, ModelKind, StudyInput};
//! use ci_workloads::{Workload, WorkloadParams};
//!
//! let program = Workload::JpegLike.build(&WorkloadParams { scale: 30, seed: 1 });
//! let input = StudyInput::build(&program, 50_000).unwrap();
//! let base = simulate(&input, &IdealConfig { model: ModelKind::Base, ..Default::default() });
//! let oracle = simulate(&input, &IdealConfig { model: ModelKind::Oracle, ..Default::default() });
//! assert!(oracle.ipc() >= base.ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod input;
mod model;
mod sim;

pub use input::{MispredictEvent, StudyInput};
pub use model::{IdealConfig, IdealResult, ModelKind};
pub use sim::{simulate, simulate_probed, simulate_profiled};
