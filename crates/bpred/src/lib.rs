//! Branch prediction substrate.
//!
//! Implements the predictors used throughout the paper:
//!
//! - [`Gshare`]: 2^16-entry gshare conditional-branch predictor (McFarling)
//!   with explicit [`GlobalHistory`], so callers own the speculative history —
//!   required for the paper's re-predict sequences and history repair after
//!   mispredictions (Appendix A.3).
//! - [`CorrelatedTargetBuffer`]: target prediction for indirect calls and
//!   jumps (Chang/Hao/Patt style, history-hashed index).
//! - [`ReturnAddressStack`]: return-address stack whose positions are
//!   `Copy` [`RasTop`] handles, so a checkpoint is a copy; with unbounded
//!   depth and retirement-order use it is the paper's "perfect" RAS.
//! - [`ConfidenceEstimator`]: resetting-counter branch confidence
//!   (Jacobsen/Rotenberg/Smith), used in the false-misprediction discussion.
//! - [`TfrTable`] and [`TfrStats`]: true/false-misprediction history
//!   tracking and the cumulative-coverage analysis behind Figure 10.
//! - [`PredictorSuite`]: the paper's full front-end prediction stack in one
//!   convenient bundle.
//!
//! # Example
//!
//! ```
//! use ci_bpred::{Gshare, GlobalHistory};
//! use ci_isa::Pc;
//!
//! let mut g = Gshare::new(12);
//! let h = GlobalHistory::new().pushed(true).pushed(false);
//! // Train a branch under this history: always taken.
//! g.update(Pc(5), h, true);
//! g.update(Pc(5), h, true);
//! assert!(g.predict(Pc(5), h));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod confidence;
mod ctb;
mod gshare;
mod ras;
mod suite;
mod tfr;

pub use confidence::ConfidenceEstimator;
pub use ctb::CorrelatedTargetBuffer;
pub use gshare::{GlobalHistory, Gshare};
pub use ras::{RasTop, ReturnAddressStack};
pub use suite::{Prediction, PredictorConfig, PredictorSuite};
pub use tfr::{CoveragePoint, TfrIndexing, TfrStats, TfrTable};
