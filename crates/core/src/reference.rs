//! The architectural reference a detailed run is checked against: the
//! functional emulator's correct path and what the pipeline derives from it
//! (the paper's parallel "fully-accurate window", Appendix A.3.1).

use ci_bpred::GlobalHistory;
use ci_cfg::ReconvergenceMap;
use ci_emu::{run_trace, EmuError, Memory, Trace};
use ci_isa::{InstClass, Program};
use std::sync::{Arc, OnceLock};

/// The architectural reference of one program at one instruction budget.
///
/// It holds everything about the correct path that no machine parameter
/// changes, so one reference serves every pipeline that simulates the same
/// (program, budget) pair, and the idealized models' study input shares its
/// trace:
///
/// - the program itself;
/// - the correct-path [`Trace`], which the retirement checker and the
///   oracle completion models read;
/// - the global history before each trace instruction, for the
///   oracle-history mode of Figure 12;
/// - the initial data-memory image, which each pipeline copies;
/// - the software reconvergence map, built on first use. Every pipeline
///   reads it, whatever its reconvergence strategy, so its sensitivity
///   record can note where the post-dominator would reconverge.
///
/// A [`crate::Pipeline`] borrows its reference for its whole life and never
/// writes to it.
///
/// ```
/// use ci_core::{ArchRef, Pipeline, PipelineConfig};
/// use ci_obs::{NoopProbe, NoopProfiler};
/// use ci_workloads::{Workload, WorkloadParams};
///
/// let program = Workload::GoLike.build(&WorkloadParams { scale: 20, seed: 7 });
/// let reference = ArchRef::build(program, 5_000).unwrap();
/// let base = Pipeline::new(&reference, PipelineConfig::base(64), NoopProbe, NoopProfiler).run();
/// let ci = Pipeline::new(&reference, PipelineConfig::ci(64), NoopProbe, NoopProfiler).run();
/// assert_eq!(base.retired, reference.trace().len() as u64);
/// assert_eq!(ci.retired, base.retired);
/// ```
#[derive(Debug)]
pub struct ArchRef {
    program: Arc<Program>,
    trace: Trace,
    hist: Vec<GlobalHistory>,
    image: Memory,
    recon: OnceLock<Arc<ReconvergenceMap>>,
}

impl ArchRef {
    /// Emulate `program`'s correct path for up to `max_insts` instructions
    /// and build the reference over it.
    ///
    /// # Errors
    /// Propagates [`EmuError`] if the correct path leaves the program.
    pub fn build(program: impl Into<Arc<Program>>, max_insts: u64) -> Result<ArchRef, EmuError> {
        let program = program.into();
        let trace = run_trace(&program, max_insts)?;
        Ok(ArchRef::from_trace(program, trace))
    }

    /// Build the reference over `trace`, which must be `program`'s correct
    /// path.
    pub(crate) fn from_trace(program: Arc<Program>, trace: Trace) -> ArchRef {
        let mut hist = Vec::with_capacity(trace.len() + 1);
        let mut h = GlobalHistory::new();
        for d in &trace {
            hist.push(h);
            if d.class() == InstClass::CondBranch {
                h.push(d.taken);
            }
        }
        hist.push(h);
        ArchRef {
            image: Memory::with_image(program.data()),
            program,
            trace,
            hist,
            recon: OnceLock::new(),
        }
    }

    /// The program this is the reference of.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The correct-path trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The software (post-dominator) reconvergence map of the program,
    /// computed on the first call.
    #[must_use]
    pub fn recon_map(&self) -> &Arc<ReconvergenceMap> {
        self.recon
            .get_or_init(|| Arc::new(ReconvergenceMap::compute(&self.program)))
    }

    /// Global history before each trace instruction, plus the history after
    /// the last one.
    pub(crate) fn hist(&self) -> &[GlobalHistory] {
        &self.hist
    }

    /// The initial data-memory image.
    pub(crate) fn image(&self) -> &Memory {
        &self.image
    }
}
