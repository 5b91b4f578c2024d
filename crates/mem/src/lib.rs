//! # microlib-mem
//!
//! Memory substrate of the MicroLib reproduction: the value-carrying
//! functional memory, the detailed cache model (ports, MSHRs, pipeline
//! hazards), buses, the SDRAM controller and the full
//! [`MemorySystem`] hierarchy the CPU model drives.
//!
//! The design follows the paper's §2.2 validation discussion: every
//! difference the authors found between their cache model and
//! SimpleScalar's (finite MSHRs, cache-pipeline stalls, LSQ backpressure,
//! refill port usage) is modelled and individually toggleable through
//! [`FidelityConfig`](microlib_model::FidelityConfig), which is what the
//! model-precision experiments (Fig 1, Fig 9) sweep.
//!
//! # Examples
//!
//! ```
//! use microlib_mem::{IssueResult, MemorySystem};
//! use microlib_model::{Addr, Cycle, SystemConfig};
//!
//! let mut mem = MemorySystem::new(SystemConfig::baseline(), Vec::new())?;
//! mem.functional_mut().initialize_word(Addr::new(0x100), 7);
//! mem.begin_cycle(Cycle::ZERO);
//! assert!(matches!(
//!     mem.try_load(Addr::new(0x40_0000), Addr::new(0x100), Cycle::ZERO),
//!     Ok(IssueResult::Pending(_))
//! ));
//! # Ok::<(), microlib_model::ConfigError>(())
//! ```

#![warn(missing_docs)]

mod bus;
mod cache;
mod functional;
mod hierarchy;
mod mshr;
mod sdram;
mod warmup;

pub use bus::{Bus, BusStats};
pub use cache::{CacheArray, HitInfo, Victim};
pub use functional::{FunctionalMemory, IntegrityError, SparseMemory};
pub use hierarchy::{Completion, IssueRejection, IssueResult, MemorySystem, QuietCredit, ReqId};
pub use mshr::{MshrCompletion, MshrEntry, MshrFile, MshrOutcome, MshrStats, MshrTarget};
pub use sdram::{ConstantMemory, MainMemory, MemDone, MemToken, Sdram};
pub use warmup::{capture_warm_state, WarmCheckpoint, WarmEvent, WarmLog, WarmState};
