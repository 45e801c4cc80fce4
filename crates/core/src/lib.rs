//! The Differential Aggregation Protocol (DAP) — the paper's primary
//! contribution — plus the §IV baseline protocol and the extensions of §V-D.
//!
//! # Protocol overview
//!
//! DAP estimates the mean of honest users' values under ε-LDP while an
//! unknown coalition of Byzantine users injects arbitrary reports:
//!
//! 1. **Grouping** — users are randomly assigned to `h = ⌈log₂(ε/ε₀)⌉ + 1`
//!    equal groups with geometrically decreasing budgets `ε, ε/2, …, ε₀`.
//!    Users in low-budget groups report multiple times until their total
//!    budget reaches ε (sequential composition, enforced by
//!    [`PrivacyAccountant`]).
//! 2. **Probing** — the Expectation-Maximization Filter runs per group; the
//!    most private group (budget ε₀) yields the poisoned side and the
//!    coalition proportion `γ̂` (Theorem 3 says small ε probes best).
//! 3. **Intra-group estimation** — each group's mean is corrected by
//!    subtracting the reconstructed poison mass (Eq. 13), with EMF, EMF\* or
//!    CEMF\* reconstructions ([`Scheme`]).
//! 4. **Inter-group aggregation** — group means are combined with the
//!    variance-optimal weights of Algorithm 5 / Theorem 6
//!    ([`aggregation`]).
//!
//! # Client/aggregator split
//!
//! The crate's service surface mirrors the paper's deployment model:
//!
//! * [`client`] — the user's device: a [`client::ClientAssignment`] plus any
//!   [`dap_ldp::NumericMechanism`] turns one private value into the user's
//!   `k_t` reports, locally.
//! * [`session`] — the collector: a [`DapSession`] owns the [`GroupPlan`]
//!   and per-group histograms, ingests reports incrementally (rejecting
//!   out-of-range and over-quota submissions as [`DapError`]s), merges
//!   shards accumulated by independent threads/processes, and finalizes
//!   into [`DapOutput`]s.
//! * [`protocol`] / [`sw`] — the *simulations*: thin drivers wiring a
//!   [`Population`] and an attack through the client API into a session.
//! * [`net`] — the transport: `dap-wire/v1`, a std-only length-prefixed
//!   TCP frame protocol serving a session ([`net::serve_session`] /
//!   [`net::WireClient`]) with exact f64 bit patterns (shared [`codec`])
//!   and typed [`DapError`] rejections across the wire.
//! * [`storage`] — durability: a write-ahead journal behind a pluggable
//!   [`StorageBackend`] (memory and append-only-file implementations),
//!   [`SessionPart`] checkpoints that compact it, and
//!   [`storage::DurableSession`] recovery that restores a killed daemon's
//!   session bit-for-bit.
//! * [`secagg`] — the multi-aggregator trust tier: additive `u64` secret
//!   sharing of the integer report histograms ([`ShareSplitter`] /
//!   [`MaskedPart`]) so a session can run in masked mode where no single
//!   daemon — nor its journal — ever holds a plaintext report, yet the
//!   reconstructed aggregate finalizes bit-identically.
//! * [`chaos`] — fault injection: [`ChaosProxy`], a deterministic seeded
//!   TCP proxy that drops, delays, stalls and resets connections per a
//!   [`ChaosSchedule`], so the retry/replay machinery's exactness claims
//!   are tested against real socket failures, not mocks.
//!
//! The [`baseline`] module implements the §IV two-budget protocol (and its
//! security flaw against probing-aware attackers, which motivates DAP), the
//! [`categorical`] module the k-RR frequency-estimation extension, the
//! [`sw`] module the Square-Wave extension, and [`ima`] the EMF + k-means
//! integration against input-manipulation attacks.

pub mod accountant;
pub mod aggregation;
pub mod baseline;
pub mod categorical;
pub mod chaos;
pub mod client;
pub mod codec;
pub mod error;
pub mod grouping;
pub mod ima;
pub mod net;
pub mod parallel;
pub mod population;
pub mod protocol;
pub mod scheme;
pub mod secagg;
pub mod session;
pub mod storage;
pub mod sw;

pub use accountant::{BudgetError, PrivacyAccountant};
pub use aggregation::{aggregate, Weighting};
pub use baseline::{BaselineConfig, BaselineProtocol};
pub use client::ClientAssignment;
pub use error::DapError;
pub use grouping::GroupPlan;
pub use parallel::parallel_map;
pub use population::Population;
pub use protocol::{Dap, DapConfig, DapConfigBuilder, DapOutput, GroupReport, PreparedReports};
pub use scheme::{GroupHistogram, Scheme};
pub use chaos::{ChaosProxy, ChaosSchedule, Fault};
pub use net::{
    Deadlines, RetryPolicy, ServeOptions, WireClient, WireError, WireSession,
};
pub use secagg::{MaskedGroup, MaskedPart, SecaggRole, SeedCommitment, ShareSplitter};
pub use session::{DapSession, EstimationMode, PartGroup, SessionPart};
pub use storage::{
    DurableOptions, DurableSession, FaultBackend, FileBackend, Journal, MemoryBackend,
    Recovery, StorageBackend,
};
pub use sw::SwDapConfig;
