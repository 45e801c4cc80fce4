//! Typed errors for the DAP service surface.
//!
//! The protocol layer is the part of the workspace a deployment actually
//! links against — a collector ingesting untrusted client reports must be
//! able to reject malformed input without tearing the process down. Every
//! fallible operation on [`crate::DapSession`], the [`crate::Dap`] driver
//! and the config builders reports through [`DapError`]; panics are
//! reserved for internal invariants.

use crate::accountant::BudgetError;
use dap_ldp::LdpError;
use std::fmt;

/// Errors produced by DAP configuration, ingestion and finalization.
#[derive(Debug, Clone, PartialEq)]
pub enum DapError {
    /// The budget pair violates `ε ≥ ε₀ > 0` (or is not finite).
    InvalidBudget {
        /// Global per-user budget ε.
        eps: f64,
        /// Minimum group budget ε₀.
        eps0: f64,
    },
    /// A configuration field failed validation.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// A protocol run was asked to aggregate zero users.
    EmptyPopulation,
    /// A group index outside the session's [`crate::GroupPlan`].
    UnknownGroup {
        /// The offending index.
        group: usize,
        /// Number of groups in the plan.
        groups: usize,
    },
    /// A report fell outside the group mechanism's output domain — by
    /// Definition 2 even Byzantine users are confined to `[DL, DR]`, so the
    /// aggregator drops such reports at the door.
    ReportOutOfRange {
        /// The group the report was addressed to.
        group: usize,
        /// The offending report value.
        report: f64,
        /// Inclusive lower end of the group's output domain.
        lo: f64,
        /// Inclusive upper end of the group's output domain.
        hi: f64,
    },
    /// More reports than the group plan solicited (`|G_t|·k_t`) — extra
    /// traffic is a protocol violation, not data.
    QuotaExceeded {
        /// The over-full group.
        group: usize,
        /// The group's solicited report volume.
        quota: usize,
        /// Reports already accepted.
        ingested: usize,
        /// Size of the rejected submission.
        attempted: usize,
    },
    /// A sequence-numbered batch re-sent a sequence the session already
    /// applied — the retry was dedup'd, and the sender may treat the
    /// original submission as acknowledged.
    DuplicateSequence {
        /// The coordinator channel the batch arrived on.
        channel: u64,
        /// The re-sent sequence number.
        seq: u64,
        /// The highest sequence the session has applied for the channel.
        last: u64,
    },
    /// A sequence-numbered batch skipped ahead — an earlier batch on the
    /// channel was never applied, so accepting this one would silently
    /// lose reports.
    SequenceGap {
        /// The coordinator channel the batch arrived on.
        channel: u64,
        /// The out-of-order sequence number.
        seq: u64,
        /// The sequence the session expected next.
        expected: u64,
    },
    /// Sharded sessions being merged disagree on config or group plan.
    SessionMismatch {
        /// What differed.
        what: &'static str,
    },
    /// A plaintext operation reached a masked (secret-shared) session, or
    /// a masked-share operation reached a plaintext session. The two modes
    /// hold incompatible per-group state, so the frame is refused instead
    /// of being misapplied — in particular a plaintext report can never be
    /// accumulated (or journaled) by a share server.
    ModeMismatch {
        /// Whether the *session* is in masked mode (`true`: a plaintext
        /// frame was refused; `false`: a masked frame was refused).
        masked: bool,
    },
    /// The durability layer ([`crate::storage`]) failed: a journal append
    /// did not complete, a record or checkpoint is corrupt, or recovery
    /// found state that does not belong to this deployment.
    Journal {
        /// Byte offset into the journal where the problem was detected
        /// (0 when the failure is not positional, e.g. a backend I/O
        /// error or a checkpoint that fails to apply).
        at: u64,
        /// What went wrong.
        reason: String,
    },
    /// An underlying LDP mechanism rejected its parameters.
    Ldp(LdpError),
    /// A simulated user would exceed their privacy budget.
    Budget(BudgetError),
}

impl DapError {
    /// Every `what` a [`DapError::SessionMismatch`] can carry, in one
    /// place: the session-construction checks, the field-by-field merge
    /// comparisons ([`crate::DapConfig::diff_field`],
    /// [`crate::GroupPlan::diff_field`]) and the serialized-part checks.
    /// The wire layer ([`crate::net`]) round-trips a mismatch by index
    /// into this table, which is what keeps the variant's `&'static str`
    /// intact across a network hop.
    pub const MISMATCH_FIELDS: [&'static str; 21] = [
        "zero sessions (nothing to merge)",
        "config budgets and group plan",
        "config eps",
        "config eps0",
        "config scheme",
        "config weighting",
        "config o_prime",
        "config max_d_out",
        "config clamp_to_input",
        "config estimation mode",
        "plan budgets",
        "plan reports-per-user",
        "plan user assignment",
        "mechanism output grids",
        "state digest",
        "part group count",
        "part histogram resolution",
        "share resolution",
        "secagg topology",
        "seed commitment",
        "part histogram values",
    ];
}

impl fmt::Display for DapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DapError::InvalidBudget { eps, eps0 } => {
                write!(f, "need ε ≥ ε₀ > 0, got ε = {eps}, ε₀ = {eps0}")
            }
            DapError::InvalidConfig { field, reason } => {
                write!(f, "invalid config field `{field}`: {reason}")
            }
            DapError::EmptyPopulation => write!(f, "empty population"),
            DapError::UnknownGroup { group, groups } => {
                write!(f, "group {group} out of range for a {groups}-group plan")
            }
            DapError::ReportOutOfRange { group, report, lo, hi } => {
                write!(f, "report {report} for group {group} outside output domain [{lo}, {hi}]")
            }
            DapError::QuotaExceeded { group, quota, ingested, attempted } => {
                write!(
                    f,
                    "group {group} quota exceeded: {ingested} ingested + {attempted} \
                     attempted > {quota} solicited"
                )
            }
            DapError::DuplicateSequence { channel, seq, last } => {
                write!(
                    f,
                    "duplicate sequence {seq} on channel {channel:#018x}: \
                     already applied through {last}"
                )
            }
            DapError::SequenceGap { channel, seq, expected } => {
                write!(
                    f,
                    "sequence gap on channel {channel:#018x}: got {seq}, expected {expected}"
                )
            }
            DapError::SessionMismatch { what } => {
                write!(f, "sessions cannot be merged: {what} differ")
            }
            DapError::ModeMismatch { masked } => {
                if *masked {
                    write!(f, "session is in masked (secret-shared) mode: plaintext frame refused")
                } else {
                    write!(f, "session is in plaintext mode: masked-share frame refused")
                }
            }
            DapError::Journal { at, reason } => {
                write!(f, "journal error at byte {at}: {reason}")
            }
            DapError::Ldp(e) => write!(f, "mechanism error: {e}"),
            DapError::Budget(e) => write!(f, "privacy budget violation: {e}"),
        }
    }
}

impl std::error::Error for DapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DapError::Ldp(e) => Some(e),
            DapError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LdpError> for DapError {
    fn from(e: LdpError) -> Self {
        DapError::Ldp(e)
    }
}

impl From<BudgetError> for DapError {
    fn from(e: BudgetError) -> Self {
        DapError::Budget(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DapError::InvalidBudget { eps: 0.01, eps0: 0.0625 };
        assert!(e.to_string().contains("ε ≥ ε₀"));
        let e = DapError::ReportOutOfRange { group: 2, report: 9.0, lo: -3.0, hi: 3.0 };
        assert!(e.to_string().contains("group 2") && e.to_string().contains("[-3, 3]"));
        let e = DapError::QuotaExceeded { group: 0, quota: 10, ingested: 10, attempted: 1 };
        assert!(e.to_string().contains("quota"));
        assert_eq!(DapError::EmptyPopulation.to_string(), "empty population");
        let e = DapError::Journal { at: 34, reason: "record digest mismatch".into() };
        assert!(e.to_string().contains("journal") && e.to_string().contains("byte 34"), "{e}");
        let e = DapError::DuplicateSequence { channel: 0xabcd, seq: 4, last: 7 };
        assert!(e.to_string().contains("duplicate sequence 4"), "{e}");
        assert!(e.to_string().contains("through 7"), "{e}");
        let e = DapError::SequenceGap { channel: 0xabcd, seq: 9, expected: 5 };
        assert!(e.to_string().contains("got 9, expected 5"), "{e}");
        let e = DapError::ModeMismatch { masked: true };
        assert!(e.to_string().contains("masked"), "{e}");
        let e = DapError::ModeMismatch { masked: false };
        assert!(e.to_string().contains("plaintext"), "{e}");
    }

    #[test]
    fn wraps_underlying_errors_with_sources() {
        use std::error::Error;
        let e: DapError = LdpError::InvalidEpsilon(-1.0).into();
        assert!(matches!(e, DapError::Ldp(_)));
        assert!(e.source().is_some());
        let e: DapError =
            BudgetError { user: 3, spent: 1.0, attempted: 0.5, cap: 1.0 }.into();
        assert!(matches!(e, DapError::Budget(_)));
        assert!(e.to_string().contains("user 3"));
    }
}
