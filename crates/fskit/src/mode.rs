//! The six PFS parallel access modes (§3.2 of the paper).
//!
//! | mode       | file pointer | ordering            | request size |
//! |------------|--------------|---------------------|--------------|
//! | `M_UNIX`   | per node     | unrestricted        | variable     |
//! | `M_LOG`    | shared       | first-come-first-serve | variable  |
//! | `M_SYNC`   | shared       | node-number order   | variable     |
//! | `M_RECORD` | per node     | first-come-first-serve | fixed     |
//! | `M_GLOBAL` | shared       | all nodes, same data | variable    |
//! | `M_ASYNC`  | per node     | unrestricted, no atomicity | variable |
//!
//! The mode determines how `sio-pfs` resolves the offset of a pointer-based
//! read/write and what coordination cost the operation pays. The paper's
//! discussion sections hinge on these semantics: ESCAT chose `M_UNIX` +
//! computed seeks over `M_RECORD` so each node's data stays contiguous
//! (§5.2); RENDER avoided `M_RECORD` because it forces all nodes to
//! participate (§6.2).

/// A PFS parallel file access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum AccessMode {
    /// Independent file pointer per node; no coordination.
    MUnix = 0,
    /// Shared file pointer; accesses first-come-first-serve; variable size.
    MLog = 1,
    /// Shared file pointer; accesses proceed in node-number order.
    MSync = 2,
    /// Independent pointers; fixed-size records laid out in node-order
    /// groups ("for N nodes, the file consists of groups of N records, with
    /// each group written in node order").
    MRecord = 3,
    /// Shared pointer; all nodes perform the same operation on the same
    /// data: one physical I/O plus an internal broadcast.
    MGlobal = 4,
    /// Independent pointers; unrestricted and variable size; atomicity not
    /// preserved. The cheapest mode.
    MAsync = 5,
}

impl AccessMode {
    /// All modes, in the paper's listing order.
    pub const ALL: [AccessMode; 6] = [
        AccessMode::MUnix,
        AccessMode::MLog,
        AccessMode::MSync,
        AccessMode::MRecord,
        AccessMode::MGlobal,
        AccessMode::MAsync,
    ];

    /// Whether all opening nodes share one file pointer.
    pub fn shared_pointer(self) -> bool {
        matches!(
            self,
            AccessMode::MLog | AccessMode::MSync | AccessMode::MGlobal
        )
    }

    /// Whether accesses must be fixed-size records.
    pub fn fixed_records(self) -> bool {
        self == AccessMode::MRecord
    }

    /// Whether an access is a collective over all openers (one physical I/O).
    pub fn collective(self) -> bool {
        self == AccessMode::MGlobal
    }

    /// Whether accesses must proceed in node-number order.
    pub fn node_ordered(self) -> bool {
        self == AccessMode::MSync
    }

    /// Mode code carried in [`paragon_sim::IoRequest::hint`] at open.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Decode a mode code.
    pub fn from_code(code: u32) -> Option<AccessMode> {
        AccessMode::ALL.into_iter().find(|m| m.code() == code)
    }

    /// PFS-style name.
    pub fn name(self) -> &'static str {
        match self {
            AccessMode::MUnix => "M_UNIX",
            AccessMode::MLog => "M_LOG",
            AccessMode::MSync => "M_SYNC",
            AccessMode::MRecord => "M_RECORD",
            AccessMode::MGlobal => "M_GLOBAL",
            AccessMode::MAsync => "M_ASYNC",
        }
    }
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for m in AccessMode::ALL {
            assert_eq!(AccessMode::from_code(m.code()), Some(m));
        }
        assert_eq!(AccessMode::from_code(99), None);
    }

    #[test]
    fn semantics_match_paper_table() {
        use AccessMode::*;
        // Shared pointers: M_LOG, M_SYNC, M_GLOBAL.
        assert!(!MUnix.shared_pointer());
        assert!(MLog.shared_pointer());
        assert!(MSync.shared_pointer());
        assert!(!MRecord.shared_pointer());
        assert!(MGlobal.shared_pointer());
        assert!(!MAsync.shared_pointer());
        // Fixed records only in M_RECORD.
        assert!(MRecord.fixed_records());
        assert!(!MLog.fixed_records());
        // Node order only in M_SYNC; collective only in M_GLOBAL.
        assert!(MSync.node_ordered());
        assert!(!MLog.node_ordered());
        assert!(MGlobal.collective());
        assert!(!MSync.collective());
    }

    #[test]
    fn names() {
        assert_eq!(AccessMode::MUnix.to_string(), "M_UNIX");
        assert_eq!(AccessMode::MRecord.to_string(), "M_RECORD");
    }
}
