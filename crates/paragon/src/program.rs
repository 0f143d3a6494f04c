//! Node programs: the execution model for simulated applications.
//!
//! A [`NodeProgram`] is a resumable state machine running on one compute
//! node. Each time the node is runnable, the engine calls
//! [`NodeProgram::step`] with a [`Resume`] describing why the node woke up,
//! and the program answers with its next [`Step`]: compute for a while, issue
//! an I/O call, enter a barrier, send or receive a message, join a broadcast,
//! or finish.
//!
//! Most application skeletons in `sio-apps` don't implement the trait by
//! hand: they build a [`ScriptProgram`] — a precomputed list of [`ScriptOp`]s
//! with automatic bookkeeping for asynchronous-I/O tokens.

use crate::time::SimDuration;
use crate::NodeId;
use std::collections::VecDeque;

/// Identifier of a node group used for barriers and collectives. Group 0 is
/// always "all compute nodes"; applications may register more (RENDER uses a
/// renderer group that excludes the gateway node).
pub type GroupId = u32;

/// Identifier of an outstanding asynchronous I/O operation.
pub type IoToken = u64;

/// The file-system verbs a node can invoke. Interpretation (pointer
/// semantics, striping, coordination) belongs to the attached
/// [`crate::engine::IoService`] — the engine only routes requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoVerb {
    /// Open (or create) a registered file. `hint` carries the service's
    /// access-mode code.
    Open,
    /// Close the file.
    Close,
    /// Read `bytes` at the position implied by the service's pointer
    /// semantics (or at `offset` if supplied).
    Read,
    /// Write `bytes`, likewise.
    Write,
    /// Move this node's file pointer to `offset`.
    Seek,
    /// Flush buffered data (Fortran `forflush`).
    Flush,
    /// Query file size (`lsize`).
    Lsize,
    /// Commit: make the file's data durable. Unlike `Flush`, a `Sync`
    /// acknowledges only once every outstanding write for the file has
    /// reached a healthy disk array — the primitive checkpoint commits
    /// are built on.
    Sync,
}

/// One file-system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// File identifier (registered with the service before the run).
    pub file: u32,
    /// Operation.
    pub verb: IoVerb,
    /// Explicit offset: required for `Seek`; optional for reads/writes
    /// (`None` = use the file-pointer semantics of the service's access
    /// mode, which is how the paper's applications operate).
    pub offset: Option<u64>,
    /// Byte count for data operations.
    pub bytes: u64,
    /// Service-specific hint (access mode at open; 0 otherwise).
    pub hint: u32,
}

impl IoRequest {
    /// Open `file` with a service-specific mode code.
    pub fn open(file: u32, mode: u32) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Open,
            offset: None,
            bytes: 0,
            hint: mode,
        }
    }

    /// Close `file`.
    pub fn close(file: u32) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Close,
            offset: None,
            bytes: 0,
            hint: 0,
        }
    }

    /// Read `bytes` at the current pointer.
    pub fn read(file: u32, bytes: u64) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Read,
            offset: None,
            bytes,
            hint: 0,
        }
    }

    /// Write `bytes` at the current pointer.
    pub fn write(file: u32, bytes: u64) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Write,
            offset: None,
            bytes,
            hint: 0,
        }
    }

    /// Seek to `offset`.
    pub fn seek(file: u32, offset: u64) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Seek,
            offset: Some(offset),
            bytes: 0,
            hint: 0,
        }
    }

    /// Flush buffered writes.
    pub fn flush(file: u32) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Flush,
            offset: None,
            bytes: 0,
            hint: 0,
        }
    }

    /// Commit `file` to durable storage (wait out in-flight writes and
    /// write-behind buffers).
    pub fn sync(file: u32) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Sync,
            offset: None,
            bytes: 0,
            hint: 0,
        }
    }

    /// Query file size.
    pub fn lsize(file: u32) -> IoRequest {
        IoRequest {
            file,
            verb: IoVerb::Lsize,
            offset: None,
            bytes: 0,
            hint: 0,
        }
    }
}

/// Completion information for an I/O call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoResult {
    /// Bytes actually moved.
    pub bytes: u64,
    /// Time the request spent queued behind other requests.
    pub queued: SimDuration,
    /// Time the request spent in service (disk + transfer + software).
    pub service: SimDuration,
    /// `Some` when the request failed (faulted hardware); `bytes` then
    /// reflects what was actually moved (usually 0).
    pub fault: Option<IoFault>,
}

/// Why an I/O call failed. Programs receive this through
/// [`Resume::IoDone`] / [`Resume::IoWaited`] instead of a panic, so a
/// degraded run keeps its deterministic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Redundancy exhausted (e.g. second RAID-3 member failure): the data
    /// cannot be reconstructed.
    DataLoss,
    /// The request exceeded the configured hard deadline
    /// ([`crate::calibration::FaultParams::request_timeout`]).
    Timeout,
    /// No server (primary or failover buddy) would accept the request.
    Unavailable,
}

/// Why a node was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// First activation at t = 0.
    Start,
    /// A `Compute` step finished.
    Computed,
    /// A blocking I/O step completed.
    IoDone(IoResult),
    /// An asynchronous I/O was issued; the token names the in-flight op.
    IoIssued(IoToken),
    /// An awaited asynchronous I/O completed.
    IoWaited(IoResult),
    /// A barrier completed.
    BarrierDone,
    /// A message was handed to the network.
    Sent,
    /// A message arrived; payload size in bytes.
    Received(u64),
    /// A broadcast collective completed on this node.
    BroadcastDone,
}

/// What a node wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Busy-compute for a duration, then resume.
    Compute(SimDuration),
    /// Blocking I/O call.
    Io(IoRequest),
    /// Non-blocking I/O call: node resumes immediately with
    /// [`Resume::IoIssued`]; completion is collected with [`Step::IoWait`].
    IoAsync(IoRequest),
    /// Block until the asynchronous operation identified by the token
    /// completes (resumes immediately if it already has).
    IoWait(IoToken),
    /// Enter a barrier across a node group.
    Barrier(GroupId),
    /// Send `bytes` to another node (eager, buffered: resumes after the send
    /// overhead, not after delivery).
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload size.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Receive a message with a matching tag (blocks until one arrives).
    Recv {
        /// Source node.
        from: NodeId,
        /// Match tag.
        tag: u32,
    },
    /// Join a broadcast over a group: the root contributes `bytes`; all
    /// group members block until the broadcast completes.
    Broadcast {
        /// Broadcast root (must be in the group).
        root: NodeId,
        /// Payload size.
        bytes: u64,
        /// Group over which the broadcast runs.
        group: GroupId,
    },
    /// Program finished; the node idles forever.
    Done,
}

/// A resumable program running on one node.
pub trait NodeProgram {
    /// Produce the next step. `node` is this node's id, `resume` explains the
    /// wake-up (and carries results).
    fn step(&mut self, node: NodeId, resume: Resume) -> Step;
}

/// Script operations: like [`Step`] but with async-token plumbing handled by
/// [`ScriptProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Busy-compute.
    Compute(SimDuration),
    /// Blocking I/O.
    Io(IoRequest),
    /// Issue asynchronous I/O; its token is pushed on an internal FIFO.
    IoAsync(IoRequest),
    /// Wait for the *oldest* outstanding asynchronous I/O.
    WaitOldest,
    /// Wait for every outstanding asynchronous I/O (in issue order).
    WaitAll,
    /// Barrier over a group.
    Barrier(GroupId),
    /// Eager send.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload size.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Blocking receive.
    Recv {
        /// Source node.
        from: NodeId,
        /// Match tag.
        tag: u32,
    },
    /// Broadcast collective.
    Broadcast {
        /// Root node.
        root: NodeId,
        /// Payload size.
        bytes: u64,
        /// Group.
        group: GroupId,
    },
}

/// A [`NodeProgram`] that replays a precomputed operation list.
///
/// The list is read in place through a cursor, so a borrowed slice
/// (`ScriptProgram::new(ops.as_slice())`) replays exactly like an owned
/// `Vec` without copying the script.
#[derive(Debug, Default)]
pub struct ScriptProgram<Ops: AsRef<[ScriptOp]> = Vec<ScriptOp>> {
    ops: Ops,
    /// Index of the next operation to issue.
    next: usize,
    outstanding: VecDeque<IoToken>,
    /// Whether a `WaitAll` is still draining outstanding tokens.
    draining: bool,
}

impl<Ops: AsRef<[ScriptOp]>> ScriptProgram<Ops> {
    /// Build from an operation list.
    pub fn new(ops: Ops) -> ScriptProgram<Ops> {
        ScriptProgram {
            ops,
            next: 0,
            outstanding: VecDeque::new(),
            draining: false,
        }
    }

    /// Remaining (not yet issued) operations.
    pub fn remaining(&self) -> usize {
        self.ops.as_ref().len() - self.next
    }
}

impl<Ops: AsRef<[ScriptOp]>> NodeProgram for ScriptProgram<Ops> {
    fn step(&mut self, _node: NodeId, resume: Resume) -> Step {
        // Record tokens from async issues.
        if let Resume::IoIssued(tok) = resume {
            self.outstanding.push_back(tok);
        }
        // If we're in the middle of a WaitAll, keep draining.
        if self.draining {
            if let Some(tok) = self.outstanding.pop_front() {
                return Step::IoWait(tok);
            }
            self.draining = false;
        }
        loop {
            let Some(&op) = self.ops.as_ref().get(self.next) else {
                return Step::Done;
            };
            self.next += 1;
            return match op {
                ScriptOp::Compute(d) => Step::Compute(d),
                ScriptOp::Io(req) => Step::Io(req),
                ScriptOp::IoAsync(req) => Step::IoAsync(req),
                ScriptOp::WaitOldest => match self.outstanding.pop_front() {
                    Some(tok) => Step::IoWait(tok),
                    None => continue, // nothing outstanding: no-op
                },
                ScriptOp::WaitAll => match self.outstanding.pop_front() {
                    Some(tok) => {
                        self.draining = true;
                        Step::IoWait(tok)
                    }
                    None => continue,
                },
                ScriptOp::Barrier(g) => Step::Barrier(g),
                ScriptOp::Send { to, bytes, tag } => Step::Send { to, bytes, tag },
                ScriptOp::Recv { from, tag } => Step::Recv { from, tag },
                ScriptOp::Broadcast { root, bytes, group } => {
                    Step::Broadcast { root, bytes, group }
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders() {
        let r = IoRequest::open(3, 2);
        assert_eq!(r.verb, IoVerb::Open);
        assert_eq!(r.hint, 2);
        assert_eq!(IoRequest::read(1, 64).bytes, 64);
        assert_eq!(IoRequest::seek(1, 4096).offset, Some(4096));
        assert_eq!(IoRequest::write(1, 8).verb, IoVerb::Write);
        assert_eq!(IoRequest::close(1).verb, IoVerb::Close);
        assert_eq!(IoRequest::flush(1).verb, IoVerb::Flush);
        assert_eq!(IoRequest::lsize(1).verb, IoVerb::Lsize);
    }

    #[test]
    fn script_replays_in_order() {
        let mut p = ScriptProgram::new(vec![
            ScriptOp::Compute(SimDuration(5)),
            ScriptOp::Io(IoRequest::read(1, 10)),
            ScriptOp::Barrier(0),
        ]);
        assert_eq!(p.remaining(), 3);
        assert!(matches!(
            p.step(0, Resume::Start),
            Step::Compute(SimDuration(5))
        ));
        assert!(matches!(p.step(0, Resume::Computed), Step::Io(_)));
        assert!(matches!(
            p.step(0, Resume::IoDone(IoResult::default())),
            Step::Barrier(0)
        ));
        assert!(matches!(p.step(0, Resume::BarrierDone), Step::Done));
        // Done is sticky.
        assert!(matches!(p.step(0, Resume::Computed), Step::Done));
    }

    #[test]
    fn script_tracks_async_tokens_fifo() {
        let mut p = ScriptProgram::new(vec![
            ScriptOp::IoAsync(IoRequest::read(1, 10)),
            ScriptOp::IoAsync(IoRequest::read(1, 20)),
            ScriptOp::WaitOldest,
            ScriptOp::WaitOldest,
        ]);
        assert!(matches!(p.step(0, Resume::Start), Step::IoAsync(_)));
        assert!(matches!(p.step(0, Resume::IoIssued(11)), Step::IoAsync(_)));
        // Waits come back in issue order.
        assert_eq!(p.step(0, Resume::IoIssued(22)), Step::IoWait(11));
        assert_eq!(
            p.step(0, Resume::IoWaited(IoResult::default())),
            Step::IoWait(22)
        );
        assert!(matches!(
            p.step(0, Resume::IoWaited(IoResult::default())),
            Step::Done
        ));
    }

    #[test]
    fn wait_all_drains_every_token() {
        let mut p = ScriptProgram::new(vec![
            ScriptOp::IoAsync(IoRequest::read(1, 1)),
            ScriptOp::IoAsync(IoRequest::read(1, 2)),
            ScriptOp::IoAsync(IoRequest::read(1, 3)),
            ScriptOp::WaitAll,
            ScriptOp::Compute(SimDuration(1)),
        ]);
        p.step(0, Resume::Start);
        p.step(0, Resume::IoIssued(1));
        p.step(0, Resume::IoIssued(2));
        assert_eq!(p.step(0, Resume::IoIssued(3)), Step::IoWait(1));
        assert_eq!(
            p.step(0, Resume::IoWaited(IoResult::default())),
            Step::IoWait(2)
        );
        assert_eq!(
            p.step(0, Resume::IoWaited(IoResult::default())),
            Step::IoWait(3)
        );
        assert!(matches!(
            p.step(0, Resume::IoWaited(IoResult::default())),
            Step::Compute(_)
        ));
    }

    #[test]
    fn wait_with_nothing_outstanding_is_noop() {
        let mut p = ScriptProgram::new(vec![
            ScriptOp::WaitOldest,
            ScriptOp::WaitAll,
            ScriptOp::Compute(SimDuration(9)),
        ]);
        // Both waits skip straight to the compute.
        assert!(matches!(
            p.step(0, Resume::Start),
            Step::Compute(SimDuration(9))
        ));
    }

    /// Drive a script to `Done`, answering each step with the resume the
    /// engine would give it; returns every step with the `remaining()` count
    /// right after it.
    fn replay<Ops: AsRef<[ScriptOp]>>(p: &mut ScriptProgram<Ops>) -> Vec<(Step, usize)> {
        let mut log = Vec::new();
        let mut resume = Resume::Start;
        let mut next_token = 100;
        loop {
            let step = p.step(0, resume);
            log.push((step, p.remaining()));
            resume = match step {
                Step::Compute(_) => Resume::Computed,
                Step::Io(_) => Resume::IoDone(IoResult::default()),
                Step::IoAsync(_) => {
                    next_token += 1;
                    Resume::IoIssued(next_token)
                }
                Step::IoWait(_) => Resume::IoWaited(IoResult::default()),
                Step::Barrier(_) => Resume::BarrierDone,
                Step::Send { .. } => Resume::Sent,
                Step::Recv { .. } => Resume::Received(8),
                Step::Broadcast { .. } => Resume::BroadcastDone,
                Step::Done => return log,
            };
        }
    }

    #[test]
    fn borrowed_script_replays_like_owned() {
        let ops = vec![
            // Waits with nothing outstanding are no-ops.
            ScriptOp::WaitOldest,
            ScriptOp::WaitAll,
            ScriptOp::Compute(SimDuration(3)),
            ScriptOp::IoAsync(IoRequest::read(1, 1)),
            ScriptOp::IoAsync(IoRequest::read(1, 2)),
            ScriptOp::IoAsync(IoRequest::read(1, 3)),
            ScriptOp::WaitOldest,
            // Drains the two tokens still outstanding.
            ScriptOp::WaitAll,
            ScriptOp::WaitOldest,
            ScriptOp::Io(IoRequest::write(2, 4)),
            ScriptOp::Barrier(0),
            ScriptOp::Send {
                to: 1,
                bytes: 8,
                tag: 7,
            },
            ScriptOp::Recv { from: 1, tag: 7 },
            ScriptOp::Broadcast {
                root: 0,
                bytes: 16,
                group: 0,
            },
            ScriptOp::IoAsync(IoRequest::read(1, 5)),
            ScriptOp::WaitAll,
        ];
        let mut owned = ScriptProgram::new(ops.clone());
        let mut borrowed = ScriptProgram::new(ops.as_slice());
        assert_eq!(owned.remaining(), ops.len());
        assert_eq!(borrowed.remaining(), ops.len());
        let a = replay(&mut owned);
        let b = replay(&mut borrowed);
        assert_eq!(a, b);
        let waits: Vec<Step> = a
            .iter()
            .map(|&(step, _)| step)
            .filter(|step| matches!(step, Step::IoWait(_)))
            .collect();
        assert_eq!(
            waits,
            vec![
                Step::IoWait(101),
                Step::IoWait(102),
                Step::IoWait(103),
                Step::IoWait(104)
            ]
        );
        assert_eq!(a.last(), Some(&(Step::Done, 0)));
        // Done is sticky on both.
        assert_eq!(owned.step(0, Resume::Computed), Step::Done);
        assert_eq!(borrowed.step(0, Resume::Computed), Step::Done);
    }
}
