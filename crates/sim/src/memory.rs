//! The register arena: the shared memory `Ξ` of the model.
//!
//! Registers are allocated before the run, hold either a raw `u64` word or a
//! type-erased value, and are accessed atomically (the simulator is
//! single-threaded; atomicity is by construction). Accounting (read/write
//! counts, versions) feeds the trace.
//!
//! # The typed word fast path, and the arena layout
//!
//! Every register of the paper's protocols (Figure 2's `Heartbeat[p]` and
//! `Counter[A, q]`, ballot numbers, round counters) is a `u64`, and the
//! k-anti-Ω inner loop reads `|Π^k_n|·n` of them per iteration — so the
//! register representation sits on the hottest path of the whole simulator.
//! Two layout decisions follow:
//!
//! 1. **Unboxed words.** `u64` registers are stored as plain words:
//!    [`Memory::read_word`] / [`Memory::write_word`] touch them with a byte
//!    compare and an array load (no vtable, no downcast, no clone), and the
//!    generic [`Memory::read`] / [`Memory::write`] route `T = u64` to the
//!    same representation via a compile-time [`TypeId`] check that
//!    monomorphizes away.
//! 2. **Structure of arrays.** The arena keeps parallel arrays — kinds
//!    (1 byte), word values (8 bytes), read/write counts, and the *cold*
//!    metadata (names, disciplines, boxed values) off to the side — instead
//!    of an array of register structs. A protocol that sweeps hundreds of
//!    registers per iteration (the Figure 2 counter matrix) then streams a
//!    few KiB of dense values rather than dragging each register's name and
//!    discipline through the cache with it: the per-step cost of the sweep
//!    is the load, the count bump, and nothing else.
//!
//! Handles, disciplines, and error behavior are independent of the layout.

use std::any::{Any, TypeId};

use st_core::ProcessId;

use crate::error::SimError;
use crate::name::RegName;
use crate::register::{Reg, RegValue, WriteDiscipline};

/// Storage class of a register: words live inline in the hot cell,
/// everything else is boxed in the side table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Word,
    Boxed,
}

/// The register arena (see the module docs for the layout): genuine
/// structure-of-arrays — kinds, payloads, and access counts in parallel
/// dense vectors, so a scan streams 8-byte values (plus a 1-byte kind
/// check and an 8-byte count bump in their own sequential streams) instead
/// of dragging a 32-byte per-register struct through the cache with every
/// read. The counter-matrix scan is the hottest loop in the repository;
/// the split layout roughly halves its memory traffic and lets the span
/// paths compile to `memcpy` + a vectorized increment loop.
#[derive(Default)]
pub struct Memory {
    /// Storage class per register (1 byte, dense).
    kinds: Vec<Kind>,
    /// The value for `Kind::Word`, the index into `Memory::boxed` for
    /// `Kind::Boxed`.
    payloads: Vec<u64>,
    /// Completed reads per register.
    reads: Vec<u64>,
    /// Completed writes per register (version counter).
    writes: Vec<u64>,
    /// Write discipline per register (checked on writes only).
    disciplines: Vec<WriteDiscipline>,
    /// Allocation names (cold: error messages and stats), rendered only
    /// when read.
    names: Vec<RegName>,
    /// Side table for non-word values.
    boxed: Vec<Box<dyn Any>>,
}

/// Per-register access statistics, reported after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterStats {
    /// Name given at allocation (renders with `Display`).
    pub name: RegName,
    /// Completed writes.
    pub writes: u64,
    /// Completed reads.
    pub reads: u64,
}

fn is_word<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<u64>()
}

/// Converts a `T` proven (by [`is_word`]) to be `u64`. The `dyn Any` hop is
/// how safe Rust spells a checked transmute; it compiles to a move once
/// monomorphized.
fn to_word<T: RegValue>(value: T) -> u64 {
    *(&value as &dyn Any)
        .downcast_ref::<u64>()
        .expect("caller checked T = u64")
}

/// Inverse of [`to_word`].
fn from_word<T: RegValue>(word: u64) -> T {
    (&word as &dyn Any)
        .downcast_ref::<T>()
        .expect("caller checked T = u64")
        .clone()
}

impl Memory {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of allocated registers.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if no register has been allocated.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Reserves room for `additional` more registers in every per-register
    /// array, so a batch allocation grows each array once.
    pub fn reserve(&mut self, additional: usize) {
        self.kinds.reserve(additional);
        self.payloads.reserve(additional);
        self.reads.reserve(additional);
        self.writes.reserve(additional);
        self.disciplines.reserve(additional);
        self.names.reserve(additional);
    }

    /// Allocates a register with the given write discipline and initial
    /// value, returning its typed handle. `u64` values take the word fast
    /// path (see the module docs).
    pub fn alloc<T: RegValue>(
        &mut self,
        name: impl Into<RegName>,
        discipline: WriteDiscipline,
        init: T,
    ) -> Reg<T> {
        let index = self.kinds.len() as u32;
        let (kind, payload) = if is_word::<T>() {
            (Kind::Word, to_word(init))
        } else {
            let slot = self.boxed.len() as u64;
            self.boxed.push(Box::new(init));
            (Kind::Boxed, slot)
        };
        self.kinds.push(kind);
        self.payloads.push(payload);
        self.reads.push(0);
        self.writes.push(0);
        self.disciplines.push(discipline);
        self.names.push(name.into());
        Reg::new(index)
    }

    fn type_mismatch(&self, index: usize) -> SimError {
        SimError::TypeMismatch {
            register: index,
            name: self.names[index].to_string(),
        }
    }

    fn check_writer(&self, index: usize, writer: ProcessId) -> Result<(), SimError> {
        if let WriteDiscipline::SingleWriter(owner) = self.disciplines[index] {
            if owner != writer {
                return Err(SimError::WriteDisciplineViolation {
                    register: index,
                    name: self.names[index].to_string(),
                    owner,
                    writer,
                });
            }
        }
        Ok(())
    }

    /// Atomic read: returns a clone of the current value and counts the
    /// access.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] for a foreign handle,
    /// [`SimError::TypeMismatch`] if `T` differs from the allocation type.
    pub fn read<T: RegValue>(&mut self, reg: Reg<T>) -> Result<T, SimError> {
        if is_word::<T>() {
            // Monomorphizes to the word path for T = u64.
            let forged: Reg<u64> = Reg::new(reg.index);
            return self.read_word(forged).map(from_word);
        }
        let idx = reg.index();
        match self.kinds.get(idx) {
            Some(Kind::Boxed) => {
                let value = self.boxed[self.payloads[idx] as usize]
                    .downcast_ref::<T>()
                    .ok_or_else(|| self.type_mismatch(idx))?
                    .clone();
                self.reads[idx] += 1;
                Ok(value)
            }
            Some(Kind::Word) => Err(self.type_mismatch(idx)),
            None => Err(SimError::UnknownRegister { register: idx }),
        }
    }

    /// Atomic word read: the non-generic fast path for `u64` registers — a
    /// bounds check, a kind compare, and a count bump on one hot cell.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::read`].
    #[inline]
    pub fn read_word(&mut self, reg: Reg<u64>) -> Result<u64, SimError> {
        let idx = reg.index();
        match self.kinds.get(idx) {
            Some(Kind::Word) => {
                self.reads[idx] += 1;
                Ok(self.payloads[idx])
            }
            Some(_) => Err(self.type_mismatch(idx)),
            None => Err(SimError::UnknownRegister { register: idx }),
        }
    }

    /// Atomic write: replaces the value and counts the access, enforcing the
    /// register's write discipline.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`], [`SimError::TypeMismatch`], or
    /// [`SimError::WriteDisciplineViolation`] when a single-writer register
    /// is written by a foreign process.
    pub fn write<T: RegValue>(
        &mut self,
        writer: ProcessId,
        reg: Reg<T>,
        value: T,
    ) -> Result<(), SimError> {
        if is_word::<T>() {
            let forged: Reg<u64> = Reg::new(reg.index);
            return self.write_word(writer, forged, to_word(value));
        }
        let idx = reg.index();
        let kind = *self
            .kinds
            .get(idx)
            .ok_or(SimError::UnknownRegister { register: idx })?;
        self.check_writer(idx, writer)?;
        match kind {
            Kind::Boxed => {
                match self.boxed[self.payloads[idx] as usize].downcast_mut::<T>() {
                    Some(slot) => *slot = value,
                    None => return Err(self.type_mismatch(idx)),
                }
                self.writes[idx] += 1;
                Ok(())
            }
            Kind::Word => Err(self.type_mismatch(idx)),
        }
    }

    /// Atomic reads of `dest.len()` consecutive word registers starting
    /// `offset` slots after `base` — the span form of
    /// [`read_word`](Self::read_word), one bounds check for the whole range
    /// and a tight copy/count loop the compiler can vectorize. Each slot
    /// counts as one completed read, exactly as `dest.len()` calls to
    /// `read_word` would.
    ///
    /// The span is *not* one atomic operation of the model — callers (the
    /// batched SoA drive) are responsible for only using it where the
    /// per-slot reads are known to commute with every concurrently
    /// scheduled operation.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] if the span leaves the arena,
    /// [`SimError::TypeMismatch`] if any slot holds a non-word register. No
    /// access is counted on error.
    pub fn read_word_span(
        &mut self,
        base: Reg<u64>,
        offset: usize,
        dest: &mut [u64],
    ) -> Result<(), SimError> {
        let start = base.index() + offset;
        let end = start + dest.len();
        if end > self.kinds.len() {
            return Err(SimError::UnknownRegister {
                register: end.saturating_sub(1),
            });
        }
        // Three tight passes over the parallel arrays: a 1-byte kind scan,
        // a payload memcpy, and a vectorized count bump — each its own
        // sequential stream.
        if let Some(bad) = self.kinds[start..end].iter().position(|&k| k != Kind::Word) {
            return Err(self.type_mismatch(start + bad));
        }
        dest.copy_from_slice(&self.payloads[start..end]);
        for r in &mut self.reads[start..end] {
            *r += 1;
        }
        Ok(())
    }

    /// Atomic word write: the non-generic fast path for `u64` registers.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::write`].
    #[inline]
    pub fn write_word(
        &mut self,
        writer: ProcessId,
        reg: Reg<u64>,
        value: u64,
    ) -> Result<(), SimError> {
        let idx = reg.index();
        // Single-writer registers are the common case in the paper's
        // protocols; the discipline lives in a cold array, loaded only on
        // writes (reads outnumber writes ~n·|Π^k_n| to 1 in Figure 2).
        match self.disciplines.get(idx) {
            Some(&WriteDiscipline::MultiWriter) => {}
            Some(&WriteDiscipline::SingleWriter(owner)) if owner == writer => {}
            Some(_) => return Err(self.writer_violation(idx, writer)),
            None => return Err(SimError::UnknownRegister { register: idx }),
        }
        match self.kinds[idx] {
            Kind::Word => {
                self.payloads[idx] = value;
                self.writes[idx] += 1;
                Ok(())
            }
            Kind::Boxed => Err(self.type_mismatch(idx)),
        }
    }

    #[cold]
    fn writer_violation(&self, index: usize, writer: ProcessId) -> SimError {
        match self.disciplines[index] {
            WriteDiscipline::SingleWriter(owner) => SimError::WriteDisciplineViolation {
                register: index,
                name: self.names[index].to_string(),
                owner,
                writer,
            },
            WriteDiscipline::MultiWriter => unreachable!("only single-writer can violate"),
        }
    }

    /// Non-step observation of a register (for tests and instrumentation):
    /// does not count as an access.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::read`], minus accounting.
    pub fn peek<T: RegValue>(&self, reg: Reg<T>) -> Result<T, SimError> {
        let idx = reg.index();
        let kind = *self
            .kinds
            .get(idx)
            .ok_or(SimError::UnknownRegister { register: idx })?;
        match kind {
            Kind::Word if is_word::<T>() => Ok(from_word(self.payloads[idx])),
            Kind::Boxed => self.boxed[self.payloads[idx] as usize]
                .downcast_ref::<T>()
                .cloned()
                .ok_or_else(|| self.type_mismatch(idx)),
            Kind::Word => Err(self.type_mismatch(idx)),
        }
    }

    /// Name of a register, rendered.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRegister`] for a foreign handle.
    pub fn name(&self, index: usize) -> Result<String, SimError> {
        self.names
            .get(index)
            .map(RegName::to_string)
            .ok_or(SimError::UnknownRegister { register: index })
    }

    /// Access statistics for all registers, in allocation order.
    pub fn stats(&self) -> Vec<RegisterStats> {
        self.names
            .iter()
            .zip(self.reads.iter().zip(&self.writes))
            .map(|(name, (&reads, &writes))| RegisterStats {
                name: name.clone(),
                writes,
                reads,
            })
            .collect()
    }

    /// Total completed register operations (reads + writes).
    pub fn total_ops(&self) -> u64 {
        self.reads.iter().chain(&self.writes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut m = Memory::new();
        let r = m.alloc("x", WriteDiscipline::MultiWriter, 0u64);
        assert_eq!(m.read(r).unwrap(), 0);
        m.write(p(0), r, 42).unwrap();
        assert_eq!(m.read(r).unwrap(), 42);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn word_fast_path_roundtrip() {
        let mut m = Memory::new();
        let r = m.alloc("hb", WriteDiscipline::MultiWriter, 7u64);
        // Word and generic accessors see the same cell.
        assert_eq!(m.read_word(r).unwrap(), 7);
        m.write_word(p(1), r, 9).unwrap();
        assert_eq!(m.read(r).unwrap(), 9);
        m.write(p(0), r, 11).unwrap();
        assert_eq!(m.read_word(r).unwrap(), 11);
        let stats = m.stats();
        assert_eq!(stats[0].reads, 3);
        assert_eq!(stats[0].writes, 2);
    }

    #[test]
    fn word_accessors_reject_boxed_cells() {
        let mut m = Memory::new();
        let r = m.alloc("s", WriteDiscipline::MultiWriter, String::from("x"));
        let forged: Reg<u64> = Reg::new(r.index);
        assert!(matches!(
            m.read_word(forged),
            Err(SimError::TypeMismatch { .. })
        ));
        assert!(matches!(
            m.write_word(p(0), forged, 1),
            Err(SimError::TypeMismatch { .. })
        ));
        // Failed accesses are not counted.
        assert_eq!(m.stats()[0].reads + m.stats()[0].writes, 0);
    }

    #[test]
    fn structured_values() {
        let mut m = Memory::new();
        let r = m.alloc(
            "pair",
            WriteDiscipline::MultiWriter,
            (0u64, Vec::<u32>::new()),
        );
        m.write(p(1), r, (7, vec![1, 2])).unwrap();
        assert_eq!(m.read(r).unwrap(), (7, vec![1, 2]));
    }

    #[test]
    fn word_and_boxed_registers_interleave() {
        // The boxed side table must stay aligned when allocations alternate
        // between the dense and boxed classes.
        let mut m = Memory::new();
        let w0 = m.alloc("w0", WriteDiscipline::MultiWriter, 10u64);
        let b0 = m.alloc("b0", WriteDiscipline::MultiWriter, String::from("a"));
        let w1 = m.alloc("w1", WriteDiscipline::MultiWriter, 20u64);
        let b1 = m.alloc("b1", WriteDiscipline::MultiWriter, vec![1u32]);
        m.write(p(0), b0, "z".into()).unwrap();
        m.write_word(p(0), w1, 21).unwrap();
        assert_eq!(m.read(b0).unwrap(), "z");
        assert_eq!(m.read(b1).unwrap(), vec![1u32]);
        assert_eq!(m.read_word(w0).unwrap(), 10);
        assert_eq!(m.read_word(w1).unwrap(), 21);
    }

    #[test]
    fn single_writer_enforced() {
        let mut m = Memory::new();
        let r = m.alloc("hb", WriteDiscipline::SingleWriter(p(2)), 0u64);
        assert!(m.write(p(2), r, 1).is_ok());
        let err = m.write(p(0), r, 9).unwrap_err();
        assert!(matches!(err, SimError::WriteDisciplineViolation { .. }));
        // The word path enforces the same discipline.
        let err = m.write_word(p(0), r, 9).unwrap_err();
        assert!(matches!(err, SimError::WriteDisciplineViolation { .. }));
        // Failed write must not change the value or counts.
        assert_eq!(m.peek(r).unwrap(), 1);
        assert_eq!(m.stats()[0].writes, 1);
    }

    #[test]
    fn errors_and_stats_render_structured_names() {
        let mut m = Memory::new();
        let render: crate::NameRender =
            |f, [rank, q, _]| write!(f, "Counter[{{p0,p1}}#{rank},p{q}]");
        let owner = WriteDiscipline::SingleWriter(p(2));
        let r = m.alloc(RegName::custom(render, [0, 2, 0]), owner, 0u64);
        let full = "Counter[{p0,p1}#0,p2]";
        match m.write_word(p(0), r, 1) {
            Err(SimError::WriteDisciplineViolation { name, .. }) => assert_eq!(name, full),
            other => panic!("expected a discipline violation, got {other:?}"),
        }
        let wrong: Reg<String> = Reg::new(r.index);
        match m.read(wrong) {
            Err(SimError::TypeMismatch { name, .. }) => assert_eq!(name, full),
            other => panic!("expected a type mismatch, got {other:?}"),
        }
        assert_eq!(m.name(0).unwrap(), full);
        assert_eq!(m.stats()[0].name, full);
        assert!(matches!(
            m.name(1),
            Err(SimError::UnknownRegister { register: 1 })
        ));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut m = Memory::new();
        let r = m.alloc("x", WriteDiscipline::MultiWriter, 5u64);
        // Forge a handle with the wrong type at the same index.
        let wrong: Reg<String> = Reg::new(r.index);
        assert!(matches!(m.peek(wrong), Err(SimError::TypeMismatch { .. })));
        let mut_err = m.read(wrong);
        assert!(matches!(mut_err, Err(SimError::TypeMismatch { .. })));
        assert!(matches!(
            m.write(p(0), wrong, "s".into()),
            Err(SimError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_register_detected() {
        let mut m = Memory::new();
        let r: Reg<u64> = Reg::new(9);
        assert!(matches!(
            m.peek(r),
            Err(SimError::UnknownRegister { register: 9 })
        ));
        assert!(matches!(
            m.read_word(r),
            Err(SimError::UnknownRegister { register: 9 })
        ));
    }

    #[test]
    fn accounting() {
        let mut m = Memory::new();
        let r = m.alloc("x", WriteDiscipline::MultiWriter, 0u64);
        let s = m.alloc("y", WriteDiscipline::MultiWriter, 0u64);
        m.write(p(0), r, 1).unwrap();
        let _ = m.read(r).unwrap();
        let _ = m.read(r).unwrap();
        let _ = m.peek(s).unwrap(); // peek not counted
        let stats = m.stats();
        assert_eq!(stats[0].writes, 1);
        assert_eq!(stats[0].reads, 2);
        assert_eq!(stats[1].reads, 0);
        assert_eq!(m.total_ops(), 3);
        assert_eq!(m.name(0).unwrap(), "x");
    }
}
