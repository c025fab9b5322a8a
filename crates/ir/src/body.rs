//! Method bodies: basic blocks and terminators.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::IrError;
use crate::instr::{Cond, Instr, Operand, Reg};

/// Index of a basic block within its method body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The entry block of every method body.
    pub const ENTRY: BlockId = BlockId(0);

    /// The index as `usize` for slice access.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// The control-transfer instruction that ends a basic block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way conditional branch: `if lhs <cond> rhs then then_blk else else_blk`.
    If {
        /// Comparison condition.
        cond: Cond,
        /// Left operand register.
        lhs: Reg,
        /// Right operand (register or immediate).
        rhs: Operand,
        /// Branch taken when the condition holds.
        then_blk: BlockId,
        /// Fall-through branch.
        else_blk: BlockId,
    },
    /// Multi-way switch on an integer register.
    Switch {
        /// Scrutinee register.
        scrutinee: Reg,
        /// `(case value, target)` pairs.
        targets: Vec<(i64, BlockId)>,
        /// Default target.
        default: BlockId,
    },
    /// Method return with optional value register.
    Return(Option<Reg>),
    /// Throws the exception object in the register.
    Throw(Reg),
}

impl Terminator {
    /// Successor blocks of this terminator, in branch order.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Goto(t) => vec![*t],
            Terminator::If {
                then_blk, else_blk, ..
            } => vec![*then_blk, *else_blk],
            Terminator::Switch {
                targets, default, ..
            } => {
                let mut v: Vec<BlockId> = targets.iter().map(|(_, b)| *b).collect();
                v.push(*default);
                v
            }
            Terminator::Return(_) | Terminator::Throw(_) => Vec::new(),
        }
    }

    /// Registers read by this terminator.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Terminator::Goto(_) => Vec::new(),
            Terminator::If { lhs, rhs, .. } => match rhs {
                Operand::Reg(r) => vec![*lhs, *r],
                Operand::Imm(_) => vec![*lhs],
            },
            Terminator::Switch { scrutinee, .. } => vec![*scrutinee],
            Terminator::Return(r) => r.iter().copied().collect(),
            Terminator::Throw(r) => vec![*r],
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Goto(t) => write!(f, "goto {t}"),
            Terminator::If {
                cond,
                lhs,
                rhs,
                then_blk,
                else_blk,
            } => write!(f, "if {lhs} {cond} {rhs} then {then_blk} else {else_blk}"),
            Terminator::Switch {
                scrutinee,
                targets,
                default,
            } => {
                write!(f, "switch {scrutinee} [")?;
                for (i, (v, b)) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v} => {b}")?;
                }
                write!(f, "] default {default}")
            }
            Terminator::Return(Some(r)) => write!(f, "return {r}"),
            Terminator::Return(None) => f.write_str("return-void"),
            Terminator::Throw(r) => write!(f, "throw {r}"),
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Rough size in code units (instructions plus terminator).
    #[must_use]
    pub fn size_units(&self) -> usize {
        self.instrs.iter().map(Instr::size_units).sum::<usize>() + 2
    }
}

/// A validated method body: a CFG-shaped list of basic blocks with block
/// 0 as entry.
///
/// Construct through [`crate::builder::BodyBuilder`], which guarantees
/// the invariants checked by [`MethodBody::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodBody {
    blocks: Vec<BasicBlock>,
}

impl MethodBody {
    /// Wraps raw blocks after validating them.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::EmptyBody`] if `blocks` is empty and
    /// [`IrError::BadBranchTarget`] if any terminator or switch edge
    /// points outside `blocks`.
    pub fn from_blocks(blocks: Vec<BasicBlock>) -> Result<Self, IrError> {
        let body = MethodBody { blocks };
        body.validate()?;
        Ok(body)
    }

    /// Validates structural invariants (non-empty, in-range branch
    /// targets).
    ///
    /// # Errors
    ///
    /// See [`MethodBody::from_blocks`].
    pub fn validate(&self) -> Result<(), IrError> {
        if self.blocks.is_empty() {
            return Err(IrError::EmptyBody);
        }
        let n = self.blocks.len();
        for (i, b) in self.blocks.iter().enumerate() {
            for succ in b.terminator.successors() {
                if succ.index() >= n {
                    return Err(IrError::BadBranchTarget {
                        from: BlockId(i as u32),
                        to: succ,
                        len: n,
                    });
                }
            }
        }
        Ok(())
    }

    /// The blocks, indexed by [`BlockId`].
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// A single block.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the body has no blocks (never true for a validated body).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates `(BlockId, &BasicBlock)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// The highest register index used plus one (the register frame
    /// size).
    #[must_use]
    pub fn register_count(&self) -> u16 {
        let mut max: Option<u16> = None;
        for b in &self.blocks {
            for i in &b.instrs {
                for r in i.def().into_iter().chain(i.uses()) {
                    max = Some(max.map_or(r.0, |m| m.max(r.0)));
                }
            }
            for r in b.terminator.uses() {
                max = Some(max.map_or(r.0, |m| m.max(r.0)));
            }
        }
        max.map_or(0, |m| m + 1)
    }

    /// Total size in code units, used for KLOC estimation and the
    /// loaded-bytes meter.
    #[must_use]
    pub fn size_units(&self) -> usize {
        self.blocks.iter().map(BasicBlock::size_units).sum()
    }

    /// All methods invoked anywhere in the body (static call sites).
    pub fn call_sites(&self) -> impl Iterator<Item = &crate::name::MethodRef> {
        self.blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter_map(Instr::invoked_method)
    }
}

impl fmt::Display for MethodBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, b) in self.iter() {
            writeln!(f, "  {id}:")?;
            for i in &b.instrs {
                writeln!(f, "    {i}")?;
            }
            writeln!(f, "    {}", b.terminator)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::MethodRef;

    fn ret() -> Terminator {
        Terminator::Return(None)
    }

    #[test]
    fn empty_body_rejected() {
        assert!(matches!(
            MethodBody::from_blocks(vec![]),
            Err(IrError::EmptyBody)
        ));
    }

    #[test]
    fn bad_branch_target_rejected() {
        let blocks = vec![BasicBlock {
            instrs: vec![],
            terminator: Terminator::Goto(BlockId(3)),
        }];
        assert!(matches!(
            MethodBody::from_blocks(blocks),
            Err(IrError::BadBranchTarget { .. })
        ));
    }

    #[test]
    fn switch_targets_validated() {
        let blocks = vec![BasicBlock {
            instrs: vec![],
            terminator: Terminator::Switch {
                scrutinee: Reg(0),
                targets: vec![(1, BlockId(0)), (2, BlockId(9))],
                default: BlockId(0),
            },
        }];
        assert!(MethodBody::from_blocks(blocks).is_err());
    }

    #[test]
    fn successors_cover_all_edges() {
        let t = Terminator::Switch {
            scrutinee: Reg(0),
            targets: vec![(1, BlockId(1)), (2, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert!(ret().successors().is_empty());
    }

    #[test]
    fn register_count_spans_defs_uses_and_terminators() {
        let blocks = vec![BasicBlock {
            instrs: vec![Instr::Const {
                dst: Reg(4),
                value: 1,
            }],
            terminator: Terminator::Return(Some(Reg(7))),
        }];
        let body = MethodBody::from_blocks(blocks).unwrap();
        assert_eq!(body.register_count(), 8);
    }

    #[test]
    fn call_sites_enumerates_invokes() {
        let m = MethodRef::new("a.B", "m", "()V");
        let blocks = vec![BasicBlock {
            instrs: vec![
                Instr::Nop,
                Instr::Invoke {
                    kind: crate::instr::InvokeKind::Static,
                    method: Box::new(m.clone()),
                    args: Box::new([]),
                    dst: None,
                },
            ],
            terminator: ret(),
        }];
        let body = MethodBody::from_blocks(blocks).unwrap();
        let sites: Vec<_> = body.call_sites().collect();
        assert_eq!(sites, vec![&m]);
    }

    #[test]
    fn display_renders_blocks() {
        let blocks = vec![BasicBlock {
            instrs: vec![Instr::Nop],
            terminator: ret(),
        }];
        let body = MethodBody::from_blocks(blocks).unwrap();
        let s = body.to_string();
        assert!(s.contains("b0:"));
        assert!(s.contains("nop"));
        assert!(s.contains("return-void"));
    }
}
