//! The register-based instruction set.
//!
//! The IR mirrors the slice of Dalvik that compatibility analysis
//! actually consumes: constants, moves, arithmetic, field access,
//! allocation and — above all — method invocation. Control flow lives in
//! block [`Terminator`]s rather than in the instruction stream, which is
//! the shape SOOT/JITANA-style analyses normalize to anyway.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::name::{ClassName, FieldRef, MethodRef};

/// A virtual register, `v0`, `v1`, ….
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Right-hand operand of comparisons and binary ops: a register or an
/// immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate integer constant.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// Binary arithmetic/logic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (semantics irrelevant to the analysis; kept total).
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        };
        f.write_str(s)
    }
}

/// Comparison conditions for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cond {
    /// The condition that holds on the *fall-through* (else) edge.
    #[must_use]
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// The condition with its operands swapped (`a < b` ⇔ `b > a`).
    #[must_use]
    pub fn swap(self) -> Cond {
        match self {
            Cond::Eq => Cond::Eq,
            Cond::Ne => Cond::Ne,
            Cond::Lt => Cond::Gt,
            Cond::Le => Cond::Ge,
            Cond::Gt => Cond::Lt,
            Cond::Ge => Cond::Le,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "==",
            Cond::Ne => "!=",
            Cond::Lt => "<",
            Cond::Le => "<=",
            Cond::Gt => ">",
            Cond::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Dalvik invocation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvokeKind {
    /// `invoke-virtual`: dispatched through the receiver's class.
    Virtual,
    /// `invoke-static`.
    Static,
    /// `invoke-direct`: constructors and private methods.
    Direct,
    /// `invoke-interface`.
    Interface,
    /// `invoke-super`: calls the superclass implementation.
    Super,
}

impl fmt::Display for InvokeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvokeKind::Virtual => "invoke-virtual",
            InvokeKind::Static => "invoke-static",
            InvokeKind::Direct => "invoke-direct",
            InvokeKind::Interface => "invoke-interface",
            InvokeKind::Super => "invoke-super",
        };
        f.write_str(s)
    }
}

/// A single non-branching instruction.
///
/// Every instruction is at most 32 bytes wide (pinned by a unit test).
/// The wide operands of `Invoke` (its [`MethodRef`] and argument list)
/// and of `FieldGet`/`FieldPut` (their [`FieldRef`]) live out of line
/// in boxes. Inline, they would size *every* variant to 80 bytes.
/// Invokes and field accesses are a minority of any body's
/// instructions, so the boxes cost one pointer hop on those variants
/// and save more than half the width of every other one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// `dst = value`
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant value.
        value: i64,
    },
    /// `dst = "value"` — string constants matter to the analysis because
    /// late binding resolves `DexClassLoader.loadClass("com.x.Y")`
    /// targets from them (paper §III-A, late binding).
    ConstString {
        /// Destination register.
        dst: Reg,
        /// String payload.
        value: String,
    },
    /// `dst = src`
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = lhs <op> rhs`
    BinOp {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = new C()` (allocation only; constructor call is separate).
    NewInstance {
        /// Destination register.
        dst: Reg,
        /// Instantiated class.
        class: ClassName,
    },
    /// Method invocation. `dst` receives the return value if used.
    Invoke {
        /// Dispatch kind.
        kind: InvokeKind,
        /// Static target as written in the bytecode (boxed: see the
        /// type-level note on width).
        method: Box<MethodRef>,
        /// Argument registers (receiver first for instance kinds).
        args: Box<[Reg]>,
        /// Optional move-result destination.
        dst: Option<Reg>,
    },
    /// Field read; `object` is `None` for static fields. Reads of
    /// `android.os.Build$VERSION.SDK_INT` seed the guard analysis.
    FieldGet {
        /// Destination register.
        dst: Reg,
        /// Field reference (boxed: see the type-level note on width).
        field: Box<FieldRef>,
        /// Receiver register, or `None` for `sget`.
        object: Option<Reg>,
    },
    /// Field write; `object` is `None` for static fields.
    FieldPut {
        /// Source register.
        src: Reg,
        /// Field reference (boxed: see the type-level note on width).
        field: Box<FieldRef>,
        /// Receiver register, or `None` for `sput`.
        object: Option<Reg>,
    },
    /// No-op (padding in generated corpora; keeps sizes realistic).
    Nop,
}

impl Instr {
    /// The register this instruction defines, if any.
    #[must_use]
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::ConstString { dst, .. }
            | Instr::Move { dst, .. }
            | Instr::BinOp { dst, .. }
            | Instr::NewInstance { dst, .. }
            | Instr::FieldGet { dst, .. } => Some(*dst),
            Instr::Invoke { dst, .. } => *dst,
            Instr::FieldPut { .. } | Instr::Nop => None,
        }
    }

    /// The registers this instruction reads.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Instr::Const { .. }
            | Instr::ConstString { .. }
            | Instr::NewInstance { .. }
            | Instr::Nop => Vec::new(),
            Instr::Move { src, .. } => vec![*src],
            Instr::BinOp { lhs, rhs, .. } => match rhs {
                Operand::Reg(r) => vec![*lhs, *r],
                Operand::Imm(_) => vec![*lhs],
            },
            Instr::Invoke { args, .. } => args.to_vec(),
            Instr::FieldGet { object, .. } => object.iter().copied().collect(),
            Instr::FieldPut { src, object, .. } => {
                let mut v = vec![*src];
                v.extend(object.iter().copied());
                v
            }
        }
    }

    /// The invoked method, for `Invoke` instructions.
    #[must_use]
    pub fn invoked_method(&self) -> Option<&MethodRef> {
        match self {
            Instr::Invoke { method, .. } => Some(&**method),
            _ => None,
        }
    }

    /// Whether this instruction reads `Build.VERSION.SDK_INT`.
    #[must_use]
    pub fn is_sdk_int_read(&self) -> bool {
        matches!(self, Instr::FieldGet { field, .. } if field.is_sdk_int())
    }

    /// Rough size of the instruction in "code units", used by the
    /// loaded-bytes meter and by KLOC estimation.
    #[must_use]
    pub fn size_units(&self) -> usize {
        match self {
            Instr::Nop => 1,
            Instr::Const { .. } | Instr::Move { .. } => 2,
            Instr::BinOp { .. } | Instr::FieldGet { .. } | Instr::FieldPut { .. } => 2,
            Instr::NewInstance { .. } => 2,
            Instr::ConstString { value, .. } => 2 + value.len() / 4,
            Instr::Invoke { args, .. } => 3 + args.len(),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Const { dst, value } => write!(f, "const {dst}, #{value}"),
            Instr::ConstString { dst, value } => write!(f, "const-string {dst}, {value:?}"),
            Instr::Move { dst, src } => write!(f, "move {dst}, {src}"),
            Instr::BinOp { op, dst, lhs, rhs } => write!(f, "{op} {dst}, {lhs}, {rhs}"),
            Instr::NewInstance { dst, class } => write!(f, "new-instance {dst}, {class}"),
            Instr::Invoke {
                kind,
                method,
                args,
                dst,
            } => {
                write!(f, "{kind} {method} (")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")?;
                if let Some(d) = dst {
                    write!(f, " -> {d}")?;
                }
                Ok(())
            }
            Instr::FieldGet { dst, field, object } => match object {
                Some(o) => write!(f, "iget {dst}, {o}, {field}"),
                None => write!(f, "sget {dst}, {field}"),
            },
            Instr::FieldPut { src, field, object } => match object {
                Some(o) => write!(f, "iput {src}, {o}, {field}"),
                None => write!(f, "sput {src}, {field}"),
            },
            Instr::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u16) -> Reg {
        Reg(n)
    }

    #[test]
    fn cond_negate_roundtrip() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(c.negate().negate(), c);
            assert_eq!(c.swap().swap(), c);
        }
    }

    #[test]
    fn defs_and_uses() {
        let i = Instr::BinOp {
            op: BinOp::Add,
            dst: r(0),
            lhs: r(1),
            rhs: Operand::Reg(r(2)),
        };
        assert_eq!(i.def(), Some(r(0)));
        assert_eq!(i.uses(), vec![r(1), r(2)]);

        let imm = Instr::BinOp {
            op: BinOp::Add,
            dst: r(0),
            lhs: r(1),
            rhs: Operand::Imm(7),
        };
        assert_eq!(imm.uses(), vec![r(1)]);

        let inv = Instr::Invoke {
            kind: InvokeKind::Virtual,
            method: Box::new(MethodRef::new("a.B", "m", "()I")),
            args: Box::new([r(3)]),
            dst: Some(r(4)),
        };
        assert_eq!(inv.def(), Some(r(4)));
        assert_eq!(inv.uses(), vec![r(3)]);

        let put = Instr::FieldPut {
            src: r(5),
            field: Box::new(FieldRef::new("a.B", "x")),
            object: Some(r(6)),
        };
        assert_eq!(put.def(), None);
        assert_eq!(put.uses(), vec![r(5), r(6)]);
    }

    #[test]
    fn sdk_int_read_detection() {
        let i = Instr::FieldGet {
            dst: r(0),
            field: Box::new(FieldRef::sdk_int()),
            object: None,
        };
        assert!(i.is_sdk_int_read());
        let j = Instr::FieldGet {
            dst: r(0),
            field: Box::new(FieldRef::new("a.B", "SDK_INT")),
            object: None,
        };
        assert!(!j.is_sdk_int_read());
    }

    #[test]
    fn display_is_smali_like() {
        let i = Instr::Invoke {
            kind: InvokeKind::Static,
            method: Box::new(MethodRef::new("a.B", "m", "(I)V")),
            args: Box::new([r(1)]),
            dst: None,
        };
        assert_eq!(i.to_string(), "invoke-static a.B.m(I)V (v1)");
        let g = Instr::FieldGet {
            dst: r(0),
            field: Box::new(FieldRef::sdk_int()),
            object: None,
        };
        assert_eq!(g.to_string(), "sget v0, android.os.Build$VERSION.SDK_INT");
    }

    #[test]
    fn instructions_are_at_most_32_bytes() {
        // The out-of-line payloads (`Invoke`'s method and arguments,
        // `FieldGet`/`FieldPut`'s field) are what keep this bound: one
        // inline `MethodRef` plus a `Vec` would make every instruction
        // 80 bytes.
        assert!(
            std::mem::size_of::<Instr>() <= 32,
            "Instr grew to {} bytes",
            std::mem::size_of::<Instr>()
        );
    }

    #[test]
    fn size_units_are_positive() {
        let samples = [
            Instr::Nop,
            Instr::Const {
                dst: r(0),
                value: 1,
            },
            Instr::Invoke {
                kind: InvokeKind::Virtual,
                method: Box::new(MethodRef::new("a.B", "m", "()V")),
                args: Box::new([r(0), r(1)]),
                dst: None,
            },
        ];
        for s in &samples {
            assert!(s.size_units() >= 1, "{s}");
        }
    }
}
