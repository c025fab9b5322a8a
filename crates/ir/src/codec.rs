//! The `SAPK` binary container format.
//!
//! Real SAINTDroid consumes APK files; our substitute is a compact
//! binary container for [`Apk`] values so that corpora can be written to
//! disk, shipped between processes, and parsed back — the parse step
//! plays the role apktool + the dex front-end play in the paper's
//! pipeline (and is timed as part of analysis, like theirs).
//!
//! Layout (all multi-byte integers are LEB128 varints unless noted):
//!
//! ```text
//! magic    b"SAPK"
//! version  u16 little-endian
//! manifest, primary dex, secondary dex list, has_source flag
//! ```
//!
//! # Examples
//!
//! ```
//! use saint_ir::{ApkBuilder, ApiLevel, codec};
//!
//! let apk = ApkBuilder::new("com.example", ApiLevel::new(21), ApiLevel::new(28)).build();
//! let bytes = codec::encode_apk(&apk);
//! let back = codec::decode_apk(&bytes)?;
//! assert_eq!(apk, back);
//! # Ok::<(), saint_ir::CodecError>(())
//! ```

use bytes::{BufMut, BytesMut};

use crate::apk::{Apk, DexFile};
use crate::body::{BasicBlock, BlockId, MethodBody, Terminator};
use crate::class::{ClassDef, ClassOrigin, FieldDef, MethodDef, MethodFlags};
use crate::error::CodecError;
use crate::instr::{BinOp, Cond, Instr, InvokeKind, Operand, Reg};
use crate::level::ApiLevel;
use crate::manifest::{Component, ComponentKind, Manifest};
use crate::name::{ClassName, FieldRef, MethodRef, Permission};

const MAGIC: [u8; 4] = *b"SAPK";
const VERSION: u16 = 1;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_i64(buf: &mut BytesMut, v: i64) {
    put_varint(buf, zigzag(v));
}

fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn put_opt_str(buf: &mut BytesMut, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
        None => buf.put_u8(0),
    }
}

fn put_method_ref(buf: &mut BytesMut, m: &MethodRef) {
    put_str(buf, m.class.as_str());
    put_str(buf, &m.name);
    put_str(buf, &m.descriptor);
}

fn put_field_ref(buf: &mut BytesMut, f: &FieldRef) {
    put_str(buf, f.class.as_str());
    put_str(buf, &f.name);
}

fn put_reg(buf: &mut BytesMut, r: Reg) {
    put_varint(buf, u64::from(r.0));
}

fn put_opt_reg(buf: &mut BytesMut, r: Option<Reg>) {
    match r {
        Some(r) => {
            buf.put_u8(1);
            put_reg(buf, r);
        }
        None => buf.put_u8(0),
    }
}

fn put_operand(buf: &mut BytesMut, o: Operand) {
    match o {
        Operand::Reg(r) => {
            buf.put_u8(0);
            put_reg(buf, r);
        }
        Operand::Imm(v) => {
            buf.put_u8(1);
            put_i64(buf, v);
        }
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::And => 4,
        BinOp::Or => 5,
        BinOp::Xor => 6,
    }
}

fn cond_tag(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Le => 3,
        Cond::Gt => 4,
        Cond::Ge => 5,
    }
}

fn invoke_tag(k: InvokeKind) -> u8 {
    match k {
        InvokeKind::Virtual => 0,
        InvokeKind::Static => 1,
        InvokeKind::Direct => 2,
        InvokeKind::Interface => 3,
        InvokeKind::Super => 4,
    }
}

fn origin_tag(o: ClassOrigin) -> u8 {
    match o {
        ClassOrigin::App => 0,
        ClassOrigin::Library => 1,
        ClassOrigin::Framework => 2,
        ClassOrigin::DynamicPayload => 3,
    }
}

fn component_tag(k: ComponentKind) -> u8 {
    match k {
        ComponentKind::Activity => 0,
        ComponentKind::Service => 1,
        ComponentKind::Receiver => 2,
        ComponentKind::Provider => 3,
    }
}

fn put_instr(buf: &mut BytesMut, i: &Instr) {
    match i {
        Instr::Const { dst, value } => {
            buf.put_u8(0);
            put_reg(buf, *dst);
            put_i64(buf, *value);
        }
        Instr::ConstString { dst, value } => {
            buf.put_u8(1);
            put_reg(buf, *dst);
            put_str(buf, value);
        }
        Instr::Move { dst, src } => {
            buf.put_u8(2);
            put_reg(buf, *dst);
            put_reg(buf, *src);
        }
        Instr::BinOp { op, dst, lhs, rhs } => {
            buf.put_u8(3);
            buf.put_u8(binop_tag(*op));
            put_reg(buf, *dst);
            put_reg(buf, *lhs);
            put_operand(buf, *rhs);
        }
        Instr::NewInstance { dst, class } => {
            buf.put_u8(4);
            put_reg(buf, *dst);
            put_str(buf, class.as_str());
        }
        Instr::Invoke {
            kind,
            method,
            args,
            dst,
        } => {
            buf.put_u8(5);
            buf.put_u8(invoke_tag(*kind));
            put_method_ref(buf, method);
            put_varint(buf, args.len() as u64);
            for a in args {
                put_reg(buf, *a);
            }
            put_opt_reg(buf, *dst);
        }
        Instr::FieldGet { dst, field, object } => {
            buf.put_u8(6);
            put_reg(buf, *dst);
            put_field_ref(buf, field);
            put_opt_reg(buf, *object);
        }
        Instr::FieldPut { src, field, object } => {
            buf.put_u8(7);
            put_reg(buf, *src);
            put_field_ref(buf, field);
            put_opt_reg(buf, *object);
        }
        Instr::Nop => buf.put_u8(8),
    }
}

fn put_terminator(buf: &mut BytesMut, t: &Terminator) {
    match t {
        Terminator::Goto(b) => {
            buf.put_u8(0);
            put_varint(buf, u64::from(b.0));
        }
        Terminator::If {
            cond,
            lhs,
            rhs,
            then_blk,
            else_blk,
        } => {
            buf.put_u8(1);
            buf.put_u8(cond_tag(*cond));
            put_reg(buf, *lhs);
            put_operand(buf, *rhs);
            put_varint(buf, u64::from(then_blk.0));
            put_varint(buf, u64::from(else_blk.0));
        }
        Terminator::Switch {
            scrutinee,
            targets,
            default,
        } => {
            buf.put_u8(2);
            put_reg(buf, *scrutinee);
            put_varint(buf, targets.len() as u64);
            for (v, b) in targets {
                put_i64(buf, *v);
                put_varint(buf, u64::from(b.0));
            }
            put_varint(buf, u64::from(default.0));
        }
        Terminator::Return(r) => {
            buf.put_u8(3);
            put_opt_reg(buf, *r);
        }
        Terminator::Throw(r) => {
            buf.put_u8(4);
            put_reg(buf, *r);
        }
    }
}

fn put_body(buf: &mut BytesMut, b: &MethodBody) {
    put_varint(buf, b.len() as u64);
    for (_, blk) in b.iter() {
        put_varint(buf, blk.instrs.len() as u64);
        for i in &blk.instrs {
            put_instr(buf, i);
        }
        put_terminator(buf, &blk.terminator);
    }
}

fn put_method(buf: &mut BytesMut, m: &MethodDef) {
    put_str(buf, &m.name);
    put_str(buf, &m.descriptor);
    let flags = u8::from(m.flags.is_static)
        | u8::from(m.flags.is_abstract) << 1
        | u8::from(m.flags.is_native) << 2
        | u8::from(m.flags.is_synthetic) << 3;
    buf.put_u8(flags);
    match &m.body {
        Some(b) => {
            buf.put_u8(1);
            put_body(buf, b);
        }
        None => buf.put_u8(0),
    }
}

fn put_class(buf: &mut BytesMut, c: &ClassDef) {
    put_str(buf, c.name.as_str());
    put_opt_str(buf, c.super_class.as_ref().map(ClassName::as_str));
    put_varint(buf, c.interfaces.len() as u64);
    for i in &c.interfaces {
        put_str(buf, i.as_str());
    }
    buf.put_u8(origin_tag(c.origin));
    put_varint(buf, c.fields.len() as u64);
    for f in &c.fields {
        put_str(buf, &f.name);
        buf.put_u8(u8::from(f.is_static));
    }
    put_varint(buf, c.methods.len() as u64);
    for m in &c.methods {
        put_method(buf, m);
    }
}

fn put_dex(buf: &mut BytesMut, d: &DexFile) {
    put_str(buf, &d.name);
    put_varint(buf, d.len() as u64);
    for c in d.classes() {
        put_class(buf, c);
    }
}

fn put_manifest(buf: &mut BytesMut, m: &Manifest) {
    put_str(buf, &m.package);
    buf.put_u8(m.min_sdk.get());
    buf.put_u8(m.target_sdk.get());
    match m.max_sdk {
        Some(l) => {
            buf.put_u8(1);
            buf.put_u8(l.get());
        }
        None => buf.put_u8(0),
    }
    put_varint(buf, m.uses_permissions.len() as u64);
    for p in &m.uses_permissions {
        put_str(buf, p.as_str());
    }
    put_varint(buf, m.components.len() as u64);
    for c in &m.components {
        buf.put_u8(component_tag(c.kind));
        put_str(buf, c.class.as_str());
    }
}

/// Encodes an APK into the `SAPK` binary form.
#[must_use]
pub fn encode_apk(apk: &Apk) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    put_manifest(&mut buf, &apk.manifest);
    put_dex(&mut buf, &apk.primary);
    put_varint(&mut buf, apk.secondary.len() as u64);
    for d in &apk.secondary {
        put_dex(&mut buf, d);
    }
    buf.put_u8(u8::from(apk.has_source));
    buf.to_vec()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    input: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn new(input: &'a [u8]) -> Self {
        Reader { input, offset: 0 }
    }

    fn eof(&self, context: &'static str) -> CodecError {
        CodecError::UnexpectedEof {
            offset: self.offset,
            context,
        }
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        let b = *self
            .input
            .get(self.offset)
            .ok_or_else(|| self.eof(context))?;
        self.offset += 1;
        Ok(b)
    }

    fn u16_le(&mut self, context: &'static str) -> Result<u16, CodecError> {
        let lo = self.u8(context)?;
        let hi = self.u8(context)?;
        Ok(u16::from_le_bytes([lo, hi]))
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self
            .offset
            .checked_add(n)
            .ok_or_else(|| self.eof(context))?;
        let s = self
            .input
            .get(self.offset..end)
            .ok_or_else(|| self.eof(context))?;
        self.offset = end;
        Ok(s)
    }

    fn varint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let start = self.offset;
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(context)?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(CodecError::VarintOverflow { offset: start });
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn i64(&mut self, context: &'static str) -> Result<i64, CodecError> {
        Ok(unzigzag(self.varint(context)?))
    }

    fn len(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.varint(context)?;
        usize::try_from(v).map_err(|_| CodecError::VarintOverflow {
            offset: self.offset,
        })
    }

    /// A length-prefixed string, validated in place and borrowed from
    /// the input. Names go straight from here to the interner, which
    /// allocates only on first sight of a name.
    fn name(&mut self, context: &'static str) -> Result<&'a str, CodecError> {
        let n = self.len(context)?;
        let start = self.offset;
        let raw = self.bytes(n, context)?;
        std::str::from_utf8(raw).map_err(|_| CodecError::InvalidUtf8 { offset: start })
    }

    /// A length-prefixed string copied out, for the IR's owned
    /// `String` fields.
    fn str(&mut self, context: &'static str) -> Result<String, CodecError> {
        self.name(context).map(str::to_owned)
    }

    fn opt_name(&mut self, context: &'static str) -> Result<Option<&'a str>, CodecError> {
        match self.u8(context)? {
            0 => Ok(None),
            _ => Ok(Some(self.name(context)?)),
        }
    }

    fn reg(&mut self, context: &'static str) -> Result<Reg, CodecError> {
        let v = self.varint(context)?;
        u16::try_from(v)
            .map(Reg)
            .map_err(|_| CodecError::VarintOverflow {
                offset: self.offset,
            })
    }

    fn opt_reg(&mut self, context: &'static str) -> Result<Option<Reg>, CodecError> {
        match self.u8(context)? {
            0 => Ok(None),
            _ => Ok(Some(self.reg(context)?)),
        }
    }

    fn operand(&mut self, context: &'static str) -> Result<Operand, CodecError> {
        let offset = self.offset;
        match self.u8(context)? {
            0 => Ok(Operand::Reg(self.reg(context)?)),
            1 => Ok(Operand::Imm(self.i64(context)?)),
            tag => Err(CodecError::InvalidTag {
                offset,
                tag,
                context,
            }),
        }
    }

    fn block_id(&mut self, context: &'static str) -> Result<BlockId, CodecError> {
        let v = self.varint(context)?;
        u32::try_from(v)
            .map(BlockId)
            .map_err(|_| CodecError::VarintOverflow {
                offset: self.offset,
            })
    }

    fn method_ref(&mut self) -> Result<MethodRef, CodecError> {
        let class = self.name("method ref class")?;
        let name = self.name("method ref name")?;
        let descriptor = self.name("method ref descriptor")?;
        Ok(MethodRef::new(class, name, descriptor))
    }

    fn field_ref(&mut self) -> Result<FieldRef, CodecError> {
        let class = self.name("field ref class")?;
        let name = self.name("field ref name")?;
        Ok(FieldRef::new(class, name))
    }

    fn binop(&mut self) -> Result<BinOp, CodecError> {
        let offset = self.offset;
        Ok(match self.u8("binop tag")? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::And,
            5 => BinOp::Or,
            6 => BinOp::Xor,
            tag => {
                return Err(CodecError::InvalidTag {
                    offset,
                    tag,
                    context: "binop",
                })
            }
        })
    }

    fn cond(&mut self) -> Result<Cond, CodecError> {
        let offset = self.offset;
        Ok(match self.u8("cond tag")? {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            3 => Cond::Le,
            4 => Cond::Gt,
            5 => Cond::Ge,
            tag => {
                return Err(CodecError::InvalidTag {
                    offset,
                    tag,
                    context: "cond",
                })
            }
        })
    }

    fn invoke_kind(&mut self) -> Result<InvokeKind, CodecError> {
        let offset = self.offset;
        Ok(match self.u8("invoke kind tag")? {
            0 => InvokeKind::Virtual,
            1 => InvokeKind::Static,
            2 => InvokeKind::Direct,
            3 => InvokeKind::Interface,
            4 => InvokeKind::Super,
            tag => {
                return Err(CodecError::InvalidTag {
                    offset,
                    tag,
                    context: "invoke kind",
                })
            }
        })
    }

    fn instr(&mut self) -> Result<Instr, CodecError> {
        let offset = self.offset;
        Ok(match self.u8("instr tag")? {
            0 => Instr::Const {
                dst: self.reg("const dst")?,
                value: self.i64("const value")?,
            },
            1 => Instr::ConstString {
                dst: self.reg("const-string dst")?,
                value: self.str("const-string value")?,
            },
            2 => Instr::Move {
                dst: self.reg("move dst")?,
                src: self.reg("move src")?,
            },
            3 => {
                let op = self.binop()?;
                Instr::BinOp {
                    op,
                    dst: self.reg("binop dst")?,
                    lhs: self.reg("binop lhs")?,
                    rhs: self.operand("binop rhs")?,
                }
            }
            4 => Instr::NewInstance {
                dst: self.reg("new-instance dst")?,
                class: ClassName::new(self.name("new-instance class")?),
            },
            5 => {
                let kind = self.invoke_kind()?;
                let method = Box::new(self.method_ref()?);
                let n = self.len("invoke arg count")?;
                let mut args = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    args.push(self.reg("invoke arg")?);
                }
                let dst = self.opt_reg("invoke dst")?;
                Instr::Invoke {
                    kind,
                    method,
                    args: args.into_boxed_slice(),
                    dst,
                }
            }
            6 => Instr::FieldGet {
                dst: self.reg("field-get dst")?,
                field: Box::new(self.field_ref()?),
                object: self.opt_reg("field-get object")?,
            },
            7 => Instr::FieldPut {
                src: self.reg("field-put src")?,
                field: Box::new(self.field_ref()?),
                object: self.opt_reg("field-put object")?,
            },
            8 => Instr::Nop,
            tag => {
                return Err(CodecError::InvalidTag {
                    offset,
                    tag,
                    context: "instr",
                })
            }
        })
    }

    fn terminator(&mut self) -> Result<Terminator, CodecError> {
        let offset = self.offset;
        Ok(match self.u8("terminator tag")? {
            0 => Terminator::Goto(self.block_id("goto target")?),
            1 => {
                let cond = self.cond()?;
                Terminator::If {
                    cond,
                    lhs: self.reg("if lhs")?,
                    rhs: self.operand("if rhs")?,
                    then_blk: self.block_id("if then")?,
                    else_blk: self.block_id("if else")?,
                }
            }
            2 => {
                let scrutinee = self.reg("switch scrutinee")?;
                let n = self.len("switch target count")?;
                let mut targets = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let v = self.i64("switch case value")?;
                    let b = self.block_id("switch case target")?;
                    targets.push((v, b));
                }
                Terminator::Switch {
                    scrutinee,
                    targets,
                    default: self.block_id("switch default")?,
                }
            }
            3 => Terminator::Return(self.opt_reg("return value")?),
            4 => Terminator::Throw(self.reg("throw value")?),
            tag => {
                return Err(CodecError::InvalidTag {
                    offset,
                    tag,
                    context: "terminator",
                })
            }
        })
    }

    fn body(&mut self) -> Result<MethodBody, CodecError> {
        let n = self.len("block count")?;
        let mut blocks = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let ni = self.len("instr count")?;
            let mut instrs = Vec::with_capacity(ni.min(4096));
            for _ in 0..ni {
                instrs.push(self.instr()?);
            }
            let terminator = self.terminator()?;
            blocks.push(BasicBlock { instrs, terminator });
        }
        Ok(MethodBody::from_blocks(blocks)?)
    }

    fn method(&mut self) -> Result<MethodDef, CodecError> {
        let name = self.str("method name")?;
        let descriptor = self.str("method descriptor")?;
        let flags = self.u8("method flags")?;
        let flags = MethodFlags {
            is_static: flags & 1 != 0,
            is_abstract: flags & 2 != 0,
            is_native: flags & 4 != 0,
            is_synthetic: flags & 8 != 0,
        };
        let body = match self.u8("method body flag")? {
            0 => None,
            _ => Some(self.body()?),
        };
        Ok(MethodDef {
            name,
            descriptor,
            flags,
            body,
        })
    }

    fn class(&mut self) -> Result<ClassDef, CodecError> {
        let name = ClassName::new(self.name("class name")?);
        let super_class = self.opt_name("super class")?.map(ClassName::new);
        let ni = self.len("interface count")?;
        let mut interfaces = Vec::with_capacity(ni.min(64));
        for _ in 0..ni {
            interfaces.push(ClassName::new(self.name("interface name")?));
        }
        let offset = self.offset;
        let origin = match self.u8("class origin")? {
            0 => ClassOrigin::App,
            1 => ClassOrigin::Library,
            2 => ClassOrigin::Framework,
            3 => ClassOrigin::DynamicPayload,
            tag => {
                return Err(CodecError::InvalidTag {
                    offset,
                    tag,
                    context: "class origin",
                })
            }
        };
        let nf = self.len("field count")?;
        let mut fields = Vec::with_capacity(nf.min(1024));
        for _ in 0..nf {
            let name = self.str("field name")?;
            let is_static = self.u8("field static flag")? != 0;
            fields.push(FieldDef { name, is_static });
        }
        let nm = self.len("method count")?;
        let mut class = ClassDef {
            name,
            super_class,
            interfaces,
            origin,
            fields,
            methods: Vec::with_capacity(nm.min(4096)),
        };
        for _ in 0..nm {
            let m = self.method()?;
            class.add_method(m)?;
        }
        Ok(class)
    }

    fn dex(&mut self) -> Result<DexFile, CodecError> {
        let name = self.str("dex name")?;
        let n = self.len("class count")?;
        let mut dex = DexFile::new(name);
        for _ in 0..n {
            dex.add_class(self.class()?)?;
        }
        Ok(dex)
    }

    /// The container prefix: magic, format version, manifest.
    fn header(&mut self) -> Result<Manifest, CodecError> {
        let magic = self.bytes(4, "magic")?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(CodecError::BadMagic { found });
        }
        let version = self.u16_le("version")?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                expected: VERSION,
            });
        }
        self.manifest()
    }

    fn manifest(&mut self) -> Result<Manifest, CodecError> {
        let package = self.str("package")?;
        let min = ApiLevel::new(self.u8("minSdkVersion")?);
        let target = ApiLevel::new(self.u8("targetSdkVersion")?);
        let max = match self.u8("maxSdkVersion flag")? {
            0 => None,
            _ => Some(ApiLevel::new(self.u8("maxSdkVersion")?)),
        };
        let mut manifest = Manifest::new(package, min, target, max)?;
        let np = self.len("permission count")?;
        for _ in 0..np {
            manifest
                .uses_permissions
                .push(Permission::new(self.name("permission")?));
        }
        let nc = self.len("component count")?;
        for _ in 0..nc {
            let offset = self.offset;
            let kind = match self.u8("component kind")? {
                0 => ComponentKind::Activity,
                1 => ComponentKind::Service,
                2 => ComponentKind::Receiver,
                3 => ComponentKind::Provider,
                tag => {
                    return Err(CodecError::InvalidTag {
                        offset,
                        tag,
                        context: "component kind",
                    })
                }
            };
            let class = ClassName::new(self.name("component class")?);
            manifest.components.push(Component { kind, class });
        }
        Ok(manifest)
    }
}

/// Decodes only the manifest of a `SAPK` container: the magic, version
/// and manifest prefix that [`decode_apk`] parses first, leaving every
/// dex unread. Cheap enough to check a container's package name before
/// deciding whether the full decode is needed at all.
///
/// # Errors
///
/// Returns the same [`CodecError`] [`decode_apk`] would report for a
/// malformed header.
pub fn decode_manifest(input: &[u8]) -> Result<Manifest, CodecError> {
    Reader::new(input).header()
}

/// Decodes an APK from its `SAPK` binary form.
///
/// # Errors
///
/// Returns a [`CodecError`] describing the first malformed byte, or a
/// wrapped [`crate::IrError`] when the bytes parse but violate IR
/// invariants (duplicate classes, bad branch targets, …).
pub fn decode_apk(input: &[u8]) -> Result<Apk, CodecError> {
    saint_faults::trip(saint_faults::FaultPoint::Decode);
    let mut r = Reader::new(input);
    let manifest = r.header()?;
    let primary = r.dex()?;
    let ns = r.len("secondary dex count")?;
    let mut secondary = Vec::with_capacity(ns.min(64));
    for _ in 0..ns {
        secondary.push(r.dex()?);
    }
    let has_source = r.u8("has_source")? != 0;
    Ok(Apk {
        manifest,
        primary,
        secondary,
        has_source,
    })
}

/// Encodes a single class definition in the `SAPK` class wire form.
///
/// This is the per-class slice of the container format — the frozen
/// artifact layer stores one of these per `(api level, class)` entry so
/// framework class bodies can be decoded individually from an mmapped
/// image without parsing a whole container.
#[must_use]
pub fn encode_class(class: &ClassDef) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(256);
    put_class(&mut buf, class);
    buf.to_vec()
}

/// Decodes a single class definition from its `SAPK` class wire form.
///
/// The input must contain exactly one encoded class — trailing bytes
/// are rejected, so a sliced read from an offset table either yields
/// the intended class or a typed error.
///
/// # Errors
///
/// Returns a [`CodecError`] describing the first malformed byte, or a
/// wrapped [`crate::IrError`] when the bytes parse but violate IR
/// invariants (duplicate methods, bad branch targets, …).
pub fn decode_class(input: &[u8]) -> Result<ClassDef, CodecError> {
    let mut r = Reader::new(input);
    let class = r.class()?;
    if r.offset != input.len() {
        return Err(CodecError::InvalidTag {
            offset: r.offset,
            tag: input.get(r.offset).copied().unwrap_or(0),
            context: "trailing bytes after class",
        });
    }
    Ok(class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ApkBuilder, BodyBuilder, ClassBuilder};

    fn sample_apk() -> Apk {
        let helper = ClassBuilder::new("com.example.Helper", ClassOrigin::App)
            .static_method("deep", "(I)I", |b| {
                let r = b.alloc_reg();
                b.const_int(r, 42);
                b.ret(r);
            })
            .unwrap()
            .build();
        let main = ClassBuilder::new("com.example.MainActivity", ClassOrigin::App)
            .extends("android.app.Activity")
            .field("state", false)
            .method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                |b: &mut BodyBuilder| {
                    let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
                    b.switch_to(then_blk);
                    b.invoke_virtual(
                        MethodRef::new("android.content.Context", "getColorStateList", "(I)V"),
                        &[],
                        None,
                    );
                    b.goto(join);
                    b.switch_to(join);
                    let s = b.alloc_reg();
                    b.const_str(s, "assets/payload.dex");
                    b.ret_void();
                },
            )
            .unwrap()
            .build();
        let mut payload = DexFile::new("assets/payload.dex");
        payload
            .add_class(
                ClassBuilder::new("com.example.Plugin", ClassOrigin::DynamicPayload)
                    .method("run", "()V", |b| {
                        b.ret_void();
                    })
                    .unwrap()
                    .build(),
            )
            .unwrap();
        ApkBuilder::new("com.example", ApiLevel::new(19), ApiLevel::new(28))
            .permission(Permission::android("CAMERA"))
            .activity("com.example.MainActivity")
            .class(helper)
            .unwrap()
            .class(main)
            .unwrap()
            .secondary_dex(payload)
            .without_source()
            .build()
    }

    #[test]
    fn roundtrip_rich_apk() {
        let apk = sample_apk();
        let bytes = encode_apk(&apk);
        let back = decode_apk(&bytes).unwrap();
        assert_eq!(apk, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_apk(b"NOPE....").unwrap_err();
        assert!(matches!(err, CodecError::BadMagic { .. }));
        assert_eq!(decode_manifest(b"NOPE....").unwrap_err(), err);
    }

    #[test]
    fn decode_manifest_reads_only_the_header() {
        let apk = sample_apk();
        let bytes = encode_apk(&apk);
        assert_eq!(decode_manifest(&bytes).unwrap(), apk.manifest);
        // The dexes are never read: a container cut right after its
        // manifest still yields it, while the full decode fails.
        let header_len = (0..bytes.len())
            .find(|&cut| decode_manifest(&bytes[..cut]).is_ok())
            .expect("the header is a strict prefix");
        assert_eq!(decode_manifest(&bytes[..header_len]).unwrap(), apk.manifest);
        assert!(decode_apk(&bytes[..header_len]).is_err());
    }

    /// Byte offset of the manifest's `minSdkVersion` in an encoded
    /// container: magic (4) + version (2) + package varint length (1,
    /// for short names) + package bytes.
    fn min_sdk_offset(package: &str) -> usize {
        assert!(package.len() < 128, "single-byte varint assumption");
        4 + 2 + 1 + package.len()
    }

    #[test]
    fn decode_rejects_target_below_min() {
        // The builder can't produce this triple, but a hand-crafted or
        // corrupted container can: decode must fail typed, never hand
        // detectors a manifest no device satisfies.
        let mut bytes = encode_apk(&sample_apk());
        let target_off = min_sdk_offset("com.example") + 1;
        assert_eq!(bytes[target_off], 28);
        bytes[target_off] = 7;
        let err = decode_apk(&bytes).unwrap_err();
        assert_eq!(
            err,
            CodecError::Invalid(crate::IrError::InvalidTargetSdk { min: 19, target: 7 })
        );
    }

    #[test]
    fn decode_rejects_max_below_min() {
        let apk = ApkBuilder::new("p.m", ApiLevel::new(19), ApiLevel::new(26))
            .max_sdk(ApiLevel::new(28))
            .unwrap()
            .build();
        let mut bytes = encode_apk(&apk);
        // min, target, max-flag, max value.
        let max_off = min_sdk_offset("p.m") + 3;
        assert_eq!(bytes[max_off], 28);
        bytes[max_off] = 3;
        let err = decode_apk(&bytes).unwrap_err();
        assert_eq!(
            err,
            CodecError::Invalid(crate::IrError::InvalidSdkRange { min: 19, max: 3 })
        );
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = encode_apk(&sample_apk());
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(matches!(
            decode_apk(&bytes),
            Err(CodecError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn truncation_yields_eof_not_panic() {
        let bytes = encode_apk(&sample_apk());
        // Truncate at every prefix; all failures must be clean errors.
        for cut in 0..bytes.len() {
            let r = decode_apk(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly decoded");
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let bytes = encode_apk(&sample_apk());
        // Flipping bytes may legally still decode (e.g. flag bits), but
        // must never panic.
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x5a;
            let _ = decode_apk(&corrupted);
        }
    }

    #[test]
    fn roundtrip_single_class() {
        let apk = sample_apk();
        for class in apk.primary.classes() {
            let bytes = encode_class(class);
            let back = decode_class(&bytes).unwrap();
            assert_eq!(class, &back);
        }
    }

    #[test]
    fn decode_class_rejects_trailing_bytes() {
        let apk = sample_apk();
        let class = apk.primary.classes().next().unwrap();
        let mut bytes = encode_class(class);
        bytes.push(0);
        assert!(decode_class(&bytes).is_err());
    }

    #[test]
    fn decode_class_truncation_yields_error_not_panic() {
        let apk = sample_apk();
        let class = apk.primary.classes().next().unwrap();
        let bytes = encode_class(class);
        for cut in 0..bytes.len() {
            assert!(decode_class(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        let mut r = Reader::new(&[0xff; 11]);
        assert!(matches!(
            r.varint("test"),
            Err(CodecError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
