//! Fluent builders for bodies, classes and APKs.
//!
//! These are the authoring surface used by the framework generator
//! (`saint-adf`), the benchmark corpus (`saint-corpus`) and tests. The
//! builders enforce the IR invariants at `finish`/`build` time so the
//! analyses can assume validated input.

use crate::apk::{Apk, DexFile};
use crate::body::{BasicBlock, BlockId, MethodBody, Terminator};
use crate::class::{ClassDef, ClassOrigin, FieldDef, MethodDef, MethodFlags};
use crate::error::IrError;
use crate::instr::{BinOp, Cond, Instr, InvokeKind, Operand, Reg};
use crate::level::ApiLevel;
use crate::manifest::{Component, ComponentKind, Manifest};
use crate::name::{ClassName, FieldRef, MethodRef, Permission};

struct PendingBlock {
    instrs: Vec<Instr>,
    terminator: Option<Terminator>,
}

/// Builds a [`MethodBody`] block by block.
///
/// # Examples
///
/// ```
/// use saint_ir::{ApiLevel, BodyBuilder, MethodRef};
///
/// let api = MethodRef::new("android.content.res.Resources", "getColorStateList", "(I)V");
/// let mut b = BodyBuilder::new();
/// // if (Build.VERSION.SDK_INT >= 23) { getColorStateList(...); }
/// let (then_blk, done) = b.guard_sdk_at_least(ApiLevel::new(23));
/// b.switch_to(then_blk);
/// b.invoke_virtual(api, &[], None);
/// b.goto(done);
/// b.switch_to(done);
/// b.ret_void();
/// let body = b.finish()?;
/// assert_eq!(body.len(), 3);
/// # Ok::<(), saint_ir::IrError>(())
/// ```
pub struct BodyBuilder {
    blocks: Vec<PendingBlock>,
    current: BlockId,
    next_reg: u16,
}

impl BodyBuilder {
    /// Creates a builder with an empty entry block selected.
    #[must_use]
    pub fn new() -> Self {
        BodyBuilder {
            blocks: vec![PendingBlock {
                instrs: Vec::new(),
                terminator: None,
            }],
            current: BlockId::ENTRY,
            next_reg: 0,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn alloc_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Appends a new, unterminated block and returns its id (selection
    /// is unchanged).
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(PendingBlock {
            instrs: Vec::new(),
            terminator: None,
        });
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// The currently selected block.
    #[must_use]
    pub fn current(&self) -> BlockId {
        self.current
    }

    /// Selects the block that subsequent instructions append to.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not created by this builder.
    pub fn switch_to(&mut self, block: BlockId) -> &mut Self {
        assert!(
            block.index() < self.blocks.len(),
            "unknown block {block} (builder has {})",
            self.blocks.len()
        );
        self.current = block;
        self
    }

    /// Appends a raw instruction to the current block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        let blk = &mut self.blocks[self.current.index()];
        assert!(
            blk.terminator.is_none(),
            "block {} already terminated",
            self.current
        );
        blk.instrs.push(instr);
        self
    }

    /// `dst = value`
    pub fn const_int(&mut self, dst: Reg, value: i64) -> &mut Self {
        self.push(Instr::Const { dst, value })
    }

    /// `dst = "value"`
    pub fn const_str(&mut self, dst: Reg, value: impl Into<String>) -> &mut Self {
        self.push(Instr::ConstString {
            dst,
            value: value.into(),
        })
    }

    /// `dst = src`
    pub fn move_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Move { dst, src })
    }

    /// `dst = lhs <op> rhs`
    pub fn binop(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) -> &mut Self {
        self.push(Instr::BinOp {
            op,
            dst,
            lhs,
            rhs: rhs.into(),
        })
    }

    /// `dst = new class()`
    pub fn new_instance(&mut self, dst: Reg, class: impl Into<ClassName>) -> &mut Self {
        self.push(Instr::NewInstance {
            dst,
            class: class.into(),
        })
    }

    /// Generic invoke.
    pub fn invoke(
        &mut self,
        kind: InvokeKind,
        method: MethodRef,
        args: &[Reg],
        dst: Option<Reg>,
    ) -> &mut Self {
        self.push(Instr::Invoke {
            kind,
            method: Box::new(method),
            args: args.into(),
            dst,
        })
    }

    /// `invoke-virtual`
    pub fn invoke_virtual(
        &mut self,
        method: MethodRef,
        args: &[Reg],
        dst: Option<Reg>,
    ) -> &mut Self {
        self.invoke(InvokeKind::Virtual, method, args, dst)
    }

    /// `invoke-static`
    pub fn invoke_static(
        &mut self,
        method: MethodRef,
        args: &[Reg],
        dst: Option<Reg>,
    ) -> &mut Self {
        self.invoke(InvokeKind::Static, method, args, dst)
    }

    /// `invoke-super`
    pub fn invoke_super(&mut self, method: MethodRef, args: &[Reg], dst: Option<Reg>) -> &mut Self {
        self.invoke(InvokeKind::Super, method, args, dst)
    }

    /// `dst = object.field` / `dst = Class.field`
    pub fn field_get(&mut self, dst: Reg, field: FieldRef, object: Option<Reg>) -> &mut Self {
        self.push(Instr::FieldGet {
            dst,
            field: Box::new(field),
            object,
        })
    }

    /// `object.field = src` / `Class.field = src`
    pub fn field_put(&mut self, src: Reg, field: FieldRef, object: Option<Reg>) -> &mut Self {
        self.push(Instr::FieldPut {
            src,
            field: Box::new(field),
            object,
        })
    }

    /// Reads `Build.VERSION.SDK_INT` into a fresh register and returns
    /// it.
    pub fn sdk_int(&mut self) -> Reg {
        let r = self.alloc_reg();
        self.field_get(r, FieldRef::sdk_int(), None);
        r
    }

    /// Appends `count` nops (size padding for generated corpora).
    pub fn pad(&mut self, count: usize) -> &mut Self {
        for _ in 0..count {
            self.push(Instr::Nop);
        }
        self
    }

    /// Terminates the current block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn terminate(&mut self, terminator: Terminator) -> &mut Self {
        let blk = &mut self.blocks[self.current.index()];
        assert!(
            blk.terminator.is_none(),
            "block {} already terminated",
            self.current
        );
        blk.terminator = Some(terminator);
        self
    }

    /// `return-void`
    pub fn ret_void(&mut self) -> &mut Self {
        self.terminate(Terminator::Return(None))
    }

    /// `return reg`
    pub fn ret(&mut self, reg: Reg) -> &mut Self {
        self.terminate(Terminator::Return(Some(reg)))
    }

    /// `goto target`
    pub fn goto(&mut self, target: BlockId) -> &mut Self {
        self.terminate(Terminator::Goto(target))
    }

    /// `throw reg`
    pub fn throw(&mut self, reg: Reg) -> &mut Self {
        self.terminate(Terminator::Throw(reg))
    }

    /// Conditional branch out of the current block.
    pub fn branch_if(
        &mut self,
        cond: Cond,
        lhs: Reg,
        rhs: impl Into<Operand>,
        then_blk: BlockId,
        else_blk: BlockId,
    ) -> &mut Self {
        self.terminate(Terminator::If {
            cond,
            lhs,
            rhs: rhs.into(),
            then_blk,
            else_blk,
        })
    }

    /// Emits the canonical SDK guard: reads `SDK_INT`, branches to a new
    /// *then* block when `SDK_INT >= level`, otherwise to a new join
    /// block. Returns `(then_block, join_block)`; the *then* block is
    /// left unterminated (callers usually `goto` the join), and the
    /// builder keeps the original block selected until `switch_to`.
    pub fn guard_sdk_at_least(&mut self, level: ApiLevel) -> (BlockId, BlockId) {
        let sdk = self.sdk_int();
        let then_blk = self.new_block();
        let join = self.new_block();
        self.branch_if(Cond::Ge, sdk, i64::from(level.get()), then_blk, join);
        (then_blk, join)
    }

    /// Emits the inverse guard (`SDK_INT < level` runs the *then*
    /// block); used for legacy fallback paths.
    pub fn guard_sdk_below(&mut self, level: ApiLevel) -> (BlockId, BlockId) {
        let sdk = self.sdk_int();
        let then_blk = self.new_block();
        let join = self.new_block();
        self.branch_if(Cond::Lt, sdk, i64::from(level.get()), then_blk, join);
        (then_blk, join)
    }

    /// Finalizes the body.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::MissingTerminator`] if any block was never
    /// terminated, or a validation error from
    /// [`MethodBody::from_blocks`].
    pub fn finish(self) -> Result<MethodBody, IrError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.into_iter().enumerate() {
            let terminator = b.terminator.ok_or(IrError::MissingTerminator {
                block: BlockId(i as u32),
            })?;
            blocks.push(BasicBlock {
                instrs: b.instrs,
                terminator,
            });
        }
        MethodBody::from_blocks(blocks)
    }
}

impl Default for BodyBuilder {
    fn default() -> Self {
        BodyBuilder::new()
    }
}

/// Builds a [`ClassDef`].
///
/// # Examples
///
/// ```
/// use saint_ir::{ClassBuilder, ClassOrigin};
///
/// let class = ClassBuilder::new("com.example.app.MainActivity", ClassOrigin::App)
///     .extends("android.app.Activity")
///     .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
///         b.ret_void();
///     })?
///     .build();
/// assert_eq!(class.methods.len(), 1);
/// # Ok::<(), saint_ir::IrError>(())
/// ```
pub struct ClassBuilder {
    class: ClassDef,
}

impl ClassBuilder {
    /// Starts a class extending `java.lang.Object`.
    #[must_use]
    pub fn new(name: impl Into<ClassName>, origin: ClassOrigin) -> Self {
        ClassBuilder {
            class: ClassDef::new(name, origin),
        }
    }

    /// Sets the superclass.
    #[must_use]
    pub fn extends(mut self, super_class: impl Into<ClassName>) -> Self {
        self.class.super_class = Some(super_class.into());
        self
    }

    /// Adds an implemented interface.
    #[must_use]
    pub fn implements(mut self, interface: impl Into<ClassName>) -> Self {
        self.class.interfaces.push(interface.into());
        self
    }

    /// Adds a field.
    #[must_use]
    pub fn field(mut self, name: impl Into<String>, is_static: bool) -> Self {
        self.class.fields.push(FieldDef {
            name: name.into(),
            is_static,
        });
        self
    }

    /// Adds a concrete method whose body is authored by `f`.
    ///
    /// # Errors
    ///
    /// Propagates body-construction errors and duplicate-method errors.
    pub fn method(
        mut self,
        name: impl Into<String>,
        descriptor: impl Into<String>,
        f: impl FnOnce(&mut BodyBuilder),
    ) -> Result<Self, IrError> {
        let mut b = BodyBuilder::new();
        f(&mut b);
        let body = b.finish()?;
        self.class
            .add_method(MethodDef::concrete(name, descriptor, body))?;
        Ok(self)
    }

    /// Adds a static concrete method.
    ///
    /// # Errors
    ///
    /// Propagates body-construction errors and duplicate-method errors.
    pub fn static_method(
        mut self,
        name: impl Into<String>,
        descriptor: impl Into<String>,
        f: impl FnOnce(&mut BodyBuilder),
    ) -> Result<Self, IrError> {
        let mut b = BodyBuilder::new();
        f(&mut b);
        let body = b.finish()?;
        let mut m = MethodDef::concrete(name, descriptor, body);
        m.flags.is_static = true;
        self.class.add_method(m)?;
        Ok(self)
    }

    /// Adds an abstract method.
    ///
    /// # Errors
    ///
    /// Returns duplicate-method errors.
    pub fn abstract_method(
        mut self,
        name: impl Into<String>,
        descriptor: impl Into<String>,
    ) -> Result<Self, IrError> {
        self.class
            .add_method(MethodDef::abstract_(name, descriptor))?;
        Ok(self)
    }

    /// Adds a native (body-less, terminal) method.
    ///
    /// # Errors
    ///
    /// Returns duplicate-method errors.
    pub fn native_method(
        mut self,
        name: impl Into<String>,
        descriptor: impl Into<String>,
    ) -> Result<Self, IrError> {
        let mut m = MethodDef::abstract_(name, descriptor);
        m.flags = MethodFlags {
            is_native: true,
            ..MethodFlags::default()
        };
        self.class.add_method(m)?;
        Ok(self)
    }

    /// Finalizes the class.
    #[must_use]
    pub fn build(self) -> ClassDef {
        self.class
    }
}

/// Builds an [`Apk`].
///
/// # Examples
///
/// ```
/// use saint_ir::{ApkBuilder, ApiLevel, ClassBuilder, ClassOrigin};
///
/// let main = ClassBuilder::new("com.example.app.MainActivity", ClassOrigin::App)
///     .extends("android.app.Activity")
///     .build();
/// let apk = ApkBuilder::new("com.example.app", ApiLevel::new(21), ApiLevel::new(28))
///     .activity("com.example.app.MainActivity")
///     .class(main)?
///     .build();
/// assert_eq!(apk.class_count(), 1);
/// # Ok::<(), saint_ir::IrError>(())
/// ```
pub struct ApkBuilder {
    apk: Apk,
}

impl ApkBuilder {
    /// Starts an APK with the given package and SDK attributes.
    ///
    /// # Panics
    ///
    /// Never panics: `min > max` is impossible here because no
    /// `maxSdkVersion` is set yet (use [`ApkBuilder::max_sdk`]).
    #[must_use]
    pub fn new(package: impl Into<String>, min_sdk: ApiLevel, target_sdk: ApiLevel) -> Self {
        let manifest = Manifest::new(package, min_sdk, target_sdk, None)
            .expect("manifest without maxSdkVersion is always valid");
        ApkBuilder {
            apk: Apk::new(manifest),
        }
    }

    /// Declares `maxSdkVersion`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidSdkRange`] when below `minSdkVersion`.
    pub fn max_sdk(mut self, level: ApiLevel) -> Result<Self, IrError> {
        if level < self.apk.manifest.min_sdk {
            return Err(IrError::InvalidSdkRange {
                min: self.apk.manifest.min_sdk.get(),
                max: level.get(),
            });
        }
        self.apk.manifest.max_sdk = Some(level);
        Ok(self)
    }

    /// Adds a `<uses-permission>` entry.
    #[must_use]
    pub fn permission(mut self, p: Permission) -> Self {
        self.apk.manifest.uses_permissions.push(p);
        self
    }

    /// Declares an activity component.
    #[must_use]
    pub fn activity(self, class: impl Into<ClassName>) -> Self {
        self.component(ComponentKind::Activity, class)
    }

    /// Declares a service component.
    #[must_use]
    pub fn service(self, class: impl Into<ClassName>) -> Self {
        self.component(ComponentKind::Service, class)
    }

    /// Declares a broadcast receiver component.
    #[must_use]
    pub fn receiver(self, class: impl Into<ClassName>) -> Self {
        self.component(ComponentKind::Receiver, class)
    }

    /// Declares a component of the given kind.
    #[must_use]
    pub fn component(mut self, kind: ComponentKind, class: impl Into<ClassName>) -> Self {
        self.apk.manifest.components.push(Component {
            kind,
            class: class.into(),
        });
        self
    }

    /// Adds a class to the primary dex.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DuplicateClass`] on name collision.
    pub fn class(mut self, class: ClassDef) -> Result<Self, IrError> {
        self.apk.primary.add_class(class)?;
        Ok(self)
    }

    /// Adds a complete secondary (late-bound) dex payload.
    #[must_use]
    pub fn secondary_dex(mut self, dex: DexFile) -> Self {
        self.apk.secondary.push(dex);
        self
    }

    /// Marks the app as having no buildable source (LINT cannot analyze
    /// it; paper §IV-A).
    #[must_use]
    pub fn without_source(mut self) -> Self {
        self.apk.has_source = false;
        self
    }

    /// Finalizes the APK.
    #[must_use]
    pub fn build(self) -> Apk {
        self.apk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_body() {
        let mut b = BodyBuilder::new();
        let r = b.alloc_reg();
        b.const_int(r, 7).ret(r);
        let body = b.finish().unwrap();
        assert_eq!(body.len(), 1);
        assert_eq!(body.register_count(), 1);
    }

    #[test]
    fn unterminated_block_is_error() {
        let mut b = BodyBuilder::new();
        b.pad(1);
        assert!(matches!(
            b.finish(),
            Err(IrError::MissingTerminator { block: BlockId(0) })
        ));
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = BodyBuilder::new();
        b.ret_void();
        b.ret_void();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn push_after_terminate_panics() {
        let mut b = BodyBuilder::new();
        b.ret_void();
        b.pad(1);
    }

    #[test]
    fn guard_shapes_cfg() {
        let mut b = BodyBuilder::new();
        let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
        b.switch_to(then_blk);
        b.goto(join);
        b.switch_to(join);
        b.ret_void();
        let body = b.finish().unwrap();
        assert_eq!(body.len(), 3);
        // entry ends in an If on a register fed by an SDK_INT read
        let entry = body.block(BlockId::ENTRY);
        assert!(entry.instrs.iter().any(Instr::is_sdk_int_read));
        assert!(matches!(entry.terminator, Terminator::If { .. }));
    }

    #[test]
    fn class_builder_roundtrip() {
        let c = ClassBuilder::new("a.B", ClassOrigin::App)
            .extends("a.Base")
            .implements("a.I")
            .field("x", false)
            .method("m", "()V", |b| {
                b.ret_void();
            })
            .unwrap()
            .abstract_method("n", "()V")
            .unwrap()
            .native_method("nat", "()V")
            .unwrap()
            .build();
        assert_eq!(c.methods.len(), 3);
        assert!(
            c.method(&crate::name::MethodSig::new("nat", "()V"))
                .unwrap()
                .flags
                .is_native
        );
        assert_eq!(c.super_class.as_ref().unwrap().as_str(), "a.Base");
    }

    #[test]
    fn static_method_flag_set() {
        let c = ClassBuilder::new("a.B", ClassOrigin::App)
            .static_method("s", "()V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        assert!(c.methods[0].flags.is_static);
    }

    #[test]
    fn apk_builder_assembles_manifest() {
        let apk = ApkBuilder::new("p.q", ApiLevel::new(19), ApiLevel::new(27))
            .max_sdk(ApiLevel::new(28))
            .unwrap()
            .permission(Permission::android("CAMERA"))
            .activity("p.q.Main")
            .service("p.q.Sync")
            .without_source()
            .build();
        assert_eq!(apk.manifest.max_sdk, Some(ApiLevel::new(28)));
        assert_eq!(apk.manifest.components.len(), 2);
        assert!(!apk.has_source);
        assert!(apk
            .manifest
            .requests_permission(&Permission::android("CAMERA")));
    }

    #[test]
    fn apk_builder_rejects_bad_max() {
        let r =
            ApkBuilder::new("p.q", ApiLevel::new(23), ApiLevel::new(27)).max_sdk(ApiLevel::new(4));
        assert!(r.is_err());
    }
}
