//! The bounded IR interpreter.
//!
//! Executes app entry points over a simulated device: the platform's
//! framework classes are materialized at the *device* level (that is
//! the code that actually exists at run time), while bundled support
//! libraries (`android.support.*`) execute the code the app shipped —
//! materialized at the app's *target* level, exactly like a compiled-in
//! dependency. Crashes are observed, not predicted:
//!
//! * an invocation that resolves to nothing the platform has, but that
//!   the API database knows from other levels, raises
//!   `NoSuchMethodError`;
//! * a dangerous-permission API executed without the permission
//!   granted raises `SecurityException`.

use std::collections::HashSet;
use std::sync::Arc;

use saint_adf::{AndroidFramework, ApiDatabase, PermissionMap};
use saint_analysis::{
    Clvm, FrameworkProvider, PrimaryDexProvider, Resolution, SecondaryDexProvider,
};
use saint_ir::{
    ApiLevel, Apk, BlockId, ClassName, Instr, Manifest, MethodBody, MethodRef, Operand, Permission,
    Terminator,
};
use serde::Serialize;

use crate::device::{Device, PermissionState};

/// A concrete runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / uninitialized reference.
    Null,
    /// Integer.
    Int(i64),
    /// String constant.
    Str(Arc<str>),
    /// An object reference (identity-free: the analysis only needs the
    /// class).
    Obj(ClassName),
}

impl Value {
    fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            _ => 0,
        }
    }
}

/// Why an execution crashed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum CrashKind {
    /// The platform at this level has no such method (missing or
    /// removed API).
    NoSuchMethod,
    /// A dangerous-permission API executed without the grant.
    SecurityException {
        /// The missing permission.
        permission: Permission,
    },
}

/// One observed crash.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrashEvent {
    /// The entry point whose execution crashed.
    pub entry: MethodRef,
    /// The innermost *app/package* frame on the stack when the crash
    /// happened — the site a stack trace would blame.
    pub app_frame: Option<MethodRef>,
    /// The framework API at fault (declaring-class form).
    pub api: MethodRef,
    /// What happened.
    pub kind: CrashKind,
    /// The device level it happened on.
    pub level: ApiLevel,
}

/// Everything one simulated run observed.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Crashes, one per entry at most (execution stops at the first).
    pub crashes: Vec<CrashEvent>,
    /// Framework APIs that were actually invoked (declaring form).
    pub reached_apis: HashSet<MethodRef>,
    /// App/package methods that were entered.
    pub entered: HashSet<MethodRef>,
    /// Whether every entry ran to completion within budget with no
    /// unanalyzable external calls — required for refutation.
    pub complete: bool,
}

/// Serves `android.support.*` classes frozen at the app's target level
/// (bundled code ships with the app and does not change with the
/// device).
struct BundledSupportProvider {
    framework: Arc<AndroidFramework>,
    target: ApiLevel,
}

impl saint_analysis::ClassProvider for BundledSupportProvider {
    fn find_class(&self, name: &ClassName) -> Option<Arc<saint_ir::ClassDef>> {
        name.as_str()
            .starts_with("android.support.")
            .then(|| self.framework.class_at(self.target, name))
            .flatten()
    }

    fn class_names(&self) -> Vec<ClassName> {
        self.framework
            .spec()
            .classes()
            .filter(|c| c.name.as_str().starts_with("android.support."))
            .map(|c| c.name.clone())
            .collect()
    }

    fn label(&self) -> &str {
        "bundled-support"
    }
}

/// The simulator for one (app, device) pairing.
pub struct Simulator {
    clvm: Clvm,
    db: Arc<ApiDatabase>,
    pm: Arc<PermissionMap>,
    manifest: Manifest,
    device: Device,
    permissions: PermissionState,
    steps: usize,
    incomplete: bool,
    outcome_reached: HashSet<MethodRef>,
    outcome_entered: HashSet<MethodRef>,
    // Crash events observed so far; the harness catches the exception
    // at the faulting call and keeps exploring (like a monkey tester
    // wrapping every callback in a try/catch), so one crash does not
    // hide sites behind it.
    crashes: Vec<CrashEvent>,
    current_entry: Option<MethodRef>,
    app_stack: Vec<MethodRef>,
}

impl Simulator {
    /// Builds the simulator: app dexes + bundled support (target
    /// level) + platform (device level).
    #[must_use]
    pub fn new(apk: &Apk, framework: &Arc<AndroidFramework>, device: Device) -> Self {
        let mut clvm = Clvm::new();
        clvm.add_provider(Box::new(PrimaryDexProvider::new(apk)));
        for dex in &apk.secondary {
            clvm.add_provider(Box::new(SecondaryDexProvider::new(dex)));
        }
        clvm.add_provider(Box::new(BundledSupportProvider {
            framework: Arc::clone(framework),
            target: apk.manifest.target_sdk.clamp_modeled(),
        }));
        clvm.add_provider(Box::new(FrameworkProvider::new(
            Arc::clone(framework),
            device.level.clamp_modeled(),
        )));
        let permissions = PermissionState::at_start(&apk.manifest, &device);
        Simulator {
            clvm,
            db: framework.database(),
            pm: framework.permission_map(),
            manifest: apk.manifest.clone(),
            device,
            permissions,
            steps: 0,
            incomplete: false,
            outcome_reached: HashSet::new(),
            outcome_entered: HashSet::new(),
            crashes: Vec::new(),
            current_entry: None,
            app_stack: Vec::new(),
        }
    }

    fn record_crash(&mut self, api: MethodRef, kind: CrashKind) {
        let entry = self
            .current_entry
            .clone()
            .expect("crashes only occur inside an entry");
        let event = CrashEvent {
            entry,
            app_frame: self.app_stack.last().cloned(),
            api,
            kind,
            level: self.device.level,
        };
        if !self.crashes.contains(&event) {
            self.crashes.push(event);
        }
    }

    /// Runs every entry point, returning the combined observations.
    pub fn run_entries(&mut self, entries: &[MethodRef]) -> RunOutcome {
        for entry in entries {
            self.steps = 0;
            // Fresh permission state per entry (each is a fresh launch).
            self.permissions =
                PermissionState::at_start(&self.manifest.clone(), &self.device.clone());
            self.current_entry = Some(entry.clone());
            let _ = self.invoke(entry, 0);
        }
        self.current_entry = None;
        RunOutcome {
            crashes: std::mem::take(&mut self.crashes),
            reached_apis: std::mem::take(&mut self.outcome_reached),
            entered: std::mem::take(&mut self.outcome_entered),
            complete: !self.incomplete,
        }
    }

    fn invoke(&mut self, target: &MethodRef, depth: usize) -> Value {
        if depth >= self.device.depth_limit || self.steps >= self.device.step_limit {
            self.incomplete = true;
            return Value::Null;
        }
        match self.clvm.resolve_virtual(target) {
            Resolution::Found { declaring, method } => {
                // Permission gate: executing a mapped dangerous API
                // without the grant crashes (caught by the harness).
                let missing_grant = self
                    .pm
                    .required_dangerous(&method)
                    .find(|p| !self.permissions.is_granted(p))
                    .cloned();
                if let Some(p) = missing_grant {
                    self.record_crash(
                        method.clone(),
                        CrashKind::SecurityException { permission: p },
                    );
                    return Value::Null;
                }
                let is_framework = matches!(declaring.origin, saint_ir::ClassOrigin::Framework);
                if is_framework {
                    self.outcome_reached.insert(method.clone());
                    // Runtime permission request side effect.
                    if &*method.name == "requestPermissions" {
                        let manifest = self.manifest.clone();
                        let device = self.device.clone();
                        self.permissions.runtime_request(&manifest, &device);
                    }
                } else {
                    self.outcome_entered.insert(method.clone());
                }
                let body = declaring
                    .method(&method.signature())
                    .and_then(|d| d.body.clone());
                match body {
                    Some(body) => {
                        if !is_framework {
                            self.app_stack.push(method.clone());
                        }
                        let v = self.execute(&body, &method, depth);
                        if !is_framework {
                            self.app_stack.pop();
                        }
                        v
                    }
                    None => Value::Null, // abstract/native terminal
                }
            }
            Resolution::NotFound | Resolution::External(_) => self.unresolved(target),
        }
    }

    /// Classifies a call the loaded world could not dispatch: a
    /// linkage error (the platform at this level lacks the member), an
    /// implicit constructor, or genuinely external code.
    fn unresolved(&mut self, target: &MethodRef) -> Value {
        // The API database knows the member from some level: the app
        // linked against a platform member this device lacks.
        if let Some((declared, _)) = self.db.resolve(&target.class, &target.signature()) {
            if !self.db.contains(&declared, self.device.level) {
                self.record_crash(declared, CrashKind::NoSuchMethod);
            }
            // Known (and possibly crashed): stub result either way.
            return Value::Null;
        }
        // The receiver may be an app class whose framework lineage
        // carries the member (`this.getFragmentManager()` written
        // against the app subclass).
        if let Some(fw) = self.clvm.framework_ancestor(&target.class) {
            if let Some((declared, _)) = self.db.resolve(&fw, &target.signature()) {
                if !self.db.contains(&declared, self.device.level) {
                    self.record_crash(declared, CrashKind::NoSuchMethod);
                }
                return Value::Null;
            }
        }
        // Implicit default constructor / static initializer.
        if &*target.name == "<init>" || &*target.name == "<clinit>" {
            return Value::Null;
        }
        if target.class.is_framework_namespace() {
            // A framework-namespace member the model never had: a
            // linkage error too.
            self.record_crash(target.clone(), CrashKind::NoSuchMethod);
            return Value::Null;
        }
        // Truly external (vendor SDK, reflection target outside the
        // package): unanalyzable — note it and continue.
        self.incomplete = true;
        Value::Null
    }

    fn execute(&mut self, body: &MethodBody, method: &MethodRef, depth: usize) -> Value {
        let mut regs: Vec<Value> = vec![Value::Null; body.register_count() as usize];
        let mut block = BlockId::ENTRY;
        let mut visited_guard = 0usize;
        loop {
            self.steps += body.block(block).instrs.len() + 1;
            if self.steps >= self.device.step_limit {
                self.incomplete = true;
                return Value::Null;
            }
            for instr in &body.block(block).instrs {
                match instr {
                    Instr::Const { dst, value } => regs[dst.0 as usize] = Value::Int(*value),
                    Instr::ConstString { dst, value } => {
                        regs[dst.0 as usize] = Value::Str(Arc::from(value.as_str()));
                    }
                    Instr::Move { dst, src } => {
                        regs[dst.0 as usize] = regs[src.0 as usize].clone();
                    }
                    Instr::BinOp { op, dst, lhs, rhs } => {
                        let l = regs[lhs.0 as usize].as_int();
                        let r = match rhs {
                            Operand::Reg(r) => regs[r.0 as usize].as_int(),
                            Operand::Imm(v) => *v,
                        };
                        let v = match op {
                            saint_ir::BinOp::Add => l.wrapping_add(r),
                            saint_ir::BinOp::Sub => l.wrapping_sub(r),
                            saint_ir::BinOp::Mul => l.wrapping_mul(r),
                            saint_ir::BinOp::Div => l.checked_div(r).unwrap_or(0),
                            saint_ir::BinOp::And => l & r,
                            saint_ir::BinOp::Or => l | r,
                            saint_ir::BinOp::Xor => l ^ r,
                        };
                        regs[dst.0 as usize] = Value::Int(v);
                    }
                    Instr::NewInstance { dst, class } => {
                        regs[dst.0 as usize] = Value::Obj(class.clone());
                    }
                    Instr::FieldGet { dst, field, .. } => {
                        regs[dst.0 as usize] = if field.is_sdk_int() {
                            Value::Int(i64::from(self.device.level.get()))
                        } else {
                            Value::Int(0)
                        };
                    }
                    Instr::FieldPut { .. } | Instr::Nop => {}
                    Instr::Invoke {
                        method: target,
                        dst,
                        args,
                        ..
                    } => {
                        // Virtual dispatch through the *runtime* type of
                        // the receiver when it refines the static
                        // target (a subclass override).
                        let dispatched = match args.first().map(|r| &regs[r.0 as usize]) {
                            Some(Value::Obj(class))
                                if class != &target.class
                                    && class_declares(&mut self.clvm, class, target) =>
                            {
                                target.with_class(class.clone())
                            }
                            _ => MethodRef::clone(target),
                        };
                        let v = self.invoke(&dispatched, depth + 1);
                        if let Some(d) = dst {
                            regs[d.0 as usize] = v;
                        }
                    }
                }
            }
            match &body.block(block).terminator {
                Terminator::Goto(t) => block = *t,
                Terminator::If {
                    cond,
                    lhs,
                    rhs,
                    then_blk,
                    else_blk,
                } => {
                    let l = regs[lhs.0 as usize].as_int();
                    let r = match rhs {
                        Operand::Reg(r) => regs[r.0 as usize].as_int(),
                        Operand::Imm(v) => *v,
                    };
                    let taken = match cond {
                        saint_ir::Cond::Eq => l == r,
                        saint_ir::Cond::Ne => l != r,
                        saint_ir::Cond::Lt => l < r,
                        saint_ir::Cond::Le => l <= r,
                        saint_ir::Cond::Gt => l > r,
                        saint_ir::Cond::Ge => l >= r,
                    };
                    block = if taken { *then_blk } else { *else_blk };
                }
                Terminator::Switch {
                    scrutinee,
                    targets,
                    default,
                } => {
                    let v = regs[scrutinee.0 as usize].as_int();
                    block = targets
                        .iter()
                        .find(|(case, _)| *case == v)
                        .map_or(*default, |(_, b)| *b);
                }
                Terminator::Return(r) => {
                    return r.map_or(Value::Null, |r| regs[r.0 as usize].clone());
                }
                Terminator::Throw(_) => return Value::Null,
            }
            visited_guard += 1;
            if visited_guard > 100_000 {
                self.incomplete = true;
                let _ = method;
                return Value::Null;
            }
        }
    }
}

fn class_declares(clvm: &mut Clvm, class: &ClassName, target: &MethodRef) -> bool {
    clvm.load_class(class)
        .is_some_and(|c| c.method(&target.signature()).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_adf::well_known;
    use saint_ir::{ApkBuilder, ClassBuilder, ClassOrigin};

    fn framework() -> Arc<AndroidFramework> {
        Arc::new(AndroidFramework::curated())
    }

    fn on_create(class: &str) -> MethodRef {
        MethodRef::new(class, "onCreate", "(Landroid/os/Bundle;)V")
    }

    fn listing1(guarded: bool) -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                if guarded {
                    let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
                    b.switch_to(then_blk);
                    b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                    b.goto(join);
                    b.switch_to(join);
                    b.ret_void();
                } else {
                    b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                    b.ret_void();
                }
            })
            .unwrap()
            .build();
        ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build()
    }

    #[test]
    fn unguarded_call_crashes_on_old_device() {
        let apk = listing1(false);
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(21)));
        let out = sim.run_entries(&[on_create("p.Main")]);
        assert_eq!(out.crashes.len(), 1);
        assert_eq!(out.crashes[0].kind, CrashKind::NoSuchMethod);
        assert_eq!(&*out.crashes[0].api.name, "getColorStateList");
    }

    #[test]
    fn unguarded_call_fine_on_new_device() {
        let apk = listing1(false);
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(26)));
        let out = sim.run_entries(&[on_create("p.Main")]);
        assert!(out.crashes.is_empty());
        assert!(out.complete);
    }

    #[test]
    fn guard_prevents_the_crash() {
        let apk = listing1(true);
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(21)));
        let out = sim.run_entries(&[on_create("p.Main")]);
        assert!(out.crashes.is_empty(), "{:?}", out.crashes);
        assert!(out.complete, "closed-world execution must complete");
    }

    #[test]
    fn bundled_support_runs_target_code_on_old_device() {
        // The deep TintHelper path: at device 21 the *bundled* helper
        // still carries its target-level body, whose setForeground call
        // cannot resolve on the old platform → crash.
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_virtual(well_known::tint_helper_apply_tint(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(21)));
        let out = sim.run_entries(&[on_create("p.Main")]);
        assert_eq!(out.crashes.len(), 1);
        assert_eq!(&*out.crashes[0].api.name, "setForeground");
    }

    #[test]
    fn internally_guarded_compat_shim_survives_everywhere() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_virtual(well_known::resources_compat_get_csl(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(19), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        for level in [19u8, 22, 23, 28] {
            let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(level)));
            let out = sim.run_entries(&[on_create("p.Main")]);
            assert!(out.crashes.is_empty(), "level {level}: {:?}", out.crashes);
        }
    }

    #[test]
    fn revoked_permission_crashes_legacy_app() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_static(well_known::get_external_storage_directory(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(15), ApiLevel::new(22))
            .permission(Permission::android("WRITE_EXTERNAL_STORAGE"))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        // Friendly 22 device: fine.
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(22)));
        assert!(sim.run_entries(&[on_create("p.Main")]).crashes.is_empty());
        // Hostile 26 device: the AdAway crash.
        let mut sim = Simulator::new(&apk, &framework(), Device::hostile(ApiLevel::new(26)));
        let out = sim.run_entries(&[on_create("p.Main")]);
        assert_eq!(out.crashes.len(), 1);
        assert!(matches!(
            out.crashes[0].kind,
            CrashKind::SecurityException { .. }
        ));
    }

    #[test]
    fn runtime_request_grants_and_survives() {
        // Target 26, requests at runtime before using the camera.
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_virtual(well_known::activity_request_permissions(), &[], None);
                b.invoke_static(well_known::camera_open(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .method(
                "onRequestPermissionsResult",
                "(I[Ljava/lang/String;[I)V",
                |b| {
                    b.ret_void();
                },
            )
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(23), ApiLevel::new(26))
            .permission(Permission::android("CAMERA"))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(26)));
        let out = sim.run_entries(&[on_create("p.Main")]);
        assert!(out.crashes.is_empty(), "{:?}", out.crashes);
    }

    #[test]
    fn unrequested_dangerous_use_crashes_on_runtime_device() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_static(well_known::camera_open(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(23), ApiLevel::new(26))
            .permission(Permission::android("CAMERA"))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(26)));
        let out = sim.run_entries(&[on_create("p.Main")]);
        assert_eq!(out.crashes.len(), 1);
    }

    #[test]
    fn infinite_loops_hit_the_budget_not_the_wall_clock() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .method("spin", "()V", |b| {
                let head = b.new_block();
                b.goto(head);
                b.switch_to(head);
                b.goto(head);
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(main)
            .unwrap()
            .build();
        let mut sim = Simulator::new(&apk, &framework(), Device::at(ApiLevel::new(21)));
        let out = sim.run_entries(&[MethodRef::new("p.Main", "spin", "()V")]);
        assert!(out.crashes.is_empty());
        assert!(
            !out.complete,
            "budget exhaustion must mark the run incomplete"
        );
    }
}
