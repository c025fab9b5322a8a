//! The repair synthesizer — paper §VIII: "Another avenue for future
//! work is to develop a complementing code synthesizer to help repair
//! apps that do not properly handle detected mismatches."
//!
//! Given a report, the synthesizer patches the APK:
//!
//! * **API invocation mismatches** get the fix the paper recommends for
//!   Listing 1: the offending call (or, for deep findings, the facade
//!   call that reaches it) is wrapped in the appropriate
//!   `Build.VERSION.SDK_INT` guard — `>= since` for
//!   backward-compatibility gaps, `< removed` for forward ones, both
//!   for APIs with a bounded lifetime;
//! * **permission request mismatches** get the runtime protocol: an
//!   `onRequestPermissionsResult` handler plus an
//!   `ActivityCompat.requestPermissions` call ahead of the dangerous
//!   usage (the Kolab Notes fix);
//! * **permission revocation mismatches** additionally require moving
//!   the app onto the runtime regime, so with
//!   [`RepairOptions::apply_manifest_fixes`] the target SDK is raised
//!   (the AdAway fix); otherwise an advisory action is emitted;
//! * **API callback mismatches** cannot be guarded in code — the
//!   paper's fix is a manifest change (`minSdkVersion` up to the
//!   callback's introduction level, the FOSDEM fix), applied only with
//!   [`RepairOptions::apply_manifest_fixes`].

use std::collections::HashSet;

use saint_adf::spec::LifeSpan;
use saint_ir::{
    ApiLevel, Apk, BasicBlock, BlockId, ClassDef, Cond, DexFile, FieldRef, Instr, InvokeKind,
    MethodBody, MethodDef, MethodRef, MethodSig, Operand, Reg, Terminator,
};
use serde::Serialize;

use crate::mismatch::{Mismatch, MismatchKind};
use crate::report::Report;

/// Repair policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairOptions {
    /// Allow manifest edits (raising `minSdkVersion` /
    /// `targetSdkVersion`). Code-level guards are always allowed;
    /// manifest changes alter which devices the app ships to, so they
    /// are opt-in.
    pub apply_manifest_fixes: bool,
}

/// One performed (or advised) repair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RepairAction {
    /// A `SDK_INT` guard was synthesized around a call site.
    GuardInserted {
        /// Method whose body was patched.
        site: MethodRef,
        /// The API (or facade) whose calls are now guarded.
        guarded_call: MethodSig,
        /// Lower bound enforced (`SDK_INT >= since`), if any.
        at_least: Option<ApiLevel>,
        /// Upper bound enforced (`SDK_INT < removed`), if any.
        below: Option<ApiLevel>,
    },
    /// The runtime-permission protocol was synthesized onto a class.
    RuntimeProtocolAdded {
        /// Class that received the handler and the request call.
        class: saint_ir::ClassName,
    },
    /// `targetSdkVersion` was raised onto the runtime regime.
    TargetRaised {
        /// Previous target.
        from: ApiLevel,
        /// New target.
        to: ApiLevel,
    },
    /// `minSdkVersion` was raised past a callback's introduction.
    MinSdkRaised {
        /// Previous minimum.
        from: ApiLevel,
        /// New minimum.
        to: ApiLevel,
    },
    /// No automatic fix; human guidance attached.
    Advisory {
        /// The finding left unfixed.
        site: MethodRef,
        /// What a developer should do.
        suggestion: String,
    },
}

/// The synthesizer's output.
#[derive(Debug)]
pub struct RepairOutcome {
    /// The patched package.
    pub apk: Apk,
    /// Everything that was done (or advised).
    pub actions: Vec<RepairAction>,
}

/// Repairs every finding in `report` against `apk`.
#[must_use]
pub fn repair(apk: &Apk, report: &Report, opts: &RepairOptions) -> RepairOutcome {
    let mut patched = apk.clone();
    let mut actions = Vec::new();
    let mut protocol_sites: HashSet<MethodRef> = HashSet::new();
    let mut min_floor: Option<ApiLevel> = None;

    for m in &report.mismatches {
        match m.kind {
            MismatchKind::ApiInvocation => {
                // Direct finding: guard the API call itself. Deep
                // finding: the app-side fix is guarding the facade hop.
                let call_sig = m
                    .via
                    .first()
                    .map_or_else(|| m.api.signature(), MethodRef::signature);
                let bounds = guard_bounds(m);
                if let Some((at_least, below)) = bounds {
                    let changed =
                        wrap_calls_in_class(&mut patched, &m.site, &call_sig, at_least, below);
                    if changed {
                        actions.push(RepairAction::GuardInserted {
                            site: m.site.clone(),
                            guarded_call: call_sig,
                            at_least,
                            below,
                        });
                        continue;
                    }
                }
                actions.push(RepairAction::Advisory {
                    site: m.site.clone(),
                    suggestion: format!(
                        "could not locate the call to {} in the site body; guard it manually",
                        m.api
                    ),
                });
            }
            MismatchKind::ApiCallback => {
                if opts.apply_manifest_fixes {
                    if let Some(life) = m.api_life {
                        let floor = min_floor.get_or_insert(life.since);
                        *floor = (*floor).max(life.since);
                        continue;
                    }
                }
                actions.push(RepairAction::Advisory {
                    site: m.site.clone(),
                    suggestion: format!(
                        "raise minSdkVersion to {} so the {} override is delivered on every supported device",
                        m.api_life.map_or_else(|| "the callback's level".to_string(), |l| l.since.to_string()),
                        m.api
                    ),
                });
            }
            MismatchKind::PermissionRequest => {
                protocol_sites.insert(m.site.clone());
            }
            MismatchKind::PermissionRevocation => {
                if opts.apply_manifest_fixes {
                    let from = patched.manifest.target_sdk;
                    if from < ApiLevel::RUNTIME_PERMISSIONS {
                        patched.manifest.target_sdk = ApiLevel::RUNTIME_PERMISSIONS;
                        actions.push(RepairAction::TargetRaised {
                            from,
                            to: ApiLevel::RUNTIME_PERMISSIONS,
                        });
                    }
                    protocol_sites.insert(m.site.clone());
                } else {
                    actions.push(RepairAction::Advisory {
                        site: m.site.clone(),
                        suggestion:
                            "update the app to the runtime permission system and raise targetSdkVersion to 23+"
                                .to_string(),
                    });
                }
            }
            MismatchKind::DsdOveruse => {
                actions.push(RepairAction::Advisory {
                    site: m.site.clone(),
                    suggestion: format!(
                        "guard the call to {} with an SDK_INT check or raise minSdkVersion to its introduction level",
                        m.api
                    ),
                });
            }
            MismatchKind::DsdUnderuse => {
                actions.push(RepairAction::Advisory {
                    site: m.site.clone(),
                    suggestion:
                        "align the declared minSdkVersion/maxSdkVersion bounds with actual API usage"
                            .to_string(),
                });
            }
        }
    }

    for site in protocol_sites {
        if add_runtime_protocol(&mut patched, &site) {
            actions.push(RepairAction::RuntimeProtocolAdded {
                class: site.class.clone(),
            });
        }
    }
    if let Some(floor) = min_floor {
        let from = patched.manifest.min_sdk;
        // A raise must keep the declared triple satisfiable: lifting
        // minSdkVersion past targetSdkVersion (or maxSdkVersion) would
        // produce a manifest the codec rejects on decode.
        let mut ceiling = patched.manifest.target_sdk;
        if let Some(max) = patched.manifest.max_sdk {
            ceiling = ceiling.min(max);
        }
        let to = floor.min(ceiling);
        if to > from {
            patched.manifest.min_sdk = to;
            actions.push(RepairAction::MinSdkRaised { from, to });
        }
    }

    RepairOutcome {
        apk: patched,
        actions,
    }
}

/// Derives the guard bounds for an invocation finding from the API's
/// mined lifetime and the app's supported range.
fn guard_bounds(m: &Mismatch) -> Option<(Option<ApiLevel>, Option<ApiLevel>)> {
    let life: LifeSpan = m.api_life?;
    let needs_lower = m.missing_levels.iter().any(|l| *l < life.since);
    let needs_upper = life
        .removed
        .is_some_and(|r| m.missing_levels.iter().any(|l| *l >= r));
    let at_least = needs_lower.then_some(life.since);
    let below = if needs_upper { life.removed } else { None };
    (at_least.is_some() || below.is_some()).then_some((at_least, below))
}

/// Wraps every call matching `sig` inside `site`'s body (located in
/// whichever dex carries the class). Returns whether anything changed.
fn wrap_calls_in_class(
    apk: &mut Apk,
    site: &MethodRef,
    sig: &MethodSig,
    at_least: Option<ApiLevel>,
    below: Option<ApiLevel>,
) -> bool {
    let patch = |dex: &mut DexFile| -> bool {
        let Some(class) = dex.class(&site.class).cloned() else {
            return false;
        };
        let mut class = class;
        let mut changed = false;
        for method in &mut class.methods {
            if method.name != *site.name || method.descriptor != *site.descriptor {
                continue;
            }
            if let Some(body) = &method.body {
                if let Some(patched) = wrap_matching_calls(body, sig, at_least, below) {
                    method.body = Some(patched);
                    changed = true;
                }
            }
        }
        if changed {
            dex.update_class(class);
        }
        changed
    };
    let mut changed = patch(&mut apk.primary);
    for dex in &mut apk.secondary {
        changed |= patch(dex);
    }
    changed
}

/// Rewrites a body so every `Invoke` whose target matches `sig` is
/// guarded by the requested `SDK_INT` bounds. Returns `None` when no
/// call matched.
#[must_use]
pub fn wrap_matching_calls(
    body: &MethodBody,
    sig: &MethodSig,
    at_least: Option<ApiLevel>,
    below: Option<ApiLevel>,
) -> Option<MethodBody> {
    let mut blocks: Vec<BasicBlock> = body.blocks().to_vec();
    let mut next_reg = body.register_count();
    // Blocks synthesized to hold already-guarded calls; never re-split.
    let mut protected: HashSet<usize> = HashSet::new();
    let mut changed = false;

    let mut block_idx = 0;
    while block_idx < blocks.len() {
        if protected.contains(&block_idx) {
            block_idx += 1;
            continue;
        }
        let hit = blocks[block_idx].instrs.iter().position(|i| {
            matches!(i, Instr::Invoke { method, .. }
                if method.name == sig.name && method.descriptor == sig.descriptor)
        });
        let Some(i) = hit else {
            block_idx += 1;
            continue;
        };
        changed = true;

        let original = blocks[block_idx].clone();
        let call = original.instrs[i].clone();
        let head: Vec<Instr> = original.instrs[..i].to_vec();
        let tail: Vec<Instr> = original.instrs[i + 1..].to_vec();

        let sdk = Reg(next_reg);
        next_reg += 1;

        let call_block = BlockId(blocks.len() as u32);
        let tail_block = BlockId(blocks.len() as u32 + 1);

        // The guarded call, falling through to the tail.
        blocks.push(BasicBlock {
            instrs: vec![call],
            terminator: Terminator::Goto(tail_block),
        });
        protected.insert(call_block.index());
        // The rest of the original block.
        blocks.push(BasicBlock {
            instrs: tail,
            terminator: original.terminator.clone(),
        });

        // Rewrite the head block: read SDK_INT and branch.
        let mut instrs = head;
        instrs.push(Instr::FieldGet {
            dst: sdk,
            field: Box::new(FieldRef::sdk_int()),
            object: None,
        });
        let terminator = match (at_least, below) {
            (Some(lo), None) => Terminator::If {
                cond: Cond::Ge,
                lhs: sdk,
                rhs: Operand::Imm(i64::from(lo.get())),
                then_blk: call_block,
                else_blk: tail_block,
            },
            (None, Some(hi)) => Terminator::If {
                cond: Cond::Lt,
                lhs: sdk,
                rhs: Operand::Imm(i64::from(hi.get())),
                then_blk: call_block,
                else_blk: tail_block,
            },
            (Some(lo), Some(hi)) => {
                // Two-sided: an intermediate block checks the upper
                // bound.
                let upper_block = BlockId(blocks.len() as u32);
                blocks.push(BasicBlock {
                    instrs: Vec::new(),
                    terminator: Terminator::If {
                        cond: Cond::Lt,
                        lhs: sdk,
                        rhs: Operand::Imm(i64::from(hi.get())),
                        then_blk: call_block,
                        else_blk: tail_block,
                    },
                });
                protected.insert(upper_block.index());
                Terminator::If {
                    cond: Cond::Ge,
                    lhs: sdk,
                    rhs: Operand::Imm(i64::from(lo.get())),
                    then_blk: upper_block,
                    else_blk: tail_block,
                }
            }
            (None, None) => return None,
        };
        blocks[block_idx] = BasicBlock { instrs, terminator };
        // Re-scan the same block index? The head no longer contains the
        // call; continue forward (the tail block will be scanned in a
        // later iteration).
        block_idx += 1;
    }

    changed.then(|| MethodBody::from_blocks(blocks).expect("synthesized guards stay well-formed"))
}

/// Adds the runtime-permission protocol around a dangerous usage: the
/// `onRequestPermissionsResult` handler on the site's class, plus an
/// `ActivityCompat.requestPermissions` call at the top of the site
/// method itself, so the grant precedes the use on every path.
fn add_runtime_protocol(apk: &mut Apk, site: &MethodRef) -> bool {
    let class_name = &site.class;
    let request_call = Instr::Invoke {
        kind: InvokeKind::Static,
        method: Box::new(MethodRef::new(
            "android.support.v4.app.ActivityCompat",
            "requestPermissions",
            "(Landroid/app/Activity;[Ljava/lang/String;I)V",
        )),
        args: Box::new([]),
        dst: None,
    };
    let patch = |dex: &mut DexFile| -> bool {
        let Some(class) = dex.class(class_name).cloned() else {
            return false;
        };
        let mut class: ClassDef = class;
        let mut changed = false;
        if class
            .method(&MethodSig::new(
                "onRequestPermissionsResult",
                "(I[Ljava/lang/String;[I)V",
            ))
            .is_none()
        {
            let handler_body = MethodBody::from_blocks(vec![BasicBlock {
                instrs: vec![Instr::Nop],
                terminator: Terminator::Return(None),
            }])
            .expect("static body is valid");
            class
                .add_method(MethodDef::concrete(
                    "onRequestPermissionsResult",
                    "(I[Ljava/lang/String;[I)V",
                    handler_body,
                ))
                .expect("handler absence checked above");
            changed = true;
        }
        // Request call at the top of the site method, so the grant
        // precedes the dangerous use on every execution path.
        if let Some(m) = class
            .methods
            .iter_mut()
            .find(|m| m.name == *site.name && m.descriptor == *site.descriptor)
        {
            if let Some(body) = &m.body {
                let already = body.call_sites().any(|c| &*c.name == "requestPermissions");
                if !already {
                    let mut blocks = body.blocks().to_vec();
                    blocks[0].instrs.insert(0, request_call.clone());
                    m.body = Some(MethodBody::from_blocks(blocks).expect("prepend keeps validity"));
                    changed = true;
                }
            }
        }
        if changed {
            dex.update_class(class);
        }
        changed
    };
    let mut changed = patch(&mut apk.primary);
    if !changed {
        for dex in &mut apk.secondary {
            changed |= patch(dex);
            if changed {
                break;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompatDetector, SaintDroid};
    use saint_adf::{well_known, AndroidFramework};
    use saint_ir::{ApkBuilder, ClassBuilder, ClassOrigin, Permission};
    use std::sync::Arc;

    fn tool() -> SaintDroid {
        SaintDroid::new(Arc::new(AndroidFramework::curated()))
    }

    fn listing1() -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                b.ret_void();
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
    fn backward_guard_silences_listing1() {
        let t = tool();
        let apk = listing1();
        let report = t.analyze(&apk).unwrap();
        assert_eq!(report.total(), 1);
        let out = repair(&apk, &report, &RepairOptions::default());
        assert!(matches!(out.actions[0], RepairAction::GuardInserted { .. }));
        let after = t.analyze(&out.apk).unwrap();
        assert!(after.is_clean(), "{after}");
    }

    #[test]
    fn forward_guard_for_removed_api() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_virtual(well_known::http_client_execute(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        let t = tool();
        let report = t.analyze(&apk).unwrap();
        assert_eq!(report.total(), 1);
        let out = repair(&apk, &report, &RepairOptions::default());
        match &out.actions[0] {
            RepairAction::GuardInserted {
                below, at_least, ..
            } => {
                assert_eq!(*below, Some(ApiLevel::new(23)));
                assert_eq!(*at_least, None);
            }
            other => panic!("expected guard, got {other:?}"),
        }
        assert!(t.analyze(&out.apk).unwrap().is_clean());
    }

    #[test]
    fn deep_finding_guards_the_facade() {
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
        let t = tool();
        let report = t.analyze(&apk).unwrap();
        assert!(report.mismatches[0].is_deep());
        let out = repair(&apk, &report, &RepairOptions::default());
        match &out.actions[0] {
            RepairAction::GuardInserted { guarded_call, .. } => {
                assert_eq!(&*guarded_call.name, "applyTint");
            }
            other => panic!("expected facade guard, got {other:?}"),
        }
        assert!(t.analyze(&out.apk).unwrap().is_clean());
    }

    #[test]
    fn runtime_protocol_added_for_request_mismatch() {
        let apk = saint_corpus_kolab();
        let t = tool();
        let report = t.analyze(&apk).unwrap();
        assert_eq!(report.count(MismatchKind::PermissionRequest), 1);
        let out = repair(&apk, &report, &RepairOptions::default());
        assert!(out
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::RuntimeProtocolAdded { .. })));
        assert!(t.analyze(&out.apk).unwrap().is_clean());
    }

    // Local clone of the Kolab case shape to avoid a corpus dev-dep
    // cycle.
    fn saint_corpus_kolab() -> Apk {
        let export = ClassBuilder::new("p.Export", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("saveToCard", "()V", |b| {
                b.invoke_static(well_known::get_external_storage_directory(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        ApkBuilder::new("p", ApiLevel::new(19), ApiLevel::new(26))
            .permission(Permission::android("WRITE_EXTERNAL_STORAGE"))
            .activity("p.Export")
            .class(export)
            .unwrap()
            .build()
    }

    #[test]
    fn revocation_requires_manifest_fix() {
        let export = ClassBuilder::new("p.Export", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("saveToCard", "()V", |b| {
                b.invoke_static(well_known::get_external_storage_directory(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(15), ApiLevel::new(22))
            .permission(Permission::android("WRITE_EXTERNAL_STORAGE"))
            .class(export)
            .unwrap()
            .build();
        let t = tool();
        let report = t.analyze(&apk).unwrap();
        assert_eq!(report.count(MismatchKind::PermissionRevocation), 1);

        // Conservative: advisory only, nothing changes.
        let conservative = repair(&apk, &report, &RepairOptions::default());
        assert!(matches!(
            conservative.actions[0],
            RepairAction::Advisory { .. }
        ));
        assert_eq!(conservative.apk.manifest.target_sdk, ApiLevel::new(22));

        // Aggressive: target raised + protocol added → clean.
        let aggressive = repair(
            &apk,
            &report,
            &RepairOptions {
                apply_manifest_fixes: true,
            },
        );
        assert_eq!(
            aggressive.apk.manifest.target_sdk,
            ApiLevel::RUNTIME_PERMISSIONS
        );
        assert!(t.analyze(&aggressive.apk).unwrap().is_clean());
    }

    #[test]
    fn callback_fix_raises_min_sdk_when_allowed() {
        let layout = ClassBuilder::new("p.Layout", ClassOrigin::App)
            .extends("android.widget.LinearLayout")
            .method("drawableHotspotChanged", "(FF)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(15), ApiLevel::new(27))
            .class(layout)
            .unwrap()
            .build();
        let t = tool();
        let report = t.analyze(&apk).unwrap();
        assert_eq!(report.family_count(crate::Family::Apc), 1);
        let out = repair(
            &apk,
            &report,
            &RepairOptions {
                apply_manifest_fixes: true,
            },
        );
        assert!(out
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::MinSdkRaised { to, .. } if to.get() == 21)));
        assert!(t.analyze(&out.apk).unwrap().is_clean());
    }

    #[test]
    fn wrap_preserves_surrounding_instructions() {
        let mut b = saint_ir::BodyBuilder::new();
        let r = b.alloc_reg();
        b.const_int(r, 7);
        b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
        b.const_int(r, 9);
        b.ret_void();
        let body = b.finish().unwrap();
        let patched = wrap_matching_calls(
            &body,
            &well_known::context_get_color_state_list().signature(),
            Some(ApiLevel::new(23)),
            None,
        )
        .unwrap();
        patched.validate().unwrap();
        // All original instructions survive.
        let total_instrs: usize = patched.blocks().iter().map(|b| b.instrs.len()).sum();
        assert_eq!(total_instrs, 4); // const, sget, call, const
                                     // And the guard reads SDK_INT.
        assert!(patched
            .blocks()
            .iter()
            .flat_map(|b| &b.instrs)
            .any(Instr::is_sdk_int_read));
    }

    #[test]
    fn wrap_without_match_returns_none() {
        let mut b = saint_ir::BodyBuilder::new();
        b.ret_void();
        let body = b.finish().unwrap();
        assert!(wrap_matching_calls(
            &body,
            &MethodSig::new("nothing", "()V"),
            Some(ApiLevel::new(23)),
            None
        )
        .is_none());
    }

    #[test]
    fn wrap_handles_multiple_sites_in_one_block() {
        let mut b = saint_ir::BodyBuilder::new();
        b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
        b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
        b.ret_void();
        let body = b.finish().unwrap();
        let patched = wrap_matching_calls(
            &body,
            &well_known::context_get_color_state_list().signature(),
            Some(ApiLevel::new(23)),
            None,
        )
        .unwrap();
        patched.validate().unwrap();
        let guards = patched
            .blocks()
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.is_sdk_int_read())
            .count();
        assert_eq!(guards, 2, "both call sites guarded:\n{patched}");
    }
}
