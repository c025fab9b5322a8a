//! Property-based round-trip tests for the SAPK codec: arbitrary valid
//! APKs must encode and decode to an identical value, and arbitrary
//! byte soup must never panic the decoder.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

use saint_ir::{
    codec, ApiLevel, Apk, BasicBlock, BinOp, ClassDef, ClassName, ClassOrigin, Cond, DexFile,
    FieldDef, FieldRef, Instr, InvokeKind, Manifest, MethodBody, MethodDef, MethodFlags, MethodRef,
    Operand, Permission, Reg, Terminator,
};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u16..32).prop_map(Reg)
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_reg().prop_map(Operand::Reg),
        any::<i64>().prop_map(Operand::Imm),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}(\\.[A-Z][a-zA-Z0-9_$]{0,8}){1,3}"
}

fn arb_simple() -> impl Strategy<Value = String> {
    "[a-z][a-zA-Z0-9_]{0,10}"
}

fn arb_descriptor() -> impl Strategy<Value = String> {
    "\\((I|J|Z|Landroid/os/Bundle;){0,3}\\)(V|I|Z)"
}

fn arb_method_ref() -> impl Strategy<Value = MethodRef> {
    (arb_name(), arb_simple(), arb_descriptor()).prop_map(|(c, n, d)| MethodRef::new(c, n, d))
}

fn arb_field_ref() -> impl Strategy<Value = FieldRef> {
    (arb_name(), arb_simple()).prop_map(|(c, n)| FieldRef::new(c, n))
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Lt),
        Just(Cond::Le),
        Just(Cond::Gt),
        Just(Cond::Ge),
    ]
}

fn arb_invoke_kind() -> impl Strategy<Value = InvokeKind> {
    prop_oneof![
        Just(InvokeKind::Virtual),
        Just(InvokeKind::Static),
        Just(InvokeKind::Direct),
        Just(InvokeKind::Interface),
        Just(InvokeKind::Super),
    ]
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), any::<i64>()).prop_map(|(dst, value)| Instr::Const { dst, value }),
        (arb_reg(), ".{0,24}").prop_map(|(dst, value)| Instr::ConstString { dst, value }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Instr::Move { dst, src }),
        (arb_binop(), arb_reg(), arb_reg(), arb_operand())
            .prop_map(|(op, dst, lhs, rhs)| Instr::BinOp { op, dst, lhs, rhs }),
        (arb_reg(), arb_name()).prop_map(|(dst, c)| Instr::NewInstance {
            dst,
            class: ClassName::new(c)
        }),
        (
            arb_invoke_kind(),
            arb_method_ref(),
            vec(arb_reg(), 0..4),
            option::of(arb_reg())
        )
            .prop_map(|(kind, method, args, dst)| Instr::Invoke {
                kind,
                method: Box::new(method),
                args: args.into(),
                dst
            }),
        (arb_reg(), arb_field_ref(), option::of(arb_reg())).prop_map(|(dst, field, object)| {
            Instr::FieldGet {
                dst,
                field: Box::new(field),
                object,
            }
        }),
        (arb_reg(), arb_field_ref(), option::of(arb_reg())).prop_map(|(src, field, object)| {
            Instr::FieldPut {
                src,
                field: Box::new(field),
                object,
            }
        }),
        Just(Instr::Nop),
    ]
}

/// A structurally valid body: branch targets are drawn modulo the block
/// count after generation.
fn arb_body() -> impl Strategy<Value = MethodBody> {
    vec(
        (
            vec(arb_instr(), 0..6),
            any::<u8>(),
            arb_cond(),
            arb_reg(),
            arb_operand(),
            any::<u8>(),
            any::<u8>(),
        ),
        1..5,
    )
    .prop_map(|raw| {
        let n = raw.len() as u32;
        let blocks: Vec<BasicBlock> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (instrs, kind, cond, lhs, rhs, t1, t2))| {
                let target = |t: u8| saint_ir::BlockId(u32::from(t) % n);
                let terminator = match kind % 4 {
                    0 => Terminator::Goto(target(t1)),
                    1 => Terminator::If {
                        cond,
                        lhs,
                        rhs,
                        then_blk: target(t1),
                        else_blk: target(t2),
                    },
                    2 => Terminator::Return(if t1 % 2 == 0 { None } else { Some(lhs) }),
                    _ => {
                        // Keep the last block a return so bodies are well formed.
                        if i as u32 == n - 1 {
                            Terminator::Return(None)
                        } else {
                            Terminator::Throw(lhs)
                        }
                    }
                };
                BasicBlock { instrs, terminator }
            })
            .collect();
        MethodBody::from_blocks(blocks).expect("targets are in range by construction")
    })
}

fn arb_method(idx: usize) -> impl Strategy<Value = MethodDef> {
    (
        arb_descriptor(),
        any::<bool>(),
        any::<bool>(),
        option::of(arb_body()),
    )
        .prop_map(move |(descriptor, is_static, is_native, body)| MethodDef {
            name: format!("m{idx}"),
            descriptor,
            flags: MethodFlags {
                is_static,
                is_abstract: body.is_none() && !is_native,
                is_native: body.is_none() && is_native,
                is_synthetic: false,
            },
            body,
        })
}

fn arb_class(idx: usize) -> impl Strategy<Value = ClassDef> {
    (
        option::of(arb_name()),
        vec(arb_name(), 0..2),
        vec((arb_simple(), any::<bool>()), 0..3),
        vec(arb_method(0), 0..1),
        vec(arb_method(1), 0..1),
    )
        .prop_map(move |(super_class, interfaces, fields, m0, m1)| {
            let mut c = ClassDef::new(format!("gen.pkg.C{idx}"), ClassOrigin::App);
            c.super_class = super_class.map(ClassName::new);
            c.interfaces = interfaces.into_iter().map(ClassName::new).collect();
            c.fields = fields
                .into_iter()
                .map(|(name, is_static)| FieldDef { name, is_static })
                .collect();
            for m in m0.into_iter().chain(m1) {
                c.add_method(m).expect("distinct generated names");
            }
            c
        })
}

fn arb_apk() -> impl Strategy<Value = Apk> {
    (
        2u8..30,
        0u8..10,
        vec("[A-Z_]{3,12}", 0..4),
        vec(arb_class(0), 0..1),
        vec(arb_class(1), 0..1),
        vec(arb_class(2), 0..1),
        any::<bool>(),
    )
        .prop_map(|(min, span, perms, c0, c1, c2, has_source)| {
            let min_l = ApiLevel::new(min);
            let target = ApiLevel::new(min.saturating_add(span));
            let mut manifest = Manifest::new("gen.pkg", min_l, target, None).unwrap();
            manifest.uses_permissions =
                perms.into_iter().map(|p| Permission::android(&p)).collect();
            let mut apk = Apk::new(manifest);
            for c in c0.into_iter().chain(c1).chain(c2) {
                apk.primary.add_class(c).unwrap();
            }
            apk.has_source = has_source;
            let mut payload = DexFile::new("assets/p.dex");
            payload
                .add_class(ClassDef::new("gen.pay.P", ClassOrigin::DynamicPayload))
                .unwrap();
            apk.secondary.push(payload);
            apk
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_roundtrip(apk in arb_apk()) {
        let bytes = codec::encode_apk(&apk);
        let back = codec::decode_apk(&bytes).expect("generated apks decode");
        prop_assert_eq!(apk, back);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..512)) {
        let _ = codec::decode_apk(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_corrupted_valid(apk in arb_apk(), pos in 0usize..4096, flip in 1u8..255) {
        let mut bytes = codec::encode_apk(&apk);
        if !bytes.is_empty() {
            let idx = pos % bytes.len();
            bytes[idx] ^= flip;
            let _ = codec::decode_apk(&bytes);
        }
    }

    #[test]
    fn size_units_stable_under_roundtrip(apk in arb_apk()) {
        let bytes = codec::encode_apk(&apk);
        let back = codec::decode_apk(&bytes).unwrap();
        prop_assert_eq!(apk.size_units(), back.size_units());
        prop_assert_eq!(apk.class_count(), back.class_count());
    }
}
